//! The naive SQL oracle: a bag-semantics interpreter for Featherweight SQL.
//!
//! [`eval_query_unoptimized`] interprets a [`SqlQuery`] against a
//! [`RelInstance`] and produces a [`Table`].  Semantics follow the paper's
//! references (VeriEQL's formalization): bags of tuples, three-valued
//! `NULL` logic, `GROUP BY` with `HAVING`, inner/outer joins, `IN`/`EXISTS`
//! subqueries (with correlation), and common table expressions.
//!
//! It runs the query as written — no selection pushdown — and re-resolves
//! every column reference by string matching for every row.  Uncorrelated
//! subqueries in a predicate's connective structure are evaluated once per
//! operator and cached, and equi-joins run as hash joins.  It is the one
//! reference every SQL differential compares the executor
//! ([`eval_query`](crate::eval_query) and
//! [`eval_vectorized`](crate::eval_vectorized)) against, and the baseline
//! of the ablation benchmark.

use crate::ast::*;
use graphiti_common::{AggKind, Error, Result, Truth, Value};
use graphiti_relational::{RelInstance, Table};
use std::collections::HashMap;

/// Evaluates a SQL query without the selection-pushdown pass and without
/// expression compilation: every column reference is re-resolved by string
/// matching for every row, as in the seed interpreter.  The reference the
/// executor is differentially tested against, and the ablation baseline.
pub fn eval_query_unoptimized(instance: &RelInstance, query: &SqlQuery) -> Result<Table> {
    Evaluator { instance }.eval(query, &CteEnv::new(), None)
}

type CteEnv = HashMap<String, Table>;

/// Row-scope used to resolve column references, chained for correlated
/// subqueries.
pub(crate) struct Scope<'a> {
    pub(crate) columns: &'a [String],
    pub(crate) row: &'a [Value],
    pub(crate) outer: Option<&'a Scope<'a>>,
}

impl<'a> Scope<'a> {
    /// Resolves a column reference to the value it names, walking the outer
    /// scope chain for correlated references.  Returns a borrow — callers
    /// clone only when they need ownership.
    pub(crate) fn lookup(&self, cref: &ColumnRef) -> Option<&'a Value> {
        match resolve_column(self.columns, cref) {
            Some(idx) => Some(&self.row[idx]),
            None => self.outer.and_then(|o| o.lookup(cref)),
        }
    }
}

/// Resolves a column reference against a column-name list.
///
/// Qualified references match `qualifier.name` exactly (case-insensitively);
/// unqualified references match a column whose unqualified suffix equals the
/// name, provided the match is unambiguous.
pub fn resolve_column(columns: &[String], cref: &ColumnRef) -> Option<usize> {
    let target = cref.render();
    if let Some(i) = columns.iter().position(|c| c.eq_ignore_ascii_case(&target)) {
        return Some(i);
    }
    let name = cref.name.as_str();
    let matches: Vec<usize> = columns
        .iter()
        .enumerate()
        .filter(|(_, c)| unqualified(c).eq_ignore_ascii_case(name))
        .map(|(i, _)| i)
        .collect();
    match (cref.qualifier.as_ref(), matches.len()) {
        (None, 1) => Some(matches[0]),
        // A qualified reference may still resolve by suffix when the
        // qualifier was erased by an intermediate projection, as long as the
        // suffix is unambiguous.
        (Some(_), 1) => Some(matches[0]),
        _ => None,
    }
}

fn unqualified(name: &str) -> &str {
    match name.rsplit_once('.') {
        Some((_, s)) => s,
        None => name,
    }
}

/// Qualifies a table's columns with a new alias (`ρ_T`).
fn requalify(table: &Table, alias: &str) -> Table {
    Table {
        columns: table.columns.iter().map(|c| format!("{alias}.{}", unqualified(c))).collect(),
        rows: table.rows.clone(),
    }
}

struct Evaluator<'a> {
    instance: &'a RelInstance,
}

/// Uncorrelated subquery results of one operator, keyed by AST identity.
type SubqCache = HashMap<usize, Table>;

impl<'a> Evaluator<'a> {
    fn eval(&self, q: &SqlQuery, ctes: &CteEnv, outer: Option<&Scope<'_>>) -> Result<Table> {
        match q {
            SqlQuery::Table(name) => self.scan(name.as_str(), ctes),
            SqlQuery::Rename { input, alias } => {
                let t = self.eval(input, ctes, outer)?;
                Ok(requalify(&t, alias.as_str()))
            }
            SqlQuery::Select { input, pred } => {
                let t = self.eval(input, ctes, outer)?;
                let mut out = Table::new(t.columns.clone());
                let cache = self.cache_subqueries(pred, ctes);
                for row in &t.rows {
                    let scope = Scope { columns: &t.columns, row, outer };
                    if self.eval_pred(pred, &scope, ctes, &cache)?.is_true() {
                        out.rows.push(row.clone());
                    }
                }
                Ok(out)
            }
            SqlQuery::Project { input, items, distinct } => {
                let t = self.eval(input, ctes, outer)?;
                let columns: Vec<String> = items.iter().map(|i| i.output_name()).collect();
                let mut out = Table::new(columns);
                for row in &t.rows {
                    let scope = Scope { columns: &t.columns, row, outer };
                    let mut new_row = Vec::with_capacity(items.len());
                    for item in items {
                        new_row.push(self.eval_scalar(&item.expr, &scope, ctes)?);
                    }
                    out.rows.push(new_row);
                }
                Ok(if *distinct { out.dedup() } else { out })
            }
            SqlQuery::Join { left, right, kind, pred } => {
                let lt = self.eval(left, ctes, outer)?;
                let rt = self.eval(right, ctes, outer)?;
                self.join(&lt, &rt, *kind, pred, ctes, outer)
            }
            SqlQuery::Union(a, b) => {
                let ta = self.eval(a, ctes, outer)?;
                let tb = self.eval(b, ctes, outer)?;
                concat_union(ta, tb, true)
            }
            SqlQuery::UnionAll(a, b) => {
                let ta = self.eval(a, ctes, outer)?;
                let tb = self.eval(b, ctes, outer)?;
                concat_union(ta, tb, false)
            }
            SqlQuery::GroupBy { input, keys, items, having } => {
                let t = self.eval(input, ctes, outer)?;
                self.group_by(&t, keys, items, having, ctes, outer)
            }
            SqlQuery::With { name, definition, body } => {
                let def = self.eval(definition, ctes, outer)?;
                let mut extended = ctes.clone();
                extended.insert(name.as_str().to_string(), def);
                self.eval(body, &extended, outer)
            }
            SqlQuery::OrderBy { input, keys } => {
                let t = self.eval(input, ctes, outer)?;
                self.order_by(t, keys)
            }
        }
    }

    fn scan(&self, name: &str, ctes: &CteEnv) -> Result<Table> {
        if let Some(t) = ctes
            .get(name)
            .or_else(|| ctes.iter().find(|(k, _)| k.eq_ignore_ascii_case(name)).map(|(_, v)| v))
        {
            return Ok(requalify(t, name));
        }
        match self.instance.table(name) {
            Some(t) => Ok(requalify(t, name)),
            None => Err(Error::eval(format!("unknown table `{name}`"))),
        }
    }

    // ---------------------------------------------------------------- joins

    fn join(
        &self,
        left: &Table,
        right: &Table,
        kind: JoinKind,
        pred: &SqlPred,
        ctes: &CteEnv,
        outer: Option<&Scope<'_>>,
    ) -> Result<Table> {
        let columns: Vec<String> =
            left.columns.iter().chain(right.columns.iter()).cloned().collect();
        let mut out = Table::new(columns.clone());

        // Try a hash join for inner/left equi-joins without subqueries.
        if matches!(kind, JoinKind::Cross)
            || (matches!(kind, JoinKind::Inner | JoinKind::Left) && !pred.has_subquery())
        {
            if let Some(table) =
                self.try_hash_join(left, right, kind, pred, &columns, ctes, outer)?
            {
                return Ok(table);
            }
        }

        // General nested-loop join, interpreting the predicate per pair.
        let cache = self.cache_subqueries(pred, ctes);
        let null_right = vec![Value::Null; right.columns.len()];
        let null_left = vec![Value::Null; left.columns.len()];
        let mut right_matched = vec![false; right.rows.len()];
        for lrow in &left.rows {
            let mut matched = false;
            for (ri, rrow) in right.rows.iter().enumerate() {
                let combined: Vec<Value> = lrow.iter().chain(rrow.iter()).cloned().collect();
                let scope = Scope { columns: &columns, row: &combined, outer };
                let ok = match kind {
                    JoinKind::Cross => true,
                    _ => self.eval_pred(pred, &scope, ctes, &cache)?.is_true(),
                };
                if ok {
                    matched = true;
                    right_matched[ri] = true;
                    out.rows.push(combined);
                }
            }
            if !matched && matches!(kind, JoinKind::Left | JoinKind::Full) {
                out.rows.push(lrow.iter().chain(null_right.iter()).cloned().collect());
            }
        }
        if matches!(kind, JoinKind::Right | JoinKind::Full) {
            for (ri, rrow) in right.rows.iter().enumerate() {
                if !right_matched[ri] {
                    out.rows.push(null_left.iter().chain(rrow.iter()).cloned().collect());
                }
            }
        }
        Ok(out)
    }

    /// Attempts a hash join; returns `Ok(None)` if the predicate has no
    /// usable equi-conjuncts.
    #[allow(clippy::too_many_arguments)]
    fn try_hash_join(
        &self,
        left: &Table,
        right: &Table,
        kind: JoinKind,
        pred: &SqlPred,
        columns: &[String],
        ctes: &CteEnv,
        outer: Option<&Scope<'_>>,
    ) -> Result<Option<Table>> {
        if matches!(kind, JoinKind::Cross) {
            let mut out = Table::new(columns.to_vec());
            for lrow in &left.rows {
                for rrow in &right.rows {
                    out.rows.push(lrow.iter().chain(rrow.iter()).cloned().collect());
                }
            }
            return Ok(Some(out));
        }
        // Split the predicate into equi pairs and residual conjuncts.
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        let mut residual: Vec<SqlPred> = Vec::new();
        for conjunct in pred.conjuncts() {
            if let SqlPred::Cmp(a, op, b) = conjunct {
                if *op == graphiti_common::CmpOp::Eq {
                    if let (SqlExpr::Col(ca), SqlExpr::Col(cb)) = (a.as_ref(), b.as_ref()) {
                        if let (Some(li), Some(ri)) =
                            (resolve_column(&left.columns, ca), resolve_column(&right.columns, cb))
                        {
                            pairs.push((li, ri));
                            continue;
                        }
                        if let (Some(li), Some(ri)) =
                            (resolve_column(&left.columns, cb), resolve_column(&right.columns, ca))
                        {
                            pairs.push((li, ri));
                            continue;
                        }
                    }
                }
            }
            residual.push(conjunct.clone());
        }
        if pairs.is_empty() {
            return Ok(None);
        }
        // The caller only routes subquery-free predicates here, so the
        // residual never needs a subquery cache.
        let residual = SqlPred::conjunction(residual);
        let cache = SubqCache::new();
        let mut index: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
        'rows: for (ri, rrow) in right.rows.iter().enumerate() {
            let mut key = Vec::with_capacity(pairs.len());
            for (_, rcol) in &pairs {
                let v = rrow[*rcol].clone();
                if v.is_null() {
                    continue 'rows;
                }
                key.push(v);
            }
            index.entry(key).or_default().push(ri);
        }
        let mut out = Table::new(columns.to_vec());
        let null_right = vec![Value::Null; right.columns.len()];
        for lrow in &left.rows {
            let mut matched = false;
            let mut key = Vec::with_capacity(pairs.len());
            let mut has_null = false;
            for (lcol, _) in &pairs {
                let v = lrow[*lcol].clone();
                if v.is_null() {
                    has_null = true;
                    break;
                }
                key.push(v);
            }
            if !has_null {
                if let Some(ris) = index.get(&key) {
                    for &ri in ris {
                        let rrow = &right.rows[ri];
                        let combined: Vec<Value> =
                            lrow.iter().chain(rrow.iter()).cloned().collect();
                        let keep = if matches!(residual, SqlPred::Bool(true)) {
                            true
                        } else {
                            let scope = Scope { columns, row: &combined, outer };
                            self.eval_pred(&residual, &scope, ctes, &cache)?.is_true()
                        };
                        if keep {
                            matched = true;
                            out.rows.push(combined);
                        }
                    }
                }
            }
            if !matched && kind == JoinKind::Left {
                out.rows.push(lrow.iter().chain(null_right.iter()).cloned().collect());
            }
        }
        Ok(Some(out))
    }

    // ------------------------------------------------------------- grouping

    fn group_by(
        &self,
        input: &Table,
        keys: &[SqlExpr],
        items: &[SelectItem],
        having: &SqlPred,
        ctes: &CteEnv,
        outer: Option<&Scope<'_>>,
    ) -> Result<Table> {
        let columns: Vec<String> = items.iter().map(|i| i.output_name()).collect();
        let mut out = Table::new(columns);
        // Group rows by key values (hash-located, insertion-ordered).
        let mut order: Vec<Vec<Value>> = Vec::new();
        let mut groups: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
        for (ri, row) in input.rows.iter().enumerate() {
            let scope = Scope { columns: &input.columns, row, outer };
            let key: Vec<Value> =
                keys.iter().map(|k| self.eval_scalar(k, &scope, ctes)).collect::<Result<_>>()?;
            if !groups.contains_key(&key) {
                order.push(key.clone());
            }
            groups.entry(key).or_default().push(ri);
        }
        // SQL returns a single row for aggregate queries without GROUP BY
        // even when the input is empty.
        if keys.is_empty() && input.rows.is_empty() {
            order.push(Vec::new());
            groups.insert(Vec::new(), Vec::new());
        }
        let cache = self.cache_subqueries(having, ctes);
        for key in order {
            let members = &groups[&key];
            let rows: Vec<&Vec<Value>> = members.iter().map(|&i| &input.rows[i]).collect();
            if !matches!(having, SqlPred::Bool(true)) {
                let truth =
                    self.eval_group_pred(having, &rows, &input.columns, ctes, outer, &cache)?;
                if !truth.is_true() {
                    continue;
                }
            }
            let mut new_row = Vec::with_capacity(items.len());
            for item in items {
                new_row.push(self.eval_group_expr(
                    &item.expr,
                    &rows,
                    &input.columns,
                    ctes,
                    outer,
                )?);
            }
            out.rows.push(new_row);
        }
        Ok(out)
    }

    fn eval_group_expr(
        &self,
        expr: &SqlExpr,
        rows: &[&Vec<Value>],
        columns: &[String],
        ctes: &CteEnv,
        outer: Option<&Scope<'_>>,
    ) -> Result<Value> {
        match expr {
            SqlExpr::Agg(kind, inner, distinct) => {
                if matches!(inner.as_ref(), SqlExpr::Star) {
                    if *kind != AggKind::Count {
                        return Err(Error::eval("`*` may only appear inside Count(*)"));
                    }
                    return Ok(Value::Int(rows.len() as i64));
                }
                let mut values = Vec::with_capacity(rows.len());
                for row in rows {
                    let scope = Scope { columns, row, outer };
                    values.push(self.eval_scalar(inner, &scope, ctes)?);
                }
                if *distinct {
                    let mut uniq: Vec<Value> = Vec::new();
                    for v in values {
                        if !uniq.iter().any(|u| u.strict_eq(&v)) {
                            uniq.push(v);
                        }
                    }
                    Ok(kind.fold(uniq.iter()))
                } else {
                    Ok(kind.fold(values.iter()))
                }
            }
            SqlExpr::Arith(a, op, b) => {
                let va = self.eval_group_expr(a, rows, columns, ctes, outer)?;
                let vb = self.eval_group_expr(b, rows, columns, ctes, outer)?;
                va.arith(*op, &vb)
            }
            other => match rows.first() {
                Some(row) => {
                    let scope = Scope { columns, row, outer };
                    self.eval_scalar(other, &scope, ctes)
                }
                None => Ok(Value::Null),
            },
        }
    }

    fn eval_group_pred(
        &self,
        pred: &SqlPred,
        rows: &[&Vec<Value>],
        columns: &[String],
        ctes: &CteEnv,
        outer: Option<&Scope<'_>>,
        cache: &SubqCache,
    ) -> Result<Truth> {
        match pred {
            SqlPred::Bool(b) => Ok(Truth::from_bool(*b)),
            SqlPred::Cmp(a, op, b) => {
                let va = self.eval_group_expr(a, rows, columns, ctes, outer)?;
                let vb = self.eval_group_expr(b, rows, columns, ctes, outer)?;
                Ok(va.compare(*op, &vb))
            }
            SqlPred::IsNull(e) => {
                let v = self.eval_group_expr(e, rows, columns, ctes, outer)?;
                Ok(Truth::from_bool(v.is_null()))
            }
            SqlPred::InList(e, vs) => {
                let v = self.eval_group_expr(e, rows, columns, ctes, outer)?;
                let mut truth = Truth::False;
                for candidate in vs {
                    truth = truth.or(v.sql_eq(candidate));
                }
                Ok(truth)
            }
            SqlPred::And(a, b) => Ok(self
                .eval_group_pred(a, rows, columns, ctes, outer, cache)?
                .and(self.eval_group_pred(b, rows, columns, ctes, outer, cache)?)),
            SqlPred::Or(a, b) => Ok(self
                .eval_group_pred(a, rows, columns, ctes, outer, cache)?
                .or(self.eval_group_pred(b, rows, columns, ctes, outer, cache)?)),
            SqlPred::Not(p) => {
                Ok(self.eval_group_pred(p, rows, columns, ctes, outer, cache)?.not())
            }
            SqlPred::InQuery(..) | SqlPred::Exists(_) => match rows.first() {
                Some(row) => {
                    let scope = Scope { columns, row, outer };
                    self.eval_pred(pred, &scope, ctes, cache)
                }
                None => Ok(Truth::Unknown),
            },
        }
    }

    // -------------------------------------------------------------- sorting

    fn order_by(&self, mut table: Table, keys: &[(SqlExpr, bool)]) -> Result<Table> {
        let mut resolved: Vec<(usize, bool)> = Vec::new();
        for (expr, asc) in keys {
            let idx = match expr {
                SqlExpr::Col(c) => {
                    resolve_column(&table.columns, c).or_else(|| table.column_index(&c.render()))
                }
                other => table.column_index(&crate::pretty::expr_to_string(other)),
            }
            .ok_or_else(|| {
                Error::eval(format!(
                    "ORDER BY key `{}` is not an output column",
                    crate::pretty::expr_to_string(expr)
                ))
            })?;
            resolved.push((idx, *asc));
        }
        table.rows.sort_by(|a, b| {
            for (idx, asc) in &resolved {
                let ord = a[*idx].total_cmp(&b[*idx]);
                let ord = if *asc { ord } else { ord.reverse() };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        Ok(table)
    }

    // ------------------------------------------------- scalars & predicates

    fn eval_scalar(&self, e: &SqlExpr, scope: &Scope<'_>, ctes: &CteEnv) -> Result<Value> {
        match e {
            SqlExpr::Col(c) => scope
                .lookup(c)
                .cloned()
                .ok_or_else(|| Error::eval(format!("unknown column `{}`", c.render()))),
            SqlExpr::Value(v) => Ok(v.clone()),
            SqlExpr::Cast(p) => {
                let t = self.eval_pred(p, scope, ctes, &SubqCache::new())?;
                Ok(match t {
                    Truth::True => Value::Int(1),
                    Truth::False => Value::Int(0),
                    Truth::Unknown => Value::Null,
                })
            }
            SqlExpr::Agg(..) => Err(Error::eval("aggregate used outside of a GROUP BY context")),
            SqlExpr::Arith(a, op, b) => {
                let va = self.eval_scalar(a, scope, ctes)?;
                let vb = self.eval_scalar(b, scope, ctes)?;
                va.arith(*op, &vb)
            }
            SqlExpr::Star => Err(Error::eval("`*` may only appear inside Count(*)")),
        }
    }

    fn eval_pred(
        &self,
        p: &SqlPred,
        scope: &Scope<'_>,
        ctes: &CteEnv,
        cache: &SubqCache,
    ) -> Result<Truth> {
        match p {
            SqlPred::Bool(b) => Ok(Truth::from_bool(*b)),
            SqlPred::Cmp(a, op, b) => {
                let va = self.eval_scalar(a, scope, ctes)?;
                let vb = self.eval_scalar(b, scope, ctes)?;
                Ok(va.compare(*op, &vb))
            }
            SqlPred::IsNull(e) => {
                let v = self.eval_scalar(e, scope, ctes)?;
                Ok(Truth::from_bool(v.is_null()))
            }
            SqlPred::InList(e, vs) => {
                let v = self.eval_scalar(e, scope, ctes)?;
                let mut truth = Truth::False;
                for candidate in vs {
                    truth = truth.or(v.sql_eq(candidate));
                }
                Ok(truth)
            }
            SqlPred::InQuery(exprs, sub) => {
                let lhs: Vec<Value> = exprs
                    .iter()
                    .map(|e| self.eval_scalar(e, scope, ctes))
                    .collect::<Result<_>>()?;
                let table = self.subquery_result(sub, scope, ctes, cache)?;
                in_membership(&lhs, &table)
            }
            SqlPred::Exists(sub) => {
                let table = self.subquery_result(sub, scope, ctes, cache)?;
                Ok(Truth::from_bool(!table.is_empty()))
            }
            SqlPred::And(a, b) => Ok(self
                .eval_pred(a, scope, ctes, cache)?
                .and(self.eval_pred(b, scope, ctes, cache)?)),
            SqlPred::Or(a, b) => Ok(self
                .eval_pred(a, scope, ctes, cache)?
                .or(self.eval_pred(b, scope, ctes, cache)?)),
            SqlPred::Not(inner) => Ok(self.eval_pred(inner, scope, ctes, cache)?.not()),
        }
    }

    fn subquery_result(
        &self,
        sub: &SqlQuery,
        scope: &Scope<'_>,
        ctes: &CteEnv,
        cache: &SubqCache,
    ) -> Result<Table> {
        let key = sub as *const SqlQuery as usize;
        if let Some(t) = cache.get(&key) {
            return Ok(t.clone());
        }
        self.eval(sub, ctes, Some(scope))
    }

    /// Pre-evaluates the uncorrelated subqueries of a predicate so they are
    /// not recomputed for every row.
    fn cache_subqueries(&self, pred: &SqlPred, ctes: &CteEnv) -> SubqCache {
        let mut cache = SubqCache::new();
        let mut stack = vec![pred];
        while let Some(p) = stack.pop() {
            match p {
                SqlPred::InQuery(_, sub) | SqlPred::Exists(sub) => {
                    if let Ok(t) = self.eval(sub, ctes, None) {
                        cache.insert(sub.as_ref() as *const SqlQuery as usize, t);
                    }
                }
                SqlPred::And(a, b) | SqlPred::Or(a, b) => {
                    stack.push(a);
                    stack.push(b);
                }
                SqlPred::Not(inner) => stack.push(inner),
                _ => {}
            }
        }
        cache
    }
}

/// Three-valued tuple membership of `lhs` in the rows of `table` (the
/// semantics of `(E1, ..., En) IN (SELECT ...)`).
fn in_membership(lhs: &[Value], table: &Table) -> Result<Truth> {
    if table.arity() != lhs.len() {
        return Err(Error::eval(format!(
            "IN subquery arity mismatch: {} vs {}",
            table.arity(),
            lhs.len()
        )));
    }
    let mut truth = Truth::False;
    for row in &table.rows {
        let mut row_truth = Truth::True;
        for (l, r) in lhs.iter().zip(row.iter()) {
            row_truth = row_truth.and(l.sql_eq(r));
        }
        truth = truth.or(row_truth);
        if truth.is_true() {
            return Ok(Truth::True);
        }
    }
    Ok(truth)
}

fn concat_union(mut a: Table, b: Table, dedup: bool) -> Result<Table> {
    if a.arity() != b.arity() {
        return Err(Error::eval(format!("UNION arity mismatch: {} vs {}", a.arity(), b.arity())));
    }
    a.rows.extend(b.rows);
    Ok(if dedup { a.dedup() } else { a })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::{compile_query, eval_query, eval_vectorized};
    use graphiti_relational::ColumnInstance;
    use graphiti_relational::{Constraint, RelSchema, Relation};

    fn v(i: i64) -> Value {
        Value::Int(i)
    }

    fn s(x: &str) -> Value {
        Value::str(x)
    }

    /// The relational instance from Figure 3b of the paper.
    fn semmed_instance() -> RelInstance {
        let mut inst = RelInstance::new();
        inst.insert_table(
            "Concept",
            Table::with_rows(
                ["CID", "NAME"],
                vec![vec![v(1), s("Atropine")], vec![v(2), s("Aspirin")]],
            ),
        );
        inst.insert_table(
            "Cs",
            Table::with_rows(["CID", "CSID"], vec![vec![v(1), v(0)], vec![v(1), v(1)]]),
        );
        inst.insert_table(
            "Pa",
            Table::with_rows(["PID", "CSID"], vec![vec![v(0), v(0)], vec![v(1), v(1)]]),
        );
        inst.insert_table(
            "Sp",
            Table::with_rows(
                ["SPID", "SID", "PID"],
                vec![vec![v(0), v(0), v(0)], vec![v(1), v(0), v(1)]],
            ),
        );
        inst.insert_table(
            "Sentence",
            Table::with_rows(["SID", "PMID"], vec![vec![v(0), v(0)], vec![v(1), v(0)]]),
        );
        inst
    }

    fn emp_instance() -> RelInstance {
        let mut inst = RelInstance::new();
        inst.insert_table(
            "emp",
            Table::with_rows(["id", "name"], vec![vec![v(1), s("A")], vec![v(2), s("B")]]),
        );
        inst.insert_table(
            "dept",
            Table::with_rows(["dnum", "dname"], vec![vec![v(1), s("CS")], vec![v(2), s("EE")]]),
        );
        inst.insert_table(
            "work_at",
            Table::with_rows(
                ["wid", "SRC", "TGT"],
                vec![vec![v(10), v(1), v(1)], vec![v(11), v(2), v(1)]],
            ),
        );
        inst
    }

    fn run(sql: &str, inst: &RelInstance) -> Table {
        let q = parse_query(sql).unwrap();
        eval_query(inst, &q).unwrap()
    }

    #[test]
    fn motivating_sql_query_returns_count_2() {
        // Figure 4a / 4b: the SQL query returns (1, 2) on the Figure 3b
        // instance.
        let t = run(
            "SELECT c2.CID, Count(*) FROM Cs AS c2, Pa AS p2, Sp AS s2 \
             WHERE s2.PID = p2.PID AND p2.CSID = c2.CSID AND s2.SID IN ( \
               SELECT s1.SID FROM Cs AS c1, Pa AS p1, Sp AS s1 \
               WHERE s1.PID = p1.PID AND p1.CSID = c1.CSID AND c1.CID = 1 ) \
             GROUP BY CID",
            &semmed_instance(),
        );
        assert_eq!(t.len(), 1);
        assert_eq!(t.rows[0], vec![v(1), v(2)]);
    }

    #[test]
    fn simple_projection_and_selection() {
        let t = run("SELECT e.name FROM emp AS e WHERE e.id = 1", &emp_instance());
        assert_eq!(t.len(), 1);
        assert_eq!(t.rows[0][0], s("A"));
    }

    #[test]
    fn inner_join_and_qualified_columns() {
        let t = run(
            "SELECT e.name, d.dname FROM emp AS e \
             JOIN work_at AS w ON e.id = w.SRC JOIN dept AS d ON w.TGT = d.dnum",
            &emp_instance(),
        );
        assert_eq!(t.len(), 2);
        assert!(t.rows.iter().all(|r| r[1] == s("CS")));
    }

    #[test]
    fn left_join_keeps_unmatched_rows() {
        let mut inst = emp_instance();
        inst.insert_table(
            "work_at",
            Table::with_rows(["wid", "SRC", "TGT"], vec![vec![v(10), v(1), v(1)]]),
        );
        let t = run(
            "SELECT e.name, d.dname FROM emp AS e \
             LEFT JOIN work_at AS w ON e.id = w.SRC LEFT JOIN dept AS d ON w.TGT = d.dnum",
            &inst,
        );
        assert_eq!(t.len(), 2);
        let b = t.rows.iter().find(|r| r[0] == s("B")).unwrap();
        assert_eq!(b[1], Value::Null);
    }

    #[test]
    fn right_and_full_joins() {
        let mut inst = emp_instance();
        inst.insert_table(
            "work_at",
            Table::with_rows(["wid", "SRC", "TGT"], vec![vec![v(10), v(1), v(1)]]),
        );
        let right = run(
            "SELECT e.name, d.dname FROM work_at AS w \
             RIGHT JOIN dept AS d ON w.TGT = d.dnum LEFT JOIN emp AS e ON w.SRC = e.id",
            &inst,
        );
        // Both departments survive the right join; EE has no work_at row.
        assert_eq!(right.len(), 2);
        let full =
            run("SELECT e.id, w.wid FROM emp AS e FULL JOIN work_at AS w ON e.id = w.SRC", &inst);
        assert_eq!(full.len(), 2);
    }

    #[test]
    fn group_by_having_and_aggregates() {
        let t = run(
            "SELECT d.dname, Count(*) AS cnt FROM emp AS e \
             JOIN work_at AS w ON e.id = w.SRC JOIN dept AS d ON w.TGT = d.dnum \
             GROUP BY d.dname HAVING Count(*) >= 2",
            &emp_instance(),
        );
        assert_eq!(t.len(), 1);
        assert_eq!(t.rows[0], vec![s("CS"), v(2)]);
    }

    #[test]
    fn aggregates_without_group_by() {
        let t = run("SELECT Count(*), Sum(e.id), Avg(e.id) FROM emp AS e", &emp_instance());
        assert_eq!(t.rows[0], vec![v(2), v(3), Value::Float(1.5)]);
        let empty = run("SELECT Count(*) FROM emp AS e WHERE e.id > 100", &emp_instance());
        assert_eq!(empty.rows[0], vec![v(0)]);
    }

    #[test]
    fn ctes_and_nested_references() {
        let t = run(
            "WITH T1 AS (SELECT e.id AS eid, e.name AS ename FROM emp AS e), \
                  T2 AS (SELECT eid FROM T1) \
             SELECT T2.eid FROM T2 ORDER BY eid DESC",
            &emp_instance(),
        );
        assert_eq!(t.rows, vec![vec![v(2)], vec![v(1)]]);
    }

    #[test]
    fn union_and_union_all() {
        let t =
            run("SELECT e.name FROM emp AS e UNION SELECT e.name FROM emp AS e", &emp_instance());
        assert_eq!(t.len(), 2);
        let t2 = run(
            "SELECT e.name FROM emp AS e UNION ALL SELECT e.name FROM emp AS e",
            &emp_instance(),
        );
        assert_eq!(t2.len(), 4);
    }

    #[test]
    fn distinct_projection() {
        let t = run("SELECT DISTINCT d.dname FROM dept AS d, emp AS e", &emp_instance());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn correlated_exists_subquery() {
        let t = run(
            "SELECT d.dname FROM dept AS d WHERE EXISTS ( \
               SELECT w.wid FROM work_at AS w WHERE w.TGT = d.dnum)",
            &emp_instance(),
        );
        assert_eq!(t.len(), 1);
        assert_eq!(t.rows[0][0], s("CS"));
    }

    #[test]
    fn in_list_and_null_semantics() {
        let mut inst = emp_instance();
        inst.insert_table(
            "emp",
            Table::with_rows(
                ["id", "name"],
                vec![vec![v(1), s("A")], vec![v(2), Value::Null], vec![v(3), s("C")]],
            ),
        );
        // NULL name is neither equal nor unequal to 'A': the row is dropped.
        let t = run("SELECT e.id FROM emp AS e WHERE e.name IN ('A', 'C')", &inst);
        assert_eq!(t.len(), 2);
        let t2 = run("SELECT e.id FROM emp AS e WHERE e.name IS NULL", &inst);
        assert_eq!(t2.len(), 1);
        assert_eq!(t2.rows[0][0], v(2));
    }

    #[test]
    fn arithmetic_and_implicit_alias() {
        let t = run("SELECT e.id + 10 AS shifted FROM emp AS e ORDER BY shifted", &emp_instance());
        assert_eq!(t.columns, vec!["shifted".to_string()]);
        assert_eq!(t.rows, vec![vec![v(11)], vec![v(12)]]);
    }

    #[test]
    fn order_by_desc_on_aggregate_alias() {
        let t = run(
            "SELECT d.dname AS name, Count(*) AS cnt FROM dept AS d, emp AS e GROUP BY d.dname ORDER BY name DESC",
            &emp_instance(),
        );
        assert_eq!(t.rows[0][0], s("EE"));
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let q = parse_query("SELECT x.a FROM missing AS x").unwrap();
        assert!(eval_query(&emp_instance(), &q).is_err());
        let q2 = parse_query("SELECT e.nonexistent FROM emp AS e").unwrap();
        assert!(eval_query(&emp_instance(), &q2).is_err());
    }

    #[test]
    fn validates_against_schema_helpers() {
        // Sanity-check that the fixture instance satisfies a matching schema,
        // so later pipeline tests can rely on it.
        let schema = RelSchema::new()
            .with_relation(Relation::new("emp", ["id", "name"]))
            .with_relation(Relation::new("dept", ["dnum", "dname"]))
            .with_relation(Relation::new("work_at", ["wid", "SRC", "TGT"]))
            .with_constraint(Constraint::pk("emp", "id"))
            .with_constraint(Constraint::fk("work_at", "SRC", "emp", "id"));
        assert!(emp_instance().validate(&schema).is_ok());
    }

    #[test]
    fn compiled_plans_agree_with_the_oracle() {
        // Every feature the evaluator tests exercise, replayed through the
        // standalone plan path: compile once, execute, and compare against
        // the one-shot executor and the naive oracle.
        let queries = [
            "SELECT e.name FROM emp AS e WHERE e.id = 1",
            "SELECT e.name, d.dname FROM emp AS e \
             JOIN work_at AS w ON e.id = w.SRC JOIN dept AS d ON w.TGT = d.dnum",
            "SELECT e.name, d.dname FROM emp AS e \
             LEFT JOIN work_at AS w ON e.id = w.SRC LEFT JOIN dept AS d ON w.TGT = d.dnum",
            "SELECT e.id, w.wid FROM emp AS e FULL JOIN work_at AS w ON e.id = w.SRC",
            "SELECT e.name, d.dname FROM work_at AS w \
             RIGHT JOIN dept AS d ON w.TGT = d.dnum LEFT JOIN emp AS e ON w.SRC = e.id",
            "SELECT d.dname, Count(*) AS cnt FROM emp AS e \
             JOIN work_at AS w ON e.id = w.SRC JOIN dept AS d ON w.TGT = d.dnum \
             GROUP BY d.dname HAVING Count(*) >= 2",
            "SELECT Count(*), Sum(e.id), Avg(e.id) FROM emp AS e",
            "SELECT Count(*) FROM emp AS e WHERE e.id > 100",
            "WITH T1 AS (SELECT e.id AS eid, e.name AS ename FROM emp AS e), \
                  T2 AS (SELECT eid FROM T1) \
             SELECT T2.eid FROM T2 ORDER BY eid DESC",
            "SELECT e.name FROM emp AS e UNION SELECT e.name FROM emp AS e",
            "SELECT e.name FROM emp AS e UNION ALL SELECT e.name FROM emp AS e",
            "SELECT DISTINCT d.dname FROM dept AS d, emp AS e",
            "SELECT d.dname FROM dept AS d WHERE EXISTS ( \
               SELECT w.wid FROM work_at AS w WHERE w.TGT = d.dnum)",
            "SELECT e.id FROM emp AS e WHERE e.name IN ('A', 'C')",
            "SELECT e.id + 10 AS shifted FROM emp AS e ORDER BY shifted",
            "SELECT d.dname AS name, Count(*) AS cnt FROM dept AS d, emp AS e \
             GROUP BY d.dname ORDER BY name DESC",
            "SELECT e.name, d.dname FROM emp AS e, work_at AS w, dept AS d \
             WHERE e.id = w.SRC AND w.TGT = d.dnum AND e.id >= 1",
        ];
        let inst = emp_instance();
        for text in queries {
            let q = parse_query(text).unwrap();
            let plan =
                compile_query(&inst, &q).unwrap_or_else(|e| panic!("`{text}` failed to plan: {e}"));
            let planned = eval_vectorized(&inst, &ColumnInstance::from_rel(&inst), &plan)
                .unwrap_or_else(|e| panic!("`{text}` failed planned eval: {e}"));
            let fast = eval_query(&inst, &q).unwrap();
            let slow = eval_query_unoptimized(&inst, &q).unwrap();
            // The plan path shares the optimizer with `eval_query`, so the
            // results must be *identical*, not just bag-equivalent.
            assert_eq!(planned, fast, "plan vs eval_query differ on `{text}`");
            assert!(planned.equivalent(&slow), "plan vs naive differ on `{text}`");
        }
        // The motivating correlated-subquery query on the semmed instance.
        let semmed = semmed_instance();
        let text = "SELECT c2.CID, Count(*) FROM Cs AS c2, Pa AS p2, Sp AS s2 \
             WHERE s2.PID = p2.PID AND p2.CSID = c2.CSID AND s2.SID IN ( \
               SELECT s1.SID FROM Cs AS c1, Pa AS p1, Sp AS s1 \
               WHERE s1.PID = p1.PID AND p1.CSID = c1.CSID AND c1.CID = 1 ) \
             GROUP BY CID";
        let q = parse_query(text).unwrap();
        let plan = compile_query(&semmed, &q).unwrap();
        let planned = eval_vectorized(&semmed, &ColumnInstance::from_rel(&semmed), &plan).unwrap();
        assert_eq!(planned, eval_query(&semmed, &q).unwrap());
        assert!(planned.equivalent(&eval_query_unoptimized(&semmed, &q).unwrap()));
    }

    #[test]
    fn compiled_plans_are_reusable_across_evaluations() {
        let inst = emp_instance();
        let q = parse_query("SELECT e.name FROM emp AS e WHERE e.id >= 1 ORDER BY e.name").unwrap();
        let plan = compile_query(&inst, &q).unwrap();
        let columnar = ColumnInstance::from_rel(&inst);
        let first = eval_vectorized(&inst, &columnar, &plan).unwrap();
        let second = eval_vectorized(&inst, &columnar, &plan).unwrap();
        assert_eq!(first, second);
        assert_eq!(first.len(), 2);
    }

    #[test]
    fn hash_join_agrees_with_nested_loop() {
        // The same query evaluated optimized (hash joins) and unoptimized
        // (nested loops) must produce equivalent tables.
        let q = parse_query(
            "SELECT e.name, d.dname FROM emp AS e, work_at AS w, dept AS d \
             WHERE e.id = w.SRC AND w.TGT = d.dnum AND e.id >= 1",
        )
        .unwrap();
        let inst = emp_instance();
        let fast = eval_query(&inst, &q).unwrap();
        let slow = eval_query_unoptimized(&inst, &q).unwrap();
        assert!(fast.equivalent(&slow));
        assert_eq!(fast.len(), 2);
    }
}
