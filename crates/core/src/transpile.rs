//! Syntax-directed transpilation from Featherweight Cypher to Featherweight
//! SQL over the induced relational schema (Section 5.2, Figures 16-18 and
//! 21-22).
//!
//! The central invariant of the translation is the naming convention for
//! clause-level queries: the result of translating a clause is a projection
//! whose columns are named `<var>_<key>` for every variable visible after
//! the clause and every property key of its label.  Pattern-level queries
//! are raw join trees whose columns are `<alias>.<attr>` (one alias per
//! pattern variable).  This mirrors the CTE structure of Figure 7, where the
//! first `MATCH` becomes `T1` with columns `c1_CID, ..., s_SID`.
//!
//! * `Q-Ret` / `Q-Agg` / `Q-OrderBy` / `Q-Union(All)` — [`transpile_query`].
//! * `C-Match1` / `C-Match2` / `C-OptMatch` / `C-With` — clause translation.
//! * `PT-Node` / `PT-Path` — pattern translation (edge tables joined on
//!   `SRC`/`TGT` foreign keys, honouring edge direction).
//! * `E-*` / `P-*` — expression and predicate translation, including
//!   `P-Exists` which becomes a (tuple) `IN` subquery correlated on the
//!   variables shared with the enclosing clause.

use crate::infer_sdt::{SdtContext, SRC_ATTR, TGT_ATTR};
use graphiti_common::{Error, Ident, Result};
use graphiti_cypher::ast as cy;
use graphiti_sql::{ColumnRef, SelectItem, SqlExpr, SqlPred, SqlQuery};
use std::collections::HashMap;

/// Transpiles a Cypher query into a SQL query over the induced relational
/// schema (the `Transpile` step of Algorithm 1).
pub fn transpile_query(ctx: &SdtContext, query: &cy::Query) -> Result<SqlQuery> {
    let mut t = Transpiler { ctx, fresh: 0, nullable: Vec::new() };
    t.query(query)
}

/// Transpiles a Cypher query and renders the result as SQL text (the Fig. 7
/// style output).
pub fn transpile_to_sql_text(ctx: &SdtContext, query: &cy::Query) -> Result<String> {
    let q = transpile_query(ctx, query)?;
    Ok(graphiti_sql::query_to_string(&q))
}

/// How property accesses `var.key` are rendered in the current context.
enum RefStyle<'a> {
    /// Over a raw pattern join: `alias.key` (aliases map pattern variables to
    /// table aliases, which differ only for repeated variables).
    Pattern(&'a HashMap<String, String>),
    /// Over a projected clause query: the unqualified column `var_key`.
    Clause,
    /// Over a join of two renamed clause queries: qualified by side.
    Sided {
        /// Alias of the left (previous-clause) side.
        t1: &'a str,
        /// Variables provided by the left side.
        x1: &'a [(Ident, Ident)],
        /// Alias of the right (pattern) side.
        t2: &'a str,
    },
}

impl RefStyle<'_> {
    fn prop(&self, var: &Ident, key: &Ident) -> SqlExpr {
        match self {
            RefStyle::Pattern(aliases) => {
                let alias =
                    aliases.get(var.as_str()).cloned().unwrap_or_else(|| var.as_str().to_string());
                SqlExpr::Col(ColumnRef::qualified(alias, key.clone()))
            }
            RefStyle::Clause => SqlExpr::Col(ColumnRef::unqualified(format!("{var}_{key}"))),
            RefStyle::Sided { t1, x1, t2 } => {
                let side = if x1.iter().any(|(v, _)| v == var) { *t1 } else { *t2 };
                SqlExpr::Col(ColumnRef::qualified(side, format!("{var}_{key}")))
            }
        }
    }
}

/// The result of translating a path pattern (`PT-Node`/`PT-Path`).
struct PatternResult {
    /// Pattern variables with their labels, in first-occurrence order.
    vars: Vec<(Ident, Ident)>,
    /// Raw join tree whose columns are `alias.attr`.
    query: SqlQuery,
    /// Residual conditions: inline property constraints and primary-key
    /// equalities for repeated variables.
    conds: Vec<SqlPred>,
    /// Variable-to-alias mapping.
    aliases: HashMap<String, String>,
}

struct Transpiler<'a> {
    ctx: &'a SdtContext,
    fresh: usize,
    /// The variables that may hold `NULL` after the clauses translated so
    /// far in the current return query: those an `OPTIONAL MATCH` bound,
    /// and their `WITH` renamings.
    nullable: Vec<Ident>,
}

impl<'a> Transpiler<'a> {
    fn fresh_alias(&mut self, prefix: &str) -> String {
        self.fresh += 1;
        format!("{prefix}{}", self.fresh)
    }

    // ---------------------------------------------------------------- query

    fn query(&mut self, q: &cy::Query) -> Result<SqlQuery> {
        match q {
            cy::Query::Return(r) => self.return_query(r),
            cy::Query::OrderBy { input, keys } => self.order_by(input, keys),
            cy::Query::Union(a, b) => {
                Ok(SqlQuery::Union(Box::new(self.query(a)?), Box::new(self.query(b)?)))
            }
            cy::Query::UnionAll(a, b) => {
                Ok(SqlQuery::UnionAll(Box::new(self.query(a)?), Box::new(self.query(b)?)))
            }
        }
    }

    fn return_query(&mut self, r: &cy::ReturnQuery) -> Result<SqlQuery> {
        self.nullable.clear();
        let (vars, clause_q) = self.clause(&r.clause)?;
        let mut items = Vec::with_capacity(r.items.len());
        for (expr, name) in r.items.iter().zip(r.names.iter()) {
            let translated = self.expr(expr, &RefStyle::Clause, &vars)?;
            items.push(SelectItem::aliased(translated, name.clone()));
        }
        if !r.has_agg() {
            Ok(SqlQuery::Project { input: Box::new(clause_q), items, distinct: r.distinct })
        } else {
            // Q-Agg: non-aggregate output expressions become grouping keys.
            let keys: Vec<SqlExpr> =
                items.iter().filter(|i| !i.expr.has_agg()).map(|i| i.expr.clone()).collect();
            Ok(SqlQuery::GroupBy {
                input: Box::new(clause_q),
                keys,
                items,
                having: SqlPred::true_(),
            })
        }
    }

    fn order_by(&mut self, input: &cy::Query, keys: &[cy::SortKey]) -> Result<SqlQuery> {
        let translated_input = self.query(input)?;
        // Resolve each sort key against the output column names of the
        // underlying return query.
        let ret = innermost_return(input).ok_or_else(|| {
            Error::unsupported("ORDER BY over set operations is outside the supported fragment")
        })?;
        let mut sql_keys = Vec::with_capacity(keys.len());
        for key in keys {
            let name = resolve_sort_key(ret, &key.expr)?;
            sql_keys.push((SqlExpr::Col(ColumnRef::unqualified(name)), key.ascending));
        }
        Ok(SqlQuery::OrderBy { input: Box::new(translated_input), keys: sql_keys })
    }

    // --------------------------------------------------------------- clause

    fn clause(&mut self, c: &cy::Clause) -> Result<(Vec<(Ident, Ident)>, SqlQuery)> {
        match c {
            cy::Clause::Match { prev: None, pattern, pred } => {
                // C-Match1.
                let pr = self.pattern(pattern)?;
                let style = RefStyle::Pattern(&pr.aliases);
                let filter = self.pred(pred, &style, &pr.vars)?;
                let mut all = pr.conds.clone();
                all.push(filter);
                let selected = wrap_select(pr.query.clone(), SqlPred::conjunction(all));
                let projected = self.project_pattern_vars(selected, &pr)?;
                Ok((pr.vars, projected))
            }
            cy::Clause::Match { prev: Some(prev), pattern, pred } => {
                // C-Match2.
                let (x1, q1) = self.clause(prev)?;
                let pr = self.pattern(pattern)?;
                let q2 = {
                    let selected =
                        wrap_select(pr.query.clone(), SqlPred::conjunction(pr.conds.clone()));
                    self.project_pattern_vars(selected, &pr)?
                };
                let t1 = self.fresh_alias("T");
                let t2 = self.fresh_alias("T");
                let join_pred = self.shared_var_join_pred(&t1, &x1, &t2, &pr.vars)?;
                let joined = SqlQuery::Join {
                    left: Box::new(q1.rename(t1.clone())),
                    right: Box::new(q2.rename(t2.clone())),
                    kind: graphiti_sql::JoinKind::Inner,
                    pred: join_pred,
                };
                let vars_out = merge_vars(&x1, &pr.vars);
                let projected = self.project_sided(joined, &vars_out, &t1, &x1, &t2)?;
                let filter = self.pred(pred, &RefStyle::Clause, &vars_out)?;
                Ok((vars_out, wrap_select(projected, filter)))
            }
            cy::Clause::OptMatch { prev, pattern, pred } => {
                // C-OptMatch: the predicate participates in the outer-join
                // condition so that unmatched rows survive with NULLs.
                let (x1, q1) = self.clause(prev)?;
                let pr = self.pattern(pattern)?;
                let q2 = {
                    let selected =
                        wrap_select(pr.query.clone(), SqlPred::conjunction(pr.conds.clone()));
                    self.project_pattern_vars(selected, &pr)?
                };
                let t1 = self.fresh_alias("T");
                let t2 = self.fresh_alias("T");
                let vars_out = merge_vars(&x1, &pr.vars);
                let shared = self.shared_var_join_pred(&t1, &x1, &t2, &pr.vars)?;
                let style = RefStyle::Sided { t1: &t1, x1: &x1, t2: &t2 };
                let filter = self.pred(pred, &style, &vars_out)?;
                let join_pred = SqlPred::and(shared, filter);
                let joined = SqlQuery::Join {
                    left: Box::new(q1.rename(t1.clone())),
                    right: Box::new(q2.rename(t2.clone())),
                    kind: graphiti_sql::JoinKind::Left,
                    pred: join_pred,
                };
                let projected = self.project_sided(joined, &vars_out, &t1, &x1, &t2)?;
                for (v, _) in &pr.vars {
                    if !x1.iter().any(|(v1, _)| v1 == v) && !self.nullable.contains(v) {
                        self.nullable.push(v.clone());
                    }
                }
                Ok((vars_out, projected))
            }
            cy::Clause::With { prev, old, new } => {
                // C-With: projection plus renaming of the kept variables.
                let (x1, q1) = self.clause(prev)?;
                self.nullable = old
                    .iter()
                    .zip(new)
                    .filter(|(o, _)| self.nullable.contains(o))
                    .map(|(_, n)| n.clone())
                    .collect();
                let mut items = Vec::new();
                let mut vars_out = Vec::new();
                for (o, n) in old.iter().zip(new.iter()) {
                    let label =
                        x1.iter().find(|(v, _)| v == o).map(|(_, l)| l.clone()).ok_or_else(
                            || Error::eval(format!("WITH references unbound variable `{o}`")),
                        )?;
                    for key in self.ctx.keys_of(label.as_str())? {
                        items.push(SelectItem::aliased(
                            SqlExpr::Col(ColumnRef::unqualified(format!("{o}_{key}"))),
                            format!("{n}_{key}"),
                        ));
                    }
                    vars_out.push((n.clone(), label));
                }
                Ok((vars_out, q1.project(items)))
            }
        }
    }

    /// The join predicate equating the primary keys of variables shared by
    /// two clause-level queries (the `φ''` of C-Match2 / C-OptMatch).
    fn shared_var_join_pred(
        &self,
        t1: &str,
        x1: &[(Ident, Ident)],
        t2: &str,
        x2: &[(Ident, Ident)],
    ) -> Result<SqlPred> {
        let mut conds = Vec::new();
        for (v, l) in x2 {
            if x1.iter().any(|(v1, _)| v1 == v) {
                let pk = self.ctx.pk_of(l.as_str())?;
                conds.push(SqlPred::col_eq(
                    SqlExpr::Col(ColumnRef::qualified(t1, format!("{v}_{pk}"))),
                    SqlExpr::Col(ColumnRef::qualified(t2, format!("{v}_{pk}"))),
                ));
            }
        }
        Ok(SqlPred::conjunction(conds))
    }

    /// Projects a raw pattern query to the canonical `<var>_<key>` columns.
    fn project_pattern_vars(&self, input: SqlQuery, pr: &PatternResult) -> Result<SqlQuery> {
        let mut items = Vec::new();
        for (v, l) in &pr.vars {
            let alias = pr.aliases.get(v.as_str()).cloned().unwrap_or_else(|| v.to_string());
            for key in self.ctx.keys_of(l.as_str())? {
                items.push(SelectItem::aliased(
                    SqlExpr::Col(ColumnRef::qualified(alias.clone(), key.clone())),
                    format!("{v}_{key}"),
                ));
            }
        }
        Ok(input.project(items))
    }

    /// Projects a joined pair of clause queries back to `<var>_<key>`
    /// columns, taking each variable from the side that provides it.
    fn project_sided(
        &self,
        input: SqlQuery,
        vars: &[(Ident, Ident)],
        t1: &str,
        x1: &[(Ident, Ident)],
        t2: &str,
    ) -> Result<SqlQuery> {
        let mut items = Vec::new();
        for (v, l) in vars {
            let side = if x1.iter().any(|(v1, _)| v1 == v) { t1 } else { t2 };
            for key in self.ctx.keys_of(l.as_str())? {
                items.push(SelectItem::aliased(
                    SqlExpr::Col(ColumnRef::qualified(side, format!("{v}_{key}"))),
                    format!("{v}_{key}"),
                ));
            }
        }
        Ok(input.project(items))
    }

    // -------------------------------------------------------------- pattern

    fn pattern(&mut self, pp: &cy::PathPattern) -> Result<PatternResult> {
        let mut vars: Vec<(Ident, Ident)> = Vec::new();
        let mut aliases: HashMap<String, String> = HashMap::new();
        let mut conds: Vec<SqlPred> = Vec::new();

        let start_alias = self.bind_pattern_var(
            &pp.start.var,
            &pp.start.label,
            &mut vars,
            &mut aliases,
            &mut conds,
        )?;
        for (key, value) in &pp.start.props {
            conds.push(SqlPred::col_eq(
                SqlExpr::Col(ColumnRef::qualified(start_alias.clone(), key.clone())),
                SqlExpr::Value(value.clone()),
            ));
        }
        let mut query = SqlQuery::table(self.ctx.table_of(pp.start.label.as_str())?.clone())
            .rename(&*start_alias);

        let mut prev_alias = start_alias;
        let mut prev_pk = self.ctx.pk_of(pp.start.label.as_str())?.clone();
        let mut prev_label = pp.start.label.clone();

        for (edge_pat, node_pat) in &pp.steps {
            if !self.ctx.is_edge(edge_pat.label.as_str()) {
                return Err(Error::schema(format!("`{}` is not an edge label", edge_pat.label)));
            }
            let edge_alias = self.bind_pattern_var(
                &edge_pat.var,
                &edge_pat.label,
                &mut vars,
                &mut aliases,
                &mut conds,
            )?;
            for (key, value) in &edge_pat.props {
                conds.push(SqlPred::col_eq(
                    SqlExpr::Col(ColumnRef::qualified(edge_alias.clone(), key.clone())),
                    SqlExpr::Value(value.clone()),
                ));
            }
            let node_alias = self.bind_pattern_var(
                &node_pat.var,
                &node_pat.label,
                &mut vars,
                &mut aliases,
                &mut conds,
            )?;
            for (key, value) in &node_pat.props {
                conds.push(SqlPred::col_eq(
                    SqlExpr::Col(ColumnRef::qualified(node_alias.clone(), key.clone())),
                    SqlExpr::Value(value.clone()),
                ));
            }
            let node_pk = self.ctx.pk_of(node_pat.label.as_str())?.clone();

            let prev_ref = SqlExpr::Col(ColumnRef::qualified(prev_alias.clone(), prev_pk.clone()));
            let next_ref = SqlExpr::Col(ColumnRef::qualified(node_alias.clone(), node_pk.clone()));
            let src_ref = SqlExpr::Col(ColumnRef::qualified(edge_alias.clone(), SRC_ATTR));
            let tgt_ref = SqlExpr::Col(ColumnRef::qualified(edge_alias.clone(), TGT_ATTR));

            // The edge type fixes which endpoint labels are legal; an
            // orientation is admissible only when the labels line up (Cypher
            // matches by node identity, so a value collision between keys of
            // different types must not produce a spurious SQL match).
            let edge_ty =
                self.ctx.graph_schema.edge_type(edge_pat.label.as_str()).ok_or_else(|| {
                    Error::schema(format!("unknown edge label `{}`", edge_pat.label))
                })?;
            let forward_ok = edge_ty.src == prev_label && edge_ty.tgt == node_pat.label;
            let backward_ok = edge_ty.src == node_pat.label && edge_ty.tgt == prev_label;

            // (edge-side condition, node-side condition)
            let (edge_join_pred, node_join_pred) = match edge_pat.dir {
                cy::Direction::Right => {
                    if forward_ok {
                        (
                            SqlPred::col_eq(src_ref.clone(), prev_ref.clone()),
                            SqlPred::col_eq(tgt_ref.clone(), next_ref.clone()),
                        )
                    } else {
                        (SqlPred::Bool(false), SqlPred::true_())
                    }
                }
                cy::Direction::Left => {
                    if backward_ok {
                        (
                            SqlPred::col_eq(tgt_ref.clone(), prev_ref.clone()),
                            SqlPred::col_eq(src_ref.clone(), next_ref.clone()),
                        )
                    } else {
                        (SqlPred::Bool(false), SqlPred::true_())
                    }
                }
                cy::Direction::Undirected => match (forward_ok, backward_ok) {
                    (true, false) => (
                        SqlPred::col_eq(src_ref.clone(), prev_ref.clone()),
                        SqlPred::col_eq(tgt_ref.clone(), next_ref.clone()),
                    ),
                    (false, true) => (
                        SqlPred::col_eq(tgt_ref.clone(), prev_ref.clone()),
                        SqlPred::col_eq(src_ref.clone(), next_ref.clone()),
                    ),
                    (true, true) => (
                        SqlPred::true_(),
                        SqlPred::or(
                            SqlPred::and(
                                SqlPred::col_eq(src_ref.clone(), prev_ref.clone()),
                                SqlPred::col_eq(tgt_ref.clone(), next_ref.clone()),
                            ),
                            SqlPred::and(
                                SqlPred::col_eq(tgt_ref.clone(), prev_ref.clone()),
                                SqlPred::col_eq(src_ref.clone(), next_ref.clone()),
                            ),
                        ),
                    ),
                    (false, false) => (SqlPred::Bool(false), SqlPred::true_()),
                },
            };
            query = SqlQuery::Join {
                left: Box::new(query),
                right: Box::new(
                    SqlQuery::table(self.ctx.table_of(edge_pat.label.as_str())?.clone())
                        .rename(&*edge_alias),
                ),
                kind: graphiti_sql::JoinKind::Inner,
                pred: edge_join_pred,
            };
            query = SqlQuery::Join {
                left: Box::new(query),
                right: Box::new(
                    SqlQuery::table(self.ctx.table_of(node_pat.label.as_str())?.clone())
                        .rename(&*node_alias),
                ),
                kind: graphiti_sql::JoinKind::Inner,
                pred: node_join_pred,
            };
            prev_alias = node_alias;
            prev_pk = node_pk;
            prev_label = node_pat.label.clone();
        }
        Ok(PatternResult { vars, query, conds, aliases })
    }

    /// Registers a pattern variable, allocating a distinct alias (and a
    /// primary-key equality condition) for repeated occurrences.
    fn bind_pattern_var(
        &mut self,
        var: &Ident,
        label: &Ident,
        vars: &mut Vec<(Ident, Ident)>,
        aliases: &mut HashMap<String, String>,
        conds: &mut Vec<SqlPred>,
    ) -> Result<String> {
        match aliases.get(var.as_str()) {
            None => {
                aliases.insert(var.as_str().to_string(), var.as_str().to_string());
                vars.push((var.clone(), label.clone()));
                Ok(var.as_str().to_string())
            }
            Some(first_alias) => {
                let first_alias = first_alias.clone();
                let declared_label = vars
                    .iter()
                    .find(|(v, _)| v == var)
                    .map(|(_, l)| l.clone())
                    .unwrap_or_else(|| label.clone());
                if declared_label != *label {
                    return Err(Error::schema(format!(
                        "variable `{var}` is used with conflicting labels `{declared_label}` and `{label}`"
                    )));
                }
                let dup_alias = self.fresh_alias(&format!("{var}__dup"));
                let pk = self.ctx.pk_of(label.as_str())?;
                conds.push(SqlPred::col_eq(
                    SqlExpr::Col(ColumnRef::qualified(first_alias, pk.clone())),
                    SqlExpr::Col(ColumnRef::qualified(dup_alias.clone(), pk.clone())),
                ));
                Ok(dup_alias)
            }
        }
    }

    // ---------------------------------------------- expressions & predicates

    fn expr(
        &mut self,
        e: &cy::Expr,
        style: &RefStyle<'_>,
        scope: &[(Ident, Ident)],
    ) -> Result<SqlExpr> {
        match e {
            cy::Expr::Prop(var, key) => Ok(style.prop(var, key)),
            cy::Expr::Var(var) => {
                let label = scope
                    .iter()
                    .find(|(v, _)| v == var)
                    .map(|(_, l)| l.clone())
                    .ok_or_else(|| Error::eval(format!("unbound variable `{var}`")))?;
                let pk = self.ctx.pk_of(label.as_str())?;
                Ok(style.prop(var, pk))
            }
            cy::Expr::Value(v) => Ok(SqlExpr::Value(v.clone())),
            cy::Expr::Cast(p) => Ok(SqlExpr::Cast(Box::new(self.pred(p, style, scope)?))),
            cy::Expr::Agg(kind, inner, distinct) => {
                let translated = if matches!(inner.as_ref(), cy::Expr::Star) {
                    SqlExpr::Star
                } else {
                    self.expr(inner, style, scope)?
                };
                Ok(SqlExpr::Agg(*kind, Box::new(translated), *distinct))
            }
            cy::Expr::Arith(a, op, b) => Ok(SqlExpr::Arith(
                Box::new(self.expr(a, style, scope)?),
                *op,
                Box::new(self.expr(b, style, scope)?),
            )),
            cy::Expr::Star => Ok(SqlExpr::Star),
        }
    }

    fn pred(
        &mut self,
        p: &cy::Pred,
        style: &RefStyle<'_>,
        scope: &[(Ident, Ident)],
    ) -> Result<SqlPred> {
        match p {
            cy::Pred::True => Ok(SqlPred::Bool(true)),
            cy::Pred::False => Ok(SqlPred::Bool(false)),
            cy::Pred::Cmp(a, op, b) => Ok(SqlPred::Cmp(
                Box::new(self.expr(a, style, scope)?),
                *op,
                Box::new(self.expr(b, style, scope)?),
            )),
            cy::Pred::IsNull(e) => Ok(SqlPred::IsNull(Box::new(self.expr(e, style, scope)?))),
            cy::Pred::In(e, vs) => {
                Ok(SqlPred::InList(Box::new(self.expr(e, style, scope)?), vs.clone()))
            }
            cy::Pred::Exists(pp) => self.exists(pp, style, scope),
            cy::Pred::And(a, b) => Ok(SqlPred::And(
                Box::new(self.pred(a, style, scope)?),
                Box::new(self.pred(b, style, scope)?),
            )),
            cy::Pred::Or(a, b) => Ok(SqlPred::Or(
                Box::new(self.pred(a, style, scope)?),
                Box::new(self.pred(b, style, scope)?),
            )),
            cy::Pred::Not(inner) => Ok(SqlPred::Not(Box::new(self.pred(inner, style, scope)?))),
        }
    }

    /// `P-Exists`: the pattern becomes a subquery projecting the primary keys
    /// of the variables shared with the enclosing scope, and the predicate
    /// becomes a (tuple) `IN` check correlating those keys.  A shared
    /// variable that an `OPTIONAL MATCH` may have nullified matches
    /// nothing, so its key is also required to be non-`NULL`: `NULL IN
    /// (…)` alone would be `Unknown`, and `NOT EXISTS` would drop the row
    /// that Cypher keeps.
    fn exists(
        &mut self,
        pp: &cy::PathPattern,
        style: &RefStyle<'_>,
        scope: &[(Ident, Ident)],
    ) -> Result<SqlPred> {
        let pr = self.pattern(pp)?;
        let selected = wrap_select(pr.query.clone(), SqlPred::conjunction(pr.conds.clone()));
        let shared: Vec<(Ident, Ident)> =
            pr.vars.iter().filter(|(v, _)| scope.iter().any(|(sv, _)| sv == v)).cloned().collect();
        if shared.is_empty() {
            // Uncorrelated existence check.
            let (v, l) = &pr.vars[0];
            let alias = pr.aliases.get(v.as_str()).cloned().unwrap_or_else(|| v.to_string());
            let pk = self.ctx.pk_of(l.as_str())?;
            let sub = selected.project(vec![SelectItem::expr(SqlExpr::Col(ColumnRef::qualified(
                alias,
                pk.clone(),
            )))]);
            return Ok(SqlPred::Exists(Box::new(sub)));
        }
        let mut sub_items = Vec::new();
        let mut lhs = Vec::new();
        let mut conds = Vec::new();
        for (v, l) in &shared {
            let pk = self.ctx.pk_of(l.as_str())?;
            let alias = pr.aliases.get(v.as_str()).cloned().unwrap_or_else(|| v.to_string());
            sub_items.push(SelectItem::aliased(
                SqlExpr::Col(ColumnRef::qualified(alias, pk.clone())),
                format!("{v}_{pk}"),
            ));
            if self.nullable.contains(v) {
                conds.push(SqlPred::Not(Box::new(SqlPred::IsNull(Box::new(style.prop(v, pk))))));
            }
            lhs.push(style.prop(v, pk));
        }
        let sub = selected.project(sub_items);
        conds.push(SqlPred::InQuery(lhs, Box::new(sub)));
        Ok(SqlPred::conjunction(conds))
    }
}

fn wrap_select(input: SqlQuery, pred: SqlPred) -> SqlQuery {
    if matches!(pred, SqlPred::Bool(true)) {
        input
    } else {
        SqlQuery::Select { input: Box::new(input), pred }
    }
}

fn merge_vars(x1: &[(Ident, Ident)], x2: &[(Ident, Ident)]) -> Vec<(Ident, Ident)> {
    let mut out = x1.to_vec();
    for (v, l) in x2 {
        if !out.iter().any(|(v1, _)| v1 == v) {
            out.push((v.clone(), l.clone()));
        }
    }
    out
}

fn innermost_return(q: &cy::Query) -> Option<&cy::ReturnQuery> {
    match q {
        cy::Query::Return(r) => Some(r),
        cy::Query::OrderBy { input, .. } => innermost_return(input),
        cy::Query::Union(..) | cy::Query::UnionAll(..) => None,
    }
}

/// Maps an `ORDER BY` key expression to an output column name of the return
/// query.
fn resolve_sort_key(ret: &cy::ReturnQuery, key: &cy::Expr) -> Result<String> {
    // Exact match against a returned expression.
    if let Some(idx) = ret.items.iter().position(|e| e == key) {
        return Ok(ret.names[idx].to_string());
    }
    // Match by output name.
    let rendered = graphiti_cypher::pretty::expr_to_string(key);
    if let Some(idx) = ret.names.iter().position(|n| n.as_str() == rendered) {
        return Ok(ret.names[idx].to_string());
    }
    if let cy::Expr::Var(v) = key {
        if let Some(idx) = ret.names.iter().position(|n| n == v) {
            return Ok(ret.names[idx].to_string());
        }
    }
    Err(Error::unsupported(format!("ORDER BY key `{rendered}` does not match any returned column")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer_sdt::infer_sdt;
    use graphiti_common::Value;
    use graphiti_cypher::{eval_query as eval_cypher, parse_query as parse_cypher};
    use graphiti_graph::{EdgeType, GraphInstance, GraphSchema, NodeType};
    use graphiti_sql::eval_query as eval_sql;
    use graphiti_transformer::apply_to_graph;

    fn emp_schema() -> GraphSchema {
        GraphSchema::new()
            .with_node(NodeType::new("EMP", ["id", "name"]))
            .with_node(NodeType::new("DEPT", ["dnum", "dname"]))
            .with_edge(EdgeType::new("WORK_AT", "EMP", "DEPT", ["wid"]))
    }

    fn emp_graph() -> GraphInstance {
        let mut g = GraphInstance::new();
        let a = g.add_node("EMP", [("id", Value::Int(1)), ("name", Value::str("A"))]);
        let b = g.add_node("EMP", [("id", Value::Int(2)), ("name", Value::str("B"))]);
        let c = g.add_node("EMP", [("id", Value::Int(3)), ("name", Value::str("C"))]);
        let cs = g.add_node("DEPT", [("dnum", Value::Int(1)), ("dname", Value::str("CS"))]);
        let ee = g.add_node("DEPT", [("dnum", Value::Int(2)), ("dname", Value::str("EE"))]);
        g.add_edge("WORK_AT", a, cs, [("wid", Value::Int(10))]);
        g.add_edge("WORK_AT", b, cs, [("wid", Value::Int(11))]);
        g.add_edge("WORK_AT", c, ee, [("wid", Value::Int(12))]);
        g
    }

    /// Checks the soundness theorem (Thm. 5.7) on a concrete instance: the
    /// Cypher query on the graph and the transpiled SQL query on the
    /// SDT-image of the graph produce equivalent tables.
    fn assert_equivalent_on(schema: &GraphSchema, graph: &GraphInstance, cypher: &str) {
        let ctx = infer_sdt(schema).unwrap();
        let q = parse_cypher(cypher).unwrap();
        let cypher_result = eval_cypher(schema, graph, &q).unwrap();
        let sql = transpile_query(&ctx, &q).unwrap();
        let induced = apply_to_graph(&ctx.sdt, schema, graph, &ctx.induced_schema).unwrap();
        let sql_result = eval_sql(&induced, &sql).unwrap();
        assert!(
            cypher_result.equivalent(&sql_result),
            "not equivalent for `{cypher}`\ncypher:\n{cypher_result}\nsql:\n{sql_result}\nquery:\n{}",
            graphiti_sql::query_to_string(&sql)
        );
    }

    #[test]
    fn example_5_3_aggregation_becomes_group_by() {
        let ctx = infer_sdt(&emp_schema()).unwrap();
        let q = parse_cypher(
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN m.dname AS name, Count(n) AS num",
        )
        .unwrap();
        let sql = transpile_query(&ctx, &q).unwrap();
        match &sql {
            SqlQuery::GroupBy { keys, items, .. } => {
                assert_eq!(keys.len(), 1);
                assert_eq!(items.len(), 2);
            }
            other => panic!("expected GroupBy, got {other:?}"),
        }
    }

    #[test]
    fn example_5_4_match_clause_joins_on_foreign_keys() {
        let ctx = infer_sdt(&emp_schema()).unwrap();
        let q = parse_cypher("MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN n.id").unwrap();
        let text = transpile_to_sql_text(&ctx, &q).unwrap();
        assert!(text.contains("EMP AS n"));
        assert!(text.contains("WORK_AT AS e"));
        assert!(text.contains("DEPT AS m"));
        assert!(text.contains("e.SRC = n.id"));
        assert!(text.contains("e.TGT = m.dnum"));
    }

    #[test]
    fn soundness_simple_projection() {
        assert_equivalent_on(&emp_schema(), &emp_graph(), "MATCH (n:EMP) RETURN n.name, n.id");
    }

    #[test]
    fn soundness_path_and_aggregation() {
        assert_equivalent_on(
            &emp_schema(),
            &emp_graph(),
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN m.dname AS name, Count(n) AS num",
        );
    }

    #[test]
    fn soundness_reverse_direction_and_props() {
        assert_equivalent_on(
            &emp_schema(),
            &emp_graph(),
            "MATCH (m:DEPT)<-[e:WORK_AT]-(n:EMP {id: 1}) RETURN m.dname, n.name",
        );
        assert_equivalent_on(
            &emp_schema(),
            &emp_graph(),
            "MATCH (n:EMP)-[e:WORK_AT]-(m:DEPT) RETURN n.name, m.dname",
        );
    }

    #[test]
    fn soundness_where_predicates() {
        assert_equivalent_on(
            &emp_schema(),
            &emp_graph(),
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) WHERE n.id + 1 = 2 OR m.dname = 'EE' \
             RETURN n.name, m.dname",
        );
        assert_equivalent_on(
            &emp_schema(),
            &emp_graph(),
            "MATCH (n:EMP) WHERE n.id IN [1, 3] AND NOT n.name IS NULL RETURN n.name",
        );
    }

    #[test]
    fn soundness_multiple_match_clauses_share_variables() {
        assert_equivalent_on(
            &emp_schema(),
            &emp_graph(),
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) MATCH (n2:EMP)-[e2:WORK_AT]->(m:DEPT) \
             WHERE n.id < n2.id RETURN n.name, n2.name, m.dname",
        );
    }

    #[test]
    fn soundness_with_clause_and_second_match() {
        assert_equivalent_on(
            &emp_schema(),
            &emp_graph(),
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) WITH m \
             MATCH (m:DEPT)<-[e2:WORK_AT]-(n2:EMP) RETURN m.dname, Count(*)",
        );
    }

    #[test]
    fn soundness_optional_match() {
        let mut g = emp_graph();
        // Add an employee without a department.
        g.add_node("EMP", [("id", Value::Int(4)), ("name", Value::str("D"))]);
        assert_equivalent_on(
            &emp_schema(),
            &g,
            "MATCH (n:EMP) OPTIONAL MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN n.name, m.dname",
        );
        assert_equivalent_on(
            &emp_schema(),
            &g,
            "MATCH (n:EMP) OPTIONAL MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) \
             RETURN n.name, Count(m) AS cnt",
        );
    }

    #[test]
    fn soundness_exists_over_a_variable_optional_match_nullified() {
        // D works nowhere, so m is NULL in D's row: EXISTS over m (or its
        // `WITH` renaming) is false there, and NOT EXISTS true, where `NULL
        // IN (…)` alone is Unknown.
        let mut g = emp_graph();
        g.add_node("EMP", [("id", Value::Int(4)), ("name", Value::str("D"))]);
        let opt = "MATCH (n:EMP) OPTIONAL MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT)";
        for tail in [
            "MATCH (n:EMP) WHERE NOT EXISTS ((m:DEPT)<-[f:WORK_AT]-(k:EMP)) RETURN n.name",
            "MATCH (n:EMP) WHERE EXISTS ((m:DEPT)<-[f:WORK_AT]-(k:EMP)) RETURN n.name",
            "WITH n AS x, m AS y MATCH (x:EMP) WHERE NOT EXISTS ((y:DEPT)<-[f:WORK_AT]-(k:EMP)) \
             RETURN x.name",
        ] {
            assert_equivalent_on(&emp_schema(), &g, &format!("{opt} {tail}"));
        }
    }

    #[test]
    fn soundness_exists_predicate() {
        assert_equivalent_on(
            &emp_schema(),
            &emp_graph(),
            "MATCH (m:DEPT) WHERE EXISTS ((n:EMP)-[e:WORK_AT]->(m:DEPT)) RETURN m.dname",
        );
    }

    #[test]
    fn soundness_union_and_order_by() {
        assert_equivalent_on(
            &emp_schema(),
            &emp_graph(),
            "MATCH (n:EMP) RETURN n.name AS x UNION ALL MATCH (m:DEPT) RETURN m.dname AS x",
        );
        assert_equivalent_on(
            &emp_schema(),
            &emp_graph(),
            "MATCH (n:EMP) RETURN n.name AS x UNION MATCH (m:DEPT) RETURN m.dname AS x",
        );
        // ORDER BY compares with ordered table equivalence.
        let ctx = infer_sdt(&emp_schema()).unwrap();
        let q = parse_cypher("MATCH (n:EMP) RETURN n.name AS x ORDER BY x DESC").unwrap();
        let cy_t = eval_cypher(&emp_schema(), &emp_graph(), &q).unwrap();
        let sql = transpile_query(&ctx, &q).unwrap();
        let induced =
            apply_to_graph(&ctx.sdt, &emp_schema(), &emp_graph(), &ctx.induced_schema).unwrap();
        let sql_t = eval_sql(&induced, &sql).unwrap();
        assert!(cy_t.equivalent_ordered(&sql_t));
    }

    #[test]
    fn soundness_distinct_and_arithmetic() {
        assert_equivalent_on(
            &emp_schema(),
            &emp_graph(),
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN DISTINCT m.dname",
        );
        assert_equivalent_on(
            &emp_schema(),
            &emp_graph(),
            "MATCH (n:EMP) RETURN n.id * 2 + 1 AS x, Sum(n.id) AS s",
        );
    }

    #[test]
    fn motivating_example_transpiles_and_counts_four() {
        // Section 2: the Cypher query double-counts, yielding (1, 4) where
        // the SQL query yields (1, 2).
        let schema = GraphSchema::new()
            .with_node(NodeType::new("CONCEPT", ["CID", "Name"]))
            .with_node(NodeType::new("PA", ["PID", "CSID"]))
            .with_node(NodeType::new("SENTENCE", ["SID", "PMID"]))
            .with_edge(EdgeType::new("CS", "CONCEPT", "PA", ["eCID", "eCSID"]))
            .with_edge(EdgeType::new("SP", "PA", "SENTENCE", ["SPID", "eSID"]));
        let mut g = GraphInstance::new();
        let atropine =
            g.add_node("CONCEPT", [("CID", Value::Int(1)), ("Name", Value::str("Atropine"))]);
        let _aspirin =
            g.add_node("CONCEPT", [("CID", Value::Int(2)), ("Name", Value::str("Aspirin"))]);
        let pa0 = g.add_node("PA", [("PID", Value::Int(0)), ("CSID", Value::Int(0))]);
        let pa1 = g.add_node("PA", [("PID", Value::Int(1)), ("CSID", Value::Int(1))]);
        let s0 = g.add_node("SENTENCE", [("SID", Value::Int(0)), ("PMID", Value::Int(0))]);
        let _s1 = g.add_node("SENTENCE", [("SID", Value::Int(1)), ("PMID", Value::Int(0))]);
        g.add_edge("CS", atropine, pa0, [("eCID", Value::Int(1)), ("eCSID", Value::Int(0))]);
        g.add_edge("CS", atropine, pa1, [("eCID", Value::Int(1)), ("eCSID", Value::Int(1))]);
        g.add_edge("SP", pa0, s0, [("SPID", Value::Int(0)), ("eSID", Value::Int(0))]);
        g.add_edge("SP", pa1, s0, [("SPID", Value::Int(1)), ("eSID", Value::Int(0))]);

        let cypher = "MATCH (c1:CONCEPT {CID: 1})-[r1:CS]->(p1:PA)-[r2:SP]->(s:SENTENCE) \
                      WITH s \
                      MATCH (s:SENTENCE)<-[r3:SP]-(p2:PA)<-[r4:CS]-(c2:CONCEPT) \
                      RETURN c2.CID, Count(*)";
        let q = parse_cypher(cypher).unwrap();
        let cy_result = eval_cypher(&schema, &g, &q).unwrap();
        assert_eq!(cy_result.rows, vec![vec![Value::Int(1), Value::Int(4)]]);

        // Transpiled SQL over the induced schema agrees with the Cypher
        // semantics (soundness), i.e. it also yields 4.
        let ctx = infer_sdt(&schema).unwrap();
        let sql = transpile_query(&ctx, &q).unwrap();
        let induced = apply_to_graph(&ctx.sdt, &schema, &g, &ctx.induced_schema).unwrap();
        let sql_result = eval_sql(&induced, &sql).unwrap();
        assert!(cy_result.equivalent(&sql_result));
    }

    #[test]
    fn unsupported_order_by_key_is_reported() {
        let ctx = infer_sdt(&emp_schema()).unwrap();
        let q = parse_cypher("MATCH (n:EMP) RETURN n.name AS x ORDER BY n.id").unwrap();
        // n.id is not among the returned columns.
        assert!(transpile_query(&ctx, &q).is_err());
    }

    #[test]
    fn completeness_on_a_query_battery() {
        // Theorem 5.8 (completeness): every featherweight query in this
        // battery transpiles successfully.
        let ctx = infer_sdt(&emp_schema()).unwrap();
        let queries = [
            "MATCH (n:EMP) RETURN n.id",
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN n.id, m.dname",
            "MATCH (n:EMP) WHERE n.id > 1 RETURN Count(*)",
            "MATCH (n:EMP) OPTIONAL MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN n.id, m.dnum",
            "MATCH (n:EMP) WITH n AS p MATCH (p:EMP)-[e:WORK_AT]->(m:DEPT) RETURN p.name",
            "MATCH (n:EMP) RETURN n.id UNION MATCH (m:DEPT) RETURN m.dnum",
            "MATCH (n:EMP) RETURN Min(n.id), Max(n.id), Avg(n.id), Sum(n.id), Count(n.id)",
            "MATCH (m:DEPT) WHERE EXISTS ((n:EMP)-[e:WORK_AT]->(m:DEPT)) RETURN m.dname",
        ];
        for q in queries {
            let parsed = parse_cypher(q).unwrap();
            assert!(transpile_query(&ctx, &parsed).is_ok(), "failed to transpile `{q}`");
        }
    }
}
