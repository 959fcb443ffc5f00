//! Denotational evaluator for Featherweight Cypher (Appendix A, Fig. 19).
//!
//! The evaluator interprets a [`Query`] against a [`GraphInstance`] and
//! produces a bag-semantics [`Table`].  Clause evaluation produces a list of
//! *bindings* (the paper's lists of matched subgraphs): each binding maps the
//! pattern variables to graph elements, or to `Null` for variables introduced
//! by an `OPTIONAL MATCH` that found no match.

use crate::ast::*;
use graphiti_common::{AggKind, Error, Ident, Result, Truth, Value};
use graphiti_graph::{Edge, EdgeId, GraphInstance, GraphSchema, NodeId};
use graphiti_obs::profile::{StageProfile, StageSink};
use graphiti_relational::{counting_sort, first_seen, hash_eq_class_into, KeyHasher, Table};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// A reference to a bound graph element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElemRef {
    /// A bound node.
    Node(NodeId),
    /// A bound edge.
    Edge(EdgeId),
}

/// A variable binding produced by clause evaluation.  `None` represents a
/// variable nullified by `OPTIONAL MATCH`.
pub type Binding = BTreeMap<Ident, Option<ElemRef>>;

/// Evaluates a Cypher query on a graph instance, producing a result table.
///
/// The `schema` is needed to resolve default property keys (used by the
/// `Exists` predicate and by bare-variable expressions such as `Count(n)`).
///
/// Pattern matching walks the instance's persistent adjacency indexes
/// (label → elements, per-node out/in edge lists), so extending a partial
/// binding costs O(degree) instead of O(edges).  The pre-index behaviour is
/// retained as [`eval_query_unoptimized`] for ablation benchmarks and
/// differential testing; both engines produce table-equivalent results
/// (Definition 4.4) by construction.
pub fn eval_query(schema: &GraphSchema, graph: &GraphInstance, query: &Query) -> Result<Table> {
    let ev = Evaluator { schema, graph, use_index: true, prof: None };
    ev.query(query)
}

/// [`eval_query`] with per-operator profiling: the pattern-match phase
/// and each query-level operator (`return`, `order_by`, `union`) report
/// wall time and rows in/out.  Stages come back in completion (post)
/// order; results are identical to the unprofiled path.
pub fn eval_query_profiled(
    schema: &GraphSchema,
    graph: &GraphInstance,
    query: &Query,
) -> Result<(Table, Vec<StageProfile>)> {
    let ev = Evaluator {
        schema,
        graph,
        use_index: true,
        prof: Some(std::cell::RefCell::new(StageSink::new())),
    };
    let out = ev.query(query)?;
    let stages = ev.prof.expect("sink installed above").into_inner().finish();
    Ok((out, stages))
}

/// Evaluates a Cypher query with the naive pattern matcher: every partial
/// binding rescans the full edge arena per step (O(bindings × edges)).
///
/// This is the seed evaluator's strategy, kept as the ablation baseline and
/// as the reference implementation the indexed engine is differentially
/// tested against.
pub fn eval_query_unoptimized(
    schema: &GraphSchema,
    graph: &GraphInstance,
    query: &Query,
) -> Result<Table> {
    let ev = Evaluator { schema, graph, use_index: false, prof: None };
    ev.query(query)
}

struct Evaluator<'a> {
    schema: &'a GraphSchema,
    graph: &'a GraphInstance,
    /// Walk adjacency indexes (`true`) or rescan the edge arena per binding
    /// (`false`, the retained naive path).
    use_index: bool,
    /// Per-operator stage collection, installed by [`eval_query_profiled`]
    /// (`None` costs one branch per query node).
    prof: Option<std::cell::RefCell<StageSink>>,
}

impl<'a> Evaluator<'a> {
    // ---------------------------------------------------------------- query

    /// Evaluates one query node, recording a profile stage when a sink
    /// is installed.
    fn query(&self, q: &Query) -> Result<Table> {
        let Some(prof) = &self.prof else { return self.query_node(q) };
        prof.borrow_mut().begin(match q {
            Query::Return(_) => "return",
            Query::OrderBy { .. } => "order_by",
            Query::Union(..) => "union",
            Query::UnionAll(..) => "union_all",
        });
        let out = self.query_node(q);
        prof.borrow_mut().end(out.as_ref().map(|t| t.rows.len() as u64).unwrap_or(0));
        out
    }

    fn query_node(&self, q: &Query) -> Result<Table> {
        match q {
            Query::Return(r) => self.return_query(r),
            Query::OrderBy { input, keys } => {
                let table = self.query(input)?;
                self.order_by(table, keys)
            }
            Query::Union(a, b) => {
                let ta = self.query(a)?;
                let tb = self.query(b)?;
                union_tables(ta, tb, true)
            }
            Query::UnionAll(a, b) => {
                let ta = self.query(a)?;
                let tb = self.query(b)?;
                union_tables(ta, tb, false)
            }
        }
    }

    fn order_by(&self, mut table: Table, keys: &[SortKey]) -> Result<Table> {
        // Resolve each sort key to a column of the result table.
        let mut resolved: Vec<(usize, bool)> = Vec::new();
        for k in keys {
            let name = crate::pretty::expr_to_string(&k.expr);
            let idx = table
                .column_index(&name)
                .or_else(|| match &k.expr {
                    Expr::Var(v) => table.column_index(v.as_str()),
                    Expr::Prop(_, key) => table.column_index(key.as_str()),
                    _ => None,
                })
                .ok_or_else(|| {
                    Error::eval(format!("ORDER BY key `{name}` is not a returned column"))
                })?;
            resolved.push((idx, k.ascending));
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

    /// The pattern-match phase, reported as its own `match` stage when
    /// profiling (rows out = bindings produced).
    fn clause_profiled(&self, c: &Clause) -> Result<Vec<Binding>> {
        let Some(prof) = &self.prof else { return self.clause(c) };
        prof.borrow_mut().begin("match");
        let out = self.clause(c);
        prof.borrow_mut().end(out.as_ref().map(|b| b.len() as u64).unwrap_or(0));
        out
    }

    fn return_query(&self, r: &ReturnQuery) -> Result<Table> {
        let bindings = self.clause_profiled(&r.clause)?;
        let columns: Vec<String> = r.names.iter().map(|n| n.to_string()).collect();
        let mut table = Table::new(columns);
        if !r.has_agg() {
            for b in &bindings {
                let mut row = Vec::with_capacity(r.items.len());
                for e in &r.items {
                    row.push(self.eval_expr(e, std::slice::from_ref(b))?);
                }
                table.push_row(row);
            }
        } else {
            // Implicit grouping: non-aggregate expressions form the grouping
            // key (the Groups construction in Fig. 19).  Groups are located
            // through the hash kernel (strict equality, where `Null =
            // Null`) and numbered in first-seen order, so output order
            // matches the naive engine; the bindings then move into group
            // order, and each group is folded as one slice of them.
            let group_exprs: Vec<&Expr> = r.items.iter().filter(|e| !e.has_agg()).collect();
            let width = group_exprs.len();
            // Every binding's key, back to back.
            let mut keys: Vec<Value> = Vec::with_capacity(bindings.len() * width);
            for b in &bindings {
                for e in &group_exprs {
                    keys.push(self.eval_expr(e, std::slice::from_ref(b))?);
                }
            }
            let key = |i: usize| &keys[i * width..(i + 1) * width];
            let hashes: Vec<u64> =
                (0..bindings.len()).map(|i| key_hash(key(i), Value::hash)).collect();
            let classes =
                first_seen(&hashes, |i, j| key(i).iter().zip(key(j)).all(|(a, b)| a.strict_eq(b)));
            let (order, mut offsets) = counting_sort(&classes.class_of, classes.firsts.len());
            let mut slots: Vec<Option<Binding>> = bindings.into_iter().map(Some).collect();
            let grouped: Vec<Binding> = order
                .iter()
                .map(|&i| slots[i as usize].take().expect("each binding moves once"))
                .collect();
            // Like SQL, an aggregate-only RETURN over zero matches still
            // produces a single row (e.g. `RETURN Count(*)` yields 0).
            if group_exprs.is_empty() && grouped.is_empty() {
                offsets.push(0);
            }
            for run in offsets.windows(2) {
                let members = &grouped[run[0] as usize..run[1] as usize];
                let mut row = Vec::with_capacity(r.items.len());
                for e in &r.items {
                    row.push(self.eval_expr(e, members)?);
                }
                table.push_row(row);
            }
        }
        if r.distinct {
            table = table.dedup();
        }
        Ok(table)
    }

    // --------------------------------------------------------------- clause

    fn clause(&self, c: &Clause) -> Result<Vec<Binding>> {
        match c {
            Clause::Match { prev: None, pattern, pred } => {
                let matches = self.match_pattern(pattern, None);
                self.filter(matches, pred)
            }
            Clause::Match { prev: Some(prev), pattern, pred } => {
                let left = self.clause(prev)?;
                let mut merged = Vec::new();
                for l in &left {
                    for m in self.match_pattern(pattern, Some(l)) {
                        if let Some(joined) = merge_bindings(l, &m) {
                            merged.push(joined);
                        }
                    }
                }
                self.filter(merged, pred)
            }
            Clause::OptMatch { prev, pattern, pred } => {
                let left = self.clause(prev)?;
                let mut out = Vec::new();
                for l in &left {
                    let mut found = Vec::new();
                    for m in self.match_pattern(pattern, Some(l)) {
                        if let Some(joined) = merge_bindings(l, &m) {
                            if self.eval_pred(pred, std::slice::from_ref(&joined))?.is_true() {
                                found.push(joined);
                            }
                        }
                    }
                    if found.is_empty() {
                        // Nullify the pattern's variables (Fig. 19, v2).
                        let mut nullified = l.clone();
                        for (v, _) in pattern.variables() {
                            nullified.entry(v).or_insert(None);
                        }
                        out.push(nullified);
                    } else {
                        out.append(&mut found);
                    }
                }
                Ok(out)
            }
            Clause::With { prev, old, new } => {
                let left = self.clause(prev)?;
                let mut out = Vec::new();
                for b in &left {
                    let mut projected = Binding::new();
                    for (o, n) in old.iter().zip(new.iter()) {
                        let entry = b.get(o).cloned().unwrap_or(None);
                        projected.insert(n.clone(), entry);
                    }
                    out.push(projected);
                }
                Ok(out)
            }
        }
    }

    fn filter(&self, bindings: Vec<Binding>, pred: &Pred) -> Result<Vec<Binding>> {
        if pred == &Pred::True {
            return Ok(bindings);
        }
        let mut out = Vec::new();
        for b in bindings {
            if self.eval_pred(pred, std::slice::from_ref(&b))?.is_true() {
                out.push(b);
            }
        }
        Ok(out)
    }

    // -------------------------------------------------------------- pattern

    /// Enumerates all matches of a path pattern, optionally constrained to be
    /// consistent with an existing binding (shared variables must refer to
    /// the same elements).
    fn match_pattern(&self, pp: &PathPattern, context: Option<&Binding>) -> Vec<Binding> {
        let mut partials: Vec<Binding> = Vec::new();
        for node in self.graph.nodes_with_label(pp.start.label.as_str()) {
            if !self.node_matches(node.id, &pp.start) {
                continue;
            }
            let mut b = Binding::new();
            if !bind(&mut b, &pp.start.var, ElemRef::Node(node.id)) {
                continue;
            }
            if consistent_with_context(&b, context) {
                partials.push(b);
            }
        }
        let mut prev_var = pp.start.var.clone();
        for (edge_pat, node_pat) in &pp.steps {
            let mut next: Vec<Binding> = Vec::new();
            for b in &partials {
                let prev_node = match b.get(&prev_var) {
                    Some(Some(ElemRef::Node(id))) => *id,
                    _ => continue,
                };
                if self.use_index {
                    self.extend_via_adjacency(b, prev_node, edge_pat, node_pat, context, &mut next);
                } else {
                    self.extend_via_scan(b, prev_node, edge_pat, node_pat, context, &mut next);
                }
            }
            partials = next;
            prev_var = node_pat.var.clone();
        }
        partials
    }

    /// Extends one partial binding by walking `prev_node`'s adjacency lists:
    /// only edges incident to the bound node are considered, so a step costs
    /// O(degree) per binding.
    fn extend_via_adjacency(
        &self,
        b: &Binding,
        prev_node: NodeId,
        edge_pat: &EdgePattern,
        node_pat: &NodePattern,
        context: Option<&Binding>,
        next: &mut Vec<Binding>,
    ) {
        let try_edge = |edge: &Edge, to: NodeId, next: &mut Vec<Binding>| {
            if edge.label != edge_pat.label {
                return;
            }
            self.push_step_binding(b, edge, to, edge_pat, node_pat, context, next);
        };
        match edge_pat.dir {
            Direction::Right => {
                for edge in self.graph.out_edges(prev_node) {
                    try_edge(edge, edge.tgt, next);
                }
            }
            Direction::Left => {
                for edge in self.graph.in_edges(prev_node) {
                    try_edge(edge, edge.src, next);
                }
            }
            Direction::Undirected => {
                // A self-loop appears in both lists and yields two matches,
                // mirroring the naive matcher's two orientations.
                for edge in self.graph.out_edges(prev_node) {
                    try_edge(edge, edge.tgt, next);
                }
                for edge in self.graph.in_edges(prev_node) {
                    try_edge(edge, edge.src, next);
                }
            }
        }
    }

    /// Extends one partial binding the naive way: rescan the whole edge
    /// arena and keep the edges incident to `prev_node`.  Retained as the
    /// ablation baseline for [`eval_query_unoptimized`].
    fn extend_via_scan(
        &self,
        b: &Binding,
        prev_node: NodeId,
        edge_pat: &EdgePattern,
        node_pat: &NodePattern,
        context: Option<&Binding>,
        next: &mut Vec<Binding>,
    ) {
        for edge in self.graph.edges().filter(|e| e.label == edge_pat.label) {
            let candidates: [Option<(NodeId, NodeId)>; 2] = match edge_pat.dir {
                Direction::Right => [Some((edge.src, edge.tgt)), None],
                Direction::Left => [Some((edge.tgt, edge.src)), None],
                Direction::Undirected => [Some((edge.src, edge.tgt)), Some((edge.tgt, edge.src))],
            };
            for (from, to) in candidates.into_iter().flatten() {
                if from != prev_node {
                    continue;
                }
                self.push_step_binding(b, edge, to, edge_pat, node_pat, context, next);
            }
        }
    }

    /// Shared tail of a pattern step: property checks, variable binding, and
    /// context consistency for one candidate `(edge, to)` extension.
    #[allow(clippy::too_many_arguments)]
    fn push_step_binding(
        &self,
        b: &Binding,
        edge: &Edge,
        to: NodeId,
        edge_pat: &EdgePattern,
        node_pat: &NodePattern,
        context: Option<&Binding>,
        next: &mut Vec<Binding>,
    ) {
        if !self.edge_matches(edge.id, edge_pat) {
            return;
        }
        let to_node = self.graph.node(to);
        if to_node.label != node_pat.label || !self.node_matches(to, node_pat) {
            return;
        }
        let mut nb = b.clone();
        if !bind(&mut nb, &edge_pat.var, ElemRef::Edge(edge.id)) {
            return;
        }
        if !bind(&mut nb, &node_pat.var, ElemRef::Node(to)) {
            return;
        }
        if consistent_with_context(&nb, context) {
            next.push(nb);
        }
    }

    fn node_matches(&self, id: NodeId, pat: &NodePattern) -> bool {
        let node = self.graph.node(id);
        if node.label != pat.label {
            return false;
        }
        pat.props.iter().all(|(k, v)| node.prop(k.as_str()).sql_eq(v).is_true())
    }

    fn edge_matches(&self, id: EdgeId, pat: &EdgePattern) -> bool {
        let edge = self.graph.edge(id);
        if edge.label != pat.label {
            return false;
        }
        pat.props.iter().all(|(k, v)| edge.prop(k.as_str()).sql_eq(v).is_true())
    }

    // ----------------------------------------------------------- expression

    /// Evaluates an expression over a group of bindings (the paper's
    /// `⟦E⟧_{G, gs}`).  Non-aggregate expressions look at the first binding.
    fn eval_expr(&self, e: &Expr, group: &[Binding]) -> Result<Value> {
        match e {
            Expr::Prop(var, key) => Ok(self.lookup_prop(group.first(), var, key)),
            Expr::Var(var) => Ok(self.lookup_identity(group.first(), var)),
            Expr::Value(v) => Ok(v.clone()),
            Expr::Cast(p) => {
                let t = self.eval_pred(p, group)?;
                Ok(match t {
                    Truth::True => Value::Int(1),
                    Truth::False => Value::Int(0),
                    Truth::Unknown => Value::Null,
                })
            }
            Expr::Agg(kind, inner, distinct) => self.eval_agg(*kind, inner, *distinct, group),
            Expr::Arith(a, op, b) => {
                let va = self.eval_expr(a, group)?;
                let vb = self.eval_expr(b, group)?;
                va.arith(*op, &vb)
            }
            Expr::Star => Err(Error::eval("`*` may only appear inside Count(*)")),
        }
    }

    fn eval_agg(
        &self,
        kind: AggKind,
        inner: &Expr,
        distinct: bool,
        group: &[Binding],
    ) -> Result<Value> {
        if matches!(inner, Expr::Star) {
            if kind != AggKind::Count {
                return Err(Error::eval("`*` may only appear inside Count(*)"));
            }
            if distinct {
                // COUNT(DISTINCT *) counts distinct bindings.
                let hashes: Vec<u64> = group
                    .iter()
                    .map(|b| key_hash(std::slice::from_ref(b), Binding::hash))
                    .collect();
                let distinct = first_seen(&hashes, |i, j| group[i] == group[j]);
                return Ok(Value::Int(distinct.firsts.len() as i64));
            }
            return Ok(Value::Int(group.len() as i64));
        }
        let mut values = Vec::with_capacity(group.len());
        for b in group {
            values.push(self.eval_expr(inner, std::slice::from_ref(b))?);
        }
        if distinct {
            // `strict_eq` decides duplicates, so values hash by their
            // equality class.
            let hashes: Vec<u64> = values
                .iter()
                .map(|v| key_hash(std::slice::from_ref(v), hash_eq_class_into))
                .collect();
            let distinct = first_seen(&hashes, |i, j| values[i].strict_eq(&values[j]));
            Ok(kind.fold(distinct.firsts.iter().map(|&i| &values[i as usize])))
        } else {
            Ok(kind.fold(values.iter()))
        }
    }

    fn lookup_prop(&self, binding: Option<&Binding>, var: &Ident, key: &Ident) -> Value {
        match binding.and_then(|b| b.get(var)) {
            Some(Some(ElemRef::Node(id))) => self.graph.node(*id).prop(key.as_str()),
            Some(Some(ElemRef::Edge(id))) => self.graph.edge(*id).prop(key.as_str()),
            _ => Value::Null,
        }
    }

    /// The identity of a bound element, used by bare-variable expressions
    /// such as `Count(n)`: non-null iff the variable is bound.
    fn lookup_identity(&self, binding: Option<&Binding>, var: &Ident) -> Value {
        match binding.and_then(|b| b.get(var)) {
            Some(Some(ElemRef::Node(id))) => {
                // Use the node's default-key value when available so the
                // identity is stable and meaningful; fall back to the id.
                let node = self.graph.node(*id);
                if let Some(dk) = self.schema.default_key_of(node.label.as_str()) {
                    let v = node.prop(dk.as_str());
                    if !v.is_null() {
                        return v;
                    }
                }
                Value::str_owned(id.to_string())
            }
            Some(Some(ElemRef::Edge(id))) => {
                let edge = self.graph.edge(*id);
                if let Some(dk) = self.schema.default_key_of(edge.label.as_str()) {
                    let v = edge.prop(dk.as_str());
                    if !v.is_null() {
                        return v;
                    }
                }
                Value::str_owned(id.to_string())
            }
            _ => Value::Null,
        }
    }

    // ------------------------------------------------------------ predicate

    fn eval_pred(&self, p: &Pred, group: &[Binding]) -> Result<Truth> {
        match p {
            Pred::True => Ok(Truth::True),
            Pred::False => Ok(Truth::False),
            Pred::Cmp(a, op, b) => {
                let va = self.eval_expr(a, group)?;
                let vb = self.eval_expr(b, group)?;
                Ok(va.compare(*op, &vb))
            }
            Pred::IsNull(e) => {
                let v = self.eval_expr(e, group)?;
                Ok(Truth::from_bool(v.is_null()))
            }
            Pred::In(e, vs) => {
                let v = self.eval_expr(e, group)?;
                let mut result = Truth::False;
                for candidate in vs {
                    result = result.or(v.sql_eq(candidate));
                }
                Ok(result)
            }
            Pred::Exists(pp) => {
                let context = group.first().cloned().unwrap_or_default();
                let matches = self.match_pattern(pp, Some(&context));
                Ok(Truth::from_bool(!matches.is_empty()))
            }
            Pred::And(a, b) => Ok(self.eval_pred(a, group)?.and(self.eval_pred(b, group)?)),
            Pred::Or(a, b) => Ok(self.eval_pred(a, group)?.or(self.eval_pred(b, group)?)),
            Pred::Not(inner) => Ok(self.eval_pred(inner, group)?.not()),
        }
    }
}

/// The kernel hash of a key: each part's words, in order, through one
/// [`KeyHasher`].
fn key_hash<T>(parts: &[T], write: impl Fn(&T, &mut KeyHasher)) -> u64 {
    let mut h = KeyHasher::new();
    parts.iter().for_each(|p| write(p, &mut h));
    h.finish()
}

/// Binds `var` to `elem`, failing (returning `false`) if the variable is
/// already bound to a different element.
fn bind(binding: &mut Binding, var: &Ident, elem: ElemRef) -> bool {
    match binding.get(var) {
        Some(Some(existing)) => *existing == elem,
        Some(None) => false,
        None => {
            binding.insert(var.clone(), Some(elem));
            true
        }
    }
}

/// Merges two bindings; shared variables must agree (and be non-null).
fn merge_bindings(a: &Binding, b: &Binding) -> Option<Binding> {
    let mut out = a.clone();
    for (k, v) in b {
        match out.get(k) {
            Some(existing) if existing != v => return None,
            _ => {
                out.insert(k.clone(), *v);
            }
        }
    }
    Some(out)
}

/// Checks that a pattern binding agrees with an outer context on every
/// shared variable.
fn consistent_with_context(binding: &Binding, context: Option<&Binding>) -> bool {
    let Some(ctx) = context else { return true };
    binding.iter().all(|(k, v)| match ctx.get(k) {
        Some(existing) => existing == v,
        None => true,
    })
}

fn union_tables(mut a: Table, b: Table, dedup: bool) -> Result<Table> {
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
    use graphiti_graph::{EdgeType, NodeType};

    fn emp_schema() -> GraphSchema {
        GraphSchema::new()
            .with_node(NodeType::new("EMP", ["id", "name"]))
            .with_node(NodeType::new("DEPT", ["dnum", "dname"]))
            .with_edge(EdgeType::new("WORK_AT", "EMP", "DEPT", ["wid"]))
    }

    /// Figure 15a: employees A, B; departments CS, EE; both employees work
    /// in CS.
    fn emp_graph() -> GraphInstance {
        let mut g = GraphInstance::new();
        let a = g.add_node("EMP", [("id", Value::Int(1)), ("name", Value::str("A"))]);
        let b = g.add_node("EMP", [("id", Value::Int(2)), ("name", Value::str("B"))]);
        let cs = g.add_node("DEPT", [("dnum", Value::Int(1)), ("dname", Value::str("CS"))]);
        let _ee = g.add_node("DEPT", [("dnum", Value::Int(2)), ("dname", Value::str("EE"))]);
        g.add_edge("WORK_AT", a, cs, [("wid", Value::Int(10))]);
        g.add_edge("WORK_AT", b, cs, [("wid", Value::Int(11))]);
        g
    }

    fn run(q: &str, schema: &GraphSchema, g: &GraphInstance) -> Table {
        let query = parse_query(q).unwrap();
        eval_query(schema, g, &query).unwrap()
    }

    #[test]
    fn simple_match_and_projection() {
        let t = run("MATCH (n:EMP) RETURN n.name", &emp_schema(), &emp_graph());
        assert_eq!(t.len(), 2);
        assert_eq!(t.columns, vec!["n.name".to_string()]);
    }

    #[test]
    fn path_pattern_and_aggregation_example_3_4() {
        let t = run(
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN m.dname AS name, Count(n) AS num",
            &emp_schema(),
            &emp_graph(),
        );
        // Both employees work at CS; EE has no employees so no group.
        assert_eq!(t.len(), 1);
        assert_eq!(t.rows[0], vec![Value::str("CS"), Value::Int(2)]);
    }

    #[test]
    fn direction_matters() {
        let forward = run(
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN n.name, m.dname",
            &emp_schema(),
            &emp_graph(),
        );
        assert_eq!(forward.len(), 2);
        let backward = run(
            "MATCH (m:DEPT)<-[e:WORK_AT]-(n:EMP) RETURN n.name, m.dname",
            &emp_schema(),
            &emp_graph(),
        );
        assert_eq!(backward.len(), 2);
        let wrong = run(
            "MATCH (n:EMP)<-[e:WORK_AT]-(m:DEPT) RETURN n.name, m.dname",
            &emp_schema(),
            &emp_graph(),
        );
        assert_eq!(wrong.len(), 0);
        let undirected = run(
            "MATCH (n:EMP)-[e:WORK_AT]-(m:DEPT) RETURN n.name, m.dname",
            &emp_schema(),
            &emp_graph(),
        );
        assert_eq!(undirected.len(), 2);
    }

    #[test]
    fn inline_props_filter() {
        let t = run(
            "MATCH (n:EMP {id: 1})-[e:WORK_AT]->(m:DEPT) RETURN m.dname",
            &emp_schema(),
            &emp_graph(),
        );
        assert_eq!(t.len(), 1);
        assert_eq!(t.rows[0][0], Value::str("CS"));
    }

    #[test]
    fn where_predicate_and_arithmetic() {
        let t = run("MATCH (n:EMP) WHERE n.id + 1 = 2 RETURN n.name", &emp_schema(), &emp_graph());
        assert_eq!(t.len(), 1);
        assert_eq!(t.rows[0][0], Value::str("A"));
    }

    #[test]
    fn optional_match_produces_nulls() {
        // Appendix A, Example A.1: employee B has no department here.
        let mut g = GraphInstance::new();
        let a = g.add_node("EMP", [("id", Value::Int(1)), ("name", Value::str("A"))]);
        let _b = g.add_node("EMP", [("id", Value::Int(2)), ("name", Value::str("B"))]);
        let cs = g.add_node("DEPT", [("dnum", Value::Int(1)), ("dname", Value::str("CS"))]);
        g.add_edge("WORK_AT", a, cs, [("wid", Value::Int(10))]);
        let t = run(
            "MATCH (n:EMP) OPTIONAL MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN n.name, m.dname",
            &emp_schema(),
            &g,
        );
        assert_eq!(t.len(), 2);
        let b_row = t.rows.iter().find(|r| r[0] == Value::str("B")).unwrap();
        assert_eq!(b_row[1], Value::Null);
        let a_row = t.rows.iter().find(|r| r[0] == Value::str("A")).unwrap();
        assert_eq!(a_row[1], Value::str("CS"));
    }

    #[test]
    fn with_projects_and_renames() {
        let t = run(
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) WITH m AS d MATCH (d:DEPT) RETURN d.dname",
            &emp_schema(),
            &emp_graph(),
        );
        // Two employees both map to CS; WITH keeps duplicates (bag semantics),
        // and re-matching d only constrains it to be a DEPT.
        assert_eq!(t.len(), 2);
        assert!(t.rows.iter().all(|r| r[0] == Value::str("CS")));
    }

    #[test]
    fn exists_predicate_correlates_on_shared_variables() {
        let t = run(
            "MATCH (m:DEPT) WHERE EXISTS ((n:EMP)-[e:WORK_AT]->(m:DEPT)) RETURN m.dname",
            &emp_schema(),
            &emp_graph(),
        );
        assert_eq!(t.len(), 1);
        assert_eq!(t.rows[0][0], Value::str("CS"));
    }

    #[test]
    fn union_and_union_all() {
        let t_all = run(
            "MATCH (n:EMP) RETURN n.name UNION ALL MATCH (n:EMP) RETURN n.name",
            &emp_schema(),
            &emp_graph(),
        );
        assert_eq!(t_all.len(), 4);
        let t_set = run(
            "MATCH (n:EMP) RETURN n.name UNION MATCH (n:EMP) RETURN n.name",
            &emp_schema(),
            &emp_graph(),
        );
        assert_eq!(t_set.len(), 2);
    }

    #[test]
    fn order_by_sorts_rows() {
        let t = run(
            "MATCH (n:EMP) RETURN n.name AS name ORDER BY name DESC",
            &emp_schema(),
            &emp_graph(),
        );
        assert_eq!(t.rows[0][0], Value::str("B"));
        assert_eq!(t.rows[1][0], Value::str("A"));
    }

    #[test]
    fn count_distinct() {
        let t = run(
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN Count(DISTINCT m.dname) AS c",
            &emp_schema(),
            &emp_graph(),
        );
        assert_eq!(t.rows[0][0], Value::Int(1));
    }

    #[test]
    fn group_by_multiple_groups() {
        let mut g = emp_graph();
        // Add a third employee working at EE.
        let c = g.add_node("EMP", [("id", Value::Int(3)), ("name", Value::str("C"))]);
        let ee =
            g.nodes_with_label("DEPT").find(|n| n.prop("dname") == Value::str("EE")).unwrap().id;
        g.add_edge("WORK_AT", c, ee, [("wid", Value::Int(12))]);
        let t = run(
            "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN m.dname AS name, Count(*) AS num",
            &emp_schema(),
            &g,
        );
        assert_eq!(t.len(), 2);
        let cs = t.rows.iter().find(|r| r[0] == Value::str("CS")).unwrap();
        assert_eq!(cs[1], Value::Int(2));
        let ee_row = t.rows.iter().find(|r| r[0] == Value::str("EE")).unwrap();
        assert_eq!(ee_row[1], Value::Int(1));
    }

    #[test]
    fn repeated_variable_in_pattern_must_rebind_same_node() {
        // (n)-[]->(m) with n and m forced to the same variable only matches
        // self-loops, of which there are none here.
        let q = parse_query("MATCH (n:EMP)-[e:WORK_AT]->(n:EMP) RETURN n.name");
        // EMP->EMP is not even type-correct for WORK_AT, so zero matches.
        let t = eval_query(&emp_schema(), &emp_graph(), &q.unwrap()).unwrap();
        assert_eq!(t.len(), 0);
    }

    /// Fifteen `T` nodes whose `a` mixes `Int` and `Float`, `NULL`s, `0`,
    /// `0.0` and `-0.0`, two NaNs with different bits, and 2^53, 2^53 + 1
    /// and 2^53 as a float; `R` edges repeat sources, so a `WITH` over them
    /// repeats bindings.
    fn distinct_fixture() -> (GraphSchema, GraphInstance) {
        let schema = GraphSchema::new()
            .with_node(NodeType::new("T", ["id", "a"]))
            .with_edge(EdgeType::new("R", "T", "T", ["rid"]));
        let big = 1i64 << 53;
        let values = [
            Value::Int(1),
            Value::Float(1.0),
            Value::Int(2),
            Value::Null,
            Value::Float(-0.0),
            Value::Int(0),
            Value::Float(2.5),
            Value::Int(2),
            Value::Int(big),
            Value::Int(big + 1),
            Value::Float(big as f64),
            Value::Null,
            Value::Float(f64::from_bits(0x7ff8_0000_0000_0001)),
            Value::Float(0.0),
            Value::Float(f64::from_bits(0xfff8_0000_0000_0002)),
        ];
        let mut g = GraphInstance::new();
        let ids: Vec<NodeId> = values
            .iter()
            .enumerate()
            .map(|(i, v)| g.add_node("T", [("id", Value::Int(i as i64)), ("a", v.clone())]))
            .collect();
        let edges = [
            (0, 2),
            (0, 3),
            (0, 2),
            (1, 4),
            (2, 0),
            (2, 5),
            (3, 6),
            (3, 3),
            (8, 9),
            (9, 8),
            (9, 10),
            (11, 0),
            (11, 12),
            (10, 14),
            (7, 13),
        ];
        for (k, (s, t)) in edges.into_iter().enumerate() {
            g.add_edge("R", ids[s], ids[t], [("rid", Value::Int(k as i64))]);
        }
        (schema, g)
    }

    /// Asserts each row's exact rendering: `Int` against `Float`, `-0.0`
    /// and NaN included (`Value`'s `==` would call `Int(2)` and
    /// `Float(2.0)` equal).
    fn assert_rows(q: &str, want: &[&str]) {
        let (schema, g) = distinct_fixture();
        for t in [
            eval_query(&schema, &g, &parse_query(q).unwrap()).unwrap(),
            eval_query_unoptimized(&schema, &g, &parse_query(q).unwrap()).unwrap(),
        ] {
            let got: Vec<String> = t.rows.iter().map(|r| format!("{r:?}")).collect();
            assert_eq!(got, want, "{q}");
        }
    }

    #[test]
    fn distinct_aggregates_dedup_by_strict_equality_in_first_seen_order() {
        // Distinct non-NULL values, first seen: 1, 2, -0.0, 2.5, 2^53,
        // 2^53 + 1, NaN.  `1.0` repeats `1`, `0` and `0.0` repeat `-0.0`,
        // the float 2^53 repeats the integer, the second NaN the first.
        assert_rows(
            "MATCH (n:T) RETURN Count(DISTINCT n.a) AS c, Count(n.a) AS all, \
             Sum(DISTINCT n.a) AS s, Avg(DISTINCT n.a) AS m, Min(DISTINCT n.a) AS lo, \
             Max(DISTINCT n.a) AS hi",
            &["[Int(7), Int(13), Float(NaN), Float(NaN), Float(-0.0), Float(NaN)]"],
        );
        // Without the NaNs the float sum shows the fold order.
        assert_rows(
            "MATCH (n:T) WHERE n.id < 12 RETURN Count(DISTINCT n.a) AS c, Sum(DISTINCT n.a) AS s, \
             Avg(DISTINCT n.a) AS m, Min(DISTINCT n.a) AS lo, Max(DISTINCT n.a) AS hi",
            &["[Int(6), Float(1.801439850948199e16), Float(3002399751580332.0), Float(-0.0), \
               Int(9007199254740992)]"],
        );
        // Over no match: zero counts and a NULL sum.
        assert_rows(
            "MATCH (n:T) WHERE n.id > 100 RETURN Count(DISTINCT *) AS d, \
             Count(DISTINCT n.a) AS da, Sum(DISTINCT n.a) AS s",
            &["[Int(0), Int(0), Null]"],
        );
    }

    #[test]
    fn distinct_aggregates_over_bindings_repeated_by_with() {
        // 15 edges from 9 sources: `WITH n AS x` repeats bindings.
        assert_rows(
            "MATCH (n:T)-[e:R]->(m:T) WITH n AS x RETURN Count(DISTINCT *) AS d, Count(*) AS c, \
             Count(DISTINCT x.a) AS da, Sum(DISTINCT x.a) AS sa",
            &["[Int(9), Int(15), Int(4), Int(18014398509481988)]"],
        );
        // Keeping the target too leaves one repeat: the second (0, 2).
        assert_rows(
            "MATCH (n:T)-[e:R]->(m:T) WITH n AS x, m AS y RETURN Count(DISTINCT *) AS d, \
             Count(*) AS c",
            &["[Int(14), Int(15)]"],
        );
        assert_rows(
            "MATCH (n:T)-[e:R]->(m:T) WITH n AS x RETURN x.id AS id, Count(DISTINCT *) AS d, \
             Count(*) AS c",
            &[
                "[Int(0), Int(1), Int(3)]",
                "[Int(1), Int(1), Int(1)]",
                "[Int(2), Int(1), Int(2)]",
                "[Int(3), Int(1), Int(2)]",
                "[Int(7), Int(1), Int(1)]",
                "[Int(8), Int(1), Int(1)]",
                "[Int(9), Int(1), Int(2)]",
                "[Int(10), Int(1), Int(1)]",
                "[Int(11), Int(1), Int(2)]",
            ],
        );
    }

    #[test]
    fn implicit_grouping_merges_equal_keys_in_first_seen_order() {
        // `1` and `1.0` form one group under the first key; the NULLs one
        // group; 2^53 and 2^53 + 1 two.  Each group folds its bindings in
        // match order.
        assert_rows(
            "MATCH (n:T)-[e:R]->(m:T) WHERE n.id < 10 WITH n AS x, m AS y RETURN x.a AS a, \
             Count(*) AS c, Count(DISTINCT *) AS d, Count(DISTINCT y.a) AS dy, \
             Sum(DISTINCT y.a) AS sy, Max(DISTINCT y.a) AS my",
            &[
                "[Int(1), Int(4), Int(3), Int(2), Float(2.0), Int(2)]",
                "[Int(2), Int(3), Int(3), Int(2), Int(1), Int(1)]",
                "[Null, Int(2), Int(2), Int(1), Float(2.5), Float(2.5)]",
                "[Int(9007199254740992), Int(1), Int(1), Int(1), Int(9007199254740993), \
                  Int(9007199254740993)]",
                "[Int(9007199254740993), Int(2), Int(2), Int(1), Int(9007199254740992), \
                  Int(9007199254740992)]",
            ],
        );
    }

    #[test]
    fn order_by_and_min_max_place_nan_above_every_number() {
        // 64 nodes, every fourth a NaN, in a scrambled order.
        let schema = GraphSchema::new().with_node(NodeType::new("T", ["a"]));
        let values: Vec<f64> = (0..64i64)
            .map(|i| if i % 4 == 1 { f64::NAN } else { ((i * 37) % 64) as f64 - 20.5 })
            .collect();
        for order in [values.clone(), values.iter().rev().copied().collect()] {
            let mut graph = GraphInstance::new();
            for x in order {
                graph.add_node("T", [("a", Value::Float(x))]);
            }
            let q = parse_query("MATCH (n:T) RETURN n.a AS a ORDER BY a").unwrap();
            for sorted in [
                eval_query(&schema, &graph, &q).unwrap(),
                eval_query_unoptimized(&schema, &graph, &q).unwrap(),
            ] {
                let got: Vec<f64> = sorted.rows.iter().map(|r| r[0].as_f64().unwrap()).collect();
                let (numbers, nans) = got.split_at(48);
                assert!(numbers.windows(2).all(|w| w[0] <= w[1]), "{got:?}");
                assert!(nans.iter().all(|x| x.is_nan()), "{got:?}");
            }
            let q = parse_query("MATCH (n:T) RETURN Min(n.a) AS lo, Max(n.a) AS hi").unwrap();
            let t = eval_query(&schema, &graph, &q).unwrap();
            assert_eq!(t.rows[0][0], Value::Float(-20.5));
            assert!(matches!(t.rows[0][1], Value::Float(x) if x.is_nan()));
        }
    }
}
