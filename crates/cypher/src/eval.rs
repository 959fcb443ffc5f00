//! Denotational evaluator for Featherweight Cypher (Appendix A, Fig. 19).
//!
//! The evaluator interprets a [`Query`] against a [`GraphInstance`] and
//! produces a bag-semantics [`Table`].  Clause evaluation produces a list of
//! *bindings* (the paper's lists of matched subgraphs): each binding maps the
//! pattern variables to graph elements, or to `Null` for variables introduced
//! by an `OPTIONAL MATCH` that found no match.
//!
//! # Slot rows
//!
//! The query's variables are numbered once per evaluation, in order of
//! first appearance, and a clause's bindings are one flat vector of slots,
//! one row of `stride` slots (the number of variables) per binding.  A
//! slot is unbound (its variable is not in the clause's scope), null, a
//! node id or an edge id; a slot out of scope is unbound in every row of
//! the clause.  Every clause reads and writes slots:
//!
//! * a pattern match extends a copy of the outer row (an all-unbound row
//!   for a first `MATCH`) in place, binding a slot only if it is unbound
//!   or already holds the same element, so merging with the outer binding
//!   is part of binding;
//! * `OPTIONAL MATCH` nullifies an outer row that found no match by
//!   writing `Null` into the pattern's unbound slots;
//! * `WITH` writes a fresh row holding only the kept slots;
//! * `RETURN` groups rows by their key values and copies them into group
//!   order, so each group is one contiguous run of rows.
//!
//! Nothing is allocated per binding.
//!
//! # Where a pattern starts
//!
//! A pattern is matched depth first from its start node, each step
//! walking the previous node's adjacency list.  When the outer row already
//! holds the start variable (`EXISTS`, `OPTIONAL MATCH`, a `MATCH` after a
//! `MATCH`), the pattern starts at that node alone, and only if the node
//! passes the start pattern's label and property tests; a start variable
//! holding `NULL` or an edge starts at nothing.  Otherwise the start label
//! is scanned.  Either way matches come out in the same order: the start
//! label's order, then each step's adjacency order.  Only the start
//! variable seeds a match; a bound variable later in the pattern is
//! checked when its step binds it.
//!
//! # The naive matcher
//!
//! [`eval_query_unoptimized`] is the reference the matcher is tested
//! against.  It shares the slot rows but never seeds: every pattern scans
//! its start label and keeps the candidate the outer row allows, and every
//! step rescans the whole edge arena for edges incident to the previous
//! node.

use crate::ast::*;
use graphiti_common::{AggKind, Error, Ident, Result, Truth, Value};
use graphiti_graph::{Edge, EdgeId, GraphInstance, GraphSchema, Node, NodeId};
use graphiti_obs::profile::{StageProfile, StageSink};
use graphiti_relational::{counting_sort, first_seen, KeyHasher, Table};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Evaluates a Cypher query on a graph instance, producing a result table.
///
/// The `schema` is needed to resolve default property keys (used by the
/// `Exists` predicate and by bare-variable expressions such as `Count(n)`).
///
/// Bindings are slot rows, and a pattern whose start variable the outer
/// binding already holds starts at that node alone (see the module
/// documentation).  Each step walks the persistent adjacency indexes
/// (per-node out/in edge lists), so extending a partial binding costs
/// O(degree) instead of O(edges).  [`eval_query_unoptimized`] keeps the
/// label scan for every start and the edge-arena rescan for every step,
/// for ablation benchmarks and differential testing; both return the same
/// rows, and on directed patterns in the same order.
pub fn eval_query(schema: &GraphSchema, graph: &GraphInstance, query: &Query) -> Result<Table> {
    Evaluator::new(schema, graph, query, true, None).query(query)
}

/// [`eval_query`] with per-operator profiling: each clause (`match`,
/// `optional_match`, `with`, with rows in and out) and each query-level
/// operator (`return`, `order_by`, `union`) reports wall time and rows.
/// An `EXISTS` predicate is timed inside the clause that evaluates it.
/// Stages come back in completion (post) order; results are identical to
/// the unprofiled path.
pub fn eval_query_profiled(
    schema: &GraphSchema,
    graph: &GraphInstance,
    query: &Query,
) -> Result<(Table, Vec<StageProfile>)> {
    let ev = Evaluator::new(schema, graph, query, true, Some(RefCell::new(StageSink::new())));
    let out = ev.query(query)?;
    let stages = ev.prof.expect("sink installed above").into_inner().finish();
    Ok((out, stages))
}

/// Evaluates a Cypher query with the naive pattern matcher: every pattern
/// scans its start label, and every partial binding rescans the full edge
/// arena per step (O(bindings × edges)).
///
/// This is the seed evaluator's strategy, kept as the ablation baseline and
/// as the reference implementation the indexed engine is differentially
/// tested against.
pub fn eval_query_unoptimized(
    schema: &GraphSchema,
    graph: &GraphInstance,
    query: &Query,
) -> Result<Table> {
    Evaluator::new(schema, graph, query, false, None).query(query)
}

/// What one variable holds in one binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Not in the clause's scope.
    Unbound,
    /// In scope and `NULL`: nullified by `OPTIONAL MATCH`, or kept by
    /// `WITH` under a name that was not in scope.
    Null,
    Node(NodeId),
    Edge(EdgeId),
}

impl Slot {
    /// Feeds the slot's words to `h` (`Count(DISTINCT *)`).
    fn hash_into(self, h: &mut KeyHasher) {
        let (tag, id) = match self {
            Slot::Unbound => (0, 0),
            Slot::Null => (1, 0),
            Slot::Node(n) => (2, n.0),
            Slot::Edge(e) => (3, e.0),
        };
        h.write_u64(tag);
        h.write_usize(id);
    }
}

/// Binds slot `s` of `row` to `elem`: succeeds if the slot was unbound
/// (and binds it) or already holds `elem`, and fails on `NULL` or another
/// element.
fn bind(row: &mut [Slot], s: usize, elem: Slot) -> bool {
    match row[s] {
        Slot::Unbound => {
            row[s] = elem;
            true
        }
        held => held == elem,
    }
}

/// A clause's bindings: `stride` slots per row, back to back.
#[derive(Debug)]
struct Rows {
    stride: usize,
    slots: Vec<Slot>,
}

impl Rows {
    fn new(stride: usize) -> Rows {
        Rows { stride, slots: Vec::new() }
    }

    fn len(&self) -> usize {
        self.slots.len() / self.stride
    }

    fn row(&self, i: usize) -> &[Slot] {
        &self.slots[i * self.stride..(i + 1) * self.stride]
    }

    fn iter(&self) -> std::slice::ChunksExact<'_, Slot> {
        self.slots.chunks_exact(self.stride)
    }

    /// Rows `range`, back to back: a group of bindings.
    fn run(&self, range: std::ops::Range<usize>) -> &[Slot] {
        &self.slots[range.start * self.stride..range.end * self.stride]
    }

    fn push(&mut self, row: &[Slot]) {
        self.slots.extend_from_slice(row);
    }

    /// Appends a copy of the last row.
    fn push_copy_of_last(&mut self) {
        let n = self.slots.len();
        self.slots.extend_from_within(n - self.stride..n);
    }

    fn last_mut(&mut self) -> &mut [Slot] {
        let n = self.slots.len();
        &mut self.slots[n - self.stride..]
    }

    /// Moves row `from` to position `to`.
    fn move_row(&mut self, from: usize, to: usize) {
        if from != to {
            self.slots.copy_within(from * self.stride..(from + 1) * self.stride, to * self.stride);
        }
    }

    fn truncate(&mut self, len: usize) {
        self.slots.truncate(len * self.stride);
    }
}

/// The query's variables, numbered in order of first appearance: variable
/// `i` is slot `i` of every row.  The names are borrowed from the query.
struct Vars<'q>(Vec<&'q Ident>);

impl<'q> Vars<'q> {
    fn of(q: &'q Query) -> Vars<'q> {
        let mut names = Vec::new();
        query_names(q, &mut names);
        let mut vars = Vars(Vec::new());
        for v in names {
            if vars.slot(v).is_none() {
                vars.0.push(v);
            }
        }
        vars
    }

    /// The slot of `v`, if the query names it.  Names are interned, so a
    /// pointer comparison finds them; the content comparison is a fallback.
    fn slot(&self, v: &Ident) -> Option<usize> {
        let ptr = v.as_arc();
        self.0
            .iter()
            .position(|n| Arc::ptr_eq(n.as_arc(), ptr))
            .or_else(|| self.0.iter().position(|n| *n == v))
    }
}

/// Pushes every variable `q` names onto `out`, in order of appearance.
fn query_names<'q>(q: &'q Query, out: &mut Vec<&'q Ident>) {
    match q {
        Query::Return(r) => {
            clause_names(&r.clause, out);
            r.items.iter().for_each(|e| e.collect_vars(out));
        }
        Query::OrderBy { input, .. } => query_names(input, out),
        Query::Union(a, b) | Query::UnionAll(a, b) => {
            query_names(a, out);
            query_names(b, out);
        }
    }
}

fn clause_names<'q>(c: &'q Clause, out: &mut Vec<&'q Ident>) {
    match c {
        Clause::Match { prev, pattern, pred } => {
            if let Some(prev) = prev {
                clause_names(prev, out);
            }
            out.extend(pattern.var_names());
            pred.collect_vars(out);
        }
        Clause::OptMatch { prev, pattern, pred } => {
            clause_names(prev, out);
            out.extend(pattern.var_names());
            pred.collect_vars(out);
        }
        Clause::With { prev, old, new } => {
            clause_names(prev, out);
            out.extend(old.iter().chain(new));
        }
    }
}

struct Evaluator<'a> {
    schema: &'a GraphSchema,
    graph: &'a GraphInstance,
    /// Walk adjacency indexes and start bound patterns at their bound node
    /// (`true`), or scan every start label and rescan the edge arena per
    /// binding (`false`, the retained naive path).
    use_index: bool,
    vars: Vars<'a>,
    /// Slots per row: the number of variables (at least one).
    stride: usize,
    /// Per-operator stage collection, installed by [`eval_query_profiled`]
    /// (`None` costs one branch per query node and clause).
    prof: Option<RefCell<StageSink>>,
}

impl<'a> Evaluator<'a> {
    fn new(
        schema: &'a GraphSchema,
        graph: &'a GraphInstance,
        query: &'a Query,
        use_index: bool,
        prof: Option<RefCell<StageSink>>,
    ) -> Evaluator<'a> {
        let vars = Vars::of(query);
        let stride = vars.0.len().max(1);
        Evaluator { schema, graph, use_index, vars, stride, prof }
    }

    /// The slot of a pattern variable; [`Vars::of`] numbers every one.
    fn pattern_slot(&self, v: &Ident) -> usize {
        self.vars.slot(v).expect("every pattern variable of the query is numbered")
    }

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

    fn return_query(&self, r: &ReturnQuery) -> Result<Table> {
        let rows = self.clause(&r.clause)?;
        let columns: Vec<String> = r.names.iter().map(|n| n.to_string()).collect();
        let mut table = Table::new(columns);
        if !r.has_agg() {
            for b in rows.iter() {
                let mut row = Vec::with_capacity(r.items.len());
                for e in &r.items {
                    row.push(self.eval_expr(e, b)?);
                }
                table.push_row(row);
            }
        } else {
            // Implicit grouping: non-aggregate expressions form the grouping
            // key (the Groups construction in Fig. 19).  Groups are located
            // through the hash kernel (strict equality, where `Null =
            // Null`) and numbered in first-seen order, so output order
            // matches the naive engine; the rows are then copied into group
            // order, and each group is folded as one run of them.
            let group_exprs: Vec<&Expr> = r.items.iter().filter(|e| !e.has_agg()).collect();
            let width = group_exprs.len();
            // Every binding's key, back to back.
            let mut keys: Vec<Value> = Vec::with_capacity(rows.len() * width);
            for b in rows.iter() {
                for e in &group_exprs {
                    keys.push(self.eval_expr(e, b)?);
                }
            }
            let key = |i: usize| &keys[i * width..(i + 1) * width];
            let hashes: Vec<u64> = (0..rows.len()).map(|i| key_hash(key(i))).collect();
            let classes =
                first_seen(&hashes, |i, j| key(i).iter().zip(key(j)).all(|(a, b)| a.strict_eq(b)));
            let (order, mut offsets) = counting_sort(&classes.class_of, classes.firsts.len());
            let mut grouped = Rows::new(self.stride);
            grouped.slots.reserve(rows.slots.len());
            for &i in &order {
                grouped.push(rows.row(i as usize));
            }
            // Like SQL, an aggregate-only RETURN over zero matches still
            // produces a single row (e.g. `RETURN Count(*)` yields 0).
            if group_exprs.is_empty() && grouped.len() == 0 {
                offsets.push(0);
            }
            for run in offsets.windows(2) {
                let members = grouped.run(run[0] as usize..run[1] as usize);
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

    /// Evaluates one clause, reported as its own stage when profiling
    /// (rows in = the previous clause's rows, rows out = bindings).
    fn clause(&self, c: &Clause) -> Result<Rows> {
        let Some(prof) = &self.prof else { return self.clause_node(c) };
        prof.borrow_mut().begin(match c {
            Clause::Match { .. } => "match",
            Clause::OptMatch { .. } => "optional_match",
            Clause::With { .. } => "with",
        });
        let out = self.clause_node(c);
        prof.borrow_mut().end(out.as_ref().map(|r| r.len() as u64).unwrap_or(0));
        out
    }

    fn clause_node(&self, c: &Clause) -> Result<Rows> {
        let mut out = Rows::new(self.stride);
        match c {
            Clause::Match { prev: None, pattern, pred } => {
                self.match_pattern(pattern, &vec![Slot::Unbound; self.stride], &mut out, false);
                self.filter(&mut out, 0, pred)?;
            }
            Clause::Match { prev: Some(prev), pattern, pred } => {
                let left = self.clause(prev)?;
                for l in left.iter() {
                    self.match_pattern(pattern, l, &mut out, false);
                }
                self.filter(&mut out, 0, pred)?;
            }
            Clause::OptMatch { prev, pattern, pred } => {
                let left = self.clause(prev)?;
                for l in left.iter() {
                    let found = out.len();
                    self.match_pattern(pattern, l, &mut out, false);
                    self.filter(&mut out, found, pred)?;
                    if out.len() == found {
                        // Nullify the pattern's variables (Fig. 19, v2).
                        out.push(l);
                        let row = out.last_mut();
                        for v in pattern.var_names() {
                            let s = self.pattern_slot(v);
                            if row[s] == Slot::Unbound {
                                row[s] = Slot::Null;
                            }
                        }
                    }
                }
            }
            Clause::With { prev, old, new } => {
                let left = self.clause(prev)?;
                let kept: Vec<(Option<usize>, usize)> = old
                    .iter()
                    .zip(new)
                    .map(|(o, n)| (self.vars.slot(o), self.pattern_slot(n)))
                    .collect();
                out.slots.reserve(left.slots.len());
                let unbound = vec![Slot::Unbound; self.stride];
                for l in left.iter() {
                    out.push(&unbound);
                    let row = out.last_mut();
                    // A later name overwrites an earlier one, and a name
                    // out of scope is kept as `NULL`.
                    for &(o, n) in &kept {
                        row[n] = match o.map(|o| l[o]) {
                            None | Some(Slot::Unbound) => Slot::Null,
                            Some(held) => held,
                        };
                    }
                }
            }
        }
        Ok(out)
    }

    /// Keeps the rows from `from` on that satisfy `pred`, in order.
    fn filter(&self, rows: &mut Rows, from: usize, pred: &Pred) -> Result<()> {
        if pred == &Pred::True {
            return Ok(());
        }
        let mut kept = from;
        for i in from..rows.len() {
            if self.eval_pred(pred, rows.row(i))?.is_true() {
                rows.move_row(i, kept);
                kept += 1;
            }
        }
        rows.truncate(kept);
        Ok(())
    }

    // -------------------------------------------------------------- pattern

    /// Appends to `out` every match of `pp` that extends the row `ctx`:
    /// shared variables must refer to the same elements, and a variable
    /// `ctx` holds as `NULL` matches nothing.  Matches come in the start
    /// label's order, then each step's adjacency order.  With `first_only`
    /// the search stops at the first match; returns whether one was found
    /// then.
    fn match_pattern(
        &self,
        pp: &PathPattern,
        ctx: &[Slot],
        out: &mut Rows,
        first_only: bool,
    ) -> bool {
        let s = self.pattern_slot(&pp.start.var);
        // The working row: the last row of `out` while the search runs.
        out.push(ctx);
        let found = match ctx[s] {
            // The outer binding fixes the start: that node alone, or (for
            // `NULL` or an edge) nothing.
            held if held != Slot::Unbound && self.use_index => match held {
                Slot::Node(id) => self.start_at(pp, s, self.graph.node(id), out, first_only),
                _ => false,
            },
            _ => self
                .graph
                .nodes_with_label(pp.start.label.as_str())
                .any(|node| self.start_at(pp, s, node, out, first_only)),
        };
        // Drop the working row.
        out.truncate(out.len() - 1);
        found
    }

    /// Starts the search at `node` if it passes the start pattern's tests
    /// and the working row allows it; returns whether the search stops.
    fn start_at(
        &self,
        pp: &PathPattern,
        s: usize,
        node: &Node,
        out: &mut Rows,
        first_only: bool,
    ) -> bool {
        if !node_matches(node, &pp.start) {
            return false;
        }
        let held = out.last_mut()[s];
        if !bind(out.last_mut(), s, Slot::Node(node.id)) {
            return false;
        }
        let stop = self.extend(pp, 0, node.id, out, first_only);
        out.last_mut()[s] = held;
        stop
    }

    /// Binds steps `k..` of `pp` into the working row (the last row of
    /// `out`) from node `at`, keeping a copy of the row for every complete
    /// match; returns whether the search stops (`first_only` and a match
    /// found).  Each step walks `at`'s adjacency lists, or rescans the
    /// edge arena on the naive path.
    fn extend(
        &self,
        pp: &PathPattern,
        k: usize,
        at: NodeId,
        out: &mut Rows,
        first_only: bool,
    ) -> bool {
        let Some((edge_pat, node_pat)) = pp.steps.get(k) else {
            // A complete match: keep it, and go on working in its copy.
            out.push_copy_of_last();
            return first_only;
        };
        let (es, ns) = (self.pattern_slot(&edge_pat.var), self.pattern_slot(&node_pat.var));
        let mut step = |edge: &Edge, to: NodeId| -> bool {
            if !edge_matches(edge, edge_pat) || !node_matches(self.graph.node(to), node_pat) {
                return false;
            }
            let row = out.last_mut();
            let held = (row[es], row[ns]);
            let stop = bind(row, es, Slot::Edge(edge.id))
                && bind(row, ns, Slot::Node(to))
                && self.extend(pp, k + 1, to, out, first_only);
            let row = out.last_mut();
            row[es] = held.0;
            row[ns] = held.1;
            stop
        };
        if !self.use_index {
            // The naive path: every edge of the label, in arena order, in
            // each orientation that leaves from `at`.
            return self.graph.edges().filter(|e| e.label == edge_pat.label).any(|edge| {
                let orientations = match edge_pat.dir {
                    Direction::Right => [Some((edge.src, edge.tgt)), None],
                    Direction::Left => [Some((edge.tgt, edge.src)), None],
                    Direction::Undirected => {
                        [Some((edge.src, edge.tgt)), Some((edge.tgt, edge.src))]
                    }
                };
                orientations.into_iter().flatten().any(|(from, to)| from == at && step(edge, to))
            });
        }
        match edge_pat.dir {
            Direction::Right => self.graph.out_edges(at).any(|e| step(e, e.tgt)),
            Direction::Left => self.graph.in_edges(at).any(|e| step(e, e.src)),
            // A self-loop appears in both lists and yields two matches,
            // mirroring the naive matcher's two orientations.
            Direction::Undirected => {
                self.graph.out_edges(at).any(|e| step(e, e.tgt))
                    || self.graph.in_edges(at).any(|e| step(e, e.src))
            }
        }
    }

    // ----------------------------------------------------------- expression

    /// Evaluates an expression over a group of bindings (the paper's
    /// `⟦E⟧_{G, gs}`), given as rows back to back.  Non-aggregate
    /// expressions look at the first row.
    fn eval_expr(&self, e: &Expr, group: &[Slot]) -> Result<Value> {
        match e {
            Expr::Prop(var, key) => Ok(self.lookup_prop(self.first(group), var, key)),
            Expr::Var(var) => Ok(self.lookup_identity(self.first(group), var)),
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

    /// A group's first row, if it has one.
    fn first<'r>(&self, group: &'r [Slot]) -> Option<&'r [Slot]> {
        group.get(..self.stride)
    }

    fn eval_agg(
        &self,
        kind: AggKind,
        inner: &Expr,
        distinct: bool,
        group: &[Slot],
    ) -> Result<Value> {
        let rows = group.chunks_exact(self.stride);
        if matches!(inner, Expr::Star) {
            if kind != AggKind::Count {
                return Err(Error::eval("`*` may only appear inside Count(*)"));
            }
            if distinct {
                // COUNT(DISTINCT *) counts distinct bindings.  A slot out
                // of scope is unbound in every row, so whole rows compare
                // the variables in scope.
                let rows: Vec<&[Slot]> = rows.collect();
                let hashes: Vec<u64> = rows
                    .iter()
                    .map(|row| {
                        let mut h = KeyHasher::new();
                        row.iter().for_each(|s| s.hash_into(&mut h));
                        h.finish()
                    })
                    .collect();
                let distinct = first_seen(&hashes, |i, j| rows[i] == rows[j]);
                return Ok(Value::Int(distinct.firsts.len() as i64));
            }
            return Ok(Value::Int(rows.len() as i64));
        }
        if let (AggKind::Count, false, Expr::Var(v)) = (kind, distinct, inner) {
            // A variable's identity is non-null exactly where it holds an
            // element, so `Count(x)` counts those rows.
            let held = |row: &[Slot]| self.held(Some(row), v);
            let bound = rows.filter(|row| matches!(held(row), Slot::Node(_) | Slot::Edge(_)));
            return Ok(Value::Int(bound.count() as i64));
        }
        let mut values = Vec::with_capacity(rows.len());
        for b in rows {
            values.push(self.eval_expr(inner, b)?);
        }
        if distinct {
            // `strict_eq` decides duplicates; `Value`'s hash agrees with it.
            let hashes: Vec<u64> =
                values.iter().map(|v| key_hash(std::slice::from_ref(v))).collect();
            let distinct = first_seen(&hashes, |i, j| values[i].strict_eq(&values[j]));
            Ok(kind.fold(distinct.firsts.iter().map(|&i| &values[i as usize])))
        } else {
            Ok(kind.fold(values.iter()))
        }
    }

    /// What `var` holds in `row`: unbound when there is no row or the query
    /// does not name it.
    fn held(&self, row: Option<&[Slot]>, var: &Ident) -> Slot {
        match (row, self.vars.slot(var)) {
            (Some(row), Some(s)) => row[s],
            _ => Slot::Unbound,
        }
    }

    fn lookup_prop(&self, row: Option<&[Slot]>, var: &Ident, key: &Ident) -> Value {
        match self.held(row, var) {
            Slot::Node(id) => self.graph.node(id).prop(key.as_str()),
            Slot::Edge(id) => self.graph.edge(id).prop(key.as_str()),
            Slot::Unbound | Slot::Null => Value::Null,
        }
    }

    /// The identity of a bound element, used by bare-variable expressions
    /// such as `Count(n)`: non-null iff the variable is bound.
    fn lookup_identity(&self, row: Option<&[Slot]>, var: &Ident) -> Value {
        // Use the element's default-key value when available so the
        // identity is stable and meaningful; fall back to the id.
        let (label, props, id): (_, _, &dyn std::fmt::Display) = match self.held(row, var) {
            Slot::Node(id) => {
                let node = self.graph.node(id);
                (&node.label, &node.props, &node.id)
            }
            Slot::Edge(id) => {
                let edge = self.graph.edge(id);
                (&edge.label, &edge.props, &edge.id)
            }
            Slot::Unbound | Slot::Null => return Value::Null,
        };
        match self.schema.default_key_of(label.as_str()).and_then(|dk| props.get(dk)) {
            Some(v) if !v.is_null() => v.clone(),
            _ => Value::str_owned(id.to_string()),
        }
    }

    // ------------------------------------------------------------ predicate

    fn eval_pred(&self, p: &Pred, group: &[Slot]) -> Result<Truth> {
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
                let unbound;
                let ctx = match self.first(group) {
                    Some(row) => row,
                    None => {
                        unbound = vec![Slot::Unbound; self.stride];
                        &unbound
                    }
                };
                let mut scratch = Rows::new(self.stride);
                Ok(Truth::from_bool(self.match_pattern(pp, ctx, &mut scratch, true)))
            }
            Pred::And(a, b) => Ok(self.eval_pred(a, group)?.and(self.eval_pred(b, group)?)),
            Pred::Or(a, b) => Ok(self.eval_pred(a, group)?.or(self.eval_pred(b, group)?)),
            Pred::Not(inner) => Ok(self.eval_pred(inner, group)?.not()),
        }
    }
}

/// Whether `node` passes a node pattern's label and property tests.
fn node_matches(node: &Node, pat: &NodePattern) -> bool {
    node.label == pat.label && props_match(&node.props, &pat.props)
}

/// Whether `edge` passes an edge pattern's label and property tests.
fn edge_matches(edge: &Edge, pat: &EdgePattern) -> bool {
    edge.label == pat.label && props_match(&edge.props, &pat.props)
}

/// Whether every inline property is `sql_eq`-true: an absent property is
/// `NULL`, which matches nothing.
fn props_match(props: &BTreeMap<Ident, Value>, want: &[(Ident, Value)]) -> bool {
    want.iter().all(|(k, v)| props.get(k).is_some_and(|held| held.sql_eq(v).is_true()))
}

/// The kernel hash of a key: each value's `Hash` words, in order, through
/// one [`KeyHasher`].
fn key_hash(values: &[Value]) -> u64 {
    let mut h = KeyHasher::new();
    values.iter().for_each(|v| v.hash(&mut h));
    h.finish()
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
    fn implicit_grouping_puts_equal_zeros_and_nans_in_one_group() {
        // -0.0, 0, NaN, 0.0 and another NaN, in label order: `Int(0)` and
        // `0.0` join the group `-0.0` opened, as `Count(DISTINCT)` merges
        // them.
        assert_rows(
            "MATCH (n:T) WHERE n.id IN [4, 5, 12, 13, 14] RETURN n.a AS a, Count(*) AS c, \
             Count(DISTINCT n.a) AS d",
            &["[Float(-0.0), Int(3), Int(1)]", "[Float(NaN), Int(2), Int(1)]"],
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

    /// Both evaluators' rows, rendered, in their order.
    fn both(q: &str, schema: &GraphSchema, g: &GraphInstance) -> [Vec<String>; 2] {
        let query = parse_query(q).unwrap();
        let render = |t: Table| t.rows.iter().map(|r| format!("{r:?}")).collect::<Vec<_>>();
        [
            render(eval_query(schema, g, &query).unwrap()),
            render(eval_query_unoptimized(schema, g, &query).unwrap()),
        ]
    }

    /// Asserts that both evaluators return `want`, in order.
    fn assert_both(q: &str, schema: &GraphSchema, g: &GraphInstance, want: &[&str]) {
        for got in both(q, schema, g) {
            assert_eq!(got, want, "{q}");
        }
    }

    #[test]
    fn a_bound_start_that_is_null_an_edge_or_another_label_matches_nothing() {
        // Employee C works nowhere, so OPTIONAL MATCH leaves m NULL.
        let mut g = emp_graph();
        g.add_node("EMP", [("id", Value::Int(3)), ("name", Value::str("C"))]);
        let s = emp_schema();
        let opt = "MATCH (n:EMP) OPTIONAL MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT {dnum: 1})";
        assert_both(
            &format!("{opt} RETURN n.name AS n, m.dname AS m"),
            &s,
            &g,
            &[r#"[Str("A"), Str("CS")]"#, r#"[Str("B"), Str("CS")]"#, r#"[Str("C"), Null]"#],
        );
        // A MATCH and an EXISTS starting at the NULL drop C's row.
        assert_both(
            &format!("{opt} MATCH (m:DEPT) RETURN n.name AS n"),
            &s,
            &g,
            &[r#"[Str("A")]"#, r#"[Str("B")]"#],
        );
        assert_both(
            &format!("{opt} MATCH (m:DEPT)<-[f:WORK_AT]-(k:EMP) RETURN n.name AS n, k.name AS k"),
            &s,
            &g,
            &[
                r#"[Str("A"), Str("A")]"#,
                r#"[Str("A"), Str("B")]"#,
                r#"[Str("B"), Str("A")]"#,
                r#"[Str("B"), Str("B")]"#,
            ],
        );
        assert_both(
            &format!(
                "{opt} WITH n AS n, m AS m MATCH (n:EMP) \
                 WHERE NOT EXISTS ((m:DEPT)<-[f:WORK_AT]-(k:EMP)) RETURN n.name AS n"
            ),
            &s,
            &g,
            &[r#"[Str("C")]"#],
        );
        // An edge, and a node of another label or with other properties.
        let one_hop = "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT)";
        for (tail, count) in [
            ("WITH e AS x MATCH (x:DEPT) RETURN Count(*) AS c", 0),
            ("WITH e AS x MATCH (x:EMP)-[f:WORK_AT]->(y:DEPT) RETURN Count(*) AS c", 0),
            ("WITH n AS x MATCH (x:DEPT) RETURN Count(*) AS c", 0),
            ("WITH m AS x MATCH (x:DEPT {dnum: 2}) RETURN Count(*) AS c", 0),
            ("WITH m AS x MATCH (x:DEPT {dnum: 1}) RETURN Count(*) AS c", 2),
            ("WITH n AS x MATCH (x:EMP {id: 2})-[f:WORK_AT]->(y:DEPT) RETURN Count(*) AS c", 1),
        ] {
            assert_both(&format!("{one_hop} {tail}"), &s, &g, &[&format!("[Int({count})]")]);
        }
    }

    #[test]
    fn a_pattern_from_a_bound_node_back_to_itself() {
        // `R` has one self-loop, (3, 3); (8, 9) and (9, 8) form a cycle.
        let (schema, g) = distinct_fixture();
        for q in [
            "MATCH (n:T)-[e:R]->(n:T) RETURN n.id AS id",
            "MATCH (n:T) MATCH (n:T)-[e:R]->(n:T) RETURN n.id AS id",
            "MATCH (n:T) WHERE EXISTS ((n:T)-[e:R]->(n:T)) RETURN n.id AS id",
            "MATCH (n:T) OPTIONAL MATCH (n:T)-[e:R]->(n:T) WITH n AS n, e AS e \
             MATCH (n:T) WHERE e.rid = 7 RETURN n.id AS id",
        ] {
            assert_both(q, &schema, &g, &["[Int(3)]"]);
        }
        assert_both(
            "MATCH (n:T)-[e:R]->(m:T) MATCH (n:T)-[f:R]->(m:T)-[g:R]->(n:T) \
             RETURN n.id AS a, m.id AS b, f.rid AS f",
            &schema,
            &g,
            &[
                "[Int(0), Int(2), Int(0)]",
                "[Int(0), Int(2), Int(2)]",
                "[Int(0), Int(2), Int(0)]",
                "[Int(0), Int(2), Int(2)]",
                "[Int(2), Int(0), Int(4)]",
                "[Int(2), Int(0), Int(4)]",
                "[Int(3), Int(3), Int(7)]",
                "[Int(8), Int(9), Int(8)]",
                "[Int(9), Int(8), Int(9)]",
            ],
        );
    }

    #[test]
    fn bound_starts_keep_the_naive_matchers_row_order() {
        let (schema, g) = distinct_fixture();
        for q in [
            "MATCH (n:T) OPTIONAL MATCH (n:T)-[e:R]->(m:T) RETURN n.id AS a, m.id AS b",
            "MATCH (n:T) OPTIONAL MATCH (n:T)-[e:R]->(m:T)-[f:R]->(k:T) WHERE k.id > 2 \
             RETURN n.id AS a, m.id AS b, k.id AS c",
            "MATCH (n:T)-[e:R]->(m:T) MATCH (m:T)-[f:R]->(k:T) RETURN n.id AS a, k.id AS c",
            "MATCH (n:T)-[e:R]->(m:T) MATCH (m:T)<-[f:R]-(k:T) RETURN n.id AS a, k.id AS c",
            "MATCH (n:T)-[e:R]->(m:T) WITH m AS y MATCH (y:T)-[f:R]->(k:T) \
             RETURN y.id AS a, k.id AS c",
            "MATCH (n:T) OPTIONAL MATCH (n:T)-[e:R]->(m:T) WITH m AS y \
             RETURN Count(DISTINCT *) AS d, Count(*) AS c, Count(y) AS b",
        ] {
            let [indexed, naive] = both(q, &schema, &g);
            assert!(!indexed.is_empty(), "{q}");
            assert_eq!(indexed, naive, "{q}");
        }
    }

    /// USR 0 follows users 1–3, each of whom posted three pictures; user
    /// 4 follows user 0 and posted nothing.
    fn social_fixture() -> (GraphSchema, GraphInstance) {
        let schema = GraphSchema::new()
            .with_node(NodeType::new("USR", ["UsrId", "UsrName"]))
            .with_node(NodeType::new("PIC", ["PicId", "PicSize"]))
            .with_edge(EdgeType::new("FOLLOWS", "USR", "USR", ["FId"]))
            .with_edge(EdgeType::new("POSTED", "USR", "PIC", ["PostId"]));
        let mut g = GraphInstance::new();
        let users: Vec<NodeId> =
            (0..5).map(|i| g.add_node("USR", [("UsrId", Value::Int(i))])).collect();
        for (k, &u) in users[1..4].iter().enumerate() {
            g.add_edge("FOLLOWS", users[0], u, [("FId", Value::Int(k as i64))]);
            for p in 0..3 {
                let id = (3 * k + p) as i64;
                let pic =
                    g.add_node("PIC", [("PicId", Value::Int(id)), ("PicSize", Value::Int(id))]);
                g.add_edge("POSTED", u, pic, [("PostId", Value::Int(id))]);
            }
        }
        g.add_edge("FOLLOWS", users[4], users[0], [("FId", Value::Int(9))]);
        (schema, g)
    }

    /// Each stage as `op in→out`, in completion order.
    fn stages(q: &str, schema: &GraphSchema, g: &GraphInstance) -> Vec<String> {
        let (table, stages) = eval_query_profiled(schema, g, &parse_query(q).unwrap()).unwrap();
        assert_eq!(table, eval_query(schema, g, &parse_query(q).unwrap()).unwrap());
        stages.iter().map(|s| format!("{} {}→{}", s.op, s.rows_in, s.rows_out)).collect()
    }

    #[test]
    fn profiles_report_one_stage_per_clause() {
        let (schema, g) = social_fixture();
        let anchored = "MATCH (a:USR {UsrId: 0})-[f:FOLLOWS]->(u:USR)";
        assert_eq!(
            stages(
                &format!(
                    "{anchored} OPTIONAL MATCH (u:USR)-[p:POSTED]->(x:PIC) \
                     RETURN u.UsrId AS uid, x.PicSize AS size"
                ),
                &schema,
                &g
            ),
            vec!["match 0→3", "optional_match 3→9", "return 9→9"]
        );
        // `EXISTS` is timed inside the clause that evaluates it.
        assert_eq!(
            stages(
                &format!(
                    "{anchored} WHERE EXISTS ((u:USR)-[p:POSTED]->(x:PIC)) RETURN u.UsrId AS uid"
                ),
                &schema,
                &g
            ),
            vec!["match 0→3", "return 3→3"]
        );
        assert_eq!(
            stages(
                "MATCH (a:USR)-[f:FOLLOWS]->(u:USR) WITH u AS v MATCH (v:USR)-[p:POSTED]->(x:PIC) \
                 RETURN v.UsrId AS uid, Count(*) AS pics ORDER BY uid",
                &schema,
                &g
            ),
            vec!["match 0→4", "with 4→4", "match 4→9", "return 9→3", "order_by 3→3"]
        );
    }
}
