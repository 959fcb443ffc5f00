//! Vectorized (columnar, batch-at-a-time) execution of compiled plans: the
//! SQL executor.
//!
//! [`eval_query`] and [`eval_vectorized`] run a [`CompiledQuery`] over
//! [`ColumnTable`]s:
//!
//! * **scans** hand out `Arc`-shared typed columns and reuse the plan's
//!   statically-computed requalified layout — no row cloning, no per-scan
//!   name formatting;
//! * **selections** evaluate the predicate column-at-a-time into a
//!   selection vector, then gather the survivors of each typed column;
//! * **projections** evaluate each item program as a column kernel
//!   (constants stay constants until materialization);
//! * **hash operators** — joins, `GROUP BY`, `DISTINCT`/`UNION`,
//!   `COUNT(DISTINCT)` and `IN` — all run on one kernel,
//!   [`HashTable`] fed by [`KeyHasher`]: a flat chained table over row
//!   numbers, hashed from the key *columns* and verified against them, so
//!   no row key is cloned and nothing is allocated per bucket.  Chains are
//!   in ascending row order, so no output order depends on a hash;
//! * **hash joins** build on the smaller input.  Built on the right, the
//!   left rows probe in order; built on the left, the right rows probe in
//!   order and the verified pairs are counting-sorted by left row.  Either
//!   way the output is left-major with right rows ascending, and is
//!   emitted as one gather per column;
//! * **GROUP BY** evaluates key programs vectorized, numbers groups in
//!   first-seen order, counting-sorts the members into one index vector
//!   (one range per group), and folds aggregates with typed kernels over
//!   those ranges;
//! * **subqueries** are compiled sub-plans run by this same engine.  Once
//!   per operator, a subquery is first run with no outer scope; if that
//!   succeeds it is uncorrelated, so `EXISTS` is one constant and `IN`
//!   probes the rows through one hash table over its columns.  Otherwise
//!   it is correlated, and it re-enters the engine once per outer row with
//!   that row bound, so [`CExpr::Outer`] reads a constant;
//! * **restrictions** hand an anchor's keys down to the base scans below
//!   it (sideways information passing).  Every column of the columnar
//!   image has a key index ([`KeyIndex`](graphiti_relational::KeyIndex)):
//!   its non-`NULL` rows grouped by key, in ascending row order, built on
//!   first use and kept with the column's payload.  A restriction is a
//!   superset pre-filter on one column: keep the rows whose value equals
//!   one of its keys, plus the rows where it is `NULL`.  Three operators
//!   make one, and each still applies its own full test to the rows that
//!   come back, so answers, row order and errors stay the oracle's:
//!   - a hash join with one key pair, for its right input, from the keys
//!     of its evaluated left input.  Its equality is the index's own
//!     (hash words verified by `strict_eq_at`), on any column;
//!   - an uncorrelated `IN`, for its subquery, from its probes.  `sql_eq`
//!     agrees with the index only on `Int`, `Str` and `Bool` values, so a
//!     probe column restricts only if it holds no `NULL` and only those
//!     types, and only a landing column of those types answers;
//!   - a selection, for its own input, from a `col = c` conjunct.
//!     `Value::compare` goes through `f64`, so only an `Int` column
//!     answers, and only for an `Int` literal or bound outer value below
//!     2^53 in magnitude, which no other integer rounds to.
//!
//!   A restriction descends only through renames, projections of plain
//!   columns (not `DISTINCT`), selections and join residuals that cannot
//!   raise (no arithmetic, no subquery, no unbound outer reference), both
//!   inputs of an inner hash join and the preserved side of a `LEFT` one.
//!   So every operator that sees fewer rows is one that raises on no row.
//!   It lands on a base scan of the columnar image (never a CTE or a
//!   converted table), which answers it only when it has fewer keys than
//!   the column has distinct keys; otherwise nothing is restricted.  A
//!   scan that answers reports itself as `key_scan`, with the share of the
//!   table it kept as its density.
//!
//! Semantics are those of the naive oracle,
//! [`eval_query_unoptimized`](crate::eval_query_unoptimized): each kernel
//! replays the corresponding `Value` operation (including its
//! quirks — numeric comparison through `f64`, wrapping integer arithmetic,
//! `NULL`-skipping aggregate folds), operators emit rows in the oracle's
//! order, and the subquery rule above is the oracle's own.  The unit corpus
//! below, the differential proptests in `graphiti-testkit` and the corpus
//! sweeps of `bench_gate` compare the two (Definition 4.4).

use crate::ast::{JoinKind, SqlQuery};
use crate::compile::{CExpr, CGroupExpr, CGroupPred, CPred};
use crate::eval::Scope;
use crate::plan::{compile_query, CompiledQuery, PlanNode, PlanOp, SubPlan};
use graphiti_common::{AggKind, BinArith, CmpOp, Error, Result, Truth, Value};
use graphiti_obs::profile::{StageProfile, StageSink};
use graphiti_relational::{
    counting_sort, first_seen, hash_rows, Bitmap, Column, ColumnData, ColumnInstance, ColumnTable,
    HashTable, KeyHasher, RelInstance, Table, NULL_IDX,
};
use std::cell::{OnceCell, RefCell};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use std::sync::Arc;

/// Evaluates a SQL query against a relational instance: selection
/// pushdown, compilation ([`compile_query`]), then [`eval_vectorized`].
/// Each table the query scans is converted to columns once per call.
pub fn eval_query(instance: &RelInstance, query: &SqlQuery) -> Result<Table> {
    let plan = compile_query(instance, query)?;
    eval_vectorized(instance, &ColumnInstance::new(), &plan)
}

/// Executes a pre-compiled plan against the columnar image of an instance.
///
/// `instance` is the row-oriented instance the plan was compiled against;
/// a table missing from `columnar` is converted from it, once per call.
pub fn eval_vectorized(
    instance: &RelInstance,
    columnar: &ColumnInstance,
    plan: &CompiledQuery,
) -> Result<Table> {
    let tables = Tables { instance, columnar, converted: RefCell::default() };
    let out = VecEvaluator::new(&tables, None, None).eval(&plan.root, &Ctes::new(), &[])?;
    Ok(out.to_table())
}

/// [`eval_vectorized`] with per-operator profiling: every plan node
/// reports its wall time (inclusive of children), rows in/out, and —
/// for selections — the selection-vector density.  Stages come back in
/// completion (post) order, one per plan node: subquery runs count
/// toward the operator that holds the subquery.  Results are identical to
/// the unprofiled path.
pub fn eval_vectorized_profiled(
    instance: &RelInstance,
    columnar: &ColumnInstance,
    plan: &CompiledQuery,
) -> Result<(Table, Vec<StageProfile>)> {
    let tables = Tables { instance, columnar, converted: RefCell::default() };
    let sink = RefCell::new(StageSink::new());
    let out = VecEvaluator::new(&tables, None, Some(&sink)).eval(&plan.root, &Ctes::new(), &[])?;
    Ok((out.to_table(), sink.into_inner().finish()))
}

/// CTE environment: definitions in columnar form.
type Ctes = HashMap<String, ColumnTable>;

/// The tables one call scans: the columnar image, plus the tables it lacks,
/// converted from the row instance on first scan and kept for the call.
struct Tables<'a> {
    instance: &'a RelInstance,
    columnar: &'a ColumnInstance,
    converted: RefCell<HashMap<String, ColumnTable>>,
}

impl Tables<'_> {
    /// Table `name` under the layout `columns`.
    fn scan(&self, name: &str, columns: &Arc<Vec<String>>) -> Option<ColumnTable> {
        if let Some(t) = self.columnar.table(name) {
            return Some(t.with_column_names(Arc::clone(columns)));
        }
        let mut converted = self.converted.borrow_mut();
        if !converted.contains_key(name) {
            let t = ColumnTable::from_table(self.instance.table(name)?);
            converted.insert(name.to_string(), t);
        }
        Some(converted[name].with_column_names(Arc::clone(columns)))
    }
}

/// An uncorrelated subquery's rows, with the `IN` hash table built on
/// first probe.
struct Uncorrelated {
    rows: ColumnTable,
    members: OnceCell<InSet>,
}

impl Uncorrelated {
    fn members(&self) -> &InSet {
        self.members.get_or_init(|| InSet::new(self.rows.clone()))
    }
}

/// One pass over a plan at one outer binding: the top-level query, an
/// uncorrelated subquery run, or a correlated subquery's run for one outer
/// row.
struct VecEvaluator<'a> {
    tables: &'a Tables<'a>,
    /// The bound outer row (`None` at the top level and for uncorrelated
    /// runs).
    outer: Option<&'a Scope<'a>>,
    /// Per-operator stage collection, installed by
    /// [`eval_vectorized_profiled`] for the top-level pass only.
    prof: Option<&'a RefCell<StageSink>>,
    /// Each subquery's result in this pass, by sub-plan identity: its rows
    /// if it is uncorrelated, `None` if it is correlated.  Within one pass
    /// every plan node runs at most once, so one entry serves every batch of
    /// the operator that holds the subquery.
    subqueries: RefCell<HashMap<*const SubPlan, Option<Rc<Uncorrelated>>>>,
}

/// The profile label of a plan operator.
fn op_name(op: &PlanOp) -> &'static str {
    match op {
        PlanOp::Scan { .. } => "scan",
        PlanOp::Rename { .. } => "rename",
        PlanOp::Select { .. } => "select",
        PlanOp::Project { .. } => "project",
        PlanOp::Cross { .. } => "cross",
        PlanOp::HashJoin { .. } => "hash_join",
        PlanOp::LoopJoin { .. } => "loop_join",
        PlanOp::Union { .. } => "union",
        PlanOp::GroupBy { .. } => "group_by",
        PlanOp::With { .. } => "with",
        PlanOp::OrderBy { .. } => "order_by",
    }
}

// ------------------------------------------------------------ vector types

/// An expression result over a batch: either one constant for every row or
/// a materialized column.
#[derive(Clone)]
enum VCol {
    Const(Value),
    Col(Column),
}

impl VCol {
    fn materialize(&self, len: usize) -> Column {
        match self {
            VCol::Const(v) => Column::splat(v, len),
            VCol::Col(c) => c.clone(),
        }
    }

    #[inline]
    fn value(&self, i: usize) -> Value {
        match self {
            VCol::Const(v) => v.clone(),
            VCol::Col(c) => c.value(i),
        }
    }
}

/// Typed view used by the integer fast paths: a constant (possibly `NULL`)
/// or a slice + validity.
enum IntView<'a> {
    Const(Option<i64>),
    Slice(&'a [i64], Option<&'a Bitmap>),
}

impl<'a> IntView<'a> {
    fn of(v: &'a VCol) -> Option<IntView<'a>> {
        match v {
            VCol::Const(Value::Int(x)) => Some(IntView::Const(Some(*x))),
            VCol::Const(Value::Null) => Some(IntView::Const(None)),
            VCol::Col(c) => match c.data() {
                ColumnData::Int(xs) => Some(IntView::Slice(xs, c.validity())),
                _ => None,
            },
            _ => None,
        }
    }

    #[inline]
    fn get(&self, i: usize) -> Option<i64> {
        match self {
            IntView::Const(v) => *v,
            IntView::Slice(xs, validity) => match validity {
                Some(b) if !b.get(i) => None,
                _ => Some(xs[i]),
            },
        }
    }
}

// ---------------------------------------------------------------- executor

impl<'a> VecEvaluator<'a> {
    fn new(
        tables: &'a Tables<'a>,
        outer: Option<&'a Scope<'a>>,
        prof: Option<&'a RefCell<StageSink>>,
    ) -> VecEvaluator<'a> {
        VecEvaluator { tables, outer, prof, subqueries: RefCell::default() }
    }

    /// Evaluates one plan node, recording a profile stage when a sink
    /// is installed.  The stage's `rows_in` is derived structurally by
    /// the sink (children report their output to the enclosing frame).
    ///
    /// `restrictions` restrict the node's output columns (see
    /// [`Restriction`]): the result may keep rows they rule out, never drop
    /// one they keep.
    fn eval(
        &self,
        node: &PlanNode,
        ctes: &Ctes,
        restrictions: &[Restriction],
    ) -> Result<ColumnTable> {
        let Some(prof) = self.prof else { return self.eval_node(node, ctes, restrictions) };
        prof.borrow_mut().begin(op_name(&node.op));
        let out = self.eval_node(node, ctes, restrictions);
        prof.borrow_mut().end(out.as_ref().map(|t| t.len() as u64).unwrap_or(0));
        out
    }

    fn eval_node(
        &self,
        node: &PlanNode,
        ctes: &Ctes,
        restrictions: &[Restriction],
    ) -> Result<ColumnTable> {
        match &node.op {
            PlanOp::Scan { name } => self.scan(name.as_str(), &node.columns, ctes, restrictions),
            PlanOp::Rename { input } => {
                let t = self.eval(input, ctes, restrictions)?;
                Ok(t.with_column_names(Arc::clone(&node.columns)))
            }
            PlanOp::Select { input, program } => {
                let mut down = Vec::new();
                if self.cannot_raise(program) {
                    down.extend_from_slice(restrictions);
                    self.equality_restrictions(program, &mut down);
                }
                let t = self.eval(input, ctes, &down)?;
                self.select(&t, program, ctes)
            }
            PlanOp::Project { input, programs, distinct } => {
                let through = !*distinct && programs.iter().all(|p| self.cannot_raise_expr(p));
                let down: Vec<Restriction> = restrictions
                    .iter()
                    .filter(|_| through)
                    .filter_map(|r| match programs.get(r.col) {
                        Some(CExpr::Col(c)) => Some(r.on(*c)),
                        _ => None,
                    })
                    .collect();
                let t = self.eval(input, ctes, &down)?;
                self.project(&t, programs, *distinct, &node.columns, ctes)
            }
            PlanOp::Cross { left, right } => {
                let lt = self.eval(left, ctes, &[])?;
                let rt = self.eval(right, ctes, &[])?;
                let (mut li, mut ri) = (Vec::new(), Vec::new());
                li.reserve(lt.len() * rt.len());
                ri.reserve(lt.len() * rt.len());
                for l in 0..lt.len() as u32 {
                    for r in 0..rt.len() as u32 {
                        li.push(l);
                        ri.push(r);
                    }
                }
                Ok(combine_gather(&lt, &li, &rt, &ri, &node.columns))
            }
            PlanOp::HashJoin { left, right, kind, pairs, residual } => {
                // Restrictions from above pass into the left input, and
                // into the right one of an inner join; the join's one key
                // pair restricts its right input to the left rows' keys.
                let through = residual.as_ref().is_none_or(|p| self.cannot_raise(p));
                let split = left.columns.len();
                let (mut down_left, mut down_right) = (Vec::new(), Vec::new());
                for r in restrictions.iter().filter(|_| through) {
                    if r.col < split {
                        down_left.push(r.clone());
                    } else if *kind == JoinKind::Inner {
                        down_right.push(r.on(r.col - split));
                    }
                }
                let lt = self.eval(left, ctes, &down_left)?;
                if let [(l, r)] = pairs[..] {
                    down_right.push(Restriction {
                        col: r,
                        keys: lt.col(l).clone(),
                        eq: KeyEq::Join,
                    });
                }
                let rt = self.eval(right, ctes, &down_right)?;
                self.hash_join(&lt, &rt, *kind, pairs, residual.as_ref(), &node.columns, ctes)
            }
            PlanOp::LoopJoin { left, right, kind, program } => {
                let lt = self.eval(left, ctes, &[])?;
                let rt = self.eval(right, ctes, &[])?;
                self.loop_join(&lt, &rt, *kind, program, &node.columns, ctes)
            }
            PlanOp::Union { left, right, dedup } => {
                let lt = self.eval(left, ctes, &[])?;
                let rt = self.eval(right, ctes, &[])?;
                if lt.arity() != rt.arity() {
                    return Err(Error::eval(format!(
                        "UNION arity mismatch: {} vs {}",
                        lt.arity(),
                        rt.arity()
                    )));
                }
                let cols: Vec<Column> =
                    lt.cols().iter().zip(rt.cols().iter()).map(|(a, b)| a.concat(b)).collect();
                let len = lt.len() + rt.len();
                let out = ColumnTable::from_columns(Arc::clone(&node.columns), cols, len);
                Ok(if *dedup {
                    let keep = distinct_indices(out.cols(), out.len());
                    out.gather(&keep)
                } else {
                    out
                })
            }
            PlanOp::GroupBy { input, keys, items, having } => {
                let t = self.eval(input, ctes, &[])?;
                self.group_by(&t, keys, items, having.as_ref(), &node.columns, ctes)
            }
            PlanOp::With { name, definition, body } => {
                let def = self.eval(definition, ctes, &[])?;
                let mut extended = ctes.clone();
                extended.insert(name.as_str().to_string(), def);
                self.eval(body, &extended, &[])
            }
            PlanOp::OrderBy { input, keys } => {
                let t = self.eval(input, ctes, &[])?;
                Ok(order_by(&t, keys))
            }
        }
    }

    /// Base-table / CTE scan.  The plan's layout already carries the
    /// requalified names, so a scan is column `Arc` bumps plus one name
    /// vector share.  A scan of the columnar image that `restrictions`
    /// restrict gathers only the rows the key indexes return ([`key_rows`]) and
    /// reports itself as `key_scan`, with the share of the table it kept as
    /// its density.
    fn scan(
        &self,
        name: &str,
        columns: &Arc<Vec<String>>,
        ctes: &Ctes,
        restrictions: &[Restriction],
    ) -> Result<ColumnTable> {
        let cte = ctes
            .get(name)
            .or_else(|| ctes.iter().find(|(k, _)| k.eq_ignore_ascii_case(name)).map(|(_, v)| v));
        if let Some(t) = cte {
            return Ok(t.with_column_names(Arc::clone(columns)));
        }
        if let Some(base) = self.tables.columnar.table(name) {
            if let Some(rows) = key_rows(base, restrictions) {
                if let Some(prof) = self.prof {
                    let mut prof = prof.borrow_mut();
                    prof.relabel("key_scan");
                    prof.set_density(rows.len() as f64 / base.len() as f64);
                }
                return Ok(base.gather(&rows).with_column_names(Arc::clone(columns)));
            }
        }
        self.tables
            .scan(name, columns)
            .ok_or_else(|| Error::eval(format!("unknown table `{name}`")))
    }

    fn select(&self, t: &ColumnTable, program: &CPred, ctes: &Ctes) -> Result<ColumnTable> {
        if t.is_empty() {
            return Ok(t.clone());
        }
        let mask = self.eval_pred_vec(program, t, ctes)?;
        let keep: Vec<u32> =
            (0..t.len()).filter(|&i| mask[i] == Truth::True).map(|i| i as u32).collect();
        if let Some(prof) = self.prof {
            prof.borrow_mut().set_density(keep.len() as f64 / t.len() as f64);
        }
        Ok(t.gather(&keep))
    }

    fn project(
        &self,
        t: &ColumnTable,
        programs: &[CExpr],
        distinct: bool,
        out_columns: &Arc<Vec<String>>,
        ctes: &Ctes,
    ) -> Result<ColumnTable> {
        let mut cols = Vec::with_capacity(programs.len());
        for p in programs {
            let v = self.eval_expr_vec(p, t, ctes)?;
            cols.push(v.materialize(t.len()));
        }
        let out = ColumnTable::from_columns(Arc::clone(out_columns), cols, t.len());
        Ok(if distinct {
            let keep = distinct_indices(out.cols(), out.len());
            out.gather(&keep)
        } else {
            out
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn hash_join(
        &self,
        left: &ColumnTable,
        right: &ColumnTable,
        kind: JoinKind,
        pairs: &[(usize, usize)],
        residual: Option<&CPred>,
        out_columns: &Arc<Vec<String>>,
        ctes: &Ctes,
    ) -> Result<ColumnTable> {
        // Candidate pairs whose keys are equal, left-major with right rows
        // ascending: left row `l`'s are `offsets[l]..offsets[l + 1]`.
        let (cand_left, cand_right, offsets) = equi_candidates(left, right, pairs);
        // Residual filter over the candidate batch, evaluated once,
        // column-at-a-time.
        let mask: Option<Vec<Truth>> = match residual {
            Some(p) if !cand_left.is_empty() => {
                let cand = combine_gather(left, &cand_left, right, &cand_right, out_columns);
                Some(self.eval_pred_vec(p, &cand, ctes)?)
            }
            _ => None,
        };
        // Emit in the oracle's order: each left row's surviving
        // candidates, then its null-extension if LEFT JOIN and none
        // survived.
        let mut out_left: Vec<u32> = Vec::with_capacity(cand_left.len());
        let mut out_right: Vec<u32> = Vec::with_capacity(cand_right.len());
        for (li, run) in offsets.windows(2).enumerate() {
            let mut matched = false;
            for c in run[0]..run[1] {
                let keep = mask.as_ref().is_none_or(|m| m[c as usize] == Truth::True);
                if keep {
                    matched = true;
                    out_left.push(cand_left[c as usize]);
                    out_right.push(cand_right[c as usize]);
                }
            }
            if !matched && kind == JoinKind::Left {
                out_left.push(li as u32);
                out_right.push(NULL_IDX);
            }
        }
        Ok(combine_gather(left, &out_left, right, &out_right, out_columns))
    }

    fn loop_join(
        &self,
        left: &ColumnTable,
        right: &ColumnTable,
        kind: JoinKind,
        program: &CPred,
        out_columns: &Arc<Vec<String>>,
        ctes: &Ctes,
    ) -> Result<ColumnTable> {
        // Evaluate the predicate vectorized over the pair space (the oracle
        // touches every pair too), but in bounded *chunks* of whole
        // left rows: peak memory stays O(chunk) instead of O(|L|·|R|),
        // while output order is preserved — per left row its matches, with
        // null-extended rows interleaved/appended exactly like the oracle.
        const PAIR_CHUNK: usize = 1 << 16;
        let (l, r) = (left.len(), right.len());
        let rows_per_chunk = (PAIR_CHUNK / r.max(1)).max(1);
        let mut out_left: Vec<u32> = Vec::new();
        let mut out_right: Vec<u32> = Vec::new();
        let mut right_matched = vec![false; r];
        let mut chunk_start = 0usize;
        while chunk_start < l {
            let chunk_end = (chunk_start + rows_per_chunk).min(l);
            let mut pair_left: Vec<u32> = Vec::with_capacity((chunk_end - chunk_start) * r);
            let mut pair_right: Vec<u32> = Vec::with_capacity((chunk_end - chunk_start) * r);
            for li in chunk_start..chunk_end {
                for ri in 0..r as u32 {
                    pair_left.push(li as u32);
                    pair_right.push(ri);
                }
            }
            let pairs_tbl = combine_gather(left, &pair_left, right, &pair_right, out_columns);
            let mask = if pairs_tbl.is_empty() {
                Vec::new()
            } else {
                self.eval_pred_vec(program, &pairs_tbl, ctes)?
            };
            for li in chunk_start..chunk_end {
                let base = (li - chunk_start) * r;
                let mut matched = false;
                for ri in 0..r {
                    if mask[base + ri] == Truth::True {
                        matched = true;
                        right_matched[ri] = true;
                        out_left.push(li as u32);
                        out_right.push(ri as u32);
                    }
                }
                if !matched && matches!(kind, JoinKind::Left | JoinKind::Full) {
                    out_left.push(li as u32);
                    out_right.push(NULL_IDX);
                }
            }
            chunk_start = chunk_end;
        }
        if matches!(kind, JoinKind::Right | JoinKind::Full) {
            for (ri, hit) in right_matched.iter().enumerate() {
                if !hit {
                    out_left.push(NULL_IDX);
                    out_right.push(ri as u32);
                }
            }
        }
        Ok(combine_gather(left, &out_left, right, &out_right, out_columns))
    }

    #[allow(clippy::too_many_arguments)]
    fn group_by(
        &self,
        input: &ColumnTable,
        keys: &[CExpr],
        items: &[CGroupExpr],
        having: Option<&CGroupPred>,
        out_columns: &Arc<Vec<String>>,
        ctes: &Ctes,
    ) -> Result<ColumnTable> {
        // Vectorized key evaluation, then grouping in first-seen order
        // (the oracle's insertion order).
        let key_cols: Vec<Column> = keys
            .iter()
            .map(|k| Ok(self.eval_expr_vec(k, input, ctes)?.materialize(input.len())))
            .collect::<Result<_>>()?;
        let mut groups = Groups::by_key(&key_cols, input.len());
        // SQL returns a single row for aggregate queries without GROUP BY
        // even when the input is empty.
        if keys.is_empty() && input.is_empty() {
            groups.offsets.push(0);
        }
        // HAVING over all groups (the oracle also evaluates it per group
        // before touching any item program).
        if let Some(p) = having {
            let truths = self.eval_group_pred_vec(p, input, &groups, ctes)?;
            groups = groups.retain(|g| truths[g] == Truth::True);
        }
        // Gather the surviving members into one batch so item kernels never
        // evaluate a row the oracle would have skipped (its item programs
        // only ever see groups that passed HAVING).
        let batch = input.gather(&groups.rows);
        let groups = Groups { rows: (0..batch.len() as u32).collect(), offsets: groups.offsets };
        let mut out_cols = Vec::with_capacity(items.len());
        for item in items {
            let per_group = self.eval_group_expr_vec(item, &batch, &groups, ctes)?;
            out_cols.push(Column::from_values(per_group));
        }
        Ok(ColumnTable::from_columns(Arc::clone(out_columns), out_cols, groups.len()))
    }

    // ------------------------------------------------------ group kernels

    /// Evaluates a group-level expression for every group, returning one
    /// value per group.  Aggregate inner expressions run vectorized over
    /// the whole batch; scalar (first-row) parts run vectorized over the
    /// batch of first rows.
    fn eval_group_expr_vec(
        &self,
        e: &CGroupExpr,
        batch: &ColumnTable,
        groups: &Groups,
        ctes: &Ctes,
    ) -> Result<Vec<Value>> {
        match e {
            CGroupExpr::CountStar => {
                Ok(groups.iter().map(|g| Value::Int(g.len() as i64)).collect())
            }
            CGroupExpr::CountDistinctRows => Ok(count_distinct_rows(batch, groups)),
            CGroupExpr::StarAgg => {
                if groups.len() == 0 {
                    Ok(Vec::new())
                } else {
                    Err(Error::eval("`*` may only appear inside Count(*)"))
                }
            }
            CGroupExpr::Agg(kind, inner, distinct) => {
                let col = self.eval_expr_vec(inner, batch, ctes)?.materialize(batch.len());
                Ok(if *distinct {
                    fold_distinct(*kind, &col, groups)
                } else {
                    groups.iter().map(|members| fold_members(*kind, &col, members)).collect()
                })
            }
            CGroupExpr::Arith(a, op, b) => {
                let va = self.eval_group_expr_vec(a, batch, groups, ctes)?;
                let vb = self.eval_group_expr_vec(b, batch, groups, ctes)?;
                va.iter().zip(vb.iter()).map(|(x, y)| x.arith(*op, y)).collect()
            }
            CGroupExpr::Scalar(inner) => on_first_rows(batch, groups, Value::Null, |firsts| {
                let v = self.eval_expr_vec(inner, firsts, ctes)?;
                Ok((0..firsts.len()).map(|i| v.value(i)).collect())
            }),
        }
    }

    /// Evaluates a `HAVING` program for every group.
    fn eval_group_pred_vec(
        &self,
        p: &CGroupPred,
        batch: &ColumnTable,
        groups: &Groups,
        ctes: &Ctes,
    ) -> Result<Vec<Truth>> {
        match p {
            CGroupPred::Bool(b) => Ok(vec![Truth::from_bool(*b); groups.len()]),
            CGroupPred::Cmp(a, op, b) => {
                let va = self.eval_group_expr_vec(a, batch, groups, ctes)?;
                let vb = self.eval_group_expr_vec(b, batch, groups, ctes)?;
                Ok(va.iter().zip(vb.iter()).map(|(x, y)| x.compare(*op, y)).collect())
            }
            CGroupPred::IsNull(e) => {
                let v = self.eval_group_expr_vec(e, batch, groups, ctes)?;
                Ok(v.iter().map(|x| Truth::from_bool(x.is_null())).collect())
            }
            CGroupPred::InList(e, vs) => {
                let v = self.eval_group_expr_vec(e, batch, groups, ctes)?;
                Ok(v.iter().map(|x| in_list(x, vs)).collect())
            }
            CGroupPred::FirstRow(p) => on_first_rows(batch, groups, Truth::Unknown, |firsts| {
                self.eval_pred_vec(p, firsts, ctes)
            }),
            CGroupPred::And(a, b) => {
                let va = self.eval_group_pred_vec(a, batch, groups, ctes)?;
                let vb = self.eval_group_pred_vec(b, batch, groups, ctes)?;
                Ok(va.into_iter().zip(vb).map(|(x, y)| x.and(y)).collect())
            }
            CGroupPred::Or(a, b) => {
                let va = self.eval_group_pred_vec(a, batch, groups, ctes)?;
                let vb = self.eval_group_pred_vec(b, batch, groups, ctes)?;
                Ok(va.into_iter().zip(vb).map(|(x, y)| x.or(y)).collect())
            }
            CGroupPred::Not(inner) => {
                let v = self.eval_group_pred_vec(inner, batch, groups, ctes)?;
                Ok(v.into_iter().map(Truth::not).collect())
            }
        }
    }

    // ------------------------------------------------- expression kernels

    /// Evaluates an expression program over a batch, column-at-a-time.
    fn eval_expr_vec(&self, e: &CExpr, input: &ColumnTable, ctes: &Ctes) -> Result<VCol> {
        if input.is_empty() {
            // No row is ever evaluated: deferred-error programs stay
            // silent, exactly like the oracle.
            return Ok(VCol::Col(Column::from_values(Vec::new())));
        }
        match e {
            CExpr::Col(idx) => Ok(VCol::Col(input.col(*idx).clone())),
            CExpr::Value(v) => Ok(VCol::Const(v.clone())),
            CExpr::Outer(cref) => match self.outer.and_then(|o| o.lookup(cref)) {
                Some(v) => Ok(VCol::Const(v.clone())),
                None => Err(Error::eval(format!("unknown column `{}`", cref.render()))),
            },
            CExpr::ScalarAgg => Err(Error::eval("aggregate used outside of a GROUP BY context")),
            CExpr::Star => Err(Error::eval("`*` may only appear inside Count(*)")),
            CExpr::Arith(a, op, b) => {
                let va = self.eval_expr_vec(a, input, ctes)?;
                let vb = self.eval_expr_vec(b, input, ctes)?;
                arith_vec(&va, *op, &vb, input.len())
            }
            CExpr::Cast(p) => {
                let truths = self.eval_pred_vec(p, input, ctes)?;
                let mut data = Vec::with_capacity(truths.len());
                let mut validity = Bitmap::all_invalid(truths.len());
                for (i, t) in truths.iter().enumerate() {
                    match t {
                        Truth::True => {
                            data.push(1);
                            validity.set(i);
                        }
                        Truth::False => {
                            data.push(0);
                            validity.set(i);
                        }
                        Truth::Unknown => data.push(0),
                    }
                }
                Ok(VCol::Col(Column::from_parts(ColumnData::Int(data), Some(validity))))
            }
        }
    }

    /// Evaluates a predicate program over a non-empty batch.
    fn eval_pred_vec(&self, p: &CPred, input: &ColumnTable, ctes: &Ctes) -> Result<Vec<Truth>> {
        let len = input.len();
        match p {
            CPred::Bool(b) => Ok(vec![Truth::from_bool(*b); len]),
            CPred::Cmp(a, op, b) => {
                let va = self.eval_expr_vec(a, input, ctes)?;
                let vb = self.eval_expr_vec(b, input, ctes)?;
                Ok(cmp_vec(&va, *op, &vb, len))
            }
            CPred::IsNull(e) => {
                let v = self.eval_expr_vec(e, input, ctes)?;
                Ok(match v {
                    VCol::Const(c) => vec![Truth::from_bool(c.is_null()); len],
                    VCol::Col(c) => (0..len).map(|i| Truth::from_bool(c.is_null(i))).collect(),
                })
            }
            CPred::InList(e, vs) => {
                let v = self.eval_expr_vec(e, input, ctes)?;
                Ok((0..len).map(|i| in_list(&v.value(i), vs)).collect())
            }
            CPred::InQuery(exprs, sub) => {
                let lhs: Vec<VCol> = exprs
                    .iter()
                    .map(|e| self.eval_expr_vec(e, input, ctes))
                    .collect::<Result<_>>()?;
                match self.uncorrelated(sub, ctes, &in_restrictions(&lhs)) {
                    Some(u) => (0..len).map(|i| u.members().probe(&lhs, i)).collect(),
                    None => (0..len)
                        .map(|i| InSet::new(self.correlated(sub, input, i, ctes)?).probe(&lhs, i))
                        .collect(),
                }
            }
            CPred::Exists(sub) => match self.uncorrelated(sub, ctes, &[]) {
                Some(u) => Ok(vec![Truth::from_bool(!u.rows.is_empty()); len]),
                None => (0..len)
                    .map(|i| {
                        Ok(Truth::from_bool(!self.correlated(sub, input, i, ctes)?.is_empty()))
                    })
                    .collect(),
            },
            CPred::And(a, b) => {
                // Both sides evaluate unconditionally, like the oracle
                // (three-valued logic has no short circuit there either).
                let va = self.eval_pred_vec(a, input, ctes)?;
                let vb = self.eval_pred_vec(b, input, ctes)?;
                Ok(va.into_iter().zip(vb).map(|(x, y)| x.and(y)).collect())
            }
            CPred::Or(a, b) => {
                let va = self.eval_pred_vec(a, input, ctes)?;
                let vb = self.eval_pred_vec(b, input, ctes)?;
                Ok(va.into_iter().zip(vb).map(|(x, y)| x.or(y)).collect())
            }
            CPred::Not(inner) => {
                let v = self.eval_pred_vec(inner, input, ctes)?;
                Ok(v.into_iter().map(Truth::not).collect())
            }
        }
    }

    // ---------------------------------------------------------- subqueries

    /// The subquery's rows if it is uncorrelated, i.e. if it evaluates with
    /// no outer scope — the oracle's rule.  Decided and run once per pass.
    ///
    /// Restricted to an `IN`'s probes (`restrictions`), a run answers for those
    /// probes only, so its rows are not kept for later batches.  It fails
    /// exactly when the full run would: a restriction reaches only
    /// operators that cannot raise.
    fn uncorrelated(
        &self,
        sub: &SubPlan,
        ctes: &Ctes,
        restrictions: &[Restriction],
    ) -> Option<Rc<Uncorrelated>> {
        let key = sub as *const SubPlan;
        if let Some(known) = self.subqueries.borrow().get(&key) {
            return known.clone();
        }
        let rows = VecEvaluator::new(self.tables, None, None).run(sub, ctes, restrictions).ok();
        let known = rows.map(|rows| Rc::new(Uncorrelated { rows, members: OnceCell::new() }));
        if restrictions.is_empty() || known.is_none() {
            self.subqueries.borrow_mut().insert(key, known.clone());
        }
        known
    }

    /// Runs a correlated subquery for row `i` of `input`, bound as the
    /// innermost outer scope.
    fn correlated(
        &self,
        sub: &SubPlan,
        input: &ColumnTable,
        i: usize,
        ctes: &Ctes,
    ) -> Result<ColumnTable> {
        let row = input.row(i);
        let scope = Scope { columns: input.columns(), row: &row, outer: self.outer };
        VecEvaluator::new(self.tables, Some(&scope), None).run(sub, ctes, &[])
    }

    /// Runs a subquery, with `restrictions` on its output columns unless its
    /// arity leaves one without a column (the probe then fails on arity).
    fn run(&self, sub: &SubPlan, ctes: &Ctes, restrictions: &[Restriction]) -> Result<ColumnTable> {
        match &sub.root {
            Ok(node) if restrictions.iter().all(|r| r.col < node.columns.len()) => {
                self.eval(node, ctes, restrictions)
            }
            Ok(node) => self.eval(node, ctes, &[]),
            Err(e) => Err(e.clone()),
        }
    }

    // -------------------------------------------------------- restrictions

    /// Whether `p` raises on no row: it holds no arithmetic, no subquery,
    /// no error instruction and no outer reference the bound outer rows
    /// leave unbound.  A restriction passes only through such programs, so
    /// no error the oracle raises on a row goes missing with that row.
    fn cannot_raise(&self, p: &CPred) -> bool {
        match p {
            CPred::Bool(_) => true,
            CPred::Cmp(a, _, b) => self.cannot_raise_expr(a) && self.cannot_raise_expr(b),
            CPred::IsNull(e) | CPred::InList(e, _) => self.cannot_raise_expr(e),
            CPred::InQuery(..) | CPred::Exists(_) => false,
            CPred::And(a, b) | CPred::Or(a, b) => self.cannot_raise(a) && self.cannot_raise(b),
            CPred::Not(inner) => self.cannot_raise(inner),
        }
    }

    /// [`VecEvaluator::cannot_raise`] for an expression.
    fn cannot_raise_expr(&self, e: &CExpr) -> bool {
        match e {
            CExpr::Col(_) | CExpr::Value(_) => true,
            CExpr::Outer(cref) => self.outer.and_then(|o| o.lookup(cref)).is_some(),
            CExpr::Cast(p) => self.cannot_raise(p),
            CExpr::Arith(..) | CExpr::ScalarAgg | CExpr::Star => false,
        }
    }

    /// The restrictions a selection makes for its own input: one per
    /// `column = c` conjunct whose `c` is an `Int` literal or bound outer
    /// value below 2^53 in magnitude.
    fn equality_restrictions(&self, p: &CPred, out: &mut Vec<Restriction>) {
        match p {
            CPred::And(a, b) => {
                self.equality_restrictions(a, out);
                self.equality_restrictions(b, out);
            }
            CPred::Cmp(CExpr::Col(col), CmpOp::Eq, c)
            | CPred::Cmp(c, CmpOp::Eq, CExpr::Col(col)) => {
                if let Some(c) = self.exact_int(c) {
                    let keys = Column::splat(&Value::Int(c), 1);
                    out.push(Restriction { col: *col, keys, eq: KeyEq::Compare });
                }
            }
            _ => {}
        }
    }

    /// `e`'s value if it is an `Int` literal or bound outer value that
    /// `f64` holds exactly, and no other integer rounds to: `Value::compare`
    /// calls it equal to that one integer only.
    fn exact_int(&self, e: &CExpr) -> Option<i64> {
        let v = match e {
            CExpr::Value(v) => v,
            CExpr::Outer(cref) => self.outer?.lookup(cref)?,
            _ => return None,
        };
        match v {
            Value::Int(c) if c.unsigned_abs() < 1 << 53 => Some(*c),
            _ => None,
        }
    }
}

/// A superset pre-filter on one output column of a plan node: keep the
/// rows whose column `col` equals one of the non-`NULL` slots of `keys`,
/// plus every row where it is `NULL`.  The operator that made it still
/// applies its own full test to what comes back.
#[derive(Debug, Clone)]
struct Restriction {
    col: usize,
    keys: Column,
    eq: KeyEq,
}

impl Restriction {
    /// The same restriction on column `col` of the input.
    fn on(&self, col: usize) -> Restriction {
        Restriction { col, ..self.clone() }
    }
}

/// The equality of the operator that made a restriction.  A key index
/// answers for it only on a landing column where the two agree.
#[derive(Debug, Clone, Copy)]
enum KeyEq {
    /// A hash join's: the index's own, on every column.
    Join,
    /// `IN`'s `sql_eq`, probed with `Int`, `Str` or `Bool` values only: on
    /// `Int`, `Str` and `Bool` columns.
    Sql,
    /// `=`'s `Value::compare` (through `f64`), against an `Int` below 2^53
    /// in magnitude: on `Int` columns.
    Compare,
}

impl KeyEq {
    fn answers_for(self, col: &Column) -> bool {
        match self {
            KeyEq::Join => true,
            KeyEq::Sql => {
                matches!(col.data(), ColumnData::Int(_) | ColumnData::Str(_) | ColumnData::Bool(_))
            }
            KeyEq::Compare => matches!(col.data(), ColumnData::Int(_)),
        }
    }
}

/// The restrictions an uncorrelated `IN` hands its subquery: one per probe
/// column whose probes are all non-`NULL` `Int`, `Str` or `Bool` values,
/// the values on which `sql_eq` and the key index agree (so the probes
/// pass the same type test as a landing column).  A `NULL` probe leaves
/// every row of its column relevant.
fn in_restrictions(lhs: &[VCol]) -> Vec<Restriction> {
    lhs.iter()
        .enumerate()
        .filter_map(|(col, probes)| {
            let keys = match probes {
                VCol::Const(v) => Column::splat(v, 1),
                VCol::Col(c) => c.clone(),
            };
            let no_null = keys.validity().is_none_or(|b| b.count_valid() == b.len());
            (KeyEq::Sql.answers_for(&keys) && no_null).then_some(Restriction {
                col,
                keys,
                eq: KeyEq::Sql,
            })
        })
        .collect()
}

/// The rows of `table` that every restriction answerable from its key
/// indexes keeps, ascending, or `None` if none is.  A restriction is
/// answered when its equality agrees with the index on its column and it
/// has fewer keys than the column has distinct keys (rows are compared
/// first, so a restriction that cannot pass builds no index).
fn key_rows(table: &ColumnTable, restrictions: &[Restriction]) -> Option<Vec<u32>> {
    let mut kept: Option<Vec<u32>> = None;
    for r in restrictions.iter().filter(|r| r.col < table.arity()) {
        let col = table.col(r.col);
        let n = r.keys.len();
        if !r.eq.answers_for(col) || n >= col.len() || n >= col.key_index().distinct_keys() {
            continue;
        }
        let mut rows = col.key_index().nulls().to_vec();
        for j in 0..n {
            for group in col.rows_matching(&r.keys, j) {
                rows.extend_from_slice(group);
            }
        }
        rows.sort_unstable();
        rows.dedup();
        kept = Some(match kept {
            Some(mut prev) => {
                prev.retain(|x| rows.binary_search(x).is_ok());
                prev
            }
            None => rows,
        });
    }
    kept
}

/// Evaluates a row-level program on each group's first row, as one batch
/// gathered from `batch`; an empty group gets `empty`.
fn on_first_rows<T: Clone>(
    batch: &ColumnTable,
    groups: &Groups,
    empty: T,
    eval: impl FnOnce(&ColumnTable) -> Result<Vec<T>>,
) -> Result<Vec<T>> {
    let firsts: Vec<u32> = groups.iter().filter_map(|g| g.first().copied()).collect();
    let mut values =
        if firsts.is_empty() { Vec::new() } else { eval(&batch.gather(&firsts))? }.into_iter();
    Ok(groups
        .iter()
        .map(|g| match g.first() {
            Some(_) => values.next().expect("one value per first row"),
            None => empty.clone(),
        })
        .collect())
}

/// `x IN (v1, ..., vn)` over a literal list.
fn in_list(x: &Value, vs: &[Value]) -> Truth {
    vs.iter().fold(Truth::False, |truth, candidate| truth.or(x.sql_eq(candidate)))
}

/// The rows of an `IN` subquery, hashed for membership probes.
///
/// A probe answers exactly what the oracle's `in_membership` computes: the
/// `OR` over rows of the `AND` over columns of `sql_eq`.  Values that
/// `sql_eq` calls equal hash alike (`Int(0)`, `Float(0.0)` and
/// `Float(-0.0)`; every NaN), so rows hash by their columns' words.  The
/// rows stay in their columns: the table holds row numbers, and
/// candidates are read back slot by slot.
struct InSet {
    rows: ColumnTable,
    /// The rows without a `NULL`, by key hash.
    table: HashTable,
    /// Rows holding a `NULL`: they never match, but may leave `Unknown`.
    with_null: Vec<u32>,
}

impl InSet {
    fn new(rows: ColumnTable) -> InSet {
        let has_null = |r: usize| rows.cols().iter().any(|c| c.is_null(r));
        let hashes = hash_rows(&rows.cols().iter().collect::<Vec<_>>(), rows.len());
        let table = HashTable::build(hashes, has_null);
        let with_null = (0..rows.len()).filter(|&r| has_null(r)).map(|r| r as u32).collect();
        InSet { rows, table, with_null }
    }

    /// Whether row `i` of `lhs` is a member.
    fn probe(&self, lhs: &[VCol], i: usize) -> Result<Truth> {
        if lhs.len() != self.rows.arity() {
            return Err(Error::eval(format!(
                "IN subquery arity mismatch: {} vs {}",
                self.rows.arity(),
                lhs.len()
            )));
        }
        // A row matches only if every pair is `sql_eq`-true; a row that no
        // pair refutes leaves the answer `Unknown` at best.
        let unrefuted = |r: u32| {
            lhs.iter()
                .zip(self.rows.cols())
                .all(|(l, c)| l.value(i).sql_eq(&c.value(r as usize)) != Truth::False)
        };
        let unknown_if = |any: bool| if any { Truth::Unknown } else { Truth::False };
        if lhs.iter().any(|l| l.value(i).is_null()) {
            return Ok(unknown_if((0..self.rows.len() as u32).any(unrefuted)));
        }
        if self.table.matches(value_hash(lhs.iter().map(|l| l.value(i)))).any(unrefuted) {
            return Ok(Truth::True);
        }
        Ok(unknown_if(self.with_null.iter().any(|&r| unrefuted(r))))
    }
}

/// Hashes a key as [`hash_rows`] hashes a row holding it.
fn value_hash(key: impl Iterator<Item = Value>) -> u64 {
    let mut h = KeyHasher::new();
    for v in key {
        v.hash(&mut h);
    }
    h.finish()
}

/// Rows partitioned into groups: group `g`'s members are
/// `rows[offsets[g]..offsets[g + 1]]`, in ascending row order.
struct Groups {
    rows: Vec<u32>,
    offsets: Vec<u32>,
}

impl Groups {
    /// Groups rows `0..len` by key, numbered in first-seen order.  A row
    /// joins the first group whose first row hashes alike and is strictly
    /// equal on every key column (`NULL` equal to `NULL`).
    fn by_key(keys: &[Column], len: usize) -> Groups {
        let key_refs: Vec<&Column> = keys.iter().collect();
        let classes = first_seen(&hash_rows(&key_refs, len), |i, j| {
            keys.iter().all(|k| k.strict_eq_at(i, k, j))
        });
        let (rows, offsets) = counting_sort(&classes.class_of, classes.firsts.len());
        Groups { rows, offsets }
    }

    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    fn members(&self, g: usize) -> &[u32] {
        &self.rows[self.offsets[g] as usize..self.offsets[g + 1] as usize]
    }

    fn iter(&self) -> impl Iterator<Item = &[u32]> {
        (0..self.len()).map(|g| self.members(g))
    }

    /// The groups `keep` accepts, in order.
    fn retain(&self, keep: impl Fn(usize) -> bool) -> Groups {
        let mut out = Groups { rows: Vec::new(), offsets: vec![0] };
        for g in (0..self.len()).filter(|&g| keep(g)) {
            out.rows.extend_from_slice(self.members(g));
            out.offsets.push(out.rows.len() as u32);
        }
        out
    }
}

// ------------------------------------------------------------ flat kernels

/// Comparison kernel.  The integer fast path replays
/// [`Value::compare`]'s numeric semantics exactly (comparison through
/// `f64`); everything else goes value-at-a-time through `Value::compare`
/// itself — still batched, never re-resolving columns.
fn cmp_vec(a: &VCol, op: CmpOp, b: &VCol, len: usize) -> Vec<Truth> {
    if let (VCol::Const(x), VCol::Const(y)) = (a, b) {
        return vec![x.compare(op, y); len];
    }
    if let (Some(ia), Some(ib)) = (IntView::of(a), IntView::of(b)) {
        return (0..len)
            .map(|i| match (ia.get(i), ib.get(i)) {
                (Some(x), Some(y)) => {
                    // `Value::compare` compares numerics as f64.
                    let (x, y) = (x as f64, y as f64);
                    let ord = match x.partial_cmp(&y) {
                        Some(o) => o,
                        None => return Truth::Unknown,
                    };
                    Truth::from_bool(match op {
                        CmpOp::Eq => ord == std::cmp::Ordering::Equal,
                        CmpOp::Ne => ord != std::cmp::Ordering::Equal,
                        CmpOp::Lt => ord == std::cmp::Ordering::Less,
                        CmpOp::Le => ord != std::cmp::Ordering::Greater,
                        CmpOp::Gt => ord == std::cmp::Ordering::Greater,
                        CmpOp::Ge => ord != std::cmp::Ordering::Less,
                    })
                }
                _ => Truth::Unknown,
            })
            .collect();
    }
    (0..len).map(|i| a.value(i).compare(op, &b.value(i))).collect()
}

/// Arithmetic kernel with an integer fast path (wrapping, `NULL` on zero
/// division — exactly [`Value::arith`]).
fn arith_vec(a: &VCol, op: BinArith, b: &VCol, len: usize) -> Result<VCol> {
    if let (VCol::Const(x), VCol::Const(y)) = (a, b) {
        return Ok(VCol::Const(x.arith(op, y)?));
    }
    if let (Some(ia), Some(ib)) = (IntView::of(a), IntView::of(b)) {
        let mut data = Vec::with_capacity(len);
        let mut validity = Bitmap::all_invalid(len);
        for i in 0..len {
            match (ia.get(i), ib.get(i)) {
                (Some(x), Some(y)) => {
                    let out = match op {
                        BinArith::Add => Some(x.wrapping_add(y)),
                        BinArith::Sub => Some(x.wrapping_sub(y)),
                        BinArith::Mul => Some(x.wrapping_mul(y)),
                        BinArith::Div => (y != 0).then(|| x.wrapping_div(y)),
                        BinArith::Mod => (y != 0).then(|| x.wrapping_rem(y)),
                    };
                    match out {
                        Some(v) => {
                            data.push(v);
                            validity.set(i);
                        }
                        None => data.push(0),
                    }
                }
                _ => data.push(0),
            }
        }
        return Ok(VCol::Col(Column::from_parts(ColumnData::Int(data), Some(validity))));
    }
    let mut out = Vec::with_capacity(len);
    for i in 0..len {
        out.push(a.value(i).arith(op, &b.value(i))?);
    }
    Ok(VCol::Col(Column::from_values(out)))
}

/// Aggregate fold over one group's member slots, with typed fast paths for
/// `Int` and `Float` columns that replay [`AggKind::fold`] bit-for-bit
/// (`NULL` skipping, wrapping integer sums, f64 accumulation order,
/// first-seen tie-breaks through [`Value::total_cmp`]).
fn fold_members(kind: AggKind, col: &Column, members: &[u32]) -> Value {
    match col.data() {
        ColumnData::Int(xs) => {
            let validity = col.validity();
            let mut count: i64 = 0;
            let mut isum: i64 = 0;
            let mut fsum: f64 = 0.0;
            let mut min: Option<i64> = None;
            let mut max: Option<i64> = None;
            for &m in members {
                let i = m as usize;
                if validity.is_some_and(|b| !b.get(i)) {
                    continue;
                }
                let x = xs[i];
                count += 1;
                isum = isum.wrapping_add(x);
                fsum += x as f64;
                min = Some(match min {
                    None => x,
                    // `fold` replaces through total_cmp, i.e. f64 order.
                    Some(m) if ((x as f64) < (m as f64)) => x,
                    Some(m) => m,
                });
                max = Some(match max {
                    None => x,
                    Some(m) if ((x as f64) > (m as f64)) => x,
                    Some(m) => m,
                });
            }
            match kind {
                AggKind::Count => Value::Int(count),
                AggKind::Sum => {
                    if count == 0 {
                        Value::Null
                    } else {
                        Value::Int(isum)
                    }
                }
                AggKind::Avg => {
                    if count == 0 {
                        Value::Null
                    } else {
                        Value::Float(fsum / count as f64)
                    }
                }
                AggKind::Min => min.map(Value::Int).unwrap_or(Value::Null),
                AggKind::Max => max.map(Value::Int).unwrap_or(Value::Null),
            }
        }
        ColumnData::Float(xs) => {
            let validity = col.validity();
            let mut count: i64 = 0;
            let mut fsum: f64 = 0.0;
            let mut min: Option<f64> = None;
            let mut max: Option<f64> = None;
            for &m in members {
                let i = m as usize;
                if validity.is_some_and(|b| !b.get(i)) {
                    continue;
                }
                let x = xs[i];
                count += 1;
                fsum += x;
                // `fold` replaces through `total_cmp`, which ranks NaN
                // above every number.
                min = Some(match min {
                    Some(m) if x.is_nan() || (!m.is_nan() && m <= x) => m,
                    _ => x,
                });
                max = Some(match max {
                    Some(m) if m.is_nan() || (!x.is_nan() && x <= m) => m,
                    _ => x,
                });
            }
            match kind {
                AggKind::Count => Value::Int(count),
                AggKind::Sum => {
                    if count == 0 {
                        Value::Null
                    } else {
                        Value::Float(fsum)
                    }
                }
                AggKind::Avg => {
                    if count == 0 {
                        Value::Null
                    } else {
                        Value::Float(fsum / count as f64)
                    }
                }
                AggKind::Min => min.map(Value::Float).unwrap_or(Value::Null),
                AggKind::Max => max.map(Value::Float).unwrap_or(Value::Null),
            }
        }
        _ => {
            let values: Vec<Value> = members.iter().map(|&m| col.value(m as usize)).collect();
            kind.fold(values.iter())
        }
    }
}

/// Each group's number of distinct rows over every column of `batch`,
/// `NULL` equal to `NULL`: the oracle's `COUNT(DISTINCT *)`.
fn count_distinct_rows(batch: &ColumnTable, groups: &Groups) -> Vec<Value> {
    let members: Vec<(u32, u32)> = groups
        .iter()
        .enumerate()
        .flat_map(|(g, rows)| rows.iter().map(move |&m| (g as u32, m)))
        .collect();
    let cols = batch.cols();
    let hashes: Vec<u64> = members
        .iter()
        .map(|&(g, m)| {
            let mut h = KeyHasher::new();
            h.write_u32(g);
            cols.iter().for_each(|c| c.hash_value_into(m as usize, &mut h));
            h.finish()
        })
        .collect();
    let distinct = first_seen(&hashes, |a, b| {
        let ((ga, ma), (gb, mb)) = (members[a], members[b]);
        ga == gb && cols.iter().all(|c| c.strict_eq_at(ma as usize, c, mb as usize))
    });
    let mut counts = vec![0i64; groups.len()];
    for &first in &distinct.firsts {
        counts[members[first as usize].0 as usize] += 1;
    }
    counts.into_iter().map(Value::Int).collect()
}

/// Folds `kind` over each group's distinct non-`NULL` values of `col`, in
/// first-seen order — [`AggKind::fold`] over the oracle's `uniq` list,
/// whose `NULL`s the fold skips anyway.  One table serves every group,
/// keyed by group and value, and each distinct value stays in `col` as
/// the member that first held it.  The oracle calls two values duplicates
/// when they are `strict_eq`, and such values hash alike.
fn fold_distinct(kind: AggKind, col: &Column, groups: &Groups) -> Vec<Value> {
    // Every non-NULL member with its group, in group order.
    let members: Vec<(u32, u32)> = groups
        .iter()
        .enumerate()
        .flat_map(|(g, rows)| rows.iter().map(move |&m| (g as u32, m)))
        .filter(|&(_, m)| !col.is_null(m as usize))
        .collect();
    let hashes: Vec<u64> = members
        .iter()
        .map(|&(g, m)| {
            let mut h = KeyHasher::new();
            h.write_u32(g);
            col.hash_value_into(m as usize, &mut h);
            h.finish()
        })
        .collect();
    let distinct = first_seen(&hashes, |a, b| {
        let ((ga, ma), (gb, mb)) = (members[a], members[b]);
        ga == gb && col.strict_eq_at(ma as usize, col, mb as usize)
    });
    // The first members ascend, so each group's distinct values are one run.
    let mut firsts = distinct.firsts.iter().map(|&i| members[i as usize]).peekable();
    (0..groups.len() as u32)
        .map(|g| {
            let mut rows = Vec::new();
            while let Some((_, m)) = firsts.next_if(|&(h, _)| h == g) {
                rows.push(m);
            }
            fold_members(kind, col, &rows)
        })
        .collect()
}

/// The pairs of an equi-join whose keys are strictly equal (`NULL` keys
/// never match), left-major with right rows ascending, and the runs of
/// each left row: row `l`'s pairs are `offsets[l]..offsets[l + 1]`.
///
/// The table is built on the smaller input.  Built on the right, the left
/// rows probe in order.  Built on the left, the right rows probe in order
/// and the verified pairs are counting-sorted by left row, which keeps
/// the right rows of each ascending.
fn equi_candidates(
    left: &ColumnTable,
    right: &ColumnTable,
    pairs: &[(usize, usize)],
) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let lkeys: Vec<&Column> = pairs.iter().map(|&(l, _)| left.col(l)).collect();
    let rkeys: Vec<&Column> = pairs.iter().map(|&(_, r)| right.col(r)).collect();
    let has_null = |keys: &[&Column], i: usize| keys.iter().any(|k| k.is_null(i));
    let equal =
        |l: usize, r: usize| lkeys.iter().zip(&rkeys).all(|(lk, rk)| lk.strict_eq_at(l, rk, r));
    if left.len() < right.len() {
        let table = HashTable::build_on_keys(&lkeys, left.len());
        let (mut by_right_l, mut by_right_r) = (Vec::new(), Vec::new());
        for (r, h) in hash_rows(&rkeys, right.len()).into_iter().enumerate() {
            if has_null(&rkeys, r) {
                continue;
            }
            for l in table.matches(h).filter(|&l| equal(l as usize, r)) {
                by_right_l.push(l);
                by_right_r.push(r as u32);
            }
        }
        let (order, offsets) = counting_sort(&by_right_l, left.len());
        let cand_left = order.iter().map(|&c| by_right_l[c as usize]).collect();
        let cand_right = order.iter().map(|&c| by_right_r[c as usize]).collect();
        (cand_left, cand_right, offsets)
    } else {
        let table = HashTable::build_on_keys(&rkeys, right.len());
        let (mut cand_left, mut cand_right) = (Vec::new(), Vec::new());
        let mut offsets = Vec::with_capacity(left.len() + 1);
        offsets.push(0);
        for (l, h) in hash_rows(&lkeys, left.len()).into_iter().enumerate() {
            if !has_null(&lkeys, l) {
                for r in table.matches(h).filter(|&r| equal(l, r as usize)) {
                    cand_left.push(l as u32);
                    cand_right.push(r);
                }
            }
            offsets.push(cand_left.len() as u32);
        }
        (cand_left, cand_right, offsets)
    }
}

/// Gathers `left` rows and `right` rows side by side into one table
/// (`NULL_IDX` entries null-extend), under the operator's output layout.
fn combine_gather(
    left: &ColumnTable,
    left_idx: &[u32],
    right: &ColumnTable,
    right_idx: &[u32],
    out_columns: &Arc<Vec<String>>,
) -> ColumnTable {
    debug_assert_eq!(left_idx.len(), right_idx.len());
    let mut cols = Vec::with_capacity(left.arity() + right.arity());
    for c in left.cols() {
        cols.push(c.gather_opt(left_idx));
    }
    for c in right.cols() {
        cols.push(c.gather_opt(right_idx));
    }
    ColumnTable::from_columns(Arc::clone(out_columns), cols, left_idx.len())
}

/// First-seen-order distinct row selection through the hash kernel, with
/// strict equality verification — the columnar dual of [`Table::dedup`].
fn distinct_indices(cols: &[Column], len: usize) -> Vec<u32> {
    let col_refs: Vec<&Column> = cols.iter().collect();
    first_seen(&hash_rows(&col_refs, len), |i, j| cols.iter().all(|c| c.strict_eq_at(i, c, j)))
        .firsts
}

/// Stable index sort replaying the oracle's `ORDER BY` comparator
/// (positional keys, total value order, ascending flags).
fn order_by(input: &ColumnTable, keys: &[(usize, bool)]) -> ColumnTable {
    let mut idx: Vec<u32> = (0..input.len() as u32).collect();
    idx.sort_by(|&a, &b| {
        for &(k, asc) in keys {
            let col = input.col(k);
            let ord = col.value(a as usize).total_cmp(&col.value(b as usize));
            let ord = if asc { ord } else { ord.reverse() };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    input.gather(&idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{SelectItem, SqlExpr, SqlPred};
    use crate::eval_query_unoptimized;
    use crate::parser::parse_query;

    fn v(i: i64) -> Value {
        Value::Int(i)
    }

    fn s(x: &str) -> Value {
        Value::str(x)
    }

    fn f(x: f64) -> Value {
        Value::Float(x)
    }

    fn instance() -> RelInstance {
        let mut inst = RelInstance::new();
        inst.insert_table(
            "emp",
            Table::with_rows(
                ["id", "name", "dept"],
                vec![
                    vec![v(1), s("A"), v(1)],
                    vec![v(2), s("B"), v(1)],
                    vec![v(3), s("C"), v(2)],
                    vec![v(4), Value::Null, Value::Null],
                ],
            ),
        );
        inst.insert_table(
            "dept",
            Table::with_rows(
                ["dnum", "dname"],
                vec![vec![v(1), s("CS")], vec![v(2), s("EE")], vec![v(3), s("ME")]],
            ),
        );
        inst.insert_table("none", Table::new(vec!["x".to_string()]));
        // Keys that `sql_eq` calls equal but whose bits differ: `Int(0)`,
        // `0.0`, `-0.0`, and two NaNs.
        let nan_a = f64::from_bits(0x7ff8_0000_0000_0001);
        let nan_b = f64::from_bits(0xfff8_0000_0000_0002);
        let rows =
            |vals: Vec<Value>| -> Vec<Vec<Value>> { vals.into_iter().map(|x| vec![x]).collect() };
        inst.insert_table(
            "fa",
            Table::with_rows(["x"], rows(vec![v(0), f(-0.0), f(nan_a), f(1.5), Value::Null])),
        );
        inst.insert_table("fb", Table::with_rows(["y"], rows(vec![f(0.0), f(nan_b), Value::Null])));
        inst.insert_table("fc", Table::with_rows(["y"], rows(vec![f(-0.0), f(nan_b)])));
        inst
    }

    /// Asserts that the executor and the naive oracle agree on `q`: the
    /// same rows in the same order, or an error from both.  The executor
    /// runs both one-shot and from a precompiled plan over a columnar
    /// image.  Returns the rows when both succeed.
    fn check_query(q: &SqlQuery, label: &str) -> Option<Table> {
        let inst = instance();
        let oracle = eval_query_unoptimized(&inst, q);
        let one_shot = eval_query(&inst, q);
        let planned = compile_query(&inst, q)
            .and_then(|plan| eval_vectorized(&inst, &ColumnInstance::from_rel(&inst), &plan));
        match (oracle, one_shot, planned) {
            (Ok(want), Ok(got), Ok(planned)) => {
                assert_eq!(want, got, "executor differs from the oracle on `{label}`");
                assert_eq!(want, planned, "planned run differs from the oracle on `{label}`");
                Some(want)
            }
            (Err(_), Err(_), Err(_)) => None,
            (want, got, planned) => {
                panic!("`{label}`: oracle={want:?} one-shot={got:?} planned={planned:?}")
            }
        }
    }

    fn check(sql: &str) -> Option<Table> {
        check_query(&parse_query(sql).unwrap(), sql)
    }

    /// Row count of a query both paths must answer.
    fn rows(sql: &str) -> usize {
        check(sql).unwrap_or_else(|| panic!("`{sql}` failed")).len()
    }

    #[test]
    fn scans_selections_projections() {
        check("SELECT e.id, e.name FROM emp AS e");
        check("SELECT e.name FROM emp AS e WHERE e.id > 1");
        check("SELECT e.id + 10 AS shifted FROM emp AS e WHERE e.id % 2 = 1");
        check("SELECT DISTINCT e.dept FROM emp AS e");
        check("SELECT e.name FROM emp AS e WHERE e.name IS NULL");
        check("SELECT e.id FROM emp AS e WHERE e.dept IN (1, 3)");
        check("SELECT e.id FROM emp AS e WHERE NOT (e.id = 2 OR e.id = 3)");
    }

    #[test]
    fn joins_match_the_oracle() {
        check("SELECT e.name, d.dname FROM emp AS e JOIN dept AS d ON e.dept = d.dnum");
        check("SELECT e.name, d.dname FROM emp AS e LEFT JOIN dept AS d ON e.dept = d.dnum");
        check(
            "SELECT e.name, d.dname FROM emp AS e JOIN dept AS d ON e.dept = d.dnum AND e.id > 1",
        );
        check("SELECT e.name, d.dname FROM emp AS e, dept AS d");
        check("SELECT e.name, d.dname FROM emp AS e RIGHT JOIN dept AS d ON e.dept = d.dnum");
        check("SELECT e.name, d.dname FROM emp AS e FULL JOIN dept AS d ON e.dept = d.dnum");
        check("SELECT e.name, d.dname FROM emp AS e JOIN dept AS d ON e.id < d.dnum");
        check("SELECT e.name, d.dname FROM emp AS e, dept AS d WHERE e.dept = d.dnum");
    }

    #[test]
    fn grouping_and_having() {
        check("SELECT e.dept, Count(*) AS c FROM emp AS e GROUP BY e.dept");
        check(
            "SELECT e.dept, Sum(e.id) AS total FROM emp AS e GROUP BY e.dept HAVING Count(*) > 1",
        );
        check("SELECT Count(*) AS c FROM emp AS e WHERE e.id > 100");
        check("SELECT Avg(e.id) AS a, Min(e.name) AS lo, Max(e.name) AS hi FROM emp AS e");
        check("SELECT Count(e.name) AS c FROM emp AS e");
        check("SELECT e.dept, Count(DISTINCT e.name) AS c FROM emp AS e GROUP BY e.dept");
    }

    #[test]
    fn set_operations_and_ordering() {
        check("SELECT e.id FROM emp AS e UNION SELECT d.dnum FROM dept AS d");
        check("SELECT e.id FROM emp AS e UNION ALL SELECT d.dnum FROM dept AS d");
        check("SELECT e.id, e.name FROM emp AS e ORDER BY e.id DESC");
        check("SELECT e.dept, e.id FROM emp AS e ORDER BY e.dept, e.id DESC");
        check("WITH big AS (SELECT e.id AS i FROM emp AS e WHERE e.id > 1) SELECT big.i FROM big");
    }

    #[test]
    fn null_semantics_survive_vectorization() {
        check("SELECT e.id FROM emp AS e WHERE e.dept = 1");
        check("SELECT e.id FROM emp AS e WHERE e.dept <> 1");
        check("SELECT e.id, e.dept + 1 AS d2 FROM emp AS e");
        check("SELECT e.id FROM emp AS e WHERE e.id / 0 = 1");
        check("SELECT Sum(e.dept) AS s FROM emp AS e");
    }

    #[test]
    fn empty_inputs_do_not_trip_deferred_errors() {
        // `Count(*)` over an empty filter result still yields one row, and
        // deferred-error programs must stay silent on zero rows.
        check("SELECT Count(*) AS c FROM emp AS e WHERE e.id > 1000");
        check("SELECT e.id FROM emp AS e WHERE e.id > 1000 ORDER BY e.id");
    }

    #[test]
    fn in_and_not_in_follow_three_valued_logic() {
        // Uncorrelated, NULL on the left (emp 4's dept) and on the right.
        assert_eq!(
            rows("SELECT e.id FROM emp AS e WHERE e.dept IN (SELECT d.dnum FROM dept AS d WHERE d.dname = 'CS')"),
            2
        );
        assert_eq!(
            rows("SELECT e.id FROM emp AS e WHERE e.dept NOT IN (SELECT d.dnum FROM dept AS d WHERE d.dnum > 1)"),
            2
        );
        assert_eq!(
            rows("SELECT e.id FROM emp AS e WHERE e.id IN (SELECT e2.dept FROM emp AS e2)"),
            2
        );
        assert_eq!(
            rows("SELECT e.id FROM emp AS e WHERE e.id NOT IN (SELECT e2.dept FROM emp AS e2)"),
            0
        );
        check("SELECT e.id FROM emp AS e WHERE NOT (e.dept IN (SELECT e2.dept FROM emp AS e2 WHERE e2.id > 2))");
        // Correlated IN.
        check("SELECT e.id FROM emp AS e WHERE e.id IN (SELECT e2.id FROM emp AS e2 WHERE e2.dept = e.dept)");
        // Arity mismatch: both fail.
        assert!(check(
            "SELECT e.id FROM emp AS e WHERE e.id IN (SELECT d.dnum, d.dname FROM dept AS d)"
        )
        .is_none());
    }

    #[test]
    fn tuple_in_matches_the_oracle() {
        let tuple_in = |sub: &str| {
            SqlQuery::table("emp")
                .rename("e")
                .select(SqlPred::InQuery(
                    vec![SqlExpr::col("e", "id"), SqlExpr::col("e", "dept")],
                    Box::new(parse_query(sub).unwrap()),
                ))
                .project(vec![SelectItem::expr(SqlExpr::col("e", "id"))])
        };
        let cases = [
            "SELECT e2.id, e2.dept FROM emp AS e2 WHERE e2.id < 3",
            // NULLs on both sides: emp 4 is (4, NULL).
            "SELECT e2.id, e2.dept FROM emp AS e2",
            "SELECT e2.id, e2.dept FROM emp AS e2 WHERE e2.id > 3",
            "SELECT d.dnum, d.dnum FROM dept AS d",
            "SELECT n.x, n.x FROM none AS n",
        ];
        for sub in cases {
            check_query(&tuple_in(sub), sub).unwrap_or_else(|| panic!("`{sub}` failed"));
        }
        let negated = |sub: &str| match tuple_in(sub) {
            SqlQuery::Project { input, items, distinct } => match *input {
                SqlQuery::Select { input, pred } => SqlQuery::Project {
                    input: Box::new(input.select(SqlPred::not(pred))),
                    items,
                    distinct,
                },
                other => panic!("unexpected shape {other:?}"),
            },
            other => panic!("unexpected shape {other:?}"),
        };
        for sub in cases {
            check_query(&negated(sub), sub).unwrap_or_else(|| panic!("`NOT {sub}` failed"));
        }
    }

    #[test]
    fn exists_correlated_one_and_two_levels_deep() {
        assert_eq!(
            rows("SELECT e.name FROM emp AS e WHERE EXISTS (SELECT d.dnum FROM dept AS d WHERE d.dnum = e.dept)"),
            3
        );
        assert_eq!(
            rows("SELECT e.name FROM emp AS e WHERE NOT EXISTS (SELECT d.dnum FROM dept AS d WHERE d.dnum = e.dept)"),
            1
        );
        // Two levels: the innermost subquery reads both enclosing rows.
        assert_eq!(
            rows(
                "SELECT d.dname FROM dept AS d WHERE EXISTS (SELECT e.id FROM emp AS e \
                 WHERE e.dept = d.dnum AND EXISTS (SELECT c.y FROM fc AS c WHERE e.id > d.dnum))"
            ),
            2
        );
        // `e.id` resolves by suffix to the innermost `e2.id`, as in the
        // oracle's column resolution.
        check(
            "SELECT d.dname FROM dept AS d WHERE EXISTS (SELECT e.id FROM emp AS e \
             WHERE e.dept = d.dnum AND EXISTS (SELECT e2.id FROM emp AS e2 \
             WHERE e2.id > e.id AND e2.dept = d.dnum))",
        );
        check(
            "SELECT d.dname FROM dept AS d WHERE NOT EXISTS (SELECT e.id FROM emp AS e \
             WHERE NOT EXISTS (SELECT x.dnum FROM dept AS x WHERE x.dnum = d.dnum AND e.dept = x.dnum))",
        );
        // An uncorrelated EXISTS, and one nested inside a correlated one.
        check(
            "SELECT d.dname FROM dept AS d WHERE EXISTS (SELECT e.id FROM emp AS e WHERE e.id > 3)",
        );
        check(
            "SELECT d.dname FROM dept AS d WHERE EXISTS (SELECT e.id FROM emp AS e \
             WHERE e.dept = d.dnum AND EXISTS (SELECT x.dnum FROM dept AS x WHERE x.dname = 'CS'))",
        );
        // Errors inside a subquery surface only when it runs.
        assert!(check("SELECT d.dname FROM dept AS d WHERE EXISTS (SELECT e.id FROM emp AS e WHERE e.id = d.nope)").is_none());
        assert!(check("SELECT d.dname FROM dept AS d WHERE EXISTS (SELECT m.a FROM missing AS m)")
            .is_none());
        assert_eq!(
            rows("SELECT n.x FROM none AS n WHERE EXISTS (SELECT m.a FROM missing AS m)"),
            0
        );
    }

    #[test]
    fn subqueries_in_every_position() {
        // Under OR and NOT.
        check("SELECT e.id FROM emp AS e WHERE e.id = 1 OR e.dept IN (SELECT d.dnum FROM dept AS d WHERE d.dname = 'EE')");
        check("SELECT e.id FROM emp AS e WHERE NOT EXISTS (SELECT d.dnum FROM dept AS d WHERE d.dnum = e.dept) OR e.id > 3");
        // In HAVING, uncorrelated and correlated with the group's first row.
        check(
            "SELECT e.dept, Count(*) AS c FROM emp AS e GROUP BY e.dept \
             HAVING e.dept IN (SELECT d.dnum FROM dept AS d WHERE d.dnum < 2)",
        );
        check(
            "SELECT e.dept, Count(*) AS c FROM emp AS e GROUP BY e.dept \
             HAVING Count(*) > 0 AND EXISTS (SELECT d.dnum FROM dept AS d WHERE d.dnum = e.dept)",
        );
        // The one group of an aggregate over no rows has no first row.
        let mut q = parse_query("SELECT Count(*) AS c FROM none AS n").unwrap();
        let SqlQuery::GroupBy { having, .. } = &mut q else { panic!("expected GroupBy: {q:?}") };
        *having =
            parse_query("SELECT d.dnum FROM dept AS d WHERE EXISTS (SELECT x.dnum FROM dept AS x)")
                .map(|sub| match sub {
                    SqlQuery::Project { input, .. } => match *input {
                        SqlQuery::Select { pred, .. } => pred,
                        other => panic!("unexpected shape {other:?}"),
                    },
                    other => panic!("unexpected shape {other:?}"),
                })
                .unwrap();
        check_query(&q, "HAVING EXISTS over no rows");
        // In a JOIN … ON, inner and outer.
        check(
            "SELECT e.id, d.dname FROM emp AS e JOIN dept AS d ON e.dept = d.dnum \
             AND EXISTS (SELECT e2.id FROM emp AS e2 WHERE e2.dept = d.dnum AND e2.id > e.id)",
        );
        check(
            "SELECT e.id, d.dname FROM emp AS e LEFT JOIN dept AS d \
             ON d.dnum IN (SELECT e2.dept FROM emp AS e2 WHERE e2.id = e.id)",
        );
        check(
            "SELECT e.id, d.dname FROM emp AS e FULL JOIN dept AS d \
             ON e.dept = d.dnum AND d.dnum IN (SELECT x.dnum FROM dept AS x WHERE x.dnum > 1)",
        );
        // Under Cast, in a projection and inside an aggregate.
        check(
            "SELECT e.id, CASE WHEN e.dept IN (SELECT d.dnum FROM dept AS d WHERE d.dname = 'CS') \
             THEN 1 ELSE 0 END AS cs FROM emp AS e",
        );
        check(
            "SELECT d.dnum, CASE WHEN EXISTS (SELECT e.id FROM emp AS e WHERE e.dept = d.dnum) \
             THEN 1 ELSE 0 END AS staffed FROM dept AS d",
        );
        check(
            "SELECT Sum(CASE WHEN e.dept IN (SELECT d.dnum FROM dept AS d) THEN 1 ELSE 0 END) AS n \
             FROM emp AS e",
        );
        // Inside a CTE, reading a CTE, and in a hash join's residual.
        check(
            "WITH staffed AS (SELECT d.dnum AS k FROM dept AS d \
             WHERE EXISTS (SELECT e.id FROM emp AS e WHERE e.dept = d.dnum)) SELECT staffed.k FROM staffed",
        );
        check(
            "WITH cs AS (SELECT d.dnum AS k FROM dept AS d WHERE d.dname = 'CS') \
             SELECT e.id FROM emp AS e WHERE e.dept IN (SELECT cs.k FROM cs)",
        );
        check(
            "SELECT e.id FROM emp AS e JOIN dept AS d ON e.dept = d.dnum \
             AND CASE WHEN d.dnum IN (SELECT x.dnum FROM dept AS x WHERE x.dnum = e.id) THEN 1 ELSE 0 END = 1",
        );
    }

    #[test]
    fn empty_outer_and_inner_inputs() {
        assert_eq!(
            rows("SELECT n.x FROM none AS n WHERE n.x IN (SELECT d.dnum FROM dept AS d)"),
            0
        );
        assert_eq!(
            rows("SELECT e.id FROM emp AS e WHERE e.dept IN (SELECT n.x FROM none AS n)"),
            0
        );
        // An empty subquery refutes even a NULL left side.
        assert_eq!(
            rows("SELECT e.id FROM emp AS e WHERE e.dept NOT IN (SELECT n.x FROM none AS n)"),
            4
        );
        assert_eq!(
            rows("SELECT e.id FROM emp AS e WHERE NOT EXISTS (SELECT n.x FROM none AS n)"),
            4
        );
        assert_eq!(
            rows("SELECT e.id FROM emp AS e WHERE EXISTS (SELECT n.x FROM none AS n WHERE n.x = e.id)"),
            0
        );
        check("SELECT Count(*) AS c FROM none AS n WHERE EXISTS (SELECT e.id FROM emp AS e WHERE e.id = n.x)");
    }

    #[test]
    fn zero_and_nan_keys_probe_like_the_oracle() {
        // fa = [0, -0.0, NaN, 1.5, NULL]; fc = [-0.0, NaN]: 0, -0.0 and the
        // NaN whose bits differ are all members.
        assert_eq!(rows("SELECT a.x FROM fa AS a WHERE a.x IN (SELECT c.y FROM fc AS c)"), 3);
        assert_eq!(rows("SELECT a.x FROM fa AS a WHERE a.x NOT IN (SELECT c.y FROM fc AS c)"), 1);
        // fb = [0.0, NaN, NULL]: a NULL member leaves non-members Unknown.
        assert_eq!(rows("SELECT a.x FROM fa AS a WHERE a.x IN (SELECT b.y FROM fb AS b)"), 3);
        assert_eq!(rows("SELECT a.x FROM fa AS a WHERE a.x NOT IN (SELECT b.y FROM fb AS b)"), 0);
        assert_eq!(rows("SELECT b.y FROM fb AS b WHERE b.y IN (SELECT a.x FROM fa AS a)"), 2);
        check("SELECT a.x FROM fa AS a WHERE EXISTS (SELECT c.y FROM fc AS c WHERE c.y = a.x)");
        check("SELECT a.x FROM fa AS a WHERE a.x IN (SELECT c.y FROM fc AS c WHERE c.y = a.x)");
    }

    #[test]
    fn equal_zeros_and_nans_are_one_key_in_both_executors_on_every_run() {
        // `Int(0)`, `0.0` and `-0.0` are equal, and so are NaNs with
        // different bits; the oracle's hash maps used to merge them only
        // when a randomly keyed hash tag matched.
        let nan_a = f64::from_bits(0x7ff8_0000_0000_0001);
        let nan_b = f64::from_bits(0xfff8_0000_0000_0002);
        let mut inst = RelInstance::new();
        inst.insert_table("za", Table::with_rows(["x"], vec![vec![v(0)]]));
        inst.insert_table("zb", Table::with_rows(["y"], vec![vec![f(-0.0)]]));
        let keys = [v(0), f(-0.0), f(0.0), f(nan_a), f(nan_b), v(1)];
        inst.insert_table("zk", Table::with_rows(["k"], keys.map(|k| vec![k])));
        let render = |t: Table| t.rows.iter().map(|r| format!("{r:?}")).collect::<Vec<_>>();
        for (q, want) in [
            ("SELECT a.x FROM za AS a, zb AS b WHERE a.x = b.y", vec!["[Int(0)]"]),
            (
                "SELECT a.x, b.y FROM za AS a JOIN zb AS b ON a.x = b.y",
                vec!["[Int(0), Float(-0.0)]"],
            ),
            (
                "SELECT b.y FROM zb AS b LEFT JOIN za AS a ON b.y = a.x WHERE a.x = 0",
                vec!["[Float(-0.0)]"],
            ),
            (
                "SELECT k.k, Count(*) AS c FROM zk AS k GROUP BY k.k",
                vec!["[Int(0), Int(3)]", "[Float(NaN), Int(2)]", "[Int(1), Int(1)]"],
            ),
            ("SELECT DISTINCT k.k FROM zk AS k", vec!["[Int(0)]", "[Float(NaN)]", "[Int(1)]"]),
            (
                "SELECT k.k FROM zk AS k UNION SELECT a.x FROM za AS a",
                vec!["[Int(0)]", "[Float(NaN)]", "[Int(1)]"],
            ),
        ] {
            let q = parse_query(q).unwrap();
            assert_eq!(render(eval_query(&inst, &q).unwrap()), want, "{q:?}");
            for _ in 0..200 {
                assert_eq!(render(eval_query_unoptimized(&inst, &q).unwrap()), want, "{q:?}");
            }
        }
        // A self-join pairs every member of a class with every other.
        let q = parse_query("SELECT a.k FROM zk AS a JOIN zk AS b ON a.k = b.k").unwrap();
        assert_eq!(eval_query(&inst, &q).unwrap().len(), 3 * 3 + 2 * 2 + 1);
        for _ in 0..200 {
            assert_eq!(eval_query_unoptimized(&inst, &q).unwrap().len(), 3 * 3 + 2 * 2 + 1);
        }
    }

    #[test]
    fn count_distinct_star_counts_distinct_rows() {
        // Rows repeat, `NULL`s included; `Count(DISTINCT *)` counts each
        // once, `NULL` equal to `NULL`, per group and over a whole table.
        let mut inst = RelInstance::new();
        let rows = [
            [v(1), v(1)],
            [v(1), v(1)],
            [v(1), Value::Null],
            [v(2), Value::Null],
            [v(1), Value::Null],
        ];
        inst.insert_table("t", Table::with_rows(["g", "x"], rows.map(|r| r.to_vec())));
        let render = |t: Table| t.rows.iter().map(|r| format!("{r:?}")).collect::<Vec<_>>();
        for (q, want) in [
            ("SELECT Count(DISTINCT *) AS d, Count(*) AS c FROM t AS t", vec!["[Int(3), Int(5)]"]),
            (
                "SELECT t.g, Count(DISTINCT *) AS d FROM t AS t GROUP BY t.g",
                vec!["[Int(1), Int(2)]", "[Int(2), Int(1)]"],
            ),
            ("SELECT Count(DISTINCT *) AS d FROM t AS t WHERE t.g > 5", vec!["[Int(0)]"]),
        ] {
            let q = parse_query(q).unwrap();
            assert_eq!(render(eval_query(&inst, &q).unwrap()), want, "{q:?}");
            assert_eq!(render(eval_query_unoptimized(&inst, &q).unwrap()), want, "{q:?}");
        }
    }

    #[test]
    fn correlated_subqueries_profile_one_stage_per_plan_node() {
        let inst = instance();
        let q = parse_query(
            "SELECT e.name FROM emp AS e WHERE EXISTS (SELECT d.dnum FROM dept AS d WHERE d.dnum = e.dept)",
        )
        .unwrap();
        let plan = compile_query(&inst, &q).unwrap();
        let (table, stages) =
            eval_vectorized_profiled(&inst, &ColumnInstance::from_rel(&inst), &plan).unwrap();
        assert_eq!(table.len(), 3);
        // scan, rename, select, project: the subquery's runs add none.
        assert_eq!(stages.len(), 4, "{stages:?}");
    }

    #[test]
    fn missing_tables_convert_once_per_call() {
        let inst = instance();
        let q = parse_query(
            "SELECT e.id FROM emp AS e WHERE EXISTS (SELECT e2.id FROM emp AS e2 WHERE e2.id = e.id)",
        )
        .unwrap();
        let plan = compile_query(&inst, &q).unwrap();
        let tables = Tables {
            instance: &inst,
            columnar: &ColumnInstance::new(),
            converted: RefCell::default(),
        };
        let out =
            VecEvaluator::new(&tables, None, None).eval(&plan.root, &Ctes::new(), &[]).unwrap();
        assert_eq!(out.len(), 4);
        // Every re-entry shares the one conversion of `emp`.
        let converted = tables.converted.borrow();
        assert_eq!(converted.len(), 1);
        let emp = converted["emp"].col(0).clone();
        drop(converted);
        let again = tables.scan("emp", &Arc::new(vec!["x".into(); 3])).unwrap();
        assert!(std::ptr::eq(emp.data(), again.col(0).data()));
    }

    /// Checks `sql` against the oracle, then runs it profiled over the
    /// columnar image of [`instance`] and counts its `key_scan` stages.
    fn key_scans(sql: &str) -> usize {
        check(sql);
        let inst = instance();
        let plan = compile_query(&inst, &parse_query(sql).unwrap()).unwrap();
        let (_, stages) =
            eval_vectorized_profiled(&inst, &ColumnInstance::from_rel(&inst), &plan).unwrap();
        stages.iter().filter(|s| s.op == "key_scan").count()
    }

    /// `SELECT e.name, t.n FROM emp AS e JOIN <derived> AS t ON e.dept =
    /// t.k WHERE e.id = 1`: one anchored employee joined to `derived`.
    fn anchored(derived: &str) -> String {
        format!(
            "SELECT e.name, t.n FROM emp AS e JOIN ({derived}) AS t ON e.dept = t.k WHERE e.id = 1"
        )
    }

    #[test]
    fn restrictions_descend_through_renames_projections_selects_and_preserved_sides() {
        // The selection reads emp's index, the join dept's.
        assert_eq!(
            key_scans(
                "SELECT e.name, d.dname FROM emp AS e JOIN dept AS d ON e.dept = d.dnum WHERE e.id = 1"
            ),
            2
        );
        // Through a derived table's renames and column-only projection.
        assert_eq!(key_scans(&anchored("SELECT d.dnum AS k, d.dname AS n FROM dept AS d")), 2);
        // Through a selection that cannot raise.
        assert_eq!(
            key_scans(&anchored(
                "SELECT d.dnum AS k, d.dname AS n FROM dept AS d WHERE d.dname <> 'x' OR d.dnum IS NULL"
            )),
            2
        );
        // Into the left input of an inner join whose residual cannot
        // raise; that join then restricts its right input in turn.
        assert_eq!(
            key_scans(&anchored(
                "SELECT d.dnum AS k, x.dname AS n FROM dept AS d JOIN dept AS x \
                 ON d.dnum = x.dnum AND (d.dname = x.dname OR x.dnum = 1)"
            )),
            3
        );
        // Into the preserved side of a LEFT join, which restricts its
        // null-supplying side to the preserved rows' keys.
        assert_eq!(
            key_scans(&anchored(
                "SELECT d.dnum AS k, x.name AS n FROM dept AS d LEFT JOIN emp AS x ON d.dnum = x.dept"
            )),
            3
        );
    }

    #[test]
    fn restrictions_stop_where_an_operator_could_raise_or_change_the_answer() {
        let derived = [
            // Arithmetic in a projection, or in a selection.
            "SELECT d.dnum AS k, d.dnum + 1 AS n FROM dept AS d",
            "SELECT d.dnum AS k, d.dname AS n FROM dept AS d WHERE d.dnum + 1 > 0",
            // A subquery in a selection.
            "SELECT d.dnum AS k, d.dname AS n FROM dept AS d \
             WHERE EXISTS (SELECT x.id FROM emp AS x WHERE x.dept = d.dnum)",
            // A join residual that could raise.
            "SELECT d.dnum AS k, x.dname AS n FROM dept AS d JOIN dept AS x \
             ON d.dnum = x.dnum AND d.dnum * 1 = x.dnum",
            // The null-supplying side of a LEFT join.
            "SELECT x.dnum AS k, d.dname AS n FROM dept AS d LEFT JOIN dept AS x ON d.dnum = x.dnum",
            // A DISTINCT projection.
            "SELECT DISTINCT d.dnum AS k, d.dname AS n FROM dept AS d",
        ];
        for d in derived {
            // Only the anchor's own selection reads an index.
            assert_eq!(key_scans(&anchored(d)), 1, "{d}");
        }
        // A CTE is no base table.
        assert_eq!(
            key_scans(
                "WITH t AS (SELECT d.dnum AS k, d.dname AS n FROM dept AS d) \
                 SELECT e.name, t.n FROM emp AS e JOIN t ON e.dept = t.k WHERE e.id = 1"
            ),
            1
        );
        // A string added to a number fails on both sides, also when the
        // only row an index would keep holds no string (employee 4's name
        // is NULL).
        let fails = |derived: &str| {
            let sql = format!(
                "SELECT e.name, t.n FROM emp AS e JOIN ({derived}) AS t ON e.id = t.k WHERE e.id = 4"
            );
            assert!(check(&sql).is_none(), "{sql}");
        };
        fails("SELECT x.id AS k, x.name + 1 AS n FROM emp AS x");
        fails("SELECT x.id AS k, x.name AS n FROM emp AS x WHERE x.name + 1 IS NULL");
        fails("SELECT x.id AS k, y.name AS n FROM emp AS x JOIN emp AS y ON x.id = y.id AND x.name + 1 IS NULL");
        fails("SELECT x.id AS k, y.n AS n FROM emp AS x JOIN (SELECT z.id AS k, z.name + 1 AS n FROM emp AS z) AS y ON x.id = y.k");
        // Tables missing from the columnar image are converted, never
        // restricted.
        let inst = instance();
        let q = parse_query(&anchored("SELECT d.dnum AS k, d.dname AS n FROM dept AS d")).unwrap();
        let plan = compile_query(&inst, &q).unwrap();
        let (_, stages) = eval_vectorized_profiled(&inst, &ColumnInstance::new(), &plan).unwrap();
        assert!(stages.iter().all(|s| s.op != "key_scan"), "{stages:?}");
    }

    #[test]
    fn joins_restrict_with_one_key_pair_and_fewer_left_rows_than_distinct_keys() {
        // Two key pairs: only the anchor's selection restricts.
        assert_eq!(
            key_scans(
                "SELECT e.name FROM emp AS e JOIN dept AS d ON e.dept = d.dnum AND e.name = d.dname \
                 WHERE e.id = 1"
            ),
            1
        );
        // emp.dept has four rows and two distinct keys: one left row
        // restricts, two do not.
        assert_eq!(
            key_scans(
                "SELECT d.dname, e.name FROM dept AS d JOIN emp AS e ON d.dnum = e.dept WHERE d.dnum = 1"
            ),
            2
        );
        assert_eq!(
            key_scans(
                "SELECT d.dname, e.name FROM dept AS d JOIN emp AS e ON d.dnum = e.dept WHERE d.dnum < 3"
            ),
            0
        );
        // Every left row of a whole-table join: no index is read.
        assert_eq!(
            key_scans("SELECT e.name, d.dname FROM emp AS e JOIN dept AS d ON e.dept = d.dnum"),
            0
        );
    }

    #[test]
    fn in_restricts_only_non_null_int_str_and_bool_probes() {
        let col = |vals: Vec<Value>| VCol::Col(Column::from_values(vals));
        let restricted = |lhs: Vec<VCol>| -> Vec<(usize, usize)> {
            in_restrictions(&lhs).iter().map(|r| (r.col, r.keys.len())).collect()
        };
        assert_eq!(restricted(vec![col(vec![v(1), v(2)])]), vec![(0, 2)]);
        assert_eq!(restricted(vec![col(vec![s("a"), s("b")])]), vec![(0, 2)]);
        assert_eq!(restricted(vec![col(vec![Value::Bool(true)])]), vec![(0, 1)]);
        assert_eq!(restricted(vec![VCol::Const(v(7))]), vec![(0, 1)]);
        // A NULL probe, a float probe or a mixed column: no restriction.
        assert!(restricted(vec![col(vec![v(1), Value::Null])]).is_empty());
        assert!(restricted(vec![VCol::Const(Value::Null)]).is_empty());
        assert!(restricted(vec![col(vec![f(1.0)])]).is_empty());
        assert!(restricted(vec![col(vec![v(1), f(1.0)])]).is_empty());
        // Column by column in a tuple IN.
        assert_eq!(restricted(vec![col(vec![f(0.0)]), col(vec![v(3)])]), vec![(1, 1)]);
        // The landing column must be Int, Str or Bool as well.
        let table = ColumnTable::from_table(&Table::with_rows(
            ["i", "s", "b", "f", "m"],
            (0..6).map(|i| {
                vec![
                    v(i),
                    s(&i.to_string()),
                    Value::Bool(i % 2 == 0),
                    f(i as f64),
                    if i % 2 == 0 { v(i) } else { f(i as f64) },
                ]
            }),
        ));
        let on = |col: usize, keys: Column, eq: KeyEq| {
            key_rows(&table, &[Restriction { col, keys, eq }])
        };
        let int_key = || Column::from_values(vec![v(2)]);
        assert_eq!(on(0, int_key(), KeyEq::Sql), Some(vec![2]));
        assert_eq!(on(1, Column::from_values(vec![s("4")]), KeyEq::Sql), Some(vec![4]));
        assert_eq!(
            on(2, Column::from_values(vec![Value::Bool(false)]), KeyEq::Sql),
            Some(vec![1, 3, 5])
        );
        assert_eq!(on(3, int_key(), KeyEq::Sql), None);
        assert_eq!(on(4, int_key(), KeyEq::Sql), None);
        // The join's own equality is the index's, on every column.
        assert_eq!(on(3, int_key(), KeyEq::Join), Some(vec![2]));
        assert_eq!(on(4, int_key(), KeyEq::Join), Some(vec![2]));
        // The size rule: fewer keys than the column has distinct keys.
        let keys = |n: i64| Column::from_values((0..n).map(v).collect());
        assert_eq!(on(0, keys(5), KeyEq::Sql), Some(vec![0, 1, 2, 3, 4]));
        assert_eq!(on(0, keys(6), KeyEq::Sql), None);
        assert_eq!(on(2, Column::from_values(vec![Value::Bool(true); 2]), KeyEq::Sql), None);
    }

    #[test]
    fn equality_reads_the_index_only_for_exact_integer_constants() {
        let big = 1i64 << 53;
        let mut inst = RelInstance::new();
        inst.insert_table(
            "big",
            Table::with_rows(
                ["k"],
                vec![vec![v(big)], vec![v(big + 1)], vec![v(5)], vec![Value::Null]],
            ),
        );
        let columnar = ColumnInstance::from_rel(&inst);
        let run = |sql: &str| {
            let q = parse_query(sql).unwrap();
            let plan = compile_query(&inst, &q).unwrap();
            let (got, stages) = eval_vectorized_profiled(&inst, &columnar, &plan).unwrap();
            assert_eq!(got, eval_query_unoptimized(&inst, &q).unwrap(), "{sql}");
            (got.len(), stages.iter().any(|s| s.op == "key_scan"))
        };
        // Through f64, 2^53 + 1 equals both big keys: the oracle's answer
        // stands because no index is read.
        assert_eq!(run("SELECT b.k FROM big AS b WHERE b.k = 9007199254740993"), (2, false));
        assert_eq!(run("SELECT b.k FROM big AS b WHERE b.k = 9007199254740992"), (2, false));
        assert_eq!(run("SELECT b.k FROM big AS b WHERE b.k = 5"), (1, true));
        assert_eq!(run("SELECT b.k FROM big AS b WHERE 5 = b.k AND b.k > 0"), (1, true));
        assert_eq!(run("SELECT b.k FROM big AS b WHERE b.k = 5.0"), (1, false));
        // A float or mixed column compares `0` equal to `-0.0`, the index
        // does not: it is not read.
        check("SELECT a.x FROM fa AS a WHERE a.x = 0");
        assert_eq!(key_scans("SELECT a.x FROM fa AS a WHERE a.x = 0"), 0);
        // Bound outer values pass the same test; unbound ones restrict
        // nothing.
        let tables = Tables { instance: &inst, columnar: &columnar, converted: RefCell::default() };
        let row = [v(5), v(big), f(5.0)];
        let columns = ["o.i".to_string(), "o.big".to_string(), "o.f".to_string()];
        let scope = Scope { columns: &columns, row: &row, outer: None };
        let bound = VecEvaluator::new(&tables, Some(&scope), None);
        let outer = |c: &str| CExpr::Outer(crate::ast::ColumnRef::qualified("o", c));
        assert_eq!(bound.exact_int(&outer("i")), Some(5));
        assert_eq!(bound.exact_int(&outer("big")), None);
        assert_eq!(bound.exact_int(&outer("f")), None);
        assert_eq!(bound.exact_int(&CExpr::Value(v(-(big - 1)))), Some(-(big - 1)));
        assert_eq!(bound.exact_int(&CExpr::Value(v(-big))), None);
        let unbound = VecEvaluator::new(&tables, None, None);
        assert_eq!(unbound.exact_int(&outer("i")), None);
        assert!(!unbound.cannot_raise_expr(&outer("i")));
        assert!(bound.cannot_raise_expr(&outer("i")));
        // A correlated `col = outer` subquery reads the index per outer row.
        check(
            "SELECT e.id FROM emp AS e WHERE EXISTS (SELECT x.id FROM emp AS x WHERE x.id = e.id)",
        );
        check("SELECT e.id FROM emp AS e WHERE e.name IN (SELECT x.name FROM emp AS x WHERE x.dept = e.dept)");
    }

    /// USR, FOLLOWS, POSTED and PIC with perfbench's seed shape: 500 users
    /// and pictures, three follows and three posts per user.
    fn seed_shaped() -> RelInstance {
        let mut inst = RelInstance::new();
        inst.insert_table(
            "USR",
            Table::with_rows(
                ["UsrId", "UsrName"],
                (0..500).map(|i| vec![v(i), s(&format!("u{i}"))]),
            ),
        );
        inst.insert_table(
            "PIC",
            Table::with_rows(["PicId", "PicSize"], (0..500).map(|i| vec![v(i), v(i % 7)])),
        );
        inst.insert_table(
            "FOLLOWS",
            Table::with_rows(
                ["FId", "SRC", "TGT"],
                (0..1500).map(|i| vec![v(i), v(i / 3), v((i * 7 + 1) % 500)]),
            ),
        );
        inst.insert_table(
            "POSTED",
            Table::with_rows(
                ["PostId", "PostDate", "SRC", "TGT"],
                (0..1500).map(|i| vec![v(i), v(i % 30), v(i / 3), v((i * 11) % 500)]),
            ),
        );
        inst
    }

    #[test]
    fn the_seed_shaped_optional_translation_runs_by_key() {
        // The translation of `MATCH (a:USR {UsrId: 260})-[f:FOLLOWS]->(u:USR)
        // OPTIONAL MATCH (u:USR)-[p:POSTED]->(x:PIC) RETURN u.UsrId AS uid,
        // x.PicSize AS size`.
        let sql = "SELECT u_UsrId AS uid, x_PicSize AS size FROM (SELECT T1.a_UsrId AS a_UsrId, \
            T1.a_UsrName AS a_UsrName, T1.f_FId AS f_FId, T1.u_UsrId AS u_UsrId, T1.u_UsrName AS u_UsrName, \
            T2.p_PostId AS p_PostId, T2.p_PostDate AS p_PostDate, T2.x_PicId AS x_PicId, T2.x_PicSize AS x_PicSize \
            FROM (SELECT a.UsrId AS a_UsrId, a.UsrName AS a_UsrName, f.FId AS f_FId, u.UsrId AS u_UsrId, \
            u.UsrName AS u_UsrName FROM USR AS a JOIN FOLLOWS AS f ON f.SRC = a.UsrId JOIN USR AS u \
            ON f.TGT = u.UsrId WHERE a.UsrId = 260) AS T1 LEFT JOIN (SELECT u.UsrId AS u_UsrId, \
            u.UsrName AS u_UsrName, p.PostId AS p_PostId, p.PostDate AS p_PostDate, x.PicId AS x_PicId, \
            x.PicSize AS x_PicSize FROM USR AS u JOIN POSTED AS p ON p.SRC = u.UsrId JOIN PIC AS x \
            ON p.TGT = x.PicId) AS T2 ON T1.u_UsrId = T2.u_UsrId) AS sub";
        let inst = seed_shaped();
        let q = parse_query(sql).unwrap();
        let plan = compile_query(&inst, &q).unwrap();
        let (got, stages) =
            eval_vectorized_profiled(&inst, &ColumnInstance::from_rel(&inst), &plan).unwrap();
        assert_eq!(got, eval_query_unoptimized(&inst, &q).unwrap());
        assert_eq!(got.len(), 9);
        // All six base scans read by key, the derived table's three too.
        assert_eq!(stages.iter().filter(|s| s.op == "key_scan").count(), 6, "{stages:?}");
        assert!(stages.iter().all(|s| s.op != "scan"), "{stages:?}");
        assert!(stages.iter().all(|s| s.rows_out < 1500), "{stages:?}");
        let key_scan = stages.iter().find(|s| s.op == "key_scan").unwrap();
        assert_eq!((key_scan.rows_out, key_scan.density), (1, Some(1.0 / 500.0)));
    }

    #[test]
    fn order_by_and_min_max_place_nan_above_every_number() {
        // 64 values, every fourth a NaN, in a scrambled order.
        let values: Vec<Value> = (0..64i64)
            .map(|i| if i % 4 == 1 { f(f64::NAN) } else { f(((i * 37) % 64) as f64 - 20.5) })
            .collect();
        let mut inst = RelInstance::new();
        let column =
            |vals: Vec<Value>| -> Vec<Vec<Value>> { vals.into_iter().map(|x| vec![x]).collect() };
        inst.insert_table("t", Table::with_rows(["a"], column(values.clone())));
        let q = parse_query("SELECT t.a FROM t AS t ORDER BY t.a").unwrap();
        let sorted = eval_query(&inst, &q).unwrap();
        assert_eq!(sorted, eval_query_unoptimized(&inst, &q).unwrap());
        let got: Vec<f64> = sorted.rows.iter().map(|r| r[0].as_f64().unwrap()).collect();
        let (numbers, nans) = got.split_at(48);
        assert!(numbers.windows(2).all(|w| w[0] <= w[1]), "{got:?}");
        assert!(nans.iter().all(|x| x.is_nan()), "{got:?}");
        // MIN skips NaN and MAX is NaN, whatever the row order.
        let q = parse_query("SELECT Min(t.a) AS lo, Max(t.a) AS hi FROM t AS t").unwrap();
        for rows in [values.clone(), values.iter().rev().cloned().collect()] {
            let mut inst = RelInstance::new();
            inst.insert_table("t", Table::with_rows(["a"], column(rows)));
            let got = eval_query(&inst, &q).unwrap();
            assert_eq!(got, eval_query_unoptimized(&inst, &q).unwrap());
            assert_eq!(got.rows[0][0], f(-20.5));
            assert!(matches!(got.rows[0][1], Value::Float(x) if x.is_nan()));
        }
    }
}
