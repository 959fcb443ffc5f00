//! Vectorized (columnar, batch-at-a-time) execution of compiled plans.
//!
//! [`eval_compiled`](crate::eval::eval_compiled) interprets a
//! [`CompiledQuery`] row at a time: every operator materializes
//! `Vec<Vec<Value>>` rows, every predicate pays per-row program dispatch,
//! and every join/group key is a cloned `Vec<Value>`.  This module executes
//! the *same* plan over [`ColumnTable`]s instead:
//!
//! * **scans** hand out `Arc`-shared typed columns and reuse the plan's
//!   statically-computed requalified layout — no row cloning, no per-scan
//!   name formatting;
//! * **selections** evaluate the predicate column-at-a-time into a
//!   selection vector, then gather the survivors of each typed column;
//! * **projections** evaluate each item program as a column kernel
//!   (constants stay constants until materialization);
//! * **hash joins** build and probe on hashed key *columns* — a `u64`
//!   bucket per build row, verified against the typed columns — instead of
//!   hashing cloned `Vec<Value>` row keys, and emit their output as one
//!   gather per column;
//! * **GROUP BY** evaluates key programs vectorized, buckets rows by
//!   column hash, and folds aggregates with typed kernels over member
//!   indexes.
//!
//! Semantics are *identical* to the row engine by construction: each kernel
//! replays the corresponding `Value` operation (including its
//! quirks — numeric comparison through `f64`, wrapping integer arithmetic,
//! `NULL`-skipping aggregate folds), and any program a kernel cannot run
//! column-at-a-time (predicates containing subqueries) falls back to the
//! row engine's own operator implementation for exactly that operator.
//! The differential proptests in `graphiti-testkit` and the corpus sweep
//! of `bench_gate`'s `vectorized` scenario pin the equivalence down
//! (Definition 4.4).

use crate::ast::JoinKind;
use crate::compile::{CExpr, CGroupExpr, CGroupPred, CPred};
use crate::eval::{CteEnv, Evaluator, Scope, SubqCache};
use crate::plan::{CompiledQuery, PlanNode, PlanOp};
use graphiti_common::{AggKind, BinArith, CmpOp, Error, Result, Truth, Value};
use graphiti_obs::profile::{StageProfile, StageSink};
use graphiti_relational::{
    Bitmap, Column, ColumnData, ColumnInstance, ColumnTable, RelInstance, Table, NULL_IDX,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::Hasher;
use std::sync::Arc;

/// Executes a pre-compiled plan against the columnar image of an instance.
///
/// `instance` is the row-oriented instance the plan was compiled against;
/// it backs subquery re-entry (subqueries evaluate through the row engine,
/// exactly as `eval_compiled` does) and any table missing from `columnar`.
/// Results are identical to [`eval_compiled`](crate::eval::eval_compiled).
pub fn eval_vectorized(
    instance: &RelInstance,
    columnar: &ColumnInstance,
    plan: &CompiledQuery,
) -> Result<Table> {
    let ev = VecEvaluator { rowwise: Evaluator { instance, compiled: true }, columnar, prof: None };
    let out = ev.eval(&plan.root, &Ctes::default())?;
    Ok(out.to_table())
}

/// [`eval_vectorized`] with per-operator profiling: every plan node
/// reports its wall time (inclusive of children), rows in/out, and —
/// for vectorized selections — the selection-vector density.  Stages
/// come back in completion (post) order; results are identical to the
/// unprofiled path.
pub fn eval_vectorized_profiled(
    instance: &RelInstance,
    columnar: &ColumnInstance,
    plan: &CompiledQuery,
) -> Result<(Table, Vec<StageProfile>)> {
    let ev = VecEvaluator {
        rowwise: Evaluator { instance, compiled: true },
        columnar,
        prof: Some(std::cell::RefCell::new(StageSink::new())),
    };
    let out = ev.eval(&plan.root, &Ctes::default())?;
    let stages = ev.prof.expect("sink installed above").into_inner().finish();
    Ok((out.to_table(), stages))
}

/// CTE environment: definitions live in columnar form; the row-oriented
/// [`CteEnv`] that subquery fallbacks need (they re-enter the row
/// evaluator) is materialized lazily, on the first fallback, so
/// fully-vectorizable queries never pay a column-to-row conversion for
/// their CTEs.
#[derive(Default)]
struct Ctes {
    col: HashMap<String, ColumnTable>,
    row: std::cell::OnceCell<CteEnv>,
}

impl Clone for Ctes {
    fn clone(&self) -> Ctes {
        // Column payloads are Arc-shared (cheap); the lazily-built row
        // image is deliberately dropped — the extended environment would
        // invalidate it anyway.
        Ctes { col: self.col.clone(), row: std::cell::OnceCell::new() }
    }
}

impl Ctes {
    /// The row-oriented environment for fallbacks, built on first use.
    fn row(&self) -> &CteEnv {
        self.row.get_or_init(|| self.col.iter().map(|(k, v)| (k.clone(), v.to_table())).collect())
    }
}

struct VecEvaluator<'a> {
    rowwise: Evaluator<'a>,
    columnar: &'a ColumnInstance,
    /// Per-operator stage collection, installed by
    /// [`eval_vectorized_profiled`] (`None` costs one branch per node).
    prof: Option<std::cell::RefCell<StageSink>>,
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

// ------------------------------------------------------- vectorizability

/// Whether an expression program can run column-at-a-time.  Programs that
/// *error* uniformly (aggregates in scalar position, bare `*`, unresolved
/// outer references at the top level) are vectorizable — the kernel raises
/// the identical error iff at least one row exists, matching the row
/// engine.  Only subqueries force the row fallback.
fn expr_vectorizable(e: &CExpr) -> bool {
    match e {
        CExpr::Col(_) | CExpr::Value(_) | CExpr::Outer(_) | CExpr::ScalarAgg | CExpr::Star => true,
        CExpr::Arith(a, _, b) => expr_vectorizable(a) && expr_vectorizable(b),
        CExpr::Cast(p) => pred_vectorizable(p),
    }
}

/// Whether a predicate program can run column-at-a-time (no subqueries
/// anywhere, including under `Cast`).
fn pred_vectorizable(p: &CPred) -> bool {
    match p {
        CPred::Bool(_) => true,
        CPred::Cmp(a, _, b) => expr_vectorizable(a) && expr_vectorizable(b),
        CPred::IsNull(e) | CPred::InList(e, _) => expr_vectorizable(e),
        CPred::InQuery(..) | CPred::Exists(_) => false,
        CPred::And(a, b) | CPred::Or(a, b) => pred_vectorizable(a) && pred_vectorizable(b),
        CPred::Not(inner) => pred_vectorizable(inner),
    }
}

/// Whether a group-level expression can run through the group kernels:
/// aggregate inner expressions must be kernel-compatible (scalar,
/// first-row parts always evaluate row-wise on one row per group, so any
/// expression is fine there).
fn group_item_vectorizable(e: &CGroupExpr) -> bool {
    match e {
        CGroupExpr::CountStar | CGroupExpr::StarAgg | CGroupExpr::Scalar(_) => true,
        CGroupExpr::Agg(_, inner, _) => expr_vectorizable(inner),
        CGroupExpr::Arith(a, _, b) => group_item_vectorizable(a) && group_item_vectorizable(b),
    }
}

/// Whether a `GROUP BY` operator can run vectorized: key and aggregate
/// inner expressions must be kernel-compatible.  Scalar (first-row) parts
/// and `HAVING` subqueries always evaluate row-wise on one row per group,
/// so they never force the fallback.
fn group_vectorizable(keys: &[CExpr], items: &[CGroupExpr]) -> bool {
    keys.iter().all(expr_vectorizable) && items.iter().all(group_item_vectorizable)
}

fn having_agg_inners_vectorizable(p: &CGroupPred) -> bool {
    match p {
        CGroupPred::Bool(_) | CGroupPred::Subquery(_) => true,
        CGroupPred::Cmp(a, _, b) => group_item_vectorizable(a) && group_item_vectorizable(b),
        CGroupPred::IsNull(e) | CGroupPred::InList(e, _) => group_item_vectorizable(e),
        CGroupPred::And(a, b) | CGroupPred::Or(a, b) => {
            having_agg_inners_vectorizable(a) && having_agg_inners_vectorizable(b)
        }
        CGroupPred::Not(inner) => having_agg_inners_vectorizable(inner),
    }
}

// ---------------------------------------------------------------- executor

impl<'a> VecEvaluator<'a> {
    /// Evaluates one plan node, recording a profile stage when a sink
    /// is installed.  The stage's `rows_in` is derived structurally by
    /// the sink (children report their output to the enclosing frame).
    fn eval(&self, node: &PlanNode, ctes: &Ctes) -> Result<ColumnTable> {
        let Some(prof) = &self.prof else { return self.eval_node(node, ctes) };
        prof.borrow_mut().begin(op_name(&node.op));
        let out = self.eval_node(node, ctes);
        prof.borrow_mut().end(out.as_ref().map(|t| t.len() as u64).unwrap_or(0));
        out
    }

    fn eval_node(&self, node: &PlanNode, ctes: &Ctes) -> Result<ColumnTable> {
        match &node.op {
            PlanOp::Scan { name } => self.scan(name.as_str(), &node.columns, ctes),
            PlanOp::Rename { input, .. } => {
                let t = self.eval(input, ctes)?;
                Ok(t.with_column_names(Arc::clone(&node.columns)))
            }
            PlanOp::Select { input, program } => {
                let t = self.eval(input, ctes)?;
                self.select(&t, program, ctes)
            }
            PlanOp::Project { input, programs, distinct } => {
                let t = self.eval(input, ctes)?;
                self.project(&t, programs, *distinct, &node.columns, ctes)
            }
            PlanOp::Cross { left, right } => {
                let lt = self.eval(left, ctes)?;
                let rt = self.eval(right, ctes)?;
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
                let lt = self.eval(left, ctes)?;
                let rt = self.eval(right, ctes)?;
                self.hash_join(&lt, &rt, *kind, pairs, residual.as_ref(), &node.columns, ctes)
            }
            PlanOp::LoopJoin { left, right, kind, program } => {
                let lt = self.eval(left, ctes)?;
                let rt = self.eval(right, ctes)?;
                self.loop_join(&lt, &rt, *kind, program, &node.columns, ctes)
            }
            PlanOp::Union { left, right, dedup } => {
                let lt = self.eval(left, ctes)?;
                let rt = self.eval(right, ctes)?;
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
                let t = self.eval(input, ctes)?;
                self.group_by(&t, keys, items, having.as_ref(), &node.columns, ctes)
            }
            PlanOp::With { name, definition, body } => {
                let def = self.eval(definition, ctes)?;
                // Only the columnar image is stored; the row-oriented env
                // materializes lazily if a fallback ever needs it.
                let mut extended = ctes.clone();
                extended.col.insert(name.as_str().to_string(), def);
                self.eval(body, &extended)
            }
            PlanOp::OrderBy { input, keys } => {
                let t = self.eval(input, ctes)?;
                Ok(order_by(&t, keys))
            }
        }
    }

    /// Base-table / CTE scan.  The plan's layout already carries the
    /// requalified names, so a scan is column `Arc` bumps plus one name
    /// vector share.
    fn scan(&self, name: &str, columns: &Arc<Vec<String>>, ctes: &Ctes) -> Result<ColumnTable> {
        if let Some(t) = ctes
            .col
            .get(name)
            .or_else(|| ctes.col.iter().find(|(k, _)| k.eq_ignore_ascii_case(name)).map(|(_, v)| v))
        {
            return Ok(t.with_column_names(Arc::clone(columns)));
        }
        if let Some(t) = self.columnar.table(name) {
            return Ok(t.with_column_names(Arc::clone(columns)));
        }
        // A table the columnar image does not carry (should not happen for
        // engine-built snapshots): convert on the fly.
        match self.rowwise.instance.table(name) {
            Some(t) => Ok(ColumnTable::from_table(t).with_column_names(Arc::clone(columns))),
            None => Err(Error::eval(format!("unknown table `{name}`"))),
        }
    }

    fn select(&self, t: &ColumnTable, program: &CPred, ctes: &Ctes) -> Result<ColumnTable> {
        if t.is_empty() {
            return Ok(t.clone());
        }
        if pred_vectorizable(program) {
            let mask = self.eval_pred_vec(program, t, ctes)?;
            let keep: Vec<u32> =
                (0..t.len()).filter(|&i| mask[i] == Truth::True).map(|i| i as u32).collect();
            if let Some(prof) = &self.prof {
                prof.borrow_mut().set_density(keep.len() as f64 / t.len() as f64);
            }
            return Ok(t.gather(&keep));
        }
        // Subquery predicate: run the row engine's own select over this
        // operator.
        let rows = self.rowwise.select_compiled(&t.to_table(), program, ctes.row(), None)?;
        Ok(ColumnTable::from_table(&rows).with_column_names(Arc::clone(t.columns())))
    }

    fn project(
        &self,
        t: &ColumnTable,
        programs: &[CExpr],
        distinct: bool,
        out_columns: &Arc<Vec<String>>,
        ctes: &Ctes,
    ) -> Result<ColumnTable> {
        if !programs.iter().all(expr_vectorizable) {
            let rows = self.rowwise.project_compiled(
                &t.to_table(),
                programs,
                distinct,
                out_columns.as_slice(),
                ctes.row(),
                None,
            )?;
            return Ok(ColumnTable::from_table(&rows).with_column_names(Arc::clone(out_columns)));
        }
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
        // Build: bucket right rows by the hash of their key columns,
        // skipping rows with a NULL key (SQL equi-joins never match NULL).
        let mut index: HashMap<u64, Vec<u32>> = HashMap::with_capacity(right.len());
        'rows: for ri in 0..right.len() {
            for &(_, rcol) in pairs {
                if right.col(rcol).is_null(ri) {
                    continue 'rows;
                }
            }
            index
                .entry(join_key_hash(right, pairs.iter().map(|p| p.1), ri))
                .or_default()
                .push(ri as u32);
        }
        // Probe: collect candidate (left, right) pairs in left-major order,
        // verifying bucket hits against the typed key columns.
        let mut cand_left: Vec<u32> = Vec::new();
        let mut cand_right: Vec<u32> = Vec::new();
        // Candidate span of each left row: `spans[l] = (start, end)`.
        let mut spans: Vec<(u32, u32)> = Vec::with_capacity(left.len());
        'probe: for li in 0..left.len() {
            let start = cand_left.len() as u32;
            for &(lcol, _) in pairs {
                if left.col(lcol).is_null(li) {
                    spans.push((start, start));
                    continue 'probe;
                }
            }
            let h = join_key_hash(left, pairs.iter().map(|p| p.0), li);
            if let Some(bucket) = index.get(&h) {
                for &ri in bucket {
                    let eq = pairs.iter().all(|&(lcol, rcol)| {
                        left.col(lcol).strict_eq_at(li, right.col(rcol), ri as usize)
                    });
                    if eq {
                        cand_left.push(li as u32);
                        cand_right.push(ri);
                    }
                }
            }
            spans.push((start, cand_left.len() as u32));
        }
        // Residual filter over the candidate batch, evaluated once,
        // column-at-a-time (or row-wise for the rare non-kernel residual).
        let mask: Option<Vec<Truth>> = match residual {
            None => None,
            Some(p) => {
                let cand = combine_gather(left, &cand_left, right, &cand_right, out_columns);
                Some(self.residual_mask(p, &cand, ctes)?)
            }
        };
        // Emit in the row engine's order: each left row's surviving
        // candidates, then its null-extension if LEFT JOIN and none
        // survived.
        let mut out_left: Vec<u32> = Vec::with_capacity(cand_left.len());
        let mut out_right: Vec<u32> = Vec::with_capacity(cand_right.len());
        for (li, &(start, end)) in spans.iter().enumerate() {
            let mut matched = false;
            for c in start..end {
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

    fn residual_mask(&self, p: &CPred, cand: &ColumnTable, ctes: &Ctes) -> Result<Vec<Truth>> {
        if cand.is_empty() {
            return Ok(Vec::new());
        }
        if pred_vectorizable(p) {
            return self.eval_pred_vec(p, cand, ctes);
        }
        // The planner only hash-joins subquery-free predicates, but `Cast`
        // can smuggle one in; mirror the row engine (empty subquery cache).
        let table = cand.to_table();
        let cache = SubqCache::new();
        let mut out = Vec::with_capacity(table.rows.len());
        for row in &table.rows {
            let scope = Scope { columns: &table.columns, row, outer: None };
            out.push(self.rowwise.eval_cpred(p, &scope, ctes.row(), &cache)?);
        }
        Ok(out)
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
        if !pred_vectorizable(program) {
            let rows = self.rowwise.loop_join_compiled(
                &left.to_table(),
                &right.to_table(),
                kind,
                program,
                out_columns.as_slice(),
                ctes.row(),
                None,
            )?;
            return Ok(ColumnTable::from_table(&rows).with_column_names(Arc::clone(out_columns)));
        }
        // Evaluate the predicate vectorized over the pair space (the row
        // engine touches every pair too), but in bounded *chunks* of whole
        // left rows: peak memory stays O(chunk) instead of O(|L|·|R|),
        // while output order is preserved — per left row its matches, with
        // null-extended rows interleaved/appended exactly like the row
        // engine.
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
        if !group_vectorizable(keys, items) || !having.is_none_or(having_agg_inners_vectorizable) {
            let rows = self.rowwise.group_by_compiled(
                &input.to_table(),
                keys,
                items,
                having,
                out_columns.as_slice(),
                ctes.row(),
                None,
            )?;
            return Ok(ColumnTable::from_table(&rows).with_column_names(Arc::clone(out_columns)));
        }
        // Vectorized key evaluation, then hash-bucketed grouping in
        // first-seen order (matching the row engine's insertion order).
        let key_cols: Vec<Column> = keys
            .iter()
            .map(|k| Ok(self.eval_expr_vec(k, input, ctes)?.materialize(input.len())))
            .collect::<Result<_>>()?;
        let mut groups: Vec<Vec<u32>> = Vec::new();
        let mut buckets: HashMap<u64, Vec<u32>> = HashMap::new();
        for i in 0..input.len() {
            let mut h = DefaultHasher::new();
            for kc in &key_cols {
                kc.hash_value_into(i, &mut h);
            }
            let bucket = buckets.entry(h.finish()).or_default();
            let gid = bucket.iter().copied().find(|&g| {
                let rep = groups[g as usize][0] as usize;
                key_cols.iter().all(|kc| kc.strict_eq_at(i, kc, rep))
            });
            match gid {
                Some(g) => groups[g as usize].push(i as u32),
                None => {
                    bucket.push(groups.len() as u32);
                    groups.push(vec![i as u32]);
                }
            }
        }
        // SQL returns a single row for aggregate queries without GROUP BY
        // even when the input is empty.
        if keys.is_empty() && input.is_empty() {
            groups.push(Vec::new());
        }
        // HAVING over all groups (the row engine also evaluates it per
        // group before touching any item program).
        let survivors: Vec<usize> = match having {
            None => (0..groups.len()).collect(),
            Some(p) => {
                let cache = self.rowwise.cache_cgroup_subqueries(p, ctes.row());
                let truths = self.eval_group_pred_vec(p, input, &groups, ctes, &cache)?;
                (0..groups.len()).filter(|&g| truths[g] == Truth::True).collect()
            }
        };
        // Gather the surviving members into one batch so item kernels never
        // evaluate a row the row engine would have skipped (its item
        // programs only ever see groups that passed HAVING).
        let mut member_idx: Vec<u32> = Vec::new();
        let mut surv_groups: Vec<Vec<u32>> = Vec::with_capacity(survivors.len());
        for &g in &survivors {
            let start = member_idx.len() as u32;
            member_idx.extend_from_slice(&groups[g]);
            surv_groups.push((start..member_idx.len() as u32).collect());
        }
        let batch = input.gather(&member_idx);
        let mut out_cols = Vec::with_capacity(items.len());
        for item in items {
            let per_group = self.eval_group_expr_vec(item, &batch, &surv_groups, ctes)?;
            out_cols.push(Column::from_values(per_group));
        }
        Ok(ColumnTable::from_columns(Arc::clone(out_columns), out_cols, survivors.len()))
    }

    // ------------------------------------------------------ group kernels

    /// Evaluates a group-level expression for every group, returning one
    /// value per group.  Aggregate inner expressions run vectorized over
    /// the whole batch; scalar (first-row) parts re-enter the row
    /// evaluator on exactly the rows the row engine would evaluate.
    fn eval_group_expr_vec(
        &self,
        e: &CGroupExpr,
        batch: &ColumnTable,
        groups: &[Vec<u32>],
        ctes: &Ctes,
    ) -> Result<Vec<Value>> {
        match e {
            CGroupExpr::CountStar => {
                Ok(groups.iter().map(|g| Value::Int(g.len() as i64)).collect())
            }
            CGroupExpr::StarAgg => {
                if groups.is_empty() {
                    Ok(Vec::new())
                } else {
                    Err(Error::eval("`*` may only appear inside Count(*)"))
                }
            }
            CGroupExpr::Agg(kind, inner, distinct) => {
                let col = self.eval_expr_vec(inner, batch, ctes)?.materialize(batch.len());
                let mut out = Vec::with_capacity(groups.len());
                for members in groups {
                    out.push(if *distinct {
                        let mut seen: HashSet<Value> = HashSet::with_capacity(members.len());
                        let mut uniq: Vec<Value> = Vec::new();
                        for &m in members {
                            let v = col.value(m as usize);
                            if seen.insert(v.clone()) {
                                uniq.push(v);
                            }
                        }
                        kind.fold(uniq.iter())
                    } else {
                        fold_members(*kind, &col, members)
                    });
                }
                Ok(out)
            }
            CGroupExpr::Arith(a, op, b) => {
                let va = self.eval_group_expr_vec(a, batch, groups, ctes)?;
                let vb = self.eval_group_expr_vec(b, batch, groups, ctes)?;
                va.iter().zip(vb.iter()).map(|(x, y)| x.arith(*op, y)).collect()
            }
            CGroupExpr::Scalar(inner) => {
                let columns = batch.columns().as_slice();
                let mut out = Vec::with_capacity(groups.len());
                for members in groups {
                    match members.first() {
                        Some(&first) => {
                            let row = batch.row(first as usize);
                            let scope = Scope { columns, row: &row, outer: None };
                            out.push(self.rowwise.eval_cexpr(inner, &scope, ctes.row())?);
                        }
                        None => out.push(Value::Null),
                    }
                }
                Ok(out)
            }
        }
    }

    /// Evaluates a `HAVING` program for every group.
    fn eval_group_pred_vec(
        &self,
        p: &CGroupPred,
        batch: &ColumnTable,
        groups: &[Vec<u32>],
        ctes: &Ctes,
        cache: &SubqCache,
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
                Ok(v.iter()
                    .map(|x| {
                        let mut truth = Truth::False;
                        for candidate in vs {
                            truth = truth.or(x.sql_eq(candidate));
                        }
                        truth
                    })
                    .collect())
            }
            CGroupPred::And(a, b) => {
                let va = self.eval_group_pred_vec(a, batch, groups, ctes, cache)?;
                let vb = self.eval_group_pred_vec(b, batch, groups, ctes, cache)?;
                Ok(va.into_iter().zip(vb).map(|(x, y)| x.and(y)).collect())
            }
            CGroupPred::Or(a, b) => {
                let va = self.eval_group_pred_vec(a, batch, groups, ctes, cache)?;
                let vb = self.eval_group_pred_vec(b, batch, groups, ctes, cache)?;
                Ok(va.into_iter().zip(vb).map(|(x, y)| x.or(y)).collect())
            }
            CGroupPred::Not(inner) => {
                let v = self.eval_group_pred_vec(inner, batch, groups, ctes, cache)?;
                Ok(v.into_iter().map(Truth::not).collect())
            }
            CGroupPred::Subquery(pred) => {
                let columns = batch.columns().as_slice();
                let mut out = Vec::with_capacity(groups.len());
                for members in groups {
                    match members.first() {
                        Some(&first) => {
                            let row = batch.row(first as usize);
                            let scope = Scope { columns, row: &row, outer: None };
                            out.push(self.rowwise.eval_pred(pred, &scope, ctes.row(), cache)?);
                        }
                        None => out.push(Truth::Unknown),
                    }
                }
                Ok(out)
            }
        }
    }

    // ------------------------------------------------- expression kernels

    /// Evaluates an expression program over a batch, column-at-a-time.
    /// Callers guarantee `expr_vectorizable(e)`.
    fn eval_expr_vec(&self, e: &CExpr, input: &ColumnTable, ctes: &Ctes) -> Result<VCol> {
        if input.is_empty() {
            // No row is ever evaluated: deferred-error programs stay
            // silent, exactly like the row engine.
            return Ok(VCol::Col(Column::from_values(Vec::new())));
        }
        match e {
            CExpr::Col(idx) => Ok(VCol::Col(input.col(*idx).clone())),
            CExpr::Value(v) => Ok(VCol::Const(v.clone())),
            CExpr::Outer(cref) => {
                // The vectorized executor only runs top-level plans (no
                // outer scope), where an `Outer` reference never resolves.
                Err(Error::eval(format!("unknown column `{}`", cref.render())))
            }
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

    /// Evaluates a predicate program over a batch.  Callers guarantee
    /// `pred_vectorizable(p)` and a non-empty batch.
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
                Ok((0..len)
                    .map(|i| {
                        let x = v.value(i);
                        let mut truth = Truth::False;
                        for candidate in vs {
                            truth = truth.or(x.sql_eq(candidate));
                        }
                        truth
                    })
                    .collect())
            }
            CPred::And(a, b) => {
                // Both sides evaluate unconditionally, like the row engine
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
            CPred::InQuery(..) | CPred::Exists(_) => {
                Err(Error::eval("internal: subquery predicate reached a vector kernel"))
            }
        }
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
/// first-seen tie-breaks through the `f64` comparison).
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
                min = Some(match min {
                    None => x,
                    // partial_cmp == Less, i.e. NaN never replaces.
                    Some(m) if x < m => x,
                    Some(m) => m,
                });
                max = Some(match max {
                    None => x,
                    Some(m) if x > m => x,
                    Some(m) => m,
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

/// Hashes one row's join key from its key columns (build/probe bucketing).
fn join_key_hash(t: &ColumnTable, cols: impl Iterator<Item = usize>, row: usize) -> u64 {
    let mut h = DefaultHasher::new();
    for c in cols {
        t.col(c).hash_value_into(row, &mut h);
    }
    h.finish()
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

/// First-seen-order distinct row selection, hash-bucketed with strict
/// equality verification — the columnar dual of [`Table::dedup`].
fn distinct_indices(cols: &[Column], len: usize) -> Vec<u32> {
    let mut keep: Vec<u32> = Vec::new();
    let mut buckets: HashMap<u64, Vec<u32>> = HashMap::new();
    for i in 0..len {
        let mut h = DefaultHasher::new();
        for c in cols {
            c.hash_value_into(i, &mut h);
        }
        let bucket = buckets.entry(h.finish()).or_default();
        let dup = bucket.iter().any(|&j| cols.iter().all(|c| c.strict_eq_at(i, c, j as usize)));
        if !dup {
            bucket.push(i as u32);
            keep.push(i as u32);
        }
    }
    keep
}

/// Stable index sort replaying the row engine's `ORDER BY` comparator
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
    use crate::parser::parse_query;
    use crate::plan::compile_query;
    use graphiti_relational::RelInstance;

    fn v(i: i64) -> Value {
        Value::Int(i)
    }

    fn s(x: &str) -> Value {
        Value::str(x)
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
        inst
    }

    /// Asserts the vectorized result is *identical* (same column names,
    /// same row order) to the row engine's, for a battery of queries.
    fn check(sql: &str) {
        let inst = instance();
        let columnar = ColumnInstance::from_rel(&inst);
        let q = parse_query(sql).unwrap();
        let plan = compile_query(&inst, &q).unwrap();
        let row = crate::eval::eval_compiled(&inst, &plan);
        let vec = eval_vectorized(&inst, &columnar, &plan);
        match (row, vec) {
            (Ok(r), Ok(c)) => assert_eq!(r, c, "vectorized differs on `{sql}`"),
            (Err(_), Err(_)) => {}
            (r, c) => panic!("paths disagree on `{sql}`: row={r:?} vec={c:?}"),
        }
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
    fn joins_match_row_engine() {
        check("SELECT e.name, d.dname FROM emp AS e JOIN dept AS d ON e.dept = d.dnum");
        check("SELECT e.name, d.dname FROM emp AS e LEFT JOIN dept AS d ON e.dept = d.dnum");
        check(
            "SELECT e.name, d.dname FROM emp AS e JOIN dept AS d ON e.dept = d.dnum AND e.id > 1",
        );
        check("SELECT e.name, d.dname FROM emp AS e, dept AS d");
        check("SELECT e.name, d.dname FROM emp AS e RIGHT JOIN dept AS d ON e.dept = d.dnum");
        check("SELECT e.name, d.dname FROM emp AS e FULL JOIN dept AS d ON e.dept = d.dnum");
        check("SELECT e.name, d.dname FROM emp AS e JOIN dept AS d ON e.id < d.dnum");
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
    }

    #[test]
    fn ctes_and_subqueries_fall_back_consistently() {
        check("WITH big AS (SELECT e.id AS i FROM emp AS e WHERE e.id > 1) SELECT big.i FROM big");
        check(
            "SELECT e.name FROM emp AS e WHERE EXISTS (SELECT d.dnum FROM dept AS d WHERE d.dnum = e.dept)",
        );
        check(
            "SELECT e.name FROM emp AS e WHERE e.dept IN (SELECT d.dnum FROM dept AS d WHERE d.dname = 'CS')",
        );
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
}
