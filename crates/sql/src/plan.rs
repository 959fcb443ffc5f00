//! Whole-query compilation: a standalone, cacheable execution plan.
//!
//! This module lowers a query **once**, ahead of time, into an owned
//! [`CompiledQuery`] that can be cached (keyed by query text), shared
//! across threads (`CompiledQuery: Send + Sync`), and executed repeatedly
//! by [`eval_vectorized`](crate::eval_vectorized) without touching the
//! parser, the optimizer, or the compiler again.  It is the SQL half of the
//! engine crate's query-plan cache.
//!
//! Compilation statically replays the interpreter's column-layout
//! bookkeeping: starting from the base-table layouts of a concrete
//! [`RelInstance`], every operator's output columns are inferred exactly as
//! the interpreter's `requalify`/projection/join logic would produce them,
//! and each operator's programs are lowered against its input layout.  The
//! plan is therefore *instance-schema-specific*: it is valid for any
//! instance whose tables have the same names and column lists as the one it
//! was compiled against (the engine compiles against an immutable
//! snapshot, so this holds by construction).
//!
//! Every subquery becomes a [`SubPlan`], compiled against the same base
//! tables and the CTE layouts in scope where it appears; the executor
//! decides at runtime whether it is correlated.
//!
//! Join planning is also decided statically, mirroring the interpreter's
//! runtime dispatch: cross joins become product nodes, inner/left
//! equi-joins without subqueries become hash joins with a compiled residual
//! predicate, and everything else becomes a nested-loop join over a
//! compiled predicate.
//!
//! Compile-time errors are exactly the evaluation errors that are
//! *unconditional* at runtime — an unknown base table, or an `ORDER BY`
//! key that is not an output column — with identical messages.  Inside a
//! subquery they are not unconditional (the subquery may never run), so a
//! [`SubPlan`] keeps them and raises them only when it runs.  Everything
//! data-dependent (unknown columns on actual rows, `*` misuse, arity
//! mismatches) stays a runtime error so the executor fails in the same
//! situations as the interpreter.

use crate::ast::{JoinKind, SqlExpr, SqlPred, SqlQuery};
use crate::compile::{
    compile_expr, compile_group_expr, compile_group_pred, compile_pred, CExpr, CGroupExpr,
    CGroupPred, CPred,
};
use crate::eval::resolve_column;
use crate::optimize::optimize;
use graphiti_common::{Error, Ident, Result};
use graphiti_relational::RelInstance;
use std::collections::HashMap;
use std::sync::Arc;

/// A fully-compiled, owned, thread-safe execution plan for one SQL query.
///
/// Build with [`compile_query`]; execute with
/// [`eval_vectorized`](crate::eval_vectorized).
#[derive(Debug)]
pub struct CompiledQuery {
    pub(crate) root: PlanNode,
}

impl CompiledQuery {
    /// The output column names of the plan.
    pub fn columns(&self) -> &[String] {
        self.root.columns.as_slice()
    }
}

/// A compiled subquery: its plan, or the compile error it raises if it
/// ever runs.
#[derive(Debug)]
pub struct SubPlan {
    pub(crate) root: Result<PlanNode>,
}

/// What lowering needs besides the node itself: the base tables and the
/// layouts of the CTEs in scope.  The CTE layouts are *unrequalified*
/// (scans requalify on lookup, as the interpreter's environment does).
pub struct Layouts<'a> {
    instance: &'a RelInstance,
    ctes: &'a HashMap<String, Vec<String>>,
}

impl<'a> Layouts<'a> {
    pub(crate) fn new(
        instance: &'a RelInstance,
        ctes: &'a HashMap<String, Vec<String>>,
    ) -> Layouts<'a> {
        Layouts { instance, ctes }
    }

    /// Compiles a subquery in this scope, deferring its compile errors.
    pub(crate) fn subplan(&self, query: &SqlQuery) -> SubPlan {
        SubPlan { root: compile_node(query, self) }
    }
}

/// One operator of a compiled plan, carrying its statically-inferred output
/// layout.  Layouts are `Arc`-shared: operators that do not reshape their
/// input (selection, ordering) share the child's name vector, and the
/// executor reuses them verbatim as result-table names, so no
/// per-execution requalification strings are ever rebuilt.
#[derive(Debug)]
pub(crate) struct PlanNode {
    pub(crate) op: PlanOp,
    pub(crate) columns: Arc<Vec<String>>,
}

/// The operator kinds of a compiled plan.
#[derive(Debug)]
pub(crate) enum PlanOp {
    /// Base-table or CTE scan (requalified by the scan name).
    Scan { name: Ident },
    /// `ρ_T(Q)` — requalification by a new alias.
    Rename { input: Box<PlanNode> },
    /// `σ_φ(Q)` with a compiled filter program.
    Select { input: Box<PlanNode>, program: CPred },
    /// `Π_L(Q)` with compiled item programs.
    Project { input: Box<PlanNode>, programs: Vec<CExpr>, distinct: bool },
    /// Cartesian product (the interpreter's cross-join fast path).
    Cross { left: Box<PlanNode>, right: Box<PlanNode> },
    /// Hash equi-join on statically-extracted column pairs; `residual` is
    /// the compiled non-equi remainder (`None` = always true).
    HashJoin {
        left: Box<PlanNode>,
        right: Box<PlanNode>,
        kind: JoinKind,
        pairs: Vec<(usize, usize)>,
        residual: Option<CPred>,
    },
    /// General nested-loop join over a compiled predicate.
    LoopJoin { left: Box<PlanNode>, right: Box<PlanNode>, kind: JoinKind, program: CPred },
    /// `UNION` / `UNION ALL`.
    Union { left: Box<PlanNode>, right: Box<PlanNode>, dedup: bool },
    /// `GroupBy(Q, Ē, L, φ)` with compiled key/item/`HAVING` programs
    /// (`having: None` = always true).
    GroupBy {
        input: Box<PlanNode>,
        keys: Vec<CExpr>,
        items: Vec<CGroupExpr>,
        having: Option<CGroupPred>,
    },
    /// A common table expression.
    With { name: Ident, definition: Box<PlanNode>, body: Box<PlanNode> },
    /// `OrderBy(Q, ā, b)` with statically-resolved sort keys.
    OrderBy { input: Box<PlanNode>, keys: Vec<(usize, bool)> },
}

/// Compiles `query` into an execution plan for instances shaped like
/// `instance`, running the selection-pushdown optimizer first.
pub fn compile_query(instance: &RelInstance, query: &SqlQuery) -> Result<CompiledQuery> {
    let optimized = optimize(query);
    let root = compile_node(&optimized, &Layouts::new(instance, &HashMap::new()))?;
    Ok(CompiledQuery { root })
}

/// Replays the interpreter's `requalify`: qualifies `columns` with `alias`.
fn requalify_columns(columns: &[String], alias: &str) -> Vec<String> {
    columns.iter().map(|c| format!("{alias}.{}", unqualified(c))).collect()
}

fn unqualified(name: &str) -> &str {
    match name.rsplit_once('.') {
        Some((_, s)) => s,
        None => name,
    }
}

/// Statically resolves a scan, mirroring the interpreter's CTE-first,
/// case-insensitive-fallback lookup order.
fn scan_columns(name: &str, layouts: &Layouts<'_>) -> Result<Vec<String>> {
    let ctes = layouts.ctes;
    let base = ctes
        .get(name)
        .or_else(|| ctes.iter().find(|(k, _)| k.eq_ignore_ascii_case(name)).map(|(_, v)| v))
        .cloned()
        .or_else(|| layouts.instance.table(name).map(|t| t.columns.clone()));
    match base {
        Some(cols) => Ok(requalify_columns(&cols, name)),
        None => Err(Error::eval(format!("unknown table `{name}`"))),
    }
}

fn compile_node(q: &SqlQuery, layouts: &Layouts<'_>) -> Result<PlanNode> {
    match q {
        SqlQuery::Table(name) => {
            let columns = Arc::new(scan_columns(name.as_str(), layouts)?);
            Ok(PlanNode { op: PlanOp::Scan { name: name.clone() }, columns })
        }
        SqlQuery::Rename { input, alias } => {
            let input = compile_node(input, layouts)?;
            let columns = Arc::new(requalify_columns(&input.columns, alias.as_str()));
            Ok(PlanNode { op: PlanOp::Rename { input: Box::new(input) }, columns })
        }
        SqlQuery::Select { input, pred } => {
            let input = compile_node(input, layouts)?;
            let program = compile_pred(pred, input.columns.as_slice(), layouts);
            let columns = Arc::clone(&input.columns);
            Ok(PlanNode { op: PlanOp::Select { input: Box::new(input), program }, columns })
        }
        SqlQuery::Project { input, items, distinct } => {
            let input = compile_node(input, layouts)?;
            let programs = items
                .iter()
                .map(|i| compile_expr(&i.expr, input.columns.as_slice(), layouts))
                .collect();
            let columns = Arc::new(items.iter().map(|i| i.output_name()).collect());
            Ok(PlanNode {
                op: PlanOp::Project { input: Box::new(input), programs, distinct: *distinct },
                columns,
            })
        }
        SqlQuery::Join { left, right, kind, pred } => {
            let left = compile_node(left, layouts)?;
            let right = compile_node(right, layouts)?;
            compile_join(left, right, *kind, pred, layouts)
        }
        SqlQuery::Union(a, b) | SqlQuery::UnionAll(a, b) => {
            let dedup = matches!(q, SqlQuery::Union(..));
            let left = compile_node(a, layouts)?;
            let right = compile_node(b, layouts)?;
            // The runtime keeps the left side's columns (arity mismatches
            // stay runtime errors, as in the interpreter).
            let columns = Arc::clone(&left.columns);
            Ok(PlanNode {
                op: PlanOp::Union { left: Box::new(left), right: Box::new(right), dedup },
                columns,
            })
        }
        SqlQuery::GroupBy { input, keys, items, having } => {
            let columns = Arc::new(items.iter().map(|i| i.output_name()).collect());
            let input = compile_node(input, layouts)?;
            let layout = input.columns.as_slice();
            let keys = keys.iter().map(|k| compile_expr(k, layout, layouts)).collect();
            let items =
                items.iter().map(|i| compile_group_expr(&i.expr, layout, layouts)).collect();
            let having = (!matches!(having, SqlPred::Bool(true)))
                .then(|| compile_group_pred(having, layout, layouts));
            Ok(PlanNode {
                op: PlanOp::GroupBy { input: Box::new(input), keys, items, having },
                columns,
            })
        }
        SqlQuery::With { name, definition, body } => {
            let definition = compile_node(definition, layouts)?;
            let mut extended = layouts.ctes.clone();
            // Store the definition's layout unrequalified, the way the
            // runtime environment stores the table.
            extended.insert(
                name.as_str().to_string(),
                definition.columns.iter().map(|c| unqualified(c).to_string()).collect(),
            );
            let body = compile_node(body, &Layouts::new(layouts.instance, &extended))?;
            let columns = Arc::clone(&body.columns);
            Ok(PlanNode {
                op: PlanOp::With {
                    name: name.clone(),
                    definition: Box::new(definition),
                    body: Box::new(body),
                },
                columns,
            })
        }
        SqlQuery::OrderBy { input, keys } => {
            let input = compile_node(input, layouts)?;
            let mut resolved: Vec<(usize, bool)> = Vec::new();
            for (expr, asc) in keys {
                let idx = resolve_order_key(expr, input.columns.as_slice()).ok_or_else(|| {
                    Error::eval(format!(
                        "ORDER BY key `{}` is not an output column",
                        crate::pretty::expr_to_string(expr)
                    ))
                })?;
                resolved.push((idx, *asc));
            }
            let columns = Arc::clone(&input.columns);
            Ok(PlanNode { op: PlanOp::OrderBy { input: Box::new(input), keys: resolved }, columns })
        }
    }
}

/// The interpreter's `ORDER BY` key resolution, replayed statically.
fn resolve_order_key(expr: &SqlExpr, columns: &[String]) -> Option<usize> {
    match expr {
        SqlExpr::Col(c) => resolve_column(columns, c)
            .or_else(|| graphiti_relational::column_index_in(columns, &c.render())),
        other => {
            let rendered = crate::pretty::expr_to_string(other);
            graphiti_relational::column_index_in(columns, &rendered)
        }
    }
}

/// Statically replays the interpreter's join dispatch: cross product, hash
/// equi-join (with residual), or nested loop.
fn compile_join(
    left: PlanNode,
    right: PlanNode,
    kind: JoinKind,
    pred: &SqlPred,
    layouts: &Layouts<'_>,
) -> Result<PlanNode> {
    let columns: Arc<Vec<String>> =
        Arc::new(left.columns.iter().chain(right.columns.iter()).cloned().collect());
    if matches!(kind, JoinKind::Cross) {
        return Ok(PlanNode {
            op: PlanOp::Cross { left: Box::new(left), right: Box::new(right) },
            columns,
        });
    }
    if matches!(kind, JoinKind::Inner | JoinKind::Left) && !pred.has_subquery() {
        // Split into equi pairs and residual conjuncts against the two
        // input layouts, exactly like `try_hash_join`.
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        let mut residual: Vec<SqlPred> = Vec::new();
        for conjunct in pred.conjuncts() {
            if let SqlPred::Cmp(a, op, b) = conjunct {
                if *op == graphiti_common::CmpOp::Eq {
                    if let (SqlExpr::Col(ca), SqlExpr::Col(cb)) = (a.as_ref(), b.as_ref()) {
                        if let (Some(li), Some(ri)) = (
                            resolve_column(left.columns.as_slice(), ca),
                            resolve_column(right.columns.as_slice(), cb),
                        ) {
                            pairs.push((li, ri));
                            continue;
                        }
                        if let (Some(li), Some(ri)) = (
                            resolve_column(left.columns.as_slice(), cb),
                            resolve_column(right.columns.as_slice(), ca),
                        ) {
                            pairs.push((li, ri));
                            continue;
                        }
                    }
                }
            }
            residual.push(conjunct.clone());
        }
        if !pairs.is_empty() {
            let residual = SqlPred::conjunction(residual);
            let residual_program = (!matches!(residual, SqlPred::Bool(true)))
                .then(|| compile_pred(&residual, columns.as_slice(), layouts));
            return Ok(PlanNode {
                op: PlanOp::HashJoin {
                    left: Box::new(left),
                    right: Box::new(right),
                    kind,
                    pairs,
                    residual: residual_program,
                },
                columns,
            });
        }
    }
    let program = compile_pred(pred, columns.as_slice(), layouts);
    Ok(PlanNode {
        op: PlanOp::LoopJoin { left: Box::new(left), right: Box::new(right), kind, program },
        columns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use graphiti_common::Value;
    use graphiti_relational::Table;

    fn inst() -> RelInstance {
        let mut inst = RelInstance::new();
        inst.insert_table(
            "emp",
            Table::with_rows(
                ["id", "name"],
                vec![vec![Value::Int(1), Value::str("A")], vec![Value::Int(2), Value::str("B")]],
            ),
        );
        inst.insert_table(
            "dept",
            Table::with_rows(
                ["dnum", "dname"],
                vec![vec![Value::Int(1), Value::str("CS")], vec![Value::Int(2), Value::str("EE")]],
            ),
        );
        inst
    }

    #[test]
    fn layouts_follow_renames_and_projections() {
        let q = parse_query("SELECT e.name AS who FROM emp AS e WHERE e.id = 1").unwrap();
        let plan = compile_query(&inst(), &q).unwrap();
        assert_eq!(plan.columns(), &["who".to_string()]);
    }

    #[test]
    fn join_layouts_concatenate() {
        let q = parse_query("SELECT e.name, d.dname FROM emp AS e, dept AS d").unwrap();
        let plan = compile_query(&inst(), &q).unwrap();
        assert_eq!(plan.columns().len(), 2);
    }

    #[test]
    fn unknown_tables_fail_at_compile_time_with_the_runtime_message() {
        let q = parse_query("SELECT x.a FROM missing AS x").unwrap();
        let err = compile_query(&inst(), &q).unwrap_err();
        assert!(err.to_string().contains("unknown table `missing`"), "{err}");
    }

    #[test]
    fn cte_layouts_shadow_base_tables() {
        let q =
            parse_query("WITH emp AS (SELECT d.dnum AS k FROM dept AS d) SELECT emp.k FROM emp")
                .unwrap();
        let plan = compile_query(&inst(), &q).unwrap();
        assert_eq!(plan.columns(), &["emp.k".to_string()]);
    }

    #[test]
    fn unresolvable_order_by_fails_at_compile_time() {
        let q = parse_query("SELECT e.id FROM emp AS e ORDER BY e.name").unwrap();
        // `e.name` is projected away before ORDER BY sees the table.
        let res = compile_query(&inst(), &q);
        assert!(res.is_err());
    }

    #[test]
    fn equi_joins_plan_as_hash_joins() {
        let q =
            parse_query("SELECT e.name FROM emp AS e JOIN dept AS d ON e.id = d.dnum AND e.id > 0")
                .unwrap();
        let plan = compile_query(&inst(), &q).unwrap();
        fn find_hash(node: &PlanNode) -> bool {
            match &node.op {
                PlanOp::HashJoin { pairs, residual, .. } => pairs.len() == 1 && residual.is_some(),
                PlanOp::Project { input, .. }
                | PlanOp::Select { input, .. }
                | PlanOp::Rename { input, .. }
                | PlanOp::OrderBy { input, .. } => find_hash(input),
                _ => false,
            }
        }
        assert!(find_hash(&plan.root), "expected a hash join in {:?}", plan.root);
    }
}
