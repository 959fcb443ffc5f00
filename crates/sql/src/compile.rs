//! Compilation of SQL expressions and predicates into positional programs.
//!
//! The naive interpreter ([`eval_query_unoptimized`](crate::eval_query_unoptimized))
//! resolves every column reference with [`resolve_column`] — a
//! case-insensitive string scan over the scope's column list — for **every
//! row**.  This module lowers [`SqlExpr`]/[`SqlPred`] trees against a fixed
//! column layout **once per operator**, producing programs whose column
//! references are plain positional indexes:
//!
//! * [`CExpr`] / [`CPred`] — row-level programs used by selections,
//!   projections, join predicates, grouping keys and aggregate inputs;
//! * [`CGroupExpr`] / [`CGroupPred`] — group-level programs used by
//!   `GROUP BY` projections and `HAVING` predicates.
//!
//! The programs are **owned**, so a [`crate::plan::CompiledQuery`] can be
//! cached independently of the AST it was compiled from and shared across
//! threads (`CompiledQuery: Send + Sync`).
//!
//! Compilation never fails: references that do not resolve against the
//! local layout are kept symbolic ([`CExpr::Outer`]) and read the bound
//! outer row at runtime, which is exactly how correlated subqueries
//! resolve their free columns.  Constructs that are *errors* when evaluated
//! (an aggregate in scalar position, a bare `*`) compile to explicit error
//! instructions so the executor reports the same errors, in the same
//! situations, as the interpreter — including not reporting them at all
//! when no row is ever evaluated.
//!
//! Subqueries are compiled too: [`CPred::InQuery`] and [`CPred::Exists`]
//! carry a [`SubPlan`], lowered against the same base tables and the CTE
//! layouts in scope where the subquery appears.

use crate::ast::{ColumnRef, SqlExpr, SqlPred};
use crate::eval::resolve_column;
use crate::plan::{Layouts, SubPlan};
use graphiti_common::{AggKind, BinArith, CmpOp, Value};

/// A scalar expression lowered against a fixed column layout.
#[derive(Debug)]
pub enum CExpr {
    /// A column resolved to a positional index in the current row.
    Col(usize),
    /// A column that did not resolve locally: read from the bound outer row
    /// of a correlated subquery (an error where no outer row binds it).
    Outer(ColumnRef),
    /// A literal.
    Value(Value),
    /// `Cast(φ)` over a compiled predicate.
    Cast(Box<CPred>),
    /// Binary arithmetic.
    Arith(Box<CExpr>, BinArith, Box<CExpr>),
    /// An aggregate in scalar position — an error if ever evaluated.
    ScalarAgg,
    /// A bare `*` outside `Count(*)` — an error if ever evaluated.
    Star,
}

/// A predicate lowered against a fixed column layout.
#[derive(Debug)]
pub enum CPred {
    /// Boolean constant.
    Bool(bool),
    /// Comparison.
    Cmp(CExpr, CmpOp, CExpr),
    /// `E IS NULL`.
    IsNull(CExpr),
    /// `E IN (v1, ..., vn)`.
    InList(CExpr, Vec<Value>),
    /// Tuple membership in a compiled subquery.
    InQuery(Vec<CExpr>, Box<SubPlan>),
    /// `EXISTS` over a compiled subquery.
    Exists(Box<SubPlan>),
    /// Conjunction.
    And(Box<CPred>, Box<CPred>),
    /// Disjunction.
    Or(Box<CPred>, Box<CPred>),
    /// Negation.
    Not(Box<CPred>),
}

/// A group-level expression: aggregates fold over the group's rows, scalar
/// parts evaluate on the group's first row.
#[derive(Debug)]
pub enum CGroupExpr {
    /// `Count(*)` — the group's cardinality.
    CountStar,
    /// An aggregate over a compiled row expression; the flag is `DISTINCT`.
    Agg(AggKind, CExpr, bool),
    /// Arithmetic over group-level operands.
    Arith(Box<CGroupExpr>, BinArith, Box<CGroupExpr>),
    /// A non-aggregate expression, evaluated on the group's first row
    /// (`Null` for an empty group).
    Scalar(CExpr),
    /// `*` under a non-COUNT aggregate — an error if ever evaluated.
    StarAgg,
}

/// A group-level predicate (`HAVING`).
#[derive(Debug)]
pub enum CGroupPred {
    /// Boolean constant.
    Bool(bool),
    /// Comparison of group-level expressions.
    Cmp(CGroupExpr, CmpOp, CGroupExpr),
    /// `E IS NULL` at group level.
    IsNull(CGroupExpr),
    /// `E IN (v1, ..., vn)` at group level.
    InList(CGroupExpr, Vec<Value>),
    /// A subquery predicate, evaluated as a row-level program on the
    /// group's first row (`Unknown` for an empty group).
    FirstRow(CPred),
    /// Conjunction.
    And(Box<CGroupPred>, Box<CGroupPred>),
    /// Disjunction.
    Or(Box<CGroupPred>, Box<CGroupPred>),
    /// Negation.
    Not(Box<CGroupPred>),
}

/// Lowers a scalar expression against `columns`.
pub fn compile_expr(e: &SqlExpr, columns: &[String], layouts: &Layouts<'_>) -> CExpr {
    match e {
        SqlExpr::Col(c) => match resolve_column(columns, c) {
            Some(idx) => CExpr::Col(idx),
            None => CExpr::Outer(c.clone()),
        },
        SqlExpr::Value(v) => CExpr::Value(v.clone()),
        SqlExpr::Cast(p) => CExpr::Cast(Box::new(compile_pred(p, columns, layouts))),
        SqlExpr::Agg(..) => CExpr::ScalarAgg,
        SqlExpr::Arith(a, op, b) => CExpr::Arith(
            Box::new(compile_expr(a, columns, layouts)),
            *op,
            Box::new(compile_expr(b, columns, layouts)),
        ),
        SqlExpr::Star => CExpr::Star,
    }
}

/// Lowers a predicate against `columns`.
pub fn compile_pred(p: &SqlPred, columns: &[String], layouts: &Layouts<'_>) -> CPred {
    let pred = |p: &SqlPred| Box::new(compile_pred(p, columns, layouts));
    match p {
        SqlPred::Bool(b) => CPred::Bool(*b),
        SqlPred::Cmp(a, op, b) => {
            CPred::Cmp(compile_expr(a, columns, layouts), *op, compile_expr(b, columns, layouts))
        }
        SqlPred::IsNull(e) => CPred::IsNull(compile_expr(e, columns, layouts)),
        SqlPred::InList(e, vs) => CPred::InList(compile_expr(e, columns, layouts), vs.clone()),
        SqlPred::InQuery(es, sub) => CPred::InQuery(
            es.iter().map(|e| compile_expr(e, columns, layouts)).collect(),
            Box::new(layouts.subplan(sub)),
        ),
        SqlPred::Exists(sub) => CPred::Exists(Box::new(layouts.subplan(sub))),
        SqlPred::And(a, b) => CPred::And(pred(a), pred(b)),
        SqlPred::Or(a, b) => CPred::Or(pred(a), pred(b)),
        SqlPred::Not(inner) => CPred::Not(pred(inner)),
    }
}

/// Lowers a group-level expression (a `GROUP BY` projection item) against
/// `columns`.
pub fn compile_group_expr(e: &SqlExpr, columns: &[String], layouts: &Layouts<'_>) -> CGroupExpr {
    match e {
        SqlExpr::Agg(kind, inner, distinct) => {
            if matches!(inner.as_ref(), SqlExpr::Star) {
                if *kind == AggKind::Count {
                    CGroupExpr::CountStar
                } else {
                    CGroupExpr::StarAgg
                }
            } else {
                CGroupExpr::Agg(*kind, compile_expr(inner, columns, layouts), *distinct)
            }
        }
        SqlExpr::Arith(a, op, b) => CGroupExpr::Arith(
            Box::new(compile_group_expr(a, columns, layouts)),
            *op,
            Box::new(compile_group_expr(b, columns, layouts)),
        ),
        other => CGroupExpr::Scalar(compile_expr(other, columns, layouts)),
    }
}

/// Lowers a `HAVING` predicate against `columns`.
pub fn compile_group_pred(p: &SqlPred, columns: &[String], layouts: &Layouts<'_>) -> CGroupPred {
    let expr = |e: &SqlExpr| compile_group_expr(e, columns, layouts);
    let pred = |p: &SqlPred| Box::new(compile_group_pred(p, columns, layouts));
    match p {
        SqlPred::Bool(b) => CGroupPred::Bool(*b),
        SqlPred::Cmp(a, op, b) => CGroupPred::Cmp(expr(a), *op, expr(b)),
        SqlPred::IsNull(e) => CGroupPred::IsNull(expr(e)),
        SqlPred::InList(e, vs) => CGroupPred::InList(expr(e), vs.clone()),
        SqlPred::InQuery(..) | SqlPred::Exists(_) => {
            CGroupPred::FirstRow(compile_pred(p, columns, layouts))
        }
        SqlPred::And(a, b) => CGroupPred::And(pred(a), pred(b)),
        SqlPred::Or(a, b) => CGroupPred::Or(pred(a), pred(b)),
        SqlPred::Not(inner) => CGroupPred::Not(pred(inner)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{SelectItem, SqlQuery};
    use graphiti_relational::RelInstance;
    use std::collections::HashMap;

    fn cols() -> Vec<String> {
        vec!["e.id".to_string(), "e.name".to_string()]
    }

    fn with_layouts<T>(f: impl FnOnce(&Layouts<'_>) -> T) -> T {
        f(&Layouts::new(&RelInstance::new(), &HashMap::new()))
    }

    fn compile_expr(e: &SqlExpr, columns: &[String]) -> CExpr {
        with_layouts(|l| super::compile_expr(e, columns, l))
    }

    fn compile_pred(p: &SqlPred, columns: &[String]) -> CPred {
        with_layouts(|l| super::compile_pred(p, columns, l))
    }

    fn compile_group_expr(e: &SqlExpr, columns: &[String]) -> CGroupExpr {
        with_layouts(|l| super::compile_group_expr(e, columns, l))
    }

    #[test]
    fn columns_resolve_to_positions() {
        let e = SqlExpr::col("e", "name");
        match compile_expr(&e, &cols()) {
            CExpr::Col(1) => {}
            other => panic!("expected Col(1), got {other:?}"),
        }
    }

    #[test]
    fn unresolved_columns_stay_symbolic() {
        let e = SqlExpr::col("outer_t", "x");
        match compile_expr(&e, &cols()) {
            CExpr::Outer(c) => assert_eq!(c.render(), "outer_t.x"),
            other => panic!("expected Outer, got {other:?}"),
        }
    }

    #[test]
    fn predicates_lower_recursively() {
        let p = SqlPred::and(
            SqlPred::cmp(SqlExpr::col("e", "id"), graphiti_common::CmpOp::Gt, SqlExpr::value(1)),
            SqlPred::IsNull(Box::new(SqlExpr::col("e", "name"))),
        );
        match compile_pred(&p, &cols()) {
            CPred::And(a, b) => {
                assert!(matches!(*a, CPred::Cmp(CExpr::Col(0), _, CExpr::Value(_))));
                assert!(matches!(*b, CPred::IsNull(CExpr::Col(1))));
            }
            other => panic!("expected And, got {other:?}"),
        }
    }

    #[test]
    fn group_exprs_split_aggregates_from_scalars() {
        let item = SelectItem::expr(SqlExpr::count_star());
        assert!(matches!(compile_group_expr(&item.expr, &cols()), CGroupExpr::CountStar));
        let agg = SqlExpr::agg(AggKind::Sum, SqlExpr::col("e", "id"));
        assert!(matches!(
            compile_group_expr(&agg, &cols()),
            CGroupExpr::Agg(AggKind::Sum, CExpr::Col(0), false)
        ));
        let scalar = SqlExpr::col("e", "name");
        assert!(matches!(compile_group_expr(&scalar, &cols()), CGroupExpr::Scalar(CExpr::Col(1))));
    }

    #[test]
    fn star_under_non_count_is_a_deferred_error() {
        let bad = SqlExpr::agg(AggKind::Sum, SqlExpr::Star);
        assert!(matches!(compile_group_expr(&bad, &cols()), CGroupExpr::StarAgg));
    }

    #[test]
    fn subqueries_compile_to_sub_plans_with_deferred_errors() {
        let p = SqlPred::and(
            SqlPred::Exists(Box::new(SqlQuery::Table("missing".into()))),
            SqlPred::not(SqlPred::InQuery(
                vec![SqlExpr::value(1)],
                Box::new(SqlQuery::Table("t".into())),
            )),
        );
        match compile_pred(&p, &cols()) {
            CPred::And(a, b) => {
                // Unknown tables inside a subquery fail only if it runs.
                assert!(matches!(&*a, CPred::Exists(sub) if sub.root.is_err()));
                assert!(matches!(&*b, CPred::Not(inner) if matches!(&**inner, CPred::InQuery(..))));
            }
            other => panic!("expected And, got {other:?}"),
        }
    }
}
