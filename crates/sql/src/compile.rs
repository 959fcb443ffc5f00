//! Compilation of SQL expressions and predicates into positional programs.
//!
//! The tree-walking interpreter resolves every column reference with
//! [`resolve_column`] — a case-insensitive
//! string scan over the scope's column list that allocates per lookup — for
//! **every row**.  This module lowers [`SqlExpr`]/[`SqlPred`] trees against
//! a fixed column layout **once per operator**, producing programs whose
//! column references are plain positional indexes:
//!
//! * [`CExpr`] / [`CPred`] — row-at-a-time programs used by selections,
//!   projections, and join predicates;
//! * [`CGroupExpr`] / [`CGroupPred`] — group-at-a-time programs used by
//!   `GROUP BY` projections and `HAVING` predicates, with aggregates folded
//!   over the group's member rows.
//!
//! The programs are **owned**: literals are cheap clones (string values are
//! interned `Arc<str>`s), column references that stay symbolic are cloned,
//! and subqueries are lifted into `Arc<SqlQuery>`.  Owning the program is
//! what lets [`crate::plan::CompiledQuery`] cache a fully-compiled query
//! independently of the AST it was compiled from and share it across
//! threads (`CompiledQuery: Send + Sync`).
//!
//! Compilation never fails: references that do not resolve against the
//! local layout are kept symbolic ([`CExpr::Outer`]) and fall back to the
//! outer-scope chain at runtime, which is exactly how correlated subqueries
//! resolve their free columns.  Constructs that are *errors* when evaluated
//! (an aggregate in scalar position, a bare `*`) compile to explicit error
//! instructions so the compiled engine reports the same errors, in the same
//! situations, as the interpreter — including not reporting them at all
//! when no row is ever evaluated.
//!
//! Subqueries are not compiled into the program: [`CPred::InQuery`] and
//! [`CPred::Exists`] carry the subquery AST behind an `Arc` and re-enter
//! the evaluator, which caches uncorrelated results per operator exactly
//! like the interpreted path (the cache is keyed by the `Arc`'s pointer
//! identity, see [`CPred::collect_subqueries`]).

use crate::ast::{ColumnRef, SqlExpr, SqlPred, SqlQuery};
use crate::eval::resolve_column;
use graphiti_common::{AggKind, BinArith, CmpOp, Value};
use std::sync::Arc;

/// A scalar expression lowered against a fixed column layout.
#[derive(Debug, Clone)]
pub enum CExpr {
    /// A column resolved to a positional index in the current row.
    Col(usize),
    /// A column that did not resolve locally: looked up through the scope
    /// chain at runtime (correlated / outer references).
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
#[derive(Debug, Clone)]
pub enum CPred {
    /// Boolean constant.
    Bool(bool),
    /// Comparison.
    Cmp(CExpr, CmpOp, CExpr),
    /// `E IS NULL`.
    IsNull(CExpr),
    /// `E IN (v1, ..., vn)`.
    InList(CExpr, Vec<Value>),
    /// Tuple membership in a subquery; the subquery re-enters the evaluator.
    InQuery(Vec<CExpr>, Arc<SqlQuery>),
    /// `EXISTS (SELECT ...)`; the subquery re-enters the evaluator.
    Exists(Arc<SqlQuery>),
    /// Conjunction.
    And(Box<CPred>, Box<CPred>),
    /// Disjunction.
    Or(Box<CPred>, Box<CPred>),
    /// Negation.
    Not(Box<CPred>),
}

/// A group-level expression: aggregates fold over the group's rows, scalar
/// parts evaluate on the group's first row.
#[derive(Debug, Clone)]
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
#[derive(Debug, Clone)]
pub enum CGroupPred {
    /// Boolean constant.
    Bool(bool),
    /// Comparison of group-level expressions.
    Cmp(CGroupExpr, CmpOp, CGroupExpr),
    /// `E IS NULL` at group level.
    IsNull(CGroupExpr),
    /// `E IN (v1, ..., vn)` at group level.
    InList(CGroupExpr, Vec<Value>),
    /// A subquery predicate, delegated to the row-wise evaluator on the
    /// group's first row (`Unknown` for an empty group).
    Subquery(SqlPred),
    /// Conjunction.
    And(Box<CGroupPred>, Box<CGroupPred>),
    /// Disjunction.
    Or(Box<CGroupPred>, Box<CGroupPred>),
    /// Negation.
    Not(Box<CGroupPred>),
}

fn lift_subquery(sub: &SqlQuery) -> Arc<SqlQuery> {
    Arc::new(sub.clone())
}

/// Lowers a scalar expression against `columns`.
pub fn compile_expr(e: &SqlExpr, columns: &[String]) -> CExpr {
    match e {
        SqlExpr::Col(c) => match resolve_column(columns, c) {
            Some(idx) => CExpr::Col(idx),
            None => CExpr::Outer(c.clone()),
        },
        SqlExpr::Value(v) => CExpr::Value(v.clone()),
        SqlExpr::Cast(p) => CExpr::Cast(Box::new(compile_pred(p, columns))),
        SqlExpr::Agg(..) => CExpr::ScalarAgg,
        SqlExpr::Arith(a, op, b) => CExpr::Arith(
            Box::new(compile_expr(a, columns)),
            *op,
            Box::new(compile_expr(b, columns)),
        ),
        SqlExpr::Star => CExpr::Star,
    }
}

/// Lowers a predicate against `columns`.
pub fn compile_pred(p: &SqlPred, columns: &[String]) -> CPred {
    match p {
        SqlPred::Bool(b) => CPred::Bool(*b),
        SqlPred::Cmp(a, op, b) => {
            CPred::Cmp(compile_expr(a, columns), *op, compile_expr(b, columns))
        }
        SqlPred::IsNull(e) => CPred::IsNull(compile_expr(e, columns)),
        SqlPred::InList(e, vs) => CPred::InList(compile_expr(e, columns), vs.clone()),
        SqlPred::InQuery(es, sub) => CPred::InQuery(
            es.iter().map(|e| compile_expr(e, columns)).collect(),
            lift_subquery(sub),
        ),
        SqlPred::Exists(sub) => CPred::Exists(lift_subquery(sub)),
        SqlPred::And(a, b) => {
            CPred::And(Box::new(compile_pred(a, columns)), Box::new(compile_pred(b, columns)))
        }
        SqlPred::Or(a, b) => {
            CPred::Or(Box::new(compile_pred(a, columns)), Box::new(compile_pred(b, columns)))
        }
        SqlPred::Not(inner) => CPred::Not(Box::new(compile_pred(inner, columns))),
    }
}

/// Lowers a group-level expression (a `GROUP BY` projection item) against
/// `columns`.
pub fn compile_group_expr(e: &SqlExpr, columns: &[String]) -> CGroupExpr {
    match e {
        SqlExpr::Agg(kind, inner, distinct) => {
            if matches!(inner.as_ref(), SqlExpr::Star) {
                if *kind == AggKind::Count {
                    CGroupExpr::CountStar
                } else {
                    CGroupExpr::StarAgg
                }
            } else {
                CGroupExpr::Agg(*kind, compile_expr(inner, columns), *distinct)
            }
        }
        SqlExpr::Arith(a, op, b) => CGroupExpr::Arith(
            Box::new(compile_group_expr(a, columns)),
            *op,
            Box::new(compile_group_expr(b, columns)),
        ),
        other => CGroupExpr::Scalar(compile_expr(other, columns)),
    }
}

/// Lowers a `HAVING` predicate against `columns`.
pub fn compile_group_pred(p: &SqlPred, columns: &[String]) -> CGroupPred {
    match p {
        SqlPred::Bool(b) => CGroupPred::Bool(*b),
        SqlPred::Cmp(a, op, b) => {
            CGroupPred::Cmp(compile_group_expr(a, columns), *op, compile_group_expr(b, columns))
        }
        SqlPred::IsNull(e) => CGroupPred::IsNull(compile_group_expr(e, columns)),
        SqlPred::InList(e, vs) => CGroupPred::InList(compile_group_expr(e, columns), vs.clone()),
        SqlPred::InQuery(..) | SqlPred::Exists(_) => CGroupPred::Subquery(p.clone()),
        SqlPred::And(a, b) => CGroupPred::And(
            Box::new(compile_group_pred(a, columns)),
            Box::new(compile_group_pred(b, columns)),
        ),
        SqlPred::Or(a, b) => CGroupPred::Or(
            Box::new(compile_group_pred(a, columns)),
            Box::new(compile_group_pred(b, columns)),
        ),
        SqlPred::Not(inner) => CGroupPred::Not(Box::new(compile_group_pred(inner, columns))),
    }
}

impl CPred {
    /// Collects the subqueries that the evaluator pre-computes into its
    /// per-operator cache.
    ///
    /// This mirrors the interpreter's `cache_subqueries` walk exactly: only
    /// the predicate's connective structure (`AND`/`OR`/`NOT`) is
    /// traversed — subqueries nested inside `Cast` expressions are *not*
    /// collected, matching the interpreted path's (lack of) caching for
    /// them.  The returned references carry the `Arc` pointer identity the
    /// runtime cache is keyed by.
    pub fn collect_subqueries<'a>(&'a self, out: &mut Vec<&'a SqlQuery>) {
        match self {
            CPred::InQuery(_, sub) => out.push(sub),
            CPred::Exists(sub) => out.push(sub),
            CPred::And(a, b) | CPred::Or(a, b) => {
                a.collect_subqueries(out);
                b.collect_subqueries(out);
            }
            CPred::Not(inner) => inner.collect_subqueries(out),
            _ => {}
        }
    }
}

impl CGroupPred {
    /// Collects cacheable subqueries, mirroring the interpreter's walk over
    /// the original `HAVING` predicate: group-level connectives recurse,
    /// and a [`CGroupPred::Subquery`] leaf contributes the subqueries of
    /// its retained row-level predicate.
    pub fn collect_subqueries<'a>(&'a self, out: &mut Vec<&'a SqlQuery>) {
        match self {
            CGroupPred::Subquery(p) => collect_ast_subqueries(p, out),
            CGroupPred::And(a, b) | CGroupPred::Or(a, b) => {
                a.collect_subqueries(out);
                b.collect_subqueries(out);
            }
            CGroupPred::Not(inner) => inner.collect_subqueries(out),
            _ => {}
        }
    }
}

/// The interpreter's `cache_subqueries` walk over an AST predicate,
/// exposed so compiled `HAVING` programs (which retain subquery predicates
/// as ASTs) cache the same subqueries the interpreter would.
pub(crate) fn collect_ast_subqueries<'a>(p: &'a SqlPred, out: &mut Vec<&'a SqlQuery>) {
    match p {
        SqlPred::InQuery(_, sub) | SqlPred::Exists(sub) => out.push(sub),
        SqlPred::And(a, b) | SqlPred::Or(a, b) => {
            collect_ast_subqueries(a, out);
            collect_ast_subqueries(b, out);
        }
        SqlPred::Not(inner) => collect_ast_subqueries(inner, out),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::SelectItem;

    fn cols() -> Vec<String> {
        vec!["e.id".to_string(), "e.name".to_string()]
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
    fn subquery_collection_matches_connective_structure() {
        let sub = SqlQuery::Table("t".into());
        let p = SqlPred::and(
            SqlPred::Exists(Box::new(sub.clone())),
            SqlPred::not(SqlPred::InQuery(vec![SqlExpr::value(1)], Box::new(sub))),
        );
        let program = compile_pred(&p, &cols());
        let mut subs = Vec::new();
        program.collect_subqueries(&mut subs);
        assert_eq!(subs.len(), 2);
    }
}
