//! A small logical optimizer: selection pushdown into join trees.
//!
//! Hand-written SQL benchmarks frequently use the textbook
//! `FROM a, b, c WHERE a.x = b.y AND ...` style, which parses to a selection
//! over a chain of Cartesian products.  Evaluating that literally
//! materializes the full product, which is hopeless at the row counts used
//! by the Table 4 experiment.  This pass pushes conjuncts of a selection
//! into the join tree:
//!
//! * join conjuncts (`a.x = b.y`) are attached to the lowest join node whose
//!   two sides provide the referenced aliases, turning a cross join into an
//!   inner join that the evaluator executes as a hash join;
//! * single-side conjuncts (`a.x = 1`) are pushed to the subtree providing
//!   the alias;
//! * conjuncts with unqualified columns, subqueries, or anything else we
//!   cannot prove safe stay in the top-level selection;
//! * a conjunct reaches into an outer join only on its preserved side (a
//!   `LEFT JOIN`'s left input, a `RIGHT JOIN`'s right input): filtering
//!   the preserved rows before the join drops exactly the output rows
//!   they would have produced.  A conjunct on the null-supplying side
//!   stays above the join, and nothing enters a `FULL JOIN` or an outer
//!   join's `ON`.  Row order is kept: filters keep their input's order,
//!   and joins emit left-major output.
//!
//! The pass is purely a performance optimization; `eval_query_unoptimized`
//! bypasses it and the `hash_join_agrees_with_nested_loop` test plus the
//! ablation benchmark check that results are unchanged.

use crate::ast::*;
use std::collections::HashSet;

/// Optimizes a query (recursively, including subqueries in predicates).
pub fn optimize(q: &SqlQuery) -> SqlQuery {
    match q {
        SqlQuery::Table(n) => SqlQuery::Table(n.clone()),
        SqlQuery::Rename { input, alias } => {
            SqlQuery::Rename { input: Box::new(optimize(input)), alias: alias.clone() }
        }
        SqlQuery::Project { input, items, distinct } => SqlQuery::Project {
            input: Box::new(optimize(input)),
            items: items.iter().map(optimize_item).collect(),
            distinct: *distinct,
        },
        SqlQuery::Select { input, pred } => {
            let input = optimize(input);
            let pred = optimize_pred(pred);
            push_selection(input, pred)
        }
        SqlQuery::Join { left, right, kind, pred } => SqlQuery::Join {
            left: Box::new(optimize(left)),
            right: Box::new(optimize(right)),
            kind: *kind,
            pred: optimize_pred(pred),
        },
        SqlQuery::Union(a, b) => SqlQuery::Union(Box::new(optimize(a)), Box::new(optimize(b))),
        SqlQuery::UnionAll(a, b) => {
            SqlQuery::UnionAll(Box::new(optimize(a)), Box::new(optimize(b)))
        }
        SqlQuery::GroupBy { input, keys, items, having } => SqlQuery::GroupBy {
            input: Box::new(optimize(input)),
            keys: keys.clone(),
            items: items.iter().map(optimize_item).collect(),
            having: optimize_pred(having),
        },
        SqlQuery::With { name, definition, body } => SqlQuery::With {
            name: name.clone(),
            definition: Box::new(optimize(definition)),
            body: Box::new(optimize(body)),
        },
        SqlQuery::OrderBy { input, keys } => {
            SqlQuery::OrderBy { input: Box::new(optimize(input)), keys: keys.clone() }
        }
    }
}

fn optimize_item(item: &SelectItem) -> SelectItem {
    SelectItem { expr: item.expr.clone(), alias: item.alias.clone() }
}

fn optimize_pred(p: &SqlPred) -> SqlPred {
    match p {
        SqlPred::InQuery(es, q) => SqlPred::InQuery(es.clone(), Box::new(optimize(q))),
        SqlPred::Exists(q) => SqlPred::Exists(Box::new(optimize(q))),
        SqlPred::And(a, b) => SqlPred::And(Box::new(optimize_pred(a)), Box::new(optimize_pred(b))),
        SqlPred::Or(a, b) => SqlPred::Or(Box::new(optimize_pred(a)), Box::new(optimize_pred(b))),
        SqlPred::Not(inner) => SqlPred::Not(Box::new(optimize_pred(inner))),
        other => other.clone(),
    }
}

/// Pushes the conjuncts of `pred` into the join tree `input` where safe.
fn push_selection(input: SqlQuery, pred: SqlPred) -> SqlQuery {
    if !matches!(input, SqlQuery::Join { .. }) {
        return wrap_select(input, pred);
    }
    let conjuncts: Vec<SqlPred> = pred.conjuncts().into_iter().cloned().collect();
    let mut tree = input;
    let mut leftover: Vec<SqlPred> = Vec::new();
    for conjunct in conjuncts {
        if conjunct.has_subquery() {
            leftover.push(conjunct);
            continue;
        }
        let quals = qualifiers_of(&conjunct);
        match quals {
            Some(quals) if !quals.is_empty() => {
                let (new_tree, pushed) = push_conjunct(tree, &conjunct, &quals);
                tree = new_tree;
                if !pushed {
                    leftover.push(conjunct);
                }
            }
            _ => leftover.push(conjunct),
        }
    }
    wrap_select(tree, SqlPred::conjunction(leftover))
}

fn wrap_select(input: SqlQuery, pred: SqlPred) -> SqlQuery {
    if matches!(pred, SqlPred::Bool(true)) {
        input
    } else {
        SqlQuery::Select { input: Box::new(input), pred }
    }
}

/// The set of table qualifiers referenced by a conjunct, or `None` if any
/// column is unqualified (in which case we cannot determine provenance).
fn qualifiers_of(p: &SqlPred) -> Option<HashSet<String>> {
    let mut out = HashSet::new();
    for c in p.columns() {
        match &c.qualifier {
            Some(q) => {
                out.insert(q.as_str().to_ascii_lowercase());
            }
            None => return None,
        }
    }
    Some(out)
}

/// The aliases (or base-table names) a from-tree exposes at its top level.
fn provided_aliases(q: &SqlQuery) -> HashSet<String> {
    let mut out = HashSet::new();
    match q {
        SqlQuery::Table(n) => {
            out.insert(n.as_str().to_ascii_lowercase());
        }
        SqlQuery::Rename { alias, .. } => {
            out.insert(alias.as_str().to_ascii_lowercase());
        }
        SqlQuery::Join { left, right, .. } => {
            out.extend(provided_aliases(left));
            out.extend(provided_aliases(right));
        }
        SqlQuery::Select { input, .. } => out.extend(provided_aliases(input)),
        _ => {}
    }
    out
}

/// Attempts to push one conjunct into a join tree. Returns the (possibly
/// rewritten) tree and whether the conjunct was attached.
fn push_conjunct(tree: SqlQuery, conjunct: &SqlPred, quals: &HashSet<String>) -> (SqlQuery, bool) {
    match tree {
        SqlQuery::Join { left, right, kind, pred } if kind != JoinKind::Full => {
            let inner = matches!(kind, JoinKind::Cross | JoinKind::Inner);
            let left_aliases = provided_aliases(&left);
            let right_aliases = provided_aliases(&right);
            if (inner || kind == JoinKind::Left) && quals.is_subset(&left_aliases) {
                let (new_left, pushed) = push_conjunct(*left, conjunct, quals);
                let new_left = if pushed {
                    new_left
                } else {
                    return (
                        SqlQuery::Join {
                            left: Box::new(wrap_select(new_left, conjunct.clone())),
                            right,
                            kind,
                            pred,
                        },
                        true,
                    );
                };
                return (SqlQuery::Join { left: Box::new(new_left), right, kind, pred }, true);
            }
            if (inner || kind == JoinKind::Right) && quals.is_subset(&right_aliases) {
                let (new_right, pushed) = push_conjunct(*right, conjunct, quals);
                let new_right = if pushed {
                    new_right
                } else {
                    return (
                        SqlQuery::Join {
                            left,
                            right: Box::new(wrap_select(new_right, conjunct.clone())),
                            kind,
                            pred,
                        },
                        true,
                    );
                };
                return (SqlQuery::Join { left, right: Box::new(new_right), kind, pred }, true);
            }
            let all: HashSet<String> = left_aliases.union(&right_aliases).cloned().collect();
            if inner && quals.is_subset(&all) {
                let new_pred = SqlPred::and(pred, conjunct.clone());
                return (
                    SqlQuery::Join { left, right, kind: JoinKind::Inner, pred: new_pred },
                    true,
                );
            }
            (SqlQuery::Join { left, right, kind, pred }, false)
        }
        other => (other, false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn count_kind(q: &SqlQuery, target: JoinKind) -> usize {
        match q {
            SqlQuery::Join { left, right, kind, .. } => {
                (*kind == target) as usize + count_kind(left, target) + count_kind(right, target)
            }
            SqlQuery::Select { input, .. }
            | SqlQuery::Project { input, .. }
            | SqlQuery::Rename { input, .. }
            | SqlQuery::GroupBy { input, .. }
            | SqlQuery::OrderBy { input, .. } => count_kind(input, target),
            SqlQuery::Union(a, b) | SqlQuery::UnionAll(a, b) => {
                count_kind(a, target) + count_kind(b, target)
            }
            SqlQuery::With { definition, body, .. } => {
                count_kind(definition, target) + count_kind(body, target)
            }
            SqlQuery::Table(_) => 0,
        }
    }

    #[test]
    fn cross_joins_become_inner_joins() {
        let q = parse_query(
            "SELECT c2.CID FROM Cs AS c2, Pa AS p2, Sp AS s2 \
             WHERE s2.PID = p2.PID AND p2.CSID = c2.CSID AND c2.CID = 1",
        )
        .unwrap();
        assert_eq!(count_kind(&q, JoinKind::Cross), 2);
        let opt = optimize(&q);
        assert_eq!(count_kind(&opt, JoinKind::Cross), 0);
        assert_eq!(count_kind(&opt, JoinKind::Inner), 2);
    }

    /// A compact rendering of a from-tree: `σ[quals](…)` for a selection,
    /// `Kind(left, right)` for a join, the alias for a scan.
    fn shape(q: &SqlQuery) -> String {
        match q {
            SqlQuery::Project { input, .. } => shape(input),
            SqlQuery::Select { input, pred } => {
                let mut quals: Vec<String> = qualifiers_of(pred).unwrap().into_iter().collect();
                quals.sort();
                format!("σ[{}]({})", quals.join(","), shape(input))
            }
            SqlQuery::Join { left, right, kind, .. } => {
                format!("{kind:?}({}, {})", shape(left), shape(right))
            }
            SqlQuery::Rename { alias, .. } => alias.as_str().to_string(),
            other => format!("{other:?}"),
        }
    }

    #[test]
    fn outer_joins_take_conjuncts_only_on_their_preserved_side() {
        let cases = [
            (
                "t AS a LEFT JOIN s AS b ON a.id = b.id",
                "a.x = 1 AND b.y = 2",
                "σ[b](Left(σ[a](a), b))",
            ),
            (
                "t AS a RIGHT JOIN s AS b ON a.id = b.id",
                "a.x = 1 AND b.y = 2",
                "σ[a](Right(a, σ[b](b)))",
            ),
            ("t AS a FULL JOIN s AS b ON a.id = b.id", "a.x = 1 AND b.y = 2", "σ[a,b](Full(a, b))"),
            ("t AS a LEFT JOIN s AS b ON a.id = b.id", "a.x = b.y", "σ[a,b](Left(a, b))"),
            (
                "t AS a LEFT JOIN s AS b ON a.id = b.id JOIN u AS c ON c.id = a.id",
                "a.x = 1 AND b.y = 2 AND c.z = 3",
                "Inner(σ[b](Left(σ[a](a), b)), σ[c](c))",
            ),
            (
                "u AS c JOIN t AS a ON c.id = a.id RIGHT JOIN s AS b ON a.id = b.id",
                "a.x = 1 AND b.y = 2 AND c.z = 3",
                "σ[a,c](Right(Inner(c, a), σ[b](b)))",
            ),
        ];
        for (from, conjuncts, want) in cases {
            let q = parse_query(&format!("SELECT a.x FROM {from} WHERE {conjuncts}")).unwrap();
            assert_eq!(shape(&optimize(&q)), want, "FROM {from} WHERE {conjuncts}");
        }
    }

    /// Optimized plans of outer joins nested with inner joins, with
    /// conjuncts on the preserved side, the null-supplying side and both,
    /// give the unoptimized oracle's tables exactly, row order included.
    #[test]
    fn pushed_conjuncts_keep_outer_join_answers() {
        use crate::eval::eval_query_unoptimized;
        use crate::vectorized::eval_query;
        use graphiti_common::Value;
        use graphiti_relational::{RelInstance, Table};
        let v = |x: Option<i64>| x.map_or(Value::Null, Value::Int);
        let table = |cols: [&str; 2], rows: &[(i64, Option<i64>)]| {
            Table::with_rows(
                cols,
                rows.iter().map(|(id, x)| vec![Value::Int(*id), v(*x)]).collect::<Vec<_>>(),
            )
        };
        let mut inst = RelInstance::new();
        inst.insert_table(
            "t",
            table(
                ["id", "x"],
                &[(1, Some(1)), (2, Some(1)), (3, Some(2)), (4, None), (5, Some(1))],
            ),
        );
        inst.insert_table(
            "s",
            table(
                ["id", "y"],
                &[(1, Some(2)), (2, Some(3)), (6, Some(2)), (3, Some(2)), (3, None)],
            ),
        );
        inst.insert_table(
            "u",
            table(
                ["id", "z"],
                &[(1, Some(3)), (2, Some(3)), (3, Some(4)), (6, Some(3)), (5, Some(3))],
            ),
        );
        let shapes = [
            "t AS a {K} JOIN s AS b ON a.id = b.id JOIN u AS c ON c.id = a.id",
            "u AS c JOIN t AS a ON c.id = a.id {K} JOIN s AS b ON a.id = b.id",
            "t AS a JOIN u AS c ON c.id = a.id {K} JOIN s AS b ON b.id = c.id",
        ];
        let conjuncts =
            ["a.x = 1", "b.y = 2", "a.x = 1 AND b.y = 2", "a.x = b.y", "c.z = 3 AND b.y = 2"];
        for kind in ["LEFT", "RIGHT", "FULL"] {
            for from in shapes {
                for pred in conjuncts {
                    let text = format!(
                        "SELECT a.x, b.y, c.z FROM {} WHERE {pred}",
                        from.replace("{K}", kind)
                    );
                    let q = parse_query(&text).unwrap();
                    let oracle = eval_query_unoptimized(&inst, &q).unwrap();
                    assert_eq!(
                        eval_query_unoptimized(&inst, &optimize(&q)).unwrap(),
                        oracle,
                        "{text}"
                    );
                    assert_eq!(eval_query(&inst, &q).unwrap(), oracle, "{text}");
                }
            }
        }
    }

    #[test]
    fn subquery_conjuncts_stay_on_top() {
        let q = parse_query(
            "SELECT a.x FROM t AS a, s AS b WHERE a.id = b.id AND a.x IN (SELECT c.x FROM u AS c)",
        )
        .unwrap();
        let opt = optimize(&q);
        // The equi conjunct is pushed, the IN-subquery conjunct remains in a
        // selection above the join.
        fn top_select_pred(q: &SqlQuery) -> Option<&SqlPred> {
            match q {
                SqlQuery::Project { input, .. } => top_select_pred(input),
                SqlQuery::Select { pred, .. } => Some(pred),
                _ => None,
            }
        }
        let pred = top_select_pred(&opt).expect("selection should remain");
        assert!(pred.has_subquery());
        assert_eq!(count_kind(&opt, JoinKind::Inner), 1);
    }

    #[test]
    fn optimizes_inside_in_subqueries() {
        let q = parse_query(
            "SELECT a.x FROM t AS a WHERE a.x IN ( \
               SELECT b.y FROM s AS b, u AS c WHERE b.id = c.id)",
        )
        .unwrap();
        let opt = optimize(&q);
        assert_eq!(count_kind(&opt, JoinKind::Cross), 0);
        fn find_inner_in_pred(q: &SqlQuery) -> usize {
            match q {
                SqlQuery::Project { input, .. } => find_inner_in_pred(input),
                SqlQuery::Select { input, pred } => {
                    let sub = match pred {
                        SqlPred::InQuery(_, s) => count_kind(s, JoinKind::Inner),
                        _ => 0,
                    };
                    sub + find_inner_in_pred(input)
                }
                _ => 0,
            }
        }
        assert_eq!(find_inner_in_pred(&opt), 1);
    }

    #[test]
    fn single_side_constant_predicates_are_pushed_down() {
        let q =
            parse_query("SELECT a.x FROM t AS a, s AS b WHERE a.id = b.id AND b.kind = 3").unwrap();
        let opt = optimize(&q);
        // `b.kind = 3` should now sit directly on the scan of `s AS b`.
        fn right_side_has_select(q: &SqlQuery) -> bool {
            match q {
                SqlQuery::Project { input, .. } | SqlQuery::Select { input, .. } => {
                    right_side_has_select(input)
                }
                SqlQuery::Join { right, .. } => matches!(right.as_ref(), SqlQuery::Select { .. }),
                _ => false,
            }
        }
        assert!(right_side_has_select(&opt));
    }
}
