//! Differential tests of the vectorized (columnar) SQL executor against
//! the naive oracle, plus `Table ⇄ ColumnTable` round-trip properties.
//!
//! `graphiti_sql::eval_vectorized` runs compiled plans column-at-a-time
//! over `ColumnTable`s, subqueries included; it is the only serving SQL
//! executor.  The correctness contract is the paper's bag equivalence
//! (Definition 4.4): on every (instance, query) pair it must agree with
//! `eval_query_unoptimized`, the naive per-row interpreter — and these
//! tests assert the stronger *identical-table* property (same columns,
//! same row order), which holds because every operator emits rows in the
//! oracle's order.

use graphiti_common::Value;
use graphiti_core::{infer_sdt, transpile_query};
use graphiti_graph::{GraphInstance, GraphSchema};
use graphiti_relational::{ColumnInstance, ColumnTable, Table};
use graphiti_testkit::{arb_cypher, arb_instance, fixtures};
use graphiti_transformer::apply_to_graph;
use proptest::prelude::*;

/// Asserts that the vectorized execution of the transpilation of
/// `query_text` over the SDT-image of `graph` is identical to the naive
/// oracle's.
fn vectorized_agrees(schema: &GraphSchema, graph: &GraphInstance, query_text: &str) {
    let query = graphiti_cypher::parse_query(query_text)
        .unwrap_or_else(|e| panic!("`{query_text}` failed to parse: {e}"));
    let ctx = infer_sdt(schema).expect("SDT inference");
    let sql = transpile_query(&ctx, &query)
        .unwrap_or_else(|e| panic!("`{query_text}` failed to transpile: {e}"));
    let induced = apply_to_graph(&ctx.sdt, schema, graph, &ctx.induced_schema)
        .expect("SDT image construction");
    let columnar = ColumnInstance::from_rel(&induced);
    let plan = graphiti_sql::compile_query(&induced, &sql)
        .unwrap_or_else(|e| panic!("`{query_text}` failed to compile: {e}"));
    let oracle = graphiti_sql::eval_query_unoptimized(&induced, &sql)
        .unwrap_or_else(|e| panic!("naive oracle failed on `{query_text}`: {e}"));
    let vec = graphiti_sql::eval_vectorized(&induced, &columnar, &plan)
        .unwrap_or_else(|e| panic!("vectorized engine failed on `{query_text}`: {e}"));
    // Identical tables (stronger than Definition 4.4 equivalence) ...
    assert_eq!(
        oracle, vec,
        "vectorized result differs on `{query_text}`:\noracle:\n{oracle}\nvectorized:\n{vec}"
    );
    // ... which in particular implies bag equivalence.
    assert!(oracle.equivalent(&vec));
}

/// One adversarially-typed value: `NULL`-heavy, both numeric
/// representations, NaN, booleans, and strings — exercising every
/// `ColumnData` representation including the all-NULL and mixed fallbacks.
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        Just(Value::Null),
        (-50i64..50).prop_map(Value::Int),
        (-20i64..20).prop_map(|f| Value::Float(f as f64 / 7.0)),
        Just(Value::Float(f64::NAN)),
        any::<bool>().prop_map(Value::Bool),
        sample::select(vec!["", "a", "b", "ab", "c"]).prop_map(Value::str),
    ]
}

/// A random table over such values.
fn arb_table() -> impl Strategy<Value = Table> {
    (1usize..5).prop_flat_map(|n| {
        proptest::collection::vec(proptest::collection::vec(arb_value(), n..n + 1), 0..12)
            .prop_map(move |rows| Table::with_rows((0..n).map(|i| format!("t.c{i}")), rows))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Vectorized ≡ the naive oracle on the transpilations of random
    /// queries over the SDT-images of random EMP graphs.
    #[test]
    fn vectorized_agrees_on_random_emp_inputs(
        graph in arb_instance(&fixtures::emp::schema(), 5, 10),
        q in arb_cypher(&fixtures::emp::schema()),
    ) {
        vectorized_agrees(&fixtures::emp::schema(), &graph, &q);
    }

    /// Vectorized ≡ the naive oracle over the biomedical schema (two edge
    /// types, multi-join transpilations).
    #[test]
    fn vectorized_agrees_on_random_biomed_inputs(
        graph in arb_instance(&fixtures::biomed::schema(), 4, 8),
        q in arb_cypher(&fixtures::biomed::schema()),
    ) {
        vectorized_agrees(&fixtures::biomed::schema(), &graph, &q);
    }

    /// `Table → ColumnTable → Table` is lossless for every value mix,
    /// including NULL-heavy, all-NULL, NaN-bearing, and heterogeneous
    /// columns.
    #[test]
    fn column_table_round_trip_is_lossless(t in arb_table()) {
        let ct = ColumnTable::from_table(&t);
        prop_assert_eq!(ct.len(), t.len());
        prop_assert_eq!(ct.arity(), t.arity());
        let back = ct.to_table();
        // Structural identity: same columns, same rows, with Int/Float
        // representations preserved exactly (PartialEq on Value treats
        // Int(3) == Float(3.0), so check the discriminants too).
        prop_assert_eq!(&back.columns, &t.columns);
        prop_assert_eq!(back.len(), t.len());
        for (a, b) in back.rows.iter().zip(t.rows.iter()) {
            for (x, y) in a.iter().zip(b.iter()) {
                prop_assert!(
                    x.strict_eq(y) || (matches!((x, y), (Value::Float(p), Value::Float(q))
                        if p.is_nan() && q.is_nan())),
                    "value changed in round trip: {:?} vs {:?}", x, y
                );
                prop_assert_eq!(
                    std::mem::discriminant(x),
                    std::mem::discriminant(y),
                    "representation changed in round trip: {:?} vs {:?}", x, y
                );
            }
        }
    }

    /// Row materialization and by-name access agree with the row table.
    #[test]
    fn column_table_rows_and_lookups_agree(t in arb_table()) {
        let ct = ColumnTable::from_table(&t);
        for (i, row) in t.rows.iter().enumerate() {
            let got = ct.row(i);
            prop_assert_eq!(&got, row);
        }
        for (c, name) in t.columns.iter().enumerate() {
            prop_assert_eq!(ct.column_index(name), Some(c));
            prop_assert_eq!(ct.column_index(name), t.column_index(name));
        }
        prop_assert_eq!(ct.column_index("no.such.column"), None);
    }
}

/// The vectorized executor agrees with the naive oracle on the full
/// fixture query batteries (deterministic instances, every supported
/// construct).
#[test]
fn vectorized_agrees_on_fixture_corpus() {
    let emp_schema = fixtures::emp::schema();
    let emp_graph = fixtures::emp::graph();
    for q in fixtures::emp::QUERIES {
        vectorized_agrees(&emp_schema, &emp_graph, q);
    }
    let bio_schema = fixtures::biomed::schema();
    let bio_graph = fixtures::biomed::figure_3a_graph();
    for q in fixtures::biomed::QUERIES {
        vectorized_agrees(&bio_schema, &bio_graph, q);
    }
}

/// The engine (whose SQL path is now vectorized) still satisfies the
/// differential oracle (Theorem 5.7) on the fixture scenarios.
#[test]
fn oracle_holds_with_vectorized_engine_on_fixtures() {
    let schema = fixtures::emp::schema();
    let graph = fixtures::emp::graph();
    for q in fixtures::emp::QUERIES {
        graphiti_testkit::differential_oracle(&schema, &graph, q)
            .unwrap_or_else(|e| panic!("oracle failed on `{q}`: {e}"));
    }
}
