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
use graphiti_relational::{ColumnInstance, ColumnTable, RelInstance, Table};
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

/// A hash key: `NULL`, duplicates, both numeric representations of equal
/// numbers (`0`/`0.0`/`-0.0`, `1`/`1.0`), NaNs with different bits, and
/// 2^53 and 2^53 + 1 (one `f64`, so they hash alike and compare unequal).
///
/// Every pair here that `strict_eq` calls equal writes equal hash words,
/// so the oracle's std `HashMap`s merge them on every run.  2^53 as a
/// float, equal to both integers it rounds from, stays in
/// [`arb_value_key`], which feeds only `IN` and `COUNT(DISTINCT)`, where
/// the oracle compares without hashing: with it, equality is not
/// transitive, and which integer's group it joins depends on which the
/// operator meets first (ROADMAP's exact-integer half of the value
/// semantics).
fn arb_hash_key() -> impl Strategy<Value = Value> {
    let big = 1i64 << 53;
    sample::select(vec![
        Value::Null,
        Value::Int(0),
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Int(1),
        Value::Float(1.0),
        Value::Int(2),
        Value::Float(2.5),
        Value::Float(f64::NAN),
        Value::Float(f64::from_bits(0x7ff8_0000_0000_0001)),
        Value::Float(f64::from_bits(0xfff8_0000_0000_0002)),
        Value::Int(big),
        Value::Int(big + 1),
    ])
}

/// Every key of [`arb_hash_key`], plus 2^53 as a float.
fn arb_value_key() -> impl Strategy<Value = Value> {
    prop_oneof![arb_hash_key(), Just(Value::Float((1i64 << 53) as f64))]
}

/// A table `(k1, k2, x, v)` of up to `max_rows` rows: two hash keys, a
/// value key and a small, sometimes `NULL`, payload.
fn arb_keyed_table(max_rows: usize) -> impl Strategy<Value = Table> {
    let payload = prop_oneof![Just(Value::Null), (0i64..6).prop_map(Value::Int)];
    let row = (arb_hash_key(), arb_hash_key(), arb_value_key(), payload);
    proptest::collection::vec(row, 0..max_rows + 1).prop_map(|rows| {
        Table::with_rows(
            ["k1", "k2", "x", "v"],
            rows.into_iter().map(|(k1, k2, x, v)| vec![k1, k2, x, v]),
        )
    })
}

/// Every hash operator over tables `a` (0–12 rows) and `b` (0–40 rows),
/// so each side of a join is sometimes the smaller, and sometimes empty.
/// The joins are explicit `ON` joins, which the oracle runs as hash joins
/// too (a comma join's `WHERE` compares through `f64` there).
const KEYED_QUERIES: &[&str] = &[
    "SELECT a.k1, a.v, b.v FROM a AS a JOIN b AS b ON a.k1 = b.k1",
    "SELECT a.k1, a.v, b.v FROM a AS a LEFT JOIN b AS b ON a.k1 = b.k1",
    "SELECT b.k1, b.v, a.v FROM b AS b JOIN a AS a ON b.k1 = a.k1",
    "SELECT b.k1, b.v, a.v FROM b AS b LEFT JOIN a AS a ON b.k1 = a.k1",
    "SELECT a.k1, a.k2, b.v FROM a AS a JOIN b AS b ON a.k1 = b.k1 AND a.k2 = b.k2",
    "SELECT b.k1, b.k2, a.v FROM b AS b LEFT JOIN a AS a ON a.k2 = b.k2 AND b.k1 = a.k1",
    "SELECT a.v, b.v FROM a AS a JOIN b AS b ON a.k1 = b.k1 AND a.x < b.x",
    "SELECT b.v, a.v FROM b AS b JOIN a AS a ON b.k2 = a.k1 AND b.v >= a.v",
    "SELECT a.v, b.v FROM a AS a LEFT JOIN b AS b ON a.k1 = b.k1 AND a.k2 = b.k2 AND a.v <= b.v",
    "SELECT b.v, a.v, a.x FROM b AS b LEFT JOIN a AS a ON b.k2 = a.k1 AND b.x <> a.x",
    "SELECT a.k1, Count(*) AS c, Sum(a.v) AS s FROM a AS a GROUP BY a.k1",
    "SELECT b.k1, b.k2, Count(*) AS c, Min(b.x) AS lo FROM b AS b GROUP BY b.k1, b.k2",
    "SELECT DISTINCT b.k1, b.k2 FROM b AS b",
    "SELECT a.k1 FROM a AS a UNION SELECT b.k2 FROM b AS b",
    "SELECT b.k1, Count(DISTINCT b.x) AS d, Sum(DISTINCT b.x) AS s FROM b AS b GROUP BY b.k1",
    "SELECT Count(DISTINCT a.x) AS d, Max(DISTINCT a.x) AS m, Avg(DISTINCT a.x) AS m1 \
     FROM a AS a",
    "SELECT b.v FROM b AS b WHERE b.x IN (SELECT a.x FROM a AS a)",
    "SELECT b.v FROM b AS b WHERE b.x NOT IN (SELECT a.x FROM a AS a)",
    "SELECT a.v FROM a AS a WHERE a.x IN (SELECT b.x FROM b AS b WHERE b.v > 2)",
    "SELECT a.v FROM a AS a WHERE a.x IN (SELECT b.x FROM b AS b WHERE b.k1 = a.k1)",
    // Restricted scans: each of these runs on the columnar image, where a
    // join, an `IN` or a `col = c` selection may hand keys down to a base
    // scan's key index.  A small anchored table LEFT JOIN a derived join
    // chain, on hash keys and on the integer payload.
    "SELECT s.k, t.bv, t.cv FROM (SELECT a.k1 AS k FROM a AS a WHERE a.v = 1) AS s \
     LEFT JOIN (SELECT b.k1 AS k, b.v AS bv, c.v AS cv FROM b AS b JOIN b AS c ON b.k2 = c.k1) AS t \
     ON s.k = t.k",
    "SELECT s.v, t.x FROM (SELECT a.v AS v FROM a AS a WHERE a.k2 = 1) AS s \
     LEFT JOIN (SELECT b.v AS v, c.x AS x FROM b AS b JOIN b AS c ON b.v = c.v) AS t ON s.v = t.v",
    // IN and NOT IN over a join chain: NULL probes (a.v) and NULL
    // subquery rows (b.v), and a mixed probe column (a.x).
    "SELECT a.k1, a.v FROM a AS a WHERE a.v IN (SELECT b.v FROM b AS b JOIN b AS c ON b.k1 = c.k1)",
    "SELECT a.k1, a.v FROM a AS a \
     WHERE a.v NOT IN (SELECT b.v FROM b AS b JOIN b AS c ON b.k1 = c.k1)",
    "SELECT a.v FROM a AS a WHERE a.x IN (SELECT b.x FROM b AS b JOIN b AS c ON b.v = c.v)",
    // A two-column IN.
    "SELECT a.k1, a.v FROM a AS a WHERE (a.v, a.k1) IN (SELECT b.v, b.k1 FROM b AS b)",
    "SELECT a.k1, a.v FROM a AS a \
     WHERE (a.v, a.k2) NOT IN (SELECT b.v, c.k2 FROM b AS b JOIN b AS c ON b.k1 = c.k1)",
    // A derived table whose projection adds a string to a number: both
    // sides fail whenever b holds a non-NULL payload.
    "SELECT a.v, t.bad FROM a AS a JOIN (SELECT b.k1 AS k, b.v + 'x' AS bad FROM b AS b) AS t \
     ON a.k1 = t.k",
    // A correlated `col = outer` subquery.
    "SELECT a.k1 FROM a AS a WHERE EXISTS (SELECT b.k2 FROM b AS b WHERE b.v = a.v)",
    "SELECT a.k1, a.v FROM a AS a WHERE a.k2 IN (SELECT b.k2 FROM b AS b WHERE b.v = a.v)",
    // `col = c` on the payload, and on keys that hold 2^53 and 2^53 + 1:
    // the oracle compares through f64, so both match either constant.
    "SELECT b.k1, b.x FROM b AS b WHERE b.v = 3",
    "SELECT b.k1, b.v FROM b AS b WHERE b.k1 = 9007199254740993",
    "SELECT b.k1, b.v FROM b AS b WHERE b.k2 = 9007199254740992 AND b.v = 2",
];

/// Asserts that the vectorized executor returns exactly the oracle's table
/// for `sql` over `instance`: the same rows in the same order, each value
/// in the same representation (`Value`'s `==` calls `Int(1)` and
/// `Float(1.0)` equal), or an error from both.
fn keyed_agrees(instance: &RelInstance, sql: &str) {
    let query = graphiti_sql::parse_query(sql).unwrap_or_else(|e| panic!("`{sql}`: {e}"));
    let oracle = graphiti_sql::eval_query_unoptimized(instance, &query);
    let vec = graphiti_sql::compile_query(instance, &query).and_then(|plan| {
        graphiti_sql::eval_vectorized(instance, &ColumnInstance::from_rel(instance), &plan)
    });
    match (oracle, vec) {
        (Ok(want), Ok(got)) => {
            assert_eq!(want, got, "`{sql}`:\noracle:\n{want}\nvectorized:\n{got}");
            assert_eq!(format!("{:?}", want.rows), format!("{:?}", got.rows), "`{sql}`");
        }
        (Err(_), Err(_)) => {}
        (want, got) => panic!("`{sql}`: oracle={want:?} vectorized={got:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Vectorized ≡ the naive oracle on every hash operator, over keys on
    /// which the value semantics are most fragile, with the hash join
    /// building on either input.
    #[test]
    fn hash_operators_agree_on_either_build_side(
        a in arb_keyed_table(12),
        b in arb_keyed_table(40),
    ) {
        let mut instance = RelInstance::new();
        instance.insert_table("a", a);
        instance.insert_table("b", b);
        for sql in KEYED_QUERIES {
            keyed_agrees(&instance, sql);
        }
    }

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
