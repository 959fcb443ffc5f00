//! Differential tests of the serving engines against the retained naive
//! engines.
//!
//! Cypher pattern matching walks persistent adjacency indexes instead of
//! rescanning the edge arena per binding, and SQL runs as compiled plans
//! on the vectorized executor instead of resolving columns by string per
//! row.  The naive strategies are retained as `eval_query_unoptimized` on
//! both sides, and these tests assert the paper-level correctness
//! contract: on every (instance, query) pair the serving and naive engines
//! produce **table-equivalent** results (Definition 4.4) — for both Cypher
//! and SQL.

use graphiti_core::{infer_sdt, transpile_query};
use graphiti_graph::{GraphInstance, GraphSchema};
use graphiti_testkit::{arb_cypher, arb_instance, fixtures};
use graphiti_transformer::apply_to_graph;
use proptest::prelude::*;

/// Asserts that the indexed and naive Cypher engines agree on one
/// (graph, query) pair, and returns whether the query was in-fragment.
fn cypher_engines_agree(schema: &GraphSchema, graph: &GraphInstance, query_text: &str) {
    let query = graphiti_cypher::parse_query(query_text)
        .unwrap_or_else(|e| panic!("`{query_text}` failed to parse: {e}"));
    let indexed = graphiti_cypher::eval_query(schema, graph, &query)
        .unwrap_or_else(|e| panic!("indexed engine failed on `{query_text}`: {e}"));
    let naive = graphiti_cypher::eval_query_unoptimized(schema, graph, &query)
        .unwrap_or_else(|e| panic!("naive engine failed on `{query_text}`: {e}"));
    assert!(
        indexed.equivalent(&naive),
        "cypher engines disagree on `{query_text}`:\nindexed:\n{indexed}\nnaive:\n{naive}"
    );
}

/// Asserts that the SQL executor (`eval_query`) and the naive oracle agree
/// on the transpilation of `query_text` evaluated over the SDT-image of
/// `graph`.
fn sql_engines_agree(schema: &GraphSchema, graph: &GraphInstance, query_text: &str) {
    let query = graphiti_cypher::parse_query(query_text)
        .unwrap_or_else(|e| panic!("`{query_text}` failed to parse: {e}"));
    let ctx = infer_sdt(schema).expect("SDT inference");
    let sql = transpile_query(&ctx, &query)
        .unwrap_or_else(|e| panic!("`{query_text}` failed to transpile: {e}"));
    let induced = apply_to_graph(&ctx.sdt, schema, graph, &ctx.induced_schema)
        .expect("SDT image construction");
    let executed = graphiti_sql::eval_query(&induced, &sql)
        .unwrap_or_else(|e| panic!("executor failed on `{query_text}`: {e}"));
    let naive = graphiti_sql::eval_query_unoptimized(&induced, &sql)
        .unwrap_or_else(|e| panic!("naive engine failed on `{query_text}`: {e}"));
    assert!(
        executed.equivalent(&naive),
        "sql engines disagree on `{query_text}`:\nexecuted:\n{executed}\nnaive:\n{naive}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Indexed vs naive Cypher on random EMP graphs and random queries.
    #[test]
    fn cypher_engines_agree_on_random_emp_inputs(
        graph in arb_instance(&fixtures::emp::schema(), 5, 10),
        q in arb_cypher(&fixtures::emp::schema()),
    ) {
        cypher_engines_agree(&fixtures::emp::schema(), &graph, &q);
    }

    /// Indexed vs naive Cypher on random biomedical graphs (two edge
    /// types, two-hop traversals) and random queries.
    #[test]
    fn cypher_engines_agree_on_random_biomed_inputs(
        graph in arb_instance(&fixtures::biomed::schema(), 4, 8),
        q in arb_cypher(&fixtures::biomed::schema()),
    ) {
        cypher_engines_agree(&fixtures::biomed::schema(), &graph, &q);
    }

    /// Executor vs naive SQL on the transpilations of random queries over
    /// the SDT-images of random EMP graphs.
    #[test]
    fn sql_engines_agree_on_random_emp_inputs(
        graph in arb_instance(&fixtures::emp::schema(), 5, 10),
        q in arb_cypher(&fixtures::emp::schema()),
    ) {
        sql_engines_agree(&fixtures::emp::schema(), &graph, &q);
    }

    /// Executor vs naive SQL over the biomedical schema.
    #[test]
    fn sql_engines_agree_on_random_biomed_inputs(
        graph in arb_instance(&fixtures::biomed::schema(), 4, 8),
        q in arb_cypher(&fixtures::biomed::schema()),
    ) {
        sql_engines_agree(&fixtures::biomed::schema(), &graph, &q);
    }
}

/// Both engine pairs agree on the full fixture query batteries over the
/// deterministic fixture instances.
#[test]
fn engines_agree_on_fixture_corpus() {
    let emp_schema = fixtures::emp::schema();
    let emp_graph = fixtures::emp::graph();
    for q in fixtures::emp::QUERIES {
        cypher_engines_agree(&emp_schema, &emp_graph, q);
        sql_engines_agree(&emp_schema, &emp_graph, q);
    }
    let bio_schema = fixtures::biomed::schema();
    let bio_graph = fixtures::biomed::figure_3a_graph();
    for q in fixtures::biomed::QUERIES {
        cypher_engines_agree(&bio_schema, &bio_graph, q);
        sql_engines_agree(&bio_schema, &bio_graph, q);
    }
}

/// The differential oracle (Theorem 5.7) still holds end-to-end with the
/// new engines on both fixture scenarios: the indexed Cypher result is
/// table-equivalent to the executed SQL result on the SDT image.
#[test]
fn oracle_holds_with_new_engines_on_fixtures() {
    let schema = fixtures::emp::schema();
    let graph = fixtures::emp::graph();
    for q in fixtures::emp::QUERIES {
        graphiti_testkit::differential_oracle(&schema, &graph, q)
            .unwrap_or_else(|e| panic!("oracle failed on `{q}`: {e}"));
    }
}
