//! The differential soundness oracle (Theorem 5.7, executable form).
//!
//! For a schema-valid graph `G` over `Ψ_G` and an in-fragment Cypher query
//! `Q`, the paper proves that `⟦Q⟧(G)` is table-equivalent to
//! `⟦transpile(Q)⟧(Φ_sdt(G))` — evaluating the transpiled SQL over the
//! SDT-image of the graph. [`differential_oracle`] checks exactly that on
//! concrete inputs, and is the primitive every property test in the
//! workspace builds on.
//!
//! Evaluation runs through [`graphiti_engine`]: the (graph, SDT-image)
//! pair is frozen into a [`Snapshot`], the Cypher side executes through
//! the engine's cached-plan path, and the SQL side executes the transpiled
//! AST through the compiled-plan path — so every oracle invocation across
//! the workspace's property tests also differentially exercises the
//! production batch engine against the paper's semantics.  Every check
//! runs on **one** pinned snapshot: the Cypher run, the transpilation
//! (from the snapshot's SDT context) and the SQL run all see the same
//! generation, however many commits a live store publishes meanwhile.
//! [`differential_oracle_batch`] amortizes one snapshot over many queries
//! and fans the checks out across a worker pool.

use graphiti_core::transpile_query;
use graphiti_cypher::ast::Query;
use graphiti_engine::{BatchQuery, Engine, Snapshot, SqlTarget};
use graphiti_graph::{GraphInstance, GraphSchema};
use graphiti_relational::Table;
use std::sync::Arc;

/// Why the oracle could not confirm soundness.
#[derive(Debug)]
pub enum OracleError {
    /// The pipeline itself failed (invalid instance, parse error,
    /// out-of-fragment query, evaluation error) before the two results
    /// could be compared.
    Pipeline(graphiti_common::Error),
    /// Both sides evaluated but the result tables differ — a soundness
    /// violation (or a deliberately injected bug).
    Mismatch {
        /// The query whose two evaluations disagree.
        query: String,
        /// The transpiled SQL text.
        sql: String,
        /// The Cypher-side result.
        cypher_result: Table,
        /// The SQL-side result.
        sql_result: Table,
    },
}

impl std::fmt::Display for OracleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleError::Pipeline(e) => write!(f, "oracle pipeline error: {e}"),
            OracleError::Mismatch { query, sql, cypher_result, sql_result } => write!(
                f,
                "soundness violation for `{query}`\nsql under test: {sql}\n\
                 cypher result:\n{cypher_result}\nsql result:\n{sql_result}"
            ),
        }
    }
}

impl std::error::Error for OracleError {}

impl From<graphiti_common::Error> for OracleError {
    fn from(e: graphiti_common::Error) -> Self {
        OracleError::Pipeline(e)
    }
}

/// Checks the central soundness property on one concrete (graph, query)
/// pair: Cypher evaluation on `graph` must be table-equivalent (ordered
/// table-equivalent for `ORDER BY` queries) to SQL evaluation of the
/// transpiled query on the SDT-image of `graph`.
///
/// Returns the two (equivalent) result tables on success so callers can
/// assert further properties about them.
// The `Mismatch` variant carries both full result tables for diagnostics;
// it is constructed once per failing test, so its size is irrelevant.
#[allow(clippy::result_large_err)]
pub fn differential_oracle(
    schema: &GraphSchema,
    graph: &GraphInstance,
    cypher_text: &str,
) -> Result<(Table, Table), OracleError> {
    differential_oracle_impl(schema, graph, cypher_text, None)
}

/// Like [`differential_oracle`], but evaluates the provided SQL text (over
/// the *induced* schema) instead of the transpilation of the Cypher query.
///
/// This is the negative-testing entry point: feeding a deliberately wrong
/// SQL query must produce [`OracleError::Mismatch`], which keeps the
/// oracle's disagreement path itself under test.
#[allow(clippy::result_large_err)]
pub fn differential_oracle_against_sql(
    schema: &GraphSchema,
    graph: &GraphInstance,
    cypher_text: &str,
    sql_text: &str,
) -> Result<(Table, Table), OracleError> {
    differential_oracle_impl(schema, graph, cypher_text, Some(sql_text))
}

#[allow(clippy::result_large_err)]
fn differential_oracle_impl(
    schema: &GraphSchema,
    graph: &GraphInstance,
    cypher_text: &str,
    sql_text: Option<&str>,
) -> Result<(Table, Table), OracleError> {
    let snapshot = Snapshot::freeze(schema.clone(), graph.clone())?;
    check_one(&Engine::new(Arc::clone(&snapshot)), &snapshot, cypher_text, sql_text)
}

/// Checks the soundness property on one pinned `snapshot` through
/// `engine` — a bare engine over a frozen graph, or a live store's
/// embedded engine over a generation the caller pinned (e.g. from
/// `GraphStore::published`).  The Cypher query, its transpilation and the
/// transpiled SQL all use that one snapshot, so running this against a
/// store after a mutation history differentially tests the incremental
/// re-freeze path against the paper's semantics, even while writers
/// keep committing.
#[allow(clippy::result_large_err)]
pub fn differential_oracle_on(
    engine: &Engine,
    snapshot: &Snapshot,
    cypher_text: &str,
) -> Result<(Table, Table), OracleError> {
    check_one(engine, snapshot, cypher_text, None)
}

/// Runs one (cypher, optional handwritten sql) check on one pinned
/// snapshot.
#[allow(clippy::result_large_err)]
fn check_one(
    engine: &Engine,
    snapshot: &Snapshot,
    cypher_text: &str,
    sql_text: Option<&str>,
) -> Result<(Table, Table), OracleError> {
    let query = graphiti_cypher::parse_query(cypher_text)?;
    let cypher_result = engine.execute_on(snapshot, &BatchQuery::cypher(cypher_text)).result?;
    let sql = match sql_text {
        None => transpile_query(snapshot.ctx(), &query)?,
        Some(text) => graphiti_sql::parse_query(text)?,
    };
    let sql_result = engine.execute_sql_ast(snapshot, &sql, &SqlTarget::Induced).result?;

    let equivalent = if matches!(query, Query::OrderBy { .. }) {
        cypher_result.equivalent_ordered(&sql_result)
    } else {
        cypher_result.equivalent(&sql_result)
    };
    if equivalent {
        Ok((cypher_result, sql_result))
    } else {
        Err(OracleError::Mismatch {
            query: cypher_text.to_string(),
            sql: graphiti_sql::query_to_string(&sql),
            cypher_result,
            sql_result,
        })
    }
}

/// Checks the soundness property for many queries against one graph,
/// freezing a single engine snapshot and fanning the per-query checks out
/// across `workers` threads.
///
/// Returns the per-query result tables in input order, or the first error
/// in input order.  Because the engine's plan cache is shared across the
/// batch, this also exercises concurrent cache fills under the oracle.
#[allow(clippy::result_large_err)]
pub fn differential_oracle_batch(
    schema: &GraphSchema,
    graph: &GraphInstance,
    queries: &[&str],
    workers: usize,
) -> Result<Vec<(Table, Table)>, OracleError> {
    let snapshot = Snapshot::freeze(schema.clone(), graph.clone())?;
    let engine = Engine::new(Arc::clone(&snapshot));
    let results = graphiti_engine::run_parallel(queries.len(), workers, |i| {
        check_one(&engine, &snapshot, queries[i], None)
    });
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use graphiti_common::Value;

    #[test]
    fn oracle_passes_on_emp_fixtures() {
        let schema = fixtures::emp::schema();
        let graph = fixtures::emp::graph();
        for q in fixtures::emp::QUERIES {
            differential_oracle(&schema, &graph, q)
                .unwrap_or_else(|e| panic!("oracle failed on `{q}`: {e}"));
        }
    }

    #[test]
    fn oracle_passes_on_biomed_fixtures() {
        let schema = fixtures::biomed::schema();
        let graph = fixtures::biomed::figure_3a_graph();
        for q in fixtures::biomed::QUERIES {
            differential_oracle(&schema, &graph, q)
                .unwrap_or_else(|e| panic!("oracle failed on `{q}`: {e}"));
        }
    }

    #[test]
    fn oracle_rejects_out_of_fragment_queries() {
        let schema = fixtures::emp::schema();
        let graph = fixtures::emp::graph();
        let err = differential_oracle(&schema, &graph, "MATCH (n:NOPE) RETURN n.x AS x");
        assert!(matches!(err, Err(OracleError::Pipeline(_))));
    }

    #[test]
    fn oracle_reports_invalid_instances_as_pipeline_errors() {
        // An instance that is *not* schema-valid must surface as a pipeline
        // error, never as a bogus mismatch.
        let schema = fixtures::emp::schema();
        let mut graph = fixtures::emp::graph();
        graph.add_node("EMP", [("id", graphiti_common::Value::Int(1))]); // duplicate key
        let err = differential_oracle(&schema, &graph, fixtures::emp::QUERIES[0]);
        assert!(matches!(err, Err(OracleError::Pipeline(_))));
    }

    #[test]
    fn oracle_detects_a_wrong_sql_translation_as_mismatch() {
        // The motivating-example shape: the Cypher query counts employees
        // per department, the "translation" returns department names only —
        // the oracle must refute it, proving the disagreement path works.
        let schema = fixtures::emp::schema();
        let graph = fixtures::emp::graph();
        let cypher = "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN m.dname AS dept, Count(n) AS c";
        let wrong_sql = "SELECT d.dname AS dept, d.dnum AS c FROM DEPT AS d";
        let err = differential_oracle_against_sql(&schema, &graph, cypher, wrong_sql);
        match err {
            Err(OracleError::Mismatch { cypher_result, sql_result, .. }) => {
                assert!(!cypher_result.equivalent(&sql_result));
            }
            other => panic!("expected Mismatch, got {other:?}"),
        }
    }

    #[test]
    fn oracle_refutes_a_reversed_order_by() {
        // ORDER BY queries go through the *ordered* comparison: the same
        // bag of rows in the wrong order must be a mismatch.
        let schema = fixtures::emp::schema();
        let graph = fixtures::emp::graph();
        let cypher = "MATCH (n:EMP) RETURN n.id AS id ORDER BY id";
        let reversed = "SELECT n.id AS id FROM EMP AS n ORDER BY n.id DESC";
        let err = differential_oracle_against_sql(&schema, &graph, cypher, reversed);
        assert!(matches!(err, Err(OracleError::Mismatch { .. })), "got {err:?}");
    }

    /// A delta hiring one more employee.
    fn hire(id: i64) -> graphiti_store::Delta {
        let mut d = graphiti_store::Delta::new();
        d.add_node("EMP", [("id", Value::Int(id)), ("ename", Value::str("New"))]);
        d
    }

    fn emp_store() -> graphiti_store::GraphStore {
        graphiti_store::GraphStore::open(fixtures::emp::schema(), fixtures::emp::graph()).unwrap()
    }

    #[test]
    fn oracle_on_a_store_runs_on_the_pinned_generation() {
        let store = emp_store();
        let (_, pinned) = store.published();
        store.commit(hire(4)).unwrap();
        let query = "MATCH (n:EMP) RETURN Count(*) AS total";
        let (cypher, sql) = differential_oracle_on(store.engine(), &pinned, query)
            .unwrap_or_else(|e| panic!("oracle failed on a pinned generation: {e}"));
        assert_eq!(cypher.rows, vec![vec![Value::Int(3)]], "the pinned generation's rows");
        assert!(cypher.equivalent(&sql));
        let (latest, _) = differential_oracle_on(store.engine(), &store.snapshot(), query).unwrap();
        assert_eq!(latest.rows, vec![vec![Value::Int(4)]]);
    }

    #[test]
    fn oracle_on_a_store_holds_while_a_writer_commits() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let store = emp_store();
        let start = std::sync::Barrier::new(2);
        let stop = AtomicBool::new(false);
        let queries = [fixtures::emp::QUERIES[0], fixtures::emp::QUERIES[6]];
        let failures: Vec<OracleError> = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                start.wait();
                let mut id = 100;
                while !stop.load(Ordering::SeqCst) {
                    store.commit(hire(id)).unwrap();
                    id += 1;
                }
            });
            start.wait();
            let failures = (0..400)
                .filter_map(|i| {
                    let (_, snapshot) = store.published();
                    differential_oracle_on(store.engine(), &snapshot, queries[i % 2]).err()
                })
                .collect();
            stop.store(true, Ordering::SeqCst);
            writer.join().unwrap();
            failures
        });
        let mismatches =
            failures.iter().filter(|e| matches!(e, OracleError::Mismatch { .. })).count();
        assert_eq!(mismatches, 0, "checks compared two generations");
        if let Some(e) = failures.first() {
            panic!("oracle pipeline failed under a writer: {e}");
        }
        assert!(store.generation() > 0, "the writer committed during the checks");
    }

    #[test]
    fn oracle_accepts_a_correct_handwritten_translation() {
        // Sanity for the against-sql entry point: the transpiler's own
        // output, round-tripped through text, must still pass.
        let schema = fixtures::emp::schema();
        let graph = fixtures::emp::graph();
        let cypher = fixtures::emp::QUERIES[1];
        let ctx = graphiti_core::infer_sdt(&schema).unwrap();
        let sql = transpile_query(&ctx, &graphiti_cypher::parse_query(cypher).unwrap()).unwrap();
        let sql_text = graphiti_sql::query_to_string(&sql);
        differential_oracle_against_sql(&schema, &graph, cypher, &sql_text)
            .unwrap_or_else(|e| panic!("round-tripped transpilation rejected: {e}"));
    }
}
