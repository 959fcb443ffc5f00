//! Concurrency and plan-cache properties of the batch engine.
//!
//! The engine's contract is that batching, worker count, and the plan
//! cache are *invisible* to results: a parallel batch over any snapshot
//! must produce exactly the tables a serial pass produces, and a warmed
//! cache must never change an outcome.  These properties are checked here
//! on random schema-valid instances and random in-fragment queries, with
//! the differential oracle riding along so the parallel path is also
//! checked against the paper's semantics (Theorem 5.7).
//!
//! The nightly differential-fuzz CI job raises the case count via
//! `PROPTEST_CASES`.

use graphiti_engine::{BatchQuery, Engine, Snapshot, SqlTarget};
use graphiti_graph::{GraphInstance, GraphSchema};
use graphiti_testkit::{differential_oracle_batch, fixtures, strategies};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

/// Freezes `graph` and builds a fresh engine bound to the snapshot.
fn frozen(schema: GraphSchema, graph: GraphInstance) -> (Engine, Arc<Snapshot>) {
    let snapshot = Snapshot::freeze(schema, graph).unwrap();
    (Engine::new(Arc::clone(&snapshot)), snapshot)
}

/// Builds the mixed Cypher + transpiled-SQL batch for a set of query
/// texts over a frozen snapshot.
fn mixed_batch(snapshot: &Snapshot, queries: &[String]) -> Vec<BatchQuery> {
    let mut batch = Vec::new();
    for text in queries {
        batch.push(BatchQuery::cypher(text));
        // The transpilation, as a service would receive it: text keyed
        // through the plan cache.
        if let Ok(parsed) = graphiti_cypher::parse_query(text) {
            if let Ok(sql) = graphiti_core::transpile_query(snapshot.ctx(), &parsed) {
                batch.push(BatchQuery::sql(graphiti_sql::query_to_string(&sql)));
            }
        }
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A parallel batch produces, per index, exactly the serial result —
    /// same tables, same errors — at every worker count.
    #[test]
    fn parallel_batches_equal_serial_batches(
        graph in strategies::arb_instance(&fixtures::emp::schema(), 4, 6),
        queries in proptest::collection::vec(strategies::arb_cypher(&fixtures::emp::schema()), 1..6),
    ) {
        let (engine, snapshot) = frozen(fixtures::emp::schema(), graph);
        let batch = mixed_batch(&snapshot, &queries);
        let serial = engine.run_batch_on(&snapshot, &batch, 1);
        for workers in [2, 4, 8] {
            let parallel = engine.run_batch_on(&snapshot, &batch, workers);
            prop_assert_eq!(serial.outcomes.len(), parallel.outcomes.len());
            for (s, p) in serial.outcomes.iter().zip(parallel.outcomes.iter()) {
                match (&s.result, &p.result) {
                    (Ok(st), Ok(pt)) => prop_assert_eq!(st, pt),
                    (Err(_), Err(_)) => {}
                    other => prop_assert!(false, "serial/parallel disagree: {other:?}"),
                }
            }
        }
    }

    /// The plan cache never changes results: a cold engine and a warmed
    /// engine produce identical outcomes, and the warm run actually hits.
    #[test]
    fn warm_cache_equals_cold_cache(
        graph in strategies::arb_instance(&fixtures::biomed::schema(), 3, 5),
        queries in proptest::collection::vec(strategies::arb_cypher(&fixtures::biomed::schema()), 1..5),
    ) {
        let (engine, snapshot) = frozen(fixtures::biomed::schema(), graph);
        let batch = mixed_batch(&snapshot, &queries);
        // (Duplicate texts inside the random batch may let even the cold
        // run hit, so only the warm run's counters are exact.)
        let cold = engine.run_batch_on(&snapshot, &batch, 4);
        let warm = engine.run_batch_on(&snapshot, &batch, 4);
        prop_assert_eq!(warm.cache_misses, 0);
        prop_assert_eq!(warm.cache_hits as usize, batch.len());
        for (c, w) in cold.outcomes.iter().zip(warm.outcomes.iter()) {
            match (&c.result, &w.result) {
                (Ok(ct), Ok(wt)) => prop_assert_eq!(ct, wt),
                (Err(_), Err(_)) => {}
                other => prop_assert!(false, "cold/warm disagree: {other:?}"),
            }
        }
    }

    /// The parallel differential oracle holds on random (graph, queries)
    /// pairs: Cypher-on-graph stays equivalent to transpiled-SQL-on-image
    /// when evaluated concurrently through one shared engine.
    #[test]
    fn oracle_holds_under_parallel_batches(
        graph in strategies::arb_instance(&fixtures::emp::schema(), 4, 6),
        queries in proptest::collection::vec(strategies::arb_cypher(&fixtures::emp::schema()), 1..8),
    ) {
        let texts: Vec<&str> = queries.iter().map(String::as_str).collect();
        let schema = fixtures::emp::schema();
        let result = differential_oracle_batch(&schema, &graph, &texts, 4);
        prop_assert!(result.is_ok(), "{}", result.err().map(|e| e.to_string()).unwrap_or_default());
        prop_assert_eq!(result.unwrap().len(), texts.len());
    }
}

/// Deterministic regression: one snapshot, every worker count, every
/// fixture query, results must be bit-identical to the serial pass.
#[test]
fn fixture_batteries_are_worker_count_invariant() {
    for (schema, graph, queries) in [
        (fixtures::emp::schema(), fixtures::emp::graph(), fixtures::emp::QUERIES),
        (
            fixtures::biomed::schema(),
            fixtures::biomed::figure_3a_graph(),
            fixtures::biomed::QUERIES,
        ),
    ] {
        let (engine, snapshot) = frozen(schema, graph);
        let batch: Vec<BatchQuery> = queries.iter().map(|q| BatchQuery::cypher(*q)).collect();
        let serial = engine.run_batch_on(&snapshot, &batch, 1);
        assert_eq!(serial.err_count(), 0);
        for workers in [2, 3, 8, 32] {
            let parallel = engine.run_batch_on(&snapshot, &batch, workers);
            for (s, p) in serial.outcomes.iter().zip(parallel.outcomes.iter()) {
                assert_eq!(s.result.as_ref().unwrap(), p.result.as_ref().unwrap());
            }
        }
    }
}

/// The induced target and the graph stay consistent through the engine:
/// a handwritten SQL probe of the induced instance agrees with the
/// corresponding Cypher count.
#[test]
fn induced_target_is_queryable_alongside_the_graph() {
    let (engine, snapshot) = frozen(fixtures::emp::schema(), fixtures::emp::graph());
    let cypher =
        engine.execute_on(&snapshot, &BatchQuery::cypher("MATCH (n:EMP) RETURN Count(*) AS c"));
    let sql = engine.execute_on(
        &snapshot,
        &BatchQuery::Sql {
            text: "SELECT Count(*) AS c FROM EMP AS e".to_string(),
            target: SqlTarget::Induced,
        },
    );
    assert_eq!(cypher.result.unwrap().rows, sql.result.unwrap().rows);
}

/// A batch reports its own cache traffic: its hit and miss counts equal
/// its outcomes' even while another caller queries the same engine.
#[test]
fn batch_cache_counts_exclude_other_callers_traffic() {
    let (engine, snapshot) = frozen(fixtures::emp::schema(), fixtures::emp::graph());
    let batch: Vec<BatchQuery> =
        fixtures::emp::QUERIES.iter().take(8).map(|q| BatchQuery::cypher(*q)).collect();
    engine.run_batch_on(&snapshot, &batch, 2); // warm
    let start = Barrier::new(2);
    let stop = AtomicBool::new(false);
    // (reported hits, reported misses, hits among the outcomes)
    let counts: Vec<(u64, u64, u64)> = std::thread::scope(|scope| {
        let other = scope.spawn(|| {
            start.wait();
            let query = BatchQuery::sql("SELECT Count(*) AS c FROM EMP AS e");
            while !stop.load(Ordering::SeqCst) {
                engine.execute_on(&snapshot, &query);
            }
        });
        start.wait();
        let counts = (0..50)
            .map(|_| {
                let report = engine.run_batch_on(&snapshot, &batch, 2);
                let hits = report.outcomes.iter().filter(|o| o.cache_hit).count() as u64;
                (report.cache_hits, report.cache_misses, hits)
            })
            .collect();
        stop.store(true, Ordering::SeqCst);
        other.join().unwrap();
        counts
    });
    for (hits, misses, outcome_hits) in counts {
        assert_eq!(hits, outcome_hits, "the report counted another caller's lookups");
        assert_eq!(misses, batch.len() as u64 - outcome_hits);
    }
}
