//! Differential tests of the writable store's **incremental re-freeze**
//! against the cold freeze oracle.
//!
//! The contract under test is `commit(delta) ≡ freeze(apply(graph, delta))`:
//! after any schema-valid mutation sequence, the snapshot generation the
//! store published incrementally (per-label row deltas patched onto the
//! previous generation's images) must match what a from-scratch
//! [`Snapshot::freeze`] of the same master graph would produce —
//!
//! * per induced table: identical columns and **bag-equal** rows (the
//!   cold path materializes rows in set-sorted order, the incremental
//!   path in published order; multiplicities must still agree exactly, which
//!   also pins down dedup/bag-count-sensitive behavior);
//! * the columnar image must equal the row image row-for-row;
//! * every fixture query must evaluate equivalently (Definition 4.4)
//!   through the store's engine and through a fresh engine over the cold
//!   freeze — including aggregation queries whose results are sensitive
//!   to row multiplicities.
//!
//! Mutation scripts come from the shared generator (`common`): adds,
//! removals (edge and node), property updates (including default-key
//! re-keys, which must rewrite incident edges' SRC/TGT foreign keys) of
//! existing elements and of elements staged earlier in the same delta,
//! interleaved across several commits, plus dedicated teardown-heavy
//! histories that remove most rows of every table.

mod common;

use common::random_delta;
use graphiti_engine::{BatchQuery, Engine, Snapshot, SqlTarget};
use graphiti_graph::GraphSchema;
use graphiti_store::{Delta, GraphStore};
use graphiti_testkit::{arb_instance, differential_oracle_on, fixtures};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Asserts the full incremental-vs-cold contract for the store's current
/// generation.
fn assert_commit_equals_cold_freeze(store: &GraphStore, queries: &[&str]) {
    let snap = store.snapshot();
    let cold = Snapshot::freeze(snap.schema().clone(), snap.graph().clone())
        .expect("the master graph must stay schema-valid");
    // Table images: equal columns, bag-equal rows, columnar == row image.
    let columnar = snap.sql_columnar(&SqlTarget::Induced).unwrap();
    for (name, cold_table) in cold.induced().tables() {
        let live = snap.induced().table(name).unwrap_or_else(|| panic!("missing `{name}`"));
        assert_eq!(live.columns, cold_table.columns, "columns of `{name}`");
        assert!(
            live.rows_bag_equal(cold_table),
            "`{name}` diverges from cold freeze:\nincremental:\n{live}\ncold:\n{cold_table}"
        );
        let col_image =
            columnar.table(name).unwrap_or_else(|| panic!("missing columnar `{name}`")).to_table();
        assert_eq!(col_image, *live, "columnar image of `{name}` diverges from row image");
    }
    // Query equivalence: the store's engine on its published generation
    // against a fresh engine over the cold freeze.
    let (live_engine, cold_engine) = (store.engine(), Engine::new(Arc::clone(&cold)));
    for q in queries {
        let live = live_engine.execute_on(&snap, &BatchQuery::cypher(*q));
        let oracle = cold_engine.execute_on(&cold, &BatchQuery::cypher(*q));
        let (live, oracle) = (live.result.expect(q), oracle.result.expect(q));
        assert!(
            live.equivalent(&oracle),
            "query `{q}` disagrees:\nincremental:\n{live}\ncold:\n{oracle}"
        );
        // And the transpilation soundness oracle holds directly on the
        // live store: Cypher on the incremental snapshot must agree with
        // transpiled SQL on its incremental induced image.
        differential_oracle_on(live_engine, &snap, q)
            .unwrap_or_else(|e| panic!("store oracle failed on `{q}`: {e}"));
    }
    // Per-label SQL aggregation over the induced image (bag-count
    // sensitive by construction).
    for ty in &snap.schema().node_types {
        let q = format!("SELECT Count(*) AS c FROM {} AS t", ty.label);
        let live = live_engine.execute_on(&snap, &BatchQuery::sql(&q)).result.expect("count");
        let oracle = cold_engine.execute_on(&cold, &BatchQuery::sql(&q)).result.expect("count");
        assert!(live.equivalent(&oracle), "`{q}` disagrees");
    }
}

/// Runs a seeded mutation script of `commits` deltas, asserting the full
/// contract after every commit.
fn run_script(
    schema: &GraphSchema,
    initial: graphiti_graph::GraphInstance,
    queries: &[&str],
    seed: u64,
    commits: usize,
) {
    let store = GraphStore::open(schema.clone(), initial).expect("valid initial instance");
    let mut rng = StdRng::seed_from_u64(seed);
    // Fresh default keys start far above anything arb_instance generated.
    let mut next_pk: i64 = 1_000_000;
    for _ in 0..commits {
        let delta = random_delta(&mut rng, &store, schema, &mut next_pk);
        store.commit(delta).expect("valid-by-construction deltas must commit");
        assert_commit_equals_cold_freeze(&store, queries);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `commit(delta) ≡ freeze(apply(graph, delta))` on random EMP
    /// instances and random mutation scripts.
    #[test]
    fn incremental_commits_match_cold_freeze_on_emp(
        graph in arb_instance(&fixtures::emp::schema(), 4, 6),
        seed in any::<u64>(),
    ) {
        run_script(&fixtures::emp::schema(), graph, fixtures::emp::QUERIES, seed, 4);
    }

    /// The same contract on the biomedical schema (two edge types,
    /// two-hop traversals in the query battery).
    #[test]
    fn incremental_commits_match_cold_freeze_on_biomed(
        graph in arb_instance(&fixtures::biomed::schema(), 3, 5),
        seed in any::<u64>(),
    ) {
        run_script(&fixtures::biomed::schema(), graph, fixtures::biomed::QUERIES, seed, 4);
    }

    /// Teardown-heavy histories: tear the whole graph down edge-by-edge
    /// and node-by-node across several commits, then regrow.  Images
    /// must match the cold freeze at every generation.
    #[test]
    fn teardown_heavy_histories_match_the_cold_freeze(
        graph in arb_instance(&fixtures::emp::schema(), 5, 8),
        seed in any::<u64>(),
    ) {
        let schema = fixtures::emp::schema();
        let store = GraphStore::open(schema.clone(), graph).expect("valid instance");
        let mut rng = StdRng::seed_from_u64(seed);
        // Wave 1: drop every edge, a few per commit.
        loop {
            let edges = store.edge_directory();
            if edges.is_empty() {
                break;
            }
            let mut delta = Delta::new();
            for (k, ..) in edges.iter().take(rng.gen_range(1..=3usize)) {
                delta.remove_edge(*k);
            }
            store.commit(delta).expect("edge removals are always valid");
            assert_commit_equals_cold_freeze(&store, fixtures::emp::QUERIES);
        }
        // Wave 2: drop every node.
        loop {
            let nodes = store.node_directory();
            if nodes.is_empty() {
                break;
            }
            let mut delta = Delta::new();
            for (k, ..) in nodes.iter().take(rng.gen_range(1..=3usize)) {
                delta.remove_node(*k);
            }
            store.commit(delta).expect("isolated-node removals are always valid");
            assert_commit_equals_cold_freeze(&store, fixtures::emp::QUERIES);
        }
        prop_assert_eq!(store.snapshot().graph().node_count(), 0);
        // Wave 3: regrow a small graph on the emptied store.
        let mut next_pk = 2_000_000i64;
        for _ in 0..3 {
            let delta = random_delta(&mut rng, &store, &schema, &mut next_pk);
            store.commit(delta).expect("regrowth deltas must commit");
            assert_commit_equals_cold_freeze(&store, fixtures::emp::QUERIES);
        }
    }
}

/// Deterministic end-to-end churn on the fixture instance.
#[test]
fn fixture_churn_matches_the_cold_freeze() {
    let schema = fixtures::emp::schema();
    let store = GraphStore::open(schema.clone(), fixtures::emp::graph()).unwrap();
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let mut next_pk = 3_000_000i64;
    for _ in 0..12 {
        let delta = random_delta(&mut rng, &store, &schema, &mut next_pk);
        store.commit(delta).unwrap();
        assert_commit_equals_cold_freeze(&store, fixtures::emp::QUERIES);
    }
    assert_eq!(store.stats().commits, 12);
}
