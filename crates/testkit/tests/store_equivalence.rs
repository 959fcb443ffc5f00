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
//!   path in log order; multiplicities must still agree exactly, which
//!   also pins down dedup/bag-count-sensitive behavior);
//! * the columnar image must equal the row image row-for-row;
//! * every fixture query must evaluate equivalently (Definition 4.4)
//!   through the store's engine and through a fresh engine over the cold
//!   freeze — including aggregation queries whose results are sensitive
//!   to row multiplicities.
//!
//! Mutation scripts are generated from a seed: adds, removals (edge and
//! node), property updates (including default-key re-keys, which must
//! rewrite incident edges' SRC/TGT foreign keys), interleaved across
//! several commits, plus dedicated tombstone-heavy histories that drive
//! the log compactor.

use graphiti_common::{Ident, Value};
use graphiti_engine::{BatchQuery, Engine, Snapshot, SqlTarget};
use graphiti_graph::GraphSchema;
use graphiti_store::{Delta, EdgeKey, GraphStore, NodeKey, NodeRef};
use graphiti_testkit::{arb_instance, differential_oracle_on, fixtures};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
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

/// Draws a random value for a non-default property.
fn random_prop_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..4usize) {
        0 => Value::Int(rng.gen_range(0..4i64)),
        1 => Value::str(["a", "b", "c"][rng.gen_range(0..3usize)]),
        2 => Value::Bool(rng.gen_bool(0.5)),
        _ => Value::Null,
    }
}

fn props_for(keys: &[Ident], fresh_pk: i64, rng: &mut StdRng) -> Vec<(String, Value)> {
    keys.iter()
        .enumerate()
        .map(|(i, k)| {
            let v = if i == 0 { Value::Int(fresh_pk) } else { random_prop_value(rng) };
            (k.to_string(), v)
        })
        .collect()
}

/// Builds one random, *valid-by-construction* delta against the store's
/// current state: additions, removals (edges first), and property updates
/// including occasional default-key re-keys.
fn random_delta(
    rng: &mut StdRng,
    store: &GraphStore,
    schema: &GraphSchema,
    next_pk: &mut i64,
) -> Delta {
    let mut delta = Delta::new();
    let nodes = store.node_directory();
    let edges = store.edge_directory();
    let mut removed_nodes: HashSet<NodeKey> = HashSet::new();
    let mut removed_edges: HashSet<EdgeKey> = HashSet::new();
    // Nodes staged by this delta, by label, usable as fresh endpoints.
    let mut staged: Vec<(NodeRef, Ident)> = Vec::new();
    // Existing nodes that edges staged by this delta now hang off —
    // removing them would (correctly) be rejected.
    let mut staged_endpoints: HashSet<NodeKey> = HashSet::new();
    let ops = rng.gen_range(1..=6usize);
    for _ in 0..ops {
        match rng.gen_range(0..100u32) {
            // Add a node.
            0..=34 => {
                let ty = &schema.node_types[rng.gen_range(0..schema.node_types.len())];
                *next_pk += 1;
                let r = delta.add_node(ty.label.clone(), props_for(&ty.keys, *next_pk, rng));
                staged.push((r, ty.label.clone()));
            }
            // Add an edge between two live (or staged) endpoints.
            35..=59 if !schema.edge_types.is_empty() => {
                let ty = &schema.edge_types[rng.gen_range(0..schema.edge_types.len())];
                let pick = |label: &Ident,
                            rng: &mut StdRng,
                            staged: &[(NodeRef, Ident)]|
                 -> Option<NodeRef> {
                    let mut candidates: Vec<NodeRef> = nodes
                        .iter()
                        .filter(|(k, l, _)| l == label && !removed_nodes.contains(k))
                        .map(|(k, _, _)| NodeRef::Key(*k))
                        .collect();
                    candidates.extend(staged.iter().filter(|(_, l)| l == label).map(|(r, _)| *r));
                    if candidates.is_empty() {
                        None
                    } else {
                        Some(candidates[rng.gen_range(0..candidates.len())])
                    }
                };
                let (Some(src), Some(tgt)) =
                    (pick(&ty.src, rng, &staged), pick(&ty.tgt, rng, &staged))
                else {
                    continue;
                };
                *next_pk += 1;
                delta.add_edge(ty.label.clone(), src, tgt, props_for(&ty.keys, *next_pk, rng));
                for endpoint in [src, tgt] {
                    if let NodeRef::Key(k) = endpoint {
                        staged_endpoints.insert(k);
                    }
                }
            }
            // Remove an edge.
            60..=74 => {
                let candidates: Vec<EdgeKey> = edges
                    .iter()
                    .filter(|(k, ..)| !removed_edges.contains(k))
                    .map(|(k, ..)| *k)
                    .collect();
                if candidates.is_empty() {
                    continue;
                }
                let victim = candidates[rng.gen_range(0..candidates.len())];
                delta.remove_edge(victim);
                removed_edges.insert(victim);
            }
            // Remove a node whose (remaining) incident edges this delta
            // already removed.
            75..=84 => {
                let candidates: Vec<NodeKey> = nodes
                    .iter()
                    .filter(|(k, _, _)| {
                        !removed_nodes.contains(k)
                            && !staged_endpoints.contains(k)
                            && edges
                                .iter()
                                .filter(|(ek, ..)| !removed_edges.contains(ek))
                                .all(|(_, _, _, s, t)| s != k && t != k)
                    })
                    .map(|(k, _, _)| *k)
                    .collect();
                if candidates.is_empty() {
                    continue;
                }
                let victim = candidates[rng.gen_range(0..candidates.len())];
                delta.remove_node(victim);
                removed_nodes.insert(victim);
            }
            // Update an edge property (payload key or default-key re-key).
            85..=89 => {
                let candidates: Vec<(EdgeKey, Ident)> = edges
                    .iter()
                    .filter(|(k, ..)| !removed_edges.contains(k))
                    .map(|(k, l, ..)| (*k, l.clone()))
                    .collect();
                if candidates.is_empty() {
                    continue;
                }
                let (key, label) = candidates[rng.gen_range(0..candidates.len())].clone();
                let ty = schema.edge_type(label.as_str()).expect("declared");
                if ty.keys.len() > 1 && rng.gen_bool(0.7) {
                    let prop = &ty.keys[rng.gen_range(1..ty.keys.len())];
                    delta.set_edge_prop(key, prop.clone(), random_prop_value(rng));
                } else {
                    *next_pk += 1;
                    delta.set_edge_prop(key, ty.keys[0].clone(), Value::Int(*next_pk));
                }
            }
            // Update a node property: usually a payload key, sometimes a
            // default-key re-key (which must ripple into edge SRC/TGT).
            _ => {
                let candidates: Vec<(NodeKey, Ident)> = nodes
                    .iter()
                    .filter(|(k, _, _)| !removed_nodes.contains(k))
                    .map(|(k, l, _)| (*k, l.clone()))
                    .collect();
                if candidates.is_empty() {
                    continue;
                }
                let (key, label) = candidates[rng.gen_range(0..candidates.len())].clone();
                let ty = schema.node_type(label.as_str()).expect("declared");
                if ty.keys.len() > 1 && rng.gen_bool(0.7) {
                    let prop = &ty.keys[rng.gen_range(1..ty.keys.len())];
                    delta.set_node_prop(key, prop.clone(), random_prop_value(rng));
                } else {
                    *next_pk += 1;
                    delta.set_node_prop(key, ty.keys[0].clone(), Value::Int(*next_pk));
                }
            }
        }
    }
    delta
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

    /// Tombstone-heavy histories: grow, then tear most of the graph down
    /// edge-by-edge and node-by-node across several commits (driving the
    /// compactor), then regrow.  Images must match the cold freeze at
    /// every generation.
    #[test]
    fn tombstone_heavy_histories_survive_compaction(
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
        let stats = store.stats();
        prop_assert!(
            stats.tombstoned_rows < 32 || stats.compactions > 0,
            "a teardown this size must either compact or stay under the threshold"
        );
    }
}

/// Deterministic end-to-end churn on the fixture instance, including a
/// forced compaction sweep between generations.
#[test]
fn fixture_churn_with_forced_compaction() {
    let schema = fixtures::emp::schema();
    let store = GraphStore::open(schema.clone(), fixtures::emp::graph()).unwrap();
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let mut next_pk = 3_000_000i64;
    for round in 0..12 {
        let delta = random_delta(&mut rng, &store, &schema, &mut next_pk);
        store.commit(delta).unwrap();
        if round % 3 == 2 {
            store.compact_now();
        }
        assert_commit_equals_cold_freeze(&store, fixtures::emp::QUERIES);
    }
    assert_eq!(store.stats().commits, 12);
}
