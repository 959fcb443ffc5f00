//! Kill-and-recover tests of the durable store (WAL + checkpoints).
//!
//! The contract under test is **crash-prefix equivalence**: for any
//! schema-valid mutation script and any byte-level cut of the WAL tail,
//! `open_durable(cut(dir)) ≡` the store at the last commit whose record
//! survives the cut in full —
//!
//! * the recovered generation is some durable prefix of the committed
//!   script (never a partial commit, never past the cut);
//! * every induced table matches an in-memory oracle that replayed
//!   exactly that prefix — identical columns and rows in **both**
//!   layouts (the row image and the columnar image), since recovery must
//!   preserve published row order, not just bag-equality;
//! * every fixture query evaluates equivalently through the recovered
//!   store's engine and the oracle's;
//! * the recovered store keeps accepting (and re-logging) commits.
//!
//! Scripts come from the generator the store suites share (`common`).
//! Checkpoint cadence is drawn per
//! case so cuts land in fresh segments, checkpoint-covered territory, and
//! bootstrap-only directories alike.  The nightly durability CI job
//! raises the case count via `PROPTEST_CASES`.

mod common;

use common::random_delta;
use graphiti_engine::{BatchQuery, SqlTarget};
use graphiti_graph::{GraphInstance, GraphSchema};
use graphiti_store::{wal_segment_files, Delta, DurabilityOptions, GraphStore};
use graphiti_testkit::{arb_instance, fixtures};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

/// Opens a durable store through [`GraphStore::builder`] — the one
/// supported entry point; every durable open in this harness funnels
/// through here.
fn open_durable_with(
    dir: &Path,
    schema: GraphSchema,
    bootstrap: GraphInstance,
    opts: DurabilityOptions,
) -> Result<GraphStore, graphiti_store::StoreError> {
    GraphStore::builder(schema).durable(dir).bootstrap(bootstrap).durability(opts).open()
}

/// A unique scratch directory under the workspace `target/` dir (tests
/// must not touch paths outside the repository).
fn scratch(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/testkit-durability")
        .join(format!("{tag}-{}-{}", std::process::id(), NEXT.fetch_add(1, Ordering::SeqCst)));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// Recovery must reproduce the oracle *exactly*: same generation, same
/// row and columnar images (row order included — published order survives
/// recovery), and query-equivalent through both engines.
fn assert_recovered_equals_oracle(recovered: &GraphStore, oracle: &GraphStore, queries: &[&str]) {
    assert_eq!(recovered.generation(), oracle.generation(), "generation");
    let (a, b) = (recovered.snapshot(), oracle.snapshot());
    let mut names_a: Vec<&String> = a.induced().tables().map(|(n, _)| n).collect();
    let mut names_b: Vec<&String> = b.induced().tables().map(|(n, _)| n).collect();
    names_a.sort();
    names_b.sort();
    assert_eq!(names_a, names_b, "induced table sets");
    let col_a = a.sql_columnar(&SqlTarget::Induced).unwrap();
    for (name, ta) in a.induced().tables() {
        let tb = b.induced().table(name).unwrap();
        assert_eq!(ta, tb, "row image of `{name}` (published order must survive recovery)");
        let ca = col_a.table(name).unwrap().to_table();
        assert_eq!(ca, *tb, "columnar image of `{name}`");
    }
    for q in queries {
        let live = recovered.engine().execute_on(&a, &BatchQuery::cypher(*q));
        let oracle_out = oracle.engine().execute_on(&b, &BatchQuery::cypher(*q));
        let (live, oracle_out) = (live.result.expect(q), oracle_out.result.expect(q));
        assert!(
            live.equivalent(&oracle_out),
            "query `{q}` disagrees after recovery:\nrecovered:\n{live}\noracle:\n{oracle_out}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random mutation script, then a crash that cuts the newest WAL
    /// segment at a random byte offset: recovery must land exactly on
    /// the longest durable prefix of the script.
    #[test]
    fn crash_recovery_lands_on_a_durable_prefix(
        graph in arb_instance(&fixtures::emp::schema(), 4, 6),
        seed in any::<u64>(),
        cut_permille in 0u32..=1000,
    ) {
        let cut_frac = f64::from(cut_permille) / 1000.0;
        let schema = fixtures::emp::schema();
        let mut rng = StdRng::seed_from_u64(seed);
        let opts = DurabilityOptions {
            // Flushed-not-fsynced is the same recovery contract for a
            // process kill, and keeps the case count affordable.
            fsync_each_commit: false,
            checkpoint_interval: [0, 2, 3][rng.gen_range(0..3usize)],
            keep_checkpoints: 2,
            ..DurabilityOptions::default()
        };
        let dir = scratch("crash");
        let store = open_durable_with(
            &dir, schema.clone(), graph.clone(), opts,
        ).expect("durable open on a valid instance");
        let mut deltas: Vec<Delta> = Vec::new();
        let mut next_pk: i64 = 1_000_000;
        let commits = rng.gen_range(3..=6usize);
        for _ in 0..commits {
            let d = random_delta(&mut rng, &store, &schema, &mut next_pk);
            deltas.push(d.clone());
            store.commit(d).expect("valid-by-construction deltas must commit");
        }
        let committed = store.generation();
        drop(store); // the "kill": no graceful checkpoint on the way out

        // Crash image: copy the directory, then cut the newest WAL
        // segment at a byte offset drawn over its whole length.
        let cut_dir = scratch("crash-cut");
        copy_dir(&dir, &cut_dir);
        if let Some(newest) = wal_segment_files(&cut_dir).unwrap().pop() {
            let len = std::fs::metadata(&newest).unwrap().len();
            let cut = ((len as f64) * cut_frac).round() as u64;
            let f = std::fs::OpenOptions::new().write(true).open(&newest).unwrap();
            f.set_len(cut.min(len)).unwrap();
        }

        let recovered = open_durable_with(
            &cut_dir, schema.clone(), GraphInstance::new(), opts,
        ).expect("recovery must never fail on a torn tail");
        let g = recovered.generation();
        prop_assert!(g <= committed, "recovery cannot invent generations");
        prop_assert!(
            recovered.stats().last_checkpoint_generation <= g,
            "recovery can never land before the newest checkpoint"
        );

        // Oracle: an in-memory store replaying exactly the recovered
        // prefix (stable keys and generations are deterministic, so the
        // recorded deltas replay verbatim).
        let oracle = GraphStore::open(schema.clone(), graph).expect("valid instance");
        for d in deltas {
            if oracle.generation() >= g {
                break;
            }
            oracle.commit(d).expect("replaying a committed prefix");
        }
        prop_assert_eq!(oracle.generation(), g, "no durable prefix reproduces the recovery");
        assert_recovered_equals_oracle(&recovered, &oracle, fixtures::emp::QUERIES);

        // Life goes on: the recovered store accepts and logs new commits.
        let d = random_delta(&mut rng, &recovered, &schema, &mut next_pk);
        recovered.commit(d).expect("post-recovery commits must succeed");

        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&cut_dir).ok();
    }

    /// Clean shutdown and reopen (no cut at all) is the degenerate case:
    /// recovery must reproduce the final state bit-for-bit, whatever the
    /// checkpoint cadence left on disk.
    #[test]
    fn clean_reopen_reproduces_the_final_state(
        graph in arb_instance(&fixtures::emp::schema(), 3, 5),
        seed in any::<u64>(),
    ) {
        let schema = fixtures::emp::schema();
        let mut rng = StdRng::seed_from_u64(seed);
        let opts = DurabilityOptions {
            fsync_each_commit: false,
            checkpoint_interval: [0, 1, 4][rng.gen_range(0..3usize)],
            keep_checkpoints: 1,
            ..DurabilityOptions::default()
        };
        let dir = scratch("reopen");
        let store = open_durable_with(
            &dir, schema.clone(), graph.clone(), opts,
        ).expect("durable open");
        let oracle = GraphStore::open(schema.clone(), graph).expect("valid instance");
        let mut next_pk: i64 = 1_000_000;
        for _ in 0..rng.gen_range(2..=5usize) {
            let d = random_delta(&mut rng, &store, &schema, &mut next_pk);
            oracle.commit(d.clone()).expect("oracle commit");
            store.commit(d).expect("durable commit");
        }
        drop(store);
        let recovered = open_durable_with(
            &dir, schema.clone(), GraphInstance::new(), opts,
        ).expect("reopen");
        assert_recovered_equals_oracle(&recovered, &oracle, fixtures::emp::QUERIES);
        std::fs::remove_dir_all(&dir).ok();
    }
}
