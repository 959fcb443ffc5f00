//! Chaos harness: every I/O operation the store performs is a potential
//! failure point, and none of them may break the commit contract.
//!
//! Each proptest case draws a random schema-valid mutation script, runs
//! it once fault-free through a counting [`FaultVfs`] to learn how many
//! VFS operations the script performs, then **sweeps**: for every k it
//! re-runs the script on a fresh directory with the k-th operation
//! forced to fail (alternating plain errors and torn short writes).
//! The invariants, regardless of where the fault lands:
//!
//! * **no panic, ever** — every failure surfaces as a typed
//!   [`StoreError`];
//! * a failed commit is **side-effect-free** (the store equals the
//!   oracle at the committed prefix and stays live), or the store
//!   **fences** read-only — readers keep serving the last published
//!   generation and further commits return `Fenced`;
//! * no generation publishes before its WAL record is durable: a
//!   post-crash reopen with the real filesystem recovers **exactly**
//!   the acknowledged prefix;
//! * recovery itself is sweepable: reopening a valid directory with a
//!   fault at every operation of the recovery path either succeeds
//!   exactly or fails typed.
//!
//! The sweep is exhaustive over call sites by construction — `FaultVfs`
//! counts reads too, so recovery-path reads are coverable.  The per-push
//! CI `chaos` job runs a modest case count; the nightly leg raises it
//! via `PROPTEST_CASES` (honored below).

mod common;

use common::random_delta;
use graphiti_engine::{BatchQuery, SqlTarget};
use graphiti_graph::{GraphInstance, GraphSchema};
use graphiti_store::{Delta, DurabilityOptions, FaultKind, FaultVfs, GraphStore, OpClass};
use graphiti_testkit::{arb_instance, fixtures};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Opens a durable store through [`GraphStore::builder`] — the one
/// supported entry point; every durable open in this harness funnels
/// through these two helpers.
fn open_durable_with(
    dir: &Path,
    schema: GraphSchema,
    bootstrap: GraphInstance,
    opts: DurabilityOptions,
) -> Result<GraphStore, graphiti_store::StoreError> {
    GraphStore::builder(schema).durable(dir).bootstrap(bootstrap).durability(opts).open()
}

/// Like [`open_durable_with`], with every I/O operation routed through
/// the given (fault-injecting) VFS.
fn open_durable_with_vfs(
    dir: &Path,
    schema: GraphSchema,
    bootstrap: GraphInstance,
    opts: DurabilityOptions,
    fs: Arc<dyn graphiti_store::Vfs>,
) -> Result<GraphStore, graphiti_store::StoreError> {
    GraphStore::builder(schema).durable(dir).bootstrap(bootstrap).durability(opts).vfs(fs).open()
}

/// `PROPTEST_CASES`-honoring case count (`ProptestConfig::with_cases`
/// would pin it, so the nightly deep run could not raise it).
fn cases(default_cases: u32) -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default_cases)
}

/// A unique scratch directory under the workspace `target/` dir (tests
/// must not touch paths outside the repository).
fn scratch(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/testkit-chaos")
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

/// Both-layouts table equality plus query equivalence against the oracle.
fn assert_store_equals_oracle(live: &GraphStore, oracle: &GraphStore, context: &str) {
    assert_eq!(live.generation(), oracle.generation(), "generation ({context})");
    let (a, b) = (live.snapshot(), oracle.snapshot());
    let col_a = a.sql_columnar(&SqlTarget::Induced).unwrap();
    for (name, ta) in a.induced().tables() {
        let tb = b.induced().table(name).unwrap_or_else(|| panic!("missing `{name}` ({context})"));
        assert_eq!(ta, tb, "row image of `{name}` ({context})");
        assert_eq!(col_a.table(name).unwrap().to_table(), *tb, "columnar `{name}` ({context})");
    }
    assert_eq!(a.induced().tables().count(), b.induced().tables().count(), "table count");
    for q in fixtures::emp::QUERIES.iter().take(3) {
        let (lo, oo) = (
            live.engine().execute_on(&a, &BatchQuery::cypher(*q)),
            oracle.engine().execute_on(&b, &BatchQuery::cypher(*q)),
        );
        let (lo, oo) = (lo.result.expect(q), oo.result.expect(q));
        assert!(lo.equivalent(&oo), "query `{q}` diverges ({context}):\n{lo}\nvs\n{oo}");
    }
}

/// Generates a fixed script by evolving an in-memory oracle, so every
/// faulted run replays byte-identical deltas.
fn scripted(
    schema: &GraphSchema,
    graph: &GraphInstance,
    rng: &mut StdRng,
    commits: usize,
) -> Vec<Delta> {
    let oracle = GraphStore::open(schema.clone(), graph.clone()).expect("valid instance");
    let mut next_pk: i64 = 1_000_000;
    let mut deltas = Vec::with_capacity(commits);
    for _ in 0..commits {
        let d = random_delta(rng, &oracle, schema, &mut next_pk);
        oracle.commit(d.clone()).expect("valid-by-construction");
        deltas.push(d);
    }
    deltas
}

/// An in-memory oracle at generation `prefix` of the script.
fn oracle_at(
    schema: &GraphSchema,
    graph: &GraphInstance,
    deltas: &[Delta],
    prefix: usize,
) -> GraphStore {
    let oracle = GraphStore::open(schema.clone(), graph.clone()).expect("valid instance");
    for d in &deltas[..prefix] {
        oracle.commit(d.clone()).expect("replaying a committed prefix");
    }
    oracle
}

fn chaos_opts(rng: &mut StdRng) -> DurabilityOptions {
    DurabilityOptions {
        // Strict redo rule: the fsync path is where fencing lives.
        fsync_each_commit: true,
        checkpoint_interval: [0, 2, 3][rng.gen_range(0..3usize)],
        keep_checkpoints: 2,
        // No retries: the first injected failure must surface, so the
        // sweep observes every failure path deterministically.
        wal_retry_attempts: 0,
        wal_retry_backoff_ms: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(12)))]

    /// The main sweep: fail the k-th VFS operation, for every k the
    /// script performs, and check the whole contract each time.
    #[test]
    fn every_io_failure_point_preserves_the_commit_contract(
        graph in arb_instance(&fixtures::emp::schema(), 3, 5),
        seed in any::<u64>(),
    ) {
        let schema = fixtures::emp::schema();
        let mut rng = StdRng::seed_from_u64(seed);
        let opts = chaos_opts(&mut rng);
        let commits = rng.gen_range(2..=4usize);
        let deltas = scripted(&schema, &graph, &mut rng, commits);

        // Probe run: count the operations a fault-free run performs.
        let total_ops = {
            let dir = scratch("probe");
            let vfs = FaultVfs::default();
            let store = open_durable_with_vfs(
                &dir, schema.clone(), graph.clone(), opts, Arc::new(vfs.clone()),
            ).expect("fault-free open");
            for d in &deltas {
                store.commit(d.clone()).expect("fault-free commit");
            }
            drop(store);
            std::fs::remove_dir_all(&dir).ok();
            vfs.ops()
        };
        prop_assert!(total_ops >= 5, "the probe must observe the script's I/O");

        for k in 1..=total_ops {
            let kind = if k % 2 == 0 { FaultKind::ShortWrite } else { FaultKind::Error };
            let dir = scratch("sweep");
            let vfs = FaultVfs::default();
            vfs.fail_nth_kind(k, kind);
            let opened = open_durable_with_vfs(
                &dir, schema.clone(), graph.clone(), opts, Arc::new(vfs.clone()),
            );
            let mut committed = 0usize;
            match opened {
                Err(e) => {
                    // A fault during bootstrap fails typed; the partial
                    // directory must still be recoverable or typed-bad.
                    prop_assert!(!e.is_rejected(), "bootstrap fault misclassified: {e}");
                }
                Ok(store) => {
                    let obs = Arc::clone(store.obs());
                    let mut failure: Option<graphiti_store::StoreError> = None;
                    for d in &deltas {
                        match store.commit(d.clone()) {
                            Ok(_) => committed += 1,
                            Err(e) => { failure = Some(e); break; }
                        }
                    }
                    let commit_failed = failure.is_some();
                    if let Some(e) = failure {
                        prop_assert!(
                            e.is_io() || e.is_fenced(),
                            "an injected fault surfaced as `{e}` — only Io (rolled back) \
                             or Fenced are legal for a valid delta"
                        );
                        // Side-effect-free or fenced: either way the
                        // published state is exactly the committed prefix.
                        prop_assert_eq!(store.is_fenced(), e.is_fenced());
                        let oracle = oracle_at(&schema, &graph, &deltas, committed);
                        assert_store_equals_oracle(&store, &oracle, &format!("after fault k={k}"));
                        if e.is_fenced() {
                            // Fenced: commits are refused, reads keep serving.
                            let retry = store.commit(deltas[committed].clone());
                            prop_assert!(retry.unwrap_err().is_fenced());
                        } else {
                            // Live: the same delta goes through on retry
                            // (the one-shot fault is spent).
                            store.commit(deltas[committed].clone()).expect("retry after Io");
                            committed += 1;
                        }
                    }
                    drop(store);
                    // The drop joined the checkpoint job in flight.  A
                    // fault that reached no commit shows only as a failed
                    // checkpoint, and one one-shot fault shows once at
                    // most: in a commit's error or in the counter.
                    let failures =
                        obs.registry().counter("graphiti_checkpoint_failures_total").get();
                    prop_assert!(
                        failures + u64::from(commit_failed) <= vfs.injected(),
                        "k={k}: {failures} failed checkpoints, commit failed: {commit_failed}"
                    );
                }
            }
            // Reopen on the real filesystem: recovery must land exactly
            // on the acknowledged prefix — never a partial commit, never
            // a lost acknowledged one.  (One-shot faults always roll the
            // failed record back, so "exact" is the right bound.)
            if committed > 0 || wal_or_checkpoint_exists(&dir) {
                let recovered = open_durable_with(
                    &dir, schema.clone(), GraphInstance::new(), opts,
                ).expect("reopen after a contained fault must recover");
                let oracle = oracle_at(&schema, &graph, &deltas, committed);
                assert_store_equals_oracle(&recovered, &oracle, &format!("recovery k={k}"));
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// fsyncgate, property form: syncs start failing *and stay failing*
    /// at a random point (writes/reads/truncation still work).  The
    /// store must fence — and `checkpoint_now` must fully recover it
    /// once the disk heals.
    #[test]
    fn sticky_sync_failure_fences_and_checkpoint_now_recovers(
        graph in arb_instance(&fixtures::emp::schema(), 3, 5),
        seed in any::<u64>(),
    ) {
        let schema = fixtures::emp::schema();
        let mut rng = StdRng::seed_from_u64(seed);
        let opts = chaos_opts(&mut rng);
        let commits = rng.gen_range(2..=4usize);
        let deltas = scripted(&schema, &graph, &mut rng, commits);
        let dir = scratch("sticky");
        let vfs = FaultVfs::default();
        let store = open_durable_with_vfs(
            &dir, schema.clone(), graph.clone(), opts, Arc::new(vfs.clone()),
        ).expect("fault-free open");
        let healthy = rng.gen_range(0..deltas.len());
        for d in &deltas[..healthy] {
            store.commit(d.clone()).expect("pre-fault commit");
        }
        // The disk stops syncing (but not writing) somewhere in the next
        // commit — or a later one.
        vfs.fail_from(vfs.ops() + rng.gen_range(1..=8u64));
        vfs.exempt(&[OpClass::Read, OpClass::Write, OpClass::SetLen, OpClass::Meta]);
        let mut committed = healthy;
        let mut fenced = false;
        for d in &deltas[healthy..] {
            match store.commit(d.clone()) {
                Ok(_) => committed += 1,
                Err(e) => {
                    prop_assert!(e.is_fenced(), "a sync failure must fence, got: {e}");
                    fenced = true;
                    break;
                }
            }
        }
        if fenced {
            prop_assert!(store.is_fenced());
            let oracle = oracle_at(&schema, &graph, &deltas, committed);
            assert_store_equals_oracle(&store, &oracle, "fenced reads");
            // The disk heals: checkpoint_now re-captures state on fresh
            // files and lifts the fence; the interrupted script finishes.
            vfs.clear();
            store.checkpoint_now().expect("fence recovery");
            prop_assert!(!store.is_fenced());
            for d in &deltas[committed..] {
                store.commit(d.clone()).expect("post-recovery commit");
            }
        }
        let oracle = oracle_at(&schema, &graph, &deltas, deltas.len());
        if fenced || committed == deltas.len() {
            assert_store_equals_oracle(&store, &oracle, "final state");
        }
        drop(store);
        let recovered = open_durable_with(
            &dir, schema.clone(), GraphInstance::new(), opts,
        ).expect("reopen");
        if fenced || committed == deltas.len() {
            assert_store_equals_oracle(&recovered, &oracle, "final recovery");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Recovery-path sweep: a valid directory reopened with a fault at
    /// every operation of the recovery path (reads included) either
    /// recovers exactly or fails with a typed error — never a panic,
    /// never a silently wrong store.
    #[test]
    fn recovery_under_injected_faults_is_exact_or_typed(
        graph in arb_instance(&fixtures::emp::schema(), 3, 5),
        seed in any::<u64>(),
    ) {
        let schema = fixtures::emp::schema();
        let mut rng = StdRng::seed_from_u64(seed);
        let opts = chaos_opts(&mut rng);
        let commits = rng.gen_range(2..=4usize);
        let deltas = scripted(&schema, &graph, &mut rng, commits);
        let dir = scratch("recovery-base");
        {
            let store = open_durable_with(
                &dir, schema.clone(), graph.clone(), opts,
            ).expect("durable open");
            for d in &deltas {
                store.commit(d.clone()).expect("fault-free commit");
            }
        }
        let oracle = oracle_at(&schema, &graph, &deltas, deltas.len());
        // Probe the recovery path's operation count.
        let recovery_ops = {
            let probe_dir = scratch("recovery-probe");
            copy_dir(&dir, &probe_dir);
            let vfs = FaultVfs::default();
            let recovered = open_durable_with_vfs(
                &probe_dir, schema.clone(), GraphInstance::new(), opts,
                Arc::new(vfs.clone()),
            ).expect("fault-free recovery");
            assert_store_equals_oracle(&recovered, &oracle, "probe recovery");
            drop(recovered);
            std::fs::remove_dir_all(&probe_dir).ok();
            vfs.ops()
        };
        for k in 1..=recovery_ops {
            let case_dir = scratch("recovery-sweep");
            copy_dir(&dir, &case_dir);
            let vfs = FaultVfs::default();
            vfs.fail_nth(k);
            match open_durable_with_vfs(
                &case_dir, schema.clone(), GraphInstance::new(), opts,
                Arc::new(vfs.clone()),
            ) {
                Ok(recovered) => {
                    // The fault landed on a best-effort step: the result
                    // must still be exact.
                    assert_store_equals_oracle(
                        &recovered, &oracle, &format!("faulted recovery k={k}"),
                    );
                }
                Err(e) => {
                    prop_assert!(
                        !e.is_rejected() && !e.is_fenced(),
                        "recovery fault misclassified as `{e}`"
                    );
                }
            }
            std::fs::remove_dir_all(&case_dir).ok();
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Whether the directory holds any durable artifact worth recovering
/// (a bootstrap fault can abort before either file exists).
fn wal_or_checkpoint_exists(dir: &Path) -> bool {
    std::fs::read_dir(dir).is_ok_and(|entries| {
        entries.filter_map(|e| e.ok()).any(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.ends_with(".wal") || name.ends_with(".ckpt")
        })
    })
}
