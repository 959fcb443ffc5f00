//! `durability`: WAL commit cost by durability mode, recovery time
//! against WAL length, and crash-recovery correctness, over 256 scripted
//! commits on a 1,000-employee seed graph.
//!
//! * **commit latency** — in-memory, fsync on every commit, and
//!   checkpoint-amortized fsync (reported, never gated: fsync cost is
//!   the disk's);
//! * **recovery** — directories written with checkpoints off (the whole
//!   WAL replays) and every 16 commits, then reopened;
//!   `checkpoint_bounds_replay` holds when the first replays all 256
//!   commits and the second at most 16;
//! * **recovery ≡ memory** — every recovered store must equal, row for
//!   row in both layouts and at the same generation, an in-memory store
//!   that committed the same deltas (`recovery_matches_memory`);
//! * **torn tail** — the newest WAL record is cut mid-frame; recovery
//!   must land one generation back and keep accepting commits
//!   (`torn_tail_recovered`).

use crate::fixtures::{delta_for, durability, durable, schema, scratch, seed_graph, time_commits};
use graphiti_bench::json::Json;
use graphiti_engine::SqlTarget;
use graphiti_store::{wal_segment_files, DurabilityOptions, GraphStore};
use std::path::PathBuf;
use std::time::Instant;

const SEED_EMPS: i64 = 1000;
const COMMITS: i64 = 256;
const CHECKPOINT_INTERVAL: u64 = 16;

/// Row-for-row, both-layouts equality of two stores' published images.
fn stores_equal(a: &GraphStore, b: &GraphStore) -> bool {
    if a.generation() != b.generation() {
        return false;
    }
    let (sa, sb) = (a.snapshot(), b.snapshot());
    let col_a = sa.sql_columnar(&SqlTarget::Induced).expect("columnar");
    for (name, ta) in sa.induced().tables() {
        let Some(tb) = sb.induced().table(name) else { return false };
        if ta != tb || col_a.table(name).expect("columnar table").to_table() != *tb {
            return false;
        }
    }
    sa.induced().tables().count() == sb.induced().tables().count()
}

/// A durable directory holding `commits` scripted commits, its store
/// dropped without a parting checkpoint (the "kill").
fn prepare_dir(tag: &str, commits: i64, opts: DurabilityOptions) -> PathBuf {
    let dir = scratch(tag);
    let store = durable(&dir).bootstrap(seed_graph(SEED_EMPS)).durability(opts).open().unwrap();
    for i in 0..commits {
        store.commit(delta_for(i)).expect("scripted commits are valid");
    }
    dir
}

/// µs/commit of `COMMITS` scripted commits on a fresh durable store,
/// plus its WAL bytes per commit.
fn durable_commits(tag: &str, opts: DurabilityOptions) -> (f64, f64) {
    let dir = scratch(tag);
    let store = durable(&dir).bootstrap(seed_graph(SEED_EMPS)).durability(opts).open().unwrap();
    let micros = time_commits(&store, COMMITS);
    let stats = store.stats();
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
    (micros, stats.wal_bytes as f64 / stats.wal_records as f64)
}

struct RecoveryPoint {
    wal_commits: i64,
    checkpoint_interval: u64,
    replayed: u64,
    recovery_micros: f64,
    matches_memory: bool,
}

fn measure_recovery(commits: i64, interval: u64) -> RecoveryPoint {
    let dir = prepare_dir("recovery", commits, durability(false, interval));
    let start = Instant::now();
    let recovered = durable(&dir).open().expect("recovery");
    let recovery_micros = start.elapsed().as_micros() as f64;
    let oracle = GraphStore::open(schema(), seed_graph(SEED_EMPS)).unwrap();
    for i in 0..commits {
        oracle.commit(delta_for(i)).unwrap();
    }
    let point = RecoveryPoint {
        wal_commits: commits,
        checkpoint_interval: interval,
        replayed: recovered.stats().replayed_commits,
        recovery_micros,
        matches_memory: stores_equal(&recovered, &oracle),
    };
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
    point
}

/// Cuts the newest WAL record mid-frame and recovers; returns whether
/// recovery landed one generation back and resumed, and the generation
/// it landed on.
fn torn_tail_case() -> (bool, u64) {
    let commits = 3i64;
    let dir = prepare_dir("torn", commits, durability(false, 0));
    let seg = wal_segment_files(&dir).unwrap().pop().expect("a WAL segment");
    let bytes = std::fs::read(&seg).unwrap();
    // Walk the frames to find where the final record starts.
    let (mut off, mut last) = (0usize, 0usize);
    while off + 8 <= bytes.len() {
        let frame = 8 + u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        if off + frame > bytes.len() {
            break;
        }
        last = off;
        off += frame;
    }
    let cut = last + (off - last) / 2;
    let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
    f.set_len(cut as u64).unwrap();
    drop(f);
    let Ok(recovered) = durable(&dir).open() else {
        return (false, 0);
    };
    let landed = recovered.generation();
    let resumed = recovered.commit(delta_for(commits - 1)).is_ok();
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
    (landed == commits as u64 - 1 && resumed, landed)
}

pub fn run() -> Json {
    let mem_store = GraphStore::open(schema(), seed_graph(SEED_EMPS)).unwrap();
    let in_memory_us = time_commits(&mem_store, COMMITS);
    let (fsync_us, wal_bytes_per_commit) = durable_commits("latency-fsync", durability(true, 0));
    let (amortized_us, _) =
        durable_commits("latency-amortized", durability(false, CHECKPOINT_INTERVAL));

    let recovery = [
        measure_recovery(COMMITS / 4, 0),
        measure_recovery(COMMITS, 0),
        measure_recovery(COMMITS, CHECKPOINT_INTERVAL),
    ];
    let (unbounded, bounded) = (&recovery[1], &recovery[2]);
    let checkpoint_bounds_replay =
        unbounded.replayed == COMMITS as u64 && bounded.replayed <= CHECKPOINT_INTERVAL;
    let (torn_tail_recovered, landed) = torn_tail_case();

    let recovery_us = recovery.iter().map(|p| {
        let key = format!("{}_commits_checkpoint_{}", p.wal_commits, p.checkpoint_interval);
        (key, Json::obj([("replayed", p.replayed.into()), ("us", p.recovery_micros.into())]))
    });
    Json::obj([
        ("in_memory_commit_us", in_memory_us.into()),
        ("fsync_each_commit_us", fsync_us.into()),
        ("checkpoint_amortized_commit_us", amortized_us.into()),
        ("wal_bytes_per_commit", wal_bytes_per_commit.into()),
        ("recovery", Json::obj(recovery_us)),
        ("torn_tail_landed_generation", landed.into()),
        (
            "gate",
            Json::obj([
                ("recovery_matches_memory", recovery.iter().all(|p| p.matches_memory).into()),
                ("torn_tail_recovered", torn_tail_recovered.into()),
                ("checkpoint_bounds_replay", checkpoint_bounds_replay.into()),
            ]),
        ),
    ])
}
