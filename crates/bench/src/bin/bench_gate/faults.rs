//! `faults`: the cost of routing durability I/O through `Arc<dyn Vfs>`,
//! and the failure contract under `FaultVfs`.
//!
//! * **VFS indirection** — the durable commit loop (fsync and
//!   checkpoints off: pure WAL-append durability) against the sum of its
//!   parts taken directly, an in-memory commit loop plus a raw `std::fs`
//!   loop writing frames of the same size.  `vfs_relative_throughput`
//!   is `(memory + direct I/O) / durable`, the best ratio of 5 reps
//!   after a warm-up, floored at 0.95;
//! * **commit latency and recovery** — fsync-per-commit,
//!   checkpoint-amortized, and a full-WAL recovery (reported only);
//! * **failure contract** — an injected WAL-append failure aborts the
//!   commit with `Io` and publishes nothing
//!   (`failed_commit_side_effect_free`); a sticky sync failure fences
//!   the store (`fenced_on_fsync_failure`); the fenced directory reopens
//!   to exactly the committed prefix (`reopen_after_fence_recovers`);
//!   and a fault at every operation of the checkpoint span leaves the
//!   previous checkpoint recoverable (`checkpoint_survives_injected_faults`).

use crate::fixtures::{
    best_of, delta_for, durability, durable, schema, scratch, seed_graph, time_commits,
};
use graphiti_bench::json::Json;
use graphiti_store::{std_vfs, DurabilityOptions, FaultVfs, GraphStore, OpClass, StoreError};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const SEED_EMPS: i64 = 1000;
const COMMITS: i64 = 256;
const REPS: usize = 5;

/// Durability with WAL retries off: the contract cases assert on the
/// first injected failure.
fn no_retry(fsync: bool, interval: u64) -> DurabilityOptions {
    DurabilityOptions {
        wal_retry_attempts: 0,
        wal_retry_backoff_ms: 0,
        ..durability(fsync, interval)
    }
}

fn open_seeded(dir: &Path, opts: DurabilityOptions) -> GraphStore {
    durable(dir).bootstrap(seed_graph(SEED_EMPS)).durability(opts).open().unwrap()
}

/// The WAL's syscall sequence taken directly: one seek-write-flush of a
/// `frame_len`-byte frame per commit, raw `std::fs`, no fsync.  Returns
/// µs per frame.
fn drive_direct(path: &Path, frame_len: usize, frames: i64) -> f64 {
    use std::io::{Seek, SeekFrom, Write};
    let frame = vec![0xA5u8; frame_len];
    let mut file =
        std::fs::OpenOptions::new().create(true).write(true).truncate(true).open(path).unwrap();
    let start = Instant::now();
    for i in 0..frames {
        file.seek(SeekFrom::Start(i as u64 * frame_len as u64)).unwrap();
        file.write_all(&frame).unwrap();
        file.flush().unwrap();
    }
    start.elapsed().as_micros() as f64 / frames as f64
}

struct IndirectionRun {
    ratio: f64,
    memory_micros: f64,
    direct_io_micros: f64,
    durable_micros: f64,
    frame_len: usize,
}

fn indirection_run() -> IndirectionRun {
    let dir = scratch("indirection-durable");
    let store = open_seeded(&dir, no_retry(false, 0));
    let durable_micros = time_commits(&store, COMMITS);
    let stats = store.stats();
    let frame_len = (stats.wal_bytes / stats.wal_records.max(1)).max(32) as usize;
    drop(store);
    std::fs::remove_dir_all(&dir).ok();

    let dir = scratch("indirection-direct");
    let direct_io_micros = drive_direct(&dir.join("raw.wal"), frame_len, COMMITS);
    std::fs::remove_dir_all(&dir).ok();
    let mem_store = GraphStore::open(schema(), seed_graph(SEED_EMPS)).unwrap();
    let memory_micros = time_commits(&mem_store, COMMITS);

    IndirectionRun {
        ratio: (memory_micros + direct_io_micros) / durable_micros.max(0.001),
        memory_micros,
        direct_io_micros,
        durable_micros,
        frame_len,
    }
}

fn open_faulted(dir: &Path, vfs: &FaultVfs) -> GraphStore {
    durable(dir)
        .bootstrap(seed_graph(8))
        .durability(no_retry(true, 0))
        .vfs(Arc::new(vfs.clone()))
        .open()
        .expect("fault-free open")
}

fn failed_commit_side_effect_free() -> bool {
    let dir = scratch("abort");
    let vfs = FaultVfs::new(std_vfs());
    let store = open_faulted(&dir, &vfs);
    let before = store.generation();
    let snap = store.snapshot();
    vfs.fail_nth(vfs.ops() + 1);
    let err = match store.commit(delta_for(0)) {
        Err(e) => e,
        Ok(_) => return false,
    };
    let ok = matches!(err, StoreError::Io { .. })
        && !store.is_fenced()
        && store.generation() == before
        && Arc::ptr_eq(&snap, &store.snapshot())
        && store.commit(delta_for(0)).is_ok();
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
    ok
}

/// A sticky fsync failure must fence the store (an fsync error is never
/// retriable: data "rewritten" afterwards may only live in the page
/// cache), and the fenced directory must then reopen to exactly the
/// committed prefix and accept new commits.  Returns (fenced, reopened).
fn fence_and_reopen() -> (bool, bool) {
    let dir = scratch("fence");
    let vfs = FaultVfs::new(std_vfs());
    let store = open_faulted(&dir, &vfs);
    store.commit(delta_for(0)).expect("healthy prefix");
    let committed = store.generation();
    vfs.fail_from(vfs.ops() + 1);
    vfs.exempt(&[OpClass::Read, OpClass::Write, OpClass::SetLen, OpClass::Meta]);
    let fenced = matches!(store.commit(delta_for(1)), Err(ref e) if e.is_fenced())
        && store.is_fenced()
        && store.generation() == committed
        && matches!(store.commit(delta_for(1)), Err(ref e) if e.is_fenced());
    vfs.clear();
    drop(store); // the reopen exercises the on-disk state alone
    let reopened = durable(&dir).open().is_ok_and(|reopened| {
        reopened.generation() == committed && reopened.commit(delta_for(1)).is_ok()
    });
    std::fs::remove_dir_all(&dir).ok();
    (fenced, reopened)
}

fn checkpoint_survives_injected_faults() -> bool {
    // Probe the span fault-free first.
    let dir = scratch("ckpt-probe");
    let vfs = FaultVfs::new(std_vfs());
    let store = open_faulted(&dir, &vfs);
    store.commit(delta_for(0)).unwrap();
    let before = vfs.ops();
    store.checkpoint_now().unwrap();
    let span = vfs.ops() - before;
    drop(store);
    std::fs::remove_dir_all(&dir).ok();

    for k in 1..=span {
        let dir = scratch("ckpt-sweep");
        let vfs = FaultVfs::new(std_vfs());
        let store = open_faulted(&dir, &vfs);
        store.commit(delta_for(0)).unwrap();
        vfs.fail_nth(vfs.ops() + k);
        match store.checkpoint_now() {
            // The fault landed on an op this layout retries past.
            Ok(g) => {
                if g != 1 {
                    return false;
                }
            }
            Err(e) => {
                if !e.is_io() || store.is_fenced() {
                    return false;
                }
            }
        }
        vfs.clear();
        // The next checkpoint must succeed and sweep any stray tmp file.
        if store.checkpoint_now().is_err() {
            return false;
        }
        drop(store);
        if !durable(&dir).open().is_ok_and(|reopened| reopened.generation() == 1) {
            return false;
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    true
}

pub fn run() -> Json {
    let ind = best_of(REPS, indirection_run, |run| run.ratio);

    let dir = scratch("latency-fsync");
    let store = open_seeded(&dir, no_retry(true, 0));
    let fsync_micros = time_commits(&store, COMMITS);
    drop(store);
    std::fs::remove_dir_all(&dir).ok();

    let dir = scratch("latency-amortized");
    let store = open_seeded(&dir, no_retry(false, 16));
    let amortized_micros = time_commits(&store, COMMITS);
    drop(store);
    std::fs::remove_dir_all(&dir).ok();

    let dir = scratch("recovery");
    {
        let store = open_seeded(&dir, no_retry(false, 0));
        for i in 0..COMMITS {
            store.commit(delta_for(i)).unwrap();
        }
    }
    let start = Instant::now();
    let recovered = durable(&dir).open().expect("recovery");
    let recovery_micros = start.elapsed().as_micros() as f64;
    let replayed = recovered.stats().replayed_commits;
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();

    let side_effect_free = failed_commit_side_effect_free();
    let (fenced, reopen_recovers) = fence_and_reopen();
    let checkpoint_survives = checkpoint_survives_injected_faults();

    Json::obj([
        ("in_memory_commit_us", ind.memory_micros.into()),
        ("direct_frame_io_us", ind.direct_io_micros.into()),
        ("durable_commit_us", ind.durable_micros.into()),
        ("wal_frame_bytes", ind.frame_len.into()),
        ("fsync_each_commit_us", fsync_micros.into()),
        ("checkpoint_amortized_commit_us", amortized_micros.into()),
        ("recovery_replayed", replayed.into()),
        ("recovery_us", recovery_micros.into()),
        (
            "gate",
            Json::obj([
                ("vfs_relative_throughput", ind.ratio.into()),
                ("failed_commit_side_effect_free", side_effect_free.into()),
                ("fenced_on_fsync_failure", fenced.into()),
                ("reopen_after_fence_recovers", reopen_recovers.into()),
                ("checkpoint_survives_injected_faults", checkpoint_survives.into()),
            ]),
        ),
    ])
}
