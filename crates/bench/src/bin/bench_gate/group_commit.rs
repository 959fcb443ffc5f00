//! `group_commit`: writer throughput with and without group commit,
//! reads under group-committed writes, and a live-server smoke test.
//!
//! * **group-commit speedup** — 8 concurrent writers × 64 commits
//!   against a durable store fsyncing every commit: solo
//!   `GraphStore::commit` (one WAL append, fsync and publication per
//!   commit) against the same workload through a `GroupCommitter`
//!   (concurrent commits share one append, fsync and publication).
//!   `group_commit_speedup` is the best speedup of 4 reps after a
//!   warm-up, floored at 3;
//! * **reads under writes** — pinned-session query throughput while 4
//!   group-commit writers run, against the quiet store;
//!   `reads_survive_writes` holds while the ratio stays at 0.30 or more;
//! * **server smoke** — a unix-socket server under 32 clients mixing
//!   commits, queries, batches, refresh and stats, then a clean shutdown
//!   (`server_smoke`).

use crate::fixtures::{
    best_of, delta_for, durability, durable, scratch, seed_graph, service, socket_path,
};
use graphiti_bench::json::Json;
use graphiti_engine::BatchQuery;
use graphiti_server::{Client, Server, ServerOptions};
use graphiti_store::{Delta, GraphStore, GroupOptions, Session};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

const SEED_EMPS: i64 = 800;
const WRITERS: i64 = 8;
const PER_WRITER: i64 = 64;
const QUERIES: usize = 256;
const REPS: usize = 4;
const SMOKE_CLIENTS: u64 = 32;

fn fsync_store(dir: &Path) -> GraphStore {
    durable(dir)
        .bootstrap(seed_graph(SEED_EMPS))
        .durability(durability(true, 0))
        .open()
        .expect("durable store opens")
}

struct GroupRun {
    speedup: f64,
    solo_commits_per_sec: f64,
    group_commits_per_sec: f64,
    mean_group_size: f64,
    backpressured: u64,
}

/// Wall-clock for `WRITERS` threads each running `PER_WRITER` commits
/// through `commit_one`.
fn drive_writers(commit_one: impl Fn(Delta) + Send + Sync) -> f64 {
    let commit_one = &commit_one;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            scope.spawn(move || {
                for i in 0..PER_WRITER {
                    commit_one(delta_for(w * PER_WRITER + i));
                }
            });
        }
    });
    start.elapsed().as_secs_f64()
}

fn group_run() -> GroupRun {
    // Solo: every commit pays its own WAL append, fsync and publication,
    // serialized by the store's write lock.
    let dir = scratch("solo");
    let store = fsync_store(&dir);
    let solo_secs = drive_writers(|d| {
        store.commit(d).expect("scripted commits are valid");
    });
    drop(store);
    std::fs::remove_dir_all(&dir).ok();

    // Group: whatever queues while a group is being fsynced forms the
    // next group.
    let dir = scratch("group");
    let store = Arc::new(fsync_store(&dir));
    let committer = store.group_committer(GroupOptions::default());
    let group_secs = drive_writers(|d| {
        committer.submit(d).wait().expect("scripted commits are valid");
    });
    let gstats = committer.stats();
    drop(committer);
    drop(store);
    std::fs::remove_dir_all(&dir).ok();

    let total = (WRITERS * PER_WRITER) as f64;
    GroupRun {
        speedup: solo_secs / group_secs.max(1e-9),
        solo_commits_per_sec: total / solo_secs.max(1e-9),
        group_commits_per_sec: total / group_secs.max(1e-9),
        mean_group_size: gstats.group_members as f64 / gstats.groups_formed.max(1) as f64,
        backpressured: gstats.backpressured,
    }
}

/// (quiet q/s, q/s under writes, writer commits/s).  MVCC pinning means
/// the read path never blocks on the write path; the ratio pays only
/// for shared CPU and allocator.
fn reads_under_writes() -> (f64, f64, f64) {
    let service = service(SEED_EMPS);
    let q = BatchQuery::cypher(
        "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN m.dname AS dept, Count(n) AS headcount",
    );
    let time_reads = |session: &mut dyn Session| {
        let start = Instant::now();
        for _ in 0..QUERIES {
            session.query(&q).expect("read-only query succeeds");
        }
        QUERIES as f64 / start.elapsed().as_secs_f64().max(1e-9)
    };

    let mut session = service.session();
    let quiet = time_reads(&mut session);

    let stop = Arc::new(AtomicBool::new(false));
    let start = Instant::now();
    let under_write = std::thread::scope(|scope| {
        for w in 0..4i64 {
            let service = service.clone();
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut i = 0;
                while !stop.load(Ordering::Relaxed) {
                    service
                        .commit(delta_for(3_000_000 + w * 1_000_000 + i))
                        .expect("writer commits succeed");
                    i += 1;
                }
            });
        }
        let qps = time_reads(&mut session);
        stop.store(true, Ordering::Relaxed);
        qps
    });
    let write_secs = start.elapsed().as_secs_f64();
    let committed = service.service_stats().commits;
    (quiet, under_write, committed as f64 / write_secs.max(1e-9))
}

/// Whether every client step succeeds and the server shuts down clean.
fn server_smoke() -> bool {
    let sock = socket_path("smoke");
    let service = service(64);
    let handle = match Server::with_options(
        service.clone(),
        ServerOptions { max_connections: SMOKE_CLIENTS as usize + 4, ..ServerOptions::default() },
    )
    .serve_unix(&sock)
    {
        Ok(h) => h,
        Err(_) => return false,
    };
    let mut threads = Vec::new();
    for c in 0..SMOKE_CLIENTS {
        let sock = sock.clone();
        threads.push(std::thread::spawn(move || -> bool {
            let Ok(mut session) = Client::connect_unix(&sock) else { return false };
            for i in 0..2 {
                if session.commit(delta_for(8_000_000 + (c * 2 + i) as i64)).is_err() {
                    return false;
                }
            }
            let rows = session.query(&BatchQuery::cypher("MATCH (n:EMP) RETURN n.id AS id"));
            if !rows.is_ok_and(|t| !t.rows.is_empty()) {
                return false;
            }
            let report = session.batch(&[
                BatchQuery::sql("SELECT Count(*) AS c FROM EMP AS e"),
                BatchQuery::cypher("MATCH (n:EMP) RETURN n.name AS w"),
            ]);
            if !report.is_ok_and(|r| r.outcomes.iter().all(|o| o.result.is_ok())) {
                return false;
            }
            session.refresh().is_ok() && session.stats().is_ok() && session.close().is_ok()
        }));
    }
    let all_ok = threads.into_iter().all(|t| t.join().unwrap_or(false));
    let stats = service.service_stats();
    handle.shutdown();
    all_ok && stats.commits == SMOKE_CLIENTS * 2 && stats.rejected_commits == 0 && !sock.exists()
}

pub fn run() -> Json {
    let group = best_of(REPS, group_run, |run| run.speedup);
    let (quiet, under_write, writer_cps) = reads_under_writes();
    let server_smoke = server_smoke();
    Json::obj([
        ("solo_commits_per_sec", group.solo_commits_per_sec.into()),
        ("group_commits_per_sec", group.group_commits_per_sec.into()),
        ("mean_group_size", group.mean_group_size.into()),
        ("backpressured", group.backpressured.into()),
        ("quiet_qps", quiet.into()),
        ("under_write_qps", under_write.into()),
        ("writer_commits_per_sec", writer_cps.into()),
        (
            "gate",
            Json::obj([
                ("group_commit_speedup", group.speedup.into()),
                ("reads_survive_writes", (under_write / quiet.max(1e-9) >= 0.30).into()),
                ("server_smoke", server_smoke.into()),
            ]),
        ),
    ])
}
