//! Registry-dedup regression tests: the stats structs are **views over
//! the shared metrics registry**, not a second set of counters.
//!
//! PR10 replaced the store's, group committer's, and service's plain
//! `u64` counters with registry-backed cells, keeping `StoreStats` /
//! `ServiceStats` / `GroupStats` as point-in-time reads of the same
//! cells.  These tests pin that contract:
//!
//! * every pre-existing counter name still *moves* — a workload that
//!   commits, rejects, queries, checkpoints, and group-commits advances
//!   the registry cell, and the stats view reads the identical value;
//! * the registry's Prometheus rendering carries every pinned name, so
//!   a scrape sees the same vocabulary the stats structs always
//!   exposed.
//!
//! If a future change forks a counter (stats struct incremented here,
//! registry cell there), the equality assertions below catch the split.

use graphiti_common::Value;
use graphiti_store::{CommitRequest, Delta, Graphiti, Session};
use graphiti_testkit::fixtures;
use std::path::PathBuf;

/// A unique scratch directory under the workspace `target/` dir (tests
/// must not touch paths outside the repository).
fn scratch(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/testkit-observability")
        .join(format!("{tag}-{}-{}", std::process::id(), NEXT.fetch_add(1, Ordering::SeqCst)));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn emp(id: i64) -> Delta {
    let mut delta = Delta::new();
    delta.add_node("EMP", [("id", Value::Int(id)), ("ename", Value::str("obs"))]);
    delta
}

/// The pre-existing stats vocabulary, pinned name by name: each
/// `(registry name, stats view value)` pair must agree exactly, and the
/// names marked `moved` must be non-zero after the workload.
#[test]
fn every_preexisting_counter_name_still_moves_through_the_registry() {
    let dir = scratch("counters");
    let service = Graphiti::builder(fixtures::emp::schema())
        .bootstrap(fixtures::emp::graph())
        .durable(&dir)
        .group_commit_default()
        .open()
        .expect("durable open");

    // Workload: successful commits (some through the group committer,
    // which is the only write path here), one rejected commit
    // (duplicate default key), repeated queries (plan-cache hit +
    // miss), an idempotent replay, and a forced checkpoint.
    for i in 0..4 {
        service.commit(emp(100 + i)).expect("commit");
    }
    let dup = service.commit(emp(100));
    assert!(dup.is_err(), "duplicate default key must reject");
    let token = 0xAB_u128;
    let tagged = || CommitRequest { token: Some(token), ..emp(200).into() };
    let first =
        service.try_commit(tagged(), None).expect("tagged commit").expect("not backpressured");
    let replay =
        service.try_commit(tagged(), None).expect("tagged replay").expect("not backpressured");
    assert_eq!(first.generation, replay.generation, "replay returns the original generation");
    let mut session = service.session();
    for _ in 0..3 {
        session
            .query(&graphiti_engine::BatchQuery::cypher("MATCH (n:EMP) RETURN n.id AS i"))
            .expect("query");
    }
    session.checkpoint().expect("checkpoint");

    let stats = service.store().stats();
    let service_stats = service.service_stats();
    let registry = service.obs().registry();

    // (name, stats-view value, must-have-moved)
    let pins: &[(&str, u64, bool)] = &[
        ("graphiti_store_commits_total", stats.commits, true),
        ("graphiti_store_rejected_commits_total", stats.rejected_commits, true),
        ("graphiti_store_fence_events_total", stats.fence_events, false),
        ("graphiti_store_fenced_commits_total", stats.fenced_commits, false),
        ("graphiti_store_idempotent_replays_total", stats.idempotent_replays, true),
        ("graphiti_wal_records_total", stats.wal_records, true),
        ("graphiti_wal_bytes_total", stats.wal_bytes, true),
        ("graphiti_checkpoints_written_total", stats.checkpoints, true),
        ("graphiti_checkpoint_failures_total", stats.checkpoint_failures, false),
        ("graphiti_wal_segments_removed_total", stats.wal_segments_removed, false),
        ("graphiti_wal_replayed_commits_total", stats.replayed_commits, false),
        ("graphiti_wal_retries_total", stats.wal_retries, false),
        ("graphiti_wal_append_failures_total", stats.wal_append_failures, false),
        ("graphiti_groups_formed_total", service_stats.groups_formed, true),
        ("graphiti_group_members_total", service_stats.group_members, true),
        ("graphiti_backpressured_total", service_stats.backpressured, false),
    ];
    for (name, view, moved) in pins {
        let cell = registry.counter(name).get();
        assert_eq!(
            cell, *view,
            "{name}: registry cell ({cell}) and stats view ({view}) must be the same counter"
        );
        if *moved {
            assert!(cell > 0, "{name} must have moved under this workload");
        }
    }

    // The service-level view reads the same registry: the query
    // distribution counted our three queries (at least; the engine may
    // also have run none extra).
    assert!(service_stats.queries >= 3, "query histogram counts executions");
    assert_eq!(
        service_stats.queries,
        registry.histogram("graphiti_query_micros").count(),
        "ServiceStats::queries is the registry histogram's count"
    );
    assert_eq!(service_stats.commits, stats.commits);

    // Plan-cache counters joined the registry too, and the repeated
    // query must have hit.
    let hits = registry.counter("graphiti_plan_cache_hits_total").get();
    let misses = registry.counter("graphiti_plan_cache_misses_total").get();
    assert!(misses >= 1, "first execution misses the plan cache");
    assert!(hits >= 1, "repeated execution hits the plan cache");

    // A Prometheus scrape of the registry carries every pinned name.
    let rendered = service.obs().render_metrics();
    for (name, _, _) in pins {
        assert!(rendered.contains(name), "rendered metrics must include {name}");
    }
    for histogram in [
        "graphiti_commit_e2e_micros",
        "graphiti_wal_append_micros",
        "graphiti_wal_fsync_micros",
        "graphiti_checkpoint_pin_micros",
        "graphiti_checkpoint_write_micros",
        "graphiti_group_commit_size",
        "graphiti_group_queue_wait_micros",
        "graphiti_query_micros",
    ] {
        assert!(rendered.contains(histogram), "rendered metrics must include {histogram}");
    }

    drop(session);
    drop(service);
    std::fs::remove_dir_all(&dir).ok();
}

/// Counter state survives checkpoint → reopen: the restored registry
/// cells seed from the checkpoint image exactly like the old plain
/// fields did.
#[test]
fn counters_restore_from_checkpoints_into_the_registry() {
    let dir = scratch("restore");
    let commits_before;
    {
        let service = Graphiti::builder(fixtures::emp::schema())
            .bootstrap(fixtures::emp::graph())
            .durable(&dir)
            .open()
            .expect("durable open");
        for i in 0..3 {
            service.commit(emp(300 + i)).expect("commit");
        }
        service.store().checkpoint_now().expect("checkpoint");
        commits_before = service.store().stats().commits;
        assert_eq!(commits_before, 3);
    }
    let reopened = Graphiti::builder(fixtures::emp::schema())
        .bootstrap(fixtures::emp::graph())
        .durable(&dir)
        .open()
        .expect("reopen");
    let stats = reopened.store().stats();
    assert_eq!(stats.commits, commits_before, "commit count survives reopen");
    assert_eq!(
        reopened.obs().registry().counter("graphiti_store_commits_total").get(),
        commits_before,
        "the restored count lives in the registry cell, not a shadow field"
    );
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
}
