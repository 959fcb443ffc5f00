//! Parallel batch query execution for the Graphiti reproduction.
//!
//! Everything below the engine is a pure function of immutable data —
//! evaluators take `&GraphInstance` / `&RelInstance` and return fresh
//! tables — so serving a batch of queries concurrently needs exactly three
//! pieces, which this crate provides:
//!
//! * [`Snapshot`] — one frozen, validated database state (graph +
//!   adjacency indexes + SDT context + induced relational image + extra
//!   named instances) behind an `Arc`, shared by all workers without
//!   locks;
//! * [`PlanCache`] — a query-plan cache keyed by normalized query text
//!   that stores parsed Cypher ASTs and parsed **+ compiled** SQL plans
//!   ([`graphiti_sql::CompiledQuery`]), so repeated queries skip parse,
//!   optimize, and compile entirely;
//! * [`Engine`] — the batch service: it runs on the snapshot each caller
//!   pins, and [`Engine::run_batch_on`] spreads a `&[BatchQuery]` across
//!   the engine's persistent worker pool (atomic-counter work stealing,
//!   no runtime dependencies) and returns a [`BatchReport`] with
//!   per-query results, timings, and the batch's cache hit/miss counts.
//!
//! # Example
//!
//! ```
//! use graphiti_engine::{BatchQuery, Engine, Snapshot};
//! use graphiti_graph::{GraphSchema, GraphInstance, NodeType, EdgeType};
//! use graphiti_common::Value;
//! use std::sync::Arc;
//!
//! let schema = GraphSchema::new()
//!     .with_node(NodeType::new("EMP", ["id", "name"]))
//!     .with_node(NodeType::new("DEPT", ["dnum", "dname"]))
//!     .with_edge(EdgeType::new("WORK_AT", "EMP", "DEPT", ["wid"]));
//! let mut g = GraphInstance::new();
//! let a = g.add_node("EMP", [("id", Value::Int(1)), ("name", Value::str("A"))]);
//! let cs = g.add_node("DEPT", [("dnum", Value::Int(1)), ("dname", Value::str("CS"))]);
//! g.add_edge("WORK_AT", a, cs, [("wid", Value::Int(10))]);
//!
//! let snapshot = Snapshot::freeze(schema, g).unwrap();
//! let engine = Engine::new(Arc::clone(&snapshot));
//! let batch = vec![
//!     BatchQuery::cypher("MATCH (n:EMP) RETURN n.name AS who"),
//!     BatchQuery::sql("SELECT d.dname FROM DEPT AS d"),
//! ];
//! let report = engine.run_batch_on(&snapshot, &batch, 4);
//! assert_eq!(report.ok_count(), 2);
//! // Warm run: both plans come from the cache.
//! let warm = engine.run_batch_on(&snapshot, &batch, 4);
//! assert_eq!(warm.cache_hits, 2);
//! ```

pub mod batch;
pub mod cache;
pub mod pool;
pub mod snapshot;

pub use batch::{BatchQuery, BatchReport, Engine, EngineStats, QueryOutcome};
pub use cache::{
    normalize_query_text, CacheStats, CachedPlan, PlanCache, SqlPlan, DEFAULT_PLAN_CACHE_CAPACITY,
};
pub use pool::WorkerPool;
pub use snapshot::{SharedColumnarExtras, SharedExtras, Snapshot, SqlTarget};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The host's available parallelism (`1` if it cannot be determined).
pub fn available_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Runs `count` independent tasks across `workers` scoped threads and
/// collects the results in index order.
///
/// Work distribution is a shared atomic counter — the cheapest possible
/// work-stealing queue: each worker claims the next unclaimed index, so
/// skewed per-task costs balance automatically.  `workers <= 1` (or a
/// single task) runs inline on the caller's thread.  A panicking task
/// propagates after all workers have stopped.
pub fn run_parallel<T, F>(count: usize, workers: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.max(1).min(count.max(1));
    if workers <= 1 {
        return (0..count).map(task).collect();
    }
    let next = AtomicUsize::new(0);
    // Workers buffer (index, value) pairs locally and merge under one lock
    // at exit, so the per-item cost is a single relaxed fetch-add.
    let merged: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(count));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut local: Vec<(usize, T)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    local.push((i, task(i)));
                }
                merged.lock().unwrap_or_else(|p| p.into_inner()).extend(local);
            });
        }
    });
    let mut pairs = merged.into_inner().unwrap_or_else(|p| p.into_inner());
    debug_assert_eq!(pairs.len(), count, "every index is claimed by exactly one worker");
    pairs.sort_unstable_by_key(|(i, _)| *i);
    pairs.into_iter().map(|(_, v)| v).collect()
}

// The whole point of the snapshot design: everything a worker touches is
// plain owned data.  These assertions fail to *compile* if anyone
// reintroduces `Rc`, raw interior mutability, or a non-`Sync` field
// anywhere in the snapshot/plan type graph.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<graphiti_common::Value>();
    assert_send_sync::<graphiti_graph::GraphInstance>();
    assert_send_sync::<graphiti_graph::GraphSchema>();
    assert_send_sync::<graphiti_relational::RelInstance>();
    assert_send_sync::<graphiti_relational::Table>();
    assert_send_sync::<graphiti_core::SdtContext>();
    assert_send_sync::<graphiti_cypher::ast::Query>();
    assert_send_sync::<graphiti_sql::SqlQuery>();
    assert_send_sync::<graphiti_sql::CompiledQuery>();
    assert_send_sync::<Snapshot>();
    assert_send_sync::<PlanCache>();
    assert_send_sync::<Engine>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use graphiti_common::Value;
    use graphiti_graph::{EdgeType, GraphInstance, GraphSchema, NodeType};
    use std::sync::Arc;

    fn emp_schema() -> GraphSchema {
        GraphSchema::new()
            .with_node(NodeType::new("EMP", ["id", "name"]))
            .with_node(NodeType::new("DEPT", ["dnum", "dname"]))
            .with_edge(EdgeType::new("WORK_AT", "EMP", "DEPT", ["wid"]))
    }

    fn emp_graph() -> GraphInstance {
        let mut g = GraphInstance::new();
        let a = g.add_node("EMP", [("id", Value::Int(1)), ("name", Value::str("A"))]);
        let b = g.add_node("EMP", [("id", Value::Int(2)), ("name", Value::str("B"))]);
        let cs = g.add_node("DEPT", [("dnum", Value::Int(1)), ("dname", Value::str("CS"))]);
        let _ee = g.add_node("DEPT", [("dnum", Value::Int(2)), ("dname", Value::str("EE"))]);
        g.add_edge("WORK_AT", a, cs, [("wid", Value::Int(10))]);
        g.add_edge("WORK_AT", b, cs, [("wid", Value::Int(11))]);
        g
    }

    /// A frozen EMP/DEPT snapshot and a fresh engine bound to it.
    fn emp_engine() -> (Engine, Arc<Snapshot>) {
        let snapshot = Snapshot::freeze(emp_schema(), emp_graph()).unwrap();
        (Engine::new(Arc::clone(&snapshot)), snapshot)
    }

    fn test_batch() -> Vec<BatchQuery> {
        vec![
            BatchQuery::cypher("MATCH (n:EMP) RETURN n.name AS who"),
            BatchQuery::cypher(
                "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN m.dname AS d, Count(n) AS c",
            ),
            BatchQuery::sql("SELECT d.dname FROM DEPT AS d"),
            BatchQuery::sql("SELECT Count(*) AS c FROM EMP AS e"),
            BatchQuery::cypher("MATCH (((bad syntax"),
        ]
    }

    #[test]
    fn run_parallel_preserves_index_order() {
        let out = run_parallel(100, 4, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        let serial = run_parallel(10, 1, |i| i + 1);
        assert_eq!(serial, (1..=10).collect::<Vec<_>>());
        assert!(run_parallel(0, 8, |i| i).is_empty());
    }

    #[test]
    fn freeze_rejects_invalid_graphs() {
        let mut g = emp_graph();
        g.add_node("GHOST", [("x", Value::Int(1))]);
        assert!(Snapshot::freeze(emp_schema(), g).is_err());
    }

    #[test]
    fn freeze_with_rejects_invalid_graphs_even_with_extras() {
        // The graph check must fire before any extra instance is consulted.
        let mut g = emp_graph();
        g.add_node("EMP", [("id", Value::Int(1)), ("name", Value::str("dup-id"))]);
        let extra = graphiti_relational::RelInstance::new();
        assert!(
            Snapshot::freeze_with(emp_schema(), g, [("side".to_string(), extra)]).is_err(),
            "duplicate default-key values must be rejected"
        );
    }

    #[test]
    fn freeze_with_rejects_schema_instance_mismatches() {
        // A graph built against a *different* schema: labels undeclared.
        let mut g = GraphInstance::new();
        g.add_node("CUSTOMER", [("cid", Value::Int(1))]);
        assert!(Snapshot::freeze_with(emp_schema(), g, []).is_err());
        // Undeclared property on a declared label.
        let mut g = emp_graph();
        g.add_node("EMP", [("id", Value::Int(9)), ("salary", Value::Int(1))]);
        assert!(Snapshot::freeze_with(emp_schema(), g, []).is_err());
        // Edge endpoints violating the declared source/target types.
        let mut g = GraphInstance::new();
        let d1 = g.add_node("DEPT", [("dnum", Value::Int(1)), ("dname", Value::str("CS"))]);
        let d2 = g.add_node("DEPT", [("dnum", Value::Int(2)), ("dname", Value::str("EE"))]);
        g.add_edge("WORK_AT", d1, d2, [("wid", Value::Int(1))]);
        assert!(Snapshot::freeze_with(emp_schema(), g, []).is_err());
    }

    #[test]
    fn freeze_with_rejects_schemas_the_sdt_cannot_be_inferred_for() {
        // SDT inference fails when an edge type names an unknown endpoint
        // label — freeze_with must surface that, not panic.
        let bad_schema = GraphSchema::new()
            .with_node(NodeType::new("EMP", ["id", "name"]))
            .with_edge(EdgeType::new("WORK_AT", "EMP", "MISSING", ["wid"]));
        let mut g = GraphInstance::new();
        g.add_node("EMP", [("id", Value::Int(1)), ("name", Value::str("A"))]);
        assert!(Snapshot::freeze_with(bad_schema, g, []).is_err());
        // Duplicate labels across types are a schema-validation error too.
        let dup_schema = GraphSchema::new()
            .with_node(NodeType::new("EMP", ["id"]))
            .with_node(NodeType::new("EMP", ["id2"]));
        let mut g = GraphInstance::new();
        g.add_node("EMP", [("id", Value::Int(1))]);
        assert!(Snapshot::freeze_with(dup_schema, g, []).is_err());
    }

    #[test]
    fn freeze_with_missing_default_key_is_rejected() {
        let mut g = emp_graph();
        g.add_node("EMP", [("name", Value::str("NoId"))]);
        assert!(Snapshot::freeze_with(emp_schema(), g, []).is_err());
    }

    #[test]
    fn merge_pooled_outcomes_errors_lost_slots_instead_of_panicking() {
        let ok = |i: usize| {
            (
                i,
                QueryOutcome {
                    result: Ok(graphiti_relational::Table::new(["c"])),
                    micros: 1,
                    cache_hit: false,
                    profile: None,
                },
            )
        };
        // Complete merge (out of order) comes back in submission order.
        let merged = crate::batch::merge_pooled_outcomes(vec![ok(2), ok(0), ok(1)], 3);
        assert_eq!(merged.len(), 3);
        assert!(merged.iter().all(|o| o.result.is_ok()));
        // A worker that died after claiming #1 loses only that slot.
        let merged = crate::batch::merge_pooled_outcomes(vec![ok(2), ok(0)], 3);
        assert!(merged[0].result.is_ok() && merged[2].result.is_ok());
        let err = merged[1].result.as_ref().unwrap_err().to_string();
        assert!(err.contains("panicked pool worker"), "unexpected error: {err}");
        assert_eq!(merged[1].micros, 0);
    }

    #[test]
    fn stats_expose_pool_and_cache_without_running_a_batch() {
        let (engine, snapshot) = emp_engine();
        let s = engine.stats();
        assert_eq!(s.pool_threads, None, "pool spawns lazily");
        assert_eq!(s.cache.hits + s.cache.misses, 0);
        assert!(s.workers_available >= 1);
        let batch: Vec<BatchQuery> =
            test_batch().into_iter().filter(|q| !q.text().contains("bad")).collect();
        engine.run_batch_on(&snapshot, &batch, 4);
        let s = engine.stats();
        assert!(s.pool_threads.unwrap_or(0) >= 4, "parallel batch spawns the pool");
        assert_eq!(s.cache.misses as usize, batch.len());
        assert_eq!(s.cache.entries, batch.len());
    }

    #[test]
    fn batches_evaluate_and_report_errors_per_query() {
        let (engine, snapshot) = emp_engine();
        let report = engine.run_batch_on(&snapshot, &test_batch(), 4);
        assert_eq!(report.outcomes.len(), 5);
        assert_eq!(report.ok_count(), 4);
        assert!(report.outcomes[4].result.is_err(), "bad syntax must fail in isolation");
        assert_eq!(report.outcomes[0].result.as_ref().unwrap().len(), 2);
    }

    #[test]
    fn parallel_batches_match_serial_batches() {
        let (engine, snapshot) = emp_engine();
        let batch = test_batch();
        let serial = engine.run_batch_on(&snapshot, &batch, 1);
        for workers in [2, 4, 8] {
            let parallel = engine.run_batch_on(&snapshot, &batch, workers);
            for (s, p) in serial.outcomes.iter().zip(parallel.outcomes.iter()) {
                assert_eq!(s.result.is_ok(), p.result.is_ok());
                if let (Ok(st), Ok(pt)) = (&s.result, &p.result) {
                    assert_eq!(st, pt);
                }
            }
        }
    }

    #[test]
    fn warm_runs_hit_the_cache_and_agree_with_cold_runs() {
        let (engine, snapshot) = emp_engine();
        let batch: Vec<BatchQuery> =
            test_batch().into_iter().filter(|q| !q.text().contains("bad")).collect();
        let cold = engine.run_batch_on(&snapshot, &batch, 2);
        assert_eq!(cold.cache_hits, 0);
        assert_eq!(cold.cache_misses as usize, batch.len());
        let warm = engine.run_batch_on(&snapshot, &batch, 2);
        assert_eq!(warm.cache_hits as usize, batch.len());
        assert_eq!(warm.cache_misses, 0);
        for (c, w) in cold.outcomes.iter().zip(warm.outcomes.iter()) {
            assert_eq!(c.result.as_ref().unwrap(), w.result.as_ref().unwrap());
            assert!(w.cache_hit);
        }
    }

    #[test]
    fn sql_ast_entry_point_matches_text_entry_point() {
        let (engine, snapshot) = emp_engine();
        let text = "SELECT d.dname FROM DEPT AS d";
        let ast = graphiti_sql::parse_query(text).unwrap();
        let via_ast = engine.execute_sql_ast(&snapshot, &ast, &SqlTarget::Induced);
        let via_text = engine.execute_on(&snapshot, &BatchQuery::sql(text));
        assert_eq!(via_ast.result.unwrap(), via_text.result.unwrap());
        // Both went through the one funnel: latency histogram and log.
        assert_eq!(engine.obs().registry().histogram("graphiti_query_micros").count(), 2);
        assert_eq!(engine.obs().slow_queries().len(), 2);
    }

    #[test]
    fn named_targets_resolve_and_unknown_targets_error() {
        let extra = |column: &str| {
            let mut extra = graphiti_relational::RelInstance::new();
            extra.insert_table(
                "t",
                graphiti_relational::Table::with_rows([column], vec![vec![Value::Int(7)]]),
            );
            [("side".to_string(), extra)]
        };
        let snapshot = Snapshot::freeze_with(emp_schema(), emp_graph(), extra("x")).unwrap();
        let engine = Engine::new(Arc::clone(&snapshot));
        let query = BatchQuery::sql_on("side", "SELECT t.x FROM t");
        let ok = engine.execute_on(&snapshot, &query);
        assert_eq!(ok.result.unwrap().rows, vec![vec![Value::Int(7)]]);
        let unknown = BatchQuery::sql_on("nope", "SELECT t.x FROM t");
        assert!(engine.execute_on(&snapshot, &unknown).result.is_err());
        // A query refused before it reaches the cache counts as a miss.
        let report = engine.run_batch_on(&snapshot, &[query.clone(), unknown], 1);
        assert_eq!((report.cache_hits, report.cache_misses), (1, 1));
        // The extra instances' columns are part of the engine's layout.
        let same = Snapshot::freeze_with(emp_schema(), emp_graph(), extra("x")).unwrap();
        assert!(engine.execute_on(&same, &query).cache_hit);
        let renamed = Snapshot::freeze_with(emp_schema(), emp_graph(), extra("y")).unwrap();
        let refused = engine.execute_on(&renamed, &query).result;
        assert!(matches!(refused, Err(graphiti_common::Error::Schema(_))), "got {refused:?}");
    }

    #[test]
    fn a_snapshot_with_another_layout_is_refused_not_run_on_a_stale_plan() {
        let freeze = |columns: &[&str], values: Vec<(&str, Value)>| {
            let mut g = GraphInstance::new();
            g.add_node("EMP", values);
            Snapshot::freeze(
                GraphSchema::new().with_node(NodeType::new("EMP", columns.to_vec())),
                g,
            )
            .unwrap()
        };
        let row =
            || vec![("id", Value::Int(1)), ("name", Value::str("C")), ("age", Value::Int(99))];
        let bound = freeze(&["id", "name", "age"], row());
        let engine = Engine::new(Arc::clone(&bound));
        let query = BatchQuery::sql("SELECT e.age AS x FROM EMP AS e");
        let age = vec![vec![Value::Int(99)]];
        assert_eq!(engine.execute_on(&bound, &query).result.unwrap().rows, age);
        // The cached plan reads `age` by position: on a narrower table it
        // would index out of bounds, on a reordered one read `name`.
        let narrow = freeze(&["id"], vec![("id", Value::Int(1))]);
        let reordered = freeze(&["id", "age", "name"], row());
        let fresh = Engine::new(Arc::clone(&reordered)).execute_on(&reordered, &query);
        assert_eq!(fresh.result.unwrap().rows, age, "a fresh engine answers correctly");
        for other in [&narrow, &reordered] {
            let outcome = engine.execute_on(other, &query);
            assert!(
                matches!(outcome.result, Err(graphiti_common::Error::Schema(_))),
                "got {:?}",
                outcome.result
            );
            assert!(!outcome.cache_hit);
            let report = engine.run_batch_on(other, std::slice::from_ref(&query), 1);
            assert!(matches!(report.outcomes[0].result, Err(graphiti_common::Error::Schema(_))));
        }
        // A re-freeze of the same schema is another `Arc` with the same
        // layout: accepted, and served from the cache.
        let refrozen = freeze(&["id", "name", "age"], row());
        assert!(!Arc::ptr_eq(&refrozen.schema_arc(), &bound.schema_arc()));
        let warm = engine.execute_on(&refrozen, &query);
        assert!(warm.cache_hit);
        assert_eq!(warm.result.unwrap().rows, age);
    }
}
