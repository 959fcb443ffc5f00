//! One builder for every way of opening a [`GraphStore`]: in-memory or
//! durable, each knob named and defaulted.

use crate::vfs::{self, Vfs};
use crate::{DurabilityOptions, GraphStore, StoreError, StoreResult};
use graphiti_graph::{GraphInstance, GraphSchema};
use graphiti_relational::RelInstance;
use std::path::PathBuf;
use std::sync::Arc;

/// Builds a [`GraphStore`], in-memory or durable, with every knob in
/// one place: bootstrap graph, extra named instances, durability root
/// and options, VFS, and the embedded engine's plan-cache capacity.
///
/// # Example
///
/// ```
/// use graphiti_store::{Delta, GraphStore, QuerySurface};
/// use graphiti_engine::BatchQuery;
/// use graphiti_graph::{GraphSchema, NodeType};
/// use graphiti_common::Value;
///
/// let schema = GraphSchema::new().with_node(NodeType::new("EMP", ["id", "name"]));
/// let dir = std::env::temp_dir().join(format!("builder-doc-{}", std::process::id()));
///
/// // A durable store: fsync off for the doctest, checkpoint every 8
/// // commits, plan cache bounded to 128 plans.
/// let store = GraphStore::builder(schema)
///     .durable(&dir)
///     .fsync_each_commit(false)
///     .checkpoint_interval(8)
///     .plan_cache_capacity(128)
///     .open()
///     .unwrap();
///
/// let mut delta = Delta::new();
/// delta.add_node("EMP", [("id", Value::Int(1)), ("name", Value::str("Ada"))]);
/// store.commit(delta).unwrap();
/// let report = store.run_batch(&[BatchQuery::cypher("MATCH (n:EMP) RETURN n.name AS w")], 1);
/// assert_eq!(report.ok_count(), 1);
/// # drop(store);
/// # std::fs::remove_dir_all(&dir).ok();
/// ```
#[derive(Debug)]
pub struct StoreBuilder {
    schema: GraphSchema,
    bootstrap: GraphInstance,
    extra: Vec<(String, RelInstance)>,
    path: Option<PathBuf>,
    options: DurabilityOptions,
    vfs: Option<Arc<dyn Vfs>>,
    plan_cache_capacity: Option<usize>,
}

impl StoreBuilder {
    /// Starts a builder over `schema` (an empty bootstrap graph, no
    /// durability, default options).
    pub fn new(schema: GraphSchema) -> StoreBuilder {
        StoreBuilder {
            schema,
            bootstrap: GraphInstance::new(),
            extra: Vec::new(),
            path: None,
            options: DurabilityOptions::default(),
            vfs: None,
            plan_cache_capacity: None,
        }
    }

    /// The initial graph, validated by the opening cold freeze.  For a
    /// durable store recovering an existing directory the bootstrap is
    /// ignored (recovery reconstructs the state from disk).
    pub fn bootstrap(mut self, graph: GraphInstance) -> StoreBuilder {
        self.bootstrap = graph;
        self
    }

    /// Adds an extra named relational instance (immutable side database
    /// queries can target via `SqlTarget::Named`).
    pub fn extra(mut self, name: impl Into<String>, instance: RelInstance) -> StoreBuilder {
        self.extra.push((name.into(), instance));
        self
    }

    /// Makes the store durable, rooted at `path` (WAL + checkpoints;
    /// recovers the directory if it already holds state).
    pub fn durable(mut self, path: impl Into<PathBuf>) -> StoreBuilder {
        self.path = Some(path.into());
        self
    }

    /// Replaces the whole [`DurabilityOptions`] block at once.
    pub fn durability(mut self, options: DurabilityOptions) -> StoreBuilder {
        self.options = options;
        self
    }

    /// Whether to fsync the WAL on every commit (default `true`).
    pub fn fsync_each_commit(mut self, on: bool) -> StoreBuilder {
        self.options.fsync_each_commit = on;
        self
    }

    /// Checkpoint (and vacuum the WAL) every `n` commits; `0` disables
    /// automatic checkpoints.
    pub fn checkpoint_interval(mut self, n: u64) -> StoreBuilder {
        self.options.checkpoint_interval = n;
        self
    }

    /// How many checkpoint files to retain (minimum 1).
    pub fn keep_checkpoints(mut self, n: usize) -> StoreBuilder {
        self.options.keep_checkpoints = n;
        self
    }

    /// WAL write retry policy: attempts and base backoff (milliseconds).
    pub fn wal_retry(mut self, attempts: u32, backoff_ms: u64) -> StoreBuilder {
        self.options.wal_retry_attempts = attempts;
        self.options.wal_retry_backoff_ms = backoff_ms;
        self
    }

    /// The [`Vfs`] all store I/O flows through (defaults to the real
    /// filesystem; fault-injection tests pass a [`crate::FaultVfs`]).
    /// Only meaningful together with [`StoreBuilder::durable`].
    pub fn vfs(mut self, fs: Arc<dyn Vfs>) -> StoreBuilder {
        self.vfs = Some(fs);
        self
    }

    /// Bounds the embedded engine's query-plan cache to `capacity`
    /// plans (defaults to the engine's standard capacity).
    pub fn plan_cache_capacity(mut self, capacity: usize) -> StoreBuilder {
        self.plan_cache_capacity = Some(capacity);
        self
    }

    /// Opens (or, for an existing durable directory, recovers) the
    /// store.
    pub fn open(self) -> StoreResult<GraphStore> {
        match self.path {
            Some(path) => GraphStore::durable_open_impl(
                path,
                self.schema,
                self.bootstrap,
                self.extra,
                self.options,
                self.vfs.unwrap_or_else(vfs::std_vfs),
                self.plan_cache_capacity,
            ),
            None => GraphStore::open_with_capacity(
                self.schema,
                self.bootstrap,
                self.extra,
                self.plan_cache_capacity,
            )
            .map_err(StoreError::Rejected),
        }
    }
}

impl GraphStore {
    /// Starts a [`StoreBuilder`] over `schema` — the one entry point for
    /// durable stores, and for in-memory ones that need more than
    /// [`GraphStore::open`]/[`GraphStore::open_with`].
    pub fn builder(schema: GraphSchema) -> StoreBuilder {
        StoreBuilder::new(schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QuerySurface;
    use graphiti_common::Value;
    use graphiti_engine::BatchQuery;
    use graphiti_graph::NodeType;

    fn schema() -> GraphSchema {
        GraphSchema::new().with_node(NodeType::new("EMP", ["id", "name"]))
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/builder-tests")
            .join(format!("{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn in_memory_builder_matches_open() {
        let store = GraphStore::builder(schema()).open().unwrap();
        assert_eq!(store.generation(), 0);
        assert!(store.stats().wal_records == 0);
        let mut d = crate::Delta::new();
        d.add_node("EMP", [("id", Value::Int(1)), ("name", Value::str("A"))]);
        store.commit(d).unwrap();
        let r = store.run_batch(&[BatchQuery::cypher("MATCH (n:EMP) RETURN n.id AS i")], 1);
        assert_eq!(r.ok_count(), 1);
    }

    #[test]
    fn durable_builder_recovers_like_the_ladder() {
        let dir = scratch("recover");
        {
            let store = GraphStore::builder(schema())
                .durable(&dir)
                .fsync_each_commit(false)
                .checkpoint_interval(0)
                .open()
                .unwrap();
            let mut d = crate::Delta::new();
            d.add_node("EMP", [("id", Value::Int(7)), ("name", Value::str("G"))]);
            store.commit(d).unwrap();
        }
        let reopened = GraphStore::builder(schema()).durable(&dir).open().unwrap();
        assert_eq!(reopened.generation(), 1);
        assert_eq!(reopened.stats().live_nodes, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn plan_cache_capacity_reaches_the_engine() {
        let store = GraphStore::builder(schema()).plan_cache_capacity(3).open().unwrap();
        assert_eq!(store.engine().cache_stats().capacity, 3);
        let dir = scratch("cache-cap");
        let durable = GraphStore::builder(schema())
            .durable(&dir)
            .fsync_each_commit(false)
            .plan_cache_capacity(5)
            .open()
            .unwrap();
        assert_eq!(durable.engine().cache_stats().capacity, 5);
        // Capacity survives recovery too (it is a per-open knob).
        drop(durable);
        let reopened =
            GraphStore::builder(schema()).durable(&dir).plan_cache_capacity(9).open().unwrap();
        assert_eq!(reopened.engine().cache_stats().capacity, 9);
        std::fs::remove_dir_all(&dir).ok();
    }
}
