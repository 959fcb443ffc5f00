//! A writable, schema-validated property-graph store with MVCC snapshot
//! generations and **incremental re-freeze**.
//!
//! [`Snapshot::freeze`](graphiti_engine::Snapshot::freeze) is the cold
//! path: validate the whole graph, infer the SDT, run the standard
//! transformer over every fact, and convert every induced table to
//! columnar form.  That is the right oracle and the wrong write path — a
//! one-property update would pay for the entire graph.  [`GraphStore`]
//! keeps the induced-instance construction *compositional per label*
//! (exactly what makes the paper's `InferSDT` incrementalizable): a
//! [`Delta`] of graph mutations maps to per-label row deltas, so a commit
//!
//! 1. **validates incrementally** — only the touched nodes/edges and
//!    their schema obligations (declared labels and keys, default-key
//!    presence/uniqueness via a maintained primary-key index, endpoint
//!    types, no dangling edges), never the whole graph;
//! 2. **applies the delta** to the master graph (stable
//!    [`NodeKey`]/[`EdgeKey`] handles survive the arena's swap-remove
//!    renumbering) and to the per-label append + tombstone +
//!    compaction logs;
//! 3. **publishes a new generation** by patching the *previous*
//!    generation's row and columnar images with [`TableDelta`]s —
//!    untouched tables are shared, touched columns are patched
//!    column-at-a-time — and storing the result, together with a clone
//!    of the master graph, in the store's one publication slot
//!    ([`GraphStore::published`]).  The clone is copy-on-write (see
//!    [`GraphInstance`]): it shares every arena chunk with the master,
//!    and the next commit copies only the chunks it writes, however many
//!    generations readers pin.
//!
//! Readers are never blocked: a reader pins a published generation
//! (`Arc<Snapshot>`) and runs every query and batch on it through the
//! embedded [`Engine`]; writers serialize on the store's internal lock,
//! which reading the publication slot never takes; and the engine's
//! plan cache survives commits (plans are keyed by query text + target,
//! not data).  A rejected delta changes nothing — validation runs to
//! completion before the first mutation is applied.
//!
//! Every write path — [`GraphStore::commit`], the [`GroupCommitter`],
//! the [`Graphiti`] service and WAL replay — hands the store
//! [`CommitRequest`]s, and one pipeline commits them: a solo commit is a
//! batch of one.
//!
//! # Durability
//!
//! [`StoreBuilder::durable`] adds a crash-safe persistence layer:
//! every committed delta is appended to a checksummed write-ahead log and
//! flushed (optionally fsynced) **before** the generation is published;
//! periodic checkpoints snapshot the per-label row logs so replay cost
//! stays bounded; and recovery loads the newest valid checkpoint,
//! replays the WAL suffix through the ordinary commit path, and
//! truncates any torn tail record instead of failing.  A rejected delta
//! writes no WAL record, so rejection is provably side-effect-free on
//! disk too.  See [`DurabilityOptions`] for the fsync and checkpoint
//! knobs.
//!
//! # Failure model
//!
//! All store I/O flows through a pluggable [`vfs::Vfs`], and every
//! fallible operation returns a typed [`StoreError`].  Under live I/O
//! failure the commit path guarantees *atomicity or fencing*: a failed
//! WAL **write** is rolled back (bounded retries first, see
//! [`DurabilityOptions::wal_retry_attempts`]) and the commit returns
//! [`StoreError::Io`] with the store untouched and live; a failed WAL
//! **fsync** can never be trusted retroactively (the kernel may have
//! dropped the dirty pages — the fsyncgate lesson), so the store
//! *fences* itself read-only: reads keep serving the last published
//! generation, further commits return [`StoreError::Fenced`], and the
//! recovery paths are [`GraphStore::checkpoint_now`] (re-captures the
//! full in-memory state on fresh files) or a reopen.
//!
//! # Example
//!
//! ```
//! use graphiti_store::{Delta, GraphStore};
//! use graphiti_engine::BatchQuery;
//! use graphiti_graph::{GraphSchema, GraphInstance, NodeType, EdgeType};
//! use graphiti_common::Value;
//!
//! let schema = GraphSchema::new()
//!     .with_node(NodeType::new("EMP", ["id", "name"]))
//!     .with_node(NodeType::new("DEPT", ["dnum", "dname"]))
//!     .with_edge(EdgeType::new("WORK_AT", "EMP", "DEPT", ["wid"]));
//! let store = GraphStore::open(schema, GraphInstance::new()).unwrap();
//!
//! let mut delta = Delta::new();
//! let ada = delta.add_node("EMP", [("id", Value::Int(1)), ("name", Value::str("Ada"))]);
//! let cs = delta.add_node("DEPT", [("dnum", Value::Int(1)), ("dname", Value::str("CS"))]);
//! delta.add_edge("WORK_AT", ada, cs, [("wid", Value::Int(10))]);
//! let info = store.commit(delta).unwrap();
//! assert_eq!(info.generation, 1);
//!
//! let (generation, snapshot) = store.published();
//! assert_eq!(generation, 1);
//! let report = store.engine().run_batch_on(
//!     &snapshot,
//!     &[BatchQuery::cypher("MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN m.dname AS d")],
//!     1,
//! );
//! assert_eq!(report.ok_count(), 1);
//! ```

mod builder;
mod checkpoint;
pub mod codec;
pub mod delta;
mod error;
mod group;
mod session;
mod table;
pub mod vfs;
mod wal;

pub use builder::StoreBuilder;
pub use delta::{Delta, EdgeKey, EdgeRef, Mutation, NodeKey, NodeRef};
pub use error::{StoreError, StoreResult};
pub use group::{CommitTicket, GroupCommitter, GroupOptions, GroupStats};
pub use session::{CommitAck, EmbeddedSession, Graphiti, GraphitiBuilder, ServiceStats, Session};
pub use vfs::{std_vfs, FaultKind, FaultVfs, OpClass, StdVfs, Vfs, VfsFile};

use crate::table::StoreTable;
use graphiti_common::{Error, Ident, Result, Value};
use graphiti_engine::{Engine, Snapshot};
use graphiti_graph::{EdgeId, GraphInstance, GraphSchema, NodeId};
use graphiti_obs::metrics::{Counter, Histogram, Registry};
use graphiti_obs::Obs;
use graphiti_relational::{ColumnInstance, RelInstance, TableDelta};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// One commit as it crosses every layer: the service, the group
/// committer, WAL replay and the store.
#[derive(Debug, Clone)]
pub struct CommitRequest {
    /// The mutations to apply atomically.
    pub delta: Delta,
    /// Client-generated idempotency token: a later request carrying the
    /// same token is answered with the original commit's generation
    /// instead of being applied again (see [`GraphStore::commit`]).
    pub token: Option<u128>,
    /// Trace id (0 = untraced).  A traced request emits
    /// `store.wal_append` spans, and its batch's shared fsync and
    /// publication emit `store.fsync` / `store.publish` spans.
    pub trace: u64,
}

impl From<Delta> for CommitRequest {
    fn from(delta: Delta) -> CommitRequest {
        CommitRequest { delta, token: None, trace: 0 }
    }
}

/// The outcome of a successful [`GraphStore::commit`].
#[derive(Debug)]
pub struct CommitInfo {
    /// The generation the commit published (0 is the opening freeze).
    /// A replayed token answers its original commit's generation; an
    /// empty delta answers the generation current at its position.
    pub generation: u64,
    /// The generation of [`CommitInfo::snapshot`]: the single
    /// publication of the request's batch, which already includes every
    /// later member of the same batch (the current generation when the
    /// batch published nothing).
    pub published_generation: u64,
    /// The published snapshot generation.
    pub snapshot: Arc<Snapshot>,
    /// Stable keys for the delta's added nodes, in [`Delta::add_node`]
    /// order (keys are assigned even to nodes the same delta removed).
    pub node_keys: Vec<NodeKey>,
    /// Stable keys for the delta's added edges, in [`Delta::add_edge`]
    /// order.
    pub edge_keys: Vec<EdgeKey>,
    /// Names of the induced tables the commit patched.
    pub touched_tables: Vec<String>,
}

/// Tuning knobs of a durable store (see [`StoreBuilder::durability`]).
#[derive(Debug, Clone, Copy)]
pub struct DurabilityOptions {
    /// Fsync the WAL on **every** commit (the strict redo rule: a
    /// published generation always survives power loss).  When `false`,
    /// records are still written and flushed to the OS per commit —
    /// surviving a process crash — but only forced to stable storage at
    /// checkpoints (amortized group durability).
    pub fsync_each_commit: bool,
    /// Write a checkpoint (and rotate + vacuum WAL segments) every this
    /// many commits.  `0` disables automatic checkpoints; use
    /// [`GraphStore::checkpoint_now`] instead.
    pub checkpoint_interval: u64,
    /// How many checkpoint files to retain (minimum 1; older ones are
    /// vacuumed together with the WAL segments they cover).
    pub keep_checkpoints: usize,
    /// How many times to retry a failed WAL **write** (with backoff)
    /// before giving up on the commit.  Retries never apply to fsync —
    /// a failed fsync fences the store immediately, because its success
    /// can never be assumed retroactively.
    pub wal_retry_attempts: u32,
    /// Base backoff between WAL write retries, in milliseconds (the
    /// n-th retry sleeps `n * wal_retry_backoff_ms`).
    pub wal_retry_backoff_ms: u64,
}

impl Default for DurabilityOptions {
    fn default() -> DurabilityOptions {
        DurabilityOptions {
            fsync_each_commit: true,
            checkpoint_interval: 64,
            keep_checkpoints: 2,
            wal_retry_attempts: 2,
            wal_retry_backoff_ms: 1,
        }
    }
}

/// The durability attachment of a store: the open WAL segment plus
/// checkpoint bookkeeping.  Present only for stores opened with
/// [`StoreBuilder::durable`].
#[derive(Debug)]
struct DurableState {
    dir: PathBuf,
    vfs: Arc<dyn vfs::Vfs>,
    options: DurabilityOptions,
    wal: wal::WalWriter,
    /// Generation covered by the newest checkpoint on disk.
    last_checkpoint: u64,
    /// Records appended by this process (registry-backed: the same
    /// handles render through the shared observability registry, so
    /// [`StoreStats`] is a *view*, not a second vocabulary).
    wal_records: Counter,
    /// Bytes appended by this process.
    wal_bytes: Counter,
    checkpoints_written: Counter,
    checkpoint_failures: Counter,
    segments_removed: Counter,
    /// Commits recovered by WAL replay when this store opened.
    replayed: Counter,
    /// WAL write retries that eventually succeeded or were exhausted.
    wal_retries: Counter,
    /// Commits aborted by a WAL write failure (rolled back, store live).
    wal_append_failures: Counter,
    /// Per-record WAL append latency (write + flush, excluding fsync).
    wal_append_micros: Arc<Histogram>,
    /// WAL fsync latency (one fsync per commit batch).
    wal_fsync_micros: Arc<Histogram>,
}

impl DurableState {
    /// Registers the durable layer's counters and latency histograms in
    /// `registry` under the shared `graphiti_wal_*` / `graphiti_checkpoint*`
    /// names.
    #[allow(clippy::too_many_arguments)]
    fn new(
        dir: PathBuf,
        fs: Arc<dyn vfs::Vfs>,
        options: DurabilityOptions,
        wal: wal::WalWriter,
        last_checkpoint: u64,
        registry: &Registry,
    ) -> DurableState {
        DurableState {
            dir,
            vfs: fs,
            options,
            wal,
            last_checkpoint,
            wal_records: registry.counter("graphiti_wal_records_total"),
            wal_bytes: registry.counter("graphiti_wal_bytes_total"),
            checkpoints_written: registry.counter("graphiti_checkpoints_written_total"),
            checkpoint_failures: registry.counter("graphiti_checkpoint_failures_total"),
            segments_removed: registry.counter("graphiti_wal_segments_removed_total"),
            replayed: registry.counter("graphiti_wal_replayed_commits_total"),
            wal_retries: registry.counter("graphiti_wal_retries_total"),
            wal_append_failures: registry.counter("graphiti_wal_append_failures_total"),
            wal_append_micros: registry.histogram("graphiti_wal_append_micros"),
            wal_fsync_micros: registry.histogram("graphiti_wal_fsync_micros"),
        }
    }
}

/// Why (and how badly) a store fenced itself read-only.
#[derive(Debug, Clone)]
struct Fence {
    reason: String,
    /// `true`: the in-memory state is intact and only on-disk state is
    /// untrustworthy — [`GraphStore::checkpoint_now`] can recover by
    /// re-capturing everything on fresh files.  `false`: the in-memory
    /// state is suspect — an internal apply-phase error, or a batch that
    /// fenced after applying some of its requests — and only a reopen
    /// (which replays durable state from disk) recovers.
    memory_ok: bool,
}

/// Point-in-time counters of a [`GraphStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Latest published generation.
    pub generation: u64,
    /// Committed deltas (excluding rejected ones).
    pub commits: u64,
    /// Deltas rejected by incremental validation.
    pub rejected_commits: u64,
    /// Table-log compactions performed.
    pub compactions: u64,
    /// Live nodes in the master graph.
    pub live_nodes: usize,
    /// Live edges in the master graph.
    pub live_edges: usize,
    /// Total log slots across all induced tables (live + tombstoned).
    pub logged_rows: usize,
    /// Tombstoned log slots awaiting compaction.
    pub tombstoned_rows: usize,
    /// WAL records appended by this process (always 0 for an in-memory
    /// store).
    pub wal_records: u64,
    /// WAL bytes appended by this process.
    pub wal_bytes: u64,
    /// Checkpoints written by this process.
    pub checkpoints: u64,
    /// Checkpoint writes that failed (the triggering commit still
    /// succeeded; durability falls back to a longer WAL replay).
    pub checkpoint_failures: u64,
    /// Generation covered by the newest checkpoint (0 when none).
    pub last_checkpoint_generation: u64,
    /// Commits recovered by WAL replay when this store opened.
    pub replayed_commits: u64,
    /// WAL segments vacuumed after being covered by a checkpoint.
    pub wal_segments_removed: u64,
    /// Whether the store is currently fenced (read-only degraded mode).
    pub fenced: bool,
    /// How many times this store has fenced itself.
    pub fence_events: u64,
    /// Commit requests refused because the store was already fenced
    /// when they arrived.
    pub fenced_commits: u64,
    /// WAL write retries performed (transient-failure absorption).
    pub wal_retries: u64,
    /// Commits aborted by an unrecoverable WAL write failure (rolled
    /// back cleanly; the store stayed live).
    pub wal_append_failures: u64,
    /// Commits answered from the idempotency dedup table: a retried
    /// token whose original commit already landed (the reply carries the
    /// original generation; nothing is re-applied).
    pub idempotent_replays: u64,
}

/// How many `(token, generation)` dedup entries the store retains.  A
/// retry arriving after its token was evicted re-applies the delta; the
/// bound is sized far past any sane retry window (retries happen within
/// seconds, eviction after thousands of later tokened commits).
const IDEMPOTENCY_RETENTION: usize = 4096;

/// The commit-idempotency dedup table: client token → the generation its
/// commit produced, bounded FIFO.  Only *successful* commits are
/// recorded — an aborted or rejected attempt leaves no entry, so its
/// retry runs the full commit path again.
#[derive(Debug, Default)]
struct IdempotencyTable {
    by_token: HashMap<u128, u64>,
    /// Insertion order, for FIFO eviction and checkpoint serialization.
    fifo: VecDeque<u128>,
}

impl IdempotencyTable {
    fn lookup(&self, token: u128) -> Option<u64> {
        self.by_token.get(&token).copied()
    }

    fn record(&mut self, token: u128, generation: u64) {
        if self.by_token.insert(token, generation).is_none() {
            self.fifo.push_back(token);
        }
        while self.fifo.len() > IDEMPOTENCY_RETENTION {
            if let Some(evicted) = self.fifo.pop_front() {
                self.by_token.remove(&evicted);
            }
        }
    }

    /// Entries in insertion order (the shape checkpoints persist).
    fn entries(&self) -> Vec<(u128, u64)> {
        self.fifo.iter().filter_map(|t| self.by_token.get(t).map(|g| (*t, *g))).collect()
    }

    fn from_entries(entries: Vec<(u128, u64)>) -> IdempotencyTable {
        let mut table = IdempotencyTable::default();
        for (token, generation) in entries {
            table.record(token, generation);
        }
        table
    }
}

/// The writer-side state: master graph, stable-key maps, per-table logs.
#[derive(Debug)]
struct StoreState {
    schema: GraphSchema,
    graph: GraphInstance,
    /// Arena-parallel stable keys (`node_keys[i]` is the key of `NodeId(i)`),
    /// maintained through swap-removes.
    node_keys: Vec<NodeKey>,
    edge_keys: Vec<EdgeKey>,
    node_ids: HashMap<NodeKey, NodeId>,
    edge_ids: HashMap<EdgeKey, EdgeId>,
    next_key: u64,
    tables: BTreeMap<String, StoreTable>,
    /// Counters are registry-backed [`Counter`] handles: the store
    /// increments them exactly where the plain `u64`s used to live, and
    /// the shared observability registry renders the same cells —
    /// [`StoreStats`] stays a point-in-time *view* over them.
    commits: Counter,
    rejected: Counter,
    compactions: Counter,
    /// WAL + checkpoint attachment (durable stores only).
    durable: Option<DurableState>,
    /// Set when the store has fenced itself read-only.
    fence: Option<Fence>,
    fence_events: Counter,
    fenced_commits: Counter,
    /// Commit-idempotency dedup table (token → generation).
    idempotency: IdempotencyTable,
    idempotent_replays: Counter,
}

/// Registers the writer-side counters in `registry` under the shared
/// `graphiti_store_*` names (one call per store; re-registration returns
/// the same cells).
struct StoreCounters {
    commits: Counter,
    rejected: Counter,
    compactions: Counter,
    fence_events: Counter,
    fenced_commits: Counter,
    idempotent_replays: Counter,
}

impl StoreCounters {
    fn register(registry: &Registry) -> StoreCounters {
        StoreCounters {
            commits: registry.counter("graphiti_store_commits_total"),
            rejected: registry.counter("graphiti_store_rejected_commits_total"),
            compactions: registry.counter("graphiti_store_compactions_total"),
            fence_events: registry.counter("graphiti_store_fence_events_total"),
            fenced_commits: registry.counter("graphiti_store_fenced_commits_total"),
            idempotent_replays: registry.counter("graphiti_store_idempotent_replays_total"),
        }
    }
}

/// A writable graph database: one master graph, one embedded batch
/// [`Engine`], and a totally ordered sequence of published snapshot
/// generations.  See the crate docs for the commit pipeline.
#[derive(Debug)]
pub struct GraphStore {
    engine: Engine,
    /// The latest published generation and its snapshot: the one place
    /// the published generation lives.  Only a commit's publication
    /// writes it, under `state`'s lock; readers take only this lock, so
    /// they never wait on a commit's WAL append or fsync.
    published: RwLock<(u64, Arc<Snapshot>)>,
    state: Mutex<StoreState>,
    /// The shared observability surface: one registry + tracer + slow
    /// query log for the store, its embedded engine, and any serving
    /// layer stacked on top.
    obs: Arc<Obs>,
    /// Commit end-to-end latency (lock acquisition through publication),
    /// recorded once per accepted request.
    commit_e2e_micros: Arc<Histogram>,
    /// Requests per commit batch (a solo commit is a batch of one).
    group_commit_size: Arc<Histogram>,
}

// The store is shared across writer and reader threads as-is.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<GraphStore>();
    assert_send_sync::<Delta>();
    assert_send_sync::<CommitInfo>();
};

impl GraphStore {
    /// Opens a store over a schema and an initial graph: one cold
    /// [`Snapshot::freeze`] validates everything and becomes generation 0;
    /// every subsequent [`GraphStore::commit`] is incremental.
    pub fn open(schema: GraphSchema, graph: GraphInstance) -> Result<GraphStore> {
        GraphStore::open_with(schema, graph, [])
    }

    /// [`GraphStore::open`] plus extra named relational instances
    /// (immutable side databases batch queries can target via
    /// [`SqlTarget::Named`](graphiti_engine::SqlTarget::Named)); they are
    /// shared by reference across all generations.
    pub fn open_with(
        schema: GraphSchema,
        graph: GraphInstance,
        extra: impl IntoIterator<Item = (String, RelInstance)>,
    ) -> Result<GraphStore> {
        GraphStore::open_with_capacity(schema, graph, extra, None)
    }

    /// [`GraphStore::open_with`] with an optional plan-cache capacity
    /// for the embedded engine (the [`StoreBuilder`] plumbing).
    fn open_with_capacity(
        schema: GraphSchema,
        graph: GraphInstance,
        extra: impl IntoIterator<Item = (String, RelInstance)>,
        cache_capacity: Option<usize>,
    ) -> Result<GraphStore> {
        let snapshot = Snapshot::freeze_with(schema.clone(), graph, extra)?;
        let ctx = snapshot.ctx().clone();
        let graph = snapshot.graph().clone();
        let node_keys: Vec<NodeKey> = (0..graph.node_count()).map(|i| NodeKey(i as u64)).collect();
        let edge_keys: Vec<EdgeKey> =
            (0..graph.edge_count()).map(|i| EdgeKey((graph.node_count() + i) as u64)).collect();
        let node_ids = node_keys.iter().enumerate().map(|(i, k)| (*k, NodeId(i))).collect();
        let edge_ids = edge_keys.iter().enumerate().map(|(i, k)| (*k, EdgeId(i))).collect();
        let mut tables = BTreeMap::new();
        for rel in &ctx.induced_schema.relations {
            let name = rel.name.as_str();
            debug_assert_eq!(
                ctx.induced_schema.primary_key(name).map(Ident::as_str),
                Some(rel.attrs[0].as_str()),
                "InferSDT puts the default key first"
            );
            let image = snapshot
                .induced()
                .table(name)
                .ok_or_else(|| Error::instance(format!("freeze produced no table `{name}`")))?;
            tables.insert(name.to_string(), StoreTable::from_table(image));
        }
        let next_key = (graph.node_count() + graph.edge_count()) as u64;
        let obs = Arc::new(Obs::new());
        let c = StoreCounters::register(obs.registry());
        let commit_e2e_micros = obs.registry().histogram("graphiti_commit_e2e_micros");
        let group_commit_size = obs.registry().histogram("graphiti_group_commit_size");
        Ok(GraphStore {
            engine: Engine::with_observability(
                Arc::clone(&snapshot),
                cache_capacity,
                Arc::clone(&obs),
            ),
            published: RwLock::new((0, snapshot)),
            state: Mutex::new(StoreState {
                schema,
                graph,
                node_keys,
                edge_keys,
                node_ids,
                edge_ids,
                next_key,
                tables,
                commits: c.commits,
                rejected: c.rejected,
                compactions: c.compactions,
                durable: None,
                fence: None,
                fence_events: c.fence_events,
                fenced_commits: c.fenced_commits,
                idempotency: IdempotencyTable::default(),
                idempotent_replays: c.idempotent_replays,
            }),
            obs,
            commit_e2e_micros,
            group_commit_size,
        })
    }

    /// Opens (or recovers) a durable store rooted at the directory
    /// `dir` — the path behind [`StoreBuilder::durable`].
    ///
    /// **Fresh directory** (no checkpoint, no WAL): opens over
    /// `bootstrap` exactly like [`GraphStore::open_with`], then writes a
    /// generation-0 checkpoint and an empty WAL segment so the initial
    /// state is durable before the first commit.
    ///
    /// **Existing directory**: `bootstrap` is ignored; the store is
    /// **recovered** instead — the newest checkpoint that passes its
    /// checksum is loaded (older ones are fallbacks), the recovered
    /// graph is re-validated by a cold freeze and cross-checked against
    /// the checkpointed row logs, and the WAL suffix is replayed through
    /// the ordinary commit path.  A torn tail record (crash mid-append)
    /// is truncated, recovering to the last fully durable commit, never
    /// a partial generation.
    fn durable_open_impl(
        dir: PathBuf,
        schema: GraphSchema,
        bootstrap: GraphInstance,
        extra: impl IntoIterator<Item = (String, RelInstance)>,
        options: DurabilityOptions,
        fs: Arc<dyn vfs::Vfs>,
        cache_capacity: Option<usize>,
    ) -> StoreResult<GraphStore> {
        fs.create_dir_all(&dir).map_err(|e| StoreError::io("store: creating", &dir, e))?;
        let checkpoints = checkpoint::list_checkpoints(&*fs, &dir)?;
        let segments = wal::list_segments(&*fs, &dir)?;
        if checkpoints.is_empty() && segments.is_empty() {
            let store = GraphStore::open_with_capacity(schema, bootstrap, extra, cache_capacity)
                .map_err(StoreError::Rejected)?;
            store.attach_durability(fs, dir, options)?;
            return Ok(store);
        }
        // ---- recovery: newest valid checkpoint, oldest-first fallback.
        let mut image = None;
        for (_, p) in checkpoints.iter().rev() {
            if let Ok(i) = checkpoint::load(&*fs, p) {
                image = Some(i);
                break;
            }
        }
        let recovered_from_checkpoint = image.is_some();
        let store = match image {
            Some(image) => GraphStore::from_checkpoint(schema, image, extra, cache_capacity)
                .map_err(|e| StoreError::Internal(e.to_string()))?,
            None => {
                // Checkpoint files exist but none can be loaded: WAL
                // replay alone can never reconstruct the checkpointed
                // base state (generation 0 may hold a non-empty
                // bootstrap graph), so "replay onto empty" would reach
                // the right generation with the wrong contents.  Refuse
                // with a typed error naming the newest checkpoint.
                if let Some((_, newest)) = checkpoints.last() {
                    return Err(StoreError::corrupt(
                        newest,
                        "no checkpoint can be loaded; WAL replay alone cannot reconstruct the \
                         checkpointed base state",
                    ));
                }
                // No checkpoint file at all (a manually pruned
                // directory): replay the log onto an empty store.  Only
                // sound when the log reaches back to generation 1 — the
                // gap and corrupt-head checks below reject anything else
                // with a typed `Corrupt` instead of silently starting
                // empty.
                GraphStore::open_with_capacity(schema, GraphInstance::new(), extra, cache_capacity)
                    .map_err(StoreError::Rejected)?
            }
        };
        // ---- replay the WAL suffix, truncating any torn tail.
        let mut replayed = 0u64;
        let mut tail: Option<(PathBuf, u64)> = None;
        let mut torn_at: Option<usize> = None;
        for (i, (_, seg_path)) in segments.iter().enumerate() {
            let scan = wal::read_segment(&*fs, seg_path)?;
            if scan.torn && !recovered_from_checkpoint && scan.records.is_empty() && replayed == 0 {
                // The bootstrap edge case: nothing recovered the base
                // state and the very head of the log is unreadable —
                // starting empty here would silently drop data.
                return Err(StoreError::corrupt(
                    seg_path,
                    "WAL head is corrupt and no valid checkpoint exists",
                ));
            }
            if scan.torn {
                let mut f = fs
                    .open_rw(seg_path)
                    .map_err(|e| StoreError::io("wal: reopening torn segment", seg_path, e))?;
                f.set_len(scan.valid_len)
                    .map_err(|e| StoreError::io("wal: truncating torn tail", seg_path, e))?;
            }
            for rec in scan.records {
                let current = store.generation();
                if rec.generation <= current {
                    continue; // already covered by the checkpoint
                }
                if rec.generation != current + 1 {
                    return Err(StoreError::corrupt(
                        seg_path,
                        format!(
                            "wal gap: expected generation {}, found {}",
                            current + 1,
                            rec.generation
                        ),
                    ));
                }
                let generation = rec.generation;
                let req = CommitRequest { delta: rec.delta, token: rec.token, trace: 0 };
                store.commit(req).map_err(|e| {
                    StoreError::corrupt(
                        seg_path,
                        format!("wal replay of generation {generation} failed: {e}"),
                    )
                })?;
                replayed += 1;
            }
            tail = Some((seg_path.clone(), scan.valid_len));
            if scan.torn {
                torn_at = Some(i);
                break;
            }
        }
        // Anything after a tear is unreachable (its generations can
        // never be replayed past the gap): vacuum it.
        if let Some(i) = torn_at {
            for (_, stale) in &segments[i + 1..] {
                let _ = fs.remove_file(stale);
            }
        }
        // The newest checkpoint's filename generation is a durability
        // acknowledgment: recovery landing below it means an unloadable
        // checkpoint whose covered WAL segments were already vacuumed.
        // Silently serving the older state would lose acknowledged
        // commits — refuse with a typed error instead.  (Falling back to
        // an older checkpoint stays legal when surviving segments bridge
        // the gap, e.g. a crash between checkpoint write and vacuum.)
        if let Some((newest_gen, newest_path)) = checkpoints.last() {
            if store.generation() < *newest_gen {
                return Err(StoreError::corrupt(
                    newest_path,
                    format!(
                        "checkpoint generation {newest_gen} cannot be loaded and the WAL only \
                         reaches generation {} — refusing to silently lose acknowledged commits",
                        store.generation()
                    ),
                ));
            }
        }
        let writer = match tail {
            Some((seg_path, valid_len)) => wal::WalWriter::open_append(&*fs, seg_path, valid_len)?,
            None => wal::WalWriter::create(&*fs, wal::segment_path(&dir, store.generation()))?,
        };
        {
            let mut st = store.state.lock().unwrap_or_else(|p| p.into_inner());
            let last_checkpoint =
                checkpoint::list_checkpoints(&*fs, &dir)?.last().map(|(g, _)| *g).unwrap_or(0);
            let d =
                DurableState::new(dir, fs, options, writer, last_checkpoint, store.obs.registry());
            d.replayed.set(replayed);
            st.durable = Some(d);
        }
        Ok(store)
    }

    /// Rebuilds writer-side state from a checkpoint image: the master
    /// graph in arena order, stable keys, and the per-label row logs
    /// (slot-exact, tombstones included).  The recovered graph is
    /// re-validated by a cold freeze, and the checkpointed logs are
    /// cross-checked against the freeze-derived tables — recovery is
    /// *checkable*, not just plausible.
    fn from_checkpoint(
        schema: GraphSchema,
        image: checkpoint::CheckpointImage,
        extra: impl IntoIterator<Item = (String, RelInstance)>,
        cache_capacity: Option<usize>,
    ) -> Result<GraphStore> {
        let mut graph = GraphInstance::new();
        for n in &image.nodes {
            graph.add_node(
                Ident::new(&n.label),
                n.props.iter().map(|(k, v)| (Ident::new(k), v.clone())),
            );
        }
        for e in &image.edges {
            if e.src as usize >= image.nodes.len() || e.tgt as usize >= image.nodes.len() {
                return Err(Error::instance(format!(
                    "checkpoint edge `{}` references a missing node",
                    e.label
                )));
            }
            graph.add_edge(
                Ident::new(&e.label),
                NodeId(e.src as usize),
                NodeId(e.tgt as usize),
                e.props.iter().map(|(k, v)| (Ident::new(k), v.clone())),
            );
        }
        // Cold freeze: re-validates the whole recovered graph against the
        // schema and rebuilds the SDT context (the independent oracle the
        // checkpointed logs are checked against below).
        let cold = Snapshot::freeze_with(schema.clone(), graph, extra)?;
        let graph = cold.graph().clone();
        let node_keys: Vec<NodeKey> = image.nodes.iter().map(|n| NodeKey(n.key)).collect();
        let edge_keys: Vec<EdgeKey> = image.edges.iter().map(|e| EdgeKey(e.key)).collect();
        let max_key = node_keys
            .iter()
            .map(|k| k.0)
            .chain(edge_keys.iter().map(|k| k.0))
            .max()
            .map(|m| m + 1)
            .unwrap_or(0);
        if image.next_key < max_key {
            return Err(Error::instance(format!(
                "checkpoint next_key {} is below an assigned key ({max_key})",
                image.next_key
            )));
        }
        let node_ids: HashMap<NodeKey, NodeId> =
            node_keys.iter().enumerate().map(|(i, k)| (*k, NodeId(i))).collect();
        let edge_ids: HashMap<EdgeKey, EdgeId> =
            edge_keys.iter().enumerate().map(|(i, k)| (*k, EdgeId(i))).collect();
        if node_ids.len() != node_keys.len() || edge_ids.len() != edge_keys.len() {
            return Err(Error::instance("checkpoint holds duplicate stable keys"));
        }
        let mut tables = BTreeMap::new();
        let mut induced = RelInstance::new();
        for t in image.tables {
            let table = StoreTable::from_log_parts(t.columns, t.slots)?;
            induced.insert_table(t.name.clone(), table.snapshot_table());
            tables.insert(t.name, table);
        }
        // Checkable recovery: every freeze-derived table must exist in
        // the checkpoint with the same columns and the same bag of rows.
        let mut cold_tables = 0usize;
        for (name, cold_table) in cold.induced().tables() {
            cold_tables += 1;
            let live = induced.table(name).ok_or_else(|| {
                Error::instance(format!("checkpoint is missing induced table `{name}`"))
            })?;
            if live.columns != cold_table.columns || !live.rows_bag_equal(cold_table) {
                return Err(Error::instance(format!(
                    "checkpoint table `{name}` diverges from the recovered graph"
                )));
            }
        }
        if tables.len() != cold_tables {
            return Err(Error::instance("checkpoint holds tables the schema does not induce"));
        }
        // Publish the checkpointed (log-ordered) images, not the cold
        // arena-ordered ones: published row order must survive recovery
        // so later incremental commits keep patching consistently.
        let columnar = ColumnInstance::from_rel(&induced);
        let (extra_maps, extra_columnar) = cold.extra_parts();
        let published = Snapshot::from_parts_with_columnar(
            cold.schema_arc(),
            cold.graph_arc(),
            cold.ctx_arc(),
            induced,
            columnar,
            extra_maps,
            extra_columnar,
        );
        let obs = Arc::new(Obs::new());
        let c = StoreCounters::register(obs.registry());
        // Restore the checkpointed lifetime counters into the registry
        // cells so recovery is stats-transparent.
        c.commits.set(image.commits);
        c.rejected.set(image.rejected);
        c.compactions.set(image.compactions);
        let commit_e2e_micros = obs.registry().histogram("graphiti_commit_e2e_micros");
        let group_commit_size = obs.registry().histogram("graphiti_group_commit_size");
        Ok(GraphStore {
            engine: Engine::with_observability(
                Arc::clone(&published),
                cache_capacity,
                Arc::clone(&obs),
            ),
            published: RwLock::new((image.generation, published)),
            state: Mutex::new(StoreState {
                schema,
                graph,
                node_keys,
                edge_keys,
                node_ids,
                edge_ids,
                next_key: image.next_key,
                tables,
                commits: c.commits,
                rejected: c.rejected,
                compactions: c.compactions,
                durable: None,
                fence: None,
                fence_events: c.fence_events,
                fenced_commits: c.fenced_commits,
                idempotency: IdempotencyTable::from_entries(image.tokens),
                idempotent_replays: c.idempotent_replays,
            }),
            obs,
            commit_e2e_micros,
            group_commit_size,
        })
    }

    /// Bootstraps durability on a fresh directory: checkpoint the
    /// current state, then open the first WAL segment.
    fn attach_durability(
        &self,
        fs: Arc<dyn vfs::Vfs>,
        dir: PathBuf,
        options: DurabilityOptions,
    ) -> StoreResult<()> {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let generation = self.generation();
        let image = build_checkpoint_image(&st, generation);
        checkpoint::write(&*fs, &dir, &image)?;
        let wal = wal::WalWriter::create(&*fs, wal::segment_path(&dir, generation))?;
        let d = DurableState::new(dir, fs, options, wal, generation, self.obs.registry());
        d.checkpoints_written.inc();
        st.durable = Some(d);
        Ok(())
    }

    /// Writes a checkpoint of the current generation now, rotating the
    /// WAL and vacuuming segments (and checkpoints beyond the retention
    /// count) the new checkpoint covers.  Returns the checkpointed
    /// generation.  Errors if the store is not durable.
    ///
    /// This is also the **fence recovery path**: a store fenced by a
    /// durability failure (failed fsync, failed rollback) has intact
    /// in-memory state, so a successful checkpoint — the full state
    /// re-captured on fresh files, the WAL rotated, stale segments (and
    /// any record of uncertain durability in them) vacuumed — restores
    /// every durability invariant and lifts the fence.  A fence raised
    /// by an internal apply error is *not* recoverable this way (the
    /// in-memory state itself is suspect); reopen the store instead.
    pub fn checkpoint_now(&self) -> StoreResult<u64> {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if st.durable.is_none() {
            return Err(StoreError::Unsupported(
                "checkpoint_now: the store has no durability layer".into(),
            ));
        }
        if let Some(f) = &st.fence {
            if !f.memory_ok {
                return Err(StoreError::Fenced {
                    reason: format!("{} (in-memory state is suspect; reopen to recover)", f.reason),
                });
            }
        }
        let generation = self.generation();
        write_checkpoint_locked(&mut st, generation)?;
        st.fence = None;
        Ok(generation)
    }

    /// Whether the store is fenced (read-only degraded mode).
    pub fn is_fenced(&self) -> bool {
        self.state.lock().unwrap_or_else(|p| p.into_inner()).fence.is_some()
    }

    /// Why the store fenced, when it is fenced.
    pub fn fence_reason(&self) -> Option<String> {
        let st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        st.fence.as_ref().map(|f| f.reason.clone())
    }

    /// The embedded batch engine.  It runs on the snapshots its callers
    /// pin (see [`GraphStore::published`]); its plan cache and worker
    /// pool survive commits, because every generation shares the layout
    /// the engine was built from.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The latest published generation.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.published().1
    }

    /// The latest generation number.
    pub fn generation(&self) -> u64 {
        self.published.read().unwrap_or_else(|p| p.into_inner()).0
    }

    /// The latest published generation number and its snapshot, read
    /// together (`generation()` followed by `snapshot()` could straddle
    /// a concurrent publication).  This is what a session pins.  It never
    /// waits on a commit in flight: a commit holds the store's state lock
    /// across validation, WAL append and fsync, and takes the publication
    /// slot only to store its new generation.
    pub fn published(&self) -> (u64, Arc<Snapshot>) {
        let slot = self.published.read().unwrap_or_else(|p| p.into_inner());
        (slot.0, Arc::clone(&slot.1))
    }

    /// Point-in-time store counters.
    pub fn stats(&self) -> StoreStats {
        let st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        StoreStats {
            generation: self.generation(),
            commits: st.commits.get(),
            rejected_commits: st.rejected.get(),
            compactions: st.compactions.get(),
            live_nodes: st.graph.node_count(),
            live_edges: st.graph.edge_count(),
            logged_rows: st.tables.values().map(StoreTable::log_len).sum(),
            tombstoned_rows: st.tables.values().map(StoreTable::dead_count).sum(),
            wal_records: st.durable.as_ref().map_or(0, |d| d.wal_records.get()),
            wal_bytes: st.durable.as_ref().map_or(0, |d| d.wal_bytes.get()),
            checkpoints: st.durable.as_ref().map_or(0, |d| d.checkpoints_written.get()),
            checkpoint_failures: st.durable.as_ref().map_or(0, |d| d.checkpoint_failures.get()),
            last_checkpoint_generation: st.durable.as_ref().map_or(0, |d| d.last_checkpoint),
            replayed_commits: st.durable.as_ref().map_or(0, |d| d.replayed.get()),
            wal_segments_removed: st.durable.as_ref().map_or(0, |d| d.segments_removed.get()),
            fenced: st.fence.is_some(),
            fence_events: st.fence_events.get(),
            fenced_commits: st.fenced_commits.get(),
            wal_retries: st.durable.as_ref().map_or(0, |d| d.wal_retries.get()),
            wal_append_failures: st.durable.as_ref().map_or(0, |d| d.wal_append_failures.get()),
            idempotent_replays: st.idempotent_replays.get(),
        }
    }

    /// The store's observability surface: the shared metrics registry,
    /// the span-ring tracer, and the slow-query log (shared with the
    /// embedded engine and any serving layer above).
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// Looks up the stable key of the node with the given label and
    /// default-key value (O(label population)).
    pub fn node_key(&self, label: &str, pk: &Value) -> Option<NodeKey> {
        let st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let dk = st.schema.default_key_of(label)?.clone();
        let key = st
            .graph
            .nodes_with_label(label)
            .find(|n| n.prop(dk.as_str()) == *pk)
            .map(|n| st.node_keys[n.id.0]);
        key
    }

    /// Looks up the stable key of the edge with the given label and
    /// default-key value (O(label population)).
    pub fn edge_key(&self, label: &str, pk: &Value) -> Option<EdgeKey> {
        let st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let dk = st.schema.default_key_of(label)?.clone();
        let key = st
            .graph
            .edges_with_label(label)
            .find(|e| e.prop(dk.as_str()) == *pk)
            .map(|e| st.edge_keys[e.id.0]);
        key
    }

    /// Every live node as `(key, label, default-key value)`.
    pub fn node_directory(&self) -> Vec<(NodeKey, Ident, Value)> {
        let st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        st.graph
            .nodes()
            .filter_map(|n| {
                // Every published node passed schema validation (cold
                // freeze or commit), and both require a declared label.
                let dk = st.schema.default_key_of(n.label.as_str());
                debug_assert!(dk.is_some(), "undeclared label in published graph");
                dk.map(|dk| (st.node_keys[n.id.0], n.label.clone(), n.prop(dk.as_str())))
            })
            .collect()
    }

    /// Every live edge as `(key, label, default-key value, src key, tgt key)`.
    pub fn edge_directory(&self) -> Vec<(EdgeKey, Ident, Value, NodeKey, NodeKey)> {
        let st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        st.graph
            .edges()
            .filter_map(|e| {
                // Every published edge passed schema validation, which
                // requires a declared label.
                let dk = st.schema.default_key_of(e.label.as_str());
                debug_assert!(dk.is_some(), "undeclared label in published graph");
                dk.map(|dk| {
                    (
                        st.edge_keys[e.id.0],
                        e.label.clone(),
                        e.prop(dk.as_str()),
                        st.node_keys[e.src.0],
                        st.node_keys[e.tgt.0],
                    )
                })
            })
            .collect()
    }

    /// Force-compacts every table log with tombstones, returning how many
    /// were rewritten.  Published images are unaffected (compaction only
    /// renumbers internal log slots).
    pub fn compact_now(&self) -> usize {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let mut rewritten = 0;
        for t in st.tables.values_mut() {
            if t.compact(true) {
                rewritten += 1;
            }
        }
        st.compactions.add(rewritten as u64);
        rewritten
    }

    /// Validates and applies one request atomically, publishing a new
    /// snapshot generation on success.  This is a batch of one through
    /// the same pipeline the [`GroupCommitter`] feeds.
    ///
    /// Validation is **incremental and sequential**: each operation is
    /// checked against the master state plus the effects of the delta's
    /// earlier operations — touched elements and their schema obligations
    /// only, never a whole-graph revalidation.  A delta that fails any
    /// check is rejected wholesale: the master state, the published
    /// generation, and all reader snapshots are untouched.
    ///
    /// On success, the commit patches the previous generation's row and
    /// columnar induced images with per-label [`TableDelta`]s (cold
    /// re-materialization never runs), publishes the new generation, and
    /// returns the assigned stable keys.
    ///
    /// A request's **idempotency token** is recorded in its WAL record
    /// and in a bounded dedup table; a later request carrying the same
    /// token is **not re-applied** — it returns a [`CommitInfo`] whose
    /// `generation` is the original commit's generation (and whose key
    /// lists are empty, since nothing new was assigned).  This is what
    /// makes a retried commit after an ambiguous disconnect or timeout
    /// exactly-once.  Only successful commits are recorded: rejected or
    /// aborted attempts leave no entry, so their retries run the full
    /// commit path.
    ///
    /// # Failure semantics
    ///
    /// - [`StoreError::Rejected`]: validation failed; nothing written,
    ///   nothing mutated.
    /// - [`StoreError::Io`]: the WAL write failed (after the configured
    ///   retries) and was rolled back; nothing mutated, store live.
    /// - [`StoreError::Fenced`]: the WAL fsync failed or a write failure
    ///   could not be rolled back — on-disk state is uncertain, so the
    ///   store fenced itself read-only with its in-memory state intact;
    ///   recover via [`GraphStore::checkpoint_now`] or reopen.  An
    ///   internal invariant broken mid-apply also fences, with suspect
    ///   in-memory state that only a reopen recovers.  Either way readers
    ///   still serve the last published generation.
    pub fn commit(&self, req: impl Into<CommitRequest>) -> StoreResult<CommitInfo> {
        let mut results = self.commit_batch(vec![req.into()]);
        results.pop().expect("a batch of one yields one result")
    }

    /// The one commit pipeline: validates and applies a batch of
    /// requests under one lock acquisition, one WAL fsync, and one
    /// generation publication, returning one result per request, in
    /// input order.
    ///
    /// The batch is equivalent to committing its requests serially, in
    /// input order:
    ///
    /// - each request validates against the master state as mutated by
    ///   the accepted requests before it; a rejected request, or one whose
    ///   WAL write rolled back, fails alone;
    /// - each accepted request gets its own WAL record and generation;
    /// - a token already recorded, or carried by an earlier accepted
    ///   request of the batch, answers that commit's generation, and an
    ///   empty delta answers the generation current at its position.
    ///
    /// What the requests share is the work: one fsync, one image
    /// derivation per touched table (their [`TableDelta`]s are folded
    /// with [`TableDelta::absorb`]), and one publication.  The store's
    /// generation moves, and tokens are recorded, only at that
    /// publication.
    ///
    /// An accepted request is applied in memory only when the next one
    /// must validate against it, so the last is applied after the fsync.
    /// A failure that leaves on-disk state uncertain or in-memory state
    /// suspect fences the store, truncates the WAL to its pre-batch
    /// length (best effort), and answers [`StoreError::Fenced`] to every
    /// request not already refused.  In-memory state stays intact — so
    /// [`GraphStore::checkpoint_now`] can lift the fence — exactly when
    /// nothing had been applied, which a failed fsync guarantees for a
    /// batch of one.
    pub(crate) fn commit_batch(&self, batch: Vec<CommitRequest>) -> Vec<StoreResult<CommitInfo>> {
        let started = Instant::now();
        let tracer = self.obs.tracer();
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(reason) = st.fence.as_ref().map(|f| f.reason.clone()) {
            st.fenced_commits.add(batch.len() as u64);
            return batch
                .iter()
                .map(|_| Err(StoreError::Fenced { reason: reason.clone() }))
                .collect();
        }
        self.group_commit_size.record(batch.len() as u64);
        let batch_trace = batch.iter().map(|r| r.trace).find(|t| *t != 0).unwrap_or(0);
        let wal_start = st.durable.as_ref().map(|d| d.wal.len());
        // Only a publication under the state lock writes the slot, so it
        // stays put while this batch holds the lock.
        let (current, prev) = self.published();
        let mut acks: Vec<Option<StoreResult<Ack>>> = batch.iter().map(|_| None).collect();
        let mut folded = Folded::default();
        // This batch's tokens with the generations they ack.
        let mut tokens: Vec<(u128, u64)> = Vec::new();
        let mut replays = 0u64;
        let mut generation = current;
        let mut failure: Option<Fence> = None;
        for (idx, CommitRequest { delta, token, trace }) in batch.into_iter().enumerate() {
            let original = token.and_then(|t| {
                st.idempotency
                    .lookup(t)
                    .or_else(|| tokens.iter().find(|(seen, _)| *seen == t).map(|(_, g)| *g))
            });
            if let Some(original) = original {
                replays += 1;
                acks[idx] = Some(Ok(Ack { generation: original, ..Ack::default() }));
                continue;
            }
            if delta.is_empty() {
                if let Some(t) = token {
                    tokens.push((t, generation));
                }
                acks[idx] = Some(Ok(Ack { generation, ..Ack::default() }));
                continue;
            }
            // This request validates against every accepted one before it.
            if let Err(e) = folded.apply_pending(&mut st, &prev, &mut acks) {
                failure = Some(apply_failure(e));
                break;
            }
            // Pure validation: runs to completion before the WAL is
            // touched, so a rejected delta is side-effect-free on disk as
            // well as in memory.
            if let Err(e) = validate_delta(&st, &delta) {
                st.rejected.inc();
                acks[idx] = Some(Err(StoreError::Rejected(e)));
                continue;
            }
            // The redo rule: the record is appended and flushed before any
            // reader can observe its generation (the fsync is shared by
            // the whole batch, below).
            if let Some(d) = st.durable.as_mut() {
                let span = (trace != 0).then(|| tracer.span(trace, 0, "store.wal_append"));
                let outcome = wal_append_with_retry(d, generation + 1, token, &delta);
                drop(span);
                match outcome {
                    WalOutcome::Appended => {}
                    WalOutcome::Aborted(e) => {
                        acks[idx] = Some(Err(e));
                        continue;
                    }
                    WalOutcome::MustFence(e) => {
                        failure = Some(Fence {
                            reason: format!("wal failure with uncertain on-disk state: {e}"),
                            memory_ok: !folded.applied,
                        });
                        break;
                    }
                }
            }
            generation += 1;
            if let Some(t) = token {
                tokens.push((t, generation));
            }
            folded.pending = Some((idx, generation, delta));
        }
        let accepted = generation - current;
        // The batch's single fsync.  Its failure can never be trusted
        // retroactively (the kernel may have dropped the dirty pages —
        // fsyncgate), so it fences.
        if failure.is_none() && accepted > 0 {
            if let Some(d) = st.durable.as_mut().filter(|d| d.options.fsync_each_commit) {
                let span = (batch_trace != 0).then(|| tracer.span(batch_trace, 0, "store.fsync"));
                let sync_started = Instant::now();
                let sync = d.wal.sync();
                d.wal_fsync_micros.record(sync_started.elapsed().as_micros() as u64);
                drop(span);
                if let Err(e) = sync {
                    failure = Some(Fence {
                        reason: format!("wal fsync failed: {e}"),
                        memory_ok: !folded.applied,
                    });
                }
            }
        }
        let published = match failure {
            Some(fence) => Err(fence),
            None if accepted == 0 => Ok(prev),
            None => self
                .publish(&mut st, &prev, folded, &mut acks, generation, batch_trace)
                .map_err(apply_failure),
        };
        let snapshot = match published {
            Ok(snapshot) => snapshot,
            Err(fence) => {
                if let (Some(d), Some(len)) = (st.durable.as_mut(), wal_start) {
                    // Best effort: the records' durability is unknown, and
                    // even a successful truncation lives only in the page
                    // cache until the next sync, so the fence stands.
                    let _ = d.wal.truncate_to(len);
                }
                let error = StoreError::Fenced { reason: fence.reason.clone() };
                st.fence = Some(fence);
                st.fence_events.inc();
                return acks
                    .into_iter()
                    .map(|ack| match ack {
                        Some(Err(refused)) => Err(refused),
                        _ => Err(error.clone()),
                    })
                    .collect();
            }
        };
        st.commits.add(accepted);
        st.idempotent_replays.add(replays);
        // Recorded before the periodic checkpoint, so it carries them.
        for (token, generation) in tokens {
            st.idempotency.record(token, generation);
        }
        if accepted > 0 {
            let e2e = started.elapsed().as_micros() as u64;
            for _ in 0..accepted {
                self.commit_e2e_micros.record(e2e);
            }
            // Periodic checkpoint: bounds replay cost and lets old WAL
            // segments be vacuumed.  The batch already published; a
            // checkpoint failure is recorded, not propagated — durability
            // falls back to a longer replay.
            let due = st.durable.as_ref().is_some_and(|d| {
                d.options.checkpoint_interval > 0
                    && generation - d.last_checkpoint >= d.options.checkpoint_interval
            });
            if due && write_checkpoint_locked(&mut st, generation).is_err() {
                if let Some(d) = st.durable.as_mut() {
                    d.checkpoint_failures.inc();
                }
            }
        }
        let published_generation = generation;
        acks.into_iter()
            .map(|ack| {
                ack.expect("a published batch answers every request").map(|ack| CommitInfo {
                    generation: ack.generation,
                    published_generation,
                    snapshot: Arc::clone(&snapshot),
                    node_keys: ack.node_keys,
                    edge_keys: ack.edge_keys,
                    touched_tables: ack.touched_tables,
                })
            })
            .collect()
    }

    /// Applies a batch's last accepted request, derives the new images
    /// from the previous generation's by one [`TableDelta`] per touched
    /// table, and publishes every accepted request as generation
    /// `generation`: the one write of the publication slot, made while
    /// the caller holds the state lock.  An error leaves the master state
    /// part-mutated.
    fn publish(
        &self,
        st: &mut StoreState,
        prev: &Snapshot,
        mut folded: Folded,
        acks: &mut [Option<StoreResult<Ack>>],
        generation: u64,
        trace: u64,
    ) -> Result<Arc<Snapshot>> {
        folded.apply_pending(st, prev, acks)?;
        let _span = (trace != 0).then(|| self.obs.tracer().span(trace, 0, "store.publish"));
        let mut induced = prev.induced().clone();
        let mut columnar = prev.induced_columnar().clone();
        for (name, (_, delta)) in &folded.tables {
            let (Some(rows), Some(cols)) = (induced.table(name), columnar.table(name)) else {
                return Err(Error::instance(format!("generation lost table `{name}` mid-publish")));
            };
            let (row_image, col_image) = (rows.apply_delta(delta), cols.apply_delta(delta));
            // The patched image must equal what the table log would
            // materialize from scratch (debug builds only; `folded.tables`
            // only holds names `apply_delta` found in `st.tables`).
            debug_assert_eq!(
                row_image,
                st.tables.get(name).expect("touched table exists").snapshot_table(),
                "patched image of `{name}` diverges from its log"
            );
            induced.insert_table(name.clone(), row_image);
            columnar.insert_table(name.clone(), col_image);
        }
        let (extra, extra_columnar) = prev.extra_parts();
        // The clone shares every arena chunk with the master; the next
        // commit's writes copy only the chunks they touch.
        let snapshot = Snapshot::from_parts_with_columnar(
            prev.schema_arc(),
            Arc::new(st.graph.clone()),
            prev.ctx_arc(),
            induced,
            columnar,
            extra,
            extra_columnar,
        );
        *self.published.write().unwrap_or_else(|p| p.into_inner()) =
            (generation, Arc::clone(&snapshot));
        Ok(snapshot)
    }
}

/// The WAL segment files under a durable store directory, ascending by
/// base generation (test and tooling support: crash simulation truncates
/// or copies these).
pub fn wal_segment_files(dir: impl AsRef<Path>) -> StoreResult<Vec<PathBuf>> {
    Ok(wal::list_segments(&vfs::StdVfs, dir.as_ref())?.into_iter().map(|(_, p)| p).collect())
}

/// The checkpoint files under a durable store directory, ascending by
/// generation.
pub fn checkpoint_files(dir: impl AsRef<Path>) -> StoreResult<Vec<PathBuf>> {
    Ok(checkpoint::list_checkpoints(&vfs::StdVfs, dir.as_ref())?
        .into_iter()
        .map(|(_, p)| p)
        .collect())
}

// ------------------------------------------------------------ durability

/// The fence a batch raises when its apply phase breaks an invariant:
/// the master state is part-mutated, so only a reopen recovers.
fn apply_failure(e: Error) -> Fence {
    Fence { reason: format!("commit apply phase failed mid-mutation: {e}"), memory_ok: false }
}

/// How the WAL append of one commit record ended.
enum WalOutcome {
    /// Record written and flushed; the commit proceeds to the batch's
    /// fsync.
    Appended,
    /// Write failed after retries but rolled back cleanly: the commit
    /// aborts side-effect-free and the store stays live.
    Aborted(StoreError),
    /// The rollback failed, leaving bytes of unknown validity past the
    /// valid prefix: fence.
    MustFence(StoreError),
}

/// Appends and flushes one commit record, retrying transient **write**
/// failures with linear backoff.  The fsync is the caller's single,
/// never-retried step per batch.
fn wal_append_with_retry(
    d: &mut DurableState,
    generation: u64,
    token: Option<u128>,
    delta: &Delta,
) -> WalOutcome {
    let max_retries = d.options.wal_retry_attempts;
    let mut attempt = 0u32;
    loop {
        let append_started = Instant::now();
        match d.wal.append(generation, token, delta) {
            Ok(bytes) => {
                d.wal_append_micros.record(append_started.elapsed().as_micros() as u64);
                d.wal_records.inc();
                d.wal_bytes.add(bytes);
                return WalOutcome::Appended;
            }
            Err(ae) => {
                if !ae.rolled_back {
                    return WalOutcome::MustFence(ae.error);
                }
                if attempt < max_retries {
                    attempt += 1;
                    d.wal_retries.inc();
                    let ms = d.options.wal_retry_backoff_ms.saturating_mul(attempt as u64);
                    if ms > 0 {
                        std::thread::sleep(std::time::Duration::from_millis(ms));
                    }
                    continue;
                }
                d.wal_append_failures.inc();
                return WalOutcome::Aborted(ae.error);
            }
        }
    }
}

/// Serializes the writer-side state at `generation` into a checkpoint
/// image: counters, the master graph in arena order with its stable
/// keys, and every row log slot-exactly (tombstones included, so
/// published log order survives recovery).
fn build_checkpoint_image(st: &StoreState, generation: u64) -> checkpoint::CheckpointImage {
    let nodes = st
        .graph
        .nodes()
        .map(|n| checkpoint::CkptNode {
            key: st.node_keys[n.id.0].0,
            label: n.label.as_str().to_owned(),
            props: n.props.iter().map(|(k, v)| (k.as_str().to_owned(), v.clone())).collect(),
        })
        .collect();
    let edges = st
        .graph
        .edges()
        .map(|e| checkpoint::CkptEdge {
            key: st.edge_keys[e.id.0].0,
            label: e.label.as_str().to_owned(),
            src: e.src.0 as u64,
            tgt: e.tgt.0 as u64,
            props: e.props.iter().map(|(k, v)| (k.as_str().to_owned(), v.clone())).collect(),
        })
        .collect();
    let tables = st
        .tables
        .iter()
        .map(|(name, t)| checkpoint::CkptTable {
            name: name.clone(),
            columns: t.columns().to_vec(),
            slots: t.log_slots().map(|(dead, row)| (dead, row.clone())).collect(),
        })
        .collect();
    checkpoint::CheckpointImage {
        generation,
        commits: st.commits.get(),
        rejected: st.rejected.get(),
        compactions: st.compactions.get(),
        next_key: st.next_key,
        nodes,
        edges,
        tables,
        tokens: st.idempotency.entries(),
    }
}

/// Checkpoints the current generation, `generation`, rotates the WAL to
/// a fresh segment, and vacuums fully covered segments plus checkpoints
/// beyond the retention count.  Caller must hold the state lock and have
/// `st.durable` set.
fn write_checkpoint_locked(st: &mut StoreState, generation: u64) -> StoreResult<()> {
    let image = build_checkpoint_image(st, generation);
    let Some(d) = st.durable.as_mut() else {
        // Callers verify `st.durable` before calling; reaching here is a
        // logic bug, reported instead of panicking.
        debug_assert!(false, "write_checkpoint_locked needs a durable store");
        return Err(StoreError::Internal(
            "write_checkpoint_locked called without a durability layer".into(),
        ));
    };
    // The checkpoint file is a complete, fsynced image of everything it
    // covers, so it supersedes the log: no separate WAL sync is needed
    // before vacuuming covered segments.  (This also keeps the
    // unretriable-fsync problem out of the checkpoint path, which is
    // what lets `checkpoint_now` recover a fenced store.)
    checkpoint::write(&*d.vfs, &d.dir, &image)?;
    d.wal = wal::WalWriter::create(&*d.vfs, wal::segment_path(&d.dir, generation))?;
    d.last_checkpoint = generation;
    d.checkpoints_written.inc();
    for (base, path) in wal::list_segments(&*d.vfs, &d.dir)? {
        if base < generation && d.vfs.remove_file(&path).is_ok() {
            d.segments_removed.inc();
        }
    }
    let ckpts = checkpoint::list_checkpoints(&*d.vfs, &d.dir)?;
    let keep = d.options.keep_checkpoints.max(1);
    if ckpts.len() > keep {
        for (_, path) in &ckpts[..ckpts.len() - keep] {
            let _ = d.vfs.remove_file(path);
        }
    }
    Ok(())
}

// ------------------------------------------------------------ validation

/// An endpoint resolved during validation: an existing node or the `i`-th
/// node staged by this delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Endpoint {
    Existing(NodeKey),
    New(usize),
}

/// An edge resolved during validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EdgeSlot {
    Existing(EdgeKey),
    New(usize),
}

#[derive(Debug)]
struct StagedNode {
    label: Ident,
    props: BTreeMap<Ident, Value>,
    alive: bool,
}

#[derive(Debug)]
struct StagedEdge {
    label: Ident,
    src: Endpoint,
    tgt: Endpoint,
    props: BTreeMap<Ident, Value>,
    alive: bool,
}

/// Sequential validation state: the master store plus the staged effects
/// of the delta's earlier operations.
struct Check<'a> {
    st: &'a StoreState,
    new_nodes: Vec<StagedNode>,
    new_edges: Vec<StagedEdge>,
    removed_nodes: HashSet<NodeKey>,
    removed_edges: HashSet<EdgeKey>,
    node_overrides: HashMap<(NodeKey, Ident), Value>,
    edge_overrides: HashMap<(EdgeKey, Ident), Value>,
    /// Per-label default-key accounting: values freed (removals, re-keys)
    /// and claimed (additions, re-keys) by earlier operations.
    freed: HashSet<(Ident, Value)>,
    claimed: HashSet<(Ident, Value)>,
}

impl<'a> Check<'a> {
    fn resolve_node(&self, r: &NodeRef) -> Result<Endpoint> {
        match r {
            NodeRef::Key(k) => {
                if self.removed_nodes.contains(k) || !self.st.node_ids.contains_key(k) {
                    return Err(Error::instance(format!("unknown or removed node {k}")));
                }
                Ok(Endpoint::Existing(*k))
            }
            NodeRef::New(i) => match self.new_nodes.get(*i) {
                Some(n) if n.alive => Ok(Endpoint::New(*i)),
                _ => Err(Error::instance(format!("unknown or removed staged node #{i}"))),
            },
        }
    }

    fn node_label(&self, ep: Endpoint) -> &Ident {
        match ep {
            Endpoint::Existing(k) => &self.st.graph.node(self.st.node_ids[&k]).label,
            Endpoint::New(i) => &self.new_nodes[i].label,
        }
    }

    fn node_prop(&self, ep: Endpoint, key: &Ident) -> Value {
        match ep {
            Endpoint::Existing(k) => {
                if let Some(v) = self.node_overrides.get(&(k, key.clone())) {
                    return v.clone();
                }
                self.st.graph.node(self.st.node_ids[&k]).prop(key.as_str())
            }
            Endpoint::New(i) => self.new_nodes[i].props.get(key).cloned().unwrap_or(Value::Null),
        }
    }

    /// Resolves an edge reference to its staged index or checks liveness of
    /// an existing edge.
    fn resolve_edge(&self, r: &EdgeRef) -> Result<EdgeSlot> {
        match r {
            EdgeRef::Key(k) => {
                if self.removed_edges.contains(k) || !self.st.edge_ids.contains_key(k) {
                    return Err(Error::instance(format!("unknown or removed edge {k}")));
                }
                Ok(EdgeSlot::Existing(*k))
            }
            EdgeRef::New(i) => match self.new_edges.get(*i) {
                Some(e) if e.alive => Ok(EdgeSlot::New(*i)),
                _ => Err(Error::instance(format!("unknown or removed staged edge #{i}"))),
            },
        }
    }

    fn edge_label(&self, slot: EdgeSlot) -> &Ident {
        match slot {
            EdgeSlot::Existing(k) => &self.st.graph.edge(self.st.edge_ids[&k]).label,
            EdgeSlot::New(i) => &self.new_edges[i].label,
        }
    }

    fn edge_prop(&self, slot: EdgeSlot, key: &Ident) -> Value {
        match slot {
            EdgeSlot::Existing(k) => {
                if let Some(v) = self.edge_overrides.get(&(k, key.clone())) {
                    return v.clone();
                }
                self.st.graph.edge(self.st.edge_ids[&k]).prop(key.as_str())
            }
            EdgeSlot::New(i) => self.new_edges[i].props.get(key).cloned().unwrap_or(Value::Null),
        }
    }

    /// Claims a default-key value for a label, enforcing uniqueness
    /// against the master index and the delta's earlier operations.
    ///
    /// A value is held iff (the master index holds it AND no earlier
    /// operation freed the master's copy) OR an earlier operation staged a
    /// claim on it.  `freed` deliberately keeps recording "the master's
    /// copy is gone" even while a staged claim cycles the value — a
    /// remove/add/remove/add chain on one key must stay valid.
    fn claim(&mut self, label: &Ident, value: &Value) -> Result<()> {
        let kv = (label.clone(), value.clone());
        let held_by_master =
            self.st.tables.get(label.as_str()).is_some_and(|t| t.contains_pk(value))
                && !self.freed.contains(&kv);
        if held_by_master || self.claimed.contains(&kv) {
            return Err(Error::instance(format!(
                "duplicate default-key value {value} for label `{label}`"
            )));
        }
        self.claimed.insert(kv);
        Ok(())
    }

    /// Releases a default-key value (element removed or re-keyed): a
    /// staged claim is cancelled, a master-held value is marked freed.
    fn free(&mut self, label: &Ident, value: &Value) {
        let kv = (label.clone(), value.clone());
        if !self.claimed.remove(&kv) {
            self.freed.insert(kv);
        }
    }
}

/// Extracts and checks the default-key value from an addition's property
/// list: present, non-null, and every key declared.
fn check_props(
    kind: &str,
    label: &Ident,
    declared: &[Ident],
    props: &[(Ident, Value)],
) -> Result<Value> {
    for (k, _) in props {
        if !declared.contains(k) {
            return Err(Error::instance(format!("{kind} `{label}` has undeclared property `{k}`")));
        }
    }
    let dk = &declared[0];
    let pk =
        props.iter().rev().find(|(k, _)| k == dk).map(|(_, v)| v.clone()).unwrap_or(Value::Null);
    if pk.is_null() {
        return Err(Error::instance(format!("{kind} `{label}` is missing its default key `{dk}`")));
    }
    Ok(pk)
}

/// Phase 1: sequential incremental validation.  Pure — the store state is
/// untouched regardless of outcome.
fn validate_delta(st: &StoreState, delta: &Delta) -> Result<()> {
    let mut c = Check {
        st,
        new_nodes: Vec::new(),
        new_edges: Vec::new(),
        removed_nodes: HashSet::new(),
        removed_edges: HashSet::new(),
        node_overrides: HashMap::new(),
        edge_overrides: HashMap::new(),
        freed: HashSet::new(),
        claimed: HashSet::new(),
    };
    for op in delta.ops() {
        match op {
            Mutation::AddNode { label, props } => {
                let ty = st
                    .schema
                    .node_type(label.as_str())
                    .ok_or_else(|| Error::instance(format!("unknown node label `{label}`")))?;
                let pk = check_props("node", label, &ty.keys, props)?;
                c.claim(label, &pk)?;
                c.new_nodes.push(StagedNode {
                    label: label.clone(),
                    props: props.iter().cloned().collect(),
                    alive: true,
                });
            }
            Mutation::AddEdge { label, src, tgt, props } => {
                let ty = st
                    .schema
                    .edge_type(label.as_str())
                    .ok_or_else(|| Error::instance(format!("unknown edge label `{label}`")))?;
                let src = c.resolve_node(src)?;
                let tgt = c.resolve_node(tgt)?;
                if *c.node_label(src) != ty.src || *c.node_label(tgt) != ty.tgt {
                    return Err(Error::instance(format!(
                        "edge `{label}` connects `{}`->`{}` but schema declares `{}`->`{}`",
                        c.node_label(src),
                        c.node_label(tgt),
                        ty.src,
                        ty.tgt
                    )));
                }
                let pk = check_props("edge", label, &ty.keys, props)?;
                c.claim(label, &pk)?;
                c.new_edges.push(StagedEdge {
                    label: label.clone(),
                    src,
                    tgt,
                    props: props.iter().cloned().collect(),
                    alive: true,
                });
            }
            Mutation::RemoveEdge { edge } => {
                let slot = c.resolve_edge(edge)?;
                let label = c.edge_label(slot).clone();
                // Every resolvable edge was validated at add time, which
                // requires a declared label — so this lookup can only
                // fail on a broken invariant, reported, not panicked.
                let dk = st
                    .schema
                    .default_key_of(label.as_str())
                    .ok_or_else(|| Error::instance(format!("label `{label}` is undeclared")))?;
                let pk = c.edge_prop(slot, dk);
                c.free(&label, &pk);
                match slot {
                    EdgeSlot::Existing(k) => {
                        c.removed_edges.insert(k);
                    }
                    EdgeSlot::New(i) => c.new_edges[i].alive = false,
                }
            }
            Mutation::RemoveNode { node } => {
                let ep = c.resolve_node(node)?;
                // No incident edge may survive to this point of the delta.
                match ep {
                    Endpoint::Existing(k) => {
                        let id = st.node_ids[&k];
                        let incident = st
                            .graph
                            .out_edges(id)
                            .chain(st.graph.in_edges(id))
                            .any(|e| !c.removed_edges.contains(&st.edge_keys[e.id.0]));
                        if incident {
                            return Err(Error::instance(format!(
                                "node {k} still has incident edges"
                            )));
                        }
                    }
                    Endpoint::New(_) => {}
                }
                if c.new_edges.iter().any(|e| e.alive && (e.src == ep || e.tgt == ep)) {
                    return Err(Error::instance(
                        "node still has incident edges staged by this delta",
                    ));
                }
                let label = c.node_label(ep).clone();
                // Resolvable nodes were validated at add time, so the label
                // is declared — reported as a rejection if that ever breaks.
                let dk = st
                    .schema
                    .default_key_of(label.as_str())
                    .ok_or_else(|| Error::instance(format!("label `{label}` is undeclared")))?;
                let pk = c.node_prop(ep, dk);
                c.free(&label, &pk);
                match ep {
                    Endpoint::Existing(k) => {
                        c.removed_nodes.insert(k);
                    }
                    Endpoint::New(i) => c.new_nodes[i].alive = false,
                }
            }
            Mutation::SetNodeProp { node, key, value } => {
                let ep = c.resolve_node(node)?;
                let label = c.node_label(ep).clone();
                let ty = st
                    .schema
                    .node_type(label.as_str())
                    .ok_or_else(|| Error::instance(format!("label `{label}` is undeclared")))?;
                if !ty.keys.contains(key) {
                    return Err(Error::instance(format!(
                        "node `{label}` has no declared property `{key}`"
                    )));
                }
                if *key == *ty.default_key() {
                    if value.is_null() {
                        return Err(Error::instance(format!(
                            "default key `{key}` of `{label}` cannot be NULL"
                        )));
                    }
                    let old = c.node_prop(ep, key);
                    if old != *value {
                        c.free(&label, &old);
                        c.claim(&label, value)?;
                    }
                }
                match ep {
                    Endpoint::Existing(k) => {
                        c.node_overrides.insert((k, key.clone()), value.clone());
                    }
                    Endpoint::New(i) => {
                        c.new_nodes[i].props.insert(key.clone(), value.clone());
                    }
                }
            }
            Mutation::SetEdgeProp { edge, key, value } => {
                let slot = c.resolve_edge(edge)?;
                let label = c.edge_label(slot).clone();
                let ty = st
                    .schema
                    .edge_type(label.as_str())
                    .ok_or_else(|| Error::instance(format!("label `{label}` is undeclared")))?;
                if !ty.keys.contains(key) {
                    return Err(Error::instance(format!(
                        "edge `{label}` has no declared property `{key}`"
                    )));
                }
                if *key == *ty.default_key() {
                    if value.is_null() {
                        return Err(Error::instance(format!(
                            "default key `{key}` of `{label}` cannot be NULL"
                        )));
                    }
                    let old = c.edge_prop(slot, key);
                    if old != *value {
                        c.free(&label, &old);
                        c.claim(&label, value)?;
                    }
                }
                match slot {
                    EdgeSlot::Existing(k) => {
                        c.edge_overrides.insert((k, key.clone()), value.clone());
                    }
                    EdgeSlot::New(i) => {
                        c.new_edges[i].props.insert(key.clone(), value.clone());
                    }
                }
            }
        }
    }
    Ok(())
}

// -------------------------------------------------------------- applying

/// Everything phase 2 hands to the publication phase.
struct Applied {
    deltas: BTreeMap<String, TableDelta>,
    node_keys: Vec<NodeKey>,
    edge_keys: Vec<EdgeKey>,
}

/// What one request of a batch acks, before the batch publishes.
#[derive(Default)]
struct Ack {
    generation: u64,
    node_keys: Vec<NodeKey>,
    edge_keys: Vec<EdgeKey>,
    touched_tables: Vec<String>,
}

/// A batch's accepted requests on their way to its one publication.
#[derive(Default)]
struct Folded {
    /// The last accepted request (its index in the batch, generation and
    /// delta), not yet applied to the master state.
    pending: Option<(usize, u64, Delta)>,
    /// Whether any request has been applied to the master state.
    applied: bool,
    /// Per touched table: the pre-batch row count (the fold's base) and
    /// every applied request's delta absorbed in commit order.
    tables: BTreeMap<String, (usize, TableDelta)>,
}

impl Folded {
    /// Applies the pending request, if any, to the master state and the
    /// table logs, folds its table deltas in, and answers it in `acks`
    /// with the keys it assigned.  An error leaves the master state
    /// part-mutated.
    fn apply_pending(
        &mut self,
        st: &mut StoreState,
        prev: &Snapshot,
        acks: &mut [Option<StoreResult<Ack>>],
    ) -> Result<()> {
        let Some((idx, generation, delta)) = self.pending.take() else {
            return Ok(());
        };
        let applied = apply_delta(st, &delta)?;
        self.applied = true;
        let mut touched_tables = Vec::with_capacity(applied.deltas.len());
        for (name, table_delta) in applied.deltas {
            // Compaction renumbers log slots, not published rows, so it
            // can run once the change set is extracted.
            if st.tables.get_mut(&name).is_some_and(|t| t.compact(false)) {
                st.compactions.inc();
            }
            match self.tables.get_mut(&name) {
                Some((base_rows, folded)) => folded.absorb(*base_rows, &table_delta),
                None => {
                    // First touch: the delta moves in unfolded.  A table
                    // missing from `prev` fails the publication instead.
                    let base_rows = prev.induced().table(&name).map_or(0, |t| t.len());
                    self.tables.insert(name.clone(), (base_rows, table_delta));
                }
            }
            touched_tables.push(name);
        }
        acks[idx] = Some(Ok(Ack {
            generation,
            node_keys: applied.node_keys,
            edge_keys: applied.edge_keys,
            touched_tables,
        }));
        Ok(())
    }
}

/// Commit-local change set of one table log.
struct Pending {
    len_before: usize,
    removed_slots: Vec<usize>,
    patches: Vec<(usize, usize, Value)>,
    appended_slots: Vec<usize>,
}

fn touch<'p>(
    pending: &'p mut BTreeMap<String, Pending>,
    tables: &BTreeMap<String, StoreTable>,
    name: &str,
) -> &'p mut Pending {
    if !pending.contains_key(name) {
        let len_before = tables.get(name).map(StoreTable::log_len).unwrap_or(0);
        pending.insert(
            name.to_string(),
            Pending {
                len_before,
                removed_slots: Vec::new(),
                patches: Vec::new(),
                appended_slots: Vec::new(),
            },
        );
    }
    // Infallible: the entry was inserted two lines above under this borrow.
    pending.get_mut(name).expect("just inserted")
}

/// Phase 2: applies a validated delta to the master graph and table logs,
/// recording per-table change sets in pre-commit published coordinates.
fn apply_delta(st: &mut StoreState, delta: &Delta) -> Result<Applied> {
    let mut pending: BTreeMap<String, Pending> = BTreeMap::new();
    let mut new_node_keys: Vec<NodeKey> = Vec::with_capacity(delta.nodes_added);
    let mut new_edge_keys: Vec<EdgeKey> = Vec::with_capacity(delta.edges_added);
    for op in delta.ops() {
        match op {
            Mutation::AddNode { label, props } => {
                let key = NodeKey(st.next_key);
                st.next_key += 1;
                let id = st
                    .graph
                    .add_node(label.clone(), props.iter().map(|(k, v)| (k.clone(), v.clone())));
                st.node_keys.push(key);
                st.node_ids.insert(key, id);
                new_node_keys.push(key);
                let ty = st
                    .schema
                    .node_type(label.as_str())
                    .ok_or_else(|| Error::instance(format!("label `{label}` is undeclared")))?;
                let row: Vec<Value> =
                    ty.keys.iter().map(|k| st.graph.node(id).prop(k.as_str())).collect();
                append_row(st, &mut pending, label.as_str(), row)?;
            }
            Mutation::AddEdge { label, src, tgt, props } => {
                let key = EdgeKey(st.next_key);
                st.next_key += 1;
                let src_id = resolve_applied_node(st, &new_node_keys, src)?;
                let tgt_id = resolve_applied_node(st, &new_node_keys, tgt)?;
                let id = st.graph.add_edge(
                    label.clone(),
                    src_id,
                    tgt_id,
                    props.iter().map(|(k, v)| (k.clone(), v.clone())),
                );
                st.edge_keys.push(key);
                st.edge_ids.insert(key, id);
                new_edge_keys.push(key);
                let ty = st
                    .schema
                    .edge_type(label.as_str())
                    .ok_or_else(|| Error::instance(format!("label `{label}` is undeclared")))?;
                // A declared edge type names declared endpoint labels, so
                // both lookups are reported, not panicked, if that breaks.
                let src_dk = st
                    .schema
                    .default_key_of(ty.src.as_str())
                    .ok_or_else(|| Error::instance(format!("label `{}` is undeclared", ty.src)))?;
                let tgt_dk = st
                    .schema
                    .default_key_of(ty.tgt.as_str())
                    .ok_or_else(|| Error::instance(format!("label `{}` is undeclared", ty.tgt)))?;
                let mut row: Vec<Value> =
                    ty.keys.iter().map(|k| st.graph.edge(id).prop(k.as_str())).collect();
                row.push(st.graph.node(src_id).prop(src_dk.as_str()));
                row.push(st.graph.node(tgt_id).prop(tgt_dk.as_str()));
                append_row(st, &mut pending, label.as_str(), row)?;
            }
            Mutation::RemoveEdge { edge } => {
                let key = match edge {
                    EdgeRef::Key(k) => *k,
                    EdgeRef::New(i) => new_edge_keys[*i],
                };
                let id = *st
                    .edge_ids
                    .get(&key)
                    .ok_or_else(|| Error::instance(format!("lost edge {key}")))?;
                let label = st.graph.try_edge(id)?.label.clone();
                let dk = st
                    .schema
                    .default_key_of(label.as_str())
                    .ok_or_else(|| Error::instance(format!("label `{label}` is undeclared")))?;
                let pk = st.graph.try_edge(id)?.prop(dk.as_str());
                st.graph.remove_edge(id)?;
                // Mirror the arena's swap-remove in the key maps.
                let removed_key = st.edge_keys.swap_remove(id.0);
                debug_assert_eq!(removed_key, key);
                st.edge_ids.remove(&key);
                if id.0 < st.edge_keys.len() {
                    st.edge_ids.insert(st.edge_keys[id.0], id);
                }
                tombstone_row(st, &mut pending, label.as_str(), &pk)?;
            }
            Mutation::RemoveNode { node } => {
                let key = match node {
                    NodeRef::Key(k) => *k,
                    NodeRef::New(i) => new_node_keys[*i],
                };
                let id = *st
                    .node_ids
                    .get(&key)
                    .ok_or_else(|| Error::instance(format!("lost node {key}")))?;
                let label = st.graph.try_node(id)?.label.clone();
                let dk = st
                    .schema
                    .default_key_of(label.as_str())
                    .ok_or_else(|| Error::instance(format!("label `{label}` is undeclared")))?;
                let pk = st.graph.try_node(id)?.prop(dk.as_str());
                st.graph.remove_node(id)?;
                let removed_key = st.node_keys.swap_remove(id.0);
                debug_assert_eq!(removed_key, key);
                st.node_ids.remove(&key);
                if id.0 < st.node_keys.len() {
                    st.node_ids.insert(st.node_keys[id.0], id);
                }
                tombstone_row(st, &mut pending, label.as_str(), &pk)?;
            }
            Mutation::SetNodeProp { node, key, value } => {
                let nkey = match node {
                    NodeRef::Key(k) => *k,
                    NodeRef::New(i) => new_node_keys[*i],
                };
                let id = *st
                    .node_ids
                    .get(&nkey)
                    .ok_or_else(|| Error::instance(format!("lost node {nkey}")))?;
                let label = st.graph.try_node(id)?.label.clone();
                let ty = st
                    .schema
                    .node_type(label.as_str())
                    .ok_or_else(|| Error::instance(format!("label `{label}` is undeclared")))?;
                let col = ty
                    .keys
                    .iter()
                    .position(|k| k == key)
                    .ok_or_else(|| Error::instance(format!("undeclared key `{key}`")))?;
                let pk_before = st.graph.try_node(id)?.prop(ty.default_key().as_str());
                st.graph.set_node_prop(id, key.clone(), value.clone())?;
                patch_row(st, &mut pending, label.as_str(), &pk_before, col, value.clone())?;
                if col == 0 && pk_before != *value {
                    // The node's default key is the join value every
                    // incident edge row carries in SRC/TGT: patch them too.
                    let touched: Vec<(Ident, EdgeId, bool)> = st
                        .graph
                        .out_edges(id)
                        .map(|e| (e.label.clone(), e.id, true))
                        .chain(st.graph.in_edges(id).map(|e| (e.label.clone(), e.id, false)))
                        .collect();
                    let mut incident: Vec<(Ident, Value, bool)> = Vec::with_capacity(touched.len());
                    for (elabel, eid, is_src) in touched {
                        let edk = st.schema.default_key_of(elabel.as_str()).ok_or_else(|| {
                            Error::instance(format!("label `{elabel}` is undeclared"))
                        })?;
                        incident.push((
                            elabel.clone(),
                            st.graph.try_edge(eid)?.prop(edk.as_str()),
                            is_src,
                        ));
                    }
                    for (elabel, epk, is_src) in incident {
                        let ety = st.schema.edge_type(elabel.as_str()).ok_or_else(|| {
                            Error::instance(format!("label `{elabel}` is undeclared"))
                        })?;
                        let ecol = if is_src { ety.keys.len() } else { ety.keys.len() + 1 };
                        patch_row(st, &mut pending, elabel.as_str(), &epk, ecol, value.clone())?;
                    }
                }
            }
            Mutation::SetEdgeProp { edge, key, value } => {
                let ekey = match edge {
                    EdgeRef::Key(k) => *k,
                    EdgeRef::New(i) => new_edge_keys[*i],
                };
                let id = *st
                    .edge_ids
                    .get(&ekey)
                    .ok_or_else(|| Error::instance(format!("lost edge {ekey}")))?;
                let label = st.graph.try_edge(id)?.label.clone();
                let ty = st
                    .schema
                    .edge_type(label.as_str())
                    .ok_or_else(|| Error::instance(format!("label `{label}` is undeclared")))?;
                let col = ty
                    .keys
                    .iter()
                    .position(|k| k == key)
                    .ok_or_else(|| Error::instance(format!("undeclared key `{key}`")))?;
                let pk_before = st.graph.try_edge(id)?.prop(ty.default_key().as_str());
                st.graph.set_edge_prop(id, key.clone(), value.clone())?;
                patch_row(st, &mut pending, label.as_str(), &pk_before, col, value.clone())?;
            }
        }
    }
    // Translate commit-local slot coordinates into pre-commit published
    // positions and extract one TableDelta per touched table.
    let mut deltas: BTreeMap<String, TableDelta> = BTreeMap::new();
    for (name, p) in pending {
        let Some(table) = st.tables.get(&name) else {
            return Err(Error::instance(format!("no induced table `{name}`")));
        };
        let mut out = TableDelta::new();
        if !(p.removed_slots.is_empty() && p.patches.is_empty()) {
            let removed_set: HashSet<usize> = p.removed_slots.iter().copied().collect();
            let mut pos = vec![u32::MAX; p.len_before];
            let mut next = 0u32;
            for (slot, entry) in pos.iter_mut().enumerate() {
                if !table.is_dead(slot) || removed_set.contains(&slot) {
                    *entry = next;
                    next += 1;
                }
            }
            out.removed = p.removed_slots.iter().map(|s| pos[*s]).collect();
            out.removed.sort_unstable();
            out.removed.dedup();
            out.patches =
                p.patches.iter().map(|(s, c, v)| (pos[*s] as usize, *c, v.clone())).collect();
        }
        out.appended = p
            .appended_slots
            .iter()
            .filter(|s| !table.is_dead(**s))
            .map(|s| table.row(*s).clone())
            .collect();
        if !out.is_empty() {
            deltas.insert(name, out);
        }
    }
    Ok(Applied { deltas, node_keys: new_node_keys, edge_keys: new_edge_keys })
}

fn resolve_applied_node(st: &StoreState, new_node_keys: &[NodeKey], r: &NodeRef) -> Result<NodeId> {
    let key = match r {
        NodeRef::Key(k) => *k,
        NodeRef::New(i) => *new_node_keys
            .get(*i)
            .ok_or_else(|| Error::instance(format!("unknown staged node #{i}")))?,
    };
    st.node_ids
        .get(&key)
        .copied()
        .ok_or_else(|| Error::instance(format!("unknown or removed node {key}")))
}

/// Appends a row to a table log and records the append.  The pending
/// entry is created (capturing `len_before`) **before** the log grows, so
/// pre-commit coordinates stay correct.
fn append_row(
    st: &mut StoreState,
    pending: &mut BTreeMap<String, Pending>,
    name: &str,
    row: Vec<Value>,
) -> Result<()> {
    touch(pending, &st.tables, name);
    let slot = st
        .tables
        .get_mut(name)
        .ok_or_else(|| Error::instance(format!("no induced table `{name}`")))?
        .append(row);
    // Infallible: `touch` above inserted the entry under this same borrow.
    pending.get_mut(name).expect("touched above").appended_slots.push(slot);
    Ok(())
}

/// Tombstones the row carrying `pk` and records the removal (or cancels
/// the append when the row was added by this very commit).
fn tombstone_row(
    st: &mut StoreState,
    pending: &mut BTreeMap<String, Pending>,
    name: &str,
    pk: &Value,
) -> Result<()> {
    let slot = st
        .tables
        .get_mut(name)
        .and_then(|t| t.tombstone(pk))
        .ok_or_else(|| Error::instance(format!("no row with key {pk} in `{name}`")))?;
    let p = touch(pending, &st.tables, name);
    if slot >= p.len_before {
        p.appended_slots.retain(|s| *s != slot);
    } else {
        p.removed_slots.push(slot);
    }
    Ok(())
}

/// Patches one cell of the row carrying `pk_before` and records the patch
/// when the row predates this commit (appended rows are read back from
/// the log at extraction time, so their patches need no record).
fn patch_row(
    st: &mut StoreState,
    pending: &mut BTreeMap<String, Pending>,
    name: &str,
    pk_before: &Value,
    col: usize,
    value: Value,
) -> Result<()> {
    let table = st
        .tables
        .get_mut(name)
        .ok_or_else(|| Error::instance(format!("no induced table `{name}`")))?;
    let slot = table
        .slot_of(pk_before)
        .ok_or_else(|| Error::instance(format!("no row with key {pk_before} in `{name}`")))?;
    table.patch(slot, col, value.clone());
    let p = touch(pending, &st.tables, name);
    if slot < p.len_before {
        p.patches.push((slot, col, value));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphiti_engine::{BatchQuery, BatchReport, SqlTarget};
    use graphiti_graph::{EdgeType, NodeType};

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

    /// Runs `batch` on the store's latest published generation.
    fn run_published(store: &GraphStore, batch: &[BatchQuery], workers: usize) -> BatchReport {
        let (_, snapshot) = store.published();
        store.engine().run_batch_on(&snapshot, batch, workers)
    }

    /// The incremental images must match a cold re-freeze of the master
    /// graph: equal columns, bag-equal rows, and identical row/columnar
    /// images.
    fn assert_matches_cold_freeze(store: &GraphStore) {
        let snap = store.snapshot();
        let cold = Snapshot::freeze(snap.schema().clone(), snap.graph().clone())
            .expect("master graph must stay schema-valid");
        for (name, cold_table) in cold.induced().tables() {
            let live = snap.induced().table(name).expect("table present");
            assert_eq!(live.columns, cold_table.columns, "columns of `{name}`");
            assert!(
                live.rows_bag_equal(cold_table),
                "rows of `{name}` diverge from cold freeze:\nincremental:\n{live}
cold:\n{cold_table}"
            );
            let columnar = snap
                .sql_columnar(&SqlTarget::Induced)
                .unwrap()
                .table(name)
                .expect("columnar present")
                .to_table();
            assert_eq!(columnar, *live, "columnar image of `{name}` diverges from row image");
        }
    }

    #[test]
    fn open_then_incremental_adds_are_visible_and_consistent() {
        let store = GraphStore::open(emp_schema(), emp_graph()).unwrap();
        assert_eq!(store.generation(), 0);
        let mut d = Delta::new();
        let zed = d.add_node("EMP", [("id", Value::Int(3)), ("name", Value::str("Zed"))]);
        let ee = store.node_key("DEPT", &Value::Int(2)).unwrap();
        d.add_edge("WORK_AT", zed, ee, [("wid", Value::Int(12))]);
        let info = store.commit(d).unwrap();
        assert_eq!(info.generation, 1);
        assert_eq!(info.node_keys.len(), 1);
        assert_eq!(info.edge_keys.len(), 1);
        let mut touched = info.touched_tables.clone();
        touched.sort();
        assert_eq!(touched, vec!["EMP".to_string(), "WORK_AT".to_string()]);
        assert_matches_cold_freeze(&store);
        let report = run_published(
            &store,
            &[BatchQuery::cypher(
                "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN m.dname AS d, Count(n) AS c",
            )],
            1,
        );
        let table = report.outcomes[0].result.as_ref().unwrap();
        assert_eq!(table.len(), 2, "CS and EE both have workers now");
    }

    #[test]
    fn readers_keep_their_generation_while_writers_commit() {
        let store = GraphStore::open(emp_schema(), emp_graph()).unwrap();
        let gen0 = store.snapshot();
        let mut d = Delta::new();
        d.add_node("EMP", [("id", Value::Int(3)), ("name", Value::str("C"))]);
        store.commit(d).unwrap();
        assert_eq!(gen0.graph().node_count(), 4, "pinned generation is immutable");
        assert_eq!(store.snapshot().graph().node_count(), 5);
        // Plans survive the generation change.
        let q = BatchQuery::sql("SELECT Count(*) AS c FROM EMP AS e");
        let first = store.engine().execute_on(&store.snapshot(), &q);
        assert_eq!(first.result.unwrap().rows[0][0], Value::Int(3));
        let mut d = Delta::new();
        d.add_node("EMP", [("id", Value::Int(4)), ("name", Value::str("D"))]);
        store.commit(d).unwrap();
        let warm = store.engine().execute_on(&store.snapshot(), &q);
        assert!(warm.cache_hit);
        assert_eq!(warm.result.unwrap().rows[0][0], Value::Int(4));
        // The displaced generation stays readable through the same plan.
        let pinned = store.engine().execute_on(&gen0, &q);
        assert!(pinned.cache_hit);
        assert_eq!(pinned.result.unwrap().rows[0][0], Value::Int(2));
    }

    #[test]
    fn rejected_deltas_change_nothing() {
        let store = GraphStore::open(emp_schema(), emp_graph()).unwrap();
        let gen_before = store.snapshot();
        let bad_deltas: Vec<Delta> = vec![
            // Duplicate default key.
            {
                let mut d = Delta::new();
                d.add_node("EMP", [("id", Value::Int(1)), ("name", Value::str("dup"))]);
                d
            },
            // Unknown label.
            {
                let mut d = Delta::new();
                d.add_node("GHOST", [("gid", Value::Int(1))]);
                d
            },
            // Undeclared property.
            {
                let mut d = Delta::new();
                d.add_node("EMP", [("id", Value::Int(9)), ("salary", Value::Int(5))]);
                d
            },
            // Missing default key.
            {
                let mut d = Delta::new();
                d.add_node("EMP", [("name", Value::str("NoId"))]);
                d
            },
            // Node removal while incident edges remain.
            {
                let mut d = Delta::new();
                let k = GraphStore::open(emp_schema(), emp_graph())
                    .unwrap()
                    .node_key("EMP", &Value::Int(1))
                    .unwrap();
                d.remove_node(k);
                d
            },
            // Default key set to NULL.
            {
                let mut d = Delta::new();
                let k = GraphStore::open(emp_schema(), emp_graph())
                    .unwrap()
                    .node_key("EMP", &Value::Int(1))
                    .unwrap();
                d.set_node_prop(k, "id", Value::Null);
                d
            },
            // Edge endpoints of the wrong type.
            {
                let mut d = Delta::new();
                let d1 = d.add_node("DEPT", [("dnum", Value::Int(7)), ("dname", Value::str("X"))]);
                let d2 = d.add_node("DEPT", [("dnum", Value::Int(8)), ("dname", Value::str("Y"))]);
                d.add_edge("WORK_AT", d1, d2, [("wid", Value::Int(99))]);
                d
            },
            // A valid prefix then one bad op: the whole delta must abort.
            {
                let mut d = Delta::new();
                d.add_node("EMP", [("id", Value::Int(50)), ("name", Value::str("ok"))]);
                d.add_node("EMP", [("id", Value::Int(50)), ("name", Value::str("dup"))]);
                d
            },
        ];
        for d in bad_deltas {
            assert!(store.commit(d).is_err());
        }
        assert_eq!(store.generation(), 0, "no rejected delta may publish");
        assert!(Arc::ptr_eq(&gen_before, &store.snapshot()));
        assert_eq!(store.stats().rejected_commits, 8);
        assert_matches_cold_freeze(&store);
        // The store still accepts valid work afterwards.
        let mut d = Delta::new();
        d.add_node("EMP", [("id", Value::Int(60)), ("name", Value::str("fine"))]);
        store.commit(d).unwrap();
        assert_matches_cold_freeze(&store);
    }

    #[test]
    fn default_key_change_rewrites_incident_edge_rows() {
        let store = GraphStore::open(emp_schema(), emp_graph()).unwrap();
        let ada = store.node_key("EMP", &Value::Int(1)).unwrap();
        let mut d = Delta::new();
        d.set_node_prop(ada, "id", Value::Int(100));
        store.commit(d).unwrap();
        assert_matches_cold_freeze(&store);
        // The transpiled join through SRC still finds the renamed node.
        let report = run_published(
            &store,
            &[BatchQuery::sql(
                "SELECT e.name FROM EMP AS e, WORK_AT AS w WHERE e.id = w.SRC AND e.id = 100",
            )],
            1,
        );
        let t = report.outcomes[0].result.as_ref().unwrap();
        assert_eq!(t.rows, vec![vec![Value::str("A")]]);
    }

    #[test]
    fn add_and_remove_in_one_delta_cancels_out() {
        let store = GraphStore::open(emp_schema(), emp_graph()).unwrap();
        let mut d = Delta::new();
        let n = d.add_node("EMP", [("id", Value::Int(77)), ("name", Value::str("tmp"))]);
        let dept = store.node_key("DEPT", &Value::Int(1)).unwrap();
        let e = d.add_edge("WORK_AT", n, dept, [("wid", Value::Int(77))]);
        d.remove_edge(e);
        d.remove_node(n);
        // The freed key is claimable again within the same delta.
        d.add_node("EMP", [("id", Value::Int(77)), ("name", Value::str("kept"))]);
        let info = store.commit(d).unwrap();
        assert_eq!(info.node_keys.len(), 2);
        assert_matches_cold_freeze(&store);
        let snap = store.snapshot();
        assert_eq!(snap.graph().node_count(), 5);
        assert_eq!(snap.graph().edge_count(), 2);
    }

    #[test]
    fn removals_tombstone_then_compact_without_changing_images() {
        let store = GraphStore::open(emp_schema(), GraphInstance::new()).unwrap();
        let mut d = Delta::new();
        for i in 0..100 {
            d.add_node("EMP", [("id", Value::Int(i)), ("name", Value::str("w"))]);
        }
        let info = store.commit(d).unwrap();
        let mut d = Delta::new();
        for key in info.node_keys.iter().take(80) {
            d.remove_node(*key);
        }
        store.commit(d).unwrap();
        let stats = store.stats();
        assert_eq!(stats.live_nodes, 20);
        assert!(stats.compactions >= 1, "80% tombstones must have compacted");
        assert_matches_cold_freeze(&store);
        // Force-compact whatever is left and re-verify.
        store.compact_now();
        assert_matches_cold_freeze(&store);
        let report =
            run_published(&store, &[BatchQuery::sql("SELECT Count(*) AS c FROM EMP AS e")], 1);
        assert_eq!(report.outcomes[0].result.as_ref().unwrap().rows[0][0], Value::Int(20));
    }

    #[test]
    fn concurrent_readers_see_consistent_generations() {
        let store = Arc::new(GraphStore::open(emp_schema(), emp_graph()).unwrap());
        let writer = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for i in 0..50 {
                    let mut d = Delta::new();
                    d.add_node("EMP", [("id", Value::Int(100 + i)), ("name", Value::str("w"))]);
                    store.commit(d).unwrap();
                }
            })
        };
        let batch = vec![
            BatchQuery::sql("SELECT Count(*) AS c FROM EMP AS e"),
            BatchQuery::cypher("MATCH (n:EMP) RETURN Count(*) AS c"),
        ];
        for _ in 0..100 {
            let report = run_published(&store, &batch, 2);
            assert_eq!(report.ok_count(), 2, "reads must never fail mid-write");
            // Both queries of a batch run on one pinned generation: they
            // must agree with each other exactly.
            let sql = &report.outcomes[0].result.as_ref().unwrap().rows[0][0];
            let cypher = &report.outcomes[1].result.as_ref().unwrap().rows[0][0];
            assert_eq!(sql, cypher, "batch saw a torn generation");
        }
        writer.join().unwrap();
        assert_eq!(store.generation(), 50);
        assert_matches_cold_freeze(&store);
    }

    #[test]
    fn a_default_key_can_cycle_through_several_elements_in_one_delta() {
        // remove/add/remove/add on one key: the "master's copy is freed"
        // fact must survive intermediate staged claims.
        let store = GraphStore::open(emp_schema(), emp_graph()).unwrap();
        let ada = store.node_key("EMP", &Value::Int(1)).unwrap();
        let mut d = Delta::new();
        let edges: Vec<EdgeKey> = store
            .edge_directory()
            .into_iter()
            .filter(|(_, _, _, src, _)| *src == ada)
            .map(|(k, ..)| k)
            .collect();
        for e in edges {
            d.remove_edge(e);
        }
        d.remove_node(ada);
        let a = d.add_node("EMP", [("id", Value::Int(1)), ("name", Value::str("first"))]);
        d.remove_node(a);
        d.add_node("EMP", [("id", Value::Int(1)), ("name", Value::str("second"))]);
        store.commit(d).expect("a net-valid key cycle must commit");
        assert_matches_cold_freeze(&store);
        let snap = store.snapshot();
        let emp = snap.induced().table("EMP").unwrap();
        assert!(emp.rows.contains(&vec![Value::Int(1), Value::str("second")]));
        // And the value is still guarded: claiming it again must fail.
        let mut d = Delta::new();
        d.add_node("EMP", [("id", Value::Int(1)), ("name", Value::str("dup"))]);
        assert!(store.commit(d).is_err());
    }

    #[test]
    fn published_reads_do_not_wait_on_the_state_lock() {
        let store = GraphStore::open(emp_schema(), emp_graph()).unwrap();
        let mut d = Delta::new();
        d.add_node("EMP", [("id", Value::Int(3)), ("name", Value::str("C"))]);
        let info = store.commit(d).unwrap();
        // A commit holds this lock across validation, WAL append and
        // fsync; a reader pinning a generation must not queue behind it.
        let state = store.state.lock().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _ = tx.send(store.published());
            });
            let read = rx.recv_timeout(std::time::Duration::from_secs(10));
            drop(state);
            let (generation, snapshot) = read.expect("published() blocked on the state lock");
            assert_eq!(generation, 1);
            assert!(Arc::ptr_eq(&snapshot, &info.snapshot));
        });
    }

    #[test]
    fn empty_deltas_publish_nothing() {
        let store = GraphStore::open(emp_schema(), emp_graph()).unwrap();
        let before = store.snapshot();
        let info = store.commit(Delta::new()).unwrap();
        assert_eq!(info.generation, 0);
        assert!(Arc::ptr_eq(&before, &store.snapshot()));
    }

    #[test]
    fn extra_instances_are_shared_across_generations() {
        let mut extra = RelInstance::new();
        extra.insert_table(
            "side",
            graphiti_relational::Table::with_rows(["x"], vec![vec![Value::Int(7)]]),
        );
        let store =
            GraphStore::open_with(emp_schema(), emp_graph(), [("aux".to_string(), extra)]).unwrap();
        let mut d = Delta::new();
        d.add_node("EMP", [("id", Value::Int(9)), ("name", Value::str("N"))]);
        store.commit(d).unwrap();
        let q = BatchQuery::sql_on("aux", "SELECT side.x FROM side");
        let out = store.engine().execute_on(&store.snapshot(), &q);
        assert_eq!(out.result.unwrap().rows, vec![vec![Value::Int(7)]]);
        // The maps really are shared, not copied, across generations.
        let (extra0, _) = store.snapshot().extra_parts();
        let mut d = Delta::new();
        d.add_node("EMP", [("id", Value::Int(10)), ("name", Value::str("M"))]);
        store.commit(d).unwrap();
        let (extra1, _) = store.snapshot().extra_parts();
        assert!(Arc::ptr_eq(&extra0, &extra1));
    }

    // ------------------------------------------------------- durability

    /// A unique scratch directory under the workspace `target/` dir
    /// (tests must not touch paths outside the repository).
    fn scratch(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/store-durability-tests")
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

    /// A deterministic mutation script over `emp_graph()`.  Stable keys
    /// are assigned deterministically (emp_graph: nodes 0..=3, edges
    /// 4..=5, next_key 6), so the same deltas replay identically on any
    /// store opened over the same bootstrap graph.
    fn scripted_deltas() -> Vec<Delta> {
        let mut out = Vec::new();
        let mut d = Delta::new();
        let c = d.add_node("EMP", [("id", Value::Int(3)), ("name", Value::str("C"))]);
        d.add_edge("WORK_AT", c, NodeKey(3), [("wid", Value::Int(12))]);
        out.push(d); // new node key 6, new edge key 7
        let mut d = Delta::new();
        d.set_node_prop(NodeKey(0), "name", Value::str("A2"));
        d.add_node("EMP", [("id", Value::Int(4)), ("name", Value::str("D"))]);
        out.push(d); // new node key 8
        let mut d = Delta::new();
        d.remove_edge(EdgeKey(5));
        d.set_edge_prop(EdgeKey(4), "wid", Value::Int(100));
        out.push(d);
        let mut d = Delta::new();
        d.remove_edge(EdgeKey(7));
        d.remove_node(NodeKey(6));
        d.add_node("DEPT", [("dnum", Value::Int(3)), ("dname", Value::str("ME"))]);
        out.push(d); // new node key 9
        let mut d = Delta::new();
        d.set_node_prop(NodeKey(1), "id", Value::Int(20)); // pk change: edge rows rewrite
        out.push(d);
        out
    }

    /// An in-memory oracle: the same bootstrap graph with the first `n`
    /// scripted deltas committed.
    fn oracle_after(n: usize) -> GraphStore {
        let store = GraphStore::open(emp_schema(), emp_graph()).unwrap();
        for d in scripted_deltas().into_iter().take(n) {
            store.commit(d).unwrap();
        }
        store
    }

    /// Recovered state must be *exactly* the oracle's: same generation,
    /// identical published images in both layouts (row order included —
    /// log order survives recovery), and query-equivalent through the
    /// engine.
    fn assert_stores_equal(recovered: &GraphStore, oracle: &GraphStore) {
        assert_eq!(recovered.generation(), oracle.generation(), "generation");
        let (a, b) = (recovered.snapshot(), oracle.snapshot());
        let mut names_a: Vec<&String> = a.induced().tables().map(|(n, _)| n).collect();
        let mut names_b: Vec<&String> = b.induced().tables().map(|(n, _)| n).collect();
        names_a.sort();
        names_b.sort();
        assert_eq!(names_a, names_b, "induced table sets");
        for (name, ta) in a.induced().tables() {
            let tb = b.induced().table(name).unwrap();
            assert_eq!(ta, tb, "row image of `{name}` (log order must survive recovery)");
            let ca = a.sql_columnar(&SqlTarget::Induced).unwrap().table(name).unwrap().to_table();
            assert_eq!(ca, *tb, "columnar image of `{name}`");
        }
        let queries = [
            BatchQuery::sql("SELECT e.id, e.name FROM EMP AS e"),
            BatchQuery::sql("SELECT Count(*) AS c FROM WORK_AT AS w"),
            BatchQuery::cypher(
                "MATCH (n:EMP)-[e:WORK_AT]->(m:DEPT) RETURN n.id AS i, m.dname AS d",
            ),
            BatchQuery::cypher("MATCH (n:DEPT) RETURN Count(*) AS c"),
        ];
        let ra = run_published(recovered, &queries, 2);
        let rb = run_published(oracle, &queries, 2);
        for (qa, qb) in ra.outcomes.iter().zip(rb.outcomes.iter()) {
            let (ta, tb) = (qa.result.as_ref().unwrap(), qb.result.as_ref().unwrap());
            assert_eq!(ta.columns, tb.columns);
            assert!(
                ta.rows_bag_equal(tb),
                "query results diverge:\n{ta}
vs\n{tb}"
            );
        }
        assert_matches_cold_freeze(recovered);
    }

    /// A durable store over `emp_schema()` rooted at `dir`: a fresh
    /// directory bootstraps with `emp_graph()`, an existing one recovers.
    fn durable(dir: &Path, options: DurabilityOptions) -> StoreBuilder {
        GraphStore::builder(emp_schema()).durable(dir).bootstrap(emp_graph()).durability(options)
    }

    fn durable_opts(fsync: bool, interval: u64) -> DurabilityOptions {
        DurabilityOptions {
            fsync_each_commit: fsync,
            checkpoint_interval: interval,
            keep_checkpoints: 2,
            // No retries: fault-injection tests want the first injected
            // failure to surface rather than be retried away.
            wal_retry_attempts: 0,
            wal_retry_backoff_ms: 0,
        }
    }

    #[test]
    fn durable_store_recovers_after_reopen() {
        let dir = scratch("reopen");
        {
            let store = durable(&dir, durable_opts(true, 0)).open().unwrap();
            for d in scripted_deltas() {
                store.commit(d).unwrap();
            }
            let stats = store.stats();
            assert_eq!(stats.wal_records, 5);
            assert!(stats.wal_bytes > 0);
        }
        let recovered = durable(&dir, durable_opts(true, 0)).open().unwrap();
        assert_eq!(recovered.stats().replayed_commits, 5);
        assert_stores_equal(&recovered, &oracle_after(5));
        // The recovered store keeps accepting (and logging) commits.
        let mut d = Delta::new();
        d.add_node("EMP", [("id", Value::Int(500)), ("name", Value::str("post"))]);
        recovered.commit(d).unwrap();
        assert_eq!(recovered.generation(), 6);
        assert_matches_cold_freeze(&recovered);
    }

    #[test]
    fn checkpoints_bound_replay_and_vacuum_segments() {
        let dir = scratch("ckpt");
        {
            let store = durable(&dir, durable_opts(false, 2)).open().unwrap();
            for d in scripted_deltas() {
                store.commit(d).unwrap();
            }
            let stats = store.stats();
            assert!(stats.checkpoints >= 2, "interval 2 over 5 commits checkpoints twice");
            assert_eq!(stats.checkpoint_failures, 0);
            assert_eq!(stats.last_checkpoint_generation, 4);
            assert!(stats.wal_segments_removed >= 1, "covered segments are vacuumed");
        }
        assert!(checkpoint_files(&dir).unwrap().len() <= 2, "retention keeps 2 checkpoints");
        let recovered = durable(&dir, durable_opts(false, 2)).open().unwrap();
        assert_eq!(recovered.stats().replayed_commits, 1, "replay only past generation 4");
        assert_stores_equal(&recovered, &oracle_after(5));
    }

    #[test]
    fn checkpoint_now_rotates_and_later_crash_recovers_without_replay() {
        let dir = scratch("manual-ckpt");
        {
            let store = durable(&dir, durable_opts(true, 0)).open().unwrap();
            for d in scripted_deltas() {
                store.commit(d).unwrap();
            }
            assert_eq!(store.checkpoint_now().unwrap(), 5);
        }
        let recovered = durable(&dir, DurabilityOptions::default()).open().unwrap();
        assert_eq!(recovered.stats().replayed_commits, 0, "checkpoint covers everything");
        assert_stores_equal(&recovered, &oracle_after(5));
    }

    #[test]
    fn rejected_deltas_write_no_wal_record_and_recovery_is_pre_delta() {
        let dir = scratch("reject");
        let store = durable(&dir, durable_opts(true, 0)).open().unwrap();
        let mut good = Delta::new();
        good.add_node("EMP", [("id", Value::Int(10)), ("name", Value::str("ok"))]);
        store.commit(good).unwrap();
        let wal_file = wal_segment_files(&dir).unwrap().pop().unwrap();
        let bytes_before = std::fs::metadata(&wal_file).unwrap().len();
        // A duplicate default key: validated and rejected before the WAL
        // is touched.
        let mut bad = Delta::new();
        bad.add_node("EMP", [("id", Value::Int(10)), ("name", Value::str("dup"))]);
        assert!(store.commit(bad).is_err());
        assert_eq!(
            std::fs::metadata(&wal_file).unwrap().len(),
            bytes_before,
            "a rejected delta must write no WAL record"
        );
        assert_eq!(store.stats().wal_records, 1);
        // Crash (drop without checkpoint) and recover: the rejected
        // delta must have left no trace on disk either.
        drop(store);
        let recovered = durable(&dir, DurabilityOptions::default()).open().unwrap();
        assert_eq!(recovered.generation(), 1);
        assert_eq!(recovered.stats().rejected_commits, 0, "rejection predates the checkpoint era");
        let emp = recovered.snapshot().induced().table("EMP").unwrap().clone();
        assert!(emp.rows.contains(&vec![Value::Int(10), Value::str("ok")]));
        assert_eq!(emp.rows.iter().filter(|r| r[0] == Value::Int(10)).count(), 1);
        assert_matches_cold_freeze(&recovered);
    }

    #[test]
    fn torn_tail_recovers_at_every_byte_offset_of_the_final_record() {
        let dir = scratch("torn");
        {
            let store = durable(&dir, durable_opts(true, 0)).open().unwrap();
            for d in scripted_deltas().into_iter().take(2) {
                store.commit(d).unwrap();
            }
        }
        let wal_file = wal_segment_files(&dir).unwrap().pop().unwrap();
        let full = std::fs::metadata(&wal_file).unwrap().len();
        let first_len = {
            let bytes = std::fs::read(&wal_file).unwrap();
            8 + u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as u64
        };
        let oracle1 = oracle_after(1);
        let oracle2 = oracle_after(2);
        for cut in first_len..=full {
            let cut_dir = scratch("torn-cut");
            copy_dir(&dir, &cut_dir);
            let f = std::fs::OpenOptions::new()
                .write(true)
                .open(wal_segment_files(&cut_dir).unwrap().pop().unwrap())
                .unwrap();
            f.set_len(cut).unwrap();
            drop(f);
            let recovered = durable(&cut_dir, DurabilityOptions::default()).open().unwrap();
            if cut == full {
                assert_stores_equal(&recovered, &oracle2);
            } else {
                // Any byte missing from the final record rolls back to
                // the previous commit: no panic, no partial generation.
                assert_stores_equal(&recovered, &oracle1);
                // The tear was truncated away, so the next commit
                // appends cleanly and a further recovery still works.
                let mut d = Delta::new();
                d.add_node("EMP", [("id", Value::Int(900)), ("name", Value::str("again"))]);
                recovered.commit(d).unwrap();
                assert_eq!(recovered.generation(), 2);
            }
            std::fs::remove_dir_all(&cut_dir).ok();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_corrupt_newest_checkpoint_with_vacuumed_wal_refuses_to_lose_commits() {
        let dir = scratch("fallback-refuse");
        {
            let store = durable(&dir, durable_opts(true, 0)).open().unwrap();
            store.commit(scripted_deltas().remove(0)).unwrap();
            store.checkpoint_now().unwrap();
        }
        // Corrupt the newest checkpoint (generation 1).  Generation 0's
        // bootstrap checkpoint remains, but the WAL segment holding
        // commit 1 was vacuumed: recovery from the older checkpoint can
        // never reach the acknowledged generation 1, so it must refuse
        // with a typed error rather than silently serve generation 0.
        let newest = checkpoint_files(&dir).unwrap().pop().unwrap();
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&newest, &bytes).unwrap();
        let err = durable(&dir, DurabilityOptions::default()).open().unwrap_err();
        match err {
            StoreError::Corrupt { file, detail } => {
                assert_eq!(file, newest, "the error names the unloadable checkpoint");
                assert!(detail.contains("refusing"), "unexpected detail: {detail}");
            }
            other => panic!("expected Corrupt, got: {other}"),
        }
    }

    #[test]
    fn a_corrupt_newest_checkpoint_falls_back_when_the_wal_bridges_the_gap() {
        let dir = scratch("fallback-bridge");
        let wal_before;
        {
            let store = durable(&dir, durable_opts(true, 0)).open().unwrap();
            store.commit(scripted_deltas().remove(0)).unwrap();
            // Keep a copy of the segment holding commit 1; checkpointing
            // vacuums it.
            let seg = wal_segment_files(&dir).unwrap().remove(0);
            wal_before = (seg.clone(), std::fs::read(&seg).unwrap());
            store.checkpoint_now().unwrap();
        }
        // Simulate a crash between checkpoint write and vacuum: restore
        // the covered segment, then corrupt the newest checkpoint.
        std::fs::write(&wal_before.0, &wal_before.1).unwrap();
        let newest = checkpoint_files(&dir).unwrap().pop().unwrap();
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&newest, &bytes).unwrap();
        // Fallback to the bootstrap checkpoint is sound here: the
        // surviving segment replays commit 1, reaching the acknowledged
        // generation exactly.
        let recovered = durable(&dir, DurabilityOptions::default()).open().unwrap();
        assert_eq!(recovered.generation(), 1);
        assert_eq!(recovered.stats().replayed_commits, 1);
        assert_stores_equal(&recovered, &oracle_after(1));
    }

    #[test]
    fn durable_bootstrap_checkpoints_generation_zero() {
        let dir = scratch("bootstrap");
        {
            let _store = durable(&dir, durable_opts(true, 0)).open().unwrap();
            // No commits at all: the opening state alone must be durable.
        }
        let recovered = durable(&dir, DurabilityOptions::default()).open().unwrap();
        assert_eq!(recovered.generation(), 0);
        assert_stores_equal(&recovered, &oracle_after(0));
    }

    // ------------------------------------------------ fault injection

    fn open_faulted(dir: &Path, vfs: &FaultVfs) -> GraphStore {
        durable(dir, durable_opts(true, 0)).vfs(Arc::new(vfs.clone())).open().unwrap()
    }

    #[test]
    fn a_failed_wal_write_aborts_the_commit_side_effect_free() {
        let dir = scratch("write-fail");
        let vfs = FaultVfs::default();
        let store = open_faulted(&dir, &vfs);
        store.commit(scripted_deltas().remove(0)).unwrap();
        let (gen_before, snap_before) = store.published();
        vfs.fail_nth(vfs.ops() + 1); // the WAL append's write_at
        let mut d = Delta::new();
        d.add_node("EMP", [("id", Value::Int(77)), ("name", Value::str("no"))]);
        let err = store.commit(d.clone()).unwrap_err();
        assert!(err.is_io(), "a rolled-back write failure is a live Io error: {err}");
        assert!(!store.is_fenced());
        let (generation, snapshot) = store.published();
        assert_eq!(generation, gen_before);
        assert!(Arc::ptr_eq(&snap_before, &snapshot), "no generation published");
        assert_eq!(store.stats().wal_append_failures, 1);
        // The store stays live: the very same delta commits cleanly now.
        store.commit(d).unwrap();
        assert_eq!(store.generation(), gen_before + 1);
        drop(store);
        let recovered = durable(&dir, DurabilityOptions::default()).open().unwrap();
        assert_eq!(recovered.generation(), gen_before + 1);
        assert_matches_cold_freeze(&recovered);
    }

    #[test]
    fn transient_write_failures_are_retried_away() {
        let dir = scratch("retry");
        let vfs = FaultVfs::default();
        let options = DurabilityOptions {
            wal_retry_attempts: 2,
            wal_retry_backoff_ms: 0,
            ..durable_opts(true, 0)
        };
        let store = durable(&dir, options).vfs(Arc::new(vfs.clone())).open().unwrap();
        vfs.fail_nth(vfs.ops() + 1); // one transient write failure
        store.commit(scripted_deltas().remove(0)).unwrap();
        let stats = store.stats();
        assert_eq!(stats.wal_retries, 1, "the failed write was retried");
        assert_eq!(stats.wal_append_failures, 0);
        assert!(!store.is_fenced());
        assert_eq!(store.generation(), 1);
    }

    #[test]
    fn a_failed_fsync_fences_the_store_and_checkpoint_now_recovers_it() {
        let dir = scratch("fence");
        let vfs = FaultVfs::default();
        let store = open_faulted(&dir, &vfs);
        store.commit(scripted_deltas().remove(0)).unwrap();
        let (_, snap) = store.published();
        let wal_file = wal_segment_files(&dir).unwrap().pop().unwrap();
        let wal_before = std::fs::metadata(&wal_file).unwrap().len();
        // The disk "loses" fsync, and truncation with it, but writes and
        // reads still work: the fsyncgate shape, with the rollback unable
        // to erase the record.
        vfs.fail_from(vfs.ops() + 1);
        vfs.exempt(&[OpClass::Read, OpClass::Write, OpClass::Meta]);
        let mut d = Delta::new();
        d.add_node("EMP", [("id", Value::Int(88)), ("name", Value::str("doomed"))]);
        let err = store.commit(d).unwrap_err();
        assert!(err.is_fenced(), "an fsync failure must fence: {err}");
        assert!(store.is_fenced());
        assert!(store.fence_reason().unwrap().contains("injected fault"));
        // The redo rule: the record was appended before the fsync that
        // publication waits on, so the segment grew although nothing
        // published.
        assert!(std::fs::metadata(&wal_file).unwrap().len() > wal_before);
        // Readers keep serving the last published generation.
        let (generation, snapshot) = store.published();
        assert_eq!(generation, 1);
        assert!(Arc::ptr_eq(&snap, &snapshot));
        // Further commits are refused (and counted), not attempted.
        let mut d2 = Delta::new();
        d2.add_node("EMP", [("id", Value::Int(89)), ("name", Value::str("later"))]);
        assert!(store.commit(d2.clone()).unwrap_err().is_fenced());
        let stats = store.stats();
        assert!(stats.fenced);
        assert_eq!(stats.fence_events, 1);
        assert_eq!(stats.fenced_commits, 1);
        // The disk heals: checkpoint_now re-captures the full state on
        // fresh files, vacuums the segment holding the record of unknown
        // durability (recovery would otherwise replay it as generation
        // 2), and lifts the fence.
        vfs.clear();
        assert_eq!(store.checkpoint_now().unwrap(), 1);
        assert!(!store.is_fenced());
        store.commit(d2).unwrap();
        assert_eq!(store.generation(), 2);
        drop(store);
        let recovered = durable(&dir, DurabilityOptions::default()).open().unwrap();
        assert_eq!(recovered.generation(), 2);
        assert_matches_cold_freeze(&recovered);
    }

    #[test]
    fn a_failed_fsync_fences_a_batch_of_three_without_publishing() {
        let dir = scratch("batch-fence");
        let vfs = FaultVfs::default();
        let store = open_faulted(&dir, &vfs);
        store.commit(scripted_deltas().remove(0)).unwrap();
        let (_, snap) = store.published();
        vfs.fail_from(vfs.ops() + 1);
        vfs.exempt(&[OpClass::Read, OpClass::Write, OpClass::SetLen, OpClass::Meta]);
        let batch: Vec<CommitRequest> = (91..94)
            .map(|id| {
                let mut d = Delta::new();
                d.add_node("EMP", [("id", Value::Int(id)), ("name", Value::str("doomed"))]);
                d.into()
            })
            .collect();
        for result in store.commit_batch(batch) {
            assert!(result.unwrap_err().is_fenced(), "every member of the batch is fenced");
        }
        let (generation, snapshot) = store.published();
        assert_eq!(generation, 1, "the generation moves only at publication");
        assert!(Arc::ptr_eq(&snap, &snapshot));
        assert_eq!(store.stats().fenced_commits, 0, "a batch's own fence refuses nothing");
        // Two members were applied in memory before the fsync, so the
        // fence holds even on a healed disk: only a reopen recovers.
        vfs.clear();
        assert!(store.checkpoint_now().unwrap_err().is_fenced());
        drop(store);
        let recovered = durable(&dir, DurabilityOptions::default()).open().unwrap();
        assert_eq!(recovered.generation(), 1, "the batch's records were truncated");
        assert_matches_cold_freeze(&recovered);
    }

    #[test]
    fn checkpoint_now_is_atomic_under_a_fault_at_every_step() {
        // Probe run: count the I/O operations one checkpoint_now performs.
        let probe = scratch("ckpt-fault-probe");
        let vfs = FaultVfs::default();
        let store = open_faulted(&probe, &vfs);
        for d in scripted_deltas().into_iter().take(2) {
            store.commit(d).unwrap();
        }
        let before = vfs.ops();
        store.checkpoint_now().unwrap();
        let span = vfs.ops() - before;
        drop(store);
        std::fs::remove_dir_all(&probe).ok();
        assert!(span >= 5, "tmp write, syncs, rename, listings: got {span}");
        // Sweep: fail each of those operations in turn on a fresh store.
        for k in 1..=span {
            let dir = scratch(&format!("ckpt-fault-{k}"));
            let vfs = FaultVfs::default();
            let store = open_faulted(&dir, &vfs);
            for d in scripted_deltas().into_iter().take(2) {
                store.commit(d).unwrap();
            }
            vfs.fail_nth(vfs.ops() + k);
            match store.checkpoint_now() {
                // The fault hit a best-effort tail step (vacuum, dir sync).
                Ok(g) => assert_eq!(g, 2),
                Err(e) => {
                    assert!(e.is_io(), "checkpoint faults surface as Io, got: {e}");
                    assert!(!store.is_fenced(), "a failed checkpoint must not fence");
                }
            }
            vfs.clear();
            // Retry succeeds and sweeps any stray tmp file.
            assert_eq!(store.checkpoint_now().unwrap(), 2);
            let tmps = std::fs::read_dir(&dir)
                .unwrap()
                .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().ends_with(".tmp"))
                .count();
            assert_eq!(tmps, 0, "tmp files are swept by the next checkpoint");
            drop(store);
            // Whatever step failed, recovery lands on the committed state.
            let recovered = durable(&dir, DurabilityOptions::default()).open().unwrap();
            assert_eq!(recovered.generation(), 2);
            assert_stores_equal(&recovered, &oracle_after(2));
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn corrupt_wal_head_without_a_checkpoint_is_a_typed_error() {
        let dir = scratch("corrupt-head");
        {
            let store = durable(&dir, durable_opts(true, 0)).open().unwrap();
            store.commit(scripted_deltas().remove(0)).unwrap();
        }
        for p in checkpoint_files(&dir).unwrap() {
            std::fs::remove_file(p).unwrap();
        }
        let wal_file = wal_segment_files(&dir).unwrap().remove(0);
        let mut bytes = std::fs::read(&wal_file).unwrap();
        bytes[4] ^= 0xFF; // break the head record's checksum
        std::fs::write(&wal_file, &bytes).unwrap();
        let err = durable(&dir, DurabilityOptions::default()).open().unwrap_err();
        match err {
            StoreError::Corrupt { file, detail } => {
                assert_eq!(file, wal_file, "the error names the offending file");
                assert!(detail.contains("WAL head"), "unexpected detail: {detail}");
            }
            other => panic!("expected Corrupt, got: {other}"),
        }
    }

    #[test]
    fn no_valid_checkpoint_and_no_wal_records_is_a_typed_error() {
        let dir = scratch("all-corrupt");
        {
            let _store = durable(&dir, durable_opts(true, 0)).open().unwrap();
        }
        let ckpt = checkpoint_files(&dir).unwrap().pop().unwrap();
        let mut bytes = std::fs::read(&ckpt).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&ckpt, &bytes).unwrap();
        // The WAL segment exists but is empty: nothing can rebuild the
        // bootstrap graph, and starting empty would silently drop it.
        let err = durable(&dir, DurabilityOptions::default()).open().unwrap_err();
        match err {
            StoreError::Corrupt { file, .. } => assert_eq!(file, ckpt),
            other => panic!("expected Corrupt, got: {other}"),
        }
    }

    #[test]
    fn recovery_without_a_checkpoint_rejects_a_gapped_wal() {
        let dir = scratch("gap");
        {
            let store = durable(&dir, durable_opts(true, 0)).open().unwrap();
            for d in scripted_deltas().into_iter().take(2) {
                store.commit(d).unwrap();
            }
            store.checkpoint_now().unwrap(); // rotates: the log now starts at 3
            store.commit(scripted_deltas().remove(2)).unwrap();
        }
        for p in checkpoint_files(&dir).unwrap() {
            std::fs::remove_file(p).unwrap();
        }
        let err = durable(&dir, DurabilityOptions::default()).open().unwrap_err();
        match err {
            StoreError::Corrupt { detail, .. } => {
                assert!(detail.contains("gap"), "unexpected detail: {detail}");
            }
            other => panic!("expected Corrupt, got: {other}"),
        }
    }

    // ------------------------------------------- copy-on-write publication

    #[test]
    fn pinned_generations_share_every_node_no_commit_touched() {
        let store = GraphStore::open(emp_schema(), emp_graph()).unwrap();
        let mut pinned = vec![store.snapshot()];
        // 70 additions grow the node arena across three 32-slot chunks,
        // with every generation pinned.
        for i in 0..70 {
            let mut d = Delta::new();
            d.add_node("EMP", [("id", Value::Int(100 + i)), ("name", Value::str("w"))]);
            store.commit(d).unwrap();
            pinned.push(store.snapshot());
        }
        let count = BatchQuery::cypher("MATCH (n:EMP) RETURN Count(n)");
        for (generation, snap) in pinned.iter().enumerate() {
            let table = store.engine().execute_on(snap, &count).result.unwrap();
            assert_eq!(
                table.rows[0][0],
                Value::Int(2 + generation as i64),
                "generation {generation}"
            );
        }
        let (oldest, newest) = (pinned[0].graph(), pinned[70].graph());
        assert!(
            std::ptr::eq(oldest.node(NodeId(0)), newest.node(NodeId(0))),
            "an untouched node was copied by publication"
        );
        // Regression (interned `Ident`): a label a commit wrote is the
        // same allocation as the bootstrap graph's, not a copied string.
        let added = newest.node(NodeId(newest.node_count() - 1));
        assert!(
            Arc::ptr_eq(oldest.node(NodeId(0)).label.as_arc(), added.label.as_arc()),
            "a committed label deep-copied its identifier string"
        );
    }

    #[test]
    fn directories_and_key_lookup_track_mutations() {
        let store = GraphStore::open(emp_schema(), emp_graph()).unwrap();
        assert_eq!(store.node_directory().len(), 4);
        assert_eq!(store.edge_directory().len(), 2);
        let ada = store.node_key("EMP", &Value::Int(1)).unwrap();
        let mut d = Delta::new();
        let edges: Vec<EdgeKey> = store
            .edge_directory()
            .into_iter()
            .filter(|(_, _, _, src, _)| *src == ada)
            .map(|(k, ..)| k)
            .collect();
        for e in edges {
            d.remove_edge(e);
        }
        d.remove_node(ada);
        store.commit(d).unwrap();
        assert!(store.node_key("EMP", &Value::Int(1)).is_none());
        assert_eq!(store.node_directory().len(), 3);
        assert_matches_cold_freeze(&store);
    }

    // ----------------------------------------------------- idempotency

    fn tagged(delta: Delta, token: u128) -> CommitRequest {
        CommitRequest { delta, token: Some(token), trace: 0 }
    }

    #[test]
    fn tagged_commit_replays_instead_of_reapplying() {
        let store = GraphStore::open(emp_schema(), emp_graph()).unwrap();
        let token = 0xABCD_u128;
        let mut d = Delta::new();
        d.add_node("EMP", [("id", Value::Int(3)), ("name", Value::str("C"))]);
        let first = store.commit(tagged(d.clone(), token)).unwrap();
        assert_eq!(first.generation, 1);
        // The retry would be Rejected (duplicate id 3) if it re-applied;
        // the dedup table answers it with the original generation.
        let replay = store.commit(tagged(d.clone(), token)).unwrap();
        assert_eq!(replay.generation, 1);
        assert!(replay.node_keys.is_empty(), "nothing new is assigned on replay");
        assert_eq!(store.stats().commits, 1, "exactly one commit happened");
        assert_eq!(store.stats().idempotent_replays, 1);
        // A different token is a different logical commit: it runs the
        // full path and (here) rejects on the duplicate key.
        assert!(matches!(store.commit(tagged(d, token + 1)), Err(StoreError::Rejected(_))));
        assert_eq!(store.stats().rejected_commits, 1);
        assert_matches_cold_freeze(&store);
    }

    #[test]
    fn rejected_tagged_commits_leave_no_dedup_entry() {
        let store = GraphStore::open(emp_schema(), emp_graph()).unwrap();
        let token = 7_u128;
        let mut dup = Delta::new();
        dup.add_node("EMP", [("id", Value::Int(1)), ("name", Value::str("dup"))]);
        assert!(matches!(store.commit(tagged(dup, token)), Err(StoreError::Rejected(_))));
        // The same token with a *valid* delta must commit for real — a
        // failed attempt records nothing.
        let mut ok = Delta::new();
        ok.add_node("EMP", [("id", Value::Int(3)), ("name", Value::str("C"))]);
        let info = store.commit(tagged(ok, token)).unwrap();
        assert_eq!(info.generation, 1);
        assert_eq!(store.stats().idempotent_replays, 0);
    }

    #[test]
    fn group_commit_dedupes_tagged_members() {
        let store = GraphStore::open(emp_schema(), emp_graph()).unwrap();
        let mut a = Delta::new();
        a.add_node("EMP", [("id", Value::Int(3)), ("name", Value::str("C"))]);
        let mut b = Delta::new();
        b.add_node("EMP", [("id", Value::Int(4)), ("name", Value::str("D"))]);
        let r = store.commit_batch(vec![tagged(a.clone(), 1), tagged(b, 2)]);
        assert_eq!(r[0].as_ref().unwrap().generation, 1);
        assert_eq!(r[1].as_ref().unwrap().generation, 2);
        // Retry member 1 inside a later group alongside a fresh member.
        let mut c = Delta::new();
        c.add_node("EMP", [("id", Value::Int(5)), ("name", Value::str("E"))]);
        let r = store.commit_batch(vec![tagged(a, 1), tagged(c, 3)]);
        assert_eq!(r[0].as_ref().unwrap().generation, 1, "replayed, not re-applied");
        assert_eq!(r[1].as_ref().unwrap().generation, 3, "fresh member gets the next generation");
        assert_eq!(store.stats().commits, 3);
        assert_eq!(store.stats().idempotent_replays, 1);
        assert_matches_cold_freeze(&store);
    }

    #[test]
    fn a_token_repeated_within_one_batch_replays_its_first_occurrence() {
        let store = GraphStore::open(emp_schema(), emp_graph()).unwrap();
        let mut a = Delta::new();
        a.add_node("EMP", [("id", Value::Int(3)), ("name", Value::str("C"))]);
        // A retry that queued behind its still-queued original drains
        // into the same batch.
        let r = store.commit_batch(vec![tagged(a.clone(), 9), tagged(a, 9)]);
        assert_eq!(r[0].as_ref().unwrap().generation, 1);
        assert_eq!(r[1].as_ref().unwrap().generation, 1, "replayed, not re-applied");
        assert_eq!(store.stats().commits, 1);
        assert_eq!(store.stats().idempotent_replays, 1);
        assert_matches_cold_freeze(&store);
    }

    #[test]
    fn a_tokened_empty_delta_acks_the_generation_its_retry_returns() {
        let store = GraphStore::open(emp_schema(), emp_graph()).unwrap();
        let (mut a, mut b) = (Delta::new(), Delta::new());
        a.add_node("EMP", [("id", Value::Int(3)), ("name", Value::str("C"))]);
        b.add_node("EMP", [("id", Value::Int(4)), ("name", Value::str("D"))]);
        let r = store.commit_batch(vec![a.into(), tagged(Delta::new(), 77), b.into()]);
        let ack = r[1].as_ref().unwrap();
        assert_eq!(ack.generation, 1, "the generation current at its position");
        assert_eq!(ack.published_generation, 2);
        let retry = store.commit(tagged(Delta::new(), 77)).unwrap();
        assert_eq!(retry.generation, ack.generation);
    }

    #[test]
    fn idempotency_survives_crash_recovery_via_wal_and_checkpoint() {
        let dir = scratch("idem");
        let token = 0x1234_5678_u128;
        {
            let store = GraphStore::builder(emp_schema())
                .bootstrap(emp_graph())
                .durable(&dir)
                .open()
                .unwrap();
            let mut d = Delta::new();
            d.add_node("EMP", [("id", Value::Int(3)), ("name", Value::str("C"))]);
            assert_eq!(store.commit(tagged(d, token)).unwrap().generation, 1);
        }
        // Recovery replays the WAL record, token included: the dedup
        // table repopulates and the retry replays.
        {
            let store = GraphStore::builder(emp_schema())
                .bootstrap(emp_graph())
                .durable(&dir)
                .open()
                .unwrap();
            let mut d = Delta::new();
            d.add_node("EMP", [("id", Value::Int(3)), ("name", Value::str("C"))]);
            let replay = store.commit(tagged(d, token)).unwrap();
            assert_eq!(replay.generation, 1);
            assert_eq!(store.stats().idempotent_replays, 1);
            // Checkpoint now: the token must survive via the checkpoint
            // image too (the WAL segment gets vacuumed).
            store.checkpoint_now().unwrap();
        }
        {
            let store = GraphStore::builder(emp_schema())
                .bootstrap(emp_graph())
                .durable(&dir)
                .open()
                .unwrap();
            let mut d = Delta::new();
            d.add_node("EMP", [("id", Value::Int(3)), ("name", Value::str("C"))]);
            let replay = store.commit(tagged(d, token)).unwrap();
            assert_eq!(replay.generation, 1, "token restored from the checkpoint image");
            assert_eq!(store.stats().commits, 1);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn idempotency_table_evicts_fifo_at_retention() {
        let mut t = IdempotencyTable::default();
        for i in 0..(IDEMPOTENCY_RETENTION as u128 + 10) {
            t.record(i, i as u64 + 1);
        }
        assert_eq!(t.fifo.len(), IDEMPOTENCY_RETENTION);
        assert_eq!(t.lookup(0), None, "oldest entries evicted");
        assert_eq!(t.lookup(10), Some(11), "survivors intact");
        let entries = t.entries();
        assert_eq!(entries.len(), IDEMPOTENCY_RETENTION);
        let rebuilt = IdempotencyTable::from_entries(entries);
        assert_eq!(rebuilt.lookup(10), Some(11));
    }
}
