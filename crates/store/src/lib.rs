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
//!    renumbering) and records one [`TableDelta`] per touched table.
//!    Each node or edge is exactly one row of its label's table, keyed
//!    by its default key (`InferSDT`), so the writer's only table state
//!    is one default-key → row-position map per table;
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
//! periodic checkpoints snapshot the master graph and the published
//! tables so replay cost
//! stays bounded (the commit that makes one due only pins the state and
//! rotates the WAL; a checkpointer thread writes the file); and recovery
//! loads the newest valid checkpoint,
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
pub mod vfs;
mod wal;

pub use builder::StoreBuilder;
pub use delta::{Delta, EdgeKey, EdgeRef, Mutation, NodeKey, NodeRef};
pub use error::{StoreError, StoreResult};
pub use group::{CommitTicket, GroupCommitter, GroupOptions, GroupStats};
pub use session::{CommitAck, EmbeddedSession, Graphiti, GraphitiBuilder, ServiceStats, Session};
pub use vfs::{std_vfs, FaultKind, FaultVfs, OpClass, StdVfs, Vfs, VfsFile};

use graphiti_common::{Error, Ident, Result, Value};
use graphiti_engine::{Engine, Snapshot};
use graphiti_graph::{EdgeId, GraphInstance, GraphSchema, NodeId};
use graphiti_obs::metrics::{Counter, Histogram, Registry};
use graphiti_obs::Obs;
use graphiti_relational::{ColumnInstance, RelInstance, Row, Table, TableDelta};
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
    /// Names of the induced tables the commit's operations wrote.
    pub touched_tables: Vec<String>,
}

/// Tuning knobs of a durable store (see [`StoreBuilder::durability`]).
#[derive(Debug, Clone, Copy)]
pub struct DurabilityOptions {
    /// Fsync the WAL on **every** commit (the strict redo rule: a
    /// published generation always survives power loss).  When `false`,
    /// records are still written and flushed to the OS per commit —
    /// surviving a process crash — but only forced to stable storage at
    /// checkpoints (amortized group durability): the checkpoint image
    /// covers them once its file is durable, and the pin step syncs the
    /// outgoing segment before the WAL rotates.
    pub fsync_each_commit: bool,
    /// Checkpoint every this many commits.  The commit that makes one
    /// due pins the state and rotates the WAL under the state lock; a
    /// checkpointer thread writes the file and then vacuums the segments
    /// and checkpoints it supersedes.  One job runs at a time: a
    /// checkpoint that falls due while the previous one still runs waits
    /// for it, so a clean shutdown replays at most this many commits, and
    /// a crash during a job at most twice as many.  A failed checkpoint is
    /// retried after another interval.  `0` disables automatic
    /// checkpoints; use [`GraphStore::checkpoint_now`] instead.
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
/// [`StoreBuilder::durable`].  Dropping it waits for the checkpoint job
/// in flight, so no checkpointer thread outlives its store.
#[derive(Debug)]
struct DurableState {
    /// The directory and VFS, shared with checkpoint jobs together with
    /// the checkpoint counters.
    disk: Arc<checkpoint::Disk>,
    options: DurabilityOptions,
    wal: wal::WalWriter,
    /// Generation the newest checkpoint job was pinned at, successful or
    /// not: the next periodic one falls due `checkpoint_interval`
    /// generations later, so a lasting fault costs one attempt per
    /// interval, not one per commit.
    last_pinned: u64,
    /// The periodic checkpoint job whose write step runs on the
    /// checkpointer thread (at most one at a time).
    in_flight: Option<std::thread::JoinHandle<()>>,
    /// How long each pin step holds the state lock.
    checkpoint_pin_micros: Arc<Histogram>,
    /// Records appended by this process (registry-backed: the same
    /// handles render through the shared observability registry, so
    /// [`StoreStats`] is a *view*, not a second vocabulary).
    wal_records: Counter,
    /// Bytes appended by this process.
    wal_bytes: Counter,
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
    /// names.  `disk` holds the newest checkpoint's generation, which is
    /// where the periodic schedule starts.
    fn new(
        disk: Arc<checkpoint::Disk>,
        options: DurabilityOptions,
        wal: wal::WalWriter,
        registry: &Registry,
    ) -> DurableState {
        DurableState {
            last_pinned: disk.last_checkpoint(),
            disk,
            options,
            wal,
            in_flight: None,
            checkpoint_pin_micros: registry.histogram("graphiti_checkpoint_pin_micros"),
            wal_records: registry.counter("graphiti_wal_records_total"),
            wal_bytes: registry.counter("graphiti_wal_bytes_total"),
            replayed: registry.counter("graphiti_wal_replayed_commits_total"),
            wal_retries: registry.counter("graphiti_wal_retries_total"),
            wal_append_failures: registry.counter("graphiti_wal_append_failures_total"),
            wal_append_micros: registry.histogram("graphiti_wal_append_micros"),
            wal_fsync_micros: registry.histogram("graphiti_wal_fsync_micros"),
        }
    }

    /// Runs a pinned job's write step on a checkpointer thread.  Its
    /// failure is counted, keeps every segment, and reaches no commit.
    fn spawn_checkpoint(&mut self, job: checkpoint::Job) {
        debug_assert!(self.in_flight.is_none(), "the pin step waits for the job in flight");
        let failures = self.disk.checkpoint_failures.clone();
        let spawned =
            std::thread::Builder::new().name("graphiti-checkpoint".into()).spawn(move || {
                if job.write().is_err() {
                    failures.inc();
                }
            });
        match spawned {
            Ok(handle) => self.in_flight = Some(handle),
            Err(_) => self.disk.checkpoint_failures.inc(),
        }
    }

    /// Waits for the checkpoint job in flight, if any.
    fn wait_for_checkpoint(&mut self) {
        if let Some(handle) = self.in_flight.take() {
            if handle.join().is_err() {
                self.disk.checkpoint_failures.inc();
            }
        }
    }
}

impl Drop for DurableState {
    fn drop(&mut self) {
        self.wait_for_checkpoint();
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
    /// Live nodes in the master graph.
    pub live_nodes: usize,
    /// Live edges in the master graph.
    pub live_edges: usize,
    /// WAL records appended by this process (always 0 for an in-memory
    /// store).
    pub wal_records: u64,
    /// WAL bytes appended by this process.
    pub wal_bytes: u64,
    /// Checkpoints this process completed: a periodic one counts once
    /// its file is renamed into place on the checkpointer thread, not
    /// when its commit is acknowledged.
    pub checkpoints: u64,
    /// Periodic checkpoints that failed (the triggering commit still
    /// succeeded, every WAL segment was kept, and durability falls back
    /// to a longer WAL replay).
    pub checkpoint_failures: u64,
    /// Generation covered by the newest completed checkpoint (0 when
    /// none).  It lags the generation a periodic checkpoint was pinned
    /// at until the checkpointer thread finishes the file.
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
    /// The same entries in insertion order, for FIFO eviction and for
    /// checkpoints, which copy them under the state lock.
    fifo: VecDeque<(u128, u64)>,
}

impl IdempotencyTable {
    fn lookup(&self, token: u128) -> Option<u64> {
        self.by_token.get(&token).copied()
    }

    fn record(&mut self, token: u128, generation: u64) {
        if self.by_token.insert(token, generation).is_none() {
            self.fifo.push_back((token, generation));
        }
        while self.fifo.len() > IDEMPOTENCY_RETENTION {
            if let Some((evicted, _)) = self.fifo.pop_front() {
                self.by_token.remove(&evicted);
            }
        }
    }

    /// Entries in insertion order (the shape checkpoints persist).
    fn entries(&self) -> Vec<(u128, u64)> {
        self.fifo.iter().copied().collect()
    }

    fn from_entries(entries: Vec<(u128, u64)>) -> IdempotencyTable {
        let mut table = IdempotencyTable::default();
        for (token, generation) in entries {
            table.record(token, generation);
        }
        table
    }
}

/// Default-key value → position of its row in one induced table's
/// image.  The default key is column 0 of every induced table
/// (`InferSDT`).
type KeyMap = HashMap<Value, u32>;

/// Builds the key map of a table image.  A row without a key, or a key
/// held twice, is an error.
fn key_map(name: &str, table: &Table) -> Result<KeyMap> {
    let mut keys = KeyMap::with_capacity(table.len());
    for (pos, row) in table.rows.iter().enumerate() {
        let key = row
            .first()
            .ok_or_else(|| Error::instance(format!("table `{name}` holds a row without a key")))?;
        if keys.insert(key.clone(), pos as u32).is_some() {
            return Err(Error::instance(format!(
                "table `{name}` holds the default key {key} twice"
            )));
        }
    }
    Ok(keys)
}

/// The writer-side state: master graph, stable-key maps, per-table key
/// maps.
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
    /// One key map per induced table, in the coordinates of the published
    /// image — while a batch applies, of the batch's base image, where
    /// the k-th row the batch appended sits at `base_len + k`.
    keys: BTreeMap<String, KeyMap>,
    /// Counters are registry-backed [`Counter`] handles: the store
    /// increments them exactly where the plain `u64`s used to live, and
    /// the shared observability registry renders the same cells —
    /// [`StoreStats`] stays a point-in-time *view* over them.
    commits: Counter,
    rejected: Counter,
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
    fence_events: Counter,
    fenced_commits: Counter,
    idempotent_replays: Counter,
}

impl StoreCounters {
    fn register(registry: &Registry) -> StoreCounters {
        StoreCounters {
            commits: registry.counter("graphiti_store_commits_total"),
            rejected: registry.counter("graphiti_store_rejected_commits_total"),
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
        let mut keys = BTreeMap::new();
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
            keys.insert(name.to_string(), key_map(name, image)?);
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
                keys,
                commits: c.commits,
                rejected: c.rejected,
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
    /// the checkpointed tables, and the WAL suffix is replayed through
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
            let registry = store.obs.registry();
            let disk =
                checkpoint::Disk::new(fs, dir, options.keep_checkpoints, last_checkpoint, registry);
            let d = DurableState::new(Arc::new(disk), options, writer, registry);
            d.replayed.set(replayed);
            st.durable = Some(d);
        }
        Ok(store)
    }

    /// Rebuilds writer-side state from a checkpoint image: the master
    /// graph in arena order, stable keys, and the published tables in
    /// their published row order, from which the key maps are built.  The
    /// recovered graph is re-validated by a cold freeze, and the
    /// checkpointed tables are cross-checked against the freeze-derived
    /// ones — recovery is *checkable*, not just plausible.
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
        let mut keys = BTreeMap::new();
        let mut induced = RelInstance::new();
        for t in image.tables {
            if let Some(row) = t.rows.iter().find(|row| row.len() != t.columns.len()) {
                return Err(Error::instance(format!(
                    "checkpoint row arity {} does not match the {} columns of `{}`",
                    row.len(),
                    t.columns.len(),
                    t.name
                )));
            }
            let table = Table { columns: t.columns, rows: t.rows };
            keys.insert(t.name.clone(), key_map(&t.name, &table)?);
            induced.insert_table(t.name, table);
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
        if keys.len() != cold_tables {
            return Err(Error::instance("checkpoint holds tables the schema does not induce"));
        }
        // Publish the checkpointed images, not the cold arena-ordered
        // ones: published row order must survive recovery, because the
        // key maps and every later commit's patches address it.
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
                keys,
                commits: c.commits,
                rejected: c.rejected,
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
    /// current state inline, then open the first WAL segment.  The order
    /// matters: a directory holding a WAL segment but no checkpoint
    /// recovers onto an empty graph, not onto the bootstrap graph.
    fn attach_durability(
        &self,
        fs: Arc<dyn vfs::Vfs>,
        dir: PathBuf,
        options: DurabilityOptions,
    ) -> StoreResult<()> {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let (generation, snapshot) = self.published();
        let registry = self.obs.registry();
        let disk = Arc::new(checkpoint::Disk::new(
            fs,
            dir,
            options.keep_checkpoints,
            generation,
            registry,
        ));
        checkpoint::Job::pin(&st, (generation, snapshot), Arc::clone(&disk)).write()?;
        let wal = wal::WalWriter::create(&*disk.vfs, wal::segment_path(&disk.dir, generation))?;
        st.durable = Some(DurableState::new(disk, options, wal, registry));
        Ok(())
    }

    /// Writes a checkpoint of the current generation now, rotating the
    /// WAL and vacuuming segments (and checkpoints beyond the retention
    /// count) the new checkpoint covers.  Returns the checkpointed
    /// generation.  Errors if the store is not durable.
    ///
    /// It first waits for the periodic checkpoint in flight, if any, then
    /// runs the same job inline: when it returns, its file is the newest
    /// checkpoint and no job is running.
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
        let published = self.published();
        let generation = published.0;
        pin_checkpoint(&mut st, published)?.write()?;
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
            live_nodes: st.graph.node_count(),
            live_edges: st.graph.edge_count(),
            wal_records: st.durable.as_ref().map_or(0, |d| d.wal_records.get()),
            wal_bytes: st.durable.as_ref().map_or(0, |d| d.wal_bytes.get()),
            checkpoints: st.durable.as_ref().map_or(0, |d| d.disk.checkpoints_written.get()),
            checkpoint_failures: st
                .durable
                .as_ref()
                .map_or(0, |d| d.disk.checkpoint_failures.get()),
            last_checkpoint_generation: st.durable.as_ref().map_or(0, |d| d.disk.last_checkpoint()),
            replayed_commits: st.durable.as_ref().map_or(0, |d| d.replayed.get()),
            wal_segments_removed: st.durable.as_ref().map_or(0, |d| d.disk.segments_removed.get()),
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
    /// derivation per touched table (every request writes the same
    /// [`TableDelta`] of the table, against the batch's base image), and
    /// one publication.  The store's generation moves, and tokens are
    /// recorded, only at that publication.
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
        // The segment these records went to must be findable after a
        // crash before any of them is acknowledged: the first batch
        // written to a segment syncs its directory.
        if let Some(d) = st.durable.as_mut().filter(|_| failure.is_none() && accepted > 0) {
            d.wal.sync_name(&*d.disk.vfs);
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
            // segments be vacuumed.  The batch already published; only
            // the pin step runs under the lock, and the write step runs on
            // the checkpointer thread.  A failure is counted, not
            // propagated — durability falls back to a longer replay.
            let due = st.durable.as_ref().is_some_and(|d| {
                d.options.checkpoint_interval > 0
                    && generation - d.last_pinned >= d.options.checkpoint_interval
            });
            if due {
                let pinned = pin_checkpoint(&mut st, (generation, Arc::clone(&snapshot)));
                if let Some(d) = st.durable.as_mut() {
                    match pinned {
                        Ok(job) => d.spawn_checkpoint(job),
                        Err(_) => d.disk.checkpoint_failures.inc(),
                    }
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
    /// table, renumbers the key map of every table that lost rows, and
    /// publishes every accepted request as generation `generation`: the
    /// one write of the publication slot, made while the caller holds the
    /// state lock.  An error leaves the master state part-mutated.
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
        for (name, Change { mut delta, .. }) in folded.tables {
            if delta.is_empty() {
                continue;
            }
            let (Some(rows), Some(cols), Some(keys)) =
                (induced.table(&name), columnar.table(&name), st.keys.get_mut(&name))
            else {
                return Err(Error::instance(format!("generation lost table `{name}` mid-publish")));
            };
            // Each base row is removed at most once: its key leaves the
            // map with it.
            delta.removed.sort_unstable();
            debug_assert!(delta.removed.windows(2).all(|w| w[0] < w[1]), "a row removed twice");
            let (row_image, col_image) = (rows.apply_delta(&delta), cols.apply_delta(&delta));
            if !delta.removed.is_empty() {
                // Every surviving row moves up by the removed rows before it.
                for pos in keys.values_mut() {
                    let at = *pos;
                    *pos = at - delta.removed.partition_point(|&r| r < at) as u32;
                }
            }
            debug_assert_eq!(keys.len(), row_image.len(), "key map of `{name}` misses rows");
            induced.insert_table(name.clone(), row_image);
            columnar.insert_table(name, col_image);
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

/// The pin step of a periodic or [`GraphStore::checkpoint_now`]
/// checkpoint of `published`, the generation the store published last,
/// made while the caller holds the state lock: waits for the job in
/// flight, rotates the WAL to a segment based at that generation, and
/// pins the state the image is built from.  Without a per-commit fsync,
/// the outgoing segment is synced first, so no record of the new segment
/// can reach the disk ahead of a record it follows.
fn pin_checkpoint(
    st: &mut StoreState,
    published: (u64, Arc<Snapshot>),
) -> StoreResult<checkpoint::Job> {
    let generation = published.0;
    let Some(d) = st.durable.as_mut() else {
        // Callers verify `st.durable` before calling; reaching here is a
        // logic bug, reported instead of panicking.
        debug_assert!(false, "pin_checkpoint needs a durable store");
        return Err(StoreError::Internal(
            "pin_checkpoint called without a durability layer".into(),
        ));
    };
    d.wait_for_checkpoint();
    let started = Instant::now();
    d.last_pinned = generation;
    if !d.options.fsync_each_commit {
        d.wal.sync()?;
    }
    d.wal = wal::WalWriter::create(&*d.disk.vfs, wal::segment_path(&d.disk.dir, generation))?;
    let (disk, pin_micros) = (Arc::clone(&d.disk), Arc::clone(&d.checkpoint_pin_micros));
    let job = checkpoint::Job::pin(st, published, disk);
    pin_micros.record(started.elapsed().as_micros() as u64);
    Ok(job)
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
            self.st.keys.get(label.as_str()).is_some_and(|keys| keys.contains_key(value))
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

/// What one request of a batch acks, before the batch publishes.
#[derive(Default)]
struct Ack {
    generation: u64,
    node_keys: Vec<NodeKey>,
    edge_keys: Vec<EdgeKey>,
    touched_tables: Vec<String>,
}

/// One touched table's change over the batch's base image.
struct Change {
    /// The base image's row count: the k-th row the batch appended sits
    /// at `base_len + k` in the table's key map.
    base_len: usize,
    /// Patches and removals of base rows, at their base positions, and
    /// the rows the batch appended, as they stand now.
    delta: TableDelta,
}

/// A batch's accepted requests on their way to its one publication.
#[derive(Default)]
struct Folded {
    /// The last accepted request (its index in the batch, generation and
    /// delta), not yet applied to the master state.
    pending: Option<(usize, u64, Delta)>,
    /// Whether any request has been applied to the master state.
    applied: bool,
    /// Per touched table: the change every applied request wrote.
    tables: BTreeMap<String, Change>,
}

impl Folded {
    /// Applies the pending request, if any, to the master state and the
    /// batch's table changes, and answers it in `acks` with the keys it
    /// assigned.  An error leaves the master state part-mutated.
    fn apply_pending(
        &mut self,
        st: &mut StoreState,
        prev: &Snapshot,
        acks: &mut [Option<StoreResult<Ack>>],
    ) -> Result<()> {
        let Some((idx, generation, delta)) = self.pending.take() else {
            return Ok(());
        };
        self.applied = true;
        let mut rows =
            Rows { base: prev.induced(), changes: &mut self.tables, touched: Vec::new() };
        let (node_keys, edge_keys) = apply_delta(st, &mut rows, &delta)?;
        acks[idx] =
            Some(Ok(Ack { generation, node_keys, edge_keys, touched_tables: rows.touched }));
        Ok(())
    }
}

/// The table side of applying one request: the batch's base image, its
/// changes over that image, and the tables the request wrote.
struct Rows<'a> {
    base: &'a RelInstance,
    changes: &'a mut BTreeMap<String, Change>,
    touched: Vec<String>,
}

impl Rows<'_> {
    /// The key map and the batch's change of table `name`.  A table's
    /// change opens on its first write.
    fn table<'k>(
        &'k mut self,
        keys: &'k mut BTreeMap<String, KeyMap>,
        name: &str,
    ) -> Result<(&'k mut KeyMap, &'k mut Change)> {
        let missing = || Error::instance(format!("no induced table `{name}`"));
        if !self.changes.contains_key(name) {
            let base_len = self.base.table(name).ok_or_else(missing)?.len();
            self.changes.insert(name.to_string(), Change { base_len, delta: TableDelta::new() });
        }
        if !self.touched.iter().any(|t| t == name) {
            self.touched.push(name.to_string());
        }
        let keys = keys.get_mut(name).ok_or_else(missing)?;
        Ok((keys, self.changes.get_mut(name).ok_or_else(missing)?))
    }

    /// Appends `row` to table `name`, mapping its key to the position
    /// after the batch's earlier appends.
    fn append(&mut self, keys: &mut BTreeMap<String, KeyMap>, name: &str, row: Row) -> Result<()> {
        let (keys, change) = self.table(keys, name)?;
        let key = row.first().ok_or_else(|| Error::instance(format!("keyless row in `{name}`")))?;
        let pos = change.base_len + change.delta.appended.len();
        let prev = keys.insert(key.clone(), pos as u32);
        debug_assert!(prev.is_none(), "append with a duplicate default key");
        change.delta.appended.push(row);
        Ok(())
    }

    /// Removes the row keyed `pk` from table `name`: a base row by its
    /// position, a row the batch appended in place, which moves the rows
    /// appended after it up by one.
    fn remove(
        &mut self,
        keys: &mut BTreeMap<String, KeyMap>,
        name: &str,
        pk: &Value,
    ) -> Result<()> {
        let (keys, change) = self.table(keys, name)?;
        let pos = keys.remove(pk).ok_or_else(|| no_row(name, pk))? as usize;
        let appended = &mut change.delta.appended;
        match pos.checked_sub(change.base_len) {
            None => change.delta.removed.push(pos as u32),
            Some(k) if k < appended.len() => {
                appended.remove(k);
                for row in &appended[k..] {
                    *keys.get_mut(&row[0]).ok_or_else(|| no_row(name, &row[0]))? -= 1;
                }
            }
            Some(_) => return Err(no_row(name, pk)),
        }
        Ok(())
    }

    /// Sets column `col` of the row keyed `pk` in table `name`: a base
    /// row by a patch at its position, a row the batch appended in place.
    /// A new default key takes over the row's position.
    fn patch(
        &mut self,
        keys: &mut BTreeMap<String, KeyMap>,
        name: &str,
        pk: &Value,
        col: usize,
        value: Value,
    ) -> Result<()> {
        let (keys, change) = self.table(keys, name)?;
        let pos = *keys.get(pk).ok_or_else(|| no_row(name, pk))?;
        if col == 0 && *pk != value {
            keys.remove(pk);
            keys.insert(value.clone(), pos);
        }
        match (pos as usize).checked_sub(change.base_len) {
            None => change.delta.patches.push((pos as usize, col, value)),
            Some(k) => {
                let cell = change.delta.appended.get_mut(k).and_then(|row| row.get_mut(col));
                *cell.ok_or_else(|| no_row(name, pk))? = value;
            }
        }
        Ok(())
    }
}

fn no_row(name: &str, pk: &Value) -> Error {
    Error::instance(format!("no row with key {pk} in `{name}`"))
}

/// Phase 2: applies a validated delta to the master graph, and writes its
/// rows into the batch's table changes, returning the stable keys it
/// assigned.
fn apply_delta(
    st: &mut StoreState,
    rows: &mut Rows<'_>,
    delta: &Delta,
) -> Result<(Vec<NodeKey>, Vec<EdgeKey>)> {
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
                rows.append(&mut st.keys, label.as_str(), row)?;
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
                rows.append(&mut st.keys, label.as_str(), row)?;
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
                rows.remove(&mut st.keys, label.as_str(), &pk)?;
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
                rows.remove(&mut st.keys, label.as_str(), &pk)?;
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
                rows.patch(&mut st.keys, label.as_str(), &pk_before, col, value.clone())?;
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
                        rows.patch(&mut st.keys, elabel.as_str(), &epk, ecol, value.clone())?;
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
                rows.patch(&mut st.keys, label.as_str(), &pk_before, col, value.clone())?;
            }
        }
    }
    Ok((new_node_keys, new_edge_keys))
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

    /// Each table's key map, checked against its published image: every
    /// row's key maps to the row's position.
    fn key_maps(store: &GraphStore) -> BTreeMap<String, KeyMap> {
        let keys = store.state.lock().unwrap().keys.clone();
        for (name, table) in store.snapshot().induced().tables() {
            assert_eq!(keys[name], key_map(name, table).unwrap(), "key map of `{name}`");
        }
        keys
    }

    #[test]
    fn mass_removals_renumber_the_key_maps() {
        let store = GraphStore::open(emp_schema(), GraphInstance::new()).unwrap();
        let mut d = Delta::new();
        for i in 0..100 {
            d.add_node("EMP", [("id", Value::Int(i)), ("name", Value::str("w"))]);
        }
        let info = store.commit(d).unwrap();
        let mut d = Delta::new();
        // Every fifth row, then a prefix: removals out of position order.
        let doomed: Vec<usize> =
            (0..100).step_by(5).chain((0..60).filter(|i| i % 5 != 0)).collect();
        for i in doomed {
            d.remove_node(info.node_keys[i]);
        }
        store.commit(d).unwrap();
        let stats = store.stats();
        assert_eq!(stats.live_nodes, 32);
        assert_matches_cold_freeze(&store);
        assert_eq!(key_maps(&store)["EMP"].len(), 32);
        let report =
            run_published(&store, &[BatchQuery::sql("SELECT Count(*) AS c FROM EMP AS e")], 1);
        assert_eq!(report.outcomes[0].result.as_ref().unwrap().rows[0][0], Value::Int(32));
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

    // ------------------------------------------------- batch ≡ serial

    /// The biomedical fixture: Figure 3a's concepts, predication
    /// assertions and sentences, two edge labels.
    fn biomed_schema() -> GraphSchema {
        GraphSchema::new()
            .with_node(NodeType::new("CONCEPT", ["CID", "Name"]))
            .with_node(NodeType::new("PA", ["PID", "PCSID"]))
            .with_node(NodeType::new("SENTENCE", ["SID", "PMID"]))
            .with_edge(EdgeType::new("CS", "CONCEPT", "PA", ["CSEID", "CSID"]))
            .with_edge(EdgeType::new("SP", "PA", "SENTENCE", ["SPID", "SPSID"]))
    }

    fn biomed_graph() -> GraphInstance {
        let mut g = GraphInstance::new();
        let int = Value::Int;
        let atropine = g.add_node("CONCEPT", [("CID", int(1)), ("Name", Value::str("Atropine"))]);
        g.add_node("CONCEPT", [("CID", int(2)), ("Name", Value::str("Aspirin"))]);
        let pa0 = g.add_node("PA", [("PID", int(0)), ("PCSID", int(0))]);
        let pa1 = g.add_node("PA", [("PID", int(1)), ("PCSID", int(1))]);
        let s0 = g.add_node("SENTENCE", [("SID", int(0)), ("PMID", int(0))]);
        g.add_node("SENTENCE", [("SID", int(1)), ("PMID", int(0))]);
        g.add_edge("CS", atropine, pa0, [("CSEID", int(0)), ("CSID", int(0))]);
        g.add_edge("CS", atropine, pa1, [("CSEID", int(1)), ("CSID", int(1))]);
        g.add_edge("SP", pa0, s0, [("SPID", int(0)), ("SPSID", int(0))]);
        g.add_edge("SP", pa1, s0, [("SPID", int(1)), ("SPSID", int(0))]);
        g
    }

    /// Every live `(label, default key)` of a store.
    fn live_keys(store: &GraphStore) -> HashSet<(Ident, Value)> {
        let nodes = store.node_directory().into_iter().map(|(_, l, v)| (l, v));
        nodes.chain(store.edge_directory().into_iter().map(|(_, l, v, ..)| (l, v))).collect()
    }

    /// Draws one member of a batch against `oracle`, the store with every
    /// earlier member committed: one to four operations on rows of the
    /// base image and rows earlier members appended (the elements keyed
    /// `>= first_new`, drawn half the time), and on elements staged
    /// earlier in the same delta.  A default key is fresh, or one an
    /// earlier member freed; a freed key already reclaimed makes the
    /// member a duplicate, and so does a deliberate duplicate add.
    fn random_member(
        rng: &mut rand::rngs::StdRng,
        oracle: &GraphStore,
        fresh: &mut i64,
        freed: &[(Ident, Value)],
        first_new: u64,
    ) -> Delta {
        use rand::Rng;
        let schema = oracle.state.lock().unwrap().schema.clone();
        let mut key_for = |rng: &mut rand::rngs::StdRng, label: &Ident| {
            let reusable: Vec<&Value> =
                freed.iter().filter(|(l, _)| l == label).map(|(_, v)| v).collect();
            if !reusable.is_empty() && rng.gen_bool(0.4) {
                reusable[rng.gen_range(0..reusable.len())].clone()
            } else {
                *fresh += 1;
                Value::Int(*fresh)
            }
        };
        let payload = |rng: &mut rand::rngs::StdRng| match rng.gen_range(0..3u32) {
            0 => Value::Int(rng.gen_range(0..4i64)),
            1 => Value::str(["a", "b"][rng.gen_range(0..2usize)]),
            _ => Value::Null,
        };
        // Existing elements, half the time only those earlier members added.
        let recent = rng.gen_bool(0.5);
        let mut nodes: Vec<(NodeKey, Ident)> = oracle
            .node_directory()
            .into_iter()
            .filter(|(k, ..)| !recent || k.0 >= first_new)
            .map(|(k, l, _)| (k, l))
            .collect();
        let mut edges: Vec<(EdgeKey, Ident, NodeKey, NodeKey)> = oracle
            .edge_directory()
            .into_iter()
            .filter(|(k, ..)| !recent || k.0 >= first_new)
            .map(|(k, l, _, s, t)| (k, l, s, t))
            .collect();
        let all_edges = oracle.edge_directory();
        let mut removed_edges: HashSet<EdgeKey> = HashSet::new();
        // Staged nodes (reference, label, alive) and edges (reference,
        // label, endpoints, alive).
        let mut staged_nodes: Vec<(NodeRef, Ident, bool)> = Vec::new();
        let mut staged_edges: Vec<(EdgeRef, Ident, [NodeRef; 2], bool)> = Vec::new();
        let mut d = Delta::new();
        for _ in 0..rng.gen_range(1..=4usize) {
            match rng.gen_range(0..100u32) {
                0..=24 => {
                    let ty = &schema.node_types[rng.gen_range(0..schema.node_types.len())];
                    let mut props = vec![(ty.keys[0].clone(), key_for(rng, &ty.label))];
                    props.push((ty.keys[1].clone(), payload(rng)));
                    let r = d.add_node(ty.label.clone(), props);
                    staged_nodes.push((r, ty.label.clone(), true));
                }
                25..=39 => {
                    let ty = &schema.edge_types[rng.gen_range(0..schema.edge_types.len())];
                    let ends = |label: &Ident| -> Vec<NodeRef> {
                        let existing = oracle
                            .node_directory()
                            .into_iter()
                            .filter(|(k, l, _)| l == label && nodes.iter().any(|(n, _)| n == k))
                            .map(|(k, ..)| NodeRef::Key(k));
                        let staged = staged_nodes.iter().filter(|n| n.2 && n.1 == *label);
                        existing.chain(staged.map(|n| n.0)).collect()
                    };
                    let (src, tgt) = (ends(&ty.src), ends(&ty.tgt));
                    if src.is_empty() || tgt.is_empty() {
                        continue;
                    }
                    let ends = [src[rng.gen_range(0..src.len())], tgt[rng.gen_range(0..tgt.len())]];
                    let mut props: Vec<(Ident, Value)> =
                        ty.keys[1..].iter().map(|k| (k.clone(), payload(rng))).collect();
                    props.insert(0, (ty.keys[0].clone(), key_for(rng, &ty.label)));
                    let r = d.add_edge(ty.label.clone(), ends[0], ends[1], props);
                    staged_edges.push((r, ty.label.clone(), ends, true));
                    // An endpoint of a staged edge must outlive the delta.
                    nodes.retain(|(k, _)| !ends.contains(&NodeRef::Key(*k)));
                }
                40..=54 if !edges.is_empty() => {
                    let (k, ..) = edges.swap_remove(rng.gen_range(0..edges.len()));
                    d.remove_edge(k);
                    removed_edges.insert(k);
                }
                55..=64 => {
                    // A node whose every remaining edge this delta removed.
                    let bare: Vec<usize> = (0..nodes.len())
                        .filter(|&i| {
                            all_edges.iter().all(|(e, _, _, s, t)| {
                                removed_edges.contains(e) || (*s != nodes[i].0 && *t != nodes[i].0)
                            })
                        })
                        .collect();
                    if bare.is_empty() {
                        continue;
                    }
                    let (k, _) = nodes.swap_remove(bare[rng.gen_range(0..bare.len())]);
                    d.remove_node(k);
                }
                65..=74 if !nodes.is_empty() => {
                    let (k, label) = nodes[rng.gen_range(0..nodes.len())].clone();
                    let ty = schema.node_type(label.as_str()).unwrap();
                    match rng.gen_bool(0.5) {
                        true => d.set_node_prop(k, ty.keys[0].clone(), key_for(rng, &label)),
                        false => d.set_node_prop(k, ty.keys[1].clone(), payload(rng)),
                    };
                }
                75..=84 if !edges.is_empty() => {
                    let (k, label, ..) = edges[rng.gen_range(0..edges.len())].clone();
                    let ty = schema.edge_type(label.as_str()).unwrap();
                    match ty.keys.get(1).filter(|_| rng.gen_bool(0.5)) {
                        Some(payload_key) => d.set_edge_prop(k, payload_key.clone(), payload(rng)),
                        None => d.set_edge_prop(k, ty.keys[0].clone(), key_for(rng, &label)),
                    };
                }
                _ => {
                    // Remove, patch or re-key a staged element (a staged
                    // node only after its staged edges).
                    let live_edges: Vec<usize> =
                        (0..staged_edges.len()).filter(|&i| staged_edges[i].3).collect();
                    let bare_nodes: Vec<usize> = (0..staged_nodes.len())
                        .filter(|&i| staged_nodes[i].2)
                        .filter(|&i| {
                            !staged_edges.iter().any(|e| e.3 && e.2.contains(&staged_nodes[i].0))
                        })
                        .collect();
                    match rng.gen_range(0..4u32) {
                        0 if !live_edges.is_empty() => {
                            let i = live_edges[rng.gen_range(0..live_edges.len())];
                            d.remove_edge(staged_edges[i].0);
                            staged_edges[i].3 = false;
                        }
                        1 if !bare_nodes.is_empty() => {
                            let i = bare_nodes[rng.gen_range(0..bare_nodes.len())];
                            d.remove_node(staged_nodes[i].0);
                            staged_nodes[i].2 = false;
                        }
                        2 if !live_edges.is_empty() => {
                            let (r, label, ..) = staged_edges[live_edges[0]].clone();
                            let ty = schema.edge_type(label.as_str()).unwrap();
                            d.set_edge_prop(r, ty.keys[0].clone(), key_for(rng, &label));
                        }
                        _ => {
                            let live: Vec<usize> =
                                (0..staged_nodes.len()).filter(|&i| staged_nodes[i].2).collect();
                            if live.is_empty() {
                                continue;
                            }
                            let (r, label, _) =
                                staged_nodes[live[rng.gen_range(0..live.len())]].clone();
                            let ty = schema.node_type(label.as_str()).unwrap();
                            match rng.gen_bool(0.5) {
                                true => {
                                    d.set_node_prop(r, ty.keys[0].clone(), key_for(rng, &label))
                                }
                                false => d.set_node_prop(r, ty.keys[1].clone(), payload(rng)),
                            };
                        }
                    }
                }
            }
        }
        if rng.gen_bool(0.15) {
            // A duplicate of a live default key: the member is rejected.
            if let Some((_, label, key)) = oracle.node_directory().first().cloned() {
                let ty = schema.node_type(label.as_str()).unwrap();
                d.add_node(label, [(ty.keys[0].clone(), key)]);
            }
        }
        d
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// A batch is its members committed serially: each member's
        /// generation or rejection, the stable keys it is assigned, both
        /// published layouts row for row, and the key maps.  The members
        /// remove, patch and re-key base rows, rows earlier members
        /// appended and rows staged in the same member, free default keys
        /// that later members claim, and are sometimes rejected.
        #[test]
        fn a_batch_equals_its_members_committed_serially(
            seed in proptest::prelude::any::<u64>(),
            biomed in proptest::prelude::any::<bool>(),
        ) {
            use rand::{Rng, SeedableRng};
            let (schema, graph) =
                if biomed { (biomed_schema(), biomed_graph()) } else { (emp_schema(), emp_graph()) };
            let first_new = (graph.node_count() + graph.edge_count()) as u64;
            let oracle = GraphStore::open(schema.clone(), graph.clone()).unwrap();
            let batched = GraphStore::open(schema, graph).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (mut fresh, mut freed) = (1_000i64, Vec::new());
            let mut members = Vec::new();
            let mut serial = Vec::new();
            for _ in 0..rng.gen_range(2..=8usize) {
                let before = live_keys(&oracle);
                let delta = random_member(&mut rng, &oracle, &mut fresh, &freed, first_new);
                let outcome = match oracle.commit(delta.clone()) {
                    Ok(info) => Some((info.generation, info.node_keys, info.edge_keys)),
                    Err(StoreError::Rejected(_)) => None,
                    Err(e) => panic!("an in-memory commit fails only by rejection: {e}"),
                };
                freed.extend(before.difference(&live_keys(&oracle)).cloned());
                members.push(CommitRequest::from(delta));
                serial.push(outcome);
            }
            let results = batched.commit_batch(members);
            for (i, (got, want)) in results.into_iter().zip(serial).enumerate() {
                match (got, want) {
                    (Ok(info), Some(want)) => {
                        assert_eq!((info.generation, info.node_keys, info.edge_keys), want, "member {i}")
                    }
                    (Err(StoreError::Rejected(_)), None) => {}
                    (got, want) => panic!("member {i}: batch {:?}, serial {want:?}", got.map(|c| c.generation)),
                }
            }
            let (a, b) = (batched.snapshot(), oracle.snapshot());
            let columnar = a.sql_columnar(&SqlTarget::Induced).unwrap();
            for (name, table) in b.induced().tables() {
                assert_eq!(a.induced().table(name), Some(table), "row image of `{name}`");
                assert_eq!(columnar.table(name).unwrap().to_table(), *table, "columnar `{name}`");
            }
            assert_eq!(key_maps(&batched), key_maps(&oracle), "key maps");
        }
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
    /// published order survives recovery), and query-equivalent through the
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
            assert_eq!(ta, tb, "row image of `{name}` (published order must survive recovery)");
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

    /// Reads a store's registry counter by name.
    fn counter(obs: &Obs, name: &str) -> u64 {
        obs.registry().counter(name).get()
    }

    #[test]
    fn checkpoints_bound_replay_and_vacuum_segments() {
        let dir = scratch("ckpt");
        let obs = {
            let store = durable(&dir, durable_opts(false, 2)).open().unwrap();
            for d in scripted_deltas() {
                store.commit(d).unwrap();
            }
            Arc::clone(store.obs())
        };
        // Dropping the store joined the job in flight: the checkpoint
        // counters are final.
        let checkpoints = counter(&obs, "graphiti_checkpoints_written_total");
        assert!(checkpoints >= 2, "interval 2 over 5 commits checkpoints twice");
        assert_eq!(counter(&obs, "graphiti_checkpoint_failures_total"), 0);
        let removed = counter(&obs, "graphiti_wal_segments_removed_total");
        assert!(removed >= 1, "covered segments are vacuumed");
        assert!(checkpoint_files(&dir).unwrap().len() <= 2, "retention keeps 2 checkpoints");
        let recovered = durable(&dir, durable_opts(false, 2)).open().unwrap();
        assert_eq!(recovered.stats().last_checkpoint_generation, 4);
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
    fn a_checksummed_record_that_does_not_decode_is_corrupt_and_no_file_changes() {
        let dir = scratch("undecodable");
        let first_segment;
        {
            let store = durable(&dir, durable_opts(true, 0)).open().unwrap();
            let mut deltas = scripted_deltas().into_iter();
            store.commit(deltas.next().unwrap()).unwrap();
            // Keep the segment holding commit 1; the checkpoint vacuums it
            // and rotates to a second segment, which takes commit 2.
            let seg = wal_segment_files(&dir).unwrap().remove(0);
            first_segment = (seg.clone(), std::fs::read(&seg).unwrap());
            store.checkpoint_now().unwrap();
            store.commit(deltas.next().unwrap()).unwrap();
        }
        // Restore the first segment (a crash between checkpoint and
        // vacuum) with one more record after commit 1: its CRC passes, but
        // it claims u32::MAX properties and does not decode.
        let mut payload = Vec::new();
        wal::put_u64(&mut payload, 2);
        payload.push(0); // flags: no token
        wal::put_u32(&mut payload, 1); // one operation
        payload.push(0); // AddNode
        wal::put_str(&mut payload, "EMP");
        wal::put_u32(&mut payload, u32::MAX);
        let mut bytes = first_segment.1.clone();
        wal::put_u32(&mut bytes, payload.len() as u32);
        wal::put_u32(&mut bytes, wal::crc32(&payload));
        bytes.extend_from_slice(&payload);
        std::fs::write(&first_segment.0, &bytes).unwrap();
        let segments = wal_segment_files(&dir).unwrap();
        assert_eq!(segments.len(), 2);
        let before: Vec<Vec<u8>> = segments.iter().map(|p| std::fs::read(p).unwrap()).collect();
        // Truncating there and vacuuming the second segment would drop the
        // acknowledged commit 2: recovery refuses instead.
        match durable(&dir, DurabilityOptions::default()).open() {
            Err(StoreError::Corrupt { file, detail }) => {
                assert_eq!(file, first_segment.0);
                let offset = first_segment.1.len();
                assert!(detail.contains(&format!("byte offset {offset}")), "{detail}");
            }
            Err(other) => panic!("expected Corrupt, got: {other}"),
            Ok(_) => panic!("a segment with an undecodable record opened"),
        }
        assert_eq!(wal_segment_files(&dir).unwrap(), segments);
        for (path, bytes) in segments.iter().zip(&before) {
            assert_eq!(&std::fs::read(path).unwrap(), bytes, "{} changed", path.display());
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

    // ------------------------------------------------ checkpointer thread

    /// A VFS over the real filesystem that logs the operations the
    /// checkpoint and WAL-rotation tests order against each other, and
    /// can park a checkpoint at its rename until the test releases it.
    #[derive(Debug, Clone, Default)]
    struct LoggingVfs {
        log: Arc<Mutex<Vec<String>>>,
        gate: Arc<(Mutex<Gate>, std::sync::Condvar)>,
    }

    /// While armed, a checkpoint's rename waits, and says so by setting
    /// `parked`.  A wait that outlasts [`PARK_LIMIT`] gives up and sets
    /// `expired`, so a checkpoint that should not have parked fails its
    /// test instead of hanging it.
    #[derive(Debug, Default)]
    struct Gate {
        armed: bool,
        parked: bool,
        expired: bool,
    }

    const PARK_LIMIT: std::time::Duration = std::time::Duration::from_secs(10);

    impl LoggingVfs {
        fn note(&self, event: String) {
            self.log.lock().unwrap().push(event);
        }

        fn events(&self) -> Vec<String> {
            self.log.lock().unwrap().clone()
        }

        /// The index of the first logged event equal to `event`.
        fn position(&self, event: &str) -> usize {
            let events = self.events();
            events
                .iter()
                .position(|e| e == event)
                .unwrap_or_else(|| panic!("no `{event}` in {events:?}"))
        }

        fn park(&self) {
            self.gate.0.lock().unwrap().armed = true;
        }

        /// Blocks until a checkpoint is parked at its rename.
        fn wait_parked(&self) {
            let (lock, cv) = &*self.gate;
            let gate = lock.lock().unwrap();
            let (gate, _) = cv.wait_timeout_while(gate, PARK_LIMIT, |g| !g.parked).unwrap();
            assert!(gate.parked, "no checkpoint reached its rename");
        }

        fn release(&self) {
            let (lock, cv) = &*self.gate;
            let expired = std::mem::take(&mut *lock.lock().unwrap()).expired;
            cv.notify_all();
            assert!(!expired, "a parked checkpoint waited out the park limit");
        }
    }

    fn file_name(path: &Path) -> String {
        path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default()
    }

    impl Vfs for LoggingVfs {
        fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
            StdVfs.read(path)
        }

        fn create(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
            self.note(format!("create {}", file_name(path)));
            StdVfs.create(path)
        }

        fn open_rw(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
            StdVfs.open_rw(path)
        }

        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            let (lock, cv) = &*self.gate;
            let mut gate = lock.lock().unwrap();
            if gate.armed {
                gate.parked = true;
                cv.notify_all();
                let (mut gate, wait) =
                    cv.wait_timeout_while(gate, PARK_LIMIT, |g| g.armed).unwrap();
                if wait.timed_out() {
                    *gate = Gate { expired: true, ..Gate::default() };
                }
            } else {
                drop(gate);
            }
            let renamed = StdVfs.rename(from, to);
            self.note(format!("rename {}", file_name(to)));
            renamed
        }

        fn remove_file(&self, path: &Path) -> std::io::Result<()> {
            StdVfs.remove_file(path)
        }

        fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
            StdVfs.create_dir_all(path)
        }

        fn list_dir(&self, path: &Path) -> std::io::Result<Vec<String>> {
            StdVfs.list_dir(path)
        }

        fn sync_dir(&self, path: &Path) -> std::io::Result<()> {
            self.note("sync_dir".into());
            StdVfs.sync_dir(path)
        }
    }

    fn open_logged(dir: &Path, vfs: &LoggingVfs, options: DurabilityOptions) -> GraphStore {
        durable(dir, options).vfs(Arc::new(vfs.clone())).open().unwrap()
    }

    /// Commits `delta` and logs its acknowledgement.
    fn commit_logged(store: &GraphStore, vfs: &LoggingVfs, delta: Delta) {
        let generation = store.commit(delta).unwrap().generation;
        vfs.note(format!("ack {generation}"));
    }

    fn tmp_files(dir: &Path) -> Vec<String> {
        let names = StdVfs.list_dir(dir).unwrap();
        names.into_iter().filter(|n| n.ends_with(".tmp")).collect()
    }

    #[test]
    fn a_new_wal_segment_is_durable_before_its_first_acknowledgement() {
        let dir = scratch("segment-sync");
        let vfs = LoggingVfs::default();
        let store = open_logged(&dir, &vfs, durable_opts(true, 2));
        let mut deltas = scripted_deltas().into_iter();
        commit_logged(&store, &vfs, deltas.next().unwrap());
        // Generation 2 rotates the WAL while its checkpoint parks before
        // the rename, so the checkpoint's own directory sync comes later.
        vfs.park();
        commit_logged(&store, &vfs, deltas.next().unwrap());
        vfs.wait_parked();
        commit_logged(&store, &vfs, deltas.next().unwrap());
        vfs.release();
        store.checkpoint_now().unwrap();
        commit_logged(&store, &vfs, deltas.next().unwrap());
        drop(store);
        // Segment `wal-B` holds the generations after B.
        let events = vfs.events();
        let parse = |event: &str, prefix: &str| -> Option<u64> {
            event.strip_prefix(prefix)?.trim_end_matches(".wal").parse().ok()
        };
        let creates: Vec<(usize, u64)> = (0..events.len())
            .filter_map(|i| parse(&events[i], "create wal-").map(|base| (i, base)))
            .collect();
        assert_eq!(creates.len(), 3, "bootstrap, periodic and manual segments: {events:?}");
        for (i, base) in creates {
            let first_ack = (i..events.len())
                .find(|&j| parse(&events[j], "ack ").is_some_and(|g| g > base))
                .unwrap_or_else(|| panic!("no acknowledgement from `{}`", events[i]));
            assert!(
                events[i..first_ack].iter().any(|e| e == "sync_dir"),
                "`{}` is acknowledged from before its name is durable: {events:?}",
                events[i]
            );
        }
    }

    #[test]
    fn a_crash_during_a_background_checkpoint_replays_across_both_segments() {
        let dir = scratch("parked");
        let vfs = LoggingVfs::default();
        let store = open_logged(&dir, &vfs, durable_opts(true, 2));
        let deltas = scripted_deltas();
        store.commit(deltas[0].clone()).unwrap();
        vfs.park();
        store.commit(deltas[1].clone()).unwrap(); // due: pins generation 2
        vfs.wait_parked();
        store.commit(deltas[2].clone()).unwrap();
        // The crash image: the job has rotated the WAL but its file is
        // still `ckpt-…2.tmp`.
        let crash = scratch("parked-crash");
        copy_dir(&dir, &crash);
        assert_eq!(tmp_files(&crash).len(), 1, "the parked job's file is not renamed yet");
        let recovered = durable(&crash, DurabilityOptions::default()).open().unwrap();
        assert_eq!(recovered.stats().last_checkpoint_generation, 0);
        assert_eq!(recovered.stats().replayed_commits, 3, "generations 1–2 from the old segment");
        assert_stores_equal(&recovered, &oracle_after(3));
        drop(recovered);
        // The next due checkpoint waits for the parked one.
        std::thread::scope(|s| {
            let due = s.spawn(|| store.commit(deltas[3].clone()).unwrap());
            std::thread::sleep(std::time::Duration::from_millis(50));
            assert!(!due.is_finished(), "a due checkpoint started while one was in flight");
            vfs.release();
            assert_eq!(due.join().unwrap().generation, 4);
        });
        let renamed =
            vfs.position(&format!("rename {}", file_name(&checkpoint::checkpoint_path(&dir, 2))));
        let rotated = vfs.position(&format!("create {}", file_name(&wal::segment_path(&dir, 4))));
        assert!(renamed < rotated, "the second job pinned before the first one finished");
        store.commit(deltas[4].clone()).unwrap();
        drop(store);
        let recovered = durable(&dir, DurabilityOptions::default()).open().unwrap();
        assert_eq!(recovered.stats().replayed_commits, 1, "replay only past generation 4");
        assert_stores_equal(&recovered, &oracle_after(5));
        std::fs::remove_dir_all(&crash).ok();
    }

    #[test]
    fn checkpoint_now_waits_for_the_job_in_flight() {
        let dir = scratch("now-waits");
        let vfs = LoggingVfs::default();
        let store = open_logged(&dir, &vfs, durable_opts(true, 2));
        let deltas = scripted_deltas();
        store.commit(deltas[0].clone()).unwrap();
        vfs.park();
        store.commit(deltas[1].clone()).unwrap();
        vfs.wait_parked();
        store.commit(deltas[2].clone()).unwrap();
        std::thread::scope(|s| {
            let now = s.spawn(|| store.checkpoint_now().unwrap());
            std::thread::sleep(std::time::Duration::from_millis(50));
            assert!(!now.is_finished(), "checkpoint_now ran beside the job in flight");
            vfs.release();
            assert_eq!(now.join().unwrap(), 3);
        });
        let files = checkpoint_files(&dir).unwrap();
        assert_eq!(files.last(), Some(&checkpoint::checkpoint_path(&dir, 3)), "{files:?}");
        assert!(tmp_files(&dir).is_empty());
        assert_eq!(store.stats().last_checkpoint_generation, 3);
        assert_eq!(store.stats().checkpoints, 3, "bootstrap, periodic and manual");
    }

    #[test]
    fn dropping_a_store_joins_the_checkpoint_job() {
        let dir = scratch("drop-joins");
        let vfs = LoggingVfs::default();
        let store = open_logged(&dir, &vfs, durable_opts(true, 4));
        for d in scripted_deltas().into_iter().take(3) {
            store.commit(d).unwrap();
        }
        vfs.park();
        store.commit(scripted_deltas().remove(3)).unwrap(); // due: pins generation 4
        vfs.wait_parked();
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(50));
                vfs.release();
            });
            drop(store);
        });
        vfs.position(&format!("rename {}", file_name(&checkpoint::checkpoint_path(&dir, 4))));
        assert!(tmp_files(&dir).is_empty(), "no checkpoint file outlives the store half-written");
        let recovered = durable(&dir, durable_opts(true, 4)).open().unwrap();
        assert!(recovered.stats().replayed_commits <= 4, "a clean shutdown replays one interval");
        assert_eq!(recovered.stats().last_checkpoint_generation, 4);
        assert_stores_equal(&recovered, &oracle_after(4));
    }

    #[test]
    fn a_background_checkpoint_is_atomic_under_a_fault_at_every_step() {
        // Probe run: count the I/O operations of a plain commit and of a
        // commit that makes a checkpoint due, through the end of its job.
        let probe = scratch("bg-fault-probe");
        let vfs = FaultVfs::default();
        let store =
            durable(&probe, durable_opts(true, 2)).vfs(Arc::new(vfs.clone())).open().unwrap();
        let before = vfs.ops();
        store.commit(scripted_deltas().remove(0)).unwrap();
        let plain = vfs.ops() - before;
        let before = vfs.ops();
        store.commit(scripted_deltas().remove(1)).unwrap();
        drop(store); // joins the job
        let span = vfs.ops() - before - plain;
        std::fs::remove_dir_all(&probe).ok();
        assert!(span >= 7, "rotation, tmp write, syncs, rename, listings: got {span}");
        // Sweep: fail each of the pin's and the job's operations in turn.
        for k in 1..=span {
            let dir = scratch(&format!("bg-fault-{k}"));
            let vfs = FaultVfs::default();
            let store =
                durable(&dir, durable_opts(true, 2)).vfs(Arc::new(vfs.clone())).open().unwrap();
            let obs = Arc::clone(store.obs());
            store.commit(scripted_deltas().remove(0)).unwrap();
            vfs.fail_nth(vfs.ops() + plain + k);
            // The fault lands in the checkpoint, never in the commit.
            assert_eq!(store.commit(scripted_deltas().remove(1)).unwrap().generation, 2);
            assert!(!store.is_fenced(), "a failed checkpoint must not fence");
            drop(store);
            assert_eq!(vfs.injected(), 1, "op {k} of {span} ran");
            let failures = counter(&obs, "graphiti_checkpoint_failures_total");
            assert!(failures <= 1, "one fault, one failed checkpoint at most");
            // Whatever step failed, the previous checkpoint and the
            // segments after it recover the committed state.
            let recovered = durable(&dir, DurabilityOptions::default()).open().unwrap();
            assert_stores_equal(&recovered, &oracle_after(2));
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn a_failing_periodic_checkpoint_is_retried_once_per_interval() {
        let dir = scratch("retry-interval");
        let vfs = FaultVfs::default();
        let store = durable(&dir, durable_opts(true, 4)).vfs(Arc::new(vfs.clone())).open().unwrap();
        // Metadata operations fail from now on; WAL appends and fsyncs
        // still succeed.
        vfs.fail_from(vfs.ops() + 1);
        vfs.exempt(&[OpClass::Read, OpClass::Write, OpClass::Sync, OpClass::SetLen]);
        let oracle = GraphStore::open(emp_schema(), emp_graph()).unwrap();
        for i in 0..40 {
            let mut d = Delta::new();
            d.add_node("EMP", [("id", Value::Int(1000 + i)), ("name", Value::str("r"))]);
            oracle.commit(d.clone()).unwrap();
            assert_eq!(store.commit(d).unwrap().generation, i as u64 + 1);
        }
        let obs = Arc::clone(store.obs());
        drop(store);
        assert_eq!(counter(&obs, "graphiti_checkpoint_failures_total"), 10, "one per interval");
        let recovered = durable(&dir, DurabilityOptions::default()).open().unwrap();
        assert_eq!(recovered.stats().replayed_commits, 40);
        assert_stores_equal(&recovered, &oracle);
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
