//! The unified `graphiti` façade: one [`Graphiti`] service handle, one
//! [`GraphitiBuilder`] subsuming store, durability, pool, and cache
//! configuration, and one [`Session`] trait implemented by both the
//! in-process [`EmbeddedSession`] and the wire client.
//!
//! A session is **pinned**: it reads one published snapshot generation
//! until it opts into [`Session::refresh`] (or commits — a session
//! always sees its own writes).  That makes a sequence of queries
//! transactionally consistent with each other regardless of concurrent
//! writers, which is exactly the MVCC guarantee the store's snapshot
//! generations already provide; the session API just gives it a name.
//!
//! Every fallible method returns the public [`ApiError`] taxonomy, so
//! embedded callers and wire clients share one error surface.

use crate::group::{GroupCommitter, GroupOptions, GroupStats};
use crate::{CommitInfo, CommitRequest, Delta, DurabilityOptions, GraphStore, StoreBuilder};
use graphiti_common::{ApiError, ApiResult};
use graphiti_engine::{BatchQuery, BatchReport, Snapshot};
use graphiti_graph::{GraphInstance, GraphSchema};
use graphiti_relational::{RelInstance, Table};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Acknowledgement of a committed delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitAck {
    /// The generation this delta became (each group member gets its
    /// own).
    pub generation: u64,
    /// The generation actually published to readers (for a group
    /// member, the whole group's single publication).
    pub published_generation: u64,
}

/// Service-level counters: the store's, plus the group committer's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Latest published generation.
    pub generation: u64,
    /// Committed deltas.
    pub commits: u64,
    /// Deltas rejected by validation.
    pub rejected_commits: u64,
    /// Live nodes in the master graph.
    pub live_nodes: u64,
    /// Live edges in the master graph.
    pub live_edges: u64,
    /// Whether the store is fenced (read-only degraded mode).
    pub fenced: bool,
    /// Commit groups formed (0 when group commit is off).
    pub groups_formed: u64,
    /// Total members across all groups.
    pub group_members: u64,
    /// Submissions refused with backpressure.
    pub backpressured: u64,
    /// Commits answered from the idempotency dedup table (a retried
    /// token whose original commit already landed).
    pub idempotent_replays: u64,
    /// Requests refused or abandoned because their deadline budget
    /// expired (server-side; 0 for an embedded service).
    pub deadlines_exceeded: u64,
    /// Idle connections reaped by the server's lifecycle governor
    /// (server-side; 0 for an embedded service).
    pub connections_reaped: u64,
    /// Requests refused with a typed `Draining` reply during shutdown
    /// (server-side; 0 for an embedded service).
    pub draining_refusals: u64,
    /// Wall-clock microseconds the last graceful drain took
    /// (server-side; 0 until a drain has run).
    pub drain_micros: u64,
    /// Queries executed by the embedded engine (wire protocol v3+).
    pub queries: u64,
    /// p95 query service time in microseconds (wire protocol v3+).
    pub query_p95_micros: u64,
    /// Span events recorded into the trace ring (wire protocol v3+).
    pub spans_recorded: u64,
    /// Span events dropped at contended ring slots (wire protocol v3+).
    pub spans_dropped: u64,
    /// Entries currently retained by the slow-query log (wire protocol
    /// v3+).
    pub slow_queries: u64,
}

/// One logical client of a graphiti service: a pinned read generation
/// plus a write path.  Implemented by [`EmbeddedSession`] (in-process)
/// and by the wire client's session type, so callers can be generic
/// over where the store actually lives.
pub trait Session {
    /// The snapshot generation this session currently reads.
    fn generation(&self) -> u64;

    /// Re-pins the session to the latest published generation and
    /// returns it.
    fn refresh(&mut self) -> ApiResult<u64>;

    /// Runs one query against the pinned snapshot.
    fn query(&mut self, query: &BatchQuery) -> ApiResult<Table>;

    /// Runs a batch against the pinned snapshot (per-query outcomes
    /// keep their individual errors).
    fn batch(&mut self, queries: &[BatchQuery]) -> ApiResult<BatchReport>;

    /// Commits a delta through the service's write path (group
    /// committer when configured).  On success the session is re-pinned
    /// at or past the publication, so it reads its own write.
    fn commit(&mut self, delta: Delta) -> ApiResult<CommitAck>;

    /// Service-level counters.
    fn stats(&mut self) -> ApiResult<ServiceStats>;

    /// Forces a checkpoint (durable stores only) and returns the
    /// generation it covers.
    fn checkpoint(&mut self) -> ApiResult<u64>;

    /// Closes the session; every later call fails with
    /// [`ApiError::SessionClosed`].
    fn close(&mut self) -> ApiResult<()>;
}

/// A shared graphiti service: the store, the optional group-commit
/// writer, and the query-pool sizing.  Cheap to clone; hand one to each
/// serving thread and open per-client [`EmbeddedSession`]s from it.
#[derive(Debug, Clone)]
pub struct Graphiti {
    store: Arc<GraphStore>,
    committer: Option<Arc<GroupCommitter>>,
    workers: usize,
}

impl Graphiti {
    /// Starts a [`GraphitiBuilder`] over `schema`.
    pub fn builder(schema: GraphSchema) -> GraphitiBuilder {
        GraphitiBuilder::new(schema)
    }

    /// Wraps an already-open store (no group committer, auto workers).
    pub fn embed(store: Arc<GraphStore>) -> Graphiti {
        Graphiti { store, committer: None, workers: graphiti_engine::available_workers() }
    }

    /// Opens a new in-process session pinned at the latest published
    /// generation.
    pub fn session(&self) -> EmbeddedSession {
        let (generation, snapshot) = self.store.published();
        EmbeddedSession { service: self.clone(), generation, snapshot, closed: false }
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<GraphStore> {
        &self.store
    }

    /// Whether commits coalesce through a group committer.
    pub fn group_commit_enabled(&self) -> bool {
        self.committer.is_some()
    }

    /// Batch-query worker threads sessions use.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Commits through the configured write path: the group committer
    /// when one exists (blocking submit — the bounded queue is the
    /// admission throttle), the store directly otherwise.
    pub fn commit(&self, req: impl Into<CommitRequest>) -> ApiResult<CommitAck> {
        let info = match &self.committer {
            Some(c) => c.submit(req).wait()?,
            None => self.store.commit(req)?,
        };
        Ok(ack(&info))
    }

    /// Like [`Graphiti::commit`], but refuses instead of blocking when
    /// the group queue is full, and bounds the wait for the group by
    /// `deadline` — the serving front-end's commit path.
    ///
    /// Outcomes:
    /// - `Ok(Ok(ack))` — committed (or answered from the dedup table).
    /// - `Ok(Err(req))` — the group queue was full; reply backpressure.
    /// - `Err(DeadlineExceeded)` — the deadline passed while the commit
    ///   was queued.  The commit **may still land** (the submission is
    ///   not cancelled), so the outcome is ambiguous; the token is what
    ///   makes a retry exactly-once.
    /// - `Err(other)` — the commit itself failed.
    ///
    /// With no group committer the store's mutex is the only queue; its
    /// lock is not abandonable, so the caller checks the deadline before
    /// entering.
    pub fn try_commit(
        &self,
        req: impl Into<CommitRequest>,
        deadline: Option<Instant>,
    ) -> ApiResult<std::result::Result<CommitAck, CommitRequest>> {
        let Some(committer) = &self.committer else {
            return Ok(Ok(ack(&self.store.commit(req)?)));
        };
        let ticket = match committer.try_submit(req) {
            Ok(ticket) => ticket,
            Err(req) => return Ok(Err(req)),
        };
        let info = match deadline {
            Some(d) => ticket.wait_deadline(d).map_err(|_abandoned| {
                ApiError::DeadlineExceeded(
                    "deadline expired while the commit was queued; the write may still land — \
                     retry with the same idempotency token"
                        .into(),
                )
            })?,
            None => ticket.wait(),
        };
        Ok(Ok(ack(&info?)))
    }

    /// Service-level counters — a point-in-time *view* over the shared
    /// observability registry plus the group committer's counters.
    pub fn service_stats(&self) -> ServiceStats {
        let s = self.store.stats();
        let g = self.committer.as_ref().map(|c| c.stats()).unwrap_or(GroupStats {
            groups_formed: 0,
            group_members: 0,
            backpressured: 0,
        });
        let obs = self.store.obs();
        let query_hist = obs.registry().histogram("graphiti_query_micros");
        ServiceStats {
            generation: s.generation,
            commits: s.commits,
            rejected_commits: s.rejected_commits,
            live_nodes: s.live_nodes as u64,
            live_edges: s.live_edges as u64,
            fenced: s.fenced,
            groups_formed: g.groups_formed,
            group_members: g.group_members,
            backpressured: g.backpressured,
            idempotent_replays: s.idempotent_replays,
            // The lifecycle counters are owned by the serving layer; a
            // wire server merges its own values into this snapshot.
            deadlines_exceeded: 0,
            connections_reaped: 0,
            draining_refusals: 0,
            drain_micros: 0,
            queries: query_hist.count(),
            query_p95_micros: query_hist.quantile(0.95),
            spans_recorded: obs.tracer().events_recorded(),
            spans_dropped: obs.tracer().events_dropped(),
            slow_queries: obs.slow_queries().len() as u64,
        }
    }

    /// The service's observability surface (the store's registry,
    /// tracer, and slow-query log).
    pub fn obs(&self) -> &Arc<graphiti_obs::Obs> {
        self.store.obs()
    }
}

/// The acknowledgement a committed request's [`CommitInfo`] carries.
fn ack(info: &CommitInfo) -> CommitAck {
    CommitAck { generation: info.generation, published_generation: info.published_generation }
}

/// The in-process [`Session`]: pins an `Arc<Snapshot>` and queries it
/// directly, no serialization anywhere.
#[derive(Debug)]
pub struct EmbeddedSession {
    service: Graphiti,
    generation: u64,
    snapshot: Arc<Snapshot>,
    closed: bool,
}

impl EmbeddedSession {
    /// Runs one query with per-operator profiling enabled, returning
    /// the result rows together with the
    /// [`QueryProfile`](graphiti_obs::profile::QueryProfile) the
    /// executor recorded for them.
    pub fn query_profiled(
        &mut self,
        query: &BatchQuery,
    ) -> ApiResult<(Table, graphiti_obs::profile::QueryProfile)> {
        self.open()?;
        let outcome = self.service.store.engine().execute_on_profiled(&self.snapshot, query);
        let profile = outcome.profile.clone().expect("profiled execution returns a profile");
        let table = outcome.result.map_err(ApiError::from)?;
        Ok((table, profile))
    }

    fn open(&self) -> ApiResult<()> {
        if self.closed {
            Err(ApiError::SessionClosed("session is closed".into()))
        } else {
            Ok(())
        }
    }

    fn repin(&mut self) {
        let (generation, snapshot) = self.service.store.published();
        self.generation = generation;
        self.snapshot = snapshot;
    }
}

impl Session for EmbeddedSession {
    fn generation(&self) -> u64 {
        self.generation
    }

    fn refresh(&mut self) -> ApiResult<u64> {
        self.open()?;
        self.repin();
        Ok(self.generation)
    }

    fn query(&mut self, query: &BatchQuery) -> ApiResult<Table> {
        self.open()?;
        let outcome = self.service.store.engine().execute_on(&self.snapshot, query);
        outcome.result.map_err(ApiError::from)
    }

    fn batch(&mut self, queries: &[BatchQuery]) -> ApiResult<BatchReport> {
        self.open()?;
        let engine = self.service.store.engine();
        Ok(engine.run_batch_on(&self.snapshot, queries, self.service.workers))
    }

    fn commit(&mut self, delta: Delta) -> ApiResult<CommitAck> {
        self.open()?;
        let ack = self.service.commit(delta)?;
        // Read-your-writes: the latest publication includes this commit.
        self.repin();
        Ok(ack)
    }

    fn stats(&mut self) -> ApiResult<ServiceStats> {
        self.open()?;
        Ok(self.service.service_stats())
    }

    fn checkpoint(&mut self) -> ApiResult<u64> {
        self.open()?;
        Ok(self.service.store.checkpoint_now()?)
    }

    fn close(&mut self) -> ApiResult<()> {
        self.closed = true;
        Ok(())
    }
}

/// Builds a [`Graphiti`] service: every [`StoreBuilder`] knob plus the
/// query-pool width and the group-commit write path, in one place.
#[derive(Debug)]
pub struct GraphitiBuilder {
    store: StoreBuilder,
    workers: usize,
    group: Option<GroupOptions>,
}

impl GraphitiBuilder {
    /// Starts a builder over `schema` (in-memory, solo commits, auto
    /// worker count).
    pub fn new(schema: GraphSchema) -> GraphitiBuilder {
        GraphitiBuilder { store: StoreBuilder::new(schema), workers: 0, group: None }
    }

    /// The initial graph (see [`StoreBuilder::bootstrap`]).
    pub fn bootstrap(mut self, graph: GraphInstance) -> GraphitiBuilder {
        self.store = self.store.bootstrap(graph);
        self
    }

    /// An extra named relational instance (see [`StoreBuilder::extra`]).
    pub fn extra(mut self, name: impl Into<String>, instance: RelInstance) -> GraphitiBuilder {
        self.store = self.store.extra(name, instance);
        self
    }

    /// Durable storage rooted at `path` (see [`StoreBuilder::durable`]).
    pub fn durable(mut self, path: impl Into<PathBuf>) -> GraphitiBuilder {
        self.store = self.store.durable(path);
        self
    }

    /// Replaces the whole [`DurabilityOptions`] block.
    pub fn durability(mut self, options: DurabilityOptions) -> GraphitiBuilder {
        self.store = self.store.durability(options);
        self
    }

    /// Fsync the WAL on every commit group (see
    /// [`StoreBuilder::fsync_each_commit`]).
    pub fn fsync_each_commit(mut self, on: bool) -> GraphitiBuilder {
        self.store = self.store.fsync_each_commit(on);
        self
    }

    /// Checkpoint every `n` commits (see
    /// [`StoreBuilder::checkpoint_interval`]).
    pub fn checkpoint_interval(mut self, n: u64) -> GraphitiBuilder {
        self.store = self.store.checkpoint_interval(n);
        self
    }

    /// The [`crate::vfs::Vfs`] store I/O flows through.
    pub fn vfs(mut self, fs: Arc<dyn crate::vfs::Vfs>) -> GraphitiBuilder {
        self.store = self.store.vfs(fs);
        self
    }

    /// Bounds the engine's plan cache (see
    /// [`StoreBuilder::plan_cache_capacity`]).
    pub fn plan_cache_capacity(mut self, capacity: usize) -> GraphitiBuilder {
        self.store = self.store.plan_cache_capacity(capacity);
        self
    }

    /// Batch-query worker threads per session batch (`0` = one per
    /// available core).
    pub fn workers(mut self, n: usize) -> GraphitiBuilder {
        self.workers = n;
        self
    }

    /// Routes commits through a [`GroupCommitter`] with these options.
    pub fn group_commit(mut self, options: GroupOptions) -> GraphitiBuilder {
        self.group = Some(options);
        self
    }

    /// Routes commits through a default-tuned [`GroupCommitter`].
    pub fn group_commit_default(self) -> GraphitiBuilder {
        self.group_commit(GroupOptions::default())
    }

    /// Opens the service.
    pub fn open(self) -> ApiResult<Graphiti> {
        let store = Arc::new(self.store.open()?);
        let committer = self.group.map(|opts| Arc::new(store.group_committer(opts)));
        let workers =
            if self.workers == 0 { graphiti_engine::available_workers() } else { self.workers };
        Ok(Graphiti { store, committer, workers })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphiti_common::Value;
    use graphiti_graph::NodeType;

    fn schema() -> GraphSchema {
        GraphSchema::new().with_node(NodeType::new("EMP", ["id", "name"]))
    }

    fn emp(i: i64) -> Delta {
        let mut d = Delta::new();
        d.add_node("EMP", [("id", Value::Int(i)), ("name", Value::str(format!("e{i}")))]);
        d
    }

    #[test]
    fn sessions_pin_until_refresh_and_see_their_own_writes() {
        let service = Graphiti::builder(schema()).open().unwrap();
        let mut reader = service.session();
        let mut writer = service.session();
        assert_eq!(reader.generation(), 0);

        writer.commit(emp(1)).unwrap();
        assert_eq!(writer.generation(), 1, "writers read their own writes");

        // The reader is still pinned at generation 0...
        let q = BatchQuery::cypher("MATCH (n:EMP) RETURN n.id AS i");
        assert_eq!(reader.query(&q).unwrap().len(), 0);
        assert_eq!(reader.generation(), 0);
        // ...until it opts into the newer generation.
        assert_eq!(reader.refresh().unwrap(), 1);
        assert_eq!(reader.query(&q).unwrap().len(), 1);
        assert_eq!(writer.query(&q).unwrap().len(), 1);
    }

    #[test]
    fn group_commit_path_acks_with_publication_generation() {
        let service = Graphiti::builder(schema()).group_commit_default().open().unwrap();
        assert!(service.group_commit_enabled());
        let mut s = service.session();
        let ack = s.commit(emp(1)).unwrap();
        assert_eq!(ack.generation, 1);
        assert!(ack.published_generation >= 1);
        let stats = s.stats().unwrap();
        assert_eq!(stats.commits, 1);
        assert_eq!(stats.group_members, 1);
        assert!(stats.groups_formed >= 1);
    }

    #[test]
    fn a_deadline_expiring_in_the_queue_is_ambiguous_and_the_retry_replays() {
        let service = Graphiti::builder(schema()).group_commit_default().open().unwrap();
        // Hold the store's state lock: the group committer blocks on the
        // first commit, and the tokened one, submitted after it, cannot
        // finish before its deadline.
        let state = service.store().state.lock().unwrap();
        let committer = service.committer.as_ref().expect("group commit is on");
        let first = committer.submit(emp(1));
        let tokened = || CommitRequest { token: Some(77), ..emp(2).into() };
        let deadline = Instant::now() + std::time::Duration::from_millis(1);
        assert_eq!(
            service.try_commit(tokened(), Some(deadline)).unwrap_err(),
            ApiError::DeadlineExceeded(
                "deadline expired while the commit was queued; the write may still land — retry \
                 with the same idempotency token"
                    .into()
            )
        );
        drop(state);
        assert_eq!(first.wait().unwrap().generation, 1);
        let retry = service.try_commit(tokened(), None).unwrap().unwrap();
        assert_eq!(retry.generation, 2, "the queued original landed; the retry replays it");
        let stats = service.service_stats();
        assert_eq!(stats.commits, 2);
        assert_eq!(stats.idempotent_replays, 1);
    }

    #[test]
    fn closed_sessions_fail_with_a_typed_error() {
        let service = Graphiti::builder(schema()).open().unwrap();
        let mut s = service.session();
        s.close().unwrap();
        let err = s.query(&BatchQuery::cypher("MATCH (n:EMP) RETURN n.id AS i")).unwrap_err();
        assert!(matches!(err, ApiError::SessionClosed(_)));
        assert!(matches!(s.commit(emp(1)), Err(ApiError::SessionClosed(_))));
    }

    #[test]
    fn rejections_and_unsupported_ops_map_to_api_errors() {
        let service = Graphiti::builder(schema()).open().unwrap();
        let mut s = service.session();
        s.commit(emp(1)).unwrap();
        let err = s.commit(emp(1)).unwrap_err();
        assert!(err.is_rejected(), "duplicate key rejection: {err}");
        // No durability layer -> checkpoint is Unsupported.
        assert!(matches!(s.checkpoint(), Err(ApiError::Unsupported(_))));
        // Parse errors surface through the query path.
        let err = s.query(&BatchQuery::cypher("MATCH (((")).unwrap_err();
        assert!(matches!(err, ApiError::Parse(_)), "got {err:?}");
    }

    #[test]
    fn batch_runs_on_the_pinned_snapshot() {
        let service = Graphiti::builder(schema()).workers(2).open().unwrap();
        let mut s = service.session();
        s.commit(emp(1)).unwrap();
        let pinned = s.generation();
        // A later commit by someone else must not leak into the batch.
        service.commit(emp(2)).unwrap();
        let report = s
            .batch(&[
                BatchQuery::cypher("MATCH (n:EMP) RETURN n.id AS i"),
                BatchQuery::sql("SELECT id FROM EMP"),
            ])
            .unwrap();
        assert_eq!(report.ok_count(), 2);
        for outcome in &report.outcomes {
            assert_eq!(outcome.result.as_ref().unwrap().len(), 1);
        }
        assert_eq!(s.generation(), pinned);
    }
}
