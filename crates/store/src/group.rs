//! The asynchronous group-commit front of a [`GraphStore`].
//!
//! The store's one commit pipeline amortizes the WAL fsync, the image
//! derivation and the generation publication across a *batch* of
//! [`CommitRequest`]s (a solo [`GraphStore::commit`] is a batch of one),
//! but somebody has to form larger batches: [`GroupCommitter`] is that
//! somebody.  Writers [`submit`](GroupCommitter::submit) requests into a
//! **bounded** queue and block on a [`CommitTicket`]; one background
//! thread drains whatever has accumulated while the previous group was
//! committing (classic group commit: the slower the disk, the bigger —
//! and more efficient — the groups) and distributes the per-member
//! results.
//!
//! The bounded queue doubles as admission control: when it is full,
//! [`try_submit`](GroupCommitter::try_submit) hands the request back
//! instead of queueing unboundedly, which a server maps to a
//! backpressure reply.

use crate::{CommitInfo, CommitRequest, GraphStore, StoreError, StoreResult};
use graphiti_obs::metrics::{Counter, Histogram};
use graphiti_obs::trace::Tracer;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Tuning knobs of a [`GroupCommitter`].
#[derive(Debug, Clone, Copy)]
pub struct GroupOptions {
    /// Maximum requests coalesced into one commit batch (bounds
    /// worst-case publication latency).
    pub max_group: usize,
    /// Capacity of the submission queue.  A full queue rejects
    /// [`GroupCommitter::try_submit`] (backpressure) and blocks
    /// [`GroupCommitter::submit`].
    pub queue_depth: usize,
}

impl Default for GroupOptions {
    fn default() -> GroupOptions {
        GroupOptions { max_group: 64, queue_depth: 256 }
    }
}

/// Point-in-time counters of a [`GroupCommitter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupStats {
    /// Groups formed (each one WAL fsync + one publication).
    pub groups_formed: u64,
    /// Total members across all groups (`members / groups` is the
    /// achieved amortization factor).
    pub group_members: u64,
    /// Submissions refused because the queue was full.
    pub backpressured: u64,
}

#[derive(Debug)]
struct Counters {
    groups: Counter,
    members: Counter,
    backpressured: Counter,
}

/// One queued request plus the channel its result travels back on.
struct Submission {
    req: CommitRequest,
    /// The `group.queue` span opened at submission of a traced request,
    /// closed when the worker drains it.
    queue_span: u64,
    enqueued: Instant,
    reply: SyncSender<StoreResult<CommitInfo>>,
}

/// A pending group-commit submission.  [`CommitTicket::wait`] blocks
/// until the submission's group has committed (or failed) and returns
/// this member's individual result.
#[derive(Debug)]
pub struct CommitTicket {
    rx: Receiver<StoreResult<CommitInfo>>,
}

impl CommitTicket {
    /// Blocks until the group containing this submission commits,
    /// returning this member's own result.
    pub fn wait(self) -> StoreResult<CommitInfo> {
        self.rx.recv().unwrap_or_else(|_| {
            Err(StoreError::Internal(
                "group committer shut down before replying to a submission".into(),
            ))
        })
    }

    /// [`CommitTicket::wait`] bounded by a deadline.  `Err(self)` means
    /// the deadline passed with the group still in flight: the commit
    /// **may still land** (it is queued, not cancelled), so the caller
    /// must treat the outcome as ambiguous — reply `DeadlineExceeded`
    /// and rely on an idempotency token to make the retry exactly-once.
    pub fn wait_deadline(
        self,
        deadline: Instant,
    ) -> std::result::Result<StoreResult<CommitInfo>, CommitTicket> {
        loop {
            let now = Instant::now();
            let Some(left) = deadline.checked_duration_since(now) else {
                // One last non-blocking look: the reply may already be
                // queued, in which case the commit is not ambiguous.
                return match self.rx.try_recv() {
                    Ok(result) => Ok(result),
                    Err(_) => Err(self),
                };
            };
            match self.rx.recv_timeout(left) {
                Ok(result) => return Ok(result),
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => {
                    return Ok(Err(StoreError::Internal(
                        "group committer shut down before replying to a submission".into(),
                    )));
                }
            }
        }
    }
}

/// The background batching writer over an `Arc<GraphStore>`.  Dropping
/// the committer drains the queue (every queued submission still gets
/// its result) and joins the worker thread.
#[derive(Debug)]
pub struct GroupCommitter {
    tx: Option<SyncSender<Submission>>,
    worker: Option<JoinHandle<()>>,
    counters: Arc<Counters>,
    tracer: Arc<Tracer>,
}

impl GroupCommitter {
    /// Spawns a committer over `store` with the given options.
    pub fn new(store: Arc<GraphStore>, options: GroupOptions) -> GroupCommitter {
        let (tx, rx) = sync_channel::<Submission>(options.queue_depth.max(1));
        let registry = store.obs().registry();
        let counters = Arc::new(Counters {
            groups: registry.counter("graphiti_groups_formed_total"),
            members: registry.counter("graphiti_group_members_total"),
            backpressured: registry.counter("graphiti_backpressured_total"),
        });
        let queue_wait: Arc<Histogram> = registry.histogram("graphiti_group_queue_wait_micros");
        let tracer = Arc::clone(store.obs().tracer());
        let thread_counters = Arc::clone(&counters);
        let thread_tracer = Arc::clone(&tracer);
        let max_group = options.max_group.max(1);
        let worker = std::thread::Builder::new()
            .name("graphiti-group-commit".into())
            .spawn(move || {
                // Block for the first submission, then greedily drain
                // whatever queued up behind it: groups grow exactly as
                // fast as commits are slow.
                while let Ok(first) = rx.recv() {
                    let mut batch = vec![first];
                    while batch.len() < max_group {
                        match rx.try_recv() {
                            Ok(s) => batch.push(s),
                            Err(_) => break,
                        }
                    }
                    let mut reqs = Vec::with_capacity(batch.len());
                    let mut replies = Vec::with_capacity(batch.len());
                    for s in batch {
                        queue_wait.record(s.enqueued.elapsed().as_micros() as u64);
                        if s.req.trace != 0 {
                            thread_tracer.span_end(s.req.trace, s.queue_span, 0, "group.queue");
                        }
                        reqs.push(s.req);
                        replies.push(s.reply);
                    }
                    thread_counters.groups.inc();
                    thread_counters.members.add(replies.len() as u64);
                    let results = store.commit_batch(reqs);
                    debug_assert_eq!(results.len(), replies.len());
                    for (result, reply) in results.into_iter().zip(replies) {
                        // A submitter that stopped waiting is its own
                        // problem; the group must not unravel over it.
                        let _ = reply.send(result);
                    }
                }
            })
            .expect("spawning the group-commit thread");
        GroupCommitter { tx: Some(tx), worker: Some(worker), counters, tracer }
    }

    /// Queues a request, **blocking** while the queue is full, and
    /// returns the ticket its result arrives on.  A traced request
    /// (non-zero [`CommitRequest::trace`]) opens a `group.queue` span
    /// here and the worker closes it when the request is drained, so
    /// queue wait is visible per request as well as in the
    /// `graphiti_group_queue_wait_micros` histogram.
    pub fn submit(&self, req: impl Into<CommitRequest>) -> CommitTicket {
        let (submission, ticket) = self.submission(req.into());
        let tx = self.tx.as_ref().expect("sender lives until drop");
        // The worker owns the receiver for the committer's lifetime, so
        // a send only fails after drop (unreachable from `&self`).
        tx.send(submission).expect("group-commit worker is alive");
        ticket
    }

    /// Queues a request **without blocking**: a full queue hands the
    /// request back (`Err`) so the caller can reply with backpressure
    /// instead of stalling.
    pub fn try_submit(
        &self,
        req: impl Into<CommitRequest>,
    ) -> std::result::Result<CommitTicket, CommitRequest> {
        let (submission, ticket) = self.submission(req.into());
        let tx = self.tx.as_ref().expect("sender lives until drop");
        match tx.try_send(submission) {
            Ok(()) => Ok(ticket),
            Err(TrySendError::Full(s)) | Err(TrySendError::Disconnected(s)) => {
                self.counters.backpressured.inc();
                if s.req.trace != 0 {
                    // The refused request never queued: close its span.
                    self.tracer.span_end(s.req.trace, s.queue_span, 0, "group.queue");
                }
                Err(s.req)
            }
        }
    }

    /// Wraps a request for the queue, opening its `group.queue` span.
    fn submission(&self, req: CommitRequest) -> (Submission, CommitTicket) {
        let (reply, rx) = sync_channel(1);
        let queue_span =
            if req.trace != 0 { self.tracer.span_begin(req.trace, 0, "group.queue") } else { 0 };
        (Submission { req, queue_span, enqueued: Instant::now(), reply }, CommitTicket { rx })
    }

    /// Point-in-time batching counters.
    pub fn stats(&self) -> GroupStats {
        GroupStats {
            groups_formed: self.counters.groups.get(),
            group_members: self.counters.members.get(),
            backpressured: self.counters.backpressured.get(),
        }
    }
}

impl Drop for GroupCommitter {
    fn drop(&mut self) {
        // Closing the channel lets the worker drain the queue and exit;
        // joining guarantees every queued ticket got its result first.
        drop(self.tx.take());
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl GraphStore {
    /// Spawns a [`GroupCommitter`] over this (shared) store.
    pub fn group_committer(self: &Arc<Self>, options: GroupOptions) -> GroupCommitter {
        GroupCommitter::new(Arc::clone(self), options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Delta;
    use graphiti_common::Value;
    use graphiti_graph::{GraphSchema, NodeType};

    fn schema() -> GraphSchema {
        GraphSchema::new().with_node(NodeType::new("EMP", ["id", "name"]))
    }

    fn emp(i: i64) -> Delta {
        let mut d = Delta::new();
        d.add_node("EMP", [("id", Value::Int(i)), ("name", Value::str(format!("e{i}")))]);
        d
    }

    #[test]
    fn concurrent_submissions_all_commit_exactly_once() {
        let store = Arc::new(GraphStore::builder(schema()).open().unwrap());
        let committer = Arc::new(store.group_committer(GroupOptions::default()));
        let mut handles = Vec::new();
        for t in 0..8 {
            let committer = Arc::clone(&committer);
            handles.push(std::thread::spawn(move || {
                let mut gens = Vec::new();
                for k in 0..10 {
                    let info = committer.submit(emp(t * 100 + k)).wait().unwrap();
                    gens.push(info.generation);
                    assert!(info.published_generation >= info.generation);
                }
                gens
            }));
        }
        let mut all: Vec<u64> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort_unstable();
        // 80 distinct generations 1..=80: every member got its own.
        assert_eq!(all, (1..=80).collect::<Vec<_>>());
        assert_eq!(store.stats().commits, 80);
        assert_eq!(store.stats().live_nodes, 80);
        let stats = committer.stats();
        assert_eq!(stats.group_members, 80);
        assert!(stats.groups_formed <= 80);
    }

    #[test]
    fn rejected_members_fail_alone() {
        let store = Arc::new(GraphStore::builder(schema()).open().unwrap());
        let committer = store.group_committer(GroupOptions::default());
        let ok1 = committer.submit(emp(1));
        let dup = committer.submit(emp(1)); // duplicate default key
        let ok2 = committer.submit(emp(2));
        assert!(ok1.wait().is_ok());
        assert!(matches!(dup.wait(), Err(StoreError::Rejected(_))));
        assert!(ok2.wait().is_ok());
        assert_eq!(store.stats().live_nodes, 2);
        assert_eq!(store.stats().rejected_commits, 1);
    }

    #[test]
    fn full_queue_backpressures_try_submit() {
        let store = Arc::new(GraphStore::builder(schema()).open().unwrap());
        // Stall the worker with a fat first group? Simpler: fill a tiny
        // queue faster than the worker can drain by submitting while it
        // is busy is racy — instead drop to depth 1 and rely on at least
        // one refusal across many rapid submissions being *possible*,
        // not required.  The deterministic contract tested here: a
        // refused submission returns the delta intact.
        let committer = store.group_committer(GroupOptions { max_group: 4, queue_depth: 1 });
        let mut tickets = Vec::new();
        let mut returned = Vec::new();
        for i in 0..64 {
            match committer.try_submit(emp(i)) {
                Ok(t) => tickets.push(t),
                Err(d) => returned.push(d),
            }
        }
        for d in returned {
            // Returned deltas are intact and can be resubmitted.
            tickets.push(committer.submit(d));
        }
        for t in tickets {
            t.wait().unwrap();
        }
        assert_eq!(store.stats().live_nodes, 64);
    }

    #[test]
    fn drop_drains_queued_submissions() {
        let store = Arc::new(GraphStore::builder(schema()).open().unwrap());
        let committer = store.group_committer(GroupOptions::default());
        let tickets: Vec<CommitTicket> = (0..16).map(|i| committer.submit(emp(i))).collect();
        drop(committer);
        for t in tickets {
            assert!(t.wait().is_ok(), "queued submissions survive drop");
        }
        assert_eq!(store.stats().live_nodes, 16);
    }
}
