//! The batch execution service.
//!
//! An [`Engine`] owns one [`PlanCache`] and one worker pool, and
//! evaluates Cypher and SQL queries on snapshots its callers pin: every
//! entry point takes the [`Snapshot`] it runs on, so a query or a batch
//! sees one immutable generation end to end, and whoever publishes
//! generations (a writable store) alone decides which one is current.
//! The plan cache survives generation changes: plans are keyed by query
//! text + target, and the snapshot an engine is built from binds it to
//! the layouts those plans compile against (see [`Engine::new`]).  SQL
//! runs **vectorized**: cached compiled plans execute column-at-a-time
//! over the snapshot's columnar image
//! ([`eval_vectorized`](graphiti_sql::eval_vectorized)); the row-at-a-time
//! [`eval_compiled`](graphiti_sql::eval_compiled) path stays available (and
//! differentially tested) as the oracle.
//!
//! Parallel batches are served by a **persistent** [`WorkerPool`]: threads
//! spawn once per engine (lazily, on the first parallel batch) and are fed
//! jobs over a channel, so repeated small batches never pay thread-spawn
//! latency.  Within a batch, participating workers drain a shared atomic
//! work queue — cheap items don't stall behind expensive ones — and
//! results land in submission order.

use crate::cache::{CacheStats, PlanCache, SqlPlan, DEFAULT_PLAN_CACHE_CAPACITY};
use crate::pool::WorkerPool;
use crate::snapshot::{Layout, Snapshot, SqlTarget};
use graphiti_common::{Error, Result};
use graphiti_obs::metrics::Histogram;
use graphiti_obs::profile::{QueryProfile, StageProfile};
use graphiti_obs::Obs;
use graphiti_relational::Table;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One query of a batch.
#[derive(Debug, Clone)]
pub enum BatchQuery {
    /// A Cypher query over the snapshot's graph.
    Cypher {
        /// Query text.
        text: String,
    },
    /// A SQL query over one of the snapshot's relational instances.
    Sql {
        /// Query text.
        text: String,
        /// Which instance to evaluate against.
        target: SqlTarget,
    },
}

impl BatchQuery {
    /// A Cypher query over the graph.
    pub fn cypher(text: impl Into<String>) -> BatchQuery {
        BatchQuery::Cypher { text: text.into() }
    }

    /// A SQL query over the induced (SDT-image) instance.
    pub fn sql(text: impl Into<String>) -> BatchQuery {
        BatchQuery::Sql { text: text.into(), target: SqlTarget::Induced }
    }

    /// A SQL query over a named extra instance.
    pub fn sql_on(target: impl Into<String>, text: impl Into<String>) -> BatchQuery {
        BatchQuery::Sql { text: text.into(), target: SqlTarget::Named(target.into()) }
    }

    /// The query text.
    pub fn text(&self) -> &str {
        match self {
            BatchQuery::Cypher { text } | BatchQuery::Sql { text, .. } => text,
        }
    }
}

/// The result of one query of a batch.
#[derive(Debug)]
pub struct QueryOutcome {
    /// The result table, or the pipeline error (parse, plan, or eval).
    pub result: Result<Table>,
    /// Wall-clock microseconds spent on this query (including cache
    /// lookup, parse/compile on a miss, and evaluation).
    pub micros: u64,
    /// Whether the plan came from the cache.
    pub cache_hit: bool,
    /// The per-operator execution profile — populated only by the
    /// opt-in profiled entry point ([`Engine::execute_on_profiled`]);
    /// `None` on the plain path.
    pub profile: Option<QueryProfile>,
}

/// The result of a whole batch.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-query outcomes, in submission order.
    pub outcomes: Vec<QueryOutcome>,
    /// Wall-clock microseconds for the whole batch.
    pub wall_micros: u64,
    /// Worker threads used.
    pub workers: usize,
    /// The batch's outcomes whose plan came from the cache.
    pub cache_hits: u64,
    /// The batch's other outcomes: plans built on a miss, and queries
    /// that failed before reaching the cache.
    pub cache_misses: u64,
}

/// A point-in-time view of an engine's execution resources (see
/// [`Engine::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Threads in the persistent worker pool, or `None` while the pool has
    /// not been spawned yet (it spawns lazily on the first parallel batch).
    pub pool_threads: Option<usize>,
    /// The host parallelism the pool would size itself from.
    pub workers_available: usize,
    /// Plan-cache counters (hits, misses, residency, evictions, capacity).
    pub cache: CacheStats,
}

impl BatchReport {
    /// Number of successful queries.
    pub fn ok_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.result.is_ok()).count()
    }

    /// Number of failed queries.
    pub fn err_count(&self) -> usize {
        self.outcomes.len() - self.ok_count()
    }

    /// Batch throughput in queries per second (`0` for an empty batch).
    pub fn queries_per_sec(&self) -> f64 {
        if self.wall_micros == 0 {
            return 0.0;
        }
        self.outcomes.len() as f64 / (self.wall_micros as f64 / 1e6)
    }
}

/// The shared, thread-safe core of an engine: everything workers touch.
#[derive(Debug)]
struct EngineInner {
    /// The layouts the cached SQL plans compile against: a snapshot
    /// with a different layout is refused, never run on a stale plan.
    layout: Layout,
    cache: PlanCache,
    /// The shared observability context (registry + tracer + slow-query
    /// log).  Standalone engines own a private one; a store-embedded
    /// engine shares its service's.
    obs: Arc<Obs>,
    /// Per-query end-to-end service-time distribution.
    query_micros: Arc<Histogram>,
}

/// A parallel batch query service over the snapshots its callers pin.
#[derive(Debug)]
pub struct Engine {
    inner: Arc<EngineInner>,
    /// Lazily-spawned persistent worker pool (first parallel batch).
    pool: OnceLock<WorkerPool>,
}

impl Engine {
    /// Creates an engine with an empty plan cache, bound to the layout
    /// of `snapshot`: its graph schema and its extra instances' table
    /// columns, which are what cached SQL plans compile against.  The
    /// engine runs on any snapshot with that layout — every generation
    /// of one store shares it — and answers a typed error for any
    /// other.
    pub fn new(snapshot: Arc<Snapshot>) -> Engine {
        Engine::with_observability(snapshot, None, Arc::new(Obs::new()))
    }

    /// [`Engine::new`] wired into the caller's observability context,
    /// with an optional plan-cache capacity (see
    /// [`PlanCache::with_capacity`]): metric names (plan cache, query
    /// latency) register in the shared registry, and slow queries land
    /// in the shared log.  This is how a graph store threads one
    /// namespace through store + engine + server.
    pub fn with_observability(
        snapshot: Arc<Snapshot>,
        cache_capacity: Option<usize>,
        obs: Arc<Obs>,
    ) -> Engine {
        let registry = obs.registry();
        let cache = PlanCache::with_capacity_and_counters(
            cache_capacity.unwrap_or(DEFAULT_PLAN_CACHE_CAPACITY),
            registry.counter("graphiti_plan_cache_hits_total"),
            registry.counter("graphiti_plan_cache_misses_total"),
            registry.counter("graphiti_plan_cache_evictions_total"),
        );
        let query_micros = registry.histogram("graphiti_query_micros");
        let inner = EngineInner { layout: Layout::of(&snapshot), cache, obs, query_micros };
        Engine { inner: Arc::new(inner), pool: OnceLock::new() }
    }

    /// The engine's observability context.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.inner.obs
    }

    /// Current plan-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache.stats()
    }

    /// A lightweight point-in-time view of the engine's moving parts —
    /// observable without running a batch: worker-pool state plus the full
    /// plan-cache counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            pool_threads: self.pool.get().map(WorkerPool::threads),
            workers_available: crate::available_workers(),
            cache: self.inner.cache.stats(),
        }
    }

    /// Executes one query on a pinned snapshot, consulting (and
    /// populating) the plan cache.
    pub fn execute_on(&self, snapshot: &Snapshot, query: &BatchQuery) -> QueryOutcome {
        self.inner.execute_on(snapshot, query, false)
    }

    /// [`Engine::execute_on`] with the per-operator profile collected
    /// and returned in the outcome (the opt-in profiling flag).  Results
    /// are identical to the plain path.
    pub fn execute_on_profiled(&self, snapshot: &Snapshot, query: &BatchQuery) -> QueryOutcome {
        self.inner.execute_on(snapshot, query, true)
    }

    /// Executes an already-parsed SQL query on a pinned snapshot through
    /// the plan cache (keyed by the AST's rendered text), skipping the
    /// text parser.
    ///
    /// This is the entry point for callers that hold a transpiler's output:
    /// the differential oracle evaluates transpiled ASTs exactly, with no
    /// pretty-print/re-parse round-trip in the trusted path.
    pub fn execute_sql_ast(
        &self,
        snapshot: &Snapshot,
        ast: &graphiti_sql::SqlQuery,
        target: &SqlTarget,
    ) -> QueryOutcome {
        let text = graphiti_sql::query_to_string(ast);
        self.inner.funnel(snapshot, "sql", &text, false, || {
            self.inner.execute_sql(snapshot, &text, target, || Ok(ast.clone()), false)
        })
    }

    /// Evaluates a batch on a pinned snapshot across up to `workers`
    /// pool threads, returning per-query outcomes in submission order
    /// plus aggregate timing and the batch's own cache counts.  A
    /// serving session holds one `Arc<Snapshot>` and keeps reading that
    /// generation — across any number of intervening publications —
    /// until it opts into a refresh.
    ///
    /// `workers == 1` runs inline on the caller's thread (a true serial
    /// baseline with zero dispatch overhead); higher counts enqueue one
    /// drain job per participating worker on the engine's persistent pool
    /// (spawned once, on first use).  Results are deterministic: every
    /// query sees the same immutable snapshot, and the only shared mutable
    /// state is the plan cache, which never changes results (a cached plan
    /// is exactly what the miss path would have built).
    pub fn run_batch_on(
        &self,
        snapshot: &Arc<Snapshot>,
        batch: &[BatchQuery],
        workers: usize,
    ) -> BatchReport {
        let start = Instant::now();
        let workers = workers.max(1).min(batch.len().max(1));
        let outcomes: Vec<QueryOutcome> = if workers <= 1 {
            batch.iter().map(|q| self.inner.execute_on(snapshot, q, false)).collect()
        } else {
            self.dispatch_pooled(batch, workers, Arc::clone(snapshot))
        };
        let wall_micros = start.elapsed().as_micros() as u64;
        // Counted from the batch's own outcomes: the engine-wide counters
        // also move with every other caller's traffic.
        let cache_hits = outcomes.iter().filter(|o| o.cache_hit).count() as u64;
        BatchReport {
            cache_misses: outcomes.len() as u64 - cache_hits,
            outcomes,
            wall_micros,
            workers,
            cache_hits,
        }
    }

    /// Fans a batch across the persistent pool: one drain job per
    /// participating worker, all pulling indexes from a shared atomic
    /// counter, results merged and re-ordered at the end.
    fn dispatch_pooled(
        &self,
        batch: &[BatchQuery],
        workers: usize,
        snapshot: Arc<Snapshot>,
    ) -> Vec<QueryOutcome> {
        let pool = self.pool.get_or_init(|| WorkerPool::new(default_pool_threads()));
        let jobs = workers.min(pool.threads());
        let shared = Arc::new(BatchState {
            inner: Arc::clone(&self.inner),
            snapshot,
            queries: batch.to_vec(),
            next: AtomicUsize::new(0),
            merged: Mutex::new(Vec::with_capacity(batch.len())),
        });
        let (done_tx, done_rx) = channel::<()>();
        for _ in 0..jobs {
            let state = Arc::clone(&shared);
            let done = done_tx.clone();
            pool.submit(Box::new(move || {
                // Buffer locally, merge under one lock at exit: per-item
                // cost is a single relaxed fetch-add.
                let mut local: Vec<(usize, QueryOutcome)> = Vec::new();
                loop {
                    let i = state.next.fetch_add(1, Ordering::Relaxed);
                    if i >= state.queries.len() {
                        break;
                    }
                    let outcome = state.inner.execute_on(&state.snapshot, &state.queries[i], false);
                    local.push((i, outcome));
                }
                state.merged.lock().unwrap_or_else(|p| p.into_inner()).extend(local);
                let _ = done.send(());
            }));
        }
        drop(done_tx);
        let mut finished = 0;
        while finished < jobs {
            match done_rx.recv() {
                Ok(()) => finished += 1,
                Err(_) => break, // a worker died; detected below
            }
        }
        let pairs = std::mem::take(&mut *shared.merged.lock().unwrap_or_else(|p| p.into_inner()));
        merge_pooled_outcomes(pairs, batch.len())
    }
}

/// Reassembles pooled results into submission order.  A pool worker that
/// panics mid-batch takes its claimed-but-unreported queries with it;
/// rather than panicking the *caller* (the pre-PR6 behavior was an
/// `assert_eq!` on the merged length), the lost slots surface as per-query
/// errors and every query another worker finished is still returned.
pub(crate) fn merge_pooled_outcomes(
    pairs: Vec<(usize, QueryOutcome)>,
    len: usize,
) -> Vec<QueryOutcome> {
    let mut slots: Vec<Option<QueryOutcome>> = (0..len).map(|_| None).collect();
    for (i, outcome) in pairs {
        if i < len {
            slots[i] = Some(outcome);
        }
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.unwrap_or_else(|| QueryOutcome {
                result: Err(Error::eval(format!(
                    "batch query #{i} was lost to a panicked pool worker"
                ))),
                micros: 0,
                cache_hit: false,
                profile: None,
            })
        })
        .collect()
}

/// Pool size: every available core, but at least 8 so worker-ladder
/// benchmarks exercise real threads even on small hosts.
fn default_pool_threads() -> usize {
    crate::available_workers().max(8)
}

/// Everything one in-flight batch shares with its pool jobs, including the
/// generation the batch pinned at submission.
struct BatchState {
    inner: Arc<EngineInner>,
    snapshot: Arc<Snapshot>,
    queries: Vec<BatchQuery>,
    next: AtomicUsize,
    merged: Mutex<Vec<(usize, QueryOutcome)>>,
}

/// What evaluating one query yields: the result, whether its plan came
/// from the cache, and the per-operator profile (empty unless profiled).
type Evaluated = (Result<Table>, bool, Vec<StageProfile>);

impl EngineInner {
    /// Executes one query on a pinned generation.
    fn execute_on(&self, snapshot: &Snapshot, query: &BatchQuery, profiled: bool) -> QueryOutcome {
        let language = match query {
            BatchQuery::Cypher { .. } => "cypher",
            BatchQuery::Sql { .. } => "sql",
        };
        self.funnel(snapshot, language, query.text(), profiled, || match query {
            BatchQuery::Cypher { text } => self.execute_cypher(snapshot, text, profiled),
            BatchQuery::Sql { text, target } => {
                let parse = || graphiti_sql::parse_query(text);
                self.execute_sql(snapshot, text, target, parse, profiled)
            }
        })
    }

    /// The single execution funnel.  Every query — profiled or not — is
    /// checked against the engine's layout, records its end-to-end
    /// service time into the engine's histogram, and offers itself to the
    /// slow-query log (stage-less when unprofiled: one relaxed load on the
    /// fast path once the log is warm).
    fn funnel(
        &self,
        snapshot: &Snapshot,
        language: &str,
        text: &str,
        profiled: bool,
        evaluate: impl FnOnce() -> Evaluated,
    ) -> QueryOutcome {
        let start = Instant::now();
        let (result, cache_hit, stages) = match self.layout.check(snapshot) {
            Ok(()) => evaluate(),
            Err(e) => (Err(e), false, Vec::new()),
        };
        let micros = start.elapsed().as_micros() as u64;
        self.query_micros.record(micros);
        let profile = QueryProfile {
            language: language.to_string(),
            text: text.to_string(),
            micros,
            cache_hit,
            rows: result.as_ref().map(|t| t.rows.len() as u64).unwrap_or(0),
            stages,
        };
        let returned = profiled.then(|| profile.clone());
        self.obs.slow_queries().record(profile);
        QueryOutcome { result, micros, cache_hit, profile: returned }
    }

    fn execute_cypher(&self, snapshot: &Snapshot, text: &str, profiled: bool) -> Evaluated {
        let (ast, hit) = match self.cache.cypher(text, || graphiti_cypher::parse_query(text)) {
            Ok(pair) => pair,
            Err(e) => return (Err(e), false, Vec::new()),
        };
        let (schema, graph) = (snapshot.schema(), snapshot.graph());
        if profiled {
            match graphiti_cypher::eval_query_profiled(schema, graph, &ast) {
                Ok((table, stages)) => (Ok(table), hit, stages),
                Err(e) => (Err(e), hit, Vec::new()),
            }
        } else {
            (graphiti_cypher::eval_query(schema, graph, &ast), hit, Vec::new())
        }
    }

    /// Runs the SQL query keyed by `text`; `parse` yields its AST on a
    /// cache miss.
    fn execute_sql(
        &self,
        snapshot: &Snapshot,
        text: &str,
        target: &SqlTarget,
        parse: impl FnOnce() -> Result<graphiti_sql::SqlQuery>,
        profiled: bool,
    ) -> Evaluated {
        let (instance, columnar) =
            match (snapshot.sql_instance(target), snapshot.sql_columnar(target)) {
                (Ok(instance), Ok(columnar)) => (instance, columnar),
                (Err(e), _) | (_, Err(e)) => return (Err(e), false, Vec::new()),
            };
        let (plan, hit) = match self.cache.sql(text, target, || {
            let ast = parse()?;
            let plan = graphiti_sql::compile_query(instance, &ast)?;
            Ok(SqlPlan { ast, plan })
        }) {
            Ok(pair) => pair,
            Err(e) => return (Err(e), false, Vec::new()),
        };
        if profiled {
            match graphiti_sql::eval_vectorized_profiled(instance, columnar, &plan.plan) {
                Ok((table, stages)) => (Ok(table), hit, stages),
                Err(e) => (Err(e), hit, Vec::new()),
            }
        } else {
            (graphiti_sql::eval_vectorized(instance, columnar, &plan.plan), hit, Vec::new())
        }
    }
}
