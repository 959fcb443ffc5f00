//! The one adapter between the benchmark and the program's layers.
//!
//! Every per-layer entry point the traced run times, and every registry
//! cell it reads, goes through this module.  When a layer's API changes
//! (one query or commit request type, one wire codec), only this file
//! changes; the end-to-end run uses nothing but `Graphiti::builder`,
//! `Server` and `Client`/`WireSession`.

use crate::data::{Change, Keys, Op, Resolve};
use graphiti_common::Value;
use graphiti_common::{ApiResult, Result};
use graphiti_core::SdtContext;
use graphiti_engine::{BatchQuery, BatchReport, Engine, Snapshot};
use graphiti_graph::{GraphInstance, GraphSchema};
use graphiti_obs::metrics::MetricSnapshot;
use graphiti_relational::Table;
use graphiti_server::protocol::{self, Request, Response};
use graphiti_sql::{SqlPred, SqlQuery};
use graphiti_store::{CommitAck, Delta, EdgeKey, GraphStore, Graphiti, NodeKey, Session};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Microseconds since `t`.
pub fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// `f`'s result and its wall time in microseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, us_since(t))
}

// ------------------------------------------------------------ registry

/// A point-in-time read of the service's metrics registry: counters as
/// `(value, 0)`, histograms as `(sum, count)`.  Histograms are read only
/// through these two cells, never through their bucket quantiles.
#[derive(Debug, Clone, Default)]
pub struct Cells(BTreeMap<String, (u64, u64)>);

impl Cells {
    pub fn read(service: &Graphiti) -> Cells {
        Cells(
            service
                .obs()
                .registry()
                .snapshot()
                .into_iter()
                .filter_map(|(name, m)| match m {
                    MetricSnapshot::Counter(v) => Some((name, (v, 0))),
                    MetricSnapshot::Histogram(h) => Some((name, (h.sum, h.count))),
                    MetricSnapshot::Gauge(_) => None,
                })
                .collect(),
        )
    }

    /// `self - before`, cell by cell.
    pub fn since(&self, before: &Cells) -> Cells {
        Cells(
            self.0
                .iter()
                .map(|(k, &(s, c))| {
                    let (s0, c0) = before.0.get(k).copied().unwrap_or((0, 0));
                    (k.clone(), (s.saturating_sub(s0), c.saturating_sub(c0)))
                })
                .collect(),
        )
    }

    /// A counter's value.
    pub fn counter(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |c| c.0 as f64)
    }

    /// A histogram's sample count.
    pub fn count(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |c| c.1 as f64)
    }

    /// A histogram's mean sample (`0` when empty).
    pub fn mean(&self, name: &str) -> f64 {
        ratio(self.counter(name), self.count(name))
    }
}

/// `a / b`, or `0` when `b` is zero.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

// ------------------------------------------------------------ spans

/// One timed call into a layer, recorded by the benchmark around the
/// call.
#[derive(Debug, Clone)]
pub struct Span {
    pub op: Op,
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
    /// What the layer produced: result rows, or reply bytes for the
    /// codec's response decode.
    pub produced: Option<usize>,
}

impl Span {
    pub fn us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// In-memory span log of one client thread.
#[derive(Debug)]
pub struct Spans {
    base: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(base: Instant) -> Spans {
        Spans { base, spans: Vec::new() }
    }

    /// Runs `f` inside a span; returns its result and the span's index.
    fn record<T>(
        &mut self,
        op: Op,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start_us = self.base.elapsed().as_secs_f64() * 1e6;
        let out = f();
        let end_us = self.base.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span { op, name, request, parent, start_us, end_us, produced: None });
        (out, self.spans.len() - 1)
    }

    fn set_produced(&mut self, span: usize, n: usize) {
        self.spans[span].produced = Some(n);
    }
}

// ------------------------------------------------------------ replays

/// Everything a replay needs besides the request itself.
#[derive(Clone, Copy)]
pub struct ReplayCtx<'a> {
    pub service: &'a Graphiti,
    /// An in-memory store over the same seed graph that every
    /// acknowledged change is applied to, so it tracks the served graph.
    pub memory: &'a GraphStore,
    /// Seed-graph keys, identical in both stores.
    pub keys: &'a Keys,
}

fn codec_round(
    spans: &mut Spans,
    op: Op,
    id: u64,
    root: usize,
    req: &Request,
    resp: &Response,
) -> ApiResult<usize> {
    let (bytes, _) = spans.record(op, "codec.encode_request", id, Some(root), || {
        protocol::encode_request(id, 0, req)
    });
    let ((_, _, decoded), _) = spans
        .record(op, "codec.decode_request", id, Some(root), || protocol::decode_request(&bytes));
    decoded?;
    let (reply, _) = spans.record(op, "codec.encode_response", id, Some(root), || {
        protocol::encode_response(id, resp)
    });
    let ((_, decoded), s) = spans
        .record(op, "codec.decode_response", id, Some(root), || protocol::decode_response(&reply));
    decoded?;
    spans.set_produced(s, reply.len());
    Ok(reply.len())
}

/// Whether a SQL query filters on a subquery anywhere.
pub fn has_subquery(q: &SqlQuery) -> bool {
    let pred = |p: &SqlPred| p.has_subquery();
    match q {
        SqlQuery::Table(_) => false,
        SqlQuery::Select { input, pred: p } => pred(p) || has_subquery(input),
        SqlQuery::Join { left, right, pred: p, .. } => {
            pred(p) || has_subquery(left) || has_subquery(right)
        }
        SqlQuery::Project { input, .. }
        | SqlQuery::Rename { input, .. }
        | SqlQuery::OrderBy { input, .. } => has_subquery(input),
        SqlQuery::GroupBy { input, having, .. } => pred(having) || has_subquery(input),
        SqlQuery::Union(a, b) | SqlQuery::UnionAll(a, b) => has_subquery(a) || has_subquery(b),
        SqlQuery::With { definition, body, .. } => has_subquery(definition) || has_subquery(body),
    }
}

/// Replays one answered read (`reply` is the wire answer, read at
/// `generation`) layer by layer: the wire codec on the same values, the
/// in-process session, the engine, and the query language's own parse,
/// compile and execute.  Lookups reach the engine through a cache-less
/// engine, so the replay pays the plan miss their wire request paid; fixed
/// texts hit the shared plan cache, as on the wire.  Returns whether a
/// concurrent commit moved the replay to a newer generation (its answer
/// is then not compared).
pub fn replay_read(
    ctx: &ReplayCtx<'_>,
    spans: &mut Spans,
    op: Op,
    id: u64,
    query: &BatchQuery,
    reply: Table,
    generation: u64,
) -> Result<bool> {
    let (_, root) = spans.record(op, "request", id, None, || ());
    let req = Request::Query(query.clone());
    let resp = Response::Rows(reply);
    codec_round(spans, op, id, root, &req, &resp).map_err(api)?;
    let Response::Rows(reply) = resp else { unreachable!("built above") };

    let mut session = ctx.service.session();
    let skewed = session.generation() != generation;
    let (answer, session_span) =
        spans.record(op, "store.session", id, Some(root), || session.query(query));
    if answer.map_err(api)?.len() != reply.len() && !skewed {
        return Err(graphiti_common::Error::eval("replayed session disagrees with the wire"));
    }
    let (_, snapshot) = ctx.service.store().published();
    let cold;
    let engine = if op == Op::Lookup {
        cold = Engine::new(Arc::clone(&snapshot));
        &cold
    } else {
        ctx.service.store().engine()
    };
    let (outcome, engine_span) = spans.record(op, "engine.execute", id, Some(session_span), || {
        engine.execute_on(&snapshot, query)
    });
    outcome.result?;
    match query {
        BatchQuery::Cypher { text } => {
            let (ast, _) = spans.record(op, "cypher.parse", id, Some(engine_span), || {
                graphiti_cypher::parse_query(text)
            });
            let ast = ast?;
            let (table, s) = spans.record(op, "cypher.match", id, Some(engine_span), || {
                graphiti_cypher::eval_query(snapshot.schema(), snapshot.graph(), &ast)
            });
            spans.set_produced(s, table?.len());
        }
        BatchQuery::Sql { text, target } => {
            let instance = snapshot.sql_instance(target)?;
            let columnar = snapshot.sql_columnar(target)?;
            let (ast, _) = spans
                .record(op, "sql.parse", id, Some(engine_span), || graphiti_sql::parse_query(text));
            let ast = ast?;
            let (plan, _) = spans.record(op, "sql.compile", id, Some(engine_span), || {
                graphiti_sql::compile_query(instance, &ast)
            });
            let plan = plan?;
            let name = if has_subquery(&ast) { "sql.exec.subquery" } else { "sql.exec.flat" };
            let (table, s) = spans.record(op, name, id, Some(engine_span), || {
                graphiti_sql::eval_vectorized(instance, columnar, &plan)
            });
            spans.set_produced(s, table?.len());
        }
    }
    Ok(skewed)
}

/// Replays one answered batch: codec, session, pooled engine batch, and
/// the same queries executed one by one.
pub fn replay_batch(
    ctx: &ReplayCtx<'_>,
    spans: &mut Spans,
    id: u64,
    queries: &[BatchQuery],
    reply: BatchReport,
) -> Result<()> {
    let op = Op::Batch;
    let (_, root) = spans.record(op, "request", id, None, || ());
    let req = Request::Batch(queries.to_vec());
    codec_round(spans, op, id, root, &req, &Response::BatchOk(reply)).map_err(api)?;
    let mut session = ctx.service.session();
    let (report, session_span) =
        spans.record(op, "store.session", id, Some(root), || session.batch(queries));
    report.map_err(api)?;
    let (_, snapshot) = ctx.service.store().published();
    let engine = ctx.service.store().engine();
    let workers = ctx.service.workers();
    spans.record(op, "engine.batch", id, Some(session_span), || {
        engine.run_batch_on(&snapshot, queries, workers)
    });
    spans.record(op, "engine.batch_serial", id, Some(session_span), || {
        for q in queries {
            let _ = engine.execute_on(&snapshot, q);
        }
    });
    Ok(())
}

/// Applies one acknowledged change, untimed, to the in-memory store.
pub fn track(ctx: &ReplayCtx<'_>, change: &Change) -> Result<()> {
    let delta = change.delta(ctx.keys, ctx.memory);
    ctx.memory.commit(delta).map_err(|e| graphiti_common::Error::eval(e.to_string()))?;
    Ok(())
}

/// Replays one acknowledged commit: the codec on the same delta and
/// acknowledgement, and the same change through the in-memory store's
/// commit (validate, apply, derive images, publish; no WAL), timed.
pub fn replay_commit(
    ctx: &ReplayCtx<'_>,
    spans: &mut Spans,
    id: u64,
    change: &Change,
    delta: Delta,
    ack: CommitAck,
) -> Result<()> {
    let op = Op::Commit;
    let (_, root) = spans.record(op, "request", id, None, || ());
    let req = Request::Commit { delta, token: u128::from(id) << 64 | 1 };
    let resp = Response::CommitOk { ack, session_generation: ack.published_generation };
    codec_round(spans, op, id, root, &req, &resp).map_err(api)?;
    let memory = ctx.memory;
    let delta = change.delta(ctx.keys, memory);
    let (info, _) =
        spans.record(op, "store.memory_commit", id, Some(root), || memory.commit(delta));
    info.map_err(|e| graphiti_common::Error::eval(e.to_string()))?;
    Ok(())
}

fn api(e: graphiti_common::ApiError) -> graphiti_common::Error {
    graphiti_common::Error::eval(e.to_string())
}

// ------------------------------------------------------------ one-shot layers

/// Stable keys in a store by id.  Writers look keys up between requests
/// to retire their oldest inserts and to delete follows; it is
/// bookkeeping, not a measured call.
impl Resolve for GraphStore {
    fn user(&self, uid: i64) -> Option<NodeKey> {
        self.node_key("USR", &Value::Int(uid))
    }

    fn follow(&self, fid: i64) -> Option<EdgeKey> {
        self.edge_key("FOLLOWS", &Value::Int(fid))
    }
}

/// An in-memory store over `graph` (the commit replays' target).
pub fn memory_store(schema: GraphSchema, graph: GraphInstance) -> Result<GraphStore> {
    GraphStore::builder(schema)
        .bootstrap(graph)
        .open()
        .map_err(|e| graphiti_common::Error::eval(e.to_string()))
}

/// Seconds for one cold `Snapshot::freeze` of the seed graph.
pub fn freeze_s(schema: &GraphSchema, graph: &GraphInstance) -> Result<f64> {
    let (schema, graph) = (schema.clone(), graph.clone());
    let (snap, us) = timed(|| Snapshot::freeze(schema, graph));
    snap?;
    Ok(us / 1e6)
}

/// The induced-schema context every snapshot of `schema` carries.
pub fn sdt_context(schema: &GraphSchema) -> Result<SdtContext> {
    graphiti_core::infer_sdt(schema)
}

/// A Cypher text's SQL translation, and the microseconds it took.
pub fn transpile(ctx: &SdtContext, cypher: &str) -> Result<(String, f64)> {
    let ast = graphiti_cypher::parse_query(cypher)?;
    let (sql, us) = timed(|| graphiti_core::transpile_to_sql_text(ctx, &ast));
    Ok((sql?, us))
}

/// Microseconds for a forced checkpoint of `service`'s store.
pub fn checkpoint_us(service: &Graphiti) -> Result<f64> {
    let (r, us) = timed(|| service.store().checkpoint_now());
    r.map_err(|e| graphiti_common::Error::eval(e.to_string()))?;
    Ok(us)
}

/// Total bytes of the checkpoint files under `dir`.
pub fn checkpoint_bytes(dir: &Path) -> Result<f64> {
    let files = graphiti_store::checkpoint_files(dir)
        .map_err(|e| graphiti_common::Error::eval(e.to_string()))?;
    let mut total = 0u64;
    for f in files {
        total +=
            std::fs::metadata(&f).map_err(|e| graphiti_common::Error::eval(e.to_string()))?.len();
    }
    Ok(total as f64)
}

/// A query on the latest generation, through an in-process session.
pub fn local_query(service: &Graphiti, query: &BatchQuery) -> Result<Table> {
    service.session().query(query).map_err(api)
}
