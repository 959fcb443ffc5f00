//! The two workloads.  Each run opens a fresh durable, group-committing
//! service in its own directory, serves it on its own unix socket, and
//! drives it from two closed-loop client connections:
//!
//! - the **window** runs the workload's clients for `--seconds` (longer
//!   only if an operation type still lacks the samples its p99 needs);
//! - the **complement** runs, on the same two connections, the operation
//!   types the window does not (commits after `read`, the read mix before
//!   `write`), until each has enough samples, so every run reports every
//!   end-to-end metric;
//! - with `--trace 1` the window and complement run twice: once untraced
//!   (registry deltas, baseline latencies) and once with a seeded sample
//!   of requests replayed layer by layer right after their replies.
//!
//! Output checks run at set-up, on every reply, at the end, and after
//! reopening the store directory.

use crate::data::{self, Change, Fixed, Keys, Op, Origin, ReadReq, Reader, Writer, CLIENTS};
use crate::layers::{self, us_since, Cells, ReplayCtx, Span, Spans};
use crate::report::{self, Metric};
use crate::rng::Rng;
use crate::stats;
use graphiti_common::Value;
use graphiti_engine::BatchQuery;
use graphiti_graph::GraphInstance;
use graphiti_relational::Table;
use graphiti_server::{Client, ClientOptions, Server, ServerHandle, WireSession};
use graphiti_store::{GraphStore, Graphiti, Session};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Which traffic mix a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Read,
    Write,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "read" => Some(Workload::Read),
            "write" => Some(Workload::Write),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Read => "read",
            Workload::Write => "write",
        }
    }

    /// The phases of one pass, in order: the role of both clients and the
    /// phase's minimum length.  The complement of `write` runs first, so
    /// every read is measured on the seed graph, and no phase's data
    /// depends on another's throughput.  A complement lasts at least half
    /// the window, so a short spell of a slow host cannot cover much of it.
    fn steps(self, seconds: f64) -> [(Role, f64); 2] {
        match self {
            Workload::Read => [(Role::Reader, seconds), (Role::Writer, seconds / 2.0)],
            Workload::Write => [(Role::Reader, seconds / 2.0), (Role::Writer, seconds)],
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub trace: bool,
    /// USR (and PIC) nodes in the seed graph.
    pub users: usize,
    /// Set-ups timed per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Scratch directory of this run (created, and removed at exit).
    pub dir: PathBuf,
}

/// Seed-graph scale.  The corpus `social` domain at 10k users per label
/// puts the whole-graph Cypher aggregate at ~75 ms and the `EXISTS`
/// translation, which the vectorized executor hands back to the row
/// engine once per outer row, at ~50 s; at 1k users they take ~5 ms and
/// ~6 ms; at 500 users one client collects 1500 samples of every request
/// type in about 30 seconds.
pub const USERS: usize = 500;

/// Samples each request type collects per phase: a p99 needs 1000 (ten
/// beyond it); the margin steadies the tails from run to run.
const MIN_SAMPLES: usize = 1500;

/// The traced pass replays one request in this many.
const REPLAY_ONE_IN: u64 = 4;

/// Commits between the forced checkpoint and the recovery measurement.
const RECOVERY_TAIL: usize = 32;

/// Reopens timed for `recovery_s` (recovery does not checkpoint, so each
/// replays the same WAL suffix).
const RECOVERY_REPS: usize = 20;

/// Pause between timed set-ups and between timed reopens, so one slow
/// spell of the host does not move all of them.
const REP_GAP: Duration = Duration::from_millis(250);

impl Config {
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Config {
        Config {
            workload,
            seed,
            seconds,
            trace,
            users: USERS,
            setup_reps: 9,
            dir: PathBuf::from(".bench_run").join(format!(
                "{}-{}-{}",
                workload.name(),
                seed,
                std::process::id()
            )),
        }
    }
}

/// A run's result: checks, request counts, metrics, and the record of
/// host and policy it ran under.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub mismatches: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub record: Vec<(String, String)>,
}

#[derive(Debug, Clone, Copy)]
enum Role {
    Reader,
    Writer,
}

impl Role {
    fn ops(self) -> &'static [Op] {
        match self {
            Role::Reader => &Op::READS,
            Role::Writer => &[Op::Commit],
        }
    }
}

/// Expected reply sizes on a fixed generation.
struct Expect {
    fixed: Vec<usize>,
    follows: HashMap<i64, Vec<i64>>,
}

impl Expect {
    /// Computed in process on the latest generation.
    fn compute(service: &Graphiti, fixed: &[Fixed]) -> Result<Expect, String> {
        let mut counts = Vec::new();
        for f in fixed {
            counts.push(layers::local_query(service, &f.query).map_err(|e| e.to_string())?.len());
        }
        let pairs = layers::local_query(
            service,
            &BatchQuery::sql("SELECT f.SRC AS s, f.TGT AS t FROM FOLLOWS AS f"),
        )
        .map_err(|e| e.to_string())?;
        let follows = data::adjacency(pairs.rows.iter().map(|r| (int(&r[0]), int(&r[1]))));
        Ok(Expect { fixed: counts, follows })
    }

    fn lookup(&self, key: i64, floor: i64) -> usize {
        self.follows.get(&key).map_or(0, |t| t.iter().filter(|&&b| b >= floor).count())
    }
}

fn int(v: &Value) -> i64 {
    v.as_i64().unwrap_or(i64::MIN)
}

/// One client connection and its request streams.
struct Conn {
    wire: WireSession,
    reader: Reader,
    writer: Option<Writer>,
    sampler: Rng,
    /// Acknowledged changes, in acknowledgement order.
    acked: Vec<Change>,
    /// Commits whose outcome is unknown (the request failed).
    unknown: u64,
    next_id: u64,
}

/// Everything the client threads share read-only.
struct Shared<'a> {
    service: &'a Graphiti,
    fixed: &'a [Fixed],
    batch: Vec<BatchQuery>,
    batch_idx: Vec<usize>,
    replay: Option<ReplayCtx<'a>>,
    counts: [AtomicUsize; 5],
    start: Instant,
    end: Instant,
    hard_end: Instant,
    /// Request types that must reach [`MIN_SAMPLES`] before the phase
    /// ends.
    covered: Vec<Op>,
}

impl Shared<'_> {
    fn done(&self) -> bool {
        let now = Instant::now();
        now >= self.hard_end
            || (now >= self.end
                && self
                    .covered
                    .iter()
                    .all(|op| self.counts[op.index()].load(Ordering::Relaxed) >= MIN_SAMPLES))
    }
}

/// What one phase measured.
#[derive(Debug, Default)]
struct Phase {
    secs: f64,
    /// Per request type: (completion time since the phase began, s;
    /// latency, µs).
    samples: [Vec<(f64, f64)>; 5],
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
    spans: Vec<Span>,
    /// Replays that ran on a newer generation than their request.
    skewed: u64,
    /// Latencies per fixed text, by index.
    texts: BTreeMap<usize, Vec<f64>>,
}

impl Phase {
    fn absorb(&mut self, other: Phase) {
        self.skewed += other.skewed;
        for (a, b) in self.samples.iter_mut().zip(other.samples) {
            a.extend(b);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches.extend(other.mismatches);
        self.spans.extend(other.spans);
        for (i, t) in other.texts {
            self.texts.entry(i).or_default().extend(t);
        }
    }
}

/// Time slices per phase for medians of p50s and rates.
const SLICES: usize = 5;

/// Extra time a phase may take to reach its sample counts.
const GRACE: Duration = Duration::from_secs(30);

fn run_phase(
    service: &Graphiti,
    conns: &mut [Conn],
    role: Role,
    fixed: &[Fixed],
    window: f64,
    expect: Option<&Expect>,
    replay: Option<ReplayCtx<'_>>,
) -> Phase {
    let start = Instant::now();
    let batch_idx: Vec<usize> =
        (0..fixed.len()).filter(|&i| fixed[i].origin != Origin::Handwritten).collect();
    let shared = Shared {
        service,
        fixed,
        batch: data::batch_texts(fixed),
        batch_idx,
        replay,
        counts: Default::default(),
        start,
        end: start + Duration::from_secs_f64(window),
        hard_end: start + Duration::from_secs_f64(window) + GRACE,
        // The traced pass reports no p99, so it keeps to its window.
        covered: if replay.is_some() { Vec::new() } else { role.ops().to_vec() },
    };
    let base = Instant::now();
    let parts: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let shared = &shared;
                scope.spawn(move || client_loop(conn, role, shared, expect, base))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut phase = Phase::default();
    for p in parts {
        phase.absorb(p);
    }
    phase.secs = start.elapsed().as_secs_f64();
    phase
}

fn client_loop(
    conn: &mut Conn,
    role: Role,
    shared: &Shared<'_>,
    expect: Option<&Expect>,
    base: Instant,
) -> Phase {
    let mut out = Phase::default();
    let mut spans = Spans::new(base);
    while !shared.done() {
        let id = conn.next_id;
        conn.next_id += 1;
        let sampled = shared.replay.is_some() && conn.sampler.below(REPLAY_ONE_IN) == 0;
        let replay = shared.replay.as_ref().filter(|_| sampled);
        match role {
            Role::Reader => one_read(conn, shared, expect, replay, &mut spans, id, &mut out),
            Role::Writer => one_commit(conn, shared, sampled, &mut spans, id, &mut out),
        }
    }
    out.spans = spans.spans;
    out
}

fn record(out: &mut Phase, shared: &Shared<'_>, op: Op, us: f64) {
    out.samples[op.index()].push((shared.start.elapsed().as_secs_f64(), us));
    shared.counts[op.index()].fetch_add(1, Ordering::Relaxed);
}

fn one_read(
    conn: &mut Conn,
    shared: &Shared<'_>,
    expect: Option<&Expect>,
    replay: Option<&ReplayCtx<'_>>,
    spans: &mut Spans,
    id: u64,
    out: &mut Phase,
) {
    let req = conn.reader.next_req();
    let op = req.op();
    out.attempted += 1;
    if let ReadReq::Batch = req {
        let t = Instant::now();
        let reply = conn.wire.batch(&shared.batch);
        let us = us_since(t);
        let Ok(report) = reply else {
            out.failed += 1;
            return;
        };
        record(out, shared, op, us);
        for (outcome, &i) in report.outcomes.iter().zip(&shared.batch_idx) {
            match &outcome.result {
                Err(e) => out.mismatches.push(format!("batch query {i}: {e}")),
                Ok(t) if expect.is_some_and(|e| e.fixed[i] != t.len()) => {
                    out.mismatches.push(format!("batch query {i}: {} rows", t.len()))
                }
                Ok(_) => {}
            }
        }
        if report.outcomes.len() != shared.batch.len() {
            out.mismatches.push("batch answered the wrong number of queries".into());
        }
        if let Some(ctx) = replay {
            if let Err(e) = layers::replay_batch(ctx, spans, id, &shared.batch, report) {
                out.mismatches.push(format!("batch replay: {e}"));
            }
        }
        return;
    }
    let (query, expected) = match &req {
        &ReadReq::Fixed(_, i) => (shared.fixed[i].query.clone(), expect.map(|e| e.fixed[i])),
        &ReadReq::Lookup { cypher, key, floor } => {
            (data::lookup(cypher, key, floor), expect.map(|e| e.lookup(key, floor)))
        }
        ReadReq::Batch => unreachable!("handled above"),
    };
    let t = Instant::now();
    let reply = conn.wire.query(&query);
    let us = us_since(t);
    let Ok(table) = reply else {
        out.failed += 1;
        return;
    };
    record(out, shared, op, us);
    if let ReadReq::Fixed(_, i) = req {
        out.texts.entry(i).or_default().push(us);
    }
    if expected.is_some_and(|n| n != table.len()) {
        out.mismatches.push(format!(
            "{} answered {} rows: {}",
            op.name(),
            table.len(),
            query.text()
        ));
    }
    if let Some(ctx) = replay {
        let generation = conn.wire.generation();
        match layers::replay_read(ctx, spans, op, id, &query, table, generation) {
            Ok(skewed) => out.skewed += u64::from(skewed),
            Err(e) => out.mismatches.push(format!("{} replay: {e}", op.name())),
        }
    }
}

/// One commit.  In the traced pass every acknowledged change is applied
/// to the in-memory store, and a sampled one is replayed layer by layer.
fn one_commit(
    conn: &mut Conn,
    shared: &Shared<'_>,
    sampled: bool,
    spans: &mut Spans,
    id: u64,
    out: &mut Phase,
) {
    let writer = conn.writer.as_mut().expect("writer roles have a commit stream");
    let (delta, change) = writer.next_commit(&**shared.service.store());
    let copy = sampled.then(|| delta.clone());
    out.attempted += 1;
    let t = Instant::now();
    let reply = conn.wire.commit(delta);
    let us = us_since(t);
    match reply {
        Ok(ack) => {
            record(out, shared, Op::Commit, us);
            writer.acked(change);
            conn.acked.push(change);
            let replayed = match (&shared.replay, copy) {
                (Some(ctx), Some(delta)) => {
                    layers::replay_commit(ctx, spans, id, &change, delta, ack)
                }
                (Some(ctx), None) => layers::track(ctx, &change),
                (None, _) => Ok(()),
            };
            if let Err(e) = replayed {
                out.mismatches.push(format!("commit replay: {e}"));
            }
        }
        Err(_) => {
            out.failed += 1;
            conn.unknown += 1;
        }
    }
}

// ------------------------------------------------------------ set-up

fn open_service(dir: &Path, graph: GraphInstance) -> Result<Graphiti, String> {
    Graphiti::builder(data::schema())
        .bootstrap(graph)
        .durable(dir)
        .group_commit_default()
        .open()
        .map_err(|e| format!("open {}: {e}", dir.display()))
}

fn connect(sock: &Path) -> Result<WireSession, String> {
    Client::connect_unix_with(sock, ClientOptions::resilient()).map_err(|e| format!("connect: {e}"))
}

struct Live {
    service: Graphiti,
    handle: ServerHandle,
    wires: Vec<WireSession>,
    dir: PathBuf,
}

/// The timed set-up: open the durable service, serve it, connect both
/// clients, and warm every fixed text plus one batch.
fn set_up(
    cfg: &Config,
    rep: usize,
    graph: GraphInstance,
    fixed: &[Fixed],
) -> Result<(Live, f64), String> {
    let dir = cfg.dir.join(format!("store-{rep}"));
    let sock = cfg.dir.join(format!("s{rep}.sock"));
    let t = Instant::now();
    let service = open_service(&dir, graph)?;
    let handle =
        Server::new(service.clone()).serve_unix(&sock).map_err(|e| format!("serve: {e}"))?;
    let mut wires = Vec::new();
    for _ in 0..CLIENTS {
        wires.push(connect(&sock)?);
    }
    for f in fixed {
        wires[0].query(&f.query).map_err(|e| format!("warm-up {}: {e}", f.query.text()))?;
    }
    wires[0].batch(&data::batch_texts(fixed)).map_err(|e| format!("warm-up batch: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    Ok((Live { service, handle, wires, dir }, secs))
}

/// The Theorem 5.7 differential over the socket: for every family, the
/// wire answer to the Cypher text, to its translation and to the
/// hand-written SQL, and the in-process session's answer to the Cypher
/// text, must be equivalent under Definition 4.4.
fn differential(service: &Graphiti, wire: &mut WireSession, fixed: &[Fixed]) -> Vec<String> {
    let mut bad = Vec::new();
    for family in fixed.iter().filter(|f| f.origin == Origin::Cypher).map(|f| f.family) {
        let mut answers: Vec<(String, Table)> = Vec::new();
        for f in fixed.iter().filter(|f| f.family == family) {
            match wire.query(&f.query) {
                Ok(t) => answers.push((format!("wire {:?}", f.origin), t)),
                Err(e) => bad.push(format!("{family}: wire {:?} failed: {e}", f.origin)),
            }
        }
        let cypher = fixed.iter().find(|f| f.family == family && f.origin == Origin::Cypher);
        match cypher.map(|f| layers::local_query(service, &f.query)) {
            Some(Ok(t)) => answers.push(("in-process cypher".into(), t)),
            Some(Err(e)) => bad.push(format!("{family}: in-process query failed: {e}")),
            None => {}
        }
        if let Some((first, reference)) = answers.first() {
            for (name, t) in &answers[1..] {
                if !reference.equivalent(t) {
                    bad.push(format!(
                        "{family}: {name} ({} rows) differs from {first} ({} rows)",
                        t.len(),
                        reference.len()
                    ));
                }
            }
        }
    }
    bad
}

/// Stable keys of the seed users and seed FOLLOWS edges.
fn resolve_keys(store: &GraphStore, users: usize) -> Result<Keys, String> {
    let mut keys = Keys { users: Vec::with_capacity(users), follows: Vec::new() };
    let mut by_id = HashMap::new();
    for (key, label, pk) in store.node_directory() {
        if label.as_str() == "USR" {
            by_id.insert(int(&pk), key);
        }
    }
    for uid in 0..users as i64 {
        keys.users.push(*by_id.get(&uid).ok_or(format!("seed user {uid} has no key"))?);
    }
    let index: HashMap<_, usize> = keys.users.iter().enumerate().map(|(i, k)| (*k, i)).collect();
    for (_, label, pk, src, tgt) in store.edge_directory() {
        if label.as_str() == "FOLLOWS" {
            let (Some(&s), Some(&t)) = (index.get(&src), index.get(&tgt)) else {
                return Err(format!("seed follow {} links a non-seed user", int(&pk)));
            };
            keys.follows.push((int(&pk), s, t));
        }
    }
    keys.follows.sort_by_key(|f| f.0);
    Ok(keys)
}

/// Every acknowledged insert present exactly once, every acknowledged
/// delete absent, every acknowledged rename's last value in place, and
/// node and edge counts equal to the seed plus the acknowledged changes.
fn check_exactly_once(service: &Graphiti, seed: (usize, usize), conns: &[Conn]) -> Vec<String> {
    let mut bad = Vec::new();
    let q =
        |sql: &str| layers::local_query(service, &BatchQuery::sql(sql)).map_err(|e| e.to_string());
    let (users, follows) = match (
        q("SELECT u.UsrId AS id, u.UsrName AS name FROM USR AS u"),
        q("SELECT f.FId AS id FROM FOLLOWS AS f"),
    ) {
        (Ok(u), Ok(f)) => (u, f),
        (Err(e), _) | (_, Err(e)) => return vec![format!("reopened store: {e}")],
    };
    let mut user_rows: HashMap<i64, (usize, Value)> = HashMap::new();
    for r in &users.rows {
        let e = user_rows.entry(int(&r[0])).or_insert((0, r[1].clone()));
        e.0 += 1;
    }
    let mut edge_rows: HashMap<i64, usize> = HashMap::new();
    for r in &follows.rows {
        *edge_rows.entry(int(&r[0])).or_default() += 1;
    }
    let (mut live, mut retired) = (HashMap::new(), Vec::new());
    let (mut deleted, mut relinks) = (HashSet::new(), HashSet::new());
    let mut names: HashMap<i64, i64> = HashMap::new();
    let mut unknown = 0usize;
    for conn in conns {
        unknown += conn.unknown as usize;
        for change in &conn.acked {
            match *change {
                Change::Insert { uid, fids, retired: r, .. } => {
                    live.insert(uid, fids);
                    if let Some((old, old_fids)) = r {
                        live.remove(&old);
                        retired.push((old, old_fids));
                    }
                }
                Change::Delete { fid, new_fid, .. } => {
                    deleted.insert(fid);
                    relinks.remove(&fid);
                    relinks.insert(new_fid);
                }
                Change::Rename { uid, name } => {
                    names.insert(uid, name);
                }
            }
        }
    }
    for (uid, fids) in &live {
        if user_rows.get(uid).map(|r| r.0) != Some(1) {
            bad.push(format!("acknowledged user {uid} is not present exactly once"));
        }
        for fid in fids {
            if edge_rows.get(fid) != Some(&1) {
                bad.push(format!("acknowledged follow {fid} is not present exactly once"));
            }
        }
    }
    for (uid, fids) in &retired {
        if user_rows.contains_key(uid) || fids.iter().any(|f| edge_rows.contains_key(f)) {
            bad.push(format!("acknowledged retirement of user {uid} is undone"));
        }
    }
    for fid in &deleted {
        if edge_rows.contains_key(fid) {
            bad.push(format!("acknowledged delete of follow {fid} is undone"));
        }
    }
    for fid in &relinks {
        if edge_rows.get(fid) != Some(&1) {
            bad.push(format!("acknowledged follow {fid} is not present exactly once"));
        }
    }
    for (uid, name) in names {
        if user_rows.get(&uid).map(|r| &r.1) != Some(&Value::Int(name)) && unknown == 0 {
            bad.push(format!("user {uid} lost its acknowledged rename"));
        }
    }
    let (inserts, retires) = (live.len() + retired.len(), retired.len());
    let stats = service.service_stats();
    let nodes = (seed.0 + inserts - retires) as i64;
    let edges = (seed.1 + 2 * (inserts - retires)) as i64;
    let slack = 2 * unknown as i64;
    if (stats.live_nodes as i64 - nodes).abs() > slack
        || (stats.live_edges as i64 - edges).abs() > slack
    {
        bad.push(format!(
            "reopened store has {} nodes and {} edges; the acknowledged script gives {nodes} and {edges}",
            stats.live_nodes, stats.live_edges
        ));
    }
    bad
}

// ------------------------------------------------------------ the run

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only removes the shared parent when no other run uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Runs one workload end to end.  `Err` means the run could not be
/// carried out (set-up or I/O failure); output mismatches are reported in
/// the [`Outcome`].
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.dir).map_err(|e| format!("create {}: {e}", cfg.dir.display()))?;
    let _scratch = Scratch(cfg.dir.clone());
    let steal_at_start = report::steal_s();
    let schema = data::schema();
    let graph = data::seed_graph(cfg.users, cfg.seed);
    let seed_size = (graph.node_count(), graph.edge_count());
    let k0 = data::anchor(cfg.seed, cfg.users);
    let sdt = layers::sdt_context(&schema).map_err(|e| e.to_string())?;
    let mut fixed = Vec::new();
    let mut transpile_us = Vec::new();
    for (family, cypher, hand) in data::families(k0) {
        let (sql, us) =
            layers::transpile(&sdt, &cypher).map_err(|e| format!("transpile {cypher}: {e}"))?;
        transpile_us.push(us);
        fixed.push(Fixed { family, origin: Origin::Cypher, query: BatchQuery::cypher(cypher) });
        fixed.push(Fixed { family, origin: Origin::Transpiled, query: BatchQuery::sql(sql) });
        fixed.push(Fixed { family, origin: Origin::Handwritten, query: BatchQuery::sql(hand) });
    }

    // Set-up, timed several times; each is torn down before the next, and
    // the last one serves the run.
    let mut setup_s = Vec::new();
    let mut live = None;
    for rep in 0..cfg.setup_reps.max(1) {
        if let Some(old) = live.take() {
            tear_down(old);
        }
        std::thread::sleep(REP_GAP);
        let (l, secs) = set_up(cfg, rep, graph.clone(), &fixed)?;
        setup_s.push(secs);
        live = Some(l);
    }
    let Live { service, handle, wires, dir } = live.expect("at least one set-up");
    let mut mismatches = Vec::new();

    // Untimed set-up work: the differential, keys, and streams.
    let mut wires = wires;
    mismatches.extend(differential(&service, &mut wires[0], &fixed));
    let keys = resolve_keys(service.store(), cfg.users)?;
    let mut conns: Vec<Conn> = wires
        .into_iter()
        .enumerate()
        .map(|(slot, wire)| Conn {
            wire,
            reader: Reader::new(cfg.seed, slot, cfg.users, &fixed),
            writer: Some(Writer::new(cfg.seed, slot, &keys)),
            sampler: data::sampler(cfg.seed, slot),
            acked: Vec::new(),
            unknown: 0,
            next_id: 1,
        })
        .collect();

    let memory = if cfg.trace {
        Some(layers::memory_store(schema.clone(), graph.clone()).map_err(|e| e.to_string())?)
    } else {
        None
    };
    let untraced = measure(cfg, &service, &fixed, &mut conns, None)?;
    let traced = match &memory {
        Some(m) => {
            // The in-memory store catches up with the served graph, then
            // tracks it commit by commit.
            let ctx = ReplayCtx { service: &service, memory: m, keys: &keys };
            for change in conns.iter().flat_map(|c| c.acked.iter()) {
                layers::track(&ctx, change).map_err(|e| format!("memory store: {e}"))?;
            }
            Some(measure(cfg, &service, &fixed, &mut conns, Some(ctx))?)
        }
        None => None,
    };

    // The differential again, on the final generation.
    for c in conns.iter_mut() {
        c.wire.refresh().map_err(|e| format!("refresh: {e}"))?;
    }
    mismatches.extend(differential(&service, &mut conns[0].wire, &fixed));
    // A fixed WAL suffix for recovery to replay: how many commits follow
    // the last periodic checkpoint would otherwise vary with throughput.
    conns[0].wire.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    for _ in 0..RECOVERY_TAIL {
        let c = &mut conns[0];
        let writer = c.writer.as_mut().expect("every connection has a commit stream");
        let (delta, change) = writer.next_commit(&**service.store());
        c.wire.commit(delta).map_err(|e| format!("commit: {e}"))?;
        writer.acked(change);
        c.acked.push(change);
    }
    let retries: u64 = conns.iter().map(|c| c.wire.retries()).sum();
    for c in conns.iter_mut() {
        c.wire.close().map_err(|e| format!("close: {e}"))?;
    }

    // Recovery: drain the server, drop the service, reopen the directory,
    // answer one query; then drop and reopen again, and report the mean of
    // the middle half.
    drop(memory);
    let t = Instant::now();
    let drain = handle.shutdown();
    drop(service);
    let mut reopened = None;
    let mut recovery_runs_s = Vec::new();
    for rep in 0..RECOVERY_REPS {
        if rep > 0 {
            std::thread::sleep(REP_GAP);
        }
        let t = if rep == 0 { t } else { Instant::now() };
        drop(reopened.take());
        let service = open_service(&dir, GraphInstance::new())?;
        layers::local_query(&service, &fixed[0].query)
            .map_err(|e| format!("query after reopen: {e}"))?;
        recovery_runs_s.push(t.elapsed().as_secs_f64());
        reopened = Some(service);
    }
    let reopened = reopened.expect("at least one reopen");
    let recovery_s = stats::middle_mean(&recovery_runs_s);
    mismatches.extend(check_exactly_once(&reopened, seed_size, &conns));

    let mut sent = [0u64; 3];
    for w in conns.iter().filter_map(|c| c.writer.as_ref()) {
        for (total, n) in sent.iter_mut().zip(w.sent) {
            *total += n;
        }
    }
    let mut record = report::host_record(&cfg.dir);
    record.extend([
        ("workload".into(), report::json_str(cfg.workload.name())),
        ("seed".into(), cfg.seed.to_string()),
        ("window_s".into(), format!("{}", cfg.seconds)),
        ("users_per_label".into(), cfg.users.to_string()),
        ("seed_nodes".into(), seed_size.0.to_string()),
        ("seed_edges".into(), seed_size.1.to_string()),
        ("anchor_user".into(), k0.to_string()),
        ("read_weights".into(), format!("{:?}", data::READ_WEIGHTS)),
        ("write_weights".into(), format!("{:?}", data::WRITE_WEIGHTS)),
        ("commits_sent_insert_rename_delete".into(), format!("{sent:?}")),
        ("drain_ms".into(), format!("{}", drain.duration.as_secs_f64() * 1e3)),
        ("setup_runs_s".into(), format!("{setup_s:?}")),
        ("recovery_runs_s".into(), format!("{recovery_runs_s:?}")),
        ("host_steal_s".into(), format!("{}", report::steal_s() - steal_at_start)),
    ]);
    record.extend(untraced.record("untraced", &fixed));
    if let Some(t) = &traced {
        record.extend(t.record("traced", &fixed));
    }

    let metrics = match &traced {
        None => end_to_end(&untraced, stats::median(&setup_s), recovery_s, report::peak_rss_mb())?,
        Some(traced) => {
            let mut freezes = Vec::new();
            for _ in 0..3 {
                freezes.push(layers::freeze_s(&schema, &graph).map_err(|e| e.to_string())?);
            }
            let transpile_us = transpile_means(&sdt, &fixed, &transpile_us)?;
            let replayed = Cells::read(&reopened).counter("graphiti_wal_replayed_commits_total");
            let checkpoint_us = layers::checkpoint_us(&reopened).map_err(|e| e.to_string())?;
            let checkpoint_bytes = layers::checkpoint_bytes(&dir).map_err(|e| e.to_string())?;
            per_layer(
                &untraced,
                traced,
                Extras {
                    freeze_s: stats::median(&freezes),
                    transpile_us,
                    replayed,
                    checkpoint_us,
                    checkpoint_bytes,
                    retries: retries as f64,
                },
            )
        }
    };
    drop(reopened);
    let (mut attempted, mut failed) = (0, 0);
    for pass in std::iter::once(&untraced).chain(traced.as_ref()) {
        for p in &pass.phases {
            attempted += p.attempted;
            failed += p.failed;
            mismatches.extend(p.mismatches.iter().cloned());
        }
    }
    Ok(Outcome { correct: mismatches.is_empty(), mismatches, attempted, failed, metrics, record })
}

/// The window and complement of one pass, with the registry deltas over
/// both.
struct Pass {
    phases: Vec<Phase>,
    cells: Cells,
}

impl Pass {
    /// Sorted latencies of `op`.
    fn samples(&self, op: Op) -> Vec<f64> {
        let mut v: Vec<f64> =
            self.phases.iter().flat_map(|p| p.samples[op.index()].iter().map(|s| s.1)).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// `stat` of each of [`SLICES`] equal time slices of every phase that
    /// ran `ops`, given the slice's latencies and length; the median of
    /// those values.  A short stall of the host moves one slice, not the
    /// result.
    fn sliced(&self, ops: &[Op], stat: impl Fn(&mut Vec<f64>, f64) -> Option<f64>) -> f64 {
        let mut per_slice = Vec::new();
        for p in &self.phases {
            let len = p.secs / SLICES as f64;
            let mut slices = vec![Vec::new(); SLICES];
            for op in ops {
                for &(t, us) in &p.samples[op.index()] {
                    slices[((t / len) as usize).min(SLICES - 1)].push(us);
                }
            }
            if slices.iter().any(|s| !s.is_empty()) {
                per_slice.extend(slices.iter_mut().filter_map(|s| stat(s, len)));
            }
        }
        stats::median(&per_slice)
    }

    /// Completions per second of `ops`: the median over time slices.
    fn rate(&self, ops: &[Op]) -> f64 {
        self.sliced(ops, |s, len| Some(s.len() as f64 / len))
    }

    /// The median over time slices of each slice's p50 latency.
    fn p50(&self, op: Op) -> Option<f64> {
        let v = self.sliced(&[op], |s, _| {
            s.sort_by(f64::total_cmp);
            stats::percentile(s, 50)
        });
        (v > 0.0).then_some(v)
    }

    fn spans(&self) -> impl Iterator<Item = &Span> {
        self.phases.iter().flat_map(|p| p.spans.iter())
    }

    fn record(&self, tag: &str, fixed: &[Fixed]) -> Vec<(String, String)> {
        let mut out = vec![(
            format!("{tag}_phase_s"),
            format!("{:?}", self.phases.iter().map(|p| p.secs).collect::<Vec<_>>()),
        )];
        for op in Op::ALL {
            let samples = self.samples(op);
            out.push((format!("{tag}_samples_{}", op.name()), samples.len().to_string()));
            let deciles: Vec<f64> =
                (1..10).filter_map(|d| stats::percentile(&samples, d * 10)).collect();
            out.push((format!("{tag}_deciles_us_{}", op.name()), format!("{deciles:?}")));
        }
        let texts: Vec<String> = fixed
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let mut v: Vec<f64> = self
                    .phases
                    .iter()
                    .flat_map(|p| p.texts.get(&i).into_iter().flatten())
                    .copied()
                    .collect();
                v.sort_by(f64::total_cmp);
                let p50 = stats::percentile(&v, 50).unwrap_or(0.0);
                format!(
                    "{}: [{}, {p50}]",
                    report::json_str(&format!("{}/{:?}", f.family, f.origin)),
                    v.len()
                )
            })
            .collect();
        out.push((format!("{tag}_text_samples_and_p50_us"), format!("{{{}}}", texts.join(", "))));
        let replays = self.spans().filter(|s| s.name == "request").count();
        out.push((format!("{tag}_replays"), replays.to_string()));
        out.push((
            format!("{tag}_replays_on_newer_generation"),
            self.phases.iter().map(|p| p.skewed).sum::<u64>().to_string(),
        ));
        out
    }
}

fn measure(
    cfg: &Config,
    service: &Graphiti,
    fixed: &[Fixed],
    conns: &mut [Conn],
    replay: Option<ReplayCtx<'_>>,
) -> Result<Pass, String> {
    let before = Cells::read(service);
    let steps = cfg.workload.steps(cfg.seconds);
    let mut phases = Vec::new();
    for (role, window) in steps {
        let expect = match role {
            Role::Reader => {
                for c in conns.iter_mut() {
                    c.wire.refresh().map_err(|e| format!("refresh: {e}"))?;
                }
                Some(Expect::compute(service, fixed)?)
            }
            Role::Writer => None,
        };
        phases.push(run_phase(service, conns, role, fixed, window, expect.as_ref(), replay));
    }
    Ok(Pass { phases, cells: Cells::read(service).since(&before) })
}

fn end_to_end(
    pass: &Pass,
    setup_s: f64,
    recovery_s: f64,
    peak_rss_mb: f64,
) -> Result<Vec<Metric>, String> {
    let mut m = vec![
        Metric::new("reads_per_s", pass.rate(&Op::READS), "req/s"),
        Metric::new("commits_per_s", pass.rate(&[Op::Commit]), "commits/s"),
    ];
    for op in Op::ALL {
        let samples = pass.samples(op);
        let short = |pct: u32| {
            format!(
                "{}: {} samples cannot support a p{pct} (needs {})",
                op.name(),
                samples.len(),
                stats::samples_needed(pct) * if pct == 50 { SLICES } else { 1 }
            )
        };
        let p50 = pass.p50(op).ok_or_else(|| short(50))?;
        let p99 = stats::percentile(&samples, 99).ok_or_else(|| short(99))?;
        m.push(Metric::new(&format!("{}_p50_us", op.name()), p50, "us"));
        m.push(Metric::new(&format!("{}_p99_us", op.name()), p99, "us"));
    }
    m.push(Metric::new("setup_s", setup_s, "s"));
    m.push(Metric::new("recovery_s", recovery_s, "s"));
    m.push(Metric::new("peak_rss_mb", peak_rss_mb, "MiB"));
    Ok(m)
}

/// Per-layer inputs measured once per traced run.
struct Extras {
    freeze_s: f64,
    transpile_us: f64,
    replayed: f64,
    checkpoint_us: f64,
    checkpoint_bytes: f64,
    retries: f64,
}

/// Mean microseconds to transpile each fixed Cypher text.
fn transpile_means(
    sdt: &graphiti_core::SdtContext,
    fixed: &[Fixed],
    first: &[f64],
) -> Result<f64, String> {
    let mut all = first.to_vec();
    for _ in 0..20 {
        for f in fixed.iter().filter(|f| f.origin == Origin::Cypher) {
            all.push(layers::transpile(sdt, f.query.text()).map_err(|e| e.to_string())?.1);
        }
    }
    Ok(stats::mean(&all))
}

/// Total microseconds, count and output of spans.
#[derive(Debug, Clone, Copy, Default)]
struct SpanSum {
    us: f64,
    n: f64,
    produced: f64,
}

fn span_sums(pass: &Pass) -> HashMap<(Op, &'static str), SpanSum> {
    let mut sums: HashMap<(Op, &'static str), SpanSum> = HashMap::new();
    for s in pass.spans() {
        let e = sums.entry((s.op, s.name)).or_default();
        e.us += s.us();
        e.n += 1.0;
        e.produced += s.produced.unwrap_or(0) as f64;
    }
    sums
}

fn per_layer(untraced: &Pass, traced: &Pass, x: Extras) -> Vec<Metric> {
    let sums = span_sums(traced);
    let sum = |ops: &[Op], names: &[&str]| {
        let mut t = SpanSum::default();
        for &op in ops {
            for &name in names {
                let s = sums.get(&(op, name)).copied().unwrap_or_default();
                (t.us, t.n, t.produced) = (t.us + s.us, t.n + s.n, t.produced + s.produced);
            }
        }
        t
    };
    // Mean microseconds of `name` per replayed request of `op`.
    let per_request =
        |op: Op, name: &str| layers::ratio(sum(&[op], &[name]).us, sum(&[op], &["request"]).n);
    // Means over the spans named `names`, across every query type.
    let reads = [Op::Cypher, Op::Sql, Op::Lookup];
    let mean_us = |names: &[&str]| layers::ratio(sum(&reads, names).us, sum(&reads, names).n);
    let mean_out =
        |names: &[&str]| layers::ratio(sum(&reads, names).produced, sum(&reads, names).n);
    let c = &untraced.cells;
    let commits = c.counter("graphiti_store_commits_total");
    let handler = |kind: &str| c.mean(&format!("graphiti_request_micros_{kind}"));
    let mut m = Vec::new();
    for (kind, unit) in [("query", "us"), ("batch", "us"), ("commit", "us")] {
        m.push(Metric::new(&format!("server.handler_us.{kind}"), handler(kind), unit));
    }
    for op in Op::ALL {
        let codec: f64 = [
            "codec.encode_request",
            "codec.decode_request",
            "codec.encode_response",
            "codec.decode_response",
        ]
        .iter()
        .map(|n| per_request(op, n))
        .sum();
        let e2e = stats::mean(&untraced.samples(op));
        let inner =
            if op == Op::Commit { handler("commit") } else { per_request(op, "store.session") };
        // Lookups' replayed session hits the plan their wire request
        // cached; their parse and compile are the miss they skipped.
        let miss = if op == Op::Lookup {
            per_request(op, "cypher.parse")
                + per_request(op, "sql.parse")
                + per_request(op, "sql.compile")
        } else {
            0.0
        };
        let name = op.name();
        m.push(Metric::new(&format!("server.codec_us.{name}"), codec, "us"));
        let reply = layers::ratio(
            sum(&[op], &["codec.decode_response"]).produced,
            sum(&[op], &["request"]).n,
        );
        m.push(Metric::new(&format!("server.reply_bytes.{name}"), reply, "bytes"));
        m.push(Metric::new(&format!("server.wire_us.{name}"), e2e - inner, "us"));
        m.push(Metric::new(&format!("unattributed_us.{name}"), e2e - codec - inner - miss, "us"));
        let p50 = |p: &Pass| stats::percentile(&p.samples(op), 50).unwrap_or(0.0);
        m.push(Metric::new(
            &format!("trace_overhead.{name}"),
            layers::ratio(p50(traced), p50(untraced)),
            "ratio",
        ));
        if op != Op::Commit {
            m.push(Metric::new(
                &format!("store.session_us.{name}"),
                per_request(op, "store.session"),
                "us",
            ));
        }
        if matches!(op, Op::Cypher | Op::Sql | Op::Lookup) {
            m.push(Metric::new(
                &format!("engine.execute_us.{name}"),
                per_request(op, "engine.execute"),
                "us",
            ));
        }
    }
    m.extend([
        Metric::new("engine.batch_us", per_request(Op::Batch, "engine.batch"), "us"),
        Metric::new("engine.batch_serial_us", per_request(Op::Batch, "engine.batch_serial"), "us"),
        Metric::new(
            "engine.plan_cache.hit_ratio",
            layers::ratio(
                c.counter("graphiti_plan_cache_hits_total"),
                c.counter("graphiti_plan_cache_hits_total")
                    + c.counter("graphiti_plan_cache_misses_total"),
            ),
            "ratio",
        ),
        Metric::new(
            "engine.plan_cache.evictions",
            c.counter("graphiti_plan_cache_evictions_total"),
            "count",
        ),
        Metric::new("engine.freeze_s", x.freeze_s, "s"),
        Metric::new("cypher.parse_us", mean_us(&["cypher.parse"]), "us"),
        Metric::new("cypher.match_us", mean_us(&["cypher.match"]), "us"),
        Metric::new("cypher.rows_out", mean_out(&["cypher.match"]), "rows"),
        Metric::new("sql.parse_us", mean_us(&["sql.parse"]), "us"),
        Metric::new("sql.compile_us", mean_us(&["sql.compile"]), "us"),
        Metric::new("sql.exec_us.flat", mean_us(&["sql.exec.flat"]), "us"),
        Metric::new("sql.exec_us.subquery", mean_us(&["sql.exec.subquery"]), "us"),
        Metric::new("sql.rows_out", mean_out(&["sql.exec.flat", "sql.exec.subquery"]), "rows"),
        Metric::new("core.transpile_us", x.transpile_us, "us"),
        Metric::new("store.group.queue_wait_us", c.mean("graphiti_group_queue_wait_micros"), "us"),
        Metric::new(
            "store.group.size_mean",
            layers::ratio(
                c.counter("graphiti_group_members_total"),
                c.counter("graphiti_groups_formed_total"),
            ),
            "commits",
        ),
        Metric::new("store.commit_us", c.mean("graphiti_commit_e2e_micros"), "us"),
        Metric::new("store.wal.append_us", c.mean("graphiti_wal_append_micros"), "us"),
        Metric::new("store.wal.fsync_us", c.mean("graphiti_wal_fsync_micros"), "us"),
        Metric::new(
            "store.wal.bytes_per_commit",
            layers::ratio(c.counter("graphiti_wal_bytes_total"), commits),
            "bytes",
        ),
        Metric::new(
            "store.wal.fsyncs_per_commit",
            layers::ratio(c.count("graphiti_wal_fsync_micros"), commits),
            "ratio",
        ),
        Metric::new("store.memory_commit_us", per_request(Op::Commit, "store.memory_commit"), "us"),
        Metric::new(
            "store.graph_clones_per_commit",
            layers::ratio(c.counter("graphiti_store_graph_clones_total"), commits),
            "ratio",
        ),
        Metric::new(
            "store.graph_reclaims_per_commit",
            layers::ratio(c.counter("graphiti_store_graph_reclaims_total"), commits),
            "ratio",
        ),
        Metric::new(
            "store.checkpoint.count",
            c.counter("graphiti_checkpoints_written_total"),
            "count",
        ),
        Metric::new("store.checkpoint.write_us", x.checkpoint_us, "us"),
        Metric::new("store.checkpoint.bytes", x.checkpoint_bytes, "bytes"),
        Metric::new("store.recovery.replayed_commits", x.replayed, "count"),
        Metric::new("client.retries", x.retries, "count"),
    ]);
    m
}

fn tear_down(live: Live) {
    let Live { service, handle, mut wires, dir } = live;
    for w in &mut wires {
        let _ = w.close();
    }
    drop(wires);
    handle.shutdown();
    drop(service);
    let _ = std::fs::remove_dir_all(dir);
}
