//! Fixtures shared by the bench-gate scenarios: the EMP/DEPT store
//! workload, the corpus sweep, scratch space, and the commit loops.

use graphiti_benchmarks::{build_databases, small_corpus, Benchmark, MockDatabases};
use graphiti_common::Value;
use graphiti_core::{reduce, Reduction};
use graphiti_cypher::Query as CypherQuery;
use graphiti_engine::{BatchQuery, Engine, QueryOutcome, Snapshot};
use graphiti_graph::{EdgeType, GraphInstance, GraphSchema, NodeType};
use graphiti_relational::Table;
use graphiti_server::{Client, Server, WireSession};
use graphiti_sql::SqlQuery;
use graphiti_store::{
    Delta, DurabilityOptions, GraphStore, Graphiti, NodeKey, Session, StoreBuilder,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

// ------------------------------------------------ EMP/DEPT store workload

/// Employees working at departments: the schema of every store scenario.
pub fn schema() -> GraphSchema {
    GraphSchema::new()
        .with_node(NodeType::new("DEPT", ["dnum", "dname"]))
        .with_node(NodeType::new("EMP", ["id", "name"]))
        .with_edge(EdgeType::new("WORK_AT", "EMP", "DEPT", ["wid"]))
}

/// Seed graph: 4 departments (stable keys 0..=3) plus `emps` employees
/// wired round-robin, so checkpoints carry a real image.
pub fn seed_graph(emps: i64) -> GraphInstance {
    let mut g = GraphInstance::new();
    let depts: Vec<_> = (0..4)
        .map(|i| {
            g.add_node("DEPT", [("dnum", Value::Int(i)), ("dname", Value::str(format!("D{i}")))])
        })
        .collect();
    for i in 0..emps {
        let e = g.add_node("EMP", [("id", Value::Int(i)), ("name", Value::str("seed"))]);
        g.add_edge("WORK_AT", e, depts[(i % 4) as usize], [("wid", Value::Int(i))]);
    }
    g
}

/// Commit `i` of the shared script: one new employee plus their edge,
/// with keys unique to `i`.
pub fn delta_for(i: i64) -> Delta {
    let mut d = Delta::new();
    let n = d.add_node("EMP", [("id", Value::Int(1_000_000 + i)), ("name", Value::str("w"))]);
    d.add_edge("WORK_AT", n, NodeKey((i % 4) as u64), [("wid", Value::Int(2_000_000 + i))]);
    d
}

/// A durable EMP/DEPT store rooted at `dir`; chain `bootstrap`,
/// `durability` or `vfs` before `open`.  A directory that already holds
/// state recovers it.
pub fn durable(dir: &Path) -> StoreBuilder {
    GraphStore::builder(schema()).durable(dir)
}

/// Default durability with the fsync and checkpoint policy set.
pub fn durability(fsync_each_commit: bool, checkpoint_interval: u64) -> DurabilityOptions {
    DurabilityOptions { fsync_each_commit, checkpoint_interval, ..DurabilityOptions::default() }
}

/// An in-memory group-committing service over `seed_graph(seed_emps)`.
pub fn service(seed_emps: i64) -> Graphiti {
    Graphiti::builder(schema())
        .bootstrap(seed_graph(seed_emps))
        .group_commit_default()
        .open()
        .expect("in-memory service opens")
}

/// Times `commits` scripted commits against a store, returning µs/commit.
pub fn time_commits(store: &GraphStore, commits: i64) -> f64 {
    let start = Instant::now();
    for i in 0..commits {
        store.commit(delta_for(i)).expect("scripted commits are valid");
    }
    start.elapsed().as_micros() as f64 / commits as f64
}

/// A plain wire session: no token, no deadline, no retry.
pub fn connect(sock: &Path) -> WireSession {
    Client::connect_unix(sock).expect("plain client connects")
}

/// Single-session commit throughput (commits/s) over a fresh
/// unix-socket server on `service(64)`.  `connect` opens the session and
/// `stamp` runs before each scripted commit.
pub fn wire_commit_throughput(
    tag: &str,
    commits: i64,
    connect: impl Fn(&Path) -> WireSession,
    mut stamp: impl FnMut(&mut WireSession, i64),
) -> f64 {
    let sock = socket_path(tag);
    let handle = Server::new(service(64)).serve_unix(&sock).expect("server binds");
    let mut session = connect(&sock);
    let start = Instant::now();
    for i in 0..commits {
        stamp(&mut session, i);
        session.commit(delta_for(i)).expect("scripted commits are valid");
    }
    let secs = start.elapsed().as_secs_f64();
    session.close().expect("clean close");
    handle.shutdown();
    commits as f64 / secs.max(1e-9)
}

/// The run with the highest `score` among `reps` runs after a discarded
/// warm-up run (page cache, allocator): a scheduler hiccup in one run
/// cannot flake a floor.
pub fn best_of<T>(reps: usize, mut run: impl FnMut() -> T, score: impl Fn(&T) -> f64) -> T {
    run();
    let mut best = run();
    for _ in 1..reps {
        let next = run();
        if score(&next) > score(&best) {
            best = next;
        }
    }
    best
}

/// The best of `reps` runs of each leg, taken independently: the ratio
/// of two tight best-throughput estimates is far steadier than the best
/// of per-rep ratios.  Each rep runs `a` then `b`; rep 0 is a warm-up
/// (page cache, allocator) and is discarded.
pub fn best_of_each(
    reps: usize,
    mut a: impl FnMut() -> f64,
    mut b: impl FnMut() -> f64,
) -> (f64, f64) {
    let (mut best_a, mut best_b) = (0.0f64, 0.0f64);
    for rep in 0..=reps {
        let (x, y) = (a(), b());
        if rep > 0 {
            best_a = best_a.max(x);
            best_b = best_b.max(y);
        }
    }
    (best_a, best_b)
}

// ---------------------------------------------------------- scratch space

/// Where the scenarios put their directories and sockets.
pub const SCRATCH_ROOT: &str = "target/bench-gate";

/// A fresh, empty scratch directory, unique to this process.
pub fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(SCRATCH_ROOT).join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// A unix-socket path, unique to this process, with no file behind it.
pub fn socket_path(tag: &str) -> PathBuf {
    std::fs::create_dir_all(SCRATCH_ROOT).expect("scratch directory");
    let path = Path::new(SCRATCH_ROOT).join(format!("{tag}-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

// ----------------------------------------------------------- corpus sweep

/// The named SQL target holding a benchmark's hand-written database.
pub const TARGET: &str = "target";

/// One corpus benchmark with its parsed queries, its reduction, and
/// mock databases of 6 nodes per label and 2 edges per node.
pub struct CorpusCase {
    pub bench: Benchmark,
    pub cypher: CypherQuery,
    pub sql: SqlQuery,
    pub reduction: Reduction,
    pub dbs: MockDatabases,
}

/// The 204-benchmark sweep corpus (`small_corpus(2)`), keeping every
/// benchmark whose queries parse and reduce and whose databases build
/// from `seed`.
pub fn corpus(seed: u64) -> Vec<CorpusCase> {
    small_corpus(2)
        .into_iter()
        .filter_map(|bench| {
            let (cypher, sql, transformer) =
                (bench.cypher().ok()?, bench.sql().ok()?, bench.transformer().ok()?);
            let reduction = reduce(&bench.graph_schema, &cypher, &transformer).ok()?;
            let dbs =
                build_databases(&reduction.ctx, &transformer, &bench.target_schema, 6, 2, seed)
                    .ok()?;
            Some(CorpusCase { bench, cypher, sql, reduction, dbs })
        })
        .collect()
}

/// One benchmark of the sweep, frozen, plus the texts the pre-engine
/// baselines start from.
pub struct SweepBench {
    pub snapshot: Arc<Snapshot>,
    pub cypher_text: String,
    pub sql_text: String,
}

/// One query of the sweep and the benchmark it runs against.
pub struct Item {
    pub bench: usize,
    pub query: BatchQuery,
}

/// The corpus sweep as a service sees it: every benchmark contributes
/// three text queries (its Cypher query, the transpilation, and the
/// hand-written SQL), 612 in all.
pub fn sweep() -> (Vec<SweepBench>, Vec<Item>) {
    let mut benches = Vec::new();
    let mut items = Vec::new();
    for case in corpus(0x93A7) {
        let transpiled_text = graphiti_sql::query_to_string(&case.reduction.transpiled);
        let bench = benches.len();
        items.push(Item { bench, query: BatchQuery::cypher(&case.bench.cypher_text) });
        items.push(Item { bench, query: BatchQuery::sql(transpiled_text) });
        items.push(Item { bench, query: BatchQuery::sql_on(TARGET, &case.bench.sql_text) });
        benches.push(SweepBench {
            snapshot: Snapshot::from_parts(
                case.bench.graph_schema,
                case.dbs.graph,
                case.reduction.ctx,
                case.dbs.induced,
                [(TARGET.to_string(), case.dbs.target)],
            ),
            cypher_text: case.bench.cypher_text,
            sql_text: case.bench.sql_text,
        });
    }
    (benches, items)
}

/// A fresh engine (empty plan cache) per sweep benchmark.
pub fn fresh_engines(benches: &[SweepBench]) -> Vec<Engine> {
    benches.iter().map(|b| Engine::new(Arc::clone(&b.snapshot))).collect()
}

/// Runs one sweep item on its benchmark's engine and snapshot.
pub fn execute(engines: &[Engine], benches: &[SweepBench], item: &Item) -> QueryOutcome {
    engines[item.bench].execute_on(&benches[item.bench].snapshot, &item.query)
}

/// The one-shot evaluators, with no engine: parse and evaluate per
/// request (the SQL side optimizes, compiles and executes per request).
pub fn legacy_execute(snapshot: &Snapshot, query: &BatchQuery) -> graphiti_common::Result<Table> {
    match query {
        BatchQuery::Cypher { text } => {
            let q = graphiti_cypher::parse_query(text)?;
            graphiti_cypher::eval_query(snapshot.schema(), snapshot.graph(), &q)
        }
        BatchQuery::Sql { text, target } => {
            let q = graphiti_sql::parse_query(text)?;
            graphiti_sql::eval_query(snapshot.sql_instance(target)?, &q)
        }
    }
}

/// The naive reference evaluators every sweep differential compares
/// against: per-binding Cypher matching and the SQL oracle.
pub fn reference_execute(
    snapshot: &Snapshot,
    query: &BatchQuery,
) -> graphiti_common::Result<Table> {
    match query {
        BatchQuery::Cypher { text } => {
            let q = graphiti_cypher::parse_query(text)?;
            graphiti_cypher::eval_query_unoptimized(snapshot.schema(), snapshot.graph(), &q)
        }
        BatchQuery::Sql { text, target } => {
            let q = graphiti_sql::parse_query(text)?;
            graphiti_sql::eval_query_unoptimized(snapshot.sql_instance(target)?, &q)
        }
    }
}
