//! `store`: the writable store's incremental commit against a cold
//! re-freeze, plus reads while a writer publishes generations.
//!
//! * **corpus single-mutation commits** — on every corpus graph, the
//!   pre-store write path (mutate, then a full `Snapshot::freeze_with`:
//!   whole-graph validation, SDT re-application, columnar conversion)
//!   against `GraphStore::commit` on 20 single-mutation deltas
//!   (alternating node add and remove).  `incremental_commit_speedup`
//!   is the total-time ratio, floored at 5;
//! * **delta-size sweep** — on a 10,000-employee graph, commits of
//!   1/16/256 mutations vs cold re-freezes of the same graphs (reported,
//!   not gated);
//! * **reads under writes** — a query batch replayed through the
//!   store's engine while a writer thread commits continuously;
//!   `reads_survive_writes` holds while the busy throughput stays above
//!   20% of the quiet one;
//! * **incremental ≡ cold** — after scripted mutation batches on 24
//!   corpus graphs, every induced table must be bag-equal to a cold
//!   freeze of the same master graph, the columnar image must equal the
//!   row image, and the benchmark's Cypher query must agree between the
//!   store's engine and a cold one (`store_differential_agree`).

use crate::fixtures::{corpus, TARGET};
use graphiti_bench::json::Json;
use graphiti_common::{Ident, Value};
use graphiti_engine::{BatchQuery, Engine, Snapshot, SqlTarget};
use graphiti_graph::{EdgeType, GraphInstance, GraphSchema, NodeType};
use graphiti_relational::RelInstance;
use graphiti_store::{Delta, GraphStore};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

const COMMITS_PER_GRAPH: usize = 20;
const LARGE_GRAPH_EMPS: usize = 10_000;
const READ_ROUNDS: usize = 60;
const DIFF_GRAPHS: usize = 24;

/// One corpus graph ready for the write benchmarks.
struct WriteCtx {
    schema: GraphSchema,
    graph: GraphInstance,
    extra: Vec<(String, RelInstance)>,
    cypher_text: String,
}

/// A fresh default-key value far above anything the mock data generates.
fn fresh_pk(i: u64) -> Value {
    Value::Int(1_000_000_000 + i as i64)
}

/// The properties of a `ty` node keyed by `pk`, every other key null.
fn keyed(ty: &NodeType, pk: Value) -> impl Iterator<Item = (Ident, Value)> + '_ {
    ty.keys
        .iter()
        .enumerate()
        .map(move |(i, k)| (k.clone(), if i == 0 { pk.clone() } else { Value::Null }))
}

/// A single-node-addition delta for the schema's first node type.
fn add_node_delta(schema: &GraphSchema, pk: Value) -> Delta {
    let ty = &schema.node_types[0];
    let mut d = Delta::new();
    d.add_node(ty.label.clone(), keyed(ty, pk));
    d
}

/// The EMP-first synthetic graph for the large-scale sweeps: ten
/// employees per department.
fn large_schema() -> GraphSchema {
    GraphSchema::new()
        .with_node(NodeType::new("EMP", ["id", "name"]))
        .with_node(NodeType::new("DEPT", ["dnum", "dname"]))
        .with_edge(EdgeType::new("WORK_AT", "EMP", "DEPT", ["wid"]))
}

fn large_graph(emps: usize) -> GraphInstance {
    let mut g = GraphInstance::new();
    let depts: Vec<_> = (0..(emps / 10).max(1))
        .map(|i| {
            g.add_node(
                "DEPT",
                [("dnum", Value::Int(i as i64)), ("dname", Value::str(["CS", "EE", "ME"][i % 3]))],
            )
        })
        .collect();
    for i in 0..emps {
        let e = g.add_node(
            "EMP",
            [("id", Value::Int(i as i64)), ("name", Value::str(["ann", "bo", "cy", "dee"][i % 4]))],
        );
        g.add_edge("WORK_AT", e, depts[i % depts.len()], [("wid", Value::Int(i as i64))]);
    }
    g
}

/// Total seconds of the cold path and of the store over every corpus
/// graph's single-mutation commits.
fn corpus_commits(ctxs: &[WriteCtx]) -> (f64, f64) {
    let mut cold_secs = 0.0f64;
    let mut incr_secs = 0.0f64;
    for ctx in ctxs {
        // The cold side gets every advantage: the mutated graphs are
        // cloned outside the timed region, so only `freeze_with` is
        // measured.
        let mut mutated: Vec<GraphInstance> = Vec::with_capacity(COMMITS_PER_GRAPH);
        let mut g = ctx.graph.clone();
        let ty = &ctx.schema.node_types[0];
        for i in 0..COMMITS_PER_GRAPH {
            if i % 2 == 0 {
                g.add_node(ty.label.clone(), keyed(ty, fresh_pk(i as u64)));
            } else {
                let id = g.nodes().next_back().expect("just added").id;
                g.remove_node(id).expect("no incident edges");
            }
            mutated.push(g.clone());
        }
        let extras: Vec<Vec<(String, RelInstance)>> =
            (0..COMMITS_PER_GRAPH).map(|_| ctx.extra.clone()).collect();
        let start = Instant::now();
        for (g, extra) in mutated.into_iter().zip(extras) {
            Snapshot::freeze_with(ctx.schema.clone(), g, extra).expect("valid graph");
        }
        cold_secs += start.elapsed().as_secs_f64();

        // The same mutation sequence through the store.
        let store =
            GraphStore::open_with(ctx.schema.clone(), ctx.graph.clone(), ctx.extra.iter().cloned())
                .expect("corpus graph is valid");
        let mut added = Vec::new();
        let start = Instant::now();
        for i in 0..COMMITS_PER_GRAPH {
            if i % 2 == 0 {
                let info = store
                    .commit(add_node_delta(&ctx.schema, fresh_pk(i as u64)))
                    .expect("fresh key addition");
                added.push(info.node_keys[0]);
            } else {
                let mut d = Delta::new();
                d.remove_node(added.pop().expect("added on the previous commit"));
                store.commit(d).expect("isolated node removal");
            }
        }
        incr_secs += start.elapsed().as_secs_f64();
    }
    (cold_secs, incr_secs)
}

/// (delta size, incremental µs/commit, cold µs/re-freeze) per size,
/// averaged over 16 reps.  Every commit, the first included, publishes
/// the graph as a copy-on-write clone, paying only for the arena chunks
/// and label-index entries its additions touch.
fn delta_size_sweep(schema: &GraphSchema, base: &GraphInstance) -> Vec<(usize, f64, f64)> {
    let reps = 16;
    let mut sweep = Vec::new();
    for &size in &[1usize, 16, 256] {
        let store = GraphStore::open(schema.clone(), base.clone()).expect("valid");
        let mut next = 0u64;
        let start = Instant::now();
        for _ in 0..reps {
            let ty = &schema.node_types[0];
            let mut d = Delta::new();
            for _ in 0..size {
                d.add_node(ty.label.clone(), [("id", fresh_pk(next)), ("name", Value::str("new"))]);
                next += 1;
            }
            store.commit(d).expect("fresh keys");
        }
        let incr_micros = start.elapsed().as_secs_f64() * 1e6 / reps as f64;
        // Cold: freeze the equivalently mutated graph, clones pre-built.
        let mut gs: Vec<GraphInstance> = Vec::with_capacity(reps);
        let mut g = base.clone();
        let mut next = 0u64;
        for _ in 0..reps {
            for _ in 0..size {
                g.add_node("EMP", [("id", fresh_pk(next)), ("name", Value::str("new"))]);
                next += 1;
            }
            gs.push(g.clone());
        }
        let start = Instant::now();
        for g in gs {
            Snapshot::freeze(schema.clone(), g).expect("valid graph");
        }
        let cold_micros = start.elapsed().as_secs_f64() * 1e6 / reps as f64;
        sweep.push((size, incr_micros, cold_micros));
    }
    sweep
}

/// One read round: `batch` on the latest published generation.
fn read_round(store: &GraphStore, batch: &[BatchQuery]) {
    let (_, snapshot) = store.published();
    store.engine().run_batch_on(&snapshot, batch, 2);
}

/// (quiet q/s, busy q/s, writer commits/s).
fn reads_under_writes(store: GraphStore) -> (f64, f64, f64) {
    let store = Arc::new(store);
    let batch: Vec<BatchQuery> = vec![
        BatchQuery::sql("SELECT Count(*) AS c FROM EMP AS e"),
        BatchQuery::sql(
            "SELECT d.dname FROM DEPT AS d, WORK_AT AS w WHERE d.dnum = w.TGT AND w.wid = 7",
        ),
        BatchQuery::cypher("MATCH (n:EMP) WHERE n.id > 9000 RETURN n.name AS who"),
    ];
    read_round(&store, &batch); // warm plans
    let start = Instant::now();
    for _ in 0..READ_ROUNDS {
        read_round(&store, &batch);
    }
    let quiet_qps = (READ_ROUNDS * batch.len()) as f64 / start.elapsed().as_secs_f64();

    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut commits = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let mut d = Delta::new();
                d.add_node("EMP", [("id", fresh_pk(500_000 + commits)), ("name", Value::str("w"))]);
                store.commit(d).expect("fresh keys");
                commits += 1;
            }
            commits
        })
    };
    let start = Instant::now();
    for _ in 0..READ_ROUNDS {
        read_round(&store, &batch);
    }
    let busy_secs = start.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    let write_commits = writer.join().expect("writer thread");
    let busy_qps = (READ_ROUNDS * batch.len()) as f64 / busy_secs;
    (quiet_qps, busy_qps, write_commits as f64 / busy_secs)
}

/// (tables checked, all agree) over the scripted batches.
fn incremental_matches_cold(ctxs: &[WriteCtx]) -> (usize, bool) {
    let mut all_agree = true;
    let mut checked = 0usize;
    for ctx in ctxs.iter().take(DIFF_GRAPHS) {
        let store =
            GraphStore::open_with(ctx.schema.clone(), ctx.graph.clone(), ctx.extra.iter().cloned())
                .expect("valid");
        // Add three nodes per type, remove one, three times over.
        for round in 0..3u64 {
            let mut d = Delta::new();
            let mut added = Vec::new();
            for (t, ty) in ctx.schema.node_types.iter().enumerate() {
                for j in 0..3u64 {
                    let pk = fresh_pk(1000 * round + 10 * t as u64 + j);
                    added.push(d.add_node(ty.label.clone(), keyed(ty, pk)));
                }
            }
            d.remove_node(added[0]);
            store.commit(d).expect("scripted delta");
        }
        let snap = store.snapshot();
        let cold = Snapshot::freeze(snap.schema().clone(), snap.graph().clone())
            .expect("master stays valid");
        for (name, cold_table) in cold.induced().tables() {
            checked += 1;
            let live = snap.induced().table(name).expect("table exists");
            let columnar_ok = snap
                .sql_columnar(&SqlTarget::Induced)
                .ok()
                .and_then(|c| c.table(name))
                .is_some_and(|ct| ct.to_table() == *live);
            if !(live.rows_bag_equal(cold_table) && columnar_ok) {
                eprintln!("store image of `{name}` diverges from cold freeze");
                all_agree = false;
            }
        }
        let query = BatchQuery::cypher(&ctx.cypher_text);
        let live = store.engine().execute_on(&snap, &query);
        let oracle = Engine::new(Arc::clone(&cold)).execute_on(&cold, &query);
        match (live.result, oracle.result) {
            (Ok(a), Ok(b)) if a.equivalent(&b) => {}
            (Err(_), Err(_)) => {}
            _ => {
                eprintln!("query disagreement on `{}`", ctx.cypher_text);
                all_agree = false;
            }
        }
    }
    (checked, all_agree)
}

pub fn run() -> Json {
    let ctxs: Vec<WriteCtx> = corpus(0x517A)
        .into_iter()
        .map(|case| WriteCtx {
            schema: case.bench.graph_schema,
            graph: case.dbs.graph,
            extra: vec![(TARGET.to_string(), case.dbs.target)],
            cypher_text: case.bench.cypher_text,
        })
        .collect();
    let (cold_secs, incr_secs) = corpus_commits(&ctxs);
    let commits = (ctxs.len() * COMMITS_PER_GRAPH) as f64;

    let schema = large_schema();
    let base = large_graph(LARGE_GRAPH_EMPS);
    let sweep = delta_size_sweep(&schema, &base);
    let (quiet_qps, busy_qps, writer_cps) =
        reads_under_writes(GraphStore::open(schema, base).expect("valid"));
    let (tables_checked, all_agree) = incremental_matches_cold(&ctxs);

    let sweep = sweep.iter().map(|(size, incr, cold)| {
        (
            format!("delta_{size}"),
            Json::obj([("incremental_us", (*incr).into()), ("cold_us", (*cold).into())]),
        )
    });
    Json::obj([
        ("corpus_graphs", ctxs.len().into()),
        ("cold_commit_us", (cold_secs * 1e6 / commits).into()),
        ("incremental_commit_us", (incr_secs * 1e6 / commits).into()),
        ("delta_size_sweep", Json::obj(sweep)),
        ("quiet_qps", quiet_qps.into()),
        ("under_write_qps", busy_qps.into()),
        ("writer_commits_per_sec", writer_cps.into()),
        ("tables_checked", tables_checked.into()),
        (
            "gate",
            Json::obj([
                ("incremental_commit_speedup", (cold_secs / incr_secs).into()),
                ("reads_survive_writes", (busy_qps / quiet_qps > 0.2).into()),
                ("store_differential_agree", all_agree.into()),
            ]),
        ),
    ])
}
