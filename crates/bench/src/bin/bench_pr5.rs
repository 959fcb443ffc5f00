//! PR 5 performance harness: the writable store's **incremental commit**
//! vs a cold re-freeze, across delta sizes, plus read throughput while a
//! writer is publishing generations.
//!
//! Measurements:
//!
//! * **corpus single-mutation commits** — for every corpus benchmark's
//!   graph (the same 612-query corpus the PR 3/4 harnesses sweep), the
//!   pre-PR5 write path (mutate + full `Snapshot::freeze_with`: whole-graph
//!   validation, SDT re-application, full columnar conversion) is timed
//!   against `GraphStore::commit` on single-mutation deltas
//!   (alternating node add / node remove).  The headline
//!   `incremental_commit_speedup` is the total-time ratio, floored at 5×
//!   by `check_bench`;
//! * **delta-size sweep** — on a larger synthetic EMP graph, commits of
//!   1/16/256 mutations vs cold re-freezes of the same mutated graphs
//!   (reported, not gated: the big-graph ratios are hardware-dependent);
//! * **read throughput under writes** — a query batch replayed through the
//!   store's engine while a writer thread commits continuously; the gate
//!   asserts reads keep flowing (`reads_survive_writes`: under-write
//!   throughput stays above 20% of the quiet baseline — MVCC readers are
//!   never blocked, so in practice it stays far higher);
//! * **incremental ≡ cold differential** — after scripted mutation
//!   batches on a corpus prefix, every induced table must be bag-equal to
//!   a cold freeze of the same master graph, the columnar image must equal
//!   the row image, and the benchmark's Cypher query must evaluate
//!   equivalently through the store's engine and a cold engine
//!   (`store_differential_agree`, gated);
//! * **engine observability** — `Engine::stats()` (pool threads + plan
//!   cache counters) is reported for the read-phase engine.
//!
//! Emits `BENCH_PR5.json` with a `"gate"` object (regression-checked by
//! `check_bench`) and a `"floors"` object pinning
//! `incremental_commit_speedup >= 5.0`.
//!
//! Usage: `cargo run --release -p graphiti-bench --bin bench_pr5 --
//! [--quick] [--out PATH]`.

use graphiti_benchmarks::{build_databases, small_corpus};
use graphiti_common::Value;
use graphiti_core::reduce;
use graphiti_engine::{BatchQuery, Engine, Snapshot};
use graphiti_graph::{EdgeType, GraphInstance, GraphSchema, NodeType};
use graphiti_relational::RelInstance;
use graphiti_store::{Delta, GraphStore, QuerySurface};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

struct Options {
    quick: bool,
    out: String,
}

impl Options {
    fn from_args() -> Options {
        let mut opts = Options { quick: false, out: "BENCH_PR5.json".to_string() };
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--quick" => opts.quick = true,
                "--out" if i + 1 < args.len() => {
                    opts.out = args[i + 1].clone();
                    i += 1;
                }
                _ => {}
            }
            i += 1;
        }
        opts
    }
}

/// One corpus graph ready for the write benchmarks.
struct WriteCtx {
    schema: GraphSchema,
    graph: GraphInstance,
    extra: Vec<(String, RelInstance)>,
    cypher_text: String,
}

const TARGET: &str = "target";

fn build_write_workload(quick: bool) -> Vec<WriteCtx> {
    let corpus = if quick { small_corpus(8) } else { small_corpus(2) };
    let mut ctxs = Vec::new();
    for b in &corpus {
        let (Ok(cypher), Ok(_sql), Ok(transformer)) = (b.cypher(), b.sql(), b.transformer()) else {
            continue;
        };
        let Ok(reduction) = reduce(&b.graph_schema, &cypher, &transformer) else { continue };
        let Ok(dbs) = build_databases(&reduction.ctx, &transformer, &b.target_schema, 6, 2, 0x517A)
        else {
            continue;
        };
        ctxs.push(WriteCtx {
            schema: b.graph_schema.clone(),
            graph: dbs.graph,
            extra: vec![(TARGET.to_string(), dbs.target)],
            cypher_text: b.cypher_text.clone(),
        });
    }
    ctxs
}

/// A fresh default-key value far above anything the mock data generates.
fn fresh_pk(i: u64) -> Value {
    Value::Int(1_000_000_000 + i as i64)
}

/// A single-node-addition delta for the schema's first node type.
fn add_node_delta(schema: &GraphSchema, pk: Value) -> Delta {
    let ty = &schema.node_types[0];
    let mut d = Delta::new();
    d.add_node(
        ty.label.clone(),
        ty.keys
            .iter()
            .enumerate()
            .map(|(i, k)| (k.clone(), if i == 0 { pk.clone() } else { Value::Null })),
    );
    d
}

/// The EMP-shaped synthetic graph for the large-scale sweeps.
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

fn main() {
    let opts = Options::from_args();
    let ctxs = build_write_workload(opts.quick);
    let commits_per_graph = if opts.quick { 10 } else { 20 };

    // ---------------------- corpus: single-mutation commit vs cold freeze
    // The cold side gets every advantage: the mutated graphs are cloned
    // *outside* the timed region, so only `Snapshot::freeze_with` (the
    // actual pre-PR5 write path) is measured.
    let mut cold_secs = 0.0f64;
    let mut incr_secs = 0.0f64;
    let mut cold_commits = 0usize;
    let mut incr_commits = 0usize;
    for ctx in &ctxs {
        // Pre-build the mutated graph sequence: add / remove alternating.
        let mut mutated: Vec<GraphInstance> = Vec::with_capacity(commits_per_graph);
        let mut g = ctx.graph.clone();
        let ty = &ctx.schema.node_types[0];
        for i in 0..commits_per_graph {
            if i % 2 == 0 {
                g.add_node(
                    ty.label.clone(),
                    ty.keys.iter().enumerate().map(|(j, k)| {
                        (k.clone(), if j == 0 { fresh_pk(i as u64) } else { Value::Null })
                    }),
                );
            } else {
                let id = g.nodes().next_back().expect("just added").id;
                g.remove_node(id).expect("no incident edges");
            }
            mutated.push(g.clone());
        }
        let extras: Vec<Vec<(String, RelInstance)>> =
            (0..commits_per_graph).map(|_| ctx.extra.clone()).collect();
        let start = Instant::now();
        for (g, extra) in mutated.into_iter().zip(extras) {
            Snapshot::freeze_with(ctx.schema.clone(), g, extra).expect("valid graph");
        }
        cold_secs += start.elapsed().as_secs_f64();
        cold_commits += commits_per_graph;

        // Incremental: same mutation sequence through the store.
        let store =
            GraphStore::open_with(ctx.schema.clone(), ctx.graph.clone(), ctx.extra.iter().cloned())
                .expect("corpus graph is valid");
        let mut added = Vec::new();
        let start = Instant::now();
        for i in 0..commits_per_graph {
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
        incr_commits += commits_per_graph;
    }
    let incremental_commit_speedup = cold_secs / incr_secs;
    let cold_commit_micros = cold_secs * 1e6 / cold_commits as f64;
    let incr_commit_micros = incr_secs * 1e6 / incr_commits as f64;

    // --------------------------------- large graph: delta-size sweep
    let emps = if opts.quick { 2_000 } else { 10_000 };
    let schema = large_schema();
    let base = large_graph(emps);
    let mut sweep: Vec<(usize, f64, f64)> = Vec::new(); // (size, incr µs, cold µs)
    for &size in &[1usize, 16, 256] {
        // Averaged over several reps.  Every commit, the first included,
        // publishes the graph as a copy-on-write clone, paying only for the
        // arena chunks and label-index entries its additions touch.
        let reps = if opts.quick { 8 } else { 16 };
        // Incremental: `reps` commits of `size` node additions each.
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

    // ------------------------------------ read throughput under writes
    let store = Arc::new(GraphStore::open(schema.clone(), base).expect("valid"));
    let batch: Vec<BatchQuery> = vec![
        BatchQuery::sql("SELECT Count(*) AS c FROM EMP AS e"),
        BatchQuery::sql(
            "SELECT d.dname FROM DEPT AS d, WORK_AT AS w WHERE d.dnum = w.TGT AND w.wid = 7",
        ),
        BatchQuery::cypher("MATCH (n:EMP) WHERE n.id > 9000 RETURN n.name AS who"),
    ];
    let read_rounds = if opts.quick { 30 } else { 60 };
    store.run_batch(&batch, 2); // warm plans
    let start = Instant::now();
    for _ in 0..read_rounds {
        store.run_batch(&batch, 2);
    }
    let quiet_qps = (read_rounds * batch.len()) as f64 / start.elapsed().as_secs_f64();

    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut i = 0u64;
            let mut commits = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let mut d = Delta::new();
                d.add_node("EMP", [("id", fresh_pk(500_000 + i)), ("name", Value::str("w"))]);
                store.commit(d).expect("fresh keys");
                i += 1;
                commits += 1;
            }
            commits
        })
    };
    let start = Instant::now();
    for _ in 0..read_rounds {
        store.run_batch(&batch, 2);
    }
    let busy_secs = start.elapsed().as_secs_f64();
    let busy_qps = (read_rounds * batch.len()) as f64 / busy_secs;
    stop.store(true, Ordering::Relaxed);
    let write_commits = writer.join().expect("writer thread");
    let commits_per_sec = write_commits as f64 / busy_secs;
    let read_ratio_under_writes = busy_qps / quiet_qps;
    let reads_survive_writes = read_ratio_under_writes > 0.2;
    let engine_stats = store.engine().stats();
    let store_stats = store.stats();

    // ------------------------------------ incremental ≡ cold differential
    let diff_graphs = if opts.quick { 8 } else { 24 };
    let mut all_agree = true;
    let mut diff_checked = 0usize;
    for ctx in ctxs.iter().take(diff_graphs) {
        let store =
            GraphStore::open_with(ctx.schema.clone(), ctx.graph.clone(), ctx.extra.iter().cloned())
                .expect("valid");
        // A scripted batch: add three nodes per type, remove one, re-prop
        // another — then compare everything against a cold freeze.
        for round in 0..3u64 {
            let mut d = Delta::new();
            let mut added = Vec::new();
            for (t, ty) in ctx.schema.node_types.iter().enumerate() {
                for j in 0..3u64 {
                    let pk = fresh_pk(1000 * round + 10 * t as u64 + j);
                    added.push(d.add_node(
                        ty.label.clone(),
                        ty.keys.iter().enumerate().map(|(i, k)| {
                            (k.clone(), if i == 0 { pk.clone() } else { Value::Null })
                        }),
                    ));
                }
            }
            d.remove_node(added[0]);
            store.commit(d).expect("scripted delta");
        }
        let snap = store.snapshot();
        let cold = Snapshot::freeze(snap.schema().clone(), snap.graph().clone())
            .expect("master stays valid");
        for (name, cold_table) in cold.induced().tables() {
            diff_checked += 1;
            let live = snap.induced().table(name).expect("table exists");
            let columnar_ok = snap
                .sql_columnar(&graphiti_engine::SqlTarget::Induced)
                .ok()
                .and_then(|c| c.table(name))
                .map(|ct| ct.to_table() == *live)
                .unwrap_or(false);
            if !(live.rows_bag_equal(cold_table) && columnar_ok) {
                eprintln!("store image of `{name}` diverges from cold freeze");
                all_agree = false;
            }
        }
        let live = store.engine().execute(&BatchQuery::cypher(&ctx.cypher_text));
        let oracle = Engine::new(cold).execute(&BatchQuery::cypher(&ctx.cypher_text));
        match (live.result, oracle.result) {
            (Ok(a), Ok(b)) if a.equivalent(&b) => {}
            (Err(_), Err(_)) => {}
            _ => {
                eprintln!("query disagreement on `{}`", ctx.cypher_text);
                all_agree = false;
            }
        }
    }

    // -------------------------------------------------------------- report
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"harness\": \"bench_pr5\",");
    let _ = writeln!(json, "  \"mode\": \"{}\",", if opts.quick { "quick" } else { "full" });
    let _ = writeln!(
        json,
        "  \"workload\": {{\"corpus_graphs\": {}, \"commits_per_graph\": {commits_per_graph}, \"large_graph_emps\": {emps}}},",
        ctxs.len()
    );
    let _ = writeln!(
        json,
        "  \"corpus_commits\": {{\"description\": \"single-mutation deltas on every corpus graph: GraphStore::commit vs mutate + cold Snapshot::freeze_with\", \"cold_commit_micros\": {cold_commit_micros:.1}, \"incremental_commit_micros\": {incr_commit_micros:.1}, \"commits\": {incr_commits}}},",
    );
    let _ = writeln!(json, "  \"delta_size_sweep\": [");
    for (i, (size, incr, cold)) in sweep.iter().enumerate() {
        let comma = if i + 1 < sweep.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"delta_size\": {size}, \"incremental_commit_micros\": {incr:.1}, \"cold_refreeze_micros\": {cold:.1}, \"speedup\": {:.2}}}{comma}",
            cold / incr
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"reads_under_writes\": {{\"quiet_queries_per_sec\": {quiet_qps:.1}, \"under_write_queries_per_sec\": {busy_qps:.1}, \"ratio\": {read_ratio_under_writes:.3}, \"writer_commits_per_sec\": {commits_per_sec:.1}}},",
    );
    let _ = writeln!(
        json,
        "  \"engine_stats\": {{\"pool_threads\": {}, \"workers_available\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \"cache_entries\": {}, \"cache_evictions\": {}}},",
        engine_stats.pool_threads.map(|t| t.to_string()).unwrap_or_else(|| "null".to_string()),
        engine_stats.workers_available,
        engine_stats.cache.hits,
        engine_stats.cache.misses,
        engine_stats.cache.entries,
        engine_stats.cache.evictions,
    );
    let _ = writeln!(
        json,
        "  \"store_stats\": {{\"generation\": {}, \"commits\": {}, \"compactions\": {}, \"live_nodes\": {}, \"live_edges\": {}, \"logged_rows\": {}, \"tombstoned_rows\": {}}},",
        store_stats.generation,
        store_stats.commits,
        store_stats.compactions,
        store_stats.live_nodes,
        store_stats.live_edges,
        store_stats.logged_rows,
        store_stats.tombstoned_rows,
    );
    let _ = writeln!(
        json,
        "  \"differential\": {{\"graphs\": {}, \"tables_checked\": {diff_checked}, \"all_agree\": {all_agree}}},",
        ctxs.len().min(diff_graphs)
    );
    let _ = writeln!(json, "  \"gate\": {{");
    let _ = writeln!(json, "    \"incremental_commit_speedup\": {incremental_commit_speedup:.2},");
    let _ = writeln!(json, "    \"reads_survive_writes\": {reads_survive_writes},");
    let _ = writeln!(json, "    \"store_differential_agree\": {all_agree}");
    let _ = writeln!(json, "  }},");
    // One hard floor: the satellite requirement.  The large-graph sweep
    // ratios stay out of the gate on purpose (hardware-sensitive).
    let _ = writeln!(json, "  \"floors\": {{");
    let _ = writeln!(json, "    \"incremental_commit_speedup\": 5.0");
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");
    std::fs::write(&opts.out, &json).expect("write bench json");

    println!("corpus: {} graphs x {commits_per_graph} single-mutation commits", ctxs.len());
    println!("| path | µs/commit | ratio |");
    println!("|---|---|---|");
    println!("| cold re-freeze (freeze_with) | {cold_commit_micros:.0} | 1.00x |");
    println!(
        "| incremental GraphStore::commit | {incr_commit_micros:.0} | {incremental_commit_speedup:.2}x |"
    );
    for (size, incr, cold) in &sweep {
        println!(
            "large graph ({emps} EMPs), delta of {size}: incremental {incr:.0}µs vs cold {cold:.0}µs ({:.2}x)",
            cold / incr
        );
    }
    println!(
        "reads under writes: quiet {quiet_qps:.0} q/s, busy {busy_qps:.0} q/s (ratio {read_ratio_under_writes:.2}), writer {commits_per_sec:.0} commits/s"
    );
    println!("differential: {diff_checked} tables checked, all_agree = {all_agree}");
    println!("wrote {}", opts.out);
    if !all_agree {
        std::process::exit(1);
    }
    if incremental_commit_speedup < 5.0 {
        eprintln!("FLOOR MISSED: incremental_commit_speedup {incremental_commit_speedup:.2} < 5.0");
        std::process::exit(1);
    }
    if !reads_survive_writes {
        eprintln!(
            "FLOOR MISSED: reads under writes collapsed (ratio {read_ratio_under_writes:.2})"
        );
        std::process::exit(1);
    }
}
