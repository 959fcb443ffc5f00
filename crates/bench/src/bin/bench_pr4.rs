//! PR 4 performance harness: vectorized (columnar) execution vs the
//! row-at-a-time engine, and the persistent worker pool's ladder.
//!
//! The workload is the corpus sweep (every benchmark contributes its
//! Cypher query, its transpilation, and the manually-written SQL — 612
//! queries in full mode).  Measurements:
//!
//! * **differential sweep** — for every workload item, the engine's
//!   vectorized cached-plan result, the row-at-a-time compiled-plan
//!   result (`eval_compiled`, the oracle path), and the one-shot legacy
//!   evaluator must be table-equivalent (Definition 4.4); the harness
//!   exits non-zero otherwise;
//! * **row vs vectorized** — the SQL portion of the sweep is replayed for
//!   several warm rounds (plans precompiled, databases resident) through
//!   `eval_compiled` and through `eval_vectorized`; the headline
//!   `vectorized_speedup` is the throughput ratio, gated with a hard
//!   floor of 2× by `check_bench`;
//! * **persistent-pool ladder** — `Engine::run_batch` throughput at
//!   1/2/4/8 workers on a replicated batch (pool threads spawn once per
//!   engine; on a single-core host a same-core speedup from parallelism
//!   is impossible by construction — see `workers_available` in the
//!   emitted JSON);
//! * **plan-cache warm-up** — cold round vs warm rounds, as in PR 3.
//!
//! Emits `BENCH_PR4.json` with a `"gate"` object of hardware-portable
//! ratios (regression-checked against the checked-in baseline by
//! `check_bench`) and a `"floors"` object of absolute minimums
//! (`vectorized_speedup >= 2`).
//!
//! Usage: `cargo run --release -p graphiti-bench --bin bench_pr4 --
//! [--quick] [--out PATH]`.

use graphiti_benchmarks::{build_databases, small_corpus};
use graphiti_core::reduce;
use graphiti_engine::{available_workers, BatchQuery, Engine, Snapshot};
use graphiti_relational::{ColumnInstance, RelInstance};
use graphiti_sql::CompiledQuery;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

struct Options {
    quick: bool,
    out: String,
}

impl Options {
    fn from_args() -> Options {
        let mut opts = Options { quick: false, out: "BENCH_PR4.json".to_string() };
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

/// One benchmark's frozen state plus its three text queries.
struct BenchCtx {
    snapshot: Arc<Snapshot>,
}

/// One workload item.
struct Item {
    bench: usize,
    query: BatchQuery,
}

/// A pre-resolved SQL item for the row-vs-vectorized comparison: the
/// compiled plan plus both layouts of its target instance.
struct SqlItem<'a> {
    instance: &'a RelInstance,
    columnar: &'a ColumnInstance,
    plan: CompiledQuery,
}

const TARGET: &str = "target";

fn build_workload(quick: bool) -> (Vec<BenchCtx>, Vec<Item>) {
    let corpus = if quick { small_corpus(8) } else { small_corpus(2) };
    let mut ctxs: Vec<BenchCtx> = Vec::new();
    let mut items: Vec<Item> = Vec::new();
    for b in &corpus {
        let (Ok(cypher), Ok(_sql), Ok(transformer)) = (b.cypher(), b.sql(), b.transformer()) else {
            continue;
        };
        let Ok(reduction) = reduce(&b.graph_schema, &cypher, &transformer) else { continue };
        let Ok(dbs) = build_databases(&reduction.ctx, &transformer, &b.target_schema, 6, 2, 0x93A7)
        else {
            continue;
        };
        let transpiled_text = graphiti_sql::query_to_string(&reduction.transpiled);
        let snapshot = Snapshot::from_parts(
            b.graph_schema.clone(),
            dbs.graph,
            reduction.ctx.clone(),
            dbs.induced,
            [(TARGET.to_string(), dbs.target)],
        );
        let bench = ctxs.len();
        ctxs.push(BenchCtx { snapshot });
        items.push(Item { bench, query: BatchQuery::cypher(&b.cypher_text) });
        items.push(Item { bench, query: BatchQuery::sql(transpiled_text) });
        items.push(Item { bench, query: BatchQuery::sql_on(TARGET, &b.sql_text) });
    }
    (ctxs, items)
}

/// The one-shot legacy evaluator (parse + optimize + per-operator compile
/// + row-at-a-time eval per request).
fn legacy_execute(
    ctx: &BenchCtx,
    query: &BatchQuery,
) -> graphiti_common::Result<graphiti_relational::Table> {
    match query {
        BatchQuery::Cypher { text } => {
            let q = graphiti_cypher::parse_query(text)?;
            graphiti_cypher::eval_query(ctx.snapshot.schema(), ctx.snapshot.graph(), &q)
        }
        BatchQuery::Sql { text, target } => {
            let q = graphiti_sql::parse_query(text)?;
            graphiti_sql::eval_query(ctx.snapshot.sql_instance(target)?, &q)
        }
    }
}

/// Times `rounds` full passes of `f` over `n` items; returns (seconds, qps).
fn time_rounds(rounds: usize, n: usize, mut f: impl FnMut()) -> (f64, f64) {
    let start = Instant::now();
    for _ in 0..rounds {
        f();
    }
    let secs = start.elapsed().as_secs_f64();
    (secs, (rounds * n) as f64 / secs)
}

struct Ladder {
    workers: usize,
    queries_per_sec: f64,
}

fn main() {
    let opts = Options::from_args();
    let rounds = if opts.quick { 4 } else { 8 };
    let (ctxs, mut items) = build_workload(opts.quick);

    // ---------------------------------------------- differential validation
    // Three-way agreement per item: vectorized engine (cached plans over
    // columnar snapshots) vs row-at-a-time compiled plans vs the legacy
    // one-shot evaluator.  Items the legacy path cannot evaluate are
    // dropped so every execution model processes identical traffic.
    let engines: Vec<Engine> = ctxs.iter().map(|c| Engine::new(Arc::clone(&c.snapshot))).collect();
    let mut checked = 0usize;
    let mut all_agree = true;
    items.retain(|it| match legacy_execute(&ctxs[it.bench], &it.query) {
        Err(_) => false,
        Ok(want) => {
            checked += 1;
            let vectorized = match engines[it.bench].execute(&it.query).result {
                Ok(got) if got.equivalent(&want) => true,
                _ => {
                    eprintln!("vectorized engine disagrees on `{}`", it.query.text());
                    all_agree = false;
                    false
                }
            };
            let row_ok = match &it.query {
                BatchQuery::Cypher { .. } => true,
                BatchQuery::Sql { text, target } => {
                    let snapshot = &ctxs[it.bench].snapshot;
                    let instance = snapshot.sql_instance(target).unwrap();
                    let row = graphiti_sql::parse_query(text)
                        .and_then(|ast| graphiti_sql::compile_query(instance, &ast))
                        .and_then(|plan| graphiti_sql::eval_compiled(instance, &plan));
                    match row {
                        Ok(got) if got.equivalent(&want) => true,
                        _ => {
                            eprintln!("row-compiled engine disagrees on `{}`", it.query.text());
                            all_agree = false;
                            false
                        }
                    }
                }
            };
            vectorized && row_ok
        }
    });
    drop(engines);

    // --------------------------- row vs vectorized (the SQL warm rounds)
    // Pre-compile every SQL item's plan once; both models then replay the
    // whole SQL portion of the sweep for `rounds` warm rounds.
    let sql_items: Vec<SqlItem<'_>> = items
        .iter()
        .filter_map(|it| match &it.query {
            BatchQuery::Cypher { .. } => None,
            BatchQuery::Sql { text, target } => {
                let snapshot = &ctxs[it.bench].snapshot;
                let instance = snapshot.sql_instance(target).unwrap();
                let columnar = snapshot.sql_columnar(target).unwrap();
                let ast = graphiti_sql::parse_query(text).unwrap();
                let plan = graphiti_sql::compile_query(instance, &ast).unwrap();
                Some(SqlItem { instance, columnar, plan })
            }
        })
        .collect();
    let (row_secs, row_qps) = time_rounds(rounds, sql_items.len(), || {
        for it in &sql_items {
            graphiti_sql::eval_compiled(it.instance, &it.plan).unwrap();
        }
    });
    let (vec_secs, vec_qps) = time_rounds(rounds, sql_items.len(), || {
        for it in &sql_items {
            graphiti_sql::eval_vectorized(it.instance, it.columnar, &it.plan).unwrap();
        }
    });
    let vectorized_speedup = vec_qps / row_qps;

    // ------------------------------------------- persistent-pool ladder
    // One engine, one big batch (its three queries tiled to corpus scale),
    // run through the pooled `run_batch` at 1/2/4/8 workers.  On a
    // single-core host (`workers_available: 1`) the ladder is flat by
    // physics; on multi-core hosts it shows the pool's scaling.
    let ladder_engine = Engine::new(Arc::clone(&ctxs[0].snapshot));
    let tile: Vec<BatchQuery> =
        items.iter().filter(|it| it.bench == 0).map(|it| it.query.clone()).collect();
    let big_batch: Vec<BatchQuery> = (0..ctxs.len()).flat_map(|_| tile.iter().cloned()).collect();
    ladder_engine.run_batch(&big_batch, 1); // warm the plan cache
    let ladder: Vec<Ladder> = [1usize, 2, 4, 8]
        .iter()
        .map(|&workers| {
            let (_, qps) = time_rounds(rounds, big_batch.len(), || {
                ladder_engine.run_batch(&big_batch, workers);
            });
            Ladder { workers, queries_per_sec: qps }
        })
        .collect();
    let pool_scaling_4w = ladder[2].queries_per_sec / ladder[0].queries_per_sec;

    // ------------------------------------------------- cache warm-up
    // Fresh engines; one serial cold round (parse + compile + execute),
    // then warm rounds on the populated caches.
    let engines: Vec<Engine> = ctxs.iter().map(|c| Engine::new(Arc::clone(&c.snapshot))).collect();
    let (cold_secs, _) = time_rounds(1, items.len(), || {
        for it in &items {
            engines[it.bench].execute(&it.query);
        }
    });
    let (warm_secs, _) = time_rounds(rounds - 1, items.len(), || {
        for it in &items {
            engines[it.bench].execute(&it.query);
        }
    });
    let warm_round_secs = warm_secs / (rounds - 1) as f64;
    let cache_warm_speedup = cold_secs / warm_round_secs;
    let (hits, misses) = engines.iter().fold((0u64, 0u64), |(h, m), e| {
        let s = e.cache_stats();
        (h + s.hits, m + s.misses)
    });

    // -------------------------------------------------------------- report
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"harness\": \"bench_pr4\",");
    let _ = writeln!(json, "  \"mode\": \"{}\",", if opts.quick { "quick" } else { "full" });
    let _ = writeln!(json, "  \"workers_available\": {},", available_workers());
    let _ = writeln!(
        json,
        "  \"workload\": {{\"benchmarks\": {}, \"queries_per_round\": {}, \"sql_queries_per_round\": {}, \"rounds\": {rounds}}},",
        ctxs.len(),
        items.len(),
        sql_items.len()
    );
    let _ = writeln!(
        json,
        "  \"row_engine\": {{\"description\": \"warm rounds of eval_compiled (row-at-a-time) over the SQL portion of the sweep, plans precompiled\", \"queries_per_sec\": {row_qps:.1}, \"total_seconds\": {row_secs:.4}}},",
    );
    let _ = writeln!(
        json,
        "  \"vectorized_engine\": {{\"description\": \"warm rounds of eval_vectorized (columnar) over the same plans and instances\", \"queries_per_sec\": {vec_qps:.1}, \"total_seconds\": {vec_secs:.4}}},",
    );
    let _ = writeln!(json, "  \"pool_ladder\": [");
    for (i, l) in ladder.iter().enumerate() {
        let comma = if i + 1 < ladder.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"workers\": {}, \"queries_per_sec\": {:.1}}}{comma}",
            l.workers, l.queries_per_sec
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"plan_cache\": {{\"cold_round_seconds\": {cold_secs:.4}, \"warm_round_seconds_avg\": {warm_round_secs:.4}, \"cache_hits\": {hits}, \"cache_misses\": {misses}}},",
    );
    let _ = writeln!(
        json,
        "  \"differential\": {{\"queries_checked\": {checked}, \"all_agree\": {all_agree}}},"
    );
    let _ = writeln!(json, "  \"gate\": {{");
    let _ = writeln!(json, "    \"vectorized_speedup\": {vectorized_speedup:.2},");
    let _ = writeln!(json, "    \"pool_scaling_4w\": {pool_scaling_4w:.2},");
    let _ = writeln!(json, "    \"cache_warm_speedup\": {cache_warm_speedup:.2},");
    let _ = writeln!(json, "    \"sweep_all_agree\": {all_agree}");
    let _ = writeln!(json, "  }},");
    // Absolute minimums, enforced tolerance-free by check_bench (and
    // below, so a local run fails fast too).  `pool_scaling_4w` has no
    // floor on purpose: same-core parallel speedup is impossible on a
    // 1-core host (see workers_available), so it is regression-tracked
    // relative to the baseline instead.
    let _ = writeln!(json, "  \"floors\": {{");
    let _ = writeln!(json, "    \"vectorized_speedup\": 2.0");
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");
    std::fs::write(&opts.out, &json).expect("write bench json");

    println!(
        "workload: {} queries ({} SQL) x {rounds} rounds over {} benchmarks",
        items.len(),
        sql_items.len(),
        ctxs.len()
    );
    println!("| model | q/s | ratio |");
    println!("|---|---|---|");
    println!("| row-at-a-time eval_compiled (warm plans) | {row_qps:.0} | 1.00x |");
    println!(
        "| vectorized eval_vectorized (warm plans) | {vec_qps:.0} | {vectorized_speedup:.2}x |"
    );
    for l in &ladder {
        println!(
            "| pooled run_batch, {} worker(s) | {:.0} | {:.2}x |",
            l.workers,
            l.queries_per_sec,
            l.queries_per_sec / ladder[0].queries_per_sec
        );
    }
    println!(
        "plan cache: cold round {cold_secs:.4}s, warm rounds {warm_round_secs:.4}s avg ({cache_warm_speedup:.2}x)"
    );
    println!("differential: {checked} queries checked, all_agree = {all_agree}");
    println!("wrote {}", opts.out);
    if !all_agree {
        std::process::exit(1);
    }
    if vectorized_speedup < 2.0 {
        eprintln!("FLOOR MISSED: vectorized_speedup {vectorized_speedup:.2} < 2.0");
        std::process::exit(1);
    }
}
