//! `vectorized`: columnar execution against the row-at-a-time engine,
//! the persistent worker pool's ladder, and plan-cache warm-up, over the
//! corpus sweep.
//!
//! * **differential sweep** — for every item, the engine's vectorized
//!   cached-plan result, the row-at-a-time compiled plan
//!   (`eval_compiled`) and the one-shot evaluator must be
//!   table-equivalent (`sweep_all_agree`);
//! * **row vs vectorized** — the SQL part of the sweep replayed for 8
//!   warm rounds (plans precompiled, databases resident) through
//!   `eval_compiled` and through `eval_vectorized`;
//!   `vectorized_speedup` is the throughput ratio, floored at 2;
//! * **pool ladder** — `Engine::run_batch_on` throughput at 1/2/4/8
//!   workers on one replicated batch; `pool_scaling_4w` divides 4
//!   workers by 1 and has no floor, since a 1-core host cannot scale;
//! * **plan-cache warm-up** — `cache_warm_speedup` divides a serial cold
//!   round by the mean warm round.

use crate::fixtures::{execute, fresh_engines, legacy_execute, sweep};
use graphiti_bench::json::Json;
use graphiti_engine::{BatchQuery, Engine};
use graphiti_relational::{ColumnInstance, RelInstance};
use graphiti_sql::CompiledQuery;
use std::sync::Arc;
use std::time::Instant;

const ROUNDS: usize = 8;

/// A pre-resolved SQL item for the row-vs-vectorized comparison: the
/// compiled plan plus both layouts of its target instance.
struct SqlItem<'a> {
    instance: &'a RelInstance,
    columnar: &'a ColumnInstance,
    plan: CompiledQuery,
}

/// Seconds for `rounds` passes of `f`.
fn time_rounds(rounds: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..rounds {
        f();
    }
    start.elapsed().as_secs_f64()
}

pub fn run() -> Json {
    let (benches, mut items) = sweep();

    // Three-way agreement per item; items the one-shot path cannot
    // evaluate are dropped so every model processes identical traffic.
    let engines = fresh_engines(&benches);
    let mut checked = 0usize;
    let mut all_agree = true;
    items.retain(|it| match legacy_execute(&benches[it.bench].snapshot, &it.query) {
        Err(_) => false,
        Ok(want) => {
            checked += 1;
            let vectorized = match execute(&engines, &benches, it).result {
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
                    let instance = benches[it.bench].snapshot.sql_instance(target).unwrap();
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

    let sql_items: Vec<SqlItem<'_>> = items
        .iter()
        .filter_map(|it| match &it.query {
            BatchQuery::Cypher { .. } => None,
            BatchQuery::Sql { text, target } => {
                let snapshot = &benches[it.bench].snapshot;
                let instance = snapshot.sql_instance(target).unwrap();
                let columnar = snapshot.sql_columnar(target).unwrap();
                let ast = graphiti_sql::parse_query(text).unwrap();
                let plan = graphiti_sql::compile_query(instance, &ast).unwrap();
                Some(SqlItem { instance, columnar, plan })
            }
        })
        .collect();
    let sql_queries = (ROUNDS * sql_items.len()) as f64;
    let row_qps = sql_queries
        / time_rounds(ROUNDS, || {
            for it in &sql_items {
                graphiti_sql::eval_compiled(it.instance, &it.plan).unwrap();
            }
        });
    let vec_qps = sql_queries
        / time_rounds(ROUNDS, || {
            for it in &sql_items {
                graphiti_sql::eval_vectorized(it.instance, it.columnar, &it.plan).unwrap();
            }
        });
    let vectorized_speedup = vec_qps / row_qps;

    // One engine, one big batch (its three queries tiled to corpus
    // scale), through the pooled `run_batch` at 1/2/4/8 workers.
    let ladder_engine = Engine::new(Arc::clone(&benches[0].snapshot));
    let tile: Vec<BatchQuery> =
        items.iter().filter(|it| it.bench == 0).map(|it| it.query.clone()).collect();
    let big_batch: Vec<BatchQuery> =
        (0..benches.len()).flat_map(|_| tile.iter().cloned()).collect();
    let ladder_snapshot = &benches[0].snapshot;
    ladder_engine.run_batch_on(ladder_snapshot, &big_batch, 1); // warm the plan cache
    let ladder: Vec<(usize, f64)> = [1usize, 2, 4, 8]
        .iter()
        .map(|&workers| {
            let secs = time_rounds(ROUNDS, || {
                ladder_engine.run_batch_on(ladder_snapshot, &big_batch, workers);
            });
            (workers, (ROUNDS * big_batch.len()) as f64 / secs)
        })
        .collect();
    let pool_scaling_4w = ladder[2].1 / ladder[0].1;

    // Fresh engines: one serial cold round (parse + compile + execute),
    // then warm rounds on the populated caches.
    let engines = fresh_engines(&benches);
    let cold_secs = time_rounds(1, || {
        for it in &items {
            execute(&engines, &benches, it);
        }
    });
    let warm_secs = time_rounds(ROUNDS - 1, || {
        for it in &items {
            execute(&engines, &benches, it);
        }
    });
    let warm_round_secs = warm_secs / (ROUNDS - 1) as f64;
    let cache_warm_speedup = cold_secs / warm_round_secs;

    let pool_qps = ladder.iter().map(|(workers, qps)| (format!("{workers}w"), (*qps).into()));
    Json::obj([
        ("benchmarks", benches.len().into()),
        ("queries_checked", checked.into()),
        ("sql_queries_per_round", sql_items.len().into()),
        ("row_qps", row_qps.into()),
        ("vectorized_qps", vec_qps.into()),
        ("pool_qps", Json::obj(pool_qps)),
        ("cold_round_seconds", cold_secs.into()),
        ("warm_round_seconds", warm_round_secs.into()),
        (
            "gate",
            Json::obj([
                ("vectorized_speedup", vectorized_speedup.into()),
                ("pool_scaling_4w", pool_scaling_4w.into()),
                ("cache_warm_speedup", cache_warm_speedup.into()),
                ("sweep_all_agree", all_agree.into()),
            ]),
        ),
    ])
}
