//! `engines`: the naive evaluators against the indexed and vectorized
//! ones, per benchmark family, plus a differential sweep of the corpus.
//!
//! * **Cypher** — `graphiti_cypher::eval_query` (adjacency-indexed
//!   pattern matching) vs `eval_query_unoptimized` (per-binding
//!   edge-arena rescans);
//! * **SQL** — `graphiti_sql::eval_query` (selection pushdown, compiled
//!   plans, columnar execution) vs `eval_query_unoptimized` (per-row
//!   string resolution, no pushdown).
//!
//! Every family first asserts that both engines return table-equivalent
//! results (Definition 4.4), then reports queries/s and the speedup
//! (reported, not gated).  The gated `all_engines_agree` is the sweep:
//! over the mock databases of every corpus benchmark, the naive
//! interpreters must agree with the batch engine's cached plans on the
//! Cypher query, its transpilation, and the hand-written SQL.

use crate::fixtures::{corpus, CorpusCase, TARGET};
use graphiti_bench::json::Json;
use graphiti_benchmarks::{build_databases, generate_graph, schemas};
use graphiti_engine::{available_workers, run_parallel, BatchQuery, Engine, Snapshot, SqlTarget};
use graphiti_graph::{GraphInstance, GraphSchema};
use graphiti_relational::{RelInstance, Table};
use std::sync::Arc;
use std::time::Instant;

/// Minimum measured wall-clock per engine and family.
const MIN_SECONDS: f64 = 0.4;

/// Seconds per query of `run` after one warm-up: at least two
/// iterations and at least [`MIN_SECONDS`] of wall-clock.
fn seconds_per_query(mut run: impl FnMut() -> usize) -> f64 {
    run();
    let start = Instant::now();
    let mut iterations = 0usize;
    loop {
        run();
        iterations += 1;
        if iterations >= 2 && start.elapsed().as_secs_f64() >= MIN_SECONDS {
            break;
        }
    }
    start.elapsed().as_secs_f64() / iterations as f64
}

/// Asserts both engines return equivalent tables (Definition 4.4), then
/// times each; reports queries/s and the speedup.
fn family(
    name: &'static str,
    naive: impl Fn() -> Table,
    optimized: impl Fn() -> Table,
) -> (&'static str, Json) {
    let (want, got) = (naive(), optimized());
    assert!(
        want.equivalent(&got),
        "engines disagree on family `{name}`:\nnaive:\n{want}\noptimized:\n{got}"
    );
    let naive = seconds_per_query(|| naive().len());
    let optimized = seconds_per_query(|| optimized().len());
    let report = Json::obj([
        ("naive_qps", (1.0 / naive).into()),
        ("optimized_qps", (1.0 / optimized).into()),
        ("speedup", (naive / optimized).into()),
    ]);
    (name, report)
}

fn cypher_family(
    name: &'static str,
    schema: &GraphSchema,
    graph: &GraphInstance,
    text: &str,
) -> (&'static str, Json) {
    let query = graphiti_cypher::parse_query(text).expect("family query parses");
    family(
        name,
        || graphiti_cypher::eval_query_unoptimized(schema, graph, &query).unwrap(),
        || graphiti_cypher::eval_query(schema, graph, &query).unwrap(),
    )
}

fn sql_family(name: &'static str, instance: &RelInstance, text: &str) -> (&'static str, Json) {
    let query = graphiti_sql::parse_query(text).expect("family query parses");
    family(
        name,
        || graphiti_sql::eval_query_unoptimized(instance, &query).unwrap(),
        || graphiti_sql::eval_query(instance, &query).unwrap(),
    )
}

/// Whether a naive result and an engine result agree: equivalent
/// tables, or both errors.
fn agree(naive: graphiti_common::Result<Table>, engine: graphiti_common::Result<Table>) -> bool {
    match (naive, engine) {
        (Ok(want), Ok(got)) => want.equivalent(&got),
        (want, got) => want.is_ok() == got.is_ok(),
    }
}

/// One corpus benchmark through both engine pairs: the naive Cypher
/// matcher and SQL interpreter against the engine's plan-cache path
/// over a snapshot of the same databases.
fn case_agrees(case: &CorpusCase) -> bool {
    let (b, dbs) = (&case.bench, &case.dbs);
    let snapshot = Snapshot::from_parts(
        b.graph_schema.clone(),
        dbs.graph.clone(),
        case.reduction.ctx.clone(),
        dbs.induced.clone(),
        [(TARGET.to_string(), dbs.target.clone())],
    );
    let engine = Engine::new(Arc::clone(&snapshot));
    let cypher = agree(
        graphiti_cypher::eval_query_unoptimized(&b.graph_schema, &dbs.graph, &case.cypher),
        engine.execute_on(&snapshot, &BatchQuery::cypher(&b.cypher_text)).result,
    );
    if !cypher {
        eprintln!("cypher engines disagree on corpus benchmark `{}`", b.id);
        return false;
    }
    let target = SqlTarget::Named(TARGET.to_string());
    for (instance, tgt, q) in [
        (&dbs.induced, &SqlTarget::Induced, &case.reduction.transpiled),
        (&dbs.target, &target, &case.sql),
    ] {
        let naive = graphiti_sql::eval_query_unoptimized(instance, q);
        if !agree(naive, engine.execute_sql_ast(&snapshot, q, tgt).result) {
            eprintln!("sql engines disagree on corpus benchmark `{}`", b.id);
            return false;
        }
    }
    true
}

pub fn run() -> Json {
    let mut report = Vec::new();

    // The social domain's FOLLOWS edge is USR -> USR, so a 3-hop pattern
    // exercises repeated adjacency extension: the naive matcher rescans
    // every FOLLOWS edge per partial binding, the indexed one walks
    // out-edge lists.
    let social = schemas::social();
    let social_graph = generate_graph(&social.graph_schema, 900, 3, 0xBEEF);
    report.push(cypher_family(
        "cypher_multihop_pattern",
        &social.graph_schema,
        &social_graph,
        "MATCH (a:USR)-[f1:FOLLOWS]->(b:USR)-[f2:FOLLOWS]->(c:USR)-[f3:FOLLOWS]->(d:USR) \
         RETURN Count(*) AS paths",
    ));
    report.push(cypher_family(
        "cypher_grouped_traversal",
        &social.graph_schema,
        &social_graph,
        "MATCH (a:USR)-[f:FOLLOWS]->(b:USR)-[p:POSTED]->(pic:PIC) \
         RETURN a.UsrName AS name, Count(pic) AS pics",
    ));

    // The employees domain at a scale where the naive engine's Cartesian
    // products are punishing but bounded.
    let employees = schemas::employees();
    let databases = |scale, edges, seed| {
        build_databases(
            &graphiti_core::infer_sdt(&employees.graph_schema).unwrap(),
            &employees.transformer().unwrap(),
            &employees.target_schema,
            scale,
            edges,
            seed,
        )
        .unwrap()
    };
    let dbs = databases(60, 2, 0xFACE);
    report.push(sql_family(
        "sql_multijoin",
        &dbs.target,
        "SELECT e.EmpName, d.DeptName FROM Employee AS e, Assignment AS a, Department AS d \
         WHERE e.EmpId = a.EmpRef AND a.DeptRef = d.DeptNo AND d.DeptNo < 50",
    ));
    // Both engines hash-join the explicit `JOIN ... ON` below, so on this
    // larger instance the difference is compiled positional programs vs
    // per-row string resolution.
    let wide = databases(300, 3, 0xC0DE);
    report.push(sql_family(
        "sql_groupby_aggregate",
        &wide.target,
        "SELECT d.DeptName, Count(*) AS cnt, Sum(a.AId) AS total FROM Employee AS e \
         JOIN Assignment AS a ON e.EmpId = a.EmpRef \
         JOIN Department AS d ON a.DeptRef = d.DeptNo \
         GROUP BY d.DeptName HAVING Count(*) >= 1",
    ));
    report.push(sql_family(
        "sql_scan_filter_project",
        &wide.target,
        "SELECT a.AId + a.EmpRef * 2 AS k, a.DeptRef FROM Assignment AS a \
         WHERE a.AId % 2 = 0 AND a.DeptRef < 2000",
    ));

    let cases = corpus(0xD1FF);
    let verdicts = run_parallel(cases.len(), available_workers(), |i| case_agrees(&cases[i]));
    report.push(("corpus_benchmarks_checked", cases.len().into()));
    report.push(("gate", Json::obj([("all_engines_agree", verdicts.iter().all(|ok| *ok).into())])));
    Json::obj(report)
}
