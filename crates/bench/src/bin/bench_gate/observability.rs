//! `observability`: the always-on metrics and tracing layer must be
//! happy-path cheap, query profiles must agree with the results they
//! describe, and the introspection surface must round-trip over a real
//! socket.
//!
//! * **observability-on relative throughput** — single-session commit
//!   throughput over a unix socket, a client stamping a distinct trace
//!   id on every commit divided by a plain one (trace id 0: the server
//!   still mints ids and runs the whole span pipeline).  Each leg is its
//!   best of 4 reps after a warm-up; `obs_relative_throughput` is
//!   floored at 0.95;
//! * **profiles match results** — the corpus sweep through the profiled
//!   entry point: each profile's `rows` must equal its result's
//!   cardinality, the result must equal the plain path's, and the
//!   profile must carry stages (`profiles_match_results`);
//! * **profiled relative throughput** — the same sweep timed plain vs
//!   profiled over 6 warm rounds (reported, not gated: profiling is
//!   opt-in);
//! * **introspect round-trip** — against a live server, the metrics text
//!   names the store and server counters, the trace JSON parses and
//!   holds `server.request` spans, and `Stats` shows recorded spans
//!   (`introspect_roundtrip`);
//! * **slow-query log** — the slow-query JSON parses and names the probe
//!   query, and a wire `query_profiled` reply's profile JSON parses with
//!   `rows` equal to the returned table (`slow_query_log_live`).

use crate::fixtures::{
    best_of_each, connect, delta_for, fresh_engines, service, socket_path, sweep,
    wire_commit_throughput,
};
use graphiti_bench::json::{parse, Json};
use graphiti_engine::BatchQuery;
use graphiti_server::{Client, IntrospectMode, Server};
use graphiti_store::Session;
use std::time::Instant;

const COMMITS: i64 = 512;
const REPS: usize = 4;
const SWEEP_ROUNDS: usize = 6;

struct SweepRun {
    queries: usize,
    all_match: bool,
    plain_qps: f64,
    profiled_qps: f64,
}

/// Replays the sweep through the plain and profiled entry points.  The
/// profile is an account of the execution that produced the result, not
/// a parallel estimate, so its row count must match exactly.
fn profile_sweep() -> SweepRun {
    let (benches, items) = sweep();
    let engines = fresh_engines(&benches);
    let mut checked = 0usize;
    let mut mismatches = 0usize;
    for it in &items {
        let snapshot = &benches[it.bench].snapshot;
        let plain = engines[it.bench].execute_on(snapshot, &it.query);
        let profiled = engines[it.bench].execute_on_profiled(snapshot, &it.query);
        let (Ok(want), Ok(got)) = (&plain.result, &profiled.result) else {
            // Parse and plan errors must at least agree between the paths.
            if plain.result.is_ok() != profiled.result.is_ok() {
                eprintln!("plain/profiled disagree on error for `{}`", it.query.text());
                mismatches += 1;
            }
            continue;
        };
        checked += 1;
        let problem = match &profiled.profile {
            None => Some("no profile".to_string()),
            Some(_) if !got.equivalent(want) => Some("a diverging result".to_string()),
            Some(p) if p.rows != got.len() as u64 => {
                Some(format!("profile rows {} for {} result rows", p.rows, got.len()))
            }
            Some(p) if p.stages.is_empty() => Some("a profile with no stages".to_string()),
            Some(_) => None,
        };
        if let Some(problem) = problem {
            eprintln!("profiled run returned {problem} for `{}`", it.query.text());
            mismatches += 1;
        }
    }

    // Warm rounds, plain vs profiled, plans cached on both legs.
    let time = |profiled: bool| {
        let start = Instant::now();
        for _ in 0..SWEEP_ROUNDS {
            for it in &items {
                let snapshot = &benches[it.bench].snapshot;
                let outcome = if profiled {
                    engines[it.bench].execute_on_profiled(snapshot, &it.query)
                } else {
                    engines[it.bench].execute_on(snapshot, &it.query)
                };
                let _ = outcome.result;
            }
        }
        (SWEEP_ROUNDS * items.len()) as f64 / start.elapsed().as_secs_f64().max(1e-9)
    };
    let plain_qps = time(false);
    let profiled_qps = time(true);
    SweepRun {
        queries: checked,
        all_match: checked > 0 && mismatches == 0,
        plain_qps,
        profiled_qps,
    }
}

/// Whether `text` parses as a non-empty JSON array with an element that
/// satisfies `wanted`.
fn json_array_has(what: &str, text: &str, wanted: impl Fn(&Json) -> bool) -> bool {
    match parse(text) {
        Ok(Json::Arr(items)) => items.iter().any(wanted),
        Ok(_) => {
            eprintln!("{what} JSON is not an array");
            false
        }
        Err(e) => {
            eprintln!("{what} JSON does not parse: {e}");
            false
        }
    }
}

/// (introspect_roundtrip, slow_query_log_live) against a live server
/// after commits and a named probe query.
fn introspect_roundtrip() -> (bool, bool) {
    let sock = socket_path("introspect");
    let handle = Server::new(service(32)).serve_unix(&sock).expect("server binds");
    let mut session = Client::connect_unix(&sock).expect("client connects");
    assert!(session.negotiated_version() >= 3, "a fresh client negotiates wire protocol version 3");
    for i in 0..8 {
        session.commit(delta_for(8_000_000 + i)).expect("commit lands");
    }
    let probe = BatchQuery::cypher("MATCH (n:EMP) RETURN n.id AS obs_probe_column");
    session.query(&probe).expect("probe query runs");
    let (table, profile_json) = session.query_profiled(&probe).expect("profiled query runs");

    let wire_profile_ok = match parse(&profile_json) {
        Ok(json) => {
            json.get("rows").and_then(Json::as_num) == Some(table.len() as f64)
                && json.get("stages").and_then(Json::as_arr).is_some_and(|s| !s.is_empty())
        }
        Err(e) => {
            eprintln!("wire profile JSON does not parse: {e}");
            false
        }
    };

    let stats = session.stats().expect("stats reply");
    let stats_ok = stats.spans_recorded > 0 && stats.queries >= 2 && stats.slow_queries > 0;
    if !stats_ok {
        eprintln!(
            "stats observability fields did not move: spans_recorded {} queries {} slow {}",
            stats.spans_recorded, stats.queries, stats.slow_queries
        );
    }

    let metrics = session.introspect(IntrospectMode::Metrics).expect("metrics introspect");
    let metrics_ok = [
        "graphiti_store_commits_total",
        "graphiti_commit_e2e_micros",
        "graphiti_request_micros_commit",
        "graphiti_request_micros_query",
        "graphiti_trace_spans_begun_total",
    ]
    .iter()
    .all(|name| {
        let present = metrics.contains(name);
        if !present {
            eprintln!("metrics text is missing `{name}`");
        }
        present
    });

    let traces = session.introspect(IntrospectMode::Traces).expect("traces introspect");
    let traces_ok = json_array_has("traces", &traces, |e| {
        e.get("name").and_then(Json::as_str) == Some("server.request")
    });

    let slow = session.introspect(IntrospectMode::SlowQueries).expect("slow introspect");
    let slow_ok = json_array_has("slow-query", &slow, |e| {
        e.get("text").and_then(Json::as_str).is_some_and(|t| t.contains("obs_probe_column"))
    });

    session.close().expect("clean close");
    handle.shutdown();
    (metrics_ok && traces_ok && stats_ok, slow_ok && wire_profile_ok)
}

pub fn run() -> Json {
    let (plain, traced) = best_of_each(
        REPS,
        || wire_commit_throughput("plain", COMMITS, connect, |_, _| {}),
        || {
            wire_commit_throughput("traced", COMMITS, connect, |session, i| {
                session.set_trace_id(0x5000_0000 + i as u64 + 1);
            })
        },
    );
    let sweep = profile_sweep();
    let (introspect_ok, slow_log_ok) = introspect_roundtrip();
    Json::obj([
        ("plain_commits_per_sec", plain.into()),
        ("traced_commits_per_sec", traced.into()),
        ("sweep_queries", sweep.queries.into()),
        ("plain_sweep_qps", sweep.plain_qps.into()),
        ("profiled_sweep_qps", sweep.profiled_qps.into()),
        (
            "gate",
            Json::obj([
                ("obs_relative_throughput", (traced / plain.max(1e-9)).into()),
                ("profiles_match_results", sweep.all_match.into()),
                ("introspect_roundtrip", introspect_ok.into()),
                ("slow_query_log_live", slow_log_ok.into()),
            ]),
        ),
    ])
}
