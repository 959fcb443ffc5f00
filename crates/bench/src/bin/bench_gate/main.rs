//! The bench gate: nine performance and contract scenarios run in one
//! process, each result checked against the checked-in `BENCH.json`.
//!
//! | scenario | what it measures |
//! |---|---|
//! | `engines` | naive vs indexed/compiled evaluators; corpus differential |
//! | `batch` | serial single-query loops vs the batch engine and plan cache |
//! | `vectorized` | columnar vs row execution; pool ladder; plan-cache warm-up |
//! | `store` | incremental commit vs cold re-freeze; reads under writes |
//! | `durability` | WAL commit cost; recovery ≡ memory; torn tails |
//! | `faults` | VFS indirection cost; the failure contract under injected faults |
//! | `group_commit` | group vs solo fsync'd commits; reads under writes; server smoke |
//! | `lifecycle` | deadline + token overhead; bounded drain; exactly-once retries |
//! | `observability` | tracing overhead; profiles ≡ results; introspection |
//!
//! Each scenario's report is printed as it finishes, then the gate
//! prints every check (rules in [`gate`]) and writes one report.  The process exits 1
//! if any check fails; a scenario that panics reports nothing, so its
//! checks fail while the other scenarios still run.
//!
//! Usage: `cargo run --release -p graphiti-bench --bin bench_gate --
//! [--out PATH]` (default `BENCH_GATE.json`).

mod batch;
mod durability;
mod engines;
mod faults;
mod fixtures;
mod gate;
mod group_commit;
mod lifecycle;
mod observability;
mod store;
mod vectorized;

use graphiti_bench::json::{parse, Json};
use graphiti_bench::{args_or_exit, parse_flags};
use std::collections::BTreeMap;
use std::time::Instant;

/// The checked-in baseline every run is gated against.
const BASELINE: &str = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH.json"));

/// A named scenario.  It returns its report: what it measured plus a
/// `gate` object holding the metrics `BENCH.json` tracks.
type Scenario = (&'static str, fn() -> Json);

/// Every scenario, in run order.
const SCENARIOS: [Scenario; 9] = [
    ("engines", engines::run),
    ("batch", batch::run),
    ("vectorized", vectorized::run),
    ("store", store::run),
    ("durability", durability::run),
    ("faults", faults::run),
    ("group_commit", group_commit::run),
    ("lifecycle", lifecycle::run),
    ("observability", observability::run),
];

/// A value on one short line: fractions below 100 to three decimals,
/// other numbers whole.
fn brief(value: &Json) -> String {
    let join = |items: Vec<String>| items.join(", ");
    match value {
        Json::Num(n) if n.abs() < 100.0 && n.fract() != 0.0 => format!("{n:.3}"),
        Json::Num(n) => format!("{n:.0}"),
        Json::Obj(map) => {
            format!("{{{}}}", join(map.iter().map(|(k, v)| format!("{k}: {}", brief(v))).collect()))
        }
        other => other.to_string(),
    }
}

fn parse_out(args: &[String]) -> Result<String, String> {
    let flags = parse_flags(args, &["--out"])?;
    Ok(flags.last().map_or("BENCH_GATE.json", |(_, path)| path).to_string())
}

fn main() {
    let out = args_or_exit("bench_gate [--out PATH]", parse_out);
    let baseline = parse(BASELINE).expect("the checked-in BENCH.json parses");

    let mut reports = BTreeMap::new();
    for (name, run) in SCENARIOS {
        println!("== {name} ==");
        let start = Instant::now();
        let mut report = std::panic::catch_unwind(run).unwrap_or_else(|_| {
            eprintln!("scenario `{name}` panicked");
            Json::obj([("panicked", true.into())])
        });
        if let Json::Obj(map) = &mut report {
            map.insert("seconds".to_string(), start.elapsed().as_secs_f64().into());
            for (key, value) in map.iter() {
                println!("  {key}: {}", brief(value));
            }
        }
        reports.insert(name.to_string(), report);
    }
    std::fs::remove_dir(fixtures::SCRATCH_ROOT).ok();

    let scenarios = Json::Obj(reports);
    let checks = gate::check(&baseline, &scenarios);
    println!("\n| check | must meet | got | status |");
    println!("|---|---|---|---|");
    for c in &checks {
        println!(
            "| {} | {} | {} | {} |",
            c.metric,
            c.want,
            c.got,
            if c.ok { "ok" } else { "FAILED" }
        );
    }
    let failed = checks.iter().filter(|c| !c.ok).count();

    let checks_json = checks
        .iter()
        .map(|c| {
            Json::obj([
                ("metric", c.metric.as_str().into()),
                ("want", c.want.as_str().into()),
                ("got", c.got.as_str().into()),
                ("ok", c.ok.into()),
            ])
        })
        .collect();
    let report = Json::obj([
        ("workers_available", graphiti_engine::available_workers().into()),
        ("scenarios", scenarios),
        ("checks", Json::Arr(checks_json)),
        ("passed", (failed == 0).into()),
    ]);
    std::fs::write(&out, format!("{report}\n")).expect("write the bench-gate report");
    println!("wrote {out}");
    if failed > 0 {
        eprintln!("bench gate FAILED: {failed} of {} checks", checks.len());
        std::process::exit(1);
    }
    println!("bench gate passed: {} checks", checks.len());
}
