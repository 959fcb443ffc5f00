//! Quick mode: every workload at a tiny scale, untraced and traced, must
//! pass its output checks and report every metric `BENCHMARK.json` names,
//! each finite.

use perfbench::run::{self, Config, Workload};
use std::collections::BTreeSet;

/// Metric names of one section of `BENCHMARK.json` (one metric per line).
fn declared(section: &str) -> BTreeSet<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.lines()
        .filter_map(|l| l.split("\"name\": \"").nth(1))
        .map(|rest| rest[..rest.find('"').expect("quoted name")].to_string())
        .collect()
}

fn quick(workload: Workload, seed: u64, trace: bool) -> Config {
    let mut cfg = Config::new(workload, seed, 0.05, trace);
    cfg.users = 20;
    cfg.setup_reps = 1;
    cfg.dir = cfg.dir.with_file_name(format!(
        "quick-{}-{seed}-{trace}-{}",
        workload.name(),
        std::process::id()
    ));
    cfg
}

fn check(workload: Workload, seed: u64) {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let cfg = quick(workload, seed, trace);
        let out = run::run(&cfg).unwrap_or_else(|e| panic!("{} run failed: {e}", workload.name()));
        assert!(out.correct, "{} mismatches: {:?}", workload.name(), out.mismatches);
        assert_eq!(out.failed, 0);
        assert!(out.attempted > 0);
        let names: BTreeSet<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
        assert_eq!(names, declared(section), "{} {section}", workload.name());
        for m in &out.metrics {
            assert!(m.value.is_finite(), "{} {} = {}", workload.name(), m.name, m.value);
        }
        assert!(!cfg.dir.exists(), "the run removes its scratch directory");
    }
}

#[test]
fn read_reports_every_metric() {
    check(Workload::Read, 101);
}

#[test]
fn write_reports_every_metric() {
    check(Workload::Write, 102);
}
