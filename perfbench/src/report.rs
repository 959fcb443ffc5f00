//! Output: the metric list, the host and policy record, and the JSON
//! lines the benchmark prints.

use graphiti_server::ServerOptions;
use graphiti_store::{DurabilityOptions, GroupOptions};
use std::path::Path;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.to_string(), value, unit }
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit.  Values are printed with all their digits.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {:?}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The record line: host, policy and run facts, as one JSON object whose
/// values are already JSON.
pub fn record_line(record: &[(String, String)]) -> String {
    let body: Vec<String> = record.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    format!("{{\"record\": {{{}}}}}", body.join(", "))
}

/// Host and policy facts: cores, CPU model, the filesystem under the
/// scratch directory, the options in force, build profile and revision.
/// Latencies are this host's, not a storage device's.
pub fn host_record(scratch: &Path) -> Vec<(String, String)> {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .map(|l| l.split(':').nth(1).unwrap_or("").trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    vec![
        ("cores".into(), cores.to_string()),
        ("cpu_model".into(), json_str(&cpu)),
        ("scratch_fs".into(), json_str(&filesystem_of(scratch))),
        ("durability_options".into(), json_str(&format!("{:?}", DurabilityOptions::default()))),
        ("group_options".into(), json_str(&format!("{:?}", GroupOptions::default()))),
        ("server_options".into(), json_str(&format!("{:?}", ServerOptions::default()))),
        ("build_profile".into(), json_str(profile)),
        ("git_revision".into(), json_str(&git_revision())),
    ]
}

/// The type of the filesystem mounted closest above `path`.
fn filesystem_of(path: &Path) -> String {
    let Ok(abs) = std::fs::canonicalize(path) else { return "unknown".into() };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else { return "unknown".into() };
    let mut best = (0, "unknown".to_string());
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let (Some(mount), Some(sep)) = (fields.get(4), fields.iter().position(|f| *f == "-"))
        else {
            continue;
        };
        if abs.starts_with(mount) && mount.len() >= best.0 {
            best = (mount.len(), fields.get(sep + 1).map_or("unknown", |v| v).to_string());
        }
    }
    best.1
}

/// The commit checked out in the working directory, when it is a git
/// checkout.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}"))
                .or_else(|| {
                    read(".git/packed-refs")?
                        .lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split(' ').next())
                        .map(str::to_string)
                })
                .unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown".into(),
    }
}

/// CPU time the hypervisor took from this host's virtual CPUs, in
/// seconds since boot (`steal` in `/proc/stat`, at 100 ticks per second).
/// A run that overlaps steal measures a slower machine.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// The process's peak resident set, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
