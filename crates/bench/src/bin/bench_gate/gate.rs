//! The gate rules: every scenario result is checked against the one
//! checked-in baseline, `BENCH.json`.
//!
//! `BENCH.json` holds a `gate` and a `floors` object, each keyed by
//! scenario name and then by metric:
//!
//! * a `gate` number must reach `baseline × (1 − TOLERANCE)`;
//! * a `gate` boolean that is `true` must stay `true`;
//! * a `floors` number is an absolute minimum for the same scenario's
//!   metric, with no tolerance;
//! * a metric the run did not report fails.
//!
//! Gated metrics are ratios and booleans, never absolute timings, so a
//! baseline recorded on one machine gates runs on another.

use graphiti_bench::json::Json;

/// How far below its baseline a gated number may fall.
const TOLERANCE: f64 = 0.30;

/// One checked metric, as printed in the gate's table.
pub struct Check {
    /// `scenario.metric`.
    pub metric: String,
    /// What the metric must meet.
    pub want: String,
    /// What the run reported.
    pub got: String,
    /// Whether `got` meets `want`.
    pub ok: bool,
}

/// The metrics of `section` (`gate` or `floors`) as
/// `(scenario, metric, baseline value)`.
fn entries<'a>(baseline: &'a Json, section: &str) -> Vec<(&'a str, &'a str, &'a Json)> {
    let scenarios = baseline.get(section).and_then(Json::as_obj).into_iter().flatten();
    scenarios
        .flat_map(|(scenario, metrics)| {
            metrics
                .as_obj()
                .into_iter()
                .flatten()
                .map(move |(metric, value)| (scenario.as_str(), metric.as_str(), value))
        })
        .collect()
}

fn at_least(got: Option<&Json>, min: f64) -> bool {
    got.and_then(Json::as_num).is_some_and(|g| g >= min)
}

/// Checks `reports` (scenario name → its report, whose `gate` object
/// holds the gated metrics) against `baseline`: every gate, then every
/// floor, each sorted by scenario and metric.
pub fn check(baseline: &Json, reports: &Json) -> Vec<Check> {
    let mut checks = Vec::new();
    for section in ["gate", "floors"] {
        for (scenario, metric, want) in entries(baseline, section) {
            let got = reports.get(scenario).and_then(|r| r.get("gate")?.get(metric));
            let (want, ok) = match (section, want) {
                ("floors", Json::Num(floor)) => {
                    (format!(">= {floor} (floor)"), at_least(got, *floor))
                }
                ("gate", Json::Num(b)) => {
                    let min = b * (1.0 - TOLERANCE);
                    (format!(">= {min:.3} ({b} - {:.0}%)", TOLERANCE * 100.0), at_least(got, min))
                }
                ("gate", Json::Bool(b)) => {
                    (b.to_string(), !b || got.and_then(Json::as_bool) == Some(true))
                }
                (_, other) => (format!("unsupported baseline {other}"), false),
            };
            checks.push(Check {
                metric: format!("{scenario}.{metric}"),
                want,
                got: got.map_or("MISSING".to_string(), crate::brief),
                ok,
            });
        }
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphiti_bench::json::parse;

    /// The verdicts for `gates`, the `gate` object of scenario `s`.
    fn run(baseline: &str, gates: &str) -> Vec<bool> {
        let reports = parse(&format!(r#"{{"s": {{"gate": {gates}}}}}"#)).unwrap();
        check(&parse(baseline).unwrap(), &reports).iter().map(|c| c.ok).collect()
    }

    #[test]
    fn a_number_may_fall_up_to_the_tolerance() {
        let baseline = r#"{"gate": {"s": {"ratio": 2.0}}}"#;
        assert_eq!(run(baseline, r#"{"ratio": 1.42}"#), [true], "29% under passes");
        assert_eq!(run(baseline, r#"{"ratio": 1.38}"#), [false], "31% under fails");
        assert_eq!(run(baseline, r#"{"ratio": 9.0}"#), [true], "any gain passes");
    }

    #[test]
    fn a_floor_holds_even_inside_the_tolerance() {
        let baseline = r#"{"gate": {"s": {"ratio": 1.0}}, "floors": {"s": {"ratio": 0.95}}}"#;
        assert_eq!(run(baseline, r#"{"ratio": 0.94}"#), [true, false]);
        assert_eq!(run(baseline, r#"{"ratio": 0.95}"#), [true, true]);
    }

    #[test]
    fn a_true_must_stay_true() {
        let baseline = r#"{"gate": {"s": {"agree": true, "optional": false}}}"#;
        let results = r#"{"agree": false, "optional": false}"#;
        assert_eq!(run(baseline, results), [false, true]);
        assert_eq!(run(baseline, r#"{"agree": true, "optional": true}"#), [true, true]);
    }

    #[test]
    fn a_missing_metric_fails() {
        let baseline =
            r#"{"gate": {"s": {"ratio": 1.0, "agree": true}}, "floors": {"s": {"ratio": 0.5}}}"#;
        assert_eq!(run(baseline, r#"{}"#), [false, false, false]);
        // A scenario that panicked reports no `gate` object at all.
        let no_gate = parse(r#"{"s": {"panicked": true}}"#).unwrap();
        assert!(check(&parse(baseline).unwrap(), &no_gate).iter().all(|c| !c.ok));
        assert_eq!(run(baseline, r#"{"ratio": true, "agree": 1.0}"#), [false, false, false]);
    }

    #[test]
    fn the_checked_in_baseline_gates_29_metrics_and_6_floors() {
        let baseline = parse(crate::BASELINE).expect("BENCH.json parses");
        let gates = entries(&baseline, "gate");
        let floors = entries(&baseline, "floors");
        assert_eq!(gates.len(), 29);
        assert_eq!(floors.len(), 6);
        assert!(gates.iter().all(|(_, _, v)| matches!(v, Json::Num(_) | Json::Bool(_))));
        for (scenario, metric, _) in &floors {
            assert!(gates.iter().any(|(s, m, _)| s == scenario && m == metric));
        }
        let scenarios: Vec<&str> = crate::SCENARIOS.iter().map(|(name, _)| *name).collect();
        assert!(gates.iter().all(|(s, _, _)| scenarios.contains(s)));
        assert_eq!(scenarios.len(), 9);
    }
}
