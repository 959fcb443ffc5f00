//! The unified observability layer.
//!
//! Every serving component (store, engine, server) shares one [`Obs`]
//! handle holding three always-on, hot-path-safe facilities:
//!
//! * a [`Registry`] of named metrics — atomic
//!   [`Counter`](metrics::Counter)s, [`Gauge`](metrics::Gauge)s, and
//!   fixed-bucket log-scale [`Histogram`](metrics::Histogram)s
//!   (p50/p95/p99/max) — rendered as Prometheus-style text exposition;
//! * a [`Tracer`]: 64-bit trace ids with begin/end span
//!   events pushed into a bounded, never-blocking ring buffer (a
//!   contended or torn push is *counted as dropped*, never waited on);
//! * a [`SlowQueryLog`]: a bounded ring of the N
//!   worst [`QueryProfile`](profile::QueryProfile)s, each carrying
//!   per-operator stage timings, rows in/out, selection-vector density,
//!   and cache hit/miss.
//!
//! The crate depends on nothing but `std`, sits below every other
//! serving crate, and renders its own JSON (the workspace carries no
//! real `serde_json`).

pub mod metrics;
pub mod profile;
pub mod trace;

use metrics::Registry;
use profile::SlowQueryLog;
use std::sync::Arc;
use trace::Tracer;

/// Construction knobs for an [`Obs`] handle.
#[derive(Debug, Clone)]
pub struct ObsOptions {
    /// Span-ring capacity (events retained; older events are
    /// overwritten).
    pub span_ring_capacity: usize,
    /// How many worst queries the slow-query log retains.
    pub slow_query_capacity: usize,
    /// Queries faster than this never enter the slow-query log
    /// (`0` records everything, worst-N).
    pub slow_query_min_micros: u64,
}

impl Default for ObsOptions {
    fn default() -> ObsOptions {
        ObsOptions { span_ring_capacity: 1024, slow_query_capacity: 16, slow_query_min_micros: 0 }
    }
}

/// One service's observability context: registry + tracer + slow-query
/// log, shared by store, engine, and server through an `Arc`.
#[derive(Debug)]
pub struct Obs {
    registry: Arc<Registry>,
    tracer: Arc<Tracer>,
    slow: Arc<SlowQueryLog>,
}

impl Default for Obs {
    fn default() -> Obs {
        Obs::new()
    }
}

impl Obs {
    /// An observability context with default knobs.
    pub fn new() -> Obs {
        Obs::with_options(ObsOptions::default())
    }

    /// An observability context with explicit knobs.
    pub fn with_options(options: ObsOptions) -> Obs {
        let registry = Arc::new(Registry::new());
        let tracer = Arc::new(Tracer::new(&registry, options.span_ring_capacity));
        let slow =
            Arc::new(SlowQueryLog::new(options.slow_query_capacity, options.slow_query_min_micros));
        Obs { registry, tracer, slow }
    }

    /// The shared metric namespace.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The span tracer.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// The slow-query log.
    pub fn slow_queries(&self) -> &Arc<SlowQueryLog> {
        &self.slow
    }

    /// Prometheus-style text exposition of every registered metric.
    pub fn render_metrics(&self) -> String {
        self.registry.render_prometheus()
    }

    /// Recent span events as a JSON array (oldest first).
    pub fn render_traces_json(&self) -> String {
        let events = self.tracer.recent();
        let mut out = String::with_capacity(64 + events.len() * 96);
        out.push('[');
        for (i, ev) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&ev.to_json());
        }
        out.push(']');
        out
    }

    /// The slow-query log as a JSON array (worst first).
    pub fn render_slow_queries_json(&self) -> String {
        let worst = self.slow.worst();
        let mut out = String::with_capacity(64 + worst.len() * 256);
        out.push('[');
        for (i, p) in worst.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&p.to_json());
        }
        out.push(']');
        out
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_renders_all_three_surfaces() {
        let obs = Obs::new();
        obs.registry().counter("demo_total").inc();
        let id = trace::mint_trace_id();
        let span = obs.tracer().span(id, 0, "demo");
        drop(span);
        obs.slow_queries().record(profile::QueryProfile {
            language: "sql".into(),
            text: "SELECT 1".into(),
            micros: 42,
            cache_hit: false,
            rows: 1,
            stages: vec![],
        });
        assert!(obs.render_metrics().contains("demo_total 1"));
        let traces = obs.render_traces_json();
        assert!(traces.starts_with('[') && traces.contains("\"demo\""), "{traces}");
        let slow = obs.render_slow_queries_json();
        assert!(slow.contains("SELECT 1"), "{slow}");
    }

    #[test]
    fn json_escape_handles_control_and_quotes() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
