//! Query profiles and the slow-query log.
//!
//! A [`QueryProfile`] is the executor's own record of what it actually
//! did for one query: per-operator [`StageProfile`]s (wall time, rows
//! in/out, selection-vector density) plus cache hit/miss and the total.
//! Executors collect stages through a [`StageSink`] — a plain
//! stack-shaped accumulator with no locks or atomics, owned by one
//! evaluation.
//!
//! The [`SlowQueryLog`] retains the N worst profiles by total time
//! behind a single mutex taken only on the (rare) insert path: a cheap
//! relaxed read of the current admission floor rejects fast queries
//! before any lock is touched.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One operator's slice of a query profile.
#[derive(Debug, Clone, PartialEq)]
pub struct StageProfile {
    /// Operator name (`scan`, `key_scan`, `select`, `hash_join`, `match`,
    /// ...).
    pub op: String,
    /// Wall-clock microseconds, inclusive of child operators.
    pub micros: u64,
    /// Rows flowing in (sum over direct child operators; 0 for leaves).
    pub rows_in: u64,
    /// Rows flowing out.
    pub rows_out: u64,
    /// Selection-vector density (`rows kept / rows scanned`) where the
    /// operator filters; `None` elsewhere.
    pub density: Option<f64>,
}

impl StageProfile {
    fn to_json(&self) -> String {
        let density = match self.density {
            Some(d) => format!("{d:.4}"),
            None => "null".to_string(),
        };
        format!(
            "{{\"op\":\"{}\",\"micros\":{},\"rows_in\":{},\"rows_out\":{},\"density\":{}}}",
            crate::json_escape(&self.op),
            self.micros,
            self.rows_in,
            self.rows_out,
            density
        )
    }
}

/// The full record of one executed query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryProfile {
    /// `"sql"` or `"cypher"`.
    pub language: String,
    /// The query text.
    pub text: String,
    /// End-to-end wall-clock microseconds (cache lookup + parse/compile
    /// on a miss + evaluation).
    pub micros: u64,
    /// Whether the plan came from the cache.
    pub cache_hit: bool,
    /// Result cardinality.
    pub rows: u64,
    /// Per-operator stages in completion (post) order: children before
    /// their parent, the root last.
    pub stages: Vec<StageProfile>,
}

impl QueryProfile {
    /// One JSON object for the introspection surface.
    pub fn to_json(&self) -> String {
        let mut stages = String::from("[");
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                stages.push(',');
            }
            stages.push_str(&s.to_json());
        }
        stages.push(']');
        format!(
            "{{\"language\":\"{}\",\"text\":\"{}\",\"micros\":{},\"cache_hit\":{},\"rows\":{},\"stages\":{}}}",
            crate::json_escape(&self.language),
            crate::json_escape(&self.text),
            self.micros,
            self.cache_hit,
            self.rows,
            stages
        )
    }
}

/// An in-flight stage frame.
#[derive(Debug)]
struct Frame {
    op: &'static str,
    started: Instant,
    child_rows: u64,
    density: Option<f64>,
}

/// A stack-shaped stage accumulator for one evaluation: `begin` on
/// entering an operator, `end` with its output cardinality on leaving.
/// `rows_in` is derived structurally — each finished stage reports its
/// `rows_out` up to the frame below it.
#[derive(Debug, Default)]
pub struct StageSink {
    frames: Vec<Frame>,
    stages: Vec<StageProfile>,
}

impl StageSink {
    /// An empty sink.
    pub fn new() -> StageSink {
        StageSink::default()
    }

    /// Opens a stage frame for `op`.
    pub fn begin(&mut self, op: &'static str) {
        self.frames.push(Frame { op, started: Instant::now(), child_rows: 0, density: None });
    }

    /// Renames the innermost open frame: an operator that learns how it
    /// ran only once it runs (a scan answered from a key index).
    pub fn relabel(&mut self, op: &'static str) {
        if let Some(f) = self.frames.last_mut() {
            f.op = op;
        }
    }

    /// Annotates the innermost open frame with a selection density.
    pub fn set_density(&mut self, density: f64) {
        if let Some(f) = self.frames.last_mut() {
            f.density = Some(density);
        }
    }

    /// Closes the innermost frame with its output cardinality.
    pub fn end(&mut self, rows_out: u64) {
        let Some(frame) = self.frames.pop() else {
            debug_assert!(false, "StageSink::end without a matching begin");
            return;
        };
        if let Some(parent) = self.frames.last_mut() {
            parent.child_rows += rows_out;
        }
        self.stages.push(StageProfile {
            op: frame.op.to_string(),
            micros: frame.started.elapsed().as_micros() as u64,
            rows_in: frame.child_rows,
            rows_out,
            density: frame.density,
        });
    }

    /// The collected stages (post-order).  Unclosed frames are
    /// discarded — an operator that errored mid-flight reports nothing
    /// rather than a half-timed stage.
    pub fn finish(self) -> Vec<StageProfile> {
        self.stages
    }
}

/// A bounded worst-N log of query profiles.
#[derive(Debug)]
pub struct SlowQueryLog {
    capacity: usize,
    min_micros: u64,
    /// Relaxed admission floor: the slowest-query time below which an
    /// insert cannot change a full log.  Read without the lock.
    floor: AtomicU64,
    /// Retained profiles, ascending by `micros`.
    entries: Mutex<Vec<QueryProfile>>,
}

impl SlowQueryLog {
    /// A log retaining the `capacity` worst queries at or above
    /// `min_micros` (`0` = record everything, worst-N).
    pub fn new(capacity: usize, min_micros: u64) -> SlowQueryLog {
        SlowQueryLog {
            capacity: capacity.max(1),
            min_micros,
            floor: AtomicU64::new(min_micros),
            entries: Mutex::new(Vec::new()),
        }
    }

    /// Maximum retained profiles.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The admission threshold knob.
    pub fn min_micros(&self) -> u64 {
        self.min_micros
    }

    /// Offers one profile.  Fast path (query under the floor of a full
    /// log): one relaxed load, no lock.
    pub fn record(&self, profile: QueryProfile) {
        if profile.micros < self.floor.load(Ordering::Relaxed) {
            return;
        }
        let mut entries = self.entries.lock().unwrap_or_else(|p| p.into_inner());
        let at = entries.partition_point(|e| e.micros <= profile.micros);
        entries.insert(at, profile);
        if entries.len() > self.capacity {
            entries.remove(0);
        }
        if entries.len() == self.capacity {
            // Full: raise the lock-free admission floor to the current
            // minimum retained time (never below the configured knob).
            self.floor.store(entries[0].micros.max(self.min_micros), Ordering::Relaxed);
        }
    }

    /// Retained profiles, worst first.
    pub fn worst(&self) -> Vec<QueryProfile> {
        let entries = self.entries.lock().unwrap_or_else(|p| p.into_inner());
        entries.iter().rev().cloned().collect()
    }

    /// Number of retained profiles.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// Whether nothing has been retained yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(micros: u64) -> QueryProfile {
        QueryProfile {
            language: "sql".into(),
            text: format!("SELECT {micros}"),
            micros,
            cache_hit: false,
            rows: 1,
            stages: Vec::new(),
        }
    }

    #[test]
    fn stage_sink_derives_rows_in_from_children() {
        let mut sink = StageSink::new();
        sink.begin("project");
        sink.begin("select");
        sink.begin("scan");
        sink.end(100);
        sink.set_density(0.25);
        sink.end(25);
        sink.end(25);
        let stages = sink.finish();
        assert_eq!(stages.len(), 3);
        let scan = &stages[0];
        assert_eq!((scan.op.as_str(), scan.rows_in, scan.rows_out), ("scan", 0, 100));
        let select = &stages[1];
        assert_eq!((select.op.as_str(), select.rows_in, select.rows_out), ("select", 100, 25));
        assert_eq!(select.density, Some(0.25));
        let project = &stages[2];
        assert_eq!((project.op.as_str(), project.rows_in, project.rows_out), ("project", 25, 25));
    }

    #[test]
    fn slow_log_keeps_the_worst_n() {
        let log = SlowQueryLog::new(3, 0);
        for micros in [5, 100, 1, 50, 200, 2] {
            log.record(profile(micros));
        }
        let worst: Vec<u64> = log.worst().iter().map(|p| p.micros).collect();
        assert_eq!(worst, [200, 100, 50]);
    }

    #[test]
    fn slow_log_threshold_rejects_fast_queries() {
        let log = SlowQueryLog::new(8, 100);
        log.record(profile(99));
        log.record(profile(100));
        assert_eq!(log.len(), 1, "below-threshold queries never enter");
    }

    #[test]
    fn profile_json_is_well_formed_enough() {
        let mut p = profile(7);
        p.stages.push(StageProfile {
            op: "scan".into(),
            micros: 3,
            rows_in: 0,
            rows_out: 10,
            density: Some(0.5),
        });
        let json = p.to_json();
        assert!(json.contains("\"micros\":7"), "{json}");
        assert!(json.contains("\"density\":0.5000"), "{json}");
        assert!(json.starts_with('{') && json.ends_with('}'));
    }
}
