//! The query-plan cache.
//!
//! Keyed by **normalized query text** (whitespace-collapsed, case
//! preserved — string literals are case-significant) plus the query's
//! language and SQL target, the cache stores everything the hot path would
//! otherwise recompute per request:
//!
//! * Cypher: the parsed [`Query`](graphiti_cypher::ast::Query) AST;
//! * SQL: the parsed AST **and** the fully-compiled
//!   [`CompiledQuery`](graphiti_sql::CompiledQuery) positional program
//!   (parse + optimize + compile all happen at most once per distinct
//!   query text).
//!
//! Entries are `Arc`s, so a cache hit is a map lookup plus a refcount
//! bump; the plan itself is shared by however many workers are executing
//! the same query concurrently.  Parse failures are deliberately *not*
//! cached: error traffic stays cold rather than occupying the table.
//!
//! The cache is **bounded**: it holds at most its configured capacity
//! (default [`DEFAULT_PLAN_CACHE_CAPACITY`]) and evicts the
//! least-recently-used entry on overflow, so adversarial traffic of
//! unique query texts cannot grow memory without limit.  Recency is a
//! monotonic clock stamp per entry plus a stamp-ordered side index, making
//! both the touch on a hit and the eviction on an insert `O(log n)`.

use crate::snapshot::SqlTarget;
use graphiti_common::Result;
use graphiti_obs::metrics::Counter;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// Default bound on resident plans.  Far above any benign workload's
/// distinct-query count (the corpus sweep holds 612), far below memory
/// exhaustion for adversarial unique-text traffic.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 4096;

/// A cached, ready-to-execute SQL entry: the parsed AST plus the compiled
/// positional program.
#[derive(Debug)]
pub struct SqlPlan {
    /// The parsed (unoptimized) AST, kept for introspection and transpiler
    /// round-trips.
    pub ast: graphiti_sql::SqlQuery,
    /// The compiled plan, executed by
    /// [`eval_vectorized`](graphiti_sql::eval_vectorized).
    pub plan: graphiti_sql::CompiledQuery,
}

/// A cached plan: one variant per query language.
#[derive(Debug, Clone)]
pub enum CachedPlan {
    /// A parsed Cypher query.
    Cypher(Arc<graphiti_cypher::ast::Query>),
    /// A parsed + compiled SQL query.
    Sql(Arc<SqlPlan>),
}

/// Point-in-time cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to parse/compile.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
    /// Maximum resident entries.
    pub capacity: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (`0` when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A thread-safe, capacity-bounded LRU plan cache.
///
/// The table lock is held only for lookups and inserts — never while
/// parsing, compiling, or executing — so workers contend for nanoseconds,
/// not milliseconds.  Two workers racing on the same cold key may both
/// compile; the second insert wins and both count as misses, which keeps
/// the counters honest about work actually performed.
#[derive(Debug)]
pub struct PlanCache {
    inner: Mutex<CacheInner>,
    /// Shared-registry counter handles ([`CacheStats`] is a *view* over
    /// them): detached for a standalone cache, registered under the
    /// `graphiti_plan_cache_*` names when the engine carries an
    /// observability context.
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

#[derive(Debug)]
struct CacheInner {
    capacity: usize,
    /// Monotonic recency clock; every lookup hit and insert advances it.
    clock: u64,
    /// Key → (plan, last-touch stamp).
    table: HashMap<String, (CachedPlan, u64)>,
    /// Stamp → key, ordered: the first entry is the LRU eviction victim.
    order: BTreeMap<u64, String>,
}

impl Default for PlanCache {
    fn default() -> PlanCache {
        PlanCache::new()
    }
}

/// Collapses runs of whitespace so formatting differences don't defeat the
/// cache — **outside string literals only**.  Everything between quotes
/// (single or double, matching both lexers) is copied verbatim: `'A  B'`
/// and `'A B'` are different values and must never share a cache key.
/// Case is preserved throughout: identifiers resolve case-insensitively
/// anyway, and literal contents are case-significant.
pub fn normalize_query_text(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    push_normalized(&mut out, text);
    out
}

/// Single-pass, quote-aware whitespace collapse appended onto an existing
/// buffer — the cache-key builder runs once per query executed, so it
/// stays one allocation total.
fn push_normalized(out: &mut String, text: &str) {
    let mut in_quote: Option<char> = None;
    let mut pending_space = false;
    for ch in text.chars() {
        match in_quote {
            Some(quote) => {
                out.push(ch);
                if ch == quote {
                    in_quote = None;
                }
            }
            None if ch.is_whitespace() => {
                // Collapse the run; emit one space only if content follows.
                pending_space = !out.is_empty();
            }
            None => {
                if pending_space {
                    out.push(' ');
                    pending_space = false;
                }
                if ch == '\'' || ch == '"' {
                    in_quote = Some(ch);
                }
                out.push(ch);
            }
        }
    }
}

impl PlanCache {
    /// Creates an empty cache with the default capacity.
    pub fn new() -> PlanCache {
        PlanCache::with_capacity(DEFAULT_PLAN_CACHE_CAPACITY)
    }

    /// Creates an empty cache bounded to `capacity` entries (minimum 1),
    /// counting into detached (registry-less) handles.
    pub fn with_capacity(capacity: usize) -> PlanCache {
        PlanCache::with_capacity_and_counters(
            capacity,
            Counter::detached(),
            Counter::detached(),
            Counter::detached(),
        )
    }

    /// [`PlanCache::with_capacity`] with the caller's counter handles —
    /// the engine passes registry-backed ones so cache traffic shows up
    /// in the unified metric namespace.
    pub fn with_capacity_and_counters(
        capacity: usize,
        hits: Counter,
        misses: Counter,
        evictions: Counter,
    ) -> PlanCache {
        PlanCache {
            inner: Mutex::new(CacheInner {
                capacity: capacity.max(1),
                clock: 0,
                table: HashMap::new(),
                order: BTreeMap::new(),
            }),
            hits,
            misses,
            evictions,
        }
    }

    fn key(kind: &str, target: Option<&SqlTarget>, text: &str) -> String {
        let mut key = String::with_capacity(kind.len() + text.len() + 24);
        key.push_str(kind);
        key.push('\u{1}');
        match target {
            None => {}
            Some(SqlTarget::Induced) => key.push_str("induced\u{1}"),
            Some(SqlTarget::Named(name)) => {
                key.push_str("named:");
                key.push_str(name);
                key.push('\u{1}');
            }
        }
        push_normalized(&mut key, text);
        key
    }

    /// Looks up or builds the Cypher plan for `text`.  The boolean is
    /// `true` on a cache hit.
    pub fn cypher(
        &self,
        text: &str,
        build: impl FnOnce() -> Result<graphiti_cypher::ast::Query>,
    ) -> Result<(Arc<graphiti_cypher::ast::Query>, bool)> {
        let key = PlanCache::key("cypher", None, text);
        if let Some(CachedPlan::Cypher(q)) = self.lookup(&key) {
            return Ok((q, true));
        }
        let built = Arc::new(build()?);
        self.insert(key, CachedPlan::Cypher(Arc::clone(&built)));
        Ok((built, false))
    }

    /// Looks up or builds the SQL plan for `text` against `target`.  The
    /// boolean is `true` on a cache hit.
    pub fn sql(
        &self,
        text: &str,
        target: &SqlTarget,
        build: impl FnOnce() -> Result<SqlPlan>,
    ) -> Result<(Arc<SqlPlan>, bool)> {
        let key = PlanCache::key("sql", Some(target), text);
        if let Some(CachedPlan::Sql(p)) = self.lookup(&key) {
            return Ok((p, true));
        }
        let built = Arc::new(build()?);
        self.insert(key, CachedPlan::Sql(Arc::clone(&built)));
        Ok((built, false))
    }

    fn lookup(&self, key: &str) -> Option<CachedPlan> {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.clock += 1;
        let stamp = inner.clock;
        match inner.table.get(key).map(|(plan, old)| (plan.clone(), *old)) {
            Some((plan, old_stamp)) => {
                // Touch: re-stamp the entry so it moves to the MRU end.
                inner.order.remove(&old_stamp);
                inner.order.insert(stamp, key.to_string());
                if let Some(entry) = inner.table.get_mut(key) {
                    entry.1 = stamp;
                }
                self.hits.inc();
                Some(plan)
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    fn insert(&self, key: String, plan: CachedPlan) {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.clock += 1;
        let stamp = inner.clock;
        if let Some(old_stamp) = inner.table.get(&key).map(|(_, s)| *s) {
            // Replacement keeps the table size; just re-stamp.
            inner.order.remove(&old_stamp);
        } else if inner.table.len() >= inner.capacity {
            // Evict the least-recently-used entry.
            if let Some((_, victim)) = inner.order.pop_first() {
                inner.table.remove(&victim);
                self.evictions.inc();
            }
        }
        inner.order.insert(stamp, key.clone());
        inner.table.insert(key, (plan, stamp));
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            entries: inner.table.len(),
            evictions: self.evictions.get(),
            capacity: inner.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_collapses_whitespace_only() {
        assert_eq!(
            normalize_query_text("SELECT  e.name\n FROM emp   AS e"),
            "SELECT e.name FROM emp AS e"
        );
        // Case is preserved.
        assert_eq!(normalize_query_text("SELECT 'A b'"), "SELECT 'A b'");
    }

    #[test]
    fn normalization_preserves_whitespace_inside_literals() {
        // `'A  B'` and `'A B'` are different values: their keys must
        // differ, including for tabs/newlines inside the quotes.
        assert_eq!(normalize_query_text("WHERE  x = 'A  B'"), "WHERE x = 'A  B'");
        assert_ne!(
            normalize_query_text("WHERE x = 'A  B'"),
            normalize_query_text("WHERE x = 'A B'")
        );
        assert_eq!(normalize_query_text("RETURN 'a\n\tb'  AS x"), "RETURN 'a\n\tb' AS x");
        assert_eq!(normalize_query_text("SELECT \"q  q\"  FROM t"), "SELECT \"q  q\" FROM t");
        // Whitespace collapsing resumes after the literal closes.
        assert_eq!(normalize_query_text("x = 'A  B'   AND  y"), "x = 'A  B' AND y");
    }

    #[test]
    fn literal_whitespace_variants_get_distinct_cache_entries() {
        let cache = PlanCache::new();
        // The build closure's output is irrelevant to the keying under
        // test; what matters is that the two texts (differing only in
        // whitespace *inside* a literal) don't collide.
        let parse = || graphiti_cypher::parse_query("MATCH (n:EMP) RETURN n.id AS a");
        let a = "MATCH (n:EMP) WHERE n.name = 'A  B' RETURN n.id AS a";
        let b = "MATCH (n:EMP) WHERE n.name = 'A B' RETURN n.id AS a";
        let (_, hit_a) = cache.cypher(a, parse).unwrap();
        let (_, hit_b) = cache.cypher(b, parse).unwrap();
        assert!(!hit_a && !hit_b, "distinct literals must not share an entry");
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let cache = PlanCache::new();
        let parse = || graphiti_cypher::parse_query("MATCH (n:EMP) RETURN n.id AS a");
        let (first, hit1) = cache.cypher("MATCH (n:EMP) RETURN n.id AS a", parse).unwrap();
        assert!(!hit1);
        let (second, hit2) = cache.cypher("MATCH (n:EMP)  RETURN n.id AS a", parse).unwrap();
        assert!(hit2, "whitespace-normalized lookup must hit");
        assert!(Arc::ptr_eq(&first, &second));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn parse_errors_are_not_cached() {
        let cache = PlanCache::new();
        let bad = cache.cypher("MATCH (((", || graphiti_cypher::parse_query("MATCH ((("));
        assert!(bad.is_err());
        assert_eq!(cache.stats().entries, 0);
        // The failed lookup still counts as a miss.
        assert_eq!(cache.stats().misses, 1);
    }

    fn cypher_text(i: usize) -> String {
        format!("MATCH (n:EMP) RETURN n.id AS a{i}")
    }

    fn fill(cache: &PlanCache, i: usize) -> bool {
        let text = cypher_text(i);
        let (_, hit) =
            cache.cypher(&text, || graphiti_cypher::parse_query(&cypher_text(i))).unwrap();
        hit
    }

    #[test]
    fn capacity_is_enforced_with_lru_eviction_order() {
        let cache = PlanCache::with_capacity(2);
        assert!(!fill(&cache, 0)); // resident: {0}
        assert!(!fill(&cache, 1)); // resident: {0, 1}
        assert!(fill(&cache, 0)); // touch 0 → 1 is now LRU
        assert!(!fill(&cache, 2)); // evicts 1; resident: {0, 2}
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.capacity, 2);
        assert!(fill(&cache, 0), "the touched entry must have survived");
        assert!(fill(&cache, 2), "the fresh insert must have survived");
        assert!(!fill(&cache, 1), "the LRU entry must have been evicted");
        assert_eq!(cache.stats().evictions, 2, "re-inserting 1 evicts the next LRU");
    }

    #[test]
    fn reinserted_evicted_plan_returns_identical_results() {
        use crate::{BatchQuery, Engine};
        use graphiti_common::Value;
        use graphiti_graph::{GraphInstance, GraphSchema, NodeType};

        let schema = GraphSchema::new().with_node(NodeType::new("EMP", ["id", "name"]));
        let mut g = GraphInstance::new();
        g.add_node("EMP", [("id", Value::Int(1)), ("name", Value::str("A"))]);
        g.add_node("EMP", [("id", Value::Int(2)), ("name", Value::str("B"))]);
        let snapshot = crate::Snapshot::freeze(schema, g).unwrap();
        let engine = Engine::with_observability(
            Arc::clone(&snapshot),
            Some(1),
            Arc::new(graphiti_obs::Obs::new()),
        );

        let query = BatchQuery::sql("SELECT e.name FROM EMP AS e WHERE e.id = 1");
        let first = engine.execute_on(&snapshot, &query);
        assert!(!first.cache_hit);
        // Evict the plan by filling the size-1 cache with another query.
        let other = engine.execute_on(&snapshot, &BatchQuery::sql("SELECT e.id FROM EMP AS e"));
        assert!(!other.cache_hit);
        assert_eq!(engine.cache_stats().entries, 1);
        assert!(engine.cache_stats().evictions >= 1);
        // The evicted plan recompiles (a miss) and yields identical rows.
        let again = engine.execute_on(&snapshot, &query);
        assert!(!again.cache_hit, "evicted plans must recompile");
        assert_eq!(first.result.unwrap(), again.result.unwrap());
        // And once re-resident, it hits.
        let warm = engine.execute_on(&snapshot, &query);
        assert!(warm.cache_hit);
    }
}
