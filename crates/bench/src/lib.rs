//! Experiment harness reproducing the tables of the Graphiti evaluation.
//!
//! Each `table*` function reproduces one table of Section 6:
//!
//! * [`table1`] — benchmark statistics (Table 1);
//! * [`table2`] — bounded equivalence checking with the BMC backend
//!   (Table 2);
//! * [`table3`] — full verification with the deductive backend (Table 3);
//! * [`table4`] — execution time of transpiled vs manually-written SQL
//!   (Table 4);
//! * [`table5`] — comparison against the best-effort baseline transpiler
//!   (Table 5, Appendix E);
//! * [`transpile_latency`] — the transpilation-time statistics quoted in
//!   Section 6.3.
//!
//! The corresponding `table1` … `table5` binaries print the reports in a
//! markdown layout that mirrors the paper, and `all_tables` runs everything.
//!
//! The per-benchmark work of Tables 2-5 fans out across a worker pool
//! ([`graphiti_engine::run_parallel`]); pass `--workers 1` to the binaries
//! for strictly serial execution (the default uses every available core —
//! per-benchmark wall-clock averages are then measured under concurrency,
//! which is representative of service conditions but not of an idle
//! machine).

pub mod json;

use graphiti_baseline::transpile_best_effort;
use graphiti_benchmarks::{build_databases, Benchmark, Category};
use graphiti_checkers::{BoundedChecker, DeductiveChecker, ValueDomain};
use graphiti_core::{reduce, CheckOutcome, SqlEquivChecker};
use graphiti_sql::eval_query;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fmt;
use std::time::{Duration, Instant};

// ----------------------------------------------------------------- helpers

/// Summary statistics over a list of sizes.
#[derive(Debug, Clone, Default)]
pub struct SizeStats {
    /// Minimum.
    pub min: usize,
    /// Maximum.
    pub max: usize,
    /// Mean.
    pub avg: f64,
    /// Median.
    pub med: f64,
}

impl SizeStats {
    /// Computes statistics from raw sizes.
    pub fn of(mut values: Vec<usize>) -> SizeStats {
        if values.is_empty() {
            return SizeStats::default();
        }
        values.sort_unstable();
        let n = values.len();
        let med = if n % 2 == 1 {
            values[n / 2] as f64
        } else {
            (values[n / 2 - 1] + values[n / 2]) as f64 / 2.0
        };
        SizeStats {
            min: values[0],
            max: values[n - 1],
            avg: values.iter().sum::<usize>() as f64 / n as f64,
            med,
        }
    }
}

fn per_category(corpus: &[Benchmark]) -> BTreeMap<&'static str, Vec<&Benchmark>> {
    let mut map: BTreeMap<&'static str, Vec<&Benchmark>> = BTreeMap::new();
    for cat in Category::all() {
        map.insert(cat.name(), Vec::new());
    }
    for b in corpus {
        map.get_mut(b.category.name()).unwrap().push(b);
    }
    map
}

fn ordered_categories() -> [&'static str; 6] {
    ["StackOverflow", "Tutorial", "Academic", "VeriEQL", "Mediator", "GPT-Translate"]
}

// ----------------------------------------------------------------- Table 1

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Category name.
    pub category: String,
    /// Number of benchmarks.
    pub count: usize,
    /// SQL AST-size statistics.
    pub sql: SizeStats,
    /// Cypher AST-size statistics.
    pub cypher: SizeStats,
    /// Transformer rule-count statistics.
    pub transformer: SizeStats,
}

/// The Table 1 report.
#[derive(Debug, Clone, Default)]
pub struct Table1Report {
    /// Per-category rows plus a final "Total" row.
    pub rows: Vec<Table1Row>,
}

/// Computes benchmark statistics (Table 1).
pub fn table1(corpus: &[Benchmark]) -> Table1Report {
    let groups = per_category(corpus);
    let mut rows = Vec::new();
    let row_for = |name: &str, benches: &[&Benchmark]| -> Table1Row {
        let sql_sizes: Vec<usize> =
            benches.iter().filter_map(|b| b.sql().ok()).map(|q| q.size()).collect();
        let cy_sizes: Vec<usize> =
            benches.iter().filter_map(|b| b.cypher().ok()).map(|q| q.size()).collect();
        let tr_sizes: Vec<usize> =
            benches.iter().filter_map(|b| b.transformer().ok()).map(|t| t.rule_count()).collect();
        Table1Row {
            category: name.to_string(),
            count: benches.len(),
            sql: SizeStats::of(sql_sizes),
            cypher: SizeStats::of(cy_sizes),
            transformer: SizeStats::of(tr_sizes),
        }
    };
    for name in ordered_categories() {
        rows.push(row_for(name, &groups[name]));
    }
    let all: Vec<&Benchmark> = corpus.iter().collect();
    rows.push(row_for("Total", &all));
    Table1Report { rows }
}

impl fmt::Display for Table1Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "| Dataset | # | SQL min/max/avg/med | Cypher min/max/avg/med | Transformer min/max/avg/med |"
        )?;
        writeln!(f, "|---|---|---|---|---|")?;
        for r in &self.rows {
            writeln!(
                f,
                "| {} | {} | {}/{}/{:.1}/{:.1} | {}/{}/{:.1}/{:.1} | {}/{}/{:.1}/{:.1} |",
                r.category,
                r.count,
                r.sql.min,
                r.sql.max,
                r.sql.avg,
                r.sql.med,
                r.cypher.min,
                r.cypher.max,
                r.cypher.avg,
                r.cypher.med,
                r.transformer.min,
                r.transformer.max,
                r.transformer.avg,
                r.transformer.med,
            )?;
        }
        Ok(())
    }
}

// ----------------------------------------------------------------- Table 2

/// One row of Table 2.
#[derive(Debug, Clone, Default)]
pub struct Table2Row {
    /// Category name.
    pub category: String,
    /// Number of benchmarks checked.
    pub count: usize,
    /// Pairs refuted (proven non-equivalent).
    pub non_equiv: usize,
    /// Average bound fully explored for non-refuted pairs.
    pub avg_checked_bound: f64,
    /// Average time to find a counterexample (seconds).
    pub avg_refutation_time_s: Option<f64>,
    /// Pairs whose Cypher side failed to transpile (outside the fragment).
    pub errors: usize,
}

/// The Table 2 report.
#[derive(Debug, Clone, Default)]
pub struct Table2Report {
    /// Per-category rows plus a total row.
    pub rows: Vec<Table2Row>,
    /// Ids of the refuted benchmarks.
    pub refuted_ids: Vec<String>,
    /// Ids whose verdict disagrees with the corpus ground truth (refuted but
    /// expected equivalent, or not refuted but expected non-equivalent).
    pub unexpected: Vec<String>,
}

/// Runs bounded equivalence checking over the corpus (Table 2).
///
/// `budget` is the wall-clock budget per benchmark (the paper uses 10
/// minutes; scale it down for quick runs).
pub fn table2(corpus: &[Benchmark], budget: Duration, workers: usize) -> Table2Report {
    let groups = per_category(corpus);
    let mut report = Table2Report::default();
    let mut totals = Table2Row { category: "Total".into(), ..Default::default() };
    let mut total_bounds = Vec::new();
    let mut total_ref_times = Vec::new();
    for name in ordered_categories() {
        let mut row = Table2Row { category: name.to_string(), ..Default::default() };
        let mut bounds = Vec::new();
        let mut ref_times = Vec::new();
        let benches = &groups[name];
        let outcomes = graphiti_engine::run_parallel(benches.len(), workers, |i| {
            let checker = BoundedChecker { time_budget: budget, ..BoundedChecker::default() };
            run_bmc(benches[i], &checker)
        });
        for (b, outcome) in benches.iter().zip(outcomes) {
            row.count += 1;
            match outcome {
                Ok((CheckOutcome::Refuted(_), stats)) => {
                    row.non_equiv += 1;
                    ref_times.push(stats.elapsed.as_secs_f64());
                    report.refuted_ids.push(b.id.clone());
                    if b.expected_equivalent {
                        report.unexpected.push(b.id.clone());
                    }
                }
                Ok((_, stats)) => {
                    bounds.push(stats.checked_bound as f64);
                    if !b.expected_equivalent {
                        report.unexpected.push(b.id.clone());
                    }
                }
                Err(_) => row.errors += 1,
            }
        }
        row.avg_checked_bound =
            if bounds.is_empty() { 0.0 } else { bounds.iter().sum::<f64>() / bounds.len() as f64 };
        row.avg_refutation_time_s = if ref_times.is_empty() {
            None
        } else {
            Some(ref_times.iter().sum::<f64>() / ref_times.len() as f64)
        };
        totals.count += row.count;
        totals.non_equiv += row.non_equiv;
        totals.errors += row.errors;
        total_bounds.extend(bounds);
        total_ref_times.extend(ref_times);
        report.rows.push(row);
    }
    totals.avg_checked_bound = if total_bounds.is_empty() {
        0.0
    } else {
        total_bounds.iter().sum::<f64>() / total_bounds.len() as f64
    };
    totals.avg_refutation_time_s = if total_ref_times.is_empty() {
        None
    } else {
        Some(total_ref_times.iter().sum::<f64>() / total_ref_times.len() as f64)
    };
    report.rows.push(totals);
    report
}

fn run_bmc(
    b: &Benchmark,
    checker: &BoundedChecker,
) -> graphiti_common::Result<(CheckOutcome, graphiti_checkers::BmcStats)> {
    let cypher = b.cypher()?;
    let sql = b.sql()?;
    let transformer = b.transformer()?;
    let reduction = reduce(&b.graph_schema, &cypher, &transformer)?;
    checker.check_with_stats(
        &reduction.ctx.induced_schema,
        &reduction.transpiled,
        &b.target_schema,
        &sql,
        &reduction.rdt,
    )
}

impl fmt::Display for Table2Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "| Dataset | # | # Non-Equiv | Avg Checked Bound | Avg Refutation Time (s) |")?;
        writeln!(f, "|---|---|---|---|---|")?;
        for r in &self.rows {
            writeln!(
                f,
                "| {} | {} | {} | {:.1} | {} |",
                r.category,
                r.count,
                r.non_equiv,
                r.avg_checked_bound,
                r.avg_refutation_time_s.map(|t| format!("{t:.2}")).unwrap_or_else(|| "N/A".into()),
            )?;
        }
        if !self.unexpected.is_empty() {
            writeln!(f, "\nDisagreements with corpus ground truth: {:?}", self.unexpected)?;
        }
        Ok(())
    }
}

// ----------------------------------------------------------------- Table 3

/// One row of Table 3.
#[derive(Debug, Clone, Default)]
pub struct Table3Row {
    /// Category name.
    pub category: String,
    /// Number of benchmarks.
    pub count: usize,
    /// Benchmarks inside the deductive backend's fragment.
    pub supported: usize,
    /// Benchmarks verified equivalent.
    pub verified: usize,
    /// Supported benchmarks the backend could not verify.
    pub unknown: usize,
    /// Average verification time (seconds) over supported benchmarks.
    pub avg_time_s: Option<f64>,
}

/// The Table 3 report.
#[derive(Debug, Clone, Default)]
pub struct Table3Report {
    /// Per-category rows plus a total row.
    pub rows: Vec<Table3Row>,
}

/// Runs full (unbounded) verification with the deductive backend (Table 3).
pub fn table3(corpus: &[Benchmark], workers: usize) -> Table3Report {
    let groups = per_category(corpus);
    let mut report = Table3Report::default();
    let mut totals = Table3Row { category: "Total".into(), ..Default::default() };
    let mut total_times = Vec::new();
    for name in ordered_categories() {
        let mut row = Table3Row { category: name.to_string(), ..Default::default() };
        let mut times = Vec::new();
        let benches = &groups[name];
        // `Some((verified, seconds))` per supported benchmark.
        let outcomes = graphiti_engine::run_parallel(benches.len(), workers, |i| {
            let b = benches[i];
            let checker = DeductiveChecker::new();
            let cypher = b.cypher().ok()?;
            let sql = b.sql().ok()?;
            let transformer = b.transformer().ok()?;
            let reduction = reduce(&b.graph_schema, &cypher, &transformer).ok()?;
            if !checker.supports(&reduction.transpiled) || !checker.supports(&sql) {
                return None;
            }
            let start = Instant::now();
            let outcome = checker.check_sql(
                &reduction.ctx.induced_schema,
                &reduction.transpiled,
                &b.target_schema,
                &sql,
                &reduction.rdt,
            );
            let verified = matches!(outcome, Ok(CheckOutcome::Verified));
            Some((verified, start.elapsed().as_secs_f64()))
        });
        for outcome in outcomes {
            row.count += 1;
            let Some((verified, seconds)) = outcome else { continue };
            row.supported += 1;
            times.push(seconds);
            if verified {
                row.verified += 1;
            } else {
                row.unknown += 1;
            }
        }
        row.avg_time_s = if times.is_empty() {
            None
        } else {
            Some(times.iter().sum::<f64>() / times.len() as f64)
        };
        totals.count += row.count;
        totals.supported += row.supported;
        totals.verified += row.verified;
        totals.unknown += row.unknown;
        total_times.extend(times);
        report.rows.push(row);
    }
    totals.avg_time_s = if total_times.is_empty() {
        None
    } else {
        Some(total_times.iter().sum::<f64>() / total_times.len() as f64)
    };
    report.rows.push(totals);
    report
}

impl fmt::Display for Table3Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "| Dataset | # | # Supported | # Verified | # Unknown | Avg Time (s) |")?;
        writeln!(f, "|---|---|---|---|---|---|")?;
        for r in &self.rows {
            writeln!(
                f,
                "| {} | {} | {} | {} | {} | {} |",
                r.category,
                r.count,
                r.supported,
                r.verified,
                r.unknown,
                r.avg_time_s.map(|t| format!("{t:.4}")).unwrap_or_else(|| "N/A".into()),
            )?;
        }
        Ok(())
    }
}

// ----------------------------------------------------------------- Table 4

/// One row of Table 4 (a category of hand-written benchmarks).
#[derive(Debug, Clone, Default)]
pub struct Table4Row {
    /// Category name.
    pub category: String,
    /// Number of benchmarks measured.
    pub count: usize,
    /// Average execution time of the transpiled query (seconds).
    pub avg_transpiled_s: f64,
    /// Average execution time of the manually-written query (seconds).
    pub avg_manual_s: f64,
    /// Percentage of benchmarks where the transpiled query is faster.
    pub pct_transpiled_faster: f64,
    /// Percentage with slowdown in (1.0, 1.1].
    pub pct_slower_1_1: f64,
    /// Percentage with slowdown in (1.1, 1.2].
    pub pct_slower_1_2: f64,
    /// Percentage with slowdown above 1.2.
    pub pct_slower_more: f64,
}

/// The Table 4 report.
#[derive(Debug, Clone, Default)]
pub struct Table4Report {
    /// Per-category rows plus a total row.
    pub rows: Vec<Table4Row>,
}

/// Measures execution time of transpiled vs manually-written SQL on mock
/// databases (Table 4).  Only the StackOverflow / Tutorial / Academic
/// categories are measured, as in the paper.  `nodes_per_label` controls the
/// data scale (the paper uses 10k–1M rows; the default binaries use a
/// smaller scale suited to an interpreted engine).
pub fn table4(corpus: &[Benchmark], nodes_per_label: usize, workers: usize) -> Table4Report {
    let groups = per_category(corpus);
    let mut report = Table4Report::default();
    let mut all_ratios: Vec<(f64, f64)> = Vec::new();
    for name in ["StackOverflow", "Tutorial", "Academic"] {
        let mut row = Table4Row { category: name.to_string(), ..Default::default() };
        let benches = &groups[name];
        // Each benchmark freezes its databases into an engine snapshot and
        // executes both queries through the batch engine's compiled-plan
        // path; per-query wall-clock comes from the engine's outcome
        // timings.
        let measured = graphiti_engine::run_parallel(benches.len(), workers, |i| {
            let b = benches[i];
            let cypher = b.cypher().ok()?;
            let sql = b.sql().ok()?;
            let transformer = b.transformer().ok()?;
            let reduction = reduce(&b.graph_schema, &cypher, &transformer).ok()?;
            let dbs = build_databases(
                &reduction.ctx,
                &transformer,
                &b.target_schema,
                nodes_per_label,
                2,
                0xDA7A,
            )
            .ok()?;
            let snapshot = graphiti_engine::Snapshot::from_parts(
                b.graph_schema.clone(),
                dbs.graph,
                reduction.ctx.clone(),
                dbs.induced,
                [("target".to_string(), dbs.target)],
            );
            let engine = graphiti_engine::Engine::new(std::sync::Arc::clone(&snapshot));
            let transpiled = engine.execute_sql_ast(
                &snapshot,
                &reduction.transpiled,
                &graphiti_engine::SqlTarget::Induced,
            );
            let manual = engine.execute_sql_ast(
                &snapshot,
                &sql,
                &graphiti_engine::SqlTarget::Named("target".to_string()),
            );
            if transpiled.result.is_err() || manual.result.is_err() {
                return None;
            }
            Some((transpiled.micros as f64 / 1e6, manual.micros as f64 / 1e6))
        });
        let ratios: Vec<(f64, f64)> = measured.into_iter().flatten().collect();
        row.count = ratios.len();
        if !ratios.is_empty() {
            row.avg_transpiled_s = ratios.iter().map(|(t, _)| t).sum::<f64>() / ratios.len() as f64;
            row.avg_manual_s = ratios.iter().map(|(_, m)| m).sum::<f64>() / ratios.len() as f64;
            fill_buckets(&mut row, &ratios);
        }
        all_ratios.extend(ratios);
        report.rows.push(row);
    }
    let mut total =
        Table4Row { category: "Total".into(), count: all_ratios.len(), ..Default::default() };
    if !all_ratios.is_empty() {
        total.avg_transpiled_s =
            all_ratios.iter().map(|(t, _)| t).sum::<f64>() / all_ratios.len() as f64;
        total.avg_manual_s =
            all_ratios.iter().map(|(_, m)| m).sum::<f64>() / all_ratios.len() as f64;
        fill_buckets(&mut total, &all_ratios);
    }
    report.rows.push(total);
    report
}

fn fill_buckets(row: &mut Table4Row, ratios: &[(f64, f64)]) {
    let n = ratios.len() as f64;
    let mut faster = 0;
    let mut s11 = 0;
    let mut s12 = 0;
    let mut more = 0;
    for (t, m) in ratios {
        let ratio = if *m > 0.0 { t / m } else { 1.0 };
        if ratio <= 1.0 {
            faster += 1;
        } else if ratio <= 1.1 {
            s11 += 1;
        } else if ratio <= 1.2 {
            s12 += 1;
        } else {
            more += 1;
        }
    }
    row.pct_transpiled_faster = 100.0 * faster as f64 / n;
    row.pct_slower_1_1 = 100.0 * s11 as f64 / n;
    row.pct_slower_1_2 = 100.0 * s12 as f64 / n;
    row.pct_slower_more = 100.0 * more as f64 / n;
}

impl fmt::Display for Table4Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "| Dataset | # | Avg Exec Transpiled (s) | Avg Exec Manual (s) | % Transpiled Faster | % Slower (1,1.1] | % Slower (1.1,1.2] | % Slower (1.2,inf) |"
        )?;
        writeln!(f, "|---|---|---|---|---|---|---|---|")?;
        for r in &self.rows {
            writeln!(
                f,
                "| {} | {} | {:.4} | {:.4} | {:.1}% | {:.1}% | {:.1}% | {:.1}% |",
                r.category,
                r.count,
                r.avg_transpiled_s,
                r.avg_manual_s,
                r.pct_transpiled_faster,
                r.pct_slower_1_1,
                r.pct_slower_1_2,
                r.pct_slower_more,
            )?;
        }
        Ok(())
    }
}

// ----------------------------------------------------------------- Table 5

/// One row of Table 5.
#[derive(Debug, Clone, Default)]
pub struct Table5Row {
    /// Category name.
    pub category: String,
    /// Number of benchmarks.
    pub count: usize,
    /// Queries outside the baseline's supported fragment.
    pub unsupported: usize,
    /// Queries translated into SQL that does not parse/execute.
    pub syn_err: usize,
    /// Queries translated into semantically incorrect SQL.
    pub incorrect: usize,
    /// Queries translated correctly.
    pub correct: usize,
}

/// The Table 5 report.
#[derive(Debug, Clone, Default)]
pub struct Table5Report {
    /// Per-category rows plus a total row.
    pub rows: Vec<Table5Row>,
}

/// Compares the best-effort baseline transpiler against Graphiti's sound
/// transpiler (Table 5 / Appendix E).
///
/// Correctness of baseline output is established differentially: both the
/// baseline SQL and Graphiti's transpiled SQL are executed on a battery of
/// randomly generated induced-schema instances; any observed difference
/// classifies the output as incorrect.
pub fn table5(corpus: &[Benchmark], instances_per_query: usize, workers: usize) -> Table5Report {
    let groups = per_category(corpus);
    let mut report = Table5Report::default();
    let mut totals = Table5Row { category: "Total".into(), ..Default::default() };
    for name in ordered_categories() {
        let mut row = Table5Row { category: name.to_string(), ..Default::default() };
        let benches = &groups[name];
        let verdicts = graphiti_engine::run_parallel(benches.len(), workers, |i| {
            let b = benches[i];
            let Ok(cypher) = b.cypher() else {
                return Table5Verdict::Unsupported;
            };
            let Ok(ctx) = graphiti_core::infer_sdt(&b.graph_schema) else {
                return Table5Verdict::Unsupported;
            };
            match transpile_best_effort(&ctx, &cypher) {
                Err(_) => Table5Verdict::Unsupported,
                Ok(sql_text) => match graphiti_sql::parse_query(&sql_text) {
                    Err(_) => Table5Verdict::SynErr,
                    Ok(baseline_sql) => {
                        let Ok(sound_sql) = graphiti_core::transpile_query(&ctx, &cypher) else {
                            return Table5Verdict::Unsupported;
                        };
                        match differential_check(
                            &ctx.induced_schema,
                            &baseline_sql,
                            &sound_sql,
                            instances_per_query,
                        ) {
                            DifferentialVerdict::Agrees => Table5Verdict::Correct,
                            DifferentialVerdict::Differs => Table5Verdict::Incorrect,
                            DifferentialVerdict::ExecutionError => Table5Verdict::SynErr,
                        }
                    }
                },
            }
        });
        for verdict in verdicts {
            row.count += 1;
            match verdict {
                Table5Verdict::Unsupported => row.unsupported += 1,
                Table5Verdict::SynErr => row.syn_err += 1,
                Table5Verdict::Incorrect => row.incorrect += 1,
                Table5Verdict::Correct => row.correct += 1,
            }
        }
        totals.count += row.count;
        totals.unsupported += row.unsupported;
        totals.syn_err += row.syn_err;
        totals.incorrect += row.incorrect;
        totals.correct += row.correct;
        report.rows.push(row);
    }
    report.rows.push(totals);
    report
}

enum DifferentialVerdict {
    Agrees,
    Differs,
    ExecutionError,
}

enum Table5Verdict {
    Unsupported,
    SynErr,
    Incorrect,
    Correct,
}

fn differential_check(
    schema: &graphiti_relational::RelSchema,
    candidate: &graphiti_sql::SqlQuery,
    reference: &graphiti_sql::SqlQuery,
    instances: usize,
) -> DifferentialVerdict {
    let checker = BoundedChecker::default();
    let domain = ValueDomain::from_queries(&[candidate, reference]);
    let mut rng = StdRng::seed_from_u64(0xBA5E);
    let mut executed = false;
    for i in 0..instances {
        let bound = 1 + (i % 4);
        let inst = checker.generate_instance(schema, bound, &domain, &mut rng);
        let got = eval_query(&inst, candidate);
        let want = eval_query(&inst, reference);
        match (got, want) {
            (Ok(g), Ok(w)) => {
                executed = true;
                if !g.equivalent(&w) {
                    return DifferentialVerdict::Differs;
                }
            }
            (Err(_), _) => return DifferentialVerdict::ExecutionError,
            (_, Err(_)) => continue,
        }
    }
    if executed {
        DifferentialVerdict::Agrees
    } else {
        DifferentialVerdict::ExecutionError
    }
}

impl fmt::Display for Table5Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "| Dataset | # | # Unsupported | # SynErr | # Incorrect | # Correct |")?;
        writeln!(f, "|---|---|---|---|---|---|")?;
        for r in &self.rows {
            writeln!(
                f,
                "| {} | {} | {} | {} | {} | {} |",
                r.category, r.count, r.unsupported, r.syn_err, r.incorrect, r.correct,
            )?;
        }
        Ok(())
    }
}

// -------------------------------------------------------- transpile latency

/// Transpilation latency statistics (Section 6.3).
#[derive(Debug, Clone, Default)]
pub struct TranspileLatency {
    /// Number of queries transpiled.
    pub count: usize,
    /// Average latency in milliseconds.
    pub avg_ms: f64,
    /// Median latency in milliseconds.
    pub median_ms: f64,
    /// Maximum latency in milliseconds.
    pub max_ms: f64,
}

/// Measures how long Graphiti takes to transpile every Cypher query in the
/// corpus.
pub fn transpile_latency(corpus: &[Benchmark]) -> TranspileLatency {
    let mut samples_us: Vec<f64> = Vec::new();
    for b in corpus {
        let Ok(cypher) = b.cypher() else { continue };
        let Ok(ctx) = graphiti_core::infer_sdt(&b.graph_schema) else { continue };
        let start = Instant::now();
        if graphiti_core::transpile_query(&ctx, &cypher).is_ok() {
            samples_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    if samples_us.is_empty() {
        return TranspileLatency::default();
    }
    samples_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = samples_us.len();
    TranspileLatency {
        count: n,
        avg_ms: samples_us.iter().sum::<f64>() / n as f64 / 1000.0,
        median_ms: samples_us[n / 2] / 1000.0,
        max_ms: samples_us[n - 1] / 1000.0,
    }
}

impl fmt::Display for TranspileLatency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Transpiled {} queries: avg {:.3} ms, median {:.3} ms, max {:.3} ms",
            self.count, self.avg_ms, self.median_ms, self.max_ms
        )
    }
}

/// Splits `args` into `--name value` pairs.  A name missing from
/// `known`, or a name with no value after it, is an error.
pub fn parse_flags<'a>(
    args: &'a [String],
    known: &[&str],
) -> Result<Vec<(&'a str, &'a str)>, String> {
    let mut pairs = Vec::new();
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown argument `{flag}`"));
        }
        let value = rest.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        pairs.push((flag.as_str(), value.as_str()));
    }
    Ok(pairs)
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("`{flag}` needs a number, not `{value}`"))
}

/// Parses the process's arguments with `parse`; on an error, prints it
/// and `usage` and exits with status 2.
pub fn args_or_exit<T>(usage: &str, parse: impl FnOnce(&[String]) -> Result<T, String>) -> T {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse(&args).unwrap_or_else(|err| {
        eprintln!("{err}\nusage: {usage}");
        std::process::exit(2)
    })
}

/// Command-line options shared by the table binaries.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Corpus scale divisor: 1 = the full 410-benchmark corpus.
    pub scale: usize,
    /// Per-benchmark time budget for the bounded checker, in milliseconds.
    pub budget_ms: u64,
    /// Nodes per label for the Table 4 mock databases.
    pub mock_nodes: usize,
    /// Random instances per query for the Table 5 differential check.
    pub diff_instances: usize,
    /// Worker threads for the per-benchmark fan-out (Tables 2-5).
    pub workers: usize,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            scale: 1,
            budget_ms: 1500,
            mock_nodes: 2000,
            diff_instances: 40,
            workers: graphiti_engine::available_workers(),
        }
    }
}

impl HarnessOptions {
    /// Parses `--scale N`, `--budget-ms N`, `--mock-nodes N`,
    /// `--diff-instances N` and `--workers N`.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = HarnessOptions::default();
        let flags = ["--scale", "--budget-ms", "--mock-nodes", "--diff-instances", "--workers"];
        for (flag, value) in parse_flags(args, &flags)? {
            match flag {
                "--scale" => opts.scale = number(flag, value)?,
                "--budget-ms" => opts.budget_ms = number(flag, value)?,
                "--mock-nodes" => opts.mock_nodes = number(flag, value)?,
                "--diff-instances" => opts.diff_instances = number(flag, value)?,
                _ => opts.workers = number(flag, value)?, // `--workers`
            }
        }
        Ok(opts)
    }

    /// Parses the process's arguments for the binary `bin`, exiting with
    /// status 2 and its usage line on a bad one.
    pub fn from_args(bin: &str) -> Self {
        let usage = format!(
            "{bin} [--scale N] [--budget-ms N] [--mock-nodes N] [--diff-instances N] [--workers N]"
        );
        args_or_exit(&usage, Self::parse)
    }

    /// Builds the corpus selected by `--scale`.
    pub fn corpus(&self) -> Vec<Benchmark> {
        if self.scale <= 1 {
            graphiti_benchmarks::full_corpus()
        } else {
            graphiti_benchmarks::small_corpus(self.scale)
        }
    }

    /// The per-benchmark BMC budget.
    pub fn budget(&self) -> Duration {
        Duration::from_millis(self.budget_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphiti_benchmarks::small_corpus;

    #[test]
    fn size_stats() {
        let s = SizeStats::of(vec![4, 2, 8, 6]);
        assert_eq!(s.min, 2);
        assert_eq!(s.max, 8);
        assert!((s.avg - 5.0).abs() < 1e-9);
        assert!((s.med - 5.0).abs() < 1e-9);
        assert_eq!(SizeStats::of(vec![]).max, 0);
    }

    #[test]
    fn table1_counts_every_benchmark() {
        let corpus = small_corpus(30);
        let report = table1(&corpus);
        let total = report.rows.last().unwrap();
        assert_eq!(total.count, corpus.len());
        assert!(total.cypher.avg > 0.0);
        assert!(!report.to_string().is_empty());
    }

    #[test]
    fn table3_and_latency_run_on_a_small_corpus() {
        let corpus = small_corpus(30);
        let t3 = table3(&corpus, 2);
        let total = t3.rows.last().unwrap();
        assert!(total.supported <= total.count);
        assert_eq!(total.verified + total.unknown, total.supported);
        let lat = transpile_latency(&corpus);
        assert!(lat.count > 0);
        assert!(lat.avg_ms >= 0.0);
    }

    #[test]
    fn table2_finds_known_bugs_in_a_small_corpus() {
        let corpus: Vec<Benchmark> = graphiti_benchmarks::full_corpus()
            .into_iter()
            .filter(|b| {
                b.id == "stackoverflow/optional-vs-inner-join" || b.id == "academic/concept-lookup"
            })
            .collect();
        assert_eq!(corpus.len(), 2);
        let report = table2(&corpus, Duration::from_millis(800), 2);
        let total = report.rows.last().unwrap();
        assert_eq!(total.count, 2);
        assert_eq!(total.non_equiv, 1);
        assert!(report.unexpected.is_empty());
    }

    #[test]
    fn table5_classifies_baseline_output() {
        let corpus = small_corpus(40);
        let report = table5(&corpus, 12, 2);
        let total = report.rows.last().unwrap();
        assert_eq!(
            total.unsupported + total.syn_err + total.incorrect + total.correct,
            total.count
        );
        assert!(total.unsupported > 0);
    }

    #[test]
    fn table4_reports_ratio_buckets() {
        let corpus: Vec<Benchmark> = graphiti_benchmarks::full_corpus()
            .into_iter()
            .filter(|b| {
                matches!(
                    b.category,
                    Category::StackOverflow | Category::Tutorial | Category::Academic
                )
            })
            .take(6)
            .collect();
        let report = table4(&corpus, 200, 2);
        let total = report.rows.last().unwrap();
        assert!(total.count > 0);
        let pct_sum = total.pct_transpiled_faster
            + total.pct_slower_1_1
            + total.pct_slower_1_2
            + total.pct_slower_more;
        assert!((pct_sum - 100.0).abs() < 1e-6);
    }

    #[test]
    fn harness_options_defaults() {
        let opts = HarnessOptions::default();
        assert_eq!(opts.scale, 1);
        assert!(opts.budget().as_millis() > 0);
    }

    fn parse_line(line: &str) -> Result<HarnessOptions, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        HarnessOptions::parse(&args)
    }

    #[test]
    fn harness_options_reject_bad_flags() {
        assert!(parse_line("--sclae 50").unwrap_err().contains("unknown argument `--sclae`"));
        assert!(parse_line("--scale fifty").unwrap_err().contains("`--scale` needs a number"));
        assert!(parse_line("--scale 50 --scale").unwrap_err().contains("`--scale` needs a value"));
        assert!(parse_line("--workers -1").is_err());
    }

    #[test]
    fn harness_options_parse_a_valid_line() {
        let opts =
            parse_line("--scale 50 --budget-ms 100 --mock-nodes 7 --diff-instances 3 --workers 2")
                .unwrap();
        assert_eq!(
            (opts.scale, opts.budget_ms, opts.mock_nodes, opts.diff_instances, opts.workers),
            (50, 100, 7, 3, 2)
        );
        assert_eq!(parse_line("").unwrap().scale, 1);
    }
}
