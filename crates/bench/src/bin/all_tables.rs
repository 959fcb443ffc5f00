//! Runs every experiment in sequence and prints all tables.
//!
//! Usage:
//! `cargo run --release -p graphiti-bench --bin all_tables [-- --scale N --budget-ms N --mock-nodes N]`
//!
//! With the default options this reproduces the full evaluation on the
//! 410-benchmark corpus; pass `--scale 10` for a quick smoke run.

use graphiti_bench::{table1, table2, table3, table4, table5, transpile_latency, HarnessOptions};

fn main() {
    let opts = HarnessOptions::from_args("all_tables");
    let corpus = opts.corpus();
    println!("== Graphiti evaluation ({} benchmarks) ==\n", corpus.len());

    println!("-- Table 1: benchmark statistics --");
    println!("{}", table1(&corpus));

    println!("-- Table 2: bounded equivalence checking ({} ms budget) --", opts.budget_ms);
    println!("{}", table2(&corpus, opts.budget(), opts.workers));

    println!("-- Table 3: full equivalence verification --");
    println!("{}", table3(&corpus, opts.workers));

    println!("-- Table 4: execution time of transpiled vs manual SQL --");
    println!("{}", table4(&corpus, opts.mock_nodes, opts.workers));

    println!("-- Transpilation latency (Section 6.3) --");
    println!("{}", transpile_latency(&corpus));

    println!("-- Table 5: baseline transpiler comparison --");
    println!("{}", table5(&corpus, opts.diff_instances, opts.workers));
}
