//! Reproduces Table 2 (bounded equivalence checking with the BMC backend).
//!
//! Usage: `cargo run --release -p graphiti-bench --bin table2 [-- --scale N --budget-ms N]`

use graphiti_bench::{table2, HarnessOptions};

fn main() {
    let opts = HarnessOptions::from_args("table2");
    let corpus = opts.corpus();
    println!(
        "Table 2: bounded equivalence checking ({} benchmarks, {} ms/benchmark budget)",
        corpus.len(),
        opts.budget_ms
    );
    println!("{}", table2(&corpus, opts.budget(), opts.workers));
}
