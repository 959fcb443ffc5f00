//! Reproduces Table 3 (full verification with the deductive backend).
//!
//! Usage: `cargo run --release -p graphiti-bench --bin table3 [-- --scale N]`

use graphiti_bench::{table3, HarnessOptions};

fn main() {
    let opts = HarnessOptions::from_args("table3");
    let corpus = opts.corpus();
    println!("Table 3: full equivalence verification ({} benchmarks)", corpus.len());
    println!("{}", table3(&corpus, opts.workers));
}
