//! Reproduces Table 5 (comparison with the best-effort baseline transpiler).
//!
//! Usage: `cargo run --release -p graphiti-bench --bin table5 [-- --scale N --diff-instances N]`

use graphiti_bench::{table5, HarnessOptions};

fn main() {
    let opts = HarnessOptions::from_args("table5");
    let corpus = opts.corpus();
    println!("Table 5: transpilation results of the best-effort baseline transpiler");
    println!("{}", table5(&corpus, opts.diff_instances, opts.workers));
}
