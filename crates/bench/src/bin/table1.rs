//! Reproduces Table 1 (benchmark statistics).
//!
//! Usage: `cargo run -p graphiti-bench --bin table1 [-- --scale N]`

use graphiti_bench::{table1, HarnessOptions};

fn main() {
    let opts = HarnessOptions::from_args("table1");
    let corpus = opts.corpus();
    println!("Table 1: statistics of Cypher and SQL queries in the benchmarks");
    println!("{}", table1(&corpus));
}
