//! Reproduces Table 4 (execution time of transpiled vs manual SQL queries).
//!
//! Usage: `cargo run --release -p graphiti-bench --bin table4 [-- --scale N --mock-nodes N]`

use graphiti_bench::{table4, transpile_latency, HarnessOptions};

fn main() {
    let opts = HarnessOptions::from_args("table4");
    let corpus = opts.corpus();
    println!(
        "Table 4: execution time of transpiled and manually-written SQL queries \
         ({} nodes per label in the mock databases)",
        opts.mock_nodes
    );
    println!("{}", table4(&corpus, opts.mock_nodes, opts.workers));
    println!("Transpilation latency (Section 6.3):");
    println!("{}", transpile_latency(&corpus));
}
