//! Kernel-grid propagation summary: times calibration of each circuit's
//! segment junction trees under the blocked fused kernels (dense and
//! sparse), after checking both bit-identical to the two-pass reference,
//! and writes `BENCH_kernels.json`.
//!
//! ```text
//! cargo run -p swact-bench --release --bin kernel_report [reps]
//! ```

use swact_bench::{kernel_throughput, kernel_throughput_json};

fn main() {
    let mut args = std::env::args().skip(1);
    let reps: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(50);
    let names = ["c17", "c432", "c880", "alu2"];

    println!("fused kernel grid — {reps} calibrations per cell");
    println!(
        "{:<8} {:>4} {:>12} {:>12}",
        "circuit", "seg", "dense (ms)", "sparse (ms)"
    );
    let rows = kernel_throughput(&names, reps);
    for row in &rows {
        println!(
            "{:<8} {:>4} {:>12.3} {:>12.3}",
            row.circuit,
            row.segments,
            row.dense_scalar_s * 1e3,
            row.sparse_scalar_s * 1e3
        );
    }

    let json = kernel_throughput_json(&rows, reps);
    let path = "BENCH_kernels.json";
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("cannot write `{path}`: {e}");
        std::process::exit(1);
    }
    println!("\nwrote {path}");
}
