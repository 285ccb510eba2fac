//! Segmentation-strategy comparison: compiles each benchmark under the
//! default topological cover and the balanced-cut segmentation search,
//! and writes `BENCH_order.json` with the resulting model sizes.
//!
//! ```text
//! cargo run -p swact-bench --release --bin order_report [budget]
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use swact::{CompiledEstimator, Options, SegmentationStrategy};
use swact_circuit::catalog;

struct Row {
    circuit: &'static str,
    strategy: &'static str,
    segments: usize,
    total_states: f64,
    max_clique_states: f64,
    nnz: usize,
    kernel_cost: usize,
    zero_fraction: f64,
    compile_ms: f64,
}

fn measure(
    circuit: &'static str,
    strategy_name: &'static str,
    segmentation: SegmentationStrategy,
    budget: usize,
) -> Row {
    let c = catalog::benchmark(circuit).expect("known benchmark");
    let options = Options {
        segment_budget: budget,
        segmentation,
        ..Options::default()
    };
    let start = Instant::now();
    let model = CompiledEstimator::compile(&c, &options).expect("compile");
    let compile_ms = start.elapsed().as_secs_f64() * 1e3;
    Row {
        circuit,
        strategy: strategy_name,
        segments: model.num_segments(),
        total_states: model.total_states(),
        max_clique_states: model.max_clique_states(),
        nnz: model.nnz(),
        kernel_cost: model.kernel_cost(),
        zero_fraction: model.zero_fraction(),
        compile_ms,
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let budget: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(1 << 16);
    let circuits = ["c17", "c432", "alu2", "c880"];
    let strategies = [
        ("greedy", SegmentationStrategy::TopoCover),
        ("seg-search", SegmentationStrategy::BalancedCut),
    ];

    println!("segmentation strategies — segment budget {budget}");
    println!(
        "{:<8} {:<10} {:>4} {:>14} {:>12} {:>10} {:>10} {:>7} {:>9}",
        "circuit",
        "strategy",
        "seg",
        "total states",
        "max clique",
        "nnz",
        "kernel",
        "zero%",
        "compile"
    );
    let mut rows = Vec::new();
    for &circuit in &circuits {
        for &(name, segmentation) in &strategies {
            let row = measure(circuit, name, segmentation, budget);
            println!(
                "{:<8} {:<10} {:>4} {:>14.0} {:>12.0} {:>10} {:>10} {:>6.1}% {:>7.1}ms",
                row.circuit,
                row.strategy,
                row.segments,
                row.total_states,
                row.max_clique_states,
                row.nnz,
                row.kernel_cost,
                row.zero_fraction * 100.0,
                row.compile_ms
            );
            rows.push(row);
        }
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"benchmark\": \"order_report\",");
    let _ = writeln!(json, "  \"segment_budget\": {budget},");
    let _ = writeln!(json, "  \"rows\": [");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"circuit\": \"{}\", \"strategy\": \"{}\", \"segments\": {}, \
             \"total_states\": {:.1}, \"max_clique_states\": {:.1}, \"nnz\": {}, \
             \"kernel_cost\": {}, \"zero_fraction\": {:.6}, \"compile_ms\": {:.3}}}{comma}",
            row.circuit,
            row.strategy,
            row.segments,
            row.total_states,
            row.max_clique_states,
            row.nnz,
            row.kernel_cost,
            row.zero_fraction,
            row.compile_ms
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");

    let path = "BENCH_order.json";
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("cannot write `{path}`: {e}");
        std::process::exit(1);
    }
    println!("\nwrote {path}");
}
