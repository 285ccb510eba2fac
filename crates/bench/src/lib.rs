//! Experiment harness regenerating every table and figure of Bhanja &
//! Ranganathan (DAC 2001).
//!
//! The binaries in `src/bin` print the paper's artifacts:
//!
//! * `table1` — Table 1: per-circuit switching-accuracy and timing of the
//!   Bayesian-network estimator against logic-simulation ground truth;
//! * `table2` — Table 2: accuracy/time comparison against the prior-art
//!   estimators in `swact-baselines`;
//! * `figures` — Figures 1–4: the running example circuit, its LIDAG-BN,
//!   the triangulated moral graph, and the junction tree, as Graphviz DOT;
//! * `ablation` — the design-choice studies indexed in DESIGN.md
//!   (segmentation budget, boundary correlation, triangulation heuristic,
//!   two- vs four-state variables, input-correlation sensitivity);
//! * `anytime_report` — sampling-backend error and wall clock against the
//!   sample budget, written to `BENCH_anytime.json`.
//!
//! The Criterion benches in `benches/` measure the compile/propagate split
//! (paper §6's "circuits can be precompiled; only propagation has to be
//! done for different input statistics") and the core kernels.

use std::fmt::Write as _;
use std::time::Instant;

use swact::{CompiledEstimator, ErrorStats, InputSpec, Options};
use swact_baselines::SwitchingEstimator;
use swact_circuit::{catalog, Circuit};
use swact_sim::{measure_activity, StreamModel};

/// Default number of simulated vector pairs for ground truth.
pub const DEFAULT_PAIRS: usize = 1 << 20;

/// Ground-truth seed shared by all experiments (reported results are
/// deterministic).
pub const GROUND_TRUTH_SEED: u64 = 0x5eed_2001;

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Benchmark name.
    pub circuit: String,
    /// Gates in the (original) circuit.
    pub gates: usize,
    /// Segments (Bayesian networks) used.
    pub segments: usize,
    /// Mean absolute per-node error vs simulation (µErr).
    pub mean_err: f64,
    /// Standard deviation of the per-node error (σErr).
    pub std_err: f64,
    /// Percent error of the circuit-average activity (%Error).
    pub pct_err: f64,
    /// Compile + propagate wall clock, seconds ("Total").
    pub total_s: f64,
    /// Propagate-only wall clock, seconds ("Update").
    pub update_s: f64,
}

/// Runs the Table 1 experiment for one circuit.
///
/// # Panics
///
/// Panics if `name` is not a known benchmark.
pub fn table1_row(name: &str, pairs: usize, options: &Options) -> Table1Row {
    let circuit = catalog::benchmark(name).expect("known benchmark");
    let spec = InputSpec::uniform(circuit.num_inputs());
    let compiled =
        CompiledEstimator::compile(&circuit, options).expect("benchmark circuits compile");
    let estimate = compiled.estimate(&spec).expect("uniform spec matches");
    let truth = ground_truth(&circuit, pairs);
    let stats = estimate.compare(&truth);
    Table1Row {
        circuit: name.to_string(),
        gates: circuit.num_gates(),
        segments: estimate.num_segments(),
        mean_err: stats.mean_abs_error,
        std_err: stats.std_error,
        pct_err: stats.percent_error,
        total_s: estimate.total_time().as_secs_f64(),
        update_s: estimate.propagate_time().as_secs_f64(),
    }
}

/// Runs Table 1 for every benchmark in the paper's row order.
pub fn table1(pairs: usize, options: &Options) -> Vec<Table1Row> {
    catalog::BENCHMARKS
        .iter()
        .map(|info| table1_row(info.name, pairs, options))
        .collect()
}

/// Formats Table 1 rows as an aligned text table.
pub fn format_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:>6} {:>5} {:>9} {:>9} {:>8} {:>10} {:>10}\n",
        "Circuit", "Gates", "BNs", "µErr", "σErr", "%Error", "Total(s)", "Update(s)"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:>6} {:>5} {:>9.4} {:>9.4} {:>7.3}% {:>10.4} {:>10.4}\n",
            r.circuit, r.gates, r.segments, r.mean_err, r.std_err, r.pct_err, r.total_s, r.update_s
        ));
    }
    let n = rows.len() as f64;
    out.push_str(&format!(
        "{:<10} {:>6} {:>5} {:>9.4} {:>9.4} {:>7.3}% {:>10.4} {:>10.4}\n",
        "average",
        "",
        "",
        rows.iter().map(|r| r.mean_err).sum::<f64>() / n,
        rows.iter().map(|r| r.std_err).sum::<f64>() / n,
        rows.iter().map(|r| r.pct_err).sum::<f64>() / n,
        rows.iter().map(|r| r.total_s).sum::<f64>() / n,
        rows.iter().map(|r| r.update_s).sum::<f64>() / n,
    ));
    out
}

/// One method's result on one circuit in Table 2.
#[derive(Debug, Clone)]
pub struct Table2Cell {
    /// Estimator name.
    pub method: String,
    /// Mean absolute per-node error (µErr).
    pub mean_err: f64,
    /// Standard deviation of the per-node error (σErr).
    pub std_err: f64,
    /// Wall-clock estimation time, seconds.
    pub time_s: f64,
}

/// One row (circuit) of Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Benchmark name.
    pub circuit: String,
    /// Cells per method, in the order the methods were supplied.
    pub cells: Vec<Table2Cell>,
}

/// Runs the Table 2 comparison on one circuit: the Bayesian network plus
/// every supplied baseline, all against the same simulated ground truth.
///
/// # Panics
///
/// Panics if `name` is not a known benchmark.
pub fn table2_row(
    name: &str,
    pairs: usize,
    options: &Options,
    baselines: &[&dyn SwitchingEstimator],
) -> Table2Row {
    let circuit = catalog::benchmark(name).expect("known benchmark");
    let spec = InputSpec::uniform(circuit.num_inputs());
    let truth = ground_truth(&circuit, pairs);

    let mut cells = Vec::new();
    let start = Instant::now();
    let estimate = swact::estimate(&circuit, &spec, options).expect("benchmark circuits compile");
    let bn_time = start.elapsed().as_secs_f64();
    let stats = estimate.compare(&truth);
    cells.push(Table2Cell {
        method: "bayesian-network".to_string(),
        mean_err: stats.mean_abs_error,
        std_err: stats.std_error,
        time_s: bn_time,
    });
    for baseline in baselines {
        let start = Instant::now();
        match baseline.estimate(&circuit, &spec) {
            Ok(switching) => {
                let time_s = start.elapsed().as_secs_f64();
                let stats = ErrorStats::between(&switching, &truth);
                cells.push(Table2Cell {
                    method: baseline.name().to_string(),
                    mean_err: stats.mean_abs_error,
                    std_err: stats.std_error,
                    time_s,
                });
            }
            Err(_) => cells.push(Table2Cell {
                method: baseline.name().to_string(),
                mean_err: f64::NAN,
                std_err: f64::NAN,
                time_s: f64::NAN,
            }),
        }
    }
    Table2Row {
        circuit: name.to_string(),
        cells,
    }
}

/// Formats Table 2 rows as an aligned text table.
pub fn format_table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    if let Some(first) = rows.first() {
        out.push_str(&format!("{:<10}", "Circuit"));
        for cell in &first.cells {
            out.push_str(&format!(" | {:^28}", cell.method));
        }
        out.push('\n');
        out.push_str(&format!("{:<10}", ""));
        for _ in &first.cells {
            out.push_str(&format!(" | {:>8} {:>8} {:>9}", "µErr", "σErr", "time(s)"));
        }
        out.push('\n');
    }
    for row in rows {
        out.push_str(&format!("{:<10}", row.circuit));
        for cell in &row.cells {
            if cell.mean_err.is_nan() {
                out.push_str(&format!(" | {:>8} {:>8} {:>9}", "-", "-", "-"));
            } else {
                out.push_str(&format!(
                    " | {:>8.4} {:>8.4} {:>9.4}",
                    cell.mean_err, cell.std_err, cell.time_s
                ));
            }
        }
        out.push('\n');
    }
    out
}

/// Simulated ground-truth switching for a circuit under uniform inputs.
pub fn ground_truth(circuit: &Circuit, pairs: usize) -> Vec<f64> {
    let model = StreamModel::uniform(circuit.num_inputs());
    measure_activity(circuit, &model, pairs, GROUND_TRUTH_SEED).switching
}

/// Resolves a benchmark name against the built-in catalog; unknown names
/// get an error message listing every valid name, ready to print as-is.
pub fn lookup_benchmark(name: &str) -> Result<Circuit, String> {
    catalog::benchmark(name).ok_or_else(|| {
        let mut msg = format!("unknown benchmark `{name}`; valid names are:");
        for info in catalog::BENCHMARKS {
            let _ = write!(msg, "\n  {}", info.name);
        }
        msg
    })
}

/// Batch scenario specs: per-input p1 varies with both input position and
/// scenario index so every scenario re-propagates distinct evidence.
pub fn batch_specs(circuit: &Circuit, scenarios: usize) -> Vec<InputSpec> {
    (0..scenarios)
        .map(|k| {
            InputSpec::independent(
                (0..circuit.num_inputs()).map(move |i| 0.1 + 0.08 * ((i + 3 * k) % 10) as f64),
            )
        })
        .collect()
}

/// One circuit's sparse-vs-dense propagation measurement.
#[derive(Debug, Clone)]
pub struct SparseThroughputRow {
    /// Benchmark name.
    pub circuit: String,
    /// Nonzero clique-potential entries (identical for both modes).
    pub nnz: usize,
    /// Fraction of clique-potential entries that are structural zeros.
    pub zero_fraction: f64,
    /// Cliques stored zero-compressed under `SparseMode::Auto`.
    pub compressed_cliques: usize,
    /// Propagate-only wall clock under `SparseMode::Off`, seconds.
    pub dense_s: f64,
    /// Propagate-only wall clock under `SparseMode::Auto`, seconds.
    pub sparse_s: f64,
    /// `dense_s / sparse_s`.
    pub speedup: f64,
}

/// Times the precompiled propagate-only path dense vs sparse, `reps`
/// repetitions per mode per circuit (input statistics rotate so no
/// iteration can reuse a warm result). Compilation is untimed; both modes
/// propagate the same rotated specs, so the wall-clock difference isolates
/// the kernels.
///
/// # Panics
///
/// Panics if any name is unknown or a circuit fails to compile.
pub fn sparse_throughput(names: &[&str], reps: usize) -> Vec<SparseThroughputRow> {
    names
        .iter()
        .map(|&name| {
            let circuit = catalog::benchmark(name).expect("known benchmark");
            let specs = batch_specs(&circuit, 8);
            let time_mode = |sparse| {
                let options = Options {
                    sparse,
                    ..Options::default()
                };
                let compiled =
                    CompiledEstimator::compile(&circuit, &options).expect("benchmark compiles");
                // One untimed propagation warms allocator and caches.
                compiled.estimate(&specs[0]).expect("estimates");
                let start = Instant::now();
                for k in 0..reps {
                    compiled
                        .estimate(&specs[k % specs.len()])
                        .expect("estimates");
                }
                (start.elapsed().as_secs_f64(), compiled)
            };
            let (dense_s, _) = time_mode(swact::SparseMode::Off);
            let (sparse_s, compiled) = time_mode(swact::SparseMode::Auto);
            SparseThroughputRow {
                circuit: name.to_string(),
                nnz: compiled.nnz(),
                zero_fraction: compiled.zero_fraction(),
                compressed_cliques: compiled.compressed_cliques(),
                dense_s,
                sparse_s,
                speedup: if sparse_s > 0.0 {
                    dense_s / sparse_s
                } else {
                    1.0
                },
            }
        })
        .collect()
}

/// Renders sparse-vs-dense rows as a JSON document with host metadata
/// (hand-rolled: the workspace deliberately has no serde dependency).
pub fn sparse_throughput_json(rows: &[SparseThroughputRow], reps: usize) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"reps\": {reps},");
    let _ = writeln!(
        out,
        "  \"host_cpus\": {},",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    let _ = writeln!(out, "  \"host_os\": \"{}\",", std::env::consts::OS);
    let _ = writeln!(out, "  \"host_arch\": \"{}\",", std::env::consts::ARCH);
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"circuit\": \"{}\", \"nnz\": {}, \"zero_fraction\": {:.6}, \
             \"compressed_cliques\": {}, \"dense_s\": {:.6}, \"sparse_s\": {:.6}, \
             \"speedup\": {:.3}}}",
            row.circuit,
            row.nnz,
            row.zero_fraction,
            row.compressed_cliques,
            row.dense_s,
            row.sparse_s,
            row.speedup
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// One circuit's kernel-grid measurement: propagate-only wall clock of the
/// blocked fused kernels (dense and sparse) against the
/// per-entry two-pass projection tables — the previous kernel generation,
/// kept reachable as `CompiledTree::calibrate_two_pass`.
#[derive(Debug, Clone)]
pub struct KernelThroughputRow {
    /// Benchmark name.
    pub circuit: String,
    /// Segments (Bayesian networks) the circuit planned into.
    pub segments: usize,
    /// Total junction-tree cliques across all segments.
    pub cliques: usize,
    /// Per-entry two-pass baseline (dense, scalar), seconds.
    pub baseline_s: f64,
    /// Blocked kernels, `SparseMode::Off`, seconds.
    pub dense_scalar_s: f64,
    /// Blocked kernels, `SparseMode::Auto`, seconds.
    pub sparse_scalar_s: f64,
    /// `baseline_s` over the fastest grid cell.
    pub best_speedup: f64,
}

impl KernelThroughputRow {
    /// The fastest grid cell, seconds.
    pub fn best_s(&self) -> f64 {
        self.dense_scalar_s.min(self.sparse_scalar_s)
    }
}

/// Times calibration of each circuit's own segment junction trees —
/// exactly the trees the estimator pipeline compiles, rebuilt via
/// [`swact::pipeline::SegmentModel`] — across the kernel grid, `reps`
/// calibrations per cell. No estimator plumbing (root weighting, marginal
/// extraction, boundary forwarding) is inside the timed region, so the
/// wall-clock difference isolates the message-pass kernels.
///
/// Also asserts, per circuit, that the blocked kernels calibrate
/// bit-identically to the two-pass baseline — a wrong kernel can never
/// report a speedup.
///
/// # Panics
///
/// Panics if any name is unknown, a circuit fails to plan or compile, or
/// the kernel-equivalence checks fail.
pub fn kernel_throughput(names: &[&str], reps: usize) -> Vec<KernelThroughputRow> {
    use swact::pipeline::{PlannedCircuit, SegmentModel};
    use swact_bayesnet::{initial_potentials, CompiledTree, Factor, JunctionTree, SparseMode};

    names
        .iter()
        .map(|&name| {
            let circuit = catalog::benchmark(name).expect("known benchmark");
            let options = Options::default();
            let planned = PlannedCircuit::new(&circuit, &options).expect("circuit plans");
            // Compile each segment's junction tree once; every grid cell
            // rebuilds its CompiledTree from clones of the same tree and
            // potentials, so all cells propagate identical structures.
            let parts: Vec<(JunctionTree, Vec<Factor>)> = (0..planned.num_segments())
                .map(|i| {
                    let model = SegmentModel::build(&planned, i, 0).expect("segment model");
                    let tree = JunctionTree::compile_with(model.net(), options.heuristic)
                        .expect("segment compiles");
                    let potentials = initial_potentials(&tree, model.net());
                    (tree, potentials)
                })
                .collect();
            let build = |sparse: SparseMode| -> Vec<CompiledTree> {
                parts
                    .iter()
                    .map(|(tree, pots)| {
                        CompiledTree::from_parts_with(tree.clone(), pots.clone(), sparse)
                    })
                    .collect()
            };
            // States are created outside the timed region and recalibrated
            // in place: calibrate re-seeds from the initial potentials, so
            // warm reps do the full message pass with zero allocation.
            let time = |trees: &[CompiledTree], two_pass: bool| -> f64 {
                let mut states: Vec<_> = trees.iter().map(CompiledTree::new_state).collect();
                let pass = |states: &mut Vec<swact_bayesnet::PropagationState>| {
                    for (tree, state) in trees.iter().zip(states.iter_mut()) {
                        if two_pass {
                            tree.calibrate_two_pass(state);
                        } else {
                            tree.calibrate(state);
                        }
                    }
                };
                pass(&mut states); // untimed warm-up
                let start = Instant::now();
                for _ in 0..reps {
                    pass(&mut states);
                }
                start.elapsed().as_secs_f64()
            };

            let dense_scalar = build(SparseMode::Off);
            let sparse_scalar = build(SparseMode::Auto);

            // Equivalence gate before any timing is reported.
            for (k, (tree, _)) in parts.iter().enumerate() {
                let mut reference = dense_scalar[k].new_state();
                dense_scalar[k].calibrate_two_pass(&mut reference);
                let mut scalar = dense_scalar[k].new_state();
                dense_scalar[k].calibrate(&mut scalar);
                for clique in 0..tree.num_cliques() {
                    let expect = reference.clique_potential(clique).values();
                    let got = scalar.clique_potential(clique).values();
                    assert_eq!(expect.len(), got.len());
                    for (e, g) in expect.iter().zip(got) {
                        assert_eq!(
                            e.to_bits(),
                            g.to_bits(),
                            "{name}: blocked scalar kernels must be bit-identical \
                             to the two-pass baseline"
                        );
                    }
                }
            }

            let baseline_s = time(&dense_scalar, true);
            let dense_scalar_s = time(&dense_scalar, false);
            let sparse_scalar_s = time(&sparse_scalar, false);
            let row = KernelThroughputRow {
                circuit: name.to_string(),
                segments: parts.len(),
                cliques: parts.iter().map(|(tree, _)| tree.num_cliques()).sum(),
                baseline_s,
                dense_scalar_s,
                sparse_scalar_s,
                best_speedup: 0.0,
            };
            let best = row.best_s();
            KernelThroughputRow {
                best_speedup: if best > 0.0 { baseline_s / best } else { 1.0 },
                ..row
            }
        })
        .collect()
}

/// Renders kernel-grid rows as a JSON document with host metadata
/// (hand-rolled: the workspace deliberately has no serde dependency).
pub fn kernel_throughput_json(rows: &[KernelThroughputRow], reps: usize) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"reps\": {reps},");
    let _ = writeln!(
        out,
        "  \"host_cpus\": {},",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    let _ = writeln!(out, "  \"host_os\": \"{}\",", std::env::consts::OS);
    let _ = writeln!(out, "  \"host_arch\": \"{}\",", std::env::consts::ARCH);
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"circuit\": \"{}\", \"segments\": {}, \"cliques\": {}, \
             \"baseline_s\": {:.6}, \"dense_scalar_s\": {:.6}, \"sparse_scalar_s\": {:.6}, \
             \"best_speedup\": {:.3}}}",
            row.circuit,
            row.segments,
            row.cliques,
            row.baseline_s,
            row.dense_scalar_s,
            row.sparse_scalar_s,
            row.best_speedup
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use swact_baselines::Independence;

    #[test]
    fn table1_row_on_c17_is_exact() {
        let row = table1_row("c17", 1 << 16, &Options::default());
        assert_eq!(row.segments, 1);
        assert!(row.mean_err < 0.01, "µErr {}", row.mean_err);
        assert!(row.update_s < row.total_s);
    }

    #[test]
    fn table2_row_orders_methods() {
        let row = table2_row("c17", 1 << 16, &Options::default(), &[&Independence]);
        assert_eq!(row.cells.len(), 2);
        assert_eq!(row.cells[0].method, "bayesian-network");
        assert!(row.cells[0].mean_err <= row.cells[1].mean_err + 1e-9);
    }

    #[test]
    fn lookup_benchmark_lists_catalog_on_miss() {
        assert!(lookup_benchmark("c17").is_ok());
        let msg = lookup_benchmark("c9999").unwrap_err();
        assert!(msg.contains("unknown benchmark `c9999`"));
        for info in catalog::BENCHMARKS {
            assert!(
                msg.contains(info.name),
                "catalog entry {} missing",
                info.name
            );
        }
    }

    #[test]
    fn sparse_throughput_rows_and_json() {
        let rows = sparse_throughput(&["c17"], 2);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].nnz > 0);
        assert!(rows[0].zero_fraction > 0.0);
        // c17's single-gate cliques (≤75% zero) sit below the fused-kernel
        // break-even (80% zeros), so Auto keeps them all dense.
        assert_eq!(rows[0].compressed_cliques, 0);
        assert!(rows[0].dense_s > 0.0 && rows[0].sparse_s > 0.0);
        let json = sparse_throughput_json(&rows, 2);
        assert!(json.contains("\"circuit\": \"c17\""));
        assert!(json.contains("\"host_cpus\""));
        assert!(json.contains("\"zero_fraction\""));
    }

    #[test]
    fn kernel_throughput_rows_and_json() {
        // kernel_throughput itself asserts blocked ≡ two-pass bit-identity
        // before timing.
        let rows = kernel_throughput(&["c17"], 2);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.segments, 1);
        assert!(row.cliques > 0);
        assert!(row.baseline_s > 0.0);
        assert!(row.best_s() > 0.0);
        assert!(row.best_speedup > 0.0);
        let json = kernel_throughput_json(&rows, 2);
        assert!(json.contains("\"circuit\": \"c17\""));
        assert!(json.contains("\"baseline_s\""));
        assert!(json.contains("\"sparse_scalar_s\""));
        assert!(json.contains("\"best_speedup\""));
    }

    #[test]
    fn formatting_is_complete() {
        let rows = vec![table1_row("c17", 1 << 14, &Options::default())];
        let text = format_table1(&rows);
        assert!(text.contains("c17"));
        assert!(text.contains("average"));
        let rows = vec![table2_row(
            "c17",
            1 << 14,
            &Options::default(),
            &[&Independence],
        )];
        let text = format_table2(&rows);
        assert!(text.contains("independence"));
    }
}
