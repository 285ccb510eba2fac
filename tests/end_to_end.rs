//! End-to-end accuracy: the Bayesian-network estimator against
//! logic-simulation ground truth across benchmark classes, reproducing the
//! quality bar of the paper's Table 1.

use swact::{estimate, CompiledEstimator, InputModel, InputSpec, Options, PowerModel};
use swact_circuit::catalog;
use swact_sim::{measure_activity, SignalModel, StreamModel};

fn uniform_truth(circuit: &swact_circuit::Circuit, pairs: usize) -> Vec<f64> {
    let model = StreamModel::uniform(circuit.num_inputs());
    measure_activity(circuit, &model, pairs, 0x7e57).switching
}

#[test]
fn single_bn_circuits_are_simulation_exact() {
    // c17 and pcler8 fit one Bayesian network, so the only deviation from
    // simulation is the simulation's own sampling noise.
    for name in ["c17", "pcler8"] {
        let circuit = catalog::benchmark(name).unwrap();
        let spec = InputSpec::uniform(circuit.num_inputs());
        let est = estimate(&circuit, &spec, &Options::default()).unwrap();
        assert_eq!(est.num_segments(), 1, "{name}");
        let truth = uniform_truth(&circuit, 1 << 19);
        let stats = est.compare(&truth);
        assert!(
            stats.mean_abs_error < 0.004,
            "{name}: µErr {}",
            stats.mean_abs_error
        );
    }
}

#[test]
fn segmented_circuits_stay_in_the_papers_error_band() {
    // Larger circuits use multiple BNs; errors stay in the 1e-3 band and
    // %Error of the average activity below 1% (Table 1's headline).
    for name in ["c432", "c880", "count", "b9"] {
        let circuit = catalog::benchmark(name).unwrap();
        let spec = InputSpec::uniform(circuit.num_inputs());
        let est = estimate(&circuit, &spec, &Options::default()).unwrap();
        let truth = uniform_truth(&circuit, 1 << 19);
        let stats = est.compare(&truth);
        assert!(
            stats.mean_abs_error < 0.01,
            "{name}: µErr {}",
            stats.mean_abs_error
        );
        assert!(
            stats.percent_error < 1.0,
            "{name}: %Err {}",
            stats.percent_error
        );
    }
}

/// Accuracy gate: Table 1 µErr and %Err at default options against the
/// seeded simulation of `uniform_truth`, pinned per circuit. Estimates
/// and simulation are both deterministic, so a value moves only when the
/// estimator does. A change may lower a value; raising one past
/// `TOLERANCE` times its pin fails, so a 2× accuracy regression on any
/// circuit cannot pass unnoticed. The bounds of the two tests above are
/// the paper's error band; this gate is the code's own.
#[test]
fn accuracy_gate() {
    const TOLERANCE: f64 = 1.25;
    // (circuit, µErr, %Err) measured at default options.
    const PINS: [(&str, f64, f64); 5] = [
        ("c17", 0.000_573_6, 0.075_29),
        ("pcler8", 0.000_471_9, 0.015_25),
        ("c432", 0.001_230, 0.052_02),
        ("c880", 0.000_677_5, 0.047_63),
        ("alu2", 0.004_590, 0.159_4),
    ];
    let mut failures = Vec::new();
    for (name, mean_pin, percent_pin) in PINS {
        let circuit = catalog::benchmark(name).unwrap();
        let spec = InputSpec::uniform(circuit.num_inputs());
        let est = estimate(&circuit, &spec, &Options::default()).unwrap();
        let stats = est.compare(&uniform_truth(&circuit, 1 << 19));
        if stats.mean_abs_error > TOLERANCE * mean_pin
            || stats.percent_error > TOLERANCE * percent_pin
        {
            failures.push(format!(
                "{name}: µErr {:.7} (pin {mean_pin}), %Err {:.5} (pin {percent_pin})",
                stats.mean_abs_error, stats.percent_error
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "accuracy above {TOLERANCE}x the pins:\n{}",
        failures.join("\n")
    );
}

#[test]
fn temporally_correlated_inputs_are_tracked() {
    // The four-state formulation models input temporal correlation; verify
    // against a simulation driven by the same Markov models.
    let circuit = catalog::benchmark("count").unwrap();
    let n = circuit.num_inputs();
    let activity = 0.12;
    let spec = InputSpec::from_models(vec![InputModel::new(0.5, activity).unwrap(); n]);
    let est = estimate(&circuit, &spec, &Options::default()).unwrap();
    let model = StreamModel {
        signals: vec![SignalModel::new(0.5, activity); n],
        groups: Vec::new(),
    };
    let truth = measure_activity(&circuit, &model, 1 << 19, 0xabcd).switching;
    let stats = est.compare(&truth);
    assert!(
        stats.mean_abs_error < 0.01,
        "µErr {} under temporal correlation",
        stats.mean_abs_error
    );
}

#[test]
fn precompiled_reestimation_matches_fresh_estimation() {
    let circuit = catalog::benchmark("malu4").unwrap();
    let compiled = CompiledEstimator::compile(&circuit, &Options::default()).unwrap();
    for p in [0.2, 0.5, 0.8] {
        let spec = InputSpec::independent(vec![p; circuit.num_inputs()]);
        let reused = compiled.estimate(&spec).unwrap();
        let fresh = estimate(&circuit, &spec, &Options::default()).unwrap();
        for line in circuit.line_ids() {
            assert!(
                (reused.switching(line) - fresh.switching(line)).abs() < 1e-12,
                "line {} at p={p}",
                circuit.line_name(line)
            );
        }
        // Re-propagation must be far cheaper than compilation.
        assert!(reused.propagate_time() < compiled.compile_time() * 10);
    }
}

#[test]
fn power_tracks_activity_scenarios() {
    let circuit = catalog::benchmark("pcler8").unwrap();
    let model = PowerModel::default();
    let compiled = CompiledEstimator::compile(&circuit, &Options::default()).unwrap();
    let mut previous = f64::INFINITY;
    for activity in [0.5, 0.25, 0.1, 0.02] {
        let spec = InputSpec::from_models(vec![
            InputModel::new(0.5, activity).unwrap();
            circuit.num_inputs()
        ]);
        let est = compiled.estimate(&spec).unwrap();
        let watts = model.power(&circuit, &est).total_watts;
        assert!(watts < previous, "power must fall with input activity");
        previous = watts;
    }
}

#[test]
fn bench_format_file_can_round_trip_through_estimator() {
    // Export a benchmark, re-parse it, and get identical estimates —
    // users will feed their own .bench files through this path.
    let original = catalog::benchmark("comp").unwrap();
    let text = swact_circuit::write::to_bench(&original);
    let reparsed = swact_circuit::parse::parse_bench("comp", &text).unwrap();
    let spec = InputSpec::uniform(original.num_inputs());
    let a = estimate(&original, &spec, &Options::default()).unwrap();
    let b = estimate(&reparsed, &spec, &Options::default()).unwrap();
    for line in original.line_ids() {
        let name = original.line_name(line);
        let other = reparsed.find_line(name).unwrap();
        assert!(
            (a.switching(line) - b.switching(other)).abs() < 1e-12,
            "line {name}"
        );
    }
}

#[test]
fn batch_engine_is_deterministic_across_worker_counts() {
    // The engine's headline guarantee: a segmented circuit, many input
    // scenarios, and any worker count produce bit-identical estimates in
    // submission order.
    let circuit = catalog::benchmark("c432").unwrap();
    let specs: Vec<InputSpec> = (0..10)
        .map(|k| {
            InputSpec::independent(
                (0..circuit.num_inputs()).map(move |i| 0.1 + 0.08 * ((i + k) % 10) as f64),
            )
        })
        .collect();
    let options = Options::default();

    let serial = swact_engine::Engine::with_jobs(1)
        .estimate_batch(&circuit, &specs, &options)
        .unwrap();
    let parallel = swact_engine::Engine::with_jobs(4)
        .estimate_batch(&circuit, &specs, &options)
        .unwrap();
    assert!(serial.all_ok() && parallel.all_ok());

    for (a, b) in serial.items.iter().zip(&parallel.items) {
        assert_eq!(a.index, b.index);
        let (a, b) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
        for (x, y) in a.switching_all().iter().zip(b.switching_all().iter()) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "scenario outputs must be bit-identical"
            );
        }
    }
}

#[test]
fn batch_engine_reuses_one_compiled_model_across_batches() {
    // Re-propagating over a cached junction tree must equal a fresh
    // compile — the scratch-state reuse inside the compiled model cannot
    // leak evidence between requests.
    let circuit = catalog::benchmark("c880").unwrap();
    let options = Options::default();
    let busy = InputSpec::independent(vec![0.5; circuit.num_inputs()]);
    let quiet = InputSpec::independent(vec![0.05; circuit.num_inputs()]);
    let engine = swact_engine::Engine::with_jobs(2);

    let first = engine
        .estimate_batch(&circuit, std::slice::from_ref(&busy), &options)
        .unwrap();
    assert!(!first.cache_hit);
    // Different evidence in between dirties every pooled propagation state.
    engine
        .estimate_batch(&circuit, std::slice::from_ref(&quiet), &options)
        .unwrap();
    let second = engine
        .estimate_batch(&circuit, std::slice::from_ref(&busy), &options)
        .unwrap();
    assert!(second.cache_hit, "same circuit+options must hit the cache");
    assert_eq!(engine.metrics().compile_misses, 1);
    assert!(engine.metrics().compile_hits >= 2);

    let fresh = CompiledEstimator::compile(&circuit, &options)
        .unwrap()
        .estimate(&busy)
        .unwrap();
    let cached = second.items[0].result.as_ref().unwrap();
    for (x, y) in cached
        .switching_all()
        .iter()
        .zip(fresh.switching_all().iter())
    {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "cached tree must match fresh compile"
        );
    }
}
