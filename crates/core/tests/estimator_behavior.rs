//! Behavioral tests of the estimator facade, moved out of the old
//! monolithic `estimator.rs` when it became a thin wrapper over
//! `pipeline/` — everything here runs against the public API.

use swact::{
    estimate, CompiledEstimator, EstimateError, InputModel, InputSpec, Options, Transition,
};
use swact_circuit::{catalog, Circuit, CircuitBuilder, GateKind};

/// Brute-force exact switching by enumerating all (prev, next) input
/// pairs weighted by the spec.
fn exhaustive_switching(circuit: &Circuit, spec: &InputSpec) -> Vec<f64> {
    let n = circuit.num_inputs();
    assert!(
        2 * n <= 20,
        "exhaustive reference limited to small circuits"
    );
    let order = circuit.topo_order();
    let eval = |assignment: &[bool]| -> Vec<bool> {
        let mut values = vec![false; circuit.num_lines()];
        for (i, &pi) in circuit.inputs().iter().enumerate() {
            values[pi.index()] = assignment[i];
        }
        for &line in &order {
            if let Some(g) = circuit.gate(line) {
                values[line.index()] = g.kind.eval(g.inputs.iter().map(|&l| values[l.index()]));
            }
        }
        values
    };
    let mut switching = vec![0.0; circuit.num_lines()];
    for prev_case in 0..1usize << n {
        let prev: Vec<bool> = (0..n).map(|i| prev_case >> i & 1 == 1).collect();
        let prev_vals = eval(&prev);
        for next_case in 0..1usize << n {
            let next: Vec<bool> = (0..n).map(|i| next_case >> i & 1 == 1).collect();
            let mut weight = 1.0;
            for i in 0..n {
                let t = Transition::from_values(prev[i], next[i]);
                weight *= spec.model(i).to_distribution().p(t);
            }
            if weight == 0.0 {
                continue;
            }
            let next_vals = eval(&next);
            for line in circuit.line_ids() {
                if prev_vals[line.index()] != next_vals[line.index()] {
                    switching[line.index()] += weight;
                }
            }
        }
    }
    switching
}

#[test]
fn single_bn_estimate_is_exact_on_c17() {
    let c17 = catalog::c17();
    let spec = InputSpec::uniform(5);
    let est = estimate(&c17, &spec, &Options::single_bn()).unwrap();
    assert_eq!(est.num_segments(), 1);
    let exact = exhaustive_switching(&c17, &spec);
    for line in c17.line_ids() {
        assert!(
            (est.switching(line) - exact[line.index()]).abs() < 1e-9,
            "line {}: {} vs {}",
            c17.line_name(line),
            est.switching(line),
            exact[line.index()]
        );
    }
}

#[test]
fn exact_under_biased_and_correlated_inputs() {
    let c17 = catalog::c17();
    let spec = InputSpec::from_models(vec![
        InputModel::new(0.3, 0.2).unwrap(),
        InputModel::independent(0.9),
        InputModel::new(0.5, 0.1).unwrap(),
        InputModel::independent(0.2),
        InputModel::new(0.7, 0.3).unwrap(),
    ]);
    let est = estimate(&c17, &spec, &Options::single_bn()).unwrap();
    let exact = exhaustive_switching(&c17, &spec);
    for line in c17.line_ids() {
        assert!(
            (est.switching(line) - exact[line.index()]).abs() < 1e-9,
            "line {}",
            c17.line_name(line)
        );
    }
}

#[test]
fn exact_on_paper_example() {
    let circuit = catalog::paper_example();
    let spec = InputSpec::independent([0.4, 0.6, 0.5, 0.3]);
    let est = estimate(&circuit, &spec, &Options::single_bn()).unwrap();
    let exact = exhaustive_switching(&circuit, &spec);
    for line in circuit.line_ids() {
        assert!((est.switching(line) - exact[line.index()]).abs() < 1e-9);
    }
}

#[test]
fn reconvergent_fanout_handled_exactly() {
    // The regime where independence assumptions fail: shared inputs.
    let c = swact_circuit::benchgen::reconvergent("rc", 4, 3, 11);
    let spec = InputSpec::uniform(4);
    let est = estimate(&c, &spec, &Options::single_bn()).unwrap();
    let exact = exhaustive_switching(&c, &spec);
    for line in c.line_ids() {
        assert!(
            (est.switching(line) - exact[line.index()]).abs() < 1e-9,
            "line {}",
            c.line_name(line)
        );
    }
}

#[test]
fn segmentation_error_is_small() {
    // Force many segments on a circuit small enough for the exhaustive
    // reference, and check the boundary-induced error stays tiny.
    let c = swact_circuit::benchgen::generate(&swact_circuit::benchgen::GeneratorConfig {
        inputs: 8,
        outputs: 3,
        gates: 40,
        ..swact_circuit::benchgen::GeneratorConfig::default_for("segtest")
    });
    let spec = InputSpec::uniform(8);
    let exact = exhaustive_switching(&c, &spec);
    let run = |budget: usize| {
        let est = estimate(
            &c,
            &spec,
            &Options {
                segment_budget: budget,
                ..Options::default()
            },
        )
        .unwrap();
        let stats = est.compare(&exact);
        (est.num_segments(), stats)
    };
    let (segments_small, stats_small) = run(1 << 9);
    assert!(segments_small > 1, "budget must force splitting");
    // Boundary-marginal forwarding keeps node errors modest even with
    // absurdly tiny segments, and the circuit-average stays tight
    // (the paper's σ ~ 1e-3 regime corresponds to far larger budgets).
    assert!(
        stats_small.mean_abs_error < 0.05,
        "mean segmentation error {}",
        stats_small.mean_abs_error
    );
    assert!(
        stats_small.max_abs_error < 0.25,
        "worst segmentation error {}",
        stats_small.max_abs_error
    );
    // A larger budget gives fewer segments and no worse average error.
    let (segments_large, stats_large) = run(1 << 18);
    assert!(segments_large < segments_small);
    assert!(stats_large.mean_abs_error <= stats_small.mean_abs_error + 1e-3);
}

#[test]
fn compiled_estimator_repropagates_consistently() {
    let c17 = catalog::c17();
    let compiled = CompiledEstimator::compile(&c17, &Options::default()).unwrap();
    let spec_a = InputSpec::uniform(5);
    let spec_b = InputSpec::independent([0.8, 0.2, 0.5, 0.9, 0.1]);
    let first = compiled.estimate(&spec_a).unwrap();
    let _second = compiled.estimate(&spec_b).unwrap();
    let third = compiled.estimate(&spec_a).unwrap();
    for line in c17.line_ids() {
        assert!(
            (first.switching(line) - third.switching(line)).abs() < 1e-12,
            "re-propagation must be idempotent"
        );
    }
}

#[test]
fn single_bn_too_large_is_reported() {
    let c = catalog::benchmark("c880").unwrap();
    let result = estimate(
        &c,
        &InputSpec::uniform(c.num_inputs()),
        &Options {
            single_bn: true,
            // Even a tree-shaped 383-gate circuit needs far more than
            // 2⁸ junction-tree states.
            segment_budget: 1 << 8,
            ..Options::default()
        },
    );
    assert!(matches!(result, Err(EstimateError::TooLarge { .. })));
}

/// Single-BN admission compares the whole compiled tree against the
/// budget, so `TooLarge` names the tree's exact state total, one state
/// over the budget being enough to refuse it.
#[test]
fn single_bn_too_large_reports_the_exact_total() {
    for name in ["c17", "count"] {
        let c = catalog::benchmark(name).unwrap();
        let single_bn = |segment_budget| Options {
            single_bn: true,
            segment_budget,
            ..Options::default()
        };
        let total = CompiledEstimator::compile(&c, &single_bn(usize::MAX))
            .unwrap()
            .total_states();
        let budget = total as usize - 1;
        match CompiledEstimator::compile(&c, &single_bn(budget)) {
            Err(EstimateError::TooLarge { states, budget: b }) => {
                assert_eq!(states.to_bits(), total.to_bits(), "{name}");
                assert_eq!(b, budget as f64, "{name}");
            }
            other => panic!("{name}: expected TooLarge, got {:?}", other.err()),
        }
        assert!(CompiledEstimator::compile(&c, &single_bn(total as usize)).is_ok());
    }
}

#[test]
fn spec_size_checked() {
    let c17 = catalog::c17();
    assert!(matches!(
        estimate(&c17, &InputSpec::uniform(4), &Options::default()),
        Err(EstimateError::InputCountMismatch { .. })
    ));
}

#[test]
fn frozen_inputs_produce_zero_switching() {
    let c17 = catalog::c17();
    let spec = InputSpec::from_models(vec![InputModel::new(0.5, 0.0).unwrap(); 5]);
    let est = estimate(&c17, &spec, &Options::default()).unwrap();
    for line in c17.line_ids() {
        assert!(est.switching(line).abs() < 1e-12);
    }
}

#[test]
fn wide_gate_circuit_estimates_match_exhaustive() {
    let mut b = CircuitBuilder::new("wide");
    for n in ["a", "b", "c", "d", "e"] {
        b.input(n).unwrap();
    }
    b.gate("y", GateKind::Nor, &["a", "b", "c", "d", "e"])
        .unwrap();
    b.gate("z", GateKind::Xor, &["y", "a"]).unwrap();
    b.output("z").unwrap();
    let c = b.finish().unwrap();
    let spec = InputSpec::independent([0.2, 0.4, 0.6, 0.8, 0.5]);
    let est = estimate(
        &c,
        &spec,
        &Options {
            max_fanin: 2,
            ..Options::single_bn()
        },
    )
    .unwrap();
    let exact = exhaustive_switching(&c, &spec);
    for line in c.line_ids() {
        assert!(
            (est.switching(line) - exact[line.index()]).abs() < 1e-9,
            "line {} (through decomposition)",
            c.line_name(line)
        );
    }
}

#[test]
fn stationarity_of_internal_lines() {
    // Stationary inputs make every internal line stationary too.
    let c = catalog::paper_example();
    let spec = InputSpec::from_models(vec![
        InputModel::new(0.3, 0.1).unwrap(),
        InputModel::new(0.7, 0.2).unwrap(),
        InputModel::independent(0.5),
        InputModel::new(0.4, 0.3).unwrap(),
    ]);
    let est = estimate(&c, &spec, &Options::single_bn()).unwrap();
    for line in c.line_ids() {
        assert!(
            est.distribution(line).is_stationary(1e-9),
            "line {} not stationary",
            c.line_name(line)
        );
    }
}

#[test]
fn stage_timings_cover_all_stages() {
    let c = catalog::benchmark("c432").unwrap();
    let compiled = CompiledEstimator::compile(&c, &Options::default()).unwrap();
    let est = compiled
        .estimate(&InputSpec::uniform(c.num_inputs()))
        .unwrap();
    let stages = est.stage_timings();
    // Compile-side stages come from compilation, propagate from this pass.
    assert!(stages.model > std::time::Duration::ZERO);
    assert!(stages.compile > std::time::Duration::ZERO);
    assert!(stages.propagate > std::time::Duration::ZERO);
    assert_eq!(est.segment_timings().len(), est.num_segments());
    assert!(est
        .segment_timings()
        .iter()
        .all(|t| t.compile > std::time::Duration::ZERO));
    // The propagate split: every junction-tree segment calibrates, and the
    // three parts fit inside the segment's propagate time.
    for t in est.segment_timings() {
        assert!(t.calibrate > std::time::Duration::ZERO);
        assert!(t.calibrate + t.readout + t.export <= t.propagate);
    }
    // The compiled estimator exposes the compile-side breakdown directly.
    assert_eq!(
        compiled.stage_timings().propagate,
        std::time::Duration::ZERO
    );
    assert!(compiled.stage_timings().compile_side() <= compiled.compile_time());
}
