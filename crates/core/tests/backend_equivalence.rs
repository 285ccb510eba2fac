//! Cross-backend behaviour: the two-state backend drops temporal
//! correlation by construction and must *disagree* with the exact
//! junction tree under temporally correlated inputs — that divergence is
//! the paper's argument for four-state transition variables. (The exact
//! oracle for the junction tree, the global-BDD baseline, lives in the
//! workspace's `tests/estimator_ranking.rs`: this crate cannot depend on
//! the baselines.)

use swact::{estimate, Backend, InputModel, InputSpec, Options};
use swact_circuit::catalog;

fn options_for(backend: Backend) -> Options {
    Options {
        backend,
        ..Options::single_bn()
    }
}

fn correlated_spec(n: usize) -> InputSpec {
    InputSpec::from_models(vec![InputModel::new(0.5, 0.1).unwrap(); n])
}

#[test]
fn twostate_diverges_under_temporal_correlation() {
    // Inputs hold their value 90% of the time (switching activity 0.1).
    // The two-state proxy sees only p1 = 0.5 and predicts 2p(1−p) = 0.5
    // switching everywhere, so it must overshoot the exact answer badly.
    let c17 = catalog::c17();
    let spec = correlated_spec(5);
    let exact = estimate(&c17, &spec, &options_for(Backend::Jtree)).unwrap();
    let two = estimate(&c17, &spec, &options_for(Backend::TwoState)).unwrap();
    let max_diff = c17
        .outputs()
        .iter()
        .map(|&o| (exact.switching(o) - two.switching(o)).abs())
        .fold(0.0f64, f64::max);
    assert!(
        max_diff > 0.05,
        "two-state should diverge under temporal correlation, max diff {max_diff}"
    );
}

#[test]
fn twostate_matches_signal_probabilities_without_temporal_correlation() {
    // With temporally independent inputs on a fanout-free (tree) circuit,
    // the two-state product model and the exact model coincide.
    let c = {
        let mut b = swact_circuit::CircuitBuilder::new("tree");
        for n in ["a", "b", "c", "d"] {
            b.input(n).unwrap();
        }
        b.gate("x", swact_circuit::GateKind::And, &["a", "b"])
            .unwrap();
        b.gate("y", swact_circuit::GateKind::Or, &["c", "d"])
            .unwrap();
        b.gate("z", swact_circuit::GateKind::Nand, &["x", "y"])
            .unwrap();
        b.output("z").unwrap();
        b.finish().unwrap()
    };
    let spec = InputSpec::independent([0.3, 0.8, 0.5, 0.6]);
    let exact = estimate(&c, &spec, &options_for(Backend::Jtree)).unwrap();
    let two = estimate(&c, &spec, &options_for(Backend::TwoState)).unwrap();
    for line in c.line_ids() {
        assert!(
            (exact.switching(line) - two.switching(line)).abs() < 1e-9,
            "line {}: exact {} vs twostate {}",
            c.line_name(line),
            exact.switching(line),
            two.switching(line)
        );
    }
}
