//! Incremental re-propagation must be invisible: an estimator that serves
//! memoized segment posteriors across an input-statistic sweep must
//! produce results *bit-identical*
//! (`f64::to_bits`) to a cold estimator that recomputes everything, for
//! every scenario in the sweep — including under zero-compressed (sparse)
//! kernels and on budget-degraded segments, where memoization is gated
//! off entirely.
//!
//! The warm estimators here are process-global (`OnceLock`), so memo
//! state accumulates across proptest cases — equivalence must hold no
//! matter what sequence of perturbations preceded the current one.

use std::sync::OnceLock;

use proptest::prelude::*;
use swact::{Budget, CompiledEstimator, InputSpec, Options, SparseMode};
use swact_circuit::{catalog, Circuit};

/// One circuit compiled twice: `cold` with `incremental: false` (the
/// reference), `warm` with reuse on. The warm side keeps its memos
/// alive across every scenario the tests feed it.
struct Harness {
    circuit: Circuit,
    cold: CompiledEstimator,
    warm: CompiledEstimator,
}

impl Harness {
    fn build(name: &str, options: Options) -> Harness {
        let circuit = catalog::benchmark(name).expect("known benchmark");
        let cold = CompiledEstimator::compile(
            &circuit,
            &Options {
                incremental: false,
                ..options
            },
        )
        .expect("cold compile");
        let warm = CompiledEstimator::compile(
            &circuit,
            &Options {
                incremental: true,
                ..options
            },
        )
        .expect("warm compile");
        Harness {
            circuit,
            cold,
            warm,
        }
    }

    /// Estimates `spec` in both modes and asserts every per-line posterior
    /// and the summary statistics bit-identical.
    fn assert_bit_identical(&self, spec: &InputSpec) {
        let cold = self.cold.estimate(spec).expect("cold estimate");
        let warm = self.warm.estimate(spec).expect("warm estimate");
        let cold_reuse = cold.reuse_stats();
        assert_eq!(
            cold_reuse.segments_skipped, 0,
            "a cold estimator must never reuse work"
        );
        for line in self.circuit.line_ids() {
            assert_eq!(
                cold.switching(line).to_bits(),
                warm.switching(line).to_bits(),
                "switching differs on {}",
                self.circuit.line_name(line)
            );
            assert_eq!(
                cold.signal_probability(line).to_bits(),
                warm.signal_probability(line).to_bits(),
                "P(1) differs on {}",
                self.circuit.line_name(line)
            );
        }
        assert_eq!(
            cold.mean_switching().to_bits(),
            warm.mean_switching().to_bits()
        );
    }
}

fn c17() -> &'static Harness {
    static H: OnceLock<Harness> = OnceLock::new();
    H.get_or_init(|| Harness::build("c17", Options::default()))
}

fn c432() -> &'static Harness {
    static H: OnceLock<Harness> = OnceLock::new();
    H.get_or_init(|| Harness::build("c432", Options::default()))
}

fn c17_sparse() -> &'static Harness {
    static H: OnceLock<Harness> = OnceLock::new();
    H.get_or_init(|| {
        Harness::build(
            "c17",
            Options {
                sparse: SparseMode::On,
                ..Options::default()
            },
        )
    })
}

fn c432_sparse() -> &'static Harness {
    static H: OnceLock<Harness> = OnceLock::new();
    H.get_or_init(|| {
        Harness::build(
            "c432",
            Options {
                sparse: SparseMode::On,
                ..Options::default()
            },
        )
    })
}

/// c432 under a 256-state budget: the degradation ladder replaces jtree
/// segments with the two-state fallback, which must never memoize — and
/// the results must still match the equally degraded cold estimator bit
/// for bit.
fn c432_degraded() -> &'static Harness {
    static H: OnceLock<Harness> = OnceLock::new();
    H.get_or_init(|| {
        let h = Harness::build("c432", Options::with_resource_budget(Budget::states(256.0)));
        assert!(
            !h.warm.degradations().is_empty(),
            "a 256-state budget on c432 must trip the ladder"
        );
        h
    })
}

/// A sweep: each step rewrites 1–3 input probabilities, accumulating on
/// the all-0.5 base. Single-input steps leave the segments outside the
/// input's cone memoized; multi-input steps exercise cross-segment
/// invalidation.
fn sweep_strategy(
    num_inputs: usize,
    steps: std::ops::Range<usize>,
) -> impl Strategy<Value = Vec<Vec<(usize, f64)>>> {
    proptest::collection::vec(
        proptest::collection::vec((0..num_inputs, 0.05f64..0.95), 1..=3),
        steps,
    )
}

fn run_sweep(harness: &Harness, sweep: &[Vec<(usize, f64)>]) {
    let mut p1s = vec![0.5; harness.circuit.num_inputs()];
    for step in sweep {
        for &(input, p1) in step {
            p1s[input] = p1;
        }
        harness.assert_bit_identical(&InputSpec::independent(p1s.clone()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn c17_incremental_sweep_is_bit_identical(
        sweep in sweep_strategy(5, 2..5),
    ) {
        run_sweep(c17(), &sweep);
    }

    #[test]
    fn c17_sparse_incremental_sweep_is_bit_identical(
        sweep in sweep_strategy(5, 2..5),
    ) {
        run_sweep(c17_sparse(), &sweep);
    }

    #[test]
    fn c432_degraded_incremental_sweep_is_bit_identical(
        sweep in sweep_strategy(36, 2..4),
    ) {
        run_sweep(c432_degraded(), &sweep);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn c432_incremental_sweep_is_bit_identical(
        sweep in sweep_strategy(36, 2..4),
    ) {
        run_sweep(c432(), &sweep);
    }

    #[test]
    fn c432_sparse_incremental_sweep_is_bit_identical(
        sweep in sweep_strategy(36, 2..4),
    ) {
        run_sweep(c432_sparse(), &sweep);
    }
}

/// Deterministic repetition: re-estimating the identical spec must skip
/// every segment via the posterior memo, and the served posteriors must
/// still match cold bit for bit.
#[test]
fn repeated_identical_scenario_skips_all_segments() {
    let harness = c432();
    let spec = InputSpec::independent(vec![0.25; 36]);
    harness.assert_bit_identical(&spec);
    let again = harness.warm.estimate(&spec).expect("warm estimate");
    assert!(
        again.reuse_stats().segments_skipped > 0,
        "an unchanged scenario must be served from the posterior memo"
    );
    let cold = harness.cold.estimate(&spec).expect("cold estimate");
    for line in harness.circuit.line_ids() {
        assert_eq!(
            cold.switching(line).to_bits(),
            again.switching(line).to_bits()
        );
    }
}
