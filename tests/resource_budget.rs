//! Resource-governance integration tests: real (non-injected) budgets
//! driving the degradation ladder end to end.
//!
//! The contract under test: any parser-accepted netlist estimated under a
//! state budget either produces an estimate (possibly degraded, with the
//! degradations reported) or a typed error — never a panic or abort.

use proptest::prelude::*;
use swact::{
    estimate, Budget, CompiledEstimator, DegradationCause, EstimateError, Fallback, InputSpec,
    Options,
};
use swact_circuit::benchgen::{generate, GeneratorConfig};
use swact_circuit::catalog;

#[test]
fn c432_under_tiny_budget_completes_with_recorded_fallbacks() {
    let circuit = catalog::benchmark("c432").expect("known benchmark");
    let spec = InputSpec::uniform(circuit.num_inputs());
    let options = Options::with_resource_budget(Budget::states(256.0));

    let compiled = CompiledEstimator::compile_for(&circuit, &spec, &options)
        .expect("tiny budget must degrade, not fail");
    assert!(
        !compiled.degradations().is_empty(),
        "a 256-state budget on c432 must trip the ladder"
    );
    // Every report names a real segment and a concrete fallback.
    let num_segments = compiled.num_segments();
    for report in compiled.degradations() {
        assert!(report.segment < num_segments, "segment index out of range");
        match report.fallback {
            Fallback::Replanned { subsegments } => assert!(subsegments >= 1),
            Fallback::TwoState => {}
            _ => {}
        }
    }

    let est = compiled.estimate(&spec).expect("degraded model still runs");
    assert!(est.is_degraded());
    assert_eq!(est.degradations(), compiled.degradations());
    for line in circuit.line_ids() {
        let sw = est.switching(line);
        assert!(
            (0.0..=1.0).contains(&sw),
            "switching out of range on {:?}: {sw}",
            circuit.line_name(line)
        );
    }

    // Degradation is deterministic: same budget, same ladder, same numbers.
    let again = estimate(&circuit, &spec, &options).expect("rerun");
    assert_eq!(est.switching_all(), again.switching_all());
}

#[test]
fn no_fallback_turns_budget_exhaustion_into_a_typed_error() {
    let circuit = catalog::benchmark("c432").expect("known benchmark");
    let spec = InputSpec::uniform(circuit.num_inputs());
    let options = Options {
        no_fallback: true,
        ..Options::with_resource_budget(Budget::states(256.0))
    };
    let err = CompiledEstimator::compile_for(&circuit, &spec, &options)
        .expect_err("no-fallback compile must abort");
    match err {
        // The sampling rung exists, but --no-fallback means *no* rung runs:
        // the error must surface immediately, attributed to the primary
        // backend — never a silent switch to sampling.
        EstimateError::BudgetExceeded {
            states,
            budget,
            rung,
            ..
        } => {
            assert!(states > budget);
            assert_eq!(budget, 256.0);
            assert_eq!(rung, "jtree", "attributed to the rung that tripped");
        }
        other => panic!("expected BudgetExceeded, got {other}"),
    }
}

/// The acceptance claim for the anytime middle rung: on c432 under
/// temporally correlated inputs and a budget small enough that replanning
/// cannot rescue the big segments, the ladder lands on the sampling rung —
/// and the sampled mean switching is strictly closer to the exact
/// junction-tree answer than the twostate proxy's, and within the
/// sampler's own reported confidence half-width.
#[test]
fn sampling_rung_beats_twostate_within_its_reported_interval() {
    use swact::{Backend, InputModel};

    let circuit = catalog::benchmark("c432").expect("known benchmark");
    // Temporal correlation: activity far below the temporally independent
    // 2·p·(1−p) = 0.5 — exactly the regime the twostate proxy mishandles.
    let model = InputModel::new(0.5, 0.1).expect("valid model");
    let spec = InputSpec::from_models(vec![model; circuit.num_inputs()]);

    let exact = estimate(&circuit, &spec, &Options::default()).expect("exact jtree");
    let twostate = estimate(&circuit, &spec, &Options::with_backend(Backend::TwoState))
        .expect("twostate proxy");

    // 48 states is below even a single two-input gate's clique (4³ = 64),
    // so replanning cannot save any segment: every gate segment must fall
    // through to the sampling rung.
    let budgeted = Options {
        ci_half_width: 0.005,
        ..Options::with_resource_budget(Budget::states(48.0))
    };
    let sampled = estimate(&circuit, &spec, &budgeted).expect("degraded estimate");
    assert!(
        sampled
            .degradations()
            .iter()
            .any(|d| d.fallback == Fallback::Sampling),
        "the ladder must record sampling fallbacks"
    );
    let accuracy = *sampled
        .accuracy()
        .expect("sampled estimates carry accuracy");
    assert!(accuracy.samples > 0);

    let exact_mean = exact.mean_switching();
    let sampled_err = (sampled.mean_switching() - exact_mean).abs();
    let twostate_err = (twostate.mean_switching() - exact_mean).abs();
    assert!(
        sampled_err < twostate_err,
        "sampling must beat the twostate proxy under temporal correlation: \
         sampled err {sampled_err:.5} vs twostate err {twostate_err:.5}"
    );
    assert!(
        sampled_err <= accuracy.half_width,
        "sampled mean must sit within its reported interval: \
         err {sampled_err:.5} > ±{:.5}",
        accuracy.half_width
    );
}

/// An already-expired deadline is the worst case for the anytime stopping
/// rule — and even then every sampled segment draws exactly one batch
/// (512 samples): the sampler always produces an estimate and never
/// overshoots the deadline by more than that single batch.
#[test]
fn expired_deadline_still_draws_exactly_one_batch_per_segment() {
    use std::time::Duration;
    use swact::Backend;

    let circuit = catalog::benchmark("c432").expect("known benchmark");
    let spec = InputSpec::uniform(circuit.num_inputs());
    let options = Options {
        backend: Backend::Sampling,
        budget: Budget {
            deadline: Some(Duration::ZERO),
            ..Budget::UNLIMITED
        },
        ..Options::default()
    };
    let compiled =
        CompiledEstimator::compile_for(&circuit, &spec, &options).expect("sampling compile");
    let sampled_segments = compiled.sampled_segments();
    assert!(sampled_segments > 0);
    let est = compiled.estimate(&spec).expect("anytime estimate");
    let accuracy = *est.accuracy().expect("accuracy report present");
    assert_eq!(
        accuracy.samples,
        512 * sampled_segments as u64,
        "one batch per segment, no more, no less"
    );
    for line in circuit.line_ids() {
        let sw = est.switching(line);
        assert!((0.0..=1.0).contains(&sw), "switching {sw}");
    }
}

#[test]
fn unlimited_budget_changes_nothing() {
    // A present-but-unlimited budget must be bit-identical to no budget at
    // all: admission checks may run, but the plan must not change.
    let circuit = catalog::c17();
    let spec = InputSpec::uniform(circuit.num_inputs());
    let plain = estimate(&circuit, &spec, &Options::default()).expect("plain");
    let governed = estimate(
        &circuit,
        &spec,
        &Options::with_resource_budget(Budget::UNLIMITED),
    )
    .expect("governed");
    assert!(!governed.is_degraded());
    assert_eq!(plain.switching_all(), governed.switching_all());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The ladder's completion guarantee: generated netlists under an
    /// arbitrary (often absurdly small) state budget always estimate —
    /// degraded if need be, panicking never.
    #[test]
    fn budgeted_estimation_never_aborts(
        inputs in 3usize..8,
        gates in 8usize..48,
        seed in 0u64..1u64 << 32,
        budget in 32f64..4096.0,
    ) {
        let circuit = generate(&GeneratorConfig {
            inputs,
            outputs: 1 + gates / 8,
            gates,
            seed,
            ..GeneratorConfig::default_for("budget-prop")
        });
        let spec = InputSpec::uniform(circuit.num_inputs());
        let options = Options::with_resource_budget(Budget::states(budget));
        let est = estimate(&circuit, &spec, &options)
            .expect("budgeted estimation must complete");
        for line in circuit.line_ids() {
            let sw = est.switching(line);
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&sw), "switching {sw}");
        }
        // Reports, when present, must name real segments.
        for report in est.degradations() {
            prop_assert!(report.segment < est.num_segments());
        }
    }

    /// The anytime overshoot bound: with an already-expired deadline the
    /// sampler still answers, drawing exactly one 512-sample batch per
    /// sampled segment — never less (an estimate always exists) and never
    /// more (the deadline is re-checked before every later batch).
    #[test]
    fn sampler_overshoots_an_expired_deadline_by_at_most_one_batch(
        inputs in 3usize..8,
        gates in 8usize..32,
        seed in 0u64..1u64 << 32,
    ) {
        use std::time::Duration;
        use swact::Backend;

        let circuit = generate(&GeneratorConfig {
            inputs,
            outputs: 1 + gates / 8,
            gates,
            seed,
            ..GeneratorConfig::default_for("anytime-prop")
        });
        let spec = InputSpec::uniform(circuit.num_inputs());
        let options = Options {
            backend: Backend::Sampling,
            seed,
            budget: Budget {
                deadline: Some(Duration::ZERO),
                ..Budget::UNLIMITED
            },
            ..Options::default()
        };
        let compiled = CompiledEstimator::compile_for(&circuit, &spec, &options)
            .expect("sampling compile ignores the compile-stage deadline");
        let est = compiled.estimate(&spec).expect("anytime estimate");
        let accuracy = est.accuracy().expect("accuracy report present");
        prop_assert_eq!(
            accuracy.samples,
            512 * compiled.sampled_segments() as u64,
            "exactly one batch per sampled segment"
        );
        for line in circuit.line_ids() {
            let sw = est.switching(line);
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&sw), "switching {}", sw);
        }
    }
}

/// The factor-byte cap counts every clique entry a propagation state
/// allocates, zeros included. c6288's deterministic CPTs zero out 41% of
/// its clique entries, so a cap between its nonzero and its dense bytes
/// must degrade the compile; counting nonzeros alone admitted it whole.
#[test]
fn factor_byte_cap_counts_dense_clique_entries_on_c6288() {
    let circuit = catalog::benchmark("c6288").expect("known benchmark");
    let plain = CompiledEstimator::compile(&circuit, &Options::default()).expect("compiles");
    let (nonzero, dense) = (8 * plain.nnz(), (8.0 * plain.total_states()) as usize);
    assert!(
        nonzero < dense * 2 / 3,
        "c6288 has {nonzero} nonzero bytes of {dense}"
    );
    let cap = (nonzero + dense) / 2;
    let budgeted = CompiledEstimator::compile(
        &circuit,
        &Options::with_resource_budget(Budget {
            max_factor_bytes: Some(cap),
            ..Budget::UNLIMITED
        }),
    )
    .expect("a byte cap degrades, never fails");
    assert!(
        budgeted
            .degradations()
            .iter()
            .any(|r| matches!(r.cause, DegradationCause::FactorBytes { .. })),
        "a {cap}-byte cap admitted all {dense} dense bytes of c6288"
    );
}
