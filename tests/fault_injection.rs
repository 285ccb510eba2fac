//! End-to-end fault-injection tests (the `fault-inject` feature).
//!
//! The robustness contract under test: with faults injected into a batch,
//! the non-faulted scenarios complete **bit-identically** to a fault-free
//! run, the faulted ones surface structured errors or degraded estimates,
//! and the engine neither crashes nor hangs in `wait`.
//!
//! Injected panics and deadlines are retryable, and the engine retries
//! twice with backoff — so tests that want a scenario to *fail* arm the
//! same one-shot fault three times (initial attempt + two retries), and
//! tests that arm it fewer times assert the retry *recovers*.
#![cfg(feature = "fault-inject")]

use std::time::Duration;

use swact::faults::{arm, FaultAction, FaultPlan};
use swact::{Budget, CompiledEstimator, EstimateError, InputSpec, Options};
use swact_circuit::catalog;
use swact_engine::Engine;

fn specs_for(circuit: &swact_circuit::Circuit, n: usize) -> Vec<InputSpec> {
    (0..n)
        .map(|i| {
            let p = 0.3 + 0.1 * i as f64;
            InputSpec::independent(vec![p; circuit.num_inputs()])
        })
        .collect()
}

/// Holds the process-wide fault serialization lock with an *empty* plan
/// armed. The armed plan is global, so a reference or post-fault run in
/// one test must not observe — or worse, consume — a plan armed by a
/// concurrently running test.
fn quiesce() -> swact::faults::FaultGuard {
    arm(FaultPlan::new())
}

#[test]
fn injected_worker_panic_fails_one_scenario_and_spares_the_rest() {
    let circuit = catalog::c17();
    let specs = specs_for(&circuit, 4);
    let options = Options::default();

    // Fault-free reference first (separate engine, empty plan armed).
    let reference = {
        let _quiet = quiesce();
        Engine::with_jobs(1)
            .estimate_batch(&circuit, &specs, &options)
            .expect("reference batch")
    };
    assert!(reference.all_ok());

    let engine = Engine::with_jobs(1);
    {
        // Three one-shot panics: the initial attempt and both retries of
        // scenario 1 must all blow up for the error to become final.
        let _guard = arm(FaultPlan::new()
            .fault_at("engine:job", 1, FaultAction::Panic)
            .fault_at("engine:job", 1, FaultAction::Panic)
            .fault_at("engine:job", 1, FaultAction::Panic));
        let report = engine
            .estimate_batch(&circuit, &specs, &options)
            .expect("batch-level compile is unaffected");

        for (item, ref_item) in report.items.iter().zip(&reference.items) {
            if item.index == 1 {
                match &item.result {
                    Err(EstimateError::Panicked { message }) => {
                        assert!(message.contains("injected fault"), "message = {message}");
                    }
                    other => panic!("scenario 1 should panic, got {other:?}"),
                }
            } else {
                let est = item.result.as_ref().expect("non-faulted scenario");
                let ref_est = ref_item.result.as_ref().expect("reference");
                assert_eq!(est.switching_all(), ref_est.switching_all());
            }
        }
    }

    let metrics = engine.metrics();
    assert_eq!(metrics.jobs_panicked, 3);
    assert_eq!(metrics.retries, 2);
    assert_eq!(metrics.requests_failed, 1);

    // The engine survives: the same batch, disarmed, is fully clean.
    let _quiet = quiesce();
    let clean = engine
        .estimate_batch(&circuit, &specs, &options)
        .expect("post-fault batch");
    assert!(clean.all_ok());
    for (item, ref_item) in clean.items.iter().zip(&reference.items) {
        assert_eq!(
            item.result.as_ref().expect("clean").switching_all(),
            ref_item.result.as_ref().expect("reference").switching_all()
        );
    }
}

#[test]
fn single_injected_panic_is_recovered_by_retry() {
    let circuit = catalog::c17();
    let specs = specs_for(&circuit, 2);
    let options = Options::default();
    let reference = {
        let _quiet = quiesce();
        Engine::with_jobs(1)
            .estimate_batch(&circuit, &specs, &options)
            .expect("reference batch")
    };

    let engine = Engine::with_jobs(1);
    let _guard = arm(FaultPlan::new().fault_at("engine:job", 0, FaultAction::Panic));
    let report = engine
        .estimate_batch(&circuit, &specs, &options)
        .expect("batch");
    assert!(report.all_ok(), "one panic, two retries: must recover");
    for (item, ref_item) in report.items.iter().zip(&reference.items) {
        assert_eq!(
            item.result.as_ref().expect("ok").switching_all(),
            ref_item.result.as_ref().expect("reference").switching_all()
        );
    }
    let metrics = engine.metrics();
    assert_eq!(metrics.jobs_panicked, 1);
    assert_eq!(metrics.retries, 1);
    assert_eq!(metrics.requests_failed, 0);
}

#[test]
fn injected_budget_pressure_degrades_instead_of_failing() {
    let circuit = catalog::benchmark("c432").expect("known benchmark");
    let specs = specs_for(&circuit, 2);
    let options = Options::default();

    let engine = Engine::with_jobs(2);
    let _guard = arm(FaultPlan::new().fault("pipeline:admission", FaultAction::BudgetPressure));
    let report = engine
        .estimate_batch(&circuit, &specs, &options)
        .expect("pressure degrades, never aborts");
    assert!(report.all_ok());
    assert_eq!(report.degraded_scenarios(), specs.len());
    for est in report.estimates() {
        assert!(est.is_degraded());
        assert!(!est.degradations().is_empty());
    }
    assert!(engine.metrics().degraded_segments > 0);
}

#[test]
fn injected_budget_pressure_with_no_fallback_is_a_typed_compile_error() {
    let circuit = catalog::c17();
    let spec = InputSpec::uniform(circuit.num_inputs());
    let options = Options {
        no_fallback: true,
        ..Options::default()
    };
    let _guard = arm(FaultPlan::new().fault("pipeline:admission", FaultAction::BudgetPressure));
    match CompiledEstimator::compile_for(&circuit, &spec, &options) {
        Err(EstimateError::BudgetExceeded { .. }) => {}
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
}

#[test]
fn injected_stage_delay_trips_the_propagate_deadline() {
    // c17, not a big benchmark: its fault-free compile and propagate are
    // orders of magnitude under the deadline, so only the injected delay
    // can trip it — no flakiness under load.
    let circuit = catalog::c17();
    let spec = InputSpec::uniform(circuit.num_inputs());
    let options = Options::with_resource_budget(Budget::deadline(Duration::from_millis(250)));
    let delay = FaultAction::Delay(Duration::from_millis(600));

    // Undelayed reference under the *same* deadline: deadline checks are
    // cooperative and must never perturb the numbers.
    let reference = {
        let _quiet = quiesce();
        let reference = swact::estimate(&circuit, &spec, &options).expect("reference");
        let undeadlined =
            swact::estimate(&circuit, &spec, &Options::default()).expect("undeadlined reference");
        assert_eq!(reference.switching_all(), undeadlined.switching_all());
        reference
    };

    let engine = Engine::with_jobs(1);
    {
        // Initial attempt + two retries must each stall past the deadline.
        let _guard = arm(FaultPlan::new()
            .fault_at("pipeline:propagate:wave", 0, delay)
            .fault_at("pipeline:propagate:wave", 0, delay)
            .fault_at("pipeline:propagate:wave", 0, delay));
        let report = engine
            .estimate_batch(&circuit, std::slice::from_ref(&spec), &options)
            .expect("compile is fast enough for the deadline");
        match &report.items[0].result {
            Err(EstimateError::DeadlineExceeded { stage, .. }) => {
                assert_eq!(*stage, "propagate");
            }
            other => panic!("expected propagate DeadlineExceeded, got {other:?}"),
        }
    }
    assert_eq!(engine.metrics().retries, 2);

    // Faults exhausted: the same engine finishes the same scenario
    // bit-identically to the fault-free run.
    let _quiet = quiesce();
    let clean = engine
        .estimate_batch(&circuit, &[spec], &options)
        .expect("post-fault batch");
    assert!(clean.all_ok());
    assert_eq!(
        clean.items[0]
            .result
            .as_ref()
            .expect("clean")
            .switching_all(),
        reference.switching_all()
    );
}

#[test]
fn mixed_fault_batches_across_circuits_leave_the_engine_healthy() {
    // The acceptance scenario: one engine, batches over c17/c432/alu2,
    // with a worker panic, a compile-budget exhaustion, and a stage
    // deadline injected — everything not faulted is bit-identical to the
    // fault-free runs, and nothing crashes or hangs.
    let c17 = catalog::c17();
    let c432 = catalog::benchmark("c432").expect("known benchmark");
    let alu2 = catalog::benchmark("alu2").expect("known benchmark");
    let c17_specs = specs_for(&c17, 3);
    let c432_specs = specs_for(&c432, 2);
    let alu2_specs = specs_for(&alu2, 2);
    let plain = Options::default();
    // The deadline rides on c17 (see
    // injected_stage_delay_trips_the_propagate_deadline for why the small
    // circuit): alu2 takes the worker panic, c432 the budget pressure.
    let deadlined = Options::with_resource_budget(Budget::deadline(Duration::from_millis(250)));

    let reference = Engine::with_jobs(1);
    let (c17_ref, alu2_ref) = {
        let _quiet = quiesce();
        (
            reference
                .estimate_batch(&c17, &c17_specs, &deadlined)
                .expect("c17 reference"),
            reference
                .estimate_batch(&alu2, &alu2_specs, &plain)
                .expect("alu2 reference"),
        )
    };

    let engine = Engine::with_jobs(1);
    let delay = FaultAction::Delay(Duration::from_millis(250));

    // Fault points are named per pipeline location, not per circuit, so
    // each batch arms only its own plan — otherwise c432's propagation
    // waves would consume the delay entries meant for alu2.
    {
        let _guard = arm(FaultPlan::new().fault("pipeline:admission", FaultAction::BudgetPressure));
        let c432_report = engine
            .estimate_batch(&c432, &c432_specs, &plain)
            .expect("c432 batch");
        assert!(c432_report.all_ok());
        assert_eq!(c432_report.degraded_scenarios(), c432_specs.len());
    }

    {
        let _guard = arm(FaultPlan::new()
            .fault_at("engine:job", 1, FaultAction::Panic)
            .fault_at("engine:job", 1, FaultAction::Panic)
            .fault_at("engine:job", 1, FaultAction::Panic));
        let alu2_report = engine
            .estimate_batch(&alu2, &alu2_specs, &plain)
            .expect("alu2 batch");
        for (item, ref_item) in alu2_report.items.iter().zip(&alu2_ref.items) {
            if item.index == 1 {
                assert!(matches!(item.result, Err(EstimateError::Panicked { .. })));
            } else {
                assert_eq!(
                    item.result.as_ref().expect("ok").switching_all(),
                    ref_item.result.as_ref().expect("reference").switching_all()
                );
            }
        }
    }

    {
        let _guard = arm(FaultPlan::new()
            .fault_at("pipeline:propagate:wave", 0, delay)
            .fault_at("pipeline:propagate:wave", 0, delay)
            .fault_at("pipeline:propagate:wave", 0, delay));
        // Single scenario: with one worker, scenarios queued behind the
        // three 600 ms delayed attempts would (correctly) be shed by the
        // queue deadline — the clean rerun below covers the full batch.
        let c17_report = engine
            .estimate_batch(&c17, &c17_specs[..1], &deadlined)
            .expect("c17 batch");
        assert!(matches!(
            c17_report.items[0].result,
            Err(EstimateError::DeadlineExceeded { .. })
        ));
    }

    // Engine still healthy: clean reruns of every batch, bit-identical
    // where a fault-free reference exists.
    let _quiet = quiesce();
    let c17_clean = engine
        .estimate_batch(&c17, &c17_specs, &deadlined)
        .expect("c17 clean");
    assert!(c17_clean.all_ok());
    for (item, ref_item) in c17_clean.items.iter().zip(&c17_ref.items) {
        assert_eq!(
            item.result.as_ref().expect("ok").switching_all(),
            ref_item.result.as_ref().expect("reference").switching_all()
        );
    }
    let alu2_clean = engine
        .estimate_batch(&alu2, &alu2_specs, &plain)
        .expect("alu2 clean");
    assert!(alu2_clean.all_ok());
    for (item, ref_item) in alu2_clean.items.iter().zip(&alu2_ref.items) {
        assert_eq!(
            item.result.as_ref().expect("ok").switching_all(),
            ref_item.result.as_ref().expect("reference").switching_all()
        );
    }
    let metrics = engine.metrics();
    assert_eq!(metrics.jobs_panicked, 3);
    assert_eq!(metrics.retries, 4);
    assert_eq!(metrics.requests_failed, 2);
}

#[test]
fn estimate_after_a_panicked_estimate_matches_a_fresh_compile() {
    let circuit = catalog::benchmark("c432").expect("known benchmark");
    let specs = specs_for(&circuit, 2);
    let options = Options::default();
    let bits = |estimate: &swact::Estimate| -> Vec<u64> {
        circuit
            .line_ids()
            .flat_map(|line| estimate.distribution(line).as_array())
            .map(f64::to_bits)
            .collect()
    };
    let (compiled, fresh) = {
        let _quiet = quiesce();
        let compiled = CompiledEstimator::compile(&circuit, &options).expect("compiles");
        let fresh = CompiledEstimator::compile(&circuit, &options)
            .expect("compiles")
            .estimate(&specs[1])
            .expect("estimates");
        (compiled, fresh)
    };
    assert!(compiled.num_waves() > 1, "c432 propagates in several waves");
    {
        // Wave 0 propagates (writing its arena slots), then the estimate
        // unwinds before wave 1, leaving the arena mid-estimate.
        let _guard =
            arm(FaultPlan::new().fault_at("pipeline:propagate:wave", 1, FaultAction::Panic));
        let aborted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            compiled.estimate(&specs[0])
        }));
        assert!(aborted.is_err(), "the injected panic aborts the estimate");
    }
    let _quiet = quiesce();
    let after = compiled
        .estimate(&specs[1])
        .expect("estimates after the panic");
    assert_eq!(bits(&after), bits(&fresh));
}
