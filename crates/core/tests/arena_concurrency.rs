//! Concurrent estimates over shared compiled estimators, each estimate in
//! its own propagation arena: several threads estimate one compiled c432
//! and one compiled c3540 at once, under the junction-tree and two-state
//! backends. Both circuits have a wave of two or more segments, so each
//! estimate also propagates segments on its own threads, on disjoint arena
//! slots. Every result must equal, bit for bit, a sequential estimate by
//! an estimator compiled with incremental reuse off. Queued estimates
//! take turns on one arena instead.

use std::sync::Barrier;

use swact::{Backend, CompiledEstimator, Estimate, InputSpec, Options};
use swact_circuit::{catalog, Circuit};

const THREADS: usize = 3;
const SPECS_PER_THREAD: usize = 2;

fn bits(estimate: &Estimate, circuit: &Circuit) -> Vec<u64> {
    circuit
        .line_ids()
        .flat_map(|line| estimate.distribution(line).as_array())
        .map(f64::to_bits)
        .collect()
}

/// Scenario `k` of a circuit with `inputs` primary inputs: skewed,
/// distinct per scenario, and repeated across threads for some `k` so
/// memo hits and misses interleave.
fn spec(inputs: usize, k: usize) -> InputSpec {
    InputSpec::independent((0..inputs).map(|i| 0.05 + 0.9 * ((i * 7 + k * 3) % 13) as f64 / 12.0))
}

#[test]
fn concurrent_estimates_match_sequential_cold_estimates() {
    let circuits: Vec<Circuit> = ["c432", "c3540"]
        .iter()
        .map(|name| catalog::benchmark(name).expect("known benchmark"))
        .collect();
    for backend in [Backend::Jtree, Backend::TwoState] {
        let options = Options::with_backend(backend);
        let cold = Options {
            incremental: false,
            ..options
        };
        let shared: Vec<CompiledEstimator> = circuits
            .iter()
            .map(|c| CompiledEstimator::compile(c, &options).expect("compiles"))
            .collect();
        for compiled in &shared {
            assert!(
                compiled.num_segments() > compiled.num_waves(),
                "{backend}: {} segments in {} waves leave no wave with two segments",
                compiled.num_segments(),
                compiled.num_waves()
            );
            assert!(compiled.arena_bytes() > 0, "{backend} propagates in states");
        }
        // Scenario k of thread t is (t + k) % THREADS + k, so threads
        // share some scenarios and not others.
        let scenario = |t: usize, k: usize| (t + k) % THREADS + k;
        let reference: Vec<Vec<Vec<u64>>> = circuits
            .iter()
            .map(|circuit| {
                let compiled = CompiledEstimator::compile(circuit, &cold).expect("compiles");
                (0..THREADS + SPECS_PER_THREAD)
                    .map(|k| {
                        let estimate = compiled
                            .estimate(&spec(circuit.num_inputs(), k))
                            .expect("estimates");
                        bits(&estimate, circuit)
                    })
                    .collect()
            })
            .collect();
        // Every thread starts estimating at the same moment.
        let start = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (circuits, shared, reference) = (&circuits, &shared, &reference);
                    let start = &start;
                    scope.spawn(move || {
                        start.wait();
                        for k in 0..SPECS_PER_THREAD {
                            // Each thread walks the circuits in its own
                            // order, so both estimators are busy at once.
                            for c in 0..circuits.len() {
                                let c = (c + t) % circuits.len();
                                let circuit = &circuits[c];
                                let s = scenario(t, k);
                                let estimate = shared[c]
                                    .estimate(&spec(circuit.num_inputs(), s))
                                    .expect("estimates");
                                assert_eq!(
                                    bits(&estimate, circuit),
                                    reference[c][s],
                                    "{backend}: thread {t}, circuit {c}, scenario {s}"
                                );
                            }
                        }
                    })
                })
                .collect();
            for handle in handles {
                handle.join().expect("estimating thread");
            }
        });
    }
}

#[test]
fn queued_estimates_take_turns_on_one_arena() {
    let circuit = catalog::benchmark("c432").expect("known benchmark");
    let options = Options::default();
    let cold = Options {
        incremental: false,
        ..options
    };
    let reference: Vec<Vec<u64>> = {
        let compiled = CompiledEstimator::compile(&circuit, &cold).expect("compiles");
        (0..THREADS + SPECS_PER_THREAD)
            .map(|k| {
                let estimate = compiled
                    .estimate(&spec(circuit.num_inputs(), k))
                    .expect("estimates");
                bits(&estimate, &circuit)
            })
            .collect()
    };
    let shared = CompiledEstimator::compile(&circuit, &options).expect("compiles");
    let start = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (circuit, shared, reference, start) = (&circuit, &shared, &reference, &start);
            scope.spawn(move || {
                start.wait();
                for k in 0..SPECS_PER_THREAD {
                    let s = (t + k) % THREADS + k;
                    let estimate = shared
                        .estimate_queued(&spec(circuit.num_inputs(), s))
                        .expect("estimates");
                    assert_eq!(
                        bits(&estimate, circuit),
                        reference[s],
                        "thread {t}, scenario {s}"
                    );
                }
            });
        }
    });
    assert_eq!(
        shared.arenas_made(),
        1,
        "queued estimates must wait for the arena, not make another"
    );
}
