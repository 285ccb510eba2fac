//! Propagation (update) benchmark — the paper's §6 claim that once
//! compiled, re-estimation under new input statistics is cheap (Table 1's
//! "Update" column and experiment E4).

use criterion::{criterion_group, criterion_main, Criterion};
use swact::{CompiledEstimator, InputSpec, Options};
use swact_circuit::catalog;

fn bench_propagate(c: &mut Criterion) {
    let mut group = c.benchmark_group("propagate");
    group.sample_size(10);
    for name in ["c17", "c432", "c880", "alu2"] {
        let circuit = catalog::benchmark(name).expect("known benchmark");
        let compiled = CompiledEstimator::compile(&circuit, &Options::default()).expect("compiles");
        let specs: Vec<InputSpec> = (0..4)
            .map(|k| {
                InputSpec::independent(
                    (0..circuit.num_inputs()).map(move |i| 0.2 + 0.15 * ((i + k) % 5) as f64),
                )
            })
            .collect();
        let mut k = 0usize;
        group.bench_function(name, |b| {
            b.iter(|| {
                // Rotate input statistics so every iteration re-propagates.
                let est = compiled.estimate(&specs[k % specs.len()]).expect("matches");
                k += 1;
                est
            })
        });
    }
    group.finish();
}

/// The boundary-correlation export walks of one segment: the c7552
/// default-plan segment with the most exports, calibrated at its baked-in
/// uniform priors, read through the planned walks the estimator stores
/// against the factor-algebra reference walk they must reproduce.
fn bench_export_walks(c: &mut Criterion) {
    let circuit = catalog::benchmark("c7552").expect("known benchmark");
    let compiled = CompiledEstimator::compile(&circuit, &Options::default()).expect("compiles");
    let walks = compiled.export_walks();
    let (tree, exports) = walks
        .iter()
        .max_by_key(|(_, exports)| exports.len())
        .expect("c7552 forwards boundary correlation");
    let mut state = tree.new_state();
    tree.calibrate(&mut state);
    let mut group = c.benchmark_group(format!("export_walks/c7552_{}_exports", exports.len()));
    group.sample_size(20);
    group.bench_function("planned", |b| {
        b.iter(|| {
            let mut total = 0.0;
            for &(_, _, plan) in exports {
                total += tree.pairwise_marginal_planned(&mut state, plan)[0];
            }
            total
        })
    });
    group.bench_function("reference", |b| {
        b.iter(|| {
            let mut total = 0.0;
            for &(parent, child, _) in exports {
                let joint = tree
                    .pairwise_marginal_reference(&state, parent, child)
                    .expect("exports share a component");
                total += joint.values()[0];
            }
            total
        })
    });
    group.finish();
}

criterion_group!(benches, bench_propagate, bench_export_walks);
criterion_main!(benches);
