//! Property-based tests spanning the workspace: random circuits through
//! the whole pipeline, with the BDD engine and exhaustive enumeration as
//! oracles.

use proptest::prelude::*;
use swact::{estimate, InputModel, InputSpec, Options, Transition};
use swact_baselines::{BddExact, SwitchingEstimator};
use swact_circuit::benchgen::{generate, GeneratorConfig};
use swact_circuit::parse::parse_bench;
use swact_circuit::write::to_bench;
use swact_circuit::Circuit;

fn small_circuit(seed: u64, inputs: usize, gates: usize) -> Circuit {
    generate(&GeneratorConfig {
        inputs,
        outputs: 1 + gates / 8,
        gates,
        seed,
        ..GeneratorConfig::default_for("prop")
    })
}

/// Exhaustive switching probabilities over all weighted (prev, next) input
/// pairs — the independent oracle for small circuits.
fn exhaustive_switching(circuit: &Circuit, spec: &InputSpec) -> Vec<f64> {
    let n = circuit.num_inputs();
    let order = circuit.topo_order();
    let eval = |assignment: usize| -> Vec<bool> {
        let mut values = vec![false; circuit.num_lines()];
        for (i, &pi) in circuit.inputs().iter().enumerate() {
            values[pi.index()] = assignment >> i & 1 == 1;
        }
        for &line in &order {
            if let Some(g) = circuit.gate(line) {
                values[line.index()] = g.kind.eval(g.inputs.iter().map(|&l| values[l.index()]));
            }
        }
        values
    };
    let mut switching = vec![0.0; circuit.num_lines()];
    for prev in 0..1usize << n {
        let prev_vals = eval(prev);
        for next in 0..1usize << n {
            let mut weight = 1.0;
            for i in 0..n {
                let t = Transition::from_values(prev >> i & 1 == 1, next >> i & 1 == 1);
                weight *= spec.model(i).to_distribution().p(t);
            }
            if weight == 0.0 {
                continue;
            }
            let next_vals = eval(next);
            for line in circuit.line_ids() {
                if prev_vals[line.index()] != next_vals[line.index()] {
                    switching[line.index()] += weight;
                }
            }
        }
    }
    switching
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Single-BN estimation is exact on arbitrary small circuits and input
    /// statistics — the core claim of Theorem 3 put to work.
    #[test]
    fn single_bn_is_exact_on_random_circuits(
        seed in 0u64..1000,
        gates in 4usize..14,
        p1 in proptest::collection::vec(0.05f64..0.95, 5),
        activity_scale in 0.1f64..1.0,
    ) {
        let circuit = small_circuit(seed, 5, gates);
        let spec = InputSpec::from_models(
            p1.iter()
                .map(|&p| {
                    let max = 2.0 * p.min(1.0 - p);
                    InputModel::new(p, max * activity_scale).expect("feasible")
                })
                .collect(),
        );
        let est = estimate(&circuit, &spec, &Options::single_bn()).expect("compiles");
        let exact = exhaustive_switching(&circuit, &spec);
        for line in circuit.line_ids() {
            prop_assert!(
                (est.switching(line) - exact[line.index()]).abs() < 1e-9,
                "line {} differs: {} vs {}",
                circuit.line_name(line),
                est.switching(line),
                exact[line.index()]
            );
        }
    }

    /// The junction-tree estimator and the BDD engine agree — two
    /// independent exact algorithms with disjoint code paths.
    #[test]
    fn bn_and_bdd_agree(seed in 0u64..1000, gates in 4usize..16) {
        let circuit = small_circuit(seed, 6, gates);
        let spec = InputSpec::from_models(
            (0..6).map(|i| InputModel::new(0.5, 0.1 + 0.05 * i as f64).unwrap()).collect(),
        );
        let bn = estimate(&circuit, &spec, &Options::single_bn()).expect("compiles");
        let bdd = BddExact::default().estimate(&circuit, &spec).expect("fits");
        for line in circuit.line_ids() {
            prop_assert!((bn.switching(line) - bdd[line.index()]).abs() < 1e-9);
        }
    }

    /// Segmented estimation converges to the exact answer and always
    /// yields valid distributions.
    #[test]
    fn segmented_estimates_are_valid_distributions(
        seed in 0u64..1000,
        gates in 10usize..40,
        budget_exp in 8u32..16,
    ) {
        let circuit = small_circuit(seed, 8, gates);
        let spec = InputSpec::uniform(8);
        let options = Options {
            segment_budget: 1usize << budget_exp,
            ..Options::default()
        };
        let est = estimate(&circuit, &spec, &options).expect("compiles");
        for line in circuit.line_ids() {
            let d = est.distribution(line).as_array();
            let sum: f64 = d.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
            prop_assert!(d.iter().all(|&p| (-1e-12..=1.0).contains(&p)));
            prop_assert!(est.distribution(line).is_stationary(1e-6));
        }
    }

    /// `.bench` serialization round-trips any generated circuit.
    #[test]
    fn bench_round_trip(seed in 0u64..10_000, inputs in 2usize..10, gates in 2usize..40) {
        let circuit = generate(&GeneratorConfig {
            inputs,
            outputs: 1 + gates / 10,
            gates,
            seed,
            ..GeneratorConfig::default_for("roundtrip")
        });
        let text = to_bench(&circuit);
        let back = parse_bench(circuit.name(), &text).expect("parses");
        prop_assert_eq!(back.num_lines(), circuit.num_lines());
        prop_assert_eq!(back.num_inputs(), circuit.num_inputs());
        prop_assert_eq!(back.num_outputs(), circuit.num_outputs());
        for line in circuit.line_ids() {
            let name = circuit.line_name(line);
            let other = back.find_line(name).expect("line survives");
            match (circuit.gate(line), back.gate(other)) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    prop_assert_eq!(a.kind, b.kind);
                    let an: Vec<_> =
                        a.inputs.iter().map(|&i| circuit.line_name(i)).collect();
                    let bn: Vec<_> = b.inputs.iter().map(|&i| back.line_name(i)).collect();
                    prop_assert_eq!(an, bn);
                }
                _ => prop_assert!(false, "driver class changed for {}", name),
            }
        }
    }

    /// Simulation converges to the exact BDD switching probability.
    #[test]
    fn simulation_converges_to_bdd(seed in 0u64..200, gates in 4usize..12) {
        let circuit = small_circuit(seed, 5, gates);
        let spec = InputSpec::uniform(5);
        let exact = BddExact::default().estimate(&circuit, &spec).expect("fits");
        let model = swact_sim::StreamModel::uniform(5);
        let measured = swact_sim::measure_activity(&circuit, &model, 1 << 17, seed ^ 0x51e3);
        for line in circuit.line_ids() {
            prop_assert!(
                (measured.switching[line.index()] - exact[line.index()]).abs() < 0.02,
                "line {}: sim {} vs exact {}",
                circuit.line_name(line),
                measured.switching[line.index()],
                exact[line.index()]
            );
        }
    }
}
