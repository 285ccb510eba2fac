//! Circuit-level kernel equivalence: on real benchmark circuits, the
//! blocked kernels must calibrate the estimator's own junction trees
//! bit-identically to the per-entry two-pass reference.

use swact::pipeline::{PlannedCircuit, SegmentModel};
use swact::Options;
use swact_bayesnet::{initial_potentials, CompiledTree, JunctionTree, SparseMode};
use swact_circuit::catalog;

/// Rebuilds each segment's junction tree exactly as the jtree backend
/// does and checks blocked calibration against the two-pass reference,
/// clique by clique, bit by bit.
fn assert_kernels_equivalent(name: &str) {
    let circuit = catalog::benchmark(name).unwrap();
    let options = Options::default();
    let planned = PlannedCircuit::new(&circuit, &options).unwrap();
    for i in 0..planned.num_segments() {
        let model = SegmentModel::build(&planned, i, 0).unwrap();
        let tree = JunctionTree::compile_with(model.net(), options.heuristic).unwrap();
        let pots = initial_potentials(&tree, model.net());
        for sparse in [SparseMode::Off, SparseMode::Auto] {
            let compiled = CompiledTree::from_parts_with(tree.clone(), pots.clone(), sparse);
            let mut blocked = compiled.new_state();
            let mut reference = compiled.new_state();
            compiled.calibrate(&mut blocked);
            compiled.calibrate_two_pass(&mut reference);
            for clique in 0..tree.num_cliques() {
                let expect = reference.clique_potential(clique).values();
                let got = blocked.clique_potential(clique).values();
                assert_eq!(expect.len(), got.len());
                for (e, g) in expect.iter().zip(got) {
                    assert_eq!(
                        e.to_bits(),
                        g.to_bits(),
                        "{name} segment {i} clique {clique}: blocked kernels \
                         must be bit-identical to two-pass"
                    );
                }
            }
        }
    }
}

#[test]
fn scalar_kernels_are_bit_identical_to_two_pass_on_c17() {
    assert_kernels_equivalent("c17");
}

#[test]
fn scalar_kernels_are_bit_identical_to_two_pass_on_c432() {
    assert_kernels_equivalent("c432");
}
