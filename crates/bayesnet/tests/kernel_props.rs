//! Property tests for the blocked (stride-aware) fused kernels: the
//! blocked kernels must be *bit-identical* (`f64::to_bits`) to the
//! per-entry two-pass reference path on arbitrary factors and networks,
//! and the blocked form must name exactly the per-entry index sequence.
//!
//! The two-pass reference is `CompiledTree::calibrate_two_pass`, which
//! derives each dense clique's per-entry projection from its sepset
//! strides at call time — real code rather than a frozen snapshot, and
//! independent of the blocked forms it checks.

use proptest::prelude::*;
use swact_bayesnet::{
    initial_potentials, projection_index_sequences, BayesNet, CompiledTree, Cpt, Factor,
    JunctionTree, SparseMode, VarId,
};

/// A random discrete Bayesian network mixing deterministic (one-hot) and
/// strictly-positive CPTs over cardinalities 2–4, shaped like the LIDAG
/// families the estimator compiles.
fn arb_net(det_pct: u64) -> impl Strategy<Value = BayesNet> {
    (3usize..8, any::<u64>()).prop_map(move |(n, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut net = BayesNet::new();
        for i in 0..n {
            let card = 2 + (next() % 3) as usize;
            let mut parents: Vec<VarId> = Vec::new();
            if i > 0 {
                for _ in 0..(next() % 3) {
                    let p = VarId::from_index((next() % i as u64) as usize);
                    if !parents.contains(&p) {
                        parents.push(p);
                    }
                }
            }
            let rows: usize = parents.iter().map(|&p| net.card(p)).product();
            let deterministic = !parents.is_empty() && next() % 100 < det_pct;
            let cpt: Vec<Vec<f64>> = (0..rows)
                .map(|_| {
                    if deterministic {
                        let hot = (next() % card as u64) as usize;
                        (0..card)
                            .map(|s| if s == hot { 1.0 } else { 0.0 })
                            .collect()
                    } else {
                        let raw: Vec<f64> =
                            (0..card).map(|_| 1.0 + (next() % 1000) as f64).collect();
                        let total: f64 = raw.iter().sum();
                        raw.into_iter().map(|x| x / total).collect()
                    }
                })
                .collect();
            net.add_var(format!("v{i}"), card, &parents, Cpt::rows(cpt))
                .expect("generated net is valid");
        }
        net
    })
}

/// Compiles `net` dense and sparse and checks the blocked kernels
/// calibrate bit-identically to the two-pass reference, prior and
/// posterior.
fn assert_scalar_matches_two_pass(net: &BayesNet, pick: u64) {
    let tree = JunctionTree::compile(net).expect("compiles");
    let pots = initial_potentials(&tree, net);
    for sparse in [SparseMode::Off, SparseMode::Auto] {
        let compiled = CompiledTree::from_parts_with(tree.clone(), pots.clone(), sparse);
        let mut blocked = compiled.new_state();
        let mut reference = compiled.new_state();
        compiled.calibrate(&mut blocked);
        compiled.calibrate_two_pass(&mut reference);
        for i in 0..tree.num_cliques() {
            let a = blocked.clique_potential(i);
            let b = reference.clique_potential(i);
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "clique {} prior", i);
            }
        }
        // Posterior with hard evidence, when possible.
        let observed = VarId::from_index((pick % net.num_vars() as u64) as usize);
        let state = (pick / 7) as usize % net.card(observed);
        if compiled.marginal(&blocked, observed)[state] > 0.0 {
            blocked.clear_evidence();
            reference.clear_evidence();
            compiled
                .set_evidence(&mut blocked, observed, state)
                .expect("in range");
            compiled
                .set_evidence(&mut reference, observed, state)
                .expect("in range");
            compiled.calibrate(&mut blocked);
            compiled.calibrate_two_pass(&mut reference);
            prop_assert_eq!(
                blocked.evidence_probability().to_bits(),
                reference.evidence_probability().to_bits()
            );
            for var in net.var_ids() {
                let a = compiled.marginal(&blocked, var);
                let b = compiled.marginal(&reference, var);
                for (x, y) in a.iter().zip(&b) {
                    prop_assert_eq!(x.to_bits(), y.to_bits(), "posterior of {:?}", var);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random strictly-positive CPTs: the blocked kernels are
    /// bit-identical to the two-pass reference.
    #[test]
    fn scalar_matches_two_pass_on_random_nets(net in arb_net(0), pick in any::<u64>()) {
        assert_scalar_matches_two_pass(&net, pick);
    }

    /// LIDAG-shaped nets: deterministic truth tables leave large zero
    /// blocks; blocked and two-pass paths still agree bit-for-bit under
    /// both storage modes.
    #[test]
    fn scalar_matches_two_pass_on_deterministic_nets(net in arb_net(90), pick in any::<u64>()) {
        assert_scalar_matches_two_pass(&net, pick);
    }
}

/// A clique scope of up to eight variables with cardinalities 1–4 (ids
/// ascending with gaps), and a sepset drawn from it: empty, the whole
/// scope, or a random subset.
fn arb_scope_and_sepset() -> impl Strategy<Value = (Factor, Vec<VarId>)> {
    (
        proptest::collection::vec((1usize..=4, 1usize..=3), 1..=8),
        0u8..4,
        any::<u8>(),
    )
        .prop_map(|(dims, kind, mask)| {
            let mut id = 0;
            let scope: Vec<(VarId, usize)> = dims
                .iter()
                .map(|&(card, gap)| {
                    id += gap;
                    (VarId::from_index(id), card)
                })
                .collect();
            let len = scope.iter().map(|&(_, card)| card).product();
            let sepset = scope
                .iter()
                .enumerate()
                .filter(|&(i, _)| match kind {
                    0 => false,
                    1 => true,
                    _ => mask & (1 << i) != 0,
                })
                .map(|(_, &(v, _))| v)
                .collect();
            (Factor::new(scope, vec![1.0; len]), sepset)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Expanding a dense clique's blocked form (`base × sum_reps ×
    /// copy_len`, in source order) gives exactly the per-entry odometer's
    /// clique→sepset indices, so the blocked kernels visit every entry the
    /// two-pass reference does, in its order.
    #[test]
    fn blocked_index_sequence_matches_the_per_entry_odometer(
        (clique, sepset) in arb_scope_and_sepset(),
    ) {
        let (blocked, per_entry) = projection_index_sequences(&clique, &sepset);
        prop_assert_eq!(per_entry.len(), clique.len());
        prop_assert_eq!(blocked, per_entry);
    }
}
