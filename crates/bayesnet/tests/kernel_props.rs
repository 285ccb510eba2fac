//! Property tests for the blocked (stride-aware) fused kernels: the
//! blocked kernels must be *bit-identical* (`f64::to_bits`) to the
//! per-entry two-pass reference path on arbitrary factors and networks,
//! and the blocked form must name exactly the per-entry index sequence.
//!
//! The two-pass reference is `CompiledTree::calibrate_two_pass`, which
//! derives each dense clique's per-entry projection from its sepset
//! strides at call time — real code rather than a frozen snapshot, and
//! independent of the blocked forms it checks.

use std::collections::HashSet;

use proptest::prelude::*;
use swact_bayesnet::{
    blocked_kernel_check, initial_potentials, normalized_marginal, projection_index_sequences,
    BayesNet, BlockedArm, CompiledTree, Cpt, Factor, JunctionTree, SparseMode, VarId,
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

    /// Expanding a dense clique's blocked form (each block's target offset
    /// stepped by the shared odometer over the merged prefix dimensions,
    /// then `sum_reps × copy_len` entries, in source order) gives exactly
    /// the per-entry odometer's clique→sepset indices, so the blocked
    /// kernels visit every entry the two-pass reference does, in its
    /// order. Cards 1–4 put one-state dimensions between kept and summed
    /// ones, where both runs absorb them and prefix merging skips them; an
    /// empty or full sepset leaves an empty prefix (a single block).
    #[test]
    fn blocked_index_sequence_matches_the_per_entry_odometer(
        (clique, sepset) in arb_scope_and_sepset(),
    ) {
        let (blocked, per_entry) = projection_index_sequences(&clique, &sepset);
        prop_assert_eq!(per_entry.len(), clique.len());
        prop_assert_eq!(blocked, per_entry);
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|x| x.to_bits()).collect()
}

/// A clique over variables `0..cards.len()` with entries in (0, 1] whose
/// low bits differ, so any change in summation order shows in the bits.
fn shape_clique(cards: &[usize]) -> Factor {
    let len: usize = cards.iter().product();
    let values = (0..len as u64)
        .map(|i| {
            let x = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11;
            (x as f64 + 1.0) / (1u64 << 53) as f64
        })
        .collect();
    Factor::new(
        cards
            .iter()
            .enumerate()
            .map(|(i, &c)| (VarId::from_index(i), c))
            .collect(),
        values,
    )
}

/// The clique shapes of the fixed-width arms: all-four-state cliques of
/// 2–6 variables, and mixed cardinalities whose innermost run is four
/// entries (a four-state variable, two binary ones, or a four-state one
/// behind a one-state one).
fn kernel_shapes() -> Vec<Vec<usize>> {
    let mut shapes: Vec<Vec<usize>> = (2..=6).map(|n| vec![4; n]).collect();
    shapes.extend([
        vec![2, 4],
        vec![3, 4],
        vec![2, 3, 4],
        vec![3, 2, 4],
        vec![4, 2, 4],
        vec![3, 2, 2],
        vec![4, 2, 2],
        vec![2, 4, 3, 4],
        vec![3, 4, 2, 2],
        vec![2, 2, 2, 4],
        vec![4, 1, 4],
        vec![2, 4, 1],
        vec![1, 4, 4],
        vec![2, 1, 3, 4, 2],
        vec![1, 2, 1, 2, 1],
    ]);
    shapes
}

/// Every sepset mask of every shape: the blocked form expands through the
/// shared odometer to the per-entry indices, the blocked marginalize and
/// multiply are bit-identical to the per-entry
/// `marginalize_into`/`multiply_from`, and every arm, the two fixed-width
/// ones included, runs at least once.
#[test]
fn blocked_kernels_match_per_entry_on_every_four_state_shape() {
    let mut arms = HashSet::new();
    for cards in kernel_shapes() {
        let clique = shape_clique(&cards);
        for mask in 0..1usize << cards.len() {
            let kept: Vec<usize> = (0..cards.len()).filter(|i| mask & (1 << i) != 0).collect();
            let sepset: Vec<VarId> = kept.iter().map(|&i| VarId::from_index(i)).collect();
            let (blocked, per_entry) = projection_index_sequences(&clique, &sepset);
            assert_eq!(
                blocked, per_entry,
                "index sequence, cards {cards:?}, sepset mask {mask:#b}"
            );
            // The empty and the full sepset are one block each: every entry
            // folds into slot 0, or one copy run names every slot in turn.
            if kept.is_empty() {
                assert!(blocked.iter().all(|&t| t == 0), "cards {cards:?}");
            } else if kept.len() == cards.len() {
                assert!(blocked.iter().copied().eq(0..clique.len() as u32));
            }
            let sep_len: usize = kept.iter().map(|&i| cards[i]).product();
            let update: Vec<f64> = (0..sep_len).map(|k| 0.75 + k as f64 / 3.0).collect();
            let check = blocked_kernel_check(&clique, &sepset, &update);
            assert_eq!(
                bits(&check.marginal[0]),
                bits(&check.marginal[1]),
                "marginalize, cards {cards:?}, sepset mask {mask:#b} ({:?} arm)",
                check.arm
            );
            assert_eq!(
                bits(&check.product[0]),
                bits(&check.product[1]),
                "multiply, cards {cards:?}, sepset mask {mask:#b} ({:?} arm)",
                check.arm
            );
            arms.insert(check.arm);
        }
    }
    for arm in [
        BlockedArm::FoldFour,
        BlockedArm::Fold,
        BlockedArm::CopyFour,
        BlockedArm::Copy,
    ] {
        assert!(arms.contains(&arm), "no shape reached the {arm:?} arm");
    }
}

/// The gate readout at every scope position of every shape equals
/// `marginalize_keep` + `normalize` bit for bit, and both equal a
/// per-entry sum in ascending source order followed by the same division.
#[test]
fn normalized_marginal_matches_marginalize_keep_at_every_position() {
    for cards in kernel_shapes() {
        let clique = shape_clique(&cards);
        for (pos, &var) in clique.vars().iter().enumerate() {
            let got = normalized_marginal(&clique, var);
            let mut keep = clique.marginalize_keep(&[var]);
            keep.normalize();
            assert_eq!(
                bits(&got),
                bits(keep.values()),
                "cards {cards:?}, position {pos}"
            );
            let stride: usize = cards[pos + 1..].iter().product();
            let mut naive = vec![0.0; cards[pos]];
            for (i, &v) in clique.values().iter().enumerate() {
                naive[i / stride % cards[pos]] += v;
            }
            let total: f64 = naive.iter().sum();
            for v in &mut naive {
                *v /= total;
            }
            assert_eq!(bits(&got), bits(&naive), "cards {cards:?}, position {pos}");
        }
    }
}
