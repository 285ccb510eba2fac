//! Property tests for the zero-compressed propagation kernels: every
//! [`SparseMode`] must produce *bit-identical* results to the dense path
//! on random networks — including LIDAG-shaped ones whose deterministic
//! (truth-table) CPTs make the clique potentials mostly zeros.

use proptest::prelude::*;
use swact_bayesnet::{
    initial_potentials, BayesNet, CompiledTree, Cpt, JunctionTree, SparseMode, VarId,
};

/// A random discrete Bayesian network with ≤ 7 binary/ternary variables.
/// `det_pct` percent of the non-root variables get a deterministic one-hot
/// CPT (as gate truth tables do), the rest get random strictly-positive
/// rows.
fn arb_net(det_pct: u64) -> impl Strategy<Value = BayesNet> {
    (3usize..7, any::<u64>()).prop_map(move |(n, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut net = BayesNet::new();
        for i in 0..n {
            let card = 2 + (next() % 2) as usize;
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

/// Compiles `net` under every sparse mode and checks propagation agrees
/// bit-for-bit, with and without evidence.
fn assert_modes_identical(net: &BayesNet, pick: u64) {
    let tree = JunctionTree::compile(net).expect("compiles");
    let pots = initial_potentials(&tree, net);
    let dense = CompiledTree::from_parts_with(tree.clone(), pots.clone(), SparseMode::Off);
    let observed = VarId::from_index((pick % net.num_vars() as u64) as usize);
    let state = (pick / 7) as usize % net.card(observed);
    for mode in [SparseMode::Auto, SparseMode::On] {
        let sparse = CompiledTree::from_parts_with(tree.clone(), pots.clone(), mode);
        prop_assert_eq!(sparse.nnz(), dense.nnz());

        let mut sd = dense.new_state();
        let mut ss = sparse.new_state();
        // Prior sum-propagation.
        dense.calibrate(&mut sd);
        sparse.calibrate(&mut ss);
        for var in net.var_ids() {
            let a = dense.marginal(&sd, var);
            let b = sparse.marginal(&ss, var);
            for (x, y) in a.iter().zip(&b) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "prior marginal of {:?}", var);
            }
        }

        // Posterior with hard evidence, when the evidence is possible.
        let prior = dense.marginal(&sd, observed);
        if prior[state] > 0.0 {
            sd.clear_evidence();
            ss.clear_evidence();
            dense
                .set_evidence(&mut sd, observed, state)
                .expect("in range");
            sparse
                .set_evidence(&mut ss, observed, state)
                .expect("in range");
            dense.calibrate(&mut sd);
            sparse.calibrate(&mut ss);
            prop_assert_eq!(
                sd.evidence_probability().to_bits(),
                ss.evidence_probability().to_bits()
            );
            for var in net.var_ids() {
                let a = dense.marginal(&sd, var);
                let b = sparse.marginal(&ss, var);
                for (x, y) in a.iter().zip(&b) {
                    prop_assert_eq!(x.to_bits(), y.to_bits(), "posterior marginal of {:?}", var);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random strictly-positive CPTs: sparse modes leave everything dense
    /// (or compress nothing harmful) and stay bit-identical.
    #[test]
    fn sparse_matches_dense_on_random_nets(net in arb_net(0), pick in any::<u64>()) {
        assert_modes_identical(&net, pick);
    }

    /// LIDAG-shaped nets: most CPTs are deterministic truth tables, so the
    /// clique potentials carry large zero blocks that `Auto` compresses.
    #[test]
    fn sparse_matches_dense_on_deterministic_nets(net in arb_net(90), pick in any::<u64>()) {
        assert_modes_identical(&net, pick);
    }
}

#[test]
fn deterministic_chain_stays_dense_under_auto() {
    // A 6-gate XOR/AND chain: every non-root CPT is a truth table, which
    // zeros out exactly half of each clique's state space. Half-zero is
    // *below* the sparse kernels' break-even point (three indexed loads
    // per surviving entry vs one sequential load per dense entry), so the
    // per-clique cost model keeps every clique dense — compressing them is
    // the c880 `auto` regression this rule fixed. `On` still compresses.
    let mut net = BayesNet::new();
    let xor = Cpt::rows(vec![
        vec![1.0, 0.0],
        vec![0.0, 1.0],
        vec![0.0, 1.0],
        vec![1.0, 0.0],
    ]);
    let and = Cpt::rows(vec![
        vec![1.0, 0.0],
        vec![1.0, 0.0],
        vec![1.0, 0.0],
        vec![0.0, 1.0],
    ]);
    let a = net
        .add_var("a", 2, &[], Cpt::prior(vec![0.5, 0.5]))
        .unwrap();
    let b = net
        .add_var("b", 2, &[], Cpt::prior(vec![0.4, 0.6]))
        .unwrap();
    let c = net.add_var("c", 2, &[a, b], xor.clone()).unwrap();
    let d = net.add_var("d", 2, &[b, c], and.clone()).unwrap();
    let e = net.add_var("e", 2, &[c, d], xor).unwrap();
    let _ = net.add_var("f", 2, &[d, e], and).unwrap();
    let tree = JunctionTree::compile(&net).unwrap();
    let compiled = CompiledTree::new(tree, &net).unwrap();
    assert!(
        compiled.zero_fraction() >= 0.5,
        "{}",
        compiled.zero_fraction()
    );
    assert_eq!(
        compiled.compressed_cliques(),
        0,
        "half-zero cliques must stay on the dense path under Auto"
    );
    let forced = CompiledTree::from_parts_with(
        JunctionTree::compile(&net).unwrap(),
        initial_potentials(&JunctionTree::compile(&net).unwrap(), &net),
        SparseMode::On,
    );
    assert!(forced.compressed_cliques() > 0);
    assert!(
        compiled.kernel_cost() <= forced.kernel_cost(),
        "auto ({}) must not cost more than forced-sparse ({}) here",
        compiled.kernel_cost(),
        forced.kernel_cost()
    );
}
