//! Differential test of the planned pairwise walk: on random networks
//! under random hard and soft evidence, every ordered pair's planned joint
//! must equal the factor-algebra reference walk bit for bit — including
//! pairs one clique holds and `None` across components.

use proptest::prelude::*;
use std::collections::HashSet;
use swact_bayesnet::{BayesNet, CompiledTree, Cpt, JunctionTree, SparseMode, VarId, WalkArm};

/// Xorshift stream, so shrinking the seed stays meaningful.
fn stream(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// A random network with `n` variables of cardinality 2–4 (1–4 when
/// `one_state` is set). Parents are up to three earlier variables, so
/// some draws split into several components; about a third of the CPT
/// rows are deterministic (none when `positive` is set), so the clique
/// potentials carry the structural zeros zero compression skips.
fn random_net_with(n: usize, seed: u64, one_state: bool, positive: bool) -> BayesNet {
    let mut next = stream(seed);
    let mut net = BayesNet::new();
    for i in 0..n {
        let card = if one_state {
            1 + (next() % 4) as usize
        } else {
            2 + (next() % 3) as usize
        };
        let mut parents: Vec<VarId> = Vec::new();
        if i > 0 {
            for _ in 0..(next() % 4) {
                let p = VarId::from_index((next() % i as u64) as usize);
                if !parents.contains(&p) {
                    parents.push(p);
                }
            }
        }
        let rows: usize = parents.iter().map(|&p| net.card(p)).product();
        let cpt: Vec<Vec<f64>> = (0..rows)
            .map(|_| {
                if !positive && next().is_multiple_of(3) {
                    let hot = (next() % card as u64) as usize;
                    (0..card)
                        .map(|s| if s == hot { 1.0 } else { 0.0 })
                        .collect()
                } else {
                    let raw: Vec<f64> = (0..card).map(|_| 1.0 + (next() % 1000) as f64).collect();
                    let total: f64 = raw.iter().sum();
                    raw.into_iter().map(|x| x / total).collect()
                }
            })
            .collect();
        net.add_var(format!("v{i}"), card, &parents, Cpt::rows(cpt))
            .expect("generated net is valid");
    }
    net
}

fn random_net(n: usize, seed: u64) -> BayesNet {
    random_net_with(n, seed, false, false)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn planned_walks_match_the_reference_walk(
        n in 2usize..=12,
        seed in any::<u64>(),
        evidence_seed in any::<u64>(),
    ) {
        let net = random_net(n, seed);
        let tree = JunctionTree::compile(&net).expect("compiles");
        let mut next = stream(evidence_seed);
        for mode in [SparseMode::Off, SparseMode::Auto, SparseMode::On] {
            let compiled = CompiledTree::from_parts_with(
                tree.clone(),
                swact_bayesnet::initial_potentials(&tree, &net),
                mode,
            );
            let mut state = compiled.new_state();
            for raw in 0..n {
                let var = VarId::from_index(raw);
                let card = net.card(var);
                match next() % 6 {
                    0 => compiled
                        .set_evidence(&mut state, var, (next() % card as u64) as usize)
                        .expect("in range"),
                    1 | 2 => {
                        let weights = (0..card).map(|_| (next() % 5) as f64 * 0.25).collect();
                        compiled.set_likelihood(&mut state, var, weights).expect("in range");
                    }
                    _ => {}
                }
            }
            compiled.calibrate(&mut state);
            for a in net.var_ids() {
                for b in net.var_ids() {
                    if a == b {
                        prop_assert!(compiled.plan_pairwise(a, b).is_none());
                        continue;
                    }
                    let reference = compiled.pairwise_marginal_reference(&state, a, b);
                    let fresh = compiled.pairwise_marginal(&state, a, b);
                    let plan = compiled.plan_pairwise(a, b);
                    prop_assert_eq!(reference.is_some(), fresh.is_some(), "{} {}", a, b);
                    prop_assert_eq!(reference.is_some(), plan.is_some(), "{} {}", a, b);
                    let (Some(reference), Some(fresh), Some(plan)) = (reference, fresh, plan) else {
                        continue;
                    };
                    prop_assert_eq!(reference.vars(), fresh.vars());
                    prop_assert_eq!(reference.vars(), &plan.vars()[..]);
                    let expect = bits(reference.values());
                    prop_assert_eq!(&expect, &bits(fresh.values()), "{} {} {:?}", a, b, mode);
                    let planned = bits(compiled.pairwise_marginal_planned(&mut state, &plan));
                    prop_assert_eq!(&expect, &planned, "{} {} {:?}", a, b, mode);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every planned walk has digit steps: a one-clique read places both
    /// digits, and a cross-clique walk places `a`'s digit where the path
    /// drops it and `b`'s on the last step. With every clique dense
    /// (strictly positive CPTs, zero compression off) those steps all run
    /// through the stride odometer; one-state variables add dimensions it
    /// must skip.
    #[test]
    fn dense_digit_steps_match_the_reference_walk(
        n in 2usize..=14,
        seed in any::<u64>(),
        evidence_seed in any::<u64>(),
    ) {
        let net = random_net_with(n, seed, true, true);
        let tree = JunctionTree::compile(&net).expect("compiles");
        let compiled = CompiledTree::from_parts_with(
            tree.clone(),
            swact_bayesnet::initial_potentials(&tree, &net),
            SparseMode::Off,
        );
        prop_assert_eq!(compiled.compressed_cliques(), 0);
        let mut next = stream(evidence_seed);
        let mut state = compiled.new_state();
        for var in net.var_ids() {
            if next().is_multiple_of(3) {
                let weights = (0..net.card(var)).map(|_| 0.25 + (next() % 4) as f64).collect();
                compiled.set_likelihood(&mut state, var, weights).expect("in range");
            }
        }
        compiled.calibrate(&mut state);
        for a in net.var_ids() {
            for b in net.var_ids().filter(|&b| b != a) {
                let reference = compiled.pairwise_marginal_reference(&state, a, b);
                let plan = compiled.plan_pairwise(a, b);
                prop_assert_eq!(reference.is_some(), plan.is_some(), "{} {}", a, b);
                let (Some(reference), Some(plan)) = (reference, plan) else {
                    continue;
                };
                let planned = bits(compiled.pairwise_marginal_planned(&mut state, &plan));
                prop_assert_eq!(bits(reference.values()), planned, "{} {}", a, b);
            }
        }
    }
}

/// Lane counts above four take the generic inner loop: a chain of
/// five-state variables walks `a` across every clique of the path.
#[test]
fn wide_lanes_match_the_reference_walk() {
    let mut net = BayesNet::new();
    let mut prev: Option<VarId> = None;
    let mut next = stream(7);
    for i in 0..6 {
        let parents: Vec<VarId> = prev.into_iter().collect();
        let rows = parents.iter().map(|&p| net.card(p)).product::<usize>();
        let cpt = (0..rows)
            .map(|_| {
                let raw: Vec<f64> = (0..5).map(|_| 1.0 + (next() % 100) as f64).collect();
                let total: f64 = raw.iter().sum();
                raw.into_iter().map(|x| x / total).collect()
            })
            .collect();
        prev = Some(
            net.add_var(format!("x{i}"), 5, &parents, Cpt::rows(cpt))
                .expect("valid"),
        );
    }
    let compiled =
        CompiledTree::new(JunctionTree::compile(&net).expect("compiles"), &net).expect("nonempty");
    let mut state = compiled.new_state();
    compiled
        .set_likelihood(
            &mut state,
            VarId::from_index(3),
            vec![0.1, 0.9, 0.3, 0.0, 1.0],
        )
        .expect("in range");
    compiled.calibrate(&mut state);
    for a in net.var_ids() {
        for b in net.var_ids().filter(|&b| b != a) {
            let expect = compiled
                .pairwise_marginal_reference(&state, a, b)
                .expect("one component");
            let got = compiled
                .pairwise_marginal(&state, a, b)
                .expect("one component");
            assert_eq!(bits(expect.values()), bits(got.values()), "{a} {b}");
        }
    }
}

/// A dense network of `n` four-state variables, each with up to three
/// earlier parents, so every merged walk dimension is a run of four-state
/// entries and the walks take the register tiles.
fn four_state_net(n: usize, seed: u64) -> BayesNet {
    let mut next = stream(seed);
    let mut net = BayesNet::new();
    for i in 0..n {
        let mut parents: Vec<VarId> = Vec::new();
        if i > 0 {
            for _ in 0..1 + next() % 3 {
                let p = VarId::from_index((next() % i as u64) as usize);
                if !parents.contains(&p) {
                    parents.push(p);
                }
            }
        }
        let rows: usize = parents.iter().map(|&p| net.card(p)).product();
        let cpt = (0..rows)
            .map(|_| {
                let raw: Vec<f64> = (0..4).map(|_| 1.0 + (next() % 1000) as f64).collect();
                let total: f64 = raw.iter().sum();
                raw.into_iter().map(|x| x / total).collect()
            })
            .collect();
        net.add_var(format!("v{i}"), 4, &parents, Cpt::rows(cpt))
            .expect("generated net is valid");
    }
    net
}

/// On all-four-state networks every planned walk equals the reference
/// walk bit for bit, and the walks reach every register-tile arm: each
/// kept/summed combination of the two innermost dimensions, at one lane
/// and at four.
#[test]
fn four_state_walks_match_the_reference_walk_on_every_tile_arm() {
    let mut arms = HashSet::new();
    for seed in 1..=24u64 {
        let net = four_state_net(4 + (seed % 6) as usize, seed);
        let tree = JunctionTree::compile(&net).expect("compiles");
        let compiled = CompiledTree::from_parts_with(
            tree.clone(),
            swact_bayesnet::initial_potentials(&tree, &net),
            SparseMode::Off,
        );
        let mut next = stream(seed ^ 0x9e37);
        let mut state = compiled.new_state();
        for var in net.var_ids() {
            if next().is_multiple_of(3) {
                let weights = (0..4).map(|_| 0.25 + (next() % 4) as f64).collect();
                compiled
                    .set_likelihood(&mut state, var, weights)
                    .expect("in range");
            }
        }
        compiled.calibrate(&mut state);
        for a in net.var_ids() {
            for b in net.var_ids().filter(|&b| b != a) {
                let reference = compiled
                    .pairwise_marginal_reference(&state, a, b)
                    .expect("one component");
                let plan = compiled.plan_pairwise(a, b).expect("one component");
                arms.extend(plan.walk_arms());
                let planned = bits(compiled.pairwise_marginal_planned(&mut state, &plan));
                assert_eq!(bits(reference.values()), planned, "seed {seed}: {a} {b}");
            }
        }
    }
    for lanes in [1, 4] {
        for kept in [[false, false], [false, true], [true, false], [true, true]] {
            let arm = WalkArm::Tiled { lanes, kept };
            assert!(arms.contains(&arm), "no walk reached {arm:?}");
        }
    }
}

/// Walks run together share their common first steps: for each `a`, the
/// walks to every `b` in one batch (consecutive plans leave `home(a)` down
/// common paths, so later walks resume from earlier messages) must equal
/// the reference walk bit for bit, on mixed-card and all-four-state nets.
#[test]
fn shared_prefix_walks_match_the_reference_walk() {
    let mut shared = 0;
    for seed in 1..=16u64 {
        let n = 5 + (seed % 6) as usize;
        let net = if seed % 2 == 0 {
            four_state_net(n, seed)
        } else {
            random_net_with(n, seed, false, true)
        };
        let tree = JunctionTree::compile(&net).expect("compiles");
        let compiled = CompiledTree::from_parts_with(
            tree.clone(),
            swact_bayesnet::initial_potentials(&tree, &net),
            SparseMode::Off,
        );
        let mut state = compiled.new_state();
        compiled.calibrate(&mut state);
        for a in net.var_ids() {
            let mut expect = Vec::new();
            let mut plans = Vec::new();
            for b in net.var_ids().filter(|&b| b != a) {
                if let Some(reference) = compiled.pairwise_marginal_reference(&state, a, b) {
                    expect.push(bits(reference.values()));
                    plans.push(compiled.plan_pairwise(a, b).expect("one component"));
                }
            }
            let plans: Vec<_> = plans.iter().collect();
            shared += plans
                .windows(2)
                .map(|w| w[1].shared_steps(w[0]))
                .sum::<usize>();
            let mut got = Vec::new();
            compiled.pairwise_marginals_planned(&mut state, &plans, |i, joint| {
                assert_eq!(i, got.len());
                got.push(bits(joint));
            });
            assert_eq!(got, expect, "seed {seed}: walks from {a}");
        }
    }
    assert!(shared > 0, "no batch shared a step");
}
