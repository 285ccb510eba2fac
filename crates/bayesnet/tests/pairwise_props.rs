//! Differential test of the planned pairwise walk: on random networks
//! under random hard and soft evidence, every ordered pair's planned joint
//! must equal the factor-algebra reference walk bit for bit — including
//! pairs one clique holds and `None` across components.

use proptest::prelude::*;
use swact_bayesnet::{BayesNet, CompiledTree, Cpt, JunctionTree, SparseMode, VarId};

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

/// A random network with `n` variables of cardinality 2–4. Parents are up
/// to three earlier variables, so some draws split into several
/// components; about a third of the CPT rows are deterministic, so the
/// clique potentials carry the structural zeros zero compression skips.
fn random_net(n: usize, seed: u64) -> BayesNet {
    let mut next = stream(seed);
    let mut net = BayesNet::new();
    for i in 0..n {
        let card = 2 + (next() % 3) as usize;
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
                if next().is_multiple_of(3) {
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
