//! Property tests for first-touch initialization: a compiled tree stores
//! no clique potential, and each calibration writes a clique's initial
//! values from its hosted factors the first time it touches the clique.
//! That must leave every clique potential, every sepset and the evidence
//! probability *bit-identical* (`f64::to_bits`) to the two-pass
//! reference, which starts from the factor-algebra potentials instead.
//!
//! The nets have one to three components, so single-clique components
//! (touched only by the final pass) occur, and mix deterministic with
//! random CPTs. Evidence of every kind lands on leaf, interior and root
//! cliques, and one state is reused across evidence sets, and across
//! trees: the collect pass overwrites each sepset before reading it, so
//! what a larger tree left in the buffer must not show.

use proptest::prelude::*;
use swact_bayesnet::{
    initial_potentials, BayesNet, CompiledTree, Cpt, Factor, JunctionTree, PropagationState,
    SparseMode, VarId,
};

/// xorshift64 stream from a seed.
fn rng(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// A net of disconnected components with `sizes[k]` variables each
/// (cardinalities 2–4, up to two parents inside the component).
/// `det_pct` percent of the non-root variables get a one-hot CPT.
fn build_net(sizes: &[usize], det_pct: u64, next: &mut impl FnMut() -> u64) -> BayesNet {
    let mut net = BayesNet::new();
    let mut first = 0;
    for &size in sizes {
        for i in 0..size {
            let card = 2 + (next() % 3) as usize;
            let mut parents: Vec<VarId> = Vec::new();
            if i > 0 {
                for _ in 0..1 + next() % 2 {
                    let p = VarId::from_index(first + (next() % i as u64) as usize);
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
                        (0..card).map(|s| f64::from(u8::from(s == hot))).collect()
                    } else {
                        let raw: Vec<f64> =
                            (0..card).map(|_| 1.0 + (next() % 1000) as f64).collect();
                        let total: f64 = raw.iter().sum();
                        raw.into_iter().map(|x| x / total).collect()
                    }
                })
                .collect();
            net.add_var(format!("v{}", first + i), card, &parents, Cpt::rows(cpt))
                .expect("generated net is valid");
        }
        first += size;
    }
    net
}

/// One observation entered into a state.
#[derive(Debug, Clone)]
enum Evidence {
    Hard(VarId, usize),
    Likelihood(VarId, Vec<f64>),
    Soft(Factor),
}

/// Cliques by role: component roots, leaves (one neighbour) and interior
/// cliques (two or more).
fn roles(tree: &JunctionTree) -> [Vec<usize>; 3] {
    let mut degree = vec![0usize; tree.num_cliques()];
    for (a, b, _) in tree.sepsets() {
        degree[a] += 1;
        degree[b] += 1;
    }
    let roots = tree.roots().to_vec();
    let others = (0..tree.num_cliques()).filter(|c| !roots.contains(c));
    let (leaves, interior) = others.partition(|&c| degree[c] == 1);
    [roots, leaves, interior]
}

/// One joint assignment with nonzero probability, by ancestral sampling
/// (parents precede children, so each variable is last in its CPT's
/// scope): hard evidence drawn from it is jointly possible.
fn possible_world(net: &BayesNet, next: &mut impl FnMut() -> u64) -> Vec<usize> {
    let mut world: Vec<usize> = Vec::with_capacity(net.num_vars());
    for var in net.var_ids() {
        let cpt = net.cpt_factor(var);
        let mut assignment: Vec<usize> = cpt.vars()[..cpt.vars().len() - 1]
            .iter()
            .map(|p| world[p.index()])
            .collect();
        assignment.push(0);
        let possible: Vec<usize> = (0..net.card(var))
            .filter(|&s| {
                *assignment.last_mut().expect("the child closes the scope") = s;
                cpt.values()[cpt.index_of(&assignment)] > 0.0
            })
            .collect();
        world.push(possible[(next() % possible.len() as u64) as usize]);
    }
    world
}

/// A random evidence set: a soft factor over the whole scope of one
/// clique of each role (so it lands in exactly that clique), plus hard
/// evidence drawn from a possible world and likelihoods on random
/// variables.
fn evidence_set(
    net: &BayesNet,
    tree: &JunctionTree,
    next: &mut impl FnMut() -> u64,
) -> Vec<Evidence> {
    let world = possible_world(net, next);
    let mut set = Vec::new();
    for cliques in roles(tree) {
        if cliques.is_empty() || next().is_multiple_of(4) {
            continue;
        }
        let clique = cliques[(next() % cliques.len() as u64) as usize];
        let scope: Vec<(VarId, usize)> = tree
            .clique(clique)
            .iter()
            .map(|&v| (v, tree.card(v)))
            .collect();
        let len = scope.iter().map(|&(_, c)| c).product();
        let values = (0..len)
            .map(|_| 0.05 + (next() % 1000) as f64 / 500.0)
            .collect();
        set.push(Evidence::Soft(Factor::new(scope, values)));
    }
    for (raw, &observed) in world.iter().enumerate() {
        let var = VarId::from_index(raw);
        let card = tree.card(var);
        match next() % 6 {
            0 => set.push(Evidence::Hard(var, observed)),
            1 => set.push(Evidence::Likelihood(
                var,
                (0..card).map(|_| (next() % 5) as f64 / 4.0).collect(),
            )),
            _ => {}
        }
    }
    set
}

fn enter(compiled: &CompiledTree, state: &mut PropagationState, set: &[Evidence]) {
    state.clear_evidence();
    for item in set {
        match item {
            Evidence::Hard(var, value) => compiled.set_evidence(state, *var, *value),
            Evidence::Likelihood(var, w) => compiled.set_likelihood(state, *var, w.clone()),
            Evidence::Soft(factor) => compiled.insert_factor(state, factor.clone()),
        }
        .expect("generated evidence fits the tree");
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|x| x.to_bits()).collect()
}

/// Every clique, every sepset and the evidence probability of `state`
/// equal the two-pass reference under the same evidence, bit for bit.
fn assert_matches_reference(
    compiled: &CompiledTree,
    state: &PropagationState,
    set: &[Evidence],
    what: &str,
) {
    let mut reference = compiled.new_state();
    enter(compiled, &mut reference, set);
    compiled.calibrate_two_pass(&mut reference);
    let tree = compiled.tree();
    for i in 0..tree.num_cliques() {
        prop_assert_eq!(
            bits(state.clique_potential(i)),
            bits(reference.clique_potential(i)),
            "{}: clique {}",
            what,
            i
        );
    }
    for e in 0..tree.num_edges() {
        prop_assert_eq!(
            bits(state.sepset_potential(e)),
            bits(reference.sepset_potential(e)),
            "{}: sepset {}",
            what,
            e
        );
    }
    prop_assert_eq!(
        state.evidence_probability().to_bits(),
        reference.evidence_probability().to_bits(),
        "{}: evidence probability",
        what
    );
}

/// Runs every evidence set through one reused state.
fn check(compiled: &CompiledTree, sets: &[Vec<Evidence>]) {
    let mut state = compiled.new_state();
    for set in sets {
        enter(compiled, &mut state, set);
        compiled.calibrate(&mut state);
        assert_matches_reference(compiled, &state, set, "calibrate");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn first_touch_calibration_is_bit_identical_to_the_reference(
        sizes in proptest::collection::vec(1usize..9, 1..=3),
        det_pct in 0u64..=100,
        seed in any::<u64>(),
    ) {
        let mut next = rng(seed);
        let net = build_net(&sizes, det_pct, &mut next);
        let tree = JunctionTree::compile(&net).expect("compiles");
        let sets: Vec<Vec<Evidence>> = (0..3).map(|_| evidence_set(&net, &tree, &mut next)).collect();
        let reference = initial_potentials(&tree, &net);
        for mode in SparseMode::ALL {
            let hosting = CompiledTree::new_with(tree.clone(), &net, mode).expect("non-empty");
            let explicit = CompiledTree::from_parts_with(tree.clone(), reference.clone(), mode);
            for compiled in [hosting, explicit] {
                for (i, init) in reference.iter().enumerate() {
                    prop_assert_eq!(
                        bits(compiled.first_touch_potential(i).values()),
                        bits(init.values()),
                        "first touch of clique {}",
                        i
                    );
                }
                check(&compiled, &sets);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A state last calibrated on a larger tree keeps that tree's values
    /// in its sepset buffer when rebound (the buffer only grows). The
    /// smaller multi-component net's calibration on it must still equal
    /// the two-pass reference on a fresh state, bit for bit.
    #[test]
    fn calibration_never_reads_a_sepset_before_writing_it(
        sizes in proptest::collection::vec(2usize..7, 2..=3),
        det_pct in 0u64..=100,
        seed in any::<u64>(),
    ) {
        let mut next = rng(seed);
        let net = build_net(&sizes, det_pct, &mut next);
        let larger_sizes: Vec<usize> = sizes.iter().map(|s| s + 3).chain([8]).collect();
        let larger_net = build_net(&larger_sizes, det_pct, &mut next);
        let tree = JunctionTree::compile(&net).expect("compiles");
        let larger_tree = JunctionTree::compile(&larger_net).expect("compiles");
        let sets: Vec<Vec<Evidence>> = (0..2).map(|_| evidence_set(&net, &tree, &mut next)).collect();
        let larger_set = evidence_set(&larger_net, &larger_tree, &mut next);
        for mode in SparseMode::ALL {
            let compiled = CompiledTree::new_with(tree.clone(), &net, mode).expect("non-empty");
            let larger = CompiledTree::new_with(larger_tree.clone(), &larger_net, mode)
                .expect("non-empty");
            prop_assume!(larger.sepset_space() >= compiled.sepset_space());
            prop_assume!(compiled.tree().num_edges() > 0);
            let mut state = larger.new_state();
            enter(&larger, &mut state, &larger_set);
            larger.calibrate(&mut state);
            let buffer = state.sepset_potential(0).as_ptr();
            for set in &sets {
                compiled.bind_state(&mut state);
                enter(&compiled, &mut state, set);
                compiled.calibrate(&mut state);
                prop_assert_eq!(
                    state.sepset_potential(0).as_ptr(),
                    buffer,
                    "rebinding reallocated the sepset buffer"
                );
                assert_matches_reference(&compiled, &state, set, "rebound");
                // Calibrate the larger tree again, so the next set also
                // starts from its leftovers.
                larger.bind_state(&mut state);
                enter(&larger, &mut state, &larger_set);
                larger.calibrate(&mut state);
            }
        }
    }
}
