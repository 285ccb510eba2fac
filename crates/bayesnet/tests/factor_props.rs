//! Property tests for the factor algebra — the foundation every inference
//! result rests on.

use proptest::prelude::*;
use swact_bayesnet::{Factor, VarId};

/// Strategy: a random factor over a subset of 4 variables with mixed
/// cardinalities and non-negative values.
fn arb_factor(var_pool: &'static [(usize, usize)]) -> impl Strategy<Value = Factor> {
    proptest::sample::subsequence(var_pool.to_vec(), 1..=var_pool.len()).prop_flat_map(|vars| {
        let scope: Vec<(VarId, usize)> = vars
            .iter()
            .map(|&(v, c)| (VarId::from_index(v), c))
            .collect();
        let size: usize = scope.iter().map(|&(_, c)| c).product();
        proptest::collection::vec(0.0f64..4.0, size)
            .prop_map(move |values| Factor::new(scope.clone(), values))
    })
}

const POOL: &[(usize, usize)] = &[(0, 2), (1, 3), (2, 2), (3, 4)];

fn factors_close(a: &Factor, b: &Factor, tol: f64) -> bool {
    a.vars() == b.vars()
        && a.values()
            .iter()
            .zip(b.values())
            .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Multiplication commutes.
    #[test]
    fn product_commutes(a in arb_factor(POOL), b in arb_factor(POOL)) {
        prop_assert!(factors_close(&a.product(&b), &b.product(&a), 1e-12));
    }

    /// Multiplication associates.
    #[test]
    fn product_associates(
        a in arb_factor(POOL),
        b in arb_factor(POOL),
        c in arb_factor(POOL),
    ) {
        let left = a.product(&b).product(&c);
        let right = a.product(&b.product(&c));
        prop_assert!(factors_close(&left, &right, 1e-10));
    }

    /// The all-ones factor is a multiplicative identity on any subscope.
    #[test]
    fn ones_is_identity(a in arb_factor(POOL)) {
        let ones = Factor::ones(
            a.vars().iter().zip(a.cards()).map(|(&v, &c)| (v, c)).collect(),
        );
        prop_assert!(factors_close(&a.product(&ones), &a, 1e-12));
    }

    /// Total mass is preserved by marginalization.
    #[test]
    fn marginalization_preserves_total(a in arb_factor(POOL)) {
        for keep_mask in 0..(1usize << a.vars().len()) {
            let keep: Vec<VarId> = a
                .vars()
                .iter()
                .enumerate()
                .filter(|(i, _)| keep_mask >> i & 1 == 1)
                .map(|(_, &v)| v)
                .collect();
            let m = a.marginalize_keep(&keep);
            prop_assert!((m.total() - a.total()).abs() < 1e-9);
        }
    }

    /// Summing out variables one at a time equals summing them out at once.
    #[test]
    fn sum_out_order_is_irrelevant(a in arb_factor(POOL)) {
        if a.vars().len() >= 2 {
            let (x, y) = (a.vars()[0], a.vars()[1]);
            let keep: Vec<VarId> = a.vars()[2..].to_vec();
            let stepwise = a.sum_out(x).sum_out(y);
            let stepwise_rev = a.sum_out(y).sum_out(x);
            let at_once = a.marginalize_keep(&keep);
            prop_assert!(factors_close(&stepwise, &at_once, 1e-10));
            prop_assert!(factors_close(&stepwise_rev, &at_once, 1e-10));
        }
    }

    /// Distributivity of marginalization over products with disjoint extra
    /// scope: Σ_x (f·g) = (Σ_x f)·g when g does not mention x.
    #[test]
    fn marginalize_commutes_with_independent_product(
        f in arb_factor(&[(0, 2), (1, 3)]),
        g in arb_factor(&[(2, 2), (3, 4)]),
    ) {
        let x = f.vars()[0];
        let left = f.product(&g).sum_out(x);
        let right = f.sum_out(x).product(&g);
        prop_assert!(factors_close(&left, &right, 1e-10));
    }

    /// `mul_assign_sub` matches `product` whenever scopes are nested.
    #[test]
    fn in_place_multiply_matches_product(a in arb_factor(POOL)) {
        // Build a sub-scope factor from a's first variable.
        let v = a.vars()[0];
        let c = a.cards()[0];
        let sub = Factor::new(vec![(v, c)], (0..c).map(|i| 0.5 + i as f64).collect());
        let mut in_place = a.clone();
        in_place.mul_assign_sub(&sub);
        prop_assert!(factors_close(&in_place, &a.product(&sub), 1e-12));
    }

    /// The fused product-marginalize kernel matches the two-step pipeline
    /// on every keep subset.
    #[test]
    fn product_marginalize_matches_two_step(
        a in arb_factor(POOL),
        b in arb_factor(POOL),
        keep_mask in 0usize..16,
    ) {
        let all_vars: Vec<VarId> = (0..4).map(VarId::from_index).collect();
        let keep: Vec<VarId> = all_vars
            .iter()
            .enumerate()
            .filter(|(i, _)| keep_mask >> i & 1 == 1)
            .map(|(_, &v)| v)
            .collect();
        let fused = a.product_marginalize(&b, &keep);
        let two_step = a.product(&b).marginalize_keep(&keep);
        prop_assert!(factors_close(&fused, &two_step, 1e-10));
    }

    /// Division undoes multiplication where the divisor is nonzero.
    #[test]
    fn division_inverts_multiplication(a in arb_factor(POOL)) {
        let b = Factor::new(
            a.vars().iter().zip(a.cards()).map(|(&v, &c)| (v, c)).collect(),
            (0..a.len()).map(|i| 1.0 + (i % 5) as f64).collect(),
        );
        let back = a.product(&b).divide_same_domain(&b);
        prop_assert!(factors_close(&back, &a, 1e-10));
    }

    /// Normalization yields a distribution (when mass is positive) and is
    /// idempotent.
    #[test]
    fn normalize_idempotent(mut a in arb_factor(POOL)) {
        let total = a.normalize();
        if total > 0.0 {
            prop_assert!((a.total() - 1.0).abs() < 1e-9);
            let mut again = a.clone();
            let second = again.normalize();
            prop_assert!((second - 1.0).abs() < 1e-9);
            prop_assert!(factors_close(&a, &again, 1e-12));
        }
    }

    /// Reducing and then summing out equals slicing the assignment.
    #[test]
    fn reduce_then_sum_out_is_slice(a in arb_factor(POOL), state_raw in 0usize..4) {
        let v = a.vars()[0];
        let c = a.cards()[0];
        let state = state_raw % c;
        let mut reduced = a.clone();
        reduced.reduce(v, state);
        let sliced = reduced.sum_out(v);
        // Check against manual slicing.
        for idx in 0..sliced.len() {
            let sub = sliced.assignment_of(idx);
            let mut full = Vec::with_capacity(a.vars().len());
            full.push(state);
            full.extend_from_slice(&sub);
            let expect = a.values()[a.index_of(&full)];
            prop_assert!((sliced.values()[idx] - expect).abs() < 1e-12);
        }
    }

    /// The stride loops of `reduce`, `scale_state` and the one-variable
    /// `marginalize_keep` touch exactly the entries the per-entry
    /// `(idx / stride) % card` formula selects, in ascending order, with
    /// bit-identical results.
    #[test]
    fn stride_loops_match_the_per_entry_formula(
        a in arb_factor(POOL),
        pick in 0usize..4,
        state_raw in 0usize..4,
        weight in 0.0f64..3.0,
    ) {
        let pos = pick % a.vars().len();
        let var = a.vars()[pos];
        let card = a.cards()[pos];
        let state = state_raw % card;
        let stride: usize = a.cards()[pos + 1..].iter().product();
        let selected = |idx: usize| (idx / stride) % card == state;

        let mut reduced = a.clone();
        reduced.reduce(var, state);
        let mut scaled = a.clone();
        scaled.scale_state(var, state, weight);
        for (idx, &x) in a.values().iter().enumerate() {
            let want_reduced = if selected(idx) { x } else { 0.0 };
            let want_scaled = if selected(idx) { x * weight } else { x };
            prop_assert_eq!(reduced.values()[idx].to_bits(), want_reduced.to_bits());
            prop_assert_eq!(scaled.values()[idx].to_bits(), want_scaled.to_bits());
        }
        let mut sums = vec![0.0f64; card];
        for (idx, &x) in a.values().iter().enumerate() {
            sums[(idx / stride) % card] += x;
        }
        let marginal = a.marginalize_keep(&[var]);
        prop_assert_eq!(marginal.vars(), &[var][..]);
        let got: Vec<u64> = marginal.values().iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = sums.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got, want);
        // A variable outside the scope leaves the factor untouched.
        let mut untouched = a.clone();
        untouched.reduce(VarId::from_index(9), 0);
        untouched.scale_state(VarId::from_index(9), 0, weight);
        prop_assert_eq!(untouched, a);
    }
}
