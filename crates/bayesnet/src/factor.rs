use std::fmt;

use crate::BayesError;

/// Identifier of a random variable within one [`BayesNet`] / factor system.
///
/// Ids are dense (`0..n`) and define the canonical variable order inside
/// [`Factor`]s.
///
/// [`BayesNet`]: crate::BayesNet
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// The dense index of this variable.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `VarId` from a dense index.
    pub fn from_index(index: usize) -> VarId {
        VarId(u32::try_from(index).expect("variable index exceeds u32 range"))
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "X{}", self.0)
    }
}

/// A dense non-negative real-valued table over a set of discrete variables —
/// the workhorse of all exact inference in this crate.
///
/// Variables are kept **sorted by id**; values are stored row-major with the
/// *last* (highest-id) variable fastest. All algebra ([`product`],
/// [`divide_same_domain`], [`marginalize_keep`], [`reduce`]) preserves this
/// canonical layout, so factors over the same variable set are always
/// element-wise aligned.
///
/// [`product`]: Factor::product
/// [`divide_same_domain`]: Factor::divide_same_domain
/// [`marginalize_keep`]: Factor::marginalize_keep
/// [`reduce`]: Factor::reduce
///
/// # Example
///
/// ```
/// use swact_bayesnet::{Factor, VarId};
///
/// let a = VarId::from_index(0);
/// let b = VarId::from_index(1);
/// // P(a): [0.4, 0.6]
/// let pa = Factor::new(vec![(a, 2)], vec![0.4, 0.6]);
/// // P(b|a) as a joint-shaped table over (a, b), b fastest.
/// let pba = Factor::new(vec![(a, 2), (b, 2)], vec![0.9, 0.1, 0.2, 0.8]);
/// let joint = pa.product(&pba);
/// let pb = joint.marginalize_keep(&[b]);
/// assert!((pb.values()[1] - (0.4 * 0.1 + 0.6 * 0.8)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Factor {
    vars: Vec<VarId>,
    cards: Vec<usize>,
    values: Vec<f64>,
}

impl Factor {
    /// Creates a factor over `(variable, cardinality)` pairs with explicit
    /// values in canonical layout (variables sorted ascending, last variable
    /// fastest).
    ///
    /// # Panics
    ///
    /// Panics if variables are not strictly ascending, a cardinality is
    /// zero, or `values.len()` differs from the product of cardinalities.
    pub fn new(scope: Vec<(VarId, usize)>, values: Vec<f64>) -> Factor {
        let mut vars = Vec::with_capacity(scope.len());
        let mut cards = Vec::with_capacity(scope.len());
        for (v, c) in scope {
            assert!(c > 0, "cardinality of {v} must be positive");
            if let Some(&last) = vars.last() {
                assert!(v > last, "factor scope must be strictly ascending");
            }
            vars.push(v);
            cards.push(c);
        }
        let size: usize = cards.iter().product();
        assert_eq!(
            values.len(),
            size,
            "value count must equal the product of cardinalities"
        );
        Factor {
            vars,
            cards,
            values,
        }
    }

    /// A factor of all ones over the given scope (the multiplicative
    /// identity for [`product`](Factor::product) on that scope).
    pub fn ones(scope: Vec<(VarId, usize)>) -> Factor {
        let size: usize = scope.iter().map(|&(_, c)| c).product();
        Factor::new(scope, vec![1.0; size])
    }

    /// A scalar (empty-scope) factor.
    pub fn scalar(value: f64) -> Factor {
        Factor {
            vars: Vec::new(),
            cards: Vec::new(),
            values: vec![value],
        }
    }

    /// The factor's variables, ascending.
    pub fn vars(&self) -> &[VarId] {
        &self.vars
    }

    /// Cardinalities aligned with [`vars`](Factor::vars).
    pub fn cards(&self) -> &[usize] {
        &self.cards
    }

    /// The raw table in canonical layout.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the raw table (canonical layout).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Number of table entries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the factor is a scalar.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Position of `var` in the scope, if present.
    pub fn position(&self, var: VarId) -> Option<usize> {
        self.vars.binary_search(&var).ok()
    }

    /// Strides per scope position (last variable has stride 1).
    fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.vars.len()];
        for i in (0..self.vars.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.cards[i + 1];
        }
        strides
    }

    /// Row-major stride of scope position `pos`.
    fn stride_at(&self, pos: usize) -> usize {
        self.cards[pos + 1..].iter().product()
    }

    /// Linear index of an assignment (aligned with the scope).
    ///
    /// # Panics
    ///
    /// Panics if the assignment length or any state is out of range.
    pub fn index_of(&self, assignment: &[usize]) -> usize {
        assert_eq!(assignment.len(), self.vars.len());
        let strides = self.strides();
        let mut idx = 0;
        for (i, &state) in assignment.iter().enumerate() {
            assert!(state < self.cards[i], "state out of range");
            idx += state * strides[i];
        }
        idx
    }

    /// Decodes a linear index into an assignment aligned with the scope.
    pub fn assignment_of(&self, mut index: usize) -> Vec<usize> {
        let mut assignment = vec![0usize; self.vars.len()];
        for i in (0..self.vars.len()).rev() {
            assignment[i] = index % self.cards[i];
            index /= self.cards[i];
        }
        assignment
    }

    /// Merges the two scopes (sorted union), checking that shared
    /// variables agree on cardinality.
    fn merged_scope(&self, other: &Factor) -> Result<Vec<(VarId, usize)>, BayesError> {
        let mut scope: Vec<(VarId, usize)> = Vec::with_capacity(self.vars.len() + other.vars.len());
        let (mut i, mut j) = (0, 0);
        while i < self.vars.len() || j < other.vars.len() {
            let take_self =
                j >= other.vars.len() || (i < self.vars.len() && self.vars[i] <= other.vars[j]);
            if take_self {
                if j < other.vars.len() && self.vars[i] == other.vars[j] {
                    if self.cards[i] != other.cards[j] {
                        return Err(BayesError::FactorCardinalityMismatch {
                            var: self.vars[i].0,
                            left: self.cards[i],
                            right: other.cards[j],
                        });
                    }
                    j += 1;
                }
                scope.push((self.vars[i], self.cards[i]));
                i += 1;
            } else {
                scope.push((other.vars[j], other.cards[j]));
                j += 1;
            }
        }
        Ok(scope)
    }

    /// Pointwise product, over the union of the two scopes.
    ///
    /// Shared variables must have matching cardinalities (panics
    /// otherwise); [`try_product`](Factor::try_product) is the fallible
    /// form.
    pub fn product(&self, other: &Factor) -> Factor {
        self.try_product(other).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Pointwise product, over the union of the two scopes.
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::FactorCardinalityMismatch`] when a shared
    /// variable's cardinalities disagree.
    pub fn try_product(&self, other: &Factor) -> Result<Factor, BayesError> {
        let scope = self.merged_scope(other)?;
        let result_cards: Vec<usize> = scope.iter().map(|&(_, c)| c).collect();
        let size: usize = result_cards.iter().product();
        // Per result position: stride into each operand (0 when absent).
        let self_strides = self.strides();
        let other_strides = other.strides();
        let mut sa = vec![0usize; scope.len()];
        let mut sb = vec![0usize; scope.len()];
        for (pos, &(v, _)) in scope.iter().enumerate() {
            if let Some(p) = self.position(v) {
                sa[pos] = self_strides[p];
            }
            if let Some(p) = other.position(v) {
                sb[pos] = other_strides[p];
            }
        }
        let mut values = Vec::with_capacity(size);
        let mut digits = vec![0usize; scope.len()];
        let (mut ia, mut ib) = (0usize, 0usize);
        for _ in 0..size {
            values.push(self.values[ia] * other.values[ib]);
            // Odometer increment, last digit fastest.
            for pos in (0..scope.len()).rev() {
                digits[pos] += 1;
                ia += sa[pos];
                ib += sb[pos];
                if digits[pos] < result_cards[pos] {
                    break;
                }
                digits[pos] = 0;
                ia -= sa[pos] * result_cards[pos];
                ib -= sb[pos] * result_cards[pos];
            }
        }
        Ok(Factor {
            vars: scope.iter().map(|&(v, _)| v).collect(),
            cards: result_cards,
            values,
        })
    }

    /// Fused `product(other).marginalize_keep(keep)` without materializing
    /// the full product — the hot kernel of cross-clique pairwise
    /// marginalization, where the product scope is a whole clique but only
    /// a few variables survive.
    ///
    /// Shared variables must have matching cardinalities (panics
    /// otherwise).
    pub fn product_marginalize(&self, other: &Factor, keep: &[VarId]) -> Factor {
        let scope = self.merged_scope(other).unwrap_or_else(|e| panic!("{e}"));
        let full_cards: Vec<usize> = scope.iter().map(|&(_, c)| c).collect();
        let size: usize = full_cards.iter().product();
        // Target scope and strides.
        let scope_vars: Vec<VarId> = scope.iter().map(|&(v, _)| v).collect();
        let kept = kept_positions(&scope_vars, keep);
        let target_scope: Vec<(VarId, usize)> = kept.iter().map(|&k| scope[k]).collect();
        let target_size: usize = target_scope.iter().map(|&(_, c)| c).product();
        let mut values = vec![0.0f64; target_size.max(1)];
        let self_strides = self.strides();
        let other_strides = other.strides();
        let mut sa = vec![0usize; scope.len()];
        let mut sb = vec![0usize; scope.len()];
        let mut st = vec![0usize; scope.len()];
        for (pos, &(v, _)) in scope.iter().enumerate() {
            if let Some(p) = self.position(v) {
                sa[pos] = self_strides[p];
            }
            if let Some(p) = other.position(v) {
                sb[pos] = other_strides[p];
            }
        }
        {
            let mut stride = 1usize;
            for (rank, &k) in kept.iter().enumerate().rev() {
                st[k] = stride;
                stride *= target_scope[rank].1;
            }
        }
        let mut digits = vec![0usize; scope.len()];
        let (mut ia, mut ib, mut it) = (0usize, 0usize, 0usize);
        for _ in 0..size {
            values[it] += self.values[ia] * other.values[ib];
            for pos in (0..scope.len()).rev() {
                digits[pos] += 1;
                ia += sa[pos];
                ib += sb[pos];
                it += st[pos];
                if digits[pos] < full_cards[pos] {
                    break;
                }
                digits[pos] = 0;
                ia -= sa[pos] * full_cards[pos];
                ib -= sb[pos] * full_cards[pos];
                it -= st[pos] * full_cards[pos];
            }
        }
        Factor {
            vars: target_scope.iter().map(|&(v, _)| v).collect(),
            cards: target_scope.iter().map(|&(_, c)| c).collect(),
            values,
        }
    }

    /// In-place pointwise multiplication by a factor whose scope is a
    /// **subset** of this factor's scope. Avoids the allocation and scope
    /// merge of [`product`](Factor::product) — the hot path of junction-tree
    /// absorption, where sepset updates multiply into clique potentials.
    ///
    /// # Panics
    ///
    /// Panics if `other` mentions a variable absent from `self` or with a
    /// mismatched cardinality.
    pub fn mul_assign_sub(&mut self, other: &Factor) {
        let other_strides = other.strides();
        // Stride of each of self's positions within `other` (0 if absent).
        let mut sub_strides = vec![0usize; self.vars.len()];
        for (pos, &v) in other.vars.iter().enumerate() {
            let self_pos = self
                .position(v)
                .expect("subset multiplication requires scope containment");
            assert_eq!(
                self.cards[self_pos], other.cards[pos],
                "cardinality mismatch for {v}"
            );
            sub_strides[self_pos] = other_strides[pos];
        }
        let mut digits = vec![0usize; self.vars.len()];
        let mut oi = 0usize;
        for v in &mut self.values {
            *v *= other.values[oi];
            for pos in (0..digits.len()).rev() {
                digits[pos] += 1;
                oi += sub_strides[pos];
                if digits[pos] < self.cards[pos] {
                    break;
                }
                digits[pos] = 0;
                oi -= sub_strides[pos] * self.cards[pos];
            }
        }
    }

    /// In-place pointwise division by a factor whose scope is a **subset**
    /// of this factor's scope, with the HUGIN convention `0 / 0 = 0`.
    ///
    /// # Panics
    ///
    /// Panics if `other` mentions a variable absent from `self`, on a
    /// cardinality mismatch, or on `x / 0` with `x ≠ 0`.
    pub fn div_assign_sub(&mut self, other: &Factor) {
        let other_strides = other.strides();
        let mut sub_strides = vec![0usize; self.vars.len()];
        for (pos, &v) in other.vars.iter().enumerate() {
            let self_pos = self
                .position(v)
                .expect("subset division requires scope containment");
            assert_eq!(
                self.cards[self_pos], other.cards[pos],
                "cardinality mismatch for {v}"
            );
            sub_strides[self_pos] = other_strides[pos];
        }
        let mut digits = vec![0usize; self.vars.len()];
        let mut oi = 0usize;
        for v in &mut self.values {
            let d = other.values[oi];
            if d == 0.0 {
                assert!(*v == 0.0, "division of nonzero {v} by zero entry");
                *v = 0.0;
            } else {
                *v /= d;
            }
            for pos in (0..digits.len()).rev() {
                digits[pos] += 1;
                oi += sub_strides[pos];
                if digits[pos] < self.cards[pos] {
                    break;
                }
                digits[pos] = 0;
                oi -= sub_strides[pos] * self.cards[pos];
            }
        }
    }

    /// Pointwise division by a factor over the *same* scope, with the HUGIN
    /// convention `0 / 0 = 0`.
    ///
    /// # Panics
    ///
    /// Panics if the scopes differ, or on `x / 0` with `x != 0` (which would
    /// indicate a propagation-order bug, not a data condition);
    /// [`try_divide_same_domain`](Factor::try_divide_same_domain) is the
    /// fallible form.
    pub fn divide_same_domain(&self, other: &Factor) -> Factor {
        self.try_divide_same_domain(other)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Pointwise division by a factor over the *same* scope, with the HUGIN
    /// convention `0 / 0 = 0`.
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::FactorScopeMismatch`] when the scopes differ
    /// and [`BayesError::FactorDivisionByZero`] on `x / 0` with `x ≠ 0`.
    pub fn try_divide_same_domain(&self, other: &Factor) -> Result<Factor, BayesError> {
        if self.vars != other.vars || self.cards != other.cards {
            return Err(BayesError::FactorScopeMismatch);
        }
        let mut values = Vec::with_capacity(self.values.len());
        for (&a, &b) in self.values.iter().zip(&other.values) {
            if b == 0.0 {
                if a != 0.0 {
                    return Err(BayesError::FactorDivisionByZero { value: a });
                }
                values.push(0.0);
            } else {
                values.push(a / b);
            }
        }
        Ok(Factor {
            vars: self.vars.clone(),
            cards: self.cards.clone(),
            values,
        })
    }

    /// Sums out every variable *not* in `keep`, returning the marginal over
    /// `keep ∩ scope` (missing variables are ignored).
    pub fn marginalize_keep(&self, keep: &[VarId]) -> Factor {
        let kept = kept_positions(&self.vars, keep);
        if kept.len() == self.vars.len() {
            return self.clone();
        }
        let result_scope: Vec<(VarId, usize)> = kept
            .iter()
            .map(|&i| (self.vars[i], self.cards[i]))
            .collect();
        let result_cards: Vec<usize> = result_scope.iter().map(|&(_, c)| c).collect();
        let size: usize = result_cards.iter().product();
        let mut values = vec![0.0; size.max(1)];
        if let [pos] = kept[..] {
            self.fold_onto(pos, &mut values);
            return Factor {
                vars: result_scope.iter().map(|&(v, _)| v).collect(),
                cards: result_cards,
                values,
            };
        }
        // Walk the source with an odometer, maintaining the target index.
        let mut target_strides = vec![0usize; self.vars.len()];
        {
            let mut stride = 1usize;
            for (rank, &i) in kept.iter().enumerate().rev() {
                target_strides[i] = stride;
                stride *= result_cards[rank];
            }
        }
        let mut digits = vec![0usize; self.vars.len()];
        let mut target = 0usize;
        for &v in &self.values {
            values[target] += v;
            for pos in (0..self.vars.len()).rev() {
                digits[pos] += 1;
                target += target_strides[pos];
                if digits[pos] < self.cards[pos] {
                    break;
                }
                digits[pos] = 0;
                target -= target_strides[pos] * self.cards[pos];
            }
        }
        Factor {
            vars: result_scope.iter().map(|&(v, _)| v).collect(),
            cards: result_cards,
            values,
        }
    }

    /// Adds the marginal over scope position `pos` into `out` (one slot
    /// per state): outer block × card × stride. Each state's sum takes its
    /// entries in ascending source order, exactly as the odometer of
    /// [`marginalize_keep`](Factor::marginalize_keep) adds them.
    fn fold_onto(&self, pos: usize, out: &mut [f64]) {
        let stride = self.stride_at(pos);
        for block in self.values.chunks_exact(self.cards[pos] * stride) {
            for (slot, run) in out.iter_mut().zip(block.chunks_exact(stride)) {
                let mut acc = *slot;
                for &v in run {
                    acc += v;
                }
                *slot = acc;
            }
        }
    }

    /// `marginalize_keep(&[var])` followed by
    /// [`normalize`](Factor::normalize), written into `out` without
    /// allocating: the same fold (a one-variable scope is copied, as
    /// `marginalize_keep` clones it) and the same sum-then-divide, so the
    /// bits are the same.
    ///
    /// # Panics
    ///
    /// Panics if `var` is outside the scope or `out` is not one slot per
    /// state of `var`.
    pub(crate) fn normalized_marginal_into(&self, var: VarId, out: &mut [f64]) {
        let pos = self.position(var).expect("marginal of a variable in scope");
        assert_eq!(out.len(), self.cards[pos], "one slot per state of {var}");
        if self.vars.len() == 1 {
            out.copy_from_slice(&self.values);
        } else {
            out.fill(0.0);
            self.fold_onto(pos, out);
        }
        let total: f64 = out.iter().sum();
        if total > 0.0 {
            for v in out {
                *v /= total;
            }
        }
    }

    /// Sums out a single variable. Equivalent to
    /// [`marginalize_keep`](Factor::marginalize_keep) with the rest of the
    /// scope; a no-op if `var` is absent.
    pub fn sum_out(&self, var: VarId) -> Factor {
        if self.position(var).is_none() {
            return self.clone();
        }
        let keep: Vec<VarId> = self.vars.iter().copied().filter(|&v| v != var).collect();
        self.marginalize_keep(&keep)
    }

    /// Zeroes every entry where `var != state`, keeping the scope intact
    /// (HUGIN-style evidence insertion). A no-op if `var` is absent.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range for `var`.
    pub fn reduce(&mut self, var: VarId, state: usize) {
        let Some(pos) = self.position(var) else {
            return;
        };
        assert!(state < self.cards[pos], "evidence state out of range");
        let (card, stride) = (self.cards[pos], self.stride_at(pos));
        // Outer block × card × stride: each block holds one run of
        // `stride` entries per state of `var`.
        for block in self.values.chunks_exact_mut(card * stride) {
            for (s, run) in block.chunks_exact_mut(stride).enumerate() {
                if s != state {
                    run.fill(0.0);
                }
            }
        }
    }

    /// Multiplies every entry where `var == state` by `weight`, keeping the
    /// scope intact (soft / likelihood evidence). A no-op if `var` is
    /// absent.
    pub fn scale_state(&mut self, var: VarId, state: usize, weight: f64) {
        let Some(pos) = self.position(var) else {
            return;
        };
        assert!(state < self.cards[pos], "state out of range");
        let (card, stride) = (self.cards[pos], self.stride_at(pos));
        for block in self.values.chunks_exact_mut(card * stride) {
            for v in &mut block[state * stride..(state + 1) * stride] {
                *v *= weight;
            }
        }
    }

    /// Sum of all entries.
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Scales the table so it sums to one.
    ///
    /// Returns the normalization constant (the pre-normalization total). A
    /// zero factor is left unchanged and reports 0.
    pub fn normalize(&mut self) -> f64 {
        let total = self.total();
        if total > 0.0 {
            for v in &mut self.values {
                *v /= total;
            }
        }
        total
    }

    /// Largest absolute element-wise difference to a same-scope factor.
    ///
    /// # Panics
    ///
    /// Panics if the scopes differ.
    pub fn max_abs_diff(&self, other: &Factor) -> f64 {
        assert_eq!(self.vars, other.vars, "comparison requires identical scope");
        self.values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// Positions `i` of `vars` (sorted ascending) with `vars[i] ∈ keep`, via a
/// sorted merge — O(|vars| + |keep| log |keep|) instead of the quadratic
/// `keep.contains` scan. `keep` need not be sorted or deduplicated.
fn kept_positions(vars: &[VarId], keep: &[VarId]) -> Vec<usize> {
    let mut keep_sorted: Vec<VarId> = keep.to_vec();
    keep_sorted.sort_unstable();
    let mut kept = Vec::with_capacity(keep_sorted.len().min(vars.len()));
    let mut j = 0;
    for (i, &v) in vars.iter().enumerate() {
        while j < keep_sorted.len() && keep_sorted[j] < v {
            j += 1;
        }
        if j < keep_sorted.len() && keep_sorted[j] == v {
            kept.push(i);
        }
    }
    kept
}

impl fmt::Display for Factor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Factor(")?;
        for (i, v) in self.vars.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}:{}", self.cards[i])?;
        }
        write!(f, ") [{} entries]", self.values.len())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn v(i: usize) -> VarId {
        VarId::from_index(i)
    }

    #[test]
    fn index_round_trip() {
        let f = Factor::ones(vec![(v(0), 2), (v(1), 3), (v(2), 2)]);
        for idx in 0..f.len() {
            let a = f.assignment_of(idx);
            assert_eq!(f.index_of(&a), idx);
        }
        // Last variable is fastest.
        assert_eq!(f.index_of(&[0, 0, 1]), 1);
        assert_eq!(f.index_of(&[0, 1, 0]), 2);
        assert_eq!(f.index_of(&[1, 0, 0]), 6);
    }

    #[test]
    fn product_disjoint_scopes() {
        let fa = Factor::new(vec![(v(0), 2)], vec![0.25, 0.75]);
        let fb = Factor::new(vec![(v(1), 2)], vec![0.5, 0.5]);
        let p = fa.product(&fb);
        assert_eq!(p.vars(), &[v(0), v(1)]);
        assert_eq!(p.values(), &[0.125, 0.125, 0.375, 0.375]);
    }

    #[test]
    fn product_shared_scope_is_pointwise() {
        let fa = Factor::new(vec![(v(0), 3)], vec![1.0, 2.0, 3.0]);
        let fb = Factor::new(vec![(v(0), 3)], vec![5.0, 7.0, 11.0]);
        assert_eq!(fa.product(&fb).values(), &[5.0, 14.0, 33.0]);
    }

    #[test]
    fn product_overlapping_scopes() {
        // f(a,b) * g(b,c)
        let f = Factor::new(vec![(v(0), 2), (v(1), 2)], vec![1.0, 2.0, 3.0, 4.0]);
        let g = Factor::new(vec![(v(1), 2), (v(2), 2)], vec![10.0, 20.0, 30.0, 40.0]);
        let p = f.product(&g);
        assert_eq!(p.vars(), &[v(0), v(1), v(2)]);
        // Entry (a,b,c) = f[a,b] * g[b,c].
        for a in 0..2 {
            for b in 0..2 {
                for c in 0..2 {
                    let want = f.values()[f.index_of(&[a, b])] * g.values()[g.index_of(&[b, c])];
                    assert_eq!(p.values()[p.index_of(&[a, b, c])], want);
                }
            }
        }
    }

    #[test]
    fn product_with_scalar_identity() {
        let f = Factor::new(vec![(v(0), 2)], vec![0.5, 0.5]);
        let one = Factor::scalar(1.0);
        assert_eq!(one.product(&f), f);
        assert_eq!(f.product(&one), f);
    }

    #[test]
    fn marginalize_sums_correctly() {
        let f = Factor::new(vec![(v(0), 2), (v(1), 3)], vec![1., 2., 3., 4., 5., 6.]);
        let m0 = f.marginalize_keep(&[v(0)]);
        assert_eq!(m0.values(), &[6.0, 15.0]);
        let m1 = f.marginalize_keep(&[v(1)]);
        assert_eq!(m1.values(), &[5.0, 7.0, 9.0]);
        let none = f.marginalize_keep(&[]);
        assert_eq!(none.values(), &[21.0]);
        assert!(none.is_empty());
    }

    #[test]
    fn marginalize_keep_preserves_full_scope() {
        let f = Factor::new(vec![(v(0), 2)], vec![0.4, 0.6]);
        assert_eq!(f.marginalize_keep(&[v(0), v(5)]), f);
    }

    #[test]
    fn sum_out_absent_var_is_noop() {
        let f = Factor::new(vec![(v(0), 2)], vec![0.4, 0.6]);
        assert_eq!(f.sum_out(v(3)), f);
    }

    #[test]
    fn division_with_zero_by_zero() {
        let a = Factor::new(vec![(v(0), 2)], vec![0.0, 0.6]);
        let b = Factor::new(vec![(v(0), 2)], vec![0.0, 0.3]);
        let d = a.divide_same_domain(&b);
        assert_eq!(d.values(), &[0.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "division of nonzero")]
    fn division_nonzero_by_zero_panics() {
        let a = Factor::new(vec![(v(0), 2)], vec![0.5, 0.6]);
        let b = Factor::new(vec![(v(0), 2)], vec![0.0, 0.3]);
        let _ = a.divide_same_domain(&b);
    }

    #[test]
    fn reduce_zeroes_other_states() {
        let mut f = Factor::new(vec![(v(0), 2), (v(1), 2)], vec![1., 2., 3., 4.]);
        f.reduce(v(1), 0);
        assert_eq!(f.values(), &[1.0, 0.0, 3.0, 0.0]);
        // Reducing an absent variable is a no-op.
        let before = f.clone();
        f.reduce(v(9), 1);
        assert_eq!(f, before);
    }

    #[test]
    fn scale_state_applies_likelihood() {
        let mut f = Factor::new(vec![(v(0), 2)], vec![1.0, 1.0]);
        f.scale_state(v(0), 1, 0.25);
        assert_eq!(f.values(), &[1.0, 0.25]);
    }

    #[test]
    fn normalize_returns_constant() {
        let mut f = Factor::new(vec![(v(0), 2)], vec![1.0, 3.0]);
        let z = f.normalize();
        assert_eq!(z, 4.0);
        assert_eq!(f.values(), &[0.25, 0.75]);
        let mut zero = Factor::new(vec![(v(0), 2)], vec![0.0, 0.0]);
        assert_eq!(zero.normalize(), 0.0);
    }

    #[test]
    fn mul_assign_sub_matches_product() {
        let f = Factor::new(
            vec![(v(0), 2), (v(1), 3), (v(2), 2)],
            (0..12).map(|i| i as f64 + 1.0).collect(),
        );
        for other in [
            Factor::new(vec![(v(1), 3)], vec![2.0, 3.0, 5.0]),
            Factor::new(vec![(v(0), 2), (v(2), 2)], vec![1.0, 2.0, 3.0, 4.0]),
            Factor::scalar(7.0),
            f.clone(),
        ] {
            let mut in_place = f.clone();
            in_place.mul_assign_sub(&other);
            assert_eq!(in_place, f.product(&other));
        }
    }

    #[test]
    #[should_panic(expected = "scope containment")]
    fn mul_assign_sub_requires_subset() {
        let mut f = Factor::ones(vec![(v(0), 2)]);
        let g = Factor::ones(vec![(v(1), 2)]);
        f.mul_assign_sub(&g);
    }

    #[test]
    fn product_then_marginalize_equals_chain_rule() {
        // P(a) * P(b|a) marginalized over a gives P(b).
        let pa = Factor::new(vec![(v(0), 2)], vec![0.4, 0.6]);
        let pba = Factor::new(vec![(v(0), 2), (v(1), 2)], vec![0.9, 0.1, 0.2, 0.8]);
        let pb = pa.product(&pba).marginalize_keep(&[v(1)]);
        assert!((pb.values()[0] - (0.4 * 0.9 + 0.6 * 0.2)).abs() < 1e-12);
        assert!((pb.values()[1] - (0.4 * 0.1 + 0.6 * 0.8)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_scope_panics() {
        let _ = Factor::ones(vec![(v(1), 2), (v(0), 2)]);
    }

    #[test]
    #[should_panic(expected = "cardinality mismatch")]
    fn product_cardinality_mismatch_panics() {
        let a = Factor::ones(vec![(v(0), 2)]);
        let b = Factor::ones(vec![(v(0), 3)]);
        let _ = a.product(&b);
    }

    #[test]
    fn display_formats() {
        let f = Factor::ones(vec![(v(0), 2), (v(2), 4)]);
        assert_eq!(f.to_string(), "Factor(X0:2, X2:4) [8 entries]");
    }

    #[test]
    fn try_product_reports_cardinality_mismatch() {
        let a = Factor::ones(vec![(v(0), 2)]);
        let b = Factor::ones(vec![(v(0), 3)]);
        assert_eq!(
            a.try_product(&b),
            Err(crate::BayesError::FactorCardinalityMismatch {
                var: 0,
                left: 2,
                right: 3,
            })
        );
    }

    #[test]
    fn try_divide_reports_typed_errors() {
        let a = Factor::new(vec![(v(0), 2)], vec![0.5, 0.6]);
        let zero = Factor::new(vec![(v(0), 2)], vec![0.0, 0.3]);
        assert_eq!(
            a.try_divide_same_domain(&zero),
            Err(crate::BayesError::FactorDivisionByZero { value: 0.5 })
        );
        let other_scope = Factor::ones(vec![(v(1), 2)]);
        assert_eq!(
            a.try_divide_same_domain(&other_scope),
            Err(crate::BayesError::FactorScopeMismatch)
        );
        // 0/0 keeps the HUGIN convention through the fallible path too.
        let num = Factor::new(vec![(v(0), 2)], vec![0.0, 0.6]);
        let ok = num.try_divide_same_domain(&zero).unwrap();
        assert_eq!(ok.values(), &[0.0, 2.0]);
    }

    #[test]
    fn marginalize_keep_accepts_unsorted_keep() {
        // The pairwise-marginal path pushes an extra variable onto a
        // sorted sepset, producing an unsorted keep list.
        let f = Factor::new(
            vec![(v(0), 2), (v(1), 2), (v(2), 2)],
            (0..8).map(|i| i as f64).collect(),
        );
        let sorted = f.marginalize_keep(&[v(0), v(2)]);
        let unsorted = f.marginalize_keep(&[v(2), v(0)]);
        assert_eq!(sorted, unsorted);
    }
}
