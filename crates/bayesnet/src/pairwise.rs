//! Planned clique-path walks for pairwise posterior joints.
//!
//! [`CompiledTree::pairwise_marginal`](crate::CompiledTree::pairwise_marginal)
//! reads `P(a, b | evidence)` for two variables no single clique holds by
//! walking the tree path from `home(a)` to `home(b)`: the calibrated
//! joint factorizes as `Π φ_C / Π φ_S` along the path, so each step
//! multiplies the running message into the next clique, sums out
//! everything but the next sepset plus `a`, and divides by that sepset.
//!
//! A [`PairwisePlan`] fixes everything about that walk that does not
//! depend on evidence — the path, which side of each edge projection a
//! step reads, where `a`'s and `b`'s digits land in the target index, the
//! dense run length and the scratch size — so running it is one pass over
//! each path clique through the tree's own clique→sepset projection
//! tables. There is no scope merge, no odometer and no allocation once the
//! state's two path buffers have grown.
//!
//! # Bit identity with the factor-algebra walk
//!
//! The reference walk (`pairwise_marginal_reference`) runs the same steps
//! through `Factor::product_marginalize`, which adds the terms of each
//! target cell in ascending order of the *merged* scope `C ∪ {a}`. With
//! `a`'s digit `k` fixed by the target cell, ascending merged order is
//! ascending clique order, so a single ascending pass over the clique that
//! updates `card(a)` lanes per entry adds the same products in the same
//! order. Each product keeps the operand order `clique × message`, and
//! every sum starts from `0.0`, so each cell is bit-identical. The message
//! layout is free: a sepset state `s` and lane `k` sit at `s·lanes + k`
//! here and at their sorted-scope position in the reference, but the
//! sepset division is elementwise, so layout does not change a bit. Only
//! the final joint is put back in sorted-scope order before it is
//! normalized, because normalization sums the whole table.
//!
//! Per step the walk carries `a` one of two ways. While `a ∉ C` the
//! message is over `S_prev × {a}` and `a` travels in the lanes. When
//! `a ∈ C`, the running-intersection property gives `a ∈ S_prev` (or `C`
//! is `a`'s home, where the walk starts), so the message is over `S_prev`
//! alone; `a`'s clique digit enters the target index only on the step
//! whose outgoing sepset drops it. Zero-compressed cliques iterate their
//! support list exactly as calibration does: skipped entries are exact
//! zeros, and adding `0.0 · m` to a non-negative sum changes nothing.

use crate::junction::JunctionTree;
use crate::sparse::{BlockedProj, PropagationKernels};
use crate::{Factor, VarId};

/// A clique variable whose digit lands in a step's target index.
#[derive(Debug, Clone, Copy)]
struct Digit {
    /// Row-major stride of the variable in the clique table.
    stride: usize,
    card: usize,
    /// Target-index weight of one unit of the digit.
    weight: usize,
    /// Dense runs per unit of the digit (`stride / run`).
    period: usize,
}

/// One edge projection a step reads: the edge and whether the step's
/// clique is that edge's `a` endpoint.
type Side = (usize, bool);

/// One clique of a planned walk.
#[derive(Debug, Clone)]
struct WalkStep {
    clique: usize,
    /// Projection onto the incoming message's sepset; `None` on the first
    /// step, which reads a unit message.
    src: Option<Side>,
    /// Projection onto the outgoing sepset; `None` on the last step. The
    /// outgoing message is divided by this sepset's potential.
    dst: Option<Side>,
    /// Message entries per incoming sepset state: `card(a)` while `a`
    /// travels beside the sepset, else 1.
    lanes: usize,
    /// Message entries per outgoing sepset state.
    out_lanes: usize,
    /// At most two digits: `a` on the step whose outgoing sepset drops
    /// it, `b` on the last step, both on a one-clique read.
    digits: Vec<Digit>,
    /// Innermost clique entries that share every index (dense cliques).
    run: usize,
    out_len: usize,
}

/// A precomputed clique-path walk for one variable pair of one compiled
/// tree, from [`CompiledTree::plan_pairwise`](crate::CompiledTree::plan_pairwise):
/// the path, the projection tables each step reads, where the pair's
/// digits land and the scratch size. Running it
/// ([`CompiledTree::pairwise_marginal_planned`](crate::CompiledTree::pairwise_marginal_planned))
/// is one pass over each path clique, bit-identical to the factor-algebra
/// walk.
///
/// Plans hold no evidence: one plan serves every propagation over the
/// tree that built it, and only that tree.
#[derive(Debug, Clone)]
pub struct PairwisePlan {
    /// The pair's scope, ascending.
    scope: [(VarId, usize); 2],
    steps: Vec<WalkStep>,
    /// Whether the last step leaves the joint as `[b][a]` while the
    /// sorted scope wants `[a][b]` (cross-clique walks with `a < b`).
    transpose: bool,
    /// Largest message any step writes.
    scratch: usize,
}

impl PairwisePlan {
    /// The pair's variables, ascending: the layout of the joint a planned
    /// read returns (first variable slowest).
    pub fn vars(&self) -> [VarId; 2] {
        [self.scope[0].0, self.scope[1].0]
    }
}

fn contains(vars: &[VarId], v: VarId) -> bool {
    vars.binary_search(&v).is_ok()
}

/// State count of a variable set — and, over the variables after a
/// clique position, that position's row-major stride.
fn states_of(tree: &JunctionTree, vars: &[VarId]) -> usize {
    vars.iter().map(|&v| tree.card(v)).product()
}

/// The side of `edge` that belongs to `clique`, if `clique` is one of its
/// endpoints.
fn side_of(tree: &JunctionTree, edge: usize, clique: usize) -> Option<Side> {
    let e = tree.edge(edge);
    if e.a == clique {
        Some((edge, true))
    } else if e.b == clique {
        Some((edge, false))
    } else {
        None
    }
}

fn sepset(tree: &JunctionTree, side: Option<Side>) -> &[VarId] {
    side.map_or(&[], |(edge, _)| tree.edge(edge).sepset.as_slice())
}

/// Builds a step over `clique`: digits are `(var, weight)` pairs.
#[allow(clippy::too_many_arguments)]
fn step(
    tree: &JunctionTree,
    clique: usize,
    src: Option<Side>,
    dst: Option<Side>,
    lanes: usize,
    out_lanes: usize,
    digit_vars: &[(VarId, usize)],
    out_len: usize,
) -> WalkStep {
    let vars = tree.clique(clique);
    let (src_vars, dst_vars) = (sepset(tree, src), sepset(tree, dst));
    // Innermost dimensions that feed neither projection nor a digit keep
    // every index fixed, so a dense pass folds them as one run.
    let mut run = 1usize;
    for &v in vars.iter().rev() {
        if contains(src_vars, v) || contains(dst_vars, v) || digit_vars.iter().any(|&(d, _)| d == v)
        {
            break;
        }
        run *= tree.card(v);
    }
    let digits = digit_vars
        .iter()
        .map(|&(v, weight)| {
            let pos = vars
                .binary_search(&v)
                .expect("digit variables are in the clique");
            let stride = states_of(tree, &vars[pos + 1..]);
            Digit {
                stride,
                card: tree.card(v),
                weight,
                period: stride / run,
            }
        })
        .collect();
    WalkStep {
        clique,
        src,
        dst,
        lanes,
        out_lanes,
        digits,
        run,
        out_len,
    }
}

/// Plans the walk for `(a, b)`: `None` when `a == b`, either variable is
/// out of range, the two lie in different components, or the tree breaks
/// an invariant the walk relies on (an edge that does not touch its
/// clique, a sepset outside its clique, or `a` re-entering the path after
/// leaving it).
pub(crate) fn plan(tree: &JunctionTree, a: VarId, b: VarId) -> Option<PairwisePlan> {
    let n = tree.num_vars();
    if a == b || a.index() >= n || b.index() >= n {
        return None;
    }
    let (card_a, card_b) = (tree.card(a), tree.card(b));
    let (lo, hi) = (a.min(b), a.max(b));
    let scope = [(lo, tree.card(lo)), (hi, tree.card(hi))];
    let out_len = card_a * card_b;
    // The first clique holding both — the one the reference reads.
    if let Some(host) = (0..tree.num_cliques())
        .find(|&c| contains(tree.clique(c), lo) && contains(tree.clique(c), hi))
    {
        let digits = [(lo, tree.card(hi)), (hi, 1)];
        return Some(PairwisePlan {
            scope,
            steps: vec![step(tree, host, None, None, 1, 1, &digits, out_len)],
            transpose: false,
            scratch: out_len,
        });
    }
    let (home_a, home_b) = (tree.home_clique(a), tree.home_clique(b));
    if !contains(tree.clique(home_a), a) || !contains(tree.clique(home_b), b) {
        return None;
    }
    let path = tree.clique_path(home_a, home_b)?;
    if path.is_empty() {
        return None;
    }
    let mut steps = Vec::with_capacity(path.len() + 1);
    let mut scratch = 0usize;
    let mut clique = home_a;
    let mut src = None;
    for i in 0..=path.len() {
        let vars = tree.clique(clique);
        let dst = match path.get(i) {
            Some(&(edge, _)) => Some(side_of(tree, edge, clique)?),
            None => None,
        };
        let (src_vars, dst_vars) = (sepset(tree, src), sepset(tree, dst));
        if !src_vars.iter().chain(dst_vars).all(|&v| contains(vars, v)) {
            return None;
        }
        let a_here = contains(vars, a);
        let a_in = contains(src_vars, a);
        // Running intersection: once off home(a), `a` stays in a clique
        // only if the incoming sepset carried it.
        if src.is_some() && a_here && !a_in {
            return None;
        }
        let lanes = if src.is_none() || a_in { 1 } else { card_a };
        let next = if dst.is_some() {
            let a_out = contains(dst_vars, a);
            let out_lanes = if a_out { 1 } else { card_a };
            let digits: &[(VarId, usize)] = if a_here && !a_out { &[(a, 1)] } else { &[] };
            let len = states_of(tree, dst_vars) * out_lanes;
            step(tree, clique, src, dst, lanes, out_lanes, digits, len)
        } else {
            // home(b): `a` is not here (else a clique would hold both), so
            // the message carries it in lanes beside `b`'s digit.
            if a_here {
                return None;
            }
            step(tree, clique, src, None, lanes, 1, &[(b, card_a)], out_len)
        };
        scratch = scratch.max(next.out_len);
        steps.push(next);
        if let Some(&(edge, reached)) = path.get(i) {
            src = Some(side_of(tree, edge, reached)?);
            clique = reached;
        }
    }
    Some(PairwisePlan {
        scope,
        steps,
        transpose: a < b,
        scratch,
    })
}

/// Runs `plan` over calibrated potentials, ping-ponging messages between
/// `msg` and `next`, and returns the normalized joint over
/// [`PairwisePlan::vars`] (first variable slowest) — bit-identical to the
/// reference walk (see the [module docs](self)).
///
/// # Panics
///
/// Panics on `x / 0` with `x ≠ 0` in a sepset division (a propagation
/// bug, as in [`Factor::div_assign_sub`]).
pub(crate) fn run<'s>(
    plan: &PairwisePlan,
    kernels: &PropagationKernels,
    clique_pot: &[Factor],
    sep_pot: &[Factor],
    msg: &'s mut Vec<f64>,
    next: &'s mut Vec<f64>,
) -> &'s [f64] {
    const UNIT: [f64; 1] = [1.0];
    msg.clear();
    msg.reserve(plan.scratch);
    next.reserve(plan.scratch);
    let side = |side: Option<Side>| {
        side.map(|(edge, is_a)| {
            let proj = &kernels.edge_proj[edge];
            if is_a {
                &proj.a
            } else {
                &proj.b
            }
        })
    };
    for step in &plan.steps {
        next.clear();
        next.resize(step.out_len, 0.0);
        let pot = clique_pot[step.clique].values();
        let support = kernels.support[step.clique].as_deref();
        let src = side(step.src).map(|p| p.entries.as_slice());
        let dst = side(step.dst);
        let incoming: &[f64] = if step.src.is_some() { msg } else { &UNIT };
        // A step with no digit and as many lanes out as in writes
        // `dst(c)·lanes + k`, so a dense clique can follow the outgoing
        // projection's blocked form.
        let blocked = dst.and_then(|p| p.blocked.as_ref()).filter(|_| {
            step.digits.is_empty() && step.lanes == step.out_lanes && support.is_none()
        });
        match (blocked, step.lanes) {
            (Some(blocked), 1) => fold_blocked::<1>(blocked, pot, src, incoming, next),
            (Some(blocked), 2) => fold_blocked::<2>(blocked, pot, src, incoming, next),
            (Some(blocked), 3) => fold_blocked::<3>(blocked, pot, src, incoming, next),
            (Some(blocked), 4) => fold_blocked::<4>(blocked, pot, src, incoming, next),
            _ => walk_entries(
                step,
                pot,
                support,
                src,
                dst.map(|p| p.entries.as_slice()),
                incoming,
                next,
            ),
        }
        if let Some((edge, _)) = step.dst {
            divide_by_sepset(next, sep_pot[edge].values(), step.out_lanes);
        }
        std::mem::swap(msg, next);
    }
    if plan.transpose {
        // The last step left `[b][a]`; the sorted scope is `[a][b]`.
        let (rows, cols) = (plan.scope[1].1, plan.scope[0].1);
        next.clear();
        for k in 0..cols {
            next.extend((0..rows).map(|d| msg[d * cols + k]));
        }
        std::mem::swap(msg, next);
    }
    let total: f64 = msg.iter().sum();
    if total > 0.0 {
        for v in msg.iter_mut() {
            *v /= total;
        }
    }
    msg
}

/// A digit-free step over a dense clique, walked in the outgoing
/// projection's blocked form (see `BlockedProj`): each block's
/// `sum_reps × copy_len` entries fold into `copy_len` contiguous target
/// groups of `L` lanes. The clique is still visited in ascending order,
/// so every target sums its terms in reference order; a single-slot fold
/// (`copy_len == 1`) just keeps its `L` sums in registers.
fn fold_blocked<const L: usize>(
    blocked: &BlockedProj,
    pot: &[f64],
    src: Option<&[u32]>,
    msg: &[f64],
    out: &mut [f64],
) {
    let (copy, reps) = (blocked.copy_len as usize, blocked.sum_reps as usize);
    let src_at = |c: usize| src.map_or(0, |e| e[c] as usize * L);
    let mut c = 0usize;
    for &base in &blocked.base {
        let t = base as usize * L;
        if copy == 1 {
            let mut acc = [0.0f64; L];
            acc.copy_from_slice(&out[t..t + L]);
            for &v in &pot[c..c + reps] {
                let s = src_at(c);
                for (a, &m) in acc.iter_mut().zip(&msg[s..s + L]) {
                    *a += v * m;
                }
                c += 1;
            }
            out[t..t + L].copy_from_slice(&acc);
        } else {
            let dst = &mut out[t..t + copy * L];
            for _ in 0..reps {
                for group in dst.chunks_exact_mut(L) {
                    let (v, s) = (pot[c], src_at(c));
                    for (o, &m) in group.iter_mut().zip(&msg[s..s + L]) {
                        *o += v * m;
                    }
                    c += 1;
                }
            }
        }
    }
}

/// The general step, through the per-entry projection tables:
/// `out[dst(c)·out_lanes + Σ digit·weight + k] += pot[c] · msg[src(c)·lanes + k]`
/// for every clique entry `c` in ascending order (the support list on a
/// zero-compressed clique) and every lane `k`.
fn walk_entries(
    step: &WalkStep,
    pot: &[f64],
    support: Option<&[u32]>,
    src: Option<&[u32]>,
    dst: Option<&[u32]>,
    msg: &[f64],
    out: &mut [f64],
) {
    // Fixed lane counts let the inner loop unroll; the body is shared.
    match step.lanes {
        1 => walk_lanes(step, pot, support, src, dst, msg, out, 1),
        4 => walk_lanes(step, pot, support, src, dst, msg, out, 4),
        lanes => walk_lanes(step, pot, support, src, dst, msg, out, lanes),
    }
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn walk_lanes(
    step: &WalkStep,
    pot: &[f64],
    support: Option<&[u32]>,
    src: Option<&[u32]>,
    dst: Option<&[u32]>,
    msg: &[f64],
    out: &mut [f64],
    lanes: usize,
) {
    let src_at = |i: usize| src.map_or(0, |e| e[i] as usize * lanes);
    let dst_at = |i: usize| dst.map_or(0, |e| e[i] as usize * step.out_lanes);
    match support {
        Some(support) => {
            for (i, &c) in support.iter().enumerate() {
                let c = c as usize;
                let digits: usize = step
                    .digits
                    .iter()
                    .map(|d| (c / d.stride) % d.card * d.weight)
                    .sum();
                let (t, s) = (dst_at(i) + digits, src_at(i));
                accumulate(&mut out[t..t + lanes], &msg[s..s + lanes], &pot[c..=c]);
            }
        }
        None => {
            // Per digit: runs left before it increments, and its value.
            let mut left = [0usize; 2];
            let mut value = [0usize; 2];
            for (l, d) in left.iter_mut().zip(&step.digits) {
                *l = d.period;
            }
            let mut offset = 0usize;
            for start in (0..pot.len()).step_by(step.run) {
                let (t, s) = (dst_at(start) + offset, src_at(start));
                accumulate(
                    &mut out[t..t + lanes],
                    &msg[s..s + lanes],
                    &pot[start..start + step.run],
                );
                for (j, d) in step.digits.iter().enumerate() {
                    left[j] -= 1;
                    if left[j] == 0 {
                        left[j] = d.period;
                        value[j] += 1;
                        offset += d.weight;
                        if value[j] == d.card {
                            value[j] = 0;
                            offset -= d.weight * d.card;
                        }
                    }
                }
            }
        }
    }
}

/// Adds `v · msg[k]` into lane `k` of `out` for each `v` in order.
#[inline(always)]
fn accumulate(out: &mut [f64], msg: &[f64], values: &[f64]) {
    for &v in values {
        for (o, &m) in out.iter_mut().zip(msg) {
            *o += v * m;
        }
    }
}

/// Divides each `lanes`-wide group of `values` by its sepset entry, with
/// the HUGIN convention `0 / 0 = 0`.
fn divide_by_sepset(values: &mut [f64], sep: &[f64], lanes: usize) {
    for (group, &d) in values.chunks_exact_mut(lanes).zip(sep) {
        for v in group {
            if d == 0.0 {
                assert!(*v == 0.0, "division of nonzero {v} by zero entry");
                *v = 0.0;
            } else {
                *v /= d;
            }
        }
    }
}
