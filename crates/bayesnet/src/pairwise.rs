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
//! step reads, where `a`'s and `b`'s digits land in the target index, each
//! clique's stride odometer and the scratch size — so running it is one
//! pass over each path clique. There is no scope merge, no per-entry table
//! and no allocation once the state's two path buffers have grown.
//!
//! A step's source and target indices are affine in the clique digits:
//! entry `c` reads `msg[src(c)·lanes + k]` and adds into
//! `out[dst(c)·out_lanes + Σ digit·weight + k]`, where `src`/`dst` are the
//! clique→sepset maps of the incoming and outgoing sepsets. The plan
//! folds both into one source and one target stride per clique dimension
//! and merges adjacent dimensions whose strides continue each other, so a
//! dense clique is walked by an odometer over a few merged dimensions with
//! a tight innermost loop — two additions per entry, no division and no
//! index load. Innermost dimensions with target stride 0 fold into one
//! target group kept in registers.
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
//! support list through the support-aligned projection tables, exactly as
//! calibration does: skipped entries are exact zeros, and adding
//! `0.0 · m` to a non-negative sum changes nothing.

use crate::junction::JunctionTree;
use crate::sparse::{PropagationKernels, SideProj};
use crate::{Factor, VarId};

/// A clique variable whose digit lands in a step's target index.
#[derive(Debug, Clone, Copy)]
struct Digit {
    /// Row-major stride of the variable in the clique table.
    stride: usize,
    card: usize,
    /// Target-index weight of one unit of the digit.
    weight: usize,
}

/// One merged clique dimension of a dense step's odometer: how far the
/// source and target indices move per unit of the dimension.
#[derive(Debug, Clone, Copy)]
struct Dim {
    card: usize,
    src: usize,
    dst: usize,
}

/// Merged dimensions are non-trivial (`card ≥ 2`) and their product is a
/// clique's state count, which fits in `u32`, so there are at most 32.
const MAX_DIMS: usize = 32;

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
    /// it, `b` on the last step, both on a one-clique read. Read per
    /// support entry on a zero-compressed clique.
    digits: Vec<Digit>,
    /// The dense odometer, outermost dimension first; never empty.
    dims: Vec<Dim>,
    out_len: usize,
}

/// A precomputed clique-path walk for one variable pair of one compiled
/// tree, from [`CompiledTree::plan_pairwise`](crate::CompiledTree::plan_pairwise):
/// the path, the projections each step reads, where the pair's digits
/// land, each clique's stride odometer and the scratch size. Running it
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

/// Row-major stride of `v` in the table over `vars`, 0 when `v` is not
/// in it.
fn stride_in(tree: &JunctionTree, vars: &[VarId], v: VarId) -> usize {
    vars.binary_search(&v)
        .map_or(0, |pos| states_of(tree, &vars[pos + 1..]))
}

/// Merges a clique's dimensions, given innermost first, into a dense
/// odometer, outermost first: one-state dimensions drop out, and a
/// dimension whose strides continue the one inside it (stride = inner
/// stride × inner card, on both sides) merges into it. `None` past
/// [`MAX_DIMS`] (no table that large can be compiled).
fn odometer(inner_first: impl IntoIterator<Item = Dim>) -> Option<Vec<Dim>> {
    let mut dims: Vec<Dim> = Vec::new();
    for dim in inner_first {
        match dims.last_mut() {
            _ if dim.card == 1 => {}
            Some(inner)
                if dim.src == inner.src * inner.card && dim.dst == inner.dst * inner.card =>
            {
                inner.card *= dim.card;
            }
            _ => dims.push(dim),
        }
    }
    if dims.len() > MAX_DIMS {
        return None;
    }
    if dims.is_empty() {
        dims.push(Dim {
            card: 1,
            src: 0,
            dst: 0,
        });
    }
    dims.reverse();
    Some(dims)
}

/// Builds a step over `clique`: digits are `(var, weight)` pairs. `None`
/// when the clique has more dimensions than the odometer holds.
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
) -> Option<WalkStep> {
    let vars = tree.clique(clique);
    let (src_vars, dst_vars) = (sepset(tree, src), sepset(tree, dst));
    let weight = |v: VarId| {
        digit_vars
            .iter()
            .find(|&&(d, _)| d == v)
            .map_or(0, |&(_, w)| w)
    };
    let dims = odometer(vars.iter().rev().map(|&v| Dim {
        card: tree.card(v),
        src: stride_in(tree, src_vars, v) * lanes,
        dst: stride_in(tree, dst_vars, v) * out_lanes + weight(v),
    }))?;
    let digits = digit_vars
        .iter()
        .map(|&(v, weight)| Digit {
            stride: stride_in(tree, vars, v),
            card: tree.card(v),
            weight,
        })
        .collect();
    Some(WalkStep {
        clique,
        src,
        dst,
        lanes,
        out_lanes,
        digits,
        dims,
        out_len,
    })
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
            steps: vec![step(tree, host, None, None, 1, 1, &digits, out_len)?],
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
            step(tree, clique, src, dst, lanes, out_lanes, digits, len)?
        } else {
            // home(b): `a` is not here (else a clique would hold both), so
            // the message carries it in lanes beside `b`'s digit.
            if a_here {
                return None;
            }
            step(tree, clique, src, None, lanes, 1, &[(b, card_a)], out_len)?
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
    // A zero-compressed clique's sides are support-aligned tables.
    let table = |side: Option<Side>| {
        side.map(|(edge, is_a)| {
            let proj = &kernels.edge_proj[edge];
            match if is_a { &proj.a } else { &proj.b } {
                SideProj::Support(table) => table.as_slice(),
                SideProj::Blocked(_) => {
                    unreachable!("a zero-compressed clique has support-aligned projections")
                }
            }
        })
    };
    for step in &plan.steps {
        next.clear();
        next.resize(step.out_len, 0.0);
        let pot = clique_pot[step.clique].values();
        let incoming: &[f64] = if step.src.is_some() { msg } else { &UNIT };
        match kernels.support[step.clique].as_deref() {
            None => match step.lanes {
                1 => walk_dense::<1>(&step.dims, pot, incoming, next),
                2 => walk_dense::<2>(&step.dims, pot, incoming, next),
                3 => walk_dense::<3>(&step.dims, pot, incoming, next),
                4 => walk_dense::<4>(&step.dims, pot, incoming, next),
                lanes => walk_dense_wide(&step.dims, pot, incoming, next, lanes),
            },
            Some(support) => walk_support(
                step,
                pot,
                support,
                table(step.src),
                table(step.dst),
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

/// Calls `run(c, t, s)` at the start of every innermost run of a dense
/// step, in ascending clique order: `c` is the clique entry, `t` and `s`
/// its target and source offsets. The odometer advances by additions
/// only; the innermost dimension is left to `run`.
#[inline(always)]
fn for_each_run(dims: &[Dim], mut run: impl FnMut(usize, usize, usize)) {
    let Some((inner, outer)) = dims.split_last() else {
        return;
    };
    let mut count = [0usize; MAX_DIMS];
    let (mut c, mut t, mut s) = (0usize, 0usize, 0usize);
    loop {
        run(c, t, s);
        c += inner.card;
        let mut pos = outer.len();
        loop {
            if pos == 0 {
                return;
            }
            pos -= 1;
            let d = &outer[pos];
            count[pos] += 1;
            if count[pos] < d.card {
                t += d.dst;
                s += d.src;
                break;
            }
            count[pos] = 0;
            t -= d.dst * (d.card - 1);
            s -= d.src * (d.card - 1);
        }
    }
}

/// A dense step with `L` lanes:
/// `out[t(c) + k] += pot[c] · msg[s(c) + k]` for every clique entry `c` in
/// ascending order. An innermost run with target stride 0 folds into one
/// lane group kept in registers; the sums are the same either way.
fn walk_dense<const L: usize>(dims: &[Dim], pot: &[f64], msg: &[f64], out: &mut [f64]) {
    let Some(&Dim {
        card: n,
        src: ds,
        dst: dt,
    }) = dims.last()
    else {
        return;
    };
    for_each_run(dims, |c, t, mut s| {
        if dt == 0 {
            let mut acc = [0.0f64; L];
            acc.copy_from_slice(&out[t..t + L]);
            for &v in &pot[c..c + n] {
                for (a, &m) in acc.iter_mut().zip(&msg[s..s + L]) {
                    *a += v * m;
                }
                s += ds;
            }
            out[t..t + L].copy_from_slice(&acc);
        } else {
            let mut t = t;
            for &v in &pot[c..c + n] {
                for (o, &m) in out[t..t + L].iter_mut().zip(&msg[s..s + L]) {
                    *o += v * m;
                }
                t += dt;
                s += ds;
            }
        }
    });
}

/// [`walk_dense`] for lane counts above four (variables with more than
/// four states).
fn walk_dense_wide(dims: &[Dim], pot: &[f64], msg: &[f64], out: &mut [f64], lanes: usize) {
    let Some(&Dim {
        card: n,
        src: ds,
        dst: dt,
    }) = dims.last()
    else {
        return;
    };
    for_each_run(dims, |c, mut t, mut s| {
        for &v in &pot[c..c + n] {
            accumulate(&mut out[t..t + lanes], &msg[s..s + lanes], &[v]);
            t += dt;
            s += ds;
        }
    });
}

/// A step over a zero-compressed clique, through the support-aligned
/// tables: `out[dst(i)·out_lanes + Σ digit·weight + k] += pot[c] ·
/// msg[src(i)·lanes + k]` for each support position `i` (clique entry `c`)
/// in ascending order and every lane `k`.
fn walk_support(
    step: &WalkStep,
    pot: &[f64],
    support: &[u32],
    src: Option<&[u32]>,
    dst: Option<&[u32]>,
    msg: &[f64],
    out: &mut [f64],
) {
    let lanes = step.lanes;
    for (i, &c) in support.iter().enumerate() {
        let c = c as usize;
        let digits: usize = step
            .digits
            .iter()
            .map(|d| (c / d.stride) % d.card * d.weight)
            .sum();
        let t = dst.map_or(0, |e| e[i] as usize * step.out_lanes) + digits;
        let s = src.map_or(0, |e| e[i] as usize * lanes);
        accumulate(&mut out[t..t + lanes], &msg[s..s + lanes], &pot[c..=c]);
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

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::sparse::clique_to_sepset;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The merged odometer visits every clique entry in ascending
        /// order with the source and target offsets the per-entry
        /// projections give: `src(c)·lanes` and
        /// `dst(c)·out_lanes + Σ digit·weight`.
        #[test]
        fn odometer_matches_the_per_entry_projections(
            cards in proptest::collection::vec(1usize..=4, 1..=8),
            src_mask in any::<u8>(),
            dst_mask in any::<u8>(),
            digit_mask in any::<u8>(),
            lanes in 1usize..=4,
            out_lanes in 1usize..=4,
        ) {
            let n = cards.len();
            let vars: Vec<VarId> = (0..n).map(VarId::from_index).collect();
            let clique = Factor::new(
                vars.iter().copied().zip(cards.iter().copied()).collect(),
                vec![1.0; cards.iter().product()],
            );
            let pick = |mask: u8| -> Vec<VarId> {
                vars.iter().copied().filter(|v| mask & (1 << v.index()) != 0).collect()
            };
            let (src_vars, dst_vars) = (pick(src_mask), pick(dst_mask));
            let stride = |sep: &[VarId], i: usize| {
                sep.binary_search(&vars[i]).map_or(0, |pos| {
                    sep[pos + 1..].iter().map(|v| cards[v.index()]).product()
                })
            };
            // Digit weights on variables the target sepset lacks.
            let weight = |i: usize| {
                if digit_mask & (1 << i) != 0 && !dst_vars.contains(&vars[i]) {
                    3 * i + 1
                } else {
                    0
                }
            };
            let dims = odometer((0..n).rev().map(|i| Dim {
                card: cards[i],
                src: stride(&src_vars, i) * lanes,
                dst: stride(&dst_vars, i) * out_lanes + weight(i),
            }))
            .unwrap();
            let inner = *dims.last().unwrap();
            let mut got = Vec::new();
            for_each_run(&dims, |c, t, s| {
                for j in 0..inner.card {
                    got.push((c + j, t + j * inner.dst, s + j * inner.src));
                }
            });
            let src = clique_to_sepset(clique.vars(), clique.cards(), &src_vars);
            let dst = clique_to_sepset(clique.vars(), clique.cards(), &dst_vars);
            let expect: Vec<(usize, usize, usize)> = (0..clique.len())
                .map(|c| {
                    let mut t = dst[c] as usize * out_lanes;
                    let mut row = 1;
                    for i in (0..n).rev() {
                        t += (c / row) % cards[i] * weight(i);
                        row *= cards[i];
                    }
                    (c, t, src[c] as usize * lanes)
                })
                .collect();
            prop_assert_eq!(got, expect);
        }
    }
}
