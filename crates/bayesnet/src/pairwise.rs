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
//! no division and no index load: the `odometer` module's, which the
//! blocked clique→sepset projections walk too. A step with one or four
//! lanes and a kept dimension (one whose digit moves the target) of a
//! multiple of four states walks by register tiles ([`walk_tiled`]): four
//! target cells stay in registers while all of their entries stream past.
//! Other steps walk one innermost run at a time.
//!
//! Walks run together ([`CompiledTree::pairwise_marginals_planned`](crate::CompiledTree::pairwise_marginals_planned))
//! share their common first steps: exports from one variable leave its
//! home clique down common paths, and equal steps over one calibrated
//! state leave equal messages, so a walk starts from the message the
//! previous one left after their common steps.
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
//! every sum starts from `0.0`, so each cell is bit-identical. The
//! register tiles reorder work only between distinct target cells: a
//! cell's entries are those sharing its kept digits, and the tiles add
//! them in ascending order of their summed digits, which is ascending
//! clique order. The message layout is free: a sepset state `s` and lane
//! `k` sit at `s·lanes + k` here and at their sorted-scope position in
//! the reference, but the sepset division is elementwise, so layout does
//! not change a bit. Only the final joint is put back in sorted-scope
//! order before it is normalized, because normalization sums the whole
//! table.
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
use crate::odometer::{axes_of, for_each_block, for_each_offset, merge, Axis, Dim};
use crate::propagate::StateLayout;
use crate::sparse::{PropagationKernels, SideProj};
use crate::VarId;

/// A clique variable whose digit lands in a step's target index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digit {
    /// Row-major stride of the variable in the clique table.
    stride: usize,
    card: usize,
    /// Target-index weight of one unit of the digit.
    weight: usize,
}

/// One edge projection a step reads: the edge and whether the step's
/// clique is that edge's `a` endpoint.
type Side = (usize, bool);

/// One clique of a planned walk.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// The same dimensions regrouped for [`walk_tiled`], when the step
    /// tiles.
    tiling: Option<Tiling>,
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

    /// How many leading steps this walk shares with `other`, short of
    /// either's last: equal steps over the same evidence leave equal
    /// messages, so a walk may start from the message `other` left there.
    /// Public for the property tests only.
    #[doc(hidden)]
    pub fn shared_steps(&self, other: &PairwisePlan) -> usize {
        let most = self.steps.len().min(other.steps.len()) - 1;
        self.steps
            .iter()
            .zip(&other.steps)
            .take(most)
            .take_while(|(a, b)| a == b)
            .count()
    }

    /// The lane-entries one run touches: each path clique's states times
    /// the message lanes its step carries. A zero-compressed clique walks
    /// only its support, so over one this counts its dense table.
    pub fn entries(&self) -> usize {
        self.entries_from(0)
    }

    /// [`entries`](PairwisePlan::entries) of the steps from `first` on.
    pub(crate) fn entries_from(&self, first: usize) -> usize {
        self.steps[first..]
            .iter()
            .map(|step| step.dims.iter().map(|d| d.card).product::<usize>() * step.lanes)
            .sum()
    }

    /// The arm each step takes over a dense clique, in path order. For
    /// the property tests only.
    #[doc(hidden)]
    pub fn walk_arms(&self) -> Vec<WalkArm> {
        self.steps.iter().map(WalkArm::of).collect()
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
    let dims = merge(vars.iter().rev().map(|&v| Dim {
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
        tiling: Tiling::of(&dims, lanes),
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

/// The messages a run shares with the walks before and after it:
/// `messages[d]` is the message `d + 1` steps of a walk leave. The run
/// starts from `messages[resume − 1]` instead of its first `resume` steps,
/// and stores the messages of the steps it runs below `keep`.
pub(crate) struct Prefix<'m> {
    pub(crate) messages: &'m mut Vec<Vec<f64>>,
    pub(crate) resume: usize,
    pub(crate) keep: usize,
}

/// Runs `plan` over calibrated potentials, ping-ponging messages between
/// `msg` and `next`, and returns the normalized joint over
/// [`PairwisePlan::vars`] (first variable slowest) — bit-identical to the
/// reference walk (see the [module docs](self)).
///
/// # Panics
///
/// Panics on `x / 0` with `x ≠ 0` in a sepset division (a propagation
/// bug, as in [`crate::Factor::div_assign_sub`]).
pub(crate) fn run<'s>(
    plan: &PairwisePlan,
    kernels: &PropagationKernels,
    (layout, cliques, sepsets): (&StateLayout, &[f64], &[f64]),
    (msg, next): (&'s mut Vec<f64>, &'s mut Vec<f64>),
    prefix: Prefix<'_>,
) -> &'s [f64] {
    const UNIT: [f64; 1] = [1.0];
    msg.clear();
    if prefix.resume > 0 {
        msg.extend_from_slice(&prefix.messages[prefix.resume - 1]);
    }
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
    for (i, step) in plan.steps.iter().enumerate().skip(prefix.resume) {
        let pot = &cliques[layout.clique(step.clique)];
        let incoming: &[f64] = if step.src.is_some() { msg } else { &UNIT };
        next.clear();
        next.resize(step.out_len, 0.0);
        match kernels.support[step.clique].as_deref() {
            None => match (&step.tiling, step.lanes) {
                (Some(tiling), 1) => walk_tiled::<1>(tiling, pot, incoming, next),
                (Some(tiling), _) => walk_tiled::<4>(tiling, pot, incoming, next),
                (None, 1) => walk_runs::<1>(&step.dims, pot, incoming, next),
                (None, 2) => walk_runs::<2>(&step.dims, pot, incoming, next),
                (None, 3) => walk_runs::<3>(&step.dims, pot, incoming, next),
                (None, 4) => walk_runs::<4>(&step.dims, pot, incoming, next),
                (None, lanes) => walk_runs_wide(&step.dims, pot, incoming, next, lanes),
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
            divide_by_sepset(next, &sepsets[layout.sepset(edge)], step.out_lanes);
        }
        std::mem::swap(msg, next);
        if i < prefix.keep {
            if prefix.messages.len() <= i {
                prefix.messages.resize_with(i + 1, Vec::new);
            }
            prefix.messages[i].clone_from(msg);
        }
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

/// How a step over a dense clique walks it. Doc-hidden: exposed only so
/// the property tests can check which arms ran
/// ([`PairwisePlan::walk_arms`]).
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WalkArm {
    /// Register tiles ([`walk_tiled`]) with `lanes` lanes. `kept` tells
    /// whether the innermost and the next merged dimension keep their
    /// digit in the target (a missing dimension counts as summed).
    Tiled { lanes: usize, kept: [bool; 2] },
    /// One innermost run at a time ([`walk_runs`]).
    Runs,
}

impl WalkArm {
    fn of(step: &WalkStep) -> WalkArm {
        if step.tiling.is_none() {
            return WalkArm::Runs;
        }
        let kept =
            |back: usize| step.dims.len() > back && step.dims[step.dims.len() - 1 - back].dst != 0;
        WalkArm::Tiled {
            lanes: step.lanes,
            kept: [kept(0), kept(1)],
        }
    }
}

/// A dense step regrouped for [`walk_tiled`]: the tile dimension, the
/// other kept dimensions and the summed ones, each outermost first.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Tiling {
    tile: Axis,
    kept: Vec<Axis>,
    summed: Vec<Axis>,
}

impl Tiling {
    /// A step tiles when it has one or four lanes and a kept dimension
    /// (one whose digit moves the target, `dst ≠ 0`) of a multiple of
    /// four states; the tile is the innermost such.
    fn of(dims: &[Dim], lanes: usize) -> Option<Tiling> {
        if !matches!(lanes, 1 | 4) {
            return None;
        }
        let mut axes: Vec<Axis> = axes_of(dims, 1).collect();
        let at = axes.iter().rposition(|a| a.dst != 0 && a.card % 4 == 0)?;
        let tile = axes.remove(at);
        let (kept, summed) = axes.into_iter().partition(|a| a.dst != 0);
        Some(Tiling { tile, kept, summed })
    }
}

/// The `L`-lane group of `values` at `at`.
#[inline(always)]
fn group<const L: usize>(values: &[f64], at: usize) -> &[f64; L] {
    values[at..at + L]
        .try_into()
        .expect("a range of L entries is an L-lane group")
}

#[inline(always)]
fn group_mut<const L: usize>(values: &mut [f64], at: usize) -> &mut [f64; L] {
    (&mut values[at..at + L])
        .try_into()
        .expect("a range of L entries is an L-lane group")
}

/// [`group`] without the bounds check.
///
/// # Safety
///
/// `at + L ≤ values.len()`.
#[inline(always)]
unsafe fn group_unchecked<const L: usize>(values: &[f64], at: usize) -> &[f64; L] {
    // SAFETY: the caller guarantees `at..at + L` is in bounds.
    unsafe { &*values.as_ptr().add(at).cast::<[f64; L]>() }
}

/// `acc[k] + v · msg[k]` for every lane: the product keeps the operand
/// order `clique × message`. By value, so the lanes vectorize.
#[inline(always)]
fn mul_add<const L: usize>(mut acc: [f64; L], v: f64, msg: &[f64; L]) -> [f64; L] {
    for (a, &m) in acc.iter_mut().zip(msg) {
        *a += v * m;
    }
    acc
}

/// A dense step with `L` lanes by register tiles:
/// `out[t(c) + k] += pot[c] · msg[s(c) + k]` for every clique entry `c`,
/// each target cell receiving its products in ascending clique order
/// from the value already in `out`, as one ascending pass would.
///
/// A cell's entries are the clique entries that share its kept digits,
/// and ascending clique order among them is ascending order of their
/// summed digits. So the kept dimensions move outermost: for each
/// combination of the other kept digits, four cells of the tile dimension
/// load into registers, every summed digit combination adds its four
/// products in ascending order, and the cells are stored once. Distinct
/// kept digits name distinct cells, so no cell is split across tiles.
fn walk_tiled<const L: usize>(tiling: &Tiling, pot: &[f64], msg: &[f64], out: &mut [f64]) {
    let Tiling { tile, kept, summed } = tiling;
    // Every offset below is `Σ digit · stride` over one digit combination,
    // so it is at most the sum of `(card − 1) · stride` over all axes.
    let axes = || std::iter::once(tile).chain(kept).chain(summed);
    let reach =
        |stride: fn(&Axis) -> usize| -> usize { axes().map(|a| (a.card - 1) * stride(a)).sum() };
    assert!(
        reach(|a| a.clique) < pot.len() && reach(|a| a.src) + L <= msg.len(),
        "a walk step's strides stay inside its tables"
    );
    let (inner, outer) = match summed.split_last() {
        Some((inner, outer)) => (*inner, outer),
        None => (
            Axis {
                card: 1,
                ..Axis::default()
            },
            &[][..],
        ),
    };
    for_each_offset(kept, |c, t, s| {
        for q in (0..tile.card).step_by(4) {
            let (c, t, s) = (c + q * tile.clique, t + q * tile.dst, s + q * tile.src);
            let mut acc: [[f64; L]; 4] =
                std::array::from_fn(|j| *group::<L>(out, t + j * tile.dst));
            for_each_offset(outer, |dc, _, ds| {
                let (mut c, mut s) = (c + dc, s + ds);
                for _ in 0..inner.card {
                    for (j, acc) in acc.iter_mut().enumerate() {
                        // SAFETY: `c + j·tile.clique` and `s + j·tile.src`
                        // are the clique and source offsets of one digit
                        // combination, within the reach asserted above.
                        let (v, m) = unsafe {
                            (
                                *pot.get_unchecked(c + j * tile.clique),
                                group_unchecked::<L>(msg, s + j * tile.src),
                            )
                        };
                        *acc = mul_add(*acc, v, m);
                    }
                    c += inner.clique;
                    s += inner.src;
                }
            });
            for (j, acc) in acc.iter().enumerate() {
                *group_mut::<L>(out, t + j * tile.dst) = *acc;
            }
        }
    });
}

/// A dense step with `L` lanes that does not tile:
/// `out[t(c) + k] += pot[c] · msg[s(c) + k]` for every clique entry `c` in
/// ascending order, one innermost run per odometer step. An innermost run
/// with target stride 0 folds into one lane group kept in registers; the
/// sums are the same either way.
fn walk_runs<const L: usize>(dims: &[Dim], pot: &[f64], msg: &[f64], out: &mut [f64]) {
    let Some((
        &Dim {
            card: n,
            src: ds,
            dst: dt,
        },
        outer,
    )) = dims.split_last()
    else {
        return;
    };
    for_each_block(outer, n, |c, t, mut s| {
        if dt == 0 {
            let mut acc = *group::<L>(out, t);
            for &v in &pot[c..c + n] {
                acc = mul_add(acc, v, group::<L>(msg, s));
                s += ds;
            }
            *group_mut::<L>(out, t) = acc;
        } else {
            let mut t = t;
            for &v in &pot[c..c + n] {
                let cell = group_mut::<L>(out, t);
                *cell = mul_add(*cell, v, group::<L>(msg, s));
                t += dt;
                s += ds;
            }
        }
    });
}

/// [`walk_runs`] for lane counts above four (variables with more than
/// four states).
fn walk_runs_wide(dims: &[Dim], pot: &[f64], msg: &[f64], out: &mut [f64], lanes: usize) {
    let Some((
        &Dim {
            card: n,
            src: ds,
            dst: dt,
        },
        outer,
    )) = dims.split_last()
    else {
        return;
    };
    for_each_block(outer, n, |c, mut t, mut s| {
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
/// the HUGIN convention `0 / 0 = 0`. The quotient is a select, not a
/// branch, and the nonzero/0 check is one flag asserted after the loop,
/// as in the distribute pass's message store; one and four lanes get
/// fixed-width groups, so the loop vectorizes.
///
/// # Panics
///
/// Panics on `x / 0` with `x ≠ 0` (a propagation bug).
fn divide_by_sepset(values: &mut [f64], sep: &[f64], lanes: usize) {
    let orphan = match lanes {
        1 => divide_groups::<1>(values, sep),
        4 => divide_groups::<4>(values, sep),
        _ => values
            .chunks_exact_mut(lanes)
            .zip(sep)
            .fold(false, |orphan, (group, &d)| divide(group, d) | orphan),
    };
    assert!(
        !orphan,
        "division of nonzero message entry by zero sepset entry"
    );
}

/// [`divide_by_sepset`] over `L`-lane groups; true on a nonzero over 0.
fn divide_groups<const L: usize>(values: &mut [f64], sep: &[f64]) -> bool {
    let mut orphan = false;
    for (group, &d) in values.chunks_exact_mut(L).zip(sep) {
        orphan |= divide(group, d);
    }
    orphan
}

/// Divides `group` by `d` (`0 / 0 = 0`); true if it held a nonzero entry
/// over `d = 0`.
#[inline(always)]
fn divide(group: &mut [f64], d: f64) -> bool {
    let mut orphan = false;
    for v in group {
        // `&`, not `&&`: a short circuit is a branch, and it keeps the
        // loop scalar.
        orphan |= (d == 0.0) & (*v != 0.0);
        let quotient = *v / d;
        *v = if d == 0.0 { 0.0 } else { quotient };
    }
    orphan
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::sparse::clique_to_sepset;
    use crate::Factor;
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
            let dims = merge((0..n).rev().map(|i| Dim {
                card: cards[i],
                src: stride(&src_vars, i) * lanes,
                dst: stride(&dst_vars, i) * out_lanes + weight(i),
            }))
            .unwrap();
            let (inner, outer) = dims.split_last().unwrap();
            let mut got = Vec::new();
            for_each_block(outer, inner.card, |c, t, s| {
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

    /// Three sepset groups of `lanes` entries over sepset `[0.5, 0, 2]`,
    /// the middle group holding `nonzero` in its last lane and signed
    /// zeros elsewhere.
    fn over_zero_sepset(lanes: usize, nonzero: f64) -> Vec<f64> {
        (0..3 * lanes)
            .map(|i| match (i / lanes, i % lanes) {
                (1, k) if k == lanes - 1 => nonzero,
                (1, k) if k % 2 == 1 => -0.0,
                (1, _) => 0.0,
                _ => 1.0 + i as f64,
            })
            .collect()
    }

    #[test]
    #[should_panic(expected = "division of nonzero")]
    fn sepset_division_rejects_nonzero_over_zero_on_one_lane() {
        divide_by_sepset(&mut over_zero_sepset(1, 0.25), &[0.5, 0.0, 2.0], 1);
    }

    #[test]
    #[should_panic(expected = "division of nonzero")]
    fn sepset_division_rejects_nonzero_over_zero_on_four_lanes() {
        divide_by_sepset(&mut over_zero_sepset(4, 0.25), &[0.5, 0.0, 2.0], 4);
    }

    #[test]
    fn sepset_division_takes_zero_over_zero_as_zero() {
        for lanes in [1, 2, 4, 5] {
            let mut values = over_zero_sepset(lanes, -0.0);
            divide_by_sepset(&mut values, &[0.5, 0.0, 2.0], lanes);
            let expect: Vec<u64> = (0..3 * lanes)
                .map(|i| match i / lanes {
                    0 => (1.0 + i as f64) / 0.5,
                    1 => 0.0,
                    _ => (1.0 + i as f64) / 2.0,
                })
                .map(f64::to_bits)
                .collect();
            let got: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, expect, "{lanes} lanes");
        }
    }
}
