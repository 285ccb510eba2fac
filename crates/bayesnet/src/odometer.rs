//! The additions-only stride odometer every dense kernel walks.
//!
//! A dense clique's entries map affinely onto the tables its kernels read
//! and write: entry `c` with digits `d_i` lands at `Σ d_i · stride_i` of a
//! sepset, a hosted factor or a walk message. So a kernel never needs a
//! per-entry (or per-block) index table. It steps the clique's dimensions,
//! outermost first, and moves each offset by one stride per digit.
//!
//! Adjacent dimensions merge when their strides continue each other
//! ([`merge`]), so a clique of many four-state variables is usually
//! walked over one to three merged dimensions, and the odometer advances
//! by additions only ([`for_each_offset`]). The blocked clique→sepset
//! projections (`sparse`) and the planned pairwise walks (`pairwise`)
//! both walk through it.

/// One clique dimension of an odometer, before it is placed: its card and
/// how far the source and target offsets move per unit. A projection has
/// no source table, so its source strides are all 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Dim {
    pub(crate) card: usize,
    pub(crate) src: usize,
    pub(crate) dst: usize,
}

/// Merged dimensions are non-trivial (`card ≥ 2`) and their product is a
/// clique's state count, which fits in `u32`, so there are at most 32.
pub(crate) const MAX_DIMS: usize = 32;

/// Merges a clique's dimensions, given innermost first, into an
/// odometer, outermost first. One-state dimensions drop out (their one
/// digit moves nothing), and a dimension whose strides continue the one
/// inside it (stride = inner stride × inner card, on both sides) merges
/// into it. An empty result becomes one one-state dimension, so the
/// odometer always has an innermost dimension. `None` past [`MAX_DIMS`]
/// (no table that large can be compiled).
pub(crate) fn merge(inner_first: impl IntoIterator<Item = Dim>) -> Option<Vec<Dim>> {
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

/// One merged dimension as the odometer steps it: its card and how far
/// the clique, source and target offsets move per unit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Axis {
    pub(crate) card: usize,
    pub(crate) clique: usize,
    pub(crate) src: usize,
    pub(crate) dst: usize,
}

/// `dims` (outermost first) as axes, in the same order: the innermost
/// moves the clique offset by `inner`, each other by `inner` times the
/// cards inside it.
pub(crate) fn axes_of(dims: &[Dim], inner: usize) -> impl Iterator<Item = Axis> + '_ {
    let mut clique = inner * dims.iter().map(|d| d.card).product::<usize>();
    dims.iter().map(move |d| {
        clique /= d.card;
        Axis {
            card: d.card,
            clique,
            src: d.src,
            dst: d.dst,
        }
    })
}

/// Calls `visit(c, t, s)` once per digit combination of `axes`
/// (outermost first), in ascending order, with the clique, target and
/// source offsets of that combination. Additions only.
#[inline(always)]
pub(crate) fn for_each_offset(axes: &[Axis], mut visit: impl FnMut(usize, usize, usize)) {
    let mut count = [0usize; MAX_DIMS];
    let (mut c, mut t, mut s) = (0usize, 0usize, 0usize);
    loop {
        visit(c, t, s);
        let mut pos = axes.len();
        loop {
            if pos == 0 {
                return;
            }
            pos -= 1;
            let a = &axes[pos];
            count[pos] += 1;
            if count[pos] < a.card {
                c += a.clique;
                t += a.dst;
                s += a.src;
                break;
            }
            count[pos] = 0;
            c -= a.clique * (a.card - 1);
            t -= a.dst * (a.card - 1);
            s -= a.src * (a.card - 1);
        }
    }
}

/// Calls `visit(c, t, s)` at the start of every block of `block` clique
/// entries, in ascending clique order: `c` is the block's first clique
/// entry, `t` and `s` its target and source offsets. `outer` is the
/// odometer over the dimensions outside the block, outermost first; it
/// advances by additions only, once per block.
#[inline(always)]
pub(crate) fn for_each_block(outer: &[Dim], block: usize, visit: impl FnMut(usize, usize, usize)) {
    let mut axes = [Axis::default(); MAX_DIMS];
    let axes = &mut axes[..outer.len()];
    for (axis, dim) in axes.iter_mut().zip(axes_of(outer, block)) {
        *axis = dim;
    }
    for_each_offset(axes, visit);
}
