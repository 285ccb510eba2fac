//! Propagation kernels for HUGIN absorption over compiled junction trees.
//!
//! Gate CPTs in the paper's LIDAG construction are *deterministic* (truth
//! tables, Def. 8), so the clique potentials they multiply into are
//! dominated by exact structural zeros — typically 75% of entries for
//! four-state transition variables. Those zeros are fixed at compile time:
//! every later operation on a working potential (evidence reduction,
//! likelihood scaling, sepset-update multiplication) is multiplicative, so
//! the nonzero *support* of a working potential is always a subset of the
//! initial potential's support.
//!
//! Every junction-tree edge keeps, for each of its two cliques, exactly
//! one clique→sepset projection ([`SideProj`]), built once per
//! [`CompiledTree`](crate::CompiledTree) and reused by every propagation:
//!
//! 1. **Blocked stride form** for a dense clique: the row-major table
//!    factors into `base.len() × sum_reps × copy_len` entries (see
//!    [`BlockedProj`]), so marginalize and multiply stream contiguous runs
//!    and store one offset per block, not one index per entry.
//! 2. **Support-aligned table** for a zero-compressed clique (HUGIN's
//!    classic optimization, Jensen & Andersen 1990): one `u32` sepset index
//!    per nonzero entry, walked beside the clique's support list so
//!    structural zeros are skipped in both directions.
//!
//! A dense clique has no per-entry table. Its per-entry map is affine in
//! the clique digits (the sepset strides), so the two-pass reference
//! (`CompiledTree::calibrate_two_pass`) derives it at call time with
//! [`clique_to_sepset`], and the pairwise walk (`pairwise`) reads it
//! through a plan-time stride odometer.
//!
//! No initial potential is stored either. Each clique *hosts* the factors
//! whose product is its initial potential ([`HostedFactor`]: its CPTs, or
//! one full-scope factor for trees built from explicit potentials). A
//! hosted scope is a sorted subset of the clique scope, exactly like a
//! sepset, so its gather is one more [`BlockedProj`]: [`materialize`]
//! gather-copies the first factor and [`multiply_blocked`]s the rest in,
//! which multiplies every entry by the same values in the same order as
//! `Factor::ones` followed by `Factor::mul_assign_sub` (`1.0 · x == x`).
//!
//! Skipping a structural zero never changes a sum-propagation result *at
//! all*: potentials are non-negative, `x + 0.0 == x` exactly in IEEE 754,
//! and the iteration order over the surviving entries (ascending linear
//! index) is unchanged — so the sparse path is bit-identical to the dense
//! path, not merely close.

use crate::junction::JunctionTree;
use crate::{Factor, VarId};

/// Zero-compression policy for compiled junction trees.
///
/// `Auto` (the default) decides per clique on a measured cost model:
/// iterating a support list costs [`SPARSE_COST_PER_ENTRY`] indexed loads
/// per surviving entry where the blocked dense kernels cost one sequential
/// (autovectorized) load per table entry, so a clique is compressed
/// only when `SPARSE_COST_PER_ENTRY · nnz < len` — more than four fifths
/// of its entries must be zero before skipping them wins. `On` forces
/// compression of every clique with at least one zero; `Off` keeps the
/// flat dense loops everywhere (the two paths are equivalence-tested, so
/// `Off` is a debugging aid and regression baseline, not a different
/// answer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SparseMode {
    /// Compress each clique only when its nonzero count is low enough
    /// that support iteration beats the dense loop under the
    /// [`SPARSE_COST_PER_ENTRY`] cost model.
    #[default]
    Auto,
    /// Compress every clique that contains a structural zero.
    On,
    /// Dense kernels everywhere.
    Off,
}

impl SparseMode {
    /// All modes, for CLI help and error messages.
    pub const ALL: [SparseMode; 3] = [SparseMode::Auto, SparseMode::On, SparseMode::Off];
}

impl std::fmt::Display for SparseMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SparseMode::Auto => "auto",
            SparseMode::On => "on",
            SparseMode::Off => "off",
        })
    }
}

impl std::str::FromStr for SparseMode {
    type Err = String;

    fn from_str(s: &str) -> Result<SparseMode, String> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Ok(SparseMode::Auto),
            "on" => Ok(SparseMode::On),
            "off" => Ok(SparseMode::Off),
            other => Err(format!(
                "unknown sparse mode `{other}` (expected auto, on, or off)"
            )),
        }
    }
}

/// Summation policy of the blocked kernels. Kept only because the
/// profile harness's kernel probe names `KernelMode::Scalar`.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelMode {
    #[default]
    Scalar,
}

/// Relative cost of one support-list entry versus one dense table entry.
///
/// The sparse kernels touch three indexed words per surviving entry (the
/// support index, the projection slot, and the value it gathers/scatters)
/// where the blocked dense kernels stream contiguous runs the compiler
/// autovectorizes. `SparseMode::Auto` compresses a clique only when
/// `SPARSE_COST_PER_ENTRY · nnz < len`, i.e. when more than four fifths
/// of the table is zero. The constant is recalibrated against the fused
/// blocked kernels: the previous value (3, >2/3 zeros, itself raised from
/// the original ≥50% rule that lost on c880) was measured against the
/// per-entry dense loops, but blocking sped the dense sweep up by another
/// 1.5–2x on the ISCAS/MCNC set (BENCH_kernels.json), which moved the
/// break-even — under the old constant `Auto` was 0.93x on alu2, whose
/// compressed cliques sit in the 67–80% zero band. The 96%-zero
/// deterministic-gate cliques the optimization exists for still clear
/// this bar comfortably.
pub const SPARSE_COST_PER_ENTRY: usize = 5;

/// Blocked (stride-aware) decomposition of a dense clique→sepset
/// projection.
///
/// The clique table in canonical row-major layout factors into
/// `base.len() × sum_reps × copy_len` entries: walking dimensions from the
/// innermost outward, `copy_len` is the size of the maximal suffix of
/// *kept* dimensions whose sepset strides are natural (contiguous — the
/// suffix maps onto a contiguous target run), `sum_reps` the size of the
/// run of *summed-out* dimensions immediately above it, and `base` the
/// per-block target offsets enumerated over the remaining prefix
/// dimensions in ascending source order.
///
/// The blocked kernels then walk `values` in one sequential sweep:
///
/// ```text
/// for (block, base) { for rep in 0..sum_reps {
///     target[base..base+copy_len] += values[next copy_len entries]
/// } }
/// ```
///
/// replacing one `u32` table load + indexed store per entry with
/// contiguous slice arithmetic the autovectorizer can chunk into f64
/// lanes. Because blocks and reps are visited in ascending source order,
/// every target slot receives its contributions in exactly the order of
/// the per-entry reference loop — the blocked sum (and the elementwise
/// multiply) is bit-identical by construction, not merely close.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BlockedProj {
    /// Contiguous run length copied/added per step (≥ 1).
    pub(crate) copy_len: u32,
    /// Consecutive source runs folded into the same target run (≥ 1).
    pub(crate) sum_reps: u32,
    /// Target offset of each `sum_reps × copy_len` source block, in
    /// ascending source order.
    pub(crate) base: Vec<u32>,
}

/// One clique's side of an edge projection, in the single form that
/// clique's kernels read.
#[derive(Debug, Clone)]
pub(crate) enum SideProj {
    /// Dense clique: the blocked stride decomposition.
    Blocked(BlockedProj),
    /// Zero-compressed clique: the sepset index of each support entry,
    /// aligned with the clique's support list.
    Support(Vec<u32>),
}

/// Projections of one junction-tree edge, one per endpoint clique.
#[derive(Debug, Clone)]
pub(crate) struct EdgeProj {
    pub(crate) a: SideProj,
    pub(crate) b: SideProj,
}

/// One factor of a clique's initial potential and its gather projection:
/// the clique→factor map in the blocked form the sepset kernels use.
#[derive(Debug, Clone)]
pub(crate) struct HostedFactor {
    pub(crate) factor: Factor,
    pub(crate) proj: BlockedProj,
}

impl HostedFactor {
    /// Hosts `factor` in a clique over `vars` with cardinalities `cards`.
    ///
    /// # Panics
    ///
    /// Panics if the factor's scope is not a subset of the clique's or a
    /// cardinality disagrees.
    pub(crate) fn new(vars: &[VarId], cards: &[usize], factor: Factor) -> HostedFactor {
        for (v, c) in factor.vars().iter().zip(factor.cards()) {
            let pos = vars
                .binary_search(v)
                .expect("a hosted factor's scope lies in its clique");
            assert_eq!(cards[pos], *c, "cardinality mismatch for {v}");
        }
        let proj = blocked_projection(vars, cards, factor.vars());
        HostedFactor { factor, proj }
    }
}

/// Writes a clique's initial potential into `values`: the product of its
/// hosted factors, or all ones when it hosts none. Bit-identical to
/// `Factor::ones` followed by `Factor::mul_assign_sub` per factor, in
/// order: the first gather-copy stands in for `1.0 · x`, which is `x`.
pub(crate) fn materialize(values: &mut [f64], hosted: &[HostedFactor]) {
    match hosted.split_first() {
        None => values.fill(1.0),
        Some((first, rest)) => {
            gather_blocked(values, &first.proj, first.factor.values());
            for h in rest {
                multiply_blocked(values, &h.proj, h.factor.values());
            }
        }
    }
}

/// Everything the absorb kernels need, computed once at compile time.
#[derive(Debug, Clone)]
pub(crate) struct PropagationKernels {
    /// Per clique: ascending nonzero indices of the initial potential when
    /// zero-compressed, `None` for dense iteration.
    pub(crate) support: Vec<Option<Vec<u32>>>,
    /// Per edge: the projection of each endpoint clique.
    pub(crate) edge_proj: Vec<EdgeProj>,
    /// Total nonzero entries across all initial clique potentials.
    pub(crate) nnz: usize,
}

impl PropagationKernels {
    /// Builds supports and projections for the cliques of `tree`, whose
    /// initial potentials are the products of `hosted`. Each potential is
    /// materialized in turn into one reused scratch buffer, so nothing
    /// potential-sized outlives the call.
    ///
    /// # Panics
    ///
    /// Panics if any clique potential exceeds `u32::MAX` entries (such a
    /// table could not be allocated anyway).
    pub(crate) fn build(
        tree: &JunctionTree,
        hosted: &[Vec<HostedFactor>],
        mode: SparseMode,
    ) -> PropagationKernels {
        let mut nnz = 0usize;
        let mut scratch: Vec<f64> = Vec::new();
        let support: Vec<Option<Vec<u32>>> = hosted
            .iter()
            .enumerate()
            .map(|(clique, hosted)| {
                let len = tree.clique_len(clique);
                assert!(
                    u32::try_from(len).is_ok(),
                    "clique potential exceeds u32 index range"
                );
                scratch.resize(len, 0.0);
                materialize(&mut scratch, hosted);
                let nonzero = scratch.iter().filter(|&&v| v != 0.0).count();
                nnz += nonzero;
                compress(mode, nonzero, len).then(|| support_of(&scratch))
            })
            .collect();
        let edge_proj = (0..tree.num_edges())
            .map(|e| {
                let edge = tree.edge(e);
                let side = |clique: usize| {
                    side_proj(
                        tree.clique(clique),
                        &tree.clique_cards(clique),
                        &edge.sepset,
                        support[clique].as_deref(),
                    )
                };
                EdgeProj {
                    a: side(edge.a),
                    b: side(edge.b),
                }
            })
            .collect();
        PropagationKernels {
            support,
            edge_proj,
            nnz,
        }
    }

    /// Number of zero-compressed cliques.
    pub(crate) fn compressed_cliques(&self) -> usize {
        self.support.iter().filter(|s| s.is_some()).count()
    }
}

/// Ascending indices of the nonzero entries of a table.
fn support_of(values: &[f64]) -> Vec<u32> {
    values
        .iter()
        .enumerate()
        .filter(|(_, &v)| v != 0.0)
        .map(|(i, _)| i as u32)
        .collect()
}

/// Whether a clique with `nnz` of `len` nonzero entries gets compressed.
fn compress(mode: SparseMode, nnz: usize, len: usize) -> bool {
    match mode {
        SparseMode::Off => false,
        SparseMode::On => nnz < len,
        // Per-clique cost model: support iteration only wins when its
        // weighted entry count undercuts the dense sweep of the full table.
        SparseMode::Auto => SPARSE_COST_PER_ENTRY * nnz < len,
    }
}

/// The one projection form of a clique side: blocked when the clique is
/// dense, support-aligned when it is zero-compressed.
fn side_proj(
    vars: &[VarId],
    cards: &[usize],
    sepset: &[VarId],
    support: Option<&[u32]>,
) -> SideProj {
    match support {
        None => SideProj::Blocked(blocked_projection(vars, cards, sepset)),
        Some(support) => {
            let full = clique_to_sepset(vars, cards, sepset);
            SideProj::Support(support.iter().map(|&i| full[i as usize]).collect())
        }
    }
}

/// Per dimension of a clique over `vars` (cardinalities `cards`), the
/// row-major stride of that dimension in the sepset table — `0` for
/// summed-out dimensions.
fn sepset_strides(vars: &[VarId], cards: &[usize], sepset: &[VarId]) -> Vec<usize> {
    let mut target_strides = vec![0usize; vars.len()];
    // Sepsets are sorted subsets of the clique scope; walk both in
    // lockstep assigning row-major strides (last sepset var fastest).
    let mut stride = 1usize;
    let mut j = sepset.len();
    for i in (0..vars.len()).rev() {
        if j > 0 && vars[i] == sepset[j - 1] {
            j -= 1;
            target_strides[i] = stride;
            stride *= cards[i];
        }
    }
    assert_eq!(j, 0, "sepset must be contained in the clique scope");
    target_strides
}

/// Decomposes a dense clique→sepset projection into the blocked form the
/// vectorized kernels walk (see [`BlockedProj`]).
///
/// Dimensions are classified from the innermost outward: the maximal
/// suffix of kept dimensions with natural (contiguous) target strides
/// becomes the copy run, the run of summed-out dimensions directly above
/// it becomes the fold count, and the remaining prefix is enumerated once
/// here into per-block target offsets. The degenerate decomposition
/// (`copy_len == 1`, `sum_reps == 1`, one base per entry) is exactly the
/// per-entry table, so correctness never depends on a favourable layout.
fn blocked_projection(vars: &[VarId], cards: &[usize], sepset: &[VarId]) -> BlockedProj {
    let strides = sepset_strides(vars, cards, sepset);
    let mut j = cards.len();
    // Copy run: innermost kept dimensions laid out contiguously in the
    // target, i.e. each dimension's target stride equals the run length
    // accumulated so far.
    let mut copy_len = 1usize;
    while j > 0 && strides[j - 1] == copy_len && strides[j - 1] != 0 {
        copy_len *= cards[j - 1];
        j -= 1;
    }
    // Fold run: summed-out dimensions directly above the copy run.
    let mut sum_reps = 1usize;
    while j > 0 && strides[j - 1] == 0 {
        sum_reps *= cards[j - 1];
        j -= 1;
    }
    let blocks: usize = cards[..j].iter().product();
    let mut base = Vec::with_capacity(blocks);
    let mut digits = vec![0usize; j];
    let mut target = 0usize;
    for _ in 0..blocks {
        base.push(target as u32);
        for pos in (0..j).rev() {
            digits[pos] += 1;
            target += strides[pos];
            if digits[pos] < cards[pos] {
                break;
            }
            digits[pos] = 0;
            target -= strides[pos] * cards[pos];
        }
    }
    debug_assert_eq!(
        base.len() * sum_reps * copy_len,
        cards.iter().product::<usize>()
    );
    BlockedProj {
        copy_len: copy_len as u32,
        sum_reps: sum_reps as u32,
        base,
    }
}

/// The sepset linear index of every clique entry, by the per-entry
/// odometer over the sepset strides. Builds the support-aligned tables and
/// serves the two-pass reference, which derives a dense clique's map here
/// at call time; the blocked form is checked against it.
pub(crate) fn clique_to_sepset(vars: &[VarId], cards: &[usize], sepset: &[VarId]) -> Vec<u32> {
    let target_strides = sepset_strides(vars, cards, sepset);
    let len: usize = cards.iter().product();
    let mut full = Vec::with_capacity(len);
    let mut digits = vec![0usize; cards.len()];
    let mut target = 0usize;
    for _ in 0..len {
        full.push(target as u32);
        for pos in (0..cards.len()).rev() {
            digits[pos] += 1;
            target += target_strides[pos];
            if digits[pos] < cards[pos] {
                break;
            }
            digits[pos] = 0;
            target -= target_strides[pos] * cards[pos];
        }
    }
    full
}

/// A dense clique's clique→sepset index of every entry, read two
/// independent ways: expanded from the blocked form the kernels walk, and
/// from the per-entry odometer of the two-pass reference. For the
/// index-sequence property tests; not part of the supported API.
///
/// # Panics
///
/// Panics if `sepset` is not an ascending subset of the clique's scope.
#[doc(hidden)]
pub fn projection_index_sequences(clique: &Factor, sepset: &[VarId]) -> (Vec<u32>, Vec<u32>) {
    let (vars, cards) = (clique.vars(), clique.cards());
    let blocked = blocked_projection(vars, cards, sepset);
    let mut expanded = Vec::with_capacity(clique.len());
    for &base in &blocked.base {
        for _ in 0..blocked.sum_reps {
            expanded.extend(base..base + blocked.copy_len);
        }
    }
    (expanded, clique_to_sepset(vars, cards, sepset))
}

/// Marginalizes a clique table into `target` (a sepset-sized buffer)
/// through a per-entry projection by scatter-add. `target` is
/// (re)initialized here.
///
/// With a support list only the listed entries are visited; the skipped
/// entries are exact zeros, which contribute nothing to a sum, so the
/// support walk matches the dense loop bit for bit.
pub(crate) fn marginalize_into(
    values: &[f64],
    support: Option<&[u32]>,
    proj: &[u32],
    target: &mut [f64],
) {
    target.fill(0.0);
    match support {
        None => {
            for (i, &p) in proj.iter().enumerate() {
                target[p as usize] += values[i];
            }
        }
        Some(support) => {
            for (k, &idx) in support.iter().enumerate() {
                target[proj[k] as usize] += values[idx as usize];
            }
        }
    }
}

/// Multiplies a sepset-sized `update` into a clique table through a
/// per-entry projection (the second half of HUGIN absorption). With a
/// support list only nonzero entries are touched; the skipped entries are
/// zeros and stay zeros.
pub(crate) fn multiply_from(
    values: &mut [f64],
    support: Option<&[u32]>,
    proj: &[u32],
    update: &[f64],
) {
    match support {
        None => {
            for (i, v) in values.iter_mut().enumerate() {
                *v *= update[proj[i] as usize];
            }
        }
        Some(support) => {
            for (k, &idx) in support.iter().enumerate() {
                values[idx as usize] *= update[proj[k] as usize];
            }
        }
    }
}

/// Blocked (stride-aware) marginalize of a dense clique table into
/// `target`: one sequential sweep of `values`, adding contiguous
/// `copy_len` runs into contiguous target runs. Bit-identical to the
/// per-entry [`marginalize_into`]: blocks and fold repetitions are
/// visited in ascending source order, so each target slot combines its
/// contributions in exactly the reference order.
pub(crate) fn marginalize_blocked(values: &[f64], blocked: &BlockedProj, target: &mut [f64]) {
    let l = blocked.copy_len as usize;
    let s = blocked.sum_reps as usize;
    let mut off = 0usize;
    target.fill(0.0);
    if l == 1 {
        // Whole blocks fold into single target slots: keep the reduction
        // in a register instead of bouncing through memory per entry.
        for &b in &blocked.base {
            let mut acc = target[b as usize];
            for &v in &values[off..off + s] {
                acc += v;
            }
            target[b as usize] = acc;
            off += s;
        }
    } else {
        // Contiguous lane-parallel adds: independent slots, so the
        // autovectorizer chunks these without any reassociation.
        for &b in &blocked.base {
            let b = b as usize;
            for _ in 0..s {
                let dst = &mut target[b..b + l];
                for (t, &v) in dst.iter_mut().zip(&values[off..off + l]) {
                    *t += v;
                }
                off += l;
            }
        }
    }
}

/// Blocked gather-copy of a factor into a clique table: entry `i` becomes
/// `src[proj(i)]`. The first hosted factor of [`materialize`], where it
/// replaces a fill with ones followed by [`multiply_blocked`].
fn gather_blocked(values: &mut [f64], blocked: &BlockedProj, src: &[f64]) {
    let l = blocked.copy_len as usize;
    let s = blocked.sum_reps as usize;
    let mut off = 0usize;
    if l == 1 {
        for &b in &blocked.base {
            values[off..off + s].fill(src[b as usize]);
            off += s;
        }
    } else {
        for &b in &blocked.base {
            let run = &src[b as usize..b as usize + l];
            for _ in 0..s {
                values[off..off + l].copy_from_slice(run);
                off += l;
            }
        }
    }
}

/// Blocked multiply of a sepset-sized `update` into a dense clique table:
/// the gather direction of [`marginalize_blocked`]. Elementwise products
/// in any order are the same products, so this is bit-identical to the
/// per-entry [`multiply_from`].
pub(crate) fn multiply_blocked(values: &mut [f64], blocked: &BlockedProj, update: &[f64]) {
    let l = blocked.copy_len as usize;
    let s = blocked.sum_reps as usize;
    let mut off = 0usize;
    if l == 1 {
        for &b in &blocked.base {
            let u = update[b as usize];
            for v in &mut values[off..off + s] {
                *v *= u;
            }
            off += s;
        }
    } else {
        for &b in &blocked.base {
            let upd = &update[b as usize..b as usize + l];
            for _ in 0..s {
                for (v, &u) in values[off..off + l].iter_mut().zip(upd) {
                    *v *= u;
                }
                off += l;
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn v(i: usize) -> VarId {
        VarId::from_index(i)
    }

    #[test]
    fn mode_parsing_round_trips() {
        for mode in SparseMode::ALL {
            assert_eq!(mode.to_string().parse::<SparseMode>(), Ok(mode));
        }
        assert_eq!("AUTO".parse::<SparseMode>(), Ok(SparseMode::Auto));
        assert!("sometimes".parse::<SparseMode>().is_err());
        assert_eq!(SparseMode::default(), SparseMode::Auto);
    }

    /// Mixed-cardinality factor so blocked decompositions see uneven dims.
    fn mixed_factor(cards: &[usize], values: Vec<f64>) -> Factor {
        Factor::new(
            cards.iter().enumerate().map(|(i, &c)| (v(i), c)).collect(),
            values,
        )
    }

    #[test]
    fn blocked_projection_decomposes_known_shapes() {
        // dims (a:2, b:3, c:4); keep the {b, c} suffix → one 12-entry copy
        // run, and the summed-out `a` right above it folds into reps.
        let f = mixed_factor(&[2, 3, 4], (0..24).map(|x| x as f64).collect());
        let bp = blocked_projection(f.vars(), f.cards(), &[v(1), v(2)]);
        assert_eq!((bp.copy_len, bp.sum_reps), (12, 2));
        assert_eq!(bp.base, vec![0]);
        // Keep only the innermost var → copy run c, fold run absorbs both
        // summed-out dims b and a.
        let bp = blocked_projection(f.vars(), f.cards(), &[v(2)]);
        assert_eq!((bp.copy_len, bp.sum_reps), (4, 6));
        assert_eq!(bp.base, vec![0]);
        // Keep {a, c} → copy run c, fold run b, blocks over kept a (target
        // stride 4).
        let bp = blocked_projection(f.vars(), f.cards(), &[v(0), v(2)]);
        assert_eq!((bp.copy_len, bp.sum_reps), (4, 3));
        assert_eq!(bp.base, vec![0, 4]);
        // Keep only the middle var → copy run degenerates to 1 entry.
        let bp = blocked_projection(f.vars(), f.cards(), &[v(1)]);
        assert_eq!((bp.copy_len, bp.sum_reps), (1, 4));
        assert_eq!(bp.base, vec![0, 1, 2, 0, 1, 2]);
        // Empty sepset → everything folds into one slot.
        let bp = blocked_projection(f.vars(), f.cards(), &[]);
        assert_eq!((bp.copy_len, bp.sum_reps), (1, 24));
        assert_eq!(bp.base, vec![0]);
        // Full sepset → one pure copy run.
        let bp = blocked_projection(f.vars(), f.cards(), &[v(0), v(1), v(2)]);
        assert_eq!((bp.copy_len, bp.sum_reps), (24, 1));
        assert_eq!(bp.base, vec![0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Blocked kernels against the per-entry reference on every sepset
        /// subset of a random mixed-cardinality clique: the sum must be
        /// bit-identical.
        #[test]
        fn blocked_kernels_match_per_entry_reference(
            cards in proptest::collection::vec(2usize..=4, 2..=4),
            seed in 0u64..1u64 << 48,
            mask in 1usize..15,
        ) {
            let len: usize = cards.iter().product();
            // Deterministic pseudo-random values from the seed.
            let values: Vec<f64> = (0..len)
                .map(|i| {
                    let x = seed.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
                    ((x >> 11) as f64 / (1u64 << 53) as f64) + 0.001
                })
                .collect();
            let clique = mixed_factor(&cards, values);
            let sepset: Vec<VarId> = (0..cards.len())
                .filter(|i| mask & (1 << i) != 0)
                .map(v)
                .collect();
            let proj = clique_to_sepset(clique.vars(), clique.cards(), &sepset);
            let bp = blocked_projection(clique.vars(), clique.cards(), &sepset);
            let sep_len: usize = sepset
                .iter()
                .map(|s| clique.cards()[clique.position(*s).unwrap()])
                .product();
            let mut reference = vec![f64::NAN; sep_len];
            marginalize_into(clique.values(), None, &proj, &mut reference);
            let mut blocked = vec![f64::NAN; sep_len];
            marginalize_blocked(clique.values(), &bp, &mut blocked);
            let ref_bits: Vec<u64> = reference.iter().map(|x| x.to_bits()).collect();
            let got_bits: Vec<u64> = blocked.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(got_bits, ref_bits, "blocked marginalize must be bit-identical");
            // Multiply direction: bit-identical too.
            let update: Vec<f64> = (0..sep_len).map(|i| 0.5 + i as f64).collect();
            let mut reference = clique.values().to_vec();
            multiply_from(&mut reference, None, &proj, &update);
            let mut blocked = clique.values().to_vec();
            multiply_blocked(&mut blocked, &bp, &update);
            let ref_bits: Vec<u64> = reference.iter().map(|x| x.to_bits()).collect();
            let got_bits: Vec<u64> = blocked.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(got_bits, ref_bits);
        }
    }

    #[test]
    fn compress_thresholds() {
        assert!(!compress(SparseMode::Off, 0, 8));
        assert!(compress(SparseMode::On, 7, 8));
        assert!(!compress(SparseMode::On, 8, 8));
        // Auto follows the cost model: 5·nnz must undercut the table size.
        assert!(compress(SparseMode::Auto, 1, 8)); // 5 < 8: support wins
        assert!(!compress(SparseMode::Auto, 2, 8)); // 10 ≥ 8: dense wins
                                                    // Exactly half zero — the original rule compressed this and
                                                    // lost on c880; the cost model keeps it dense.
        assert!(!compress(SparseMode::Auto, 4, 8));
        // 75% zero sat right at the old (pre-blocking) break-even; with
        // the fused dense kernels it stays dense (alu2 was 0.93x).
        assert!(!compress(SparseMode::Auto, 16, 64));
        // A 96%-zero deterministic-gate table still compresses.
        assert!(compress(SparseMode::Auto, 2, 64));
    }

    /// A factor over `n` four-state variables with the given zero pattern.
    fn pattern_factor(n: usize, values: Vec<f64>) -> Factor {
        Factor::new((0..n).map(|i| (v(i), 4)).collect(), values)
    }

    /// Kernel path: projection + optional support, as used by `CompiledTree`.
    fn kernel_marginalize(clique: &Factor, sepset: &[VarId]) -> Vec<f64> {
        let support = support_of(clique.values());
        let SideProj::Support(proj) =
            side_proj(clique.vars(), clique.cards(), sepset, Some(&support))
        else {
            unreachable!("a support list gives a support-aligned table")
        };
        let proj_dense = clique_to_sepset(clique.vars(), clique.cards(), sepset);
        let sep_len: usize = sepset
            .iter()
            .map(|s| clique.cards()[clique.position(*s).unwrap()])
            .product();
        let mut sparse = vec![f64::NAN; sep_len];
        let mut dense = vec![f64::NAN; sep_len];
        marginalize_into(clique.values(), Some(&support), &proj, &mut sparse);
        marginalize_into(clique.values(), None, &proj_dense, &mut dense);
        assert_eq!(sparse, dense, "sparse and dense kernels must agree");
        sparse
    }

    /// Strategy: 2–3 four-state variables, each entry zero with the given
    /// percent probability — `75` mimics a deterministic gate CPT's shape.
    fn arb_clique(zero_pct: u32) -> impl Strategy<Value = Factor> {
        (2usize..=3).prop_flat_map(move |n| {
            proptest::collection::vec((0u32..100, 0.01f64..1.0), 4usize.pow(n as u32)).prop_map(
                move |cells| {
                    let values = cells
                        .into_iter()
                        .map(|(r, v)| if r < zero_pct { 0.0 } else { v })
                        .collect();
                    pattern_factor(n, values)
                },
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn sparse_marginalize_matches_dense(clique in arb_clique(75)) {
            // Keep a strict prefix of the scope as the "sepset".
            let sepset: Vec<VarId> = clique.vars()[..clique.vars().len() - 1].to_vec();
            let reference = clique.marginalize_keep(&sepset);
            let got = kernel_marginalize(&clique, &sepset);
            prop_assert_eq!(got.as_slice(), reference.values());
        }

        #[test]
        fn sparse_multiply_matches_mul_assign_sub(clique in arb_clique(75), dense_update in arb_clique(0)) {
            // Restrict the update to a sepset-shaped factor over a prefix.
            let sepset: Vec<VarId> = clique.vars()[..clique.vars().len() - 1].to_vec();
            let update = dense_update.marginalize_keep(&sepset);
            let mut reference = clique.clone();
            reference.mul_assign_sub(&update);

            let support = support_of(clique.values());
            let SideProj::Support(proj) = side_proj(clique.vars(), clique.cards(), &sepset, Some(&support)) else {
                unreachable!("a support list gives a support-aligned table")
            };
            let mut got = clique.clone();
            multiply_from(got.values_mut(), Some(&support), &proj, update.values());
            // Entries outside the support are zeros on both sides (0 * x
            // may differ in zero sign only, which == treats as equal).
            prop_assert_eq!(got.values(), reference.values());
        }

        #[test]
        fn fully_dense_cliques_take_the_dense_path(clique in arb_clique(0)) {
            prop_assert_eq!(support_of(clique.values()).len(), clique.len());
            prop_assert!(!compress(SparseMode::Auto, clique.len(), clique.len()));
        }
    }

    #[test]
    fn projection_matches_marginalize_on_interior_sepset() {
        // Sepset that is not a scope prefix: keep the middle variable.
        let clique = pattern_factor(3, (0..64).map(|i| (i % 4) as f64).collect());
        let sepset = vec![v(1)];
        let proj = clique_to_sepset(clique.vars(), clique.cards(), &sepset);
        let mut target = vec![0.0f64; 4];
        marginalize_into(clique.values(), None, &proj, &mut target);
        assert_eq!(target.as_slice(), clique.marginalize_keep(&sepset).values());
    }
}
