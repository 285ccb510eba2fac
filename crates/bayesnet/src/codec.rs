//! Little-endian binary codec for compiled propagation artifacts.
//!
//! Serializes a [`CompiledTree`] — junction-tree structure, initial clique
//! potentials, message schedule, sparse kernels (supports + projection
//! tables), and home-variable dependency masks — field for field, so the
//! decoder reconstructs the exact struct the compiler produced without
//! re-running triangulation, kernel construction, or any other derivation.
//! Every `f64` travels as its IEEE 754 bit pattern ([`f64::to_bits`],
//! little-endian), which makes a loaded artifact *bit-identical* to the
//! fresh compile: identical potentials, identical iteration orders,
//! identical propagation results.
//!
//! The primitives ([`Writer`], [`Reader`]) are public so higher layers
//! (the `swact` artifact format) can frame this payload with their own
//! headers and checksums. Decoding here assumes the caller has already
//! integrity-checked the bytes (the artifact layer verifies a checksum
//! before handing them over); the reader still bounds every length against
//! the remaining input so a truncated or miscounted buffer yields a
//! [`CodecError`], never a panic or an unbounded allocation.

use std::fmt;

use crate::junction::{JunctionTree, TreeEdge};
use crate::sparse::{BlockedProj, EdgeProj, PropagationKernels, SideProj};
use crate::{CompiledTree, Factor, SparseMode, VarId};

/// Why a byte stream could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the announced structure did.
    Truncated,
    /// The bytes decode to an inconsistent structure (bad tag, impossible
    /// length, non-ascending factor scope, ...).
    Malformed(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => f.write_str("artifact payload is truncated"),
            CodecError::Malformed(m) => write!(f, "malformed artifact payload: {m}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Offset basis of 128-bit FNV-1a: the hash of empty input.
pub const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// Folds `bytes` into the 128-bit FNV-1a state `h` (start from
/// [`FNV128_OFFSET`]). The one hash behind artifact checksums, model keys,
/// message-cache keys and root signatures; words are fed as their
/// little-endian bytes. 128 bits keep accidental collisions — which would
/// silently reuse a stale message or posterior — out of reach for any
/// realistic sweep length.
#[inline]
pub fn fnv128(mut h: u128, bytes: &[u8]) -> u128 {
    for &byte in bytes {
        h ^= u128::from(byte);
        h = h.wrapping_mul(FNV128_PRIME);
    }
    h
}

/// [`fnv128`] over one word's little-endian bytes.
#[inline]
pub fn fnv128_u64(h: u128, word: u64) -> u128 {
    fnv128(h, &word.to_le_bytes())
}

fn malformed(message: impl Into<String>) -> CodecError {
    CodecError::Malformed(message.into())
}

/// Little-endian byte sink for artifact payloads.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// One raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A `u128`, little-endian.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A `usize`, widened to `u64` so the format is identical across
    /// pointer widths.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// An `f64` as its exact IEEE 754 bit pattern.
    pub fn f64_bits(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A boolean as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Raw bytes, without a length prefix.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Little-endian byte source for artifact payloads. Every read is bounds-
/// checked; every decoded length is validated against the remaining input
/// before anything is allocated.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over the whole buffer.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// One raw byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let bytes = self.take(4)?;
        Ok(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let mut out = [0u8; 8];
        out.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(out))
    }

    /// A little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, CodecError> {
        let mut out = [0u8; 16];
        out.copy_from_slice(self.take(16)?);
        Ok(u128::from_le_bytes(out))
    }

    /// A `usize` written by [`Writer::usize`].
    pub fn usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.u64()?).map_err(|_| malformed("count exceeds the address space"))
    }

    /// An `f64` from its exact bit pattern.
    pub fn f64_bits(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A boolean written by [`Writer::bool`].
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(malformed(format!("bad boolean byte {other}"))),
        }
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let len = self.len(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| malformed("string is not valid UTF-8"))
    }

    /// Raw bytes, without a length prefix.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    /// A collection length whose elements occupy at least `min_elem_bytes`
    /// each. Rejecting lengths the remaining input cannot possibly hold
    /// keeps a corrupted count from triggering a giant allocation.
    pub fn len(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let len = self.usize()?;
        if len.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(CodecError::Truncated);
        }
        Ok(len)
    }

    /// Asserts the input is fully consumed.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(malformed(format!(
                "{} trailing bytes after the payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

fn write_var(w: &mut Writer, v: VarId) {
    w.u32(v.index() as u32);
}

fn read_var(r: &mut Reader<'_>) -> Result<VarId, CodecError> {
    Ok(VarId::from_index(r.u32()? as usize))
}

fn write_var_list(w: &mut Writer, vars: &[VarId]) {
    w.usize(vars.len());
    for &v in vars {
        write_var(w, v);
    }
}

fn read_var_list(r: &mut Reader<'_>) -> Result<Vec<VarId>, CodecError> {
    let len = r.len(4)?;
    (0..len).map(|_| read_var(r)).collect()
}

fn write_usize_list(w: &mut Writer, list: &[usize]) {
    w.usize(list.len());
    for &v in list {
        w.usize(v);
    }
}

fn read_usize_list(r: &mut Reader<'_>) -> Result<Vec<usize>, CodecError> {
    let len = r.len(8)?;
    (0..len).map(|_| r.usize()).collect()
}

fn write_u32_list(w: &mut Writer, list: &[u32]) {
    w.usize(list.len());
    for &v in list {
        w.u32(v);
    }
}

fn read_u32_list(r: &mut Reader<'_>) -> Result<Vec<u32>, CodecError> {
    let len = r.len(4)?;
    (0..len).map(|_| r.u32()).collect()
}

/// Encodes one factor: scope `(var, card)` pairs followed by the value
/// table as raw `f64` bit patterns.
pub fn write_factor(w: &mut Writer, factor: &Factor) {
    w.usize(factor.vars().len());
    for (&var, &card) in factor.vars().iter().zip(factor.cards()) {
        write_var(w, var);
        w.usize(card);
    }
    w.usize(factor.values().len());
    for &v in factor.values() {
        w.f64_bits(v);
    }
}

/// Decodes one factor, validating the invariants [`Factor::new`] asserts
/// (strictly ascending scope, positive cardinalities, value count equal to
/// the state-space product) and that every value is a finite,
/// non-negative potential, so corrupt bytes become a [`CodecError`]
/// instead of a panic or a NaN estimate.
pub fn read_factor(r: &mut Reader<'_>) -> Result<Factor, CodecError> {
    let scope_len = r.len(12)?;
    let mut scope = Vec::with_capacity(scope_len);
    let mut states = 1usize;
    for _ in 0..scope_len {
        let var = read_var(r)?;
        let card = r.usize()?;
        if card == 0 {
            return Err(malformed("factor cardinality is zero"));
        }
        if let Some(&(last, _)) = scope.last() {
            if var <= last {
                return Err(malformed("factor scope is not strictly ascending"));
            }
        }
        states = states
            .checked_mul(card)
            .ok_or_else(|| malformed("factor state space overflows"))?;
        scope.push((var, card));
    }
    let value_len = r.len(8)?;
    if value_len != states {
        return Err(malformed(format!(
            "factor has {value_len} values for a {states}-state scope"
        )));
    }
    let mut values = Vec::with_capacity(value_len);
    for _ in 0..value_len {
        let value = r.f64_bits()?;
        if !(value.is_finite() && value >= 0.0) {
            return Err(malformed(format!(
                "factor value {value} is not a potential"
            )));
        }
        values.push(value);
    }
    Ok(Factor::new(scope, values))
}

fn write_tree(w: &mut Writer, tree: &JunctionTree) {
    let (cliques, edges, incident, roots, home_clique, cpt_clique, cards, fill_edges, total_states) =
        tree.codec_parts();
    w.usize(cliques.len());
    for clique in cliques {
        write_var_list(w, clique);
    }
    w.usize(edges.len());
    for edge in edges {
        w.usize(edge.a);
        w.usize(edge.b);
        write_var_list(w, &edge.sepset);
    }
    w.usize(incident.len());
    for list in incident {
        write_usize_list(w, list);
    }
    write_usize_list(w, roots);
    write_usize_list(w, home_clique);
    write_usize_list(w, cpt_clique);
    write_usize_list(w, cards);
    w.usize(fill_edges);
    w.f64_bits(total_states);
}

fn read_tree(r: &mut Reader<'_>) -> Result<JunctionTree, CodecError> {
    let num_cliques = r.len(8)?;
    let mut cliques = Vec::with_capacity(num_cliques);
    for _ in 0..num_cliques {
        cliques.push(read_var_list(r)?);
    }
    let num_edges = r.len(24)?;
    let mut edges = Vec::with_capacity(num_edges);
    for _ in 0..num_edges {
        let a = r.usize()?;
        let b = r.usize()?;
        if a >= num_cliques || b >= num_cliques {
            return Err(malformed("tree edge references a missing clique"));
        }
        let sepset = read_var_list(r)?;
        edges.push(TreeEdge { a, b, sepset });
    }
    let num_incident = r.len(8)?;
    if num_incident != num_cliques {
        return Err(malformed("incidence table size mismatches the cliques"));
    }
    let mut incident = Vec::with_capacity(num_incident);
    for _ in 0..num_incident {
        let list = read_usize_list(r)?;
        if list.iter().any(|&e| e >= num_edges) {
            return Err(malformed("incidence list references a missing edge"));
        }
        incident.push(list);
    }
    let roots = read_usize_list(r)?;
    let home_clique = read_usize_list(r)?;
    let cpt_clique = read_usize_list(r)?;
    let cards = read_usize_list(r)?;
    if roots.iter().any(|&c| c >= num_cliques)
        || home_clique.iter().any(|&c| c >= num_cliques)
        || cpt_clique.iter().any(|&c| c >= num_cliques)
    {
        return Err(malformed("clique assignment references a missing clique"));
    }
    if home_clique.len() != cards.len() || cpt_clique.len() != cards.len() {
        return Err(malformed("per-variable tables disagree on variable count"));
    }
    // The kernels index by these tables without further checks: every
    // clique and sepset must be an ascending list of known variables,
    // every sepset must lie in both its cliques, every incidence must
    // touch its clique, and every variable's home clique must hold it.
    let num_vars = cards.len();
    let is_var_set = |vars: &[VarId]| {
        vars.windows(2).all(|w| w[0] < w[1]) && vars.last().is_none_or(|v| v.index() < num_vars)
    };
    let is_subset = |sub: &[VarId], of: &[VarId]| sub.iter().all(|v| of.binary_search(v).is_ok());
    if !cliques.iter().all(|clique| is_var_set(clique)) {
        return Err(malformed("clique variables out of range or not ascending"));
    }
    for edge in &edges {
        if !is_var_set(&edge.sepset)
            || !is_subset(&edge.sepset, &cliques[edge.a])
            || !is_subset(&edge.sepset, &cliques[edge.b])
        {
            return Err(malformed("sepset is not a subset of both its cliques"));
        }
    }
    for (c, list) in incident.iter().enumerate() {
        if list.iter().any(|&e| edges[e].a != c && edges[e].b != c) {
            return Err(malformed("incidence list names an edge of another clique"));
        }
    }
    for (v, &home) in home_clique.iter().enumerate() {
        if cliques[home].binary_search(&VarId::from_index(v)).is_err() {
            return Err(malformed(format!("home clique {home} lacks variable {v}")));
        }
    }
    let fill_edges = r.usize()?;
    let total_states = r.f64_bits()?;
    Ok(JunctionTree::from_codec_parts(
        cliques,
        edges,
        incident,
        roots,
        home_clique,
        cpt_clique,
        cards,
        fill_edges,
        total_states,
    ))
}

fn mode_tag(mode: SparseMode) -> u8 {
    match mode {
        SparseMode::Auto => 0,
        SparseMode::On => 1,
        SparseMode::Off => 2,
    }
}

fn mode_from_tag(tag: u8) -> Result<SparseMode, CodecError> {
    match tag {
        0 => Ok(SparseMode::Auto),
        1 => Ok(SparseMode::On),
        2 => Ok(SparseMode::Off),
        other => Err(malformed(format!("unknown sparse-mode tag {other}"))),
    }
}

fn write_side_proj(w: &mut Writer, side: &SideProj) {
    write_u32_list(w, &side.entries);
    match &side.blocked {
        None => w.u8(0),
        Some(blocked) => {
            w.u8(1);
            w.u32(blocked.copy_len);
            w.u32(blocked.sum_reps);
            write_u32_list(w, &blocked.base);
        }
    }
}

fn read_side_proj(r: &mut Reader<'_>) -> Result<SideProj, CodecError> {
    let entries = read_u32_list(r)?;
    let blocked = match r.u8()? {
        0 => None,
        1 => {
            let copy_len = r.u32()?;
            let sum_reps = r.u32()?;
            let base = read_u32_list(r)?;
            let total = (base.len() as u64) * u64::from(sum_reps) * u64::from(copy_len);
            if total != entries.len() as u64 {
                return Err(malformed(format!(
                    "blocked projection covers {total} entries for a {}-entry clique",
                    entries.len()
                )));
            }
            Some(BlockedProj {
                copy_len,
                sum_reps,
                base,
            })
        }
        other => return Err(malformed(format!("bad blocked-projection tag {other}"))),
    };
    Ok(SideProj { entries, blocked })
}

/// Checks one decoded clique→sepset projection against the entries its
/// clique iterates (support length, or table length when dense) and the
/// sepset's state count, so the kernels' unchecked-by-design indexing
/// stays in bounds.
fn check_side_proj(proj: &SideProj, iterated: usize, sep_states: usize) -> Result<(), CodecError> {
    if proj.entries.len() != iterated {
        return Err(malformed(format!(
            "projection has {} entries for {iterated} iterated clique entries",
            proj.entries.len()
        )));
    }
    if proj.entries.iter().any(|&t| t as usize >= sep_states) {
        return Err(malformed(format!(
            "projection entry outside the {sep_states}-state sepset"
        )));
    }
    if let Some(blocked) = &proj.blocked {
        let copy = blocked.copy_len as usize;
        if blocked.base.iter().any(|&b| b as usize + copy > sep_states) {
            return Err(malformed(format!(
                "blocked run overruns the {sep_states}-state sepset"
            )));
        }
    }
    Ok(())
}

/// Encodes a [`CompiledTree`] — structure, potentials, schedule, kernels,
/// and dependency masks — into `w`.
pub fn write_compiled_tree(w: &mut Writer, compiled: &CompiledTree) {
    let (tree, potentials, schedule, kernels, mode, home_vars) = compiled.codec_parts();
    write_tree(w, tree);
    w.usize(potentials.len());
    for pot in potentials {
        write_factor(w, pot);
    }
    w.usize(schedule.len());
    for &(from, edge, to) in schedule {
        w.usize(from);
        w.usize(edge);
        w.usize(to);
    }
    w.usize(kernels.support.len());
    for support in &kernels.support {
        match support {
            None => w.u8(0),
            Some(list) => {
                w.u8(1);
                write_u32_list(w, list);
            }
        }
    }
    w.usize(kernels.edge_proj.len());
    for proj in &kernels.edge_proj {
        write_side_proj(w, &proj.a);
        write_side_proj(w, &proj.b);
    }
    w.usize(kernels.nnz);
    w.u8(mode_tag(mode));
    w.usize(home_vars.len());
    for vars in home_vars {
        write_var_list(w, vars);
    }
}

/// Decodes a [`CompiledTree`] written by [`write_compiled_tree`]. The
/// result is field-for-field identical to the encoded artifact; nothing is
/// re-derived, so propagation over the decoded tree is bit-identical to
/// propagation over the original.
///
/// Every table is range-checked against the tree it belongs to — clique
/// and sepset variables, potential scopes, schedule edges, support lists
/// and projection entries — so a corrupt payload is
/// [`CodecError::Malformed`] rather than an out-of-bounds panic in a
/// later propagation.
pub fn read_compiled_tree(r: &mut Reader<'_>) -> Result<CompiledTree, CodecError> {
    let tree = read_tree(r)?;
    let num_potentials = r.len(8)?;
    if num_potentials != tree.num_cliques() {
        return Err(malformed("potential count mismatches the cliques"));
    }
    let mut potentials = Vec::with_capacity(num_potentials);
    for clique in 0..num_potentials {
        let pot = read_factor(r)?;
        if pot.vars() != tree.clique(clique)
            || pot
                .vars()
                .iter()
                .zip(pot.cards())
                .any(|(&v, &c)| c != tree.card(v))
        {
            return Err(malformed(format!(
                "potential {clique} disagrees with its clique's scope"
            )));
        }
        potentials.push(pot);
    }
    let schedule_len = r.len(24)?;
    let mut schedule = Vec::with_capacity(schedule_len);
    for _ in 0..schedule_len {
        let from = r.usize()?;
        let edge = r.usize()?;
        let to = r.usize()?;
        if from >= tree.num_cliques() || to >= tree.num_cliques() || edge >= tree.num_edges() {
            return Err(malformed("schedule step references a missing element"));
        }
        let e = tree.edge(edge);
        if !((e.a == from && e.b == to) || (e.a == to && e.b == from)) {
            return Err(malformed("schedule step does not follow its edge"));
        }
        schedule.push((from, edge, to));
    }
    let support_len = r.len(1)?;
    if support_len != tree.num_cliques() {
        return Err(malformed("support table mismatches the cliques"));
    }
    let mut support = Vec::with_capacity(support_len);
    for (clique, pot) in potentials.iter().enumerate() {
        support.push(match r.u8()? {
            0 => None,
            1 => {
                let list = read_u32_list(r)?;
                let len = pot.len();
                if !list.windows(2).all(|w| w[0] < w[1])
                    || list.last().is_some_and(|&i| i as usize >= len)
                {
                    return Err(malformed(format!(
                        "support of clique {clique} is not ascending within its {len} entries"
                    )));
                }
                Some(list)
            }
            other => return Err(malformed(format!("bad support tag {other}"))),
        });
    }
    let proj_len = r.len(16)?;
    if proj_len != tree.num_edges() {
        return Err(malformed("projection table mismatches the edges"));
    }
    let mut edge_proj = Vec::with_capacity(proj_len);
    for e in 0..proj_len {
        let edge = tree.edge(e);
        let sep_states: usize = edge.sepset.iter().map(|&v| tree.card(v)).product();
        let mut side = |clique: usize| {
            let proj = read_side_proj(r)?;
            let iterated = support[clique]
                .as_ref()
                .map_or(potentials[clique].len(), Vec::len);
            check_side_proj(&proj, iterated, sep_states)?;
            Ok::<_, CodecError>(proj)
        };
        let a = side(edge.a)?;
        let b = side(edge.b)?;
        edge_proj.push(EdgeProj { a, b });
    }
    let nnz = r.usize()?;
    let kernels = PropagationKernels {
        support,
        edge_proj,
        nnz,
    };
    let mode = mode_from_tag(r.u8()?)?;
    let home_len = r.len(8)?;
    if home_len != tree.num_cliques() {
        return Err(malformed("home-variable masks mismatch the cliques"));
    }
    let mut home_vars = Vec::with_capacity(home_len);
    for _ in 0..home_len {
        let vars = read_var_list(r)?;
        if vars.iter().any(|v| v.index() >= tree.num_vars()) {
            return Err(malformed("home-variable mask names a missing variable"));
        }
        home_vars.push(vars);
    }
    Ok(CompiledTree::from_codec_parts(
        tree, potentials, schedule, kernels, mode, home_vars,
    ))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::{BayesNet, Cpt, JunctionTree};

    fn chain_net() -> BayesNet {
        let mut net = BayesNet::new();
        let a = net
            .add_var("a", 2, &[], Cpt::prior(vec![0.25, 0.75]))
            .unwrap();
        let b = net
            .add_var(
                "b",
                2,
                &[a],
                Cpt::rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]),
            )
            .unwrap();
        net.add_var(
            "c",
            4,
            &[b],
            Cpt::rows(vec![vec![0.5, 0.5, 0.0, 0.0], vec![0.0, 0.0, 0.5, 0.5]]),
        )
        .unwrap();
        net
    }

    fn compile(mode: SparseMode) -> CompiledTree {
        let net = chain_net();
        let tree = JunctionTree::compile(&net).unwrap();
        let potentials = crate::initial_potentials(&tree, &net);
        CompiledTree::from_parts_with(tree, potentials, mode)
    }

    fn round_trip(compiled: &CompiledTree) -> CompiledTree {
        let mut w = Writer::new();
        write_compiled_tree(&mut w, compiled);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let decoded = read_compiled_tree(&mut r).unwrap();
        r.finish().unwrap();
        decoded
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 3);
        w.u128(0x0123_4567_89ab_cdef_0123_4567_89ab_cdef);
        w.usize(42);
        w.f64_bits(-0.0);
        w.bool(true);
        w.str("héllo");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.u128().unwrap(), 0x0123_4567_89ab_cdef_0123_4567_89ab_cdef);
        assert_eq!(r.usize().unwrap(), 42);
        assert_eq!(r.f64_bits().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn truncated_reads_error_instead_of_panicking() {
        let mut w = Writer::new();
        w.u64(9);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..3]);
        assert_eq!(r.u64(), Err(CodecError::Truncated));
        // A length the remaining bytes cannot hold is rejected before any
        // allocation happens.
        let mut w = Writer::new();
        w.usize(usize::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.len(8), Err(CodecError::Truncated));
    }

    #[test]
    fn compiled_tree_round_trips_bit_identically() {
        for mode in SparseMode::ALL {
            let compiled = compile(mode);
            let decoded = round_trip(&compiled);
            assert_eq!(decoded.sparse_mode(), compiled.sparse_mode());
            assert_eq!(decoded.nnz(), compiled.nnz());
            assert_eq!(decoded.state_space(), compiled.state_space());
            assert_eq!(decoded.message_schedule(), compiled.message_schedule());
            assert_eq!(
                decoded.compressed_cliques(),
                compiled.compressed_cliques(),
                "mode {mode:?}"
            );
            assert_eq!(decoded.tree().num_cliques(), compiled.tree().num_cliques());
            for (a, b) in decoded
                .initial_potentials()
                .iter()
                .zip(compiled.initial_potentials())
            {
                assert_eq!(a.vars(), b.vars());
                let a_bits: Vec<u64> = a.values().iter().map(|v| v.to_bits()).collect();
                let b_bits: Vec<u64> = b.values().iter().map(|v| v.to_bits()).collect();
                assert_eq!(a_bits, b_bits, "potentials must be bit-identical");
            }
            // Propagation over the decoded artifact matches the original
            // bit for bit.
            let mut orig_state = compiled.new_state();
            let mut dec_state = decoded.new_state();
            compiled
                .set_likelihood(&mut orig_state, VarId::from_index(0), vec![0.6, 1.4])
                .unwrap();
            decoded
                .set_likelihood(&mut dec_state, VarId::from_index(0), vec![0.6, 1.4])
                .unwrap();
            compiled.calibrate(&mut orig_state);
            decoded.calibrate(&mut dec_state);
            for var in 0..3 {
                let a = compiled.marginal(&orig_state, VarId::from_index(var));
                let b = decoded.marginal(&dec_state, VarId::from_index(var));
                let a_bits: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
                let b_bits: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
                assert_eq!(a_bits, b_bits);
            }
        }
    }

    #[test]
    fn corrupt_structures_are_rejected() {
        let compiled = compile(SparseMode::Auto);
        let mut w = Writer::new();
        write_compiled_tree(&mut w, &compiled);
        let bytes = w.into_bytes();
        // Any truncation errors instead of panicking.
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(read_compiled_tree(&mut r).is_err(), "cut at {cut}");
        }
        // A wild clique count is caught by the length bound.
        let mut mangled = bytes.clone();
        mangled[0..8].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut r = Reader::new(&mangled);
        assert!(read_compiled_tree(&mut r).is_err());
    }

    /// An edit of a compiled tree's cliques, edges, home cliques,
    /// potentials and kernels.
    type Edit = fn(
        &mut Vec<Vec<VarId>>,
        &mut Vec<TreeEdge>,
        &mut Vec<usize>,
        &mut Vec<Factor>,
        &mut PropagationKernels,
    );

    /// Re-encodes `compiled` after `edit` changed its decoded parts, and
    /// decodes the bytes again.
    fn decode_edited(compiled: &CompiledTree, edit: Edit) -> Result<CompiledTree, CodecError> {
        let (tree, pots, schedule, kernels, mode, home_vars) = compiled.codec_parts();
        let (cliques, edges, incident, roots, home, cpt, cards, fill, total) = tree.codec_parts();
        let (mut cliques, mut edges, mut home) = (cliques.to_vec(), edges.to_vec(), home.to_vec());
        let (mut pots, mut kernels) = (pots.to_vec(), kernels.clone());
        edit(&mut cliques, &mut edges, &mut home, &mut pots, &mut kernels);
        let tree = JunctionTree::from_codec_parts(
            cliques,
            edges,
            incident.to_vec(),
            roots.to_vec(),
            home,
            cpt.to_vec(),
            cards.to_vec(),
            fill,
            total,
        );
        let edited = CompiledTree::from_codec_parts(
            tree,
            pots,
            schedule.to_vec(),
            kernels,
            mode,
            home_vars.to_vec(),
        );
        let mut w = Writer::new();
        write_compiled_tree(&mut w, &edited);
        read_compiled_tree(&mut Reader::new(&w.into_bytes()))
    }

    fn malformed_with(result: Result<CompiledTree, CodecError>, needle: &str) -> bool {
        matches!(result, Err(CodecError::Malformed(m)) if m.contains(needle))
    }

    /// Each table the kernels index without checks is range-checked
    /// against its own tree at decode. The chain `a → b → c` compiles to
    /// cliques `{a, b}` and `{b, c}` joined by the sepset `{b}`.
    #[test]
    fn decoded_tables_are_range_checked() {
        let dense = compile(SparseMode::Off);
        assert!(decode_edited(&dense, |_, _, _, _, _| {}).is_ok());
        let cases: [(&str, &str, Edit); 7] = [
            (
                "clique var out of range",
                "clique variables",
                |cl, _, _, _, _| cl[0].push(VarId::from_index(3)),
            ),
            (
                "sepset outside a clique",
                "sepset is not a subset",
                |cl, ed, _, _, _| {
                    let outside = if cl[ed[0].a].contains(&VarId::from_index(0)) {
                        2
                    } else {
                        0
                    };
                    ed[0].sepset = vec![VarId::from_index(outside)];
                },
            ),
            (
                "home clique lacks its var",
                "lacks variable",
                |cl, _, home, _, _| {
                    home[2] = cl
                        .iter()
                        .position(|c| !c.contains(&VarId::from_index(2)))
                        .unwrap();
                },
            ),
            (
                "potential scope",
                "disagrees with its clique",
                |_, _, _, pots, _| pots.swap(0, 1),
            ),
            (
                "projection entry",
                "projection entry outside",
                |_, _, _, _, k| k.edge_proj[0].a.entries[0] = 2,
            ),
            ("projection length", "projection has", |_, _, _, _, k| {
                let side = &mut k.edge_proj[0].b;
                side.entries.push(0);
                side.blocked = None;
            }),
            (
                "blocked overrun",
                "blocked run overruns",
                |_, _, _, _, k| k.edge_proj[0].a.blocked.as_mut().unwrap().base[0] = 2,
            ),
        ];
        for (what, needle, edit) in cases {
            assert!(
                malformed_with(decode_edited(&dense, edit), needle),
                "{what}"
            );
        }
        let sparse = compile(SparseMode::On);
        assert!(sparse.compressed_cliques() > 0);
        let unsorted = decode_edited(&sparse, |_, _, _, _, k| {
            let list = k
                .support
                .iter_mut()
                .flatten()
                .find(|s| s.len() > 1)
                .unwrap();
            list.reverse();
        });
        assert!(malformed_with(unsorted, "not ascending"), "support order");
        let beyond = decode_edited(&sparse, |_, _, _, pots, k| {
            let (clique, list) = k
                .support
                .iter_mut()
                .enumerate()
                .find_map(|(c, s)| s.as_mut().map(|s| (c, s)))
                .unwrap();
            *list.last_mut().unwrap() = pots[clique].len() as u32;
        });
        assert!(malformed_with(beyond, "not ascending"), "support range");
    }

    #[test]
    fn factor_validation_rejects_bad_scopes() {
        // Scope out of order.
        let mut w = Writer::new();
        w.usize(2);
        w.u32(5);
        w.usize(2);
        w.u32(3);
        w.usize(2);
        w.usize(4);
        for _ in 0..4 {
            w.f64_bits(0.25);
        }
        let bytes = w.into_bytes();
        assert!(matches!(
            read_factor(&mut Reader::new(&bytes)),
            Err(CodecError::Malformed(_))
        ));
        // Value count disagrees with the cardinality product.
        let mut w = Writer::new();
        w.usize(1);
        w.u32(0);
        w.usize(4);
        w.usize(2);
        w.f64_bits(0.5);
        w.f64_bits(0.5);
        let bytes = w.into_bytes();
        assert!(matches!(
            read_factor(&mut Reader::new(&bytes)),
            Err(CodecError::Malformed(_))
        ));
        // Values must be finite and non-negative.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5] {
            let mut w = Writer::new();
            w.usize(1);
            w.u32(0);
            w.usize(2);
            w.usize(2);
            w.f64_bits(0.5);
            w.f64_bits(bad);
            let bytes = w.into_bytes();
            assert!(
                matches!(
                    read_factor(&mut Reader::new(&bytes)),
                    Err(CodecError::Malformed(_))
                ),
                "{bad}"
            );
        }
    }
}
