//! Serialization of a whole [`CompiledEstimator`] — the payload of the
//! on-disk artifact format in [`crate::artifact`].
//!
//! The encoding is *self-contained*: it carries the working circuit
//! (replayed structurally through [`CircuitBuilder`], which assigns line
//! ids in declaration order so indices round-trip exactly), the full
//! [`Options`], the final post-degradation segment artifacts, export
//! routing, and the wave schedule. Loading therefore needs nothing but the
//! bytes — no original netlist, no recompilation — and produces an
//! estimator whose estimates are bit-identical (`f64::to_bits`) to the one
//! that was persisted, because every potential, projection table, and BDD
//! node travels as its exact bit pattern via the [`swact_bayesnet::codec`]
//! primitives.
//!
//! Per-process mutable state (propagation-state pools, message caches, the
//! posterior memo, BDD apply caches) is deliberately *not* serialized; it
//! is recreated empty at load and warms up per process.
//!
//! Decoding trusts its input only as far as not panicking: every length is
//! bounds-checked and cross-references are validated, so corrupt bytes
//! yield a [`CodecError`]. Integrity is the artifact layer's job (the
//! payload checksum is verified before this decoder runs).

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

use swact_bayesnet::codec::{read_compiled_tree, write_compiled_tree, CodecError, Reader, Writer};
use swact_bayesnet::{Heuristic, SparseMode, VarId};
use swact_bdd::{Bdd, NodeId};
use swact_circuit::{Circuit, CircuitBuilder, Driver, GateKind, LineId};

use crate::budget::{Budget, DegradationCause, DegradationReport, Fallback};
use crate::estimator::Options;
use crate::pipeline::backend::{Backend, CompiledSegment, SegmentArtifact, SegmentStats};
use crate::pipeline::bddexact::{BddSegment, GateNodes};
use crate::pipeline::jtree::JtreeSegment;
use crate::pipeline::model::{Export, InputPair, PairRoot};
use crate::pipeline::plan::PlannedCircuit;
use crate::pipeline::sampling::SamplingSegment;
use crate::pipeline::twostate::TwoStateSegment;
use crate::pipeline::{CompiledEstimator, StageTimings, WaveSchedule};
use crate::segment::{RootSource, SegmentationPlan};
use crate::strategy::SegmentationStrategy;
use crate::SegmentTimings;

fn malformed(message: impl Into<String>) -> CodecError {
    CodecError::Malformed(message.into())
}

// ---------------------------------------------------------------------------
// Small shared pieces
// ---------------------------------------------------------------------------

fn write_line(w: &mut Writer, line: LineId) {
    w.u32(line.index() as u32);
}

fn read_line(r: &mut Reader<'_>, num_lines: usize) -> Result<LineId, CodecError> {
    let idx = r.u32()? as usize;
    if idx >= num_lines {
        return Err(malformed(format!("line index {idx} out of {num_lines}")));
    }
    Ok(LineId::from_index(idx))
}

fn write_var(w: &mut Writer, var: VarId) {
    w.u32(var.index() as u32);
}

fn read_var(r: &mut Reader<'_>) -> Result<VarId, CodecError> {
    Ok(VarId::from_index(r.u32()? as usize))
}

fn write_duration(w: &mut Writer, d: Duration) {
    w.u64(d.as_nanos() as u64);
}

fn read_duration(r: &mut Reader<'_>) -> Result<Duration, CodecError> {
    Ok(Duration::from_nanos(r.u64()?))
}

fn write_root_source(w: &mut Writer, source: RootSource) {
    match source {
        RootSource::PrimaryInput(pos) => {
            w.u8(0);
            w.usize(pos);
        }
        RootSource::Boundary => w.u8(1),
    }
}

/// Reads a primary-input position: the estimate-time spec has one model
/// per input, indexed by it.
fn read_input_pos(r: &mut Reader<'_>, num_inputs: usize) -> Result<usize, CodecError> {
    let pos = r.usize()?;
    if pos >= num_inputs {
        return Err(malformed(format!(
            "primary input {pos} out of {num_inputs}"
        )));
    }
    Ok(pos)
}

fn read_root_source(r: &mut Reader<'_>, num_inputs: usize) -> Result<RootSource, CodecError> {
    match r.u8()? {
        0 => Ok(RootSource::PrimaryInput(read_input_pos(r, num_inputs)?)),
        1 => Ok(RootSource::Boundary),
        other => Err(malformed(format!("unknown root-source tag {other}"))),
    }
}

/// The primary-input structure of the decoded circuit that segment roots
/// index into: the input count, the group count, and the explicit pairs
/// sorted for lookup.
struct InputStructure {
    num_inputs: usize,
    num_groups: usize,
    sorted_pairs: Vec<(usize, usize)>,
}

fn backend_tag(backend: Backend) -> u8 {
    match backend {
        Backend::Jtree => 0,
        Backend::Bdd => 1,
        Backend::TwoState => 2,
        Backend::Sampling => 3,
    }
}

fn backend_from_tag(tag: u8) -> Result<Backend, CodecError> {
    match tag {
        0 => Ok(Backend::Jtree),
        1 => Ok(Backend::Bdd),
        2 => Ok(Backend::TwoState),
        3 => Ok(Backend::Sampling),
        other => Err(malformed(format!("unknown backend tag {other}"))),
    }
}

// ---------------------------------------------------------------------------
// Circuit: structural replay through CircuitBuilder
// ---------------------------------------------------------------------------

pub(crate) fn write_circuit(w: &mut Writer, circuit: &Circuit) {
    w.str(circuit.name());
    w.usize(circuit.num_lines());
    for idx in 0..circuit.num_lines() {
        let line = LineId::from_index(idx);
        w.str(circuit.line_name(line));
        match circuit.driver(line) {
            Driver::Input => w.u8(0),
            Driver::Gate(gate) => {
                w.u8(1);
                let kind = GateKind::ALL
                    .iter()
                    .position(|&k| k == gate.kind)
                    .expect("GateKind::ALL is exhaustive");
                w.u8(kind as u8);
                w.usize(gate.inputs.len());
                for &input in &gate.inputs {
                    write_line(w, input);
                }
            }
        }
    }
    w.usize(circuit.outputs().len());
    for &output in circuit.outputs() {
        write_line(w, output);
    }
}

/// One decoded line record: its name, and for gate lines the kind plus
/// input line indices (inputs may point at lines declared later).
type LineRecord = (String, Option<(GateKind, Vec<usize>)>);

fn read_circuit(r: &mut Reader<'_>) -> Result<Circuit, CodecError> {
    let name = r.str()?;
    let num_lines = r.len(2)?;
    // Gate inputs may reference lines declared later, so collect every
    // record first and replay through the builder once all names exist.
    let mut records: Vec<LineRecord> = Vec::with_capacity(num_lines);
    for _ in 0..num_lines {
        let line_name = r.str()?;
        let driver = match r.u8()? {
            0 => None,
            1 => {
                let kind_idx = r.u8()? as usize;
                let kind = *GateKind::ALL
                    .get(kind_idx)
                    .ok_or_else(|| malformed(format!("unknown gate kind {kind_idx}")))?;
                let n_inputs = r.len(4)?;
                let mut inputs = Vec::with_capacity(n_inputs);
                for _ in 0..n_inputs {
                    let idx = r.u32()? as usize;
                    if idx >= num_lines {
                        return Err(malformed("gate input references a missing line"));
                    }
                    inputs.push(idx);
                }
                Some((kind, inputs))
            }
            other => return Err(malformed(format!("unknown driver tag {other}"))),
        };
        records.push((line_name, driver));
    }
    let num_outputs = r.len(4)?;
    let mut outputs = Vec::with_capacity(num_outputs);
    for _ in 0..num_outputs {
        let idx = r.u32()? as usize;
        if idx >= num_lines {
            return Err(malformed("output references a missing line"));
        }
        outputs.push(idx);
    }
    let mut builder = CircuitBuilder::new(name);
    for (line_name, driver) in &records {
        match driver {
            None => builder.input(line_name),
            Some((kind, inputs)) => {
                let input_names: Vec<&str> =
                    inputs.iter().map(|&i| records[i].0.as_str()).collect();
                builder.gate(line_name, *kind, &input_names)
            }
        }
        .map_err(|e| malformed(format!("circuit replay: {e}")))?;
    }
    for &idx in &outputs {
        builder
            .output(&records[idx].0)
            .map_err(|e| malformed(format!("circuit replay: {e}")))?;
    }
    builder
        .finish()
        .map_err(|e| malformed(format!("circuit replay: {e}")))
}

// ---------------------------------------------------------------------------
// Options (including the resource budget)
// ---------------------------------------------------------------------------

pub(crate) fn write_options(w: &mut Writer, options: &Options) {
    w.u8(match options.heuristic {
        Heuristic::MinFill => 0,
        Heuristic::MinDegree => 1,
    });
    w.usize(options.max_fanin);
    w.usize(options.segment_budget);
    w.usize(options.check_interval);
    w.bool(options.single_bn);
    w.bool(options.boundary_correlation);
    w.u8(match options.sparse {
        SparseMode::Auto => 0,
        SparseMode::On => 1,
        SparseMode::Off => 2,
    });
    w.u8(backend_tag(options.backend));
    match options.budget.max_states {
        None => w.u8(0),
        Some(v) => {
            w.u8(1);
            w.f64_bits(v);
        }
    }
    match options.budget.max_factor_bytes {
        None => w.u8(0),
        Some(v) => {
            w.u8(1);
            w.usize(v);
        }
    }
    match options.budget.deadline {
        None => w.u8(0),
        Some(d) => {
            w.u8(1);
            write_duration(w, d);
        }
    }
    w.bool(options.no_fallback);
    w.bool(options.incremental);
    w.u8(match options.segmentation {
        SegmentationStrategy::TopoCover => 0,
        SegmentationStrategy::BalancedCut => 1,
    });
    w.u64(options.seed);
    w.f64_bits(options.ci_half_width);
    w.f64_bits(options.ci_z);
}

fn read_options(r: &mut Reader<'_>) -> Result<Options, CodecError> {
    let heuristic = match r.u8()? {
        0 => Heuristic::MinFill,
        1 => Heuristic::MinDegree,
        other => return Err(malformed(format!("unknown heuristic tag {other}"))),
    };
    let max_fanin = r.usize()?;
    let segment_budget = r.usize()?;
    let check_interval = r.usize()?;
    let single_bn = r.bool()?;
    let boundary_correlation = r.bool()?;
    let sparse = match r.u8()? {
        0 => SparseMode::Auto,
        1 => SparseMode::On,
        2 => SparseMode::Off,
        other => return Err(malformed(format!("unknown sparse tag {other}"))),
    };
    let backend = backend_from_tag(r.u8()?)?;
    let max_states = match r.u8()? {
        0 => None,
        1 => Some(r.f64_bits()?),
        other => return Err(malformed(format!("bad option byte {other}"))),
    };
    let max_factor_bytes = match r.u8()? {
        0 => None,
        1 => Some(r.usize()?),
        other => return Err(malformed(format!("bad option byte {other}"))),
    };
    let deadline = match r.u8()? {
        0 => None,
        1 => Some(read_duration(r)?),
        other => return Err(malformed(format!("bad option byte {other}"))),
    };
    let no_fallback = r.bool()?;
    let incremental = r.bool()?;
    let segmentation = match r.u8()? {
        0 => SegmentationStrategy::TopoCover,
        1 => SegmentationStrategy::BalancedCut,
        other => return Err(malformed(format!("unknown segmentation tag {other}"))),
    };
    let seed = r.u64()?;
    let ci_half_width = r.f64_bits()?;
    let ci_z = r.f64_bits()?;
    Ok(Options {
        heuristic,
        max_fanin,
        segment_budget,
        check_interval,
        single_bn,
        boundary_correlation,
        sparse,
        backend,
        budget: Budget {
            max_states,
            max_factor_bytes,
            deadline,
        },
        no_fallback,
        incremental,
        segmentation,
        seed,
        ci_half_width,
        ci_z,
    })
}

// ---------------------------------------------------------------------------
// Degradation provenance
// ---------------------------------------------------------------------------

fn write_degradation(w: &mut Writer, report: &DegradationReport) {
    w.usize(report.segment);
    match report.cause {
        DegradationCause::StateBudget { estimated, budget } => {
            w.u8(0);
            w.f64_bits(estimated);
            w.f64_bits(budget);
        }
        DegradationCause::FactorBytes { bytes, budget } => {
            w.u8(1);
            w.usize(bytes);
            w.usize(budget);
        }
    }
    match report.fallback {
        Fallback::Replanned { subsegments } => {
            w.u8(0);
            w.usize(subsegments);
        }
        Fallback::TwoState => w.u8(1),
        Fallback::Sampling => w.u8(2),
    }
}

fn read_degradation(r: &mut Reader<'_>) -> Result<DegradationReport, CodecError> {
    let segment = r.usize()?;
    let cause = match r.u8()? {
        0 => DegradationCause::StateBudget {
            estimated: r.f64_bits()?,
            budget: r.f64_bits()?,
        },
        1 => DegradationCause::FactorBytes {
            bytes: r.usize()?,
            budget: r.usize()?,
        },
        other => return Err(malformed(format!("unknown degradation cause {other}"))),
    };
    let fallback = match r.u8()? {
        0 => Fallback::Replanned {
            subsegments: r.usize()?,
        },
        1 => Fallback::TwoState,
        2 => Fallback::Sampling,
        other => return Err(malformed(format!("unknown fallback tag {other}"))),
    };
    Ok(DegradationReport {
        segment,
        cause,
        fallback,
    })
}

// ---------------------------------------------------------------------------
// Segment artifacts (one per backend)
// ---------------------------------------------------------------------------

fn write_jtree_segment(w: &mut Writer, seg: &JtreeSegment) {
    write_compiled_tree(w, &seg.compiled);
    w.usize(seg.solo_roots.len());
    for &(line, var, source) in &seg.solo_roots {
        write_line(w, line);
        write_var(w, var);
        write_root_source(w, source);
    }
    w.usize(seg.pair_roots.len());
    for pair in &seg.pair_roots {
        write_var(w, pair.var);
        write_var(w, pair.parent_var);
        w.usize(pair.slot);
    }
    w.usize(seg.input_pairs.len());
    for pair in &seg.input_pairs {
        write_var(w, pair.var);
        write_var(w, pair.parent_var);
        w.usize(pair.child_pos);
        w.usize(pair.parent_pos);
        match pair.group {
            None => w.u8(0),
            Some(g) => {
                w.u8(1);
                w.usize(g);
            }
        }
    }
    w.usize(seg.gates.len());
    for &(line, var) in &seg.gates {
        write_line(w, line);
        write_var(w, var);
    }
}

fn read_jtree_segment(
    r: &mut Reader<'_>,
    num_lines: usize,
    inputs: &InputStructure,
    options: &Options,
) -> Result<JtreeSegment, CodecError> {
    let compiled = read_compiled_tree(r)?;
    // Every variable the segment names must belong to its own tree, and a
    // conditioned root must follow its parent (the pair factor's scope is
    // built in that order).
    let num_vars = compiled.tree().num_vars();
    let tree_var = |r: &mut Reader<'_>| {
        let var = read_var(r)?;
        if var.index() >= num_vars {
            return Err(malformed(format!(
                "variable {var} outside the segment's {num_vars} variables"
            )));
        }
        Ok(var)
    };
    let pair_vars = |r: &mut Reader<'_>| {
        let (var, parent_var) = (tree_var(r)?, tree_var(r)?);
        if parent_var >= var {
            return Err(malformed(format!(
                "conditioned root {var} does not follow its parent {parent_var}"
            )));
        }
        Ok((var, parent_var))
    };
    let n_solo = r.len(9)?;
    let mut solo_roots = Vec::with_capacity(n_solo);
    for _ in 0..n_solo {
        let line = read_line(r, num_lines)?;
        let var = tree_var(r)?;
        let source = read_root_source(r, inputs.num_inputs)?;
        solo_roots.push((line, var, source));
    }
    let n_pairs = r.len(16)?;
    let mut pair_roots = Vec::with_capacity(n_pairs);
    for _ in 0..n_pairs {
        let (var, parent_var) = pair_vars(r)?;
        pair_roots.push(PairRoot {
            var,
            parent_var,
            slot: r.usize()?,
        });
    }
    let n_input_pairs = r.len(25)?;
    let mut input_pairs = Vec::with_capacity(n_input_pairs);
    for _ in 0..n_input_pairs {
        let (var, parent_var) = pair_vars(r)?;
        let child_pos = read_input_pos(r, inputs.num_inputs)?;
        let parent_pos = read_input_pos(r, inputs.num_inputs)?;
        // The conditional comes from the named group's model or from the
        // spec's explicit joint for this pair, so either must exist.
        let group = match r.u8()? {
            0 => {
                if inputs
                    .sorted_pairs
                    .binary_search(&(parent_pos, child_pos))
                    .is_err()
                {
                    return Err(malformed(format!(
                        "input pair ({parent_pos}, {child_pos}) outside the pair signature"
                    )));
                }
                None
            }
            1 => {
                let group = r.usize()?;
                if group >= inputs.num_groups {
                    return Err(malformed(format!(
                        "input group {group} out of {}",
                        inputs.num_groups
                    )));
                }
                Some(group)
            }
            other => return Err(malformed(format!("bad group byte {other}"))),
        };
        input_pairs.push(InputPair {
            var,
            parent_var,
            child_pos,
            parent_pos,
            group,
        });
    }
    let n_gates = r.len(8)?;
    let mut gates = Vec::with_capacity(n_gates);
    for _ in 0..n_gates {
        let line = read_line(r, num_lines)?;
        let var = tree_var(r)?;
        gates.push((line, var));
    }
    let msg_cache = compiled.new_message_cache();
    // Re-derived, not persisted: the decision is a pure function of the
    // decoded compiled tree, so a loaded artifact decides identically to
    // the original compile.
    let cache_worthwhile = compiled.message_cache_worthwhile();
    Ok(JtreeSegment {
        compiled,
        states: Mutex::new(Vec::new()),
        msg_cache,
        incremental: options.incremental,
        cache_worthwhile,
        solo_roots,
        pair_roots,
        input_pairs,
        gates,
        exports: Vec::new(),
    })
}

fn write_twostate_segment(w: &mut Writer, seg: &TwoStateSegment) {
    write_compiled_tree(w, &seg.compiled);
    w.usize(seg.roots.len());
    for &(line, var, source) in &seg.roots {
        write_line(w, line);
        write_var(w, var);
        write_root_source(w, source);
    }
    w.usize(seg.gates.len());
    for &(line, var) in &seg.gates {
        write_line(w, line);
        write_var(w, var);
    }
}

fn read_twostate_segment(
    r: &mut Reader<'_>,
    num_lines: usize,
    num_inputs: usize,
) -> Result<TwoStateSegment, CodecError> {
    let compiled = read_compiled_tree(r)?;
    let n_roots = r.len(9)?;
    let mut roots = Vec::with_capacity(n_roots);
    for _ in 0..n_roots {
        let line = read_line(r, num_lines)?;
        let var = read_var(r)?;
        let source = read_root_source(r, num_inputs)?;
        roots.push((line, var, source));
    }
    let n_gates = r.len(8)?;
    let mut gates = Vec::with_capacity(n_gates);
    for _ in 0..n_gates {
        let line = read_line(r, num_lines)?;
        let var = read_var(r)?;
        gates.push((line, var));
    }
    Ok(TwoStateSegment {
        compiled,
        states: Mutex::new(Vec::new()),
        roots,
        gates,
    })
}

fn write_bdd_segment(w: &mut Writer, seg: &BddSegment) {
    w.usize(seg.bdd.num_vars());
    w.usize(seg.bdd.node_limit());
    let table = seg.bdd.export_table();
    w.usize(table.len());
    for [level, lo, hi] in table {
        w.u32(level);
        w.u32(lo);
        w.u32(hi);
    }
    w.usize(seg.roots.len());
    for &line in &seg.roots {
        write_line(w, line);
    }
    w.usize(seg.gates.len());
    for gate in &seg.gates {
        write_line(w, gate.line);
        w.u32(gate.p01.index() as u32);
        w.u32(gate.p10.index() as u32);
        w.u32(gate.p11.index() as u32);
    }
}

fn read_bdd_segment(r: &mut Reader<'_>, num_lines: usize) -> Result<BddSegment, CodecError> {
    let num_vars = r.usize()?;
    let node_limit = r.usize()?;
    let n_nodes = r.len(12)?;
    let mut table = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        table.push([r.u32()?, r.u32()?, r.u32()?]);
    }
    let bdd =
        Bdd::from_table(num_vars, node_limit, &table).map_err(|e| malformed(e.to_string()))?;
    let n_roots = r.len(4)?;
    let mut roots = Vec::with_capacity(n_roots);
    for _ in 0..n_roots {
        roots.push(read_line(r, num_lines)?);
    }
    let n_gates = r.len(16)?;
    let mut gates = Vec::with_capacity(n_gates);
    let node = |r: &mut Reader<'_>| -> Result<NodeId, CodecError> {
        let idx = r.u32()? as usize;
        if idx >= bdd.num_nodes() {
            return Err(malformed("gate node references a missing bdd node"));
        }
        Ok(NodeId::from_index(idx))
    };
    for _ in 0..n_gates {
        let line = read_line(r, num_lines)?;
        gates.push(GateNodes {
            line,
            p01: node(r)?,
            p10: node(r)?,
            p11: node(r)?,
        });
    }
    Ok(BddSegment { bdd, roots, gates })
}

fn write_sampling_segment(w: &mut Writer, seg: &SamplingSegment) {
    w.usize(seg.roots.len());
    for &(line, source) in &seg.roots {
        write_line(w, line);
        write_root_source(w, source);
    }
    w.usize(seg.gates.len());
    for (line, kind, inputs) in &seg.gates {
        write_line(w, *line);
        let kind_idx = GateKind::ALL
            .iter()
            .position(|k| k == kind)
            .expect("GateKind::ALL is exhaustive");
        w.u8(kind_idx as u8);
        w.usize(inputs.len());
        for &input in inputs {
            write_line(w, input);
        }
    }
    w.usize(seg.num_lines);
    w.u64(seg.stream_seed);
    w.f64_bits(seg.ci_half_width);
    w.f64_bits(seg.ci_z);
}

fn read_sampling_segment(
    r: &mut Reader<'_>,
    num_lines: usize,
    num_inputs: usize,
) -> Result<SamplingSegment, CodecError> {
    let n_roots = r.len(5)?;
    let mut roots = Vec::with_capacity(n_roots);
    for _ in 0..n_roots {
        let line = read_line(r, num_lines)?;
        let source = read_root_source(r, num_inputs)?;
        roots.push((line, source));
    }
    let n_gates = r.len(6)?;
    let mut gates = Vec::with_capacity(n_gates);
    for _ in 0..n_gates {
        let line = read_line(r, num_lines)?;
        let kind_idx = r.u8()? as usize;
        let kind = *GateKind::ALL
            .get(kind_idx)
            .ok_or_else(|| malformed(format!("unknown gate kind {kind_idx}")))?;
        let n_inputs = r.len(4)?;
        let mut inputs = Vec::with_capacity(n_inputs);
        for _ in 0..n_inputs {
            inputs.push(read_line(r, num_lines)?);
        }
        gates.push((line, kind, inputs));
    }
    let seg_num_lines = r.usize()?;
    if seg_num_lines > num_lines {
        return Err(malformed("sampling segment claims more lines than circuit"));
    }
    let stream_seed = r.u64()?;
    let ci_half_width = r.f64_bits()?;
    let ci_z = r.f64_bits()?;
    Ok(SamplingSegment {
        roots,
        gates,
        num_lines: seg_num_lines,
        stream_seed,
        ci_half_width,
        ci_z,
    })
}

fn write_segment(w: &mut Writer, segment: &CompiledSegment) {
    let stats = &segment.stats;
    w.f64_bits(stats.total_states);
    w.f64_bits(stats.max_clique_states);
    w.usize(stats.nnz);
    w.usize(stats.state_space);
    w.usize(stats.compressed_cliques);
    w.usize(stats.kernel_cost);
    // Stable order: HashMap iteration would make the bytes (and thus the
    // artifact checksum) nondeterministic across processes.
    let mut lines: Vec<(LineId, VarId)> = segment.lines.iter().map(|(&l, &v)| (l, v)).collect();
    lines.sort_by_key(|&(l, _)| l);
    w.usize(lines.len());
    for (line, var) in lines {
        write_line(w, line);
        write_var(w, var);
    }
    w.u8(backend_tag(segment.backend()));
    match &segment.artifact {
        SegmentArtifact::Jtree(seg) => write_jtree_segment(w, seg),
        SegmentArtifact::Bdd(seg) => write_bdd_segment(w, seg),
        SegmentArtifact::Sampling(seg) => write_sampling_segment(w, seg),
        SegmentArtifact::TwoState(seg) => write_twostate_segment(w, seg),
    }
}

fn read_segment(
    r: &mut Reader<'_>,
    num_lines: usize,
    inputs: &InputStructure,
    options: &Options,
) -> Result<CompiledSegment, CodecError> {
    let stats = SegmentStats {
        total_states: r.f64_bits()?,
        max_clique_states: r.f64_bits()?,
        nnz: r.usize()?,
        state_space: r.usize()?,
        compressed_cliques: r.usize()?,
        kernel_cost: r.usize()?,
    };
    let n_lines = r.len(8)?;
    let mut lines = HashMap::with_capacity(n_lines);
    for _ in 0..n_lines {
        let line = read_line(r, num_lines)?;
        let var = read_var(r)?;
        lines.insert(line, var);
    }
    let num_inputs = inputs.num_inputs;
    let artifact = match backend_from_tag(r.u8()?)? {
        Backend::Jtree => {
            SegmentArtifact::Jtree(read_jtree_segment(r, num_lines, inputs, options)?)
        }
        Backend::Bdd => SegmentArtifact::Bdd(read_bdd_segment(r, num_lines)?),
        Backend::Sampling => {
            SegmentArtifact::Sampling(read_sampling_segment(r, num_lines, num_inputs)?)
        }
        Backend::TwoState => {
            SegmentArtifact::TwoState(read_twostate_segment(r, num_lines, num_inputs)?)
        }
    };
    Ok(CompiledSegment {
        artifact,
        stats,
        lines,
    })
}

// ---------------------------------------------------------------------------
// The whole estimator
// ---------------------------------------------------------------------------

/// The working circuit, line map and input-structure signatures — every
/// part of the [`PlannedCircuit`] a loaded estimator reads.
fn write_planned(w: &mut Writer, planned: &PlannedCircuit) {
    write_circuit(w, &planned.working);
    w.usize(planned.line_map.len());
    for &idx in &planned.line_map {
        w.usize(idx);
    }
    w.usize(planned.group_signature.len());
    for group in &planned.group_signature {
        w.usize(group.len());
        for &member in group {
            w.usize(member);
        }
    }
    w.usize(planned.pair_signature.len());
    for &(a, b) in &planned.pair_signature {
        w.usize(a);
        w.usize(b);
    }
}

/// Serializes a compiled estimator into the artifact payload bytes. The
/// encoding is deterministic: the same estimator produces the same bytes
/// in every process.
pub(crate) fn encode_pipeline(pipeline: &CompiledEstimator) -> Vec<u8> {
    let mut w = Writer::new();
    write_planned(&mut w, &pipeline.planned);
    write_options(&mut w, &pipeline.options);
    // The kind list repeats each segment's own tag: format version 5
    // carries it, and the decoder cross-checks it against the tags.
    w.usize(pipeline.segments.len());
    for segment in &pipeline.segments {
        w.u8(backend_tag(segment.backend()));
    }
    w.usize(pipeline.degradations.len());
    for report in &pipeline.degradations {
        write_degradation(&mut w, report);
    }
    w.usize(pipeline.exports.len());
    for exports in &pipeline.exports {
        w.usize(exports.len());
        for export in exports {
            write_var(&mut w, export.parent_var);
            write_var(&mut w, export.child_var);
            w.usize(export.slot);
        }
    }
    w.usize(pipeline.num_slots);
    w.usize(pipeline.num_boundary_roots);
    w.usize(pipeline.schedule.waves().len());
    for wave in pipeline.schedule.waves() {
        w.usize(wave.len());
        for &seg in wave {
            w.usize(seg);
        }
    }
    // Wall-clock instrumentation (compile_time, stage/segment timings) is
    // deliberately not persisted: it varies run to run and would make the
    // bytes — and thus the artifact checksum — nondeterministic. A loaded
    // estimator reports zero compile time, which is what actually happened.
    w.f64_bits(pipeline.total_states);
    w.f64_bits(pipeline.max_clique_states);
    w.usize(pipeline.segments.len());
    for segment in &pipeline.segments {
        write_segment(&mut w, segment);
    }
    w.into_bytes()
}

/// Reconstructs a compiled estimator from [`encode_pipeline`] bytes.
/// Per-process state (state pools, message caches, the posterior memo) is
/// created fresh; everything the numerics read is restored bit-for-bit.
pub(crate) fn decode_pipeline(bytes: &[u8]) -> Result<CompiledEstimator, CodecError> {
    let mut r = Reader::new(bytes);
    let working = read_circuit(&mut r)?;
    let num_lines = working.num_lines();
    let num_inputs = working.num_inputs();
    let n_map = r.len(8)?;
    let mut line_map = Vec::with_capacity(n_map);
    for _ in 0..n_map {
        let idx = r.usize()?;
        if idx >= num_lines {
            return Err(malformed("line map references a missing working line"));
        }
        line_map.push(idx);
    }
    let n_groups = r.len(8)?;
    let mut group_signature = Vec::with_capacity(n_groups);
    for _ in 0..n_groups {
        let n_members = r.len(8)?;
        let mut members = Vec::with_capacity(n_members);
        for _ in 0..n_members {
            members.push(r.usize()?);
        }
        group_signature.push(members);
    }
    let n_pairs = r.len(16)?;
    let mut pair_signature = Vec::with_capacity(n_pairs);
    for _ in 0..n_pairs {
        pair_signature.push((r.usize()?, r.usize()?));
    }
    let options = read_options(&mut r)?;
    let n_kinds = r.len(1)?;
    let mut seg_kinds = Vec::with_capacity(n_kinds);
    for _ in 0..n_kinds {
        seg_kinds.push(backend_from_tag(r.u8()?)?);
    }
    let n_degradations = r.len(10)?;
    let mut degradations = Vec::with_capacity(n_degradations);
    for _ in 0..n_degradations {
        degradations.push(read_degradation(&mut r)?);
    }
    let n_exports = r.len(8)?;
    let mut exports = Vec::with_capacity(n_exports);
    for _ in 0..n_exports {
        let n = r.len(16)?;
        let mut list = Vec::with_capacity(n);
        for _ in 0..n {
            list.push(Export {
                parent_var: read_var(&mut r)?,
                child_var: read_var(&mut r)?,
                slot: r.usize()?,
            });
        }
        exports.push(list);
    }
    let num_slots = r.usize()?;
    let num_boundary_roots = r.usize()?;
    let n_waves = r.len(8)?;
    let mut waves = Vec::with_capacity(n_waves);
    for _ in 0..n_waves {
        let n = r.len(8)?;
        let mut wave = Vec::with_capacity(n);
        for _ in 0..n {
            wave.push(r.usize()?);
        }
        waves.push(wave);
    }
    let total_states = r.f64_bits()?;
    let max_clique_states = r.f64_bits()?;
    let n_segments = r.len(1)?;
    if seg_kinds.len() != n_segments || exports.len() != n_segments {
        return Err(malformed("per-segment tables disagree on segment count"));
    }
    for wave in &waves {
        if wave.iter().any(|&s| s >= n_segments) {
            return Err(malformed("schedule references a missing segment"));
        }
    }
    for report in &degradations {
        if report.segment >= n_segments {
            return Err(malformed("degradation references a missing segment"));
        }
    }
    let mut sorted_pairs = pair_signature.clone();
    sorted_pairs.sort_unstable();
    let inputs = InputStructure {
        num_inputs,
        num_groups: group_signature.len(),
        sorted_pairs,
    };
    let mut segments = Vec::with_capacity(n_segments);
    for &kind in &seg_kinds {
        let segment = read_segment(&mut r, num_lines, &inputs, &options)?;
        if segment.backend() != kind {
            return Err(malformed("segment kind list disagrees with segment tags"));
        }
        // A segment runs the primary backend or a degradation rung.
        if ![options.backend, Backend::Sampling, Backend::TwoState].contains(&kind) {
            return Err(malformed(format!(
                "{kind} segment under the {} backend",
                options.backend
            )));
        }
        segments.push(segment);
    }
    r.finish()?;
    // Conditional slots are allocated per estimate, so `num_slots` must be
    // exactly the pair-root slots the segments consume, and every slot a
    // pair root reads or an export writes must lie below it.
    let pair_slots: Vec<usize> = segments
        .iter()
        .flat_map(|s| match &s.artifact {
            SegmentArtifact::Jtree(seg) => seg.pair_roots.as_slice(),
            _ => &[],
        })
        .map(|p| p.slot)
        .collect();
    if pair_slots.len() != num_slots {
        return Err(malformed(format!(
            "{num_slots} conditional slots for {} pair roots",
            pair_slots.len()
        )));
    }
    let export_slots = exports.iter().flatten().map(|e| e.slot);
    if pair_slots
        .into_iter()
        .chain(export_slots)
        .any(|s| s >= num_slots)
    {
        return Err(malformed("conditional slot out of range"));
    }
    for (segment, exports) in segments.iter_mut().zip(&exports) {
        segment.plan_exports(exports).map_err(malformed)?;
    }

    // group_of / pair_parent_of are pure functions of the signatures.
    let mut group_of = vec![None; num_inputs];
    for (g, group) in group_signature.iter().enumerate() {
        for &member in group {
            if member >= num_inputs {
                return Err(malformed("group member out of input range"));
            }
            group_of[member] = Some(g);
        }
    }
    let mut pair_parent_of = vec![None; num_inputs];
    for &(a, b) in &pair_signature {
        if a >= num_inputs || b >= num_inputs {
            return Err(malformed("pair signature out of input range"));
        }
        pair_parent_of[b] = Some(a);
    }
    let memo = (0..segments.len()).map(|_| Mutex::new(None)).collect();
    Ok(CompiledEstimator {
        planned: PlannedCircuit {
            working,
            line_map,
            // The original plan is only consulted during compilation; a
            // loaded estimator carries the final segment artifacts directly.
            plan: SegmentationPlan::empty(options.segment_budget as f64),
            group_of,
            pair_parent_of,
            group_signature,
            pair_signature,
        },
        degradations,
        segments,
        exports,
        num_slots,
        num_boundary_roots,
        schedule: WaveSchedule::from_waves(waves),
        compile_time: Duration::ZERO,
        stages: StageTimings::default(),
        seg_timings: vec![SegmentTimings::default(); n_segments],
        total_states,
        max_clique_states,
        options,
        memo,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{self, ArtifactError};
    use crate::InputSpec;
    use swact_bayesnet::codec::{fnv128, FNV128_OFFSET};
    use swact_circuit::catalog;

    fn round_trip(options: &Options) {
        let c17 = catalog::c17();
        let compiled = CompiledEstimator::compile(&c17, options).expect("compiles");
        let bytes = encode_pipeline(&compiled);
        let restored = decode_pipeline(&bytes).expect("decodes");
        let spec = InputSpec::independent(vec![0.2, 0.4, 0.6, 0.8, 0.35]);
        let fresh = compiled.estimate(&spec).expect("fresh estimate");
        let warm = restored.estimate(&spec).expect("restored estimate");
        for line in c17.line_ids() {
            let a = fresh.distribution(line).as_array();
            let b = warm.distribution(line).as_array();
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits(), "line {line}");
            }
        }
    }

    #[test]
    fn pipeline_round_trips_bit_identically_per_backend() {
        for backend in [
            Backend::Jtree,
            Backend::Bdd,
            Backend::TwoState,
            Backend::Sampling,
        ] {
            round_trip(&Options {
                backend,
                ..Options::default()
            });
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let c17 = catalog::c17();
        let compiled = CompiledEstimator::compile(&c17, &Options::default()).expect("compiles");
        let a = encode_pipeline(&compiled);
        let b = encode_pipeline(&compiled);
        assert_eq!(a, b, "same pipeline must encode to the same bytes");
        let again = CompiledEstimator::compile(&c17, &Options::default()).expect("compiles");
        assert_eq!(
            a,
            encode_pipeline(&again),
            "recompiling the same circuit must produce identical bytes"
        );
    }

    /// Every `Options` field, budget sub-fields included, moved away from
    /// its default: each variant must survive the options codec and give
    /// a model key of its own.
    #[test]
    fn every_option_field_round_trips_and_keys() {
        // Exhaustive destructure: adding a field fails to compile here
        // until it gets a row below (and a place in the codec).
        let Options {
            heuristic: _,
            segmentation: _,
            max_fanin: _,
            segment_budget: _,
            check_interval: _,
            single_bn: _,
            boundary_correlation: _,
            sparse: _,
            backend: _,
            seed: _,
            ci_half_width: _,
            ci_z: _,
            budget:
                Budget {
                    max_states: _,
                    max_factor_bytes: _,
                    deadline: _,
                },
            no_fallback: _,
            incremental: _,
        } = Options::default();
        let base = Options::default();
        let vary = |field: &'static str, set: fn(&mut Options)| {
            let mut options = base;
            set(&mut options);
            (field, options)
        };
        let variants = [
            vary("heuristic", |o| o.heuristic = Heuristic::MinDegree),
            vary("segmentation", |o| {
                o.segmentation = SegmentationStrategy::BalancedCut
            }),
            vary("max_fanin", |o| o.max_fanin = 2),
            vary("segment_budget", |o| o.segment_budget = 1 << 10),
            vary("check_interval", |o| o.check_interval = 1),
            vary("single_bn", |o| o.single_bn = true),
            vary("boundary_correlation", |o| o.boundary_correlation = false),
            vary("sparse on", |o| o.sparse = SparseMode::On),
            vary("sparse off", |o| o.sparse = SparseMode::Off),
            vary("backend bdd", |o| o.backend = Backend::Bdd),
            vary("backend sampling", |o| o.backend = Backend::Sampling),
            vary("backend twostate", |o| o.backend = Backend::TwoState),
            vary("seed", |o| o.seed = u64::MAX - 1),
            vary("ci_half_width", |o| o.ci_half_width = 0.001),
            vary("ci_z", |o| o.ci_z = 2.576),
            vary("max_states", |o| o.budget.max_states = Some(4096.5)),
            vary("max_factor_bytes", |o| {
                o.budget.max_factor_bytes = Some(1 << 20)
            }),
            vary("deadline", |o| {
                o.budget.deadline = Some(Duration::new(3, 7))
            }),
            vary("no_fallback", |o| o.no_fallback = true),
            vary("incremental", |o| o.incremental = false),
        ];
        let c17 = catalog::c17();
        let spec = InputSpec::uniform(c17.num_inputs());
        let default_key = artifact::model_key(&c17, Some(&spec), &base);
        for (field, options) in variants {
            assert_ne!(options, base, "{field}: the row must move a field");
            let mut w = Writer::new();
            write_options(&mut w, &options);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(read_options(&mut r), Ok(options), "{field}");
            r.finish()
                .expect("options codec reads every byte it writes");
            assert_ne!(
                artifact::model_key(&c17, Some(&spec), &options),
                default_key,
                "{field}: the model key ignores it"
            );
        }
    }

    /// `(length, FNV-1a-128)` of a compiled estimator's payload. The
    /// artifact header is left out: it carries the crate version.
    fn payload_pin(compiled: &CompiledEstimator) -> (usize, u128) {
        let bytes = encode_pipeline(compiled);
        (bytes.len(), fnv128(FNV128_OFFSET, &bytes))
    }

    #[test]
    fn payload_encoding_is_pinned() {
        assert_eq!(
            crate::artifact::FORMAT_VERSION,
            6,
            "a new format version needs new payload pins"
        );
        let pins = [
            (
                Backend::Jtree,
                12161,
                0xadaa_0844_de42_5480_e0fe_6572_bdde_b4bd,
            ),
            (
                Backend::Bdd,
                2958,
                0x2c35_f553_f0b0_ecf6_2173_8ff7_eae2_9d0c,
            ),
            (
                Backend::Sampling,
                905,
                0x6d2b_56fa_975d_b4e6_8182_9c7d_3555_3f61,
            ),
            (
                Backend::TwoState,
                4257,
                0xb492_efbe_002e_4e99_3397_2f58_e43f_cb8b,
            ),
        ];
        for (backend, len, hash) in pins {
            let compiled = compiled_c17(&Options::with_backend(backend));
            assert_eq!(payload_pin(&compiled), (len, hash), "c17 {backend}");
        }
        // A 100-state budget keeps 16 c432 segments on jtree and degrades
        // the other 64 to sampling, so both artifact kinds are pinned.
        let budgeted = Options::with_resource_budget(Budget::states(100.0));
        let c432 = catalog::benchmark("c432").expect("known benchmark");
        let compiled = CompiledEstimator::compile(&c432, &budgeted).expect("compiles");
        assert_eq!(
            (compiled.num_segments(), compiled.sampled_segments()),
            (80, 64)
        );
        assert_eq!(
            payload_pin(&compiled),
            (47827, 0xb19f_4b9e_dce5_6355_7a8f_1d47_497c_6ce5)
        );
    }

    /// Loads `compiled` back through the artifact layer after `edit` has
    /// changed its payload, with the checksum recomputed so only the
    /// structural checks stand between the edit and an estimate.
    fn load_edited(
        compiled: &CompiledEstimator,
        edit: impl FnOnce(&mut [u8]),
    ) -> Result<CompiledEstimator, ArtifactError> {
        let mut bytes = artifact::encode_artifact(0, compiled);
        let start = bytes.len() - encode_pipeline(compiled).len();
        edit(&mut bytes[start..]);
        let checksum = fnv128(FNV128_OFFSET, &bytes[start..]);
        bytes[start - 16..start].copy_from_slice(&checksum.to_le_bytes());
        artifact::decode_artifact(&bytes, None).map(|(_, loaded)| loaded)
    }

    fn is_corrupt(loaded: Result<CompiledEstimator, ArtifactError>) -> bool {
        matches!(loaded, Err(ArtifactError::Corrupt(_)))
    }

    fn compiled_c17(options: &Options) -> CompiledEstimator {
        CompiledEstimator::compile(&catalog::c17(), options).expect("compiles")
    }

    #[test]
    fn kind_list_must_match_the_segment_tags() {
        let compiled = compiled_c17(&Options::default());
        assert!(load_edited(&compiled, |_| {}).is_ok());
        // The first kind tag follows the planned circuit, the options and
        // the list length.
        let mut w = Writer::new();
        write_planned(&mut w, &compiled.planned);
        write_options(&mut w, &compiled.options);
        let at = w.len() + 8;
        for tag in 1..=3 {
            assert!(
                is_corrupt(load_edited(&compiled, |p| p[at] = tag)),
                "kind tag {tag}"
            );
        }
    }

    #[test]
    fn segments_must_run_the_primary_backend_or_a_rung() {
        for backend in [Backend::Bdd, Backend::Sampling, Backend::TwoState] {
            let mut compiled = compiled_c17(&Options::default());
            compiled.options.backend = backend;
            assert!(is_corrupt(load_edited(&compiled, |_| {})), "{backend}");
        }
        // Sampling and twostate are the degradation rungs under any
        // primary backend.
        let mut compiled = compiled_c17(&Options::with_backend(Backend::TwoState));
        compiled.options.backend = Backend::Bdd;
        let loaded = load_edited(&compiled, |_| {}).expect("a rung segment loads");
        loaded
            .estimate(&InputSpec::uniform(5))
            .expect("and estimates");
    }

    fn copy(compiled: &CompiledEstimator) -> CompiledEstimator {
        decode_pipeline(&encode_pipeline(compiled)).expect("round trips")
    }

    #[test]
    fn conditional_slots_must_match_the_pair_roots() {
        // Two segments under a 128-state budget, one correlated boundary.
        let compiled = compiled_c17(&Options::with_budget(128));
        let slots = compiled.num_slots;
        assert_eq!(slots, 1, "c17 forwards one correlated boundary");
        assert!(load_edited(&compiled, |_| {}).is_ok());
        for bogus in [0, slots + 1, 1 << 40, usize::MAX] {
            let mut edited = copy(&compiled);
            edited.num_slots = bogus;
            assert!(is_corrupt(load_edited(&edited, |_| {})), "{bogus} slots");
        }
        let mut edited = copy(&compiled);
        let export = edited.exports.iter_mut().find(|e| !e.is_empty()).unwrap();
        export[0].slot = slots;
        assert!(is_corrupt(load_edited(&edited, |_| {})), "export slot");
    }

    /// A NaN (or infinite, or negative) clique potential in an otherwise
    /// valid, re-checksummed c17 artifact is a typed corruption error
    /// instead of a later panic or a NaN estimate.
    #[test]
    fn non_finite_potentials_are_rejected() {
        let compiled = compiled_c17(&Options::default());
        let SegmentArtifact::Jtree(seg) = &compiled.segments[0].artifact else {
            panic!("c17 compiles to one jtree segment");
        };
        let potential = &seg.compiled.initial_potentials()[0];
        let mut w = Writer::new();
        swact_bayesnet::codec::write_factor(&mut w, potential);
        let encoded = w.into_bytes();
        let payload = encode_pipeline(&compiled);
        let at = payload
            .windows(encoded.len())
            .position(|window| window == encoded)
            .expect("the potential is encoded in the payload");
        // The value table closes the encoded factor.
        let last_value = at + encoded.len() - 8;
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let loaded = load_edited(&compiled, |p| {
                p[last_value..last_value + 8].copy_from_slice(&bad.to_bits().to_le_bytes())
            });
            assert!(is_corrupt(loaded), "{bad}");
        }
    }

    #[test]
    fn truncated_payloads_error_cleanly() {
        let c17 = catalog::c17();
        let compiled = CompiledEstimator::compile(&c17, &Options::default()).expect("compiles");
        let bytes = encode_pipeline(&compiled);
        for cut in [0, 1, bytes.len() / 3, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_pipeline(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode_pipeline(&trailing).is_err(), "trailing byte");
    }

    /// Every export must name two distinct variables of its producer's
    /// tree, and only a junction-tree segment can produce one: an edited,
    /// re-checksummed segmented c432 artifact that breaks either is a
    /// typed corruption error, not a panic in the first estimate.
    #[test]
    fn exports_must_be_pairs_of_their_producers_tree() {
        let c432 = catalog::benchmark("c432").expect("known benchmark");
        let compiled =
            CompiledEstimator::compile(&c432, &Options::with_budget(128)).expect("compiles");
        assert!(load_edited(&compiled, |_| {}).is_ok());
        let producer = compiled
            .exports
            .iter()
            .position(|e| !e.is_empty())
            .expect("segmented c432 forwards boundary correlation");
        let SegmentArtifact::Jtree(seg) = &compiled.segments[producer].artifact else {
            panic!("exports come from junction trees");
        };
        let num_vars = seg.compiled.tree().num_vars();
        let out_of_range = VarId::from_index(num_vars);
        let exported = compiled.exports[producer][0].clone();
        let edits = [
            ("parent out of range", out_of_range, exported.child_var),
            ("child out of range", exported.parent_var, out_of_range),
            (
                "one variable twice",
                exported.parent_var,
                exported.parent_var,
            ),
        ];
        for (what, parent_var, child_var) in edits {
            let mut edited = copy(&compiled);
            edited.exports[producer][0] = Export {
                parent_var,
                child_var,
                slot: exported.slot,
            };
            assert!(is_corrupt(load_edited(&edited, |_| {})), "{what}");
        }
        // Only a junction tree can export: a 100-state budget degrades
        // most c432 segments to sampling, and one refuses the list.
        let budgeted = Options::with_resource_budget(Budget::states(100.0));
        let mut degraded = CompiledEstimator::compile(&c432, &budgeted).expect("compiles");
        let sampled = degraded
            .segments
            .iter_mut()
            .find(|s| s.backend() == Backend::Sampling)
            .expect("a sampled segment");
        assert!(sampled.plan_exports(&[]).is_ok());
        assert!(sampled.plan_exports(&compiled.exports[producer]).is_err());
    }

    /// c17 with inputs 0 and 1 in one spatial group.
    fn grouped_c17() -> (CompiledEstimator, InputSpec) {
        let spec = InputSpec::uniform(5).with_groups(vec![crate::InputGroup {
            members: vec![0, 1],
            latent: crate::InputModel::independent(0.5),
            copy_prob: 0.8,
        }]);
        let compiled = CompiledEstimator::compile_for(&catalog::c17(), &spec, &Options::default())
            .expect("compiles");
        (compiled, spec)
    }

    /// c17 with input 1 conditioned on input 0 by an explicit joint.
    fn paired_c17() -> (CompiledEstimator, InputSpec) {
        let spec = InputSpec::uniform(5).with_pairwise_joints(vec![crate::PairwiseJoint {
            a: 0,
            b: 1,
            joint: [[1.0 / 16.0; 4]; 4],
        }]);
        let compiled = CompiledEstimator::compile_for(&catalog::c17(), &spec, &Options::default())
            .expect("compiles");
        (compiled, spec)
    }

    /// The input pair of a copy of single-segment `compiled`, edited.
    fn with_input_pair(
        compiled: &CompiledEstimator,
        edit: impl FnOnce(&mut InputPair),
    ) -> CompiledEstimator {
        let mut edited = copy(compiled);
        let SegmentArtifact::Jtree(seg) = &mut edited.segments[0].artifact else {
            panic!("c17 compiles to one jtree segment");
        };
        edit(&mut seg.input_pairs[0]);
        edited
    }

    /// Every primary-input root position must name an input of the
    /// decoded circuit, in each segment kind that reads one: a
    /// re-checksummed c17 artifact naming input 5 is a typed corruption
    /// error, not a panic in the first estimate's prior lookup.
    #[test]
    fn root_positions_must_name_a_primary_input() {
        let (grouped, _) = grouped_c17();
        let compiled = [
            grouped,
            compiled_c17(&Options::with_backend(Backend::TwoState)),
            compiled_c17(&Options::with_backend(Backend::Sampling)),
        ];
        for compiled in &compiled {
            assert!(load_edited(compiled, |_| {}).is_ok());
            let mut edited = copy(compiled);
            let source = match &mut edited.segments[0].artifact {
                SegmentArtifact::Jtree(seg) => &mut seg.solo_roots[0].2,
                SegmentArtifact::TwoState(seg) => &mut seg.roots[0].2,
                SegmentArtifact::Sampling(seg) => &mut seg.roots[0].1,
                SegmentArtifact::Bdd(_) => unreachable!("no bdd segment compiled"),
            };
            assert!(matches!(source, RootSource::PrimaryInput(_)));
            *source = RootSource::PrimaryInput(5);
            let backend = edited.segments[0].backend();
            assert!(is_corrupt(load_edited(&edited, |_| {})), "{backend}");
        }
    }

    /// Both positions of a grouped input pair must name inputs of the
    /// decoded circuit.
    #[test]
    fn input_pair_positions_must_name_primary_inputs() {
        let (compiled, spec) = grouped_c17();
        let loaded = load_edited(&compiled, |_| {}).expect("loads");
        loaded.estimate(&spec).expect("and estimates");
        let child = with_input_pair(&compiled, |pair| pair.child_pos = 5);
        assert!(is_corrupt(load_edited(&child, |_| {})), "child position");
        let parent = with_input_pair(&compiled, |pair| pair.parent_pos = 5);
        assert!(is_corrupt(load_edited(&parent, |_| {})), "parent position");
    }

    /// A grouped input pair must name a group of the group signature.
    #[test]
    fn input_pair_groups_must_exist() {
        let (compiled, _) = grouped_c17();
        assert_eq!(compiled.planned.group_signature.len(), 1);
        for group in [1, usize::MAX] {
            let edited = with_input_pair(&compiled, |pair| pair.group = Some(group));
            assert!(is_corrupt(load_edited(&edited, |_| {})), "group {group}");
        }
    }

    /// An ungrouped input pair takes its conditional from the spec's
    /// explicit joint, so `(parent, child)` must be in the pair signature.
    #[test]
    fn explicit_input_pairs_must_be_in_the_pair_signature() {
        let (paired, spec) = paired_c17();
        let loaded = load_edited(&paired, |_| {}).expect("loads");
        loaded.estimate(&spec).expect("and estimates");
        // (0, 2) and the reversed (1, 0) are not the signature's (0, 1).
        let other_child = with_input_pair(&paired, |pair| pair.child_pos = 2);
        assert!(is_corrupt(load_edited(&other_child, |_| {})), "other child");
        let reversed = with_input_pair(&paired, |pair| {
            std::mem::swap(&mut pair.child_pos, &mut pair.parent_pos)
        });
        assert!(is_corrupt(load_edited(&reversed, |_| {})), "reversed");
        // A grouped pair stripped of its group has no explicit joint.
        let (grouped, _) = grouped_c17();
        let ungrouped = with_input_pair(&grouped, |pair| pair.group = None);
        assert!(is_corrupt(load_edited(&ungrouped, |_| {})), "ungrouped");
    }

    /// Flips every byte of `compiled`'s payload in turn (all eight bits)
    /// and decodes it, as a re-checksummed artifact would be: each must
    /// decode to `Ok` or a typed error, never panic. `threads` workers
    /// split the offsets.
    fn assert_byte_flips_decode_cleanly(compiled: &CompiledEstimator, threads: usize) {
        let payload = encode_pipeline(compiled);
        let panicked: Vec<usize> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|first| {
                    let mut bytes = payload.clone();
                    scope.spawn(move || {
                        let mut panicked = Vec::new();
                        for at in (first..bytes.len()).step_by(threads) {
                            bytes[at] ^= 0xff;
                            let decoded =
                                std::panic::catch_unwind(|| decode_pipeline(&bytes).map(|_| ()));
                            if decoded.is_err() {
                                panicked.push(at);
                            }
                            bytes[at] ^= 0xff;
                        }
                        panicked
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("sweep worker"))
                .collect()
        });
        assert!(
            panicked.is_empty(),
            "{} of {} flipped bytes panicked the decoder, first at {:?}",
            panicked.len(),
            payload.len(),
            &panicked[..panicked.len().min(8)]
        );
    }

    #[test]
    fn byte_flips_of_a_segmented_c17_payload_decode_cleanly() {
        assert_byte_flips_decode_cleanly(&compiled_c17(&Options::with_budget(128)), 2);
    }

    /// The full c432 sweep (about 200k decodes). Ignored by default; CI
    /// runs it in release mode.
    #[test]
    #[ignore]
    fn byte_flips_of_a_segmented_c432_payload_decode_cleanly() {
        let c432 = catalog::benchmark("c432").expect("known benchmark");
        let compiled =
            CompiledEstimator::compile(&c432, &Options::with_budget(128)).expect("compiles");
        assert_byte_flips_decode_cleanly(&compiled, 2);
    }
}
