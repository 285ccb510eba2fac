//! The OBDD-exact inference backend.
//!
//! Each segment becomes one shared ROBDD over interleaved
//! `(previous, next)` variable pairs — root `j` owns BDD variables `2j`
//! and `2j+1`. Every gate line gets the conjunction nodes
//! `¬f_p ∧ f_n`, `f_p ∧ ¬f_n`, and `f_p ∧ f_n` precomputed at compile
//! time, so propagation is a read-only sweep of
//! [`Bdd::pair_probability`] calls (exact under the per-root transition
//! distributions). Within a segment this reproduces the junction-tree
//! result exactly; across segments only boundary *marginals* are
//! forwarded, because pairwise-joint export is a junction-tree notion.

use std::collections::HashMap;

use swact_bdd::{apply_gate_nodes, Bdd, BddError, NodeId, PairDistribution};
use swact_circuit::LineId;

use crate::pipeline::backend::{RootDists, SegmentArtifact, SegmentPosterior, SegmentStats};
use crate::pipeline::model::SegmentModel;
use crate::{EstimateError, TransitionDist};

pub(crate) struct GateNodes {
    pub(crate) line: LineId,
    /// `¬f_prev ∧ f_next` — probability of a 0→1 transition.
    pub(crate) p01: NodeId,
    /// `f_prev ∧ ¬f_next` — probability of a 1→0 transition.
    pub(crate) p10: NodeId,
    /// `f_prev ∧ f_next` — probability of staying 1.
    pub(crate) p11: NodeId,
}

/// The OBDD propagation artifact of one segment: exact per-segment
/// switching probabilities via one shared ROBDD.
pub(crate) struct BddSegment {
    pub(crate) bdd: Bdd,
    /// Roots in BDD variable-pair order: root `j` owns vars `2j`, `2j+1`.
    pub(crate) roots: Vec<LineId>,
    pub(crate) gates: Vec<GateNodes>,
}

fn bdd_error(e: BddError) -> EstimateError {
    EstimateError::Backend {
        backend: "bdd",
        message: e.to_string(),
    }
}

/// Compiles a segment model into its shared ROBDD and per-gate
/// transition nodes.
pub(crate) fn compile(
    model: &SegmentModel,
) -> Result<(SegmentArtifact, SegmentStats), EstimateError> {
    if model.needs_pairwise() {
        return Err(EstimateError::BackendUnsupported {
            backend: "bdd",
            feature: "in-segment pairwise conditioning",
        });
    }
    let n = model.solo_roots.len();
    let mut bdd = Bdd::new(2 * n);
    let mut prev: HashMap<LineId, NodeId> = HashMap::new();
    let mut next: HashMap<LineId, NodeId> = HashMap::new();
    let mut roots = Vec::with_capacity(n);
    for (j, &(line, _, _)) in model.solo_roots.iter().enumerate() {
        prev.insert(line, bdd.var(2 * j).map_err(bdd_error)?);
        next.insert(line, bdd.var(2 * j + 1).map_err(bdd_error)?);
        roots.push(line);
    }
    let mut gates = Vec::with_capacity(model.gate_defs.len());
    for (line, kind, inputs) in &model.gate_defs {
        let prev_inputs: Vec<NodeId> = inputs.iter().map(|l| prev[l]).collect();
        let next_inputs: Vec<NodeId> = inputs.iter().map(|l| next[l]).collect();
        let f_prev = apply_gate_nodes(&mut bdd, *kind, &prev_inputs).map_err(bdd_error)?;
        let f_next = apply_gate_nodes(&mut bdd, *kind, &next_inputs).map_err(bdd_error)?;
        prev.insert(*line, f_prev);
        next.insert(*line, f_next);
        let not_prev = bdd.not(f_prev).map_err(bdd_error)?;
        let not_next = bdd.not(f_next).map_err(bdd_error)?;
        gates.push(GateNodes {
            line: *line,
            p01: bdd.and(not_prev, f_next).map_err(bdd_error)?,
            p10: bdd.and(f_prev, not_next).map_err(bdd_error)?,
            p11: bdd.and(f_prev, f_next).map_err(bdd_error)?,
        });
    }
    let nodes = bdd.num_nodes();
    let stats = SegmentStats {
        total_states: nodes as f64,
        max_clique_states: nodes as f64,
        nnz: nodes,
        state_space: nodes,
        compressed_cliques: 0,
        // One pass over the unique table per propagation.
        kernel_cost: nodes,
    };
    Ok((
        SegmentArtifact::Bdd(BddSegment { bdd, roots, gates }),
        stats,
    ))
}

/// Reads every gate's transition probabilities off its BDD nodes.
pub(crate) fn propagate(art: &BddSegment, roots: &RootDists<'_>) -> SegmentPosterior {
    // The pipeline fills primary-input lines before the first wave and
    // boundary lines before their consumer wave, so every root's
    // transition distribution is already in the global line state.
    // `PairDistribution` uses the same `(prev, next)` joint ordering
    // as `TransitionDist::as_array` ([p00, p01, p10, p11]).
    let pairs: Vec<PairDistribution> = art
        .roots
        .iter()
        .map(|&line| PairDistribution::new(roots.dists[line.index()].as_array()))
        .collect();
    let gate_dists = art
        .gates
        .iter()
        .map(|g| {
            let p01 = art.bdd.pair_probability(g.p01, &pairs);
            let p10 = art.bdd.pair_probability(g.p10, &pairs);
            let p11 = art.bdd.pair_probability(g.p11, &pairs);
            let p00 = (1.0 - p01 - p10 - p11).max(0.0);
            (g.line, TransitionDist::new([p00, p01, p10, p11]))
        })
        .collect();
    SegmentPosterior::from_gate_dists(gate_dists)
}
