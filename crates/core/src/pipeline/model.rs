//! Stage 2: per-segment LIDAG construction.
//!
//! A [`SegmentModel`] is the backend-independent description of one
//! segment's Bayesian network: the 4-state LIDAG with CPTs (consumed by
//! the junction-tree backend), plus the raw root/gate structure other
//! backends (sampling, two-state) compile from directly.

use std::collections::{HashMap, HashSet};

use swact_bayesnet::{BayesNet, Cpt, VarId};
use swact_circuit::{GateKind, LineId};

use crate::pipeline::plan::PlannedCircuit;
use crate::segment::{RootSource, Segment};
use crate::EstimateError;

/// A grouped primary-input root conditioned on the group member rooted
/// just before it in the same segment; the conditional comes from the
/// closed-form pair joint of the group model at estimate time.
#[derive(Debug, Clone)]
pub(crate) struct InputPair {
    pub(crate) var: VarId,
    pub(crate) parent_var: VarId,
    pub(crate) child_pos: usize,
    pub(crate) parent_pos: usize,
    /// `Some(g)` when the conditional comes from spatial group `g`'s
    /// model; `None` when it comes from the spec's explicit joint for
    /// `child_pos`.
    pub(crate) group: Option<usize>,
}

/// A boundary root whose prior is `P(line | parent line)`, restoring the
/// pairwise dependence the producing segment knew about.
#[derive(Debug, Clone)]
pub(crate) struct PairRoot {
    pub(crate) var: VarId,
    pub(crate) parent_var: VarId,
    /// Index into the estimate-time conditional store.
    pub(crate) slot: usize,
}

/// A `(parent, child)` joint the owning (producing) segment computes after
/// calibration for a later segment's [`PairRoot`].
#[derive(Debug, Clone)]
pub(crate) struct Export {
    pub(crate) parent_var: VarId,
    pub(crate) child_var: VarId,
    pub(crate) slot: usize,
}

/// One segment's Bayesian-network model: the typed artifact between
/// planning and backend compilation.
pub struct SegmentModel {
    pub(crate) index: usize,
    /// The 4-state LIDAG with placeholder root priors (uniform) and
    /// deterministic gate CPTs — what the junction-tree backend compiles.
    pub(crate) net: BayesNet,
    /// Independent roots with provenance: marginal priors.
    pub(crate) solo_roots: Vec<(LineId, VarId, RootSource)>,
    /// Correlated boundary roots (junction-tree backend only).
    pub(crate) pair_roots: Vec<PairRoot>,
    /// Primary-input roots chained to a sibling of the same spatial group
    /// or explicit pairwise joint (junction-tree backend only).
    pub(crate) input_pairs: Vec<InputPair>,
    /// Pairwise joints earlier segments must export for this segment's
    /// [`PairRoot`]s: `(producer segment, export)`.
    pub(crate) exports_by_producer: Vec<(usize, Export)>,
    /// Gate-output variables, in topological order.
    pub(crate) gates: Vec<(LineId, VarId)>,
    /// Raw gate structure (kind + input lines, duplicates preserved), in
    /// topological order — what structural backends compile from.
    pub(crate) gate_defs: Vec<(LineId, GateKind, Vec<LineId>)>,
    /// Every line with a variable in this segment (roots and gates).
    pub(crate) line_vars: HashMap<LineId, VarId>,
}

impl SegmentModel {
    /// Builds the model of segment `index` without boundary-correlation
    /// parents (plain marginal forwarding for every boundary root).
    ///
    /// # Errors
    ///
    /// Wrapped Bayesian-network construction errors.
    pub fn build(
        planned: &PlannedCircuit,
        index: usize,
        slot_base: usize,
    ) -> Result<SegmentModel, EstimateError> {
        let seg = &planned.plan.segments()[index];
        SegmentModel::build_with_parents(
            planned,
            index,
            seg,
            &HashMap::new(),
            &HashMap::new(),
            slot_base,
        )
    }

    /// Builds the model of segment `index` with the given boundary-
    /// correlation parent assignment. `pair_info` maps each paired child
    /// line to `(producer segment, parent var there, child var there)` —
    /// the joint the producer must export.
    pub(crate) fn build_with_parents(
        planned: &PlannedCircuit,
        index: usize,
        seg: &Segment,
        parent_of: &HashMap<LineId, LineId>,
        pair_info: &HashMap<LineId, (usize, VarId, VarId)>,
        slot_base: usize,
    ) -> Result<SegmentModel, EstimateError> {
        let working = &planned.working;
        let group_of = &planned.group_of;
        let pair_parent_of = &planned.pair_parent_of;
        let mut net = BayesNet::new();
        let mut solo_roots = Vec::new();
        let mut pair_roots: Vec<PairRoot> = Vec::new();
        let mut input_pairs: Vec<InputPair> = Vec::new();
        let mut exports_by_producer: Vec<(usize, Export)> = Vec::new();
        let mut var_of: HashMap<LineId, VarId> = HashMap::new();
        // Per spatial group: the member most recently rooted in this
        // segment, to chain the next member onto.
        let mut last_group_member: HashMap<usize, (VarId, usize)> = HashMap::new();
        // Reorder roots so explicit pairwise-joint parents precede their
        // children (the edges form a forest, so a DFS emit terminates).
        let root_entries: Vec<(LineId, RootSource)> = {
            let by_pos: HashMap<usize, (LineId, RootSource)> = seg
                .roots
                .iter()
                .filter_map(|&(line, source)| match source {
                    RootSource::PrimaryInput(pos) => Some((pos, (line, source))),
                    RootSource::Boundary => None,
                })
                .collect();
            let mut emitted: HashSet<LineId> = HashSet::new();
            let mut ordered = Vec::with_capacity(seg.roots.len());
            for &(line, source) in &seg.roots {
                let mut chain = vec![(line, source)];
                if let RootSource::PrimaryInput(mut pos) = source {
                    while let Some(&Some(parent_pos)) = pair_parent_of.get(pos) {
                        match by_pos.get(&parent_pos) {
                            Some(&entry) => chain.push(entry),
                            None => break,
                        }
                        pos = parent_pos;
                    }
                }
                for &entry in chain.iter().rev() {
                    if emitted.insert(entry.0) {
                        ordered.push(entry);
                    }
                }
            }
            ordered
        };
        for &(line, source) in &root_entries {
            if let Some(&parent_line) = parent_of.get(&line) {
                let parent_var = var_of[&parent_line];
                // Placeholder uniform conditional; the real
                // P(child | parent) is injected per estimate.
                let var = net.add_var(
                    working.line_name(line),
                    4,
                    &[parent_var],
                    Cpt::rows(vec![vec![0.25; 4]; 4]),
                )?;
                var_of.insert(line, var);
                let slot = slot_base + pair_roots.len();
                pair_roots.push(PairRoot {
                    var,
                    parent_var,
                    slot,
                });
                let (producer, producer_parent, producer_child) = pair_info[&line];
                exports_by_producer.push((
                    producer,
                    Export {
                        parent_var: producer_parent,
                        child_var: producer_child,
                        slot,
                    },
                ));
                continue;
            }
            // Grouped primary inputs chain onto the group member rooted
            // just before them in this segment; explicitly paired inputs
            // chain onto their conditioning input.
            if let RootSource::PrimaryInput(pos) = source {
                if let Some(&Some(parent_pos)) = pair_parent_of.get(pos) {
                    let parent_line = working.inputs()[parent_pos];
                    if let Some(&parent_var) = var_of.get(&parent_line) {
                        let var = net.add_var(
                            working.line_name(line),
                            4,
                            &[parent_var],
                            Cpt::rows(vec![vec![0.25; 4]; 4]),
                        )?;
                        var_of.insert(line, var);
                        input_pairs.push(InputPair {
                            var,
                            parent_var,
                            child_pos: pos,
                            parent_pos,
                            group: None,
                        });
                        continue;
                    }
                }
                if let Some(&Some(group)) = group_of.get(pos) {
                    if let Some(&(parent_var, parent_pos)) = last_group_member.get(&group) {
                        let var = net.add_var(
                            working.line_name(line),
                            4,
                            &[parent_var],
                            Cpt::rows(vec![vec![0.25; 4]; 4]),
                        )?;
                        var_of.insert(line, var);
                        input_pairs.push(InputPair {
                            var,
                            parent_var,
                            child_pos: pos,
                            parent_pos,
                            group: Some(group),
                        });
                        last_group_member.insert(group, (var, pos));
                        continue;
                    }
                }
            }
            // Placeholder uniform prior; weighted per estimate.
            let var = net.add_var(working.line_name(line), 4, &[], Cpt::prior(vec![0.25; 4]))?;
            var_of.insert(line, var);
            if let RootSource::PrimaryInput(pos) = source {
                if let Some(&Some(group)) = group_of.get(pos) {
                    last_group_member.insert(group, (var, pos));
                }
            }
            solo_roots.push((line, var, source));
        }
        let mut gates = Vec::with_capacity(seg.gates.len());
        let mut gate_defs = Vec::with_capacity(seg.gates.len());
        for &line in &seg.gates {
            let gate = working.gate(line).expect("planned lines are gates");
            let (unique_inputs, cpt) = crate::gate_family(gate.kind, &gate.inputs);
            let parents: Vec<VarId> = unique_inputs.iter().map(|l| var_of[l]).collect();
            let var = net.add_var(working.line_name(line), 4, &parents, cpt)?;
            var_of.insert(line, var);
            gates.push((line, var));
            gate_defs.push((line, gate.kind, gate.inputs.clone()));
        }
        Ok(SegmentModel {
            index,
            net,
            solo_roots,
            pair_roots,
            input_pairs,
            exports_by_producer,
            gates,
            gate_defs,
            line_vars: var_of,
        })
    }

    /// Index of this segment in the plan.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The segment's Bayesian network: the 4-state LIDAG with placeholder
    /// uniform root priors and deterministic gate CPTs. This is exactly
    /// what the junction-tree backend compiles, so harnesses can rebuild
    /// the same trees out-of-pipeline (the kernel microbenchmarks time
    /// calibration on these nets in isolation).
    pub fn net(&self) -> &BayesNet {
        &self.net
    }

    /// Number of root lines (primary inputs + boundary lines).
    pub fn num_roots(&self) -> usize {
        self.solo_roots.len() + self.pair_roots.len() + self.input_pairs.len()
    }

    /// Number of gate lines modeled in this segment.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Whether the model relies on in-segment conditioning (input groups,
    /// explicit pairwise joints, or boundary-correlation parents) that
    /// only the junction-tree backend can evaluate.
    pub fn needs_pairwise(&self) -> bool {
        !self.pair_roots.is_empty() || !self.input_pairs.is_empty()
    }
}

impl std::fmt::Debug for SegmentModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentModel")
            .field("index", &self.index)
            .field("roots", &self.num_roots())
            .field("gates", &self.gates.len())
            .finish()
    }
}
