//! Stage 1: fan-in decomposition and segmentation planning.

use swact_circuit::{decompose::decompose_fanin, Circuit, LineId};

use crate::estimator::Options;
use crate::segment::SegmentationPlan;
use crate::{EstimateError, InputSpec};

/// The planned circuit: the working (fan-in-decomposed) netlist, its
/// [`SegmentationPlan`], the original → working line mapping, and the
/// input-structure signature the later stages are specialized to.
///
/// This is the first typed artifact of the pipeline; it is backend-
/// independent and cheap relative to model construction and compilation.
#[derive(Debug)]
pub struct PlannedCircuit {
    pub(crate) working: Circuit,
    /// Original line index → working line index.
    pub(crate) line_map: Vec<usize>,
    pub(crate) plan: SegmentationPlan,
    /// Per primary input: spatial group it belongs to, if any.
    pub(crate) group_of: Vec<Option<usize>>,
    /// Per primary input: the input it is explicitly pair-conditioned on.
    pub(crate) pair_parent_of: Vec<Option<usize>>,
    /// Input-group membership the pipeline is compiled for.
    pub(crate) group_signature: Vec<Vec<usize>>,
    /// Pairwise-joint edges (a, b) the pipeline is compiled for.
    pub(crate) pair_signature: Vec<(usize, usize)>,
}

impl PlannedCircuit {
    /// Plans a circuit without input-structure specialization (no groups,
    /// no explicit pairwise joints).
    ///
    /// # Errors
    ///
    /// Wrapped circuit errors from fan-in decomposition.
    pub fn new(circuit: &Circuit, options: &Options) -> Result<PlannedCircuit, EstimateError> {
        PlannedCircuit::build(circuit, &[], &[], Vec::new(), Vec::new(), options)
    }

    /// Plans a circuit for a given input specification: the spec's group
    /// membership and pairwise-joint edges become part of the planned
    /// structure (later estimates may change all probabilities but must
    /// keep the same structure).
    ///
    /// # Errors
    ///
    /// Same as [`PlannedCircuit::new`].
    pub fn for_spec(
        circuit: &Circuit,
        spec: &InputSpec,
        options: &Options,
    ) -> Result<PlannedCircuit, EstimateError> {
        let mut group_of = vec![None; circuit.num_inputs()];
        for (g, group) in spec.groups().iter().enumerate() {
            for &member in &group.members {
                group_of[member] = Some(g);
            }
        }
        let mut pair_parent_of = vec![None; circuit.num_inputs()];
        for pair in spec.pairwise_joints() {
            pair_parent_of[pair.b] = Some(pair.a);
        }
        let signature = spec.groups().iter().map(|g| g.members.clone()).collect();
        let pair_signature = spec.pairwise_joints().iter().map(|p| (p.a, p.b)).collect();
        PlannedCircuit::build(
            circuit,
            &group_of,
            &pair_parent_of,
            signature,
            pair_signature,
            options,
        )
    }

    fn build(
        circuit: &Circuit,
        group_of: &[Option<usize>],
        pair_parent_of: &[Option<usize>],
        group_signature: Vec<Vec<usize>>,
        pair_signature: Vec<(usize, usize)>,
        options: &Options,
    ) -> Result<PlannedCircuit, EstimateError> {
        let working = decompose_fanin(circuit, options.max_fanin.max(2))?;
        let plan = if options.single_bn {
            // One segment regardless of strategy: with an unbounded budget
            // the balanced-cut search never trips, so TopoCover is both
            // equivalent and cheaper.
            SegmentationPlan::plan(&working, 4, usize::MAX, usize::MAX - 1, options.heuristic)
        } else {
            SegmentationPlan::plan_with(
                &working,
                4,
                options.segment_budget,
                options.check_interval,
                options.heuristic,
                options.segmentation,
            )
        };
        let line_map = (0..circuit.num_lines())
            .map(|i| {
                working
                    .find_line(circuit.line_name(LineId::from_index(i)))
                    .expect("decomposition preserves line names")
                    .index()
            })
            .collect();
        Ok(PlannedCircuit {
            working,
            line_map,
            plan,
            group_of: group_of.to_vec(),
            pair_parent_of: pair_parent_of.to_vec(),
            group_signature,
            pair_signature,
        })
    }

    /// The working (fan-in-decomposed) circuit.
    pub fn working(&self) -> &Circuit {
        &self.working
    }

    /// The segmentation plan over the working circuit.
    pub fn plan(&self) -> &SegmentationPlan {
        &self.plan
    }

    /// Number of planned segments.
    pub fn num_segments(&self) -> usize {
        self.plan.segments().len()
    }
}
