//! Circuit segmentation for multi-BN estimation (paper §6).
//!
//! One junction tree over a large circuit's LIDAG is intractable (clique
//! state counts grow exponentially with induced width), so the circuit is
//! cut into **segments** processed in topological order: each segment
//! becomes its own small Bayesian network whose root variables are the
//! primary inputs and the *boundary lines* computed by earlier segments.
//! A boundary line enters as an independent root carrying its estimated
//! four-state marginal — dropping only the cross-boundary joint
//! correlation, the paper's acknowledged error source ("the errors
//! encountered in larger circuits are contributed by the loss of some
//! correlations in the network boundaries").
//!
//! The planner walks gates in topological order and closes a segment when
//! the junction-tree state count of its LIDAG (estimated by a quick
//! triangulation under the configured heuristic) exceeds the configured
//! budget.

use std::collections::HashMap;

use swact_bayesnet::graph::UndirectedGraph;
use swact_bayesnet::triangulate::{Eliminator, Heuristic};
use swact_circuit::{Circuit, LineId};

/// Where a segment's root variable comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootSource {
    /// A primary input (position in the circuit's input list).
    PrimaryInput(usize),
    /// A line driven by a gate in an earlier segment.
    Boundary,
}

/// One planned segment: its root lines and its gate-output lines, both in
/// the working circuit's id space.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Root lines with their provenance, in first-use order.
    pub roots: Vec<(LineId, RootSource)>,
    /// Gate-output lines evaluated by this segment, in topological order.
    pub gates: Vec<LineId>,
}

/// A topologically ordered partition of a circuit's gates into segments
/// whose per-segment LIDAG junction trees fit a state budget.
///
/// # Example
///
/// ```
/// use swact::SegmentationPlan;
/// use swact_bayesnet::Heuristic;
/// use swact_circuit::catalog;
///
/// let c432 = catalog::benchmark("c432").unwrap();
/// let plan = SegmentationPlan::plan(
///     &c432,
///     4,
///     1 << 14,
///     SegmentationPlan::CHECK_INTERVAL,
///     Heuristic::MinDegree,
/// );
/// assert!(plan.segments().len() > 1, "c432 does not fit one tiny BN");
/// // Every gate appears in exactly one segment.
/// let total: usize = plan.segments().iter().map(|s| s.gates.len()).sum();
/// assert_eq!(total, c432.num_gates());
/// ```
#[derive(Debug, Clone)]
pub struct SegmentationPlan {
    segments: Vec<Segment>,
    budget: f64,
}

impl SegmentationPlan {
    /// Gates between budget checks in every plan the pipeline builds. A
    /// segment may overshoot its budget by up to three gates' growth;
    /// checking every gate would triangulate four times as often.
    pub const CHECK_INTERVAL: usize = 4;

    /// Plans segments for `circuit` (already fan-in decomposed):
    /// variables have `card` states (4 for transition variables), segments
    /// close when the estimated junction-tree state count exceeds
    /// `budget`, checked every `check_interval` gates with `heuristic`
    /// (the pipeline passes [`CHECK_INTERVAL`](Self::CHECK_INTERVAL)).
    ///
    /// The budget is soft: a segment may overshoot by up to
    /// `check_interval − 1` gates' worth of growth, and a single gate's
    /// family is never split however large.
    ///
    /// # Panics
    ///
    /// Panics if `check_interval` is zero.
    pub fn plan(
        circuit: &Circuit,
        card: usize,
        budget: usize,
        check_interval: usize,
        heuristic: Heuristic,
    ) -> SegmentationPlan {
        let budget = budget as f64;
        let order = cone_order(circuit);
        let segments = cover(circuit, card, &order, budget, check_interval, heuristic);
        SegmentationPlan { segments, budget }
    }

    /// A plan with no segments, used when reconstructing a compiled
    /// pipeline from a persisted artifact — the final (post-degradation)
    /// segment list is stored separately, so the original plan is not
    /// needed and is not persisted.
    pub(crate) fn empty(budget: f64) -> SegmentationPlan {
        SegmentationPlan {
            segments: Vec::new(),
            budget,
        }
    }

    /// The planned segments, in topological order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The state budget the plan was built for.
    pub fn budget(&self) -> f64 {
        self.budget
    }

    /// The planner's estimated junction-tree state count for each segment
    /// (the quick-triangulation admission figure, not the compiled size) —
    /// what `swact plan` prints to explain where a plan's budget went.
    pub fn estimated_costs(
        &self,
        circuit: &Circuit,
        card: usize,
        heuristic: Heuristic,
    ) -> Vec<f64> {
        self.segments
            .iter()
            .map(|seg| estimate_segment_cost(circuit, card, seg, heuristic))
            .collect()
    }

    /// Number of boundary-root connections across all segments — a proxy
    /// for how much cross-segment correlation is dropped.
    pub fn boundary_roots(&self) -> usize {
        self.segments
            .iter()
            .map(|s| {
                s.roots
                    .iter()
                    .filter(|(_, src)| *src == RootSource::Boundary)
                    .count()
            })
            .sum()
    }
}

/// Estimated junction-tree state count of one already-planned segment —
/// the same quick-triangulation admission figure the planner uses, exposed
/// so the pipeline can hard-check a [`Budget`](crate::Budget) *before*
/// allocating the segment's potentials.
pub(crate) fn estimate_segment_cost(
    circuit: &Circuit,
    card: usize,
    seg: &Segment,
    heuristic: Heuristic,
) -> f64 {
    let mut builder = SegmentBuilder::new(circuit, card);
    for &gate in &seg.gates {
        builder.push_gate(gate);
    }
    builder.estimated_cost(heuristic, &mut Eliminator::default())
}

/// Replans a single over-budget segment under a tighter state budget,
/// splitting its gates (kept in their existing topological order) into
/// sub-segments by the same cover as [`SegmentationPlan::plan`], checked
/// at every gate. Sub-segment roots are recomputed from scratch, so lines
/// produced by an earlier sub-segment become ordinary boundary roots of
/// later ones.
pub(crate) fn replan_segment(
    circuit: &Circuit,
    card: usize,
    seg: &Segment,
    budget: f64,
    heuristic: Heuristic,
) -> Vec<Segment> {
    cover(circuit, card, &seg.gates, budget, 1, heuristic)
}

/// The paper's budget-driven cover: pushes `gates` in order into a growing
/// segment and, every `check_interval` gates, closes it once its estimated
/// junction-tree state count exceeds `budget` (a one-gate segment is never
/// closed, however large).
fn cover(
    circuit: &Circuit,
    card: usize,
    gates: &[LineId],
    budget: f64,
    check_interval: usize,
    heuristic: Heuristic,
) -> Vec<Segment> {
    assert!(check_interval > 0, "check interval must be positive");
    let mut segments: Vec<Segment> = Vec::new();
    let mut builder = SegmentBuilder::new(circuit, card);
    let mut eliminator = Eliminator::default();
    let mut since_check = 0usize;
    for &gate in gates {
        builder.push_gate(gate);
        since_check += 1;
        if since_check >= check_interval {
            since_check = 0;
            let cost = builder.estimated_cost(heuristic, &mut eliminator);
            if cost > budget && builder.gates.len() > 1 {
                segments.push(builder.finish());
                builder = SegmentBuilder::new(circuit, card);
            }
        }
    }
    if !builder.gates.is_empty() {
        segments.push(builder.finish());
    }
    segments
}

/// Gate lines in a *cone-clustered* topological order: a depth-first
/// post-order from each primary output, so the logic feeding one output is
/// contiguous. Cutting such an order into segments keeps correlated
/// (reconvergent) logic together, which is what limits the correlation lost
/// at segment boundaries. Dead logic unreachable from any output is
/// appended in plain topological order.
fn cone_order(circuit: &Circuit) -> Vec<LineId> {
    let n = circuit.num_lines();
    let mut emitted = vec![false; n];
    let mut order = Vec::with_capacity(circuit.num_gates());
    for &po in circuit.outputs() {
        // Iterative DFS post-order.
        let mut stack: Vec<(LineId, usize)> = vec![(po, 0)];
        while let Some(&mut (line, ref mut child)) = stack.last_mut() {
            if emitted[line.index()] || circuit.is_input(line) {
                emitted[line.index()] = true;
                stack.pop();
                continue;
            }
            let inputs = &circuit.gate(line).expect("non-input line").inputs;
            if *child < inputs.len() {
                let next = inputs[*child];
                *child += 1;
                if !emitted[next.index()] && !circuit.is_input(next) {
                    stack.push((next, 0));
                }
            } else {
                emitted[line.index()] = true;
                order.push(line);
                stack.pop();
            }
        }
    }
    for line in circuit.topo_order() {
        if !emitted[line.index()] && !circuit.is_input(line) {
            order.push(line);
        }
    }
    order
}

struct SegmentBuilder<'c> {
    circuit: &'c Circuit,
    card: usize,
    /// Local index per line in this segment.
    local: HashMap<LineId, usize>,
    roots: Vec<(LineId, RootSource)>,
    gates: Vec<LineId>,
    /// Moral graph of the segment's LIDAG over local indices, grown as
    /// gates are pushed: each gate family is a clique.
    moral: UndirectedGraph,
    /// Lines driven by a gate *inside* this segment.
    driven_here: std::collections::HashSet<LineId>,
}

impl<'c> SegmentBuilder<'c> {
    fn new(circuit: &'c Circuit, card: usize) -> SegmentBuilder<'c> {
        SegmentBuilder {
            circuit,
            card,
            local: HashMap::new(),
            roots: Vec::new(),
            gates: Vec::new(),
            moral: UndirectedGraph::new(0),
            driven_here: std::collections::HashSet::new(),
        }
    }

    fn local_index(&mut self, line: LineId) -> usize {
        if let Some(&i) = self.local.get(&line) {
            return i;
        }
        let i = self.moral.add_node();
        self.local.insert(line, i);
        i
    }

    fn push_gate(&mut self, gate_line: LineId) {
        let gate = self
            .circuit
            .gate(gate_line)
            .expect("segment gates are gate-driven lines")
            .clone();
        // Inputs not driven inside this segment become roots. Register the
        // local index immediately so a line repeated in one gate's input
        // list is only rooted once.
        for &input in &gate.inputs {
            if !self.driven_here.contains(&input) && !self.local.contains_key(&input) {
                let source = match self.circuit.inputs().iter().position(|&pi| pi == input) {
                    Some(pos) => RootSource::PrimaryInput(pos),
                    None => RootSource::Boundary,
                };
                self.roots.push((input, source));
                self.local_index(input);
            }
        }
        let mut family: Vec<usize> = gate.inputs.iter().map(|&l| self.local_index(l)).collect();
        family.push(self.local_index(gate_line));
        for (i, &a) in family.iter().enumerate() {
            for &b in &family[i + 1..] {
                self.moral.add_edge(a, b);
            }
        }
        self.driven_here.insert(gate_line);
        self.gates.push(gate_line);
    }

    /// The quick-triangulation state estimate of the segment so far, on
    /// `eliminator`'s buffers (one per planning walk, reused by every
    /// check).
    fn estimated_cost(&self, heuristic: Heuristic, eliminator: &mut Eliminator) -> f64 {
        let n = self.moral.num_nodes();
        eliminator.estimate_cost(&self.moral, &vec![self.card; n], heuristic)
    }

    fn finish(self) -> Segment {
        Segment {
            roots: self.roots,
            gates: self.gates,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swact_circuit::catalog;

    #[test]
    fn small_circuit_fits_one_segment() {
        let c17 = catalog::c17();
        let plan = SegmentationPlan::plan(&c17, 4, 1 << 20, 4, Heuristic::MinDegree);
        assert_eq!(plan.segments().len(), 1);
        assert_eq!(plan.boundary_roots(), 0);
        let seg = &plan.segments()[0];
        assert_eq!(seg.gates.len(), 6);
        assert_eq!(seg.roots.len(), 5);
        assert!(seg
            .roots
            .iter()
            .all(|(_, s)| matches!(s, RootSource::PrimaryInput(_))));
    }

    #[test]
    fn tiny_budget_forces_many_segments() {
        let c = catalog::benchmark("count").unwrap();
        let plan = SegmentationPlan::plan(&c, 4, 1 << 10, 2, Heuristic::MinDegree);
        assert!(plan.segments().len() > 2);
        assert!(plan.boundary_roots() > 0);
        // Coverage and order: every gate exactly once, topologically.
        let mut seen = std::collections::HashSet::new();
        let mut done = std::collections::HashSet::new();
        for seg in plan.segments() {
            for (line, source) in &seg.roots {
                match source {
                    RootSource::PrimaryInput(pos) => {
                        assert_eq!(c.inputs()[*pos], *line);
                    }
                    RootSource::Boundary => {
                        assert!(
                            done.contains(line),
                            "boundary root must come from an earlier segment"
                        );
                    }
                }
            }
            for &g in &seg.gates {
                assert!(seen.insert(g), "gate planned twice");
                done.insert(g);
            }
        }
        assert_eq!(seen.len(), c.num_gates());
    }

    #[test]
    fn budget_monotonicity() {
        let c = catalog::benchmark("pcler8").unwrap();
        let small = SegmentationPlan::plan(&c, 4, 1 << 10, 2, Heuristic::MinDegree);
        let large = SegmentationPlan::plan(&c, 4, 1 << 22, 2, Heuristic::MinDegree);
        assert!(small.segments().len() >= large.segments().len());
    }

    #[test]
    fn boundary_line_can_root_multiple_segments() {
        // With a small budget on a reconvergent circuit, some line should
        // feed at least two later segments.
        let c = swact_circuit::benchgen::reconvergent("rc", 5, 4, 9);
        let plan = SegmentationPlan::plan(&c, 4, 1 << 9, 1, Heuristic::MinDegree);
        if plan.segments().len() > 2 {
            use std::collections::HashMap;
            let mut counts: HashMap<LineId, usize> = HashMap::new();
            for seg in plan.segments() {
                for (line, src) in &seg.roots {
                    if *src == RootSource::Boundary {
                        *counts.entry(*line).or_default() += 1;
                    }
                }
            }
            // Not guaranteed in every topology, but counts must be sane.
            assert!(counts.values().all(|&c| c >= 1));
        }
    }
}
