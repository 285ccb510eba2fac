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
//! The planner walks gates in topological order and closes a segment at
//! the first *checkpoint* (every [`SegmentationPlan::CHECK_INTERVAL`] gates,
//! counted from the segment's start) where the junction-tree state count
//! of its LIDAG, estimated by a quick triangulation, exceeds the budget.
//! It finds that checkpoint by exponential search instead of checking each
//! one in turn: the first probe is the previous segment's length, probes
//! then step away from it by 1, 2, 4, … checkpoints until the budget
//! verdict flips, and a bisection between the last checkpoint under budget
//! and the first one over it picks the cut. That takes O(log n)
//! triangulations per segment instead of n / 4. Where the estimated cost
//! rises with segment length (it almost always does: a longer segment's
//! moral graph contains the shorter one's) the cut is exactly the first
//! over-budget checkpoint; where it does not, the search may skip a
//! checkpoint that trips on its own between two that do not.

use swact_bayesnet::graph::UndirectedGraph;
use swact_bayesnet::triangulate::{estimate_cost, Eliminator, Heuristic};
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
/// assert!(plan.budget_checks() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct SegmentationPlan {
    segments: Vec<Segment>,
    budget: f64,
    budget_checks: usize,
}

impl SegmentationPlan {
    /// Checkpoint spacing, in gates, of every plan the pipeline builds: a
    /// segment can only close after a multiple of this many gates, so it
    /// may overshoot its budget by up to three gates' growth. A finer grid
    /// would cut closer to the budget at the price of more probes per cut.
    pub const CHECK_INTERVAL: usize = 4;

    /// Plans segments for `circuit` (already fan-in decomposed):
    /// variables have `card` states (4 for transition variables), and a
    /// segment closes at the first checkpoint, every `check_interval`
    /// gates from its start, whose estimated junction-tree state count
    /// under `heuristic` exceeds `budget` (the pipeline passes
    /// [`CHECK_INTERVAL`](Self::CHECK_INTERVAL)). Gates after the last
    /// full checkpoint join the final segment.
    ///
    /// Checkpoints are found by exponential search from the previous
    /// segment's length (see the module documentation), so the cut is the
    /// first over-budget checkpoint whenever the estimated cost is
    /// monotone in segment length; otherwise it is an over-budget
    /// checkpoint whose predecessor is within budget.
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
        let (segments, budget_checks) =
            cover(circuit, card, &order, budget, check_interval, heuristic);
        SegmentationPlan {
            segments,
            budget,
            budget_checks,
        }
    }

    /// A plan with no segments, used when reconstructing a compiled
    /// pipeline from a persisted artifact — the final (post-degradation)
    /// segment list is stored separately, so the original plan is not
    /// needed and is not persisted.
    pub(crate) fn empty(budget: f64) -> SegmentationPlan {
        SegmentationPlan {
            segments: Vec::new(),
            budget,
            budget_checks: 0,
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

    /// How many budget checks (quick triangulations) planning ran — what
    /// the search costs, printed by `swact plan`.
    pub fn budget_checks(&self) -> usize {
        self.budget_checks
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
    builder.estimated_cost(heuristic)
}

/// Replans a single over-budget segment under a tighter state budget,
/// splitting its gates (kept in their existing topological order) into
/// sub-segments by the same search as [`SegmentationPlan::plan`] on a
/// one-gate checkpoint grid (a one-gate sub-segment never closes).
/// Sub-segment roots are recomputed from scratch, so lines produced by an
/// earlier sub-segment become ordinary boundary roots of later ones.
pub(crate) fn replan_segment(
    circuit: &Circuit,
    card: usize,
    seg: &Segment,
    budget: f64,
    heuristic: Heuristic,
) -> Vec<Segment> {
    cover(circuit, card, &seg.gates, budget, 1, heuristic).0
}

/// The paper's budget-driven cover: splits `gates`, in order, into
/// segments that each close at an over-budget checkpoint (every
/// `check_interval` gates from the segment's start) found by
/// [`Walk::cut`]; the gates after the last checkpoint under budget form
/// the final segment. Returns the segments and the number of budget
/// checks run.
fn cover(
    circuit: &Circuit,
    card: usize,
    gates: &[LineId],
    budget: f64,
    check_interval: usize,
    heuristic: Heuristic,
) -> (Vec<Segment>, usize) {
    assert!(check_interval > 0, "check interval must be positive");
    let mut walk = Walk {
        builder: SegmentBuilder::new(circuit, card),
        eliminator: Eliminator::default(),
        budget,
        check_interval,
        heuristic,
        checks: 0,
    };
    let mut segments = Vec::new();
    let mut rest = gates;
    let mut guess = 1;
    while !rest.is_empty() {
        let checkpoints = rest.len() / check_interval;
        let len = match walk.cut(rest, checkpoints, guess.min(checkpoints)) {
            Some(cut) => {
                guess = cut;
                cut * check_interval
            }
            None => rest.len(),
        };
        walk.builder.resize(&rest[..len]);
        segments.push(walk.builder.take());
        rest = &rest[len..];
    }
    (segments, walk.checks)
}

/// One planning walk: the segment builder and the elimination buffers
/// that every budget check of the walk reuses.
struct Walk<'c> {
    builder: SegmentBuilder<'c>,
    eliminator: Eliminator,
    budget: f64,
    check_interval: usize,
    heuristic: Heuristic,
    /// Budget checks run so far.
    checks: usize,
}

impl Walk<'_> {
    /// Whether the first `checkpoint` checkpoints of `rest` trip the
    /// budget: the elimination stops as soon as its cliques pass it, with
    /// the verdict of the full estimate ([`Eliminator::exceeds`]). A
    /// one-gate prefix never trips and is not triangulated.
    fn trips(&mut self, rest: &[LineId], checkpoint: usize) -> bool {
        let len = checkpoint * self.check_interval;
        if len <= 1 {
            return false;
        }
        self.builder.resize(&rest[..len]);
        self.checks += 1;
        self.builder
            .exceeds(self.budget, self.heuristic, &mut self.eliminator)
    }

    /// The checkpoint at which the segment starting at `rest` closes, out
    /// of its `checkpoints` full ones, or `None` when even the last one is
    /// within budget. Searches exponentially outward from `guess` (≥ 1
    /// unless there is no checkpoint) for a checkpoint within budget and
    /// one over it, then bisects between them; the answer trips while the
    /// checkpoint before it (the empty prefix, for the first) does not.
    fn cut(&mut self, rest: &[LineId], checkpoints: usize, guess: usize) -> Option<usize> {
        if checkpoints == 0 {
            return None;
        }
        // Checkpoint `lo` is within budget (0, the empty prefix, always
        // is) and `hi` is over it.
        let mut step = 1;
        let (mut lo, mut hi) = if self.trips(rest, guess) {
            let mut hi = guess;
            loop {
                if hi == 1 {
                    break (0, 1);
                }
                let probe = guess.saturating_sub(step).max(1);
                if !self.trips(rest, probe) {
                    break (probe, hi);
                }
                hi = probe;
                step *= 2;
            }
        } else {
            let mut lo = guess;
            loop {
                if lo == checkpoints {
                    return None;
                }
                let probe = (guess + step).min(checkpoints);
                if self.trips(rest, probe) {
                    break (lo, probe);
                }
                lo = probe;
                step *= 2;
            }
        };
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if self.trips(rest, mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(hi)
    }
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
    /// Position in the circuit's input list of each primary-input line.
    input_pos: Vec<Option<usize>>,
    /// Local index of each line in this segment.
    local: Vec<Option<usize>>,
    roots: Vec<(LineId, RootSource)>,
    gates: Vec<LineId>,
    /// Moral graph of the segment's LIDAG over local indices, grown as
    /// gates are pushed: each gate family is a clique.
    moral: UndirectedGraph,
}

impl<'c> SegmentBuilder<'c> {
    fn new(circuit: &'c Circuit, card: usize) -> SegmentBuilder<'c> {
        let mut input_pos = vec![None; circuit.num_lines()];
        for (pos, &pi) in circuit.inputs().iter().enumerate() {
            input_pos[pi.index()] = Some(pos);
        }
        SegmentBuilder {
            circuit,
            card,
            input_pos,
            local: vec![None; circuit.num_lines()],
            roots: Vec::new(),
            gates: Vec::new(),
            moral: UndirectedGraph::new(0),
        }
    }

    fn local_index(&mut self, line: LineId) -> usize {
        if let Some(i) = self.local[line.index()] {
            return i;
        }
        let i = self.moral.add_node();
        self.local[line.index()] = Some(i);
        i
    }

    fn push_gate(&mut self, gate_line: LineId) {
        let circuit = self.circuit;
        let inputs = &circuit
            .gate(gate_line)
            .expect("segment gates are gate-driven lines")
            .inputs;
        // Inputs without a local index are not driven inside this segment
        // and become roots; indexing one at once roots a line repeated in
        // one gate's input list only once.
        let mut family = Vec::with_capacity(inputs.len() + 1);
        for &input in inputs {
            if self.local[input.index()].is_none() {
                let source = match self.input_pos[input.index()] {
                    Some(pos) => RootSource::PrimaryInput(pos),
                    None => RootSource::Boundary,
                };
                self.roots.push((input, source));
            }
            family.push(self.local_index(input));
        }
        family.push(self.local_index(gate_line));
        for (i, &a) in family.iter().enumerate() {
            for &b in &family[i + 1..] {
                self.moral.add_edge(a, b);
            }
        }
        self.gates.push(gate_line);
    }

    /// Makes the segment exactly `gates`, which must start with the
    /// current segment's gates or be a prefix of them: grows the segment
    /// in place in the first case and rebuilds it in the second.
    fn resize(&mut self, gates: &[LineId]) {
        if self.gates.len() > gates.len() {
            self.take();
        }
        for &gate in &gates[self.gates.len()..] {
            self.push_gate(gate);
        }
    }

    /// The quick-triangulation state estimate of the segment so far.
    fn estimated_cost(&self, heuristic: Heuristic) -> f64 {
        let n = self.moral.num_nodes();
        estimate_cost(&self.moral, &vec![self.card; n], heuristic)
    }

    /// Whether [`estimated_cost`](SegmentBuilder::estimated_cost) exceeds
    /// `budget`, on `eliminator`'s buffers (one per planning walk, reused
    /// by every check).
    fn exceeds(&self, budget: f64, heuristic: Heuristic, eliminator: &mut Eliminator) -> bool {
        let n = self.moral.num_nodes();
        eliminator.exceeds(&self.moral, &vec![self.card; n], heuristic, budget)
    }

    /// The segment built so far; the builder is left empty, with only the
    /// lines the segment indexed reset.
    fn take(&mut self) -> Segment {
        for &(line, _) in &self.roots {
            self.local[line.index()] = None;
        }
        for &line in &self.gates {
            self.local[line.index()] = None;
        }
        self.moral = UndirectedGraph::new(0);
        Segment {
            roots: std::mem::take(&mut self.roots),
            gates: std::mem::take(&mut self.gates),
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
