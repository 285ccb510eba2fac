//! Per-stage wall-clock instrumentation threaded through the pipeline.

use std::ops::AddAssign;
use std::time::Duration;

/// Wall-clock time spent in each pipeline stage.
///
/// Compile-side stages (`plan`, `model`, `compile`) are recorded once per
/// [`CompiledEstimator`](crate::CompiledEstimator); propagation-side stages
/// (`propagate`, `forward`) are recorded per estimate. When several
/// segments of one wave propagate on separate threads, `propagate` is the
/// wall time of the whole wave, not the sum over its threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Fan-in decomposition, segmentation planning, and line mapping.
    pub plan: Duration,
    /// Per-segment LIDAG/CPT construction (including boundary-correlation
    /// parent selection).
    pub model: Duration,
    /// Backend compilation of every segment model into its propagation
    /// artifact (junction tree, sampling plan, two-state network).
    pub compile: Duration,
    /// Evidence injection, calibration, and marginal readout across all
    /// dependency waves.
    pub propagate: Duration,
    /// Boundary forwarding: root preparation, joint routing, and merging
    /// segment posteriors into the global line state.
    pub forward: Duration,
}

impl StageTimings {
    /// Sum of all five stages.
    pub fn total(&self) -> Duration {
        self.plan + self.model + self.compile + self.propagate + self.forward
    }

    /// Compile-side subtotal (`plan + model + compile`).
    pub fn compile_side(&self) -> Duration {
        self.plan + self.model + self.compile
    }
}

impl AddAssign for StageTimings {
    fn add_assign(&mut self, rhs: StageTimings) {
        self.plan += rhs.plan;
        self.model += rhs.model;
        self.compile += rhs.compile;
        self.propagate += rhs.propagate;
        self.forward += rhs.forward;
    }
}

/// Per-segment stage breakdown: how long one segment's Bayesian network
/// took to model, compile, and (in the most recent estimate) propagate.
///
/// `calibrate`, `readout` and `export` split `propagate` for the backends
/// that calibrate a tree (junction tree, two-state); they are zero for the
/// sampler and for a segment whose posterior was served from the memo.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentTimings {
    /// LIDAG/CPT construction for this segment.
    pub model: Duration,
    /// Backend compilation of this segment.
    pub compile: Duration,
    /// Evidence injection + calibration + readout + export for this
    /// segment.
    pub propagate: Duration,
    /// Calibration: the collect and distribute passes over the tree.
    pub calibrate: Duration,
    /// Readout: every gate's marginal and the in-segment joint requests.
    pub readout: Duration,
    /// Export: the pairwise joints later segments read across the
    /// boundary.
    pub export: Duration,
    /// The clique-path walks `export` ran.
    pub export_walks: usize,
    /// The lane-entries those walks touched
    /// ([`PairwisePlan::entries`](swact_bayesnet::PairwisePlan::entries),
    /// steps shared between walks counted once), so `export` per entry
    /// can be checked against the walk cost.
    pub export_entries: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let mut t = StageTimings {
            plan: Duration::from_millis(1),
            model: Duration::from_millis(2),
            compile: Duration::from_millis(3),
            propagate: Duration::from_millis(4),
            forward: Duration::from_millis(5),
        };
        assert_eq!(t.total(), Duration::from_millis(15));
        assert_eq!(t.compile_side(), Duration::from_millis(6));
        t += t;
        assert_eq!(t.total(), Duration::from_millis(30));
    }
}
