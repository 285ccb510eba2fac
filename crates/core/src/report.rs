use std::time::Duration;

use swact_circuit::LineId;

use crate::budget::DegradationReport;
use crate::pipeline::{SegmentTimings, StageTimings};
use crate::TransitionDist;

/// Work-reuse counters from one incremental propagation pass (see
/// [`Options::incremental`](crate::Options)). All zero when incremental
/// mode is off or on the first (cold) estimate over a compiled estimator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReuseStats {
    /// Always 0: every calibration recomputes all its messages. Kept
    /// only until the profile harness stops reading it.
    pub messages_reused: u64,
    /// Always 0, like [`messages_reused`](ReuseStats::messages_reused).
    pub messages_recomputed: u64,
    /// Segments whose whole posterior was served from the
    /// boundary-marginal memo without touching the junction tree.
    pub segments_skipped: u64,
}

/// Confidence-interval report from the anytime sampling backend
/// ([`Backend::Sampling`](crate::pipeline::Backend)).
///
/// Attached per sampled segment to its posterior and aggregated over all
/// sampled segments into the [`Estimate`]: `half_width` is the *largest*
/// per-segment half-width (the weakest guarantee), `samples` the total
/// samples drawn, and `converged` true only when every sampled segment hit
/// its half-width target before its deadline or batch cap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyReport {
    /// Achieved confidence-interval half-width on the segment's mean gate
    /// switching activity (normal approximation over batch means).
    pub half_width: f64,
    /// z-score of the confidence level the interval was computed at.
    pub z: f64,
    /// Total samples drawn.
    pub samples: u64,
    /// Whether the half-width target was met (vs. stopping on the
    /// deadline or the batch cap with the best estimate so far).
    pub converged: bool,
}

impl AccuracyReport {
    /// Merges another sampled segment's report into this aggregate:
    /// weakest half-width wins, samples add, convergence is conjunctive.
    pub(crate) fn merge(&mut self, other: &AccuracyReport) {
        if other.half_width > self.half_width {
            self.half_width = other.half_width;
        }
        self.z = other.z;
        self.samples += other.samples;
        self.converged = self.converged && other.converged;
    }
}

/// The result of one estimation pass: a transition distribution for every
/// line, plus timing and structure statistics matching the paper's Table 1
/// columns.
#[derive(Debug, Clone)]
pub struct Estimate {
    /// Per *working* line.
    dists: Vec<TransitionDist>,
    /// Original line index → working line index.
    line_map: Vec<usize>,
    compile_time: Duration,
    propagate_time: Duration,
    segments: usize,
    total_states: f64,
    max_clique_states: f64,
    stages: StageTimings,
    per_segment: Vec<SegmentTimings>,
    degradations: Vec<DegradationReport>,
    reuse: ReuseStats,
    accuracy: Option<AccuracyReport>,
}

impl Estimate {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        dists: Vec<TransitionDist>,
        line_map: Vec<usize>,
        compile_time: Duration,
        propagate_time: Duration,
        segments: usize,
        total_states: f64,
        max_clique_states: f64,
        stages: StageTimings,
        per_segment: Vec<SegmentTimings>,
        degradations: Vec<DegradationReport>,
        reuse: ReuseStats,
        accuracy: Option<AccuracyReport>,
    ) -> Estimate {
        Estimate {
            dists,
            line_map,
            compile_time,
            propagate_time,
            segments,
            total_states,
            max_clique_states,
            stages,
            per_segment,
            degradations,
            reuse,
            accuracy,
        }
    }

    /// The transition distribution of an (original-circuit) line.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range for the estimated circuit.
    pub fn distribution(&self, line: LineId) -> TransitionDist {
        self.dists[self.line_map[line.index()]]
    }

    /// The switching activity `P(x01) + P(x10)` of a line.
    pub fn switching(&self, line: LineId) -> f64 {
        self.distribution(line).switching()
    }

    /// Signal probability (at clock *t*) of a line.
    pub fn signal_probability(&self, line: LineId) -> f64 {
        self.distribution(line).p_one_next()
    }

    /// Switching activities for all original lines, indexed by
    /// `LineId::index`.
    pub fn switching_all(&self) -> Vec<f64> {
        self.line_map
            .iter()
            .map(|&w| self.dists[w].switching())
            .collect()
    }

    /// Mean switching activity over all original lines.
    pub fn mean_switching(&self) -> f64 {
        let all = self.switching_all();
        all.iter().sum::<f64>() / all.len() as f64
    }

    /// Number of Bayesian networks (segments) used. 1 ⇒ exact.
    pub fn num_segments(&self) -> usize {
        self.segments
    }

    /// Compilation time (LIDAG + junction trees) — Table 1's "Total" is
    /// this plus [`propagate_time`](Estimate::propagate_time).
    pub fn compile_time(&self) -> Duration {
        self.compile_time
    }

    /// Evidence-propagation time — Table 1's "Update" column.
    pub fn propagate_time(&self) -> Duration {
        self.propagate_time
    }

    /// Compile + propagate.
    pub fn total_time(&self) -> Duration {
        self.compile_time + self.propagate_time
    }

    /// Per-stage wall-clock breakdown: `plan`/`model`/`compile` from the
    /// compiled pipeline this estimate ran over, `propagate`/`forward`
    /// from this propagation pass.
    pub fn stage_timings(&self) -> StageTimings {
        self.stages
    }

    /// Per-segment stage breakdown (model/compile from compilation,
    /// propagate from this pass).
    pub fn segment_timings(&self) -> &[SegmentTimings] {
        &self.per_segment
    }

    /// Total junction-tree state count across segments.
    pub fn total_states(&self) -> f64 {
        self.total_states
    }

    /// Largest clique state count across segments.
    pub fn max_clique_states(&self) -> f64 {
        self.max_clique_states
    }

    /// Per-segment degradation provenance from the compile-time budget
    /// ladder (replans and twostate fallbacks); empty when every segment
    /// compiled within budget. A non-empty list means some lines carry
    /// reduced accuracy — inspect the reports before trusting tails.
    pub fn degradations(&self) -> &[DegradationReport] {
        &self.degradations
    }

    /// Whether any segment was degraded to stay within budget.
    pub fn is_degraded(&self) -> bool {
        !self.degradations.is_empty()
    }

    /// Work-reuse counters from this propagation pass (memo-skipped
    /// segments); all zero on cold runs.
    pub fn reuse_stats(&self) -> ReuseStats {
        self.reuse
    }

    /// Aggregated confidence-interval report when any segment was
    /// evaluated by the anytime sampling backend; `None` for fully exact
    /// (or twostate-only) estimates. See [`AccuracyReport`] for the
    /// aggregation semantics.
    pub fn accuracy(&self) -> Option<&AccuracyReport> {
        self.accuracy.as_ref()
    }

    /// Renders the estimate as CSV with one row per line of `circuit`:
    /// `line,p_x00,p_x01,p_x10,p_x11,switching,signal_probability`.
    ///
    /// # Panics
    ///
    /// Panics if `circuit` is not the circuit this estimate was computed
    /// for (line-count mismatch).
    pub fn to_csv(&self, circuit: &swact_circuit::Circuit) -> String {
        assert_eq!(
            circuit.num_lines(),
            self.line_map.len(),
            "estimate belongs to a different circuit"
        );
        let mut out = String::from("line,p_x00,p_x01,p_x10,p_x11,switching,signal_probability\n");
        for line in circuit.line_ids() {
            let d = self.distribution(line).as_array();
            out.push_str(&format!(
                "{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6}\n",
                circuit.line_name(line),
                d[0],
                d[1],
                d[2],
                d[3],
                d[1] + d[2],
                d[1] + d[3],
            ));
        }
        out
    }

    /// Error statistics of this estimate against a per-line reference
    /// (e.g. long logic simulation), over the original lines.
    ///
    /// # Panics
    ///
    /// Panics if `reference.len()` differs from the original line count.
    pub fn compare(&self, reference: &[f64]) -> ErrorStats {
        ErrorStats::between(&self.switching_all(), reference)
    }
}

/// Accuracy statistics in the paper's Table 1 format.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorStats {
    /// Mean of the absolute per-node error (µErr).
    pub mean_abs_error: f64,
    /// Standard deviation of the per-node error (σErr).
    pub std_error: f64,
    /// |avg(est) − avg(ref)| / avg(ref) in percent (%Error).
    pub percent_error: f64,
    /// Largest absolute per-node error.
    pub max_abs_error: f64,
}

impl ErrorStats {
    /// Computes statistics between an estimate and a reference, node-wise.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different (or zero) lengths.
    pub fn between(estimate: &[f64], reference: &[f64]) -> ErrorStats {
        assert_eq!(estimate.len(), reference.len(), "node count mismatch");
        assert!(!estimate.is_empty(), "need at least one node");
        let n = estimate.len() as f64;
        let errors: Vec<f64> = estimate.iter().zip(reference).map(|(e, r)| e - r).collect();
        let mean_abs_error = errors.iter().map(|e| e.abs()).sum::<f64>() / n;
        let mean_err = errors.iter().sum::<f64>() / n;
        let std_error = (errors
            .iter()
            .map(|e| (e - mean_err) * (e - mean_err))
            .sum::<f64>()
            / n)
            .sqrt();
        let avg_est = estimate.iter().sum::<f64>() / n;
        let avg_ref = reference.iter().sum::<f64>() / n;
        let percent_error = if avg_ref != 0.0 {
            (avg_est - avg_ref).abs() / avg_ref * 100.0
        } else {
            0.0
        };
        let max_abs_error = errors.iter().map(|e| e.abs()).fold(0.0, f64::max);
        ErrorStats {
            mean_abs_error,
            std_error,
            percent_error,
            max_abs_error,
        }
    }
}

impl std::fmt::Display for ErrorStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "µErr={:.4} σErr={:.4} %Err={:.3} max={:.4}",
            self.mean_abs_error, self.std_error, self.percent_error, self.max_abs_error
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_stats_exact_match() {
        let s = ErrorStats::between(&[0.1, 0.2, 0.3], &[0.1, 0.2, 0.3]);
        assert_eq!(s.mean_abs_error, 0.0);
        assert_eq!(s.std_error, 0.0);
        assert_eq!(s.percent_error, 0.0);
        assert_eq!(s.max_abs_error, 0.0);
    }

    #[test]
    fn error_stats_known_values() {
        let s = ErrorStats::between(&[0.2, 0.2], &[0.1, 0.3]);
        assert!((s.mean_abs_error - 0.1).abs() < 1e-12);
        // errors are +0.1 and −0.1 → mean 0, std 0.1.
        assert!((s.std_error - 0.1).abs() < 1e-12);
        // averages agree → 0 percent error on the mean.
        assert!(s.percent_error.abs() < 1e-12);
        assert!((s.max_abs_error - 0.1).abs() < 1e-12);
    }

    #[test]
    fn percent_error_of_mean() {
        let s = ErrorStats::between(&[0.22, 0.22], &[0.2, 0.2]);
        assert!((s.percent_error - 10.0).abs() < 1e-9);
    }

    #[test]
    fn csv_has_one_row_per_line() {
        use crate::{estimate, InputSpec, Options};
        let c17 = swact_circuit::catalog::c17();
        let est = estimate(&c17, &InputSpec::uniform(5), &Options::default()).unwrap();
        let csv = est.to_csv(&c17);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "line,p_x00,p_x01,p_x10,p_x11,switching,signal_probability"
        );
        assert_eq!(lines.count(), c17.num_lines());
        // Rows are parseable and consistent.
        for row in csv.lines().skip(1) {
            let cells: Vec<&str> = row.split(',').collect();
            assert_eq!(cells.len(), 7);
            let values: Vec<f64> = cells[1..].iter().map(|v| v.parse().unwrap()).collect();
            assert!((values[0] + values[1] + values[2] + values[3] - 1.0).abs() < 1e-5);
            assert!((values[4] - (values[1] + values[2])).abs() < 1e-5);
        }
    }

    #[test]
    fn display_is_compact() {
        let s = ErrorStats::between(&[0.2], &[0.1]);
        let shown = s.to_string();
        assert!(shown.contains("µErr="));
        assert!(shown.contains("%Err="));
    }

    #[test]
    #[should_panic(expected = "node count mismatch")]
    fn mismatched_lengths_panic() {
        let _ = ErrorStats::between(&[0.1], &[0.1, 0.2]);
    }
}
