//! Resource governance: compile/propagate budgets and degradation
//! provenance.
//!
//! The paper's own escape hatch for intractability is structural — split
//! the circuit into multiple BNs (Section 5) — but the segmentation
//! planner only *estimates* clique growth, and an adversarial netlist can
//! still push a single segment's junction tree past available memory or a
//! stage past its latency envelope. A [`Budget`] caps those resources
//! explicitly; when a segment exceeds it, the pipeline walks a
//! **degradation ladder** instead of aborting:
//!
//! 1. replan the offending segment alone under a tighter
//!    `segment_budget`, splitting it into smaller sub-segments;
//! 2. if a sub-segment still exceeds the budget, evaluate it with the
//!    anytime `sampling` backend — forward sampling over the full
//!    4-state LIDAG with a deterministic seeded stream, stopping on a
//!    confidence half-width target or the remaining deadline, and
//!    reporting the achieved interval
//!    ([`AccuracyReport`](crate::AccuracyReport));
//! 3. if the sampler cannot model the segment (in-segment pairwise
//!    conditioning), evaluate it with the `twostate` backend (exact
//!    signal probabilities under independence, `2p(1−p)` switching) —
//!    linear-cost, never exponential, but blind to temporal correlation.
//!
//! Every rung taken is recorded as a [`DegradationReport`] inside the
//! [`Estimate`](crate::Estimate), so degraded results carry provenance
//! rather than silently losing accuracy. Setting
//! [`Options::no_fallback`](crate::Options::no_fallback) disables the
//! ladder: budget exhaustion then surfaces as
//! [`EstimateError::BudgetExceeded`](crate::EstimateError::BudgetExceeded).

use std::fmt;
use std::time::Duration;

/// Resource limits checked at pipeline stage boundaries.
///
/// All limits default to `None` (unlimited); the pre-existing
/// [`Options::segment_budget`](crate::Options::segment_budget) remains the
/// *planning target*, while `Budget` is the *hard admission check* applied
/// to what the planner actually produced.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Budget {
    /// Maximum estimated junction-tree state count a single segment may
    /// require. Checked with `triangulate::estimate_cost` *before* the
    /// exponential potential is allocated.
    pub max_states: Option<f64>,
    /// Maximum bytes of clique potentials the segments' per-request
    /// propagation states allocate (8 bytes per entry; compiled segments
    /// store no potential, only the CPTs each clique is built from).
    /// Checked cumulatively as segments compile: the segment whose
    /// admission estimate would cross the cap is degraded.
    pub max_factor_bytes: Option<usize>,
    /// Per-stage wall-clock deadline, checked cooperatively at segment
    /// boundaries (compile) and wave boundaries (propagate). Exceeding it
    /// yields [`EstimateError::DeadlineExceeded`](crate::EstimateError::DeadlineExceeded);
    /// deadline checks never alter numerics, so results that complete are
    /// bit-identical to an undeadlined run.
    pub deadline: Option<Duration>,
}

impl Budget {
    /// An unlimited budget (the default).
    pub const UNLIMITED: Budget = Budget {
        max_states: None,
        max_factor_bytes: None,
        deadline: None,
    };

    /// A budget capping per-segment junction-tree states.
    pub fn states(max_states: f64) -> Budget {
        Budget {
            max_states: Some(max_states),
            ..Budget::UNLIMITED
        }
    }

    /// A budget with a per-stage wall-clock deadline.
    pub fn deadline(deadline: Duration) -> Budget {
        Budget {
            deadline: Some(deadline),
            ..Budget::UNLIMITED
        }
    }

    /// Whether any limit is set.
    pub fn is_limited(&self) -> bool {
        self.max_states.is_some() || self.max_factor_bytes.is_some() || self.deadline.is_some()
    }
}

/// Why a segment was degraded.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum DegradationCause {
    /// The segment's estimated junction-tree state count exceeded
    /// [`Budget::max_states`].
    StateBudget {
        /// Estimated state count at admission time.
        estimated: f64,
        /// The configured cap.
        budget: f64,
    },
    /// Admitting the segment would push cumulative resident factor bytes
    /// past [`Budget::max_factor_bytes`].
    FactorBytes {
        /// Estimated resident bytes with this segment admitted.
        bytes: usize,
        /// The configured cap.
        budget: usize,
    },
}

impl fmt::Display for DegradationCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradationCause::StateBudget { estimated, budget } => {
                write!(f, "states {estimated:.3e} > budget {budget:.3e}")
            }
            DegradationCause::FactorBytes { bytes, budget } => {
                write!(f, "factor bytes {bytes} > budget {budget}")
            }
        }
    }
}

/// Which rung of the degradation ladder resolved the exhaustion.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Fallback {
    /// The segment was replanned under a tighter `segment_budget` and
    /// split into this many sub-segments, all within budget.
    Replanned {
        /// Number of sub-segments the offending segment became.
        subsegments: usize,
    },
    /// The (sub-)segment is evaluated by the anytime `sampling` backend:
    /// forward sampling over the full 4-state LIDAG, deterministic for a
    /// fixed seed, with a reported confidence interval
    /// ([`AccuracyReport`](crate::AccuracyReport)).
    Sampling,
    /// The (sub-)segment is evaluated by the `twostate` backend: signal
    /// probabilities under root independence with the `2p(1−p)` switching
    /// proxy — approximate, but linear-cost.
    TwoState,
}

impl fmt::Display for Fallback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fallback::Replanned { subsegments } => {
                write!(f, "replanned into {subsegments} sub-segments")
            }
            Fallback::Sampling => write!(f, "sampling backend"),
            Fallback::TwoState => write!(f, "twostate backend"),
        }
    }
}

/// Provenance record for one degraded segment, carried inside the
/// [`Estimate`](crate::Estimate) and surfaced by `swact estimate`,
/// `swact batch --stats`, and the engine metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationReport {
    /// Index of the degraded segment **in the final (post-ladder) segment
    /// list** — the numbering [`Estimate::num_segments`](crate::Estimate::num_segments)
    /// reflects.
    pub segment: usize,
    /// The budget violation that triggered the ladder.
    pub cause: DegradationCause,
    /// The rung that resolved it.
    pub fallback: Fallback,
}

impl fmt::Display for DegradationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "segment {}: {} -> {}",
            self.segment, self.cause, self.fallback
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unlimited() {
        assert_eq!(Budget::default(), Budget::UNLIMITED);
        assert!(!Budget::default().is_limited());
        assert!(Budget::states(1e4).is_limited());
        assert!(Budget::deadline(Duration::from_millis(5)).is_limited());
    }

    #[test]
    fn report_display() {
        let r = DegradationReport {
            segment: 2,
            cause: DegradationCause::StateBudget {
                estimated: 1e8,
                budget: 1e4,
            },
            fallback: Fallback::TwoState,
        };
        let s = r.to_string();
        assert!(s.contains("segment 2"));
        assert!(s.contains("twostate"));
        let r = DegradationReport {
            segment: 0,
            cause: DegradationCause::FactorBytes {
                bytes: 4096,
                budget: 1024,
            },
            fallback: Fallback::Replanned { subsegments: 3 },
        };
        assert!(r.to_string().contains("3 sub-segments"));
    }
}
