//! Estimator configuration ([`Options`]) and one-shot [`estimate`].
//!
//! The compiled, re-propagatable estimator ([`CompiledEstimator`]) and
//! its staged machinery — planning, per-segment modeling, backend
//! compilation, wave-scheduled propagation with boundary forwarding —
//! live in [`crate::pipeline`].

use swact_bayesnet::{Heuristic, SparseMode};
use swact_circuit::Circuit;

use crate::budget::Budget;
use crate::pipeline::{Backend, CompiledEstimator};
use crate::report::Estimate;
use crate::{EstimateError, InputSpec};

/// Configuration of the estimator.
///
/// The defaults reproduce the paper's setup: min-fill triangulation,
/// fan-in decomposition to ≤ 4, and automatic segmentation with a
/// 2¹⁷-state budget per segment's junction tree — the operating point
/// where evidence propagation runs in milliseconds (Table 1's "Update"
/// column) while per-node errors stay in the 10⁻³ band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// Triangulation heuristic for junction-tree compilation.
    pub heuristic: Heuristic,
    /// Gates wider than this are decomposed into two-input trees first.
    pub max_fanin: usize,
    /// Per-segment junction-tree state budget; lower values mean more,
    /// smaller Bayesian networks (faster, slightly less exact).
    pub segment_budget: usize,
    /// Force a single Bayesian network over the whole circuit. Errors with
    /// [`EstimateError::TooLarge`] if `segment_budget` would be exceeded.
    pub single_bn: bool,
    /// Forward pairwise joints across segment boundaries: a boundary line
    /// whose sibling root was produced in the same earlier segment (and
    /// shares a clique there) enters as `P(line | sibling)` instead of an
    /// independent marginal. Recovers most of the correlation segmentation
    /// would otherwise drop; disable to reproduce the paper's plain
    /// marginal forwarding (ablation E6). Only the junction-tree backend
    /// can export pairwise joints, so other backends always forward plain
    /// marginals regardless of this flag.
    pub boundary_correlation: bool,
    /// Zero-compression policy for compiled clique potentials. Logic
    /// circuits produce LIDAG CPTs that are mostly deterministic, so clique
    /// tables carry large numbers of structural zeros; compressed cliques
    /// iterate only their nonzero support during propagation. The default
    /// [`SparseMode::Auto`] decides per clique on the measured nonzero
    /// count, compressing a clique only when
    /// [`SPARSE_COST_PER_ENTRY`](swact_bayesnet::SPARSE_COST_PER_ENTRY)
    /// indexed loads per surviving entry beat one sequential load per
    /// dense entry. Results are bit-identical across modes.
    pub sparse: SparseMode,
    /// Which inference engine evaluates each segment's Bayesian network.
    /// The default [`Backend::Jtree`] is the paper's exact junction-tree
    /// propagation; [`Backend::Sampling`] is the anytime
    /// forward-sampling estimator with per-segment confidence intervals;
    /// [`Backend::TwoState`] is the classic signal-probability ablation
    /// with the `2p(1−p)` switching proxy.
    pub backend: Backend,
    /// Base seed for the deterministic sampling backend. Each segment
    /// derives its own stream from this seed and the segment's content
    /// hash, so results are bit-identical across job counts and warm/cold
    /// artifact loads. Hashed into the model key: artifacts compiled
    /// under different seeds never mix.
    pub seed: u64,
    /// Absolute confidence-interval half-width target on a sampled
    /// segment's mean gate switching activity — the [`Backend::Sampling`]
    /// stopping criterion. The sampler draws batches until the
    /// Burch/Najm normal-approximation interval is at most this wide (or
    /// the remaining [`Budget::deadline`] is spent, or the internal batch
    /// cap is hit), and reports the achieved half-width in the estimate's
    /// [`AccuracyReport`](crate::AccuracyReport).
    pub ci_half_width: f64,
    /// z-score of the sampling confidence level (1.96 ≈ 95 %).
    pub ci_z: f64,
    /// Hard resource limits (state-space cap, resident factor bytes,
    /// per-stage deadline) checked at stage boundaries. Unlimited by
    /// default; see [`Budget`] for the degradation ladder exceeding them
    /// triggers.
    pub budget: Budget,
    /// Disable the degradation ladder: budget exhaustion errors with
    /// [`EstimateError::BudgetExceeded`] instead of replanning or falling
    /// back to the `twostate` backend for the offending segment.
    pub no_fallback: bool,
    /// Reuse work across successive `estimate` calls on one compiled
    /// estimator: segments whose root statistics are unchanged are served
    /// from a memoized posterior instead of re-propagating. Results are
    /// bit-identical (`f64::to_bits`) to cold propagation by
    /// construction; disable only to measure the cold baseline.
    pub incremental: bool,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            heuristic: Heuristic::MinFill,
            max_fanin: 4,
            segment_budget: 1 << 17,
            single_bn: false,
            boundary_correlation: true,
            sparse: SparseMode::Auto,
            backend: Backend::Jtree,
            seed: 0,
            ci_half_width: 0.01,
            ci_z: 1.96,
            budget: Budget::UNLIMITED,
            no_fallback: false,
            incremental: true,
        }
    }
}

impl Options {
    /// Options that force one exact Bayesian network over the whole
    /// circuit, with a 2²²-state memory guard (errors with
    /// [`EstimateError::TooLarge`] beyond it).
    pub fn single_bn() -> Options {
        Options {
            single_bn: true,
            segment_budget: 1 << 22,
            ..Options::default()
        }
    }

    /// Options with an explicit per-segment state budget.
    pub fn with_budget(segment_budget: usize) -> Options {
        Options {
            segment_budget,
            ..Options::default()
        }
    }

    /// Options with an explicit inference backend.
    pub fn with_backend(backend: Backend) -> Options {
        Options {
            backend,
            ..Options::default()
        }
    }

    /// Options with an explicit resource [`Budget`].
    pub fn with_resource_budget(budget: Budget) -> Options {
        Options {
            budget,
            ..Options::default()
        }
    }
}

/// One-shot estimation: compile the circuit's (possibly segmented)
/// LIDAG-BNs and propagate the given input statistics.
///
/// For repeated estimation under different statistics, build a
/// [`CompiledEstimator`] once and call
/// [`estimate`](CompiledEstimator::estimate) per spec — propagation is
/// orders of magnitude cheaper than compilation (paper Table 1, "Update"
/// vs "Total" columns).
///
/// # Errors
///
/// Returns [`EstimateError::InputCountMismatch`] for a wrong-size spec,
/// [`EstimateError::TooLarge`] in forced single-BN mode, and wrapped
/// circuit/BN errors.
///
/// # Example
///
/// See the [crate docs](crate).
pub fn estimate(
    circuit: &Circuit,
    spec: &InputSpec,
    options: &Options,
) -> Result<Estimate, EstimateError> {
    let compiled = CompiledEstimator::compile_for(circuit, spec, options)?;
    compiled.estimate(spec)
}
