//! The pluggable inference-backend abstraction.
//!
//! A backend turns one [`SegmentModel`] into an opaque propagation artifact
//! ([`CompiledSegment`]) and later evaluates that artifact against concrete
//! root statistics ([`RootDists`]), producing the segment's posterior line
//! distributions ([`SegmentPosterior`]). The pipeline driver owns
//! everything else — planning, wave scheduling, boundary forwarding — so a
//! backend only ever sees one segment at a time.

use std::any::Any;
use std::collections::HashMap;
use std::str::FromStr;

use swact_bayesnet::VarId;
use swact_circuit::LineId;

use crate::estimator::Options;
use crate::pipeline::model::{Export, SegmentModel};
use crate::report::AccuracyReport;
use crate::{EstimateError, InputSpec, TransitionDist};

/// Which inference engine evaluates each segment's Bayesian network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Exact junction-tree (HUGIN) propagation over the 4-state LIDAG —
    /// the paper's method and the default. Supports input groups,
    /// explicit pairwise joints, and boundary-correlation forwarding.
    #[default]
    Jtree,
    /// Exact switching probabilities from per-segment OBDDs over
    /// interleaved (previous, next) input variables. Within a segment the
    /// result is exact; across segments only boundary *marginals* are
    /// forwarded (boundary-correlation export is a junction-tree notion).
    Bdd,
    /// Anytime forward sampling over the 4-state LIDAG with a
    /// deterministic seeded stream and the Burch/Najm stopping rule:
    /// batches run until the confidence half-width target
    /// ([`Options::ci_half_width`](crate::Options::ci_half_width)) is met
    /// or the remaining deadline is spent, and every posterior carries an
    /// [`AccuracyReport`]. The degradation ladder's middle rung.
    Sampling,
    /// The classic two-state ablation: signal probabilities only, with
    /// switching approximated as `2·p·(1−p)`. Exact for temporally
    /// independent inputs, blind to temporal correlation.
    TwoState,
}

impl Backend {
    /// Stable lower-case name (`jtree`, `bdd`, `sampling`, `twostate`).
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Jtree => "jtree",
            Backend::Bdd => "bdd",
            Backend::Sampling => "sampling",
            Backend::TwoState => "twostate",
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Backend, String> {
        match s.to_ascii_lowercase().as_str() {
            "jtree" | "junction-tree" | "hugin" => Ok(Backend::Jtree),
            "bdd" | "obdd" => Ok(Backend::Bdd),
            "sampling" | "sample" | "anytime" => Ok(Backend::Sampling),
            "twostate" | "two-state" | "2state" => Ok(Backend::TwoState),
            other => Err(format!(
                "unknown backend '{other}' (expected jtree, bdd, sampling, or twostate)"
            )),
        }
    }
}

/// Size statistics of one compiled segment, in backend-native units
/// (junction-tree states and nonzeros for `jtree`, BDD nodes for `bdd`,
/// 2-state tree sizes for `twostate`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SegmentStats {
    /// Total state count of the propagation artifact.
    pub total_states: f64,
    /// Largest single-clique (or equivalent) state count.
    pub max_clique_states: f64,
    /// Nonzero potential entries the hot path actually touches.
    pub nnz: usize,
    /// Dense state-space size `nnz` is measured against.
    pub state_space: usize,
    /// Number of cliques stored in zero-compressed form.
    pub compressed_cliques: usize,
    /// Cost-model estimate of one propagation sweep, in weighted table
    /// loads (see `CompiledTree::kernel_cost`): the deterministic quantity
    /// `SparseMode::Auto` minimizes per clique, so auto's total never
    /// exceeds dense's.
    pub kernel_cost: usize,
}

/// One segment compiled by an [`InferenceBackend`]: the backend's opaque
/// propagation artifact plus the driver-facing metadata every backend must
/// provide (size stats and the line → variable map used for joint routing
/// and boundary-correlation parent search).
pub struct CompiledSegment {
    artifact: Box<dyn Any + Send + Sync>,
    stats: SegmentStats,
    lines: HashMap<LineId, VarId>,
}

impl CompiledSegment {
    /// Wraps a backend artifact with its stats; `lines` maps every line
    /// that has a variable in this segment (roots and gates).
    pub fn new(
        artifact: Box<dyn Any + Send + Sync>,
        stats: SegmentStats,
        lines: HashMap<LineId, VarId>,
    ) -> CompiledSegment {
        CompiledSegment {
            artifact,
            stats,
            lines,
        }
    }

    /// The backend-specific artifact, for downcasting inside the backend.
    pub fn artifact(&self) -> &(dyn Any + Send + Sync) {
        &*self.artifact
    }

    /// Size statistics of this segment.
    pub fn stats(&self) -> &SegmentStats {
        &self.stats
    }

    /// Line → variable map over this segment's roots and gates.
    pub fn lines(&self) -> &HashMap<LineId, VarId> {
        &self.lines
    }
}

impl std::fmt::Debug for CompiledSegment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledSegment")
            .field("stats", &self.stats)
            .field("lines", &self.lines.len())
            .finish()
    }
}

/// Everything one propagation of a segment reads: the input spec, the
/// global per-line distributions produced by earlier waves, forwarded
/// boundary conditionals, the pairwise joints this segment must export,
/// and any requested in-segment line-pair joints.
pub struct RootDists<'a> {
    pub(crate) spec: &'a InputSpec,
    pub(crate) dists: &'a [TransitionDist],
    pub(crate) conditionals: &'a [Option<[f64; 16]>],
    pub(crate) exports: &'a [Export],
    pub(crate) joint_requests: &'a [(VarId, VarId, usize)],
    /// Absolute instant the propagate stage's deadline elapses, when a
    /// [`Budget::deadline`](crate::Budget) is set. Anytime backends stop
    /// drawing work when it passes; exact backends ignore it (the driver
    /// enforces it cooperatively at wave boundaries).
    pub(crate) deadline: Option<std::time::Instant>,
}

impl<'a> RootDists<'a> {
    /// The input specification being propagated.
    pub fn spec(&self) -> &'a InputSpec {
        self.spec
    }

    /// The transition distribution of a boundary line produced by an
    /// earlier wave (placeholder for lines not yet computed).
    pub fn boundary(&self, line: LineId) -> &TransitionDist {
        &self.dists[line.index()]
    }

    /// Absolute instant the propagate stage's deadline elapses, if any.
    pub fn deadline(&self) -> Option<std::time::Instant> {
        self.deadline
    }
}

/// Everything one segment's propagation produces, merged into the global
/// state after the segment (or its whole wave) finishes.
///
/// `Clone` so the pipeline's boundary-marginal memoization can serve a
/// stored posterior verbatim when a segment's inputs are unchanged.
#[derive(Debug, Default, Clone)]
pub struct SegmentPosterior {
    /// Posterior transition distribution per gate line of the segment.
    pub(crate) gate_dists: Vec<(LineId, TransitionDist)>,
    /// `(slot, P(child|parent))` conditionals exported for later segments.
    pub(crate) exports: Vec<(usize, [f64; 16])>,
    /// `(request index, 4×4 joint)` answers to in-segment joint requests.
    pub(crate) joints: Vec<(usize, [[f64; 4]; 4])>,
    /// Collect messages served from the backend's message cache.
    pub(crate) messages_reused: u64,
    /// Collect messages recomputed (zero when the whole segment was
    /// served from the posterior memo).
    pub(crate) messages_recomputed: u64,
    /// Confidence-interval report for approximate (sampled) posteriors;
    /// `None` for exact backends.
    pub(crate) accuracy: Option<AccuracyReport>,
}

impl SegmentPosterior {
    /// A posterior carrying only per-line distributions (no exports or
    /// joints) — what backends without pairwise-joint support return.
    pub fn from_gate_dists(gate_dists: Vec<(LineId, TransitionDist)>) -> SegmentPosterior {
        SegmentPosterior {
            gate_dists,
            ..SegmentPosterior::default()
        }
    }

    /// The per-gate-line posterior distributions.
    pub fn gate_dists(&self) -> &[(LineId, TransitionDist)] {
        &self.gate_dists
    }
}

/// A pluggable inference engine: compiles one [`SegmentModel`] into a
/// [`CompiledSegment`] and later propagates concrete root statistics
/// through it. Implementations must be thread-safe — segments of one wave
/// propagate concurrently, each against `&self`.
pub trait InferenceBackend: Send + Sync {
    /// Stable backend name (matches [`Backend::name`] for built-ins).
    fn name(&self) -> &'static str;

    /// Compiles a segment model into this backend's propagation artifact.
    ///
    /// # Errors
    ///
    /// [`EstimateError::BackendUnsupported`] when the model uses a feature
    /// the backend cannot express (input groups, pairwise joints),
    /// [`EstimateError::TooLarge`] / [`EstimateError::Backend`] when the
    /// artifact exceeds its size budget, and
    /// [`EstimateError::CorrelationBlowup`] — an internal signal the
    /// pipeline driver answers by retrying the segment with plain marginal
    /// forwarding.
    fn compile(
        &self,
        model: &SegmentModel,
        options: &Options,
    ) -> Result<CompiledSegment, EstimateError>;

    /// Propagates root statistics through a compiled segment.
    ///
    /// # Errors
    ///
    /// Backend-specific propagation failures, wrapped in
    /// [`EstimateError`].
    fn propagate(
        &self,
        segment: &CompiledSegment,
        roots: &RootDists<'_>,
    ) -> Result<SegmentPosterior, EstimateError>;

    /// A bit-exact (`f64::to_bits`) fingerprint of everything `propagate`
    /// would read from `roots` for this segment: solo-root priors,
    /// input-pair conditionals, forwarded boundary conditionals, and the
    /// joint requests routed here. Two calls with equal signatures are
    /// guaranteed to produce bit-identical posteriors, so the pipeline may
    /// serve a memoized [`SegmentPosterior`] instead of re-propagating.
    /// `None` (the default) disables memoization for this backend.
    fn root_signature(&self, segment: &CompiledSegment, roots: &RootDists<'_>) -> Option<u128> {
        let _ = (segment, roots);
        None
    }

    /// Structural distance between two lines inside a compiled segment,
    /// used to pick boundary-correlation parents; `None` disables
    /// correlation forwarding from this segment (the default — only
    /// backends that can export exact pairwise joints override it).
    fn correlation_distance(
        &self,
        segment: &CompiledSegment,
        child: LineId,
        candidate: LineId,
    ) -> Option<usize> {
        let _ = (segment, child, candidate);
        None
    }
}

/// The built-in backend implementation for a [`Backend`] selector.
pub(crate) fn backend_impl(backend: Backend) -> Box<dyn InferenceBackend> {
    match backend {
        Backend::Jtree => Box::new(crate::pipeline::jtree::JtreeBackend),
        Backend::Bdd => Box::new(crate::pipeline::bddexact::BddBackend),
        Backend::Sampling => Box::new(crate::pipeline::sampling::SamplingBackend),
        Backend::TwoState => Box::new(crate::pipeline::twostate::TwoStateBackend),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_parses_and_prints() {
        assert_eq!("jtree".parse::<Backend>().unwrap(), Backend::Jtree);
        assert_eq!("BDD".parse::<Backend>().unwrap(), Backend::Bdd);
        assert_eq!("two-state".parse::<Backend>().unwrap(), Backend::TwoState);
        assert_eq!("sampling".parse::<Backend>().unwrap(), Backend::Sampling);
        assert_eq!("anytime".parse::<Backend>().unwrap(), Backend::Sampling);
        assert!("gibbs".parse::<Backend>().is_err());
        assert_eq!(Backend::default(), Backend::Jtree);
        assert_eq!(Backend::Bdd.to_string(), "bdd");
        assert_eq!(Backend::Sampling.to_string(), "sampling");
    }
}
