//! The closed family of inference backends.
//!
//! A backend turns one [`SegmentModel`] into a propagation artifact — one
//! [`SegmentArtifact`] variant per [`Backend`] — and later evaluates that
//! artifact against concrete root statistics ([`RootDists`]), producing
//! the segment's posterior line distributions ([`SegmentPosterior`]).
//! Dispatch is one `match` per operation on [`CompiledSegment`]. The
//! pipeline owns everything else — planning, wave scheduling,
//! boundary forwarding — so a backend only ever sees one segment at a
//! time.

use std::collections::HashMap;
use std::str::FromStr;

use swact_bayesnet::{PropagationState, VarId};
use swact_circuit::LineId;

use crate::estimator::Options;
use crate::pipeline::jtree::{self, JtreeSegment};
use crate::pipeline::model::{Export, SegmentModel};
use crate::pipeline::sampling::{self, SamplingSegment};
use crate::pipeline::twostate::{self, TwoStateSegment};
use crate::report::AccuracyReport;
use crate::SegmentTimings;
use crate::{EstimateError, InputSpec, TransitionDist};

/// Which inference engine evaluates each segment's Bayesian network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Exact junction-tree (HUGIN) propagation over the 4-state LIDAG —
    /// the paper's method and the default. Supports input groups,
    /// explicit pairwise joints, and boundary-correlation forwarding.
    #[default]
    Jtree,
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
    /// Stable lower-case name (`jtree`, `sampling`, `twostate`).
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Jtree => "jtree",
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
            "sampling" | "sample" | "anytime" => Ok(Backend::Sampling),
            "twostate" | "two-state" | "2state" => Ok(Backend::TwoState),
            other => Err(format!(
                "unknown backend '{other}' (expected jtree, sampling, or twostate)"
            )),
        }
    }
}

/// Size statistics of one compiled segment, in backend-native units
/// (junction-tree states and nonzeros for `jtree`, 2-state tree sizes for
/// `twostate`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct SegmentStats {
    /// Total state count of the propagation artifact.
    pub(crate) total_states: f64,
    /// Largest single-clique (or equivalent) state count.
    pub(crate) max_clique_states: f64,
    /// Nonzero potential entries the hot path actually touches.
    pub(crate) nnz: usize,
    /// Dense state-space size `nnz` is measured against.
    pub(crate) state_space: usize,
    /// Number of cliques stored in zero-compressed form.
    pub(crate) compressed_cliques: usize,
    /// Cost-model estimate of one propagation sweep, in weighted table
    /// loads (see `CompiledTree::kernel_cost`): the deterministic quantity
    /// `SparseMode::Auto` minimizes per clique, so auto's total never
    /// exceeds dense's.
    pub(crate) kernel_cost: usize,
}

/// One segment's propagation artifact, tagged by the backend that built
/// it.
pub(crate) enum SegmentArtifact {
    Jtree(JtreeSegment),
    Sampling(SamplingSegment),
    TwoState(TwoStateSegment),
}

/// One compiled segment: its backend artifact plus the metadata the
/// pipeline reads from every backend — size stats and the line → variable
/// map (over every line with a variable here, roots and gates) used for
/// joint routing and boundary-correlation parent search.
pub(crate) struct CompiledSegment {
    pub(crate) artifact: SegmentArtifact,
    pub(crate) stats: SegmentStats,
    pub(crate) lines: HashMap<LineId, VarId>,
}

impl CompiledSegment {
    /// Compiles a segment model with `backend`.
    ///
    /// # Errors
    ///
    /// [`EstimateError::BackendUnsupported`] when the model uses a feature
    /// the backend cannot express (input groups, pairwise joints),
    /// [`EstimateError::TooLarge`] / [`EstimateError::Backend`] when the
    /// artifact exceeds its size budget, and
    /// [`EstimateError::CorrelationBlowup`] — an internal signal the
    /// pipeline answers by retrying the segment with plain marginal
    /// forwarding.
    pub(crate) fn compile(
        backend: Backend,
        model: &SegmentModel,
        options: &Options,
    ) -> Result<CompiledSegment, EstimateError> {
        let (artifact, stats) = match backend {
            Backend::Jtree => jtree::compile(model, options)?,
            Backend::Sampling => sampling::compile(model, options)?,
            Backend::TwoState => twostate::compile(model, options)?,
        };
        Ok(CompiledSegment {
            artifact,
            stats,
            lines: model.line_vars.clone(),
        })
    }

    /// The backend that compiled (and therefore propagates) this segment.
    pub(crate) fn backend(&self) -> Backend {
        match self.artifact {
            SegmentArtifact::Jtree(_) => Backend::Jtree,
            SegmentArtifact::Sampling(_) => Backend::Sampling,
            SegmentArtifact::TwoState(_) => Backend::TwoState,
        }
    }

    /// Propagates root statistics through this segment. The junction-tree
    /// backends calibrate in `state`, the estimate's arena slot for this
    /// segment; the others leave it untouched.
    ///
    /// # Errors
    ///
    /// Backend-specific propagation failures, wrapped in
    /// [`EstimateError`].
    pub(crate) fn propagate(
        &self,
        roots: &RootDists<'_>,
        state: &mut PropagationState,
    ) -> Result<SegmentPosterior, EstimateError> {
        match &self.artifact {
            SegmentArtifact::Jtree(art) => jtree::propagate(art, roots, state),
            SegmentArtifact::Sampling(art) => Ok(sampling::propagate(art, roots)),
            SegmentArtifact::TwoState(art) => twostate::propagate(art, roots, state),
        }
    }

    /// Clique plus sepset entries a propagation state bound to this
    /// segment holds (8 bytes apiece); zero for the backends that
    /// propagate without one.
    pub(crate) fn state_entries(&self) -> usize {
        let compiled = match &self.artifact {
            SegmentArtifact::Jtree(art) => &art.compiled,
            SegmentArtifact::TwoState(art) => &art.compiled,
            SegmentArtifact::Sampling(_) => return 0,
        };
        compiled.state_space() + compiled.sepset_space()
    }

    /// A bit-exact (`f64::to_bits`) fingerprint of everything `propagate`
    /// would read from `roots` for this segment. Two calls with equal
    /// signatures are guaranteed to produce bit-identical posteriors, so
    /// the pipeline may serve a memoized [`SegmentPosterior`] instead of
    /// re-propagating. `None` disables memoization (every backend but
    /// jtree).
    pub(crate) fn root_signature(&self, roots: &RootDists<'_>) -> Option<u128> {
        match &self.artifact {
            SegmentArtifact::Jtree(art) => jtree::root_signature(art, roots),
            _ => None,
        }
    }

    /// Plans the `(parent, child)` joints this segment exports to later
    /// segments, once per compile or load. Only junction trees can export
    /// pairwise joints; a pair outside the tree, or any export from
    /// another backend, is an error.
    pub(crate) fn plan_exports(&mut self, exports: &[Export]) -> Result<(), String> {
        match &mut self.artifact {
            SegmentArtifact::Jtree(art) => jtree::plan_exports(art, exports),
            _ if exports.is_empty() => Ok(()),
            _ => Err(format!(
                "a {} segment cannot export pairwise joints",
                self.backend()
            )),
        }
    }

    /// Structural (clique) distance between two lines of this segment,
    /// used to pick boundary-correlation parents; `None` disables
    /// correlation forwarding from this segment (every backend but jtree,
    /// the only one that can export exact pairwise joints).
    pub(crate) fn correlation_distance(&self, child: LineId, candidate: LineId) -> Option<usize> {
        match &self.artifact {
            SegmentArtifact::Jtree(art) => {
                let tree = art.compiled.tree();
                tree.clique_distance(
                    tree.home_clique(*self.lines.get(&child)?),
                    tree.home_clique(*self.lines.get(&candidate)?),
                )
            }
            _ => None,
        }
    }
}

/// Everything one propagation of a segment reads: the input spec, the
/// global per-line distributions produced by earlier waves, forwarded
/// boundary conditionals, and any requested in-segment line-pair joints.
/// (The pairwise joints a segment exports are part of its compiled
/// artifact — see [`CompiledSegment::plan_exports`].)
pub(crate) struct RootDists<'a> {
    pub(crate) spec: &'a InputSpec,
    pub(crate) dists: &'a [TransitionDist],
    pub(crate) conditionals: &'a [Option<[f64; 16]>],
    pub(crate) joint_requests: &'a [(VarId, VarId, usize)],
    /// Absolute instant the propagate stage's deadline elapses, when a
    /// [`Budget::deadline`](crate::Budget) is set. Anytime backends stop
    /// drawing work when it passes; exact backends ignore it (the driver
    /// enforces it cooperatively at wave boundaries).
    pub(crate) deadline: Option<std::time::Instant>,
}

/// Everything one segment's propagation produces, merged into the global
/// state after the segment (or its whole wave) finishes.
///
/// `Clone` so the pipeline's boundary-marginal memoization can serve a
/// stored posterior verbatim when a segment's inputs are unchanged.
#[derive(Debug, Default, Clone)]
pub(crate) struct SegmentPosterior {
    /// Posterior transition distribution per gate line of the segment.
    pub(crate) gate_dists: Vec<(LineId, TransitionDist)>,
    /// `(slot, P(child|parent))` conditionals exported for later segments.
    pub(crate) exports: Vec<(usize, [f64; 16])>,
    /// `(request index, 4×4 joint)` answers to in-segment joint requests.
    pub(crate) joints: Vec<(usize, [[f64; 4]; 4])>,
    /// Confidence-interval report for approximate (sampled) posteriors;
    /// `None` for exact backends.
    pub(crate) accuracy: Option<AccuracyReport>,
    /// The calibrate, readout and export time of the propagation that
    /// produced this posterior (the other fields stay zero).
    pub(crate) timings: SegmentTimings,
}

impl SegmentPosterior {
    /// A posterior carrying only per-line distributions (no exports or
    /// joints) — what backends without pairwise-joint support return.
    pub(crate) fn from_gate_dists(gate_dists: Vec<(LineId, TransitionDist)>) -> SegmentPosterior {
        SegmentPosterior {
            gate_dists,
            ..SegmentPosterior::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_parses_and_prints() {
        assert_eq!("jtree".parse::<Backend>().unwrap(), Backend::Jtree);
        assert!("bdd".parse::<Backend>().is_err());
        assert_eq!("two-state".parse::<Backend>().unwrap(), Backend::TwoState);
        assert_eq!("sampling".parse::<Backend>().unwrap(), Backend::Sampling);
        assert_eq!("anytime".parse::<Backend>().unwrap(), Backend::Sampling);
        assert!("gibbs".parse::<Backend>().is_err());
        assert_eq!(Backend::default(), Backend::Jtree);
        assert_eq!(Backend::TwoState.to_string(), "twostate");
        assert_eq!(Backend::Sampling.to_string(), "sampling");
    }
}
