//! The staged estimation pipeline.
//!
//! The paper's workflow is an explicit pipeline; this module makes each
//! stage a typed artifact, with one of three inference backends between the
//! last two:
//!
//! 1. **Plan** ([`PlannedCircuit`]) — fan-in decomposition and
//!    segmentation planning over the working circuit.
//! 2. **Model** ([`SegmentModel`]) — per-segment LIDAG/CPT construction,
//!    including boundary-correlation parent selection.
//! 3. **Compile** — the selected [`Backend`] turns each model into its
//!    propagation artifact (junction tree, sampling plan, or a two-state
//!    network).
//! 4. **Schedule** ([`WaveSchedule`]) — segments are grouped into
//!    dependency waves for topologically ordered propagation.
//! 5. **Propagate + forward** — per estimate, the backend propagates each
//!    wave and the driver forwards boundary marginals (and, for the
//!    junction-tree backend, pairwise joints) to later segments.
//!
//! [`StageTimings`] instruments every stage; [`CompiledEstimator`] holds
//! the compiled result and runs the last stage per estimate.

mod backend;
mod jtree;
mod model;
pub(crate) mod persist;
mod plan;
mod sampling;
mod schedule;
mod timing;
mod twostate;

pub use backend::Backend;
pub use model::SegmentModel;
pub use plan::PlannedCircuit;
pub use schedule::WaveSchedule;
pub use timing::{SegmentTimings, StageTimings};

use std::collections::HashMap;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use swact_bayesnet::{CompiledTree, PairwisePlan, PropagationState, VarId};
use swact_circuit::{Circuit, LineId};

use crate::budget::{DegradationCause, DegradationReport, Fallback};
use crate::estimator::Options;
use crate::faults;
use crate::pipeline::backend::{CompiledSegment, RootDists, SegmentArtifact, SegmentPosterior};
use crate::pipeline::model::Export;
use crate::report::{AccuracyReport, Estimate};
use crate::segment::{estimate_segment_cost, replan_segment, RootSource, Segment};
use crate::{EstimateError, InputSpec, TransitionDist};

/// A circuit whose segment Bayesian networks and junction trees have been
/// compiled once and can be re-propagated cheaply for any input statistics:
/// the planned circuit, per-segment backend artifacts, export routing, and
/// the wave schedule.
///
/// # Example
///
/// ```
/// use swact::{CompiledEstimator, InputSpec, Options};
/// use swact_circuit::catalog;
///
/// # fn main() -> Result<(), swact::EstimateError> {
/// let c17 = catalog::c17();
/// let compiled = CompiledEstimator::compile(&c17, &Options::default())?;
/// let uniform = compiled.estimate(&InputSpec::uniform(5))?;
/// let biased = compiled.estimate(&InputSpec::independent(vec![0.9; 5]))?;
/// assert_ne!(
///     uniform.switching(c17.outputs()[0]),
///     biased.switching(c17.outputs()[0]),
/// );
/// # Ok(())
/// # }
/// ```
pub struct CompiledEstimator {
    planned: PlannedCircuit,
    /// Compile-time budget-ladder provenance, per degraded segment.
    degradations: Vec<DegradationReport>,
    segments: Vec<CompiledSegment>,
    /// Per segment: pairwise joints it must export after calibration
    /// (requested by later consumer segments at compile time).
    exports: Vec<Vec<Export>>,
    /// Number of cross-segment conditional slots.
    num_slots: usize,
    num_boundary_roots: usize,
    schedule: WaveSchedule,
    compile_time: Duration,
    /// Compile-side stage breakdown (propagate/forward stay zero here).
    stages: StageTimings,
    /// Per-segment model/compile times (propagate filled per estimate).
    seg_timings: Vec<SegmentTimings>,
    total_states: f64,
    max_clique_states: f64,
    options: Options,
    /// Per-segment boundary-marginal memo: the last propagated posterior
    /// keyed by the backend's root signature. A segment whose incoming
    /// priors, boundary marginals, and forwarded conditionals are all
    /// bit-unchanged since the previous estimate is served from here
    /// without re-propagating. Only primary-backend segments participate
    /// (degraded segments never memoize — see `propagate_segment`).
    memo: Vec<Mutex<Option<(u128, SegmentPosterior)>>>,
    /// Propagation arenas. Each estimate takes an idle one and puts it
    /// back when done; see [`WhenBusy`] for what it does when there is
    /// none.
    arenas: ArenaPool,
}

/// The propagation states of one estimate: one reusable state per wave
/// slot. Slot `k` serves the `k`-th segment of every wave, so it grows to
/// the largest such segment and no further, and the segments of one wave
/// propagate on disjoint slots. Nothing carries over between estimates:
/// each segment rebinds its slot and every calibration rewrites the
/// cliques it reads, so an arena left mid-estimate by an error or a panic
/// is as good as a fresh one.
type Arena = Vec<PropagationState>;

/// An estimator's propagation arenas: the idle ones, and how many exist
/// in all, idle or leased.
#[derive(Default)]
struct ArenaPool {
    arenas: Mutex<Arenas>,
    /// Signalled whenever an arena comes back.
    returned: Condvar,
}

#[derive(Default)]
struct Arenas {
    idle: Vec<Arena>,
    made: usize,
}

/// What an estimate does when concurrent estimates hold every arena of
/// the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WhenBusy {
    /// Make another arena, which then stays in the pool for the
    /// estimator's life.
    Grow,
    /// Wait for an arena to come back.
    Wait,
}

/// An arena taken from an estimator's pool for one estimate, put back on
/// drop — also when the estimate returns an error or unwinds.
struct ArenaLease<'a> {
    pool: &'a ArenaPool,
    arena: Arena,
}

impl<'a> ArenaLease<'a> {
    /// Takes an idle arena from `pool`; when there is none, makes an empty
    /// one with `slots` unbound states, or under [`WhenBusy::Wait`] waits
    /// for a leased one unless the pool has none yet.
    fn take(pool: &'a ArenaPool, slots: usize, when_busy: WhenBusy) -> ArenaLease<'a> {
        let mut arenas = pool.arenas.lock().unwrap_or_else(PoisonError::into_inner);
        if when_busy == WhenBusy::Wait {
            while arenas.idle.is_empty() && arenas.made > 0 {
                arenas = pool
                    .returned
                    .wait(arenas)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        let arena = match arenas.idle.pop() {
            Some(arena) => arena,
            None => {
                arenas.made += 1;
                vec![PropagationState::default(); slots]
            }
        };
        ArenaLease { pool, arena }
    }
}

impl Drop for ArenaLease<'_> {
    fn drop(&mut self) {
        let arena = std::mem::take(&mut self.arena);
        self.pool
            .arenas
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .idle
            .push(arena);
        self.pool.returned.notify_one();
    }
}

impl std::fmt::Debug for CompiledEstimator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledEstimator")
            .field("working_lines", &self.planned.working.num_lines())
            .field("segments", &self.segments.len())
            .field("total_states", &self.total_states)
            .field("compile_time", &self.compile_time)
            .finish()
    }
}

impl CompiledEstimator {
    /// Compiles the circuit: fan-in decomposition, segmentation planning,
    /// per-segment LIDAG construction, and backend compilation (junction
    /// trees for the default [`Backend::Jtree`]).
    ///
    /// # Errors
    ///
    /// Returns [`EstimateError::TooLarge`] when `options.single_bn` is set
    /// and the whole-circuit tree exceeds the budget, or wrapped
    /// circuit/BN errors.
    pub fn compile(
        circuit: &Circuit,
        options: &Options,
    ) -> Result<CompiledEstimator, EstimateError> {
        CompiledEstimator::build(circuit, None, options)
    }

    /// Compiles the circuit *for a given input specification*: in addition
    /// to everything [`compile`](CompiledEstimator::compile) does, members
    /// of the spec's [`InputGroup`](crate::InputGroup)s are chained inside
    /// every segment so their spatial correlation is modeled exactly
    /// (pairwise). The group *membership* becomes part of the compiled
    /// structure; later [`estimate`](CompiledEstimator::estimate) calls may
    /// change all probabilities but must keep the same groups.
    ///
    /// # Errors
    ///
    /// Same as [`compile`](CompiledEstimator::compile), plus
    /// [`EstimateError::BackendUnsupported`] when the spec uses input
    /// groups or pairwise joints with a non-junction-tree backend.
    pub fn compile_for(
        circuit: &Circuit,
        spec: &InputSpec,
        options: &Options,
    ) -> Result<CompiledEstimator, EstimateError> {
        CompiledEstimator::build(circuit, Some(spec), options)
    }

    fn build(
        circuit: &Circuit,
        spec: Option<&InputSpec>,
        options: &Options,
    ) -> Result<CompiledEstimator, EstimateError> {
        let start = Instant::now();
        let backend_kind = options.backend;
        let planned = match spec {
            Some(spec) => PlannedCircuit::for_spec(circuit, spec, options)?,
            None => PlannedCircuit::new(circuit, options)?,
        };
        if backend_kind != Backend::Jtree
            && (!planned.group_signature.is_empty() || !planned.pair_signature.is_empty())
        {
            return Err(EstimateError::BackendUnsupported {
                backend: backend_kind.name(),
                feature: "input groups / explicit pairwise joints",
            });
        }
        let plan_time = start.elapsed();
        faults::hit("pipeline:plan", None);

        let budget = options.budget;
        // Space budgets are hard admission checks on the planner's *soft*
        // target: the estimate is re-derived per segment and violations
        // walk the degradation ladder below instead of admitting a segment
        // whose propagation state would be exponential. The byte cap
        // counts dense clique entries, zeros included, as a propagation
        // state allocates them — not stored potentials (a compiled tree
        // keeps only its CPTs).
        let checks_space = budget.max_states.is_some() || budget.max_factor_bytes.is_some();
        let space_violation = |est: f64, resident: usize| -> Option<DegradationCause> {
            if let Some(max_states) = budget.max_states {
                if est > max_states {
                    return Some(DegradationCause::StateBudget {
                        estimated: est,
                        budget: max_states,
                    });
                }
            }
            if let Some(max_bytes) = budget.max_factor_bytes {
                let projected = resident.saturating_add((est * 8.0) as usize);
                if projected > max_bytes {
                    return Some(DegradationCause::FactorBytes {
                        bytes: projected,
                        budget: max_bytes,
                    });
                }
            }
            None
        };

        let mut final_segments: Vec<Segment> = Vec::with_capacity(planned.num_segments());
        let mut degradations: Vec<DegradationReport> = Vec::new();
        let mut segments: Vec<CompiledSegment> = Vec::with_capacity(planned.num_segments());
        let mut exports: Vec<Vec<Export>> = Vec::with_capacity(planned.num_segments());
        let mut seg_timings: Vec<SegmentTimings> = Vec::with_capacity(planned.num_segments());
        let mut total_states = 0.0;
        let mut max_clique_states = 0.0f64;
        let mut num_slots = 0usize;
        let mut num_boundary_roots = 0usize;
        let mut model_time = Duration::ZERO;
        let mut compile_stage_time = Duration::ZERO;
        // Dense clique bytes of the segments compiled so far (8 per entry,
        // zeros included): what a state bound to each would hold. Compiled
        // trees store no potential; an estimate's arena holds at most this
        // sum, one wave slot per segment at a time.
        let mut resident_bytes = 0usize;
        // Where each gate line was produced: (segment index, var there).
        let mut produced_in: HashMap<LineId, (usize, VarId)> = HashMap::new();
        for (plan_idx, planned_seg) in planned.plan.segments().iter().enumerate() {
            // With the sampling backend primary, compilation allocates no
            // potentials and the deadline instead caps the anytime sampler
            // at propagate time — expiry here must not abort the run.
            if let Some(deadline) = budget
                .deadline
                .filter(|_| options.backend != Backend::Sampling)
            {
                if start.elapsed() > deadline {
                    return Err(EstimateError::DeadlineExceeded {
                        stage: "compile",
                        deadline,
                    });
                }
            }
            // Admission + degradation ladder: decide which pieces this
            // planned segment becomes and which engine runs each piece.
            let pressure = faults::budget_pressure("pipeline:admission", Some(plan_idx));
            let mut admitted: Vec<(Segment, Backend)> = Vec::new();
            if checks_space || pressure {
                let est =
                    estimate_segment_cost(&planned.working, 4, planned_seg, options.heuristic);
                let cause = if pressure {
                    // Synthetic exhaustion from the fault harness: treat
                    // the segment as over the state budget.
                    Some(DegradationCause::StateBudget {
                        estimated: est,
                        budget: budget.max_states.unwrap_or(planned.plan.budget()),
                    })
                } else {
                    space_violation(est, resident_bytes)
                };
                match cause {
                    None => admitted.push((planned_seg.clone(), backend_kind)),
                    Some(cause) => {
                        if options.no_fallback || options.single_bn {
                            return Err(EstimateError::BudgetExceeded {
                                segment: final_segments.len(),
                                states: est,
                                budget: match cause {
                                    DegradationCause::StateBudget { budget, .. } => budget,
                                    DegradationCause::FactorBytes { budget, .. } => budget as f64,
                                },
                                rung: backend_kind.name(),
                            });
                        }
                        // Rung 1: replan just this segment under a tighter
                        // state target so it splits into sub-segments.
                        let target = match cause {
                            DegradationCause::StateBudget { estimated, budget } => {
                                budget.min(estimated)
                            }
                            DegradationCause::FactorBytes { budget, .. } => {
                                (budget.saturating_sub(resident_bytes) / 8).max(1) as f64
                            }
                        };
                        let tighter = (target / 4.0).max(16.0);
                        let subs = replan_segment(
                            &planned.working,
                            4,
                            planned_seg,
                            tighter,
                            options.heuristic,
                        );
                        let could_split = subs.len() > 1;
                        if could_split {
                            degradations.push(DegradationReport {
                                segment: final_segments.len(),
                                cause,
                                fallback: Fallback::Replanned {
                                    subsegments: subs.len(),
                                },
                            });
                        }
                        // Projected resident bytes across the sub-segments
                        // not yet compiled (actuals land after compile).
                        let mut sub_resident = resident_bytes;
                        for sub in subs {
                            let sub_cause = if !could_split {
                                // Unsplittable (single-family) segment:
                                // the replan rung cannot help.
                                Some(cause)
                            } else if pressure {
                                None
                            } else {
                                let sub_est = estimate_segment_cost(
                                    &planned.working,
                                    4,
                                    &sub,
                                    options.heuristic,
                                );
                                sub_resident =
                                    sub_resident.saturating_add((sub_est * 8.0) as usize);
                                space_violation(sub_est, sub_resident)
                            };
                            match sub_cause {
                                None => admitted.push((sub, backend_kind)),
                                Some(sub_cause) => {
                                    // Rung 2: evaluate this piece with the
                                    // anytime sampling engine — linear cost
                                    // per sample, full 4-state model, and a
                                    // reported confidence interval. (When
                                    // the primary backend is already the
                                    // cheaper twostate there is nothing to
                                    // gain; keep it.) Rung 3 — twostate —
                                    // is reached below only if the sampler
                                    // cannot model this piece.
                                    let rung = if backend_kind == Backend::TwoState {
                                        Backend::TwoState
                                    } else {
                                        Backend::Sampling
                                    };
                                    degradations.push(DegradationReport {
                                        segment: final_segments.len() + admitted.len(),
                                        cause: sub_cause,
                                        fallback: if rung == Backend::TwoState {
                                            Fallback::TwoState
                                        } else {
                                            Fallback::Sampling
                                        },
                                    });
                                    admitted.push((sub, rung));
                                }
                            }
                        }
                    }
                }
            } else {
                admitted.push((planned_seg.clone(), backend_kind));
            }

            for (seg, kind) in admitted {
                let seg_idx = final_segments.len();
                exports.push(Vec::new());
                let model_start = Instant::now();
                // Assign boundary-correlation parents: a boundary root may be
                // conditioned on an earlier boundary root of this segment when
                // both were produced in the same earlier segment and share a
                // clique there (so that segment can export their exact joint).
                let mut parent_of: HashMap<LineId, LineId> = HashMap::new();
                // Per paired child line: (producer segment, parent var there,
                // child var there) — the joint the producer must export.
                let mut pair_info: HashMap<LineId, (usize, VarId, VarId)> = HashMap::new();
                // Degraded (twostate) segments cannot consume pair roots, so
                // they always use plain marginal forwarding.
                if options.boundary_correlation && kind == backend_kind {
                    // Each correlated boundary root is conditioned on ONE
                    // earlier root of this segment — the structurally closest
                    // line (smallest clique distance) that also has a variable
                    // in the producing segment. Primary inputs qualify too:
                    // a boundary line is often most correlated with the very
                    // inputs it computes, and those reappear here as roots.
                    // Parents must themselves be plain roots (no chains) and
                    // serve at most two children, so the extra edges stay
                    // tree-ish and cannot explode the consumer's width.
                    let mut children_of: HashMap<LineId, usize> = HashMap::new();
                    let mut earlier: Vec<LineId> = Vec::new();
                    for &(line, source) in &seg.roots {
                        if source == RootSource::Boundary {
                            let (producer, child_var) = produced_in[&line];
                            let producer_seg = &segments[producer];
                            let mut best: Option<(usize, LineId)> = None;
                            for &candidate in &earlier {
                                if parent_of.contains_key(&candidate)
                                    || children_of.get(&candidate).copied().unwrap_or(0) >= 2
                                {
                                    continue;
                                }
                                if let Some(d) = producer_seg.correlation_distance(line, candidate)
                                {
                                    if best.is_none_or(|(bd, _)| d < bd) {
                                        best = Some((d, candidate));
                                    }
                                }
                            }
                            if let Some((_, parent)) = best {
                                parent_of.insert(line, parent);
                                *children_of.entry(parent).or_default() += 1;
                                pair_info.insert(
                                    line,
                                    (producer, producer_seg.lines[&parent], child_var),
                                );
                            }
                        }
                        earlier.push(line);
                    }
                }

                let mut model = SegmentModel::build_with_parents(
                    &planned, seg_idx, &seg, &parent_of, &pair_info, num_slots,
                )?;
                let seg_model_time = model_start.elapsed();
                faults::hit("pipeline:compile", Some(seg_idx));
                let compile_start = Instant::now();
                let compiled = match CompiledSegment::compile(kind, &model, options) {
                    // Boundary-correlation edges widened this segment's tree
                    // past the tolerated blowup: retry with plain marginal
                    // forwarding for this segment.
                    Err(EstimateError::CorrelationBlowup { .. }) => {
                        model = SegmentModel::build_with_parents(
                            &planned,
                            seg_idx,
                            &seg,
                            &HashMap::new(),
                            &HashMap::new(),
                            num_slots,
                        )?;
                        CompiledSegment::compile(kind, &model, options)?
                    }
                    // Rung 3: the sampler cannot model this degraded piece
                    // (in-segment pairwise conditioning) — drop to the
                    // twostate engine. That rung is itself exponential in
                    // the 2-state tree, so admission-check its own cost
                    // first and attribute any exhaustion to the rung that
                    // actually ran out (not the primary backend's numbers).
                    Err(EstimateError::BackendUnsupported { .. })
                        if kind == Backend::Sampling && backend_kind != Backend::Sampling =>
                    {
                        let two_est =
                            estimate_segment_cost(&planned.working, 2, &seg, options.heuristic);
                        if let Some(cause) = space_violation(two_est, resident_bytes) {
                            return Err(EstimateError::BudgetExceeded {
                                segment: seg_idx,
                                states: two_est,
                                budget: match cause {
                                    DegradationCause::StateBudget { budget, .. } => budget,
                                    DegradationCause::FactorBytes { budget, .. } => budget as f64,
                                },
                                rung: "twostate",
                            });
                        }
                        for report in degradations.iter_mut() {
                            if report.segment == seg_idx && report.fallback == Fallback::Sampling {
                                report.fallback = Fallback::TwoState;
                            }
                        }
                        CompiledSegment::compile(Backend::TwoState, &model, options)?
                    }
                    other => other?,
                };
                let seg_compile_time = compile_start.elapsed();
                model_time += seg_model_time;
                compile_stage_time += seg_compile_time;
                seg_timings.push(SegmentTimings {
                    model: seg_model_time,
                    compile: seg_compile_time,
                    ..SegmentTimings::default()
                });
                num_slots += model.pair_roots.len();
                num_boundary_roots += model.pair_roots.len()
                    + model
                        .solo_roots
                        .iter()
                        .filter(|(_, _, src)| *src == RootSource::Boundary)
                        .count();
                for &(line, var) in &model.gates {
                    produced_in.insert(line, (seg_idx, var));
                }
                total_states += compiled.stats.total_states;
                max_clique_states = max_clique_states.max(compiled.stats.max_clique_states);
                resident_bytes = resident_bytes.saturating_add(compiled.stats.state_space * 8);
                for (producer, export) in model.exports_by_producer {
                    exports[producer].push(export);
                }
                segments.push(compiled);
                final_segments.push(seg);
            }
        }
        // Consumers append to their producers' export lists, so a
        // producer's walks are planned once every consumer is compiled.
        for (segment, exports) in segments.iter_mut().zip(&exports) {
            segment
                .plan_exports(exports)
                .map_err(|message| EstimateError::Backend {
                    backend: Backend::Jtree.name(),
                    message,
                })?;
        }
        let schedule = WaveSchedule::from_segments(&final_segments);
        let memo = (0..segments.len()).map(|_| Mutex::new(None)).collect();
        Ok(CompiledEstimator {
            planned,
            degradations,
            segments,
            exports,
            num_slots,
            num_boundary_roots,
            schedule,
            compile_time: start.elapsed(),
            stages: StageTimings {
                plan: plan_time,
                model: model_time,
                compile: compile_stage_time,
                ..StageTimings::default()
            },
            seg_timings,
            total_states,
            max_clique_states,
            options: *options,
            memo,
            arenas: ArenaPool::default(),
        })
    }

    /// Propagates one segment, consulting the posterior memo first: when
    /// incremental mode is on and the backend reports a root signature
    /// equal to the stored one, the memoized posterior is cloned instead
    /// of re-propagated (bit-identical by the
    /// [`CompiledSegment::root_signature`] contract). Returns the
    /// posterior and whether it was served from the memo. Degraded
    /// segments run on a fallback backend and never participate, so a
    /// budget-governed run can never serve a posterior cached under
    /// different governance.
    fn propagate_segment(
        &self,
        seg_idx: usize,
        roots: &RootDists<'_>,
        state: &mut PropagationState,
    ) -> Result<(SegmentPosterior, bool), EstimateError> {
        let segment = &self.segments[seg_idx];
        let signature = if self.options.incremental && segment.backend() == self.options.backend {
            segment.root_signature(roots)
        } else {
            None
        };
        if let Some(sig) = signature {
            let slot = self.memo[seg_idx]
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some((stored_sig, posterior)) = slot.as_ref() {
                if *stored_sig == sig {
                    let posterior = SegmentPosterior {
                        timings: SegmentTimings::default(),
                        ..posterior.clone()
                    };
                    return Ok((posterior, true));
                }
            }
        }
        let output = segment.propagate(roots, state)?;
        if let Some(sig) = signature {
            *self.memo[seg_idx]
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = Some((sig, output.clone()));
        }
        Ok((output, false))
    }

    /// Propagates `spec` through the compiled trees and collects per-line
    /// transition distributions.
    ///
    /// Takes `&self`: the compiled trees are immutable and each estimate
    /// propagates in its own arena of states taken from the estimator's
    /// pool, so estimates may run concurrently from multiple threads over
    /// one compiled estimator (the `swact-engine` crate builds on exactly
    /// this). An estimate that finds every arena leased makes another,
    /// which the pool then keeps.
    ///
    /// # Errors
    ///
    /// Returns [`EstimateError::InputCountMismatch`] for a wrong-size spec.
    pub fn estimate(&self, spec: &InputSpec) -> Result<Estimate, EstimateError> {
        Ok(self.run(spec, &[], WhenBusy::Grow, None)?.0)
    }

    /// Like [`estimate`](CompiledEstimator::estimate), but an estimate
    /// that finds every arena leased waits for one to come back instead
    /// of making another. Concurrent calls on one estimator take turns on
    /// its arena, so the memory it holds does not depend on how the calls
    /// happen to overlap. The `swact-engine` crate runs single-scenario
    /// batches (one `swact serve` request each) this way.
    ///
    /// # Errors
    ///
    /// Same as [`estimate`](CompiledEstimator::estimate).
    pub fn estimate_queued(&self, spec: &InputSpec) -> Result<Estimate, EstimateError> {
        Ok(self.run(spec, &[], WhenBusy::Wait, None)?.0)
    }

    /// Like [`estimate`](CompiledEstimator::estimate), but additionally
    /// returns the estimated 4×4 joint transition distribution for each
    /// requested (original-circuit) line pair — `None` when the two lines
    /// never share a segment's Bayesian network (their joint is then
    /// simply the product of marginals under this model) or when the
    /// backend cannot compute pairwise joints (only [`Backend::Jtree`]
    /// can). Joints come from exact pairwise marginalization over the
    /// first segment containing both lines.
    ///
    /// The sequential estimator uses this to feed register-pair
    /// correlation back between fixed-point iterations.
    ///
    /// # Errors
    ///
    /// Same as [`estimate`](CompiledEstimator::estimate).
    #[allow(clippy::type_complexity)]
    pub fn estimate_with_line_joints(
        &self,
        spec: &InputSpec,
        line_pairs: &[(LineId, LineId)],
    ) -> Result<(Estimate, Vec<Option<[[f64; 4]; 4]>>), EstimateError> {
        self.run(spec, line_pairs, WhenBusy::Grow, None)
    }

    /// One estimate, leasing its arena under `when_busy`. With `states`,
    /// every segment that propagates (is not served from the memo) also
    /// pushes its index and a clone of the state it left.
    #[allow(clippy::type_complexity)]
    fn run(
        &self,
        spec: &InputSpec,
        line_pairs: &[(LineId, LineId)],
        when_busy: WhenBusy,
        mut states: Option<&mut Vec<(usize, PropagationState)>>,
    ) -> Result<(Estimate, Vec<Option<[[f64; 4]; 4]>>), EstimateError> {
        let working = &self.planned.working;
        if spec.len() != working.num_inputs() {
            return Err(EstimateError::InputCountMismatch {
                circuit: working.num_inputs(),
                spec: spec.len(),
            });
        }
        let spec_signature: Vec<Vec<usize>> =
            spec.groups().iter().map(|g| g.members.clone()).collect();
        if spec_signature != self.planned.group_signature {
            return Err(EstimateError::GroupStructureMismatch);
        }
        let spec_pairs: Vec<(usize, usize)> =
            spec.pairwise_joints().iter().map(|p| (p.a, p.b)).collect();
        if spec_pairs != self.planned.pair_signature {
            return Err(EstimateError::GroupStructureMismatch);
        }
        let start = Instant::now();
        let placeholder = TransitionDist::new([1.0, 0.0, 0.0, 0.0]);
        let mut dists: Vec<TransitionDist> = vec![placeholder; working.num_lines()];
        let mut known = vec![false; working.num_lines()];
        // Primary inputs take their (group-adjusted) spec distribution.
        for (i, &pi) in working.inputs().iter().enumerate() {
            dists[pi.index()] = spec.effective_distribution(i);
            known[pi.index()] = true;
        }
        // Cross-segment conditionals, filled by producers before consumers
        // run (segments are in topological order). Each entry holds
        // `P(child = c | parent = p)` flattened as `p·4 + c`.
        let mut conditionals: Vec<Option<[f64; 16]>> = vec![None; self.num_slots];
        // Requested line-pair joints: (segment, var_a, var_b, request idx).
        let mut joint_requests: Vec<Vec<(VarId, VarId, usize)>> =
            vec![Vec::new(); self.segments.len()];
        let mut joints: Vec<Option<[[f64; 4]; 4]>> = vec![None; line_pairs.len()];
        for (idx, &(a, b)) in line_pairs.iter().enumerate() {
            let wa = LineId::from_index(self.planned.line_map[a.index()]);
            let wb = LineId::from_index(self.planned.line_map[b.index()]);
            if let Some(seg_idx) = self
                .segments
                .iter()
                .position(|seg| seg.lines.contains_key(&wa) && seg.lines.contains_key(&wb))
            {
                let seg = &self.segments[seg_idx];
                joint_requests[seg_idx].push((seg.lines[&wa], seg.lines[&wb], idx));
            }
        }
        let mut propagate_wall = Duration::ZERO;
        let mut seg_propagate = vec![SegmentTimings::default(); self.segments.len()];
        let mut segments_skipped = 0u64;
        let mut accuracy: Option<AccuracyReport> = None;
        // Absolute instant the propagate-stage deadline elapses; anytime
        // (sampling) segments stop drawing batches once it passes.
        let sample_deadline = self.options.budget.deadline.map(|d| start + d);
        let mut lease = ArenaLease::take(&self.arenas, self.arena_slots(), when_busy);
        for (wave_idx, wave) in self.schedule.waves().iter().enumerate() {
            faults::hit("pipeline:propagate:wave", Some(wave_idx));
            // Cooperative per-stage deadline: checked at wave boundaries,
            // so numerics are never altered by time pressure — a run that
            // completes is bit-identical to an undeadlined run. Models with
            // anytime (sampling) segments trade this hard abort for graceful
            // degradation: the sampler absorbs the time pressure by capping
            // its batches at `sample_deadline`, and the run always returns a
            // best-effort estimate whose accuracy report says how far it got.
            if let Some(deadline) = self
                .options
                .budget
                .deadline
                .filter(|_| self.sampled_segments() == 0)
            {
                if start.elapsed() > deadline {
                    return Err(EstimateError::DeadlineExceeded {
                        stage: "propagate",
                        deadline,
                    });
                }
            }
            let wave_start = Instant::now();
            let run = |seg_idx: usize, state: &mut PropagationState| {
                let seg_start = Instant::now();
                let result = self.propagate_segment(
                    seg_idx,
                    &RootDists {
                        spec,
                        dists: &dists,
                        conditionals: &conditionals,
                        joint_requests: &joint_requests[seg_idx],
                        deadline: sample_deadline,
                    },
                    state,
                );
                (seg_idx, seg_start.elapsed(), result)
            };
            // A single-segment wave runs inline. Independent segments (no
            // boundary lines between them) propagate concurrently — the
            // paper's §5 observation that junction-tree messages on
            // disjoint branches are independent, lifted to segment
            // granularity — each on its own arena slot.
            let slots = &mut lease.arena[..wave.len()];
            let outputs = match (wave.as_slice(), slots) {
                (&[seg_idx], [state]) => vec![run(seg_idx, state)],
                (_, slots) => std::thread::scope(|scope| {
                    let handles: Vec<_> = wave
                        .iter()
                        .zip(slots)
                        .map(|(&seg_idx, state)| scope.spawn(move || run(seg_idx, state)))
                        .collect();
                    // A panicked segment worker becomes this segment's
                    // error instead of poisoning the whole estimate.
                    handles
                        .into_iter()
                        .zip(wave)
                        .map(|(h, &seg_idx)| {
                            h.join().unwrap_or_else(|payload| {
                                (
                                    seg_idx,
                                    Duration::ZERO,
                                    Err(EstimateError::from_panic(payload.as_ref())),
                                )
                            })
                        })
                        .collect()
                }),
            };
            propagate_wall += wave_start.elapsed();
            for (slot, (seg_idx, elapsed, output)) in outputs.into_iter().enumerate() {
                let (output, skipped) = output?;
                if let Some(states) = states.as_deref_mut().filter(|_| !skipped) {
                    states.push((seg_idx, lease.arena[slot].clone()));
                }
                seg_propagate[seg_idx] = SegmentTimings {
                    propagate: elapsed,
                    ..output.timings
                };
                segments_skipped += u64::from(skipped);
                merge_accuracy(&mut accuracy, output.accuracy.as_ref());
                apply_segment_output(
                    output,
                    &mut dists,
                    &mut known,
                    &mut conditionals,
                    &mut joints,
                );
            }
        }
        let propagate_time = start.elapsed();
        debug_assert!(known.iter().all(|&k| k), "every line estimated");
        let mut stages = self.stages;
        stages.propagate = propagate_wall;
        stages.forward = propagate_time.saturating_sub(propagate_wall);
        let mut per_segment = self.seg_timings.clone();
        for (timing, run) in per_segment.iter_mut().zip(&seg_propagate) {
            *timing = SegmentTimings {
                model: timing.model,
                compile: timing.compile,
                ..*run
            };
        }
        let estimate = Estimate::new(
            dists,
            self.planned.line_map.clone(),
            self.compile_time,
            propagate_time,
            self.segments.len(),
            self.total_states,
            self.max_clique_states,
            stages,
            per_segment,
            self.degradations.clone(),
            crate::report::ReuseStats {
                segments_skipped,
                ..crate::report::ReuseStats::default()
            },
            accuracy,
        );
        Ok((estimate, joints))
    }

    /// Slots per propagation arena: the widest wave's segment count.
    fn arena_slots(&self) -> usize {
        self.schedule
            .waves()
            .iter()
            .map(Vec::len)
            .max()
            .unwrap_or(0)
    }

    /// Bytes one propagation arena of this estimator holds once grown:
    /// per wave slot, the clique and sepset entries (8 bytes each) of the
    /// largest segment that slot serves. Each concurrent estimate holds
    /// one arena. For the memory tests only.
    #[doc(hidden)]
    pub fn arena_bytes(&self) -> usize {
        let mut slots = vec![0usize; self.arena_slots()];
        for wave in self.schedule.waves() {
            for (slot, &seg_idx) in slots.iter_mut().zip(wave) {
                *slot = (*slot).max(self.segments[seg_idx].state_entries());
            }
        }
        8 * slots.iter().sum::<usize>()
    }

    /// Propagation arenas this estimator has made so far, leased or
    /// idle. For the memory tests only.
    #[doc(hidden)]
    pub fn arenas_made(&self) -> usize {
        self.arenas
            .arenas
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .made
    }

    /// The working (fan-in-decomposed) circuit the estimator runs over.
    pub fn working_circuit(&self) -> &Circuit {
        &self.planned.working
    }

    /// Number of segments (Bayesian networks) the circuit was split into.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Compilation wall-clock time.
    pub fn compile_time(&self) -> Duration {
        self.compile_time
    }

    /// Total junction-tree state count across segments.
    pub fn total_states(&self) -> f64 {
        self.total_states
    }

    /// Largest clique state count across segments.
    pub fn max_clique_states(&self) -> f64 {
        self.max_clique_states
    }

    /// Total number of nonzero initial clique-potential entries across
    /// segments — the work the propagation hot path actually touches once
    /// zero-compressed cliques skip their structural zeros.
    pub fn nnz(&self) -> usize {
        self.segments.iter().map(|s| s.stats.nnz).sum()
    }

    /// Fraction of compiled clique-potential entries that are structural
    /// zeros (deterministic-CPT induced); `0.0` for an empty estimator.
    pub fn zero_fraction(&self) -> f64 {
        let states: usize = self.segments.iter().map(|s| s.stats.state_space).sum();
        if states == 0 {
            return 0.0;
        }
        1.0 - self.nnz() as f64 / states as f64
    }

    /// Number of cliques stored in zero-compressed form.
    pub fn compressed_cliques(&self) -> usize {
        self.segments
            .iter()
            .map(|s| s.stats.compressed_cliques)
            .sum()
    }

    /// Cost-model estimate of one propagation sweep across all segments,
    /// in weighted table loads: dense cliques pay one sequential load per
    /// state, zero-compressed cliques pay `SPARSE_COST_PER_ENTRY` indexed
    /// loads per surviving entry. [`SparseMode`](crate::SparseMode)`::Auto`
    /// minimizes this per clique, so its total never exceeds
    /// `SparseMode::Off`'s — the invariant the c880 regression test pins.
    pub fn kernel_cost(&self) -> usize {
        self.segments.iter().map(|s| s.stats.kernel_cost).sum()
    }

    /// The options the estimator was compiled with.
    pub fn options(&self) -> &Options {
        &self.options
    }

    /// The inference backend the estimator was compiled with.
    pub fn backend(&self) -> Backend {
        self.options.backend
    }

    /// Compile-side stage breakdown (`plan`/`model`/`compile`; the
    /// propagation-side stages are zero here and filled per
    /// [`Estimate`]).
    pub fn stage_timings(&self) -> StageTimings {
        self.stages
    }

    /// Per-segment model/compile times.
    pub fn segment_timings(&self) -> &[SegmentTimings] {
        &self.seg_timings
    }

    /// Number of boundary roots entering later segments with a forwarded
    /// pairwise joint (vs. an independent marginal).
    pub fn num_correlated_boundaries(&self) -> usize {
        self.num_slots
    }

    /// Number of dependency waves segments are scheduled into; segments
    /// within a wave propagate on separate threads.
    pub fn num_waves(&self) -> usize {
        self.schedule.num_waves()
    }

    /// Total number of boundary-root connections across segments.
    pub fn num_boundary_roots(&self) -> usize {
        self.num_boundary_roots
    }

    /// Per-segment degradation records from the compile-time budget
    /// ladder; empty when every segment compiled within budget.
    pub fn degradations(&self) -> &[DegradationReport] {
        &self.degradations
    }

    /// Number of segments evaluated by the anytime sampling backend,
    /// whether selected as the primary backend or reached via the
    /// degradation ladder.
    pub fn sampled_segments(&self) -> usize {
        self.segments
            .iter()
            .filter(|s| s.backend() == Backend::Sampling)
            .count()
    }

    /// Per exporting junction-tree segment: its compiled tree and each
    /// boundary-correlation export as `(parent, child, planned walk)`.
    /// For the export-walk benchmark and differential tests only.
    #[doc(hidden)]
    #[allow(clippy::type_complexity)]
    pub fn export_walks(&self) -> Vec<(&CompiledTree, Vec<(VarId, VarId, &PairwisePlan)>)> {
        (0..self.segments.len())
            .filter_map(|seg_idx| self.segment_exports(seg_idx))
            .collect()
    }

    /// [`export_walks`](CompiledEstimator::export_walks), each with the
    /// calibrated state an estimate of `spec` leaves its segment in. A
    /// segment the posterior memo serves keeps no state and is left out,
    /// so call this on an estimator that has not yet estimated `spec`.
    /// For the export-walk benchmark only.
    ///
    /// # Errors
    ///
    /// Same as [`estimate`](CompiledEstimator::estimate).
    #[doc(hidden)]
    #[allow(clippy::type_complexity)]
    pub fn export_walks_after(
        &self,
        spec: &InputSpec,
    ) -> Result<
        Vec<(
            &CompiledTree,
            PropagationState,
            Vec<(VarId, VarId, &PairwisePlan)>,
        )>,
        EstimateError,
    > {
        let mut states = Vec::new();
        self.run(spec, &[], WhenBusy::Grow, Some(&mut states))?;
        Ok(states
            .into_iter()
            .filter_map(|(seg_idx, state)| {
                let (tree, exports) = self.segment_exports(seg_idx)?;
                Some((tree, state, exports))
            })
            .collect())
    }

    /// Segment `seg_idx`'s tree and exports, if it is a junction-tree
    /// segment with any.
    #[allow(clippy::type_complexity)]
    fn segment_exports(
        &self,
        seg_idx: usize,
    ) -> Option<(&CompiledTree, Vec<(VarId, VarId, &PairwisePlan)>)> {
        match &self.segments[seg_idx].artifact {
            SegmentArtifact::Jtree(art) if !art.exports.is_empty() => Some((
                &art.compiled,
                art.exports
                    .iter()
                    .map(|export| (export.parent, export.child, &export.plan))
                    .collect(),
            )),
            _ => None,
        }
    }
}

/// Folds one segment's accuracy report into the estimate-level aggregate
/// (weakest half-width, summed samples, conjunctive convergence).
fn merge_accuracy(aggregate: &mut Option<AccuracyReport>, report: Option<&AccuracyReport>) {
    if let Some(report) = report {
        match aggregate {
            None => *aggregate = Some(*report),
            Some(agg) => agg.merge(report),
        }
    }
}

fn apply_segment_output(
    output: SegmentPosterior,
    dists: &mut [TransitionDist],
    known: &mut [bool],
    conditionals: &mut [Option<[f64; 16]>],
    joints: &mut [Option<[[f64; 4]; 4]>],
) {
    for (line, dist) in output.gate_dists {
        dists[line.index()] = dist;
        known[line.index()] = true;
    }
    for (slot, cond) in output.exports {
        conditionals[slot] = Some(cond);
    }
    for (idx, joint) in output.joints {
        joints[idx] = Some(joint);
    }
}
