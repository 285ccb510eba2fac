//! The staged estimation pipeline.
//!
//! The paper's workflow is an explicit pipeline; this module makes each
//! stage a typed artifact, with one of four inference backends between the
//! last two:
//!
//! 1. **Plan** ([`PlannedCircuit`]) — fan-in decomposition and
//!    segmentation planning over the working circuit.
//! 2. **Model** ([`SegmentModel`]) — per-segment LIDAG/CPT construction,
//!    including boundary-correlation parent selection.
//! 3. **Compile** — the selected [`Backend`] turns each model into its
//!    propagation artifact (junction tree, OBDDs, sampling plan, or a
//!    two-state network).
//! 4. **Schedule** ([`WaveSchedule`]) — segments are grouped into
//!    dependency waves for topologically ordered propagation.
//! 5. **Propagate + forward** — per estimate, the backend propagates each
//!    wave and the driver forwards boundary marginals (and, for the
//!    junction-tree backend, pairwise joints) to later segments.
//!
//! [`StageTimings`] instruments every stage; [`CompiledEstimator`] holds
//! the compiled result and runs the last stage per estimate.

mod backend;
mod bddexact;
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
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use swact_bayesnet::{CompiledTree, PairwisePlan, VarId};
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
        // whose propagation states would be exponential. The byte cap
        // counts that per-request state, not stored potentials (a
        // compiled tree keeps only its CPTs).
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
        // Bytes of per-request propagation state the segments compiled so
        // far allocate (8 per nonzero clique entry). Compiled trees store
        // no potential: each segment's pooled states hold its cliques.
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
                            1,
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
                    propagate: Duration::ZERO,
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
                resident_bytes = resident_bytes.saturating_add(compiled.stats.nnz * 8);
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
                    return Ok((posterior.clone(), true));
                }
            }
        }
        let output = segment.propagate(roots)?;
        if let Some(sig) = signature {
            // The stored copy zeroes the message counters: a memo hit did
            // no message work, so a served posterior must not re-report
            // the original run's counts.
            let mut stored = output.clone();
            stored.messages_reused = 0;
            stored.messages_recomputed = 0;
            *self.memo[seg_idx]
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = Some((sig, stored));
        }
        Ok((output, false))
    }

    /// Propagates `spec` through the compiled trees and collects per-line
    /// transition distributions.
    ///
    /// Takes `&self`: the compiled trees are immutable and each
    /// propagation works on its own pooled propagation state, so estimates
    /// may run concurrently from multiple threads over one compiled
    /// estimator (the `swact-engine` crate builds on exactly this).
    ///
    /// # Errors
    ///
    /// Returns [`EstimateError::InputCountMismatch`] for a wrong-size spec.
    pub fn estimate(&self, spec: &InputSpec) -> Result<Estimate, EstimateError> {
        Ok(self.estimate_with_line_joints(spec, &[])?.0)
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
        let mut seg_propagate: Vec<Duration> = vec![Duration::ZERO; self.segments.len()];
        let mut messages_reused = 0u64;
        let mut messages_recomputed = 0u64;
        let mut segments_skipped = 0u64;
        let mut accuracy: Option<AccuracyReport> = None;
        // Absolute instant the propagate-stage deadline elapses; anytime
        // (sampling) segments stop drawing batches once it passes.
        let sample_deadline = self.options.budget.deadline.map(|d| start + d);
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
            let run = |seg_idx: usize| {
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
                );
                (seg_idx, seg_start.elapsed(), result)
            };
            // A single-segment wave runs inline. Independent segments (no
            // boundary lines between them) propagate concurrently — the
            // paper's §5 observation that junction-tree messages on
            // disjoint branches are independent, lifted to segment
            // granularity.
            let outputs = match wave.as_slice() {
                &[seg_idx] => vec![run(seg_idx)],
                _ => std::thread::scope(|scope| {
                    let handles: Vec<_> = wave
                        .iter()
                        .map(|&seg_idx| scope.spawn(move || run(seg_idx)))
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
            for (seg_idx, elapsed, output) in outputs {
                seg_propagate[seg_idx] = elapsed;
                let (output, skipped) = output?;
                messages_reused += output.messages_reused;
                messages_recomputed += output.messages_recomputed;
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
        for (timing, elapsed) in per_segment.iter_mut().zip(&seg_propagate) {
            timing.propagate = *elapsed;
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
                messages_reused,
                messages_recomputed,
                segments_skipped,
            },
            accuracy,
        );
        Ok((estimate, joints))
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
        self.segments
            .iter()
            .filter_map(|segment| match &segment.artifact {
                SegmentArtifact::Jtree(art) if !art.exports.is_empty() => Some((
                    &art.compiled,
                    art.exports
                        .iter()
                        .map(|export| (export.parent, export.child, &export.plan))
                        .collect(),
                )),
                _ => None,
            })
            .collect()
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
