//! The junction-tree (HUGIN) inference backend — the paper's method and
//! the default.

use std::time::Instant;

use swact_bayesnet::codec::{fnv128_u64, FNV128_OFFSET};
use swact_bayesnet::{
    BayesError, CompiledTree, Factor, JunctionTree, PairwisePlan, PropagationState, VarId,
};
use swact_circuit::LineId;

use crate::estimator::Options;
use crate::pipeline::backend::{RootDists, SegmentArtifact, SegmentPosterior, SegmentStats};
use crate::pipeline::model::{Export, InputPair, PairRoot, SegmentModel};
use crate::segment::RootSource;
use crate::{EstimateError, InputSpec, SegmentTimings, TransitionDist};

/// The junction-tree propagation artifact of one segment: exact
/// propagation over the 4-state LIDAG, with input groups, explicit
/// pairwise joints, and boundary-correlation forwarding — the only
/// backend that can export pairwise joints across segment boundaries.
pub(crate) struct JtreeSegment {
    /// The immutable propagation artifact: junction tree, message
    /// schedule, and the CPTs each clique hosts, with *uniform* root priors
    /// baked in; the actual priors are injected per estimate as likelihood
    /// weights (mathematically identical, and the artifact stays
    /// independent of the input statistics).
    pub(crate) compiled: CompiledTree,
    pub(crate) solo_roots: Vec<(LineId, VarId, RootSource)>,
    pub(crate) pair_roots: Vec<PairRoot>,
    pub(crate) input_pairs: Vec<InputPair>,
    pub(crate) gates: Vec<(LineId, VarId)>,
    /// The pairwise joints later segments read from this one, each with
    /// its clique-path walk planned once ([`plan_exports`]). Derived from
    /// the estimator's export routing at compile and at artifact load;
    /// never serialized.
    pub(crate) exports: Vec<ExportWalk>,
}

/// One boundary-correlation export: the conditional slot it fills and
/// the planned walk that computes its `(parent, child)` joint.
pub(crate) struct ExportWalk {
    pub(crate) slot: usize,
    pub(crate) parent: VarId,
    pub(crate) child: VarId,
    pub(crate) plan: PairwisePlan,
}

/// Plans every export `art` computes after calibration. Each pair must
/// name two distinct variables of the segment's tree in one component;
/// anything else (only a corrupt artifact can carry it) is an error
/// instead of a panic at estimate time.
pub(crate) fn plan_exports(art: &mut JtreeSegment, exports: &[Export]) -> Result<(), String> {
    let num_vars = art.compiled.tree().num_vars();
    art.exports = exports
        .iter()
        .map(|export| {
            let (parent, child) = (export.parent_var, export.child_var);
            if parent.index() >= num_vars || child.index() >= num_vars {
                return Err(format!(
                    "export ({parent}, {child}) outside the producer's {num_vars} variables"
                ));
            }
            if parent == child {
                return Err(format!(
                    "export ({parent}, {child}) names one variable twice"
                ));
            }
            let plan = art
                .compiled
                .plan_pairwise(parent, child)
                .ok_or_else(|| format!("export ({parent}, {child}) spans two tree components"))?;
            Ok(ExportWalk {
                slot: export.slot,
                parent,
                child,
                plan,
            })
        })
        .collect::<Result<_, _>>()?;
    Ok(())
}

/// The 4×4 conditional rows `P(child | parent)` a grouped or explicitly
/// paired primary-input pair injects — shared by `propagate` (which
/// multiplies them in) and `root_signature` (which hashes them).
fn input_pair_rows(spec: &InputSpec, pair: &InputPair) -> [[f64; 4]; 4] {
    match pair.group {
        Some(group) => {
            let joint = spec.groups()[group]
                .member_pair_joint(spec.model(pair.parent_pos), spec.model(pair.child_pos));
            let mut rows = [[0.25f64; 4]; 4];
            for (a, row) in joint.iter().enumerate() {
                let mass: f64 = row.iter().sum();
                if mass > 0.0 {
                    for (b, &p) in row.iter().enumerate() {
                        rows[a][b] = p / mass;
                    }
                }
            }
            rows
        }
        None => spec
            .pair_conditioning(pair.child_pos)
            .expect("signature guarantees the pair exists")
            .conditional_rows(),
    }
}

/// Compiles a segment model into its junction tree.
pub(crate) fn compile(
    model: &SegmentModel,
    options: &Options,
) -> Result<(SegmentArtifact, SegmentStats), EstimateError> {
    let budget = options.segment_budget as f64;
    let tree = if !model.pair_roots.is_empty() && !options.single_bn {
        // Boundary-correlation edges can widen the tree; report a severe
        // blowup so the pipeline can fall back to plain marginal
        // forwarding for this segment (keeping the planned budget
        // meaningful). The triangulation stops once it passes the
        // tolerated 4× the budget, before any tree or kernel is built.
        JunctionTree::compile_within(&model.net, options.heuristic, 4.0 * budget).map_err(|e| {
            match e {
                BayesError::StatesOverBound { states, .. } => {
                    EstimateError::CorrelationBlowup { states, budget }
                }
                e => e.into(),
            }
        })?
    } else {
        JunctionTree::compile_with(&model.net, options.heuristic)?
    };
    if options.single_bn && tree.total_states() > budget {
        return Err(EstimateError::TooLarge {
            states: tree.total_states(),
            budget,
        });
    }
    let total_states = tree.total_states();
    let max_clique_states = tree.max_clique_states();
    let compiled = CompiledTree::new_with(tree, &model.net, options.sparse)?;
    let stats = SegmentStats {
        total_states,
        max_clique_states,
        nnz: compiled.nnz(),
        state_space: compiled.state_space(),
        compressed_cliques: compiled.compressed_cliques(),
        kernel_cost: compiled.kernel_cost(),
    };
    let artifact = JtreeSegment {
        compiled,
        solo_roots: model.solo_roots.clone(),
        pair_roots: model.pair_roots.clone(),
        input_pairs: model.input_pairs.clone(),
        gates: model.gates.clone(),
        exports: Vec::new(),
    };
    Ok((SegmentArtifact::Jtree(artifact), stats))
}

/// Initializes, calibrates, and reads out one segment's Bayesian
/// network in `state`, the estimate's arena slot for this segment (bound
/// here; whatever it held before is overwritten). Pure with respect to the
/// global state (reads the forwarded `roots`, returns its contributions),
/// so segments within a wave can run on separate threads, each on its own
/// slot.
pub(crate) fn propagate(
    art: &JtreeSegment,
    roots: &RootDists<'_>,
    state: &mut PropagationState,
) -> Result<SegmentPosterior, EstimateError> {
    let spec = roots.spec;
    let compiled = &art.compiled;
    compiled.bind_state(state);
    // The cached potentials carry uniform (1/4) root priors; weighting
    // state s by 4*P(s) as likelihood evidence reproduces the exact
    // prior after normalization.
    for &(line, var, source) in &art.solo_roots {
        let prior = match source {
            RootSource::PrimaryInput(pos) => spec.prior_row(pos),
            RootSource::Boundary => roots.dists[line.index()].as_array().to_vec(),
        };
        compiled.set_likelihood(state, var, prior.iter().map(|p| 4.0 * p).collect())?;
    }
    // Grouped primary inputs: inject 4*P(child | parent) from the
    // closed-form pair joint of the group model; explicitly paired
    // inputs take their conditional from the spec.
    for pair in &art.input_pairs {
        let rows = input_pair_rows(spec, pair);
        let mut values = Vec::with_capacity(16);
        for row in &rows {
            for &conditional in row {
                values.push(4.0 * conditional);
            }
        }
        debug_assert!(pair.parent_var < pair.var);
        compiled.insert_factor(
            state,
            Factor::new(vec![(pair.parent_var, 4), (pair.var, 4)], values),
        )?;
    }
    // Correlated boundary roots: multiply 4*P(c|p) over the cached
    // uniform conditional, restoring the producer's pairwise joint.
    for pair in &art.pair_roots {
        let cond = roots.conditionals[pair.slot].expect("producer wave precedes consumers");
        debug_assert!(
            pair.parent_var < pair.var,
            "children are added after parents"
        );
        let values: Vec<f64> = cond.iter().map(|&p| 4.0 * p).collect();
        compiled.insert_factor(
            state,
            Factor::new(vec![(pair.parent_var, 4), (pair.var, 4)], values),
        )?;
    }
    let start = Instant::now();
    compiled.calibrate(state);
    let calibrate = start.elapsed();
    let start = Instant::now();
    let gate_dists = art
        .gates
        .iter()
        .map(|&(line, var)| {
            let mut m = [0.0f64; 4];
            compiled.marginal_into(state, var, &mut m);
            (line, TransitionDist::new(m))
        })
        .collect();
    // Serve requested line-pair joints from this segment.
    let mut joints = Vec::new();
    for &(var_a, var_b, idx) in roots.joint_requests {
        let Some(plan) = compiled.plan_pairwise(var_a, var_b) else {
            continue;
        };
        let a_first = plan.vars()[0] == var_a;
        let joint = compiled.pairwise_marginal_planned(state, &plan);
        let mut out = [[0.0f64; 4]; 4];
        for (a_state, row) in out.iter_mut().enumerate() {
            for (b_state, slot) in row.iter_mut().enumerate() {
                let k = if a_first {
                    a_state * 4 + b_state
                } else {
                    b_state * 4 + a_state
                };
                *slot = joint[k];
            }
        }
        joints.push((idx, out));
    }
    let readout = start.elapsed();
    // Export pairwise joints for later segments. Exports from one parent
    // down one path share their first steps.
    let start = Instant::now();
    let mut exports = Vec::with_capacity(art.exports.len());
    let plans: Vec<&PairwisePlan> = art.exports.iter().map(|e| &e.plan).collect();
    let entries = compiled.pairwise_marginals_planned(state, &plans, |i, joint| {
        let export = &art.exports[i];
        let parent_first = export.plan.vars()[0] == export.parent;
        let mut cond = [0.0f64; 16];
        for p in 0..4 {
            let mut row = [0.0f64; 4];
            for (c, slot) in row.iter_mut().enumerate() {
                let idx = if parent_first { p * 4 + c } else { c * 4 + p };
                *slot = joint[idx];
            }
            let mass: f64 = row.iter().sum();
            for (c, &v) in row.iter().enumerate() {
                // Zero-mass parent states get a uniform row; they never
                // matter because P(parent = p) is zero.
                cond[p * 4 + c] = if mass > 0.0 { v / mass } else { 0.25 };
            }
        }
        exports.push((export.slot, cond));
    });
    Ok(SegmentPosterior {
        gate_dists,
        exports,
        joints,
        accuracy: None,
        timings: SegmentTimings {
            calibrate,
            readout,
            export: start.elapsed(),
            export_walks: art.exports.len(),
            export_entries: entries,
            ..SegmentTimings::default()
        },
    })
}

/// Hashes exactly what `propagate` reads from `roots`: solo-root
/// priors (spec rows for primary inputs, forwarded marginals for
/// boundary lines), input-pair conditional rows, forwarded boundary
/// conditionals, and the joint requests routed to this segment. Equal
/// signatures therefore guarantee bit-identical posteriors. The hash is
/// 128-bit FNV-1a: wide enough that an accidental collision
/// (which would silently serve a stale posterior) is out of reach for any
/// realistic sweep length.
pub(crate) fn root_signature(art: &JtreeSegment, roots: &RootDists<'_>) -> Option<u128> {
    let spec = roots.spec;
    let mut h = FNV128_OFFSET;
    for &(line, _, source) in &art.solo_roots {
        h = fnv128_u64(h, line.index() as u64);
        match source {
            RootSource::PrimaryInput(pos) => {
                for p in spec.prior_row(pos) {
                    h = fnv128_u64(h, p.to_bits());
                }
            }
            RootSource::Boundary => {
                for p in roots.dists[line.index()].as_array() {
                    h = fnv128_u64(h, p.to_bits());
                }
            }
        }
    }
    for pair in &art.input_pairs {
        h = fnv128_u64(h, pair.child_pos as u64);
        for row in input_pair_rows(spec, pair) {
            for p in row {
                h = fnv128_u64(h, p.to_bits());
            }
        }
    }
    for pair in &art.pair_roots {
        h = fnv128_u64(h, pair.slot as u64);
        let cond = roots.conditionals[pair.slot]?;
        for p in cond {
            h = fnv128_u64(h, p.to_bits());
        }
    }
    for &(var_a, var_b, idx) in roots.joint_requests {
        h = fnv128_u64(h, var_a.index() as u64);
        h = fnv128_u64(h, var_b.index() as u64);
        h = fnv128_u64(h, idx as u64);
    }
    Some(h)
}

#[cfg(test)]
mod tests {
    use swact_bayesnet::{Factor, PropagationState};
    use swact_circuit::catalog;

    use super::JtreeSegment;
    use crate::pipeline::backend::SegmentArtifact;
    use crate::{CompiledEstimator, Options};

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// A state of `art`'s tree calibrated under skewed evidence on every
    /// root: a transition prior per solo root and a non-uniform
    /// conditional per correlated boundary pair, as a propagation injects
    /// them.
    fn calibrated_state(art: &JtreeSegment) -> PropagationState {
        let tree = &art.compiled;
        let mut state = tree.new_state();
        for (k, &(_, var, _)) in art.solo_roots.iter().enumerate() {
            let p = 0.1 + 0.8 * ((k * 37) % 11) as f64 / 10.0;
            let q = 1.0 - p;
            let prior = [q * q, q * p, p * q, p * p];
            tree.set_likelihood(&mut state, var, prior.iter().map(|x| 4.0 * x).collect())
                .expect("four-state root");
        }
        for (k, pair) in art.pair_roots.iter().enumerate() {
            let values = (0..16)
                .map(|i| 4.0 * (1 + (i * 7 + k) % 5) as f64 / 15.0)
                .collect();
            tree.insert_factor(
                &mut state,
                Factor::new(vec![(pair.parent_var, 4), (pair.var, 4)], values),
            )
            .expect("pair roots share a clique");
        }
        tree.calibrate(&mut state);
        state
    }

    /// Every export the estimator planned (c880 has none at default
    /// options), and a spread of in-segment joint reads (planned per call,
    /// as `estimate_with_line_joints` does), must equal the reference walk
    /// bit for bit over each segment's calibrated state.
    fn assert_export_walks_match_the_reference(name: &str) {
        let circuit = catalog::benchmark(name).expect("known benchmark");
        let compiled = CompiledEstimator::compile(&circuit, &Options::default()).expect("compiles");
        let mut walks = 0;
        for segment in &compiled.segments {
            let SegmentArtifact::Jtree(art) = &segment.artifact else {
                continue;
            };
            let tree = &art.compiled;
            let mut state = calibrated_state(art);
            let mut expect = Vec::new();
            for export in &art.exports {
                let planned = bits(tree.pairwise_marginal_planned(&mut state, &export.plan));
                let reference = tree
                    .pairwise_marginal_reference(&state, export.parent, export.child)
                    .expect("exports share a component");
                assert_eq!(planned, bits(reference.values()), "{name} export");
                expect.push(planned);
                walks += 1;
            }
            // The export pass itself, which shares walk prefixes.
            let plans: Vec<_> = art.exports.iter().map(|e| &e.plan).collect();
            let mut shared = Vec::new();
            tree.pairwise_marginals_planned(&mut state, &plans, |_, joint| {
                shared.push(bits(joint));
            });
            assert_eq!(shared, expect, "{name} shared export walks");
            let gates: Vec<_> = art.gates.iter().map(|&(_, var)| var).collect();
            let step = (gates.len() / 4).max(1);
            for &a in gates.iter().step_by(step) {
                for &b in gates.iter().rev().step_by(step) {
                    if a == b {
                        continue;
                    }
                    let planned = tree
                        .pairwise_marginal(&state, a, b)
                        .map(|j| bits(j.values()));
                    let reference = tree
                        .pairwise_marginal_reference(&state, a, b)
                        .map(|j| bits(j.values()));
                    assert_eq!(planned, reference, "{name} joint {a} {b}");
                    walks += 1;
                }
            }
        }
        assert!(walks > 0, "{name} walked no pair");
    }

    #[test]
    fn export_walks_match_the_reference_on_c432() {
        assert_export_walks_match_the_reference("c432");
    }

    #[test]
    fn export_walks_match_the_reference_on_c880() {
        assert_export_walks_match_the_reference("c880");
    }

    #[test]
    fn export_walks_match_the_reference_on_alu2() {
        assert_export_walks_match_the_reference("alu2");
    }

    #[test]
    fn export_walks_match_the_reference_on_c7552() {
        assert_export_walks_match_the_reference("c7552");
    }
}
