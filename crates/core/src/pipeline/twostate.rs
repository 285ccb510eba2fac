//! The two-state (signal-probability) inference backend — the classic
//! pre-LIDAG formulation as a pluggable ablation.
//!
//! Before the paper's four-state formulation, probabilistic estimators
//! modeled each line as a *two-state* variable (its value at a single
//! clock) and recovered switching as `2·p·(1−p)` under a
//! temporal-independence assumption. This backend does exactly that on the
//! same Bayesian-network machinery, so the value of the four-state
//! (spatio-*temporal*) formulation can be isolated — ablation A2 in
//! DESIGN.md. Each segment becomes a 2-state Bayesian network over signal
//! probabilities (`P(line = 1)`); switching activity is then the proxy
//! `2·p·(1−p)`, encoded as the stationary product distribution
//! `[q², q·p, p·q, p²]`. Spatial correlation inside a segment is still
//! exact; temporal correlation and whatever spatial correlation
//! segmentation drops are sacrificed.

use std::time::Instant;

use swact_bayesnet::{BayesNet, CompiledTree, Cpt, JunctionTree, PropagationState, VarId};
use swact_circuit::{GateKind, LineId};

use crate::estimator::Options;
use crate::pipeline::backend::{RootDists, SegmentArtifact, SegmentPosterior, SegmentStats};
use crate::pipeline::model::SegmentModel;
use crate::segment::RootSource;
use crate::{EstimateError, SegmentTimings, TransitionDist};

/// The deterministic two-state CPT of a gate (plain truth table).
fn gate_cpt_two_state(kind: GateKind, fanin: usize) -> Cpt {
    let rows = 1usize << fanin;
    Cpt::deterministic(rows, 2, |row| {
        let bits = (0..fanin).map(|i| row >> (fanin - 1 - i) & 1 == 1);
        kind.eval(bits) as usize
    })
}

/// Two-state analogue of [`gate_family`](crate::gate_family): distinct
/// input lines plus the CPT with repeated connections evaluated
/// consistently.
fn gate_family_two_state(kind: GateKind, inputs: &[LineId]) -> (Vec<LineId>, Cpt) {
    let mut unique: Vec<LineId> = Vec::new();
    let slot_of: Vec<usize> = inputs
        .iter()
        .map(|&line| match unique.iter().position(|&u| u == line) {
            Some(pos) => pos,
            None => {
                unique.push(line);
                unique.len() - 1
            }
        })
        .collect();
    if unique.len() == inputs.len() {
        return (unique, gate_cpt_two_state(kind, inputs.len()));
    }
    let k = unique.len();
    let cpt = Cpt::deterministic(1 << k, 2, |row| {
        let bits = slot_of.iter().map(|&s| row >> (k - 1 - s) & 1 == 1);
        kind.eval(bits) as usize
    });
    (unique, cpt)
}

/// The two-state artifact of one segment: signal-probability propagation
/// with the `2p(1−p)` switching proxy.
pub(crate) struct TwoStateSegment {
    pub(crate) compiled: CompiledTree,
    pub(crate) roots: Vec<(LineId, VarId, RootSource)>,
    pub(crate) gates: Vec<(LineId, VarId)>,
}

/// Compiles a segment model into its 2-state junction tree.
pub(crate) fn compile(
    model: &SegmentModel,
    options: &Options,
) -> Result<(SegmentArtifact, SegmentStats), EstimateError> {
    if model.needs_pairwise() {
        return Err(EstimateError::BackendUnsupported {
            backend: "twostate",
            feature: "in-segment pairwise conditioning",
        });
    }
    let mut net = BayesNet::new();
    let mut var_of: std::collections::HashMap<LineId, VarId> = std::collections::HashMap::new();
    let mut roots = Vec::with_capacity(model.solo_roots.len());
    for &(line, _, source) in &model.solo_roots {
        // Placeholder uniform prior; the real P(line = 1) is injected
        // per estimate as a likelihood weight.
        let var = net.add_var(
            format!("l{}", line.index()),
            2,
            &[],
            Cpt::prior(vec![0.5, 0.5]),
        )?;
        var_of.insert(line, var);
        roots.push((line, var, source));
    }
    let mut gates = Vec::with_capacity(model.gate_defs.len());
    for (line, kind, inputs) in &model.gate_defs {
        let (unique_inputs, cpt) = gate_family_two_state(*kind, inputs);
        let parents: Vec<VarId> = unique_inputs.iter().map(|l| var_of[l]).collect();
        let var = net.add_var(format!("l{}", line.index()), 2, &parents, cpt)?;
        var_of.insert(*line, var);
        gates.push((*line, var));
    }
    let tree = JunctionTree::compile_with(&net, options.heuristic)?;
    if options.single_bn && tree.total_states() > options.segment_budget as f64 {
        return Err(EstimateError::TooLarge {
            states: tree.total_states(),
            budget: options.segment_budget as f64,
        });
    }
    let total_states = tree.total_states();
    let max_clique_states = tree.max_clique_states();
    let compiled = CompiledTree::new_with(tree, &net, options.sparse)?;
    let stats = SegmentStats {
        total_states,
        max_clique_states,
        nnz: compiled.nnz(),
        state_space: compiled.state_space(),
        compressed_cliques: compiled.compressed_cliques(),
        kernel_cost: compiled.kernel_cost(),
    };
    let artifact = TwoStateSegment {
        compiled,
        roots,
        gates,
    };
    Ok((SegmentArtifact::TwoState(artifact), stats))
}

/// Calibrates the 2-state tree under the roots' signal probabilities in
/// `state`, the estimate's arena slot for this segment (bound here), and
/// reads out every gate's `2p(1−p)` transition proxy.
pub(crate) fn propagate(
    art: &TwoStateSegment,
    roots: &RootDists<'_>,
    state: &mut PropagationState,
) -> Result<SegmentPosterior, EstimateError> {
    let compiled = &art.compiled;
    compiled.bind_state(state);
    for &(line, var, source) in &art.roots {
        // Primary inputs keep their exact marginal; boundary lines use
        // the forwarded distribution's next-state marginal (for
        // two-state posteriors that IS the signal probability).
        let p = match source {
            RootSource::PrimaryInput(pos) => roots.spec.model(pos).p1(),
            RootSource::Boundary => roots.dists[line.index()].p_one_next(),
        };
        compiled.set_likelihood(state, var, vec![2.0 * (1.0 - p), 2.0 * p])?;
    }
    let start = Instant::now();
    compiled.calibrate(state);
    let calibrate = start.elapsed();
    let start = Instant::now();
    let gate_dists = art
        .gates
        .iter()
        .map(|&(line, var)| {
            let mut m = [0.0f64; 2];
            compiled.marginal_into(state, var, &mut m);
            let p = m[1];
            let q = 1.0 - p;
            // Temporal-independence proxy: stationary product joint,
            // whose switching mass is 2·p·(1−p).
            (line, TransitionDist::new([q * q, q * p, p * q, p * p]))
        })
        .collect();
    Ok(SegmentPosterior {
        timings: SegmentTimings {
            calibrate,
            readout: start.elapsed(),
            ..SegmentTimings::default()
        },
        ..SegmentPosterior::from_gate_dists(gate_dists)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{estimate, Backend, InputModel, InputSpec};
    use swact_circuit::catalog;

    fn two_state() -> Options {
        Options::with_backend(Backend::TwoState)
    }

    #[test]
    fn two_state_cpt_truth_table() {
        let cpt = gate_cpt_two_state(GateKind::Nand, 2);
        assert_eq!(cpt.as_rows()[0], vec![0.0, 1.0]); // 00 → 1
        assert_eq!(cpt.as_rows()[3], vec![1.0, 0.0]); // 11 → 0
    }

    #[test]
    fn signal_probabilities_match_four_state_model() {
        // Both models compute the same exact signal probabilities.
        let c17 = catalog::c17();
        let spec = InputSpec::independent([0.3, 0.6, 0.5, 0.8, 0.2]);
        let two = estimate(&c17, &spec, &two_state()).unwrap();
        let four = estimate(&c17, &spec, &Options::single_bn()).unwrap();
        for line in c17.line_ids() {
            assert!(
                (two.signal_probability(line) - four.signal_probability(line)).abs() < 1e-9,
                "line {}",
                c17.line_name(line)
            );
        }
    }

    #[test]
    fn switching_proxy_matches_four_state_under_independence() {
        // With temporally independent inputs, switching == 2p(1−p) holds
        // exactly for the *inputs*, and for internal lines of c17 too
        // (the two clock slices are independent).
        let c17 = catalog::c17();
        let spec = InputSpec::uniform(5);
        let two = estimate(&c17, &spec, &two_state()).unwrap();
        let four = estimate(&c17, &spec, &Options::single_bn()).unwrap();
        for line in c17.line_ids() {
            let p = two.signal_probability(line);
            assert!((two.switching(line) - 2.0 * p * (1.0 - p)).abs() < 1e-12);
            assert!(
                (two.switching(line) - four.switching(line)).abs() < 1e-9,
                "line {}",
                c17.line_name(line)
            );
        }
    }

    #[test]
    fn two_state_misses_temporal_correlation() {
        // With *correlated* inputs the proxy must deviate from the exact
        // four-state estimate — the ablation's point.
        let c17 = catalog::c17();
        let spec = InputSpec::from_models(vec![InputModel::new(0.5, 0.1).unwrap(); 5]);
        let two = estimate(&c17, &spec, &two_state()).unwrap();
        let four = estimate(&c17, &spec, &Options::single_bn()).unwrap();
        let out = c17.outputs()[0];
        let diff = (two.switching(out) - four.switching(out)).abs();
        assert!(diff > 0.05, "expected visible temporal error, got {diff}");
    }

    #[test]
    fn spec_size_checked() {
        let c17 = catalog::c17();
        assert!(estimate(&c17, &InputSpec::uniform(2), &two_state()).is_err());
    }
}
