//! The anytime sampling inference backend — the degradation ladder's
//! quantified middle rung.
//!
//! Each segment is evaluated by forward sampling its 4-state LIDAG:
//! every sample draws a (previous, next) transition for each root from
//! its exact prior (spec distribution for primary inputs, forwarded
//! boundary marginal for boundary lines) and pushes both bit planes
//! through the segment's deterministic gates. With evidence only at the
//! roots, likelihood weighting degenerates to plain forward sampling —
//! every sample carries weight 1 — so the per-line histograms are
//! unbiased estimates of the exact posterior transition distributions.
//!
//! The loop is **anytime and budget-aware**: batches run until the
//! Burch/Najm normal-approximation confidence interval on the segment's
//! mean gate switching activity is within
//! [`Options::ci_half_width`](crate::Options::ci_half_width) (the same
//! [`StoppingRule`] the Monte-Carlo simulator uses), the remaining
//! propagate-stage deadline is spent, or the internal batch cap is hit —
//! whichever comes first — and the best estimate so far is returned with
//! an [`AccuracyReport`] attached to the posterior.
//!
//! Determinism: every segment samples from its own splitmix64 stream
//! whose seed is a pure function of [`Options::seed`](crate::Options)
//! and the segment's content (computed at compile time and persisted in
//! the artifact), so results are bit-identical across job counts and
//! warm/cold artifact loads whenever the stop is convergence- or
//! cap-driven. Deadline stops are inherently timing-dependent — that is
//! the anytime trade-off, and `converged: false` in the report flags it.

use std::time::Instant;

use swact_circuit::{GateKind, LineId};
use swact_sim::StoppingRule;

use crate::estimator::Options;
use crate::faults;
use crate::pipeline::backend::{RootDists, SegmentArtifact, SegmentPosterior, SegmentStats};
use crate::pipeline::model::SegmentModel;
use crate::report::AccuracyReport;
use crate::segment::RootSource;
use crate::{EstimateError, TransitionDist};

/// Samples drawn per batch; batch means feed the stopping rule.
pub(crate) const SAMPLES_PER_BATCH: usize = 512;
/// Hard cap on batches per segment, so unconverged segments terminate.
pub(crate) const MAX_BATCHES: usize = 256;

/// The sampling artifact of one segment: anytime forward sampling over
/// the 4-state LIDAG with a deterministic seeded stream and per-segment
/// confidence intervals.
pub(crate) struct SamplingSegment {
    /// Roots in model order: line and where its prior comes from.
    pub(crate) roots: Vec<(LineId, RootSource)>,
    /// Gates in topological order: output line, kind, input lines
    /// (duplicates preserved — `GateKind::eval` handles them).
    pub(crate) gates: Vec<(LineId, GateKind, Vec<LineId>)>,
    /// Scratch-buffer size: max line index touched, plus one.
    pub(crate) num_lines: usize,
    /// Per-segment sampling stream seed, derived from `Options::seed`
    /// and the segment content at compile time (persisted, so warm
    /// loads replay the identical stream).
    pub(crate) stream_seed: u64,
    /// Absolute confidence half-width target on mean gate switching.
    pub(crate) ci_half_width: f64,
    /// z-score of the confidence level.
    pub(crate) ci_z: f64,
}

/// The splitmix64 generator: tiny, fast, and fully deterministic — the
/// sampler's only randomness source, so `swact` needs no RNG dependency.
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// FNV-1a over a stream of words — the segment-content hash the stream
/// seed is derived from.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Derives the per-segment stream seed from the base seed and the
/// segment's structural content (roots and gate wiring). Content-keyed,
/// not index-keyed, so replanning unrelated segments never perturbs this
/// segment's stream.
fn stream_seed(options_seed: u64, model: &SegmentModel) -> u64 {
    let mut words: Vec<u64> = vec![options_seed];
    for (line, _, source) in &model.solo_roots {
        words.push(line.index() as u64);
        words.push(match source {
            RootSource::PrimaryInput(pos) => 1 + *pos as u64,
            RootSource::Boundary => 0,
        });
    }
    for (line, kind, inputs) in &model.gate_defs {
        words.push(line.index() as u64);
        words.push(gate_kind_tag(*kind));
        for input in inputs {
            words.push(input.index() as u64);
        }
    }
    fnv1a(words)
}

/// Stable numeric tag per gate kind for hashing (independent of enum
/// layout or `Debug` formatting).
fn gate_kind_tag(kind: GateKind) -> u64 {
    match kind {
        GateKind::And => 0,
        GateKind::Nand => 1,
        GateKind::Or => 2,
        GateKind::Nor => 3,
        GateKind::Xor => 4,
        GateKind::Xnor => 5,
        GateKind::Not => 6,
        GateKind::Buf => 7,
        GateKind::Const0 => 8,
        GateKind::Const1 => 9,
    }
}

/// Draws a transition index from a 4-state distribution by CDF walk.
fn draw(dist: &[f64; 4], u: f64) -> usize {
    let mut acc = 0.0;
    for (k, &p) in dist.iter().enumerate().take(3) {
        acc += p;
        if u < acc {
            return k;
        }
    }
    3
}

/// Compiles a segment model into its sampling plan.
pub(crate) fn compile(
    model: &SegmentModel,
    options: &Options,
) -> Result<(SegmentArtifact, SegmentStats), EstimateError> {
    if model.needs_pairwise() {
        return Err(EstimateError::BackendUnsupported {
            backend: "sampling",
            feature: "in-segment pairwise conditioning",
        });
    }
    let roots: Vec<(LineId, RootSource)> = model
        .solo_roots
        .iter()
        .map(|&(line, _, source)| (line, source))
        .collect();
    let gates = model.gate_defs.clone();
    let num_lines = roots
        .iter()
        .map(|(l, _)| l.index())
        .chain(gates.iter().map(|(l, _, _)| l.index()))
        .chain(
            gates
                .iter()
                .flat_map(|(_, _, inputs)| inputs.iter().map(|l| l.index())),
        )
        .max()
        .map_or(0, |m| m + 1);
    let n_vars = (roots.len() + gates.len()) as f64;
    let stats = SegmentStats {
        // Backend-native units: 4-state variables sampled per pass.
        total_states: 4.0 * n_vars,
        max_clique_states: 4.0,
        nnz: 0,
        state_space: 0,
        compressed_cliques: 0,
        // One sweep evaluates every gate once per sample.
        kernel_cost: gates.len() * SAMPLES_PER_BATCH,
    };
    let artifact = SamplingSegment {
        stream_seed: stream_seed(options.seed, model),
        roots,
        gates,
        num_lines,
        ci_half_width: options.ci_half_width,
        ci_z: options.ci_z,
    };
    Ok((SegmentArtifact::Sampling(artifact), stats))
}

/// Samples batches until the stopping rule, the deadline, or the batch
/// cap ends the run, and returns the per-gate histograms with their
/// accuracy report.
pub(crate) fn propagate(art: &SamplingSegment, roots: &RootDists<'_>) -> SegmentPosterior {
    let n_gates = art.gates.len();
    if n_gates == 0 {
        return SegmentPosterior {
            accuracy: Some(AccuracyReport {
                half_width: 0.0,
                z: art.ci_z,
                samples: 0,
                converged: true,
            }),
            ..SegmentPosterior::default()
        };
    }
    // Resolve each root's 4-state prior once per propagation.
    let root_dists: Vec<(LineId, [f64; 4])> = art
        .roots
        .iter()
        .map(|&(line, source)| {
            let dist = match source {
                RootSource::PrimaryInput(pos) => {
                    let row = roots.spec.prior_row(pos);
                    [row[0], row[1], row[2], row[3]]
                }
                RootSource::Boundary => roots.dists[line.index()].as_array(),
            };
            (line, dist)
        })
        .collect();

    let mut prev = vec![false; art.num_lines];
    let mut next = vec![false; art.num_lines];
    let mut counts: Vec<[u64; 4]> = vec![[0; 4]; n_gates];
    let mut rule = StoppingRule::new(art.ci_z);
    let deadline = roots.deadline;
    let mut converged = false;
    for batch in 0..MAX_BATCHES {
        // Anytime stop: once the remaining propagate-stage deadline
        // is spent, return the best estimate so far. Checked before
        // each batch, so the loop overshoots by at most one batch —
        // and always runs the first, so there is always an estimate.
        if batch > 0 {
            if let Some(deadline) = deadline {
                if Instant::now() >= deadline {
                    break;
                }
            }
        }
        faults::hit("pipeline:sample:batch", Some(batch));
        let mut rng = SplitMix64::new(
            art.stream_seed
                .wrapping_add((batch as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        );
        let mut batch_switches = 0u64;
        for _ in 0..SAMPLES_PER_BATCH {
            for (line, dist) in &root_dists {
                let k = draw(dist, rng.next_f64());
                prev[line.index()] = k >> 1 == 1;
                next[line.index()] = k & 1 == 1;
            }
            for (g, (line, kind, inputs)) in art.gates.iter().enumerate() {
                let p = kind.eval(inputs.iter().map(|l| prev[l.index()]));
                let n = kind.eval(inputs.iter().map(|l| next[l.index()]));
                prev[line.index()] = p;
                next[line.index()] = n;
                let k = (p as usize) << 1 | n as usize;
                counts[g][k] += 1;
                batch_switches += u64::from(p != n);
            }
        }
        rule.push(batch_switches as f64 / (SAMPLES_PER_BATCH * n_gates) as f64);
        if rule.within_absolute(art.ci_half_width) {
            converged = true;
            break;
        }
    }
    let total = (rule.len() * SAMPLES_PER_BATCH) as f64;
    let gate_dists: Vec<(LineId, TransitionDist)> = art
        .gates
        .iter()
        .zip(&counts)
        .map(|(&(line, _, _), c)| {
            (
                line,
                TransitionDist::new([
                    c[0] as f64 / total,
                    c[1] as f64 / total,
                    c[2] as f64 / total,
                    c[3] as f64 / total,
                ]),
            )
        })
        .collect();
    let mut posterior = SegmentPosterior::from_gate_dists(gate_dists);
    posterior.accuracy = Some(AccuracyReport {
        half_width: rule.half_width(),
        z: art.ci_z,
        samples: rule.len() as u64 * SAMPLES_PER_BATCH as u64,
        converged,
    });
    posterior
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_uniformish() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let mut sum = 0.0;
        for _ in 0..1000 {
            let x = a.next_f64();
            assert_eq!(x.to_bits(), b.next_f64().to_bits());
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        assert!((sum / 1000.0 - 0.5).abs() < 0.05);
    }

    #[test]
    fn draw_walks_the_cdf() {
        let d = [0.25, 0.25, 0.25, 0.25];
        assert_eq!(draw(&d, 0.0), 0);
        assert_eq!(draw(&d, 0.3), 1);
        assert_eq!(draw(&d, 0.6), 2);
        assert_eq!(draw(&d, 0.99), 3);
        // Degenerate distributions always land on the support.
        assert_eq!(draw(&[0.0, 0.0, 0.0, 1.0], 0.5), 3);
        assert_eq!(draw(&[1.0, 0.0, 0.0, 0.0], 0.5), 0);
    }

    #[test]
    fn stream_seed_is_content_sensitive() {
        // Different base seeds give different streams for the same words.
        assert_ne!(fnv1a([1, 2, 3]), fnv1a([1, 2, 4]));
        assert_ne!(fnv1a([0]), fnv1a([1]));
    }
}
