//! Seeded workload inputs: circuits, input statistics, sweeps and arrival
//! times. Everything the program receives is made here from `--seed`.
//!
//! Circuits keep the graph of the catalog's `benchgen` instance of each
//! shape and draw every gate's function from the seed, within its family
//! (AND/NAND/OR/NOR, XOR/XNOR, NOT/BUF). Segmentation, junction trees and
//! kernel cost depend only on the graph, so each seed yields new
//! circuits — new switching values, new model keys, nothing any cache has
//! seen — whose compile and propagation cost matches every other seed's.
//! Drawing the graph itself from the seed moves propagation cost by up to
//! 5x between seeds of one shape, which no run length could average out.

use swact::InputSpec;
use swact_circuit::{catalog, Circuit, CircuitBuilder, GateKind};

/// SplitMix64: small, seedable and stable across releases.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for one purpose (`tag`) and index, independent of every
    /// other stream derived from the same seed.
    pub fn derive(seed: u64, tag: &str, index: u64) -> Rng {
        let mut fnv = crate::stats::Fnv::default();
        fnv.bytes(tag.as_bytes());
        let mut r = Rng(seed ^ fnv.finish() ^ index.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n` ≥ 1).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Shapes compiled by `cold`: mid-size circuits, so one op is short enough
/// for a tail percentile at a ten-second run.
pub const COLD_SHAPES: [&str; 3] = ["c432", "c880", "alu2"];
/// Shapes precompiled by `update` and `sweep`: Table 1's corpus, with
/// c6288 (the planner's worst case) and c7552 (the largest circuit).
pub const CORPUS_SHAPES: [&str; 5] = ["c432", "c880", "alu2", "c6288", "c7552"];
/// Shapes served by `serve`.
pub const SERVE_SHAPES: [&str; 3] = ["c432", "c880", "alu2"];

/// The circuit of catalog shape `shape` with gate functions drawn from
/// `(seed, index)`.
///
/// # Panics
///
/// Panics if `shape` is not a catalog benchmark.
pub fn circuit(shape: &str, seed: u64, index: u64) -> Circuit {
    let base = catalog::benchmark(shape).expect("workload shapes are catalog benchmarks");
    let mut rng = Rng::derive(seed, shape, index);
    let mut b = CircuitBuilder::new(format!("{shape}_{seed}_{index}"));
    for &input in base.inputs() {
        b.input(base.line_name(input))
            .expect("catalog line names are unique");
    }
    // benchgen declares every line after its fan-in, so line order is a
    // topological order and the copy keeps the catalog's line numbering.
    for line in base.line_ids() {
        let Some(gate) = base.gate(line) else {
            continue;
        };
        use GateKind::*;
        // Within a family only, so no gate turns constant: benchgen gives
        // XOR/XNOR distinct inputs but may repeat an AND-family input.
        let family: &[GateKind] = match gate.kind {
            And | Nand | Or | Nor => &[And, Nand, Or, Nor],
            Xor | Xnor => &[Xor, Xnor],
            Not | Buf => &[Not, Buf],
            Const0 | Const1 => &[Const0, Const1],
        };
        let kind = family[rng.below(family.len())];
        let inputs: Vec<&str> = gate.inputs.iter().map(|&l| base.line_name(l)).collect();
        b.gate(base.line_name(line), kind, &inputs)
            .expect("catalog line names are unique");
    }
    for &output in base.outputs() {
        b.output(base.line_name(output))
            .expect("outputs are declared lines");
    }
    b.finish()
        .expect("relabelling keeps the catalog graph valid")
}

/// A signal probability in `[0.05, 0.95]` on a 1/1024 grid, so it prints
/// and parses back exactly.
pub fn p1(rng: &mut Rng) -> f64 {
    (51.0 + rng.below(922) as f64) / 1024.0
}

/// Independent inputs with every p1 drawn from `rng`.
pub fn random_p1s(rng: &mut Rng, inputs: usize) -> Vec<f64> {
    (0..inputs).map(|_| p1(rng)).collect()
}

pub fn spec(p1s: &[f64]) -> InputSpec {
    InputSpec::independent(p1s.iter().copied())
}

/// Number of lines in each primary input's transitive fan-out cone — the
/// part of the circuit a change to that input's statistics dirties.
fn fanout_cone_sizes(circuit: &Circuit) -> Vec<usize> {
    let fanouts = circuit.fanouts();
    circuit
        .inputs()
        .iter()
        .map(|&input| {
            let mut seen = vec![false; circuit.num_lines()];
            let mut stack = vec![input];
            let mut count = 0;
            while let Some(line) = stack.pop() {
                if std::mem::replace(&mut seen[line.index()], true) {
                    continue;
                }
                count += 1;
                stack.extend(fanouts[line.index()].iter().copied());
            }
            count
        })
        .collect()
}

/// One swept input per sweep. Inputs are ranked by fan-out cone size and
/// cut into `sweeps` strata; sweep `j` takes the middle input of stratum
/// `j`, and the seed orders the sweeps. How much a point costs depends on
/// which input moves, so a seeded pick within each stratum moved the
/// median op 16% between seeds; the fixed picks keep the cost mix of every
/// seed the same while the seed still draws the circuit functions, base
/// statistics, ramps and order.
pub fn swept_inputs(circuit: &Circuit, sweeps: usize, rng: &mut Rng) -> Vec<usize> {
    let cones = fanout_cone_sizes(circuit);
    let mut ranked: Vec<usize> = (0..cones.len()).collect();
    ranked.sort_by_key(|&i| (cones[i], i));
    let n = ranked.len();
    let mut picks: Vec<usize> = (0..sweeps)
        .map(|j| ranked[((2 * j + 1) * n / (2 * sweeps)).min(n - 1)])
        .collect();
    for i in (1..picks.len()).rev() {
        picks.swap(i, rng.below(i + 1));
    }
    picks
}

/// Due times (seconds from the start) of `n` Poisson arrivals at `rate`
/// per second.
pub fn poisson_arrivals(rng: &mut Rng, rate: f64, n: usize) -> Vec<f64> {
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.unit()).ln() / rate;
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn same_circuit(a: &Circuit, b: &Circuit) -> bool {
        a.num_lines() == b.num_lines()
            && a.line_ids()
                .all(|l| a.line_name(l) == b.line_name(l) && a.gate(l) == b.gate(l))
    }

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        assert!(same_circuit(&circuit("c432", 7, 3), &circuit("c432", 7, 3)));
        assert!(!same_circuit(
            &circuit("c432", 7, 3),
            &circuit("c432", 8, 3)
        ));
        assert!(!same_circuit(
            &circuit("c432", 7, 3),
            &circuit("c432", 7, 4)
        ));

        let draw = |seed| random_p1s(&mut Rng::derive(seed, "update", 0), 36);
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));

        let arrivals = |seed| poisson_arrivals(&mut Rng::derive(seed, "arrivals", 0), 40.0, 50);
        assert_eq!(arrivals(7), arrivals(7));
        assert_ne!(arrivals(7), arrivals(8));

        let c = circuit("c880", 7, 0);
        let sweeps = |seed| swept_inputs(&c, 8, &mut Rng::derive(seed, "sweep", 0));
        assert_eq!(sweeps(7), sweeps(7));
        assert_ne!(sweeps(7), sweeps(8));
    }

    #[test]
    fn relabelling_keeps_the_graph() {
        let base = catalog::benchmark("alu2").unwrap();
        let c = circuit("alu2", 1, 0);
        assert_eq!(c.num_inputs(), base.num_inputs());
        assert_eq!(c.num_outputs(), base.num_outputs());
        let fanin = |c: &Circuit, name: &str| -> Vec<String> {
            let line = c.find_line(name).unwrap();
            c.gate(line).map_or_else(Vec::new, |g| {
                g.inputs
                    .iter()
                    .map(|&l| c.line_name(l).to_string())
                    .collect()
            })
        };
        for line in base.line_ids() {
            let name = base.line_name(line);
            assert_eq!(fanin(&c, name), fanin(&base, name));
        }
    }

    #[test]
    fn draws_stay_in_range() {
        let mut rng = Rng::derive(3, "test", 0);
        for _ in 0..1000 {
            let p = p1(&mut rng);
            assert!((0.049..=0.951).contains(&p));
        }
        let times = poisson_arrivals(&mut rng, 40.0, 400);
        assert!(times.windows(2).all(|w| w[0] < w[1]));
        let mean_gap = times[399] / 400.0;
        assert!((0.02..0.03).contains(&mean_gap), "mean gap {mean_gap}");
        let c = circuit("c432", 1, 0);
        let picks = swept_inputs(&c, 8, &mut rng);
        assert_eq!(picks.len(), 8);
        assert!(picks.iter().all(|&i| i < c.num_inputs()));
    }
}
