//! Property tests for [`SegmentationPlan`] over randomly generated
//! netlists: whatever the budget, the plan must cover every gate exactly
//! once, give every root a valid provenance, order segments (and gates
//! within them) topologically, and cut each segment at an over-budget
//! checkpoint whose predecessor is within budget. The default plans of
//! the Table 1 circuits and one budget replan are pinned by fingerprint.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;
use swact::{RootSource, SegmentationPlan};
use swact_bayesnet::graph::UndirectedGraph;
use swact_bayesnet::triangulate::estimate_cost;
use swact_bayesnet::Heuristic;
use swact_circuit::benchgen::{generate, GeneratorConfig};
use swact_circuit::decompose::decompose_fanin;
use swact_circuit::{Circuit, LineId};

/// A random netlist, fan-in decomposed exactly as the pipeline prepares
/// the circuit it plans.
fn working_circuit(inputs: usize, gates: usize, seed: u64, locality: f64) -> Circuit {
    let circuit = generate(&GeneratorConfig {
        name: "prop",
        inputs,
        outputs: 1 + gates % 3,
        gates,
        seed,
        locality,
        max_fanin: 4,
    });
    decompose_fanin(&circuit, 4).unwrap()
}

/// The planner's budget-check figure for a segment of exactly `gates`:
/// the min-fill state estimate (card 4) of its LIDAG's moral graph, with
/// local indices in first-use order as the planner numbers them.
fn segment_cost(circuit: &Circuit, gates: &[LineId]) -> f64 {
    let mut local: HashMap<LineId, usize> = HashMap::new();
    let mut moral = UndirectedGraph::new(0);
    for &gate in gates {
        let mut family = Vec::new();
        for &line in circuit.gate(gate).unwrap().inputs.iter().chain([&gate]) {
            let index = *local.entry(line).or_insert_with(|| moral.add_node());
            family.push(index);
        }
        for (i, &a) in family.iter().enumerate() {
            for &b in &family[i + 1..] {
                moral.add_edge(a, b);
            }
        }
    }
    estimate_cost(&moral, &vec![4; moral.num_nodes()], Heuristic::MinFill)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn plans_are_exact_covers_with_valid_roots(
        inputs in 3usize..9,
        gates in 8usize..60,
        seed in 0u64..1_000_000,
        locality in 0.3f64..1.0,
        budget_bits in 6u32..16,
        check_interval in 1usize..6,
    ) {
        let working = working_circuit(inputs, gates, seed, locality);
        let plan = SegmentationPlan::plan(
            &working,
            4,
            1usize << budget_bits,
            check_interval,
            Heuristic::MinFill,
        );

        // 1. Every gate of the working circuit in exactly one segment.
        let mut seen_gates = HashSet::new();
        for seg in plan.segments() {
            for &g in &seg.gates {
                prop_assert!(working.gate(g).is_some(), "root listed as gate");
                prop_assert!(seen_gates.insert(g), "gate {g:?} appears twice");
            }
        }
        prop_assert_eq!(seen_gates.len(), working.num_gates());

        // 2. Root provenance: a PrimaryInput root names its PI position; a
        //    Boundary root was produced as a gate of an EARLIER segment.
        let mut produced_in: HashMap<_, usize> = HashMap::new();
        for (idx, seg) in plan.segments().iter().enumerate() {
            for &g in &seg.gates {
                produced_in.insert(g, idx);
            }
        }
        for (idx, seg) in plan.segments().iter().enumerate() {
            let root_lines: HashSet<_> = seg.roots.iter().map(|&(l, _)| l).collect();
            prop_assert_eq!(root_lines.len(), seg.roots.len(), "duplicate roots");
            for &(line, source) in &seg.roots {
                match source {
                    RootSource::PrimaryInput(pos) => {
                        prop_assert_eq!(working.inputs()[pos], line);
                    }
                    RootSource::Boundary => {
                        let producer = produced_in.get(&line);
                        prop_assert!(
                            matches!(producer, Some(&p) if p < idx),
                            "boundary root {line:?} of segment {idx} produced in {producer:?}"
                        );
                    }
                }
            }

            // 3. Topological order inside the segment: every gate's inputs
            //    are segment roots or earlier gates of the same segment.
            let mut available = root_lines;
            for &g in &seg.gates {
                for &input in &working.gate(g).unwrap().inputs {
                    prop_assert!(
                        available.contains(&input),
                        "gate {g:?} reads {input:?} before it is available"
                    );
                }
                available.insert(g);
            }
        }

        // 4. The boundary-root count accessor agrees with the segments.
        let boundary: usize = plan
            .segments()
            .iter()
            .flat_map(|s| &s.roots)
            .filter(|(_, src)| *src == RootSource::Boundary)
            .count();
        prop_assert_eq!(plan.boundary_roots(), boundary);
    }

    #[test]
    fn every_cut_is_a_first_budget_trip(
        inputs in 3usize..9,
        gates in 8usize..80,
        seed in 0u64..1_000_000,
        locality in 0.3f64..1.0,
        budget_bits in 6u32..16,
        check_interval in 1usize..=6,
    ) {
        let working = working_circuit(inputs, gates, seed, locality);
        let budget = 1usize << budget_bits;
        let plan = SegmentationPlan::plan(
            &working,
            4,
            budget,
            check_interval,
            Heuristic::MinFill,
        );
        // A segment trips the budget when its estimate is over it; a
        // one-gate segment never closes.
        let trips = |gates: &[LineId]| {
            gates.len() > 1 && segment_cost(&working, gates) > budget as f64
        };
        let costs = plan.estimated_costs(&working, 4, Heuristic::MinFill);
        let last = plan.segments().len() - 1;
        for (idx, seg) in plan.segments().iter().enumerate() {
            let len = seg.gates.len();
            prop_assert_eq!(
                segment_cost(&working, &seg.gates).to_bits(),
                costs[idx].to_bits(),
                "segment {} cost disagrees with the planner's", idx
            );
            // A cut segment ends on a checkpoint that trips while the
            // checkpoint before it (if any) does not.
            let cut = len % check_interval == 0
                && trips(&seg.gates)
                && (len == check_interval || !trips(&seg.gates[..len - check_interval]));
            if idx < last {
                prop_assert!(cut, "segment {} ({} gates) is not cut at a first trip", idx, len);
            } else if !cut {
                // The final segment's last full checkpoint is within budget.
                let full = len - len % check_interval;
                prop_assert!(
                    full == 0 || !trips(&seg.gates[..full]),
                    "final segment ({} gates) trips at its checkpoint {}", len, full
                );
            }
        }
    }
}

/// FNV-1a over `words`.
fn fnv64(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in words {
        for byte in word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Fingerprint of every segment's `(gates, roots)`, in plan order.
fn plan_fingerprint(plan: &SegmentationPlan) -> u64 {
    let mut words = Vec::new();
    for seg in plan.segments() {
        words.push(u64::MAX);
        words.push(seg.gates.len() as u64);
        words.extend(seg.gates.iter().map(|g| g.index() as u64));
        words.push(seg.roots.len() as u64);
        for &(line, source) in &seg.roots {
            words.push(line.index() as u64);
            words.push(match source {
                RootSource::PrimaryInput(pos) => pos as u64,
                RootSource::Boundary => u64::MAX - 1,
            });
        }
    }
    fnv64(words)
}

/// Default-option plans of all 19 Table 1 circuits, pinned segment by
/// segment: a planner change (a faster triangulation, a cached moral
/// graph) must leave every segment's gates and roots exactly where they
/// were.
///
/// c3540 moved once, when each cut came to be found by exponential search
/// instead of checking every checkpoint in turn, because its estimated
/// cost is not monotone in segment length there. Its segment 18 (counted
/// from 0, after the 18 segments both planners share) costs 111 008
/// states at checkpoint 15, 132 640 at checkpoint 16, then 120 800 and
/// 121 440 at checkpoints 17 and 18 and 133 920 at 19, against the
/// 131 072-state budget. Checking every checkpoint cut at the lone trip at
/// checkpoint 16 (64 gates). The search starts at checkpoint 18, where
/// segment 17 was cut, finds it within budget and 19 over, and cuts at 19
/// (76 gates) without probing 16. The later segments then start elsewhere, and the plan has
/// 27 segments instead of 28.
#[test]
fn default_plans_of_table1_circuits_are_pinned() {
    use swact::Options;
    use swact_circuit::catalog;

    const PINS: [(&str, u64); 19] = [
        ("c17", 0xdf8d368590bd0151),
        ("c432", 0xc6613b01f3d54f1d),
        ("c499", 0x5ad1742cc3c98d19),
        ("c880", 0x6d6f6c73542eba2c),
        ("c1355", 0x11484bf5a09fb1a1),
        ("c1908", 0x6aa1be31c18273a6),
        ("c2670", 0x0301c69ab5919df1),
        ("c3540", 0x45f01d93d6ef0401),
        ("c5315", 0xa6596354898c6544),
        ("c6288", 0xc44b97750385b838),
        ("c7552", 0x68884dc5e573ae83),
        ("alu2", 0x698bf92440ef0fdc),
        ("malu4", 0xe86572d02520e7c5),
        ("max_flat", 0xa2f65cdc4fe6fa85),
        ("voter", 0x914ce5d3b23e17df),
        ("b9", 0xdfc7b17af33c0a1b),
        ("count", 0xa76ac03e0d3a0715),
        ("comp", 0x9fdf406e214e9cd5),
        ("pcler8", 0x0b4c465ab7b8b016),
    ];
    let options = Options::default();
    let mut got = Vec::new();
    for info in catalog::BENCHMARKS {
        let circuit = catalog::benchmark(info.name).unwrap();
        let working = decompose_fanin(&circuit, options.max_fanin.max(2)).unwrap();
        let plan = SegmentationPlan::plan(
            &working,
            4,
            options.segment_budget,
            SegmentationPlan::CHECK_INTERVAL,
            options.heuristic,
        );
        got.push((info.name, plan_fingerprint(&plan)));
    }
    let table: String = got
        .iter()
        .map(|(name, pin)| format!("        (\"{name}\", {pin:#018x}),\n"))
        .collect();
    assert_eq!(got, PINS, "plans moved; new table:\n{table}");
}

/// A `--budget-states` compile replans over-budget segments into
/// sub-segments. Pinned: the final segment, sampled-segment and
/// boundary-root counts, the compiled state space, and every degradation
/// report (segment, cause with its admission estimate, fallback with its
/// sub-segment count).
#[test]
fn budget_states_replan_is_pinned() {
    use swact::{Budget, CompiledEstimator, Fallback, Options};
    use swact_circuit::catalog;

    let circuit = catalog::benchmark("c432").unwrap();
    let options = Options::with_resource_budget(Budget::states(256.0));
    let compiled = CompiledEstimator::compile(&circuit, &options).unwrap();
    assert!(compiled
        .degradations()
        .iter()
        .any(|d| matches!(d.fallback, Fallback::Replanned { .. })));
    let fingerprint = fnv64(
        [
            compiled.num_segments() as u64,
            compiled.sampled_segments() as u64,
            compiled.num_boundary_roots() as u64,
            compiled.total_states().to_bits(),
            compiled.max_clique_states().to_bits(),
        ]
        .into_iter()
        .chain(
            format!("{:?}", compiled.degradations())
                .bytes()
                .map(u64::from),
        ),
    );
    assert_eq!(
        fingerprint, 0xa135_2a2f_ebb7_8afb,
        "replan moved: {fingerprint:#018x}"
    );
}
