//! Property tests for [`SegmentationPlan`] over randomly generated
//! netlists: whatever the budget, the plan must cover every gate exactly
//! once, give every root a valid provenance, and order segments (and
//! gates within them) topologically. The default plans of the Table 1
//! circuits and one budget replan are pinned by fingerprint.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;
use swact::{RootSource, SegmentationPlan};
use swact_bayesnet::Heuristic;
use swact_circuit::benchgen::{generate, GeneratorConfig};
use swact_circuit::decompose::decompose_fanin;

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
        let circuit = generate(&GeneratorConfig {
            name: "prop",
            inputs,
            outputs: 1 + gates % 3,
            gates,
            seed,
            locality,
            max_fanin: 4,
        });
        // The planner operates on the fan-in-decomposed working circuit,
        // exactly as the pipeline prepares it.
        let working = decompose_fanin(&circuit, 4).unwrap();
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

/// Default-option plans of all 19 Table 1 circuits under both strategies,
/// pinned segment by segment: a planner change (a faster triangulation, a
/// cached moral graph) must leave every segment's gates and roots exactly
/// where they were. Columns: circuit, TopoCover, BalancedCut.
#[test]
fn default_plans_of_table1_circuits_are_pinned() {
    use swact::{Options, SegmentationStrategy};
    use swact_circuit::catalog;

    const PINS: [(&str, u64, u64); 19] = [
        ("c17", 0xdf8d368590bd0151, 0xdf8d368590bd0151),
        ("c432", 0xc6613b01f3d54f1d, 0x83f2c3981895c3d5),
        ("c499", 0x5ad1742cc3c98d19, 0x9639ac788ad0fac3),
        ("c880", 0x6d6f6c73542eba2c, 0x3d5f5c10fe1133f6),
        ("c1355", 0x11484bf5a09fb1a1, 0x32e1b47fcec45788),
        ("c1908", 0x6aa1be31c18273a6, 0x5b2f86b3515d922d),
        ("c2670", 0x0301c69ab5919df1, 0x1cebcffe26ce92e3),
        ("c3540", 0xc8d986e880bb8310, 0xeb8ae6d1756afe68),
        ("c5315", 0xa6596354898c6544, 0x5131883aee495465),
        ("c6288", 0xc44b97750385b838, 0x5ac6ab3b55a38387),
        ("c7552", 0x68884dc5e573ae83, 0x3299e221bb7cd31e),
        ("alu2", 0x698bf92440ef0fdc, 0xd016e8647045f9dd),
        ("malu4", 0xe86572d02520e7c5, 0x2a5f0b944e03072f),
        ("max_flat", 0xa2f65cdc4fe6fa85, 0xbcc93cb274b51a2f),
        ("voter", 0x914ce5d3b23e17df, 0xe242b5c4714725ab),
        ("b9", 0xdfc7b17af33c0a1b, 0x765f0dd579e19848),
        ("count", 0xa76ac03e0d3a0715, 0x7390504d65c578e3),
        ("comp", 0x9fdf406e214e9cd5, 0x28fc16a6aaa7d4b8),
        ("pcler8", 0x0b4c465ab7b8b016, 0x408384b20f97fec2),
    ];
    let options = Options::default();
    let mut got = Vec::new();
    for info in catalog::BENCHMARKS {
        let circuit = catalog::benchmark(info.name).unwrap();
        let working = decompose_fanin(&circuit, options.max_fanin.max(2)).unwrap();
        let [topo, cut] = [
            SegmentationStrategy::TopoCover,
            SegmentationStrategy::BalancedCut,
        ]
        .map(|strategy| {
            plan_fingerprint(&SegmentationPlan::plan_with(
                &working,
                4,
                options.segment_budget,
                options.check_interval,
                options.heuristic,
                strategy,
            ))
        });
        got.push((info.name, topo, cut));
    }
    let table: String = got
        .iter()
        .map(|(name, topo, cut)| format!("        (\"{name}\", {topo:#018x}, {cut:#018x}),\n"))
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
