//! Triangulation heuristics on LIDAG moral graphs (ablation A1's cost
//! side), plus the planner's own workload: one segment-sized moral graph
//! triangulated once per budget check. The `junction` group times a whole
//! junction-tree compile of the largest segment models against the
//! moralize-and-triangulate part of it; the difference is the tree's
//! assembly (spanning forest, home and CPT cliques).

use criterion::{criterion_group, criterion_main, Criterion};
use swact::pipeline::{PlannedCircuit, SegmentModel};
use swact::{InputSpec, Lidag, Options, SegmentationPlan};
use swact_bayesnet::graph::{moral_graph, UndirectedGraph};
use swact_bayesnet::triangulate::{triangulate, Heuristic};
use swact_bayesnet::JunctionTree;
use swact_circuit::catalog;
use swact_circuit::decompose::decompose_fanin;

fn bench_triangulate(c: &mut Criterion) {
    let mut group = c.benchmark_group("triangulate");
    group.sample_size(10);
    for name in ["c17", "c432", "count"] {
        let circuit = catalog::benchmark(name).expect("known");
        let spec = InputSpec::uniform(circuit.num_inputs());
        let lidag = Lidag::build(&circuit, &spec, 4).expect("builds");
        let moral = moral_graph(lidag.net());
        let cards = lidag.net().cards();
        for (label, heuristic) in [
            ("min_fill", Heuristic::MinFill),
            ("min_degree", Heuristic::MinDegree),
        ] {
            group.bench_function(format!("{name}/{label}"), |b| {
                b.iter(|| triangulate(&moral, &cards, heuristic))
            });
        }
    }
    let (moral, cards) = planner_segment_graph("c6288");
    group.bench_function("c6288_segment/min_fill", |b| {
        b.iter(|| triangulate(&moral, &cards, Heuristic::MinFill))
    });
    group.finish();
}

fn bench_junction(c: &mut Criterion) {
    let mut group = c.benchmark_group("junction");
    group.sample_size(20);
    for name in ["c6288", "c7552"] {
        let model = largest_segment_model(name);
        let net = model.net();
        let cards = net.cards();
        group.bench_function(format!("{name}_segment/compile_with"), |b| {
            b.iter(|| JunctionTree::compile_with(net, Heuristic::MinFill).expect("compiles"))
        });
        group.bench_function(format!("{name}_segment/triangulate"), |b| {
            b.iter(|| triangulate(&moral_graph(net), &cards, Heuristic::MinFill))
        });
    }
    group.finish();
}

/// The default plan's segment model with the most variables in `name`,
/// built as the pipeline builds it when the segment forwards plain
/// boundary marginals.
fn largest_segment_model(name: &str) -> SegmentModel {
    let options = Options::default();
    let circuit = catalog::benchmark(name).expect("known");
    let planned = PlannedCircuit::new(&circuit, &options).expect("plans");
    (0..planned.num_segments())
        .map(|i| SegmentModel::build(&planned, i, 0).expect("segment model"))
        .max_by_key(|model| model.net().num_vars())
        .expect("a plan has segments")
}

/// The moral graph (card 4) of the first segment the default planner cuts
/// from `name`: the graph size the planner triangulates at every budget
/// check, at the default 2¹⁷-state budget.
fn planner_segment_graph(name: &str) -> (UndirectedGraph, Vec<usize>) {
    let options = Options::default();
    let circuit = catalog::benchmark(name).expect("known");
    let working = decompose_fanin(&circuit, options.max_fanin).expect("decomposes");
    let plan = SegmentationPlan::plan(
        &working,
        4,
        options.segment_budget,
        SegmentationPlan::CHECK_INTERVAL,
        Heuristic::MinFill,
    );
    let segment = &plan.segments()[0];
    let mut local = std::collections::HashMap::new();
    let mut moral = UndirectedGraph::new(0);
    let mut index = |line| *local.entry(line).or_insert_with(|| moral.add_node());
    let families: Vec<Vec<usize>> = segment
        .gates
        .iter()
        .map(|&gate| {
            let inputs = &working.gate(gate).expect("gate line").inputs;
            inputs.iter().chain([&gate]).map(|&l| index(l)).collect()
        })
        .collect();
    for family in families {
        for (i, &a) in family.iter().enumerate() {
            for &b in &family[i + 1..] {
                moral.add_edge(a, b);
            }
        }
    }
    let cards = vec![4; moral.num_nodes()];
    (moral, cards)
}

criterion_group!(benches, bench_triangulate, bench_junction);
criterion_main!(benches);
