//! Design-choice ablations indexed in DESIGN.md:
//!
//! * `segmentation` (E6) — error/time vs segment budget, with and without
//!   boundary-correlation forwarding;
//! * `triangulation` (A1) — min-fill vs min-degree clique cost;
//! * `temporal` (A2) — four-state vs two-state variables under temporally
//!   correlated inputs;
//! * `correlation` (E5) — estimator ranking on reconvergence-heavy logic.
//!
//! ```text
//! cargo run -p swact-bench --release --bin ablation -- <which> [pairs]
//! ```

use swact::{Backend, ErrorStats, InputModel, InputSpec, Options};
use swact_baselines::{Independence, PairwiseCorrelation, SwitchingEstimator};
use swact_bayesnet::Heuristic;
use swact_bench::{ground_truth, GROUND_TRUTH_SEED};
use swact_circuit::catalog;
use swact_sim::{measure_activity, SignalModel, StreamModel};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let pairs = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1 << 19);
    match which.as_str() {
        "segmentation" => segmentation(pairs),
        "triangulation" => triangulation(),
        "temporal" => temporal(pairs),
        "correlation" => correlation(pairs),
        "all" => {
            segmentation(pairs);
            triangulation();
            temporal(pairs);
            correlation(pairs);
        }
        other => {
            eprintln!("unknown ablation `{other}`; use segmentation | triangulation | temporal | correlation | all");
            std::process::exit(2);
        }
    }
}

/// E6: segment-budget sweep, ± boundary-correlation forwarding.
fn segmentation(pairs: usize) {
    println!("== Ablation E6: segmentation budget (c432, c1908, alu2) ==");
    println!(
        "{:<8} {:>10} {:>5} {:>9} {:>9} {:>9} {:>10}",
        "circuit", "budget", "BNs", "µErr", "σErr", "compile_s", "update_s"
    );
    for name in ["c432", "c1908", "alu2"] {
        let circuit = catalog::benchmark(name).expect("known");
        let truth = ground_truth(&circuit, pairs);
        for budget in [1usize << 12, 1 << 14, 1 << 17, 1 << 20] {
            for boundary_correlation in [true, false] {
                let options = Options {
                    segment_budget: budget,
                    boundary_correlation,
                    ..Options::default()
                };
                let spec = InputSpec::uniform(circuit.num_inputs());
                let est = swact::estimate(&circuit, &spec, &options).expect("compiles");
                let stats = est.compare(&truth);
                println!(
                    "{:<8} {:>10} {:>5} {:>9.4} {:>9.4} {:>9.3} {:>10.4}  {}",
                    name,
                    budget,
                    est.num_segments(),
                    stats.mean_abs_error,
                    stats.std_error,
                    est.compile_time().as_secs_f64(),
                    est.propagate_time().as_secs_f64(),
                    if boundary_correlation {
                        "boundary-pairs"
                    } else {
                        "plain marginals (paper)"
                    },
                );
            }
        }
    }
    println!();
}

/// A1: triangulation heuristic quality on the benchmark moral graphs.
fn triangulation() {
    println!("== Ablation A1: triangulation heuristic (junction-tree states) ==");
    println!(
        "{:<10} {:>14} {:>14} {:>9}",
        "circuit", "min-fill", "min-degree", "ratio"
    );
    for name in ["c17", "c432", "c880", "count", "pcler8"] {
        let circuit = catalog::benchmark(name).expect("known");
        let spec = InputSpec::uniform(circuit.num_inputs());
        let lidag = swact::Lidag::build(&circuit, &spec, 4).expect("builds");
        let moral = swact_bayesnet::graph::moral_graph(lidag.net());
        let cards = lidag.net().cards();
        let fill = swact_bayesnet::triangulate::estimate_cost(&moral, &cards, Heuristic::MinFill);
        let degree =
            swact_bayesnet::triangulate::estimate_cost(&moral, &cards, Heuristic::MinDegree);
        println!(
            "{:<10} {:>14.3e} {:>14.3e} {:>9.3}",
            name,
            fill,
            degree,
            degree / fill
        );
    }
    println!();
}

/// A2: four-state vs two-state modeling under temporal correlation.
fn temporal(pairs: usize) {
    println!("== Ablation A2: temporal modeling (c432, correlated inputs) ==");
    println!(
        "{:<22} {:>9} {:>9} {:>9}",
        "input activity", "4-state µ", "2-state µ", "ratio"
    );
    let circuit = catalog::benchmark("c432").expect("known");
    for activity in [0.5, 0.3, 0.1, 0.05] {
        let spec = InputSpec::from_models(vec![
            InputModel::new(0.5, activity).expect("feasible");
            circuit.num_inputs()
        ]);
        let model = StreamModel {
            signals: vec![SignalModel::new(0.5, activity); circuit.num_inputs()],
            groups: Vec::new(),
        };
        let truth = measure_activity(&circuit, &model, pairs, GROUND_TRUTH_SEED).switching;
        let four = swact::estimate(&circuit, &spec, &Options::default()).expect("compiles");
        let four_stats = four.compare(&truth);
        let two = swact::estimate(&circuit, &spec, &Options::with_backend(Backend::TwoState))
            .expect("compiles");
        let two_stats = two.compare(&truth);
        println!(
            "{:<22} {:>9.4} {:>9.4} {:>9.2}",
            format!("P(sw)={activity}"),
            four_stats.mean_abs_error,
            two_stats.mean_abs_error,
            two_stats.mean_abs_error / four_stats.mean_abs_error.max(1e-9)
        );
    }
    println!("(4-state models temporal correlation; 2-state assumes 2p(1-p))");
    println!();
}

/// E5: ranking on reconvergence-heavy logic.
fn correlation(pairs: usize) {
    println!("== Ablation E5: reconvergent fan-out stress ==");
    println!(
        "{:<10} {:>12} {:>12} {:>12}",
        "branches", "BN µErr", "pairwise µ", "indep µ"
    );
    for branches in [1usize, 2, 4] {
        let circuit = swact_circuit::benchgen::reconvergent("stress", 8, branches, 77);
        let spec = InputSpec::uniform(8);
        let truth = ground_truth(&circuit, pairs);
        let bn = swact::estimate(&circuit, &spec, &Options::default()).expect("compiles");
        let bn_stats = bn.compare(&truth);
        let pw = PairwiseCorrelation::default()
            .estimate(&circuit, &spec)
            .expect("estimates");
        let pw_stats = ErrorStats::between(&pw, &truth);
        let ind = Independence.estimate(&circuit, &spec).expect("estimates");
        let ind_stats = ErrorStats::between(&ind, &truth);
        println!(
            "{:<10} {:>12.4} {:>12.4} {:>12.4}",
            branches, bn_stats.mean_abs_error, pw_stats.mean_abs_error, ind_stats.mean_abs_error
        );
    }
    println!("(all branches share all inputs; higher-order correlation grows with branches)");
    println!();
}
