//! Regenerates the paper's **Figures 1–4** for the running five-gate
//! example as Graphviz DOT plus a textual summary:
//!
//! * Figure 1 — the combinational circuit;
//! * Figure 2 — the LIDAG-structured Bayesian network (Eq. 7);
//! * Figure 3 — the triangulated moral graph (moral edge 1–2, fill edge
//!   4–7);
//! * Figure 4 — the junction tree of cliques.
//!
//! ```text
//! cargo run -p swact-bench --release --bin figures [output-dir]
//! ```

use std::fs;
use std::path::PathBuf;

use swact::{InputSpec, Lidag};
use swact_bayesnet::graph::moral_graph;
use swact_bayesnet::triangulate::{triangulate, Heuristic};
use swact_bayesnet::JunctionTree;
use swact_circuit::{catalog, write::to_dot};

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/figures"));
    fs::create_dir_all(&out_dir).expect("create output directory");

    let circuit = catalog::paper_example();
    let lidag = Lidag::build(&circuit, &InputSpec::uniform(4), 4).expect("example builds");
    let net = lidag.net();

    // Figure 1: the circuit.
    let fig1 = to_dot(&circuit);
    fs::write(out_dir.join("fig1_circuit.dot"), &fig1).expect("write fig1");

    // Figure 2: the LIDAG Bayesian network.
    let fig2 = lidag.to_dot();
    fs::write(out_dir.join("fig2_lidag.dot"), &fig2).expect("write fig2");

    // Figure 3: triangulated moral graph.
    let moral = moral_graph(net);
    let tri = triangulate(&moral, &net.cards(), Heuristic::MinFill);
    let mut fig3 = String::from("graph triangulated_moral {\n");
    for v in net.var_ids() {
        fig3.push_str(&format!("  v{} [label=\"X{}\"];\n", v.index(), net.name(v)));
    }
    let filled = tri.filled(&moral);
    for a in 0..moral.num_nodes() {
        for &b in filled.neighbors(a) {
            if b > a {
                let style = if moral.has_edge(a, b) {
                    "solid"
                } else {
                    "dashed"
                };
                fig3.push_str(&format!("  v{a} -- v{b} [style={style}];\n"));
            }
        }
    }
    fig3.push_str("}\n");
    fs::write(out_dir.join("fig3_triangulated.dot"), &fig3).expect("write fig3");

    // Figure 4: junction tree.
    let tree = JunctionTree::compile(net).expect("example compiles");
    let fig4 = tree.to_dot(&|v| format!("X{}", net.name(v)));
    fs::write(out_dir.join("fig4_junction_tree.dot"), &fig4).expect("write fig4");

    println!("Figures written to {}:", out_dir.display());
    println!(
        "  fig1_circuit.dot          ({} lines, {} gates)",
        circuit.num_lines(),
        circuit.num_gates()
    );
    println!("  fig2_lidag.dot            ({} variables)", net.num_vars());
    println!(
        "  fig3_triangulated.dot     ({} moral edges + {} fill edges)",
        moral.num_edges(),
        tri.fill.len()
    );
    println!(
        "  fig4_junction_tree.dot    ({} cliques, {} sepsets)",
        tree.num_cliques(),
        tree.num_edges()
    );
    println!();
    println!("Paper landmarks: the moral edge 1–2 (parents of X5 married) and");
    println!("one fill edge completing the triangulation; cliques as in Fig. 4.");
    println!();
    println!("Cliques:");
    for i in 0..tree.num_cliques() {
        let members: Vec<String> = tree
            .clique(i)
            .iter()
            .map(|&v| format!("X{}", net.name(v)))
            .collect();
        println!("  C{i}: {{{}}}", members.join(", "));
    }
}
