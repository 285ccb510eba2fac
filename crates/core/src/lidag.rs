//! LIDAG construction — the paper's Definition 8 and Theorem 3.
//!
//! The Logic-Induced Directed Acyclic Graph has one four-state random
//! variable per signal line; the parents of a gate-output variable are the
//! variables of that gate's input lines. Because each variable's Markov
//! boundary under a topological ordering is exactly its gate's inputs, the
//! LIDAG is a *boundary DAG* and hence (Pearl, Theorem 2) a minimal I-map
//! of the switching distribution: a Bayesian network capturing every
//! spatial and spatio-temporal dependency exactly.

use swact_bayesnet::{BayesNet, Cpt, VarId};
use swact_circuit::{decompose::decompose_fanin, Circuit, Driver, GateKind, LineId};

use crate::{EstimateError, InputSpec, Transition};

/// The deterministic CPT of a gate's transition variable given its inputs'
/// transition variables: with input states fixed, the output transition is
/// `(f(prev inputs), f(next inputs))` with probability one. Rows enumerate
/// parent states in gate-input order (last input fastest), matching
/// [`BayesNet::add_var`].
///
/// # Example
///
/// ```
/// use swact::gate_cpt;
/// use swact_circuit::GateKind;
///
/// let cpt = gate_cpt(GateKind::Or, 2);
/// assert_eq!(cpt.num_rows(), 16);
/// // Paper §4: P(X5=x01 | X1=x01, X2=x00) = 1 for an OR gate.
/// // Row index: x01 = 1, x00 = 0 → row 1·4 + 0 = 4; state x01 has index 1.
/// assert_eq!(cpt.as_rows()[4][1], 1.0);
/// ```
pub fn gate_cpt(kind: GateKind, fanin: usize) -> Cpt {
    let rows = 4usize.pow(fanin as u32);
    Cpt::deterministic(rows, 4, |row| {
        let mut states = [0usize; 16];
        debug_assert!(fanin <= 16, "fan-in bounded by decomposition");
        let mut rem = row;
        for i in (0..fanin).rev() {
            states[i] = rem % 4;
            rem /= 4;
        }
        let prev = kind.eval(
            states[..fanin]
                .iter()
                .map(|&s| Transition::from_index(s).prev()),
        );
        let next = kind.eval(
            states[..fanin]
                .iter()
                .map(|&s| Transition::from_index(s).next()),
        );
        Transition::from_values(prev, next).index()
    })
}

/// The Bayesian-network family of a gate whose input list may repeat
/// lines: the *distinct* input lines (in first-occurrence order) and the
/// CPT over them, with repeated connections evaluated consistently (e.g.
/// `XOR(a, a)` is the constant-0 family over parent `a`).
///
/// [`gate_cpt`] is the common special case of distinct inputs.
pub fn gate_family(kind: GateKind, inputs: &[LineId]) -> (Vec<LineId>, Cpt) {
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
        return (unique, gate_cpt(kind, inputs.len()));
    }
    let k = unique.len();
    let rows = 4usize.pow(k as u32);
    let cpt = Cpt::deterministic(rows, 4, |row| {
        let mut states = vec![0usize; k];
        let mut rem = row;
        for i in (0..k).rev() {
            states[i] = rem % 4;
            rem /= 4;
        }
        let prev = kind.eval(
            slot_of
                .iter()
                .map(|&s| Transition::from_index(states[s]).prev()),
        );
        let next = kind.eval(
            slot_of
                .iter()
                .map(|&s| Transition::from_index(states[s]).next()),
        );
        Transition::from_values(prev, next).index()
    });
    (unique, cpt)
}

/// A circuit's LIDAG as a single Bayesian network.
///
/// Construction decomposes gates wider than `max_fanin` into trees of
/// two-input gates first (bounding clique sizes), so the network is over a
/// *working circuit* that may contain a few helper lines; original lines
/// are found by name.
///
/// For large circuits prefer the segmented estimator
/// ([`estimate`](crate::estimate)), which builds many small LIDAGs; the
/// single-network form here is what the theory section reasons about and
/// is used directly for exact estimates on compact circuits.
///
/// # Example
///
/// ```
/// use swact::{InputSpec, Lidag};
/// use swact_circuit::catalog;
///
/// # fn main() -> Result<(), swact::EstimateError> {
/// let circuit = catalog::paper_example();
/// let lidag = Lidag::build(&circuit, &InputSpec::uniform(4), 4)?;
/// // Nine lines ⇒ nine four-state variables (Figure 2).
/// assert_eq!(lidag.net().num_vars(), 9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lidag {
    working: Circuit,
    net: BayesNet,
    var_of: Vec<VarId>,
}

impl Lidag {
    /// Builds the LIDAG-BN of `circuit` with PI priors from `spec`,
    /// decomposing gates wider than `max_fanin` first.
    ///
    /// # Errors
    ///
    /// Returns [`EstimateError::InputCountMismatch`] if the spec does not
    /// cover the circuit's inputs, or wrapped circuit/BN errors.
    pub fn build(
        circuit: &Circuit,
        spec: &InputSpec,
        max_fanin: usize,
    ) -> Result<Lidag, EstimateError> {
        if spec.len() != circuit.num_inputs() {
            return Err(EstimateError::InputCountMismatch {
                circuit: circuit.num_inputs(),
                spec: spec.len(),
            });
        }
        let working = decompose_fanin(circuit, max_fanin.max(2))?;
        let mut net = BayesNet::new();
        let mut var_of = vec![VarId::from_index(0); working.num_lines()];
        for line in working.topo_order() {
            let name = working.line_name(line).to_string();
            let var = match working.driver(line) {
                Driver::Input => {
                    let pi_pos = working
                        .inputs()
                        .iter()
                        .position(|&l| l == line)
                        .expect("input line is in the input list");
                    net.add_var(name, 4, &[], Cpt::prior(spec.prior_row(pi_pos)))?
                }
                Driver::Gate(g) => {
                    let (unique_inputs, cpt) = gate_family(g.kind, &g.inputs);
                    let parents: Vec<VarId> =
                        unique_inputs.iter().map(|&l| var_of[l.index()]).collect();
                    net.add_var(name, 4, &parents, cpt)?
                }
            };
            var_of[line.index()] = var;
        }
        Ok(Lidag {
            working,
            net,
            var_of,
        })
    }

    /// The Bayesian network.
    pub fn net(&self) -> &BayesNet {
        &self.net
    }

    /// The working (possibly fan-in-decomposed) circuit the network is
    /// built over.
    pub fn working_circuit(&self) -> &Circuit {
        &self.working
    }

    /// The network variable of a working-circuit line.
    pub fn var(&self, line: LineId) -> VarId {
        self.var_of[line.index()]
    }

    /// The network variable of a line looked up by name (works for both
    /// original and helper lines).
    pub fn var_by_name(&self, name: &str) -> Option<VarId> {
        self.working.find_line(name).map(|l| self.var(l))
    }

    /// Replaces the primary-input priors (paper §6: re-estimation under new
    /// input statistics).
    ///
    /// # Errors
    ///
    /// Returns [`EstimateError::InputCountMismatch`] for a wrong-size spec.
    pub fn set_input_spec(&mut self, spec: &InputSpec) -> Result<(), EstimateError> {
        if spec.len() != self.working.num_inputs() {
            return Err(EstimateError::InputCountMismatch {
                circuit: self.working.num_inputs(),
                spec: spec.len(),
            });
        }
        for (i, &line) in self.working.inputs().iter().enumerate() {
            self.net
                .set_cpt(self.var(line), Cpt::prior(spec.prior_row(i)))?;
        }
        Ok(())
    }

    /// Renders the LIDAG as a Graphviz `digraph` (Figure 2 of the paper for
    /// the example circuit).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "digraph lidag {{");
        for line in self.working.line_ids() {
            let _ = writeln!(
                out,
                "  v{} [label=\"X{}\"];",
                line.index(),
                self.working.line_name(line)
            );
        }
        for line in self.working.line_ids() {
            if let Some(g) = self.working.gate(line) {
                for &input in &g.inputs {
                    let _ = writeln!(out, "  v{} -> v{};", input.index(), line.index());
                }
            }
        }
        let _ = writeln!(out, "}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swact_bayesnet::dsep::{d_separated, independent_in_joint, markov_blanket};
    use swact_circuit::catalog;

    #[test]
    fn gate_cpt_rows_are_deterministic() {
        for kind in [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ] {
            let cpt = gate_cpt(kind, 2);
            for row in cpt.as_rows() {
                assert_eq!(row.iter().filter(|&&p| p == 1.0).count(), 1);
                assert_eq!(row.iter().sum::<f64>(), 1.0);
            }
        }
        // NOT gate: x01 input → x10 output.
        let inv = gate_cpt(GateKind::Not, 1);
        assert_eq!(
            inv.as_rows()[Transition::Rise.index()][Transition::Fall.index()],
            1.0
        );
    }

    #[test]
    fn paper_or_gate_example() {
        // §4: if one OR input rises and the other stays 0, the output rises.
        let cpt = gate_cpt(GateKind::Or, 2);
        let row = Transition::Rise.index() * 4 + Transition::Stable0.index();
        assert_eq!(cpt.as_rows()[row][Transition::Rise.index()], 1.0);
    }

    #[test]
    fn lidag_matches_eq7_factorization() {
        let circuit = catalog::paper_example();
        let lidag = Lidag::build(&circuit, &InputSpec::uniform(4), 4).unwrap();
        let net = lidag.net();
        // Eq. 7 parent sets.
        let parents_of = |name: &str| -> Vec<String> {
            let v = lidag.var_by_name(name).unwrap();
            net.parents(v)
                .iter()
                .map(|&p| net.name(p).to_string())
                .collect()
        };
        assert_eq!(parents_of("5"), ["1", "2"]);
        assert_eq!(parents_of("6"), ["3", "4"]);
        assert_eq!(parents_of("7"), ["5", "6"]);
        assert_eq!(parents_of("8"), ["4"]);
        assert_eq!(parents_of("9"), ["7", "8"]);
        for name in ["1", "2", "3", "4"] {
            assert!(parents_of(name).is_empty());
        }
    }

    #[test]
    fn lidag_displays_paper_independencies() {
        // §4: X1 ⫫ X2 marginally, but conditionally *dependent* given X9;
        // X5 ⫫ everything else given X1, X2.
        let circuit = catalog::paper_example();
        let lidag = Lidag::build(&circuit, &InputSpec::uniform(4), 4).unwrap();
        let v = |n: &str| lidag.var_by_name(n).unwrap();
        let net = lidag.net();
        assert!(d_separated(net, &[v("1")], &[v("2")], &[]));
        assert!(!d_separated(net, &[v("1")], &[v("2")], &[v("9")]));
        // Transitions of line 5 are conditionally independent of all other
        // lines' transitions given lines 1 and 2 — except its descendants.
        assert!(d_separated(
            net,
            &[v("5")],
            &[v("3"), v("4"), v("6"), v("8")],
            &[v("1"), v("2")]
        ));
    }

    #[test]
    fn lidag_is_an_i_map_numerically() {
        // Verify Theorem 3 on the example circuit: sampled d-separations
        // hold in the actual joint distribution.
        let circuit = catalog::paper_example();
        let spec = InputSpec::independent([0.3, 0.6, 0.5, 0.8]);
        let lidag = Lidag::build(&circuit, &spec, 4).unwrap();
        let net = lidag.net();
        let v = |n: &str| lidag.var_by_name(n).unwrap();
        let triples: Vec<(Vec<_>, Vec<_>, Vec<_>)> = vec![
            (vec![v("1")], vec![v("2")], vec![]),
            (vec![v("5")], vec![v("6")], vec![]),
            (vec![v("5")], vec![v("3")], vec![]),
            (vec![v("9")], vec![v("1")], vec![v("7"), v("8")]),
            (vec![v("7")], vec![v("8")], vec![v("5"), v("6"), v("4")]),
        ];
        for (x, y, z) in triples {
            if d_separated(net, &x, &y, &z) {
                assert!(
                    independent_in_joint(net, &x, &y, &z, 1e-9),
                    "d-separation not matched by independence for {x:?} {y:?} {z:?}"
                );
            }
        }
    }

    #[test]
    fn markov_boundary_is_gate_family() {
        // Theorem 3's proof: the Markov boundary of a leaf output variable
        // is its gate's inputs.
        let circuit = catalog::paper_example();
        let lidag = Lidag::build(&circuit, &InputSpec::uniform(4), 4).unwrap();
        let v = |n: &str| lidag.var_by_name(n).unwrap();
        let mut expected = vec![v("7"), v("8")];
        expected.sort_unstable();
        assert_eq!(markov_blanket(lidag.net(), v("9")), expected);
    }

    #[test]
    fn wide_gates_are_decomposed() {
        use swact_circuit::CircuitBuilder;
        let mut b = CircuitBuilder::new("wide");
        for n in ["a", "b", "c", "d", "e", "f"] {
            b.input(n).unwrap();
        }
        b.gate("y", GateKind::And, &["a", "b", "c", "d", "e", "f"])
            .unwrap();
        b.output("y").unwrap();
        let circuit = b.finish().unwrap();
        let lidag = Lidag::build(&circuit, &InputSpec::uniform(6), 2).unwrap();
        assert!(lidag.net().num_vars() > circuit.num_lines());
        assert!(lidag.working_circuit().stats().max_fanin <= 2);
        // The original output survives by name.
        assert!(lidag.var_by_name("y").is_some());
    }

    #[test]
    fn input_spec_mismatch_rejected() {
        let circuit = catalog::c17();
        assert!(matches!(
            Lidag::build(&circuit, &InputSpec::uniform(3), 4),
            Err(EstimateError::InputCountMismatch {
                circuit: 5,
                spec: 3
            })
        ));
    }

    #[test]
    fn set_input_spec_updates_priors() {
        let circuit = catalog::c17();
        let mut lidag = Lidag::build(&circuit, &InputSpec::uniform(5), 4).unwrap();
        let spec = InputSpec::independent([0.9, 0.9, 0.9, 0.9, 0.9]);
        lidag.set_input_spec(&spec).unwrap();
        let pi0 = lidag.var(lidag.working_circuit().inputs()[0]);
        let prior = lidag.net().cpt_factor(pi0);
        assert!((prior.values()[3] - 0.81).abs() < 1e-12);
        assert!(lidag.set_input_spec(&InputSpec::uniform(2)).is_err());
    }

    #[test]
    fn dot_export_has_all_nodes_and_edges() {
        let circuit = catalog::paper_example();
        let lidag = Lidag::build(&circuit, &InputSpec::uniform(4), 4).unwrap();
        let dot = lidag.to_dot();
        assert_eq!(dot.matches("label=\"X").count(), 9);
        assert_eq!(dot.matches(" -> ").count(), 9); // Figure 2 has 9 arcs
    }
}
