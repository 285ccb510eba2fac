//! Building BDDs from gate-level circuits.

use swact_circuit::{Circuit, Driver, GateKind, LineId};

use crate::{Bdd, BddError, NodeId};

/// BDDs for every line of a circuit over its primary inputs (variable *i*
/// is the *i*-th primary input in declaration order).
#[derive(Debug, Clone)]
pub struct CircuitBdds {
    /// The shared manager.
    pub bdd: Bdd,
    /// Per line (indexed by `LineId::index`): that line's function.
    pub lines: Vec<NodeId>,
}

impl CircuitBdds {
    /// The function of a specific line.
    pub fn line(&self, line: LineId) -> NodeId {
        self.lines[line.index()]
    }
}

/// Builds a BDD for every line of `circuit` over the primary inputs.
///
/// # Errors
///
/// Returns [`BddError::NodeLimit`] if the functions exceed `node_limit`
/// under the input-declaration-order variable ordering.
///
/// # Example
///
/// ```
/// use swact_bdd::build_circuit_bdds;
/// use swact_circuit::catalog;
///
/// # fn main() -> Result<(), swact_bdd::BddError> {
/// let c17 = catalog::c17();
/// let bdds = build_circuit_bdds(&c17, 10_000)?;
/// let out = bdds.line(c17.outputs()[0]);
/// // 22 = NAND(10, 16) is satisfiable but not a tautology.
/// assert!(bdds.bdd.sat_count(out) > 0.0);
/// assert!(bdds.bdd.sat_count(out) < 32.0);
/// # Ok(())
/// # }
/// ```
pub fn build_circuit_bdds(circuit: &Circuit, node_limit: usize) -> Result<CircuitBdds, BddError> {
    let mut bdd = Bdd::with_node_limit(circuit.num_inputs(), node_limit);
    let vars: Vec<NodeId> = (0..circuit.num_inputs())
        .map(|i| bdd.var(i))
        .collect::<Result<_, _>>()?;
    let mut lines = vec![Bdd::FALSE; circuit.num_lines()];
    for (i, &pi) in circuit.inputs().iter().enumerate() {
        lines[pi.index()] = vars[i];
    }
    for line in circuit.topo_order() {
        if let Driver::Gate(g) = circuit.driver(line) {
            lines[line.index()] = apply_gate(
                &mut bdd,
                g.kind,
                |k| lines[g.inputs[k].index()],
                g.inputs.len(),
            )?;
        }
    }
    Ok(CircuitBdds { bdd, lines })
}

/// BDDs for the *switching functions* of every line: over `2n` variables —
/// variable `2i` is primary input *i* at clock *t−1* ("prev") and `2i + 1`
/// the same input at clock *t* ("next") — the function
/// `f(prev inputs) ⊕ f(next inputs)` is one exactly when the line toggles.
///
/// This interleaved ordering keeps each input's (prev, next) pair adjacent,
/// which [`Bdd::pair_probability`] exploits to handle temporally correlated
/// input streams exactly.
#[derive(Debug, Clone)]
pub struct SwitchingBdds {
    /// The shared manager (over `2 × inputs` variables).
    pub bdd: Bdd,
    /// Per line: function at clock *t−1* (over even variables).
    pub prev: Vec<NodeId>,
    /// Per line: function at clock *t* (over odd variables).
    pub next: Vec<NodeId>,
    /// Per line: the toggle indicator `prev ⊕ next`.
    pub switch: Vec<NodeId>,
}

impl SwitchingBdds {
    /// The toggle indicator of a specific line.
    pub fn switch_fn(&self, line: LineId) -> NodeId {
        self.switch[line.index()]
    }
}

/// Builds switching BDDs (see [`SwitchingBdds`]) for all lines.
///
/// # Errors
///
/// Returns [`BddError::NodeLimit`] if any function exceeds `node_limit`.
pub fn build_switching_bdds(
    circuit: &Circuit,
    node_limit: usize,
) -> Result<SwitchingBdds, BddError> {
    let n = circuit.num_inputs();
    let mut bdd = Bdd::with_node_limit(2 * n, node_limit);
    let mut prev = vec![Bdd::FALSE; circuit.num_lines()];
    let mut next = vec![Bdd::FALSE; circuit.num_lines()];
    for (i, &pi) in circuit.inputs().iter().enumerate() {
        prev[pi.index()] = bdd.var(2 * i)?;
        next[pi.index()] = bdd.var(2 * i + 1)?;
    }
    for line in circuit.topo_order() {
        if let Driver::Gate(g) = circuit.driver(line) {
            prev[line.index()] = apply_gate(
                &mut bdd,
                g.kind,
                |k| prev[g.inputs[k].index()],
                g.inputs.len(),
            )?;
            next[line.index()] = apply_gate(
                &mut bdd,
                g.kind,
                |k| next[g.inputs[k].index()],
                g.inputs.len(),
            )?;
        }
    }
    let mut switch = vec![Bdd::FALSE; circuit.num_lines()];
    for line in circuit.line_ids() {
        switch[line.index()] = bdd.xor(prev[line.index()], next[line.index()])?;
    }
    Ok(SwitchingBdds {
        bdd,
        prev,
        next,
        switch,
    })
}

fn apply_gate(
    bdd: &mut Bdd,
    kind: GateKind,
    input: impl Fn(usize) -> NodeId,
    arity: usize,
) -> Result<NodeId, BddError> {
    let fold = |bdd: &mut Bdd,
                init: NodeId,
                op: fn(&mut Bdd, NodeId, NodeId) -> Result<NodeId, BddError>|
     -> Result<NodeId, BddError> {
        let mut acc = init;
        for k in 0..arity {
            acc = op(bdd, acc, input(k))?;
        }
        Ok(acc)
    };
    match kind {
        GateKind::And => fold(bdd, Bdd::TRUE, Bdd::and),
        GateKind::Nand => {
            let a = fold(bdd, Bdd::TRUE, Bdd::and)?;
            bdd.not(a)
        }
        GateKind::Or => fold(bdd, Bdd::FALSE, Bdd::or),
        GateKind::Nor => {
            let a = fold(bdd, Bdd::FALSE, Bdd::or)?;
            bdd.not(a)
        }
        GateKind::Xor => fold(bdd, Bdd::FALSE, Bdd::xor),
        GateKind::Xnor => {
            let a = fold(bdd, Bdd::FALSE, Bdd::xor)?;
            bdd.not(a)
        }
        GateKind::Not => {
            let a = input(0);
            bdd.not(a)
        }
        GateKind::Buf => Ok(input(0)),
        GateKind::Const0 => Ok(Bdd::FALSE),
        GateKind::Const1 => Ok(Bdd::TRUE),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swact_circuit::{catalog, CircuitBuilder};

    fn eval_circuit(circuit: &Circuit, assignment: &[bool]) -> Vec<bool> {
        let mut values = vec![false; circuit.num_lines()];
        for (i, &pi) in circuit.inputs().iter().enumerate() {
            values[pi.index()] = assignment[i];
        }
        for line in circuit.topo_order() {
            if let Some(g) = circuit.gate(line) {
                values[line.index()] = g.kind.eval(g.inputs.iter().map(|&l| values[l.index()]));
            }
        }
        values
    }

    #[test]
    fn c17_bdds_match_exhaustive_simulation() {
        let c17 = catalog::c17();
        let bdds = build_circuit_bdds(&c17, 100_000).unwrap();
        for case in 0..32usize {
            let assignment: Vec<bool> = (0..5).map(|i| case >> i & 1 == 1).collect();
            let values = eval_circuit(&c17, &assignment);
            for line in c17.line_ids() {
                assert_eq!(
                    bdds.bdd.eval(bdds.line(line), &assignment),
                    values[line.index()],
                    "line {} case {case}",
                    c17.line_name(line)
                );
            }
        }
    }

    #[test]
    fn all_gate_kinds_build_correctly() {
        let mut b = CircuitBuilder::new("allkinds");
        b.input("a").unwrap();
        b.input("b").unwrap();
        b.input("c").unwrap();
        b.gate("and3", GateKind::And, &["a", "b", "c"]).unwrap();
        b.gate("nor3", GateKind::Nor, &["a", "b", "c"]).unwrap();
        b.gate("xnor3", GateKind::Xnor, &["a", "b", "c"]).unwrap();
        b.gate("inv", GateKind::Not, &["a"]).unwrap();
        b.gate("pass", GateKind::Buf, &["b"]).unwrap();
        b.gate("k1", GateKind::Const1, &[]).unwrap();
        b.gate(
            "top",
            GateKind::Or,
            &["and3", "nor3", "xnor3", "inv", "pass", "k1"],
        )
        .unwrap();
        b.output("top").unwrap();
        let circuit = b.finish().unwrap();
        let bdds = build_circuit_bdds(&circuit, 100_000).unwrap();
        for case in 0..8usize {
            let assignment: Vec<bool> = (0..3).map(|i| case >> i & 1 == 1).collect();
            let values = eval_circuit(&circuit, &assignment);
            for line in circuit.line_ids() {
                assert_eq!(
                    bdds.bdd.eval(bdds.line(line), &assignment),
                    values[line.index()]
                );
            }
        }
    }

    #[test]
    fn switching_bdds_flag_toggles() {
        let c17 = catalog::c17();
        let sw = build_switching_bdds(&c17, 100_000).unwrap();
        // For every (prev, next) input pair, the switch function of each
        // line is 1 exactly when the simulated values differ.
        for prev_case in 0..32usize {
            for next_case in [0usize, 7, 21, 31] {
                let prev_assignment: Vec<bool> = (0..5).map(|i| prev_case >> i & 1 == 1).collect();
                let next_assignment: Vec<bool> = (0..5).map(|i| next_case >> i & 1 == 1).collect();
                let prev_values = eval_circuit(&c17, &prev_assignment);
                let next_values = eval_circuit(&c17, &next_assignment);
                // Interleave into the 2n-variable assignment.
                let mut interleaved = vec![false; 10];
                for i in 0..5 {
                    interleaved[2 * i] = prev_assignment[i];
                    interleaved[2 * i + 1] = next_assignment[i];
                }
                for line in c17.line_ids() {
                    let toggled = prev_values[line.index()] != next_values[line.index()];
                    assert_eq!(
                        sw.bdd.eval(sw.switch_fn(line), &interleaved),
                        toggled,
                        "line {} prev={prev_case} next={next_case}",
                        c17.line_name(line)
                    );
                }
            }
        }
    }

    #[test]
    fn node_limit_propagates() {
        let c = catalog::benchmark("c432").unwrap();
        let result = build_circuit_bdds(&c, 64);
        assert!(matches!(result, Err(BddError::NodeLimit { .. })));
    }
}
