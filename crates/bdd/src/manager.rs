use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Handle to a node inside a [`Bdd`] manager.
///
/// [`Bdd::FALSE`] and [`Bdd::TRUE`] are the two terminals; every other id
/// refers to a decision node. Ids are only meaningful within the manager
/// that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// Dense index of the node in the manager's node table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// Errors from BDD construction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BddError {
    /// The manager's node budget was exhausted; the function being built is
    /// too large under the current variable order.
    NodeLimit {
        /// The configured budget.
        limit: usize,
    },
    /// A variable index ≥ the manager's declared variable count was used.
    VarOutOfRange {
        /// The offending variable index.
        var: usize,
        /// The declared variable count.
        num_vars: usize,
    },
}

impl fmt::Display for BddError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BddError::NodeLimit { limit } => {
                write!(f, "bdd node limit of {limit} nodes exceeded")
            }
            BddError::VarOutOfRange { var, num_vars } => {
                write!(f, "variable {var} out of range for {num_vars} variables")
            }
        }
    }
}

impl Error for BddError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Node {
    /// Variable level (position in the fixed order); terminals use
    /// `u32::MAX`.
    level: u32,
    lo: NodeId,
    hi: NodeId,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    And,
    Or,
    Xor,
}

/// A shared reduced ordered BDD manager over a fixed variable order
/// (variable *i* is at level *i*).
///
/// See the [crate docs](crate) for an example.
#[derive(Debug, Clone)]
pub struct Bdd {
    num_vars: usize,
    nodes: Vec<Node>,
    unique: HashMap<Node, NodeId>,
    apply_cache: HashMap<(Op, NodeId, NodeId), NodeId>,
    node_limit: usize,
}

impl Bdd {
    /// The constant-false terminal.
    pub const FALSE: NodeId = NodeId(0);
    /// The constant-true terminal.
    pub const TRUE: NodeId = NodeId(1);

    const TERMINAL_LEVEL: u32 = u32::MAX;
    const DEFAULT_NODE_LIMIT: usize = 4_000_000;

    /// Creates a manager for `num_vars` variables with the default node
    /// budget (4 million nodes).
    pub fn new(num_vars: usize) -> Bdd {
        Bdd::with_node_limit(num_vars, Bdd::DEFAULT_NODE_LIMIT)
    }

    /// Creates a manager with an explicit node budget; operations that
    /// would exceed it fail with [`BddError::NodeLimit`].
    pub fn with_node_limit(num_vars: usize, node_limit: usize) -> Bdd {
        let terminals = vec![
            Node {
                level: Bdd::TERMINAL_LEVEL,
                lo: Bdd::FALSE,
                hi: Bdd::FALSE,
            },
            Node {
                level: Bdd::TERMINAL_LEVEL,
                lo: Bdd::TRUE,
                hi: Bdd::TRUE,
            },
        ];
        Bdd {
            num_vars,
            nodes: terminals,
            unique: HashMap::new(),
            apply_cache: HashMap::new(),
            node_limit: node_limit.max(2),
        }
    }

    /// Number of variables in the order.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of live nodes (including the two terminals).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The number of decision nodes reachable from `f` (its BDD size).
    pub fn size(&self, f: NodeId) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f];
        let mut count = 0;
        while let Some(n) = stack.pop() {
            if n == Bdd::FALSE || n == Bdd::TRUE || !seen.insert(n) {
                continue;
            }
            count += 1;
            let node = self.nodes[n.index()];
            stack.push(node.lo);
            stack.push(node.hi);
        }
        count
    }

    /// The single-variable function `xᵢ`.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::VarOutOfRange`] for an invalid index.
    pub fn var(&mut self, var: usize) -> Result<NodeId, BddError> {
        if var >= self.num_vars {
            return Err(BddError::VarOutOfRange {
                var,
                num_vars: self.num_vars,
            });
        }
        self.mk(var as u32, Bdd::FALSE, Bdd::TRUE)
    }

    /// The negated single-variable function `¬xᵢ`.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::VarOutOfRange`] for an invalid index.
    pub fn nvar(&mut self, var: usize) -> Result<NodeId, BddError> {
        if var >= self.num_vars {
            return Err(BddError::VarOutOfRange {
                var,
                num_vars: self.num_vars,
            });
        }
        self.mk(var as u32, Bdd::TRUE, Bdd::FALSE)
    }

    fn mk(&mut self, level: u32, lo: NodeId, hi: NodeId) -> Result<NodeId, BddError> {
        if lo == hi {
            return Ok(lo);
        }
        let node = Node { level, lo, hi };
        if let Some(&id) = self.unique.get(&node) {
            return Ok(id);
        }
        if self.nodes.len() >= self.node_limit {
            return Err(BddError::NodeLimit {
                limit: self.node_limit,
            });
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.unique.insert(node, id);
        Ok(id)
    }

    fn level(&self, f: NodeId) -> u32 {
        self.nodes[f.index()].level
    }

    fn cofactors(&self, f: NodeId, level: u32) -> (NodeId, NodeId) {
        let node = self.nodes[f.index()];
        if node.level == level {
            (node.lo, node.hi)
        } else {
            (f, f)
        }
    }

    fn apply(&mut self, op: Op, a: NodeId, b: NodeId) -> Result<NodeId, BddError> {
        // Terminal cases.
        match op {
            Op::And => {
                if a == Bdd::FALSE || b == Bdd::FALSE {
                    return Ok(Bdd::FALSE);
                }
                if a == Bdd::TRUE {
                    return Ok(b);
                }
                if b == Bdd::TRUE || a == b {
                    return Ok(a);
                }
            }
            Op::Or => {
                if a == Bdd::TRUE || b == Bdd::TRUE {
                    return Ok(Bdd::TRUE);
                }
                if a == Bdd::FALSE {
                    return Ok(b);
                }
                if b == Bdd::FALSE || a == b {
                    return Ok(a);
                }
            }
            Op::Xor => {
                if a == b {
                    return Ok(Bdd::FALSE);
                }
                if a == Bdd::FALSE {
                    return Ok(b);
                }
                if b == Bdd::FALSE {
                    return Ok(a);
                }
            }
        }
        // Commutative: canonicalize operand order for the cache.
        let key = if a <= b { (op, a, b) } else { (op, b, a) };
        if let Some(&hit) = self.apply_cache.get(&key) {
            return Ok(hit);
        }
        let level = self.level(a).min(self.level(b));
        let (a_lo, a_hi) = self.cofactors(a, level);
        let (b_lo, b_hi) = self.cofactors(b, level);
        let lo = self.apply(op, a_lo, b_lo)?;
        let hi = self.apply(op, a_hi, b_hi)?;
        let result = self.mk(level, lo, hi)?;
        self.apply_cache.insert(key, result);
        Ok(result)
    }

    /// Conjunction `a ∧ b`.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::NodeLimit`] when the node budget is exhausted.
    pub fn and(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, BddError> {
        self.apply(Op::And, a, b)
    }

    /// Disjunction `a ∨ b`.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::NodeLimit`] when the node budget is exhausted.
    pub fn or(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, BddError> {
        self.apply(Op::Or, a, b)
    }

    /// Exclusive or `a ⊕ b`.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::NodeLimit`] when the node budget is exhausted.
    pub fn xor(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, BddError> {
        self.apply(Op::Xor, a, b)
    }

    /// Negation `¬a`.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::NodeLimit`] when the node budget is exhausted.
    pub fn not(&mut self, a: NodeId) -> Result<NodeId, BddError> {
        self.apply(Op::Xor, a, Bdd::TRUE)
    }

    /// If-then-else `f ? g : h`, composed from the binary operators.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::NodeLimit`] when the node budget is exhausted.
    pub fn ite(&mut self, f: NodeId, g: NodeId, h: NodeId) -> Result<NodeId, BddError> {
        let nf = self.not(f)?;
        let fg = self.and(f, g)?;
        let nfh = self.and(nf, h)?;
        self.or(fg, nfh)
    }

    /// The positive/negative cofactor: `f` with variable `var` fixed to
    /// `value`.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::VarOutOfRange`] for an invalid variable.
    pub fn restrict(&mut self, f: NodeId, var: usize, value: bool) -> Result<NodeId, BddError> {
        if var >= self.num_vars {
            return Err(BddError::VarOutOfRange {
                var,
                num_vars: self.num_vars,
            });
        }
        let mut memo: HashMap<NodeId, NodeId> = HashMap::new();
        self.restrict_rec(f, var as u32, value, &mut memo)
    }

    fn restrict_rec(
        &mut self,
        f: NodeId,
        level: u32,
        value: bool,
        memo: &mut HashMap<NodeId, NodeId>,
    ) -> Result<NodeId, BddError> {
        let node = self.nodes[f.index()];
        if node.level > level {
            // Terminals have level MAX; any node past the target level
            // cannot mention the variable.
            return Ok(f);
        }
        if let Some(&hit) = memo.get(&f) {
            return Ok(hit);
        }
        let result = if node.level == level {
            if value {
                node.hi
            } else {
                node.lo
            }
        } else {
            let lo = self.restrict_rec(node.lo, level, value, memo)?;
            let hi = self.restrict_rec(node.hi, level, value, memo)?;
            self.mk(node.level, lo, hi)?
        };
        memo.insert(f, result);
        Ok(result)
    }

    /// Evaluates `f` on a full assignment (`assignment[i]` = value of
    /// variable `i`).
    ///
    /// # Panics
    ///
    /// Panics if the assignment is shorter than the variable a path
    /// consults.
    pub fn eval(&self, f: NodeId, assignment: &[bool]) -> bool {
        let mut n = f;
        loop {
            if n == Bdd::FALSE {
                return false;
            }
            if n == Bdd::TRUE {
                return true;
            }
            let node = self.nodes[n.index()];
            n = if assignment[node.level as usize] {
                node.hi
            } else {
                node.lo
            };
        }
    }

    /// Number of satisfying assignments of `f` over all
    /// [`num_vars`](Bdd::num_vars) variables.
    pub fn sat_count(&self, f: NodeId) -> f64 {
        let mut memo: HashMap<NodeId, f64> = HashMap::new();
        self.sat_rec(f, &mut memo) * 2f64.powi(self.level_gap(f, 0) as i32)
    }

    fn level_gap(&self, f: NodeId, from: u32) -> u32 {
        let level = if f == Bdd::FALSE || f == Bdd::TRUE {
            self.num_vars as u32
        } else {
            self.level(f)
        };
        level - from
    }

    fn sat_rec(&self, f: NodeId, memo: &mut HashMap<NodeId, f64>) -> f64 {
        if f == Bdd::FALSE {
            return 0.0;
        }
        if f == Bdd::TRUE {
            return 1.0;
        }
        if let Some(&hit) = memo.get(&f) {
            return hit;
        }
        let node = self.nodes[f.index()];
        let lo =
            self.sat_rec(node.lo, memo) * 2f64.powi(self.level_gap(node.lo, node.level + 1) as i32);
        let hi =
            self.sat_rec(node.hi, memo) * 2f64.powi(self.level_gap(node.hi, node.level + 1) as i32);
        let total = lo + hi;
        memo.insert(f, total);
        total
    }

    /// The support of `f`: the variables it actually depends on, ascending.
    pub fn support(&self, f: NodeId) -> Vec<usize> {
        let mut seen = std::collections::HashSet::new();
        let mut vars = std::collections::BTreeSet::new();
        let mut stack = vec![f];
        while let Some(n) = stack.pop() {
            if n == Bdd::FALSE || n == Bdd::TRUE || !seen.insert(n) {
                continue;
            }
            let node = self.nodes[n.index()];
            vars.insert(node.level as usize);
            stack.push(node.lo);
            stack.push(node.hi);
        }
        vars.into_iter().collect()
    }

    /// Renders the BDD rooted at `f` as a Graphviz `digraph` (solid edges
    /// = high branch, dashed = low; boxes for terminals).
    pub fn to_dot(&self, f: NodeId) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph bdd {\n");
        let _ = writeln!(out, "  t0 [shape=box, label=\"0\"];");
        let _ = writeln!(out, "  t1 [shape=box, label=\"1\"];");
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f];
        let name = |n: NodeId| -> String {
            if n == Bdd::FALSE {
                "t0".to_string()
            } else if n == Bdd::TRUE {
                "t1".to_string()
            } else {
                format!("v{}", n.index())
            }
        };
        while let Some(n) = stack.pop() {
            if n == Bdd::FALSE || n == Bdd::TRUE || !seen.insert(n) {
                continue;
            }
            let node = self.nodes[n.index()];
            let _ = writeln!(out, "  {} [label=\"x{}\"];", name(n), node.level);
            let _ = writeln!(out, "  {} -> {} [style=dashed];", name(n), name(node.lo));
            let _ = writeln!(out, "  {} -> {};", name(n), name(node.hi));
            stack.push(node.lo);
            stack.push(node.hi);
        }
        out.push_str("}\n");
        out
    }

    /// The configured node budget.
    pub fn node_limit(&self) -> usize {
        self.node_limit
    }

    pub(crate) fn node(&self, f: NodeId) -> (u32, NodeId, NodeId) {
        let n = self.nodes[f.index()];
        (n.level, n.lo, n.hi)
    }

    pub(crate) fn is_terminal(&self, f: NodeId) -> bool {
        f == Bdd::FALSE || f == Bdd::TRUE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_and_vars() {
        let mut bdd = Bdd::new(2);
        let a = bdd.var(0).unwrap();
        assert_ne!(a, Bdd::FALSE);
        assert_ne!(a, Bdd::TRUE);
        // Hash-consing: same variable twice is the same node.
        assert_eq!(bdd.var(0).unwrap(), a);
        assert!(bdd.var(2).is_err());
    }

    #[test]
    fn basic_laws() {
        let mut bdd = Bdd::new(3);
        let a = bdd.var(0).unwrap();
        let b = bdd.var(1).unwrap();
        // Idempotence, identity, annihilation.
        assert_eq!(bdd.and(a, a).unwrap(), a);
        assert_eq!(bdd.or(a, Bdd::FALSE).unwrap(), a);
        assert_eq!(bdd.and(a, Bdd::FALSE).unwrap(), Bdd::FALSE);
        assert_eq!(bdd.xor(a, a).unwrap(), Bdd::FALSE);
        // Commutativity (canonicity makes it literal equality).
        assert_eq!(bdd.and(a, b).unwrap(), bdd.and(b, a).unwrap());
        // De Morgan.
        let nab = {
            let ab = bdd.and(a, b).unwrap();
            bdd.not(ab).unwrap()
        };
        let na = bdd.not(a).unwrap();
        let nb = bdd.not(b).unwrap();
        assert_eq!(bdd.or(na, nb).unwrap(), nab);
        // Double negation.
        assert_eq!(bdd.not(na).unwrap(), a);
    }

    #[test]
    fn eval_matches_truth_table() {
        let mut bdd = Bdd::new(3);
        let a = bdd.var(0).unwrap();
        let b = bdd.var(1).unwrap();
        let c = bdd.var(2).unwrap();
        let ab = bdd.and(a, b).unwrap();
        let f = bdd.xor(ab, c).unwrap(); // (a&b)^c
        for case in 0..8 {
            let assignment = [case & 1 == 1, case & 2 == 2, case & 4 == 4];
            let want = (assignment[0] && assignment[1]) ^ assignment[2];
            assert_eq!(bdd.eval(f, &assignment), want, "case {case}");
        }
    }

    #[test]
    fn ite_is_mux() {
        let mut bdd = Bdd::new(3);
        let s = bdd.var(0).unwrap();
        let g = bdd.var(1).unwrap();
        let h = bdd.var(2).unwrap();
        let f = bdd.ite(s, g, h).unwrap();
        for case in 0..8 {
            let assignment = [case & 1 == 1, case & 2 == 2, case & 4 == 4];
            let want = if assignment[0] {
                assignment[1]
            } else {
                assignment[2]
            };
            assert_eq!(bdd.eval(f, &assignment), want);
        }
    }

    #[test]
    fn restrict_cofactors() {
        let mut bdd = Bdd::new(2);
        let a = bdd.var(0).unwrap();
        let b = bdd.var(1).unwrap();
        let f = bdd.xor(a, b).unwrap();
        let f_a0 = bdd.restrict(f, 0, false).unwrap();
        assert_eq!(f_a0, b);
        let f_a1 = bdd.restrict(f, 0, true).unwrap();
        let nb = bdd.not(b).unwrap();
        assert_eq!(f_a1, nb);
        // Restricting an absent variable is identity.
        assert_eq!(bdd.restrict(b, 0, true).unwrap(), b);
    }

    #[test]
    fn sat_count_parity() {
        // Parity of n variables has exactly 2^(n-1) satisfying assignments.
        for n in 1..6 {
            let mut bdd = Bdd::new(n);
            let mut f = Bdd::FALSE;
            for i in 0..n {
                let v = bdd.var(i).unwrap();
                f = bdd.xor(f, v).unwrap();
            }
            assert_eq!(bdd.sat_count(f), 2f64.powi(n as i32 - 1), "n={n}");
        }
    }

    #[test]
    fn sat_count_with_skipped_levels() {
        let mut bdd = Bdd::new(4);
        // f = x3 alone: half of the 16 assignments satisfy it.
        let f = bdd.var(3).unwrap();
        assert_eq!(bdd.sat_count(f), 8.0);
        assert_eq!(bdd.sat_count(Bdd::TRUE), 16.0);
        assert_eq!(bdd.sat_count(Bdd::FALSE), 0.0);
    }

    #[test]
    fn node_limit_enforced() {
        // Parity needs ~2 nodes per variable; a tiny limit trips quickly.
        let mut bdd = Bdd::with_node_limit(64, 16);
        let mut f = Bdd::FALSE;
        let result = (0..64).try_fold(f, |acc, i| {
            let v = bdd.var(i)?;
            f = bdd.xor(acc, v)?;
            Ok(f)
        });
        assert!(matches!(result, Err(BddError::NodeLimit { limit: 16 })));
    }

    #[test]
    fn reduction_no_redundant_nodes() {
        let mut bdd = Bdd::new(2);
        let a = bdd.var(0).unwrap();
        // a OR a, a AND TRUE etc. must not allocate anything new.
        let before = bdd.num_nodes();
        let _ = bdd.or(a, a).unwrap();
        let _ = bdd.and(a, Bdd::TRUE).unwrap();
        assert_eq!(bdd.num_nodes(), before);
    }

    #[test]
    fn support_tracks_dependencies() {
        let mut bdd = Bdd::new(4);
        let a = bdd.var(0).unwrap();
        let c = bdd.var(2).unwrap();
        let f = bdd.and(a, c).unwrap();
        assert_eq!(bdd.support(f), vec![0, 2]);
        // XOR then cancel: x1 drops out of the support.
        let b = bdd.var(1).unwrap();
        let g = bdd.xor(f, b).unwrap();
        let h = bdd.xor(g, b).unwrap();
        assert_eq!(bdd.support(h), vec![0, 2]);
        assert!(bdd.support(Bdd::TRUE).is_empty());
    }

    #[test]
    fn dot_is_well_formed() {
        let mut bdd = Bdd::new(2);
        let a = bdd.var(0).unwrap();
        let b = bdd.var(1).unwrap();
        let f = bdd.or(a, b).unwrap();
        let dot = bdd.to_dot(f);
        assert!(dot.starts_with("digraph"));
        assert_eq!(dot.matches("style=dashed").count(), bdd.size(f));
        assert!(dot.contains("label=\"x0\""));
        assert!(dot.contains("label=\"x1\""));
    }

    #[test]
    fn size_counts_reachable_decision_nodes() {
        let mut bdd = Bdd::new(3);
        let a = bdd.var(0).unwrap();
        let b = bdd.var(1).unwrap();
        let ab = bdd.and(a, b).unwrap();
        assert_eq!(bdd.size(ab), 2);
        assert_eq!(bdd.size(Bdd::TRUE), 0);
    }
}
