use std::cmp::Reverse;

use crate::graph::moral_graph;
use crate::triangulate::{triangulate, Heuristic, Triangulation};
use crate::{BayesError, BayesNet, VarId};

/// A compiled junction tree (actually a forest when the moral graph is
/// disconnected): maximal cliques of the triangulated moral graph connected
/// by maximal-weight sepsets, plus the CPT-to-clique assignment.
///
/// Compilation is the expensive, one-off half of inference; evidence
/// propagation over the compiled structure (see
/// [`CompiledTree`](crate::CompiledTree)) is cheap and repeatable — the property
/// the paper exploits to re-estimate under new input statistics without
/// recompiling (§6).
///
/// # Example
///
/// ```
/// use swact_bayesnet::{BayesNet, Cpt, JunctionTree};
///
/// # fn main() -> Result<(), swact_bayesnet::BayesError> {
/// let mut net = BayesNet::new();
/// let a = net.add_var("a", 2, &[], Cpt::prior(vec![0.5, 0.5]))?;
/// let b = net.add_var("b", 2, &[a], Cpt::rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]))?;
/// let _c = net.add_var("c", 2, &[b], Cpt::rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]))?;
/// let tree = JunctionTree::compile(&net)?;
/// // A chain moralizes/triangulates to two cliques: {a,b} and {b,c}.
/// assert_eq!(tree.num_cliques(), 2);
/// assert!(tree.satisfies_running_intersection());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct JunctionTree {
    /// Maximal cliques, each a sorted list of variables.
    cliques: Vec<Vec<VarId>>,
    /// Tree edges between cliques, with their sepset (sorted intersection).
    edges: Vec<TreeEdge>,
    /// Per clique: incident edge indices.
    incident: Vec<Vec<usize>>,
    /// One root clique per connected component.
    roots: Vec<usize>,
    /// Per variable: the smallest clique containing it (marginal queries).
    home_clique: Vec<usize>,
    /// Per variable of the source net: the clique its CPT is assigned to.
    cpt_clique: Vec<usize>,
    /// Cardinality per variable.
    cards: Vec<usize>,
    /// Statistics from triangulation.
    fill_edges: usize,
    total_states: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct TreeEdge {
    pub(crate) a: usize,
    pub(crate) b: usize,
    pub(crate) sepset: Vec<VarId>,
}

impl JunctionTree {
    /// Compiles a network with the default ([`Heuristic::MinFill`])
    /// triangulation.
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::Empty`] for an empty network.
    pub fn compile(net: &BayesNet) -> Result<JunctionTree, BayesError> {
        JunctionTree::compile_with(net, Heuristic::MinFill)
    }

    /// Compiles a network with an explicit triangulation heuristic.
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::Empty`] for an empty network.
    pub fn compile_with(net: &BayesNet, heuristic: Heuristic) -> Result<JunctionTree, BayesError> {
        if net.num_vars() == 0 {
            return Err(BayesError::Empty);
        }
        let cards = net.cards();
        let moral = moral_graph(net);
        let tri: Triangulation = triangulate(&moral, &cards, heuristic);
        let cliques: Vec<Vec<VarId>> = tri
            .cliques
            .iter()
            .map(|c| c.iter().map(|&i| VarId::from_index(i)).collect())
            .collect();
        let holders = clique_index(&cliques, cards.len());
        let (edges, incident, roots) = spanning_forest(&cliques, &holders, &cards);
        let home_clique = home_cliques(&cliques, &holders, &cards);

        // CPT assignment: each variable's family {v} ∪ parents is a clique
        // in the moral graph, hence contained in some maximal clique. The
        // host is the lowest-numbered one; every candidate holds `var`.
        let cpt_clique: Vec<usize> = net
            .var_ids()
            .map(|var| {
                let parents = net.parents(var);
                *holders[var.index()]
                    .iter()
                    .find(|&&c| parents.iter().all(|p| cliques[c].binary_search(p).is_ok()))
                    .expect("every family is contained in a maximal clique")
            })
            .collect();

        Ok(JunctionTree {
            cliques,
            edges,
            incident,
            roots,
            home_clique,
            cpt_clique,
            cards,
            fill_edges: tri.fill.len(),
            total_states: tri.total_states,
        })
    }

    /// Number of variables in the compiled network.
    pub fn num_vars(&self) -> usize {
        self.cards.len()
    }

    /// Number of cliques.
    pub fn num_cliques(&self) -> usize {
        self.cliques.len()
    }

    /// The variables of clique `i`, sorted.
    pub fn clique(&self, i: usize) -> &[VarId] {
        &self.cliques[i]
    }

    /// All cliques.
    pub fn cliques(&self) -> &[Vec<VarId>] {
        &self.cliques
    }

    /// Sepsets as `(clique_a, clique_b, vars)` triples.
    pub fn sepsets(&self) -> Vec<(usize, usize, &[VarId])> {
        self.edges
            .iter()
            .map(|e| (e.a, e.b, e.sepset.as_slice()))
            .collect()
    }

    /// Number of tree edges (= cliques − components).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// One root clique per connected component.
    pub fn roots(&self) -> &[usize] {
        &self.roots
    }

    /// The smallest clique containing `var`.
    pub fn home_clique(&self, var: VarId) -> usize {
        self.home_clique[var.index()]
    }

    /// The clique each variable's CPT was multiplied into.
    pub fn cpt_clique(&self, var: VarId) -> usize {
        self.cpt_clique[var.index()]
    }

    /// Cardinality of a variable.
    pub fn card(&self, var: VarId) -> usize {
        self.cards[var.index()]
    }

    /// Number of fill edges the triangulation added.
    pub fn fill_edges(&self) -> usize {
        self.fill_edges
    }

    /// Total state space: Σ over cliques of the product of member
    /// cardinalities. The dominant cost of propagation.
    pub fn total_states(&self) -> f64 {
        self.total_states
    }

    /// Size (in states) of the largest clique.
    pub fn max_clique_states(&self) -> f64 {
        self.cliques
            .iter()
            .map(|c| {
                c.iter()
                    .map(|v| self.cards[v.index()] as f64)
                    .product::<f64>()
            })
            .fold(0.0, f64::max)
    }

    /// Size (in states) of the largest sepset — the scratch-buffer bound
    /// of one propagation message.
    pub fn max_sepset_states(&self) -> usize {
        self.edges
            .iter()
            .map(|e| {
                e.sepset
                    .iter()
                    .map(|v| self.cards[v.index()])
                    .product::<usize>()
            })
            .max()
            .unwrap_or(0)
    }

    pub(crate) fn edge(&self, idx: usize) -> &TreeEdge {
        &self.edges[idx]
    }

    pub(crate) fn incident_edges(&self, clique: usize) -> &[usize] {
        &self.incident[clique]
    }

    /// Every field of the compiled tree, for the [`crate::codec`] encoder.
    #[allow(clippy::type_complexity)]
    pub(crate) fn codec_parts(
        &self,
    ) -> (
        &[Vec<VarId>],
        &[TreeEdge],
        &[Vec<usize>],
        &[usize],
        &[usize],
        &[usize],
        &[usize],
        usize,
        f64,
    ) {
        (
            &self.cliques,
            &self.edges,
            &self.incident,
            &self.roots,
            &self.home_clique,
            &self.cpt_clique,
            &self.cards,
            self.fill_edges,
            self.total_states,
        )
    }

    /// Rebuilds a tree from decoded fields without re-running compilation.
    /// The [`crate::codec`] decoder is the only caller; it range-checks
    /// the fields before calling, so no validation happens here.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_codec_parts(
        cliques: Vec<Vec<VarId>>,
        edges: Vec<TreeEdge>,
        incident: Vec<Vec<usize>>,
        roots: Vec<usize>,
        home_clique: Vec<usize>,
        cpt_clique: Vec<usize>,
        cards: Vec<usize>,
        fill_edges: usize,
        total_states: f64,
    ) -> JunctionTree {
        JunctionTree {
            cliques,
            edges,
            incident,
            roots,
            home_clique,
            cpt_clique,
            cards,
            fill_edges,
            total_states,
        }
    }

    /// The unique path between two cliques as a list of `(edge index,
    /// clique reached)` steps, or `None` when the cliques are in different
    /// components. An empty path means `from == to`.
    pub fn clique_path(&self, from: usize, to: usize) -> Option<Vec<(usize, usize)>> {
        if from == to {
            return Some(Vec::new());
        }
        // BFS recording the (edge, parent) that discovered each clique.
        let mut discovered = vec![usize::MAX; self.cliques.len()];
        let mut via_edge = vec![usize::MAX; self.cliques.len()];
        let mut queue = std::collections::VecDeque::new();
        discovered[from] = from;
        queue.push_back(from);
        while let Some(c) = queue.pop_front() {
            if c == to {
                break;
            }
            for &e in &self.incident[c] {
                let edge = &self.edges[e];
                let other = if edge.a == c { edge.b } else { edge.a };
                if discovered[other] == usize::MAX {
                    discovered[other] = c;
                    via_edge[other] = e;
                    queue.push_back(other);
                }
            }
        }
        if discovered[to] == usize::MAX {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = to;
        while cur != from {
            path.push((via_edge[cur], cur));
            cur = discovered[cur];
        }
        path.reverse();
        Some(path)
    }

    /// The number of tree edges between two cliques, or `None` across
    /// components. Used as a cheap structural proxy for how related two
    /// variables are.
    pub fn clique_distance(&self, from: usize, to: usize) -> Option<usize> {
        self.clique_path(from, to).map(|p| p.len())
    }

    /// Checks the running-intersection property: for every variable, the
    /// cliques containing it induce a connected subtree. Quadratic; used in
    /// tests and debug assertions.
    pub fn satisfies_running_intersection(&self) -> bool {
        let num_vars = self.cards.len();
        for raw in 0..num_vars {
            let var = VarId::from_index(raw);
            let holders: Vec<usize> = (0..self.cliques.len())
                .filter(|&c| self.cliques[c].binary_search(&var).is_ok())
                .collect();
            if holders.len() <= 1 {
                continue;
            }
            // BFS from holders[0] using only edges whose sepset contains var.
            let mut seen = std::collections::HashSet::new();
            let mut stack = vec![holders[0]];
            seen.insert(holders[0]);
            while let Some(c) = stack.pop() {
                for &e in &self.incident[c] {
                    let edge = &self.edges[e];
                    if edge.sepset.binary_search(&var).is_err() {
                        continue;
                    }
                    let other = if edge.a == c { edge.b } else { edge.a };
                    if seen.insert(other) {
                        stack.push(other);
                    }
                }
            }
            if !holders.iter().all(|h| seen.contains(h)) {
                return false;
            }
        }
        true
    }

    /// Renders the junction tree as a Graphviz `graph` (cliques as ellipses
    /// labelled with variable names from `names`, sepsets as edge labels) —
    /// reproducing Figure 4 of the paper for the example circuit.
    pub fn to_dot(&self, names: &dyn Fn(VarId) -> String) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "graph junction_tree {{");
        for (i, clique) in self.cliques.iter().enumerate() {
            let label: Vec<String> = clique.iter().map(|&v| names(v)).collect();
            let _ = writeln!(out, "  c{i} [label=\"C{i}: {{{}}}\"];", label.join(","));
        }
        for e in &self.edges {
            let label: Vec<String> = e.sepset.iter().map(|&v| names(v)).collect();
            let _ = writeln!(
                out,
                "  c{} -- c{} [label=\"{}\"];",
                e.a,
                e.b,
                label.join(",")
            );
        }
        let _ = writeln!(out, "}}");
        out
    }
}

/// Per variable: the cliques containing it, ascending.
fn clique_index(cliques: &[Vec<VarId>], num_vars: usize) -> Vec<Vec<usize>> {
    let mut holders = vec![Vec::new(); num_vars];
    for (ci, clique) in cliques.iter().enumerate() {
        for v in clique {
            holders[v.index()].push(ci);
        }
    }
    holders
}

/// The maximal-weight spanning forest over the clique pairs with a
/// nonempty intersection (weight = |sepset|, tiebreak towards the smaller
/// sepset state space, then the lower pair — both standard for junction
/// trees), by Kruskal: tree edges with their sepsets, per-clique incident
/// edges, and one root clique (the lowest-numbered) per component.
///
/// The pairs come from `holders` rather than from testing every pair:
/// clique `i` meets exactly the later cliques sharing one of its
/// variables. Walking its variables in ascending order gives each pair's
/// sepset size and state product in the same order a sorted intersection
/// would, so the figures — and the forest — are bit-identical to the
/// all-pairs build. A sepset is materialized only for accepted edges.
#[allow(clippy::type_complexity)]
fn spanning_forest(
    cliques: &[Vec<VarId>],
    holders: &[Vec<usize>],
    cards: &[usize],
) -> (Vec<TreeEdge>, Vec<Vec<usize>>, Vec<usize>) {
    let n = cliques.len();
    // (|sepset|, sepset states, i, j)
    let mut candidates: Vec<(usize, f64, usize, usize)> = Vec::new();
    let mut shared: Vec<(usize, f64)> = vec![(0, 1.0); n];
    let mut met: Vec<usize> = Vec::new();
    for (i, clique) in cliques.iter().enumerate() {
        for v in clique {
            let card = cards[v.index()] as f64;
            let list = &holders[v.index()];
            let later = list.partition_point(|&c| c <= i);
            for &j in &list[later..] {
                if shared[j].0 == 0 {
                    met.push(j);
                }
                shared[j].0 += 1;
                shared[j].1 *= card;
            }
        }
        met.sort_unstable();
        for &j in &met {
            let (size, states) = std::mem::replace(&mut shared[j], (0, 1.0));
            candidates.push((size, states, i, j));
        }
        met.clear();
    }
    // The pairs were generated in ascending (i, j) order, so a stable sort
    // on (size descending, states ascending) yields the full order. State
    // counts are products of positive cardinalities, never NaN or
    // negative, so their bit patterns order as the values do.
    candidates.sort_by_key(|&(size, states, _, _)| (Reverse(size), states.to_bits()));
    let mut parent_of: Vec<usize> = (0..n).collect();
    fn find(parent_of: &mut [usize], mut x: usize) -> usize {
        while parent_of[x] != x {
            parent_of[x] = parent_of[parent_of[x]];
            x = parent_of[x];
        }
        x
    }
    let mut edges = Vec::new();
    let mut incident = vec![Vec::new(); n];
    for (_, _, i, j) in candidates {
        let (ri, rj) = (find(&mut parent_of, i), find(&mut parent_of, j));
        if ri != rj {
            parent_of[ri] = rj;
            let edge_idx = edges.len();
            incident[i].push(edge_idx);
            incident[j].push(edge_idx);
            let sepset = sorted_intersection(&cliques[i], &cliques[j]);
            edges.push(TreeEdge { a: i, b: j, sepset });
        }
    }
    let mut seen_root = vec![false; n];
    let mut roots = Vec::new();
    for i in 0..n {
        let r = find(&mut parent_of, i);
        if !std::mem::replace(&mut seen_root[r], true) {
            roots.push(i);
        }
    }
    (edges, incident, roots)
}

/// Per variable: the smallest clique (in states) containing it, the
/// lowest-numbered among equals.
fn home_cliques(cliques: &[Vec<VarId>], holders: &[Vec<usize>], cards: &[usize]) -> Vec<usize> {
    let states: Vec<f64> = cliques
        .iter()
        .map(|c| c.iter().map(|v| cards[v.index()] as f64).product())
        .collect();
    holders
        .iter()
        .map(|list| {
            let mut home = usize::MAX;
            for &c in list {
                if home == usize::MAX || states[c] < states[home] {
                    home = c;
                }
            }
            home
        })
        .collect()
}

fn sorted_intersection(a: &[VarId], b: &[VarId]) -> Vec<VarId> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::{Cpt, Heuristic};

    fn chain(n: usize) -> BayesNet {
        let mut net = BayesNet::new();
        let mut prev = None;
        for i in 0..n {
            let cpt = match prev {
                None => Cpt::prior(vec![0.5, 0.5]),
                Some(_) => Cpt::rows(vec![vec![0.9, 0.1], vec![0.1, 0.9]]),
            };
            let parents: Vec<VarId> = prev.into_iter().collect();
            prev = Some(net.add_var(format!("x{i}"), 2, &parents, cpt).unwrap());
        }
        net
    }

    #[test]
    fn chain_tree_shape() {
        let net = chain(5);
        let tree = JunctionTree::compile(&net).unwrap();
        assert_eq!(tree.num_cliques(), 4);
        assert_eq!(tree.num_edges(), 3);
        assert_eq!(tree.roots().len(), 1);
        assert!(tree.satisfies_running_intersection());
        assert_eq!(tree.total_states(), 16.0);
    }

    #[test]
    fn collider_clique_contains_family() {
        let mut net = BayesNet::new();
        let a = net
            .add_var("a", 2, &[], Cpt::prior(vec![0.5, 0.5]))
            .unwrap();
        let b = net
            .add_var("b", 2, &[], Cpt::prior(vec![0.5, 0.5]))
            .unwrap();
        let c = net
            .add_var("c", 2, &[a, b], Cpt::rows(vec![vec![1.0, 0.0]; 4]))
            .unwrap();
        let tree = JunctionTree::compile(&net).unwrap();
        assert_eq!(tree.num_cliques(), 1);
        assert_eq!(tree.clique(0), &[a, b, c]);
        assert_eq!(tree.cpt_clique(c), 0);
    }

    #[test]
    fn disconnected_networks_form_forest() {
        let mut net = BayesNet::new();
        let _a = net
            .add_var("a", 2, &[], Cpt::prior(vec![0.5, 0.5]))
            .unwrap();
        let _b = net
            .add_var("b", 3, &[], Cpt::prior(vec![0.2, 0.3, 0.5]))
            .unwrap();
        let tree = JunctionTree::compile(&net).unwrap();
        assert_eq!(tree.num_cliques(), 2);
        assert_eq!(tree.num_edges(), 0);
        assert_eq!(tree.roots().len(), 2);
        assert!(tree.satisfies_running_intersection());
    }

    #[test]
    fn empty_network_rejected() {
        let net = BayesNet::new();
        assert!(matches!(
            JunctionTree::compile(&net),
            Err(BayesError::Empty)
        ));
    }

    #[test]
    fn heuristics_both_produce_valid_trees() {
        // Diamond: a → b, a → c, (b,c) → d.
        let mut net = BayesNet::new();
        let a = net
            .add_var("a", 2, &[], Cpt::prior(vec![0.5, 0.5]))
            .unwrap();
        let b = net
            .add_var(
                "b",
                2,
                &[a],
                Cpt::rows(vec![vec![0.7, 0.3], vec![0.3, 0.7]]),
            )
            .unwrap();
        let c = net
            .add_var(
                "c",
                2,
                &[a],
                Cpt::rows(vec![vec![0.6, 0.4], vec![0.4, 0.6]]),
            )
            .unwrap();
        let _d = net
            .add_var("d", 2, &[b, c], Cpt::rows(vec![vec![1.0, 0.0]; 4]))
            .unwrap();
        for h in [Heuristic::MinFill, Heuristic::MinDegree] {
            let tree = JunctionTree::compile_with(&net, h).unwrap();
            assert!(tree.satisfies_running_intersection(), "{h:?}");
            // The diamond's moral graph is a 4-cycle: 2 cliques of size 3.
            assert_eq!(tree.num_cliques(), 2, "{h:?}");
            assert_eq!(tree.max_clique_states(), 8.0);
        }
    }

    #[test]
    fn home_clique_contains_var() {
        let net = chain(6);
        let tree = JunctionTree::compile(&net).unwrap();
        for var in net.var_ids() {
            let home = tree.home_clique(var);
            assert!(tree.clique(home).contains(&var));
        }
    }

    #[test]
    fn dot_rendering_mentions_every_clique() {
        let net = chain(4);
        let tree = JunctionTree::compile(&net).unwrap();
        let dot = tree.to_dot(&|v| format!("x{}", v.index()));
        assert!(dot.starts_with("graph"));
        assert_eq!(dot.matches("label=\"C").count(), tree.num_cliques());
        assert_eq!(dot.matches(" -- ").count(), tree.num_edges());
    }

    /// The all-pairs assembly the indexed build replaced: a sepset for
    /// every clique pair, the incumbent's state product recomputed on
    /// every home-clique comparison, and each CPT's host found by scanning
    /// all cliques. Kept as the oracle [`JunctionTree::compile_with`] must
    /// match exactly.
    fn compile_all_pairs(net: &BayesNet, heuristic: Heuristic) -> JunctionTree {
        let cards = net.cards();
        let moral = moral_graph(net);
        let tri = triangulate(&moral, &cards, heuristic);
        let cliques: Vec<Vec<VarId>> = tri
            .cliques
            .iter()
            .map(|c| c.iter().map(|&i| VarId::from_index(i)).collect())
            .collect();
        let mut candidates: Vec<(usize, f64, usize, usize, Vec<VarId>)> = Vec::new();
        for i in 0..cliques.len() {
            for j in i + 1..cliques.len() {
                let sepset = sorted_intersection(&cliques[i], &cliques[j]);
                if !sepset.is_empty() {
                    let states: f64 = sepset.iter().map(|v| cards[v.index()] as f64).product();
                    candidates.push((sepset.len(), states, i, j, sepset));
                }
            }
        }
        candidates.sort_by(|x, y| {
            y.0.cmp(&x.0)
                .then(x.1.total_cmp(&y.1))
                .then(x.2.cmp(&y.2))
                .then(x.3.cmp(&y.3))
        });
        let mut parent_of: Vec<usize> = (0..cliques.len()).collect();
        fn find(parent_of: &mut [usize], mut x: usize) -> usize {
            while parent_of[x] != x {
                parent_of[x] = parent_of[parent_of[x]];
                x = parent_of[x];
            }
            x
        }
        let mut edges = Vec::new();
        let mut incident = vec![Vec::new(); cliques.len()];
        for (_, _, i, j, sepset) in candidates {
            let (ri, rj) = (find(&mut parent_of, i), find(&mut parent_of, j));
            if ri != rj {
                parent_of[ri] = rj;
                let edge_idx = edges.len();
                incident[i].push(edge_idx);
                incident[j].push(edge_idx);
                edges.push(TreeEdge { a: i, b: j, sepset });
            }
        }
        let mut roots = Vec::new();
        let mut seen_root = std::collections::HashSet::new();
        for i in 0..cliques.len() {
            let r = find(&mut parent_of, i);
            if seen_root.insert(r) {
                roots.push(i);
            }
        }
        let mut home_clique = vec![usize::MAX; net.num_vars()];
        for (ci, clique) in cliques.iter().enumerate() {
            let size: f64 = clique.iter().map(|v| cards[v.index()] as f64).product();
            for &v in clique {
                let cur = home_clique[v.index()];
                if cur == usize::MAX {
                    home_clique[v.index()] = ci;
                } else {
                    let cur_size: f64 = cliques[cur]
                        .iter()
                        .map(|v| cards[v.index()] as f64)
                        .product();
                    if size < cur_size {
                        home_clique[v.index()] = ci;
                    }
                }
            }
        }
        let mut cpt_clique = vec![usize::MAX; net.num_vars()];
        for var in net.var_ids() {
            let mut family: Vec<VarId> = net.parents(var).to_vec();
            family.push(var);
            family.sort_unstable();
            family.dedup();
            cpt_clique[var.index()] = cliques
                .iter()
                .position(|c| family.iter().all(|v| c.binary_search(v).is_ok()))
                .unwrap();
        }
        JunctionTree::from_codec_parts(
            cliques,
            edges,
            incident,
            roots,
            home_clique,
            cpt_clique,
            cards,
            tri.fill.len(),
            tri.total_states,
        )
    }

    /// SplitMix64: the test nets' deterministic randomness.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A random net of `n` variables with 1–4 states, split into
    /// `components` groups (variable `v` joins group `v % components`):
    /// each variable draws up to `max_parents` distinct earlier parents
    /// from its own group, so a net with several groups is disconnected,
    /// and parentless, childless variables are isolated cliques.
    fn random_net(n: usize, components: usize, max_parents: usize, seed: u64) -> BayesNet {
        let mut state = seed;
        let mut net = BayesNet::new();
        let mut vars: Vec<VarId> = Vec::new();
        for v in 0..n {
            let card = 1 + (splitmix(&mut state) % 4) as usize;
            let pool: Vec<VarId> = (0..v)
                .filter(|u| u % components == v % components)
                .map(|u| vars[u])
                .collect();
            let want = (splitmix(&mut state) % (max_parents as u64 + 1)) as usize;
            let mut parents: Vec<VarId> = Vec::new();
            for _ in 0..want.min(pool.len()) * 2 {
                let p = pool[pool.len() - 1 - (splitmix(&mut state) % pool.len() as u64) as usize];
                if parents.len() < want && !parents.contains(&p) {
                    parents.push(p);
                }
            }
            let rows: usize = parents.iter().map(|&p| net.card(p)).product();
            let cpt = Cpt::deterministic(rows, card, |r| r % card);
            vars.push(net.add_var(format!("v{v}"), card, &parents, cpt).unwrap());
        }
        net
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The indexed assembly builds the all-pairs tree exactly: the
        /// same edges (endpoints, sepsets, order), incident lists, roots,
        /// home cliques and CPT cliques, on connected and disconnected nets.
        #[test]
        fn indexed_assembly_matches_all_pairs(
            n in 1usize..60,
            components in 1usize..4,
            max_parents in 0usize..5,
            seed in 0u64..u64::MAX,
        ) {
            let net = random_net(n, components, max_parents, seed);
            for h in [Heuristic::MinFill, Heuristic::MinDegree] {
                let fast = JunctionTree::compile_with(&net, h).unwrap();
                let slow = compile_all_pairs(&net, h);
                assert_eq!(fast.cliques(), slow.cliques());
                assert_eq!(fast.sepsets(), slow.sepsets());
                assert_eq!(fast.incident, slow.incident);
                assert_eq!(fast.roots(), slow.roots());
                assert_eq!(fast.home_clique, slow.home_clique);
                assert_eq!(fast.cpt_clique, slow.cpt_clique);
                assert_eq!(fast.fill_edges(), slow.fill_edges());
                assert_eq!(fast.total_states().to_bits(), slow.total_states().to_bits());
                assert!(fast.satisfies_running_intersection());
            }
        }
    }
}
