//! Undirected-graph machinery for Bayesian-network compilation:
//! moralization and basic adjacency operations.

use std::collections::BTreeSet;

use crate::{BayesNet, VarId};

/// A simple undirected graph over dense node indices, used for moral graphs
/// and triangulation.
///
/// # Example
///
/// ```
/// use swact_bayesnet::graph::UndirectedGraph;
///
/// let mut g = UndirectedGraph::new(3);
/// g.add_edge(0, 1);
/// g.add_edge(1, 2);
/// assert!(g.has_edge(1, 0));
/// assert!(!g.has_edge(0, 2));
/// assert_eq!(g.degree(1), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UndirectedGraph {
    adjacency: Vec<BTreeSet<usize>>,
}

impl UndirectedGraph {
    /// Creates an edgeless graph with `n` nodes.
    pub fn new(n: usize) -> UndirectedGraph {
        UndirectedGraph {
            adjacency: vec![BTreeSet::new(); n],
        }
    }

    /// Appends an isolated node and returns its index.
    pub fn add_node(&mut self) -> usize {
        self.adjacency.push(BTreeSet::new());
        self.adjacency.len() - 1
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of (undirected) edges.
    pub fn num_edges(&self) -> usize {
        self.adjacency.iter().map(BTreeSet::len).sum::<usize>() / 2
    }

    /// Adds an undirected edge. Self-loops are ignored.
    pub fn add_edge(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        self.adjacency[a].insert(b);
        self.adjacency[b].insert(a);
    }

    /// Removes an edge if present.
    pub fn remove_edge(&mut self, a: usize, b: usize) {
        self.adjacency[a].remove(&b);
        self.adjacency[b].remove(&a);
    }

    /// Whether `a` and `b` are adjacent.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.adjacency[a].contains(&b)
    }

    /// The neighbors of `node`, ascending.
    pub fn neighbors(&self, node: usize) -> &BTreeSet<usize> {
        &self.adjacency[node]
    }

    /// Degree of `node`.
    pub fn degree(&self, node: usize) -> usize {
        self.adjacency[node].len()
    }

    /// Removes `node` from the graph (clears all incident edges; the node
    /// index stays valid but isolated).
    pub fn isolate(&mut self, node: usize) {
        let neighbors: Vec<usize> = self.adjacency[node].iter().copied().collect();
        for n in neighbors {
            self.remove_edge(node, n);
        }
    }

    /// Whether `nodes` form a clique.
    pub fn is_clique(&self, nodes: &[usize]) -> bool {
        for (i, &a) in nodes.iter().enumerate() {
            for &b in &nodes[i + 1..] {
                if !self.has_edge(a, b) {
                    return false;
                }
            }
        }
        true
    }

    /// Connected components as sorted node lists.
    pub fn components(&self) -> Vec<Vec<usize>> {
        let n = self.num_nodes();
        let mut seen = vec![false; n];
        let mut components = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            let mut component = Vec::new();
            let mut stack = vec![start];
            seen[start] = true;
            while let Some(node) = stack.pop() {
                component.push(node);
                for &next in &self.adjacency[node] {
                    if !seen[next] {
                        seen[next] = true;
                        stack.push(next);
                    }
                }
            }
            component.sort_unstable();
            components.push(component);
        }
        components
    }
}

/// Builds the **moral graph** of a Bayesian network: for every variable,
/// its parents are pairwise connected ("married") and all directed edges
/// become undirected. The moral graph is the Markov structure of the
/// underlying joint distribution (paper §5, first compilation step).
///
/// # Example
///
/// ```
/// use swact_bayesnet::{graph::moral_graph, BayesNet, Cpt};
///
/// # fn main() -> Result<(), swact_bayesnet::BayesError> {
/// let mut net = BayesNet::new();
/// let a = net.add_var("a", 2, &[], Cpt::prior(vec![0.5, 0.5]))?;
/// let b = net.add_var("b", 2, &[], Cpt::prior(vec![0.5, 0.5]))?;
/// let c = net.add_var(
///     "c",
///     2,
///     &[a, b],
///     Cpt::rows(vec![vec![1.0, 0.0]; 4]),
/// )?;
/// let g = moral_graph(&net);
/// // a—c, b—c (directed edges) plus the moral edge a—b.
/// assert!(g.has_edge(a.index(), b.index()));
/// assert_eq!(g.num_edges(), 3);
/// # Ok(())
/// # }
/// ```
pub fn moral_graph(net: &BayesNet) -> UndirectedGraph {
    let mut g = UndirectedGraph::new(net.num_vars());
    for var in net.var_ids() {
        let parents = net.parents(var);
        for &p in parents {
            g.add_edge(var.index(), p.index());
        }
        for (i, &p) in parents.iter().enumerate() {
            for &q in &parents[i + 1..] {
                g.add_edge(p.index(), q.index());
            }
        }
    }
    g
}

/// Convenience: the moral-graph neighbors of a variable as `VarId`s.
pub fn moral_neighbors(net: &BayesNet, var: VarId) -> Vec<VarId> {
    moral_graph(net)
        .neighbors(var.index())
        .iter()
        .map(|&i| VarId::from_index(i))
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::Cpt;

    #[test]
    fn basic_graph_operations() {
        let mut g = UndirectedGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 1); // duplicate ignored
        g.add_edge(2, 3);
        g.add_edge(0, 0); // self-loop ignored
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(0), 1);
        g.remove_edge(0, 1);
        assert_eq!(g.num_edges(), 1);
        assert!(!g.has_edge(0, 1));
    }

    #[test]
    fn isolate_clears_incident_edges() {
        let mut g = UndirectedGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.isolate(0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(1), 0);
    }

    #[test]
    fn clique_detection() {
        let mut g = UndirectedGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 2);
        assert!(g.is_clique(&[0, 1, 2]));
        assert!(g.is_clique(&[0, 1]));
        assert!(g.is_clique(&[3]));
        assert!(!g.is_clique(&[0, 1, 3]));
    }

    #[test]
    fn components_split() {
        let mut g = UndirectedGraph::new(5);
        g.add_edge(0, 1);
        g.add_edge(3, 4);
        let comps = g.components();
        assert_eq!(comps, vec![vec![0, 1], vec![2], vec![3, 4]]);
    }

    #[test]
    fn moralization_marries_parents() {
        let mut net = BayesNet::new();
        let a = net
            .add_var("a", 2, &[], Cpt::prior(vec![0.5, 0.5]))
            .unwrap();
        let b = net
            .add_var("b", 2, &[], Cpt::prior(vec![0.5, 0.5]))
            .unwrap();
        let c = net
            .add_var("c", 2, &[], Cpt::prior(vec![0.5, 0.5]))
            .unwrap();
        let d = net
            .add_var("d", 2, &[a, b, c], Cpt::rows(vec![vec![1.0, 0.0]; 8]))
            .unwrap();
        let g = moral_graph(&net);
        // Three directed edges plus the triangle among {a,b,c}.
        assert_eq!(g.num_edges(), 6);
        assert!(g.is_clique(&[a.index(), b.index(), c.index(), d.index()]));
    }

    #[test]
    fn moral_neighbors_of_collider_parent() {
        let mut net = BayesNet::new();
        let a = net
            .add_var("a", 2, &[], Cpt::prior(vec![0.5, 0.5]))
            .unwrap();
        let b = net
            .add_var("b", 2, &[], Cpt::prior(vec![0.5, 0.5]))
            .unwrap();
        let _c = net
            .add_var("c", 2, &[a, b], Cpt::rows(vec![vec![1.0, 0.0]; 4]))
            .unwrap();
        let nbrs = moral_neighbors(&net, a);
        assert!(nbrs.contains(&b), "parents married");
    }
}
