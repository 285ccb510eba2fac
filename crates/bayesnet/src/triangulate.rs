//! Triangulation of moral graphs by node elimination.
//!
//! Eliminating a node connects all of its remaining neighbors (the *fill*
//! edges) and records the induced clique `{node} ∪ neighbors`. Running this
//! to completion yields a chordal supergraph whose maximal cliques are a
//! subset of the recorded elimination cliques. Finding the minimum-fill
//! triangulation is NP-hard, so the elimination order is chosen greedily by
//! one of two classic [`Heuristic`]s; ties break towards the smaller clique
//! state space and then the lower node index, keeping results deterministic.
//!
//! Scores are cached rather than recomputed: after each elimination only
//! the nodes whose score can change are rescored, and the next node comes
//! off an ordered set. Adjacency is kept as sorted vectors, so memory stays
//! O(n + e) (plus the fill) with no n×n matrix. The result is bit-identical
//! to rescanning every node at every step.

use std::collections::BTreeSet;

use crate::graph::UndirectedGraph;

/// Greedy node-selection heuristic for the elimination order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Heuristic {
    /// Eliminate the node introducing the fewest fill edges. Usually the
    /// best cliques. Eliminating `v` rescores its neighbors and the
    /// neighbors of every new fill edge's endpoints — at most d + d² nodes
    /// for maximum degree d — at O(d²) each, plus O(log n) per queue
    /// update.
    #[default]
    MinFill,
    /// Eliminate the node with the fewest *weighted* neighbors (smallest
    /// induced-clique state space). Eliminating `v` rescores only its d
    /// neighbors, O(d) each plus O(log n) per queue update; often slightly
    /// worse cliques.
    MinDegree,
}

/// Result of triangulating a graph.
#[derive(Debug, Clone)]
pub struct Triangulation {
    /// The elimination order (every node exactly once).
    pub order: Vec<usize>,
    /// The chordal graph: input plus fill edges.
    pub filled: UndirectedGraph,
    /// Number of fill edges added.
    pub fill_edges: usize,
    /// Maximal cliques of the chordal graph, each sorted ascending.
    pub cliques: Vec<Vec<usize>>,
    /// Σ over maximal cliques of the product of member cardinalities — the
    /// junction-tree state space this triangulation induces.
    pub total_states: f64,
}

/// Triangulates `graph`, where `weights[v]` is the cardinality of node `v`
/// (used for weighted tie-breaking and cost reporting).
///
/// # Panics
///
/// Panics if `weights.len() != graph.num_nodes()` or any weight is zero.
///
/// # Example
///
/// ```
/// use swact_bayesnet::graph::UndirectedGraph;
/// use swact_bayesnet::triangulate::{triangulate, Heuristic};
///
/// // A 4-cycle needs exactly one chord.
/// let mut g = UndirectedGraph::new(4);
/// for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
///     g.add_edge(a, b);
/// }
/// let t = triangulate(&g, &[2, 2, 2, 2], Heuristic::MinFill);
/// assert_eq!(t.fill_edges, 1);
/// assert_eq!(t.cliques.len(), 2); // two triangles
/// ```
pub fn triangulate(
    graph: &UndirectedGraph,
    weights: &[usize],
    heuristic: Heuristic,
) -> Triangulation {
    let elimination = eliminate(graph, weights, heuristic);
    let mut filled = graph.clone();
    for &(a, b) in &elimination.fill {
        filled.add_edge(a, b);
    }
    Triangulation {
        order: elimination.order,
        filled,
        fill_edges: elimination.fill.len(),
        cliques: elimination.cliques,
        total_states: elimination.total_states,
    }
}

/// Estimates the junction-tree state space a graph would induce under the
/// given heuristic, without keeping the triangulation. Used by circuit
/// segmentation to decide when a sub-network is getting too expensive.
pub fn estimate_cost(graph: &UndirectedGraph, weights: &[usize], heuristic: Heuristic) -> f64 {
    eliminate(graph, weights, heuristic).total_states
}

/// One greedy elimination run: everything a [`Triangulation`] holds except
/// the filled graph, which only [`triangulate`] materializes.
struct Elimination {
    order: Vec<usize>,
    /// Fill edges in the order they were added.
    fill: Vec<(usize, usize)>,
    /// Maximal cliques, sorted.
    cliques: Vec<Vec<usize>>,
    total_states: f64,
}

/// The graph being eliminated: sorted neighbor vectors of the live nodes,
/// plus a stamped mark array for O(1) membership tests.
struct LiveGraph<'w> {
    adjacency: Vec<Vec<usize>>,
    weights: &'w [usize],
    heuristic: Heuristic,
    mark: Vec<usize>,
    stamp: usize,
}

impl LiveGraph<'_> {
    /// A fresh mark value; nodes marked with an older one count as unmarked.
    fn next_stamp(&mut self) -> usize {
        self.stamp += 1;
        self.stamp
    }

    /// `(score, clique_states)` of eliminating `node` next. The clique
    /// product runs over the neighbors in ascending order, so the figures
    /// are bit-identical to a full rescan's.
    fn score(&mut self, node: usize) -> (f64, f64) {
        let weights = self.weights;
        let clique_states = weights[node] as f64
            * self.adjacency[node]
                .iter()
                .map(|&v| weights[v] as f64)
                .product::<f64>();
        let score = match self.heuristic {
            Heuristic::MinFill => {
                let stamp = self.next_stamp();
                let neighbors = &self.adjacency[node];
                for &a in neighbors {
                    self.mark[a] = stamp;
                }
                // Each edge inside the neighborhood is seen from both ends.
                let inside: usize = neighbors
                    .iter()
                    .map(|&a| {
                        self.adjacency[a]
                            .iter()
                            .filter(|&&b| self.mark[b] == stamp)
                            .count()
                    })
                    .sum();
                let d = neighbors.len();
                (d * d.saturating_sub(1) / 2 - inside / 2) as f64
            }
            Heuristic::MinDegree => clique_states,
        };
        (score, clique_states)
    }
}

/// Selection key of a node. Scores and clique state counts are
/// non-negative and never NaN, and for such values the IEEE-754 bit
/// patterns order exactly as the values do.
fn key((score, clique_states): (f64, f64), node: usize) -> (u64, u64, usize) {
    (score.to_bits(), clique_states.to_bits(), node)
}

fn insert_sorted(list: &mut Vec<usize>, x: usize) {
    if let Err(at) = list.binary_search(&x) {
        list.insert(at, x);
    }
}

fn remove_sorted(list: &mut Vec<usize>, x: usize) {
    if let Ok(at) = list.binary_search(&x) {
        list.remove(at);
    }
}

/// Greedy elimination with cached scores. After eliminating `v` only the
/// nodes whose score can change are rescored: `v`'s neighbors (their
/// neighborhoods changed) and, under min-fill, every neighbor of a new
/// fill edge's endpoint (a node's fill count changes only when an edge
/// appears or disappears inside its neighborhood). The next node is the
/// minimum of an ordered set keyed `(score, clique_states, node)` — the
/// same tie-break as rescanning every node at every step.
fn eliminate(graph: &UndirectedGraph, weights: &[usize], heuristic: Heuristic) -> Elimination {
    let n = graph.num_nodes();
    assert_eq!(weights.len(), n, "one weight per node");
    assert!(weights.iter().all(|&w| w > 0), "weights must be positive");
    let mut live = LiveGraph {
        adjacency: (0..n)
            .map(|v| graph.neighbors(v).iter().copied().collect())
            .collect(),
        weights,
        heuristic,
        mark: vec![0; n],
        stamp: 0,
    };
    let mut scores: Vec<(f64, f64)> = (0..n).map(|v| live.score(v)).collect();
    let mut queue: BTreeSet<(u64, u64, usize)> =
        scores.iter().enumerate().map(|(v, &s)| key(s, v)).collect();
    let mut order = Vec::with_capacity(n);
    let mut fill = Vec::new();
    let mut raw_cliques: Vec<Vec<usize>> = Vec::with_capacity(n);
    let mut gained_fill: Vec<bool> = Vec::new();
    let mut rescore: Vec<usize> = Vec::new();

    while let Some((_, _, node)) = queue.pop_first() {
        let neighbors = std::mem::take(&mut live.adjacency[node]);
        for &a in &neighbors {
            remove_sorted(&mut live.adjacency[a], node);
        }
        // Fill edges among the neighbors, found against the adjacency as
        // it stood before this step (no pair is tested twice).
        let fill_start = fill.len();
        gained_fill.clear();
        gained_fill.resize(neighbors.len(), false);
        for (i, &a) in neighbors.iter().enumerate() {
            let stamp = live.next_stamp();
            for &x in &live.adjacency[a] {
                live.mark[x] = stamp;
            }
            for (j, &b) in neighbors.iter().enumerate().skip(i + 1) {
                if live.mark[b] != stamp {
                    fill.push((a, b));
                    gained_fill[i] = true;
                    gained_fill[j] = true;
                }
            }
        }
        for &(a, b) in &fill[fill_start..] {
            insert_sorted(&mut live.adjacency[a], b);
            insert_sorted(&mut live.adjacency[b], a);
        }

        // Collect the nodes to rescore before rescoring: `score` reuses
        // the mark array.
        let stamp = live.next_stamp();
        rescore.clear();
        for &a in &neighbors {
            live.mark[a] = stamp;
            rescore.push(a);
        }
        if heuristic == Heuristic::MinFill {
            for (&a, _) in neighbors.iter().zip(&gained_fill).filter(|(_, &g)| g) {
                for &u in &live.adjacency[a] {
                    if live.mark[u] != stamp {
                        live.mark[u] = stamp;
                        rescore.push(u);
                    }
                }
            }
        }
        for &u in &rescore {
            let fresh = live.score(u);
            let cached = scores[u];
            if key(fresh, u) != key(cached, u) {
                queue.remove(&key(cached, u));
                queue.insert(key(fresh, u));
                scores[u] = fresh;
            }
        }

        let mut clique = neighbors;
        insert_sorted(&mut clique, node);
        raw_cliques.push(clique);
        order.push(node);
    }

    let cliques = maximal_cliques(&order, raw_cliques);
    let total_states = cliques
        .iter()
        .map(|c| c.iter().map(|&v| weights[v] as f64).product::<f64>())
        .sum();
    Elimination {
        order,
        fill,
        cliques,
        total_states,
    }
}

/// The maximal cliques among the elimination cliques, sorted. `cliques[i]`
/// is the clique recorded when `order[i]` was eliminated. A proper
/// superset of `C_v` must contain `v`, and `v` joins no clique after its
/// own elimination, so `C_v` is tested only against the earlier cliques
/// that contain `v`. (Elimination cliques are pairwise distinct: each holds
/// its own node and no earlier-eliminated one.)
fn maximal_cliques(order: &[usize], cliques: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
    // Per not-yet-eliminated node: the recorded cliques containing it.
    let mut containing: Vec<Vec<usize>> = vec![Vec::new(); order.len()];
    let mut maximal = vec![true; cliques.len()];
    for (step, &v) in order.iter().enumerate() {
        let clique = &cliques[step];
        maximal[step] = !std::mem::take(&mut containing[v])
            .into_iter()
            .any(|earlier| is_subset(clique, &cliques[earlier]));
        for &u in clique {
            if u != v {
                containing[u].push(step);
            }
        }
    }
    let mut kept: Vec<Vec<usize>> = cliques
        .into_iter()
        .zip(maximal)
        .filter_map(|(clique, keep)| keep.then_some(clique))
        .collect();
    kept.sort();
    kept
}

fn is_subset(small: &[usize], big: &[usize]) -> bool {
    // Both sorted.
    let mut j = 0;
    for &x in small {
        while j < big.len() && big[j] < x {
            j += 1;
        }
        if j >= big.len() || big[j] != x {
            return false;
        }
        j += 1;
    }
    true
}

/// Verifies that a graph is chordal by checking that the given elimination
/// order is *perfect*: at each step, the not-yet-eliminated neighbors of
/// the eliminated node form a clique. Test helper.
pub fn is_perfect_elimination_order(graph: &UndirectedGraph, order: &[usize]) -> bool {
    let mut work = graph.clone();
    for &node in order {
        let neighbors: Vec<usize> = work.neighbors(node).iter().copied().collect();
        if !work.is_clique(&neighbors) {
            return false;
        }
        work.isolate(node);
    }
    true
}

/// The original triangulation: every remaining node is rescored at every
/// step and maximal cliques are found by testing all clique pairs. Kept as
/// the oracle the cached-score elimination must match bit for bit.
#[cfg(test)]
mod reference {
    use super::{is_subset, Heuristic, Triangulation};
    use crate::graph::UndirectedGraph;

    pub(super) fn triangulate_reference(
        graph: &UndirectedGraph,
        weights: &[usize],
        heuristic: Heuristic,
    ) -> Triangulation {
        let n = graph.num_nodes();
        assert_eq!(weights.len(), n, "one weight per node");
        assert!(weights.iter().all(|&w| w > 0), "weights must be positive");
        let mut work = graph.clone();
        let mut filled = graph.clone();
        let mut eliminated = vec![false; n];
        let mut order = Vec::with_capacity(n);
        let mut raw_cliques: Vec<Vec<usize>> = Vec::new();
        let mut fill_edges = 0usize;

        for _ in 0..n {
            let node = select_node(&work, weights, &eliminated, heuristic);
            let neighbors: Vec<usize> = work.neighbors(node).iter().copied().collect();
            // Record the induced clique.
            let mut clique = neighbors.clone();
            clique.push(node);
            clique.sort_unstable();
            raw_cliques.push(clique);
            // Add fill edges among neighbors.
            for (i, &a) in neighbors.iter().enumerate() {
                for &b in &neighbors[i + 1..] {
                    if !work.has_edge(a, b) {
                        work.add_edge(a, b);
                        filled.add_edge(a, b);
                        fill_edges += 1;
                    }
                }
            }
            work.isolate(node);
            eliminated[node] = true;
            order.push(node);
        }

        let cliques = maximal_cliques(raw_cliques);
        let total_states = cliques
            .iter()
            .map(|c| c.iter().map(|&v| weights[v] as f64).product::<f64>())
            .sum();
        Triangulation {
            order,
            filled,
            fill_edges,
            cliques,
            total_states,
        }
    }

    fn select_node(
        work: &UndirectedGraph,
        weights: &[usize],
        eliminated: &[bool],
        heuristic: Heuristic,
    ) -> usize {
        let mut best: Option<(f64, f64, usize)> = None; // (score, clique_states, node)
        for node in 0..work.num_nodes() {
            if eliminated[node] {
                continue;
            }
            let neighbors: Vec<usize> = work.neighbors(node).iter().copied().collect();
            let clique_states: f64 = weights[node] as f64
                * neighbors
                    .iter()
                    .map(|&v| weights[v] as f64)
                    .product::<f64>();
            let score = match heuristic {
                Heuristic::MinFill => {
                    let mut fill = 0usize;
                    for (i, &a) in neighbors.iter().enumerate() {
                        for &b in &neighbors[i + 1..] {
                            if !work.has_edge(a, b) {
                                fill += 1;
                            }
                        }
                    }
                    fill as f64
                }
                Heuristic::MinDegree => clique_states,
            };
            let candidate = (score, clique_states, node);
            let better = match best {
                None => true,
                Some(b) => {
                    candidate.0 < b.0
                        || (candidate.0 == b.0 && candidate.1 < b.1)
                        || (candidate.0 == b.0 && candidate.1 == b.1 && candidate.2 < b.2)
                }
            };
            if better {
                best = Some(candidate);
            }
        }
        best.expect("at least one uneliminated node").2
    }

    /// Filters a list of sorted cliques down to the maximal ones.
    fn maximal_cliques(mut cliques: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
        // Sort by descending size so any superset precedes its subsets.
        cliques.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
        cliques.dedup();
        let mut kept: Vec<Vec<usize>> = Vec::new();
        'outer: for clique in cliques {
            for big in &kept {
                if is_subset(&clique, big) {
                    continue 'outer;
                }
            }
            kept.push(clique);
        }
        kept.sort();
        kept
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::reference::triangulate_reference;
    use super::*;
    use proptest::prelude::*;

    fn cycle(n: usize) -> UndirectedGraph {
        let mut g = UndirectedGraph::new(n);
        for i in 0..n {
            g.add_edge(i, (i + 1) % n);
        }
        g
    }

    #[test]
    fn triangle_is_already_chordal() {
        let g = cycle(3);
        let t = triangulate(&g, &[2; 3], Heuristic::MinFill);
        assert_eq!(t.fill_edges, 0);
        assert_eq!(t.cliques, vec![vec![0, 1, 2]]);
        assert_eq!(t.total_states, 8.0);
    }

    #[test]
    fn square_gets_one_chord() {
        let g = cycle(4);
        for h in [Heuristic::MinFill, Heuristic::MinDegree] {
            let t = triangulate(&g, &[2; 4], h);
            assert_eq!(t.fill_edges, 1, "{h:?}");
            assert_eq!(t.cliques.len(), 2);
            assert!(is_perfect_elimination_order(&t.filled, &t.order));
        }
    }

    #[test]
    fn long_cycle_fill_count() {
        // An n-cycle needs n-3 chords.
        for n in [5, 6, 8] {
            let t = triangulate(&cycle(n), &vec![2; n], Heuristic::MinFill);
            assert_eq!(t.fill_edges, n - 3, "cycle of {n}");
            assert!(is_perfect_elimination_order(&t.filled, &t.order));
        }
    }

    #[test]
    fn tree_needs_no_fill() {
        // A star: node 0 connected to 1..=4.
        let mut g = UndirectedGraph::new(5);
        for i in 1..5 {
            g.add_edge(0, i);
        }
        let t = triangulate(&g, &[2; 5], Heuristic::MinFill);
        assert_eq!(t.fill_edges, 0);
        assert_eq!(t.cliques.len(), 4);
        assert!(t.cliques.iter().all(|c| c.len() == 2));
    }

    #[test]
    fn cliques_are_maximal_and_cover_edges() {
        let g = cycle(6);
        let t = triangulate(&g, &[3; 6], Heuristic::MinDegree);
        // Every original edge must lie inside some clique.
        for a in 0..6 {
            for &b in g.neighbors(a) {
                assert!(
                    t.cliques.iter().any(|c| c.contains(&a) && c.contains(&b)),
                    "edge ({a},{b}) uncovered"
                );
            }
        }
        // No clique is a subset of another.
        for (i, a) in t.cliques.iter().enumerate() {
            for (j, b) in t.cliques.iter().enumerate() {
                if i != j {
                    assert!(!is_subset(a, b), "{a:?} ⊆ {b:?}");
                }
            }
        }
    }

    #[test]
    fn disconnected_graph_triangulates() {
        let mut g = UndirectedGraph::new(6);
        g.add_edge(0, 1);
        g.add_edge(3, 4);
        g.add_edge(4, 5);
        g.add_edge(3, 5);
        let t = triangulate(&g, &[2; 6], Heuristic::MinFill);
        assert_eq!(t.fill_edges, 0);
        assert_eq!(t.order.len(), 6);
        // Cliques: {0,1}, isolated {2}, triangle {3,4,5}.
        assert!(t.cliques.contains(&vec![2]));
        assert!(t.cliques.contains(&vec![3, 4, 5]));
    }

    #[test]
    fn weights_steer_min_degree() {
        // Path 0-1-2 where node 1 is huge: both heuristics still eliminate
        // endpoints first (no fill), but cost accounts for weights.
        let mut g = UndirectedGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        let t = triangulate(&g, &[2, 100, 2], Heuristic::MinDegree);
        assert_eq!(t.fill_edges, 0);
        assert_eq!(t.total_states, 200.0 + 200.0);
    }

    #[test]
    fn estimate_cost_matches_triangulation() {
        let g = cycle(5);
        let t = triangulate(&g, &[2; 5], Heuristic::MinFill);
        assert_eq!(
            estimate_cost(&g, &[2; 5], Heuristic::MinFill),
            t.total_states
        );
    }

    /// SplitMix64: the test graphs' deterministic randomness.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A random graph of `n` nodes with weights in 1–5. Shapes: 0 random
    /// at `density`; 1 disconnected (two random halves, isolated nodes);
    /// 2 complete; 3 star; 4 overlapping gate-family cliques, like a
    /// segment's moral graph.
    fn random_graph(
        n: usize,
        shape: usize,
        density: f64,
        seed: u64,
    ) -> (UndirectedGraph, Vec<usize>) {
        let mut state = seed;
        let mut coin = |p: f64| (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64 <= p;
        let mut g = UndirectedGraph::new(n);
        match shape {
            0 => {
                for a in 0..n {
                    for b in a + 1..n {
                        if coin(density) {
                            g.add_edge(a, b);
                        }
                    }
                }
            }
            1 => {
                let half = n / 2;
                for a in 0..n {
                    for b in a + 1..n {
                        if (a < half) == (b < half) && a % 5 != 4 && b % 5 != 4 && coin(density) {
                            g.add_edge(a, b);
                        }
                    }
                }
            }
            2 => {
                for a in 0..n {
                    for b in a + 1..n {
                        g.add_edge(a, b);
                    }
                }
            }
            3 => {
                for b in 1..n {
                    g.add_edge(0, b);
                }
            }
            _ => {
                for v in 1..n {
                    let mut family = vec![v];
                    for u in 0..v {
                        if family.len() < 5 && coin(density * 4.0 / v as f64) {
                            family.push(u);
                        }
                    }
                    for (i, &a) in family.iter().enumerate() {
                        for &b in &family[i + 1..] {
                            g.add_edge(a, b);
                        }
                    }
                }
            }
        }
        let weights = (0..n)
            .map(|_| 1 + (splitmix(&mut state) % 5) as usize)
            .collect();
        (g, weights)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The cached-score elimination reproduces the full-rescan
        /// reference exactly: order, cliques, fill, filled graph and the
        /// state-space total down to its bits.
        #[test]
        fn cached_scores_match_the_reference(
            n in 1usize..61,
            shape in 0usize..5,
            density in 0.0f64..1.0,
            seed in 0u64..u64::MAX,
        ) {
            let (g, weights) = random_graph(n, shape, density, seed);
            for heuristic in [Heuristic::MinFill, Heuristic::MinDegree] {
                let fast = triangulate(&g, &weights, heuristic);
                let slow = triangulate_reference(&g, &weights, heuristic);
                prop_assert_eq!(&fast.order, &slow.order);
                prop_assert_eq!(&fast.cliques, &slow.cliques);
                prop_assert_eq!(fast.fill_edges, slow.fill_edges);
                prop_assert_eq!(&fast.filled, &slow.filled);
                prop_assert_eq!(fast.total_states.to_bits(), slow.total_states.to_bits());
                prop_assert_eq!(
                    estimate_cost(&g, &weights, heuristic).to_bits(),
                    slow.total_states.to_bits()
                );
            }
        }
    }

    #[test]
    fn subset_helper() {
        assert!(is_subset(&[1, 3], &[0, 1, 2, 3]));
        assert!(!is_subset(&[1, 4], &[0, 1, 2, 3]));
        assert!(is_subset(&[], &[0]));
    }
}
