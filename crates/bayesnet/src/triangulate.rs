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
//! the nodes whose score changed are updated, and the next node comes off
//! a priority queue. Adjacency is kept as sorted vectors, so memory stays
//! O(n + e) (plus the fill) with no n×n matrix. The result is bit-identical
//! to rescanning every node at every step. An [`Eliminator`] keeps every
//! buffer between runs, so a caller that triangulates many graphs (the
//! segmentation planner) allocates once.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::graph::UndirectedGraph;

/// Greedy node-selection heuristic for the elimination order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Heuristic {
    /// Eliminate the node introducing the fewest fill edges. Usually the
    /// best cliques. Eliminating `v` recounts its d neighbors at O(d²)
    /// each; a node outside the neighborhood changes only by the new fill
    /// edges it sees, found as common neighbors of each fill edge's
    /// endpoints at O(d) per edge. Each changed score costs O(log n) in
    /// the queue.
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
    /// The fill edges in the order they were added.
    pub fill: Vec<(usize, usize)>,
    /// Maximal cliques of the chordal graph, each sorted ascending.
    pub cliques: Vec<Vec<usize>>,
    /// Σ over maximal cliques of the product of member cardinalities — the
    /// junction-tree state space this triangulation induces.
    pub total_states: f64,
}

impl Triangulation {
    /// The chordal graph: `graph` (the triangulated input) plus the fill
    /// edges.
    pub fn filled(&self, graph: &UndirectedGraph) -> UndirectedGraph {
        let mut filled = graph.clone();
        for &(a, b) in &self.fill {
            filled.add_edge(a, b);
        }
        filled
    }
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
/// assert_eq!(t.fill.len(), 1);
/// assert_eq!(t.cliques.len(), 2); // two triangles
/// ```
pub fn triangulate(
    graph: &UndirectedGraph,
    weights: &[usize],
    heuristic: Heuristic,
) -> Triangulation {
    let mut eliminator = Eliminator::default();
    eliminator.run(graph, weights, heuristic);
    let maximal = eliminator.maximal_sorted();
    let cliques: Vec<Vec<usize>> = maximal
        .iter()
        .map(|&step| eliminator.clique(step).to_vec())
        .collect();
    Triangulation {
        total_states: eliminator.states_of(&maximal, weights),
        order: std::mem::take(&mut eliminator.order),
        fill: std::mem::take(&mut eliminator.fill),
        cliques,
    }
}

/// Estimates the junction-tree state space a graph would induce under the
/// given heuristic, without keeping the triangulation. Used by circuit
/// segmentation to decide when a sub-network is getting too expensive.
pub fn estimate_cost(graph: &UndirectedGraph, weights: &[usize], heuristic: Heuristic) -> f64 {
    Eliminator::default().estimate_cost(graph, weights, heuristic)
}

/// The buffers of one greedy elimination, kept between runs so that
/// repeated triangulations (the planner's budget checks) reuse them.
#[derive(Debug, Default)]
pub struct Eliminator {
    /// Sorted neighbor vectors of the live nodes.
    adjacency: Vec<Vec<usize>>,
    /// Stamped marks for O(1) membership tests: `mark` holds one node's
    /// neighborhood at a time, `near` the eliminated node's neighborhood.
    /// A node marked with an older stamp counts as unmarked.
    mark: Vec<usize>,
    near: Vec<usize>,
    stamp: usize,
    /// Cached `(score, clique_states)` per node.
    scores: Vec<(f64, f64)>,
    /// Selection keys; an entry is stale once its node is eliminated or
    /// its cached key moved, and is skipped when popped.
    queue: BinaryHeap<Reverse<(u64, u64, usize)>>,
    /// Elimination step of each node; `usize::MAX` while it is live.
    step_of: Vec<usize>,
    order: Vec<usize>,
    fill: Vec<(usize, usize)>,
    /// The elimination cliques back to back, each sorted; `starts[i]` is
    /// where the clique of `order[i]` begins.
    members: Vec<usize>,
    starts: Vec<usize>,
    /// This step's fill edges as positions `(i, j)`, `i < j`, in the
    /// eliminated node's sorted neighborhood, and as a symmetric matrix
    /// over those positions.
    fill_at: Vec<(usize, usize)>,
    is_fill: Vec<bool>,
    /// Per neighborhood position: the fill edges this step added between
    /// two of that neighbor's earlier neighbors.
    closed: Vec<usize>,
    /// Fill edges a node outside the eliminated neighborhood gained among
    /// its own neighbors this step, and the nodes with a nonzero count.
    lost_fill: Vec<usize>,
    touched: Vec<usize>,
    /// Per node: the largest elimination clique whose first eliminated
    /// neighbor it is (see [`Eliminator::maximal_sorted`]).
    absorbs: Vec<usize>,
}

impl Eliminator {
    /// [`estimate_cost`] on this eliminator's buffers.
    pub fn estimate_cost(
        &mut self,
        graph: &UndirectedGraph,
        weights: &[usize],
        heuristic: Heuristic,
    ) -> f64 {
        self.run(graph, weights, heuristic);
        let maximal = self.maximal_sorted();
        self.states_of(&maximal, weights)
    }

    /// A fresh mark value.
    fn next_stamp(&mut self) -> usize {
        self.stamp += 1;
        self.stamp
    }

    /// The elimination clique recorded at `step`, sorted.
    fn clique(&self, step: usize) -> &[usize] {
        let end = self
            .starts
            .get(step + 1)
            .copied()
            .unwrap_or(self.members.len());
        &self.members[self.starts[step]..end]
    }

    /// The state count of `node`'s elimination clique. The product runs
    /// over the neighbors in ascending order, so it is bit-identical to a
    /// full rescan's.
    fn clique_states(&self, node: usize, weights: &[usize]) -> f64 {
        weights[node] as f64
            * self.adjacency[node]
                .iter()
                .map(|&v| weights[v] as f64)
                .product::<f64>()
    }

    /// `(score, clique_states)` of eliminating `node` next, counted from
    /// scratch.
    fn score(&mut self, node: usize, weights: &[usize], heuristic: Heuristic) -> (f64, f64) {
        let clique_states = self.clique_states(node, weights);
        let score = match heuristic {
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

    /// Caches `fresh` as `node`'s score, queueing its key if it moved.
    fn update(&mut self, node: usize, fresh: (f64, f64)) {
        if key(fresh, node) != key(self.scores[node], node) {
            self.scores[node] = fresh;
            self.queue.push(Reverse(key(fresh, node)));
        }
    }

    /// Greedy elimination with cached scores. After eliminating `v`, only
    /// nodes whose score changed are updated, each from what the step
    /// changed rather than by a recount (see [`Eliminator::rescore_min_fill`]
    /// for the min-fill rule; under min-degree only `v`'s neighbors move).
    ///
    /// The next node is the minimum key `(score, clique_states, node)` —
    /// the same tie-break as rescanning every node at every step.
    fn run(&mut self, graph: &UndirectedGraph, weights: &[usize], heuristic: Heuristic) {
        let n = graph.num_nodes();
        assert_eq!(weights.len(), n, "one weight per node");
        assert!(weights.iter().all(|&w| w > 0), "weights must be positive");
        self.adjacency.resize_with(n, Vec::new);
        for (v, list) in self.adjacency.iter_mut().enumerate() {
            list.clear();
            list.extend(graph.neighbors(v).iter().copied());
        }
        // Stamps only grow, so marks left by an earlier run stay stale.
        self.mark.resize(n, 0);
        self.near.resize(n, 0);
        self.lost_fill.clear();
        self.lost_fill.resize(n, 0);
        self.step_of.clear();
        self.step_of.resize(n, usize::MAX);
        self.scores.clear();
        for v in 0..n {
            let s = self.score(v, weights, heuristic);
            self.scores.push(s);
        }
        self.queue.clear();
        let keys = self
            .scores
            .iter()
            .enumerate()
            .map(|(v, &s)| Reverse(key(s, v)));
        self.queue.extend(keys);
        self.order.clear();
        self.fill.clear();
        self.members.clear();
        self.starts.clear();

        while let Some(Reverse(entry)) = self.queue.pop() {
            let node = entry.2;
            if self.step_of[node] != usize::MAX || entry != key(self.scores[node], node) {
                continue;
            }
            self.step_of[node] = self.order.len();
            self.order.push(node);
            let neighbors = std::mem::take(&mut self.adjacency[node]);
            for &a in &neighbors {
                remove_sorted(&mut self.adjacency[a], node);
            }
            // Fill edges among the neighbors, found against the adjacency
            // as it stood before this step (no pair is tested twice). They
            // come out grouped by their first endpoint.
            let d = neighbors.len();
            let fill_start = self.fill.len();
            self.fill_at.clear();
            self.is_fill.clear();
            self.is_fill.resize(d * d, false);
            for (i, &a) in neighbors.iter().enumerate() {
                let stamp = self.next_stamp();
                for &x in &self.adjacency[a] {
                    self.mark[x] = stamp;
                }
                for (j, &b) in neighbors.iter().enumerate().skip(i + 1) {
                    if self.mark[b] != stamp {
                        self.fill.push((a, b));
                        self.fill_at.push((i, j));
                        self.is_fill[i * d + j] = true;
                        self.is_fill[j * d + i] = true;
                    }
                }
            }
            for k in fill_start..self.fill.len() {
                let (a, b) = self.fill[k];
                insert_sorted(&mut self.adjacency[a], b);
                insert_sorted(&mut self.adjacency[b], a);
            }
            let at = neighbors.partition_point(|&x| x < node);
            self.starts.push(self.members.len());
            self.members.extend_from_slice(&neighbors[..at]);
            self.members.push(node);
            self.members.extend_from_slice(&neighbors[at..]);

            match heuristic {
                Heuristic::MinFill => self.rescore_min_fill(&neighbors, fill_start, weights),
                Heuristic::MinDegree => {
                    for &u in &neighbors {
                        let states = self.clique_states(u, weights);
                        self.update(u, (states, states));
                    }
                }
            }
            // Hand the emptied list back so the next run reuses it.
            self.adjacency[node] = neighbors;
            self.adjacency[node].clear();
        }
    }

    /// Updates the min-fill scores after a node with the sorted
    /// `neighbors` was eliminated and the fill edges from `fill_start` on
    /// were added (the adjacency already reflects both). Fill counts are
    /// integers, so every update is exact.
    ///
    /// - A node `u` outside `neighbors` keeps its neighborhood. Its fill
    ///   count drops by one for each new fill edge with both endpoints
    ///   adjacent to `u`, and nothing else about it changes.
    /// - A neighbor `u` loses the eliminated node and gains its fill
    ///   partners `F_u`. Let `O_u` be its neighbors outside `neighbors`.
    ///   Its fill count drops by `|O_u|` (the pairs with the eliminated
    ///   node, which was adjacent to no node of `O_u`) and by the new fill
    ///   edges between two of its earlier neighbors. It rises by the pairs
    ///   `(b, x)` with `b ∈ F_u`, `x ∈ O_u` and `b`, `x` not adjacent; every
    ///   other new pair lies inside the now complete `neighbors`. Its
    ///   clique product is recomputed.
    /// - Every other node's neighborhood, and the edges inside it, are
    ///   unchanged.
    fn rescore_min_fill(&mut self, neighbors: &[usize], fill_start: usize, weights: &[usize]) {
        let d = neighbors.len();
        let near = self.next_stamp();
        for &a in neighbors {
            self.near[a] = near;
        }
        self.count_lost_fill(fill_start, near);
        for t in 0..self.touched.len() {
            let u = self.touched[t];
            let (fill, states) = self.scores[u];
            let fresh = (fill - self.lost_fill[u] as f64, states);
            self.lost_fill[u] = 0;
            self.update(u, fresh);
        }
        self.touched.clear();

        self.closed.clear();
        self.closed.resize(d, 0);
        for &(i, j) in &self.fill_at {
            for k in 0..d {
                if k != i && k != j && !self.is_fill[k * d + i] && !self.is_fill[k * d + j] {
                    self.closed[k] += 1;
                }
            }
        }
        for (k, &u) in neighbors.iter().enumerate() {
            // `u` is adjacent to the other d − 1 neighbors now.
            let outside = self.adjacency[u].len() + 1 - d;
            let mut opened = 0;
            if self.is_fill[k * d..(k + 1) * d].contains(&true) {
                let stamp = self.next_stamp();
                for &x in &self.adjacency[u] {
                    if self.near[x] != near {
                        self.mark[x] = stamp;
                    }
                }
                for (j, &b) in neighbors.iter().enumerate() {
                    if self.is_fill[k * d + j] {
                        let adjacent = self.adjacency[b]
                            .iter()
                            .filter(|&&x| self.mark[x] == stamp)
                            .count();
                        opened += outside - adjacent;
                    }
                }
            }
            let fill = self.scores[u].0 as usize;
            let fresh = (fill - outside - self.closed[k] + opened) as f64;
            let states = self.clique_states(u, weights);
            self.update(u, (fresh, states));
        }
    }

    /// Counts, for every node not stamped `near` (outside the eliminated
    /// node's neighborhood), the fill edges added since `fill_start` whose
    /// two endpoints it is adjacent to, into `lost_fill`/`touched`.
    fn count_lost_fill(&mut self, fill_start: usize, near: usize) {
        let mut k = fill_start;
        while k < self.fill.len() {
            let a = self.fill[k].0;
            let stamp = self.next_stamp();
            for &x in &self.adjacency[a] {
                self.mark[x] = stamp;
            }
            while k < self.fill.len() && self.fill[k].0 == a {
                let b = self.fill[k].1;
                for &u in &self.adjacency[b] {
                    if self.mark[u] == stamp && self.near[u] != near {
                        if self.lost_fill[u] == 0 {
                            self.touched.push(u);
                        }
                        self.lost_fill[u] += 1;
                    }
                }
                k += 1;
            }
        }
    }

    /// The steps whose elimination clique is maximal, ordered by their
    /// cliques ascending.
    ///
    /// Let `f(u)` be the first of `u`'s elimination neighbors `N_u` to be
    /// eliminated. `N_u` is a clique until then, so `N_u \ {f(u)} ⊆ N_f(u)`.
    /// `C_v = {v} ∪ N_v` can only lie inside the clique `C_u` of a node `u`
    /// eliminated before `v` (a later one no longer sees `v`), and then it
    /// lies inside one with `f(u) = v`: take the latest `u` with
    /// `C_v ⊆ C_u`; were `w = f(u) ≠ v`, then `C_v ⊆ N_u \ {w} ⊆ C_w` with
    /// `w` later than `u`. And for `f(u) = v`, `N_u \ {v} ⊆ N_v` makes
    /// `C_v ⊆ C_u` equivalent to `|C_u| = |C_v| + 1`. So `C_v` is maximal
    /// iff no clique absorbed by `v` is one larger — one pass over the
    /// members, no subset tests.
    fn maximal_sorted(&mut self) -> Vec<usize> {
        let n = self.order.len();
        self.absorbs.clear();
        self.absorbs.resize(n, 0);
        for step in 0..n {
            let first = self
                .clique(step)
                .iter()
                .filter(|&&x| x != self.order[step])
                .min_by_key(|&&x| self.step_of[x]);
            if let Some(&first) = first {
                let size = self.clique(step).len();
                self.absorbs[first] = self.absorbs[first].max(size);
            }
        }
        let mut maximal: Vec<usize> = (0..n)
            .filter(|&step| self.absorbs[self.order[step]] <= self.clique(step).len())
            .collect();
        maximal.sort_unstable_by(|&x, &y| self.clique(x).cmp(self.clique(y)));
        maximal
    }

    /// Σ over the given cliques, in the given order, of the product of
    /// member weights taken in ascending member order.
    fn states_of(&self, steps: &[usize], weights: &[usize]) -> f64 {
        steps
            .iter()
            .map(|&step| {
                self.clique(step)
                    .iter()
                    .map(|&v| weights[v] as f64)
                    .product::<f64>()
            })
            .sum()
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

#[cfg(test)]
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
        let mut eliminated = vec![false; n];
        let mut order = Vec::with_capacity(n);
        let mut raw_cliques: Vec<Vec<usize>> = Vec::new();
        let mut fill = Vec::new();

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
                        fill.push((a, b));
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
            fill,
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
        assert_eq!(t.fill.len(), 0);
        assert_eq!(t.cliques, vec![vec![0, 1, 2]]);
        assert_eq!(t.total_states, 8.0);
    }

    #[test]
    fn square_gets_one_chord() {
        let g = cycle(4);
        for h in [Heuristic::MinFill, Heuristic::MinDegree] {
            let t = triangulate(&g, &[2; 4], h);
            assert_eq!(t.fill.len(), 1, "{h:?}");
            assert_eq!(t.cliques.len(), 2);
            assert!(is_perfect_elimination_order(&t.filled(&g), &t.order));
        }
    }

    #[test]
    fn long_cycle_fill_count() {
        // An n-cycle needs n-3 chords.
        for n in [5, 6, 8] {
            let g = cycle(n);
            let t = triangulate(&g, &vec![2; n], Heuristic::MinFill);
            assert_eq!(t.fill.len(), n - 3, "cycle of {n}");
            assert!(is_perfect_elimination_order(&t.filled(&g), &t.order));
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
        assert_eq!(t.fill.len(), 0);
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
        assert_eq!(t.fill.len(), 0);
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
        assert_eq!(t.fill.len(), 0);
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

    /// A segment-shaped moral graph: `inputs` roots, then one node per
    /// gate whose family (the gate and 2–5 distinct earlier lines, drawn
    /// mostly from the last 16 so cones reconverge) is a clique.
    /// Every node has 4 states, like a transition variable.
    fn planner_graph(n: usize, seed: u64) -> (UndirectedGraph, Vec<usize>) {
        let mut state = seed;
        let inputs = (n / 6).max(2).min(n);
        let mut g = UndirectedGraph::new(n);
        for v in inputs..n {
            let fan_in = (2 + splitmix(&mut state) % 4) as usize;
            let mut family = vec![v];
            while family.len() <= fan_in.min(v) {
                let window = if splitmix(&mut state).is_multiple_of(32) {
                    v
                } else {
                    v.min(16)
                };
                let u = v - 1 - (splitmix(&mut state) % window as u64) as usize;
                if !family.contains(&u) {
                    family.push(u);
                }
            }
            for (i, &a) in family.iter().enumerate() {
                for &b in &family[i + 1..] {
                    g.add_edge(a, b);
                }
            }
        }
        (g, vec![4; n])
    }

    /// Asserts that the cached-score elimination and the full-rescan
    /// reference agree on `g` under both heuristics: order, fill edges in
    /// order, cliques and the state-space total down to its bits (also
    /// through a reused [`Eliminator`]).
    fn assert_matches_reference(
        g: &UndirectedGraph,
        weights: &[usize],
        eliminator: &mut Eliminator,
    ) {
        for heuristic in [Heuristic::MinFill, Heuristic::MinDegree] {
            let fast = triangulate(g, weights, heuristic);
            let slow = triangulate_reference(g, weights, heuristic);
            assert_eq!(&fast.order, &slow.order);
            assert_eq!(&fast.cliques, &slow.cliques);
            assert_eq!(&fast.fill, &slow.fill);
            assert_eq!(fast.total_states.to_bits(), slow.total_states.to_bits());
            assert_eq!(
                eliminator.estimate_cost(g, weights, heuristic).to_bits(),
                slow.total_states.to_bits()
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The cached-score elimination reproduces the full-rescan
        /// reference exactly on small graphs of every shape.
        #[test]
        fn cached_scores_match_the_reference(
            n in 1usize..61,
            shape in 0usize..5,
            density in 0.0f64..1.0,
            seed in 0u64..u64::MAX,
        ) {
            let (g, weights) = random_graph(n, shape, density, seed);
            let mut eliminator = Eliminator::default();
            assert_matches_reference(&g, &weights, &mut eliminator);
            prop_assert_eq!(
                estimate_cost(&g, &weights, Heuristic::MinFill).to_bits(),
                triangulate_reference(&g, &weights, Heuristic::MinFill).total_states.to_bits()
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The same on graphs the size and shape the segmentation planner
        /// checks: gate families of fan-in 2–5 over 4-state nodes with
        /// 50–300 nodes, and dense random graphs. One eliminator serves
        /// every graph of a case, as it does across the planner's checks.
        #[test]
        fn cached_scores_match_the_reference_on_planner_graphs(
            n in 50usize..301,
            dense_n in 20usize..51,
            density in 0.3f64..0.9,
            seed in 0u64..u64::MAX,
        ) {
            let mut eliminator = Eliminator::default();
            let (g, weights) = planner_graph(n, seed);
            assert_matches_reference(&g, &weights, &mut eliminator);
            let (g, weights) = random_graph(dense_n, 0, density, seed ^ 1);
            assert_matches_reference(&g, &weights, &mut eliminator);
        }
    }

    #[test]
    fn subset_helper() {
        assert!(is_subset(&[1, 3], &[0, 1, 2, 3]));
        assert!(!is_subset(&[1, 4], &[0, 1, 2, 3]));
        assert!(is_subset(&[], &[0]));
    }
}
