use std::ops::Range;
use std::sync::Arc;

use crate::factor::Scope;
use crate::junction::JunctionTree;
use crate::pairwise::{self, PairwisePlan, Prefix};
use crate::sparse::{self, HostedFactor, PropagationKernels, SideProj};
use crate::{BayesError, BayesNet, Factor, KernelMode, SparseMode, VarId};

/// The immutable half of HUGIN propagation: clique structure, the factors
/// each clique's initial potential is the product of, and the
/// collect/distribute message schedule.
///
/// Compiling a network is expensive (triangulation, kernel and schedule
/// construction); propagating evidence through the compiled result is
/// cheap. `CompiledTree` captures everything the expensive phase produces
/// in one immutable, `Send + Sync` artifact so that *many* propagations —
/// sequential or concurrent — can share it:
///
/// ```text
/// CompiledTree (shared, read-only)     PropagationState (one per request)
/// ├─ junction tree structure           ├─ clique potentials (one flat buffer)
/// ├─ hosted CPTs + gather projections  ├─ sepset potentials (one flat buffer)
/// ├─ message schedule                  └─ evidence + calibration flags
/// └─ state layout (buffer offsets)
/// ```
///
/// The initial clique potentials are never stored: each clique *hosts*
/// its CPTs, and a calibration writes a clique's initial values from them
/// the first time it touches that clique (see [`PropagationState`]).
///
/// Each propagation borrows the compiled tree immutably and mutates only
/// its own [`PropagationState`] (created by
/// [`new_state`](CompiledTree::new_state), reusable across requests, and
/// rebindable to another tree with
/// [`bind_state`](CompiledTree::bind_state)).
///
/// One propagation's lifecycle:
///
/// 1. [`new`](CompiledTree::new) assigns every CPT to its clique and
///    [`new_state`](CompiledTree::new_state) opens a request;
/// 2. [`set_evidence`](CompiledTree::set_evidence) /
///    [`set_likelihood`](CompiledTree::set_likelihood) record observations;
/// 3. [`calibrate`](CompiledTree::calibrate) runs *collect* (leaves → root)
///    then *distribute* (root → leaves); afterwards every clique potential
///    is proportional to the joint marginal over its variables;
/// 4. [`marginal`](CompiledTree::marginal) and friends read results; the
///    pre-normalization mass is the probability of the evidence.
///
/// Re-quantified networks (e.g. new input statistics in the paper's §6)
/// reuse the compiled [`JunctionTree`]: only the hosted CPTs change, with
/// a new `CompiledTree::new(tree, &net)`.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct CompiledTree {
    tree: JunctionTree,
    /// Per clique, the factors whose product is its initial potential, in
    /// the order they multiply in.
    hosted: Vec<Vec<HostedFactor>>,
    /// Collect schedule: edges as (from_clique, edge_idx, to_clique), leaves
    /// towards roots. Distribution replays it reversed and flipped.
    schedule: Vec<(usize, usize, usize)>,
    /// Precomputed absorb kernels: one clique→sepset projection per edge
    /// side plus per-clique zero-compression supports (see the `sparse`
    /// module).
    kernels: PropagationKernels,
    /// The zero-compression policy the kernels were built with.
    mode: SparseMode,
    /// Where each clique and sepset sits in a bound state's flat buffers.
    /// Derived from the tree; never serialized. States bound to this tree
    /// share it.
    layout: Arc<StateLayout>,
}

/// The serialized fields of a [`CompiledTree`], borrowed: tree, hosted
/// factors, schedule, kernels and sparse mode.
pub(crate) type CodecParts<'a> = (
    &'a JunctionTree,
    &'a [Vec<HostedFactor>],
    &'a [(usize, usize, usize)],
    &'a PropagationKernels,
    SparseMode,
);

// The whole point of the split: compiled trees are shareable across
// threads. Factors and the tree are plain owned data, so this holds by
// construction; the assertion turns any future regression (e.g. an Rc or
// RefCell sneaking into a field) into a compile error.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompiledTree>();
    assert_send_sync::<PropagationState>();
};

impl CompiledTree {
    /// Compiles the propagation artifact for `net` over its junction tree:
    /// hosts every CPT in its assigned clique and builds the message
    /// schedule. Zero compression follows [`SparseMode::Auto`]; use
    /// [`new_with`](CompiledTree::new_with) to choose.
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::Empty`] if the network is empty. The network
    /// must be the one the tree was compiled from (same variables and
    /// cardinalities); mismatches panic.
    pub fn new(tree: JunctionTree, net: &BayesNet) -> Result<CompiledTree, BayesError> {
        CompiledTree::new_with(tree, net, SparseMode::default())
    }

    /// [`new`](CompiledTree::new) with an explicit zero-compression
    /// policy. Each clique hosts its CPTs in the `net.var_ids()` order
    /// [`initial_potentials`] multiplies them in, so the first touch of a
    /// clique reproduces that reference bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::Empty`] if the network is empty.
    ///
    /// # Panics
    ///
    /// Panics if the network does not match the tree (variable count or
    /// cardinalities).
    pub fn new_with(
        tree: JunctionTree,
        net: &BayesNet,
        mode: SparseMode,
    ) -> Result<CompiledTree, BayesError> {
        if net.num_vars() == 0 {
            return Err(BayesError::Empty);
        }
        assert_eq!(net.num_vars(), tree.num_vars(), "network/tree mismatch");
        let mut hosted: Vec<Vec<HostedFactor>> = vec![Vec::new(); tree.num_cliques()];
        for var in net.var_ids() {
            assert_eq!(
                net.card(var),
                tree.card(var),
                "network/tree cardinality mismatch for {var}"
            );
            let clique = tree.cpt_clique(var);
            hosted[clique].push(HostedFactor::new(
                tree.clique(clique),
                &tree.clique_cards(clique),
                net.cpt_factor(var).clone(),
            ));
        }
        Ok(CompiledTree::assemble(tree, hosted, mode))
    }

    /// Builds the artifact from precomputed initial clique potentials (as
    /// produced by [`initial_potentials`]): each clique hosts its given
    /// potential as a single full-scope factor, so its first touch is a
    /// plain copy. Zero compression follows [`SparseMode::Auto`]; use
    /// [`from_parts_with`](CompiledTree::from_parts_with) to choose.
    ///
    /// # Panics
    ///
    /// Panics if the potential count or any potential's scope disagrees
    /// with the tree.
    pub fn from_parts(tree: JunctionTree, potentials: Vec<Factor>) -> CompiledTree {
        CompiledTree::from_parts_with(tree, potentials, SparseMode::default())
    }

    /// [`from_parts`](CompiledTree::from_parts) with an explicit
    /// zero-compression policy. All modes produce bit-identical
    /// propagation results (see [`SparseMode`]); the mode only selects
    /// which kernels run.
    ///
    /// # Panics
    ///
    /// Panics if the potential count or any potential's scope disagrees
    /// with the tree.
    pub fn from_parts_with(
        tree: JunctionTree,
        potentials: Vec<Factor>,
        mode: SparseMode,
    ) -> CompiledTree {
        validate_potentials(&tree, &potentials);
        let hosted = potentials
            .into_iter()
            .enumerate()
            .map(|(clique, pot)| {
                vec![HostedFactor::new(
                    tree.clique(clique),
                    &tree.clique_cards(clique),
                    pot,
                )]
            })
            .collect();
        CompiledTree::assemble(tree, hosted, mode)
    }

    /// [`from_parts_with`](CompiledTree::from_parts_with); kept only
    /// because the profile harness's kernel probe calls it.
    #[doc(hidden)]
    pub fn from_parts_with_kernel(
        tree: JunctionTree,
        potentials: Vec<Factor>,
        mode: SparseMode,
        _kernel: KernelMode,
    ) -> CompiledTree {
        CompiledTree::from_parts_with(tree, potentials, mode)
    }

    /// The one path behind every constructor: schedule and kernels for
    /// `tree` with `hosted` factors.
    fn assemble(
        tree: JunctionTree,
        hosted: Vec<Vec<HostedFactor>>,
        mode: SparseMode,
    ) -> CompiledTree {
        let schedule = build_schedule(&tree);
        let kernels = PropagationKernels::build(&tree, &hosted, mode);
        CompiledTree::from_codec_parts(tree, hosted, schedule, kernels, mode)
    }

    /// The compiled junction tree structure.
    pub fn tree(&self) -> &JunctionTree {
        &self.tree
    }

    /// The factors clique `i` hosts: its initial potential is their
    /// product, taken in this order (all ones when there are none).
    pub fn hosted_factors(&self, i: usize) -> impl ExactSizeIterator<Item = &Factor> {
        self.hosted[i].iter().map(|h| &h.factor)
    }

    /// Clique `i`'s initial potential, written the way a calibration's
    /// first touch writes it: through the hosted factors' gather
    /// projections. For the first-touch differential tests; not part of
    /// the supported API.
    #[doc(hidden)]
    pub fn first_touch_potential(&self, i: usize) -> Factor {
        let mut pot = Factor::ones(scope_of(&self.tree, self.tree.clique(i)));
        sparse::materialize(pot.values_mut(), &self.hosted[i]);
        pot
    }

    /// Every clique's initial potential by the factor algebra: ones times
    /// each hosted factor through [`Factor::mul_assign_sub`], exactly as
    /// [`initial_potentials`] multiplies CPTs. The two-pass reference
    /// starts from these, independent of the gather projections.
    fn reference_potentials(&self) -> Vec<Factor> {
        (0..self.tree.num_cliques())
            .map(|i| {
                let mut pot = Factor::ones(scope_of(&self.tree, self.tree.clique(i)));
                for factor in self.hosted_factors(i) {
                    pot.mul_assign_sub(factor);
                }
                pot
            })
            .collect()
    }

    /// The collect schedule: `(from_clique, edge, to_clique)` triples,
    /// leaves towards roots. Distribution replays it reversed and flipped.
    pub fn message_schedule(&self) -> &[(usize, usize, usize)] {
        &self.schedule
    }

    /// Total entries across all clique potentials, read from the tree's
    /// clique sizes: the clique entries a [`PropagationState`] bound to
    /// this tree holds (8 bytes apiece), and the dense per-propagation
    /// work. The compiled tree itself stores no potential.
    pub fn state_space(&self) -> usize {
        self.layout.clique_entries()
    }

    /// Total entries across all sepset potentials: what a bound
    /// [`PropagationState`] holds beside its
    /// [`state_space`](CompiledTree::state_space) clique entries.
    pub fn sepset_space(&self) -> usize {
        self.layout.sepset_entries()
    }

    /// Nonzero entries across all initial clique potentials — the actual
    /// propagation work under zero compression, and the better cache cost
    /// proxy for LIDAG models whose deterministic CPTs zero out most of
    /// the state space.
    pub fn nnz(&self) -> usize {
        self.kernels.nnz
    }

    /// Fraction of the state space that is structural zeros, in `[0, 1]`.
    pub fn zero_fraction(&self) -> f64 {
        let total = self.state_space();
        if total == 0 {
            0.0
        } else {
            1.0 - self.nnz() as f64 / total as f64
        }
    }

    /// The zero-compression policy this tree was compiled with.
    pub fn sparse_mode(&self) -> SparseMode {
        self.mode
    }

    /// How many cliques actually got a zero-compressed support list.
    pub fn compressed_cliques(&self) -> usize {
        self.kernels.compressed_cliques()
    }

    /// Cost-model estimate of one propagation sweep's kernel work, in
    /// weighted table loads: a zero-compressed clique pays
    /// [`sparse::SPARSE_COST_PER_ENTRY`] indexed loads per surviving entry
    /// where a dense clique pays one (prefetched, sequential) load per
    /// table entry. [`SparseMode::Auto`] minimizes exactly this quantity
    /// per clique, so `Auto`'s cost is never above `Off`'s — pinned by the
    /// c880 regression test that caught `Auto` losing to dense.
    pub fn kernel_cost(&self) -> usize {
        (0..self.tree.num_cliques())
            .map(|i| match &self.kernels.support[i] {
                Some(s) => sparse::SPARSE_COST_PER_ENTRY * s.len(),
                None => self.tree.clique_len(i),
            })
            .sum()
    }

    /// Every serialized field of the artifact, for the [`crate::codec`]
    /// encoder (the state layout is derived from the tree).
    pub(crate) fn codec_parts(&self) -> CodecParts<'_> {
        (
            &self.tree,
            &self.hosted,
            &self.schedule,
            &self.kernels,
            self.mode,
        )
    }

    /// Rebuilds the artifact from its fields — schedule and kernels
    /// included — without re-running
    /// [`from_parts_with`](CompiledTree::from_parts_with). The
    /// [`crate::codec`] decoder derives the kernels from the decoded
    /// supports as compile does, so a loaded artifact is field-for-field
    /// (and therefore bit-for-bit) the struct the original compile
    /// produced.
    pub(crate) fn from_codec_parts(
        tree: JunctionTree,
        hosted: Vec<Vec<HostedFactor>>,
        schedule: Vec<(usize, usize, usize)>,
        kernels: PropagationKernels,
        mode: SparseMode,
    ) -> CompiledTree {
        let layout = Arc::new(StateLayout::new(&tree));
        CompiledTree {
            tree,
            hosted,
            schedule,
            kernels,
            mode,
            layout,
        }
    }

    /// A fresh mutable state for this tree, with zeroed clique
    /// potentials: every calibration writes a clique's initial values on
    /// first touch, so nothing is copied here. States are reusable: a
    /// second `calibrate` on the same state reuses its buffers instead of
    /// reallocating. The one-tree form of
    /// [`bind_state`](CompiledTree::bind_state).
    pub fn new_state(&self) -> PropagationState {
        let mut state = PropagationState::default();
        self.bind_state(&mut state);
        state
    }

    /// Binds `state` to this tree, whatever tree (if any) it served
    /// before: clears its evidence, invalidates its calibration, and sizes
    /// its flat clique and sepset buffers for this tree. The buffers only
    /// grow, so a state rebound across many trees reallocates only when a
    /// larger tree than any before comes along; nothing in them carries
    /// over, since every calibration rewrites each clique from the hosted
    /// CPTs and each sepset in its collect pass before reading it.
    pub fn bind_state(&self, state: &mut PropagationState) {
        fn grow(buf: &mut Vec<f64>, len: usize) {
            if buf.len() < len {
                // The contents never carry over: free the old buffer
                // before allocating the larger one.
                *buf = Vec::new();
                *buf = vec![0.0; len];
            }
        }
        grow(&mut state.cliques, self.layout.clique_entries());
        grow(&mut state.sepsets, self.layout.sepset_entries());
        state.layout = Arc::clone(&self.layout);
        state.stale.clear();
        state.stale.resize(self.tree.num_cliques(), true);
        state.evidence.clear();
        state.evidence.resize(self.tree.num_vars(), None);
        state.likelihood.clear();
        state.likelihood.resize(self.tree.num_vars(), None);
        state.soft_factors.clear();
        state.calibrated = false;
    }

    /// Records hard evidence `var = value` in `state`. Overwrites previous
    /// evidence on the same variable and invalidates the calibration.
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::EvidenceOutOfRange`] if `value` exceeds the
    /// variable's cardinality.
    pub fn set_evidence(
        &self,
        state: &mut PropagationState,
        var: VarId,
        value: usize,
    ) -> Result<(), BayesError> {
        set_evidence_impl(&self.tree, state, var, value)
    }

    /// Records soft (likelihood) evidence in `state`: state `s` of `var`
    /// is weighted by `weights[s]`. Invalidates the calibration.
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::EvidenceOutOfRange`] if the weight vector
    /// length differs from the variable's cardinality.
    pub fn set_likelihood(
        &self,
        state: &mut PropagationState,
        var: VarId,
        weights: Vec<f64>,
    ) -> Result<(), BayesError> {
        set_likelihood_impl(&self.tree, state, var, weights)
    }

    /// Records multi-variable soft evidence in `state`: `factor` is
    /// multiplied into a clique containing its whole scope at calibration
    /// time. This is the general form of
    /// [`set_likelihood`](CompiledTree::set_likelihood) and is how
    /// correlated priors over variable *groups* are injected (e.g. the
    /// boundary-correlation factors of the `swact` estimator).
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::FactorOutsideClique`] when no clique contains
    /// the factor's scope.
    pub fn insert_factor(
        &self,
        state: &mut PropagationState,
        factor: Factor,
    ) -> Result<(), BayesError> {
        insert_factor_impl(&self.tree, state, factor)
    }

    /// Runs collect + distribute on `state`. Afterwards every clique
    /// potential in `state` is proportional to `P(clique vars, evidence)`.
    pub fn calibrate(&self, state: &mut PropagationState) {
        self.begin_calibration(state);
        self.enter_evidence(state);
        // Collect: leaves towards roots.
        for &(from, edge, to) in &self.schedule {
            self.collect(state, from, edge, to);
        }
        // Distribute: roots towards leaves.
        for &(from, edge, to) in self.schedule.iter().rev() {
            self.distribute(state, to, edge, from);
        }
        self.finish_calibration(state);
    }

    /// [`calibrate`](CompiledTree::calibrate) through per-entry projection
    /// tables instead of the blocked kernels: the bit-identity reference of
    /// the equivalence tests. It starts from every clique's initial
    /// potential by the factor algebra, not from the first-touch gathers,
    /// and derives a dense clique's table from its sepset strides on every
    /// absorption, so it is slow by design and independent of the blocked
    /// forms it checks. Not part of the supported API.
    #[doc(hidden)]
    pub fn calibrate_two_pass(&self, state: &mut PropagationState) {
        self.begin_calibration(state);
        state.sepsets[..self.layout.sepset_entries()].fill(1.0);
        for (i, init) in self.reference_potentials().iter().enumerate() {
            state.cliques[self.layout.clique(i)].copy_from_slice(init.values());
        }
        state.stale.fill(false);
        self.enter_evidence(state);
        for &(from, edge, to) in &self.schedule {
            self.absorb_two_pass(state, from, edge, to);
        }
        for &(from, edge, to) in self.schedule.iter().rev() {
            self.absorb_two_pass(state, to, edge, from);
        }
        self.finish_calibration(state);
    }

    /// One absorption of [`calibrate_two_pass`](CompiledTree::calibrate_two_pass):
    /// scatter-add marginalize and gather multiply, one table index per
    /// iterated entry, with the HUGIN ratio against the old sepset in both
    /// passes.
    fn absorb_two_pass(&self, state: &mut PropagationState, from: usize, edge: usize, to: usize) {
        let e = self.tree.edge(edge);
        let proj = &self.kernels.edge_proj[edge];
        let table = |clique: usize| match if clique == e.a { &proj.a } else { &proj.b } {
            SideProj::Support(table) => table.clone(),
            SideProj::Blocked(_) => sparse::clique_to_sepset(
                self.tree.clique(clique),
                &self.tree.clique_cards(clique),
                &e.sepset,
            ),
        };
        let (table_from, table_to) = (table(from), table(to));
        let sep_len = self.layout.sepset(edge).len();
        state.scratch.resize(sep_len, 0.0);
        sparse::marginalize_into(
            &state.cliques[self.layout.clique(from)],
            self.kernels.support[from].as_deref(),
            &table_from,
            &mut state.scratch[..sep_len],
        );
        store_message(
            &mut state.sepsets[self.layout.sepset(edge)],
            &mut state.scratch[..sep_len],
        );
        sparse::multiply_from(
            &mut state.cliques[self.layout.clique(to)],
            self.kernels.support[to].as_deref(),
            &table_to,
            &state.scratch[..sep_len],
        );
    }

    /// The posterior marginal `P(var | evidence)` from a calibrated state.
    ///
    /// # Panics
    ///
    /// Panics if `state` is not calibrated.
    pub fn marginal(&self, state: &PropagationState, var: VarId) -> Vec<f64> {
        let mut m = vec![0.0; self.tree.card(var)];
        self.marginal_into(state, var, &mut m);
        m
    }

    /// [`marginal`](CompiledTree::marginal) written into `out`, one slot
    /// per state of `var`, without allocating: the per-gate readout of a
    /// propagation.
    ///
    /// # Panics
    ///
    /// Panics if `state` is not calibrated or `out` has the wrong length.
    pub fn marginal_into(&self, state: &PropagationState, var: VarId, out: &mut [f64]) {
        assert_calibrated(state);
        let clique = self.tree.home_clique(var);
        self.scope(clique).normalized_marginal_into(
            &state.cliques[self.layout.clique(clique)],
            var,
            out,
        );
    }

    /// The joint posterior over a variable set, provided some clique
    /// contains all of them (returns `None` otherwise). Normalized.
    ///
    /// # Panics
    ///
    /// Panics if `state` is not calibrated.
    pub fn joint_marginal(&self, state: &PropagationState, vars: &[VarId]) -> Option<Factor> {
        self.joint_marginal_impl(state, vars)
    }

    /// Plans the clique-path walk for the pair `(a, b)` once, so repeated
    /// reads over this tree skip the path search and index setup (see
    /// [`PairwisePlan`]). Returns `None` when `a == b`, either variable is
    /// out of range, or the two lie in different components.
    pub fn plan_pairwise(&self, a: VarId, b: VarId) -> Option<PairwisePlan> {
        pairwise::plan(&self.tree, a, b)
    }

    /// Runs a plan from [`plan_pairwise`](CompiledTree::plan_pairwise) on
    /// this tree over a calibrated state: the normalized joint over
    /// [`PairwisePlan::vars`] (first variable slowest), in the state's
    /// path buffers. Bit-identical to
    /// [`pairwise_marginal`](CompiledTree::pairwise_marginal).
    ///
    /// # Panics
    ///
    /// Panics if `state` is not calibrated. A plan built on another
    /// tree gives a meaningless joint or panics.
    pub fn pairwise_marginal_planned<'s>(
        &self,
        state: &'s mut PropagationState,
        plan: &PairwisePlan,
    ) -> &'s [f64] {
        assert_calibrated(state);
        pairwise::run(
            plan,
            &self.kernels,
            (&self.layout, &state.cliques, &state.sepsets),
            (&mut state.path_msg, &mut state.path_next),
            Prefix {
                messages: &mut state.path_prefix,
                resume: 0,
                keep: 0,
            },
        )
    }

    /// Runs several plans from [`plan_pairwise`](CompiledTree::plan_pairwise)
    /// over one calibrated state, in order, handing each joint to
    /// `read(i, joint)` as [`pairwise_marginal_planned`](CompiledTree::pairwise_marginal_planned)
    /// would return it. A plan whose first steps equal the previous plan's
    /// (walks from one variable down one path) starts from the message
    /// those steps left, so they run once; the joints are bit-identical.
    /// Returns the lane-entries walked ([`PairwisePlan::entries`], shared
    /// steps counted once).
    ///
    /// # Panics
    ///
    /// Same as [`pairwise_marginal_planned`](CompiledTree::pairwise_marginal_planned).
    pub fn pairwise_marginals_planned(
        &self,
        state: &mut PropagationState,
        plans: &[&PairwisePlan],
        mut read: impl FnMut(usize, &[f64]),
    ) -> usize {
        assert_calibrated(state);
        let (mut entries, mut resume) = (0, 0);
        for (i, plan) in plans.iter().enumerate() {
            let keep = plans.get(i + 1).map_or(0, |next| next.shared_steps(plan));
            entries += plan.entries_from(resume);
            let joint = pairwise::run(
                plan,
                &self.kernels,
                (&self.layout, &state.cliques, &state.sepsets),
                (&mut state.path_msg, &mut state.path_next),
                Prefix {
                    messages: &mut state.path_prefix,
                    resume,
                    keep,
                },
            );
            read(i, joint);
            resume = keep;
        }
        // Kept messages are dropped, not cached: every arena state
        // holding its largest prefix cost about 0.8 MiB of peak RSS on
        // the profile's `update` workload, and reallocating them per
        // pass costs no measurable time.
        state.path_prefix.clear();
        entries
    }

    /// The exact posterior joint `P(a, b | evidence)` for *any* two
    /// variables in the same junction-tree component — even when no single
    /// clique contains both — by marginalizing along the clique path
    /// between their home cliques. Returns `None` across components.
    /// Normalized, scope sorted.
    ///
    /// Plans the walk per call, then costs one pass over each clique on
    /// the path (see [`PairwisePlan`]); repeated reads of one pair should
    /// keep the [`plan`](CompiledTree::plan_pairwise). This powers the
    /// boundary-correlation forwarding of the `swact` estimator.
    ///
    /// # Panics
    ///
    /// Panics if `state` is not calibrated or `a == b`.
    pub fn pairwise_marginal(
        &self,
        state: &PropagationState,
        a: VarId,
        b: VarId,
    ) -> Option<Factor> {
        assert_calibrated(state);
        assert_ne!(a, b, "pairwise marginal needs two distinct variables");
        let plan = self.plan_pairwise(a, b)?;
        let (mut msg, mut next) = (Vec::new(), Vec::new());
        let values = pairwise::run(
            &plan,
            &self.kernels,
            (&self.layout, &state.cliques, &state.sepsets),
            (&mut msg, &mut next),
            Prefix {
                messages: &mut Vec::new(),
                resume: 0,
                keep: 0,
            },
        );
        let [lo, hi] = plan.vars();
        Some(Factor::new(
            vec![(lo, self.tree.card(lo)), (hi, self.tree.card(hi))],
            values.to_vec(),
        ))
    }

    /// The factor-algebra walk [`pairwise_marginal`](CompiledTree::pairwise_marginal)
    /// must reproduce bit for bit: path search, scope merges and
    /// `Factor::product_marginalize` per step. Kept only as the
    /// differential-test reference, like
    /// [`calibrate_two_pass`](CompiledTree::calibrate_two_pass).
    #[doc(hidden)]
    pub fn pairwise_marginal_reference(
        &self,
        state: &PropagationState,
        a: VarId,
        b: VarId,
    ) -> Option<Factor> {
        self.pairwise_marginal_impl(state, a, b)
    }

    /// Clique `i`'s scope, for the in-place factor operations on its
    /// slice of a state's buffer.
    fn scope(&self, i: usize) -> Scope<'_> {
        Scope::new(self.tree.clique(i), &self.layout.cards[i])
    }

    /// A copy of clique `i`'s potential in `state` as a factor, for the
    /// factor-algebra reads (joint marginals and the reference walk).
    fn clique_factor(&self, state: &PropagationState, i: usize) -> Factor {
        Factor::new(
            scope_of(&self.tree, self.tree.clique(i)),
            state.cliques[self.layout.clique(i)].to_vec(),
        )
    }

    /// A copy of sepset `edge`'s potential in `state` as a factor.
    fn sepset_factor(&self, state: &PropagationState, edge: usize) -> Factor {
        Factor::new(
            scope_of(&self.tree, &self.tree.edge(edge).sepset),
            state.sepsets[self.layout.sepset(edge)].to_vec(),
        )
    }
}

/// The mutable half of HUGIN propagation: working potentials, evidence,
/// and calibration flags for **one** request.
///
/// Created by [`CompiledTree::new_state`] (or left unbound by `default()`)
/// and only meaningful together with the tree it is bound to: using it
/// with another tree panics until
/// [`CompiledTree::bind_state`] rebinds it. Every clique potential sits in
/// one flat buffer and every sepset potential in another, at offsets the
/// tree computed once, so one state can serve tree after tree without
/// reallocating once it has grown to the largest. Nothing is copied to
/// reset one: each calibration marks every clique stale, and a stale
/// clique gets its initial values written from the tree's hosted CPTs the
/// first time that calibration touches it — when it receives a message,
/// sends one, takes evidence, or, failing all of those, just before the
/// calibration finishes. Sepsets need no reset either: the collect pass
/// writes each one before anything reads it.
#[derive(Debug, Clone, Default)]
pub struct PropagationState {
    /// The layout of the tree this state is bound to.
    layout: Arc<StateLayout>,
    /// Every clique's potential at its layout offset; may run past the
    /// bound tree's entries after serving a larger tree.
    cliques: Vec<f64>,
    /// Per clique: whether the current calibration has yet to write its
    /// initial values (see [`CompiledTree::calibrate`]).
    stale: Vec<bool>,
    /// Every sepset's potential at its layout offset.
    sepsets: Vec<f64>,
    /// Hard evidence per variable.
    evidence: Vec<Option<usize>>,
    /// Soft evidence: per variable an optional likelihood vector.
    likelihood: Vec<Option<Vec<f64>>>,
    /// Multi-variable soft evidence as `(host_clique, factor)`, multiplied
    /// into the host at calibration time. The host is resolved once at
    /// insertion (first containing clique) so the same scope always lands
    /// in the same clique.
    soft_factors: Vec<(usize, Factor)>,
    /// Sepset-sized message buffer reused by every absorb, so calibration
    /// allocates nothing in steady state.
    scratch: Vec<f64>,
    /// Ping-pong message buffers for planned pairwise walks
    /// ([`CompiledTree::pairwise_marginal_planned`]), so repeated boundary
    /// reads allocate nothing in steady state.
    path_msg: Vec<f64>,
    path_next: Vec<f64>,
    /// The messages a walk leaves for the next one over the same path
    /// prefix ([`CompiledTree::pairwise_marginals_planned`]); empty
    /// between passes.
    path_prefix: Vec<Vec<f64>>,
    calibrated: bool,
    /// Probability of the inserted evidence, valid after calibration.
    evidence_probability: f64,
}

impl PropagationState {
    /// Removes all evidence (hard and soft) and invalidates the
    /// calibration, making the state ready for the next request.
    pub fn clear_evidence(&mut self) {
        self.evidence.fill(None);
        self.likelihood.fill(None);
        self.soft_factors.clear();
        self.calibrated = false;
    }

    /// Whether a calibration has run since the last modification.
    pub fn is_calibrated(&self) -> bool {
        self.calibrated
    }

    /// The probability of the inserted evidence (1 when there is none).
    ///
    /// # Panics
    ///
    /// Panics if the state is not calibrated.
    pub fn evidence_probability(&self) -> f64 {
        assert_calibrated(self);
        self.evidence_probability
    }

    /// The calibrated (unnormalized) potential of clique `i`, in the
    /// canonical layout of its scope
    /// ([`JunctionTree::clique`]`(i)`).
    pub fn clique_potential(&self, i: usize) -> &[f64] {
        &self.cliques[self.layout.clique(i)]
    }

    /// The calibrated potential of sepset `edge`, numbered as in
    /// [`JunctionTree::sepsets`].
    pub fn sepset_potential(&self, edge: usize) -> &[f64] {
        &self.sepsets[self.layout.sepset(edge)]
    }
}

/// Where a tree's cliques and sepsets sit in a bound state's flat
/// buffers, plus each clique's cardinalities: computed once per compiled
/// tree and shared by every state bound to it.
#[derive(Debug, Default)]
pub(crate) struct StateLayout {
    /// Clique `i` spans `cliques[i]..cliques[i + 1]`.
    cliques: Vec<usize>,
    /// Sepset `e` spans `sepsets[e]..sepsets[e + 1]`.
    sepsets: Vec<usize>,
    /// Per clique: cardinalities aligned with its variables.
    cards: Vec<Vec<usize>>,
}

impl StateLayout {
    fn new(tree: &JunctionTree) -> StateLayout {
        fn offsets(lens: impl Iterator<Item = usize>) -> Vec<usize> {
            std::iter::once(0)
                .chain(lens.scan(0, |end, len| {
                    *end += len;
                    Some(*end)
                }))
                .collect()
        }
        let sepset_len = |e: usize| -> usize {
            let sepset = &tree.edge(e).sepset;
            sepset.iter().map(|&v| tree.card(v)).product()
        };
        StateLayout {
            cliques: offsets((0..tree.num_cliques()).map(|i| tree.clique_len(i))),
            sepsets: offsets((0..tree.num_edges()).map(sepset_len)),
            cards: (0..tree.num_cliques())
                .map(|i| tree.clique_cards(i))
                .collect(),
        }
    }

    /// Clique `i`'s range in the clique buffer.
    pub(crate) fn clique(&self, i: usize) -> Range<usize> {
        self.cliques[i]..self.cliques[i + 1]
    }

    /// Sepset `edge`'s range in the sepset buffer.
    pub(crate) fn sepset(&self, edge: usize) -> Range<usize> {
        self.sepsets[edge]..self.sepsets[edge + 1]
    }

    fn clique_entries(&self) -> usize {
        self.cliques.last().copied().unwrap_or(0)
    }

    fn sepset_entries(&self) -> usize {
        self.sepsets.last().copied().unwrap_or(0)
    }
}

fn validate_potentials(tree: &JunctionTree, potentials: &[Factor]) {
    assert_eq!(
        potentials.len(),
        tree.num_cliques(),
        "one potential per clique"
    );
    for (i, pot) in potentials.iter().enumerate() {
        assert_eq!(pot.vars(), tree.clique(i), "potential scope mismatch");
    }
}

fn scope_of(tree: &JunctionTree, vars: &[VarId]) -> Vec<(VarId, usize)> {
    vars.iter().map(|&v| (v, tree.card(v))).collect()
}

fn set_evidence_impl(
    tree: &JunctionTree,
    state: &mut PropagationState,
    var: VarId,
    value: usize,
) -> Result<(), BayesError> {
    let card = tree.card(var);
    if value >= card {
        return Err(BayesError::EvidenceOutOfRange {
            var: var.0,
            state: value,
            card,
        });
    }
    state.evidence[var.index()] = Some(value);
    state.calibrated = false;
    Ok(())
}

fn set_likelihood_impl(
    tree: &JunctionTree,
    state: &mut PropagationState,
    var: VarId,
    weights: Vec<f64>,
) -> Result<(), BayesError> {
    let card = tree.card(var);
    if weights.len() != card {
        return Err(BayesError::EvidenceOutOfRange {
            var: var.0,
            state: weights.len(),
            card,
        });
    }
    state.likelihood[var.index()] = Some(weights);
    state.calibrated = false;
    Ok(())
}

fn insert_factor_impl(
    tree: &JunctionTree,
    state: &mut PropagationState,
    factor: Factor,
) -> Result<(), BayesError> {
    let host = (0..tree.num_cliques()).find(|&c| {
        factor
            .vars()
            .iter()
            .all(|v| tree.clique(c).binary_search(v).is_ok())
    });
    let Some(host) = host else {
        return Err(BayesError::FactorOutsideClique {
            vars: factor.vars().iter().map(|v| v.index() as u32).collect(),
        });
    };
    state.soft_factors.push((host, factor));
    state.calibrated = false;
    Ok(())
}

/// The calibration steps shared by [`CompiledTree::calibrate`] and the
/// two-pass reference.
impl CompiledTree {
    /// Calibration prologue: marks every clique stale, so this calibration
    /// writes each clique's initial values on first touch. The sepsets keep
    /// whatever they held: [`collect`](CompiledTree::collect) overwrites
    /// each before anything reads it.
    fn begin_calibration(&self, state: &mut PropagationState) {
        assert!(
            Arc::ptr_eq(&state.layout, &self.layout),
            "state belongs to a different compiled tree"
        );
        state.stale.fill(true);
    }

    /// Writes clique `clique`'s initial potential into `state` from its
    /// hosted factors, unless this calibration already has.
    fn touch(&self, state: &mut PropagationState, clique: usize) {
        if std::mem::replace(&mut state.stale[clique], false) {
            sparse::materialize(
                &mut state.cliques[self.layout.clique(clique)],
                &self.hosted[clique],
            );
        }
    }

    /// Enters all recorded evidence, in a deterministic order, touching
    /// each clique it lands in first.
    fn enter_evidence(&self, state: &mut PropagationState) {
        for raw in 0..state.evidence.len() {
            if let Some(value) = state.evidence[raw] {
                let var = VarId::from_index(raw);
                let clique = self.tree.home_clique(var);
                self.touch(state, clique);
                self.scope(clique).reduce(
                    &mut state.cliques[self.layout.clique(clique)],
                    var,
                    value,
                );
            }
        }
        for raw in 0..state.likelihood.len() {
            if state.likelihood[raw].is_none() {
                continue;
            }
            let var = VarId::from_index(raw);
            let clique = self.tree.home_clique(var);
            self.touch(state, clique);
            let (scope, values) = (
                self.scope(clique),
                &mut state.cliques[self.layout.clique(clique)],
            );
            for (value, &w) in state.likelihood[raw].iter().flatten().enumerate() {
                scope.scale_state(values, var, value, w);
            }
        }
        for k in 0..state.soft_factors.len() {
            let host = state.soft_factors[k].0;
            self.touch(state, host);
            self.scope(host).mul_assign_sub(
                &mut state.cliques[self.layout.clique(host)],
                &state.soft_factors[k].1,
            );
        }
    }

    /// Calibration epilogue: touches the cliques no message or evidence
    /// reached (a single-clique component, say), then sets the evidence
    /// probability and the calibrated flag.
    fn finish_calibration(&self, state: &mut PropagationState) {
        for clique in 0..self.tree.num_cliques() {
            self.touch(state, clique);
        }
        // Probability of evidence: product over components of clique mass.
        let mut p = 1.0;
        for &root in self.tree.roots() {
            p *= state.cliques[self.layout.clique(root)].iter().sum::<f64>();
        }
        state.evidence_probability = p;
        state.calibrated = true;
    }

    /// The sender's and the receiver's projection of `edge` when `from`
    /// sends across it.
    fn sides(&self, edge: usize, from: usize) -> (&SideProj, &SideProj) {
        let proj = &self.kernels.edge_proj[edge];
        if from == self.tree.edge(edge).a {
            (&proj.a, &proj.b)
        } else {
            (&proj.b, &proj.a)
        }
    }

    /// One collect-pass absorption: `to` absorbs from `from` across `edge`.
    /// The schedule names each edge once, so the edge's old sepset would be
    /// the all-ones start of HUGIN's scheme, and `x / 1.0 == x` makes the
    /// message its own update: the sender marginalizes straight into the
    /// sepset and the receiver multiplies by it. This is the sepset's first
    /// write of the calibration; no division, no scratch.
    fn collect(&self, state: &mut PropagationState, from: usize, edge: usize, to: usize) {
        let (proj_from, proj_to) = self.sides(edge, from);
        self.touch(state, from);
        let sepset = &mut state.sepsets[self.layout.sepset(edge)];
        marginalize_side(
            &state.cliques[self.layout.clique(from)],
            self.kernels.support[from].as_deref(),
            proj_from,
            sepset,
        );
        self.touch(state, to);
        multiply_side(
            &mut state.cliques[self.layout.clique(to)],
            self.kernels.support[to].as_deref(),
            proj_to,
            &state.sepsets[self.layout.sepset(edge)],
        );
    }

    /// One distribute-pass HUGIN absorption: `to` absorbs from `from`
    /// across `edge`, entirely through the compile-time projections — no
    /// scope merges, no odometer walks, no allocation (the message lives
    /// in `state.scratch`).
    fn distribute(&self, state: &mut PropagationState, from: usize, edge: usize, to: usize) {
        let (proj_from, proj_to) = self.sides(edge, from);
        self.touch(state, from);
        let sep_len = self.layout.sepset(edge).len();
        state.scratch.resize(sep_len, 0.0);
        // (1) New sepset potential: marginalize the sender into scratch.
        marginalize_side(
            &state.cliques[self.layout.clique(from)],
            self.kernels.support[from].as_deref(),
            proj_from,
            &mut state.scratch[..sep_len],
        );
        // (2) Store it, turning scratch into the update ratio.
        store_message(
            &mut state.sepsets[self.layout.sepset(edge)],
            &mut state.scratch[..sep_len],
        );
        self.touch(state, to);
        // (3) Multiply the update into the receiver.
        multiply_side(
            &mut state.cliques[self.layout.clique(to)],
            self.kernels.support[to].as_deref(),
            proj_to,
            &state.scratch[..sep_len],
        );
    }
}

/// Sender-side marginalize through the sender's projection form.
fn marginalize_side(values: &[f64], support: Option<&[u32]>, side: &SideProj, target: &mut [f64]) {
    match side {
        SideProj::Blocked(blocked) => sparse::marginalize_blocked(values, blocked, target),
        SideProj::Support(table) => sparse::marginalize_into(values, support, table, target),
    }
}

/// Receiver-side multiply through the receiver's projection form.
fn multiply_side(values: &mut [f64], support: Option<&[u32]>, side: &SideProj, update: &[f64]) {
    match side {
        SideProj::Blocked(blocked) => sparse::multiply_blocked(values, blocked, update),
        SideProj::Support(table) => sparse::multiply_from(values, support, table, update),
    }
}

/// Step (2) of a distribute absorption: store the message in `update`
/// (scratch) as the new `sepset` potential, turning `update` into the
/// ratio new/old with the HUGIN convention 0/0 = 0 (nonzero/0 would mean
/// the sender gained mass the old sepset never saw — a propagation-order
/// bug). The ratio is a select, not a branch, and the nonzero/0 check is
/// one flag asserted after the loop.
fn store_message(sepset: &mut [f64], update: &mut [f64]) {
    let mut orphan = false;
    for (slot, msg) in sepset.iter_mut().zip(update.iter_mut()) {
        let (old, new) = (*slot, *msg);
        *slot = new;
        // `&`, not `&&`: a short circuit is a branch, and it keeps the
        // loop from vectorizing (2.0 vs 0.6 ns per entry).
        orphan |= (old == 0.0) & (new != 0.0);
        let ratio = new / old;
        *msg = if old == 0.0 { 0.0 } else { ratio };
    }
    assert!(
        !orphan,
        "division of nonzero message entry by zero sepset entry"
    );
}

fn assert_calibrated(state: &PropagationState) {
    assert!(state.calibrated, "call calibrate() first");
}

/// The factor-algebra reads over a calibrated state.
impl CompiledTree {
    fn joint_marginal_impl(&self, state: &PropagationState, vars: &[VarId]) -> Option<Factor> {
        assert_calibrated(state);
        let tree = &self.tree;
        let clique = (0..tree.num_cliques())
            .find(|&c| vars.iter().all(|v| tree.clique(c).binary_search(v).is_ok()))?;
        let mut m = self.clique_factor(state, clique).marginalize_keep(vars);
        m.normalize();
        Some(m)
    }

    fn pairwise_marginal_impl(
        &self,
        state: &PropagationState,
        a: VarId,
        b: VarId,
    ) -> Option<Factor> {
        assert_calibrated(state);
        assert_ne!(a, b, "pairwise marginal needs two distinct variables");
        if let Some(joint) = self.joint_marginal_impl(state, &[a.min(b), a.max(b)]) {
            return Some(joint);
        }
        let tree = &self.tree;
        let ca = tree.home_clique(a);
        let cb = tree.home_clique(b);
        let path = tree.clique_path(ca, cb)?;
        // Walk the path keeping a factor over {a} ∪ current sepset: the
        // calibrated joint factorizes as Π φ_C / Π φ_S along the path.
        // Marginalizing *before* multiplying into the next clique keeps
        // every intermediate at sepset-plus-one-variable size.
        // An empty path means ca == cb, which joint_marginal_impl above
        // would have handled; bail out rather than panic if that invariant
        // slips.
        let (first_edge, _) = *path.first()?;
        let mut keep: Vec<VarId> = tree.edge(first_edge).sepset.clone();
        keep.push(a);
        let mut message = self.clique_factor(state, ca).marginalize_keep(&keep);
        message.div_assign_sub(&self.sepset_factor(state, first_edge));
        for window in path.windows(2) {
            let (_, clique) = window[0];
            let (next_edge, _) = window[1];
            let mut keep: Vec<VarId> = tree.edge(next_edge).sepset.clone();
            keep.push(a);
            let mut next_message = self
                .clique_factor(state, clique)
                .product_marginalize(&message, &keep);
            next_message.div_assign_sub(&self.sepset_factor(state, next_edge));
            message = next_message;
        }
        let (_, last_clique) = *path.last()?;
        let mut joint = self
            .clique_factor(state, last_clique)
            .product_marginalize(&message, &[a.min(b), a.max(b)]);
        joint.normalize();
        Some(joint)
    }
}

/// Computes the initial clique potentials of a network over a compiled
/// tree: every CPT multiplied into its assigned clique, all other entries
/// one. [`CompiledTree::new`] calls this; callers that assemble the tree
/// themselves feed the result to [`CompiledTree::from_parts`].
///
/// # Panics
///
/// Panics if the network does not match the tree (variable count or
/// cardinalities).
pub fn initial_potentials(tree: &JunctionTree, net: &BayesNet) -> Vec<Factor> {
    assert_eq!(net.num_vars(), tree.num_vars(), "network/tree mismatch");
    let mut pots: Vec<Factor> = (0..tree.num_cliques())
        .map(|i| Factor::ones(scope_of(tree, tree.clique(i))))
        .collect();
    for var in net.var_ids() {
        assert_eq!(
            net.card(var),
            tree.card(var),
            "network/tree cardinality mismatch for {var}"
        );
        pots[tree.cpt_clique(var)].mul_assign_sub(net.cpt_factor(var));
    }
    pots
}

/// Builds the collect schedule: for every component root, DFS outward; each
/// tree edge appears once as `(child_clique, edge, parent_clique)` in an
/// order where children precede parents.
fn build_schedule(tree: &JunctionTree) -> Vec<(usize, usize, usize)> {
    let mut schedule = Vec::with_capacity(tree.num_edges());
    let mut visited = vec![false; tree.num_cliques()];
    for &root in tree.roots() {
        // Iterative post-order.
        let mut stack = vec![(root, usize::MAX)];
        let mut post = Vec::new();
        visited[root] = true;
        while let Some((clique, via_edge)) = stack.pop() {
            post.push((clique, via_edge));
            for &e in tree.incident_edges(clique) {
                let edge = tree.edge(e);
                let other = if edge.a == clique { edge.b } else { edge.a };
                if !visited[other] {
                    visited[other] = true;
                    stack.push((other, e));
                }
            }
        }
        // Children appear after parents in `post`; reverse gives leaves-first.
        for &(clique, via_edge) in post.iter().rev() {
            if via_edge != usize::MAX {
                let edge = tree.edge(via_edge);
                let parent = if edge.a == clique { edge.b } else { edge.a };
                schedule.push((clique, via_edge, parent));
            }
        }
    }
    debug_assert_eq!(schedule.len(), tree.num_edges(), "one message per edge");
    schedule
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::{Cpt, JunctionTree};

    fn sprinkler() -> (BayesNet, [VarId; 4]) {
        let mut net = BayesNet::new();
        let cloudy = net
            .add_var("cloudy", 2, &[], Cpt::prior(vec![0.5, 0.5]))
            .unwrap();
        let sprinkler = net
            .add_var(
                "sprinkler",
                2,
                &[cloudy],
                Cpt::rows(vec![vec![0.5, 0.5], vec![0.9, 0.1]]),
            )
            .unwrap();
        let rain = net
            .add_var(
                "rain",
                2,
                &[cloudy],
                Cpt::rows(vec![vec![0.8, 0.2], vec![0.2, 0.8]]),
            )
            .unwrap();
        let wet = net
            .add_var(
                "wet",
                2,
                &[sprinkler, rain],
                Cpt::rows(vec![
                    vec![1.0, 0.0],
                    vec![0.1, 0.9],
                    vec![0.1, 0.9],
                    vec![0.01, 0.99],
                ]),
            )
            .unwrap();
        (net, [cloudy, sprinkler, rain, wet])
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} vs {b:?}");
        }
    }

    fn compile(net: &BayesNet) -> CompiledTree {
        CompiledTree::new(JunctionTree::compile(net).unwrap(), net).unwrap()
    }

    #[test]
    fn prior_marginals_match_brute_force() {
        let (net, vars) = sprinkler();
        let compiled = compile(&net);
        let mut state = compiled.new_state();
        compiled.calibrate(&mut state);
        for var in vars {
            assert_close(
                &compiled.marginal(&state, var),
                &net.brute_force_marginal(var, &[]),
                1e-12,
            );
        }
        assert!((state.evidence_probability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn posterior_marginals_match_brute_force() {
        let (net, [_, sprinkler_v, rain, wet]) = sprinkler();
        let compiled = compile(&net);
        let mut state = compiled.new_state();
        compiled.set_evidence(&mut state, wet, 1).unwrap();
        compiled.calibrate(&mut state);
        assert_close(
            &compiled.marginal(&state, rain),
            &net.brute_force_marginal(rain, &[(wet, 1)]),
            1e-12,
        );
        // Explaining away: add sprinkler evidence.
        compiled.set_evidence(&mut state, sprinkler_v, 1).unwrap();
        compiled.calibrate(&mut state);
        assert_close(
            &compiled.marginal(&state, rain),
            &net.brute_force_marginal(rain, &[(wet, 1), (sprinkler_v, 1)]),
            1e-12,
        );
    }

    #[test]
    fn evidence_probability_matches_joint() {
        let (net, [.., wet]) = sprinkler();
        let compiled = compile(&net);
        let mut state = compiled.new_state();
        compiled.set_evidence(&mut state, wet, 1).unwrap();
        compiled.calibrate(&mut state);
        let mut joint = net.joint();
        joint.reduce(wet, 1);
        assert!((state.evidence_probability() - joint.total()).abs() < 1e-12);
    }

    #[test]
    fn clear_evidence_restores_prior() {
        let (net, [cloudy, .., wet]) = sprinkler();
        let compiled = compile(&net);
        let mut state = compiled.new_state();
        compiled.calibrate(&mut state);
        let prior = compiled.marginal(&state, cloudy);
        compiled.set_evidence(&mut state, wet, 0).unwrap();
        compiled.calibrate(&mut state);
        assert!(compiled.marginal(&state, cloudy) != prior);
        state.clear_evidence();
        compiled.calibrate(&mut state);
        assert_close(&compiled.marginal(&state, cloudy), &prior, 1e-12);
    }

    #[test]
    fn soft_evidence_scales_posterior() {
        let (net, [cloudy, _, rain, _]) = sprinkler();
        let compiled = compile(&net);
        let mut state = compiled.new_state();
        // Likelihood [0, 1] on rain behaves like hard evidence rain=1.
        compiled
            .set_likelihood(&mut state, rain, vec![0.0, 1.0])
            .unwrap();
        compiled.calibrate(&mut state);
        assert_close(
            &compiled.marginal(&state, cloudy),
            &net.brute_force_marginal(cloudy, &[(rain, 1)]),
            1e-12,
        );
    }

    #[test]
    fn insert_factor_equals_joint_reweighting() {
        // Multiplying a two-variable factor must match brute force over
        // the reweighted joint.
        let (net, [cloudy, sprinkler_v, rain, _]) = sprinkler();
        let compiled = compile(&net);
        let mut state = compiled.new_state();
        let weights = Factor::new(
            vec![(sprinkler_v.min(rain), 2), (sprinkler_v.max(rain), 2)],
            vec![1.0, 0.2, 0.4, 2.0],
        );
        compiled.insert_factor(&mut state, weights.clone()).unwrap();
        compiled.calibrate(&mut state);
        let mut joint = net.joint();
        joint = joint.product(&weights);
        let mut want = joint.marginalize_keep(&[cloudy]);
        want.normalize();
        assert_close(&compiled.marginal(&state, cloudy), want.values(), 1e-12);
        // Clearing evidence removes the factor.
        state.clear_evidence();
        compiled.calibrate(&mut state);
        assert_close(
            &compiled.marginal(&state, cloudy),
            &net.brute_force_marginal(cloudy, &[]),
            1e-12,
        );
    }

    #[test]
    fn insert_factor_outside_clique_rejected() {
        // cloudy and wet never share a clique in this network.
        let (net, [cloudy, _, _, wet]) = sprinkler();
        let compiled = compile(&net);
        let tree = compiled.tree();
        let mut state = compiled.new_state();
        let f = Factor::ones(vec![(cloudy.min(wet), 2), (cloudy.max(wet), 2)]);
        let in_clique = (0..tree.num_cliques())
            .any(|c| tree.clique(c).contains(&cloudy) && tree.clique(c).contains(&wet));
        if !in_clique {
            assert!(matches!(
                compiled.insert_factor(&mut state, f),
                Err(BayesError::FactorOutsideClique { .. })
            ));
        }
    }

    #[test]
    fn joint_marginal_within_clique() {
        let (net, [_, sprinkler_v, rain, wet]) = sprinkler();
        let compiled = compile(&net);
        let mut state = compiled.new_state();
        compiled.calibrate(&mut state);
        let joint = compiled
            .joint_marginal(&state, &[sprinkler_v, rain, wet])
            .expect("family of wet shares a clique");
        assert!((joint.total() - 1.0).abs() < 1e-12);
        // Consistency: its marginal equals the single-variable read.
        let wet_marg = joint.marginalize_keep(&[wet]);
        assert_close(wet_marg.values(), &compiled.marginal(&state, wet), 1e-12);
    }

    #[test]
    fn pairwise_marginal_matches_brute_force_across_cliques() {
        // Build a chain long enough that the endpoints share no clique.
        let mut net = BayesNet::new();
        let mut prev = net
            .add_var("x0", 2, &[], Cpt::prior(vec![0.3, 0.7]))
            .unwrap();
        let first = prev;
        for i in 1..6 {
            prev = net
                .add_var(
                    format!("x{i}"),
                    2,
                    &[prev],
                    Cpt::rows(vec![vec![0.8, 0.2], vec![0.3, 0.7]]),
                )
                .unwrap();
        }
        let last = prev;
        let compiled = compile(&net);
        let mut state = compiled.new_state();
        compiled.calibrate(&mut state);
        let joint = compiled
            .pairwise_marginal(&state, first, last)
            .expect("same component");
        // Brute force joint.
        let reference = net.joint().marginalize_keep(&[first, last]);
        for (a, b) in joint.values().iter().zip(reference.values()) {
            assert!(
                (a - b).abs() < 1e-12,
                "{:?} vs {:?}",
                joint.values(),
                reference.values()
            );
        }
        // With evidence in the middle the endpoints decouple.
        let mid = net.find_var("x3").unwrap();
        compiled.set_evidence(&mut state, mid, 1).unwrap();
        compiled.calibrate(&mut state);
        let joint = compiled.pairwise_marginal(&state, first, last).unwrap();
        let pa = compiled.marginal(&state, first);
        let pb = compiled.marginal(&state, last);
        for s in 0..4 {
            let want = pa[s / 2] * pb[s % 2];
            assert!((joint.values()[s] - want).abs() < 1e-12);
        }
    }

    #[test]
    fn pairwise_marginal_across_components_is_none() {
        let mut net = BayesNet::new();
        let a = net
            .add_var("a", 2, &[], Cpt::prior(vec![0.5, 0.5]))
            .unwrap();
        let b = net
            .add_var("b", 2, &[], Cpt::prior(vec![0.5, 0.5]))
            .unwrap();
        let compiled = compile(&net);
        let mut state = compiled.new_state();
        compiled.calibrate(&mut state);
        assert!(compiled.pairwise_marginal(&state, a, b).is_none());
    }

    #[test]
    fn requantified_net_reuses_the_compiled_structure() {
        // New priors need new initial potentials, not a new triangulation:
        // rebuilding the CompiledTree over the same JunctionTree absorbs
        // them exactly.
        let (mut net, [cloudy, .., wet]) = sprinkler();
        let tree = JunctionTree::compile(&net).unwrap();
        let compiled = CompiledTree::new(tree.clone(), &net).unwrap();
        let mut state = compiled.new_state();
        compiled.calibrate(&mut state);
        let before = compiled.marginal(&state, wet);
        net.set_cpt(cloudy, Cpt::prior(vec![0.95, 0.05])).unwrap();
        let requantified = CompiledTree::new(tree, &net).unwrap();
        let mut state = requantified.new_state();
        requantified.calibrate(&mut state);
        let after = requantified.marginal(&state, wet);
        assert!(after != before);
        assert_close(&after, &net.brute_force_marginal(wet, &[]), 1e-12);
    }

    #[test]
    fn evidence_errors() {
        let (net, [cloudy, ..]) = sprinkler();
        let compiled = compile(&net);
        let mut state = compiled.new_state();
        assert!(matches!(
            compiled.set_evidence(&mut state, cloudy, 5),
            Err(BayesError::EvidenceOutOfRange { state: 5, .. })
        ));
        assert!(compiled
            .set_likelihood(&mut state, cloudy, vec![1.0; 3])
            .is_err());
    }

    #[test]
    #[should_panic(expected = "calibrate")]
    fn reading_uncalibrated_panics() {
        let (net, [cloudy, ..]) = sprinkler();
        let compiled = compile(&net);
        let state = compiled.new_state();
        let _ = compiled.marginal(&state, cloudy);
    }

    #[test]
    fn disconnected_components_calibrate_independently() {
        let mut net = BayesNet::new();
        let a = net
            .add_var("a", 2, &[], Cpt::prior(vec![0.3, 0.7]))
            .unwrap();
        let b = net
            .add_var("b", 2, &[], Cpt::prior(vec![0.9, 0.1]))
            .unwrap();
        let compiled = compile(&net);
        let mut state = compiled.new_state();
        compiled.set_evidence(&mut state, a, 1).unwrap();
        compiled.calibrate(&mut state);
        assert_close(&compiled.marginal(&state, b), &[0.9, 0.1], 1e-12);
        assert!((state.evidence_probability() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn impossible_evidence_reports_zero_probability() {
        let mut net = BayesNet::new();
        let a = net
            .add_var("a", 2, &[], Cpt::prior(vec![1.0, 0.0]))
            .unwrap();
        let b = net
            .add_var(
                "b",
                2,
                &[a],
                Cpt::rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]),
            )
            .unwrap();
        let compiled = compile(&net);
        let mut state = compiled.new_state();
        compiled.set_evidence(&mut state, b, 1).unwrap();
        compiled.calibrate(&mut state);
        assert_eq!(state.evidence_probability(), 0.0);
    }

    #[test]
    fn reused_state_is_bit_identical_to_fresh_state() {
        let (net, [cloudy, _, rain, wet]) = sprinkler();
        let tree = JunctionTree::compile(&net).unwrap();
        let compiled = CompiledTree::new(tree, &net).unwrap();
        // First request leaves the state dirty (calibrated, with evidence).
        let mut reused = compiled.new_state();
        compiled.set_evidence(&mut reused, wet, 0).unwrap();
        compiled.calibrate(&mut reused);
        let _ = compiled.marginal(&reused, cloudy);
        // Second request on the same state vs a brand-new state.
        reused.clear_evidence();
        compiled
            .set_likelihood(&mut reused, rain, vec![0.3, 0.7])
            .unwrap();
        compiled.calibrate(&mut reused);
        let mut fresh = compiled.new_state();
        compiled
            .set_likelihood(&mut fresh, rain, vec![0.3, 0.7])
            .unwrap();
        compiled.calibrate(&mut fresh);
        assert_eq!(
            compiled.marginal(&reused, cloudy),
            compiled.marginal(&fresh, cloudy)
        );
        assert_eq!(
            compiled.marginal(&reused, wet),
            compiled.marginal(&fresh, wet)
        );
        assert_eq!(reused.evidence_probability(), fresh.evidence_probability());
    }

    #[test]
    fn fresh_state_first_calibration_matches_a_reused_state_bit_for_bit() {
        let (net, [cloudy, sprinkler, rain, wet]) = sprinkler();
        let compiled = compile(&net);
        let bits = |state: &PropagationState| -> Vec<u64> {
            state
                .cliques
                .iter()
                .chain(&state.sepsets)
                .map(|x| x.to_bits())
                .chain([state.evidence_probability().to_bits()])
                .collect()
        };
        let entry_points: [fn(&CompiledTree, &mut PropagationState); 2] =
            [CompiledTree::calibrate, CompiledTree::calibrate_two_pass];
        for calibrate in entry_points {
            // The reused state first propagates other evidence, which
            // leaves every potential away from its initial value.
            let mut reused = compiled.new_state();
            compiled.set_evidence(&mut reused, wet, 0).unwrap();
            compiled
                .set_likelihood(&mut reused, cloudy, vec![0.2, 0.8])
                .unwrap();
            calibrate(&compiled, &mut reused);
            reused.clear_evidence();
            let mut fresh = compiled.new_state();
            for state in [&mut reused, &mut fresh] {
                compiled.set_evidence(state, sprinkler, 1).unwrap();
                compiled
                    .set_likelihood(state, rain, vec![0.3, 0.7])
                    .unwrap();
                calibrate(&compiled, state);
            }
            assert_eq!(bits(&fresh), bits(&reused));
        }
    }

    #[test]
    fn rebound_state_matches_a_fresh_state_without_reallocating() {
        let (first_net, [_, _, _, wet]) = deterministic_net();
        let (net, [cloudy, _, rain, _]) = sprinkler();
        let (first, small) = (compile(&first_net), compile(&net));
        let mut state = first.new_state();
        first.set_evidence(&mut state, wet, 1).unwrap();
        first.calibrate(&mut state);
        let (cliques, sepsets) = (state.cliques.as_ptr(), state.sepsets.as_ptr());
        assert!(
            first.state_space() >= small.state_space()
                && first.sepset_space() >= small.sepset_space()
        );
        small.bind_state(&mut state);
        assert!(!state.is_calibrated());
        let mut fresh = small.new_state();
        for s in [&mut state, &mut fresh] {
            small.set_likelihood(s, rain, vec![0.3, 0.7]).unwrap();
            small.calibrate(s);
        }
        assert_eq!(state.cliques.as_ptr(), cliques, "rebinding reallocated");
        assert_eq!(state.sepsets.as_ptr(), sepsets, "rebinding reallocated");
        for i in 0..small.tree().num_cliques() {
            assert_eq!(state.clique_potential(i), fresh.clique_potential(i));
        }
        for e in 0..small.tree().num_edges() {
            assert_eq!(state.sepset_potential(e), fresh.sepset_potential(e));
        }
        assert_eq!(
            small.marginal(&state, cloudy),
            small.marginal(&fresh, cloudy)
        );
        // Without a rebind, the other tree refuses the state.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            first.calibrate(&mut state);
        }));
        assert!(
            result.is_err(),
            "a state bound to one tree calibrated another"
        );
    }

    #[test]
    #[should_panic(expected = "division of nonzero")]
    fn store_message_rejects_nonzero_over_zero() {
        let mut sepset = [0.5, 0.0, 2.0];
        let mut update = [0.25, 0.125, 1.0];
        store_message(&mut sepset, &mut update);
    }

    #[test]
    fn store_message_takes_zero_over_zero_as_zero() {
        let mut sepset = [0.5, 0.0, 2.0, 0.0];
        let mut update = [0.25, 0.0, 1.0, -0.0];
        store_message(&mut sepset, &mut update);
        assert_eq!(
            sepset.map(f64::to_bits),
            [0.25, 0.0, 1.0, -0.0].map(f64::to_bits)
        );
        assert_eq!(
            update.map(f64::to_bits),
            [0.5, 0.0, 0.5, 0.0].map(f64::to_bits)
        );
    }

    #[test]
    fn compiled_tree_propagates_concurrently() {
        // One compile shared by threads, each with its own state and its
        // own evidence; results must match sequential propagation.
        let (net, [_, _, rain, wet]) = sprinkler();
        let tree = JunctionTree::compile(&net).unwrap();
        let compiled = CompiledTree::new(tree, &net).unwrap();
        let sequential: Vec<Vec<f64>> = (0..2)
            .map(|obs| {
                let mut state = compiled.new_state();
                compiled.set_evidence(&mut state, wet, obs).unwrap();
                compiled.calibrate(&mut state);
                compiled.marginal(&state, rain)
            })
            .collect();
        let concurrent: Vec<Vec<f64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|obs| {
                    let compiled = &compiled;
                    scope.spawn(move || {
                        let mut state = compiled.new_state();
                        compiled.set_evidence(&mut state, wet, obs).unwrap();
                        compiled.calibrate(&mut state);
                        compiled.marginal(&state, rain)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(sequential, concurrent);
    }

    #[test]
    fn state_space_counts_clique_entries() {
        let (net, _) = sprinkler();
        let tree = JunctionTree::compile(&net).unwrap();
        let expected: usize = initial_potentials(&tree, &net)
            .iter()
            .map(Factor::len)
            .sum();
        let compiled = CompiledTree::new(tree, &net).unwrap();
        assert_eq!(compiled.state_space(), expected);
        assert!(compiled.state_space() > 0);
    }

    /// A net dominated by deterministic CPTs, LIDAG-style: two priors and
    /// a chain of AND/XOR truth-table nodes.
    fn deterministic_net() -> (BayesNet, [VarId; 4]) {
        let and_rows = Cpt::rows(vec![
            vec![1.0, 0.0],
            vec![1.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
        ]);
        let xor_rows = Cpt::rows(vec![
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
        ]);
        let mut net = BayesNet::new();
        let a = net
            .add_var("a", 2, &[], Cpt::prior(vec![0.6, 0.4]))
            .unwrap();
        let b = net
            .add_var("b", 2, &[], Cpt::prior(vec![0.3, 0.7]))
            .unwrap();
        let c = net.add_var("c", 2, &[a, b], and_rows).unwrap();
        let d = net.add_var("d", 2, &[a, c], xor_rows).unwrap();
        (net, [a, b, c, d])
    }

    #[test]
    fn sparse_modes_are_bit_identical() {
        for (net, vars) in [sprinkler(), deterministic_net()] {
            let tree = JunctionTree::compile(&net).unwrap();
            let pots = initial_potentials(&tree, &net);
            let compile = |mode| CompiledTree::from_parts_with(tree.clone(), pots.clone(), mode);
            let off = compile(SparseMode::Off);
            assert_eq!(off.compressed_cliques(), 0);
            for mode in [SparseMode::Auto, SparseMode::On] {
                let on = compile(mode);
                assert_eq!(on.nnz(), off.nnz(), "nnz is a property of the potentials");
                // Propagation with hard and soft evidence.
                let mut s_off = off.new_state();
                let mut s_on = on.new_state();
                for s in [&mut s_off, &mut s_on] {
                    s.clear_evidence();
                }
                off.set_evidence(&mut s_off, vars[3], 1).unwrap();
                on.set_evidence(&mut s_on, vars[3], 1).unwrap();
                off.set_likelihood(&mut s_off, vars[1], vec![0.2, 0.8])
                    .unwrap();
                on.set_likelihood(&mut s_on, vars[1], vec![0.2, 0.8])
                    .unwrap();
                off.calibrate(&mut s_off);
                on.calibrate(&mut s_on);
                for &var in &vars {
                    assert_eq!(off.marginal(&s_off, var), on.marginal(&s_on, var));
                }
                assert_eq!(s_off.evidence_probability(), s_on.evidence_probability());
            }
        }
    }

    #[test]
    fn auto_mode_uses_the_per_clique_cost_model() {
        // Binary truth tables zero out exactly half of a clique's states.
        // That is *not* enough for the sparse kernels — three indexed loads
        // per surviving entry — to beat the dense sequential sweep, so auto
        // must keep these cliques dense. (This is the c880 regression: the
        // old global ≥50% rule compressed half-zero cliques and lost.)
        let (net, _) = deterministic_net();
        let tree = JunctionTree::compile(&net).unwrap();
        let compiled = CompiledTree::new(tree, &net).unwrap();
        assert_eq!(compiled.sparse_mode(), SparseMode::Auto);
        assert!(
            compiled.zero_fraction() >= 0.5,
            "truth-table CPTs must zero out most of the state space, got {}",
            compiled.zero_fraction()
        );
        assert_eq!(
            compiled.compressed_cliques(),
            0,
            "half-zero cliques lose on the sparse path and must stay dense"
        );
        assert!(compiled.nnz() < compiled.state_space());
        // Auto's kernel cost never exceeds the all-dense cost by
        // construction: it only compresses cliques where sparse wins.
        let dense = CompiledTree::from_parts_with(
            JunctionTree::compile(&net).unwrap(),
            initial_potentials(&JunctionTree::compile(&net).unwrap(), &net),
            SparseMode::Off,
        );
        assert!(compiled.kernel_cost() <= dense.kernel_cost());
    }

    #[test]
    fn auto_mode_compresses_past_the_break_even_point() {
        // A one-hot CPT for an 8-valued child of two binary inputs leaves
        // 4 of 32 clique states alive (zero fraction 0.875 > 4/5), so the
        // per-clique cost model picks the sparse path for it.
        let one_hot = |i: usize| {
            let mut row = vec![0.0; 8];
            row[i] = 1.0;
            row
        };
        let mut net = BayesNet::new();
        let a = net
            .add_var("a", 2, &[], Cpt::prior(vec![0.6, 0.4]))
            .unwrap();
        let b = net
            .add_var("b", 2, &[], Cpt::prior(vec![0.3, 0.7]))
            .unwrap();
        net.add_var(
            "pair",
            8,
            &[a, b],
            Cpt::rows(vec![one_hot(0), one_hot(1), one_hot(2), one_hot(3)]),
        )
        .unwrap();
        let tree = JunctionTree::compile(&net).unwrap();
        let compiled = CompiledTree::new(tree, &net).unwrap();
        assert_eq!(compiled.sparse_mode(), SparseMode::Auto);
        assert!(
            compiled.compressed_cliques() > 0,
            "an 87.5%-zero clique clears the 5·nnz < len break-even point"
        );
        let dense = CompiledTree::from_parts_with(
            JunctionTree::compile(&net).unwrap(),
            initial_potentials(&JunctionTree::compile(&net).unwrap(), &net),
            SparseMode::Off,
        );
        assert!(compiled.kernel_cost() < dense.kernel_cost());
    }
}
