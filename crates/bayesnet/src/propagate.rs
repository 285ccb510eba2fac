use std::sync::{Mutex, PoisonError};

use crate::codec::{fnv128, fnv128_u64, FNV128_OFFSET};
use crate::junction::JunctionTree;
use crate::pairwise::{self, PairwisePlan};
use crate::sparse::{self, PropagationKernels, SideProj};
use crate::{BayesError, BayesNet, Factor, KernelMode, SparseMode, VarId};

/// The immutable half of HUGIN propagation: clique structure, initial
/// potentials, and the collect/distribute message schedule.
///
/// Compiling a network is expensive (triangulation, CPT multiplication,
/// schedule construction); propagating evidence through the compiled
/// result is cheap. `CompiledTree` captures everything the expensive phase
/// produces in one immutable, `Send + Sync` artifact so that *many*
/// propagations — sequential or concurrent — can share it:
///
/// ```text
/// CompiledTree (shared, read-only)     PropagationState (one per request)
/// ├─ junction tree structure           ├─ working clique potentials
/// ├─ initial clique potentials         ├─ sepset potentials
/// └─ message schedule                  └─ evidence + calibration flags
/// ```
///
/// Each propagation borrows the compiled tree immutably and mutates only
/// its own [`PropagationState`] (created by
/// [`new_state`](CompiledTree::new_state), reusable across requests).
///
/// One propagation's lifecycle:
///
/// 1. [`new`](CompiledTree::new) multiplies every CPT into its assigned
///    clique (initialization) and [`new_state`](CompiledTree::new_state)
///    opens a request;
/// 2. [`set_evidence`](CompiledTree::set_evidence) /
///    [`set_likelihood`](CompiledTree::set_likelihood) record observations;
/// 3. [`calibrate`](CompiledTree::calibrate) runs *collect* (leaves → root)
///    then *distribute* (root → leaves); afterwards every clique potential
///    is proportional to the joint marginal over its variables;
/// 4. [`marginal`](CompiledTree::marginal) and friends read results; the
///    pre-normalization mass is the probability of the evidence.
///
/// Re-quantified networks (e.g. new input statistics in the paper's §6)
/// reuse the compiled [`JunctionTree`]: only the initial potentials are
/// rebuilt, with a new `CompiledTree::new(tree, &net)`.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct CompiledTree {
    tree: JunctionTree,
    /// Initial potentials (CPT products), the reset point of every request.
    init_clique_pot: Vec<Factor>,
    /// Collect schedule: edges as (from_clique, edge_idx, to_clique), leaves
    /// towards roots. Distribution replays it reversed and flipped.
    schedule: Vec<(usize, usize, usize)>,
    /// Precomputed absorb kernels: one clique→sepset projection per edge
    /// side plus per-clique zero-compression supports (see the `sparse`
    /// module).
    kernels: PropagationKernels,
    /// The zero-compression policy the kernels were built with.
    mode: SparseMode,
    /// Dependency mask: for each clique, the evidence variables whose
    /// observations are entered *at* that clique (its home variables).
    /// Evidence anywhere else reaches the clique only through messages, so
    /// hashing these per clique and folding the hashes along the collect
    /// schedule yields, per edge, a bit-exact key over every prior the
    /// message can depend on.
    home_vars: Vec<Vec<VarId>>,
}

// The whole point of the split: compiled trees are shareable across
// threads. Factors and the tree are plain owned data, so this holds by
// construction; the assertion turns any future regression (e.g. an Rc or
// RefCell sneaking into a field) into a compile error.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompiledTree>();
    assert_send_sync::<PropagationState>();
    assert_send_sync::<MessageCache>();
};

impl CompiledTree {
    /// Compiles the propagation artifact for `net` over its junction tree:
    /// multiplies every CPT into its assigned clique and builds the
    /// message schedule.
    ///
    /// # Errors
    ///
    /// Returns [`BayesError::Empty`] if the network is empty. The network
    /// must be the one the tree was compiled from (same variables and
    /// cardinalities); mismatches panic.
    pub fn new(tree: JunctionTree, net: &BayesNet) -> Result<CompiledTree, BayesError> {
        if net.num_vars() == 0 {
            return Err(BayesError::Empty);
        }
        let potentials = initial_potentials(&tree, net);
        Ok(CompiledTree::from_parts(tree, potentials))
    }

    /// Builds the artifact from precomputed initial clique potentials (as
    /// produced by [`initial_potentials`]) — the fast path when the caller
    /// has already assembled potentials itself. Zero compression follows
    /// [`SparseMode::Auto`]; use
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
        let schedule = build_schedule(&tree);
        let kernels = PropagationKernels::build(&tree, &potentials, mode);
        let mut home_vars: Vec<Vec<VarId>> = vec![Vec::new(); tree.num_cliques()];
        for raw in 0..tree.num_vars() {
            let var = VarId::from_index(raw);
            home_vars[tree.home_clique(var)].push(var);
        }
        CompiledTree {
            tree,
            init_clique_pot: potentials,
            schedule,
            kernels,
            mode,
            home_vars,
        }
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

    /// The compiled junction tree structure.
    pub fn tree(&self) -> &JunctionTree {
        &self.tree
    }

    /// The initial clique potentials every propagation starts from.
    pub fn initial_potentials(&self) -> &[Factor] {
        &self.init_clique_pot
    }

    /// The collect schedule: `(from_clique, edge, to_clique)` triples,
    /// leaves towards roots. Distribution replays it reversed and flipped.
    pub fn message_schedule(&self) -> &[(usize, usize, usize)] {
        &self.schedule
    }

    /// Total entries across all clique potentials — the per-request memory
    /// and per-propagation work, used by caches to cost-rank compiled
    /// models.
    pub fn state_space(&self) -> usize {
        self.init_clique_pot.iter().map(Factor::len).sum()
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
        self.kernels
            .support
            .iter()
            .zip(&self.init_clique_pot)
            .map(|(support, pot)| match support {
                Some(s) => sparse::SPARSE_COST_PER_ENTRY * s.len(),
                None => pot.len(),
            })
            .sum()
    }

    /// Every field of the artifact, for the [`crate::codec`] encoder.
    #[allow(clippy::type_complexity)]
    pub(crate) fn codec_parts(
        &self,
    ) -> (
        &JunctionTree,
        &[Factor],
        &[(usize, usize, usize)],
        &PropagationKernels,
        SparseMode,
        &[Vec<VarId>],
    ) {
        (
            &self.tree,
            &self.init_clique_pot,
            &self.schedule,
            &self.kernels,
            self.mode,
            &self.home_vars,
        )
    }

    /// Rebuilds the artifact from decoded fields — schedule, kernels, and
    /// home-variable masks included — without re-running
    /// [`from_parts_with`](CompiledTree::from_parts_with), so a loaded
    /// artifact is field-for-field (and therefore bit-for-bit) the struct
    /// the original compile produced. Only the [`crate::codec`] decoder
    /// calls this, after checksum verification.
    pub(crate) fn from_codec_parts(
        tree: JunctionTree,
        init_clique_pot: Vec<Factor>,
        schedule: Vec<(usize, usize, usize)>,
        kernels: PropagationKernels,
        mode: SparseMode,
        home_vars: Vec<Vec<VarId>>,
    ) -> CompiledTree {
        CompiledTree {
            tree,
            init_clique_pot,
            schedule,
            kernels,
            mode,
            home_vars,
        }
    }

    /// The dependency mask of clique `i`: the variables whose evidence is
    /// entered at that clique. Evidence on any other variable influences
    /// the clique only through sepset messages.
    pub fn clique_dependencies(&self, i: usize) -> &[VarId] {
        &self.home_vars[i]
    }

    /// A message cache sized for this tree, for use with
    /// [`calibrate_with_cache`](CompiledTree::calibrate_with_cache). One
    /// slot per edge (its memory is bounded by the tree's sepset totals),
    /// shareable across threads and across [`PropagationState`]s.
    pub fn new_message_cache(&self) -> MessageCache {
        MessageCache {
            slots: (0..self.tree.num_edges())
                .map(|_| Mutex::new(None))
                .collect(),
        }
    }

    /// A fresh mutable state for this tree. States are reusable: a second
    /// `calibrate` on the same state reuses its buffers instead of
    /// reallocating, which is what per-request pooling exploits.
    pub fn new_state(&self) -> PropagationState {
        PropagationState {
            clique_pot: self.init_clique_pot.clone(),
            sep_pot: ones_sepsets(&self.tree),
            evidence: vec![None; self.tree.num_vars()],
            likelihood: vec![None; self.tree.num_vars()],
            soft_factors: Vec::new(),
            scratch: Vec::with_capacity(self.tree.max_sepset_states()),
            path_msg: Vec::new(),
            path_next: Vec::new(),
            calibrated: false,
            pristine: true,
            evidence_probability: 1.0,
            mode: PropagationMode::default(),
        }
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
        calibrate_impl(
            &self.tree,
            &self.kernels,
            &self.init_clique_pot,
            &self.schedule,
            state,
        );
    }

    /// [`calibrate`](CompiledTree::calibrate) through per-entry projection
    /// tables instead of the blocked kernels: the bit-identity reference of
    /// the equivalence tests. A dense clique's table is derived from its
    /// sepset strides on every absorption, so this is slow by design and
    /// independent of the blocked forms it checks. Not part of the
    /// supported API.
    #[doc(hidden)]
    pub fn calibrate_two_pass(&self, state: &mut PropagationState) {
        enter_evidence(&self.tree, &self.init_clique_pot, state);
        for &(from, edge, to) in &self.schedule {
            self.absorb_two_pass(state, from, edge, to);
        }
        for &(from, edge, to) in self.schedule.iter().rev() {
            self.absorb_two_pass(state, to, edge, from);
        }
        finish_calibration(&self.tree, state);
    }

    /// One absorption of [`calibrate_two_pass`](CompiledTree::calibrate_two_pass):
    /// scatter-add marginalize and gather multiply, one table index per
    /// iterated entry.
    fn absorb_two_pass(&self, state: &mut PropagationState, from: usize, edge: usize, to: usize) {
        let e = self.tree.edge(edge);
        let proj = &self.kernels.edge_proj[edge];
        let table = |clique: usize| match if clique == e.a { &proj.a } else { &proj.b } {
            SideProj::Support(table) => table.clone(),
            SideProj::Blocked(_) => {
                sparse::clique_to_sepset(&self.init_clique_pot[clique], &e.sepset)
            }
        };
        let (table_from, table_to) = (table(from), table(to));
        let sep_len = state.sep_pot[edge].len();
        state.scratch.resize(sep_len, 0.0);
        sparse::marginalize_into(
            state.clique_pot[from].values(),
            self.kernels.support[from].as_deref(),
            &table_from,
            &mut state.scratch[..sep_len],
        );
        store_message(state, edge);
        sparse::multiply_from(
            state.clique_pot[to].values_mut(),
            self.kernels.support[to].as_deref(),
            &table_to,
            &state.scratch[..sep_len],
        );
    }

    /// [`calibrate`](CompiledTree::calibrate) with a per-edge collect
    /// message cache: each collect message is keyed by a bit-exact
    /// (`f64::to_bits`) hash of all evidence reachable from the sender's
    /// subtree, and on a key match ([`PropagationMode::Warm`] states only)
    /// the cached message is copied in verbatim instead of re-marginalizing
    /// the sender — bit-identical by construction, because the key covers
    /// every input the skipped marginalization could read. The sepset
    /// update and receiver multiply always run, so every clique potential
    /// evolves exactly as in a cold calibration.
    ///
    /// [`PropagationMode::Cold`] states never *read* the cache but still
    /// refresh it, so a cold run warms the cache for subsequent sweeps.
    ///
    /// Returns `(reused, recomputed)` collect-message counts.
    pub fn calibrate_with_cache(
        &self,
        state: &mut PropagationState,
        cache: &MessageCache,
    ) -> (u64, u64) {
        assert_eq!(
            cache.slots.len(),
            self.tree.num_edges(),
            "message cache belongs to a different compiled tree"
        );
        calibrate_cached_impl(
            &self.tree,
            &self.kernels,
            &self.init_clique_pot,
            &self.schedule,
            &self.home_vars,
            state,
            cache,
        )
    }

    /// Whether keying the message cache pays for itself on this tree.
    ///
    /// [`calibrate_with_cache`](CompiledTree::calibrate_with_cache) spends
    /// a fixed overhead per sweep before it can match a single message:
    /// one FNV-128 pass over every evidence word that could be entered
    /// plus two 128-bit folds per edge. What a hit *saves* is the
    /// sender-side marginalize of one collect message. On tiny trees the
    /// hashing exceeds the marginalizing it could ever skip (the c17
    /// sweep regression: reuse ratio 1.0 yet 0.88x throughput), so
    /// callers that own the warm/cold policy should fall back to the
    /// plain [`calibrate`](CompiledTree::calibrate) when this returns
    /// `false` — results are bit-identical either way, only the
    /// bookkeeping differs.
    ///
    /// The estimate is deterministic in the compiled fields alone
    /// (schedule, kernels, cardinalities), so a codec-loaded artifact
    /// decides exactly like the fresh compile it was written from.
    pub fn message_cache_worthwhile(&self) -> bool {
        // Worst-case words hashed per sweep: likelihood evidence on every
        // variable (tag + var + one word per state), plus two 128-bit
        // key folds (4 u64 words) per edge.
        let evidence_words: usize = (0..self.tree.num_vars())
            .map(|raw| 2 + self.tree.card(VarId::from_index(raw)))
            .sum();
        let hash_words = evidence_words + 4 * self.tree.num_edges();
        // Byte-at-a-time FNV over a u64 word costs eight 128-bit
        // multiplies — roughly 16 dense table entries' worth of streaming
        // adds, measured on the kernel microbenchmarks.
        let hash_cost = hash_words * 16;
        // A full-reuse sweep skips every collect-side marginalize.
        let collect_savings: usize = self
            .schedule
            .iter()
            .map(|&(from, _, _)| match &self.kernels.support[from] {
                Some(s) => sparse::SPARSE_COST_PER_ENTRY * s.len(),
                None => self.init_clique_pot[from].len(),
            })
            .sum();
        collect_savings > hash_cost
    }

    /// The posterior marginal `P(var | evidence)` from a calibrated state.
    ///
    /// # Panics
    ///
    /// Panics if `state` is not calibrated.
    pub fn marginal(&self, state: &PropagationState, var: VarId) -> Vec<f64> {
        marginal_impl(&self.tree, state, var)
    }

    /// The joint posterior over a variable set, provided some clique
    /// contains all of them (returns `None` otherwise). Normalized.
    ///
    /// # Panics
    ///
    /// Panics if `state` is not calibrated.
    pub fn joint_marginal(&self, state: &PropagationState, vars: &[VarId]) -> Option<Factor> {
        joint_marginal_impl(&self.tree, state, vars)
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
            &state.clique_pot,
            &state.sep_pot,
            &mut state.path_msg,
            &mut state.path_next,
        )
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
            &state.clique_pot,
            &state.sep_pot,
            &mut msg,
            &mut next,
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
        pairwise_marginal_impl(&self.tree, state, a, b)
    }
}

/// The mutable half of HUGIN propagation: working potentials, evidence,
/// and calibration flags for **one** request.
///
/// Created by [`CompiledTree::new_state`] and only meaningful together
/// with the tree that created it (using it with a different tree panics).
/// States are designed for reuse — `calibrate` resets buffers in place —
/// so pools can hand them out across requests without reallocating.
#[derive(Debug, Clone)]
pub struct PropagationState {
    clique_pot: Vec<Factor>,
    sep_pot: Vec<Factor>,
    /// Hard evidence per variable.
    evidence: Vec<Option<usize>>,
    /// Soft evidence: per variable an optional likelihood vector.
    likelihood: Vec<Option<Vec<f64>>>,
    /// Multi-variable soft evidence as `(host_clique, factor)`, multiplied
    /// into the host at calibration time. The host is resolved once at
    /// insertion (first containing clique) so the same scope always lands
    /// in the same clique — message-cache keys depend on it.
    soft_factors: Vec<(usize, Factor)>,
    /// Sepset-sized message buffer reused by every absorb, so calibration
    /// allocates nothing in steady state.
    scratch: Vec<f64>,
    /// Ping-pong message buffers for planned pairwise walks
    /// ([`CompiledTree::pairwise_marginal_planned`]), so repeated boundary
    /// reads allocate nothing in steady state.
    path_msg: Vec<f64>,
    path_next: Vec<f64>,
    calibrated: bool,
    /// The potentials still hold the initials (clique) and ones (sepset)
    /// that [`CompiledTree::new_state`] gave them: set there, cleared by
    /// the first calibration, which then need not copy them again.
    pristine: bool,
    /// Probability of the inserted evidence, valid after calibration.
    evidence_probability: f64,
    /// Whether [`CompiledTree::calibrate_with_cache`] may *read* cached
    /// messages ([`Warm`](PropagationMode::Warm)) or only refresh them
    /// ([`Cold`](PropagationMode::Cold), the default).
    mode: PropagationMode,
}

/// Cache policy of a [`PropagationState`] under
/// [`CompiledTree::calibrate_with_cache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PropagationMode {
    /// Never read cached messages; recompute everything (and refresh the
    /// cache with the results). The verification baseline.
    #[default]
    Cold,
    /// Reuse cached collect messages whose dependency key matches
    /// bit-exactly; recompute the rest.
    Warm,
}

/// Per-edge collect-message cache for
/// [`CompiledTree::calibrate_with_cache`]: one slot per junction-tree
/// edge, holding the latest message and its dependency key. Slots are
/// individually locked, so concurrent propagations over one shared
/// compiled tree stay safe (and correct, since any hit is bit-identical
/// to recomputation by construction).
///
/// Memory is bounded by the tree's sepset totals; the cache lives and dies
/// with the compiled artifact that owns it, so model-cache eviction (e.g.
/// the engine's LRU) reclaims it automatically.
#[derive(Debug, Default)]
pub struct MessageCache {
    slots: Vec<Mutex<Option<CachedMessage>>>,
}

#[derive(Debug)]
struct CachedMessage {
    key: u128,
    values: Vec<f64>,
}

impl PropagationState {
    /// The cache policy [`CompiledTree::calibrate_with_cache`] applies to
    /// this state.
    pub fn mode(&self) -> PropagationMode {
        self.mode
    }

    /// Sets the cache policy. Does not invalidate the calibration: the
    /// mode changes *how* messages are obtained, never their values.
    pub fn set_mode(&mut self, mode: PropagationMode) {
        self.mode = mode;
    }

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

    /// The calibrated (unnormalized) potential of clique `i`.
    pub fn clique_potential(&self, i: usize) -> &Factor {
        &self.clique_pot[i]
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

fn ones_sepsets(tree: &JunctionTree) -> Vec<Factor> {
    (0..tree.num_edges())
        .map(|e| Factor::ones(scope_of(tree, &tree.edge(e).sepset)))
        .collect()
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

/// Shared calibration prologue: reset working potentials to the initials
/// and enter all recorded evidence, in a deterministic order.
fn enter_evidence(tree: &JunctionTree, init_clique_pot: &[Factor], state: &mut PropagationState) {
    assert_eq!(
        state.evidence.len(),
        tree.num_vars(),
        "state belongs to a different compiled tree"
    );
    // Reset working potentials to the initials, reusing the state's
    // buffers when it has propagated on this tree before (the common case
    // for pooled states): scopes are fixed per clique/sepset, so a value
    // copy suffices and no factor is reallocated. A state that has never
    // propagated already holds them.
    if std::mem::take(&mut state.pristine) {
        debug_assert_eq!(state.clique_pot.len(), init_clique_pot.len());
        debug_assert_eq!(state.sep_pot.len(), tree.num_edges());
    } else {
        if state.clique_pot.len() == init_clique_pot.len() {
            for (dst, src) in state.clique_pot.iter_mut().zip(init_clique_pot) {
                debug_assert_eq!(dst.vars(), src.vars());
                dst.values_mut().copy_from_slice(src.values());
            }
        } else {
            state.clique_pot = init_clique_pot.to_vec();
        }
        if state.sep_pot.len() == tree.num_edges() {
            for sep in &mut state.sep_pot {
                sep.values_mut().fill(1.0);
            }
        } else {
            state.sep_pot = ones_sepsets(tree);
        }
    }
    for (raw, obs) in state.evidence.iter().enumerate() {
        if let Some(value) = obs {
            let var = VarId::from_index(raw);
            let clique = tree.home_clique(var);
            state.clique_pot[clique].reduce(var, *value);
        }
    }
    for (raw, weights) in state.likelihood.iter().enumerate() {
        if let Some(weights) = weights {
            let var = VarId::from_index(raw);
            let clique = tree.home_clique(var);
            for (value, &w) in weights.iter().enumerate() {
                state.clique_pot[clique].scale_state(var, value, w);
            }
        }
    }
    for (host, factor) in &state.soft_factors {
        state.clique_pot[*host].mul_assign_sub(factor);
    }
}

/// Shared calibration epilogue: evidence probability and the calibrated
/// flag.
fn finish_calibration(tree: &JunctionTree, state: &mut PropagationState) {
    // Probability of evidence: product over components of clique mass.
    let mut p = 1.0;
    for &root in tree.roots() {
        p *= state.clique_pot[root].total();
    }
    state.evidence_probability = p;
    state.calibrated = true;
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

fn calibrate_impl(
    tree: &JunctionTree,
    kernels: &PropagationKernels,
    init_clique_pot: &[Factor],
    schedule: &[(usize, usize, usize)],
    state: &mut PropagationState,
) {
    enter_evidence(tree, init_clique_pot, state);
    // Collect: leaves towards roots.
    for &(from, edge, to) in schedule {
        absorb(tree, kernels, state, from, edge, to);
    }
    // Distribute: roots towards leaves.
    for &(from, edge, to) in schedule.iter().rev() {
        absorb(tree, kernels, state, to, edge, from);
    }
    finish_calibration(tree, state);
}

/// Per-clique hash of the evidence entered *at* each clique: hard
/// evidence and likelihoods of the clique's home variables plus soft
/// factors hosted there, all keyed by `f64::to_bits` so equality means
/// bit-identical inputs.
fn clique_evidence_hashes(home_vars: &[Vec<VarId>], state: &PropagationState) -> Vec<u128> {
    let mut hashes: Vec<u128> = home_vars
        .iter()
        .map(|vars| {
            let mut h = FNV128_OFFSET;
            for &var in vars {
                if let Some(value) = state.evidence[var.index()] {
                    h = fnv128_u64(h, 1);
                    h = fnv128_u64(h, var.index() as u64);
                    h = fnv128_u64(h, value as u64);
                }
                if let Some(weights) = &state.likelihood[var.index()] {
                    h = fnv128_u64(h, 2);
                    h = fnv128_u64(h, var.index() as u64);
                    for &w in weights {
                        h = fnv128_u64(h, w.to_bits());
                    }
                }
            }
            h
        })
        .collect();
    for (host, factor) in &state.soft_factors {
        let mut h = hashes[*host];
        h = fnv128_u64(h, 3);
        for v in factor.vars() {
            h = fnv128_u64(h, v.index() as u64);
        }
        for &x in factor.values() {
            h = fnv128_u64(h, x.to_bits());
        }
        hashes[*host] = h;
    }
    hashes
}

fn calibrate_cached_impl(
    tree: &JunctionTree,
    kernels: &PropagationKernels,
    init_clique_pot: &[Factor],
    schedule: &[(usize, usize, usize)],
    home_vars: &[Vec<VarId>],
    state: &mut PropagationState,
    cache: &MessageCache,
) -> (u64, u64) {
    enter_evidence(tree, init_clique_pot, state);
    // Dependency keys, folded along the collect schedule: when edge
    // (from → to) is processed, every child of `from` has already folded
    // its subtree key into `acc[from]` (children precede parents), so
    // `acc[from]` covers exactly the evidence the message depends on.
    let mut acc = clique_evidence_hashes(home_vars, state);
    let mut edge_key = vec![0u128; tree.num_edges()];
    for &(from, edge, to) in schedule {
        edge_key[edge] = acc[from];
        acc[to] = fnv128(acc[to], &edge_key[edge].to_le_bytes());
    }
    // Collect, reusing cached messages where the key matches.
    let mut reused = 0u64;
    let mut recomputed = 0u64;
    for &(from, edge, to) in schedule {
        if absorb_cached(
            tree,
            kernels,
            state,
            (from, edge, to),
            edge_key[edge],
            cache,
        ) {
            reused += 1;
        } else {
            recomputed += 1;
        }
    }
    // Distribute: a parent-to-child message depends on evidence in the
    // *whole* tree minus the child's subtree — in a sweep that always
    // includes the perturbed prior, so caching it could never hit.
    // Whole-tree reuse is the segment memoization layer's job.
    for &(from, edge, to) in schedule.iter().rev() {
        absorb(tree, kernels, state, to, edge, from);
    }
    finish_calibration(tree, state);
    (reused, recomputed)
}

/// One HUGIN absorption: `to` absorbs from `from` across `edge`, entirely
/// through the compile-time projections — no scope merges, no odometer
/// walks, no allocation (the message lives in `state.scratch`).
fn absorb(
    tree: &JunctionTree,
    kernels: &PropagationKernels,
    state: &mut PropagationState,
    from: usize,
    edge: usize,
    to: usize,
) {
    let e = tree.edge(edge);
    let proj = &kernels.edge_proj[edge];
    let (proj_from, proj_to) = if from == e.a {
        (&proj.a, &proj.b)
    } else {
        (&proj.b, &proj.a)
    };
    let sep_len = state.sep_pot[edge].len();
    state.scratch.resize(sep_len, 0.0);
    // (1) New sepset potential: marginalize the sender into scratch.
    marginalize_side(
        state.clique_pot[from].values(),
        kernels.support[from].as_deref(),
        proj_from,
        &mut state.scratch[..sep_len],
    );
    commit_message(kernels, state, edge, to, proj_to);
}

/// [`absorb`] with a per-edge message cache: on a dependency-key match
/// ([`PropagationMode::Warm`] states) the cached message is copied into
/// scratch instead of re-marginalizing the sender; otherwise the message
/// is computed and the slot refreshed. The sepset store and receiver
/// multiply run either way, keeping the state's evolution bit-identical
/// to [`absorb`]. Returns whether the message was reused.
fn absorb_cached(
    tree: &JunctionTree,
    kernels: &PropagationKernels,
    state: &mut PropagationState,
    (from, edge, to): (usize, usize, usize),
    key: u128,
    cache: &MessageCache,
) -> bool {
    let e = tree.edge(edge);
    let proj = &kernels.edge_proj[edge];
    let (proj_from, proj_to) = if from == e.a {
        (&proj.a, &proj.b)
    } else {
        (&proj.b, &proj.a)
    };
    let sep_len = state.sep_pot[edge].len();
    state.scratch.resize(sep_len, 0.0);
    // Cached-message lock poison recovery: slots hold plain owned data
    // that is consistent after any panic (key and values are written
    // together under the lock), so the entry stays usable.
    let mut reused = false;
    if state.mode == PropagationMode::Warm {
        let slot = cache.slots[edge]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(cached) = slot.as_ref().filter(|c| c.key == key) {
            state.scratch[..sep_len].copy_from_slice(&cached.values);
            reused = true;
        }
    }
    if !reused {
        marginalize_side(
            state.clique_pot[from].values(),
            kernels.support[from].as_deref(),
            proj_from,
            &mut state.scratch[..sep_len],
        );
        let mut slot = cache.slots[edge]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        match &mut *slot {
            Some(cached) => {
                cached.key = key;
                cached.values.clear();
                cached.values.extend_from_slice(&state.scratch[..sep_len]);
            }
            None => {
                *slot = Some(CachedMessage {
                    key,
                    values: state.scratch[..sep_len].to_vec(),
                });
            }
        }
    }
    commit_message(kernels, state, edge, to, proj_to);
    reused
}

/// Steps (2) and (3) of an absorption, shared by the cold and cached
/// paths: store the new sepset potential (turning scratch into the
/// update ratio) and multiply the update into the receiver.
fn commit_message(
    kernels: &PropagationKernels,
    state: &mut PropagationState,
    edge: usize,
    to: usize,
    proj_to: &SideProj,
) {
    store_message(state, edge);
    let sep_len = state.sep_pot[edge].len();
    // (3) Multiply the update into the receiver.
    multiply_side(
        state.clique_pot[to].values_mut(),
        kernels.support[to].as_deref(),
        proj_to,
        &state.scratch[..sep_len],
    );
}

/// Step (2) of an absorption: store the message in scratch as the new
/// sepset potential, turning scratch into the update ratio new/old with
/// the HUGIN convention 0/0 = 0 (nonzero/0 would mean the sender gained
/// mass the old sepset never saw — a propagation-order bug).
fn store_message(state: &mut PropagationState, edge: usize) {
    let sep_len = state.sep_pot[edge].len();
    for (slot, msg) in state.sep_pot[edge]
        .values_mut()
        .iter_mut()
        .zip(state.scratch[..sep_len].iter_mut())
    {
        let old = *slot;
        let new = *msg;
        *slot = new;
        *msg = if old == 0.0 {
            assert!(new == 0.0, "division of nonzero {new} by zero sepset entry");
            0.0
        } else {
            new / old
        };
    }
}

fn assert_calibrated(state: &PropagationState) {
    assert!(state.calibrated, "call calibrate() first");
}

fn marginal_impl(tree: &JunctionTree, state: &PropagationState, var: VarId) -> Vec<f64> {
    assert_calibrated(state);
    let clique = tree.home_clique(var);
    let mut m = state.clique_pot[clique].marginalize_keep(&[var]);
    m.normalize();
    m.values().to_vec()
}

fn joint_marginal_impl(
    tree: &JunctionTree,
    state: &PropagationState,
    vars: &[VarId],
) -> Option<Factor> {
    assert_calibrated(state);
    let clique = (0..tree.num_cliques())
        .find(|&c| vars.iter().all(|v| tree.clique(c).binary_search(v).is_ok()))?;
    let mut m = state.clique_pot[clique].marginalize_keep(vars);
    m.normalize();
    Some(m)
}

fn pairwise_marginal_impl(
    tree: &JunctionTree,
    state: &PropagationState,
    a: VarId,
    b: VarId,
) -> Option<Factor> {
    assert_calibrated(state);
    assert_ne!(a, b, "pairwise marginal needs two distinct variables");
    if let Some(joint) = joint_marginal_impl(tree, state, &[a.min(b), a.max(b)]) {
        return Some(joint);
    }
    let ca = tree.home_clique(a);
    let cb = tree.home_clique(b);
    let path = tree.clique_path(ca, cb)?;
    // Walk the path keeping a factor over {a} ∪ current sepset: the
    // calibrated joint factorizes as Π φ_C / Π φ_S along the path.
    // Marginalizing *before* multiplying into the next clique keeps
    // every intermediate at sepset-plus-one-variable size.
    // An empty path means ca == cb, which joint_marginal_impl above would
    // have handled; bail out rather than panic if that invariant slips.
    let (first_edge, _) = *path.first()?;
    let mut keep: Vec<VarId> = tree.edge(first_edge).sepset.clone();
    keep.push(a);
    let mut message = state.clique_pot[ca].marginalize_keep(&keep);
    message.div_assign_sub(&state.sep_pot[first_edge]);
    for window in path.windows(2) {
        let (_, clique) = window[0];
        let (next_edge, _) = window[1];
        let mut keep: Vec<VarId> = tree.edge(next_edge).sepset.clone();
        keep.push(a);
        let mut next_message = state.clique_pot[clique].product_marginalize(&message, &keep);
        next_message.div_assign_sub(&state.sep_pot[next_edge]);
        message = next_message;
    }
    let (_, last_clique) = *path.last()?;
    let mut joint =
        state.clique_pot[last_clique].product_marginalize(&message, &[a.min(b), a.max(b)]);
    joint.normalize();
    Some(joint)
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
                .clique_pot
                .iter()
                .chain(&state.sep_pot)
                .flat_map(|f| f.values().iter().map(|x| x.to_bits()))
                .chain([state.evidence_probability().to_bits()])
                .collect()
        };
        let cache = compiled.new_message_cache();
        type Calibrate<'a> = &'a dyn Fn(&mut PropagationState);
        let entry_points: [Calibrate; 3] = [
            &|s| compiled.calibrate(s),
            &|s| compiled.calibrate_two_pass(s),
            &|s| {
                compiled.calibrate_with_cache(s, &cache);
            },
        ];
        for calibrate in entry_points {
            // The reused state first propagates other evidence, which
            // leaves every potential away from its initial value.
            let mut reused = compiled.new_state();
            compiled.set_evidence(&mut reused, wet, 0).unwrap();
            compiled
                .set_likelihood(&mut reused, cloudy, vec![0.2, 0.8])
                .unwrap();
            calibrate(&mut reused);
            reused.clear_evidence();
            let mut fresh = compiled.new_state();
            for state in [&mut reused, &mut fresh] {
                compiled.set_evidence(state, sprinkler, 1).unwrap();
                compiled
                    .set_likelihood(state, rain, vec![0.3, 0.7])
                    .unwrap();
                calibrate(state);
            }
            assert_eq!(bits(&fresh), bits(&reused));
        }
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
        let compiled = CompiledTree::new(tree, &net).unwrap();
        let expected: usize = compiled.initial_potentials().iter().map(Factor::len).sum();
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
    fn cached_calibration_is_bit_identical_and_reuses_clean_messages() {
        let (net, [cloudy, _, rain, wet]) = sprinkler();
        let tree = JunctionTree::compile(&net).unwrap();
        let compiled = CompiledTree::new(tree, &net).unwrap();
        let cache = compiled.new_message_cache();

        // Cold pass populates the cache without reading it.
        let mut warm = compiled.new_state();
        assert_eq!(warm.mode(), PropagationMode::Cold);
        compiled
            .set_likelihood(&mut warm, rain, vec![0.3, 0.7])
            .unwrap();
        let (reused, recomputed) = compiled.calibrate_with_cache(&mut warm, &cache);
        assert_eq!(reused, 0);
        assert_eq!(recomputed, compiled.message_schedule().len() as u64);

        // Identical evidence, warm mode: every collect message reused, and
        // every read is bit-identical to an uncached calibration.
        warm.set_mode(PropagationMode::Warm);
        warm.clear_evidence();
        compiled
            .set_likelihood(&mut warm, rain, vec![0.3, 0.7])
            .unwrap();
        let (reused, recomputed) = compiled.calibrate_with_cache(&mut warm, &cache);
        assert_eq!(reused, compiled.message_schedule().len() as u64);
        assert_eq!(recomputed, 0);
        let mut cold = compiled.new_state();
        compiled
            .set_likelihood(&mut cold, rain, vec![0.3, 0.7])
            .unwrap();
        compiled.calibrate(&mut cold);
        for var in [cloudy, rain, wet] {
            let a = compiled.marginal(&warm, var);
            let b = compiled.marginal(&cold, var);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert_eq!(
            warm.evidence_probability().to_bits(),
            cold.evidence_probability().to_bits()
        );

        // Perturbed evidence in *both* cliques (cloudy and wet never share
        // one): whichever clique is the collect child is now dirty, so at
        // least one message recomputes; results stay bit-identical to cold.
        warm.clear_evidence();
        compiled
            .set_likelihood(&mut warm, cloudy, vec![0.4, 0.6])
            .unwrap();
        compiled
            .set_likelihood(&mut warm, wet, vec![0.9, 0.1])
            .unwrap();
        let (_, recomputed) = compiled.calibrate_with_cache(&mut warm, &cache);
        assert!(recomputed > 0, "dirty subtree must recompute");
        let mut cold2 = compiled.new_state();
        compiled
            .set_likelihood(&mut cold2, cloudy, vec![0.4, 0.6])
            .unwrap();
        compiled
            .set_likelihood(&mut cold2, wet, vec![0.9, 0.1])
            .unwrap();
        compiled.calibrate(&mut cold2);
        for var in [cloudy, rain, wet] {
            assert_eq!(
                compiled.marginal(&warm, var),
                compiled.marginal(&cold2, var)
            );
        }
    }

    #[test]
    fn cached_calibration_distinguishes_evidence_kinds() {
        // Hard evidence wet=1 and likelihood [0,1] on wet give the same
        // posterior but must not share cache keys with *different*
        // evidence; and a state carrying no evidence must not reuse
        // messages computed under evidence.
        let (net, [cloudy, .., wet]) = sprinkler();
        let tree = JunctionTree::compile(&net).unwrap();
        let compiled = CompiledTree::new(tree, &net).unwrap();
        let cache = compiled.new_message_cache();

        let mut state = compiled.new_state();
        state.set_mode(PropagationMode::Warm);
        compiled.set_evidence(&mut state, wet, 1).unwrap();
        compiled.calibrate_with_cache(&mut state, &cache);
        let with_evidence = compiled.marginal(&state, cloudy);

        state.clear_evidence();
        let (reused, _) = compiled.calibrate_with_cache(&mut state, &cache);
        assert_eq!(reused, 0, "no-evidence run must miss evidence-keyed slots");
        let without = compiled.marginal(&state, cloudy);
        assert_ne!(with_evidence, without);

        let mut cold = compiled.new_state();
        compiled.calibrate(&mut cold);
        assert_eq!(without, compiled.marginal(&cold, cloudy));
    }

    #[test]
    fn dependency_mask_covers_every_variable_once() {
        let (net, _) = sprinkler();
        let tree = JunctionTree::compile(&net).unwrap();
        let compiled = CompiledTree::new(tree, &net).unwrap();
        let mut seen = vec![0usize; compiled.tree().num_vars()];
        for c in 0..compiled.tree().num_cliques() {
            for &var in compiled.clique_dependencies(c) {
                assert_eq!(compiled.tree().home_clique(var), c);
                seen[var.index()] += 1;
            }
        }
        assert!(seen.iter().all(|&n| n == 1), "each var has one home");
    }

    #[test]
    fn message_cache_is_safe_under_concurrent_mixed_scenarios() {
        // Two threads sweep different likelihoods through one shared
        // cache; every result must equal its cold reference bit-for-bit
        // even while the slots churn.
        let (net, [_, _, rain, wet]) = sprinkler();
        let tree = JunctionTree::compile(&net).unwrap();
        let compiled = CompiledTree::new(tree, &net).unwrap();
        let cache = compiled.new_message_cache();
        std::thread::scope(|scope| {
            for t in 0..2 {
                let compiled = &compiled;
                let cache = &cache;
                scope.spawn(move || {
                    let mut state = compiled.new_state();
                    state.set_mode(PropagationMode::Warm);
                    for k in 0..8 {
                        let p = 0.1 + 0.1 * (t as f64) + 0.05 * (k as f64);
                        state.clear_evidence();
                        compiled
                            .set_likelihood(&mut state, rain, vec![p, 1.0 - p])
                            .unwrap();
                        compiled.calibrate_with_cache(&mut state, cache);
                        let got = compiled.marginal(&state, wet);
                        let mut cold = compiled.new_state();
                        compiled
                            .set_likelihood(&mut cold, rain, vec![p, 1.0 - p])
                            .unwrap();
                        compiled.calibrate(&mut cold);
                        assert_eq!(got, compiled.marginal(&cold, wet));
                    }
                });
            }
        });
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
