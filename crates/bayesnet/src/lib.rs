//! Discrete Bayesian networks with exact junction-tree inference.
//!
//! This crate is a from-scratch implementation of the probabilistic
//! machinery behind Bhanja & Ranganathan's switching-activity estimator
//! (DAC 2001) — the same compile-then-propagate pipeline the paper ran
//! through the commercial HUGIN tool:
//!
//! 1. build a [`BayesNet`] — a DAG of discrete variables quantified by
//!    conditional probability tables ([`Cpt`]);
//! 2. [`compile`](JunctionTree::compile) it: **moralize** (marry parents,
//!    drop directions), **triangulate** (eliminate with the
//!    min-fill/min-degree heuristics in [`triangulate`]), harvest maximal
//!    cliques, and connect them into a **junction tree** with maximal
//!    sepset weight (which guarantees the running-intersection property);
//! 3. run the **HUGIN two-phase propagation** ([`CompiledTree`] plus one
//!    [`PropagationState`] per request): collect evidence towards a root,
//!    distribute back, read calibrated marginals off any clique.
//!
//! The crate also provides the theory-side tools used by the paper's
//! Section 3: [`dsep`] implements **d-separation** (Definition 2) and
//! Markov blankets/boundaries (Definition 6), and [`elim`] is an
//! independent variable-elimination engine used to cross-check the junction
//! tree. [`Factor`] is the shared dense table algebra underneath all of it.
//!
//! # Example
//!
//! A two-node network `A → B` with binary variables:
//!
//! ```
//! use swact_bayesnet::{BayesNet, CompiledTree, Cpt, JunctionTree};
//!
//! # fn main() -> Result<(), swact_bayesnet::BayesError> {
//! let mut net = BayesNet::new();
//! let a = net.add_var("a", 2, &[], Cpt::prior(vec![0.3, 0.7]))?;
//! let b = net.add_var(
//!     "b",
//!     2,
//!     &[a],
//!     Cpt::rows(vec![vec![0.9, 0.1], vec![0.2, 0.8]]),
//! )?;
//!
//! let compiled = CompiledTree::new(JunctionTree::compile(&net)?, &net)?;
//! let mut state = compiled.new_state();
//! compiled.calibrate(&mut state);
//! let pb = compiled.marginal(&state, b);
//! assert!((pb[1] - (0.3 * 0.1 + 0.7 * 0.8)).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

// The propagate/junction hot path runs on untrusted netlist-derived
// structures; every residual panic site must be an `expect` documenting a
// real invariant, never a bare `unwrap`.
#![deny(clippy::unwrap_used)]

pub mod codec;
pub mod dsep;
pub mod elim;
mod error;
mod factor;
pub mod graph;
mod junction;
mod network;
mod pairwise;
mod propagate;
mod sparse;
pub mod triangulate;

pub use error::BayesError;
pub use factor::{Factor, VarId};
pub use junction::JunctionTree;
pub use network::{BayesNet, Cpt};
pub use pairwise::PairwisePlan;
pub use propagate::{
    initial_potentials, CompiledTree, MessageCache, PropagationMode, PropagationState,
};
pub use sparse::{KernelMode, SparseMode, SPARSE_COST_PER_ENTRY};
pub use triangulate::Heuristic;
