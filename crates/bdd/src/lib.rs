//! Reduced ordered binary decision diagrams (ROBDDs) with exact signal and
//! switching probabilities.
//!
//! Bryant-style shared BDDs serve two roles in the `swact` workspace:
//!
//! * an **exact reference** for signal probability and switching activity on
//!   small and medium circuits (checking both the Bayesian-network estimator
//!   and the logic simulator);
//! * the substrate of the **transition-density baseline** (Najm 1993), whose
//!   Boolean differences are one `xor` + one `restrict` away.
//!
//! The manager ([`Bdd`]) keeps a unique table (hash-consing) and an apply
//! cache; everything is iterative-friendly recursion with an explicit node
//! budget so runaway circuits fail with [`BddError::NodeLimit`] instead of
//! exhausting memory.
//!
//! # Example
//!
//! ```
//! use swact_bdd::Bdd;
//!
//! # fn main() -> Result<(), swact_bdd::BddError> {
//! let mut bdd = Bdd::new(2);
//! let a = bdd.var(0)?;
//! let b = bdd.var(1)?;
//! let f = bdd.and(a, b)?;
//! // P(a·b) with P(a)=0.5, P(b)=0.25:
//! let p = bdd.probability(f, &[0.5, 0.25]);
//! assert!((p - 0.125).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

mod circuit;
mod manager;
mod prob;

pub use circuit::{build_circuit_bdds, build_switching_bdds, CircuitBdds, SwitchingBdds};
pub use manager::{Bdd, BddError, NodeId};
pub use prob::PairDistribution;
