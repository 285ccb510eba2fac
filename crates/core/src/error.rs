use std::error::Error;
use std::fmt;

use swact_bayesnet::BayesError;
use swact_circuit::CircuitError;

/// Errors produced while building or running the switching estimator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EstimateError {
    /// The input specification covers a different number of inputs than the
    /// circuit declares.
    InputCountMismatch {
        /// Inputs the circuit has.
        circuit: usize,
        /// Inputs the spec covers.
        spec: usize,
    },
    /// An input model's parameters are out of range or jointly infeasible.
    InvalidInputModel {
        /// Requested signal probability.
        p1: f64,
        /// Requested switching activity.
        activity: f64,
    },
    /// The spec's input-group structure differs from the one the estimator
    /// was compiled for (group membership is part of the compiled network
    /// structure; re-compile to change it).
    GroupStructureMismatch,
    /// A single-BN estimate was requested but the circuit's junction tree
    /// exceeds the configured budget; use segmented mode (the default).
    TooLarge {
        /// Estimated junction-tree state count.
        states: f64,
        /// The configured budget.
        budget: f64,
    },
    /// The selected inference backend cannot model a requested feature
    /// (e.g. input groups or pairwise joints outside the junction-tree
    /// backend).
    BackendUnsupported {
        /// Backend name (see [`Backend::name`](crate::pipeline::Backend)).
        backend: &'static str,
        /// Human-readable name of the unsupported feature.
        feature: &'static str,
    },
    /// A backend-internal failure (e.g. the OBDD node budget was
    /// exhausted while compiling a segment).
    Backend {
        /// Backend name.
        backend: &'static str,
        /// Backend-specific failure description.
        message: String,
    },
    /// Boundary-correlation parents widened a segment's junction tree
    /// past the tolerated blowup (4× the segment budget). This is an
    /// internal signal: the pipeline driver answers it by recompiling the
    /// segment with plain marginal forwarding, so no public API returns
    /// it.
    CorrelationBlowup {
        /// Junction-tree state count with correlation parents.
        states: f64,
        /// The configured per-segment budget.
        budget: f64,
    },
    /// A resource budget ([`Budget`](crate::Budget)) was exceeded while
    /// compiling a segment, and the degradation ladder was disabled (or
    /// exhausted) for it.
    BudgetExceeded {
        /// Segment index in the final plan.
        segment: usize,
        /// Estimated junction-tree state count of the offending segment.
        states: f64,
        /// The configured budget it violated.
        budget: f64,
        /// The ladder rung that actually exhausted the budget: the
        /// backend whose compile attempt could not fit (`"jtree"`,
        /// `"bdd"`, `"sampling"`, `"twostate"` — or the primary backend's
        /// name when the ladder is disabled via `no_fallback`).
        rung: &'static str,
    },
    /// A per-stage wall-clock deadline ([`Budget::deadline`](crate::Budget))
    /// elapsed. Deadlines are cooperative: the stage checks them at
    /// segment/wave boundaries, so the stage finishes its current unit of
    /// work before reporting. Retryable — a later attempt on a less loaded
    /// worker may fit.
    DeadlineExceeded {
        /// Pipeline stage that ran out of time (`"compile"`,
        /// `"propagate"`, or `"queue"`).
        stage: &'static str,
        /// The configured deadline.
        deadline: std::time::Duration,
    },
    /// A worker panicked while evaluating this request; the panic was
    /// caught at the job boundary and converted to an error so the batch
    /// (and the worker) survive. Retryable — panics from transient faults
    /// disappear on re-execution.
    Panicked {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The request was cancelled before (or instead of) running — e.g. it
    /// was still queued when the engine began shutting down. Not
    /// retryable against the same engine (it is going away), but a client
    /// may resubmit elsewhere.
    Cancelled,
    /// An underlying structural circuit error (e.g. during fan-in
    /// decomposition).
    Circuit(CircuitError),
    /// An underlying Bayesian-network error.
    Bayes(BayesError),
}

impl EstimateError {
    /// Whether retrying the same request may succeed. True only for
    /// transient failures ([`Panicked`](EstimateError::Panicked),
    /// [`DeadlineExceeded`](EstimateError::DeadlineExceeded)); structural
    /// errors (bad spec, budget exhaustion, circuit/BN construction) are
    /// deterministic and retrying them wastes work.
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            EstimateError::Panicked { .. } | EstimateError::DeadlineExceeded { .. }
        )
    }

    /// Converts a caught panic payload (from `catch_unwind` or a failed
    /// thread join) into [`EstimateError::Panicked`], extracting the
    /// message when the payload is a string.
    pub fn from_panic(payload: &(dyn std::any::Any + Send)) -> EstimateError {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        EstimateError::Panicked { message }
    }
}

impl fmt::Display for EstimateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EstimateError::InputCountMismatch { circuit, spec } => write!(
                f,
                "input spec covers {spec} inputs but the circuit has {circuit}"
            ),
            EstimateError::InvalidInputModel { p1, activity } => write!(
                f,
                "input model p1={p1}, activity={activity} is out of range or infeasible"
            ),
            EstimateError::GroupStructureMismatch => write!(
                f,
                "input-group structure differs from the compiled one; recompile"
            ),
            EstimateError::TooLarge { states, budget } => write!(
                f,
                "single-BN junction tree needs {states:.3e} states, budget is {budget:.3e}"
            ),
            EstimateError::BackendUnsupported { backend, feature } => write!(
                f,
                "backend '{backend}' does not support {feature}; use the jtree backend"
            ),
            EstimateError::Backend { backend, message } => {
                write!(f, "backend '{backend}' failed: {message}")
            }
            EstimateError::CorrelationBlowup { states, budget } => write!(
                f,
                "boundary-correlation parents widened the segment tree to {states:.3e} states \
                 (budget {budget:.3e}); the pipeline falls back to marginal forwarding"
            ),
            EstimateError::BudgetExceeded {
                segment,
                states,
                budget,
                rung,
            } => write!(
                f,
                "segment {segment} needs {states:.3e} states on the '{rung}' rung, \
                 budget is {budget:.3e} and fallback is disabled or exhausted"
            ),
            EstimateError::DeadlineExceeded { stage, deadline } => {
                write!(f, "{stage} stage exceeded its {deadline:?} deadline")
            }
            EstimateError::Panicked { message } => {
                write!(f, "worker panicked: {message}")
            }
            EstimateError::Cancelled => {
                write!(f, "request cancelled during engine shutdown")
            }
            EstimateError::Circuit(e) => write!(f, "circuit error: {e}"),
            EstimateError::Bayes(e) => write!(f, "bayesian network error: {e}"),
        }
    }
}

impl Error for EstimateError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EstimateError::Circuit(e) => Some(e),
            EstimateError::Bayes(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CircuitError> for EstimateError {
    fn from(e: CircuitError) -> EstimateError {
        EstimateError::Circuit(e)
    }
}

impl From<BayesError> for EstimateError {
    fn from(e: BayesError) -> EstimateError {
        EstimateError::Bayes(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = EstimateError::InputCountMismatch {
            circuit: 5,
            spec: 3,
        };
        assert!(e.to_string().contains('5'));
        assert!(e.source().is_none());
        let e = EstimateError::from(BayesError::Empty);
        assert!(e.source().is_some());
        let e = EstimateError::from(CircuitError::NoInputs);
        assert!(e.to_string().contains("circuit error"));
    }

    #[test]
    fn is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EstimateError>();
    }

    #[test]
    fn retryable_classification() {
        assert!(EstimateError::Panicked {
            message: "boom".into(),
        }
        .retryable());
        assert!(EstimateError::DeadlineExceeded {
            stage: "compile",
            deadline: std::time::Duration::from_millis(5),
        }
        .retryable());
        assert!(!EstimateError::BudgetExceeded {
            segment: 0,
            states: 1e9,
            budget: 1e3,
            rung: "jtree",
        }
        .retryable());
        assert!(!EstimateError::GroupStructureMismatch.retryable());
        assert!(!EstimateError::Cancelled.retryable());
        assert!(!EstimateError::from(CircuitError::NoInputs).retryable());
    }

    #[test]
    fn new_variants_display() {
        let e = EstimateError::BudgetExceeded {
            segment: 3,
            states: 1e9,
            budget: 1e3,
            rung: "twostate",
        };
        assert!(e.to_string().contains("segment 3"));
        assert!(e.to_string().contains("'twostate' rung"));
        let e = EstimateError::DeadlineExceeded {
            stage: "propagate",
            deadline: std::time::Duration::from_millis(7),
        };
        assert!(e.to_string().contains("propagate"));
        let e = EstimateError::Panicked {
            message: "index out of bounds".into(),
        };
        assert!(e.to_string().contains("panicked"));
    }
}
