use std::error::Error;
use std::fmt;

/// Errors produced while building or compiling a Bayesian network.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BayesError {
    /// A variable name was declared twice.
    DuplicateVar(String),
    /// A parent id does not exist (parents must be added before children,
    /// which also guarantees acyclicity).
    UnknownVar(u32),
    /// A variable was declared with cardinality zero.
    ZeroCardinality(String),
    /// A variable listed the same parent twice (deduplicate and adapt the
    /// CPT instead).
    DuplicateParent {
        /// The child variable's name.
        var: String,
    },
    /// A CPT has the wrong number of rows or row width for its family.
    CptShape {
        /// Variable the CPT belongs to.
        var: String,
        /// Expected `(rows, columns)`.
        expected: (usize, usize),
        /// Supplied `(rows, columns of first offending row)`.
        got: (usize, usize),
    },
    /// A CPT row does not sum to one.
    CptNotNormalized {
        /// Variable the CPT belongs to.
        var: String,
        /// Index of the offending parent configuration.
        row: usize,
        /// The row's actual sum.
        sum: f64,
    },
    /// A CPT contains a negative or non-finite entry.
    CptInvalidEntry {
        /// Variable the CPT belongs to.
        var: String,
    },
    /// An observed state index is out of range for its variable.
    EvidenceOutOfRange {
        /// The observed variable.
        var: u32,
        /// The offending state.
        state: usize,
        /// The variable's cardinality.
        card: usize,
    },
    /// A soft-evidence factor's scope is not contained in any clique of the
    /// compiled junction tree, so it cannot be absorbed.
    FactorOutsideClique {
        /// The factor's variable ids.
        vars: Vec<u32>,
    },
    /// The network has no variables.
    Empty,
    /// Two factors disagree on a shared variable's cardinality.
    FactorCardinalityMismatch {
        /// The shared variable's id.
        var: u32,
        /// Cardinality on the left operand.
        left: usize,
        /// Cardinality on the right operand.
        right: usize,
    },
    /// Factor division requires both operands over the identical scope.
    FactorScopeMismatch,
    /// Factor division hit `x / 0` with `x ≠ 0`. Under the HUGIN
    /// convention only `0 / 0` (= 0) is well-defined; a nonzero numerator
    /// indicates inconsistent operands.
    FactorDivisionByZero {
        /// The nonzero numerator.
        value: f64,
    },
    /// A junction tree compiled under a state bound
    /// ([`JunctionTree::compile_within`](crate::JunctionTree::compile_within))
    /// would exceed it.
    StatesOverBound {
        /// The state total of the cliques found before the triangulation
        /// stopped (more than `bound`).
        states: f64,
        /// The bound.
        bound: f64,
    },
}

impl fmt::Display for BayesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BayesError::DuplicateVar(name) => {
                write!(f, "variable `{name}` is declared more than once")
            }
            BayesError::UnknownVar(id) => write!(f, "variable id {id} does not exist"),
            BayesError::ZeroCardinality(name) => {
                write!(f, "variable `{name}` has cardinality zero")
            }
            BayesError::DuplicateParent { var } => {
                write!(f, "variable `{var}` lists a parent twice")
            }
            BayesError::CptShape { var, expected, got } => write!(
                f,
                "cpt for `{var}` has shape {got:?}, expected {expected:?}"
            ),
            BayesError::CptNotNormalized { var, row, sum } => {
                write!(f, "cpt row {row} for `{var}` sums to {sum}, expected 1")
            }
            BayesError::CptInvalidEntry { var } => {
                write!(f, "cpt for `{var}` contains a negative or non-finite entry")
            }
            BayesError::EvidenceOutOfRange { var, state, card } => write!(
                f,
                "evidence state {state} for variable {var} exceeds cardinality {card}"
            ),
            BayesError::FactorOutsideClique { vars } => {
                write!(f, "no clique contains the factor scope {vars:?}")
            }
            BayesError::Empty => write!(f, "network has no variables"),
            BayesError::FactorCardinalityMismatch { var, left, right } => {
                write!(f, "cardinality mismatch for X{var}: {left} vs {right}")
            }
            BayesError::FactorScopeMismatch => {
                write!(f, "division requires identical scope")
            }
            BayesError::FactorDivisionByZero { value } => {
                write!(f, "division of nonzero {value} by zero sepset entry")
            }
            BayesError::StatesOverBound { states, bound } => write!(
                f,
                "junction tree passes its bound of {bound} states ({states} found before stopping)"
            ),
        }
    }
}

impl Error for BayesError {}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(BayesError::Empty.to_string().contains("no variables"));
        let e = BayesError::CptNotNormalized {
            var: "x".into(),
            row: 2,
            sum: 0.5,
        };
        assert!(e.to_string().contains("row 2"));
    }

    #[test]
    fn is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BayesError>();
    }
}
