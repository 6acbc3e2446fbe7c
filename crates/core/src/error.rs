//! Error type shared by all accounting entry points.

use std::fmt;

/// Errors produced by the variation-ratio accounting APIs.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A parameter violates its documented domain (e.g. `β > (p−1)/(p+1)`).
    InvalidParameter(String),
    /// A closed-form theorem's side conditions are not met for these inputs;
    /// the numerical accountant should be used instead.
    NotApplicable(String),
    /// The requested `(ε, δ)` point is unachievable, e.g. `δ` is below the
    /// irreducible failure mass of a multi-message protocol with `p = ∞`.
    Unachievable(String),
    /// An internal invariant broke. The panic-freedom contract (the
    /// manifest `forbid`s `clippy::unreachable` and its siblings) rules out
    /// `unreachable!`-style aborts in result-serving paths, so "cannot happen" states surface as this error instead of
    /// taking down a worker; seeing one is always a bug worth reporting.
    Internal(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            Error::NotApplicable(msg) => write!(f, "bound not applicable: {msg}"),
            Error::Unachievable(msg) => write!(f, "target not achievable: {msg}"),
            Error::Internal(msg) => write!(f, "internal invariant broken: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<vr_numerics::search::SearchError> for Error {
    /// A malformed numerical search domain is an invalid-parameter condition
    /// at the accounting layer: it can only arise from out-of-domain query
    /// inputs. A search predicate that contradicts itself is a broken
    /// monotonicity invariant, hence [`Error::Internal`].
    fn from(e: vr_numerics::search::SearchError) -> Self {
        match e {
            vr_numerics::search::SearchError::Domain(_) => Error::InvalidParameter(e.to_string()),
            vr_numerics::search::SearchError::NotMonotone(_) => Error::Internal(e.to_string()),
        }
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;
