//! Typed request-path errors.
//!
//! Everything that can go wrong between a client's raw bytes and a tuned
//! schedule lands here, and every variant renders as a structured error
//! *response* ([`ServeError::kind`] + message) — the daemon's contract is
//! that one malformed request can never kill it, so the request path has no
//! `unwrap`/`expect` on client-controlled data.

use std::fmt;

/// Why a request could not be served.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The frame was not valid JSON (or not an object).
    Parse(String),
    /// A required field is missing.
    MissingField(&'static str),
    /// A field is present but mistyped or out of range.
    BadParam(String),
    /// `workload` names no known builder.
    UnknownWorkload(String),
    /// `dataset` names no registry entry.
    UnknownDataset(String),
    /// `strategy` does not parse (see `cello_search::Strategy::parse`).
    UnknownStrategy(String),
    /// The request is structurally valid but bigger than the daemon is
    /// willing to compile (caps keep one request from starving the pool).
    TooLarge(String),
    /// The persistent cache could not be read or written.
    Store(String),
    /// A compile worker panicked or an internal invariant failed — the
    /// catch-all that turns "bug" into "error response" instead of
    /// "dead daemon".
    Internal(String),
}

impl ServeError {
    /// Stable machine-readable discriminant carried in error responses.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::Parse(_) => "parse",
            ServeError::MissingField(_) => "missing-field",
            ServeError::BadParam(_) => "bad-param",
            ServeError::UnknownWorkload(_) => "unknown-workload",
            ServeError::UnknownDataset(_) => "unknown-dataset",
            ServeError::UnknownStrategy(_) => "unknown-strategy",
            ServeError::TooLarge(_) => "too-large",
            ServeError::Store(_) => "store",
            ServeError::Internal(_) => "internal",
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Parse(msg) => write!(f, "bad frame: {msg}"),
            ServeError::MissingField(name) => write!(f, "missing field {name:?}"),
            ServeError::BadParam(msg) => write!(f, "bad parameter: {msg}"),
            ServeError::UnknownWorkload(w) => {
                write!(f, "unknown workload {w:?} (expected cg|hpcg|gcn|bicgstab)")
            }
            ServeError::UnknownDataset(d) => write!(f, "unknown dataset {d:?}"),
            ServeError::UnknownStrategy(s) => write!(
                f,
                "unknown strategy {s:?} (expected exhaustive|beamN|randomN@S|prefilterF+inner)"
            ),
            ServeError::TooLarge(msg) => write!(f, "request too large: {msg}"),
            ServeError::Store(msg) => write!(f, "schedule store: {msg}"),
            ServeError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable_and_distinct() {
        let all = [
            ServeError::Parse("x".into()),
            ServeError::MissingField("workload"),
            ServeError::BadParam("x".into()),
            ServeError::UnknownWorkload("x".into()),
            ServeError::UnknownDataset("x".into()),
            ServeError::UnknownStrategy("x".into()),
            ServeError::TooLarge("x".into()),
            ServeError::Store("x".into()),
            ServeError::Internal("x".into()),
        ];
        let kinds: std::collections::HashSet<&str> = all.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds.len(), all.len());
        for e in &all {
            assert!(!e.to_string().is_empty());
        }
    }
}
