//! Unified error type for the public `univistor-core` API.
//!
//! The simulation substrate reports failures as bare [`SimError`]s, which
//! carry no information about *which* operation on *which* file by *which*
//! client went wrong. [`Error`] wraps a `SimError` with that context so
//! callers of [`crate::server::UniviStorJob`] get actionable messages,
//! while `From<Error> for SimError` keeps the inner variant intact for
//! code that matches on it (e.g. `SimError::Hole`).

use crate::metadata::ClientId;
use crate::va::Tier;
use std::fmt;
use univistor_sim::SimError;

/// Result alias for the public core API.
pub type Result<T> = std::result::Result<T, Error>;

/// A [`SimError`] annotated with the operation that raised it and, when
/// known, the file path, the requesting client, and the storage tier
/// involved.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    op: &'static str,
    path: Option<String>,
    client: Option<ClientId>,
    tier: Option<Tier>,
    source: SimError,
}

impl Error {
    /// Wrap `source` as having been raised by `op` (a static operation
    /// name like `"open"` or `"flush"`).
    pub fn new(op: &'static str, source: SimError) -> Self {
        Error {
            op,
            path: None,
            client: None,
            tier: None,
            source,
        }
    }

    /// Attach the file path the operation targeted.
    pub fn with_path(mut self, path: impl Into<String>) -> Self {
        self.path = Some(path.into());
        self
    }

    /// Attach the client on whose behalf the operation ran.
    pub fn with_client(mut self, client: ClientId) -> Self {
        self.client = Some(client);
        self
    }

    /// Attach the storage tier involved.
    pub fn with_tier(mut self, tier: Tier) -> Self {
        self.tier = Some(tier);
        self
    }

    /// The operation that raised the error.
    pub fn op(&self) -> &'static str {
        self.op
    }

    /// The file path, if one was attached.
    pub fn path(&self) -> Option<&str> {
        self.path.as_deref()
    }

    /// The requesting client, if one was attached.
    pub fn client(&self) -> Option<ClientId> {
        self.client
    }

    /// The storage tier, if one was attached.
    pub fn tier(&self) -> Option<Tier> {
        self.tier
    }

    /// Whether the underlying failure is a transient fault that is safe
    /// to retry (see [`SimError::Transient`]).
    pub fn is_transient(&self) -> bool {
        matches!(self.source, SimError::Transient { .. })
    }

    /// How many attempts a transient failure survived before being
    /// surfaced, when the source is transient (0 = failed on the first
    /// try, no retry loop involved).
    pub fn attempts(&self) -> Option<u64> {
        match &self.source {
            SimError::Transient { attempt, .. } => Some(*attempt),
            _ => None,
        }
    }

    /// The underlying simulation error.
    pub fn source_err(&self) -> &SimError {
        &self.source
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} failed", self.op)?;
        if let Some(path) = &self.path {
            write!(f, " on {path:?}")?;
        }
        if let Some(client) = self.client {
            write!(f, " for client {}.{}", client.app, client.rank)?;
        }
        if let Some(tier) = self.tier {
            write!(f, " at tier {tier}")?;
        }
        write!(f, ": {}", self.source)
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Strip the context, recovering the inner [`SimError`]. This lets the
/// `?` operator carry a contextualized error back across boundaries that
/// are pinned to `SimResult` (the MPI driver trait), and keeps existing
/// `match`es on `SimError` variants working.
impl From<Error> for SimError {
    fn from(e: Error) -> SimError {
        e.source
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_all_context() {
        let err = Error::new(
            "read",
            SimError::Hole {
                offset: 64,
                len: 32,
            },
        )
        .with_path("/data/ckpt")
        .with_client(ClientId::new(1, 7))
        .with_tier(Tier::SharedBurstBuffer);
        let text = err.to_string();
        assert!(text.contains("read failed"), "{text}");
        assert!(text.contains("/data/ckpt"), "{text}");
        assert!(text.contains("1.7"), "{text}");
        assert!(text.contains("BB"), "{text}");
    }

    #[test]
    fn round_trips_back_to_sim_error() {
        let err = Error::new(
            "write",
            SimError::OutOfCapacity {
                requested: 10,
                available: 4,
            },
        )
        .with_path("/f");
        let sim: SimError = err.into();
        assert!(matches!(
            sim,
            SimError::OutOfCapacity {
                requested: 10,
                available: 4
            }
        ));
    }

    #[test]
    fn source_chain_reaches_sim_error() {
        let err = Error::new("open", SimError::InvalidConfig("bad".into()));
        let src = std::error::Error::source(&err).expect("source");
        assert!(src.to_string().contains("bad"));
    }

    #[test]
    fn transient_errors_expose_attempts() {
        let err = Error::new(
            "write",
            SimError::Transient {
                site: "chain_append".into(),
                attempt: 0,
            },
        )
        .with_client(ClientId::new(0, 3));
        assert!(err.is_transient());
        assert_eq!(err.attempts(), Some(0));
        let text = err.to_string();
        assert!(text.contains("chain_append"), "{text}");

        let solid = Error::new("open", SimError::InvalidConfig("x".into()));
        assert!(!solid.is_transient());
        assert_eq!(solid.attempts(), None);
    }
}
