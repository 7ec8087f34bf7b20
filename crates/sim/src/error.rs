//! Error type shared by the substrate.

use std::fmt;

/// Errors produced by the simulation substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// An operation was handed an input it cannot act on (an empty flush,
    /// an empty or oversized log append).
    InvalidFlow(String),
    /// A read touched a byte range with no data (hole in a sparse buffer)
    /// where the caller required full coverage.
    Hole { offset: u64, len: u64 },
    /// Generic out-of-capacity condition (log full, tier full, ...).
    OutOfCapacity { requested: u64, available: u64 },
    /// A topology/config parameter was inconsistent.
    InvalidConfig(String),
    /// A transient I/O fault (injected or environmental): the operation
    /// failed at `site` but is safe to retry. `attempt` is how many
    /// attempts had been made when the error was surfaced (0 = first try;
    /// retry loops rewrite it so an exhausted error carries the budget).
    Transient { site: String, attempt: u64 },
    /// A checksum verify failed and no clean copy of the data exists.
    /// Not retryable: the bytes on every copy disagree with the checksum
    /// stamped at write commit. `site` is the verify point that detected
    /// it (`read_fetch`, `flush_gather`, `tiering_copy`, `repair_source`,
    /// `scrub`).
    Integrity { site: String, offset: u64, len: u64 },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidFlow(msg) => write!(f, "invalid flow: {msg}"),
            SimError::Hole { offset, len } => {
                write!(f, "hole in data at offset {offset} (+{len} bytes)")
            }
            SimError::OutOfCapacity {
                requested,
                available,
            } => write!(
                f,
                "out of capacity: requested {requested} bytes, {available} available"
            ),
            SimError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SimError::Transient { site, attempt } => {
                write!(f, "transient fault at {site} (attempt {attempt})")
            }
            SimError::Integrity { site, offset, len } => write!(
                f,
                "integrity failure at {site}: no clean copy of [{offset}, +{len} bytes)"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Convenience alias used throughout the substrate.
pub type SimResult<T> = Result<T, SimError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_display_names_site_and_attempt() {
        let e = SimError::Transient {
            site: "chain_append".into(),
            attempt: 3,
        };
        let text = e.to_string();
        assert!(text.contains("transient"), "{text}");
        assert!(text.contains("chain_append"), "{text}");
        assert!(text.contains('3'), "{text}");
    }
}
