//! Offset-range partitioning with round-robin server assignment (Fig. 3).

use std::fmt;

/// Index of a metadata server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServerId(pub usize);

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// Keys locatable by a one-dimensional partition point (the logical file
/// offset for UniviStor's metadata records).
pub trait PartitionKey {
    /// The coordinate partitioning is performed on.
    fn partition_point(&self) -> u64;
}

impl PartitionKey for u64 {
    fn partition_point(&self) -> u64 {
        *self
    }
}

/// Fixed-size ranges of the partition coordinate assigned to servers
/// round-robin: range `r = point / range_size` goes to server
/// `r % servers`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangePartitioner {
    /// Width of one range in partition-coordinate units (bytes of logical
    /// offset for metadata).
    pub range_size: u64,
    /// Number of servers.
    pub servers: usize,
}

impl RangePartitioner {
    /// Construct; panics on degenerate parameters (misconfiguration is a
    /// programming error, not a runtime condition).
    pub fn new(range_size: u64, servers: usize) -> Self {
        assert!(range_size > 0, "range_size must be positive");
        assert!(servers > 0, "need at least one server");
        RangePartitioner {
            range_size,
            servers,
        }
    }

    /// Index of the range containing `point`.
    pub fn range_index(&self, point: u64) -> u64 {
        point / self.range_size
    }

    /// Server owning `point`.
    pub fn server_for(&self, point: u64) -> ServerId {
        ServerId((self.range_index(point) % self.servers as u64) as usize)
    }

    /// Servers whose ranges intersect `[lo, hi)`, deduplicated and
    /// ascending.
    pub fn servers_for_span(&self, lo: u64, hi: u64) -> Vec<ServerId> {
        if lo >= hi {
            return Vec::new();
        }
        self.servers_for_points(lo, hi - 1)
    }

    /// Servers owning any point of the inclusive span `[first, last]`,
    /// deduplicated and ascending — the order every multi-shard lock set
    /// is taken in. Visits at most `servers` ranges even for huge spans.
    pub fn servers_for_points(&self, first: u64, last: u64) -> Vec<ServerId> {
        if first > last {
            return Vec::new();
        }
        let n = self.servers as u64;
        let (a, b) = (self.range_index(first), self.range_index(last));
        // At most `servers` consecutive ranges, so the owners are distinct.
        let mut out: Vec<ServerId> = (a..=b.min(a + n - 1))
            .map(|r| ServerId((r % n) as usize))
            .collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_round_robin_example() {
        // Fig. 3: 16 records, range width 4, 4 servers on 2 nodes — but the
        // round-robin property is the same for any server count. With 2
        // servers: ranges 0,2 → S0; ranges 1,3 → S1.
        let p = RangePartitioner::new(4, 2);
        assert_eq!(p.server_for(0), ServerId(0)); // offsets 0-3
        assert_eq!(p.server_for(3), ServerId(0));
        assert_eq!(p.server_for(4), ServerId(1)); // offsets 4-7
        assert_eq!(p.server_for(8), ServerId(0)); // offsets 8-11
        assert_eq!(p.server_for(12), ServerId(1)); // offsets 12-15
    }

    #[test]
    fn span_visits_each_server_once() {
        let p = RangePartitioner::new(10, 3);
        let servers = p.servers_for_span(0, 1000);
        assert_eq!(servers.len(), 3);
        let servers = p.servers_for_span(0, 10);
        assert_eq!(servers, vec![ServerId(0)]);
        let servers = p.servers_for_span(5, 15);
        assert_eq!(servers, vec![ServerId(0), ServerId(1)]);
        // Ranges 2, 3, 4 wrap onto S2, S0, S1: reported ascending.
        let servers = p.servers_for_span(25, 45);
        assert_eq!(servers, vec![ServerId(0), ServerId(1), ServerId(2)]);
    }

    #[test]
    fn inclusive_span_reaches_the_boundary_owner() {
        let p = RangePartitioner::new(10, 3);
        // A point exactly on a range boundary belongs to the next range.
        assert_eq!(p.servers_for_points(5, 10), vec![ServerId(0), ServerId(1)]);
        assert_eq!(p.servers_for_span(5, 10), vec![ServerId(0)]);
        assert_eq!(p.servers_for_points(7, 7), vec![ServerId(0)]);
        assert!(p.servers_for_points(8, 7).is_empty());
        // One server: every window wraps onto it.
        let one = RangePartitioner::new(10, 1);
        assert_eq!(one.servers_for_points(0, 95), vec![ServerId(0)]);
    }

    #[test]
    fn empty_span_is_empty() {
        let p = RangePartitioner::new(10, 3);
        assert!(p.servers_for_span(5, 5).is_empty());
        assert!(p.servers_for_span(9, 3).is_empty());
    }

    #[test]
    fn huge_span_terminates_quickly() {
        let p = RangePartitioner::new(1, 7);
        let servers = p.servers_for_span(0, u64::MAX);
        assert_eq!(servers.len(), 7);
    }

    #[test]
    #[should_panic(expected = "range_size")]
    fn zero_range_size_rejected() {
        RangePartitioner::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "server")]
    fn zero_servers_rejected() {
        RangePartitioner::new(1, 0);
    }
}
