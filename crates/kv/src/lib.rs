//! # univistor-kv — range-partitioned distributed key-value store
//!
//! UniviStor stores the map from a segment's logical file offset to its
//! virtual address and source process in "a distributed key-value (KV)
//! store maintained by all UniviStor servers" (§II-B3). Records are
//! partitioned into fixed-size *ranges* by their logical offset, and ranges
//! are assigned to servers **round-robin** (Fig. 3: ranges 1-4, 5-8, 9-12,
//! 13-16 alternate between the servers on Node 1 and Node 2).
//!
//! The crate provides:
//!
//! * [`RangePartitioner`] — the offset→server mapping;
//! * [`DistKv`] — the distributed store, one `RwLock`-guarded ordered map
//!   per server. Its one multi-record mutation is the [`Splice`]: it
//!   write-locks every shard owning a window, in ascending index and each
//!   once, and everything removed and inserted through it lands as one
//!   atomic change. Its range read
//!   ([`for_each_in_range`](DistKv::for_each_in_range)) read-locks all of
//!   its shards, in the same order, before visiting any, so it is a
//!   consistent cut that sees a splice entirely or not at all. Beside
//!   those: point `get`, the compare-and-swap `replace_if_eq`, and
//!   `put_batch` for bulk loads;
//! * [`CentralizedKv`] — the paper's rejected "naïve solution" (a global
//!   map on a single server), kept as the scalability ablation baseline.
//!
//! Lookups report which servers serviced them so the timing plane can
//! charge RPC costs; `DistKv::shard_sizes` shows the load balance.

pub mod partition;
pub mod store;

pub use partition::{PartitionKey, RangePartitioner, ServerId};
pub use store::{CentralizedKv, DistKv, Splice};
