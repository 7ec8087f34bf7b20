//! The distributed store and its centralized ablation baseline.
//!
//! [`DistKv`] is internally synchronized: each server shard carries its own
//! `RwLock` and the per-server operation counters are atomics, so clients on
//! different threads whose keys land on different shards never contend — the
//! in-process analogue of the paper's independent metadata servers (§II-B3).
//! Every method therefore takes `&self`; lookups return owned values so no
//! shard lock outlives the call.

use crate::partition::{PartitionKey, RangePartitioner, ServerId};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Per-server operation counters, used both for load-balance assertions in
/// tests and by the timing plane to charge RPC costs.
#[derive(Debug, Clone, Default)]
pub struct KvStats {
    /// Puts serviced per server.
    pub puts: Vec<u64>,
    /// Gets (including range-scan visits) serviced per server.
    pub gets: Vec<u64>,
}

impl KvStats {
    /// Max-over-min load ratio across servers (1.0 = perfectly balanced).
    /// Servers with zero load are ignored in the min.
    pub fn imbalance(&self) -> f64 {
        let loads: Vec<u64> = self
            .puts
            .iter()
            .zip(&self.gets)
            .map(|(p, g)| p + g)
            .collect();
        let max = loads.iter().copied().max().unwrap_or(0);
        let min = loads.iter().copied().filter(|&l| l > 0).min().unwrap_or(0);
        if min == 0 {
            return f64::INFINITY;
        }
        max as f64 / min as f64
    }
}

/// One server's shard: an ordered map. Used directly by the centralized
/// baseline; `DistKv` wraps one per server in an `RwLock`.
#[derive(Debug, Clone)]
pub struct KvShard<K: Ord, V> {
    map: BTreeMap<K, V>,
}

impl<K: Ord, V> Default for KvShard<K, V> {
    fn default() -> Self {
        KvShard {
            map: BTreeMap::new(),
        }
    }
}

impl<K: Ord, V> KvShard<K, V> {
    /// Records stored in this shard.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the shard holds nothing.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate records in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.map.iter()
    }
}

/// The distributed KV store: `servers` shards with range partitioning, each
/// shard behind its own `RwLock`.
#[derive(Debug)]
pub struct DistKv<K: Ord + PartitionKey, V> {
    partitioner: RangePartitioner,
    shards: Vec<RwLock<BTreeMap<K, V>>>,
    puts: Vec<AtomicU64>,
    gets: Vec<AtomicU64>,
}

impl<K: Ord + PartitionKey + Clone, V: Clone> DistKv<K, V> {
    /// A store with `servers` shards and the given range width.
    pub fn new(range_size: u64, servers: usize) -> Self {
        let partitioner = RangePartitioner::new(range_size, servers);
        DistKv {
            partitioner,
            shards: (0..servers).map(|_| RwLock::new(BTreeMap::new())).collect(),
            puts: (0..servers).map(|_| AtomicU64::new(0)).collect(),
            gets: (0..servers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The partitioner in use.
    pub fn partitioner(&self) -> RangePartitioner {
        self.partitioner
    }

    /// Number of servers.
    pub fn servers(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, s: ServerId) -> std::sync::RwLockReadGuard<'_, BTreeMap<K, V>> {
        self.shards[s.0].read().expect("kv shard poisoned")
    }

    fn shard_mut(&self, s: ServerId) -> std::sync::RwLockWriteGuard<'_, BTreeMap<K, V>> {
        self.shards[s.0].write().expect("kv shard poisoned")
    }

    /// Insert, returning the servicing server and any displaced value.
    pub fn put(&self, key: K, value: V) -> (ServerId, Option<V>) {
        let server = self.partitioner.server_for(key.partition_point());
        self.puts[server.0].fetch_add(1, Ordering::Relaxed);
        let old = self.shard_mut(server).insert(key, value);
        (server, old)
    }

    /// Look up a key, returning a copy of the value and the servicing server.
    pub fn get(&self, key: &K) -> (ServerId, Option<V>) {
        let server = self.partitioner.server_for(key.partition_point());
        self.gets[server.0].fetch_add(1, Ordering::Relaxed);
        (server, self.shard(server).get(key).cloned())
    }

    /// Remove a key.
    pub fn remove(&self, key: &K) -> (ServerId, Option<V>) {
        let server = self.partitioner.server_for(key.partition_point());
        self.puts[server.0].fetch_add(1, Ordering::Relaxed);
        (server, self.shard_mut(server).remove(key))
    }

    /// Remove `key` only if its current value equals `expected` — a
    /// compare-and-delete claim. Concurrent displacement paths use this so a
    /// record observed by two threads is released by exactly one of them.
    pub fn remove_if_eq(&self, key: &K, expected: &V) -> (ServerId, bool)
    where
        V: PartialEq,
    {
        let server = self.partitioner.server_for(key.partition_point());
        self.puts[server.0].fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard_mut(server);
        let claimed = match shard.get(key) {
            Some(v) if v == expected => {
                shard.remove(key);
                true
            }
            _ => false,
        };
        (server, claimed)
    }

    /// Replace `key`'s value with `new` only if it currently equals
    /// `expected` — a compare-and-swap. Returns whether the swap happened.
    pub fn replace_if_eq(&self, key: &K, expected: &V, new: V) -> (ServerId, bool)
    where
        V: PartialEq,
    {
        let server = self.partitioner.server_for(key.partition_point());
        self.puts[server.0].fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard_mut(server);
        let swapped = match shard.get_mut(key) {
            Some(v) if v == expected => {
                *v = new;
                true
            }
            _ => false,
        };
        (server, swapped)
    }

    /// Scan all records whose partition point lies in `[lo, hi)` and whose
    /// key satisfies `filter`. Returns the records sorted by key, plus the
    /// servers visited (for RPC accounting). Each shard is locked shared for
    /// the duration of its scan only — the result set is a snapshot, not a
    /// consistent cut across shards.
    ///
    /// This walks every record of each visited shard — fine for modest
    /// stores; hot paths with ordered keys should use
    /// [`range_scan_bounded`](Self::range_scan_bounded).
    pub fn range_scan(
        &self,
        lo: u64,
        hi: u64,
        filter: impl Fn(&K) -> bool,
    ) -> (Vec<ServerId>, Vec<(K, V)>) {
        let servers = self.partitioner.servers_for_span(lo, hi);
        let mut out: Vec<(K, V)> = Vec::new();
        for s in &servers {
            self.gets[s.0].fetch_add(1, Ordering::Relaxed);
            for (k, v) in self.shard(*s).iter() {
                let p = k.partition_point();
                if p >= lo && p < hi && filter(k) {
                    out.push((k.clone(), v.clone()));
                }
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        (servers, out)
    }

    /// Like [`range_scan`](Self::range_scan), but additionally bounded by
    /// a key interval `[lo_key, hi_key)` that the caller guarantees
    /// contains every key with a partition point in `[lo, hi)` (plus
    /// whatever filtering slack it wants). Each visited shard is scanned
    /// with an O(log n + hits) ordered-map range, which keeps million-
    /// record stores fast.
    pub fn range_scan_bounded(
        &self,
        lo_key: &K,
        hi_key: &K,
        lo: u64,
        hi: u64,
        filter: impl Fn(&K) -> bool,
    ) -> (Vec<ServerId>, Vec<(K, V)>) {
        let servers = self.partitioner.servers_for_span(lo, hi);
        let mut out: Vec<(K, V)> = Vec::new();
        for s in &servers {
            self.gets[s.0].fetch_add(1, Ordering::Relaxed);
            for (k, v) in self.shard(*s).range(lo_key.clone()..hi_key.clone()) {
                let p = k.partition_point();
                if p >= lo && p < hi && filter(k) {
                    out.push((k.clone(), v.clone()));
                }
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        (servers, out)
    }

    /// Borrowing variant of [`range_scan_bounded`](Self::range_scan_bounded):
    /// visit every record whose partition point lies in `[lo, hi)` and whose
    /// key lies in `[lo_key, hi_key)` without cloning keys or values. Shards
    /// are visited in first-touch server order and each shard's records in
    /// key order, so the overall visit order is **not** globally key-sorted —
    /// callers that need order collect and sort what they keep. The visitor
    /// runs under the shard's read lock and must not reenter the store.
    /// Returns the servers visited (each visit is one get for accounting,
    /// exactly as for the cloning scans).
    pub fn for_each_in_range(
        &self,
        lo_key: &K,
        hi_key: &K,
        lo: u64,
        hi: u64,
        mut visit: impl FnMut(&K, &V),
    ) -> Vec<ServerId> {
        let servers = self.partitioner.servers_for_span(lo, hi);
        for s in &servers {
            self.gets[s.0].fetch_add(1, Ordering::Relaxed);
            for (k, v) in self.shard(*s).range(lo_key.clone()..hi_key.clone()) {
                let p = k.partition_point();
                if p >= lo && p < hi {
                    visit(k, v);
                }
            }
        }
        servers
    }

    /// Insert a run of records, taking each shard's write lock once per
    /// consecutive same-server group rather than once per record. Callers
    /// pass key-sorted runs so that each partition touched costs exactly one
    /// lock round-trip (range partitioning maps sorted keys to grouped
    /// servers). Per-server put counters advance once per record, as for
    /// [`put`](Self::put). Returns the number of shard write-lock
    /// acquisitions taken.
    pub fn put_batch(&self, items: impl IntoIterator<Item = (K, V)>) -> u64 {
        let mut acquisitions = 0u64;
        let mut held: Option<(ServerId, std::sync::RwLockWriteGuard<'_, BTreeMap<K, V>>)> = None;
        for (k, v) in items {
            let server = self.partitioner.server_for(k.partition_point());
            if !matches!(&held, Some((s, _)) if *s == server) {
                held = Some((server, self.shard_mut(server)));
                acquisitions += 1;
            }
            self.puts[server.0].fetch_add(1, Ordering::Relaxed);
            held.as_mut().expect("guard just installed").1.insert(k, v);
        }
        acquisitions
    }

    /// Compare-and-delete a run of `(key, expected)` pairs, grouping
    /// consecutive same-server items under one shard write-lock acquisition.
    /// Each item has the exact semantics of
    /// [`remove_if_eq`](Self::remove_if_eq), including its per-attempt put
    /// accounting. Returns the per-item claim flags (in input order) and the
    /// number of shard write-lock acquisitions taken.
    pub fn remove_if_eq_batch(&self, items: &[(K, V)]) -> (Vec<bool>, u64)
    where
        V: PartialEq,
    {
        let mut claimed = Vec::with_capacity(items.len());
        let mut acquisitions = 0u64;
        let mut held: Option<(ServerId, std::sync::RwLockWriteGuard<'_, BTreeMap<K, V>>)> = None;
        for (k, expected) in items {
            let server = self.partitioner.server_for(k.partition_point());
            if !matches!(&held, Some((s, _)) if *s == server) {
                held = Some((server, self.shard_mut(server)));
                acquisitions += 1;
            }
            self.puts[server.0].fetch_add(1, Ordering::Relaxed);
            let shard = &mut held.as_mut().expect("guard just installed").1;
            let ok = match shard.get(k) {
                Some(v) if v == expected => {
                    shard.remove(k);
                    true
                }
                _ => false,
            };
            claimed.push(ok);
        }
        (claimed, acquisitions)
    }

    /// Records per server (distribution inspection).
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.read().expect("kv shard poisoned").len())
            .collect()
    }

    /// Total records.
    pub fn len(&self) -> usize {
        self.shard_sizes().iter().sum()
    }

    /// True when no records are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the operation counters.
    pub fn stats(&self) -> KvStats {
        KvStats {
            puts: self
                .puts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            gets: self
                .gets
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// The paper's rejected design: a single global map on one server. Kept as
/// the ablation baseline — every operation hits server 0, which becomes the
/// bottleneck the distributed design removes.
#[derive(Debug, Clone)]
pub struct CentralizedKv<K: Ord, V> {
    shard: KvShard<K, V>,
    ops: u64,
}

impl<K: Ord + Clone, V> CentralizedKv<K, V> {
    /// An empty centralized store.
    pub fn new() -> Self {
        CentralizedKv {
            shard: KvShard::default(),
            ops: 0,
        }
    }

    /// Insert. Always serviced by the single server.
    pub fn put(&mut self, key: K, value: V) -> Option<V> {
        self.ops += 1;
        self.shard.map.insert(key, value)
    }

    /// Look up.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.ops += 1;
        self.shard.map.get(key)
    }

    /// Range scan by key order.
    pub fn range_scan(&mut self, lo: &K, hi: &K) -> Vec<(K, &V)> {
        self.ops += 1;
        self.shard
            .map
            .range(lo.clone()..hi.clone())
            .map(|(k, v)| (k.clone(), v))
            .collect()
    }

    /// Operations serviced by the lone server.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Records stored.
    pub fn len(&self) -> usize {
        self.shard.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.shard.is_empty()
    }
}

impl<K: Ord + Clone, V> Default for CentralizedKv<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Key type mirroring UniviStor metadata keys: (file id, offset),
    /// partitioned by offset.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct SegKey {
        fid: u32,
        offset: u64,
    }

    impl PartitionKey for SegKey {
        fn partition_point(&self) -> u64 {
            self.offset
        }
    }

    fn key(fid: u32, offset: u64) -> SegKey {
        SegKey { fid, offset }
    }

    #[test]
    fn put_get_roundtrip() {
        let kv: DistKv<SegKey, &str> = DistKv::new(16, 4);
        kv.put(key(1, 0), "a");
        kv.put(key(1, 100), "b");
        assert_eq!(kv.get(&key(1, 0)).1, Some("a"));
        assert_eq!(kv.get(&key(1, 100)).1, Some("b"));
        assert_eq!(kv.get(&key(2, 0)).1, None);
        assert_eq!(kv.len(), 2);
    }

    #[test]
    fn put_returns_displaced_value() {
        let kv: DistKv<SegKey, u32> = DistKv::new(16, 2);
        assert_eq!(kv.put(key(1, 5), 10).1, None);
        assert_eq!(kv.put(key(1, 5), 20).1, Some(10));
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn remove_works() {
        let kv: DistKv<SegKey, u32> = DistKv::new(16, 2);
        kv.put(key(1, 5), 10);
        assert_eq!(kv.remove(&key(1, 5)).1, Some(10));
        assert_eq!(kv.get(&key(1, 5)).1, None);
        assert!(kv.is_empty());
    }

    #[test]
    fn remove_if_eq_claims_exactly_once() {
        let kv: DistKv<SegKey, u32> = DistKv::new(16, 2);
        kv.put(key(1, 5), 10);
        assert!(!kv.remove_if_eq(&key(1, 5), &99).1); // wrong value
        assert!(kv.remove_if_eq(&key(1, 5), &10).1); // claims
        assert!(!kv.remove_if_eq(&key(1, 5), &10).1); // already gone
        assert!(kv.is_empty());
    }

    #[test]
    fn replace_if_eq_is_a_cas() {
        let kv: DistKv<SegKey, u32> = DistKv::new(16, 2);
        kv.put(key(1, 5), 10);
        assert!(kv.replace_if_eq(&key(1, 5), &10, 11).1);
        assert!(!kv.replace_if_eq(&key(1, 5), &10, 12).1); // stale expectation
        assert_eq!(kv.get(&key(1, 5)).1, Some(11));
    }

    #[test]
    fn records_distribute_round_robin() {
        // 64 records at offsets 0..64, range width 4, 4 servers → each
        // server owns exactly 4 ranges × 4 records.
        let kv: DistKv<SegKey, u64> = DistKv::new(4, 4);
        for off in 0..64 {
            kv.put(key(1, off), off);
        }
        assert_eq!(kv.shard_sizes(), vec![16, 16, 16, 16]);
        assert!(kv.stats().imbalance() < 1.01);
    }

    #[test]
    fn same_offset_different_fid_coexist() {
        // Segments from different source processes can share a VA/offset —
        // the composite key keeps them distinct.
        let kv: DistKv<SegKey, &str> = DistKv::new(16, 2);
        kv.put(key(1, 42), "file1");
        kv.put(key(2, 42), "file2");
        assert_eq!(kv.get(&key(1, 42)).1, Some("file1"));
        assert_eq!(kv.get(&key(2, 42)).1, Some("file2"));
    }

    #[test]
    fn range_scan_returns_sorted_and_filtered() {
        let kv: DistKv<SegKey, u64> = DistKv::new(8, 3);
        for off in (0..100).step_by(10) {
            kv.put(key(1, off), off);
            kv.put(key(2, off), off + 1000);
        }
        let (servers, records) = kv.range_scan(20, 60, |k| k.fid == 1);
        assert!(!servers.is_empty());
        let offsets: Vec<u64> = records.iter().map(|(k, _)| k.offset).collect();
        assert_eq!(offsets, vec![20, 30, 40, 50]);
        let sorted = {
            let mut s = records.clone();
            s.sort_by_key(|a| a.0);
            s
        };
        assert_eq!(records, sorted);
    }

    #[test]
    fn range_scan_empty_span() {
        let kv: DistKv<SegKey, u64> = DistKv::new(8, 3);
        kv.put(key(1, 5), 5);
        let (servers, records) = kv.range_scan(100, 100, |_| true);
        assert!(servers.is_empty());
        assert!(records.is_empty());
    }

    #[test]
    fn for_each_in_range_matches_cloning_scan() {
        let kv: DistKv<SegKey, u64> = DistKv::new(8, 3);
        for off in (0..100).step_by(10) {
            kv.put(key(1, off), off);
            kv.put(key(2, off), off + 1000);
        }
        let gets_before = kv.stats().gets.iter().sum::<u64>();
        let (scan_servers, scan_records) =
            kv.range_scan_bounded(&key(1, 20), &key(1, 60), 20, 60, |k| k.fid == 1);
        let mut visited: Vec<(SegKey, u64)> = Vec::new();
        let visit_servers = kv.for_each_in_range(&key(1, 20), &key(1, 60), 20, 60, |k, v| {
            if k.fid == 1 {
                visited.push((*k, *v));
            }
        });
        visited.sort_by_key(|(k, _)| *k);
        assert_eq!(visit_servers, scan_servers);
        assert_eq!(visited, scan_records);
        // Both scans charge one get per visited server.
        let gets_after = kv.stats().gets.iter().sum::<u64>();
        assert_eq!(gets_after - gets_before, 2 * scan_servers.len() as u64);
    }

    #[test]
    fn put_batch_groups_sorted_runs_by_server() {
        // Range width 4, 4 servers: offsets 0..16 span 4 partitions, so a
        // sorted run of 16 records costs exactly 4 write-lock acquisitions.
        let kv: DistKv<SegKey, u64> = DistKv::new(4, 4);
        let items: Vec<(SegKey, u64)> = (0..16).map(|off| (key(1, off), off)).collect();
        let acquisitions = kv.put_batch(items);
        assert_eq!(acquisitions, 4);
        assert_eq!(kv.len(), 16);
        assert_eq!(kv.shard_sizes(), vec![4, 4, 4, 4]);
        // Put accounting matches the one-at-a-time path: one per record.
        assert_eq!(kv.stats().puts, vec![4; 4]);
        for off in 0..16 {
            assert_eq!(kv.get(&key(1, off)).1, Some(off));
        }
    }

    #[test]
    fn remove_if_eq_batch_claims_like_singles() {
        let kv: DistKv<SegKey, u64> = DistKv::new(4, 2);
        kv.put(key(1, 0), 10);
        kv.put(key(1, 1), 20);
        kv.put(key(1, 4), 30);
        let items = vec![
            (key(1, 0), 10u64), // matches → claimed
            (key(1, 1), 99),    // stale expectation → left alone
            (key(1, 4), 30),    // matches → claimed
            (key(1, 5), 40),    // absent → not claimed
        ];
        let (claims, acquisitions) = kv.remove_if_eq_batch(&items);
        assert_eq!(claims, vec![true, false, true, false]);
        // Offsets 0/1 share partition 0 (server 0), 4/5 share partition 1
        // (server 1): two grouped acquisitions for four items.
        assert_eq!(acquisitions, 2);
        assert_eq!(kv.get(&key(1, 0)).1, None);
        assert_eq!(kv.get(&key(1, 1)).1, Some(20));
        assert_eq!(kv.get(&key(1, 4)).1, None);
    }

    #[test]
    fn concurrent_puts_on_distinct_shards_all_land() {
        use std::sync::Arc;
        let kv: Arc<DistKv<SegKey, u64>> = Arc::new(DistKv::new(16, 4));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let kv = Arc::clone(&kv);
                scope.spawn(move || {
                    // Each thread owns one partition range stride.
                    for i in 0..256u64 {
                        let off = (i * 4 + t) * 16; // lands on server (i*4+t)%4 == t
                        kv.put(key(t as u32, off), off);
                    }
                });
            }
        });
        assert_eq!(kv.len(), 4 * 256);
        let stats = kv.stats();
        assert_eq!(stats.puts, vec![256; 4]);
    }

    #[test]
    fn centralized_funnels_everything_to_one_server() {
        let mut central: CentralizedKv<SegKey, u64> = CentralizedKv::new();
        let dist: DistKv<SegKey, u64> = DistKv::new(4, 8);
        for off in 0..800 {
            central.put(key(1, off), off);
            dist.put(key(1, off), off);
        }
        assert_eq!(central.ops(), 800);
        // Distributed: no server saw more than ~1/8 of the puts.
        let max_per_server = *dist.stats().puts.iter().max().unwrap();
        assert!(max_per_server <= 101, "max {max_per_server}");
    }

    #[test]
    fn centralized_range_scan() {
        let mut central: CentralizedKv<SegKey, u64> = CentralizedKv::new();
        for off in 0..10 {
            central.put(key(1, off), off);
        }
        let got = central.range_scan(&key(1, 3), &key(1, 7));
        assert_eq!(got.len(), 4);
    }
}
