//! The distributed store and its centralized ablation baseline.
//!
//! [`DistKv`] is internally synchronized: each server shard carries its own
//! `RwLock`, so clients on different threads whose keys land on different
//! shards never contend — the in-process analogue of the paper's
//! independent metadata servers (§II-B3). Every method takes `&self`;
//! lookups return owned values or run a visitor under the locks, so no
//! shard lock outlives the call — except a [`Splice`]'s, which is held
//! until the splice is dropped.
//!
//! **Lock order.** An operation on several shards takes them in ascending
//! server index, each once: a [`splice`](DistKv::splice) write-locks the
//! shards of its span, a range read
//! ([`for_each_in_range`](DistKv::for_each_in_range)) read-locks every
//! shard of its span before visiting any, and [`put_batch`](DistKv::put_batch)
//! holds one shard at a time. No path waits for a lower shard while holding
//! a higher one, so they cannot deadlock, and a range read is a consistent
//! cut: it sees each splice entirely or not at all.

use crate::partition::{PartitionKey, RangePartitioner, ServerId};
use std::collections::BTreeMap;
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// The distributed KV store: `servers` shards with range partitioning, each
/// shard behind its own `RwLock`.
#[derive(Debug)]
pub struct DistKv<K: Ord + PartitionKey, V> {
    partitioner: RangePartitioner,
    shards: Vec<RwLock<BTreeMap<K, V>>>,
}

impl<K: Ord + PartitionKey + Clone, V: Clone> DistKv<K, V> {
    /// A store with `servers` shards and the given range width.
    pub fn new(range_size: u64, servers: usize) -> Self {
        DistKv {
            partitioner: RangePartitioner::new(range_size, servers),
            shards: (0..servers).map(|_| RwLock::new(BTreeMap::new())).collect(),
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

    fn shard(&self, s: ServerId) -> RwLockReadGuard<'_, BTreeMap<K, V>> {
        self.shards[s.0].read().expect("kv shard poisoned")
    }

    fn shard_mut(&self, s: ServerId) -> RwLockWriteGuard<'_, BTreeMap<K, V>> {
        self.shards[s.0].write().expect("kv shard poisoned")
    }

    /// Look up a key, returning a copy of the value and the servicing server.
    pub fn get(&self, key: &K) -> (ServerId, Option<V>) {
        let server = self.partitioner.server_for(key.partition_point());
        (server, self.shard(server).get(key).cloned())
    }

    /// Replace `key`'s value with `new` only if it currently equals
    /// `expected` — a compare-and-swap. On a swap, `then` runs before the
    /// shard's write lock is released, so a caller can refresh state
    /// derived from the record atomically with it. Returns whether the swap
    /// happened.
    pub fn replace_if_eq(
        &self,
        key: &K,
        expected: &V,
        new: V,
        then: impl FnOnce(),
    ) -> (ServerId, bool)
    where
        V: PartialEq,
    {
        let server = self.partitioner.server_for(key.partition_point());
        let mut shard = self.shard_mut(server);
        let swapped = match shard.get_mut(key) {
            Some(v) if v == expected => {
                *v = new;
                then();
                true
            }
            _ => false,
        };
        (server, swapped)
    }

    /// Every record whose partition point lies in `[lo, hi)` and whose key
    /// lies in `[lo_key, hi_key)` (which the caller guarantees contains
    /// every key with a partition point in `[lo, hi)`, plus whatever
    /// slack it wants) and satisfies `filter`, sorted by key — a collect
    /// over [`for_each_in_range`](Self::for_each_in_range), so it is a
    /// consistent cut too. Returns the servers visited as well.
    pub fn range_scan_bounded(
        &self,
        lo_key: &K,
        hi_key: &K,
        lo: u64,
        hi: u64,
        filter: impl Fn(&K) -> bool,
    ) -> (Vec<ServerId>, Vec<(K, V)>) {
        let mut out: Vec<(K, V)> = Vec::new();
        let servers = self.for_each_in_range(lo_key, hi_key, lo, hi, |k, v| {
            if filter(k) {
                out.push((k.clone(), v.clone()));
            }
        });
        out.sort_by(|a, b| a.0.cmp(&b.0));
        (servers, out)
    }

    /// Visit every record whose partition point lies in `[lo, hi)` and
    /// whose key lies in `[lo_key, hi_key)` without cloning keys or values.
    /// The read locks of all the span's shards are taken, in ascending
    /// index, before any is visited, so the visit is a **consistent cut**:
    /// a [`splice`](Self::splice) is seen entirely or not at all, even
    /// across shards. Each shard's records are visited in key order,
    /// shards in ascending index, so the overall order is **not** globally
    /// key-sorted — callers that need order sort what they keep. The
    /// visitor runs under the read locks and must not reenter the store.
    /// Each `O(log n + hits)` ordered-map range keeps million-record stores
    /// fast. Returns the servers visited, ascending.
    pub fn for_each_in_range(
        &self,
        lo_key: &K,
        hi_key: &K,
        lo: u64,
        hi: u64,
        mut visit: impl FnMut(&K, &V),
    ) -> Vec<ServerId> {
        let servers = self.partitioner.servers_for_span(lo, hi);
        let shards: Vec<_> = servers.iter().map(|&s| self.shard(s)).collect();
        for shard in &shards {
            for (k, v) in shard.range(lo_key.clone()..hi_key.clone()) {
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
    /// servers). One shard is held at a time, so the batch is atomic per
    /// group, not as a whole — a [`splice`](Self::splice) is. Returns the
    /// number of shard write-lock acquisitions taken.
    pub fn put_batch(&self, items: impl IntoIterator<Item = (K, V)>) -> u64 {
        let mut acquisitions = 0u64;
        let mut held: Option<(ServerId, RwLockWriteGuard<'_, BTreeMap<K, V>>)> = None;
        for (k, v) in items {
            let server = self.partitioner.server_for(k.partition_point());
            if !matches!(&held, Some((s, _)) if *s == server) {
                // Release before acquiring: never two shards at once.
                drop(held.take());
                held = Some((server, self.shard_mut(server)));
                acquisitions += 1;
            }
            held.as_mut().expect("guard just installed").1.insert(k, v);
        }
        acquisitions
    }

    /// Write-lock every shard owning a point of the inclusive span
    /// `[first, last]`, in ascending index and each once (a window whose
    /// ranges wrap onto one shard locks it once), and return the held
    /// locks as a [`Splice`]. Everything done through it is one atomic
    /// mutation to every reader: the locks are released together when it
    /// is dropped.
    pub fn splice(&self, first: u64, last: u64) -> Splice<'_, K, V> {
        let guards = self
            .partitioner
            .servers_for_points(first, last)
            .into_iter()
            .map(|s| (s, self.shard_mut(s)))
            .collect();
        Splice {
            partitioner: self.partitioner,
            first,
            last,
            guards,
        }
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
}

/// The write locks of every shard owning a point of a span `[first, last]`
/// (see [`DistKv::splice`]). Records are removed and inserted through it;
/// readers see none of it until it is dropped, then all of it.
#[derive(Debug)]
pub struct Splice<'a, K: Ord, V> {
    partitioner: RangePartitioner,
    first: u64,
    last: u64,
    /// Ascending by server.
    guards: Vec<(ServerId, RwLockWriteGuard<'a, BTreeMap<K, V>>)>,
}

impl<K: Ord + PartitionKey + Clone, V> Splice<'_, K, V> {
    /// Shard write locks held (the splice's lock accounting).
    pub fn acquisitions(&self) -> u64 {
        self.guards.len() as u64
    }

    /// Remove and return, sorted by key, every record whose key lies in
    /// `[lo_key, hi_key)`, whose partition point lies in the span, and
    /// which `select` accepts. Each shard is scanned with an ordered-map
    /// range, then only the selected keys are removed.
    pub fn take(
        &mut self,
        lo_key: &K,
        hi_key: &K,
        mut select: impl FnMut(&K, &V) -> bool,
    ) -> Vec<(K, V)> {
        let (first, last) = (self.first, self.last);
        let mut out: Vec<(K, V)> = Vec::new();
        for (_, shard) in &mut self.guards {
            let keys: Vec<K> = shard
                .range(lo_key.clone()..hi_key.clone())
                .filter(|(k, v)| {
                    let p = k.partition_point();
                    p >= first && p <= last && select(k, v)
                })
                .map(|(k, _)| k.clone())
                .collect();
            for k in keys {
                let v = shard.remove(&k).expect("selected under the lock");
                out.push((k, v));
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Insert a record, returning the value it displaced. Panics if the
    /// key's partition point lies outside the span: its shard may not be
    /// locked.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let p = key.partition_point();
        assert!(
            p >= self.first && p <= self.last,
            "key at {p} outside the splice's span"
        );
        let server = self.partitioner.server_for(p);
        let i = self
            .guards
            .binary_search_by_key(&server, |(s, _)| *s)
            .expect("span owners are locked");
        self.guards[i].1.insert(key, value)
    }
}

/// The paper's rejected design: a single global map on one server. Kept as
/// the ablation baseline — every operation hits server 0, which becomes the
/// bottleneck the distributed design removes.
#[derive(Debug, Clone)]
pub struct CentralizedKv<K: Ord, V> {
    map: BTreeMap<K, V>,
    ops: u64,
}

impl<K: Ord + Clone, V> CentralizedKv<K, V> {
    /// An empty centralized store.
    pub fn new() -> Self {
        CentralizedKv {
            map: BTreeMap::new(),
            ops: 0,
        }
    }

    /// Insert. Always serviced by the single server.
    pub fn put(&mut self, key: K, value: V) -> Option<V> {
        self.ops += 1;
        self.map.insert(key, value)
    }

    /// Look up.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.ops += 1;
        self.map.get(key)
    }

    /// Range scan by key order.
    pub fn range_scan(&mut self, lo: &K, hi: &K) -> Vec<(K, &V)> {
        self.ops += 1;
        self.map
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
        self.map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
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
        kv.put_batch([(key(1, 0), "a"), (key(1, 100), "b")]);
        assert_eq!(kv.get(&key(1, 0)).1, Some("a"));
        assert_eq!(kv.get(&key(1, 100)).1, Some("b"));
        assert_eq!(kv.get(&key(2, 0)).1, None);
        assert_eq!(kv.len(), 2);
    }

    #[test]
    fn splice_insert_returns_displaced_value() {
        let kv: DistKv<SegKey, u32> = DistKv::new(16, 2);
        let mut splice = kv.splice(5, 5);
        assert_eq!(splice.insert(key(1, 5), 10), None);
        assert_eq!(splice.insert(key(1, 5), 20), Some(10));
        drop(splice);
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn splice_take_removes_selected_records_in_key_order() {
        // Range 4, 2 servers: offsets 0..12 alternate S0, S1, S0.
        let kv: DistKv<SegKey, u64> = DistKv::new(4, 2);
        kv.put_batch((0..12).map(|off| (key(1, off), off)));
        kv.put_batch([(key(2, 3), 99)]);
        let mut splice = kv.splice(2, 9);
        assert_eq!(splice.acquisitions(), 2);
        let taken = splice.take(&key(1, 0), &key(1, 12), |_, v| v % 3 != 0);
        drop(splice);
        // In the span, of fid 1, not a multiple of 3 — sorted across shards.
        let offsets: Vec<u64> = taken.iter().map(|(k, _)| k.offset).collect();
        assert_eq!(offsets, vec![2, 4, 5, 7, 8]);
        assert_eq!(kv.len(), 13 - 5);
        assert_eq!(kv.get(&key(1, 1)).1, Some(1), "left of the span");
        assert_eq!(kv.get(&key(1, 10)).1, Some(10), "right of the span");
        assert_eq!(kv.get(&key(2, 3)).1, Some(99), "outside the key range");
    }

    #[test]
    fn splice_locks_each_owner_once_ascending() {
        // Ranges 2..=4 of width 10 over 3 servers wrap: S2, S0, S1.
        let kv: DistKv<SegKey, u64> = DistKv::new(10, 3);
        let splice = kv.splice(25, 45);
        let owners: Vec<ServerId> = splice.guards.iter().map(|(s, _)| *s).collect();
        assert_eq!(owners, vec![ServerId(0), ServerId(1), ServerId(2)]);
        drop(splice);
        // A window longer than the ring locks every shard once; with one
        // server, every window is one lock.
        assert_eq!(kv.splice(0, 1000).acquisitions(), 3);
        let one: DistKv<SegKey, u64> = DistKv::new(10, 1);
        assert_eq!(one.splice(0, 1000).acquisitions(), 1);
        // `last` is inclusive: a point on a boundary locks the next owner.
        assert_eq!(kv.splice(5, 10).acquisitions(), 2);
    }

    #[test]
    #[should_panic(expected = "outside the splice's span")]
    fn splice_rejects_keys_outside_its_span() {
        let kv: DistKv<SegKey, u64> = DistKv::new(10, 3);
        kv.splice(0, 9).insert(key(1, 10), 0);
    }

    #[test]
    fn replace_if_eq_is_a_cas() {
        let kv: DistKv<SegKey, u32> = DistKv::new(16, 2);
        kv.put_batch([(key(1, 5), 10)]);
        let mut thens = 0;
        assert!(kv.replace_if_eq(&key(1, 5), &10, 11, || thens += 1).1);
        // Stale expectation: no swap, and `then` does not run.
        assert!(!kv.replace_if_eq(&key(1, 5), &10, 12, || thens += 1).1);
        assert_eq!(thens, 1);
        assert_eq!(kv.get(&key(1, 5)).1, Some(11));
    }

    #[test]
    fn records_distribute_round_robin() {
        // 64 records at offsets 0..64, range width 4, 4 servers → each
        // server owns exactly 4 ranges × 4 records.
        let kv: DistKv<SegKey, u64> = DistKv::new(4, 4);
        kv.put_batch((0..64).map(|off| (key(1, off), off)));
        assert_eq!(kv.shard_sizes(), vec![16, 16, 16, 16]);
    }

    #[test]
    fn same_offset_different_fid_coexist() {
        // Segments from different source processes can share a VA/offset —
        // the composite key keeps them distinct.
        let kv: DistKv<SegKey, &str> = DistKv::new(16, 2);
        kv.put_batch([(key(1, 42), "file1"), (key(2, 42), "file2")]);
        assert_eq!(kv.get(&key(1, 42)).1, Some("file1"));
        assert_eq!(kv.get(&key(2, 42)).1, Some("file2"));
    }

    #[test]
    fn range_scan_returns_sorted_and_filtered() {
        let kv: DistKv<SegKey, u64> = DistKv::new(8, 3);
        for off in (0..100).step_by(10) {
            kv.put_batch([(key(1, off), off), (key(2, off), off + 1000)]);
        }
        let (servers, records) =
            kv.range_scan_bounded(&key(0, 0), &key(3, 0), 20, 60, |k| k.fid == 1);
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
        kv.put_batch([(key(1, 5), 5)]);
        let (servers, records) = kv.range_scan_bounded(&key(0, 0), &key(3, 0), 100, 100, |_| true);
        assert!(servers.is_empty());
        assert!(records.is_empty());
    }

    #[test]
    fn for_each_in_range_matches_cloning_scan() {
        let kv: DistKv<SegKey, u64> = DistKv::new(8, 3);
        for off in (0..100).step_by(10) {
            kv.put_batch([(key(1, off), off), (key(2, off), off + 1000)]);
        }
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
        for off in 0..16 {
            assert_eq!(kv.get(&key(1, off)).1, Some(off));
        }
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
                        kv.put_batch([(key(t as u32, off), off)]);
                    }
                });
            }
        });
        assert_eq!(kv.len(), 4 * 256);
        assert_eq!(kv.shard_sizes(), vec![256; 4]);
    }

    /// A writer moves one record back and forth between two shards, each
    /// move one splice; concurrent range reads over both shards must see
    /// exactly one copy every time — a read that visited the shards one
    /// lock at a time would see zero or two.
    #[test]
    fn range_reads_are_consistent_cuts_of_splices() {
        let kv: DistKv<SegKey, u64> = DistKv::new(8, 2);
        kv.put_batch([(key(1, 0), 0)]);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..20_000u64 {
                    let mut splice = kv.splice(0, 15);
                    let taken = splice.take(&key(1, 0), &key(1, 16), |_, _| true);
                    assert_eq!(taken.len(), 1);
                    splice.insert(key(1, (i % 2) * 8), i);
                }
            });
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..20_000 {
                        let mut seen = 0;
                        kv.for_each_in_range(&key(1, 0), &key(1, 16), 0, 16, |_, _| seen += 1);
                        assert_eq!(seen, 1, "a range read saw a splice half done");
                    }
                });
            }
        });
    }

    /// Two threads race to take the same records, one single-key splice
    /// each: every record is taken by exactly one of them.
    #[test]
    fn racing_splices_take_each_record_once() {
        let kv: DistKv<SegKey, u64> = DistKv::new(4, 3);
        kv.put_batch((0..2_000).map(|off| (key(1, off), off)));
        let taken: Vec<usize> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        (0..2_000)
                            .map(|off| {
                                let k = key(1, off);
                                kv.splice(off, off)
                                    .take(&k, &key(1, off + 1), |_, _| true)
                                    .len()
                            })
                            .sum::<usize>()
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert_eq!(taken.iter().sum::<usize>(), 2_000);
        assert!(kv.is_empty());
    }

    #[test]
    fn centralized_funnels_everything_to_one_server() {
        let mut central: CentralizedKv<SegKey, u64> = CentralizedKv::new();
        let dist: DistKv<SegKey, u64> = DistKv::new(4, 8);
        for off in 0..800 {
            central.put(key(1, off), off);
        }
        dist.put_batch((0..800).map(|off| (key(1, off), off)));
        assert_eq!(central.ops(), 800);
        // Distributed: no server holds more than ~1/8 of the records.
        let max_per_server = *dist.shard_sizes().iter().max().unwrap();
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
