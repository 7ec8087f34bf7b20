//! Distributed metadata service (§II-B3, Fig. 3).
//!
//! For every file segment UniviStor keeps a record associating its logical
//! position `(FID, offset)` with the producing process (`ProcID`) and its
//! virtual address (`VA`). Records are stored in the range-partitioned
//! distributed KV of `univistor-kv`, partitioned **by logical offset** with
//! ranges assigned to servers round-robin — exactly Fig. 3.
//!
//! Additionally, each server keeps a **shared metadata buffer** of the
//! records produced on its own node (§II-B4): the location-aware read
//! service consults it first so that locally-resident data is served
//! without any server round trip.
//!
//! The service is internally synchronized: the KV shards carry their own
//! locks and each node buffer has an `RwLock`, so every method takes
//! `&self` and lookups by different clients proceed in parallel. Every
//! index write is one splice: [`MetadataService::insert_batch`] write-locks
//! the KV shards of its window, removes the overlapped records, inserts the
//! surviving fragments and the new records and refreshes the node buffers
//! before releasing any lock, so a reader sees the overwrite entirely or not
//! at all, and each displaced span is reported by exactly one writer. Lock
//! order: KV shards (ascending) → node buffers; nothing takes a node buffer
//! and then a KV shard.

use crate::fault::FaultInjector;
use crate::hash::FoldMap;
use crate::va::VirtualAddr;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
use std::sync::{Arc, RwLock};
use univistor_kv::{DistKv, PartitionKey, ServerId};
use univistor_sim::SimResult;

/// A client process: which coupled application and which global rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientId {
    /// Application index within the job (App 1, App 2, … of Fig. 1).
    pub app: u32,
    /// Global MPI rank within that application.
    pub rank: u32,
}

impl ClientId {
    /// Convenience constructor.
    pub fn new(app: u32, rank: u32) -> Self {
        ClientId { app, rank }
    }
}

/// Metadata key: file id + logical offset (Fig. 3's FID / offset columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SegKey {
    /// File id.
    pub fid: u64,
    /// Logical offset of the segment's first byte.
    pub offset: u64,
}

impl PartitionKey for SegKey {
    fn partition_point(&self) -> u64 {
        self.offset
    }
}

/// Metadata value: producing process + VA + length (Fig. 3's ProcID / VA),
/// optionally with a resilience replica (the paper's future work: "adding
/// resilience to data in volatile storage layers").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentRecord {
    /// The producer.
    pub client: ClientId,
    /// Virtual address within the producer's log chain.
    pub va: VirtualAddr,
    /// Segment length in bytes.
    pub len: u64,
    /// Replica location: (buddy client, VA within the buddy's chain).
    pub replica: Option<(ClientId, VirtualAddr)>,
    /// Content checksum over the record's full payload span (the
    /// streaming digest of [`univistor_sim::Checksum`]), stamped at
    /// write commit and carried unchanged across legitimate data moves
    /// (migration, repair — the bytes are identical, so the checksum is
    /// too). `None` marks an unprotected record: overwrite fragments lose
    /// their stamp (the digest covers the whole span, a sub-span's digest
    /// cannot be derived from it) until the scrubber re-stamps them, and
    /// jobs with the integrity plane disabled never stamp at all.
    pub checksum: Option<u64>,
}

impl SegmentRecord {
    /// A record without a replica or a checksum stamp.
    pub fn new(client: ClientId, va: VirtualAddr, len: u64) -> Self {
        SegmentRecord {
            client,
            va,
            len,
            replica: None,
            checksum: None,
        }
    }
}

/// A record trimmed out of the index by an overlapping write; the caller
/// releases the corresponding log bytes (and the replica's, if any).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Displaced {
    /// Producer of the displaced bytes.
    pub client: ClientId,
    /// VA of the first displaced byte.
    pub va: VirtualAddr,
    /// Displaced byte count.
    pub len: u64,
    /// The replica span displaced along with it.
    pub replica: Option<(ClientId, VirtualAddr)>,
}

/// Lock-acquisition accounting for one batched metadata commit, reported so
/// the write pipeline can expose per-call lock costs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitStats {
    /// KV shard write locks of the splice (the window's distinct shards).
    pub kv_shard_acquisitions: u64,
    /// Node shared-metadata-buffer write-lock acquisitions.
    pub node_buffer_acquisitions: u64,
}

/// Result of [`MetadataService::insert_batch`]: the spans trimmed out of the
/// index (for the caller to release) plus the lock accounting for the commit.
#[derive(Debug, Clone, Default)]
pub struct BatchOutcome {
    /// Spans displaced from the batch's full range.
    pub displaced: Vec<Displaced>,
    /// Lock acquisitions spent on the whole commit.
    pub locks: CommitStats,
}

/// One cached lookup window in a node's read record cache: the records
/// that intersected `[lo, hi)` of a fid at generation `gen` (the BTreeMap
/// key is `lo`).
#[derive(Debug, Clone)]
struct CacheEntry {
    /// Exclusive end of the cached window.
    pub(crate) hi: u64,
    /// The fid's generation when the window was fetched; a mismatch at
    /// hit time means an intervening mutation and the entry is dead.
    pub(crate) gen: u64,
    /// Records intersecting the window, offset-sorted.
    pub(crate) records: Vec<(SegKey, SegmentRecord)>,
}

/// Cached windows kept per `(node, fid)` before the whole fid map is
/// dropped — a safety valve for pathological random-read patterns, not a
/// tuned working-set size.
const READ_CACHE_WINDOWS_PER_FID: usize = 128;

/// Where a bounded scan for records overlapping `[lo, ..)` starts: a
/// record starting left of `lo` can still reach into the window, and no
/// record exceeds one metadata range (the coalescing cap), so the scan
/// widens left by exactly `range_size`. Every metadata scan — splice and
/// lookup — starts here.
#[inline]
fn scan_start(lo: u64, range_size: u64) -> u64 {
    lo.saturating_sub(range_size)
}

/// The geometry of one record `(k, v)` overlapped by a write of `[lo, hi)`:
/// surviving left/right fragments plus the displaced middle. Note the
/// fragment keys can never collide with the batch's new record keys: a
/// left fragment keeps its original offset `< lo`, the right fragment sits
/// exactly at `hi`, and new records lie in `[lo, hi)`.
fn split_overlapped(
    k: SegKey,
    v: SegmentRecord,
    lo: u64,
    hi: u64,
    fragments: &mut Vec<(SegKey, SegmentRecord)>,
) -> Displaced {
    let seg_end = k.offset + v.len;
    // Left fragment survives.
    if k.offset < lo {
        let keep = lo - k.offset;
        // Fragments lose the checksum stamp: the digest covers the whole
        // span, so a sub-span's digest cannot be derived from it. The
        // scrubber re-stamps unprotected fragments on its next pass.
        let frag = SegmentRecord {
            client: v.client,
            va: v.va,
            len: keep,
            replica: v.replica,
            checksum: None,
        };
        fragments.push((k, frag));
    }
    // Right fragment survives. (At most one record extends past `hi`, so
    // the fragment key `{fid, hi}` is unique.)
    if seg_end > hi {
        let skip = hi - k.offset;
        let frag = SegmentRecord {
            client: v.client,
            va: VirtualAddr(v.va.0 + skip),
            len: seg_end - hi,
            replica: v.replica.map(|(c, rva)| (c, VirtualAddr(rva.0 + skip))),
            checksum: None,
        };
        fragments.push((
            SegKey {
                fid: k.fid,
                offset: hi,
            },
            frag,
        ));
    }
    // Displaced middle.
    let cut_lo = lo.max(k.offset);
    let cut_hi = hi.min(seg_end);
    let off = cut_lo - k.offset;
    Displaced {
        client: v.client,
        va: VirtualAddr(v.va.0 + off),
        len: cut_hi - cut_lo,
        replica: v.replica.map(|(c, rva)| (c, VirtualAddr(rva.0 + off))),
    }
}

/// A node buffer's entry: one record produced on the node and its read
/// heat — the reads served from exactly this record, halved by each decay
/// tick. Bumped under the buffer's shared lock.
#[derive(Debug)]
struct Held {
    record: SegmentRecord,
    heat: AtomicU32,
}

impl Held {
    fn new(record: SegmentRecord, heat: u32) -> Self {
        Held {
            record,
            heat: AtomicU32::new(heat),
        }
    }
}

/// One node's shared metadata buffer: fid → offset → record, for records
/// produced on that node, kept behind a lock per node; the functions below
/// are the buffer and read-cache logic.
type NodeBuffer = FoldMap<u64, BTreeMap<u64, Held>>;

/// One node's read record cache: fid → window lo → cached lookup result.
type ReadCache = FoldMap<u64, BTreeMap<u64, CacheEntry>>;

/// The records of `fid` in `buffer` that tile `[lo, hi)`, offset-sorted:
/// the walk starts at the record at or left of `lo` and stops at the first
/// gap, so `None` (the buffer leaves part of the request uncovered) clones
/// nothing.
fn buffer_cover(
    buffer: &NodeBuffer,
    fid: u64,
    lo: u64,
    hi: u64,
) -> Option<Vec<(SegKey, SegmentRecord)>> {
    let per_fid = buffer.get(&fid)?;
    let (&start, _) = per_fid.range(..=lo).next_back()?;
    let mut covered = lo;
    for (&offset, held) in per_fid.range(start..hi) {
        if offset > covered {
            return None;
        }
        covered = covered.max(offset + held.record.len);
    }
    (covered >= hi).then(|| {
        per_fid
            .range(start..hi)
            .map(|(&offset, held)| (SegKey { fid, offset }, held.record))
            .collect()
    })
}

/// One node buffer's share of an index mutation of `fid`: drop every
/// removed key and re-cache the surviving fragments of the records this
/// buffer held (a fragment lies inside its parent's span, and the index's
/// records are disjoint), so a buffer only ever holds its own node's
/// records — a left fragment keeps its parent's key and so its heat, a
/// right one starts cold; then, on the producer's node only (`install` is
/// `Some`), track the fid and install the new records at heat `heat`.
fn buffer_apply(
    buffer: &mut NodeBuffer,
    fid: u64,
    removed: &[(SegKey, SegmentRecord)],
    fragments: &[(SegKey, SegmentRecord)],
    install: Option<&[(u64, SegmentRecord)]>,
    heat: u32,
) {
    if let Some(per_fid) = buffer.get_mut(&fid) {
        for (k, v) in removed {
            let Some(parent) = per_fid.remove(&k.offset) else {
                continue;
            };
            let parent_heat = parent.heat.into_inner();
            let span = k.offset..k.offset + v.len;
            for (fk, frag) in fragments {
                if span.contains(&fk.offset) {
                    let heat = if fk.offset == k.offset {
                        parent_heat
                    } else {
                        0
                    };
                    per_fid.insert(fk.offset, Held::new(*frag, heat));
                }
            }
        }
    }
    if let Some(install) = install {
        let per_fid = buffer.entry(fid).or_default();
        for &(offset, record) in install {
            per_fid.insert(offset, Held::new(record, heat));
        }
    }
}

/// The cached window of `fid` containing `[lo, hi)`, if one exists at
/// generation `gen`: the records of it that overlap the request (a subset
/// of the window's, since `[lo, hi)` ⊆ `[window lo, window hi)`).
fn cache_probe(
    cache: &ReadCache,
    fid: u64,
    lo: u64,
    hi: u64,
    gen: u64,
) -> Option<Vec<(SegKey, SegmentRecord)>> {
    let (_, entry) = cache.get(&fid)?.range(..=lo).next_back()?;
    (entry.gen == gen && entry.hi >= hi).then(|| {
        entry
            .records
            .iter()
            .filter(|(k, r)| k.offset < hi && k.offset + r.len > lo)
            .copied()
            .collect()
    })
}

/// Install the window `[lo, hi)` fetched at generation `gen`.
fn cache_store(
    cache: &mut ReadCache,
    fid: u64,
    lo: u64,
    hi: u64,
    gen: u64,
    records: Vec<(SegKey, SegmentRecord)>,
) {
    let per_fid = cache.entry(fid).or_default();
    if per_fid.len() >= READ_CACHE_WINDOWS_PER_FID {
        per_fid.clear();
    }
    per_fid.insert(lo, CacheEntry { hi, gen, records });
}

/// The preconditions of a batched commit over `[lo, hi)`: every record
/// obeys the coalescing cap `len <= range` (the left-widened overlap scans
/// of the splice and `lookup_range` assume no record is longer than one
/// metadata range) and lies within the batch span (so the splice holds
/// every record owner's lock). Checked by
/// [`MetadataService::insert_batch`].
fn assert_batch_records(range: u64, lo: u64, hi: u64, records: &[(u64, SegmentRecord)]) {
    for (offset, record) in records {
        assert!(
            record.len <= range,
            "segment length {} exceeds metadata range size {range}",
            record.len
        );
        assert!(
            *offset >= lo && offset + record.len <= hi,
            "record [{offset}, {}) outside batch span [{lo}, {hi})",
            offset + record.len
        );
    }
}

/// Per-fid mutation generations: bumped after every index mutation, which
/// atomically invalidates every cached read window of the fid (entries are
/// validated against it at hit time) and fences the parallel flush's
/// catch-up passes.
#[derive(Debug, Default)]
struct Generations(RwLock<FoldMap<u64, u64>>);

impl Generations {
    /// The fid's current generation (0 if never mutated).
    pub(crate) fn get(&self, fid: u64) -> u64 {
        let table = self.0.read().expect("generations poisoned");
        table.get(&fid).copied().unwrap_or(0)
    }

    /// Call after a mutation has fully landed, so a reader that captured
    /// the old generation before it can never install (or keep trusting) a
    /// pre-mutation window.
    pub(crate) fn bump(&self, fid: u64) {
        *self
            .0
            .write()
            .expect("generations poisoned")
            .entry(fid)
            .or_insert(0) += 1;
    }
}

/// The distributed metadata service plus per-node shared metadata buffers.
#[derive(Debug)]
pub struct MetadataService {
    kv: DistKv<SegKey, SegmentRecord>,
    /// Per node: the shared metadata buffer. A record lives only in its
    /// producer's, `local[node_of(record.client)]`.
    local: Vec<RwLock<NodeBuffer>>,
    /// Ranks per node, so a record's buffer follows from its producer.
    procs_per_node: usize,
    /// Per node: the read record cache. Entries are validated against
    /// `generations` at hit time, so mutators only bump a counter instead
    /// of chasing cached copies.
    read_cache: Vec<RwLock<ReadCache>>,
    /// Per fid: mutation generation, bumped by `insert_batch` and a
    /// successful `replace_if_current`.
    generations: Generations,
    /// Fault injector shared with the job; `None` (the default) costs the
    /// KV entry points only this `Option` check.
    injector: Option<Arc<FaultInjector>>,
}

impl MetadataService {
    /// A service over `servers` metadata servers and `nodes` compute nodes
    /// of `procs_per_node` ranks each (rank `r` runs on node
    /// `r / procs_per_node`).
    pub fn new(range_size: u64, servers: usize, nodes: usize, procs_per_node: usize) -> Self {
        MetadataService {
            kv: DistKv::new(range_size, servers),
            local: (0..nodes).map(|_| RwLock::default()).collect(),
            procs_per_node: procs_per_node.max(1),
            read_cache: (0..nodes).map(|_| RwLock::default()).collect(),
            generations: Generations::default(),
            injector: None,
        }
    }

    /// Install the fault injector (at job construction, before the service
    /// is shared). Batched KV commits and cached lookups then draw from its
    /// schedule, failing *before* any state is mutated so retries are safe.
    pub fn set_injector(&mut self, injector: Arc<FaultInjector>) {
        self.injector = Some(injector);
    }

    fn inject(&self, site: &'static str) -> SimResult<()> {
        match &self.injector {
            Some(inj) => inj.inject(site, None),
            None => Ok(()),
        }
    }

    /// The fid's current mutation generation (0 if never mutated).
    pub fn generation(&self, fid: u64) -> u64 {
        self.generations.get(fid)
    }

    /// Invalidate every cached read window of `fid`.
    pub(crate) fn bump_generation(&self, fid: u64) {
        self.generations.bump(fid)
    }

    /// Commit the records of one write call as one splice over `[lo, hi)`
    /// (the full span the records cover). Write-locks the distinct KV
    /// shards owning `[scan_start(lo), hi]` — inclusive of `hi`, where a
    /// right fragment is keyed — in ascending index, each once; removes
    /// every record overlapping `[lo, hi)`; inserts the surviving fragments
    /// and the new records; and refreshes the node buffers, one write lock
    /// and one pass each (the producer's and those of the removed records'
    /// producers). Only then are the locks released, so readers see the
    /// write entirely or not at all. `records` are `(offset, record)` pairs
    /// that must be offset-sorted, mutually disjoint, lie within `[lo, hi)`
    /// and be produced on `producer_node`; each obeys the coalescing cap
    /// `len <= range_size` (the left-widened-scan invariant). With no
    /// records it punches `[lo, hi)`.
    ///
    /// Fails only by fault injection, *before* touching any state, so a
    /// failed commit leaves the index unchanged and is safe to retry. The
    /// fid's generation is bumped after the splice lands.
    pub fn insert_batch(
        &self,
        fid: u64,
        lo: u64,
        hi: u64,
        records: &[(u64, SegmentRecord)],
        producer_node: usize,
    ) -> SimResult<BatchOutcome> {
        self.inject("kv_insert")?;
        let range = self.kv.partitioner().range_size;
        assert_batch_records(range, lo, hi, records);
        self.assert_producer(producer_node, records.iter().map(|(_, r)| r));
        let scan_lo = scan_start(lo, range);
        let mut splice = self.kv.splice(scan_lo, hi);
        let overlapped = splice.take(
            &SegKey {
                fid,
                offset: scan_lo,
            },
            &SegKey { fid, offset: hi },
            |k, v| k.offset.max(lo) < (k.offset + v.len).min(hi),
        );
        let mut displaced = Vec::with_capacity(overlapped.len());
        let mut fragments: Vec<(SegKey, SegmentRecord)> = Vec::new();
        for &(k, v) in &overlapped {
            displaced.push(split_overlapped(k, v, lo, hi, &mut fragments));
        }
        for &(k, frag) in &fragments {
            splice.insert(k, frag);
        }
        for &(offset, record) in records {
            splice.insert(SegKey { fid, offset }, record);
        }
        #[cfg(test)]
        tests::park_hook();
        let node_buffer_acquisitions =
            self.refresh_buffers(fid, &overlapped, &fragments, records, producer_node, 0);
        let locks = CommitStats {
            kv_shard_acquisitions: splice.acquisitions(),
            node_buffer_acquisitions,
        };
        drop(splice);
        self.bump_generation(fid);
        Ok(BatchOutcome { displaced, locks })
    }

    /// The node whose buffer holds `client`'s records.
    fn node_of(&self, client: ClientId) -> usize {
        client.rank as usize / self.procs_per_node
    }

    /// Mutations check their producer node, and that every record they
    /// install was produced there, before taking any lock: a panic under
    /// the KV shard locks would poison them.
    fn assert_producer<'r>(
        &self,
        node: usize,
        mut records: impl Iterator<Item = &'r SegmentRecord>,
    ) {
        assert!(
            node < self.local.len(),
            "producer node {node} outside the job's {} nodes",
            self.local.len()
        );
        assert!(
            records.all(|r| self.node_of(r.client) == node),
            "a record installed on node {node} was produced elsewhere"
        );
    }

    /// The node-buffer pass of an index mutation of `fid`, run while the
    /// mutation's KV shard locks are held: one write lock and one
    /// [`buffer_apply`] for each distinct node among the producer's and
    /// the removed records' producers', ascending — a record is cached
    /// only on its producer's node, so no other buffer can change. The
    /// installed records start at heat `heat`. Returns the node-buffer lock
    /// acquisitions.
    fn refresh_buffers(
        &self,
        fid: u64,
        removed: &[(SegKey, SegmentRecord)],
        fragments: &[(SegKey, SegmentRecord)],
        install: &[(u64, SegmentRecord)],
        producer_node: usize,
        heat: u32,
    ) -> u64 {
        let mut nodes: Vec<usize> = removed
            .iter()
            .map(|(_, r)| self.node_of(r.client))
            .chain([producer_node])
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        for &node in &nodes {
            let mut buffer = self.local[node].write().expect("node buffer poisoned");
            let install = (node == producer_node).then_some(install);
            buffer_apply(&mut buffer, fid, removed, fragments, install, heat);
        }
        nodes.len() as u64
    }

    /// Point lookup of one record (one metadata-server RPC).
    pub fn get(&self, key: &SegKey) -> (ServerId, Option<SegmentRecord>) {
        self.kv.get(key)
    }

    /// Compare-and-swap a record: replace `key`'s value with `new` only if
    /// it still equals `expected`. On success the node buffers are
    /// refreshed by the splice's node-buffer pass — `key` dropped from
    /// `expected`'s producer's buffer, `new` cached on `new`'s with the
    /// heat `expected` had (a relocation moves the bytes, not their
    /// reads) — under the key's shard lock, in the same lock order. The
    /// promotion path uses this so a record overwritten between its read
    /// and its rewrite is left alone.
    pub fn replace_if_current(
        &self,
        key: SegKey,
        expected: &SegmentRecord,
        new: SegmentRecord,
        producer_node: usize,
    ) -> (ServerId, bool) {
        self.assert_producer(producer_node, std::iter::once(&new));
        let (server, swapped) = self.kv.replace_if_eq(&key, expected, new, || {
            let heat = self.heat(key, expected.client);
            self.refresh_buffers(
                key.fid,
                &[(key, *expected)],
                &[],
                &[(key.offset, new)],
                producer_node,
                heat,
            );
        });
        if swapped {
            self.bump_generation(key.fid);
        }
        (server, swapped)
    }

    /// Distributed lookup of all records intersecting `[lo, hi)` of `fid`,
    /// sorted by offset. Returns the metadata servers visited (each visit
    /// is an RPC in the timing plane). Takes only shared shard locks, all of
    /// them before visiting any, so the result is a consistent cut: an
    /// overwrite is in it entirely or not at all. The borrowing scan copies
    /// only the records that actually overlap instead of cloning every
    /// key/value in the scanned span.
    pub fn lookup_range(
        &self,
        fid: u64,
        lo: u64,
        hi: u64,
    ) -> (Vec<ServerId>, Vec<(SegKey, SegmentRecord)>) {
        let scan_lo = scan_start(lo, self.kv.partitioner().range_size);
        let mut records: Vec<(SegKey, SegmentRecord)> = Vec::new();
        let servers = self.kv.for_each_in_range(
            &SegKey {
                fid,
                offset: scan_lo,
            },
            &SegKey { fid, offset: hi },
            scan_lo,
            hi,
            |k, v| {
                if k.fid == fid && k.offset < hi && k.offset + v.len > lo {
                    records.push((*k, *v));
                }
            },
        );
        records.sort_by_key(|(k, _)| *k);
        (servers, records)
    }

    /// [`lookup_range`](Self::lookup_range) through `node`'s read record
    /// cache. A cached window containing `[lo, hi)` whose generation still
    /// matches the fid's answers with **zero** metadata RPCs (a *hit*, the
    /// third return value `true`); otherwise the distributed lookup runs
    /// and the result is installed unless the generation moved while the
    /// lookup was in flight (a racing mutation; the records — a
    /// consistent cut, like every `lookup_range` — are still returned,
    /// they just aren't cached). Hits take only the cache's shared lock; the one
    /// exclusive acquisition on this path is the miss-time install.
    ///
    /// Fails only by fault injection, before touching the cache, so a
    /// failed lookup has no side effects and is safe to retry.
    #[allow(clippy::type_complexity)]
    pub fn lookup_range_cached(
        &self,
        node: usize,
        fid: u64,
        lo: u64,
        hi: u64,
    ) -> SimResult<(Vec<ServerId>, Vec<(SegKey, SegmentRecord)>, bool)> {
        self.inject("kv_lookup")?;
        let gen = self.generation(fid);
        {
            let cache = self.read_cache[node].read().expect("read cache poisoned");
            if let Some(records) = cache_probe(&cache, fid, lo, hi, gen) {
                return Ok((Vec::new(), records, true));
            }
        }
        let (servers, records) = self.lookup_range(fid, lo, hi);
        // Re-check before installing: if a mutation landed (and bumped)
        // while we scanned, the window may mix old and new state — serve
        // it once but never cache it.
        if self.generation(fid) == gen {
            let mut cache = self.read_cache[node].write().expect("read cache poisoned");
            cache_store(&mut cache, fid, lo, hi, gen, records.clone());
        }
        Ok((servers, records, false))
    }

    /// The metadata partition (KV server index) owning logical `offset`.
    pub fn partition_of(&self, offset: u64) -> usize {
        self.kv.partitioner().server_for(offset).0
    }

    /// Covering lookup in `node`'s shared metadata buffer: the records
    /// produced on `node` that tile `[lo, hi)` without a gap, offset-sorted,
    /// or `None` when they leave any byte of it uncovered. No server RPC,
    /// shared lock only.
    pub fn lookup_local(
        &self,
        node: usize,
        fid: u64,
        lo: u64,
        hi: u64,
    ) -> Option<Vec<(SegKey, SegmentRecord)>> {
        let node = self.local[node].read().expect("node buffer poisoned");
        buffer_cover(&node, fid, lo, hi)
    }

    /// Count one read of each `(key, producer, VA)` on the producer's node
    /// buffer, each buffer under its shared lock: an entry is bumped only
    /// while it still holds the record the read was planned from (same
    /// producer and VA), so a read that lost a race with an overwrite or a
    /// relocation heats nothing.
    pub(crate) fn record_reads(
        &self,
        reads: impl IntoIterator<Item = (SegKey, ClientId, VirtualAddr)>,
    ) {
        let mut held = None;
        for (key, client, va) in reads {
            let node = self.node_of(client);
            if held.as_ref().is_none_or(|(n, _)| *n != node) {
                drop(held.take()); // one buffer lock at a time
                held = Some((node, self.local[node].read().expect("node buffer poisoned")));
            }
            let (_, buffer) = held.as_ref().expect("locked above");
            let entry = buffer.get(&key.fid).and_then(|f| f.get(&key.offset));
            if let Some(e) = entry.filter(|e| e.record.client == client && e.record.va == va) {
                e.heat.fetch_add(1, Relaxed);
            }
        }
    }

    /// The read heat of `key`'s record in `client`'s node buffer (0 when
    /// the buffer holds no record at `key`).
    pub(crate) fn heat(&self, key: SegKey, client: ClientId) -> u32 {
        let buffer = self.local[self.node_of(client)]
            .read()
            .expect("node buffer poisoned");
        let entry = buffer.get(&key.fid).and_then(|f| f.get(&key.offset));
        entry.map_or(0, |e| e.heat.load(Relaxed))
    }

    /// The records in `node`'s buffer read at least `min_reads` times (and
    /// at least once), with their heat.
    pub(crate) fn hot(&self, node: usize, min_reads: u32) -> Vec<(SegKey, u32)> {
        let buffer = self.local[node].read().expect("node buffer poisoned");
        let entries = buffer.iter().flat_map(|(&fid, per_fid)| {
            per_fid
                .iter()
                .map(move |(&offset, e)| (SegKey { fid, offset }, e.heat.load(Relaxed)))
        });
        entries.filter(|&(_, n)| n > 0 && n >= min_reads).collect()
    }

    /// Halve every record's heat, one node buffer at a time under its
    /// shared lock (an atomic halving, so no concurrent bump is lost).
    /// Returns the records whose heat was nonzero.
    pub(crate) fn decay_heat(&self) -> u64 {
        let mut decayed = 0;
        for buffer in &self.local {
            let buffer = buffer.read().expect("node buffer poisoned");
            for e in buffer.values().flat_map(|per_fid| per_fid.values()) {
                let halve = |n: u32| (n > 0).then_some(n / 2);
                decayed += e.heat.fetch_update(Relaxed, Relaxed, halve).is_ok() as u64;
            }
        }
        decayed
    }

    /// Per-server record counts (distribution inspection).
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.kv.shard_sizes()
    }

    /// Total records.
    pub fn len(&self) -> usize {
        self.kv.len()
    }

    /// True when no records exist.
    pub fn is_empty(&self) -> bool {
        self.kv.is_empty()
    }

    /// Metadata servers.
    pub fn servers(&self) -> usize {
        self.kv.servers()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::sync::mpsc;
    use std::time::Duration;

    thread_local! {
        /// Run by [`park_hook`] on the thread that installed it.
        static PARK: RefCell<Option<Box<dyn FnMut()>>> = const { RefCell::new(None) };
    }

    /// Park this thread's next `insert_batch` inside its critical section
    /// by running `park` there.
    pub(crate) fn set_park(park: Box<dyn FnMut()>) {
        PARK.with(|p| *p.borrow_mut() = Some(park));
    }

    /// Called by `insert_batch` inside its critical section: KV shards
    /// write-locked and mutated, node buffers not yet refreshed.
    pub(crate) fn park_hook() {
        PARK.with(|p| {
            if let Some(park) = p.borrow_mut().as_mut() {
                park();
            }
        });
    }

    /// Commit one record through `insert_batch` (the test suites' single-
    /// record write), returning the displaced spans.
    pub(crate) fn insert_one(
        m: &MetadataService,
        key: SegKey,
        record: SegmentRecord,
        producer_node: usize,
    ) -> Vec<Displaced> {
        let end = key.offset + record.len;
        m.insert_batch(
            key.fid,
            key.offset,
            end,
            &[(key.offset, record)],
            producer_node,
        )
        .expect("no injector")
        .displaced
    }

    /// Remove every byte of `[lo, hi)` from the index: a splice with no
    /// records.
    fn punch(m: &MetadataService, fid: u64, lo: u64, hi: u64) -> Vec<Displaced> {
        m.insert_batch(fid, lo, hi, &[], 0)
            .expect("no injector")
            .displaced
    }

    /// Bytes of `[lo, hi)` the union of `records` covers.
    fn union_covered(records: &[(SegKey, SegmentRecord)], lo: u64, hi: u64) -> u64 {
        let mut covered = vec![false; (hi - lo) as usize];
        for (k, r) in records {
            for b in k.offset.max(lo)..(k.offset + r.len).min(hi) {
                covered[(b - lo) as usize] = true;
            }
        }
        covered.iter().filter(|c| **c).count() as u64
    }

    fn svc() -> MetadataService {
        MetadataService::new(256, 4, 2, 32)
    }

    fn rec(app: u32, rank: u32, va: u64, len: u64) -> SegmentRecord {
        SegmentRecord::new(ClientId::new(app, rank), VirtualAddr(va), len)
    }

    #[test]
    fn insert_then_lookup() {
        let m = svc();
        insert_one(&m, SegKey { fid: 1, offset: 0 }, rec(0, 0, 0, 100), 0);
        insert_one(
            &m,
            SegKey {
                fid: 1,
                offset: 100,
            },
            rec(0, 32, 0, 100),
            1,
        );
        let (_, records) = m.lookup_range(1, 0, 200);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].0.offset, 0);
        assert_eq!(records[1].1.client.rank, 32);
    }

    #[test]
    fn lookup_is_fid_scoped() {
        let m = svc();
        insert_one(&m, SegKey { fid: 1, offset: 0 }, rec(0, 0, 0, 10), 0);
        insert_one(&m, SegKey { fid: 2, offset: 0 }, rec(0, 1, 0, 10), 0);
        let (_, records) = m.lookup_range(1, 0, 100);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].1.client.rank, 0);
    }

    #[test]
    fn lookup_catches_left_overlapping_record() {
        let m = svc();
        // Record starts at 50, spans into the queried range [100, 150).
        insert_one(&m, SegKey { fid: 1, offset: 50 }, rec(0, 0, 0, 60), 0);
        let (_, records) = m.lookup_range(1, 100, 150);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].0.offset, 50);
    }

    #[test]
    fn exact_overwrite_displaces_whole_record() {
        let m = svc();
        insert_one(&m, SegKey { fid: 1, offset: 0 }, rec(0, 0, 7, 100), 0);
        let displaced = insert_one(&m, SegKey { fid: 1, offset: 0 }, rec(0, 32, 200, 100), 1);
        assert_eq!(
            displaced,
            vec![Displaced {
                client: ClientId::new(0, 0),
                va: VirtualAddr(7),
                len: 100,
                replica: None,
            }]
        );
        let (_, records) = m.lookup_range(1, 0, 100);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].1.client.rank, 32);
    }

    #[test]
    fn partial_overwrite_trims_record() {
        let m = svc();
        // Old record covers [0, 100) at VA 1000.
        insert_one(&m, SegKey { fid: 1, offset: 0 }, rec(0, 0, 1000, 100), 0);
        // New write covers [30, 60).
        let displaced = insert_one(&m, SegKey { fid: 1, offset: 30 }, rec(0, 1, 0, 30), 0);
        assert_eq!(displaced.len(), 1);
        assert_eq!(displaced[0].va, VirtualAddr(1030));
        assert_eq!(displaced[0].len, 30);
        let (_, records) = m.lookup_range(1, 0, 100);
        assert_eq!(records.len(), 3);
        // Left fragment [0, 30) at VA 1000.
        assert_eq!(records[0].0.offset, 0);
        assert_eq!(records[0].1.len, 30);
        assert_eq!(records[0].1.va, VirtualAddr(1000));
        // New record [30, 60).
        assert_eq!(records[1].1.client.rank, 1);
        // Right fragment [60, 100) at VA 1060.
        assert_eq!(records[2].0.offset, 60);
        assert_eq!(records[2].1.va, VirtualAddr(1060));
        assert_eq!(records[2].1.len, 40);
    }

    #[test]
    fn overwrite_spanning_multiple_records() {
        let m = svc();
        for i in 0..4u64 {
            insert_one(
                &m,
                SegKey {
                    fid: 1,
                    offset: i * 50,
                },
                rec(0, i as u32, i * 1000, 50),
                0,
            );
        }
        // Overwrite [25, 175) — trims first and last, removes middles.
        let displaced = insert_one(&m, SegKey { fid: 1, offset: 25 }, rec(1, 0, 0, 150), 0);
        let total_displaced: u64 = displaced.iter().map(|d| d.len).sum();
        assert_eq!(total_displaced, 150);
        let (_, records) = m.lookup_range(1, 0, 200);
        let covered: u64 = records.iter().map(|(_, r)| r.len).sum();
        assert_eq!(covered, 200);
    }

    #[test]
    fn local_buffer_serves_producer_node_records() {
        let m = svc();
        insert_one(&m, SegKey { fid: 1, offset: 0 }, rec(0, 0, 0, 64), 0);
        insert_one(&m, SegKey { fid: 1, offset: 64 }, rec(0, 32, 0, 64), 1);
        // Each node covers only its own production.
        let hits = m.lookup_local(0, 1, 16, 48).expect("node 0 covers [0, 64)");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0.offset, 0);
        let hits = m
            .lookup_local(1, 1, 64, 128)
            .expect("node 1 covers [64, 128)");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0.offset, 64);
        // A request either node covers only in part is answered by neither.
        assert_eq!(m.lookup_local(0, 1, 0, 128), None);
        assert_eq!(m.lookup_local(1, 1, 0, 128), None);
        assert_eq!(m.lookup_local(1, 1, 0, 64), None);
    }

    #[test]
    fn local_buffer_covers_across_adjacent_records_only() {
        let m = svc();
        insert_one(&m, SegKey { fid: 1, offset: 0 }, rec(0, 0, 0, 64), 0);
        insert_one(&m, SegKey { fid: 1, offset: 64 }, rec(0, 1, 0, 64), 0);
        insert_one(
            &m,
            SegKey {
                fid: 1,
                offset: 192,
            },
            rec(0, 1, 64, 64),
            0,
        );
        let hits = m.lookup_local(0, 1, 32, 128).expect("[0, 128) is tiled");
        let keys: Vec<u64> = hits.iter().map(|(k, _)| k.offset).collect();
        assert_eq!(keys, vec![0, 64]);
        // [128, 192) is a gap: any request touching it is uncovered.
        assert_eq!(m.lookup_local(0, 1, 64, 200), None);
        assert_eq!(m.lookup_local(0, 1, 130, 140), None);
        assert_eq!(m.lookup_local(0, 2, 0, 64), None, "untracked fid");
    }

    /// An overwrite's surviving fragments go back only into the buffer that
    /// held their parent record: node 1 tracks the fid (it produced
    /// `[512, 576)`), but node 0's fragments must not appear in its buffer,
    /// or a node-1 read of them would count as served without an RPC.
    #[test]
    fn overwrite_fragments_stay_in_the_parent_records_buffer() {
        let m = svc();
        insert_one(
            &m,
            SegKey {
                fid: 1,
                offset: 512,
            },
            rec(0, 32, 0, 64),
            1,
        );
        insert_one(&m, SegKey { fid: 1, offset: 0 }, rec(0, 0, 0, 128), 0);
        insert_one(&m, SegKey { fid: 1, offset: 32 }, rec(0, 0, 128, 32), 0);
        let held = |node: usize| -> Vec<u64> {
            let buffer = m.local[node].read().unwrap();
            buffer[&1].keys().copied().collect()
        };
        assert_eq!(held(1), vec![512], "node 1 holds only its own record");
        assert_eq!(held(0), vec![0, 32, 64]);
        assert_eq!(m.lookup_local(1, 1, 0, 32), None);
        assert_eq!(m.lookup_local(1, 1, 64, 128), None);
        let hits = m
            .lookup_local(0, 1, 0, 128)
            .expect("node 0 covers [0, 128)");
        assert_eq!(hits.len(), 3);
    }

    /// A record is cached only in its producer's node buffer, so an index
    /// mutation write-locks only the writer's buffer and those of the
    /// removed records' producers: node 0 overwriting its own records on a
    /// 4-node service takes one node-buffer lock, not four, and leaves the
    /// other nodes' buffers as they were.
    #[test]
    fn overwrite_locks_only_the_producers_node_buffers() {
        let m = MetadataService::new(256, 4, 4, 32);
        let locks = |records: &[(u64, SegmentRecord)], node: usize| {
            m.insert_batch(1, 0, 128, records, node)
                .expect("no injector")
                .locks
                .node_buffer_acquisitions
        };
        assert_eq!(locks(&[(0, rec(0, 0, 0, 128))], 0), 1, "fresh write");
        insert_one(
            &m,
            SegKey {
                fid: 1,
                offset: 512,
            },
            rec(0, 64, 0, 64),
            2,
        );
        assert_eq!(locks(&[(0, rec(0, 1, 128, 128))], 0), 1, "own overwrite");
        let held = |node: usize| -> Vec<u64> {
            let buffer = m.local[node].read().unwrap();
            buffer
                .get(&1)
                .map_or(Vec::new(), |f| f.keys().copied().collect())
        };
        assert_eq!(held(0), vec![0]);
        assert_eq!(held(2), vec![512]);
        // Node 3 overwriting node 0's record locks both buffers, once each.
        assert_eq!(
            locks(&[(0, rec(0, 96, 0, 64)), (64, rec(0, 96, 64, 64))], 3),
            2
        );
        assert_eq!(held(0), Vec::<u64>::new());
        assert_eq!(held(3), vec![0, 64]);
        assert_eq!(held(2), vec![512]);
    }

    #[test]
    fn records_distribute_across_servers_round_robin() {
        let m = MetadataService::new(64, 4, 1, 32);
        // 64 segments of 64 bytes → 16 ranges round-robin over 4 servers.
        for i in 0..64u64 {
            insert_one(
                &m,
                SegKey {
                    fid: 1,
                    offset: i * 64,
                },
                rec(0, 0, i * 64, 64),
                0,
            );
        }
        assert_eq!(m.shard_sizes(), vec![16, 16, 16, 16]);
    }

    #[test]
    fn punch_empty_range_is_noop() {
        let m = svc();
        insert_one(&m, SegKey { fid: 1, offset: 0 }, rec(0, 0, 0, 10), 0);
        assert!(punch(&m, 1, 5, 5).is_empty());
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn cached_lookup_hits_without_rpcs_until_invalidated() {
        let m = svc();
        insert_one(&m, SegKey { fid: 1, offset: 0 }, rec(0, 0, 0, 100), 0);
        let (servers, records, hit) = m.lookup_range_cached(0, 1, 0, 100).unwrap();
        assert!(!hit);
        assert!(!servers.is_empty());
        assert_eq!(records.len(), 1);
        // Second identical lookup: served by the cache, zero RPCs.
        let (servers, records, hit) = m.lookup_range_cached(0, 1, 0, 100).unwrap();
        assert!(hit);
        assert!(servers.is_empty());
        assert_eq!(records.len(), 1);
        // A narrower window inside the cached one also hits.
        let (_, records, hit) = m.lookup_range_cached(0, 1, 20, 80).unwrap();
        assert!(hit);
        assert_eq!(records.len(), 1);
        // An overwrite bumps the generation: next lookup misses and sees
        // the new record, never the stale VA.
        insert_one(&m, SegKey { fid: 1, offset: 0 }, rec(0, 1, 500, 100), 0);
        let (_, records, hit) = m.lookup_range_cached(0, 1, 0, 100).unwrap();
        assert!(!hit, "overwrite must invalidate the cached window");
        assert_eq!(records[0].1.va, VirtualAddr(500));
        // …and the fresh result is cached again.
        let (_, _, hit) = m.lookup_range_cached(0, 1, 0, 100).unwrap();
        assert!(hit);
    }

    #[test]
    fn punch_and_cas_invalidate_cached_windows() {
        let m = svc();
        let old = rec(0, 0, 0, 64);
        insert_one(&m, SegKey { fid: 1, offset: 0 }, old, 0);
        m.lookup_range_cached(0, 1, 0, 64).unwrap();
        punch(&m, 1, 0, 32);
        let (_, records, hit) = m.lookup_range_cached(0, 1, 0, 64).unwrap();
        assert!(!hit);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].0.offset, 32);
        let trimmed = records[0].1;
        m.lookup_range_cached(0, 1, 0, 64).unwrap();
        let promoted = rec(0, 0, 900, 32);
        assert!(
            m.replace_if_current(SegKey { fid: 1, offset: 32 }, &trimmed, promoted, 0)
                .1
        );
        let (_, records, hit) = m.lookup_range_cached(0, 1, 0, 64).unwrap();
        assert!(!hit, "CAS must invalidate the cached window");
        assert_eq!(records[0].1.va, VirtualAddr(900));
    }

    #[test]
    fn cache_windows_are_per_node_and_capped() {
        let m = svc();
        insert_one(&m, SegKey { fid: 1, offset: 0 }, rec(0, 0, 0, 10), 0);
        m.lookup_range_cached(0, 1, 0, 10).unwrap();
        // Node 1 has its own cache: same window misses there.
        let (_, _, hit) = m.lookup_range_cached(1, 1, 0, 10).unwrap();
        assert!(!hit);
        // Overflowing the per-fid cap clears the node's windows instead of
        // growing without bound; disjoint windows past the first entry's
        // end each miss and install, eventually tripping the clear.
        for i in 0..(READ_CACHE_WINDOWS_PER_FID as u64 + 4) {
            let lo = 1000 + i;
            m.lookup_range_cached(0, 1, lo, lo + 1).unwrap();
        }
        let (_, _, hit) = m.lookup_range_cached(0, 1, 0, 10).unwrap();
        assert!(!hit, "the original window should have been evicted");
    }

    #[test]
    fn partition_of_matches_round_robin_ranges() {
        let m = MetadataService::new(64, 4, 1, 32);
        assert_eq!(m.partition_of(0), 0);
        assert_eq!(m.partition_of(63), 0);
        assert_eq!(m.partition_of(64), 1);
        assert_eq!(m.partition_of(64 * 4), 0);
    }

    /// `n` reads of `key`'s record `r`.
    fn read_n(m: &MetadataService, key: SegKey, r: SegmentRecord, n: usize) {
        m.record_reads((0..n).map(|_| (key, r.client, r.va)));
    }

    /// A read planned from a record that an overwrite replaced before the
    /// read's heat landed heats nothing: the key's new record stays cold.
    #[test]
    fn a_bump_carrying_a_stale_record_leaves_the_new_record_cold() {
        let m = svc();
        let key = SegKey { fid: 1, offset: 0 };
        let (old, new) = (rec(0, 0, 0, 64), rec(0, 1, 64, 64));
        insert_one(&m, key, old, 0);
        read_n(&m, key, old, 2);
        assert_eq!(m.heat(key, old.client), 2);
        insert_one(&m, key, new, 0);
        read_n(&m, key, old, 3);
        assert_eq!(m.heat(key, new.client), 0);
        read_n(&m, key, new, 1);
        assert_eq!(m.heat(key, new.client), 1);
    }

    /// An overwrite of a record's tail leaves its left fragment under the
    /// same key with the record's heat; the right fragment of an overwrite
    /// inside a record is a new key and starts cold.
    #[test]
    fn a_left_fragment_keeps_its_parents_heat() {
        let m = svc();
        let key = |offset| SegKey { fid: 1, offset };
        let parent = rec(0, 0, 1000, 100);
        insert_one(&m, key(0), parent, 0);
        read_n(&m, key(0), parent, 4);
        insert_one(&m, key(30), rec(0, 1, 0, 30), 0);
        let (_, left) = m.get(&key(0));
        assert_eq!(left.map(|r| r.len), Some(30));
        assert_eq!(m.heat(key(0), parent.client), 4);
        assert_eq!(m.heat(key(30), ClientId::new(0, 1)), 0, "the new record");
        assert_eq!(m.heat(key(60), parent.client), 0, "the right fragment");
        // The fragment keeps the parent's VA, so a read planned from the
        // parent still lands on it.
        read_n(&m, key(0), parent, 1);
        assert_eq!(m.heat(key(0), parent.client), 5);
    }

    /// A relocation keeps the record's reads, on the same node and when it
    /// moves the primary to another node's producer.
    #[test]
    fn a_relocation_carries_heat() {
        let m = svc();
        let key = SegKey { fid: 1, offset: 0 };
        let old = rec(0, 0, 0, 64);
        insert_one(&m, key, old, 0);
        read_n(&m, key, old, 3);
        let moved = rec(0, 0, 4096, 64);
        assert!(m.replace_if_current(key, &old, moved, 0).1);
        assert_eq!(m.heat(key, moved.client), 3);
        let elsewhere = rec(0, 32, 0, 64);
        assert!(m.replace_if_current(key, &moved, elsewhere, 1).1);
        assert_eq!(m.heat(key, elsewhere.client), 3);
        assert_eq!(m.heat(key, moved.client), 0, "node 0 holds it no more");
        assert_eq!(m.hot(1, 3), vec![(key, 3)]);
    }

    #[test]
    fn replace_if_current_is_a_cas() {
        let m = svc();
        let old = rec(0, 0, 0, 64);
        insert_one(&m, SegKey { fid: 1, offset: 0 }, old, 0);
        let new = rec(0, 0, 4096, 64);
        assert!(
            m.replace_if_current(SegKey { fid: 1, offset: 0 }, &old, new, 0)
                .1
        );
        // Stale expectation no longer matches.
        assert!(
            !m.replace_if_current(SegKey { fid: 1, offset: 0 }, &old, new, 0)
                .1
        );
        let (_, got) = m.get(&SegKey { fid: 1, offset: 0 });
        assert_eq!(got, Some(new));
    }

    /// An overwrite is atomic to readers. The writer parks inside its
    /// splice over a 512-byte window spanning two partitions; readers on
    /// other threads — `lookup_range` and the read's gather (the node
    /// buffer's covering answer, else the cached distributed lookup alone),
    /// from the producer's node and from the other one — must see the
    /// window fully covered, by the old records or by the new ones.
    #[test]
    fn parked_overwrite_is_invisible_to_readers() {
        let m = MetadataService::new(256, 2, 2, 32);
        let old = [(0, rec(0, 0, 0, 256)), (256, rec(0, 0, 256, 256))];
        m.insert_batch(1, 0, 512, &old, 0).unwrap();
        let new = [(0, rec(0, 1, 1000, 256)), (256, rec(0, 1, 1256, 256))];
        let (parked_tx, parked_rx) = mpsc::channel();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let seen = std::thread::scope(|s| {
            s.spawn(|| {
                set_park(Box::new(move || {
                    parked_tx.send(()).unwrap();
                    go_rx.recv().unwrap();
                }));
                m.insert_batch(1, 0, 512, &new, 0).unwrap();
            });
            parked_rx.recv().unwrap();
            let (done_tx, done_rx) = mpsc::channel();
            let readers: Vec<_> = (0..2usize)
                .map(|node| {
                    let (m, done_tx) = (&m, done_tx.clone());
                    s.spawn(move || {
                        let (_, records) = m.lookup_range(1, 0, 512);
                        let gathered = match m.lookup_local(node, 1, 0, 512) {
                            Some(local) => local,
                            None => m.lookup_range_cached(node, 1, 0, 512).unwrap().1,
                        };
                        done_tx.send(()).unwrap();
                        (
                            node,
                            union_covered(&records, 0, 512),
                            union_covered(&gathered, 0, 512),
                        )
                    })
                })
                .collect();
            // Readers that are not held off finish well within this.
            for _ in 0..2 {
                if done_rx.recv_timeout(Duration::from_millis(200)).is_err() {
                    break;
                }
            }
            go_tx.send(()).unwrap();
            readers
                .into_iter()
                .map(|r| r.join().unwrap())
                .collect::<Vec<_>>()
        });
        for (node, lookup, gather) in &seen {
            println!(
                "node {node}: lookup_range covered {lookup} of 512 bytes, the gather {gather}"
            );
        }
        assert!(
            seen.iter()
                .all(|&(_, lookup, gather)| lookup == 512 && gather == 512),
            "a reader saw a hole in a fully written window: {seen:?}"
        );
    }
}
