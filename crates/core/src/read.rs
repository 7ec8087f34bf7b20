//! Read service: naive vs. location-aware (§II-B4), with a batched
//! fetch pipeline.
//!
//! The baseline read path directs every request to the UniviStor server
//! co-located with the requester, which looks up the metadata and either
//! serves locally-held data (costing an extra memory copy through the
//! server) or forwards to the remote server holding the segment (at least
//! one network round trip).
//!
//! The location-aware service removes both overheads:
//! * the requester first consults its node's **shared metadata buffer**;
//!   locally produced segments are read straight out of node-local
//!   storage — no server hop, no extra copy;
//! * for the rest, the *client* retrieves the metadata records itself and
//!   fetches segments that live on globally visible layers (shared burst
//!   buffer, PFS) directly, without bouncing through the producers'
//!   servers.
//!
//! [`ReadService`] executes one request in four stages:
//! 1. **gather** the covering metadata records from one source: the node
//!    buffer when its records tile the whole request, else the distributed
//!    KV through the node's read record cache;
//! 2. **plan** every clipped fragment up front, resolving replica
//!    rerouting around failed nodes in the plan;
//! 3. **fetch** the fragments, grouped by producer chain: one fetch
//!    round-trip per group (a per-fragment reference fetch lives with the
//!    test oracles, `server::oracle`);
//! 4. **assemble** the payload in logical order and classify each
//!    fragment for the timing plane.
//!
//! The service reads through the locked core's view (`CoreView`), the
//! same one the flush engine drains through: the gather stage is
//! [`MetadataService::lookup_local`] or else
//! [`MetadataService::lookup_range_cached`], a fetch one shared chain-lock
//! acquisition ([`ChainSet::read_at_many`]). Both runtimes run this one
//! service; they differ only in which thread calls it.

use crate::config::JobGeometry;
use crate::flush::CoreView;
use crate::integrity::{verified_clip, StampedFetch, Verifier};
use crate::metadata::{ClientId, MetadataService, SegKey, SegmentRecord};
use crate::metrics::{JobMetrics, VerifySite};
use crate::placement::ChainSet;
use crate::scrub::CorruptQueue;
use crate::va::{Tier, VirtualAddr};
use std::collections::HashSet;
use univistor_sim::{Payload, SimError, SimResult};

/// Byte/RPC accounting of one (or many aggregated) read operations — the
/// input of the timing plane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadTrace {
    /// Bytes served from node-local storage with no server involvement
    /// (location-aware fast path).
    pub local_direct_bytes: u64,
    /// Bytes served from node-local storage *through* the co-located
    /// server (naive path: same data, plus a copy through the server).
    pub local_via_server_bytes: u64,
    /// Bytes fetched by the client directly from the shared burst buffer.
    pub shared_direct_bytes: u64,
    /// Bytes fetched by the client directly from its per-process PFS logs
    /// (globally visible through the PFS mount).
    pub pfs_direct_bytes: u64,
    /// Bytes that crossed the network via a remote server round trip.
    pub remote_bytes: u64,
    /// Metadata RPCs issued (distributed KV server visits).
    pub md_rpcs: u64,
    /// Metadata records served by the node's shared metadata buffer alone
    /// — reads whose lookup never left the node (location-aware path
    /// only).
    pub local_md_hits: u64,
    /// Read requests planned.
    pub requests: u64,
    /// Bytes served from resilience replicas because the primary's node
    /// had failed.
    pub replica_bytes: u64,
    /// Distributed lookups answered by the node's read record cache —
    /// no metadata RPC issued (location-aware path only).
    pub md_cache_hits: u64,
    /// Distributed lookups that missed the cache and visited the KV
    /// servers.
    pub md_cache_misses: u64,
}

impl ReadTrace {
    /// Total bytes delivered.
    pub fn total_bytes(&self) -> u64 {
        self.local_direct_bytes
            + self.local_via_server_bytes
            + self.shared_direct_bytes
            + self.pfs_direct_bytes
            + self.remote_bytes
    }

    /// Accumulate another trace.
    pub fn absorb(&mut self, other: &ReadTrace) {
        self.local_direct_bytes += other.local_direct_bytes;
        self.local_via_server_bytes += other.local_via_server_bytes;
        self.shared_direct_bytes += other.shared_direct_bytes;
        self.pfs_direct_bytes += other.pfs_direct_bytes;
        self.remote_bytes += other.remote_bytes;
        self.md_rpcs += other.md_rpcs;
        self.local_md_hits += other.local_md_hits;
        self.requests += other.requests;
        self.replica_bytes += other.replica_bytes;
        self.md_cache_hits += other.md_cache_hits;
        self.md_cache_misses += other.md_cache_misses;
    }
}

/// Lock-acquisition accounting of one read call. Kept out of
/// [`ReadTrace`] because the grouped fetch and the per-fragment reference
/// legitimately differ here while their traces must stay identical; feeds
/// `univistor_read_lock_acquisitions_total`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadLockCounts {
    /// Fetch round-trips: one per fragment on the per-record path, one
    /// per producer group on the batched path, plus one per alternate-copy
    /// refetch. Each is a shared chain-lock acquisition.
    pub chain: u64,
}

/// Everything one read call produced: the assembled bytes, the timing
/// plane's accounting, the metadata keys touched (for access-pattern
/// tracking), and the lock costs.
#[derive(Debug)]
pub struct ReadOutcome {
    /// The assembled payload, exactly `len` bytes.
    pub payload: Payload,
    /// Byte/RPC accounting.
    pub trace: ReadTrace,
    /// Metadata keys of every record a fragment was read from.
    pub touched: Vec<SegKey>,
    /// Lock acquisitions spent fetching.
    pub locks: ReadLockCounts,
}

/// One clipped fragment of the read plan: `len` bytes at `va` of
/// `source`'s chain (the replica owner when the primary's node failed —
/// rerouting is resolved at plan time, not per fetch). Carries enough of
/// its record for the integrity plane: the write-commit stamp, the
/// record-base span (the stamp digests the whole record, so only the
/// *whole* record can be verified — stamped fragments fetch the full span
/// and clip after the verify), and the alternate copy a verify failure
/// reroutes to.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fragment {
    pub(crate) source: ClientId,
    va: VirtualAddr,
    len: u64,
    /// Write-commit stamp of the whole record this clip came from;
    /// `None` (unstamped overwrite fragment, or checksums disabled)
    /// keeps the legacy clip-only fetch.
    checksum: Option<u64>,
    /// Record-base VA on `source`'s chain and the record's full length —
    /// the span actually fetched when stamped.
    rec_va: VirtualAddr,
    rec_len: u64,
    /// The other copy of the record (record-base VA) when one exists on
    /// a healthy node: the reroute target after a verify failure.
    alternate: Option<(ClientId, VirtualAddr)>,
    /// Metadata key of the record (repair enqueue) and the clip's
    /// logical file offset (error context).
    key: SegKey,
    logical: u64,
}

/// The span to request for `f`: the full record when stamped (so the
/// fetch can be verified), the clip alone otherwise.
pub(crate) fn fetch_span(f: &Fragment) -> (VirtualAddr, u64) {
    match f.checksum {
        Some(_) => (f.rec_va, f.rec_len),
        None => (f.va, f.len),
    }
}

/// Finish one fetched fragment through the shared integrity ladder
/// ([`verified_clip`]): verify stamped records against their write-commit
/// stamp, clip the requested window back out, and on a verify failure
/// reroute to the alternate copy — enqueueing every bad copy for online
/// repair. The caller never sees wrong bytes: the result is a verified
/// clip, or [`SimError::Integrity`] when no clean copy of the record
/// exists.
fn finish_fragment(
    f: &Fragment,
    payload: Payload,
    tier: Tier,
    refetch: &mut dyn FnMut(ClientId, VirtualAddr, u64) -> SimResult<(Payload, Tier)>,
    verifier: &Verifier,
    metrics: Option<&JobMetrics>,
    queue: Option<&CorruptQueue>,
) -> SimResult<(Payload, Tier)> {
    let Some(sum) = f.checksum else {
        return Ok((payload, tier));
    };
    verified_clip(
        StampedFetch {
            site: VerifySite::Read,
            error_site: "read_fetch",
            error_offset: f.logical,
            sum,
            rec_len: f.rec_len,
            clip_off: f.va.0 - f.rec_va.0,
            clip_len: f.len,
            source: (f.source, f.rec_va),
            payload,
            tier,
            verifier,
            metrics,
            report_to: queue.map(|q| (q, f.key)),
        },
        || f.alternate,
        refetch,
    )
}

/// Stage 2: clip every record to the requested window, verify there are no
/// holes, and resolve replica rerouting around failed nodes — the full fetch
/// plan, before any chain is touched.
fn plan_fragments(
    geometry: &JobGeometry,
    failed: &HashSet<usize>,
    records: &[(SegKey, SegmentRecord)],
    offset: u64,
    end: u64,
    trace: &mut ReadTrace,
) -> SimResult<(Vec<Fragment>, Vec<SegKey>)> {
    let mut fragments = Vec::with_capacity(records.len());
    let mut touched = Vec::with_capacity(records.len());
    let mut cursor = offset;
    for &(k, r) in records {
        let seg_end = k.offset + r.len;
        if seg_end <= cursor || k.offset >= end {
            continue;
        }
        if k.offset > cursor {
            return Err(SimError::Hole {
                offset: cursor,
                len: k.offset - cursor,
            });
        }
        let clip_lo = cursor.max(k.offset);
        let clip_hi = end.min(seg_end);
        let clip_len = clip_hi - clip_lo;
        touched.push(k);

        // Route around failed producers using the resilience replica.
        let primary_node = geometry.node_of_rank(r.client.rank as usize);
        let (source, rec_va, alternate) = if failed.contains(&primary_node) {
            let (rc, rva) = r.replica.ok_or_else(|| {
                SimError::InvalidConfig(format!(
                    "segment at offset {} lost: node {primary_node} failed and no replica",
                    k.offset
                ))
            })?;
            let replica_node = geometry.node_of_rank(rc.rank as usize);
            if failed.contains(&replica_node) {
                return Err(SimError::InvalidConfig(format!(
                    "segment at offset {} lost: primary and replica nodes both failed",
                    k.offset
                )));
            }
            trace.replica_bytes += clip_len;
            // The primary is on a failed node — a verify failure here has
            // nowhere healthy to reroute to.
            (rc, rva, None)
        } else {
            let alt = r
                .replica
                .filter(|&(rc, _)| !failed.contains(&geometry.node_of_rank(rc.rank as usize)));
            (r.client, r.va, alt)
        };
        fragments.push(Fragment {
            source,
            va: VirtualAddr(rec_va.0 + (clip_lo - k.offset)),
            len: clip_len,
            checksum: r.checksum,
            rec_va,
            rec_len: r.len,
            alternate,
            key: k,
            logical: clip_lo,
        });
        cursor = clip_hi;
    }
    if cursor < end {
        return Err(SimError::Hole {
            offset: cursor,
            len: end - cursor,
        });
    }
    Ok((fragments, touched))
}

/// Stage 4 helper: attribute one fetched fragment to its timing-plane
/// bucket.
fn classify_fragment(
    geometry: &JobGeometry,
    location_aware: bool,
    fragment: &Fragment,
    tier: Tier,
    my_node: usize,
    trace: &mut ReadTrace,
) {
    let producer_node = geometry.node_of_rank(fragment.source.rank as usize);
    if tier.node_local() {
        if producer_node == my_node {
            if location_aware {
                trace.local_direct_bytes += fragment.len;
            } else {
                trace.local_via_server_bytes += fragment.len;
            }
        } else {
            trace.remote_bytes += fragment.len;
        }
    } else if location_aware {
        if tier == Tier::Pfs {
            trace.pfs_direct_bytes += fragment.len;
        } else {
            trace.shared_direct_bytes += fragment.len;
        }
    } else {
        // Naive: even globally visible data bounces via servers.
        trace.remote_bytes += fragment.len;
    }
}

/// The read path's execution context: borrow the job's shared structures
/// once, then serve any number of requests through [`read`](Self::read).
///
/// The whole path takes only shared locks (metadata shards, node buffers,
/// read caches, producer chains) except the one exclusive node-cache
/// acquisition a cache *miss* pays to install its window — cache hits
/// never write. Concurrent readers never serialize on each other.
#[derive(Debug, Clone, Copy)]
pub struct ReadService<'a> {
    source: CoreView<'a>,
    geometry: &'a JobGeometry,
    location_aware: bool,
    failed_nodes: Option<&'a HashSet<usize>>,
    verifier: &'a Verifier,
    metrics: Option<&'a JobMetrics>,
    corrupt_queue: Option<&'a CorruptQueue>,
}

impl<'a> ReadService<'a> {
    /// A service over the job's metadata, chains, and geometry, verifying
    /// stamped records through `verifier`. Defaults: location-aware, no
    /// failed nodes.
    pub fn new(
        metadata: &'a MetadataService,
        chains: &'a ChainSet,
        geometry: &'a JobGeometry,
        verifier: &'a Verifier,
    ) -> Self {
        Self::over(CoreView { metadata, chains }, geometry, verifier)
    }

    /// A service reading through `source`, with [`new`](ReadService::new)'s
    /// defaults.
    pub(crate) fn over(
        source: CoreView<'a>,
        geometry: &'a JobGeometry,
        verifier: &'a Verifier,
    ) -> Self {
        ReadService {
            source,
            geometry,
            location_aware: true,
            failed_nodes: None,
            verifier,
            metrics: None,
            corrupt_queue: None,
        }
    }

    /// Attach the integrity plane: verify failures are counted on
    /// `metrics` and bad copies enqueued on `queue` for online repair.
    /// Verification itself is driven by the per-record stamps
    /// ([`SegmentRecord::checksum`]); unstamped records skip it.
    pub(crate) fn with_integrity(
        mut self,
        metrics: Option<&'a JobMetrics>,
        queue: Option<&'a CorruptQueue>,
    ) -> Self {
        self.metrics = metrics;
        self.corrupt_queue = queue;
        self
    }

    /// Toggle the location-aware path (§II-B4). The naive path performs
    /// a raw distributed lookup per request — no node buffer, no cache —
    /// exactly the baseline the figures ablate.
    pub fn location_aware(mut self, aware: bool) -> Self {
        self.location_aware = aware;
        self
    }

    /// Route around these failed nodes via resilience replicas.
    pub fn with_failed_nodes(mut self, failed: &'a HashSet<usize>) -> Self {
        self.failed_nodes = Some(failed);
        self
    }

    /// Plan and execute one read of `[offset, offset + len)` from `fid`
    /// on behalf of `client`.
    pub fn read(
        &self,
        client: ClientId,
        fid: u64,
        offset: u64,
        len: u64,
    ) -> SimResult<ReadOutcome> {
        self.read_with(client, fid, offset, len, |fragments, locks| {
            self.fetch_batched(fragments, locks)
        })
    }

    /// [`read`](Self::read) with the fetch stage supplied by the caller
    /// (every other stage is this service's) — the seam the per-fragment
    /// reference fetch of the differential tests plugs into.
    pub(crate) fn read_with(
        &self,
        client: ClientId,
        fid: u64,
        offset: u64,
        len: u64,
        fetch: impl FnOnce(&[Fragment], &mut ReadLockCounts) -> SimResult<Vec<(Payload, Tier)>>,
    ) -> SimResult<ReadOutcome> {
        let mut trace = ReadTrace {
            requests: 1,
            ..ReadTrace::default()
        };
        let mut locks = ReadLockCounts::default();
        if len == 0 {
            return Ok(ReadOutcome {
                payload: Payload::empty(),
                trace,
                touched: Vec::new(),
                locks,
            });
        }
        let my_node = self.geometry.node_of_rank(client.rank as usize);
        let end = offset + len;

        let records = self.gather_records(my_node, fid, offset, end, &mut trace)?;
        let no_failures = HashSet::new();
        let failed = self.failed_nodes.unwrap_or(&no_failures);
        let (fragments, touched) =
            plan_fragments(self.geometry, failed, &records, offset, end, &mut trace)?;
        let fetched = fetch(&fragments, &mut locks)?;

        let mut parts = Vec::with_capacity(fetched.len());
        for (fragment, (payload, tier)) in fragments.iter().zip(fetched) {
            let (payload, tier) = finish_fragment(
                fragment,
                payload,
                tier,
                &mut |alt_client, alt_va, alt_len| {
                    locks.chain += 1;
                    let mut got = self.source.read_spans(alt_client, &[(alt_va, alt_len)])?;
                    Ok(got.pop().expect("one span requested"))
                },
                self.verifier,
                self.metrics,
                self.corrupt_queue,
            )?;
            classify_fragment(
                self.geometry,
                self.location_aware,
                fragment,
                tier,
                my_node,
                &mut trace,
            );
            parts.push(payload);
        }
        Ok(ReadOutcome {
            payload: Payload::chain(parts),
            trace,
            touched,
            locks,
        })
    }

    /// Stage 1: the records covering `[offset, end)`, offset-sorted, from
    /// one source: the node buffer when its records tile the request,
    /// else the distributed lookup through the node's read record cache —
    /// one consistent cut of the index, never joined with the buffer's
    /// (a splice landing between the two lookups could make the join's
    /// tilings disagree). Shared between the fetch flavours and the
    /// sources, so every [`ReadTrace`] field it feeds (RPCs, buffer/cache
    /// hits) is invariant across them. Fallible only under fault injection
    /// (the cached distributed lookup can fail transiently before touching
    /// any state).
    fn gather_records(
        &self,
        my_node: usize,
        fid: u64,
        offset: u64,
        end: u64,
        trace: &mut ReadTrace,
    ) -> SimResult<Vec<(SegKey, SegmentRecord)>> {
        if !self.location_aware {
            // Naive path: the co-located server performs a raw
            // distributed lookup on the client's behalf (offset-sorted by
            // the source).
            let (servers, records) = self.source.records(fid, offset, end);
            trace.md_rpcs += servers as u64;
            return Ok(records);
        }
        let metadata = self.source.metadata;
        if let Some(local) = metadata.lookup_local(my_node, fid, offset, end) {
            trace.local_md_hits += local.len() as u64;
            return Ok(local);
        }
        let (servers, records, cache_hit) =
            metadata.lookup_range_cached(my_node, fid, offset, end)?;
        trace.md_rpcs += servers.len() as u64;
        if cache_hit {
            trace.md_cache_hits += 1;
        } else {
            trace.md_cache_misses += 1;
        }
        Ok(records)
    }

    /// Stage 3: group fragments by producer chain (first
    /// appearance order) and fetch each group in one round-trip. Payloads
    /// come back in plan order regardless.
    fn fetch_batched(
        &self,
        fragments: &[Fragment],
        locks: &mut ReadLockCounts,
    ) -> SimResult<Vec<(Payload, Tier)>> {
        // Group fragments by producer with a counting sort. Reads span a
        // handful of producers, so a linear probe over a small vec beats
        // hashing, and the flat slot buffer avoids per-group Vecs.
        let n = fragments.len();
        let mut groups: Vec<(ClientId, u32)> = Vec::new();
        let mut group_of: Vec<u32> = Vec::with_capacity(n);
        for f in fragments {
            let g = match groups.iter().position(|&(source, _)| source == f.source) {
                Some(g) => {
                    groups[g].1 += 1;
                    g
                }
                None => {
                    groups.push((f.source, 1));
                    groups.len() - 1
                }
            };
            group_of.push(g as u32);
        }
        if let [(source, _)] = groups[..] {
            // Single producer: the plan order is already the group order.
            let requests: Vec<(VirtualAddr, u64)> = fragments.iter().map(fetch_span).collect();
            let fetched = self.source.read_spans(source, &requests)?;
            locks.chain += 1;
            return Ok(fetched);
        }
        // Prefix sums give each group a slot range in the flat buffer.
        let mut next: Vec<u32> = Vec::with_capacity(groups.len());
        let mut acc = 0u32;
        for &(_, count) in &groups {
            next.push(acc);
            acc += count;
        }
        let mut slot: Vec<u32> = Vec::with_capacity(n);
        let mut requests: Vec<(VirtualAddr, u64)> = vec![(VirtualAddr(0), 0); n];
        for (f, &g) in fragments.iter().zip(&group_of) {
            let s = next[g as usize];
            next[g as usize] = s + 1;
            requests[s as usize] = fetch_span(f);
            slot.push(s);
        }
        // One fetch round-trip per producer group.
        let mut grouped: Vec<Option<(Payload, Tier)>> = Vec::with_capacity(n);
        let mut start = 0usize;
        for &(source, count) in &groups {
            let end = start + count as usize;
            grouped.extend(
                self.source
                    .read_spans(source, &requests[start..end])?
                    .into_iter()
                    .map(Some),
            );
            locks.chain += 1;
            start = end;
        }
        // Restore plan order.
        let mut fetched = Vec::with_capacity(n);
        for &s in &slot {
            fetched.push(grouped[s as usize].take().expect("each slot taken once"));
        }
        Ok(fetched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::tests::{insert_one, set_park};
    use crate::placement::PlacedSegment;

    /// Two nodes × two clients each; tiny tiers: 128 B DRAM log, 128 B BB
    /// log, then PFS. Chunk = 64 B, segments = 64 B.
    fn setup() -> (MetadataService, ChainSet, JobGeometry) {
        let geometry = JobGeometry {
            nodes: 2,
            procs_per_node: 2,
            servers_per_node: 1,
        };
        let metadata = MetadataService::new(256, 2, 2, 2);
        let chains = ChainSet::new();
        for rank in 0..4u32 {
            let caps = vec![
                (Tier::Dram, 128),
                (Tier::SharedBurstBuffer, 128),
                (Tier::Pfs, u64::MAX),
            ];
            let chain = || crate::placement::ProcChain::new(caps, 64);
            chains.ensure(ClientId::new(0, rank), chain).unwrap();
        }
        (metadata, chains, geometry)
    }

    /// Writer helper: client writes `n` 64-byte segments of a shared file,
    /// at logical offset = (rank * n + i) * 64.
    fn write_segments(
        metadata: &MetadataService,
        chains: &ChainSet,
        geometry: &JobGeometry,
        client: ClientId,
        n: u64,
    ) {
        for i in 0..n {
            let logical = (client.rank as u64 * n + i) * 64;
            let seed = logical; // deterministic content per offset
            let placed: PlacedSegment = chains.append(client, Payload::pattern(seed, 64)).unwrap();
            insert_one(
                metadata,
                SegKey {
                    fid: 1,
                    offset: logical,
                },
                SegmentRecord::new(client, placed.va, 64),
                geometry.node_of_rank(client.rank as usize),
            );
        }
    }

    fn svc<'a>(
        md: &'a MetadataService,
        chains: &'a ChainSet,
        geom: &'a JobGeometry,
        aware: bool,
    ) -> ReadService<'a> {
        // The records here are unstamped, so the verifier is never asked.
        static VERIFIER: std::sync::LazyLock<Verifier> =
            std::sync::LazyLock::new(Verifier::default);
        ReadService::new(md, chains, geom, &VERIFIER).location_aware(aware)
    }

    /// `service`'s read of `[offset, offset + len)` by client 0 of fid 1,
    /// fetching per record (the test oracle) or grouped (the product).
    fn read_via(
        per_record: bool,
        service: &ReadService<'_>,
        offset: u64,
        len: u64,
    ) -> SimResult<ReadOutcome> {
        let client = ClientId::new(0, 0);
        if per_record {
            service.read_with(client, 1, offset, len, |fragments, locks| {
                crate::server::oracle::fetch_per_record(service.source, fragments, locks)
            })
        } else {
            service.read(client, 1, offset, len)
        }
    }

    #[test]
    fn full_file_reads_back_exactly() {
        let (md, chains, geom) = setup();
        for rank in 0..4 {
            write_segments(&md, &chains, &geom, ClientId::new(0, rank), 4);
        }
        for aware in [false, true] {
            for per_record in [true, false] {
                let service = svc(&md, &chains, &geom, aware);
                let out = read_via(per_record, &service, 0, 16 * 64).unwrap();
                assert_eq!(out.payload.len(), 16 * 64);
                assert_eq!(out.trace.total_bytes(), 16 * 64);
                for s in 0..16u64 {
                    let expect = Payload::pattern(s * 64, 64);
                    assert!(
                        out.payload.slice(s * 64, 64).content_eq(&expect),
                        "segment {s} corrupt (aware={aware}, per_record={per_record})"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_groups_chain_locks_per_producer() {
        // One fresh world per fetch so cache state matches too (within
        // one world, the first read would warm the cache for the second).
        let run = |per_record: bool| {
            let (md, chains, geom) = setup();
            for rank in 0..4 {
                write_segments(&md, &chains, &geom, ClientId::new(0, rank), 4);
            }
            read_via(per_record, &svc(&md, &chains, &geom, true), 0, 16 * 64).unwrap()
        };
        let per_record = run(true);
        let batched = run(false);
        // 16 fragments from 4 producers: 16 acquisitions per-record,
        // 4 batched.
        assert_eq!(per_record.locks.chain, 16);
        assert_eq!(batched.locks.chain, 4);
        // Everything else is fetch-invariant.
        assert!(batched.payload.content_eq(&per_record.payload));
        assert_eq!(batched.trace, per_record.trace);
        assert_eq!(batched.touched, per_record.touched);
    }

    #[test]
    fn location_aware_serves_local_data_without_rpcs() {
        let (md, chains, geom) = setup();
        // Client 0 writes 2 segments, all on its DRAM log.
        write_segments(&md, &chains, &geom, ClientId::new(0, 0), 2);
        let out = svc(&md, &chains, &geom, true)
            .read(ClientId::new(0, 0), 1, 0, 128)
            .unwrap();
        assert_eq!(out.trace.local_direct_bytes, 128);
        assert_eq!(
            out.trace.md_rpcs, 0,
            "local metadata buffer should cover this"
        );
        assert_eq!(out.trace.remote_bytes, 0);
    }

    #[test]
    fn naive_pays_server_copy_for_local_data() {
        let (md, chains, geom) = setup();
        write_segments(&md, &chains, &geom, ClientId::new(0, 0), 2);
        let out = svc(&md, &chains, &geom, false)
            .read(ClientId::new(0, 0), 1, 0, 128)
            .unwrap();
        assert_eq!(out.trace.local_via_server_bytes, 128);
        assert!(out.trace.md_rpcs > 0);
        // The naive path never touches the read record cache.
        assert_eq!(out.trace.md_cache_hits + out.trace.md_cache_misses, 0);
    }

    #[test]
    fn same_node_neighbor_counts_as_local() {
        let (md, chains, geom) = setup();
        // Rank 1 (node 0) writes; rank 0 (node 0) reads.
        write_segments(&md, &chains, &geom, ClientId::new(0, 1), 2);
        let out = svc(&md, &chains, &geom, true)
            .read(ClientId::new(0, 0), 1, 2 * 64, 128)
            .unwrap();
        assert_eq!(out.trace.local_direct_bytes, 128);
    }

    #[test]
    fn cross_node_dram_data_is_remote() {
        let (md, chains, geom) = setup();
        // Rank 2 (node 1) writes; rank 0 (node 0) reads.
        write_segments(&md, &chains, &geom, ClientId::new(0, 2), 2);
        let out = svc(&md, &chains, &geom, true)
            .read(ClientId::new(0, 0), 1, 4 * 64, 128)
            .unwrap();
        assert_eq!(out.trace.remote_bytes, 128);
        assert!(out.trace.md_rpcs > 0);
        assert_eq!(out.trace.md_cache_misses, 1);
    }

    #[test]
    fn repeated_remote_lookup_hits_the_cache() {
        let (md, chains, geom) = setup();
        write_segments(&md, &chains, &geom, ClientId::new(0, 2), 2);
        let service = svc(&md, &chains, &geom, true);
        let first = service.read(ClientId::new(0, 0), 1, 4 * 64, 128).unwrap();
        assert_eq!(first.trace.md_cache_misses, 1);
        assert!(first.trace.md_rpcs > 0);
        let second = service.read(ClientId::new(0, 0), 1, 4 * 64, 128).unwrap();
        assert_eq!(second.trace.md_cache_hits, 1);
        assert_eq!(second.trace.md_rpcs, 0, "cache hit must not issue RPCs");
        assert!(second.payload.content_eq(&first.payload));
    }

    #[test]
    fn bb_resident_data_fetched_directly_when_aware() {
        let (md, chains, geom) = setup();
        // Rank 2 writes 4 segments: 2 fill DRAM, 2 spill to BB.
        write_segments(&md, &chains, &geom, ClientId::new(0, 2), 4);
        // Rank 0 reads the spilled half.
        let aware = svc(&md, &chains, &geom, true)
            .read(ClientId::new(0, 0), 1, 10 * 64, 128)
            .unwrap();
        assert_eq!(aware.trace.shared_direct_bytes, 128, "{:?}", aware.trace);
        let naive = svc(&md, &chains, &geom, false)
            .read(ClientId::new(0, 0), 1, 10 * 64, 128)
            .unwrap();
        assert_eq!(naive.trace.remote_bytes, 128);
    }

    #[test]
    fn hole_in_file_is_an_error() {
        let (md, chains, geom) = setup();
        write_segments(&md, &chains, &geom, ClientId::new(0, 0), 1);
        for per_record in [true, false] {
            let err = read_via(per_record, &svc(&md, &chains, &geom, true), 0, 256).unwrap_err();
            assert!(matches!(err, SimError::Hole { .. }));
        }
    }

    #[test]
    fn unaligned_read_clips_segments() {
        let (md, chains, geom) = setup();
        write_segments(&md, &chains, &geom, ClientId::new(0, 0), 2);
        let out = svc(&md, &chains, &geom, true)
            .read(ClientId::new(0, 0), 1, 32, 64)
            .unwrap();
        assert_eq!(out.payload.len(), 64);
        assert_eq!(out.trace.total_bytes(), 64);
        // Bytes must match the two halves of adjacent segments.
        let expect = Payload::chain([
            Payload::pattern(0, 64).slice(32, 32),
            Payload::pattern(64, 64).slice(0, 32),
        ]);
        assert!(out.payload.content_eq(&expect));
    }

    #[test]
    fn zero_len_read_is_trivial() {
        let (md, chains, geom) = setup();
        let out = svc(&md, &chains, &geom, true)
            .read(ClientId::new(0, 0), 1, 0, 0)
            .unwrap();
        assert!(out.payload.is_empty());
        assert_eq!(out.trace.total_bytes(), 0);
        assert_eq!(out.locks.chain, 0);
    }

    /// A read whose node-buffer lookup runs before an overwrite's splice and
    /// whose distributed lookup runs after it still sees the whole range.
    /// Node 0's buffer holds `[0, 32)` of a window node 1 completed with
    /// `[32, 64)`; the overwrite replaces both with one record at key 0.
    /// Joining the node buffer's `[0, 32)` with the new index by key would
    /// drop the new record and leave `[32, 64)` a hole.
    #[test]
    fn a_read_racing_an_overwrite_sees_no_hole() {
        let (md, chains, geom) = setup();
        let (a, c) = (ClientId::new(0, 0), ClientId::new(0, 2)); // nodes 0, 1
        let pa = chains.append(a, Payload::pattern(0, 32)).unwrap();
        let pc = chains.append(c, Payload::pattern(32, 32)).unwrap();
        let key = |offset| SegKey { fid: 1, offset };
        insert_one(&md, key(0), SegmentRecord::new(a, pa.va, 32), 0);
        insert_one(&md, key(32), SegmentRecord::new(c, pc.va, 32), 1);
        let whole = chains.append(a, Payload::pattern(100, 64)).unwrap();
        let (parked_tx, parked_rx) = std::sync::mpsc::channel();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        let got = std::thread::scope(|s| {
            s.spawn(|| {
                set_park(Box::new(move || {
                    parked_tx.send(()).unwrap();
                    go_rx.recv().unwrap();
                }));
                let record = SegmentRecord::new(a, whole.va, 64);
                md.insert_batch(1, 0, 64, &[(0, record)], 0).unwrap();
            });
            // The writer holds the window's shard locks, node buffers not
            // yet refreshed: the read's node-buffer half sees the old
            // `[0, 32)`, and its distributed half waits for the splice.
            parked_rx.recv().unwrap();
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let (md, chains, geom) = (&md, &chains, &geom);
            let reader = s.spawn(move || {
                let got = svc(md, chains, geom, true).read(a, 1, 0, 64);
                done_tx.send(()).unwrap();
                got
            });
            // Let a reader that is not held off finish first.
            let _ = done_rx.recv_timeout(std::time::Duration::from_millis(200));
            go_tx.send(()).unwrap();
            reader.join().unwrap()
        });
        let got = got.expect("a fully written range reads without a hole");
        assert!(got.payload.content_eq(&Payload::pattern(100, 64)));
    }
}
