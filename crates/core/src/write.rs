//! The write pipeline, written once: plan → place → commit (§II-A/B1/B3).
//!
//! [`write`] is the only batched write path in the crate. It owns every
//! decision of a write — the segment-grid plan, which pieces get a replica,
//! how placed pieces coalesce into metadata records, what gets stamped, in
//! which order displaced log space is released — and runs each stage
//! directly on the job's locked core: `ChainSet::append_many`,
//! `MetadataService::insert_batch` and `ChainSet::release_many`, every
//! acquisition counted. Both runtimes run it; under
//! [`Runtime::Partitioned`](crate::config::Runtime::Partitioned) it runs
//! on the partition worker owning the writer's node, retry loops included.
//!
//! The per-piece reference write (`server::oracle`) is a test-only
//! oracle and deliberately does **not** run through this module.

use crate::fault::with_retries;
use crate::integrity::stamp_records;
use crate::metadata::{ClientId, SegmentRecord};
use crate::metrics::WriteLockCounts;
use crate::placement::PlacedSegment;
use crate::server::DataPlane;
use crate::va::{Tier, VirtualAddr};
use univistor_sim::{Payload, SimResult};

/// A span of log space to release: `(owning chain, first byte, length)`.
type Span = (ClientId, VirtualAddr, u64);

/// Where a piece's replica landed: `(buddy, VA, buddy-chain layer)`.
type Replica = (ClientId, VirtualAddr, usize);

/// One write call.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WriteOp {
    pub client: ClientId,
    pub fid: u64,
    /// The producer's compute node (owner of the node buffer to refresh).
    pub node: usize,
    /// Logical file offset of the first byte.
    pub offset: u64,
    /// Where volatile pieces are mirrored; `None` writes unreplicated.
    pub buddy: Option<ClientId>,
}

/// Grid pieces `[offset, offset + len)` splits into.
pub(crate) fn piece_count(segment_size: u64, offset: u64, len: u64) -> u64 {
    match len {
        0 => 0,
        _ => (offset + len - 1) / segment_size - offset / segment_size + 1,
    }
}

/// Split `[offset, offset + len)` on the logical segment grid, so
/// overwrites displace whole records where possible. Returns
/// `(logical offset, length)` per piece.
pub(crate) fn plan_pieces(segment_size: u64, offset: u64, len: u64) -> Vec<(u64, u64)> {
    let end = offset + len;
    let mut pieces = Vec::with_capacity(piece_count(segment_size, offset, len) as usize);
    let mut cur = offset;
    while cur < end {
        let piece_end = ((cur / segment_size + 1) * segment_size).min(end);
        pieces.push((cur, piece_end - cur));
        cur = piece_end;
    }
    pieces
}

/// Merge placed pieces into metadata records: a piece joins the previous
/// record when both sit on the same chain layer at adjacent VAs — layer
/// equality matters because a VA seam between two layers can also be
/// address-adjacent — their replica spans line up likewise on one buddy
/// layer (both absent counts), and the merged record stays within `range`
/// (the metadata range size) so the left-widened overlap scans stay
/// correct. `replicas` is per piece, or empty for an unreplicated write.
pub(crate) fn coalesce(
    client: ClientId,
    pieces: &[(u64, u64)],
    placed: &[PlacedSegment],
    replicas: &[Option<Replica>],
    range: u64,
) -> Vec<(u64, SegmentRecord)> {
    let mut records: Vec<(u64, SegmentRecord)> = Vec::with_capacity(pieces.len());
    let mut tail_layer = 0usize;
    let mut tail_replica_layer = 0usize;
    for (i, (&(off, plen), p)) in pieces.iter().zip(placed).enumerate() {
        let replica = replicas.get(i).copied().flatten();
        if let Some((_, last)) = records.last_mut() {
            let replica_ok = match (last.replica, replica) {
                (None, None) => true,
                (Some((lc, lva)), Some((rc, rva, rlayer))) => {
                    lc == rc && lva.0 + last.len == rva.0 && rlayer == tail_replica_layer
                }
                _ => false,
            };
            if p.layer == tail_layer
                && last.va.0 + last.len == p.va.0
                && replica_ok
                && last.len + plen <= range
            {
                last.len += plen;
                continue;
            }
        }
        let record = SegmentRecord {
            client,
            va: p.va,
            len: plen,
            replica: replica.map(|(c, va, _)| (c, va)),
            checksum: None,
        };
        records.push((off, record));
        tail_layer = p.layer;
        tail_replica_layer = replica.map_or(0, |(_, _, l)| l);
    }
    records
}

/// Resilience (future work of the paper): mirror the pieces that landed on
/// volatile layers into `buddy`'s chain as one run, after the primary run
/// completed (never two chain locks at once). Best-effort: a failed buddy
/// run degrades resilience, it does not fail the write. Returns the
/// per-piece replica placements, empty when nothing was mirrored.
fn replicate(
    plane: &DataPlane,
    buddy: Option<ClientId>,
    payloads: &[Payload],
    placed: &[PlacedSegment],
    locks: &mut WriteLockCounts,
) -> Vec<Option<Replica>> {
    let Some(buddy) = buddy else {
        return Vec::new();
    };
    let volatile: Vec<usize> = placed
        .iter()
        .enumerate()
        .filter(|(_, p)| p.tier != Tier::Pfs)
        .map(|(i, _)| i)
        .collect();
    if volatile.is_empty() {
        return Vec::new();
    }
    locks.chain += 1;
    let copies: Vec<Payload> = volatile.iter().map(|&i| payloads[i].clone()).collect();
    // The buddy's chain may not exist yet.
    let mirrored = with_retries(&plane.cfg.retry, Some(&plane.metrics), || {
        plane.ensure_chain(buddy)?;
        plane.core.chains.append_many(buddy, copies.clone())
    });
    let mut replicas = vec![None; placed.len()];
    if let Ok(rplaced) = mirrored {
        for (&i, rp) in volatile.iter().zip(&rplaced) {
            replicas[i] = Some((buddy, rp.va, rp.layer));
            plane.metrics.record_replication(placed[i].len);
        }
    }
    replicas
}

/// Write `payload` at `op.offset` (the producer's chain must exist): plan
/// every grid piece up front, place the run with one append, replicate
/// volatile pieces with one buddy append, coalesce into records, stamp each
/// sealed record once, commit them with one splice over the full span,
/// release displaced log space grouped by owning chain, and account the
/// call.
pub(crate) fn write(plane: &DataPlane, op: &WriteOp, payload: Payload) -> SimResult<()> {
    let (cfg, core, metrics) = (&plane.cfg, &plane.core, &*plane.metrics);
    let len = payload.len();
    let end = op.offset + len;
    let pieces = plan_pieces(cfg.segment_size, op.offset, len);
    let payloads: Vec<Payload> = pieces
        .iter()
        .map(|&(cur, plen)| payload.slice(cur - op.offset, plen))
        .collect();
    let mut locks = WriteLockCounts::default();

    let placed = with_retries(&cfg.retry, Some(metrics), || {
        core.chains.append_many(op.client, payloads.clone())
    })?;
    locks.chain += 1;
    let replicas = replicate(plane, op.buddy, &payloads, &placed, &mut locks);

    for p in &placed {
        metrics.record_segment(p.tier, p.layer, p.len);
    }
    let range = cfg.metadata_range_size;
    let mut records = coalesce(op.client, &pieces, &placed, &replicas, range);
    // Records are sealed: stamp each one's span of the payload once.
    if cfg.integrity.checksums {
        stamp_records(&plane.verifier, &payload, op.offset, &mut records);
    }

    let outcome = with_retries(&cfg.retry, Some(metrics), || {
        core.metadata
            .insert_batch(op.fid, op.offset, end, &records, op.node)
    })?;
    locks.kv_shard += outcome.locks.kv_shard_acquisitions;
    locks.node_buffer += outcome.locks.node_buffer_acquisitions;

    // Free the log space of overwritten data (possibly owned by other
    // clients' chains), including replica copies. Each displaced span was
    // removed from the index by exactly one splice and is released exactly
    // once, grouped so each owning chain is visited once (the stable sort
    // keeps splice order within an owner).
    let mut spans: Vec<Span> = Vec::new();
    for d in &outcome.displaced {
        spans.push((d.client, d.va, d.len));
        if let Some((rc, rva)) = d.replica {
            spans.push((rc, rva, d.len));
        }
    }
    spans.sort_by_key(|&(c, _, _)| c);
    locks.chain += core.chains.release_many(&spans);

    metrics.record_write_batch(pieces.len() as u64, records.len() as u64, locks);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrity::Verifier;

    const C: ClientId = ClientId { app: 0, rank: 0 };
    const B: ClientId = ClientId { app: 0, rank: 2 };
    const B2: ClientId = ClientId { app: 0, rank: 4 };

    fn at(layer: usize, va: u64, len: u64) -> PlacedSegment {
        let tier = if layer == 0 {
            Tier::Dram
        } else {
            Tier::SharedBurstBuffer
        };
        PlacedSegment {
            layer,
            tier,
            va: VirtualAddr(va),
            len,
        }
    }

    fn rep(buddy: ClientId, va: u64, layer: usize) -> Option<Replica> {
        Some((buddy, VirtualAddr(va), layer))
    }

    #[test]
    fn plan_splits_on_the_segment_grid() {
        assert_eq!(plan_pieces(128, 0, 128), vec![(0, 128)]);
        assert_eq!(
            plan_pieces(128, 100, 200),
            vec![(100, 28), (128, 128), (256, 44)]
        );
        for (off, len) in [(0, 0), (0, 1), (5, 123), (100, 200), (128, 256), (127, 2)] {
            assert_eq!(
                piece_count(128, off, len),
                plan_pieces(128, off, len).len() as u64
            );
        }
    }

    /// The coalescing rules, one row each. Two 64 B pieces at logical 0 and
    /// 64, the first on layer 0 at VA 0: the second piece's (layer, VA),
    /// both pieces' replicas, the range cap, and the records they seal into.
    #[test]
    fn coalescer_merge_rules() {
        let r0 = rep(B, 512, 0);
        let cases = [
            ("adjacent, same layer", (0, 64), (None, None), 1024, 1),
            ("VA gap", (0, 128), (None, None), 1024, 2),
            (
                "VA-adjacent across a layer seam",
                (1, 64),
                (None, None),
                1024,
                2,
            ),
            ("replicas line up", (0, 64), (r0, rep(B, 576, 0)), 1024, 1),
            ("replica on one side only", (0, 64), (r0, None), 1024, 2),
            (
                "replicas on different buddies",
                (0, 64),
                (r0, rep(B2, 576, 0)),
                1024,
                2,
            ),
            (
                "replica VAs misaligned",
                (0, 64),
                (r0, rep(B, 640, 0)),
                1024,
                2,
            ),
            (
                "replica VA-adjacent across a buddy layer seam",
                (0, 64),
                (r0, rep(B, 576, 1)),
                1024,
                2,
            ),
            (
                "merge would exceed the range cap",
                (0, 64),
                (None, None),
                127,
                2,
            ),
        ];
        for (name, (layer, va), (first, second), range, want) in cases {
            let placed = [at(0, 0, 64), at(layer, va, 64)];
            let records = coalesce(C, &[(0, 64), (64, 64)], &placed, &[first, second], range);
            assert_eq!(records.len(), want, "{name}");
            let bytes: u64 = records.iter().map(|(_, r)| r.len).sum();
            assert_eq!(bytes, 128, "{name}: bytes lost");
            let base = first.map(|(c, va, _)| (c, va));
            assert_eq!((records[0].0, records[0].1.replica), (0, base), "{name}");
        }
    }

    #[test]
    fn coalescer_stops_exactly_at_the_range_cap() {
        // Five adjacent 64 B pieces under a 192 B cap: 3 + 2.
        let pieces: Vec<(u64, u64)> = (0..5).map(|i| (i * 64, 64)).collect();
        let placed: Vec<PlacedSegment> = (0..5).map(|i| at(0, i * 64, 64)).collect();
        let records = coalesce(C, &pieces, &placed, &[], 192);
        let shape: Vec<(u64, u64, u64)> =
            records.iter().map(|(o, r)| (*o, r.va.0, r.len)).collect();
        assert_eq!(shape, vec![(0, 0, 192), (192, 192, 128)]);
    }

    #[test]
    fn single_piece_seals_into_one_record_stamped_in_place() {
        let payload = Payload::pattern(7, 100);
        let mut records = coalesce(C, &[(40, 100)], &[at(0, 256, 100)], &[], 1024);
        assert_eq!(records.len(), 1);
        let (off, r) = records[0];
        assert_eq!((off, r.client, r.va, r.len), (40, C, VirtualAddr(256), 100));
        assert_eq!((r.replica, r.checksum), (None, None));
        // The record spans the whole payload, so the stamp digests the
        // payload as given — no sub-slice is cut.
        stamp_records(&Verifier::default(), &payload, 40, &mut records);
        assert_eq!(records[0].1.checksum, Some(payload.content_checksum()));
    }
}
