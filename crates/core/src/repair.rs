//! Online repair: re-replicate segments degraded by node loss.
//!
//! When a node's volatile storage is lost ([`fail_node`]), every segment
//! whose primary span lived there is served from its buddy replica — the
//! job runs *degraded*: one more failure loses data. This module restores
//! full redundancy while the job keeps running, the robustness counterpart
//! of the paper's replication "future work": scan the metadata index for
//! records referencing a failed node, re-read each surviving copy, place a
//! fresh copy on a healthy buddy chain, and swap the index entry with the
//! same compare-and-swap discipline the promotion path uses — a record
//! overwritten mid-repair is left alone and the fresh copy is rolled back.
//!
//! Lock order matches the data path: at most one chain lock at a time
//! (source read, then copy append, then dead-span release), KV shard locks
//! strictly between chain acquisitions, never nested inside one.
//!
//! [`fail_node`]: crate::server::UniviStorJob::fail_node

use crate::config::JobGeometry;
use crate::fault::{with_retries, RetryPolicy};
use crate::integrity::Verifier;
use crate::metadata::{ClientId, MetadataService, SegmentRecord};
use crate::metrics::{JobMetrics, VerifySite};
use crate::placement::{healthy_buddy, ChainSet};
use crate::va::VirtualAddr;
use std::collections::HashSet;
use univistor_sim::{Payload, SimResult};

/// Outcome of one repair pass ([`rebuild_degraded`]).
///
/// [`rebuild_degraded`]: crate::server::UniviStorJob::rebuild_degraded
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Index records examined.
    pub scanned_records: u64,
    /// Records whose primary was lost and rebuilt from the replica.
    pub repaired_primary: u64,
    /// Records whose replica was lost and re-mirrored from the primary.
    pub repaired_replica: u64,
    /// Bytes copied onto healthy chains by this pass.
    pub repaired_bytes: u64,
    /// Records with both copies on failed nodes — unrecoverable.
    pub lost_records: u64,
    /// Bytes in unrecoverable records.
    pub lost_bytes: u64,
    /// Records left without full redundancy after the pass: unrecoverable
    /// records, survivors the pass could not read, and repairs that found
    /// no healthy buddy with room for a mirror.
    pub remaining_degraded: u64,
}

impl RepairReport {
    /// Fold another file's pass into this one.
    pub fn absorb(&mut self, other: RepairReport) {
        self.scanned_records += other.scanned_records;
        self.repaired_primary += other.repaired_primary;
        self.repaired_replica += other.repaired_replica;
        self.repaired_bytes += other.repaired_bytes;
        self.lost_records += other.lost_records;
        self.lost_bytes += other.lost_bytes;
        self.remaining_degraded += other.remaining_degraded;
    }
}

/// Copy `payload` onto `target`'s chain as ONE contiguous same-layer span
/// (chunk-split sub-appends, like the promotion path), returning its VA.
/// A fragmented or cross-layer copy is rolled back and reported as `None`
/// — the record must stay describable by a single `(client, va)` pair.
/// Shared with the scrubber's corrupt-copy repair.
pub(crate) fn place_copy(
    chains: &ChainSet,
    target: ClientId,
    payload: &Payload,
    len: u64,
    chunk: u64,
    retry: &RetryPolicy,
    metrics: Option<&JobMetrics>,
) -> SimResult<Option<VirtualAddr>> {
    let mut sub = Vec::with_capacity((len / chunk) as usize + 1);
    let mut pos = 0u64;
    while pos < len {
        let n = chunk.min(len - pos);
        sub.push(payload.slice(pos, n));
        pos += n;
    }
    let placements = match with_retries(retry, metrics, || chains.append_many(target, sub.clone()))
    {
        Ok(p) => p,
        // No space on the buddy (or the fault budget ran out): degrade
        // gracefully rather than failing the whole pass.
        Err(_) => return Ok(None),
    };
    let layer = placements.first().map(|p| p.layer);
    let one_span = placements.iter().all(|p| Some(p.layer) == layer)
        && placements
            .windows(2)
            .all(|w| w[0].va.0 + w[0].len == w[1].va.0);
    if !one_span {
        for p in &placements {
            chains.release(target, p.va, p.len);
        }
        return Ok(None);
    }
    Ok(placements.first().map(|p| p.va))
}

/// Repair every degraded record of one file. See the module docs for the
/// per-record cases; `ensure_chain` lets the pass materialize a buddy
/// chain for a client that never wrote.
#[allow(clippy::too_many_arguments)]
pub fn repair_file(
    metadata: &MetadataService,
    chains: &ChainSet,
    geometry: &JobGeometry,
    chunk_size: u64,
    failed: &HashSet<usize>,
    retry: &RetryPolicy,
    metrics: Option<&JobMetrics>,
    verifier: &Verifier,
    ensure_chain: &dyn Fn(ClientId) -> SimResult<()>,
    fid: u64,
    file_size: u64,
) -> SimResult<RepairReport> {
    let mut report = RepairReport::default();
    let node_failed = |c: ClientId| failed.contains(&geometry.node_of_rank(c.rank as usize));
    let (_, records) = metadata.lookup_range(fid, 0, file_size);
    for (key, rec) in records {
        report.scanned_records += 1;
        let primary_lost = node_failed(rec.client);
        let replica_lost = rec.replica.is_some_and(|(rc, _)| node_failed(rc));
        if !primary_lost && !replica_lost {
            continue;
        }

        // Both copies gone (or the primary gone with no replica): the
        // bytes are unrecoverable. Leave the record so reads fail loudly
        // with full context instead of returning holes.
        let source = if primary_lost {
            rec.replica.filter(|&(rc, _)| !node_failed(rc))
        } else {
            Some((rec.client, rec.va))
        };
        let Some((src_client, src_va)) = source else {
            report.lost_records += 1;
            report.lost_bytes += rec.len;
            report.remaining_degraded += 1;
            continue;
        };

        // Read the surviving copy (shared chain lock, released before any
        // other lock is taken).
        let Ok((payload, _)) = with_retries(retry, metrics, || {
            chains.read_at(src_client, src_va, rec.len)
        }) else {
            report.remaining_degraded += 1;
            continue;
        };

        // Verify the surviving copy before replicating it: propagating a
        // silently corrupted source would mint two bad copies with a valid
        // looking record. The other copy lives on the failed node, so a
        // corrupt survivor has no fallback — leave the record degraded for
        // the scrubber/read path to report instead of spreading rot.
        if let Some(sum) = rec.checksum {
            if !verifier.verify(VerifySite::Repair, &payload, sum) {
                if let Some(m) = metrics {
                    m.record_verify_failure(VerifySite::Repair);
                }
                report.remaining_degraded += 1;
                continue;
            }
        }

        // Place a fresh copy on a healthy buddy of the surviving owner.
        // No healthy buddy (single node, or everything else failed) means
        // the record stays un-mirrored but readable.
        let fresh = match healthy_buddy(geometry, failed, src_client) {
            Some(buddy) => {
                ensure_chain(buddy)?;
                place_copy(chains, buddy, &payload, rec.len, chunk_size, retry, metrics)?
                    .map(|va| (buddy, va))
            }
            None => None,
        };

        let new_record = if primary_lost {
            // The surviving replica is promoted to primary; the fresh copy
            // (if any) becomes the new replica.
            SegmentRecord {
                client: src_client,
                va: src_va,
                len: rec.len,
                replica: fresh,
                // The verified survivor carries the same bytes, so the
                // write-commit stamp stays valid across the promotion.
                checksum: rec.checksum,
            }
        } else {
            // Primary healthy, replica lost: keep the primary span, point
            // the record at the fresh mirror (or drop the dead reference).
            SegmentRecord {
                replica: fresh,
                ..rec
            }
        };
        if new_record == rec {
            // Nothing changed (no buddy found for a lost replica): the
            // record still references the failed node.
            report.remaining_degraded += 1;
            continue;
        }

        // Swap the index entry only if nobody overwrote it meanwhile.
        let producer_node = geometry.node_of_rank(new_record.client.rank as usize);
        if metadata
            .replace_if_current(key, &rec, new_record, producer_node)
            .1
        {
            // The dead span on the failed node is no longer referenced;
            // release it so live-byte accounting drops the lost bytes.
            if primary_lost {
                chains.release(rec.client, rec.va, rec.len);
                report.repaired_primary += 1;
            } else if let Some((rc, rva)) = rec.replica {
                chains.release(rc, rva, rec.len);
            }
            if fresh.is_some() {
                if !primary_lost {
                    report.repaired_replica += 1;
                }
                report.repaired_bytes += rec.len;
            } else {
                // The surviving copy is readable, but no healthy buddy
                // had room for a mirror: still a single copy.
                report.remaining_degraded += 1;
            }
        } else {
            // Lost the race to an overwrite: the new data already has a
            // fresh record; drop our copy.
            if let Some((fc, fva)) = fresh {
                chains.release(fc, fva, rec.len);
            }
        }
    }
    if let Some(m) = metrics {
        m.record_repair(
            report.repaired_primary,
            report.repaired_replica,
            report.repaired_bytes,
        );
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UniviStorConfig;
    use crate::metadata::SegKey;
    use crate::placement::ProcChain;
    use crate::va::Tier;

    /// Chunk size shared by the harness chains and the repair calls.
    const CHUNK: u64 = 128;

    fn harness() -> (MetadataService, ChainSet, UniviStorConfig) {
        let cfg = UniviStorConfig::test_small(4, 2);
        let metadata = MetadataService::new(256, 4, 4);
        let chains = ChainSet::new();
        for rank in 0..8u32 {
            chains
                .ensure(ClientId::new(0, rank), || {
                    ProcChain::new(vec![(Tier::Dram, 4096), (Tier::Pfs, u64::MAX)], CHUNK)
                })
                .unwrap();
        }
        (metadata, chains, cfg)
    }

    fn ensure_noop(_: ClientId) -> SimResult<()> {
        Ok(())
    }

    /// Write one 128 B replicated segment from rank 0 (node 0) with its
    /// replica on rank 2 (node 1), record it, and return the key.
    fn seed_segment(metadata: &MetadataService, chains: &ChainSet) -> (SegKey, SegmentRecord) {
        let primary = ClientId::new(0, 0);
        let buddy = ClientId::new(0, 2);
        let payload = Payload::pattern(7, 128);
        let p = chains.append(primary, payload.clone()).unwrap();
        let r = chains.append(buddy, payload).unwrap();
        let key = SegKey { fid: 1, offset: 0 };
        let rec = SegmentRecord {
            client: primary,
            va: p.va,
            len: 128,
            replica: Some((buddy, r.va)),
            checksum: None,
        };
        metadata.insert(key, rec, 0);
        (key, rec)
    }

    #[test]
    fn lost_primary_promotes_replica_and_remirrors() {
        let (md, chains, cfg) = harness();
        let (key, rec) = seed_segment(&md, &chains);
        let failed: HashSet<usize> = [0].into_iter().collect();
        let report = repair_file(
            &md,
            &chains,
            &cfg.geometry,
            CHUNK,
            &failed,
            &cfg.retry,
            None,
            &Verifier::default(),
            &ensure_noop,
            1,
            128,
        )
        .unwrap();
        assert_eq!(report.repaired_primary, 1);
        assert_eq!(report.repaired_bytes, 128);
        assert_eq!(report.remaining_degraded, 0);
        let (_, new_rec) = md.get(&key);
        let new_rec = new_rec.unwrap();
        // The old replica owner (rank 2, node 1) is the new primary.
        assert_eq!(new_rec.client, rec.replica.unwrap().0);
        let (rc, rva) = new_rec.replica.expect("re-mirrored");
        assert_ne!(
            cfg.geometry.node_of_rank(rc.rank as usize),
            cfg.geometry.node_of_rank(new_rec.client.rank as usize),
            "fresh replica must live on a different node"
        );
        // Both spans read back the original bytes.
        let (p, _) = chains.read_at(new_rec.client, new_rec.va, 128).unwrap();
        let (q, _) = chains.read_at(rc, rva, 128).unwrap();
        assert!(p.content_eq(&Payload::pattern(7, 128)));
        assert!(q.content_eq(&Payload::pattern(7, 128)));
        // The dead primary span was released.
        assert_eq!(
            chains.with(rec.client, |c| c.live_bytes()).unwrap(),
            0,
            "dead primary span must be freed"
        );
    }

    #[test]
    fn lost_replica_is_remirrored_from_primary() {
        let (md, chains, cfg) = harness();
        let (key, rec) = seed_segment(&md, &chains);
        // Node 1 hosts the replica (rank 2).
        let failed: HashSet<usize> = [1].into_iter().collect();
        let report = repair_file(
            &md,
            &chains,
            &cfg.geometry,
            CHUNK,
            &failed,
            &cfg.retry,
            None,
            &Verifier::default(),
            &ensure_noop,
            1,
            128,
        )
        .unwrap();
        assert_eq!(report.repaired_replica, 1);
        let (_, new_rec) = md.get(&key);
        let new_rec = new_rec.unwrap();
        assert_eq!(new_rec.client, rec.client, "primary untouched");
        let (rc, _) = new_rec.replica.expect("re-mirrored");
        assert!(!failed.contains(&cfg.geometry.node_of_rank(rc.rank as usize)));
    }

    #[test]
    fn both_copies_lost_is_reported_not_hidden() {
        let (md, chains, cfg) = harness();
        let (key, rec) = seed_segment(&md, &chains);
        let failed: HashSet<usize> = [0, 1].into_iter().collect();
        let report = repair_file(
            &md,
            &chains,
            &cfg.geometry,
            CHUNK,
            &failed,
            &cfg.retry,
            None,
            &Verifier::default(),
            &ensure_noop,
            1,
            128,
        )
        .unwrap();
        assert_eq!(report.lost_records, 1);
        assert_eq!(report.lost_bytes, 128);
        assert_eq!(report.remaining_degraded, 1);
        // The record is left in place so reads fail with context.
        assert_eq!(md.get(&key).1, Some(rec));
    }

    #[test]
    fn healthy_records_are_untouched() {
        let (md, chains, cfg) = harness();
        let (key, rec) = seed_segment(&md, &chains);
        // Node 3 hosts neither copy.
        let failed: HashSet<usize> = [3].into_iter().collect();
        let report = repair_file(
            &md,
            &chains,
            &cfg.geometry,
            CHUNK,
            &failed,
            &cfg.retry,
            None,
            &Verifier::default(),
            &ensure_noop,
            1,
            128,
        )
        .unwrap();
        assert_eq!(report.scanned_records, 1);
        assert_eq!(report.repaired_primary + report.repaired_replica, 0);
        assert_eq!(md.get(&key).1, Some(rec));
    }
}
