//! Online repair: re-replicate segments degraded by node loss.
//!
//! When a node's volatile storage is lost ([`fail_node`]), every segment
//! whose primary span lived there is served from its buddy replica — the
//! job runs *degraded*: one more failure loses data. This module restores
//! full redundancy while the job keeps running, the robustness counterpart
//! of the paper's replication "future work". Its policy is the triage of
//! each record referencing a failed node:
//!
//! * **primary lost, replica alive** — the replica is promoted to primary
//!   and a fresh mirror goes to a healthy buddy of it;
//! * **replica lost, primary alive** — a fresh mirror on a healthy buddy
//!   replaces the dead reference;
//! * **both lost** — reported as lost, the record left in place so reads
//!   fail loudly with full context instead of returning holes.
//!
//! A survivor is verified before it is copied, and no healthy buddy with
//! room leaves the record readable but un-mirrored. Each rebuild is one
//! `Maint::relocate` (DESIGN.md §11).
//!
//! [`fail_node`]: crate::server::UniviStorJob::fail_node

use crate::maint::{Maint, Move, Moved, Place};
use crate::metadata::SegmentRecord;
use crate::metrics::VerifySite;
use crate::placement::healthy_buddy;
use univistor_sim::SimResult;

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

/// Which of `rec`'s copies live on a failed node: `(primary, replica)`.
fn lost_copies(m: &Maint, rec: &SegmentRecord) -> (bool, bool) {
    let replica_lost = rec.replica.is_some_and(|(rc, _)| m.node_failed(rc));
    (m.node_failed(rec.client), replica_lost)
}

/// Index records still referencing a failed node, as primary or replica.
pub(crate) fn degraded_records(m: &Maint) -> u64 {
    let mut n = 0;
    for f in &m.files {
        let (_, records) = m.core.metadata.lookup_range(f.fid, 0, f.size);
        n += records
            .iter()
            .filter(|(_, r)| lost_copies(m, r) != (false, false))
            .count() as u64;
    }
    n
}

/// Repair every file of the pass's snapshot.
pub(crate) fn rebuild(m: &Maint) -> SimResult<RepairReport> {
    let mut total = RepairReport::default();
    for f in &m.files {
        total.absorb(repair_file(m, f.fid, f.size)?);
    }
    Ok(total)
}

/// Repair every degraded record of one file (see the module docs for the
/// per-record cases).
pub(crate) fn repair_file(m: &Maint, fid: u64, file_size: u64) -> SimResult<RepairReport> {
    let mut report = RepairReport::default();
    let (_, records) = m.core.metadata.lookup_range(fid, 0, file_size);
    for (key, rec) in records {
        report.scanned_records += 1;
        let (primary_lost, replica_lost) = lost_copies(m, &rec);
        if !primary_lost && !replica_lost {
            continue;
        }
        let survivor = if primary_lost {
            rec.replica.filter(|&(rc, _)| !m.node_failed(rc))
        } else {
            Some((rec.client, rec.va))
        };
        let Some(from) = survivor else {
            report.lost_records += 1;
            report.lost_bytes += rec.len;
            report.remaining_degraded += 1;
            continue;
        };
        // The survivor is the primary from here on; the fresh copy, if a
        // healthy buddy of it has room, becomes the replica. The survivor
        // carries the same bytes, so the write-commit stamp stays valid.
        let to = healthy_buddy(&m.cfg.geometry, &m.failed, from.0).map(|client| Place {
            client,
            floor: 0,
            exact: false,
        });
        let promoted = SegmentRecord {
            client: from.0,
            va: from.1,
            ..rec
        };
        let mv = Move {
            key,
            rec,
            from,
            site: VerifySite::Repair,
            to,
        };
        match m.relocate(&mv, |fresh| {
            Some(SegmentRecord {
                replica: fresh,
                ..promoted
            })
        })? {
            Moved::Swapped(new) => {
                if primary_lost {
                    report.repaired_primary += 1;
                }
                if new.replica.is_none() {
                    // Readable, but no healthy buddy had room for a
                    // mirror: still a single copy.
                    report.remaining_degraded += 1;
                } else {
                    if !primary_lost {
                        report.repaired_replica += 1;
                    }
                    report.repaired_bytes += rec.len;
                }
            }
            // An overwrite won: the new data already has a fresh record.
            Moved::LostRace => {}
            // An unreadable survivor, or a corrupt one — the other copy is
            // on the failed node, so there is no fallback; leave it for
            // the scrubber/read path to report instead of spreading rot.
            _ => report.remaining_degraded += 1,
        }
    }
    m.metrics.record_repair(
        report.repaired_primary,
        report.repaired_replica,
        report.repaired_bytes,
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UniviStorConfig;
    use crate::integrity::Verifier;
    use crate::maint::tests::core as harness;
    use crate::metadata::tests::insert_one;
    use crate::metadata::{ClientId, MetadataService, SegKey};
    use crate::metrics::JobMetrics;
    use crate::placement::ChainSet;
    use crate::server::LockedCore;
    use univistor_sim::Payload;

    /// Repair fid 1 (128 B) with `failed` nodes down.
    fn repair(core: &LockedCore, cfg: &UniviStorConfig, failed: &[usize]) -> RepairReport {
        let m = Maint {
            cfg,
            core,
            metrics: &JobMetrics::new(),
            verifier: &Verifier::default(),
            failed: failed.iter().copied().collect(),
            files: Vec::new(),
        };
        repair_file(&m, 1, 128).unwrap()
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
        insert_one(metadata, key, rec, 0);
        (key, rec)
    }

    #[test]
    fn lost_primary_promotes_replica_and_remirrors() {
        let (core, cfg) = harness();
        let (md, chains) = (&core.metadata, &core.chains);
        let (key, rec) = seed_segment(md, chains);
        let report = repair(&core, &cfg, &[0]);
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
        let (core, cfg) = harness();
        let (md, chains) = (&core.metadata, &core.chains);
        let (key, rec) = seed_segment(md, chains);
        // Node 1 hosts the replica (rank 2).
        let failed = [1];
        let report = repair(&core, &cfg, &failed);
        assert_eq!(report.repaired_replica, 1);
        let (_, new_rec) = md.get(&key);
        let new_rec = new_rec.unwrap();
        assert_eq!(new_rec.client, rec.client, "primary untouched");
        let (rc, _) = new_rec.replica.expect("re-mirrored");
        assert!(!failed.contains(&cfg.geometry.node_of_rank(rc.rank as usize)));
    }

    #[test]
    fn both_copies_lost_is_reported_not_hidden() {
        let (core, cfg) = harness();
        let (md, chains) = (&core.metadata, &core.chains);
        let (key, rec) = seed_segment(md, chains);
        let report = repair(&core, &cfg, &[0, 1]);
        assert_eq!(report.lost_records, 1);
        assert_eq!(report.lost_bytes, 128);
        assert_eq!(report.remaining_degraded, 1);
        // The record is left in place so reads fail with context.
        assert_eq!(md.get(&key).1, Some(rec));
    }

    #[test]
    fn healthy_records_are_untouched() {
        let (core, cfg) = harness();
        let (md, chains) = (&core.metadata, &core.chains);
        let (key, rec) = seed_segment(md, chains);
        // Node 3 hosts neither copy.
        let report = repair(&core, &cfg, &[3]);
        assert_eq!(report.scanned_records, 1);
        assert_eq!(report.repaired_primary + report.repaired_replica, 0);
        assert_eq!(md.get(&key).1, Some(rec));
    }
}
