//! Background integrity scrubber: walk the metadata index, verify every
//! stamped copy against its write-commit checksum, and repair corrupt
//! copies online — the proactive half of the end-to-end integrity plane
//! (the reactive half lives in the read path, which reroutes around a bad
//! copy and enqueues it here).
//!
//! The scrubber is structured like the tiering engine: a pass is a
//! budgeted, per-node unit of work ([`scrub_pass`]) that any caller can
//! drive synchronously ([`ScrubHandle::scrub_now`]), and
//! [`ScrubDaemon`] runs one actor thread per node that ticks passes in
//! the background. The daemon is config-gated
//! ([`ScrubConfig::enabled`], default **off**) and spawns no threads at
//! all when disabled, so the default job pays nothing for it.
//!
//! A pass does two things, in order:
//!
//! 1. **Targeted repairs** — drain the job's [`CorruptQueue`] of the bad
//!    copies readers reported (this node's share: entries whose corrupt
//!    copy lives on a chain owned by this node's ranks), re-verify each
//!    against the current index entry (the report may be stale — the
//!    record can have been overwritten, migrated, or already repaired),
//!    and rebuild the ones still bad.
//! 2. **Index walk** — resume the node's cursor over `(fid, offset)`
//!    space, verify up to [`MAX_SEGMENTS_PER_PASS`] of this node's
//!    records (both copies when replicated), repair what fails,
//!    and opportunistically stamp unstamped records whose content is
//!    unambiguous.
//!
//! A corrupt copy is rebuilt from the record's other, verified copy onto
//! the bad copy's own chain, so placement and locality are unchanged — one
//! `Maint::relocate` (DESIGN.md §11), which also makes a record
//! overwritten mid-repair win the race. Appending through the chain clears
//! any injected corruption registered over the new span
//! (`FaultInjector::on_append`), so the repaired copy is genuinely clean.
//!
//! [`ScrubConfig::enabled`]: crate::config::ScrubConfig

use crate::maint::{Gates, Maint, Move, Moved, NodeActors, Place};
use crate::metadata::{ClientId, SegKey, SegmentRecord};
use crate::metrics::VerifySite;
use crate::server::UniviStorJob;
use crate::va::VirtualAddr;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use univistor_sim::SimResult;

/// Most segment records one pass verifies per node (rate limit, so the
/// scrubber steals bounded work from the data plane).
pub const MAX_SEGMENTS_PER_PASS: usize = 256;

/// One bad copy a reader (or flush) detected: the record's key and the
/// exact `(client, va)` span that failed its verify. The scrubber treats
/// this as a hint, not a fact — it re-verifies against the live index
/// before touching anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptReport {
    /// Metadata key of the record whose copy failed.
    pub key: SegKey,
    /// Owner of the corrupt span.
    pub client: ClientId,
    /// Record-base VA of the corrupt span.
    pub va: VirtualAddr,
    /// Full record length.
    pub len: u64,
}

/// The job-level queue of reader-reported bad copies, drained by scrub
/// passes. The data path touches it only on a verify *failure*, so a
/// plain mutex'd vec is plenty; `len` is mirrored in an atomic so
/// telemetry probes never take the lock.
#[derive(Debug, Default)]
pub struct CorruptQueue {
    reports: Mutex<Vec<CorruptReport>>,
    pending: AtomicUsize,
}

impl CorruptQueue {
    /// Enqueue a report, deduplicating exact repeats (the same bad copy
    /// is typically hit by every read of its record until repaired).
    pub fn push(&self, report: CorruptReport) {
        let mut reports = self.reports.lock().expect("corrupt queue poisoned");
        if !reports.contains(&report) {
            reports.push(report);
            self.pending.store(reports.len(), Ordering::Release);
        }
    }

    /// Remove and return every report whose corrupt copy `pred` claims
    /// (per-node draining: each scrub actor takes only its own share).
    pub fn drain_matching(&self, pred: impl Fn(&CorruptReport) -> bool) -> Vec<CorruptReport> {
        let mut reports = self.reports.lock().expect("corrupt queue poisoned");
        let mut mine = Vec::new();
        reports.retain(|r| {
            if pred(r) {
                mine.push(*r);
                false
            } else {
                true
            }
        });
        self.pending.store(reports.len(), Ordering::Release);
        mine
    }

    /// Reports waiting for repair (lock-free).
    pub fn len(&self) -> usize {
        self.pending.load(Ordering::Acquire)
    }

    /// Whether no reports are waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Outcome of one scrub pass (or an aggregation of passes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Index records this pass examined in its walk.
    pub scanned_records: u64,
    /// Copies that failed their checksum verify (walk and queue drain).
    pub corrupt_copies: u64,
    /// Corrupt copies rebuilt from a verified clean copy.
    pub repaired_copies: u64,
    /// Corrupt copies left in place: no healthy verified source, no room
    /// for the fresh span, or the repair lost a race to an overwrite.
    pub unrepaired_copies: u64,
    /// Unstamped records stamped from unambiguous content.
    pub restamped_records: u64,
    /// Reader reports drained from the queue by this pass.
    pub queued_reports: u64,
    /// True when the pass found another pass for the same node running
    /// and did nothing.
    pub skipped: bool,
}

impl ScrubReport {
    /// Fold another pass into this one. `skipped` ANDs: an aggregate
    /// counts as skipped only when every pass was.
    pub fn absorb(&mut self, other: &ScrubReport) {
        self.scanned_records += other.scanned_records;
        self.corrupt_copies += other.corrupt_copies;
        self.repaired_copies += other.repaired_copies;
        self.unrepaired_copies += other.unrepaired_copies;
        self.restamped_records += other.restamped_records;
        self.queued_reports += other.queued_reports;
        self.skipped &= other.skipped;
    }
}

/// Shared scrub engine state on the job: per-node walk cursors, per-node
/// pass gates, and the lifetime pass counter.
#[derive(Debug, Default)]
pub(crate) struct ScrubState {
    /// node → next `(fid, offset)` to examine; absent means start over.
    cursors: Mutex<HashMap<usize, (u64, u64)>>,
    /// One gate per node: a pass `try_lock`s it and reports `skipped`
    /// when another pass for the same node is already running.
    gates: Gates<usize>,
    pub(crate) passes: AtomicU64,
}

impl ScrubState {
    fn cursor(&self, node: usize) -> (u64, u64) {
        *self
            .cursors
            .lock()
            .expect("scrub cursors poisoned")
            .get(&node)
            .unwrap_or(&(0, 0))
    }

    fn set_cursor(&self, node: usize, cursor: (u64, u64)) {
        self.cursors
            .lock()
            .expect("scrub cursors poisoned")
            .insert(node, cursor);
    }
}

/// Rebuild the corrupt copy `bad` of `rec` from the other copy, onto the
/// bad copy's own chain.
fn rebuild(
    m: &Maint,
    key: SegKey,
    rec: SegmentRecord,
    bad: (ClientId, VirtualAddr),
    report: &mut ScrubReport,
) -> SimResult<()> {
    let primary = (rec.client, rec.va);
    let source = if bad == primary {
        rec.replica
    } else {
        Some(primary)
    };
    // A copy on a failed node is the repair module's problem (the span is
    // *gone*, not corrupt): never read it.
    let Some(from) = source.filter(|&(c, _)| !m.node_failed(c)) else {
        report.unrepaired_copies += 1;
        return Ok(());
    };
    let to = Place {
        client: bad.0,
        floor: 0,
        exact: false,
    };
    let mv = Move {
        key,
        rec,
        from,
        site: VerifySite::Scrub,
        to: Some(to),
    };
    let moved = m.relocate(&mv, |fresh| {
        fresh.map(|(client, va)| match bad == primary {
            true => SegmentRecord { va, ..rec },
            false => SegmentRecord {
                replica: Some((client, va)),
                ..rec
            },
        })
    })?;
    match moved {
        Moved::Swapped(_) => {
            m.metrics.record_scrub_repair();
            report.repaired_copies += 1;
        }
        // Both copies bad, nothing clean to rebuild from. Count the second
        // copy's failure — the caller only verified the first.
        Moved::Corrupt => {
            report.corrupt_copies += 1;
            report.unrepaired_copies += 1;
        }
        // Unreadable source, no room for one contiguous span, or an
        // overwrite won: the record stays readable through its clean copy
        // (or is the overwrite's now); a later pass retries.
        _ => report.unrepaired_copies += 1,
    }
    Ok(())
}

/// Whether `copy` reads back but fails `sum` (counted at the scrub
/// site). A copy on a failed node or one that cannot be read right now is
/// not this pass's to judge.
fn fails_verify(m: &Maint, copy: (ClientId, VirtualAddr), len: u64, sum: u64) -> bool {
    if m.node_failed(copy.0) {
        return false;
    }
    let Ok(payload) = m.read_copy(copy, len) else {
        return false;
    };
    let bad = !m.verifier.verify(VerifySite::Scrub, &payload, sum);
    if bad {
        m.metrics.record_verify_failure(VerifySite::Scrub);
    }
    bad
}

/// Verify both copies of one stamped record, repairing whichever fails.
fn verify_record(
    m: &Maint,
    key: SegKey,
    rec: SegmentRecord,
    report: &mut ScrubReport,
) -> SimResult<()> {
    let Some(sum) = rec.checksum else {
        return restamp_record(m, key, rec, report);
    };
    if fails_verify(m, (rec.client, rec.va), rec.len, sum) {
        report.corrupt_copies += 1;
        rebuild(m, key, rec, (rec.client, rec.va), report)?;
        // The record may have been swapped by the repair; the replica
        // (unchanged by a primary repair) is still worth checking below
        // against the original coordinates.
    }
    if let Some(replica) = rec.replica {
        if fails_verify(m, replica, rec.len, sum) {
            report.corrupt_copies += 1;
            // Re-read the live record: a primary repair above replaced the
            // index entry, and the replica swap must CAS against the
            // *current* one.
            let (_, Some(current)) = m.core.metadata.get(&key) else {
                report.unrepaired_copies += 1;
                return Ok(());
            };
            if current.replica == rec.replica && current.checksum == Some(sum) {
                rebuild(m, key, current, replica, report)?;
            } else {
                report.unrepaired_copies += 1;
            }
        }
    }
    Ok(())
}

/// Stamp an unstamped record (pre-integrity data, or an overwrite
/// fragment committed without a sub-span hash) so future reads and
/// passes can verify it. Only unambiguous content is stamped: a single
/// copy's bytes are by definition the record's content, and a
/// replicated record is stamped only when both copies hash identically —
/// disagreeing copies mean one is already rotten and stamping either
/// would launder the corruption.
fn restamp_record(
    m: &Maint,
    key: SegKey,
    rec: SegmentRecord,
    report: &mut ScrubReport,
) -> SimResult<()> {
    if !m.cfg.integrity.checksums || m.node_failed(rec.client) {
        return Ok(());
    }
    let Ok(payload) = m.read_copy((rec.client, rec.va), rec.len) else {
        return Ok(());
    };
    let sum = m.verifier.stamp(&payload);
    if let Some((rc, rva)) = rec.replica {
        if m.node_failed(rc) {
            // Cannot compare against the lost copy; leave it for repair.
            return Ok(());
        }
        let Ok(mirror) = m.read_copy((rc, rva), rec.len) else {
            return Ok(());
        };
        if !m.verifier.verify(VerifySite::Scrub, &mirror, sum) {
            m.metrics.record_verify_failure(VerifySite::Scrub);
            report.corrupt_copies += 1;
            report.unrepaired_copies += 1;
            return Ok(());
        }
    }
    let new_rec = SegmentRecord {
        checksum: Some(sum),
        ..rec
    };
    let producer_node = m.node_of(rec.client);
    if m.core
        .metadata
        .replace_if_current(key, &rec, new_rec, producer_node)
        .1
    {
        report.restamped_records += 1;
    }
    Ok(())
}

/// Run one scrub pass for `node`: drain this node's share of the corrupt
/// queue, then walk up to [`MAX_SEGMENTS_PER_PASS`] of this node's records
/// from the resumable cursor. Returns a skipped report when a pass for
/// the same node is already running.
pub(crate) fn run_scrub_pass(m: &Maint, job: &UniviStorJob, node: usize) -> SimResult<ScrubReport> {
    let (state, queue) = (job.scrub_state(), job.corrupt_queue());
    let mut report = ScrubReport::default();
    let gate = state.gates.get(node);
    let Ok(_node_gate) = gate.try_lock() else {
        report.skipped = true;
        return Ok(report);
    };
    state.passes.fetch_add(1, Ordering::Relaxed);

    // Phase 1: targeted repairs of reader-reported bad copies owned by
    // this node's ranks.
    let mine = queue.drain_matching(|r| m.node_of(r.client) == node);
    for hint in mine {
        report.queued_reports += 1;
        // Re-verify against the live index: the record may have been
        // overwritten, migrated, or repaired since the report.
        let (_, Some(rec)) = m.core.metadata.get(&hint.key) else {
            continue;
        };
        let Some(sum) = rec.checksum else { continue };
        let bad = (hint.client, hint.va);
        if bad != (rec.client, rec.va) && rec.replica != Some(bad) {
            continue; // stale: the span the reader saw is gone
        }
        if m.node_failed(hint.client) {
            continue; // node loss superseded the corruption
        }
        // Still corrupt? (A concurrent repair may have fixed it, or the
        // read may fail transiently — retry on a later pass.)
        let Ok(payload) = m.read_copy(bad, rec.len) else {
            queue.push(hint);
            continue;
        };
        if m.verifier.verify(VerifySite::Scrub, &payload, sum) {
            continue;
        }
        report.corrupt_copies += 1;
        rebuild(m, hint.key, rec, bad, &mut report)?;
    }

    // Phase 2: resumable index walk over this node's records.
    let mut budget = MAX_SEGMENTS_PER_PASS;
    let mut files: Vec<(u64, u64)> = m.files.iter().map(|f| (f.fid, f.size)).collect();
    files.sort_unstable();
    let (cur_fid, cur_off) = state.cursor(node);
    let mut next_cursor: Option<(u64, u64)> = None;
    'walk: for &(fid, size) in files.iter().filter(|&&(fid, _)| fid >= cur_fid) {
        if size == 0 {
            continue;
        }
        let start = if fid == cur_fid { cur_off } else { 0 };
        if start >= size {
            continue;
        }
        let (_, records) = m.core.metadata.lookup_range(fid, start, size);
        for (key, rec) in records {
            if m.node_of(rec.client) != node {
                continue;
            }
            if budget == 0 {
                next_cursor = Some((fid, key.offset));
                break 'walk;
            }
            budget -= 1;
            report.scanned_records += 1;
            verify_record(m, key, rec, &mut report)?;
        }
    }
    // Budget exhausted mid-walk resumes there next pass; a completed
    // sweep wraps around to the start.
    state.set_cursor(node, next_cursor.unwrap_or((0, 0)));
    m.metrics.record_scrub_segments(report.scanned_records);
    Ok(report)
}

/// The scrub control surface, from [`UniviStorJob::scrub`]: run passes
/// synchronously and inspect the repair backlog.
pub struct ScrubHandle<'a> {
    job: &'a UniviStorJob,
}

impl<'a> ScrubHandle<'a> {
    pub(crate) fn new(job: &'a UniviStorJob) -> Self {
        ScrubHandle { job }
    }

    /// Run one scrub pass on every node right now, aggregating the
    /// reports. Works whether or not the background daemon is enabled.
    pub fn scrub_now(&self) -> crate::error::Result<ScrubReport> {
        let mut total = ScrubReport {
            skipped: true,
            ..ScrubReport::default()
        };
        for node in 0..self.job.cfg().geometry.nodes {
            total.absorb(&self.job.scrub_pass(node)?);
        }
        Ok(total)
    }

    /// Reader-reported bad copies waiting for repair.
    pub fn pending_repairs(&self) -> usize {
        self.job.corrupt_queue().len()
    }

    /// Lifetime scrub passes run (synchronous and daemon).
    pub fn passes(&self) -> u64 {
        self.job.scrub_state().passes.load(Ordering::Relaxed)
    }
}

/// The background scrubber: one OS thread per node, each running a scrub
/// pass every [`ScrubConfig::interval_ms`] until stopped or dropped.
/// With scrubbing disabled in the job's config, `spawn` starts no
/// threads at all.
///
/// [`ScrubConfig::interval_ms`]: crate::config::ScrubConfig
#[derive(Debug)]
pub struct ScrubDaemon(NodeActors);

impl ScrubDaemon {
    /// Start the per-node actors for `job`.
    pub fn spawn(job: Arc<UniviStorJob>) -> Self {
        let cfg = job.cfg().integrity.scrub;
        let interval = Duration::from_millis(cfg.interval_ms);
        ScrubDaemon(NodeActors::spawn(
            job,
            cfg.enabled,
            interval,
            |job, node| {
                let _ = job.scrub_pass(node);
            },
        ))
    }

    /// Number of actor threads running (0 when scrubbing is disabled).
    pub fn actors(&self) -> usize {
        self.0.actors()
    }

    /// Signal all actors and wait for them to exit (dropping does the
    /// same).
    pub fn shutdown(mut self) {
        self.0.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupt_queue_dedups_and_drains_by_owner() {
        let q = CorruptQueue::default();
        let report = |rank: u32| CorruptReport {
            key: SegKey { fid: 1, offset: 0 },
            client: ClientId::new(0, rank),
            va: VirtualAddr(0),
            len: 64,
        };
        q.push(report(0));
        q.push(report(0)); // exact repeat: deduplicated
        q.push(report(1));
        assert_eq!(q.len(), 2);
        let mine = q.drain_matching(|r| r.client.rank == 0);
        assert_eq!(mine.len(), 1);
        assert_eq!(q.len(), 1, "other owner's report stays queued");
        assert!(!q.is_empty());
        let rest = q.drain_matching(|_| true);
        assert_eq!(rest.len(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn scrub_report_absorb_sums_and_ands_skipped() {
        let mut total = ScrubReport {
            skipped: true,
            ..ScrubReport::default()
        };
        total.absorb(&ScrubReport {
            scanned_records: 3,
            corrupt_copies: 1,
            repaired_copies: 1,
            skipped: true,
            ..ScrubReport::default()
        });
        assert!(total.skipped, "all skipped so far");
        total.absorb(&ScrubReport {
            scanned_records: 2,
            skipped: false,
            ..ScrubReport::default()
        });
        assert_eq!(total.scanned_records, 5);
        assert_eq!(total.repaired_copies, 1);
        assert!(!total.skipped, "one real pass makes the aggregate real");
    }

    #[test]
    fn cursor_state_round_trips_and_defaults_to_origin() {
        let state = ScrubState::default();
        assert_eq!(state.cursor(0), (0, 0));
        state.set_cursor(0, (7, 4096));
        assert_eq!(state.cursor(0), (7, 4096));
        assert_eq!(state.cursor(1), (0, 0), "cursors are per node");
    }
}
