//! Background tiering: the always-on, watermark-driven migration engine
//! that turns the paper's one-shot close-time flush (§7) into continuous
//! placement management. One logical actor per node runs three phases:
//!
//! 1. **Spill** — when a tier's live bytes cross its high watermark the
//!    coldest segments move down the chain (DRAM → node-local → burst
//!    buffer) until the low watermark is reached, so incoming writes keep
//!    landing on the fastest layer.
//! 2. **Drain** — cold coalesced spans of open files are copied ahead to
//!    their Lustre destination while writes proceed. Each copied span is
//!    remembered in a [`DrainLedger`]; the close-time flush then skips
//!    every span whose ledger entry still matches the live index, making
//!    close a fast catch-up instead of a stop-the-world event.
//! 3. **Promote** — hot segments (per the read heat each node buffer keeps
//!    beside its records; a node's pass walks only its own buffer) move up
//!    to the chain's top layer when the Unimem-style benefit/cost score
//!    `heat × (c_src − c_dst) / (c_src + c_dst)` clears the policy's
//!    threshold.
//!
//! Spill and promotion moves are each one `Maint::relocate` of the
//! primary within its own chain (DESIGN.md §11). Drain guards against
//! A-B-A overwrites with a file-generation check, and a per-file gate
//! serializes drain/flush so a close never reads spans the daemon is
//! concurrently retiring.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use crate::config::{PromotionPolicy, UniviStorConfig};
use crate::error::Result;
use crate::flush::{create_destination, write_stripes};
use crate::maint::{Gates, Maint, Move, Moved, NodeActors, Place};
use crate::metadata::{SegKey, SegmentRecord};
use crate::metrics::{Fam, VerifySite};
use crate::server::UniviStorJob;
use crate::striping::StripePlan;
use crate::va::Tier;
use univistor_sim::SimResult;

/// Relative access cost of a tier, after Unimem's NVM/DRAM cost model:
/// larger is slower. The absolute scale cancels out of the promotion
/// score; only the ratios matter.
pub fn tier_cost(tier: Tier) -> f64 {
    match tier {
        Tier::Dram => 1.0,
        Tier::NodeLocal => 4.0,
        Tier::SharedBurstBuffer => 8.0,
        Tier::Pfs => 32.0,
    }
}

/// Unimem-style benefit/cost score of moving a segment with `heat`
/// recorded reads from `from` to `to`: expected read savings
/// (`heat × (c_src − c_dst)`) normalized by the migration cost
/// (`c_src + c_dst` — one read from the source plus one write to the
/// destination). Positive only for upward moves.
pub fn promotion_score(heat: u32, from: Tier, to: Tier) -> f64 {
    let c_src = tier_cost(from);
    let c_dst = tier_cost(to);
    heat as f64 * (c_src - c_dst) / (c_src + c_dst)
}

/// Spans of one open file already copied ahead to the PFS destination.
///
/// `spans` maps segment offset → the exact [`SegmentRecord`] whose bytes
/// were copied; the close-time flush skips a span only when the live
/// index still holds that identical record (overwrites bump the file
/// generation and invalidate entries eagerly, so a stale copy is never
/// trusted). `plan` is the striping decision the destination was created
/// with — the catch-up flush reuses it so drained and flushed bytes agree
/// on layout and server attribution.
#[derive(Debug, Clone)]
pub struct DrainLedger {
    /// Striping plan the destination file was created with.
    pub(crate) plan: StripePlan,
    /// Offset → record copied to the destination.
    pub(crate) spans: BTreeMap<u64, SegmentRecord>,
}

/// Counters of one tiering pass on one node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TieringPassReport {
    /// Segments spilled down a layer.
    pub spilled_segments: u64,
    /// Bytes spilled down a layer.
    pub spilled_bytes: u64,
    /// Cold segments copied ahead to the PFS.
    pub drained_segments: u64,
    /// Bytes copied ahead to the PFS.
    pub drained_bytes: u64,
    /// Segments promoted to the chain's top layer.
    pub promoted_segments: u64,
    /// Heat-counter entries halved by this pass's decay tick.
    pub heat_entries_decayed: u64,
    /// True when the pass was skipped because another pass for the same
    /// node was already running.
    pub skipped: bool,
}

impl TieringPassReport {
    /// Fold `other` into `self` (multi-node aggregation).
    pub fn absorb(&mut self, other: &TieringPassReport) {
        self.spilled_segments += other.spilled_segments;
        self.spilled_bytes += other.spilled_bytes;
        self.drained_segments += other.drained_segments;
        self.drained_bytes += other.drained_bytes;
        self.promoted_segments += other.promoted_segments;
        self.heat_entries_decayed += other.heat_entries_decayed;
        self.skipped &= other.skipped;
    }
}

/// Lifetime totals of the tiering engine, via [`TieringHandle::stats`]:
/// the job panel's `univistor_tiering_*` counters plus the engine's
/// current ledger size and pause state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TieringStats {
    /// Passes run (manual and automatic, all nodes).
    pub passes: u64,
    /// Segments spilled down a layer.
    pub spilled_segments: u64,
    /// Bytes spilled down a layer.
    pub spilled_bytes: u64,
    /// Cold segments copied ahead to the PFS.
    pub drained_segments: u64,
    /// Bytes copied ahead to the PFS.
    pub drained_bytes: u64,
    /// Segments promoted to the chain's top layer.
    pub promoted_segments: u64,
    /// Heat-decay ticks applied.
    pub heat_decays: u64,
    /// Bytes the close-time flush skipped because the daemon had already
    /// drained them.
    pub catchup_skipped_bytes: u64,
    /// Drained spans currently remembered (not yet consumed by a flush
    /// or invalidated by an overwrite).
    pub ledger_spans: u64,
    /// True while the engine is paused.
    pub paused: bool,
}

/// Which phases one invocation of the pass runs, and under which
/// promotion policy.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PassOptions {
    pub spill: bool,
    pub drain: bool,
    pub promote: bool,
    pub decay: bool,
    pub policy: PromotionPolicy,
}

impl PassOptions {
    /// Everything the daemon runs on its cadence, policy from `cfg`.
    pub(crate) fn full(cfg: &UniviStorConfig) -> Self {
        PassOptions {
            spill: true,
            drain: true,
            promote: true,
            decay: true,
            policy: cfg.tiering.promotion,
        }
    }

    /// Drain only — [`TieringHandle::drain_now`].
    pub(crate) fn drain_only() -> Self {
        PassOptions {
            spill: false,
            drain: true,
            promote: false,
            decay: false,
            policy: PromotionPolicy::default(),
        }
    }

    /// Promotion only, under an explicit policy
    /// ([`TieringHandle::promote_now`]).
    pub(crate) fn promote_only(policy: PromotionPolicy) -> Self {
        PassOptions {
            spill: false,
            drain: false,
            promote: true,
            decay: false,
            policy,
        }
    }
}

/// Shared mutable state of the tiering engine, owned by the job. What the
/// engine has *done* is counted on the job panel only.
#[derive(Debug, Default)]
pub(crate) struct TieringState {
    /// Pause flag ([`TieringHandle::pause`]); automatic passes check it,
    /// explicit `drain_now`/`promote_now` calls do not.
    pub(crate) paused: AtomicBool,
    /// Writes observed since open, for the drain cadence.
    pub(crate) write_ops: AtomicU64,
    /// Monotonic pass tick driving periodic heat decay.
    pass_clock: AtomicU64,
    /// Total spans across all drain ledgers — the write path's zero-cost
    /// fast check before taking the ledger lock.
    ledger_spans: AtomicU64,
    /// fid → drained-ahead spans.
    drain: Mutex<HashMap<u64, DrainLedger>>,
    /// (fid, node) → file generation at the last drain sweep that saw
    /// that node's whole cold set. While the generation is unchanged
    /// (every write and CAS bumps it) the node's pass skips the
    /// file's index scan outright, so steady-state passes over a quiet
    /// file cost O(1). Keyed per node because each pass only sweeps the
    /// records its own node holds. Heat decay clears the memo, since
    /// cooling can make spans drainable without touching the generation.
    drain_gen: Mutex<HashMap<(u64, usize), u64>>,
    /// fid → gate serializing drain passes against the close-time flush.
    /// A pass `try_lock`s it (skipping the file when contended); the flush
    /// blocks on it so no drain write or migration release races the
    /// flush's chain reads.
    pub(crate) fid_gates: Gates<u64>,
    /// node → gate ensuring at most one pass per node at a time.
    node_gates: Gates<usize>,
}

impl TieringState {
    fn ledgers(&self) -> MutexGuard<'_, HashMap<u64, DrainLedger>> {
        self.drain.lock().expect("drain ledger poisoned")
    }

    fn memo(&self) -> MutexGuard<'_, HashMap<(u64, usize), u64>> {
        self.drain_gen.lock().expect("drain memo poisoned")
    }

    /// Drop ledger entries overlapping `[lo, hi)` of `fid`. Called by the
    /// write path after every committed write; the leading atomic check
    /// keeps the disabled-daemon cost at one relaxed load.
    pub(crate) fn invalidate(&self, fid: u64, lo: u64, hi: u64) {
        if self.ledger_spans.load(Ordering::Acquire) == 0 {
            return;
        }
        let mut drain = self.ledgers();
        let Some(ledger) = drain.get_mut(&fid) else {
            return;
        };
        // A span starting left of `lo` can still reach into the window.
        let scan_from = ledger
            .spans
            .range(..lo)
            .next_back()
            .map(|(o, _)| *o)
            .unwrap_or(lo);
        let doomed: Vec<u64> = ledger
            .spans
            .range(scan_from..hi)
            .filter(|(o, r)| **o + r.len > lo)
            .map(|(o, _)| *o)
            .collect();
        for offset in doomed {
            ledger.spans.remove(&offset);
            self.ledger_spans.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Consume `fid`'s ledger for a catch-up flush. Call with the file's
    /// gate held.
    pub(crate) fn take_ledger(&self, fid: u64) -> Option<DrainLedger> {
        if self.ledger_spans.load(Ordering::Acquire) == 0 {
            return None;
        }
        self.memo().retain(|(f, _), _| *f != fid);
        let taken = self.ledgers().remove(&fid)?;
        self.ledger_spans
            .fetch_sub(taken.spans.len() as u64, Ordering::AcqRel);
        Some(taken)
    }
}

/// One file's share of a pass's index scan: index into [`Maint::files`],
/// the file generation captured just before the scan, and this node's
/// records (offset-sorted).
type ScannedFile = (usize, u64, Vec<(SegKey, SegmentRecord)>);

/// Run one tiering pass for `node`. Returns a skipped report when a pass
/// for the same node is already running.
pub(crate) fn run_pass(
    m: &Maint,
    job: &UniviStorJob,
    node: usize,
    opts: &PassOptions,
) -> SimResult<TieringPassReport> {
    let state = job.tiering_state();
    let mut report = TieringPassReport::default();
    let gate = state.node_gates.get(node);
    let Ok(_node_gate) = gate.try_lock() else {
        report.skipped = true;
        return Ok(report);
    };
    m.metrics.record_tiering_pass();

    if opts.decay {
        let every = m.cfg.tiering.heat_decay_passes;
        if every > 0 {
            let tick = state.pass_clock.fetch_add(1, Ordering::Relaxed) + 1;
            if tick.is_multiple_of(every) {
                report.heat_entries_decayed = m.core.metadata.decay_heat();
                m.metrics.record_tiering_decay();
                // Cooling can turn hot spans drainable without bumping
                // any file generation, so the skip memo is void.
                state.memo().clear();
            }
        }
    }

    // One index scan shared by the spill and drain phases: this node's
    // records per file, offset-sorted (lookup_range returns them
    // sorted), with the file generation captured just before the scan.
    // The scan is the expensive part of a pass — it clones records and
    // briefly locks every metadata partition — so two gates keep the
    // steady state cheap: spill scans only when some layer on this node
    // is actually over its high watermark, and drain scans a file only
    // when its generation moved since the last complete sweep.
    let mut mine: Vec<ScannedFile> = Vec::new();
    let spill_needed = opts.spill && spill_pressure(m, node);
    if spill_needed || opts.drain {
        for (i, file) in m.files.iter().enumerate() {
            if file.size == 0 {
                continue;
            }
            let gen = m.core.metadata.generation(file.fid);
            let drain_wants =
                opts.drain && file.open && state.memo().get(&(file.fid, node)) != Some(&gen);
            if !spill_needed && !drain_wants {
                continue;
            }
            let (_, records) = m.core.metadata.lookup_range(file.fid, 0, file.size);
            let owned: Vec<_> = records
                .into_iter()
                .filter(|(_, r)| m.node_of(r.client) == node)
                .collect();
            if !owned.is_empty() {
                mine.push((i, gen, owned));
            }
        }
    }

    if spill_needed {
        spill_phase(m, state, node, &mine, &mut report)?;
    }
    if opts.drain {
        drain_phase(m, job, node, &mine, &mut report)?;
    }
    if opts.promote {
        promote_phase(m, state, node, &opts.policy, &mut report)?;
    }
    Ok(report)
}

/// True when any capped layer of any of `node`'s chains sits above its
/// high watermark — the cheap pre-check that decides whether the spill
/// phase needs the index scan at all.
fn spill_pressure(m: &Maint, node: usize) -> bool {
    m.clients_on(node).into_iter().any(|client| {
        let Ok(usage) = m.core.chains.with(client, |c| c.layer_usage()) else {
            return false;
        };
        usage
            .iter()
            .take(usage.len().saturating_sub(1))
            .any(|&(tier, live, cap)| {
                cap != u64::MAX
                    && m.cfg
                        .tiering
                        .watermarks(tier)
                        .is_some_and(|wm| live > (cap as f64 * wm.high) as u64)
            })
    })
}

/// Move `rec`'s primary within its own chain to layer `floor` or below
/// (exactly onto `floor` when `exact`); true when the swap landed.
fn shift(m: &Maint, key: SegKey, rec: SegmentRecord, floor: usize, exact: bool) -> SimResult<bool> {
    let mv = Move {
        key,
        rec,
        from: (rec.client, rec.va),
        site: VerifySite::Tiering,
        to: Some(Place {
            client: rec.client,
            floor,
            exact,
        }),
    };
    let moved = m.relocate(&mv, |fresh| {
        fresh.map(|(_, va)| SegmentRecord { va, ..rec })
    })?;
    Ok(matches!(moved, Moved::Swapped(_)))
}

/// Spill phase: walk each of the node's chains top-down; any layer above
/// its high watermark sheds its coldest segments to the next layer down
/// until it reaches the low watermark (or the pass batch runs out). The
/// trigger is strictly greater-than, so a tier sitting exactly at the
/// watermark is left alone.
fn spill_phase(
    m: &Maint,
    state: &TieringState,
    node: usize,
    mine: &[ScannedFile],
    report: &mut TieringPassReport,
) -> SimResult<()> {
    let mut budget = m.cfg.tiering.spill_batch;
    for client in m.clients_on(node) {
        if budget == 0 {
            break;
        }
        let Ok((usage, tiers)) = m
            .core
            .chains
            .with(client, |c| (c.layer_usage(), c.tiers().clone()))
        else {
            continue;
        };
        // This client's segments with their current layer, for cold-first
        // candidate selection.
        let pool: Vec<(SegKey, SegmentRecord, usize, u32)> = mine
            .iter()
            .flat_map(|(_, _, records)| records.iter())
            .filter(|(_, r)| r.client == client)
            .map(|(k, r)| {
                (
                    *k,
                    *r,
                    tiers.decode(r.va).0,
                    m.core.metadata.heat(*k, client),
                )
            })
            .collect();
        // The last layer (PFS) has nowhere to spill to.
        let spillable = usage.len().saturating_sub(1);
        for (layer, &(tier, live, cap)) in usage.iter().enumerate().take(spillable) {
            if cap == u64::MAX {
                continue;
            }
            let Some(wm) = m.cfg.tiering.watermarks(tier) else {
                continue;
            };
            let high = (cap as f64 * wm.high) as u64;
            if live <= high {
                continue;
            }
            let floor = (cap as f64 * wm.low) as u64;
            let mut need = live.saturating_sub(floor);
            let mut cands: Vec<&(SegKey, SegmentRecord, usize, u32)> =
                pool.iter().filter(|(_, _, l, _)| *l == layer).collect();
            cands.sort_by_key(|(k, _, _, h)| (*h, k.offset));
            for (key, scanned, _, _) in cands {
                if need == 0 || budget == 0 {
                    break;
                }
                let gate = state.fid_gates.get(key.fid);
                let Ok(_gate) = gate.try_lock() else {
                    continue; // a flush owns this file right now
                };
                // Refresh: the snapshot may be stale by now.
                let (_, Some(current)) = m.core.metadata.get(key) else {
                    continue;
                };
                if current != *scanned || tiers.decode(current.va).0 != layer {
                    continue; // overwritten or already migrated
                }
                if shift(m, *key, current, layer + 1, false)? {
                    need = need.saturating_sub(current.len);
                    budget -= 1;
                    report.spilled_segments += 1;
                    report.spilled_bytes += current.len;
                    m.metrics.record_tiering_spill(tier, current.len);
                }
            }
        }
    }
    Ok(())
}

/// Drain phase: copy cold spans of *open* files ahead to their Lustre
/// destination and remember them in the file's ledger. Only files still
/// open for write are drained — after the close-time flush the
/// destination holds the finished file, and recreating it here would
/// clobber it.
fn drain_phase(
    m: &Maint,
    job: &UniviStorJob,
    node: usize,
    mine: &[ScannedFile],
    report: &mut TieringPassReport,
) -> SimResult<()> {
    let state = job.tiering_state();
    for (file_idx, scan_gen, records) in mine {
        let file = &m.files[*file_idx];
        let (fid, path, size) = (file.fid, &file.path, file.size);
        if !file.open || size == 0 {
            continue;
        }
        // The scan may have run for the spill phase's sake; skip files
        // the memo says are already fully swept at this generation.
        if state.memo().get(&(fid, node)) == Some(scan_gen) {
            continue;
        }
        let gate = state.fid_gates.get(fid);
        let Ok(_gate) = gate.try_lock() else {
            continue; // close-time flush in progress
        };
        // The snapshot's open flag may have gone stale while this pass
        // was running: a close-time flush could have already finished
        // and draining now would recreate (and so wipe) the flushed
        // destination. Re-check under the gate, which the close cannot
        // overtake.
        if !job.is_open(fid) {
            continue;
        }
        // Cold (no read recorded since the last decay), healthy, not
        // already drained; offset order up to the batch size. The heat
        // and failed-node filters run outside the ledger mutex, and the
        // already-drained check holds it only in short bursts — the write
        // path's invalidation waits on the same mutex, and a long scan
        // here would stall every concurrent write. A span invalidated
        // between bursts is simply picked up again by a later pass.
        let cold: Vec<&(SegKey, SegmentRecord)> = records
            .iter()
            .filter(|(k, r)| m.core.metadata.heat(*k, r.client) == 0 && !m.node_failed(r.client))
            .collect();
        let mut candidates: Vec<&(SegKey, SegmentRecord)> = Vec::new();
        for burst in cold.chunks(64) {
            if candidates.len() >= m.cfg.tiering.drain_batch {
                break;
            }
            let drain = state.ledgers();
            let ledger = drain.get(&fid);
            for entry @ (k, r) in burst {
                if candidates.len() >= m.cfg.tiering.drain_batch {
                    break;
                }
                if ledger.is_none_or(|l| l.spans.get(&k.offset) != Some(r)) {
                    candidates.push(entry);
                }
            }
        }
        // A sweep that saw the whole cold set (not cut off by the batch
        // budget) and leaves nothing behind is recorded in the memo, so
        // later passes skip this file until its generation moves.
        let mut clean = candidates.len() < m.cfg.tiering.drain_batch;
        if candidates.is_empty() {
            if clean {
                state.memo().insert((fid, node), *scan_gen);
            }
            continue;
        }
        // First drain of this file: create the destination exactly as
        // the flush would.
        let existing = state.ledgers().get(&fid).map(|l| l.plan.clone());
        let plan = match existing {
            Some(plan) => plan,
            None => {
                let plan = create_destination(job.lustre(), m.cfg, path, size)?;
                let ledger = DrainLedger {
                    plan: plan.clone(),
                    spans: BTreeMap::new(),
                };
                state.ledgers().insert(fid, ledger);
                plan
            }
        };
        for (key, _) in candidates {
            // Generation fence: any write or CAS on this file between
            // here and the ledger commit bumps the generation, and the
            // copy is discarded instead of remembered.
            let gen0 = m.core.metadata.generation(fid);
            let (_, Some(rec)) = m.core.metadata.get(key) else {
                continue;
            };
            let Ok(payload) = m.read_copy((rec.client, rec.va), rec.len) else {
                clean = false; // transient failure: retry on a later pass
                continue;
            };
            // The drain's receipts are the ledger entries (the close-time
            // catch-up accounts them), so the write's stats are dropped.
            if write_stripes(job.lustre(), path, &plan, key.offset, payload).is_err() {
                clean = false;
                continue;
            }
            let mut drain = state.ledgers();
            let Some(ledger) = drain.get_mut(&fid) else {
                continue;
            };
            if m.core.metadata.generation(fid) == gen0 {
                if ledger.spans.insert(key.offset, rec).is_none() {
                    state.ledger_spans.fetch_add(1, Ordering::AcqRel);
                }
                report.drained_segments += 1;
                report.drained_bytes += rec.len;
                m.metrics.record_tiering_drain(rec.len);
            } else if ledger.spans.remove(&key.offset).is_some() {
                // A racing write landed mid-copy; the bytes on the PFS
                // may be stale, so forget them.
                state.ledger_spans.fetch_sub(1, Ordering::AcqRel);
            }
        }
        if clean {
            state.memo().insert((fid, node), *scan_gen);
        }
    }
    Ok(())
}

/// Promotion phase: move this node's segments whose heat and benefit/cost
/// score clear the policy up to the chain's top layer. Segments already on
/// layer 0 are skipped (which also covers DRAM-less chains, where layer
/// 0 is the node-local log).
fn promote_phase(
    m: &Maint,
    state: &TieringState,
    node: usize,
    policy: &PromotionPolicy,
    report: &mut TieringPassReport,
) -> SimResult<()> {
    let mut hot = m.core.metadata.hot(node, policy.min_reads);
    // Hottest first (key as tie-break): the scarce top layer goes to the
    // most-read segments, and the order — hence the whole pass — is
    // deterministic rather than at the mercy of map iteration order,
    // which the cross-runtime differential tests rely on.
    hot.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    for (key, heat) in hot {
        let gate = state.fid_gates.get(key.fid);
        let Ok(_gate) = gate.try_lock() else {
            continue;
        };
        let (_, Some(rec)) = m.core.metadata.get(&key) else {
            continue; // overwritten since it was read
        };
        if m.node_of(rec.client) != node {
            continue;
        }
        let Ok(tiers) = m.core.chains.with(rec.client, |c| c.tiers().clone()) else {
            continue; // producer never connected here
        };
        let layer = tiers.decode(rec.va).0;
        if layer == 0 {
            continue; // already on the fastest layer
        }
        if promotion_score(heat, tiers.tier(layer), tiers.tier(0)) < policy.min_benefit {
            continue; // not worth the migration bytes
        }
        if shift(m, key, rec, 0, true)? {
            report.promoted_segments += 1;
            m.metrics.record_tiering_promotion(rec.len);
        }
    }
    Ok(())
}

/// Control surface of the tiering engine, from [`UniviStorJob::tiering`].
///
/// `pause`/`resume` gate the *automatic* passes (daemon ticks and the
/// write-cadence trigger); the explicit [`TieringHandle::drain_now`] and
/// [`TieringHandle::run_pass`] calls always run.
#[derive(Clone, Copy)]
pub struct TieringHandle<'a> {
    job: &'a UniviStorJob,
}

impl<'a> TieringHandle<'a> {
    pub(crate) fn new(job: &'a UniviStorJob) -> Self {
        TieringHandle { job }
    }

    /// Stop automatic passes until [`TieringHandle::resume`].
    pub fn pause(&self) {
        self.set_paused(true);
    }

    /// Re-enable automatic passes.
    pub fn resume(&self) {
        self.set_paused(false);
    }

    fn set_paused(&self, paused: bool) {
        let state = self.job.tiering_state();
        state.paused.store(paused, Ordering::Release);
        self.job.metrics_handle().set_tiering_paused(paused);
    }

    /// True while paused.
    pub fn is_paused(&self) -> bool {
        self.job.tiering_state().paused.load(Ordering::Acquire)
    }

    /// Run a drain-only pass on every node right now (even while paused
    /// or with the daemon disabled), aggregating the per-node reports.
    pub fn drain_now(&self) -> Result<TieringPassReport> {
        self.job.tiering_pass_all(&PassOptions::drain_only())
    }

    /// Run one full pass (spill + drain + promote + decay tick) on every
    /// node right now.
    pub fn run_pass(&self) -> Result<TieringPassReport> {
        self.job
            .tiering_pass_all(&PassOptions::full(self.job.cfg()))
    }

    /// Run a promotion-only pass on every node right now under `policy`,
    /// without spilling, draining, or ticking heat decay.
    pub fn promote_now(&self, policy: PromotionPolicy) -> Result<TieringPassReport> {
        self.job
            .tiering_pass_all(&PassOptions::promote_only(policy))
    }

    /// Lifetime totals, read off the job panel.
    pub fn stats(&self) -> TieringStats {
        let (panel, state) = (self.job.metrics_handle(), self.job.tiering_state());
        TieringStats {
            passes: panel.total(Fam::TieringPasses),
            spilled_segments: panel.total(Fam::TieringSpilledSegments),
            spilled_bytes: panel.total(Fam::TieringSpilledBytes),
            drained_segments: panel.total(Fam::TieringDrainedSegments),
            drained_bytes: panel.total(Fam::TieringDrainedBytes),
            promoted_segments: panel.total(Fam::TieringPromotedSegments),
            heat_decays: panel.total(Fam::TieringHeatDecays),
            catchup_skipped_bytes: panel.total(Fam::TieringCatchupSkippedBytes),
            ledger_spans: state.ledger_spans.load(Ordering::Relaxed),
            paused: state.paused.load(Ordering::Relaxed),
        }
    }
}

/// The background actors: one OS thread per node, each running the full
/// pass every `daemon_interval_ms` until the daemon is stopped or
/// dropped. With tiering disabled in the job's config, `spawn` starts no
/// threads at all.
#[derive(Debug)]
pub struct TieringDaemon(NodeActors);

impl TieringDaemon {
    /// Start the per-node actors for `job`.
    pub fn spawn(job: Arc<UniviStorJob>) -> Self {
        let cfg = &job.cfg().tiering;
        let (enabled, interval) = (cfg.enabled, Duration::from_millis(cfg.daemon_interval_ms));
        TieringDaemon(NodeActors::spawn(job, enabled, interval, |job, node| {
            if !job.tiering_state().paused.load(Ordering::Acquire) {
                let _ = job.tiering_pass(node, &PassOptions::full(job.cfg()));
            }
        }))
    }

    /// Number of actor threads running (0 when tiering is disabled).
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
    use crate::metadata::tests::insert_one;
    use crate::metadata::{ClientId, MetadataService};
    use crate::striping::naive_plan;
    use crate::va::VirtualAddr;

    #[test]
    fn tier_costs_are_monotonic_down_the_hierarchy() {
        assert!(tier_cost(Tier::Dram) < tier_cost(Tier::NodeLocal));
        assert!(tier_cost(Tier::NodeLocal) < tier_cost(Tier::SharedBurstBuffer));
        assert!(tier_cost(Tier::SharedBurstBuffer) < tier_cost(Tier::Pfs));
    }

    #[test]
    fn promotion_score_rewards_heat_and_distance() {
        // Hotter segments score higher.
        assert!(
            promotion_score(8, Tier::Pfs, Tier::Dram) > promotion_score(2, Tier::Pfs, Tier::Dram)
        );
        // Farther sources score higher at equal heat.
        assert!(
            promotion_score(4, Tier::Pfs, Tier::Dram)
                > promotion_score(4, Tier::NodeLocal, Tier::Dram)
        );
        // Downward "promotion" is negative.
        assert!(promotion_score(4, Tier::Dram, Tier::Pfs) < 0.0);
        // Zero heat is never worth moving.
        assert_eq!(promotion_score(0, Tier::Pfs, Tier::Dram), 0.0);
    }

    #[test]
    fn ledger_invalidation_drops_overlaps_only() {
        let state = TieringState::default();
        let rec = |len| SegmentRecord::new(ClientId::new(0, 0), VirtualAddr(0), len);
        {
            let mut drain = state.drain.lock().unwrap();
            let mut spans = BTreeMap::new();
            spans.insert(0u64, rec(64));
            spans.insert(64u64, rec(64));
            spans.insert(128u64, rec(64));
            drain.insert(
                7,
                DrainLedger {
                    plan: naive_plan(192, 2, 4, 64),
                    spans,
                },
            );
        }
        state.ledger_spans.store(3, Ordering::Release);

        // A write over [60, 70) straddles the first two spans.
        state.invalidate(7, 60, 70);
        let drain = state.drain.lock().unwrap();
        let spans = &drain.get(&7).unwrap().spans;
        assert!(!spans.contains_key(&0));
        assert!(!spans.contains_key(&64));
        assert!(spans.contains_key(&128));
        assert_eq!(state.ledger_spans.load(Ordering::Acquire), 1);
    }

    #[test]
    fn take_ledger_consumes_and_accounts() {
        let state = TieringState::default();
        assert!(state.take_ledger(9).is_none());
        {
            let mut drain = state.drain.lock().unwrap();
            let mut spans = BTreeMap::new();
            spans.insert(
                0u64,
                SegmentRecord::new(ClientId::new(0, 0), VirtualAddr(0), 32),
            );
            drain.insert(
                9,
                DrainLedger {
                    plan: naive_plan(32, 1, 1, 32),
                    spans,
                },
            );
        }
        state.ledger_spans.store(1, Ordering::Release);
        let taken = state.take_ledger(9).expect("ledger present");
        assert_eq!(taken.spans.len(), 1);
        assert_eq!(state.ledger_spans.load(Ordering::Acquire), 0);
        assert!(state.take_ledger(9).is_none());
    }

    #[test]
    fn heat_decay_halves_and_evicts() {
        let m = MetadataService::new(256, 2, 2, 32);
        let key = |o| SegKey { fid: 1, offset: o };
        // Two records on two nodes' buffers, read 5 times and once.
        let (a, b) = (ClientId::new(0, 0), ClientId::new(0, 32));
        let (ra, rb) = (
            SegmentRecord::new(a, VirtualAddr(0), 64),
            SegmentRecord::new(b, VirtualAddr(0), 64),
        );
        insert_one(&m, key(0), ra, 0);
        insert_one(&m, key(64), rb, 1);
        m.record_reads((0..5).map(|_| (key(0), a, ra.va)));
        m.record_reads([(key(64), b, rb.va)]);
        assert_eq!(m.decay_heat(), 2);
        assert_eq!(m.heat(key(0), a), 2);
        // 1 / 2 == 0: the record drops out of the hot set entirely.
        assert_eq!(m.heat(key(64), b), 0);
        assert!(m.hot(1, 0).is_empty());
        assert_eq!(m.hot(0, 0), vec![(key(0), 2)]);
    }
}
