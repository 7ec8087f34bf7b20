//! Server-side asynchronous flush (§II-A, §II-D).
//!
//! At file-close time the UniviStor servers collectively move the cached
//! data to the PFS for long-term persistence, overlapping the application's
//! next compute phase. The logical file is split into one contiguous range
//! per server; each server gathers its range's segments from wherever DHP
//! placed them (its node's DRAM logs, the shared burst buffer, …) and
//! writes them to Lustre with the striping chosen by
//! [`crate::striping::adaptive_plan`] (or the all-OST naive layout when
//! ADPT is disabled).
//!
//! One engine drains it, the pipelined one ([`parallel_drain`]): each
//! server range is gathered by its own worker (scoped threads over a
//! shared cursor), a single writer stage drains gathered ranges through a
//! reorder buffer (so Lustre writes stay server-major and offset-ascending
//! — the order that keeps lock-revocation counts equal to a
//! record-at-a-time drain's), adjacent spans merge into coalesced object
//! writes, and same-source spans within a range are fetched in one chain
//! round-trip. Gathering holds no lock across a pass: a generation fence
//! around each pass redoes the flush if a writer mutated the file mid-pass
//! (write-overlapped catch-up).
//!
//! The record-at-a-time reference engine — one chain read and one Lustre
//! write per clipped span — is a test oracle (`server::oracle`, DESIGN.md
//! §8a). It plugs into the same [`Engine`] slot of [`FlushRequest`],
//! shares the stripe writer ([`write_stripes`]) and must produce
//! byte-identical PFS contents and identical semantic receipts (bytes per
//! server/OST/tier, loss ledger, revocations); the two differ only in the
//! operation counters (`ost_writes`, `write_calls`, `gather_round_trips`)
//! that measure the coalescing and batching wins.
//!
//! The flush is *functional*: bytes land in OST objects and can be read
//! back from Lustre. The [`FlushReceipt`] captures everything the timing
//! plane needs: per-server and per-OST byte loads, which tier each byte
//! came from, stripe-synchronization fan-out, and lock revocations.

use crate::config::UniviStorConfig;
use crate::fault::{with_retries, FaultInjector};
use crate::integrity::{verified_clip, StampedFetch, Verifier};
use crate::metadata::{ClientId, MetadataService, SegKey, SegmentRecord};
use crate::metrics::{JobMetrics, VerifySite};
use crate::placement::ChainSet;
use crate::runtime::host_cpus;
use crate::striping::{adaptive_plan, naive_plan, StripePlan};
use crate::tiering::DrainLedger;
use crate::va::{Tier, VirtualAddr};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, RwLock};
use univistor_pfs::Lustre;
use univistor_sim::{Payload, SimError, SimResult};

/// What one flush did.
#[derive(Debug, Clone)]
pub struct FlushReceipt {
    /// Destination path on the PFS.
    pub dest: String,
    /// Logical bytes flushed.
    pub file_size: u64,
    /// The striping decision.
    pub plan: StripePlan,
    /// Bytes written by each flushing server.
    pub per_server_bytes: Vec<u64>,
    /// Bytes received by each OST.
    pub per_ost_bytes: Vec<u64>,
    /// Bytes sourced from each tier (DRAM vs. BB vs. PFS-log).
    pub source_tier_bytes: Vec<(Tier, u64)>,
    /// Lustre lock revocations during the flush.
    pub lock_revocations: u64,
    /// Distinct OSTs each server contacted (sync overhead driver).
    pub osts_per_server: usize,
    /// Spans this flush could not move because primary and replica were
    /// both on failed nodes (degraded-mode accounting).
    pub lost: FlushReport,
    /// Bytes this flush skipped because the background drain had already
    /// copied them (and their records were still current) — the catch-up
    /// saving. Always 0 without a resume ledger.
    pub drained_ahead_bytes: u64,
    /// OST object writes issued: one per stripe piece after coalescing.
    /// The engine's coalesced runs touch each OST object once per run;
    /// the record-at-a-time reference (a test oracle) once per span piece.
    pub ost_writes: u64,
    /// Lustre object-write calls issued: one per coalesced run (one per
    /// span under the record-at-a-time reference).
    /// `spans / write_calls` is the coalescing ratio.
    pub write_calls: u64,
    /// Clipped spans drained (a record clipped by several server ranges
    /// counts once per range). Engine-independent.
    pub spans: u64,
    /// Chain read round-trips: one per same-source span run (one per span
    /// under the record-at-a-time reference).
    pub gather_round_trips: u64,
    /// Generation-invalidated redo passes the write-overlapped drain ran
    /// because a writer mutated the file mid-flush. Always 0 when writers
    /// are quiescent.
    pub catchup_passes: u64,
}

/// Degraded-mode accounting of one flush: the spans skipped because no
/// healthy copy existed. A fully healthy flush reports all zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushReport {
    /// Clipped spans skipped (a record clipped by several server ranges
    /// counts once per range).
    pub lost_segments: u64,
    /// Bytes skipped.
    pub lost_bytes: u64,
}

/// Where the flush engine and the read pipeline ([`crate::read`]) get
/// records and bytes from: shared-lock reads of the locked core's metadata
/// service and chain set. Both runtimes drain and read through it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CoreView<'a> {
    pub(crate) metadata: &'a MetadataService,
    pub(crate) chains: &'a ChainSet,
}

impl CoreView<'_> {
    /// All records of `fid` overlapping `[lo, hi)`, offset-ascending, plus
    /// the number of metadata servers the lookup visited (one RPC each on
    /// the naive read path; the flush engine ignores it).
    pub(crate) fn records(
        &self,
        fid: u64,
        lo: u64,
        hi: u64,
    ) -> (usize, Vec<(SegKey, SegmentRecord)>) {
        let (servers, records) = self.metadata.lookup_range(fid, lo, hi);
        (servers.len(), records)
    }

    /// Read every `(va, len)` request from `client`'s chain, results in
    /// request order: one gather round-trip, one shared chain-lock
    /// acquisition.
    pub(crate) fn read_spans(
        &self,
        client: ClientId,
        requests: &[(VirtualAddr, u64)],
    ) -> SimResult<Vec<(Payload, Tier)>> {
        self.chains.read_at_many(client, requests)
    }

    /// The fid's current mutation generation — the catch-up fence.
    pub(crate) fn generation(&self, fid: u64) -> u64 {
        self.metadata.generation(fid)
    }
}

/// What one [`write_stripes`] call did — absorbed into the engine's
/// accumulator.
#[derive(Debug, Default)]
pub(crate) struct StripeWrite {
    pub revocations: u64,
    pub ost_writes: u64,
    pub write_calls: u64,
    pub per_server: Vec<(usize, u64)>,
    pub per_ost: Vec<(usize, u64)>,
}

/// Write `payload` at logical offset `lo` of `dest`, splitting it along
/// `plan`'s server ranges so each piece carries its owning server's writer
/// id (the last range absorbs growth past the plan, mirroring
/// [`StripePlan::clip_to_servers`]). The shared write stage of both flush
/// engines and the background drain.
pub(crate) fn write_stripes(
    lustre: &RwLock<Lustre>,
    dest: &str,
    plan: &StripePlan,
    lo: u64,
    payload: Payload,
) -> SimResult<StripeWrite> {
    let hi = lo + payload.len();
    let clips: Vec<(usize, u64, u64)> = plan.clip_to_servers(lo, hi).collect();
    let mut out = StripeWrite::default();
    let single = clips.len() == 1;
    let mut payload = Some(payload);
    for (server, clip_lo, clip_hi) in clips {
        let part = if single {
            payload.take().expect("single clip consumed once")
        } else {
            payload
                .as_ref()
                .expect("multi-clip payload retained")
                .slice(clip_lo - lo, clip_hi - clip_lo)
        };
        let receipt =
            lustre
                .write()
                .expect("lustre poisoned")
                .write(dest, clip_lo, part, server as u64)?;
        out.revocations += receipt.lock_revocations;
        out.ost_writes += receipt.pieces.len() as u64;
        out.write_calls += 1;
        out.per_server.push((server, clip_hi - clip_lo));
        out.per_ost.extend(receipt.ost_bytes());
    }
    Ok(out)
}

/// Choose the striping plan of a `size`-byte file — adaptive (Eqs. 2–6)
/// or the naive all-OST layout, per `cfg` — and (re-)create `dest` with
/// it. The one place the PFS destination is decided: the close-time flush
/// and the background drain both come here.
pub(crate) fn create_destination(
    lustre: &RwLock<Lustre>,
    cfg: &UniviStorConfig,
    dest: &str,
    size: u64,
) -> SimResult<StripePlan> {
    let servers = cfg.geometry.total_servers();
    let osts = lustre.read().expect("lustre poisoned").ost_count();
    let plan = if cfg.features.adaptive_striping {
        adaptive_plan(size, servers, osts, cfg.alpha, cfg.cal.max_stripe_size)
    } else {
        naive_plan(size, servers, osts, cfg.cal.default_stripe_size)
    };
    let mut pfs = lustre.write().expect("lustre poisoned");
    if pfs.exists(dest) {
        pfs.delete(dest)?;
    }
    pfs.create(dest, plan.layout.clone())?;
    Ok(plan)
}

/// Per-pass accumulator an engine fills; becomes the receipt.
#[derive(Default)]
pub(crate) struct FlushAcc {
    pub per_server_bytes: Vec<u64>,
    pub per_ost_bytes: Vec<u64>,
    pub source_tiers: HashMap<Tier, u64>,
    pub revocations: u64,
    pub lost: FlushReport,
    pub drained_ahead: u64,
    pub ost_writes: u64,
    pub write_calls: u64,
    pub spans: u64,
    pub gather_round_trips: u64,
}

impl FlushAcc {
    pub(crate) fn absorb_write(&mut self, w: StripeWrite) {
        self.revocations += w.revocations;
        self.ost_writes += w.ost_writes;
        self.write_calls += w.write_calls;
        for (server, bytes) in w.per_server {
            self.per_server_bytes[server] += bytes;
        }
        for (ost, bytes) in w.per_ost {
            self.per_ost_bytes[ost] += bytes;
        }
    }
}

/// What to flush and with what: the caller's half of a flush, everything
/// [`flush_with_source`] needs besides the record/byte source.
pub(crate) struct FlushRequest<'a> {
    pub lustre: &'a RwLock<Lustre>,
    pub cfg: &'a UniviStorConfig,
    pub failed_nodes: &'a HashSet<usize>,
    pub metrics: Option<&'a JobMetrics>,
    pub verifier: &'a Verifier,
    pub injector: Option<&'a FaultInjector>,
    pub fid: u64,
    pub file_size: u64,
    pub dest: &'a str,
    pub resume: Option<&'a DrainLedger>,
    /// The drain engine: [`parallel_drain`] everywhere outside the
    /// differential tests.
    pub engine: Engine,
}

/// A drain engine: run the passes over `ctx`, returning their accumulated
/// outcome and the number of catch-up passes taken.
pub(crate) type Engine = fn(&FlushCtx) -> SimResult<(FlushAcc, u64)>;

/// Everything one flush holds constant across its passes, ranges and spans:
/// the request, the source, the striping decision, and the resume ledger
/// once validated against the destination. Built once in
/// [`flush_with_source`].
pub(crate) struct FlushCtx<'a> {
    pub source: CoreView<'a>,
    pub req: &'a FlushRequest<'a>,
    pub plan: &'a StripePlan,
    pub resume: Option<&'a DrainLedger>,
    osts: usize,
}

impl FlushCtx<'_> {
    pub(crate) fn new_acc(&self) -> FlushAcc {
        FlushAcc {
            per_server_bytes: vec![0; self.req.cfg.geometry.total_servers()],
            per_ost_bytes: vec![0; self.osts],
            ..FlushAcc::default()
        }
    }

    fn node_failed(&self, client: ClientId) -> bool {
        let node = self.req.cfg.geometry.node_of_rank(client.rank as usize);
        self.req.failed_nodes.contains(&node)
    }

    /// One retried gather round-trip.
    pub(crate) fn read_spans(
        &self,
        client: ClientId,
        requests: &[(VirtualAddr, u64)],
    ) -> SimResult<Vec<(Payload, Tier)>> {
        with_retries(&self.req.cfg.retry, self.req.metrics, || {
            self.source.read_spans(client, requests)
        })
    }

    /// One instrumented metadata fetch per server range; transient faults
    /// are absorbed by the retry budget.
    pub(crate) fn draw_lookup(&self) -> SimResult<()> {
        match self.req.injector {
            Some(inj) => with_retries(&self.req.cfg.retry, self.req.metrics, || {
                inj.inject("flush_lookup", None)
            }),
            None => Ok(()),
        }
    }

    pub(crate) fn write(&self, lo: u64, payload: Payload) -> SimResult<StripeWrite> {
        write_stripes(self.req.lustre, self.req.dest, self.plan, lo, payload)
    }

    /// Prefer the primary; fall back to a replica on a healthy node; with
    /// neither, the span is lost.
    pub(crate) fn healthy_source(&self, rec: &SegmentRecord) -> Option<(ClientId, VirtualAddr)> {
        if !self.node_failed(rec.client) {
            Some((rec.client, rec.va))
        } else {
            rec.replica.filter(|&(rc, _)| !self.node_failed(rc))
        }
    }
}

/// One clipped record with a healthy copy to drain: `len` bytes at logical
/// `clip_lo`, cut from the record keyed at `key_offset` whose chosen copy
/// starts at `base_va` of `client`'s chain.
#[derive(Clone, Copy)]
pub(crate) struct FetchSpan {
    pub rec: SegmentRecord,
    pub client: ClientId,
    pub base_va: VirtualAddr,
    pub key_offset: u64,
    pub clip_lo: u64,
    pub len: u64,
}

impl FetchSpan {
    /// The span every engine requests: stamped records fetch the *whole*
    /// record from its base VA (the checksum can only verify the full
    /// span), unstamped ones the clip alone.
    pub(crate) fn request(&self) -> (VirtualAddr, u64) {
        match self.rec.checksum {
            Some(_) => (self.base_va, self.rec.len),
            None => (
                VirtualAddr(self.base_va.0 + (self.clip_lo - self.key_offset)),
                self.len,
            ),
        }
    }
}

/// Finish one gathered span through the shared integrity ladder
/// ([`verified_clip`]): verify a stamped record's full payload against its
/// write-commit stamp and clip the requested window back out; on a verify
/// failure fall back to the record's other healthy copy. No clean copy is
/// a typed [`SimError::Integrity`] — the flush never persists wrong bytes,
/// and the lost ledger stays reserved for node failures (a
/// corrupt-but-present copy is the scrubber's job, not a silent skip).
pub(crate) fn verify_gathered(
    ctx: &FlushCtx,
    span: &FetchSpan,
    payload: Payload,
    tier: Tier,
    round_trips: &mut u64,
) -> SimResult<(Payload, Tier)> {
    let rec = &span.rec;
    let Some(sum) = rec.checksum else {
        return Ok((payload, tier));
    };
    let chosen = (span.client, span.base_va);
    verified_clip(
        StampedFetch {
            site: VerifySite::Flush,
            error_site: "flush_gather",
            error_offset: span.clip_lo,
            sum,
            rec_len: rec.len,
            clip_off: span.clip_lo - span.key_offset,
            clip_len: span.len,
            source: chosen,
            payload,
            tier,
            verifier: ctx.req.verifier,
            metrics: ctx.req.metrics,
            report_to: None,
        },
        // The record's other copy, when one exists on a healthy node.
        || {
            if chosen == (rec.client, rec.va) {
                rec.replica.filter(|&(rc, _)| !ctx.node_failed(rc))
            } else {
                (!ctx.node_failed(rec.client)).then_some((rec.client, rec.va))
            }
        },
        &mut |alt_client, alt_va, len| {
            let mut got = ctx.read_spans(alt_client, &[(alt_va, len)])?;
            *round_trips += 1;
            Ok(got.pop().expect("one span requested"))
        },
    )
}

/// Flush every byte of `fid` (logical size `file_size`) from `source` to
/// `dest` on `lustre`, using the configuration's striping mode and server
/// count and the request's drain engine. `source` is the locked core,
/// under either runtime: the flush runs on the calling thread with shared
/// locks, while writers keep committing. Segments whose
/// primary node is in `failed_nodes` are flushed from their resilience
/// replicas. A completed flush is accounted into `metrics`
/// (drained/per-server histograms, source tiers, revocations, coalescing
/// counters) when a panel is given.
///
/// The flush **degrades gracefully**: a span whose primary *and* replica
/// (or a replica-less span whose primary) sit on failed nodes is skipped
/// rather than aborting the pass — every healthy byte still lands on the
/// PFS, and the skipped spans are reported in the receipt's
/// [`FlushReport`] (feeding `univistor_flush_skipped_lost_bytes_total`).
/// A shortfall *not* explained by lost spans (a genuine hole) is still an
/// error. Transient faults from `injector` on the lookup and
/// chain-read steps are retried under `cfg.retry`.
///
/// `lustre` is locked exclusively only around the individual
/// create/delete/write calls, so a long flush does not starve concurrent
/// `lustre_read`s; segment gathering takes shared chain/metadata locks.
///
/// `resume` is the background drain's ledger for this file (see
/// [`crate::tiering`]): spans whose ledger entry still matches the live
/// record were already copied to `dest` and are skipped — the catch-up
/// path that makes close-time flush cheap under a running daemon. The
/// destination is then *not* recreated (it holds the drained bytes) and
/// the ledger's striping plan is reused, with its last server range
/// extended to cover growth since the plan was fixed.
pub(crate) fn flush_with_source(source: CoreView, req: &FlushRequest) -> SimResult<FlushReceipt> {
    let &FlushRequest {
        lustre,
        cfg,
        file_size,
        dest,
        ..
    } = req;
    if file_size == 0 {
        return Err(SimError::InvalidFlow("flush of empty file".into()));
    }
    let osts = lustre.read().expect("lustre poisoned").ost_count();
    // A ledger is only trustworthy while the destination it drained into
    // still exists.
    let resume = req
        .resume
        .filter(|_| lustre.read().expect("lustre poisoned").exists(dest));
    let plan = match resume {
        Some(ledger) => {
            let mut plan = ledger.plan.clone();
            // The file may have grown since the drain fixed the plan; the
            // layout's last range is open-ended, so only the accounting
            // ranges need stretching.
            if let Some(last) = plan.server_ranges.last_mut() {
                last.1 = last.1.max(file_size);
            }
            plan
        }
        // The destination is created once: catch-up redo passes rewrite
        // spans in place rather than recreating it (drained bytes must
        // survive).
        None => create_destination(lustre, cfg, dest, file_size)?,
    };

    let ctx = FlushCtx {
        source,
        req,
        plan: &plan,
        resume,
        osts,
    };
    let (acc, catchup_passes) = (req.engine)(&ctx)?;

    let flushed: u64 = acc.per_server_bytes.iter().sum();
    if flushed + acc.lost.lost_bytes + acc.drained_ahead != file_size {
        return Err(SimError::InvalidFlow(format!(
            "flush moved {flushed} of {file_size} bytes ({} lost to failures, \
             {} drained ahead) — holes in '{dest}'?",
            acc.lost.lost_bytes, acc.drained_ahead
        )));
    }

    let mut source_tier_bytes: Vec<(Tier, u64)> = acc.source_tiers.into_iter().collect();
    source_tier_bytes.sort_by_key(|(t, _)| *t);
    let receipt = FlushReceipt {
        dest: dest.to_string(),
        file_size,
        osts_per_server: plan.osts_per_server,
        plan,
        per_server_bytes: acc.per_server_bytes,
        per_ost_bytes: acc.per_ost_bytes,
        source_tier_bytes,
        lock_revocations: acc.revocations,
        lost: acc.lost,
        drained_ahead_bytes: acc.drained_ahead,
        ost_writes: acc.ost_writes,
        write_calls: acc.write_calls,
        spans: acc.spans,
        gather_round_trips: acc.gather_round_trips,
        catchup_passes,
    };
    if let Some(m) = req.metrics {
        m.record_flush(&receipt);
    }
    Ok(receipt)
}

/// The drain engine: parallel passes under a catch-up fence that redoes
/// the whole pass whenever the fid's mutation generation moved while it
/// ran.
/// A pass error under an *unchanged* generation is real and propagates; a
/// pass (error or not) under a changed generation may have read torn state
/// and is discarded. Terminates once writers quiesce — close-time flush
/// holds the fid's tiering gate, so only foreground writers race.
pub(crate) fn parallel_drain(ctx: &FlushCtx) -> SimResult<(FlushAcc, u64)> {
    let mut catchup_passes = 0u64;
    loop {
        let gen0 = ctx.source.generation(ctx.req.fid);
        let pass = parallel_pass(ctx);
        if ctx.source.generation(ctx.req.fid) == gen0 {
            return pass.map(|acc| (acc, catchup_passes));
        }
        catchup_passes += 1;
    }
}

/// One gathered server range, queued from a gather worker to the writer
/// stage. Span outcomes are in offset order within the range.
struct RangeGather {
    spans: Vec<SpanOutcome>,
    gather_round_trips: u64,
}

enum SpanOutcome {
    /// Already on `dest` via the background drain.
    Drained { len: u64 },
    /// No healthy copy anywhere.
    Lost { len: u64 },
    /// Bytes gathered and ready for the writer stage.
    Data {
        clip_lo: u64,
        len: u64,
        payload: Payload,
        tier: Tier,
    },
}

/// The pipelined engine: per-range gather workers feed a single writer
/// stage through a bounded queue; the writer reorders completions back to
/// range order so the Lustre write sequence (and thus the revocation
/// count) is identical to a record-at-a-time drain's, then coalesces
/// adjacent spans into single object writes.
fn parallel_pass(ctx: &FlushCtx) -> SimResult<FlushAcc> {
    let mut acc = ctx.new_acc();
    let ranges: Vec<(u64, u64)> = ctx
        .plan
        .server_ranges
        .iter()
        .copied()
        .filter(|&(start, end)| end > start)
        .collect();
    if ranges.is_empty() {
        return Ok(acc);
    }
    // One instrumented lookup per non-empty range, drawn up front in
    // range order so the injector sees the same flush_lookup count as the
    // record-at-a-time reference (draw *positions* may differ — accepted).
    for _ in &ranges {
        ctx.draw_lookup()?;
    }
    let workers = ranges.len().min(host_cpus());
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::sync_channel::<(usize, SimResult<RangeGather>)>(workers * 2);
    let mut failed_err: Option<SimError> = None;
    std::thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let cursor = &cursor;
            let ranges = &ranges;
            s.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&(start, end)) = ranges.get(i) else {
                    break;
                };
                if tx.send((i, gather_range(ctx, start, end))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // Writer stage: a reorder buffer restores range order.
        let mut pending: BTreeMap<usize, SimResult<RangeGather>> = BTreeMap::new();
        let mut next = 0usize;
        for (i, gathered) in rx {
            pending.insert(i, gathered);
            while let Some(g) = pending.remove(&next) {
                next += 1;
                if failed_err.is_none() {
                    if let Err(e) = g.and_then(|g| write_range(&mut acc, ctx, g)) {
                        // Stop handing out new ranges; drain what's in
                        // flight so the workers exit cleanly.
                        cursor.store(ranges.len(), Ordering::Relaxed);
                        failed_err = Some(e);
                    }
                }
            }
        }
    });
    match failed_err {
        Some(e) => Err(e),
        None => Ok(acc),
    }
}

/// Resolve and fetch one server range. Maximal same-source span runs are
/// fetched in a single chain round-trip (the batching win); resolution
/// (clip, ledger catch-up, health split) matches the record-at-a-time
/// reference span for span.
fn gather_range(ctx: &FlushCtx, start: u64, end: u64) -> SimResult<RangeGather> {
    let records = ctx.source.records(ctx.req.fid, start, end).1;
    let mut out = RangeGather {
        spans: Vec::with_capacity(records.len()),
        gather_round_trips: 0,
    };
    // The open run of consecutive spans sharing one source chain.
    let mut run: Vec<FetchSpan> = Vec::new();
    for (key, rec) in records {
        let seg_end = key.offset + rec.len;
        let clip_lo = key.offset.max(start);
        let clip_hi = seg_end.min(end);
        if clip_hi <= clip_lo {
            continue;
        }
        let len = clip_hi - clip_lo;
        let drained = ctx
            .resume
            .is_some_and(|ledger| ledger.spans.get(&key.offset) == Some(&rec));
        let settled = if drained {
            SpanOutcome::Drained { len }
        } else if let Some((client, base_va)) = ctx.healthy_source(&rec) {
            if run.first().is_some_and(|head| head.client != client) {
                fetch_run(ctx, &mut run, &mut out)?;
            }
            run.push(FetchSpan {
                rec,
                client,
                base_va,
                key_offset: key.offset,
                clip_lo,
                len,
            });
            continue;
        } else {
            SpanOutcome::Lost { len }
        };
        // A span with nothing to fetch closes the open run.
        fetch_run(ctx, &mut run, &mut out)?;
        out.spans.push(settled);
    }
    fetch_run(ctx, &mut run, &mut out)?;
    Ok(out)
}

/// Fetch the open same-source `run` in one round-trip, verify each span and
/// queue it for the writer stage. A no-op on an empty run.
fn fetch_run(ctx: &FlushCtx, run: &mut Vec<FetchSpan>, out: &mut RangeGather) -> SimResult<()> {
    let Some(head) = run.first() else {
        return Ok(());
    };
    let requests: Vec<(VirtualAddr, u64)> = run.iter().map(FetchSpan::request).collect();
    let results = ctx.read_spans(head.client, &requests)?;
    out.gather_round_trips += 1;
    for (span, (payload, tier)) in run.drain(..).zip(results) {
        let (payload, tier) =
            verify_gathered(ctx, &span, payload, tier, &mut out.gather_round_trips)?;
        out.spans.push(SpanOutcome::Data {
            clip_lo: span.clip_lo,
            len: span.len,
            payload,
            tier,
        });
    }
    Ok(())
}

/// The writer stage for one gathered range: account outcomes, merge
/// offset-adjacent data spans into coalesced runs, and issue each run as
/// one stripe write.
fn write_range(acc: &mut FlushAcc, ctx: &FlushCtx, gathered: RangeGather) -> SimResult<()> {
    acc.gather_round_trips += gathered.gather_round_trips;
    // (run start, run end, parts)
    let mut run: Option<(u64, u64, Vec<Payload>)> = None;
    for outcome in gathered.spans {
        match outcome {
            SpanOutcome::Drained { len } => acc.drained_ahead += len,
            SpanOutcome::Lost { len } => {
                acc.lost.lost_segments += 1;
                acc.lost.lost_bytes += len;
            }
            SpanOutcome::Data {
                clip_lo,
                len,
                payload,
                tier,
            } => {
                *acc.source_tiers.entry(tier).or_insert(0) += len;
                acc.spans += 1;
                match &mut run {
                    Some((_, run_end, parts)) if *run_end == clip_lo => {
                        *run_end += len;
                        parts.push(payload);
                    }
                    _ => {
                        if let Some(r) = run.take() {
                            write_run(acc, ctx, r)?;
                        }
                        run = Some((clip_lo, clip_lo + len, vec![payload]));
                    }
                }
            }
        }
    }
    if let Some(r) = run {
        write_run(acc, ctx, r)?;
    }
    Ok(())
}

fn write_run(
    acc: &mut FlushAcc,
    ctx: &FlushCtx,
    (lo, _end, mut parts): (u64, u64, Vec<Payload>),
) -> SimResult<()> {
    let payload = if parts.len() == 1 {
        parts.pop().expect("single-part run")
    } else {
        Payload::chain(parts)
    };
    let w = ctx.write(lo, payload)?;
    acc.absorb_write(w);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::tests::insert_one;
    use crate::metadata::{ClientId, SegKey, SegmentRecord};
    use crate::placement::ProcChain;
    use univistor_sim::Payload;

    /// A flush's fixed surroundings: index, chains, PFS, config, and the
    /// healthy failed-set and fresh verifier every request defaults to.
    struct Harness {
        md: MetadataService,
        chains: ChainSet,
        lustre: RwLock<Lustre>,
        cfg: UniviStorConfig,
        healthy: HashSet<usize>,
        verifier: Verifier,
    }

    /// 2 nodes × 2 clients; 128 B DRAM + 128 B BB per-proc logs, 64 B
    /// chunks/segments; 4 servers.
    fn setup() -> Harness {
        let mut cfg = UniviStorConfig::test_small(2, 2);
        cfg.geometry.servers_per_node = 2;
        let caps = [
            (Tier::Dram, 128),
            (Tier::SharedBurstBuffer, 128),
            (Tier::Pfs, u64::MAX),
        ];
        let chains = ChainSet::new();
        for rank in 0..4u32 {
            let chain = || ProcChain::new(caps.to_vec(), 64);
            chains.ensure(ClientId::new(0, rank), chain).unwrap();
        }
        Harness {
            md: MetadataService::new(256, 4, 2),
            chains,
            lustre: RwLock::new(Lustre::new(8)),
            cfg,
            healthy: HashSet::new(),
            verifier: Verifier::default(),
        }
    }

    impl Harness {
        /// Write `segs_per_client` 64 B segments per client, each holding
        /// `Payload::pattern(offset, 64)`; returns the file size.
        fn populate(&self, segs_per_client: u64) -> u64 {
            for rank in 0..4u32 {
                let client = ClientId::new(0, rank);
                for i in 0..segs_per_client {
                    let offset = (rank as u64 * segs_per_client + i) * 64;
                    let placed = self.chains.append(client, Payload::pattern(offset, 64));
                    let rec = SegmentRecord::new(client, placed.unwrap().va, 64);
                    insert_one(
                        &self.md,
                        SegKey { fid: 1, offset },
                        rec,
                        (rank / 2) as usize,
                    );
                }
            }
            4 * segs_per_client * 64
        }

        /// The default request: fid 1 (`size` bytes) drains to "/pfs/f"
        /// with every node healthy, no panel, injector or ledger.
        fn req(&self, size: u64) -> FlushRequest<'_> {
            FlushRequest {
                lustre: &self.lustre,
                cfg: &self.cfg,
                failed_nodes: &self.healthy,
                metrics: None,
                verifier: &self.verifier,
                injector: None,
                fid: 1,
                file_size: size,
                dest: "/pfs/f",
                resume: None,
                engine: parallel_drain,
            }
        }

        fn flush(&self, req: FlushRequest) -> SimResult<FlushReceipt> {
            let source = CoreView {
                metadata: &self.md,
                chains: &self.chains,
            };
            flush_with_source(source, &req)
        }

        /// `len` bytes of "/pfs/f" at `lo`.
        fn pfs(&self, lo: u64, len: u64) -> Payload {
            let lustre = self.lustre.read().unwrap();
            lustre.read("/pfs/f", lo, len, 999).unwrap()
        }

        /// The first 64 B segment of "/pfs/f" below `size` that does not
        /// hold what [`populate`](Self::populate) wrote there.
        fn bad_pfs_segment(&self, size: u64) -> Option<u64> {
            let whole = self.pfs(0, size);
            (0..size / 64).find(|s| {
                !whole
                    .slice(s * 64, 64)
                    .content_eq(&Payload::pattern(s * 64, 64))
            })
        }
    }

    #[test]
    fn flushed_file_reads_back_from_lustre() {
        let h = setup();
        let size = h.populate(4);
        let receipt = h.flush(h.req(size)).unwrap();
        assert_eq!(receipt.file_size, size);
        let on_pfs = h.lustre.read().unwrap().file_size("/pfs/f").unwrap();
        assert_eq!(on_pfs, size);
        assert_eq!(h.bad_pfs_segment(size), None, "corrupt on PFS");
    }

    #[test]
    fn receipt_accounts_every_byte() {
        let h = setup();
        let size = h.populate(4);
        let m = JobMetrics::new();
        let r = h
            .flush(FlushRequest {
                metrics: Some(&m),
                ..h.req(size)
            })
            .unwrap();
        assert_eq!(r.per_server_bytes.iter().sum::<u64>(), size);
        assert_eq!(r.per_ost_bytes.iter().sum::<u64>(), size);
        let by_tier: u64 = r.source_tier_bytes.iter().map(|(_, b)| b).sum();
        assert_eq!(by_tier, size);
        // Data spilled across DRAM and BB: both tiers must appear.
        let tiers: Vec<Tier> = r.source_tier_bytes.iter().map(|(t, _)| *t).collect();
        assert!(tiers.contains(&Tier::Dram));
        assert!(tiers.contains(&Tier::SharedBurstBuffer));
        // The panel agrees with the receipt.
        let snap = m.snapshot();
        assert_eq!(
            snap.counter_total("univistor_flush_source_bytes_total"),
            size
        );
        assert_eq!(
            snap.histogram("univistor_flush_drained_bytes", &[])
                .expect("drained histogram")
                .sum,
            size as f64
        );
    }

    #[test]
    fn adaptive_and_naive_both_produce_correct_files() {
        for adaptive in [true, false] {
            let mut h = setup();
            h.cfg.features.adaptive_striping = adaptive;
            let size = h.populate(2);
            let r = h.flush(h.req(size)).unwrap();
            let whole = h.pfs(0, size);
            assert_eq!(whole.len(), size, "adaptive={adaptive}");
            assert_eq!(r.file_size, size);
        }
    }

    #[test]
    fn reflush_overwrites_destination() {
        let h = setup();
        let size = h.populate(2);
        h.flush(h.req(size)).unwrap();
        // Flush again (e.g. the file was re-opened and appended — here
        // identical): destination is recreated, not corrupted.
        h.flush(h.req(size)).unwrap();
        assert_eq!(h.lustre.read().unwrap().file_size("/pfs/f").unwrap(), size);
    }

    #[test]
    fn flush_with_holes_fails() {
        let h = setup();
        let size = h.populate(2);
        // Claim the file is bigger than what was written.
        let err = h.flush(h.req(size + 64)).unwrap_err();
        assert!(matches!(err, SimError::InvalidFlow(_)));
    }

    #[test]
    fn degraded_flush_skips_lost_spans_and_reports_them() {
        let h = setup();
        let size = h.populate(2);
        // No replicas were written, and node 0 (ranks 0 and 1, logical
        // [0, 256)) fails: that half is lost, the other half must still
        // land on the PFS.
        let failed: HashSet<usize> = [0].into_iter().collect();
        let m = JobMetrics::new();
        let r = h
            .flush(FlushRequest {
                failed_nodes: &failed,
                metrics: Some(&m),
                ..h.req(size)
            })
            .unwrap();
        assert_eq!(r.lost.lost_bytes, size / 2);
        assert!(r.lost.lost_segments >= 4, "{:?}", r.lost);
        assert_eq!(r.per_server_bytes.iter().sum::<u64>(), size / 2);
        // The healthy half is byte-identical on Lustre.
        for s in (size / 2 / 64)..(size / 64) {
            let got = h.pfs(s * 64, 64);
            assert!(got.content_eq(&Payload::pattern(s * 64, 64)), "segment {s}");
        }
        // The skipped bytes feed the telemetry counter.
        assert_eq!(
            m.snapshot()
                .counter_total("univistor_flush_skipped_lost_bytes_total"),
            size / 2
        );
    }

    #[test]
    fn flush_retries_exhaust_on_persistent_transient_faults() {
        use crate::fault::{FaultConfig, FaultInjector};
        let mut h = setup();
        let size = h.populate(2);
        h.cfg.retry.backoff_base_us = 0;
        h.cfg.retry.backoff_cap_us = 0;
        let inj = FaultInjector::new(FaultConfig {
            seed: 3,
            transient_prob: 1.0,
            ..FaultConfig::default()
        });
        let err = h
            .flush(FlushRequest {
                injector: Some(&inj),
                ..h.req(size)
            })
            .unwrap_err();
        match err {
            SimError::Transient { attempt, .. } => {
                assert_eq!(attempt, h.cfg.retry.max_attempts)
            }
            other => panic!("expected exhausted transient, got {other:?}"),
        }
        // A fault-free injector changes nothing about a healthy flush.
        let quiet = FaultInjector::new(FaultConfig::default());
        h.flush(FlushRequest {
            injector: Some(&quiet),
            ..h.req(size)
        })
        .unwrap();
    }

    /// Build a drain ledger covering `fid`'s records in `[0, upto)`, as
    /// if the background drain had copied them: a first full flush puts
    /// the bytes on `dest` and fixes the plan, then the ledger remembers
    /// the records.
    fn ledger_after_flush(h: &Harness, size: u64, upto: u64) -> DrainLedger {
        let receipt = h.flush(h.req(size)).unwrap();
        let (_, records) = h.md.lookup_range(1, 0, upto);
        DrainLedger {
            plan: receipt.plan,
            spans: records
                .into_iter()
                .filter(|(k, _)| k.offset < upto)
                .map(|(k, r)| (k.offset, r))
                .collect(),
        }
    }

    #[test]
    fn resume_skips_drained_spans_and_accounts_them() {
        let h = setup();
        let size = h.populate(4);
        // Everything was drained ahead.
        let ledger = ledger_after_flush(&h, size, size);
        let m = JobMetrics::new();
        let r = h
            .flush(FlushRequest {
                metrics: Some(&m),
                resume: Some(&ledger),
                ..h.req(size)
            })
            .unwrap();
        assert_eq!(r.drained_ahead_bytes, size);
        assert_eq!(r.per_server_bytes.iter().sum::<u64>(), 0);
        assert_eq!(
            m.snapshot()
                .counter_total("univistor_tiering_catchup_skipped_bytes_total"),
            size
        );
        // The destination still reads back byte-identical.
        assert_eq!(h.bad_pfs_segment(size), None, "corrupt after catch-up");
    }

    #[test]
    fn resume_with_partial_ledger_flushes_only_the_rest() {
        let h = setup();
        let size = h.populate(4);
        // Only the first half was drained ahead.
        let ledger = ledger_after_flush(&h, size, size / 2);
        let r = h
            .flush(FlushRequest {
                resume: Some(&ledger),
                ..h.req(size)
            })
            .unwrap();
        assert_eq!(r.drained_ahead_bytes, size / 2);
        assert_eq!(r.per_server_bytes.iter().sum::<u64>(), size / 2);
        assert_eq!(
            h.bad_pfs_segment(size),
            None,
            "corrupt after partial catch-up"
        );
    }

    #[test]
    fn resume_ignores_stale_ledger_entries() {
        let h = setup();
        let size = h.populate(4);
        let mut ledger = ledger_after_flush(&h, size, size);
        // One entry no longer matches the live record (as after an
        // overwrite the invalidation hook missed): it must be re-flushed
        // from the cache, not trusted.
        let stale = ledger.spans.get_mut(&0).expect("span at 0");
        stale.len = 32;
        let r = h
            .flush(FlushRequest {
                resume: Some(&ledger),
                ..h.req(size)
            })
            .unwrap();
        assert_eq!(r.drained_ahead_bytes, size - 64);
        assert_eq!(r.per_server_bytes.iter().sum::<u64>(), 64);
    }

    #[test]
    fn drained_spans_survive_source_node_failure() {
        let h = setup();
        let size = h.populate(2);
        // The drain copied everything while all nodes were healthy; then
        // node 0 (logical [0, 256), no replicas) died before close.
        let ledger = ledger_after_flush(&h, size, size);
        let failed: HashSet<usize> = [0].into_iter().collect();
        let r = h
            .flush(FlushRequest {
                failed_nodes: &failed,
                resume: Some(&ledger),
                ..h.req(size)
            })
            .unwrap();
        // Nothing is lost: the drained copies stand in for the dead node.
        assert_eq!(r.lost, FlushReport::default());
        assert_eq!(r.drained_ahead_bytes, size);
        assert_eq!(
            h.bad_pfs_segment(size),
            None,
            "corrupt after degraded catch-up"
        );
    }

    #[test]
    fn resume_without_destination_falls_back_to_full_flush() {
        let h = setup();
        let size = h.populate(2);
        let ledger = ledger_after_flush(&h, size, size);
        // The destination vanished (e.g. an external delete): the ledger
        // must be discarded, not trusted into a hole-ridden file.
        h.lustre.write().unwrap().delete("/pfs/f").unwrap();
        let r = h
            .flush(FlushRequest {
                resume: Some(&ledger),
                ..h.req(size)
            })
            .unwrap();
        assert_eq!(r.drained_ahead_bytes, 0);
        assert_eq!(r.per_server_bytes.iter().sum::<u64>(), size);
        assert_eq!(h.lustre.read().unwrap().file_size("/pfs/f").unwrap(), size);
    }

    #[test]
    fn parallel_and_sequential_receipts_agree_and_parallel_coalesces() {
        let run = |engine: Engine| {
            let h = setup();
            let size = h.populate(4);
            let r = h
                .flush(FlushRequest {
                    engine,
                    ..h.req(size)
                })
                .unwrap();
            let bytes = h.pfs(0, size);
            (r, bytes)
        };
        let (seq, seq_bytes) = run(crate::server::oracle::sequential_drain);
        let (par, par_bytes) = run(parallel_drain);
        // Byte-identical Lustre contents.
        assert!(par_bytes.content_eq(&seq_bytes));
        // Identical semantic receipt.
        assert_eq!(par.file_size, seq.file_size);
        assert_eq!(par.per_server_bytes, seq.per_server_bytes);
        assert_eq!(par.per_ost_bytes, seq.per_ost_bytes);
        assert_eq!(par.source_tier_bytes, seq.source_tier_bytes);
        assert_eq!(par.lock_revocations, seq.lock_revocations);
        assert_eq!(par.lost, seq.lost);
        assert_eq!(par.drained_ahead_bytes, seq.drained_ahead_bytes);
        assert_eq!(par.spans, seq.spans);
        // The reference engine writes and fetches span-at-a-time…
        assert_eq!(seq.write_calls, seq.spans);
        assert_eq!(seq.gather_round_trips, seq.spans);
        // …while the pipelined engine coalesces and batches.
        assert!(
            par.write_calls < seq.write_calls,
            "no coalescing: {} vs {}",
            par.write_calls,
            seq.write_calls
        );
        assert!(
            par.ost_writes < seq.ost_writes,
            "no OST-write reduction: {} vs {}",
            par.ost_writes,
            seq.ost_writes
        );
        assert!(
            par.gather_round_trips < seq.gather_round_trips,
            "no gather batching: {} vs {}",
            par.gather_round_trips,
            seq.gather_round_trips
        );
        assert_eq!(par.catchup_passes, 0);
        assert_eq!(seq.catchup_passes, 0);
    }

    #[test]
    fn parallel_flush_catches_up_with_racing_overwrites() {
        let h = setup();
        let size = h.populate(4);
        let writer = ClientId::new(0, 0);
        std::thread::scope(|s| {
            // A foreground writer keeps overwriting the span at offset 0
            // while the flush runs; each insert bumps the
            // fid's generation, invalidating in-flight passes.
            s.spawn(|| {
                for i in 0..32u64 {
                    let placed = h
                        .chains
                        .append(writer, Payload::pattern(7000 + i, 64))
                        .unwrap();
                    insert_one(
                        &h.md,
                        SegKey { fid: 1, offset: 0 },
                        SegmentRecord::new(writer, placed.va, 64),
                        0,
                    );
                }
            });
            let r = h.flush(h.req(size)).unwrap();
            assert_eq!(r.per_server_bytes.iter().sum::<u64>(), size);
            assert_eq!(r.lost, FlushReport::default());
        });
        // The accepted pass saw a consistent snapshot: offset 0 on the
        // PFS holds one of the versions that was current at some point
        // during the flush — never torn or stale-beyond-recognition.
        let got = h.pfs(0, 64);
        let valid = std::iter::once(Payload::pattern(0, 64))
            .chain((0..32u64).map(|i| Payload::pattern(7000 + i, 64)))
            .any(|p| got.content_eq(&p));
        assert!(valid, "offset 0 holds a torn or unknown version");
        // With writers quiesced, a fresh flush lands the final version.
        let r = h.flush(h.req(size)).unwrap();
        assert_eq!(r.catchup_passes, 0);
        let got = h.pfs(0, 64);
        let (_, records) = h.md.lookup_range(1, 0, 64);
        let (_, final_rec) = records.first().expect("record at offset 0");
        let (current, _) = h
            .chains
            .read_at(final_rec.client, final_rec.va, 64)
            .unwrap();
        assert!(got.content_eq(&current), "quiescent flush not current");
    }

    #[test]
    fn empty_flush_rejected() {
        let h = setup();
        assert!(h.flush(h.req(0)).is_err());
    }
}
