//! Test oracles: the reference flavour of every product stage, reachable
//! only from tests (DESIGN.md §8a, "Not on the drivers, on purpose").
//!
//! * [`write`] — the per-piece write: one chain lock, punch, KV commit and
//!   node-buffer sweep per grid piece (the pre-batch implementation);
//! * [`read`] over [`fetch_per_record`] — the read driver with one fetch
//!   round-trip per fragment, in plan order;
//! * [`close`] over [`sequential_drain`] — the record-at-a-time flush: one
//!   chain read and one stripe write per clipped span.
//!
//! Each shares as little with the path it checks as the comparison
//! allows: the per-piece write shares only the grid plan and the job's
//! file-table and tiering bookkeeping ([`UniviStorJob::write_with`]); the
//! per-fragment fetch only the read driver's other stages
//! ([`crate::read::ReadService::read_with`]); the sequential drain only
//! the flush request, span resolution and the stripe writer (the
//! [`crate::flush::Engine`] slot). The write and read oracles run on the
//! calling thread under either runtime; a differential pins its oracle
//! side to [`crate::config::Runtime::Locked`] and lets the side under test
//! follow `UNIVISTOR_RUNTIME`.

use super::{DataPlane, UniviStorJob};
use crate::error::{Error, Result};
use crate::fault::with_retries;
use crate::flush::{verify_gathered, CoreView, FetchSpan, FlushAcc, FlushCtx, FlushReceipt};
use crate::metadata::{ClientId, SegmentRecord};
use crate::metrics::WriteLockCounts;
use crate::read::{fetch_span, Fragment, ReadLockCounts};
use crate::va::Tier;
use crate::write::{plan_pieces, WriteOp};
use univistor_mpi::driver::{FileHandle, FsDriver, OpenContext, OpenMode};
use univistor_sim::{Payload, SimError, SimResult};

mod tests;

/// [`UniviStorJob::write`] through the per-piece reference.
pub(crate) fn write(
    job: &UniviStorJob,
    client: ClientId,
    path: &str,
    offset: u64,
    payload: Payload,
) -> Result<()> {
    job.write_with(client, path, offset, payload, |job, op, payload| {
        job.plane.ensure_chain(op.client)?;
        write_per_piece(&job.plane, op, payload)
    })
    .map_err(|e| Error::new("write", e).with_path(path).with_client(client))
}

/// One chain-lock, punch, KV commit and node-buffer sweep per grid piece.
/// Deliberately not built on the write driver (it shares only the grid
/// plan): an oracle running the driver's stages could not catch their
/// mistakes.
fn write_per_piece(plane: &DataPlane, op: &WriteOp, payload: Payload) -> SimResult<()> {
    let core = &plane.core;
    let &WriteOp {
        client,
        fid,
        node,
        offset,
        ..
    } = op;
    let mut locks = WriteLockCounts::default();
    let pieces = plan_pieces(plane.cfg.segment_size, offset, payload.len());
    for &(cur, piece_len) in &pieces {
        let piece = payload.slice(cur - offset, piece_len);
        let placed = with_retries(&plane.cfg.retry, Some(&plane.metrics), || {
            core.chains.append(client, piece.clone())
        })?;
        locks.chain += 1;

        // Mirror segments that landed on volatile layers into a buddy
        // process's chain on the next (healthy) node.
        let mut record = SegmentRecord::new(client, placed.va, piece_len);
        if plane.cfg.integrity.checksums {
            record.checksum = Some(plane.verifier.stamp(&piece));
        }
        if plane.cfg.replicate_volatile && placed.tier != Tier::Pfs {
            if let Some(buddy) = plane.replica_buddy(client) {
                plane.ensure_chain(buddy)?;
                // Best-effort: a full buddy chain degrades resilience for
                // this segment, it does not fail the write. The buddy's
                // chain lock is taken after releasing ours — never two
                // chain locks at once.
                locks.chain += 1;
                let mirrored = with_retries(&plane.cfg.retry, Some(&plane.metrics), || {
                    core.chains.append(buddy, piece.clone())
                });
                if let Ok(rplaced) = mirrored {
                    record.replica = Some((buddy, rplaced.va));
                    plane.metrics.record_replication(piece_len);
                }
            }
        }

        let outcome = with_retries(&plane.cfg.retry, Some(&plane.metrics), || {
            core.metadata
                .insert_batch(fid, cur, cur + piece_len, &[(cur, record)], node)
        })?;
        locks.kv_shard += outcome.locks.kv_shard_acquisitions;
        locks.node_buffer += outcome.locks.node_buffer_acquisitions;
        // Free the log space of overwritten data (possibly owned by other
        // clients' chains), including replica copies. Each displaced span
        // was claimed exactly once by the punch, so it is released exactly
        // once here.
        for d in outcome.displaced {
            core.chains.release(d.client, d.va, d.len);
            locks.chain += 1;
            if let Some((rc, rva)) = d.replica {
                core.chains.release(rc, rva, d.len);
                locks.chain += 1;
            }
        }
        plane
            .metrics
            .record_segment(placed.tier, placed.layer, piece_len);
    }
    plane
        .metrics
        .record_write_batch(pieces.len() as u64, pieces.len() as u64, locks);
    Ok(())
}

/// [`UniviStorJob::read`] with the per-fragment reference fetch.
pub(crate) fn read(
    job: &UniviStorJob,
    client: ClientId,
    path: &str,
    offset: u64,
    len: u64,
) -> Result<Payload> {
    read_per_record(job, client, path, offset, len)
        .map_err(|e| Error::new("read", e).with_path(path).with_client(client))
}

/// The job's read, with [`fetch_per_record`] as its fetch stage.
fn read_per_record(
    job: &UniviStorJob,
    client: ClientId,
    path: &str,
    offset: u64,
    len: u64,
) -> SimResult<Payload> {
    job.poll_faults();
    let fid = job
        .files
        .read()
        .expect("file table poisoned")
        .get(path)
        .ok_or_else(|| SimError::InvalidConfig(format!("read of unopened '{path}'")))?
        .fid;
    let plane = &*job.plane;
    let failed = plane.failed();
    let service = plane.read_service(&failed);
    let out = with_retries(&plane.cfg.retry, Some(&plane.metrics), || {
        service.read_with(client, fid, offset, len, |fragments, locks| {
            fetch_per_record(plane.core.view(), fragments, locks)
        })
    })?;
    plane.metrics.record_read_locks(out.locks);
    plane.core.metadata.record_reads(out.reads());
    plane.metrics.record_read_trace(&out.trace);
    Ok(out.payload)
}

/// The read driver's fetch stage, reference flavour: one fetch
/// round-trip per fragment, in plan order.
pub(crate) fn fetch_per_record(
    source: CoreView,
    fragments: &[Fragment],
    locks: &mut ReadLockCounts,
) -> SimResult<Vec<(Payload, Tier)>> {
    let mut fetched = Vec::with_capacity(fragments.len());
    for f in fragments {
        let mut got = source.read_spans(f.source, &[fetch_span(f)])?;
        fetched.push(got.pop().expect("one span requested"));
        locks.chain += 1;
    }
    Ok(fetched)
}

/// [`UniviStorJob::close`], flushing through [`sequential_drain`].
pub(crate) fn close(
    job: &UniviStorJob,
    path: &str,
    client: ClientId,
    mode: OpenMode,
    represents: usize,
    lock_holder: bool,
) -> Result<Option<FlushReceipt>> {
    job.close_impl(path, mode, represents, lock_holder, sequential_drain)
        .map_err(|e| Error::new("close", e).with_path(path).with_client(client))
}

/// The reference drain engine: one pass, no catch-up fence.
pub(crate) fn sequential_drain(ctx: &FlushCtx) -> SimResult<(FlushAcc, u64)> {
    Ok((sequential_pass(ctx)?, 0))
}

/// One loop over the server ranges, one chain read and one stripe write
/// per clipped span — byte-for-byte the pre-pipelined flush.
fn sequential_pass(ctx: &FlushCtx) -> SimResult<FlushAcc> {
    let mut acc = ctx.new_acc();
    for &(start, end) in ctx.plan.server_ranges.iter() {
        if end <= start {
            continue;
        }
        ctx.draw_lookup()?;
        for (key, rec) in ctx.source.records(ctx.req.fid, start, end).1 {
            let seg_end = key.offset + rec.len;
            let clip_lo = key.offset.max(start);
            let clip_hi = seg_end.min(end);
            if clip_hi <= clip_lo {
                continue;
            }
            let clip_len = clip_hi - clip_lo;
            // Catch-up: the drain already copied this exact record's
            // bytes to `dest`. Checked before the health split, so a
            // drained span survives even when its source node has since
            // failed.
            if let Some(ledger) = ctx.resume {
                if ledger.spans.get(&key.offset) == Some(&rec) {
                    acc.drained_ahead += clip_len;
                    continue;
                }
            }
            let Some((client, base_va)) = ctx.healthy_source(&rec) else {
                acc.lost.lost_segments += 1;
                acc.lost.lost_bytes += clip_len;
                continue;
            };
            let span = FetchSpan {
                rec,
                client,
                base_va,
                key_offset: key.offset,
                clip_lo,
                len: clip_len,
            };
            let mut got = ctx.read_spans(client, &[span.request()])?;
            let (payload, tier) = got.pop().expect("one span requested");
            acc.spans += 1;
            acc.gather_round_trips += 1;
            let (payload, tier) =
                verify_gathered(ctx, &span, payload, tier, &mut acc.gather_round_trips)?;
            *acc.source_tiers.entry(tier).or_insert(0) += clip_len;
            let w = ctx.write(clip_lo, payload)?;
            acc.absorb_write(w);
        }
    }
    Ok(acc)
}

/// A [`UniviStorDriver`](crate::driver::UniviStorDriver) for application
/// 0 whose writes take the per-piece oracle — for the figure workloads,
/// which write through MPI-IO.
pub(crate) struct PerPieceDriver(pub crate::driver::UniviStorDriver);

impl FsDriver for PerPieceDriver {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn open(&self, ctx: &OpenContext) -> SimResult<FileHandle> {
        self.0.open(ctx)
    }

    fn write_at(&self, h: &FileHandle, rank: usize, offset: u64, data: Payload) -> SimResult<()> {
        let client = ClientId::new(0, rank as u32);
        Ok(write(self.0.job(), client, &h.path, offset, data)?)
    }

    fn read_at(&self, h: &FileHandle, rank: usize, offset: u64, len: u64) -> SimResult<Payload> {
        self.0.read_at(h, rank, offset, len)
    }

    fn close(&self, h: &FileHandle, rank: usize) -> SimResult<()> {
        self.0.close(h, rank)
    }

    fn file_size(&self, h: &FileHandle) -> SimResult<u64> {
        self.0.file_size(h)
    }
}
