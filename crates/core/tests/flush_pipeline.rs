//! Flush-plane differentials (DESIGN.md §15): the parallel pipelined
//! engine must be observably identical to the sequential reference —
//! byte-identical Lustre contents, equal semantic receipts (per-server /
//! per-OST / per-tier bytes, revocations, loss ledger) — under both
//! runtimes, while measurably coalescing OST writes and batching chain
//! round-trips. Plus the write-overlapped paths: a foreground writer
//! racing the no-checkout flush, same-seed fault-injected loss-ledger
//! equality, and the drain-ledger catch-up through both engines.

use std::sync::Arc;
use univistor_core::config::{FlushPipeline, Runtime, UniviStorConfig};
use univistor_core::fault::FaultConfig;
use univistor_core::flush::FlushReceipt;
use univistor_core::metadata::ClientId;
use univistor_core::server::UniviStorJob;
use univistor_mpi::driver::OpenMode;
use univistor_sim::{Payload, SparseBuffer};

fn client(rank: u32) -> ClientId {
    ClientId::new(0, rank)
}

/// 2 nodes × 2 procs with an explicit 4-worker pool so the partition
/// dimension is exercised even on a single-CPU host. Records are capped
/// at 256 B — a quarter of the adaptive stripe unit the 16 KiB workload
/// below produces — so the flush plane sees many records per stripe unit
/// and the parallel engine's coalescing is measurable.
fn cfg(runtime: Runtime, pipeline: FlushPipeline) -> UniviStorConfig {
    let mut cfg = UniviStorConfig::test_small(2, 2);
    cfg.runtime = runtime;
    cfg.partitions = 4;
    cfg.flush_pipeline = pipeline;
    cfg.metadata_range_size = 256;
    cfg
}

/// Block-per-rank tiling: each rank writes its contiguous 4 KiB quarter
/// in 256 B calls, yielding 64 distinct 256 B records (the record cap
/// stops the write path from pre-coalescing them). Each server range is
/// one rank's block, so the parallel engine can batch a whole range's
/// gather into one round-trip and coalesce its stripe writes, while the
/// reference engine works record-at-a-time.
fn tile_blocks(j: &UniviStorJob) -> u64 {
    j.open_file("/flush")
        .read_write()
        .representing(4)
        .by(client(0))
        .unwrap();
    for rank in 0..4u32 {
        for i in 0..16u64 {
            let offset = rank as u64 * 4096 + i * 256;
            j.write(
                client(rank),
                "/flush",
                offset,
                Payload::pattern(offset, 256),
            )
            .unwrap();
        }
    }
    16384
}

fn close_flush(j: &UniviStorJob, represents: usize) -> FlushReceipt {
    j.close("/flush", client(0), OpenMode::ReadWrite, represents, true)
        .unwrap()
        .expect("close should flush")
}

/// The semantic receipt fields both engines must agree on (the operation
/// counters — `ost_writes`, `write_calls`, `gather_round_trips` — are
/// engine-specific by design: they measure the optimization).
fn assert_semantically_equal(par: &FlushReceipt, seq: &FlushReceipt, ctx: &str) {
    assert_eq!(par.file_size, seq.file_size, "{ctx}: file_size");
    assert_eq!(
        par.per_server_bytes, seq.per_server_bytes,
        "{ctx}: per_server_bytes"
    );
    assert_eq!(par.per_ost_bytes, seq.per_ost_bytes, "{ctx}: per_ost_bytes");
    assert_eq!(
        par.source_tier_bytes, seq.source_tier_bytes,
        "{ctx}: source_tier_bytes"
    );
    assert_eq!(
        par.lock_revocations, seq.lock_revocations,
        "{ctx}: lock_revocations"
    );
    assert_eq!(par.lost, seq.lost, "{ctx}: loss ledger");
    assert_eq!(
        par.drained_ahead_bytes, seq.drained_ahead_bytes,
        "{ctx}: drained_ahead_bytes"
    );
    assert_eq!(par.spans, seq.spans, "{ctx}: spans");
}

/// The acceptance differential: byte-identical Lustre contents and equal
/// semantic receipts between `FlushPipeline::Parallel` and `Sequential`
/// under both runtimes — with the parallel engine issuing strictly fewer
/// object writes and chain round-trips.
#[test]
fn pipelines_agree_and_parallel_coalesces_under_both_runtimes() {
    let mut parallel_receipts = Vec::new();
    for runtime in [Runtime::Locked, Runtime::Partitioned] {
        let run = |pipeline| {
            let j = Arc::new(UniviStorJob::new(cfg(runtime, pipeline)));
            let size = tile_blocks(&j);
            let r = close_flush(&j, 4);
            let bytes = j.lustre_read("/flush", 0, size).unwrap();
            (r, bytes)
        };
        let (seq, seq_bytes) = run(FlushPipeline::Sequential);
        let (par, par_bytes) = run(FlushPipeline::Parallel);
        let ctx = format!("{runtime:?}");
        assert!(
            par_bytes.content_eq(&seq_bytes),
            "{ctx}: PFS bytes diverged"
        );
        assert_semantically_equal(&par, &seq, &ctx);
        // The reference engine works span-at-a-time…
        assert_eq!(seq.write_calls, seq.spans, "{ctx}");
        assert_eq!(seq.gather_round_trips, seq.spans, "{ctx}");
        // …the pipelined engine coalesces and batches.
        assert!(
            par.write_calls < seq.write_calls,
            "{ctx}: no coalescing ({} vs {})",
            par.write_calls,
            seq.write_calls
        );
        assert!(
            par.ost_writes < seq.ost_writes,
            "{ctx}: no OST-write reduction ({} vs {})",
            par.ost_writes,
            seq.ost_writes
        );
        assert!(
            par.gather_round_trips < seq.gather_round_trips,
            "{ctx}: no gather batching ({} vs {})",
            par.gather_round_trips,
            seq.gather_round_trips
        );
        assert_eq!(par.catchup_passes, 0, "{ctx}: quiescent flush redid work");
        // Write calls / OST writes / gather round-trips per drain of this
        // geometry (the retired `flush` bench's deterministic record).
        let plane = |r: &FlushReceipt| (r.spans, r.write_calls, r.ost_writes, r.gather_round_trips);
        assert_eq!(plane(&seq), (64, 64, 64, 64), "{ctx}");
        assert_eq!(plane(&par), (64, 4, 32, 4), "{ctx}");
        parallel_receipts.push((par, par_bytes));
    }
    // The parallel engine is also runtime-invariant, counters included.
    let (locked, locked_bytes) = &parallel_receipts[0];
    let (part, part_bytes) = &parallel_receipts[1];
    assert!(part_bytes.content_eq(locked_bytes), "cross-runtime bytes");
    assert_semantically_equal(part, locked, "cross-runtime");
    assert_eq!(part.ost_writes, locked.ost_writes, "cross-runtime");
    assert_eq!(part.write_calls, locked.write_calls, "cross-runtime");
    assert_eq!(
        part.gather_round_trips, locked.gather_round_trips,
        "cross-runtime"
    );
}

/// Same-seed fault differential: with a transient drizzle (absorbed by
/// the retry budget) plus a node loss before close, both engines report
/// the identical `FlushReport` loss ledger and identical healthy bytes.
#[test]
fn same_seed_loss_ledger_matches_across_pipelines() {
    for runtime in [Runtime::Locked, Runtime::Partitioned] {
        let run = |pipeline| {
            let mut c = cfg(runtime, pipeline);
            c.retry.backoff_base_us = 0;
            c.retry.backoff_cap_us = 0;
            c.fault = Some(FaultConfig {
                seed: 7,
                transient_prob: 0.02,
                ..FaultConfig::default()
            });
            let j = Arc::new(UniviStorJob::new(c));
            let size = tile_blocks(&j);
            // Node 0 (ranks 0 and 1, no replicas) dies before close: its
            // half of the blocks is lost, the rest must still drain.
            assert!(j.fail_node(0));
            (close_flush(&j, 4), size)
        };
        let (seq, size) = run(FlushPipeline::Sequential);
        let (par, _) = run(FlushPipeline::Parallel);
        let ctx = format!("{runtime:?}");
        assert_eq!(par.lost.lost_bytes, size / 2, "{ctx}: unexpected loss");
        assert_eq!(par.lost, seq.lost, "{ctx}: loss ledger diverged");
        assert_semantically_equal(&par, &seq, &ctx);
    }
}

/// A foreground writer racing the close-time flush: under the parallel
/// engine the flush takes no core checkout (routed scans/fetches under
/// the partitioned runtime, shared-lock reads under the locked one), so
/// the writes proceed concurrently and the generation fence redoes any
/// invalidated pass. A quiesced reflush must land the final bytes.
#[test]
fn concurrent_writer_races_the_flush_under_both_runtimes() {
    for runtime in [Runtime::Locked, Runtime::Partitioned] {
        let j = Arc::new(UniviStorJob::new(cfg(runtime, FlushPipeline::Parallel)));
        let size = tile_blocks(&j);
        let racer = {
            let j = Arc::clone(&j);
            std::thread::spawn(move || {
                for i in 0..16u64 {
                    j.write(client(1), "/flush", 0, Payload::pattern(900 + i, 256))
                        .unwrap();
                }
            })
        };
        let r = close_flush(&j, 4);
        assert_eq!(r.file_size, size, "{runtime:?}");
        racer.join().unwrap();
        // Writers quiesced: a reflush needs no catch-up and lands the
        // deterministic final image (tiling + the racer's last write).
        j.open_file("/flush").read_write().by(client(0)).unwrap();
        let r2 = close_flush(&j, 1);
        assert_eq!(r2.catchup_passes, 0, "{runtime:?}");
        let mut model = SparseBuffer::new();
        for rank in 0..4u64 {
            for i in 0..16u64 {
                let offset = rank * 4096 + i * 256;
                model.write(offset, Payload::pattern(offset, 256));
            }
        }
        model.write(0, Payload::pattern(915, 256));
        let got = j.lustre_read("/flush", 0, size).unwrap();
        assert!(
            got.content_eq(&model.read(0, size)),
            "{runtime:?}: final PFS image diverged"
        );
    }
}

/// The drain-ledger catch-up through both engines: after an explicit
/// background drain, the close-time flush skips the drained spans
/// identically under `Parallel` and `Sequential`, and the destination
/// reads back byte-identical.
#[test]
fn drain_ledger_catchup_agrees_across_pipelines() {
    for runtime in [Runtime::Locked, Runtime::Partitioned] {
        let run = |pipeline| {
            let j = Arc::new(UniviStorJob::new(cfg(runtime, pipeline)));
            let size = tile_blocks(&j);
            let drained = j.tiering().drain_now().unwrap();
            assert!(drained.drained_segments > 0, "drain moved nothing");
            let r = close_flush(&j, 4);
            let bytes = j.lustre_read("/flush", 0, size).unwrap();
            (r, bytes)
        };
        let (seq, seq_bytes) = run(FlushPipeline::Sequential);
        let (par, par_bytes) = run(FlushPipeline::Parallel);
        let ctx = format!("{runtime:?}");
        assert!(par.drained_ahead_bytes > 0, "{ctx}: no catch-up happened");
        assert!(
            par_bytes.content_eq(&seq_bytes),
            "{ctx}: PFS bytes diverged"
        );
        assert_semantically_equal(&par, &seq, &ctx);
    }
}
