//! The differentials that need an oracle: each product stage against its
//! reference flavour (DESIGN.md §8a). The write and read oracles are
//! pinned to the locked runtime; the side under test follows
//! `UNIVISTOR_RUNTIME`, so the partitioned sweep checks the routed and
//! fused paths against the same references. The flush differentials run
//! both engines under both runtimes explicitly.

use super::{close, read, write, PerPieceDriver};
use crate::config::{Runtime, UniviStorConfig};
use crate::driver::UniviStorDriver;
use crate::fault::FaultConfig;
use crate::flush::FlushReceipt;
use crate::metadata::ClientId;
use crate::server::UniviStorJob;
use std::sync::Arc;
use univistor_mpi::driver::{FsDriver, OpenMode};
use univistor_sim::rng::DetRng;
use univistor_sim::{Payload, SparseBuffer};

fn client(rank: u32) -> ClientId {
    ClientId::new(0, rank)
}

/// A differential pair over `cfg`: `[oracle side, product side]`. The
/// oracle side runs on the locked runtime, the only one the write and read
/// oracles run on; the product side keeps `cfg.runtime`.
fn pair(cfg: UniviStorConfig) -> [Arc<UniviStorJob>; 2] {
    let mut locked = cfg.clone();
    locked.runtime = Runtime::Locked;
    [
        Arc::new(UniviStorJob::new(locked)),
        Arc::new(UniviStorJob::new(cfg)),
    ]
}

/// Write through the per-piece oracle or the product path.
fn write_via(oracle: bool, j: &UniviStorJob, c: ClientId, path: &str, off: u64, data: Payload) {
    let done = if oracle {
        write(j, c, path, off, data)
    } else {
        j.write(c, path, off, data)
    };
    done.unwrap();
}

/// Read through the per-record oracle or the product path.
fn read_via(
    oracle: bool,
    j: &UniviStorJob,
    c: ClientId,
    path: &str,
    off: u64,
    len: u64,
) -> Payload {
    let got = if oracle {
        read(j, c, path, off, len)
    } else {
        j.read(c, path, off, len)
    };
    got.unwrap()
}

// ---------------------------------------------------------------------
// Write: the batched path (piece planning + `append_many` + whole-span
// punch + partition-grouped commits + segment coalescing) against the
// per-piece reference — same bytes, same live-byte accounting (displaced
// spans released, replicas included), and coalesced records never exceed
// the metadata range.
// ---------------------------------------------------------------------

fn write_pair(replicate: bool) -> [Arc<UniviStorJob>; 2] {
    let mut cfg = UniviStorConfig::test_small(2, 2);
    cfg.replicate_volatile = replicate;
    pair(cfg)
}

/// Invariants any single job must satisfy against the flat model:
/// records respect the coalescing cap and tile without overlap, the
/// index's bytes (primary + replica) balance the live log bytes, and
/// every written extent reads back exactly.
fn check_against_model(
    job: &UniviStorJob,
    path: &str,
    model: &SparseBuffer,
    range: u64,
    replicate: bool,
) {
    let index = job.index_of(path).unwrap();
    let mut record_bytes = 0u64;
    for (k, r) in &index {
        assert!(
            r.len <= range,
            "record at offset {} is {} B — coalescing exceeded the {range} B range",
            k.offset,
            r.len
        );
        record_bytes += r.len;
        if r.replica.is_some() {
            record_bytes += r.len;
        }
    }
    for w in index.windows(2) {
        assert!(
            w[0].0.offset + w[0].1.len <= w[1].0.offset,
            "records overlap at offsets {} and {}",
            w[0].0.offset,
            w[1].0.offset
        );
    }
    // Displaced spans were all released: the index accounts for every
    // live byte still held in the log chains, nothing leaks.
    let live: u64 = job.tier_usage().iter().map(|(_, b)| b).sum();
    assert_eq!(record_bytes, live, "index bytes vs live log bytes");
    if !replicate {
        assert_eq!(live, model.bytes_stored(), "live bytes vs model");
    }
    for (off, p) in model.extents() {
        let got = job.read(client(0), path, off, p.len()).unwrap();
        assert!(got.content_eq(p), "extent at {off} diverged from the model");
    }
}

/// Random offsets/lengths/overwrites from four ranks, applied to both
/// write paths and a flat sparse-buffer model, with and without
/// `replicate_volatile`. The tiny test tiers force spills and
/// tight-capacity displacement on the way.
#[test]
fn batched_pipeline_matches_per_piece_reference() {
    let mut rng = DetRng::seed(0xba7c_0001);
    for trial in 0..40u64 {
        let replicate = trial % 2 == 1;
        let jobs = write_pair(replicate);
        for j in &jobs {
            j.open_file("/b")
                .read_write()
                .representing(4)
                .by(client(0))
                .unwrap();
        }
        let mut model = SparseBuffer::new();
        let mut seed = trial * 1000;
        let n_writes = 1 + rng.below(24);
        for _ in 0..n_writes {
            let rank = rng.below(4) as u32;
            let offset = rng.below(2048) as u64;
            let len = 1 + rng.below(700) as u64;
            seed += 1;
            let data = Payload::pattern(seed, len);
            for (i, j) in jobs.iter().enumerate() {
                write_via(i == 0, j, client(rank), "/b", offset, data.clone());
            }
            model.write(offset, data);
        }

        for j in &jobs {
            check_against_model(j, "/b", &model, 1024, replicate);
        }
        // The paths may split bytes across tiers differently under
        // tight-capacity overwrites (batched appends the whole run before
        // releasing displaced spans), but primary coverage must agree:
        // both indexes tile exactly the model's written extents.
        let primary_bytes = |j: &UniviStorJob| {
            j.index_of("/b")
                .unwrap()
                .iter()
                .map(|(_, r)| r.len)
                .sum::<u64>()
        };
        assert_eq!(primary_bytes(&jobs[0]), model.bytes_stored());
        assert_eq!(primary_bytes(&jobs[1]), model.bytes_stored());
        if !replicate {
            // Replica placement is best-effort and capacity-dependent, so
            // only the unreplicated runs pin the full live-byte totals.
            let live = |j: &UniviStorJob| j.tier_usage().iter().map(|(_, b)| b).sum::<u64>();
            assert_eq!(live(&jobs[0]), live(&jobs[1]), "live-byte totals diverged");
        }
        assert_eq!(
            jobs[0].file_size("/b").unwrap(),
            jobs[1].file_size("/b").unwrap()
        );
        // Coalescing can only shrink the index.
        assert!(jobs[1].metadata_records() <= jobs[0].metadata_records());
    }
}

/// A fresh sequential write (disjoint blocks, ample DRAM) must leave the
/// two write paths with identical placement statistics — the batching is
/// pure mechanism there, not policy.
#[test]
fn fresh_sequential_write_stats_are_pipeline_invariant() {
    let mut cfg = UniviStorConfig::test_small(2, 2);
    cfg.cal.dram_cache_capacity_per_node = 1 << 20;
    let jobs = pair(cfg);
    for (i, j) in jobs.iter().enumerate() {
        j.open_file("/s")
            .read_write()
            .representing(4)
            .by(client(0))
            .unwrap();
        for rank in 0..4u32 {
            let data = Payload::pattern(rank as u64, 4096);
            write_via(i == 0, j, client(rank), "/s", rank as u64 * 4096, data);
        }
    }
    let (a, b) = (jobs[0].stats(), jobs[1].stats());
    assert_eq!(a.segments, b.segments);
    assert_eq!(a.bytes_by_tier, b.bytes_by_tier);
    assert_eq!(a.write_md_rpcs, b.write_md_rpcs);
    assert_eq!(a.replicated_bytes, b.replicated_bytes);
    // Sequential 4 KiB runs coalesce fully (range 1024 B caps each record
    // at 8 segments): a quarter of the per-piece index.
    assert_eq!(jobs[0].metadata_records(), 4 * 32);
    assert_eq!(jobs[1].metadata_records(), 4 * 4);
}

/// The deterministic counters of the retired `write_batch` bench, at its
/// shape: a client streams 16-segment writes, cycling a 64-block window so
/// every pass after the first overwrites. The 32 KiB metadata range caps a
/// coalesced record at 8 segments, so a batched call commits 2 records for
/// its 16 pieces (8×: 40 000 records for 320 000 pieces at the bench's
/// 20 000 calls) under one append plus at most one release chain lock; the
/// per-piece reference takes each 16 times. Neither takes any lock to
/// account the bytes — the panel's counters are the accounting.
#[test]
fn batched_call_coalesces_8x_within_two_chain_locks() {
    const CALLS: u64 = 320;
    const WINDOW: u64 = 64;
    let block = 16 * 4096u64;
    let client = client(0);
    // [pieces, records committed, records live, chain locks]
    let run = |oracle: bool| {
        let mut cfg = UniviStorConfig::paper(4);
        cfg.runtime = Runtime::Locked;
        cfg.features.flush_on_close = false;
        cfg.chunk_size = 64 << 10;
        cfg.segment_size = 4 << 10;
        cfg.metadata_range_size = 32 << 10;
        let job = UniviStorJob::new(cfg);
        job.open_file("/wb").read_write().by(client).unwrap();
        for i in 0..CALLS {
            let data = Payload::pattern(i, block);
            write_via(oracle, &job, client, "/wb", (i % WINDOW) * block, data);
        }
        let snap = job.metrics();
        let write_locks = snap
            .family("univistor_write_lock_acquisitions_total")
            .expect("write lock family");
        assert_eq!(write_locks.samples.len(), 3, "chain, kv_shard, node_buffer");
        let lock = |l| {
            snap.counter("univistor_write_lock_acquisitions_total", &[("lock", l)])
                .unwrap_or(0)
        };
        [
            snap.counter_total("univistor_write_pieces_total"),
            snap.counter_total("univistor_write_records_total"),
            job.metadata_records() as u64,
            lock("chain"),
        ]
    };
    // Chain locks: one per append, one per release — and every call past
    // the first pass over the window displaces what it overwrites.
    let (pieces, overwrites) = (16 * CALLS, CALLS - WINDOW);
    assert_eq!(
        run(false),
        [pieces, 2 * CALLS, 2 * WINDOW, CALLS + overwrites]
    );
    assert_eq!(
        run(true),
        [pieces, pieces, 16 * WINDOW, pieces + 16 * overwrites]
    );
}

// ---------------------------------------------------------------------
// Read: the grouped fetch (fragment planning + `read_at_many` + the
// node-local read record cache) against the per-record reference — same
// bytes, same `ReadTrace` accounting, with and without replication and
// failed nodes.
// ---------------------------------------------------------------------

fn read_pair(replicate: bool) -> [Arc<UniviStorJob>; 2] {
    let mut cfg = UniviStorConfig::test_small(2, 2);
    cfg.replicate_volatile = replicate;
    if replicate {
        // Ample DRAM so every volatile segment gets its replica placed —
        // the failure trials below depend on full replica coverage.
        cfg.cal.dram_cache_capacity_per_node = 1 << 20;
    }
    pair(cfg)
}

/// Random writes from four ranks, then random (clipped) reads by random
/// clients, applied identically to the per-record oracle, the product
/// read, and a flat sparse-buffer model. Trials rotate through plain /
/// replicated / replicated-with-a-failed-node configurations. Bytes and
/// the full `ReadTrace` must agree between the two in every trial.
#[test]
fn batched_read_matches_per_record_reference() {
    let mut rng = DetRng::seed(0x4ead_0004);
    for trial in 0..40u64 {
        let (replicate, fail) = match trial % 4 {
            1 => (true, false),
            2 => (true, true),
            _ => (false, false),
        };
        let jobs = read_pair(replicate);
        for j in &jobs {
            j.open_file("/r")
                .read_write()
                .representing(4)
                .by(client(0))
                .unwrap();
        }
        let mut model = SparseBuffer::new();
        let mut seed = trial * 1000;
        let n_writes = 1 + rng.below(24);
        for _ in 0..n_writes {
            let rank = rng.below(4) as u32;
            let offset = rng.below(2048) as u64;
            let len = 1 + rng.below(700) as u64;
            seed += 1;
            let data = Payload::pattern(seed, len);
            for j in &jobs {
                j.write(client(rank), "/r", offset, data.clone()).unwrap();
            }
            model.write(offset, data);
        }
        if fail {
            for j in &jobs {
                j.fail_node(1);
            }
        }
        let extents: Vec<(u64, &Payload)> = model.extents().collect();
        for _ in 0..12 {
            let (ext_off, p) = extents[rng.below(extents.len())];
            let lo = rng.below(p.len() as usize) as u64;
            let len = 1 + rng.below((p.len() - lo) as usize) as u64;
            // With node 1 failed, read from node 0's ranks.
            let reader = client(rng.below(if fail { 2 } else { 4 }) as u32);
            let expect = p.slice(lo, len);
            for (i, j) in jobs.iter().enumerate() {
                let got = read_via(i == 0, j, reader, "/r", ext_off + lo, len);
                assert!(
                    got.content_eq(&expect),
                    "trial {trial}: read [{}, {}) diverged from the model",
                    ext_off + lo,
                    ext_off + lo + len
                );
            }
        }
        // Every written extent in full, too.
        for &(off, p) in &extents {
            for (i, j) in jobs.iter().enumerate() {
                let got = read_via(i == 0, j, client(0), "/r", off, p.len());
                assert!(got.content_eq(p), "trial {trial}: extent at {off} diverged");
            }
        }
        let (a, b) = (jobs[0].stats(), jobs[1].stats());
        assert_eq!(
            a.read_trace, b.read_trace,
            "trial {trial}: ReadTrace must be pipeline-invariant"
        );
    }
}

/// Replica routing over a *coalesced* multi-chunk record: one 1024-byte
/// write coalesces into a single record spanning four 256-byte chunks;
/// after the producer's node fails, full and unaligned sub-range reads
/// must be served from the buddy's replica, byte-exact, through both the
/// oracle and the product read.
#[test]
fn replica_reads_span_coalesced_multi_chunk_records() {
    for (i, j) in read_pair(true).iter().enumerate() {
        let oracle = i == 0;
        j.open_file("/x")
            .read_write()
            .representing(4)
            .by(client(0))
            .unwrap();
        // Rank 2 lives on node 1; its buddy (rank 0) on node 0.
        let data = Payload::pattern(7, 1024);
        j.write(client(2), "/x", 0, data.clone()).unwrap();
        let index = j.index_of("/x").unwrap();
        assert_eq!(index.len(), 1, "the write should coalesce to one record");
        assert_eq!(index[0].1.len, 1024);
        assert!(index[0].1.replica.is_some(), "replica must have placed");
        j.fail_node(1);
        let reader = client(0);
        let got = read_via(oracle, j, reader, "/x", 0, 1024);
        assert!(got.content_eq(&data), "oracle={oracle}: full replica read");
        // Unaligned sub-range crossing two chunk boundaries.
        let got = read_via(oracle, j, reader, "/x", 300, 500);
        assert!(
            got.content_eq(&data.slice(300, 500)),
            "oracle={oracle}: unaligned replica read"
        );
        let trace = j.stats().read_trace;
        assert_eq!(trace.replica_bytes, 1024 + 500);
    }
}

/// The deterministic counter of the retired `read_batch` bench, at its
/// shape: a 64 KiB read over 128 segment records of one producer's chain
/// takes 128 shared chain-lock acquisitions on the per-record path and 1
/// on the grouped path; every `ReadTrace` field is the same on both.
#[test]
fn batched_read_takes_one_chain_lock_for_128_records() {
    const SEGMENT: u64 = 512;
    let run = |oracle: bool| {
        let mut cfg = UniviStorConfig::paper(4);
        cfg.runtime = Runtime::Locked;
        cfg.features.flush_on_close = false;
        cfg.chunk_size = 16 << 10;
        cfg.segment_size = SEGMENT;
        cfg.metadata_range_size = 32 << 10;
        let job = UniviStorJob::new(cfg);
        let client = client(0);
        job.open_file("/rb/f").read_write().by(client).unwrap();
        for s in 0..128 {
            job.write(client, "/rb/f", s * SEGMENT, Payload::pattern(s, SEGMENT))
                .unwrap();
        }
        read_via(oracle, &job, client, "/rb/f", 0, 128 * SEGMENT);
        let chain_locks = job
            .metrics()
            .counter(
                "univistor_read_lock_acquisitions_total",
                &[("lock", "chain")],
            )
            .unwrap_or(0);
        (chain_locks, job.stats().read_trace)
    };
    let (per_record_locks, per_record_trace) = run(true);
    let (batched_locks, batched_trace) = run(false);
    assert_eq!((per_record_locks, batched_locks), (128, 1));
    assert_eq!(per_record_trace, batched_trace);
}

// ---------------------------------------------------------------------
// Flush (DESIGN.md §15): the parallel pipelined engine must be observably
// identical to the record-at-a-time reference — byte-identical Lustre
// contents, equal semantic receipts (per-server / per-OST / per-tier
// bytes, revocations, loss ledger) — under both runtimes, while
// measurably coalescing OST writes and batching chain round-trips.
// ---------------------------------------------------------------------

/// 2 nodes × 2 procs with an explicit 4-worker pool so the partition
/// dimension is exercised even on a single-CPU host. Records are capped
/// at 256 B — a quarter of the adaptive stripe unit the 16 KiB workload
/// below produces — so the flush plane sees many records per stripe unit
/// and the parallel engine's coalescing is measurable.
fn flush_cfg(runtime: Runtime) -> UniviStorConfig {
    let mut cfg = UniviStorConfig::test_small(2, 2);
    cfg.runtime = runtime;
    cfg.partitions = 4;
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

/// The last close of "/flush", draining with the reference engine
/// (`oracle`) or the product one.
fn close_flush(oracle: bool, j: &UniviStorJob) -> FlushReceipt {
    let closed = if oracle {
        close(j, "/flush", client(0), OpenMode::ReadWrite, 4, true)
    } else {
        j.close("/flush", client(0), OpenMode::ReadWrite, 4, true)
    };
    closed.unwrap().expect("close should flush")
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
/// semantic receipts between the parallel engine and the sequential
/// reference under both runtimes — with the parallel engine issuing
/// strictly fewer object writes and chain round-trips.
#[test]
fn pipelines_agree_and_parallel_coalesces_under_both_runtimes() {
    let mut parallel_receipts = Vec::new();
    for runtime in [Runtime::Locked, Runtime::Partitioned] {
        let run = |oracle| {
            let j = Arc::new(UniviStorJob::new(flush_cfg(runtime)));
            let size = tile_blocks(&j);
            let r = close_flush(oracle, &j);
            let bytes = j.lustre_read("/flush", 0, size).unwrap();
            (r, bytes)
        };
        let (seq, seq_bytes) = run(true);
        let (par, par_bytes) = run(false);
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
        let run = |oracle| {
            let mut c = flush_cfg(runtime);
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
            (close_flush(oracle, &j), size)
        };
        let (seq, size) = run(true);
        let (par, _) = run(false);
        let ctx = format!("{runtime:?}");
        assert_eq!(par.lost.lost_bytes, size / 2, "{ctx}: unexpected loss");
        assert_eq!(par.lost, seq.lost, "{ctx}: loss ledger diverged");
        assert_semantically_equal(&par, &seq, &ctx);
    }
}

/// The drain-ledger catch-up through both engines: after an explicit
/// background drain, the close-time flush skips the drained spans
/// identically under the parallel engine and the reference, and the
/// destination reads back byte-identical.
#[test]
fn drain_ledger_catchup_agrees_across_pipelines() {
    for runtime in [Runtime::Locked, Runtime::Partitioned] {
        let run = |oracle| {
            let j = Arc::new(UniviStorJob::new(flush_cfg(runtime)));
            let size = tile_blocks(&j);
            let drained = j.tiering().drain_now().unwrap();
            assert!(drained.drained_segments > 0, "drain moved nothing");
            let r = close_flush(oracle, &j);
            let bytes = j.lustre_read("/flush", 0, size).unwrap();
            (r, bytes)
        };
        let (seq, seq_bytes) = run(true);
        let (par, par_bytes) = run(false);
        let ctx = format!("{runtime:?}");
        assert!(par.drained_ahead_bytes > 0, "{ctx}: no catch-up happened");
        assert!(
            par_bytes.content_eq(&seq_bytes),
            "{ctx}: PFS bytes diverged"
        );
        assert_semantically_equal(&par, &seq, &ctx);
    }
}

// ---------------------------------------------------------------------
// Repair, and the figure workloads.
// ---------------------------------------------------------------------

/// 3 nodes × 2 procs with replication on and roomy DRAM, so repair has
/// healthy nodes to re-mirror onto (the chaos soak's configuration,
/// fault-free).
fn chaos_cfg() -> UniviStorConfig {
    let mut cfg = UniviStorConfig::test_small(3, 2);
    cfg.replicate_volatile = true;
    cfg.cal.dram_cache_capacity_per_node = 8192;
    // Keep the test fast: retries sleep for real.
    cfg.retry.backoff_base_us = 1;
    cfg.retry.backoff_cap_us = 10;
    cfg
}

/// Two waves of per-rank 256 B writes to "/soak", then one full read back
/// (through the oracle when `oracle`).
fn run_chaos_workload(oracle: bool, j: &UniviStorJob) -> Payload {
    let ranks = j.cfg().geometry.total_procs() as u32;
    j.open_file("/soak")
        .write()
        .representing(ranks as usize)
        .by(client(0))
        .unwrap();
    let wave = ranks as u64 * 256;
    for w in 0..2u64 {
        for rank in 0..ranks {
            let data = Payload::pattern(w * 100 + rank as u64, 256);
            j.write(client(rank), "/soak", w * wave + rank as u64 * 256, data)
                .unwrap();
        }
    }
    read_via(oracle, j, client(ranks - 1), "/soak", 0, 2 * wave)
}

/// Repair-then-read equivalence, through the product read and the
/// per-record oracle: after a node loss, `rebuild_degraded` +
/// `restore_node` leaves every byte readable and identical to what was
/// written.
#[test]
fn repair_then_read_is_equivalent_under_both_pipelines() {
    for (i, j) in pair(chaos_cfg()).iter().enumerate() {
        let oracle = i == 0;
        let ranks = j.cfg().geometry.total_procs() as u32;
        let expected = run_chaos_workload(oracle, j);
        assert!(j.fail_node(0));
        let report = j.rebuild_degraded().unwrap();
        assert!(report.repaired_primary > 0, "oracle={oracle}: {report:?}");
        assert_eq!(report.lost_records, 0, "oracle={oracle}: {report:?}");
        assert_eq!(j.degraded_segments(), 0, "oracle={oracle}");
        assert!(j.restore_node(0));
        assert!(!j.restore_node(0), "restore_node must be idempotent");
        for rank in 0..ranks {
            let got = read_via(oracle, j, client(rank), "/soak", 0, expected.len());
            assert!(
                got.content_eq(&expected),
                "oracle={oracle}: post-repair read diverged for rank {rank}"
            );
        }
    }
}

/// The figure workloads' observable statistics are write-path invariant:
/// micro's disjoint once-written blocks place identically under the
/// batched and per-piece paths, so everything the timing plane consumes —
/// segments, RPC counts, tier byte splits, read classification, checksums
/// — is unchanged by batching.
#[test]
fn batched_pipeline_preserves_figure_stats() {
    let mut cfg = UniviStorConfig::test_small(4, 8);
    cfg.chunk_size = 4096;
    cfg.segment_size = 1024;
    cfg.metadata_range_size = 64 << 10;
    cfg.cal.dram_cache_capacity_per_node = 256 << 10;
    cfg.cal.bb_capacity_per_node = 4 << 20;
    let [oracle_job, product_job] = pair(cfg);
    let run = |job: Arc<UniviStorJob>, oracle: bool| {
        let driver = UniviStorDriver::new(Arc::clone(&job), 0);
        let driver: Box<dyn FsDriver> = if oracle {
            Box::new(PerPieceDriver(driver))
        } else {
            Box::new(driver)
        };
        let micro = univistor_workloads::MicroIo::scaled(32, 64 << 10);
        micro.write_phase(driver.as_ref(), "/fig").unwrap();
        micro.read_phase(driver.as_ref(), "/fig", false).unwrap();
        let stats = job.stats();
        // `local_md_hits` counts metadata *records* served from the
        // shared buffer; coalescing legitimately shrinks it, and the
        // timing plane never reads it — zero it before comparing.
        let mut trace = stats.read_trace;
        trace.local_md_hits = 0;
        let checksum = job
            .lustre_read("/fig", 0, micro.file_size())
            .unwrap()
            .content_checksum();
        (
            stats.segments,
            stats.open_close_md_rpcs,
            stats.bytes_by_tier.clone(),
            trace,
            checksum,
        )
    };
    assert_eq!(run(product_job, false), run(oracle_job, true));
}
