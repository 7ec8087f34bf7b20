//! Read-pipeline properties: the batched read path (fragment planning +
//! grouped `read_at_many` fetches + the node-local read record cache +
//! readahead) must be observably identical to the per-record reference —
//! same bytes, same `ReadTrace` accounting, with and without replication
//! and failed nodes — and an overwrite must invalidate cached records
//! immediately. Plus the PR 3 interactions that were untested: promotion
//! racing overwrites, and replica routing over coalesced multi-chunk
//! records.

use std::sync::Arc;
use univistor_core::config::{PromotionPolicy, ReadPipeline, Runtime, UniviStorConfig};
use univistor_core::metadata::ClientId;
use univistor_core::server::UniviStorJob;
use univistor_sim::rng::DetRng;
use univistor_sim::{Payload, SparseBuffer};

fn job(pipeline: ReadPipeline, replicate: bool) -> Arc<UniviStorJob> {
    let mut cfg = UniviStorConfig::test_small(2, 2);
    cfg.read_pipeline = pipeline;
    cfg.replicate_volatile = replicate;
    if replicate {
        // Ample DRAM so every volatile segment gets its replica placed —
        // the failure trials below depend on full replica coverage.
        cfg.cal.dram_cache_capacity_per_node = 1 << 20;
    }
    Arc::new(UniviStorJob::new(cfg))
}

/// Random writes from four ranks, then random (clipped) reads by random
/// clients, applied identically to a `PerRecord` job, a `Batched` job,
/// and a flat sparse-buffer model. Trials rotate through plain /
/// replicated / replicated-with-a-failed-node configurations. Bytes and
/// the full `ReadTrace` must agree between the pipelines in every trial.
#[test]
fn batched_read_matches_per_record_reference() {
    let mut rng = DetRng::seed(0x4ead_0004);
    for trial in 0..40u64 {
        let (replicate, fail) = match trial % 4 {
            1 => (true, false),
            2 => (true, true),
            _ => (false, false),
        };
        let jobs = [
            job(ReadPipeline::PerRecord, replicate),
            job(ReadPipeline::Batched, replicate),
        ];
        for j in &jobs {
            j.open_file("/r")
                .read_write()
                .representing(4)
                .by(ClientId::new(0, 0))
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
                j.write(ClientId::new(0, rank), "/r", offset, data.clone())
                    .unwrap();
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
            let reader = ClientId::new(0, rng.below(if fail { 2 } else { 4 }) as u32);
            let expect = p.slice(lo, len);
            for j in &jobs {
                let got = j.read(reader, "/r", ext_off + lo, len).unwrap();
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
            for j in &jobs {
                let got = j.read(ClientId::new(0, 0), "/r", off, p.len()).unwrap();
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

/// An overwrite must invalidate the node's cached read records
/// immediately: the very next read sees the fresh bytes and counts as a
/// cache miss, never a stale VA.
#[test]
fn overwrite_invalidates_cached_read_records() {
    let job = Arc::new(UniviStorJob::new(UniviStorConfig::test_small(2, 2)));
    job.open_file("/c")
        .read_write()
        .representing(4)
        .by(ClientId::new(0, 0))
        .unwrap();
    // Writer on node 1, reader on node 0 — so the reader's lookups go
    // through the distributed KV (and its node's read record cache), not
    // the producer node's shared metadata buffer.
    let writer = ClientId::new(0, 2);
    let reader = ClientId::new(0, 0);
    let hits = |j: &UniviStorJob| {
        j.metrics()
            .counter_total("univistor_read_md_cache_hits_total")
    };
    let misses = |j: &UniviStorJob| {
        j.metrics()
            .counter_total("univistor_read_md_cache_misses_total")
    };
    job.write(writer, "/c", 0, Payload::pattern(1, 256))
        .unwrap();
    let got = job.read(reader, "/c", 0, 256).unwrap();
    assert!(got.content_eq(&Payload::pattern(1, 256)));
    assert_eq!((hits(&job), misses(&job)), (0, 1));
    // Same window again: served from the cache, no RPCs.
    let md_rpcs_before = job.stats().read_trace.md_rpcs;
    let got = job.read(reader, "/c", 0, 256).unwrap();
    assert!(got.content_eq(&Payload::pattern(1, 256)));
    assert_eq!((hits(&job), misses(&job)), (1, 1));
    assert_eq!(job.stats().read_trace.md_rpcs, md_rpcs_before);
    // Overwrite the middle: the cached window dies with the generation
    // bump, and the next read returns the fresh bytes at miss cost.
    job.write(writer, "/c", 64, Payload::pattern(2, 64))
        .unwrap();
    let got = job.read(reader, "/c", 0, 256).unwrap();
    assert!(got
        .slice(0, 64)
        .content_eq(&Payload::pattern(1, 256).slice(0, 64)));
    assert!(got.slice(64, 64).content_eq(&Payload::pattern(2, 64)));
    assert!(got
        .slice(128, 128)
        .content_eq(&Payload::pattern(1, 256).slice(128, 128)));
    assert_eq!((hits(&job), misses(&job)), (1, 2));
}

/// Sequential scans with readahead enabled issue far fewer metadata RPCs
/// than with it disabled, at identical bytes.
#[test]
fn readahead_cuts_metadata_rpcs_on_sequential_scans() {
    let mk = |window: u64| {
        let mut cfg = UniviStorConfig::test_small(2, 2);
        cfg.readahead_window = window;
        Arc::new(UniviStorJob::new(cfg))
    };
    let total = 4096u64;
    let step = 128u64;
    let scan = |j: &UniviStorJob| {
        j.open_file("/s")
            .read_write()
            .representing(4)
            .by(ClientId::new(0, 0))
            .unwrap();
        // Producer on node 1, scanning reader on node 0.
        j.write(ClientId::new(0, 2), "/s", 0, Payload::pattern(3, total))
            .unwrap();
        for off in (0..total).step_by(step as usize) {
            let got = j.read(ClientId::new(0, 0), "/s", off, step).unwrap();
            assert!(got.content_eq(&Payload::pattern(3, total).slice(off, step)));
        }
        j.stats().read_trace
    };
    let off_trace = scan(&mk(0));
    let on_trace = scan(&mk(1024));
    assert_eq!(off_trace.readahead_bytes, 0);
    assert!(on_trace.readahead_bytes > 0);
    assert!(
        on_trace.md_rpcs < off_trace.md_rpcs / 2,
        "readahead should batch lookups: {} vs {} RPCs",
        on_trace.md_rpcs,
        off_trace.md_rpcs
    );
    assert!(on_trace.md_cache_hits > on_trace.md_cache_misses);
    assert_eq!(on_trace.total_bytes(), off_trace.total_bytes());
}

/// Promotion racing concurrent overwrites and reads must never corrupt
/// the index: after the dust settles, the last write wins, the index
/// balances the live log bytes, and promotion still works.
#[test]
fn promotion_races_concurrent_overwrites() {
    let promote = |j: &UniviStorJob| {
        j.tiering()
            .promote_now(PromotionPolicy {
                min_reads: 1,
                min_benefit: 0.0,
            })
            .unwrap()
    };
    let job = Arc::new(UniviStorJob::new(UniviStorConfig::test_small(2, 2)));
    job.open_file("/h")
        .read_write()
        .representing(4)
        .by(ClientId::new(0, 0))
        .unwrap();
    let span = 1024u64;
    job.write(ClientId::new(0, 0), "/h", 0, Payload::pattern(0, span))
        .unwrap();
    std::thread::scope(|s| {
        let writer = job.clone();
        s.spawn(move || {
            for i in 1..40u64 {
                writer
                    .write(
                        ClientId::new(0, 1),
                        "/h",
                        (i % 7) * 128,
                        Payload::pattern(i, 256),
                    )
                    .unwrap();
            }
        });
        let reader = job.clone();
        s.spawn(move || {
            for i in 0..40u64 {
                // Heat the region; racing overwrites may briefly expose a
                // hole (punch and re-insert are not atomic), which is an
                // error, not corruption — tolerate it here.
                let _ = reader.read(ClientId::new(0, 2), "/h", (i % 4) * 256, 256);
            }
        });
        let promoter = job.clone();
        s.spawn(move || {
            for _ in 0..20 {
                promote(&promoter);
            }
        });
    });
    // Quiesce: a final known pattern must read back exactly, before and
    // after one more promotion pass.
    job.write(ClientId::new(0, 3), "/h", 0, Payload::pattern(999, span))
        .unwrap();
    let got = job.read(ClientId::new(0, 2), "/h", 0, span).unwrap();
    assert!(got.content_eq(&Payload::pattern(999, span)));
    promote(&job);
    let got = job.read(ClientId::new(0, 2), "/h", 0, span).unwrap();
    assert!(got.content_eq(&Payload::pattern(999, span)));
    // The index accounts for every live log byte: no span leaked by a
    // lost promotion race, none double-released.
    let index = job.index_of("/h").unwrap();
    let mut record_bytes = 0u64;
    for (_, r) in &index {
        record_bytes += r.len;
        if r.replica.is_some() {
            record_bytes += r.len;
        }
    }
    let live: u64 = job.tier_usage().iter().map(|(_, b)| b).sum();
    assert_eq!(record_bytes, live, "index bytes vs live log bytes");
}

/// Replica routing over a *coalesced* multi-chunk record (the PR 3
/// coalescing × failure interaction): one 1024-byte write coalesces into
/// a single record spanning four 256-byte chunks; after the producer's
/// node fails, full and unaligned sub-range reads must be served from the
/// buddy's replica, byte-exact, on both pipelines.
#[test]
fn replica_reads_span_coalesced_multi_chunk_records() {
    for pipeline in [ReadPipeline::PerRecord, ReadPipeline::Batched] {
        let j = job(pipeline, true);
        j.open_file("/x")
            .read_write()
            .representing(4)
            .by(ClientId::new(0, 0))
            .unwrap();
        // Rank 2 lives on node 1; its buddy (rank 0) on node 0.
        let data = Payload::pattern(7, 1024);
        j.write(ClientId::new(0, 2), "/x", 0, data.clone()).unwrap();
        let index = j.index_of("/x").unwrap();
        assert_eq!(index.len(), 1, "the write should coalesce to one record");
        assert_eq!(index[0].1.len, 1024);
        assert!(index[0].1.replica.is_some(), "replica must have placed");
        j.fail_node(1);
        let reader = ClientId::new(0, 0);
        let got = j.read(reader, "/x", 0, 1024).unwrap();
        assert!(got.content_eq(&data), "{pipeline:?}: full replica read");
        // Unaligned sub-range crossing two chunk boundaries.
        let got = j.read(reader, "/x", 300, 500).unwrap();
        assert!(
            got.content_eq(&data.slice(300, 500)),
            "{pipeline:?}: unaligned replica read"
        );
        let trace = j.stats().read_trace;
        assert_eq!(trace.replica_bytes, 1024 + 500);
    }
}

/// The deterministic counter of the retired `read_batch` bench, at its
/// shape: a 64 KiB read over 128 segment records of one producer's chain
/// takes 128 shared chain-lock acquisitions on the per-record path and 1
/// on the batched path; every `ReadTrace` field is the same on both.
#[test]
fn batched_read_takes_one_chain_lock_for_128_records() {
    const SEGMENT: u64 = 512;
    let run = |pipeline| {
        let mut cfg = UniviStorConfig::paper(4);
        cfg.runtime = Runtime::Locked;
        cfg.features.flush_on_close = false;
        cfg.chunk_size = 16 << 10;
        cfg.segment_size = SEGMENT;
        cfg.metadata_range_size = 32 << 10;
        cfg.read_pipeline = pipeline;
        let job = UniviStorJob::new(cfg);
        let client = ClientId::new(0, 0);
        job.open_file("/rb/f").read_write().by(client).unwrap();
        for s in 0..128 {
            job.write(client, "/rb/f", s * SEGMENT, Payload::pattern(s, SEGMENT))
                .unwrap();
        }
        job.read(client, "/rb/f", 0, 128 * SEGMENT).unwrap();
        let chain_locks = job
            .metrics()
            .counter(
                "univistor_read_lock_acquisitions_total",
                &[("lock", "chain")],
            )
            .unwrap_or(0);
        (chain_locks, job.stats().read_trace)
    };
    let (per_record_locks, per_record_trace) = run(ReadPipeline::PerRecord);
    let (batched_locks, batched_trace) = run(ReadPipeline::Batched);
    assert_eq!((per_record_locks, batched_locks), (128, 1));
    assert_eq!(per_record_trace, batched_trace);
}
