//! Pipeline-equivalence properties: the batched write path (piece
//! planning + `append_many` + whole-span punch + partition-grouped
//! commits + segment coalescing) must be observably identical to the
//! per-piece reference implementation — same bytes, same live-byte
//! accounting (displaced spans released, replicas included), and
//! coalesced records never exceed the metadata range.

use std::sync::Arc;
use univistor_core::config::{Runtime, UniviStorConfig, WritePipeline};
use univistor_core::metadata::ClientId;
use univistor_core::server::UniviStorJob;
use univistor_sim::rng::DetRng;
use univistor_sim::{Payload, SparseBuffer};

fn job(pipeline: WritePipeline, replicate: bool) -> Arc<UniviStorJob> {
    let mut cfg = UniviStorConfig::test_small(2, 2);
    cfg.write_pipeline = pipeline;
    cfg.replicate_volatile = replicate;
    Arc::new(UniviStorJob::new(cfg))
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
        let got = job.read(ClientId::new(0, 0), path, off, p.len()).unwrap();
        assert!(got.content_eq(p), "extent at {off} diverged from the model");
    }
}

/// Random offsets/lengths/overwrites from four ranks, applied to both
/// pipelines and a flat sparse-buffer model, with and without
/// `replicate_volatile`. The tiny test tiers force spills and
/// tight-capacity displacement on the way.
#[test]
fn batched_pipeline_matches_per_piece_reference() {
    let mut rng = DetRng::seed(0xba7c_0001);
    for trial in 0..40u64 {
        let replicate = trial % 2 == 1;
        let jobs = [
            job(WritePipeline::PerPiece, replicate),
            job(WritePipeline::Batched, replicate),
        ];
        for j in &jobs {
            j.open_file("/b")
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
                j.write(ClientId::new(0, rank), "/b", offset, data.clone())
                    .unwrap();
            }
            model.write(offset, data);
        }

        for j in &jobs {
            check_against_model(j, "/b", &model, 1024, replicate);
        }
        // The pipelines may split bytes across tiers differently under
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
/// two pipelines with identical placement statistics — the batching is
/// pure mechanism there, not policy.
#[test]
fn fresh_sequential_write_stats_are_pipeline_invariant() {
    let mk = |p: WritePipeline| {
        let mut cfg = UniviStorConfig::test_small(2, 2);
        cfg.cal.dram_cache_capacity_per_node = 1 << 20;
        cfg.write_pipeline = p;
        Arc::new(UniviStorJob::new(cfg))
    };
    let jobs = [mk(WritePipeline::PerPiece), mk(WritePipeline::Batched)];
    for j in &jobs {
        j.open_file("/s")
            .read_write()
            .representing(4)
            .by(ClientId::new(0, 0))
            .unwrap();
        for rank in 0..4u32 {
            j.write(
                ClientId::new(0, rank),
                "/s",
                rank as u64 * 4096,
                Payload::pattern(rank as u64, 4096),
            )
            .unwrap();
        }
    }
    let (a, b) = (jobs[0].stats(), jobs[1].stats());
    assert_eq!(a.segments, b.segments);
    assert_eq!(a.bytes_by_tier, b.bytes_by_tier);
    assert_eq!(a.write_md_rpcs, b.write_md_rpcs);
    assert_eq!(a.replicated_bytes, b.replicated_bytes);
    // Sequential 4 KiB runs coalesce fully (range 1024 B caps each record
    // at 8 segments): a quarter of the per-piece index. The partitioned
    // runtime has no per-piece pipeline — every write batches — so there
    // both jobs land on the coalesced count.
    if jobs[0].partition_workers() == 0 {
        assert_eq!(jobs[0].metadata_records(), 4 * 32);
    } else {
        assert_eq!(jobs[0].metadata_records(), 4 * 4);
    }
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
    let client = ClientId::new(0, 0);
    // [pieces, records committed, records live, chain locks]
    let run = |pipeline| {
        let mut cfg = UniviStorConfig::paper(4);
        cfg.runtime = Runtime::Locked;
        cfg.features.flush_on_close = false;
        cfg.chunk_size = 64 << 10;
        cfg.segment_size = 4 << 10;
        cfg.metadata_range_size = 32 << 10;
        cfg.write_pipeline = pipeline;
        let job = UniviStorJob::new(cfg);
        job.open_file("/wb").read_write().by(client).unwrap();
        for i in 0..CALLS {
            let data = Payload::pattern(i, block);
            job.write(client, "/wb", (i % WINDOW) * block, data)
                .unwrap();
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
        run(WritePipeline::Batched),
        [pieces, 2 * CALLS, 2 * WINDOW, CALLS + overwrites]
    );
    assert_eq!(
        run(WritePipeline::PerPiece),
        [pieces, pieces, 16 * WINDOW, pieces + 16 * overwrites]
    );
}
