//! Fault tolerance and adaptive placement — the paper's future work,
//! live: volatile-layer replication keeps data readable through a node
//! failure, and usage-driven promotion moves hot spilled segments back to
//! DRAM.
//!
//! Run with: `cargo run --example fault_tolerance`

use std::sync::Arc;
use univistor::prelude::*;

fn tiers(job: &UniviStorJob) -> String {
    job.tier_usage()
        .iter()
        .map(|(t, b)| format!("{t}: {} KiB", b >> 10))
        .collect::<Vec<_>>()
        .join(", ")
}

fn main() {
    // 2 nodes × 4 procs, with buddy replication of volatile data.
    let mut cfg = UniviStorConfig::test_small(2, 4);
    cfg.replicate_volatile = true;
    cfg.chunk_size = 64 << 10;
    cfg.segment_size = 64 << 10;
    cfg.metadata_range_size = 1 << 20;
    cfg.cal.dram_cache_capacity_per_node = 2 << 20; // 2 MiB/node
    cfg.cal.bb_capacity_per_node = 64 << 20;
    let job = Arc::new(UniviStorJob::new(cfg));

    println!("--- 1. replicated checkpoint ---");
    job.open_file("/ckpt")
        .write()
        .representing(8)
        .by(ClientId::new(0, 0))
        .expect("open");
    let per_rank = 256u64 << 10;
    for rank in 0..8u32 {
        job.write(
            ClientId::new(0, rank),
            "/ckpt",
            rank as u64 * per_rank,
            Payload::pattern(rank as u64, per_rank),
        )
        .expect("write");
    }
    println!("cached [{}]", tiers(&job));
    println!(
        "replicated {} KiB for resilience",
        job.metrics()
            .counter_total("univistor_replicated_bytes_total")
            >> 10
    );

    println!("\n--- 2. node 0 dies ---");
    job.fail_node(0);
    // A survivor on node 1 reads the whole checkpoint back, byte-exact.
    let got = job
        .read(ClientId::new(0, 4), "/ckpt", 0, 8 * per_rank)
        .expect("read after failure");
    for rank in 0..8u64 {
        assert!(
            got.slice(rank * per_rank, per_rank)
                .content_eq(&Payload::pattern(rank, per_rank)),
            "rank {rank}'s data lost"
        );
    }
    println!(
        "all {} KiB verified; {} KiB were served from replicas",
        (8 * per_rank) >> 10,
        job.metrics()
            .counter_total("univistor_read_replica_bytes_total")
            >> 10
    );

    // The close-time flush also survives the failure.
    job.close("/ckpt", ClientId::new(0, 0), OpenMode::Write, 8, true)
        .expect("close")
        .expect("flush");
    println!(
        "flushed to Lustre: {} KiB (verified: {})",
        job.lustre_file_size("/ckpt").expect("on PFS") >> 10,
        job.verify_flush(ClientId::new(0, 4), "/ckpt")
            .expect("verify"),
    );

    println!("\n--- 3. adaptive promotion ---");
    // A fresh job with a tiny DRAM tier: half the data spills to the BB.
    let mut cfg = UniviStorConfig::test_small(1, 1);
    cfg.chunk_size = 64 << 10;
    cfg.segment_size = 64 << 10;
    cfg.metadata_range_size = 1 << 20;
    cfg.cal.dram_cache_capacity_per_node = 256 << 10;
    cfg.cal.bb_capacity_per_node = 64 << 20;
    let job = Arc::new(UniviStorJob::new(cfg));
    job.open_file("/hot")
        .read_write()
        .by(ClientId::new(0, 0))
        .expect("open");
    job.write(
        ClientId::new(0, 0),
        "/hot",
        0,
        Payload::pattern(42, 512 << 10),
    )
    .expect("write");
    println!("after write: [{}]", tiers(&job));

    // The analysis keeps re-reading the spilled half…
    for _ in 0..4 {
        job.read(ClientId::new(0, 0), "/hot", 256 << 10, 256 << 10)
            .expect("read");
    }
    // …and overwrites the cold half, freeing DRAM chunks.
    job.write(
        ClientId::new(0, 0),
        "/hot",
        0,
        Payload::pattern(43, 256 << 10),
    )
    .expect("overwrite");
    let promoted = job
        .tiering()
        .promote_now(PromotionPolicy {
            min_reads: 3,
            min_benefit: 0.0,
        })
        .expect("promotion")
        .promoted_segments;
    println!(
        "promoted {promoted} hot segments to DRAM: [{}]",
        tiers(&job)
    );
    let dram_after = job
        .tier_usage()
        .iter()
        .find(|(t, _)| *t == Tier::Dram)
        .map(|(_, b)| *b)
        .unwrap_or(0);
    assert!(promoted > 0 && dram_after > 0);

    // Correctness held throughout.
    let got = job
        .read(ClientId::new(0, 0), "/hot", 0, 512 << 10)
        .expect("final read");
    assert!(got
        .slice(0, 256 << 10)
        .content_eq(&Payload::pattern(43, 256 << 10)));
    assert!(got
        .slice(256 << 10, 256 << 10)
        .content_eq(&Payload::pattern(42, 512 << 10).slice(256 << 10, 256 << 10)));
    println!("all bytes verified after promotion ✓");
}
