//! Tests for the paper's future-work extensions implemented here:
//! resilience for volatile-layer data (buddy replication + node-failure
//! injection) and adaptive, usage-driven promotion of hot segments.

use std::sync::Arc;
use univistor::prelude::*;

/// Two nodes × two procs, tiny segments so everything is observable.
fn job(replicate: bool) -> Arc<UniviStorJob> {
    let mut cfg = UniviStorConfig::test_small(2, 2);
    cfg.replicate_volatile = replicate;
    // Roomier tiers than test_small's defaults: 4 KiB DRAM per node.
    cfg.cal.dram_cache_capacity_per_node = 4096;
    Arc::new(UniviStorJob::new(cfg))
}

fn client(rank: u32) -> ClientId {
    ClientId::new(0, rank)
}

fn open_write(job: &UniviStorJob, path: &str) {
    job.open_file(path)
        .write()
        .representing(4)
        .by(client(0))
        .unwrap();
}

#[test]
fn replication_doubles_cached_bytes() {
    let j = job(true);
    open_write(&j, "/f");
    j.write(client(0), "/f", 0, Payload::pattern(1, 512))
        .unwrap();
    let live: u64 = j.tier_usage().iter().map(|(_, b)| b).sum();
    assert_eq!(live, 1024, "primary + replica");
    assert_eq!(
        j.metrics()
            .counter_total("univistor_replicated_bytes_total"),
        512
    );
}

#[test]
fn reads_survive_node_failure() {
    let j = job(true);
    open_write(&j, "/f");
    // Clients 0,1 live on node 0; 2,3 on node 1. Everyone writes.
    for rank in 0..4u32 {
        j.write(
            client(rank),
            "/f",
            rank as u64 * 256,
            Payload::pattern(rank as u64, 256),
        )
        .unwrap();
    }
    // Node 0's DRAM is gone.
    j.fail_node(0);
    // A survivor on node 1 still reads the whole file correctly.
    let got = j.read(client(2), "/f", 0, 1024).unwrap();
    for rank in 0..4u64 {
        assert!(
            got.slice(rank * 256, 256)
                .content_eq(&Payload::pattern(rank, 256)),
            "rank {rank}'s data lost"
        );
    }
    let replica_bytes = j
        .metrics()
        .counter_total("univistor_read_replica_bytes_total");
    assert!(replica_bytes > 0, "replicas unused?");
}

#[test]
fn flush_survives_node_failure() {
    let j = job(true);
    j.open_file("/f")
        .write()
        .representing(4)
        .by(client(0))
        .unwrap();
    for rank in 0..4u32 {
        j.write(
            client(rank),
            "/f",
            rank as u64 * 256,
            Payload::pattern(rank as u64, 256),
        )
        .unwrap();
    }
    j.fail_node(1); // lose node 1 before the close-time flush
    j.close("/f", client(0), OpenMode::Write, 4, true)
        .unwrap()
        .expect("flush happened");
    // The PFS copy is complete and correct, including node 1's data.
    for rank in 0..4u64 {
        let got = j.lustre_read("/f", rank * 256, 256).unwrap();
        assert!(got.content_eq(&Payload::pattern(rank, 256)));
    }
}

#[test]
fn without_replication_failure_loses_data() {
    let j = job(false);
    open_write(&j, "/f");
    for rank in 0..4u32 {
        j.write(
            client(rank),
            "/f",
            rank as u64 * 256,
            Payload::pattern(rank as u64, 256),
        )
        .unwrap();
    }
    j.fail_node(0);
    assert!(
        j.read(client(2), "/f", 0, 1024).is_err(),
        "unreplicated data on a failed node must be reported lost"
    );
}

#[test]
fn double_failure_is_detected() {
    let j = job(true);
    open_write(&j, "/f");
    for rank in 0..4u32 {
        j.write(
            client(rank),
            "/f",
            rank as u64 * 256,
            Payload::pattern(rank as u64, 256),
        )
        .unwrap();
    }
    j.fail_node(0);
    j.fail_node(1);
    assert!(j.read(client(0), "/f", 0, 1024).is_err());
}

#[test]
fn overwrite_releases_replica_space_too() {
    let j = job(true);
    open_write(&j, "/f");
    j.write(client(0), "/f", 0, Payload::pattern(1, 512))
        .unwrap();
    let before: u64 = j.tier_usage().iter().map(|(_, b)| b).sum();
    // Overwrite the same range repeatedly: live bytes must not grow.
    for seed in 2..6u64 {
        j.write(client(0), "/f", 0, Payload::pattern(seed, 512))
            .unwrap();
    }
    let after: u64 = j.tier_usage().iter().map(|(_, b)| b).sum();
    assert_eq!(before, after, "replica space leaked on overwrite");
}

#[test]
fn hot_segments_get_promoted_to_dram() {
    // 1 node × 1 proc, 512 B DRAM log (2 × 256 B chunks), spill to BB.
    let mut cfg = UniviStorConfig::test_small(1, 1);
    cfg.cal.dram_cache_capacity_per_node = 512;
    cfg.chunk_size = 256;
    cfg.segment_size = 256;
    let j = Arc::new(UniviStorJob::new(cfg));
    j.open_file("/f").read_write().by(client(0)).unwrap();

    // 1 KiB write: 512 B to DRAM, 512 B spills to the BB.
    j.write(client(0), "/f", 0, Payload::pattern(7, 1024))
        .unwrap();
    let dram = |j: &UniviStorJob| {
        j.tier_usage()
            .iter()
            .find(|(t, _)| *t == Tier::Dram)
            .map(|(_, b)| *b)
            .unwrap_or(0)
    };
    assert_eq!(dram(&j), 512);

    // Heat up the spilled half.
    for _ in 0..3 {
        j.read(client(0), "/f", 512, 512).unwrap();
    }
    // No DRAM space yet: nothing can be promoted.
    let promote = |j: &UniviStorJob| {
        j.tiering()
            .promote_now(PromotionPolicy {
                min_reads: 3,
                min_benefit: 0.0,
            })
            .unwrap()
            .promoted_segments
    };
    assert_eq!(promote(&j), 0);

    // Overwrite the cold DRAM-resident half. The batched pipeline appends
    // the whole run before releasing displaced spans, so with DRAM full
    // both new segments land on the BB and the punch then frees both DRAM
    // chunks.
    j.write(client(0), "/f", 0, Payload::pattern(8, 512))
        .unwrap();
    // Heat accounting survives; the hot BB record can move up now.
    let promoted = promote(&j);
    assert_eq!(
        promoted, 1,
        "the hot 512 B coalesced record fits the freed DRAM chunks"
    );
    assert_eq!(
        j.metrics()
            .counter_total("univistor_tiering_promoted_segments_total"),
        1
    );

    // The whole file still reads correctly after all the shuffling.
    let got = j.read(client(0), "/f", 0, 1024).unwrap();
    assert!(got.slice(0, 512).content_eq(&Payload::pattern(8, 512)));
    assert!(got
        .slice(512, 512)
        .content_eq(&Payload::pattern(7, 1024).slice(512, 512)));
    // And the promoted record (the coalesced 512 B span) is now served
    // entirely from DRAM.
    let local_hits = |j: &UniviStorJob| {
        j.metrics()
            .counter("univistor_read_bytes_total", &[("path", "local_hit")])
            .unwrap_or(0)
    };
    let before = local_hits(&j);
    j.read(client(0), "/f", 512, 512).unwrap();
    assert_eq!(
        local_hits(&j) - before,
        512,
        "promoted record should be node-local now"
    );
}

#[test]
fn promotion_skips_already_fast_segments() {
    let mut cfg = UniviStorConfig::test_small(1, 1);
    cfg.cal.dram_cache_capacity_per_node = 4096;
    let j = Arc::new(UniviStorJob::new(cfg));
    j.open_file("/f").read_write().by(client(0)).unwrap();
    j.write(client(0), "/f", 0, Payload::pattern(1, 512))
        .unwrap();
    for _ in 0..5 {
        j.read(client(0), "/f", 0, 512).unwrap();
    }
    let report = j
        .tiering()
        .promote_now(PromotionPolicy {
            min_reads: 3,
            min_benefit: 0.0,
        })
        .unwrap();
    assert_eq!(report.promoted_segments, 0, "DRAM data needs no promotion");
}

#[test]
fn replicated_workflow_roundtrip_through_driver() {
    // End-to-end through the MPI-IO driver with replication on.
    let mut cfg = UniviStorConfig::test_small(2, 2);
    cfg.replicate_volatile = true;
    cfg.cal.dram_cache_capacity_per_node = 1 << 20;
    cfg.cal.bb_capacity_per_node = 1 << 20;
    let job = Arc::new(UniviStorJob::new(cfg));
    let driver = UniviStorDriver::new(Arc::clone(&job), 0);
    let micro = univistor::workloads::MicroIo::scaled(4, 4096);
    micro.write_phase(&driver, "/r").unwrap();
    job.fail_node(0);
    // Reads still verify with half the cluster's volatile storage gone.
    micro.read_phase(&driver, "/r", true).unwrap();
}
