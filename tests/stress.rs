//! Medium-scale stress and determinism tests (beyond the proptest sizes).

use std::sync::Arc;
use univistor::prelude::*;
use univistor::sim::rng::DetRng;
use univistor::sim::SparseBuffer;

fn medium_cfg() -> UniviStorConfig {
    let mut cfg = UniviStorConfig::test_small(4, 8);
    cfg.chunk_size = 4096;
    cfg.segment_size = 1024;
    cfg.metadata_range_size = 64 << 10;
    cfg.cal.dram_cache_capacity_per_node = 256 << 10;
    cfg.cal.bb_capacity_per_node = 4 << 20;
    cfg
}

/// 500 random writes from 32 clients over one shared file, checked
/// against a flat model, then flushed and checked again on the PFS.
#[test]
fn randomized_write_storm_matches_model() {
    let job = Arc::new(UniviStorJob::new(medium_cfg()));
    job.open_file("/storm")
        .read_write()
        .representing(32)
        .by(ClientId::new(0, 0))
        .unwrap();
    let mut rng = DetRng::seed(0xbeef);
    let mut model = SparseBuffer::new();
    for i in 0..500u64 {
        let rank = rng.below(32) as u32;
        let offset = rng.below(256 << 10) as u64;
        let len = 1 + rng.below(4096) as u64;
        let data = Payload::pattern(i, len);
        job.write(ClientId::new(0, rank), "/storm", offset, data.clone())
            .unwrap();
        model.write(offset, data);
    }
    // Every written extent reads back exactly (through random readers).
    for (off, payload) in model.extents() {
        let reader = ClientId::new(0, (off % 32) as u32);
        let got = job.read(reader, "/storm", off, payload.len()).unwrap();
        assert!(got.content_eq(payload), "extent at {off} corrupt");
    }
    // Cache live bytes equal the model's (no leaks from 500 overwrites).
    let live: u64 = job.tier_usage().iter().map(|(_, b)| b).sum();
    assert_eq!(live, model.bytes_stored());

    // Flush only if the file is hole-free (flush requires full coverage).
    let size = model.end_offset();
    if model.read_exact(0, size).is_ok() {
        job.close("/storm", ClientId::new(0, 0), OpenMode::ReadWrite, 32, true)
            .unwrap()
            .expect("flush");
        let pfs = job.lustre_read("/storm", 0, size).unwrap();
        assert!(pfs.content_eq(&model.read(0, size)));
    }
}

/// The entire system is deterministic: two identical runs produce
/// identical stats, tier usage, and flushed bytes.
#[test]
fn identical_runs_are_bit_identical() {
    let run = || {
        let job = Arc::new(UniviStorJob::new(medium_cfg()));
        let driver = UniviStorDriver::new(Arc::clone(&job), 0);
        let micro = univistor::workloads::MicroIo::scaled(32, 64 << 10);
        micro.write_phase(&driver, "/det").unwrap();
        micro.read_phase(&driver, "/det", false).unwrap();
        // Op counts, RPCs, segments, tier and read-path byte splits.
        let snap = job.metrics();
        let stats: Vec<_> = [
            "univistor_ops_total",
            "univistor_md_rpcs_total",
            "univistor_md_local_hits_total",
            "univistor_segments_total",
            "univistor_cached_bytes_total",
            "univistor_read_bytes_total",
            "univistor_read_replica_bytes_total",
            "univistor_read_md_cache_hits_total",
            "univistor_read_md_cache_misses_total",
            "univistor_replicated_bytes_total",
            "univistor_tiering_promoted_segments_total",
        ]
        .map(|family| snap.family(family).cloned())
        .into();
        let checksum = job
            .lustre_read("/det", 0, micro.file_size())
            .unwrap()
            .content_checksum();
        let flushes = snap.counter_total("univistor_flushes_total");
        (stats, flushes, checksum)
    };
    assert_eq!(run(), run());
}

/// Many files cycling through open→write→close: per-file flushes stay
/// isolated and the PFS accumulates every file intact.
#[test]
fn fifty_files_cycle_cleanly() {
    let job = Arc::new(UniviStorJob::new(medium_cfg()));
    for i in 0..50u64 {
        let path = format!("/f{i:02}");
        job.open_file(&path)
            .write()
            .representing(4)
            .by(ClientId::new(0, 0))
            .unwrap();
        for rank in 0..4u32 {
            job.write(
                ClientId::new(0, rank),
                &path,
                rank as u64 * 2048,
                Payload::pattern(i * 4 + rank as u64, 2048),
            )
            .unwrap();
        }
        job.close(&path, ClientId::new(0, 0), OpenMode::Write, 4, true)
            .unwrap()
            .expect("flush");
    }
    let flushes = job.metrics().counter_total("univistor_flushes_total");
    assert_eq!(flushes, 50);
    for i in 0..50u64 {
        let path = format!("/f{i:02}");
        assert_eq!(job.lustre_file_size(&path).unwrap(), 4 * 2048);
        let got = job.lustre_read(&path, 2048, 2048).unwrap();
        assert!(got.content_eq(&Payload::pattern(i * 4 + 1, 2048)), "{path}");
    }
}

/// Re-opening and appending to a previously flushed file re-flushes the
/// grown file correctly.
#[test]
fn reopen_append_reflush() {
    let job = Arc::new(UniviStorJob::new(medium_cfg()));
    let c = ClientId::new(0, 0);
    job.open_file("/grow").write().by(c).unwrap();
    job.write(c, "/grow", 0, Payload::pattern(1, 4096)).unwrap();
    job.close("/grow", c, OpenMode::Write, 1, true)
        .unwrap()
        .expect("first flush");
    assert_eq!(job.lustre_file_size("/grow").unwrap(), 4096);

    job.open_file("/grow").write().by(c).unwrap();
    job.write(c, "/grow", 4096, Payload::pattern(2, 4096))
        .unwrap();
    job.close("/grow", c, OpenMode::Write, 1, true)
        .unwrap()
        .expect("second flush");
    assert_eq!(job.lustre_file_size("/grow").unwrap(), 8192);
    assert!(job
        .lustre_read("/grow", 0, 4096)
        .unwrap()
        .content_eq(&Payload::pattern(1, 4096)));
    assert!(job
        .lustre_read("/grow", 4096, 4096)
        .unwrap()
        .content_eq(&Payload::pattern(2, 4096)));
}
