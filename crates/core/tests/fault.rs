//! Chaos soak and degraded-mode tests: deterministic fault injection,
//! retry absorption, replica-served reads and flushes under node loss,
//! double-failure error reporting, and online repair
//! ([`UniviStorJob::rebuild_degraded`]) followed by byte-identical reads.

use std::sync::Arc;
use univistor_core::config::UniviStorConfig;
use univistor_core::fault::FaultConfig;
use univistor_core::metadata::ClientId;
use univistor_core::server::UniviStorJob;
use univistor_mpi::driver::OpenMode;
use univistor_sim::Payload;

fn client(rank: u32) -> ClientId {
    ClientId::new(0, rank)
}

/// 3 nodes × 2 procs with replication on and roomy DRAM, so repair has
/// healthy nodes to re-mirror onto.
fn chaos_cfg(fault: Option<FaultConfig>) -> UniviStorConfig {
    let mut cfg = UniviStorConfig::test_small(3, 2);
    cfg.replicate_volatile = true;
    cfg.cal.dram_cache_capacity_per_node = 8192;
    // Keep chaos tests fast: retries sleep for real.
    cfg.retry.backoff_base_us = 1;
    cfg.retry.backoff_cap_us = 10;
    cfg.fault = fault;
    cfg
}

/// The soak workload: every rank writes two 256 B blocks in two waves
/// (the node failure, when scheduled, fires between them), then a
/// survivor reads the whole file. Returns the job and the bytes read.
fn run_chaos_workload(cfg: UniviStorConfig) -> (Arc<UniviStorJob>, Payload) {
    let ranks = cfg.geometry.total_procs() as u32;
    let j = Arc::new(UniviStorJob::new(cfg));
    j.open_file("/soak")
        .write()
        .representing(ranks as usize)
        .by(client(0))
        .unwrap();
    let wave = ranks as u64 * 256;
    for w in 0..2u64 {
        for rank in 0..ranks {
            j.write(
                client(rank),
                "/soak",
                w * wave + rank as u64 * 256,
                Payload::pattern(w * 100 + rank as u64, 256),
            )
            .unwrap();
        }
    }
    let got = j.read(client(ranks - 1), "/soak", 0, 2 * wave).unwrap();
    (j, got)
}

/// The tentpole soak: replication on, a node dies mid-workload on a
/// deterministic schedule plus a transient-fault drizzle, reads stay
/// byte-identical to a fault-free run, online repair drives the degraded
/// gauge to zero, the node is restored, and the whole run replays
/// bit-for-bit under the same seed.
#[test]
fn chaos_soak_is_deterministic_and_repairable() {
    let schedule = FaultConfig {
        seed: 42,
        // Node 0 dies once ~half the workload's instrumented ops ran.
        fail_node_at: vec![(30, 0)],
        transient_prob: 0.1,
        ..FaultConfig::default()
    };

    let (reference, expected) = run_chaos_workload(chaos_cfg(None));
    let (j, got) = run_chaos_workload(chaos_cfg(Some(schedule.clone())));
    assert!(
        got.content_eq(&expected),
        "degraded reads must match the fault-free run"
    );

    // The scheduled failure actually fired and left degraded records.
    let snap = j.metrics();
    assert_eq!(
        snap.counter("univistor_faults_injected_total", &[("kind", "node_loss")]),
        Some(1)
    );
    assert!(
        snap.counter_total("univistor_retries_total") > 0,
        "the transient drizzle should have forced retries"
    );
    assert_eq!(
        snap.counter_total("univistor_retry_exhausted_total"),
        0,
        "the default budget must absorb a 10% drizzle"
    );
    let degraded = j.degraded_segments();
    assert!(degraded > 0, "node loss must leave degraded records");

    // Online repair: full redundancy back, gauge to zero, node restored.
    let report = j.rebuild_degraded().unwrap();
    assert!(report.repaired_primary > 0, "{report:?}");
    assert!(report.repaired_bytes > 0, "{report:?}");
    assert_eq!(report.lost_records, 0, "{report:?}");
    assert_eq!(report.remaining_degraded, 0, "{report:?}");
    assert_eq!(j.degraded_segments(), 0);
    assert_eq!(
        j.metrics().gauge("univistor_degraded_segments", &[]),
        Some(0)
    );
    assert!(j.restore_node(0));
    let after = j.read(client(0), "/soak", 0, expected.len()).unwrap();
    assert!(after.content_eq(&expected), "post-repair reads corrupt");

    // Same seed, same schedule: the workload replays bit-for-bit.
    // (Compare against the snapshot taken right after the first run's
    // workload — the repair pass above injected further operations.)
    let (j2, got2) = run_chaos_workload(chaos_cfg(Some(schedule)));
    assert!(got2.content_eq(&got));
    let s2 = j2.metrics();
    for kind in ["transient", "node_loss", "latency"] {
        assert_eq!(
            snap.counter("univistor_faults_injected_total", &[("kind", kind)]),
            s2.counter("univistor_faults_injected_total", &[("kind", kind)]),
            "fault kind {kind} diverged across same-seed runs"
        );
    }
    assert_eq!(
        snap.counter_total("univistor_retries_total"),
        s2.counter_total("univistor_retries_total")
    );
    drop(reference);
}

/// Losing both the primary's and the replica's nodes makes the segment
/// unreadable — and the error says exactly which operation, file, and
/// client hit it.
#[test]
fn double_failure_read_reports_full_context() {
    let mut cfg = UniviStorConfig::test_small(2, 2);
    cfg.replicate_volatile = true;
    cfg.cal.dram_cache_capacity_per_node = 4096;
    let j = UniviStorJob::new(cfg);
    j.open_file("/f")
        .write()
        .representing(4)
        .by(client(0))
        .unwrap();
    j.write(client(0), "/f", 0, Payload::pattern(1, 256))
        .unwrap();
    assert!(j.fail_node(0));
    assert!(!j.fail_node(0), "fail_node must be idempotent");
    assert!(j.fail_node(1));
    let err = j.read(client(1), "/f", 0, 256).unwrap_err();
    assert_eq!(err.op(), "read");
    assert_eq!(err.path(), Some("/f"));
    assert_eq!(err.client(), Some(client(1)));
    let msg = err.to_string();
    assert!(msg.contains("failed"), "unhelpful error: {msg}");
}

/// With every copy of a span lost, the close-time flush degrades
/// gracefully: it drains what survives, reports the rest in the
/// receipt's loss ledger, and feeds the skipped-bytes counter.
#[test]
fn flush_after_double_failure_reports_losses() {
    let mut cfg = UniviStorConfig::test_small(3, 2);
    cfg.replicate_volatile = true;
    cfg.cal.dram_cache_capacity_per_node = 4096;
    let j = UniviStorJob::new(cfg);
    j.open_file("/f")
        .write()
        .representing(6)
        .by(client(0))
        .unwrap();
    // Rank 0: primary node 0, replica node 1 — both about to die.
    // Rank 4: primary node 2 — survives.
    j.write(client(0), "/f", 0, Payload::pattern(1, 256))
        .unwrap();
    j.write(client(4), "/f", 256, Payload::pattern(2, 256))
        .unwrap();
    j.fail_node(0);
    j.fail_node(1);
    let receipt = j
        .close("/f", client(0), OpenMode::Write, 6, true)
        .unwrap()
        .expect("last close flushes");
    assert_eq!(receipt.lost.lost_bytes, 256, "{:?}", receipt.lost);
    assert!(receipt.lost.lost_segments >= 1);
    assert_eq!(
        j.metrics()
            .counter_total("univistor_flush_skipped_lost_bytes_total"),
        256
    );
    // The surviving span still reached Lustre byte-exact.
    let pfs = j.lustre_read("/f", 256, 256).unwrap();
    assert!(pfs.content_eq(&Payload::pattern(2, 256)));
}

/// A close-time flush whose primaries are gone drains from replicas,
/// byte-identically, while other clients keep writing another file.
#[test]
fn flush_from_replicas_is_byte_identical_under_concurrent_writers() {
    let mut cfg = UniviStorConfig::test_small(2, 2);
    cfg.replicate_volatile = true;
    cfg.cal.dram_cache_capacity_per_node = 8192;
    let j = Arc::new(UniviStorJob::new(cfg));
    j.open_file("/a")
        .write()
        .representing(2)
        .by(client(0))
        .unwrap();
    // Ranks 0 and 1 live on node 0; their replicas land on node 1.
    j.write(client(0), "/a", 0, Payload::pattern(10, 512))
        .unwrap();
    j.write(client(1), "/a", 512, Payload::pattern(11, 512))
        .unwrap();
    j.fail_node(0);
    std::thread::scope(|s| {
        let writer = {
            let j = Arc::clone(&j);
            s.spawn(move || {
                j.open_file("/b").write().by(client(2)).unwrap();
                for i in 0..8u64 {
                    j.write(client(2), "/b", i * 128, Payload::pattern(20 + i, 128))
                        .unwrap();
                }
            })
        };
        // Flush /a from replicas while /b is being written.
        j.close("/a", client(0), OpenMode::Write, 2, true)
            .unwrap()
            .expect("last close flushes");
        writer.join().unwrap();
    });
    let pfs = j.lustre_read("/a", 0, 1024).unwrap();
    assert!(pfs.slice(0, 512).content_eq(&Payload::pattern(10, 512)));
    assert!(pfs.slice(512, 512).content_eq(&Payload::pattern(11, 512)));
    // The concurrent file is intact in cache too.
    let b = j.read(client(3), "/b", 0, 1024).unwrap();
    for i in 0..8u64 {
        assert!(b
            .slice(i * 128, 128)
            .content_eq(&Payload::pattern(20 + i, 128)));
    }
}
