//! End-to-end data-integrity tests: silent corruption is detected by the
//! write-commit checksum, reads reroute to the healthy replica and report
//! the bad copy, the scrubber repairs it online, and when no clean copy
//! exists the app gets a typed `Integrity` error — never wrong bytes.
//! The detection/reroute/repair cycle runs under both server runtimes,
//! and every scenario under both record shapes: blocks below the digest
//! memo's floor (every verify digests the bytes) and blocks far above it
//! (stamped through the memo, so the memo is *warm* when the corruption
//! lands and must not hide it).

use std::sync::Arc;
use univistor_core::config::{
    IntegrityConfig, Runtime, ScrubConfig, TierWatermarks, TieringConfig, UniviStorConfig,
};
use univistor_core::fault::FaultConfig;
use univistor_core::integrity::MEMO_MIN_LEN;
use univistor_core::metadata::ClientId;
use univistor_core::server::UniviStorJob;
use univistor_core::{MetricsSnapshot, ScrubDaemon};
use univistor_mpi::driver::OpenMode;
use univistor_sim::Payload;

fn client(rank: u32) -> ClientId {
    ClientId::new(0, rank)
}

/// Block sizes the suite runs under: 256 B (below [`MEMO_MIN_LEN`]) and
/// 256 KiB — two 128 KiB chunks coalesced into one record, so a fetched
/// copy re-merges to the stamped descriptor and verifies from the memo.
const BLOCKS: [u64; 2] = [256, 4 * MEMO_MIN_LEN];

/// 3 nodes × 2 procs, replication on, roomy DRAM for `block`-sized
/// writes, and a fault injector configured (targeted corruption needs one
/// even with zero random probabilities).
fn integrity_cfg(block: u64, fault: FaultConfig) -> UniviStorConfig {
    let mut cfg = UniviStorConfig::test_small(3, 2);
    cfg.replicate_volatile = true;
    cfg.cal.dram_cache_capacity_per_node = 32 * block;
    cfg.cal.bb_capacity_per_node = 64 * block;
    if block >= MEMO_MIN_LEN {
        cfg.chunk_size = block / 2;
        cfg.segment_size = block / 2;
        cfg.metadata_range_size = 4 * block;
    }
    cfg.retry.backoff_base_us = 1;
    cfg.retry.backoff_cap_us = 10;
    cfg.fault = Some(fault);
    cfg
}

/// Every rank writes two blocks in two waves; returns the job and the
/// expected file contents.
fn write_workload(cfg: UniviStorConfig, block: u64) -> (Arc<UniviStorJob>, Payload) {
    let ranks = cfg.geometry.total_procs() as u32;
    let j = Arc::new(UniviStorJob::new(cfg));
    j.open_file("/data")
        .write()
        .representing(ranks as usize)
        .by(client(0))
        .unwrap();
    let wave = ranks as u64 * block;
    let mut blocks = Vec::new();
    for w in 0..2u64 {
        for rank in 0..ranks {
            let payload = Payload::pattern(w * 100 + rank as u64, block);
            let off = w * wave + rank as u64 * block;
            j.write(client(rank), "/data", off, payload.clone())
                .unwrap();
            blocks.push(payload);
        }
    }
    (j, Payload::chain(blocks))
}

fn verify_failures(snap: &MetricsSnapshot, site: &str) -> u64 {
    snap.counter(
        "univistor_integrity_verify_failures_total",
        &[("site", site)],
    )
    .unwrap_or(0)
}

fn digest_bytes(snap: &MetricsSnapshot, site: &str, source: &str) -> u64 {
    snap.counter(
        "univistor_integrity_digest_bytes_total",
        &[("site", site), ("source", source)],
    )
    .unwrap_or(0)
}

/// The tentpole cycle, under both runtimes: corrupt the stored primary of
/// every record, read back byte-identically (verify failures rerouted to
/// replicas), confirm the bad copies were reported, repair them with a
/// synchronous scrub, and read again clean.
#[test]
fn corruption_is_rerouted_then_repaired_under_both_runtimes() {
    for (runtime, block) in [Runtime::Locked, Runtime::Partitioned]
        .into_iter()
        .flat_map(|r| BLOCKS.map(|b| (r, b)))
    {
        let tag = format!("{runtime:?}/{block}B");
        let mut cfg = integrity_cfg(
            block,
            FaultConfig {
                seed: 7,
                ..FaultConfig::default()
            },
        );
        cfg.runtime = runtime;
        let (j, expected) = write_workload(cfg, block);

        let corrupted = j
            .corrupt_stored_range("/data", 0, expected.len(), false)
            .unwrap();
        assert!(corrupted > 0, "{tag}: nothing corrupted");

        // Reads never see the flipped bytes: every fragment whose primary
        // fails its verify is refetched from the replica.
        let got = j.read(client(0), "/data", 0, expected.len()).unwrap();
        assert!(
            got.content_eq(&expected),
            "{tag}: corrupted primaries leaked wrong bytes"
        );
        let snap = j.metrics();
        let read_failures = verify_failures(&snap, "read");
        assert!(
            read_failures as usize >= corrupted,
            "{tag}: {corrupted} corrupt copies but only {read_failures} read verify failures"
        );
        assert!(
            snap.counter_total("univistor_scrub_corruptions_detected_total") > 0,
            "{tag}: detections not counted"
        );
        // A corrupt copy is a different payload: it was digested for
        // real, whatever the memo remembers about the clean one.
        assert!(
            digest_bytes(&snap, "read", "absorbed") >= expected.len(),
            "{tag}: corrupt copies were not digested"
        );
        let pending = j.scrub().pending_repairs();
        assert!(
            pending > 0,
            "{tag}: rerouted reads must enqueue the bad copies"
        );

        // Online repair: the scrub pass drains the queue and rebuilds
        // every bad copy from its verified replica.
        let report = j.scrub().scrub_now().unwrap();
        assert!(!report.skipped, "{tag}: {report:?}");
        assert!(report.queued_reports > 0, "{tag}: {report:?}");
        assert!(
            report.repaired_copies >= corrupted as u64,
            "{tag}: {report:?}"
        );
        assert_eq!(report.unrepaired_copies, 0, "{tag}: {report:?}");
        assert_eq!(j.scrub().pending_repairs(), 0, "{tag}");
        assert!(j.scrub().passes() > 0, "{tag}");
        assert!(
            j.metrics().counter_total("univistor_scrub_repaired_total") >= corrupted as u64,
            "{tag}"
        );

        // Post-repair reads are clean — and add no new verify failures.
        let again = j.read(client(1), "/data", 0, expected.len()).unwrap();
        assert!(again.content_eq(&expected), "{tag}: repair corrupted data");
        assert_eq!(
            verify_failures(&j.metrics(), "read"),
            read_failures,
            "{tag}: repaired copies still failing verifies"
        );
    }
}

/// The scrubber's index walk finds corruption no reader has touched yet
/// (phase 2: cursor walk, not just queue draining) and repairs it.
#[test]
fn scrub_walk_repairs_unreported_corruption() {
    for block in BLOCKS {
        let (j, expected) = write_workload(
            integrity_cfg(
                block,
                FaultConfig {
                    seed: 11,
                    ..FaultConfig::default()
                },
            ),
            block,
        );
        let corrupted = j
            .corrupt_stored_range("/data", 0, expected.len(), false)
            .unwrap();
        assert!(corrupted > 0);
        assert_eq!(
            j.scrub().pending_repairs(),
            0,
            "no reader reported anything"
        );

        let report = j.scrub().scrub_now().unwrap();
        assert!(report.scanned_records > 0, "{report:?}");
        assert!(report.corrupt_copies >= corrupted as u64, "{report:?}");
        assert!(report.repaired_copies >= corrupted as u64, "{report:?}");
        assert_eq!(report.unrepaired_copies, 0, "{report:?}");
        let snap = j.metrics();
        assert!(snap.counter_total("univistor_scrub_segments_total") > 0);
        assert!(verify_failures(&snap, "scrub") > 0);

        let got = j.read(client(0), "/data", 0, expected.len()).unwrap();
        assert!(got.content_eq(&expected));
        assert_eq!(
            verify_failures(&j.metrics(), "read"),
            0,
            "scrub-repaired data must read clean on the first try"
        );
    }
}

/// With both copies corrupt, the read fails with the typed `Integrity`
/// error naming the verify site — not wrong bytes, not a panic.
#[test]
fn no_healthy_copy_is_a_typed_integrity_error() {
    for block in BLOCKS {
        let (j, expected) = write_workload(
            integrity_cfg(
                block,
                FaultConfig {
                    seed: 13,
                    ..FaultConfig::default()
                },
            ),
            block,
        );
        let corrupted = j.corrupt_stored_range("/data", 0, block, true).unwrap();
        assert!(corrupted >= 2, "primary and replica both corrupted");

        let err = j.read(client(0), "/data", 0, block).unwrap_err();
        assert_eq!(err.op(), "read");
        assert_eq!(err.path(), Some("/data"));
        let msg = err.to_string();
        assert!(
            msg.contains("integrity failure at read_fetch"),
            "untyped error: {msg}"
        );

        // The rest of the file is untouched and still reads clean.
        let tail = j
            .read(client(0), "/data", block, expected.len() - block)
            .unwrap();
        assert!(tail.content_eq(&expected.slice(block, expected.len() - block)));
    }
}

/// An unreplicated job has no healthy copy to reroute to: corruption of
/// the single copy is a typed error, and the scrubber reports it
/// unrepairable rather than laundering it.
#[test]
fn unreplicated_corruption_cannot_be_repaired() {
    for block in BLOCKS {
        let mut cfg = integrity_cfg(
            block,
            FaultConfig {
                seed: 17,
                ..FaultConfig::default()
            },
        );
        cfg.replicate_volatile = false;
        let (j, expected) = write_workload(cfg, block);
        let corrupted = j.corrupt_stored_range("/data", 0, block, false).unwrap();
        assert!(corrupted > 0);

        let err = j.read(client(0), "/data", 0, block).unwrap_err();
        assert!(err.to_string().contains("integrity failure"), "{err}");

        let report = j.scrub().scrub_now().unwrap();
        assert!(report.corrupt_copies > 0, "{report:?}");
        assert_eq!(report.repaired_copies, 0, "{report:?}");
        assert!(report.unrepaired_copies > 0, "{report:?}");
        // Untouched spans still read.
        let tail = j
            .read(client(0), "/data", block, expected.len() - block)
            .unwrap();
        assert!(tail.content_eq(&expected.slice(block, expected.len() - block)));
    }
}

/// Random (probability-drawn) corruption replays bit-for-bit under the
/// same seed: two identical runs detect the same corruptions at the same
/// sites and return the same read outcomes.
#[test]
fn seeded_corruption_replays_deterministically() {
    for block in BLOCKS {
        let run = || {
            let fault = FaultConfig {
                seed: 99,
                corrupt_prob: 0.2,
                ..FaultConfig::default()
            };
            let (j, expected) = write_workload(integrity_cfg(block, fault), block);
            // Reads may fail when both copies drew corruption — capture the
            // outcome rather than asserting success.
            let mut outcomes = Vec::new();
            let ranks = j.cfg().geometry.total_procs() as u32;
            let wave = ranks as u64 * block;
            for w in 0..2u64 {
                for rank in 0..ranks {
                    let off = w * wave + rank as u64 * block;
                    match j.read(client(rank), "/data", off, block) {
                        Ok(p) => {
                            assert!(
                                p.content_eq(&expected.slice(off, block)),
                                "a successful read returned wrong bytes"
                            );
                            outcomes.push(true);
                        }
                        Err(e) => {
                            assert!(e.to_string().contains("integrity failure"), "{e}");
                            outcomes.push(false);
                        }
                    }
                }
            }
            let snap = j.metrics();
            (
                outcomes,
                verify_failures(&snap, "read"),
                snap.counter_total("univistor_scrub_corruptions_detected_total"),
                digest_bytes(&snap, "read", "absorbed"),
                digest_bytes(&snap, "read", "memo"),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same-seed corruption runs diverged");
        assert!(
            a.1 > 0,
            "a 20% draw over 12 appends should corrupt something"
        );
    }
}

/// The background daemon: disabled configs spawn zero actors; enabled
/// configs spawn one per node and repair reader-reported corruption
/// without any synchronous scrub call.
#[test]
fn scrub_daemon_repairs_in_the_background() {
    let block = BLOCKS[0];
    // Disabled (the default): no threads at all.
    let (j, _) = write_workload(integrity_cfg(block, FaultConfig::default()), block);
    let idle = ScrubDaemon::spawn(Arc::clone(&j));
    assert_eq!(idle.actors(), 0, "disabled scrubber must spawn no actors");
    idle.shutdown();

    // Enabled: per-node actors drain the corrupt queue on their own.
    let mut cfg = integrity_cfg(
        block,
        FaultConfig {
            seed: 23,
            ..FaultConfig::default()
        },
    );
    cfg.integrity = IntegrityConfig {
        checksums: true,
        scrub: ScrubConfig {
            interval_ms: 1,
            ..ScrubConfig::on()
        },
    };
    let nodes = cfg.geometry.nodes;
    let (j, expected) = write_workload(cfg, block);
    let daemon = ScrubDaemon::spawn(Arc::clone(&j));
    assert_eq!(daemon.actors(), nodes);

    let corrupted = j
        .corrupt_stored_range("/data", 0, expected.len(), false)
        .unwrap();
    assert!(corrupted > 0);
    // A read routes around the corruption and files the reports the
    // daemon will pick up.
    let got = j.read(client(0), "/data", 0, expected.len()).unwrap();
    assert!(got.content_eq(&expected));

    // Done means: no report is waiting and a full read verifies clean.
    // Counting repairs against `corrupted` is not that — the actors' own
    // index walk may repair a copy before the reader's report of it lands,
    // which leaves a stale report behind a complete repair count.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        if j.scrub().pending_repairs() == 0 {
            let before = verify_failures(&j.metrics(), "read");
            let again = j.read(client(1), "/data", 0, expected.len()).unwrap();
            assert!(again.content_eq(&expected));
            if verify_failures(&j.metrics(), "read") == before {
                break;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "daemon left {} reports pending after repairing {} copies",
            j.scrub().pending_repairs(),
            j.metrics().counter_total("univistor_scrub_repaired_total")
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    daemon.shutdown();
    assert_eq!(j.scrub().pending_repairs(), 0);
}

/// Flushing to Lustre verifies every gathered span: with the primary
/// corrupt the flush drains from the verified replica, and the bytes on
/// the PFS match what was written. The gather digests every byte it
/// makes durable — it never answers from the memo.
#[test]
fn flush_gathers_from_verified_replica_when_primary_is_corrupt() {
    for block in BLOCKS {
        let (j, expected) = write_workload(
            integrity_cfg(
                block,
                FaultConfig {
                    seed: 29,
                    ..FaultConfig::default()
                },
            ),
            block,
        );
        let corrupted = j
            .corrupt_stored_range("/data", 0, expected.len(), false)
            .unwrap();
        assert!(corrupted > 0);
        let ranks = j.cfg().geometry.total_procs();
        j.close("/data", client(0), OpenMode::Write, ranks, true)
            .unwrap()
            .expect("last close flushes");
        let pfs = j.lustre_read("/data", 0, expected.len()).unwrap();
        assert!(
            pfs.content_eq(&expected),
            "flush persisted corrupt bytes to the PFS"
        );
        let snap = j.metrics();
        assert!(
            verify_failures(&snap, "flush") > 0,
            "the flush should have hit (and rerouted around) the corruption"
        );
        assert_eq!(digest_bytes(&snap, "flush", "memo"), 0);
        assert!(digest_bytes(&snap, "flush", "absorbed") >= 2 * expected.len());
    }
}

/// The tiering verify point: a spill never migrates a copy that fails
/// its stamp (moving it would launder the corruption into a fresh span),
/// while the clean records beside it spill as usual.
#[test]
fn tiering_refuses_to_migrate_a_corrupt_copy() {
    for block in BLOCKS {
        let mut cfg = integrity_cfg(
            block,
            FaultConfig {
                seed: 31,
                ..FaultConfig::default()
            },
        );
        cfg.geometry.nodes = 1;
        cfg.replicate_volatile = false;
        cfg.tiering = TieringConfig::on();
        // Passes only when we ask.
        cfg.tiering.drain_cadence_ops = 0;
        // c/p rule: each of the 2 procs gets a 4-block DRAM log; three
        // blocks sit over the 50 % mark and spill down to one.
        cfg.cal.dram_cache_capacity_per_node = 8 * block;
        cfg.tiering.dram = TierWatermarks {
            high: 0.5,
            low: 0.25,
        };
        let j = UniviStorJob::new(cfg);
        j.open_file("/t")
            .read_write()
            .representing(2)
            .by(client(0))
            .unwrap();
        for i in 0..3u64 {
            j.write(client(0), "/t", i * block, Payload::pattern(40 + i, block))
                .unwrap();
        }
        // Coldest-first, offset-ascending: the corrupt record is the
        // spill's first candidate.
        assert_eq!(j.corrupt_stored_range("/t", 0, block, false).unwrap(), 1);

        let report = j.tiering().run_pass().unwrap();
        assert_eq!(verify_failures(&j.metrics(), "tiering"), 1, "{block}B");
        assert_eq!(report.spilled_segments, 2, "{block}B: {report:?}");
        let err = j.read(client(1), "/t", 0, block).unwrap_err();
        assert!(err.to_string().contains("integrity failure"), "{err}");
        let rest = j.read(client(1), "/t", block, 2 * block).unwrap();
        assert!(rest.content_eq(&Payload::chain([
            Payload::pattern(41, block),
            Payload::pattern(42, block)
        ])));
    }
}

/// The repair verify point: re-replication never copies a surviving
/// replica that fails its stamp — the record stays degraded and reads of
/// it stay a typed error, while clean survivors are re-mirrored.
#[test]
fn repair_refuses_to_replicate_a_corrupt_survivor() {
    for block in BLOCKS {
        let (j, expected) = write_workload(
            integrity_cfg(
                block,
                FaultConfig {
                    seed: 37,
                    ..FaultConfig::default()
                },
            ),
            block,
        );
        // Rank 0's first block: the primary dies with node 0, the
        // replica on node 1 is silently corrupt.
        j.corrupt_stored_range("/data", 0, block, true).unwrap();
        j.fail_node(0);

        let report = j.rebuild_degraded().unwrap();
        assert_eq!(verify_failures(&j.metrics(), "repair"), 1, "{block}B");
        assert_eq!(report.remaining_degraded, 1, "{block}B: {report:?}");
        assert!(report.repaired_bytes > 0, "{block}B: {report:?}");
        let err = j.read(client(2), "/data", 0, block).unwrap_err();
        assert!(err.to_string().contains("integrity failure"), "{err}");
        let tail = j
            .read(client(2), "/data", block, expected.len() - block)
            .unwrap();
        assert!(tail.content_eq(&expected.slice(block, expected.len() - block)));
    }
}

/// BD-CATS-shaped count test, under both runtimes: producers checkpoint
/// slabs and flush, then each reader scans a range spanning two
/// producers. Every record read back clean is the descriptor the write
/// stamped, so the read phase absorbs nothing — its verify bytes all come
/// from the memo and equal the bytes fetched — while the stamp and the
/// flush gather absorbed every byte once. Two fresh jobs count alike.
#[test]
fn clean_scan_verifies_from_the_memo_with_repeatable_counts() {
    const SLAB: u64 = 4 * MEMO_MIN_LEN;
    let run = |runtime: Runtime| {
        let mut cfg = integrity_cfg(SLAB, FaultConfig::default());
        cfg.fault = None;
        cfg.replicate_volatile = false;
        cfg.runtime = runtime;
        let ranks = cfg.geometry.total_procs() as u64;
        let j = UniviStorJob::new(cfg);
        j.open_file("/ckpt")
            .write()
            .representing(ranks as usize)
            .by(client(0))
            .unwrap();
        for rank in 0..ranks {
            let slab = Payload::pattern(500 + rank, SLAB);
            j.write(client(rank as u32), "/ckpt", rank * SLAB, slab)
                .unwrap();
        }
        j.close("/ckpt", client(0), OpenMode::Write, ranks as usize, true)
            .unwrap()
            .expect("last close flushes");
        let written = j.metrics();

        j.open_file("/ckpt")
            .representing(ranks as usize)
            .by(client(0))
            .unwrap();
        for reader in 0..ranks / 2 {
            let got = j
                .read(client(reader as u32), "/ckpt", reader * 2 * SLAB, 2 * SLAB)
                .unwrap();
            assert!(got.content_eq(&Payload::chain([
                Payload::pattern(500 + 2 * reader, SLAB),
                Payload::pattern(501 + 2 * reader, SLAB),
            ])));
        }
        let scanned = j.metrics();
        let delta = |site, source| {
            digest_bytes(&scanned, site, source) - digest_bytes(&written, site, source)
        };
        let fetched = ranks * SLAB; // whole records, each exactly once
        assert_eq!(delta("read", "absorbed"), 0, "{runtime:?}");
        assert_eq!(delta("read", "memo"), fetched, "{runtime:?}");
        assert_eq!(digest_bytes(&written, "stamp", "absorbed"), fetched);
        assert_eq!(digest_bytes(&written, "flush", "absorbed"), fetched);
        assert_eq!(digest_bytes(&written, "flush", "memo"), 0);
        assert_eq!(
            scanned.gauge("univistor_integrity_memo_entries", &[]),
            Some(ranks as i64)
        );
        let family = |name: &str| {
            let f = scanned.family(name).expect("family registered");
            format!("{f:?}")
        };
        (
            family("univistor_integrity_digest_bytes_total"),
            family("univistor_integrity_memo_entries"),
            family("univistor_integrity_verify_failures_total"),
        )
    };
    for runtime in [Runtime::Locked, Runtime::Partitioned] {
        assert_eq!(run(runtime), run(runtime), "{runtime:?}: counts drifted");
    }
}

/// A record written as eight pieces is stored as one extent, so reading
/// it back fetches the stamped descriptor itself: the read's verify
/// answers the whole record from the memo and digests nothing, under
/// both runtimes.
#[test]
fn multi_piece_record_verifies_from_the_memo() {
    const PIECE: u64 = MEMO_MIN_LEN;
    const RECORD: u64 = 8 * PIECE;
    for runtime in [Runtime::Locked, Runtime::Partitioned] {
        let mut cfg = integrity_cfg(RECORD, FaultConfig::default());
        cfg.fault = None;
        cfg.replicate_volatile = false;
        cfg.runtime = runtime;
        cfg.chunk_size = RECORD;
        cfg.segment_size = PIECE;
        let j = UniviStorJob::new(cfg);
        j.open_file("/rec").write().by(client(0)).unwrap();
        let data = Payload::pattern(77, RECORD);
        j.write(client(0), "/rec", 0, data.clone()).unwrap();
        let index = j.index_of("/rec").unwrap();
        assert_eq!(index.len(), 1, "{runtime:?}: the pieces form one record");
        assert!(index[0].1.checksum.is_some(), "{runtime:?}: record stamped");

        let before = j.metrics();
        let got = j.read(client(0), "/rec", 0, RECORD).unwrap();
        assert_eq!(got, data, "{runtime:?}: read back as the written window");
        let after = j.metrics();
        let delta =
            |source| digest_bytes(&after, "read", source) - digest_bytes(&before, "read", source);
        assert_eq!(delta("memo"), RECORD, "{runtime:?}");
        assert_eq!(delta("absorbed"), 0, "{runtime:?}");
    }
}
