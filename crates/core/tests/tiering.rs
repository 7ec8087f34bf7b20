//! Background-tiering integration: watermark edge cases (exactly-at,
//! zero-capacity tier), the daemon racing the close-time flush and the
//! online repair path under the fault injector, heat decay observable at
//! the job level, the `TieringHandle` control surface, and the catch-up
//! flush end to end — with byte-identity asserts throughout.

use std::sync::Arc;
use univistor_core::config::{PromotionPolicy, TierWatermarks, TieringConfig, UniviStorConfig};
use univistor_core::fault::FaultConfig;
use univistor_core::metadata::ClientId;
use univistor_core::server::UniviStorJob;
use univistor_core::tiering::TieringDaemon;
use univistor_core::va::Tier;
use univistor_mpi::driver::OpenMode;
use univistor_sim::Payload;

fn client(rank: u32) -> ClientId {
    ClientId::new(0, rank)
}

fn tier_bytes(j: &UniviStorJob, tier: Tier) -> u64 {
    j.tier_usage()
        .iter()
        .find(|(t, _)| *t == tier)
        .map(|(_, b)| *b)
        .unwrap_or(0)
}

/// `TieringStats` is a read of the job panel: each lifetime total is the
/// `univistor_tiering_*` family it comes from.
fn assert_stats_are_the_panel(j: &UniviStorJob) {
    let (stats, snap) = (j.tiering().stats(), j.metrics());
    let panel = [
        "univistor_tiering_passes_total",
        "univistor_tiering_spilled_segments_total",
        "univistor_tiering_spilled_bytes_total",
        "univistor_tiering_drained_segments_total",
        "univistor_tiering_drained_bytes_total",
        "univistor_tiering_promoted_segments_total",
        "univistor_tiering_heat_decays_total",
        "univistor_tiering_catchup_skipped_bytes_total",
    ]
    .map(|family| snap.counter_total(family));
    let view = [
        stats.passes,
        stats.spilled_segments,
        stats.spilled_bytes,
        stats.drained_segments,
        stats.drained_bytes,
        stats.promoted_segments,
        stats.heat_decays,
        stats.catchup_skipped_bytes,
    ];
    assert_eq!(view, panel);
    assert!(stats.passes > 0, "nothing ran");
}

/// A tier sitting *exactly* at its high watermark is left alone — the
/// spill trigger is strictly greater-than. One byte over, the tier
/// drains down to the low watermark.
#[test]
fn exactly_at_watermark_does_not_spill() {
    let mut cfg = UniviStorConfig::test_small(1, 2);
    cfg.tiering = TieringConfig::on();
    cfg.tiering.drain_cadence_ops = 0; // passes only when we ask
                                       // Per-client DRAM follows the c/p rule: 2048 B node capacity over
                                       // 2 procs gives client 0 a 1024 B log — high = 512 B exactly,
                                       // low = 256 B.
    cfg.cal.dram_cache_capacity_per_node = 2048;
    cfg.tiering.dram = TierWatermarks {
        high: 0.5,
        low: 0.25,
    };
    let j = Arc::new(UniviStorJob::new(cfg));
    j.open_file("/wm")
        .read_write()
        .representing(2)
        .by(client(0))
        .unwrap();
    j.write(client(0), "/wm", 0, Payload::pattern(1, 256))
        .unwrap();
    j.write(client(0), "/wm", 256, Payload::pattern(2, 256))
        .unwrap();
    assert_eq!(tier_bytes(&j, Tier::Dram), 512, "exactly at the watermark");

    let report = j.tiering().run_pass().unwrap();
    assert_eq!(report.spilled_segments, 0, "at-watermark must not spill");
    assert_eq!(tier_bytes(&j, Tier::Dram), 512);

    // One segment over the line: spill down to the low watermark.
    j.write(client(0), "/wm", 512, Payload::pattern(3, 256))
        .unwrap();
    assert_eq!(tier_bytes(&j, Tier::Dram), 768);
    let report = j.tiering().run_pass().unwrap();
    assert_eq!(report.spilled_segments, 2, "768 → 256 takes two segments");
    assert_eq!(report.spilled_bytes, 512);
    assert_eq!(tier_bytes(&j, Tier::Dram), 256);
    assert_eq!(j.tiering().stats().spilled_segments, 2);

    // Byte-identity after the shuffle.
    let got = j.read(client(1), "/wm", 0, 768).unwrap();
    for (i, seed) in [(0u64, 1u64), (256, 2), (512, 3)] {
        assert!(
            got.slice(i, 256).content_eq(&Payload::pattern(seed, 256)),
            "segment at {i} corrupted by the spill"
        );
    }
}

/// Each lower layer spills by its own watermark pair: with DRAM absent a
/// write lands on the node-local layer (or, without one, on the burst
/// buffer); the default pair leaves it there, and lowering only that
/// layer's pair makes one pass move it a layer down.
#[test]
fn lower_layers_spill_by_their_own_watermarks() {
    let run = |node_local: bool, marks: Option<TierWatermarks>| {
        let mut cfg = UniviStorConfig::test_small(1, 2);
        cfg.cal.dram_cache_capacity_per_node = 0;
        cfg.tiering = TieringConfig::on();
        cfg.tiering.drain_cadence_ops = 0;
        let top = if node_local {
            cfg.cal.node_local_capacity = Some(2048);
            Tier::NodeLocal
        } else {
            Tier::SharedBurstBuffer
        };
        if let Some(marks) = marks {
            match top {
                Tier::NodeLocal => cfg.tiering.node_local = marks,
                _ => cfg.tiering.burst_buffer = marks,
            }
        }
        let j = UniviStorJob::new(cfg);
        j.open_file("/low")
            .read_write()
            .representing(2)
            .by(client(0))
            .unwrap();
        j.write(client(0), "/low", 0, Payload::pattern(5, 512))
            .unwrap();
        assert_eq!(tier_bytes(&j, top), 512, "{top:?} holds the write");
        let report = j.tiering().run_pass().unwrap();
        let got = j.read(client(1), "/low", 0, 512).unwrap();
        assert!(got.content_eq(&Payload::pattern(5, 512)), "{top:?}");
        (report.spilled_bytes, tier_bytes(&j, top))
    };
    let low = TierWatermarks {
        high: 0.1,
        low: 0.05,
    };
    for node_local in [true, false] {
        assert_eq!(run(node_local, None), (0, 512), "default marks spilled");
        assert_eq!(run(node_local, Some(low)), (512, 0), "low marks kept it");
    }
}

/// A tier whose capacity cannot hold even one chunk is filtered out of
/// the chain entirely: writes land on the next layer, passes run without
/// incident, and promotion targets the surviving top layer.
#[test]
fn zero_capacity_tier_is_dropped_from_the_chain() {
    let mut cfg = UniviStorConfig::test_small(1, 2);
    cfg.cal.dram_cache_capacity_per_node = 0;
    cfg.tiering = TieringConfig::on();
    cfg.tiering.drain_cadence_ops = 0;
    let j = Arc::new(UniviStorJob::new(cfg));
    j.open_file("/z")
        .read_write()
        .representing(2)
        .by(client(0))
        .unwrap();
    j.write(client(0), "/z", 0, Payload::pattern(4, 512))
        .unwrap();
    assert_eq!(tier_bytes(&j, Tier::Dram), 0, "DRAM layer must be absent");
    assert_eq!(tier_bytes(&j, Tier::SharedBurstBuffer), 512);

    // Heat the segment well past any threshold: it already lives on the
    // chain's top surviving layer, so promotion must leave it alone.
    for _ in 0..5 {
        j.read(client(1), "/z", 0, 512).unwrap();
    }
    let report = j.tiering().run_pass().unwrap();
    assert_eq!(report.promoted_segments, 0);
    assert_eq!(report.spilled_segments, 0);
    let got = j.read(client(0), "/z", 0, 512).unwrap();
    assert!(got.content_eq(&Payload::pattern(4, 512)));
}

/// The daemon's spill/drain passes race concurrent writes, a node
/// failure with online repair, and finally the close-time flush — under
/// transient fault injection with deterministic seeds. Whatever the
/// interleaving, the flushed PFS copy must be byte-identical to the last
/// write of every region.
#[test]
fn daemon_races_flush_and_repair_under_faults() {
    for seed in [0x7e11u64, 0xbeef, 0x5eed] {
        let mut cfg = UniviStorConfig::test_small(2, 2);
        cfg.replicate_volatile = true;
        cfg.tiering = TieringConfig::on();
        cfg.tiering.daemon_interval_ms = 1;
        cfg.tiering.drain_cadence_ops = 4;
        cfg.fault = Some(FaultConfig {
            seed,
            transient_prob: 0.03,
            ..FaultConfig::default()
        });
        let j = Arc::new(UniviStorJob::new(cfg));
        j.open_file("/race")
            .read_write()
            .representing(4)
            .by(client(0))
            .unwrap();
        let daemon = TieringDaemon::spawn(Arc::clone(&j));
        assert_eq!(daemon.actors(), 2, "one actor per node");

        // Phase 1: every rank writes its region, twice (the overwrite
        // exercises ledger invalidation against in-flight drains).
        for round in 0..2u64 {
            for rank in 0..4u32 {
                j.write(
                    client(rank),
                    "/race",
                    rank as u64 * 256,
                    Payload::pattern(10 + round * 10 + rank as u64, 256),
                )
                .unwrap();
            }
        }
        // Phase 2: lose node 1 (ranks 2, 3) mid-run, repair online while
        // the daemon keeps passing, then overwrite from the survivors.
        j.fail_node(1);
        j.rebuild_degraded().unwrap();
        for rank in 0..2u32 {
            j.write(
                client(rank),
                "/race",
                rank as u64 * 256,
                Payload::pattern(90 + rank as u64, 256),
            )
            .unwrap();
        }
        // Close while the daemon is still live: the per-file gate
        // serializes any in-flight drain against the flush.
        let receipt = j
            .close("/race", client(0), OpenMode::ReadWrite, 4, true)
            .unwrap()
            .expect("last close flushes");
        daemon.shutdown();
        // After a mixed spill/drain/promote run, with the actors stopped.
        assert_stats_are_the_panel(&j);

        assert_eq!(receipt.lost, Default::default(), "replicas covered node 1");
        let expected = [
            Payload::pattern(90, 256), // rank 0, phase 2
            Payload::pattern(91, 256), // rank 1, phase 2
            Payload::pattern(22, 256), // rank 2, phase 1 round 2
            Payload::pattern(23, 256), // rank 3, phase 1 round 2
        ];
        for (rank, want) in expected.iter().enumerate() {
            let got = j.lustre_read("/race", rank as u64 * 256, 256).unwrap();
            assert!(
                got.content_eq(want),
                "seed {seed:#x}: region {rank} diverged on the PFS"
            );
        }
    }
}

/// Heat decays: a segment read hot and then left alone loses its claim
/// to promotion after enough decay ticks, while an identical job without
/// the decay passes still promotes it.
#[test]
fn heat_decay_forgets_stale_hotness() {
    let mk = || {
        let mut cfg = UniviStorConfig::test_small(1, 1);
        cfg.cal.dram_cache_capacity_per_node = 512;
        cfg.chunk_size = 256;
        cfg.segment_size = 256;
        cfg.tiering = TieringConfig::on();
        cfg.tiering.drain_cadence_ops = 0;
        cfg.tiering.heat_decay_passes = 1; // decay on every pass
        cfg.tiering.promotion.min_reads = 1000; // passes never promote
        let j = Arc::new(UniviStorJob::new(cfg));
        j.open_file("/h").read_write().by(client(0)).unwrap();
        // 1 KiB: 512 B fills DRAM, 512 B spills to the BB.
        j.write(client(0), "/h", 0, Payload::pattern(7, 1024))
            .unwrap();
        // Heat the BB-resident half, then free DRAM by overwriting the
        // cold half (the displaced spans punch both DRAM chunks free).
        for _ in 0..3 {
            j.read(client(0), "/h", 512, 512).unwrap();
        }
        j.write(client(0), "/h", 0, Payload::pattern(8, 512))
            .unwrap();
        j
    };

    // Control: with no decay ticks the heat (3 reads) promotes at once.
    let control = mk();
    let promote = |j: &UniviStorJob, min_reads| {
        j.tiering()
            .promote_now(PromotionPolicy {
                min_reads,
                min_benefit: 0.0,
            })
            .unwrap()
            .promoted_segments
    };
    assert_eq!(promote(&control, 3), 1);

    // Three decay ticks: 3 → 1 → 0 → entry evicted.
    let j = mk();
    for _ in 0..3 {
        j.tiering().run_pass().unwrap();
    }
    assert_eq!(j.tiering().stats().heat_decays, 3);
    assert_eq!(
        promote(&j, 1),
        0,
        "decayed-out heat must no longer pin promotion"
    );
    // The shuffled file still reads exactly.
    let got = j.read(client(0), "/h", 0, 1024).unwrap();
    assert!(got.slice(0, 512).content_eq(&Payload::pattern(8, 512)));
    assert!(got
        .slice(512, 512)
        .content_eq(&Payload::pattern(7, 1024).slice(512, 512)));
}

/// `pause` gates the write-cadence trigger; `resume` re-arms it.
#[test]
fn pause_gates_the_write_cadence() {
    let mut cfg = UniviStorConfig::test_small(1, 2);
    cfg.tiering = TieringConfig::on();
    cfg.tiering.drain_cadence_ops = 4;
    let j = Arc::new(UniviStorJob::new(cfg));
    j.open_file("/p")
        .read_write()
        .representing(2)
        .by(client(0))
        .unwrap();
    let h = j.tiering();
    h.pause();
    assert!(h.is_paused());
    assert!(h.stats().paused);
    for i in 0..8u64 {
        j.write(client(0), "/p", i * 64, Payload::pattern(i, 64))
            .unwrap();
    }
    assert_eq!(h.stats().passes, 0, "paused: no automatic passes");
    h.resume();
    assert!(!h.is_paused());
    for i in 0..8u64 {
        j.write(client(1), "/p", i * 64, Payload::pattern(50 + i, 64))
            .unwrap();
    }
    assert!(h.stats().passes > 0, "resumed: the cadence fires again");
}

/// `drain_now` + close: the background copy turns the close-time flush
/// into a catch-up — the receipt accounts the skipped bytes, the metric
/// agrees, and the PFS copy is byte-identical, including a span that was
/// overwritten (and therefore invalidated and re-drained) in between.
#[test]
fn drain_now_turns_close_into_catchup() {
    let mut cfg = UniviStorConfig::test_small(1, 2);
    cfg.tiering = TieringConfig::on();
    cfg.tiering.drain_cadence_ops = 0;
    let j = Arc::new(UniviStorJob::new(cfg));
    j.open_file("/c")
        .read_write()
        .representing(2)
        .by(client(0))
        .unwrap();
    for i in 0..4u64 {
        j.write(client(0), "/c", i * 256, Payload::pattern(i, 256))
            .unwrap();
    }
    let h = j.tiering();
    let r = h.drain_now().unwrap();
    assert!(r.drained_segments > 0, "cold spans should drain ahead");
    assert_eq!(h.stats().ledger_spans, r.drained_segments);

    // Overwrite one span: its ledger entry dies immediately, and the
    // next drain copies the fresh bytes.
    let before = h.stats().ledger_spans;
    j.write(client(1), "/c", 256, Payload::pattern(40, 256))
        .unwrap();
    assert!(h.stats().ledger_spans < before, "overwrite must invalidate");
    h.drain_now().unwrap();

    let receipt = j
        .close("/c", client(0), OpenMode::ReadWrite, 2, true)
        .unwrap()
        .expect("last close flushes");
    assert!(
        receipt.drained_ahead_bytes > 0,
        "the flush should be a catch-up, not a full copy"
    );
    assert_eq!(receipt.file_size, 1024);
    assert_eq!(h.stats().catchup_skipped_bytes, receipt.drained_ahead_bytes);
    assert_eq!(
        j.metrics()
            .counter_total("univistor_tiering_catchup_skipped_bytes_total"),
        receipt.drained_ahead_bytes
    );
    assert_eq!(h.stats().ledger_spans, 0, "the flush consumed the ledger");

    for (i, seed) in [(0u64, 0u64), (256, 40), (512, 2), (768, 3)] {
        let got = j.lustre_read("/c", i, 256).unwrap();
        assert!(
            got.content_eq(&Payload::pattern(seed, 256)),
            "PFS bytes at {i} diverged (stale drained copy?)"
        );
    }
}

/// With tiering disabled (the default), the daemon starts no actors and
/// the handle still answers: `drain_now` is an explicit request and
/// works anyway, while stats start at zero.
#[test]
fn disabled_config_runs_no_actors_but_handle_still_works() {
    let j = Arc::new(UniviStorJob::new(UniviStorConfig::test_small(1, 2)));
    assert!(!j.cfg().tiering.enabled);
    let daemon = TieringDaemon::spawn(Arc::clone(&j));
    assert_eq!(daemon.actors(), 0);
    daemon.shutdown();

    j.open_file("/d")
        .read_write()
        .representing(2)
        .by(client(0))
        .unwrap();
    j.write(client(0), "/d", 0, Payload::pattern(5, 512))
        .unwrap();
    assert_eq!(j.tiering().stats().passes, 0, "no automatic activity");
    let r = j.tiering().drain_now().unwrap();
    assert!(r.drained_segments > 0, "explicit drain works when disabled");
    let receipt = j
        .close("/d", client(0), OpenMode::ReadWrite, 2, true)
        .unwrap()
        .expect("flush");
    assert_eq!(receipt.drained_ahead_bytes, 512);
    let got = j.lustre_read("/d", 0, 512).unwrap();
    assert!(got.content_eq(&Payload::pattern(5, 512)));
}

/// An explicit `promote_now` pass routes through the tiering engine:
/// promotions show up in the handle's stats and in the job's phase stats,
/// both read off the one promotion family.
#[test]
fn promote_now_feeds_tiering_stats() {
    let mut cfg = UniviStorConfig::test_small(1, 1);
    cfg.cal.dram_cache_capacity_per_node = 512;
    cfg.chunk_size = 256;
    cfg.segment_size = 256;
    let j = Arc::new(UniviStorJob::new(cfg));
    j.open_file("/s").read_write().by(client(0)).unwrap();
    j.write(client(0), "/s", 0, Payload::pattern(7, 1024))
        .unwrap();
    for _ in 0..3 {
        j.read(client(0), "/s", 512, 512).unwrap();
    }
    j.write(client(0), "/s", 0, Payload::pattern(8, 512))
        .unwrap();
    let report = j
        .tiering()
        .promote_now(PromotionPolicy {
            min_reads: 3,
            min_benefit: 0.0,
        })
        .unwrap();
    assert_eq!(report.promoted_segments, 1);
    assert_eq!(j.tiering().stats().promoted_segments, 1);
    assert_eq!(j.stats().promotions, 1);
    assert_stats_are_the_panel(&j);
}
