//! Partitioned-runtime pinning (DESIGN.md §13): the partitioned runtime
//! runs the locked core's own write and read on its workers, so it must be
//! observably identical to the locked runtime — same bytes, same figure
//! statistics (read classification, placement), same counted locks —
//! while every write or read costs exactly one message and one awaited
//! round-trip. Plus the routing edge cases: spans crossing every KV
//! partition, a single-worker pool, `fail_node`/`restore_node` racing
//! in-flight messages, clean shutdown, a depth-one mailbox, and the
//! shared-read-view non-starvation regression.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use univistor_core::config::{Runtime, TieringConfig, UniviStorConfig};
use univistor_core::fault::FaultConfig;
use univistor_core::metadata::ClientId;
use univistor_core::server::UniviStorJob;
use univistor_core::tiering::TieringDaemon;
use univistor_sim::rng::DetRng;
use univistor_sim::{Payload, SparseBuffer};

fn client(rank: u32) -> ClientId {
    ClientId::new(0, rank)
}

/// The figure statistics two equivalent paths must agree on: op counts,
/// metadata RPCs and local hits, segments, cached bytes per tier, read
/// bytes per path, replica reads, read-cache hits and misses, replicated
/// bytes and promotions.
const STAT_FAMILIES: [&str; 11] = [
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
];

/// 2 nodes × 2 procs with an explicit 4-worker pool, so the partition
/// dimension is exercised even on a single-CPU host (where the
/// `partitions == 0` default would resolve to one worker).
fn cfg(runtime: Runtime) -> UniviStorConfig {
    let mut cfg = UniviStorConfig::test_small(2, 2);
    cfg.runtime = runtime;
    cfg.partitions = 4;
    cfg
}

fn round_trips(j: &UniviStorJob) -> u64 {
    j.metrics()
        .counter_total("univistor_partition_round_trips_total")
}

/// The deterministic mixed workload both runtimes replay: four ranks
/// tile a 4 KiB file, then random overwrites interleave with random
/// reads. Every read is checked against the flat model *and* returned
/// for cross-runtime comparison, along with the awaited round-trips each
/// write cost (1 on the partitioned runtime, 0 on the locked one).
fn mixed_workload(j: &UniviStorJob) -> (SparseBuffer, Vec<Payload>, Vec<u64>) {
    let span = 4096u64;
    let mut model = SparseBuffer::new();
    let mut reads = Vec::new();
    let mut write_trips = Vec::new();
    let mut write = |rank: u32, offset: u64, p: Payload| {
        let before = round_trips(j);
        j.write(client(rank), "/d", offset, p).unwrap();
        write_trips.push(round_trips(j) - before);
    };
    j.open_file("/d")
        .read_write()
        .representing(4)
        .by(client(0))
        .unwrap();
    for rank in 0..4u64 {
        let p = Payload::pattern(rank, 1024);
        model.write(rank * 1024, p.clone());
        write(rank as u32, rank * 1024, p);
    }
    let mut rng = DetRng::seed(0x5eed);
    for i in 0..60u64 {
        let rank = rng.below(4) as u32;
        if rng.chance(0.5) {
            let offset = (rng.below(14) as u64) * 256;
            let len = ((rng.below(4) + 1) as u64 * 256).min(span - offset);
            let p = Payload::pattern(100 + i, len);
            model.write(offset, p.clone());
            write(rank, offset, p);
        } else {
            let offset = (rng.below(15) as u64) * 256;
            let len = ((rng.below(6) + 1) as u64 * 256).min(span - offset);
            let got = j.read(client(rank), "/d", offset, len).unwrap();
            assert!(
                got.content_eq(&model.read(offset, len)),
                "op {i}: read [{offset}, {}) diverged from the model",
                offset + len
            );
            reads.push(got);
        }
    }
    (model, reads, write_trips)
}

/// Byte-identity and accounting differential: the same deterministic
/// mixed workload (tiling writes, random overwrites, random reads) on the
/// locked runtime, a 4-worker pool and a 1-worker pool, with
/// `replicate_volatile` off and on, fault-free and under a transient
/// drizzle. Every partitioned write costs one round-trip; identical bytes
/// on every read, identical index records (VAs, replicas and stamped
/// checksums), identical aggregated `ReadTrace`, placement statistics and
/// counted lock acquisitions, and identical fault-draw outcomes (a fault
/// fires as a pure function of the draw index, so equal firing and retry
/// counts pin the draw order).
#[test]
fn runtimes_agree_on_bytes_traces_and_stats() {
    for (replicate, drizzle) in [(false, false), (true, false), (false, true), (true, true)] {
        let ctx = format!("replicate={replicate} drizzle={drizzle}");
        let run = |runtime, partitions| {
            let mut c = cfg(runtime);
            c.partitions = partitions;
            c.replicate_volatile = replicate;
            if drizzle {
                c.retry.backoff_base_us = 1;
                c.retry.backoff_cap_us = 10;
                c.fault = Some(FaultConfig {
                    seed: 11,
                    transient_prob: 0.05,
                    ..FaultConfig::default()
                });
            }
            let j = Arc::new(UniviStorJob::new(c));
            let (_, reads, write_trips) = mixed_workload(&j);
            (j, reads, write_trips)
        };
        let (locked, locked_reads, _) = run(Runtime::Locked, 4);
        for partitions in [4, 1] {
            let ctx = format!("{ctx} workers={partitions}");
            let (part, part_reads, write_trips) = run(Runtime::Partitioned, partitions);

            // Retries run on the worker, so a write costs one round-trip
            // even under faults.
            assert!(
                write_trips.iter().all(|&t| t == 1),
                "{ctx}: write round-trips {write_trips:?}"
            );

            assert_eq!(locked_reads.len(), part_reads.len());
            for (i, (a, b)) in locked_reads.iter().zip(&part_reads).enumerate() {
                assert!(a.content_eq(b), "{ctx}: read {i} diverged between runtimes");
            }
            assert_eq!(
                locked.index_of("/d").unwrap(),
                part.index_of("/d").unwrap(),
                "{ctx}: index records (VAs, replicas, checksums)"
            );

            let (a, b) = (locked.metrics(), part.metrics());
            for family in STAT_FAMILIES {
                assert_eq!(
                    a.family(family),
                    b.family(family),
                    "{ctx}: {family} must be runtime-invariant"
                );
            }
            assert_eq!(locked.tier_usage(), part.tier_usage(), "{ctx}");
            assert_eq!(locked.metadata_records(), part.metadata_records(), "{ctx}");
            assert_eq!(
                locked.file_size("/d").unwrap(),
                part.file_size("/d").unwrap()
            );

            for family in [
                "univistor_faults_injected_total",
                "univistor_retries_total",
                "univistor_write_pieces_total",
                "univistor_write_records_total",
                "univistor_write_lock_acquisitions_total",
                "univistor_read_lock_acquisitions_total",
            ] {
                assert_eq!(
                    a.counter_total(family),
                    b.counter_total(family),
                    "{ctx}: {family}"
                );
            }
            assert_eq!(
                a.counter_total("univistor_faults_injected_total") > 0,
                drizzle
            );
        }
    }
}

/// Fault-injection differential: under a transient-fault drizzle plus a
/// scheduled mid-workload node loss (with replication covering it), both
/// runtimes still return exactly the model's bytes — the worker-run path's
/// retry draws and degraded rerouting lose nothing.
#[test]
fn runtimes_agree_under_fault_injection() {
    let run = |runtime| {
        let mut cfg = UniviStorConfig::test_small(3, 2);
        cfg.runtime = runtime;
        cfg.partitions = 4;
        cfg.replicate_volatile = true;
        cfg.cal.dram_cache_capacity_per_node = 8192;
        cfg.retry.backoff_base_us = 1;
        cfg.retry.backoff_cap_us = 10;
        cfg.fault = Some(FaultConfig {
            seed: 42,
            fail_node_at: vec![(30, 0)],
            transient_prob: 0.05,
            ..FaultConfig::default()
        });
        let ranks = 6u32;
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
        j.read(client(ranks - 1), "/soak", 0, 2 * wave).unwrap()
    };
    let expected = {
        let mut model = SparseBuffer::new();
        for w in 0..2u64 {
            for rank in 0..6u64 {
                model.write(w * 1536 + rank * 256, Payload::pattern(w * 100 + rank, 256));
            }
        }
        model.read(0, 3072)
    };
    let locked = run(Runtime::Locked);
    let part = run(Runtime::Partitioned);
    assert!(
        locked.content_eq(&expected),
        "locked degraded read diverged"
    );
    assert!(
        part.content_eq(&expected),
        "partitioned degraded read diverged"
    );
}

/// Active-tiering differential: with the cadence trigger spilling and
/// promoting mid-workload, both runtimes land on identical bytes and
/// identical per-tier residency — the pass sees the same heat.
#[test]
fn runtimes_agree_with_active_tiering() {
    let run = |runtime| {
        let mut c = cfg(runtime);
        c.cal.dram_cache_capacity_per_node = 1024;
        c.tiering = TieringConfig::on();
        c.tiering.drain_cadence_ops = 8;
        let j = Arc::new(UniviStorJob::new(c));
        let (model, ..) = mixed_workload(&j);
        let got = j.read(client(0), "/d", 0, 4096).unwrap();
        assert!(got.content_eq(&model.read(0, 4096)));
        (j.tier_usage(), got)
    };
    let (locked_tiers, locked_bytes) = run(Runtime::Locked);
    let (part_tiers, part_bytes) = run(Runtime::Partitioned);
    assert!(locked_bytes.content_eq(&part_bytes));
    assert_eq!(
        locked_tiers, part_tiers,
        "tiering decisions must be runtime-invariant on a serial workload"
    );
}

/// The background daemon ticking over the partitioned runtime (passes on
/// the shared core racing worker-run writes and reads from two threads)
/// never corrupts data: the final patterns read back exactly.
#[test]
fn daemon_over_partitioned_runtime_preserves_bytes() {
    let mut c = cfg(Runtime::Partitioned);
    c.cal.dram_cache_capacity_per_node = 1024;
    c.tiering = TieringConfig::on();
    c.tiering.daemon_interval_ms = 1;
    let j = Arc::new(UniviStorJob::new(c));
    j.open_file("/bg")
        .read_write()
        .representing(2)
        .by(client(0))
        .unwrap();
    let daemon = TieringDaemon::spawn(j.clone());
    std::thread::scope(|s| {
        for rank in 0..2u32 {
            let j = j.clone();
            s.spawn(move || {
                for i in 0..30u64 {
                    let base = rank as u64 * 2048;
                    j.write(
                        client(rank),
                        "/bg",
                        base + (i % 4) * 512,
                        Payload::pattern(rank as u64 * 1000 + i, 512),
                    )
                    .unwrap();
                    let _ = j.read(client(rank), "/bg", base, 2048);
                }
            });
        }
    });
    daemon.shutdown();
    for rank in 0..2u64 {
        let base = rank * 2048;
        for slot in 0..4u64 {
            // Last writer to each slot: the largest i < 30 with i % 4 == slot.
            let last = 29 - (29 - slot) % 4;
            let want = Payload::pattern(rank * 1000 + last, 512);
            let got = j
                .read(client(rank as u32), "/bg", base + slot * 512, 512)
                .unwrap();
            if !got.content_eq(&want) {
                for i in 0..30u64 {
                    if got.content_eq(&Payload::pattern(rank * 1000 + i, 512)) {
                        panic!("rank {rank} slot {slot}: expected write {last}, found write {i}");
                    }
                }
                panic!("rank {rank} slot {slot}: expected write {last}, found garbage");
            }
        }
    }
}

/// A write spanning every metadata range (and so all four KV partitions)
/// reads back exactly, and each call ran on the worker owning its
/// caller's node: workers own nodes, not key ranges.
#[test]
fn spans_crossing_every_partition_route_correctly() {
    let j = Arc::new(UniviStorJob::new(cfg(Runtime::Partitioned)));
    assert_eq!(j.partition_workers(), 4);
    j.open_file("/wide")
        .read_write()
        .representing(4)
        .by(client(0))
        .unwrap();
    // 8 KiB from one client: eight 1 KiB metadata ranges → all four KV
    // partitions; plus a rank on the second node so both node-buffer
    // owners see traffic.
    let wide = Payload::pattern(5, 8192);
    j.write(client(0), "/wide", 0, wide.clone()).unwrap();
    j.write(client(2), "/wide", 8192, Payload::pattern(6, 1024))
        .unwrap();
    let got = j.read(client(3), "/wide", 0, 9216).unwrap();
    assert!(got.slice(0, 8192).content_eq(&wide));
    assert!(got.slice(8192, 1024).content_eq(&Payload::pattern(6, 1024)));
    let snap = j.metrics();
    let messages: Vec<u64> = (0..4)
        .map(|p| {
            let label = p.to_string();
            snap.counter(
                "univistor_partition_messages_total",
                &[("partition", label.as_str())],
            )
            .unwrap_or(0)
        })
        .collect();
    // Node 0's write on worker 0; node 1's write and read on worker 1.
    assert_eq!(messages, [1, 2, 0, 0]);
}

/// `partitions = 1` collapses the pool to a single worker that owns
/// everything — the degenerate routing case must still be exact.
#[test]
fn single_partition_pool_is_exact() {
    let mut c = cfg(Runtime::Partitioned);
    c.partitions = 1;
    let j = Arc::new(UniviStorJob::new(c));
    assert_eq!(j.partition_workers(), 1);
    let (model, ..) = mixed_workload(&j);
    let got = j.read(client(0), "/d", 0, 4096).unwrap();
    assert!(got.content_eq(&model.read(0, 4096)));
}

/// `fail_node`/`restore_node` flapping while writes and reads are in
/// flight: individual operations may fail while a node is down, but
/// nothing panics, no mailbox wedges, and after the last restore a fresh
/// write reads back exactly.
#[test]
fn node_flapping_races_in_flight_messages() {
    let mut c = cfg(Runtime::Partitioned);
    c.replicate_volatile = true;
    c.cal.dram_cache_capacity_per_node = 1 << 20;
    let j = Arc::new(UniviStorJob::new(c));
    j.open_file("/flap")
        .read_write()
        .representing(4)
        .by(client(0))
        .unwrap();
    j.write(client(0), "/flap", 0, Payload::pattern(1, 4096))
        .unwrap();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let (j2, stop2) = (j.clone(), &stop);
        s.spawn(move || {
            let mut i = 0u64;
            while !stop2.load(Ordering::Acquire) {
                // Rank 1 lives on node 0, rank 2 on node 1: both sides of
                // the flap stay under load. Errors while a node is down
                // are expected; corruption or a hang is not.
                let _ = j2.write(
                    client(1 + (i % 2) as u32),
                    "/flap",
                    (i % 8) * 512,
                    Payload::pattern(i, 512),
                );
                let _ = j2.read(client((i % 4) as u32), "/flap", (i % 8) * 512, 512);
                i += 1;
            }
        });
        for _ in 0..20 {
            j.fail_node(1);
            std::thread::sleep(std::time::Duration::from_millis(1));
            j.restore_node(1);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        stop.store(true, Ordering::Release);
    });
    j.restore_node(1);
    j.write(client(0), "/flap", 0, Payload::pattern(77, 4096))
        .unwrap();
    let got = j.read(client(3), "/flap", 0, 4096).unwrap();
    assert!(got.content_eq(&Payload::pattern(77, 4096)));
}

/// Dropping the job drains every mailbox before the workers exit: every
/// post, the shutdown message included, is matched by a dequeue (the
/// depth gauge returns to zero).
#[test]
fn shutdown_drains_queued_mailbox_messages() {
    let metrics;
    {
        let j = Arc::new(UniviStorJob::new(cfg(Runtime::Partitioned)));
        metrics = j.metrics_handle().clone();
        j.open_file("/q").read_write().by(client(0)).unwrap();
        j.write(client(0), "/q", 0, Payload::pattern(3, 4096))
            .unwrap();
        for i in 0..16u64 {
            j.read(client(0), "/q", (i % 4) * 1024, 1024).unwrap();
        }
    }
    // Workers joined: every post was matched by a dequeue.
    let snap = metrics.snapshot();
    let mut depth = 0i64;
    for p in 0..4 {
        let label = p.to_string();
        depth += snap
            .gauge(
                "univistor_partition_mailbox_depth",
                &[("partition", label.as_str())],
            )
            .unwrap_or(0);
    }
    assert_eq!(depth, 0, "shutdown left messages undrained");
    assert!(snap.counter_total("univistor_partition_messages_total") > 0);
}

/// The message budget: on the partitioned runtime every `write` and
/// `read` call costs exactly one awaited round-trip and one message,
/// whatever it touches — one owner's range, all four KV partitions, an
/// overwrite, a replicated write — and, once the reply-slot pool holds a
/// slot, no call allocates one.
#[test]
fn each_call_is_one_round_trip_and_one_message() {
    let plane = |j: &UniviStorJob| {
        let snap = j.metrics();
        (
            snap.counter_total("univistor_partition_round_trips_total"),
            snap.counter_total("univistor_partition_messages_total"),
            snap.counter_total("univistor_msgplane_reply_pool_misses_total"),
        )
    };
    for replicate in [false, true] {
        let mut c = cfg(Runtime::Partitioned);
        c.replicate_volatile = replicate;
        let j = Arc::new(UniviStorJob::new(c));
        assert_eq!(j.partition_workers(), 4);
        j.open_file("/rt")
            .read_write()
            .representing(4)
            .by(client(0))
            .unwrap();
        let calls: [(&str, u32, u64, u64); 5] = [
            ("single-owner write", 0, 0, 1024),
            ("all-partition write", 2, 0, 4096),
            ("overwrite", 2, 0, 4096),
            ("single-owner read", 0, 0, 1024),
            ("all-partition read", 3, 0, 4096),
        ];
        for (i, (what, rank, offset, len)) in calls.into_iter().enumerate() {
            let before = plane(&j);
            if what.ends_with("write") {
                let p = Payload::pattern(i as u64, len);
                j.write(client(rank), "/rt", offset, p).unwrap();
            } else {
                j.read(client(rank), "/rt", offset, len).unwrap();
            }
            let after = plane(&j);
            let ctx = format!("replicate={replicate} {what}");
            assert_eq!(after.0 - before.0, 1, "{ctx}: round-trips");
            assert_eq!(after.1 - before.1, 1, "{ctx}: messages");
        }
        // Steady state: sequential calls recycle the one slot.
        let before = plane(&j);
        for i in 0..50u64 {
            let rank = (i % 4) as u32;
            j.write(client(rank), "/rt", 0, Payload::pattern(10 + i, 4096))
                .unwrap();
            j.read(client(rank), "/rt", 0, 4096).unwrap();
        }
        let after = plane(&j);
        assert_eq!(after.0 - before.0, 100, "replicate={replicate}");
        assert_eq!(after.1 - before.1, 100, "replicate={replicate}");
        assert_eq!(after.2, 1, "replicate={replicate}: one slot ever allocated");
    }
}

/// A depth-1 mailbox still drains writes spanning every partition from
/// several threads at once: workers never post to other workers, so any
/// mailbox depth ≥ 1 is deadlock-free — a caller just blocks
/// (backpressure) when its worker falls behind.
#[test]
fn depth_one_mailbox_drains_a_multi_partition_write() {
    let mut c = cfg(Runtime::Partitioned);
    c.mailbox_depth = 1;
    let j = Arc::new(UniviStorJob::new(c));
    assert_eq!(j.partition_workers(), 4);
    j.open_file("/narrow")
        .read_write()
        .representing(4)
        .by(client(0))
        .unwrap();
    // 8 KiB across all four KV partitions from each rank at once, then
    // the last writer's overwrite and a full read-back.
    std::thread::scope(|s| {
        for rank in 0..4u32 {
            let j = &j;
            s.spawn(move || {
                let p = Payload::pattern(rank as u64, 8192);
                j.write(client(rank), "/narrow", 0, p).unwrap();
                j.read(client(rank), "/narrow", 0, 8192).unwrap();
            });
        }
    });
    j.write(client(2), "/narrow", 0, Payload::pattern(9, 8192))
        .unwrap();
    let got = j.read(client(3), "/narrow", 0, 8192).unwrap();
    assert!(got.content_eq(&Payload::pattern(9, 8192)));
}

/// Rollback spanning the stages of a worker-run commit: a transient fault
/// exhausting the append retries on the partition worker must leave
/// **no** partial stage behind — no chain bytes, no KV records, no bytes
/// counted as cached, as if the write never happened.
#[test]
fn no_partial_stage_of_a_fused_commit_survives_append_failure() {
    let mut c = cfg(Runtime::Partitioned);
    c.retry.backoff_base_us = 1;
    c.retry.backoff_cap_us = 10;
    c.fault = Some(FaultConfig {
        seed: 7,
        transient_prob: 1.0, // every chain_append draw fails → retries exhaust
        ..FaultConfig::default()
    });
    let j = Arc::new(UniviStorJob::new(c));
    j.open_file("/roll").read_write().by(client(0)).unwrap();
    let cached = |j: &UniviStorJob| j.metrics().counter_total("univistor_cached_bytes_total");
    let live = |j: &UniviStorJob| j.tier_usage().iter().map(|&(_, used)| used).sum::<u64>();
    let (cached_before, live_before) = (cached(&j), live(&j));
    let err = j.write(client(0), "/roll", 0, Payload::pattern(1, 1024));
    assert!(err.is_err(), "exhausted retries must surface the fault");
    assert_eq!(j.metadata_records(), 0, "a KV record survived rollback");
    assert_eq!(live(&j), live_before, "chain bytes survived rollback");
    assert_eq!(cached(&j), cached_before, "a rolled-back piece was counted");
}

/// Same-seed replay equivalence with transient faults landing *inside*
/// worker-run commits: both runtimes replay the identical overwrite-heavy
/// single-client workload under the same fault seed, drawing faults at
/// the same logical points (per-piece appends, the kv-insert draw, the
/// kv-lookup draw), so retries consume the same draws and the final
/// state is identical — bytes, record count, per-tier residency.
#[test]
fn runtimes_replay_identically_under_faults_mid_fused_commit() {
    let run = |runtime| {
        let mut c = cfg(runtime);
        c.retry.backoff_base_us = 1;
        c.retry.backoff_cap_us = 10;
        c.fault = Some(FaultConfig {
            seed: 1234,
            transient_prob: 0.2,
            ..FaultConfig::default()
        });
        let j = Arc::new(UniviStorJob::new(c));
        j.open_file("/replay").read_write().by(client(0)).unwrap();
        let mut model = SparseBuffer::new();
        // Rank 0 hammering block 0: from the second write on, the punch
        // + sweep run mid-commit under the fault drizzle.
        for i in 0..24u64 {
            let offset = (i % 4) * 256;
            let p = Payload::pattern(i, 256);
            model.write(offset, p.clone());
            j.write(client(0), "/replay", offset, p).unwrap();
        }
        let got = j.read(client(0), "/replay", 0, 1024).unwrap();
        assert!(got.content_eq(&model.read(0, 1024)), "diverged from model");
        (got, j.metadata_records(), j.tier_usage())
    };
    let (locked_bytes, locked_records, locked_tiers) = run(Runtime::Locked);
    let (part_bytes, part_records, part_tiers) = run(Runtime::Partitioned);
    assert!(locked_bytes.content_eq(&part_bytes));
    assert_eq!(locked_records, part_records);
    assert_eq!(locked_tiers, part_tiers);
}

/// Regression for the shared-read-view writer-starvation hazard: the
/// locked runtime's `ChainSet::with` acquires views by `try_read` with
/// backoff instead of parking in the rwlock's reader queue, so a
/// continuous stream of overlapping views from other threads cannot
/// starve a writer on the same chain — every queued write completes
/// while the views keep arriving.
#[test]
fn queued_writer_completes_under_read_view_stream() {
    let mut c = cfg(Runtime::Locked);
    c.partitions = 0;
    let j = Arc::new(UniviStorJob::new(c));
    j.open_file("/v").read_write().by(client(0)).unwrap();
    j.write(client(0), "/v", 0, Payload::pattern(1, 512))
        .unwrap();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..2 {
            let (j1, stop1) = (j.clone(), &stop);
            s.spawn(move || {
                while !stop1.load(Ordering::Acquire) {
                    j1.with_shared_read_view(client(0), || std::hint::black_box(()))
                        .unwrap();
                }
            });
        }
        // Every write needs the chain's exclusive lock; under a
        // reader-preferring acquisition these could starve behind the
        // view stream indefinitely. They must all complete.
        for i in 0..50u64 {
            j.write(client(0), "/v", 0, Payload::pattern(2 + i, 512))
                .unwrap();
        }
        stop.store(true, Ordering::Release);
    });
    let got = j.read(client(0), "/v", 0, 512).unwrap();
    assert!(got.content_eq(&Payload::pattern(51, 512)));
}
