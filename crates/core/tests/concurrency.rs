//! Concurrency stress tests for the sharded job locks.
//!
//! The seed's `UniviStorJob` held one `Mutex<JobState>` around every
//! operation; these tests drive the sharded replacement from many OS
//! threads at once and check that (a) nothing deadlocks, (b) every byte
//! is where its writer put it, (c) the tier-accounting invariants hold,
//! and (d) the job's aggregate counters equal the sums of what each
//! thread did — i.e. no update was lost to a race.
//!
//! The stress volume scales with the build: debug runs keep CI fast,
//! and the release-mode CI job (see `.github/workflows/ci.yml`) runs the
//! full 8 × 1000-op mix where lock bugs actually get schedule pressure.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use univistor_core::config::{PromotionPolicy, UniviStorConfig};
use univistor_core::metadata::{ClientId, MetadataService, SegKey, SegmentRecord};
use univistor_core::server::UniviStorJob;
use univistor_core::va::{Tier, VirtualAddr};
use univistor_mpi::driver::OpenMode;
use univistor_sim::Payload;

/// Write+read pairs per thread: 1000 in release (the CI stress job),
/// trimmed in debug so `cargo test` stays quick.
const OPS: usize = if cfg!(debug_assertions) { 200 } else { 1000 };
const THREADS: usize = 8;
/// Block size — one segment, so per-thread segment counts are exact.
const BLOCK: u64 = 128;
/// Distinct block slots each thread cycles over; later iterations
/// overwrite earlier ones, hammering the punch/displacement path.
const WINDOW: u64 = 8;

/// Overwrites of the window in the metadata stress: ≥ 100 k in release
/// (the CI stress job and the TSan job), trimmed in debug.
const SPLICES: u64 = if cfg!(debug_assertions) {
    5_000
} else {
    100_000
};

/// Bytes of `[lo, hi)` the union of `records` covers.
fn union_covered(records: &[(SegKey, SegmentRecord)], lo: u64, hi: u64) -> u64 {
    let mut covered = vec![false; (hi - lo) as usize];
    for (k, r) in records {
        for b in k.offset.max(lo)..(k.offset + r.len).min(hi) {
            covered[(b - lo) as usize] = true;
        }
    }
    covered.iter().filter(|c| **c).count() as u64
}

/// An overwrite is one splice, atomic to every reader. One thread
/// overwrites a window spanning three metadata partitions, alternating two
/// record tilings and the producer node; two readers loop over
/// `lookup_range` and, from each node, the read's gather: the node
/// buffer's covering answer (`lookup_local`), else the cached distributed
/// lookup (`lookup_range_cached`) alone — never a join of the two, which
/// could hide a hole either source alone would show. The window is always
/// fully written, so every read must cover all of it, from the old records
/// or from the new ones.
#[test]
fn overwrites_are_atomic_to_concurrent_lookups() {
    // Range 256 over 3 servers: [128, 640) touches partitions 0, 1 and 2.
    let m = MetadataService::new(256, 3, 2, 1);
    let (fid, lo, hi) = (1, 128, 640);
    let tiling = |i: u64| -> Vec<(u64, SegmentRecord)> {
        let bounds: &[u64] = if i.is_multiple_of(2) {
            &[128, 384, 640]
        } else {
            &[128, 256, 512, 640]
        };
        let client = ClientId::new(0, (i % 2) as u32);
        bounds
            .windows(2)
            .map(|w| {
                (
                    w[0],
                    SegmentRecord::new(client, VirtualAddr(i * 1024 + w[0]), w[1] - w[0]),
                )
            })
            .collect()
    };
    m.insert_batch(fid, lo, hi, &tiling(0), 0).unwrap();
    let overwrites = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 1..=SPLICES {
                m.insert_batch(fid, lo, hi, &tiling(i), (i % 2) as usize)
                    .unwrap();
                overwrites.store(i, Ordering::Relaxed);
            }
            done.store(true, Ordering::Release);
        });
        for _ in 0..2 {
            s.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    let (_, records) = m.lookup_range(fid, lo, hi);
                    let covered = union_covered(&records, lo, hi);
                    let at = overwrites.load(Ordering::Relaxed);
                    assert_eq!(covered, hi - lo, "lookup_range hole after {at} overwrites");
                    for node in 0..2 {
                        let gathered = match m.lookup_local(node, fid, lo, hi) {
                            Some(local) => local,
                            None => m.lookup_range_cached(node, fid, lo, hi).unwrap().1,
                        };
                        let covered = union_covered(&gathered, lo, hi);
                        let at = overwrites.load(Ordering::Relaxed);
                        assert_eq!(
                            covered,
                            hi - lo,
                            "node {node} gather hole after {at} overwrites"
                        );
                    }
                }
            });
        }
    });
}

#[test]
fn stress_mixed_ops_eight_threads() {
    let cfg = UniviStorConfig::test_small(2, 4); // 8 procs, 2 nodes
    let dram_per_proc = cfg.cal.dram_cache_capacity_per_node / cfg.geometry.procs_per_node as u64;
    let job = UniviStorJob::new(cfg);

    let writes_done: Vec<AtomicU64> = (0..THREADS).map(|_| AtomicU64::new(0)).collect();
    let reads_done: Vec<AtomicU64> = (0..THREADS).map(|_| AtomicU64::new(0)).collect();

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let job = &job;
            let writes_done = &writes_done;
            let reads_done = &reads_done;
            s.spawn(move || {
                let client = ClientId::new(0, t as u32);
                let path = format!("/stress/{t}");
                job.connect(client);
                job.open_file(&path).read_write().by(client).unwrap();
                for i in 0..OPS {
                    let slot = i as u64 % WINDOW;
                    let seed = (t * OPS + i) as u64;
                    job.write(client, &path, slot * BLOCK, Payload::pattern(seed, BLOCK))
                        .unwrap();
                    writes_done[t].fetch_add(1, Ordering::Relaxed);
                    // Read back a slot this thread owns (its own file),
                    // sometimes the one just written, sometimes an older
                    // one — both go through the shared-lock read path.
                    let back = i as u64 % (slot + 1);
                    let got = job.read(client, &path, back * BLOCK, BLOCK).unwrap();
                    assert_eq!(got.len(), BLOCK, "thread {t} op {i}");
                    reads_done[t].fetch_add(1, Ordering::Relaxed);
                }
                // Final content: slot k holds the *last* write to k.
                for slot in 0..WINDOW {
                    let last = (0..OPS).rev().find(|i| *i as u64 % WINDOW == slot);
                    if let Some(i) = last {
                        let got = job.read(client, &path, slot * BLOCK, BLOCK).unwrap();
                        let want = Payload::pattern((t * OPS + i) as u64, BLOCK);
                        assert!(
                            got.content_eq(&want),
                            "thread {t} slot {slot}: stale or corrupt data"
                        );
                    }
                }
                job.close(&path, client, OpenMode::ReadWrite, 1, true)
                    .unwrap();
                job.disconnect(client);
            });
        }
    });

    // (c) Tier accounting invariants. Every thread's live window is
    // WINDOW × BLOCK bytes (overwrites released their predecessors
    // exactly once), and DRAM can never exceed the per-proc caps.
    let usage = job.tier_usage();
    let live: u64 = usage.iter().map(|(_, b)| *b).sum();
    assert_eq!(
        live,
        THREADS as u64 * WINDOW * BLOCK,
        "lost or leaked segments: {usage:?}"
    );
    let dram = usage
        .iter()
        .find(|(t, _)| *t == Tier::Dram)
        .map(|(_, b)| *b)
        .unwrap_or(0);
    assert!(
        dram <= THREADS as u64 * dram_per_proc,
        "DRAM over capacity: {dram}"
    );

    // (d) Aggregate counters equal the sums of per-thread work — a lost
    // update under the old global lock was impossible; it must stay
    // impossible under sharded locks.
    let total_writes: u64 = writes_done.iter().map(|c| c.load(Ordering::Relaxed)).sum();
    let total_reads: u64 = reads_done.iter().map(|c| c.load(Ordering::Relaxed)).sum();
    assert_eq!(total_writes, (THREADS * OPS) as u64);
    let snap = job.metrics();
    let ops = |op| {
        snap.counter("univistor_ops_total", &[("op", op)])
            .unwrap_or(0)
    };
    assert_eq!(ops("open"), THREADS as u64);
    assert_eq!(ops("close"), THREADS as u64);
    // BLOCK == segment_size and every write is grid-aligned, so segments
    // placed == writes issued.
    assert_eq!(snap.counter_total("univistor_segments_total"), total_writes);
    // + WINDOW verification reads per thread after the loop.
    assert_eq!(ops("read"), total_reads + (THREADS as u64 * WINDOW));
    assert_eq!(
        snap.counter_total("univistor_read_bytes_total"),
        (total_reads + THREADS as u64 * WINDOW) * BLOCK
    );
    // Flush-on-close persisted each thread's file; PFS copies verify.
    let flushes = snap.counter_total("univistor_flushes_total");
    assert_eq!(flushes, THREADS as u64);
    for t in 0..THREADS {
        assert_eq!(
            job.lustre_file_size(&format!("/stress/{t}")).unwrap(),
            WINDOW * BLOCK
        );
    }
    assert_eq!(job.connected_count(), 0);
}

#[test]
fn concurrent_readers_of_one_file_do_not_block() {
    // Satellite (b): the read path takes only shared locks, so N readers
    // of the same producer's data proceed concurrently. Run many readers
    // while holding a shared view of the producer's chain — under the old
    // whole-job mutex this deadlocks immediately.
    let job = UniviStorJob::new(UniviStorConfig::test_small(2, 4));
    let producer = ClientId::new(0, 0);
    job.open_file("/shared").write().by(producer).unwrap();
    job.write(producer, "/shared", 0, Payload::pattern(7, 1024))
        .unwrap();

    job.with_shared_read_view(producer, || {
        std::thread::scope(|s| {
            for r in 1..6u32 {
                let job = &job;
                s.spawn(move || {
                    let reader = ClientId::new(0, r);
                    for _ in 0..50 {
                        let got = job.read(reader, "/shared", 0, 1024).unwrap();
                        assert!(got.content_eq(&Payload::pattern(7, 1024)));
                    }
                });
            }
        });
    })
    .unwrap();
}

#[test]
fn concurrent_writers_then_cross_readers() {
    // Threads write disjoint ranges of ONE shared file concurrently (the
    // MPI-legal overlap-free case), then each reads a neighbour's range.
    let job = UniviStorJob::new(UniviStorConfig::test_small(2, 4));
    let ranks = 8u32;
    let per_rank = 512u64;
    job.open_file("/one")
        .write()
        .representing(ranks as usize)
        .by(ClientId::new(0, 0))
        .unwrap();
    std::thread::scope(|s| {
        for r in 0..ranks {
            let job = &job;
            s.spawn(move || {
                let c = ClientId::new(0, r);
                job.write(
                    c,
                    "/one",
                    r as u64 * per_rank,
                    Payload::pattern(r as u64, per_rank),
                )
                .unwrap();
            });
        }
    });
    assert_eq!(job.file_size("/one").unwrap(), ranks as u64 * per_rank);
    std::thread::scope(|s| {
        for r in 0..ranks {
            let job = &job;
            s.spawn(move || {
                let src = (r + 1) % ranks;
                let got = job
                    .read(ClientId::new(0, r), "/one", src as u64 * per_rank, per_rank)
                    .unwrap();
                assert!(
                    got.content_eq(&Payload::pattern(src as u64, per_rank)),
                    "rank {r} read corrupt range of rank {src}"
                );
            });
        }
    });
}

/// Versions of the raced record in the heat race. The burst buffer's
/// active log chunk holds 256 of them without recycling any, so every
/// version has a VA of its own.
const VERSIONS: u64 = if cfg!(debug_assertions) { 60 } else { 200 };

/// A read's heat lands on the record it read: one thread reads a record
/// while another overwrites it under the same key, and a read planned from
/// a version an overwrite already replaced heats nothing. DRAM is full, so
/// every version lands in the same burst-buffer chunk; after the race, the
/// final version's heat — seen through promotion — is exactly the number
/// of reads that returned its bytes.
#[test]
fn reads_racing_overwrites_heat_only_the_record_they_read() {
    const REC: u64 = 256;
    const DRAM: u64 = 64 << 10;
    let mut cfg = UniviStorConfig::test_small(1, 1);
    cfg.chunk_size = DRAM;
    cfg.segment_size = REC;
    cfg.cal.dram_cache_capacity_per_node = DRAM;
    cfg.cal.bb_capacity_per_node = 16 << 20;
    let job = UniviStorJob::new(cfg);
    let c = ClientId::new(0, 0);
    job.open_file("/heat").read_write().by(c).unwrap();
    job.write(c, "/heat", 0, Payload::pattern(u64::MAX, DRAM))
        .unwrap();
    job.write(c, "/heat", DRAM, Payload::pattern(0, REC))
        .unwrap();
    let done = AtomicBool::new(false);
    let seen = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut seen = Vec::new();
            while !done.load(Ordering::Acquire) {
                seen.push(job.read(c, "/heat", DRAM, REC).unwrap());
            }
            // A few reads of the settled final version.
            for _ in 0..4 {
                seen.push(job.read(c, "/heat", DRAM, REC).unwrap());
            }
            seen
        });
        for v in 1..VERSIONS {
            job.write(c, "/heat", DRAM, Payload::pattern(v, REC))
                .unwrap();
        }
        done.store(true, Ordering::Release);
        reader.join().unwrap()
    });
    let last = Payload::pattern(VERSIONS - 1, REC);
    let hits = seen.iter().filter(|p| p.content_eq(&last)).count() as u32;
    println!("{} reads, {hits} of the final version", seen.len());
    // Free DRAM (the rewrite lands on the burst buffer), so the raced
    // record can be promoted.
    job.write(c, "/heat", 0, Payload::pattern(1, DRAM)).unwrap();
    let promote = |min_reads| {
        let policy = PromotionPolicy {
            min_reads,
            min_benefit: 0.0,
        };
        job.tiering().promote_now(policy).unwrap().promoted_segments
    };
    assert_eq!(
        promote(hits + 1),
        0,
        "the final version is hotter than its {hits} reads"
    );
    if hits > 0 {
        assert_eq!(promote(hits), 1, "the final version lost reads");
    }
}
