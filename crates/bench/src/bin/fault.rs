//! Fault-tolerance benchmark: what node loss costs the read path, and
//! how fast online repair restores full redundancy.
//!
//! Six clients on three nodes write one replicated file N-to-N style as
//! 512-byte segment records. Three timed phases per round, on the same
//! job: (1) healthy sequential reads; (2) the same reads after node 0's
//! volatile storage is lost — every record produced there reroutes to
//! its buddy replica inside the read plan; (3) `rebuild_degraded()`,
//! which re-reads each surviving copy and re-mirrors it onto a healthy
//! buddy chain. Phase 2 over phase 1 is the degraded-read overhead; the
//! repair phase reports segments/s and bytes/s. A post-repair read pass
//! confirms byte-identity against the written pattern each round.
//!
//! Timing is wall-clock minima over interleaved rounds; the overhead
//! ratio is the median of per-round ratios. Results land in
//! `BENCH_fault.json` so later PRs have a baseline to beat.

use std::time::Instant;
use univistor_bench::cli::Options;
use univistor_bench::report::median;
use univistor_core::config::{JobGeometry, UniviStorConfig};
use univistor_core::metadata::ClientId;
use univistor_core::repair::RepairReport;
use univistor_core::server::UniviStorJob;
use univistor_obs::Json;
use univistor_sim::Payload;

/// Clients (two per node).
const RANKS: usize = 6;
/// 512-byte segments, one record per write call.
const SEGMENT: u64 = 512;
/// Segments per read call.
const SEGMENTS_PER_READ: u64 = 64;
/// The node whose volatile storage is lost mid-round.
const LOST_NODE: usize = 0;

fn config() -> UniviStorConfig {
    let mut cfg = UniviStorConfig::paper(RANKS);
    cfg.geometry = JobGeometry {
        nodes: 3,
        procs_per_node: 2,
        servers_per_node: 2,
    };
    cfg.features.flush_on_close = false;
    // Replication on: without replicas a node loss is data loss, not a
    // degraded mode. Small segments keep the metadata plane on the path.
    cfg.replicate_volatile = true;
    cfg.chunk_size = 16 << 10;
    cfg.segment_size = SEGMENT;
    cfg.metadata_range_size = 32 << 10;
    cfg
}

struct RunStats {
    healthy_s: f64,
    degraded_s: f64,
    repair_s: f64,
    read_calls: u64,
    report: RepairReport,
}

fn run_once(segments: u64, read_passes: u64) -> RunStats {
    let job = UniviStorJob::new(config());
    let clients: Vec<ClientId> = (0..RANKS).map(|r| ClientId::new(0, r as u32)).collect();
    for &c in &clients {
        job.connect(c);
    }
    job.open_file("/fault/f")
        .read_write()
        .representing(RANKS)
        .by(clients[0])
        .unwrap();
    // N-to-N layout: rank r owns the file's r-th contiguous share,
    // written one segment record at a time, each mirrored onto a buddy.
    let per_rank = segments / RANKS as u64;
    for s in 0..segments {
        job.write(
            clients[(s / per_rank) as usize],
            "/fault/f",
            s * SEGMENT,
            Payload::pattern(s, SEGMENT),
        )
        .unwrap();
    }
    let block = SEGMENTS_PER_READ * SEGMENT;
    let blocks = segments / SEGMENTS_PER_READ;
    // The reader lives on node 1 — it survives the loss of node 0.
    let reader = clients[2];
    let scan = |label: &str| {
        let start = Instant::now();
        for i in 0..read_passes * blocks {
            let offset = (i % blocks) * block;
            let got = job.read(reader, "/fault/f", offset, block).unwrap();
            debug_assert!(
                got.slice(0, SEGMENT)
                    .content_eq(&Payload::pattern((i % blocks) * SEGMENTS_PER_READ, SEGMENT)),
                "{label}: corrupt read"
            );
        }
        start.elapsed().as_secs_f64()
    };

    // Warm the nodes' read record caches before timing, so
    // the healthy phase doesn't absorb every cold miss.
    scan("warmup");
    let healthy_s = scan("healthy");
    job.fail_node(LOST_NODE);
    let degraded_s = scan("degraded");

    let repair_start = Instant::now();
    let report = job.rebuild_degraded().unwrap();
    let repair_s = repair_start.elapsed().as_secs_f64();
    assert_eq!(job.degraded_segments(), 0, "repair left degraded records");
    assert!(job.restore_node(LOST_NODE));

    // Post-repair byte-identity: the whole file, against the pattern.
    let whole = job.read(reader, "/fault/f", 0, segments * SEGMENT).unwrap();
    for s in 0..segments {
        assert!(
            whole
                .slice(s * SEGMENT, SEGMENT)
                .content_eq(&Payload::pattern(s, SEGMENT)),
            "segment {s} corrupt after repair"
        );
    }

    RunStats {
        healthy_s,
        degraded_s,
        repair_s,
        read_calls: read_passes * blocks,
        report,
    }
}

fn main() {
    let opts = Options::from_env();
    // --quick shrinks the workload for CI smoke runs.
    let (segments, read_passes) = if opts.max_procs <= 512 {
        (768, 2)
    } else {
        (3_072, 4)
    };

    println!(
        "fault bench: {RANKS} producers on 3 nodes, {segments} replicated \
         {SEGMENT} B segments; healthy vs degraded scans of \
         {SEGMENTS_PER_READ}-segment blocks, then online repair"
    );

    let mut best: Option<RunStats> = None;
    let mut overhead_ratios = Vec::new();
    for _ in 0..5 {
        let r = run_once(segments, read_passes);
        overhead_ratios.push(r.degraded_s / r.healthy_s);
        match &mut best {
            // The repair report is deterministic; keep the first.
            None => best = Some(r),
            Some(b) => {
                b.healthy_s = b.healthy_s.min(r.healthy_s);
                b.degraded_s = b.degraded_s.min(r.degraded_s);
                b.repair_s = b.repair_s.min(r.repair_s);
            }
        }
    }
    let s = best.expect("five rounds");
    let overhead = median(overhead_ratios);

    let healthy_ops = s.read_calls as f64 / s.healthy_s;
    let degraded_ops = s.read_calls as f64 / s.degraded_s;
    let repaired_segments = s.report.repaired_primary + s.report.repaired_replica;
    let repair_seg_per_sec = repaired_segments as f64 / s.repair_s;
    let repair_bytes_per_sec = s.report.repaired_bytes as f64 / s.repair_s;

    println!(
        "   healthy: {:>7} reads in {:.4} s = {healthy_ops:>9.0} ops/sec",
        s.read_calls, s.healthy_s
    );
    println!(
        "  degraded: {:>7} reads in {:.4} s = {degraded_ops:>9.0} ops/sec \
         ({overhead:.2}x read overhead, median of paired rounds)",
        s.read_calls, s.degraded_s
    );
    println!(
        "    repair: {repaired_segments} segments ({} bytes) in {:.4} s = \
         {repair_seg_per_sec:.0} segments/sec, {repair_bytes_per_sec:.0} bytes/sec",
        s.report.repaired_bytes, s.repair_s
    );

    let doc = Json::object([
        ("bench", Json::string("fault")),
        (
            "workload",
            Json::string(
                "6 producers on 3 nodes write one replicated file N-to-N \
                 (contiguous shares of 512 B segment records); sequential \
                 block scans healthy, then with node 0 lost (replica \
                 reroute), then rebuild_degraded() re-mirrors every \
                 affected record and reads verify byte-identity",
            ),
        ),
        ("segments", Json::Number(segments as f64)),
        ("segment_bytes", Json::Number(SEGMENT as f64)),
        ("read_calls", Json::Number(s.read_calls as f64)),
        ("healthy_elapsed_s", Json::Number(s.healthy_s)),
        ("healthy_read_ops_per_sec", Json::Number(healthy_ops)),
        ("degraded_elapsed_s", Json::Number(s.degraded_s)),
        ("degraded_read_ops_per_sec", Json::Number(degraded_ops)),
        ("degraded_read_overhead", Json::Number(overhead)),
        (
            "repair",
            Json::object([
                ("elapsed_s", Json::Number(s.repair_s)),
                (
                    "repaired_primary",
                    Json::Number(s.report.repaired_primary as f64),
                ),
                (
                    "repaired_replica",
                    Json::Number(s.report.repaired_replica as f64),
                ),
                (
                    "repaired_bytes",
                    Json::Number(s.report.repaired_bytes as f64),
                ),
                ("segments_per_sec", Json::Number(repair_seg_per_sec)),
                ("bytes_per_sec", Json::Number(repair_bytes_per_sec)),
                ("lost_records", Json::Number(s.report.lost_records as f64)),
                (
                    "remaining_degraded",
                    Json::Number(s.report.remaining_degraded as f64),
                ),
            ]),
        ),
        (
            "note",
            Json::string(
                "ops/sec is hardware-dependent; the overhead ratio is a \
                 median of back-to-back paired phases on one job; the \
                 repair report is deterministic",
            ),
        ),
    ]);
    let out = "BENCH_fault.json";
    std::fs::write(out, doc.render() + "\n").expect("write BENCH_fault.json");
    println!("wrote {out}");
}
