//! Background-tiering benchmark: what the continuous drain buys a
//! checkpoint-style write stream under tier pressure.
//!
//! Four clients on two nodes run the [`TierPressure`] stream — every
//! round appends a fresh region of 4 KiB records, with the DRAM and BB
//! calibrations sized far below the stream so the fast tiers sit above
//! their watermarks throughout. Rounds are separated by a short emulated
//! compute phase (the same idea as the VPIC benches' `--compute-gap`):
//! checkpoint streams come from applications that compute between
//! checkpoints, and that slack is precisely what the background drain
//! overlaps with. Two systems, identical workload:
//!
//! * **close-flush baseline** — tiering disabled; all PFS work happens
//!   in the close-time flush after the last round;
//! * **tiering** — the [`TieringDaemon`] actors spill over-watermark
//!   tiers and continuously drain cold spans to Lustre while the rounds
//!   are still writing, so the close is a catch-up over the spans the
//!   ledger could not cover.
//!
//! The headline metric is application-visible I/O time: the write calls
//! plus the close, excluding the emulated compute (which both systems
//! spend identically — the daemon just happens to work during it).
//! Timing is wall-clock minima over interleaved rounds; the speedup is
//! the median of per-round pairs. Byte-identity of the flushed file is
//! asserted every round via `verify_flush`. Results land in
//! `BENCH_tiering.json`.

use std::sync::Arc;
use std::time::{Duration, Instant};
use univistor_bench::cli::Options;
use univistor_bench::report::median;
use univistor_core::config::{JobGeometry, TieringConfig, UniviStorConfig};
use univistor_core::driver::UniviStorDriver;
use univistor_core::metadata::ClientId;
use univistor_core::server::UniviStorJob;
use univistor_core::tiering::{TieringDaemon, TieringStats};
use univistor_mpi::driver::OpenMode;
use univistor_obs::Json;
use univistor_workloads::TierPressure;

/// Clients (two per node).
const RANKS: usize = 4;
/// One record per write call.
const RECORD: u64 = 4 << 10;
/// Records per rank per round.
const SLOTS: u64 = 16;
/// Shared file under test.
const PATH: &str = "/tiering/stream";
/// Emulated compute between checkpoint rounds — the slack a real
/// application leaves between checkpoints, which the daemon drains
/// into. Spent identically by both systems and excluded from timing.
const COMPUTE_GAP: Duration = Duration::from_millis(2);

fn config(tiered: bool) -> UniviStorConfig {
    let mut cfg = UniviStorConfig::paper(RANKS);
    cfg.geometry = JobGeometry {
        nodes: 2,
        procs_per_node: 2,
        servers_per_node: 2,
    };
    cfg.chunk_size = RECORD;
    cfg.segment_size = RECORD;
    cfg.metadata_range_size = 64 << 10;
    // Fast tiers far below the stream: one round (256 KiB) already
    // exceeds both, so the watermarks stay crossed for the whole run.
    cfg.cal.dram_cache_capacity_per_node = 64 << 10;
    cfg.cal.bb_capacity_per_node = 128 << 10;
    cfg.cal.bb_nodes_min = 1;
    cfg.cal.bb_nodes_per_compute_node = 0.5;
    if tiered {
        cfg.tiering = TieringConfig::on();
        // Actors only: keep the drain cadence off the write path so the
        // comparison isolates the background overlap.
        cfg.tiering.drain_cadence_ops = 0;
        cfg.tiering.daemon_interval_ms = 1;
        cfg.tiering.drain_batch = 512;
        cfg.tiering.spill_batch = 16;
    }
    cfg
}

struct RunStats {
    write_s: f64,
    close_s: f64,
    catchup_bytes: u64,
    tiering: TieringStats,
}

fn run_once(w: &TierPressure, tiered: bool) -> RunStats {
    let job = Arc::new(UniviStorJob::new(config(tiered)));
    let driver = UniviStorDriver::new(Arc::clone(&job), 0);
    let daemon = TieringDaemon::spawn(Arc::clone(&job));
    let handles = w.open_all(&driver, PATH, OpenMode::Write).unwrap();

    let mut write_s = 0.0;
    for round in 0..w.rounds {
        let start = Instant::now();
        w.write_round(&driver, &handles, round).unwrap();
        write_s += start.elapsed().as_secs_f64();
        std::thread::sleep(COMPUTE_GAP);
    }

    let start = Instant::now();
    w.close_all(&driver, &handles).unwrap();
    let close_s = start.elapsed().as_secs_f64();
    daemon.shutdown();

    let receipt = job.take_last_flush_receipt().expect("last close flushed");
    assert_eq!(receipt.file_size, w.file_size());
    assert!(
        job.verify_flush(ClientId::new(0, 0), PATH).unwrap(),
        "flushed bytes diverge from the cached stream"
    );
    RunStats {
        write_s,
        close_s,
        catchup_bytes: receipt.drained_ahead_bytes,
        tiering: job.tiering().stats(),
    }
}

fn main() {
    let opts = Options::from_env();
    // --quick shrinks the stream for CI smoke runs.
    let rounds = if opts.max_procs <= 512 { 8 } else { 64 };
    let w = TierPressure {
        procs: RANKS,
        slots_per_proc: SLOTS,
        record: RECORD,
        rounds,
    };
    let bytes = w.file_size();
    println!(
        "tiering bench: {RANKS} ranks stream {rounds} rounds x {} KiB \
         ({} KiB total) under tier pressure, {:?} emulated compute per \
         round; close-flush baseline vs background drain + catch-up close",
        w.round_bytes() >> 10,
        bytes >> 10,
        COMPUTE_GAP
    );

    let mut base: Option<RunStats> = None;
    let mut tier: Option<RunStats> = None;
    let mut speedups = Vec::new();
    // One untimed warmup pair absorbs allocator and thread-spawn
    // cold-start costs before the paired rounds.
    run_once(&w, false);
    run_once(&w, true);
    for _ in 0..5 {
        let b = run_once(&w, false);
        let t = run_once(&w, true);
        speedups.push((b.write_s + b.close_s) / (t.write_s + t.close_s));
        let keep = |best: &mut Option<RunStats>, r: RunStats| match best {
            None => *best = Some(r),
            Some(s) => {
                s.write_s = s.write_s.min(r.write_s);
                s.close_s = s.close_s.min(r.close_s);
                // Keep the richest tiering evidence across rounds.
                if r.catchup_bytes > s.catchup_bytes {
                    s.catchup_bytes = r.catchup_bytes;
                    s.tiering = r.tiering;
                }
            }
        };
        keep(&mut base, b);
        keep(&mut tier, t);
    }
    let (b, t) = (base.expect("five rounds"), tier.expect("five rounds"));
    let speedup = median(speedups);

    let mb = bytes as f64 / (1 << 20) as f64;
    let base_bw = mb / (b.write_s + b.close_s);
    let tier_bw = mb / (t.write_s + t.close_s);
    println!(
        "  baseline: write {:.4} s + close {:.4} s = {base_bw:>7.1} MiB/s app-visible",
        b.write_s, b.close_s
    );
    println!(
        "   tiering: write {:.4} s + close {:.4} s = {tier_bw:>7.1} MiB/s app-visible \
         ({speedup:.2}x, median of paired rounds)",
        t.write_s, t.close_s
    );
    println!(
        "   daemon: {} segments spilled, {} KiB drained ahead, \
         {} KiB skipped by the catch-up close",
        t.tiering.spilled_segments,
        t.tiering.drained_bytes >> 10,
        t.catchup_bytes >> 10
    );

    let doc = Json::object([
        ("bench", Json::string("tiering")),
        (
            "workload",
            Json::string(
                "4 ranks on 2 nodes append checkpoint rounds of 4 KiB \
                 records into one shared file, with emulated compute \
                 between rounds; DRAM/BB calibrations sit far below the \
                 stream so the watermarks stay crossed; baseline flushes \
                 everything at close, tiering drains cold spans during \
                 the compute gaps and closes as a catch-up",
            ),
        ),
        ("rounds", Json::Number(rounds as f64)),
        ("compute_gap_s", Json::Number(COMPUTE_GAP.as_secs_f64())),
        ("stream_bytes", Json::Number(bytes as f64)),
        ("baseline_write_s", Json::Number(b.write_s)),
        ("baseline_close_s", Json::Number(b.close_s)),
        ("baseline_mib_per_s_to_durable", Json::Number(base_bw)),
        ("tiering_write_s", Json::Number(t.write_s)),
        ("tiering_close_s", Json::Number(t.close_s)),
        ("tiering_mib_per_s_to_durable", Json::Number(tier_bw)),
        ("speedup_to_durable", Json::Number(speedup)),
        (
            "spilled_segments",
            Json::Number(t.tiering.spilled_segments as f64),
        ),
        (
            "drained_bytes",
            Json::Number(t.tiering.drained_bytes as f64),
        ),
        (
            "catchup_skipped_bytes",
            Json::Number(t.catchup_bytes as f64),
        ),
        (
            "note",
            Json::string(
                "timings cover the write calls and the close only — the \
                 per-round compute gap is spent identically by both \
                 systems and excluded; MiB/s is hardware-dependent; the \
                 speedup is a median of back-to-back paired runs; \
                 byte-identity of the flushed file is asserted every \
                 round",
            ),
        ),
    ]);
    let out = "BENCH_tiering.json";
    std::fs::write(out, doc.render() + "\n").expect("write BENCH_tiering.json");
    println!("wrote {out}");
}
