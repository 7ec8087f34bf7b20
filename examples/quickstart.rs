//! Quickstart: write a shared file through UniviStor's unified mount,
//! read it back from another rank, close (triggering the server-side
//! flush), and verify the bytes on the simulated Lustre.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;
use univistor::mpi::{Hints, MpiFile, World};
use univistor::prelude::*;

fn main() {
    // A small job: 2 compute nodes, 4 client processes per node, and the
    // default feature set (IA + COC + ADPT + location-aware reads).
    let procs = 8;
    let cfg = UniviStorConfig::paper(procs);
    println!(
        "Launching UniviStor: {} nodes × {} procs, {} servers, tiers DRAM→BB→PFS",
        cfg.geometry.nodes,
        cfg.geometry.procs_per_node,
        cfg.geometry.total_servers()
    );
    let job = Arc::new(UniviStorJob::new(cfg));
    let driver = UniviStorDriver::new(Arc::clone(&job), 0);

    // The application below is plain MPI-IO — it never names UniviStor
    // except through the driver selection, exactly like setting
    // ROMIO_FSTYPE_FORCE=UniviStor in the paper.
    let block = 1u64 << 20; // 1 MiB per rank
    World::run(procs, |comm| {
        let f = MpiFile::open(
            &comm,
            &driver,
            "/unified/data.bin",
            OpenMode::ReadWrite,
            Hints::new(),
        )
        .expect("collective open");
        let rank = comm.rank() as u64;

        // Every rank writes its own 1 MiB block of the shared file.
        f.write_at_all(rank * block, Payload::pattern(rank, block))
            .expect("write");

        // Cross-rank read: rank r reads rank r+1's block — served from
        // whichever tier DHP placed it on, without touching the PFS.
        let next = (rank + 1) % procs as u64;
        let got = f.read_at_all(next * block, block).expect("read");
        assert!(
            got.content_eq(&Payload::pattern(next, block)),
            "rank {rank} read corrupt data"
        );

        // Collective close: the servers flush the file to Lustre
        // asynchronously while the app would keep computing.
        f.close().expect("close");
    });

    // Where did the data live before the flush?
    for (tier, bytes) in job.tier_usage() {
        if tier != Tier::Pfs || bytes > 0 {
            println!("cached on {tier}: {} KiB", bytes / 1024);
        }
    }

    // And it is durably on the PFS now, byte-identical.
    let on_pfs = job
        .lustre_file_size("/unified/data.bin")
        .expect("flushed file exists");
    assert_eq!(on_pfs, block * procs as u64);
    for rank in 0..procs as u64 {
        let got = job
            .lustre_read("/unified/data.bin", rank * block, block)
            .expect("read from Lustre");
        assert!(got.content_eq(&Payload::pattern(rank, block)));
    }
    println!(
        "flushed {} MiB to Lustre — verified byte-identical ✓",
        on_pfs >> 20
    );

    // The telemetry panel is the job's accounting: every hot path is
    // instrumented, and families are read by name (Prometheus-style).
    let metrics = job.metrics();
    println!(
        "stats: {} open/close RPCs (COC on), {} flush(es)",
        metrics
            .counter("univistor_md_rpcs_total", &[("op", "open_close")])
            .unwrap_or(0),
        metrics.counter_total("univistor_flushes_total"),
    );
    println!(
        "telemetry: {} segments placed, {} B read via local hits, {} spill events below DRAM",
        metrics.counter_total("univistor_segments_total"),
        metrics
            .counter("univistor_read_bytes_total", &[("path", "local_hit")])
            .unwrap_or(0),
        metrics.counter_total("univistor_tier_spill_events_total"),
    );
    println!("metrics JSON: {} bytes", metrics.to_json().len());
}
