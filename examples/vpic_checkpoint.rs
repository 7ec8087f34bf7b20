//! VPIC-IO checkpointing: a scaled-down version of the paper's §III-C
//! experiment. A plasma-simulation I/O kernel checkpoints multiple time
//! steps through UniviStor; the DRAM tier fills up and DHP spills the
//! overflow to the burst buffer, while the servers flush each closed file
//! to Lustre in the background.
//!
//! Run with: `cargo run --example vpic_checkpoint`

use std::sync::Arc;
use univistor::prelude::*;
use univistor::workloads::{BdCatsIo, VpicIo, VpicLayout};

fn main() {
    let procs = 16;
    let steps = 6;

    // Shrink the DRAM tier so the spill happens within a tiny run: each
    // node caches only ~3 steps' worth of checkpoints.
    let mut cfg = UniviStorConfig::paper(procs);
    cfg.chunk_size = 64 << 10;
    cfg.segment_size = 64 << 10;
    cfg.metadata_range_size = 1 << 20;
    let particles_per_proc = 16 << 10; // 64 KiB/variable → 512 KiB/step/proc
    let per_node_step_bytes = cfg.geometry.procs_per_node as u64 * particles_per_proc * 32;
    cfg.cal.dram_cache_capacity_per_node = 3 * per_node_step_bytes;

    let job = Arc::new(UniviStorJob::new(cfg));
    let driver = UniviStorDriver::new(Arc::clone(&job), 0);
    let vpic = VpicIo::scaled(procs, steps, particles_per_proc);

    println!(
        "VPIC-IO: {procs} ranks × {steps} steps × {} KiB/rank/step",
        vpic.layout.bytes_per_proc() >> 10
    );

    for step in 0..steps {
        vpic.write_step(&driver, step).expect("checkpoint");
        let usage = job.tier_usage();
        let fmt: Vec<String> = usage
            .iter()
            .map(|(t, b)| format!("{t}: {} KiB", b >> 10))
            .collect();
        println!("after step {step}: cached [{}]", fmt.join(", "));
    }

    // Every step file was flushed at close; verify one end to end.
    let path = VpicLayout::file_path(steps - 1);
    let flushed = job.lustre_file_size(&path).expect("flushed");
    println!("last step file on Lustre: {} KiB", flushed >> 10);

    // The analysis kernel reads everything back — half as many readers as
    // writers, each covering two producers' slabs per variable — and
    // verifies every byte against the simulation's deterministic output.
    let bdcats = BdCatsIo::new(vpic.layout, procs / 2);
    bdcats
        .read_all(&driver, steps, /* verify = */ true)
        .expect("analysis read");
    println!("BD-CATS-IO verified all {steps} steps ✓");

    let metrics = job.metrics();
    let read_kib = |path| {
        metrics
            .counter("univistor_read_bytes_total", &[("path", path)])
            .unwrap_or(0)
            >> 10
    };
    println!(
        "reads served: {} KiB node-local, {} KiB from the BB, {} KiB remote",
        read_kib("local_hit"),
        read_kib("bb_direct"),
        read_kib("remote_hop"),
    );
    let receipts = job.take_flush_receipts();
    let last = receipts.last().expect("flushes happened");
    println!(
        "last flush: {} KiB over {} servers, {:?} striping, {} OSTs/server",
        last.file_size >> 10,
        last.per_server_bytes.iter().filter(|b| **b > 0).count(),
        last.plan.case,
        last.osts_per_server,
    );
}
