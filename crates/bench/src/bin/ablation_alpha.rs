//! Ablation: sensitivity of the adaptive-striping flush to α (Eq. 2) and
//! of the metadata service to its server count — the two tunables
//! DESIGN.md calls out beyond the paper's own figures.
//!
//! * α is "the minimum storage unit count that saturates a server's write
//!   bandwidth": too small starves each server of OST parallelism; too
//!   large reintroduces the all-OST synchronization overhead the adaptive
//!   scheme exists to avoid.
//! * Metadata servers: the paper's rejected centralized design is the
//!   1-server point of the sweep.

use univistor_bench::cli::Options;
use univistor_bench::report::{emit_outputs, rate_gbs};
use univistor_bench::systems::{accumulated_metrics, uv_job, uv_micro_write, UvMode};
use univistor_bench::timing::Platform;
use univistor_core::config::Features;
use univistor_core::driver::UniviStorDriver;
use univistor_core::metadata::{ClientId, MetadataService, SegmentRecord};
use univistor_core::va::VirtualAddr;
use univistor_workloads::MicroIo;

fn main() {
    let opts = Options::from_env();

    println!("== Ablation A — flush rate vs. α (Eq. 2), procs sweep ==");
    println!(
        "{:>8} {:>8} {:>16} {:>18}",
        "procs", "alpha", "osts/server", "flush rate (GB/s)"
    );
    let mut scales = vec![64usize, 512, 2048];
    scales.retain(|&p| p <= opts.max_procs.max(64));
    scales.dedup();
    for procs in scales {
        for alpha in [1usize, 2, 4, 8, 16, 32, 64] {
            let platform = Platform::paper(procs);
            let driver = {
                // uv_job builds from the paper config; patch α by rebuilding.
                let job = uv_job(&platform, UvMode::Dram, Features::default());
                let mut cfg = job.cfg().clone();
                cfg.alpha = alpha;
                UniviStorDriver::new(
                    std::sync::Arc::new(univistor_core::server::UniviStorJob::new(cfg)),
                    0,
                )
            };
            let micro = MicroIo::scaled(procs, opts.bytes_per_proc.min(64 << 20));
            let out = uv_micro_write(&platform, &driver, &micro, "/a").expect("run");
            let receipt = out.receipt.expect("flush receipt");
            println!(
                "{:>8} {:>8} {:>16} {:>18.2}",
                procs,
                alpha,
                receipt.osts_per_server,
                rate_gbs(micro.file_size(), out.flush_time)
            );
        }
    }

    println!();
    println!("== Ablation B — metadata load balance vs. server count ==");
    println!(
        "{:>10} {:>12} {:>14} {:>22}",
        "servers", "records", "max/server", "imbalance (max/mean)"
    );
    let records = 100_000u64;
    for servers in [1usize, 4, 16, 64, 256, 1024] {
        let md = MetadataService::new(64 << 20, servers, 8, 64);
        for i in 0..records {
            let offset = i * (8 << 20);
            let rank = (i % 512) as u32;
            let record = SegmentRecord::new(ClientId::new(0, rank), VirtualAddr(i), 8 << 20);
            md.insert_batch(
                1,
                offset,
                offset + record.len,
                &[(offset, record)],
                rank as usize / 64,
            )
            .expect("no injector");
        }
        let sizes = md.shard_sizes();
        let max = *sizes.iter().max().expect("servers > 0");
        let mean = records as f64 / servers as f64;
        println!(
            "{:>10} {:>12} {:>14} {:>22.3}",
            servers,
            records,
            max,
            max as f64 / mean
        );
    }
    println!(
        "\n(1 server = the paper's rejected centralized design: every record \
         and every lookup lands on one host.)"
    );

    if let Some(dir) = &opts.csv_dir {
        emit_outputs(&[], &accumulated_metrics(), dir);
    }
}
