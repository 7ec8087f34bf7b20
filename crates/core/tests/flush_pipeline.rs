//! The write-overlapped flush (DESIGN.md §15): a foreground writer racing
//! the no-checkout close-time flush under both runtimes. The flush-plane
//! differentials against the record-at-a-time reference engine live with
//! the test oracles (`server::oracle` unit tests).

use std::sync::Arc;
use univistor_core::config::{Runtime, UniviStorConfig};
use univistor_core::flush::FlushReceipt;
use univistor_core::metadata::ClientId;
use univistor_core::server::UniviStorJob;
use univistor_mpi::driver::OpenMode;
use univistor_sim::{Payload, SparseBuffer};

fn client(rank: u32) -> ClientId {
    ClientId::new(0, rank)
}

/// 2 nodes × 2 procs with an explicit 4-worker pool so the partition
/// dimension is exercised even on a single-CPU host. Records are capped
/// at 256 B — a quarter of the adaptive stripe unit the 16 KiB workload
/// below produces — so the flush plane sees many records per stripe unit
/// and the parallel engine's coalescing is measurable.
fn cfg(runtime: Runtime) -> UniviStorConfig {
    let mut cfg = UniviStorConfig::test_small(2, 2);
    cfg.runtime = runtime;
    cfg.partitions = 4;
    cfg.metadata_range_size = 256;
    cfg
}

/// Block-per-rank tiling: each rank writes its contiguous 4 KiB quarter
/// in 256 B calls, yielding 64 distinct 256 B records (the record cap
/// stops the write path from pre-coalescing them). Each server range is
/// one rank's block, so the parallel engine can batch a whole range's
/// gather into one round-trip and coalesce its stripe writes, while the
/// reference engine works record-at-a-time.
fn tile_blocks(j: &UniviStorJob) -> u64 {
    j.open_file("/flush")
        .read_write()
        .representing(4)
        .by(client(0))
        .unwrap();
    for rank in 0..4u32 {
        for i in 0..16u64 {
            let offset = rank as u64 * 4096 + i * 256;
            j.write(
                client(rank),
                "/flush",
                offset,
                Payload::pattern(offset, 256),
            )
            .unwrap();
        }
    }
    16384
}

fn close_flush(j: &UniviStorJob, represents: usize) -> FlushReceipt {
    j.close("/flush", client(0), OpenMode::ReadWrite, represents, true)
        .unwrap()
        .expect("close should flush")
}

/// A foreground writer racing the close-time flush: under the parallel
/// engine the flush takes no core checkout (routed scans/fetches under
/// the partitioned runtime, shared-lock reads under the locked one), so
/// the writes proceed concurrently and the generation fence redoes any
/// invalidated pass. A quiesced reflush must land the final bytes.
#[test]
fn concurrent_writer_races_the_flush_under_both_runtimes() {
    for runtime in [Runtime::Locked, Runtime::Partitioned] {
        let j = Arc::new(UniviStorJob::new(cfg(runtime)));
        let size = tile_blocks(&j);
        let racer = {
            let j = Arc::clone(&j);
            std::thread::spawn(move || {
                for i in 0..16u64 {
                    j.write(client(1), "/flush", 0, Payload::pattern(900 + i, 256))
                        .unwrap();
                }
            })
        };
        let r = close_flush(&j, 4);
        assert_eq!(r.file_size, size, "{runtime:?}");
        racer.join().unwrap();
        // Writers quiesced: a reflush needs no catch-up and lands the
        // deterministic final image (tiling + the racer's last write).
        j.open_file("/flush").read_write().by(client(0)).unwrap();
        let r2 = close_flush(&j, 1);
        assert_eq!(r2.catchup_passes, 0, "{runtime:?}");
        let mut model = SparseBuffer::new();
        for rank in 0..4u64 {
            for i in 0..16u64 {
                let offset = rank * 4096 + i * 256;
                model.write(offset, Payload::pattern(offset, 256));
            }
        }
        model.write(0, Payload::pattern(915, 256));
        let got = j.lustre_read("/flush", 0, size).unwrap();
        assert!(
            got.content_eq(&model.read(0, size)),
            "{runtime:?}: final PFS image diverged"
        );
    }
}
