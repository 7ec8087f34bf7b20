//! The five workloads: which generator runs with which configuration, and
//! what every byte it moves must read back as.
//!
//! All of them are closed loops driven by the unmodified generators of
//! `crates/workloads` in rank-loop mode (one thread, so the op sequence and
//! the program's counters repeat exactly); `insitu_mix` alone runs two such
//! threads, a producer and a consumer.

use crate::timed::{PhaseKind, TimedDriver};
use std::collections::BTreeMap;
use univistor_core::{Features, JobGeometry, Runtime, UniviStorConfig};
use univistor_h5::format::META_REGION_SIZE;
use univistor_mpi::driver::{FileHandle, FsDriver, OpenContext, OpenMode};
use univistor_mpi::Hints;
use univistor_sim::rng::DetRng;
use univistor_sim::{Payload, SimResult};
use univistor_workloads::layout::VPIC_VARS;
use univistor_workloads::{AccessPattern, BdCatsIo, IorConfig, VpicIo, VpicLayout};

/// The benchmark's workloads, by the names `BENCHMARK.json` lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    VpicCkpt,
    BdcatsScan,
    IorSmall,
    /// The one place the benchmark names a runtime: dropping this workload
    /// is the `benchmark` change that precedes retiring a runtime.
    IorSmallPart,
    InsituMix,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::VpicCkpt,
        Workload::BdcatsScan,
        Workload::IorSmall,
        Workload::IorSmallPart,
        Workload::InsituMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::VpicCkpt => "vpic_ckpt",
            Workload::BdcatsScan => "bdcats_scan",
            Workload::IorSmall => "ior_small",
            Workload::IorSmallPart => "ior_small_part",
            Workload::InsituMix => "insitu_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Two generator threads (producer and consumer) instead of one.
    pub fn coupled(self) -> bool {
        self == Workload::InsituMix
    }

    /// The job's counters must come out bit-identical rep after rep: one
    /// generator thread and a data path whose counts do not depend on
    /// timing. The partitioned runtime's workers batch whatever is queued
    /// when they wake, so its batch counts move with the scheduler.
    pub fn counts_must_repeat(self) -> bool {
        matches!(
            self,
            Workload::VpicCkpt | Workload::BdcatsScan | Workload::IorSmall
        )
    }

    /// The run is confined to one CPU. The partitioned runtime's calls are
    /// round trips between threads, and on a virtual machine the cost of
    /// waking a thread on another, halted CPU is set by the hypervisor's
    /// state of the moment: identical reps of `ior_small_part` ran at 7 000
    /// to 20 000 ops/s on two CPUs and at 22 000 to 25 000 on one. On one
    /// CPU the runtime sizes itself to one worker and never spins, so what
    /// is left is its own cost: messages, batching, context switches.
    pub fn pinned(self) -> bool {
        self == Workload::IorSmallPart
    }

    fn ior(self) -> bool {
        matches!(self, Workload::IorSmall | Workload::IorSmallPart)
    }
}

/// A configuration the traced run measures beside the workload's own, to
/// attribute wall time to a layer by switching that layer off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Base,
    /// `integrity.checksums = false`.
    NoChecksums,
    /// `features.flush_on_close = false`.
    NoFlush,
    /// `ior_small_part` on the locked runtime, i.e. `ior_small`.
    Locked,
}

const VPIC_RANKS: usize = 64;
const VPIC_STEPS: usize = 4;
const VPIC_PARTICLES: u64 = 1 << 20;
const BDCATS_READERS: usize = 32;
const IOR_READ_SWEEPS: usize = 4;

/// One workload with its seed-derived inputs and expected file images.
pub struct Shape {
    pub workload: Workload,
    vpic: VpicIo,
    bdcats: BdCatsIo,
    ior: IorConfig,
    /// First VPIC step number; steps name the files and seed the payloads.
    step_base: usize,
    ior_path: String,
    /// The overwrite phase's transfer order: indices into the sequential
    /// `(segment, rank, transfer)` enumeration, shuffled by the seed.
    overwrite_order: Vec<u32>,
    /// Expected content of every file the workload touches.
    images: BTreeMap<String, Payload>,
}

/// The seeded order in which the overwrite phase revisits `n` transfers.
pub fn overwrite_order(seed: u64, n: usize) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    DetRng::seed(seed ^ 0x0f0f_5eed_0f0f_5eed).shuffle(&mut order);
    order
}

impl Shape {
    pub fn new(workload: Workload, seed: u64) -> Shape {
        let vpic = VpicIo::scaled(VPIC_RANKS, VPIC_STEPS, VPIC_PARTICLES);
        let ior = IorConfig::new(16, 64 << 10, 4 << 10, 64, AccessPattern::Strided);
        // Step numbers feed a 16-bit field of the slab seed and a 4-digit
        // file name: keep `base + steps` below both limits.
        let step_base = (seed % 2000) as usize * VPIC_STEPS;
        let ior_path = format!("/ior/seed{seed}.dat");
        let transfers = (ior.block_size / ior.transfer_size) as usize * ior.procs * ior.segments;

        let mut images = BTreeMap::new();
        if workload.ior() {
            images.insert(ior_path.clone(), ior_image(&ior));
        } else {
            for step in step_base..step_base + VPIC_STEPS {
                images.insert(VpicLayout::file_path(step), vpic_image(&vpic.layout, step));
            }
        }
        Shape {
            workload,
            vpic,
            bdcats: BdCatsIo::new(vpic.layout, BDCATS_READERS),
            ior,
            step_base,
            ior_path,
            overwrite_order: overwrite_order(seed, transfers),
            images,
        }
    }

    /// The UniviStor configuration the workload runs on.
    pub fn config(&self, variant: Variant) -> UniviStorConfig {
        let mut cfg = if self.workload.ior() {
            // Op-bound: 4 KiB transfers, default 8 MiB segments.
            let mut cfg = UniviStorConfig::paper(self.ior.procs);
            cfg.geometry = JobGeometry {
                nodes: 2,
                procs_per_node: 8,
                servers_per_node: 2,
            };
            cfg
        } else {
            // The paper's 64-process geometry at 1/8 byte scale: steps
            // 0-1 fit the DRAM layer, steps 2-3 spill to the burst buffer.
            let mut cfg = UniviStorConfig::paper(VPIC_RANKS);
            cfg.segment_size = 1 << 20;
            cfg.chunk_size = 1 << 20;
            cfg.metadata_range_size = 8 << 20;
            cfg.cal.dram_cache_capacity_per_node = 2560 << 20;
            cfg
        };
        if self.workload == Workload::InsituMix {
            cfg.features = Features::all();
        }
        if self.workload == Workload::IorSmallPart {
            cfg.runtime = Runtime::Partitioned;
        }
        match variant {
            Variant::Base => {}
            Variant::NoChecksums => cfg.integrity.checksums = false,
            Variant::NoFlush => cfg.features.flush_on_close = false,
            Variant::Locked => cfg.runtime = Runtime::Locked,
        }
        cfg
    }

    /// Variants the traced run measures for this workload.
    pub fn variants(&self) -> Vec<Variant> {
        let mut v = vec![Variant::NoChecksums, Variant::NoFlush];
        if self.workload == Workload::IorSmallPart {
            v.push(Variant::Locked);
        }
        v
    }

    /// The timed body ends files with flushing closes.
    pub fn flushes(&self) -> bool {
        self.workload != Workload::BdcatsScan
    }

    /// Untimed part of set-up: the files the timed part reads.
    pub fn preload(&self, d: &dyn FsDriver) -> SimResult<()> {
        if self.workload == Workload::BdcatsScan {
            for step in self.steps() {
                self.vpic.write_step(d, step)?;
            }
        }
        Ok(())
    }

    fn steps(&self) -> std::ops::Range<usize> {
        self.step_base..self.step_base + VPIC_STEPS
    }

    /// The timed body (for `insitu_mix`, the producer thread's half).
    pub fn producer<D: FsDriver>(&self, d: &TimedDriver<D>) -> SimResult<()> {
        match self.workload {
            Workload::VpicCkpt | Workload::InsituMix => {
                for (i, step) in self.steps().enumerate() {
                    d.phase(PhaseKind::Write, format!("write_step{i}"));
                    self.vpic.write_step(d, step)?;
                }
                Ok(())
            }
            Workload::BdcatsScan => self.consumer(d),
            Workload::IorSmall | Workload::IorSmallPart => {
                d.phase(PhaseKind::Write, "write");
                self.ior.write_phase(d, &self.ior_path)?;
                d.phase(PhaseKind::Overwrite, "overwrite");
                self.ior_overwrite(d)?;
                for sweep in 0..IOR_READ_SWEEPS {
                    d.phase(PhaseKind::Read, format!("read_sweep{sweep}"));
                    self.ior.read_phase(d, &self.ior_path, false)?;
                }
                Ok(())
            }
        }
    }

    /// The BD-CATS reader: the timed body of `bdcats_scan` and the
    /// consumer thread of `insitu_mix`.
    pub fn consumer<D: FsDriver>(&self, d: &TimedDriver<D>) -> SimResult<()> {
        for (i, step) in self.steps().enumerate() {
            d.phase(PhaseKind::Read, format!("read_step{i}"));
            self.bdcats.read_step(d, step, false)?;
        }
        Ok(())
    }

    /// Every transfer of the write phase once more, in the seeded order.
    /// The generator has no overwrite mode, so this loop is the
    /// benchmark's own, over the generator's offsets and payloads.
    fn ior_overwrite(&self, d: &dyn FsDriver) -> SimResult<()> {
        let ior = &self.ior;
        let handles: Vec<FileHandle> = (0..ior.procs)
            .map(|rank| {
                d.open(&OpenContext {
                    path: self.ior_path.clone(),
                    mode: OpenMode::Write,
                    rank,
                    nprocs: ior.procs,
                    hints: Hints::new(),
                })
            })
            .collect::<SimResult<_>>()?;
        let per_block = (ior.block_size / ior.transfer_size) as usize;
        for &i in &self.overwrite_order {
            let (block, transfer) = (i as usize / per_block, i as usize % per_block);
            let (segment, rank) = (block / ior.procs, block % ior.procs);
            let within = transfer as u64 * ior.transfer_size;
            d.write_at(
                &handles[rank],
                rank,
                ior.block_offset(rank, segment) + within,
                ior.block_payload(rank, segment)
                    .slice(within, ior.transfer_size),
            )?;
        }
        for (rank, h) in handles.iter().enumerate() {
            d.close(h, rank)?;
        }
        Ok(())
    }

    /// Expected bytes of `[offset, offset + len)` of `path`.
    pub fn expected(&self, path: &str, offset: u64, len: u64) -> Payload {
        match self.images.get(path) {
            Some(image) if offset + len <= image.len() => image.slice(offset, len),
            // Nothing is ever read there: make any result a mismatch.
            _ => Payload::empty(),
        }
    }

    /// Size the durable copy of `path` must have after a flushing close.
    pub fn image_len(&self, path: &str) -> Option<u64> {
        self.images.get(path).map(Payload::len)
    }

    /// Paths of the files the workload writes or reads, in order.
    pub fn paths(&self) -> Vec<String> {
        self.images.keys().cloned().collect()
    }
}

/// A VPIC step file: metadata region, then each variable's slabs by rank.
fn vpic_image(layout: &VpicLayout, step: usize) -> Payload {
    let sb = layout
        .superblock_for_step(step)
        .to_bytes()
        .expect("the generator writes the same superblock");
    let pad = META_REGION_SIZE - sb.len() as u64;
    let mut parts = vec![Payload::from_bytes(sb), Payload::zeros(pad)];
    for var in 0..VPIC_VARS.len() {
        for rank in 0..layout.procs {
            parts.push(layout.slab_payload(step, var, rank));
        }
    }
    Payload::chain(parts)
}

/// The IOR file: strided blocks, segment-major.
fn ior_image(ior: &IorConfig) -> Payload {
    let mut blocks: Vec<(u64, Payload)> = (0..ior.segments)
        .flat_map(|s| (0..ior.procs).map(move |r| (s, r)))
        .map(|(s, r)| (ior.block_offset(r, s), ior.block_payload(r, s)))
        .collect();
    blocks.sort_by_key(|b| b.0);
    Payload::chain(blocks.into_iter().map(|b| b.1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;
    use univistor_mpi::MemDriver;

    #[test]
    fn shuffle_is_a_permutation_and_seeded() {
        let a = overwrite_order(1, 1000);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<u32>>());
        assert_eq!(a, overwrite_order(1, 1000), "same seed, same order");
        assert_ne!(a, overwrite_order(2, 1000), "seeds 1 and 2 differ");
        assert_ne!(a, sorted, "and it is not the identity");
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn seed_moves_file_names_and_payloads() {
        let a = Shape::new(Workload::VpicCkpt, 1);
        let b = Shape::new(Workload::VpicCkpt, 2);
        assert_ne!(a.paths(), b.paths());
        assert_eq!(a.paths().len(), VPIC_STEPS);
        let p = &a.paths()[0];
        assert_eq!(a.image_len(p), Some(a.vpic.layout.file_size()));
        assert!(b.image_len(p).is_none());
    }

    /// The expected images agree with what the generators write, checked
    /// on the in-memory driver (which stores what it is given).
    #[test]
    fn images_match_the_generators() {
        for w in [Workload::BdcatsScan, Workload::IorSmall] {
            let shape = Shape::new(w, 3);
            let d = TimedDriver::new(MemDriver::new(), Instant::now(), false, None);
            d.phase(PhaseKind::Write, "preload");
            shape.preload(&d).unwrap();
            shape.producer(&d).unwrap();
            for path in shape.paths() {
                let h = d
                    .open(&OpenContext {
                        path: path.clone(),
                        mode: OpenMode::Read,
                        rank: 0,
                        nprocs: 1,
                        hints: Hints::new(),
                    })
                    .unwrap();
                let len = shape.image_len(&path).unwrap();
                assert_eq!(d.file_size(&h).unwrap(), len);
                for (off, n) in [(0, 4096), (len / 2 - 100, 70_000), (len - 512, 512)] {
                    let got = d.read_at(&h, 0, off, n).unwrap();
                    assert_eq!(
                        got.content_checksum(),
                        shape.expected(&path, off, n).content_checksum(),
                        "{path} [{off}, +{n})"
                    );
                }
            }
            let (_, log) = d.finish();
            assert_eq!(log.failed, 0);
        }
    }
}
