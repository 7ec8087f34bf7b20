//! Leaf probes: the public functions of the layers below the server core,
//! called with the workload's own inputs and timed one by one.
//!
//! [`ProbeDriver`] is an ADIO driver made of nothing but those leaves. The
//! generator runs through it exactly as it runs through UniviStor, and each
//! write becomes checksum → `ProcChain::append` per segment-grid piece →
//! `DistKv::put_batch`, each read `DistKv::range_scan_bounded` →
//! `ProcChain::read` per fragment → checksum. What a UniviStor call costs
//! beyond the sum of its leaves (planning, routing, locks, caches,
//! accounting) is the residual the benchmark reports, not hides.

use crate::shapes::Shape;
use crate::stats::{median, ratio};
use std::collections::hash_map::{Entry, HashMap};
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;
use univistor_core::placement::{paper_layer_caps, ProcChain};
use univistor_core::striping::adaptive_plan;
use univistor_core::{ClientId, SegKey, SegmentRecord, UniviStorConfig};
use univistor_kv::DistKv;
use univistor_mpi::driver::{FileHandle, FsDriver, OpenContext};
use univistor_pfs::Lustre;
use univistor_sim::{Payload, SimError, SimResult};

/// Wall time spent in each leaf, with the work it did.
#[derive(Debug, Default, Clone)]
pub struct LeafTimes {
    pub checksum_write_ns: f64,
    pub checksum_write_bytes: u64,
    pub checksum_read_ns: f64,
    pub checksum_read_bytes: u64,
    pub append_ns: f64,
    pub pieces: u64,
    pub chain_read_ns: f64,
    pub fragments: u64,
    pub put_ns: f64,
    pub keys: u64,
    pub scan_ns: f64,
    pub lookups: u64,
    /// Sum of the leaves of each write call, in µs.
    pub per_write_us: Vec<f64>,
    /// Per read call, in µs: the metadata scan, and fetch + verify.
    pub per_read_scan_us: Vec<f64>,
    pub per_read_fetch_us: Vec<f64>,
    /// Largest shard of the probe's KV over the mean shard.
    pub shard_imbalance: f64,
}

impl LeafTimes {
    pub fn checksum_gib_per_s(&self) -> f64 {
        let (ns, bytes) = if self.checksum_write_bytes > 0 {
            (self.checksum_write_ns, self.checksum_write_bytes)
        } else {
            (self.checksum_read_ns, self.checksum_read_bytes)
        };
        ratio(bytes as f64 / (1u64 << 30) as f64, ns / 1e9)
    }

    pub fn write_leaves_p50_us(&self) -> f64 {
        median(&self.per_write_us)
    }

    /// Median leaf time of a read, with or without its metadata scan (a
    /// read served from the record cache does none).
    pub fn read_leaves_p50_us(&self, with_scan: bool) -> f64 {
        let per_read: Vec<f64> = self
            .per_read_fetch_us
            .iter()
            .zip(&self.per_read_scan_us)
            .map(|(fetch, scan)| fetch + if with_scan { *scan } else { 0.0 })
            .collect();
        median(&per_read)
    }
}

struct State {
    times: LeafTimes,
    recording: bool,
    fids: HashMap<String, u64>,
    chains: HashMap<u32, ProcChain>,
}

/// The leaves-only driver. See the module docs.
pub struct ProbeDriver {
    cfg: UniviStorConfig,
    kv: DistKv<SegKey, SegmentRecord>,
    /// Cost of one `Instant::now()` pair, taken off every timed interval.
    timer_ns: f64,
    state: Mutex<State>,
}

fn timer_overhead_ns() -> f64 {
    let rounds = 10_000;
    let t = Instant::now();
    for _ in 0..rounds {
        black_box(Instant::now());
    }
    t.elapsed().as_nanos() as f64 / rounds as f64
}

impl ProbeDriver {
    pub fn new(cfg: UniviStorConfig) -> Self {
        let kv = DistKv::new(cfg.metadata_range_size, cfg.geometry.total_servers());
        ProbeDriver {
            cfg,
            kv,
            timer_ns: timer_overhead_ns(),
            state: Mutex::new(State {
                times: LeafTimes::default(),
                recording: false,
                fids: HashMap::new(),
                chains: HashMap::new(),
            }),
        }
    }

    /// Start attributing time (set-up writes before this are replayed but
    /// not counted).
    pub fn start_recording(&self) {
        self.state.lock().expect("probe poisoned").recording = true;
    }

    pub fn finish(self) -> LeafTimes {
        let mut times = self.state.into_inner().expect("probe poisoned").times;
        let sizes = self.kv.shard_sizes();
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        times.shard_imbalance = ratio(sizes.iter().copied().max().unwrap_or(0) as f64, mean);
        times
    }

    /// Run `f`, returning its result and its wall time in ns net of the
    /// timer's own cost.
    fn timed<R>(&self, f: impl FnOnce() -> R) -> (R, f64) {
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos() as f64;
        (r, (ns - self.timer_ns).max(0.0))
    }

    fn new_chain(&self) -> SimResult<ProcChain> {
        let g = self.cfg.geometry;
        let bb_total =
            self.cfg.cal.bb_nodes_for_job(g.nodes) as u64 * self.cfg.cal.bb_capacity_per_node;
        ProcChain::new(
            paper_layer_caps(
                self.cfg.cal.dram_cache_capacity_per_node,
                g.procs_per_node,
                bb_total,
                g.total_procs(),
            ),
            self.cfg.chunk_size,
        )
    }

    fn fid_of(&self, st: &State, h: &FileHandle) -> SimResult<u64> {
        st.fids
            .get(&h.path)
            .copied()
            .ok_or_else(|| SimError::InvalidConfig(format!("stale handle for '{}'", h.path)))
    }
}

impl FsDriver for ProbeDriver {
    fn name(&self) -> &'static str {
        "leaf-probe"
    }

    fn open(&self, ctx: &OpenContext) -> SimResult<FileHandle> {
        let mut st = self.state.lock().expect("probe poisoned");
        let next = st.fids.len() as u64 + 1;
        let fid = *st.fids.entry(ctx.path.clone()).or_insert(next);
        Ok(FileHandle {
            fid,
            path: ctx.path.clone(),
            mode: ctx.mode,
            nprocs: ctx.nprocs,
        })
    }

    fn write_at(&self, h: &FileHandle, rank: usize, offset: u64, data: Payload) -> SimResult<()> {
        let mut st = self.state.lock().expect("probe poisoned");
        let fid = self.fid_of(&st, h)?;
        let client = ClientId::new(0, rank as u32);
        if let Entry::Vacant(slot) = st.chains.entry(client.rank) {
            slot.insert(self.new_chain()?);
        }

        let (_, sum_ns) = self.timed(|| black_box(data.content_checksum()));

        // Segment-grid pieces, as the write planner cuts them.
        let seg = self.cfg.segment_size;
        let mut records = Vec::new();
        let mut append_ns = 0.0;
        let mut cur = offset;
        let end = offset + data.len();
        while cur < end {
            let take = (seg - cur % seg).min(end - cur);
            let piece = data.slice(cur - offset, take);
            let key = SegKey { fid, offset: cur };
            let chain = st.chains.get_mut(&client.rank).expect("ensured above");
            if let (_, Some(old)) = self.kv.get(&key) {
                chain.release(old.va, old.len);
            }
            let (placed, ns) = self.timed(|| chain.append(piece));
            append_ns += ns;
            records.push((key, SegmentRecord::new(client, placed?.va, take)));
            cur += take;
        }
        let keys = records.len() as u64;
        let (_, put_ns) = self.timed(|| self.kv.put_batch(records));

        if st.recording {
            let t = &mut st.times;
            t.checksum_write_ns += sum_ns;
            t.checksum_write_bytes += data.len();
            t.append_ns += append_ns;
            t.pieces += keys;
            t.put_ns += put_ns;
            t.keys += keys;
            t.per_write_us.push((sum_ns + append_ns + put_ns) / 1e3);
        }
        Ok(())
    }

    fn read_at(&self, h: &FileHandle, _rank: usize, offset: u64, len: u64) -> SimResult<Payload> {
        let mut st = self.state.lock().expect("probe poisoned");
        let fid = self.fid_of(&st, h)?;
        let end = offset + len;
        // Records start at most one metadata range before `offset`.
        let scan_lo = offset.saturating_sub(self.cfg.metadata_range_size);
        let ((_, records), scan_ns) = self.timed(|| {
            self.kv.range_scan_bounded(
                &SegKey {
                    fid,
                    offset: scan_lo,
                },
                &SegKey { fid, offset: end },
                scan_lo,
                end,
                |k| k.fid == fid,
            )
        });

        let mut parts = Vec::new();
        let mut read_ns = 0.0;
        let mut cur = offset;
        for (key, rec) in records {
            let (lo, hi) = (key.offset.max(offset), (key.offset + rec.len).min(end));
            if hi <= lo {
                continue;
            }
            if lo != cur {
                return Err(SimError::InvalidConfig(format!(
                    "hole at {cur} reading '{}'",
                    h.path
                )));
            }
            let chain = st
                .chains
                .get(&rec.client.rank)
                .expect("a record's producer has a chain");
            let va = univistor_core::VirtualAddr(rec.va.0 + (lo - key.offset));
            let (got, ns) = self.timed(|| chain.read(va, hi - lo));
            read_ns += ns;
            parts.push(got?);
            cur = hi;
        }
        if cur != end {
            return Err(SimError::InvalidConfig(format!(
                "short read of '{}' at {cur}",
                h.path
            )));
        }
        let fragments = parts.len() as u64;
        let out = Payload::chain(parts);
        let (_, sum_ns) = self.timed(|| black_box(out.content_checksum()));

        if st.recording {
            let t = &mut st.times;
            t.scan_ns += scan_ns;
            t.lookups += 1;
            t.chain_read_ns += read_ns;
            t.fragments += fragments;
            t.checksum_read_ns += sum_ns;
            t.checksum_read_bytes += len;
            t.per_read_scan_us.push(scan_ns / 1e3);
            t.per_read_fetch_us.push((read_ns + sum_ns) / 1e3);
        }
        Ok(out)
    }

    fn close(&self, _h: &FileHandle, _rank: usize) -> SimResult<()> {
        Ok(())
    }

    fn file_size(&self, h: &FileHandle) -> SimResult<u64> {
        Err(SimError::InvalidConfig(format!(
            "the leaf probe keeps no size for '{}'",
            h.path
        )))
    }
}

/// Flush-side leaves for the files `shape` makes durable.
#[derive(Debug, Default, Clone)]
pub struct FlushLeaves {
    /// `striping::adaptive_plan` for one file, µs.
    pub plan_us: f64,
    /// `Lustre::write` of one server range, ns.
    pub write_ns_per_call: f64,
}

/// Plan each flushed file's striping and write its image to a scratch
/// `Lustre` one server range per call, as the coalescing flush does.
pub fn flush_leaves(shape: &Shape, cfg: &UniviStorConfig) -> SimResult<FlushLeaves> {
    let mut lustre = Lustre::new(cfg.cal.ost_count);
    let mut plan_ns = Vec::new();
    let (mut write_ns, mut calls) = (0.0, 0u64);
    for path in shape.paths() {
        let size = shape.image_len(&path).expect("listed by paths()");
        let t = Instant::now();
        let plan = adaptive_plan(
            size,
            cfg.geometry.total_servers(),
            cfg.cal.ost_count,
            cfg.alpha,
            cfg.cal.max_stripe_size,
        );
        plan_ns.push(t.elapsed().as_nanos() as f64);
        lustre.create(&path, plan.layout.clone())?;
        for (server, &(lo, hi)) in plan.server_ranges.iter().enumerate() {
            if hi == lo {
                continue;
            }
            let data = shape.expected(&path, lo, hi - lo);
            let t = Instant::now();
            black_box(lustre.write(&path, lo, data, server as u64)?);
            write_ns += t.elapsed().as_nanos() as f64;
            calls += 1;
        }
    }
    Ok(FlushLeaves {
        plan_us: median(&plan_ns) / 1e3,
        write_ns_per_call: ratio(write_ns, calls as f64),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapes::{Variant, Workload};
    use crate::timed::{PhaseKind, TimedDriver};

    /// The leaves-only pipeline is a correct (if bare) file system: the
    /// IOR shape reads back what it wrote, overwrites included.
    #[test]
    fn probe_driver_round_trips_the_ior_shape() {
        let shape = Shape::new(Workload::IorSmall, 5);
        let probe = ProbeDriver::new(shape.config(Variant::Base));
        probe.start_recording();
        let d = TimedDriver::new(probe, Instant::now(), false, None);
        shape.producer(&d).unwrap();
        // One more verified read through the probe itself.
        d.phase(PhaseKind::Read, "check");
        let path = &shape.paths()[0];
        let h = d
            .open(&OpenContext {
                path: path.clone(),
                mode: univistor_mpi::driver::OpenMode::Read,
                rank: 0,
                nprocs: 1,
                hints: univistor_mpi::Hints::new(),
            })
            .unwrap();
        let got = d.read_at(&h, 0, 12_288, 200_000).unwrap();
        assert_eq!(
            got.content_checksum(),
            shape.expected(path, 12_288, 200_000).content_checksum()
        );
        let (probe, log) = d.finish();
        assert_eq!(log.failed, 0);
        let t = probe.finish();
        assert_eq!(t.keys, 2 * 16_384, "write + overwrite, one key each");
        assert_eq!(t.per_write_us.len(), 2 * 16_384);
        assert!(t.lookups > 4096 && t.fragments >= 16 * 4096);
        assert!(t.read_leaves_p50_us(true) > t.read_leaves_p50_us(false));
        assert!(t.checksum_gib_per_s() > 0.0);
        assert!(t.shard_imbalance >= 1.0);
    }

    #[test]
    fn flush_leaves_cover_every_file() {
        let shape = Shape::new(Workload::IorSmall, 1);
        let f = flush_leaves(&shape, &shape.config(Variant::Base)).unwrap();
        assert!(f.plan_us > 0.0 && f.write_ns_per_call > 0.0);
    }
}
