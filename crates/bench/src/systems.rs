//! Experiment runners: execute the functional systems at paper scale and
//! pair the receipts with the timing plane.

use crate::timing::{Platform, TierBytes};
use std::sync::{Arc, Mutex, OnceLock};
use univistor_baselines::{DataElevator, LustreDirect};
use univistor_core::config::{Features, UniviStorConfig};
use univistor_core::driver::UniviStorDriver;
use univistor_core::flush::FlushReceipt;
use univistor_core::metrics::JobMetrics;
use univistor_core::server::UniviStorJob;
use univistor_core::MetricsSnapshot;
use univistor_sim::SimResult;
use univistor_workloads::{BdCatsIo, MicroIo, VpicIo, VpicLayout};

/// Which storage layers UniviStor is allowed to cache on — the paper's
/// "UniviStor/DRAM", "UniviStor/BB", "UniviStor/(DRAM+BB+Disk)" and
/// "UniviStor/(Disk)" configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UvMode {
    /// DRAM first (spilling if needed) — the default.
    Dram,
    /// Burst buffer only (DRAM disabled).
    Bb,
    /// PFS logs only (both caches disabled).
    Disk,
}

impl UvMode {
    /// Apply the mode to a configuration.
    pub fn apply(self, cfg: &mut UniviStorConfig) {
        match self {
            UvMode::Dram => {}
            UvMode::Bb => cfg.enable_dram = false,
            UvMode::Disk => {
                cfg.enable_dram = false;
                cfg.enable_bb = false;
            }
        }
    }

    /// Display label matching the paper's series names.
    pub fn label(self) -> &'static str {
        match self {
            UvMode::Dram => "UniviStor/DRAM",
            UvMode::Bb => "UniviStor/BB",
            UvMode::Disk => "UniviStor/Disk",
        }
    }

    /// Fraction of an in-flight flush that stalls the application's next
    /// cache-write phase: the share of the flush's resource footprint that
    /// the new writes also need. DRAM/BB caches are disjoint from the
    /// flush's Lustre-write side (SSD read and write channels are
    /// independent), but the Disk configuration writes new data into the
    /// same OST pool the flush is draining into.
    pub fn flush_stall_factor(self) -> f64 {
        match self {
            UvMode::Dram | UvMode::Bb => 0.0,
            UvMode::Disk => 0.4,
        }
    }
}

/// Data Elevator's flush contends harder with its own next step: the
/// flush re-reads the shared BB file while the application writes the
/// next shared file through the same DataWarp metadata and lock state,
/// and DE's flush queue shares the server processes.
pub const DE_FLUSH_STALL: f64 = 0.3;

/// Every UniviStor job built through [`uv_job`] leaves its telemetry
/// panel here, so a harness binary can dump the combined counters of a
/// whole run as `metrics.json`. Panels are `Arc`-held and monotonic:
/// they outlive their jobs and are each absorbed exactly once per
/// [`accumulated_metrics`] call.
fn metrics_ledger() -> &'static Mutex<Vec<Arc<JobMetrics>>> {
    static LEDGER: OnceLock<Mutex<Vec<Arc<JobMetrics>>>> = OnceLock::new();
    LEDGER.get_or_init(|| Mutex::new(Vec::new()))
}

/// Combined telemetry of every UniviStor job this process has built —
/// per-tier byte counters, read-path classification, flush histograms —
/// merged across jobs with [`MetricsSnapshot::absorb`].
pub fn accumulated_metrics() -> MetricsSnapshot {
    let ledger = metrics_ledger().lock().expect("metrics ledger poisoned");
    let mut total = MetricsSnapshot::default();
    for panel in ledger.iter() {
        total.absorb(&panel.snapshot());
    }
    total
}

/// Every job a phase was taken of, with its panel at that phase boundary.
/// Holding the panel keeps its address from being reused by a later job.
type PhaseBases = Mutex<Vec<(Arc<JobMetrics>, MetricsSnapshot)>>;

fn phase_bases() -> &'static PhaseBases {
    static BASES: OnceLock<PhaseBases> = OnceLock::new();
    BASES.get_or_init(|| Mutex::new(Vec::new()))
}

/// End `job`'s current phase: what its panel counted since the previous
/// phase boundary (since construction at the first), and the receipts of
/// the flushes in between. Phases are per job, whichever driver ran them.
fn take_phase(job: &UniviStorJob) -> (MetricsSnapshot, Vec<FlushReceipt>) {
    let mut bases = phase_bases().lock().expect("phase bases poisoned");
    let now = job.metrics();
    let panel = job.metrics_handle();
    let delta = match bases.iter_mut().find(|(p, _)| Arc::ptr_eq(p, panel)) {
        Some((_, base)) => now.since(&std::mem::replace(base, now.clone())),
        None => {
            bases.push((Arc::clone(panel), now.clone()));
            now
        }
    };
    (delta, job.take_flush_receipts())
}

/// Build the paper-configured UniviStor job.
pub fn uv_job(platform: &Platform, mode: UvMode, features: Features) -> Arc<UniviStorJob> {
    let mut cfg = UniviStorConfig::paper(platform.procs());
    cfg.geometry = platform.geometry;
    cfg.cal = platform.cal.clone();
    cfg.features = features;
    mode.apply(&mut cfg);
    let job = Arc::new(UniviStorJob::new(cfg));
    metrics_ledger()
        .lock()
        .expect("metrics ledger poisoned")
        .push(Arc::clone(job.metrics_handle()));
    job
}

/// One measured write phase.
#[derive(Debug, Clone)]
pub struct WriteOutcome {
    /// Cache-write time (client-visible).
    pub write_time: f64,
    /// Server-side flush time (asynchronous).
    pub flush_time: f64,
    /// The flush receipt, when one occurred.
    pub receipt: Option<FlushReceipt>,
    /// Per-process tier split of this phase.
    pub tier_bytes: TierBytes,
}

/// Run the micro write phase on UniviStor and time it.
pub fn uv_micro_write(
    platform: &Platform,
    driver: &UniviStorDriver,
    micro: &MicroIo,
    path: &str,
) -> SimResult<WriteOutcome> {
    micro.write_phase(driver, path)?;
    let (delta, receipts) = take_phase(driver.job());
    let features = driver.job().cfg().features;
    let tier_bytes = TierBytes::from_delta(&delta, micro.procs);
    let segments = delta.counter_total("univistor_segments_total") / micro.procs.max(1) as u64;
    let write_time = platform.univistor_write_time(&features, tier_bytes, segments);
    let receipt = receipts.into_iter().next_back();
    let flush_time = receipt
        .as_ref()
        .map(|r| platform.univistor_flush_time(&features, r))
        .unwrap_or(0.0);
    Ok(WriteOutcome {
        write_time,
        flush_time,
        receipt,
        tier_bytes,
    })
}

/// Run the micro read phase on UniviStor and time it.
pub fn uv_micro_read(
    platform: &Platform,
    driver: &UniviStorDriver,
    micro: &MicroIo,
    path: &str,
) -> SimResult<f64> {
    micro.read_phase(driver, path, false)?;
    let (delta, _) = take_phase(driver.job());
    let features = driver.job().cfg().features;
    Ok(platform.univistor_read_time(&features, &delta))
}

/// Run the micro write on Data Elevator; returns (write_time, flush_time).
pub fn de_micro_write(
    platform: &Platform,
    de: &DataElevator,
    micro: &MicroIo,
    path: &str,
) -> SimResult<(f64, f64)> {
    micro.write_phase(de, path)?;
    let write_time = platform.de_write_time(micro.bytes_per_proc);
    let flush_time = de
        .stats()
        .flush_receipts
        .last()
        .map(|r| platform.de_flush_time(r))
        .unwrap_or(0.0);
    Ok((write_time, flush_time))
}

/// Run the micro write on direct Lustre; returns the write time.
pub fn lustre_micro_write(
    platform: &Platform,
    lustre: &LustreDirect,
    micro: &MicroIo,
    path: &str,
) -> SimResult<f64> {
    micro.write_phase(lustre, path)?;
    Ok(platform.lustre_write_time(micro.bytes_per_proc))
}

/// Result of a multi-step VPIC run.
#[derive(Debug, Clone, Default)]
pub struct VpicOutcome {
    /// Per-step cache-write times.
    pub write_times: Vec<f64>,
    /// Per-step flush times.
    pub flush_times: Vec<f64>,
    /// Time the application stalled waiting for a previous flush to drain
    /// before its next checkpoint could start.
    pub stall_time: f64,
}

impl VpicOutcome {
    /// The paper's "total I/O time": all cache writes (+ stalls) plus the
    /// last step's flush.
    pub fn total_io(&self) -> f64 {
        self.write_times.iter().sum::<f64>()
            + self.stall_time
            + self.flush_times.last().copied().unwrap_or(0.0)
    }

    /// Sum of write times only (the non-flush component plotted in
    /// Figs. 7/8).
    pub fn write_total(&self) -> f64 {
        self.write_times.iter().sum::<f64>() + self.stall_time
    }

    /// The flush component plotted in Figs. 7/8.
    pub fn last_flush(&self) -> f64 {
        self.flush_times.last().copied().unwrap_or(0.0)
    }
}

/// Run a multi-step VPIC checkpoint sequence on UniviStor with a
/// `compute_gap`-second compute phase between checkpoints; flushes overlap
/// the gaps, and a flush slower than the gap stalls the next step.
pub fn uv_vpic_run(
    platform: &Platform,
    driver: &UniviStorDriver,
    vpic: &VpicIo,
    compute_gap: f64,
    flush_stall_factor: f64,
) -> SimResult<VpicOutcome> {
    let features = driver.job().cfg().features;
    let mut out = VpicOutcome::default();
    let mut flush_busy_until = 0.0f64;
    let mut clock = 0.0f64;
    for step in 0..vpic.steps {
        // The contended share of a previous in-flight flush must drain
        // before the next checkpoint proceeds at full speed.
        if flush_busy_until > clock {
            out.stall_time += flush_busy_until - clock;
            clock = flush_busy_until;
        }
        vpic.write_step(driver, step)?;
        let (delta, receipts) = take_phase(driver.job());
        let tier_bytes = TierBytes::from_delta(&delta, vpic.layout.procs);
        let segments =
            delta.counter_total("univistor_segments_total") / vpic.layout.procs.max(1) as u64;
        let w = platform.univistor_write_time(&features, tier_bytes, segments);
        out.write_times.push(w);
        clock += w;
        let f = receipts
            .last()
            .map(|r| platform.univistor_flush_time(&features, r))
            .unwrap_or(0.0);
        out.flush_times.push(f);
        flush_busy_until = clock + f * flush_stall_factor;
        if step + 1 < vpic.steps {
            clock += compute_gap;
        }
    }
    Ok(out)
}

/// The same VPIC sequence on Data Elevator.
pub fn de_vpic_run(
    platform: &Platform,
    de: &DataElevator,
    vpic: &VpicIo,
    compute_gap: f64,
) -> SimResult<VpicOutcome> {
    let mut out = VpicOutcome::default();
    let mut flush_busy_until = 0.0f64;
    let mut clock = 0.0f64;
    let mut seen_flushes = 0usize;
    for step in 0..vpic.steps {
        if flush_busy_until > clock {
            out.stall_time += flush_busy_until - clock;
            clock = flush_busy_until;
        }
        vpic.write_step(de, step)?;
        let w = platform.de_write_time(vpic.layout.bytes_per_proc());
        out.write_times.push(w);
        clock += w;
        let stats = de.stats();
        let f = stats
            .flush_receipts
            .get(seen_flushes)
            .map(|r| platform.de_flush_time(r))
            .unwrap_or(0.0);
        seen_flushes = stats.flush_receipts.len();
        out.flush_times.push(f);
        flush_busy_until = clock + f * DE_FLUSH_STALL;
        if step + 1 < vpic.steps {
            clock += compute_gap;
        }
    }
    Ok(out)
}

/// The same VPIC sequence writing straight to Lustre (no flush component).
pub fn lustre_vpic_run(
    platform: &Platform,
    lustre: &LustreDirect,
    vpic: &VpicIo,
) -> SimResult<VpicOutcome> {
    let mut out = VpicOutcome::default();
    for step in 0..vpic.steps {
        vpic.write_step(lustre, step)?;
        out.write_times
            .push(platform.lustre_write_time(vpic.layout.bytes_per_proc()));
        out.flush_times.push(0.0);
    }
    Ok(out)
}

/// Run BD-CATS reads of `steps` step files through UniviStor, returning
/// per-step read times.
pub fn uv_bdcats_run(
    platform: &Platform,
    driver: &UniviStorDriver,
    bdcats: &BdCatsIo,
    steps: usize,
) -> SimResult<Vec<f64>> {
    let features = driver.job().cfg().features;
    let mut times = Vec::with_capacity(steps);
    for step in 0..steps {
        bdcats.read_step(driver, step, false)?;
        let (delta, _) = take_phase(driver.job());
        times.push(platform.univistor_read_time(&features, &delta));
    }
    Ok(times)
}

/// Per-step read times for DE / Lustre (analytic; the functional read has
/// no UniviStor-specific trace to mine).
pub fn baseline_bdcats_times(
    platform: &Platform,
    layout: &VpicLayout,
    steps: usize,
    on_lustre: bool,
) -> Vec<f64> {
    let per_step = layout.dataset_bytes() * 8;
    (0..steps)
        .map(|_| {
            if on_lustre {
                platform.lustre_read_time(per_step)
            } else {
                platform.de_read_time(per_step)
            }
        })
        .collect()
}

/// Combine per-step write and read times into workflow elapsed times:
/// `overlap` pipelines read of step *i* with write of step *i+1*
/// (coordinated by the workflow state file); `!overlap` serializes the
/// full producer before the consumer.
pub fn workflow_elapsed(writes: &[f64], reads: &[f64], overlap: bool) -> f64 {
    assert_eq!(writes.len(), reads.len());
    if writes.is_empty() {
        return 0.0;
    }
    if !overlap {
        return writes.iter().sum::<f64>() + reads.iter().sum::<f64>();
    }
    // Pipeline: stage i overlaps write[i] with read[i-1]; reads are served
    // by different cores / the BB read channel, so a stage costs the
    // longer of the two.
    let mut elapsed = writes[0];
    for i in 1..writes.len() {
        elapsed += writes[i].max(reads[i - 1]);
    }
    elapsed + reads[reads.len() - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use univistor_workloads::MicroIo;

    /// Small-but-real end-to-end run: 64 procs, scaled-down payloads.
    fn platform() -> Platform {
        Platform::paper(64)
    }

    #[test]
    fn uv_micro_write_read_roundtrip_and_times() {
        let p = platform();
        let job = uv_job(&p, UvMode::Dram, Features::default());
        let driver = UniviStorDriver::new(job, 0);
        let micro = MicroIo::scaled(64, 1 << 20);
        let w = uv_micro_write(&p, &driver, &micro, "/m").unwrap();
        assert!(w.write_time > 0.0);
        assert!(w.flush_time > 0.0, "close must trigger a flush");
        assert_eq!(w.tier_bytes.dram, 1 << 20, "all data fits DRAM");
        assert_eq!(w.tier_bytes.bb + w.tier_bytes.pfs, 0);
        let r = uv_micro_read(&p, &driver, &micro, "/m").unwrap();
        assert!(r > 0.0);
        // Flushed data verifies on Lustre.
        assert_eq!(
            driver.job().lustre_file_size("/m").unwrap(),
            micro.file_size()
        );
    }

    #[test]
    fn bb_mode_places_nothing_in_dram() {
        let p = platform();
        let job = uv_job(&p, UvMode::Bb, Features::default());
        let driver = UniviStorDriver::new(job, 0);
        let micro = MicroIo::scaled(64, 1 << 20);
        let w = uv_micro_write(&p, &driver, &micro, "/m").unwrap();
        assert_eq!(w.tier_bytes.dram, 0);
        assert_eq!(w.tier_bytes.bb, 1 << 20);
    }

    #[test]
    fn dram_mode_is_fastest_bb_next_disk_last() {
        let p = platform();
        let micro = MicroIo::scaled(64, 1 << 20);
        let mut times = Vec::new();
        for mode in [UvMode::Dram, UvMode::Bb, UvMode::Disk] {
            let driver = UniviStorDriver::new(uv_job(&p, mode, Features::default()), 0);
            let w = uv_micro_write(&p, &driver, &micro, "/m").unwrap();
            times.push(w.write_time);
        }
        assert!(times[0] < times[1], "DRAM {} !< BB {}", times[0], times[1]);
        assert!(times[1] < times[2], "BB {} !< Disk {}", times[1], times[2]);
    }

    #[test]
    fn de_and_lustre_run_and_are_slower_than_uv_dram() {
        let p = platform();
        let micro = MicroIo::scaled(64, 1 << 20);
        let uv = UniviStorDriver::new(uv_job(&p, UvMode::Dram, Features::default()), 0);
        let uv_t = uv_micro_write(&p, &uv, &micro, "/m").unwrap().write_time;
        let de = DataElevator::new(p.geometry, p.cal.clone());
        let (de_t, de_f) = de_micro_write(&p, &de, &micro, "/m").unwrap();
        assert!(de_f > 0.0);
        let lu = LustreDirect::new(&p.cal);
        let lu_t = lustre_micro_write(&p, &lu, &micro, "/m").unwrap();
        assert!(uv_t < de_t, "UV {uv_t} !< DE {de_t}");
        assert!(de_t < lu_t, "DE {de_t} !< Lustre {lu_t}");
    }

    #[test]
    fn vpic_run_accumulates_steps_and_flushes() {
        let p = platform();
        let job = uv_job(&p, UvMode::Dram, Features::default());
        let driver = UniviStorDriver::new(job, 0);
        let vpic = VpicIo::scaled(64, 3, 1024);
        let out = uv_vpic_run(&p, &driver, &vpic, 60.0, 0.0).unwrap();
        assert_eq!(out.write_times.len(), 3);
        assert_eq!(out.flush_times.len(), 3);
        assert!(out.total_io() > out.write_total());
        // With a 60 s gap and tiny data, flushes hide completely.
        assert_eq!(out.stall_time, 0.0);
    }

    #[test]
    fn accumulated_metrics_cover_ledgered_jobs() {
        let p = platform();
        let before = accumulated_metrics().counter_total("univistor_segments_total");
        let driver = UniviStorDriver::new(uv_job(&p, UvMode::Dram, Features::default()), 0);
        let micro = MicroIo::scaled(64, 1 << 20);
        uv_micro_write(&p, &driver, &micro, "/acc").unwrap();
        // The job's panel feeds the process-wide accumulator even though
        // take_phase() already advanced the job's phase boundary.
        let after = accumulated_metrics();
        let placed = driver
            .job()
            .metrics()
            .counter_total("univistor_segments_total");
        assert!(placed > 0);
        assert!(
            after.counter_total("univistor_segments_total") >= before + placed,
            "ledger lost this job's segments"
        );
        // The dump round-trips: this is exactly what metrics.json holds.
        let back = univistor_core::MetricsSnapshot::from_json(&after.to_json()).unwrap();
        assert_eq!(back, after);
    }

    #[test]
    fn workflow_overlap_is_never_slower() {
        let writes = vec![2.0, 2.0, 2.0];
        let reads = vec![1.5, 1.5, 1.5];
        let over = workflow_elapsed(&writes, &reads, true);
        let non = workflow_elapsed(&writes, &reads, false);
        assert!(over < non);
        // Perfect pipeline bound: first write + max-stages + last read.
        assert!((over - (2.0 + 2.0 + 2.0 + 1.5)).abs() < 1e-9);
        assert!((non - 10.5).abs() < 1e-9);
    }

    #[test]
    fn vpic_bdcats_full_cycle_through_univistor() {
        let p = platform();
        let job = uv_job(&p, UvMode::Dram, Features::all());
        let driver = UniviStorDriver::new(job, 0);
        let vpic = VpicIo::scaled(64, 2, 512);
        let out = uv_vpic_run(&p, &driver, &vpic, 0.0, 0.0).unwrap();
        let bdcats = BdCatsIo::new(vpic.layout, 32);
        let reader = UniviStorDriver::new(Arc::clone(driver.job_arc()), 1);
        let reads = uv_bdcats_run(&p, &reader, &bdcats, 2).unwrap();
        assert_eq!(reads.len(), 2);
        assert!(reads.iter().all(|&t| t > 0.0));
        let elapsed = workflow_elapsed(&out.write_times, &reads, true);
        assert!(elapsed > 0.0);
    }
}
