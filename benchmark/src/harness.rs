//! One repetition: a fresh job, the set-up, the timed body, and what the
//! job's own counters say the body cost.

use crate::shapes::{Shape, Variant};
use crate::timed::{Log, Oracle, PhaseKind, TimedDriver};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use univistor_core::{UniviStorDriver, UniviStorJob};
use univistor_mpi::MemDriver;
use univistor_obs::{MetricsSnapshot, SampleValue};
use univistor_sim::rng::DetRng;
use univistor_sim::Payload;

/// How a rep is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mode {
    /// Check every read's content and every durable image (warm-up rep).
    pub verify: bool,
    /// Keep spans.
    pub trace: bool,
}

impl Mode {
    /// The warm-up rep: every result checked.
    pub const VERIFIED: Mode = Mode {
        verify: true,
        trace: false,
    };
    pub const UNTRACED: Mode = Mode {
        verify: false,
        trace: false,
    };
    pub const TRACED: Mode = Mode {
        verify: false,
        trace: true,
    };
}

/// The job's counters over the timed body, flattened to
/// `family{label=value,...}` → count. Histograms contribute `_count` and
/// `_sum` (the sum as nanounits, so the map stays integral).
pub type Counts = BTreeMap<String, u64>;

/// What one rep measured.
pub struct Rep {
    /// Job and driver construction plus preload.
    pub setup_s: f64,
    /// The timed body.
    pub wall_s: f64,
    /// One log per generator thread (producer first).
    pub logs: Vec<Log>,
    pub counts: Counts,
    /// Families present in the job's panel (to tell "absent" from "zero").
    pub families: Vec<String>,
    pub records_live: u64,
    pub ost_loads: Vec<u64>,
    pub workflow_waits: u64,
    /// The body returned an error (also counted as a failed op).
    pub aborted: bool,
}

impl Rep {
    pub fn attempted(&self) -> u64 {
        self.logs.iter().map(|l| l.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.logs.iter().map(|l| l.failed).sum::<u64>() + u64::from(self.aborted)
    }

    pub fn bytes_written(&self) -> u64 {
        self.logs.iter().map(|l| l.bytes_written).sum()
    }

    pub fn bytes_read(&self) -> u64 {
        self.logs.iter().map(|l| l.bytes_read).sum()
    }
}

/// The warm-up rep's ground truth: the shape's expected images, and the
/// job's durable (Lustre) copy after a flushing close.
struct JobOracle {
    shape: Arc<Shape>,
    job: Arc<UniviStorJob>,
}

impl Oracle for JobOracle {
    fn expected(&self, path: &str, offset: u64, len: u64) -> Payload {
        self.shape.expected(path, offset, len)
    }

    fn durable_image_ok(&self, path: &str) -> bool {
        let Some(size) = self.shape.image_len(path) else {
            return false;
        };
        if self.job.lustre_file_size(path).ok() != Some(size) {
            return false;
        }
        // Head, tail and eight seeded ranges; a whole-file compare would
        // cost as much as the flush it checks.
        let mut rng = DetRng::seed(size ^ path.len() as u64);
        let probe = 64 << 10;
        let mut ranges = vec![(0, 4096), (size - 4096, 4096)];
        ranges.extend((0..8).map(|_| (rng.below((size - probe) as usize) as u64, probe)));
        ranges.into_iter().all(|(off, len)| {
            self.job.lustre_read(path, off, len).is_ok_and(|got| {
                got.content_checksum() == self.shape.expected(path, off, len).content_checksum()
            })
        })
    }
}

fn flatten(snapshot: &MetricsSnapshot) -> Counts {
    let mut out = Counts::new();
    for fam in &snapshot.families {
        for s in &fam.samples {
            let labels: Vec<String> = s.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let key = if labels.is_empty() {
                fam.name.clone()
            } else {
                format!("{}{{{}}}", fam.name, labels.join(","))
            };
            match &s.value {
                SampleValue::Counter(v) => {
                    out.insert(key, *v);
                }
                SampleValue::Histogram(h) => {
                    out.insert(format!("{key}_count"), h.count);
                    out.insert(format!("{key}_sum"), (h.sum * 1e9).round() as u64);
                }
                // Gauges are levels, not work done.
                SampleValue::Gauge(_) => {}
            }
        }
    }
    out
}

fn delta(before: &Counts, after: Counts) -> Counts {
    after
        .into_iter()
        .map(|(k, v)| {
            let base = before.get(&k).copied().unwrap_or(0);
            (k, v.saturating_sub(base))
        })
        .collect()
}

/// A fresh job with its preload done and one timed driver per generator
/// thread: everything a rep needs before its first timed call.
struct SetUp {
    job: Arc<UniviStorJob>,
    drivers: Vec<TimedDriver<UniviStorDriver>>,
    preload_failed: bool,
    seconds: f64,
}

fn set_up(shape: &Arc<Shape>, variant: Variant, mode: Mode) -> SetUp {
    let t = Instant::now();
    let job = Arc::new(UniviStorJob::new(shape.config(variant)));
    let preload_failed = shape
        .preload(&UniviStorDriver::new(Arc::clone(&job), 0))
        .is_err();
    let epoch = Instant::now();
    let apps = if shape.workload.coupled() { 2 } else { 1 };
    let drivers = (0..apps)
        .map(|app| {
            let oracle = mode.verify.then(|| {
                Arc::new(JobOracle {
                    shape: Arc::clone(shape),
                    job: Arc::clone(&job),
                }) as Arc<dyn Oracle>
            });
            TimedDriver::new(
                UniviStorDriver::new(Arc::clone(&job), app),
                epoch,
                mode.trace,
                oracle,
            )
        })
        .collect();
    SetUp {
        job,
        drivers,
        preload_failed,
        seconds: t.elapsed().as_secs_f64(),
    }
}

/// Set up and tear down without running the body; returns the set-up
/// seconds. Lets a run sample `setup_s` more often than it can afford reps.
pub fn set_up_only(shape: &Arc<Shape>) -> f64 {
    set_up(shape, Variant::Base, Mode::UNTRACED).seconds
}

/// Run one rep of `shape` on a fresh `UniviStorJob`.
pub fn run_rep(shape: &Arc<Shape>, variant: Variant, mode: Mode) -> Rep {
    let SetUp {
        job,
        drivers,
        preload_failed: mut aborted,
        seconds: setup_s,
    } = set_up(shape, variant, mode);

    let before = flatten(&job.metrics());
    let t_body = Instant::now();
    if let [producer, consumer] = &drivers[..] {
        std::thread::scope(|s| {
            let c = s.spawn(|| shape.consumer(consumer));
            aborted |= shape.producer(producer).is_err();
            aborted |= c.join().expect("consumer thread panicked").is_err();
        });
    } else {
        aborted |= shape.producer(&drivers[0]).is_err();
    }
    let wall_s = t_body.elapsed().as_secs_f64();
    let after = job.metrics();

    Rep {
        setup_s,
        wall_s,
        logs: drivers.into_iter().map(|d| d.finish().1).collect(),
        counts: delta(&before, flatten(&after)),
        families: after.families.iter().map(|f| f.name.clone()).collect(),
        records_live: job.metadata_records() as u64,
        ost_loads: job.ost_loads(),
        workflow_waits: job.state_file().wait_count(),
        aborted,
    }
}

/// The same generator sequence over the in-memory driver: the time the
/// generator, the MPI layer and this harness take with no UniviStor below
/// them. Returns the body's wall seconds.
pub fn run_floor(shape: &Shape) -> f64 {
    let d = TimedDriver::new(MemDriver::new(), Instant::now(), false, None);
    d.phase(PhaseKind::Write, "preload");
    let mut ok = shape.preload(&d).is_ok();
    let t = Instant::now();
    ok &= shape.producer(&d).is_ok();
    if shape.workload.coupled() {
        // No workflow lock to wait on in memory: producer, then consumer.
        ok &= shape.consumer(&d).is_ok();
    }
    let wall = t.elapsed().as_secs_f64();
    assert!(ok, "the in-memory driver refuses nothing the generators do");
    wall
}

/// Restrict the calling thread, and every thread it spawns from now on, to
/// the lowest CPU it may run on. Returns that CPU, or `None` when the
/// kernel refused (the run then goes on unpinned).
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // glibc's `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `size` bytes,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().position(|&w| w != 0)?;
    let bit = mask[word].trailing_zeros();
    let cpu = word * 64 + bit as usize;
    mask = [0; 16];
    mask[word] = 1 << bit;
    // SAFETY: as above, and the call only reads `size` bytes of `mask`.
    (unsafe { sched_setaffinity(0, size, mask.as_ptr()) } == 0).then_some(cpu)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
