//! `TimedDriver`: the measuring shim at the ADIO boundary.
//!
//! Wraps any [`FsDriver`], times every `open`/`write_at`/`read_at`/`close`
//! on the wall clock and forwards everything else. The generators in
//! `crates/workloads` run through it unmodified, so the layers below are
//! measured from outside. Untraced it keeps one compact [`Sample`] per
//! call; traced it additionally keeps a [`Span`] per call, parented to the
//! generator phase that issued it (collective closes share one parent
//! span per collective), all in memory until the run ends.

use std::collections::HashMap;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use univistor_mpi::driver::{FileHandle, FsDriver, OpenContext};
use univistor_sim::{Payload, SimResult};

/// The four timed ADIO calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Open,
    Write,
    Read,
    Close,
}

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::Open => "open",
            Op::Write => "write_at",
            Op::Read => "read_at",
            Op::Close => "close",
        }
    }
}

/// What a generator phase does to the file; decides which latency
/// distribution its data calls feed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// Writes to offsets not written before.
    Write,
    /// Writes over live records.
    Overwrite,
    /// Reads.
    Read,
}

/// One timed call, as kept on untraced runs.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub op: Op,
    pub kind: PhaseKind,
    pub rank: u32,
    /// The handle's mode permits writing (a close of it may flush).
    pub writable: bool,
    /// Sequence number of the collective close this close belongs to.
    pub group: u32,
    pub ns: u64,
}

/// One span of the traced run. `parent` is the phase span for data calls
/// and opens, and the collective-close span for a rank's close.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub phase: u32,
    pub op: &'static str,
    pub rank: u32,
    pub offset: u64,
    pub len: u64,
    /// The call returned `Ok` with a result of the right length (and, on
    /// the verified warm-up rep, the right content).
    pub ok: bool,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One generator phase; its span is the root of everything issued in it.
#[derive(Debug, Clone)]
pub struct Phase {
    pub id: u64,
    pub kind: PhaseKind,
    pub label: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Ground truth the verified warm-up rep checks results against.
pub trait Oracle: Send + Sync {
    /// The bytes a read of `[offset, offset + len)` of `path` must return.
    fn expected(&self, path: &str, offset: u64, len: u64) -> Payload;
    /// Called once the last rank of a writable collective close returned;
    /// `false` when the durable image is wrong.
    fn durable_image_ok(&self, path: &str) -> bool;
}

/// A collective close some ranks have yet to join.
#[derive(Debug, Clone, Copy)]
struct Closing {
    group: u32,
    /// Id and index of the collective's span (traced runs; else 0).
    span: u64,
    span_at: usize,
    ranks_seen: usize,
}

/// Everything one driver recorded during one rep.
#[derive(Debug, Default)]
pub struct Log {
    pub samples: Vec<Sample>,
    pub spans: Vec<Span>,
    pub phases: Vec<Phase>,
    pub bytes_written: u64,
    pub bytes_read: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Collective closes in progress, by path.
    closing: HashMap<String, Closing>,
    next_group: u32,
    next_id: u64,
}

impl Log {
    fn new_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn end_phase(&mut self, now: u64) {
        if let Some(p) = self.phases.last_mut() {
            p.end_ns = now;
        }
    }

    /// Latencies in µs of the samples `keep` selects, in issue order.
    pub fn latencies_us(&self, keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| keep(s))
            .map(|s| s.ns as f64 / 1e3)
            .collect()
    }

    /// Summed duration in ms of each collective close `keep` selects (the
    /// ranks of one collective run back to back in the rank loop, so the
    /// sum is the time the application waits for it).
    pub fn collective_close_ms(&self, keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
        let mut by_group: Vec<f64> = vec![0.0; self.next_group as usize];
        let mut used = vec![false; self.next_group as usize];
        for s in self.samples.iter().filter(|s| s.op == Op::Close && keep(s)) {
            by_group[s.group as usize] += s.ns as f64 / 1e6;
            used[s.group as usize] = true;
        }
        by_group
            .into_iter()
            .zip(used)
            .filter_map(|(ms, u)| u.then_some(ms))
            .collect()
    }

    /// Write the spans as JSON lines: phase spans first, then call spans.
    pub fn write_jsonl(
        &self,
        out: &mut impl Write,
        workload: &str,
        rep: usize,
        app: u32,
    ) -> io::Result<()> {
        for p in &self.phases {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":0,\"workload\":\"{workload}\",\"rep\":{rep},\
                 \"phase\":\"{}\",\"op\":\"phase\",\"app\":{app},\"rank\":0,\"offset\":0,\
                 \"len\":0,\"ok\":true,\"start_ns\":{},\"end_ns\":{}}}",
                p.id, p.label, p.start_ns, p.end_ns
            )?;
        }
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"workload\":\"{workload}\",\"rep\":{rep},\
                 \"phase\":\"{}\",\"op\":\"{}\",\"app\":{app},\"rank\":{},\"offset\":{},\
                 \"len\":{},\"ok\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                self.phases[s.phase as usize].label,
                s.op,
                s.rank,
                s.offset,
                s.len,
                s.ok,
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

/// The timing shim. One instance is one application's driver for one rep.
pub struct TimedDriver<D: FsDriver> {
    inner: D,
    epoch: Instant,
    trace: bool,
    oracle: Option<Arc<dyn Oracle>>,
    log: Mutex<Log>,
}

impl<D: FsDriver> TimedDriver<D> {
    /// Wrap `inner`. Span times count from `epoch` (shared by the drivers
    /// of one rep so their spans line up); `oracle` turns on content
    /// verification.
    pub fn new(inner: D, epoch: Instant, trace: bool, oracle: Option<Arc<dyn Oracle>>) -> Self {
        TimedDriver {
            inner,
            epoch,
            trace,
            oracle,
            log: Mutex::new(Log::default()),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn log(&self) -> std::sync::MutexGuard<'_, Log> {
        self.log.lock().expect("a generator thread panicked")
    }

    /// The wrapped driver.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Start the next generator phase (ending the previous one).
    pub fn phase(&self, kind: PhaseKind, label: impl Into<String>) {
        let now = self.now();
        let mut log = self.log();
        log.end_phase(now);
        let id = log.new_id();
        log.phases.push(Phase {
            id,
            kind,
            label: label.into(),
            start_ns: now,
            end_ns: now,
        });
    }

    /// End the last phase and hand back the wrapped driver and the log.
    pub fn finish(self) -> (D, Log) {
        let now = self.now();
        let mut log = self.log.into_inner().expect("a generator thread panicked");
        log.end_phase(now);
        (self.inner, log)
    }

    #[allow(clippy::too_many_arguments)]
    fn record(
        &self,
        log: &mut Log,
        op: Op,
        rank: usize,
        writable: bool,
        ok: bool,
        group: u32,
        parent: Option<u64>,
        (offset, len): (u64, u64),
        (start_ns, end_ns): (u64, u64),
    ) {
        assert!(
            !log.phases.is_empty(),
            "phase() must be called before the first driver call"
        );
        let phase = log.phases.len() - 1;
        log.attempted += 1;
        log.failed += u64::from(!ok);
        log.samples.push(Sample {
            op,
            kind: log.phases[phase].kind,
            rank: rank as u32,
            writable,
            group,
            ns: end_ns - start_ns,
        });
        if self.trace {
            let id = log.new_id();
            let parent = parent.unwrap_or(log.phases[phase].id);
            log.spans.push(Span {
                id,
                parent,
                phase: phase as u32,
                op: op.name(),
                rank: rank as u32,
                offset,
                len,
                ok,
                start_ns,
                end_ns,
            });
        }
    }
}

impl<D: FsDriver> FsDriver for TimedDriver<D> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn open(&self, ctx: &OpenContext) -> SimResult<FileHandle> {
        let t0 = self.now();
        let r = self.inner.open(ctx);
        let t1 = self.now();
        let mut log = self.log();
        self.record(
            &mut log,
            Op::Open,
            ctx.rank,
            ctx.mode.writable(),
            r.is_ok(),
            0,
            None,
            (0, 0),
            (t0, t1),
        );
        r
    }

    fn write_at(&self, h: &FileHandle, rank: usize, offset: u64, data: Payload) -> SimResult<()> {
        let len = data.len();
        let t0 = self.now();
        let r = self.inner.write_at(h, rank, offset, data);
        let t1 = self.now();
        let mut log = self.log();
        log.bytes_written += len;
        self.record(
            &mut log,
            Op::Write,
            rank,
            true,
            r.is_ok(),
            0,
            None,
            (offset, len),
            (t0, t1),
        );
        r
    }

    fn read_at(&self, h: &FileHandle, rank: usize, offset: u64, len: u64) -> SimResult<Payload> {
        let t0 = self.now();
        let r = self.inner.read_at(h, rank, offset, len);
        let t1 = self.now();
        let ok = match (&r, &self.oracle) {
            (Err(_), _) => false,
            (Ok(got), None) => got.len() == len,
            (Ok(got), Some(oracle)) => {
                got.len() == len
                    && got.content_checksum()
                        == oracle.expected(&h.path, offset, len).content_checksum()
            }
        };
        let mut log = self.log();
        log.bytes_read += len;
        self.record(
            &mut log,
            Op::Read,
            rank,
            false,
            ok,
            0,
            None,
            (offset, len),
            (t0, t1),
        );
        r
    }

    fn close(&self, h: &FileHandle, rank: usize) -> SimResult<()> {
        let t0 = self.now();
        let r = self.inner.close(h, rank);
        let t1 = self.now();
        let writable = h.mode.writable();
        let mut log = self.log();
        let mut c = log.closing.remove(&h.path).unwrap_or_else(|| {
            let group = log.next_group;
            log.next_group += 1;
            let (mut span, span_at) = (0, log.spans.len());
            if self.trace {
                span = log.new_id();
                let phase = log.phases.len().saturating_sub(1);
                let parent = log.phases.get(phase).map_or(0, |p| p.id);
                log.spans.push(Span {
                    id: span,
                    parent,
                    phase: phase as u32,
                    op: "collective_close",
                    rank: 0,
                    offset: 0,
                    len: 0,
                    ok: true,
                    start_ns: t0,
                    end_ns: t1,
                });
            }
            Closing {
                group,
                span,
                span_at,
                ranks_seen: 0,
            }
        });
        c.ranks_seen += 1;
        if self.trace {
            log.spans[c.span_at].end_ns = t1;
        }
        let mut ok = r.is_ok();
        if c.ranks_seen < h.nprocs {
            log.closing.insert(h.path.clone(), c);
        } else if let (true, true, Some(oracle)) = (ok, writable, &self.oracle) {
            ok = oracle.durable_image_ok(&h.path);
        }
        self.record(
            &mut log,
            Op::Close,
            rank,
            writable,
            ok,
            c.group,
            self.trace.then_some(c.span),
            (0, 0),
            (t0, t1),
        );
        r
    }

    fn file_size(&self, h: &FileHandle) -> SimResult<u64> {
        self.inner.file_size(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use univistor_mpi::driver::OpenMode;
    use univistor_mpi::{Hints, MemDriver};
    use univistor_sim::SimError;

    fn ctx(rank: usize, nprocs: usize, mode: OpenMode) -> OpenContext {
        OpenContext {
            path: "/f".into(),
            mode,
            rank,
            nprocs,
            hints: Hints::new(),
        }
    }

    /// Refuses every data call; opens and closes succeed.
    struct Refusing;

    impl FsDriver for Refusing {
        fn name(&self) -> &'static str {
            "refusing"
        }
        fn open(&self, ctx: &OpenContext) -> SimResult<FileHandle> {
            Ok(FileHandle {
                fid: 1,
                path: ctx.path.clone(),
                mode: ctx.mode,
                nprocs: ctx.nprocs,
            })
        }
        fn write_at(&self, _: &FileHandle, _: usize, _: u64, _: Payload) -> SimResult<()> {
            Err(SimError::InvalidConfig("refused".into()))
        }
        fn read_at(&self, _: &FileHandle, _: usize, _: u64, len: u64) -> SimResult<Payload> {
            // Wrong length: a result, but not the one asked for.
            Ok(Payload::zeros(len / 2))
        }
        fn close(&self, _: &FileHandle, _: usize) -> SimResult<()> {
            Ok(())
        }
        fn file_size(&self, _: &FileHandle) -> SimResult<u64> {
            Ok(42)
        }
    }

    #[test]
    fn forwards_results_and_bytes() {
        let d = TimedDriver::new(MemDriver::new(), Instant::now(), false, None);
        d.phase(PhaseKind::Write, "w");
        let h = d.open(&ctx(0, 1, OpenMode::ReadWrite)).unwrap();
        d.write_at(&h, 0, 8, Payload::pattern(3, 100)).unwrap();
        d.phase(PhaseKind::Read, "r");
        let got = d.read_at(&h, 0, 8, 100).unwrap();
        assert!(got.content_eq(&Payload::pattern(3, 100)));
        assert_eq!(d.file_size(&h).unwrap(), 108);
        assert_eq!(d.name(), "mem");
        d.close(&h, 0).unwrap();
        let (_, log) = d.finish();
        assert_eq!((log.attempted, log.failed), (4, 0));
        assert_eq!((log.bytes_written, log.bytes_read), (100, 100));
        assert!(log.spans.is_empty(), "untraced runs keep no spans");
        let kinds: Vec<_> = log.samples.iter().map(|s| (s.op, s.kind)).collect();
        assert_eq!(
            kinds,
            vec![
                (Op::Open, PhaseKind::Write),
                (Op::Write, PhaseKind::Write),
                (Op::Read, PhaseKind::Read),
                (Op::Close, PhaseKind::Read),
            ]
        );
    }

    #[test]
    fn counts_an_erroring_drivers_failures() {
        let d = TimedDriver::new(Refusing, Instant::now(), true, None);
        d.phase(PhaseKind::Write, "w");
        let h = d.open(&ctx(0, 1, OpenMode::ReadWrite)).unwrap();
        assert!(d.write_at(&h, 0, 0, Payload::zeros(8)).is_err());
        assert!(d.read_at(&h, 0, 0, 8).is_ok(), "the result is forwarded");
        assert_eq!(d.file_size(&h).unwrap(), 42);
        d.close(&h, 0).unwrap();
        let (_, log) = d.finish();
        assert_eq!((log.attempted, log.failed), (4, 2));
        let bad: Vec<_> = log.spans.iter().filter(|s| !s.ok).map(|s| s.op).collect();
        assert_eq!(bad, vec!["write_at", "read_at"]);
    }

    struct Wrong;

    impl Oracle for Wrong {
        fn expected(&self, _: &str, _: u64, len: u64) -> Payload {
            Payload::pattern(99, len)
        }
        fn durable_image_ok(&self, _: &str) -> bool {
            false
        }
    }

    #[test]
    fn oracle_mismatches_are_failed_ops() {
        let d = TimedDriver::new(
            MemDriver::new(),
            Instant::now(),
            false,
            Some(Arc::new(Wrong)),
        );
        d.phase(PhaseKind::Write, "w");
        let h = d.open(&ctx(0, 1, OpenMode::ReadWrite)).unwrap();
        d.write_at(&h, 0, 0, Payload::pattern(1, 64)).unwrap();
        d.read_at(&h, 0, 0, 64).unwrap();
        d.close(&h, 0).unwrap();
        let (_, log) = d.finish();
        assert_eq!((log.attempted, log.failed), (4, 2), "read and close");
    }

    #[test]
    fn two_rank_collective_close_shares_one_parent() {
        let d = TimedDriver::new(MemDriver::new(), Instant::now(), true, None);
        d.phase(PhaseKind::Write, "step");
        let h0 = d.open(&ctx(0, 2, OpenMode::Write)).unwrap();
        let h1 = d.open(&ctx(1, 2, OpenMode::Write)).unwrap();
        d.write_at(&h0, 0, 0, Payload::zeros(4)).unwrap();
        d.close(&h0, 0).unwrap();
        d.close(&h1, 1).unwrap();
        // A second collective on the same path gets a fresh id.
        let h0 = d.open(&ctx(0, 2, OpenMode::Write)).unwrap();
        let h1 = d.open(&ctx(1, 2, OpenMode::Write)).unwrap();
        d.close(&h0, 0).unwrap();
        d.close(&h1, 1).unwrap();
        let (_, log) = d.finish();

        let phase = log.phases[0].id;
        let collectives: Vec<&Span> = log
            .spans
            .iter()
            .filter(|s| s.op == "collective_close")
            .collect();
        assert_eq!(collectives.len(), 2);
        assert_ne!(collectives[0].id, collectives[1].id);
        for c in &collectives {
            assert_eq!(c.parent, phase);
            let ranks: Vec<&Span> = log
                .spans
                .iter()
                .filter(|s| s.op == "close" && s.parent == c.id)
                .collect();
            assert_eq!(ranks.len(), 2);
            assert!(c.start_ns <= ranks[0].start_ns && c.end_ns >= ranks[1].end_ns);
        }
        let write = log.spans.iter().find(|s| s.op == "write_at").unwrap();
        assert_eq!(write.parent, phase);
        assert_eq!(log.collective_close_ms(|_| true).len(), 2);
        let groups: Vec<u32> = log
            .samples
            .iter()
            .filter(|s| s.op == Op::Close)
            .map(|s| s.group)
            .collect();
        assert_eq!(groups, vec![0, 0, 1, 1]);

        let mut out = Vec::new();
        log.write_jsonl(&mut out, "t", 0, 0).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), log.phases.len() + log.spans.len());
        for line in text.lines() {
            univistor_obs::Json::parse(line).expect("every line is JSON");
        }
    }
}
