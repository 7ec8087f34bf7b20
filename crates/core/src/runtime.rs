//! The partitioned executor ([`Runtime::Partitioned`]).
//!
//! Both runtimes run the same data plane — one [`DataPlane`] holding the
//! locked core — and differ only in *which thread* runs a call. Under
//! [`Runtime::Locked`] the caller's thread does. Under
//! [`Runtime::Partitioned`] a fixed pool of **partition workers** does:
//! worker `w` owns compute nodes `n` with `n % W == w`, and every write or
//! read posts one typed message ([`Req::Write`], [`Req::Read`]) to the
//! worker owning the caller's node, which runs the identical
//! [`DataPlane::place`] / [`DataPlane::read`] and replies through a pooled
//! [`ReplySlot`]. One call is one message and one awaited round-trip
//! (`univistor_partition_round_trips_total`).
//!
//! Maintenance passes, flushes and diagnostics are not routed: they run on
//! the shared core from the calling thread under both runtimes, taking the
//! same sharded locks the workers take.
//!
//! The message plane allocates nothing per round-trip: reply slots are
//! recycled (`univistor_msgplane_reply_pool_{hits,misses}_total`), and
//! workers run an adaptive spin-then-park receive loop (busy-poll briefly
//! while callers stream requests, park otherwise; disabled on single-core
//! hosts). Mailboxes are bounded by `mailbox_depth`; any depth ≥ 1 is
//! deadlock-free because a worker never posts to a worker — a full mailbox
//! only blocks the caller posting into it.
//!
//! [`Runtime::Locked`]: crate::config::Runtime::Locked
//! [`Runtime::Partitioned`]: crate::config::Runtime::Partitioned

use crate::metadata::ClientId;
use crate::metrics::{MsgPlaneMetrics, PartitionMetrics};
use crate::server::DataPlane;
use crate::write::{piece_count, WriteOp};
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;
use univistor_sim::{Payload, SimResult};

/// Iterations a worker busy-polls its mailbox before parking, and the
/// caller busy-polls a reply slot before blocking — on multi-core hosts
/// only (a single core has nobody to spin against).
const SPIN_CAP: u32 = 64;

/// The host's available parallelism, read once per process: the query
/// reads cgroup files on Linux, and every job construction and flush
/// sizes itself by it.
pub(crate) fn host_cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// A typed reply, deposited into the request's [`ReplySlot`]. A handler
/// that panicked hands its payload back, so the caller's thread panics as
/// it would have under the locked runtime instead of waiting forever.
enum Reply {
    Write(SimResult<()>),
    Read(SimResult<Payload>),
    Panicked(Box<dyn Any + Send>),
}

/// A reusable one-shot reply cell: the replacement for a per-request
/// `mpsc::channel()` pair. The caller pops one from the pool (or allocates
/// on a dry pool), clones the `Arc` into the request, and blocks in
/// [`take`](ReplySlot::take); the worker deposits exactly one reply with
/// [`fill`](ReplySlot::fill). After `take` the slot is empty again and
/// returns to the pool.
///
/// The `filled` flag lets the caller spin briefly without touching the
/// mutex; the mutex + condvar make the blocking path race-free. A worker
/// never touches the slot after `fill`, so recycling cannot observe a
/// stale writer.
struct ReplySlot {
    filled: AtomicBool,
    cell: Mutex<Option<Reply>>,
    cv: Condvar,
}

impl ReplySlot {
    fn new() -> Self {
        ReplySlot {
            filled: AtomicBool::new(false),
            cell: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn fill(&self, reply: Reply) {
        let mut cell = self.cell.lock().expect("reply slot poisoned");
        *cell = Some(reply);
        self.filled.store(true, Ordering::Release);
        self.cv.notify_one();
    }

    fn take(&self, spin: u32) -> Reply {
        for _ in 0..spin {
            if self.filled.load(Ordering::Acquire) {
                break;
            }
            std::hint::spin_loop();
        }
        let mut cell = self.cell.lock().expect("reply slot poisoned");
        while cell.is_none() {
            cell = self.cv.wait(cell).expect("reply slot poisoned");
        }
        self.filled.store(false, Ordering::Relaxed);
        cell.take().expect("just observed Some")
    }
}

/// A typed request to one partition worker: one job call, or the end of
/// the event loop.
enum Req {
    /// [`DataPlane::place`] — the write pipeline, retry loops included.
    Write {
        op: WriteOp,
        payload: Payload,
        reply: Arc<ReplySlot>,
    },
    /// [`DataPlane::read`] — the read pipeline, retry loop included.
    Read {
        client: ClientId,
        fid: u64,
        offset: u64,
        len: u64,
        reply: Arc<ReplySlot>,
    },
    /// End the event loop. Messages enqueued earlier are drained first
    /// (FIFO), so shutdown never drops queued work.
    Shutdown,
}

/// A request stamped with its enqueue time, so the worker can observe
/// mailbox wait latency on dequeue.
struct Envelope {
    at: Instant,
    req: Req,
}

/// Pull the next request: busy-poll up to `spin` iterations (growing the
/// budget toward `spin_cap` on a hit, halving it before parking on a
/// miss), then block. `None` means every sender is gone.
fn next_request(rx: &Receiver<Envelope>, spin_cap: u32, spin: &mut u32) -> Option<Envelope> {
    if spin_cap > 0 {
        for _ in 0..*spin {
            match rx.try_recv() {
                Ok(env) => {
                    *spin = (*spin * 2).clamp(1, spin_cap);
                    return Some(env);
                }
                Err(TryRecvError::Empty) => std::hint::spin_loop(),
                Err(TryRecvError::Disconnected) => return None,
            }
        }
        *spin = (*spin / 2).max(1);
    }
    rx.recv().ok()
}

/// One partition worker's event loop: run each call on the shared plane,
/// reply, repeat.
fn serve(plane: &DataPlane, metrics: &PartitionMetrics, rx: Receiver<Envelope>, spin_cap: u32) {
    let mut spin = spin_cap.min(1);
    while let Some(env) = next_request(&rx, spin_cap, &mut spin) {
        metrics.mailbox_depth.dec();
        metrics.wait_seconds.observe(env.at.elapsed().as_secs_f64());
        metrics.messages.inc();
        let (reply, result) = match env.req {
            Req::Write { op, payload, reply } => {
                let pieces = piece_count(plane.cfg.segment_size, op.offset, payload.len());
                metrics.batched_ops.add(pieces);
                let run = || Reply::Write(plane.place(&op, payload));
                (reply, panic::catch_unwind(AssertUnwindSafe(run)))
            }
            Req::Read {
                client,
                fid,
                offset,
                len,
                reply,
            } => {
                metrics.batched_ops.inc();
                let run = || Reply::Read(plane.read(client, fid, offset, len));
                (reply, panic::catch_unwind(AssertUnwindSafe(run)))
            }
            Req::Shutdown => return,
        };
        reply.fill(result.unwrap_or_else(Reply::Panicked));
    }
}

/// The caller's handle to one worker.
struct WorkerHandle {
    tx: SyncSender<Envelope>,
    metrics: PartitionMetrics,
    join: Option<JoinHandle<()>>,
}

impl WorkerHandle {
    /// Enqueue `req`; `false` when the worker has already exited.
    fn post(&self, req: Req) -> bool {
        self.metrics.mailbox_depth.inc();
        let at = Instant::now();
        self.tx.send(Envelope { at, req }).is_ok()
    }
}

/// The partitioned runtime: the worker pool, the node → worker ownership
/// map, and the reply-slot pool.
pub(crate) struct WorkerPool {
    workers: Vec<WorkerHandle>,
    procs_per_node: usize,
    /// Message-plane instruments: round-trips and reply-pool recycling.
    msgplane: MsgPlaneMetrics,
    /// Recycled reply slots (see [`ReplySlot`]).
    slots: Mutex<Vec<Arc<ReplySlot>>>,
    spin_cap: u32,
}

impl WorkerPool {
    /// Spawn `cfg.partition_workers()` event loops over `plane`, each
    /// behind a mailbox bounded by `cfg.mailbox_depth`.
    pub(crate) fn new(plane: &Arc<DataPlane>) -> Self {
        let cfg = &plane.cfg;
        let pool = cfg.partition_workers();
        let spin_cap = if host_cpus() > 1 { SPIN_CAP } else { 0 };
        let handles = plane.metrics.partition_handles(pool);
        let workers = handles
            .into_iter()
            .enumerate()
            .map(|(id, metrics)| {
                let (tx, rx) = mpsc::sync_channel(cfg.mailbox_depth.max(1));
                let (plane, m) = (Arc::clone(plane), metrics.clone());
                let join = std::thread::Builder::new()
                    .name(format!("univistor-part-{id}"))
                    .spawn(move || serve(&plane, &m, rx, spin_cap))
                    .expect("spawn partition worker");
                WorkerHandle {
                    tx,
                    metrics,
                    join: Some(join),
                }
            })
            .collect();
        WorkerPool {
            workers,
            procs_per_node: cfg.geometry.procs_per_node.max(1),
            msgplane: plane.metrics.msgplane_handles(),
            slots: Mutex::new(Vec::new()),
            spin_cap,
        }
    }

    /// Workers in the pool.
    pub(crate) fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Run [`DataPlane::place`] on the worker owning the writer's node.
    pub(crate) fn write(&self, op: &WriteOp, payload: Payload) -> SimResult<()> {
        let op = *op;
        match self.call(op.node, |reply| Req::Write { op, payload, reply }) {
            Reply::Write(result) => result,
            _ => unreachable!("write reply"),
        }
    }

    /// Run [`DataPlane::read`] on the worker owning the reader's node.
    pub(crate) fn read(
        &self,
        client: ClientId,
        fid: u64,
        offset: u64,
        len: u64,
    ) -> SimResult<Payload> {
        let node = client.rank as usize / self.procs_per_node;
        let req = |reply| Req::Read {
            client,
            fid,
            offset,
            len,
            reply,
        };
        match self.call(node, req) {
            Reply::Read(result) => result,
            _ => unreachable!("read reply"),
        }
    }

    /// One awaited round-trip to `node`'s owner: pooled slot out, request
    /// in, reply back, slot recycled. A handler's panic resumes here.
    fn call(&self, node: usize, make: impl FnOnce(Arc<ReplySlot>) -> Req) -> Reply {
        let recycled = self.slots.lock().expect("reply pool poisoned").pop();
        let slot = match recycled {
            Some(slot) => {
                self.msgplane.pool_hits.inc();
                slot
            }
            None => {
                self.msgplane.pool_misses.inc();
                Arc::new(ReplySlot::new())
            }
        };
        let worker = &self.workers[node % self.workers.len()];
        assert!(
            worker.post(make(Arc::clone(&slot))),
            "partition worker died"
        );
        self.msgplane.round_trips.inc();
        let reply = slot.take(self.spin_cap);
        self.slots.lock().expect("reply pool poisoned").push(slot);
        match reply {
            Reply::Panicked(payload) => panic::resume_unwind(payload),
            reply => reply,
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for worker in &self.workers {
            // A worker that already exited must not panic the drop.
            worker.post(Req::Shutdown);
        }
        for worker in &mut self.workers {
            if let Some(join) = worker.join.take() {
                let _ = join.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Runtime, UniviStorConfig};
    use crate::server::UniviStorJob;

    #[test]
    fn reply_slot_pool_recycles_across_round_trips() {
        let mut cfg = UniviStorConfig::test_small(2, 2);
        cfg.runtime = Runtime::Partitioned;
        cfg.partitions = 2;
        let job = UniviStorJob::new(cfg);
        let client = ClientId::new(0, 0);
        job.open_file("/p").read_write().by(client).unwrap();
        job.write(client, "/p", 0, Payload::pattern(7, 64)).unwrap();
        for _ in 0..8 {
            let got = job.read(client, "/p", 0, 64).unwrap();
            assert!(got.content_eq(&Payload::pattern(7, 64)));
        }
        let snap = job.metrics();
        let hits = snap
            .counter("univistor_msgplane_reply_pool_hits_total", &[])
            .unwrap_or(0);
        let misses = snap
            .counter("univistor_msgplane_reply_pool_misses_total", &[])
            .unwrap_or(0);
        let trips = snap
            .counter("univistor_partition_round_trips_total", &[])
            .unwrap_or(0);
        assert_eq!(trips, 9, "one awaited round-trip per call");
        assert_eq!((hits, misses), (8, 1), "sequential calls recycle one slot");
    }

    /// A handler that panics hands the panic to its caller, and the
    /// worker keeps serving. (The producer node past the geometry fails
    /// the metadata commit's node check before any lock is taken.)
    #[test]
    fn a_handler_panic_reaches_the_caller_and_the_worker_survives() {
        let mut cfg = UniviStorConfig::test_small(1, 2);
        cfg.runtime = Runtime::Partitioned;
        cfg.partitions = 1;
        let job = UniviStorJob::new(cfg);
        let client = ClientId::new(0, 0);
        let fid = job.open_file("/p").read_write().by(client).unwrap();
        let op = WriteOp {
            client,
            fid,
            node: 1,
            offset: 0,
            buddy: None,
        };
        let pool = job.pool.as_ref().expect("a partitioned job has a pool");
        let payload = Payload::pattern(1, 64);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| pool.write(&op, payload)));
        assert!(caught.is_err(), "the handler's panic resumes in the caller");
        job.write(client, "/p", 0, Payload::pattern(2, 64)).unwrap();
        let got = job.read(client, "/p", 0, 64).unwrap();
        assert!(got.content_eq(&Payload::pattern(2, 64)));
    }
}
