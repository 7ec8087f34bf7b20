//! Shared-nothing partitioned runtime ([`Runtime::Partitioned`]).
//!
//! The locked runtime keeps one set of library structures (`ChainSet`,
//! `MetadataService`, heat shards) guarded by sharded locks and mutates
//! them from whichever thread issued the call. This module implements the
//! alternative: a fixed pool of **partition workers**, each an event loop
//! that exclusively owns its slice of state —
//!
//! * KV partition `p` (and heat shard `p`) belong to worker `p % W`;
//! * node `n`'s shared metadata buffer and read record cache belong to
//!   worker `n % W`;
//! * client `c`'s log chain belongs to the worker owning `c`'s node.
//!
//! Workers hold **plain** maps — no interior locks at all — and are fed
//! typed request messages over bounded mailboxes. The runtime adds no
//! pipeline of its own: it implements the executor traits of the shared
//! write driver ([`crate::write`]) and of the read and flush pipelines
//! ([`FlushSource`]), and the steady-state write/read path takes zero
//! counted lock acquisitions end to end.
//!
//! ## Fused commit protocol
//!
//! [`RoutedWrite`] commits a write in at most two waves:
//!
//! 1. **Awaited**: [`Req::Append`] to the chain owner (chain creation is
//!    fused in via its `ensure` flag), then one [`Req::WriteCommit`] per
//!    span owner carrying that worker's record slice — each worker
//!    punches its partitions and installs its records in one handler
//!    pass, replying with its share of the punch outcome.
//! 2. **Fire-and-forget**: one [`Req::WriteFinish`] per involved worker
//!    with its fragment puts, node-buffer sweep, producer buffer refresh,
//!    and chain releases. Finish stages are infallible (no fault sites)
//!    and per-mailbox FIFO order sequences them before any later request
//!    to the same worker, so observers never see them missing.
//!
//! When the whole widened span *and* the producer chain live on a single
//! worker (and replication is off), the write collapses further into one
//! [`Req::WriteFused`] message — one round-trip total — whose handler
//! runs the whole write driver with the worker itself as the executor
//! ([`FusedWrite`]), retry loops included (the append and the kv-insert
//! draw retry independently, so a replayed message would double-append).
//! Reads open with [`Req::ReadPlan`]: node-buffer lookup, the `kv_lookup`
//! fault draw, and the generation-validated cache probe fused into one
//! message to the node owner.
//!
//! Ordering inside the protocol keeps the commit order where it is
//! observable: the punch precedes record puts in the same worker (the CAS
//! claim must not see the new records), the node-buffer sweep's
//! fid-tracking check runs against *pre-insert* buffer state (the
//! producer refresh rides the finish wave, after the sweep), and fragment
//! keys never collide with record keys (left fragment offset < lo, right
//! fragment offset = hi, records ∈ [lo, hi)), so their put order is free.
//!
//! ## Zero-allocation message plane
//!
//! Awaited requests carry a pooled, reusable [`ReplySlot`] instead of a
//! fresh `mpsc::channel()` pair; the router recycles slots after each
//! round-trip (`univistor_msgplane_reply_pool_{hits,misses}_total`).
//! Broadcast payloads (the sweep's removed keys and fragments, the
//! producer buffer refresh) are shared as `Arc<[T]>` across the fan-out
//! instead of cloned per worker, scatter grouping reuses thread-local
//! scratch buffers, and workers run an adaptive spin-then-park receive
//! loop (busy-poll briefly while the router streams requests, park
//! otherwise; disabled on single-core hosts). Awaited round-trips are
//! counted in `univistor_partition_round_trips_total`.
//!
//! The handlers below the shared pipelines (punch, scan, fetch) keep the
//! locked structures' per-server `puts`/`gets` RPC accounting and
//! fault-injection draw order; the differential tests in
//! `tests/runtime.rs` pin `Runtime::Locked` ≡ `Runtime::Partitioned`.
//!
//! Cold paths (tiering passes, flush, repair, stats probes) run through a
//! **checkout**: the router parks every worker, collects their slices,
//! reassembles the real locked-core structures ([`LockedCore`]), runs the
//! legacy code against them, then disassembles and redistributes by
//! ownership. Mailbox FIFO order makes a checkout interleaving with an
//! in-flight routed operation equivalent to the locked runtime's
//! stepwise (non-atomic) lock acquisitions.

use crate::config::UniviStorConfig;
use crate::fault::FaultInjector;
use crate::flush::FlushSource;
use crate::metadata::{
    buffer_insert, buffer_lookup, buffer_sweep, cache_probe, cache_store, scan_start,
    split_overlapped, BatchOutcome, ClientId, CommitStats, Displaced, Generations, MetadataService,
    NodeBuffer, ReadCache, SegKey, SegmentRecord,
};
use crate::metrics::{MsgPlaneMetrics, PartitionMetrics};
use crate::placement::{append_run, ChainSet, PlacedSegment, ProcChain};
use crate::read::{covered_bytes, Gathered, RemoteLookup};
use crate::va::{Tier, VirtualAddr};
use crate::write::{self, piece_count, Span, WriteExecutor, WriteOp, WritePolicy};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TryRecvError};
use std::sync::{mpsc, Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;
use univistor_kv::RangePartitioner;
use univistor_sim::{Payload, SimError, SimResult};

/// Iterations a worker busy-polls its mailbox before parking, and the
/// router busy-polls a reply slot before blocking — on multi-core hosts
/// only (a single core has nobody to spin against).
const SPIN_CAP: u32 = 64;

/// The locked-runtime core: the three library structures the legacy data
/// plane mutates in place. Under [`Runtime::Locked`] the job owns one of
/// these for its whole lifetime; under [`Runtime::Partitioned`] one is
/// assembled transiently for each checkout.
///
/// [`Runtime::Locked`]: crate::config::Runtime::Locked
/// [`Runtime::Partitioned`]: crate::config::Runtime::Partitioned
#[derive(Debug)]
pub(crate) struct LockedCore {
    /// Per-client log chains.
    pub(crate) chains: ChainSet,
    /// Distributed metadata service (KV + node buffers + read caches).
    pub(crate) metadata: MetadataService,
    /// Per-KV-partition heat shards (segment read counters).
    pub(crate) heat: Vec<RwLock<HashMap<SegKey, AtomicU32>>>,
}

/// What one [`WriteCommit`](Req::WriteCommit) punch (or a router-level
/// merge of several) produced: the claimed keys, the displaced middles
/// keyed by their original record so the router can restore the locked
/// runtime's global key order, and the surviving edge fragments (not yet
/// re-inserted — they ride the finish wave so the removed-empty
/// early-return matches `punch_inner`).
#[derive(Debug, Default)]
pub(crate) struct PunchOutcome {
    /// Keys claimed out of the index.
    pub(crate) removed: Vec<SegKey>,
    /// Displaced middle spans, keyed by the record they were cut from.
    pub(crate) displaced: Vec<(SegKey, Displaced)>,
    /// Surviving left/right fragments to re-insert.
    pub(crate) fragments: Vec<(SegKey, SegmentRecord)>,
}

/// The leftovers of a [`WriteFused`](Req::WriteFused) commit: what the
/// handler could not apply locally and hands back to the router.
#[derive(Debug, Default)]
pub(crate) struct FusedReply {
    /// Keys the punch claimed (sweep input for other workers' nodes).
    pub(crate) removed: Vec<SegKey>,
    /// Surviving fragments (sweep re-cache input). Those on the fused
    /// worker's own partitions are already re-inserted; a block-aligned
    /// right edge can escape even a single-owner span, and the router
    /// installs it on its owner.
    pub(crate) fragments: Vec<(SegKey, SegmentRecord)>,
    /// Displaced spans owned by other workers' chains, in release order.
    pub(crate) foreign_spans: Vec<Span>,
}

/// A read-cache probe result: `Some` hits, or `None` for a miss (the
/// router falls back to a distributed scan).
type CacheProbe = Option<Vec<(SegKey, SegmentRecord)>>;

/// A producer node-buffer refresh: the node plus the committed records
/// keyed by logical offset, shared across the finish fan-out.
type BufferRefresh = (usize, Arc<[(u64, SegmentRecord)]>);

/// What a [`ReadPlan`](Req::ReadPlan) handler gathered in one pass.
#[derive(Debug)]
pub(crate) struct PlanReply {
    /// Node-buffer hits overlapping the request.
    pub(crate) local: Vec<(SegKey, SegmentRecord)>,
    /// `None` when the node buffer fully covered the request; otherwise
    /// the generation observed and the read-cache probe result.
    pub(crate) remote: Option<(u64, CacheProbe)>,
}

/// A worker's entire owned state, detached for a checkout and re-installed
/// afterwards.
#[derive(Debug, Default)]
struct Slice {
    /// Owned KV partitions: partition → records.
    kv: HashMap<usize, BTreeMap<SegKey, SegmentRecord>>,
    /// Owned per-partition KV put counters.
    puts: HashMap<usize, u64>,
    /// Owned per-partition KV get (visit) counters.
    gets: HashMap<usize, u64>,
    /// Owned nodes' shared metadata buffers.
    local: HashMap<usize, NodeBuffer>,
    /// Owned nodes' read record caches.
    read_cache: HashMap<usize, ReadCache>,
    /// Owned clients' log chains.
    chains: Vec<(ClientId, ProcChain)>,
    /// Owned heat shards: partition → key → read count.
    heat: HashMap<usize, HashMap<SegKey, u32>>,
}

/// A typed reply, deposited into the request's [`ReplySlot`].
enum Reply {
    Placed(SimResult<Vec<PlacedSegment>>),
    Punch(PunchOutcome),
    Records(Vec<(SegKey, SegmentRecord)>),
    Fetched(SimResult<Vec<(Payload, Tier)>>),
    Fused(SimResult<FusedReply>),
    Plan(SimResult<PlanReply>),
}

/// A reusable one-shot reply cell: the routing layer's replacement for a
/// per-request `mpsc::channel()` pair. The router pops one from the pool
/// (or allocates on a dry pool), clones the `Arc` into the request, and
/// blocks in [`take`](ReplySlot::take); the worker deposits exactly one
/// reply with [`fill`](ReplySlot::fill). After `take` the slot is empty
/// again and returns to the pool.
///
/// The `filled` flag lets the router spin briefly without touching the
/// mutex; the mutex + condvar make the blocking path race-free. A worker
/// never touches the slot after `fill`, so recycling cannot observe a
/// stale writer.
struct ReplySlot {
    filled: AtomicBool,
    cell: Mutex<Option<Reply>>,
    cv: Condvar,
}

impl std::fmt::Debug for ReplySlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplySlot").finish_non_exhaustive()
    }
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

/// A typed request to one partition worker. Every variant that produces a
/// result carries a pooled [`ReplySlot`]; [`Heat`](Req::Heat),
/// [`WriteFinish`](Req::WriteFinish), and
/// [`CacheInstall`](Req::CacheInstall) are fire-and-forget (infallible,
/// and mailbox FIFO order sequences them before any later observer) and
/// [`Shutdown`](Req::Shutdown) ends the event loop.
enum Req {
    /// Append a payload run to `client`'s chain — `ChainSet::append_many`
    /// semantics (per-piece fault draw, full-batch rollback). With
    /// `ensure` set, the chain is created first if absent (the fused
    /// replacement for a separate EnsureChain round-trip).
    Append {
        client: ClientId,
        payloads: Vec<Payload>,
        ensure: bool,
        reply: Arc<ReplySlot>,
    },
    /// First commit wave: claim every owned record overlapping `[lo, hi)`
    /// of `fid` (`punch_inner`'s scan+claim restricted to this worker's
    /// partitions), then install this worker's slice of the batch's new
    /// records (one `puts` bump per record, matching `DistKv::put_batch`).
    /// The punch precedes the puts so the CAS claim never sees a new
    /// record at an overwritten offset.
    WriteCommit {
        fid: u64,
        lo: u64,
        hi: u64,
        records: Vec<(SegKey, SegmentRecord)>,
        reply: Arc<ReplySlot>,
    },
    /// Second commit wave (fire-and-forget): this worker's fragment puts,
    /// node-buffer sweep (removed keys shared as `Arc<[_]>` across the
    /// fan-out, posted only to workers whose nodes may track the fid),
    /// producer buffer refresh (`reinsert`, ordered *after* the sweep so
    /// the buffer ends up in the locked sweep-then-insert state), and
    /// chain releases in punch order.
    WriteFinish {
        fid: u64,
        put_fragments: Vec<(SegKey, SegmentRecord)>,
        removed: Arc<[SegKey]>,
        fragments: Arc<[(SegKey, SegmentRecord)]>,
        sweep: bool,
        reinsert: Option<BufferRefresh>,
        release: Vec<(ClientId, VirtualAddr, u64)>,
    },
    /// Single-round-trip write: the whole write driver
    /// ([`write::write`]) run inside the handler over this worker's own
    /// maps — plan, ensure + append, coalesce, stamp, kv-insert draw,
    /// punch, fragment puts, sweep, record puts, buffer insert, generation
    /// bump, releases — with the retry loops *inside* the handler. Only
    /// valid when this worker owns the whole widened span and the producer
    /// chain (the router gates on [`PartitionedCore::fused_owner`]).
    WriteFused {
        op: WriteOp,
        payload: Payload,
        reply: Arc<ReplySlot>,
    },
    /// Fused read plan: node-buffer lookup, and — only when the buffer
    /// does not fully cover the request — the `kv_lookup` fault draw plus
    /// the generation-validated read-cache probe, in one message.
    ReadPlan {
        node: usize,
        fid: u64,
        lo: u64,
        hi: u64,
        reply: Arc<ReplySlot>,
    },
    /// Bump heat counters on owned shards. Fire-and-forget: the read path
    /// never waits on it, and mailbox FIFO order still sequences it before
    /// any later checkout.
    Heat { keys: Vec<SegKey> },
    /// `lookup_range`'s scan restricted to this worker's partitions
    /// (per-visited-server `gets` bump included).
    Scan {
        fid: u64,
        lo: u64,
        hi: u64,
        reply: Arc<ReplySlot>,
    },
    /// Install a fetched window into an owned node's read cache, unless
    /// the fid's generation moved while the lookup was in flight.
    /// Fire-and-forget: the read's answer never depends on it.
    CacheInstall {
        node: usize,
        fid: u64,
        lo: u64,
        fetch_hi: u64,
        gen: u64,
        records: Vec<(SegKey, SegmentRecord)>,
    },
    /// Batched fragment fetch from `client`'s chain —
    /// `ChainSet::read_at_many` semantics (in-order per-fragment fault
    /// draws, fail-fast).
    Fetch {
        client: ClientId,
        requests: Vec<(VirtualAddr, u64)>,
        reply: Arc<ReplySlot>,
    },
    /// Detach the worker's slice, park until the router checks it back in.
    /// The cold checkout path keeps plain `mpsc` channels — slices are
    /// large and the exchange is rare, so pooling buys nothing.
    Checkout {
        reply: Sender<Slice>,
        checkin: Receiver<Slice>,
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

fn inject(
    injector: &Option<Arc<FaultInjector>>,
    site: &'static str,
    tier: Option<Tier>,
) -> SimResult<()> {
    match injector {
        Some(inj) => inj.inject(site, tier),
        None => Ok(()),
    }
}

/// Pull the next request: busy-poll up to `spin` iterations (growing the
/// budget toward `spin_cap` on a hit, halving it before parking on a
/// miss), then block. `None` means the router dropped the channel.
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

/// One partition worker: the event loop plus everything it owns.
struct Worker {
    /// This worker's index.
    id: usize,
    /// Total workers (the modulus of the ownership map).
    workers: usize,
    partitioner: RangePartitioner,
    /// Per-process layer capacities for chains built on demand.
    layer_caps: Vec<(Tier, u64)>,
    chunk_size: u64,
    procs_per_node: usize,
    /// Shared per-fid generation table (cache validation), cloned from the
    /// router so checkouts keep one coherent counter set.
    generations: Generations,
    injector: Option<Arc<FaultInjector>>,
    /// The job's write policy, for the driver run inside fused commits.
    policy: Arc<WritePolicy>,
    metrics: PartitionMetrics,
    spin_cap: u32,
    // ---- exclusively owned state (plain maps, no locks) ----
    kv: HashMap<usize, BTreeMap<SegKey, SegmentRecord>>,
    puts: HashMap<usize, u64>,
    gets: HashMap<usize, u64>,
    local: HashMap<usize, NodeBuffer>,
    read_cache: HashMap<usize, ReadCache>,
    chains: HashMap<ClientId, ProcChain>,
    heat: HashMap<usize, HashMap<SegKey, u32>>,
}

impl Worker {
    fn run(mut self, rx: Receiver<Envelope>) {
        let mut spin: u32 = if self.spin_cap > 0 { 1 } else { 0 };
        loop {
            let Some(env) = next_request(&rx, self.spin_cap, &mut spin) else {
                return; // router dropped the mailbox
            };
            self.metrics.mailbox_depth.dec();
            self.metrics
                .wait_seconds
                .observe(env.at.elapsed().as_secs_f64());
            self.metrics.messages.inc();
            match env.req {
                Req::Append {
                    client,
                    payloads,
                    ensure,
                    reply,
                } => {
                    self.metrics.batched_ops.add(payloads.len() as u64);
                    let result = if ensure {
                        self.ensure_chain(client)
                            .and_then(|()| self.append(client, payloads))
                    } else {
                        self.append(client, payloads)
                    };
                    reply.fill(Reply::Placed(result));
                }
                Req::WriteCommit {
                    fid,
                    lo,
                    hi,
                    records,
                    reply,
                } => {
                    self.metrics.batched_ops.add(1 + records.len() as u64);
                    let out = self.punch(fid, lo, hi);
                    self.put_records(records);
                    reply.fill(Reply::Punch(out));
                }
                Req::WriteFinish {
                    fid,
                    put_fragments,
                    removed,
                    fragments,
                    sweep,
                    reinsert,
                    release,
                } => {
                    self.metrics.batched_ops.inc();
                    self.put_records(put_fragments);
                    if sweep && !removed.is_empty() {
                        self.buffer_apply(fid, &removed, &fragments);
                    }
                    if let Some((node, records)) = reinsert {
                        buffer_insert(self.local.entry(node).or_default(), fid, &records);
                    }
                    for (client, va, len) in release {
                        self.release(client, va, len);
                    }
                }
                Req::WriteFused { op, payload, reply } => {
                    self.metrics.batched_ops.add(piece_count(
                        self.policy.segment_size,
                        op.offset,
                        payload.len(),
                    ));
                    reply.fill(Reply::Fused(self.fused_write(&op, payload)));
                }
                Req::ReadPlan {
                    node,
                    fid,
                    lo,
                    hi,
                    reply,
                } => {
                    self.metrics.batched_ops.inc();
                    reply.fill(Reply::Plan(self.read_plan(node, fid, lo, hi)));
                }
                Req::Heat { keys } => {
                    self.metrics.batched_ops.add(keys.len() as u64);
                    for key in keys {
                        let shard = self.partitioner.server_for(key.offset).0;
                        *self.heat.entry(shard).or_default().entry(key).or_insert(0) += 1;
                    }
                }
                Req::Scan { fid, lo, hi, reply } => {
                    self.metrics.batched_ops.inc();
                    let mut records = Vec::new();
                    self.visit_span(fid, lo, hi, &mut records);
                    reply.fill(Reply::Records(records));
                }
                Req::CacheInstall {
                    node,
                    fid,
                    lo,
                    fetch_hi,
                    gen,
                    records,
                } => {
                    self.metrics.batched_ops.inc();
                    self.cache_install(node, fid, lo, fetch_hi, gen, records);
                }
                Req::Fetch {
                    client,
                    requests,
                    reply,
                } => {
                    self.metrics.batched_ops.add(requests.len() as u64);
                    reply.fill(Reply::Fetched(self.fetch(client, &requests)));
                }
                Req::Checkout { reply, checkin } => {
                    self.metrics.batched_ops.inc();
                    let _ = reply.send(self.take_slice());
                    match checkin.recv() {
                        Ok(slice) => self.install_slice(slice),
                        // Router dropped mid-checkout (it panicked): the
                        // job is gone, so the worker exits too.
                        Err(_) => return,
                    }
                }
                Req::Shutdown => return,
            }
        }
    }

    fn ensure_chain(&mut self, client: ClientId) -> SimResult<()> {
        if self.chains.contains_key(&client) {
            return Ok(());
        }
        let chain = ProcChain::new(self.layer_caps.clone(), self.chunk_size)?;
        self.chains.insert(client, chain);
        Ok(())
    }

    /// [`append_run`] on an owned chain.
    fn append(
        &mut self,
        client: ClientId,
        payloads: Vec<Payload>,
    ) -> SimResult<Vec<PlacedSegment>> {
        let Some(chain) = self.chains.get_mut(&client) else {
            return Err(no_chain(client));
        };
        append_run(chain, self.injector.as_deref(), client, 0, payloads)
    }

    /// Release a span of an owned chain; a missing chain is a no-op (as
    /// for `ChainSet::release`).
    fn release(&mut self, client: ClientId, va: VirtualAddr, len: u64) {
        if let Some(chain) = self.chains.get_mut(&client) {
            chain.release(va, len);
        }
    }

    /// The single-round-trip write: the write driver over this worker as
    /// its executor ([`FusedWrite`]). The driver's retry loops therefore
    /// run *here* — the append and the kv-insert draw retry independently,
    /// so the router must not replay the message (a replay would append
    /// twice).
    fn fused_write(&mut self, op: &WriteOp, payload: Payload) -> SimResult<FusedReply> {
        debug_assert_eq!(op.node % self.workers, self.id, "fused write misrouted");
        let policy = Arc::clone(&self.policy);
        let mut exec = FusedWrite {
            worker: self,
            reply: FusedReply::default(),
        };
        write::write(&mut exec, &policy, op, payload)?;
        Ok(exec.reply)
    }

    /// The fused read plan: node-buffer lookup; only when it does not
    /// cover the request, the `kv_lookup` fault draw (the locked
    /// `lookup_range_cached` draws it before touching state) and the
    /// generation-validated cache probe.
    fn read_plan(&self, node: usize, fid: u64, lo: u64, hi: u64) -> SimResult<PlanReply> {
        let local = match self.local.get(&node) {
            Some(buffer) => buffer_lookup(buffer, fid, lo, hi),
            None => Vec::new(),
        };
        let remote = if covered_bytes(&local, lo, hi) < hi - lo {
            inject(&self.injector, "kv_lookup", None)?;
            let gen = self.generations.get(fid);
            let probe = self
                .read_cache
                .get(&node)
                .and_then(|cache| cache_probe(cache, fid, lo, hi, gen));
            Some((gen, probe))
        } else {
            None
        };
        Ok(PlanReply { local, remote })
    }

    /// Scan owned partitions of the punch span, bumping `gets` per owned
    /// visited server exactly like `DistKv::for_each_in_range`, then claim
    /// each overlapped record with a compare-and-delete (one `puts` bump
    /// per attempt, like `remove_if_eq_batch`).
    fn punch(&mut self, fid: u64, lo: u64, hi: u64) -> PunchOutcome {
        let mut out = PunchOutcome::default();
        if lo >= hi {
            return out;
        }
        let mut overlapping: Vec<(SegKey, SegmentRecord)> = Vec::new();
        self.visit_span(fid, lo, hi, &mut overlapping);
        if overlapping.is_empty() {
            return out;
        }
        overlapping.sort_by_key(|(k, _)| *k);
        for (k, v) in overlapping {
            let server = self.partitioner.server_for(k.offset).0;
            *self.puts.entry(server).or_insert(0) += 1;
            let claimed = match self.kv.get_mut(&server) {
                Some(shard) => match shard.get(&k) {
                    Some(current) if *current == v => {
                        shard.remove(&k);
                        true
                    }
                    _ => false,
                },
                None => false,
            };
            if !claimed {
                continue;
            }
            out.removed.push(k);
            let displaced = split_overlapped(k, v, lo, hi, &mut out.fragments);
            out.displaced.push((k, displaced));
        }
        out
    }

    /// The shared scan of `punch`/`scan`: visit each owned server of the
    /// widened span `[scan_start(lo), hi)` in partitioner order, bump its
    /// `gets` counter (even when nothing matches — a visit is a visit),
    /// and collect the records actually overlapping `[lo, hi)`.
    fn visit_span(&mut self, fid: u64, lo: u64, hi: u64, into: &mut Vec<(SegKey, SegmentRecord)>) {
        let scan_lo = scan_start(lo, self.partitioner.range_size);
        let lo_key = SegKey {
            fid,
            offset: scan_lo,
        };
        let hi_key = SegKey { fid, offset: hi };
        for server in self.partitioner.servers_for_span(scan_lo, hi) {
            let server = server.0;
            if server % self.workers != self.id {
                continue;
            }
            *self.gets.entry(server).or_insert(0) += 1;
            if let Some(shard) = self.kv.get(&server) {
                for (k, v) in shard.range(lo_key..hi_key) {
                    if k.fid == fid && k.offset < hi && k.offset + v.len > lo {
                        into.push((*k, *v));
                    }
                }
            }
        }
    }

    fn put_records(&mut self, items: impl IntoIterator<Item = (SegKey, SegmentRecord)>) {
        for (k, v) in items {
            let server = self.partitioner.server_for(k.offset).0;
            *self.puts.entry(server).or_insert(0) += 1;
            self.kv.entry(server).or_default().insert(k, v);
        }
    }

    fn buffer_apply(
        &mut self,
        fid: u64,
        removed: &[SegKey],
        fragments: &[(SegKey, SegmentRecord)],
    ) {
        for buffer in self.local.values_mut() {
            buffer_sweep(buffer, fid, removed, fragments);
        }
    }

    fn cache_install(
        &mut self,
        node: usize,
        fid: u64,
        lo: u64,
        fetch_hi: u64,
        gen: u64,
        records: Vec<(SegKey, SegmentRecord)>,
    ) {
        // Same re-check as `lookup_range_cached`: a mutation that landed
        // (and bumped) while the lookup was in flight may have produced a
        // window mixing old and new state — never cache it.
        if self.generations.get(fid) == gen {
            let cache = self.read_cache.entry(node).or_default();
            cache_store(cache, fid, lo, fetch_hi, gen, records);
        }
    }

    fn fetch(
        &self,
        client: ClientId,
        requests: &[(VirtualAddr, u64)],
    ) -> SimResult<Vec<(Payload, Tier)>> {
        let Some(chain) = self.chains.get(&client) else {
            return Err(no_chain(client));
        };
        requests
            .iter()
            .map(|&(va, len)| {
                let payload = chain.read(va, len)?;
                let tier = chain.tier_of(va);
                inject(&self.injector, "chain_read", Some(tier))?;
                let payload = match &self.injector {
                    Some(inj) => inj.corrupt_read(client, va, payload),
                    None => payload,
                };
                Ok((payload, tier))
            })
            .collect()
    }

    fn take_slice(&mut self) -> Slice {
        Slice {
            kv: std::mem::take(&mut self.kv),
            puts: std::mem::take(&mut self.puts),
            gets: std::mem::take(&mut self.gets),
            local: std::mem::take(&mut self.local),
            read_cache: std::mem::take(&mut self.read_cache),
            chains: std::mem::take(&mut self.chains).into_iter().collect(),
            heat: std::mem::take(&mut self.heat),
        }
    }

    fn install_slice(&mut self, slice: Slice) {
        self.kv = slice.kv;
        self.puts = slice.puts;
        self.gets = slice.gets;
        self.local = slice.local;
        self.read_cache = slice.read_cache;
        self.chains = slice.chains.into_iter().collect();
        self.heat = slice.heat;
    }
}

/// A partition worker as the write driver's executor, inside its
/// `WriteFused` handler: every stage runs in place on the worker's own
/// maps, and whatever belongs to other workers (a foreign right-edge
/// fragment, sweeps of their nodes, displaced spans on their chains)
/// collects in `reply` for the router to post.
struct FusedWrite<'w> {
    worker: &'w mut Worker,
    reply: FusedReply,
}

impl WriteExecutor for FusedWrite<'_> {
    const APPEND_LOCKS: u64 = 0;

    fn append(
        &mut self,
        client: ClientId,
        payloads: Vec<Payload>,
        _primary: bool,
    ) -> SimResult<Vec<PlacedSegment>> {
        self.worker.ensure_chain(client)?;
        self.worker.append(client, payloads)
    }

    fn commit(
        &mut self,
        op: &WriteOp,
        end: u64,
        records: &[(u64, SegmentRecord)],
    ) -> SimResult<BatchOutcome> {
        let w = &mut *self.worker;
        inject(&w.injector, "kv_insert", None)?;
        let fid = op.fid;
        let punched = w.punch(fid, op.offset, end);
        // The sweep's fid-tracking check must see *pre-insert* buffer
        // state, so it precedes the producer buffer refresh; fragment and
        // record keys never collide, so their put order is free.
        let own: Vec<(SegKey, SegmentRecord)> = punched
            .fragments
            .iter()
            .copied()
            .filter(|(k, _)| w.partitioner.server_for(k.offset).0 % w.workers == w.id)
            .collect();
        w.put_records(own);
        if !punched.removed.is_empty() {
            w.buffer_apply(fid, &punched.removed, &punched.fragments);
        }
        w.put_records(
            records
                .iter()
                .map(|&(offset, record)| (SegKey { fid, offset }, record)),
        );
        buffer_insert(w.local.entry(op.node).or_default(), fid, records);
        w.generations.bump(fid);
        self.reply.removed = punched.removed;
        self.reply.fragments = punched.fragments;
        Ok(BatchOutcome {
            displaced: punched.displaced.into_iter().map(|(_, d)| d).collect(),
            locks: CommitStats::default(),
        })
    }

    fn finish(
        &mut self,
        _op: &WriteOp,
        _records: &[(u64, SegmentRecord)],
        spans: Vec<Span>,
    ) -> u64 {
        let w = &mut *self.worker;
        for (client, va, len) in spans {
            if (client.rank as usize / w.procs_per_node) % w.workers == w.id {
                w.release(client, va, len);
            } else {
                self.reply.foreign_spans.push((client, va, len));
            }
        }
        0
    }
}

fn no_chain(client: ClientId) -> SimError {
    SimError::InvalidConfig(format!("no chain for producer {client:?}"))
}

/// The router's handle to one worker.
struct WorkerHandle {
    tx: SyncSender<Envelope>,
    metrics: PartitionMetrics,
    join: Option<JoinHandle<()>>,
}

impl WorkerHandle {
    fn post(&self, req: Req) {
        self.metrics.mailbox_depth.inc();
        self.tx
            .send(Envelope {
                at: Instant::now(),
                req,
            })
            .expect("partition worker died");
    }

    /// Shutdown-path post: a worker that already exited must not panic
    /// the `Drop` impl.
    fn post_quiet(&self, req: Req) {
        self.metrics.mailbox_depth.inc();
        let _ = self.tx.send(Envelope {
            at: Instant::now(),
            req,
        });
    }
}

fn recv<T>(rx: Receiver<T>) -> T {
    rx.recv().expect("partition worker died")
}

thread_local! {
    /// Span-owner scratch, reused across calls (the former `span_owners`
    /// allocated a fresh `Vec` per punch/scan).
    static OWNERS: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    /// Awaited reply slots of one request wave.
    static WAVE: RefCell<Vec<Arc<ReplySlot>>> = const { RefCell::new(Vec::new()) };
    /// Per-owner record scatter groups (outer vec reused; the inner vecs
    /// travel with the messages).
    static REC_GROUPS: RefCell<Vec<Vec<(SegKey, SegmentRecord)>>> =
        const { RefCell::new(Vec::new()) };
    /// Per-owner span scatter groups for chain releases.
    static SPAN_GROUPS: RefCell<Vec<Vec<(ClientId, VirtualAddr, u64)>>> =
        const { RefCell::new(Vec::new()) };
    /// Per-owner key scatter groups for heat bumps.
    static KEY_GROUPS: RefCell<Vec<Vec<SegKey>>> = const { RefCell::new(Vec::new()) };
}

/// The partitioned runtime: worker pool, ownership map, the reply-slot
/// pool, and the shared job-level tables that stay with the router
/// (generation counters, the fid-tracking mask, the checkout serializer).
#[derive(Debug)]
pub(crate) struct PartitionedCore {
    workers: Vec<WorkerHandle>,
    servers: usize,
    nodes: usize,
    procs_per_node: usize,
    partitioner: RangePartitioner,
    generations: Generations,
    /// fid → bitmask (bit `w & 63`) of workers whose nodes may track the
    /// fid in their shared metadata buffers. Conservative-complete: every
    /// buffer insert marks its owner, so a zero bit proves no tracking
    /// (the sweep can skip the worker); a set bit may be stale or — past
    /// 64 workers — aliased, costing only a no-op sweep. Rebuilt
    /// wholesale at each checkout disassembly.
    tracked: RwLock<HashMap<u64, u64>>,
    injector: Option<Arc<FaultInjector>>,
    /// Message-plane instruments: round-trips and reply-pool recycling.
    plane: MsgPlaneMetrics,
    /// Recycled reply slots (see [`ReplySlot`]).
    slots: Mutex<Vec<Arc<ReplySlot>>>,
    spin_cap: u32,
    /// Serializes checkouts: only one caller may hold the assembled
    /// locked core at a time.
    checkout: Mutex<()>,
    /// Excludes checkouts for the span of one routed multi-step protocol
    /// (a write's append → commit → finish sequence, a read's plan →
    /// scan → fetch). The locked runtime commits those steps under one
    /// metadata lock; here they are separate messages, and a checkout
    /// pass interleaving between them would see — and migrate against —
    /// a half-committed index, then have its work clobbered by the
    /// remaining steps (a stale node-buffer record pointing at released
    /// chain space). Routed ops hold the read side; `with_checked_out`
    /// takes the write side before parking the workers.
    ops: RwLock<()>,
}

impl std::fmt::Debug for WorkerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerHandle").finish_non_exhaustive()
    }
}

impl PartitionedCore {
    /// Spawn `cfg.partition_workers()` event loops, each pre-populated
    /// with its owned (initially empty) KV partitions, heat shards, node
    /// buffers, and read caches. Mailboxes are bounded by
    /// `cfg.mailbox_depth` (any depth ≥ 1 is deadlock-free: workers never
    /// post to each other, so a full mailbox only blocks the router).
    pub(crate) fn new(
        cfg: &UniviStorConfig,
        policy: &Arc<WritePolicy>,
        injector: Option<Arc<FaultInjector>>,
        layer_caps: Vec<(Tier, u64)>,
    ) -> Self {
        let metrics = &policy.metrics;
        let servers = cfg.geometry.total_servers().max(1);
        let nodes = cfg.geometry.nodes;
        let pool = cfg.partition_workers();
        let mailbox_depth = cfg.mailbox_depth.max(1);
        let partitioner = RangePartitioner::new(cfg.metadata_range_size, servers);
        let generations = Generations::default();
        let spin_cap = match std::thread::available_parallelism() {
            Ok(n) if n.get() > 1 => SPIN_CAP,
            _ => 0,
        };
        let mut workers = Vec::with_capacity(pool);
        for (id, handles) in metrics.partition_handles(pool).into_iter().enumerate() {
            let (tx, rx) = mpsc::sync_channel(mailbox_depth);
            let worker = Worker {
                id,
                workers: pool,
                partitioner,
                layer_caps: layer_caps.clone(),
                chunk_size: cfg.chunk_size,
                procs_per_node: cfg.geometry.procs_per_node.max(1),
                generations: generations.clone(),
                injector: injector.clone(),
                policy: Arc::clone(policy),
                metrics: handles.clone(),
                spin_cap,
                kv: (id..servers)
                    .step_by(pool)
                    .map(|p| (p, BTreeMap::new()))
                    .collect(),
                puts: (id..servers).step_by(pool).map(|p| (p, 0)).collect(),
                gets: (id..servers).step_by(pool).map(|p| (p, 0)).collect(),
                local: (id..nodes)
                    .step_by(pool)
                    .map(|n| (n, HashMap::new()))
                    .collect(),
                read_cache: (id..nodes)
                    .step_by(pool)
                    .map(|n| (n, HashMap::new()))
                    .collect(),
                chains: HashMap::new(),
                heat: (id..servers)
                    .step_by(pool)
                    .map(|p| (p, HashMap::new()))
                    .collect(),
            };
            let join = std::thread::Builder::new()
                .name(format!("univistor-part-{id}"))
                .spawn(move || worker.run(rx))
                .expect("spawn partition worker");
            workers.push(WorkerHandle {
                tx,
                metrics: handles,
                join: Some(join),
            });
        }
        PartitionedCore {
            workers,
            servers,
            nodes,
            procs_per_node: cfg.geometry.procs_per_node.max(1),
            partitioner,
            generations,
            tracked: RwLock::new(HashMap::new()),
            injector,
            plane: metrics.msgplane_handles(),
            slots: Mutex::new(Vec::new()),
            spin_cap,
            checkout: Mutex::new(()),
            ops: RwLock::new(()),
        }
    }

    /// Workers in the pool.
    pub(crate) fn workers(&self) -> usize {
        self.workers.len()
    }

    fn owner_of_partition(&self, partition: usize) -> usize {
        partition % self.workers.len()
    }

    /// The worker owning compute node `node`'s buffers and caches.
    fn owner_of_node(&self, node: usize) -> usize {
        node % self.workers.len()
    }

    /// The worker owning `client`'s chain: the owner of its node.
    fn owner_of_client(&self, client: ClientId) -> usize {
        self.owner_of_node(client.rank as usize / self.procs_per_node)
    }

    /// The KV partition (server index) owning logical `offset` — the
    /// router-side mirror of `MetadataService::partition_of`.
    fn partition_of(&self, offset: u64) -> usize {
        self.partitioner.server_for(offset).0
    }

    /// Metadata servers a `lookup_range(fid, lo, hi)` would visit — the
    /// locked runtime charges one RPC per visited server, so the routed
    /// read path computes the same count here.
    fn rpc_servers(&self, lo: u64, hi: u64) -> usize {
        let scan_lo = scan_start(lo, self.partitioner.range_size);
        self.partitioner.servers_for_span(scan_lo, hi).len()
    }

    // ---- reply-slot pool ----

    fn slot(&self) -> Arc<ReplySlot> {
        match self.slots.lock().expect("reply pool poisoned").pop() {
            Some(slot) => {
                self.plane.pool_hits.inc();
                slot
            }
            None => {
                self.plane.pool_misses.inc();
                Arc::new(ReplySlot::new())
            }
        }
    }

    fn release_slot(&self, slot: Arc<ReplySlot>) {
        self.slots.lock().expect("reply pool poisoned").push(slot);
    }

    /// One awaited round-trip to `owner`: pooled slot out, request in,
    /// reply back, slot recycled.
    fn call(&self, owner: usize, make: impl FnOnce(Arc<ReplySlot>) -> Req) -> Reply {
        let slot = self.slot();
        self.workers[owner].post(make(Arc::clone(&slot)));
        self.plane.round_trips.inc();
        let reply = slot.take(self.spin_cap);
        self.release_slot(slot);
        reply
    }

    /// One awaited request wave: post `make(slot)` to every owner, then
    /// take the replies in posting order.
    fn wave(
        &self,
        owners: impl IntoIterator<Item = usize>,
        mut make: impl FnMut(usize, Arc<ReplySlot>) -> Req,
        mut absorb: impl FnMut(Reply),
    ) {
        WAVE.with_borrow_mut(|wave| {
            for owner in owners {
                let slot = self.slot();
                self.workers[owner].post(make(owner, Arc::clone(&slot)));
                wave.push(slot);
            }
            for slot in wave.drain(..) {
                self.plane.round_trips.inc();
                absorb(slot.take(self.spin_cap));
                self.release_slot(slot);
            }
        });
    }

    // ---- fid-tracking mask (node-buffer sweep targeting) ----

    fn tracked_mask(&self, fid: u64) -> u64 {
        self.tracked
            .read()
            .expect("tracked poisoned")
            .get(&fid)
            .copied()
            .unwrap_or(0)
    }

    fn mark_tracked(&self, fid: u64, worker: usize) {
        let bit = 1u64 << (worker & 63);
        if self.tracked_mask(fid) & bit != 0 {
            return;
        }
        *self
            .tracked
            .write()
            .expect("tracked poisoned")
            .entry(fid)
            .or_insert(0) |= bit;
    }

    /// Workers owning at least one server of the widened span
    /// `[scan_start(lo), hi)`, in first-touch span order, written into the
    /// caller's reused scratch. A seen bitmask replaces the former
    /// O(owners²) `Vec::contains` dedup; past 64 workers an aliased bit
    /// falls back to the exact (rare) check.
    fn span_owners_into(&self, lo: u64, hi: u64, owners: &mut Vec<usize>) {
        owners.clear();
        let pool = self.workers.len();
        let mut seen: u64 = 0;
        let scan_lo = scan_start(lo, self.partitioner.range_size);
        for server in self.partitioner.servers_for_span(scan_lo, hi) {
            let owner = server.0 % pool;
            let bit = 1u64 << (owner & 63);
            if seen & bit == 0 {
                seen |= bit;
                owners.push(owner);
            } else if pool > 64 && !owners.contains(&owner) {
                owners.push(owner);
            }
        }
    }

    // ---- routed protocol ----

    /// Create `client`'s chain if absent (an ensure-only append).
    pub(crate) fn ensure_chain(&self, client: ClientId) -> SimResult<()> {
        self.append(client, Vec::new(), true).map(|_| ())
    }

    /// Error exactly like a chain lookup if `client` has no chain (an
    /// empty append that must not create one).
    pub(crate) fn chain_exists(&self, client: ClientId) -> SimResult<()> {
        self.append(client, Vec::new(), false).map(|_| ())
    }

    /// Append a payload run to `client`'s chain (see [`Req::Append`]).
    fn append(
        &self,
        client: ClientId,
        payloads: Vec<Payload>,
        ensure: bool,
    ) -> SimResult<Vec<PlacedSegment>> {
        match self.call(self.owner_of_client(client), |reply| Req::Append {
            client,
            payloads,
            ensure,
            reply,
        }) {
            Reply::Placed(r) => r,
            _ => unreachable!("append reply"),
        }
    }

    /// First commit wave: punch `[lo, hi)` of `fid` across every owning
    /// worker, each installing its slice of the batch's new `records` in
    /// the same message, and merge the outcomes back into the locked
    /// runtime's global key order. Record offsets must lie in `[lo, hi)`,
    /// so every record owner is a span owner.
    fn write_commit(
        &self,
        fid: u64,
        lo: u64,
        hi: u64,
        records: &[(u64, SegmentRecord)],
    ) -> PunchOutcome {
        let mut out = PunchOutcome::default();
        if lo >= hi {
            return out;
        }
        OWNERS.with_borrow_mut(|owners| {
            self.span_owners_into(lo, hi, owners);
            REC_GROUPS.with_borrow_mut(|groups| {
                groups.resize_with(self.workers.len(), Vec::new);
                for &(off, record) in records {
                    groups[self.owner_of_partition(self.partition_of(off))]
                        .push((SegKey { fid, offset: off }, record));
                }
                self.wave(
                    owners.iter().copied(),
                    |owner, reply| Req::WriteCommit {
                        fid,
                        lo,
                        hi,
                        records: std::mem::take(&mut groups[owner]),
                        reply,
                    },
                    |reply| match reply {
                        Reply::Punch(part) => {
                            out.removed.extend(part.removed);
                            out.displaced.extend(part.displaced);
                            out.fragments.extend(part.fragments);
                        }
                        _ => unreachable!("write-commit reply"),
                    },
                );
                debug_assert!(
                    groups.iter().all(Vec::is_empty),
                    "record outside the punch span"
                );
            });
        });
        // Per-owner replies concatenate in owner order; the locked punch
        // claims (and therefore releases) in global key order. Restore it.
        out.removed.sort();
        out.displaced.sort_by_key(|(k, _)| *k);
        out.fragments.sort_by_key(|(k, _)| *k);
        out
    }

    /// The fire-and-forget finish wave, the one place `WriteFinish`
    /// messages are posted: fragment puts grouped by owner, the
    /// node-buffer sweep on workers whose nodes may track the fid (one
    /// shared `Arc<[_]>` across the fan-out instead of per-worker clones),
    /// the producer buffer refresh (after the sweep — the locked
    /// sweep-then-insert order), and chain releases. `spans` must already
    /// be sorted by owning client (the write driver's release order);
    /// grouping preserves each chain's relative order.
    ///
    /// `records` is `Some` after a two-wave commit, whose producer worker
    /// still owes its share and the buffer refresh, and `None` after a
    /// fused commit, whose worker already applied its own fragment puts,
    /// sweep and refresh in-handler — there the wave carries only the
    /// rare leftovers and usually posts nothing at all.
    fn write_finish(
        &self,
        fid: u64,
        node: usize,
        removed: Vec<SegKey>,
        fragments: Vec<(SegKey, SegmentRecord)>,
        records: Option<&[(u64, SegmentRecord)]>,
        spans: Vec<Span>,
    ) {
        let pool = self.workers.len();
        let producer = self.owner_of_node(node);
        let settled = records.is_none().then_some(producer);
        // The sweep mask reflects pre-insert tracking state — exactly the
        // buffer state the locked sweep's fid check runs against.
        let mut sweep_mask = if removed.is_empty() {
            0
        } else {
            self.tracked_mask(fid)
        };
        if let Some(w) = settled {
            sweep_mask &= !(1u64 << (w & 63));
        }
        // Fragments on the settled worker's partitions are already in.
        let frag_owner = |k: &SegKey| {
            let owner = self.owner_of_partition(self.partition_of(k.offset));
            (Some(owner) != settled).then_some(owner)
        };
        if sweep_mask != 0
            || records.is_some()
            || !spans.is_empty()
            || fragments.iter().any(|(k, _)| frag_owner(k).is_some())
        {
            let removed: Arc<[SegKey]> = removed.into();
            let fragments: Arc<[(SegKey, SegmentRecord)]> = fragments.into();
            let reinsert: Option<Arc<[(u64, SegmentRecord)]>> = records.map(Arc::from);
            REC_GROUPS.with_borrow_mut(|frag_groups| {
                frag_groups.resize_with(pool, Vec::new);
                for &(k, v) in fragments.iter() {
                    if let Some(owner) = frag_owner(&k) {
                        frag_groups[owner].push((k, v));
                    }
                }
                SPAN_GROUPS.with_borrow_mut(|span_groups| {
                    span_groups.resize_with(pool, Vec::new);
                    for span in spans {
                        span_groups[self.owner_of_client(span.0)].push(span);
                    }
                    for w in 0..pool {
                        let put_fragments = std::mem::take(&mut frag_groups[w]);
                        let release = std::mem::take(&mut span_groups[w]);
                        let sweep = sweep_mask & (1u64 << (w & 63)) != 0;
                        let reinsert = reinsert
                            .as_ref()
                            .filter(|_| w == producer)
                            .map(|records| (node, Arc::clone(records)));
                        if put_fragments.is_empty()
                            && release.is_empty()
                            && !sweep
                            && reinsert.is_none()
                        {
                            continue;
                        }
                        self.workers[w].post(Req::WriteFinish {
                            fid,
                            put_fragments,
                            removed: Arc::clone(&removed),
                            fragments: Arc::clone(&fragments),
                            sweep,
                            reinsert,
                            release,
                        });
                    }
                });
            });
        }
        self.mark_tracked(fid, producer);
    }

    /// The single worker that can absorb a fused write of `[lo, hi)` by
    /// `client` on `node`: every server of the widened punch span and the
    /// producer chain must be owned by one worker. `None` routes the
    /// write through the general two-wave protocol.
    pub(crate) fn fused_owner(
        &self,
        client: ClientId,
        node: usize,
        lo: u64,
        hi: u64,
    ) -> Option<usize> {
        let w = self.owner_of_node(node);
        if self.owner_of_client(client) != w {
            return None;
        }
        OWNERS.with_borrow_mut(|owners| {
            self.span_owners_into(lo, hi, owners);
            (owners.len() == 1 && owners[0] == w).then_some(w)
        })
    }

    /// Single-round-trip write (gate with
    /// [`fused_owner`](Self::fused_owner) first): one awaited message to
    /// the owning worker, which runs the whole write driver in-handler,
    /// then the finish wave for its rare leftovers (a foreign right-edge
    /// fragment, displaced spans on other workers' chains, sweeps of other
    /// workers' tracked nodes). Do **not** wrap in a retry loop — the
    /// handler retries internally (a replay would double-append).
    pub(crate) fn write_fused(&self, op: &WriteOp, payload: Payload) -> SimResult<()> {
        let op = *op;
        let fused = match self.call(self.owner_of_node(op.node), |reply| Req::WriteFused {
            op,
            payload,
            reply,
        }) {
            Reply::Fused(r) => r,
            _ => unreachable!("fused-write reply"),
        }?;
        self.write_finish(
            op.fid,
            op.node,
            fused.removed,
            fused.fragments,
            None,
            fused.foreign_spans,
        );
        Ok(())
    }

    /// The general two-wave protocol as the write driver's executor.
    pub(crate) fn routed_write(&self) -> RoutedWrite<'_> {
        RoutedWrite {
            core: self,
            removed: Vec::new(),
            fragments: Vec::new(),
        }
    }

    /// Fused read plan against `node`'s owner (see [`Req::ReadPlan`]).
    fn read_plan(&self, node: usize, fid: u64, lo: u64, hi: u64) -> SimResult<PlanReply> {
        match self.call(self.owner_of_node(node), |reply| Req::ReadPlan {
            node,
            fid,
            lo,
            hi,
            reply,
        }) {
            Reply::Plan(r) => r,
            _ => unreachable!("read-plan reply"),
        }
    }

    /// Bump heat for the touched keys (fire-and-forget).
    pub(crate) fn bump_heat(&self, keys: Vec<SegKey>) {
        let pool = self.workers.len();
        KEY_GROUPS.with_borrow_mut(|groups| {
            groups.resize_with(pool, Vec::new);
            for key in keys {
                groups[self.owner_of_partition(self.partition_of(key.offset))].push(key);
            }
            for (owner, group) in groups.iter_mut().enumerate() {
                if !group.is_empty() {
                    self.workers[owner].post(Req::Heat {
                        keys: std::mem::take(group),
                    });
                }
            }
        });
    }

    /// Distributed lookup of records intersecting `[lo, hi)` of `fid`,
    /// merged and offset-sorted like `MetadataService::lookup_range`.
    fn scan(&self, fid: u64, lo: u64, hi: u64) -> Vec<(SegKey, SegmentRecord)> {
        let mut records = Vec::new();
        OWNERS.with_borrow_mut(|owners| {
            self.span_owners_into(lo, hi, owners);
            self.wave(
                owners.iter().copied(),
                |_, reply| Req::Scan { fid, lo, hi, reply },
                |reply| match reply {
                    Reply::Records(part) => records.extend(part),
                    _ => unreachable!("scan reply"),
                },
            );
        });
        records.sort_by_key(|(k, _)| *k);
        records
    }

    /// Batched fragment fetch from `client`'s chain.
    fn fetch(
        &self,
        client: ClientId,
        requests: Vec<(VirtualAddr, u64)>,
    ) -> SimResult<Vec<(Payload, Tier)>> {
        match self.call(self.owner_of_client(client), |reply| Req::Fetch {
            client,
            requests,
            reply,
        }) {
            Reply::Fetched(r) => r,
            _ => unreachable!("fetch reply"),
        }
    }

    /// Hold off checkouts while a routed multi-step protocol is in
    /// flight; see the `ops` field. Cheap and uncontended in steady
    /// state — no checkout, no writer, shared acquisition only.
    pub(crate) fn exclude_passes(&self) -> std::sync::RwLockReadGuard<'_, ()> {
        self.ops.read().expect("pass-exclusion gate poisoned")
    }

    /// Park every worker, assemble the full locked core from their slices,
    /// run `f` against it, then disassemble and redistribute by ownership.
    /// Chains or records `f` creates (e.g. repair's re-replication) land on
    /// their correct owners. Serialized: one checkout at a time.
    pub(crate) fn with_checked_out<R>(&self, f: impl FnOnce(&LockedCore) -> R) -> R {
        let _serial = self.checkout.lock().expect("checkout serializer poisoned");
        // Wait for in-flight routed protocols to finish their commit
        // sequences; new ones queue on the gate until the checkin.
        let _excl = self.ops.write().expect("pass-exclusion gate poisoned");
        let mut checkins = Vec::with_capacity(self.workers.len());
        let mut receivers = Vec::with_capacity(self.workers.len());
        for worker in &self.workers {
            let (reply_tx, reply_rx) = mpsc::channel();
            let (checkin_tx, checkin_rx) = mpsc::channel();
            worker.post(Req::Checkout {
                reply: reply_tx,
                checkin: checkin_rx,
            });
            checkins.push(checkin_tx);
            receivers.push(reply_rx);
        }
        let slices: Vec<Slice> = receivers.into_iter().map(recv).collect();
        let core = self.assemble(slices);
        let result = f(&core);
        for (checkin, slice) in checkins.into_iter().zip(self.disassemble(core)) {
            let _ = checkin.send(slice);
        }
        result
    }

    fn assemble(&self, slices: Vec<Slice>) -> LockedCore {
        let mut shards: Vec<BTreeMap<SegKey, SegmentRecord>> =
            (0..self.servers).map(|_| BTreeMap::new()).collect();
        let mut puts = vec![0u64; self.servers];
        let mut gets = vec![0u64; self.servers];
        let mut local: Vec<NodeBuffer> = (0..self.nodes).map(|_| HashMap::new()).collect();
        let mut read_cache: Vec<ReadCache> = (0..self.nodes).map(|_| HashMap::new()).collect();
        let mut heat_maps: Vec<HashMap<SegKey, u32>> =
            (0..self.servers).map(|_| HashMap::new()).collect();
        let mut chain_list: Vec<(ClientId, ProcChain)> = Vec::new();
        for slice in slices {
            for (p, shard) in slice.kv {
                shards[p] = shard;
            }
            for (p, n) in slice.puts {
                puts[p] = n;
            }
            for (p, n) in slice.gets {
                gets[p] = n;
            }
            for (n, buffer) in slice.local {
                local[n] = buffer;
            }
            for (n, cache) in slice.read_cache {
                read_cache[n] = cache;
            }
            for (p, shard) in slice.heat {
                heat_maps[p] = shard;
            }
            chain_list.extend(slice.chains);
        }
        let mut chains: ChainSet = chain_list.into_iter().collect();
        if let Some(inj) = &self.injector {
            chains.set_injector(Arc::clone(inj));
        }
        let metadata = MetadataService::from_parts(
            self.partitioner.range_size,
            shards,
            puts,
            gets,
            local,
            read_cache,
            self.generations.clone(),
            self.injector.clone(),
        );
        let heat = heat_maps
            .into_iter()
            .map(|shard| {
                RwLock::new(
                    shard
                        .into_iter()
                        .map(|(k, n)| (k, AtomicU32::new(n)))
                        .collect(),
                )
            })
            .collect();
        LockedCore {
            chains,
            metadata,
            heat,
        }
    }

    fn disassemble(&self, core: LockedCore) -> Vec<Slice> {
        let LockedCore {
            chains,
            metadata,
            heat,
        } = core;
        let pool = self.workers.len();
        let mut slices: Vec<Slice> = (0..pool).map(|_| Slice::default()).collect();
        let (shards, puts, gets, local, read_cache) = metadata.into_parts();
        for (p, shard) in shards.into_iter().enumerate() {
            slices[p % pool].kv.insert(p, shard);
        }
        for (p, n) in puts.into_iter().enumerate() {
            slices[p % pool].puts.insert(p, n);
        }
        for (p, n) in gets.into_iter().enumerate() {
            slices[p % pool].gets.insert(p, n);
        }
        // Rebuild the fid-tracking mask wholesale — the checkout's `f`
        // (tiering, repair) may have created or dropped buffer entries.
        let mut tracked: HashMap<u64, u64> = HashMap::new();
        for (n, buffer) in local.into_iter().enumerate() {
            for fid in buffer.keys() {
                *tracked.entry(*fid).or_insert(0) |= 1u64 << ((n % pool) & 63);
            }
            slices[n % pool].local.insert(n, buffer);
        }
        *self.tracked.write().expect("tracked poisoned") = tracked;
        for (n, cache) in read_cache.into_iter().enumerate() {
            slices[n % pool].read_cache.insert(n, cache);
        }
        for (p, shard) in heat.into_iter().enumerate() {
            slices[p % pool].heat.insert(
                p,
                shard
                    .into_inner()
                    .expect("heat shard poisoned")
                    .into_iter()
                    .map(|(k, n)| (k, n.into_inner()))
                    .collect(),
            );
        }
        for (client, chain) in chains.into_chain_list() {
            slices[self.owner_of_client(client)]
                .chains
                .push((client, chain));
        }
        slices
    }
}

/// The routed two-wave protocol as the write driver's executor: the append
/// is one awaited message (chain creation folded in), the commit one
/// awaited `WriteCommit` per span
/// owner, and everything after it rides the fire-and-forget finish wave —
/// mailbox FIFO order sequences that before any later observer. Zero
/// counted locks.
pub(crate) struct RoutedWrite<'a> {
    core: &'a PartitionedCore,
    /// The commit's claimed keys and surviving fragments, held for the
    /// finish wave.
    removed: Vec<SegKey>,
    fragments: Vec<(SegKey, SegmentRecord)>,
}

impl WriteExecutor for RoutedWrite<'_> {
    const APPEND_LOCKS: u64 = 0;

    fn append(
        &mut self,
        client: ClientId,
        payloads: Vec<Payload>,
        _primary: bool,
    ) -> SimResult<Vec<PlacedSegment>> {
        self.core.append(client, payloads, true)
    }

    fn commit(
        &mut self,
        op: &WriteOp,
        end: u64,
        records: &[(u64, SegmentRecord)],
    ) -> SimResult<BatchOutcome> {
        // The commit messages themselves are infallible; the router draws
        // the one fault a commit can take, before sending any of them.
        inject(&self.core.injector, "kv_insert", None)?;
        let punched = self.core.write_commit(op.fid, op.offset, end, records);
        self.core.generations.bump(op.fid);
        self.removed = punched.removed;
        self.fragments = punched.fragments;
        Ok(BatchOutcome {
            displaced: punched.displaced.into_iter().map(|(_, d)| d).collect(),
            locks: CommitStats::default(),
        })
    }

    fn finish(&mut self, op: &WriteOp, records: &[(u64, SegmentRecord)], spans: Vec<Span>) -> u64 {
        self.core.write_finish(
            op.fid,
            op.node,
            std::mem::take(&mut self.removed),
            std::mem::take(&mut self.fragments),
            Some(records),
            spans,
        );
        0
    }
}

/// The read and flush pipelines' view of the partitioned runtime: record
/// lookups and chain fetches route to the owning partition workers as
/// ordinary messages, so reads take no counted locks and a close-time
/// flush drains without a whole-core checkout — foreground writers keep
/// committing, fenced by the generation counter. (On the reference, so the
/// read service can hold its source by value like the locked core's pair.)
impl FlushSource for &PartitionedCore {
    fn records(&self, fid: u64, lo: u64, hi: u64) -> (usize, Vec<(SegKey, SegmentRecord)>) {
        (self.rpc_servers(lo, hi), self.scan(fid, lo, hi))
    }

    fn read_spans(
        &self,
        client: ClientId,
        requests: &[(VirtualAddr, u64)],
    ) -> SimResult<Vec<(Payload, Tier)>> {
        self.fetch(client, requests.to_vec())
    }

    fn generation(&self, fid: u64) -> u64 {
        self.generations.get(fid)
    }

    /// One fused `ReadPlan` round-trip to the node owner; on a cache miss
    /// a distributed scan wave, whose window the owner installs
    /// (fire-and-forget) after re-checking the generation — a mutation may
    /// have landed while the scan was in flight.
    fn gather(
        &self,
        node: usize,
        fid: u64,
        lo: u64,
        hi: u64,
        fetch_hi: u64,
    ) -> SimResult<Gathered> {
        let plan = self.read_plan(node, fid, lo, hi)?;
        let remote = plan.remote.map(|(gen, probe)| match probe {
            Some(records) => RemoteLookup {
                records,
                rpcs: 0,
                cache_hit: true,
            },
            None => {
                let records = self.scan(fid, lo, fetch_hi);
                // The read's answer never depends on the install landing,
                // and FIFO order sequences it before any later probe.
                self.workers[self.owner_of_node(node)].post(Req::CacheInstall {
                    node,
                    fid,
                    lo,
                    fetch_hi,
                    gen,
                    records: records.clone(),
                });
                RemoteLookup {
                    records,
                    rpcs: self.rpc_servers(lo, fetch_hi) as u64,
                    cache_hit: false,
                }
            }
        });
        Ok(Gathered {
            local: plan.local,
            remote,
        })
    }
}

impl Drop for PartitionedCore {
    fn drop(&mut self) {
        for worker in &self.workers {
            worker.post_quiet(Req::Shutdown);
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
    use crate::config::UniviStorConfig;
    use crate::metrics::JobMetrics;
    use crate::placement::layer_caps_with_node_local;

    fn core_on(
        metrics: &Arc<JobMetrics>,
        nodes: usize,
        procs_per_node: usize,
        partitions: usize,
    ) -> PartitionedCore {
        let mut cfg = UniviStorConfig::test_small(nodes, procs_per_node);
        cfg.partitions = partitions;
        let caps = layer_caps_with_node_local(
            cfg.cal.dram_cache_capacity_per_node,
            None,
            cfg.geometry.procs_per_node,
            4096,
            cfg.geometry.total_procs(),
        );
        let policy = Arc::new(WritePolicy::new(&cfg, metrics, &Arc::default()));
        PartitionedCore::new(&cfg, &policy, None, caps)
    }

    fn core(nodes: usize, procs_per_node: usize, partitions: usize) -> PartitionedCore {
        core_on(
            &Arc::new(JobMetrics::new()),
            nodes,
            procs_per_node,
            partitions,
        )
    }

    fn op(client: ClientId, fid: u64, node: usize, offset: u64) -> WriteOp {
        WriteOp {
            client,
            fid,
            node,
            offset,
            buddy: None,
        }
    }

    #[test]
    fn ownership_map_is_total_and_stable() {
        let core = core(2, 2, 2);
        assert_eq!(core.workers(), 2);
        for p in 0..4 {
            assert_eq!(core.owner_of_partition(p), p % 2);
        }
        // Clients of node 0 (ranks 0..2) and node 1 (ranks 2..4).
        assert_eq!(core.owner_of_client(ClientId::new(0, 0)), 0);
        assert_eq!(core.owner_of_client(ClientId::new(0, 1)), 0);
        assert_eq!(core.owner_of_client(ClientId::new(0, 2)), 1);
    }

    #[test]
    fn routed_append_and_fetch_roundtrip() {
        let core = core(2, 2, 2);
        let client = ClientId::new(0, 0);
        assert!(core.fetch(client, vec![]).is_err(), "no chain yet");
        core.ensure_chain(client).unwrap();
        core.chain_exists(client).unwrap();
        let placed = core
            .append(client, vec![Payload::pattern(7, 64)], false)
            .unwrap();
        assert_eq!(placed.len(), 1);
        let got = core
            .fetch(client, vec![(placed[0].va, placed[0].len)])
            .unwrap();
        assert!(got[0].0.content_eq(&Payload::pattern(7, 64)));
    }

    #[test]
    fn write_commit_claims_and_fragments_like_the_locked_path() {
        let core = core(2, 2, 2);
        let client = ClientId::new(0, 0);
        let rec = SegmentRecord::new(client, VirtualAddr(100), 100);
        // An insert-only commit (punch of empty index, then the put).
        let out = core.write_commit(1, 0, 100, &[(0, rec)]);
        assert!(out.removed.is_empty());
        // Punch the middle third: one claim, two surviving fragments.
        let out = core.write_commit(1, 30, 60, &[]);
        assert_eq!(out.removed, vec![SegKey { fid: 1, offset: 0 }]);
        assert_eq!(out.displaced.len(), 1);
        assert_eq!(out.displaced[0].1.va, VirtualAddr(130));
        assert_eq!(out.displaced[0].1.len, 30);
        assert_eq!(out.fragments.len(), 2);
        assert_eq!(out.fragments[0].0.offset, 0);
        assert_eq!(out.fragments[1].0.offset, 60);
        // The claimed record is gone; a second punch finds nothing.
        assert!(core.write_commit(1, 30, 60, &[]).removed.is_empty());
    }

    #[test]
    fn fused_write_commits_in_one_handler_pass() {
        // One worker owns everything, so any span gates onto the fused
        // path.
        let core = core(1, 2, 1);
        let client = ClientId::new(0, 0);
        assert_eq!(core.fused_owner(client, 0, 0, 128), Some(0));
        core.write_fused(&op(client, 5, 0, 0), Payload::pattern(9, 128))
            .unwrap();
        // The commit is fully visible: KV record, node buffer, readable
        // bytes, generation bump.
        assert_eq!(core.scan(5, 0, 128).len(), 1);
        let plan = core.read_plan(0, 5, 0, 128).unwrap();
        assert_eq!(plan.local.len(), 1);
        assert!(plan.remote.is_none(), "node buffer covers the read");
        let (_, rec) = core.scan(5, 0, 128)[0];
        let got = core.fetch(client, vec![(rec.va, rec.len)]).unwrap();
        assert!(got[0].0.content_eq(&Payload::pattern(9, 128)));
        assert_eq!(
            core.generations.get(5),
            1,
            "fused write bumps the generation in-handler"
        );
        // Overwrite the middle through the same path: the punch claims
        // the old record and the fragments survive.
        core.write_fused(&op(client, 5, 0, 32), Payload::pattern(4, 64))
            .unwrap();
        let after = core.scan(5, 0, 128);
        assert_eq!(after.len(), 3, "left fragment, new record, right fragment");
        assert_eq!(after[0].0.offset, 0);
        assert_eq!(after[1].0.offset, 32);
        assert_eq!(after[2].0.offset, 96);
    }

    #[test]
    fn reply_slot_pool_recycles_across_round_trips() {
        let metrics = Arc::new(JobMetrics::new());
        let core = core_on(&metrics, 2, 2, 2);
        let client = ClientId::new(0, 0);
        core.ensure_chain(client).unwrap();
        for _ in 0..8 {
            core.chain_exists(client).unwrap();
        }
        let snap = metrics.snapshot();
        let hits = snap
            .counter("univistor_msgplane_reply_pool_hits_total", &[])
            .unwrap_or(0);
        let misses = snap
            .counter("univistor_msgplane_reply_pool_misses_total", &[])
            .unwrap_or(0);
        let trips = snap
            .counter("univistor_partition_round_trips_total", &[])
            .unwrap_or(0);
        assert_eq!(trips, 9, "one awaited round-trip per request");
        assert_eq!(hits + misses, 9);
        assert!(
            hits >= 8,
            "sequential round-trips recycle one slot (hits {hits}, misses {misses})"
        );
    }

    #[test]
    fn checkout_roundtrip_preserves_worker_state() {
        let core = core(2, 2, 2);
        let client = ClientId::new(0, 2); // node 1 → worker 1
        core.ensure_chain(client).unwrap();
        let placed = core
            .append(client, vec![Payload::pattern(3, 64)], false)
            .unwrap();
        let rec = SegmentRecord::new(client, placed[0].va, 64);
        let out = core.write_commit(9, 0, 64, &[(0, rec)]);
        core.write_finish(
            9,
            1,
            out.removed,
            out.fragments,
            Some(&[(0, rec)]),
            Vec::new(),
        );
        // The assembled locked core sees everything the workers own …
        let (len, local_hits, live) = core.with_checked_out(|locked| {
            (
                locked.metadata.len(),
                locked.metadata.lookup_local(1, 9, 0, 64).len(),
                locked.chains.live_bytes(),
            )
        });
        assert_eq!((len, local_hits, live), (1, 1, 64));
        // … and after check-in the workers still serve it, and the
        // rebuilt tracking mask still targets worker 1's sweep.
        let got = core.fetch(client, vec![(placed[0].va, 64)]).unwrap();
        assert!(got[0].0.content_eq(&Payload::pattern(3, 64)));
        assert_eq!(core.scan(9, 0, 64).len(), 1);
        assert_eq!(core.read_plan(1, 9, 0, 64).unwrap().local.len(), 1);
        assert_eq!(core.tracked_mask(9), 1 << 1);
    }
}
