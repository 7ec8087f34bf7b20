//! The UniviStor job: server processes, tier stores, connection management
//! (§II-A).
//!
//! `UniviStorJob` is the shared state of all UniviStor server processes
//! launched across a job's compute nodes. It owns the per-client DHP log
//! chains (the paper's mmap'd shared-memory logs — they outlive client
//! operations and die with the job unless flushed), the distributed
//! metadata service, the destination Lustre file system, and the workflow
//! state file. Client-side drivers (`crate::driver`) call into it; the
//! bench harness calls the same methods rank-by-rank at paper scale.
//!
//! The job's write/read state is one `DataPlane` — the locked core
//! (`LockedCore`: per-client chains, the metadata service, heat shards)
//! plus the config, verifier, corrupt queue, metrics and the failed-node
//! set — decomposed into independently locked shards so that
//! operations by different clients proceed in parallel: the in-process
//! analogue of the contention avoidance the paper builds at system scale
//! (per-process logs, range-partitioned metadata servers). The file table
//! and connection set are `RwLock`ed and read-mostly, file ids come from an
//! atomic, every client's chain has its own lock ([`ChainSet`]), the
//! metadata KV locks per shard, and Lustre sits behind one `RwLock` whose
//! read path takes only the shared side. See DESIGN.md §"Concurrency
//! model" for the shard map and the lock acquisition order.
//!
//! [`Runtime`] says only which thread runs a write
//! or read over that plane: the caller's (**Locked**, the default), or the
//! partition worker owning the caller's node, reached by one message
//! (**Partitioned**, see `crate::runtime`). Flushes, maintenance passes
//! and diagnostics run on the plane from the caller's thread under both.
//! Each stage has one product path; the reference flavours the
//! differential tests compare it against (per-piece write, per-fragment
//! fetch, record-at-a-time flush) live in the test-only `oracle` child
//! module.
//!
//! Every hot path reports into the job's [`JobMetrics`] panel — the only
//! accounting the job keeps — and [`UniviStorJob::metrics`] snapshots it; a
//! phase is the delta of two snapshots ([`MetricsSnapshot::since`]). The
//! one structured leftover the flat panel cannot hold, the flush receipts,
//! is drained by [`UniviStorJob::take_flush_receipts`].

use crate::config::{Runtime, UniviStorConfig};
use crate::error::{Error, Result};
use crate::fault::{with_retries, FaultInjector};
use crate::flush::{
    flush_with_source, parallel_drain, CoreView, Engine, FlushReceipt, FlushRequest,
};
use crate::integrity::Verifier;
use crate::maint::{FileSnap, Maint};
use crate::metadata::{ClientId, MetadataService, SegKey, SegmentRecord};
use crate::metrics::JobMetrics;
use crate::placement::{healthy_buddy, layer_caps_with_node_local, ChainSet, ProcChain};
use crate::read::ReadService;
use crate::repair::{self, RepairReport};
use crate::runtime::WorkerPool;
use crate::scrub::{run_scrub_pass, CorruptQueue, ScrubHandle, ScrubReport, ScrubState};
use crate::tiering::{run_pass, PassOptions, TieringHandle, TieringPassReport, TieringState};
use crate::va::Tier;
use crate::workflow::StateFile;
use crate::write::{self, WriteOp};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use univistor_mpi::driver::OpenMode;
use univistor_obs::MetricsSnapshot;
use univistor_pfs::Lustre;
use univistor_sim::{Payload, SimError, SimResult};

/// One cached file. `size` is atomic so the data path updates it under
/// the file table's *shared* lock; it stays 0 until the first write, so
/// it doubles as the written flag. `open_count` changes only in
/// open/close, which hold the exclusive lock anyway.
#[derive(Debug)]
struct FileEntry {
    fid: u64,
    size: AtomicU64,
    open_count: usize,
}

/// The locked core: the three structures every write, read, flush and
/// maintenance pass works on, each sharded behind its own locks.
#[derive(Debug)]
pub(crate) struct LockedCore {
    /// Per-client log chains.
    pub(crate) chains: ChainSet,
    /// Distributed metadata service (KV + node buffers + read caches).
    pub(crate) metadata: MetadataService,
    /// Per-KV-partition heat shards (segment read counters).
    pub(crate) heat: Vec<RwLock<HashMap<SegKey, AtomicU32>>>,
    /// Keys held across the heat shards, so an overwrite skips
    /// [`retire_heat`](Self::retire_heat) while nothing has been read.
    pub(crate) heat_keys: AtomicUsize,
}

impl LockedCore {
    fn new(cfg: &UniviStorConfig, injector: Option<&Arc<FaultInjector>>) -> Self {
        let servers = cfg.geometry.total_servers().max(1);
        let mut metadata = MetadataService::new(
            cfg.metadata_range_size,
            servers,
            cfg.geometry.nodes,
            cfg.geometry.procs_per_node,
        );
        let mut chains = ChainSet::new();
        if let Some(inj) = injector {
            chains.set_injector(Arc::clone(inj));
            metadata.set_injector(Arc::clone(inj));
        }
        LockedCore {
            chains,
            heat: (0..metadata.servers().max(1))
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            heat_keys: AtomicUsize::new(0),
            metadata,
        }
    }

    /// The read pipeline's and flush engine's view of the core.
    pub(crate) fn view(&self) -> CoreView<'_> {
        CoreView {
            metadata: &self.metadata,
            chains: &self.chains,
        }
    }

    /// Count one read of `key` against the heat shards (sharded like the
    /// metadata KV's range partitioning): shared shard lock + atomic
    /// increment in steady state; only a key's first touch takes the
    /// shard's write lock, to install the counter.
    pub(crate) fn bump_heat(&self, key: SegKey) {
        let shard = self.heat_shard(key);
        {
            let shard = shard.read().expect("heat poisoned");
            if let Some(n) = shard.get(&key) {
                n.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        shard
            .write()
            .expect("heat poisoned")
            .entry(key)
            .or_insert_with(|| {
                self.heat_keys.fetch_add(1, Ordering::Relaxed);
                AtomicU32::new(0)
            })
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Forget the heat of keys whose records an overwrite retired
    /// ([`BatchOutcome::retired`](crate::metadata::BatchOutcome::retired)):
    /// a record written at a reused key starts cold, and the shards hold
    /// no key of a record that is gone. One atomic load while nothing has
    /// been read.
    pub(crate) fn retire_heat(&self, keys: &[SegKey]) {
        if keys.is_empty() || self.heat_keys.load(Ordering::Relaxed) == 0 {
            return;
        }
        for key in keys {
            let mut shard = self.heat_shard(*key).write().expect("heat poisoned");
            if shard.remove(key).is_some() {
                self.heat_keys.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    fn heat_shard(&self, key: SegKey) -> &RwLock<HashMap<SegKey, AtomicU32>> {
        &self.heat[self.metadata.partition_of(key.offset) % self.heat.len()]
    }
}

/// The job's data plane: the locked core plus everything a write or read
/// runs against. Shared (one `Arc`) by the job and, under
/// [`Runtime::Partitioned`], every partition worker — which run the same
/// [`place`](Self::place) and [`read`](Self::read) the caller's thread
/// runs under [`Runtime::Locked`].
pub(crate) struct DataPlane {
    pub(crate) cfg: UniviStorConfig,
    pub(crate) core: LockedCore,
    pub(crate) metrics: Arc<JobMetrics>,
    /// The job's digest authority (per-job digest memo): every stamp and
    /// verify of the integrity plane goes through it.
    pub(crate) verifier: Verifier,
    /// Reader-reported corrupt copies awaiting online repair. Touched by
    /// the data path only on a verify *failure*.
    pub(crate) corrupt_queue: CorruptQueue,
    /// Nodes whose volatile storage has been lost (failure injection).
    pub(crate) failed_nodes: RwLock<HashSet<usize>>,
    /// Whether `failed_nodes` is non-empty. Reads check this atomic and
    /// skip the failed-set lock entirely in the (overwhelmingly common)
    /// no-failure case.
    pub(crate) failed_any: AtomicBool,
}

impl DataPlane {
    /// Create `client`'s chain if it has none.
    pub(crate) fn ensure_chain(&self, client: ClientId) -> SimResult<()> {
        self.core.chains.ensure(client, || {
            ProcChain::new(job_layer_caps(&self.cfg), self.cfg.chunk_size)
        })
    }

    /// The placement-and-commit stage of one write: the producer's chain,
    /// then the batched write pipeline ([`crate::write`]).
    pub(crate) fn place(&self, op: &WriteOp, payload: Payload) -> SimResult<()> {
        self.ensure_chain(op.client)?;
        write::write(self, op, payload)
    }

    /// One read of `[offset, offset + len)` of `fid` by `client`: the read
    /// pipeline ([`crate::read`]) under the retry budget — reads mutate
    /// nothing, so a transient fault anywhere is absorbed by replanning the
    /// whole read — then the lock, heat and trace accounting. Shared locks
    /// only (metadata shards, node buffers, read caches, producer chains):
    /// concurrent readers never block each other.
    pub(crate) fn read(
        &self,
        client: ClientId,
        fid: u64,
        offset: u64,
        len: u64,
    ) -> SimResult<Payload> {
        // No failure injected (the overwhelmingly common case): skip the
        // failed-set lock and its clone entirely; otherwise hold the read
        // guard — the plan resolves replica routes while holding it.
        let no_failures = HashSet::new();
        let guard;
        let failed: &HashSet<usize> = if self.failed_any.load(Ordering::Acquire) {
            guard = self.failed_nodes.read().expect("failed set poisoned");
            &guard
        } else {
            &no_failures
        };
        let service = self.read_service(failed);
        let out = with_retries(&self.cfg.retry, Some(&self.metrics), || {
            service.read(client, fid, offset, len)
        })?;
        self.metrics.record_read_locks(out.locks);
        for &key in &out.touched {
            self.core.bump_heat(key);
        }
        self.metrics.record_read_trace(&out.trace);
        Ok(out.payload)
    }

    /// The job's read pipeline over the core, configured from `cfg`.
    pub(crate) fn read_service<'a>(&'a self, failed: &'a HashSet<usize>) -> ReadService<'a> {
        ReadService::over(self.core.view(), &self.cfg.geometry, &self.verifier)
            .location_aware(self.cfg.features.location_aware_reads)
            .with_failed_nodes(failed)
            .with_integrity(Some(&self.metrics), Some(&self.corrupt_queue))
    }

    /// A snapshot of the failed-node set.
    pub(crate) fn failed(&self) -> HashSet<usize> {
        self.failed_nodes
            .read()
            .expect("failed set poisoned")
            .clone()
    }

    /// Where a replica of `client`'s data should go right now: the
    /// same-index process on the nearest healthy other node, so primary
    /// and replica never share a node and a replica never lands on an
    /// already-dead one (it would protect nothing). While no failure is
    /// injected that is the next node, found without any lock beyond the
    /// atomic check. `None` in single-node jobs or when every other node
    /// is down.
    pub(crate) fn replica_buddy(&self, client: ClientId) -> Option<ClientId> {
        if self.failed_any.load(Ordering::Acquire) {
            let failed = self.failed_nodes.read().expect("failed set poisoned");
            healthy_buddy(&self.cfg.geometry, &failed, client)
        } else {
            healthy_buddy(&self.cfg.geometry, &HashSet::new(), client)
        }
    }
}

/// Per-client layer capacities under the `c/p` rule, honoring the
/// configuration's tier toggles.
pub(crate) fn job_layer_caps(cfg: &UniviStorConfig) -> Vec<(Tier, u64)> {
    let bb_total =
        cfg.cal.bb_nodes_for_job(cfg.geometry.nodes) as u64 * cfg.cal.bb_capacity_per_node;
    let all = layer_caps_with_node_local(
        cfg.cal.dram_cache_capacity_per_node,
        cfg.cal.node_local_capacity,
        cfg.geometry.procs_per_node,
        bb_total,
        cfg.geometry.total_procs(),
    );
    all.into_iter()
        .filter(|(tier, cap)| {
            let enabled = match tier {
                Tier::Dram => cfg.enable_dram,
                Tier::SharedBurstBuffer => cfg.enable_bb,
                _ => true,
            };
            // A layer too small to hold one log chunk (e.g. a
            // zero-capacity tier in the calibration) is dropped rather
            // than poisoning chain construction; the PFS layer's
            // unbounded capacity always stays.
            enabled && (*cap == u64::MAX || *cap >= cfg.chunk_size)
        })
        .collect()
}

/// The running UniviStor service for one job.
pub struct UniviStorJob {
    /// path → file entry. Read-mostly: exclusive only in open/close.
    files: RwLock<HashMap<String, FileEntry>>,
    /// The write/read state, shared with the partition workers.
    plane: Arc<DataPlane>,
    /// The partition workers under [`Runtime::Partitioned`]; `None` runs
    /// writes and reads on the caller's thread.
    pub(crate) pool: Option<WorkerPool>,
    /// Destination PFS; reads take the shared side.
    lustre: RwLock<Lustre>,
    connected: RwLock<HashSet<ClientId>>,
    next_fid: AtomicU64,
    /// Receipts of the flushes since the last
    /// [`take_flush_receipts`](Self::take_flush_receipts), in completion
    /// order (structured, so the flat panel cannot hold them). Taken only
    /// at flush completion and by that drain — a leaf mutex.
    flush_receipts: Mutex<Vec<FlushReceipt>>,
    state_file: StateFile,
    /// Deterministic fault schedule (`cfg.fault`); `None` — the default —
    /// means the data path pays only this `Option` check.
    injector: Option<Arc<FaultInjector>>,
    /// Background tiering engine state (drain ledgers, pass gates, the
    /// pause flag). With tiering disabled the write path pays one relaxed
    /// atomic load against it.
    tiering: TieringState,
    /// Background scrubber state (per-node cursors and pass gates).
    scrub: ScrubState,
}

/// Builder for one open call, created by [`UniviStorJob::open_file`].
///
/// Defaults: read-only, representing one rank, holding the workflow lock.
/// Finish with [`by`](OpenRequest::by):
///
/// ```ignore
/// let fid = job.open_file("/ckpt").write().representing(nprocs).by(root)?;
/// ```
#[must_use = "an OpenRequest does nothing until .by(client) is called"]
pub struct OpenRequest<'a> {
    job: &'a UniviStorJob,
    path: &'a str,
    mode: OpenMode,
    represents: usize,
    lock_holder: bool,
}

impl<'a> OpenRequest<'a> {
    /// Open read-only (`MPI_MODE_RDONLY`) — the default.
    pub fn read(mut self) -> Self {
        self.mode = OpenMode::Read;
        self
    }

    /// Open write-only, creating the file if needed.
    pub fn write(mut self) -> Self {
        self.mode = OpenMode::Write;
        self
    }

    /// Open read-write, creating the file if needed.
    pub fn read_write(mut self) -> Self {
        self.mode = OpenMode::ReadWrite;
        self
    }

    /// Set the mode from an [`OpenMode`] value (driver plumbing).
    pub fn mode(mut self, mode: OpenMode) -> Self {
        self.mode = mode;
        self
    }

    /// How many ranks this call stands for: the full communicator under
    /// COC, one (the default) otherwise.
    pub fn representing(mut self, ranks: usize) -> Self {
        self.represents = ranks;
        self
    }

    /// Whether this caller piggybacks workflow locking (the root rank).
    /// Defaults to true.
    pub fn lock_holder(mut self, holder: bool) -> Self {
        self.lock_holder = holder;
        self
    }

    /// Perform the open on behalf of `client`, returning the file id.
    pub fn by(self, client: ClientId) -> Result<u64> {
        self.job
            .open_impl(self.path, self.mode, self.represents, self.lock_holder)
            .map_err(|e| {
                Error::new("open", e)
                    .with_path(self.path)
                    .with_client(client)
            })
    }
}

impl UniviStorJob {
    /// Launch the service for a job with the given configuration.
    ///
    /// Panics when the configuration fails [`UniviStorConfig::validate`];
    /// use [`try_new`](Self::try_new) to receive the typed error instead.
    pub fn new(cfg: UniviStorConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid UniviStorConfig: {e}");
        }
        Self::launch(cfg)
    }

    /// Launch the service after validating the configuration, rejecting
    /// out-of-range probabilities, inverted watermarks, and a zero size or
    /// count (geometry, chunk/segment/range sizes, α, mailbox depth, retry
    /// attempts) with a typed error.
    pub fn try_new(cfg: UniviStorConfig) -> Result<Self> {
        cfg.validate().map_err(|e| Error::new("config", e))?;
        Ok(Self::launch(cfg))
    }

    /// Build the job around a fresh panel of its own (the typed views
    /// read lifetime totals off it, so a panel is never shared).
    fn launch(cfg: UniviStorConfig) -> Self {
        let metrics = Arc::new(JobMetrics::new());
        let lustre = Lustre::new(cfg.cal.ost_count);
        let injector = cfg
            .fault
            .clone()
            .map(|schedule| Arc::new(FaultInjector::new(schedule)));
        if let Some(inj) = &injector {
            inj.install_counters(metrics.fault_counters());
        }
        let plane = Arc::new(DataPlane {
            core: LockedCore::new(&cfg, injector.as_ref()),
            verifier: Verifier::new(Arc::clone(&metrics)),
            cfg,
            metrics,
            corrupt_queue: CorruptQueue::default(),
            failed_nodes: RwLock::new(HashSet::new()),
            failed_any: AtomicBool::new(false),
        });
        let pool = (plane.cfg.runtime == Runtime::Partitioned).then(|| WorkerPool::new(&plane));
        UniviStorJob {
            files: RwLock::new(HashMap::new()),
            plane,
            pool,
            lustre: RwLock::new(lustre),
            connected: RwLock::new(HashSet::new()),
            next_fid: AtomicU64::new(1),
            flush_receipts: Mutex::new(Vec::new()),
            state_file: StateFile::new(),
            injector,
            tiering: TieringState::default(),
            scrub: ScrubState::default(),
        }
    }

    /// Fire any scheduled node failures whose operation threshold has
    /// passed. A no-op without an injector; called on the data-path entry
    /// points so a configured schedule advances with the workload.
    fn poll_faults(&self) {
        if let Some(inj) = &self.injector {
            for node in inj.due_node_failures() {
                self.fail_node(node);
            }
        }
    }

    /// The configuration.
    pub fn cfg(&self) -> &UniviStorConfig {
        &self.plane.cfg
    }

    /// The workflow state file (shared with tests/diagnostics).
    pub fn state_file(&self) -> &StateFile {
        &self.state_file
    }

    /// Snapshot the job's full telemetry panel.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.plane.metrics.snapshot()
    }

    /// The live metrics panel (for wiring schedulers, or keeping it past
    /// the job).
    pub fn metrics_handle(&self) -> &Arc<JobMetrics> {
        &self.plane.metrics
    }

    /// Partition workers serving this job's data plane: the pool size
    /// under [`Runtime::Partitioned`], 0 under [`Runtime::Locked`].
    pub fn partition_workers(&self) -> usize {
        self.pool.as_ref().map_or(0, WorkerPool::workers)
    }

    /// The one entry every maintenance pass (tiering, repair, scrub, and
    /// their diagnostics) takes: snapshot the file table and the failed
    /// set, then run `f` over a [`Maint`] context on the shared core, on
    /// the calling thread under both runtimes.
    pub(crate) fn maintain<R>(&self, f: impl FnOnce(&Maint<'_>) -> R) -> R {
        let files = self
            .files
            .read()
            .expect("file table poisoned")
            .iter()
            .map(|(path, e)| FileSnap {
                fid: e.fid,
                path: path.clone(),
                size: e.size.load(Ordering::Relaxed),
                open: e.open_count > 0,
            })
            .collect();
        let plane = &*self.plane;
        f(&Maint {
            cfg: &plane.cfg,
            core: &plane.core,
            metrics: &plane.metrics,
            verifier: &plane.verifier,
            failed: plane.failed(),
            files,
        })
    }

    /// Connection management: a client announced itself (`MPI_Init`).
    pub fn connect(&self, client: ClientId) {
        self.connected
            .write()
            .expect("connected poisoned")
            .insert(client);
    }

    /// A client departed (`MPI_Finalize`).
    pub fn disconnect(&self, client: ClientId) {
        self.connected
            .write()
            .expect("connected poisoned")
            .remove(&client);
    }

    /// Connected clients (servers terminate when this reaches zero after
    /// the last application exits). Shared lock — never contends with
    /// other readers or the data path.
    pub fn connected_count(&self) -> usize {
        self.connected.read().expect("connected poisoned").len()
    }

    /// Start building an open call for `path`. Defaults: read-only,
    /// representing one rank, holding the workflow lock.
    pub fn open_file<'a>(&'a self, path: &'a str) -> OpenRequest<'a> {
        OpenRequest {
            job: self,
            path,
            mode: OpenMode::Read,
            represents: 1,
            lock_holder: true,
        }
    }

    /// Open a file. `represents` is how many ranks this call stands for
    /// (the full communicator under COC, one otherwise); `lock_holder`
    /// marks the root that piggybacks workflow locking.
    fn open_impl(
        &self,
        path: &str,
        mode: OpenMode,
        represents: usize,
        lock_holder: bool,
    ) -> SimResult<u64> {
        // Workflow locking happens *before* touching job state and without
        // holding any lock — it may block.
        if lock_holder && self.plane.cfg.features.workflow {
            if mode.writable() {
                self.state_file.acquire_write(path);
            } else {
                // A reader of a not-yet-existing file is the in-situ case:
                // wait until the producer has written it at least once.
                let exists = self
                    .files
                    .read()
                    .expect("file table poisoned")
                    .contains_key(path);
                if exists {
                    self.state_file.acquire_read(path);
                } else {
                    self.state_file.acquire_read_produced(path);
                }
            }
        }
        let mut files = self.files.write().expect("file table poisoned");
        // The metadata RPC happened even if the open is then rejected.
        self.plane.metrics.record_open();
        if !files.contains_key(path) {
            if !mode.writable() {
                return Err(SimError::InvalidConfig(format!("no such file '{path}'")));
            }
            let fid = self.next_fid.fetch_add(1, Ordering::Relaxed);
            files.insert(
                path.to_string(),
                FileEntry {
                    fid,
                    size: AtomicU64::new(0),
                    open_count: 0,
                },
            );
        }
        let entry = files.get_mut(path).expect("just ensured");
        entry.open_count += represents;
        Ok(entry.fid)
    }

    /// Write `payload` at `offset` of `path` on behalf of `client`.
    /// The payload is split into segments (≤ `segment_size`, aligned to
    /// the logical segment grid) and placed by DHP.
    pub fn write(&self, client: ClientId, path: &str, offset: u64, payload: Payload) -> Result<()> {
        self.write_with(client, path, offset, payload, Self::place)
            .map_err(|e| Error::new("write", e).with_path(path).with_client(client))
    }

    /// One write around `place`, the placement-and-commit stage: the
    /// file-table, fault and tiering bookkeeping are this function's.
    fn write_with(
        &self,
        client: ClientId,
        path: &str,
        offset: u64,
        payload: Payload,
        place: impl FnOnce(&Self, &WriteOp, Payload) -> SimResult<()>,
    ) -> SimResult<()> {
        let len = payload.len();
        if len == 0 {
            return Ok(());
        }
        // The extent must not wrap, and its end must stay within the last
        // whole cell of the segment grid (planning steps to the next cell
        // boundary).
        let seg = self.plane.cfg.segment_size;
        let end = offset
            .checked_add(len)
            .filter(|&end| end <= u64::MAX / seg * seg)
            .ok_or_else(|| {
                SimError::InvalidConfig(format!("write extent [{offset}, +{len}) out of range"))
            })?;
        self.plane.metrics.record_write_call();
        self.poll_faults();
        let fid = self.fid_of(path, "write to")?;
        let node = self.plane.cfg.geometry.node_of_rank(client.rank as usize);
        let replicate = self.plane.cfg.replicate_volatile;
        let op = WriteOp {
            client,
            fid,
            node,
            offset,
            buddy: replicate
                .then(|| self.plane.replica_buddy(client))
                .flatten(),
        };
        place(self, &op, payload)?;
        // Only a placed write grows the file. Shared file-table lock,
        // re-taken rather than held across placement: the size is atomic,
        // so concurrent writers to different (or the same) file don't
        // serialize here, and opens and closes don't wait on a write.
        if let Some(entry) = self.files.read().expect("file table poisoned").get(path) {
            entry.size.fetch_max(end, Ordering::Relaxed);
        }
        // The write superseded any drained-ahead copies it overlapped
        // (one relaxed load when no ledger exists — the disabled-daemon
        // fast path).
        self.tiering.invalidate(fid, offset, end);
        let t = &self.plane.cfg.tiering;
        if t.enabled && t.drain_cadence_ops > 0 && !self.tiering.paused.load(Ordering::Acquire) {
            let ops = self.tiering.write_ops.fetch_add(1, Ordering::Relaxed) + 1;
            if ops.is_multiple_of(t.drain_cadence_ops) {
                // Piggybacked pass on the writer's node; its errors never
                // fail the write that triggered it.
                let _ = self.tiering_pass(node, &PassOptions::full(&self.plane.cfg));
            }
        }
        Ok(())
    }

    /// The product placement stage: [`DataPlane::place`], on the caller's
    /// thread or on the partition worker owning the writer's node.
    fn place(&self, op: &WriteOp, payload: Payload) -> SimResult<()> {
        match &self.pool {
            None => self.plane.place(op, payload),
            Some(pool) => pool.write(op, payload),
        }
    }

    /// The fid of open file `path`; `what` names the refused call.
    fn fid_of(&self, path: &str, what: &str) -> SimResult<u64> {
        let files = self.files.read().expect("file table poisoned");
        let entry = files
            .get(path)
            .ok_or_else(|| SimError::InvalidConfig(format!("{what} unopened '{path}'")))?;
        Ok(entry.fid)
    }

    /// Read `[offset, offset + len)` of `path` on behalf of `client`.
    pub fn read(&self, client: ClientId, path: &str, offset: u64, len: u64) -> Result<Payload> {
        self.read_impl(client, path, offset, len)
            .map_err(|e| Error::new("read", e).with_path(path).with_client(client))
    }

    fn read_impl(&self, client: ClientId, path: &str, offset: u64, len: u64) -> SimResult<Payload> {
        if offset.checked_add(len).is_none() {
            return Err(SimError::InvalidConfig(format!(
                "read extent [{offset}, +{len}) out of range"
            )));
        }
        self.poll_faults();
        let fid = self.fid_of(path, "read of")?;
        match &self.pool {
            None => self.plane.read(client, fid, offset, len),
            Some(pool) => pool.read(client, fid, offset, len),
        }
    }

    /// Run `f` while holding a *shared* view of `client`'s chain — the
    /// concurrency probe for tests: with the old whole-job mutex any job
    /// operation from inside `f` (on any thread) would deadlock; with the
    /// sharded layout reads of that same chain proceed in parallel.
    ///
    /// The view is a `try_read`-with-backoff acquisition
    /// ([`ChainSet::with`]): the caller never parks in the rwlock's reader
    /// queue, and while a writer is queued new views back off until it has
    /// gone through — so a stream of views cannot starve writers on the
    /// chain. `f` may run concurrent job operations, but must not *wait* on
    /// another thread acquiring a view of the same chain (with a writer
    /// queued, that view defers to the writer, which in turn waits for `f`
    /// — a cycle), and exclusive operations on `client`'s own chain from
    /// the calling thread deadlock by definition (under
    /// [`Runtime::Partitioned`] the worker runs them, and the caller waits
    /// on it just the same).
    pub fn with_shared_read_view<R>(&self, client: ClientId, f: impl FnOnce() -> R) -> Result<R> {
        self.plane
            .core
            .chains
            .with(client, |_| f())
            .map_err(|e| Error::new("read_view", e).with_client(client))
    }

    /// Failure injection: mark a node's volatile storage as lost. Reads
    /// of segments whose primary lived there are served from replicas.
    /// Idempotent; returns whether the node was newly failed.
    pub fn fail_node(&self, node: usize) -> bool {
        let fresh = self
            .plane
            .failed_nodes
            .write()
            .expect("failed set poisoned")
            .insert(node);
        // After the set is populated, so a reader seeing the flag finds
        // the node in the set.
        self.plane.failed_any.store(true, Ordering::Release);
        fresh
    }

    /// The inverse of [`fail_node`](Self::fail_node): a node came back
    /// (its volatile contents are still gone — run
    /// [`rebuild_degraded`](Self::rebuild_degraded) first to re-protect
    /// what lived there). Returns whether the node was in the failed set;
    /// when the set drains, the data path's failure flag clears and reads
    /// stop consulting the set entirely.
    pub fn restore_node(&self, node: usize) -> bool {
        let mut failed = self
            .plane
            .failed_nodes
            .write()
            .expect("failed set poisoned");
        let removed = failed.remove(&node);
        if failed.is_empty() {
            self.plane.failed_any.store(false, Ordering::Release);
        }
        removed
    }

    /// Count the index records still referencing a failed node (as primary
    /// or replica) and publish the `univistor_degraded_segments` gauge.
    /// Cold path: scans every file's index.
    pub fn degraded_segments(&self) -> u64 {
        let n = if self.plane.failed_any.load(Ordering::Acquire) {
            self.maintain(repair::degraded_records)
        } else {
            0
        };
        self.plane.metrics.set_degraded_segments(n);
        n
    }

    /// Online repair: restore full redundancy for every record degraded by
    /// node failures, file by file (see [`crate::repair`]). Safe to run
    /// while clients keep writing and reading — a record overwritten
    /// mid-repair is left to the overwrite. Refreshes the
    /// `univistor_degraded_segments` gauge on the way out.
    pub fn rebuild_degraded(&self) -> Result<RepairReport> {
        let total = if self.plane.failed_any.load(Ordering::Acquire) {
            self.maintain(repair::rebuild)
                .map_err(|e| Error::new("repair", e))?
        } else {
            RepairReport::default()
        };
        self.degraded_segments();
        Ok(total)
    }

    /// The tiering control surface: pause/resume the background engine,
    /// force a drain, run a full pass, read lifetime stats.
    pub fn tiering(&self) -> TieringHandle<'_> {
        TieringHandle::new(self)
    }

    /// The engine's shared state (drain ledgers, gates, the pause flag).
    pub(crate) fn tiering_state(&self) -> &TieringState {
        &self.tiering
    }

    /// The destination PFS.
    pub(crate) fn lustre(&self) -> &RwLock<Lustre> {
        &self.lustre
    }

    /// Whether a writer still holds `fid` open — the live re-check behind
    /// a maintenance pass's file snapshot, which goes stale the moment a
    /// close completes.
    pub(crate) fn is_open(&self, fid: u64) -> bool {
        self.files
            .read()
            .expect("file table poisoned")
            .values()
            .any(|e| e.fid == fid && e.open_count > 0)
    }

    /// The integrity scrubber's control surface: run passes synchronously,
    /// inspect the repair backlog.
    pub fn scrub(&self) -> ScrubHandle<'_> {
        ScrubHandle::new(self)
    }

    /// Chaos drill (tests, soak harnesses): silently corrupt the stored
    /// primary copy of every record overlapping `[offset, offset + len)`
    /// of `path` — and the replica copies too when `include_replicas` —
    /// by registering targeted bit flips with the fault injector. The
    /// index entries are untouched: subsequent reads see wrong bytes at
    /// the storage layer, exactly like silent media corruption. Returns
    /// the number of copies corrupted. Requires a configured
    /// [`FaultConfig`](crate::fault::FaultConfig).
    pub fn corrupt_stored_range(
        &self,
        path: &str,
        offset: u64,
        len: u64,
        include_replicas: bool,
    ) -> Result<usize> {
        let inj = self.injector.as_ref().ok_or_else(|| {
            Error::new(
                "corrupt",
                SimError::InvalidConfig(
                    "targeted corruption requires a fault injector (cfg.fault)".into(),
                ),
            )
        })?;
        let records = self
            .maintain(|m| {
                let fid = m.files.iter().find(|f| f.path == path)?.fid;
                Some(m.core.metadata.lookup_range(fid, offset, offset + len).1)
            })
            .ok_or_else(|| {
                Error::new(
                    "corrupt",
                    SimError::InvalidConfig(format!("corrupt of unopened '{path}'")),
                )
            })?;
        let mut corrupted = 0;
        for (_, rec) in records {
            let replica = rec.replica.filter(|_| include_replicas);
            for (client, va) in std::iter::once((rec.client, rec.va)).chain(replica) {
                inj.corrupt_span(client, va, rec.len);
                corrupted += 1;
            }
        }
        Ok(corrupted)
    }

    /// The reader-reported corrupt-copy queue.
    pub(crate) fn corrupt_queue(&self) -> &CorruptQueue {
        &self.plane.corrupt_queue
    }

    /// The scrub engine's shared state (cursors, gates, counters).
    pub(crate) fn scrub_state(&self) -> &ScrubState {
        &self.scrub
    }

    /// Run one scrub pass for `node`: drain this node's share of the
    /// corrupt queue, then verify a budgeted slice of this node's records
    /// (see [`crate::scrub`]). Safe to run while clients keep writing and
    /// reading — repairs swap records with the same compare-and-swap
    /// discipline as online repair and lose gracefully to overwrites.
    pub(crate) fn scrub_pass(&self, node: usize) -> Result<ScrubReport> {
        self.maintain(|m| run_scrub_pass(m, self, node))
            .map_err(|e| Error::new("scrub", e))
    }

    /// Run one tiering pass for `node` with the given phase selection.
    pub(crate) fn tiering_pass(
        &self,
        node: usize,
        opts: &PassOptions,
    ) -> Result<TieringPassReport> {
        self.maintain(|m| run_pass(m, self, node, opts))
            .map_err(|e| Error::new("tiering", e))
    }

    /// Run one tiering pass on every node, aggregating the reports.
    pub(crate) fn tiering_pass_all(&self, opts: &PassOptions) -> Result<TieringPassReport> {
        let mut total = TieringPassReport {
            // `absorb` ANDs this flag: the aggregate counts as skipped
            // only when every node's pass was.
            skipped: true,
            ..TieringPassReport::default()
        };
        for node in 0..self.plane.cfg.geometry.nodes {
            total.absorb(&self.tiering_pass(node, opts)?);
        }
        Ok(total)
    }

    /// Close a file on behalf of `represents` ranks. The last close of a
    /// written file triggers the server-side flush (when enabled) and
    /// releases the workflow lock.
    pub fn close(
        &self,
        path: &str,
        client: ClientId,
        mode: OpenMode,
        represents: usize,
        lock_holder: bool,
    ) -> Result<Option<FlushReceipt>> {
        self.close_impl(path, mode, represents, lock_holder, parallel_drain)
            .map_err(|e| Error::new("close", e).with_path(path).with_client(client))
    }

    /// [`close`](Self::close), draining with `engine` when it flushes.
    fn close_impl(
        &self,
        path: &str,
        mode: OpenMode,
        represents: usize,
        lock_holder: bool,
        engine: Engine,
    ) -> SimResult<Option<FlushReceipt>> {
        let (should_flush, fid, size) = {
            let mut files = self.files.write().expect("file table poisoned");
            self.plane.metrics.record_close();
            let entry = files
                .get_mut(path)
                .ok_or_else(|| SimError::InvalidConfig(format!("close of unopened '{path}'")))?;
            if entry.open_count < represents {
                return Err(SimError::InvalidConfig(format!(
                    "close of '{path}' for {represents} ranks, but only {} hold it open",
                    entry.open_count
                )));
            }
            entry.open_count -= represents;
            let trigger =
                entry.open_count == 0 && mode.writable() && self.plane.cfg.features.flush_on_close;
            (trigger, entry.fid, entry.size.load(Ordering::Relaxed))
        };

        // Release the workflow lock before flushing: readers may proceed
        // on the cached data while servers flush (§II-E).
        if lock_holder && self.plane.cfg.features.workflow {
            if mode.writable() {
                self.state_file.release_write(path);
            } else {
                self.state_file.release_read(path);
            }
        }

        if !should_flush || size == 0 {
            return Ok(None);
        }
        if self.plane.cfg.features.workflow {
            self.state_file.begin_flush(path);
        }
        self.plane.metrics.flush_started();
        // No job-wide lock during the flush: other clients keep writing
        // and reading other files while this one drains to Lustre, and a
        // generation fence redoes the pass if a writer raced. Serialize
        // against the tiering daemon on this file: a pass that holds the
        // gate finishes (or is skipped) before the flush reads the chains,
        // so no drain write or migration release races the flush. Passes
        // only `try_lock` the gate, so this cannot deadlock. Then consume
        // the drain ledger: spans the daemon already copied (and that are
        // still current) turn the flush into a catch-up.
        let result = {
            let gate = self.tiering.fid_gates.get(fid);
            let _gate = gate.lock().expect("tiering gate poisoned");
            let ledger = self.tiering.take_ledger(fid);
            let failed = self.plane.failed();
            flush_with_source(
                self.plane.core.view(),
                &FlushRequest {
                    lustre: &self.lustre,
                    cfg: &self.plane.cfg,
                    failed_nodes: &failed,
                    metrics: Some(&self.plane.metrics),
                    verifier: &self.plane.verifier,
                    injector: self.injector.as_deref(),
                    fid,
                    file_size: size,
                    dest: path,
                    resume: ledger.as_ref(),
                    engine,
                },
            )
        };
        self.plane.metrics.flush_finished();
        let workflow = self.plane.cfg.features.workflow;
        let receipt = match result {
            Ok(receipt) => receipt,
            Err(e) => {
                // The file stays cached and whole: back to WRITE_DONE, so
                // a later writer can reopen it and the next close retries.
                if workflow {
                    self.state_file.abort_flush(path);
                }
                return Err(e);
            }
        };
        if workflow {
            self.state_file.end_flush(path);
        }
        self.flush_receipts
            .lock()
            .expect("flush receipts poisoned")
            .push(receipt.clone());
        Ok(Some(receipt))
    }

    /// Logical size of a cached file. Shared file-table lock only.
    pub fn file_size(&self, path: &str) -> Result<u64> {
        Ok(self.stat("stat", path)?.1)
    }

    /// `(fid, logical size)` of `path`, or `op`'s "no such file" error.
    fn stat(&self, op: &'static str, path: &str) -> Result<(u64, u64)> {
        let files = self.files.read().expect("file table poisoned");
        let entry = files.get(path).ok_or_else(|| {
            let missing = SimError::InvalidConfig(format!("no such file '{path}'"));
            Error::new(op, missing).with_path(path)
        })?;
        Ok((entry.fid, entry.size.load(Ordering::Relaxed)))
    }

    /// Live cached bytes per tier across all clients. Takes each chain's
    /// shared lock in turn — never the whole job.
    pub fn tier_usage(&self) -> Vec<(Tier, u64)> {
        let chains = &self.plane.core.chains;
        chains.live_by_tier().into_iter().collect()
    }

    /// Total records in the distributed metadata index, across all files —
    /// the index size coalescing shrinks.
    pub fn metadata_records(&self) -> usize {
        self.plane.core.metadata.len()
    }

    /// All index records of `path`, offset-sorted: each record's logical
    /// span, producer, VA, and replica. Diagnostics and verification only
    /// (shared locks, but scans the file's whole index).
    pub fn index_of(&self, path: &str) -> Result<Vec<(SegKey, SegmentRecord)>> {
        let (fid, size) = self.stat("index", path)?;
        Ok(self.plane.core.metadata.lookup_range(fid, 0, size).1)
    }

    /// Verify a flushed file: compare the PFS copy byte-for-byte against
    /// the cached data (materializes the file — small/medium scale only).
    pub fn verify_flush(&self, client: ClientId, path: &str) -> Result<bool> {
        let size = self.file_size(path)?;
        let cached = self.read(client, path, 0, size)?;
        let on_pfs = self.lustre_read(path, 0, size)?;
        Ok(cached.content_eq(&on_pfs))
    }

    /// Read back a flushed file from the PFS (verification). Shared
    /// Lustre lock — concurrent with other PFS reads.
    pub fn lustre_read(&self, path: &str, offset: u64, len: u64) -> Result<Payload> {
        self.lustre
            .read()
            .expect("lustre poisoned")
            .read(path, offset, len, u64::MAX)
            .map_err(|e| {
                Error::new("pfs_read", e)
                    .with_path(path)
                    .with_tier(Tier::Pfs)
            })
    }

    /// Size of a flushed file on the PFS.
    pub fn lustre_file_size(&self, path: &str) -> Result<u64> {
        self.lustre
            .read()
            .expect("lustre poisoned")
            .file_size(path)
            .map_err(|e| {
                Error::new("pfs_stat", e)
                    .with_path(path)
                    .with_tier(Tier::Pfs)
            })
    }

    /// Per-OST cumulative byte loads on the PFS. Shared lock only.
    pub fn ost_loads(&self) -> Vec<u64> {
        self.lustre.read().expect("lustre poisoned").ost_loads()
    }

    /// Drain the receipts of every flush since construction or the last
    /// call, in completion order. The panel is unaffected: a phase's
    /// counters are a [`MetricsSnapshot::since`] delta of [`Self::metrics`].
    pub fn take_flush_receipts(&self) -> Vec<FlushReceipt> {
        std::mem::take(&mut *self.flush_receipts.lock().expect("flush receipts poisoned"))
    }
}

#[cfg(test)]
pub(crate) mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::FileState;

    fn job() -> UniviStorJob {
        UniviStorJob::new(UniviStorConfig::test_small(2, 2))
    }

    fn client(rank: u32) -> ClientId {
        ClientId::new(0, rank)
    }

    #[test]
    fn open_write_read_close_roundtrip() {
        let j = job();
        let total_ranks = 4;
        j.open_file("/f")
            .write()
            .representing(total_ranks)
            .by(client(0))
            .unwrap();
        for rank in 0..4u32 {
            // Each rank writes 512 B at its block offset.
            j.write(
                client(rank),
                "/f",
                rank as u64 * 512,
                Payload::pattern(rank as u64, 512),
            )
            .unwrap();
        }
        assert_eq!(j.file_size("/f").unwrap(), 2048);
        // Cross-rank read before close.
        let got = j.read(client(0), "/f", 512, 512).unwrap();
        assert!(got.content_eq(&Payload::pattern(1, 512)));
        let receipt = j
            .close("/f", client(0), OpenMode::Write, total_ranks, true)
            .unwrap()
            .expect("last close flushes");
        assert_eq!(receipt.file_size, 2048);
        // And it is on Lustre, byte-exact.
        let pfs = j.lustre_read("/f", 512, 512).unwrap();
        assert!(pfs.content_eq(&Payload::pattern(1, 512)));
    }

    #[test]
    fn writes_spill_across_tiers() {
        let j = job();
        j.open_file("/big").write().by(client(0)).unwrap();
        // DRAM per proc: 1024/2 = 512 B (2 chunks of 256); write 2 KiB.
        j.write(client(0), "/big", 0, Payload::pattern(9, 2048))
            .unwrap();
        let usage = j.tier_usage();
        let dram = usage
            .iter()
            .find(|(t, _)| *t == Tier::Dram)
            .map(|(_, b)| *b)
            .unwrap_or(0);
        let bb = usage
            .iter()
            .find(|(t, _)| *t == Tier::SharedBurstBuffer)
            .map(|(_, b)| *b)
            .unwrap_or(0);
        assert_eq!(dram, 512, "usage: {usage:?}");
        assert!(bb > 0, "no spill: {usage:?}");
        // The panel saw the spills too.
        let snap = j.metrics();
        assert!(
            snap.counter_total("univistor_tier_spill_events_total") > 0,
            "spill events not recorded"
        );
        // Everything still reads back.
        let got = j.read(client(0), "/big", 0, 2048).unwrap();
        assert!(got.content_eq(&Payload::pattern(9, 2048)));
    }

    #[test]
    fn overwrite_releases_and_replaces() {
        let j = job();
        j.open_file("/f").write().by(client(0)).unwrap();
        j.write(client(0), "/f", 0, Payload::pattern(1, 512))
            .unwrap();
        let before = j.tier_usage().iter().map(|(_, b)| *b).sum::<u64>();
        j.write(client(0), "/f", 0, Payload::pattern(2, 512))
            .unwrap();
        let after = j.tier_usage().iter().map(|(_, b)| *b).sum::<u64>();
        assert_eq!(before, after, "overwrite must not grow live bytes");
        let got = j.read(client(0), "/f", 0, 512).unwrap();
        assert!(got.content_eq(&Payload::pattern(2, 512)));
    }

    #[test]
    fn flush_only_on_last_close() {
        let j = job();
        j.open_file("/f")
            .write()
            .representing(2)
            .by(client(0))
            .unwrap();
        j.write(client(0), "/f", 0, Payload::pattern(1, 128))
            .unwrap();
        let r = j.close("/f", client(0), OpenMode::Write, 1, false).unwrap();
        assert!(r.is_none(), "flush before last close");
        let r = j.close("/f", client(1), OpenMode::Write, 1, true).unwrap();
        assert!(r.is_some());
    }

    #[test]
    fn read_only_close_does_not_flush() {
        let j = job();
        j.open_file("/f").write().by(client(0)).unwrap();
        j.write(client(0), "/f", 0, Payload::pattern(1, 128))
            .unwrap();
        j.close("/f", client(0), OpenMode::Write, 1, true).unwrap();
        j.open_file("/f").read().by(client(1)).unwrap();
        assert_eq!(j.take_flush_receipts().len(), 1, "the write close flushed");
        j.close("/f", client(1), OpenMode::Read, 1, true).unwrap();
        assert!(j.take_flush_receipts().is_empty());
        assert_eq!(j.metrics().counter_total("univistor_flushes_total"), 1);
    }

    /// `features.location_aware_reads` picks the read path: on, a
    /// node-local read is served from the shared buffer with no RPC; off,
    /// it goes through the co-located server and pays a metadata RPC.
    #[test]
    fn location_aware_reads_select_the_read_path() {
        for aware in [true, false] {
            let mut cfg = UniviStorConfig::test_small(2, 2);
            cfg.features.location_aware_reads = aware;
            let j = UniviStorJob::new(cfg);
            j.open_file("/la").read_write().by(client(0)).unwrap();
            j.write(client(0), "/la", 0, Payload::pattern(1, 128))
                .unwrap();
            j.read(client(0), "/la", 0, 128).unwrap();
            let snap = j.metrics();
            let bytes = |path| {
                snap.counter("univistor_read_bytes_total", &[("path", path)])
                    .unwrap_or(0)
            };
            let rpcs = snap
                .counter("univistor_md_rpcs_total", &[("op", "read")])
                .unwrap_or(0);
            if aware {
                assert_eq!((bytes("local_hit"), rpcs), (128, 0));
            } else {
                assert_eq!(bytes("local_via_server"), 128);
                assert!(rpcs > 0);
            }
        }
    }

    /// A close-time flush that fails (here: a hole between two writes)
    /// returns its typed error and hands the file back to WRITE_DONE, so a
    /// writer can reopen it instead of waiting on a FLUSHING that never
    /// ends.
    #[test]
    fn failed_close_flush_leaves_the_file_reopenable() {
        let mut cfg = UniviStorConfig::test_small(2, 2);
        cfg.features.workflow = true;
        let j = UniviStorJob::new(cfg);
        j.open_file("/h").write().by(client(0)).unwrap();
        j.write(client(0), "/h", 0, Payload::pattern(1, 256))
            .unwrap();
        j.write(client(0), "/h", 4096, Payload::pattern(2, 256))
            .unwrap();
        let err = j
            .close("/h", client(0), OpenMode::Write, 1, true)
            .unwrap_err();
        assert!(matches!(SimError::from(err), SimError::InvalidFlow(_)));
        assert_eq!(j.state_file().state_of("/h"), FileState::WriteDone);
        j.open_file("/h").write().by(client(0)).unwrap();
        j.write(client(0), "/h", 256, Payload::pattern(3, 3840))
            .unwrap();
        let receipt = j.close("/h", client(0), OpenMode::Write, 1, true);
        assert_eq!(receipt.unwrap().expect("flush").file_size, 4352);
        assert_eq!(j.state_file().state_of("/h"), FileState::FlushDone);
    }

    /// Closing for more ranks than hold the file open is a typed error
    /// that leaves the file table usable.
    #[test]
    fn over_close_is_a_typed_error_and_the_job_keeps_serving() {
        let j = job();
        j.open_file("/o").write().by(client(0)).unwrap();
        let err = j
            .close("/o", client(0), OpenMode::Write, 2, false)
            .unwrap_err();
        assert_eq!(err.op(), "close");
        assert!(matches!(SimError::from(err), SimError::InvalidConfig(_)));
        j.write(client(0), "/o", 0, Payload::pattern(1, 128))
            .unwrap();
        assert_eq!(j.file_size("/o").unwrap(), 128);
        let receipt = j.close("/o", client(0), OpenMode::Write, 1, false);
        assert!(receipt.unwrap().is_some(), "the one real close flushes");
    }

    #[test]
    fn flush_disabled_skips_persistence() {
        let mut cfg = UniviStorConfig::test_small(1, 1);
        cfg.features.flush_on_close = false;
        let j = UniviStorJob::new(cfg);
        j.open_file("/f").write().by(client(0)).unwrap();
        j.write(client(0), "/f", 0, Payload::pattern(1, 64))
            .unwrap();
        assert!(j
            .close("/f", client(0), OpenMode::Write, 1, true)
            .unwrap()
            .is_none());
        assert!(j.lustre_file_size("/f").is_err());
    }

    #[test]
    fn open_missing_for_read_fails_with_context() {
        let j = job();
        let err = j.open_file("/nope").read().by(client(0)).unwrap_err();
        assert_eq!(err.op(), "open");
        assert_eq!(err.path(), Some("/nope"));
        assert_eq!(err.client(), Some(client(0)));
        // The wrapper still round-trips to the substrate's variant.
        assert!(matches!(SimError::from(err), SimError::InvalidConfig(_)));
    }

    #[test]
    fn connection_management() {
        let j = job();
        j.connect(client(0));
        j.connect(client(1));
        assert_eq!(j.connected_count(), 2);
        j.disconnect(client(0));
        assert_eq!(j.connected_count(), 1);
        j.disconnect(client(1));
        assert_eq!(j.connected_count(), 0);
    }

    #[test]
    fn take_flush_receipts_does_not_reset_the_panel() {
        let j = job();
        j.open_file("/f").write().by(client(0)).unwrap();
        j.write(client(0), "/f", 0, Payload::pattern(1, 512))
            .unwrap();
        j.read(client(0), "/f", 0, 512).unwrap();
        j.close("/f", client(0), OpenMode::Write, 1, true).unwrap();
        assert_eq!(j.take_flush_receipts().len(), 1);
        // The panel is monotonic: draining the receipts must not reset it.
        let snap = j.metrics();
        assert_eq!(snap.counter_total("univistor_segments_total"), 4); // 512 B in 128 B segments
        assert_eq!(snap.counter_total("univistor_read_bytes_total"), 512);
        assert_eq!(
            snap.counter("univistor_ops_total", &[("op", "open")]),
            Some(1)
        );
        assert_eq!(snap.counter_total("univistor_flushes_total"), 1);
    }

    /// `take_flush_receipts` hands back one receipt per flush since the last
    /// drain, in close order, and leaves nothing behind.
    #[test]
    fn take_flush_receipts_drains_in_close_order() {
        let j = job();
        let base = j.metrics();
        for (i, path) in ["/c", "/a", "/b"].into_iter().enumerate() {
            j.open_file(path).write().by(client(0)).unwrap();
            j.write(
                client(0),
                path,
                0,
                Payload::pattern(i as u64, 128 * (i as u64 + 1)),
            )
            .unwrap();
            j.close(path, client(0), OpenMode::Write, 1, true).unwrap();
        }
        let receipts = j.take_flush_receipts();
        let order: Vec<(&str, u64)> = receipts
            .iter()
            .map(|r| (r.dest.as_str(), r.file_size))
            .collect();
        assert_eq!(order, [("/c", 128), ("/a", 256), ("/b", 384)]);
        let flushes = j.metrics().since(&base);
        assert_eq!(
            receipts.len() as u64,
            flushes.counter_total("univistor_flushes_total")
        );
        assert!(j.take_flush_receipts().is_empty());
    }

    #[test]
    fn verify_flush_detects_integrity() {
        let j = job();
        j.open_file("/v").write().by(client(0)).unwrap();
        j.write(client(0), "/v", 0, Payload::pattern(3, 700))
            .unwrap();
        j.close("/v", client(0), OpenMode::Write, 1, true)
            .unwrap()
            .expect("flush");
        assert!(j.verify_flush(client(0), "/v").unwrap());
        // Mutate the cache after the flush: verification now fails.
        j.open_file("/v").write().by(client(0)).unwrap();
        j.write(client(0), "/v", 0, Payload::pattern(4, 128))
            .unwrap();
        assert!(!j.verify_flush(client(0), "/v").unwrap());
    }

    #[test]
    fn flush_updates_panel_histograms() {
        let j = job();
        j.open_file("/h").write().by(client(0)).unwrap();
        j.write(client(0), "/h", 0, Payload::pattern(5, 1024))
            .unwrap();
        j.close("/h", client(0), OpenMode::Write, 1, true)
            .unwrap()
            .expect("flush");
        let snap = j.metrics();
        assert_eq!(snap.counter_total("univistor_flushes_total"), 1);
        let h = snap
            .histogram("univistor_flush_drained_bytes", &[])
            .expect("drained histogram");
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 1024.0);
        assert_eq!(
            snap.counter_total("univistor_flush_source_bytes_total"),
            1024
        );
        assert_eq!(snap.gauge("univistor_flush_in_progress", &[]), Some(0));
    }

    #[test]
    fn data_shared_between_coupled_apps() {
        // App 0 writes; app 1 (different ClientId.app) reads through the
        // same servers — Fig. 1's data-sharing scenario.
        let j = job();
        let producer = ClientId::new(0, 0);
        let consumer = ClientId::new(1, 0);
        j.open_file("/shared").write().by(producer).unwrap();
        j.write(producer, "/shared", 0, Payload::pattern(5, 256))
            .unwrap();
        let got = j.read(consumer, "/shared", 0, 256).unwrap();
        assert!(got.content_eq(&Payload::pattern(5, 256)));
    }

    #[test]
    fn shared_read_view_does_not_block_readers() {
        // With the old single job mutex, reading from inside the view (on
        // another thread) would deadlock; sharded locks make it concurrent.
        let j = job();
        j.open_file("/f").write().by(client(0)).unwrap();
        j.write(client(0), "/f", 0, Payload::pattern(1, 256))
            .unwrap();
        let got = j
            .with_shared_read_view(client(0), || {
                std::thread::scope(|s| {
                    let h = s.spawn(|| j.read(client(1), "/f", 0, 256).unwrap());
                    h.join().unwrap()
                })
            })
            .unwrap();
        assert!(got.content_eq(&Payload::pattern(1, 256)));
    }

    /// Keys in the heat shards, checked against the shards' key count.
    fn heat_keys(j: &UniviStorJob) -> usize {
        let core = &j.plane.core;
        let held: usize = core.heat.iter().map(|s| s.read().unwrap().len()).sum();
        assert_eq!(held, core.heat_keys.load(Ordering::Relaxed));
        held
    }

    #[test]
    fn an_overwritten_key_starts_cold() {
        use crate::config::{PromotionPolicy, TieringConfig};
        let mut cfg = UniviStorConfig::test_small(1, 1);
        cfg.cal.dram_cache_capacity_per_node = 512;
        cfg.chunk_size = 256;
        cfg.segment_size = 256;
        cfg.tiering = TieringConfig::on();
        cfg.tiering.drain_cadence_ops = 0;
        cfg.tiering.promotion.min_reads = 1000; // passes never promote
        let j = UniviStorJob::new(cfg);
        let promote = || {
            let policy = PromotionPolicy {
                min_reads: 1,
                min_benefit: 0.0,
            };
            j.tiering().promote_now(policy).unwrap().promoted_segments
        };
        j.open_file("/h").read_write().by(client(0)).unwrap();
        // 1 KiB: [0, 512) fills DRAM, the record at 512 spills to the BB.
        j.write(client(0), "/h", 0, Payload::pattern(7, 1024))
            .unwrap();
        for _ in 0..3 {
            j.read(client(0), "/h", 512, 512).unwrap();
        }
        // Overwrite the hot record under its own key (DRAM is full, so it
        // lands on the BB again), then free DRAM by overwriting the rest.
        j.write(client(0), "/h", 512, Payload::pattern(8, 512))
            .unwrap();
        j.write(client(0), "/h", 0, Payload::pattern(9, 512))
            .unwrap();
        assert_eq!(heat_keys(&j), 0);
        assert_eq!(
            promote(),
            0,
            "the old record's reads promoted its successor"
        );
        // Read once, the new record is promotable: only its heat was missing.
        j.read(client(0), "/h", 512, 512).unwrap();
        assert_eq!(promote(), 1);
        let got = j.read(client(0), "/h", 0, 1024).unwrap();
        assert!(got.content_eq(&Payload::chain([
            Payload::pattern(9, 512),
            Payload::pattern(8, 512)
        ])));
    }

    #[test]
    fn heat_holds_no_more_keys_than_live_records() {
        let j = job();
        j.open_file("/f").read_write().by(client(0)).unwrap();
        j.write(client(0), "/f", 0, Payload::pattern(0, 1024))
            .unwrap();
        let mut rng = univistor_sim::rng::DetRng::seed(0x4ea7);
        for i in 1..200u64 {
            let off = rng.below(16) as u64 * 64;
            let len = (64 * (1 + rng.below(4)) as u64).min(1024 - off);
            let writer = client(rng.below(4) as u32);
            j.write(writer, "/f", off, Payload::pattern(i, len))
                .unwrap();
            let off = rng.below(1024) as u64;
            let len = 1 + rng.below((1024 - off) as usize) as u64;
            j.read(client(rng.below(4) as u32), "/f", off, len).unwrap();
            let live = j.index_of("/f").unwrap().len();
            let held = heat_keys(&j);
            assert!(
                held > 0 && held <= live,
                "step {i}: {held} heat keys, {live} records"
            );
        }
    }
}
