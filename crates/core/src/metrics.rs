//! Job-wide telemetry: every hot path of the UniviStor runtime reports
//! into one [`JobMetrics`] instrument panel, and the panel is the job's
//! only accounting plane — [`UniviStorJob::metrics`](crate::server::UniviStorJob::metrics)
//! snapshots it, phases diff two snapshots ([`MetricsSnapshot::since`]),
//! and the typed view [`TieringStats`](crate::tiering::TieringStats) is a
//! read of it.
//!
//! Every family the panel can publish is one row of [`FAMILIES`]: name,
//! kind, labels, whether [`JobMetrics::new`] allocates it or its plane does
//! on first use, help, and what feeds it. The panel is a projection of that
//! table: one block of atomic cells holds every eager series in table
//! order, and each lazy plane gets a block of its own. Recording is a
//! single `fetch_add` on a cell whose index `at!` resolves at compile
//! time — no lock, no allocation, no label lookup; labels exist only in
//! [`JobMetrics::snapshot`]. The rendered table lives in the README
//! ("Telemetry"); a test keeps it equal to this one and to what an
//! exercised job publishes.

use crate::flush::FlushReceipt;
use crate::read::{ReadLockCounts, ReadTrace};
use crate::va::Tier;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};
use univistor_obs::{
    FamilyKind, FamilySnapshot, HistogramSnapshot, MetricsSnapshot, Sample, SampleValue,
};

/// What a family measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Counter,
    Gauge,
    /// Exponential buckets: first upper bound, growth factor, bucket count.
    Histogram(f64, f64, usize),
}
use Kind::{Counter as C, Gauge as G, Histogram as H};

/// One row of the family table.
#[derive(Debug)]
pub struct Family {
    pub name: &'static str,
    pub kind: Kind,
    /// Label keys, each with its values (series order is row-major over
    /// them); a key without values is filled in at run time (`partition`).
    pub labels: &'static [(&'static str, &'static [&'static str])],
    /// Allocated by [`JobMetrics::new`]; otherwise by its plane's
    /// `*_handles` call on first use.
    pub eager: bool,
    pub help: &'static str,
    pub fed_by: &'static str,
}

/// Declares [`Fam`] and [`FAMILIES`] from one list, so a family's
/// identifier and its row cannot drift apart.
macro_rules! families {
    ($($id:ident = $kind:expr, $name:literal, [$($key:literal: $values:expr),*], $eager:expr,
        $help:literal $(, $fed_by:literal)?;)*) => {
        /// Identifier of a family: its row index in [`FAMILIES`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Fam { $($id),* }

        /// Every family the panel can publish, declared once.
        pub const FAMILIES: &[Family] = &[$(Family {
            name: $name,
            kind: $kind,
            labels: &[$(($key, $values)),*],
            eager: $eager,
            help: $help,
            fed_by: families!(@fed_by $help $(, $fed_by)?),
        }),*];
    };
    // What feeds a family is spelt out only where the help does not say it.
    (@fed_by $help:literal) => { $help };
    (@fed_by $help:literal, $fed_by:literal) => { $fed_by };
}

const EAGER: bool = true;
/// The integrity, partition and message-plane families are published once
/// their plane first asks for its handles, so a snapshot lists only the
/// planes the job runs: a locked job's lists no partition families, and a
/// checksums-off job's no integrity families.
const LAZY: bool = false;
/// `tier` values, indexed by [`Tier`] (declared fastest-first).
const TIER: &[&str] = &["dram", "node_local", "burst_buffer", "pfs"];
/// `site` values of the verify points, indexed by [`VerifySite`].
const SITE: &[&str] = &["read", "flush", "tiering", "repair", "scrub"];

families! {
    Ops = C, "univistor_ops_total", ["op": &["open", "close", "write", "read"]], EAGER,
        "operations served by the job", "open/close/write/read in `server`";
    MdRpcs = C, "univistor_md_rpcs_total", ["op": &["open_close", "write", "read"]], EAGER,
        "metadata-server RPCs issued", "open/close storms, per-segment puts, read lookups";
    MdLocalHits = C, "univistor_md_local_hits_total", [], EAGER,
        "lookups satisfied by the node's shared metadata buffer (no RPC)",
        "records of `read`s the shared metadata buffer covers alone";
    Segments = C, "univistor_segments_total", [], EAGER,
        "segments appended by DHP";
    CachedBytes = C, "univistor_cached_bytes_total", ["tier": TIER], EAGER,
        "bytes placed on each storage tier by DHP", "bytes placed per layer (`placement`)";
    TierSpillEvents = C, "univistor_tier_spill_events_total", ["tier": TIER], EAGER,
        "segments that spilled past the fastest layer, by destination tier",
        "segments that spilled past layer 0";
    ReadBytes = C, "univistor_read_bytes_total",
        ["path": &["local_hit", "local_via_server", "bb_direct", "pfs_direct", "remote_hop"]],
        EAGER,
        "bytes delivered by the read service, split by path", "the read-service split (§II-B4)";
    ReadReplicaBytes = C, "univistor_read_replica_bytes_total", [], EAGER,
        "bytes served from resilience replicas after node failures";
    ReplicatedBytes = C, "univistor_replicated_bytes_total", [], EAGER,
        "bytes mirrored into buddy chains for resilience";
    Flushes = C, "univistor_flushes_total", [], EAGER,
        "server-side flushes completed";
    FlushInProgress = G, "univistor_flush_in_progress", [], EAGER,
        "flushes currently draining (pipeline depth)";
    // Flush sizes span bytes to tens of GiB: 4 KiB … 4 GiB, ×4.
    FlushDrainedBytes = H(4096.0, 4.0, 10), "univistor_flush_drained_bytes", [], EAGER,
        "logical bytes drained to the PFS per flush";
    FlushServerBytes = H(1024.0, 4.0, 10), "univistor_flush_server_bytes", [], EAGER,
        "bytes one server wrote during one flush";
    FlushSourceBytes = C, "univistor_flush_source_bytes_total", ["tier": TIER], EAGER,
        "tier each flushed byte was read from";
    FlushLockRevocations = C, "univistor_flush_lock_revocations_total", [], EAGER,
        "Lustre extent-lock revocations suffered while flushing";
    FlushOstWrites = C, "univistor_flush_ost_writes_total", [], EAGER,
        "OST object writes issued by flushes (after stripe coalescing)";
    FlushWriteCalls = C, "univistor_flush_write_calls_total", [], EAGER,
        "Lustre object-write calls issued by flushes (one per coalesced run)";
    FlushSpans = C, "univistor_flush_spans_total", [], EAGER,
        "clipped spans drained by flushes (engine-independent)";
    FlushGatherRoundTrips = C, "univistor_flush_gather_round_trips_total", [], EAGER,
        "chain read round-trips gathering flush data";
    FlushCatchupPasses = C, "univistor_flush_catchup_passes_total", [], EAGER,
        "generation-invalidated redo passes of the write-overlapped drain";
    WritePieces = C, "univistor_write_pieces_total", [], EAGER,
        "segment-grid pieces planned by write calls";
    WriteRecords = C, "univistor_write_records_total", [], EAGER,
        "metadata records committed by write calls (after coalescing)",
        "metadata records committed by write calls (post-coalescing)";
    WriteLockAcquisitions = C, "univistor_write_lock_acquisitions_total",
        ["lock": &["chain", "kv_shard", "node_buffer"]], EAGER,
        "lock round-trips spent by write calls, by lock category";
    ReadLockAcquisitions = C, "univistor_read_lock_acquisitions_total", ["lock": &["chain"]], EAGER,
        "shared lock round-trips spent by read calls, by lock category";
    ReadMdCacheHits = C, "univistor_read_md_cache_hits_total", [], EAGER,
        "distributed lookups served by the node's read record cache";
    ReadMdCacheMisses = C, "univistor_read_md_cache_misses_total", [], EAGER,
        "distributed lookups that missed the cache and visited the KV servers";
    FaultsInjected = C, "univistor_faults_injected_total",
        ["kind": &["transient", "node_loss", "latency", "corruption"]], EAGER,
        "fault injector firings, by kind",
        "fault injector firings: `transient`, `node_loss`, `latency`, `corruption`";
    Retries = C, "univistor_retries_total",
        ["op": &["append", "read", "kv", "flush", "other"]], EAGER,
        "transient faults absorbed by a retry, by op kind",
        "transient faults absorbed by a retry, by op kind (`append`/`read`/`kv`/`flush`/`other`)";
    RetryExhausted = C, "univistor_retry_exhausted_total", [], EAGER,
        "operations that failed after exhausting the retry budget";
    DegradedSegments = G, "univistor_degraded_segments", [], EAGER,
        "metadata records whose primary or replica sits on a failed node";
    FlushSkippedLostBytes = C, "univistor_flush_skipped_lost_bytes_total", [], EAGER,
        "bytes a degraded flush skipped because primary and replica were both lost";
    RepairedSegments = C, "univistor_repaired_segments_total",
        ["role": &["primary", "replica"]], EAGER,
        "records re-protected by online repair, by repaired role",
        "records re-protected by `rebuild_degraded` (`primary`/`replica`)";
    RepairedBytes = C, "univistor_repaired_bytes_total", [], EAGER,
        "bytes copied onto healthy chains by online repair";
    TieringPasses = C, "univistor_tiering_passes_total", [], EAGER,
        "background tiering passes run across all nodes";
    TieringSpilledSegments = C, "univistor_tiering_spilled_segments_total", ["tier": TIER], EAGER,
        "segments spilled down a layer by watermark pressure, by source tier";
    TieringSpilledBytes = C, "univistor_tiering_spilled_bytes_total", ["tier": TIER], EAGER,
        "bytes spilled down a layer by watermark pressure, by source tier";
    TieringDrainedSegments = C, "univistor_tiering_drained_segments_total", [], EAGER,
        "cold segments copied ahead to the PFS by the drain phase";
    TieringDrainedBytes = C, "univistor_tiering_drained_bytes_total", [], EAGER,
        "bytes copied ahead to the PFS by the drain phase";
    TieringPromotedSegments = C, "univistor_tiering_promoted_segments_total", [], EAGER,
        "segments promoted to the top layer by the benefit/cost policy";
    TieringPromotedBytes = C, "univistor_tiering_promoted_bytes_total", [], EAGER,
        "bytes moved up by benefit/cost promotions";
    TieringHeatDecays = C, "univistor_tiering_heat_decays_total", [], EAGER,
        "periodic heat-counter halving ticks applied";
    TieringPaused = G, "univistor_tiering_paused", [], EAGER,
        "1 while the tiering engine is paused";
    TieringCatchupSkippedBytes = C, "univistor_tiering_catchup_skipped_bytes_total", [], EAGER,
        "bytes the close-time flush skipped because the drain daemon had already copied them",
        "bytes the close-time flush skipped because the daemon had drained them";
    IntegrityVerifyFailures = C, "univistor_integrity_verify_failures_total", ["site": SITE], EAGER,
        "checksum verifies that failed, by verify point",
        "checksum verifies that failed, by verify point \
         (`read`/`flush`/`tiering`/`repair`/`scrub`)";
    IntegrityDigestBytes = C, "univistor_integrity_digest_bytes_total",
        ["site": &["stamp", "read", "flush", "tiering", "repair", "scrub"],
         "source": &["absorbed", "memo"]], LAZY,
        "bytes stamped or verified, by digest point and by digest source",
        "bytes stamped or verified by the job's `Verifier`, by digest point (`stamp` + the five \
         verify points) and by how the digest was obtained (`absorbed` = bytes digested, \
         `memo` = answered from the per-job digest memo)";
    IntegrityMemoEntries = G, "univistor_integrity_memo_entries", [], LAZY,
        "pattern descriptors remembered by the per-job digest memo";
    ScrubSegments = C, "univistor_scrub_segments_total", [], EAGER,
        "records the scrubber has checksum-verified";
    ScrubCorruptionsDetected = C, "univistor_scrub_corruptions_detected_total", [], EAGER,
        "corrupt copies detected by checksum verification",
        "corrupt copies the scrubber (or a read verify) detected";
    ScrubRepaired = C, "univistor_scrub_repaired_total", [], EAGER,
        "corrupt copies repaired from a clean copy";
    PartitionMailboxDepth = G, "univistor_partition_mailbox_depth", ["partition": &[]], LAZY,
        "requests queued in the partition worker's mailbox";
    // Mailbox waits span sub-microsecond handoffs to milliseconds under
    // load: 100 ns … ~1.6 s, ×4.
    PartitionWaitSeconds = H(1e-7, 4.0, 12), "univistor_partition_wait_seconds",
        ["partition": &[]], LAZY,
        "enqueue-to-dequeue latency of partition mailbox messages";
    PartitionMessages = C, "univistor_partition_messages_total", ["partition": &[]], LAZY,
        "messages dequeued by partition workers";
    PartitionBatchedOps = C, "univistor_partition_batched_ops_total", ["partition": &[]], LAZY,
        "logical batched operations carried by partition messages";
    PartitionRoundTrips = C, "univistor_partition_round_trips_total", [], LAZY,
        "awaited request/reply round-trips issued by the routing layer";
    MsgplaneReplyPoolHits = C, "univistor_msgplane_reply_pool_hits_total", [], LAZY,
        "awaited requests served by a recycled reply slot";
    MsgplaneReplyPoolMisses = C, "univistor_msgplane_reply_pool_misses_total", [], LAZY,
        "awaited requests that allocated a fresh reply slot";
}

impl Family {
    /// Series the table lists: the product of the label value counts (none
    /// for a family whose label is filled in at run time).
    pub const fn series(&self) -> usize {
        let (mut n, mut i) = (1, 0);
        while i < self.labels.len() {
            n *= self.labels[i].1.len();
            i += 1;
        }
        n
    }

    /// Cells one series takes: one for a counter or a gauge; a histogram's
    /// bucket counts (the last is `+Inf`), its count and its sum's bits.
    const fn cells(&self) -> usize {
        match self.kind {
            Kind::Histogram(_, _, buckets) => buckets + 3,
            Kind::Counter | Kind::Gauge => 1,
        }
    }

    /// Cells the family takes in its block: every series, a label filled
    /// in at run time taking its one value there.
    const fn span(&self) -> usize {
        let series = self.series();
        (if series == 0 { 1 } else { series }) * self.cells()
    }
}

impl Fam {
    /// This family's table row.
    pub const fn row(self) -> &'static Family {
        &FAMILIES[self as usize]
    }

    /// The published family name.
    pub const fn name(self) -> &'static str {
        self.row().name
    }
}

/// The lazy planes' families, in the order they lie in the plane's block.
const INTEGRITY: &[Fam] = &[Fam::IntegrityDigestBytes, Fam::IntegrityMemoEntries];
const MSGPLANE: &[Fam] = &[
    Fam::PartitionRoundTrips,
    Fam::MsgplaneReplyPoolHits,
    Fam::MsgplaneReplyPoolMisses,
];
/// One partition worker's families; the workers' blocks lie end to end,
/// [`PARTITION_STRIDE`] cells apart.
const PARTITION: &[Fam] = &[
    Fam::PartitionMailboxDepth,
    Fam::PartitionWaitSeconds,
    Fam::PartitionMessages,
    Fam::PartitionBatchedOps,
];

/// Where each family's series start in its block: the eager families in
/// table order in the panel's block, each lazy plane's in its list order.
const SLOT: [usize; FAMILIES.len()] = {
    let mut slot = [usize::MAX; FAMILIES.len()];
    let (mut eager, mut i) = (0, 0);
    while i < FAMILIES.len() {
        if FAMILIES[i].eager {
            slot[i] = eager;
            eager += FAMILIES[i].span();
        }
        i += 1;
    }
    let planes = [INTEGRITY, MSGPLANE, PARTITION];
    let mut p = 0;
    while p < planes.len() {
        let (mut at, mut k) = (0, 0);
        while k < planes[p].len() {
            slot[planes[p][k] as usize] = at;
            at += planes[p][k].row().span();
            k += 1;
        }
        p += 1;
    }
    i = 0;
    while i < FAMILIES.len() {
        assert!(slot[i] != usize::MAX, "a lazy family in no plane's list");
        i += 1;
    }
    slot
};

/// Cells of a block holding `fams`, laid out by [`SLOT`].
const fn cells(fams: &[Fam]) -> usize {
    let last = fams[fams.len() - 1];
    SLOT[last as usize] + last.row().span()
}

/// Cells of the panel's block: every eager series.
const EAGER_CELLS: usize = {
    let (mut n, mut i) = (0, 0);
    while i < FAMILIES.len() {
        if FAMILIES[i].eager {
            n = SLOT[i] + FAMILIES[i].span();
        }
        i += 1;
    }
    n
};

/// Cells per cache line.
const LINE: usize = 8;

/// Cells between two partition workers' blocks: whole lines, so no two
/// workers share one.
const PARTITION_STRIDE: usize = cells(PARTITION).div_ceil(LINE) * LINE;

/// Cell index of the series of `fam` whose (only) label has `value`.
/// Called through [`at!`] at compile time, so a misspelt value fails the
/// build instead of counting into a neighbour.
const fn slot_of(fam: Fam, value: &str) -> usize {
    let values = fam.row().labels[0].1;
    let mut i = 0;
    while i < values.len() {
        let (a, b) = (values[i].as_bytes(), value.as_bytes());
        let mut same = a.len() == b.len();
        let mut k = 0;
        while same && k < a.len() {
            same = a[k] == b[k];
            k += 1;
        }
        if same {
            return SLOT[fam as usize] + i * fam.row().cells();
        }
        i += 1;
    }
    panic!("label value missing from the family's table row")
}

/// Compile-time cell index, in its block, of a family's first series, or
/// of the series with the given label value.
macro_rules! at {
    ($fam:ident) => {
        const { SLOT[Fam::$fam as usize] }
    };
    ($fam:ident, $value:literal) => {
        const { slot_of(Fam::$fam, $value) }
    };
}

/// One cache line of cells. Blocks are built of whole lines, so every
/// block starts on a line of its own.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Line([AtomicU64; LINE]);

/// A block of atomic cells, shared by the panel and the views into it. A
/// counter's cell holds its value and a gauge's the bits of an `i64`; a
/// histogram's cells hold its bucket counts, its count and its sum's bits.
#[derive(Clone)]
struct Block(Arc<[Line]>);

impl std::fmt::Debug for Block {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Block({} cells)", self.len())
    }
}

impl Block {
    fn new(cells: usize) -> Self {
        Block((0..cells.div_ceil(LINE)).map(|_| Line::default()).collect())
    }

    fn len(&self) -> usize {
        self.0.len() * LINE
    }

    fn cell(&self, i: usize) -> &AtomicU64 {
        &self.0[i / LINE].0[i % LINE]
    }

    fn get(&self, i: usize) -> u64 {
        self.cell(i).load(Relaxed)
    }

    fn add(&self, i: usize, n: u64) {
        self.cell(i).fetch_add(n, Relaxed);
    }

    /// Record `v` into the histogram of `fam` whose cells start at `at`.
    fn observe(&self, at: usize, fam: Fam, v: f64) {
        let Kind::Histogram(first, factor, buckets) = fam.row().kind else {
            unreachable!("{} is not a histogram", fam.name());
        };
        // `<= bound` semantics: the bucket is how many bounds lie below `v`.
        let bucket = bounds(first, factor, buckets)
            .take_while(|&b| b < v)
            .count();
        self.add(at + bucket, 1);
        self.add(at + buckets + 1, 1);
        let sum = self.cell(at + buckets + 2);
        let _ = sum.fetch_update(Relaxed, Relaxed, |s| {
            Some((f64::from_bits(s) + v).to_bits())
        });
    }

    fn counter(&self, cell: usize) -> Counter {
        Counter {
            block: self.clone(),
            cell,
        }
    }

    fn gauge(&self, cell: usize) -> Gauge {
        Gauge {
            block: self.clone(),
            cell,
        }
    }
}

/// A histogram's finite bucket bounds: `first`, `first * factor`, … .
fn bounds(first: f64, factor: f64, buckets: usize) -> impl Iterator<Item = f64> {
    std::iter::successors(Some(first), move |b| Some(b * factor)).take(buckets)
}

/// A monotonically increasing counter: a view of one cell of a block.
#[derive(Debug, Clone)]
pub struct Counter {
    block: Block,
    cell: usize,
}

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.block.add(self.cell, n);
    }
}

/// A value that goes up and down: a view of one cell of a block.
#[derive(Debug, Clone)]
pub struct Gauge {
    block: Block,
    cell: usize,
}

impl Gauge {
    /// Set to an absolute value.
    pub fn set(&self, v: i64) {
        self.block.cell(self.cell).store(v as u64, Relaxed);
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.block.add(self.cell, 1);
    }

    /// Decrement by one.
    pub fn dec(&self) {
        self.block.cell(self.cell).fetch_sub(1, Relaxed);
    }
}

/// A fixed-bucket histogram of one family: a view of its cells.
#[derive(Debug, Clone)]
pub struct Histogram {
    block: Block,
    cell: usize,
    fam: Fam,
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: f64) {
        self.block.observe(self.cell, self.fam, v);
    }
}

/// Stable label value for a tier (snake_case, unlike the display form).
pub fn tier_label(tier: Tier) -> &'static str {
    TIER[tier as usize]
}

/// Map a fault-injection site tag to its position among the `op` values
/// of `univistor_retries_total`.
fn retry_index(site: &str) -> usize {
    const PREFIXES: [&str; 4] = ["chain_append", "chain_read", "kv", "flush"];
    let other = PREFIXES.len();
    PREFIXES
        .iter()
        .position(|p| site.starts_with(p))
        .unwrap_or(other)
}

/// A verify point of the integrity plane — the `site` label of the verify
/// failure and digest byte families, in the order of its table values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifySite {
    Read,
    Flush,
    Tiering,
    Repair,
    Scrub,
}

/// `univistor_integrity_digest_bytes_total` counters of one digest point:
/// bytes absorbed, then bytes answered from the digest memo.
pub type DigestBytes = [Counter; 2];

/// Cached instruments of the job's [`Verifier`](crate::integrity::Verifier).
#[derive(Debug, Clone)]
pub struct IntegrityMetrics {
    /// The write-commit (and scrubber re-) stamp, `site="stamp"`.
    pub stamp_bytes: DigestBytes,
    /// The verify points, indexed by [`VerifySite`].
    pub verify_bytes: [DigestBytes; 5],
    /// Descriptors the digest memo currently remembers.
    pub memo_entries: Gauge,
}

/// Cached fault-injection counters handed to
/// [`crate::fault::FaultInjector::install_counters`] so the injector can
/// report without holding the panel.
#[derive(Debug, Clone)]
pub struct FaultCounters {
    /// Transient I/O errors injected.
    pub transient: Counter,
    /// Permanent node losses triggered by the schedule.
    pub node_loss: Counter,
    /// Operations delayed by injected latency.
    pub latency: Counter,
    /// Silent corruptions registered against stored copies.
    pub corruption: Counter,
}

/// Cached mailbox instruments of one partition worker (the partitioned
/// runtime's per-partition telemetry).
#[derive(Debug, Clone)]
pub struct PartitionMetrics {
    /// Requests currently queued in the partition's mailbox.
    pub mailbox_depth: Gauge,
    /// Seconds between a request's enqueue and its dequeue by the worker.
    pub wait_seconds: Histogram,
    /// Messages the worker has dequeued.
    pub messages: Counter,
    /// Logical operations carried by those messages (a write of 8 grid
    /// pieces counts 8, a read 1).
    pub batched_ops: Counter,
}

/// Cached message-plane instruments of the partitioned runtime's routing
/// layer: round-trip accounting plus reply-slot pool recycling.
#[derive(Debug, Clone)]
pub struct MsgPlaneMetrics {
    /// Awaited request/reply round-trips: one per routed write or read.
    pub round_trips: Counter,
    /// Awaited requests whose reply slot came from the recycle pool.
    pub pool_hits: Counter,
    /// Awaited requests that allocated a fresh reply slot.
    pub pool_misses: Counter,
}

/// The job's instrument panel, one per [`crate::server::UniviStorJob`].
#[derive(Debug)]
pub struct JobMetrics {
    /// Every eager series, in table order, addressed through [`at!`].
    eager: Block,
    integrity: OnceLock<Block>,
    msgplane: OnceLock<Block>,
    /// The partition workers' blocks, end to end.
    partitions: OnceLock<Block>,
}

/// Lock-acquisition counts of one write call, by lock category. The write
/// pipelines fill one of these per call so the batch-vs-per-piece cost is
/// visible in `univistor_write_lock_acquisitions_total`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteLockCounts {
    /// Exclusive log-chain acquisitions (appends + displaced releases).
    pub chain: u64,
    /// KV shard write locks: each commit's splice locks its window's
    /// shards once.
    pub kv_shard: u64,
    /// Shared-metadata-buffer acquisitions across nodes.
    pub node_buffer: u64,
}

impl Default for JobMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl JobMetrics {
    /// A fresh panel: one zeroed block for every eager series.
    pub fn new() -> Self {
        JobMetrics {
            eager: Block::new(EAGER_CELLS),
            integrity: OnceLock::new(),
            msgplane: OnceLock::new(),
            partitions: OnceLock::new(),
        }
    }

    /// Point-in-time snapshot of every published family, sorted by name,
    /// each family's samples in label order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let member = |fams: &[Fam], i: usize| fams.iter().any(|&f| f as usize == i);
        let mut families = Vec::new();
        for (i, row) in FAMILIES.iter().enumerate() {
            // The blocks holding the family: where its series start in
            // each, and the partition each counts for.
            let blocks: Vec<(&Block, usize, Option<usize>)> = if row.eager {
                vec![(&self.eager, SLOT[i], None)]
            } else if member(PARTITION, i) {
                let Some(b) = self.partitions.get() else {
                    continue;
                };
                (0..b.len() / PARTITION_STRIDE)
                    .map(|p| (b, p * PARTITION_STRIDE + SLOT[i], Some(p)))
                    .collect()
            } else {
                let plane = match member(INTEGRITY, i) {
                    true => &self.integrity,
                    false => &self.msgplane,
                };
                let Some(b) = plane.get() else {
                    continue;
                };
                vec![(b, SLOT[i], None)]
            };
            let mut samples = Vec::new();
            for (block, start, partition) in blocks {
                for series in 0..row.series().max(1) {
                    // Row-major: the last key's value varies fastest.
                    let mut rest = series;
                    let labels = (row.labels.iter().rev())
                        .map(|&(key, values)| {
                            let value = match values {
                                [] => partition.expect("a run-time label").to_string(),
                                _ => {
                                    let v = values[rest % values.len()];
                                    rest /= values.len();
                                    v.to_string()
                                }
                            };
                            (key.to_string(), value)
                        })
                        .collect();
                    let at = start + series * row.cells();
                    let value = match row.kind {
                        Kind::Counter => SampleValue::Counter(block.get(at)),
                        Kind::Gauge => SampleValue::Gauge(block.get(at) as i64),
                        Kind::Histogram(first, factor, n) => {
                            SampleValue::Histogram(HistogramSnapshot {
                                buckets: (bounds(first, factor, n).chain([f64::INFINITY]))
                                    .enumerate()
                                    .map(|(k, bound)| (bound, block.get(at + k)))
                                    .collect(),
                                count: block.get(at + n + 1),
                                sum: f64::from_bits(block.get(at + n + 2)),
                            })
                        }
                    };
                    samples.push(Sample { labels, value });
                }
            }
            // Label-set order, as strings: partition "10" before "2".
            samples.sort_by(|a, b| a.labels.cmp(&b.labels));
            families.push(FamilySnapshot {
                name: row.name.to_string(),
                help: row.help.to_string(),
                kind: match row.kind {
                    Kind::Counter => FamilyKind::Counter,
                    Kind::Gauge => FamilyKind::Gauge,
                    Kind::Histogram(..) => FamilyKind::Histogram,
                },
                samples,
            });
        }
        families.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot { families }
    }

    /// Sum of an eager counter family's series — how the typed views read
    /// a lifetime total.
    pub(crate) fn total(&self, fam: Fam) -> u64 {
        let first = SLOT[fam as usize];
        (first..first + fam.row().series())
            .map(|i| self.eager.get(i))
            .sum()
    }

    /// Record `v` into an eager histogram.
    fn observe(&self, fam: Fam, v: f64) {
        self.eager.observe(SLOT[fam as usize], fam, v);
    }

    /// Cached fault-injection counters for
    /// [`crate::fault::FaultInjector::install_counters`].
    pub fn fault_counters(&self) -> FaultCounters {
        FaultCounters {
            transient: self.eager.counter(at!(FaultsInjected, "transient")),
            node_loss: self.eager.counter(at!(FaultsInjected, "node_loss")),
            latency: self.eager.counter(at!(FaultsInjected, "latency")),
            corruption: self.eager.counter(at!(FaultsInjected, "corruption")),
        }
    }

    /// Cached digest instruments for the job's
    /// [`Verifier`](crate::integrity::Verifier), which asks at its first
    /// digest.
    pub fn integrity_handles(&self) -> IntegrityMetrics {
        let block = self.integrity.get_or_init(|| Block::new(cells(INTEGRITY)));
        // Series order: `site` (stamp, then the verify points) × `source`.
        let site = |s: usize| {
            let at = at!(IntegrityDigestBytes) + 2 * s;
            [block.counter(at), block.counter(at + 1)]
        };
        IntegrityMetrics {
            stamp_bytes: site(0),
            verify_bytes: std::array::from_fn(|s| site(s + 1)),
            memo_entries: block.gauge(at!(IntegrityMemoEntries)),
        }
    }

    /// Cached mailbox instruments for the partitioned runtime's `workers`
    /// partition workers, asked for once at runtime construction.
    pub fn partition_handles(&self, workers: usize) -> Vec<PartitionMetrics> {
        let block = self
            .partitions
            .get_or_init(|| Block::new(workers * PARTITION_STRIDE));
        assert_eq!(
            block.len(),
            workers * PARTITION_STRIDE,
            "one partition pool per panel"
        );
        (0..workers)
            .map(|p| {
                let base = p * PARTITION_STRIDE;
                PartitionMetrics {
                    mailbox_depth: block.gauge(base + at!(PartitionMailboxDepth)),
                    wait_seconds: Histogram {
                        block: block.clone(),
                        cell: base + at!(PartitionWaitSeconds),
                        fam: Fam::PartitionWaitSeconds,
                    },
                    messages: block.counter(base + at!(PartitionMessages)),
                    batched_ops: block.counter(base + at!(PartitionBatchedOps)),
                }
            })
            .collect()
    }

    /// Cached message-plane instruments for the partitioned runtime's
    /// routing layer.
    pub fn msgplane_handles(&self) -> MsgPlaneMetrics {
        let block = self.msgplane.get_or_init(|| Block::new(cells(MSGPLANE)));
        MsgPlaneMetrics {
            round_trips: block.counter(at!(PartitionRoundTrips)),
            pool_hits: block.counter(at!(MsgplaneReplyPoolHits)),
            pool_misses: block.counter(at!(MsgplaneReplyPoolMisses)),
        }
    }

    /// A transient fault at `site` was absorbed by a retry. The site
    /// string is the injection site tag (`chain_append`, `chain_read`,
    /// `kv_insert`, `kv_lookup`, `flush_lookup`, ...), folded into the
    /// op-kind label so scrub- and app-path retries are distinguishable.
    pub fn record_retry(&self, site: &str) {
        self.eager.add(at!(Retries) + retry_index(site), 1);
    }

    /// An operation failed after exhausting its retry budget.
    pub fn record_retry_exhausted(&self) {
        self.eager.add(at!(RetryExhausted), 1);
    }

    /// A checksum verify failed at the named verify point.
    pub fn record_verify_failure(&self, site: VerifySite) {
        self.eager
            .add(at!(IntegrityVerifyFailures) + site as usize, 1);
        self.eager.add(at!(ScrubCorruptionsDetected), 1);
    }

    /// The scrubber checksum-verified `n` records.
    pub fn record_scrub_segments(&self, n: u64) {
        self.eager.add(at!(ScrubSegments), n);
    }

    /// A corrupt copy was repaired from a clean one.
    pub fn record_scrub_repair(&self) {
        self.eager.add(at!(ScrubRepaired), 1);
    }

    /// Publish the current count of degraded records (records whose
    /// primary or replica sits on a failed node).
    pub fn set_degraded_segments(&self, n: u64) {
        self.eager
            .cell(at!(DegradedSegments))
            .store(n.min(i64::MAX as u64), Relaxed);
    }

    /// Account a repair pass: records whose primary / replica were
    /// re-protected, and the bytes copied onto healthy chains.
    pub fn record_repair(&self, primary: u64, replica: u64, bytes: u64) {
        self.eager.add(at!(RepairedSegments, "primary"), primary);
        self.eager.add(at!(RepairedSegments, "replica"), replica);
        self.eager.add(at!(RepairedBytes), bytes);
    }

    /// An open served (one metadata RPC against the file-name-hashed
    /// server — the all-to-one storm without COC).
    pub fn record_open(&self) {
        self.eager.add(at!(Ops, "open"), 1);
        self.eager.add(at!(MdRpcs, "open_close"), 1);
    }

    /// A close served (ditto).
    pub fn record_close(&self) {
        self.eager.add(at!(Ops, "close"), 1);
        self.eager.add(at!(MdRpcs, "open_close"), 1);
    }

    /// A write call accepted (before segmentation).
    pub fn record_write_call(&self) {
        self.eager.add(at!(Ops, "write"), 1);
    }

    /// One segment placed by DHP: `layer` is the chain index it landed on
    /// (> 0 means the fastest layer was full — a spill event).
    pub fn record_segment(&self, tier: Tier, layer: usize, len: u64) {
        self.eager.add(at!(Segments), 1);
        self.eager.add(at!(MdRpcs, "write"), 1);
        self.eager.add(at!(CachedBytes) + tier as usize, len);
        if layer > 0 {
            self.eager.add(at!(TierSpillEvents) + tier as usize, 1);
        }
    }

    /// Bytes mirrored into a buddy chain.
    pub fn record_replication(&self, len: u64) {
        self.eager.add(at!(ReplicatedBytes), len);
    }

    /// One write call's pipeline accounting: how many grid pieces were
    /// planned, how many metadata records they coalesced into, and the lock
    /// round-trips spent. The coalescing ratio is `pieces / records`.
    pub fn record_write_batch(&self, pieces: u64, records: u64, locks: WriteLockCounts) {
        self.eager.add(at!(WritePieces), pieces);
        self.eager.add(at!(WriteRecords), records);
        self.eager
            .add(at!(WriteLockAcquisitions, "chain"), locks.chain);
        self.eager
            .add(at!(WriteLockAcquisitions, "kv_shard"), locks.kv_shard);
        self.eager
            .add(at!(WriteLockAcquisitions, "node_buffer"), locks.node_buffer);
    }

    /// A read call's aggregated accounting. Most fields of one read are 0,
    /// and only the others pay an atomic add.
    pub fn record_read_trace(&self, t: &ReadTrace) {
        let cells = [
            (at!(Ops, "read"), t.requests),
            (at!(MdRpcs, "read"), t.md_rpcs),
            (at!(MdLocalHits), t.local_md_hits),
            (at!(ReadBytes, "local_hit"), t.local_direct_bytes),
            (at!(ReadBytes, "local_via_server"), t.local_via_server_bytes),
            (at!(ReadBytes, "bb_direct"), t.shared_direct_bytes),
            (at!(ReadBytes, "pfs_direct"), t.pfs_direct_bytes),
            (at!(ReadBytes, "remote_hop"), t.remote_bytes),
            (at!(ReadReplicaBytes), t.replica_bytes),
            (at!(ReadMdCacheHits), t.md_cache_hits),
            (at!(ReadMdCacheMisses), t.md_cache_misses),
        ];
        for (cell, n) in cells {
            if n != 0 {
                self.eager.add(cell, n);
            }
        }
    }

    /// A read call's lock accounting: shared chain-lock round-trips spent
    /// fetching fragments (one per producer group; one per fragment under
    /// the per-record reference fetch of the differential tests).
    pub fn record_read_locks(&self, locks: ReadLockCounts) {
        if locks.chain != 0 {
            self.eager
                .add(at!(ReadLockAcquisitions, "chain"), locks.chain);
        }
    }

    /// A flush entered the pipeline. Pair with [`Self::flush_finished`].
    pub fn flush_started(&self) {
        self.eager.add(at!(FlushInProgress), 1);
    }

    /// A flush left the pipeline (success or failure).
    pub fn flush_finished(&self) {
        self.eager.cell(at!(FlushInProgress)).fetch_sub(1, Relaxed);
    }

    /// Account a completed flush from its receipt.
    pub fn record_flush(&self, receipt: &FlushReceipt) {
        self.eager.add(at!(Flushes), 1);
        self.observe(Fam::FlushDrainedBytes, receipt.file_size as f64);
        for &bytes in &receipt.per_server_bytes {
            if bytes > 0 {
                self.observe(Fam::FlushServerBytes, bytes as f64);
            }
        }
        for &(tier, bytes) in &receipt.source_tier_bytes {
            self.eager.add(at!(FlushSourceBytes) + tier as usize, bytes);
        }
        self.eager
            .add(at!(FlushLockRevocations), receipt.lock_revocations);
        self.eager.add(at!(FlushOstWrites), receipt.ost_writes);
        self.eager.add(at!(FlushWriteCalls), receipt.write_calls);
        self.eager.add(at!(FlushSpans), receipt.spans);
        self.eager
            .add(at!(FlushGatherRoundTrips), receipt.gather_round_trips);
        self.eager
            .add(at!(FlushCatchupPasses), receipt.catchup_passes);
        self.eager
            .add(at!(FlushSkippedLostBytes), receipt.lost.lost_bytes);
        self.eager
            .add(at!(TieringCatchupSkippedBytes), receipt.drained_ahead_bytes);
    }

    /// One background tiering pass started on some node.
    pub fn record_tiering_pass(&self) {
        self.eager.add(at!(TieringPasses), 1);
    }

    /// One segment spilled down a layer; `tier` is the *source* tier it
    /// left.
    pub fn record_tiering_spill(&self, tier: Tier, len: u64) {
        self.eager
            .add(at!(TieringSpilledSegments) + tier as usize, 1);
        self.eager
            .add(at!(TieringSpilledBytes) + tier as usize, len);
    }

    /// One cold segment copied ahead to the PFS by the drain phase.
    pub fn record_tiering_drain(&self, len: u64) {
        self.eager.add(at!(TieringDrainedSegments), 1);
        self.eager.add(at!(TieringDrainedBytes), len);
    }

    /// One segment promoted to the top layer by the benefit/cost policy.
    pub fn record_tiering_promotion(&self, len: u64) {
        self.eager.add(at!(TieringPromotedSegments), 1);
        self.eager.add(at!(TieringPromotedBytes), len);
    }

    /// One periodic heat-halving tick applied.
    pub fn record_tiering_decay(&self) {
        self.eager.add(at!(TieringHeatDecays), 1);
    }

    /// Publish the engine's pause state.
    pub fn set_tiering_paused(&self, paused: bool) {
        self.eager
            .cell(at!(TieringPaused))
            .store(paused as u64, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_segment_splits_by_tier_and_spill() {
        let m = JobMetrics::new();
        m.record_segment(Tier::Dram, 0, 100);
        m.record_segment(Tier::SharedBurstBuffer, 1, 50);
        m.record_segment(Tier::SharedBurstBuffer, 1, 50);
        let snap = m.snapshot();
        assert_eq!(
            snap.counter("univistor_cached_bytes_total", &[("tier", "dram")]),
            Some(100)
        );
        assert_eq!(
            snap.counter("univistor_cached_bytes_total", &[("tier", "burst_buffer")]),
            Some(100)
        );
        assert_eq!(
            snap.counter(
                "univistor_tier_spill_events_total",
                &[("tier", "burst_buffer")]
            ),
            Some(2)
        );
        // Layer 0 never counts as a spill (the series exists at zero —
        // the panel holds a cell for every tier).
        assert_eq!(
            snap.counter("univistor_tier_spill_events_total", &[("tier", "dram")]),
            Some(0)
        );
        assert_eq!(snap.counter_total("univistor_segments_total"), 3);
    }

    #[test]
    fn read_trace_maps_onto_path_labels() {
        let m = JobMetrics::new();
        m.record_read_trace(&ReadTrace {
            local_direct_bytes: 10,
            local_via_server_bytes: 20,
            shared_direct_bytes: 30,
            pfs_direct_bytes: 40,
            remote_bytes: 50,
            md_rpcs: 2,
            local_md_hits: 3,
            requests: 1,
            replica_bytes: 5,
            md_cache_hits: 4,
            md_cache_misses: 6,
        });
        m.record_read_locks(ReadLockCounts { chain: 9 });
        let snap = m.snapshot();
        assert_eq!(
            snap.counter("univistor_read_bytes_total", &[("path", "local_hit")]),
            Some(10)
        );
        assert_eq!(
            snap.counter("univistor_read_bytes_total", &[("path", "remote_hop")]),
            Some(50)
        );
        assert_eq!(
            snap.counter("univistor_md_rpcs_total", &[("op", "read")]),
            Some(2)
        );
        assert_eq!(snap.counter_total("univistor_md_local_hits_total"), 3);
        assert_eq!(snap.counter_total("univistor_read_md_cache_hits_total"), 4);
        assert_eq!(
            snap.counter_total("univistor_read_md_cache_misses_total"),
            6
        );
        assert_eq!(
            snap.counter(
                "univistor_read_lock_acquisitions_total",
                &[("lock", "chain")]
            ),
            Some(9)
        );
    }

    #[test]
    fn flush_receipt_feeds_histograms() {
        let m = JobMetrics::new();
        m.flush_started();
        m.record_flush(&FlushReceipt {
            dest: "/f".into(),
            file_size: 4096,
            plan: crate::striping::naive_plan(4096, 2, 4, 1024),
            per_server_bytes: vec![2048, 2048],
            per_ost_bytes: vec![1024; 4],
            source_tier_bytes: vec![(Tier::Dram, 4096)],
            lock_revocations: 3,
            osts_per_server: 4,
            lost: crate::flush::FlushReport {
                lost_segments: 1,
                lost_bytes: 256,
            },
            drained_ahead_bytes: 512,
            ost_writes: 12,
            write_calls: 6,
            spans: 8,
            gather_round_trips: 5,
            catchup_passes: 2,
        });
        m.flush_finished();
        let snap = m.snapshot();
        let h = snap
            .histogram("univistor_flush_drained_bytes", &[])
            .expect("histogram present");
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 4096.0);
        let per_server = snap
            .histogram("univistor_flush_server_bytes", &[])
            .expect("per-server histogram");
        assert_eq!(per_server.count, 2);
        assert_eq!(snap.gauge("univistor_flush_in_progress", &[]), Some(0));
        for (family, want) in [
            ("univistor_flush_lock_revocations_total", 3),
            ("univistor_flush_skipped_lost_bytes_total", 256),
            ("univistor_tiering_catchup_skipped_bytes_total", 512),
            ("univistor_flush_ost_writes_total", 12),
            ("univistor_flush_write_calls_total", 6),
            ("univistor_flush_spans_total", 8),
            ("univistor_flush_gather_round_trips_total", 5),
            ("univistor_flush_catchup_passes_total", 2),
        ] {
            assert_eq!(snap.counter(family, &[]), Some(want), "{family}");
        }
    }

    #[test]
    fn histogram_buckets_hold_observations_at_or_below_their_bound() {
        let m = JobMetrics::new();
        // Bounds 1024, 4096, 16384, …: a boundary value lands in its own
        // bucket, and past the last bound in `+Inf`.
        for v in [0.5, 1024.0, 1025.0, 4096.0, 1e12] {
            m.observe(Fam::FlushServerBytes, v);
        }
        let snap = m.snapshot();
        let h = snap
            .histogram("univistor_flush_server_bytes", &[])
            .expect("histogram present");
        let counts: Vec<u64> = h.buckets.iter().map(|&(_, c)| c).collect();
        assert_eq!(counts, [2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1]);
        assert_eq!(h.buckets[1].0, 4096.0);
        assert!(h.buckets[10].0.is_infinite());
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 0.5 + 1024.0 + 1025.0 + 4096.0 + 1e12);
    }

    #[test]
    fn views_share_their_cells() {
        let m = JobMetrics::new();
        let parts = m.partition_handles(3);
        let depth = parts[2].mailbox_depth.clone();
        depth.inc();
        depth.inc();
        parts[2].mailbox_depth.dec();
        parts[2].messages.clone().add(4);
        parts[2].messages.inc();
        let snap = m.snapshot();
        let p2 = [("partition", "2")];
        assert_eq!(
            snap.gauge("univistor_partition_mailbox_depth", &p2),
            Some(1)
        );
        assert_eq!(
            snap.counter("univistor_partition_messages_total", &p2),
            Some(5)
        );
        // Neighbouring workers' cells are untouched.
        let p1 = [("partition", "1")];
        assert_eq!(
            snap.gauge("univistor_partition_mailbox_depth", &p1),
            Some(0)
        );
        assert_eq!(
            snap.counter("univistor_partition_messages_total", &p1),
            Some(0)
        );
        parts[2].mailbox_depth.set(-3);
        assert_eq!(
            m.snapshot().gauge("univistor_partition_mailbox_depth", &p2),
            Some(-3)
        );
    }

    #[test]
    fn tiering_families_record() {
        let m = JobMetrics::new();
        m.record_tiering_pass();
        m.record_tiering_spill(Tier::Dram, 64);
        m.record_tiering_spill(Tier::Dram, 64);
        m.record_tiering_drain(128);
        m.record_tiering_promotion(32);
        m.record_tiering_decay();
        m.set_tiering_paused(true);
        let snap = m.snapshot();
        for (family, labels, want) in [
            ("univistor_tiering_passes_total", &[][..], 1),
            (
                "univistor_tiering_spilled_segments_total",
                &[("tier", "dram")],
                2,
            ),
            (
                "univistor_tiering_spilled_bytes_total",
                &[("tier", "dram")],
                128,
            ),
            ("univistor_tiering_drained_segments_total", &[], 1),
            ("univistor_tiering_drained_bytes_total", &[], 128),
            ("univistor_tiering_promoted_segments_total", &[], 1),
            ("univistor_tiering_promoted_bytes_total", &[], 32),
            ("univistor_tiering_heat_decays_total", &[], 1),
        ] {
            assert_eq!(snap.counter(family, labels), Some(want), "{family}");
        }
        assert_eq!(snap.gauge("univistor_tiering_paused", &[]), Some(1));
        m.set_tiering_paused(false);
        assert_eq!(m.snapshot().gauge("univistor_tiering_paused", &[]), Some(0));
    }

    #[test]
    fn fault_and_repair_families_record() {
        let m = JobMetrics::new();
        let faults = m.fault_counters();
        faults.transient.inc();
        faults.transient.inc();
        faults.node_loss.inc();
        m.record_retry("chain_read");
        m.record_retry_exhausted();
        m.set_degraded_segments(7);
        m.record_repair(3, 4, 2048);
        let snap = m.snapshot();
        assert_eq!(
            snap.counter("univistor_faults_injected_total", &[("kind", "transient")]),
            Some(2)
        );
        assert_eq!(
            snap.counter("univistor_faults_injected_total", &[("kind", "node_loss")]),
            Some(1)
        );
        assert_eq!(snap.counter_total("univistor_retries_total"), 1);
        assert_eq!(
            snap.counter("univistor_retries_total", &[("op", "read")]),
            Some(1),
            "chain_read maps onto the read op label"
        );
        assert_eq!(snap.counter_total("univistor_retry_exhausted_total"), 1);
        assert_eq!(snap.gauge("univistor_degraded_segments", &[]), Some(7));
        assert_eq!(
            snap.counter("univistor_repaired_segments_total", &[("role", "primary")]),
            Some(3)
        );
        assert_eq!(
            snap.counter("univistor_repaired_segments_total", &[("role", "replica")]),
            Some(4)
        );
        assert_eq!(snap.counter_total("univistor_repaired_bytes_total"), 2048);
        m.set_degraded_segments(0);
        assert_eq!(
            m.snapshot().gauge("univistor_degraded_segments", &[]),
            Some(0)
        );
    }

    #[test]
    fn retry_sites_map_onto_op_labels() {
        let m = JobMetrics::new();
        m.record_retry("chain_append");
        m.record_retry("chain_read");
        m.record_retry("kv_insert");
        m.record_retry("kv_lookup");
        m.record_retry("flush_lookup");
        m.record_retry("mystery_site");
        let snap = m.snapshot();
        for (op, want) in [
            ("append", 1),
            ("read", 1),
            ("kv", 2),
            ("flush", 1),
            ("other", 1),
        ] {
            assert_eq!(
                snap.counter("univistor_retries_total", &[("op", op)]),
                Some(want),
                "op label {op}"
            );
        }
        assert_eq!(snap.counter_total("univistor_retries_total"), 6);
    }

    #[test]
    fn integrity_and_scrub_families_record() {
        let m = JobMetrics::new();
        m.record_verify_failure(VerifySite::Read);
        m.record_verify_failure(VerifySite::Scrub);
        m.record_scrub_segments(10);
        m.record_scrub_repair();
        let snap = m.snapshot();
        assert_eq!(
            snap.counter(
                "univistor_integrity_verify_failures_total",
                &[("site", "read")]
            ),
            Some(1)
        );
        assert_eq!(
            snap.counter(
                "univistor_integrity_verify_failures_total",
                &[("site", "scrub")]
            ),
            Some(1)
        );
        assert_eq!(snap.counter_total("univistor_scrub_segments_total"), 10);
        assert_eq!(
            snap.counter_total("univistor_scrub_corruptions_detected_total"),
            2
        );
        assert_eq!(snap.counter_total("univistor_scrub_repaired_total"), 1);
    }
}
