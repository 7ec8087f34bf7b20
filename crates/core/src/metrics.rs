//! Job-wide telemetry: every hot path of the UniviStor runtime reports
//! into one [`JobMetrics`] instrument panel backed by the lock-cheap
//! `univistor-obs` registry, and the panel is the job's only accounting
//! plane — [`UniviStorJob::metrics`](crate::server::UniviStorJob::metrics)
//! snapshots it, and the typed views ([`JobStats`](crate::server::JobStats),
//! [`TieringStats`](crate::tiering::TieringStats)) are reads of it.
//!
//! Every family the panel can publish is one row of [`FAMILIES`]: name,
//! kind, labels, whether [`JobMetrics::new`] registers it or its plane does
//! on first use, help, and what feeds it. Walking that table, the panel
//! caches one atomic handle per series, so recording from the data path is
//! a single `fetch_add` — no lock, no allocation, no label lookup. The
//! rendered table lives in the README ("Telemetry"); a test keeps it equal
//! to this one and to what an exercised job registers.

use crate::flush::FlushReceipt;
use crate::read::{ReadLockCounts, ReadTrace};
use crate::va::Tier;
use univistor_obs::{exponential_buckets, Counter, Gauge, Histogram, MetricsSnapshot, Registry};

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
    /// Label keys, each with the values registered up front (series order
    /// is row-major over them); a key without values is filled in at run
    /// time (`partition`).
    pub labels: &'static [(&'static str, &'static [&'static str])],
    /// Registered by [`JobMetrics::new`]; otherwise by its plane's
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
/// The integrity, partition and message-plane handles register on first
/// use, which keeps their series off `UniviStorJob::new` (`setup_s`).
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
        "shared-metadata-buffer hits in `read`";
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
    SchedDecisions = C, "univistor_sched_decisions_total",
        ["decision": &["free_core", "stacked", "flush_migration"]], EAGER,
        "interference-aware scheduler placement decisions", "placement/migration choices (`sched`)";
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
    ReadReadaheadBytes = C, "univistor_read_readahead_bytes_total", [], EAGER,
        "lookup-window bytes issued past request ends by sequential readahead";
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
    /// Series registered up front: the product of the label value counts
    /// (none for a family whose label is filled in at run time).
    pub const fn series(&self) -> usize {
        let (mut n, mut i) = (1, 0);
        while i < self.labels.len() {
            n *= self.labels[i].1.len();
            i += 1;
        }
        n
    }

    /// Call `f` with the label set of each series, row-major in table
    /// order; a key without table values takes `dynamic`.
    fn each_series(&self, dynamic: &str, mut f: impl FnMut(&[(&str, &str)])) {
        let values = |i: usize| match self.labels[i].1 {
            [] => std::slice::from_ref(&dynamic),
            table => table,
        };
        match *self.labels {
            [] => f(&[]),
            [(key, _)] => values(0).iter().for_each(|v| f(&[(key, v)])),
            [(a, _), (b, _)] => values(0)
                .iter()
                .for_each(|va| values(1).iter().for_each(|vb| f(&[(a, va), (b, vb)]))),
            _ => unreachable!("no family has three label keys"),
        }
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

/// Where each eager family's series start in the panel's handle vector of
/// its kind (series follow in table order).
const SLOT: [usize; FAMILIES.len()] = {
    let mut slot = [0; FAMILIES.len()];
    let (mut counters, mut gauges, mut histograms, mut i) = (0, 0, 0, 0);
    while i < FAMILIES.len() {
        if FAMILIES[i].eager {
            let next = match FAMILIES[i].kind {
                Kind::Counter => &mut counters,
                Kind::Gauge => &mut gauges,
                Kind::Histogram(..) => &mut histograms,
            };
            slot[i] = *next;
            *next += FAMILIES[i].series();
        }
        i += 1;
    }
    slot
};

/// Handle index of the series of `fam` whose (only) label has `value`.
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
            return SLOT[fam as usize] + i;
        }
        i += 1;
    }
    panic!("label value missing from the family's table row")
}

/// Compile-time handle index of an eager family's first series, or of the
/// series with the given label value.
macro_rules! at {
    ($fam:ident) => {
        const { SLOT[Fam::$fam as usize] }
    };
    ($fam:ident, $value:literal) => {
        const { slot_of(Fam::$fam, $value) }
    };
}

/// Stable label value for a tier (snake_case, unlike the display form).
pub fn tier_label(tier: Tier) -> &'static str {
    TIER[tier as usize]
}

/// All tiers, in chain order (the order of the `tier` label values).
pub(crate) const TIERS: [Tier; 4] = [
    Tier::Dram,
    Tier::NodeLocal,
    Tier::SharedBurstBuffer,
    Tier::Pfs,
];

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
#[derive(Debug, Clone, Default)]
pub struct IntegrityMetrics {
    /// The write-commit (and scrubber re-) stamp, `site="stamp"`.
    pub stamp_bytes: DigestBytes,
    /// The verify points, indexed by [`VerifySite`].
    pub verify_bytes: [DigestBytes; 5],
    /// Descriptors the digest memo currently remembers.
    pub memo_entries: Gauge,
}

/// Cached scheduler counters handed to [`crate::sched`] so the placement
/// policy can report without holding a registry reference.
#[derive(Debug, Clone)]
pub struct SchedCounters {
    /// Processes placed on a free core.
    pub free_core: Counter,
    /// Processes stacked onto an occupied core (oversubscription).
    pub stacked: Counter,
    /// Client processes migrated off server cores for a flush.
    pub flush_migrations: Counter,
}

/// Cached fault-injection counters handed to
/// [`crate::fault::FaultInjector::install_counters`] so the injector can
/// report without holding a registry reference.
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
    /// Logical batched operations carried by those messages (an `Append`
    /// carrying 8 pieces counts 8).
    pub batched_ops: Counter,
}

/// Cached message-plane instruments of the partitioned runtime's routing
/// layer: round-trip accounting plus reply-slot pool recycling.
#[derive(Debug, Clone)]
pub struct MsgPlaneMetrics {
    /// Awaited request/reply round-trips issued by routers (fire-and-
    /// forget messages are not round-trips and are excluded).
    pub round_trips: Counter,
    /// Awaited requests whose reply slot came from the recycle pool.
    pub pool_hits: Counter,
    /// Awaited requests that allocated a fresh reply slot.
    pub pool_misses: Counter,
}

/// Handles of registered series, per kind, in registration order.
#[derive(Debug, Default)]
struct Handles {
    counters: Vec<Counter>,
    gauges: Vec<Gauge>,
    histograms: Vec<Histogram>,
}

impl Handles {
    /// Register `rows` on `registry` (idempotent — the registry hands back
    /// an existing family or child) and collect every series' handle.
    fn register<'a>(
        registry: &Registry,
        rows: impl Iterator<Item = &'a Family> + Clone,
        dynamic: &str,
    ) -> Handles {
        let mut h = Handles::default();
        // Nearly every series is a counter: size that vector once, not by
        // a growth chain — for the eager rows this walk is `setup_s`.
        h.counters.reserve(rows.clone().map(Family::series).sum());
        for row in rows {
            match row.kind {
                Kind::Counter => {
                    let family = registry.counter_family(row.name, row.help);
                    row.each_series(dynamic, |l| h.counters.push(family.with(l)));
                }
                Kind::Gauge => {
                    let family = registry.gauge_family(row.name, row.help);
                    row.each_series(dynamic, |l| h.gauges.push(family.with(l)));
                }
                Kind::Histogram(first, factor, buckets) => {
                    let bounds = exponential_buckets(first, factor, buckets);
                    let family = registry.histogram_family(row.name, row.help, &bounds);
                    row.each_series(dynamic, |l| h.histograms.push(family.with(l)));
                }
            }
        }
        h
    }
}

/// The job's instrument panel, one per [`crate::server::UniviStorJob`].
#[derive(Debug)]
pub struct JobMetrics {
    registry: Registry,
    /// Handles of every eager series, addressed through [`at!`].
    eager: Handles,
}

/// Lock-acquisition counts of one write call, by lock category. The write
/// pipelines fill one of these per call so the batch-vs-per-piece cost is
/// visible in `univistor_write_lock_acquisitions_total`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteLockCounts {
    /// Exclusive log-chain acquisitions (appends + displaced releases).
    pub chain: u64,
    /// KV shard acquisitions (scans, claims, fragment and record puts).
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
    /// A fresh panel: one walk of the table registers every eager family
    /// and caches its series' handles.
    pub fn new() -> Self {
        let registry = Registry::new();
        let eager = Handles::register(&registry, FAMILIES.iter().filter(|f| f.eager), "");
        JobMetrics { registry, eager }
    }

    /// Point-in-time snapshot of every family.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Register a plane's lazy families and hand back their handles.
    fn lazy(&self, families: &[Fam], dynamic: &str) -> Handles {
        Handles::register(&self.registry, families.iter().map(|f| f.row()), dynamic)
    }

    /// Sum of an eager counter family's series, off the cached handles —
    /// how the typed views read a lifetime total.
    pub(crate) fn total(&self, fam: Fam) -> u64 {
        let first = SLOT[fam as usize];
        let series = &self.eager.counters[first..first + fam.row().series()];
        series.iter().map(Counter::get).sum()
    }

    /// Cached scheduler counters for [`crate::sched`].
    pub fn sched_counters(&self) -> SchedCounters {
        SchedCounters {
            free_core: self.eager.counters[at!(SchedDecisions, "free_core")].clone(),
            stacked: self.eager.counters[at!(SchedDecisions, "stacked")].clone(),
            flush_migrations: self.eager.counters[at!(SchedDecisions, "flush_migration")].clone(),
        }
    }

    /// Cached fault-injection counters for
    /// [`crate::fault::FaultInjector::install_counters`].
    pub fn fault_counters(&self) -> FaultCounters {
        FaultCounters {
            transient: self.eager.counters[at!(FaultsInjected, "transient")].clone(),
            node_loss: self.eager.counters[at!(FaultsInjected, "node_loss")].clone(),
            latency: self.eager.counters[at!(FaultsInjected, "latency")].clone(),
            corruption: self.eager.counters[at!(FaultsInjected, "corruption")].clone(),
        }
    }

    /// Cached digest instruments for the job's
    /// [`Verifier`](crate::integrity::Verifier), which asks at its first
    /// digest.
    pub fn integrity_handles(&self) -> IntegrityMetrics {
        let h = self.lazy(&[Fam::IntegrityDigestBytes, Fam::IntegrityMemoEntries], "");
        // Series order: `site` (stamp, then the verify points) × `source`.
        let mut sites = h
            .counters
            .chunks_exact(2)
            .map(|p| [p[0].clone(), p[1].clone()]);
        let mut next = || sites.next().expect("one counter pair per digest point");
        IntegrityMetrics {
            stamp_bytes: next(),
            verify_bytes: std::array::from_fn(|_| next()),
            memo_entries: h.gauges[0].clone(),
        }
    }

    /// Cached mailbox instruments for one partition worker of the
    /// partitioned runtime, asked for once per worker at runtime
    /// construction.
    pub fn partition_handles(&self, partition: usize) -> PartitionMetrics {
        let families = [
            Fam::PartitionMailboxDepth,
            Fam::PartitionWaitSeconds,
            Fam::PartitionMessages,
            Fam::PartitionBatchedOps,
        ];
        let h = self.lazy(&families, &partition.to_string());
        PartitionMetrics {
            mailbox_depth: h.gauges[0].clone(),
            wait_seconds: h.histograms[0].clone(),
            messages: h.counters[0].clone(),
            batched_ops: h.counters[1].clone(),
        }
    }

    /// Cached message-plane instruments for the partitioned runtime's
    /// routing layer.
    pub fn msgplane_handles(&self) -> MsgPlaneMetrics {
        let families = [
            Fam::PartitionRoundTrips,
            Fam::MsgplaneReplyPoolHits,
            Fam::MsgplaneReplyPoolMisses,
        ];
        let h = self.lazy(&families, "");
        MsgPlaneMetrics {
            round_trips: h.counters[0].clone(),
            pool_hits: h.counters[1].clone(),
            pool_misses: h.counters[2].clone(),
        }
    }

    /// A transient fault at `site` was absorbed by a retry. The site
    /// string is the injection site tag (`chain_append`, `chain_read`,
    /// `kv_insert`, `kv_lookup`, `flush_lookup`, ...), folded into the
    /// op-kind label so scrub- and app-path retries are distinguishable.
    pub fn record_retry(&self, site: &str) {
        self.eager.counters[at!(Retries) + retry_index(site)].inc();
    }

    /// An operation failed after exhausting its retry budget.
    pub fn record_retry_exhausted(&self) {
        self.eager.counters[at!(RetryExhausted)].inc();
    }

    /// A checksum verify failed at the named verify point.
    pub fn record_verify_failure(&self, site: VerifySite) {
        self.eager.counters[at!(IntegrityVerifyFailures) + site as usize].inc();
        self.eager.counters[at!(ScrubCorruptionsDetected)].inc();
    }

    /// The scrubber checksum-verified `n` records.
    pub fn record_scrub_segments(&self, n: u64) {
        self.eager.counters[at!(ScrubSegments)].add(n);
    }

    /// A corrupt copy was repaired from a clean one.
    pub fn record_scrub_repair(&self) {
        self.eager.counters[at!(ScrubRepaired)].inc();
    }

    /// Publish the current count of degraded records (records whose
    /// primary or replica sits on a failed node).
    pub fn set_degraded_segments(&self, n: u64) {
        self.eager.gauges[at!(DegradedSegments)].set(n.min(i64::MAX as u64) as i64);
    }

    /// Account a repair pass: records whose primary / replica were
    /// re-protected, and the bytes copied onto healthy chains.
    pub fn record_repair(&self, primary: u64, replica: u64, bytes: u64) {
        self.eager.counters[at!(RepairedSegments, "primary")].add(primary);
        self.eager.counters[at!(RepairedSegments, "replica")].add(replica);
        self.eager.counters[at!(RepairedBytes)].add(bytes);
    }

    /// An open served (one metadata RPC against the file-name-hashed
    /// server — the all-to-one storm without COC).
    pub fn record_open(&self) {
        self.eager.counters[at!(Ops, "open")].inc();
        self.eager.counters[at!(MdRpcs, "open_close")].inc();
    }

    /// A close served (ditto).
    pub fn record_close(&self) {
        self.eager.counters[at!(Ops, "close")].inc();
        self.eager.counters[at!(MdRpcs, "open_close")].inc();
    }

    /// A write call accepted (before segmentation).
    pub fn record_write_call(&self) {
        self.eager.counters[at!(Ops, "write")].inc();
    }

    /// One segment placed by DHP: `layer` is the chain index it landed on
    /// (> 0 means the fastest layer was full — a spill event).
    pub fn record_segment(&self, tier: Tier, layer: usize, len: u64) {
        self.eager.counters[at!(Segments)].inc();
        self.eager.counters[at!(MdRpcs, "write")].inc();
        self.eager.counters[at!(CachedBytes) + tier as usize].add(len);
        if layer > 0 {
            self.eager.counters[at!(TierSpillEvents) + tier as usize].inc();
        }
    }

    /// Bytes mirrored into a buddy chain.
    pub fn record_replication(&self, len: u64) {
        self.eager.counters[at!(ReplicatedBytes)].add(len);
    }

    /// One write call's pipeline accounting: how many grid pieces were
    /// planned, how many metadata records they coalesced into, and the lock
    /// round-trips spent. The coalescing ratio is `pieces / records`.
    pub fn record_write_batch(&self, pieces: u64, records: u64, locks: WriteLockCounts) {
        self.eager.counters[at!(WritePieces)].add(pieces);
        self.eager.counters[at!(WriteRecords)].add(records);
        self.eager.counters[at!(WriteLockAcquisitions, "chain")].add(locks.chain);
        self.eager.counters[at!(WriteLockAcquisitions, "kv_shard")].add(locks.kv_shard);
        self.eager.counters[at!(WriteLockAcquisitions, "node_buffer")].add(locks.node_buffer);
    }

    /// A read call's aggregated accounting.
    pub fn record_read_trace(&self, t: &ReadTrace) {
        self.eager.counters[at!(Ops, "read")].add(t.requests);
        self.eager.counters[at!(MdRpcs, "read")].add(t.md_rpcs);
        self.eager.counters[at!(MdLocalHits)].add(t.local_md_hits);
        self.eager.counters[at!(ReadBytes, "local_hit")].add(t.local_direct_bytes);
        self.eager.counters[at!(ReadBytes, "local_via_server")].add(t.local_via_server_bytes);
        self.eager.counters[at!(ReadBytes, "bb_direct")].add(t.shared_direct_bytes);
        self.eager.counters[at!(ReadBytes, "pfs_direct")].add(t.pfs_direct_bytes);
        self.eager.counters[at!(ReadBytes, "remote_hop")].add(t.remote_bytes);
        self.eager.counters[at!(ReadReplicaBytes)].add(t.replica_bytes);
        self.eager.counters[at!(ReadMdCacheHits)].add(t.md_cache_hits);
        self.eager.counters[at!(ReadMdCacheMisses)].add(t.md_cache_misses);
        self.eager.counters[at!(ReadReadaheadBytes)].add(t.readahead_bytes);
    }

    /// A read call's lock accounting: shared chain-lock round-trips spent
    /// fetching fragments (one per fragment on the per-record pipeline, one
    /// per producer group on the batched one).
    pub fn record_read_locks(&self, locks: ReadLockCounts) {
        self.eager.counters[at!(ReadLockAcquisitions, "chain")].add(locks.chain);
    }

    /// A flush entered the pipeline. Pair with [`Self::flush_finished`].
    pub fn flush_started(&self) {
        self.eager.gauges[at!(FlushInProgress)].inc();
    }

    /// A flush left the pipeline (success or failure).
    pub fn flush_finished(&self) {
        self.eager.gauges[at!(FlushInProgress)].dec();
    }

    /// Account a completed flush from its receipt.
    pub fn record_flush(&self, receipt: &FlushReceipt) {
        self.eager.counters[at!(Flushes)].inc();
        self.eager.histograms[at!(FlushDrainedBytes)].observe(receipt.file_size as f64);
        for &bytes in &receipt.per_server_bytes {
            if bytes > 0 {
                self.eager.histograms[at!(FlushServerBytes)].observe(bytes as f64);
            }
        }
        for &(tier, bytes) in &receipt.source_tier_bytes {
            self.eager.counters[at!(FlushSourceBytes) + tier as usize].add(bytes);
        }
        self.eager.counters[at!(FlushLockRevocations)].add(receipt.lock_revocations);
        self.eager.counters[at!(FlushOstWrites)].add(receipt.ost_writes);
        self.eager.counters[at!(FlushWriteCalls)].add(receipt.write_calls);
        self.eager.counters[at!(FlushSpans)].add(receipt.spans);
        self.eager.counters[at!(FlushGatherRoundTrips)].add(receipt.gather_round_trips);
        self.eager.counters[at!(FlushCatchupPasses)].add(receipt.catchup_passes);
        self.eager.counters[at!(FlushSkippedLostBytes)].add(receipt.lost.lost_bytes);
        self.eager.counters[at!(TieringCatchupSkippedBytes)].add(receipt.drained_ahead_bytes);
    }

    /// One background tiering pass started on some node.
    pub fn record_tiering_pass(&self) {
        self.eager.counters[at!(TieringPasses)].inc();
    }

    /// One segment spilled down a layer; `tier` is the *source* tier it
    /// left.
    pub fn record_tiering_spill(&self, tier: Tier, len: u64) {
        self.eager.counters[at!(TieringSpilledSegments) + tier as usize].inc();
        self.eager.counters[at!(TieringSpilledBytes) + tier as usize].add(len);
    }

    /// One cold segment copied ahead to the PFS by the drain phase.
    pub fn record_tiering_drain(&self, len: u64) {
        self.eager.counters[at!(TieringDrainedSegments)].inc();
        self.eager.counters[at!(TieringDrainedBytes)].add(len);
    }

    /// One segment promoted to the top layer by the benefit/cost policy.
    pub fn record_tiering_promotion(&self, len: u64) {
        self.eager.counters[at!(TieringPromotedSegments)].inc();
        self.eager.counters[at!(TieringPromotedBytes)].add(len);
    }

    /// One periodic heat-halving tick applied.
    pub fn record_tiering_decay(&self) {
        self.eager.counters[at!(TieringHeatDecays)].inc();
    }

    /// Publish the engine's pause state.
    pub fn set_tiering_paused(&self, paused: bool) {
        self.eager.gauges[at!(TieringPaused)].set(paused as i64);
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
        // Layer 0 never counts as a spill (the child exists at zero —
        // the panel pre-registers every tier's handle).
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
            readahead_bytes: 7,
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
            snap.counter_total("univistor_read_readahead_bytes_total"),
            7
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
