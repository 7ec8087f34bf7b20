//! Job-wide telemetry: every hot path of the UniviStor runtime reports
//! into one [`JobMetrics`] instrument panel backed by the lock-cheap
//! `univistor-obs` registry.
//!
//! The panel caches one atomic handle per (family, label) pair at
//! construction time, so recording from the data path is a single
//! `fetch_add` — no lock, no allocation, no label lookup. Families:
//!
//! | family | kind | labels | fed by |
//! |---|---|---|---|
//! | `univistor_ops_total` | counter | `op` | open/close/write/read in `server` |
//! | `univistor_md_rpcs_total` | counter | `op` | open/close storms, per-segment puts, read lookups |
//! | `univistor_md_local_hits_total` | counter | — | shared-metadata-buffer hits in `read` |
//! | `univistor_segments_total` | counter | — | DHP appends |
//! | `univistor_cached_bytes_total` | counter | `tier` | bytes placed per layer (`placement`) |
//! | `univistor_tier_spill_events_total` | counter | `tier` | segments that spilled past layer 0 |
//! | `univistor_read_bytes_total` | counter | `path` | the read-service split (§II-B4) |
//! | `univistor_read_replica_bytes_total` | counter | — | bytes served from resilience replicas |
//! | `univistor_replicated_bytes_total` | counter | — | buddy-copy bytes written |
//! | `univistor_promotions_total` | counter | — | adaptive promotions to DRAM |
//! | `univistor_flushes_total` | counter | — | server-side flushes completed |
//! | `univistor_flush_in_progress` | gauge | — | flush pipeline depth |
//! | `univistor_flush_drained_bytes` | histogram | — | logical bytes moved per flush |
//! | `univistor_flush_server_bytes` | histogram | — | bytes one server wrote in one flush |
//! | `univistor_flush_source_bytes_total` | counter | `tier` | where flushed bytes were cached |
//! | `univistor_flush_lock_revocations_total` | counter | — | Lustre lock revocations while flushing |
//! | `univistor_flush_ost_writes_total` | counter | — | OST object writes issued (after stripe coalescing) |
//! | `univistor_flush_write_calls_total` | counter | — | Lustre object-write calls (one per coalesced run) |
//! | `univistor_flush_spans_total` | counter | — | clipped spans drained (engine-independent) |
//! | `univistor_flush_gather_round_trips_total` | counter | — | chain read round-trips gathering flush data |
//! | `univistor_flush_catchup_passes_total` | counter | — | generation-invalidated redo passes of the write-overlapped drain |
//! | `univistor_sched_decisions_total` | counter | `decision` | placement/migration choices (`sched`) |
//! | `univistor_write_pieces_total` | counter | — | segment-grid pieces planned by write calls |
//! | `univistor_write_records_total` | counter | — | metadata records committed by write calls (post-coalescing) |
//! | `univistor_write_lock_acquisitions_total` | counter | `lock` | lock round-trips spent by write calls |
//! | `univistor_read_lock_acquisitions_total` | counter | `lock` | shared chain-lock round-trips spent by read calls |
//! | `univistor_read_md_cache_hits_total` | counter | — | distributed lookups served by the node's read record cache |
//! | `univistor_read_md_cache_misses_total` | counter | — | distributed lookups that visited the KV servers |
//! | `univistor_read_readahead_bytes_total` | counter | — | lookup-window bytes issued past request ends by readahead |
//! | `univistor_faults_injected_total` | counter | `kind` | fault injector firings: `transient`, `node_loss`, `latency`, `corruption` |
//! | `univistor_retries_total` | counter | `op` | transient faults absorbed by a retry, by op kind (`append`/`read`/`kv`/`flush`/`other`) |
//! | `univistor_retry_exhausted_total` | counter | — | operations that failed after the full retry budget |
//! | `univistor_degraded_segments` | gauge | — | records whose primary or replica sits on a failed node |
//! | `univistor_flush_skipped_lost_bytes_total` | counter | — | bytes a degraded flush skipped because primary and replica were lost |
//! | `univistor_repaired_segments_total` | counter | `role` | records re-protected by `rebuild_degraded` (`primary`/`replica`) |
//! | `univistor_repaired_bytes_total` | counter | — | bytes copied onto healthy chains by repair |
//! | `univistor_tiering_passes_total` | counter | — | background tiering passes run (all nodes) |
//! | `univistor_tiering_spilled_segments_total` | counter | `tier` | segments spilled down a layer, by source tier |
//! | `univistor_tiering_spilled_bytes_total` | counter | `tier` | bytes spilled down a layer, by source tier |
//! | `univistor_tiering_drained_segments_total` | counter | — | cold segments copied ahead to the PFS by the drain phase |
//! | `univistor_tiering_drained_bytes_total` | counter | — | bytes copied ahead to the PFS by the drain phase |
//! | `univistor_tiering_promoted_segments_total` | counter | — | segments the benefit/cost policy promoted to the top layer |
//! | `univistor_tiering_promoted_bytes_total` | counter | — | bytes moved up by promotions |
//! | `univistor_tiering_heat_decays_total` | counter | — | periodic heat-counter halving ticks applied |
//! | `univistor_tiering_paused` | gauge | — | 1 while the tiering engine is paused |
//! | `univistor_tiering_catchup_skipped_bytes_total` | counter | — | bytes the close-time flush skipped because the daemon had drained them |
//! | `univistor_integrity_verify_failures_total` | counter | `site` | checksum verifies that failed, by verify point (`read`/`flush`/`tiering`/`repair`/`scrub`) |
//! | `univistor_integrity_digest_bytes_total` | counter | `site`, `source` | bytes stamped or verified by the job's `Verifier`, by digest point (`stamp` + the five verify points) and by how the digest was obtained (`absorbed` = bytes digested, `memo` = answered from the per-job digest memo) |
//! | `univistor_integrity_memo_entries` | gauge | — | pattern descriptors the digest memo currently remembers |
//! | `univistor_scrub_segments_total` | counter | — | records the scrubber has verified |
//! | `univistor_scrub_corruptions_detected_total` | counter | — | corrupt copies the scrubber (or a read verify) detected |
//! | `univistor_scrub_repaired_total` | counter | — | corrupt copies repaired from a clean copy |
//! | `univistor_partition_mailbox_depth` | gauge | `partition` | requests queued in a partition worker's mailbox |
//! | `univistor_partition_wait_seconds` | histogram | `partition` | enqueue-to-dequeue latency of mailbox messages |
//! | `univistor_partition_messages_total` | counter | `partition` | messages dequeued by a partition worker |
//! | `univistor_partition_batched_ops_total` | counter | `partition` | logical batched ops carried by those messages |
//! | `univistor_partition_round_trips_total` | counter | — | awaited request/reply round-trips issued by the routing layer |
//! | `univistor_msgplane_reply_pool_hits_total` | counter | — | awaited requests served by a recycled reply slot |
//! | `univistor_msgplane_reply_pool_misses_total` | counter | — | awaited requests that had to allocate a fresh reply slot |
//!
//! [`UniviStorJob::metrics`](crate::server::UniviStorJob::metrics) snapshots
//! the whole panel as a [`MetricsSnapshot`]; the legacy
//! [`JobStats`](crate::server::JobStats) view is derived from these same
//! counters (see `server::stats`), so the two can never disagree.

use crate::flush::FlushReceipt;
use crate::read::{ReadLockCounts, ReadTrace};
use crate::va::Tier;
use univistor_obs::{exponential_buckets, Counter, Gauge, Histogram, MetricsSnapshot, Registry};

/// Stable label value for a tier (snake_case, unlike the display form).
pub fn tier_label(tier: Tier) -> &'static str {
    match tier {
        Tier::Dram => "dram",
        Tier::NodeLocal => "node_local",
        Tier::SharedBurstBuffer => "burst_buffer",
        Tier::Pfs => "pfs",
    }
}

/// All tiers, in chain order; indexes the per-tier handle arrays.
const TIERS: [Tier; 4] = [
    Tier::Dram,
    Tier::NodeLocal,
    Tier::SharedBurstBuffer,
    Tier::Pfs,
];

fn tier_index(tier: Tier) -> usize {
    match tier {
        Tier::Dram => 0,
        Tier::NodeLocal => 1,
        Tier::SharedBurstBuffer => 2,
        Tier::Pfs => 3,
    }
}

/// Op-kind labels of `univistor_retries_total`; indexes the cached
/// handle array via [`retry_index`].
const RETRY_OPS: [&str; 5] = ["append", "read", "kv", "flush", "other"];

/// Map a fault-injection site tag to its retry op-kind index.
fn retry_index(site: &str) -> usize {
    if site.starts_with("chain_append") {
        0
    } else if site.starts_with("chain_read") {
        1
    } else if site.starts_with("kv") {
        2
    } else if site.starts_with("flush") {
        3
    } else {
        4
    }
}

/// A verify point of the integrity plane — the `site` label of
/// `univistor_integrity_verify_failures_total` and
/// `univistor_integrity_digest_bytes_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifySite {
    Read,
    Flush,
    Tiering,
    Repair,
    Scrub,
}

impl VerifySite {
    /// Every verify point, in discriminant order.
    const ALL: [VerifySite; 5] = [
        VerifySite::Read,
        VerifySite::Flush,
        VerifySite::Tiering,
        VerifySite::Repair,
        VerifySite::Scrub,
    ];

    /// The `site` label value.
    pub fn label(self) -> &'static str {
        match self {
            VerifySite::Read => "read",
            VerifySite::Flush => "flush",
            VerifySite::Tiering => "tiering",
            VerifySite::Repair => "repair",
            VerifySite::Scrub => "scrub",
        }
    }
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

/// The job's instrument panel. One per [`crate::server::UniviStorJob`]
/// (shareable across jobs for fleet-wide aggregation).
#[derive(Debug)]
pub struct JobMetrics {
    registry: Registry,

    opens: Counter,
    closes: Counter,
    writes: Counter,
    reads: Counter,

    md_open_close: Counter,
    md_write: Counter,
    md_read: Counter,
    md_local_hits: Counter,

    segments: Counter,
    cached_bytes: [Counter; 4],
    spill_events: [Counter; 4],
    replicated_bytes: Counter,
    promotions: Counter,

    read_local_hit: Counter,
    read_local_via_server: Counter,
    read_bb_direct: Counter,
    read_pfs_direct: Counter,
    read_remote_hop: Counter,
    read_replica: Counter,

    flushes: Counter,
    flush_in_progress: Gauge,
    flush_drained: Histogram,
    flush_server_bytes: Histogram,
    flush_source: [Counter; 4],
    flush_revocations: Counter,
    flush_ost_writes: Counter,
    flush_write_calls: Counter,
    flush_spans: Counter,
    flush_gather_round_trips: Counter,
    flush_catchup_passes: Counter,

    write_pieces: Counter,
    write_records: Counter,
    /// Indexed as chain / kv_shard / node_buffer / accounting.
    write_locks: [Counter; 4],

    read_locks_chain: Counter,
    read_md_cache_hits: Counter,
    read_md_cache_misses: Counter,
    read_readahead_bytes: Counter,

    faults: FaultCounters,
    /// Indexed as append / read / kv / flush / other (see `retry_index`).
    retries: [Counter; 5],
    retry_exhausted: Counter,
    /// Indexed by [`VerifySite`].
    verify_failures: [Counter; 5],
    scrub_segments: Counter,
    scrub_detected: Counter,
    scrub_repaired: Counter,
    degraded_segments: Gauge,
    flush_skipped_lost_bytes: Counter,
    repaired_primary: Counter,
    repaired_replica: Counter,
    repaired_bytes: Counter,

    tiering_passes: Counter,
    tiering_spilled_segments: [Counter; 4],
    tiering_spilled_bytes: [Counter; 4],
    tiering_drained_segments: Counter,
    tiering_drained_bytes: Counter,
    tiering_promoted_segments: Counter,
    tiering_promoted_bytes: Counter,
    tiering_heat_decays: Counter,
    tiering_paused: Gauge,
    tiering_catchup_bytes: Counter,

    sched: SchedCounters,
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
    /// Accounting-mutex acquisitions.
    pub accounting: u64,
}

impl Default for JobMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl JobMetrics {
    /// A fresh panel with every family registered and children cached.
    pub fn new() -> Self {
        let registry = Registry::new();
        let ops = registry.counter_family("univistor_ops_total", "operations served by the job");
        let md = registry.counter_family("univistor_md_rpcs_total", "metadata-server RPCs issued");
        let md_local = registry.counter_family(
            "univistor_md_local_hits_total",
            "lookups satisfied by the node's shared metadata buffer (no RPC)",
        );
        let segments =
            registry.counter_family("univistor_segments_total", "segments appended by DHP");
        let cached = registry.counter_family(
            "univistor_cached_bytes_total",
            "bytes placed on each storage tier by DHP",
        );
        let spills = registry.counter_family(
            "univistor_tier_spill_events_total",
            "segments that spilled past the fastest layer, by destination tier",
        );
        let read_bytes = registry.counter_family(
            "univistor_read_bytes_total",
            "bytes delivered by the read service, split by path",
        );
        let read_replica = registry.counter_family(
            "univistor_read_replica_bytes_total",
            "bytes served from resilience replicas after node failures",
        );
        let replicated = registry.counter_family(
            "univistor_replicated_bytes_total",
            "bytes mirrored into buddy chains for resilience",
        );
        let promotions = registry.counter_family(
            "univistor_promotions_total",
            "segments promoted to DRAM by adaptive placement",
        );
        let flushes =
            registry.counter_family("univistor_flushes_total", "server-side flushes completed");
        let flush_gauge = registry.gauge_family(
            "univistor_flush_in_progress",
            "flushes currently draining (pipeline depth)",
        );
        // Flush sizes span bytes to tens of GiB: 4 KiB … 4 GiB, ×4.
        let drained_bounds = exponential_buckets(4096.0, 4.0, 10);
        let flush_drained = registry.histogram_family(
            "univistor_flush_drained_bytes",
            "logical bytes drained to the PFS per flush",
            &drained_bounds,
        );
        let per_server_bounds = exponential_buckets(1024.0, 4.0, 10);
        let flush_server = registry.histogram_family(
            "univistor_flush_server_bytes",
            "bytes one server wrote during one flush",
            &per_server_bounds,
        );
        let flush_source = registry.counter_family(
            "univistor_flush_source_bytes_total",
            "tier each flushed byte was read from",
        );
        let flush_revocations = registry.counter_family(
            "univistor_flush_lock_revocations_total",
            "Lustre extent-lock revocations suffered while flushing",
        );
        let flush_ost_writes = registry.counter_family(
            "univistor_flush_ost_writes_total",
            "OST object writes issued by flushes (after stripe coalescing)",
        );
        let flush_write_calls = registry.counter_family(
            "univistor_flush_write_calls_total",
            "Lustre object-write calls issued by flushes (one per coalesced run)",
        );
        let flush_spans = registry.counter_family(
            "univistor_flush_spans_total",
            "clipped spans drained by flushes (engine-independent)",
        );
        let flush_gather_round_trips = registry.counter_family(
            "univistor_flush_gather_round_trips_total",
            "chain read round-trips gathering flush data",
        );
        let flush_catchup_passes = registry.counter_family(
            "univistor_flush_catchup_passes_total",
            "generation-invalidated redo passes of the write-overlapped drain",
        );
        let sched = registry.counter_family(
            "univistor_sched_decisions_total",
            "interference-aware scheduler placement decisions",
        );
        let write_pieces = registry.counter_family(
            "univistor_write_pieces_total",
            "segment-grid pieces planned by write calls",
        );
        let write_records = registry.counter_family(
            "univistor_write_records_total",
            "metadata records committed by write calls (after coalescing)",
        );
        let write_locks = registry.counter_family(
            "univistor_write_lock_acquisitions_total",
            "lock round-trips spent by write calls, by lock category",
        );
        let read_locks = registry.counter_family(
            "univistor_read_lock_acquisitions_total",
            "shared lock round-trips spent by read calls, by lock category",
        );
        let read_cache_hits = registry.counter_family(
            "univistor_read_md_cache_hits_total",
            "distributed lookups served by the node's read record cache",
        );
        let read_cache_misses = registry.counter_family(
            "univistor_read_md_cache_misses_total",
            "distributed lookups that missed the cache and visited the KV servers",
        );
        let readahead_bytes = registry.counter_family(
            "univistor_read_readahead_bytes_total",
            "lookup-window bytes issued past request ends by sequential readahead",
        );
        let faults = registry.counter_family(
            "univistor_faults_injected_total",
            "fault injector firings, by kind",
        );
        let retries = registry.counter_family(
            "univistor_retries_total",
            "transient faults absorbed by a retry, by op kind",
        );
        let retry_exhausted = registry.counter_family(
            "univistor_retry_exhausted_total",
            "operations that failed after exhausting the retry budget",
        );
        let verify_failures = registry.counter_family(
            "univistor_integrity_verify_failures_total",
            "checksum verifies that failed, by verify point",
        );
        let scrub_segments = registry.counter_family(
            "univistor_scrub_segments_total",
            "records the scrubber has checksum-verified",
        );
        let scrub_detected = registry.counter_family(
            "univistor_scrub_corruptions_detected_total",
            "corrupt copies detected by checksum verification",
        );
        let scrub_repaired = registry.counter_family(
            "univistor_scrub_repaired_total",
            "corrupt copies repaired from a clean copy",
        );
        let degraded = registry.gauge_family(
            "univistor_degraded_segments",
            "metadata records whose primary or replica sits on a failed node",
        );
        let flush_skipped = registry.counter_family(
            "univistor_flush_skipped_lost_bytes_total",
            "bytes a degraded flush skipped because primary and replica were both lost",
        );
        let repaired = registry.counter_family(
            "univistor_repaired_segments_total",
            "records re-protected by online repair, by repaired role",
        );
        let repaired_bytes = registry.counter_family(
            "univistor_repaired_bytes_total",
            "bytes copied onto healthy chains by online repair",
        );
        let tiering_passes = registry.counter_family(
            "univistor_tiering_passes_total",
            "background tiering passes run across all nodes",
        );
        let tiering_spilled_segments = registry.counter_family(
            "univistor_tiering_spilled_segments_total",
            "segments spilled down a layer by watermark pressure, by source tier",
        );
        let tiering_spilled_bytes = registry.counter_family(
            "univistor_tiering_spilled_bytes_total",
            "bytes spilled down a layer by watermark pressure, by source tier",
        );
        let tiering_drained_segments = registry.counter_family(
            "univistor_tiering_drained_segments_total",
            "cold segments copied ahead to the PFS by the drain phase",
        );
        let tiering_drained_bytes = registry.counter_family(
            "univistor_tiering_drained_bytes_total",
            "bytes copied ahead to the PFS by the drain phase",
        );
        let tiering_promoted_segments = registry.counter_family(
            "univistor_tiering_promoted_segments_total",
            "segments promoted to the top layer by the benefit/cost policy",
        );
        let tiering_promoted_bytes = registry.counter_family(
            "univistor_tiering_promoted_bytes_total",
            "bytes moved up by benefit/cost promotions",
        );
        let tiering_heat_decays = registry.counter_family(
            "univistor_tiering_heat_decays_total",
            "periodic heat-counter halving ticks applied",
        );
        let tiering_paused = registry.gauge_family(
            "univistor_tiering_paused",
            "1 while the tiering engine is paused",
        );
        let tiering_catchup = registry.counter_family(
            "univistor_tiering_catchup_skipped_bytes_total",
            "bytes the close-time flush skipped because the drain daemon had already copied them",
        );

        let per_tier = |family: &univistor_obs::CounterFamily| -> [Counter; 4] {
            TIERS.map(|t| family.with(&[("tier", tier_label(t))]))
        };

        JobMetrics {
            opens: ops.with(&[("op", "open")]),
            closes: ops.with(&[("op", "close")]),
            writes: ops.with(&[("op", "write")]),
            reads: ops.with(&[("op", "read")]),
            md_open_close: md.with(&[("op", "open_close")]),
            md_write: md.with(&[("op", "write")]),
            md_read: md.with(&[("op", "read")]),
            md_local_hits: md_local.with(&[]),
            segments: segments.with(&[]),
            cached_bytes: per_tier(&cached),
            spill_events: per_tier(&spills),
            replicated_bytes: replicated.with(&[]),
            promotions: promotions.with(&[]),
            read_local_hit: read_bytes.with(&[("path", "local_hit")]),
            read_local_via_server: read_bytes.with(&[("path", "local_via_server")]),
            read_bb_direct: read_bytes.with(&[("path", "bb_direct")]),
            read_pfs_direct: read_bytes.with(&[("path", "pfs_direct")]),
            read_remote_hop: read_bytes.with(&[("path", "remote_hop")]),
            read_replica: read_replica.with(&[]),
            flushes: flushes.with(&[]),
            flush_in_progress: flush_gauge.with(&[]),
            flush_drained: flush_drained.with(&[]),
            flush_server_bytes: flush_server.with(&[]),
            flush_source: per_tier(&flush_source),
            flush_revocations: flush_revocations.with(&[]),
            flush_ost_writes: flush_ost_writes.with(&[]),
            flush_write_calls: flush_write_calls.with(&[]),
            flush_spans: flush_spans.with(&[]),
            flush_gather_round_trips: flush_gather_round_trips.with(&[]),
            flush_catchup_passes: flush_catchup_passes.with(&[]),
            write_pieces: write_pieces.with(&[]),
            write_records: write_records.with(&[]),
            write_locks: [
                write_locks.with(&[("lock", "chain")]),
                write_locks.with(&[("lock", "kv_shard")]),
                write_locks.with(&[("lock", "node_buffer")]),
                write_locks.with(&[("lock", "accounting")]),
            ],
            read_locks_chain: read_locks.with(&[("lock", "chain")]),
            read_md_cache_hits: read_cache_hits.with(&[]),
            read_md_cache_misses: read_cache_misses.with(&[]),
            read_readahead_bytes: readahead_bytes.with(&[]),
            faults: FaultCounters {
                transient: faults.with(&[("kind", "transient")]),
                node_loss: faults.with(&[("kind", "node_loss")]),
                latency: faults.with(&[("kind", "latency")]),
                corruption: faults.with(&[("kind", "corruption")]),
            },
            retries: RETRY_OPS.map(|op| retries.with(&[("op", op)])),
            retry_exhausted: retry_exhausted.with(&[]),
            verify_failures: VerifySite::ALL
                .map(|site| verify_failures.with(&[("site", site.label())])),
            scrub_segments: scrub_segments.with(&[]),
            scrub_detected: scrub_detected.with(&[]),
            scrub_repaired: scrub_repaired.with(&[]),
            degraded_segments: degraded.with(&[]),
            flush_skipped_lost_bytes: flush_skipped.with(&[]),
            repaired_primary: repaired.with(&[("role", "primary")]),
            repaired_replica: repaired.with(&[("role", "replica")]),
            repaired_bytes: repaired_bytes.with(&[]),
            tiering_passes: tiering_passes.with(&[]),
            tiering_spilled_segments: per_tier(&tiering_spilled_segments),
            tiering_spilled_bytes: per_tier(&tiering_spilled_bytes),
            tiering_drained_segments: tiering_drained_segments.with(&[]),
            tiering_drained_bytes: tiering_drained_bytes.with(&[]),
            tiering_promoted_segments: tiering_promoted_segments.with(&[]),
            tiering_promoted_bytes: tiering_promoted_bytes.with(&[]),
            tiering_heat_decays: tiering_heat_decays.with(&[]),
            tiering_paused: tiering_paused.with(&[]),
            tiering_catchup_bytes: tiering_catchup.with(&[]),
            sched: SchedCounters {
                free_core: sched.with(&[("decision", "free_core")]),
                stacked: sched.with(&[("decision", "stacked")]),
                flush_migrations: sched.with(&[("decision", "flush_migration")]),
            },
            registry,
        }
    }

    /// Point-in-time snapshot of every family.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// The underlying registry (for registering extra families alongside).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Cached scheduler counters for [`crate::sched`].
    pub fn sched_counters(&self) -> SchedCounters {
        self.sched.clone()
    }

    /// Cached fault-injection counters for
    /// [`crate::fault::FaultInjector::install_counters`].
    pub fn fault_counters(&self) -> FaultCounters {
        self.faults.clone()
    }

    /// Cached digest instruments for the job's
    /// [`Verifier`](crate::integrity::Verifier). Like the partition
    /// handles below, the families are registered on first use: the
    /// verifier asks at its first digest, which keeps these 13 series
    /// (≈ 3 µs of an ≈ 18 µs job construction) off `UniviStorJob::new`.
    pub fn integrity_handles(&self) -> IntegrityMetrics {
        let digest_bytes = self.registry.counter_family(
            "univistor_integrity_digest_bytes_total",
            "bytes stamped or verified, by digest point and by digest source",
        );
        let digest_bytes_of = |site: &str| -> DigestBytes {
            ["absorbed", "memo"]
                .map(|source| digest_bytes.with(&[("site", site), ("source", source)]))
        };
        let memo_entries = self.registry.gauge_family(
            "univistor_integrity_memo_entries",
            "pattern descriptors remembered by the per-job digest memo",
        );
        IntegrityMetrics {
            stamp_bytes: digest_bytes_of("stamp"),
            verify_bytes: VerifySite::ALL.map(|site| digest_bytes_of(site.label())),
            memo_entries: memo_entries.with(&[]),
        }
    }

    /// Cached mailbox instruments for one partition worker of the
    /// partitioned runtime. Families are registered on first use and
    /// deduplicated by the registry, so calling this once per worker at
    /// runtime construction is cheap and idempotent.
    pub fn partition_handles(&self, partition: usize) -> PartitionMetrics {
        let label = partition.to_string();
        let labels: &[(&str, &str)] = &[("partition", &label)];
        let depth = self.registry.gauge_family(
            "univistor_partition_mailbox_depth",
            "requests queued in the partition worker's mailbox",
        );
        // Mailbox waits span sub-microsecond handoffs to milliseconds
        // under load: 100 ns … ~1.6 s, ×4.
        let wait_bounds = exponential_buckets(1e-7, 4.0, 12);
        let wait = self.registry.histogram_family(
            "univistor_partition_wait_seconds",
            "enqueue-to-dequeue latency of partition mailbox messages",
            &wait_bounds,
        );
        let messages = self.registry.counter_family(
            "univistor_partition_messages_total",
            "messages dequeued by partition workers",
        );
        let batched = self.registry.counter_family(
            "univistor_partition_batched_ops_total",
            "logical batched operations carried by partition messages",
        );
        PartitionMetrics {
            mailbox_depth: depth.with(labels),
            wait_seconds: wait.with(labels),
            messages: messages.with(labels),
            batched_ops: batched.with(labels),
        }
    }

    /// Cached message-plane instruments for the partitioned runtime's
    /// routing layer. Idempotent, like
    /// [`partition_handles`](Self::partition_handles).
    pub fn msgplane_handles(&self) -> MsgPlaneMetrics {
        let round_trips = self.registry.counter_family(
            "univistor_partition_round_trips_total",
            "awaited request/reply round-trips issued by the routing layer",
        );
        let hits = self.registry.counter_family(
            "univistor_msgplane_reply_pool_hits_total",
            "awaited requests served by a recycled reply slot",
        );
        let misses = self.registry.counter_family(
            "univistor_msgplane_reply_pool_misses_total",
            "awaited requests that allocated a fresh reply slot",
        );
        MsgPlaneMetrics {
            round_trips: round_trips.with(&[]),
            pool_hits: hits.with(&[]),
            pool_misses: misses.with(&[]),
        }
    }

    /// A transient fault at `site` was absorbed by a retry. The site
    /// string is the injection site tag (`chain_append`, `chain_read`,
    /// `kv_insert`, `kv_lookup`, `flush_lookup`, ...), folded into the
    /// op-kind label so scrub- and app-path retries are distinguishable.
    pub fn record_retry(&self, site: &str) {
        self.retries[retry_index(site)].inc();
    }

    /// An operation failed after exhausting its retry budget.
    pub fn record_retry_exhausted(&self) {
        self.retry_exhausted.inc();
    }

    /// A checksum verify failed at the named verify point.
    pub fn record_verify_failure(&self, site: VerifySite) {
        self.verify_failures[site as usize].inc();
        self.scrub_detected.inc();
    }

    /// The scrubber checksum-verified `n` records.
    pub fn record_scrub_segments(&self, n: u64) {
        self.scrub_segments.add(n);
    }

    /// A corrupt copy was repaired from a clean one.
    pub fn record_scrub_repair(&self) {
        self.scrub_repaired.inc();
    }

    /// Publish the current count of degraded records (records whose
    /// primary or replica sits on a failed node).
    pub fn set_degraded_segments(&self, n: u64) {
        self.degraded_segments.set(n.min(i64::MAX as u64) as i64);
    }

    /// Account a repair pass: records whose primary / replica were
    /// re-protected, and the bytes copied onto healthy chains.
    pub fn record_repair(&self, primary: u64, replica: u64, bytes: u64) {
        self.repaired_primary.add(primary);
        self.repaired_replica.add(replica);
        self.repaired_bytes.add(bytes);
    }

    /// An open served (one metadata RPC against the file-name-hashed
    /// server — the all-to-one storm without COC).
    pub fn record_open(&self) {
        self.opens.inc();
        self.md_open_close.inc();
    }

    /// A close served (ditto).
    pub fn record_close(&self) {
        self.closes.inc();
        self.md_open_close.inc();
    }

    /// A write call accepted (before segmentation).
    pub fn record_write_call(&self) {
        self.writes.inc();
    }

    /// One segment placed by DHP: `layer` is the chain index it landed on
    /// (> 0 means the fastest layer was full — a spill event).
    pub fn record_segment(&self, tier: Tier, layer: usize, len: u64) {
        self.segments.inc();
        self.md_write.inc();
        self.cached_bytes[tier_index(tier)].add(len);
        if layer > 0 {
            self.spill_events[tier_index(tier)].inc();
        }
    }

    /// Bytes mirrored into a buddy chain.
    pub fn record_replication(&self, len: u64) {
        self.replicated_bytes.add(len);
    }

    /// One write call's pipeline accounting: how many grid pieces were
    /// planned, how many metadata records they coalesced into, and the lock
    /// round-trips spent. The coalescing ratio is `pieces / records`.
    pub fn record_write_batch(&self, pieces: u64, records: u64, locks: WriteLockCounts) {
        self.write_pieces.add(pieces);
        self.write_records.add(records);
        self.write_locks[0].add(locks.chain);
        self.write_locks[1].add(locks.kv_shard);
        self.write_locks[2].add(locks.node_buffer);
        self.write_locks[3].add(locks.accounting);
    }

    /// A read call's aggregated accounting.
    pub fn record_read_trace(&self, t: &ReadTrace) {
        self.reads.add(t.requests);
        self.md_read.add(t.md_rpcs);
        self.md_local_hits.add(t.local_md_hits);
        self.read_local_hit.add(t.local_direct_bytes);
        self.read_local_via_server.add(t.local_via_server_bytes);
        self.read_bb_direct.add(t.shared_direct_bytes);
        self.read_pfs_direct.add(t.pfs_direct_bytes);
        self.read_remote_hop.add(t.remote_bytes);
        self.read_replica.add(t.replica_bytes);
        self.read_md_cache_hits.add(t.md_cache_hits);
        self.read_md_cache_misses.add(t.md_cache_misses);
        self.read_readahead_bytes.add(t.readahead_bytes);
    }

    /// A read call's lock accounting: shared chain-lock round-trips spent
    /// fetching fragments (one per fragment on the per-record pipeline, one
    /// per producer group on the batched one).
    pub fn record_read_locks(&self, locks: ReadLockCounts) {
        self.read_locks_chain.add(locks.chain);
    }

    /// Segments promoted to DRAM.
    pub fn record_promotions(&self, n: u64) {
        self.promotions.add(n);
    }

    /// A flush entered the pipeline. Pair with [`Self::flush_finished`].
    pub fn flush_started(&self) {
        self.flush_in_progress.inc();
    }

    /// A flush left the pipeline (success or failure).
    pub fn flush_finished(&self) {
        self.flush_in_progress.dec();
    }

    /// Account a completed flush from its receipt.
    pub fn record_flush(&self, receipt: &FlushReceipt) {
        self.flushes.inc();
        self.flush_drained.observe(receipt.file_size as f64);
        for &bytes in &receipt.per_server_bytes {
            if bytes > 0 {
                self.flush_server_bytes.observe(bytes as f64);
            }
        }
        for &(tier, bytes) in &receipt.source_tier_bytes {
            self.flush_source[tier_index(tier)].add(bytes);
        }
        self.flush_revocations.add(receipt.lock_revocations);
        self.flush_ost_writes.add(receipt.ost_writes);
        self.flush_write_calls.add(receipt.write_calls);
        self.flush_spans.add(receipt.spans);
        self.flush_gather_round_trips
            .add(receipt.gather_round_trips);
        self.flush_catchup_passes.add(receipt.catchup_passes);
        self.flush_skipped_lost_bytes.add(receipt.lost.lost_bytes);
        self.tiering_catchup_bytes.add(receipt.drained_ahead_bytes);
    }

    /// One background tiering pass started on some node.
    pub fn record_tiering_pass(&self) {
        self.tiering_passes.inc();
    }

    /// One segment spilled down a layer; `tier` is the *source* tier it
    /// left.
    pub fn record_tiering_spill(&self, tier: Tier, len: u64) {
        self.tiering_spilled_segments[tier_index(tier)].inc();
        self.tiering_spilled_bytes[tier_index(tier)].add(len);
    }

    /// One cold segment copied ahead to the PFS by the drain phase.
    pub fn record_tiering_drain(&self, len: u64) {
        self.tiering_drained_segments.inc();
        self.tiering_drained_bytes.add(len);
    }

    /// One segment promoted to the top layer by the benefit/cost policy
    /// (pairs with [`Self::record_promotions`], which the legacy stats
    /// view reads).
    pub fn record_tiering_promotion(&self, len: u64) {
        self.tiering_promoted_segments.inc();
        self.tiering_promoted_bytes.add(len);
    }

    /// One periodic heat-halving tick applied.
    pub fn record_tiering_decay(&self) {
        self.tiering_heat_decays.inc();
    }

    /// Publish the engine's pause state.
    pub fn set_tiering_paused(&self, paused: bool) {
        self.tiering_paused.set(paused as i64);
    }

    /// Raw counter values backing the [`crate::server::JobStats`]
    /// compatibility view.
    pub(crate) fn scalars(&self) -> ScalarValues {
        ScalarValues {
            opens: self.opens.get(),
            closes: self.closes.get(),
            md_open_close: self.md_open_close.get(),
            md_write: self.md_write.get(),
            md_read: self.md_read.get(),
            md_local_hits: self.md_local_hits.get(),
            segments: self.segments.get(),
            cached_bytes: self.cached_bytes.each_ref().map(Counter::get),
            replicated_bytes: self.replicated_bytes.get(),
            promotions: self.promotions.get(),
            reads: self.reads.get(),
            read_local_hit: self.read_local_hit.get(),
            read_local_via_server: self.read_local_via_server.get(),
            read_bb_direct: self.read_bb_direct.get(),
            read_pfs_direct: self.read_pfs_direct.get(),
            read_remote_hop: self.read_remote_hop.get(),
            read_replica: self.read_replica.get(),
            read_md_cache_hits: self.read_md_cache_hits.get(),
            read_md_cache_misses: self.read_md_cache_misses.get(),
            read_readahead_bytes: self.read_readahead_bytes.get(),
        }
    }
}

/// A flat copy of the monotonic counters that the legacy `JobStats` view
/// is computed from. `stats()` reports `current - baseline`; `take_stats`
/// advances the baseline — phase-delta semantics on top of counters that
/// never reset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ScalarValues {
    pub opens: u64,
    pub closes: u64,
    pub md_open_close: u64,
    pub md_write: u64,
    pub md_read: u64,
    pub md_local_hits: u64,
    pub segments: u64,
    pub cached_bytes: [u64; 4],
    pub replicated_bytes: u64,
    pub promotions: u64,
    pub reads: u64,
    pub read_local_hit: u64,
    pub read_local_via_server: u64,
    pub read_bb_direct: u64,
    pub read_pfs_direct: u64,
    pub read_remote_hop: u64,
    pub read_replica: u64,
    pub read_md_cache_hits: u64,
    pub read_md_cache_misses: u64,
    pub read_readahead_bytes: u64,
}

impl ScalarValues {
    /// Element-wise `self - base` (counters are monotonic, so this never
    /// underflows for a baseline taken from the same panel).
    pub fn since(&self, base: &ScalarValues) -> ScalarValues {
        let mut tiers = [0u64; 4];
        for (i, t) in tiers.iter_mut().enumerate() {
            *t = self.cached_bytes[i] - base.cached_bytes[i];
        }
        ScalarValues {
            opens: self.opens - base.opens,
            closes: self.closes - base.closes,
            md_open_close: self.md_open_close - base.md_open_close,
            md_write: self.md_write - base.md_write,
            md_read: self.md_read - base.md_read,
            md_local_hits: self.md_local_hits - base.md_local_hits,
            segments: self.segments - base.segments,
            cached_bytes: tiers,
            replicated_bytes: self.replicated_bytes - base.replicated_bytes,
            promotions: self.promotions - base.promotions,
            reads: self.reads - base.reads,
            read_local_hit: self.read_local_hit - base.read_local_hit,
            read_local_via_server: self.read_local_via_server - base.read_local_via_server,
            read_bb_direct: self.read_bb_direct - base.read_bb_direct,
            read_pfs_direct: self.read_pfs_direct - base.read_pfs_direct,
            read_remote_hop: self.read_remote_hop - base.read_remote_hop,
            read_replica: self.read_replica - base.read_replica,
            read_md_cache_hits: self.read_md_cache_hits - base.read_md_cache_hits,
            read_md_cache_misses: self.read_md_cache_misses - base.read_md_cache_misses,
            read_readahead_bytes: self.read_readahead_bytes - base.read_readahead_bytes,
        }
    }

    /// Per-tier cached bytes as the map shape `JobStats` exposes, with
    /// zero tiers omitted (matching the old lazily-populated map).
    pub fn bytes_by_tier(&self) -> std::collections::BTreeMap<Tier, u64> {
        TIERS
            .iter()
            .zip(self.cached_bytes)
            .filter(|&(_, b)| b > 0)
            .map(|(&t, b)| (t, b))
            .collect()
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
    fn scalar_baseline_diffs() {
        let m = JobMetrics::new();
        m.record_open();
        m.record_segment(Tier::Dram, 0, 64);
        let base = m.scalars();
        m.record_open();
        m.record_segment(Tier::Dram, 0, 64);
        m.record_segment(Tier::Pfs, 1, 32);
        let d = m.scalars().since(&base);
        assert_eq!(d.opens, 1);
        assert_eq!(d.segments, 2);
        assert_eq!(
            d.bytes_by_tier(),
            [(Tier::Dram, 64), (Tier::Pfs, 32)].into_iter().collect()
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
        assert_eq!(
            snap.counter("univistor_flush_lock_revocations_total", &[]),
            Some(3)
        );
        assert_eq!(
            snap.counter("univistor_flush_skipped_lost_bytes_total", &[]),
            Some(256)
        );
        assert_eq!(
            snap.counter("univistor_tiering_catchup_skipped_bytes_total", &[]),
            Some(512)
        );
        assert_eq!(
            snap.counter("univistor_flush_ost_writes_total", &[]),
            Some(12)
        );
        assert_eq!(
            snap.counter("univistor_flush_write_calls_total", &[]),
            Some(6)
        );
        assert_eq!(snap.counter("univistor_flush_spans_total", &[]), Some(8));
        assert_eq!(
            snap.counter("univistor_flush_gather_round_trips_total", &[]),
            Some(5)
        );
        assert_eq!(
            snap.counter("univistor_flush_catchup_passes_total", &[]),
            Some(2)
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
        assert_eq!(snap.counter_total("univistor_tiering_passes_total"), 1);
        assert_eq!(
            snap.counter(
                "univistor_tiering_spilled_segments_total",
                &[("tier", "dram")]
            ),
            Some(2)
        );
        assert_eq!(
            snap.counter("univistor_tiering_spilled_bytes_total", &[("tier", "dram")]),
            Some(128)
        );
        assert_eq!(
            snap.counter_total("univistor_tiering_drained_segments_total"),
            1
        );
        assert_eq!(
            snap.counter_total("univistor_tiering_drained_bytes_total"),
            128
        );
        assert_eq!(
            snap.counter_total("univistor_tiering_promoted_segments_total"),
            1
        );
        assert_eq!(
            snap.counter_total("univistor_tiering_promoted_bytes_total"),
            32
        );
        assert_eq!(snap.counter_total("univistor_tiering_heat_decays_total"), 1);
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
