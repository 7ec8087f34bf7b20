//! Configuration: job geometry and the feature toggles the evaluation
//! ablates (IA, COC, ADPT, workflow management, flush).

use crate::fault::{FaultConfig, RetryPolicy};
use crate::runtime::host_cpus;
use crate::va::Tier;
use univistor_sim::calibration::Calibration;
use univistor_sim::{SimError, SimResult};

/// Which optimizations are enabled. Every evaluation figure toggles some
/// subset of these; defaults are "everything on" (the shipping system).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Features {
    /// Interference-aware resource scheduling (§II-C).
    pub interference_aware: bool,
    /// Collective open/close: root-only metadata ops + broadcast (§II-F).
    pub collective_open_close: bool,
    /// Adaptive data striping for flush (§II-D).
    pub adaptive_striping: bool,
    /// Lightweight workflow management (§II-E), off by default like the
    /// `ENABLE_WORKFLOW` environment variable.
    pub workflow: bool,
    /// Location-aware read service (§II-B4).
    pub location_aware_reads: bool,
    /// Server-side flush at close time (§II-A); applications without
    /// persistence requirements can disable it.
    pub flush_on_close: bool,
}

impl Default for Features {
    fn default() -> Self {
        Features {
            interference_aware: true,
            collective_open_close: true,
            adaptive_striping: true,
            workflow: false,
            location_aware_reads: true,
            flush_on_close: true,
        }
    }
}

impl Features {
    /// Everything on (including workflow management).
    pub fn all() -> Self {
        Features {
            workflow: true,
            ..Features::default()
        }
    }
}

/// Which threads run [`UniviStorJob`](crate::server::UniviStorJob)'s
/// writes and reads. Both runtimes run the same data plane — one locked
/// core (`ChainSet`, `MetadataService`, heat shards) guarded by sharded
/// `RwLock`s — so they produce the same bytes, records and counters;
/// flushes, maintenance passes and diagnostics run on the calling thread
/// under both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Runtime {
    /// Each write and read runs on the calling thread.
    #[default]
    Locked,
    /// Each write and read is one typed message to the partition worker
    /// owning the caller's node (`partitions` workers, mailboxes bounded
    /// by `mailbox_depth`), which runs the identical call and replies
    /// through a pooled reply slot: one awaited round-trip per call.
    Partitioned,
}

/// Occupancy fractions steering the background spill of one tier
/// (hysteresis pair: spill starts strictly above `high`, stops at or
/// below `low`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierWatermarks {
    /// Spill engages when `live / capacity` exceeds this fraction.
    pub high: f64,
    /// Spill keeps moving cold segments down until `live / capacity`
    /// is at or below this fraction.
    pub low: f64,
}

impl Default for TierWatermarks {
    fn default() -> Self {
        TierWatermarks {
            high: 0.85,
            low: 0.60,
        }
    }
}

/// Unimem-style promotion policy: a segment moves up only when the
/// expected read savings justify the migration traffic.
///
/// With per-byte access costs `c_src`/`c_dst` (relative units, DRAM = 1),
/// a segment of heat `h` scores `h · (c_src − c_dst) / (c_src + c_dst)`
/// — expected future read-byte savings over migration bytes (one read of
/// the source plus one write of the destination). It is promoted when
/// `h ≥ min_reads` **and** the score is at least `min_benefit`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PromotionPolicy {
    /// Reads a segment must have absorbed before it is even considered.
    pub min_reads: u32,
    /// Minimum benefit/cost ratio (see the struct docs). `0.0` reduces
    /// the policy to the legacy read-count threshold.
    pub min_benefit: f64,
}

impl Default for PromotionPolicy {
    fn default() -> Self {
        PromotionPolicy {
            min_reads: 3,
            min_benefit: 1.0,
        }
    }
}

/// The background tiering controller's knobs, grouped into one typed
/// sub-struct instead of more loose fields on [`UniviStorConfig`].
///
/// Disabled by default: with `enabled == false` the data path pays only a
/// boolean check and behaves exactly as before this subsystem existed
/// (figure results stay byte-identical). Enable by setting
/// `cfg.tiering = TieringConfig::on()`.
#[derive(Debug, Clone, PartialEq)]
pub struct TieringConfig {
    /// Master switch for the *automatic* triggers (write-path cadence and
    /// the spawned daemon). Explicit `TieringHandle::drain_now()` calls
    /// run regardless, so operators can tier manually on a disabled job.
    pub enabled: bool,
    /// Spill watermarks for the DRAM layer.
    pub dram: TierWatermarks,
    /// Spill watermarks for the node-local layer (when configured).
    pub node_local: TierWatermarks,
    /// Spill watermarks for the shared burst buffer.
    pub burst_buffer: TierWatermarks,
    /// Run one tiering pass on the writing client's node every this many
    /// write calls (`0` = never from the data path; only the daemon clock
    /// or explicit `drain_now()` calls advance the controller).
    pub drain_cadence_ops: u64,
    /// Wall-clock pause between a daemon actor's passes, in milliseconds.
    pub daemon_interval_ms: u64,
    /// Most segments one spill pass migrates per chain (bounds the work
    /// an inline cadence pass can steal from a writer).
    pub spill_batch: usize,
    /// Most cold spans one pass drains to the PFS per node.
    pub drain_batch: usize,
    /// Upward-migration policy.
    pub promotion: PromotionPolicy,
    /// Halve every heat counter after this many passes (`0` disables
    /// decay — the legacy behavior, where a once-hot segment pins the
    /// fast tier forever).
    pub heat_decay_passes: u64,
}

impl Default for TieringConfig {
    fn default() -> Self {
        TieringConfig {
            enabled: false,
            dram: TierWatermarks::default(),
            node_local: TierWatermarks::default(),
            burst_buffer: TierWatermarks::default(),
            drain_cadence_ops: 64,
            daemon_interval_ms: 5,
            spill_batch: 32,
            drain_batch: 64,
            promotion: PromotionPolicy::default(),
            heat_decay_passes: 16,
        }
    }
}

impl TieringConfig {
    /// The default policy with the daemon switched on.
    pub fn on() -> Self {
        TieringConfig {
            enabled: true,
            ..TieringConfig::default()
        }
    }

    /// The watermark pair governing `tier`, or `None` for the PFS (the
    /// unbounded terminal layer never spills).
    pub fn watermarks(&self, tier: Tier) -> Option<TierWatermarks> {
        match tier {
            Tier::Dram => Some(self.dram),
            Tier::NodeLocal => Some(self.node_local),
            Tier::SharedBurstBuffer => Some(self.burst_buffer),
            Tier::Pfs => None,
        }
    }
}

/// Background checksum-scrubber daemon knobs. Modeled on
/// [`TieringConfig`]: disabled by default, so jobs that never opt in pay
/// nothing and produce byte-identical figure results. Enable by setting
/// `cfg.integrity.scrub = ScrubConfig::on()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrubConfig {
    /// Spawn one scrubber actor per node at job construction. Explicit
    /// `ScrubHandle::scrub_now()` calls run regardless, so operators can
    /// scrub manually on a disabled job.
    pub enabled: bool,
    /// Wall-clock pause between a scrubber actor's passes, in
    /// milliseconds.
    pub interval_ms: u64,
}

impl Default for ScrubConfig {
    fn default() -> Self {
        ScrubConfig {
            enabled: false,
            interval_ms: 5,
        }
    }
}

impl ScrubConfig {
    /// The default policy with the daemon switched on.
    pub fn on() -> Self {
        ScrubConfig {
            enabled: true,
            ..ScrubConfig::default()
        }
    }
}

/// The end-to-end data-integrity plane: write-commit checksums plus the
/// background scrubber.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegrityConfig {
    /// Stamp every committed [`SegmentRecord`](crate::metadata::SegmentRecord)
    /// with a content checksum and verify it at every point data
    /// is fetched (read, flush gather, tiering copy, repair source). On
    /// by default: verification reroutes to a healthy replica instead of
    /// surfacing wrong bytes, and figure results stay byte-identical
    /// because checksums never change *which* bytes are returned.
    pub checksums: bool,
    /// Background scrubber daemon (off by default).
    pub scrub: ScrubConfig,
}

impl Default for IntegrityConfig {
    fn default() -> Self {
        IntegrityConfig {
            checksums: true,
            scrub: ScrubConfig::default(),
        }
    }
}

/// Shape of the job UniviStor serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobGeometry {
    /// Compute nodes allocated.
    pub nodes: usize,
    /// Client processes per node (per application).
    pub procs_per_node: usize,
    /// UniviStor server processes per node (paper default 1; the
    /// evaluation uses 2 to exploit both NUMA sockets).
    pub servers_per_node: usize,
}

impl JobGeometry {
    /// Total client processes of one application.
    pub fn total_procs(&self) -> usize {
        self.nodes * self.procs_per_node
    }

    /// Total UniviStor servers.
    pub fn total_servers(&self) -> usize {
        self.nodes * self.servers_per_node
    }

    /// Node hosting global client rank `rank` (block distribution, as
    /// launched by the scheduler).
    pub fn node_of_rank(&self, rank: usize) -> usize {
        rank / self.procs_per_node
    }

    /// The evaluation's geometry for a given total process count:
    /// 32 procs/node, 2 servers/node (§III-A).
    pub fn paper(total_procs: usize) -> Self {
        let procs_per_node = 32.min(total_procs.max(1));
        let nodes = total_procs.div_ceil(procs_per_node).max(1);
        JobGeometry {
            nodes,
            procs_per_node,
            servers_per_node: 2,
        }
    }
}

/// Full UniviStor configuration.
#[derive(Debug, Clone)]
pub struct UniviStorConfig {
    /// Job geometry.
    pub geometry: JobGeometry,
    /// Feature toggles.
    pub features: Features,
    /// Platform constants (tier bandwidths/capacities, latencies).
    pub cal: Calibration,
    /// Log chunk size in bytes (§II-B1: log space is formatted as chunks).
    pub chunk_size: u64,
    /// Metadata range width for the distributed KV (bytes of logical
    /// offset per range).
    pub metadata_range_size: u64,
    /// α of Eq. 2 — OSTs that saturate one flushing server.
    pub alpha: usize,
    /// Segment size client writes are split into before placement.
    pub segment_size: u64,
    /// Cache on the distributed DRAM layer (off = the paper's
    /// "UniviStor/BB" and "UniviStor/(BB+Disk)" configurations).
    pub enable_dram: bool,
    /// Cache on the shared burst buffer (off together with `enable_dram`
    /// = the paper's "UniviStor/(Disk)" configuration).
    pub enable_bb: bool,
    /// Mirror volatile-layer segments to a buddy process on another node
    /// (the paper's future work: resilience for data in volatile layers).
    pub replicate_volatile: bool,
    /// Retry budget for transient I/O faults (injected or environmental).
    /// Only consulted when an operation actually fails transiently, so
    /// the default policy costs nothing on healthy runs.
    pub retry: RetryPolicy,
    /// Deterministic fault-injection schedule. `None` (the default)
    /// constructs no injector at all: the hot paths pay only an
    /// `Option` check.
    pub fault: Option<FaultConfig>,
    /// Background tiering controller (watermark spill, continuous PFS
    /// drain, policy-driven promotion). Off by default: the data path
    /// then pays only a boolean check.
    pub tiering: TieringConfig,
    /// End-to-end data-integrity plane: write-commit checksums (on by
    /// default) and the background scrubber daemon (off by default).
    pub integrity: IntegrityConfig,
    /// Which threads run writes and reads over the data plane: the
    /// callers' (locked, the default) or a pool of partition workers.
    pub runtime: Runtime,
    /// Partition-worker count for [`Runtime::Partitioned`]. `0` (the
    /// default) sizes the pool automatically: one worker per server,
    /// capped at the host's available parallelism. Explicit values are
    /// clamped to `[1, total_servers]`. Ignored under [`Runtime::Locked`].
    pub partitions: usize,
    /// Bound on queued requests per partition-worker mailbox under
    /// [`Runtime::Partitioned`]. Callers block (natural backpressure)
    /// once a worker falls this far behind; any depth ≥ 1 is
    /// deadlock-free because workers never post to each other. Ignored
    /// under [`Runtime::Locked`].
    pub mailbox_depth: usize,
}

impl UniviStorConfig {
    /// The paper's configuration for a given total client count.
    pub fn paper(total_procs: usize) -> Self {
        UniviStorConfig {
            geometry: JobGeometry::paper(total_procs),
            features: Features::default(),
            cal: Calibration::default(),
            chunk_size: 8 << 20,
            metadata_range_size: 64 << 20,
            alpha: 8,
            segment_size: 8 << 20,
            enable_dram: true,
            enable_bb: true,
            replicate_volatile: false,
            retry: RetryPolicy::default(),
            fault: None,
            tiering: TieringConfig::default(),
            integrity: IntegrityConfig::default(),
            runtime: Runtime::default(),
            partitions: 0,
            mailbox_depth: 1024,
        }
    }

    /// Small geometry for unit tests: `nodes` × `procs_per_node`, tiny
    /// chunks/segments so spill paths trigger with kilobytes.
    ///
    /// Honors `UNIVISTOR_RUNTIME=partitioned` so CI can sweep the whole
    /// test suite under both runtimes; tests that pin runtime-specific
    /// behavior should set `cfg.runtime` explicitly after construction.
    pub fn test_small(nodes: usize, procs_per_node: usize) -> Self {
        let mut cfg = UniviStorConfig {
            geometry: JobGeometry {
                nodes,
                procs_per_node,
                servers_per_node: 2,
            },
            chunk_size: 256,
            metadata_range_size: 1024,
            segment_size: 128,
            ..UniviStorConfig::paper(1)
        };
        // Tiny tiers so tests exercise spilling: 1 KiB DRAM per node,
        // 4 KiB per BB node.
        cfg.cal.dram_cache_capacity_per_node = 1024;
        cfg.cal.bb_capacity_per_node = 4096;
        cfg.cal.bb_nodes_min = 1;
        cfg.cal.bb_nodes_per_compute_node = 0.5;
        if std::env::var("UNIVISTOR_RUNTIME").as_deref() == Ok("partitioned") {
            cfg.runtime = Runtime::Partitioned;
        }
        cfg
    }

    /// Worker count the partitioned runtime resolves `partitions` to:
    /// auto (`0`) is one worker per server capped at the host's
    /// available parallelism; explicit values clamp to
    /// `[1, total_servers]`.
    pub fn partition_workers(&self) -> usize {
        let servers = self.geometry.total_servers().max(1);
        if self.partitions == 0 {
            servers.min(host_cpus())
        } else {
            self.partitions.min(servers)
        }
    }

    /// Reject configurations that would misbehave at runtime with a
    /// typed [`SimError::InvalidConfig`] instead of silent clamping, a
    /// wedged mailbox, an unbounded probability draw, or a panic on a zero
    /// size or count deep in the data path. Called by job
    /// construction ([`UniviStorJob::try_new`](crate::server::UniviStorJob::try_new));
    /// the panicking constructors surface the same message.
    pub fn validate(&self) -> SimResult<()> {
        fn prob(name: &str, p: f64) -> SimResult<()> {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(SimError::InvalidConfig(format!(
                    "{name} must be a probability in [0, 1], got {p}"
                )));
            }
            Ok(())
        }
        if let Some(fault) = &self.fault {
            prob("fault.transient_prob", fault.transient_prob)?;
            for (tier, p) in &fault.tier_transient_prob {
                prob(&format!("fault.tier_transient_prob[{tier}]"), *p)?;
            }
            prob("fault.corrupt_prob", fault.corrupt_prob)?;
            for (tier, p) in &fault.tier_corrupt_prob {
                prob(&format!("fault.tier_corrupt_prob[{tier}]"), *p)?;
            }
        }
        for (name, tier) in [
            ("tiering.dram", Tier::Dram),
            ("tiering.node_local", Tier::NodeLocal),
            ("tiering.burst_buffer", Tier::SharedBurstBuffer),
        ] {
            let w = self.tiering.watermarks(tier).expect("finite tier");
            let ordered = w.low >= 0.0 && w.low < w.high && w.high <= 1.0;
            if !ordered || w.low.is_nan() || w.high.is_nan() {
                return Err(SimError::InvalidConfig(format!(
                    "{name} watermarks must satisfy 0 <= low < high <= 1, \
                     got low={} high={}",
                    w.low, w.high
                )));
            }
        }
        // Every size and count the data path divides by, indexes with, or
        // loops over: zero would panic deep in placement, the KV or the
        // striping planner. A zero-depth mailbox never delivers a request;
        // zero retry attempts fail every operation without running it.
        let g = &self.geometry;
        for (name, n) in [
            ("geometry.nodes", g.nodes as u64),
            ("geometry.procs_per_node", g.procs_per_node as u64),
            ("geometry.servers_per_node", g.servers_per_node as u64),
            ("chunk_size", self.chunk_size),
            ("segment_size", self.segment_size),
            ("metadata_range_size", self.metadata_range_size),
            ("alpha", self.alpha as u64),
            ("mailbox_depth", self.mailbox_depth as u64),
            ("retry.max_attempts", self.retry.max_attempts),
        ] {
            if n == 0 {
                return Err(SimError::InvalidConfig(format!(
                    "{name} must be at least 1"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_matches_evaluation_setup() {
        let g = JobGeometry::paper(8192);
        assert_eq!(g.nodes, 256);
        assert_eq!(g.procs_per_node, 32);
        assert_eq!(g.total_servers(), 512);
        let g = JobGeometry::paper(64);
        assert_eq!(g.nodes, 2);
        assert_eq!(g.total_procs(), 64);
    }

    #[test]
    fn small_proc_counts_fit_one_node() {
        let g = JobGeometry::paper(8);
        assert_eq!(g.nodes, 1);
        assert_eq!(g.procs_per_node, 8);
    }

    #[test]
    fn node_of_rank_blocks() {
        let g = JobGeometry::paper(64);
        assert_eq!(g.node_of_rank(0), 0);
        assert_eq!(g.node_of_rank(31), 0);
        assert_eq!(g.node_of_rank(32), 1);
    }

    #[test]
    fn tiering_defaults_are_off_and_sane() {
        let t = TieringConfig::default();
        assert!(!t.enabled, "tiering must default off (figure identity)");
        assert!(TieringConfig::on().enabled);
        for tier in [Tier::Dram, Tier::NodeLocal, Tier::SharedBurstBuffer] {
            let w = t.watermarks(tier).expect("finite tiers have watermarks");
            assert!(w.low < w.high && w.high <= 1.0);
        }
        assert!(t.watermarks(Tier::Pfs).is_none(), "the PFS never spills");
        assert_eq!(UniviStorConfig::paper(64).tiering, t);
    }

    #[test]
    fn integrity_defaults_checksums_on_scrubber_off() {
        let i = IntegrityConfig::default();
        assert!(i.checksums, "checksums default on");
        assert!(!i.scrub.enabled, "scrubber must default off");
        assert!(ScrubConfig::on().enabled);
        assert_eq!(UniviStorConfig::paper(64).integrity, i);
    }

    #[test]
    fn validate_accepts_the_shipping_configurations() {
        UniviStorConfig::paper(64).validate().expect("paper config");
        UniviStorConfig::test_small(2, 2)
            .validate()
            .expect("test config");
    }

    #[test]
    fn validate_rejects_out_of_range_probabilities() {
        let mut cfg = UniviStorConfig::test_small(1, 2);
        cfg.fault = Some(FaultConfig {
            transient_prob: 1.5,
            ..FaultConfig::default()
        });
        let err = cfg.validate().unwrap_err().to_string();
        assert!(err.contains("transient_prob"), "{err}");

        let mut cfg = UniviStorConfig::test_small(1, 2);
        cfg.fault = Some(FaultConfig {
            corrupt_prob: -0.1,
            ..FaultConfig::default()
        });
        let err = cfg.validate().unwrap_err().to_string();
        assert!(err.contains("corrupt_prob"), "{err}");

        let mut cfg = UniviStorConfig::test_small(1, 2);
        cfg.fault = Some(FaultConfig {
            tier_corrupt_prob: vec![(Tier::Pfs, 2.0)],
            ..FaultConfig::default()
        });
        let err = cfg.validate().unwrap_err().to_string();
        assert!(err.contains("tier_corrupt_prob"), "{err}");
    }

    #[test]
    fn validate_rejects_inverted_watermarks() {
        let mut cfg = UniviStorConfig::test_small(1, 2);
        cfg.tiering.dram = TierWatermarks {
            high: 0.3,
            low: 0.8,
        };
        let err = cfg.validate().unwrap_err().to_string();
        assert!(err.contains("tiering.dram"), "{err}");
        assert!(err.contains("low < high"), "{err}");
    }

    #[test]
    fn validate_rejects_zero_mailbox_depth() {
        let mut cfg = UniviStorConfig::test_small(1, 2);
        cfg.mailbox_depth = 0;
        let err = cfg.validate().unwrap_err().to_string();
        assert!(err.contains("mailbox_depth"), "{err}");
    }

    /// Each zero here used to panic somewhere past construction (a
    /// divide by zero on the first write, the KV's partitioner, the
    /// striping planner at close) or, for `metadata_range_size`, inside
    /// `try_new` itself; now construction refuses it with a typed error.
    #[test]
    fn try_new_rejects_zero_sizes_and_counts() {
        type Zeroing = (&'static str, fn(&mut UniviStorConfig));
        let zeroes: [Zeroing; 7] = [
            ("segment_size", |c| c.segment_size = 0),
            ("metadata_range_size", |c| c.metadata_range_size = 0),
            ("alpha", |c| c.alpha = 0),
            ("servers_per_node", |c| c.geometry.servers_per_node = 0),
            ("nodes", |c| c.geometry.nodes = 0),
            ("procs_per_node", |c| c.geometry.procs_per_node = 0),
            ("chunk_size", |c| c.chunk_size = 0),
        ];
        for (name, zero) in zeroes {
            let mut cfg = UniviStorConfig::test_small(2, 2);
            zero(&mut cfg);
            match crate::server::UniviStorJob::try_new(cfg) {
                Ok(_) => panic!("{name} = 0 was accepted"),
                Err(e) => {
                    let err = e.to_string();
                    assert!(err.contains(name), "{name}: {err}");
                    assert!(
                        matches!(e.source_err(), SimError::InvalidConfig(_)),
                        "{name}: {err}"
                    );
                }
            }
        }
    }

    #[test]
    fn validate_rejects_zero_attempt_retry_policy() {
        let mut cfg = UniviStorConfig::test_small(1, 2);
        cfg.retry.max_attempts = 0;
        let err = cfg.validate().unwrap_err().to_string();
        assert!(err.contains("max_attempts"), "{err}");
    }

    #[test]
    fn feature_presets() {
        assert!(Features::default().adaptive_striping);
        assert!(!Features::default().workflow);
        assert!(Features::all().workflow);
    }
}
