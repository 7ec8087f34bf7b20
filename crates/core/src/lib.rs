//! # univistor-core — the UniviStor system (CLUSTER 2018)
//!
//! UniviStor exposes the distributed and hierarchical storage of an HPC
//! job — per-node DRAM, node-local storage, the shared burst buffer, and a
//! disk-based parallel file system — as a single mount point behind the
//! MPI-IO interface. This crate is the paper's contribution, built on the
//! substrates in `univistor-sim` / `univistor-kv` / `univistor-pfs` /
//! `univistor-mpi`:
//!
//! | module | paper | what it implements |
//! |---|---|---|
//! | [`config`] | §II-A/F | feature toggles & job geometry |
//! | [`log`]    | §II-B1 | chunked log files with free-chunk stacks |
//! | [`placement`] | §II-B1 | Distributed & Hierarchical data Placement (DHP) |
//! | [`va`]     | §II-B2 | virtual addresses (Eq. 1) |
//! | [`metadata`] | §II-B3 | distributed metadata service over the range-partitioned KV |
//! | [`read`]   | §II-B4 | naive vs. location-aware read planning |
//! | [`striping`] | §II-D | adaptive data striping (Eqs. 2–6) |
//! | [`flush`]  | §II-D  | server-side asynchronous flush to Lustre |
//! | [`workflow`] | §II-E | lightweight workflow management (state file + lock piggybacking) |
//! | [`server`] | §II-A  | the UniviStor job: servers, tiers, connection management |
//! | [`driver`] | §II-F  | the ADIO driver (`ROMIO_FSTYPE_FORCE=UniviStor`), COC optimization |
//! | [`metrics`] | —     | the job telemetry panel: one block of atomics, snapshots as `univistor-obs` values |
//! | [`fault`]  | —      | deterministic fault injection and retry with capped backoff |
//! | [`repair`] | —      | online re-replication of segments degraded by node loss |
//! | [`integrity`] | —   | the job's `Verifier`: stamps and verifies through a per-job digest memo |
//! | [`tiering`] | §7/Unimem | background watermark spill, continuous PFS drain, benefit/cost promotion |
//! | [`error`]  | —      | contextual error type wrapping the substrate's `SimError` |
//!
//! The data plane is functional: every byte written through the driver is
//! stored in a log chunk on some tier and reads back exactly, including
//! after spilling across tiers and flushing to the PFS. The job's one
//! accounting surface is its metrics panel ([`UniviStorJob::metrics`]) plus
//! the flush receipts ([`UniviStorJob::take_flush_receipts`]); the modeled
//! clock in `univistor-bench` reads phase deltas of both. The
//! interference-aware core placement (§II-C, Fig. 4) feeds only that clock
//! and lives beside its CFS baseline in `univistor_sim::cores`.

pub mod config;
pub mod driver;
pub mod error;
pub mod fault;
pub mod flush;
pub mod integrity;
pub mod log;
pub(crate) mod maint;
pub mod metadata;
pub mod metrics;
pub mod placement;
pub mod read;
pub mod repair;
pub(crate) mod runtime;
pub mod scrub;
pub mod server;
pub mod striping;
pub mod tiering;
pub mod va;
pub mod workflow;
pub(crate) mod write;

pub use config::{
    Features, IntegrityConfig, JobGeometry, PromotionPolicy, Runtime, ScrubConfig, TierWatermarks,
    TieringConfig, UniviStorConfig,
};
pub use driver::UniviStorDriver;
pub use error::{Error, Result};
pub use fault::{FaultConfig, FaultInjector, RetryPolicy};
pub use flush::{FlushReceipt, FlushReport};
pub use metadata::{ClientId, SegKey, SegmentRecord};
pub use metrics::JobMetrics;
pub use repair::RepairReport;
pub use scrub::{CorruptReport, ScrubDaemon, ScrubHandle, ScrubReport};
pub use server::{OpenRequest, UniviStorJob};
pub use tiering::{TieringDaemon, TieringHandle, TieringPassReport, TieringStats};
pub use univistor_obs::MetricsSnapshot;
pub use va::{Tier, TierMap, VirtualAddr};
