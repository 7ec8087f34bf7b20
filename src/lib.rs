//! # UniviStor — integrated hierarchical and distributed storage for HPC
//!
//! Facade crate re-exporting the whole workspace. See the README (rendered
//! below) for a tour and `examples/` for runnable entry points. The README's
//! code block is compiled and executed as a doctest.
#![doc = include_str!("../README.md")]

pub use univistor_baselines as baselines;
pub use univistor_core as core;
pub use univistor_h5 as h5;
pub use univistor_kv as kv;
pub use univistor_mpi as mpi;
pub use univistor_obs as obs;
pub use univistor_pfs as pfs;
pub use univistor_sim as sim;
pub use univistor_workloads as workloads;

/// Everything a typical UniviStor program needs, in one import:
///
/// ```
/// use univistor::prelude::*;
///
/// let job = UniviStorJob::new(UniviStorConfig::test_small(2, 2));
/// let fid = job.open_file("/f").write().by(ClientId::new(0, 0)).unwrap();
/// assert!(fid > 0);
/// ```
pub mod prelude {
    pub use univistor_core::config::{Features, JobGeometry, PromotionPolicy, UniviStorConfig};
    pub use univistor_core::driver::UniviStorDriver;
    pub use univistor_core::error::{Error, Result};
    pub use univistor_core::fault::{FaultConfig, RetryPolicy};
    pub use univistor_core::flush::FlushReport;
    pub use univistor_core::metadata::ClientId;
    pub use univistor_core::metrics::JobMetrics;
    pub use univistor_core::repair::RepairReport;
    pub use univistor_core::server::{OpenRequest, UniviStorJob};
    pub use univistor_core::va::Tier;
    pub use univistor_mpi::driver::OpenMode;
    pub use univistor_obs::MetricsSnapshot;
    pub use univistor_sim::Payload;
}
