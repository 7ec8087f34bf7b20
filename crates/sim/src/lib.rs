//! # univistor-sim — simulated HPC platform substrate
//!
//! This crate is the foundation the UniviStor reproduction is built on. The
//! original system ran on Cori (a Cray XC40 with per-node DRAM, a shared
//! DataWarp burst buffer, and a 248-OST Lustre file system). None of that
//! hardware is available here, so the substrate provides:
//!
//! * **A functional data plane** — [`payload::Payload`] (real bytes or
//!   deterministic synthetic patterns) and [`buffer::SparseBuffer`] (extent
//!   maps) let every storage tier store and return byte-accurate data while
//!   allowing paper-scale experiments (terabytes of logical data) to run
//!   without materializing the bytes.
//! * **Core placement machinery** — [`cores`] models per-node CPU cores and
//!   NUMA sockets, provides the CFS-like baseline placement policy, and
//!   evaluates the memory-bandwidth contention a placement produces.
//!   (UniviStor's interference-aware policy itself lives in `univistor-core`,
//!   since it is part of the paper's contribution.)
//! * **Latency models** — [`latency`] has simple analytic costs for RPCs and
//!   MPI-style collectives.
//! * **Calibration constants** — [`calibration`] centralizes the Cori-like
//!   bandwidth/latency numbers every experiment uses.
//!
//! The timing plane itself is not here: it is the closed form in
//! `bench::timing` (one bound per bottleneck a phase crosses), built from
//! these rate caps, latencies and constants, and cross-checked against a
//! max–min fair allocation by one test there.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod buffer;
pub mod bytes;
pub mod calibration;
pub mod cores;
pub mod error;
pub mod latency;
pub mod payload;
pub mod rng;

pub use buffer::SparseBuffer;
pub use bytes::Bytes;
pub use error::{SimError, SimResult};
pub use payload::{Checksum, Payload};
