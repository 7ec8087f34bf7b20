//! # univistor-bench — the evaluation harness
//!
//! Reproduces every figure of the paper's evaluation (§III). Each
//! experiment **actually runs** the functional systems — UniviStor, Data
//! Elevator, direct Lustre — at the paper's scales (64 → 8192 processes,
//! rank-loop execution, virtual payloads), then converts the resulting
//! receipts and counters into simulated times with the analytic
//! bottleneck models in [`timing`] (built on the calibrated Cori-like
//! platform of `univistor_sim::calibration`).
//!
//! | binary | paper figure |
//! |---|---|
//! | `fig5_micro`      | Fig. 5a/5b/5c — IA / COC / ADPT ablations |
//! | `fig6_compare`    | Fig. 6a/6b/6c — UniviStor vs. DE vs. Lustre micro |
//! | `fig7_vpic5`      | Fig. 7 — VPIC-IO, 5 timesteps |
//! | `fig8_vpic10`     | Fig. 8 — VPIC-IO, 10 timesteps, tier spill |
//! | `fig9_workflow5`  | Fig. 9 — VPIC→BD-CATS workflow, 5 steps |
//! | `fig10_workflow10`| Fig. 10 — workflow, 10 steps, tier spill |
//! | `all_figures`     | run everything (used to build EXPERIMENTS.md) |
//!
//! Criterion micro-benches (`benches/micro.rs`) cover the data-structure
//! ablations (log append, VA codec, distributed-vs-centralized metadata,
//! striping planners, read paths, sparse buffers).

pub mod cli;
pub mod figures;
pub mod report;
pub mod systems;
pub mod timing;

pub use report::{print_figure, Figure, Series};
pub use timing::Platform;
