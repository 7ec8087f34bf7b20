//! # univistor-obs — the wire form of UniviStor telemetry
//!
//! A std-only value layer: a [`MetricsSnapshot`] is a point-in-time
//! capture of labeled counter, gauge and fixed-bucket histogram families.
//! The job's instrument panel (`univistor_core::metrics`) builds one from
//! its atomics; this crate serializes it to JSON
//! ([`MetricsSnapshot::to_json`]) and parses it back
//! ([`MetricsSnapshot::from_json`]), so bench binaries can drop a
//! `metrics.json` next to each figure's CSV and later runs can diff them.
//! [`MetricsSnapshot::since`] and [`MetricsSnapshot::absorb`] take phase
//! deltas and fold many short-lived jobs into one figure's totals.

mod json;
mod snapshot;

pub use json::{Json, JsonError};
pub use snapshot::{
    FamilyKind, FamilySnapshot, HistogramSnapshot, MetricsSnapshot, Sample, SampleValue,
};
