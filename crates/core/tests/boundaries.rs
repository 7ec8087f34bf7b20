//! Extents at the edge of the offset space and writes that fail in
//! placement leave the job untouched: an extent that wraps `u64`, or a
//! write ending past the segment grid's last whole cell, is refused with
//! a typed error before any state changes, and a write that never placed
//! its bytes does not grow the file.
//!
//! Offset arithmetic that overflows panics in debug builds and wraps in
//! release builds, so the two reach different code; CI runs this file in
//! both.

use univistor_core::config::UniviStorConfig;
use univistor_core::fault::FaultConfig;
use univistor_core::metadata::ClientId;
use univistor_core::server::UniviStorJob;
use univistor_mpi::driver::OpenMode;
use univistor_sim::{Payload, SimError};

const C: ClientId = ClientId { app: 0, rank: 0 };
const KIB4: u64 = 4096;

/// A 2 × 2 job with `/f` open for writing.
fn job(fault: Option<FaultConfig>) -> UniviStorJob {
    let mut cfg = UniviStorConfig::test_small(2, 2);
    cfg.retry.backoff_base_us = 1;
    cfg.retry.backoff_cap_us = 10;
    cfg.fault = fault;
    let j = UniviStorJob::new(cfg);
    j.open_file("/f").write().by(C).unwrap();
    j
}

/// Assert `err` is the typed range refusal.
fn assert_refused(err: univistor_core::error::Error) {
    let src = SimError::from(err);
    assert!(matches!(src, SimError::InvalidConfig(_)), "{src}");
}

#[test]
fn out_of_range_writes_are_refused_before_any_state_changes() {
    let j = job(None);
    j.write(C, "/f", 0, Payload::pattern(1, KIB4)).unwrap();
    let (size, records) = (j.file_size("/f").unwrap(), j.metadata_records());
    let top = u64::MAX / j.cfg().segment_size * j.cfg().segment_size;
    // Ends in the grid's last partial cell; wraps; one byte past the top.
    for offset in [u64::MAX - KIB4, u64::MAX - 100, top - KIB4 + 1] {
        let err = j.write(C, "/f", offset, Payload::pattern(2, KIB4));
        assert_refused(err.unwrap_err());
        assert_eq!(j.file_size("/f").unwrap(), size, "offset {offset}");
        assert_eq!(j.metadata_records(), records, "offset {offset}");
    }
}

#[test]
fn wrapping_reads_are_refused_before_any_state_changes() {
    let j = job(None);
    j.write(C, "/f", 0, Payload::pattern(1, KIB4)).unwrap();
    let (size, records) = (j.file_size("/f").unwrap(), j.metadata_records());
    for (offset, len) in [(4000, u64::MAX), (u64::MAX - 10, 100)] {
        assert_refused(j.read(C, "/f", offset, len).unwrap_err());
        assert_eq!(j.file_size("/f").unwrap(), size);
        assert_eq!(j.metadata_records(), records);
    }
}

#[test]
fn far_offsets_inside_the_grid_still_round_trip() {
    let j = job(None);
    let top = u64::MAX / j.cfg().segment_size * j.cfg().segment_size;
    for (i, offset) in [1u64 << 40, 1 << 60, u64::MAX / 2, top - KIB4]
        .into_iter()
        .enumerate()
    {
        let data = Payload::pattern(10 + i as u64, KIB4);
        j.write(C, "/f", offset, data.clone()).unwrap();
        assert!(j.read(C, "/f", offset, KIB4).unwrap().content_eq(&data));
    }
    assert_eq!(j.file_size("/f").unwrap(), top);
}

#[test]
fn a_failed_write_does_not_grow_the_file() {
    let j = job(Some(FaultConfig {
        transient_prob: 1.0,
        ..FaultConfig::default()
    }));
    let err = j.write(C, "/f", 0, Payload::pattern(1, KIB4)).unwrap_err();
    assert!(err.is_transient(), "{err}");
    assert_eq!(j.file_size("/f").unwrap(), 0);
    assert_eq!(j.metadata_records(), 0);
    // Nothing was written, so the close has nothing to flush.
    let closed = j.close("/f", C, OpenMode::Write, 1, true).unwrap();
    assert!(closed.is_none());
}
