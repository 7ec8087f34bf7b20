//! Read-path properties that need no oracle: an overwrite must invalidate
//! cached read records immediately, and promotion racing overwrites must
//! never corrupt the index. The differentials against the per-record reference fetch
//! live with the test oracles (`server::oracle` unit tests).

use std::sync::Arc;
use univistor_core::config::{PromotionPolicy, UniviStorConfig};
use univistor_core::metadata::ClientId;
use univistor_core::server::UniviStorJob;
use univistor_sim::Payload;

/// An overwrite must invalidate the node's cached read records
/// immediately: the very next read sees the fresh bytes and counts as a
/// cache miss, never a stale VA.
#[test]
fn overwrite_invalidates_cached_read_records() {
    let job = Arc::new(UniviStorJob::new(UniviStorConfig::test_small(2, 2)));
    job.open_file("/c")
        .read_write()
        .representing(4)
        .by(ClientId::new(0, 0))
        .unwrap();
    // Writer on node 1, reader on node 0 — so the reader's lookups go
    // through the distributed KV (and its node's read record cache), not
    // the producer node's shared metadata buffer.
    let writer = ClientId::new(0, 2);
    let reader = ClientId::new(0, 0);
    let hits = |j: &UniviStorJob| {
        j.metrics()
            .counter_total("univistor_read_md_cache_hits_total")
    };
    let misses = |j: &UniviStorJob| {
        j.metrics()
            .counter_total("univistor_read_md_cache_misses_total")
    };
    job.write(writer, "/c", 0, Payload::pattern(1, 256))
        .unwrap();
    let got = job.read(reader, "/c", 0, 256).unwrap();
    assert!(got.content_eq(&Payload::pattern(1, 256)));
    assert_eq!((hits(&job), misses(&job)), (0, 1));
    // Same window again: served from the cache, no RPCs.
    let read_rpcs = |j: &UniviStorJob| {
        j.metrics()
            .counter("univistor_md_rpcs_total", &[("op", "read")])
            .unwrap_or(0)
    };
    let md_rpcs_before = read_rpcs(&job);
    let got = job.read(reader, "/c", 0, 256).unwrap();
    assert!(got.content_eq(&Payload::pattern(1, 256)));
    assert_eq!((hits(&job), misses(&job)), (1, 1));
    assert_eq!(read_rpcs(&job), md_rpcs_before);
    // Overwrite the middle: the cached window dies with the generation
    // bump, and the next read returns the fresh bytes at miss cost.
    job.write(writer, "/c", 64, Payload::pattern(2, 64))
        .unwrap();
    let got = job.read(reader, "/c", 0, 256).unwrap();
    assert!(got
        .slice(0, 64)
        .content_eq(&Payload::pattern(1, 256).slice(0, 64)));
    assert!(got.slice(64, 64).content_eq(&Payload::pattern(2, 64)));
    assert!(got
        .slice(128, 128)
        .content_eq(&Payload::pattern(1, 256).slice(128, 128)));
    assert_eq!((hits(&job), misses(&job)), (1, 2));
}

/// Promotion racing concurrent overwrites and reads must never corrupt
/// the index: after the dust settles, the last write wins, the index
/// balances the live log bytes, and promotion still works.
#[test]
fn promotion_races_concurrent_overwrites() {
    let promote = |j: &UniviStorJob| {
        j.tiering()
            .promote_now(PromotionPolicy {
                min_reads: 1,
                min_benefit: 0.0,
            })
            .unwrap()
    };
    let job = Arc::new(UniviStorJob::new(UniviStorConfig::test_small(2, 2)));
    job.open_file("/h")
        .read_write()
        .representing(4)
        .by(ClientId::new(0, 0))
        .unwrap();
    let span = 1024u64;
    job.write(ClientId::new(0, 0), "/h", 0, Payload::pattern(0, span))
        .unwrap();
    std::thread::scope(|s| {
        let writer = job.clone();
        s.spawn(move || {
            for i in 1..40u64 {
                writer
                    .write(
                        ClientId::new(0, 1),
                        "/h",
                        (i % 7) * 128,
                        Payload::pattern(i, 256),
                    )
                    .unwrap();
            }
        });
        let reader = job.clone();
        s.spawn(move || {
            for i in 0..40u64 {
                // Heat the region; racing overwrites may briefly expose a
                // hole (punch and re-insert are not atomic), which is an
                // error, not corruption — tolerate it here.
                let _ = reader.read(ClientId::new(0, 2), "/h", (i % 4) * 256, 256);
            }
        });
        let promoter = job.clone();
        s.spawn(move || {
            for _ in 0..20 {
                promote(&promoter);
            }
        });
    });
    // Quiesce: a final known pattern must read back exactly, before and
    // after one more promotion pass.
    job.write(ClientId::new(0, 3), "/h", 0, Payload::pattern(999, span))
        .unwrap();
    let got = job.read(ClientId::new(0, 2), "/h", 0, span).unwrap();
    assert!(got.content_eq(&Payload::pattern(999, span)));
    promote(&job);
    let got = job.read(ClientId::new(0, 2), "/h", 0, span).unwrap();
    assert!(got.content_eq(&Payload::pattern(999, span)));
    // The index accounts for every live log byte: no span leaked by a
    // lost promotion race, none double-released.
    let index = job.index_of("/h").unwrap();
    let mut record_bytes = 0u64;
    for (_, r) in &index {
        record_bytes += r.len;
        if r.replica.is_some() {
            record_bytes += r.len;
        }
    }
    let live: u64 = job.tier_usage().iter().map(|(_, b)| b).sum();
    assert_eq!(record_bytes, live, "index bytes vs live log bytes");
}
