//! Telemetry integration: the counters behind `UniviStorJob::metrics()`
//! observed through real workloads — spill writes, classified reads,
//! close-time flushes — plus a JSON round trip of a populated snapshot,
//! and the checks that keep the one family table (`metrics::FAMILIES`), the
//! README's rendering of it and what a job actually registers the same.

use std::collections::BTreeSet;
use std::sync::Arc;
use univistor_core::config::{Runtime, UniviStorConfig};
use univistor_core::metadata::ClientId;
use univistor_core::metrics::{JobMetrics, Kind, FAMILIES};
use univistor_core::server::UniviStorJob;
use univistor_core::MetricsSnapshot;
use univistor_mpi::driver::OpenMode;
use univistor_sim::Payload;

/// A write that overflows the DRAM layer shows up in the per-tier byte
/// and spill-event counters exactly.
#[test]
fn spill_write_updates_tier_and_spill_counters() {
    // 1 node × 2 procs: 1024 B DRAM/node → 512 B per proc, 128 B segments.
    let cfg = UniviStorConfig::test_small(1, 2);
    let job = UniviStorJob::new(cfg);
    let c = ClientId::new(0, 0);
    job.open_file("/spill").write().by(c).unwrap();

    // 2048 B = 16 segments: 4 fill this proc's DRAM share, 12 spill to BB.
    job.write(c, "/spill", 0, Payload::pattern(7, 2048))
        .unwrap();

    let snap = job.metrics();
    assert_eq!(
        snap.counter("univistor_cached_bytes_total", &[("tier", "dram")]),
        Some(512)
    );
    assert_eq!(
        snap.counter("univistor_cached_bytes_total", &[("tier", "burst_buffer")]),
        Some(1536)
    );
    assert_eq!(
        snap.counter(
            "univistor_tier_spill_events_total",
            &[("tier", "burst_buffer")]
        ),
        Some(12)
    );
    assert_eq!(
        snap.counter("univistor_tier_spill_events_total", &[("tier", "dram")]),
        Some(0),
        "landing on the chain head is not a spill"
    );
    assert_eq!(snap.counter_total("univistor_tier_spill_events_total"), 12);
    assert_eq!(snap.counter_total("univistor_segments_total"), 16);
    assert_eq!(
        snap.counter("univistor_ops_total", &[("op", "open")]),
        Some(1)
    );
    assert_eq!(
        snap.counter("univistor_ops_total", &[("op", "write")]),
        Some(1)
    );
    // One metadata insert per placed segment.
    assert_eq!(
        snap.counter("univistor_md_rpcs_total", &[("op", "write")]),
        Some(16)
    );

    // Reading the spilled range back: the BB is globally visible, so the
    // location-aware client fetches it directly, and the producer's own
    // node resolves all metadata from the shared local buffer.
    job.read(c, "/spill", 512, 1536).unwrap();
    let snap = job.metrics();
    assert_eq!(
        snap.counter("univistor_read_bytes_total", &[("path", "bb_direct")]),
        Some(1536)
    );
    // The 12 spilled pieces coalesced into 2 records (the 1024 B metadata
    // range caps the first merge), so the self-read hits the shared buffer
    // twice, not twelve times.
    assert_eq!(snap.counter_total("univistor_md_local_hits_total"), 2);
    assert_eq!(
        snap.counter("univistor_md_rpcs_total", &[("op", "read")]),
        Some(0),
        "local metadata buffer should cover a self-read"
    );
}

/// Reads are classified per path: a same-node read is a local hit, a
/// cross-node DRAM read is a remote server hop.
#[test]
fn read_paths_split_local_hit_and_remote_hop() {
    // 2 nodes × 2 procs: rank 0 lives on node 0, rank 2 on node 1.
    let cfg = UniviStorConfig::test_small(2, 2);
    let job = UniviStorJob::new(cfg);
    let reader = ClientId::new(0, 0);
    let remote_writer = ClientId::new(0, 2);
    job.open_file("/r")
        .read_write()
        .representing(4)
        .by(reader)
        .unwrap();

    // 256 B each — well inside both procs' DRAM shares, so the remote
    // bytes genuinely sit in another node's volatile tier.
    job.write(remote_writer, "/r", 0, Payload::pattern(1, 256))
        .unwrap();
    job.write(reader, "/r", 256, Payload::pattern(2, 256))
        .unwrap();

    job.read(reader, "/r", 256, 256).unwrap(); // own data: local hit
    job.read(reader, "/r", 0, 256).unwrap(); // node 1's DRAM: remote hop

    let snap = job.metrics();
    assert_eq!(
        snap.counter("univistor_read_bytes_total", &[("path", "local_hit")]),
        Some(256)
    );
    assert_eq!(
        snap.counter("univistor_read_bytes_total", &[("path", "remote_hop")]),
        Some(256)
    );
    assert_eq!(
        snap.counter_total("univistor_md_local_hits_total"),
        1,
        "the local read's coalesced record came from the shared buffer"
    );
    let remote_md = snap
        .counter("univistor_md_rpcs_total", &[("op", "read")])
        .unwrap();
    assert!(remote_md >= 1, "the remote read must visit the KV servers");
    assert_eq!(
        snap.counter("univistor_ops_total", &[("op", "read")]),
        Some(2)
    );
}

/// Close-time flush feeds the flush counters and histograms from the
/// receipt, and the in-progress gauge returns to zero.
#[test]
fn flush_populates_histograms_and_settles_gauge() {
    let cfg = UniviStorConfig::test_small(1, 2);
    let job = UniviStorJob::new(cfg);
    let c = ClientId::new(0, 0);
    job.open_file("/fl").write().by(c).unwrap();
    job.write(c, "/fl", 0, Payload::pattern(3, 1024)).unwrap();
    job.close("/fl", c, OpenMode::Write, 1, true)
        .unwrap()
        .expect("flush receipt");

    let snap = job.metrics();
    assert_eq!(snap.counter_total("univistor_flushes_total"), 1);
    assert_eq!(snap.gauge("univistor_flush_in_progress", &[]), Some(0));
    let drained = snap
        .histogram("univistor_flush_drained_bytes", &[])
        .expect("drained histogram");
    assert_eq!(drained.count, 1);
    assert_eq!(drained.sum, 1024.0);
    // Every flushed byte is attributed to the tier it was drained from.
    let per_tier: u64 = ["dram", "node_local", "burst_buffer", "pfs"]
        .iter()
        .filter_map(|t| snap.counter("univistor_flush_source_bytes_total", &[("tier", t)]))
        .sum();
    assert_eq!(per_tier, 1024);
}

/// A populated snapshot survives the JSON round trip bit-exactly —
/// counters, gauges, and histogram buckets.
#[test]
fn snapshot_json_round_trip_preserves_everything() {
    let cfg = UniviStorConfig::test_small(2, 2);
    let job = Arc::new(UniviStorJob::new(cfg));
    let c = ClientId::new(0, 0);
    job.open_file("/j")
        .read_write()
        .representing(4)
        .by(c)
        .unwrap();
    // Touch every family: spill writes, classified reads, a flush.
    job.write(c, "/j", 0, Payload::pattern(9, 2048)).unwrap();
    job.write(ClientId::new(0, 2), "/j", 2048, Payload::pattern(10, 256))
        .unwrap();
    job.read(c, "/j", 0, 2304).unwrap();
    job.close("/j", c, OpenMode::ReadWrite, 4, true)
        .unwrap()
        .expect("flush");

    let snap = job.metrics();
    assert!(snap.counter_total("univistor_segments_total") > 0);
    assert!(snap.counter_total("univistor_read_bytes_total") > 0);
    assert_eq!(snap.counter_total("univistor_flushes_total"), 1);

    let text = snap.to_json();
    let back = MetricsSnapshot::from_json(&text).expect("parse our own JSON");
    assert_eq!(back, snap);
    // Spot-check through the accessor layer too, not just PartialEq.
    assert_eq!(
        back.counter_total("univistor_cached_bytes_total"),
        snap.counter_total("univistor_cached_bytes_total")
    );
    assert_eq!(
        back.histogram("univistor_flush_drained_bytes", &[]),
        snap.histogram("univistor_flush_drained_bytes", &[])
    );
}

fn kind_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Counter => "counter",
        Kind::Gauge => "gauge",
        Kind::Histogram(..) => "histogram",
    }
}

/// The README's family table, rendered from [`FAMILIES`].
fn render_family_table() -> String {
    let mut out =
        String::from("| family | kind | labels | registered | fed by |\n|---|---|---|---|---|\n");
    for f in FAMILIES {
        let kind = kind_name(f.kind);
        let labels: Vec<String> = f
            .labels
            .iter()
            .map(|(key, values)| match values {
                [] => format!("`{key}` (set at run time)"),
                values => format!("`{key}` (`{}`)", values.join("`, `")),
            })
            .collect();
        let labels = if labels.is_empty() {
            "—".to_string()
        } else {
            labels.join(", ")
        };
        let registered = if f.eager { "job start" } else { "first use" };
        out += &format!(
            "| `{}` | {kind} | {labels} | {registered} | {} |\n",
            f.name, f.fed_by
        );
    }
    out
}

/// The README carries the one rendered copy of the family table; a family
/// added, renamed or dropped in the code fails here until the block
/// between the markers is replaced by the one this prints.
#[test]
fn readme_family_table_is_rendered_from_the_code() {
    let readme = include_str!("../../../README.md");
    let block = readme
        .split_once("<!-- metrics-families:begin -->\n")
        .and_then(|(_, rest)| rest.split_once("<!-- metrics-families:end -->"))
        .map(|(block, _)| block)
        .expect("README.md has the metrics-families markers");
    let want = render_family_table();
    assert!(
        block == want,
        "README.md's family table is stale; replace the block between the markers with:\n{want}"
    );
}

/// A fresh panel publishes exactly the table's eager rows, every series of
/// each. What building it costs is pinned by `tests/alloc.rs`.
#[test]
fn fresh_panel_is_the_tables_eager_rows_and_no_more() {
    let snap = JobMetrics::new().snapshot();
    let eager = FAMILIES.iter().filter(|f| f.eager);
    let names: BTreeSet<&str> = snap.families.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(names, eager.clone().map(|f| f.name).collect());
    let series: usize = snap.families.iter().map(|f| f.samples.len()).sum();
    assert_eq!(series, eager.map(|f| f.series()).sum::<usize>());
}

/// What a job registers is what the table lists — under each runtime every
/// registered family is a table row of that kind with those label keys,
/// and between the two runtimes (checksums on, so the digest plane wakes)
/// every row is registered by somebody.
#[test]
fn exercised_jobs_register_exactly_the_table() {
    let mut registered = BTreeSet::new();
    for runtime in [Runtime::Locked, Runtime::Partitioned] {
        let mut cfg = UniviStorConfig::test_small(2, 2);
        cfg.runtime = runtime;
        assert!(cfg.integrity.checksums);
        let job = UniviStorJob::new(cfg);
        let c = ClientId::new(0, 0);
        job.open_file("/t").read_write().by(c).unwrap();
        job.write(c, "/t", 0, Payload::pattern(4, 2048)).unwrap();
        job.read(c, "/t", 0, 2048).unwrap();
        job.close("/t", c, OpenMode::ReadWrite, 1, true).unwrap();
        for family in job.metrics().families {
            let row = FAMILIES
                .iter()
                .find(|f| f.name == family.name)
                .unwrap_or_else(|| panic!("{} is registered but not in the table", family.name));
            assert_eq!(family.kind.to_string(), kind_name(row.kind), "{}", row.name);
            let keys: Vec<&str> = row.labels.iter().map(|(key, _)| *key).collect();
            for sample in &family.samples {
                let got: Vec<&str> = sample.labels.keys().map(String::as_str).collect();
                assert_eq!(got, keys, "{}", row.name);
            }
            registered.insert(row.name);
        }
    }
    let listed: BTreeSet<&str> = FAMILIES.iter().map(|f| f.name).collect();
    assert_eq!(registered, listed, "a table row no exercised job registers");
    assert_eq!(listed.len(), FAMILIES.len(), "duplicate family name");
}

/// `to_json()` of a job after a fixed workload, partition wait values
/// zeroed (they are wall-clock).
fn exercised_snapshot_json(runtime: Runtime) -> String {
    // 6 nodes × 2 servers: 12 partitions, so partition "10" sorts before "2".
    let mut cfg = UniviStorConfig::test_small(6, 2);
    cfg.runtime = runtime;
    cfg.partitions = 12;
    assert!(cfg.integrity.checksums);
    let job = UniviStorJob::new(cfg);
    let owner = ClientId::new(0, 0);
    job.open_file("/g")
        .read_write()
        .representing(12)
        .by(owner)
        .unwrap();
    for rank in 0..12u32 {
        job.write(
            ClientId::new(0, rank),
            "/g",
            u64::from(rank) * 384,
            Payload::pattern(u64::from(rank), 384),
        )
        .unwrap();
    }
    job.read(owner, "/g", 0, 12 * 384).unwrap();
    job.read(ClientId::new(0, 11), "/g", 1024, 2048).unwrap();
    job.close("/g", owner, OpenMode::ReadWrite, 12, true)
        .unwrap()
        .expect("flush receipt");
    let mut snap = job.metrics();
    for family in &mut snap.families {
        if family.name != "univistor_partition_wait_seconds" {
            continue;
        }
        for sample in &mut family.samples {
            let univistor_obs::SampleValue::Histogram(h) = &mut sample.value else {
                unreachable!("the wait family is a histogram");
            };
            h.sum = 0.0;
            h.buckets.iter_mut().for_each(|b| b.1 = 0);
        }
    }
    snap.to_json()
}

/// The wire form of an exercised job's snapshot under both runtimes —
/// family order, sample order, help text, histogram bounds, values — is
/// pinned by a golden file. On a mismatch the current form is written next
/// to the test binary's scratch space for review.
#[test]
fn snapshot_shape_is_pinned() {
    let got = format!(
        "{}\n{}\n",
        exercised_snapshot_json(Runtime::Locked),
        exercised_snapshot_json(Runtime::Partitioned)
    );
    let want = include_str!("golden/snapshot_shape.json");
    if got != want {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("snapshot_shape.json");
        std::fs::write(&path, &got).unwrap();
        panic!(
            "snapshot wire form changed; the current form is at {}",
            path.display()
        );
    }
}
