//! The metric tables `BENCHMARK.json` mirrors, and how each value is
//! derived from what a rep recorded.
//!
//! Layer names are module names. Counts come from the job's own panel
//! (`job.metrics()` deltas over the timed body), looked up by family name:
//! a family the panel does not have reads 0 and is listed under
//! `missing_counters`, it never panics.

use crate::harness::Rep;
use crate::probes::{FlushLeaves, LeafTimes};
use crate::stats::{percentile, percentiles, ratio};
use crate::timed::{Log, Op, PhaseKind, Sample};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

/// A metric as `BENCHMARK.json` declares it.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the system sees. Every one is defined, and never 0, on
/// every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("ops_per_s", "1/s", "higher"),
    m("io_p50_us", "us", "lower"),
    m("io_p90_us", "us", "lower"),
    m("peak_rss_mib", "MiB", "lower"),
];

/// Single layers, measured from outside. 0 where a workload has no such
/// op (see README for which).
pub const PER_LAYER: &[MetricDef] = &[
    m("mpi.floor_wall_s", "s", "lower"),
    m("mpi.floor_share", "ratio", "higher"),
    m("driver.write_p50_us", "us", "lower"),
    m("driver.write_p90_us", "us", "lower"),
    m("driver.write_p99_us", "us", "lower"),
    m("driver.write_max_us", "us", "lower"),
    m("driver.overwrite_p50_us", "us", "lower"),
    m("driver.read_p50_us", "us", "lower"),
    m("driver.read_p90_us", "us", "lower"),
    m("driver.read_p99_us", "us", "lower"),
    m("driver.open_p50_us", "us", "lower"),
    m("driver.close_p50_ms", "ms", "lower"),
    m("driver.close_nonroot_p50_us", "us", "lower"),
    m("driver.md_rpcs_per_collective", "count", "lower"),
    m("driver.app_mib_per_s", "MiB/s", "higher"),
    m("driver.span_cover", "ratio", "higher"),
    m("driver.trace_overhead_pct", "%", "lower"),
    m("server.pieces_per_write", "count", "lower"),
    m("server.records_per_write", "count", "lower"),
    m("server.locks_per_write", "count", "lower"),
    m("server.write_residual_us", "us", "lower"),
    m("server.write_latency_growth", "ratio", "lower"),
    m("read.locks_per_read", "count", "lower"),
    m("read.local_hit_byte_share", "ratio", "higher"),
    m("read.remote_hop_byte_share", "ratio", "lower"),
    m("read.bb_direct_byte_share", "ratio", "lower"),
    m("read.replica_bytes", "bytes", "lower"),
    m("read.residual_us", "us", "lower"),
    m("metadata.md_cache_hit_ratio", "ratio", "higher"),
    m("metadata.rpcs_per_op", "count", "lower"),
    m("metadata.local_hits_per_read", "count", "higher"),
    m("metadata.records_live", "count", "lower"),
    m("kv.put_batch_ns_per_key", "ns", "lower"),
    m("kv.range_scan_ns_per_lookup", "ns", "lower"),
    m("kv.shard_imbalance", "ratio", "lower"),
    m("placement.append_ns_per_piece", "ns", "lower"),
    m("placement.read_ns_per_fragment", "ns", "lower"),
    m("placement.spill_events", "count", "lower"),
    m("placement.dram_byte_share", "ratio", "higher"),
    m("placement.bb_byte_share", "ratio", "lower"),
    m("placement.pfs_byte_share", "ratio", "lower"),
    m("placement.segments_per_app_mib", "1/MiB", "lower"),
    m("sim.checksum_gib_per_s", "GiB/s", "higher"),
    m("sim.checksum_est_share", "ratio", "lower"),
    m("sim.checksum_ablation_share", "ratio", "lower"),
    m("flush.close_share", "ratio", "lower"),
    m("flush.ablation_share", "ratio", "lower"),
    m("flush.write_calls_per_close", "count", "lower"),
    m("flush.ost_writes_per_close", "count", "lower"),
    m("flush.spans_per_close", "count", "lower"),
    m("flush.gather_round_trips_per_close", "count", "lower"),
    m("flush.catchup_passes", "count", "lower"),
    m("flush.source_bytes_per_app_byte", "ratio", "lower"),
    m("flush.ms_per_gib", "ms/GiB", "lower"),
    m("striping.plan_us", "us", "lower"),
    m("pfs.write_ns_per_stripe_call", "ns", "lower"),
    m("pfs.bytes_stored_per_app_byte", "ratio", "lower"),
    m("pfs.lock_revocations", "count", "lower"),
    m("pfs.ost_load_imbalance", "ratio", "lower"),
    m("runtime.messages_per_op", "count", "lower"),
    m("runtime.round_trips_per_op", "count", "lower"),
    m("runtime.batched_ops_per_message", "count", "higher"),
    m("runtime.reply_pool_miss_ratio", "ratio", "lower"),
    m("runtime.wait_s_per_op", "s", "lower"),
    m("runtime.slowdown_vs_locked", "ratio", "lower"),
    m("workflow.consumer_wait_s", "s", "lower"),
    m("workflow.lock_waits", "count", "lower"),
    m("workflow.overlap_ratio", "ratio", "higher"),
    m("harness.reps", "count", "higher"),
    m("harness.io_samples_per_rep", "count", "higher"),
    m("harness.counts_repeat", "count", "higher"),
    m("harness.counts_max_spread_pct", "%", "lower"),
];

pub type Values = BTreeMap<&'static str, f64>;

fn data(s: &Sample) -> bool {
    matches!(s.op, Op::Read | Op::Write)
}

fn all_samples(rep: &Rep) -> impl Iterator<Item = &Sample> {
    rep.logs.iter().flat_map(|l| l.samples.iter())
}

fn latencies(rep: &Rep, keep: impl Fn(&Sample) -> bool + Copy) -> Vec<f64> {
    rep.logs.iter().flat_map(|l| l.latencies_us(keep)).collect()
}

/// The end-to-end values one rep yields (`peak_rss_mib` is the process's,
/// read once at the end).
pub fn end_to_end(rep: &Rep) -> Values {
    let [p50, p90] = percentiles(latencies(rep, data), [50.0, 90.0]);
    Values::from([
        ("setup_s", rep.setup_s),
        ("ops_per_s", rep.attempted() as f64 / rep.wall_s),
        ("io_p50_us", p50),
        ("io_p90_us", p90),
    ])
}

/// The value a run reports for each metric, given its per-rep values: the
/// best rep's, metric by metric.
///
/// Every rep issues the same calls on a fresh job, so reps differ only by
/// what else the host was doing, and that only ever slows a rep down. The
/// best rep is therefore the steadiest estimate of the program's own cost:
/// over two sets of ten runs it moved `io_p90_us` on `bdcats_scan` by 3.3 %
/// and 4.8 % where the median of the same reps moved it by 34 % and 4.9 %.
pub fn best_over_reps(per_rep: &[Values]) -> Values {
    let mut out = Values::new();
    let Some(first) = per_rep.first() else {
        return out;
    };
    for &name in first.keys() {
        let higher = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|m| m.name == name)
            .is_some_and(|m| m.better == "higher");
        let vals = per_rep.iter().map(|v| v[name]);
        let best = if higher {
            vals.fold(f64::NEG_INFINITY, f64::max)
        } else {
            vals.fold(f64::INFINITY, f64::min)
        };
        out.insert(name, best);
    }
    out
}

/// Counter lookups over one rep, remembering the families that are absent.
pub struct Panel<'a> {
    rep: &'a Rep,
    missing: &'a RefCell<BTreeSet<String>>,
}

impl<'a> Panel<'a> {
    pub fn new(rep: &'a Rep, missing: &'a RefCell<BTreeSet<String>>) -> Self {
        Panel { rep, missing }
    }

    fn present(&self, family: &str) -> bool {
        let there = self.rep.families.iter().any(|f| f == family);
        if !there {
            self.missing.borrow_mut().insert(family.to_string());
        }
        there
    }

    /// One labelled child, e.g. `get("univistor_ops_total", "op=write")`.
    pub fn get(&self, family: &str, labels: &str) -> f64 {
        if !self.present(family) {
            return 0.0;
        }
        let key = format!("{family}{{{labels}}}");
        self.rep.counts.get(&key).copied().unwrap_or(0) as f64
    }

    /// Sum over every child of a family (`suffix` picks a histogram's
    /// `_count` or `_sum`).
    pub fn total(&self, family: &str, suffix: &str) -> f64 {
        if !self.present(family) {
            return 0.0;
        }
        self.rep
            .counts
            .iter()
            .filter(|(k, _)| {
                k.strip_prefix(family)
                    .and_then(|rest| rest.strip_suffix(suffix))
                    .is_some_and(|labels| {
                        labels.is_empty() || (labels.starts_with('{') && labels.ends_with('}'))
                    })
            })
            .map(|(_, v)| *v as f64)
            .sum()
    }
}

fn busy_s(log: &Log) -> f64 {
    log.samples.iter().map(|s| s.ns as f64).sum::<f64>() / 1e9
}

/// The per-layer values one rep yields on its own: latencies at the
/// driver and ratios of the job's counters.
pub fn per_layer_of_rep(rep: &Rep, missing: &RefCell<BTreeSet<String>>) -> Values {
    let p = Panel::new(rep, missing);
    let mut v = Values::new();

    let fresh = |s: &Sample| s.op == Op::Write && s.kind == PhaseKind::Write;
    let over = |s: &Sample| s.op == Op::Write && s.kind == PhaseKind::Overwrite;
    let read = |s: &Sample| s.op == Op::Read;
    let writes = all_samples(rep).filter(|s| s.op == Op::Write).count() as f64;
    let reads = all_samples(rep).filter(|s| s.op == Op::Read).count() as f64;
    let ops = rep.attempted() as f64;
    let app_bytes = (rep.bytes_written() + rep.bytes_read()) as f64;
    let mib = (1u64 << 20) as f64;

    // driver
    let fresh_us = latencies(rep, fresh);
    let mut sorted = fresh_us.clone();
    sorted.sort_unstable_by(f64::total_cmp);
    v.insert("driver.write_p50_us", percentile(&sorted, 50.0));
    v.insert("driver.write_p90_us", percentile(&sorted, 90.0));
    v.insert("driver.write_p99_us", percentile(&sorted, 99.0));
    v.insert("driver.write_max_us", percentile(&sorted, 100.0));
    let [over_p50] = percentiles(latencies(rep, over), [50.0]);
    v.insert("driver.overwrite_p50_us", over_p50);
    let [r50, r90, r99] = percentiles(latencies(rep, read), [50.0, 90.0, 99.0]);
    v.insert("driver.read_p50_us", r50);
    v.insert("driver.read_p90_us", r90);
    v.insert("driver.read_p99_us", r99);
    let [open_p50] = percentiles(latencies(rep, |s| s.op == Op::Open), [50.0]);
    v.insert("driver.open_p50_us", open_p50);
    let close_ms: Vec<f64> = rep
        .logs
        .iter()
        .flat_map(|l| l.collective_close_ms(|s| s.writable))
        .collect();
    let close_s = close_ms.iter().sum::<f64>() / 1e3;
    let [close_p50] = percentiles(close_ms, [50.0]);
    v.insert("driver.close_p50_ms", close_p50);
    let [nonroot] = percentiles(latencies(rep, |s| s.op == Op::Close && s.rank != 0), [50.0]);
    v.insert("driver.close_nonroot_p50_us", nonroot);
    let collectives = all_samples(rep)
        .filter(|s| matches!(s.op, Op::Open | Op::Close) && s.rank == 0)
        .count() as f64;
    v.insert(
        "driver.md_rpcs_per_collective",
        ratio(
            p.get("univistor_md_rpcs_total", "op=open_close"),
            collectives,
        ),
    );
    v.insert("driver.app_mib_per_s", app_bytes / mib / rep.wall_s);
    let busy: f64 = rep.logs.iter().map(busy_s).sum();
    v.insert("driver.span_cover", busy / rep.wall_s);

    // server
    v.insert(
        "server.pieces_per_write",
        ratio(p.total("univistor_write_pieces_total", ""), writes),
    );
    v.insert(
        "server.records_per_write",
        ratio(p.total("univistor_write_records_total", ""), writes),
    );
    v.insert(
        "server.locks_per_write",
        ratio(
            p.total("univistor_write_lock_acquisitions_total", ""),
            writes,
        ),
    );
    let decile = fresh_us.len() / 10;
    let growth = if decile == 0 {
        0.0
    } else {
        let [first] = percentiles(fresh_us[..decile].to_vec(), [50.0]);
        let [last] = percentiles(fresh_us[fresh_us.len() - decile..].to_vec(), [50.0]);
        ratio(last, first)
    };
    v.insert("server.write_latency_growth", growth);

    // read
    let read_bytes = p.total("univistor_read_bytes_total", "");
    v.insert(
        "read.locks_per_read",
        ratio(p.total("univistor_read_lock_acquisitions_total", ""), reads),
    );
    for (name, path) in [
        ("read.local_hit_byte_share", "path=local_hit"),
        ("read.remote_hop_byte_share", "path=remote_hop"),
        ("read.bb_direct_byte_share", "path=bb_direct"),
    ] {
        v.insert(
            name,
            ratio(p.get("univistor_read_bytes_total", path), read_bytes),
        );
    }
    v.insert(
        "read.replica_bytes",
        p.total("univistor_read_replica_bytes_total", ""),
    );

    // metadata
    let hits = p.total("univistor_read_md_cache_hits_total", "");
    let misses = p.total("univistor_read_md_cache_misses_total", "");
    v.insert("metadata.md_cache_hit_ratio", ratio(hits, hits + misses));
    v.insert(
        "metadata.rpcs_per_op",
        ratio(p.total("univistor_md_rpcs_total", ""), ops),
    );
    v.insert(
        "metadata.local_hits_per_read",
        ratio(p.total("univistor_md_local_hits_total", ""), reads),
    );
    v.insert("metadata.records_live", rep.records_live as f64);

    // placement
    let cached = p.total("univistor_cached_bytes_total", "");
    v.insert(
        "placement.spill_events",
        p.total("univistor_tier_spill_events_total", ""),
    );
    for (name, tier) in [
        ("placement.dram_byte_share", "tier=dram"),
        ("placement.bb_byte_share", "tier=burst_buffer"),
        ("placement.pfs_byte_share", "tier=pfs"),
    ] {
        v.insert(
            name,
            ratio(p.get("univistor_cached_bytes_total", tier), cached),
        );
    }
    v.insert(
        "placement.segments_per_app_mib",
        ratio(
            p.total("univistor_segments_total", ""),
            rep.bytes_written() as f64 / mib,
        ),
    );

    // flush
    let flushes = p.total("univistor_flushes_total", "");
    let source = p.total("univistor_flush_source_bytes_total", "");
    v.insert("flush.close_share", close_s / rep.wall_s);
    for (name, family) in [
        (
            "flush.write_calls_per_close",
            "univistor_flush_write_calls_total",
        ),
        (
            "flush.ost_writes_per_close",
            "univistor_flush_ost_writes_total",
        ),
        ("flush.spans_per_close", "univistor_flush_spans_total"),
        (
            "flush.gather_round_trips_per_close",
            "univistor_flush_gather_round_trips_total",
        ),
    ] {
        v.insert(name, ratio(p.total(family, ""), flushes));
    }
    v.insert(
        "flush.catchup_passes",
        p.total("univistor_flush_catchup_passes_total", ""),
    );
    v.insert(
        "flush.source_bytes_per_app_byte",
        ratio(source, rep.bytes_written() as f64),
    );
    v.insert(
        "flush.ms_per_gib",
        ratio(close_s * 1e3, source / (1u64 << 30) as f64),
    );

    // pfs
    let stored: u64 = rep.ost_loads.iter().sum();
    let loaded: Vec<f64> = rep
        .ost_loads
        .iter()
        .filter(|&&l| l > 0)
        .map(|&l| l as f64)
        .collect();
    v.insert(
        "pfs.bytes_stored_per_app_byte",
        ratio(stored as f64, rep.bytes_written() as f64),
    );
    v.insert(
        "pfs.lock_revocations",
        p.total("univistor_flush_lock_revocations_total", ""),
    );
    v.insert(
        "pfs.ost_load_imbalance",
        ratio(
            loaded.iter().copied().fold(0.0, f64::max),
            loaded.iter().sum::<f64>() / loaded.len().max(1) as f64,
        ),
    );

    // runtime (families exist only under the partitioned runtime)
    let messages = p.total("univistor_partition_messages_total", "");
    let pool_hits = p.total("univistor_msgplane_reply_pool_hits_total", "");
    let pool_misses = p.total("univistor_msgplane_reply_pool_misses_total", "");
    v.insert("runtime.messages_per_op", ratio(messages, ops));
    v.insert(
        "runtime.round_trips_per_op",
        ratio(p.total("univistor_partition_round_trips_total", ""), ops),
    );
    v.insert(
        "runtime.batched_ops_per_message",
        ratio(
            p.total("univistor_partition_batched_ops_total", ""),
            messages,
        ),
    );
    v.insert(
        "runtime.reply_pool_miss_ratio",
        ratio(pool_misses, pool_hits + pool_misses),
    );
    v.insert(
        "runtime.wait_s_per_op",
        ratio(
            p.total("univistor_partition_wait_seconds", "_sum") / 1e9,
            ops,
        ),
    );

    // workflow: the consumer's root opens are where it blocks on the
    // state file until the producer's close.
    let (wait_s, overlap) = match &rep.logs[..] {
        [producer, consumer] => {
            let wait = consumer
                .samples
                .iter()
                .filter(|s| s.op == Op::Open && s.rank == 0)
                .map(|s| s.ns as f64)
                .sum::<f64>()
                / 1e9;
            (
                wait,
                (busy_s(producer) + busy_s(consumer) - wait) / rep.wall_s,
            )
        }
        _ => (0.0, 0.0),
    };
    v.insert("workflow.consumer_wait_s", wait_s);
    v.insert("workflow.lock_waits", rep.workflow_waits as f64);
    v.insert("workflow.overlap_ratio", overlap);

    v.insert(
        "harness.io_samples_per_rep",
        all_samples(rep).filter(|s| data(s)).count() as f64,
    );
    v
}

/// What the traced run measured beside the base reps.
pub struct Attribution {
    pub base_wall_s: f64,
    pub traced_wall_s: f64,
    pub floor_wall_s: f64,
    pub leaves: LeafTimes,
    pub flush: FlushLeaves,
    pub no_checksums_wall_s: f64,
    pub no_flush_wall_s: f64,
    /// `ior_small_part` on the locked runtime; 0 elsewhere.
    pub locked_wall_s: f64,
    /// App bytes per rep, and whether closes flush.
    pub bytes_written: u64,
    pub bytes_read: u64,
    pub flushes: bool,
}

/// Add the values that need the probes, the floor and the variants.
pub fn attribute(v: &mut Values, a: &Attribution) {
    let share = |variant_wall: f64| {
        if variant_wall == 0.0 {
            0.0
        } else {
            1.0 - variant_wall / a.base_wall_s
        }
    };
    v.insert("mpi.floor_wall_s", a.floor_wall_s);
    v.insert("mpi.floor_share", a.floor_wall_s / a.base_wall_s);
    v.insert(
        "driver.trace_overhead_pct",
        (a.traced_wall_s / a.base_wall_s - 1.0) * 100.0,
    );

    let l = &a.leaves;
    let residual = |p50: f64, leaves: f64| if p50 == 0.0 { 0.0 } else { p50 - leaves };
    v.insert(
        "server.write_residual_us",
        residual(v["driver.write_p50_us"], l.write_leaves_p50_us()),
    );
    // The median read does a metadata scan only if it misses the cache.
    let median_read_scans = v["metadata.md_cache_hit_ratio"] < 0.5;
    v.insert(
        "read.residual_us",
        residual(
            v["driver.read_p50_us"],
            l.read_leaves_p50_us(median_read_scans),
        ),
    );
    v.insert("kv.put_batch_ns_per_key", ratio(l.put_ns, l.keys as f64));
    v.insert(
        "kv.range_scan_ns_per_lookup",
        ratio(l.scan_ns, l.lookups as f64),
    );
    v.insert("kv.shard_imbalance", l.shard_imbalance);
    v.insert(
        "placement.append_ns_per_piece",
        ratio(l.append_ns, l.pieces as f64),
    );
    v.insert(
        "placement.read_ns_per_fragment",
        ratio(l.chain_read_ns, l.fragments as f64),
    );

    // Checksum passes over app bytes: stamp at write commit, verify at the
    // flush gather, verify at the read fetch.
    let rate = l.checksum_gib_per_s();
    let passes = a.bytes_written as f64 * if a.flushes { 2.0 } else { 1.0 } + a.bytes_read as f64;
    v.insert("sim.checksum_gib_per_s", rate);
    v.insert(
        "sim.checksum_est_share",
        ratio(passes / (1u64 << 30) as f64, rate) / a.base_wall_s,
    );
    v.insert("sim.checksum_ablation_share", share(a.no_checksums_wall_s));
    v.insert("flush.ablation_share", share(a.no_flush_wall_s));
    v.insert("striping.plan_us", a.flush.plan_us);
    v.insert("pfs.write_ns_per_stripe_call", a.flush.write_ns_per_call);
    v.insert(
        "runtime.slowdown_vs_locked",
        ratio(a.base_wall_s, a.locked_wall_s),
    );
}

/// Compare the reps' counter maps: `Ok` when bit-identical, else the first
/// differing counter and the largest relative spread in percent.
pub fn counts_repeat(reps: &[Rep]) -> Result<(), (String, f64)> {
    let mut first_diff: Option<String> = None;
    let mut max_spread = 0.0f64;
    let keys: BTreeSet<&String> = reps.iter().flat_map(|r| r.counts.keys()).collect();
    let mut check = |name: &str, vals: Vec<u64>| {
        let (lo, hi) = (
            *vals.iter().min().expect("at least one rep"),
            *vals.iter().max().expect("at least one rep"),
        );
        if lo != hi {
            first_diff.get_or_insert_with(|| name.to_string());
            max_spread = max_spread.max((hi - lo) as f64 / hi as f64 * 100.0);
        }
    };
    for key in keys {
        // Wall-clock observations are not counts.
        if key.contains("_seconds") {
            continue;
        }
        check(
            key,
            reps.iter()
                .map(|r| r.counts.get(key).copied().unwrap_or(0))
                .collect(),
        );
    }
    check(
        "metadata.records_live",
        reps.iter().map(|r| r.records_live).collect(),
    );
    match first_diff {
        None => Ok(()),
        Some(name) => Err((name, max_spread)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Counts;

    fn rep(counts: &[(&str, u64)], families: &[&str]) -> Rep {
        Rep {
            setup_s: 0.0,
            wall_s: 1.0,
            logs: vec![Log::default()],
            counts: counts
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect::<Counts>(),
            families: families.iter().map(|f| f.to_string()).collect(),
            records_live: 7,
            ost_loads: vec![0, 4, 12],
            workflow_waits: 0,
            aborted: false,
        }
    }

    #[test]
    fn absent_family_reads_zero_and_is_named() {
        let r = rep(
            &[("univistor_ops_total{op=write}", 5), ("plain_total", 3)],
            &["univistor_ops_total", "plain_total"],
        );
        let missing = RefCell::new(BTreeSet::new());
        let p = Panel::new(&r, &missing);
        assert_eq!(p.get("univistor_ops_total", "op=write"), 5.0);
        assert_eq!(p.get("univistor_ops_total", "op=read"), 0.0);
        assert_eq!(p.total("plain_total", ""), 3.0);
        assert!(missing.borrow().is_empty(), "present families, zero or not");
        assert_eq!(p.total("univistor_partition_messages_total", ""), 0.0);
        assert_eq!(p.get("univistor_nope_total", "a=b"), 0.0);
        let names: Vec<String> = missing.borrow().iter().cloned().collect();
        assert_eq!(
            names,
            vec!["univistor_nope_total", "univistor_partition_messages_total"]
        );
        // And the whole derivation runs on a panel with nothing in it.
        let v = per_layer_of_rep(&r, &missing);
        assert_eq!(v["runtime.messages_per_op"], 0.0);
        assert_eq!(v["pfs.ost_load_imbalance"], 12.0 / 8.0);
    }

    #[test]
    fn total_does_not_swallow_longer_family_names() {
        let r = rep(
            &[
                ("univistor_flush_spans_total", 4),
                ("univistor_flush_spans_total_extra", 100),
                ("h{partition=0}_sum", 1500),
                ("h{partition=1}_sum", 500),
                ("h{partition=0}_count", 9),
            ],
            &["univistor_flush_spans_total", "h"],
        );
        let missing = RefCell::new(BTreeSet::new());
        let p = Panel::new(&r, &missing);
        assert_eq!(p.total("univistor_flush_spans_total", ""), 4.0);
        assert_eq!(p.total("h", "_sum"), 2000.0);
    }

    #[test]
    fn every_declared_metric_is_produced() {
        let r = rep(&[], &[]);
        let missing = RefCell::new(BTreeSet::new());
        let mut v = per_layer_of_rep(&r, &missing);
        attribute(
            &mut v,
            &Attribution {
                base_wall_s: 1.0,
                traced_wall_s: 1.0,
                floor_wall_s: 0.1,
                leaves: LeafTimes::default(),
                flush: FlushLeaves::default(),
                no_checksums_wall_s: 0.9,
                no_flush_wall_s: 0.0,
                locked_wall_s: 0.0,
                bytes_written: 0,
                bytes_read: 0,
                flushes: false,
            },
        );
        for name in [
            "harness.reps",
            "harness.counts_repeat",
            "harness.counts_max_spread_pct",
        ] {
            v.insert(name, 0.0);
        }
        let declared: BTreeSet<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        let produced: BTreeSet<&str> = v.keys().copied().collect();
        assert_eq!(declared, produced);
        assert_eq!(declared.len(), PER_LAYER.len(), "names are used once");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!((v["sim.checksum_ablation_share"] - 0.1).abs() < 1e-12);
        assert_eq!(v["flush.ablation_share"], 0.0, "variant not run");
    }

    #[test]
    fn counts_repeat_names_the_first_difference() {
        let a = rep(&[("a_total", 1), ("b_total", 10)], &[]);
        let b = rep(&[("a_total", 1), ("b_total", 10)], &[]);
        assert!(counts_repeat(&[a, b]).is_ok());
        let a = rep(
            &[("a_total", 1), ("b_total", 10), ("w_seconds_sum", 5)],
            &[],
        );
        let b = rep(&[("a_total", 1), ("b_total", 8), ("w_seconds_sum", 9)], &[]);
        let (name, spread) = counts_repeat(&[a, b]).unwrap_err();
        assert_eq!(name, "b_total");
        assert!((spread - 20.0).abs() < 1e-9);
    }

    #[test]
    fn best_follows_each_metrics_direction() {
        let rep = |ops: f64, p50: f64| Values::from([("ops_per_s", ops), ("io_p50_us", p50)]);
        let reps = [rep(90.0, 11.0), rep(100.0, 10.5), rep(70.0, 10.0)];
        let v = best_over_reps(&reps);
        assert_eq!((v["ops_per_s"], v["io_p50_us"]), (100.0, 10.0));
        assert!(best_over_reps(&[]).is_empty());
    }
}
