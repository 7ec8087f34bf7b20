//! Micro-benchmarks: the data-structure ablations behind UniviStor's
//! design choices, on a tiny built-in timing harness (`harness = false`;
//! the workspace builds without external crates, so no Criterion).
//!
//! * `log_append` — chunked log-structured appends, including chunk reuse
//!   through the free-chunk stack;
//! * `va_codec` — Eq. 1 encode/decode;
//! * `metadata` — the distributed range-partitioned KV vs. the paper's
//!   rejected centralized map (insert and range-lookup);
//! * `striping` — adaptive (Eqs. 2–6) vs. naive planning;
//! * `read_path` — location-aware vs. naive read planning;
//! * `sparse_buffer` — extent-map write/read.
//!
//! Run with `cargo bench -p univistor-bench`. Pass a substring argument
//! to filter groups, e.g. `cargo bench -p univistor-bench -- metadata`.

use std::hint::black_box;
use std::time::Instant;
use univistor_core::config::JobGeometry;
use univistor_core::integrity::Verifier;
use univistor_core::log::LogFile;
use univistor_core::metadata::{ClientId, MetadataService, SegKey, SegmentRecord};
use univistor_core::placement::{ChainSet, ProcChain};
use univistor_core::read::ReadService;
use univistor_core::striping::{adaptive_plan, naive_plan};
use univistor_core::va::{Tier, TierMap, VirtualAddr};
use univistor_kv::CentralizedKv;
use univistor_sim::{Payload, SparseBuffer};

/// Time `f` for at least ~0.2 s after warmup and report ns/iteration.
fn bench<R>(filter: &Option<String>, name: &str, mut f: impl FnMut() -> R) {
    if let Some(pat) = filter {
        if !name.contains(pat.as_str()) {
            return;
        }
    }
    // Warmup + calibration: find an iteration count that runs ≥ 50 ms.
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let elapsed = t.elapsed();
        if elapsed.as_millis() >= 50 || iters > 1 << 24 {
            break;
        }
        iters = (iters * 4).max(4);
    }
    // Measured passes: take the best of 3 to damp scheduler noise.
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        best = best.min(t.elapsed().as_secs_f64());
    }
    let per_iter_ns = best / iters as f64 * 1e9;
    let (value, unit) = if per_iter_ns >= 1e6 {
        (per_iter_ns / 1e6, "ms")
    } else if per_iter_ns >= 1e3 {
        (per_iter_ns / 1e3, "µs")
    } else {
        (per_iter_ns, "ns")
    };
    println!("{name:<44} {value:>10.2} {unit}/iter   ({iters} iters)");
}

fn bench_log_append(filter: &Option<String>) {
    bench(filter, "log_append/fresh_chunks", || {
        let mut log = LogFile::new(64 << 20, 1 << 20).unwrap();
        for i in 0..64u64 {
            log.append(Payload::pattern(i, 1 << 20)).unwrap();
        }
        log.live_bytes()
    });
    bench(filter, "log_append/with_chunk_reuse", || {
        let mut log = LogFile::new(8 << 20, 1 << 20).unwrap();
        // Fill, release, refill — exercising the free-chunk stack.
        for round in 0..8u64 {
            let addrs: Vec<_> = (0..8u64)
                .map(|i| {
                    log.append(Payload::pattern(round * 8 + i, 1 << 20))
                        .unwrap()
                })
                .collect();
            for a in addrs {
                log.release(a, 1 << 20);
            }
        }
        log.free_chunks()
    });
}

fn bench_va_codec(filter: &Option<String>) {
    let map = TierMap::new(vec![
        (Tier::Dram, 1 << 30),
        (Tier::SharedBurstBuffer, 8 << 30),
        (Tier::Pfs, u64::MAX),
    ]);
    bench(filter, "va_codec/encode_decode_x1024", || {
        let mut acc = 0u64;
        for i in 0..1024u64 {
            let va = map.encode((i % 3) as usize, i * 4096 % (1 << 30));
            let (layer, _, addr) = map.decode(va);
            acc = acc.wrapping_add(layer as u64 + addr);
        }
        acc
    });
}

/// Index one record of file 1 at `offset`: a one-record `insert_batch`.
fn insert(md: &MetadataService, offset: u64, record: SegmentRecord, node: usize) {
    md.insert_batch(1, offset, offset + record.len, &[(offset, record)], node)
        .expect("no injector");
}

fn bench_metadata(filter: &Option<String>) {
    let record = |i: u64| {
        SegmentRecord::new(
            ClientId::new(0, (i % 64) as u32),
            VirtualAddr(i * 4096),
            4096,
        )
    };

    for n in [1_000u64, 10_000] {
        bench(filter, &format!("metadata/distributed_insert/{n}"), || {
            let md = MetadataService::new(1 << 20, 64, 8);
            for i in 0..n {
                insert(&md, i * 4096, record(i), 0);
            }
            md.len()
        });
        bench(filter, &format!("metadata/centralized_insert/{n}"), || {
            let mut kv: CentralizedKv<SegKey, SegmentRecord> = CentralizedKv::new();
            for i in 0..n {
                kv.put(
                    SegKey {
                        fid: 1,
                        offset: i * 4096,
                    },
                    record(i),
                );
            }
            kv.len()
        });
    }

    // Range lookups over a populated store.
    let md = MetadataService::new(1 << 20, 64, 8);
    for i in 0..100_000u64 {
        insert(&md, i * 4096, record(i), 0);
    }
    let mut cursor = 0u64;
    bench(filter, "metadata/distributed_range_lookup", || {
        cursor = (cursor + 997) % 90_000;
        let (_, hits) = md.lookup_range(1, cursor * 4096, (cursor + 64) * 4096);
        hits.len()
    });
}

fn bench_striping(filter: &Option<String>) {
    let gb = 1u64 << 30;
    bench(filter, "striping/adaptive_case1", || {
        adaptive_plan(64 * gb, 8, 248, 8, gb).stripe_size
    });
    bench(filter, "striping/adaptive_case2", || {
        adaptive_plan(512 * gb, 512, 248, 8, gb).stripe_size
    });
    bench(filter, "striping/naive", || {
        naive_plan(512 * gb, 512, 248, 1 << 20).osts_per_server
    });
}

fn bench_read_path(filter: &Option<String>) {
    // 4 nodes × 8 clients, 1024 segments of 64 KiB.
    let geometry = JobGeometry {
        nodes: 4,
        procs_per_node: 8,
        servers_per_node: 2,
    };
    let md = MetadataService::new(16 << 20, 8, 4);
    let chains = ChainSet::new();
    let seg = 64u64 << 10;
    for rank in 0..32u32 {
        let client = ClientId::new(0, rank);
        chains
            .ensure(client, || {
                ProcChain::new(vec![(Tier::Dram, 32 * seg), (Tier::Pfs, u64::MAX)], seg)
            })
            .unwrap();
        for i in 0..32u64 {
            let logical = (rank as u64 * 32 + i) * seg;
            let placed = chains
                .append(client, Payload::pattern(logical, seg))
                .unwrap();
            insert(
                &md,
                logical,
                SegmentRecord::new(client, placed.va, seg),
                geometry.node_of_rank(rank as usize),
            );
        }
    }
    for (name, aware) in [
        ("read_path/location_aware", true),
        ("read_path/naive", false),
    ] {
        let verifier = Verifier::default();
        let svc = ReadService::new(&md, &chains, &geometry, &verifier).location_aware(aware);
        let mut cursor = 0u64;
        bench(filter, name, || {
            cursor = (cursor + 7) % 960;
            let out = svc
                .read(ClientId::new(0, 0), 1, cursor * seg, 8 * seg)
                .unwrap();
            out.payload.len()
        });
    }
}

fn bench_sparse_buffer(filter: &Option<String>) {
    bench(filter, "sparse_buffer/sequential_writes", || {
        let mut buf = SparseBuffer::new();
        for i in 0..1024u64 {
            buf.write(i * 4096, Payload::pattern(i, 4096));
        }
        buf.extent_count()
    });
    bench(filter, "sparse_buffer/overlapping_writes_then_read", || {
        let mut buf = SparseBuffer::new();
        for i in 0..256u64 {
            buf.write(i * 1000, Payload::pattern(i, 4096));
        }
        buf.read(0, 256 * 1000 + 4096).len()
    });
}

fn main() {
    // `cargo bench -- <filter>`; cargo also passes --bench, ignore flags.
    let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    bench_log_append(&filter);
    bench_va_codec(&filter);
    bench_metadata(&filter);
    bench_striping(&filter);
    bench_read_path(&filter);
    bench_sparse_buffer(&filter);
}
