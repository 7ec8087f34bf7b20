//! Allocation budget of one read at BD-CATS scale, counted by a wrapping
//! global allocator. This binary holds exactly one test so that no other
//! test's allocations land in the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use univistor_core::config::UniviStorConfig;
use univistor_core::metadata::ClientId;
use univistor_core::server::UniviStorJob;
use univistor_sim::Payload;

/// Counts every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const MIB: u64 = 1 << 20;
const RANKS: u32 = 64;
const SLAB: u64 = 4 * MIB;
const READ: u64 = 8 * MIB;

/// Allocations made by one `len`-byte read of `/scan` at `offset` by rank
/// 0, including the returned payload's; the bytes are checked afterwards.
fn read_allocations(job: &UniviStorJob, offset: u64) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let got = job
        .read(ClientId::new(0, 0), "/scan", offset, READ)
        .unwrap();
    let n = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let expected =
        Payload::chain((0..READ / SLAB).map(|i| Payload::pattern(offset / SLAB + i, SLAB)));
    assert!(
        got.content_eq(&expected),
        "read at {offset} returned wrong bytes"
    );
    n
}

/// `bdcats_scan`'s job shape — the paper's 64 ranks on two nodes, 1 MiB
/// segments and chunks, 8 MiB metadata ranges, 2.5 GiB of DRAM per node —
/// with each rank writing one 4 MiB slab. Rank 0 (node 0) then reads 8 MiB
/// of node-0 records (served by its node buffer) and 8 MiB of node-1
/// records (the distributed lookup through the read cache), each cold and
/// then warm.
#[test]
fn a_bdcats_read_stays_within_its_allocation_budget() {
    let mut cfg = UniviStorConfig::paper(RANKS as usize);
    cfg.segment_size = MIB;
    cfg.chunk_size = MIB;
    cfg.metadata_range_size = 8 * MIB;
    cfg.cal.dram_cache_capacity_per_node = 2560 * MIB;
    let job = UniviStorJob::new(cfg);
    let root = ClientId::new(0, 0);
    job.open_file("/scan")
        .read_write()
        .representing(RANKS as usize)
        .by(root)
        .unwrap();
    for rank in 0..RANKS {
        let slab = Payload::pattern(rank as u64, SLAB);
        job.write(ClientId::new(0, rank), "/scan", rank as u64 * SLAB, slab)
            .unwrap();
    }
    let node1 = 32 * SLAB;
    let counts = [
        ("node 0, cold", read_allocations(&job, 0), 7),
        ("node 0, warm", read_allocations(&job, 0), 7),
        ("node 1, cold", read_allocations(&job, node1), 10),
        ("node 1, warm", read_allocations(&job, node1), 7),
    ];
    for (read, n, budget) in counts {
        println!("8 MiB read of {read} records: {n} allocations (budget {budget})");
    }
    for (read, n, budget) in counts {
        assert!(
            n <= budget,
            "the 8 MiB read of {read} records made {n} allocations, over {budget}"
        );
    }
}
