//! Allocation budget of the metrics panel and of job construction, counted
//! by a wrapping global allocator. This binary holds exactly one test so
//! that no other test's allocations land in the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use univistor_core::config::UniviStorConfig;
use univistor_core::metrics::JobMetrics;
use univistor_core::server::UniviStorJob;

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

/// Allocations made while building `T` (its drop is not counted).
fn allocations<T>(build: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let built = build();
    let n = ALLOCATIONS.load(Ordering::Relaxed) - before;
    drop(built);
    n
}

/// A fresh panel is a handful of allocations, and so is a paper-scale job
/// (`paper` builds the locked runtime, which spawns no workers).
#[test]
fn panel_and_job_construction_stay_within_their_allocation_budget() {
    let panel = allocations(JobMetrics::new);
    let cfg = UniviStorConfig::paper(64);
    let job = allocations(|| UniviStorJob::new(cfg));
    println!("JobMetrics::new: {panel} allocations; UniviStorJob::new(paper(64)): {job}");
    assert!(panel <= 10, "JobMetrics::new made {panel} allocations");
    assert!(
        job <= 25,
        "UniviStorJob::new(paper(64)) made {job} allocations"
    );
}
