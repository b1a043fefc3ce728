//! Allocation audit for the module Monte-Carlo shot loop.
//!
//! A counting `#[global_allocator]` wraps the system allocator. A plain
//! estimate of a d = 3 UEC module allocates only per call and per shard
//! list (the shard plan and the result vector), never per shot, so after a
//! warm run the same call makes the same number of allocations at 512
//! shots (one shard) and at 4096 shots (eight shards). This test lives in
//! its own integration-test binary so no sibling test allocates inside the
//! measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use hetarch::cells::UscCell;
use hetarch::devices::catalog::{coherence_limited_compute, coherence_limited_storage};
use hetarch::modules::faults::{estimate, Estimate, Estimator, RunCtx};
use hetarch::modules::uec::{UecModule, UecNoise};
use hetarch::stab::codes::rotated_surface_code;
use hetarch_exec::WorkerPool;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by one plain estimate of `shots` shots, and its
/// failure count.
fn counted(module: &UecModule, pool: &WorkerPool, shots: usize) -> (u64, usize) {
    let ctx = RunCtx {
        pool,
        seed: 61,
        cancel: None,
    };
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let est = estimate(module, Estimator::Plain { shots }, &ctx).expect("no token");
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    let Estimate::Plain { failures, .. } = est else {
        panic!("plain estimator returned {est:?}");
    };
    (after - before, failures)
}

#[test]
fn plain_uec_estimate_allocates_nothing_per_shot() {
    let usc = UscCell::new(
        coherence_limited_compute(0.5e-3),
        coherence_limited_storage(5e-3),
    )
    .unwrap()
    .characterize();
    let module = UecModule::new(rotated_surface_code(3), usc, UecNoise::default());
    let pool = WorkerPool::new(1);
    counted(&module, &pool, 4096);

    let (small, _) = counted(&module, &pool, 512);
    let (large, failures) = counted(&module, &pool, 4096);
    assert!(failures > 0, "the audited shots never failed");
    assert_eq!(
        small, large,
        "4096 shots allocated {large} times against {small} at 512: a shot allocates"
    );
}
