//! Steady-state allocation audit for the batch decode loop.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after one
//! warm pass has sized the scratch arena's lane lists, a second
//! identical pass over the same shots must allocate **nothing**. This test
//! lives in its own integration-test binary on purpose: other tests
//! running on sibling threads would allocate inside the measurement
//! window and poison the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use hetarch::stab::codes::{SurfaceMemory, SurfaceNoise};
use hetarch::stab::decoder::UnionFindDecoder;
use hetarch::stab::detector::sample_detectors;
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

/// The steady-state decode loop — syndrome extraction, growth, peeling,
/// and failure counting over 2048 surface-memory shots — performs zero
/// heap allocations once the scratch arena is warm.
#[test]
fn steady_state_batch_decode_allocates_nothing() {
    let mem = SurfaceMemory::new(5, 5, SurfaceNoise::default());
    let circuit = mem.circuit();
    let uf = UnionFindDecoder::new(&mem.matching_graph());
    let pool = WorkerPool::new(1);
    let shots = 2048;
    let samples = sample_detectors(&pool, &circuit, shots, 41);
    let mut scratch = uf.new_scratch();

    // Warm pass: sizes the ShotBlock lane lists for the exact shots the
    // measured pass will revisit. Every per-node, per-edge and worklist
    // array of the scratch is already reserved to its worst case when the
    // scratch is built.
    let warm = uf.count_failures(
        &mut scratch,
        &samples.detectors,
        &samples.observables,
        0,
        0,
        shots,
    );

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let counted = uf.count_failures(
        &mut scratch,
        &samples.detectors,
        &samples.observables,
        0,
        0,
        shots,
    );
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(counted, warm, "warm and measured passes disagree");
    assert_eq!(
        after - before,
        0,
        "steady-state decode performed heap allocations"
    );
}
