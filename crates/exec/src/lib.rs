//! Sharded Monte-Carlo execution engine.
//!
//! Every Monte-Carlo hot path in the workspace (UEC logical-error-rate
//! estimation, the Pauli-frame sampler, distillation trial batches, DSE
//! sweeps) runs through this crate, so the workspace has exactly one
//! parallelism substrate.
//!
//! # The `(seed, shard)` RNG-stream contract
//!
//! Work is split into **shards** whose boundaries depend only on the total
//! work size and the shard size — **never** on the worker count. Each shard
//! derives its own RNG stream deterministically from the master seed and its
//! shard index via [`shard_seed`] (a SplitMix64 finalizer, so neighbouring
//! shard indices produce statistically independent streams). Per-shard
//! results are merged **in shard-index order** by the caller's reducer.
//!
//! Consequently the output of any computation built on this engine is
//! **bit-identical** for every worker count: the worker pool only decides
//! *which thread* executes a shard, never *what* the shard computes or the
//! order in which results are folded.
//!
//! # Examples
//!
//! ```
//! use hetarch_exec::WorkerPool;
//!
//! // Estimate a failure count over 10_000 trials, sharded by 1024.
//! let count = |pool: &WorkerPool| {
//!     let per_shard = pool.run_shards(10_000, 1024, 42, |shard| shard.len);
//!     per_shard.into_iter().sum::<usize>()
//! };
//! assert_eq!(count(&WorkerPool::new(1)), 10_000);
//! assert_eq!(count(&WorkerPool::new(8)), 10_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rare;

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;

use hetarch_obs as obs;

// Engine metrics (no-ops unless the `obs` feature is on and `HETARCH_OBS=1`;
// they count and time but never feed back into shard plans or RNG streams).
static MAP_CALLS: obs::Counter = obs::Counter::new("exec.map_calls");
static JOBS_EXECUTED: obs::Counter = obs::Counter::new("exec.jobs_executed");
static SHARDS_EXECUTED: obs::Counter = obs::Counter::new("exec.shards_executed");
static PANICS_OBSERVED: obs::Counter = obs::Counter::new("exec.panics_observed");
static QUEUE_WAIT_NS: obs::Histogram = obs::Histogram::new("exec.queue_wait_ns");
static COMPUTE_NS: obs::Histogram = obs::Histogram::new("exec.compute_ns");
static JOBS_PER_WORKER: obs::Histogram = obs::Histogram::new("exec.jobs_per_worker");
static CANCELLATIONS: obs::Counter = obs::Counter::new("exec.cancellations");

/// A cooperative cancellation token shared between a job's requester and the
/// engine loops executing it.
///
/// The token is a cheap clonable handle over one shared flag. Cancellation
/// is **cooperative**: the engine checks the flag at its checkpoints (before
/// dispatching each work item in [`WorkerPool::try_map_indexed`], i.e.
/// between shards in [`WorkerPool::try_run_shards`]), finishes the items already in flight,
/// and returns [`Cancelled`]. A shard body is never interrupted mid-shot, so
/// cancellation can never corrupt a result that *is* delivered — a
/// cancelled run delivers nothing at all.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// True once any clone of this token was cancelled.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Error returned by the `try_*` engine entry points when their
/// [`CancelToken`] fired before the run completed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cancelled;

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("run cancelled before completion")
    }
}

impl std::error::Error for Cancelled {}

/// Derives the RNG seed of shard `shard` from the master `seed`.
///
/// This is the SplitMix64 output function over `seed + (shard+1)·φ64`; it
/// decorrelates the streams of neighbouring shard indices and of
/// neighbouring master seeds. `shard_seed(s, i)` depends on nothing else, so
/// a shard's stream can be reproduced in isolation.
#[inline]
pub fn shard_seed(seed: u64, shard: u64) -> u64 {
    let mut z = seed.wrapping_add(shard.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One unit of sharded work: a contiguous slice of the trial range plus its
/// private RNG seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shard {
    /// Shard index (reduction order).
    pub index: usize,
    /// First trial covered by this shard.
    pub start: usize,
    /// Number of trials in this shard (always ≥ 1).
    pub len: usize,
    /// Private RNG seed, [`shard_seed`]`(master_seed, index)`.
    pub seed: u64,
}

/// Splits `total` trials into shards of at most `shard_size`, deriving each
/// shard's seed from `seed`. Returns an empty vector when `total == 0`; the
/// last shard absorbs the remainder when `total` is not divisible.
///
/// # Panics
///
/// Panics if `shard_size == 0`.
pub fn shards(total: usize, shard_size: usize, seed: u64) -> Vec<Shard> {
    assert!(shard_size > 0, "shard size must be positive");
    (0..total.div_ceil(shard_size))
        .map(|index| {
            let start = index * shard_size;
            Shard {
                index,
                start,
                len: shard_size.min(total - start),
                seed: shard_seed(seed, index as u64),
            }
        })
        .collect()
}

thread_local! {
    /// Set on the threads a [`WorkerPool::map_indexed`] call spawns, and
    /// only there: a map called from a job body runs inline on its worker.
    static ON_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// A scoped worker pool.
///
/// The pool stores only its worker count; each [`WorkerPool::map_indexed`]
/// call spawns scoped threads that pull work-stealing indices from a shared
/// counter, so borrows of caller state need no `'static` bound and a
/// panicking job cannot poison anything — the panic propagates out of the
/// call and the pool remains fully usable.
///
/// A map called from inside a job — a sharded run nested in a sweep over
/// the same pool — runs inline on the worker executing that job, so a
/// nested call never holds more than the outer call's threads. Results are
/// the same either way; only the parallelism of the inner call is given up.
#[derive(Clone, Debug)]
pub struct WorkerPool {
    workers: usize,
}

impl WorkerPool {
    /// A pool with exactly `workers` threads (1 = fully serial execution).
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "need at least one worker");
        WorkerPool { workers }
    }

    /// A pool sized to the machine's available parallelism (1 if it cannot
    /// be determined). Results never depend on the worker count, so this
    /// only decides how fast a run finishes.
    pub fn available() -> Self {
        WorkerPool::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Evaluates `f(i)` for every `i in 0..n` and returns the results in
    /// index order, regardless of which worker computed which index. Called
    /// from a job of another map, it evaluates serially on that job's
    /// worker.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised inside `f`. The pool is not
    /// poisoned: subsequent calls behave normally.
    pub fn map_indexed<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        match self.map_indexed_inner(n, None, f) {
            Ok(out) => out,
            Err(Cancelled) => unreachable!("no token, no cancellation"),
        }
    }

    /// As [`WorkerPool::map_indexed`] with a cooperative [`CancelToken`]:
    /// the token is checked before each index is dispatched (and between
    /// iterations on the serial path), so a long run stops — and its worker
    /// threads are released — within one job body of the cancel request.
    ///
    /// Returns [`Cancelled`] if the token fired before every index was
    /// evaluated; results computed up to that point are discarded. A token
    /// that fires only after the last job completed still returns `Ok`.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised inside `f`, exactly like
    /// [`WorkerPool::map_indexed`].
    pub fn try_map_indexed<R, F>(
        &self,
        n: usize,
        token: &CancelToken,
        f: F,
    ) -> Result<Vec<R>, Cancelled>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.map_indexed_inner(n, Some(token), f)
    }

    fn map_indexed_inner<R, F>(
        &self,
        n: usize,
        token: Option<&CancelToken>,
        f: F,
    ) -> Result<Vec<R>, Cancelled>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        MAP_CALLS.inc();
        let cancelled = || token.is_some_and(CancelToken::is_cancelled);
        if self.workers == 1 || n <= 1 || ON_WORKER.with(Cell::get) {
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                if cancelled() {
                    CANCELLATIONS.inc();
                    return Err(Cancelled);
                }
                out.push(observe_job(|| f(i)));
            }
            return Ok(out);
        }
        let threads = self.workers.min(n);
        let next = &AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        let f = &f;
        let call_start = obs::enabled().then(std::time::Instant::now);
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut filled = 0usize;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let tx = tx.clone();
                s.spawn(move || {
                    ON_WORKER.with(|on| on.set(true));
                    let mut mine = 0u64;
                    loop {
                        // Cancellation checkpoint: stop pulling new work;
                        // items already claimed by other workers finish.
                        if cancelled() {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        if let Some(start) = call_start {
                            QUEUE_WAIT_NS.record(elapsed_ns(start));
                        }
                        let value = observe_job(|| f(i));
                        mine += 1;
                        // The receiver outlives the workers; a failed send
                        // means the scope is unwinding anyway.
                        let _ = tx.send((i, value));
                    }
                    if obs::enabled() {
                        JOBS_PER_WORKER.record(mine);
                    }
                });
            }
            drop(tx);
            // Drain on the caller thread *while* the workers run: each
            // result moves into its pre-allocated slot as soon as it is
            // produced, instead of buffering the whole result set in the
            // channel (~2x peak memory) until the scope joins. The iterator
            // ends when every worker has dropped its sender; if a worker
            // panicked, the scope re-raises that panic right after.
            for (i, value) in rx.iter() {
                slots[i] = Some(value);
                filled += 1;
            }
        });
        if filled < n {
            // Only a fired token can leave indices unevaluated (a panic
            // would have propagated out of the scope above).
            CANCELLATIONS.inc();
            return Err(Cancelled);
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("all indices evaluated"))
            .collect())
    }

    /// Runs `f` once per shard of `total` trials (shards of at most
    /// `shard_size`, seeds derived from `seed`) and returns the per-shard
    /// results **in shard-index order**.
    ///
    /// Shard boundaries and seeds depend only on `(total, shard_size,
    /// seed)`, so the result is bit-identical for every worker count.
    pub fn run_shards<R, F>(&self, total: usize, shard_size: usize, seed: u64, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Shard) -> R + Sync,
    {
        let plan = shards(total, shard_size, seed);
        SHARDS_EXECUTED.add(plan.len() as u64);
        self.map_indexed(plan.len(), |i| f(&plan[i]))
    }

    /// As [`WorkerPool::run_shards`] with a cooperative [`CancelToken`]
    /// checked between shards: a fired token stops the run after at most
    /// one in-flight shard per worker and returns [`Cancelled`]. A shard
    /// body is never interrupted mid-shot.
    pub fn try_run_shards<R, F>(
        &self,
        total: usize,
        shard_size: usize,
        seed: u64,
        token: &CancelToken,
        f: F,
    ) -> Result<Vec<R>, Cancelled>
    where
        R: Send,
        F: Fn(&Shard) -> R + Sync,
    {
        let plan = shards(total, shard_size, seed);
        SHARDS_EXECUTED.add(plan.len() as u64);
        self.try_map_indexed(plan.len(), token, |i| f(&plan[i]))
    }
}

#[inline]
fn elapsed_ns(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs one job under observation: times it, counts it, and counts (then
/// re-raises) any panic. When collection is disabled this is a direct call.
#[inline]
fn observe_job<R>(f: impl FnOnce() -> R) -> R {
    if obs::enabled() {
        let t = obs::Timer::start();
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
            Ok(value) => {
                COMPUTE_NS.record_timer(t);
                JOBS_EXECUTED.inc();
                value
            }
            Err(payload) => {
                PANICS_OBSERVED.inc();
                std::panic::resume_unwind(payload)
            }
        }
    } else {
        f()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_plan_covers_range_exactly() {
        for (total, size) in [(0, 64), (1, 64), (64, 64), (100, 64), (1000, 64), (7, 3)] {
            let plan = shards(total, size, 9);
            let covered: usize = plan.iter().map(|s| s.len).sum();
            assert_eq!(covered, total, "total {total} size {size}");
            for (i, s) in plan.iter().enumerate() {
                assert_eq!(s.index, i);
                assert_eq!(s.start, i * size);
                assert!(s.len >= 1 && s.len <= size);
                assert_eq!(s.seed, shard_seed(9, i as u64));
            }
        }
    }

    #[test]
    fn shard_seeds_are_distinct_and_seed_sensitive() {
        let a: Vec<u64> = (0..64).map(|i| shard_seed(1, i)).collect();
        let b: Vec<u64> = (0..64).map(|i| shard_seed(2, i)).collect();
        let mut uniq = a.clone();
        uniq.extend(&b);
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 128, "seed collision across shards/masters");
    }

    #[test]
    fn map_indexed_preserves_order() {
        for workers in [1, 2, 8] {
            let pool = WorkerPool::new(workers);
            let out = pool.map_indexed(100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn fold_is_worker_count_invariant() {
        // A reduction whose result depends on fold order (string concat)
        // must still be identical across worker counts.
        let run = |workers| {
            WorkerPool::new(workers)
                .run_shards(257, 16, 7, |s| format!("{}:{:x};", s.index, s.seed))
                .into_iter()
                .fold(String::new(), |acc, s| acc + &s)
        };
        let reference = run(1);
        for workers in [2, 3, 8] {
            assert_eq!(run(workers), reference);
        }
    }

    #[test]
    fn zero_total_runs_no_shards() {
        let pool = WorkerPool::new(4);
        let out = pool.run_shards(0, 64, 1, |_| 1usize);
        assert!(out.is_empty());
        assert!(shards(0, 64, 1).is_empty());
    }

    #[test]
    fn single_shard_fallback_is_serial() {
        // total <= shard_size: exactly one shard, seeded as shard 0.
        let plan = shards(40, 64, 5);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].len, 40);
        assert_eq!(plan[0].seed, shard_seed(5, 0));
    }

    #[test]
    fn panicking_job_does_not_poison_pool() {
        let pool = WorkerPool::new(4);
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map_indexed(16, |i| {
                if i == 7 {
                    panic!("shard failure");
                }
                i
            })
        }));
        assert!(boom.is_err(), "panic must propagate");
        // The pool is stateless across calls: the next run is unaffected.
        let out = pool.map_indexed(16, |i| i);
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "shard size must be positive")]
    fn zero_shard_size_rejected() {
        shards(10, 0, 1);
    }

    #[test]
    fn available_pool_has_at_least_one_worker() {
        assert!(WorkerPool::available().workers() >= 1);
    }

    #[test]
    fn available_pool_matches_serial_fold() {
        let run = |pool: &WorkerPool| {
            pool.run_shards(257, 16, 7, |s| format!("{}:{:x};", s.index, s.seed))
                .concat()
        };
        assert_eq!(run(&WorkerPool::available()), run(&WorkerPool::new(1)));
    }

    #[test]
    fn uncancelled_try_paths_match_plain_paths() {
        for workers in [1, 2, 8] {
            let pool = WorkerPool::new(workers);
            let token = CancelToken::new();
            let plain = pool.map_indexed(37, |i| i * i);
            let tried = pool.try_map_indexed(37, &token, |i| i * i).unwrap();
            assert_eq!(plain, tried);
            let plain = pool.run_shards(1000, 64, 7, |s| s.seed);
            let tried = pool
                .try_run_shards(1000, 64, 7, &token, |s| s.seed)
                .unwrap();
            assert_eq!(plain, tried);
        }
    }

    #[test]
    fn pre_cancelled_token_runs_nothing() {
        for workers in [1, 4] {
            let pool = WorkerPool::new(workers);
            let token = CancelToken::new();
            token.cancel();
            let ran = AtomicUsize::new(0);
            let out = pool.try_map_indexed(64, &token, |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                i
            });
            assert_eq!(out, Err(Cancelled));
            // Parallel workers may each have claimed at most one job before
            // observing the flag; the serial path claims none.
            assert!(ran.load(Ordering::Relaxed) <= workers);
        }
    }

    #[test]
    fn cancel_token_fires_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn cancelled_fold_releases_workers_promptly() {
        // The regression the serving layer exposed: a long sharded run had
        // no checkpoint between shards, so a dead request kept its workers
        // until the whole run finished. With the token checked per shard,
        // cancelling mid-run must return within roughly one shard body per
        // worker — far below the full runtime (~10k shards x 500µs = 5s).
        let pool = WorkerPool::new(2);
        let token = CancelToken::new();
        let canceller = token.clone();
        let start = std::time::Instant::now();
        std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(50));
                canceller.cancel();
            });
            let out = pool.try_run_shards(10_000, 1, 3, &token, |_| {
                std::thread::sleep(std::time::Duration::from_micros(500));
                1usize
            });
            assert_eq!(out, Err(Cancelled));
        });
        let elapsed = start.elapsed();
        assert!(
            elapsed < std::time::Duration::from_millis(1500),
            "cancelled shard run held its workers for {elapsed:?}"
        );
    }

    #[test]
    fn nested_maps_stay_on_the_outer_workers() {
        // Four outer jobs, each running a 64-item map on the same 8-worker
        // pool. Spawning per inner call would hold up to 4 + 4 × 8 = 36
        // threads; inline inner maps keep to the outer call's workers.
        let pool = WorkerPool::new(8);
        let ids = std::sync::Mutex::new(std::collections::HashSet::new());
        let started = AtomicUsize::new(0);
        let sums = pool.map_indexed(4, |outer| {
            pool.map_indexed(64, |inner| {
                ids.lock()
                    .expect("no item panics")
                    .insert(std::thread::current().id());
                // Hold the item until nine have started, more than 8
                // threads can run at once, so inner threads spawned per
                // call would all pick up items; the deadline bounds the
                // wait of the four inline maps.
                started.fetch_add(1, Ordering::SeqCst);
                let deadline = std::time::Instant::now() + std::time::Duration::from_millis(200);
                while started.load(Ordering::SeqCst) < 9 && std::time::Instant::now() < deadline {
                    std::thread::yield_now();
                }
                outer * 64 + inner
            })
            .into_iter()
            .sum::<usize>()
        });
        let expect: Vec<usize> = (0..4).map(|o| (0..64).map(|i| o * 64 + i).sum()).collect();
        assert_eq!(sums, expect);
        let threads = ids.into_inner().expect("no item panics").len();
        assert!(threads <= 8, "nested maps ran on {threads} threads");
        // The marker lives on the spawned workers only: the caller's next
        // map still fans out.
        assert!(!ON_WORKER.with(Cell::get));
    }

    #[test]
    fn nested_try_map_checks_the_token_per_item() {
        let pool = WorkerPool::new(4);
        let token = CancelToken::new();
        let ran = AtomicUsize::new(0);
        let out = pool.map_indexed(2, |_| {
            pool.try_map_indexed(64, &token, |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i == 9 {
                    token.cancel();
                }
            })
        });
        assert!(out.iter().all(|r| *r == Err(Cancelled)));
        // Each inline inner map stops right after the item that fired the
        // token; the other may have run its own items up to that point.
        assert!(ran.load(Ordering::Relaxed) <= 20);
    }

    #[test]
    fn large_results_drain_in_order() {
        // Results are drained into their slots while workers are still
        // producing; the output must still be exactly in index order for
        // every worker count (the determinism suite depends on it).
        for workers in [1, 2, 8] {
            let pool = WorkerPool::new(workers);
            let out = pool.map_indexed(500, |i| vec![i as u64; 100]);
            assert_eq!(out.len(), 500);
            for (i, v) in out.iter().enumerate() {
                assert_eq!(v.len(), 100);
                assert!(v.iter().all(|&x| x == i as u64));
            }
        }
    }
}
