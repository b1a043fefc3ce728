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
use std::sync::{Arc, Mutex};

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
static THREADS_PER_MAP: obs::Histogram = obs::Histogram::new("exec.threads_per_map");
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
    /// Set on a thread while it computes items of a parallel
    /// [`WorkerPool::map_indexed`] call, as a helper the call spawned or as
    /// the caller itself: a map called from a job body runs inline there.
    static ON_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// A scoped worker pool with one thread budget shared by all its clones.
///
/// The pool holds its worker count and a shared count of the threads
/// currently computing its maps. Each [`WorkerPool::map_indexed`] call
/// computes items on the calling thread, which always counts as one thread,
/// and spawns scoped helpers only for the pool's idle workers; all of them
/// pull indices from one shared counter, so borrows of caller state need no
/// `'static` bound. A helper leaves between items once the pool runs more
/// threads than it has workers, so concurrent maps share `workers` threads
/// instead of each taking `workers` of their own. A panicking job cannot
/// poison anything: its thread's share of the budget is given back on
/// unwind, the panic propagates out of the call and the pool remains fully
/// usable.
///
/// A map called from inside a job — a sharded run nested in a sweep over
/// the same pool — runs inline on the thread executing that job, so a
/// nested call never holds more than the outer call's threads. Results are
/// the same either way; only the parallelism of the inner call is given up.
#[derive(Clone, Debug)]
pub struct WorkerPool {
    workers: usize,
    /// Threads computing items of this pool's parallel maps, callers
    /// included. Updated with `Relaxed` read-modify-writes: it publishes no
    /// data, it only decides how many threads compute.
    active: Arc<AtomicUsize>,
}

impl WorkerPool {
    /// A pool of `workers` threads (1 = fully serial execution): its maps
    /// compute on at most `workers` threads at once, or on one thread per
    /// concurrent caller if there are more callers than workers.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "need at least one worker");
        WorkerPool {
            workers,
            active: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// A pool sized to the machine's available parallelism (1 if it cannot
    /// be determined). Results never depend on the worker count, so this
    /// only decides how fast a run finishes.
    pub fn available() -> Self {
        WorkerPool::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// Number of threads the pool's maps compute on at once.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Evaluates `f(i)` for every `i in 0..n` and returns the results in
    /// index order, regardless of which thread computed which index. Called
    /// from a job of another map, it evaluates serially on that job's
    /// thread.
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
        let job = MapJob {
            n,
            next: AtomicUsize::new(0),
            slots: Mutex::new((0..n).map(|_| None).collect()),
            token,
            f: &f,
            call_start: obs::enabled().then(std::time::Instant::now),
        };
        let workers = self.workers;
        // The caller claims its thread first, so the helpers fill only the
        // workers that no other map of this pool is using.
        let caller = Claim::caller(&self.active);
        std::thread::scope(|s| {
            let job = &job;
            let helpers: Vec<_> = (1..workers.min(n))
                .map_while(|_| Claim::helper(&self.active, workers))
                .map(|mut claim| {
                    s.spawn(move || {
                        let _on = OnWorker::enter();
                        job.drain(|| !claim.release_if_over(workers))
                    })
                })
                .collect();
            let mine = {
                let _on = OnWorker::enter();
                job.drain(|| true)
            };
            drop(caller);
            let mut threads = u64::from(mine > 0);
            for helper in helpers {
                match helper.join() {
                    Ok(items) => threads += u64::from(items > 0),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            THREADS_PER_MAP.record(threads);
        });
        let slots = job
            .slots
            .into_inner()
            .expect("storing a result never panics");
        match slots.into_iter().collect() {
            Some(out) => Ok(out),
            None => {
                // Only a fired token can leave indices unevaluated (a panic
                // would have propagated out of the scope above).
                CANCELLATIONS.inc();
                Err(Cancelled)
            }
        }
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

/// The shared state of one parallel map: every thread computing it pulls
/// indices from `next` and stores each result in its slot.
struct MapJob<'a, R, F> {
    n: usize,
    next: AtomicUsize,
    slots: Mutex<Vec<Option<R>>>,
    token: Option<&'a CancelToken>,
    f: &'a F,
    call_start: Option<std::time::Instant>,
}

impl<R, F: Fn(usize) -> R> MapJob<'_, R, F> {
    /// Computes items until the range is exhausted, the token fires or
    /// `stay` (asked before each item) returns false; returns the number of
    /// items this thread computed.
    fn drain(&self, mut stay: impl FnMut() -> bool) -> u64 {
        let mut mine = 0u64;
        // Cancellation checkpoint: stop pulling new work; items already
        // claimed by other threads finish.
        while stay() && !self.token.is_some_and(CancelToken::is_cancelled) {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                break;
            }
            if let Some(start) = self.call_start {
                QUEUE_WAIT_NS.record(elapsed_ns(start));
            }
            let value = observe_job(|| (self.f)(i));
            self.slots.lock().expect("storing a result never panics")[i] = Some(value);
            mine += 1;
        }
        JOBS_PER_WORKER.record(mine);
        mine
    }
}

/// One computing thread's share of a pool's budget, given back when
/// dropped, unwinding included.
struct Claim<'a> {
    active: &'a AtomicUsize,
    held: bool,
}

impl<'a> Claim<'a> {
    /// The caller's claim, always granted: every map makes progress on its
    /// own caller however busy the pool is.
    fn caller(active: &'a AtomicUsize) -> Self {
        active.fetch_add(1, Ordering::Relaxed);
        Claim { active, held: true }
    }

    /// A helper's claim, granted only while fewer than `workers` threads
    /// compute.
    fn helper(active: &'a AtomicUsize, workers: usize) -> Option<Self> {
        active
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |a| {
                (a < workers).then_some(a + 1)
            })
            .ok()
            .map(|_| Claim { active, held: true })
    }

    /// Gives the claim back if more than `workers` threads compute, so a
    /// later caller takes this thread's core; returns whether it did.
    fn release_if_over(&mut self, workers: usize) -> bool {
        if self.held {
            self.held = self
                .active
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |a| {
                    (a > workers).then(|| a - 1)
                })
                .is_err();
        }
        !self.held
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        if self.held {
            self.active.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Marks the current thread as computing a map's items; dropping it
/// restores the previous mark, unwinding included.
struct OnWorker(bool);

impl OnWorker {
    fn enter() -> Self {
        OnWorker(ON_WORKER.with(|on| on.replace(true)))
    }
}

impl Drop for OnWorker {
    fn drop(&mut self) {
        ON_WORKER.with(|on| on.set(self.0));
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
        // The failed call gave its threads' budget back: the next run is
        // unaffected.
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

    /// Runs a lone 16-item map whose first items wait until two of them
    /// run at once, and returns the threads that computed it.
    fn threads_of_lone_map(pool: &WorkerPool) -> std::collections::HashSet<std::thread::ThreadId> {
        let ids = std::sync::Mutex::new(std::collections::HashSet::new());
        let started = AtomicUsize::new(0);
        pool.map_indexed(16, |_| {
            ids.lock().unwrap().insert(std::thread::current().id());
            started.fetch_add(1, Ordering::SeqCst);
            // Bounded so that a pool running one thread fails the caller's
            // assertion instead of hanging.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while started.load(Ordering::SeqCst) < 2 && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
        });
        ids.into_inner().unwrap()
    }

    #[test]
    fn lone_map_runs_on_the_caller_and_one_helper() {
        let pool = WorkerPool::new(2);
        let ids = threads_of_lone_map(&pool);
        assert_eq!(ids.len(), 2, "a lone map keeps the pool's parallelism");
        assert!(
            ids.contains(&std::thread::current().id()),
            "the caller computes"
        );
        assert_eq!(pool.active.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn caller_fans_out_again_after_a_map() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.map_indexed(8, |i| i + 1), (1..9).collect::<Vec<_>>());
        // The caller marked itself while it computed items and restored the
        // mark afterwards, so its next map is not run inline.
        assert!(!ON_WORKER.with(Cell::get));
        assert_eq!(threads_of_lone_map(&pool).len(), 2);
    }

    #[test]
    fn panic_on_the_caller_releases_its_claim() {
        let pool = WorkerPool::new(2);
        let caller = std::thread::current().id();
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map_indexed(16, |i| {
                if std::thread::current().id() == caller {
                    panic!("caller item failure");
                }
                i
            })
        }));
        let payload = boom.expect_err("the caller's panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"caller item failure"));
        assert_eq!(pool.active.load(Ordering::SeqCst), 0, "claim leaked");
        assert!(!ON_WORKER.with(Cell::get), "mark leaked");
        assert_eq!(threads_of_lone_map(&pool).len(), 2);
    }

    #[test]
    fn token_fired_on_the_caller_cancels_the_map() {
        let pool = WorkerPool::new(2);
        let token = CancelToken::new();
        let caller = std::thread::current().id();
        let ran = AtomicUsize::new(0);
        let out = pool.try_map_indexed(64, &token, |i| {
            ran.fetch_add(1, Ordering::SeqCst);
            if std::thread::current().id() == caller {
                token.cancel();
            }
            // The helper holds its item until then, so it cannot run the
            // whole range before the caller computes an item.
            while !token.is_cancelled() {
                std::thread::yield_now();
            }
            i
        });
        assert_eq!(out, Err(Cancelled));
        // The caller stops after its first item, the helper after the one
        // it held when the token fired.
        assert!(ran.load(Ordering::SeqCst) <= 2);
        assert_eq!(pool.active.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn concurrent_maps_share_the_workers() {
        // Map A fans out to its caller and one helper. Map B's caller then
        // claims a third thread, and all three hold their first item until
        // B computes. Once those three items finish, A's helper must have
        // left, so every later item runs with at most one other.
        let pool = WorkerPool::new(2);
        let open = AtomicBool::new(false);
        let in_flight = AtomicUsize::new(0);
        let first_items = AtomicUsize::new(0);
        let first_done = AtomicUsize::new(0);
        let later_max = AtomicUsize::new(0);
        let later_items = AtomicUsize::new(0);
        let item = |i: usize| {
            if !open.load(Ordering::SeqCst) {
                in_flight.fetch_add(1, Ordering::SeqCst);
                while !open.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                in_flight.fetch_sub(1, Ordering::SeqCst);
                first_done.fetch_add(1, Ordering::SeqCst);
                return i;
            }
            while first_done.load(Ordering::SeqCst) < first_items.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            later_max.fetch_max(now, Ordering::SeqCst);
            later_items.fetch_add(1, Ordering::SeqCst);
            for _ in 0..50 {
                std::thread::yield_now();
            }
            in_flight.fetch_sub(1, Ordering::SeqCst);
            i
        };
        // Bounded waits, and the gate opens before any assertion, so a
        // broken budget fails the test instead of hanging it.
        let reached = |k: usize| {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while in_flight.load(Ordering::SeqCst) < k {
                if std::time::Instant::now() > deadline {
                    return false;
                }
                std::thread::yield_now();
            }
            true
        };
        let (fanned_out, joined, active) = std::thread::scope(|s| {
            let a = s.spawn(|| pool.map_indexed(64, item));
            let fanned_out = reached(2);
            let b = s.spawn(|| pool.map_indexed(64, item));
            let joined = reached(3);
            let active = pool.active.load(Ordering::SeqCst);
            first_items.store(in_flight.load(Ordering::SeqCst), Ordering::SeqCst);
            open.store(true, Ordering::SeqCst);
            for map in [a, b] {
                assert_eq!(map.join().unwrap(), (0..64).collect::<Vec<_>>());
            }
            (fanned_out, joined, active)
        });
        assert!(fanned_out && joined, "the first items never ran at once");
        assert_eq!(first_items.load(Ordering::SeqCst), 3);
        assert_eq!(active, 3, "A's two threads and B's caller");
        assert_eq!(later_items.load(Ordering::SeqCst), 128 - 3);
        let max = later_max.load(Ordering::SeqCst);
        assert!(max <= 2, "{max} items of two maps ran at once on 2 workers");
        assert_eq!(pool.active.load(Ordering::SeqCst), 0);
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
