//! Integration checks for the observability layer.
//!
//! Compiled only with the `obs` feature (the file is empty otherwise), and
//! run in CI alongside the determinism and golden suites with
//! `HETARCH_OBS=1` to prove that instrumentation never perturbs results.

#![cfg(feature = "obs")]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use hetarch::obs;
use hetarch::prelude::*;
use hetarch::stab::codes::SurfaceDecoder;

/// Serializes tests: the obs registry and runtime gate are process-global.
fn serialized() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

const UEC_SHOTS: usize = 1500;

fn uec_workload(pool: &WorkerPool) -> UecResult {
    let usc = UscCell::new(
        catalog::coherence_limited_compute(0.5e-3),
        catalog::coherence_limited_storage(10e-3),
    )
    .expect("valid USC")
    .characterize();
    UecModule::new(steane(), usc, UecNoise::default()).logical_error_rate_on(pool, UEC_SHOTS, 17)
}

fn surface_workload(pool: &WorkerPool) -> (f64, f64) {
    SurfaceMemory::new(3, 3, SurfaceNoise::default()).logical_error_rate_on(
        pool,
        SurfaceDecoder::UnionFind,
        2000,
        23,
    )
}

fn distill_workload(pool: &WorkerPool) -> Vec<usize> {
    let module = DistillModule::new(DistillConfig::heterogeneous(2.5e-3, 1e6, 7));
    module
        .run_batch_on(pool, 500e-6, 4)
        .into_iter()
        .map(|r| r.delivered)
        .collect()
}

/// The golden (counters-only) report is byte-identical for every worker
/// count: counters track simulation events, never scheduling artifacts.
#[test]
fn golden_report_is_worker_count_invariant() {
    let _guard = serialized();
    obs::force_enabled(true);
    struct Baseline {
        golden: String,
        uec: UecResult,
        surface: (f64, f64),
        distill: Vec<usize>,
    }
    let mut baseline: Option<Baseline> = None;
    for workers in [1, 2, 8] {
        obs::reset();
        let pool = WorkerPool::new(workers);
        let uec = uec_workload(&pool);
        let surface = surface_workload(&pool);
        let distill = distill_workload(&pool);
        let golden = obs::report().golden_json();
        match &baseline {
            None => {
                baseline = Some(Baseline {
                    golden,
                    uec,
                    surface,
                    distill,
                })
            }
            Some(b) => {
                assert_eq!(
                    golden, b.golden,
                    "golden report differs at {workers} workers"
                );
                assert_eq!(uec, b.uec, "UEC result differs at {workers} workers");
                assert_eq!(
                    surface, b.surface,
                    "surface result differs at {workers} workers"
                );
                assert_eq!(
                    distill, b.distill,
                    "distill result differs at {workers} workers"
                );
            }
        }
    }
}

/// Counters account for exactly the work submitted.
#[test]
fn counters_track_submitted_work() {
    let _guard = serialized();
    obs::force_enabled(true);
    obs::reset();
    let pool = WorkerPool::new(2);
    let result = uec_workload(&pool);
    let report = obs::report();
    assert_eq!(report.counters["modules.uec.shots"], UEC_SHOTS as u64);
    assert_eq!(
        report.counters["modules.uec.failures"],
        (result.logical_error_rate * UEC_SHOTS as f64).round() as u64
    );
    let shards = UEC_SHOTS.div_ceil(512) as u64;
    assert_eq!(report.counters["exec.shards_executed"], shards);
    // Full JSON is well-formed enough to embed: keys appear in sorted order.
    let json = report.to_json();
    assert!(json.starts_with("{\"counters\":{"));
    assert!(json.contains("\"modules.uec.shots\":1500"));
}

/// The engine's thread histograms count the caller: a lone map on two
/// workers is computed by the caller and one helper, and every item lands
/// in some thread's `exec.jobs_per_worker` sample.
#[test]
fn thread_histograms_count_the_participating_caller() {
    let _guard = serialized();
    obs::force_enabled(true);
    obs::reset();
    let started = AtomicUsize::new(0);
    WorkerPool::new(2).map_indexed(16, |_| {
        // The first items wait until both threads hold one, so both
        // threads compute at least one item.
        started.fetch_add(1, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(10);
        while started.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
            std::thread::yield_now();
        }
    });
    let report = obs::report();
    let threads = &report.histograms["exec.threads_per_map"];
    assert_eq!((threads.count, threads.sum), (1, 2));
    let jobs = &report.histograms["exec.jobs_per_worker"];
    assert_eq!((jobs.count, jobs.sum), (2, 16));
}

/// With the runtime gate off nothing is recorded, and results are
/// bit-identical to an instrumented run.
#[test]
fn runtime_gate_off_records_nothing_and_results_match() {
    let _guard = serialized();
    obs::force_enabled(true);
    obs::reset();
    let zeroed = obs::report().golden_json();
    obs::force_enabled(false);
    let pool = WorkerPool::new(4);
    let off = uec_workload(&pool);
    obs::force_enabled(true);
    assert_eq!(
        obs::report().golden_json(),
        zeroed,
        "disabled run must not advance any counter"
    );
    let on = uec_workload(&pool);
    assert_eq!(off, on, "instrumentation must not perturb results");
}

/// One small run through every instrumented layer — cold cell
/// characterization, cached cell lookups, a surface memory, a rare-event
/// estimate and a UEC module — leaves a report that explains itself: the
/// kernel caches compile far fewer times than they apply, the union-find
/// decoder does real growth and peeling work without leaking parity, the
/// stratified estimator reports its strata and error budget, and the
/// sharded engine and cell cache record their traffic.
#[test]
fn report_run_covers_every_layer() {
    let _guard = serialized();
    obs::force_enabled(true);
    obs::reset();
    let pool = WorkerPool::new(2);

    let compute = catalog::coherence_limited_compute(0.5e-3);
    let storage = catalog::coherence_limited_storage(50e-3);
    RegisterCell::new(compute.clone(), storage.clone())
        .unwrap()
        .characterize();
    ParCheckCell::new(compute.clone(), compute.clone())
        .unwrap()
        .characterize();
    SeqOpCell::new(compute.clone(), storage.clone())
        .unwrap()
        .characterize();
    let lib = CellLibrary::new();
    for _ in 0..4 {
        lib.get::<RegisterCell>(&compute, &storage);
    }

    surface_workload(&pool);
    let quiet = SurfaceNoise {
        t_data: 10.0,
        t_anc: 10.0,
        p1: 2e-5,
        p2: 2e-4,
        p_meas: 1e-4,
        ..SurfaceNoise::default()
    };
    let config = RareConfig {
        max_strata: 4,
        shots_per_stratum: 256,
        ..RareConfig::default()
    };
    let rare = SurfaceMemory::new(3, 2, quiet)
        .logical_error_rate_rare_on(&pool, SurfaceDecoder::UnionFind, config, 31)
        .into_report();
    uec_workload(&pool);

    let report = obs::report();
    let counter = |name: &str| report.counters.get(name).copied().unwrap_or(0);

    let (compiles, applies) = (
        counter("qsim.kernel.compiles"),
        counter("qsim.kernel.applies"),
    );
    assert!(applies > 0, "the superoperator kernel path must run");
    assert!(
        0 < compiles && compiles < applies,
        "kernel caches must keep compiles ({compiles}) below applies ({applies})"
    );

    for name in [
        "decodes",
        "empty_fast_path",
        "growth_passes",
        "unions",
        "peel_discharges",
    ] {
        assert!(
            counter(&format!("stab.decoder.{name}")) > 0,
            "stab.decoder.{name} is zero"
        );
    }
    assert_eq!(counter("stab.decoder.peel_leaks"), 0);
    assert!(report.histograms.contains_key("stab.decode_ns"));

    assert!(counter("exec.rare.strata") > 0);
    assert!(counter("exec.rare.shots") > 0);
    assert!(rare.truncation_bound >= 0.0);

    assert!(counter("exec.shards_executed") > 0);
    assert_eq!(counter("modules.uec.shots"), UEC_SHOTS as u64);
    assert!(
        counter("cells.register.hits") > 0,
        "repeated register lookups must hit the cell cache"
    );
}
