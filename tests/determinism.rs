//! Worker-count-invariance regression tests for the sharded Monte-Carlo
//! execution engine (`hetarch::exec`).
//!
//! Every sharded entry point must produce **bit-identical** results for any
//! worker count at a fixed seed, and across repeated runs at the same worker
//! count: shard boundaries and per-shard RNG streams are derived from
//! `(total, shard_size, seed)` alone, and reduction happens in shard-index
//! order.

use hetarch::exec::WorkerPool;
use hetarch::modules::uec::chain::ChainUecModule;
use hetarch::prelude::*;
use hetarch::stab::frame::FrameSampler;

fn usc(ts: f64) -> UscChannel {
    UscCell::new(
        catalog::coherence_limited_compute(0.5e-3),
        catalog::coherence_limited_storage(ts),
    )
    .unwrap()
    .characterize()
}

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

#[test]
fn uec_module_rate_is_worker_count_invariant() {
    let module = UecModule::new(steane(), usc(50e-3), UecNoise::default());
    // Non-divisible by the 512-shot shard size: exercises a partial tail.
    let shots = 1_300;
    let baseline = module.logical_error_rate_on(&WorkerPool::new(1), shots, 7);
    for workers in WORKER_COUNTS {
        let pool = WorkerPool::new(workers);
        let a = module.logical_error_rate_on(&pool, shots, 7);
        let b = module.logical_error_rate_on(&pool, shots, 7);
        assert_eq!(
            a.logical_error_rate.to_bits(),
            baseline.logical_error_rate.to_bits(),
            "UecModule rate differs at {workers} workers"
        );
        assert_eq!(
            a.logical_error_rate.to_bits(),
            b.logical_error_rate.to_bits(),
            "UecModule rate differs across runs at {workers} workers"
        );
        assert_eq!(a.shots, shots);
    }
}

#[test]
fn chain_uec_rate_is_worker_count_invariant() {
    let module = ChainUecModule::new(steane(), usc(50e-3), 2, UecNoise::default());
    let shots = 900;
    let baseline = module.logical_error_rate_on(&WorkerPool::new(1), shots, 11);
    for workers in WORKER_COUNTS {
        let pool = WorkerPool::new(workers);
        let a = module.logical_error_rate_on(&pool, shots, 11);
        let b = module.logical_error_rate_on(&pool, shots, 11);
        assert_eq!(
            a.logical_error_rate.to_bits(),
            baseline.logical_error_rate.to_bits(),
            "ChainUecModule rate differs at {workers} workers"
        );
        assert_eq!(
            a.logical_error_rate.to_bits(),
            b.logical_error_rate.to_bits()
        );
    }
}

#[test]
fn frame_sampler_words_are_worker_count_invariant() {
    let mem = SurfaceMemory::new(3, 3, SurfaceNoise::default());
    let circuit = mem.circuit();
    // Two full 4096-shot shards plus a ragged tail.
    let shots = 2 * 4096 + 77;
    let baseline = FrameSampler::sample(&circuit, shots, 13, &WorkerPool::new(1));
    for workers in WORKER_COUNTS {
        let pool = WorkerPool::new(workers);
        let a = FrameSampler::sample(&circuit, shots, 13, &pool);
        let b = FrameSampler::sample(&circuit, shots, 13, &pool);
        assert_eq!(
            a.meas_flips, baseline.meas_flips,
            "frame-sampler words differ at {workers} workers"
        );
        assert_eq!(a.meas_flips, b.meas_flips);
    }
}

#[test]
fn surface_memory_rate_is_worker_count_invariant() {
    let mem = SurfaceMemory::new(3, 3, SurfaceNoise::default());
    let shots = 3_000;
    let (f1, p1) = {
        let pool = WorkerPool::new(1);
        mem.logical_error_rate_on(
            &pool,
            hetarch::stab::codes::SurfaceDecoder::UnionFind,
            shots,
            5,
        )
    };
    for workers in WORKER_COUNTS {
        let pool = WorkerPool::new(workers);
        let (fa, pa) = mem.logical_error_rate_on(
            &pool,
            hetarch::stab::codes::SurfaceDecoder::UnionFind,
            shots,
            5,
        );
        let (fb, pb) = mem.logical_error_rate_on(
            &pool,
            hetarch::stab::codes::SurfaceDecoder::UnionFind,
            shots,
            5,
        );
        assert_eq!(
            pa.to_bits(),
            p1.to_bits(),
            "surface rate differs at {workers} workers"
        );
        assert_eq!(fa.to_bits(), f1.to_bits());
        assert_eq!(pa.to_bits(), pb.to_bits());
        assert_eq!(fa.to_bits(), fb.to_bits());
    }
}

#[test]
fn stratified_rare_report_is_worker_count_invariant() {
    let mem = SurfaceMemory::new(3, 2, SurfaceNoise::default());
    // Force the sampling path on several strata (tiny enumerate threshold)
    // so the invariance claim covers the conditioned per-shard RNG streams,
    // not just the serial enumeration walk.
    let config = RareConfig {
        max_strata: 6,
        rel_tol: 0.5,
        shots_per_stratum: 700, // non-divisible by the shard size: ragged tail
        enumerate_threshold: 8,
        ..RareConfig::default()
    };
    let which = hetarch::stab::codes::SurfaceDecoder::UnionFind;
    let baseline = mem
        .logical_error_rate_rare_on(&WorkerPool::new(1), which, config, 43)
        .into_report();
    for workers in WORKER_COUNTS {
        let pool = WorkerPool::new(workers);
        let a = mem
            .logical_error_rate_rare_on(&pool, which, config, 43)
            .into_report();
        let b = mem
            .logical_error_rate_rare_on(&pool, which, config, 43)
            .into_report();
        // Full per-stratum tallies, not just the headline estimate.
        assert_eq!(
            a, baseline,
            "stratified report differs at {workers} workers"
        );
        assert_eq!(a, b, "stratified report differs across runs");
    }
}

#[test]
fn dse_sweep_is_worker_count_invariant() {
    let space = DesignSpace::new(vec![
        Axis::new("ts", vec![1e-3, 5e-3, 25e-3]),
        Axis::new("seed", vec![1.0, 2.0]),
    ]);
    let eval = |p: &hetarch::dse::Point| {
        let m = UecModule::new(steane(), usc(p.get("ts")), UecNoise::default());
        m.logical_error_rate_on(&WorkerPool::new(1), 200, p.get("seed") as u64)
            .logical_error_rate
    };
    let serial = hetarch::dse::sweep_on(&WorkerPool::new(1), space.points(), eval);
    for workers in [2, 8] {
        let parallel = hetarch::dse::sweep_on(&WorkerPool::new(workers), space.points(), eval);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.0, p.0, "point order differs at {workers} workers");
            assert_eq!(
                s.1.to_bits(),
                p.1.to_bits(),
                "sweep value differs at {workers} workers"
            );
        }
    }
}

#[test]
fn nested_surface_exploration_is_worker_count_invariant() {
    use hetarch::stab::codes::SurfaceDecoder;
    // The sweep and each point's rare-event estimate share one caller-given
    // pool, so every worker count runs the inner estimator nested inside
    // the outer sweep.
    let rare = RareConfig {
        max_strata: 6,
        rel_tol: 0.5,
        shots_per_stratum: 700,
        enumerate_threshold: 8,
        ..RareConfig::default()
    };
    let space = DesignSpace::new(vec![
        Axis::new("alpha", vec![1.0, 2.0]),
        Axis::new("data", vec![0.0, 1.0]),
    ]);
    let explore = |pool: &WorkerPool| {
        sweep_on(pool, space.points(), |p| {
            let scaled = 0.1e-3 * p.get("alpha");
            let noise = if p.get("data") > 0.5 {
                SurfaceNoise {
                    t_data: scaled,
                    ..SurfaceNoise::default()
                }
            } else {
                SurfaceNoise {
                    t_anc: scaled,
                    ..SurfaceNoise::default()
                }
            };
            let memory = SurfaceMemory::new(3, 3, noise);
            let outcome =
                memory.logical_error_rate_rare_on(pool, SurfaceDecoder::UnionFind, rare, 47);
            let report = outcome.report();
            (
                report.per_round(memory.rounds),
                report.sigma,
                report.truncation_bound,
                outcome.is_converged(),
            )
        })
    };
    let baseline = explore(&WorkerPool::new(1));
    assert_eq!(baseline.len(), 4);
    for workers in WORKER_COUNTS {
        assert_eq!(
            explore(&WorkerPool::new(workers)),
            baseline,
            "rare exploration differs at {workers} workers"
        );
    }
}
