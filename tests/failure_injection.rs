//! Failure injection: drive every subsystem into pathological regimes —
//! saturated noise, degenerate capacities, empty structures — and verify
//! graceful, physical behaviour rather than panics or silent nonsense.

use hetarch::modules::faults::{estimate, Estimator, FaultDriver, RunCtx, ShotMetrics, ShotModel};
use hetarch::prelude::*;

#[test]
fn distillation_survives_maximal_noise_sources() {
    // Raw pairs at the worst allowed infidelity band and a crushing rate.
    let mut cfg = DistillConfig::heterogeneous(0.5e-3, 50e6, 1);
    cfg.source = EpSource::new(50e6, 0.74, 0.75);
    let report = DistillModule::new(cfg).run(0.2e-3);
    // Nothing distillable from F ~ 0.25 pairs; the module must not deliver.
    assert_eq!(report.delivered, 0);
    assert!(report.arrivals > 1000, "arrivals {}", report.arrivals);
    // The scheduler should refuse hopeless rounds (improvement gate).
    assert_eq!(report.rounds_attempted, 0);
}

#[test]
fn distillation_with_capacity_one_memories() {
    let mut cfg = DistillConfig::heterogeneous(12.5e-3, 2e6, 2);
    cfg.input_capacity = 1; // can never hold two pairs: no rounds possible
    cfg.output_capacity = 1;
    let report = DistillModule::new(cfg).run(0.5e-3);
    assert_eq!(report.rounds_attempted, 0);
    assert_eq!(report.delivered, 0);
}

#[test]
fn uec_under_fifty_percent_measurement_flips() {
    let usc = UscCell::new(
        catalog::coherence_limited_compute(0.5e-3),
        catalog::coherence_limited_storage(50e-3),
    )
    .unwrap()
    .characterize();
    let noise = UecNoise {
        p2q: 0.0,
        p_swap: 0.0,
        meas_flip: 0.5, // syndromes carry zero information
    };
    let m = UecModule::new(steane(), usc, noise);
    let r = m.logical_error_rate_on(&WorkerPool::new(4), 4_000, 3);
    // Decoding from random syndromes applies random low-weight corrections;
    // the perfect round cleans up, so errors stay bounded well below chance.
    assert!(r.logical_error_rate < 0.5, "rate {}", r.logical_error_rate);
}

#[test]
fn uec_at_maximal_gate_noise_saturates_sanely() {
    let usc = UscCell::new(
        catalog::coherence_limited_compute(0.5e-3),
        catalog::coherence_limited_storage(50e-3),
    )
    .unwrap()
    .characterize();
    let noise = UecNoise {
        p2q: 1.0,
        p_swap: 1.0,
        meas_flip: 0.5,
    };
    let r =
        UecModule::new(steane(), usc, noise).logical_error_rate_on(&WorkerPool::new(4), 2_000, 5);
    assert!(r.logical_error_rate <= 1.0);
    assert!(
        r.logical_error_rate > 0.3,
        "total noise should overwhelm a d=3 code: {}",
        r.logical_error_rate
    );
}

#[test]
fn surface_memory_at_noise_saturation() {
    let noise = SurfaceNoise {
        p2: 0.25,
        p_meas: 0.25,
        ..SurfaceNoise::default()
    };
    let mem = SurfaceMemory::new(3, 3, noise);
    let (per_shot, per_round) = mem.logical_error_rate_on(
        &WorkerPool::new(4),
        hetarch::stab::codes::SurfaceDecoder::UnionFind,
        2_000,
        7,
    );
    // Fully randomized logical bit: per-shot rate near 50%.
    assert!(per_shot > 0.3 && per_shot <= 0.65, "per_shot {per_shot}");
    assert!(per_round <= per_shot);
}

#[test]
fn union_find_handles_degenerate_graphs() {
    // All-boundary graph: every defect matches straight out.
    let mut g = MatchingGraph::new(4);
    for v in 0..4u32 {
        g.add_edge(v, None, 0.1, u64::from(v == 0));
    }
    let dec = UnionFindDecoder::new(&g);
    assert_eq!(dec.decode(&[true, true, true, true]), 1);
    assert_eq!(dec.decode(&[false, true, true, false]), 0);

    // Graph with an isolated (edgeless) detector: an empty syndrome decodes;
    // a defect there has no edges to grow and peels to nothing.
    let mut g = MatchingGraph::new(2);
    g.add_edge(0, None, 0.1, 0);
    let dec = UnionFindDecoder::new(&g);
    assert_eq!(dec.decode(&[false, false]), 0);
}

#[test]
fn lookup_decoder_with_zero_weight_budget() {
    let code = color_17();
    let dec = LookupDecoder::new(&code, 0);
    assert_eq!(dec.coverage(), 1);
    // Every syndrome falls back to identity; the caller's perfect-round
    // machinery is responsible for the rest.
    let e = PauliString::from_sparse(17, &[(3, Pauli::Y)]);
    assert!(dec.decode(&code.syndrome_of(&e)).is_identity());
}

#[test]
fn ep_source_degenerate_rates() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(9);
    // An absurdly slow source still produces positive inter-arrival times.
    let slow = EpSource::new(1e-3, 0.05, 0.06);
    let dt = slow.next_interarrival(&mut rng);
    assert!(dt > 0.0 && dt.is_finite());
    // An absurdly fast source produces tiny but positive times.
    let fast = EpSource::new(1e12, 0.05, 0.06);
    let dt = fast.next_interarrival(&mut rng);
    assert!(dt > 0.0 && dt < 1e-9);
}

#[test]
fn ct_module_reports_starved_links() {
    // A nearly-dead EP source cannot feed distillation: the CT module must
    // flag starvation instead of silently reporting a good state.
    let mut cfg = CtConfig::homogeneous(rotated_surface_code(3), rotated_surface_code(4));
    cfg.ep_rate_hz = 2e4; // 20 kHz: hopeless for the homogeneous memory
    cfg.shots = 1_000;
    let starved = CtModule::new(cfg.clone()).evaluate(&WorkerPool::new(4));
    assert!(starved.ep_starved, "20 kHz homogeneous link should starve");
    assert!(starved.ep_fidelity < cfg.ep_target);

    let mut healthy_cfg = cfg;
    healthy_cfg.ep_rate_hz = 1e6;
    let healthy = CtModule::new(healthy_cfg).evaluate(&WorkerPool::new(4));
    assert!(!healthy.ep_starved);
    assert!(
        starved.logical_error_probability > healthy.logical_error_probability,
        "starved {} should exceed healthy {}",
        starved.logical_error_probability,
        healthy.logical_error_probability
    );
}

#[test]
fn sharded_engine_zero_shot_requests() {
    use hetarch::exec::WorkerPool;
    let pool = WorkerPool::new(4);

    // Zero Monte-Carlo shots: a defined (zero-rate) answer, not a panic.
    let usc = UscCell::new(
        catalog::coherence_limited_compute(0.5e-3),
        catalog::coherence_limited_storage(50e-3),
    )
    .unwrap()
    .characterize();
    let r = UecModule::new(steane(), usc, UecNoise::default()).logical_error_rate_on(&pool, 0, 1);
    assert_eq!(r.shots, 0);
    assert_eq!(r.logical_error_rate, 0.0);

    // Zero frame-sampler shots: an empty but well-formed bit table.
    let mut c = Circuit::new(1);
    c.depolarize1(0.1, &[0]);
    c.measure(&[0], 0.0);
    let out = hetarch::stab::frame::FrameSampler::sample(&c, 0, 1, &pool);
    assert_eq!(out.meas_flips.count_ones(0), 0);

    // Zero surface-memory shots.
    let mem = SurfaceMemory::new(3, 2, SurfaceNoise::default());
    let (f, p) =
        mem.logical_error_rate_on(&pool, hetarch::stab::codes::SurfaceDecoder::UnionFind, 0, 1);
    assert_eq!(f, 0.0);
    assert_eq!(p, 0.0);
}

#[test]
fn sharded_engine_non_divisible_and_tiny_workloads() {
    use hetarch::exec::WorkerPool;
    let usc = UscCell::new(
        catalog::coherence_limited_compute(0.5e-3),
        catalog::coherence_limited_storage(50e-3),
    )
    .unwrap()
    .characterize();
    let m = UecModule::new(steane(), usc, UecNoise::default());
    let pool = WorkerPool::new(8);
    // A single shot falls into the single-shard path on every pool size.
    let single = m.logical_error_rate_on(&pool, 1, 2);
    assert_eq!(single.shots, 1);
    assert!(single.logical_error_rate == 0.0 || single.logical_error_rate == 1.0);
    assert_eq!(
        single.logical_error_rate.to_bits(),
        m.logical_error_rate_on(&WorkerPool::new(1), 1, 2)
            .logical_error_rate
            .to_bits()
    );
    // A shot count straddling shard boundaries (512-shot shards) agrees
    // between pool sizes even when the tail shard is almost empty.
    let ragged = m.logical_error_rate_on(&pool, 513, 2);
    assert_eq!(
        ragged.logical_error_rate.to_bits(),
        m.logical_error_rate_on(&WorkerPool::new(3), 513, 2)
            .logical_error_rate
            .to_bits()
    );
}

#[test]
fn panicking_shard_does_not_poison_the_pool() {
    use hetarch::exec::WorkerPool;
    let pool = WorkerPool::new(4);
    let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.run_shards(10_000, 256, 0, |shard| {
            if shard.index == 7 {
                panic!("injected shard failure");
            }
            shard.len
        })
    }));
    assert!(
        boom.is_err(),
        "the shard panic must propagate to the caller"
    );
    // The panic gave the pool's thread budget back: the same pool value
    // keeps working afterwards.
    let total: usize = pool
        .run_shards(10_000, 256, 0, |shard| shard.len)
        .iter()
        .sum();
    assert_eq!(total, 10_000);
}

#[test]
fn rare_estimator_with_zero_strata_is_explicitly_unconverged() {
    // max_strata = 0 evaluates nothing: the only honest answer is an
    // Unconverged lower bound of 0 with the full probability mass charged
    // to the truncation bound — never a silently wrong converged number.
    let mem = SurfaceMemory::new(3, 2, SurfaceNoise::default());
    let config = RareConfig {
        max_strata: 0,
        ..RareConfig::default()
    };
    let outcome = mem.logical_error_rate_rare_on(
        &WorkerPool::new(4),
        hetarch::stab::codes::SurfaceDecoder::UnionFind,
        config,
        3,
    );
    assert!(!outcome.is_converged());
    let report = outcome.into_report();
    assert_eq!(report.p_l, 0.0);
    assert_eq!(report.truncation_bound, 1.0);
    assert!(report.strata.is_empty());
    assert_eq!(report.total_shots, 0);
}

#[test]
fn rare_prior_handles_weights_beyond_the_site_count() {
    use hetarch::exec::rare::WeightPrior;
    let prior = WeightPrior::binomial(4, 0.2);
    assert_eq!(prior.num_sites(), 4);
    assert_eq!(prior.pmf(5), 0.0);
    assert_eq!(prior.pmf(100), 0.0);
    assert_eq!(prior.tail_above(4), 0.0);
    assert_eq!(prior.tail_above(100), 0.0);

    // Asking the estimator for far more strata than sites must converge
    // after the real ones and never fabricate weight > n entries.
    use hetarch::exec::rare::{StratifiedEstimator, StratumEval};
    let outcome =
        StratifiedEstimator::new(&prior, RareConfig::default()).run(|_w| StratumEval::Enumerated {
            failure_probability: 0.0,
            configs: 1,
        });
    assert!(outcome.is_converged());
    let report = outcome.into_report();
    assert!(report.strata.iter().all(|s| s.weight <= 4));
}

/// `n` classical flip sites of probability `p` each; a shot fails iff an
/// odd number fire.
struct FlipParity {
    p: f64,
    n: usize,
}

static PARITY_METRICS: ShotMetrics = ShotMetrics::new(
    "test.parity.shots",
    "test.parity.failures",
    "test.parity.run_ns",
);

impl ShotModel for FlipParity {
    fn metrics(&self) -> &'static ShotMetrics {
        &PARITY_METRICS
    }

    fn run_shot<D: FaultDriver>(&self, driver: &mut D) -> bool {
        (0..self.n).fold(false, |parity, _| parity ^ driver.flip_site(self.p))
    }
}

fn rare_outcome(
    model: &impl ShotModel,
    pool: &WorkerPool,
    config: RareConfig,
    seed: u64,
) -> RareOutcome {
    let ctx = RunCtx {
        pool,
        seed,
        cancel: None,
    };
    estimate(model, Estimator::Rare(config), &ctx)
        .unwrap()
        .into_rare()
        .expect("rare outcome")
}

#[test]
fn rare_estimator_with_degenerate_site_probabilities() {
    let pool = WorkerPool::new(2);

    // p = 0 everywhere: all mass in the w = 0 stratum, exact zero rate.
    let zeros = FlipParity { p: 0.0, n: 3 };
    let outcome = rare_outcome(&zeros, &pool, RareConfig::default(), 1);
    assert!(outcome.is_converged());
    let report = outcome.into_report();
    assert_eq!(report.p_l, 0.0);
    assert_eq!(report.truncation_bound, 0.0);

    // p = 1 everywhere: the prior is a point mass at w = n; the lower
    // strata are infeasible and must be skipped, not sampled into a panic.
    let ones = FlipParity { p: 1.0, n: 3 };
    let outcome = rare_outcome(&ones, &pool, RareConfig::default(), 1);
    assert!(outcome.is_converged());
    let report = outcome.into_report();
    // Three certain flips: odd parity, deterministic failure.
    assert_eq!(report.p_l, 1.0);
    assert_eq!(report.sigma, 0.0);
}

#[test]
fn rare_estimator_reports_unconverged_when_tolerance_is_unreachable() {
    // Two strata cannot push the tail of a high-noise d=3 memory below an
    // absurdly tight tolerance: the estimator must say so explicitly and
    // still report an honest (lower-bound) estimate and tail.
    let mem = SurfaceMemory::new(3, 2, SurfaceNoise::default());
    let config = RareConfig {
        max_strata: 2,
        rel_tol: 1e-9,
        abs_tol: 1e-30,
        shots_per_stratum: 256,
        ..RareConfig::default()
    };
    let outcome = mem.logical_error_rate_rare_on(
        &WorkerPool::new(4),
        hetarch::stab::codes::SurfaceDecoder::UnionFind,
        config,
        5,
    );
    assert!(
        !outcome.is_converged(),
        "2 strata cannot reach rel_tol 1e-9"
    );
    let report = outcome.into_report();
    assert!(report.truncation_bound > 0.0);
    assert!(report.p_l >= 0.0 && report.p_l <= 1.0);
    assert_eq!(report.strata.len(), 2);
}

/// Two flip sites; a shot that replays any forced flip panics.
struct Detonator;

impl ShotModel for Detonator {
    fn metrics(&self) -> &'static ShotMetrics {
        &PARITY_METRICS
    }

    fn run_shot<D: FaultDriver>(&self, driver: &mut D) -> bool {
        // The w = 0 stratum replays no faults; any forced flip (w ≥ 1)
        // detonates inside a pool worker.
        if driver.flip_site(0.01) | driver.flip_site(0.02) {
            panic!("injected stratum failure");
        }
        false
    }
}

#[test]
fn panicking_shard_inside_a_stratum_does_not_poison_the_pool() {
    let pool = WorkerPool::new(4);
    let config = RareConfig {
        enumerate_threshold: 0, // force every stratum through the pool
        ..RareConfig::default()
    };
    let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rare_outcome(&Detonator, &pool, config, 9)
    }));
    assert!(boom.is_err(), "the stratum panic must reach the caller");
    // The panic gave the pool's thread budget back: the same pool keeps
    // working afterwards.
    let total: usize = pool
        .run_shards(10_000, 256, 0, |shard| shard.len)
        .iter()
        .sum();
    assert_eq!(total, 10_000);
}

#[test]
fn density_matrix_rejects_unphysical_inputs() {
    use hetarch::qsim::error::QsimError;
    assert!(matches!(
        IdleParams::new(100e-6, 300e-6),
        Err(QsimError::InvalidParameter(_))
    ));
    assert!(Kraus1::depolarizing(1.0001).is_err());
    assert!(Kraus2::depolarizing(-0.1).is_err());
    assert!(DensityMatrix::from_pure(&[]).is_err());
}

#[test]
fn design_rules_catch_every_violation_class() {
    let compute = catalog::fixed_frequency_qubit();
    let storage = catalog::multimode_resonator_3d();

    // DR1: five-way compute fanout.
    let mut g = DeviceGraph::new();
    let hub = g.add_device("hub", compute.clone(), false);
    for i in 0..5 {
        let c = g.add_device(format!("c{i}"), compute.clone(), false);
        g.connect(hub, c);
    }
    assert!(validate(&g, 0).is_err());

    // DR2+DR3: storage fanout.
    let mut g = DeviceGraph::new();
    let s = g.add_device("s", storage.clone(), false);
    let c1 = g.add_device("c1", compute.clone(), false);
    let c2 = g.add_device("c2", compute.clone(), false);
    g.connect(s, c1);
    g.connect(s, c2);
    assert!(validate(&g, 0).is_err());

    // DR4: readout bloat.
    let mut g = DeviceGraph::new();
    let a = g.add_device("a", compute.clone(), true);
    let b = g.add_device("b", compute, true);
    g.connect(a, b);
    assert!(validate(&g, 1).is_err());
    assert!(validate(&g, 2).is_ok());
}
