//! Differential validation of the weight-stratified rare-event estimator
//! (`hetarch::exec::rare`) against two oracles:
//!
//! 1. **The plain frequency estimator at high physical noise**, where both
//!    estimators resolve the same logical error rate and must agree under
//!    the [`CrossValidation`] contract (z-test with Hoeffding fallback,
//!    truncation allowance subtracted first).
//! 2. **Exact analytic probabilities** on a toy model small enough that
//!    every stratum is enumerated: the stratified estimate must match the
//!    closed form to 1e-12 with zero statistical variance.
//!
//! Plus the acceptance point the estimator exists for: a deep-subthreshold
//! d=7 surface memory where the plain estimator returns 0 failures at the
//! same shot budget, while the stratified report resolves the rate with an
//! explicit `(sigma, truncation_bound)` error budget — bit-identically
//! across worker counts.

use hetarch::exec::rare::{enumerate_configs, RareOutcome, StratifiedEstimator, StratumEval};
use hetarch::exec::{shard_seed, WorkerPool};
use hetarch::modules::faults::{
    estimate, Estimate, Estimator, FaultDriver, RecordFaults, RunCtx, ShotMetrics, ShotModel,
};
use hetarch::modules::uec::ChainUecModule;
use hetarch::prelude::*;
use hetarch::stab::codes::SurfaceDecoder;
use hetarch::stab::detector::assemble_detectors;
use hetarch::stab::frame::{enumerate_at_weight, sample_at_weight, FaultModel};
use hetarch::testkit::prelude::*;
use proptest::prelude::*;

/// Plain-estimator observation as a [`BinomialTest`], recovering the
/// failure count from the reported rate.
fn plain_observation(memory: &SurfaceMemory, shots: usize, seed: u64) -> BinomialTest {
    let (per_shot, _per_round) =
        memory.logical_error_rate_on(&WorkerPool::new(4), SurfaceDecoder::UnionFind, shots, seed);
    let failures = (per_shot * shots as f64).round() as u64;
    BinomialTest::new(failures, shots as u64)
}

fn cross_validate(memory: &SurfaceMemory, config: RareConfig, shots: usize, seed: u64) {
    let plain = plain_observation(memory, shots, seed);
    let report = memory
        .logical_error_rate_rare_on(
            &WorkerPool::new(4),
            SurfaceDecoder::UnionFind,
            config,
            seed.wrapping_add(1),
        )
        .into_report();
    CrossValidation::new(plain, report.p_l, report.sigma, report.truncation_bound).assert_agrees(
        5.0,
        &format!(
            "d={} rounds={} stratified vs plain (seed {seed})",
            memory.d, memory.rounds
        ),
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4 })]

    /// At high physical noise the plain estimator is a trustworthy oracle:
    /// the stratified estimate must agree within the combined statistical
    /// error plus its own truncation allowance, for random noise scales and
    /// seeds on a d=3 memory.
    #[test]
    fn stratified_tracks_plain_on_d3_at_high_noise(
        scale in 1.0f64..3.0,
        seed in 0u64..1_000,
    ) {
        let noise = SurfaceNoise {
            p1: 1e-4 * scale,
            p2: 2e-3 * scale,
            p_meas: 1e-3 * scale,
            ..SurfaceNoise::default()
        };
        let memory = SurfaceMemory::new(3, 2, noise);
        let config = RareConfig {
            max_strata: 40,
            rel_tol: 0.05,
            shots_per_stratum: 2_000,
            ..RareConfig::default()
        };
        cross_validate(&memory, config, 6_000, seed);
    }
}

/// The same cross-validation on a d=5 memory (one pinned case — the d=5
/// circuit is too large for a proptest sweep at debug-build speed).
#[test]
fn stratified_tracks_plain_on_d5_at_high_noise() {
    let memory = SurfaceMemory::new(5, 2, SurfaceNoise::default());
    let config = RareConfig {
        max_strata: 48,
        rel_tol: 0.05,
        shots_per_stratum: 2_000,
        ..RareConfig::default()
    };
    cross_validate(&memory, config, 6_000, 271);
}

/// `n` independent classical flip sites; a shot fails iff an odd number
/// trigger.
struct FlipParity(&'static [f64]);

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
        self.0
            .iter()
            .fold(false, |parity, &p| parity ^ driver.flip_site(p))
    }
}

fn run(model: &impl ShotModel, estimator: Estimator, pool: &WorkerPool, seed: u64) -> Estimate {
    let ctx = RunCtx {
        pool,
        seed,
        cancel: None,
    };
    estimate(model, estimator, &ctx).expect("no token, no cancellation")
}

/// Exact-enumeration oracle: [`FlipParity`] has the closed form
/// `p_L = (1 − Π_i (1 − 2 p_i)) / 2`; with every stratum enumerable the
/// stratified estimate must reproduce it to 1e-12 with zero variance.
#[test]
fn enumerated_strata_match_analytic_parity_probability() {
    static PROBS: [f64; 5] = [0.013, 0.007, 0.021, 0.004, 0.016];
    let expected = (1.0 - PROBS.iter().map(|&p| 1.0 - 2.0 * p).product::<f64>()) / 2.0;

    let config = RareConfig {
        max_strata: PROBS.len() + 1,
        rel_tol: 0.0,
        abs_tol: 0.0,
        ..RareConfig::default()
    };
    let outcome = run(
        &FlipParity(&PROBS),
        Estimator::Rare(config),
        &WorkerPool::new(2),
        5,
    )
    .into_rare()
    .expect("rare outcome");
    assert!(outcome.is_converged(), "all strata enumerable: {outcome:?}");
    let report = outcome.into_report();
    assert!(
        (report.p_l - expected).abs() < 1e-12,
        "stratified {} vs analytic {expected}",
        report.p_l
    );
    assert_eq!(report.sigma, 0.0, "enumerated strata carry no variance");
    assert_eq!(report.total_shots, 0);
    assert!(report.strata.iter().all(|s| s.enumerated));
    assert!(report.truncation_bound.abs() < 1e-15);
}

/// The chained UEC module gets the rare-event estimator through the same
/// shot model as its plain rate: at the default (high) noise both must
/// agree under [`CrossValidation`].
#[test]
fn chain_rare_estimate_tracks_plain_estimate() {
    let usc = UscCell::new(
        catalog::coherence_limited_compute(0.5e-3),
        catalog::coherence_limited_storage(1e-3),
    )
    .unwrap()
    .characterize();
    let chain = ChainUecModule::new(steane(), usc, 2, UecNoise::default());
    let pool = &WorkerPool::new(4);
    let Estimate::Plain { failures, shots } =
        run(&chain, Estimator::Plain { shots: 20_000 }, pool, 17)
    else {
        unreachable!("the plain estimator yields a plain count")
    };
    let config = RareConfig {
        max_strata: 24,
        rel_tol: 0.02,
        shots_per_stratum: 4_000,
        ..RareConfig::default()
    };
    let report = run(&chain, Estimator::Rare(config), pool, 19)
        .into_rare()
        .expect("rare outcome")
        .into_report();
    assert!(report.p_l > 0.0, "default noise must fail sometimes");
    CrossValidation::new(
        BinomialTest::new(failures as u64, shots as u64),
        report.p_l,
        report.sigma,
        report.truncation_bound,
    )
    .assert_agrees(5.0, "chain Steane n_ext=2 stratified vs plain");
}

/// The deep-subthreshold acceptance point: a d=7 memory at noise figures
/// where the plain estimator observes zero failures at the stratified
/// estimator's entire shot budget, yet the stratified report resolves a
/// positive rate at or below 1e-8 with an explicit error budget — and the
/// whole report is bit-identical for 1, 2 and 8 workers.
#[test]
fn deep_subthreshold_d7_point_is_resolved_and_worker_invariant() {
    let noise = SurfaceNoise {
        t_data: 100.0,
        t_anc: 100.0,
        p1: 1e-5,
        p2: 1e-4,
        p_meas: 5e-5,
        ..SurfaceNoise::default()
    };
    let memory = SurfaceMemory::new(7, 2, noise);
    let config = RareConfig {
        max_strata: 8,
        rel_tol: 0.5,
        abs_tol: 5e-9,
        shots_per_stratum: 1_024,
        ..RareConfig::default()
    };
    let seed = 97;

    let outcome = memory.logical_error_rate_rare_on(
        &WorkerPool::new(1),
        SurfaceDecoder::UnionFind,
        config,
        seed,
    );
    assert!(outcome.is_converged(), "tail bound must reach 5e-9");
    let baseline = outcome.into_report();
    for workers in [2, 8] {
        let report = memory
            .logical_error_rate_rare_on(
                &WorkerPool::new(workers),
                SurfaceDecoder::UnionFind,
                config,
                seed,
            )
            .into_report();
        assert_eq!(
            report, baseline,
            "stratified report differs at {workers} workers"
        );
    }

    // The full certified rate — point estimate plus rigorous truncation
    // bound — sits at or below 1e-8, with the statistical uncertainty
    // reported alongside. The plain estimator cannot certify anything
    // tighter than ~1/shots ≈ 1e-4 here.
    assert!(
        baseline.p_l + baseline.truncation_bound <= 1e-8,
        "certified rate {:.3e} + {:.3e} should be ≤ 1e-8",
        baseline.p_l,
        baseline.truncation_bound
    );
    assert!(baseline.sigma.is_finite() && baseline.sigma >= 0.0);
    assert!(baseline.truncation_bound > 0.0, "bound must be explicit");
    assert!(
        baseline.total_shots > 0,
        "at least one stratum must be sampled"
    );

    // The plain estimator at the stratified run's entire budget sees
    // nothing: every one of its shots lands in the overwhelming zero- and
    // low-weight mass.
    let (plain_rate, _) = memory.logical_error_rate_on(
        &WorkerPool::new(4),
        SurfaceDecoder::UnionFind,
        baseline.total_shots,
        seed,
    );
    assert_eq!(
        plain_rate, 0.0,
        "plain estimator should be blind at this budget"
    );
}

/// `logical_error_rate_rare_on` composed from the public building blocks
/// the traced `rare_surface` benchmark pass times one by one: the fault
/// model and its prior, `StratifiedEstimator::run`, `enumerate_at_weight`
/// or `sample_at_weight` under `shard_seed(seed, w)`, detector assembly,
/// and union-find decoding in 1024-shot shards.
fn rare_from_parts(
    memory: &SurfaceMemory,
    config: RareConfig,
    seed: u64,
    pool: &WorkerPool,
) -> RareOutcome {
    let circuit = memory.circuit();
    let decoder = UnionFindDecoder::new(&memory.matching_graph());
    let model = FaultModel::from_circuit(&circuit);
    let prior = model.prior();
    StratifiedEstimator::new(&prior, config).run(|w| {
        match enumerate_at_weight(&circuit, &model, w, config.enumerate_threshold) {
            Some((configs, frames)) => {
                let samples = assemble_detectors(&circuit, &frames.meas_flips, configs.len());
                let mut failure_probability = 0.0;
                decoder.decode_shots(
                    &mut decoder.new_scratch(),
                    &samples.detectors,
                    &samples.observables,
                    0,
                    0,
                    configs.len(),
                    |shot, failed| {
                        if failed {
                            failure_probability += configs[shot].weight;
                        }
                    },
                );
                StratumEval::Enumerated {
                    failure_probability,
                    configs: configs.len() as u64,
                }
            }
            None => {
                let shots = config.shots_per_stratum;
                let stratum_seed = shard_seed(seed, w as u64);
                let frames = sample_at_weight(&circuit, &model, w, shots, stratum_seed, pool);
                let samples = assemble_detectors(&circuit, &frames.meas_flips, shots);
                let failures = pool
                    .run_shards(shots, 1024, stratum_seed, |shard| {
                        decoder.count_failures(
                            &mut decoder.new_scratch(),
                            &samples.detectors,
                            &samples.observables,
                            0,
                            shard.start,
                            shard.len,
                        )
                    })
                    .into_iter()
                    .sum();
                StratumEval::Sampled { failures, shots }
            }
        }
    })
}

/// The one stratified driver reproduces the surface rare estimate as the
/// public parts compose it, on strata it enumerates and strata it samples
/// across more than one decode shard, at 1 and 4 workers.
#[test]
fn surface_rare_estimate_matches_its_public_parts() {
    let memory = SurfaceMemory::new(3, 2, SurfaceNoise::default());
    let config = RareConfig {
        max_strata: 4,
        rel_tol: 0.0,
        abs_tol: 1e-30,
        shots_per_stratum: 1_500,
        enumerate_threshold: 4_096,
    };
    for workers in [1, 4] {
        let pool = WorkerPool::new(workers);
        let outcome =
            memory.logical_error_rate_rare_on(&pool, SurfaceDecoder::UnionFind, config, 61);
        let strata = &outcome.report().strata;
        assert!(strata[1].enumerated && !strata[2].enumerated, "{strata:?}");
        assert_eq!(
            outcome,
            rare_from_parts(&memory, config, 61, &pool),
            "{workers} workers"
        );
    }
}

/// Whether stratum 1 of `outcome` was enumerated.
fn stratum_one_enumerated(outcome: &RareOutcome) -> bool {
    outcome.report().strata[1].enumerated
}

fn boundary_config(threshold: u64) -> RareConfig {
    RareConfig {
        max_strata: 2,
        rel_tol: 0.0,
        abs_tol: 0.0,
        shots_per_stratum: 64,
        enumerate_threshold: threshold,
    }
}

/// The enumerate-or-sample boundary is the same for both shot sources:
/// with `N` weight-1 configurations, a threshold of `N` enumerates stratum
/// 1 and `N − 1` samples it.
#[test]
fn enumerate_threshold_is_one_boundary_for_both_sources() {
    let pool = WorkerPool::new(2);

    let memory = SurfaceMemory::new(3, 2, SurfaceNoise::default());
    let circuit = memory.circuit();
    let model = FaultModel::from_circuit(&circuit);
    let n = enumerate_at_weight(&circuit, &model, 1, u64::MAX)
        .expect("no budget")
        .0
        .len() as u64;
    for (threshold, enumerated) in [(n, true), (n - 1, false)] {
        let outcome = memory.logical_error_rate_rare_on(
            &pool,
            SurfaceDecoder::UnionFind,
            boundary_config(threshold),
            3,
        );
        assert_eq!(
            stratum_one_enumerated(&outcome),
            enumerated,
            "surface, N = {n}, threshold {threshold}"
        );
    }

    let usc = UscCell::new(
        catalog::coherence_limited_compute(0.5e-3),
        catalog::coherence_limited_storage(5e-3),
    )
    .unwrap()
    .characterize();
    let uec = UecModule::new(steane(), usc, UecNoise::default());
    let mut recorder = RecordFaults::new();
    uec.run_shot(&mut recorder);
    let sites = recorder.into_model();
    let n = enumerate_configs(&sites, 1, u64::MAX)
        .expect("no budget")
        .len() as u64;
    for (threshold, enumerated) in [(n, true), (n - 1, false)] {
        let outcome = run(&uec, Estimator::Rare(boundary_config(threshold)), &pool, 3)
            .into_rare()
            .expect("rare outcome");
        assert_eq!(
            stratum_one_enumerated(&outcome),
            enumerated,
            "UEC Steane, N = {n}, threshold {threshold}"
        );
    }
}
