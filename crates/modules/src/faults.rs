//! Fault-site drivers: the seam between the module Monte-Carlo shot bodies
//! and the rare-event estimator.
//!
//! The UEC and baseline simulators visit their fault sites in a **static
//! order** — the sequence of [`FaultDriver`] calls a shot makes never
//! depends on sampled outcomes. That property turns one shot body into
//! three estimators:
//!
//! * [`RngFaults`] draws every site from an RNG — the legacy Monte-Carlo
//!   path, consuming the exact same variate stream as the original inlined
//!   sampling (one `f64` per Pauli site with positive total probability,
//!   one per ancilla-flip site unconditionally), so pre-existing seeds and
//!   goldens are preserved bit for bit.
//! * [`RecordFaults`] applies nothing and writes down each site's trigger
//!   probability — one "dry" shot yields the full site table from which the
//!   Poisson-binomial weight prior is built.
//! * [`ForcedFaults`] replays a fixed weight-`w` fault configuration — the
//!   conditioned shots of the stratified estimator.
//!
//! [`stratified_rate`] wires the three together under
//! [`hetarch_exec::rare::StratifiedEstimator`].

use hetarch_exec::rare::{
    enumerate_configs, ConditionalSampler, RareConfig, RareOutcome, StratifiedEstimator,
    StratumEval, WeightPrior,
};
use hetarch_exec::{shard_seed, CancelToken, Cancelled, WorkerPool};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use hetarch_qsim::channels::PauliProbs;
use hetarch_stab::pauli::{Pauli, PauliString};

use crate::uec::sim::sample_pauli_into;

/// One shot's source of fault decisions.
///
/// A shot body calls [`FaultDriver::pauli_site`] once per potential Pauli
/// fault location and [`FaultDriver::flip_site`] once per potential
/// classical-flip location, always in the same order.
pub trait FaultDriver {
    /// Visits a Pauli fault site on qubit `q` with per-Pauli trigger
    /// probabilities `probs`; the driver may XOR a Pauli into `error`.
    fn pauli_site(&mut self, error: &mut PauliString, q: usize, probs: PauliProbs);

    /// Visits a classical bit-flip site of probability `p`; returns whether
    /// the flip fires.
    fn flip_site(&mut self, p: f64) -> bool;
}

/// The legacy Monte-Carlo driver: sample every site from `rng`.
///
/// Stream contract (matches the historical inlined code exactly): a Pauli
/// site consumes one variate iff its total probability is positive — the
/// same draw decides both whether the site triggers and which Pauli it
/// deposits — and a flip site always consumes exactly one variate.
pub struct RngFaults<'a, R: Rng + ?Sized> {
    rng: &'a mut R,
}

impl<'a, R: Rng + ?Sized> RngFaults<'a, R> {
    /// Wraps an RNG.
    pub fn new(rng: &'a mut R) -> Self {
        RngFaults { rng }
    }
}

impl<R: Rng + ?Sized> FaultDriver for RngFaults<'_, R> {
    fn pauli_site(&mut self, error: &mut PauliString, q: usize, probs: PauliProbs) {
        sample_pauli_into(error, q, probs, self.rng);
    }

    fn flip_site(&mut self, p: f64) -> bool {
        self.rng.gen::<f64>() < p
    }
}

/// The probabilities of one recorded fault site.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SiteProbs {
    /// A single-qubit Pauli channel site (3 variants: X, Y, Z).
    Pauli(PauliProbs),
    /// A classical readout/ancilla flip site (1 variant).
    Flip(f64),
}

impl SiteProbs {
    /// Probability that the site triggers at all.
    pub fn trigger(&self) -> f64 {
        match self {
            SiteProbs::Pauli(p) => p.total().min(1.0),
            SiteProbs::Flip(p) => p.min(1.0),
        }
    }

    /// Number of fault variants at this site.
    pub fn variant_count(&self) -> usize {
        match self {
            SiteProbs::Pauli(_) => 3,
            SiteProbs::Flip(_) => 1,
        }
    }

    /// Conditional probability of variant `v` given the site triggered
    /// (X, Y, Z in that order for Pauli sites).
    pub fn variant_weight(&self, v: usize) -> f64 {
        match self {
            SiteProbs::Pauli(p) => {
                let total = p.total();
                if total <= 0.0 {
                    return 0.0;
                }
                [p.px, p.py, p.pz][v] / total
            }
            SiteProbs::Flip(_) => 1.0,
        }
    }

    /// Draws a variant from the conditional distribution.
    pub fn sample_variant<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        match self {
            SiteProbs::Pauli(p) => {
                let r: f64 = rng.gen::<f64>() * p.total();
                if r < p.px {
                    0
                } else if r < p.px + p.py {
                    1
                } else {
                    2
                }
            }
            SiteProbs::Flip(_) => 0,
        }
    }
}

/// A dry-run driver that records each visited site's probabilities without
/// injecting any fault.
#[derive(Clone, Debug, Default)]
pub struct RecordFaults {
    sites: Vec<SiteProbs>,
}

impl RecordFaults {
    /// An empty recorder.
    pub fn new() -> Self {
        RecordFaults::default()
    }

    /// The recorded site table, in visit order.
    pub fn into_sites(self) -> Vec<SiteProbs> {
        self.sites
    }
}

impl FaultDriver for RecordFaults {
    fn pauli_site(&mut self, _error: &mut PauliString, _q: usize, probs: PauliProbs) {
        self.sites.push(SiteProbs::Pauli(probs));
    }

    fn flip_site(&mut self, p: f64) -> bool {
        self.sites.push(SiteProbs::Flip(p));
        false
    }
}

/// A driver that replays a fixed fault configuration: site `i` fires with
/// its assigned variant; every other site stays idle.
#[derive(Clone, Debug)]
pub struct ForcedFaults {
    assigned: Vec<Option<u8>>,
    cursor: usize,
}

impl ForcedFaults {
    /// A configuration over `num_sites` sites firing the given
    /// `(site, variant)` pairs.
    pub fn new(num_sites: usize, hits: &[(usize, usize)]) -> Self {
        let mut f = ForcedFaults {
            assigned: vec![None; num_sites],
            cursor: 0,
        };
        f.reset(hits);
        f
    }

    /// Rewinds and reassigns the fired sites (reuses the allocation across
    /// shots).
    pub fn reset(&mut self, hits: &[(usize, usize)]) {
        self.assigned.fill(None);
        self.cursor = 0;
        for &(site, variant) in hits {
            self.assigned[site] = Some(variant as u8);
        }
    }

    /// Number of sites visited so far.
    pub fn sites_visited(&self) -> usize {
        self.cursor
    }

    fn next(&mut self) -> Option<u8> {
        let v = self.assigned[self.cursor];
        self.cursor += 1;
        v
    }
}

impl FaultDriver for ForcedFaults {
    fn pauli_site(&mut self, error: &mut PauliString, q: usize, _probs: PauliProbs) {
        if let Some(v) = self.next() {
            let p = match v {
                0 => Pauli::X,
                1 => Pauli::Y,
                _ => Pauli::Z,
            };
            let (cx, cz) = error.get(q).xz();
            let (nx, nz) = p.xz();
            error.set(q, Pauli::from_xz(cx ^ nx, cz ^ nz));
        }
    }

    fn flip_site(&mut self, _p: f64) -> bool {
        self.next().is_some()
    }
}

/// Runs the weight-stratified rare-event estimator over a recorded site
/// table.
///
/// `run_shot` executes one shot against a [`ForcedFaults`] driver and
/// returns whether it failed. Per stratum the driver either enumerates every
/// fault configuration (at most `config.enumerate_threshold` of them) or
/// draws `config.shots_per_stratum` conditioned samples, sharded over `pool`
/// at `shard_shots` shots per shard with the per-stratum seed
/// `shard_seed(seed, w)` — the result is bit-identical for every worker
/// count.
pub fn stratified_rate<F>(
    pool: &WorkerPool,
    sites: &[SiteProbs],
    config: RareConfig,
    seed: u64,
    shard_shots: usize,
    run_shot: F,
) -> RareOutcome
where
    F: Fn(&mut ForcedFaults) -> bool + Sync,
{
    match stratified_rate_inner(pool, sites, config, seed, shard_shots, None, run_shot) {
        Ok(outcome) => outcome,
        Err(Cancelled) => unreachable!("no token, no cancellation"),
    }
}

/// As [`stratified_rate`] with a cooperative [`CancelToken`]: the token is
/// checked between shards of each sampled stratum and periodically inside
/// enumerated strata, so cancelling a deep-subthreshold estimate releases
/// the pool promptly instead of finishing every stratum.
pub fn try_stratified_rate<F>(
    pool: &WorkerPool,
    sites: &[SiteProbs],
    config: RareConfig,
    seed: u64,
    shard_shots: usize,
    token: &CancelToken,
    run_shot: F,
) -> Result<RareOutcome, Cancelled>
where
    F: Fn(&mut ForcedFaults) -> bool + Sync,
{
    stratified_rate_inner(
        pool,
        sites,
        config,
        seed,
        shard_shots,
        Some(token),
        run_shot,
    )
}

fn stratified_rate_inner<F>(
    pool: &WorkerPool,
    sites: &[SiteProbs],
    config: RareConfig,
    seed: u64,
    shard_shots: usize,
    token: Option<&CancelToken>,
    run_shot: F,
) -> Result<RareOutcome, Cancelled>
where
    F: Fn(&mut ForcedFaults) -> bool + Sync,
{
    let cancelled = || token.is_some_and(CancelToken::is_cancelled);
    let trigger: Vec<f64> = sites.iter().map(|s| s.trigger()).collect();
    let prior = WeightPrior::poisson_binomial(&trigger);
    let outcome = StratifiedEstimator::new(&prior, config).run(|w| {
        // After cancellation every remaining stratum reports zero shots: the
        // estimator charges its prior mass to the truncation bound and its
        // convergence loop terminates quickly. The partial outcome is
        // discarded below.
        if cancelled() {
            return StratumEval::Sampled {
                failures: 0,
                shots: 0,
            };
        }
        let enumerated = enumerate_configs(
            &trigger,
            w,
            config.enumerate_threshold,
            &|i| sites[i].variant_count(),
            &|i, v| sites[i].variant_weight(v),
        );
        match enumerated {
            Some(configs) => {
                let count = configs.len() as u64;
                let mut driver = ForcedFaults::new(sites.len(), &[]);
                let mut failure_probability = 0.0;
                for (k, cfg) in configs.iter().enumerate() {
                    if k % 64 == 0 && cancelled() {
                        return StratumEval::Sampled {
                            failures: 0,
                            shots: 0,
                        };
                    }
                    driver.reset(&cfg.sites);
                    if run_shot(&mut driver) {
                        failure_probability += cfg.weight;
                    }
                }
                StratumEval::Enumerated {
                    failure_probability,
                    configs: count,
                }
            }
            None => {
                let sampler = ConditionalSampler::new(&trigger, w);
                let stratum_seed = shard_seed(seed, w as u64);
                let shard_body = |shard: &hetarch_exec::Shard| {
                    let mut rng = StdRng::seed_from_u64(shard.seed);
                    let mut subset = Vec::new();
                    let mut hits: Vec<(usize, usize)> = Vec::new();
                    let mut driver = ForcedFaults::new(sites.len(), &[]);
                    (0..shard.len)
                        .filter(|_| {
                            sampler.sample_into(&mut || rng.next_u64(), &mut subset);
                            hits.clear();
                            for &i in &subset {
                                hits.push((i, sites[i].sample_variant(&mut rng)));
                            }
                            driver.reset(&hits);
                            run_shot(&mut driver)
                        })
                        .count() as u64
                };
                let failures = match token {
                    None => Some(pool.fold_shards(
                        config.shots_per_stratum,
                        shard_shots,
                        stratum_seed,
                        shard_body,
                        0u64,
                        |acc, f| acc + f,
                    )),
                    Some(t) => pool
                        .try_fold_shards(
                            config.shots_per_stratum,
                            shard_shots,
                            stratum_seed,
                            t,
                            shard_body,
                            0u64,
                            |acc, f| acc + f,
                        )
                        .ok(),
                };
                match failures {
                    Some(failures) => StratumEval::Sampled {
                        failures,
                        shots: config.shots_per_stratum,
                    },
                    // Cancelled mid-stratum: report zero shots (prior mass
                    // goes to truncation) and let the loop wind down.
                    None => StratumEval::Sampled {
                        failures: 0,
                        shots: 0,
                    },
                }
            }
        }
    });
    if cancelled() {
        return Err(Cancelled);
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn probs(px: f64, py: f64, pz: f64) -> PauliProbs {
        PauliProbs { px, py, pz }
    }

    /// A toy shot body with 3 Pauli sites on one qubit and one flip site;
    /// "failure" = final error anticommutes with Z (i.e. has X support) or
    /// the flip fired.
    fn toy_shot(driver: &mut impl FaultDriver) -> bool {
        let mut error = PauliString::identity(1);
        driver.pauli_site(&mut error, 0, probs(0.01, 0.0, 0.0));
        driver.pauli_site(&mut error, 0, probs(0.02, 0.0, 0.005));
        driver.pauli_site(&mut error, 0, probs(0.0, 0.0, 0.0));
        let flipped = driver.flip_site(0.03);
        let (x, _) = error.get(0).xz();
        x || flipped
    }

    #[test]
    fn rng_driver_matches_inlined_sampling() {
        // Same seed through the driver and through the historical inlined
        // code must produce identical outcomes.
        let mut a = StdRng::seed_from_u64(99);
        let mut b = StdRng::seed_from_u64(99);
        for _ in 0..2000 {
            let via_driver = toy_shot(&mut RngFaults::new(&mut a));
            let direct = {
                let mut error = PauliString::identity(1);
                sample_pauli_into(&mut error, 0, probs(0.01, 0.0, 0.0), &mut b);
                sample_pauli_into(&mut error, 0, probs(0.02, 0.0, 0.005), &mut b);
                sample_pauli_into(&mut error, 0, probs(0.0, 0.0, 0.0), &mut b);
                let flipped = b.gen::<f64>() < 0.03;
                let (x, _) = error.get(0).xz();
                x || flipped
            };
            assert_eq!(via_driver, direct);
        }
    }

    #[test]
    fn recorder_captures_static_site_table() {
        let mut rec = RecordFaults::new();
        let failed = toy_shot(&mut rec);
        assert!(!failed, "recorder must not inject faults");
        let sites = rec.into_sites();
        assert_eq!(sites.len(), 4);
        assert_eq!(sites[0].trigger(), 0.01);
        assert_eq!(sites[1].trigger(), 0.025);
        assert_eq!(sites[2].trigger(), 0.0);
        assert_eq!(sites[3], SiteProbs::Flip(0.03));
        // Variant weights are conditional on triggering.
        assert!((sites[1].variant_weight(0) - 0.02 / 0.025).abs() < 1e-15);
        assert!((sites[1].variant_weight(2) - 0.005 / 0.025).abs() < 1e-15);
        assert_eq!(sites[3].variant_weight(0), 1.0);
    }

    #[test]
    fn forced_driver_replays_exact_configuration() {
        // Fire site 1 with a Z (variant 2): no X support, no flip.
        let mut d = ForcedFaults::new(4, &[(1, 2)]);
        assert!(!toy_shot(&mut d));
        assert_eq!(d.sites_visited(), 4);
        // Fire site 0 with an X (variant 0): failure.
        let mut d = ForcedFaults::new(4, &[(0, 0)]);
        assert!(toy_shot(&mut d));
        // Fire only the flip site: failure.
        let mut d = ForcedFaults::new(4, &[(3, 0)]);
        assert!(toy_shot(&mut d));
    }

    #[test]
    fn stratified_rate_matches_analytic_toy_rate() {
        // Exact failure probability of `toy_shot` under independent sites:
        // fail unless (no X deposited net) and (no flip). Sites 0 and 1
        // deposit X with prob 0.01 and 0.02; two X's cancel.
        let sites = [
            SiteProbs::Pauli(probs(0.01, 0.0, 0.0)),
            SiteProbs::Pauli(probs(0.02, 0.0, 0.005)),
            SiteProbs::Pauli(probs(0.0, 0.0, 0.0)),
            SiteProbs::Flip(0.03),
        ];
        let p_no_x = 0.99 * 0.98 + 0.01 * 0.02;
        let expect = 1.0 - p_no_x * 0.97;
        let config = RareConfig {
            max_strata: 5,
            rel_tol: 0.0,
            abs_tol: 1e-16,
            enumerate_threshold: 1 << 20,
            ..RareConfig::default()
        };
        let pool = WorkerPool::new(2);
        let outcome = stratified_rate(&pool, &sites, config, 7, 64, toy_shot);
        assert!(outcome.is_converged());
        let report = outcome.report();
        assert!(
            (report.p_l - expect).abs() < 1e-12,
            "stratified {} vs analytic {expect}",
            report.p_l
        );
        assert_eq!(report.sigma, 0.0, "fully enumerated run has no variance");
    }

    #[test]
    fn sampled_strata_are_worker_count_invariant() {
        let sites = [
            SiteProbs::Pauli(probs(0.01, 0.0, 0.0)),
            SiteProbs::Pauli(probs(0.02, 0.0, 0.005)),
            SiteProbs::Pauli(probs(0.0, 0.0, 0.0)),
            SiteProbs::Flip(0.03),
        ];
        // Force the sampling path everywhere.
        let config = RareConfig {
            max_strata: 3,
            rel_tol: 0.5,
            shots_per_stratum: 500,
            enumerate_threshold: 0,
            ..RareConfig::default()
        };
        let runs: Vec<_> = [1usize, 2, 8]
            .iter()
            .map(|&workers| {
                let pool = WorkerPool::new(workers);
                stratified_rate(&pool, &sites, config, 13, 64, toy_shot).into_report()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
    }

    #[test]
    fn uncancelled_try_stratified_rate_is_bit_identical() {
        let sites = [
            SiteProbs::Pauli(probs(0.01, 0.0, 0.0)),
            SiteProbs::Pauli(probs(0.02, 0.0, 0.005)),
            SiteProbs::Pauli(probs(0.0, 0.0, 0.0)),
            SiteProbs::Flip(0.03),
        ];
        let config = RareConfig {
            max_strata: 3,
            rel_tol: 0.5,
            shots_per_stratum: 500,
            enumerate_threshold: 0,
            ..RareConfig::default()
        };
        let pool = WorkerPool::new(2);
        let plain = stratified_rate(&pool, &sites, config, 13, 64, toy_shot).into_report();
        let token = CancelToken::new();
        let tried = try_stratified_rate(&pool, &sites, config, 13, 64, &token, toy_shot)
            .unwrap()
            .into_report();
        assert_eq!(plain, tried);
    }

    #[test]
    fn cancelled_stratified_rate_returns_err() {
        let sites = [
            SiteProbs::Pauli(probs(0.01, 0.0, 0.0)),
            SiteProbs::Flip(0.03),
        ];
        let pool = WorkerPool::new(2);
        let token = CancelToken::new();
        token.cancel();
        let out = try_stratified_rate(
            &pool,
            &sites,
            RareConfig::default(),
            13,
            64,
            &token,
            toy_shot,
        );
        assert_eq!(out.unwrap_err(), Cancelled);
    }
}
