//! Rare-event estimation: weight-stratified importance sampling.
//!
//! The plain frequency estimator cannot resolve logical error rates below
//! roughly `1/shots`; deep-subthreshold design points (p_L ≤ 1e-8) are out
//! of reach at any realistic budget. This module decomposes the failure
//! probability over the *number of triggered fault sites* instead:
//!
//! ```text
//! p_L = Σ_w  P(W = w) · P(fail | W = w)
//! ```
//!
//! `P(W = w)` is known **exactly** from the noise model — the Poisson-
//! binomial distribution over the circuit's independent fault sites (the
//! plain binomial `C(n,w) p^w (1-p)^(n-w)` when all sites share one `p`) —
//! so only the *conditional* failure probabilities `f(w) = P(fail | W=w)`
//! need simulation, and each is an O(1)-probability quantity: strata are
//! either enumerated exactly or estimated by uniform conditional sampling.
//! Truncating the sum at `w_max` discards at most `P(W > w_max)` because
//! `f(w) ≤ 1`, which gives a rigorous truncation bound from the prior tail
//! alone.
//!
//! [`stratified`] is the one driver: it takes a [`FaultSites`] table,
//! decides per weight whether to enumerate or sample, derives each
//! stratum's seed, and hands the stratum to the caller's simulator, which
//! only says how often its shots fail. [`StratifiedEstimator`] beneath it
//! handles stratum ordering, prior weighting, variance accumulation,
//! adaptive stopping, and the explicit [`RareOutcome::Unconverged`]
//! verdict when the tail bound cannot be driven below the requested
//! tolerance.

use hetarch_obs as obs;

use crate::{shard_seed, CancelToken, Cancelled};

// Stratified-estimator metrics (inert unless the `obs` feature is on and
// the runtime gate is armed; they never influence results).
static STRATA_EVALUATED: obs::Counter = obs::Counter::new("exec.rare.strata");
static STRATUM_SHOTS: obs::Counter = obs::Counter::new("exec.rare.shots");

/// Exact distribution of the number of triggered fault sites.
///
/// For `n` independent sites with trigger probabilities `p_i`, the weight
/// `W = Σ X_i` follows the Poisson-binomial distribution; when all `p_i`
/// are equal this is the plain binomial `C(n,w) p^w (1-p)^(n-w)`. The full
/// PMF is computed once by the standard O(n²) dynamic program
/// (`new[j] = old[j]·(1-p_i) + old[j-1]·p_i`), which is numerically stable
/// for the sub-percent physical error rates this estimator targets.
#[derive(Clone, Debug)]
pub struct WeightPrior {
    pmf: Vec<f64>,
    /// `tail[w] = Σ_{j>w} pmf[j]`, precomputed right-to-left so repeated
    /// tail queries are O(1) and bit-stable.
    tail: Vec<f64>,
}

impl WeightPrior {
    /// The Poisson-binomial prior over `probs.len()` heterogeneous sites.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]` or not finite.
    pub fn poisson_binomial(probs: &[f64]) -> Self {
        for (i, &p) in probs.iter().enumerate() {
            assert!(
                p.is_finite() && (0.0..=1.0).contains(&p),
                "site {i} trigger probability {p} outside [0, 1]"
            );
        }
        let n = probs.len();
        let mut pmf = vec![0.0; n + 1];
        pmf[0] = 1.0;
        for (i, &p) in probs.iter().enumerate() {
            // Walk downward so pmf[j-1] is still the previous iteration's.
            for j in (1..=i + 1).rev() {
                pmf[j] = pmf[j] * (1.0 - p) + pmf[j - 1] * p;
            }
            pmf[0] *= 1.0 - p;
        }
        Self::from_pmf(pmf)
    }

    /// The homogeneous special case: `n` sites at probability `p`, i.e. the
    /// binomial prior `C(n,w) p^w (1-p)^(n-w)`.
    pub fn binomial(n: usize, p: f64) -> Self {
        Self::poisson_binomial(&vec![p; n])
    }

    fn from_pmf(pmf: Vec<f64>) -> Self {
        let mut tail = vec![0.0; pmf.len() + 1];
        for w in (0..pmf.len()).rev() {
            tail[w] = (tail[w + 1] + pmf[w]).min(1.0);
        }
        WeightPrior { pmf, tail }
    }

    /// Number of fault sites `n`.
    pub fn num_sites(&self) -> usize {
        self.pmf.len() - 1
    }

    /// `P(W = w)`; zero for `w > n`.
    pub fn pmf(&self, w: usize) -> f64 {
        self.pmf.get(w).copied().unwrap_or(0.0)
    }

    /// `P(W > w)` — the exact truncation bound after evaluating strata
    /// `0..=w`. Zero for `w ≥ n`.
    pub fn tail_above(&self, w: usize) -> f64 {
        self.tail.get(w + 1).copied().unwrap_or(0.0)
    }
}

/// Exact sampler of weight-`w` site subsets, conditioned on the
/// heterogeneous trigger probabilities.
///
/// Built on the suffix dynamic program `S[i][j] = P(X_i + … + X_{n-1} = j)`:
/// a forward walk takes site `i` with probability
/// `take = p_i · S[i+1][r-1] / S[i][r]` where `r` triggers remain — the
/// exact conditional distribution, so sampled subsets are distributed
/// identically to the true noise process restricted to weight `w`.
///
/// [`ConditionalSampler::new`] folds every `take` into an integer
/// threshold `thr[r][i] = ceil(take · 2^53)` (`0` when `take` is NaN or
/// `≤ 0`, `u64::MAX` when `take ≥ 1`), so the walk does no floating-point
/// work. **Stream contract:** the walk consumes exactly one 64-bit word
/// `x` per visited site and takes the site iff `(x >> 11) < thr[r][i]`.
/// Since `m = x >> 11` is an integer, that is exactly `m · 2^-53 < take`,
/// the test the walk made when it drew `rng.gen::<f64>()` and divided per
/// site; the same words therefore give the same subsets and leave the
/// stream in the same state, which keeps every `shard_seed`-derived
/// stream and every golden unchanged.
#[derive(Clone, Debug)]
pub struct ConditionalSampler {
    num_sites: usize,
    weight: usize,
    feasible: bool,
    /// Row-major by remaining count: `thr[(r-1)·n + i]` for `r = 1..=w`, so
    /// a run of skipped sites scans one contiguous slice.
    thr: Vec<u64>,
}

impl ConditionalSampler {
    /// Prepares the threshold table for drawing weight-`weight` subsets of
    /// the sites described by `probs`.
    pub fn new(probs: &[f64], weight: usize) -> Self {
        let n = probs.len();
        let cols = weight + 1;
        // Two rolling rows of the suffix table: `next` is `S[i+1][·]`.
        let mut next = vec![0.0; cols];
        let mut here = vec![0.0; cols];
        next[0] = 1.0;
        let mut thr = vec![0u64; weight * n];
        for i in (0..n).rev() {
            let p = probs[i];
            here[0] = (1.0 - p) * next[0];
            for r in 1..cols {
                let num = p * next[r - 1];
                here[r] = (1.0 - p) * next[r] + num;
                thr[(r - 1) * n + i] = threshold(num / here[r]);
            }
            std::mem::swap(&mut here, &mut next);
        }
        ConditionalSampler {
            num_sites: n,
            weight,
            feasible: next[weight] > 0.0,
            thr,
        }
    }

    /// Whether any weight-`w` subset has positive probability (false when
    /// `w` exceeds the number of sites that can trigger, or when too many
    /// certain sites force a higher weight).
    pub fn is_feasible(&self) -> bool {
        self.feasible
    }

    /// Draws one subset into `out` (cleared first, ascending site order),
    /// consuming one word of `next_u64` per visited site (see the stream
    /// contract on [`ConditionalSampler`]).
    ///
    /// # Panics
    ///
    /// Panics if the stratum is infeasible (see
    /// [`ConditionalSampler::is_feasible`]).
    pub fn sample_into(&self, next_u64: &mut impl FnMut() -> u64, out: &mut Vec<usize>) {
        assert!(
            self.feasible,
            "no weight-{} subset of {} sites has positive probability",
            self.weight, self.num_sites
        );
        out.clear();
        let n = self.num_sites;
        let mut start = 0;
        for r in (1..=self.weight).rev() {
            let row = &self.thr[(r - 1) * n + start..r * n];
            match row.iter().position(|&t| (next_u64() >> 11) < t) {
                Some(k) => {
                    out.push(start + k);
                    start += k + 1;
                }
                None => break,
            }
        }
        debug_assert_eq!(out.len(), self.weight);
    }
}

/// `ceil(take · 2^53)`: the integer form of `u < take` for the 53-bit
/// uniforms `u = m · 2^-53`, `m < 2^53` (`m < ceil(t)` iff `m < t` for
/// integer `m`). The scaling by a power of two is exact, and `take < 1`
/// keeps the result below `2^53`.
fn threshold(take: f64) -> u64 {
    if take >= 1.0 {
        u64::MAX
    } else if take > 0.0 {
        (take * (1u64 << 53) as f64).ceil() as u64
    } else {
        // `take ≤ 0` or NaN: `u < take` never holds.
        0
    }
}

/// One fully specified fault configuration: the triggered sites with their
/// chosen variants, plus its conditional probability within the stratum.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultConfig {
    /// `(site index, variant index)` pairs in ascending site order.
    pub sites: Vec<(usize, usize)>,
    /// `P(this configuration | W = w)`; the weights of all configurations
    /// of one stratum sum to exactly 1 (normalized, so the stratum's
    /// enumerated failure probability carries no floating-point drift from
    /// the prior).
    pub weight: f64,
}

/// The per-site fault table a stratified run walks: each site's trigger
/// probability and the conditional distribution of its fault variants.
///
/// `hetarch_stab::frame::FaultModel` is the table of every rare-event path:
/// the sites of a detector circuit, or of a module shot recorded by a dry
/// run.
pub trait FaultSites {
    /// Per-site trigger probabilities, in site order.
    fn trigger_probs(&self) -> &[f64];

    /// Number of fault variants at `site`.
    fn variant_count(&self, site: usize) -> usize;

    /// Conditional probability of `variant` at `site`, given that the site
    /// triggered.
    fn variant_weight(&self, site: usize, variant: usize) -> f64;
}

/// Enumerates every weight-`weight` fault configuration of `sites`, or
/// returns `None` when there are more than `max_configs` of them (the
/// caller should fall back to conditional sampling).
///
/// A site's variants (e.g. 3 for a single-qubit Pauli channel, 15 for
/// two-qubit depolarizing) carry conditional weights that sum to 1.
/// Sites that never trigger and variants with zero weight are skipped —
/// they neither count against `max_configs` nor appear in the output.
pub fn enumerate_configs(
    sites: &impl FaultSites,
    weight: usize,
    max_configs: u64,
) -> Option<Vec<FaultConfig>> {
    // Effective per-site variant multiplicity: zero-probability sites or
    // variants cannot appear in any configuration.
    let effective: Vec<Vec<usize>> = sites
        .trigger_probs()
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            if p <= 0.0 {
                Vec::new()
            } else {
                (0..sites.variant_count(i))
                    .filter(|&v| sites.variant_weight(i, v) > 0.0)
                    .collect()
            }
        })
        .collect();

    // Saturating count DP: ways[j] = number of weight-j configurations.
    let mut ways = vec![0u64; weight + 1];
    ways[0] = 1;
    for variants in &effective {
        let m = variants.len() as u64;
        if m == 0 {
            continue;
        }
        for j in (1..=weight).rev() {
            ways[j] = ways[j].saturating_add(ways[j - 1].saturating_mul(m));
        }
    }
    if ways[weight] > max_configs {
        return None;
    }

    let mut configs = Vec::with_capacity(ways[weight] as usize);
    walk_configs(sites, &effective, weight, &mut configs);
    let total: f64 = configs.iter().map(|c| c.weight).sum();
    if total > 0.0 {
        for c in &mut configs {
            c.weight /= total;
        }
    }
    Some(configs)
}

/// One pending node of [`walk_configs`]: sites `..i` are decided, with
/// `remaining` triggers left and running probability `product`.
struct Frame {
    i: usize,
    remaining: usize,
    product: f64,
    /// Next choice at site `i`: 0 = skip, `k ≥ 1` = variant `effective[i][k-1]`.
    choice: usize,
    /// Whether entering this node pushed a triggered site onto the path.
    triggered: bool,
}

/// Depth-first enumeration carrying the running (unnormalized) probability
/// product. Each node first skips site `i`, then triggers it with each
/// viable variant. The explicit frame stack lives on the heap: a skip chain
/// is as deep as the site count, far more than a thread stack holds on
/// large circuits.
fn walk_configs(
    sites: &impl FaultSites,
    effective: &[Vec<usize>],
    weight: usize,
    out: &mut Vec<FaultConfig>,
) {
    let probs = sites.trigger_probs();
    let mut path: Vec<(usize, usize)> = Vec::with_capacity(weight);
    let mut frames = vec![Frame {
        i: 0,
        remaining: weight,
        product: 1.0,
        choice: 0,
        triggered: false,
    }];
    while let Some(top) = frames.last_mut() {
        let (i, remaining, product, choice) = (top.i, top.remaining, top.product, top.choice);
        let done = if remaining == 0 {
            // Remaining sites all stay idle.
            let idle: f64 = probs[i..].iter().map(|&p| 1.0 - p).product();
            out.push(FaultConfig {
                sites: path.clone(),
                weight: product * idle,
            });
            true
        } else {
            i >= probs.len() || choice > effective[i].len()
        };
        if done {
            if top.triggered {
                path.pop();
            }
            frames.pop();
            continue;
        }
        top.choice += 1;
        let child = if choice == 0 {
            Frame {
                i: i + 1,
                remaining,
                product: product * (1.0 - probs[i]),
                choice: 0,
                triggered: false,
            }
        } else {
            let v = effective[i][choice - 1];
            path.push((i, v));
            Frame {
                i: i + 1,
                remaining: remaining - 1,
                product: product * probs[i] * sites.variant_weight(i, v),
                choice: 0,
                triggered: true,
            }
        };
        frames.push(child);
    }
}

/// Tuning knobs for [`StratifiedEstimator`].
#[derive(Clone, Copy, Debug)]
pub struct RareConfig {
    /// Maximum number of strata evaluated (weights `0, 1, …,
    /// max_strata - 1`). Zero strata yields an immediate
    /// [`RareOutcome::Unconverged`] with truncation bound 1.
    pub max_strata: usize,
    /// Stop once the remaining tail bound is below
    /// `abs_tol.max(rel_tol · p̂_L)`.
    pub rel_tol: f64,
    /// Absolute floor of the stopping tolerance (also what makes `p = 0`
    /// noise converge at the `w = 0` stratum, where `p̂_L` may be 0).
    pub abs_tol: f64,
    /// Monte-Carlo shots for each stratum that is sampled rather than
    /// enumerated.
    pub shots_per_stratum: usize,
    /// Enumerate a stratum exactly when it has at most this many fault
    /// configurations; sample it otherwise.
    pub enumerate_threshold: u64,
}

impl Default for RareConfig {
    fn default() -> Self {
        RareConfig {
            max_strata: 16,
            rel_tol: 0.1,
            abs_tol: 1e-30,
            shots_per_stratum: 4096,
            enumerate_threshold: 4096,
        }
    }
}

/// The caller's verdict on one stratum.
#[derive(Clone, Copy, Debug)]
pub enum StratumEval {
    /// The stratum was enumerated exactly: `failure_probability` is
    /// `P(fail | W = w)` with zero statistical variance.
    Enumerated {
        /// Exact conditional failure probability.
        failure_probability: f64,
        /// Number of fault configurations enumerated.
        configs: u64,
    },
    /// The stratum was sampled: `failures` out of `shots` conditioned
    /// Monte-Carlo shots failed.
    Sampled {
        /// Observed conditional failures.
        failures: u64,
        /// Conditioned shots drawn (0 leaves the stratum unresolved; its
        /// prior mass is charged to the truncation bound).
        shots: usize,
    },
}

/// Per-stratum bookkeeping in a [`RareReport`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StratumStat {
    /// Error weight of this stratum.
    pub weight: usize,
    /// Exact prior `P(W = w)`.
    pub prior: f64,
    /// Conditional failure probability (exact if `enumerated`, else the
    /// sample frequency).
    pub failure_rate: f64,
    /// Conditioned shots drawn (0 for enumerated strata).
    pub shots: usize,
    /// Observed failures (for enumerated strata: configurations counted as
    /// weighted failures are not tallied here; this stays 0).
    pub failures: u64,
    /// Whether the stratum was enumerated exactly.
    pub enumerated: bool,
}

/// The stratified estimate with its full error budget.
#[derive(Clone, Debug, PartialEq)]
pub struct RareReport {
    /// Stratified estimate `Σ_w P(W=w) · f̂(w)`.
    pub p_l: f64,
    /// One statistical standard deviation of `p_l` (sampled strata only;
    /// enumerated strata contribute no variance).
    pub sigma: f64,
    /// Rigorous bound on the truncation error: the prior mass of every
    /// weight beyond the last evaluated stratum, plus the mass of any
    /// stratum left unresolved (zero shots).
    pub truncation_bound: f64,
    /// Per-stratum tallies, ascending weight, one entry per weight
    /// considered (including zero-prior strata that were skipped).
    pub strata: Vec<StratumStat>,
    /// Total conditioned Monte-Carlo shots across all sampled strata.
    pub total_shots: usize,
    /// Number of fault sites in the underlying model.
    pub num_sites: usize,
}

impl RareReport {
    /// Converts the per-shot estimate to a per-round rate over `rounds`
    /// rounds: `1 - (1 - p_L)^(1/rounds)`.
    pub fn per_round(&self, rounds: usize) -> f64 {
        if self.p_l <= 0.0 || rounds == 0 {
            return 0.0;
        }
        1.0 - (1.0 - self.p_l).powf(1.0 / rounds as f64)
    }

    /// The plain-estimator shot budget that would match this report's
    /// statistical resolution: `p(1-p)/σ²` (infinite when `σ = 0`, i.e.
    /// every contributing stratum was enumerated).
    pub fn equivalent_plain_shots(&self) -> f64 {
        if self.sigma <= 0.0 {
            return f64::INFINITY;
        }
        self.p_l * (1.0 - self.p_l) / (self.sigma * self.sigma)
    }
}

/// Outcome of a stratified estimation run.
///
/// `Unconverged` still carries the full report — the estimate is a valid
/// *lower* bound and the truncation bound is honest — but the caller asked
/// for a tolerance the configured strata could not deliver, and silently
/// returning the number would hide that.
#[derive(Clone, Debug, PartialEq)]
#[must_use = "an Unconverged outcome signals the tolerance was not met"]
pub enum RareOutcome {
    /// The tail bound dropped below the requested tolerance.
    Converged(RareReport),
    /// `max_strata` was exhausted first; the report's truncation bound
    /// exceeds the requested tolerance.
    Unconverged(RareReport),
}

impl RareOutcome {
    /// The report, converged or not.
    pub fn report(&self) -> &RareReport {
        match self {
            RareOutcome::Converged(r) | RareOutcome::Unconverged(r) => r,
        }
    }

    /// Consumes the outcome, returning the report.
    pub fn into_report(self) -> RareReport {
        match self {
            RareOutcome::Converged(r) | RareOutcome::Unconverged(r) => r,
        }
    }

    /// Whether the tolerance was met.
    pub fn is_converged(&self) -> bool {
        matches!(self, RareOutcome::Converged(_))
    }
}

/// The weight-stratified importance-sampling driver.
///
/// Walks strata in ascending weight, asks the caller to evaluate each one
/// (enumerate or sample), weights the result by the exact prior, and stops
/// as soon as the remaining binomial-tail bound is below the requested
/// tolerance. Strata with zero prior mass (e.g. below the forced weight of
/// `p = 1` sites) are recorded but never evaluated.
pub struct StratifiedEstimator<'a> {
    prior: &'a WeightPrior,
    config: RareConfig,
}

impl<'a> StratifiedEstimator<'a> {
    /// An estimator over `prior` with the given tuning.
    pub fn new(prior: &'a WeightPrior, config: RareConfig) -> Self {
        StratifiedEstimator { prior, config }
    }

    /// Runs the estimation loop. `evaluate(w)` must return the stratum
    /// verdict for weight `w`; it is only called for strata with positive
    /// prior mass.
    pub fn run(&self, mut evaluate: impl FnMut(usize) -> StratumEval) -> RareOutcome {
        let mut p_l = 0.0f64;
        let mut variance = 0.0f64;
        // Prior mass of strata that were visited but yielded no
        // information (sampled with zero shots): charged to truncation.
        let mut unresolved = 0.0f64;
        let mut strata = Vec::new();
        let mut total_shots = 0usize;
        let mut tail = 1.0f64;
        let mut converged = false;

        for w in 0..self.config.max_strata {
            let prior_w = self.prior.pmf(w);
            // Zero prior mass (e.g. weights below the count of p = 1 sites,
            // or above the number of sites): recorded, never evaluated.
            let mut stat = StratumStat {
                weight: w,
                prior: prior_w,
                failure_rate: 0.0,
                shots: 0,
                failures: 0,
                enumerated: true,
            };
            if prior_w > 0.0 {
                STRATA_EVALUATED.inc();
                match evaluate(w) {
                    StratumEval::Enumerated {
                        failure_probability,
                        configs: _,
                    } => {
                        p_l += prior_w * failure_probability;
                        stat.failure_rate = failure_probability;
                    }
                    StratumEval::Sampled { failures, shots } => {
                        STRATUM_SHOTS.add(shots as u64);
                        total_shots += shots;
                        if shots > 0 {
                            let f = failures as f64 / shots as f64;
                            p_l += prior_w * f;
                            variance += prior_w * prior_w * f * (1.0 - f) / shots as f64;
                            stat.failure_rate = f;
                        } else {
                            // No shots, no information: the whole stratum
                            // is truncation error.
                            unresolved += prior_w;
                        }
                        stat.shots = shots;
                        stat.failures = failures;
                        stat.enumerated = false;
                    }
                }
            }
            strata.push(stat);
            tail = self.prior.tail_above(w) + unresolved;
            if tail <= self.config.abs_tol.max(self.config.rel_tol * p_l) {
                converged = true;
                break;
            }
        }

        let report = RareReport {
            p_l,
            sigma: variance.sqrt(),
            truncation_bound: tail,
            strata,
            total_shots,
            num_sites: self.prior.num_sites(),
        };
        if converged {
            RareOutcome::Converged(report)
        } else {
            RareOutcome::Unconverged(report)
        }
    }
}

/// The weight-stratified estimate over `sites`: the one stratum policy of
/// every rare-event path.
///
/// Builds the exact prior from the trigger probabilities and walks the
/// strata with [`StratifiedEstimator`]. A stratum with at most
/// [`RareConfig::enumerate_threshold`] configurations is enumerated with
/// [`enumerate_configs`]; `enumerated(configs)` returns its exact failure
/// probability, the summed weight of the failing configurations. A larger
/// stratum `w` gets a [`ConditionalSampler`];
/// `sampled(sampler, shots, seed)` returns the failures among
/// [`RareConfig::shots_per_stratum`] conditioned shots drawn under the
/// stratum seed [`shard_seed`]`(seed, w)`. Each caller keeps its own shot
/// layout inside the two evaluations, so the report is whatever those
/// evaluations make it: bit-identical for every worker count when they
/// are.
///
/// `cancel` is checked before each stratum, and either evaluation may
/// return [`Cancelled`] itself. After cancellation every remaining stratum
/// reports zero shots, so the walk winds down quickly, and the partial
/// outcome is discarded for [`Cancelled`].
pub fn stratified(
    sites: &impl FaultSites,
    config: RareConfig,
    seed: u64,
    cancel: Option<&CancelToken>,
    mut enumerated: impl FnMut(&[FaultConfig]) -> Result<f64, Cancelled>,
    mut sampled: impl FnMut(&ConditionalSampler, usize, u64) -> Result<u64, Cancelled>,
) -> Result<RareOutcome, Cancelled> {
    let cancelled = || cancel.is_some_and(CancelToken::is_cancelled);
    let unresolved = StratumEval::Sampled {
        failures: 0,
        shots: 0,
    };
    let trigger = sites.trigger_probs();
    let prior = WeightPrior::poisson_binomial(trigger);
    let outcome = StratifiedEstimator::new(&prior, config).run(|w| {
        if cancelled() {
            return unresolved;
        }
        let eval = match enumerate_configs(sites, w, config.enumerate_threshold) {
            Some(configs) => {
                enumerated(&configs).map(|failure_probability| StratumEval::Enumerated {
                    failure_probability,
                    configs: configs.len() as u64,
                })
            }
            None => {
                let shots = config.shots_per_stratum;
                let sampler = ConditionalSampler::new(trigger, w);
                sampled(&sampler, shots, shard_seed(seed, w as u64))
                    .map(|failures| StratumEval::Sampled { failures, shots })
            }
        };
        eval.unwrap_or(unresolved)
    });
    if cancelled() {
        return Err(Cancelled);
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};

    fn choose(n: usize, k: usize) -> f64 {
        if k > n {
            return 0.0;
        }
        (0..k).fold(1.0, |acc, i| acc * (n - i) as f64 / (i + 1) as f64)
    }

    /// Deterministic raw-word stream for sampler tests.
    fn lcg_stream(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        }
    }

    /// The f64 walk the threshold table replaces, kept as the oracle: the
    /// full `(n+1) × (w+1)` suffix table, then one division and one
    /// `u01() < take` test per visited site.
    struct ReferenceSampler {
        probs: Vec<f64>,
        weight: usize,
        suffix: Vec<f64>,
    }

    impl ReferenceSampler {
        fn new(probs: &[f64], weight: usize) -> Self {
            let n = probs.len();
            let cols = weight + 1;
            let mut suffix = vec![0.0; (n + 1) * cols];
            suffix[n * cols] = 1.0;
            for i in (0..n).rev() {
                let p = probs[i];
                for j in 0..cols {
                    let keep = (1.0 - p) * suffix[(i + 1) * cols + j];
                    let take = if j > 0 {
                        p * suffix[(i + 1) * cols + (j - 1)]
                    } else {
                        0.0
                    };
                    suffix[i * cols + j] = keep + take;
                }
            }
            ReferenceSampler {
                probs: probs.to_vec(),
                weight,
                suffix,
            }
        }

        fn is_feasible(&self) -> bool {
            self.suffix[self.weight] > 0.0
        }

        fn sample_into(&self, u01: &mut dyn FnMut() -> f64, out: &mut Vec<usize>) {
            out.clear();
            let cols = self.weight + 1;
            let mut remaining = self.weight;
            for (i, &p) in self.probs.iter().enumerate() {
                if remaining == 0 {
                    break;
                }
                let here = self.suffix[i * cols + remaining];
                let take = p * self.suffix[(i + 1) * cols + (remaining - 1)] / here;
                if u01() < take {
                    out.push(i);
                    remaining -= 1;
                }
            }
        }
    }

    /// Adapts a word source to the vendored `RngCore`, so the oracle draws
    /// its uniforms through the same `gen::<f64>()` the callers used.
    struct Words<F>(F);

    impl<F: FnMut() -> u64> RngCore for Words<F> {
        fn next_u64(&mut self) -> u64 {
            (self.0)()
        }
    }

    /// One draw of each walk from the front of `words`: the subset and the
    /// number of words consumed, threshold walk first.
    fn draw_both(
        fast: &ConditionalSampler,
        oracle: &ReferenceSampler,
        words: &[u64],
    ) -> [(Vec<usize>, usize); 2] {
        let mut out = Vec::new();
        let mut used = 0;
        fast.sample_into(
            &mut || {
                used += 1;
                words[used - 1]
            },
            &mut out,
        );
        let fast_draw = (out.clone(), used);
        let mut used = 0;
        {
            let mut rng = Words(|| {
                used += 1;
                words[used - 1]
            });
            oracle.sample_into(&mut || rng.gen::<f64>(), &mut out);
        }
        [fast_draw, (out, used)]
    }

    #[test]
    fn binomial_prior_matches_closed_form() {
        let n = 12;
        let p = 0.07;
        let prior = WeightPrior::binomial(n, p);
        for w in 0..=n {
            let exact = choose(n, w) * p.powi(w as i32) * (1.0 - p).powi((n - w) as i32);
            assert!(
                (prior.pmf(w) - exact).abs() < 1e-14,
                "w={w}: {} vs {exact}",
                prior.pmf(w)
            );
        }
        assert_eq!(prior.pmf(n + 1), 0.0);
        assert_eq!(prior.num_sites(), n);
    }

    #[test]
    fn tail_is_suffix_sum_of_pmf() {
        let prior = WeightPrior::poisson_binomial(&[0.1, 0.02, 0.3, 0.0, 0.25]);
        for w in 0..=5 {
            let direct: f64 = (w + 1..=5).map(|j| prior.pmf(j)).sum();
            assert!((prior.tail_above(w) - direct).abs() < 1e-15);
        }
        assert_eq!(prior.tail_above(5), 0.0);
        assert_eq!(prior.tail_above(100), 0.0);
        // Total mass: pmf(0) + tail_above(0) complements to 1.
        assert!((prior.pmf(0) + prior.tail_above(0) - 1.0).abs() < 1e-14);
    }

    #[test]
    fn degenerate_priors() {
        let zero = WeightPrior::binomial(10, 0.0);
        assert_eq!(zero.pmf(0), 1.0);
        assert_eq!(zero.tail_above(0), 0.0);

        let one = WeightPrior::binomial(4, 1.0);
        assert_eq!(one.pmf(4), 1.0);
        for w in 0..4 {
            assert_eq!(one.pmf(w), 0.0);
            assert_eq!(one.tail_above(w), 1.0);
        }
        assert_eq!(one.tail_above(4), 0.0);
    }

    #[test]
    fn conditional_sampler_matches_exact_conditionals() {
        // Two sites, weight 1: P(site 0 | W=1) has a closed form.
        let probs = [0.1, 0.3];
        let sampler = ConditionalSampler::new(&probs, 1);
        assert!(sampler.is_feasible());
        let p0 = 0.1 * 0.7 / (0.1 * 0.7 + 0.9 * 0.3);
        let mut u = lcg_stream(42);
        let mut out = Vec::new();
        let mut hits0 = 0usize;
        let trials = 200_000;
        for _ in 0..trials {
            sampler.sample_into(&mut u, &mut out);
            assert_eq!(out.len(), 1);
            if out[0] == 0 {
                hits0 += 1;
            }
        }
        let freq = hits0 as f64 / trials as f64;
        assert!(
            (freq - p0).abs() < 0.005,
            "P(site0|W=1): sampled {freq}, exact {p0}"
        );
    }

    #[test]
    fn conditional_sampler_handles_forced_sites() {
        // A p=1 site must appear in every subset.
        let probs = [0.2, 1.0, 0.2];
        let sampler = ConditionalSampler::new(&probs, 1);
        let mut u = lcg_stream(7);
        let mut out = Vec::new();
        for _ in 0..100 {
            sampler.sample_into(&mut u, &mut out);
            assert_eq!(out, vec![1]);
        }
        // Weight 0 with a forced site is infeasible.
        assert!(!ConditionalSampler::new(&probs, 0).is_feasible());
        // Weight above the number of triggerable sites is infeasible.
        assert!(!ConditionalSampler::new(&[0.5, 0.0], 2).is_feasible());
    }

    #[test]
    fn threshold_maps_edge_probabilities() {
        for take in [f64::NAN, 0.0, -0.0, -1.0, f64::NEG_INFINITY] {
            assert_eq!(threshold(take), 0, "take {take}");
        }
        for take in [1.0, 1.5, f64::INFINITY] {
            assert_eq!(threshold(take), u64::MAX, "take {take}");
        }
        // The smallest subnormal still admits the all-zero word.
        assert_eq!(threshold(f64::from_bits(1)), 1);
        assert_eq!(threshold(0.5), 1 << 52);
        assert_eq!(threshold(1.0 - f64::EPSILON / 2.0), (1 << 53) - 1);
    }

    #[test]
    fn threshold_boundary_words_match_the_f64_walk() {
        // The suffix DP depends only on `probs[i..]`, so the first word of a
        // draw from `probs[i..]` at weight `r` decides site `i` with `r`
        // triggers remaining. Feed it `thr − 1` (taken) and `thr` (skipped).
        let probs = [0.3, 0.2, 1e-12, 0.5, 2.5e-310, 0.7, 1e-3, 0.9, 0.05];
        let mut rest = lcg_stream(11);
        let mut checked = 0;
        for i in 0..probs.len() {
            for r in 1..=probs.len() - i {
                let fast = ConditionalSampler::new(&probs[i..], r);
                let oracle = ReferenceSampler::new(&probs[i..], r);
                assert_eq!(fast.is_feasible(), oracle.is_feasible());
                let t = fast.thr[(r - 1) * (probs.len() - i)];
                if !fast.is_feasible() || t == 0 || t == u64::MAX {
                    continue;
                }
                for (m, low) in [(t - 1, 0), (t - 1, 0x7ff), (t, 0), (t, 0x7ff)] {
                    let mut words = vec![(m << 11) | low];
                    words.extend((1..probs.len()).map(|_| rest()));
                    let [a, b] = draw_both(&fast, &oracle, &words);
                    assert_eq!(a, b, "site {i}, r = {r}, word >> 11 = {m}, thr = {t}");
                    assert_eq!(a.0.first() == Some(&0), m < t);
                    checked += 1;
                }
            }
        }
        assert!(checked >= 40, "only {checked} boundary words checked");
    }

    #[test]
    fn rng_state_after_draws_matches_the_f64_walk() {
        // A memory-sized vector: heterogeneous sub-percent sites and idle ones.
        let mut g = lcg_stream(3);
        let probs: Vec<f64> = (0..1200)
            .map(|_| match g() % 4 {
                0 => 0.0,
                1 => 1e-3,
                2 => 2e-3 / 3.0,
                _ => 2e-3 * ((g() >> 11) as f64 / (1u64 << 53) as f64),
            })
            .collect();
        for w in 1..=5 {
            let fast = ConditionalSampler::new(&probs, w);
            let oracle = ReferenceSampler::new(&probs, w);
            let mut a = StdRng::seed_from_u64(w as u64);
            let mut b = a.clone();
            let (mut x, mut y) = (Vec::new(), Vec::new());
            for shot in 0..200 {
                fast.sample_into(&mut || a.next_u64(), &mut x);
                oracle.sample_into(&mut || b.gen::<f64>(), &mut y);
                assert_eq!(x, y, "w = {w}, shot {shot}");
            }
            assert_eq!(a, b, "w = {w}: streams diverged");
        }
    }

    /// Site probabilities spanning every regime the threshold must keep
    /// exact: impossible and forced sites, subnormals, underflow-prone
    /// products and ordinary rates.
    fn arb_prob() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(1.0),
            Just(f64::from_bits(1)),
            Just(2.5e-310),
            Just(1e-300),
            Just(1e-12),
            1e-4..0.05f64,
            0.0..1.0f64,
        ]
    }

    /// One word of a differential stream: half uniform, half with `>> 11`
    /// on a threshold boundary of `marks` (random low bits).
    fn boundary_word(rng: &mut StdRng, marks: &[u64]) -> u64 {
        if rng.gen_bool(0.5) {
            rng.next_u64()
        } else {
            (marks[rng.gen_range(0..marks.len())] << 11) | (rng.next_u64() & 0x7ff)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Failures name the word-stream seed; the vector and weight are in
        /// the message too.
        #[test]
        fn threshold_walk_matches_the_f64_walk(
            probs in proptest::collection::vec(arb_prob(), 0..=24),
            w in 0usize..=8,
            seed in 0u64..u64::MAX,
        ) {
            let w = w.min(probs.len());
            let fast = ConditionalSampler::new(&probs, w);
            let oracle = ReferenceSampler::new(&probs, w);
            prop_assert_eq!(
                fast.is_feasible(),
                oracle.is_feasible(),
                "seed {:#x}: probs {:?}, w = {}",
                seed,
                probs,
                w
            );
            if fast.is_feasible() {
                let mut marks: Vec<u64> = fast
                    .thr
                    .iter()
                    .filter(|&&t| t > 0 && t < 1 << 53)
                    .flat_map(|&t| [t - 1, t])
                    .collect();
                marks.extend([0, 1, (1 << 53) - 1]);
                let mut rng = StdRng::seed_from_u64(seed);
                for draw in 0..16 {
                    let words: Vec<u64> =
                        (0..probs.len()).map(|_| boundary_word(&mut rng, &marks)).collect();
                    let [a, b] = draw_both(&fast, &oracle, &words);
                    prop_assert_eq!(
                        &a,
                        &b,
                        "seed {:#x}, draw {}: probs {:?}, w = {}",
                        seed,
                        draw,
                        &probs,
                        w
                    );
                    prop_assert_eq!(a.0.len(), w);
                }
            }
        }
    }

    /// A site table of explicit trigger probabilities and variant weights.
    struct Sites {
        probs: Vec<f64>,
        weights: Vec<Vec<f64>>,
    }

    impl Sites {
        /// Every site with `variants` equally likely variants.
        fn uniform(probs: &[f64], variants: usize) -> Self {
            Sites {
                probs: probs.to_vec(),
                weights: vec![vec![1.0 / variants as f64; variants]; probs.len()],
            }
        }
    }

    impl FaultSites for Sites {
        fn trigger_probs(&self) -> &[f64] {
            &self.probs
        }

        fn variant_count(&self, site: usize) -> usize {
            self.weights[site].len()
        }

        fn variant_weight(&self, site: usize, variant: usize) -> f64 {
            self.weights[site][variant]
        }
    }

    #[test]
    fn enumeration_counts_and_normalizes() {
        // 3 sites × 3 variants each, weight 2: C(3,2)·3² = 27 configs.
        let probs = [0.01, 0.02, 0.03];
        let sites = Sites::uniform(&probs, 3);
        let configs = enumerate_configs(&sites, 2, 1_000).unwrap();
        assert_eq!(configs.len(), 27);
        let total: f64 = configs.iter().map(|c| c.weight).sum();
        assert!((total - 1.0).abs() < 1e-12);
        for c in &configs {
            assert_eq!(c.sites.len(), 2);
            assert!(c.weight > 0.0);
        }
        // Over budget: falls back to None.
        assert!(enumerate_configs(&sites, 2, 26).is_none());
    }

    #[test]
    fn enumeration_skips_zero_weight_variants_and_sites() {
        let probs = [0.1, 0.0, 0.1];
        // Site 0 has one effective variant of 3; site 2 has all 3.
        let vw = |i: usize, v: usize| -> f64 {
            if i == 0 {
                if v == 1 {
                    1.0
                } else {
                    0.0
                }
            } else {
                1.0 / 3.0
            }
        };
        let sites = Sites {
            probs: probs.to_vec(),
            weights: (0..3).map(|i| (0..3).map(|v| vw(i, v)).collect()).collect(),
        };
        let configs = enumerate_configs(&sites, 1, 100).unwrap();
        // Weight-1: site 0 (1 variant) + site 2 (3 variants) = 4 configs.
        assert_eq!(configs.len(), 4);
        assert!(configs.iter().all(|c| c.sites[0].0 != 1));
    }

    /// The recursive walk [`walk_configs`] replaces, kept as the oracle.
    #[allow(clippy::too_many_arguments)]
    fn dfs(
        probs: &[f64],
        effective: &[Vec<usize>],
        variant_weight: &dyn Fn(usize, usize) -> f64,
        i: usize,
        remaining: usize,
        product: f64,
        stack: &mut Vec<(usize, usize)>,
        out: &mut Vec<FaultConfig>,
    ) {
        if remaining == 0 {
            let idle: f64 = probs[i..].iter().map(|&p| 1.0 - p).product();
            out.push(FaultConfig {
                sites: stack.clone(),
                weight: product * idle,
            });
            return;
        }
        if i >= probs.len() {
            return;
        }
        dfs(
            probs,
            effective,
            variant_weight,
            i + 1,
            remaining,
            product * (1.0 - probs[i]),
            stack,
            out,
        );
        for &v in &effective[i] {
            stack.push((i, v));
            dfs(
                probs,
                effective,
                variant_weight,
                i + 1,
                remaining - 1,
                product * probs[i] * variant_weight(i, v),
                stack,
                out,
            );
            stack.pop();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn iterative_walk_matches_recursive_dfs(
            sites in proptest::collection::vec(
                (
                    prop_oneof![Just(0.0), Just(1.0), 1e-4..0.05f64, 0.0..1.0f64],
                    proptest::collection::vec(prop_oneof![Just(0.0), 0.0..1.0f64], 0..=4),
                ),
                0..=9,
            ),
            weight in 0usize..=4,
        ) {
            let table = Sites {
                probs: sites.iter().map(|s| s.0).collect(),
                weights: sites.iter().map(|s| s.1.clone()).collect(),
            };
            let effective: Vec<Vec<usize>> = sites
                .iter()
                .map(|(p, ws)| {
                    if *p <= 0.0 {
                        Vec::new()
                    } else {
                        (0..ws.len()).filter(|&v| ws[v] > 0.0).collect()
                    }
                })
                .collect();
            let mut iterative = Vec::new();
            walk_configs(&table, &effective, weight, &mut iterative);
            let mut recursive = Vec::new();
            let vw = |i: usize, v: usize| table.variant_weight(i, v);
            dfs(&table.probs, &effective, &vw, 0, weight, 1.0, &mut Vec::new(), &mut recursive);
            prop_assert_eq!(iterative.len(), recursive.len(), "{:?}, w = {}", &sites, weight);
            for (a, b) in iterative.iter().zip(&recursive) {
                prop_assert_eq!(&a.sites, &b.sites);
                prop_assert_eq!(a.weight.to_bits(), b.weight.to_bits(), "{:?}", &a.sites);
            }
        }
    }

    #[test]
    fn enumeration_over_many_sites_fits_a_small_thread_stack() {
        // 40 000 sites, 8 triggerable: the skip chain before the first
        // trigger is as long as the vector, and a recursive walk overflows
        // a 2 MiB stack on it.
        let configs = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let mut probs = vec![0.0; 40_000];
                for k in 0..8 {
                    probs[k * 5_000 + 17] = 1e-3 * (k + 1) as f64;
                }
                enumerate_configs(&Sites::uniform(&probs, 3), 1, 1_000)
            })
            .unwrap()
            .join()
            .expect("enumeration thread overflowed or panicked")
            .expect("24 configurations fit the budget");
        assert_eq!(configs.len(), 24);
        // Skip-first order: the last triggerable site comes out first.
        assert_eq!(configs[0].sites, vec![(35_017, 0)]);
        assert_eq!(configs[23].sites, vec![(17, 2)]);
        let total: f64 = configs.iter().map(|c| c.weight).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn enumerated_estimator_reproduces_analytic_rate() {
        // Failure iff weight ≥ 2: p_L = P(W ≥ 2) exactly.
        let prior = WeightPrior::binomial(8, 0.05);
        let expect = prior.tail_above(1);
        let config = RareConfig {
            max_strata: 9,
            rel_tol: 0.0,
            abs_tol: 1e-18,
            ..RareConfig::default()
        };
        let outcome = StratifiedEstimator::new(&prior, config).run(|w| StratumEval::Enumerated {
            failure_probability: if w >= 2 { 1.0 } else { 0.0 },
            configs: 1,
        });
        assert!(outcome.is_converged());
        let report = outcome.report();
        assert!(
            (report.p_l - expect).abs() < 1e-15,
            "{} vs {expect}",
            report.p_l
        );
        assert_eq!(report.sigma, 0.0);
        assert!(report.truncation_bound <= 1e-18);
        assert_eq!(report.equivalent_plain_shots(), f64::INFINITY);
    }

    #[test]
    fn sampled_strata_contribute_variance() {
        let prior = WeightPrior::binomial(10, 0.1);
        let config = RareConfig {
            max_strata: 3,
            rel_tol: 1.0,
            abs_tol: 0.0,
            ..RareConfig::default()
        };
        let outcome = StratifiedEstimator::new(&prior, config).run(|_| StratumEval::Sampled {
            failures: 25,
            shots: 100,
        });
        let report = outcome.report();
        let f = 0.25;
        let expect_var: f64 = (0..3)
            .map(|w| {
                let pw = prior.pmf(w);
                pw * pw * f * (1.0 - f) / 100.0
            })
            .sum();
        assert!((report.sigma - expect_var.sqrt()).abs() < 1e-15);
        assert_eq!(report.total_shots, 300);
        assert!(report.equivalent_plain_shots().is_finite());
    }

    #[test]
    fn zero_noise_converges_at_weight_zero() {
        let prior = WeightPrior::binomial(50, 0.0);
        let outcome = StratifiedEstimator::new(&prior, RareConfig::default()).run(|w| {
            assert_eq!(w, 0);
            StratumEval::Enumerated {
                failure_probability: 0.0,
                configs: 1,
            }
        });
        assert!(outcome.is_converged());
        let report = outcome.report();
        assert_eq!(report.p_l, 0.0);
        assert_eq!(report.truncation_bound, 0.0);
        assert_eq!(report.strata.len(), 1);
    }

    #[test]
    fn certain_noise_skips_zero_prior_strata() {
        // Every site fires: only the w = n stratum has mass.
        let prior = WeightPrior::binomial(3, 1.0);
        let mut evaluated = Vec::new();
        let outcome = StratifiedEstimator::new(&prior, RareConfig::default()).run(|w| {
            evaluated.push(w);
            StratumEval::Enumerated {
                failure_probability: 1.0,
                configs: 1,
            }
        });
        assert_eq!(evaluated, vec![3], "only the full-weight stratum has mass");
        assert!(outcome.is_converged());
        let report = outcome.report();
        assert_eq!(report.p_l, 1.0);
        assert_eq!(report.strata.len(), 4);
        assert!(report.strata[..3].iter().all(|s| s.prior == 0.0));
    }

    #[test]
    fn zero_strata_is_unconverged_with_full_truncation() {
        let prior = WeightPrior::binomial(5, 0.1);
        let config = RareConfig {
            max_strata: 0,
            ..RareConfig::default()
        };
        let outcome =
            StratifiedEstimator::new(&prior, config).run(|_| unreachable!("no strata requested"));
        assert!(!outcome.is_converged());
        let report = outcome.report();
        assert_eq!(report.p_l, 0.0);
        assert_eq!(report.truncation_bound, 1.0);
        assert!(report.strata.is_empty());
    }

    #[test]
    fn exhausted_strata_yield_unconverged() {
        let prior = WeightPrior::binomial(20, 0.3);
        let config = RareConfig {
            max_strata: 2,
            rel_tol: 0.0,
            abs_tol: 1e-12,
            ..RareConfig::default()
        };
        let outcome = StratifiedEstimator::new(&prior, config).run(|_| StratumEval::Sampled {
            failures: 0,
            shots: 10,
        });
        assert!(!outcome.is_converged());
        let report = outcome.report();
        assert!(report.truncation_bound > 1e-12);
        assert_eq!(report.strata.len(), 2);
    }

    #[test]
    fn zero_shot_strata_are_charged_to_truncation() {
        let prior = WeightPrior::binomial(4, 0.2);
        let config = RareConfig {
            max_strata: 5,
            rel_tol: 0.0,
            abs_tol: 0.0,
            ..RareConfig::default()
        };
        let outcome = StratifiedEstimator::new(&prior, config).run(|_| StratumEval::Sampled {
            failures: 0,
            shots: 0,
        });
        assert!(!outcome.is_converged());
        let report = outcome.report();
        // Every stratum unresolved: the bound is the entire prior mass.
        assert!(
            (report.truncation_bound - 1.0).abs() < 1e-12,
            "bound {}",
            report.truncation_bound
        );
    }

    #[test]
    fn per_round_conversion() {
        let report = RareReport {
            p_l: 1e-6,
            sigma: 1e-8,
            truncation_bound: 1e-9,
            strata: Vec::new(),
            total_shots: 0,
            num_sites: 10,
        };
        let per_round = report.per_round(5);
        assert!(per_round > 0.0 && per_round < report.p_l);
        assert!((1.0 - (1.0 - per_round).powi(5) - report.p_l).abs() < 1e-12);
        assert_eq!(report.per_round(0), 0.0);
    }

    #[test]
    fn driver_enumerates_up_to_the_threshold_and_samples_beyond() {
        // 4 sites × 3 variants: 12 weight-1 configurations.
        let table = Sites::uniform(&[0.01, 0.02, 0.03, 0.04], 3);
        let walk = |threshold: u64| {
            let config = RareConfig {
                max_strata: 2,
                rel_tol: 0.0,
                abs_tol: 0.0,
                shots_per_stratum: 100,
                enumerate_threshold: threshold,
            };
            let calls = std::cell::RefCell::new(Vec::new());
            let outcome = stratified(
                &table,
                config,
                5,
                None,
                |configs| {
                    calls
                        .borrow_mut()
                        .push(format!("enumerated {}", configs.len()));
                    Ok(0.5)
                },
                |sampler, shots, seed| {
                    assert!(sampler.is_feasible());
                    calls.borrow_mut().push(format!("sampled {shots} {seed:x}"));
                    Ok(25)
                },
            )
            .unwrap();
            (outcome, calls.into_inner())
        };
        let (outcome, calls) = walk(12);
        assert_eq!(calls, ["enumerated 1", "enumerated 12"]);
        assert!(outcome.report().strata[1].enumerated);
        let (outcome, calls) = walk(11);
        let sampled = format!("sampled 100 {:x}", shard_seed(5, 1));
        assert_eq!(calls, ["enumerated 1".to_string(), sampled]);
        let stratum = outcome.report().strata[1];
        assert!(!stratum.enumerated);
        assert_eq!((stratum.failures, stratum.shots), (25, 100));
    }

    #[test]
    fn driver_returns_cancelled_for_a_fired_token() {
        let table = Sites::uniform(&[0.1; 6], 1);
        let config = RareConfig {
            enumerate_threshold: 1,
            ..RareConfig::default()
        };
        let fired = CancelToken::new();
        fired.cancel();
        let outcome = stratified(
            &table,
            config,
            1,
            Some(&fired),
            |_| unreachable!("no stratum runs under a fired token"),
            |_, _, _| unreachable!("no stratum runs under a fired token"),
        );
        assert_eq!(outcome, Err(Cancelled));
        // A token fired inside an evaluation winds the walk down.
        let token = CancelToken::new();
        let mut strata = 0;
        let outcome = stratified(
            &table,
            config,
            1,
            Some(&token),
            |_| Ok(0.0),
            |_, _, _| {
                strata += 1;
                token.cancel();
                Err(Cancelled)
            },
        );
        assert_eq!(outcome, Err(Cancelled));
        assert_eq!(strata, 1, "the walk stops sampling once cancelled");
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn prior_rejects_invalid_probability() {
        WeightPrior::poisson_binomial(&[0.5, 1.5]);
    }
}
