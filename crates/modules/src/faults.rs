//! Fault-site programs and drivers: the seam between the module
//! Monte-Carlo shots and the rare-event estimator.
//!
//! The UEC and baseline simulators visit their fault sites in a **static
//! order** — the sequence of [`FaultDriver`] calls a shot makes never
//! depends on sampled outcomes. Each module therefore compiles its cycle
//! once, in `new`, into a flat [`SiteProgram`]: Pauli sites (a qubit and
//! its precomputed thresholds) and measurements (stabilizer masks, a
//! syndrome bit and an ancilla-flip probability). [`SiteProgram::run`]
//! interprets it over a two-word [`Frame`], and that one interpreter turns
//! into three estimators by its driver:
//!
//! * [`RngFaults`] draws every site from an RNG — the Monte-Carlo path,
//!   consuming one `u64` per Pauli site with positive total probability
//!   and one per ancilla-flip site unconditionally, so seeds and goldens
//!   keep their bits.
//! * [`RecordFaults`] applies nothing and writes each site into a
//!   [`FaultModel`] — one "dry" shot yields the full site table from which
//!   the Poisson-binomial weight prior is built and conditioned variants
//!   are drawn.
//! * [`ForcedFaults`] replays a fixed weight-`w` fault configuration — the
//!   conditioned shots of the stratified estimator.
//!
//! A module implements [`ShotModel`] once, and [`estimate`] wires the
//! three drivers together into either estimator — plain Monte Carlo or the
//! weight-stratified driver [`hetarch_exec::rare::stratified`] — on any
//! pool, with or without a cancellation token.

use hetarch_exec::rare::{self, RareConfig, RareOutcome};
use hetarch_exec::{CancelToken, Cancelled, Shard, WorkerPool};
use hetarch_obs as obs;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use hetarch_qsim::channels::PauliProbs;
use hetarch_stab::circuit::PauliErr;
use hetarch_stab::codes::StabilizerCode;
use hetarch_stab::frame::FaultModel;
use hetarch_stab::pauli::{Pauli, PauliString};

#[cfg(test)]
mod reference;

/// A phase-free Pauli operator on at most 64 qubits: bit `q` of `x` / `z`
/// is the X / Z component on qubit `q`. It is the error frame of one shot,
/// and the mask form of stabilizers, logicals and corrections.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Frame {
    /// X components.
    pub x: u64,
    /// Z components.
    pub z: u64,
}

impl Frame {
    /// The masks of `p`, sign dropped.
    ///
    /// # Panics
    ///
    /// Panics if `p` acts on more than 64 qubits.
    pub fn of(p: &PauliString) -> Self {
        assert!(
            p.num_qubits() <= 64,
            "a frame holds at most 64 qubits, got {}",
            p.num_qubits()
        );
        Frame {
            x: p.x_word(0),
            z: p.z_word(0),
        }
    }

    /// True when `self` and `other` anticommute (odd symplectic overlap).
    #[inline]
    pub fn anticommutes(self, other: Frame) -> bool {
        ((self.x & other.z) ^ (self.z & other.x)).count_ones() & 1 == 1
    }

    /// XORs Pauli `p` onto the qubit whose bit is `bit`.
    #[inline]
    pub fn apply(&mut self, bit: u64, p: Pauli) {
        let (x, z) = p.xz();
        if x {
            self.x ^= bit;
        }
        if z {
            self.z ^= bit;
        }
    }
}

impl std::ops::BitXorAssign for Frame {
    #[inline]
    fn bitxor_assign(&mut self, other: Frame) {
        self.x ^= other.x;
        self.z ^= other.z;
    }
}

/// Panics unless every qubit of `code` fits one [`Frame`] bit.
pub(crate) fn assert_frame_width(code: &StabilizerCode) {
    assert!(
        code.num_qubits() <= 64,
        "{} has {} qubits; module shots track the error in a Pauli frame of at most 64 qubits",
        code.name(),
        code.num_qubits()
    );
}

/// One Pauli fault site of a [`SiteProgram`]: the qubit it acts on, its
/// per-Pauli probabilities, and the integer thresholds [`RngFaults`]
/// compares a draw against.
///
/// A draw is one word `u`; the vendored `gen::<f64>()` maps it to
/// `r = k · 2^-53` with `k = u >> 11`, exactly. For an integer `k` and
/// any real `t`, `k · 2^-53 < t` iff `k < ceil(t · 2^53)`, and `t · 2^53`
/// is exact in `f64`, so `threshold` turns each comparison of the
/// historical f64 sampler into an integer one with the same outcome for
/// every word: `r < px`, `r < px + py` (that f64 sum) and the trigger
/// test `!(r >= total)`, which holds for every `r` when `total` is NaN.
/// The trigger threshold is zero exactly when `total <= 0.0`, the case
/// that draws nothing.
#[derive(Clone, Copy, Debug)]
pub struct PauliSite {
    bit: u64,
    probs: PauliProbs,
    fire: u64,
    x: u64,
    xy: u64,
}

impl PauliSite {
    /// A site on qubit `q` (`q < 64`) with probabilities `probs`.
    pub fn new(q: usize, probs: PauliProbs) -> Self {
        assert!(q < 64, "qubit {q} does not fit a 64-qubit frame");
        let total = probs.total();
        PauliSite {
            bit: 1 << q,
            probs,
            fire: if total.is_nan() {
                u64::MAX
            } else {
                threshold(total)
            },
            x: threshold(probs.px),
            xy: threshold(probs.px + probs.py),
        }
    }

    /// The site's per-Pauli probabilities.
    pub fn probs(&self) -> PauliProbs {
        self.probs
    }
}

/// `ceil(t · 2^53)` as an integer: the `k = u >> 11` with `k · 2^-53 < t`
/// are exactly those below it. NaN and `t <= 0` give 0 (nothing is
/// below), and the cast saturates for `t · 2^53 >= 2^64`.
fn threshold(t: f64) -> u64 {
    (t * (1u64 << 53) as f64).ceil() as u64
}

/// One instruction of a [`SiteProgram`].
#[derive(Clone, Copy, Debug)]
enum SiteOp {
    /// A Pauli fault site.
    Pauli(PauliSite),
    /// A stabilizer measurement: the accumulated frame's parity against
    /// `stabilizer`, XOR one ancilla-flip site of probability `p_flip`,
    /// sets `bit` of the measured syndrome.
    Measure {
        stabilizer: Frame,
        bit: u64,
        p_flip: f64,
    },
}

/// A module cycle compiled into its static fault-site order.
///
/// Built once per module; [`SiteProgram::run`] interprets it for one shot
/// without allocating.
#[derive(Clone, Debug, Default)]
pub struct SiteProgram {
    ops: Vec<SiteOp>,
}

impl SiteProgram {
    /// Appends a Pauli fault site on qubit `q`.
    pub fn pauli(&mut self, q: usize, probs: PauliProbs) {
        self.ops.push(SiteOp::Pauli(PauliSite::new(q, probs)));
    }

    /// Appends the measurement of stabilizer `index` (its Pauli string
    /// `stabilizer`) with one ancilla-flip site of probability `p_flip`.
    pub fn measure(&mut self, index: usize, stabilizer: &PauliString, p_flip: f64) {
        assert!(index < 64, "syndrome bit {index} does not fit a word");
        self.ops.push(SiteOp::Measure {
            stabilizer: Frame::of(stabilizer),
            bit: 1 << index,
            p_flip,
        });
    }

    /// Runs one shot against `driver`: returns the measured syndrome and
    /// the final error frame.
    #[inline]
    pub fn run<D: FaultDriver + ?Sized>(&self, driver: &mut D) -> (u64, Frame) {
        let mut frame = Frame::default();
        let mut syndrome = 0u64;
        for op in &self.ops {
            match op {
                SiteOp::Pauli(site) => frame.apply(site.bit, driver.pauli_site(site)),
                SiteOp::Measure {
                    stabilizer,
                    bit,
                    p_flip,
                } => {
                    let flipped = driver.flip_site(*p_flip);
                    if stabilizer.anticommutes(frame) != flipped {
                        syndrome |= bit;
                    }
                }
            }
        }
        (syndrome, frame)
    }
}

/// One shot's source of fault decisions.
///
/// A shot calls [`FaultDriver::pauli_site`] once per potential Pauli
/// fault location and [`FaultDriver::flip_site`] once per potential
/// classical-flip location, always in the same order.
pub trait FaultDriver {
    /// Visits a Pauli fault site; returns the Pauli that fired there
    /// ([`Pauli::I`] when none did). The caller applies it to its frame.
    fn pauli_site(&mut self, site: &PauliSite) -> Pauli;

    /// Visits a classical bit-flip site of probability `p`; returns whether
    /// the flip fires.
    fn flip_site(&mut self, p: f64) -> bool;
}

/// The Monte-Carlo driver: sample every site from `rng`.
///
/// Stream contract: a Pauli site consumes one variate iff its total
/// probability is positive — the same draw `r` decides both whether the
/// site triggers (`r < total`) and which Pauli it deposits (X below `px`,
/// Y below `px + py`, else Z) — and a flip site always consumes exactly
/// one variate.
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
    #[inline]
    fn pauli_site(&mut self, site: &PauliSite) -> Pauli {
        if site.fire == 0 {
            return Pauli::I;
        }
        let k = self.rng.next_u64() >> 11;
        if k >= site.fire {
            Pauli::I
        } else if k < site.x {
            Pauli::X
        } else if k < site.xy {
            Pauli::Y
        } else {
            Pauli::Z
        }
    }

    #[inline]
    fn flip_site(&mut self, p: f64) -> bool {
        self.rng.gen::<f64>() < p
    }
}

/// A dry-run driver that records each visited site into a [`FaultModel`]
/// without injecting any fault: Pauli sites with their X/Y/Z
/// probabilities, flip sites with theirs, triggers capped at 1.
#[derive(Clone, Debug, Default)]
pub struct RecordFaults {
    sites: FaultModel,
}

impl RecordFaults {
    /// An empty recorder.
    pub fn new() -> Self {
        RecordFaults::default()
    }

    /// The recorded site table, in visit order.
    pub fn into_model(self) -> FaultModel {
        self.sites
    }
}

impl FaultDriver for RecordFaults {
    fn pauli_site(&mut self, site: &PauliSite) -> Pauli {
        let p = site.probs;
        self.sites.push_pauli(PauliErr {
            px: p.px,
            py: p.py,
            pz: p.pz,
        });
        Pauli::I
    }

    fn flip_site(&mut self, p: f64) -> bool {
        self.sites.push_flip(p);
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
    fn pauli_site(&mut self, _site: &PauliSite) -> Pauli {
        match self.next() {
            None => Pauli::I,
            Some(0) => Pauli::X,
            Some(1) => Pauli::Y,
            Some(_) => Pauli::Z,
        }
    }

    fn flip_site(&mut self, _p: f64) -> bool {
        self.next().is_some()
    }
}

/// Shots per shard of every module Monte-Carlo loop, plain and conditioned.
/// Fixed (never derived from the worker count) so shard boundaries — and
/// therefore results — are identical for every worker count.
const MC_SHARD_SHOTS: usize = 512;

/// The obs metrics one shot model reports under (no-ops unless the `obs`
/// feature is on and `HETARCH_OBS=1`).
pub struct ShotMetrics {
    shots: obs::Counter,
    failures: obs::Counter,
    run_ns: obs::Histogram,
}

impl ShotMetrics {
    /// Metrics named `shots`, `failures` and `run_ns`; `const`, so they can
    /// live in a `static`.
    pub const fn new(shots: &'static str, failures: &'static str, run_ns: &'static str) -> Self {
        ShotMetrics {
            shots: obs::Counter::new(shots),
            failures: obs::Counter::new(failures),
            run_ns: obs::Histogram::new(run_ns),
        }
    }
}

/// A static-order shot body: one simulated cycle that visits its fault
/// sites through a [`FaultDriver`] in an order that never depends on
/// sampled outcomes, and reports whether the cycle failed.
///
/// That property is what lets [`estimate`] run the same body as plain
/// Monte Carlo ([`RngFaults`]), as the dry site recorder ([`RecordFaults`])
/// and as the conditioned replays of the rare-event estimator
/// ([`ForcedFaults`]).
pub trait ShotModel: Sync {
    /// The metrics this model's runs are counted and timed under.
    fn metrics(&self) -> &'static ShotMetrics;

    /// Runs one shot against `driver`; returns whether it failed.
    fn run_shot<D: FaultDriver>(&self, driver: &mut D) -> bool;
}

/// Which estimator [`estimate`] runs.
#[derive(Clone, Copy, Debug)]
pub enum Estimator {
    /// Plain Monte Carlo over `shots` shots.
    Plain {
        /// Shots to simulate.
        shots: usize,
    },
    /// The weight-stratified rare-event estimator (see
    /// [`hetarch_exec::rare`]), which resolves rates far below `1/shots`
    /// with an explicit sigma and truncation bound.
    Rare(RareConfig),
}

/// Where and how an [`estimate`] runs.
#[derive(Clone, Copy, Debug)]
pub struct RunCtx<'a> {
    /// The pool the shards run on.
    pub pool: &'a WorkerPool,
    /// Master seed of every shard and stratum stream.
    pub seed: u64,
    /// A cooperative cancellation token, checked between shards (and
    /// periodically inside enumerated strata).
    pub cancel: Option<&'a CancelToken>,
}

/// The result of [`estimate`].
#[derive(Clone, Debug, PartialEq)]
pub enum Estimate {
    /// `failures` of `shots` plain Monte-Carlo shots failed.
    Plain {
        /// Failed shots.
        failures: usize,
        /// Simulated shots.
        shots: usize,
    },
    /// The stratified estimate with its error budget.
    Rare(RareOutcome),
}

impl Estimate {
    /// The point estimate of the per-shot failure probability (zero for a
    /// plain run of zero shots).
    pub fn rate(&self) -> f64 {
        match self {
            Estimate::Plain { shots: 0, .. } => 0.0,
            Estimate::Plain { failures, shots } => *failures as f64 / *shots as f64,
            Estimate::Rare(outcome) => outcome.report().p_l,
        }
    }

    /// The rare-event outcome, if this came from [`Estimator::Rare`].
    pub fn into_rare(self) -> Option<RareOutcome> {
        match self {
            Estimate::Plain { .. } => None,
            Estimate::Rare(outcome) => Some(outcome),
        }
    }
}

/// Estimates `model`'s per-shot failure probability.
///
/// * [`Estimator::Plain`] runs shards of 512 shots, each on its own
///   `StdRng::seed_from_u64(shard.seed)` stream through [`RngFaults`].
/// * [`Estimator::Rare`] records the static site table with one
///   [`RecordFaults`] dry shot and hands it to
///   [`hetarch_exec::rare::stratified`], which enumerates a stratum of at
///   most `enumerate_threshold` fault configurations exactly and samples a
///   larger one: `shots_per_stratum` conditioned shots, sharded like the
///   plain path under the per-stratum seed `shard_seed(seed, w)`.
///
/// Shard boundaries and streams depend only on the estimator and `seed`,
/// so the result is **bit-identical for every worker count**, and an
/// uncancelled run with a token is bit-identical to one without. A token
/// that fires mid-run returns [`Cancelled`] instead of a partial result.
pub fn estimate(
    model: &impl ShotModel,
    estimator: Estimator,
    ctx: &RunCtx<'_>,
) -> Result<Estimate, Cancelled> {
    let metrics = model.metrics();
    match estimator {
        Estimator::Plain { shots } => {
            let span = obs::span!(metrics.run_ns);
            let counts = run_shards(ctx, shots, ctx.seed, |shard| {
                let mut rng = StdRng::seed_from_u64(shard.seed);
                (0..shard.len)
                    .filter(|_| model.run_shot(&mut RngFaults::new(&mut rng)))
                    .count()
            })?;
            drop(span);
            let failures: usize = counts.into_iter().sum();
            metrics.shots.add(shots as u64);
            metrics.failures.add(failures as u64);
            Ok(Estimate::Plain { failures, shots })
        }
        Estimator::Rare(config) => {
            let mut recorder = RecordFaults::new();
            model.run_shot(&mut recorder);
            let sites = recorder.into_model();
            let span = obs::span!(metrics.run_ns);
            let outcome = stratified(model, &sites, config, ctx)?;
            drop(span);
            metrics.shots.add(outcome.report().total_shots as u64);
            Ok(Estimate::Rare(outcome))
        }
    }
}

/// The plain Monte-Carlo rate of `model`: the convenience path behind every
/// module's `logical_error_rate_on`.
pub(crate) fn plain_rate(
    model: &impl ShotModel,
    pool: &WorkerPool,
    shots: usize,
    seed: u64,
) -> f64 {
    let ctx = RunCtx {
        pool,
        seed,
        cancel: None,
    };
    estimate(model, Estimator::Plain { shots }, &ctx)
        .expect("no token, no cancellation")
        .rate()
}

/// Runs `f` over the shards of `total` shots, checking `ctx.cancel` between
/// shards when a token is given.
fn run_shards<F>(ctx: &RunCtx<'_>, total: usize, seed: u64, f: F) -> Result<Vec<usize>, Cancelled>
where
    F: Fn(&Shard) -> usize + Sync,
{
    match ctx.cancel {
        None => Ok(ctx.pool.run_shards(total, MC_SHARD_SHOTS, seed, f)),
        Some(token) => ctx
            .pool
            .try_run_shards(total, MC_SHARD_SHOTS, seed, token, f),
    }
}

/// The module source of [`hetarch_exec::rare::stratified`]: enumerated
/// configurations replay one by one through [`ForcedFaults`], checking the
/// token every 64; a sampled stratum runs 512-shot shards, each drawing
/// subsets and variants from one `StdRng` seeded by its shard seed.
fn stratified(
    model: &impl ShotModel,
    sites: &FaultModel,
    config: RareConfig,
    ctx: &RunCtx<'_>,
) -> Result<RareOutcome, Cancelled> {
    let cancelled = || ctx.cancel.is_some_and(CancelToken::is_cancelled);
    let n = sites.num_sites();
    rare::stratified(
        sites,
        config,
        ctx.seed,
        ctx.cancel,
        |configs| {
            let mut driver = ForcedFaults::new(n, &[]);
            let mut failure_probability = 0.0;
            for (k, cfg) in configs.iter().enumerate() {
                if k % 64 == 0 && cancelled() {
                    return Err(Cancelled);
                }
                driver.reset(&cfg.sites);
                if model.run_shot(&mut driver) {
                    failure_probability += cfg.weight;
                }
            }
            Ok(failure_probability)
        },
        |sampler, shots, seed| {
            let counts = run_shards(ctx, shots, seed, |shard| {
                let mut rng = StdRng::seed_from_u64(shard.seed);
                let mut subset = Vec::new();
                let mut hits: Vec<(usize, usize)> = Vec::new();
                let mut driver = ForcedFaults::new(n, &[]);
                (0..shard.len)
                    .filter(|_| {
                        sampler.sample_into(&mut || rng.next_u64(), &mut subset);
                        hits.clear();
                        for &i in &subset {
                            hits.push((i, sites.sample_variant(i, &mut rng)));
                        }
                        driver.reset(&hits);
                        model.run_shot(&mut driver)
                    })
                    .count()
            })?;
            Ok(counts.into_iter().sum::<usize>() as u64)
        },
    )
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
        let mut frame = Frame::default();
        for p in [
            probs(0.01, 0.0, 0.0),
            probs(0.02, 0.0, 0.005),
            probs(0.0, 0.0, 0.0),
        ] {
            frame.apply(1, driver.pauli_site(&PauliSite::new(0, p)));
        }
        let flipped = driver.flip_site(0.03);
        frame.x & 1 == 1 || flipped
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
                use reference::sample_pauli_into;
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
        assert_eq!(
            a, b,
            "driver and inlined sampling consumed different streams"
        );
    }

    #[test]
    fn recorder_captures_static_site_table() {
        use hetarch_exec::rare::FaultSites;
        let mut rec = RecordFaults::new();
        let failed = toy_shot(&mut rec);
        assert!(!failed, "recorder must not inject faults");
        let sites = rec.into_model();
        assert_eq!(sites.num_sites(), 4);
        assert_eq!(sites.trigger_probs(), [0.01, 0.025, 0.0, 0.03]);
        assert_eq!(sites.variant_count(1), 3);
        assert_eq!(sites.variant_count(3), 1);
        // Variant weights are conditional on triggering.
        assert!((sites.variant_weight(1, 0) - 0.02 / 0.025).abs() < 1e-15);
        assert!((sites.variant_weight(1, 2) - 0.005 / 0.025).abs() < 1e-15);
        assert_eq!(sites.variant_weight(3, 0), 1.0);
    }

    #[test]
    fn recorded_triggers_are_capped_at_one() {
        use hetarch_exec::rare::FaultSites;
        let mut rec = RecordFaults::new();
        rec.pauli_site(&PauliSite::new(0, probs(0.6, 0.5, 0.0)));
        rec.pauli_site(&PauliSite::new(0, probs(f64::NAN, 0.0, 0.0)));
        rec.flip_site(1.5);
        rec.flip_site(f64::NAN);
        let sites = rec.into_model();
        assert_eq!(sites.trigger_probs(), [1.0; 4]);
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

    static TOY_METRICS: ShotMetrics =
        ShotMetrics::new("test.toy.shots", "test.toy.failures", "test.toy.run_ns");

    /// [`toy_shot`] as a shot model.
    struct Toy;

    impl ShotModel for Toy {
        fn metrics(&self) -> &'static ShotMetrics {
            &TOY_METRICS
        }

        fn run_shot<D: FaultDriver>(&self, driver: &mut D) -> bool {
            toy_shot(driver)
        }
    }

    fn run(
        model: &impl ShotModel,
        estimator: Estimator,
        pool: &WorkerPool,
        seed: u64,
        cancel: Option<&CancelToken>,
    ) -> Result<Estimate, Cancelled> {
        estimate(model, estimator, &RunCtx { pool, seed, cancel })
    }

    /// Forces the conditioned-sampling path on every stratum, with more
    /// shots per stratum than one 512-shot shard.
    const SAMPLED: RareConfig = RareConfig {
        max_strata: 3,
        rel_tol: 0.5,
        abs_tol: 1e-30,
        shots_per_stratum: 1_300,
        enumerate_threshold: 0,
    };

    #[test]
    fn rare_estimate_matches_analytic_toy_rate() {
        // Exact failure probability of `toy_shot` under independent sites:
        // fail unless (no X deposited net) and (no flip). Sites 0 and 1
        // deposit X with prob 0.01 and 0.02; two X's cancel.
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
        let outcome = run(&Toy, Estimator::Rare(config), &pool, 7, None)
            .unwrap()
            .into_rare()
            .unwrap();
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
        let runs: Vec<_> = [1usize, 2, 8]
            .iter()
            .map(|&workers| {
                let pool = WorkerPool::new(workers);
                run(&Toy, Estimator::Rare(SAMPLED), &pool, 13, None).unwrap()
            })
            .collect();
        assert!(runs[0].clone().into_rare().unwrap().report().total_shots > 1_300);
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
    }

    #[test]
    fn plain_estimate_counts_failures() {
        let pool = WorkerPool::new(2);
        let est = run(&Toy, Estimator::Plain { shots: 1_300 }, &pool, 3, None).unwrap();
        let Estimate::Plain { failures, shots } = est else {
            panic!("plain estimator returned {est:?}");
        };
        assert_eq!(shots, 1_300);
        assert!(failures > 0 && failures < shots);
        assert_eq!(est.rate(), failures as f64 / 1_300.0);
        let none = run(&Toy, Estimator::Plain { shots: 0 }, &pool, 3, None).unwrap();
        assert_eq!(none.rate(), 0.0);
    }

    /// The bit-identity and cancellation table over the toy and every
    /// module shot model, and both estimators: (a) an unfired token changes nothing,
    /// (b) a token fired beforehand returns [`Cancelled`], (c) the result
    /// is the same at 1, 3 and 8 workers.
    #[test]
    fn estimates_are_token_and_worker_invariant() {
        use crate::baseline::HomModule;
        use crate::uec::{ChainUecModule, UecModule, UecNoise};
        use hetarch_cells::UscCell;
        use hetarch_devices::catalog::{coherence_limited_compute, coherence_limited_storage};
        use hetarch_stab::codes::{rotated_surface_code, steane};

        fn check(name: &str, model: &impl ShotModel) {
            let rare = RareConfig {
                max_strata: 4,
                rel_tol: 0.5,
                shots_per_stratum: 1_100,
                enumerate_threshold: 64,
                ..RareConfig::default()
            };
            for estimator in [Estimator::Plain { shots: 1_300 }, Estimator::Rare(rare)] {
                let pool = WorkerPool::new(3);
                let reference = run(model, estimator, &pool, 41, None).unwrap();
                let reference = format!("{reference:?}");
                let fresh = CancelToken::new();
                let tried = run(model, estimator, &pool, 41, Some(&fresh)).unwrap();
                assert_eq!(
                    format!("{tried:?}"),
                    reference,
                    "{name} {estimator:?}: token"
                );
                let fired = CancelToken::new();
                fired.cancel();
                assert_eq!(
                    run(model, estimator, &pool, 41, Some(&fired)),
                    Err(Cancelled),
                    "{name} {estimator:?}: fired token"
                );
                for workers in [1, 8] {
                    let other = run(model, estimator, &WorkerPool::new(workers), 41, None).unwrap();
                    assert_eq!(
                        format!("{other:?}"),
                        reference,
                        "{name} {estimator:?}: {workers} workers"
                    );
                }
            }
        }

        let usc = UscCell::new(
            coherence_limited_compute(0.5e-3),
            coherence_limited_storage(5e-3),
        )
        .unwrap()
        .characterize();
        let noise = UecNoise::default();
        check("toy", &Toy);
        check("UEC Steane", &UecModule::new(steane(), usc.clone(), noise));
        check(
            "Hom SC3",
            &HomModule::new(rotated_surface_code(3), 0.5e-3, noise),
        );
        check(
            "Chain Steane",
            &ChainUecModule::new(steane(), usc, 2, noise),
        );
    }
}
