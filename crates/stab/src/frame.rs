//! Batched Pauli-frame Monte-Carlo sampler.
//!
//! The frame sampler is the scalability core of the stabilizer substrate
//! (the role Stim's frame simulator plays in the paper's evaluation): instead
//! of simulating quantum states, it tracks only the difference (a Pauli
//! "frame") between each noisy shot and the noiseless reference execution.
//! Frames propagate through Clifford gates with bit operations, 64 shots per
//! machine word.
//!
//! Measurement record bits are reported as *flips* relative to the reference
//! sample produced by the tableau simulator; detectors and observables are
//! assembled from those flips by [`crate::detector`].

use hetarch_exec::rare::{
    enumerate_configs, ConditionalSampler, FaultConfig, FaultSites, WeightPrior,
};
use hetarch_exec::{shard_seed, WorkerPool};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::bits::BitTable;
use crate::circuit::{Circuit, Gate1, Gate2, Instruction, PauliErr};

/// Shots per shard of a sharded [`FrameSampler::sample`] run. Word-aligned
/// (a multiple of 64) so shard outputs splice into the merged table by whole
/// words; fixed, so shard boundaries never depend on the worker count.
pub const SHARD_SHOTS: usize = 4096;

/// Batched Pauli frames for `shots` parallel Monte-Carlo executions.
#[derive(Clone, Debug)]
pub struct FrameSampler {
    num_qubits: usize,
    shots: usize,
    words: usize,
    /// X-frame bits, `[qubit][word]`.
    x: Vec<u64>,
    /// Z-frame bits.
    z: Vec<u64>,
    rng: StdRng,
}

/// Measurement-flip output of a frame-sampled circuit execution.
#[derive(Clone, Debug)]
pub struct FrameResult {
    /// `num_measurements × shots` flip bits relative to the reference sample.
    pub meas_flips: BitTable,
}

impl FrameSampler {
    /// Creates a sampler for `num_qubits` qubits and `shots` parallel shots.
    pub fn new(num_qubits: usize, shots: usize, seed: u64) -> Self {
        assert!(shots > 0, "need at least one shot");
        let words = shots.div_ceil(64);
        FrameSampler {
            num_qubits,
            shots,
            words,
            x: vec![0; num_qubits * words],
            z: vec![0; num_qubits * words],
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Number of parallel shots.
    pub fn shots(&self) -> usize {
        self.shots
    }

    /// Samples `shots` executions of `circuit`, sharded across `pool`.
    ///
    /// Shots are split into word-aligned shards of [`SHARD_SHOTS`]; shard
    /// `i` runs an independent sampler seeded with
    /// `hetarch_exec::shard_seed(seed, i)` and the per-shard flip tables are
    /// spliced back in shard order. Shard boundaries and seeds depend only
    /// on `(shots, seed)`, so the result is **bit-identical for every worker
    /// count** (but differs from a monolithic [`FrameSampler::run`] with the
    /// same seed, which consumes one continuous RNG stream).
    ///
    /// `shots == 0` returns an empty flip table.
    pub fn sample(circuit: &Circuit, shots: usize, seed: u64, pool: &WorkerPool) -> FrameResult {
        let num_qubits = circuit.num_qubits() as usize;
        let mut meas_flips = BitTable::new(circuit.num_measurements(), shots);
        let parts = pool.run_shards(shots, SHARD_SHOTS, seed, |shard| {
            let mut sampler = FrameSampler::new(num_qubits.max(1), shard.len, shard.seed);
            sampler.run(circuit).meas_flips
        });
        for (shard, part) in parts.iter().enumerate() {
            meas_flips.splice_shots(part, shard * SHARD_SHOTS);
        }
        FrameResult { meas_flips }
    }

    /// Runs `circuit`, returning measurement flips per shot.
    ///
    /// # Panics
    ///
    /// Panics if the circuit uses more qubits than the sampler has.
    pub fn run(&mut self, circuit: &Circuit) -> FrameResult {
        assert!(
            circuit.num_qubits() as usize <= self.num_qubits,
            "circuit uses {} qubits, sampler has {}",
            circuit.num_qubits(),
            self.num_qubits
        );
        let mut meas_flips = BitTable::new(circuit.num_measurements(), self.shots);
        let mut next_meas = 0usize;
        for inst in circuit.instructions() {
            self.apply_instruction(inst, &mut meas_flips, &mut next_meas);
        }
        debug_assert_eq!(next_meas, circuit.num_measurements());
        FrameResult { meas_flips }
    }

    fn apply_instruction(
        &mut self,
        inst: &Instruction,
        meas_flips: &mut BitTable,
        next_meas: &mut usize,
    ) {
        match inst {
            Instruction::Gate1(g, qs) => {
                for &q in qs {
                    self.gate1(*g, q as usize);
                }
            }
            Instruction::Gate2(g, pairs) => {
                for &(a, b) in pairs {
                    self.gate2(*g, a as usize, b as usize);
                }
            }
            Instruction::Measure { targets, flip }
            | Instruction::MeasureReset { targets, flip } => {
                for &q in targets {
                    self.record_measurement(q as usize, *flip, meas_flips, next_meas);
                    self.after_measurement(inst, q as usize);
                }
            }
            Instruction::Reset(qs) => {
                for &q in qs {
                    self.clear_frames(q as usize);
                }
            }
            Instruction::PauliNoise(err, qs) => {
                for &q in qs {
                    self.pauli_noise(q as usize, err.px, err.py, err.pz);
                }
            }
            Instruction::Depolarize1(p, qs) => {
                let third = p / 3.0;
                for &q in qs {
                    self.pauli_noise(q as usize, third, third, third);
                }
            }
            Instruction::Depolarize2(p, pairs) => {
                for &(a, b) in pairs {
                    self.depolarize2(a as usize, b as usize, *p);
                }
            }
            Instruction::Detector(_) | Instruction::Observable(_, _) | Instruction::Tick => {}
        }
    }

    #[inline]
    fn xrow(&mut self, q: usize) -> &mut [u64] {
        &mut self.x[q * self.words..(q + 1) * self.words]
    }

    #[inline]
    fn zrow(&mut self, q: usize) -> &mut [u64] {
        &mut self.z[q * self.words..(q + 1) * self.words]
    }

    fn gate1(&mut self, g: Gate1, q: usize) {
        match g {
            Gate1::H => {
                // X <-> Z.
                let base = q * self.words;
                for w in 0..self.words {
                    std::mem::swap(&mut self.x[base + w], &mut self.z[base + w]);
                }
            }
            // S and S† both map X -> ±Y; frames ignore signs.
            Gate1::S | Gate1::SDag => {
                let base = q * self.words;
                for w in 0..self.words {
                    self.z[base + w] ^= self.x[base + w];
                }
            }
            // Paulis commute with frames up to phase.
            Gate1::X | Gate1::Y | Gate1::Z => {}
        }
    }

    fn gate2(&mut self, g: Gate2, a: usize, b: usize) {
        let (ba, bb) = (a * self.words, b * self.words);
        match g {
            Gate2::Cx => {
                // X_c -> X_c X_t ; Z_t -> Z_c Z_t.
                for w in 0..self.words {
                    self.x[bb + w] ^= self.x[ba + w];
                    self.z[ba + w] ^= self.z[bb + w];
                }
            }
            Gate2::Cz => {
                // X_a -> X_a Z_b ; X_b -> Z_a X_b.
                for w in 0..self.words {
                    self.z[bb + w] ^= self.x[ba + w];
                    self.z[ba + w] ^= self.x[bb + w];
                }
            }
            Gate2::Swap => {
                for w in 0..self.words {
                    self.x.swap(ba + w, bb + w);
                    self.z.swap(ba + w, bb + w);
                }
            }
        }
    }

    fn record_measurement(
        &mut self,
        q: usize,
        flip: f64,
        meas_flips: &mut BitTable,
        next_meas: &mut usize,
    ) {
        let row = *next_meas;
        *next_meas += 1;
        let xr = self.x[q * self.words..(q + 1) * self.words].to_vec();
        meas_flips.xor_row(row, &xr);
        if flip > 0.0 {
            let hits = self.sample_hits(flip);
            for shot in hits {
                let v = meas_flips.get(row, shot);
                meas_flips.set(row, shot, !v);
            }
        }
    }

    /// After a Z measurement the Z frame on the measured qubit is
    /// unobservable; randomize it so later anticommuting observations have
    /// correct statistics (Stim's convention).
    fn randomize_z(&mut self, q: usize) {
        let shots = self.shots;
        let words = self.words;
        // Draw all words first to avoid borrowing `self.rng` while `zrow` is borrowed.
        let mut rand_words = vec![0u64; words];
        for (w, rw) in rand_words.iter_mut().enumerate() {
            let remaining = shots - (w * 64).min(shots);
            let mask = if remaining >= 64 {
                u64::MAX
            } else if remaining == 0 {
                0
            } else {
                (1u64 << remaining) - 1
            };
            *rw = self.rng.gen::<u64>() & mask;
        }
        let zr = self.zrow(q);
        for (zw, rw) in zr.iter_mut().zip(rand_words) {
            *zw ^= rw;
        }
    }

    /// A measure-reset clears the measured qubit's frames; a plain
    /// measurement randomizes its Z frame.
    fn after_measurement(&mut self, inst: &Instruction, q: usize) {
        if matches!(inst, Instruction::MeasureReset { .. }) {
            self.clear_frames(q);
        } else {
            self.randomize_z(q);
        }
    }

    fn clear_frames(&mut self, q: usize) {
        self.xrow(q).fill(0);
        self.zrow(q).fill(0);
    }

    /// Samples shot indices hit by an event of probability `p`, using
    /// geometric skipping (efficient for the small `p` regime of QEC noise).
    fn sample_hits(&mut self, p: f64) -> Vec<usize> {
        debug_assert!((0.0..=1.0).contains(&p));
        let mut hits = Vec::new();
        if p <= 0.0 {
            return hits;
        }
        if p >= 1.0 {
            hits.extend(0..self.shots);
            return hits;
        }
        let ln_q = (1.0 - p).ln();
        let mut idx: i64 = -1;
        loop {
            let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
            let skip = (u.ln() / ln_q).floor() as i64 + 1;
            idx += skip.max(1);
            if idx as usize >= self.shots {
                break;
            }
            hits.push(idx as usize);
        }
        hits
    }

    fn pauli_noise(&mut self, q: usize, px: f64, py: f64, pz: f64) {
        let total = px + py + pz;
        if total <= 0.0 {
            return;
        }
        let hits = self.sample_hits(total);
        for shot in hits {
            let r: f64 = self.rng.gen_range(0.0..total);
            let (fx, fz) = if r < px {
                (true, false)
            } else if r < px + py {
                (true, true)
            } else {
                (false, true)
            };
            let (w, b) = (shot / 64, 1u64 << (shot % 64));
            if fx {
                self.x[q * self.words + w] ^= b;
            }
            if fz {
                self.z[q * self.words + w] ^= b;
            }
        }
    }

    fn depolarize2(&mut self, a: usize, b: usize, p: f64) {
        if p <= 0.0 {
            return;
        }
        let hits = self.sample_hits(p);
        for shot in hits {
            // Pick one of the 15 non-identity pair Paulis uniformly.
            let k = self.rng.gen_range(1..16u8);
            let (pa, pb) = (k >> 2, k & 3);
            let (w, bit) = (shot / 64, 1u64 << (shot % 64));
            // Encoding: 0 = I, 1 = X, 2 = Z, 3 = Y.
            if pa == 1 || pa == 3 {
                self.x[a * self.words + w] ^= bit;
            }
            if pa == 2 || pa == 3 {
                self.z[a * self.words + w] ^= bit;
            }
            if pb == 1 || pb == 3 {
                self.x[b * self.words + w] ^= bit;
            }
            if pb == 2 || pb == 3 {
                self.z[b * self.words + w] ^= bit;
            }
        }
    }
}

/// One fault mechanism of a [`FaultModel`].
#[derive(Clone, Copy, Debug, PartialEq)]
enum SiteKind {
    /// A stochastic Pauli site (also `Depolarize1`, as uniform thirds).
    /// Variants: 0 = X, 1 = Y, 2 = Z.
    Pauli(PauliErr),
    /// A two-qubit depolarizing site. Variants `v ∈ 0..15` encode the
    /// non-identity pair Pauli `k = v + 1` (`pa = k >> 2`, `pb = k & 3`,
    /// with 0 = I, 1 = X, 2 = Z, 3 = Y per factor).
    Dep2,
    /// A classical flip of a measurement record or syndrome bit (single
    /// variant).
    Flip,
}

/// The fault-site table of a noise process: one entry per independent
/// site, with its trigger probability and the conditional distribution of
/// its fault variants.
///
/// It is the one table of every rare-event path.
/// [`FaultModel::from_circuit`] builds it from a detector circuit's noise
/// annotations; a module's dry shot records its sites into it with
/// [`FaultModel::push_pauli`] and [`FaultModel::push_flip`]. Through
/// [`FaultSites`] it feeds the stratified driver
/// [`hetarch_exec::rare::stratified`] (the model's [`FaultModel::prior`] is
/// the exact Poisson-binomial weight distribution), and
/// [`FaultModel::sample_variant`] draws the variants of conditioned shots
/// for [`sample_at_weight`] and the module replays alike.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultModel {
    kinds: Vec<SiteKind>,
    trigger: Vec<f64>,
}

impl FaultModel {
    /// Decomposes `circuit`'s noise annotations into fault sites, in the
    /// exact order [`Circuit::num_noise_sites`] counts them.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let mut model = FaultModel::default();
        for inst in circuit.instructions() {
            match inst {
                Instruction::PauliNoise(err, qs) => {
                    for _ in qs {
                        model.push_pauli(*err);
                    }
                }
                Instruction::Depolarize1(p, qs) => {
                    let third = p / 3.0;
                    let err = PauliErr {
                        px: third,
                        py: third,
                        pz: third,
                    };
                    for _ in qs {
                        model.push(SiteKind::Pauli(err), *p);
                    }
                }
                Instruction::Depolarize2(p, pairs) => {
                    for _ in pairs {
                        model.push(SiteKind::Dep2, *p);
                    }
                }
                Instruction::Measure { targets, flip }
                | Instruction::MeasureReset { targets, flip }
                    if *flip > 0.0 =>
                {
                    for _ in targets {
                        model.push_flip(*flip);
                    }
                }
                _ => {}
            }
        }
        debug_assert_eq!(model.num_sites(), circuit.num_noise_sites());
        model
    }

    /// Appends a stochastic Pauli site with X/Y/Z probabilities `err`. It
    /// triggers with probability `err.total()`, capped at 1 (a NaN total
    /// counts as 1).
    pub fn push_pauli(&mut self, err: PauliErr) {
        self.push(SiteKind::Pauli(err), err.total().min(1.0));
    }

    /// Appends a classical flip site of probability `p`, capped at 1 (NaN
    /// counts as 1).
    pub fn push_flip(&mut self, p: f64) {
        self.push(SiteKind::Flip, p.min(1.0));
    }

    fn push(&mut self, kind: SiteKind, trigger: f64) {
        self.kinds.push(kind);
        self.trigger.push(trigger);
    }

    /// Number of fault sites.
    pub fn num_sites(&self) -> usize {
        self.kinds.len()
    }

    /// The exact Poisson-binomial prior over the total triggered-site
    /// weight.
    pub fn prior(&self) -> WeightPrior {
        WeightPrior::poisson_binomial(&self.trigger)
    }

    /// Draws a variant of a triggered `site` from the conditional
    /// distribution [`FaultSites::variant_weight`] describes: one uniform
    /// variate for a Pauli site, one `0..15` draw for a two-qubit site,
    /// none for a flip.
    pub fn sample_variant<R: Rng + ?Sized>(&self, site: usize, rng: &mut R) -> usize {
        match self.kinds[site] {
            SiteKind::Pauli(err) => {
                let r: f64 = rng.gen::<f64>() * err.total();
                if r < err.px {
                    0
                } else if r < err.px + err.py {
                    1
                } else {
                    2
                }
            }
            SiteKind::Dep2 => usize::from(rng.gen_range(0..15u8)),
            SiteKind::Flip => 0,
        }
    }
}

impl FaultSites for FaultModel {
    fn trigger_probs(&self) -> &[f64] {
        &self.trigger
    }

    fn variant_count(&self, site: usize) -> usize {
        match self.kinds[site] {
            SiteKind::Pauli(_) => 3,
            SiteKind::Dep2 => 15,
            SiteKind::Flip => 1,
        }
    }

    fn variant_weight(&self, site: usize, variant: usize) -> f64 {
        match self.kinds[site] {
            SiteKind::Pauli(err) => {
                let total = err.total();
                if total <= 0.0 {
                    return 0.0;
                }
                [err.px, err.py, err.pz][variant] / total
            }
            SiteKind::Dep2 => 1.0 / 15.0,
            SiteKind::Flip => 1.0,
        }
    }
}

impl FrameSampler {
    /// Runs `circuit` with its stochastic noise suppressed and the given
    /// fault assignment applied instead: `site_hits[site]` lists the
    /// `(shot, variant)` pairs where that fault site fires deterministically.
    ///
    /// Sites are indexed in [`FaultModel`] order (one per
    /// [`Circuit::num_noise_sites`] entry).
    pub fn run_with_faults(
        &mut self,
        circuit: &Circuit,
        site_hits: &[Vec<(u32, u8)>],
    ) -> FrameResult {
        assert_eq!(
            site_hits.len(),
            circuit.num_noise_sites(),
            "fault assignment does not match the circuit's noise sites"
        );
        assert!(
            circuit.num_qubits() as usize <= self.num_qubits,
            "circuit uses {} qubits, sampler has {}",
            circuit.num_qubits(),
            self.num_qubits
        );
        let mut meas_flips = BitTable::new(circuit.num_measurements(), self.shots);
        let mut next_meas = 0usize;
        let mut site = 0usize;
        for inst in circuit.instructions() {
            match inst {
                Instruction::PauliNoise(_, qs) | Instruction::Depolarize1(_, qs) => {
                    for &q in qs {
                        for &(shot, v) in &site_hits[site] {
                            self.apply_pauli_variant(q as usize, shot as usize, v);
                        }
                        site += 1;
                    }
                }
                Instruction::Depolarize2(_, pairs) => {
                    for &(a, b) in pairs {
                        for &(shot, v) in &site_hits[site] {
                            self.apply_dep2_variant(a as usize, b as usize, shot as usize, v);
                        }
                        site += 1;
                    }
                }
                Instruction::Measure { targets, flip }
                | Instruction::MeasureReset { targets, flip } => {
                    for &q in targets {
                        self.record_measurement(q as usize, 0.0, &mut meas_flips, &mut next_meas);
                        if *flip > 0.0 {
                            let row = next_meas - 1;
                            for &(shot, _) in &site_hits[site] {
                                let v = meas_flips.get(row, shot as usize);
                                meas_flips.set(row, shot as usize, !v);
                            }
                            site += 1;
                        }
                        self.after_measurement(inst, q as usize);
                    }
                }
                other => self.apply_instruction(other, &mut meas_flips, &mut next_meas),
            }
        }
        debug_assert_eq!(site, site_hits.len());
        debug_assert_eq!(next_meas, circuit.num_measurements());
        FrameResult { meas_flips }
    }

    #[inline]
    fn apply_pauli_variant(&mut self, q: usize, shot: usize, v: u8) {
        let (w, b) = (shot / 64, 1u64 << (shot % 64));
        // 0 = X, 1 = Y, 2 = Z.
        if v == 0 || v == 1 {
            self.x[q * self.words + w] ^= b;
        }
        if v == 1 || v == 2 {
            self.z[q * self.words + w] ^= b;
        }
    }

    #[inline]
    fn apply_dep2_variant(&mut self, a: usize, b: usize, shot: usize, v: u8) {
        let k = v + 1;
        let (pa, pb) = (k >> 2, k & 3);
        let (w, bit) = (shot / 64, 1u64 << (shot % 64));
        // Per-factor encoding matches `depolarize2`: 0 = I, 1 = X, 2 = Z,
        // 3 = Y.
        if pa == 1 || pa == 3 {
            self.x[a * self.words + w] ^= bit;
        }
        if pa == 2 || pa == 3 {
            self.z[a * self.words + w] ^= bit;
        }
        if pb == 1 || pb == 3 {
            self.x[b * self.words + w] ^= bit;
        }
        if pb == 2 || pb == 3 {
            self.z[b * self.words + w] ^= bit;
        }
    }
}

/// Samples `shots` executions of `circuit` conditioned on **exactly
/// `weight` triggered fault sites** per shot, sharded across `pool`.
///
/// Each shard derives two private SplitMix64 streams from its
/// [`hetarch_exec::Shard::seed`] — one for drawing the conditioned fault
/// configurations (exact conditional subset sampling via
/// [`ConditionalSampler`], then per-site variants), one for the frame
/// run — so the result is **bit-identical for every worker count**, the
/// same contract as [`FrameSampler::sample`].
///
/// The subset walk takes one 64-bit word of stream 0 per visited site and
/// keeps site `i` iff `(x >> 11) < ceil(take · 2^53)`, an integer threshold
/// precomputed per site and remaining count. That is the same decision,
/// on the same words, as `rng.gen::<f64>() < take`, so every `shard_seed`
/// stream, and every golden and fingerprint built on them, is unchanged by
/// the integer form.
///
/// # Panics
///
/// Panics if no weight-`weight` configuration has positive probability
/// (the prior mass `P(W = weight)` is zero; callers should consult
/// [`FaultModel::prior`] first).
pub fn sample_at_weight(
    circuit: &Circuit,
    model: &FaultModel,
    weight: usize,
    shots: usize,
    seed: u64,
    pool: &WorkerPool,
) -> FrameResult {
    let sampler = ConditionalSampler::new(model.trigger_probs(), weight);
    assert!(
        sampler.is_feasible(),
        "no weight-{weight} fault configuration has positive probability \
         ({} sites)",
        model.num_sites()
    );
    sample_conditioned(circuit, model, &sampler, shots, seed, pool)
}

/// [`sample_at_weight`] with the stratum's subset sampler already built:
/// the sampled evaluation of the surface-memory rare path.
pub(crate) fn sample_conditioned(
    circuit: &Circuit,
    model: &FaultModel,
    sampler: &ConditionalSampler,
    shots: usize,
    seed: u64,
    pool: &WorkerPool,
) -> FrameResult {
    let num_qubits = circuit.num_qubits() as usize;
    let mut meas_flips = BitTable::new(circuit.num_measurements(), shots);
    let parts = pool.run_shards(shots, SHARD_SHOTS, seed, |shard| {
        let mut rng = StdRng::seed_from_u64(shard_seed(shard.seed, 0));
        let mut site_hits: Vec<Vec<(u32, u8)>> = vec![Vec::new(); model.num_sites()];
        let mut subset = Vec::new();
        for shot in 0..shard.len {
            sampler.sample_into(&mut || rng.next_u64(), &mut subset);
            for &site in &subset {
                let v = model.sample_variant(site, &mut rng);
                site_hits[site].push((shot as u32, v as u8));
            }
        }
        let mut fs = FrameSampler::new(num_qubits.max(1), shard.len, shard_seed(shard.seed, 1));
        fs.run_with_faults(circuit, &site_hits).meas_flips
    });
    for (shard, part) in parts.iter().enumerate() {
        meas_flips.splice_shots(part, shard * SHARD_SHOTS);
    }
    FrameResult { meas_flips }
}

/// Enumerates every weight-`weight` fault configuration of `circuit` and
/// runs them all in one deterministic batched frame pass (configuration
/// `i` occupies shot `i`). Returns `None` when the stratum has more than
/// `max_configs` configurations — fall back to [`sample_at_weight`].
///
/// The returned configuration weights are normalized conditional
/// probabilities (they sum to 1 within the stratum), so the stratum's
/// exact conditional failure probability is `Σ_i weight_i · fails_i`.
pub fn enumerate_at_weight(
    circuit: &Circuit,
    model: &FaultModel,
    weight: usize,
    max_configs: u64,
) -> Option<(Vec<FaultConfig>, FrameResult)> {
    let configs = enumerate_configs(model, weight, max_configs)?;
    let frames = run_configs(circuit, model, &configs);
    Some((configs, frames))
}

/// Runs the fault configurations `configs` of `model`'s sites in one
/// deterministic batched frame pass, configuration `i` in shot `i`: the
/// frame half of [`enumerate_at_weight`].
pub(crate) fn run_configs(
    circuit: &Circuit,
    model: &FaultModel,
    configs: &[FaultConfig],
) -> FrameResult {
    let shots = configs.len();
    if shots == 0 {
        let meas_flips = BitTable::new(circuit.num_measurements(), 0);
        return FrameResult { meas_flips };
    }
    let mut site_hits: Vec<Vec<(u32, u8)>> = vec![Vec::new(); model.num_sites()];
    for (shot, config) in configs.iter().enumerate() {
        for &(site, v) in &config.sites {
            site_hits[site].push((shot as u32, v as u8));
        }
    }
    let num_qubits = circuit.num_qubits() as usize;
    let mut fs = FrameSampler::new(num_qubits.max(1), shots, 0);
    fs.run_with_faults(circuit, &site_hits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noiseless_circuit_has_no_flips() {
        let mut c = Circuit::new(3);
        c.h(&[0]);
        c.cx(&[(0, 1), (1, 2)]);
        c.measure(&[0, 1, 2], 0.0);
        let mut s = FrameSampler::new(3, 256, 1);
        let r = s.run(&c);
        for m in 0..3 {
            assert_eq!(r.meas_flips.count_ones(m), 0);
        }
    }

    #[test]
    fn x_error_flips_measurement_deterministically() {
        let mut c = Circuit::new(1);
        c.pauli_noise(
            crate::circuit::PauliErr {
                px: 1.0,
                py: 0.0,
                pz: 0.0,
            },
            &[0],
        );
        c.measure(&[0], 0.0);
        let mut s = FrameSampler::new(1, 100, 2);
        let r = s.run(&c);
        assert_eq!(r.meas_flips.count_ones(0), 100);
    }

    #[test]
    fn z_error_does_not_affect_z_measurement() {
        let mut c = Circuit::new(1);
        c.pauli_noise(
            crate::circuit::PauliErr {
                px: 0.0,
                py: 0.0,
                pz: 1.0,
            },
            &[0],
        );
        c.measure(&[0], 0.0);
        let mut s = FrameSampler::new(1, 64, 3);
        let r = s.run(&c);
        assert_eq!(r.meas_flips.count_ones(0), 0);
    }

    #[test]
    fn z_error_through_hadamard_flips() {
        let mut c = Circuit::new(1);
        c.pauli_noise(
            crate::circuit::PauliErr {
                px: 0.0,
                py: 0.0,
                pz: 1.0,
            },
            &[0],
        );
        c.h(&[0]);
        c.measure(&[0], 0.0);
        let mut s = FrameSampler::new(1, 64, 3);
        let r = s.run(&c);
        assert_eq!(r.meas_flips.count_ones(0), 64);
    }

    #[test]
    fn cx_propagates_x_to_target() {
        let mut c = Circuit::new(2);
        c.pauli_noise(
            crate::circuit::PauliErr {
                px: 1.0,
                py: 0.0,
                pz: 0.0,
            },
            &[0],
        );
        c.cx(&[(0, 1)]);
        c.measure(&[0, 1], 0.0);
        let mut s = FrameSampler::new(2, 64, 4);
        let r = s.run(&c);
        assert_eq!(r.meas_flips.count_ones(0), 64);
        assert_eq!(r.meas_flips.count_ones(1), 64);
    }

    #[test]
    fn reset_clears_error_frames() {
        let mut c = Circuit::new(1);
        c.pauli_noise(
            crate::circuit::PauliErr {
                px: 1.0,
                py: 0.0,
                pz: 0.0,
            },
            &[0],
        );
        c.reset(&[0]);
        c.measure(&[0], 0.0);
        let mut s = FrameSampler::new(1, 64, 5);
        let r = s.run(&c);
        assert_eq!(r.meas_flips.count_ones(0), 0);
    }

    #[test]
    fn sharded_sample_is_worker_count_invariant() {
        let mut c = Circuit::new(2);
        c.depolarize1(0.1, &[0, 1]);
        c.cx(&[(0, 1)]);
        c.measure(&[0, 1], 0.02);
        // Spans three shards (two full, one partial, non-divisible by 64).
        let shots = 2 * SHARD_SHOTS + 100;
        let reference = FrameSampler::sample(&c, shots, 5, &WorkerPool::new(1));
        for workers in [2, 8] {
            let r = FrameSampler::sample(&c, shots, 5, &WorkerPool::new(workers));
            assert_eq!(r.meas_flips, reference.meas_flips, "workers {workers}");
        }
    }

    #[test]
    fn sharded_sample_statistics_match_probability() {
        let p = 0.07;
        let mut c = Circuit::new(1);
        c.pauli_noise(
            crate::circuit::PauliErr {
                px: p,
                py: 0.0,
                pz: 0.0,
            },
            &[0],
        );
        c.measure(&[0], 0.0);
        let shots = 200_000;
        let r = FrameSampler::sample(&c, shots, 6, &WorkerPool::new(4));
        let rate = r.meas_flips.count_ones(0) as f64 / shots as f64;
        assert!((rate - p).abs() < 0.004, "measured {rate}, expected {p}");
    }

    #[test]
    fn sharded_sample_zero_shots() {
        let mut c = Circuit::new(1);
        c.measure(&[0], 0.0);
        let r = FrameSampler::sample(&c, 0, 1, &WorkerPool::new(4));
        assert_eq!(r.meas_flips.shots(), 0);
        assert_eq!(r.meas_flips.count_ones(0), 0);
    }

    #[test]
    fn error_rate_statistics_match_probability() {
        let p = 0.07;
        let mut c = Circuit::new(1);
        c.pauli_noise(
            crate::circuit::PauliErr {
                px: p,
                py: 0.0,
                pz: 0.0,
            },
            &[0],
        );
        c.measure(&[0], 0.0);
        let shots = 200_000;
        let mut s = FrameSampler::new(1, shots, 6);
        let r = s.run(&c);
        let rate = r.meas_flips.count_ones(0) as f64 / shots as f64;
        assert!((rate - p).abs() < 0.004, "measured {rate}, expected {p}");
    }

    #[test]
    fn depolarize1_produces_two_thirds_flip_rate() {
        // X and Y flip a Z measurement; Z does not: flip rate = 2p/3.
        let p = 0.3;
        let mut c = Circuit::new(1);
        c.depolarize1(p, &[0]);
        c.measure(&[0], 0.0);
        let shots = 200_000;
        let mut s = FrameSampler::new(1, shots, 7);
        let r = s.run(&c);
        let rate = r.meas_flips.count_ones(0) as f64 / shots as f64;
        assert!((rate - 0.2).abs() < 0.006, "measured {rate}");
    }

    #[test]
    fn measurement_flip_probability_applies() {
        let mut c = Circuit::new(1);
        c.measure(&[0], 0.25);
        let shots = 100_000;
        let mut s = FrameSampler::new(1, shots, 8);
        let r = s.run(&c);
        let rate = r.meas_flips.count_ones(0) as f64 / shots as f64;
        assert!((rate - 0.25).abs() < 0.01, "measured {rate}");
    }

    #[test]
    fn depolarize2_marginal_rates() {
        // Each qubit sees a non-trivial Pauli in 12 of 15 cases; of those,
        // 8 of 15 flip a Z measurement (X or Y on that qubit).
        let p = 0.3;
        let mut c = Circuit::new(2);
        c.depolarize2(p, &[(0, 1)]);
        c.measure(&[0, 1], 0.0);
        let shots = 300_000;
        let mut s = FrameSampler::new(2, shots, 9);
        let r = s.run(&c);
        for m in 0..2 {
            let rate = r.meas_flips.count_ones(m) as f64 / shots as f64;
            let expect = p * 8.0 / 15.0;
            assert!(
                (rate - expect).abs() < 0.01,
                "qubit {m}: {rate} vs {expect}"
            );
        }
    }

    fn noisy_test_circuit() -> Circuit {
        let mut c = Circuit::new(3);
        c.pauli_noise(
            crate::circuit::PauliErr {
                px: 0.01,
                py: 0.002,
                pz: 0.005,
            },
            &[0, 1],
        );
        c.depolarize1(0.02, &[2]);
        c.cx(&[(0, 1)]);
        c.depolarize2(0.03, &[(1, 2)]);
        c.measure(&[0, 1, 2], 0.04);
        c
    }

    #[test]
    fn fault_model_matches_noise_site_accounting() {
        let c = noisy_test_circuit();
        let model = FaultModel::from_circuit(&c);
        assert_eq!(model.num_sites(), c.num_noise_sites());
        assert_eq!(model.num_sites(), 2 + 1 + 1 + 3);
        let probs = model.trigger_probs();
        assert!((probs[0] - 0.017).abs() < 1e-15);
        assert!((probs[2] - 0.02).abs() < 1e-15);
        assert!((probs[3] - 0.03).abs() < 1e-15);
        assert!((probs[4] - 0.04).abs() < 1e-15);
        // Variant distributions are normalized.
        for i in 0..model.num_sites() {
            let total: f64 = (0..model.variant_count(i))
                .map(|v| model.variant_weight(i, v))
                .sum();
            assert!((total - 1.0).abs() < 1e-12, "site {i} weights sum {total}");
        }
        // The prior matches the Poisson binomial over the trigger probs.
        let prior = model.prior();
        assert_eq!(prior.num_sites(), model.num_sites());
        let p0: f64 = probs.iter().map(|p| 1.0 - p).product();
        assert!((prior.pmf(0) - p0).abs() < 1e-14);
    }

    #[test]
    fn weight_one_sampling_always_applies_exactly_one_fault() {
        // A circuit where every fault flips a measurement: X-only noise on
        // measured qubits plus a record flip. Exactly one site fires per
        // shot, so exactly one measurement bit flips per shot.
        let mut c = Circuit::new(2);
        c.pauli_noise(
            crate::circuit::PauliErr {
                px: 0.001,
                py: 0.0,
                pz: 0.0,
            },
            &[0, 1],
        );
        c.measure(&[0, 1], 0.002);
        let model = FaultModel::from_circuit(&c);
        let shots = 2_000;
        let r = sample_at_weight(&c, &model, 1, shots, 17, &WorkerPool::new(2));
        let total_flips = r.meas_flips.count_ones(0) + r.meas_flips.count_ones(1);
        assert_eq!(total_flips, shots, "each shot must carry exactly one flip");
    }

    #[test]
    fn sample_at_weight_is_worker_count_invariant() {
        let c = noisy_test_circuit();
        let model = FaultModel::from_circuit(&c);
        let shots = SHARD_SHOTS + 333;
        let reference = sample_at_weight(&c, &model, 2, shots, 5, &WorkerPool::new(1));
        for workers in [2, 8] {
            let r = sample_at_weight(&c, &model, 2, shots, 5, &WorkerPool::new(workers));
            assert_eq!(r.meas_flips, reference.meas_flips, "workers {workers}");
        }
    }

    #[test]
    #[should_panic(expected = "positive probability")]
    fn sample_at_weight_rejects_infeasible_weight() {
        let mut c = Circuit::new(1);
        c.depolarize1(0.01, &[0]);
        c.measure(&[0], 0.0);
        let model = FaultModel::from_circuit(&c);
        sample_at_weight(&c, &model, 2, 16, 1, &WorkerPool::new(1));
    }

    #[test]
    fn enumerate_at_weight_covers_every_configuration() {
        let c = noisy_test_circuit();
        let model = FaultModel::from_circuit(&c);
        // Weight 1: 3 Pauli sites × 3 + 15 (dep2) + 3 (meas flips)... the
        // py=0-free sites keep all three variants here, so count directly.
        let (configs, frames) = enumerate_at_weight(&c, &model, 1, 10_000).unwrap();
        let expect: usize = (0..model.num_sites())
            .map(|i| {
                (0..model.variant_count(i))
                    .filter(|&v| model.variant_weight(i, v) > 0.0)
                    .count()
            })
            .sum();
        assert_eq!(configs.len(), expect);
        assert_eq!(frames.meas_flips.shots(), configs.len());
        let total: f64 = configs.iter().map(|c| c.weight).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Over-budget strata fall back to sampling.
        assert!(enumerate_at_weight(&c, &model, 2, 3).is_none());
    }

    #[test]
    fn forced_measurement_flip_toggles_record_bit() {
        let mut c = Circuit::new(1);
        c.measure(&[0], 0.5);
        let model = FaultModel::from_circuit(&c);
        let (configs, frames) = enumerate_at_weight(&c, &model, 1, 100).unwrap();
        assert_eq!(configs.len(), 1);
        assert!((configs[0].weight - 1.0).abs() < 1e-15);
        assert_eq!(frames.meas_flips.count_ones(0), 1);
    }
}
