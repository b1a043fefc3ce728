//! The `PauliString` shot bodies that the compiled site programs replaced,
//! kept as the differential oracle of [`SiteProgram::run`], the
//! [`FaultDriver`] impls and the mask-table [`CycleDecoder`].
//!
//! Each reference model rebuilds its noise tables from the same inputs as
//! the production module and runs the historical shot: a heap
//! [`PauliString`] error, every site routed through [`RefDriver`] (the
//! driver contract before frames: the driver XORs its Pauli into the
//! string itself), and the decode tail over a [`LookupDecoder`] plus the
//! first-order table, checked with `syndrome_bits`, `in_normalizer` and
//! `is_logical_error`. The tests pin the production path to it shot by
//! shot: the same fail bit and RNG state under [`RngFaults`], the same
//! fail bit under random [`ForcedFaults`] configurations, and bitwise the
//! same [`RecordFaults`] site table.

use std::collections::HashMap;

use hetarch_cells::UscChannel;
use hetarch_exec::rare::FaultSites;
use hetarch_qsim::channels::IdleParams;
use hetarch_stab::decoder::LookupDecoder;

use super::*;
use crate::baseline::{embed, layer_checks, Embedding};
use crate::uec::assign::{build_schedule, search_assignment, CycleSchedule};
use crate::uec::chain::{build_chain_schedule, search_chain_assignment, ChainSchedule, ChainShape};
use crate::uec::sim::{combine, first_order_table, UecNoise};

/// The driver contract of the `PauliString` shot bodies.
pub(crate) trait RefDriver {
    /// Visits a Pauli fault site on qubit `q`; may XOR a Pauli into `error`.
    fn pauli_site(&mut self, error: &mut PauliString, q: usize, probs: PauliProbs);

    /// Visits a classical flip site of probability `p`.
    fn flip_site(&mut self, p: f64) -> bool;
}

impl<R: Rng + ?Sized> RefDriver for RngFaults<'_, R> {
    fn pauli_site(&mut self, error: &mut PauliString, q: usize, probs: PauliProbs) {
        sample_pauli_into(error, q, probs, self.rng);
    }

    fn flip_site(&mut self, p: f64) -> bool {
        self.rng.gen::<f64>() < p
    }
}

impl RefDriver for RecordFaults {
    fn pauli_site(&mut self, _error: &mut PauliString, _q: usize, probs: PauliProbs) {
        self.sites.push_pauli(PauliErr {
            px: probs.px,
            py: probs.py,
            pz: probs.pz,
        });
    }

    fn flip_site(&mut self, p: f64) -> bool {
        self.sites.push_flip(p);
        false
    }
}

impl RefDriver for ForcedFaults {
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

/// Samples one Pauli fault at qubit `q` from `probs` and XORs it into
/// `error`. Consumes one variate iff `probs` has positive total
/// probability; the same draw decides both whether and which Pauli fires.
pub(crate) fn sample_pauli_into<R: Rng + ?Sized>(
    error: &mut PauliString,
    q: usize,
    probs: PauliProbs,
    rng: &mut R,
) {
    let total = probs.total();
    if total <= 0.0 {
        return;
    }
    let r: f64 = rng.gen();
    if r >= total {
        return;
    }
    let p = if r < probs.px {
        Pauli::X
    } else if r < probs.px + probs.py {
        Pauli::Y
    } else {
        Pauli::Z
    };
    let cur = error.get(q);
    let (cx, cz) = cur.xz();
    let (nx, nz) = p.xz();
    error.set(q, Pauli::from_xz(cx ^ nx, cz ^ nz));
}

/// The `PauliString` decode tail: first-order table with the lookup
/// decoder as fallback, then a perfect round.
struct RefDecoder {
    lookup: LookupDecoder,
    fault_table: HashMap<u64, PauliString>,
}

impl RefDecoder {
    fn new(code: &StabilizerCode, weight_cap: usize, temporal_groups: &[Vec<usize>]) -> Self {
        RefDecoder {
            lookup: LookupDecoder::new(code, weight_cap),
            fault_table: first_order_table(code, temporal_groups),
        }
    }

    fn fails(&self, code: &StabilizerCode, syndrome: u64, error: &mut PauliString) -> bool {
        let correction = self
            .fault_table
            .get(&syndrome)
            .or_else(|| self.lookup.correction(syndrome));
        if let Some(c) = correction {
            error.xor_assign(c);
        }
        if let Some(c) = self.lookup.correction(code.syndrome_bits(error)) {
            error.xor_assign(c);
        }
        !code.in_normalizer(error) || code.is_logical_error(error)
    }
}

/// A reference shot model.
trait RefModel {
    fn run_ref<D: RefDriver>(&self, driver: &mut D) -> bool;
}

fn depolarizing(p: f64) -> PauliProbs {
    PauliProbs {
        px: p,
        py: p,
        pz: p,
    }
}

/// Per-slot noise table of one serialized check.
struct SlotNoise {
    storage_uninvolved: PauliProbs,
    storage_involved: PauliProbs,
    compute_exposure: PauliProbs,
    anc_flip: f64,
    support: Vec<usize>,
    involved: Vec<bool>,
}

/// The serialized single-USC cycle.
struct RefUec {
    code: StabilizerCode,
    noise: UecNoise,
    schedule: CycleSchedule,
    decoder: RefDecoder,
    slots: Vec<SlotNoise>,
}

impl RefUec {
    fn new(code: StabilizerCode, usc: &UscChannel, noise: UecNoise) -> Self {
        let assignment = search_assignment(&code, usc.registers, usc.capacity / usc.registers);
        let schedule = build_schedule(&code, &assignment, usc);
        let weight_cap = (code.distance().div_ceil(2)).clamp(1, 3);
        let groups: Vec<Vec<usize>> = schedule.checks.iter().map(|c| vec![c.stabilizer]).collect();
        let decoder = RefDecoder::new(&code, weight_cap, &groups);
        let stabs = code.stabilizers();
        let slots = schedule
            .checks
            .iter()
            .map(|slot| {
                let support: Vec<usize> = stabs[slot.stabilizer]
                    .iter_support()
                    .map(|(q, _)| q)
                    .collect();
                let mut involved = vec![false; code.num_qubits()];
                for &q in &support {
                    involved[q] = true;
                }
                let anc_idle = usc.compute_idle.twirl_probs(slot.duration);
                let p_gate_anc = 1.0 - (1.0 - 8.0 / 15.0 * noise.p2q).powi(slot.weight as i32);
                let anc_flip = combine(
                    combine(anc_idle.px + anc_idle.py, p_gate_anc),
                    noise.meas_flip,
                );
                SlotNoise {
                    storage_uninvolved: usc.storage_idle.twirl_probs(slot.duration),
                    storage_involved: usc
                        .storage_idle
                        .twirl_probs((slot.duration - slot.exposure).max(0.0)),
                    compute_exposure: usc.compute_idle.twirl_probs(slot.exposure),
                    anc_flip,
                    support,
                    involved,
                }
            })
            .collect();
        RefUec {
            code,
            noise,
            schedule,
            decoder,
            slots,
        }
    }
}

impl RefModel for RefUec {
    fn run_ref<D: RefDriver>(&self, driver: &mut D) -> bool {
        let n = self.code.num_qubits();
        let stabs = self.code.stabilizers();
        let mut error = PauliString::identity(n);
        let mut syndrome: u64 = 0;
        for (slot, sn) in self.schedule.checks.iter().zip(&self.slots) {
            for (q, &involved) in sn.involved.iter().enumerate() {
                let probs = if involved {
                    sn.storage_involved
                } else {
                    sn.storage_uninvolved
                };
                driver.pauli_site(&mut error, q, probs);
                if involved {
                    driver.pauli_site(&mut error, q, sn.compute_exposure);
                }
            }
            let p_sw = self.noise.p_swap * 4.0 / 15.0;
            let p_cx = self.noise.p2q * 4.0 / 15.0;
            for &q in &sn.support {
                for _ in 0..2 {
                    driver.pauli_site(&mut error, q, depolarizing(p_sw));
                }
                driver.pauli_site(&mut error, q, depolarizing(p_cx));
            }
            let mut bit = !stabs[slot.stabilizer].commutes_with(&error);
            if driver.flip_site(sn.anc_flip) {
                bit = !bit;
            }
            if bit {
                syndrome |= 1 << slot.stabilizer;
            }
        }
        self.decoder.fails(&self.code, syndrome, &mut error)
    }
}

/// Noise of one check within a chain wave.
struct CheckNoise {
    stabilizer: usize,
    exposure: PauliProbs,
    anc_flip: f64,
    hops: u32,
}

/// Per-wave noise table of the chain schedule.
struct WaveNoise {
    storage: PauliProbs,
    checks: Vec<CheckNoise>,
}

/// The USC + USC-EXT chain cycle.
struct RefChain {
    code: StabilizerCode,
    noise: UecNoise,
    decoder: RefDecoder,
    supports: Vec<Vec<usize>>,
    waves: Vec<WaveNoise>,
}

impl RefChain {
    fn new(code: StabilizerCode, usc: &UscChannel, n_ext: usize, noise: UecNoise) -> Self {
        let shape = ChainShape::new(n_ext, usc.capacity / usc.registers);
        let assignment = search_chain_assignment(&code, &shape);
        let schedule: ChainSchedule = build_chain_schedule(&code, &assignment, usc);
        let weight_cap = (code.distance().div_ceil(2)).clamp(1, 2);
        let groups: Vec<Vec<usize>> = schedule
            .waves
            .iter()
            .map(|w| w.iter().map(|c| c.stabilizer).collect())
            .collect();
        let decoder = RefDecoder::new(&code, weight_cap, &groups);
        let supports: Vec<Vec<usize>> = code
            .stabilizers()
            .iter()
            .map(|s| s.iter_support().map(|(q, _)| q).collect())
            .collect();
        let waves = schedule
            .waves
            .iter()
            .map(|wave| {
                let duration = wave.iter().map(|c| c.duration).fold(0.0f64, f64::max);
                let checks = wave
                    .iter()
                    .map(|c| {
                        let w = supports[c.stabilizer].len();
                        let anc_idle = usc.compute_idle.twirl_probs(c.duration);
                        let p_gate_anc = 1.0 - (1.0 - 8.0 / 15.0 * noise.p2q).powi(w as i32);
                        CheckNoise {
                            stabilizer: c.stabilizer,
                            exposure: usc.compute_idle.twirl_probs(c.exposure),
                            anc_flip: combine(
                                combine(anc_idle.px + anc_idle.py, p_gate_anc),
                                noise.meas_flip,
                            ),
                            hops: c.hops,
                        }
                    })
                    .collect();
                WaveNoise {
                    storage: usc.storage_idle.twirl_probs(duration),
                    checks,
                }
            })
            .collect();
        RefChain {
            code,
            noise,
            decoder,
            supports,
            waves,
        }
    }
}

impl RefModel for RefChain {
    fn run_ref<D: RefDriver>(&self, driver: &mut D) -> bool {
        let n = self.code.num_qubits();
        let stabs = self.code.stabilizers();
        let swap = depolarizing(self.noise.p_swap * 4.0 / 15.0);
        let cx = depolarizing(self.noise.p2q * 4.0 / 15.0);
        let mut error = PauliString::identity(n);
        let mut syndrome = 0u64;
        for wave in &self.waves {
            for q in 0..n {
                driver.pauli_site(&mut error, q, wave.storage);
            }
            for check in &wave.checks {
                let support = &self.supports[check.stabilizer];
                let extra_hop_swaps = (2 * check.hops) as usize / support.len().max(1);
                for &q in support {
                    driver.pauli_site(&mut error, q, check.exposure);
                    for _ in 0..(2 + extra_hop_swaps) {
                        driver.pauli_site(&mut error, q, swap);
                    }
                    driver.pauli_site(&mut error, q, cx);
                }
                let mut bit = !stabs[check.stabilizer].commutes_with(&error);
                if driver.flip_site(check.anc_flip) {
                    bit = !bit;
                }
                if bit {
                    syndrome |= 1 << check.stabilizer;
                }
            }
        }
        self.decoder.fails(&self.code, syndrome, &mut error)
    }
}

/// Per-layer noise table of the homogeneous baseline.
struct LayerNoise {
    idle: PauliProbs,
    checks: Vec<usize>,
}

/// The layered square-lattice cycle.
struct RefHom {
    code: StabilizerCode,
    noise: UecNoise,
    embedding: Embedding,
    decoder: RefDecoder,
    layers: Vec<LayerNoise>,
    supports: Vec<Vec<usize>>,
}

impl RefHom {
    fn new(code: StabilizerCode, tc: f64, noise: UecNoise) -> Self {
        let embedding = embed(&code);
        let layers = layer_checks(&code);
        let weight_cap = (code.distance().div_ceil(2)).clamp(1, 3);
        let decoder = RefDecoder::new(&code, weight_cap, &layers);
        let idle = IdleParams::new(tc, tc).expect("physical coherence");
        let (t_2q, t_meas) = (100e-9, 1e-6);
        let layer_duration = |layer: &[usize]| {
            let mut worst: f64 = 0.0;
            for &s in layer {
                let w = embedding.route_swaps[s].len();
                let max_hops = embedding.route_swaps[s].iter().copied().max().unwrap_or(0);
                let d = (w as f64 + 2.0 * max_hops as f64) * t_2q + t_meas;
                worst = worst.max(d);
            }
            worst
        };
        let layers = layers
            .iter()
            .map(|layer| LayerNoise {
                idle: idle.twirl_probs(layer_duration(layer)),
                checks: layer.clone(),
            })
            .collect();
        let supports = code
            .stabilizers()
            .iter()
            .map(|s| s.iter_support().map(|(q, _)| q).collect())
            .collect();
        RefHom {
            code,
            noise,
            embedding,
            decoder,
            layers,
            supports,
        }
    }
}

impl RefModel for RefHom {
    fn run_ref<D: RefDriver>(&self, driver: &mut D) -> bool {
        let n = self.code.num_qubits();
        let stabs = self.code.stabilizers();
        let mut error = PauliString::identity(n);
        let mut syndrome = 0u64;
        for layer in &self.layers {
            for q in 0..n {
                driver.pauli_site(&mut error, q, layer.idle);
            }
            for &s in &layer.checks {
                let support = &self.supports[s];
                for (&q, &swaps) in support.iter().zip(&self.embedding.route_swaps[s]) {
                    let p_cx = self.noise.p2q * 4.0 / 15.0;
                    let n_gates = 1 + 2 * swaps;
                    let p = 1.0 - (1.0 - 3.0 * p_cx).powi(n_gates as i32);
                    driver.pauli_site(&mut error, q, depolarizing(p / 3.0));
                }
                let w = support.len();
                let p_gate_anc = 1.0 - (1.0 - 8.0 / 15.0 * self.noise.p2q).powi(w as i32);
                let anc_idle = layer.idle;
                let p_flip = combine(
                    combine(p_gate_anc, anc_idle.px + anc_idle.py),
                    self.noise.meas_flip,
                );
                let mut bit = !stabs[s].commutes_with(&error);
                if driver.flip_site(p_flip) {
                    bit = !bit;
                }
                if bit {
                    syndrome |= 1 << s;
                }
            }
        }
        self.decoder.fails(&self.code, syndrome, &mut error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::HomModule;
    use crate::uec::{ChainUecModule, CycleDecoder, UecModule};
    use hetarch_cells::UscCell;
    use hetarch_devices::catalog::{coherence_limited_compute, coherence_limited_storage};
    use hetarch_stab::codes::{color_17, reed_muller_15, rotated_surface_code, steane};

    /// The Fig. 9 codes plus the rotated d = 5 surface code.
    fn codes() -> Vec<StabilizerCode> {
        vec![
            steane(),
            rotated_surface_code(3),
            rotated_surface_code(4),
            rotated_surface_code(5),
            color_17(),
            reed_muller_15(),
        ]
    }

    fn usc(ts: f64) -> UscChannel {
        UscCell::new(
            coherence_limited_compute(0.5e-3),
            coherence_limited_storage(ts),
        )
        .unwrap()
        .characterize()
    }

    /// A recorded site table with every float compared by its bits: each
    /// site's trigger and variant weights.
    fn site_bits(sites: &FaultModel) -> Vec<Vec<u64>> {
        (0..sites.num_sites())
            .map(|i| {
                let variants = (0..sites.variant_count(i)).map(|v| sites.variant_weight(i, v));
                std::iter::once(sites.trigger_probs()[i])
                    .chain(variants)
                    .map(f64::to_bits)
                    .collect()
            })
            .collect()
    }

    /// Runs the production model and its reference through all three
    /// drivers and asserts they agree shot by shot.
    fn assert_same_shots(name: &str, model: &impl ShotModel, reference: &impl RefModel) {
        // Site tables: bitwise equal.
        let mut recorded = RecordFaults::new();
        assert!(!model.run_shot(&mut recorded));
        let mut recorded_ref = RecordFaults::new();
        assert!(!reference.run_ref(&mut recorded_ref));
        let sites = recorded.into_model();
        let sites_ref = recorded_ref.into_model();
        assert_eq!(sites, sites_ref, "{name}: site tables differ");
        assert_eq!(
            site_bits(&sites),
            site_bits(&sites_ref),
            "{name}: site tables differ in their bits"
        );

        // Monte Carlo: the same fail bit per shot and the same stream
        // position after each 256-shot shard.
        let mut failures = 0;
        for seed in [61, 1, 2, 3] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut rng_ref = rng.clone();
            for shard in 0..2 {
                for shot in 0..256 {
                    let fail = model.run_shot(&mut RngFaults::new(&mut rng));
                    let fail_ref = reference.run_ref(&mut RngFaults::new(&mut rng_ref));
                    assert_eq!(
                        fail, fail_ref,
                        "{name}: seed {seed} shard {shard} shot {shot}"
                    );
                    failures += usize::from(fail);
                }
                assert_eq!(rng, rng_ref, "{name}: seed {seed} shard {shard} stream");
            }
        }
        assert!(failures > 0, "{name}: no Monte-Carlo shot failed");

        // Forced configurations of weight 1..=4 on random sites.
        let n = sites.num_sites();
        let mut rng = StdRng::seed_from_u64(0xF0_4CED);
        let mut failures = 0;
        let configs = 400;
        for k in 0..configs {
            let w = rng.gen_range(1..=4usize);
            let hits: Vec<(usize, usize)> = (0..w)
                .map(|_| {
                    let i = rng.gen_range(0..n);
                    (i, rng.gen_range(0..sites.variant_count(i)))
                })
                .collect();
            let mut forced = ForcedFaults::new(n, &hits);
            let mut forced_ref = ForcedFaults::new(n, &hits);
            let fail = model.run_shot(&mut forced);
            assert_eq!(
                fail,
                reference.run_ref(&mut forced_ref),
                "{name}: configuration {k} {hits:?}"
            );
            assert_eq!(forced.sites_visited(), n, "{name}: sites visited");
            failures += usize::from(fail);
        }
        assert!(
            failures > 0 && failures < configs,
            "{name}: {failures} of {configs} forced configurations failed"
        );
    }

    #[test]
    fn uec_module_matches_pauli_string_reference() {
        let noise = UecNoise::default();
        for ts in [0.5e-3, 5e-3] {
            let ch = usc(ts);
            for code in codes() {
                let name = format!("UEC {} T_S {ts}", code.name());
                let model = UecModule::new(code.clone(), ch.clone(), noise);
                assert_same_shots(&name, &model, &RefUec::new(code, &ch, noise));
            }
        }
    }

    #[test]
    fn chain_module_matches_pauli_string_reference() {
        let noise = UecNoise::default();
        let ch = usc(5e-3);
        for n_ext in [1, 2] {
            for code in codes() {
                let name = format!("chain {} n_ext {n_ext}", code.name());
                let model = ChainUecModule::new(code.clone(), ch.clone(), n_ext, noise);
                assert_same_shots(&name, &model, &RefChain::new(code, &ch, n_ext, noise));
            }
        }
    }

    #[test]
    fn hom_module_matches_pauli_string_reference() {
        let noise = UecNoise {
            meas_flip: 2e-3,
            ..UecNoise::default()
        };
        for code in codes() {
            let name = format!("hom {}", code.name());
            let model = HomModule::new(code.clone(), 0.5e-3, noise);
            assert_same_shots(&name, &model, &RefHom::new(code, 0.5e-3, noise));
        }
    }

    /// The mask decoder against the `PauliString` decode tail on random
    /// syndromes and errors of weight up to 4, for serialized and layered
    /// extraction orders.
    #[test]
    fn mask_decoder_matches_pauli_string_decoder() {
        let mut rng = StdRng::seed_from_u64(5);
        for code in codes() {
            let n = code.num_qubits();
            let r = code.stabilizers().len();
            let serialized: Vec<Vec<usize>> = (0..r).map(|s| vec![s]).collect();
            for groups in [serialized, layer_checks(&code)] {
                let cap = (code.distance().div_ceil(2)).clamp(1, 3);
                let decoder = CycleDecoder::new(&code, cap, &groups);
                let reference = RefDecoder::new(&code, cap, &groups);
                let mut failures = 0;
                for _ in 0..2_000 {
                    let support: Vec<(usize, Pauli)> = (0..rng.gen_range(0..=4usize))
                        .map(|_| {
                            let p = [Pauli::X, Pauli::Y, Pauli::Z][rng.gen_range(0..3usize)];
                            (rng.gen_range(0..n), p)
                        })
                        .collect();
                    let mut error = PauliString::identity(n);
                    for (q, p) in support {
                        error.set(q, p);
                    }
                    // The true syndrome with up to two measurement flips.
                    let mut syndrome = code.syndrome_bits(&error);
                    for _ in 0..rng.gen_range(0..=2usize) {
                        syndrome ^= 1 << rng.gen_range(0..r);
                    }
                    let frame = Frame::of(&error);
                    let fail = decoder.fails(syndrome, frame);
                    assert_eq!(
                        fail,
                        reference.fails(&code, syndrome, &mut error),
                        "{}: syndrome {syndrome:#x} frame {frame:?}",
                        code.name()
                    );
                    failures += usize::from(fail);
                }
                assert!(failures > 0, "{}: nothing failed", code.name());
            }
        }
    }

    /// An RNG that returns one fixed word.
    struct Word(u64);

    impl RngCore for Word {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    /// The integer thresholds against the f64 sampler at the words on
    /// both sides of every threshold, for edge-case probabilities.
    #[test]
    fn integer_thresholds_match_f64_sampling_at_boundary_words() {
        let values = [
            0.0,
            -0.0,
            -1e-3,
            f64::MIN_POSITIVE / 8.0,
            1e-300,
            2f64.powi(-53),
            1e-3,
            0.1,
            1.0 / 3.0,
            0.5,
            1.0 - f64::EPSILON,
            1.0,
            1.5,
            f64::INFINITY,
            f64::NAN,
        ];
        let pauli = |p: Pauli| Frame::of(&PauliString::from_sparse(1, &[(0, p)]));
        let mut checked = 0;
        for &px in &values {
            for &py in &values {
                for &pz in &values {
                    let probs = PauliProbs { px, py, pz };
                    let site = PauliSite::new(0, probs);
                    let mut words = vec![0, u64::MAX];
                    for t in [site.fire, site.x, site.xy] {
                        for k in [t.saturating_sub(1), t, t.saturating_add(1)] {
                            if k < 1 << 53 {
                                words.push(k << 11);
                                words.push(k << 11 | 0x7ff);
                            }
                        }
                    }
                    for u in words {
                        let (mut a, mut b) = (Word(u), Word(u));
                        let fired =
                            pauli(FaultDriver::pauli_site(&mut RngFaults::new(&mut a), &site));
                        let mut error = PauliString::identity(1);
                        sample_pauli_into(&mut error, 0, probs, &mut b);
                        assert_eq!(fired, Frame::of(&error), "{probs:?} word {u:#x}");
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 10_000);
    }

    #[test]
    #[should_panic(expected = "Pauli frame of at most 64 qubits")]
    fn uec_module_rejects_codes_wider_than_the_frame() {
        UecModule::new(rotated_surface_code(9), usc(5e-3), UecNoise::default());
    }

    #[test]
    #[should_panic(expected = "Pauli frame of at most 64 qubits")]
    fn chain_module_rejects_codes_wider_than_the_frame() {
        ChainUecModule::new(rotated_surface_code(9), usc(5e-3), 3, UecNoise::default());
    }

    #[test]
    #[should_panic(expected = "Pauli frame of at most 64 qubits")]
    fn hom_module_rejects_codes_wider_than_the_frame() {
        HomModule::new(rotated_surface_code(9), 0.5e-3, UecNoise::default());
    }
}
