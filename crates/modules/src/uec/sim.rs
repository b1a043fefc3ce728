//! Monte-Carlo simulation of the universal error correction module
//! (paper §4.2.2, Fig. 9, Table 3).
//!
//! Checks are serialized: the error accumulates *while* the syndrome is
//! being read out check by check, which is exactly the flexibility-for-time
//! trade the UEC makes. Decoding uses the exact minimum-weight lookup table,
//! followed by a perfect round to resolve measurement-error-induced
//! miscorrections (the standard pseudothreshold methodology for small
//! codes).

use hetarch_exec::WorkerPool;
use serde::{Deserialize, Serialize};

use crate::faults::{
    assert_frame_width, plain_rate, FaultDriver, Frame, ShotMetrics, ShotModel, SiteProgram,
};

use hetarch_cells::UscChannel;
use hetarch_qsim::channels::PauliProbs;
use hetarch_stab::codes::StabilizerCode;
use hetarch_stab::decoder::LookupDecoder;
use hetarch_stab::pauli::{Pauli, PauliString};

use crate::uec::assign::{build_schedule, search_assignment, Assignment, CycleSchedule};

use std::collections::HashMap;

// UEC Monte-Carlo metrics, shared with the chained variant in `chain.rs`.
pub(crate) static UEC_METRICS: ShotMetrics = ShotMetrics::new(
    "modules.uec.shots",
    "modules.uec.failures",
    "modules.uec.run_ns",
);

/// Gate-level noise settings for the UEC study (§4.2: two-qubit gates at
/// 1%).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct UecNoise {
    /// Two-qubit (CX) depolarizing probability.
    pub p2q: f64,
    /// Storage SWAP depolarizing probability.
    pub p_swap: f64,
    /// Classical readout flip probability.
    pub meas_flip: f64,
}

impl Default for UecNoise {
    /// §4.2 calibration: CX gates at 1%; the storage SWAP at 0.5% —
    /// per §3.1 its fidelity is limited only by the SWAP time and the
    /// transmon's T2, i.e. roughly half a full compute-compute gate's error.
    fn default() -> Self {
        UecNoise {
            p2q: 1e-2,
            p_swap: 5e-3,
            meas_flip: 0.0,
        }
    }
}

/// Results of a UEC Monte-Carlo run.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct UecResult {
    /// Logical error probability per QEC cycle.
    pub logical_error_rate: f64,
    /// Cycle duration (seconds).
    pub cycle_duration: f64,
    /// Shots simulated.
    pub shots: usize,
}

/// The UEC module simulator for one code on one USC.
#[derive(Clone, Debug)]
pub struct UecModule {
    code: StabilizerCode,
    assignment: Assignment,
    schedule: CycleSchedule,
    decoder: CycleDecoder,
    program: SiteProgram,
}

impl UecModule {
    /// Builds the module: searches the qubit assignment, builds the
    /// serialized schedule, and constructs the lookup decoder (weight cap
    /// `⌈d/2⌉` capped at 3 for table-size reasons).
    ///
    /// # Panics
    ///
    /// Panics if the code has more than 64 qubits (the width of the shot's
    /// Pauli frame) or exceeds the USC capacity.
    pub fn new(code: StabilizerCode, usc: UscChannel, noise: UecNoise) -> Self {
        assert_frame_width(&code);
        let assignment = search_assignment(&code, usc.registers, usc.capacity / usc.registers);
        let schedule = build_schedule(&code, &assignment, &usc);
        let weight_cap = (code.distance().div_ceil(2)).clamp(1, 3);
        // Serialized extraction: one stabilizer per temporal step, in
        // schedule order.
        let groups: Vec<Vec<usize>> = schedule.checks.iter().map(|c| vec![c.stabilizer]).collect();
        let decoder = CycleDecoder::new(&code, weight_cap, &groups);
        let program = Self::compile(&code, &usc, noise, &schedule);
        UecModule {
            code,
            assignment,
            schedule,
            decoder,
            program,
        }
    }

    /// The code under test.
    pub fn code(&self) -> &StabilizerCode {
        &self.code
    }

    /// The serialized cycle schedule.
    pub fn schedule(&self) -> &CycleSchedule {
        &self.schedule
    }

    /// The chosen register assignment.
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// Runs `shots` Monte-Carlo cycles on `pool` and returns the per-cycle
    /// logical error rate.
    ///
    /// Shard boundaries and the per-shard RNG streams depend only on
    /// `(shots, seed)`, so the result is **bit-identical for every worker
    /// count** and across repeated runs. `shots == 0` reports a rate of
    /// zero. For the rare-event estimator or a cancellation token, call
    /// [`estimate`](crate::faults::estimate) on the module directly.
    pub fn logical_error_rate_on(&self, pool: &WorkerPool, shots: usize, seed: u64) -> UecResult {
        UecResult {
            logical_error_rate: plain_rate(self, pool, shots, seed),
            cycle_duration: self.schedule.cycle_duration,
            shots,
        }
    }

    /// Compiles one serialized cycle into its site program. Per slot:
    /// storage idling on every data qubit (the involved ones only outside
    /// their compute exposure, which follows as a second site), two SWAPs
    /// and one CX per support qubit (the data-side marginal of two-qubit
    /// depolarizing noise), then the measurement with its ancilla/readout
    /// flip.
    fn compile(
        code: &StabilizerCode,
        usc: &UscChannel,
        noise: UecNoise,
        schedule: &CycleSchedule,
    ) -> SiteProgram {
        let stabs = code.stabilizers();
        let swap = uniform(noise.p_swap * 4.0 / 15.0);
        let cx = uniform(noise.p2q * 4.0 / 15.0);
        let mut program = SiteProgram::default();
        for slot in &schedule.checks {
            let stab = &stabs[slot.stabilizer];
            let support: Vec<usize> = stab.iter_support().map(|(q, _)| q).collect();
            let storage_uninvolved = usc.storage_idle.twirl_probs(slot.duration);
            let storage_involved = usc
                .storage_idle
                .twirl_probs((slot.duration - slot.exposure).max(0.0));
            let compute_exposure = usc.compute_idle.twirl_probs(slot.exposure);
            for q in 0..code.num_qubits() {
                if support.contains(&q) {
                    program.pauli(q, storage_involved);
                    program.pauli(q, compute_exposure);
                } else {
                    program.pauli(q, storage_uninvolved);
                }
            }
            for &q in &support {
                program.pauli(q, swap);
                program.pauli(q, swap);
                program.pauli(q, cx);
            }
            let anc_idle = usc.compute_idle.twirl_probs(slot.duration);
            // X/Y on the ancilla flips its Z readout; each CX can also
            // deposit a flipping component (8 of 15 depolarizing terms).
            let p_gate_anc = 1.0 - (1.0 - 8.0 / 15.0 * noise.p2q).powi(slot.weight as i32);
            let anc_flip = combine(
                combine(anc_idle.px + anc_idle.py, p_gate_anc),
                noise.meas_flip,
            );
            program.measure(slot.stabilizer, stab, anc_flip);
        }
        program
    }
}

impl ShotModel for UecModule {
    fn metrics(&self) -> &'static ShotMetrics {
        &UEC_METRICS
    }

    fn run_shot<D: FaultDriver>(&self, driver: &mut D) -> bool {
        let (syndrome, frame) = self.program.run(driver);
        self.decoder.fails(syndrome, frame)
    }
}

/// The decode tail shared by every lookup-decoded module: the measured
/// syndrome of one cycle decodes through the first-order circuit-fault
/// table (partial syndromes from mid-cycle errors decode to their own
/// fault, never to a spurious multi-qubit correction) with the
/// minimum-weight [`LookupDecoder`] as fallback, then a perfect round
/// resolves any leftover syndrome.
///
/// Both tables are compiled to [`Frame`] masks: the first maps a measured
/// syndrome to the first-order correction, or to the lookup correction
/// where the first-order table has none; the second is the lookup table
/// of the perfect round. A syndrome missing from a table corrects
/// nothing.
#[derive(Clone, Debug)]
pub struct CycleDecoder {
    stabilizers: Vec<Frame>,
    logicals: Vec<Frame>,
    measured: SyndromeTable,
    perfect: SyndromeTable,
}

impl CycleDecoder {
    /// Builds the lookup table over errors of weight ≤ `weight_cap` and
    /// the [`first_order_table`] of the extraction order `temporal_groups`.
    ///
    /// # Panics
    ///
    /// Panics if the code has more than 64 qubits or 63 stabilizers.
    pub fn new(code: &StabilizerCode, weight_cap: usize, temporal_groups: &[Vec<usize>]) -> Self {
        assert_frame_width(code);
        let lookup = LookupDecoder::new(code, weight_cap);
        let r = code.stabilizers().len();
        let mut measured = SyndromeTable::new(r);
        let mut perfect = SyndromeTable::new(r);
        for (bits, c) in lookup.entries() {
            measured.insert(bits, Frame::of(c));
            perfect.insert(bits, Frame::of(c));
        }
        for (bits, c) in first_order_table(code, temporal_groups) {
            measured.insert(bits, Frame::of(&c));
        }
        CycleDecoder {
            stabilizers: code.stabilizers().iter().map(Frame::of).collect(),
            logicals: code
                .logical_x()
                .iter()
                .chain(code.logical_z())
                .map(Frame::of)
                .collect(),
            measured,
            perfect,
        }
    }

    /// The syndrome of `frame`: bit `i` set when it anticommutes with
    /// stabilizer `i`.
    #[inline]
    pub fn syndrome(&self, frame: Frame) -> u64 {
        self.stabilizers.iter().enumerate().fold(0, |acc, (i, s)| {
            acc | (u64::from(s.anticommutes(frame)) << i)
        })
    }

    /// Corrects `frame` by the measured `syndrome` and then by the perfect
    /// round, and reports whether the final error is a logical failure (a
    /// leftover syndrome or a logical flip).
    #[inline]
    pub fn fails(&self, syndrome: u64, mut frame: Frame) -> bool {
        frame ^= self.measured.get(syndrome);
        frame ^= self.perfect.get(self.syndrome(frame));
        self.syndrome(frame) != 0 || self.logicals.iter().any(|l| l.anticommutes(frame))
    }
}

/// Codes with at most this many stabilizers index their syndrome tables
/// directly (`2^12` frames, 64 KiB); larger codes keep a map, whose size
/// follows the table's entries rather than the syndrome space.
const DENSE_STABILIZERS: usize = 12;

/// A syndrome → correction table; absent syndromes map to the identity.
#[derive(Clone, Debug)]
enum SyndromeTable {
    Dense(Vec<Frame>),
    Sparse(HashMap<u64, Frame>),
}

impl SyndromeTable {
    fn new(num_stabilizers: usize) -> Self {
        if num_stabilizers <= DENSE_STABILIZERS {
            SyndromeTable::Dense(vec![Frame::default(); 1 << num_stabilizers])
        } else {
            SyndromeTable::Sparse(HashMap::new())
        }
    }

    fn insert(&mut self, syndrome: u64, correction: Frame) {
        match self {
            SyndromeTable::Dense(t) => t[syndrome as usize] = correction,
            SyndromeTable::Sparse(t) => {
                t.insert(syndrome, correction);
            }
        }
    }

    #[inline]
    fn get(&self, syndrome: u64) -> Frame {
        match self {
            SyndromeTable::Dense(t) => t[syndrome as usize],
            SyndromeTable::Sparse(t) => t.get(&syndrome).copied().unwrap_or_default(),
        }
    }
}

/// Builds the first-order circuit-fault decoding table for a temporally
/// ordered syndrome extraction.
///
/// `temporal_groups` lists the stabilizer indices measured at each step, in
/// order. A single data-qubit fault occurring before step `k` is seen only
/// by the checks at steps ≥ k, producing a *partial* syndrome; this table
/// maps every such partial syndrome (and every single measurement flip) to
/// a correction of weight ≤ 1, so that **every** single circuit fault
/// decodes without a logical error — the property circuit-level decoding
/// gives the paper's Stim pipeline, recovered here for lookup decoding.
pub fn first_order_table(
    code: &StabilizerCode,
    temporal_groups: &[Vec<usize>],
) -> std::collections::HashMap<u64, PauliString> {
    use std::collections::HashMap;
    let n = code.num_qubits();
    let stabs = code.stabilizers();
    // Gather every single fault's symptom, then resolve: a symptom claimed
    // by exactly one correction decodes to it; a symptom shared by several
    // distinct faults (or by a measurement flip, which wants "identity")
    // decodes to identity — the weight <= 1 residual is then fixed exactly
    // by the perfect round, so *every* single fault is harmless.
    let mut candidates: HashMap<u64, Vec<PauliString>> = HashMap::new();
    // Single measurement flips want the identity correction.
    for s in 0..stabs.len() {
        candidates
            .entry(1u64 << s)
            .or_default()
            .push(PauliString::identity(n));
    }
    for k in 0..temporal_groups.len() {
        for q in 0..n {
            for p in [Pauli::X, Pauli::Y, Pauli::Z] {
                let e = PauliString::from_sparse(n, &[(q, p)]);
                let mut symptom = 0u64;
                for group in &temporal_groups[k..] {
                    for &s in group {
                        if !stabs[s].commutes_with(&e) {
                            symptom |= 1 << s;
                        }
                    }
                }
                let entry = candidates.entry(symptom).or_default();
                if !entry.contains(&e) {
                    entry.push(e);
                }
            }
        }
    }
    let mut table: HashMap<u64, PauliString> = HashMap::new();
    table.insert(0, PauliString::identity(n));
    for (symptom, cands) in candidates {
        if symptom == 0 {
            continue;
        }
        let correction = if cands.len() == 1 {
            cands.into_iter().next().expect("one candidate")
        } else {
            PauliString::identity(n)
        };
        table.insert(symptom, correction);
    }
    table
}

pub(crate) fn combine(a: f64, b: f64) -> f64 {
    a * (1.0 - b) + b * (1.0 - a)
}

/// The Pauli channel firing X, Y and Z with probability `p` each.
pub(crate) fn uniform(p: f64) -> PauliProbs {
    PauliProbs {
        px: p,
        py: p,
        pz: p,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{estimate, Estimator, RunCtx};
    use hetarch_cells::UscCell;
    use hetarch_devices::catalog::{coherence_limited_compute, coherence_limited_storage};
    use hetarch_exec::rare::{RareConfig, RareOutcome};
    use hetarch_stab::codes::{rotated_surface_code, steane};

    fn rare(m: &UecModule, pool: &WorkerPool, config: RareConfig, seed: u64) -> RareOutcome {
        let ctx = RunCtx {
            pool,
            seed,
            cancel: None,
        };
        estimate(m, Estimator::Rare(config), &ctx)
            .unwrap()
            .into_rare()
            .unwrap()
    }

    fn usc(ts: f64) -> UscChannel {
        UscCell::new(
            coherence_limited_compute(0.5e-3),
            coherence_limited_storage(ts),
        )
        .unwrap()
        .characterize()
    }

    #[test]
    fn noiseless_uec_never_fails() {
        let noise = UecNoise {
            p2q: 0.0,
            p_swap: 0.0,
            meas_flip: 0.0,
        };
        // Effectively infinite coherence everywhere.
        let ch = UscCell::new(
            coherence_limited_compute(1e3),
            coherence_limited_storage(1e3),
        )
        .unwrap()
        .characterize();
        let m = UecModule::new(steane(), ch, noise);
        let r = m.logical_error_rate_on(&WorkerPool::new(4), 500, 3);
        assert_eq!(r.logical_error_rate, 0.0);
    }

    #[test]
    fn longer_storage_reduces_logical_error() {
        let noise = UecNoise::default();
        let short = UecModule::new(steane(), usc(0.5e-3), noise).logical_error_rate_on(
            &WorkerPool::new(4),
            4000,
            7,
        );
        let long = UecModule::new(steane(), usc(50e-3), noise).logical_error_rate_on(
            &WorkerPool::new(4),
            4000,
            7,
        );
        assert!(
            long.logical_error_rate < short.logical_error_rate,
            "Ts=50ms ({}) should beat Ts=0.5ms ({})",
            long.logical_error_rate,
            short.logical_error_rate
        );
    }

    #[test]
    fn cycle_duration_reported() {
        let m = UecModule::new(steane(), usc(1e-3), UecNoise::default());
        let r = m.logical_error_rate_on(&WorkerPool::new(4), 10, 1);
        assert!(
            r.cycle_duration > 5e-6 && r.cycle_duration < 50e-6,
            "cycle duration {}",
            r.cycle_duration
        );
    }

    #[test]
    fn surface_code_runs_on_uec() {
        let m = UecModule::new(rotated_surface_code(3), usc(50e-3), UecNoise::default());
        let r = m.logical_error_rate_on(&WorkerPool::new(4), 2000, 11);
        assert!(r.logical_error_rate < 0.2, "rate {}", r.logical_error_rate);
    }

    #[test]
    fn results_deterministic_for_seed() {
        let m = UecModule::new(steane(), usc(1e-3), UecNoise::default());
        let a = m.logical_error_rate_on(&WorkerPool::new(4), 1000, 42);
        let b = m.logical_error_rate_on(&WorkerPool::new(4), 1000, 42);
        assert_eq!(a.logical_error_rate, b.logical_error_rate);
    }

    #[test]
    fn rare_estimator_tracks_plain_estimator() {
        // At the default (high) noise the plain estimator is a trustworthy
        // oracle; the stratified estimate must agree within combined error
        // bars.
        let m = UecModule::new(steane(), usc(1e-3), UecNoise::default());
        let shots = 20_000;
        let plain = m
            .logical_error_rate_on(&WorkerPool::new(4), shots, 17)
            .logical_error_rate;
        let plain_sigma = (plain * (1.0 - plain) / shots as f64).sqrt();
        let config = RareConfig {
            max_strata: 24,
            rel_tol: 0.02,
            shots_per_stratum: 4_000,
            ..RareConfig::default()
        };
        let outcome = rare(&m, &WorkerPool::new(4), config, 19);
        let report = outcome.report();
        assert!(report.p_l > 0.0, "default noise must fail sometimes");
        let tolerance = 5.0 * (plain_sigma + report.sigma) + report.truncation_bound;
        assert!(
            (report.p_l - plain).abs() <= tolerance,
            "stratified {} vs plain {plain} (tolerance {tolerance})",
            report.p_l
        );
    }

    #[test]
    fn rare_estimator_is_worker_count_invariant() {
        let m = UecModule::new(steane(), usc(1e-3), UecNoise::default());
        let config = RareConfig {
            max_strata: 4,
            rel_tol: 0.5,
            shots_per_stratum: 1_024,
            enumerate_threshold: 64,
            ..RareConfig::default()
        };
        let reports: Vec<_> = [1usize, 3, 8]
            .iter()
            .map(|&w| rare(&m, &WorkerPool::new(w), config, 23).into_report())
            .collect();
        assert_eq!(reports[0], reports[1]);
        assert_eq!(reports[0], reports[2]);
    }
}
