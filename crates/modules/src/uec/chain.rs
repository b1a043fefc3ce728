//! Chained UEC: codes beyond one USC's 30-qubit capacity on a USC +
//! `USC-EXT` chain (paper Fig. 8 — "with USC-EXTs added, to any code that
//! can be partitioned in 1D for larger sizes").
//!
//! Each chain segment (the head USC with three Registers, each extension
//! with two) owns a stabilizer ancilla; segments execute checks whose data
//! they hold locally, and remote qubits hop along the ancilla chain at the
//! cost of two extra SWAPs per hop. Checks touching disjoint segment sets
//! run concurrently — partial parallelism the single USC cannot offer.

use hetarch_exec::WorkerPool;
use serde::{Deserialize, Serialize};

use hetarch_cells::UscChannel;
use hetarch_stab::codes::StabilizerCode;

use crate::faults::{
    assert_frame_width, plain_rate, FaultDriver, ShotMetrics, ShotModel, SiteProgram,
};
use crate::uec::sim::{combine, uniform, CycleDecoder, UecNoise, UecResult, UEC_METRICS};

/// The chain geometry: segment 0 is the head USC, the rest are extensions.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChainShape {
    /// Registers per segment (3 for the USC head, 2 per USC-EXT).
    pub registers_per_segment: Vec<u32>,
    /// Storage modes per register.
    pub modes: u32,
}

impl ChainShape {
    /// A head USC plus `n_ext` extensions, `modes` modes per register.
    pub fn new(n_ext: usize, modes: u32) -> Self {
        let mut registers_per_segment = vec![3u32];
        registers_per_segment.extend(std::iter::repeat_n(2, n_ext));
        ChainShape {
            registers_per_segment,
            modes,
        }
    }

    /// Number of segments.
    pub fn num_segments(&self) -> usize {
        self.registers_per_segment.len()
    }

    /// Total data capacity.
    pub fn capacity(&self) -> u32 {
        self.registers_per_segment.iter().sum::<u32>() * self.modes
    }
}

/// Mapping of data qubits to chain segments.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChainAssignment {
    segment_of: Vec<u32>,
}

impl ChainAssignment {
    /// Segment of data qubit `q`.
    pub fn segment_of(&self, q: usize) -> u32 {
        self.segment_of[q]
    }

    /// Total chain hops a check incurs when executed at the hop-optimal
    /// (median) segment.
    pub fn check_hops(&self, support: &[usize]) -> (u32, u32) {
        let mut segs: Vec<u32> = support.iter().map(|&q| self.segment_of[q]).collect();
        segs.sort_unstable();
        let exec = segs[segs.len() / 2];
        let hops = segs.iter().map(|&s| s.abs_diff(exec)).sum();
        (exec, hops)
    }

    /// Total hop cost over all of a code's checks.
    pub fn cost(&self, code: &StabilizerCode) -> u32 {
        code.stabilizers()
            .iter()
            .map(|s| {
                let support: Vec<usize> = s.iter_support().map(|(q, _)| q).collect();
                self.check_hops(&support).1
            })
            .sum()
    }
}

/// Searches a 1D partition of `code`'s qubits across the chain, minimizing
/// total chain hops (greedy block start + hill climbing).
///
/// # Panics
///
/// Panics if the code does not fit the chain.
pub fn search_chain_assignment(code: &StabilizerCode, shape: &ChainShape) -> ChainAssignment {
    let n = code.num_qubits();
    assert!(
        n as u32 <= shape.capacity(),
        "code with {n} qubits exceeds chain capacity {}",
        shape.capacity()
    );
    let seg_caps: Vec<u32> = shape
        .registers_per_segment
        .iter()
        .map(|r| r * shape.modes)
        .collect();
    // Greedy start: fill segments in index order (a 1D block partition).
    let mut segment_of = Vec::with_capacity(n);
    let mut seg = 0usize;
    let mut used = 0u32;
    for _ in 0..n {
        while used >= seg_caps[seg] {
            seg += 1;
            used = 0;
        }
        segment_of.push(seg as u32);
        used += 1;
    }
    let mut assignment = ChainAssignment { segment_of };
    let mut cost = assignment.cost(code);
    // Hill-climb with pairwise swaps (capacity-preserving moves).
    let mut improved = true;
    while improved {
        improved = false;
        for a in 0..n {
            for b in (a + 1)..n {
                if assignment.segment_of[a] == assignment.segment_of[b] {
                    continue;
                }
                assignment.segment_of.swap(a, b);
                let c = assignment.cost(code);
                if c < cost {
                    cost = c;
                    improved = true;
                } else {
                    assignment.segment_of.swap(a, b);
                }
            }
        }
    }
    assignment
}

/// One scheduled check on the chain.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChainCheck {
    /// Stabilizer index.
    pub stabilizer: usize,
    /// Executing segment.
    pub segment: u32,
    /// All segments the check touches.
    pub segments_touched: Vec<u32>,
    /// Chain hops paid by remote qubits.
    pub hops: u32,
    /// Wall-clock duration.
    pub duration: f64,
    /// Compute exposure per involved qubit.
    pub exposure: f64,
}

/// The chain schedule: waves of concurrently executing checks.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChainSchedule {
    /// Waves; checks within a wave touch disjoint segment sets.
    pub waves: Vec<Vec<ChainCheck>>,
    /// Total cycle duration (sum over waves of the slowest member).
    pub cycle_duration: f64,
}

/// Builds the wave schedule for `code` on the chain.
pub fn build_chain_schedule(
    code: &StabilizerCode,
    assignment: &ChainAssignment,
    usc: &UscChannel,
) -> ChainSchedule {
    let mut checks: Vec<ChainCheck> = code
        .stabilizers()
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let support: Vec<usize> = s.iter_support().map(|(q, _)| q).collect();
            let (exec, hops) = assignment.check_hops(&support);
            let mut touched: Vec<u32> = support.iter().map(|&q| assignment.segment_of(q)).collect();
            touched.push(exec);
            touched.sort_unstable();
            touched.dedup();
            // Remote traffic also occupies every segment between source and
            // executor.
            let lo = *touched.first().expect("non-empty");
            let hi = *touched.last().expect("non-empty");
            let touched: Vec<u32> = (lo..=hi).collect();
            let w = support.len() as f64;
            let duration = 2.0 * w.min(3.0) * usc.swap.time          // local swap groups
                + 2.0 * hops as f64 * usc.swap.time                   // chain hops, round trip
                + w * usc.cx.time
                + usc.readout_time;
            let exposure = 2.0 * usc.swap.time
                + 2.0 * hops as f64 * usc.swap.time / w.max(1.0)
                + w * usc.cx.time;
            ChainCheck {
                stabilizer: i,
                segment: exec,
                segments_touched: touched,
                hops,
                duration,
                exposure,
            }
        })
        .collect();
    // Greedy wave packing: longest checks first.
    checks.sort_by(|a, b| b.duration.total_cmp(&a.duration));
    let mut waves: Vec<Vec<ChainCheck>> = Vec::new();
    for check in checks {
        let slot = waves.iter_mut().find(|wave| {
            wave.iter().all(|c| {
                c.segments_touched
                    .iter()
                    .all(|s| !check.segments_touched.contains(s))
            })
        });
        match slot {
            Some(wave) => wave.push(check),
            None => waves.push(vec![check]),
        }
    }
    let cycle_duration = waves
        .iter()
        .map(|w| w.iter().map(|c| c.duration).fold(0.0f64, f64::max))
        .sum();
    ChainSchedule {
        waves,
        cycle_duration,
    }
}

/// Monte-Carlo simulator for a code running on a USC chain.
#[derive(Clone, Debug)]
pub struct ChainUecModule {
    schedule: ChainSchedule,
    decoder: CycleDecoder,
    program: SiteProgram,
}

impl ChainUecModule {
    /// Builds the module for `code` on a chain with `n_ext` extensions.
    ///
    /// # Panics
    ///
    /// Panics if the code has more than 64 qubits (the width of the shot's
    /// Pauli frame), does not fit the chain, or needs more than 63
    /// stabilizers.
    pub fn new(code: StabilizerCode, usc: UscChannel, n_ext: usize, noise: UecNoise) -> Self {
        assert_frame_width(&code);
        let shape = ChainShape::new(n_ext, usc.capacity / usc.registers);
        let assignment = search_chain_assignment(&code, &shape);
        let schedule = build_chain_schedule(&code, &assignment, &usc);
        let weight_cap = (code.distance().div_ceil(2)).clamp(1, 2);
        let groups: Vec<Vec<usize>> = schedule
            .waves
            .iter()
            .map(|w| w.iter().map(|c| c.stabilizer).collect())
            .collect();
        let decoder = CycleDecoder::new(&code, weight_cap, &groups);
        let program = compile(&code, &schedule, &usc, noise);
        ChainUecModule {
            schedule,
            decoder,
            program,
        }
    }

    /// The wave schedule.
    pub fn schedule(&self) -> &ChainSchedule {
        &self.schedule
    }

    /// Per-cycle logical error rate over `shots` Monte-Carlo cycles on
    /// `pool`.
    ///
    /// Shard boundaries and per-shard RNG streams depend only on
    /// `(shots, seed)`, so the result is **bit-identical for every worker
    /// count**. `shots == 0` reports a rate of zero. For the rare-event
    /// estimator or a cancellation token, call
    /// [`estimate`](crate::faults::estimate) on the module directly.
    pub fn logical_error_rate_on(&self, pool: &WorkerPool, shots: usize, seed: u64) -> UecResult {
        UecResult {
            logical_error_rate: plain_rate(self, pool, shots, seed),
            cycle_duration: self.schedule.cycle_duration,
            shots,
        }
    }
}

impl ShotModel for ChainUecModule {
    fn metrics(&self) -> &'static ShotMetrics {
        &UEC_METRICS
    }

    fn run_shot<D: FaultDriver>(&self, driver: &mut D) -> bool {
        let (syndrome, frame) = self.program.run(driver);
        self.decoder.fails(syndrome, frame)
    }
}

/// Compiles one chain cycle into its site program: per wave, storage
/// idling over the wave's slowest check on every data qubit, then per
/// check its exposure, SWAP (local plus chain-hop) and CX noise on each
/// support qubit and the measurement with its ancilla flip.
fn compile(
    code: &StabilizerCode,
    schedule: &ChainSchedule,
    usc: &UscChannel,
    noise: UecNoise,
) -> SiteProgram {
    let stabs = code.stabilizers();
    let swap = uniform(noise.p_swap * 4.0 / 15.0);
    let cx = uniform(noise.p2q * 4.0 / 15.0);
    let mut program = SiteProgram::default();
    for wave in &schedule.waves {
        let duration = wave.iter().map(|c| c.duration).fold(0.0f64, f64::max);
        let storage = usc.storage_idle.twirl_probs(duration);
        for q in 0..code.num_qubits() {
            program.pauli(q, storage);
        }
        for check in wave {
            let stab = &stabs[check.stabilizer];
            let support: Vec<usize> = stab.iter_support().map(|(q, _)| q).collect();
            let exposure = usc.compute_idle.twirl_probs(check.exposure);
            let extra_hop_swaps = (2 * check.hops) as usize / support.len().max(1);
            for &q in &support {
                program.pauli(q, exposure);
                for _ in 0..(2 + extra_hop_swaps) {
                    program.pauli(q, swap);
                }
                program.pauli(q, cx);
            }
            let anc_idle = usc.compute_idle.twirl_probs(check.duration);
            let p_gate_anc = 1.0 - (1.0 - 8.0 / 15.0 * noise.p2q).powi(support.len() as i32);
            let anc_flip = combine(
                combine(anc_idle.px + anc_idle.py, p_gate_anc),
                noise.meas_flip,
            );
            program.measure(check.stabilizer, stab, anc_flip);
        }
    }
    program
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetarch_cells::UscCell;
    use hetarch_devices::catalog::{coherence_limited_compute, coherence_limited_storage};
    use hetarch_stab::codes::{rotated_surface_code, steane};

    fn usc(ts: f64) -> UscChannel {
        UscCell::new(
            coherence_limited_compute(0.5e-3),
            coherence_limited_storage(ts),
        )
        .unwrap()
        .characterize()
    }

    #[test]
    fn chain_shape_capacity() {
        assert_eq!(ChainShape::new(0, 10).capacity(), 30);
        assert_eq!(ChainShape::new(1, 10).capacity(), 50);
        assert_eq!(ChainShape::new(2, 10).capacity(), 70);
    }

    #[test]
    fn block_partition_minimizes_hops_for_surface_code() {
        // d=6 surface code (36 qubits) needs one extension.
        let code = rotated_surface_code(6);
        let shape = ChainShape::new(1, 10);
        let a = search_chain_assignment(&code, &shape);
        // Hops should be modest: local checks dominate for a 1D-partitioned
        // planar code.
        let cost = a.cost(&code);
        assert!(cost < 80, "total hops {cost}");
    }

    #[test]
    fn waves_exploit_multi_ancilla_parallelism() {
        let code = rotated_surface_code(6);
        let shape = ChainShape::new(1, 10);
        let a = search_chain_assignment(&code, &shape);
        let sched = build_chain_schedule(&code, &a, &usc(50e-3));
        // Fewer waves than checks => some parallelism happened.
        let n_checks: usize = sched.waves.iter().map(|w| w.len()).sum();
        assert_eq!(n_checks, code.stabilizers().len());
        assert!(
            sched.waves.len() < n_checks,
            "{} waves for {} checks",
            sched.waves.len(),
            n_checks
        );
    }

    #[test]
    fn oversized_code_runs_end_to_end() {
        let code = rotated_surface_code(6); // 36 data qubits > 30
        let module = ChainUecModule::new(code, usc(50e-3), 1, UecNoise::default());
        let r = module.logical_error_rate_on(&WorkerPool::new(4), 1500, 3);
        assert!(r.logical_error_rate < 0.5, "rate {}", r.logical_error_rate);
        assert!(r.cycle_duration > 0.0);
    }

    #[test]
    fn small_code_on_chain_matches_single_usc_ballpark() {
        // Steane fits a single segment; the chain should behave like (or
        // better than, thanks to wave parallelism) the serialized USC.
        let ch = usc(50e-3);
        let chain = ChainUecModule::new(steane(), ch.clone(), 1, UecNoise::default());
        let single = crate::uec::UecModule::new(steane(), ch, UecNoise::default());
        let a = chain
            .logical_error_rate_on(&WorkerPool::new(4), 6000, 9)
            .logical_error_rate;
        let b = single
            .logical_error_rate_on(&WorkerPool::new(4), 6000, 9)
            .logical_error_rate;
        assert!(a < 3.0 * b + 0.02, "chain {a} vs single {b}");
    }

    #[test]
    #[should_panic(expected = "exceeds chain capacity")]
    fn overflow_rejected() {
        let code = rotated_surface_code(8); // 64 qubits > 50
        let shape = ChainShape::new(1, 10);
        search_chain_assignment(&code, &shape);
    }
}
