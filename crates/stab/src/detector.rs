//! Detector and observable sampling.
//!
//! A **detector** is a parity of measurement outcomes that is deterministic
//! in the absence of noise; it "fires" when noise flips that parity. A
//! **logical observable** is a parity of measurements encoding the logical
//! state. Both are assembled from the frame sampler's measurement flips
//! (Stim's semantics): because frames record *deviations* from the noiseless
//! reference, a detector fires exactly when the XOR of its measurement flips
//! is one.

use hetarch_exec::WorkerPool;

use crate::bits::BitTable;
use crate::circuit::{Circuit, Gate1, Gate2, Instruction};
use crate::frame::FrameSampler;
use crate::tableau::Tableau;

/// Sampled detector and observable-flip data for a batch of shots.
#[derive(Clone, Debug)]
pub struct DetectorSamples {
    /// `num_detectors × shots` detector firings.
    pub detectors: BitTable,
    /// `num_observables × shots` observable flips.
    pub observables: BitTable,
}

impl DetectorSamples {
    /// Fraction of shots in which observable `k` flipped (the raw logical
    /// error rate when no decoder is applied).
    pub fn observable_flip_rate(&self, k: usize) -> f64 {
        self.observables.count_ones(k) as f64 / self.observables.shots() as f64
    }
}

/// Computes the noiseless reference measurement sample with the tableau
/// simulator (random outcomes forced to zero, Stim's convention).
pub fn reference_sample(circuit: &Circuit) -> Vec<bool> {
    let mut t = Tableau::new(circuit.num_qubits().max(1) as usize);
    let mut record = Vec::with_capacity(circuit.num_measurements());
    for inst in circuit.instructions() {
        match inst {
            Instruction::Gate1(g, qs) => {
                for &q in qs {
                    let q = q as usize;
                    match g {
                        Gate1::H => t.h(q),
                        Gate1::S => t.s(q),
                        Gate1::SDag => t.s_dag(q),
                        Gate1::X => t.x(q),
                        Gate1::Y => t.y(q),
                        Gate1::Z => t.z(q),
                    }
                }
            }
            Instruction::Gate2(g, pairs) => {
                for &(a, b) in pairs {
                    let (a, b) = (a as usize, b as usize);
                    match g {
                        Gate2::Cx => t.cx(a, b),
                        Gate2::Cz => t.cz(a, b),
                        Gate2::Swap => t.swap(a, b),
                    }
                }
            }
            Instruction::Measure { targets, .. } => {
                for &q in targets {
                    record.push(t.measure_forced(q as usize, false));
                }
            }
            Instruction::MeasureReset { targets, .. } => {
                for &q in targets {
                    let out = t.measure_forced(q as usize, false);
                    record.push(out);
                    if out {
                        t.x(q as usize);
                    }
                }
            }
            Instruction::Reset(qs) => {
                for &q in qs {
                    t.reset_forced(q as usize);
                }
            }
            _ => {}
        }
    }
    record
}

/// Verifies that every detector has even reference parity (i.e. is
/// deterministic-zero under no noise). Returns the indices of violating
/// detectors.
pub fn nondeterministic_detectors(circuit: &Circuit) -> Vec<usize> {
    let reference = reference_sample(circuit);
    let mut bad = Vec::new();
    let mut det = 0usize;
    for inst in circuit.instructions() {
        if let Instruction::Detector(ms) = inst {
            let parity = ms.iter().fold(false, |acc, &m| acc ^ reference[m]);
            if parity {
                bad.push(det);
            }
            det += 1;
        }
    }
    bad
}

/// Samples `shots` noisy executions of `circuit` on `pool`, returning
/// detector firings and observable flips.
///
/// Runs the sharded [`FrameSampler::sample`] path; the output is
/// bit-identical for every worker count (see [`hetarch_exec`]'s
/// `(seed, shard)` contract).
pub fn sample_detectors(
    pool: &WorkerPool,
    circuit: &Circuit,
    shots: usize,
    seed: u64,
) -> DetectorSamples {
    let result = FrameSampler::sample(circuit, shots, seed, pool);
    assemble_detectors(circuit, &result.meas_flips, shots)
}

/// Assembles detector firings and observable flips from a measurement-flip
/// table (e.g. one produced by [`FrameSampler::run_with_faults`] or
/// [`crate::frame::sample_at_weight`] on the rare-event path).
pub fn assemble_detectors(
    circuit: &Circuit,
    meas_flips: &BitTable,
    shots: usize,
) -> DetectorSamples {
    let mut detectors = BitTable::new(circuit.num_detectors(), shots);
    let mut observables = BitTable::new(circuit.num_observables() as usize, shots);
    let mut det = 0usize;
    for inst in circuit.instructions() {
        match inst {
            Instruction::Detector(ms) => {
                for &m in ms {
                    detectors.xor_row(det, meas_flips.row(m));
                }
                det += 1;
            }
            Instruction::Observable(k, ms) => {
                for &m in ms {
                    observables.xor_row(*k as usize, meas_flips.row(m));
                }
            }
            _ => {}
        }
    }
    DetectorSamples {
        detectors,
        observables,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::PauliErr;

    /// A tiny 3-qubit repetition-code memory: 2 ancilla parity checks
    /// repeated twice.
    fn rep_code_circuit(px: f64, meas_flip: f64) -> Circuit {
        // Qubits 0,1,2 = data; 3,4 = ancilla.
        let mut c = Circuit::new(5);
        let mut prev: Option<Vec<usize>> = None;
        for _round in 0..2 {
            c.pauli_noise(
                PauliErr {
                    px,
                    py: 0.0,
                    pz: 0.0,
                },
                &[0, 1, 2],
            );
            c.cx(&[(0, 3), (1, 4)]);
            c.cx(&[(1, 3), (2, 4)]);
            let m = c.measure_reset(&[3, 4], meas_flip);
            if let Some(p) = &prev {
                c.detector(&[p[0], m[0]]);
                c.detector(&[p[1], m[1]]);
            } else {
                c.detector(&[m[0]]);
                c.detector(&[m[1]]);
            }
            prev = Some(m);
        }
        let fin = c.measure(&[0, 1, 2], 0.0);
        let p = prev.unwrap();
        c.detector(&[fin[0], fin[1], p[0]]);
        c.detector(&[fin[1], fin[2], p[1]]);
        c.observable(0, &[fin[0]]);
        c
    }

    #[test]
    fn rep_code_detectors_are_deterministic() {
        let c = rep_code_circuit(0.01, 0.01);
        assert!(nondeterministic_detectors(&c).is_empty());
    }

    #[test]
    fn noiseless_run_fires_nothing() {
        let c = rep_code_circuit(0.0, 0.0);
        let s = sample_detectors(&WorkerPool::new(4), &c, 512, 11);
        for d in 0..c.num_detectors() {
            assert_eq!(s.detectors.count_ones(d), 0, "detector {d} fired");
        }
        assert_eq!(s.observables.count_ones(0), 0);
    }

    #[test]
    fn data_errors_fire_adjacent_detectors() {
        // Deterministic X on the middle data qubit fires both first-round
        // detectors and both final detectors... it is flipped once before
        // round 0 and once before round 1.
        let mut c = Circuit::new(5);
        c.pauli_noise(
            PauliErr {
                px: 1.0,
                py: 0.0,
                pz: 0.0,
            },
            &[1],
        );
        c.cx(&[(0, 3), (1, 4)]);
        c.cx(&[(1, 3), (2, 4)]);
        let m = c.measure_reset(&[3, 4], 0.0);
        c.detector(&[m[0]]);
        c.detector(&[m[1]]);
        let s = sample_detectors(&WorkerPool::new(4), &c, 64, 3);
        assert_eq!(s.detectors.count_ones(0), 64);
        assert_eq!(s.detectors.count_ones(1), 64);
    }

    #[test]
    fn observable_flip_rate_tracks_error_rate() {
        let c = rep_code_circuit(0.3, 0.0);
        let s = sample_detectors(&WorkerPool::new(4), &c, 50_000, 17);
        // Qubit 0 flips with probability p per round (2 rounds): net flip
        // probability 2p(1-p).
        let expect = 2.0 * 0.3 * 0.7;
        let rate = s.observable_flip_rate(0);
        assert!(
            (rate - expect).abs() < 0.01,
            "rate {rate}, expected {expect}"
        );
    }

    #[test]
    fn measurement_flip_fires_time_pair() {
        // Only measurement noise on the first-round ancilla measurement:
        // detectors at rounds 0 and 1 for that ancilla should fire together.
        let c = rep_code_circuit(0.0, 0.2);
        let s = sample_detectors(&WorkerPool::new(4), &c, 20_000, 23);
        let d0 = s.detectors.count_ones(0) as f64 / 20_000.0;
        let d2 = s.detectors.count_ones(2) as f64 / 20_000.0;
        // Detector 0 fires iff round-0 measurement of ancilla 3 flipped.
        assert!((d0 - 0.2).abs() < 0.02, "d0 = {d0}");
        // Detector 2 (same ancilla, next round) fires iff exactly one of the
        // two measurement flips happened: 2p(1-p) = 0.32.
        assert!((d2 - 0.32).abs() < 0.02, "d2 = {d2}");
    }
}
