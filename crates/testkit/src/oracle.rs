//! The cross-simulator differential oracle.
//!
//! [`DiffOracle`] runs one random noisy Clifford circuit
//! ([`NoisyCircuit`]) through the workspace's three independent models of
//! the same physics and demands pairwise agreement:
//!
//! 1. **Exact** — the density-matrix simulator (`hetarch-qsim`), applying
//!    each depolarizing event as a Kraus channel.
//! 2. **Composed** — the phenomenological `compose_errors` path
//!    (`hetarch-cells`): each depolarizing event's Pauli components are
//!    propagated through the remaining Cliffords as deterministic frames,
//!    giving a per-qubit flip probability that is XOR-composed across
//!    independent events. For Pauli noise on Clifford circuits this model
//!    is *exact*, so it must match (1) to float precision.
//! 3. **Sampled** — the sharded Pauli-frame Monte-Carlo sampler
//!    (`hetarch-stab` via `exec::WorkerPool`), which must match (1)
//!    statistically under the testkit sigma contract.
//!
//! Comparisons use the flip rate of each end-of-circuit Z measurement
//! relative to the noiseless reference, restricted to qubits whose
//! reference outcome is deterministic (the only qubits for which frame
//! flips have a probability interpretation).
//!
//! A failing circuit can be [`minimize`](DiffOracle::minimize)d: greedy
//! delta-debugging drops ops while the failure persists, typically leaving
//! a few gates that pin down the disagreement.

use hetarch_cells::channel::compose_errors;
use hetarch_exec::WorkerPool;
use hetarch_qsim::channels::Kraus1;
use hetarch_qsim::state::DensityMatrix;
use hetarch_qsim::{gates, measure};
use hetarch_stab::circuit::Circuit;
use hetarch_stab::frame::FrameSampler;
use hetarch_stab::tableau::Tableau;

use crate::arbitrary::{NoisyCircuit, NoisyOp};
use crate::stats::BinomialTest;

/// Which pairwise comparison a failure came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OracleComparison {
    /// Frame-sampler statistics disagreed with the exact density matrix.
    SamplerVsExact,
    /// The phenomenological composed-error path disagreed with the exact
    /// density matrix.
    ExactVsComposed,
}

/// A differential-oracle disagreement on one measured qubit.
#[derive(Clone, Debug)]
pub struct OracleFailure {
    /// Which model pair disagreed.
    pub comparison: OracleComparison,
    /// The measured qubit.
    pub qubit: usize,
    /// Rate produced by the model under test (sampler or composed path).
    pub observed: f64,
    /// Exact density-matrix rate.
    pub expected: f64,
    /// Human-readable evidence (statistical report or deviation).
    pub detail: String,
}

impl std::fmt::Display for OracleFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let pair = match self.comparison {
            OracleComparison::SamplerVsExact => "frame sampler vs density matrix",
            OracleComparison::ExactVsComposed => "composed errors vs density matrix",
        };
        write!(
            f,
            "{pair} disagree on qubit {}: {:.6} vs {:.6} ({})",
            self.qubit, self.observed, self.expected, self.detail
        )
    }
}

/// Differential oracle over the three simulation paths.
#[derive(Clone, Debug)]
pub struct DiffOracle {
    shots: usize,
    seed: u64,
    sigma: f64,
    workers: usize,
    depol_scale: f64,
}

impl DiffOracle {
    /// Creates an oracle running `shots` Monte-Carlo shots per check at RNG
    /// seed `seed`, with the default `5σ` statistical contract.
    pub fn new(shots: usize, seed: u64) -> Self {
        assert!(shots > 0, "oracle needs at least one shot");
        DiffOracle {
            shots,
            seed,
            sigma: 5.0,
            workers: 4,
            depol_scale: 1.0,
        }
    }

    /// Overrides the statistical significance threshold.
    pub fn with_sigma(mut self, sigma: f64) -> Self {
        assert!(sigma > 0.0);
        self.sigma = sigma;
        self
    }

    /// Overrides the worker count used for the sharded sampler (results are
    /// worker-count-invariant; this only changes wall-clock).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Fault-injection hook: scales every depolarizing probability in the
    /// *stabilizer lowering only*, simulating a mutated noise constant in
    /// the sampler. `1.0` (the default) is the faithful lowering; anything
    /// else is a deliberately injected bug the oracle must catch.
    ///
    /// Test-only: exists so the oracle's detection power is itself testable.
    #[doc(hidden)]
    pub fn with_depol_scale(mut self, scale: f64) -> Self {
        assert!(scale >= 0.0 && scale.is_finite());
        self.depol_scale = scale;
        self
    }

    /// Runs all three models on `circuit` and checks pairwise agreement.
    ///
    /// # Errors
    ///
    /// Returns the first [`OracleFailure`] found.
    pub fn check(&self, circuit: &NoisyCircuit) -> Result<(), OracleFailure> {
        let nc = circuit.canonical();
        let n = nc.num_qubits as usize;

        // Exact path + noiseless reference.
        let mut dm = DensityMatrix::zero_state(n);
        let mut tb = Tableau::new(n);
        for op in &nc.ops {
            match *op {
                NoisyOp::H(q) => {
                    gates::h(&mut dm, q as usize);
                    tb.h(q as usize);
                }
                NoisyOp::S(q) => {
                    gates::s(&mut dm, q as usize);
                    tb.s(q as usize);
                }
                NoisyOp::X(q) => {
                    gates::x(&mut dm, q as usize);
                    tb.x(q as usize);
                }
                NoisyOp::Cx(a, b) => {
                    gates::cnot(&mut dm, a as usize, b as usize);
                    tb.cx(a as usize, b as usize);
                }
                NoisyOp::Cz(a, b) => {
                    gates::cz(&mut dm, a as usize, b as usize);
                    tb.cz(a as usize, b as usize);
                }
                NoisyOp::Depol(q, p) => {
                    let ch = Kraus1::depolarizing(p).expect("generated probability is valid");
                    ch.apply(&mut dm, q as usize);
                }
            }
        }

        // Composed path: XOR-composition of per-event flip probabilities.
        let composed = self.composed_flip_rates(&nc);

        // Sampled path.
        let stab_circuit = self.lower(&nc);
        let pool = WorkerPool::new(self.workers);
        let result = FrameSampler::sample(&stab_circuit, self.shots, self.seed, &pool);

        for (q, &composed_q) in composed.iter().enumerate().take(n) {
            let p_ref = tb.prob_one(q);
            if (p_ref - 0.5).abs() < 0.25 {
                // Reference outcome is random: flips carry no probability
                // meaning for this qubit.
                continue;
            }
            let reference_one = p_ref > 0.5;
            let p_one = measure::prob_one(&dm, q);
            // Clamp float roundoff (prob_one can land at -2e-16 or 1+ε).
            let exact_flip = if reference_one { 1.0 - p_one } else { p_one }.clamp(0.0, 1.0);

            // Composed vs exact: both are analytic, so the agreement is
            // float-precision, not statistical.
            if (composed_q - exact_flip).abs() > 1e-9 {
                return Err(OracleFailure {
                    comparison: OracleComparison::ExactVsComposed,
                    qubit: q,
                    observed: composed_q,
                    expected: exact_flip,
                    detail: format!("deviation {:.3e} > 1e-9", (composed_q - exact_flip).abs()),
                });
            }

            // Sampler vs exact: sigma contract.
            let flips = result.meas_flips.count_ones(q) as u64;
            let test = BinomialTest::new(flips, self.shots as u64);
            let report = test.check(exact_flip, self.sigma);
            if !report.compatible {
                return Err(OracleFailure {
                    comparison: OracleComparison::SamplerVsExact,
                    qubit: q,
                    observed: test.rate(),
                    expected: exact_flip,
                    detail: report.to_string(),
                });
            }
        }
        Ok(())
    }

    /// Asserts agreement, panicking with the failure (and its minimized
    /// circuit) otherwise.
    ///
    /// # Panics
    ///
    /// Panics on the first oracle disagreement.
    #[track_caller]
    pub fn assert_agrees(&self, circuit: &NoisyCircuit) {
        if let Err(failure) = self.check(circuit) {
            let minimal = self.minimize(circuit);
            panic!(
                "differential oracle failed: {failure}\nminimized circuit ({} qubits, {} ops): {:?}",
                minimal.num_qubits,
                minimal.ops.len(),
                minimal.ops
            );
        }
    }

    /// Greedy shrinker: repeatedly drops ops from a failing circuit while
    /// the failure persists, returning a (locally) minimal failing circuit.
    /// Returns the canonical input unchanged if it does not fail.
    pub fn minimize(&self, circuit: &NoisyCircuit) -> NoisyCircuit {
        let mut current = circuit.canonical();
        if self.check(&current).is_ok() {
            return current;
        }
        loop {
            let mut shrunk = false;
            let mut i = 0;
            while i < current.ops.len() {
                let mut candidate = current.clone();
                candidate.ops.remove(i);
                if self.check(&candidate).is_err() {
                    current = candidate;
                    shrunk = true;
                } else {
                    i += 1;
                }
            }
            if !shrunk {
                return current;
            }
        }
    }

    /// Lowers the abstract circuit to a stabilizer [`Circuit`], applying
    /// the fault-injection [`depol_scale`](Self::with_depol_scale) to every
    /// depolarizing probability.
    fn lower(&self, nc: &NoisyCircuit) -> Circuit {
        let mut c = Circuit::new(nc.num_qubits);
        for op in &nc.ops {
            match *op {
                NoisyOp::H(q) => {
                    c.h(&[q]);
                }
                NoisyOp::S(q) => {
                    c.s(&[q]);
                }
                NoisyOp::X(q) => {
                    c.x(&[q]);
                }
                NoisyOp::Cx(a, b) => {
                    c.cx(&[(a, b)]);
                }
                NoisyOp::Cz(a, b) => {
                    c.cz(&[(a, b)]);
                }
                NoisyOp::Depol(q, p) => {
                    c.depolarize1((p * self.depol_scale).min(1.0), &[q]);
                }
            }
        }
        let qubits: Vec<u32> = (0..nc.num_qubits).collect();
        c.measure(&qubits, 0.0);
        c
    }

    /// Per-qubit measurement-flip probabilities from the phenomenological
    /// composed-error model: each depolarizing event's X/Y/Z components are
    /// propagated as deterministic Pauli frames through the remaining
    /// Cliffords; the event flips qubit `m`'s Z measurement with probability
    /// `p/3 · k_m` (`k_m` = components whose propagated frame has X support
    /// on `m`), and independent events compose by [`compose_errors`].
    fn composed_flip_rates(&self, nc: &NoisyCircuit) -> Vec<f64> {
        let n = nc.num_qubits as usize;
        let mut flip = vec![0.0f64; n];
        for (i, op) in nc.ops.iter().enumerate() {
            if let NoisyOp::Depol(q, p) = *op {
                let mut k = vec![0u32; n];
                // Components X=(1,0), Y=(1,1), Z=(0,1) on qubit q.
                for (x0, z0) in [(true, false), (true, true), (false, true)] {
                    let x_mask = propagate_frame(&nc.ops[i + 1..], q, x0, z0);
                    for (m, count) in k.iter_mut().enumerate() {
                        if (x_mask >> m) & 1 == 1 {
                            *count += 1;
                        }
                    }
                }
                for (m, count) in k.iter().enumerate() {
                    if *count > 0 {
                        flip[m] = compose_errors(flip[m], p * f64::from(*count) / 3.0);
                    }
                }
            }
        }
        flip
    }
}

/// Propagates a single-qubit Pauli frame `(x0, z0)` on `start_qubit`
/// through the Clifford part of `ops` (noise ops act trivially on frames),
/// returning the final X-support mask — the set of Z measurements the frame
/// flips. Same update rules as the frame sampler, one frame instead of a
/// bit-packed batch.
fn propagate_frame(ops: &[NoisyOp], start_qubit: u32, x0: bool, z0: bool) -> u64 {
    let mut x: u64 = (x0 as u64) << start_qubit;
    let mut z: u64 = (z0 as u64) << start_qubit;
    for op in ops {
        match *op {
            NoisyOp::H(q) => {
                let (xb, zb) = ((x >> q) & 1, (z >> q) & 1);
                x = (x & !(1 << q)) | (zb << q);
                z = (z & !(1 << q)) | (xb << q);
            }
            NoisyOp::S(q) => {
                z ^= ((x >> q) & 1) << q;
            }
            NoisyOp::X(_) => {}
            NoisyOp::Cx(a, b) => {
                x ^= ((x >> a) & 1) << b;
                z ^= ((z >> b) & 1) << a;
            }
            NoisyOp::Cz(a, b) => {
                z ^= ((x >> a) & 1) << b;
                z ^= ((x >> b) & 1) << a;
            }
            NoisyOp::Depol(_, _) => {}
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn faithful_oracle() -> DiffOracle {
        DiffOracle::new(20_000, 11)
    }

    #[test]
    fn noiseless_ghz_circuit_agrees() {
        let c = NoisyCircuit {
            num_qubits: 3,
            ops: vec![NoisyOp::H(0), NoisyOp::Cx(0, 1), NoisyOp::Cx(1, 2)],
        };
        faithful_oracle().check(&c).unwrap();
    }

    #[test]
    fn depolarized_deterministic_qubit_agrees() {
        let c = NoisyCircuit {
            num_qubits: 2,
            ops: vec![NoisyOp::X(0), NoisyOp::Depol(0, 0.12), NoisyOp::Cx(0, 1)],
        };
        faithful_oracle().check(&c).unwrap();
    }

    #[test]
    fn composed_path_tracks_error_propagation() {
        // A depol on q0 *before* CX propagates X components to q1; the
        // composed path must account for that (flip rate 2p/3 on both).
        let c = NoisyCircuit {
            num_qubits: 2,
            ops: vec![NoisyOp::Depol(0, 0.09), NoisyOp::Cx(0, 1)],
        };
        let oracle = faithful_oracle();
        let rates = oracle.composed_flip_rates(&c.canonical());
        assert!((rates[0] - 0.06).abs() < 1e-12);
        // q1 flips when the component is X or Y on q0 (propagated to X on
        // q1): also 2p/3.
        assert!((rates[1] - 0.06).abs() < 1e-12);
        oracle.check(&c).unwrap();
    }

    #[test]
    fn injected_depol_bug_is_caught() {
        // Mutating the sampler's depolarizing constant by 60% must trip the
        // sampler-vs-exact comparison on a deterministic qubit.
        let c = NoisyCircuit {
            num_qubits: 2,
            ops: vec![NoisyOp::X(0), NoisyOp::Depol(0, 0.1)],
        };
        let buggy = DiffOracle::new(50_000, 13).with_depol_scale(1.6);
        let failure = buggy.check(&c).unwrap_err();
        assert_eq!(failure.comparison, OracleComparison::SamplerVsExact);
        // The same oracle with the faithful constant passes.
        DiffOracle::new(50_000, 13).check(&c).unwrap();
    }

    #[test]
    fn minimize_strips_irrelevant_ops() {
        // Pad a failing core (X + Depol on q0) with ops on other qubits;
        // the shrinker must strip the padding.
        let c = NoisyCircuit {
            num_qubits: 3,
            ops: vec![
                NoisyOp::H(1),
                NoisyOp::S(2),
                NoisyOp::X(0),
                NoisyOp::Cz(1, 2),
                NoisyOp::Depol(0, 0.1),
                NoisyOp::S(2),
            ],
        };
        let buggy = DiffOracle::new(50_000, 17).with_depol_scale(1.8);
        assert!(buggy.check(&c).is_err());
        let minimal = buggy.minimize(&c);
        assert!(
            minimal.ops.len() <= 2,
            "expected a near-minimal circuit, got {:?}",
            minimal.ops
        );
        assert!(minimal.ops.contains(&NoisyOp::Depol(0, 0.1)));
    }

    #[test]
    fn worker_count_does_not_change_the_verdict() {
        let c = NoisyCircuit {
            num_qubits: 2,
            ops: vec![NoisyOp::X(1), NoisyOp::Depol(1, 0.08), NoisyOp::Cx(1, 0)],
        };
        for workers in [1, 8] {
            DiffOracle::new(20_000, 23)
                .with_workers(workers)
                .check(&c)
                .unwrap();
        }
    }
}
