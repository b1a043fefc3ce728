//! Shared density-matrix probe routines for cell characterization.
//!
//! Characterization sweeps evaluate the same six Pauli-eigenstate probes
//! over and over (once per duration grid point per cell), so both the probe
//! definitions and the materialized probe *states* are built once and
//! cached: [`pauli_eigenstate_probes`] behind a `OnceLock`,
//! [`probe_states`] behind a per-`(n, target)` map. The averaged-fidelity
//! helpers hand the whole probe set to the caller as one slice so every
//! channel step can run as one `Kraus1::apply_batch`/`Kraus2::apply_batch`
//! call.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use hetarch_qsim::complex::C64;
use hetarch_qsim::fidelity::fidelity_with_pure;
use hetarch_qsim::matrix::Mat;
use hetarch_qsim::state::DensityMatrix;

static PROBES: OnceLock<Vec<(Vec<Mat>, Vec<C64>)>> = OnceLock::new();
#[allow(clippy::type_complexity)]
static PROBE_STATES: OnceLock<Mutex<HashMap<(usize, usize), Vec<DensityMatrix>>>> = OnceLock::new();

/// The six single-qubit Pauli eigenstates used for state-averaged fidelity,
/// as (preparation gates, resulting state vector). Built once and cached.
pub fn pauli_eigenstate_probes() -> &'static [(Vec<Mat>, Vec<C64>)] {
    PROBES
        .get_or_init(|| {
            let h = Mat::hadamard();
            let x = Mat::pauli_x();
            let s = Mat::s_gate();
            let preps: Vec<Vec<Mat>> = vec![
                vec![],                      // |0>
                vec![x.clone()],             // |1>
                vec![h.clone()],             // |+>
                vec![x.clone(), h.clone()],  // |->
                vec![h.clone(), s.clone()],  // |+i>
                vec![h.clone(), s.dagger()], // |-i>
            ];
            preps
                .into_iter()
                .map(|gates| {
                    let mut psi = vec![C64::ONE, C64::ZERO];
                    for g in &gates {
                        psi = apply_vec(g, &psi);
                    }
                    (gates, psi)
                })
                .collect()
        })
        .as_slice()
}

fn apply_vec(m: &Mat, v: &[C64]) -> Vec<C64> {
    let mut out = vec![C64::ZERO; v.len()];
    for (r, o) in out.iter_mut().enumerate() {
        for (c, x) in v.iter().enumerate() {
            *o += m[(r, c)] * *x;
        }
    }
    out
}

/// The six Pauli-eigenstate probe states materialized on an `n`-qubit
/// register with the eigenstate prepared on qubit `target` (all other
/// qubits `|0⟩`), in [`pauli_eigenstate_probes`] order.
///
/// The states are prepared once per `(n, target)` and served from a cache;
/// the returned vector is a fresh copy the caller may mutate freely.
pub fn probe_states(n: usize, target: usize) -> Vec<DensityMatrix> {
    let cache = PROBE_STATES.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().expect("probe-state cache poisoned");
    map.entry((n, target))
        .or_insert_with(|| {
            pauli_eigenstate_probes()
                .iter()
                .map(|(gates, _)| {
                    let mut rho = DensityMatrix::zero_state(n);
                    for g in gates {
                        rho.apply_1q(target, g);
                    }
                    rho
                })
                .collect()
        })
        .clone()
}

/// Average fidelity of a qubit-transfer operation on a 2-qubit system:
/// prepares each Pauli eigenstate on qubit 0, applies `op` to the whole
/// probe batch at once, and compares the reduced state of **qubit 1** of
/// each output against its input.
pub fn average_transfer_fidelity<F>(op: F) -> f64
where
    F: FnOnce(&mut [DensityMatrix]),
{
    let probes = pauli_eigenstate_probes();
    let mut states = probe_states(2, 0);
    op(&mut states);
    let mut total = 0.0;
    for (rho, (_, psi)) in states.iter().zip(probes) {
        let out = rho.partial_trace(&[1]);
        total += fidelity_with_pure(&out, psi);
    }
    total / probes.len() as f64
}

/// Average fidelity of an in-place operation on qubit `target` of an
/// `n`-qubit system: prepares each Pauli eigenstate on `target` (all other
/// qubits `|0⟩`), applies `op` to the whole probe batch at once, and
/// compares the reduced state of `target` of each output against its input.
pub fn average_inplace_fidelity<F>(n: usize, target: usize, op: F) -> f64
where
    F: FnOnce(&mut [DensityMatrix]),
{
    let probes = pauli_eigenstate_probes();
    let mut states = probe_states(n, target);
    op(&mut states);
    let mut total = 0.0;
    for (rho, (_, psi)) in states.iter().zip(probes) {
        let out = rho.partial_trace(&[target]);
        total += fidelity_with_pure(&out, psi);
    }
    total / probes.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetarch_qsim::channels::Kraus1;

    #[test]
    fn identity_transfer_via_swap_is_perfect() {
        let f = average_transfer_fidelity(|states| {
            for rho in states {
                rho.apply_2q(0, 1, &Mat::swap());
            }
        });
        assert!((f - 1.0).abs() < 1e-10);
    }

    #[test]
    fn no_op_transfer_fails() {
        // Without a SWAP, qubit 1 stays |0>: average fidelity over the six
        // probes = (1 + 0 + 4*(1/2)) / 6 = 0.5.
        let f = average_transfer_fidelity(|_| {});
        assert!((f - 0.5).abs() < 1e-10);
    }

    #[test]
    fn inplace_identity_is_perfect() {
        let f = average_inplace_fidelity(3, 1, |_| {});
        assert!((f - 1.0).abs() < 1e-10);
    }

    #[test]
    fn inplace_depolarizing_matches_formula() {
        let p = 0.06;
        let ch = Kraus1::depolarizing(p).unwrap();
        let f = average_inplace_fidelity(2, 0, |states| ch.apply_batch(states, 0));
        assert!((f - (1.0 - p + p / 3.0)).abs() < 1e-9);
    }

    #[test]
    fn probe_states_are_normalized() {
        for (_, psi) in pauli_eigenstate_probes() {
            let norm: f64 = psi.iter().map(|z| z.norm_sqr()).sum();
            assert!((norm - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn cached_probe_states_match_fresh_preparation() {
        let cached = probe_states(2, 1);
        assert_eq!(cached.len(), 6);
        for ((gates, _), rho) in pauli_eigenstate_probes().iter().zip(&cached) {
            let mut fresh = DensityMatrix::zero_state(2);
            for g in gates {
                fresh.apply_1q(1, g);
            }
            assert!(fresh == *rho, "cached probe differs from fresh prep");
        }
        // A second lookup serves the same states from the cache.
        assert!(probe_states(2, 1) == cached);
    }
}
