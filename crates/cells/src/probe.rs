//! Shared density-matrix probe routines for cell characterization.
//!
//! Characterization sweeps evaluate the same six Pauli-eigenstate probes
//! over and over (once per duration grid point per cell), so the probe
//! definitions are built once behind a `OnceLock`
//! ([`pauli_eigenstate_probes`]). Each probe state is prepared fresh and
//! run through the caller's operation one at a time.

use std::sync::OnceLock;

use hetarch_qsim::complex::C64;
use hetarch_qsim::fidelity::fidelity_with_pure;
use hetarch_qsim::matrix::Mat;
use hetarch_qsim::state::DensityMatrix;

static PROBES: OnceLock<Vec<(Vec<Mat>, Vec<C64>)>> = OnceLock::new();

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

/// Average fidelity of a qubit-transfer operation on a 2-qubit system:
/// prepares each Pauli eigenstate on qubit 0 (qubit 1 in `|0⟩`), applies
/// `op` to it, and compares the reduced state of **qubit 1** against the
/// input.
pub fn average_transfer_fidelity<F>(op: F) -> f64
where
    F: Fn(&mut DensityMatrix),
{
    let probes = pauli_eigenstate_probes();
    let mut total = 0.0;
    for (gates, psi) in probes {
        let mut rho = DensityMatrix::zero_state(2);
        for g in gates {
            rho.apply_1q(0, g);
        }
        op(&mut rho);
        total += fidelity_with_pure(&rho.partial_trace(&[1]), psi);
    }
    total / probes.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetarch_qsim::channels::Kraus1;

    #[test]
    fn identity_transfer_via_swap_is_perfect() {
        let f = average_transfer_fidelity(|rho| rho.apply_2q(0, 1, &Mat::swap()));
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
    fn depolarized_transfer_matches_formula() {
        let p = 0.06;
        let ch = Kraus1::depolarizing(p).unwrap();
        let f = average_transfer_fidelity(|rho| {
            rho.apply_2q(0, 1, &Mat::swap());
            ch.apply(rho, 1);
        });
        assert!((f - (1.0 - p + p / 3.0)).abs() < 1e-9);
    }

    #[test]
    fn each_probe_is_prepared_fresh_on_qubit_zero() {
        // `op` sees every Pauli eigenstate once, in order, on qubit 0 with
        // qubit 1 in |0>, although every call scrambles the state it gets.
        let probes = pauli_eigenstate_probes();
        let zero = [C64::ONE, C64::ZERO];
        let calls = std::cell::Cell::new(0);
        average_transfer_fidelity(|rho| {
            let (_, psi) = &probes[calls.get()];
            assert!((fidelity_with_pure(&rho.partial_trace(&[0]), psi) - 1.0).abs() < 1e-12);
            assert!((fidelity_with_pure(&rho.partial_trace(&[1]), &zero) - 1.0).abs() < 1e-12);
            rho.apply_1q(1, &Mat::pauli_x());
            rho.apply_2q(0, 1, &Mat::swap());
            calls.set(calls.get() + 1);
        });
        assert_eq!(calls.get(), probes.len());
    }

    #[test]
    fn pauli_eigenstate_probes_are_normalized() {
        for (_, psi) in pauli_eigenstate_probes() {
            let norm: f64 = psi.iter().map(|z| z.norm_sqr()).sum();
            assert!((norm - 1.0).abs() < 1e-12);
        }
    }
}
