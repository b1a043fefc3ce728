//! Convenience gate application helpers.
//!
//! Named functions for the standard gates, so protocol code (DEJMPS, CAT
//! generation, syndrome extraction) reads like a circuit listing. Each one
//! conjugates by the gate's fixed-size entry table, so no call allocates;
//! the result equals [`DensityMatrix::apply_1q`] /
//! [`apply_2q`](DensityMatrix::apply_2q) with the matching [`Mat`]
//! constructor.
//!
//! [`Mat`]: crate::matrix::Mat

use crate::matrix;
use crate::state::DensityMatrix;

macro_rules! gate_1q {
    ($(#[$doc:meta] $name:ident => $entries:expr;)*) => {
        $(
            #[$doc]
            pub fn $name(rho: &mut DensityMatrix, q: usize) {
                rho.conjugate_1q(q, &$entries);
            }
        )*
    };
}

gate_1q! {
    /// Applies a Pauli X gate to qubit `q`.
    x => matrix::PAULI_X;
    /// Applies a Pauli Y gate to qubit `q`.
    y => matrix::PAULI_Y;
    /// Applies a Pauli Z gate to qubit `q`.
    z => matrix::PAULI_Z;
    /// Applies a Hadamard gate to qubit `q`.
    h => matrix::HADAMARD;
    /// Applies an S (phase) gate to qubit `q`.
    s => matrix::S_GATE;
    /// Applies a T gate to qubit `q`.
    t => matrix::t_gate_entries();
}

/// Applies `RX(θ)` to qubit `q`.
pub fn rx(rho: &mut DensityMatrix, q: usize, theta: f64) {
    rho.conjugate_1q(q, &matrix::rx_entries(theta));
}

/// Applies `RY(θ)` to qubit `q`.
pub fn ry(rho: &mut DensityMatrix, q: usize, theta: f64) {
    rho.conjugate_1q(q, &matrix::ry_entries(theta));
}

/// Applies `RZ(θ)` to qubit `q`.
pub fn rz(rho: &mut DensityMatrix, q: usize, theta: f64) {
    rho.conjugate_1q(q, &matrix::rz_entries(theta));
}

/// Applies a CNOT with `control` and `target`.
pub fn cnot(rho: &mut DensityMatrix, control: usize, target: usize) {
    rho.conjugate_2q(control, target, &matrix::CNOT);
}

/// Applies a CZ between `a` and `b` (symmetric).
pub fn cz(rho: &mut DensityMatrix, a: usize, b: usize) {
    rho.conjugate_2q(a, b, &matrix::CZ);
}

/// Applies a SWAP between `a` and `b`.
pub fn swap(rho: &mut DensityMatrix, a: usize, b: usize) {
    rho.conjugate_2q(a, b, &matrix::SWAP);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Mat;
    use crate::measure::prob_one;

    const TOL: f64 = 1e-12;

    #[test]
    fn ghz_circuit_via_helpers() {
        let mut rho = DensityMatrix::zero_state(3);
        h(&mut rho, 0);
        cnot(&mut rho, 0, 1);
        cnot(&mut rho, 1, 2);
        assert!((rho.diagonal_prob(0b000) - 0.5).abs() < TOL);
        assert!((rho.diagonal_prob(0b111) - 0.5).abs() < TOL);
    }

    #[test]
    fn pauli_identities() {
        let mut rho = DensityMatrix::zero_state(1);
        h(&mut rho, 0);
        s(&mut rho, 0);
        s(&mut rho, 0);
        // S² = Z flips |+> to |->; H|-> = |1>.
        h(&mut rho, 0);
        assert!((prob_one(&rho, 0) - 1.0).abs() < TOL);
    }

    #[test]
    fn cz_is_symmetric() {
        let mut a = DensityMatrix::zero_state(2);
        h(&mut a, 0);
        h(&mut a, 1);
        let mut b = a.clone();
        cz(&mut a, 0, 1);
        cz(&mut b, 1, 0);
        for r in 0..4 {
            for c in 0..4 {
                assert!(a.entry(r, c).approx_eq(b.entry(r, c), TOL));
            }
        }
    }

    #[test]
    fn rotation_helpers_match_matrices() {
        let mut a = DensityMatrix::zero_state(1);
        rx(&mut a, 0, 1.234);
        let mut b = DensityMatrix::zero_state(1);
        b.apply_1q(0, &Mat::rx(1.234));
        assert!(a.entry(0, 0).approx_eq(b.entry(0, 0), TOL));
        assert!(a.entry(0, 1).approx_eq(b.entry(0, 1), TOL));
    }
}
