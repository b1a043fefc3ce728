//! Channel and state conformance assertions, and the Kraus-sum oracle.
//!
//! The checking logic lives in [`hetarch_qsim::conformance`] (it must sit
//! below the channel types to power the `validate`-feature hooks); this
//! module re-exports it and adds panic-on-violation wrappers for test code.
//!
//! [`apply_kraus_sum_1q`] and [`apply_kraus_sum_2q`] apply a channel by the
//! literal Kraus sum `Σ_k K_k ρ K_k†`, built only from the public
//! conjugation sweeps: the readable specification of channel semantics
//! that the compiled superoperator kernels behind `Kraus1::apply` /
//! `Kraus2::apply` are differentially tested against.
//!
//! Building against `hetarch-testkit` also enables `hetarch-qsim`'s
//! `validate` feature, so in debug builds every `Kraus1::apply` /
//! `Kraus2::apply` anywhere in the dependency graph checks its output state.

pub use hetarch_qsim::conformance::{
    check_density_matrix, check_kraus1, check_kraus2, check_kraus_ops, VALIDATE_TOL,
};

use hetarch_qsim::channels::{Kraus1, Kraus2};
use hetarch_qsim::matrix::Mat;
use hetarch_qsim::state::DensityMatrix;

/// Asserts that a single-qubit channel is a CPTP map.
///
/// # Panics
///
/// Panics with the violated property on failure.
#[track_caller]
pub fn assert_cptp1(channel: &Kraus1) {
    if let Err(e) = check_kraus1(channel, VALIDATE_TOL) {
        panic!("single-qubit channel violates CPTP: {e}");
    }
}

/// Asserts that a two-qubit channel is a CPTP map.
///
/// # Panics
///
/// Panics with the violated property on failure.
#[track_caller]
pub fn assert_cptp2(channel: &Kraus2) {
    if let Err(e) = check_kraus2(channel, VALIDATE_TOL) {
        panic!("two-qubit channel violates CPTP: {e}");
    }
}

/// Asserts that `rho` is a valid density matrix (unit trace, Hermitian,
/// positive semidefinite).
///
/// # Panics
///
/// Panics with the violated invariant on failure.
#[track_caller]
pub fn assert_valid_density(rho: &DensityMatrix) {
    if let Err(e) = check_density_matrix(rho, VALIDATE_TOL) {
        panic!("density matrix invariant violated: {e}");
    }
}

/// Applies `channel` to qubit `q` of `rho` by the literal Kraus sum
/// `Σ_k K_k ρ K_k†`: one density-matrix clone and conjugation sweep per
/// operator, summed in operator order.
pub fn apply_kraus_sum_1q(channel: &Kraus1, rho: &mut DensityMatrix, q: usize) {
    kraus_sum(channel.ops(), rho, |term, k| {
        term.apply_conjugation_1q(q, k)
    });
}

/// Applies `channel` to qubits `(q_hi, q_lo)` of `rho` by the literal Kraus
/// sum, as [`apply_kraus_sum_1q`] does for one qubit.
pub fn apply_kraus_sum_2q(channel: &Kraus2, rho: &mut DensityMatrix, q_hi: usize, q_lo: usize) {
    kraus_sum(channel.ops(), rho, |term, k| {
        term.apply_conjugation_2q(q_hi, q_lo, k)
    });
}

/// `rho ← Σ_k conjugate(rho, K_k)`: the first term is conjugated in place,
/// each later one on a clone of the input and added entry by entry.
fn kraus_sum(ops: &[Mat], rho: &mut DensityMatrix, conjugate: impl Fn(&mut DensityMatrix, &Mat)) {
    let original = rho.clone();
    for (i, k) in ops.iter().enumerate() {
        if i == 0 {
            conjugate(rho, k);
        } else {
            let mut term = original.clone();
            conjugate(&mut term, k);
            for (a, b) in rho.as_mut_slice().iter_mut().zip(term.as_slice()) {
                *a += *b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetarch_qsim::gates;

    #[test]
    fn standard_objects_pass_assertions() {
        assert_cptp1(&Kraus1::depolarizing(0.2).unwrap());
        assert_cptp2(&Kraus2::depolarizing(0.2).unwrap());
        let mut rho = DensityMatrix::zero_state(2);
        gates::h(&mut rho, 0);
        gates::cnot(&mut rho, 0, 1);
        assert_valid_density(&rho);
    }

    #[test]
    fn validate_hooks_fire_through_apply() {
        // With the `validate` feature on (always, in this crate), applying a
        // channel audits the output; this simply must not panic.
        let mut rho = DensityMatrix::zero_state(2);
        Kraus1::amplitude_damping(0.4).unwrap().apply(&mut rho, 0);
        Kraus2::depolarizing(0.3).unwrap().apply(&mut rho, 1, 0);
        assert_valid_density(&rho);
    }

    #[test]
    fn kraus_sum_matches_the_channel() {
        let mut via_kernel = DensityMatrix::zero_state(3);
        gates::h(&mut via_kernel, 0);
        gates::cnot(&mut via_kernel, 0, 2);
        let mut via_sum = via_kernel.clone();
        let one = Kraus1::amplitude_damping(0.3).unwrap();
        let two = Kraus2::depolarizing(0.2).unwrap();
        one.apply(&mut via_kernel, 2);
        two.apply(&mut via_kernel, 0, 1);
        apply_kraus_sum_1q(&one, &mut via_sum, 2);
        apply_kraus_sum_2q(&two, &mut via_sum, 0, 1);
        for (a, b) in via_kernel.as_slice().iter().zip(via_sum.as_slice()) {
            assert!(a.approx_eq(*b, 1e-12), "{a} vs {b}");
        }
    }
}
