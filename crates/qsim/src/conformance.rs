//! Channel and state conformance validators.
//!
//! The hierarchical-simulation claim (cells as channels, modules as composed
//! error rates) is only trustworthy if every channel the cell layer hands
//! upward is actually a quantum channel and every density matrix stays a
//! density matrix. This module centralizes those invariants:
//!
//! * **CPTP / trace preservation** — `Σ K†K = I` for
//!   [`Kraus1`](crate::channels::Kraus1)/[`Kraus2`](crate::channels::Kraus2)
//!   sets ([`check_kraus1`], [`check_kraus2`]).
//! * **State invariants** — unit trace, Hermiticity, and positive
//!   semidefiniteness for [`DensityMatrix`] ([`check_density_matrix`]).
//!   PSD is established by a cheap Gershgorin-disc pass first; only when a
//!   disc dips below zero does the check fall back to a tolerance-aware
//!   complex Cholesky factorization, which is exact for Hermitian matrices.
//!
//! With the `validate` feature enabled,
//! [`Kraus1::apply`](crate::channels::Kraus1::apply) and
//! [`Kraus2::apply`](crate::channels::Kraus2::apply) run
//! [`check_density_matrix`] on their output in debug builds, so any test
//! suite built on `hetarch-testkit` (which enables the feature) turns every
//! channel application into an invariant check.

use crate::complex::C64;
use crate::error::QsimError;
use crate::matrix::Mat;
use crate::state::DensityMatrix;

/// Default absolute tolerance used by the `validate`-feature hooks.
pub const VALIDATE_TOL: f64 = 1e-7;

/// Checks that `ops` is a trace-preserving (CPTP) Kraus set of `dim`×`dim`
/// operators: every operator has the right shape and `Σ K†K = I` within
/// `tol`.
///
/// # Errors
///
/// Returns [`QsimError::InvalidChannel`] naming the first violated property.
pub fn check_kraus_ops(ops: &[Mat], dim: usize, tol: f64) -> Result<(), QsimError> {
    if ops.is_empty() {
        return Err(QsimError::InvalidChannel("no Kraus operators".into()));
    }
    let mut sum = Mat::zeros(dim, dim);
    for (i, k) in ops.iter().enumerate() {
        if k.rows() != dim || k.cols() != dim {
            return Err(QsimError::InvalidChannel(format!(
                "kraus operator {i} is {}x{}, expected {dim}x{dim}",
                k.rows(),
                k.cols()
            )));
        }
        if k.as_slice().iter().any(|z| !z.is_finite()) {
            return Err(QsimError::InvalidChannel(format!(
                "kraus operator {i} has non-finite entries"
            )));
        }
        sum = &sum + &(&k.dagger() * k);
    }
    if !sum.approx_eq(&Mat::identity(dim), tol) {
        let dev = max_deviation(&sum, &Mat::identity(dim));
        return Err(QsimError::InvalidChannel(format!(
            "kraus completeness violated: max |Σ K†K − I| = {dev:.3e} (tol {tol:.1e})"
        )));
    }
    Ok(())
}

/// [`check_kraus_ops`] for a single-qubit channel.
///
/// # Errors
///
/// Returns [`QsimError::InvalidChannel`] naming the first violated property.
pub fn check_kraus1(channel: &crate::channels::Kraus1, tol: f64) -> Result<(), QsimError> {
    check_kraus_ops(channel.ops(), 2, tol)
}

/// [`check_kraus_ops`] for a two-qubit channel.
///
/// # Errors
///
/// Returns [`QsimError::InvalidChannel`] naming the first violated property.
pub fn check_kraus2(channel: &crate::channels::Kraus2, tol: f64) -> Result<(), QsimError> {
    check_kraus_ops(channel.ops(), 4, tol)
}

/// Checks the density-matrix invariants: unit trace, Hermiticity, and
/// positive semidefiniteness (Gershgorin fast path, Cholesky fallback), all
/// within `tol`.
///
/// # Errors
///
/// Returns [`QsimError::InvalidState`] naming the first violated property.
pub fn check_density_matrix(rho: &DensityMatrix, tol: f64) -> Result<(), QsimError> {
    let dim = rho.dim();
    let trace = rho.trace();
    if !trace.approx_eq(C64::ONE, tol * dim as f64) {
        return Err(QsimError::InvalidState(format!(
            "trace is {trace}, expected 1 (tol {tol:.1e})"
        )));
    }
    for r in 0..dim {
        for c in r..dim {
            let a = rho.entry(r, c);
            if !a.is_finite() {
                return Err(QsimError::InvalidState(format!(
                    "non-finite entry at ({r},{c})"
                )));
            }
            if !a.approx_eq(rho.entry(c, r).conj(), tol) {
                return Err(QsimError::InvalidState(format!(
                    "not Hermitian at ({r},{c})"
                )));
            }
        }
    }
    if !psd_by_gershgorin(rho, tol) && !psd_by_cholesky(rho, tol) {
        return Err(QsimError::InvalidState(
            "not positive semidefinite (Cholesky pivot below tolerance)".into(),
        ));
    }
    Ok(())
}

/// Gershgorin sufficient condition: every eigenvalue lies within some disc
/// `|λ − ρ[i,i]| ≤ Σ_{j≠i} |ρ[i,j]|`, so if every disc stays ≥ −tol the
/// matrix is PSD. Cheap (`O(dim²)`) but conservative: a `false` here means
/// "unknown", not "indefinite".
fn psd_by_gershgorin(rho: &DensityMatrix, tol: f64) -> bool {
    let dim = rho.dim();
    for i in 0..dim {
        let center = rho.entry(i, i).re;
        let radius: f64 = (0..dim)
            .filter(|&j| j != i)
            .map(|j| rho.entry(i, j).abs())
            .sum();
        if center - radius < -tol {
            return false;
        }
    }
    true
}

/// Tolerance-aware complex Cholesky: attempts `ρ = L L†`. A pivot below
/// `−tol·dim` proves a negative eigenvalue; pivots in `[−tol·dim, 0]` are
/// clamped to zero (numerical noise on a boundary-rank state).
fn psd_by_cholesky(rho: &DensityMatrix, tol: f64) -> bool {
    let dim = rho.dim();
    let mut l = vec![C64::ZERO; dim * dim];
    let floor = tol * dim as f64;
    for j in 0..dim {
        let mut d = rho.entry(j, j).re;
        for k in 0..j {
            d -= l[j * dim + k].norm_sqr();
        }
        if d < -floor {
            return false;
        }
        let pivot = d.max(0.0).sqrt();
        l[j * dim + j] = C64::real(pivot);
        for i in (j + 1)..dim {
            let mut v = rho.entry(i, j);
            for k in 0..j {
                v -= l[i * dim + k] * l[j * dim + k].conj();
            }
            if pivot > floor.sqrt() {
                l[i * dim + j] = v / pivot;
            } else if v.abs() > floor.sqrt() {
                // Zero pivot with nonzero column ⇒ indefinite.
                return false;
            }
        }
    }
    true
}

fn max_deviation(a: &Mat, b: &Mat) -> f64 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (*x - *y).abs())
        .fold(0.0, f64::max)
}

/// Debug-build hook used by the `validate` feature: panics with the
/// conformance error if `rho` violates an invariant. No-op in release
/// builds.
#[cfg(feature = "validate")]
pub(crate) fn debug_validate_state(rho: &DensityMatrix, context: &str) {
    if cfg!(debug_assertions) {
        if let Err(e) = check_density_matrix(rho, VALIDATE_TOL) {
            panic!("[validate] {context}: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channels::{Kraus1, Kraus2};

    #[test]
    fn standard_channels_conform() {
        for ch in [
            Kraus1::identity(),
            Kraus1::amplitude_damping(0.3).unwrap(),
            Kraus1::phase_flip(0.2).unwrap(),
            Kraus1::depolarizing(0.7).unwrap(),
            Kraus1::bit_flip(0.5).unwrap(),
        ] {
            check_kraus1(&ch, 1e-9).unwrap();
        }
        check_kraus2(&Kraus2::depolarizing(0.4).unwrap(), 1e-9).unwrap();
    }

    #[test]
    fn composed_channels_conform() {
        let a = Kraus1::amplitude_damping(0.2).unwrap();
        let b = Kraus1::depolarizing(0.1).unwrap();
        check_kraus1(&a.then(&b), 1e-9).unwrap();
    }

    #[test]
    fn scaled_kraus_set_is_rejected() {
        // Build a non-trace-preserving set by bypassing the constructor:
        // a single √0.9·I operator fails completeness.
        let ops = vec![Mat::identity(2).scaled(C64::real(0.9f64.sqrt()))];
        let err = check_kraus_ops(&ops, 2, 1e-9).unwrap_err();
        assert!(err.to_string().contains("completeness"));
    }

    #[test]
    fn pure_and_mixed_states_are_psd() {
        let mut rho = DensityMatrix::zero_state(3);
        rho.apply_1q(0, &Mat::hadamard());
        rho.apply_2q(0, 1, &Mat::cnot());
        check_density_matrix(&rho, 1e-9).unwrap();
        check_density_matrix(&DensityMatrix::maximally_mixed(2), 1e-9).unwrap();
    }

    #[test]
    fn bell_state_needs_the_cholesky_fallback() {
        // A Bell state's off-diagonal 1/2 makes its Gershgorin discs dip to
        // zero-minus-epsilon territory only if perturbed; construct a state
        // where the disc test is inconclusive but Cholesky certifies PSD.
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_1q(0, &Mat::hadamard());
        rho.apply_2q(0, 1, &Mat::cnot());
        // Discs: center 0.5, radius 0.5 -> fine. Mix in a small depolarized
        // component and check both paths agree.
        crate::channels::Kraus1::depolarizing(0.01)
            .unwrap()
            .apply(&mut rho, 0);
        assert!(psd_by_cholesky(&rho, 1e-9));
        check_density_matrix(&rho, 1e-9).unwrap();
    }

    #[test]
    fn negative_eigenvalue_is_caught() {
        // diag(1.2, -0.2): trace 1, Hermitian, but indefinite.
        let mut rho = DensityMatrix::zero_state(1);
        *rho.entry_mut(0, 0) = C64::real(1.2);
        *rho.entry_mut(1, 1) = C64::real(-0.2);
        assert!(!psd_by_gershgorin(&rho, 1e-9));
        assert!(!psd_by_cholesky(&rho, 1e-9));
        let err = check_density_matrix(&rho, 1e-9).unwrap_err();
        assert!(err.to_string().contains("positive semidefinite"));
    }

    #[test]
    fn hidden_indefiniteness_needs_cholesky() {
        // [[0.5, 0.6], [0.6, 0.5]] has eigenvalues {1.1, -0.1}: every
        // Gershgorin disc allows negatives (inconclusive), and Cholesky must
        // prove indefiniteness.
        let mut rho = DensityMatrix::zero_state(1);
        *rho.entry_mut(0, 0) = C64::real(0.5);
        *rho.entry_mut(0, 1) = C64::real(0.6);
        *rho.entry_mut(1, 0) = C64::real(0.6);
        *rho.entry_mut(1, 1) = C64::real(0.5);
        assert!(!psd_by_cholesky(&rho, 1e-9));
        assert!(check_density_matrix(&rho, 1e-9).is_err());
    }

    #[test]
    fn non_hermitian_is_caught() {
        let mut rho = DensityMatrix::zero_state(1);
        *rho.entry_mut(0, 1) = C64::real(0.3);
        let err = check_density_matrix(&rho, 1e-9).unwrap_err();
        assert!(err.to_string().contains("Hermitian"));
    }

    #[test]
    fn trace_violation_is_caught() {
        let mut rho = DensityMatrix::zero_state(1);
        *rho.entry_mut(0, 0) = C64::real(0.5);
        let err = check_density_matrix(&rho, 1e-9).unwrap_err();
        assert!(err.to_string().contains("trace"));
    }

    #[test]
    fn rank_deficient_states_pass_cholesky() {
        // A pure state is rank 1: most pivots are exactly zero and must be
        // clamped, not rejected.
        let mut rho = DensityMatrix::zero_state(3);
        rho.apply_1q(1, &Mat::hadamard());
        assert!(psd_by_cholesky(&rho, 1e-12));
    }
}
