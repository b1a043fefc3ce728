//! Projective measurement and post-selection on density matrices.

use rand::Rng;

use crate::complex::C64;
use crate::state::DensityMatrix;

/// Probability of obtaining outcome `1` when measuring qubit `q` in the Z
/// basis.
///
/// # Examples
///
/// ```
/// use hetarch_qsim::state::DensityMatrix;
/// use hetarch_qsim::matrix::Mat;
/// use hetarch_qsim::measure::prob_one;
///
/// let mut rho = DensityMatrix::zero_state(1);
/// rho.apply_1q(0, &Mat::hadamard());
/// assert!((prob_one(&rho, 0) - 0.5).abs() < 1e-12);
/// ```
pub fn prob_one(rho: &DensityMatrix, q: usize) -> f64 {
    assert!(q < rho.num_qubits(), "qubit {q} out of range");
    let mask = 1usize << q;
    (0..rho.dim())
        .filter(|b| b & mask != 0)
        .map(|b| rho.diagonal_prob(b))
        .sum()
}

/// Projects qubit `q` onto the Z-basis `outcome` **without renormalizing**,
/// returning the outcome probability.
///
/// The caller decides whether to renormalize (post-selection) or to keep the
/// subnormalized branch (trajectory averaging).
///
/// A diagonal state (see [`crate::state`]) only has its dropped diagonal
/// entries zeroed and stays diagonal; `p` sums the kept ones in the same
/// ascending order.
pub fn project_z(rho: &mut DensityMatrix, q: usize, outcome: bool) -> f64 {
    assert!(q < rho.num_qubits(), "qubit {q} out of range");
    let mask = 1usize << q;
    let want = if outcome { mask } else { 0 };
    let dim = rho.dim();
    let mut p = 0.0;
    if rho.is_diagonal() {
        for b in 0..dim {
            if b & mask == want {
                p += rho.diagonal_prob(b);
            } else {
                *rho.diagonal_entry_mut(b) = C64::ZERO;
            }
        }
        return p;
    }
    for r in 0..dim {
        let keep_r = r & mask == want;
        if keep_r {
            p += rho.diagonal_prob(r);
        }
        for c in 0..dim {
            if !(keep_r && c & mask == want) {
                *rho.entry_mut(r, c) = C64::ZERO;
            }
        }
    }
    p
}

/// Branch probabilities at or below this (relative) threshold are treated as
/// numerically-impossible measurement outcomes.
const BRANCH_EPS: f64 = 1e-12;

/// Measures qubit `q` in the Z basis, collapsing and renormalizing the state.
/// Returns the sampled outcome.
///
/// # Panics
///
/// Panics if the state trace is zero.
pub fn measure_z<R: Rng + ?Sized>(rho: &mut DensityMatrix, q: usize, rng: &mut R) -> bool {
    measure_z_with(rho, q, rng.gen::<f64>())
}

/// [`measure_z`] with an explicit uniform sample `u ∈ [0, 1)` instead of an
/// RNG — the deterministic seam behind the sampled branch selection.
///
/// When the sampled branch's probability underflows (a clamped `prob_one`
/// or a numerically pure state can leave the minority branch at ~1e-300;
/// renormalizing by it would fill the state with inf/NaN), the measurement
/// takes the other branch instead: outcomes with probability below
/// ~`1e-12` are physically unobservable, and the surviving branch is the
/// state's entire remaining weight.
///
/// # Panics
///
/// Panics if the state trace is zero (both branches empty).
pub fn measure_z_with(rho: &mut DensityMatrix, q: usize, u: f64) -> bool {
    let p1 = prob_one(rho, q).clamp(0.0, 1.0);
    let mut outcome = u < p1;
    let branch = if outcome { p1 } else { 1.0 - p1 };
    if branch <= BRANCH_EPS {
        outcome = !outcome;
    }
    let p = project_z(rho, q, outcome);
    rho.renormalize(p);
    outcome
}

/// Post-selects qubit `q` on `outcome`, renormalizing. Returns `Some(p)` with
/// the branch probability, or `None` if the probability is (numerically)
/// zero and the state is left unusable.
///
/// "Numerically zero" is judged **relative to the input trace**: the
/// documented trajectory-averaging use of [`project_z`] hands this function
/// subnormalized states whose legitimate branches can sit far below any
/// absolute cutoff, and they must not be spuriously rejected.
pub fn postselect_z(rho: &mut DensityMatrix, q: usize, outcome: bool) -> Option<f64> {
    let trace_in = rho.trace().re;
    let p = project_z(rho, q, outcome);
    // Negated `>` rather than `<=`: a NaN branch probability (e.g. from a
    // zero-trace input) must also take the rejection path.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(p > trace_in * 1e-15) {
        return None;
    }
    rho.renormalize(p);
    Some(p)
}

/// Resets qubit `q` to `|0⟩` (measure and conditionally flip, averaged over
/// outcomes — the standard incoherent reset channel).
pub fn reset(rho: &mut DensityMatrix, q: usize) {
    use crate::matrix::Mat;
    let mut one_branch = rho.clone();
    let p1 = project_z(&mut one_branch, q, true);
    let p0 = project_z(rho, q, false);
    if p1 > 0.0 {
        one_branch.apply_1q(q, &Mat::pauli_x());
        let dim = rho.dim();
        for r in 0..dim {
            for c in 0..dim {
                let v = rho.entry(r, c) + one_branch.entry(r, c);
                *rho.entry_mut(r, c) = v;
            }
        }
    }
    let total = p0 + p1;
    if total > 0.0 {
        rho.renormalize(total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Mat;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const TOL: f64 = 1e-12;

    #[test]
    fn prob_one_of_basis_states() {
        let mut rho = DensityMatrix::zero_state(2);
        assert_eq!(prob_one(&rho, 0), 0.0);
        rho.apply_1q(1, &Mat::pauli_x());
        assert!((prob_one(&rho, 1) - 1.0).abs() < TOL);
        assert!(prob_one(&rho, 0).abs() < TOL);
    }

    #[test]
    fn measure_collapses_superposition() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut ones = 0usize;
        let trials = 2000;
        for _ in 0..trials {
            let mut rho = DensityMatrix::zero_state(1);
            rho.apply_1q(0, &Mat::hadamard());
            if measure_z(&mut rho, 0, &mut rng) {
                ones += 1;
                assert!((prob_one(&rho, 0) - 1.0).abs() < TOL);
            } else {
                assert!(prob_one(&rho, 0).abs() < TOL);
            }
            rho.validate(TOL).unwrap();
        }
        let frac = ones as f64 / trials as f64;
        assert!((frac - 0.5).abs() < 0.05, "measured fraction {frac}");
    }

    #[test]
    fn bell_measurement_correlations() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..200 {
            let mut rho = DensityMatrix::zero_state(2);
            rho.apply_1q(0, &Mat::hadamard());
            rho.apply_2q(0, 1, &Mat::cnot());
            let a = measure_z(&mut rho, 0, &mut rng);
            let b = measure_z(&mut rho, 1, &mut rng);
            assert_eq!(a, b, "bell pair outcomes must agree");
        }
    }

    #[test]
    fn postselect_returns_branch_probability() {
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_1q(0, &Mat::ry(1.0)); // cos²(0.5) on |0>
        let p = postselect_z(&mut rho, 0, false).unwrap();
        assert!((p - 0.5f64.cos().powi(2)).abs() < TOL);
        assert!((prob_one(&rho, 0)).abs() < TOL);
        rho.validate(TOL).unwrap();
    }

    #[test]
    fn postselect_impossible_outcome_is_none() {
        let mut rho = DensityMatrix::zero_state(1);
        assert!(postselect_z(&mut rho, 0, true).is_none());
    }

    /// Regression: the sampled branch of a near-pure state can have
    /// probability ~1e-18; the old code renormalized by
    /// `p.max(f64::MIN_POSITIVE)` — dividing by 2.2e-308 and filling the
    /// state with inf/NaN. The measurement must take the other branch.
    #[test]
    fn measure_underflowing_branch_takes_the_other_branch() {
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_1q(0, &Mat::ry(2e-9)); // p1 = sin²(1e-9) ≈ 1e-18
        let p1 = prob_one(&rho, 0);
        assert!(p1 > 0.0 && p1 < 1e-12, "branch must underflow: {p1}");
        // u = 0.0 < p1 samples the ~zero-probability |1⟩ branch.
        let outcome = measure_z_with(&mut rho, 0, 0.0);
        assert!(!outcome, "must fall back to the dominant branch");
        assert!((prob_one(&rho, 0)).abs() < TOL);
        rho.validate(TOL).unwrap();
    }

    /// Regression: `postselect_z` rejected branches with an *absolute*
    /// `p <= 1e-15` cutoff, spuriously discarding legitimate branches of
    /// subnormalized trajectory states (the documented `project_z` use).
    #[test]
    fn postselect_accepts_branches_of_subnormalized_states() {
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_1q(0, &Mat::hadamard());
        // A trajectory state carrying 1e-16 of the ensemble weight: both of
        // its Z branches hold 5e-17 — below any absolute cutoff.
        rho.renormalize(1e16);
        assert!((rho.trace().re - 1e-16).abs() < 1e-28);
        let p = postselect_z(&mut rho, 0, false).expect("legitimate branch kept");
        assert!((p - 0.5e-16).abs() < 1e-28, "branch probability {p}");
        rho.validate(TOL).unwrap();
        assert!((rho.trace().re - 1.0).abs() < TOL);
    }

    #[test]
    fn reset_restores_ground_state() {
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_1q(0, &Mat::hadamard());
        rho.apply_2q(0, 1, &Mat::cnot());
        reset(&mut rho, 0);
        assert!(prob_one(&rho, 0).abs() < TOL);
        // Qubit 1 keeps its mixed marginal.
        assert!((prob_one(&rho, 1) - 0.5).abs() < TOL);
        rho.validate(TOL).unwrap();
    }

    #[test]
    fn reset_of_excited_qubit() {
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_1q(0, &Mat::pauli_x());
        reset(&mut rho, 0);
        assert!(prob_one(&rho, 0).abs() < TOL);
    }
}
