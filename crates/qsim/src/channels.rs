//! Quantum noise channels.
//!
//! Channels are represented by their Kraus operators and applied exactly to
//! [`DensityMatrix`] states. This module provides the superconducting noise
//! processes HetArch's device models need (paper §3.1):
//!
//! * **amplitude damping** with rate set by `T1`,
//! * **pure dephasing** with rate set by `T2` (and `T1`),
//! * **depolarizing** noise attached to imperfect gates,
//! * the combined **idle channel** `idle(t, T1, T2)`, and
//! * the **Pauli twirl** of the idle channel, which is what the stochastic
//!   stabilizer simulator consumes.

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::complex::C64;
use crate::error::QsimError;
use crate::kernel::{ChannelKernel1, ChannelKernel2};
use crate::matrix::Mat;
use crate::state::DensityMatrix;

/// A single-qubit channel described by Kraus operators `{K_i}` with
/// `Σ K_i† K_i = I`.
///
/// [`apply`](Kraus1::apply) runs through a precompiled superoperator kernel
/// (see [`crate::kernel`]), compiled lazily on first use and cached for the
/// lifetime of the channel — so constructing a channel once and applying it
/// many times is the intended usage pattern. The literal Kraus sum, the
/// oracle the differential tests compare the kernel against, lives in
/// `hetarch-testkit`.
///
/// # Examples
///
/// ```
/// use hetarch_qsim::channels::Kraus1;
/// use hetarch_qsim::state::DensityMatrix;
/// use hetarch_qsim::matrix::Mat;
///
/// let mut rho = DensityMatrix::zero_state(1);
/// rho.apply_1q(0, &Mat::pauli_x()); // |1>
/// let damp = Kraus1::amplitude_damping(1.0).unwrap(); // full decay
/// damp.apply(&mut rho, 0);
/// assert!((rho.diagonal_prob(0) - 1.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct Kraus1 {
    ops: Vec<Mat>,
    kernel: OnceLock<ChannelKernel1>,
}

impl PartialEq for Kraus1 {
    fn eq(&self, other: &Self) -> bool {
        // The kernel is a cache derived from `ops`; identity is the ops.
        self.ops == other.ops
    }
}

impl Kraus1 {
    /// Builds a channel from explicit 2×2 Kraus operators.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::InvalidChannel`] if any operator is not 2×2 or the
    /// completeness relation `Σ K† K = I` fails.
    pub fn new(ops: Vec<Mat>) -> Result<Self, QsimError> {
        check_kraus_set::<2>(&ops)?;
        Ok(Kraus1::from_ops(ops))
    }

    fn from_ops(ops: Vec<Mat>) -> Self {
        Kraus1 {
            ops,
            kernel: OnceLock::new(),
        }
    }

    /// The identity channel.
    pub fn identity() -> Self {
        Kraus1::from_ops(vec![Mat::identity(2)])
    }

    /// Amplitude damping with decay probability `gamma = 1 - e^{-t/T1}`.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::InvalidChannel`] if `gamma ∉ [0, 1]`.
    pub fn amplitude_damping(gamma: f64) -> Result<Self, QsimError> {
        check_prob("gamma", gamma)?;
        let k0 = Mat::from_reals(2, &[1.0, 0.0, 0.0, (1.0 - gamma).sqrt()]);
        let k1 = Mat::from_reals(2, &[0.0, gamma.sqrt(), 0.0, 0.0]);
        Kraus1::new(vec![k0, k1])
    }

    /// Phase flip (dephasing): applies Z with probability `p`. Off-diagonal
    /// elements are scaled by `1 - 2p`.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::InvalidChannel`] if `p ∉ [0, 1]`.
    pub fn phase_flip(p: f64) -> Result<Self, QsimError> {
        check_prob("p", p)?;
        let k0 = Mat::identity(2).scaled(C64::real((1.0 - p).sqrt()));
        let k1 = Mat::pauli_z().scaled(C64::real(p.sqrt()));
        Kraus1::new(vec![k0, k1])
    }

    /// Single-qubit depolarizing channel: with probability `p` the state is
    /// replaced according to a uniformly random X/Y/Z error (each `p/3`).
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::InvalidChannel`] if `p ∉ [0, 1]`.
    pub fn depolarizing(p: f64) -> Result<Self, QsimError> {
        check_prob("p", p)?;
        let w = (p / 3.0).sqrt();
        Kraus1::new(vec![
            Mat::identity(2).scaled(C64::real((1.0 - p).sqrt())),
            Mat::pauli_x().scaled(C64::real(w)),
            Mat::pauli_y().scaled(C64::real(w)),
            Mat::pauli_z().scaled(C64::real(w)),
        ])
    }

    /// Bit flip: applies X with probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::InvalidChannel`] if `p ∉ [0, 1]`.
    pub fn bit_flip(p: f64) -> Result<Self, QsimError> {
        check_prob("p", p)?;
        Kraus1::new(vec![
            Mat::identity(2).scaled(C64::real((1.0 - p).sqrt())),
            Mat::pauli_x().scaled(C64::real(p.sqrt())),
        ])
    }

    /// The Kraus operators.
    pub fn ops(&self) -> &[Mat] {
        &self.ops
    }

    /// Applies the channel to qubit `q` of `rho` through the precompiled
    /// superoperator kernel (one allocation-free pass regardless of the
    /// number of Kraus operators).
    ///
    /// With the `validate` feature, debug builds check the output state's
    /// conformance invariants (see [`crate::conformance`]) and panic on
    /// violation.
    pub fn apply(&self, rho: &mut DensityMatrix, q: usize) {
        self.kernel().apply(rho, q);
        #[cfg(feature = "validate")]
        crate::conformance::debug_validate_state(rho, "Kraus1::apply");
    }

    /// The compiled superoperator kernel (compiled on first call, cached).
    pub fn kernel(&self) -> &ChannelKernel1 {
        self.kernel
            .get_or_init(|| ChannelKernel1::compile(&self.ops))
    }

    /// Composes `self` followed by `other` into a single channel.
    pub fn then(&self, other: &Kraus1) -> Kraus1 {
        let mut ops = Vec::with_capacity(self.ops.len() * other.ops.len());
        for b in &other.ops {
            for a in &self.ops {
                ops.push(b * a);
            }
        }
        Kraus1::from_ops(ops)
    }
}

/// A two-qubit channel described by 4×4 Kraus operators.
///
/// Like [`Kraus1`], application runs through a lazily compiled, cached
/// superoperator kernel.
#[derive(Clone, Debug)]
pub struct Kraus2 {
    ops: Vec<Mat>,
    kernel: OnceLock<ChannelKernel2>,
}

impl PartialEq for Kraus2 {
    fn eq(&self, other: &Self) -> bool {
        self.ops == other.ops
    }
}

impl Kraus2 {
    /// Builds a channel from explicit 4×4 Kraus operators.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::InvalidChannel`] if any operator is not 4×4 or the
    /// completeness relation fails.
    pub fn new(ops: Vec<Mat>) -> Result<Self, QsimError> {
        check_kraus_set::<4>(&ops)?;
        Ok(Kraus2 {
            ops,
            kernel: OnceLock::new(),
        })
    }

    /// Two-qubit depolarizing channel: with probability `p` one of the 15
    /// non-identity two-qubit Paulis is applied (each `p/15`).
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::InvalidChannel`] if `p ∉ [0, 1]`.
    pub fn depolarizing(p: f64) -> Result<Self, QsimError> {
        check_prob("p", p)?;
        let singles = [
            Mat::identity(2),
            Mat::pauli_x(),
            Mat::pauli_y(),
            Mat::pauli_z(),
        ];
        let w = (p / 15.0).sqrt();
        let mut ops = Vec::with_capacity(16);
        for (i, a) in singles.iter().enumerate() {
            for (j, b) in singles.iter().enumerate() {
                let weight = if i == 0 && j == 0 {
                    (1.0 - p).sqrt()
                } else {
                    w
                };
                ops.push(a.kron(b).scaled(C64::real(weight)));
            }
        }
        Kraus2::new(ops)
    }

    /// The Kraus operators.
    pub fn ops(&self) -> &[Mat] {
        &self.ops
    }

    /// Applies the channel to qubits `(q_hi, q_lo)` of `rho` through the
    /// precompiled superoperator kernel (one allocation-free pass
    /// regardless of the number of Kraus operators).
    ///
    /// With the `validate` feature, debug builds check the output state's
    /// conformance invariants (see [`crate::conformance`]) and panic on
    /// violation.
    pub fn apply(&self, rho: &mut DensityMatrix, q_hi: usize, q_lo: usize) {
        self.kernel().apply(rho, q_hi, q_lo);
        #[cfg(feature = "validate")]
        crate::conformance::debug_validate_state(rho, "Kraus2::apply");
    }

    /// The compiled superoperator kernel (compiled on first call, cached).
    pub fn kernel(&self) -> &ChannelKernel2 {
        self.kernel
            .get_or_init(|| ChannelKernel2::compile(&self.ops))
    }
}

/// Checks that `ops` is a non-empty set of `D×D` operators with
/// `Σ K† K = I` to within 1e-9 per entry. The sum runs on fixed-size
/// arrays with the arithmetic of `&sum + &(&k.dagger() * k)` (each product
/// entry sums from zero in ascending order, skipping exactly-zero factors
/// of `K†`), so it accepts exactly the sets that `Mat` sum would, without
/// allocating.
fn check_kraus_set<const D: usize>(ops: &[Mat]) -> Result<(), QsimError> {
    if ops.is_empty() {
        return Err(QsimError::InvalidChannel("no Kraus operators".into()));
    }
    let mut sum = [[C64::ZERO; D]; D];
    for k in ops {
        if k.rows() != D || k.cols() != D {
            return Err(QsimError::InvalidChannel(format!(
                "kraus operator is not {D}x{D}"
            )));
        }
        let m = k.as_slice();
        for (r, sum_row) in sum.iter_mut().enumerate() {
            for (c, entry) in sum_row.iter_mut().enumerate() {
                let mut prod = C64::ZERO;
                for j in 0..D {
                    let v = m[j * D + r].conj();
                    if v != C64::ZERO {
                        prod += v * m[j * D + c];
                    }
                }
                *entry += prod;
            }
        }
    }
    let complete = sum.iter().enumerate().all(|(r, row)| {
        row.iter().enumerate().all(|(c, &v)| {
            let want = if r == c { C64::ONE } else { C64::ZERO };
            v.approx_eq(want, 1e-9)
        })
    });
    if !complete {
        return Err(QsimError::InvalidChannel(
            "kraus operators do not satisfy the completeness relation".into(),
        ));
    }
    Ok(())
}

fn check_prob(name: &str, p: f64) -> Result<(), QsimError> {
    if !(0.0..=1.0).contains(&p) || !p.is_finite() {
        return Err(QsimError::InvalidChannel(format!(
            "{name} = {p} is outside [0, 1]"
        )));
    }
    Ok(())
}

/// Physical idle-noise parameters for a device (times in seconds).
///
/// `T2 ≤ 2 T1` is required for physicality.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct IdleParams {
    /// Amplitude damping (energy relaxation) time constant.
    pub t1: f64,
    /// Total dephasing time constant.
    pub t2: f64,
}

impl IdleParams {
    /// Creates validated idle parameters.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::InvalidParameter`] if times are non-positive or
    /// `T2 > 2 T1`.
    pub fn new(t1: f64, t2: f64) -> Result<Self, QsimError> {
        if !(t1 > 0.0 && t1.is_finite() && t2 > 0.0 && t2.is_finite()) {
            return Err(QsimError::InvalidParameter(format!(
                "T1 = {t1}, T2 = {t2} must be positive and finite"
            )));
        }
        if t2 > 2.0 * t1 * (1.0 + 1e-12) {
            return Err(QsimError::InvalidParameter(format!(
                "T2 = {t2} exceeds the physical limit 2*T1 = {}",
                2.0 * t1
            )));
        }
        Ok(IdleParams { t1, t2 })
    }

    /// Amplitude-damping probability after idling for `t` seconds.
    pub fn gamma(&self, t: f64) -> f64 {
        1.0 - (-t / self.t1).exp()
    }

    /// Pure-dephasing phase-flip probability after idling for `t` seconds.
    ///
    /// The off-diagonal decay `e^{-t/T2}` is split into the part contributed
    /// by amplitude damping (`e^{-t/2T1}`) and a residual pure dephasing
    /// `e^{-t/Tφ}` with `1/Tφ = 1/T2 − 1/(2 T1)`.
    pub fn dephase_p(&self, t: f64) -> f64 {
        let inv_tphi = (1.0 / self.t2 - 0.5 / self.t1).max(0.0);
        0.5 * (1.0 - (-t * inv_tphi).exp())
    }

    /// The exact idle channel for duration `t`: amplitude damping followed by
    /// pure dephasing.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::InvalidChannel`] if `t < 0`.
    pub fn channel(&self, t: f64) -> Result<Kraus1, QsimError> {
        if t < 0.0 || !t.is_finite() {
            return Err(QsimError::InvalidChannel(format!(
                "idle duration {t} must be non-negative"
            )));
        }
        let ad = Kraus1::amplitude_damping(self.gamma(t))?;
        let pd = Kraus1::phase_flip(self.dephase_p(t))?;
        Ok(ad.then(&pd))
    }

    /// The standard Pauli-twirl approximation of the idle channel, as
    /// consumed by the stochastic stabilizer simulator:
    ///
    /// `px = py = (1 − e^{−t/T1})/4`,
    /// `pz = (1 − e^{−t/T2})/2 − (1 − e^{−t/T1})/4` (clamped at 0).
    pub fn twirl_probs(&self, t: f64) -> PauliProbs {
        let pxy = self.gamma(t) / 4.0;
        let pz = (0.5 * (1.0 - (-t / self.t2).exp()) - pxy).max(0.0);
        PauliProbs {
            px: pxy,
            py: pxy,
            pz,
        }
    }
}

/// Probabilities of stochastic X, Y and Z errors on one qubit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PauliProbs {
    /// Probability of an X error.
    pub px: f64,
    /// Probability of a Y error.
    pub py: f64,
    /// Probability of a Z error.
    pub pz: f64,
}

impl PauliProbs {
    /// Total probability of any error.
    pub fn total(&self) -> f64 {
        self.px + self.py + self.pz
    }

    /// The corresponding exact Pauli channel.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::InvalidChannel`] if probabilities are negative or
    /// sum above one.
    pub fn channel(&self) -> Result<Kraus1, QsimError> {
        for (name, p) in [("px", self.px), ("py", self.py), ("pz", self.pz)] {
            if p < 0.0 {
                return Err(QsimError::InvalidChannel(format!("{name} = {p} < 0")));
            }
        }
        let p0 = 1.0 - self.total();
        if p0 < -1e-12 {
            return Err(QsimError::InvalidChannel(format!(
                "pauli probabilities sum to {} > 1",
                self.total()
            )));
        }
        Kraus1::new(vec![
            Mat::identity(2).scaled(C64::real(p0.max(0.0).sqrt())),
            Mat::pauli_x().scaled(C64::real(self.px.sqrt())),
            Mat::pauli_y().scaled(C64::real(self.py.sqrt())),
            Mat::pauli_z().scaled(C64::real(self.pz.sqrt())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-10;

    fn plus_state() -> DensityMatrix {
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_1q(0, &Mat::hadamard());
        rho
    }

    #[test]
    fn amplitude_damping_decays_excited_population() {
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_1q(0, &Mat::pauli_x());
        Kraus1::amplitude_damping(0.3).unwrap().apply(&mut rho, 0);
        assert!((rho.diagonal_prob(1) - 0.7).abs() < TOL);
        assert!((rho.diagonal_prob(0) - 0.3).abs() < TOL);
        rho.validate(TOL).unwrap();
    }

    #[test]
    fn phase_flip_scales_coherence() {
        let mut rho = plus_state();
        Kraus1::phase_flip(0.25).unwrap().apply(&mut rho, 0);
        // off-diagonal scaled by 1 - 2p = 0.5.
        assert!(rho.entry(0, 1).approx_eq(C64::real(0.25), TOL));
        rho.validate(TOL).unwrap();
    }

    #[test]
    fn full_depolarizing_gives_maximally_mixed() {
        let mut rho = DensityMatrix::zero_state(1);
        Kraus1::depolarizing(1.0).unwrap().apply(&mut rho, 0);
        // p=1 leaves 1/3 each X,Y,Z: diag = (2/3, 1/3)? No: X,Y flip, Z keeps.
        // Actually p=1: rho -> (XρX + YρY + ZρZ)/3 = (2|1><1| + |0><0|)/3.
        assert!((rho.diagonal_prob(0) - 1.0 / 3.0).abs() < TOL);
        assert!((rho.diagonal_prob(1) - 2.0 / 3.0).abs() < TOL);
    }

    #[test]
    fn depolarizing_three_quarters_mixes_completely() {
        let mut rho = DensityMatrix::zero_state(1);
        Kraus1::depolarizing(0.75).unwrap().apply(&mut rho, 0);
        assert!((rho.diagonal_prob(0) - 0.5).abs() < TOL);
        assert!((rho.purity() - 0.5).abs() < TOL);
    }

    #[test]
    fn two_qubit_depolarizing_preserves_trace() {
        let mut rho = DensityMatrix::zero_state(3);
        rho.apply_1q(0, &Mat::hadamard());
        rho.apply_2q(0, 1, &Mat::cnot());
        Kraus2::depolarizing(0.1).unwrap().apply(&mut rho, 0, 2);
        assert!(rho.trace().approx_eq(C64::ONE, TOL));
        rho.validate(TOL).unwrap();
    }

    #[test]
    fn invalid_probability_rejected() {
        assert!(Kraus1::depolarizing(1.5).is_err());
        assert!(Kraus1::amplitude_damping(-0.1).is_err());
        assert!(Kraus2::depolarizing(f64::NAN).is_err());
    }

    #[test]
    fn idle_params_validation() {
        assert!(IdleParams::new(100e-6, 150e-6).is_ok());
        assert!(IdleParams::new(100e-6, 250e-6).is_err()); // T2 > 2T1
        assert!(IdleParams::new(0.0, 1e-6).is_err());
    }

    #[test]
    fn idle_channel_matches_t1_t2_decay() {
        let p = IdleParams::new(300e-6, 200e-6).unwrap();
        let t = 50e-6;
        let mut rho = plus_state();
        rho.apply_1q(0, &Mat::pauli_x()); // |-> has same coherence magnitude
        rho = plus_state();
        p.channel(t).unwrap().apply(&mut rho, 0);
        // Off-diagonal should decay as e^{-t/T2}.
        let expect = 0.5 * (-t / p.t2).exp();
        assert!(
            (rho.entry(0, 1).re - expect).abs() < 1e-9,
            "got {}, expected {expect}",
            rho.entry(0, 1).re
        );
        // Excited population of |1> decays as e^{-t/T1}.
        let mut one = DensityMatrix::zero_state(1);
        one.apply_1q(0, &Mat::pauli_x());
        p.channel(t).unwrap().apply(&mut one, 0);
        assert!((one.diagonal_prob(1) - (-t / p.t1).exp()).abs() < 1e-9);
    }

    #[test]
    fn twirl_probs_match_decay_rates() {
        let p = IdleParams::new(500e-6, 500e-6).unwrap();
        let probs = p.twirl_probs(10e-6);
        assert!(probs.px > 0.0 && probs.pz >= 0.0);
        assert!((probs.px - probs.py).abs() < 1e-15);
        // X-basis decay of the twirled channel ~ e^{-t/T2}: 1-2(py+pz+... )
        let coherence_factor = 1.0 - 2.0 * (probs.py + probs.pz);
        assert!((coherence_factor - (-10e-6f64 / 500e-6).exp()).abs() < 1e-3);
    }

    #[test]
    fn twirl_total_is_small_for_short_idle() {
        let p = IdleParams::new(500e-6, 500e-6).unwrap();
        assert!(p.twirl_probs(100e-9).total() < 1e-3);
        assert_eq!(p.twirl_probs(0.0).total(), 0.0);
    }

    #[test]
    fn pauli_probs_channel_roundtrip() {
        let probs = PauliProbs {
            px: 0.01,
            py: 0.02,
            pz: 0.03,
        };
        let ch = probs.channel().unwrap();
        let mut rho = plus_state();
        ch.apply(&mut rho, 0);
        // +X coherence scaled by 1 - 2(py + pz).
        assert!(rho
            .entry(0, 1)
            .approx_eq(C64::real(0.5 * (1.0 - 2.0 * 0.05)), TOL));
        rho.validate(TOL).unwrap();
    }

    #[test]
    fn channel_composition_matches_sequential_application() {
        let a = Kraus1::amplitude_damping(0.2).unwrap();
        let b = Kraus1::phase_flip(0.1).unwrap();
        let composed = a.then(&b);

        let mut r1 = plus_state();
        a.apply(&mut r1, 0);
        b.apply(&mut r1, 0);

        let mut r2 = plus_state();
        composed.apply(&mut r2, 0);

        for r in 0..2 {
            for c in 0..2 {
                assert!(r1.entry(r, c).approx_eq(r2.entry(r, c), TOL));
            }
        }
    }

    #[test]
    fn kraus_completeness_enforced() {
        // Two identity operators violate completeness (sum = 2I).
        let bad = Kraus1::new(vec![Mat::identity(2), Mat::identity(2)]);
        assert!(bad.is_err());
        // A lone √0.9·I sums to 0.9·I.
        let short = |d: usize| vec![Mat::identity(d).scaled(C64::real(0.9f64.sqrt()))];
        assert!(Kraus1::new(short(2)).is_err());
        assert!(Kraus2::new(short(4)).is_err());
        // An off-diagonal defect is caught too.
        let skew = Mat::from_reals(2, &[1.0, 1e-3, 0.0, 1.0]);
        assert!(Kraus1::new(vec![skew]).is_err());
        // Within the 1e-9 tolerance the set is accepted.
        let near = |d: usize| vec![Mat::identity(d).scaled(C64::real((1.0f64 - 1e-11).sqrt()))];
        assert!(Kraus1::new(near(2)).is_ok());
        assert!(Kraus2::new(near(4)).is_ok());
    }

    #[test]
    fn kraus_shapes_enforced() {
        assert!(Kraus1::new(Vec::new()).is_err());
        assert!(Kraus2::new(Vec::new()).is_err());
        assert!(Kraus1::new(vec![Mat::identity(4)]).is_err());
        assert!(Kraus2::new(vec![Mat::identity(2)]).is_err());
        assert!(Kraus1::new(vec![Mat::zeros(2, 4)]).is_err());
        // A wrong shape anywhere in the set rejects it.
        let mixed = vec![Mat::identity(2).scaled(C64::real(0.5)), Mat::identity(4)];
        assert!(Kraus1::new(mixed).is_err());
        assert!(Kraus1::new(vec![Mat::pauli_x()]).is_ok());
        assert!(Kraus2::new(vec![Mat::cnot()]).is_ok());
    }
}
