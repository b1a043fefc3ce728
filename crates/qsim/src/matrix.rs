//! Small dense complex matrices.
//!
//! These back the gate and Kraus-operator definitions. Dimensions stay tiny
//! (2×2 … 32×32), so a straightforward row-major `Vec` representation is both
//! simple and fast enough for cell-level characterization.

use std::fmt;
use std::ops::{Add, Mul, Sub};

use serde::{Deserialize, Serialize};

use crate::complex::C64;

/// A dense, row-major complex matrix.
///
/// # Examples
///
/// ```
/// use hetarch_qsim::matrix::Mat;
///
/// let h = Mat::hadamard();
/// let hh = &h * &h;
/// assert!(hh.approx_eq(&Mat::identity(2), 1e-12));
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<C64>,
}

impl Mat {
    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<C64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match {rows}x{cols}",
            data.len()
        );
        Mat { rows, cols, data }
    }

    /// Creates a square matrix from real row-major entries.
    pub fn from_reals(dim: usize, entries: &[f64]) -> Self {
        assert_eq!(
            entries.len(),
            dim * dim,
            "expected {dim}x{dim} real entries"
        );
        Mat {
            rows: dim,
            cols: dim,
            data: entries.iter().map(|&r| C64::real(r)).collect(),
        }
    }

    /// Returns the `dim`×`dim` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![C64::ZERO; rows * cols],
        }
    }

    /// Returns the `dim`×`dim` identity matrix.
    pub fn identity(dim: usize) -> Self {
        let mut m = Mat::zeros(dim, dim);
        for i in 0..dim {
            m[(i, i)] = C64::ONE;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrows the row-major backing slice.
    #[inline]
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }

    /// Returns the conjugate transpose `M†`.
    pub fn dagger(&self) -> Mat {
        let mut out = Mat::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)].conj();
            }
        }
        out
    }

    /// Returns the Kronecker product `self ⊗ other`.
    ///
    /// # Examples
    ///
    /// ```
    /// use hetarch_qsim::matrix::Mat;
    /// let x = Mat::pauli_x();
    /// let xi = x.kron(&Mat::identity(2));
    /// assert_eq!(xi.rows(), 4);
    /// ```
    pub fn kron(&self, other: &Mat) -> Mat {
        let mut out = Mat::zeros(self.rows * other.rows, self.cols * other.cols);
        for r1 in 0..self.rows {
            for c1 in 0..self.cols {
                let v = self[(r1, c1)];
                for r2 in 0..other.rows {
                    for c2 in 0..other.cols {
                        out[(r1 * other.rows + r2, c1 * other.cols + c2)] = v * other[(r2, c2)];
                    }
                }
            }
        }
        out
    }

    /// Returns the matrix trace.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> C64 {
        assert_eq!(self.rows, self.cols, "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Multiplies every entry by a complex scalar.
    pub fn scaled(&self, s: C64) -> Mat {
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| v * s).collect(),
        }
    }

    /// Returns true when every entry is within `tol` of `other`'s.
    pub fn approx_eq(&self, other: &Mat, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| a.approx_eq(*b, tol))
    }

    /// Returns true when `M† M ≈ I` within `tol`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        (&self.dagger() * self).approx_eq(&Mat::identity(self.rows), tol)
    }

    /// Returns true when `M ≈ M†` within `tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        self.rows == self.cols && self.approx_eq(&self.dagger(), tol)
    }

    // --- standard single-qubit matrices -----------------------------------

    /// Pauli X.
    pub fn pauli_x() -> Mat {
        Mat::from_rows(2, 2, PAULI_X.to_vec())
    }

    /// Pauli Y.
    pub fn pauli_y() -> Mat {
        Mat::from_rows(2, 2, PAULI_Y.to_vec())
    }

    /// Pauli Z.
    pub fn pauli_z() -> Mat {
        Mat::from_rows(2, 2, PAULI_Z.to_vec())
    }

    /// Hadamard.
    pub fn hadamard() -> Mat {
        Mat::from_rows(2, 2, HADAMARD.to_vec())
    }

    /// Phase gate S = diag(1, i).
    pub fn s_gate() -> Mat {
        Mat::from_rows(2, 2, S_GATE.to_vec())
    }

    /// T gate = diag(1, e^{iπ/4}).
    pub fn t_gate() -> Mat {
        Mat::from_rows(2, 2, t_gate_entries().to_vec())
    }

    /// Rotation about X: `RX(θ) = exp(-iθX/2)`.
    pub fn rx(theta: f64) -> Mat {
        Mat::from_rows(2, 2, rx_entries(theta).to_vec())
    }

    /// Rotation about Y: `RY(θ) = exp(-iθY/2)`.
    pub fn ry(theta: f64) -> Mat {
        Mat::from_rows(2, 2, ry_entries(theta).to_vec())
    }

    /// Rotation about Z: `RZ(θ) = exp(-iθZ/2)`.
    pub fn rz(theta: f64) -> Mat {
        Mat::from_rows(2, 2, rz_entries(theta).to_vec())
    }

    // --- standard two-qubit matrices ---------------------------------------
    //
    // Convention: basis index `b = (q_hi << 1) | q_lo`, where the matrix acts
    // on (hi, lo) = (control, target) when applied via
    // [`DensityMatrix::apply_2q`](crate::state::DensityMatrix::apply_2q)
    // with arguments `(control, target)`.

    /// CNOT with the first (high) index as control.
    pub fn cnot() -> Mat {
        Mat::from_rows(4, 4, CNOT.to_vec())
    }

    /// Controlled-Z.
    pub fn cz() -> Mat {
        Mat::from_rows(4, 4, CZ.to_vec())
    }

    /// SWAP.
    pub fn swap() -> Mat {
        Mat::from_rows(4, 4, SWAP.to_vec())
    }

    /// iSWAP.
    pub fn iswap() -> Mat {
        Mat::from_rows(
            4,
            4,
            vec![
                C64::ONE,
                C64::ZERO,
                C64::ZERO,
                C64::ZERO,
                C64::ZERO,
                C64::ZERO,
                C64::I,
                C64::ZERO,
                C64::ZERO,
                C64::I,
                C64::ZERO,
                C64::ZERO,
                C64::ZERO,
                C64::ZERO,
                C64::ZERO,
                C64::ONE,
            ],
        )
    }
}

// Row-major entries of the standard gates, shared by the `Mat`
// constructors above and the allocation-free helpers in `crate::gates`.

/// Real entries as complex ones (`C64::real`, so every imaginary part is
/// `+0.0`).
const fn reals<const N: usize>(x: [f64; N]) -> [C64; N] {
    let mut out = [C64::ZERO; N];
    let mut i = 0;
    while i < N {
        out[i] = C64::real(x[i]);
        i += 1;
    }
    out
}

pub(crate) const PAULI_X: [C64; 4] = reals([0.0, 1.0, 1.0, 0.0]);
// `-C64::I` is `(-0.0, -1.0)`; the table keeps that sign of zero.
pub(crate) const PAULI_Y: [C64; 4] = [C64::ZERO, C64::new(-0.0, -1.0), C64::I, C64::ZERO];
pub(crate) const PAULI_Z: [C64; 4] = reals([1.0, 0.0, 0.0, -1.0]);
pub(crate) const HADAMARD: [C64; 4] = {
    let s = std::f64::consts::FRAC_1_SQRT_2;
    reals([s, s, s, -s])
};
pub(crate) const S_GATE: [C64; 4] = [C64::ONE, C64::ZERO, C64::ZERO, C64::I];

pub(crate) fn t_gate_entries() -> [C64; 4] {
    [
        C64::ONE,
        C64::ZERO,
        C64::ZERO,
        C64::expi(std::f64::consts::FRAC_PI_4),
    ]
}

pub(crate) fn rx_entries(theta: f64) -> [C64; 4] {
    let c = C64::real((theta / 2.0).cos());
    let s = C64::new(0.0, -(theta / 2.0).sin());
    [c, s, s, c]
}

pub(crate) fn ry_entries(theta: f64) -> [C64; 4] {
    let c = (theta / 2.0).cos();
    let s = (theta / 2.0).sin();
    [C64::real(c), C64::real(-s), C64::real(s), C64::real(c)]
}

pub(crate) fn rz_entries(theta: f64) -> [C64; 4] {
    [
        C64::expi(-theta / 2.0),
        C64::ZERO,
        C64::ZERO,
        C64::expi(theta / 2.0),
    ]
}

#[rustfmt::skip]
pub(crate) const CNOT: [C64; 16] = reals([
    1.0, 0.0, 0.0, 0.0,
    0.0, 1.0, 0.0, 0.0,
    0.0, 0.0, 0.0, 1.0,
    0.0, 0.0, 1.0, 0.0,
]);

#[rustfmt::skip]
pub(crate) const CZ: [C64; 16] = reals([
    1.0, 0.0, 0.0, 0.0,
    0.0, 1.0, 0.0, 0.0,
    0.0, 0.0, 1.0, 0.0,
    0.0, 0.0, 0.0, -1.0,
]);

#[rustfmt::skip]
pub(crate) const SWAP: [C64; 16] = reals([
    1.0, 0.0, 0.0, 0.0,
    0.0, 0.0, 1.0, 0.0,
    0.0, 1.0, 0.0, 0.0,
    0.0, 0.0, 0.0, 1.0,
]);

impl std::ops::Index<(usize, usize)> for Mat {
    type Output = C64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &C64 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut C64 {
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &Mat {
    type Output = Mat;
    fn add(self, rhs: &Mat) -> Mat {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Mat {
    type Output = Mat;
    fn sub(self, rhs: &Mat) -> Mat {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a - b)
                .collect(),
        }
    }
}

impl Mul for &Mat {
    type Output = Mat;
    fn mul(self, rhs: &Mat) -> Mat {
        assert_eq!(
            self.cols, rhs.rows,
            "matrix product dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Mat::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let v = self[(r, k)];
                if v == C64::ZERO {
                    continue;
                }
                for c in 0..rhs.cols {
                    out[(r, c)] += v * rhs[(k, c)];
                }
            }
        }
        out
    }
}

impl fmt::Display for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                write!(f, "{:>24}", self[(r, c)].to_string())?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    #[test]
    fn paulis_are_unitary_and_hermitian() {
        for m in [Mat::pauli_x(), Mat::pauli_y(), Mat::pauli_z()] {
            assert!(m.is_unitary(TOL));
            assert!(m.is_hermitian(TOL));
            assert!((&m * &m).approx_eq(&Mat::identity(2), TOL));
        }
    }

    #[test]
    fn hadamard_conjugates_x_to_z() {
        let h = Mat::hadamard();
        let hxh = &(&h * &Mat::pauli_x()) * &h;
        assert!(hxh.approx_eq(&Mat::pauli_z(), TOL));
    }

    #[test]
    fn s_squared_is_z_and_t_squared_is_s() {
        let s = Mat::s_gate();
        let t = Mat::t_gate();
        assert!((&s * &s).approx_eq(&Mat::pauli_z(), TOL));
        assert!((&t * &t).approx_eq(&s, TOL));
    }

    #[test]
    fn rotations_compose_additively() {
        let a = Mat::rx(0.3);
        let b = Mat::rx(0.9);
        assert!((&a * &b).approx_eq(&Mat::rx(1.2), TOL));
        let a = Mat::rz(0.5);
        let b = Mat::rz(-1.5);
        assert!((&a * &b).approx_eq(&Mat::rz(-1.0), TOL));
    }

    #[test]
    fn rx_pi_is_minus_i_x() {
        let rx = Mat::rx(std::f64::consts::PI);
        let expect = Mat::pauli_x().scaled(-C64::I);
        assert!(rx.approx_eq(&expect, TOL));
    }

    #[test]
    fn two_qubit_gates_are_unitary() {
        for m in [Mat::cnot(), Mat::cz(), Mat::swap(), Mat::iswap()] {
            assert!(m.is_unitary(TOL));
        }
    }

    #[test]
    fn cnot_squares_to_identity() {
        let c = Mat::cnot();
        assert!((&c * &c).approx_eq(&Mat::identity(4), TOL));
    }

    #[test]
    fn swap_from_three_cnots() {
        // SWAP = CNOT(a,b) CNOT(b,a) CNOT(a,b); CNOT(b,a) = (H⊗H) CNOT (H⊗H).
        let c = Mat::cnot();
        let hh = Mat::hadamard().kron(&Mat::hadamard());
        let c_rev = &(&hh * &c) * &hh;
        let swap = &(&c * &c_rev) * &c;
        assert!(swap.approx_eq(&Mat::swap(), TOL));
    }

    #[test]
    fn kron_dimensions_and_values() {
        let z = Mat::pauli_z();
        let zz = z.kron(&z);
        assert_eq!(zz.rows(), 4);
        assert_eq!(zz[(0, 0)], C64::ONE);
        assert_eq!(zz[(1, 1)], C64::real(-1.0));
        assert_eq!(zz[(2, 2)], C64::real(-1.0));
        assert_eq!(zz[(3, 3)], C64::ONE);
    }

    #[test]
    fn trace_of_identity() {
        assert_eq!(Mat::identity(8).trace(), C64::real(8.0));
    }

    #[test]
    fn dagger_reverses_products() {
        let a = Mat::rx(0.7);
        let b = Mat::ry(0.2);
        let lhs = (&a * &b).dagger();
        let rhs = &b.dagger() * &a.dagger();
        assert!(lhs.approx_eq(&rhs, TOL));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn product_dimension_mismatch_panics() {
        let a = Mat::identity(2);
        let b = Mat::identity(4);
        let _ = &a * &b;
    }
}
