//! Dense density-matrix states.
//!
//! A [`DensityMatrix`] over `n` qubits stores the full `2^n × 2^n` complex
//! matrix ρ. This is the exact, noise-capable representation HetArch uses at
//! the *standard-cell* level (paper §2): cells involve ≲ 10 qubits, so the
//! exponential cost is confined to small systems and the characterization is
//! done once per cell.
//!
//! Qubit `0` is the least-significant bit of a basis index.
//!
//! # Diagonal states
//!
//! A state also carries a private structural flag meaning "every
//! off-diagonal entry is exactly zero". It is set only where that is known
//! by construction ([`DensityMatrix::zero_state`],
//! [`DensityMatrix::maximally_mixed`]), never by inspecting entries. While
//! it is set, the operations that map a diagonal ρ to a diagonal ρ touch
//! only the `2^n` diagonal entries:
//!
//! - monomial gates (X, CNOT, SWAP, …) permute the diagonal, whose phase
//!   factors are all `i^0`;
//! - one-qubit channel kernels of the *decoupled* form update each
//!   diagonal pair `(B00, B11)`;
//! - two-qubit channel kernels that *keep the diagonal* (no coefficient
//!   from a diagonal to an off-diagonal block entry: depolarizing, Pauli
//!   and product-of-decoupled channels) update the four diagonal entries of
//!   each diagonal 4×4 block;
//! - [`measure::project_z`](crate::measure::project_z) keeps the flag, and
//!   so does [`DensityMatrix::renormalize`] unless `1/p` overflows.
//!
//! Every other write clears it: [`DensityMatrix::entry_mut`],
//! [`DensityMatrix::as_mut_slice`], a dense conjugation, a kernel of any
//! other form. Each fast path sums an output's surviving terms in the dense
//! pass's order, and every dropped term has an exactly-zero factor, so each
//! entry equals the dense result up to the sign of a zero (the argument of
//! the monomial and zero-skipping passes below). Debug builds check on
//! entry to each fast path that the off-diagonal entries are zero.

use std::fmt;

use crate::complex::C64;
use crate::error::QsimError;
use crate::kernel::{ChannelKernel1, ChannelKernel2};
use crate::matrix::Mat;

/// A density matrix over `n` qubits.
///
/// # Examples
///
/// ```
/// use hetarch_qsim::state::DensityMatrix;
/// use hetarch_qsim::matrix::Mat;
///
/// let mut rho = DensityMatrix::zero_state(2);
/// rho.apply_1q(0, &Mat::hadamard());
/// rho.apply_2q(0, 1, &Mat::cnot());
/// // Bell state: P(00) = P(11) = 1/2.
/// assert!((rho.diagonal_prob(0b00) - 0.5).abs() < 1e-12);
/// assert!((rho.diagonal_prob(0b11) - 0.5).abs() < 1e-12);
/// ```
#[derive(Clone)]
pub struct DensityMatrix {
    n: usize,
    dim: usize,
    data: Vec<C64>,
    /// Every off-diagonal entry is exactly zero (see the module docs).
    /// Only set where that is known by construction.
    diagonal: bool,
}

/// Equality of the entries; the diagonal flag is a cache of their
/// structure, not part of the state.
impl PartialEq for DensityMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.dim == other.dim && self.data == other.data
    }
}

impl DensityMatrix {
    /// Creates `|0…0⟩⟨0…0|` over `n` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n > 14` (a 14-qubit density matrix already holds 2^28
    /// complex entries; larger systems belong in the stabilizer simulator).
    pub fn zero_state(n: usize) -> Self {
        assert!(
            n <= 14,
            "density matrices are limited to 14 qubits (got {n})"
        );
        let dim = 1usize << n;
        let mut data = vec![C64::ZERO; dim * dim];
        data[0] = C64::ONE;
        DensityMatrix {
            n,
            dim,
            data,
            diagonal: true,
        }
    }

    /// Creates ρ = |ψ⟩⟨ψ| from an (unnormalized) state vector.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::InvalidState`] if the vector length is not a
    /// power of two or the norm is zero.
    pub fn from_pure(psi: &[C64]) -> Result<Self, QsimError> {
        let dim = psi.len();
        if dim == 0 || !dim.is_power_of_two() {
            return Err(QsimError::InvalidState(format!(
                "state vector length {dim} is not a power of two"
            )));
        }
        let norm_sqr: f64 = psi.iter().map(|z| z.norm_sqr()).sum();
        if norm_sqr <= 0.0 {
            return Err(QsimError::InvalidState("zero state vector".into()));
        }
        let n = dim.trailing_zeros() as usize;
        let mut data = vec![C64::ZERO; dim * dim];
        for r in 0..dim {
            for c in 0..dim {
                data[r * dim + c] = psi[r] * psi[c].conj() / norm_sqr;
            }
        }
        Ok(DensityMatrix {
            n,
            dim,
            data,
            diagonal: false,
        })
    }

    /// Creates a density matrix from an explicit `2^n × 2^n` matrix.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::InvalidState`] if the matrix is not square with a
    /// power-of-two dimension, is not Hermitian, or has trace far from one.
    pub fn from_matrix(m: &Mat) -> Result<Self, QsimError> {
        if m.rows() != m.cols() || !m.rows().is_power_of_two() {
            return Err(QsimError::InvalidState(format!(
                "{}x{} is not a square power-of-two matrix",
                m.rows(),
                m.cols()
            )));
        }
        let dm = DensityMatrix {
            n: m.rows().trailing_zeros() as usize,
            dim: m.rows(),
            data: m.as_slice().to_vec(),
            diagonal: false,
        };
        dm.validate(1e-9)?;
        Ok(dm)
    }

    /// Creates the maximally mixed state `I / 2^n` (a diagonal state, so
    /// classical-input circuits on it take the diagonal passes).
    pub fn maximally_mixed(n: usize) -> Self {
        let mut dm = DensityMatrix::zero_state(n);
        let dim = dm.dim;
        dm.data.fill(C64::ZERO);
        for i in 0..dim {
            dm.data[i * dim + i] = C64::real(1.0 / dim as f64);
        }
        dm
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Matrix dimension `2^n`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Entry ρ[r, c].
    #[inline]
    pub fn entry(&self, r: usize, c: usize) -> C64 {
        self.data[r * self.dim + c]
    }

    /// Mutable entry ρ[r, c]. Intended for test setup; production code should
    /// use gates and channels.
    #[inline]
    pub fn entry_mut(&mut self, r: usize, c: usize) -> &mut C64 {
        self.diagonal = false;
        &mut self.data[r * self.dim + c]
    }

    /// Whether the state is known to have no off-diagonal entries. Every
    /// diagonal fast path asks this on entry, and debug builds check the
    /// claim there, so a write that forgets to clear the flag fails loudly.
    #[inline]
    pub(crate) fn is_diagonal(&self) -> bool {
        debug_assert!(
            !self.diagonal || self.off_diagonal_is_zero(),
            "diagonal flag set on a state with coherences"
        );
        self.diagonal
    }

    /// Mutable diagonal entry ρ[b, b]. A write there cannot create a
    /// coherence, so the diagonal flag survives it.
    #[inline]
    pub(crate) fn diagonal_entry_mut(&mut self, b: usize) -> &mut C64 {
        &mut self.data[b * (self.dim + 1)]
    }

    /// Whether every off-diagonal entry is exactly zero: the invariant
    /// behind the diagonal flag.
    fn off_diagonal_is_zero(&self) -> bool {
        let dim = self.dim;
        self.data
            .iter()
            .enumerate()
            .all(|(i, z)| i / dim == i % dim || *z == C64::ZERO)
    }

    /// Probability of measuring the computational basis state `b` (the
    /// diagonal entry ρ[b, b]).
    #[inline]
    pub fn diagonal_prob(&self, b: usize) -> f64 {
        self.data[b * self.dim + b].re
    }

    /// Trace of ρ.
    pub fn trace(&self) -> C64 {
        (0..self.dim).map(|i| self.entry(i, i)).sum()
    }

    /// Purity `tr(ρ²)`; 1 for pure states, `1/2^n` for maximally mixed.
    pub fn purity(&self) -> f64 {
        let mut acc = 0.0;
        for r in 0..self.dim {
            for c in 0..self.dim {
                // tr(ρ²) = Σ_{rc} ρ[r,c] ρ[c,r] = Σ_{rc} |ρ[r,c]|² for Hermitian ρ.
                acc += self.entry(r, c).norm_sqr();
            }
        }
        acc
    }

    /// Checks trace ≈ 1, Hermiticity, and non-negative diagonal.
    ///
    /// # Errors
    ///
    /// Returns [`QsimError::InvalidState`] describing the first violated
    /// property.
    pub fn validate(&self, tol: f64) -> Result<(), QsimError> {
        let t = self.trace();
        if !t.approx_eq(C64::ONE, tol.max(1e-9) * self.dim as f64) {
            return Err(QsimError::InvalidState(format!("trace is {t}, expected 1")));
        }
        for r in 0..self.dim {
            if self.entry(r, r).re < -tol {
                return Err(QsimError::InvalidState(format!(
                    "negative diagonal entry {} at index {r}",
                    self.entry(r, r)
                )));
            }
            for c in (r + 1)..self.dim {
                if !self.entry(r, c).approx_eq(self.entry(c, r).conj(), tol) {
                    return Err(QsimError::InvalidState(format!(
                        "not Hermitian at ({r},{c})"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Applies ρ → M ρ M† for an arbitrary 2×2 matrix `m` on qubit `q`.
    ///
    /// This is the shared kernel behind unitary gates and Kraus operators.
    /// A monomial `m` (one entry per row and column, each exactly ±1 or
    /// ±i: X, Y, Z, S) is applied as an index move. That gives every entry
    /// the dense sweep's value up to the sign of a zero, because each
    /// skipped term has an exactly-zero factor and a unit-phase product is
    /// exact. Any other `m` takes the dense left/right sweep.
    ///
    /// # Panics
    ///
    /// Panics if `q >= n` or `m` is not 2×2.
    pub fn apply_conjugation_1q(&mut self, q: usize, m: &Mat) {
        assert_eq!((m.rows(), m.cols()), (2, 2), "expected a 2x2 matrix");
        let mut u = [C64::ZERO; 4];
        u.copy_from_slice(m.as_slice());
        self.conjugate_1q(q, &u);
    }

    /// [`apply_conjugation_1q`](Self::apply_conjugation_1q) on a row-major
    /// entry table, the allocation-free form behind [`crate::gates`].
    pub(crate) fn conjugate_1q(&mut self, q: usize, u: &[C64; 4]) {
        assert!(q < self.n, "qubit {q} out of range for {} qubits", self.n);
        let mask = 1usize << q;
        if let Some(m) = Monomial::<2>::detect(u) {
            self.conjugate_monomial(&[0, mask], &m);
            return;
        }
        self.diagonal = false;
        let dim = self.dim;
        // Left multiply: rows.
        for i in 0..dim {
            if i & mask != 0 {
                continue;
            }
            let r0 = i;
            let r1 = i | mask;
            for c in 0..dim {
                let a = self.data[r0 * dim + c];
                let b = self.data[r1 * dim + c];
                self.data[r0 * dim + c] = u[0] * a + u[1] * b;
                self.data[r1 * dim + c] = u[2] * a + u[3] * b;
            }
        }
        // Right multiply by M†: columns.
        for r in 0..dim {
            let row = r * dim;
            for i in 0..dim {
                if i & mask != 0 {
                    continue;
                }
                let c0 = i;
                let c1 = i | mask;
                let a = self.data[row + c0];
                let b = self.data[row + c1];
                self.data[row + c0] = a * u[0].conj() + b * u[1].conj();
                self.data[row + c1] = a * u[2].conj() + b * u[3].conj();
            }
        }
    }

    /// Applies ρ → M ρ M† for an arbitrary 4×4 matrix on qubits
    /// `(q_hi, q_lo)`, where the matrix basis index is `(bit_hi << 1) | bit_lo`.
    /// Monomial matrices (CNOT, CZ, SWAP, iSWAP, Pauli products) take the
    /// index-move path, as in
    /// [`apply_conjugation_1q`](Self::apply_conjugation_1q).
    ///
    /// # Panics
    ///
    /// Panics if the qubits coincide or are out of range, or `m` is not 4×4.
    pub fn apply_conjugation_2q(&mut self, q_hi: usize, q_lo: usize, m: &Mat) {
        assert_eq!((m.rows(), m.cols()), (4, 4), "expected a 4x4 matrix");
        let mut u = [C64::ZERO; 16];
        u.copy_from_slice(m.as_slice());
        self.conjugate_2q(q_hi, q_lo, &u);
    }

    /// [`apply_conjugation_2q`](Self::apply_conjugation_2q) on a row-major
    /// entry table, the allocation-free form behind [`crate::gates`].
    pub(crate) fn conjugate_2q(&mut self, q_hi: usize, q_lo: usize, u: &[C64; 16]) {
        assert!(q_hi < self.n && q_lo < self.n, "qubit out of range");
        assert_ne!(q_hi, q_lo, "two-qubit gate requires distinct qubits");
        let mh = 1usize << q_hi;
        let ml = 1usize << q_lo;
        if let Some(m) = Monomial::<4>::detect(u) {
            self.conjugate_monomial(&[0, ml, mh, mh | ml], &m);
            return;
        }
        self.diagonal = false;
        let dim = self.dim;
        // Left multiply.
        let mut tmp = [C64::ZERO; 4];
        for base in 0..dim {
            if base & (mh | ml) != 0 {
                continue;
            }
            // Block row index k = (bit_hi << 1) | bit_lo.
            let rows = [
                base * dim,
                (base | ml) * dim,
                (base | mh) * dim,
                (base | mh | ml) * dim,
            ];
            for c in 0..dim {
                for (k, t) in tmp.iter_mut().enumerate() {
                    let mut acc = C64::ZERO;
                    for j in 0..4 {
                        acc += u[k * 4 + j] * self.data[rows[j] + c];
                    }
                    *t = acc;
                }
                for (k, t) in tmp.iter().enumerate() {
                    self.data[rows[k] + c] = *t;
                }
            }
        }
        // Right multiply by M†.
        for r in 0..dim {
            let row = r * dim;
            for base in 0..dim {
                if base & (mh | ml) != 0 {
                    continue;
                }
                let cols = [base, base | ml, base | mh, base | mh | ml];
                for (k, t) in tmp.iter_mut().enumerate() {
                    let mut acc = C64::ZERO;
                    for j in 0..4 {
                        acc += self.data[row + cols[j]] * u[k * 4 + j].conj();
                    }
                    *t = acc;
                }
                for (k, t) in tmp.iter().enumerate() {
                    self.data[row + cols[k]] = *t;
                }
            }
        }
    }

    /// Conjugates by the monomial `m` acting on the local basis states at
    /// index offsets `offsets` (`offsets[k]` sets the bits of local state
    /// `k`): every D×D block of ρ is rewritten as
    /// `B'[r][c] = i^(phase[r] − phase[c]) · B[src[r]][src[c]]`.
    ///
    /// On a diagonal state only the diagonal blocks' diagonal entries can
    /// be non-zero, and each moves with phase `i^0`: the pass permutes
    /// them and leaves every (zero) off-diagonal entry in place.
    fn conjugate_monomial<const D: usize>(&mut self, offsets: &[usize; D], m: &Monomial<D>) {
        let span = offsets.iter().fold(0, |acc, &o| acc | o);
        let dim = self.dim;
        if self.is_diagonal() {
            for base in (0..dim).filter(|b| b & span == 0) {
                let at = offsets.map(|o| (base | o) * (dim + 1));
                let old = at.map(|i| self.data[i]);
                for (&i, &src) in at.iter().zip(&m.src) {
                    self.data[i] = old[src];
                }
            }
            return;
        }
        let mut turn = [[0u8; D]; D];
        for (r, row) in turn.iter_mut().enumerate() {
            for (c, t) in row.iter_mut().enumerate() {
                *t = m.phase[r].wrapping_sub(m.phase[c]) & 3;
            }
        }
        let mut block = [[C64::ZERO; D]; D];
        for base_r in (0..dim).filter(|b| b & span == 0) {
            let rows = offsets.map(|o| (base_r | o) * dim);
            for base_c in (0..dim).filter(|b| b & span == 0) {
                for (row, &at) in block.iter_mut().zip(&rows) {
                    for (v, &o) in row.iter_mut().zip(offsets) {
                        *v = self.data[at + (base_c | o)];
                    }
                }
                for (r, &at) in rows.iter().enumerate() {
                    for (c, &o) in offsets.iter().enumerate() {
                        self.data[at + (base_c | o)] =
                            turn_by(block[m.src[r]][m.src[c]], turn[r][c]);
                    }
                }
            }
        }
    }

    /// Applies a precompiled single-qubit channel superoperator (4×4,
    /// row-major over `vec(B)[i*2 + j] = B[i, j]`) to qubit `q` in one
    /// allocation-free pass: every 2×2 block of ρ addressed by the qubit's
    /// bit in the row and column index is replaced by `S · vec(B)`.
    ///
    /// The pass walks each row pair `(r, r | mask)` in contiguous column
    /// runs: the columns with the qubit's bit clear come in runs of
    /// `mask = 2^q`, each followed by its partner run. The contraction is
    /// specialised on the kernel's form (see [`ChannelKernel1`]): a real
    /// kernel skips the terms with an imaginary factor, and a decoupled
    /// kernel skips the eight entries that are zero by its form. Each
    /// skipped term has an exactly-zero factor and each output keeps its
    /// ascending-`j` sum order, so every entry equals the dense
    /// contraction's up to the sign of a zero.
    ///
    /// On a diagonal state a decoupled kernel maps every off-diagonal
    /// entry to a sum of terms with a zero factor, so only the diagonal
    /// pairs `(B00, B11)` of the diagonal blocks are contracted, with the
    /// same arithmetic, and the state stays diagonal. Any other kernel
    /// clears the diagonal flag.
    ///
    /// This is the hot path behind [`crate::kernel::ChannelKernel1`].
    ///
    /// # Panics
    ///
    /// Panics if `q >= n`.
    pub(crate) fn apply_superop_1q(&mut self, q: usize, kernel: &ChannelKernel1) {
        assert!(q < self.n, "qubit {q} out of range for {} qubits", self.n);
        if self.is_diagonal() && kernel.is_decoupled() {
            if kernel.is_real() {
                self.superop_1q_diagonal::<true>(q, kernel);
            } else {
                self.superop_1q_diagonal::<false>(q, kernel);
            }
            return;
        }
        self.diagonal = false;
        match (kernel.is_real(), kernel.is_decoupled()) {
            (true, true) => self.superop_1q_pass::<true, true>(q, kernel),
            (true, false) => self.superop_1q_pass::<true, false>(q, kernel),
            (false, true) => self.superop_1q_pass::<false, true>(q, kernel),
            (false, false) => self.superop_1q_pass::<false, false>(q, kernel),
        }
    }

    /// The decoupled one-qubit pass restricted to the diagonal pairs
    /// `(ρ[r0, r0], ρ[r1, r1])`, `r1 = r0 | 2^q`.
    fn superop_1q_diagonal<const REAL: bool>(&mut self, q: usize, kernel: &ChannelKernel1) {
        let (s_re, s_im) = kernel.split();
        let mask = 1usize << q;
        let step = self.dim + 1;
        for r0 in (0..self.dim).filter(|r| r & mask == 0) {
            let (i0, i1) = (r0 * step, (r0 | mask) * step);
            let b = [self.data[i0], C64::ZERO, C64::ZERO, self.data[i1]];
            let o = contract_block_1q::<REAL, true>(s_re, s_im, &b);
            self.data[i0] = o[0];
            self.data[i1] = o[3];
        }
    }

    fn superop_1q_pass<const REAL: bool, const DECOUPLED: bool>(
        &mut self,
        q: usize,
        kernel: &ChannelKernel1,
    ) {
        let (s_re, s_im) = kernel.split();
        let mask = 1usize << q;
        let dim = self.dim;
        for r0 in (0..dim).filter(|r| r & mask == 0) {
            let (head, tail) = self.data.split_at_mut((r0 | mask) * dim);
            let row0 = &mut head[r0 * dim..(r0 + 1) * dim];
            let row1 = &mut tail[..dim];
            for (run0, run1) in row0
                .chunks_exact_mut(2 * mask)
                .zip(row1.chunks_exact_mut(2 * mask))
            {
                let (b00, b01) = run0.split_at_mut(mask);
                let (b10, b11) = run1.split_at_mut(mask);
                for (((e00, e01), e10), e11) in b00.iter_mut().zip(b01).zip(b10).zip(b11) {
                    let b = [*e00, *e01, *e10, *e11];
                    [*e00, *e01, *e10, *e11] = contract_block_1q::<REAL, DECOUPLED>(s_re, s_im, &b);
                }
            }
        }
    }

    /// Applies a precompiled two-qubit channel superoperator to qubits
    /// `(q_hi, q_lo)` in one allocation-free pass. Each 4×4 block of ρ
    /// (row and column sub-indices `(bit_hi << 1) | bit_lo`) is gathered
    /// into `vec(B)[i*4 + j] = B[i, j]` and contracted against the kernel's
    /// compressed rows in ascending-column order on real/imag-split slices
    /// (bit-identical to the interleaved complex sum; see the module docs
    /// of [`crate::kernel`]).
    ///
    /// Four column blocks of one row block are contracted together, so
    /// each coefficient is loaded once per four blocks and the inner loop
    /// runs over independent lanes. A real kernel skips its imaginary
    /// terms (exactly-zero factors). Neither changes any entry's sum
    /// order, so every entry equals the one-block contraction's up to the
    /// sign of a zero.
    ///
    /// On a diagonal state a kernel that keeps diagonal blocks diagonal
    /// only has to fill the four diagonal entries of each diagonal block:
    /// every other output sums terms with a zero factor. Each of those four
    /// sums the row's coefficients on the diagonal columns in ascending
    /// column order, which is the dense row's order with its zero-input
    /// terms left out (a zero coefficient adds only a signed zero), and
    /// the state stays diagonal. Any other kernel clears the diagonal flag.
    ///
    /// # Panics
    ///
    /// Panics if the qubits coincide or are out of range.
    pub(crate) fn apply_superop_2q(&mut self, q_hi: usize, q_lo: usize, kernel: &ChannelKernel2) {
        assert!(q_hi < self.n && q_lo < self.n, "qubit out of range");
        assert_ne!(q_hi, q_lo, "two-qubit channel requires distinct qubits");
        if self.is_diagonal() && kernel.keeps_diagonal() {
            if kernel.is_real() {
                self.superop_2q_diagonal::<true>(q_hi, q_lo, kernel);
            } else {
                self.superop_2q_diagonal::<false>(q_hi, q_lo, kernel);
            }
            return;
        }
        self.diagonal = false;
        if kernel.is_real() {
            self.superop_2q_pass::<true>(q_hi, q_lo, kernel);
        } else {
            self.superop_2q_pass::<false>(q_hi, q_lo, kernel);
        }
    }

    fn superop_2q_pass<const REAL: bool>(
        &mut self,
        q_hi: usize,
        q_lo: usize,
        kernel: &ChannelKernel2,
    ) {
        let (mh, ml) = (1usize << q_hi, 1usize << q_lo);
        let offsets = [0, ml, mh, mh | ml];
        let (a, b) = (q_hi.min(q_lo), q_hi.max(q_lo));
        let dim = self.dim;
        // Block `k`'s base index: `k` with zero bits inserted at both qubits.
        let base = |k: usize| insert_zero_bit(insert_zero_bit(k, a), b);
        let blocks = dim / 4;
        for kr in 0..blocks {
            let rows = offsets.map(|o| (base(kr) | o) * dim);
            if blocks >= LANES {
                for kc in (0..blocks).step_by(LANES) {
                    let cols: [usize; LANES] = std::array::from_fn(|l| base(kc + l));
                    contract_blocks_2q::<REAL, LANES>(
                        &mut self.data,
                        &rows,
                        &offsets,
                        &cols,
                        kernel,
                    );
                }
            } else {
                for kc in 0..blocks {
                    contract_blocks_2q::<REAL, 1>(
                        &mut self.data,
                        &rows,
                        &offsets,
                        &[base(kc)],
                        kernel,
                    );
                }
            }
        }
    }

    /// The diagonal-keeping two-qubit pass restricted to the diagonal
    /// entries `ρ[b, b]` of each diagonal 4×4 block.
    fn superop_2q_diagonal<const REAL: bool>(
        &mut self,
        q_hi: usize,
        q_lo: usize,
        kernel: &ChannelKernel2,
    ) {
        let (mh, ml) = (1usize << q_hi, 1usize << q_lo);
        let offsets = [0, ml, mh, mh | ml];
        let (w_re, w_im) = kernel.diagonal_block();
        let step = self.dim + 1;
        for base in (0..self.dim).filter(|b| b & (mh | ml) == 0) {
            let at = offsets.map(|o| (base | o) * step);
            let b = at.map(|i| self.data[i]);
            for ((&to, wr_row), wi_row) in at.iter().zip(w_re).zip(w_im) {
                let (mut re, mut im) = (0.0f64, 0.0f64);
                for ((bp, &wr), &wi) in b.iter().zip(wr_row).zip(wi_row) {
                    if REAL {
                        re += wr * bp.re;
                        im += wr * bp.im;
                    } else {
                        re += wr * bp.re - wi * bp.im;
                        im += wr * bp.im + wi * bp.re;
                    }
                }
                self.data[to] = C64::new(re, im);
            }
        }
    }

    /// Applies a single-qubit unitary gate.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not unitary (debug builds only) or dimensions mismatch.
    pub fn apply_1q(&mut self, q: usize, u: &Mat) {
        debug_assert!(u.is_unitary(1e-9), "apply_1q requires a unitary matrix");
        self.apply_conjugation_1q(q, u);
    }

    /// Applies a two-qubit unitary gate on `(q_hi, q_lo)`.
    ///
    /// For [`Mat::cnot`], `q_hi` is the control and `q_lo` the target.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not unitary (debug builds only) or dimensions mismatch.
    pub fn apply_2q(&mut self, q_hi: usize, q_lo: usize, u: &Mat) {
        debug_assert!(u.is_unitary(1e-9), "apply_2q requires a unitary matrix");
        self.apply_conjugation_2q(q_hi, q_lo, u);
    }

    /// Tensor product `self ⊗ other`; `other`'s qubits become the new
    /// high-order qubits `n..n+m`.
    pub fn tensor(&self, other: &DensityMatrix) -> DensityMatrix {
        let n = self.n + other.n;
        assert!(n <= 14, "tensor product would exceed the 14-qubit limit");
        let dim = 1usize << n;
        let mut data = vec![C64::ZERO; dim * dim];
        for r2 in 0..other.dim {
            for c2 in 0..other.dim {
                let v2 = other.entry(r2, c2);
                if v2 == C64::ZERO {
                    continue;
                }
                for r1 in 0..self.dim {
                    for c1 in 0..self.dim {
                        let v1 = self.entry(r1, c1);
                        if v1 == C64::ZERO {
                            continue;
                        }
                        let r = (r2 << self.n) | r1;
                        let c = (c2 << self.n) | c1;
                        data[r * dim + c] = v1 * v2;
                    }
                }
            }
        }
        DensityMatrix {
            n,
            dim,
            data,
            diagonal: false,
        }
    }

    /// Traces out all qubits not in `keep`; kept qubit `keep[j]` becomes
    /// qubit `j` of the result.
    ///
    /// # Panics
    ///
    /// Panics if `keep` contains duplicates or out-of-range indices.
    pub fn partial_trace(&self, keep: &[usize]) -> DensityMatrix {
        let mut seen = vec![false; self.n];
        for &q in keep {
            assert!(q < self.n, "kept qubit {q} out of range");
            assert!(!seen[q], "duplicate kept qubit {q}");
            seen[q] = true;
        }
        let traced: Vec<usize> = (0..self.n).filter(|q| !seen[*q]).collect();
        let kn = keep.len();
        let kdim = 1usize << kn;
        let tdim = 1usize << traced.len();
        let expand = |bits: usize, positions: &[usize]| -> usize {
            let mut out = 0usize;
            for (j, &q) in positions.iter().enumerate() {
                if (bits >> j) & 1 == 1 {
                    out |= 1 << q;
                }
            }
            out
        };
        let mut data = vec![C64::ZERO; kdim * kdim];
        for rk in 0..kdim {
            let rbase = expand(rk, keep);
            for ck in 0..kdim {
                let cbase = expand(ck, keep);
                let mut acc = C64::ZERO;
                for t in 0..tdim {
                    let toff = expand(t, &traced);
                    acc += self.entry(rbase | toff, cbase | toff);
                }
                data[rk * kdim + ck] = acc;
            }
        }
        DensityMatrix {
            n: kn,
            dim: kdim,
            data,
            diagonal: false,
        }
    }

    /// Expectation value `tr(ρ P)` of the Pauli string with X support
    /// `xmask` and Z support `zmask` (Y where both bits are set).
    pub fn expectation_pauli(&self, xmask: usize, zmask: usize) -> C64 {
        assert!(
            xmask < self.dim && zmask < self.dim,
            "pauli mask out of range"
        );
        let ny = (xmask & zmask).count_ones();
        // i^{ny} prefactor from Y = i X Z.
        let prefactor = match ny % 4 {
            0 => C64::ONE,
            1 => C64::I,
            2 => -C64::ONE,
            _ => -C64::I,
        };
        let mut acc = C64::ZERO;
        for b in 0..self.dim {
            let sign = if ((b & zmask).count_ones()).is_multiple_of(2) {
                1.0
            } else {
                -1.0
            };
            acc += self.entry(b, b ^ xmask).scale(sign);
        }
        acc * prefactor
    }

    /// Rescales ρ by `1/p` (used after post-selection). A diagonal state
    /// stays diagonal unless `1/p` overflows, which turns its zeros into
    /// NaN.
    pub fn renormalize(&mut self, p: f64) {
        assert!(
            p > 0.0,
            "cannot renormalize by non-positive probability {p}"
        );
        let inv = 1.0 / p;
        for v in &mut self.data {
            *v = v.scale(inv);
        }
        self.diagonal &= inv.is_finite();
    }

    /// Borrows the row-major backing data.
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }

    /// Mutably borrows the row-major backing data.
    ///
    /// Callers may rely on the following layout invariants, which are
    /// stable API:
    ///
    /// - the slice holds exactly `dim² = 4^n` entries, where
    ///   `dim = 2^n = self.dim()`;
    /// - entry `ρ[r, c]` lives at index `r * dim + c` (row-major);
    /// - qubit `0` is the least-significant bit of a basis index, so the
    ///   2×2 block of qubit `q` is addressed by bit `1 << q` of `r` and `c`.
    ///
    /// Callers must not change the slice length and are responsible for
    /// keeping the matrix a valid state (Hermitian, unit trace) if it is
    /// handed back to code that assumes one — [`validate`](Self::validate)
    /// checks those invariants.
    pub fn as_mut_slice(&mut self) -> &mut [C64] {
        self.diagonal = false;
        &mut self.data
    }

    /// Converts into a [`Mat`] (for diagnostics and tests).
    pub fn to_mat(&self) -> Mat {
        Mat::from_rows(self.dim, self.dim, self.data.clone())
    }
}

/// A matrix with exactly one non-zero entry per row and column, each
/// exactly ±1 or ±i: row `r` holds `i^phase[r]` in column `src[r]`.
///
/// Conjugating by it moves entries: on each local block,
/// `(M B M†)[r][c] = i^(phase[r] − phase[c]) · B[src[r]][src[c]]`. The dense
/// sweep computes the same value: each of its other terms has an
/// exactly-zero factor, so adding it can change at most the sign of a zero
/// sum, and multiplying by ±1 or ±i only swaps parts and flips signs,
/// which is exact. So every entry equals the dense sweep's up to the sign
/// of a zero, which cannot change any later non-zero value.
struct Monomial<const D: usize> {
    src: [usize; D],
    phase: [u8; D],
}

impl<const D: usize> Monomial<D> {
    /// `i^k` for `k = 0..4`.
    const UNITS: [C64; 4] = [C64::ONE, C64::I, C64::new(-1.0, 0.0), C64::new(0.0, -1.0)];

    /// The monomial form of the row-major `D×D` matrix `u`, if it has one.
    fn detect(u: &[C64]) -> Option<Self> {
        debug_assert_eq!(u.len(), D * D);
        let mut src = [0usize; D];
        let mut phase = [0u8; D];
        let mut used = [false; D];
        for (r, row) in u.chunks_exact(D).enumerate() {
            let mut found = None;
            for (c, &v) in row.iter().enumerate() {
                if v == C64::ZERO {
                    continue;
                }
                if found.is_some() || used[c] {
                    return None;
                }
                let k = Self::UNITS.iter().position(|&z| z == v)?;
                found = Some((c, k as u8));
            }
            let (c, k) = found?;
            used[c] = true;
            src[r] = c;
            phase[r] = k;
        }
        Some(Monomial { src, phase })
    }
}

/// `i^k · z` for `k ∈ 0..4`: a swap of parts and sign flips, exact.
#[inline]
fn turn_by(z: C64, k: u8) -> C64 {
    match k {
        0 => z,
        1 => C64::new(-z.im, z.re),
        2 => C64::new(-z.re, -z.im),
        _ => C64::new(z.im, -z.re),
    }
}

/// `S · vec(B)` for one 2×2 block `b = vec(B)`: each output sums its
/// terms in ascending-`j` order from `0.0` on split real/imaginary parts.
/// `REAL` drops the terms with an imaginary factor and `DECOUPLED` the
/// coefficients with `i ^ j ∈ {1, 2}`, each exactly zero in that form.
#[inline(always)]
fn contract_block_1q<const REAL: bool, const DECOUPLED: bool>(
    s_re: &[f64; 16],
    s_im: &[f64; 16],
    b: &[C64; 4],
) -> [C64; 4] {
    let mut o_re = [0.0f64; 4];
    let mut o_im = [0.0f64; 4];
    for (j, bj) in b.iter().enumerate() {
        for i in 0..4 {
            // Decoupled kernels are zero wherever `i ^ j` is 1 or 2
            // (diagonal pair vs off-diagonal pair).
            if DECOUPLED && matches!(i ^ j, 1 | 2) {
                continue;
            }
            let sr = s_re[i * 4 + j];
            if REAL {
                o_re[i] += sr * bj.re;
                o_im[i] += sr * bj.im;
            } else {
                let si = s_im[i * 4 + j];
                o_re[i] += sr * bj.re - si * bj.im;
                o_im[i] += sr * bj.im + si * bj.re;
            }
        }
    }
    std::array::from_fn(|i| C64::new(o_re[i], o_im[i]))
}

/// `k` with a zero bit inserted at position `bit`.
#[inline]
fn insert_zero_bit(k: usize, bit: usize) -> usize {
    let low = (1usize << bit) - 1;
    ((k & !low) << 1) | (k & low)
}

/// Column blocks the two-qubit superoperator pass contracts per coefficient
/// load.
const LANES: usize = 4;

/// Contracts the `L` 4×4 blocks at row offsets `rows` and column bases
/// `cols` against `kernel`'s compressed rows. Each output entry sums its
/// row's terms in ascending-column order from `0.0`, the order of the
/// one-block contraction; `REAL` drops the terms with an imaginary factor,
/// which are exactly zero for a real kernel.
fn contract_blocks_2q<const REAL: bool, const L: usize>(
    data: &mut [C64],
    rows: &[usize; 4],
    offsets: &[usize; 4],
    cols: &[usize; L],
    kernel: &ChannelKernel2,
) {
    let (nnz, kc, v_re, v_im) = kernel.rows();
    let mut b_re = [[0.0f64; L]; 16];
    let mut b_im = [[0.0f64; L]; 16];
    for (i, &row) in rows.iter().enumerate() {
        for (j, &o) in offsets.iter().enumerate() {
            for (l, &base) in cols.iter().enumerate() {
                let z = data[row + (base | o)];
                b_re[i * 4 + j][l] = z.re;
                b_im[i * 4 + j][l] = z.im;
            }
        }
    }
    let mut o_re = [[0.0f64; L]; 16];
    let mut o_im = [[0.0f64; L]; 16];
    for r in 0..16 {
        let (ar, ai) = (&mut o_re[r], &mut o_im[r]);
        for t in 0..nnz[r] as usize {
            let c = kc[r][t] as usize;
            let wr = v_re[r][t];
            if REAL {
                for l in 0..L {
                    ar[l] += wr * b_re[c][l];
                    ai[l] += wr * b_im[c][l];
                }
            } else {
                let wi = v_im[r][t];
                for l in 0..L {
                    ar[l] += wr * b_re[c][l] - wi * b_im[c][l];
                    ai[l] += wr * b_im[c][l] + wi * b_re[c][l];
                }
            }
        }
    }
    for (i, &row) in rows.iter().enumerate() {
        for (j, &o) in offsets.iter().enumerate() {
            for (l, &base) in cols.iter().enumerate() {
                data[row + (base | o)] = C64::new(o_re[i * 4 + j][l], o_im[i * 4 + j][l]);
            }
        }
    }
}

impl fmt::Debug for DensityMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DensityMatrix {{ n: {}, trace: {}, purity: {:.6} }}",
            self.n,
            self.trace(),
            self.purity()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    #[test]
    fn zero_state_is_pure_and_valid() {
        let rho = DensityMatrix::zero_state(3);
        assert_eq!(rho.num_qubits(), 3);
        assert!((rho.purity() - 1.0).abs() < TOL);
        rho.validate(TOL).unwrap();
    }

    #[test]
    fn x_gate_flips_population() {
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_1q(1, &Mat::pauli_x());
        assert!((rho.diagonal_prob(0b10) - 1.0).abs() < TOL);
    }

    #[test]
    fn bell_state_construction() {
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_1q(0, &Mat::hadamard());
        rho.apply_2q(0, 1, &Mat::cnot());
        assert!((rho.diagonal_prob(0) - 0.5).abs() < TOL);
        assert!((rho.diagonal_prob(3) - 0.5).abs() < TOL);
        assert!(rho.entry(0, 3).approx_eq(C64::real(0.5), TOL));
        assert!((rho.purity() - 1.0).abs() < TOL);
    }

    #[test]
    fn cnot_direction_respected() {
        // Control = qubit 1, target = qubit 0 with |01> (qubit0=1): control is 0 -> no flip.
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_1q(0, &Mat::pauli_x());
        rho.apply_2q(1, 0, &Mat::cnot());
        assert!((rho.diagonal_prob(0b01) - 1.0).abs() < TOL);
        // Now control = qubit 0 (set), target qubit 1 -> flips.
        rho.apply_2q(0, 1, &Mat::cnot());
        assert!((rho.diagonal_prob(0b11) - 1.0).abs() < TOL);
    }

    #[test]
    fn from_pure_normalizes() {
        let psi = [C64::real(1.0), C64::real(1.0)];
        let rho = DensityMatrix::from_pure(&psi).unwrap();
        assert!((rho.diagonal_prob(0) - 0.5).abs() < TOL);
        rho.validate(TOL).unwrap();
    }

    #[test]
    fn from_pure_rejects_bad_input() {
        assert!(DensityMatrix::from_pure(&[]).is_err());
        assert!(DensityMatrix::from_pure(&[C64::ZERO, C64::ZERO]).is_err());
        assert!(DensityMatrix::from_pure(&[C64::ONE, C64::ONE, C64::ONE]).is_err());
    }

    #[test]
    fn maximally_mixed_purity() {
        let rho = DensityMatrix::maximally_mixed(2);
        assert!((rho.purity() - 0.25).abs() < TOL);
        rho.validate(TOL).unwrap();
    }

    #[test]
    fn partial_trace_of_bell_is_mixed() {
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_1q(0, &Mat::hadamard());
        rho.apply_2q(0, 1, &Mat::cnot());
        let red = rho.partial_trace(&[0]);
        assert_eq!(red.num_qubits(), 1);
        assert!((red.diagonal_prob(0) - 0.5).abs() < TOL);
        assert!((red.purity() - 0.5).abs() < TOL);
    }

    #[test]
    fn partial_trace_of_product_state() {
        let mut a = DensityMatrix::zero_state(1);
        a.apply_1q(0, &Mat::pauli_x());
        let b = DensityMatrix::zero_state(1);
        let ab = a.tensor(&b); // qubit 0 = |1>, qubit 1 = |0>
        assert!((ab.diagonal_prob(0b01) - 1.0).abs() < TOL);
        let ra = ab.partial_trace(&[0]);
        assert!((ra.diagonal_prob(1) - 1.0).abs() < TOL);
        let rb = ab.partial_trace(&[1]);
        assert!((rb.diagonal_prob(0) - 1.0).abs() < TOL);
    }

    #[test]
    fn tensor_trace_is_product_of_traces() {
        let a = DensityMatrix::maximally_mixed(1);
        let b = DensityMatrix::zero_state(2);
        let ab = a.tensor(&b);
        assert_eq!(ab.num_qubits(), 3);
        assert!(ab.trace().approx_eq(C64::ONE, TOL));
    }

    #[test]
    fn pauli_expectations_on_bell_state() {
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_1q(0, &Mat::hadamard());
        rho.apply_2q(0, 1, &Mat::cnot());
        // Φ+ stabilizers: XX = +1, ZZ = +1, YY = -1.
        assert!(rho.expectation_pauli(0b11, 0b00).approx_eq(C64::ONE, TOL));
        assert!(rho.expectation_pauli(0b00, 0b11).approx_eq(C64::ONE, TOL));
        assert!(rho.expectation_pauli(0b11, 0b11).approx_eq(-C64::ONE, TOL));
        // Single-qubit Z has zero expectation.
        assert!(rho.expectation_pauli(0b00, 0b01).approx_eq(C64::ZERO, TOL));
    }

    #[test]
    fn unitary_preserves_trace_and_purity() {
        let mut rho = DensityMatrix::zero_state(3);
        rho.apply_1q(0, &Mat::hadamard());
        rho.apply_1q(2, &Mat::t_gate());
        rho.apply_2q(0, 2, &Mat::cz());
        rho.apply_2q(2, 1, &Mat::cnot());
        assert!(rho.trace().approx_eq(C64::ONE, TOL));
        assert!((rho.purity() - 1.0).abs() < 1e-10);
        rho.validate(1e-10).unwrap();
    }

    #[test]
    fn swap_gate_exchanges_qubits() {
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_1q(0, &Mat::pauli_x());
        rho.apply_2q(0, 1, &Mat::swap());
        assert!((rho.diagonal_prob(0b10) - 1.0).abs() < TOL);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn two_qubit_gate_same_qubit_panics() {
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_2q(1, 1, &Mat::cnot());
    }

    #[test]
    fn diagonal_flag_is_set_only_by_construction() {
        assert!(DensityMatrix::zero_state(3).is_diagonal());
        assert!(DensityMatrix::maximally_mixed(3).is_diagonal());
        // Diagonal by value, but not known to be by construction.
        let one = [C64::ZERO, C64::ONE];
        assert!(!DensityMatrix::from_pure(&one).unwrap().is_diagonal());
        let mat = DensityMatrix::maximally_mixed(1).to_mat();
        assert!(!DensityMatrix::from_matrix(&mat).unwrap().is_diagonal());
        let a = DensityMatrix::zero_state(1);
        assert!(!a.tensor(&a).is_diagonal());
        assert!(!a.tensor(&a).partial_trace(&[0]).is_diagonal());
    }

    #[test]
    fn diagonal_flag_survives_classical_operations() {
        use crate::channels::{IdleParams, Kraus1, Kraus2};
        use crate::gates;
        use crate::measure::project_z;

        let idle = IdleParams::new(300e-6, 150e-6)
            .unwrap()
            .channel(40e-6)
            .unwrap();
        let mut rho = DensityMatrix::zero_state(4);
        gates::x(&mut rho, 0);
        gates::cnot(&mut rho, 0, 3);
        gates::swap(&mut rho, 3, 1);
        gates::z(&mut rho, 1);
        gates::s(&mut rho, 2);
        rho.apply_2q(2, 0, &Mat::iswap());
        idle.apply(&mut rho, 1);
        Kraus1::depolarizing(0.2).unwrap().apply(&mut rho, 2);
        Kraus2::depolarizing(0.1).unwrap().apply(&mut rho, 1, 3);
        let p = project_z(&mut rho, 1, true);
        rho.renormalize(p);
        assert!(rho.is_diagonal());
        rho.validate(TOL).unwrap();
    }

    #[test]
    fn diagonal_flag_is_cleared_by_every_other_write() {
        use crate::channels::Kraus2;
        use crate::gates;
        use crate::kernel::{ChannelKernel1, ChannelKernel2};

        type Op = fn(&mut DensityMatrix);
        let clearing: [(&str, Op); 9] = [
            ("entry_mut", |r| *r.entry_mut(0, 0) = C64::ONE),
            ("as_mut_slice", |r| r.as_mut_slice()[0] = C64::ONE),
            ("hadamard", |r| gates::h(r, 0)),
            // T is diagonal but not monomial: it takes the dense sweep.
            ("t gate", |r| gates::t(r, 1)),
            ("dense 2q", |r| {
                r.apply_2q(0, 1, &Mat::hadamard().kron(&Mat::hadamard()))
            }),
            ("coupled 1q kernel", |r| {
                ChannelKernel1::compile(&[Mat::hadamard()]).apply(r, 0)
            }),
            ("coherent 2q kernel", |r| {
                ChannelKernel2::compile(&[Mat::hadamard().kron(&Mat::identity(2))]).apply(r, 1, 0)
            }),
            ("2q kernel after dense", |r| {
                gates::h(r, 1);
                Kraus2::depolarizing(0.1).unwrap().apply(r, 1, 0);
            }),
            ("overflowing renormalize", |r| r.renormalize(1e-310)),
        ];
        for (name, op) in clearing {
            let mut rho = DensityMatrix::zero_state(2);
            op(&mut rho);
            assert!(!rho.is_diagonal(), "{name} kept the diagonal flag");
        }
    }

    #[test]
    fn equality_ignores_the_diagonal_flag() {
        let flagged = DensityMatrix::maximally_mixed(2);
        let mut plain = flagged.clone();
        let _ = plain.as_mut_slice();
        assert!(flagged.is_diagonal() && !plain.is_diagonal());
        assert!(flagged == plain);
        *plain.entry_mut(0, 1) = C64::real(1e-3);
        assert!(flagged != plain);
    }

    #[test]
    fn renormalize_restores_trace() {
        let mut rho = DensityMatrix::zero_state(1);
        for v in 0..2 {
            let e = rho.entry(v, v).scale(0.5);
            *rho.entry_mut(v, v) = e;
        }
        rho.renormalize(0.5);
        assert!(rho.trace().approx_eq(C64::ONE, TOL));
    }
}
