//! Precompiled superoperator kernels for Kraus channel application.
//!
//! Applying a channel from its Kraus operators `{K_k}` costs one full clone
//! of the density matrix plus a left/right conjugation sweep *per operator*
//! — 16 clones and 32 sweeps for a two-qubit depolarizing channel. But the
//! channel itself is a fixed linear map on the local 2×2 (or 4×4) block:
//!
//! ```text
//! B ↦ Σ_k K_k B K_k†
//! ```
//!
//! [`ChannelKernel1`] and [`ChannelKernel2`] fold an entire Kraus set into
//! that single superoperator — a 4×4 (one qubit) or 16×16 (two qubits)
//! complex matrix acting on the vectorized block — compiled once and applied
//! in **one allocation-free pass** over the density matrix regardless of how
//! many Kraus operators the channel has.
//!
//! In the vectorization convention used here, `vec(B)[i·d + j] = B[i, j]`
//! (row-major, `d ∈ {2, 4}`), the superoperator entries are
//!
//! ```text
//! S[(i·d + j), (p·d + q)] = Σ_k K_k[i, p] · conj(K_k[j, q])
//! ```
//!
//! [`Kraus1`](crate::channels::Kraus1) and
//! [`Kraus2`](crate::channels::Kraus2) compile their kernel lazily behind a
//! `OnceLock` on first `apply`, so every consumer of the channel API gets
//! the fast path without code changes; the literal Kraus-sum loop, the
//! oracle the differential tests compare against, lives in
//! `hetarch-testkit`.
//!
//! Pauli-structured channels (depolarizing, Pauli twirls) produce
//! superoperators where 3/4 of the entries are exactly zero, so
//! [`ChannelKernel2`] stores a per-row compressed form and skips the zeros;
//! the summation order over the surviving entries is fixed (ascending column
//! index), keeping results deterministic.
//!
//! Both kernels store their coefficients **real/imag-split** (separate `f64`
//! slices instead of interleaved `C64`), so the contraction loops in
//! [`DensityMatrix`] are plain fused multiply-add chains over independent
//! `f64` lanes that LLVM autovectorizes. The split arithmetic
//! `acc_re += s_re·b_re − s_im·b_im; acc_im += s_re·b_im + s_im·b_re`
//! performs exactly the floating-point operations of the `C64` product in
//! the same order, so results are bit-identical to the interleaved form.
//!
//! Compilation also records each kernel's form: whether every coefficient
//! is real; for one qubit, whether the map keeps the block's diagonal and
//! off-diagonal pairs apart (*decoupled*); for two qubits, whether it keeps
//! a diagonal block diagonal. The apply passes are instantiated per form
//! and drop the terms that the form makes exactly zero, keeping every other
//! term's place in each entry's sum, so an entry can differ from the dense
//! contraction's only in the sign of a zero. On a state known to be
//! diagonal (see [`crate::state`]) the decoupled and diagonal-keeping forms
//! touch only the diagonal. Compilation itself skips products with an
//! exactly-zero Kraus factor on the same grounds.
//!
//! Every channel application is one `apply` on one state: callers that
//! push several states through a channel build the channel (and so compile
//! its kernel) once and apply it per state.

use hetarch_obs as obs;

use crate::complex::C64;
use crate::matrix::Mat;
use crate::state::DensityMatrix;

// Kernel cache behavior (no-ops unless the `obs` feature is on and
// `HETARCH_OBS=1`): one compile per distinct channel instance means the
// OnceLock caches are working; compiles tracking applies means someone is
// rebuilding channels in a hot loop.
static OBS_COMPILES: obs::Counter = obs::Counter::new("qsim.kernel.compiles");
static OBS_APPLIES: obs::Counter = obs::Counter::new("qsim.kernel.applies");

/// Precompiled single-qubit channel superoperator (4×4, dense).
///
/// # Examples
///
/// ```
/// use hetarch_qsim::channels::Kraus1;
/// use hetarch_qsim::complex::C64;
/// use hetarch_qsim::kernel::ChannelKernel1;
/// use hetarch_qsim::matrix::Mat;
/// use hetarch_qsim::state::DensityMatrix;
///
/// let depol = Kraus1::depolarizing(0.1).unwrap();
/// let kernel = ChannelKernel1::compile(depol.ops());
/// let mut rho = DensityMatrix::zero_state(2);
/// rho.apply_1q(0, &Mat::hadamard());
/// let mut via_kernel = rho.clone();
/// kernel.apply(&mut via_kernel, 0);
/// // The Kraus sum Σ_k K_k ρ K_k†, one conjugated copy per operator.
/// let mut via_kraus = vec![C64::ZERO; 16];
/// for k in depol.ops() {
///     let mut term = rho.clone();
///     term.apply_conjugation_1q(0, k);
///     for (acc, v) in via_kraus.iter_mut().zip(term.as_slice()) {
///         *acc += *v;
///     }
/// }
/// for (a, b) in via_kernel.as_slice().iter().zip(&via_kraus) {
///     assert!(a.approx_eq(*b, 1e-12));
/// }
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChannelKernel1 {
    s: [C64; 16],
    /// Real parts of `s`, split out so the apply loop autovectorizes.
    s_re: [f64; 16],
    /// Imaginary parts of `s`.
    s_im: [f64; 16],
    /// Every imaginary part is exactly zero.
    real: bool,
    /// Every entry `S[i, j]` with `i ^ j ∈ {1, 2}` is exactly zero: the map
    /// sends the block's diagonal pair `(B00, B11)` and its off-diagonal
    /// pair `(B01, B10)` to themselves. A Kraus set whose operators are each
    /// diagonal or anti-diagonal compiles to this form (damping, dephasing,
    /// Pauli and idle channels).
    decoupled: bool,
}

impl ChannelKernel1 {
    /// Compiles the superoperator for the Kraus set `ops`.
    ///
    /// Products with an exactly-zero Kraus factor are skipped: each would
    /// add `±0`, which changes at most the sign of a zero entry. The
    /// surviving products are summed over `ops` in order, as in the plain
    /// fold.
    ///
    /// # Panics
    ///
    /// Panics if any operator is not 2×2. Completeness is *not* required:
    /// the kernel is faithful to whatever linear map the operators define
    /// (trace-decreasing measurement branches included).
    pub fn compile(ops: &[Mat]) -> Self {
        OBS_COMPILES.inc();
        let mut s = [C64::ZERO; 16];
        for k in ops {
            assert_eq!((k.rows(), k.cols()), (2, 2), "expected 2x2 Kraus operators");
            fold_nonzero(&mut s, k.as_slice(), 2);
        }
        let s_re = s.map(|z| z.re);
        let s_im = s.map(|z| z.im);
        let real = s_im.iter().all(|&v| v == 0.0);
        let decoupled = (0..16).all(|e| !matches!((e / 4) ^ (e % 4), 1 | 2) || s[e] == C64::ZERO);
        ChannelKernel1 {
            s,
            s_re,
            s_im,
            real,
            decoupled,
        }
    }

    /// Applies the channel to qubit `q` of `rho` in one pass.
    pub fn apply(&self, rho: &mut DensityMatrix, q: usize) {
        OBS_APPLIES.inc();
        rho.apply_superop_1q(q, self);
    }

    /// The dense 4×4 superoperator, row-major in the vectorization
    /// convention of the module docs.
    pub fn as_matrix(&self) -> &[C64; 16] {
        &self.s
    }

    /// Real/imag-split views of the superoperator for the contraction loops.
    pub(crate) fn split(&self) -> (&[f64; 16], &[f64; 16]) {
        (&self.s_re, &self.s_im)
    }

    /// Whether every coefficient is real.
    pub(crate) fn is_real(&self) -> bool {
        self.real
    }

    /// Whether the map keeps the diagonal and off-diagonal pairs decoupled.
    pub(crate) fn is_decoupled(&self) -> bool {
        self.decoupled
    }
}

/// Adds `K[i, p] · conj(K[j, q])` to `S[(i·d + j), (p·d + q)]` for the
/// `d×d` Kraus operator `k`, skipping every product with an exactly-zero
/// factor.
fn fold_nonzero(s: &mut [C64], k: &[C64], d: usize) {
    for (ip, &a) in k.iter().enumerate() {
        if a == C64::ZERO {
            continue;
        }
        let (i, p) = (ip / d, ip % d);
        for (jq, &b) in k.iter().enumerate() {
            if b == C64::ZERO {
                continue;
            }
            let (j, q) = (jq / d, jq % d);
            s[(i * d + j) * d * d + (p * d + q)] += a * b.conj();
        }
    }
}

/// Precompiled two-qubit channel superoperator (16×16, stored per-row
/// compressed so exactly-zero entries — 3/4 of them for Pauli channels —
/// cost nothing at apply time).
#[derive(Clone, Debug, PartialEq)]
pub struct ChannelKernel2 {
    /// Number of non-zero entries in each superoperator row.
    nnz: [u8; 16],
    /// Column indices of the non-zero entries, ascending within each row.
    cols: [[u8; 16]; 16],
    /// Real parts of the values matching `cols` (split storage so the
    /// contraction is a flat `f64` multiply-add chain).
    vals_re: [[f64; 16]; 16],
    /// Imaginary parts of the values matching `cols`.
    vals_im: [[f64; 16]; 16],
    /// Every imaginary part is exactly zero.
    real: bool,
    /// No coefficient maps a diagonal block entry `B[p, p]` to an
    /// off-diagonal one `B[i, j]`, `i ≠ j`: the map sends a diagonal block
    /// to a diagonal block. Depolarizing, Pauli and product-of-decoupled
    /// channels compile to this form.
    keeps_diagonal: bool,
    /// Real parts of the diagonal-to-diagonal coefficients
    /// `S[(i·4 + i), (p·4 + p)]`, indexed `[i][p]`.
    diag_re: [[f64; 4]; 4],
    /// Imaginary parts of the diagonal-to-diagonal coefficients.
    diag_im: [[f64; 4]; 4],
}

impl ChannelKernel2 {
    /// Compiles the superoperator for the Kraus set `ops`, skipping
    /// products with an exactly-zero Kraus factor as
    /// [`ChannelKernel1::compile`] does.
    ///
    /// # Panics
    ///
    /// Panics if any operator is not 4×4. Completeness is not required.
    pub fn compile(ops: &[Mat]) -> Self {
        OBS_COMPILES.inc();
        let mut dense = [C64::ZERO; 256];
        for k in ops {
            assert_eq!((k.rows(), k.cols()), (4, 4), "expected 4x4 Kraus operators");
            fold_nonzero(&mut dense, k.as_slice(), 4);
        }
        let mut nnz = [0u8; 16];
        let mut cols = [[0u8; 16]; 16];
        let mut vals_re = [[0.0f64; 16]; 16];
        let mut vals_im = [[0.0f64; 16]; 16];
        for (r, row) in dense.chunks_exact(16).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                // Only exactly-zero entries are pruned (skipping `acc += 0·b`
                // cannot change any finite result), and the survivors keep
                // their ascending-column order, so the sparse apply computes
                // the same floats as the dense superoperator would.
                if v != C64::ZERO {
                    let n = nnz[r] as usize;
                    cols[r][n] = c as u8;
                    vals_re[r][n] = v.re;
                    vals_im[r][n] = v.im;
                    nnz[r] += 1;
                }
            }
        }
        let real = vals_im.iter().flatten().all(|&v| v == 0.0);
        let at = |i: usize, j: usize, p: usize, q: usize| dense[(i * 4 + j) * 16 + p * 4 + q];
        let keeps_diagonal = (0..64).all(|e| {
            let (i, j, p) = (e / 16, e / 4 % 4, e % 4);
            i == j || at(i, j, p, p) == C64::ZERO
        });
        let diag_re = std::array::from_fn(|i| std::array::from_fn(|p| at(i, i, p, p).re));
        let diag_im = std::array::from_fn(|i| std::array::from_fn(|p| at(i, i, p, p).im));
        ChannelKernel2 {
            nnz,
            cols,
            vals_re,
            vals_im,
            real,
            keeps_diagonal,
            diag_re,
            diag_im,
        }
    }

    /// Applies the channel to qubits `(q_hi, q_lo)` of `rho` in one pass.
    pub fn apply(&self, rho: &mut DensityMatrix, q_hi: usize, q_lo: usize) {
        OBS_APPLIES.inc();
        rho.apply_superop_2q(q_hi, q_lo, self);
    }

    /// Compressed-row views `(nnz, cols, vals_re, vals_im)` for the
    /// contraction loops.
    #[allow(clippy::type_complexity)]
    pub(crate) fn rows(
        &self,
    ) -> (
        &[u8; 16],
        &[[u8; 16]; 16],
        &[[f64; 16]; 16],
        &[[f64; 16]; 16],
    ) {
        (&self.nnz, &self.cols, &self.vals_re, &self.vals_im)
    }

    /// Whether every coefficient is real.
    pub(crate) fn is_real(&self) -> bool {
        self.real
    }

    /// Whether the map sends diagonal blocks to diagonal blocks.
    pub(crate) fn keeps_diagonal(&self) -> bool {
        self.keeps_diagonal
    }

    /// Real/imag-split diagonal-to-diagonal coefficients
    /// `S[(i·4 + i), (p·4 + p)]`, indexed `[i][p]`, for the diagonal-state
    /// pass.
    pub(crate) fn diagonal_block(&self) -> (&[[f64; 4]; 4], &[[f64; 4]; 4]) {
        (&self.diag_re, &self.diag_im)
    }

    /// Total non-zero superoperator entries (≤ 256); Pauli channels compile
    /// to ≤ 64 (28 for uniform depolarizing, whose equal Pauli weights
    /// cancel exactly).
    pub fn nnz(&self) -> usize {
        self.nnz.iter().map(|&n| n as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channels::{IdleParams, Kraus1, Kraus2};

    const TOL: f64 = 1e-13;

    /// The literal Kraus sum `Σ_k K_k ρ K_k†` over a one-qubit (`qubits =
    /// [q]`) or two-qubit (`[hi, lo]`) Kraus set, one conjugated copy per
    /// operator; `hetarch-testkit` holds the public form of this oracle.
    fn kraus_sum(ops: &[Mat], rho: &mut DensityMatrix, qubits: &[usize]) {
        let original = rho.clone();
        let mut sum = vec![C64::ZERO; original.as_slice().len()];
        for k in ops {
            let mut term = original.clone();
            match *qubits {
                [q] => term.apply_conjugation_1q(q, k),
                [hi, lo] => term.apply_conjugation_2q(hi, lo, k),
                _ => unreachable!("one or two qubits"),
            }
            for (acc, v) in sum.iter_mut().zip(term.as_slice()) {
                *acc += *v;
            }
        }
        rho.as_mut_slice().copy_from_slice(&sum);
    }

    fn assert_states_close(a: &DensityMatrix, b: &DensityMatrix, tol: f64) {
        assert_eq!(a.dim(), b.dim());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!(x.approx_eq(*y, tol), "{x} vs {y}");
        }
    }

    fn entangled_state(n: usize) -> DensityMatrix {
        let mut rho = DensityMatrix::zero_state(n);
        crate::gates::h(&mut rho, 0);
        for q in 1..n {
            crate::gates::cnot(&mut rho, q - 1, q);
        }
        crate::gates::t(&mut rho, n - 1);
        rho
    }

    #[test]
    fn identity_kernel_is_identity() {
        let kernel = ChannelKernel1::compile(Kraus1::identity().ops());
        let mut rho = entangled_state(3);
        let before = rho.clone();
        kernel.apply(&mut rho, 1);
        assert_states_close(&rho, &before, TOL);
    }

    #[test]
    fn kernel1_matches_reference_on_idle_channel() {
        // amplitude damping ∘ dephasing: 4 Kraus operators, dense superop.
        let ch = IdleParams::new(300e-6, 200e-6)
            .unwrap()
            .channel(40e-6)
            .unwrap();
        let kernel = ChannelKernel1::compile(ch.ops());
        for q in 0..3 {
            let mut a = entangled_state(3);
            let mut b = a.clone();
            kernel.apply(&mut a, q);
            kraus_sum(ch.ops(), &mut b, &[q]);
            assert_states_close(&a, &b, TOL);
        }
    }

    #[test]
    fn kernel2_matches_reference_on_depolarizing() {
        let ch = Kraus2::depolarizing(0.07).unwrap();
        let kernel = ChannelKernel2::compile(ch.ops());
        for (hi, lo) in [(0usize, 1usize), (2, 0), (1, 2)] {
            let mut a = entangled_state(3);
            let mut b = a.clone();
            kernel.apply(&mut a, hi, lo);
            kraus_sum(ch.ops(), &mut b, &[hi, lo]);
            assert_states_close(&a, &b, TOL);
        }
    }

    #[test]
    fn pauli_channel_kernel_is_three_quarters_sparse() {
        // The uniform depolarizing channel is sparser still than a generic
        // Pauli channel (≤ 64 entries): equal X/Y/Z weights cancel exactly,
        // leaving aδ_ip δ_jq + bδ_ij δ_pq = 16 + 16 − 4 entries.
        let kernel = ChannelKernel2::compile(Kraus2::depolarizing(0.2).unwrap().ops());
        assert_eq!(kernel.nnz(), 28);
        // A Hadamard ⊗ Hadamard conjugation has no zero matrix entries, so
        // its superoperator is fully dense.
        let hh = Mat::hadamard().kron(&Mat::hadamard());
        assert_eq!(
            ChannelKernel2::compile(std::slice::from_ref(&hh)).nnz(),
            256
        );
    }

    #[test]
    fn kernel_preserves_trace_of_cptp_channel() {
        let ch = Kraus2::depolarizing(0.3).unwrap();
        let kernel = ChannelKernel2::compile(ch.ops());
        let mut rho = entangled_state(4);
        kernel.apply(&mut rho, 3, 1);
        assert!(rho.trace().approx_eq(C64::ONE, 1e-12));
        rho.validate(1e-10).unwrap();
    }

    /// `S[(i·d + j), (p·d + q)] = Σ_k K_k[i, p]·conj(K_k[j, q])` over every
    /// term, zero factors included.
    fn dense_fold(ops: &[Mat], d: usize) -> Vec<C64> {
        let mut s = vec![C64::ZERO; d.pow(4)];
        for k in ops {
            for i in 0..d {
                for j in 0..d {
                    for p in 0..d {
                        for q in 0..d {
                            s[(i * d + j) * d * d + p * d + q] += k[(i, p)] * k[(j, q)].conj();
                        }
                    }
                }
            }
        }
        s
    }

    #[test]
    fn compile_matches_dense_fold() {
        let idle = IdleParams::new(300e-6, 150e-6)
            .unwrap()
            .channel(40e-6)
            .unwrap();
        let depol = Kraus1::depolarizing(0.1).unwrap();
        let flip = Kraus1::bit_flip(0.2).unwrap();
        let ones = [
            depol.clone(),
            idle.clone(),
            flip.clone(),
            idle.then(&depol).then(&flip),
            Kraus1::new(vec![Mat::hadamard()]).unwrap(),
        ];
        for ch in &ones {
            let kernel = ChannelKernel1::compile(ch.ops());
            // `==` counts +0 and −0 as equal, the only difference the
            // skipped zero-factor products can make.
            assert!(kernel.as_matrix().iter().eq(dense_fold(ch.ops(), 2).iter()));
        }
        let kron = |a: &Kraus1, b: &Kraus1| -> Vec<Mat> {
            a.ops()
                .iter()
                .flat_map(|ka| b.ops().iter().map(move |kb| ka.kron(kb)))
                .collect()
        };
        let twos = [
            Kraus2::depolarizing(0.07).unwrap().ops().to_vec(),
            kron(&idle, &flip),
            kron(&idle.then(&depol), &idle),
            vec![Mat::hadamard().kron(&Mat::hadamard())],
        ];
        for ops in &twos {
            let fold = dense_fold(ops, 4);
            let kernel = ChannelKernel2::compile(ops);
            let (nnz, cols, vals_re, vals_im) = kernel.rows();
            for r in 0..16 {
                let row = &fold[r * 16..(r + 1) * 16];
                let want: Vec<usize> = (0..16).filter(|&c| row[c] != C64::ZERO).collect();
                let n = nnz[r] as usize;
                let got: Vec<usize> = cols[r][..n].iter().map(|&c| c as usize).collect();
                assert_eq!(got, want, "row {r} column list");
                for (t, &c) in want.iter().enumerate() {
                    assert!(C64::new(vals_re[r][t], vals_im[r][t]) == row[c]);
                }
            }
        }
    }

    #[test]
    fn noise_kernels_take_the_real_decoupled_pass() {
        let idle = IdleParams::new(300e-6, 150e-6)
            .unwrap()
            .channel(40e-6)
            .unwrap();
        for ch in [
            idle,
            Kraus1::depolarizing(0.1).unwrap(),
            Kraus1::bit_flip(0.2).unwrap(),
        ] {
            assert!(ch.kernel().is_real() && ch.kernel().is_decoupled());
        }
        // S = diag(1, i) is decoupled but complex; H mixes the two pairs.
        let s_gate = ChannelKernel1::compile(&[Mat::s_gate()]);
        assert!(!s_gate.is_real() && s_gate.is_decoupled());
        let h = ChannelKernel1::compile(&[Mat::hadamard()]);
        assert!(h.is_real() && !h.is_decoupled());
        assert!(Kraus2::depolarizing(0.07).unwrap().kernel().is_real());
        assert!(!ChannelKernel2::compile(&[Mat::iswap()]).is_real());
        // Pauli channels, products of decoupled channels and monomial
        // unitaries keep a diagonal block diagonal; H ⊗ I does not.
        let idle = IdleParams::new(300e-6, 150e-6)
            .unwrap()
            .channel(40e-6)
            .unwrap();
        let product: Vec<Mat> = idle
            .ops()
            .iter()
            .flat_map(|a| idle.ops().iter().map(move |b| a.kron(b)))
            .collect();
        for ops in [
            Kraus2::depolarizing(0.07).unwrap().ops().to_vec(),
            product,
            vec![Mat::iswap()],
        ] {
            assert!(ChannelKernel2::compile(&ops).keeps_diagonal());
        }
        let h_i = Mat::hadamard().kron(&Mat::identity(2));
        assert!(!ChannelKernel2::compile(&[h_i]).keeps_diagonal());
    }

    #[test]
    fn trace_decreasing_sets_compile() {
        // A single measurement branch |0><0| is a valid (non-CPTP-complete)
        // kernel: the map B ↦ P0 B P0.
        let p0 = Mat::from_reals(2, &[1.0, 0.0, 0.0, 0.0]);
        let kernel = ChannelKernel1::compile(std::slice::from_ref(&p0));
        let mut rho = DensityMatrix::maximally_mixed(1);
        kernel.apply(&mut rho, 0);
        assert!((rho.diagonal_prob(0) - 0.5).abs() < TOL);
        assert!((rho.diagonal_prob(1)).abs() < TOL);
    }
}
