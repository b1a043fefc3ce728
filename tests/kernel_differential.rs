//! Differential property suite for the density-matrix kernels.
//!
//! - `Kraus1::apply` / `Kraus2::apply` (the `ChannelKernel` fast path) must
//!   match the testkit's Kraus-sum oracle (`apply_kraus_sum_1q/2q`) to
//!   float precision on random channels and random states.
//! - The kernels skip terms with an exactly-zero factor, which can change
//!   at most the sign of a zero. So `ChannelKernel*::compile` must equal a
//!   plain dense fold of the Kraus set exactly, and every apply must equal
//!   the dense contraction of that fold exactly (`==`, so `+0 == -0`).
//! - Unitary gates must equal the dense `Mat` product `U·ρ·U†`: exactly for
//!   monomial gates (one `±1`/`±i` entry per row and column), which are
//!   applied as index moves, and to 1e-12 for dense ones.
//!
//! The cross-model contract is closed by [`DiffOracle`]: its exact path
//! applies channels through the kernels, so the sampler and composed-error
//! models check the kernel output against independent physics.

use hetarch::qsim::channels::{IdleParams, Kraus1, Kraus2};
use hetarch::qsim::complex::C64;
use hetarch::qsim::kernel::{ChannelKernel1, ChannelKernel2};
use hetarch::qsim::matrix::Mat;
use hetarch::qsim::state::DensityMatrix;
use hetarch::qsim::{gates, measure};
use hetarch::testkit::prelude::*;
use proptest::prelude::*;

const TOL: f64 = 1e-12;

fn assert_states_close(kernel: &DensityMatrix, reference: &DensityMatrix) {
    assert_eq!(kernel.dim(), reference.dim());
    for (a, b) in kernel.as_slice().iter().zip(reference.as_slice()) {
        assert!(
            a.approx_eq(*b, TOL),
            "kernel {a} vs reference {b} (|Δ| = {:.3e})",
            (*a - *b).abs()
        );
    }
}

/// Entrywise `==` (so `+0 == -0`) between a state and an expected matrix.
fn assert_states_equal(got: &DensityMatrix, want: &[C64]) {
    assert_eq!(got.as_slice().len(), want.len());
    for (i, (a, b)) in got.as_slice().iter().zip(want).enumerate() {
        assert!(a == b, "entry {i}: got {a}, expected {b}");
    }
}

/// The `2^n × 2^n` operator of `u` acting on `qubits` (most significant
/// local bit first, so `[hi, lo]` for a two-qubit gate) and as the identity
/// on every other qubit.
fn embed(u: &Mat, qubits: &[usize], n: usize) -> Mat {
    let dim = 1usize << n;
    let support = qubits.iter().fold(0, |m, &q| m | 1 << q);
    let local = |b: usize| qubits.iter().fold(0, |acc, &q| (acc << 1) | (b >> q & 1));
    let mut full = Mat::zeros(dim, dim);
    for r in 0..dim {
        for c in 0..dim {
            if r & !support == c & !support {
                full[(r, c)] = u[(local(r), local(c))];
            }
        }
    }
    full
}

/// `U·ρ·U†` by dense `Mat` products. It is evaluated as `(U·(U·ρ)†)†`,
/// which has the same terms in the same order and conjugates each exactly,
/// so it is the same value; but both products have the sparse `U` on the
/// left, where `Mat`'s product skips zeros, which keeps n = 8 cheap.
fn dense_conjugation(u_full: &Mat, rho: &DensityMatrix) -> Mat {
    let left = u_full * &rho.to_mat();
    (u_full * &left.dagger()).dagger()
}

/// The superoperator `S[(i·d + j), (p·d + q)] = Σ_k K_k[i, p]·conj(K_k[j, q])`
/// of a `d×d` Kraus set, folded over every term with no skipping.
fn dense_fold(ops: &[Mat]) -> Vec<C64> {
    let d = ops[0].rows();
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

/// `ρ` with every local block `B` (local basis state `k` at index offset
/// `offsets[k]`) replaced by `S·vec(B)`. Each entry sums all `d²` terms in
/// ascending order from zero on split real/imaginary parts: the dense
/// contraction that the kernels' zero-skipping passes must reproduce.
fn dense_contraction(s: &[C64], offsets: &[usize], rho: &DensityMatrix) -> Vec<C64> {
    let d = offsets.len();
    let dd = d * d;
    let span = offsets.iter().fold(0, |m, &o| m | o);
    let dim = rho.dim();
    let src = rho.as_slice();
    let mut out = src.to_vec();
    for br in (0..dim).filter(|b| b & span == 0) {
        for bc in (0..dim).filter(|b| b & span == 0) {
            let idx: Vec<usize> = (0..dd)
                .map(|e| (br | offsets[e / d]) * dim + (bc | offsets[e % d]))
                .collect();
            for i in 0..dd {
                let (mut re, mut im) = (0.0f64, 0.0f64);
                for j in 0..dd {
                    let (w, b) = (s[i * dd + j], src[idx[j]]);
                    re += w.re * b.re - w.im * b.im;
                    im += w.re * b.im + w.im * b.re;
                }
                out[idx[i]] = C64::new(re, im);
            }
        }
    }
    out
}

/// A random monomial `d×d` matrix: a random permutation with a random
/// phase from {1, i, −1, −i} on each row.
fn monomial_strategy(d: usize) -> impl Strategy<Value = Mat> {
    let factorial = |k: usize| (1..=k).product::<usize>();
    (0..factorial(d), proptest::collection::vec(0usize..4, d)).prop_map(move |(code, phases)| {
        // Decode the permutation from its Lehmer code.
        let mut pool: Vec<usize> = (0..d).collect();
        let mut rest = code;
        let units = [C64::ONE, C64::I, -C64::ONE, -C64::I];
        let mut m = Mat::zeros(d, d);
        for (r, &k) in phases.iter().enumerate() {
            let f = factorial(d - 1 - r);
            m[(r, pool.remove(rest / f))] = units[k];
            rest %= f;
        }
        m
    })
}

/// A random mixed state on `n` qubits: random local rotations, an
/// entangling ladder, and a touch of depolarizing noise so the state has
/// full-rank support (pure states can hide errors in the zero block).
fn random_state(n: usize, angles: &[f64], noise: f64) -> DensityMatrix {
    let mut rho = DensityMatrix::zero_state(n);
    for (q, chunk) in angles.chunks(3).take(n).enumerate() {
        gates::rx(&mut rho, q, chunk[0]);
        gates::ry(&mut rho, q, chunk[1]);
        gates::rz(&mut rho, q, chunk[2]);
    }
    for q in 1..n {
        gates::cnot(&mut rho, q - 1, q);
    }
    let depol = Kraus1::depolarizing(noise).expect("valid probability");
    for q in 0..n {
        depol.apply(&mut rho, q);
    }
    rho
}

/// A random single-qubit CPTP channel assembled from the library primitives.
fn kraus1_strategy() -> impl Strategy<Value = Kraus1> {
    let primitive = (0u8..5, 0.0..0.9f64).prop_map(|(which, p)| match which {
        0 => Kraus1::depolarizing(p).unwrap(),
        1 => Kraus1::amplitude_damping(p).unwrap(),
        2 => Kraus1::phase_flip(p).unwrap(),
        3 => Kraus1::bit_flip(p).unwrap(),
        _ => IdleParams::new(300e-6, 150e-6)
            .unwrap()
            .channel(p * 100e-6)
            .unwrap(),
    });
    // `then` multiplies operator counts (up to 4 × 4 × 4 = 64 operators),
    // exactly the regime where the one-pass kernel pays off.
    proptest::collection::vec(primitive, 1..=3).prop_map(|chain| {
        chain
            .iter()
            .skip(1)
            .fold(chain[0].clone(), |acc, c| acc.then(c))
    })
}

/// A random two-qubit CPTP channel: either a tensor product of two
/// single-qubit channels (completeness is preserved by the Kronecker
/// product) or a two-qubit depolarizing channel.
fn kraus2_strategy() -> impl Strategy<Value = Kraus2> {
    prop_oneof![
        (kraus1_strategy(), kraus1_strategy()).prop_map(|(a, b)| {
            let mut ops = Vec::new();
            for ka in a.ops() {
                for kb in b.ops() {
                    ops.push(ka.kron(kb));
                }
            }
            Kraus2::new(ops).expect("kron of CPTP sets is CPTP")
        }),
        (0.0..0.9f64).prop_map(|p| Kraus2::depolarizing(p).unwrap()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tentpole property: the compiled superoperator path agrees with
    /// the Kraus-sum reference on every entry of the output state.
    fn kernel1_matches_reference(
        ch in kraus1_strategy(),
        angles in proptest::collection::vec(0.0..std::f64::consts::TAU, 9),
        noise in 0.0..0.2f64,
        q in 0usize..3,
    ) {
        let mut via_kernel = random_state(3, &angles, noise);
        let mut via_reference = via_kernel.clone();
        ch.apply(&mut via_kernel, q);
        apply_kraus_sum_1q(&ch, &mut via_reference, q);
        assert_states_close(&via_kernel, &via_reference);
    }

    fn kernel2_matches_reference(
        ch in kraus2_strategy(),
        angles in proptest::collection::vec(0.0..std::f64::consts::TAU, 12),
        noise in 0.0..0.2f64,
        pair in prop_oneof![Just((0usize, 1usize)), Just((3, 1)), Just((2, 0)), Just((1, 3))],
    ) {
        let mut via_kernel = random_state(4, &angles, noise);
        let mut via_reference = via_kernel.clone();
        ch.apply(&mut via_kernel, pair.0, pair.1);
        apply_kraus_sum_2q(&ch, &mut via_reference, pair.0, pair.1);
        assert_states_close(&via_kernel, &via_reference);
    }

    /// Compiling the same Kraus set twice yields identical kernels, and the
    /// lazily cached kernel inside the channel equals a fresh compile —
    /// the cache can never serve a stale or order-dependent result.
    fn kernel_compilation_is_deterministic(p in 0.0..1.0f64) {
        let ch1 = Kraus1::depolarizing(p).unwrap();
        prop_assert_eq!(*ch1.kernel(), ChannelKernel1::compile(ch1.ops()));
        let ch2 = Kraus2::depolarizing(p).unwrap();
        prop_assert_eq!(ch2.kernel().clone(), ChannelKernel2::compile(ch2.ops()));
    }

    /// The zero-skipping compile equals the plain dense fold entry for
    /// entry, and the two-qubit kernel keeps exactly the fold's non-zero
    /// entries.
    fn kernel_compile_matches_dense_fold(
        ch1 in kraus1_strategy(),
        ch2 in kraus2_strategy(),
    ) {
        let fold1 = dense_fold(ch1.ops());
        let kernel1 = ChannelKernel1::compile(ch1.ops());
        for (e, (a, b)) in kernel1.as_matrix().iter().zip(&fold1).enumerate() {
            prop_assert!(a == b, "S1 entry {}: compiled {} vs fold {}", e, a, b);
        }
        let fold2 = dense_fold(ch2.ops());
        let nonzero = fold2.iter().filter(|&&v| v != C64::ZERO).count();
        prop_assert_eq!(ChannelKernel2::compile(ch2.ops()).nnz(), nonzero);
    }

    /// Every channel apply equals the dense contraction of the folded
    /// superoperator exactly, on every qubit and ordered pair of two- to
    /// five-qubit states: all run lengths of the one-qubit pass, and both
    /// the one-block and the four-block two-qubit pass.
    fn kernel_apply_matches_dense_contraction(
        ch1 in kraus1_strategy(),
        ch2 in kraus2_strategy(),
        n in 2usize..=5,
        angles in proptest::collection::vec(0.0..std::f64::consts::TAU, 15),
        noise in 0.0..0.2f64,
    ) {
        let start = random_state(n, &angles, noise);
        let (fold1, fold2) = (dense_fold(ch1.ops()), dense_fold(ch2.ops()));
        for q in 0..n {
            let mut rho = start.clone();
            ch1.apply(&mut rho, q);
            assert_states_equal(&rho, &dense_contraction(&fold1, &[0, 1 << q], &start));
        }
        for hi in 0..n {
            for lo in (0..n).filter(|&lo| lo != hi) {
                let mut rho = start.clone();
                ch2.apply(&mut rho, hi, lo);
                let offsets = [0, 1 << lo, 1 << hi, (1 << hi) | (1 << lo)];
                assert_states_equal(&rho, &dense_contraction(&fold2, &offsets, &start));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random monomial gates (a random permutation times phases from
    /// {±1, ±i}) equal the dense product `U·ρ·U†` exactly on every qubit
    /// and every ordered pair of three- to eight-qubit states.
    fn monomial_gates_match_dense_product(
        u1 in monomial_strategy(2),
        u2 in monomial_strategy(4),
        n in 3usize..=8,
        angles in proptest::collection::vec(0.0..std::f64::consts::TAU, 24),
        noise in 0.0..0.2f64,
    ) {
        let start = random_state(n, &angles, noise);
        for q in 0..n {
            let mut rho = start.clone();
            rho.apply_conjugation_1q(q, &u1);
            let want = dense_conjugation(&embed(&u1, &[q], n), &start);
            assert_states_equal(&rho, want.as_slice());
        }
        for hi in 0..n {
            for lo in (0..n).filter(|&lo| lo != hi) {
                let mut rho = start.clone();
                rho.apply_conjugation_2q(hi, lo, &u2);
                let want = dense_conjugation(&embed(&u2, &[hi, lo], n), &start);
                assert_states_equal(&rho, want.as_slice());
            }
        }
    }
}

/// One step of a circuit on a state that starts diagonal. Qubit indices
/// are raw draws, reduced modulo the state's qubit count when applied.
#[derive(Clone, Debug)]
enum Step {
    /// A monomial gate: X, CNOT, SWAP and any other permutation with
    /// phases from {±1, ±i}.
    Monomial1(Mat, usize),
    Monomial2(Mat, usize, usize),
    /// A decoupled one-qubit channel.
    Channel1(Kraus1, usize),
    /// A two-qubit channel that keeps the diagonal: depolarizing, a Pauli
    /// channel, or a product of decoupled channels.
    Channel2(Kraus2, usize, usize),
    /// A Z measurement (`project_z` and `renormalize`) with a fixed uniform
    /// draw.
    Measure(usize, f64),
    /// Steps that create coherences and hand the state to the dense path.
    Unitary1(Mat, usize),
    Unitary2(Mat, usize, usize),
    Coupled1(Kraus1, usize),
    Coupled2(Kraus2, usize, usize),
}

/// A two-qubit Pauli channel `Σ p_ab · (P_a ⊗ P_b)·ρ·(P_a ⊗ P_b)†` with
/// random weights.
fn pauli2_strategy() -> impl Strategy<Value = Kraus2> {
    proptest::collection::vec(0.0..1.0f64, 16).prop_map(|w| {
        let total: f64 = w.iter().sum::<f64>().max(1e-9);
        let paulis = [
            Mat::identity(2),
            Mat::pauli_x(),
            Mat::pauli_y(),
            Mat::pauli_z(),
        ];
        let ops = (0..16)
            .map(|e| {
                paulis[e / 4]
                    .kron(&paulis[e % 4])
                    .scaled(C64::real((w[e] / total).sqrt()))
            })
            .collect();
        Kraus2::new(ops).expect("Pauli weights sum to one")
    })
}

/// Steps that map a diagonal state to a diagonal state.
fn diagonal_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (monomial_strategy(2), 0usize..8).prop_map(|(u, q)| Step::Monomial1(u, q)),
        (monomial_strategy(4), 0usize..8, 0usize..8).prop_map(|(u, a, b)| Step::Monomial2(u, a, b)),
        (kraus1_strategy(), 0usize..8).prop_map(|(ch, q)| Step::Channel1(ch, q)),
        (
            prop_oneof![kraus2_strategy(), pauli2_strategy()],
            0usize..8,
            0usize..8
        )
            .prop_map(|(ch, a, b)| Step::Channel2(ch, a, b)),
        (0usize..8, 0.0..1.0f64).prop_map(|(q, u)| Step::Measure(q, u)),
    ]
}

/// Steps that leave the diagonal: H, a rotation, H⊗I, or a channel whose
/// kernel is not decoupled or does not keep the diagonal.
fn coherent_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0usize..8).prop_map(|q| Step::Unitary1(Mat::hadamard(), q)),
        (0.1..3.0f64, 0usize..8).prop_map(|(t, q)| Step::Unitary1(Mat::ry(t), q)),
        (0usize..8, 0usize..8)
            .prop_map(|(a, b)| { Step::Unitary2(Mat::hadamard().kron(&Mat::identity(2)), a, b) }),
        (0.1..3.0f64, 0usize..8).prop_map(|(t, q)| {
            let ch = Kraus1::new(vec![Mat::rx(t)]).expect("unitary");
            Step::Coupled1(ch.then(&Kraus1::depolarizing(0.1).unwrap()), q)
        }),
        (0.1..3.0f64, 0usize..8, 0usize..8).prop_map(|(t, a, b)| {
            let u = Mat::ry(t).kron(&Mat::pauli_x());
            Step::Coupled2(Kraus2::new(vec![u]).expect("unitary"), a, b)
        }),
    ]
}

/// Applies `step` to `rho`. Two-qubit steps are skipped on one qubit.
fn apply_step(rho: &mut DensityMatrix, step: &Step) {
    let n = rho.num_qubits();
    let pair = |a: usize, b: usize| {
        let (hi, lo) = (a % n, b % n);
        (hi, if lo == hi { (hi + 1) % n } else { lo })
    };
    match step {
        Step::Monomial1(u, q) | Step::Unitary1(u, q) => rho.apply_conjugation_1q(q % n, u),
        Step::Channel1(ch, q) | Step::Coupled1(ch, q) => ch.apply(rho, q % n),
        Step::Monomial2(u, a, b) | Step::Unitary2(u, a, b) if n > 1 => {
            let (hi, lo) = pair(*a, *b);
            rho.apply_conjugation_2q(hi, lo, u);
        }
        Step::Channel2(ch, a, b) | Step::Coupled2(ch, a, b) if n > 1 => {
            let (hi, lo) = pair(*a, *b);
            ch.apply(rho, hi, lo);
        }
        Step::Measure(q, u) => {
            measure::measure_z_with(rho, q % n, *u);
        }
        _ => {}
    }
}

/// Runs `steps` from `start` twice: once as built, where the state is
/// known to be diagonal and the diagonal passes run until a step creates
/// coherences, and once on a copy whose diagonal flag was cleared through
/// `as_mut_slice`, so that every step takes the dense path. The two must
/// agree entry for entry (`==`, so `+0 == -0`).
fn assert_diagonal_path_matches_dense(start: &DensityMatrix, steps: &[Step]) {
    let mut fast = start.clone();
    let mut dense = start.clone();
    let _ = dense.as_mut_slice();
    for step in steps {
        apply_step(&mut fast, step);
        apply_step(&mut dense, step);
        assert_states_equal(&fast, dense.as_slice());
    }
}

/// A diagonal starting state: `|0…0⟩` or `I/2^n`, then X on the qubits in
/// `ones`.
fn diagonal_start(n: usize, mixed: bool, ones: usize) -> DensityMatrix {
    let mut rho = if mixed {
        DensityMatrix::maximally_mixed(n)
    } else {
        DensityMatrix::zero_state(n)
    };
    for q in (0..n).filter(|q| ones >> q & 1 == 1) {
        gates::x(&mut rho, q);
    }
    rho
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Classical-input circuits of monomial gates, decoupled one-qubit
    /// channels, diagonal-keeping two-qubit channels and Z measurements at
    /// n = 1..8: the diagonal passes equal the dense passes exactly.
    fn diagonal_paths_match_dense_paths(
        n in 1usize..=8,
        mixed in (0u8..2).prop_map(|m| m == 1),
        ones in 0usize..256,
        steps in proptest::collection::vec(diagonal_step(), 1..10),
    ) {
        assert_diagonal_path_matches_dense(&diagonal_start(n, mixed, ones), &steps);
    }

    /// A step that creates coherences part-way through hands the state to
    /// the dense path, and every later step stays on it.
    fn dense_handoff_matches_dense_paths(
        n in 1usize..=6,
        ones in 0usize..64,
        before in proptest::collection::vec(diagonal_step(), 0..5),
        handoff in coherent_step(),
        after in proptest::collection::vec(diagonal_step(), 0..5),
    ) {
        let steps: Vec<Step> = before.into_iter().chain([handoff]).chain(after).collect();
        assert_diagonal_path_matches_dense(&diagonal_start(n, false, ones), &steps);
    }
}

/// The USC weight-2 check on its four classical inputs: every step of the
/// five-qubit circuit, channels built from the library's noise models,
/// takes the diagonal passes and equals the dense passes exactly.
#[test]
fn usc_parity_circuit_matches_dense_paths() {
    let idle = IdleParams::new(300e-6, 150e-6)
        .unwrap()
        .channel(400e-9)
        .unwrap();
    let depol = Kraus2::depolarizing(0.01).unwrap();
    let mut steps = Vec::new();
    for (a, b) in [(0, 1), (2, 3), (1, 4), (3, 4), (0, 1), (2, 3)] {
        let gate = if b == 4 { Mat::cnot() } else { Mat::swap() };
        steps.push(Step::Monomial2(gate, a, b));
        steps.push(Step::Channel2(depol.clone(), a, b));
        steps.extend((0..5).map(|q| Step::Channel1(idle.clone(), q)));
    }
    steps.push(Step::Measure(4, 0.5));
    for input in 0..4 {
        assert_diagonal_path_matches_dense(
            &diagonal_start(5, false, (input & 1) | (input & 2) << 1),
            &steps,
        );
    }
}

/// Fixed rotation angles for `random_state` on `n` qubits.
fn fixed_angles(n: usize) -> Vec<f64> {
    (0..3 * n).map(|i| 0.11 + 0.37 * i as f64).collect()
}

/// A composite single-qubit channel with 32 Kraus operators.
fn composite_kraus1() -> Kraus1 {
    IdleParams::new(300e-6, 150e-6)
        .unwrap()
        .channel(40e-6)
        .unwrap()
        .then(&Kraus1::depolarizing(0.2).unwrap())
        .then(&Kraus1::amplitude_damping(0.3).unwrap())
}

/// The kernel path on every qubit of a six-qubit state, where the strides
/// of the high qubits exceed every stride the three-qubit property reaches.
#[test]
fn kernel1_matches_reference_on_every_qubit_of_six() {
    let ch = composite_kraus1();
    for q in 0..6 {
        let mut via_kernel = random_state(6, &fixed_angles(6), 0.05);
        let mut via_reference = via_kernel.clone();
        ch.apply(&mut via_kernel, q);
        apply_kraus_sum_1q(&ch, &mut via_reference, q);
        assert_states_close(&via_kernel, &via_reference);
    }
}

/// The two-qubit kernel path on far-apart and reversed pairs of an
/// eight-qubit state, for a product channel and two-qubit depolarizing.
#[test]
fn kernel2_matches_reference_on_far_pairs_of_eight() {
    let a = Kraus1::amplitude_damping(0.3).unwrap();
    let b = Kraus1::phase_flip(0.25).unwrap();
    let product = Kraus2::new(
        a.ops()
            .iter()
            .flat_map(|ka| b.ops().iter().map(move |kb| ka.kron(kb)))
            .collect(),
    )
    .expect("kron of CPTP sets is CPTP");
    let depol = Kraus2::depolarizing(0.3).unwrap();
    let start = random_state(8, &fixed_angles(8), 0.05);
    for ch in [&product, &depol] {
        for (hi, lo) in [(0, 7), (7, 0), (3, 5), (6, 2)] {
            let mut via_kernel = start.clone();
            let mut via_reference = start.clone();
            ch.apply(&mut via_kernel, hi, lo);
            apply_kraus_sum_2q(ch, &mut via_reference, hi, lo);
            assert_states_close(&via_kernel, &via_reference);
        }
    }
}

/// The named gates agree with the dense product `U·ρ·U†` on eight qubits:
/// exactly for the monomial ones (X, Y, Z, S, CNOT, CZ, SWAP), and to
/// 1e-12 for H and H⊗H, which take the dense sweep.
#[test]
fn gates_match_reference_on_eight_qubits() {
    let n = 8;
    let start = random_state(n, &fixed_angles(n), 0.05);
    type Gate1 = fn(&mut DensityMatrix, usize);
    type Gate2 = fn(&mut DensityMatrix, usize, usize);
    let monomial_1q: [(Gate1, Mat); 4] = [
        (gates::x, Mat::pauli_x()),
        (gates::y, Mat::pauli_y()),
        (gates::z, Mat::pauli_z()),
        (gates::s, Mat::s_gate()),
    ];
    let monomial_2q: [(Gate2, Mat); 3] = [
        (gates::cnot, Mat::cnot()),
        (gates::cz, Mat::cz()),
        (gates::swap, Mat::swap()),
    ];
    for q in 0..n {
        for (gate, u) in &monomial_1q {
            let mut rho = start.clone();
            gate(&mut rho, q);
            assert_states_equal(
                &rho,
                dense_conjugation(&embed(u, &[q], n), &start).as_slice(),
            );
        }
        let mut rho = start.clone();
        gates::h(&mut rho, q);
        let want = dense_conjugation(&embed(&Mat::hadamard(), &[q], n), &start);
        assert_states_close(
            &rho,
            &DensityMatrix::from_matrix(&want).expect("valid state"),
        );
    }
    let hh = Mat::hadamard().kron(&Mat::hadamard());
    for (hi, lo) in [(0, 7), (7, 0), (4, 3), (2, 6)] {
        for (gate, u) in &monomial_2q {
            let mut rho = start.clone();
            gate(&mut rho, hi, lo);
            let want = dense_conjugation(&embed(u, &[hi, lo], n), &start);
            assert_states_equal(&rho, want.as_slice());
        }
        let mut rho = start.clone();
        rho.apply_conjugation_2q(hi, lo, &hh);
        let want = dense_conjugation(&embed(&hh, &[hi, lo], n), &start);
        assert_states_close(
            &rho,
            &DensityMatrix::from_matrix(&want).expect("valid state"),
        );
    }
}

/// A trace-decreasing map (a measurement branch) round-trips through the
/// kernel identically to the reference: the kernel contract does not
/// assume CPTP completeness.
#[test]
fn kernel_handles_trace_decreasing_maps() {
    let p0 = Mat::from_reals(2, &[1.0, 0.0, 0.0, 0.0]);
    let kernel = ChannelKernel1::compile(std::slice::from_ref(&p0));
    let mut rho = DensityMatrix::zero_state(2);
    gates::h(&mut rho, 0);
    gates::cnot(&mut rho, 0, 1);
    kernel.apply(&mut rho, 0);
    // P0 ρ P0 on half of a Bell pair leaves weight 1/2 on |00><00|.
    assert!((measure::prob_one(&rho, 1) - 0.0).abs() < TOL);
    assert!((rho.trace().re - 0.5).abs() < TOL);
}

/// Cross-model closure: the differential oracle's exact path now routes
/// every depolarizing event through the compiled kernels, and the frame
/// sampler and composed-error model — neither of which knows about
/// superoperators — still agree with it.
#[test]
fn oracle_agrees_with_kernel_backed_exact_path() {
    let circuit = NoisyCircuit {
        num_qubits: 3,
        ops: vec![
            NoisyOp::H(0),
            NoisyOp::Depol(0, 0.11),
            NoisyOp::Cx(0, 1),
            NoisyOp::X(2),
            NoisyOp::Depol(1, 0.06),
            NoisyOp::Cx(1, 2),
            NoisyOp::Depol(2, 0.09),
        ],
    };
    DiffOracle::new(40_000, 29).assert_agrees(&circuit);
}
