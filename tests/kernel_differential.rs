//! Differential property suite for the precompiled superoperator kernels:
//! `Kraus1::apply` / `Kraus2::apply` (the `ChannelKernel` fast path) must
//! match the Kraus-sum reference implementation (`apply_reference`) to
//! float precision on random channels and random states. The cross-model
//! contract is closed by [`DiffOracle`]: its exact path applies channels
//! through the kernels, so the sampler and composed-error models check the
//! kernel output against independent physics.

use hetarch::qsim::channels::{IdleParams, Kraus1, Kraus2};
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
        ch.apply_reference(&mut via_reference, q);
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
        ch.apply_reference(&mut via_reference, pair.0, pair.1);
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
        ch.apply_reference(&mut via_reference, q);
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
            ch.apply_reference(&mut via_reference, hi, lo);
            assert_states_close(&via_kernel, &via_reference);
        }
    }
}

/// The unitary gate path (`DensityMatrix::apply_1q`/`apply_2q`) agrees
/// with the Kraus-sum reference of the same unitary on eight qubits.
#[test]
fn gates_match_reference_on_eight_qubits() {
    let h = Kraus1::new(vec![Mat::hadamard()]).expect("unitary is CPTP");
    let cnot = Kraus2::new(vec![Mat::cnot()]).expect("unitary is CPTP");
    let start = random_state(8, &fixed_angles(8), 0.05);
    for q in 0..8 {
        let mut via_gate = start.clone();
        let mut via_reference = start.clone();
        gates::h(&mut via_gate, q);
        h.apply_reference(&mut via_reference, q);
        assert_states_close(&via_gate, &via_reference);
    }
    for (control, target) in [(0, 7), (7, 0), (4, 3), (2, 6)] {
        let mut via_gate = start.clone();
        let mut via_reference = start.clone();
        gates::cnot(&mut via_gate, control, target);
        cnot.apply_reference(&mut via_reference, control, target);
        assert_states_close(&via_gate, &via_reference);
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
