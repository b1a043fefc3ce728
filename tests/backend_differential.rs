//! Differential property suite for the density-matrix apply path: per-state
//! `Kraus1::apply`/`Kraus2::apply` (the compiled superoperator kernels) must
//! agree with the Kraus-sum reference (`apply_reference`) to ≤1e-12 on
//! random CPTP channels and random mixed states.
//!
//! Per-state `apply` is the only channel-apply path; the lane-blocked batch
//! path and its batch-vs-per-state bitwise comparisons were removed together.
//!
//! The suite closes the contract at the module layer too:
//! `DistillModule::run_batch_on` (whose DEJMPS table and pair states ride
//! the kernel path) must stay worker-count invariant, and the
//! cross-simulator [`DiffOracle`] must pass on the exact path.

use hetarch::modules::distill::{DistillConfig, DistillModule};
use hetarch::qsim::channels::{IdleParams, Kraus1, Kraus2};
use hetarch::qsim::gates;
use hetarch::qsim::state::DensityMatrix;
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

/// A random mixed state on `n` qubits (same construction as the kernel
/// differential suite): random local rotations, an entangling ladder, and a
/// touch of depolarizing noise so the state has full-rank support.
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
    proptest::collection::vec(primitive, 1..=3).prop_map(|chain| {
        chain
            .iter()
            .skip(1)
            .fold(chain[0].clone(), |acc, c| acc.then(c))
    })
}

/// A random two-qubit CPTP channel: a tensor product of two single-qubit
/// channels or a two-qubit depolarizing channel.
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

    /// Single-qubit channels on 3-qubit states: `apply` agrees with the
    /// Kraus-sum reference to ≤1e-12.
    fn apply_1q_matches_reference(
        ch in kraus1_strategy(),
        angles in proptest::collection::vec(0.0..std::f64::consts::TAU, 9),
        noise in 0.0..0.2f64,
        q in 0usize..3,
    ) {
        let mut via_kernel = random_state(3, &angles, noise);
        ch.apply(&mut via_kernel, q);
        let mut via_reference = random_state(3, &angles, noise);
        ch.apply_reference(&mut via_reference, q);
        assert_states_close(&via_kernel, &via_reference);
    }

    /// The same property for two-qubit channels on 4-qubit states, over
    /// ordered and reversed qubit pairs.
    fn apply_2q_matches_reference(
        ch in kraus2_strategy(),
        angles in proptest::collection::vec(0.0..std::f64::consts::TAU, 12),
        noise in 0.0..0.2f64,
        pair in prop_oneof![Just((0usize, 1usize)), Just((3, 1)), Just((2, 0)), Just((1, 3))],
    ) {
        let mut via_kernel = random_state(4, &angles, noise);
        ch.apply(&mut via_kernel, pair.0, pair.1);
        let mut via_reference = random_state(4, &angles, noise);
        ch.apply_reference(&mut via_reference, pair.0, pair.1);
        assert_states_close(&via_kernel, &via_reference);
    }
}

/// The module-layer closure: `DistillModule::run_batch_on` threads its pair
/// states and DEJMPS lookup table through the kernel apply path, and the
/// result must stay bit-identical across worker counts — the pool decides
/// where a trial runs, never what it computes.
#[test]
fn distill_batch_reports_are_worker_count_invariant() {
    use hetarch::exec::WorkerPool;
    let mut config = DistillConfig::heterogeneous(2.5e-3, 1e6, 7);
    config.seed = 7;
    let module = DistillModule::new(config);
    let one = module.run_batch_on(&WorkerPool::new(1), 500e-6, 6);
    for workers in [2, 8] {
        let many = module.run_batch_on(&WorkerPool::new(workers), 500e-6, 6);
        // DistillReport: PartialEq over every field, floats included.
        assert_eq!(one, many, "worker count {workers} changed the reports");
    }
}

/// Cross-model closure: the sampler and composed-error models agree with
/// the exact density-matrix path.
#[test]
fn oracle_agrees_with_exact_path() {
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
