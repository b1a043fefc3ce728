//! Property-based tests for the stabilizer substrate.

use hetarch_stab::circuit::Circuit;
use hetarch_stab::codes::{color_17, reed_muller_15, rotated_surface_code, steane};
use hetarch_stab::decoder::graph::MatchingGraph;
use hetarch_stab::decoder::unionfind::UnionFindDecoder;
use hetarch_stab::detector::{nondeterministic_detectors, sample_detectors};
use hetarch_stab::pauli::{Pauli, PauliString};
use hetarch_stab::tableau::Tableau;
use proptest::prelude::*;

fn arb_pauli() -> impl Strategy<Value = Pauli> {
    prop_oneof![
        Just(Pauli::I),
        Just(Pauli::X),
        Just(Pauli::Y),
        Just(Pauli::Z),
    ]
}

fn arb_pauli_string(n: usize) -> impl Strategy<Value = PauliString> {
    proptest::collection::vec(arb_pauli(), n).prop_map(|ps| PauliString::from_paulis(&ps))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pauli strings form a group (up to phase): closure, identity,
    /// self-inverse, and xor-commutativity.
    #[test]
    fn pauli_xor_group_laws(a in arb_pauli_string(9), b in arb_pauli_string(9)) {
        let id = PauliString::identity(9);
        prop_assert_eq!(a.xor(&id), a.clone());
        prop_assert!(a.xor(&a).is_identity());
        prop_assert_eq!(a.xor(&b), b.xor(&a));
        // Weight is subadditive under products.
        prop_assert!(a.xor(&b).weight() <= a.weight() + b.weight());
    }

    /// Commutation is symmetric and respects products:
    /// if a,b both commute with c, then a·b commutes with c.
    #[test]
    fn commutation_algebra(
        a in arb_pauli_string(8),
        b in arb_pauli_string(8),
        c in arb_pauli_string(8),
    ) {
        prop_assert_eq!(a.commutes_with(&b), b.commutes_with(&a));
        if a.commutes_with(&c) && b.commutes_with(&c) {
            prop_assert!(a.xor(&b).commutes_with(&c));
        }
        // Anticommuting pairs: product anticommutes iff exactly one factor does.
        let ac = !a.commutes_with(&c);
        let bc = !b.commutes_with(&c);
        prop_assert_eq!(!a.xor(&b).commutes_with(&c), ac ^ bc);
    }

    /// Random Clifford circuits on the tableau keep measurement results
    /// repeatable (projective collapse).
    #[test]
    fn tableau_measurements_are_repeatable(ops in proptest::collection::vec((0u8..4, 0usize..5, 1usize..5), 1..40)) {
        let mut t = Tableau::new(5);
        for (kind, a, d) in ops {
            let b = (a + d) % 5;
            match kind {
                0 => t.h(a),
                1 => t.s(a),
                2 => if a != b { t.cx(a, b) },
                _ => t.x(a),
            }
        }
        for q in 0..5 {
            let first = t.measure_forced(q, true);
            prop_assert_eq!(t.measure_forced(q, false), first);
            prop_assert_eq!(t.prob_one(q), if first { 1.0 } else { 0.0 });
        }
    }

    /// Syndromes are linear: syndrome(a·b) = syndrome(a) XOR syndrome(b).
    #[test]
    fn syndrome_linearity(a in arb_pauli_string(7), b in arb_pauli_string(7)) {
        let code = steane();
        let sa = code.syndrome_of(&a);
        let sb = code.syndrome_of(&b);
        let sab = code.syndrome_of(&a.xor(&b));
        for i in 0..sa.len() {
            prop_assert_eq!(sab[i], sa[i] ^ sb[i]);
        }
    }

    /// Stabilizer-group elements never register as logical errors.
    #[test]
    fn stabilizer_products_are_trivial(mask in 0u32..(1 << 16)) {
        let code = color_17();
        let mut op = PauliString::identity(17);
        for (i, s) in code.stabilizers().iter().enumerate() {
            if (mask >> i) & 1 == 1 {
                op = op.xor(s);
            }
        }
        prop_assert!(code.in_normalizer(&op));
        prop_assert!(!code.is_logical_error(&op));
    }

    /// The union-find decoder corrects every error pattern of weight
    /// ≤ ⌊(d−1)/2⌋ on a repetition-code strip.
    #[test]
    fn union_find_corrects_below_half_distance(
        errs in proptest::collection::btree_set(0usize..11, 0..=5),
    ) {
        let d = 11;
        let mut g = MatchingGraph::new(d - 1);
        g.add_edge(0, None, 0.05, 1);
        for i in 0..d - 2 {
            g.add_edge(i as u32, Some(i as u32 + 1), 0.05, 0);
        }
        g.add_edge(d as u32 - 2, None, 0.05, 0);
        let dec = UnionFindDecoder::new(&g);
        // Apply errors on the strip's edges.
        let mut syn = vec![false; d - 1];
        let mut obs = 0u64;
        for &e in &errs {
            if e == 0 {
                syn[0] ^= true;
                obs ^= 1;
            } else if e == d - 1 {
                syn[d - 2] ^= true;
            } else {
                syn[e - 1] ^= true;
                syn[e] ^= true;
            }
        }
        let pred = dec.decode(&syn);
        prop_assert_eq!(pred, obs, "errors {:?}", errs);
    }
}

#[test]
fn surface_memory_detectors_deterministic_for_all_small_distances() {
    use hetarch_stab::codes::{SurfaceMemory, SurfaceNoise};
    for d in [2usize, 3, 4, 5] {
        let mem = SurfaceMemory::new(d, 2, SurfaceNoise::default());
        let c = mem.circuit();
        assert!(
            nondeterministic_detectors(&c).is_empty(),
            "d={d} has nondeterministic detectors"
        );
        assert_eq!(c.num_detectors(), mem.matching_graph().num_nodes(), "d={d}");
    }
}

#[test]
fn every_single_pauli_fault_fires_some_detector_or_is_harmless() {
    // In the d=3 memory circuit, inject a deterministic single X error on
    // each data qubit at the start and confirm the detectors see it.
    use hetarch_stab::circuit::PauliErr;
    use hetarch_stab::codes::{SurfaceLattice, SurfaceMemory, SurfaceNoise};
    let lat = SurfaceLattice::new(3);
    for q in 0..lat.num_data() as u32 {
        let mem = SurfaceMemory::new(
            3,
            2,
            SurfaceNoise {
                t_data: 1e6,
                t_anc: 1e6,
                p1: 0.0,
                p2: 0.0,
                p_meas: 0.0,
                ..SurfaceNoise::default()
            },
        );
        let mut c = Circuit::new(mem.circuit().num_qubits());
        c.pauli_noise(
            PauliErr {
                px: 1.0,
                py: 0.0,
                pz: 0.0,
            },
            &[q],
        );
        c.append(&mem.circuit());
        let s = sample_detectors(hetarch_exec::WorkerPool::global(), &c, 64, 1);
        let fired: usize = (0..c.num_detectors())
            .map(|d| usize::from(s.detectors.get(d, 0)))
            .sum();
        assert!(fired > 0, "X on data {q} fired no detectors");
        assert!(
            fired <= 2,
            "X on data {q} fired {fired} detectors (graphlike bound)"
        );
    }
}

#[test]
fn all_shipped_codes_have_declared_distance() {
    for code in [steane(), color_17(), reed_muller_15()] {
        assert_eq!(
            code.brute_force_distance(),
            code.distance(),
            "{}",
            code.name()
        );
    }
    for d in [2, 3, 4] {
        let code = rotated_surface_code(d);
        assert_eq!(code.brute_force_distance(), d);
    }
}
