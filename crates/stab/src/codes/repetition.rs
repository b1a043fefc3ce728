//! The distance-`d` bit-flip repetition code.
//!
//! Not part of the paper's evaluation, but the canonical warm-up substrate:
//! its memory circuit and strip-shaped matching graph exercise the full
//! sampler → detector → decoder pipeline in a setting where exact answers
//! are computable by hand, which is how the decoder test-suites anchor
//! themselves.

use crate::circuit::Circuit;
use crate::codes::code::{typed_string, StabilizerCode};
use crate::decoder::graph::MatchingGraph;
use crate::pauli::Pauli;

/// The `[[d, 1, d]]`-against-X (distance 1 against Z) repetition code.
///
/// # Examples
///
/// ```
/// use hetarch_stab::codes::repetition_code;
/// let c = repetition_code(5);
/// assert_eq!(c.num_qubits(), 5);
/// assert_eq!(c.stabilizers().len(), 4);
/// ```
pub fn repetition_code(d: usize) -> StabilizerCode {
    assert!(d >= 2, "repetition code needs d >= 2");
    let mut stabs = Vec::new();
    for i in 0..d - 1 {
        stabs.push(typed_string(d, Pauli::Z, &[i, i + 1]));
    }
    let all: Vec<usize> = (0..d).collect();
    StabilizerCode::new(
        format!("Rep{d}"),
        d,
        1, // true distance against arbitrary noise (a single Z is logical)
        stabs,
        vec![typed_string(d, Pauli::X, &all)],
        vec![typed_string(d, Pauli::Z, &[0])],
    )
    .expect("repetition code is valid")
}

/// A `rounds`-round repetition-code memory circuit under bit-flip (`px`) and
/// measurement-flip noise, with detectors and the logical observable wired
/// like the surface-code memory.
///
/// Qubits `0..d` are data; `d..2d-1` are ancillas.
pub fn repetition_memory_circuit(d: usize, rounds: usize, px: f64, p_meas: f64) -> Circuit {
    assert!(d >= 2 && rounds >= 1);
    let n_anc = d - 1;
    let mut c = Circuit::new((d + n_anc) as u32);
    let data: Vec<u32> = (0..d as u32).collect();
    let anc: Vec<u32> = (d as u32..(d + n_anc) as u32).collect();
    let mut prev: Option<Vec<usize>> = None;
    for _ in 0..rounds {
        c.pauli_noise(
            crate::circuit::PauliErr {
                px,
                py: 0.0,
                pz: 0.0,
            },
            &data,
        );
        let left: Vec<(u32, u32)> = (0..n_anc).map(|i| (data[i], anc[i])).collect();
        let right: Vec<(u32, u32)> = (0..n_anc).map(|i| (data[i + 1], anc[i])).collect();
        c.cx(&left);
        c.cx(&right);
        let m = c.measure_reset(&anc, p_meas);
        for i in 0..n_anc {
            match &prev {
                None => {
                    c.detector(&[m[i]]);
                }
                Some(p) => {
                    c.detector(&[p[i], m[i]]);
                }
            }
        }
        prev = Some(m);
    }
    let fin = c.measure(&data, 0.0);
    let prev = prev.expect("at least one round");
    for i in 0..n_anc {
        c.detector(&[fin[i], fin[i + 1], prev[i]]);
    }
    c.observable(0, &[fin[0]]);
    c
}

/// The space-time matching graph for [`repetition_memory_circuit`].
pub fn repetition_matching_graph(d: usize, rounds: usize, px: f64, p_meas: f64) -> MatchingGraph {
    let n_anc = d - 1;
    let det_rounds = rounds + 1;
    let mut g = MatchingGraph::new(det_rounds * n_anc);
    let det = |t: usize, a: usize| (t * n_anc + a) as u32;
    for t in 0..det_rounds {
        // Space edges: data qubit i sits between ancillas i-1 and i.
        g.add_edge(det(t, 0), None, px, 1); // data 0: boundary, crosses obs
        for i in 1..d - 1 {
            g.add_edge(det(t, i - 1), Some(det(t, i)), px, 0);
        }
        g.add_edge(det(t, n_anc - 1), None, px, 0); // data d-1: boundary
    }
    for a in 0..n_anc {
        for t in 0..rounds {
            g.add_edge(det(t, a), Some(det(t + 1, a)), p_meas, 0);
        }
    }
    g
}

/// Monte-Carlo logical error rate of the repetition memory (per shot),
/// with detectors sampled on `pool`.
pub fn repetition_logical_error_rate(
    pool: &hetarch_exec::WorkerPool,
    d: usize,
    rounds: usize,
    px: f64,
    p_meas: f64,
    shots: usize,
    seed: u64,
) -> f64 {
    use crate::decoder::unionfind::UnionFindDecoder;
    use crate::detector::sample_detectors;
    let circuit = repetition_memory_circuit(d, rounds, px, p_meas);
    let graph = repetition_matching_graph(d, rounds, px, p_meas);
    debug_assert_eq!(graph.num_nodes(), circuit.num_detectors());
    let decoder = UnionFindDecoder::new(&graph);
    let samples = sample_detectors(pool, &circuit, shots, seed);
    let n_det = circuit.num_detectors();
    let mut failures = 0;
    let mut syn = vec![false; n_det];
    for shot in 0..shots {
        for (i, s) in syn.iter_mut().enumerate() {
            *s = samples.detectors.get(i, shot);
        }
        if (decoder.decode(&syn) & 1 == 1) != samples.observables.get(0, shot) {
            failures += 1;
        }
    }
    failures as f64 / shots as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::nondeterministic_detectors;
    use hetarch_exec::WorkerPool;

    #[test]
    fn code_parameters() {
        let c = repetition_code(7);
        assert!(c.is_css());
        // Distance against X errors is 7 (brute force over the Z-logical
        // coset is the X-side distance; overall distance is 1 via single Z).
        assert_eq!(c.brute_force_distance(), 1);
    }

    #[test]
    fn memory_circuit_is_well_formed() {
        let c = repetition_memory_circuit(5, 3, 0.01, 0.01);
        assert!(nondeterministic_detectors(&c).is_empty());
        assert_eq!(c.num_detectors(), 4 * (3 + 1));
        assert_eq!(
            repetition_matching_graph(5, 3, 0.01, 0.01).num_nodes(),
            c.num_detectors()
        );
    }

    #[test]
    fn below_threshold_scaling() {
        // The repetition code's threshold (with measurement noise) is ~10%;
        // at 2% the logical rate must fall sharply with d.
        let shots = 20_000;
        let p3 = repetition_logical_error_rate(&WorkerPool::new(4), 3, 3, 0.02, 0.02, shots, 1);
        let p7 = repetition_logical_error_rate(&WorkerPool::new(4), 7, 7, 0.02, 0.02, shots, 2);
        assert!(p7 < p3 / 2.0, "d=7 ({p7}) should be well below d=3 ({p3})");
    }

    #[test]
    fn noiseless_memory_is_perfect() {
        assert_eq!(
            repetition_logical_error_rate(&WorkerPool::new(4), 5, 5, 0.0, 0.0, 500, 3),
            0.0
        );
    }

    #[test]
    fn saturated_noise_randomizes() {
        let p = repetition_logical_error_rate(&WorkerPool::new(4), 3, 2, 0.5, 0.0, 20_000, 4);
        assert!((p - 0.5).abs() < 0.05, "rate {p}");
    }
}
