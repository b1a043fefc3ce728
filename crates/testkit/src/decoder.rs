//! Decoder differential harness.
//!
//! The exhaustive [`LookupDecoder`] is the reference: it enumerates
//! minimum-weight corrections per syndrome, so on any error of weight up to
//! `⌊(d−1)/2⌋` its correction lands in the error's coset. The approximate
//! matching decoders ([`UnionFindDecoder`], `GreedyMatchingDecoder`) must
//! never do worse on those correctable errors, and must stay statistically
//! competitive on random errors.
//!
//! The harness works in the code-capacity setting: i.i.d. X errors on data
//! qubits of a CSS code, decoded from the Z-stabilizer syndrome. The
//! matching decoders see a [`MatchingGraph`] derived mechanically from the
//! code (one node per Z stabilizer, one edge per data qubit connecting the
//! stabilizers its X error flips, boundary edges for qubits on one
//! stabilizer, observable masks from the logical-Z support), so the same
//! construction serves the repetition code, the rotated surface code, and
//! any other CSS code.
//!
//! [`decode_reference`] is the original per-shot union-find decoder, the
//! bit-identity oracle for every production decode path (DESIGN.md §5k).
//! It is built from the [`MatchingGraph`] alone, with its own adjacency
//! and its own copy of the weight-to-length rule, so a change to the
//! production decoder's arrays cannot silently change the oracle.

use hetarch_stab::codes::StabilizerCode;
use hetarch_stab::decoder::{
    GreedyMatchingDecoder, LookupDecoder, MatchingGraph, UnionFindDecoder,
};
use hetarch_stab::pauli::{Pauli, PauliString};
use rand::rngs::StdRng;
use rand::Rng;

/// A code-capacity decoding setup for X errors on a CSS code.
pub struct CodeCapacity {
    code: StabilizerCode,
    graph: MatchingGraph,
    /// Indices into `code.stabilizers()` of the Z-type generators, in graph
    /// node order.
    z_stabs: Vec<usize>,
    /// Per data qubit: does an X error there flip logical Z?
    obs: Vec<bool>,
}

impl CodeCapacity {
    /// Derives the matching setup from `code`, weighting every edge with
    /// the physical error probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if the code is not CSS or an X error on some qubit flips more
    /// than two Z stabilizers (not a matchable code).
    pub fn new(code: StabilizerCode, p: f64) -> Self {
        assert!(code.is_css(), "code-capacity matching needs a CSS code");
        let n = code.num_qubits();
        // Z-type generators: no X support.
        let z_stabs: Vec<usize> = (0..code.stabilizers().len())
            .filter(|&i| {
                code.stabilizers()[i]
                    .iter_support()
                    .all(|(_, pauli)| pauli == Pauli::Z)
            })
            .collect();
        let mut graph = MatchingGraph::new(z_stabs.len());
        let mut obs = Vec::with_capacity(n);
        for q in 0..n {
            let x_q = PauliString::from_sparse(n, &[(q, Pauli::X)]);
            let flips_logical = !code.logical_z()[0].commutes_with(&x_q);
            obs.push(flips_logical);
            let touched: Vec<u32> = z_stabs
                .iter()
                .enumerate()
                .filter(|(_, &s)| !code.stabilizers()[s].commutes_with(&x_q))
                .map(|(node, _)| node as u32)
                .collect();
            let obs_mask = u64::from(flips_logical);
            match touched.as_slice() {
                [] => {} // X error invisible to Z stabilizers (not matchable).
                [u] => graph.add_edge(*u, None, p, obs_mask),
                [u, v] => graph.add_edge(*u, Some(*v), p, obs_mask),
                more => panic!("qubit {q} flips {} Z stabilizers, cannot match", more.len()),
            }
        }
        CodeCapacity {
            code,
            graph,
            z_stabs,
            obs,
        }
    }

    /// The underlying code.
    pub fn code(&self) -> &StabilizerCode {
        &self.code
    }

    /// The derived matching graph.
    pub fn graph(&self) -> &MatchingGraph {
        &self.graph
    }

    /// The X-error pattern's syndrome restricted to the graph's Z-stabilizer
    /// nodes.
    pub fn node_syndrome(&self, error: &PauliString) -> Vec<bool> {
        let full = self.code.syndrome_of(error);
        self.z_stabs.iter().map(|&s| full[s]).collect()
    }

    /// Whether `error` flips logical Z (the observable the matching
    /// decoders predict).
    pub fn actual_obs(&self, error: &PauliString) -> bool {
        !self.code.logical_z()[0].commutes_with(error)
    }

    /// Builds the X-error string for a set of qubits.
    pub fn x_error(&self, qubits: &[usize]) -> PauliString {
        let support: Vec<(usize, Pauli)> = qubits.iter().map(|&q| (q, Pauli::X)).collect();
        PauliString::from_sparse(self.code.num_qubits(), &support)
    }

    /// Samples an i.i.d. X-error pattern at rate `p`.
    pub fn sample_error(&self, p: f64, rng: &mut StdRng) -> PauliString {
        let qubits: Vec<usize> = (0..self.code.num_qubits())
            .filter(|_| rng.gen_bool(p))
            .collect();
        self.x_error(&qubits)
    }

    /// Per data qubit, whether its X error flips the logical observable.
    pub fn obs_flags(&self) -> &[bool] {
        &self.obs
    }
}

/// Outcome of decoding one error with all three decoders.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecodeOutcome {
    /// Did the lookup (reference) decoder leave a logical error?
    pub lookup_failed: bool,
    /// Did union-find mispredict the observable?
    pub unionfind_failed: bool,
    /// Did greedy matching mispredict the observable?
    pub greedy_failed: bool,
}

/// Decodes `error` with the exhaustive lookup decoder and both matching
/// decoders, reporting which of them left a logical error.
///
/// The lookup decoder's correction is applied and the residual classified
/// via [`StabilizerCode::is_logical_error`]; the matching decoders predict
/// the observable directly and are compared against the true observable
/// parity of `error`.
pub fn decode_all(
    setup: &CodeCapacity,
    lookup: &LookupDecoder,
    uf: &UnionFindDecoder,
    greedy: &GreedyMatchingDecoder,
    error: &PauliString,
) -> DecodeOutcome {
    let full_syndrome = setup.code.syndrome_of(error);
    let correction = lookup.decode(&full_syndrome);
    let residual = error.xor(&correction);
    debug_assert!(
        setup.code.in_normalizer(&residual),
        "lookup correction must clear the syndrome"
    );
    let lookup_failed = setup.code.is_logical_error(&residual);

    let node_syndrome = setup.node_syndrome(error);
    let actual = u64::from(setup.actual_obs(error));
    let uf_prediction = uf.decode(&node_syndrome);
    assert_eq!(
        uf_prediction,
        decode_reference(&setup.graph, &node_syndrome),
        "scratch union-find diverged from the reference decoder"
    );
    let unionfind_failed = uf_prediction & 1 != actual;
    let greedy_failed = greedy.decode(&node_syndrome) & 1 != actual;
    DecodeOutcome {
        lookup_failed,
        unionfind_failed,
        greedy_failed,
    }
}

/// Decodes every shot of a packed detector/observable table three ways —
/// per-shot [`decode_reference`], the dense scratch path through ONE
/// reused arena, and the sparse batch path of a [`UnionFindDecoder`] built
/// for `graph` — asserting the three agree bit for bit, then returns the
/// batch failure count.
///
/// This is the testkit face of the DESIGN.md §5k bit-identity contract.
pub fn assert_decode_paths_agree(
    graph: &MatchingGraph,
    detectors: &hetarch_stab::bits::BitTable,
    observables: &hetarch_stab::bits::BitTable,
) -> u64 {
    let reference_decoder = ReferenceDecoder::new(graph);
    let uf = UnionFindDecoder::new(graph);
    let shots = detectors.shots();
    let n = detectors.rows();
    let mut scratch = uf.new_scratch();
    let mut syndrome = vec![false; n];
    let mut reference_failed = Vec::with_capacity(shots);
    for shot in 0..shots {
        for (d, s) in syndrome.iter_mut().enumerate() {
            *s = detectors.get(d, shot);
        }
        let prediction = reference_decoder.decode(&syndrome);
        assert_eq!(
            uf.decode_with(&mut scratch, &syndrome),
            prediction,
            "scratch path diverged at shot {shot}"
        );
        reference_failed.push((prediction & 1 == 1) != observables.get(0, shot));
    }
    let mut batch_failures = 0u64;
    uf.decode_shots(
        &mut scratch,
        detectors,
        observables,
        0,
        0,
        shots,
        |shot, failed| {
            assert_eq!(
                failed, reference_failed[shot],
                "batch path diverged at shot {shot}"
            );
            if failed {
                batch_failures += 1;
            }
        },
    );
    assert_eq!(
        batch_failures,
        uf.count_failures(&mut scratch, detectors, observables, 0, 0, shots),
        "count_failures disagrees with decode_shots"
    );
    assert_eq!(
        batch_failures,
        reference_failed.iter().filter(|&&failed| failed).count() as u64
    );
    batch_failures
}

/// Decodes `syndrome` (one bool per node of `graph`) with the original
/// per-shot union-find decoder and returns the predicted observable mask.
///
/// Slow by design: it builds its adjacency and dense decode state fresh
/// per call. On a graph where an odd cluster cannot reach a boundary its
/// growth never ends; test graphs keep every component boundary-reachable.
///
/// # Panics
///
/// Panics if `syndrome.len()` differs from the graph's node count.
pub fn decode_reference(graph: &MatchingGraph, syndrome: &[bool]) -> u64 {
    ReferenceDecoder::new(graph).decode(syndrome)
}

/// One edge of the reference decoder.
#[derive(Clone, Copy, Debug)]
struct RefEdge {
    u: u32,
    v: Option<u32>,
    /// Integer growth length.
    len: u32,
    obs: u64,
}

/// The reference decoder's static view of a graph.
struct ReferenceDecoder {
    /// Incident edge indices per node, ascending.
    adjacency: Vec<Vec<u32>>,
    edges: Vec<RefEdge>,
}

impl ReferenceDecoder {
    fn new(graph: &MatchingGraph) -> Self {
        // Weights quantize to integer growth lengths: four steps per unit
        // of the smallest weight (floored at 1e-3), clamped to 1..=2^14.
        let min_w = graph
            .edges()
            .iter()
            .map(|e| e.weight())
            .fold(f64::INFINITY, f64::min)
            .max(1e-3);
        let edges: Vec<RefEdge> = graph
            .edges()
            .iter()
            .map(|e| RefEdge {
                u: e.u,
                v: e.v,
                len: ((e.weight() / min_w * 4.0).round() as u32).clamp(1, 1 << 14),
                obs: e.obs_mask,
            })
            .collect();
        let mut adjacency = vec![Vec::new(); graph.num_nodes()];
        for (i, e) in edges.iter().enumerate() {
            adjacency[e.u as usize].push(i as u32);
            if let Some(v) = e.v {
                adjacency[v as usize].push(i as u32);
            }
        }
        ReferenceDecoder { adjacency, edges }
    }

    fn decode(&self, syndrome: &[bool]) -> u64 {
        let n = self.adjacency.len();
        assert_eq!(syndrome.len(), n, "syndrome length mismatch");
        if syndrome.iter().all(|&s| !s) {
            return 0;
        }
        let mut state = DecodeState::new(n, self.edges.len());
        for (v, &s) in syndrome.iter().enumerate() {
            if s {
                state.parity[v] = 1;
                // Every defect node starts with its incident edges.
                state.frontier[v] = self.adjacency[v].clone();
            }
        }
        self.grow(&mut state);
        self.peel(&state, syndrome)
    }

    /// Growth: O(n) active-root scan per pass, `Vec` frontiers holding one
    /// entry per (node, edge) incidence, concatenated on union.
    fn grow(&self, state: &mut DecodeState) {
        let n = self.adjacency.len();
        loop {
            let active: Vec<usize> = (0..n)
                .filter(|&v| {
                    state.find(v) == v && state.parity[v] % 2 == 1 && !state.has_boundary[v]
                })
                .collect();
            if active.is_empty() {
                return;
            }
            let mut newly_grown: Vec<u32> = Vec::new();
            for root in active {
                // Re-fetch root (it may have been merged earlier this pass).
                let root = state.find(root);
                if state.parity[root].is_multiple_of(2) || state.has_boundary[root] {
                    continue;
                }
                let edges = std::mem::take(&mut state.frontier[root]);
                let mut keep = Vec::with_capacity(edges.len());
                for &ei in &edges {
                    if state.grown[ei as usize] {
                        continue;
                    }
                    state.support[ei as usize] += 1;
                    if state.support[ei as usize] >= self.edges[ei as usize].len {
                        state.grown[ei as usize] = true;
                        newly_grown.push(ei);
                    } else {
                        keep.push(ei);
                    }
                }
                let root_now = state.find(root);
                state.frontier[root_now].extend(keep);
            }
            for ei in newly_grown {
                let RefEdge { u, v, .. } = self.edges[ei as usize];
                let u = u as usize;
                let ru = state.find(u);
                let Some(v) = v else {
                    state.has_boundary[ru] = true;
                    continue;
                };
                let rv = state.find(v as usize);
                // Expand the frontier of whichever side is new.
                for node in [u, v as usize] {
                    let r = state.find(node);
                    if !state.visited[node] {
                        state.visited[node] = true;
                        let extra: Vec<u32> = self.adjacency[node]
                            .iter()
                            .copied()
                            .filter(|&x| !state.grown[x as usize])
                            .collect();
                        state.frontier[r].extend(extra);
                    }
                }
                if ru != rv {
                    state.union(ru, rv);
                }
            }
        }
    }

    /// Peeling with dense visited/marked/parent vectors: a BFS forest of
    /// grown edges seeded from grown boundary edges (ascending edge index),
    /// then from unvisited defects (ascending), discharged in reverse BFS
    /// order.
    fn peel(&self, state: &DecodeState, syndrome: &[bool]) -> u64 {
        let n = self.adjacency.len();
        let mut marked: Vec<bool> = syndrome.to_vec();
        let mut visited = vec![false; n];
        // parent[v] = (parent node or usize::MAX for boundary, edge).
        let mut parent: Vec<Option<(usize, u32)>> = vec![None; n];
        let mut order: Vec<usize> = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        for (ei, edge) in self.edges.iter().enumerate() {
            if state.grown[ei] && edge.v.is_none() {
                let u = edge.u as usize;
                if !visited[u] {
                    visited[u] = true;
                    parent[u] = Some((usize::MAX, ei as u32));
                    queue.push_back(u);
                }
            }
        }
        loop {
            while let Some(u) = queue.pop_front() {
                order.push(u);
                for &ei in &self.adjacency[u] {
                    let edge = self.edges[ei as usize];
                    let Some(v) = edge.v else { continue };
                    if !state.grown[ei as usize] {
                        continue;
                    }
                    let other = if edge.u as usize == u {
                        v as usize
                    } else {
                        edge.u as usize
                    };
                    if !visited[other] {
                        visited[other] = true;
                        parent[other] = Some((u, ei));
                        queue.push_back(other);
                    }
                }
            }
            if let Some(seed) = (0..n).find(|&v| !visited[v] && marked[v]) {
                visited[seed] = true;
                queue.push_back(seed);
            } else {
                break;
            }
        }
        let mut obs_mask = 0u64;
        for &u in order.iter().rev() {
            if !marked[u] {
                continue;
            }
            let Some((p, ei)) = parent[u] else {
                // A marked arbitrary root: parity leak (cannot happen on
                // valid even-parity clusters); leave undecoded.
                continue;
            };
            obs_mask ^= self.edges[ei as usize].obs;
            marked[u] = false;
            if p != usize::MAX {
                marked[p] = !marked[p];
            }
        }
        obs_mask
    }
}

/// Dense per-shot state of the reference decoder (allocated per call).
struct DecodeState {
    parent: Vec<u32>,
    parity: Vec<u32>,
    has_boundary: Vec<bool>,
    visited: Vec<bool>,
    frontier: Vec<Vec<u32>>,
    support: Vec<u32>,
    grown: Vec<bool>,
}

impl DecodeState {
    fn new(n: usize, m: usize) -> Self {
        DecodeState {
            parent: (0..n as u32).collect(),
            parity: vec![0; n],
            has_boundary: vec![false; n],
            visited: vec![false; n],
            frontier: vec![Vec::new(); n],
            support: vec![0; m],
            grown: vec![false; m],
        }
    }

    fn find(&mut self, v: usize) -> usize {
        let mut root = v;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        let mut cur = v;
        while self.parent[cur] as usize != cur {
            let next = self.parent[cur] as usize;
            self.parent[cur] = root as u32;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        // Merge smaller frontier into larger.
        let (big, small) = if self.frontier[ra].len() >= self.frontier[rb].len() {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big as u32;
        let moved = std::mem::take(&mut self.frontier[small]);
        self.frontier[big].extend(moved);
        self.parity[big] += self.parity[small];
        self.has_boundary[big] |= self.has_boundary[small];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetarch_stab::codes::{repetition_code, rotated_surface_code};

    fn decoders(setup: &CodeCapacity) -> (LookupDecoder, UnionFindDecoder, GreedyMatchingDecoder) {
        (
            LookupDecoder::new(setup.code(), setup.code().distance()),
            UnionFindDecoder::new(setup.graph()),
            GreedyMatchingDecoder::new(setup.graph()),
        )
    }

    #[test]
    fn repetition_graph_shape() {
        let setup = CodeCapacity::new(repetition_code(3), 0.05);
        // d=3 repetition: 2 Z stabilizers, 3 qubit edges (2 boundary).
        assert_eq!(setup.graph().num_nodes(), 2);
        assert_eq!(setup.graph().edges().len(), 3);
    }

    #[test]
    fn surface_graph_shape() {
        let setup = CodeCapacity::new(rotated_surface_code(3), 0.05);
        // d=3 rotated surface code: 4 Z stabilizers. 9 data qubits, but
        // parallel edges (same endpoints, same observable) merge: the two
        // boundary-qubit pairs on the logical-Z edge collapse, leaving 7.
        assert_eq!(setup.graph().num_nodes(), 4);
        assert_eq!(setup.graph().edges().len(), 7);
    }

    #[test]
    fn all_correctable_errors_decode_cleanly_on_both_codes() {
        for code in [repetition_code(3), rotated_surface_code(3)] {
            let setup = CodeCapacity::new(code, 0.05);
            let (lookup, uf, greedy) = decoders(&setup);
            let t = (setup.code().distance() - 1) / 2;
            // Exhaustive over weight 0..=t X errors.
            let n = setup.code().num_qubits();
            let mut patterns: Vec<Vec<usize>> = vec![vec![]];
            for _ in 0..t {
                patterns = patterns
                    .iter()
                    .flat_map(|p| {
                        (0..n).filter(move |q| !p.contains(q)).map(move |q| {
                            let mut ext = p.clone();
                            ext.push(q);
                            ext
                        })
                    })
                    .collect();
            }
            for qubits in [vec![]].into_iter().chain(patterns) {
                let error = setup.x_error(&qubits);
                let outcome = decode_all(&setup, &lookup, &uf, &greedy, &error);
                assert_eq!(
                    outcome,
                    DecodeOutcome {
                        lookup_failed: false,
                        unionfind_failed: false,
                        greedy_failed: false,
                    },
                    "{} qubits {qubits:?}",
                    setup.code().name()
                );
            }
        }
    }
}
