//! Greedy minimum-weight matching decoder.
//!
//! A common accuracy baseline between union-find and full MWPM: compute
//! shortest-path distances between defects (Dijkstra over the matching
//! graph, boundary included), then greedily pair the closest defects. Used
//! in the decoder ablation benches; union-find remains the production
//! decoder (near-identical accuracy, much better scaling).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::decoder::graph::{CsrAdjacency, MatchingGraph};

/// A greedy-matching decoder prebuilt for one matching graph.
///
/// Stores the CSR adjacency and per-edge data it needs rather than a clone
/// of the whole [`MatchingGraph`].
#[derive(Clone, Debug)]
pub struct GreedyMatchingDecoder {
    num_nodes: usize,
    adjacency: CsrAdjacency,
    /// Per-edge (u, v-or-MAX, weight, obs_mask), mirroring the graph's
    /// edge order.
    edge_u: Vec<u32>,
    edge_v: Vec<u32>,
    weights: Vec<f64>,
    edge_obs: Vec<u64>,
}

/// Boundary sentinel in `edge_v`.
const NO_NODE: u32 = u32::MAX;

#[derive(Clone, Copy, PartialEq)]
struct QItem {
    dist: f64,
    node: usize,
}
impl Eq for QItem {}
impl Ord for QItem {
    fn cmp(&self, other: &Self) -> Ordering {
        other.dist.total_cmp(&self.dist) // min-heap
    }
}
impl PartialOrd for QItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl GreedyMatchingDecoder {
    /// Builds the decoder.
    pub fn new(graph: &MatchingGraph) -> Self {
        GreedyMatchingDecoder {
            num_nodes: graph.num_nodes(),
            adjacency: graph.csr_adjacency(),
            edge_u: graph.edges().iter().map(|e| e.u).collect(),
            edge_v: graph
                .edges()
                .iter()
                .map(|e| e.v.unwrap_or(NO_NODE))
                .collect(),
            weights: graph.edges().iter().map(|e| e.weight()).collect(),
            edge_obs: graph.edges().iter().map(|e| e.obs_mask).collect(),
        }
    }

    /// Dijkstra from `src` over edge weights; returns per-node distance and
    /// the observable parity accumulated along the shortest path, plus the
    /// best distance/parity to the boundary.
    fn shortest_paths(&self, src: usize) -> (Vec<f64>, Vec<u64>, f64, u64) {
        let n = self.num_nodes;
        let mut dist = vec![f64::INFINITY; n];
        let mut obs = vec![0u64; n];
        let mut boundary = (f64::INFINITY, 0u64);
        let mut heap = BinaryHeap::new();
        dist[src] = 0.0;
        heap.push(QItem {
            dist: 0.0,
            node: src,
        });
        while let Some(QItem { dist: d, node }) = heap.pop() {
            if d > dist[node] {
                continue;
            }
            for &ei in self.adjacency.incident(node) {
                let ei = ei as usize;
                let w = self.weights[ei];
                let v = self.edge_v[ei];
                if v == NO_NODE {
                    let nd = d + w;
                    if nd < boundary.0 {
                        boundary = (nd, obs[node] ^ self.edge_obs[ei]);
                    }
                } else {
                    let other = if self.edge_u[ei] as usize == node {
                        v as usize
                    } else {
                        self.edge_u[ei] as usize
                    };
                    let nd = d + w;
                    if nd < dist[other] {
                        dist[other] = nd;
                        obs[other] = obs[node] ^ self.edge_obs[ei];
                        heap.push(QItem {
                            dist: nd,
                            node: other,
                        });
                    }
                }
            }
        }
        (dist, obs, boundary.0, boundary.1)
    }

    /// Decodes a syndrome, returning the predicted observable-flip mask.
    ///
    /// # Panics
    ///
    /// Panics if the syndrome length mismatches the graph.
    pub fn decode(&self, syndrome: &[bool]) -> u64 {
        assert_eq!(syndrome.len(), self.num_nodes, "syndrome length");
        let defects: Vec<usize> = syndrome
            .iter()
            .enumerate()
            .filter_map(|(i, &s)| s.then_some(i))
            .collect();
        if defects.is_empty() {
            return 0;
        }
        // Pairwise shortest paths among defects + each defect's boundary cost.
        let mut rows = Vec::with_capacity(defects.len());
        for &d in &defects {
            rows.push(self.shortest_paths(d));
        }
        // Candidate matches over defect pairs, each priced at the cheaper of
        // the direct route and the two-boundary route. Pricing pairs this way
        // (instead of offering bare boundary candidates) avoids the classic
        // greedy failure of grabbing one cheap boundary edge and forcing the
        // partner onto an expensive one.
        let mut cands: Vec<(f64, usize, usize, bool)> = Vec::new();
        for i in 0..defects.len() {
            let (dist, _, bd_i, _) = &rows[i];
            for (j, &dj) in defects.iter().enumerate().skip(i + 1) {
                let direct = dist[dj];
                let via_boundary = bd_i + rows[j].2;
                if direct <= via_boundary {
                    cands.push((direct, i, j, true));
                } else {
                    cands.push((via_boundary, i, j, false));
                }
            }
        }
        cands.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut matched = vec![false; defects.len()];
        let mut obs_total = 0u64;
        for (_, i, j, direct) in cands {
            if matched[i] || matched[j] {
                continue;
            }
            matched[i] = true;
            matched[j] = true;
            obs_total ^= if direct {
                rows[i].1[defects[j]]
            } else {
                rows[i].3 ^ rows[j].3
            };
        }
        // Odd leftover defects discharge into the boundary individually.
        for (i, m) in matched.iter().enumerate() {
            if !m {
                obs_total ^= rows[i].3;
            }
        }
        obs_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::unionfind::UnionFindDecoder;

    fn strip(d: usize, p: f64) -> MatchingGraph {
        let mut g = MatchingGraph::new(d - 1);
        g.add_edge(0, None, p, 1);
        for i in 0..d - 2 {
            g.add_edge(i as u32, Some(i as u32 + 1), p, 0);
        }
        g.add_edge(d as u32 - 2, None, p, 0);
        g
    }

    #[test]
    fn empty_syndrome_is_trivial() {
        let dec = GreedyMatchingDecoder::new(&strip(5, 0.1));
        assert_eq!(dec.decode(&[false; 4]), 0);
    }

    #[test]
    fn matches_union_find_on_correctable_patterns() {
        let d = 9;
        let g = strip(d, 0.05);
        let greedy = GreedyMatchingDecoder::new(&g);
        let uf = UnionFindDecoder::new(&g);
        // All single and double error patterns.
        for a in 0..d {
            for b in a..d {
                let mut syn = vec![false; d - 1];
                let flip = |e: usize, syn: &mut Vec<bool>| {
                    if e == 0 {
                        syn[0] = !syn[0];
                    } else if e == d - 1 {
                        syn[d - 2] = !syn[d - 2];
                    } else {
                        syn[e - 1] = !syn[e - 1];
                        syn[e] = !syn[e];
                    }
                };
                flip(a, &mut syn);
                if b != a {
                    flip(b, &mut syn);
                }
                assert_eq!(
                    greedy.decode(&syn),
                    uf.decode(&syn),
                    "disagreement on errors {a},{b}"
                );
            }
        }
    }

    #[test]
    fn prefers_cheap_boundary_routes() {
        let mut g = MatchingGraph::new(2);
        g.add_edge(0, Some(1), 0.0001, 1); // expensive direct edge
        g.add_edge(0, None, 0.2, 0);
        g.add_edge(1, None, 0.2, 0);
        let dec = GreedyMatchingDecoder::new(&g);
        assert_eq!(dec.decode(&[true, true]), 0);
    }

    #[test]
    fn weighted_route_observable_tracking() {
        // A defect pair whose shortest path crosses the logical support.
        let mut g = MatchingGraph::new(3);
        g.add_edge(0, Some(1), 0.1, 1);
        g.add_edge(1, Some(2), 0.1, 0);
        g.add_edge(0, None, 0.0001, 0);
        g.add_edge(2, None, 0.0001, 0);
        let dec = GreedyMatchingDecoder::new(&g);
        // Adjacent defects (0,1): direct edge cheaper than two boundaries?
        // w(0.1) ~ 2.2 each; boundary w(1e-4) ~ 9.2 each: direct wins.
        assert_eq!(dec.decode(&[true, true, false]), 1);
    }

    #[test]
    fn surface_code_accuracy_close_to_union_find() {
        use crate::codes::{SurfaceMemory, SurfaceNoise};
        use crate::detector::sample_detectors;
        let mem = SurfaceMemory::new(3, 3, SurfaceNoise::default());
        let circuit = mem.circuit();
        let graph = mem.matching_graph();
        let greedy = GreedyMatchingDecoder::new(&graph);
        let uf = UnionFindDecoder::new(&graph);
        let shots = 3_000;
        let samples = sample_detectors(&hetarch_exec::WorkerPool::new(4), &circuit, shots, 31);
        let n_det = circuit.num_detectors();
        let mut fail_greedy = 0;
        let mut fail_uf = 0;
        let mut syn = vec![false; n_det];
        for shot in 0..shots {
            for (i, s) in syn.iter_mut().enumerate() {
                *s = samples.detectors.get(i, shot);
            }
            let actual = samples.observables.get(0, shot);
            if (greedy.decode(&syn) & 1 == 1) != actual {
                fail_greedy += 1;
            }
            if (uf.decode(&syn) & 1 == 1) != actual {
                fail_uf += 1;
            }
        }
        let rg = fail_greedy as f64 / shots as f64;
        let ru = fail_uf as f64 / shots as f64;
        assert!(
            (rg - ru).abs() < 0.03,
            "greedy {rg} vs union-find {ru} should be comparable"
        );
    }
}
