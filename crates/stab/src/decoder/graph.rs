//! Space-time matching graphs for graphlike decoding.
//!
//! Each node is a detector; each edge is an independent error mechanism that
//! flips its one or two endpoint detectors and possibly a set of logical
//! observables. Boundary edges have a single endpoint.

use serde::{Deserialize, Serialize};

/// An error mechanism connecting one or two detectors.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// First endpoint (detector index).
    pub u: u32,
    /// Second endpoint, or `None` for a boundary edge.
    pub v: Option<u32>,
    /// Error probability of the mechanism.
    pub p: f64,
    /// Bitmask of logical observables flipped by this mechanism.
    pub obs_mask: u64,
}

impl Edge {
    /// Matching weight `ln((1−p)/p)`, floored at a small positive value.
    pub fn weight(&self) -> f64 {
        let p = self.p.clamp(1e-12, 0.5 - 1e-12);
        ((1.0 - p) / p).ln()
    }
}

/// A weighted matching graph over detectors.
///
/// # Examples
///
/// ```
/// use hetarch_stab::decoder::graph::MatchingGraph;
///
/// let mut g = MatchingGraph::new(2);
/// g.add_edge(0, Some(1), 0.01, 0);
/// g.add_edge(0, None, 0.02, 1);
/// assert_eq!(g.num_nodes(), 2);
/// assert_eq!(g.edges().len(), 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MatchingGraph {
    num_nodes: usize,
    edges: Vec<Edge>,
}

impl MatchingGraph {
    /// Creates an empty graph over `num_nodes` detectors.
    pub fn new(num_nodes: usize) -> Self {
        MatchingGraph {
            num_nodes,
            edges: Vec::new(),
        }
    }

    /// Number of detector nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The edge list.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Adds an error mechanism. If an edge with the same endpoints and
    /// observable mask already exists, the probabilities are combined as
    /// independent events (`p ← p(1−q) + q(1−p)`).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or `p ∉ [0, 1]`.
    pub fn add_edge(&mut self, u: u32, v: Option<u32>, p: f64, obs_mask: u64) {
        assert!((u as usize) < self.num_nodes, "endpoint {u} out of range");
        if let Some(v) = v {
            assert!((v as usize) < self.num_nodes, "endpoint {v} out of range");
            assert_ne!(u, v, "self-loop edges are not allowed");
        }
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        if p == 0.0 {
            return;
        }
        let (u, v) = match v {
            Some(v) if v < u => (v, Some(u)),
            other => (u, other),
        };
        if let Some(e) = self
            .edges
            .iter_mut()
            .find(|e| e.u == u && e.v == v && e.obs_mask == obs_mask)
        {
            e.p = e.p * (1.0 - p) + p * (1.0 - e.p);
        } else {
            self.edges.push(Edge { u, v, p, obs_mask });
        }
    }

    /// Adjacency list: for each node, the indices of incident edges.
    pub fn adjacency(&self) -> Vec<Vec<u32>> {
        let mut adj = vec![Vec::new(); self.num_nodes];
        for (i, e) in self.edges.iter().enumerate() {
            adj[e.u as usize].push(i as u32);
            if let Some(v) = e.v {
                adj[v as usize].push(i as u32);
            }
        }
        adj
    }

    /// Compressed-sparse-row adjacency: one flat indices slice plus per-node
    /// offsets. Per-node entries keep the same ascending-edge-index order as
    /// [`MatchingGraph::adjacency`].
    pub fn csr_adjacency(&self) -> CsrAdjacency {
        let mut offsets = vec![0u32; self.num_nodes + 1];
        for e in &self.edges {
            offsets[e.u as usize + 1] += 1;
            if let Some(v) = e.v {
                offsets[v as usize + 1] += 1;
            }
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor = offsets.clone();
        let mut indices = vec![0u32; *offsets.last().unwrap_or(&0) as usize];
        for (i, e) in self.edges.iter().enumerate() {
            indices[cursor[e.u as usize] as usize] = i as u32;
            cursor[e.u as usize] += 1;
            if let Some(v) = e.v {
                indices[cursor[v as usize] as usize] = i as u32;
                cursor[v as usize] += 1;
            }
        }
        CsrAdjacency { offsets, indices }
    }
}

/// Flattened adjacency (offsets + one indices slice): the allocation-free
/// form consumed by the decoders. Entry order per node matches
/// [`MatchingGraph::adjacency`] exactly, which the bit-identity contract of
/// the union-find scratch decoder depends on (DESIGN.md §5k).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CsrAdjacency {
    offsets: Vec<u32>,
    indices: Vec<u32>,
}

impl CsrAdjacency {
    /// Incident edge indices of node `v`, in ascending edge order.
    #[inline]
    pub fn incident(&self, v: usize) -> &[u32] {
        &self.indices[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_edges_combine_probabilities() {
        let mut g = MatchingGraph::new(2);
        g.add_edge(0, Some(1), 0.1, 0);
        g.add_edge(1, Some(0), 0.1, 0); // same edge, endpoints normalized
        assert_eq!(g.edges().len(), 1);
        let p = g.edges()[0].p;
        assert!((p - 0.18).abs() < 1e-12);
    }

    #[test]
    fn different_observables_stay_separate() {
        let mut g = MatchingGraph::new(2);
        g.add_edge(0, Some(1), 0.1, 0);
        g.add_edge(0, Some(1), 0.1, 1);
        assert_eq!(g.edges().len(), 2);
    }

    #[test]
    fn weight_is_monotone_in_probability() {
        let e1 = Edge {
            u: 0,
            v: None,
            p: 0.01,
            obs_mask: 0,
        };
        let e2 = Edge {
            u: 0,
            v: None,
            p: 0.1,
            obs_mask: 0,
        };
        assert!(e1.weight() > e2.weight());
    }

    #[test]
    fn zero_probability_edges_elided() {
        let mut g = MatchingGraph::new(2);
        g.add_edge(0, Some(1), 0.0, 0);
        assert!(g.edges().is_empty());
    }

    #[test]
    fn adjacency_includes_boundary_edges_once() {
        let mut g = MatchingGraph::new(2);
        g.add_edge(0, Some(1), 0.1, 0);
        g.add_edge(0, None, 0.2, 0);
        let adj = g.adjacency();
        assert_eq!(adj[0].len(), 2);
        assert_eq!(adj[1].len(), 1);
    }

    #[test]
    fn csr_matches_nested_adjacency() {
        let mut g = MatchingGraph::new(5);
        g.add_edge(0, Some(1), 0.1, 0);
        g.add_edge(1, Some(2), 0.1, 1);
        g.add_edge(0, None, 0.2, 0);
        g.add_edge(3, Some(1), 0.05, 0);
        g.add_edge(4, None, 0.3, 1);
        let nested = g.adjacency();
        let csr = g.csr_adjacency();
        assert_eq!(csr.num_nodes(), 5);
        for (v, row) in nested.iter().enumerate() {
            assert_eq!(csr.incident(v), row.as_slice(), "node {v}");
        }
    }
}
