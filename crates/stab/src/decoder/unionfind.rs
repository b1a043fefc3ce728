//! Weighted union-find decoder (Delfosse–Nickerson style) with peeling.
//!
//! This is the workhorse decoder for the surface-code experiments (paper
//! §4.2.1, Figs. 6–7). It substitutes for the minimum-weight perfect-matching
//! decoder the paper's Stim pipeline would use; union-find achieves
//! near-MWPM accuracy at far lower implementation and runtime cost, and the
//! paper's conclusions depend only on relative (heterogeneous vs
//! homogeneous) logical error rates.
//!
//! # Growth as one per-node rule
//!
//! The prediction is a function of the defects and the final set of grown
//! edges only. Growth fixes that set by one rule per pass: every edge that
//! has not grown gains `Σ w(u)` over its endpoints `u` that lie in an
//! active cluster (odd parity, no boundary), where `w(u)` is one for a
//! defect plus one for an endpoint of a grown non-boundary edge; the edge
//! grows once its support reaches its length. The order in which roots,
//! members or edges are visited within a pass does not change the result.
//!
//! # Allocation-free decoding
//!
//! The production path decodes through a reusable [`DecoderScratch`]: all
//! per-shot state lives in flat arrays sized once per graph, reset sparsely
//! via epoch stamps (O(touched nodes), not O(n)). Each cluster root keeps
//! an intrusive circular list of its members (the nodes with `w(u) > 0`
//! that still have an ungrown incident edge), so growth and unions never
//! allocate. Shard loops decode straight from the packed [`BitTable`] via
//! [`UnionFindDecoder::count_failures`] /
//! [`UnionFindDecoder::decode_shots`], which extract sparse defect lists
//! with `trailing_zeros` over 64-bit words and skip all-zero syndromes
//! entirely.
//!
//! Predictions are **bit-identical** to the original per-shot decoder,
//! which is kept as [`UnionFindDecoder::decode_reference`] and
//! cross-checked by `tests/decode_scratch_differential.rs` (see
//! DESIGN.md §5k for the contract).

use crate::bits::{BitTable, ShotBlock};
use crate::decoder::graph::{CsrAdjacency, MatchingGraph};
use hetarch_obs as obs;

// Decoder metrics (no-ops unless the `obs` feature is on and
// `HETARCH_OBS=1`).
static DECODES: obs::Counter = obs::Counter::new("stab.decoder.decodes");
static EMPTY_FAST_PATH: obs::Counter = obs::Counter::new("stab.decoder.empty_fast_path");
static GROWTH_PASSES: obs::Counter = obs::Counter::new("stab.decoder.growth_passes");
static UNIONS: obs::Counter = obs::Counter::new("stab.decoder.unions");
static PEEL_DISCHARGES: obs::Counter = obs::Counter::new("stab.decoder.peel_discharges");
static PEEL_LEAKS: obs::Counter = obs::Counter::new("stab.decoder.peel_leaks");
static DECODE_NS: obs::Histogram = obs::Histogram::new("stab.decode_ns");

/// Empty link in the intrusive member lists.
const NIL: u32 = u32::MAX;
/// Boundary sentinel in the edge endpoint array.
const NO_NODE: u32 = u32::MAX;
/// Peel-forest parent sentinel: no parent (arbitrary root).
const PEEL_NONE: u32 = u32::MAX;
/// Peel-forest parent sentinel: reached through a boundary edge.
const PEEL_BOUNDARY: u32 = u32::MAX - 1;

const F_DEFECT: u8 = 1;
const F_VISITED: u8 = 2;
const F_ODD: u8 = 4;
const F_BOUNDARY: u8 = 8;
const F_MARKED: u8 = 16;
const F_PEEL_VISITED: u8 = 32;

/// Static data of one edge (error mechanism).
#[derive(Clone, Copy, Debug)]
struct EdgeData {
    /// First endpoint.
    u: u32,
    /// Second endpoint, or [`NO_NODE`] for a boundary edge.
    v: u32,
    /// Integer growth length (quantized weight).
    len: u32,
    /// Observable mask.
    obs: u64,
}

/// A union-find decoder prebuilt for one matching graph.
///
/// Holds only the CSR adjacency and the per-edge data it needs — not a
/// clone of the [`MatchingGraph`] it was built from.
///
/// # Examples
///
/// ```
/// use hetarch_stab::decoder::graph::MatchingGraph;
/// use hetarch_stab::decoder::unionfind::UnionFindDecoder;
///
/// // Three-node repetition-code strip with boundaries on both ends.
/// let mut g = MatchingGraph::new(2);
/// g.add_edge(0, None, 0.1, 1);      // left boundary, crosses the logical
/// g.add_edge(0, Some(1), 0.1, 0);   // middle
/// g.add_edge(1, None, 0.1, 0);      // right boundary
/// let decoder = UnionFindDecoder::new(&g);
/// // A defect on node 0 is closest to the left boundary: predicted flip.
/// assert_eq!(decoder.decode(&[true, false]), 1);
/// ```
#[derive(Clone, Debug)]
pub struct UnionFindDecoder {
    num_nodes: usize,
    adjacency: CsrAdjacency,
    edges: Vec<EdgeData>,
}

impl UnionFindDecoder {
    /// Builds a decoder for `graph`, quantizing edge weights to integer
    /// growth lengths.
    pub fn new(graph: &MatchingGraph) -> Self {
        let min_w = graph
            .edges()
            .iter()
            .map(|e| e.weight())
            .fold(f64::INFINITY, f64::min)
            .max(1e-3);
        let edges = graph
            .edges()
            .iter()
            .map(|e| EdgeData {
                u: e.u,
                v: e.v.unwrap_or(NO_NODE),
                len: ((e.weight() / min_w * 4.0).round() as u32).clamp(1, 1 << 14),
                obs: e.obs_mask,
            })
            .collect();
        UnionFindDecoder {
            num_nodes: graph.num_nodes(),
            adjacency: graph.csr_adjacency(),
            edges,
        }
    }

    /// Number of detector nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of edges (error mechanisms).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Allocates a scratch arena sized for this decoder's graph. Every
    /// list is reserved to its worst-case bound up front, so every
    /// subsequent decode through this scratch is allocation-free.
    pub fn new_scratch(&self) -> DecoderScratch {
        let n = self.num_nodes;
        let m = self.edges.len();
        DecoderScratch {
            num_nodes: n,
            num_edges: m,
            epoch: 0,
            pass: 0,
            nodes: vec![NodeScratch::default(); n],
            edges: vec![0; m],
            defects: Vec::with_capacity(n),
            roots: Vec::with_capacity(n),
            newly_grown: Vec::with_capacity(m),
            grown_boundary: Vec::with_capacity(m),
            order: Vec::with_capacity(n),
            queue: Vec::with_capacity(n),
            block: ShotBlock::new(),
            stalled: false,
        }
    }

    /// Decodes a syndrome (one bool per detector), returning the predicted
    /// logical-observable flip mask.
    ///
    /// Convenience wrapper that builds a fresh [`DecoderScratch`] per call;
    /// hot loops should hold one scratch and use
    /// [`Self::decode_with`] or the batch entry points instead.
    ///
    /// # Panics
    ///
    /// Panics if `syndrome.len()` differs from the graph's node count.
    pub fn decode(&self, syndrome: &[bool]) -> u64 {
        let mut scratch = self.new_scratch();
        self.decode_with(&mut scratch, syndrome)
    }

    /// Decodes a dense syndrome through a reusable scratch arena.
    ///
    /// # Panics
    ///
    /// Panics if `syndrome.len()` differs from the graph's node count or
    /// the scratch was built for a different graph shape.
    pub fn decode_with(&self, scratch: &mut DecoderScratch, syndrome: &[bool]) -> u64 {
        assert_eq!(syndrome.len(), self.num_nodes, "syndrome length mismatch");
        scratch.check_shape(self.num_nodes, self.edges.len());
        scratch.defects.clear();
        for (v, &s) in syndrome.iter().enumerate() {
            if s {
                scratch.defects.push(v as u32);
            }
        }
        self.decode_current(scratch)
    }

    /// Decodes a sparse syndrome given as a strictly ascending list of
    /// defect (detector) indices.
    ///
    /// # Panics
    ///
    /// Panics if the scratch shape mismatches; defect ordering is checked
    /// by `debug_assert` only.
    pub fn decode_defects(&self, scratch: &mut DecoderScratch, defects: &[u32]) -> u64 {
        scratch.check_shape(self.num_nodes, self.edges.len());
        scratch.defects.clear();
        scratch.defects.extend_from_slice(defects);
        self.decode_current(scratch)
    }

    /// Decodes shots `start..start + len` straight from packed detector
    /// samples and counts mismatches between bit `obs_row` of each
    /// prediction and row `obs_row` of `observables`.
    ///
    /// Defect lists are extracted per 64-shot word block with
    /// `trailing_zeros`; all-zero syndromes never reach the decoder (the
    /// sparse fast path). Failure bits are compared a word at a time.
    ///
    /// # Panics
    ///
    /// Panics if the detector row count differs from the graph's node
    /// count, the shot range is out of bounds, or `obs_row` is out of
    /// range (not a row of `observables`, or not below 64).
    pub fn count_failures(
        &self,
        scratch: &mut DecoderScratch,
        detectors: &BitTable,
        observables: &BitTable,
        obs_row: usize,
        start: usize,
        len: usize,
    ) -> u64 {
        let mut failures = 0u64;
        self.decode_blocks(
            scratch,
            detectors,
            observables,
            obs_row,
            start,
            len,
            |mismatch, _, _| {
                failures += mismatch.count_ones() as u64;
            },
        );
        failures
    }

    /// As [`Self::count_failures`], but reports every shot's failure bit to
    /// `on_shot(shot_index, failed)` — the entry point for weighted
    /// accumulation (the rare-event enumerated strata).
    #[allow(clippy::too_many_arguments)]
    pub fn decode_shots(
        &self,
        scratch: &mut DecoderScratch,
        detectors: &BitTable,
        observables: &BitTable,
        obs_row: usize,
        start: usize,
        len: usize,
        mut on_shot: impl FnMut(usize, bool),
    ) {
        self.decode_blocks(
            scratch,
            detectors,
            observables,
            obs_row,
            start,
            len,
            |mismatch, block, lane_range| {
                for lane in lane_range {
                    on_shot(block * 64 + lane, (mismatch >> lane) & 1 == 1);
                }
            },
        );
    }

    /// Shared block loop of the batch entry points: per 64-shot word
    /// column, extract sparse defect lists, decode the occupied lanes, and
    /// hand the caller the mismatch word.
    #[allow(clippy::too_many_arguments)]
    fn decode_blocks(
        &self,
        scratch: &mut DecoderScratch,
        detectors: &BitTable,
        observables: &BitTable,
        obs_row: usize,
        start: usize,
        len: usize,
        mut on_block: impl FnMut(u64, usize, std::ops::Range<usize>),
    ) {
        assert_eq!(
            detectors.rows(),
            self.num_nodes,
            "detector row count mismatch"
        );
        assert_eq!(
            detectors.shots(),
            observables.shots(),
            "shot count mismatch"
        );
        assert!(start + len <= detectors.shots(), "shot range out of bounds");
        assert!(
            obs_row < observables.rows() && obs_row < 64,
            "observable row out of range"
        );
        scratch.check_shape(self.num_nodes, self.edges.len());
        let span = obs::span!(DECODE_NS);
        let end = start + len;
        let mut shot = start;
        // Take the block buffer out so the borrow checker lets the decoder
        // read its lane lists while mutating the rest of the scratch.
        let mut block_buf = std::mem::take(&mut scratch.block);
        while shot < end {
            let block = shot / 64;
            let lane_lo = shot % 64;
            let block_end = ((block + 1) * 64).min(end);
            let lanes = block_end - shot;
            let mask = lane_mask(lane_lo, lanes);
            let occupied = block_buf.load(detectors, block, mask);
            EMPTY_FAST_PATH.add((mask & !occupied).count_ones() as u64);
            let mut predicted = 0u64;
            let mut pending = occupied;
            while pending != 0 {
                let lane = pending.trailing_zeros() as usize;
                pending &= pending - 1;
                scratch.defects.clear();
                scratch.defects.extend_from_slice(block_buf.rows(lane));
                predicted |= ((self.decode_current(scratch) >> obs_row) & 1) << lane;
            }
            let actual = observables.word(obs_row, block);
            on_block((predicted ^ actual) & mask, block, lane_lo..lane_lo + lanes);
            shot = block_end;
        }
        scratch.block = block_buf;
        drop(span);
    }

    /// Decodes the defect list currently staged in `scratch.defects`.
    fn decode_current(&self, scratch: &mut DecoderScratch) -> u64 {
        if scratch.defects.is_empty() {
            EMPTY_FAST_PATH.add(1);
            return 0;
        }
        DECODES.add(1);
        scratch.begin_shot();
        // Every defect starts as an odd singleton cluster whose member list
        // holds just itself.
        for i in 0..scratch.defects.len() {
            let v = scratch.defects[i] as usize;
            debug_assert!(
                v < self.num_nodes && (i == 0 || scratch.defects[i - 1] < scratch.defects[i]),
                "defect list must be strictly ascending and in range"
            );
            scratch.touch_node(v);
            let node = &mut scratch.nodes[v];
            node.flags = F_DEFECT | F_ODD | F_MARKED;
            node.head = v as u32;
            node.next = v as u32;
        }
        self.grow(scratch);
        self.peel(scratch)
    }

    /// Cluster growth until every cluster is neutral (even parity or
    /// touching the boundary).
    ///
    /// Each pass maps the previous pass's active roots through `find`
    /// (every union involves an active cluster, so no active root is
    /// missed), dedupes them with a per-pass stamp, and feeds each active
    /// cluster's members into their ungrown edges; unions of the edges
    /// that grew follow. A pass that makes no progress (no active member
    /// has an ungrown edge) marks the scratch `stalled` and stops instead
    /// of spinning, which can only happen on degenerate graphs where an
    /// odd-parity cluster has no path to a boundary.
    fn grow(&self, scratch: &mut DecoderScratch) {
        let mut passes = 0u64;
        let mut unions = 0u64;
        scratch.roots.clear();
        scratch.roots.extend_from_slice(&scratch.defects);
        loop {
            passes += 1;
            scratch.pass += 1;
            let mut active = 0;
            for i in 0..scratch.roots.len() {
                let r = scratch.find(scratch.roots[i] as usize);
                let node = &mut scratch.nodes[r];
                if node.pass == scratch.pass {
                    continue;
                }
                node.pass = scratch.pass;
                if node.flags & (F_ODD | F_BOUNDARY) == F_ODD {
                    scratch.roots[active] = r as u32;
                    active += 1;
                }
            }
            scratch.roots.truncate(active);
            if active == 0 {
                break;
            }
            scratch.newly_grown.clear();
            let mut progressed = false;
            for i in 0..active {
                let root = scratch.roots[i] as usize;
                progressed |= self.grow_cluster(scratch, root);
            }
            if !progressed {
                scratch.stalled = true;
                break;
            }
            for i in 0..scratch.newly_grown.len() {
                let ei = scratch.newly_grown[i];
                let edge = self.edges[ei as usize];
                if edge.v == NO_NODE {
                    let ru = scratch.find(edge.u as usize);
                    scratch.nodes[ru].flags |= F_BOUNDARY;
                    scratch.grown_boundary.push(ei);
                    continue;
                }
                let ru = scratch.visit(edge.u as usize);
                let rv = scratch.visit(edge.v as usize);
                if ru != rv {
                    scratch.union(ru, rv);
                    unions += 1;
                }
            }
        }
        GROWTH_PASSES.add(passes);
        UNIONS.add(unions);
    }

    /// One growth step of an active cluster: every member `u` adds `w(u)`
    /// to each of its ungrown incident edges, and members left without an
    /// ungrown edge leave the (circular) member list for good. Returns
    /// whether any edge gained support.
    fn grow_cluster(&self, scratch: &mut DecoderScratch, root: usize) -> bool {
        let head = scratch.nodes[root].head;
        if head == NIL {
            return false;
        }
        let head = head as usize;
        let mut progressed = false;
        // Walk head.next, …, head, so the head is visited last and every
        // unlink has a live predecessor.
        let mut prev = head;
        loop {
            let cur = scratch.nodes[prev].next as usize;
            let w = scratch.nodes[cur].weight();
            let mut open = false;
            for &ei in self.adjacency.incident(cur) {
                let len = self.edges[ei as usize].len;
                let support = scratch.support(ei as usize);
                if support >= len {
                    continue;
                }
                progressed = true;
                scratch.set_support(ei as usize, support + w);
                if support + w >= len {
                    scratch.newly_grown.push(ei);
                } else {
                    open = true;
                }
            }
            if open {
                prev = cur;
            } else if cur == prev {
                scratch.nodes[root].head = NIL;
                break;
            } else {
                scratch.nodes[prev].next = scratch.nodes[cur].next;
                if cur == head {
                    scratch.nodes[root].head = prev as u32;
                }
            }
            if cur == head {
                break;
            }
        }
        progressed
    }

    /// Peeling: build a spanning forest of grown edges inside each cluster
    /// and discharge defects toward boundary-rooted trees.
    fn peel(&self, scratch: &mut DecoderScratch) -> u64 {
        // BFS seeded from boundary-grown edges first (ascending edge index,
        // as the reference's full edge scan produced) so defects can drain
        // into the boundary.
        scratch.grown_boundary.sort_unstable();
        for i in 0..scratch.grown_boundary.len() {
            let ei = scratch.grown_boundary[i];
            let u = self.edges[ei as usize].u as usize;
            scratch.touch_node(u);
            if scratch.nodes[u].flags & F_PEEL_VISITED == 0 {
                scratch.nodes[u].flags |= F_PEEL_VISITED;
                scratch.nodes[u].peel_parent_node = PEEL_BOUNDARY;
                scratch.nodes[u].peel_parent_edge = ei;
                scratch.queue.push(u as u32);
            }
        }
        // Then arbitrary roots for remaining cluster nodes. The reference
        // rescans `0..n` for an unvisited marked node; marked nodes are
        // exactly the defects and visitation is monotone, so one ascending
        // pointer over the defect list is equivalent.
        let mut qhead = 0usize;
        let mut defect_ptr = 0usize;
        loop {
            while qhead < scratch.queue.len() {
                let u = scratch.queue[qhead] as usize;
                qhead += 1;
                scratch.order.push(u as u32);
                for &ei in self.adjacency.incident(u) {
                    let edge = self.edges[ei as usize];
                    if edge.v == NO_NODE || scratch.support(ei as usize) < edge.len {
                        continue;
                    }
                    let other = if edge.u as usize == u {
                        edge.v as usize
                    } else {
                        edge.u as usize
                    };
                    scratch.touch_node(other);
                    if scratch.nodes[other].flags & F_PEEL_VISITED == 0 {
                        scratch.nodes[other].flags |= F_PEEL_VISITED;
                        scratch.nodes[other].peel_parent_node = u as u32;
                        scratch.nodes[other].peel_parent_edge = ei;
                        scratch.queue.push(other as u32);
                    }
                }
            }
            let mut seeded = false;
            while defect_ptr < scratch.defects.len() {
                let v = scratch.defects[defect_ptr] as usize;
                if scratch.nodes[v].flags & F_PEEL_VISITED == 0 {
                    scratch.nodes[v].flags |= F_PEEL_VISITED;
                    scratch.queue.push(v as u32);
                    seeded = true;
                    break;
                }
                defect_ptr += 1;
            }
            if !seeded {
                break;
            }
        }

        let mut obs_mask = 0u64;
        let mut discharges = 0u64;
        let mut leaks = 0u64;
        for i in (0..scratch.order.len()).rev() {
            let u = scratch.order[i] as usize;
            if scratch.nodes[u].flags & F_MARKED == 0 {
                continue;
            }
            let p = scratch.nodes[u].peel_parent_node;
            if p == PEEL_NONE {
                // A marked arbitrary root would leave this defect
                // undecoded. Invariant: growth leaves every cluster with
                // even parity or a boundary, whose peel trees discharge
                // fully — an arbitrary root (odd, boundary-free cluster)
                // can only exist if growth stalled on a degenerate graph
                // (e.g. an isolated defect with no edges at all).
                leaks += 1;
                debug_assert!(
                    scratch.stalled,
                    "peel parity leak at node {u} without a stalled growth phase"
                );
                continue;
            }
            let ei = scratch.nodes[u].peel_parent_edge as usize;
            obs_mask ^= self.edges[ei].obs;
            scratch.nodes[u].flags &= !F_MARKED;
            discharges += 1;
            if p != PEEL_BOUNDARY {
                scratch.nodes[p as usize].flags ^= F_MARKED;
            }
        }
        PEEL_DISCHARGES.add(discharges);
        if leaks > 0 {
            PEEL_LEAKS.add(leaks);
        }
        obs_mask
    }

    /// The original per-shot decoder, kept as the bit-identity
    /// oracle for the scratch/batch paths (mirroring `apply_reference` in
    /// qsim). Allocates a fresh dense decode state per call.
    ///
    /// # Panics
    ///
    /// Panics if `syndrome.len()` differs from the graph's node count.
    pub fn decode_reference(&self, syndrome: &[bool]) -> u64 {
        let n = self.num_nodes;
        assert_eq!(syndrome.len(), n, "syndrome length mismatch");
        if syndrome.iter().all(|&s| !s) {
            return 0;
        }
        let mut state = DecodeState::new(n, self.edges.len());
        for (v, &s) in syndrome.iter().enumerate() {
            if s {
                state.defect[v] = true;
                state.parity[v] = 1;
            }
        }
        // Initialize boundary lists: every defect node's incident edges.
        for v in 0..n {
            if state.defect[v] {
                state.frontier[v] = self.adjacency.incident(v).to_vec();
            }
        }
        self.grow_reference(&mut state);
        self.peel_reference(&mut state, syndrome)
    }

    /// Reference growth: O(n) active-root scan per pass, `Vec` frontiers.
    fn grow_reference(&self, state: &mut DecodeState) {
        let n = self.num_nodes;
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
                let ei = ei as usize;
                let u = self.edges[ei].u as usize;
                let ru = state.find(u);
                let v = self.edges[ei].v;
                if v == NO_NODE {
                    state.has_boundary[ru] = true;
                } else {
                    let rv = state.find(v as usize);
                    // Expand the frontier of whichever side is new.
                    for node in [u, v as usize] {
                        let r = state.find(node);
                        if !state.visited[node] {
                            state.visited[node] = true;
                            let extra: Vec<u32> = self
                                .adjacency
                                .incident(node)
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
    }

    /// Reference peeling with dense visited/marked/parent vectors.
    fn peel_reference(&self, state: &mut DecodeState, syndrome: &[bool]) -> u64 {
        let n = self.num_nodes;
        let m = self.edges.len();
        let mut marked: Vec<bool> = syndrome.to_vec();
        let mut visited = vec![false; n];
        // parent[v] = (parent node or usize::MAX for boundary, edge).
        let mut parent: Vec<Option<(usize, u32)>> = vec![None; n];
        let mut order: Vec<usize> = Vec::new();

        // BFS seeded from boundary-grown edges first so defects can drain
        // into the boundary.
        let mut queue = std::collections::VecDeque::new();
        for ei in 0..m {
            if state.grown[ei] && self.edges[ei].v == NO_NODE {
                let u = self.edges[ei].u as usize;
                if !visited[u] {
                    visited[u] = true;
                    parent[u] = Some((usize::MAX, ei as u32));
                    queue.push_back(u);
                }
            }
        }
        // Then arbitrary roots for remaining cluster nodes.
        loop {
            while let Some(u) = queue.pop_front() {
                order.push(u);
                for &ei in self.adjacency.incident(u) {
                    if !state.grown[ei as usize] {
                        continue;
                    }
                    let v = self.edges[ei as usize].v;
                    if v == NO_NODE {
                        continue;
                    }
                    let other = if self.edges[ei as usize].u as usize == u {
                        v as usize
                    } else {
                        self.edges[ei as usize].u as usize
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

/// Masks lanes `lo..lo + count` of a 64-shot word.
#[inline]
fn lane_mask(lo: usize, count: usize) -> u64 {
    debug_assert!(lo + count <= 64 && count > 0);
    let full = if count == 64 {
        u64::MAX
    } else {
        (1u64 << count) - 1
    };
    full << lo
}

/// Per-node decode state, reset lazily by epoch stamp.
#[derive(Clone, Copy, Debug, Default)]
struct NodeScratch {
    /// Shot epoch this state belongs to; an older stamp means stale.
    epoch: u32,
    parent: u32,
    /// Root only: some member of the cluster's circular member list, or
    /// [`NIL`] once every member has been unlinked.
    head: u32,
    /// Next member in the cluster's circular member list.
    next: u32,
    /// Root only: the last growth pass that examined this root.
    pass: u32,
    peel_parent_node: u32,
    peel_parent_edge: u32,
    flags: u8,
}

impl NodeScratch {
    /// Growth weight `w(u)`: one for a defect plus one for an endpoint of a
    /// grown non-boundary edge.
    #[inline]
    fn weight(&self) -> u32 {
        u32::from(self.flags & F_DEFECT != 0) + u32::from(self.flags & F_VISITED != 0)
    }
}

/// Reusable decode arena: all per-shot state for one
/// [`UnionFindDecoder`], reset sparsely between shots.
///
/// Owned per shard and reused across shots; see DESIGN.md §5k for the
/// reset discipline. Build with [`UnionFindDecoder::new_scratch`].
#[derive(Clone, Debug)]
pub struct DecoderScratch {
    num_nodes: usize,
    num_edges: usize,
    /// Current shot's epoch; state stamped with an older epoch is stale.
    epoch: u32,
    /// Growth-pass stamp within the current shot (root dedupe). Every pass
    /// but the last adds support to an ungrown edge, so a shot makes at
    /// most `Σ len + 1` passes: no wrap below 2^18 edges.
    pass: u32,
    nodes: Vec<NodeScratch>,
    /// Per-edge shot state, `epoch << 32 | support`; an edge has grown once
    /// its support reaches its length.
    edges: Vec<u64>,
    /// Staged defect list (strictly ascending detector indices).
    defects: Vec<u32>,
    /// Growth worklist: the active roots of the current pass.
    roots: Vec<u32>,
    newly_grown: Vec<u32>,
    grown_boundary: Vec<u32>,
    order: Vec<u32>,
    queue: Vec<u32>,
    /// Sparse syndrome extraction buffer for the batch entry points.
    block: ShotBlock,
    /// Set when a growth pass made no progress (degenerate graph with an
    /// odd-parity cluster that cannot reach a boundary); licenses the peel
    /// parity-leak branch.
    stalled: bool,
}

impl DecoderScratch {
    fn check_shape(&self, n: usize, m: usize) {
        assert_eq!(
            (self.num_nodes, self.num_edges),
            (n, m),
            "scratch was built for a different graph shape"
        );
    }

    /// Starts a new shot: bump the epoch (stale state resets lazily on
    /// first touch) and clear the per-shot lists. O(touched), except on
    /// epoch wraparound every 2³² shots, where every stamp is rewritten to
    /// the never-current epoch 0.
    fn begin_shot(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            for node in &mut self.nodes {
                node.epoch = 0;
            }
            self.edges.fill(0);
            self.epoch = 1;
        }
        self.pass = 0;
        self.grown_boundary.clear();
        self.order.clear();
        self.queue.clear();
        self.stalled = false;
    }

    /// Lazily resets node `v` if it was last touched in an older shot.
    #[inline]
    fn touch_node(&mut self, v: usize) {
        if self.nodes[v].epoch != self.epoch {
            self.nodes[v] = NodeScratch {
                epoch: self.epoch,
                parent: v as u32,
                head: NIL,
                next: NIL,
                pass: 0,
                peel_parent_node: PEEL_NONE,
                peel_parent_edge: 0,
                flags: 0,
            };
        }
    }

    /// Support of edge `e` in the current shot.
    #[inline]
    fn support(&self, e: usize) -> u32 {
        let word = self.edges[e];
        if (word >> 32) as u32 == self.epoch {
            word as u32
        } else {
            0
        }
    }

    #[inline]
    fn set_support(&mut self, e: usize, support: u32) {
        self.edges[e] = u64::from(self.epoch) << 32 | u64::from(support);
    }

    fn find(&mut self, v: usize) -> usize {
        self.touch_node(v);
        let mut root = v;
        while self.nodes[root].parent as usize != root {
            root = self.nodes[root].parent as usize;
        }
        let mut cur = v;
        while self.nodes[cur].parent as usize != cur {
            let next = self.nodes[cur].parent as usize;
            self.nodes[cur].parent = root as u32;
            cur = next;
        }
        root
    }

    /// Marks `v` as an endpoint of a grown non-boundary edge, raising its
    /// weight; a node that had weight zero joins its cluster's member list.
    /// Returns `v`'s root.
    fn visit(&mut self, v: usize) -> usize {
        let r = self.find(v);
        let flags = self.nodes[v].flags;
        if flags & F_VISITED == 0 {
            self.nodes[v].flags |= F_VISITED;
            if flags & F_DEFECT == 0 {
                let head = self.nodes[r].head;
                if head == NIL {
                    self.nodes[v].next = v as u32;
                    self.nodes[r].head = v as u32;
                } else {
                    self.nodes[v].next = self.nodes[head as usize].next;
                    self.nodes[head as usize].next = v as u32;
                }
            }
        }
        r
    }

    /// Merges root `b` into root `a`: parities add, the boundary flag
    /// ORs, and the circular member lists splice by swapping one
    /// successor link from each.
    fn union(&mut self, a: usize, b: usize) {
        self.nodes[b].parent = a as u32;
        let b_flags = self.nodes[b].flags;
        self.nodes[a].flags ^= b_flags & F_ODD;
        self.nodes[a].flags |= b_flags & F_BOUNDARY;
        let (ha, hb) = (self.nodes[a].head, self.nodes[b].head);
        if ha == NIL {
            self.nodes[a].head = hb;
        } else if hb != NIL {
            let next_a = self.nodes[ha as usize].next;
            self.nodes[ha as usize].next = self.nodes[hb as usize].next;
            self.nodes[hb as usize].next = next_a;
        }
    }
}

/// Dense per-shot state of the reference decoder (allocated per call).
#[derive(Clone, Debug)]
struct DecodeState {
    parent: Vec<u32>,
    parity: Vec<u32>,
    has_boundary: Vec<bool>,
    defect: Vec<bool>,
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
            defect: vec![false; n],
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
    use crate::decoder::graph::MatchingGraph;

    /// Repetition-code strip: d data qubits, d−1 detectors, boundaries at
    /// both ends; the left boundary edge crosses the logical.
    fn strip(d: usize, p: f64) -> MatchingGraph {
        let mut g = MatchingGraph::new(d - 1);
        g.add_edge(0, None, p, 1);
        for i in 0..d - 2 {
            g.add_edge(i as u32, Some(i as u32 + 1), p, 0);
        }
        g.add_edge(d as u32 - 2, None, p, 0);
        g
    }

    /// Applies physical errors on a strip and returns (syndrome, true obs).
    fn apply_errors(d: usize, errs: &[usize]) -> (Vec<bool>, u64) {
        // Edge i connects detectors (i-1, i); edge 0 and edge d-1 are
        // boundary edges. Error on edge i fires its endpoints.
        let mut syn = vec![false; d - 1];
        let mut obs = 0u64;
        for &e in errs {
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
        (syn, obs)
    }

    /// Every 1- and 2-error syndrome of a strip (none is empty).
    fn strip_battery(d: usize) -> Vec<Vec<bool>> {
        let mut battery = Vec::new();
        for a in 0..d {
            for b in a..d {
                let errs: Vec<usize> = if a == b { vec![a] } else { vec![a, b] };
                battery.push(apply_errors(d, &errs).0);
            }
        }
        battery
    }

    #[test]
    fn empty_syndrome_decodes_to_identity() {
        let g = strip(5, 0.1);
        let dec = UnionFindDecoder::new(&g);
        assert_eq!(dec.decode(&[false; 4]), 0);
    }

    #[test]
    fn single_errors_are_corrected() {
        let d = 7;
        let g = strip(d, 0.05);
        let dec = UnionFindDecoder::new(&g);
        for e in 0..d {
            let (syn, obs) = apply_errors(d, &[e]);
            assert_eq!(dec.decode(&syn), obs, "error on edge {e}");
        }
    }

    #[test]
    fn correctable_double_errors() {
        let d = 9;
        let g = strip(d, 0.05);
        let dec = UnionFindDecoder::new(&g);
        for a in 0..d {
            for b in (a + 1)..d {
                let (syn, obs) = apply_errors(d, &[a, b]);
                let pred = dec.decode(&syn);
                // Prediction must produce the same syndrome class: for a
                // distance-9 strip any ≤4 errors are correctable.
                assert_eq!(pred, obs, "errors on edges {a},{b}");
            }
        }
    }

    #[test]
    fn uncorrectable_majority_flips_logical() {
        // 5 errors out of d=9 on the left side: decoder should prefer the
        // complementary (weight-4) correction and report a logical flip
        // relative to the actual error.
        let d = 9;
        let g = strip(d, 0.05);
        let dec = UnionFindDecoder::new(&g);
        let errs: Vec<usize> = (0..5).collect();
        let (syn, obs) = apply_errors(d, &errs);
        let pred = dec.decode(&syn);
        assert_ne!(pred, obs, "majority error should defeat the decoder");
    }

    #[test]
    fn weights_bias_toward_likelier_edges() {
        // Two-node graph: one defect pair connected either directly
        // (unlikely) or via two boundary edges (likely). Decoder must pick
        // the boundary route when it is cheaper.
        let mut g = MatchingGraph::new(2);
        g.add_edge(0, Some(1), 0.0001, 1); // direct, expensive, flips obs
        g.add_edge(0, None, 0.2, 0);
        g.add_edge(1, None, 0.2, 0);
        let dec = UnionFindDecoder::new(&g);
        let pred = dec.decode(&[true, true]);
        assert_eq!(pred, 0, "should route both defects to the boundary");

        // Flip the economics: direct edge cheap.
        let mut g = MatchingGraph::new(2);
        g.add_edge(0, Some(1), 0.2, 1);
        g.add_edge(0, None, 0.0001, 0);
        g.add_edge(1, None, 0.0001, 0);
        let dec = UnionFindDecoder::new(&g);
        assert_eq!(dec.decode(&[true, true]), 1, "should use the direct edge");
    }

    #[test]
    fn grid_graph_with_time_edges() {
        // 2 rounds × 3 detectors; time edges between rounds; a measurement
        // error fires (t, f) and (t+1, f) and must decode as a time edge
        // (no observable flip).
        let mut g = MatchingGraph::new(6);
        for t in 0..2u32 {
            let base = t * 3;
            g.add_edge(base, None, 0.01, 1);
            g.add_edge(base, Some(base + 1), 0.01, 0);
            g.add_edge(base + 1, Some(base + 2), 0.01, 0);
            g.add_edge(base + 2, None, 0.01, 0);
        }
        for f in 0..3u32 {
            g.add_edge(f, Some(f + 3), 0.01, 0);
        }
        let dec = UnionFindDecoder::new(&g);
        let mut syn = vec![false; 6];
        syn[1] = true;
        syn[4] = true;
        assert_eq!(dec.decode(&syn), 0);
    }

    #[test]
    fn scratch_reuse_matches_reference_on_strip() {
        let d = 9;
        let g = strip(d, 0.05);
        let dec = UnionFindDecoder::new(&g);
        let mut scratch = dec.new_scratch();
        // Every 1- and 2-error pattern, decoded through ONE reused scratch,
        // must match the pristine reference decoder bit for bit.
        for (i, syn) in strip_battery(d).iter().enumerate() {
            assert_eq!(
                dec.decode_with(&mut scratch, syn),
                dec.decode_reference(syn),
                "battery shot {i}"
            );
        }
    }

    #[test]
    fn decode_defects_matches_dense_path() {
        let d = 9;
        let g = strip(d, 0.05);
        let dec = UnionFindDecoder::new(&g);
        let mut scratch = dec.new_scratch();
        let (syn, _) = apply_errors(d, &[2, 5]);
        let defects: Vec<u32> = syn
            .iter()
            .enumerate()
            .filter(|(_, &s)| s)
            .map(|(v, _)| v as u32)
            .collect();
        assert_eq!(
            dec.decode_defects(&mut scratch, &defects),
            dec.decode_reference(&syn)
        );
    }

    #[test]
    fn batch_count_failures_matches_per_shot() {
        let d = 9;
        let g = strip(d, 0.05);
        let dec = UnionFindDecoder::new(&g);
        let n = d - 1;
        // 130 shots spanning three word blocks, each a pseudo-random error
        // pattern; observables carry the TRUE obs so a failure means the
        // decoder mispredicted.
        let shots = 130;
        let mut detectors = BitTable::new(n, shots);
        let mut observables = BitTable::new(1, shots);
        let mut expect = 0u64;
        let mut rng = 0x9e3779b97f4a7c15u64;
        for shot in 0..shots {
            let mut errs = Vec::new();
            for e in 0..d {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if rng >> 62 == 0 {
                    errs.push(e);
                }
            }
            let (syn, obs) = apply_errors(d, &errs);
            for (v, &s) in syn.iter().enumerate() {
                detectors.set(v, shot, s);
            }
            observables.set(0, shot, obs & 1 == 1);
            if dec.decode_reference(&syn) & 1 != obs & 1 {
                expect += 1;
            }
        }
        let mut scratch = dec.new_scratch();
        let got = dec.count_failures(&mut scratch, &detectors, &observables, 0, 0, shots);
        assert_eq!(got, expect);
        // Sub-range starting off a word boundary.
        let mut partial = 0u64;
        dec.decode_shots(
            &mut scratch,
            &detectors,
            &observables,
            0,
            37,
            60,
            |shot, failed| {
                assert!((37..97).contains(&shot));
                if failed {
                    partial += 1;
                }
            },
        );
        assert_eq!(
            partial,
            dec.count_failures(&mut scratch, &detectors, &observables, 0, 37, 60)
        );
    }

    #[test]
    fn batch_paths_compare_the_requested_observable_row() {
        // Two observables: the left boundary edge flips bit 0, the right
        // one bit 1, so the two prediction bits differ shot by shot.
        let d = 7;
        let mut g = MatchingGraph::new(d - 1);
        g.add_edge(0, None, 0.05, 0b01);
        for i in 0..d as u32 - 2 {
            g.add_edge(i, Some(i + 1), 0.05, 0);
        }
        g.add_edge(d as u32 - 2, None, 0.05, 0b10);
        let dec = UnionFindDecoder::new(&g);
        let battery = strip_battery(d);
        let mut detectors = BitTable::new(d - 1, battery.len());
        let mut observables = BitTable::new(2, battery.len());
        for (shot, syn) in battery.iter().enumerate() {
            for (v, &s) in syn.iter().enumerate() {
                detectors.set(v, shot, s);
            }
            observables.set(1, shot, shot % 3 == 0);
        }
        let expected: Vec<bool> = battery
            .iter()
            .enumerate()
            .map(|(shot, syn)| ((dec.decode_reference(syn) >> 1) & 1 == 1) != (shot % 3 == 0))
            .collect();
        let mut scratch = dec.new_scratch();
        let mut got = vec![false; battery.len()];
        dec.decode_shots(
            &mut scratch,
            &detectors,
            &observables,
            1,
            0,
            battery.len(),
            |shot, failed| got[shot] = failed,
        );
        assert_eq!(got, expected);
        assert_eq!(
            dec.count_failures(&mut scratch, &detectors, &observables, 1, 0, battery.len()),
            expected.iter().filter(|&&f| f).count() as u64
        );
    }

    #[test]
    fn epoch_wraparound_resets_stale_state() {
        let d = 9;
        let g = strip(d, 0.05);
        let dec = UnionFindDecoder::new(&g);
        let carry = apply_errors(d, &[d - 1]).0;
        let probe = apply_errors(d, &[0, 1]).0;
        let mut scratch = dec.new_scratch();
        // An all-defect warm-up shot stamps every node and edge with epoch
        // 1, leaving one even cluster of grown bulk edges. From just below
        // the wrap, three right-end shots carry the epoch across it, so the
        // left-end probe (one defect on node 1) runs at epoch 1 again: only
        // a full reset at the wrap keeps it from joining that stale cluster.
        dec.decode_with(&mut scratch, &vec![true; d - 1]);
        scratch.epoch = u32::MAX - 2;
        let battery = strip_battery(d);
        let shots = [&carry, &carry, &carry, &probe].into_iter().chain(&battery);
        for syn in shots {
            assert_eq!(
                dec.decode_with(&mut scratch, syn),
                dec.decode_reference(syn),
                "epoch {}",
                scratch.epoch
            );
        }
        assert!(
            scratch.epoch < battery.len() as u32 + 4,
            "the shots must cross the wrap"
        );
    }

    #[test]
    fn stalled_growth_terminates_on_degenerate_graphs() {
        // A defect on a node with no incident edges: the reference decoder
        // would spin forever; the scratch path must stall, terminate, and
        // (in release) simply leave the defect undecoded.
        let mut g = MatchingGraph::new(3);
        g.add_edge(0, Some(1), 0.1, 1); // node 2 is edgeless
        let dec = UnionFindDecoder::new(&g);
        let mut scratch = dec.new_scratch();
        // Both defects of the even, boundary-free component discharge over
        // the direct edge; terminates without a boundary.
        assert_eq!(dec.decode_with(&mut scratch, &[true, true, false]), 1);
        // A defect on the edgeless node stalls growth and is left
        // undecoded (counted as a peel leak) instead of hanging.
        assert_eq!(dec.decode_with(&mut scratch, &[false, false, true]), 0);
        // The scratch remains healthy after a stalled shot.
        assert_eq!(dec.decode_with(&mut scratch, &[true, true, false]), 1);
    }
}
