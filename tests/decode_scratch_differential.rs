//! Differential suite for the allocation-free union-find decode paths.
//!
//! The scratch (`decode_with`), sparse (`decode_defects`), and batch
//! (`decode_shots` / `count_failures`) paths must be **bitwise-equal** to
//! the pristine per-shot oracle [`decode_reference`] on every syndrome —
//! that is the DESIGN.md §5k contract. This suite drives the comparison
//! with proptest-generated matching graphs (random topology, weights, and
//! observable masks) under random and adversarial syndromes, and on hub
//! graphs whose centre has more incidences than one 64-bit mask word;
//! checks that a scratch arena stays healthy across thousands of
//! interleaved decodes; runs the same comparison on real surface-memory
//! graphs (plain and weight-conditioned syndromes); and pins worker-count
//! invariance of the surface shard loops that consume the batch path.

use hetarch::exec::WorkerPool;
use hetarch::stab::bits::BitTable;
use hetarch::stab::codes::{SurfaceDecoder, SurfaceMemory, SurfaceNoise};
use hetarch::stab::decoder::{MatchingGraph, UnionFindDecoder};
use hetarch::stab::detector::{assemble_detectors, sample_detectors};
use hetarch::stab::frame::{sample_at_weight, FaultModel};
use hetarch::testkit::decoder::{assert_decode_paths_agree, decode_reference};
use hetarch_exec::rare::RareConfig;
use proptest::prelude::*;

/// A random connected matching graph in which every node can reach the
/// boundary: a random spanning tree over `n` nodes, a few extra chords,
/// and 1–4 boundary edges. Connectivity plus at least one boundary edge
/// guarantees `decode_reference` terminates (an odd cluster always has
/// somewhere left to grow until it absorbs the boundary), which the old
/// decoder required and the scratch path now enforces via its stall
/// detector.
fn graph_strategy() -> impl Strategy<Value = MatchingGraph> {
    // The vendored proptest subset has no `prop_flat_map`, so draw
    // max-size ingredient pools and consume only the prefix each sampled
    // `n` needs, folding raw picks into valid node indices by modulus.
    (
        2usize..=10,
        proptest::collection::vec((0u32..u32::MAX, 1u32..=45, 0u64..4), 9),
        proptest::collection::vec((0u32..u32::MAX, 0u32..u32::MAX, 1u32..=45, 0u64..4), 0..=6),
        proptest::collection::vec((0u32..u32::MAX, 1u32..=45, 0u64..4), 1..=4),
    )
        .prop_map(|(n, tree, extras, boundaries)| {
            let mut g = MatchingGraph::new(n);
            for (i, &(pick, w, obs)) in tree.iter().take(n - 1).enumerate() {
                let child = (i + 1) as u32;
                let parent = pick % child; // uniform over already-placed nodes
                g.add_edge(parent, Some(child), f64::from(w) / 100.0, obs);
            }
            for &(u, v, w, obs) in &extras {
                let (u, v) = (u % n as u32, v % n as u32);
                if u != v {
                    g.add_edge(u, Some(v), f64::from(w) / 100.0, obs);
                }
            }
            for &(u, w, obs) in &boundaries {
                g.add_edge(u % n as u32, None, f64::from(w) / 100.0, obs);
            }
            g
        })
}

/// Deterministic syndrome battery for a given node count: the adversarial
/// corners (empty, all-on, alternating, each singleton) plus an LCG sweep
/// of random patterns.
fn syndrome_battery(n: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut battery = vec![
        vec![false; n],
        vec![true; n],
        (0..n).map(|i| i % 2 == 0).collect::<Vec<bool>>(),
    ];
    for d in 0..n {
        let mut s = vec![false; n];
        s[d] = true;
        battery.push(s);
    }
    let mut state = seed | 1;
    for _ in 0..24 {
        battery.push(
            (0..n)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (state >> 33) & 1 == 1
                })
                .collect(),
        );
    }
    battery
}

/// Packs syndromes into a detector table (one shot per syndrome) with an
/// LCG-filled observable row, the shape `assert_decode_paths_agree` wants.
fn pack(syndromes: &[Vec<bool>], n: usize, seed: u64) -> (BitTable, BitTable) {
    let mut detectors = BitTable::new(n, syndromes.len());
    let mut observables = BitTable::new(1, syndromes.len());
    let mut state = seed | 1;
    for (shot, syn) in syndromes.iter().enumerate() {
        for (d, &s) in syn.iter().enumerate() {
            detectors.set(d, shot, s);
        }
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        observables.set(0, shot, (state >> 33) & 1 == 1);
    }
    (detectors, observables)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every decode path — one fresh scratch reused across the whole
    /// battery, the sparse defect-list entry, and the packed batch path —
    /// reproduces `decode_reference` bit for bit on random graphs under
    /// random and adversarial syndromes.
    fn scratch_and_batch_match_reference(
        graph in graph_strategy(),
        seed in 0u64..u64::MAX,
    ) {
        let uf = UnionFindDecoder::new(&graph);
        let n = uf.num_nodes();
        let battery = syndrome_battery(n, seed);
        let mut scratch = uf.new_scratch();
        for syn in &battery {
            let reference = decode_reference(&graph, syn);
            prop_assert_eq!(uf.decode_with(&mut scratch, syn), reference);
            let defects: Vec<u32> = syn
                .iter()
                .enumerate()
                .filter_map(|(i, &s)| s.then_some(i as u32))
                .collect();
            prop_assert_eq!(uf.decode_defects(&mut scratch, &defects), reference);
        }
        let (detectors, observables) = pack(&battery, n, seed ^ 0x9e3779b97f4a7c15);
        assert_decode_paths_agree(&graph, &detectors, &observables);
    }

    /// Scratch reuse leaves no residue: a syndrome decodes to the same
    /// answer before and after 1000 interleaved decodes of unrelated
    /// patterns through the same arena (epoch reset discipline).
    fn scratch_is_stateless_across_thousand_decodes(
        graph in graph_strategy(),
        seed in 0u64..u64::MAX,
    ) {
        let uf = UnionFindDecoder::new(&graph);
        let n = uf.num_nodes();
        let probe: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let expected = decode_reference(&graph, &probe);
        let mut scratch = uf.new_scratch();
        prop_assert_eq!(uf.decode_with(&mut scratch, &probe), expected);
        let mut state = seed | 1;
        let mut syn = vec![false; n];
        for _ in 0..1000 {
            for s in syn.iter_mut() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                *s = (state >> 33) & 1 == 1;
            }
            uf.decode_with(&mut scratch, &syn);
        }
        prop_assert_eq!(uf.decode_with(&mut scratch, &probe), expected);
    }
}

/// A hub graph: node 0 joins each of `spokes` spoke nodes by three
/// parallel edges with observable masks 0, 1 and 2, and carries two
/// parallel boundary edges; every third spoke has a boundary edge of its
/// own and consecutive spokes are chained. Edge probabilities come from an
/// LCG on `seed`, so growth lengths differ edge to edge.
fn hub_graph(spokes: u32, seed: u64) -> MatchingGraph {
    let mut state = seed | 1;
    let mut p = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        0.01 + 0.3 * ((state >> 40) as f64 / (1u64 << 24) as f64)
    };
    let mut g = MatchingGraph::new(spokes as usize + 1);
    g.add_edge(0, None, p(), 0);
    g.add_edge(0, None, p(), 1);
    for s in 1..=spokes {
        for obs in 0..3 {
            g.add_edge(0, Some(s), p(), obs);
        }
        if s % 3 == 0 {
            g.add_edge(s, None, p(), 2);
        }
        if s > 1 {
            g.add_edge(s - 1, Some(s), p(), 0);
        }
    }
    g
}

/// Every decode path agrees with `decode_reference` on hub graphs whose
/// centre has 137 incidences (three mask words), under the adversarial
/// corners and LCG syndromes of the proptest battery.
#[test]
fn hub_graphs_match_reference() {
    for seed in [3u64, 17, 2024] {
        let graph = hub_graph(45, seed);
        let hub_degree = graph.adjacency()[0].len();
        assert!(hub_degree >= 100, "hub degree {hub_degree}");
        let n = graph.num_nodes();
        let battery = syndrome_battery(n, seed);
        let (detectors, observables) = pack(&battery, n, seed ^ 0x9e3779b97f4a7c15);
        assert_decode_paths_agree(&graph, &detectors, &observables);
    }
}

/// Every decode path agrees with `decode_reference` on sampled syndromes
/// of real surface-memory graphs at the Fig. 7 noise point (ancilla
/// coherence 0.1 ms, data/ancilla coherence ratios 1 and 5): 1024 shots at
/// d = 3 and 5, 256 at d = 7 and 9.
#[test]
fn surface_memory_graphs_match_reference() {
    let pool = WorkerPool::new(1);
    for (d, shots) in [(3, 1024), (5, 1024), (7, 256), (9, 256)] {
        for ratio in [1.0, 5.0] {
            let noise = SurfaceNoise {
                t_data: ratio * 0.1e-3,
                t_anc: 0.1e-3,
                ..SurfaceNoise::default()
            };
            let mem = SurfaceMemory::new(d, d, noise);
            let graph = mem.matching_graph();
            let samples = sample_detectors(&pool, &mem.circuit(), shots, 7 + d as u64);
            let failures =
                assert_decode_paths_agree(&graph, &samples.detectors, &samples.observables);
            assert!(
                failures > 0,
                "d={d} ratio={ratio}: no logical failures sampled"
            );
        }
    }
}

/// The same agreement on the dense conditioned syndromes of the rare-event
/// strata: exactly `w` faults per shot, at the deep-subthreshold noise
/// point of the rare-event benchmark (10 s coherence, p1 = 2e-5,
/// p2 = 2e-4, p_meas = 1e-4).
#[test]
fn conditioned_strata_match_reference() {
    let pool = WorkerPool::new(1);
    let noise = SurfaceNoise {
        t_data: 10.0,
        t_anc: 10.0,
        p1: 2e-5,
        p2: 2e-4,
        p_meas: 1e-4,
        ..SurfaceNoise::default()
    };
    let mem = SurfaceMemory::new(5, 5, noise);
    let circuit = mem.circuit();
    let model = FaultModel::from_circuit(&circuit);
    let graph = mem.matching_graph();
    for w in 2..=4 {
        let shots = 512;
        let frames = sample_at_weight(&circuit, &model, w, shots, 90 + w as u64, &pool);
        let samples = assemble_detectors(&circuit, &frames.meas_flips, shots);
        assert_decode_paths_agree(&graph, &samples.detectors, &samples.observables);
    }
}

/// The sharded surface decode loop sums per-shard failure counts, so the
/// logical error rate must be bit-identical for every worker count.
#[test]
fn logical_error_rate_is_worker_count_invariant() {
    let mem = SurfaceMemory::new(3, 3, SurfaceNoise::default());
    let baseline =
        mem.logical_error_rate_on(&WorkerPool::new(1), SurfaceDecoder::UnionFind, 4096, 71);
    for workers in [2, 8] {
        let rate = mem.logical_error_rate_on(
            &WorkerPool::new(workers),
            SurfaceDecoder::UnionFind,
            4096,
            71,
        );
        assert_eq!(rate, baseline, "{workers} workers diverged");
    }
}

/// Same invariance for the rare-event stratified path, which mixes the
/// enumerated per-shot callback with sharded batch counting.
#[test]
fn rare_event_report_is_worker_count_invariant() {
    let mem = SurfaceMemory::new(3, 2, SurfaceNoise::default());
    let config = RareConfig {
        max_strata: 5,
        shots_per_stratum: 512,
        enumerate_threshold: 128,
        ..RareConfig::default()
    };
    let baseline =
        mem.logical_error_rate_rare_on(&WorkerPool::new(1), SurfaceDecoder::UnionFind, config, 29);
    for workers in [2, 8] {
        let outcome = mem.logical_error_rate_rare_on(
            &WorkerPool::new(workers),
            SurfaceDecoder::UnionFind,
            config,
            29,
        );
        assert_eq!(
            outcome.report(),
            baseline.report(),
            "{workers} workers diverged"
        );
    }
}
