//! The homogeneous "sea-of-qubits" baseline (paper §4 preamble, §4.2.2).
//!
//! A square lattice of identical compute qubits. Codes whose checks are
//! square-lattice-native (the surface codes) run with parallel extraction
//! and no routing; everything else pays SWAP-chain routing costs, which is
//! why the paper's non-planar codes lose badly here. The router substitutes
//! for the paper's Qiskit transpiler at its highest optimization level: a
//! greedy nearest-placement embedding plus shortest-path SWAP insertion,
//! which converges to the same first-order SWAP counts for these small
//! circuits.

use hetarch_exec::WorkerPool;
use serde::{Deserialize, Serialize};

use hetarch_qsim::channels::IdleParams;
use hetarch_stab::codes::StabilizerCode;

use crate::faults::{
    assert_frame_width, plain_rate, FaultDriver, ShotMetrics, ShotModel, SiteProgram,
};
use crate::uec::sim::{combine, uniform, CycleDecoder, UecNoise};

// Homogeneous-baseline Monte-Carlo metrics.
static HOM_METRICS: ShotMetrics = ShotMetrics::new(
    "modules.baseline.shots",
    "modules.baseline.failures",
    "modules.baseline.run_ns",
);

/// A square-lattice embedding of a code: data coordinates plus one ancilla
/// coordinate per stabilizer, with per-qubit routing distances.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Embedding {
    /// Data-qubit coordinates.
    pub data: Vec<(i32, i32)>,
    /// Ancilla coordinates, one per stabilizer generator.
    pub ancillas: Vec<(i32, i32)>,
    /// For each stabilizer, for each support qubit: SWAPs needed to bring it
    /// adjacent to the ancilla (0 when already adjacent).
    pub route_swaps: Vec<Vec<usize>>,
    /// True when the embedding is check-native (no routing anywhere).
    pub native: bool,
}

impl Embedding {
    /// Total SWAP count of one full round of checks.
    pub fn total_swaps(&self) -> usize {
        self.route_swaps.iter().flatten().sum()
    }
}

/// Embeds `code` in the square lattice.
///
/// Surface codes are native by construction (each ancilla sits inside its
/// plaquette). Other codes get the greedy embedding: data qubits in a
/// near-square grid at even coordinates, each ancilla at the free lattice
/// site closest to the centroid of its support; each support qubit then
/// needs `manhattan distance − 1` SWAPs to reach the ancilla.
pub fn embed(code: &StabilizerCode) -> Embedding {
    let native = code.name().starts_with("SC");
    let n = code.num_qubits();
    let cols = (n as f64).sqrt().ceil() as i32;
    let data: Vec<(i32, i32)> = (0..n as i32)
        .map(|q| (2 * (q / cols), 2 * (q % cols)))
        .collect();
    let mut used: Vec<(i32, i32)> = data.clone();
    let mut ancillas = Vec::new();
    let mut route_swaps = Vec::new();
    for s in code.stabilizers() {
        let support: Vec<usize> = s.iter_support().map(|(q, _)| q).collect();
        let cx: f64 = support.iter().map(|&q| data[q].0 as f64).sum::<f64>() / support.len() as f64;
        let cy: f64 = support.iter().map(|&q| data[q].1 as f64).sum::<f64>() / support.len() as f64;
        // Nearest free site to the centroid.
        let mut best: Option<((i32, i32), i64)> = None;
        let (rx, ry) = (cx.round() as i32, cy.round() as i32);
        for dx in -3..=3 {
            for dy in -3..=3 {
                let p = (rx + dx, ry + dy);
                if used.contains(&p) {
                    continue;
                }
                let d = support
                    .iter()
                    .map(|&q| ((data[q].0 - p.0).abs() + (data[q].1 - p.1).abs()) as i64)
                    .sum::<i64>();
                if best.map(|(_, bd)| d < bd).unwrap_or(true) {
                    best = Some((p, d));
                }
            }
        }
        let (pos, _) = best.expect("a free site exists within radius 3");
        used.push(pos);
        ancillas.push(pos);
        let swaps: Vec<usize> = support
            .iter()
            .map(|&q| {
                if native {
                    0
                } else {
                    let d = (data[q].0 - pos.0).abs() + (data[q].1 - pos.1).abs();
                    (d as usize).saturating_sub(1)
                }
            })
            .collect();
        route_swaps.push(swaps);
    }
    Embedding {
        data,
        ancillas,
        route_swaps,
        native,
    }
}

/// Greedy layer coloring: checks whose supports overlap go in different
/// layers; layers execute sequentially, checks within a layer in parallel.
pub fn layer_checks(code: &StabilizerCode) -> Vec<Vec<usize>> {
    let supports: Vec<Vec<usize>> = code
        .stabilizers()
        .iter()
        .map(|s| s.iter_support().map(|(q, _)| q).collect())
        .collect();
    let mut layers: Vec<Vec<usize>> = Vec::new();
    for (i, sup) in supports.iter().enumerate() {
        let slot = layers.iter_mut().find(|layer| {
            layer
                .iter()
                .all(|&j| supports[j].iter().all(|q| !sup.contains(q)))
        });
        match slot {
            Some(layer) => layer.push(i),
            None => layers.push(vec![i]),
        }
    }
    layers
}

/// The homogeneous baseline module: parallel (layered) checks on a square
/// lattice with routing overhead.
#[derive(Clone, Debug)]
pub struct HomModule {
    embedding: Embedding,
    layers: Vec<Vec<usize>>,
    decoder: CycleDecoder,
    t_2q: f64,
    t_meas: f64,
    program: SiteProgram,
}

/// Result of a homogeneous baseline run.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct HomResult {
    /// Logical error probability per QEC cycle.
    pub logical_error_rate: f64,
    /// Cycle duration (seconds).
    pub cycle_duration: f64,
    /// Total routing SWAPs per cycle.
    pub swaps_per_cycle: usize,
}

impl HomModule {
    /// Builds the baseline for `code` with compute coherence `tc`
    /// (`T1 = T2 = tc`), 100 ns two-qubit gates and 1 µs readout.
    ///
    /// # Panics
    ///
    /// Panics if the code has more than 64 qubits (the width of the shot's
    /// Pauli frame) or `tc` is not a physical coherence time.
    pub fn new(code: StabilizerCode, tc: f64, noise: UecNoise) -> Self {
        assert_frame_width(&code);
        let embedding = embed(&code);
        let layers = layer_checks(&code);
        let weight_cap = (code.distance().div_ceil(2)).clamp(1, 3);
        let decoder = CycleDecoder::new(&code, weight_cap, &layers);
        let mut module = HomModule {
            embedding,
            layers,
            decoder,
            t_2q: 100e-9,
            t_meas: 1e-6,
            program: SiteProgram::default(),
        };
        let idle = IdleParams::new(tc, tc).expect("physical coherence");
        module.program = module.compile(&code, idle, noise);
        module
    }

    /// The embedding in use.
    pub fn embedding(&self) -> &Embedding {
        &self.embedding
    }

    /// Duration of one extraction layer: routing CX-chains (2 extra CXs per
    /// lattice hop — parity is collected along a path and uncomputed, the
    /// cheapest pattern the transpiler finds), the check CXs, and the
    /// readout.
    fn layer_duration(&self, layer: &[usize]) -> f64 {
        let mut worst: f64 = 0.0;
        for &s in layer {
            let w = self.embedding.route_swaps[s].len();
            let max_hops = self.embedding.route_swaps[s]
                .iter()
                .copied()
                .max()
                .unwrap_or(0);
            let d = (w as f64 + 2.0 * max_hops as f64) * self.t_2q + self.t_meas;
            worst = worst.max(d);
        }
        worst
    }

    /// Total cycle duration.
    pub fn cycle_duration(&self) -> f64 {
        self.layers.iter().map(|l| self.layer_duration(l)).sum()
    }

    /// Runs `shots` Monte-Carlo cycles on `pool`.
    ///
    /// Shots are sharded with the same `(seed, shard)` contract as
    /// [`crate::uec::UecModule`]: the result is bit-identical for every
    /// worker count. `shots == 0` reports zero. For the rare-event estimator
    /// or a cancellation token, call [`estimate`](crate::faults::estimate)
    /// on the module directly.
    pub fn logical_error_rate_on(&self, pool: &WorkerPool, shots: usize, seed: u64) -> HomResult {
        HomResult {
            logical_error_rate: plain_rate(self, pool, shots, seed),
            cycle_duration: self.cycle_duration(),
            swaps_per_cycle: self.embedding.total_swaps(),
        }
    }

    /// Compiles one layered cycle into its site program: per layer, idling
    /// on every data qubit, then per check the gate noise of its CX plus
    /// routing chain (2 extra CXs per lattice hop) on each support qubit
    /// and the measurement, whose ancilla flips through its CXs, the idle
    /// and the readout.
    fn compile(&self, code: &StabilizerCode, idle: IdleParams, noise: UecNoise) -> SiteProgram {
        let stabs = code.stabilizers();
        let mut program = SiteProgram::default();
        for layer in &self.layers {
            let layer_idle = idle.twirl_probs(self.layer_duration(layer));
            for q in 0..code.num_qubits() {
                program.pauli(q, layer_idle);
            }
            for &s in layer {
                let support: Vec<usize> = stabs[s].iter_support().map(|(q, _)| q).collect();
                for (&q, &swaps) in support.iter().zip(&self.embedding.route_swaps[s]) {
                    let p_cx = noise.p2q * 4.0 / 15.0;
                    let n_gates = 1 + 2 * swaps;
                    let p = 1.0 - (1.0 - 3.0 * p_cx).powi(n_gates as i32);
                    program.pauli(q, uniform(p / 3.0));
                }
                let w = support.len();
                let p_gate_anc = 1.0 - (1.0 - 8.0 / 15.0 * noise.p2q).powi(w as i32);
                let p_flip = combine(
                    combine(p_gate_anc, layer_idle.px + layer_idle.py),
                    noise.meas_flip,
                );
                program.measure(s, &stabs[s], p_flip);
            }
        }
        program
    }
}

impl ShotModel for HomModule {
    fn metrics(&self) -> &'static ShotMetrics {
        &HOM_METRICS
    }

    fn run_shot<D: FaultDriver>(&self, driver: &mut D) -> bool {
        let (syndrome, frame) = self.program.run(driver);
        self.decoder.fails(syndrome, frame)
    }
}

/// The homogeneous baseline for surface codes: the known-optimal square
/// lattice transpilation is the standard parallel extraction circuit, so the
/// paper evaluates those with the full circuit-level pipeline rather than the
/// generic router. Returns the logical error rate **per round**, estimated
/// on `pool`.
pub fn hom_surface_logical_error(
    pool: &WorkerPool,
    d: usize,
    tc: f64,
    noise: UecNoise,
    shots: usize,
    seed: u64,
) -> f64 {
    use hetarch_stab::codes::{SurfaceDecoder, SurfaceMemory, SurfaceNoise};
    let sn = SurfaceNoise {
        t_data: tc,
        t_anc: tc,
        p1: 0.0,
        p2: noise.p2q,
        p_meas: noise.meas_flip,
        ..SurfaceNoise::default()
    };
    let (_, per_round) = SurfaceMemory::new(d, d, sn).logical_error_rate_on(
        pool,
        SurfaceDecoder::UnionFind,
        shots,
        seed,
    );
    per_round
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{estimate, Estimator, RunCtx};
    use hetarch_exec::rare::RareConfig;
    use hetarch_stab::codes::{color_17, reed_muller_15, rotated_surface_code, steane};

    #[test]
    fn surface_codes_are_native() {
        for d in [3, 4] {
            let e = embed(&rotated_surface_code(d));
            assert!(e.native);
            assert_eq!(e.total_swaps(), 0);
        }
    }

    #[test]
    fn non_planar_codes_need_routing() {
        for code in [steane(), color_17(), reed_muller_15()] {
            let e = embed(&code);
            assert!(!e.native);
            assert!(
                e.total_swaps() > 0,
                "{} should need SWAPs on a square lattice",
                code.name()
            );
        }
    }

    #[test]
    fn reed_muller_routes_worst() {
        // The non-planar RM code has weight-8 checks: it should need more
        // routing than Steane's weight-4 planar-ish checks.
        let rm = embed(&reed_muller_15()).total_swaps();
        let st = embed(&steane()).total_swaps();
        assert!(rm > st, "RM swaps {rm} vs Steane swaps {st}");
    }

    #[test]
    fn layers_partition_all_checks() {
        for code in [steane(), rotated_surface_code(3)] {
            let layers = layer_checks(&code);
            let total: usize = layers.iter().map(|l| l.len()).sum();
            assert_eq!(total, code.stabilizers().len());
            // Within a layer, supports are disjoint.
            for layer in &layers {
                let mut seen = std::collections::HashSet::new();
                for &s in layer {
                    for (q, _) in code.stabilizers()[s].iter_support() {
                        assert!(seen.insert(q), "{}: overlapping layer", code.name());
                    }
                }
            }
        }
    }

    #[test]
    fn surface_code_beats_non_native_codes_homogeneously() {
        let noise = UecNoise::default();
        let shots = 4000;
        let sc = HomModule::new(rotated_surface_code(3), 0.5e-3, noise).logical_error_rate_on(
            &WorkerPool::new(4),
            shots,
            5,
        );
        let rm = HomModule::new(reed_muller_15(), 0.5e-3, noise).logical_error_rate_on(
            &WorkerPool::new(4),
            shots,
            5,
        );
        assert!(
            sc.logical_error_rate < rm.logical_error_rate,
            "native SC3 ({}) should beat routed RM ({})",
            sc.logical_error_rate,
            rm.logical_error_rate
        );
    }

    #[test]
    fn cycle_duration_accounts_for_routing() {
        let noise = UecNoise::default();
        let sc = HomModule::new(rotated_surface_code(3), 0.5e-3, noise);
        let rm = HomModule::new(reed_muller_15(), 0.5e-3, noise);
        assert!(rm.cycle_duration() > sc.cycle_duration());
    }

    #[test]
    fn rare_estimator_tracks_plain_baseline() {
        let m = HomModule::new(steane(), 0.5e-3, UecNoise::default());
        let shots = 20_000;
        let plain = m
            .logical_error_rate_on(&WorkerPool::new(4), shots, 29)
            .logical_error_rate;
        let plain_sigma = (plain * (1.0 - plain) / shots as f64).sqrt();
        let config = RareConfig {
            max_strata: 24,
            rel_tol: 0.02,
            shots_per_stratum: 4_000,
            ..RareConfig::default()
        };
        let ctx = RunCtx {
            pool: &WorkerPool::new(4),
            seed: 31,
            cancel: None,
        };
        let report = estimate(&m, Estimator::Rare(config), &ctx)
            .unwrap()
            .into_rare()
            .unwrap()
            .into_report();
        assert!(report.p_l > 0.0);
        let tolerance = 5.0 * (plain_sigma + report.sigma) + report.truncation_bound;
        assert!(
            (report.p_l - plain).abs() <= tolerance,
            "stratified {} vs plain {plain} (tolerance {tolerance})",
            report.p_l
        );
    }
}
