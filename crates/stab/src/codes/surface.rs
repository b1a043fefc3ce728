//! Rotated planar surface code: lattice, memory circuits with HetArch's
//! heterogeneous noise model, and the matching graph used for decoding.
//!
//! This module reproduces the substrate behind the paper's planar surface
//! code study (§4.2.1, Figs. 6–7): a circuit-level Monte-Carlo memory
//! experiment in which **data** and **ancilla** qubits may have different
//! coherence times (`T_CD`, `T_CA`).

use serde::{Deserialize, Serialize};

use hetarch_exec::rare::{self, RareConfig, RareOutcome};
use hetarch_exec::WorkerPool;
use hetarch_obs as obs;

use crate::circuit::{Circuit, PauliErr};
use crate::codes::code::{typed_string, StabilizerCode};
use crate::decoder::graph::MatchingGraph;
use crate::decoder::greedy::GreedyMatchingDecoder;
use crate::decoder::unionfind::UnionFindDecoder;
use crate::detector::{assemble_detectors, sample_detectors, DetectorSamples};
use crate::frame::{run_configs, sample_conditioned, FaultModel};
use crate::pauli::Pauli;

/// Shots per decoding shard; fixed so shard boundaries never depend on the
/// worker count.
const DECODE_SHARD_SHOTS: usize = 1024;

// Surface-memory Monte-Carlo metrics (no-ops unless the `obs` feature is on
// and `HETARCH_OBS=1`).
static SURFACE_SHOTS: obs::Counter = obs::Counter::new("stab.surface.shots");
static SURFACE_FAILURES: obs::Counter = obs::Counter::new("stab.surface.failures");
static SURFACE_RUN_NS: obs::Histogram = obs::Histogram::new("stab.surface.run_ns");

/// One stabilizer plaquette of the rotated lattice.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Plaquette {
    /// Face row in `0..=d`.
    pub row: usize,
    /// Face column in `0..=d`.
    pub col: usize,
    /// True for a Z-type stabilizer (detects X errors).
    pub is_z: bool,
    /// Data-qubit indices (2 for boundary faces, 4 in the bulk).
    pub data: Vec<u32>,
}

/// The rotated surface-code lattice of distance `d`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SurfaceLattice {
    /// Code distance.
    pub d: usize,
    /// All stabilizer plaquettes, Z-type first.
    pub faces: Vec<Plaquette>,
    /// Number of Z-type faces (they are `faces[..num_z]`).
    pub num_z: usize,
}

impl SurfaceLattice {
    /// Builds the lattice for distance `d ≥ 2`.
    ///
    /// Data qubit `(r, c)` has index `r·d + c`. Bulk faces are checkerboard
    /// (`Z` when `row + col` is even); weight-2 boundary faces are X-type on
    /// the top/bottom edges and Z-type on the left/right edges, so the
    /// logical Z runs along row 0 and the logical X along column 0.
    ///
    /// # Panics
    ///
    /// Panics if `d < 2`.
    pub fn new(d: usize) -> Self {
        assert!(d >= 2, "surface code distance must be at least 2");
        let mut z_faces = Vec::new();
        let mut x_faces = Vec::new();
        for row in 0..=d {
            for col in 0..=d {
                let mut data = Vec::new();
                for (dr, dc) in [(-1i32, -1i32), (-1, 0), (0, -1), (0, 0)] {
                    let r = row as i32 + dr;
                    let c = col as i32 + dc;
                    if r >= 0 && r < d as i32 && c >= 0 && c < d as i32 {
                        data.push((r as usize * d + c as usize) as u32);
                    }
                }
                let is_z = (row + col) % 2 == 0;
                let keep = match data.len() {
                    4 => true,
                    2 => {
                        let top_bottom = row == 0 || row == d;
                        // Top/bottom boundary: X-type only; left/right: Z-type.
                        (top_bottom && !is_z) || (!top_bottom && is_z)
                    }
                    _ => false,
                };
                if keep {
                    if is_z {
                        z_faces.push(Plaquette {
                            row,
                            col,
                            is_z,
                            data,
                        });
                    } else {
                        x_faces.push(Plaquette {
                            row,
                            col,
                            is_z,
                            data,
                        });
                    }
                }
            }
        }
        let num_z = z_faces.len();
        z_faces.extend(x_faces);
        SurfaceLattice {
            d,
            faces: z_faces,
            num_z,
        }
    }

    /// Number of data qubits `d²`.
    pub fn num_data(&self) -> usize {
        self.d * self.d
    }

    /// Total qubits including one ancilla per face.
    pub fn num_qubits(&self) -> usize {
        self.num_data() + self.faces.len()
    }

    /// Ancilla qubit index of face `f`.
    pub fn ancilla(&self, f: usize) -> u32 {
        (self.num_data() + f) as u32
    }

    /// Data-qubit indices of the logical Z operator (row 0).
    pub fn logical_z_support(&self) -> Vec<u32> {
        (0..self.d as u32).collect()
    }

    /// Data-qubit indices of the logical X operator (column 0).
    pub fn logical_x_support(&self) -> Vec<u32> {
        (0..self.d as u32).map(|r| r * self.d as u32).collect()
    }

    /// For each data qubit, the Z-face indices adjacent to it (1 or 2).
    pub fn z_faces_of_data(&self) -> Vec<Vec<usize>> {
        self.faces_of_data(0..self.num_z)
    }

    /// For each data qubit, the X-face indices adjacent to it (1 or 2),
    /// reported as absolute face indices.
    pub fn x_faces_of_data(&self) -> Vec<Vec<usize>> {
        self.faces_of_data(self.num_z..self.faces.len())
    }

    fn faces_of_data(&self, range: std::ops::Range<usize>) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.num_data()];
        for f in range {
            for &q in &self.faces[f].data {
                out[q as usize].push(f);
            }
        }
        out
    }
}

/// Extracts the abstract [`StabilizerCode`] of the rotated surface code
/// (used by the UEC module, where checks are serialized).
///
/// # Examples
///
/// ```
/// use hetarch_stab::codes::surface::rotated_surface_code;
///
/// let c = rotated_surface_code(3);
/// assert_eq!(c.num_qubits(), 9);
/// assert_eq!(c.stabilizers().len(), 8);
/// assert_eq!(c.brute_force_distance(), 3);
/// ```
pub fn rotated_surface_code(d: usize) -> StabilizerCode {
    let lat = SurfaceLattice::new(d);
    let n = lat.num_data();
    let mut stabs = Vec::new();
    for face in &lat.faces {
        let support: Vec<usize> = face.data.iter().map(|&q| q as usize).collect();
        let pauli = if face.is_z { Pauli::Z } else { Pauli::X };
        stabs.push(typed_string(n, pauli, &support));
    }
    let logical_z: Vec<usize> = (0..d).collect(); // row 0
    let logical_x: Vec<usize> = (0..d).map(|r| r * d).collect(); // column 0
    StabilizerCode::new(
        format!("SC{d}"),
        n,
        d,
        stabs,
        vec![typed_string(n, Pauli::X, &logical_x)],
        vec![typed_string(n, Pauli::Z, &logical_z)],
    )
    .expect("rotated surface code is valid")
}

/// Circuit-level noise model with heterogeneous data/ancilla coherence
/// (times in seconds).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SurfaceNoise {
    /// Data-qubit coherence time (T1 = T2 = T_CD).
    pub t_data: f64,
    /// Ancilla-qubit coherence time (T1 = T2 = T_CA).
    pub t_anc: f64,
    /// Single-qubit gate duration.
    pub t_1q: f64,
    /// Two-qubit gate duration.
    pub t_2q: f64,
    /// Measurement (+reset) duration.
    pub t_meas: f64,
    /// Single-qubit gate depolarizing probability.
    pub p1: f64,
    /// Two-qubit gate depolarizing probability.
    pub p2: f64,
    /// Classical readout flip probability.
    pub p_meas: f64,
}

impl Default for SurfaceNoise {
    /// The paper's §4.2.1 settings: `T_C = 0.1 ms` baseline coherence,
    /// 40 ns single-qubit gates with coherence-limited error, 100 ns
    /// two-qubit gates at 1% error, 1 µs error-free readout.
    fn default() -> Self {
        SurfaceNoise {
            t_data: 0.1e-3,
            t_anc: 0.1e-3,
            t_1q: 40e-9,
            t_2q: 100e-9,
            t_meas: 1e-6,
            p1: 1e-3,
            p2: 1e-2,
            p_meas: 0.0,
        }
    }
}

impl SurfaceNoise {
    /// Idle Pauli-twirl probabilities for duration `t` and coherence `tc`
    /// (with T1 = T2 = tc, the standard assumption in §4).
    pub fn idle_twirl(t: f64, tc: f64) -> PauliErr {
        let pxy = (1.0 - (-t / tc).exp()) / 4.0;
        let pz = ((1.0 - (-t / tc).exp()) / 2.0 - pxy).max(0.0);
        PauliErr {
            px: pxy,
            py: pxy,
            pz,
        }
    }

    /// Duration of one full syndrome-extraction round.
    pub fn round_duration(&self) -> f64 {
        2.0 * self.t_1q + 4.0 * self.t_2q + self.t_meas
    }
}

/// Which logical observable a memory experiment protects.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemoryBasis {
    /// Protects logical Z: data start in `|0…0⟩`, Z-face detectors, X errors
    /// are harmful.
    #[default]
    Z,
    /// Protects logical X: data start in `|+…+⟩`, X-face detectors, Z errors
    /// are harmful.
    X,
}

/// A prebuilt decoder shared across decoding shards.
///
/// Union-find decodes straight from the packed [`crate::bits::BitTable`]
/// through a per-shard scratch arena (allocation-free across the shard's
/// shots, with the all-zero-syndrome fast path); greedy matching keeps the
/// dense per-shot path.
enum ShardDecoder {
    UnionFind(UnionFindDecoder),
    Greedy(GreedyMatchingDecoder),
}

impl ShardDecoder {
    /// Counts decoder-prediction/observable mismatches over shots
    /// `start..start + len`.
    fn count_failures(&self, samples: &DetectorSamples, start: usize, len: usize) -> u64 {
        match self {
            ShardDecoder::UnionFind(uf) => uf.count_failures(
                &mut uf.new_scratch(),
                &samples.detectors,
                &samples.observables,
                0,
                start,
                len,
            ),
            ShardDecoder::Greedy(_) => {
                let mut failures = 0u64;
                self.for_each_shot(samples, start, len, |_, failed| {
                    failures += u64::from(failed);
                });
                failures
            }
        }
    }

    /// Reports every shot's failure bit to `on_shot(shot, failed)` — used
    /// where failures carry per-shot weights (enumerated rare strata).
    fn for_each_shot(
        &self,
        samples: &DetectorSamples,
        start: usize,
        len: usize,
        mut on_shot: impl FnMut(usize, bool),
    ) {
        match self {
            ShardDecoder::UnionFind(uf) => {
                let mut scratch = uf.new_scratch();
                uf.decode_shots(
                    &mut scratch,
                    &samples.detectors,
                    &samples.observables,
                    0,
                    start,
                    len,
                    on_shot,
                );
            }
            ShardDecoder::Greedy(greedy) => {
                let n_det = samples.detectors.rows();
                let mut syndrome = vec![false; n_det];
                for shot in start..start + len {
                    for (d, s) in syndrome.iter_mut().enumerate() {
                        *s = samples.detectors.get(d, shot);
                    }
                    let predicted = greedy.decode(&syndrome) & 1 == 1;
                    on_shot(shot, predicted != samples.observables.get(0, shot));
                }
            }
        }
    }
}

/// Decoder choice for the memory Monte Carlo.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SurfaceDecoder {
    /// Weighted union-find with peeling (the production decoder).
    #[default]
    UnionFind,
    /// Greedy shortest-path matching (ablation baseline).
    GreedyMatching,
}

/// A distance-`d`, `rounds`-round memory experiment.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SurfaceMemory {
    /// Code distance.
    pub d: usize,
    /// Number of noisy syndrome-extraction rounds.
    pub rounds: usize,
    /// Noise model.
    pub noise: SurfaceNoise,
    /// Protected basis.
    pub basis: MemoryBasis,
}

impl SurfaceMemory {
    /// Creates a Z-basis memory experiment (typically `rounds = d`).
    pub fn new(d: usize, rounds: usize, noise: SurfaceNoise) -> Self {
        assert!(rounds >= 1, "at least one round required");
        SurfaceMemory {
            d,
            rounds,
            noise,
            basis: MemoryBasis::Z,
        }
    }

    /// Creates an X-basis memory experiment.
    pub fn new_x(d: usize, rounds: usize, noise: SurfaceNoise) -> Self {
        SurfaceMemory {
            basis: MemoryBasis::X,
            ..SurfaceMemory::new(d, rounds, noise)
        }
    }

    /// Indices of the faces whose detectors this experiment tracks.
    fn relevant_faces(&self, lat: &SurfaceLattice) -> std::ops::Range<usize> {
        match self.basis {
            MemoryBasis::Z => 0..lat.num_z,
            MemoryBasis::X => lat.num_z..lat.faces.len(),
        }
    }

    /// Generates the noisy memory circuit with Z-type detectors and the
    /// logical-Z observable.
    pub fn circuit(&self) -> Circuit {
        let lat = SurfaceLattice::new(self.d);
        let noise = &self.noise;
        let mut c = Circuit::new(lat.num_qubits() as u32);
        let data: Vec<u32> = (0..lat.num_data() as u32).collect();
        let all_anc: Vec<u32> = (0..lat.faces.len()).map(|f| lat.ancilla(f)).collect();
        let x_anc: Vec<u32> = (lat.num_z..lat.faces.len())
            .map(|f| lat.ancilla(f))
            .collect();
        let relevant = self.relevant_faces(&lat);

        // CX layer schedule: the two face types use transposed corner orders
        // so that hook errors do not reduce the code distance.
        let order_x = [(-1i32, -1i32), (-1, 0), (0, -1), (0, 0)];
        let order_z = [(-1i32, -1i32), (0, -1), (-1, 0), (0, 0)];

        let idle_data = |c: &mut Circuit, t: f64| {
            c.pauli_noise(SurfaceNoise::idle_twirl(t, noise.t_data), &data);
        };
        let idle_anc_subset = |c: &mut Circuit, t: f64, qs: &[u32]| {
            c.pauli_noise(SurfaceNoise::idle_twirl(t, noise.t_anc), qs);
        };

        // X-basis memories start from |+...+>.
        if self.basis == MemoryBasis::X {
            c.h(&data);
            c.depolarize1(noise.p1, &data);
            c.tick();
        }
        let mut prev_round_meas: Option<Vec<usize>> = None;
        for round in 0..self.rounds {
            // Hadamards on X ancillas.
            c.h(&x_anc);
            c.depolarize1(noise.p1, &x_anc);
            idle_data(&mut c, noise.t_1q);
            c.tick();
            // Four CX layers.
            for layer in 0..4 {
                let mut pairs = Vec::new();
                let mut busy = vec![false; lat.num_qubits()];
                for (f, face) in lat.faces.iter().enumerate() {
                    let (dr, dc) = if face.is_z {
                        order_z[layer]
                    } else {
                        order_x[layer]
                    };
                    let r = face.row as i32 + dr;
                    let cc = face.col as i32 + dc;
                    if r < 0 || r >= self.d as i32 || cc < 0 || cc >= self.d as i32 {
                        continue;
                    }
                    let dq = (r as usize * self.d + cc as usize) as u32;
                    let anc = lat.ancilla(f);
                    let pair = if face.is_z { (dq, anc) } else { (anc, dq) };
                    busy[pair.0 as usize] = true;
                    busy[pair.1 as usize] = true;
                    pairs.push(pair);
                }
                c.cx(&pairs);
                c.depolarize2(noise.p2, &pairs);
                let idle_d: Vec<u32> = data
                    .iter()
                    .copied()
                    .filter(|&q| !busy[q as usize])
                    .collect();
                c.pauli_noise(SurfaceNoise::idle_twirl(noise.t_2q, noise.t_data), &idle_d);
                let idle_a: Vec<u32> = all_anc
                    .iter()
                    .copied()
                    .filter(|&q| !busy[q as usize])
                    .collect();
                idle_anc_subset(&mut c, noise.t_2q, &idle_a);
                c.tick();
            }
            // Hadamards back.
            c.h(&x_anc);
            c.depolarize1(noise.p1, &x_anc);
            idle_data(&mut c, noise.t_1q);
            c.tick();
            // Measure + reset all ancillas; data idles for the readout.
            let meas = c.measure_reset(&all_anc, noise.p_meas);
            idle_data(&mut c, noise.t_meas);
            c.tick();
            // Detectors on the protected basis' faces.
            for f in relevant.clone() {
                match &prev_round_meas {
                    None => {
                        c.detector(&[meas[f]]);
                    }
                    Some(prev) => {
                        c.detector(&[prev[f], meas[f]]);
                    }
                }
            }
            let _ = round;
            prev_round_meas = Some(meas);
        }
        // Final transversal data measurement (X basis rotates first).
        if self.basis == MemoryBasis::X {
            c.h(&data);
            c.depolarize1(noise.p1, &data);
            c.tick();
        }
        let fin = c.measure(&data, 0.0);
        let prev = prev_round_meas.expect("at least one round");
        for f in relevant.clone() {
            let face = &lat.faces[f];
            let mut refs: Vec<usize> = face.data.iter().map(|&q| fin[q as usize]).collect();
            refs.push(prev[f]);
            c.detector(&refs);
        }
        let support = match self.basis {
            MemoryBasis::Z => lat.logical_z_support(),
            MemoryBasis::X => lat.logical_x_support(),
        };
        let obs: Vec<usize> = support.iter().map(|&q| fin[q as usize]).collect();
        c.observable(0, &obs);
        c
    }

    /// Builds the space-time matching graph matching [`Self::circuit`]'s
    /// detector ordering (round-major, Z faces in lattice order).
    pub fn matching_graph(&self) -> MatchingGraph {
        let lat = SurfaceLattice::new(self.d);
        let noise = &self.noise;
        let relevant = self.relevant_faces(&lat);
        let face_offset = relevant.start;
        let n_rel = relevant.len();
        let det_rounds = self.rounds + 1; // rounds of ancilla + final data round
        let mut g = MatchingGraph::new(det_rounds * n_rel);
        let rel_of_data: Vec<Vec<usize>> = match self.basis {
            MemoryBasis::Z => lat.z_faces_of_data(),
            MemoryBasis::X => lat.x_faces_of_data(),
        };
        let support = match self.basis {
            MemoryBasis::Z => lat.logical_z_support(),
            MemoryBasis::X => lat.logical_x_support(),
        };
        let logical: Vec<bool> = {
            let mut v = vec![false; lat.num_data()];
            for q in support {
                v[q as usize] = true;
            }
            v
        };

        let combine = |a: f64, b: f64| a * (1.0 - b) + b * (1.0 - a);
        let round_t = noise.round_duration();
        // Probability that a data qubit suffers an X-component error per
        // round: idling plus the marginal of its CX depolarizing events.
        let idle = SurfaceNoise::idle_twirl(round_t, noise.t_data);
        let p_idle_x = idle.px + idle.py;
        // Probability that an ancilla measurement outcome is flipped.
        let anc_idle = SurfaceNoise::idle_twirl(round_t, noise.t_anc);
        let p_gate_anc = 1.0 - (1.0 - 8.0 / 15.0 * noise.p2).powi(4);
        let p_time = combine(noise.p_meas, combine(anc_idle.px + anc_idle.py, p_gate_anc));

        // Detector index: face indices are rebased to the relevant range.
        let det = |t: usize, f: usize| (t * n_rel + (f - face_offset)) as u32;
        // CX layer in which a face collects data qubit `q` (the schedule of
        // `circuit()`), used to orient space-time diagonals.
        let order_z = [(-1i32, -1i32), (0, -1), (-1, 0), (0, 0)];
        let order_x = [(-1i32, -1i32), (-1, 0), (0, -1), (0, 0)];
        let collect_layer = |f: usize, q: usize| -> usize {
            let face = &lat.faces[f];
            let order = if face.is_z { &order_z } else { &order_x };
            for (layer, (dr, dc)) in order.iter().enumerate() {
                let r = face.row as i32 + dr;
                let c = face.col as i32 + dc;
                if r >= 0
                    && c >= 0
                    && (r as usize) < self.d
                    && (c as usize) < self.d
                    && (r as usize * self.d + c as usize) == q
                {
                    return layer;
                }
            }
            usize::MAX
        };
        for (q, zfaces) in rel_of_data.iter().enumerate() {
            let n_cx = lat
                .faces
                .iter()
                .filter(|f| f.data.contains(&(q as u32)))
                .count();
            let p_gate = 1.0 - (1.0 - 8.0 / 15.0 * noise.p2).powi(n_cx as i32);
            let p_space = combine(p_idle_x, p_gate);
            let obs_mask = if logical[q] { 1 } else { 0 };
            for t in 0..det_rounds {
                match zfaces.as_slice() {
                    [a] => g.add_edge(det(t, *a), None, p_space, obs_mask),
                    [a, b] => g.add_edge(det(t, *a), Some(det(t, *b)), p_space, obs_mask),
                    other => panic!("data qubit adjacent to {} relevant faces", other.len()),
                }
            }
            // Space-time diagonals: an X landing between the two faces'
            // CX layers is seen by the later face this round and by the
            // earlier face only next round.
            if let [a, b] = zfaces.as_slice() {
                let (early, late) = if collect_layer(*a, q) <= collect_layer(*b, q) {
                    (*a, *b)
                } else {
                    (*b, *a)
                };
                let p_diag = p_gate / 2.0;
                for t in 0..self.rounds {
                    g.add_edge(det(t, late), Some(det(t + 1, early)), p_diag, obs_mask);
                }
            }
        }
        for f in relevant {
            for t in 0..self.rounds {
                g.add_edge(det(t, f), Some(det(t + 1, f)), p_time, 0);
            }
        }
        g
    }

    /// Runs the full Monte-Carlo memory experiment on `pool`: sample
    /// detectors, decode each shot with `which` decoder (the decoder
    /// ablation knob), and compare against the true observable.
    ///
    /// Returns `(logical_error_rate_per_shot, logical_error_rate_per_round)`.
    ///
    /// Shard boundaries and RNG streams depend only on `(shots, seed)`, so
    /// the result is **bit-identical for every worker count**. `shots == 0`
    /// reports a rate of zero.
    pub fn logical_error_rate_on(
        &self,
        pool: &WorkerPool,
        which: SurfaceDecoder,
        shots: usize,
        seed: u64,
    ) -> (f64, f64) {
        let circuit = self.circuit();
        let decoder = self.build_decoder(&circuit, which);
        let span = obs::span!(SURFACE_RUN_NS);
        let samples = sample_detectors(pool, &circuit, shots, seed);
        // Decoding is deterministic per shot, so sharding it only splits the
        // work; shot order inside the count is irrelevant to the sum. Each
        // shard owns one scratch arena, reused across its shots.
        let errors: u64 = pool
            .run_shards(shots, DECODE_SHARD_SHOTS, seed, |shard| {
                decoder.count_failures(&samples, shard.start, shard.len)
            })
            .into_iter()
            .sum();
        let errors = errors as usize;
        drop(span);
        SURFACE_SHOTS.add(shots as u64);
        SURFACE_FAILURES.add(errors as u64);
        if shots == 0 {
            return (0.0, 0.0);
        }
        let per_shot = errors as f64 / shots as f64;
        // Convert to a per-round rate: p_shot = 1 - (1-p_round)^rounds.
        let per_round = if per_shot >= 1.0 {
            1.0
        } else {
            1.0 - (1.0 - per_shot).powf(1.0 / self.rounds as f64)
        };
        (per_shot, per_round)
    }

    /// Instantiates the shared decoder for this memory's matching graph.
    fn build_decoder(&self, circuit: &Circuit, which: SurfaceDecoder) -> ShardDecoder {
        let graph = self.matching_graph();
        debug_assert_eq!(graph.num_nodes(), circuit.num_detectors());
        match which {
            SurfaceDecoder::UnionFind => ShardDecoder::UnionFind(UnionFindDecoder::new(&graph)),
            SurfaceDecoder::GreedyMatching => {
                ShardDecoder::Greedy(GreedyMatchingDecoder::new(&graph))
            }
        }
    }

    /// Rare-event logical error rate via weight-stratified importance
    /// sampling.
    ///
    /// Where the plain [`Self::logical_error_rate_on`] returns `0/N` for any
    /// deep-subthreshold point, this estimator resolves per-shot rates far
    /// below `1/shots` and reports an explicit error budget: the
    /// [`hetarch_exec::rare::RareReport`] carries `(p_L, sigma,
    /// truncation_bound)`. Strata with at most
    /// [`RareConfig::enumerate_threshold`] fault configurations are
    /// enumerated exactly (zero variance); larger strata draw
    /// [`RareConfig::shots_per_stratum`] conditioned shots. The walk stops
    /// once the exact prior tail is below `abs_tol.max(rel_tol · p̂_L)`, or
    /// returns [`RareOutcome::Unconverged`] when `max_strata` runs out
    /// first.
    ///
    /// The stratum policy is [`hetarch_exec::rare::stratified`]'s: stratum
    /// `w` samples under the seed `shard_seed(seed, w)`. Enumerated strata
    /// run as one batched frame pass; sampled strata keep
    /// [`crate::frame::sample_at_weight`]'s shards and streams. All
    /// conditioned sampling and decoding run through the sharded engine,
    /// so the full report is **bit-identical for every worker count**.
    pub fn logical_error_rate_rare_on(
        &self,
        pool: &WorkerPool,
        which: SurfaceDecoder,
        config: RareConfig,
        seed: u64,
    ) -> RareOutcome {
        let circuit = self.circuit();
        let decoder = self.build_decoder(&circuit, which);
        let model = FaultModel::from_circuit(&circuit);
        let span = obs::span!(SURFACE_RUN_NS);
        let outcome = rare::stratified(
            &model,
            config,
            seed,
            None,
            |configs| {
                let frames = run_configs(&circuit, &model, configs);
                let samples = assemble_detectors(&circuit, &frames.meas_flips, configs.len());
                let mut failure_probability = 0.0;
                decoder.for_each_shot(&samples, 0, configs.len(), |shot, failed| {
                    if failed {
                        failure_probability += configs[shot].weight;
                    }
                });
                Ok(failure_probability)
            },
            |sampler, shots, stratum_seed| {
                let frames =
                    sample_conditioned(&circuit, &model, sampler, shots, stratum_seed, pool);
                let samples = assemble_detectors(&circuit, &frames.meas_flips, shots);
                Ok(pool
                    .run_shards(shots, DECODE_SHARD_SHOTS, stratum_seed, |shard| {
                        decoder.count_failures(&samples, shard.start, shard.len)
                    })
                    .into_iter()
                    .sum())
            },
        )
        .expect("no token, no cancellation");
        drop(span);
        SURFACE_SHOTS.add(outcome.report().total_shots as u64);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::nondeterministic_detectors;

    /// The plain union-find rate on a fixed four-worker pool.
    pub(super) fn rate(mem: &SurfaceMemory, shots: usize, seed: u64) -> (f64, f64) {
        mem.logical_error_rate_on(&WorkerPool::new(4), SurfaceDecoder::UnionFind, shots, seed)
    }

    #[test]
    fn lattice_counts() {
        for d in [2, 3, 4, 5, 7] {
            let lat = SurfaceLattice::new(d);
            assert_eq!(lat.faces.len(), d * d - 1, "d={d}");
            assert_eq!(lat.num_z, (d * d - 1) / 2, "d={d}");
            // Every data qubit touches 1 or 2 Z faces.
            for z in lat.z_faces_of_data() {
                assert!(!z.is_empty() && z.len() <= 2);
            }
        }
    }

    #[test]
    fn surface_code_parameters() {
        for d in [2, 3, 4] {
            let code = rotated_surface_code(d);
            assert_eq!(code.num_qubits(), d * d);
            assert_eq!(code.stabilizers().len(), d * d - 1);
            assert!(code.is_css());
            assert_eq!(code.brute_force_distance(), d, "distance for d={d}");
        }
    }

    #[test]
    fn memory_circuit_detectors_are_deterministic() {
        let mem = SurfaceMemory::new(3, 2, SurfaceNoise::default());
        let c = mem.circuit();
        assert!(nondeterministic_detectors(&c).is_empty());
        // Detector count: (rounds + 1) * num_z.
        let lat = SurfaceLattice::new(3);
        assert_eq!(c.num_detectors(), 3 * lat.num_z);
        assert_eq!(c.num_detectors(), mem.matching_graph().num_nodes());
    }

    #[test]
    fn noiseless_memory_never_errs() {
        let noise = SurfaceNoise {
            t_data: 1e6,
            t_anc: 1e6,
            p1: 0.0,
            p2: 0.0,
            p_meas: 0.0,
            ..SurfaceNoise::default()
        };
        let mem = SurfaceMemory::new(3, 3, noise);
        let (per_shot, _) = rate(&mem, 200, 5);
        assert_eq!(per_shot, 0.0);
    }

    #[test]
    fn low_noise_is_handled_well() {
        let noise = SurfaceNoise {
            t_data: 1.0, // essentially no idle noise
            t_anc: 1.0,
            p1: 1e-4,
            p2: 1e-3,
            p_meas: 1e-3,
            ..SurfaceNoise::default()
        };
        let mem = SurfaceMemory::new(3, 3, noise);
        let (per_shot, _) = rate(&mem, 2000, 7);
        assert!(per_shot < 0.05, "low-noise d=3 logical rate {per_shot}");
    }

    #[test]
    fn distance_five_beats_distance_three_below_threshold() {
        let noise = SurfaceNoise {
            t_data: 2e-3,
            t_anc: 2e-3,
            p1: 2e-4,
            p2: 2e-3,
            p_meas: 2e-3,
            ..SurfaceNoise::default()
        };
        let shots = 20_000;
        let (p3, _) = rate(&SurfaceMemory::new(3, 3, noise), shots, 11);
        let (p5, _) = rate(&SurfaceMemory::new(5, 5, noise), shots, 13);
        assert!(p5 < p3, "below threshold d=5 ({p5}) should beat d=3 ({p3})");
    }

    #[test]
    fn rare_estimator_tracks_plain_estimator_at_high_noise() {
        // High enough noise for the plain estimator to be an oracle.
        let noise = SurfaceNoise {
            t_data: 2e-3,
            t_anc: 2e-3,
            p1: 2e-4,
            p2: 4e-3,
            p_meas: 2e-3,
            ..SurfaceNoise::default()
        };
        let mem = SurfaceMemory::new(3, 2, noise);
        let shots = 40_000;
        let (plain, _) = rate(&mem, shots, 31);
        let config = RareConfig {
            max_strata: 40,
            rel_tol: 0.02,
            shots_per_stratum: 6_000,
            ..RareConfig::default()
        };
        let outcome = mem.logical_error_rate_rare_on(
            &WorkerPool::new(4),
            SurfaceDecoder::UnionFind,
            config,
            33,
        );
        assert!(outcome.is_converged(), "{:?}", outcome.report());
        let report = outcome.report();
        assert!(report.p_l > 0.0);
        // Combined tolerance: plain sampling noise + stratified sigma +
        // truncation, at 5 sigma.
        let plain_sigma = (plain * (1.0 - plain) / shots as f64).sqrt();
        let tol = 5.0 * (plain_sigma + report.sigma) + report.truncation_bound;
        assert!(
            (report.p_l - plain).abs() <= tol,
            "stratified {} vs plain {plain} (tol {tol})",
            report.p_l
        );
    }

    #[test]
    fn rare_estimator_report_is_reproducible() {
        let mem = SurfaceMemory::new(3, 2, SurfaceNoise::default());
        let config = RareConfig {
            max_strata: 6,
            rel_tol: 0.5,
            shots_per_stratum: 1_500,
            enumerate_threshold: 256,
            ..RareConfig::default()
        };
        let pool = WorkerPool::new(2);
        let a = mem.logical_error_rate_rare_on(&pool, SurfaceDecoder::UnionFind, config, 9);
        let b = mem.logical_error_rate_rare_on(&pool, SurfaceDecoder::UnionFind, config, 9);
        assert_eq!(a, b, "same pool, same seed must reproduce bit-identically");
    }

    #[test]
    fn better_data_coherence_reduces_logical_error() {
        let base = SurfaceNoise::default();
        let better = SurfaceNoise {
            t_data: 0.5e-3,
            ..base
        };
        let shots = 8_000;
        let (p_base, _) = rate(&SurfaceMemory::new(3, 3, base), shots, 17);
        let (p_better, _) = rate(&SurfaceMemory::new(3, 3, better), shots, 17);
        assert!(
            p_better < p_base,
            "5x data coherence should help: {p_better} vs {p_base}"
        );
    }
}

#[cfg(test)]
mod xbasis_tests {
    use super::tests::rate;
    use super::*;
    use crate::detector::nondeterministic_detectors;

    #[test]
    fn x_memory_detectors_are_deterministic() {
        for d in [3usize, 5] {
            let mem = SurfaceMemory::new_x(d, 2, SurfaceNoise::default());
            let c = mem.circuit();
            assert!(
                nondeterministic_detectors(&c).is_empty(),
                "d={d} X-memory has nondeterministic detectors"
            );
            assert_eq!(c.num_detectors(), mem.matching_graph().num_nodes());
        }
    }

    #[test]
    fn x_memory_noiseless_never_errs() {
        let noise = SurfaceNoise {
            t_data: 1e6,
            t_anc: 1e6,
            p1: 0.0,
            p2: 0.0,
            p_meas: 0.0,
            ..SurfaceNoise::default()
        };
        let mem = SurfaceMemory::new_x(3, 3, noise);
        let (per_shot, _) = rate(&mem, 200, 5);
        assert_eq!(per_shot, 0.0);
    }

    #[test]
    fn x_and_z_memories_agree_under_symmetric_noise() {
        // With T1 = T2 (px = py = pz after twirling) and depolarizing gates,
        // the two bases should have statistically similar logical rates.
        let noise = SurfaceNoise::default();
        let shots = 8_000;
        let (_, pz) = rate(&SurfaceMemory::new(5, 5, noise), shots, 21);
        let (_, px) = rate(&SurfaceMemory::new_x(5, 5, noise), shots, 22);
        assert!(
            (px - pz).abs() < 0.5 * (px + pz),
            "X-memory {px} vs Z-memory {pz} should be within 50%"
        );
    }

    #[test]
    fn x_memory_detector_count_uses_x_faces() {
        let d = 4; // asymmetric counts: 7 Z faces vs 8 X faces
        let lat = SurfaceLattice::new(d);
        let zc = SurfaceMemory::new(d, 2, SurfaceNoise::default())
            .circuit()
            .num_detectors();
        let xc = SurfaceMemory::new_x(d, 2, SurfaceNoise::default())
            .circuit()
            .num_detectors();
        assert_eq!(zc, 3 * lat.num_z);
        assert_eq!(xc, 3 * (lat.faces.len() - lat.num_z));
        assert_ne!(zc, xc);
    }
}
