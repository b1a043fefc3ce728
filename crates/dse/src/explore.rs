//! Application-level design-space explorations (paper §4).
//!
//! These wrap the module simulators behind sweep + selection logic to answer
//! the questions the paper asks of each application: *how much storage
//! coherence is enough?* (distillation, §4.1) and *how much data-qubit
//! coherence pays off?* (surface code, §4.2.1).

use serde::{Deserialize, Serialize};

use hetarch_exec::rare::RareConfig;
use hetarch_exec::WorkerPool;
use hetarch_modules::distill::{DistillConfig, DistillModule};

use crate::space::{Axis, DesignSpace};
use crate::sweep::sweep;

/// One evaluated distillation design point.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DistillPoint {
    /// Storage coherence (seconds).
    pub ts: f64,
    /// Delivered EP rate (Hz).
    pub rate_hz: f64,
}

/// Result of the storage-coherence exploration for entanglement
/// distillation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DistillExploration {
    /// EP generation rate explored (Hz).
    pub gen_rate_hz: f64,
    /// All evaluated points.
    pub points: Vec<DistillPoint>,
    /// Smallest `T_S` achieving at least `threshold` of the best rate.
    pub sufficient_ts: Option<f64>,
}

/// Sweeps storage coherence for a fixed EP generation rate and reports the
/// smallest `T_S` that achieves `threshold` (e.g. 0.9) of the best delivered
/// rate — the paper's "Ts = 1 ms is sufficient above 10 kHz" style finding.
pub fn explore_distill_storage(
    gen_rate_hz: f64,
    ts_values: &[f64],
    sim_duration: f64,
    threshold: f64,
    seed: u64,
) -> DistillExploration {
    let space = DesignSpace::new(vec![Axis::new("ts", ts_values.to_vec())]);
    let results = sweep(&space, |p| {
        let ts = p.get("ts");
        let module = DistillModule::new(DistillConfig::heterogeneous(ts, gen_rate_hz, seed));
        module.run(sim_duration).delivered_rate_hz
    });
    let points: Vec<DistillPoint> = results
        .iter()
        .map(|(p, rate)| DistillPoint {
            ts: p.get("ts"),
            rate_hz: *rate,
        })
        .collect();
    let best = points.iter().map(|p| p.rate_hz).fold(0.0, f64::max);
    let sufficient_ts = points
        .iter()
        .filter(|p| best > 0.0 && p.rate_hz >= threshold * best)
        .map(|p| p.ts)
        .fold(None, |acc: Option<f64>, ts| {
            Some(acc.map_or(ts, |a| a.min(ts)))
        });
    DistillExploration {
        gen_rate_hz,
        points,
        sufficient_ts,
    }
}

/// One evaluated surface-code design point.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SurfacePoint {
    /// Data-qubit coherence scaling factor α.
    pub alpha: f64,
    /// Whether α was applied to data (true) or ancilla (false) qubits.
    pub scaled_data: bool,
    /// Logical error rate per cycle.
    pub logical_per_round: f64,
}

/// Sweeps the data- vs ancilla-coherence scaling of Fig. 6 and reports where
/// the returns diminish (the largest α whose marginal improvement still
/// exceeds `min_gain`, e.g. 5%).
pub fn explore_surface_coherence(
    d: usize,
    base_tc: f64,
    alphas: &[f64],
    shots: usize,
    seed: u64,
) -> Vec<SurfacePoint> {
    use hetarch_stab::codes::{SurfaceMemory, SurfaceNoise};
    let mut space_axes = vec![Axis::new("alpha", alphas.to_vec())];
    space_axes.push(Axis::new("data", vec![0.0, 1.0]));
    let space = DesignSpace::new(space_axes);
    let results = sweep(&space, |p| {
        let alpha = p.get("alpha");
        let scaled_data = p.get("data") > 0.5;
        let noise = SurfaceNoise {
            t_data: if scaled_data {
                base_tc * alpha
            } else {
                base_tc
            },
            t_anc: if scaled_data {
                base_tc
            } else {
                base_tc * alpha
            },
            ..SurfaceNoise::default()
        };
        SurfaceMemory::new(d, d, noise)
            .logical_error_rate(shots, seed)
            .1
    });
    results
        .into_iter()
        .map(|(p, rate)| SurfacePoint {
            alpha: p.get("alpha"),
            scaled_data: p.get("data") > 0.5,
            logical_per_round: rate,
        })
        .collect()
}

/// Estimator selection for surface-memory design points.
///
/// Deep-subthreshold points (large α, low noise) have logical error rates
/// the plain frequency estimator returns `0/N` for; the rare-event mode
/// resolves them with an explicit error budget instead.
#[derive(Clone, Copy, Debug)]
pub enum SurfaceEstimator {
    /// Plain frequency estimator at a fixed shot budget.
    Plain {
        /// Monte-Carlo shots per design point.
        shots: usize,
    },
    /// Weight-stratified rare-event estimator
    /// ([`hetarch_stab::codes::SurfaceMemory::logical_error_rate_rare_on`]).
    Rare(RareConfig),
}

/// One surface design point evaluated with a full error budget.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SurfaceRatePoint {
    /// Data-qubit coherence scaling factor α.
    pub alpha: f64,
    /// Whether α was applied to data (true) or ancilla (false) qubits.
    pub scaled_data: bool,
    /// Logical error rate per round.
    pub logical_per_round: f64,
    /// One statistical standard deviation of the **per-shot** estimate.
    pub sigma: f64,
    /// Truncation bound of the per-shot estimate (0 for the plain
    /// estimator, which has no truncation error).
    pub truncation_bound: f64,
    /// Whether the estimator met its tolerance (always true for plain).
    pub converged: bool,
}

/// As [`explore_surface_coherence`] with an explicit estimator choice: the
/// rare-event cost mode evaluates each design point with the stratified
/// estimator and reports `(p_L, sigma, truncation_bound)` per point, which
/// is what makes deep-subthreshold sweeps meaningful at all.
pub fn explore_surface_coherence_with(
    d: usize,
    base_tc: f64,
    alphas: &[f64],
    estimator: SurfaceEstimator,
    seed: u64,
) -> Vec<SurfaceRatePoint> {
    use hetarch_stab::codes::{SurfaceDecoder, SurfaceMemory, SurfaceNoise};
    let mut space_axes = vec![Axis::new("alpha", alphas.to_vec())];
    space_axes.push(Axis::new("data", vec![0.0, 1.0]));
    let space = DesignSpace::new(space_axes);
    let results = sweep(&space, |p| {
        let alpha = p.get("alpha");
        let scaled_data = p.get("data") > 0.5;
        let noise = SurfaceNoise {
            t_data: if scaled_data {
                base_tc * alpha
            } else {
                base_tc
            },
            t_anc: if scaled_data {
                base_tc
            } else {
                base_tc * alpha
            },
            ..SurfaceNoise::default()
        };
        let memory = SurfaceMemory::new(d, d, noise);
        match estimator {
            SurfaceEstimator::Plain { shots } => {
                let (per_shot, per_round) = memory.logical_error_rate(shots, seed);
                let sigma = if shots == 0 {
                    0.0
                } else {
                    (per_shot * (1.0 - per_shot) / shots as f64).sqrt()
                };
                (per_round, sigma, 0.0, true)
            }
            SurfaceEstimator::Rare(config) => {
                let outcome = memory.logical_error_rate_rare_on(
                    WorkerPool::global(),
                    SurfaceDecoder::UnionFind,
                    config,
                    seed,
                );
                let converged = outcome.is_converged();
                let report = outcome.report();
                (
                    report.per_round(memory.rounds),
                    report.sigma,
                    report.truncation_bound,
                    converged,
                )
            }
        }
    });
    results
        .into_iter()
        .map(
            |(p, (logical_per_round, sigma, truncation_bound, converged))| SurfaceRatePoint {
                alpha: p.get("alpha"),
                scaled_data: p.get("data") > 0.5,
                logical_per_round,
                sigma,
                truncation_bound,
                converged,
            },
        )
        .collect()
}

/// One evaluated memory-capacity point for the distillation module.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CapacityPoint {
    /// Input memory capacity in pairs.
    pub input_pairs: usize,
    /// Output memory capacity in pairs.
    pub output_pairs: usize,
    /// Delivered rate (Hz).
    pub rate_hz: f64,
}

/// Sweeps the distillation module's memory capacities — the §4.1 sizing
/// study that found "two Register cells for the input memory with three
/// modes each ... and one output Register with three modes" sufficient.
pub fn explore_distill_capacity(
    gen_rate_hz: f64,
    ts: f64,
    sim_duration: f64,
    seed: u64,
) -> Vec<CapacityPoint> {
    let mut out = Vec::new();
    for (input_pairs, output_pairs) in [(2, 1), (3, 3), (6, 3), (9, 3), (12, 6)] {
        let mut cfg = DistillConfig::heterogeneous(ts, gen_rate_hz, seed);
        cfg.input_capacity = input_pairs;
        cfg.output_capacity = output_pairs;
        let report = DistillModule::new(cfg).run(sim_duration);
        out.push(CapacityPoint {
            input_pairs,
            output_pairs,
            rate_hz: report.delivered_rate_hz,
        });
    }
    out
}

/// One evaluated compute-device choice (the §3.1 within-type tradeoff:
/// fluxonium trades higher T1 and an extra flux line for lower T2).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ComputeChoicePoint {
    /// Device name.
    pub device: String,
    /// Delivered distilled-EP rate (Hz).
    pub rate_hz: f64,
    /// Control lines per compute device.
    pub control_lines: u32,
    /// T2 of the device (the quantity that actually limits the distiller).
    pub t2: f64,
}

/// Compares catalog compute devices (with §4's coherence-limited gates but
/// each device's own real T1/T2) as the distiller's compute element,
/// evaluated against a fleet calibration snapshot: every cell is
/// characterized with the snapshot's per-slot overrides (keyed by layout
/// label, e.g. `"register/storage"`), so the comparison reflects today's
/// measured devices rather than the nominal catalog. An empty snapshot
/// compares the nominal devices.
pub fn explore_compute_choice(
    gen_rate_hz: f64,
    ts: f64,
    sim_duration: f64,
    seed: u64,
    calib: &hetarch_devices::calib::CalibSnapshot,
) -> Vec<ComputeChoicePoint> {
    use hetarch_cells::{CellLibrary, ParCheckCell, RegisterCell};
    use hetarch_devices::catalog::{
        coherence_limited_storage, fixed_frequency_qubit, flux_tunable_qubit,
    };
    use hetarch_devices::device::GateSpec;

    let mut out = Vec::new();
    for base in [fixed_frequency_qubit(), flux_tunable_qubit()] {
        let mut compute = base.clone();
        // §4 convention: gate errors are coherence-limited.
        compute.gate_1q = Some(GateSpec::new(40e-9, 0.0));
        compute.gate_2q = Some(GateSpec::new(100e-9, 0.0));
        compute.swap = GateSpec::new(100e-9, 0.0);
        let storage = coherence_limited_storage(ts);
        let lib = CellLibrary::new();
        let mut cfg = DistillConfig::heterogeneous(ts, gen_rate_hz, seed);
        cfg.register = (*lib.get_with_calib::<RegisterCell>(&compute, &storage, calib)).clone();
        cfg.parcheck = (*lib.get_with_calib::<ParCheckCell>(&compute, &compute, calib)).clone();
        let report = DistillModule::new(cfg).run(sim_duration);
        out.push(ComputeChoicePoint {
            device: base.name.clone(),
            rate_hz: report.delivered_rate_hz,
            control_lines: base.control.total(),
            t2: base.t2,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distill_exploration_finds_sufficient_ts() {
        let ex = explore_distill_storage(1e6, &[0.5e-3, 2.5e-3, 12.5e-3], 1.5e-3, 0.5, 3);
        assert_eq!(ex.points.len(), 3);
        let best = ex.points.iter().map(|p| p.rate_hz).fold(0.0, f64::max);
        assert!(best > 0.0, "no pairs delivered at 1 MHz");
        let ts = ex.sufficient_ts.expect("some Ts must reach 50% of best");
        assert!(ts <= 12.5e-3);
    }

    #[test]
    fn longer_ts_never_much_worse() {
        let ex = explore_distill_storage(1e6, &[0.5e-3, 12.5e-3], 1.5e-3, 0.9, 4);
        let short = ex.points[0].rate_hz;
        let long = ex.points[1].rate_hz;
        assert!(long >= short * 0.8, "long {long} vs short {short}");
    }

    #[test]
    fn paper_capacity_sizing_is_sufficient() {
        // §4.1: 6 input pairs + 3 output pairs suffice — larger memories do
        // not deliver meaningfully more.
        let pts = explore_distill_capacity(1e6, 12.5e-3, 4e-3, 11);
        let rate_of = |inp: usize| {
            pts.iter()
                .find(|p| p.input_pairs == inp)
                .map(|p| p.rate_hz)
                .unwrap()
        };
        let paper = rate_of(6);
        let bigger = rate_of(12);
        assert!(paper > 0.0);
        assert!(
            bigger <= paper * 1.25,
            "doubling capacity should not buy >25%: {paper} -> {bigger}"
        );
        // A 2-pair input memory is a real bottleneck at this rate.
        assert!(rate_of(2) < paper, "tiny memory should underperform");
    }

    #[test]
    fn compute_choice_reflects_t2_tradeoff() {
        // The throughput gap from the fluxonium's lower T2 is smaller than
        // single-seed Monte-Carlo noise at short sim durations, so compare
        // rates averaged over several seeds.
        let mut transmon_sum = 0.0;
        let mut fluxonium_sum = 0.0;
        for seed in [5, 6, 7, 8, 9] {
            let pts = explore_compute_choice(
                2e6,
                12.5e-3,
                2e-3,
                seed,
                &hetarch_devices::calib::CalibSnapshot::default(),
            );
            assert_eq!(pts.len(), 2);
            let transmon = pts.iter().find(|p| p.device.contains("Fixed")).unwrap();
            let fluxonium = pts.iter().find(|p| p.device.contains("Flux")).unwrap();
            // The fluxonium's extra flux line shows in the control budget...
            assert!(fluxonium.control_lines > transmon.control_lines);
            transmon_sum += transmon.rate_hz;
            fluxonium_sum += fluxonium.rate_hz;
        }
        // ...and its lower T2 costs distillation throughput on average.
        assert!(
            transmon_sum >= fluxonium_sum,
            "transmon {} vs fluxonium {}",
            transmon_sum / 5.0,
            fluxonium_sum / 5.0
        );
    }

    #[test]
    fn rare_cost_mode_agrees_with_plain_at_high_noise() {
        use hetarch_exec::rare::RareConfig;
        // One high-noise design point evaluated both ways.
        let alphas = [1.0];
        let plain = explore_surface_coherence_with(
            3,
            0.1e-3,
            &alphas,
            SurfaceEstimator::Plain { shots: 8_000 },
            21,
        );
        let rare = explore_surface_coherence_with(
            3,
            0.1e-3,
            &alphas,
            SurfaceEstimator::Rare(RareConfig {
                max_strata: 40,
                rel_tol: 0.05,
                shots_per_stratum: 3_000,
                ..RareConfig::default()
            }),
            23,
        );
        assert_eq!(plain.len(), 2);
        assert_eq!(rare.len(), 2);
        for (p, r) in plain.iter().zip(&rare) {
            assert_eq!(p.alpha, r.alpha);
            assert_eq!(p.scaled_data, r.scaled_data);
            assert_eq!(p.truncation_bound, 0.0);
            assert!(p.converged);
            assert!(r.converged, "rare mode should converge at high noise");
            // Per-round rates agree within generous combined error bars
            // (sigmas are per-shot; the per-round conversion only shrinks
            // deviations for rates this small).
            let tol = 6.0 * (p.sigma + r.sigma) + r.truncation_bound;
            assert!(
                (p.logical_per_round - r.logical_per_round).abs() <= tol,
                "plain {} vs rare {} (tol {tol})",
                p.logical_per_round,
                r.logical_per_round
            );
        }
    }

    #[test]
    fn surface_exploration_shapes() {
        let pts = explore_surface_coherence(3, 0.1e-3, &[1.0, 4.0], 1500, 9);
        assert_eq!(pts.len(), 4);
        // Scaling data coherence by 4 should help.
        let base = pts
            .iter()
            .find(|p| p.alpha == 1.0 && p.scaled_data)
            .unwrap()
            .logical_per_round;
        let better = pts
            .iter()
            .find(|p| p.alpha == 4.0 && p.scaled_data)
            .unwrap()
            .logical_per_round;
        assert!(better < base, "alpha=4 {better} vs alpha=1 {base}");
    }
}
