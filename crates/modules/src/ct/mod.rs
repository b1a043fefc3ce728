//! Code teleportation (paper §4.3, Figs. 10–12, Table 4).
//!
//! A CT module prepares the resource state `Φ+_AB = (|0_A 0_B⟩ + |1_A 1_B⟩)/√2`
//! between two *logical* codes A and B, so that logical teleportation both
//! moves the state and switches the QEC code. Five sub-modules cooperate:
//! an entanglement-distillation module bridging the two sides, two CAT-state
//! generators (SeqOp cells), and two UEC modules holding the logical `|+⟩`
//! states.
//!
//! Following the paper, the module-level error model composes
//! *independently-evaluated* sub-module error rates (paper ref. 31): CAT pieces
//! compound multiplicatively, and the final CT error probability is the sum
//! (saturating composition) of independent fault rates.

pub mod cat;
pub mod teleport;

use serde::{Deserialize, Serialize};

use hetarch_cells::channel::sum_error_rates;
use hetarch_cells::{CellLibrary, SeqOpCell, UscCell};
use hetarch_devices::catalog::{
    coherence_limited_compute, coherence_limited_storage, homogeneous_pseudo_storage,
};
use hetarch_exec::WorkerPool;
use hetarch_stab::codes::StabilizerCode;

use crate::baseline::{hom_surface_logical_error, HomModule};
use crate::ct::cat::{CatGenerator, CatParams};
use crate::distill::{DistillConfig, DistillModule};
use crate::uec::{UecModule, UecNoise};

/// Which architecture executes the CT module.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Architecture {
    /// Heterogeneous: storage-backed distillation, SeqOp CAT generators and
    /// UEC plus-state preparation.
    Heterogeneous,
    /// Homogeneous sea-of-qubits baseline.
    Homogeneous,
}

/// Configuration of a code-teleportation evaluation.
#[derive(Clone, Debug)]
pub struct CtConfig {
    /// Code on side A.
    pub code_a: StabilizerCode,
    /// Code on side B.
    pub code_b: StabilizerCode,
    /// Architecture under test.
    pub arch: Architecture,
    /// Storage coherence `T_S` (ignored for the homogeneous baseline).
    pub ts: f64,
    /// Compute coherence `T_C`.
    pub tc: f64,
    /// EP generation rate (paper Fig. 12: 1000 kHz).
    pub ep_rate_hz: f64,
    /// Distillation target fidelity (paper: 0.995).
    pub ep_target: f64,
    /// Two-qubit gate error for stabilizer/logical operations (§4.2: 1%).
    pub p2q: f64,
    /// Monte-Carlo shots for the UEC sub-evaluations.
    pub shots: usize,
    /// RNG seed.
    pub seed: u64,
}

impl CtConfig {
    /// The paper's heterogeneous setting for a code pair at storage
    /// coherence `ts`.
    pub fn heterogeneous(code_a: StabilizerCode, code_b: StabilizerCode, ts: f64) -> Self {
        CtConfig {
            code_a,
            code_b,
            arch: Architecture::Heterogeneous,
            ts,
            tc: 0.5e-3,
            ep_rate_hz: 1e6,
            ep_target: 0.995,
            p2q: 1e-2,
            shots: 20_000,
            seed: 1,
        }
    }

    /// The homogeneous baseline for a code pair.
    pub fn homogeneous(code_a: StabilizerCode, code_b: StabilizerCode) -> Self {
        CtConfig {
            arch: Architecture::Homogeneous,
            ts: 0.5e-3,
            ..CtConfig::heterogeneous(code_a, code_b, 0.5e-3)
        }
    }
}

/// Per-source error breakdown of a CT state preparation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CtBreakdown {
    /// Residual infidelity of the EPs consumed by the remote gates (two
    /// pairs: entangle + verify).
    pub ep: f64,
    /// CAT-state generation error (both halves).
    pub cat: f64,
    /// Logical `|+⟩` preparation error in code A.
    pub plus_a: f64,
    /// Logical `|+⟩` preparation error in code B.
    pub plus_b: f64,
    /// Transversal CNOT layer between CAT and the logical `|+⟩` states.
    pub transversal: f64,
    /// Logical measurement + correction round.
    pub measurement: f64,
}

/// Result of evaluating one CT configuration.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CtResult {
    /// Total logical error probability of the prepared CT state.
    pub logical_error_probability: f64,
    /// Error-source breakdown.
    pub breakdown: CtBreakdown,
    /// Fidelity the distillation sub-module actually achieved.
    pub ep_fidelity: f64,
    /// True when distillation failed to reach the target (the paper marks
    /// such homogeneous points as essentially mixed).
    pub ep_starved: bool,
}

/// The code-teleportation module evaluator.
#[derive(Clone, Debug)]
pub struct CtModule {
    config: CtConfig,
}

impl CtModule {
    /// Creates the evaluator.
    pub fn new(config: CtConfig) -> Self {
        CtModule { config }
    }

    /// Evaluates the CT state-preparation error probability by composing the
    /// five sub-modules (paper §4.3 simulation methodology). The logical
    /// `|+⟩` Monte Carlo runs on `pool`; the result does not depend on its
    /// worker count.
    pub fn evaluate(&self, pool: &WorkerPool) -> CtResult {
        let c = &self.config;
        let lib = CellLibrary::new();
        let het = c.arch == Architecture::Heterogeneous;

        // --- Sub-module 1: entanglement distillation across the link. ---
        let distill_cfg = match c.arch {
            Architecture::Heterogeneous => {
                let mut cfg = DistillConfig::heterogeneous(c.ts, c.ep_rate_hz, c.seed);
                cfg.target_fidelity = c.ep_target;
                cfg
            }
            Architecture::Homogeneous => {
                let mut cfg = DistillConfig::homogeneous(c.ep_rate_hz, c.seed);
                cfg.target_fidelity = c.ep_target;
                cfg
            }
        };
        let report = DistillModule::new(distill_cfg).run(5e-3);
        let ep_starved = report.delivered == 0;
        let ep_fidelity = if ep_starved {
            report.best_fidelity
        } else {
            c.ep_target
        };
        // Two remote gates (entangle + verify the CAT bridge) each consume
        // one EP; a fully starved link yields an essentially mixed CT state.
        let ep_err = if ep_fidelity <= 0.5 {
            0.5
        } else {
            sum_error_rates([1.0 - ep_fidelity, 1.0 - ep_fidelity])
        };

        // --- Sub-module 2+3: the two CAT generators. ---
        let cat_size = c.code_a.num_qubits() + c.code_b.num_qubits();
        let compute = coherence_limited_compute(c.tc);
        let storage = if het {
            coherence_limited_storage(c.ts)
        } else {
            homogeneous_pseudo_storage(c.tc, 10)
        };
        let seqop = lib.get::<SeqOpCell>(&compute, &storage);
        let cat = CatGenerator::new(CatParams {
            seqop: (*seqop).clone(),
            verify_checks: cat_size.div_ceil(4),
        });
        let cat_err = cat.infidelity(cat_size);

        // --- Sub-modules 4+5: logical |+> preparation in each code. ---
        let noise = UecNoise {
            p_swap: c.p2q / 2.0,
            p2q: c.p2q,
            ..UecNoise::default()
        };
        let plus_a = self.plus_state_error(pool, &c.code_a, noise, c.seed.wrapping_add(11));
        let plus_b = self.plus_state_error(pool, &c.code_b, noise, c.seed.wrapping_add(13));

        // --- Step 4: transversal CNOT layer between CAT and |+> states.
        // Physical faults here are subsequently error-corrected; only
        // patterns exceeding the weaker code's correction radius become
        // logical errors, so the contribution is the binomial tail beyond
        // t = ⌊(d_min − 1)/2⌋ errors across the layer. ---
        let p_cx_marginal = 12.0 / 15.0 * c.p2q;
        let d_min = c.code_a.distance().min(c.code_b.distance());
        let t = (d_min - 1) / 2;
        let transversal = binomial_tail_above(cat_size, p_cx_marginal, t);

        // --- Steps 5–6: logical measurement and correction: one more
        // stabilizer round on each side. ---
        let measurement = sum_error_rates([plus_a, plus_b]) / 2.0;

        let breakdown = CtBreakdown {
            ep: ep_err,
            cat: cat_err,
            plus_a,
            plus_b,
            transversal,
            measurement,
        };
        let total = sum_error_rates([
            breakdown.ep,
            breakdown.cat,
            breakdown.plus_a,
            breakdown.plus_b,
            breakdown.transversal,
            breakdown.measurement,
        ]);
        CtResult {
            logical_error_probability: total,
            breakdown,
            ep_fidelity,
            ep_starved,
        }
    }

    /// Logical `|+⟩` preparation error: one stabilizer-measurement cycle of
    /// the code on the architecture under test (the §4.2 methodology).
    fn plus_state_error(
        &self,
        pool: &WorkerPool,
        code: &StabilizerCode,
        noise: UecNoise,
        seed: u64,
    ) -> f64 {
        let c = &self.config;
        match c.arch {
            Architecture::Heterogeneous => {
                let lib = CellLibrary::new();
                let usc = lib.get::<UscCell>(
                    &coherence_limited_compute(c.tc),
                    &coherence_limited_storage(c.ts),
                );
                UecModule::new(code.clone(), (*usc).clone(), noise)
                    .logical_error_rate_on(pool, c.shots, seed)
                    .logical_error_rate
            }
            Architecture::Homogeneous => {
                if code.name().starts_with("SC") {
                    hom_surface_logical_error(pool, code.distance(), c.tc, noise, c.shots, seed)
                } else {
                    HomModule::new(code.clone(), c.tc, noise)
                        .logical_error_rate_on(pool, c.shots, seed)
                        .logical_error_rate
                }
            }
        }
    }
}

/// `P[X > t]` for `X ~ Binomial(n, p)`.
fn binomial_tail_above(n: usize, p: f64, t: usize) -> f64 {
    let mut cdf = 0.0;
    let mut pmf = (1.0 - p).powi(n as i32); // P[X = 0]
    for k in 0..=t.min(n) {
        if k > 0 {
            pmf *= (n - k + 1) as f64 / k as f64 * p / (1.0 - p);
        }
        cdf += pmf;
    }
    (1.0 - cdf).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetarch_stab::codes::{reed_muller_15, rotated_surface_code};

    #[test]
    fn binomial_tail_sanity() {
        // P[X > 0] = 1 - (1-p)^n.
        let p = 0.01;
        let direct = 1.0 - (1.0f64 - p).powi(10);
        assert!((binomial_tail_above(10, p, 0) - direct).abs() < 1e-12);
        // Tail shrinks as the threshold grows.
        assert!(binomial_tail_above(24, 0.008, 1) < binomial_tail_above(24, 0.008, 0));
        assert_eq!(binomial_tail_above(5, 0.1, 5), 0.0);
    }

    fn quick(mut cfg: CtConfig) -> CtResult {
        cfg.shots = 3000;
        CtModule::new(cfg).evaluate(&WorkerPool::new(4))
    }

    #[test]
    fn maximal_seed_does_not_overflow() {
        // The |+> sub-evaluations derive their seeds by offsetting the
        // configured one; `u64::MAX` must wrap, not panic in debug builds.
        let mut cfg =
            CtConfig::heterogeneous(rotated_surface_code(3), rotated_surface_code(3), 5e-3);
        cfg.shots = 64;
        cfg.seed = u64::MAX;
        let r = CtModule::new(cfg).evaluate(&WorkerPool::new(4));
        assert!((0.0..=1.0).contains(&r.logical_error_probability));
    }

    #[test]
    fn heterogeneous_beats_homogeneous_for_nonplanar_pair() {
        let het = quick(CtConfig::heterogeneous(
            reed_muller_15(),
            rotated_surface_code(3),
            50e-3,
        ));
        let hom = quick(CtConfig::homogeneous(
            reed_muller_15(),
            rotated_surface_code(3),
        ));
        assert!(
            het.logical_error_probability < hom.logical_error_probability,
            "het {} vs hom {}",
            het.logical_error_probability,
            hom.logical_error_probability
        );
    }

    #[test]
    fn longer_storage_improves_ct() {
        let short = quick(CtConfig::heterogeneous(
            rotated_surface_code(3),
            rotated_surface_code(4),
            1e-3,
        ));
        let long = quick(CtConfig::heterogeneous(
            rotated_surface_code(3),
            rotated_surface_code(4),
            50e-3,
        ));
        assert!(
            long.logical_error_probability < short.logical_error_probability,
            "Ts=50ms {} vs Ts=1ms {}",
            long.logical_error_probability,
            short.logical_error_probability
        );
    }

    #[test]
    fn breakdown_sums_to_total() {
        let r = quick(CtConfig::heterogeneous(
            rotated_surface_code(3),
            rotated_surface_code(4),
            12.5e-3,
        ));
        let b = r.breakdown;
        let manual = hetarch_cells::channel::sum_error_rates([
            b.ep,
            b.cat,
            b.plus_a,
            b.plus_b,
            b.transversal,
            b.measurement,
        ]);
        assert!((manual - r.logical_error_probability).abs() < 1e-12);
        assert!(r.logical_error_probability <= 1.0);
    }
}
