//! The greedy distillation scheduler (paper §4.1).
//!
//! Priorities, in order:
//! 1. re-distill existing (already-distilled) pairs if it would yield
//!    improvement,
//! 2. move distilled pairs to output memory (handled automatically on
//!    completion by the module),
//! 3. distill new pairs if available,
//! 4. store incoming pairs in memory (handled on arrival).
//!
//! This module implements the *decision* part — 1 and 3 — as a pure
//! function over the memory pools so it can be tested and ablated in
//! isolation.

use hetarch_qsim::bell::DejmpsTable;
use serde::{Deserialize, Serialize};

use crate::distill::memory::PairMemory;

/// What the distiller should do next.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Action {
    /// Run a DEJMPS round on the two best already-distilled pairs.
    RedistillStaged,
    /// Run a DEJMPS round on the two best raw pairs.
    DistillRaw,
    /// Nothing productive to do.
    Idle,
}

/// Scheduler policy knobs (for `figs ablations`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Policy {
    /// Enable priority 1 (re-distillation of staged pairs).
    pub redistill: bool,
    /// Require a predicted fidelity improvement before distilling.
    pub require_improvement: bool,
}

impl Default for Policy {
    fn default() -> Self {
        Policy {
            redistill: true,
            require_improvement: true,
        }
    }
}

/// Predicts whether one DEJMPS round on the two best pairs of `pool` would
/// improve on the better input. Pools must already be decayed to "now".
fn round_improves(pool: &PairMemory, table: &DejmpsTable) -> Option<bool> {
    let pairs = pool.pairs();
    if pairs.len() < 2 {
        return None;
    }
    // Allocation-free top-two scan. Strict `>` comparisons break ties toward
    // the earliest pair, reproducing the stable descending sort this replaced
    // (the scheduler runs per event, so its pair choice must stay
    // bit-identical for the determinism contract).
    let mut best_i = 0usize;
    let mut best_f = pairs[0].fidelity();
    let mut second_i = usize::MAX;
    let mut second_f = f64::NEG_INFINITY;
    for (i, p) in pairs.iter().enumerate().skip(1) {
        let f = p.fidelity();
        if f > best_f {
            second_i = best_i;
            second_f = best_f;
            best_i = i;
            best_f = f;
        } else if f > second_f {
            second_i = i;
            second_f = f;
        }
    }
    let out = table.round(&pairs[best_i], &pairs[second_i])?;
    Some(out.pair.fidelity() > best_f)
}

/// Chooses the next distiller action. Pools must be decayed to the current
/// time before calling.
pub fn choose_action(
    staged: &PairMemory,
    raw: &PairMemory,
    table: &DejmpsTable,
    policy: Policy,
) -> Action {
    if policy.redistill {
        if let Some(improves) = round_improves(staged, table) {
            if improves || !policy.require_improvement {
                return Action::RedistillStaged;
            }
        }
    }
    if let Some(improves) = round_improves(raw, table) {
        if improves || !policy.require_improvement {
            return Action::DistillRaw;
        }
    }
    Action::Idle
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetarch_qsim::bell::{BellDiagonal, DistillNoise};
    use hetarch_qsim::channels::IdleParams;

    fn idle() -> IdleParams {
        IdleParams::new(1e-3, 1e-3).unwrap()
    }

    fn pool(fids: &[f64]) -> PairMemory {
        let mut m = PairMemory::new(8, idle());
        for &f in fids {
            m.insert(0.0, BellDiagonal::werner(f));
        }
        m
    }

    #[test]
    fn staged_pairs_take_priority() {
        let table = DejmpsTable::new(&DistillNoise::default());
        let staged = pool(&[0.9, 0.9]);
        let raw = pool(&[0.8, 0.8]);
        assert_eq!(
            choose_action(&staged, &raw, &table, Policy::default()),
            Action::RedistillStaged
        );
    }

    #[test]
    fn falls_back_to_raw_pairs() {
        let table = DejmpsTable::new(&DistillNoise::default());
        let staged = pool(&[0.95]); // only one staged pair
        let raw = pool(&[0.8, 0.85]);
        assert_eq!(
            choose_action(&staged, &raw, &table, Policy::default()),
            Action::DistillRaw
        );
    }

    #[test]
    fn idles_when_nothing_improves() {
        let table = DejmpsTable::new(&DistillNoise::default());
        // Sub-0.5 Werner pairs cannot be improved by DEJMPS.
        let staged = pool(&[0.3, 0.3]);
        let raw = pool(&[0.3, 0.3]);
        assert_eq!(
            choose_action(&staged, &raw, &table, Policy::default()),
            Action::Idle
        );
    }

    #[test]
    fn improvement_gate_can_be_disabled() {
        let table = DejmpsTable::new(&DistillNoise::default());
        let staged = pool(&[0.3, 0.3]);
        let raw = pool(&[]);
        let policy = Policy {
            redistill: true,
            require_improvement: false,
        };
        assert_eq!(
            choose_action(&staged, &raw, &table, policy),
            Action::RedistillStaged
        );
    }

    #[test]
    fn redistill_ablation() {
        let table = DejmpsTable::new(&DistillNoise::default());
        let staged = pool(&[0.9, 0.9]);
        let raw = pool(&[0.8, 0.8]);
        let policy = Policy {
            redistill: false,
            ..Policy::default()
        };
        assert_eq!(
            choose_action(&staged, &raw, &table, policy),
            Action::DistillRaw
        );
    }

    #[test]
    fn empty_pools_idle() {
        let table = DejmpsTable::new(&DistillNoise::default());
        assert_eq!(
            choose_action(&pool(&[]), &pool(&[]), &table, Policy::default()),
            Action::Idle
        );
    }
}
