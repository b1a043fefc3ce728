//! Pair memories with lazy idle decay.
//!
//! Stored EPs decay while they wait (the central problem Fig. 3 and Fig. 4
//! quantify). Decay is applied lazily: each pair remembers when it was last
//! brought up to date, and [`PairMemory::decay_to`] advances all pairs to
//! the current simulation time with the Pauli-twirled idle channel on both
//! halves.

use hetarch_qsim::bell::BellDiagonal;
use hetarch_qsim::channels::{IdleParams, PauliProbs};
use serde::{Deserialize, Serialize};

/// One stored entangled pair.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct StoredPair {
    /// Bell-diagonal state of the pair.
    pub pair: BellDiagonal,
    /// Simulation time at which `pair` was last brought up to date.
    pub last_update: f64,
    /// Distillation rounds this pair has survived.
    pub rounds: u32,
}

impl StoredPair {
    /// Creates a fresh pair at time `t`.
    pub fn new(pair: BellDiagonal, t: f64) -> Self {
        StoredPair {
            pair,
            last_update: t,
            rounds: 0,
        }
    }
}

/// A bounded pool of stored pairs with a common idle model on both halves.
#[derive(Clone, Debug)]
pub struct PairMemory {
    capacity: usize,
    idle: IdleParams,
    slots: Vec<StoredPair>,
}

impl PairMemory {
    /// Creates an empty memory.
    pub fn new(capacity: usize, idle: IdleParams) -> Self {
        PairMemory {
            capacity,
            idle,
            slots: Vec::new(),
        }
    }

    /// Number of stored pairs.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no pairs are stored.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// True when at capacity.
    pub fn is_full(&self) -> bool {
        self.slots.len() >= self.capacity
    }

    /// Capacity in pairs.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The stored pairs (callers should [`Self::decay_to`] first).
    pub fn slots(&self) -> &[StoredPair] {
        &self.slots
    }

    /// Advances every stored pair to time `t`.
    ///
    /// Slots last updated at the same instant share one idle step, so the
    /// twirl probabilities are computed once per run of equal `dt` (after
    /// the first decay every slot sits at the same `last_update`). The twirl
    /// is a pure function of `dt`, so reusing it is bit-identical to
    /// recomputing it per slot.
    pub fn decay_to(&mut self, t: f64) {
        let mut memo: Option<(f64, PauliProbs)> = None;
        for s in &mut self.slots {
            let dt = t - s.last_update;
            if dt > 0.0 {
                let probs = match memo {
                    Some((memo_dt, probs)) if memo_dt == dt => probs,
                    _ => {
                        let probs = self.idle.twirl_probs(dt);
                        memo = Some((dt, probs));
                        probs
                    }
                };
                s.pair.idle(probs, probs);
                s.last_update = t;
            }
        }
    }

    /// Inserts a pair; when full, the worst-fidelity pair (including the
    /// candidate) is dropped. Returns `true` when the candidate was kept; a
    /// zero-capacity memory keeps nothing.
    pub fn insert(&mut self, pair: StoredPair) -> bool {
        if !self.is_full() {
            self.slots.push(pair);
            return true;
        }
        let Some((worst_idx, worst)) = self
            .slots
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.pair.fidelity().total_cmp(&b.1.pair.fidelity()))
        else {
            return false;
        };
        if worst.pair.fidelity() < pair.pair.fidelity() {
            self.slots[worst_idx] = pair;
            true
        } else {
            false
        }
    }

    /// Removes and returns the two best-fidelity pairs, if present.
    pub fn take_best_two(&mut self) -> Option<(StoredPair, StoredPair)> {
        if self.slots.len() < 2 {
            return None;
        }
        let a = self.take_best().expect("len >= 2");
        let b = self.take_best().expect("len >= 1");
        Some((a, b))
    }

    /// Removes and returns the best-fidelity pair.
    pub fn take_best(&mut self) -> Option<StoredPair> {
        if self.slots.is_empty() {
            return None;
        }
        let best_idx = self
            .slots
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.pair.fidelity().total_cmp(&b.1.pair.fidelity()))
            .map(|(i, _)| i)
            .expect("non-empty");
        Some(self.slots.swap_remove(best_idx))
    }

    /// Best fidelity currently stored (after decaying to `t`).
    pub fn best_fidelity(&mut self, t: f64) -> Option<f64> {
        self.decay_to(t);
        self.slots
            .iter()
            .map(|s| s.pair.fidelity())
            .max_by(f64::total_cmp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn idle() -> IdleParams {
        IdleParams::new(0.5e-3, 0.5e-3).unwrap()
    }

    /// The per-slot twirl that [`PairMemory::decay_to`] memoizes: the
    /// differential oracle for it.
    fn decay_to_reference(m: &mut PairMemory, t: f64) {
        for s in &mut m.slots {
            let dt = t - s.last_update;
            if dt > 0.0 {
                let probs = m.idle.twirl_probs(dt);
                s.pair.idle(probs, probs);
                s.last_update = t;
            }
        }
    }

    fn slot_bits(m: &PairMemory) -> Vec<([u64; 4], u64, u32)> {
        m.slots()
            .iter()
            .map(|s| {
                (
                    s.pair.components().map(f64::to_bits),
                    s.last_update.to_bits(),
                    s.rounds,
                )
            })
            .collect()
    }

    /// A memory whose slots were last updated at a few shared instants (so
    /// runs of equal and of differing `dt` interleave), some of them after
    /// the decay times drawn below.
    fn arb_memory() -> impl Strategy<Value = PairMemory> {
        (
            1e-4..1e-1,
            0.1..1.0,
            proptest::collection::vec((0.0..0.5, 0usize..5), 0..=12),
        )
            .prop_map(|(t1, t2_frac, raw)| {
                let idle = IdleParams::new(t1, 2.0 * t1 * t2_frac).unwrap();
                let instants = [0.0, 1e-6, 1e-6, 3.7e-6, 2e-5];
                let mut m = PairMemory::new(raw.len(), idle);
                for (infid, k) in raw {
                    m.slots.push(StoredPair::new(
                        BellDiagonal::werner(1.0 - infid),
                        instants[k],
                    ));
                }
                m
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn memoized_decay_matches_per_slot_twirl(
            memory in arb_memory(),
            t1 in 0.0..2.5e-5,
            dt2 in prop_oneof![Just(0.0), 0.0..1e-4],
        ) {
            let mut fast = memory.clone();
            let mut oracle = memory;
            for t in [t1, t1 + dt2] {
                fast.decay_to(t);
                decay_to_reference(&mut oracle, t);
                prop_assert_eq!(slot_bits(&fast), slot_bits(&oracle), "t = {}", t);
            }
        }
    }

    #[test]
    fn zero_capacity_memory_rejects_every_pair() {
        let mut m = PairMemory::new(0, idle());
        assert!(m.is_full());
        assert!(!m.insert(StoredPair::new(BellDiagonal::perfect(), 0.0)));
        assert!(m.is_empty());
        assert!(m.take_best().is_none());
        assert_eq!(m.best_fidelity(1e-6), None);
    }

    #[test]
    fn decay_reduces_fidelity_over_time() {
        let mut m = PairMemory::new(4, idle());
        m.insert(StoredPair::new(BellDiagonal::perfect(), 0.0));
        m.decay_to(100e-6);
        let f = m.slots()[0].pair.fidelity();
        assert!(f < 1.0 && f > 0.7, "decayed fidelity {f}");
        // Decay is idempotent once up to date.
        m.decay_to(100e-6);
        assert_eq!(m.slots()[0].pair.fidelity(), f);
    }

    #[test]
    fn insert_evicts_worst_when_full() {
        let mut m = PairMemory::new(2, idle());
        m.insert(StoredPair::new(BellDiagonal::werner(0.7), 0.0));
        m.insert(StoredPair::new(BellDiagonal::werner(0.9), 0.0));
        // Better than the worst: replaces it.
        assert!(m.insert(StoredPair::new(BellDiagonal::werner(0.8), 0.0)));
        let fids: Vec<f64> = m.slots().iter().map(|s| s.pair.fidelity()).collect();
        assert!(fids.iter().all(|&f| f > 0.75));
        // Worse than everything: dropped.
        assert!(!m.insert(StoredPair::new(BellDiagonal::werner(0.5), 0.0)));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn take_best_two_returns_descending() {
        let mut m = PairMemory::new(4, idle());
        for f in [0.6, 0.9, 0.7] {
            m.insert(StoredPair::new(BellDiagonal::werner(f), 0.0));
        }
        let (a, b) = m.take_best_two().unwrap();
        assert!((a.pair.fidelity() - 0.9).abs() < 1e-12);
        assert!((b.pair.fidelity() - 0.7).abs() < 1e-12);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn take_best_two_needs_two() {
        let mut m = PairMemory::new(4, idle());
        m.insert(StoredPair::new(BellDiagonal::werner(0.8), 0.0));
        assert!(m.take_best_two().is_none());
        assert_eq!(m.len(), 1, "failed take must not consume");
    }
}
