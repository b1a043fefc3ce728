//! Pair memories with lazy idle decay.
//!
//! Stored EPs decay while they wait (the central problem Fig. 3 and Fig. 4
//! quantify). A memory keeps one clock for all of its pairs: every pair
//! enters through [`PairMemory::insert`], which first brings the memory up
//! to the pair's creation time, so all stored pairs are always up to date at
//! the same instant. [`PairMemory::decay_to`] advances them together with one
//! Pauli-twirled idle step on both halves.
//!
//! Ties are broken as the event loop's bits require: [`PairMemory::insert`]
//! evicts the first of several equally worst pairs, and
//! [`PairMemory::take_best`] removes the last of several equally best ones.

use hetarch_qsim::bell::BellDiagonal;
use hetarch_qsim::channels::IdleParams;

/// A bounded pool of stored pairs with a common idle model on both halves.
#[derive(Clone, Debug)]
pub struct PairMemory {
    capacity: usize,
    idle: IdleParams,
    /// Simulation time every stored pair is up to date at.
    clock: f64,
    pairs: Vec<BellDiagonal>,
}

impl PairMemory {
    /// Creates an empty memory at time 0.
    pub fn new(capacity: usize, idle: IdleParams) -> Self {
        PairMemory {
            capacity,
            idle,
            clock: 0.0,
            pairs: Vec::new(),
        }
    }

    /// Number of stored pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when no pairs are stored.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// True when at capacity.
    pub fn is_full(&self) -> bool {
        self.pairs.len() >= self.capacity
    }

    /// Capacity in pairs.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The stored pairs (callers should [`Self::decay_to`] first).
    pub fn pairs(&self) -> &[BellDiagonal] {
        &self.pairs
    }

    /// Advances every stored pair to time `t` with one idle step.
    ///
    /// Simulation time never runs backwards; an earlier `t` leaves the
    /// memory unchanged.
    pub fn decay_to(&mut self, t: f64) {
        debug_assert!(t >= self.clock, "decay to {t} before {}", self.clock);
        if t > self.clock {
            if !self.pairs.is_empty() {
                let probs = self.idle.twirl_probs(t - self.clock);
                for pair in &mut self.pairs {
                    pair.idle(probs, probs);
                }
            }
            self.clock = t;
        }
    }

    /// Decays the memory to `t` and inserts a pair created at `t`; when
    /// full, the worst-fidelity pair (including the candidate) is dropped.
    /// Returns `true` when the candidate was kept; a zero-capacity memory
    /// keeps nothing.
    pub fn insert(&mut self, t: f64, pair: BellDiagonal) -> bool {
        self.decay_to(t);
        if !self.is_full() {
            self.pairs.push(pair);
            return true;
        }
        let Some((worst_idx, worst)) = self
            .pairs
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.fidelity().total_cmp(&b.1.fidelity()))
        else {
            return false;
        };
        if worst.fidelity() < pair.fidelity() {
            self.pairs[worst_idx] = pair;
            true
        } else {
            false
        }
    }

    /// Removes and returns the two best-fidelity pairs, if present.
    pub fn take_best_two(&mut self) -> Option<(BellDiagonal, BellDiagonal)> {
        if self.pairs.len() < 2 {
            return None;
        }
        let a = self.take_best().expect("len >= 2");
        let b = self.take_best().expect("len >= 1");
        Some((a, b))
    }

    /// Removes and returns the best-fidelity pair.
    pub fn take_best(&mut self) -> Option<BellDiagonal> {
        let (best_idx, _) = self
            .pairs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.fidelity().total_cmp(&b.1.fidelity()))?;
        Some(self.pairs.swap_remove(best_idx))
    }

    /// Best fidelity currently stored (after decaying to `t`).
    pub fn best_fidelity(&mut self, t: f64) -> Option<f64> {
        self.decay_to(t);
        self.pairs
            .iter()
            .map(BellDiagonal::fidelity)
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

    /// A pair with the time it was last brought up to date.
    #[derive(Clone, Copy)]
    struct StoredPair {
        pair: BellDiagonal,
        last_update: f64,
    }

    /// The per-slot memory [`PairMemory`] replaced, kept as its
    /// differential oracle: every slot has its own `last_update` and its own
    /// twirl, eviction is `min_by`, removal `max_by` plus `swap_remove`.
    struct OracleMemory {
        capacity: usize,
        idle: IdleParams,
        slots: Vec<StoredPair>,
    }

    impl OracleMemory {
        fn decay_to(&mut self, t: f64) {
            for s in &mut self.slots {
                let dt = t - s.last_update;
                if dt > 0.0 {
                    let probs = self.idle.twirl_probs(dt);
                    s.pair.idle(probs, probs);
                    s.last_update = t;
                }
            }
        }

        fn insert(&mut self, pair: StoredPair) -> bool {
            if self.slots.len() < self.capacity {
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

        fn take_best(&mut self) -> Option<StoredPair> {
            let best_idx = self
                .slots
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.pair.fidelity().total_cmp(&b.1.pair.fidelity()))?
                .0;
            Some(self.slots.swap_remove(best_idx))
        }

        fn take_best_two(&mut self) -> Option<(StoredPair, StoredPair)> {
            if self.slots.len() < 2 {
                return None;
            }
            Some((self.take_best()?, self.take_best()?))
        }

        fn best_fidelity(&mut self, t: f64) -> Option<f64> {
            self.decay_to(t);
            self.slots
                .iter()
                .map(|s| s.pair.fidelity())
                .max_by(f64::total_cmp)
        }
    }

    fn bits(pair: &BellDiagonal) -> [u64; 4] {
        pair.components().map(f64::to_bits)
    }

    /// One memory operation, each at a time `dt` after the previous one
    /// (`dt` is often exactly zero, so operations share instants).
    #[derive(Clone, Debug)]
    enum Op {
        Decay(f64),
        Insert(f64, f64),
        TakeBestTwo,
        BestFidelity(f64),
    }

    fn arb_dt() -> impl Strategy<Value = f64> {
        prop_oneof![Just(0.0), 0.0..2e-5]
    }

    /// Werner fidelities drawn from a three-value set half of the time, so
    /// exactly equal pairs are stored together and every tie rule is hit.
    fn arb_fidelity() -> impl Strategy<Value = f64> {
        prop_oneof![(0usize..3).prop_map(|k| [0.9, 0.95, 0.97][k]), 0.5..1.0]
    }

    /// Inserts are listed twice, so memories fill up and evict.
    fn arb_op() -> impl Strategy<Value = Op> {
        let insert = || (arb_dt(), arb_fidelity()).prop_map(|(dt, f)| Op::Insert(dt, f));
        prop_oneof![
            arb_dt().prop_map(Op::Decay),
            insert(),
            insert(),
            Just(Op::TakeBestTwo),
            arb_dt().prop_map(Op::BestFidelity),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn one_clock_memory_matches_per_slot_oracle(
            capacity in 0usize..=8,
            t1 in 1e-4..1e-1,
            t2_frac in 0.1..1.0,
            ops in proptest::collection::vec(arb_op(), 0..48),
        ) {
            let idle = IdleParams::new(t1, 2.0 * t1 * t2_frac).unwrap();
            let mut fast = PairMemory::new(capacity, idle);
            let mut oracle = OracleMemory { capacity, idle, slots: Vec::new() };
            let mut t = 0.0;
            for (step, op) in ops.iter().enumerate() {
                match *op {
                    Op::Decay(dt) => {
                        t += dt;
                        fast.decay_to(t);
                        oracle.decay_to(t);
                    }
                    Op::Insert(dt, f) => {
                        t += dt;
                        let pair = BellDiagonal::werner(f);
                        oracle.decay_to(t);
                        let kept = oracle.insert(StoredPair { pair, last_update: t });
                        prop_assert_eq!(fast.insert(t, pair), kept, "step {}", step);
                    }
                    Op::TakeBestTwo => {
                        let want = oracle
                            .take_best_two()
                            .map(|(a, b)| (bits(&a.pair), bits(&b.pair)));
                        let got = fast.take_best_two().map(|(a, b)| (bits(&a), bits(&b)));
                        prop_assert_eq!(got, want, "step {}", step);
                    }
                    Op::BestFidelity(dt) => {
                        t += dt;
                        let want = oracle.best_fidelity(t).map(f64::to_bits);
                        prop_assert_eq!(fast.best_fidelity(t).map(f64::to_bits), want);
                    }
                }
                let want: Vec<[u64; 4]> = oracle.slots.iter().map(|s| bits(&s.pair)).collect();
                let got: Vec<[u64; 4]> = fast.pairs().iter().map(bits).collect();
                prop_assert_eq!(got, want, "step {}", step);
                for s in &oracle.slots {
                    prop_assert_eq!(s.last_update.to_bits(), fast.clock.to_bits());
                }
            }
        }
    }

    #[test]
    fn zero_capacity_memory_rejects_every_pair() {
        let mut m = PairMemory::new(0, idle());
        assert!(m.is_full());
        assert!(!m.insert(0.0, BellDiagonal::perfect()));
        assert!(m.is_empty());
        assert!(m.take_best().is_none());
        assert_eq!(m.best_fidelity(1e-6), None);
    }

    #[test]
    fn decay_reduces_fidelity_over_time() {
        let mut m = PairMemory::new(4, idle());
        m.insert(0.0, BellDiagonal::perfect());
        m.decay_to(100e-6);
        let f = m.pairs()[0].fidelity();
        assert!(f < 1.0 && f > 0.7, "decayed fidelity {f}");
        // Decay is idempotent once up to date.
        m.decay_to(100e-6);
        assert_eq!(m.pairs()[0].fidelity(), f);
    }

    #[test]
    fn insert_evicts_worst_when_full() {
        let mut m = PairMemory::new(2, idle());
        m.insert(0.0, BellDiagonal::werner(0.7));
        m.insert(0.0, BellDiagonal::werner(0.9));
        // Better than the worst: replaces it.
        assert!(m.insert(0.0, BellDiagonal::werner(0.8)));
        assert!(m.pairs().iter().all(|p| p.fidelity() > 0.75));
        // Worse than everything: dropped.
        assert!(!m.insert(0.0, BellDiagonal::werner(0.5)));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn take_best_two_returns_descending() {
        let mut m = PairMemory::new(4, idle());
        for f in [0.6, 0.9, 0.7] {
            m.insert(0.0, BellDiagonal::werner(f));
        }
        let (a, b) = m.take_best_two().unwrap();
        assert!((a.fidelity() - 0.9).abs() < 1e-12);
        assert!((b.fidelity() - 0.7).abs() < 1e-12);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn take_best_two_needs_two() {
        let mut m = PairMemory::new(4, idle());
        m.insert(0.0, BellDiagonal::werner(0.8));
        assert!(m.take_best_two().is_none());
        assert_eq!(m.len(), 1, "failed take must not consume");
    }
}
