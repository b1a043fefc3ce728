//! Data-qubit assignment to USC registers, and serialized check schedules.
//!
//! The UEC module stores data qubits in up to three 10-mode Registers around
//! a shared stabilizer ancilla (paper §4.2.2). Each Register has a single
//! compute qubit, so data co-located in one Register must be swapped out
//! *sequentially* during a check; the assignment search spreads each check's
//! support across Registers to maximize swap parallelism, which is the paper's
//! "maximum possible parallelism while minimizing time outside storage".

use serde::{Deserialize, Serialize};

use hetarch_cells::UscChannel;
use hetarch_stab::codes::StabilizerCode;

/// A mapping from data qubit index to register index.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    registers: u32,
    of_qubit: Vec<u32>,
}

impl Assignment {
    /// Creates an assignment from an explicit map.
    ///
    /// # Panics
    ///
    /// Panics if any register index is out of range.
    pub fn new(registers: u32, of_qubit: Vec<u32>) -> Self {
        assert!(
            of_qubit.iter().all(|&r| r < registers),
            "register out of range"
        );
        Assignment {
            registers,
            of_qubit,
        }
    }

    /// Register of data qubit `q`.
    pub fn register_of(&self, q: usize) -> u32 {
        self.of_qubit[q]
    }

    /// Number of registers used.
    pub fn registers(&self) -> u32 {
        self.registers
    }

    /// Number of data qubits.
    pub fn num_qubits(&self) -> usize {
        self.of_qubit.len()
    }

    /// For one check support, the largest number of its qubits co-located in
    /// a single register (the swap-serialization factor).
    pub fn max_group(&self, support: &[usize]) -> usize {
        let mut counts = vec![0usize; self.registers as usize];
        for &q in support {
            counts[self.of_qubit[q] as usize] += 1;
        }
        counts.into_iter().max().unwrap_or(0)
    }

    /// Total swap-serialization cost over all checks of a code.
    pub fn cost(&self, code: &StabilizerCode) -> usize {
        code.stabilizers()
            .iter()
            .map(|s| {
                let support: Vec<usize> = s.iter_support().map(|(q, _)| q).collect();
                self.max_group(&support)
            })
            .sum()
    }
}

/// Searches for a good assignment of `code`'s data qubits to `registers`
/// registers with `modes` modes each.
///
/// Exact for small codes (≤ 10 qubits, ≤ 3 registers): a branch-and-bound
/// search returning the first minimum-cost assignment in lexicographic
/// order. Greedy placement plus hill-climbing otherwise (the paper's brute
/// force is likewise "a first study" and flags scalable search as future
/// work).
///
/// # Panics
///
/// Panics if the code does not fit (`n > registers × modes`).
pub fn search_assignment(code: &StabilizerCode, registers: u32, modes: u32) -> Assignment {
    let n = code.num_qubits();
    assert!(
        n <= (registers * modes) as usize,
        "code with {n} qubits exceeds capacity {}",
        registers * modes
    );
    if n <= 10 && registers <= 3 {
        exhaustive(&check_supports(code), n, registers, modes)
    } else {
        hill_climb(code, registers, modes)
    }
}

/// The data qubits of each stabilizer generator, in generator order.
fn check_supports(code: &StabilizerCode) -> Vec<Vec<usize>> {
    code.stabilizers()
        .iter()
        .map(|s| s.iter_support().map(|(q, _)| q).collect())
        .collect()
}

fn capacity_ok(of_qubit: &[u32], registers: u32, modes: u32) -> bool {
    let mut counts = vec![0u32; registers as usize];
    for &r in of_qubit {
        counts[r as usize] += 1;
    }
    counts.into_iter().all(|c| c <= modes)
}

/// The cheapest assignment of `n` qubits to `registers` registers of
/// `modes` modes, where the cost is the sum over `supports` of each check's
/// largest per-register group.
///
/// Visits assignments depth-first in lexicographic order with qubit 0
/// pinned to register 0 (register labels are symmetric) and keeps the
/// first strictly cheaper one, so among equal-cost optima it returns the
/// lexicographically first. A branch is cut when its register is full, or
/// when its partial cost already reaches the best found: a check's largest
/// group never shrinks as qubits are added, so no leaf below it is cheaper.
fn exhaustive(supports: &[Vec<usize>], n: usize, registers: u32, modes: u32) -> Assignment {
    let mut checks_of = vec![Vec::new(); n];
    for (c, support) in supports.iter().enumerate() {
        for &q in support {
            checks_of[q].push(c);
        }
    }
    let mut search = BranchAndBound {
        checks_of,
        registers: registers as usize,
        modes,
        counts: vec![0; supports.len() * registers as usize],
        max_group: vec![0; supports.len()],
        load: vec![0; registers as usize],
        cost: 0,
        of_qubit: vec![0; n],
        best_cost: usize::MAX,
        best: vec![0; n],
    };
    search.descend(0);
    assert!(
        search.best_cost < usize::MAX,
        "at least one assignment exists"
    );
    Assignment::new(registers, search.best)
}

/// In-place state of [`exhaustive`]'s depth-first search: every field is
/// updated on placing a qubit and restored on removing it, so the search
/// allocates nothing per node.
struct BranchAndBound {
    /// Checks whose support contains each qubit.
    checks_of: Vec<Vec<usize>>,
    registers: usize,
    modes: u32,
    /// Placed qubits of check `c` in register `r`, at `c * registers + r`.
    counts: Vec<u32>,
    /// Largest entry of each check's row of `counts`.
    max_group: Vec<u32>,
    /// Placed qubits per register.
    load: Vec<u32>,
    /// Sum of `max_group`: the partial cost.
    cost: usize,
    of_qubit: Vec<u32>,
    best_cost: usize,
    best: Vec<u32>,
}

impl BranchAndBound {
    fn descend(&mut self, q: usize) {
        if self.cost >= self.best_cost {
            return;
        }
        if q == self.of_qubit.len() {
            self.best_cost = self.cost;
            self.best.copy_from_slice(&self.of_qubit);
            return;
        }
        let limit = if q == 0 { 1 } else { self.registers };
        for r in 0..limit {
            if self.load[r] == self.modes {
                continue;
            }
            self.place(q, r);
            self.descend(q + 1);
            self.remove(q, r);
        }
    }

    fn place(&mut self, q: usize, r: usize) {
        self.of_qubit[q] = r as u32;
        self.load[r] += 1;
        for &c in &self.checks_of[q] {
            let count = &mut self.counts[c * self.registers + r];
            *count += 1;
            if *count > self.max_group[c] {
                self.max_group[c] = *count;
                self.cost += 1;
            }
        }
    }

    fn remove(&mut self, q: usize, r: usize) {
        self.load[r] -= 1;
        for &c in &self.checks_of[q] {
            let row = c * self.registers;
            self.counts[row + r] -= 1;
            let max = self.counts[row..row + self.registers]
                .iter()
                .copied()
                .max()
                .unwrap_or(0);
            self.cost -= (self.max_group[c] - max) as usize;
            self.max_group[c] = max;
        }
    }
}

fn hill_climb(code: &StabilizerCode, registers: u32, modes: u32) -> Assignment {
    let n = code.num_qubits();
    // Greedy start: round-robin.
    let mut map: Vec<u32> = (0..n).map(|q| (q as u32) % registers).collect();
    let mut cost = Assignment::new(registers, map.clone()).cost(code);
    let mut improved = true;
    while improved {
        improved = false;
        for q in 0..n {
            let original = map[q];
            for r in 0..registers {
                if r == original {
                    continue;
                }
                map[q] = r;
                if !capacity_ok(&map, registers, modes) {
                    continue;
                }
                let c = Assignment::new(registers, map.clone()).cost(code);
                if c < cost {
                    cost = c;
                    improved = true;
                    break;
                }
                map[q] = original;
            }
        }
    }
    Assignment::new(registers, map)
}

/// The serialized schedule of one QEC cycle.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CycleSchedule {
    /// Per-check timing, in stabilizer order.
    pub checks: Vec<CheckSlot>,
    /// Total cycle duration (seconds).
    pub cycle_duration: f64,
}

/// Timing of one serialized stabilizer check.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CheckSlot {
    /// Index of the stabilizer generator.
    pub stabilizer: usize,
    /// Wall-clock duration of the check.
    pub duration: f64,
    /// Time each involved data qubit spends outside storage.
    pub exposure: f64,
    /// Check weight.
    pub weight: usize,
}

/// Builds the cycle schedule for `code` under `assignment` on a USC with
/// channel `usc`: per check, parallel swap-outs across registers (serialized
/// within one register), serial CXs through the shared ancilla, swap-backs,
/// then ancilla readout.
pub fn build_schedule(
    code: &StabilizerCode,
    assignment: &Assignment,
    usc: &UscChannel,
) -> CycleSchedule {
    let mut checks = Vec::new();
    let mut total = 0.0;
    for (i, s) in code.stabilizers().iter().enumerate() {
        let support: Vec<usize> = s.iter_support().map(|(q, _)| q).collect();
        let w = support.len();
        let max_group = assignment.max_group(&support);
        let duration =
            2.0 * max_group as f64 * usc.swap.time + w as f64 * usc.cx.time + usc.readout_time;
        let exposure = 2.0 * usc.swap.time + w as f64 * usc.cx.time;
        checks.push(CheckSlot {
            stabilizer: i,
            duration,
            exposure,
            weight: w,
        });
        total += duration;
    }
    CycleSchedule {
        checks,
        cycle_duration: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetarch_cells::UscCell;
    use hetarch_devices::catalog::{coherence_limited_compute, coherence_limited_storage};
    use hetarch_stab::codes::{color_17, repetition_code, rotated_surface_code, steane};
    use proptest::prelude::*;

    fn usc_channel() -> UscChannel {
        UscCell::new(
            coherence_limited_compute(0.5e-3),
            coherence_limited_storage(1e-3),
        )
        .unwrap()
        .characterize()
    }

    #[test]
    fn steane_assignment_spreads_checks() {
        let code = steane();
        let a = search_assignment(&code, 3, 10);
        assert_eq!(a.num_qubits(), 7);
        // Optimal: every weight-4 check splits at most 2-2 across registers.
        for s in code.stabilizers() {
            let support: Vec<usize> = s.iter_support().map(|(q, _)| q).collect();
            assert!(a.max_group(&support) <= 2, "check too concentrated");
        }
    }

    #[test]
    fn assignment_respects_capacity() {
        let code = rotated_surface_code(4); // 16 qubits
        let a = search_assignment(&code, 3, 10);
        let mut counts = [0u32; 3];
        for q in 0..16 {
            counts[a.register_of(q) as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c <= 10));
        assert_eq!(counts.iter().sum::<u32>(), 16);
    }

    #[test]
    fn hill_climb_beats_or_matches_round_robin() {
        let code = rotated_surface_code(4);
        let rr = Assignment::new(3, (0..16).map(|q| (q as u32) % 3).collect());
        let tuned = search_assignment(&code, 3, 10);
        assert!(tuned.cost(&code) <= rr.cost(&code));
    }

    /// On codes past the exhaustive bound the search stops only at a local
    /// optimum: the result fits, and no single-qubit move to another
    /// register that still fits lowers the cost.
    #[test]
    fn hill_climb_stops_at_a_local_optimum_on_color17_and_sc5() {
        for code in [color_17(), rotated_surface_code(5)] {
            let n = code.num_qubits();
            let found = search_assignment(&code, 3, 10);
            let map: Vec<u32> = (0..n).map(|q| found.register_of(q)).collect();
            assert!(capacity_ok(&map, 3, 10), "{} overflows", code.name());
            let cost = found.cost(&code);
            for q in 0..n {
                for r in (0..3).filter(|&r| r != map[q]) {
                    let mut moved = map.clone();
                    moved[q] = r;
                    if capacity_ok(&moved, 3, 10) {
                        assert!(
                            Assignment::new(3, moved).cost(&code) >= cost,
                            "{}: moving qubit {q} to register {r} lowers the cost",
                            code.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn schedule_durations_are_consistent() {
        let code = steane();
        let a = search_assignment(&code, 3, 10);
        let usc = usc_channel();
        let sched = build_schedule(&code, &a, &usc);
        assert_eq!(sched.checks.len(), 6);
        let sum: f64 = sched.checks.iter().map(|c| c.duration).sum();
        assert!((sum - sched.cycle_duration).abs() < 1e-12);
        for c in &sched.checks {
            assert!(c.duration >= c.exposure);
            assert_eq!(c.weight, 4);
        }
    }

    #[test]
    fn better_assignment_shortens_cycle() {
        let code = steane();
        let usc = usc_channel();
        let good = search_assignment(&code, 3, 10);
        // Pathological: everything in one register.
        let bad = Assignment::new(3, vec![0; 7]);
        let t_good = build_schedule(&code, &good, &usc).cycle_duration;
        let t_bad = build_schedule(&code, &bad, &usc).cycle_duration;
        assert!(t_good < t_bad);
    }

    /// The brute-force leaf scan the branch-and-bound search replaced: every
    /// assignment with qubit 0 in register 0, in lexicographic order,
    /// keeping the first strictly cheaper one that fits.
    fn leaf_scan(supports: &[Vec<usize>], n: usize, registers: u32, modes: u32) -> Assignment {
        fn cost(supports: &[Vec<usize>], a: &Assignment) -> usize {
            supports.iter().map(|s| a.max_group(s)).sum()
        }
        fn rec(
            q: usize,
            of_qubit: &mut Vec<u32>,
            supports: &[Vec<usize>],
            registers: u32,
            modes: u32,
            best: &mut Option<(usize, Vec<u32>)>,
        ) {
            if q == of_qubit.len() {
                if !capacity_ok(of_qubit, registers, modes) {
                    return;
                }
                let c = cost(supports, &Assignment::new(registers, of_qubit.clone()));
                if best.as_ref().is_none_or(|(b, _)| c < *b) {
                    *best = Some((c, of_qubit.clone()));
                }
                return;
            }
            let limit = if q == 0 { 1 } else { registers };
            for r in 0..limit {
                of_qubit[q] = r;
                rec(q + 1, of_qubit, supports, registers, modes, best);
            }
        }
        let mut best = None;
        rec(0, &mut vec![0; n], supports, registers, modes, &mut best);
        let (_, map) = best.expect("at least one assignment exists");
        Assignment::new(registers, map)
    }

    #[test]
    fn branch_and_bound_matches_leaf_scan_on_shipped_codes() {
        let mut codes = vec![steane(), rotated_surface_code(2), rotated_surface_code(3)];
        codes.extend((3..=10).map(repetition_code));
        for code in codes {
            let n = code.num_qubits();
            let supports = check_supports(&code);
            for (registers, modes) in [(3, 10), (3, 4), (2, 10), (2, 5), (1, 10), (3, 3)] {
                if n > (registers * modes) as usize {
                    continue;
                }
                assert_eq!(
                    exhaustive(&supports, n, registers, modes),
                    leaf_scan(&supports, n, registers, modes),
                    "{} on {registers} registers of {modes} modes",
                    code.name()
                );
            }
        }
    }

    /// A random search instance: `n` qubits, `registers` registers with
    /// enough modes to fit, and check supports of distinct qubits.
    #[derive(Debug)]
    struct Instance {
        n: usize,
        registers: u32,
        modes: u32,
        supports: Vec<Vec<usize>>,
    }

    fn arb_instance() -> impl Strategy<Value = Instance> {
        (
            1usize..=10,
            1u32..=3,
            0u32..=10,
            proptest::collection::vec(proptest::collection::btree_set(0usize..10, 1..=6), 1..=12),
        )
            .prop_map(|(n, registers, extra_modes, raw)| {
                let min_modes = (n as u32).div_ceil(registers);
                let modes = min_modes + extra_modes % (10 - min_modes + 1);
                let supports = raw
                    .into_iter()
                    .map(|set| {
                        let mut s: Vec<usize> = set.into_iter().map(|q| q % n).collect();
                        s.sort_unstable();
                        s.dedup();
                        s
                    })
                    .collect();
                Instance {
                    n,
                    registers,
                    modes,
                    supports,
                }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn branch_and_bound_matches_leaf_scan(inst in arb_instance()) {
            prop_assert_eq!(
                exhaustive(&inst.supports, inst.n, inst.registers, inst.modes),
                leaf_scan(&inst.supports, inst.n, inst.registers, inst.modes),
                "{:?}",
                inst
            );
        }
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn oversized_code_rejected() {
        let code = rotated_surface_code(6); // 36 qubits > 30
        search_assignment(&code, 3, 10);
    }
}
