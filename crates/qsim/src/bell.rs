//! Bell states, Bell-diagonal entangled pairs, and the DEJMPS distillation
//! primitive (paper §4.1).
//!
//! Entangled pairs stored in HetArch memories are modeled as **Bell-diagonal**
//! two-qubit states: idle noise is Pauli-twirled, and twirled Pauli errors
//! merely permute the four Bell components, so the representation is closed
//! under storage decay. A single DEJMPS round is computed two ways:
//!
//! * [`dejmps_density`] — an exact 4-qubit density-matrix simulation of the
//!   protocol circuit (with optional gate/measurement noise), and
//! * [`DejmpsTable`] — a bilinear closed form extracted *from* that exact
//!   simulation, used on the event-simulator fast path. A property test in
//!   this module pins the two together.

use serde::{Deserialize, Serialize};

use crate::channels::{Kraus1, Kraus2, PauliProbs};
use crate::complex::C64;
use crate::fidelity::fidelity_with_pure;
use crate::gates;
use crate::measure::project_z;
use crate::state::DensityMatrix;

/// The four Bell states, in the component order used by [`BellDiagonal`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BellState {
    /// `(|00⟩ + |11⟩)/√2`
    PhiPlus,
    /// `(|00⟩ − |11⟩)/√2`
    PhiMinus,
    /// `(|01⟩ + |10⟩)/√2`
    PsiPlus,
    /// `(|01⟩ − |10⟩)/√2`
    PsiMinus,
}

impl BellState {
    /// All four Bell states in component order.
    pub const ALL: [BellState; 4] = [
        BellState::PhiPlus,
        BellState::PhiMinus,
        BellState::PsiPlus,
        BellState::PsiMinus,
    ];

    /// The two-qubit state vector (basis order `|q1 q0⟩`, index `q0 + 2·q1`).
    pub fn state_vector(self) -> [C64; 4] {
        let s = C64::real(std::f64::consts::FRAC_1_SQRT_2);
        match self {
            BellState::PhiPlus => [s, C64::ZERO, C64::ZERO, s],
            BellState::PhiMinus => [s, C64::ZERO, C64::ZERO, -s],
            BellState::PsiPlus => [C64::ZERO, s, s, C64::ZERO],
            BellState::PsiMinus => [C64::ZERO, s, -s, C64::ZERO],
        }
    }

    /// Component index in [`BellDiagonal`].
    pub fn index(self) -> usize {
        match self {
            BellState::PhiPlus => 0,
            BellState::PhiMinus => 1,
            BellState::PsiPlus => 2,
            BellState::PsiMinus => 3,
        }
    }
}

/// A Bell-diagonal two-qubit state: a probabilistic mixture of the four Bell
/// states with components ordered `[Φ+, Φ−, Ψ+, Ψ−]`.
///
/// # Examples
///
/// ```
/// use hetarch_qsim::bell::BellDiagonal;
///
/// let pair = BellDiagonal::werner(0.9);
/// assert!((pair.fidelity() - 0.9).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BellDiagonal {
    p: [f64; 4],
}

impl BellDiagonal {
    /// A perfect `Φ+` pair.
    pub fn perfect() -> Self {
        BellDiagonal {
            p: [1.0, 0.0, 0.0, 0.0],
        }
    }

    /// Creates a Bell-diagonal state from component probabilities
    /// `[Φ+, Φ−, Ψ+, Ψ−]`, normalizing them.
    ///
    /// # Panics
    ///
    /// Panics if any component is negative or the sum is zero.
    #[inline]
    pub fn new(p: [f64; 4]) -> Self {
        let sum: f64 = p.iter().sum();
        assert!(
            p.iter().all(|&x| x >= -1e-12) && sum > 0.0,
            "invalid bell-diagonal components {p:?}"
        );
        BellDiagonal {
            p: [
                (p[0] / sum).max(0.0),
                (p[1] / sum).max(0.0),
                (p[2] / sum).max(0.0),
                (p[3] / sum).max(0.0),
            ],
        }
    }

    /// A Werner state with fidelity `f` to `Φ+` (the other three components
    /// share `1 − f` equally).
    ///
    /// # Panics
    ///
    /// Panics if `f ∉ [0, 1]`.
    #[inline]
    pub fn werner(f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f), "fidelity {f} outside [0, 1]");
        let r = (1.0 - f) / 3.0;
        BellDiagonal { p: [f, r, r, r] }
    }

    /// Component probabilities `[Φ+, Φ−, Ψ+, Ψ−]`.
    pub fn components(&self) -> [f64; 4] {
        self.p
    }

    /// Fidelity with the target `Φ+` Bell state.
    pub fn fidelity(&self) -> f64 {
        self.p[0]
    }

    /// Infidelity `1 − F`.
    pub fn infidelity(&self) -> f64 {
        1.0 - self.p[0]
    }

    /// Extracts the Bell-diagonal part of an arbitrary two-qubit density
    /// matrix (equivalent to twirling over the Bell-preserving group).
    ///
    /// # Panics
    ///
    /// Panics if `rho` is not a two-qubit state.
    pub fn from_density_matrix(rho: &DensityMatrix) -> Self {
        assert_eq!(rho.num_qubits(), 2, "bell-diagonal form needs 2 qubits");
        let mut p = [0.0; 4];
        for (k, b) in BellState::ALL.iter().enumerate() {
            p[k] = fidelity_with_pure(rho, &b.state_vector());
        }
        BellDiagonal::new(p)
    }

    /// Expands to the explicit two-qubit density matrix.
    pub fn to_density_matrix(&self) -> DensityMatrix {
        let mut out = DensityMatrix::zero_state(2);
        *out.entry_mut(0, 0) = C64::ZERO;
        for (k, b) in BellState::ALL.iter().enumerate() {
            if self.p[k] == 0.0 {
                continue;
            }
            let v = b.state_vector();
            for r in 0..4 {
                for c in 0..4 {
                    let add = v[r] * v[c].conj() * self.p[k];
                    let cur = out.entry(r, c) + add;
                    *out.entry_mut(r, c) = cur;
                }
            }
        }
        out
    }

    /// Applies a stochastic Pauli channel to **one** qubit of the pair.
    /// X, Y and Z errors permute the Bell components:
    /// X: Φ±↔Ψ±, Z: Φ+↔Φ−, Ψ+↔Ψ−, Y: Φ+↔Ψ−, Φ−↔Ψ+.
    ///
    /// Each component is `p0·own + px·X-partner + py·Y-partner +
    /// pz·Z-partner`, summed left to right, with the permutations written
    /// out literally.
    #[inline]
    pub fn apply_pauli_noise(&mut self, probs: PauliProbs) {
        let p0 = (1.0 - probs.total()).max(0.0);
        let PauliProbs { px, py, pz } = probs;
        let [a, b, c, d] = self.p;
        self.p = [
            p0 * a + px * c + py * d + pz * b,
            p0 * b + px * d + py * c + pz * a,
            p0 * c + px * a + py * b + pz * d,
            p0 * d + px * b + py * a + pz * c,
        ];
    }

    /// Idles the pair for `t` seconds with (possibly different) twirled idle
    /// noise on the two halves.
    #[inline]
    pub fn idle(&mut self, noise_a: PauliProbs, noise_b: PauliProbs) {
        self.apply_pauli_noise(noise_a);
        self.apply_pauli_noise(noise_b);
    }
}

impl Default for BellDiagonal {
    fn default() -> Self {
        BellDiagonal::perfect()
    }
}

/// Noise applied during a DEJMPS round (gate and readout imperfections of the
/// ParCheck cell executing it).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DistillNoise {
    /// Depolarizing probability attached to each two-qubit gate.
    pub p2q: f64,
    /// Depolarizing probability attached to each single-qubit gate.
    pub p1q: f64,
    /// Probability that a measurement outcome is recorded flipped.
    pub meas_flip: f64,
}

/// Outcome of a successful DEJMPS round.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DistillOutcome {
    /// The surviving (purified) pair.
    pub pair: BellDiagonal,
    /// Probability that the round heralds success.
    pub success_prob: f64,
}

/// Runs one DEJMPS round exactly on a 4-qubit density matrix.
///
/// Qubits 0/1 hold `pair1` (kept on success), qubits 2/3 hold `pair2`
/// (sacrificed). Alice holds qubits 0 and 2, Bob holds 1 and 3. The protocol
/// applies `RX(π/2)` on Alice's qubits, `RX(−π/2)` on Bob's, bilateral CNOTs
/// from the kept pair onto the sacrificed pair, and measures the sacrificed
/// pair in Z, keeping the result when the outcomes agree.
///
/// Returns `None` if success probability is numerically zero.
pub fn dejmps_density(
    pair1: &BellDiagonal,
    pair2: &BellDiagonal,
    noise: &DistillNoise,
) -> Option<DistillOutcome> {
    DejmpsRound::new(noise).run(pair1, pair2)
}

/// The noise channels of one DEJMPS round, built once so every input pair
/// run through the round shares their compiled kernels.
struct DejmpsRound {
    depol_1q: Option<Kraus1>,
    depol_2q: Option<Kraus2>,
    meas_flip: Option<Kraus1>,
}

impl DejmpsRound {
    fn new(noise: &DistillNoise) -> Self {
        DejmpsRound {
            depol_1q: (noise.p1q > 0.0)
                .then(|| Kraus1::depolarizing(noise.p1q).expect("validated probability")),
            depol_2q: (noise.p2q > 0.0)
                .then(|| Kraus2::depolarizing(noise.p2q).expect("validated probability")),
            meas_flip: (noise.meas_flip > 0.0)
                .then(|| Kraus1::bit_flip(noise.meas_flip).expect("validated probability")),
        }
    }

    /// The round of [`dejmps_density`] on one input pair combination.
    fn run(&self, pair1: &BellDiagonal, pair2: &BellDiagonal) -> Option<DistillOutcome> {
        // Qubits 0,1 = kept pair; 2,3 = sacrificed pair.
        let mut rho = pair1.to_density_matrix().tensor(&pair2.to_density_matrix());
        let half_pi = std::f64::consts::FRAC_PI_2;
        gates::rx(&mut rho, 0, half_pi);
        gates::rx(&mut rho, 2, half_pi);
        gates::rx(&mut rho, 1, -half_pi);
        gates::rx(&mut rho, 3, -half_pi);
        if let Some(d) = &self.depol_1q {
            for q in 0..4 {
                d.apply(&mut rho, q);
            }
        }
        gates::cnot(&mut rho, 0, 2);
        gates::cnot(&mut rho, 1, 3);
        if let Some(d) = &self.depol_2q {
            d.apply(&mut rho, 0, 2);
            d.apply(&mut rho, 1, 3);
        }
        if let Some(f) = &self.meas_flip {
            f.apply(&mut rho, 2);
            f.apply(&mut rho, 3);
        }
        herald_equal_outcomes(&rho)
    }
}

/// Measures qubits 2/3 of a post-circuit DEJMPS state and heralds on equal
/// outcomes, returning the renormalized kept pair.
fn herald_equal_outcomes(rho: &DensityMatrix) -> Option<DistillOutcome> {
    // Herald on equal outcomes: branches (0,0) and (1,1).
    let mut keep = DensityMatrix::zero_state(2);
    *keep.entry_mut(0, 0) = C64::ZERO;
    let mut success = 0.0;
    for outcome in [false, true] {
        let mut branch = rho.clone();
        let pa = project_z(&mut branch, 2, outcome);
        if pa <= 0.0 {
            continue;
        }
        let pb = project_z(&mut branch, 3, outcome);
        if pb <= 0.0 {
            continue;
        }
        // `branch` is unnormalized with weight = joint probability.
        let reduced = branch.partial_trace(&[0, 1]);
        let weight: f64 = reduced.trace().re;
        success += weight;
        for r in 0..4 {
            for c in 0..4 {
                let v = keep.entry(r, c) + reduced.entry(r, c);
                *keep.entry_mut(r, c) = v;
            }
        }
    }
    if success <= 1e-15 {
        return None;
    }
    keep.renormalize(success);
    Some(DistillOutcome {
        pair: BellDiagonal::from_density_matrix(&keep),
        success_prob: success,
    })
}

/// A precomputed bilinear closed form of the noiseless or fixed-noise DEJMPS
/// round.
///
/// DEJMPS is bilinear in the (unnormalized) Bell components of its two input
/// pairs, so evaluating the exact density-matrix protocol on the 16 pure Bell
/// input combinations determines it completely. Constructing the table costs
/// 16 small density-matrix simulations; evaluating it costs 80 multiplies.
#[derive(Clone, Debug)]
pub struct DejmpsTable {
    /// success[i][j]: heralding probability for pure inputs (i, j).
    success: [[f64; 4]; 4],
    /// out[i][j][k]: unnormalized output component k for pure inputs (i, j).
    out: [[[f64; 4]; 4]; 4],
}

impl DejmpsTable {
    /// Builds the table for a fixed per-round noise setting.
    ///
    /// All 16 pure Bell input combinations run through one round whose
    /// channel kernels are compiled once for the whole table.
    pub fn new(noise: &DistillNoise) -> Self {
        let round = DejmpsRound::new(noise);
        let mut success = [[0.0; 4]; 4];
        let mut out = [[[0.0; 4]; 4]; 4];
        for i in 0..4 {
            for j in 0..4 {
                let mut pi = [0.0; 4];
                pi[i] = 1.0;
                let mut pj = [0.0; 4];
                pj[j] = 1.0;
                if let Some(o) = round.run(&BellDiagonal::new(pi), &BellDiagonal::new(pj)) {
                    success[i][j] = o.success_prob;
                    let comp = o.pair.components();
                    for k in 0..4 {
                        out[i][j][k] = comp[k] * o.success_prob;
                    }
                }
            }
        }
        DejmpsTable { success, out }
    }

    /// Evaluates one DEJMPS round via the bilinear form.
    ///
    /// The 16 input weights are accumulated in row-major `(i, j)` order
    /// without branches. A zero weight adds a signed zero, which leaves the
    /// `+0.0`-initialised sums unchanged as long as the table entries and the
    /// input components are finite (every constructor guarantees both), so
    /// skipping zero weights would give the same bits.
    ///
    /// Returns `None` when the heralding probability is numerically zero.
    #[inline]
    pub fn round(&self, pair1: &BellDiagonal, pair2: &BellDiagonal) -> Option<DistillOutcome> {
        let a = pair1.components();
        let b = pair2.components();
        let mut s = 0.0;
        let mut comp = [0.0; 4];
        for (i, &ai) in a.iter().enumerate() {
            for (j, &bj) in b.iter().enumerate() {
                let w = ai * bj;
                s += w * self.success[i][j];
                let out = &self.out[i][j];
                comp[0] += w * out[0];
                comp[1] += w * out[1];
                comp[2] += w * out[2];
                comp[3] += w * out[3];
            }
        }
        if s <= 1e-15 {
            return None;
        }
        Some(DistillOutcome {
            pair: BellDiagonal::new(comp),
            success_prob: s,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channels::IdleParams;
    use proptest::prelude::*;

    const TOL: f64 = 1e-10;

    /// The permutation-table kernel that [`BellDiagonal::apply_pauli_noise`]
    /// unrolls: the differential oracle for it.
    fn apply_pauli_noise_reference(pair: &mut BellDiagonal, probs: PauliProbs) {
        let p0 = (1.0 - probs.total()).max(0.0);
        let old = pair.p;
        let perm_x = [2usize, 3, 0, 1];
        let perm_z = [1usize, 0, 3, 2];
        let perm_y = [3usize, 2, 1, 0];
        for k in 0..4 {
            pair.p[k] = p0 * old[k]
                + probs.px * old[perm_x[k]]
                + probs.py * old[perm_y[k]]
                + probs.pz * old[perm_z[k]];
        }
    }

    /// The zero-skipping accumulation that [`DejmpsTable::round`] makes
    /// branch-free: the differential oracle for it.
    fn round_reference(
        table: &DejmpsTable,
        pair1: &BellDiagonal,
        pair2: &BellDiagonal,
    ) -> Option<DistillOutcome> {
        let a = pair1.components();
        let b = pair2.components();
        let mut s = 0.0;
        let mut comp = [0.0; 4];
        for (i, &ai) in a.iter().enumerate() {
            if ai == 0.0 {
                continue;
            }
            for (j, &bj) in b.iter().enumerate() {
                let w = ai * bj;
                if w == 0.0 {
                    continue;
                }
                s += w * table.success[i][j];
                for (ck, &ok) in comp.iter_mut().zip(&table.out[i][j]) {
                    *ck += w * ok;
                }
            }
        }
        if s <= 1e-15 {
            return None;
        }
        Some(DistillOutcome {
            pair: BellDiagonal::new(comp),
            success_prob: s,
        })
    }

    fn bits(p: &BellDiagonal) -> [u64; 4] {
        p.p.map(f64::to_bits)
    }

    fn outcome_bits(o: Option<DistillOutcome>) -> Option<(u64, [u64; 4])> {
        o.map(|o| (o.success_prob.to_bits(), bits(&o.pair)))
    }

    /// A nonnegative value that is exactly zero, subnormal, tiny-normal or
    /// of order one, each a quarter of the time.
    fn arb_entry() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            0.0..f64::MIN_POSITIVE,
            f64::MIN_POSITIVE..1e-200,
            0.0..1.0,
        ]
    }

    /// Raw Bell components, not renormalized, so exact zeros and subnormals
    /// reach the kernels as drawn.
    fn arb_pair() -> impl Strategy<Value = BellDiagonal> {
        (arb_entry(), arb_entry(), arb_entry(), arb_entry())
            .prop_map(|(a, b, c, d)| BellDiagonal { p: [a, b, c, d] })
    }

    fn arb_probs() -> impl Strategy<Value = PauliProbs> {
        (arb_entry(), arb_entry(), arb_entry()).prop_map(|(x, y, z)| PauliProbs {
            px: x / 3.0,
            py: y / 3.0,
            pz: z / 3.0,
        })
    }

    /// A table with arbitrary finite entries; every `out[i][j]` keeps one
    /// positive component so a heralded outcome always normalizes.
    fn arb_table() -> impl Strategy<Value = DejmpsTable> {
        proptest::collection::vec(arb_entry(), 80..=80).prop_map(|v| {
            let mut table = DejmpsTable {
                success: [[0.0; 4]; 4],
                out: [[[0.0; 4]; 4]; 4],
            };
            for (idx, chunk) in v.chunks(5).enumerate() {
                let (i, j) = (idx / 4, idx % 4);
                table.success[i][j] = chunk[0];
                table.out[i][j] = [chunk[1] + 0.5, chunk[2], chunk[3], chunk[4]];
            }
            table
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn unrolled_pauli_noise_matches_permutation_tables(
            pair in arb_pair(),
            probs in arb_probs(),
        ) {
            let mut fast = pair;
            fast.apply_pauli_noise(probs);
            let mut oracle = pair;
            apply_pauli_noise_reference(&mut oracle, probs);
            prop_assert_eq!(bits(&fast), bits(&oracle), "{:?} {:?}", pair, probs);
        }

        #[test]
        fn branch_free_round_matches_zero_skipping_loop(
            table in arb_table(),
            a in arb_pair(),
            b in arb_pair(),
        ) {
            prop_assert_eq!(
                outcome_bits(table.round(&a, &b)),
                outcome_bits(round_reference(&table, &a, &b)),
                "{:?} {:?} {:?}",
                table,
                a,
                b
            );
        }
    }

    #[test]
    fn branch_free_round_matches_oracle_on_protocol_tables() {
        let noisy = DistillNoise {
            p2q: 0.005,
            p1q: 0.0005,
            meas_flip: 0.002,
        };
        let mut rng = proptest::test_runner::TestRng::deterministic();
        let pair = arb_pair();
        for table in [
            DejmpsTable::new(&DistillNoise::default()),
            DejmpsTable::new(&noisy),
        ] {
            for _ in 0..512 {
                let (a, b) = (pair.generate(&mut rng), pair.generate(&mut rng));
                assert_eq!(
                    outcome_bits(table.round(&a, &b)),
                    outcome_bits(round_reference(&table, &a, &b)),
                    "{a:?} {b:?}"
                );
            }
        }
    }

    #[test]
    fn bell_vectors_are_orthonormal() {
        for (i, a) in BellState::ALL.iter().enumerate() {
            for (j, b) in BellState::ALL.iter().enumerate() {
                let va = a.state_vector();
                let vb = b.state_vector();
                let dot: C64 = (0..4).map(|k| va[k].conj() * vb[k]).sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!(dot.approx_eq(C64::real(expect), TOL), "{a:?}·{b:?}");
            }
        }
    }

    #[test]
    fn bell_diagonal_roundtrip_through_density_matrix() {
        let pair = BellDiagonal::new([0.7, 0.1, 0.15, 0.05]);
        let rho = pair.to_density_matrix();
        rho.validate(TOL).unwrap();
        let back = BellDiagonal::from_density_matrix(&rho);
        for k in 0..4 {
            assert!((pair.components()[k] - back.components()[k]).abs() < TOL);
        }
    }

    #[test]
    fn pauli_noise_permutes_components() {
        let mut pair = BellDiagonal::perfect();
        pair.apply_pauli_noise(PauliProbs {
            px: 1.0,
            py: 0.0,
            pz: 0.0,
        });
        assert!((pair.components()[BellState::PsiPlus.index()] - 1.0).abs() < TOL);

        let mut pair = BellDiagonal::perfect();
        pair.apply_pauli_noise(PauliProbs {
            px: 0.0,
            py: 0.0,
            pz: 1.0,
        });
        assert!((pair.components()[BellState::PhiMinus.index()] - 1.0).abs() < TOL);

        let mut pair = BellDiagonal::perfect();
        pair.apply_pauli_noise(PauliProbs {
            px: 0.0,
            py: 1.0,
            pz: 0.0,
        });
        assert!((pair.components()[BellState::PsiMinus.index()] - 1.0).abs() < TOL);
    }

    #[test]
    fn pauli_permutations_match_density_matrix() {
        use crate::matrix::Mat;
        // Applying each Pauli to one half of each Bell state must agree with
        // the closed-form permutation used by apply_pauli_noise.
        for b in BellState::ALL {
            let pair = {
                let mut p = [0.0; 4];
                p[b.index()] = 1.0;
                BellDiagonal::new(p)
            };
            for (gate, probs) in [
                (
                    Mat::pauli_x(),
                    PauliProbs {
                        px: 1.0,
                        py: 0.0,
                        pz: 0.0,
                    },
                ),
                (
                    Mat::pauli_y(),
                    PauliProbs {
                        px: 0.0,
                        py: 1.0,
                        pz: 0.0,
                    },
                ),
                (
                    Mat::pauli_z(),
                    PauliProbs {
                        px: 0.0,
                        py: 0.0,
                        pz: 1.0,
                    },
                ),
            ] {
                for q in 0..2 {
                    let mut rho = pair.to_density_matrix();
                    rho.apply_1q(q, &gate);
                    let via_dm = BellDiagonal::from_density_matrix(&rho);
                    let mut via_perm = pair;
                    via_perm.apply_pauli_noise(probs);
                    for k in 0..4 {
                        assert!(
                            (via_dm.components()[k] - via_perm.components()[k]).abs() < TOL,
                            "{b:?} gate on qubit {q}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn idle_decay_reduces_fidelity_monotonically() {
        let idle = IdleParams::new(0.5e-3, 0.5e-3).unwrap();
        let mut pair = BellDiagonal::perfect();
        let mut last = 1.0;
        for _ in 0..20 {
            let probs = idle.twirl_probs(5e-6);
            pair.idle(probs, probs);
            assert!(pair.fidelity() < last);
            last = pair.fidelity();
        }
        // Long-time limit approaches 1/4.
        for _ in 0..100_000 {
            let probs = idle.twirl_probs(50e-6);
            pair.idle(probs, probs);
        }
        assert!((pair.fidelity() - 0.25).abs() < 1e-6);
    }

    #[test]
    fn dejmps_on_perfect_pairs_is_perfect() {
        let out = dejmps_density(
            &BellDiagonal::perfect(),
            &BellDiagonal::perfect(),
            &DistillNoise::default(),
        )
        .unwrap();
        assert!(
            (out.pair.fidelity() - 1.0).abs() < 1e-9,
            "fidelity {}",
            out.pair.fidelity()
        );
        assert!((out.success_prob - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dejmps_improves_werner_pairs() {
        let input = BellDiagonal::werner(0.8);
        let out = dejmps_density(&input, &input, &DistillNoise::default()).unwrap();
        assert!(
            out.pair.fidelity() > 0.8,
            "distilled fidelity {} should exceed input 0.8",
            out.pair.fidelity()
        );
        assert!(out.success_prob > 0.5 && out.success_prob < 1.0);
    }

    #[test]
    fn dejmps_below_half_fidelity_does_not_improve_to_above() {
        // F = 0.25 (maximally mixed) cannot be distilled.
        let input = BellDiagonal::werner(0.25);
        let out = dejmps_density(&input, &input, &DistillNoise::default()).unwrap();
        assert!((out.pair.fidelity() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn noisy_dejmps_is_worse_than_noiseless() {
        let input = BellDiagonal::werner(0.9);
        let clean = dejmps_density(&input, &input, &DistillNoise::default()).unwrap();
        let noisy = dejmps_density(
            &input,
            &input,
            &DistillNoise {
                p2q: 0.01,
                p1q: 0.001,
                meas_flip: 0.01,
            },
        )
        .unwrap();
        assert!(noisy.pair.fidelity() < clean.pair.fidelity());
    }

    #[test]
    fn table_matches_exact_simulation() {
        let noise = DistillNoise {
            p2q: 0.005,
            p1q: 0.0005,
            meas_flip: 0.002,
        };
        let table = DejmpsTable::new(&noise);
        let cases = [
            (BellDiagonal::werner(0.85), BellDiagonal::werner(0.7)),
            (
                BellDiagonal::new([0.6, 0.2, 0.1, 0.1]),
                BellDiagonal::new([0.5, 0.1, 0.3, 0.1]),
            ),
            (BellDiagonal::perfect(), BellDiagonal::werner(0.6)),
        ];
        for (a, b) in cases {
            let exact = dejmps_density(&a, &b, &noise).unwrap();
            let fast = table.round(&a, &b).unwrap();
            assert!(
                (exact.success_prob - fast.success_prob).abs() < 1e-9,
                "success prob mismatch"
            );
            for k in 0..4 {
                assert!(
                    (exact.pair.components()[k] - fast.pair.components()[k]).abs() < 1e-9,
                    "component {k} mismatch"
                );
            }
        }
    }

    #[test]
    fn table_matches_exact_simulation_on_every_pure_input_pair() {
        // The table and `dejmps_density` share one round implementation;
        // on the 16 pure Bell inputs that build the table they must agree,
        // including on which combinations never herald (noiseless case).
        let noisy = DistillNoise {
            p2q: 0.005,
            p1q: 0.0005,
            meas_flip: 0.002,
        };
        let noiseless = DistillNoise {
            p2q: 0.0,
            p1q: 0.0,
            meas_flip: 0.0,
        };
        for noise in [noisy, noiseless] {
            let table = DejmpsTable::new(&noise);
            for i in 0..4 {
                for j in 0..4 {
                    let mut pi = [0.0; 4];
                    pi[i] = 1.0;
                    let mut pj = [0.0; 4];
                    pj[j] = 1.0;
                    let (a, b) = (BellDiagonal::new(pi), BellDiagonal::new(pj));
                    match (dejmps_density(&a, &b, &noise), table.round(&a, &b)) {
                        (None, None) => {}
                        (Some(exact), Some(fast)) => {
                            assert!((exact.success_prob - fast.success_prob).abs() < 1e-12);
                            for k in 0..4 {
                                let (e, f) =
                                    (exact.pair.components()[k], fast.pair.components()[k]);
                                assert!(
                                    (e - f).abs() < 1e-12,
                                    "({i},{j}) component {k}: {e} vs {f}"
                                );
                            }
                        }
                        (exact, fast) => panic!("({i},{j}) herald mismatch: {exact:?} vs {fast:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn repeated_distillation_converges_toward_one() {
        let table = DejmpsTable::new(&DistillNoise::default());
        let mut pair = BellDiagonal::werner(0.75);
        for _ in 0..8 {
            let out = table.round(&pair, &pair).unwrap();
            pair = out.pair;
        }
        assert!(pair.fidelity() > 0.999, "converged to {}", pair.fidelity());
    }
}
