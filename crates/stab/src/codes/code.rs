//! Generic stabilizer code definitions.
//!
//! A [`StabilizerCode`] carries explicit generator and logical-operator
//! Pauli strings. The UEC module (paper §4.2.2) consumes codes through this
//! interface, which is what makes the architecture *code-agnostic*.

use serde::{Deserialize, Serialize};

use crate::pauli::{Pauli, PauliString};

/// Error produced when a code definition is inconsistent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodeError {
    /// Two stabilizer generators anticommute.
    AnticommutingStabilizers(usize, usize),
    /// A logical operator anticommutes with a stabilizer.
    LogicalVsStabilizer(usize, usize),
    /// Logical X_i and Z_j have the wrong commutation relation.
    LogicalPairing(usize, usize),
    /// Operator length does not match the qubit count.
    LengthMismatch,
}

impl std::fmt::Display for CodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodeError::AnticommutingStabilizers(i, j) => {
                write!(f, "stabilizer generators {i} and {j} anticommute")
            }
            CodeError::LogicalVsStabilizer(l, s) => {
                write!(f, "logical operator {l} anticommutes with stabilizer {s}")
            }
            CodeError::LogicalPairing(i, j) => {
                write!(f, "logical X_{i} and Z_{j} have wrong commutation relation")
            }
            CodeError::LengthMismatch => write!(f, "operator length does not match qubit count"),
        }
    }
}

impl std::error::Error for CodeError {}

/// An `[[n, k, d]]` stabilizer code given by explicit generators.
///
/// # Examples
///
/// ```
/// use hetarch_stab::codes::steane;
///
/// let code = steane();
/// assert_eq!(code.num_qubits(), 7);
/// assert_eq!(code.num_logical(), 1);
/// assert_eq!(code.distance(), 3);
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StabilizerCode {
    name: String,
    n: usize,
    distance: usize,
    stabilizers: Vec<PauliString>,
    logical_x: Vec<PauliString>,
    logical_z: Vec<PauliString>,
}

impl StabilizerCode {
    /// Creates and validates a code.
    ///
    /// # Errors
    ///
    /// Returns a [`CodeError`] if generators do not commute, logicals do not
    /// commute with the group, or logical pairs are not conjugate.
    pub fn new(
        name: impl Into<String>,
        n: usize,
        distance: usize,
        stabilizers: Vec<PauliString>,
        logical_x: Vec<PauliString>,
        logical_z: Vec<PauliString>,
    ) -> Result<Self, CodeError> {
        for p in stabilizers
            .iter()
            .chain(logical_x.iter())
            .chain(logical_z.iter())
        {
            if p.num_qubits() != n {
                return Err(CodeError::LengthMismatch);
            }
        }
        for i in 0..stabilizers.len() {
            for j in (i + 1)..stabilizers.len() {
                if !stabilizers[i].commutes_with(&stabilizers[j]) {
                    return Err(CodeError::AnticommutingStabilizers(i, j));
                }
            }
        }
        for (l, log) in logical_x.iter().chain(logical_z.iter()).enumerate() {
            for (s, stab) in stabilizers.iter().enumerate() {
                if !log.commutes_with(stab) {
                    return Err(CodeError::LogicalVsStabilizer(l, s));
                }
            }
        }
        for (i, lx) in logical_x.iter().enumerate() {
            for (j, lz) in logical_z.iter().enumerate() {
                let commute = lx.commutes_with(lz);
                if (i == j) == commute {
                    return Err(CodeError::LogicalPairing(i, j));
                }
            }
        }
        Ok(StabilizerCode {
            name: name.into(),
            n,
            distance,
            stabilizers,
            logical_x,
            logical_z,
        })
    }

    /// Human-readable code name (e.g. `"Steane"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of physical qubits `n`.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Number of logical qubits `k = n − rank`.
    pub fn num_logical(&self) -> usize {
        self.logical_x.len()
    }

    /// Code distance `d` (as declared; verified by tests for shipped codes).
    pub fn distance(&self) -> usize {
        self.distance
    }

    /// Stabilizer generators.
    pub fn stabilizers(&self) -> &[PauliString] {
        &self.stabilizers
    }

    /// Logical X operators.
    pub fn logical_x(&self) -> &[PauliString] {
        &self.logical_x
    }

    /// Logical Z operators.
    pub fn logical_z(&self) -> &[PauliString] {
        &self.logical_z
    }

    /// The syndrome of a Pauli error: bit `i` is set when the error
    /// anticommutes with stabilizer `i`.
    pub fn syndrome_of(&self, error: &PauliString) -> Vec<bool> {
        self.stabilizers
            .iter()
            .map(|s| !s.commutes_with(error))
            .collect()
    }

    /// The syndrome of a Pauli error packed into a word: bit `i` is set
    /// when the error anticommutes with stabilizer `i`. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if the code has more than 64 stabilizer generators.
    pub fn syndrome_bits(&self, error: &PauliString) -> u64 {
        assert!(self.stabilizers.len() <= 64, "syndrome must fit in 64 bits");
        self.stabilizers
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, s)| {
                acc | ((!s.commutes_with(error) as u64) << i)
            })
    }

    /// True when `error` has trivial syndrome (commutes with every
    /// stabilizer generator).
    pub fn in_normalizer(&self, error: &PauliString) -> bool {
        self.stabilizers.iter().all(|s| s.commutes_with(error))
    }

    /// For a residual error with trivial syndrome, reports which logical
    /// qubits are X-flipped / Z-flipped: `(x_flips, z_flips)` where bit `i`
    /// of `x_flips` means logical qubit `i` suffered a logical X (it
    /// anticommutes with `logical_z[i]`).
    pub fn logical_action(&self, residual: &PauliString) -> (u64, u64) {
        debug_assert!(self.in_normalizer(residual));
        let mut x_flips = 0u64;
        let mut z_flips = 0u64;
        for i in 0..self.num_logical() {
            if !residual.commutes_with(&self.logical_z[i]) {
                x_flips |= 1 << i;
            }
            if !residual.commutes_with(&self.logical_x[i]) {
                z_flips |= 1 << i;
            }
        }
        (x_flips, z_flips)
    }

    /// True when `residual` (trivial syndrome) acts non-trivially on any
    /// logical qubit.
    pub fn is_logical_error(&self, residual: &PauliString) -> bool {
        let (x, z) = self.logical_action(residual);
        x != 0 || z != 0
    }

    /// True when every stabilizer generator is X-only or Z-only (a CSS code).
    pub fn is_css(&self) -> bool {
        self.stabilizers.iter().all(|s| {
            let mut has_x = false;
            let mut has_z = false;
            for (_, p) in s.iter_support() {
                match p {
                    Pauli::X => has_x = true,
                    Pauli::Z => has_z = true,
                    Pauli::Y => {
                        has_x = true;
                        has_z = true;
                    }
                    Pauli::I => {}
                }
            }
            !(has_x && has_z)
        })
    }

    /// Computes the exact code distance by exhausting products of logical
    /// representatives with all stabilizer-group elements. Exponential in the
    /// number of generators; intended for validating shipped codes (≤ ~20
    /// generators).
    pub fn brute_force_distance(&self) -> usize {
        let r = self.stabilizers.len();
        assert!(r <= 24, "brute-force distance limited to 24 generators");
        let mut best = usize::MAX;
        for log in self.logical_x.iter().chain(self.logical_z.iter()) {
            for mask in 0u64..(1u64 << r) {
                let mut op = log.clone();
                for (i, s) in self.stabilizers.iter().enumerate() {
                    if (mask >> i) & 1 == 1 {
                        op.mul_assign(s);
                    }
                }
                best = best.min(op.weight());
            }
        }
        best
    }
}

/// Builds a Pauli string of a single type over the given support.
pub fn typed_string(n: usize, pauli: Pauli, support: &[usize]) -> PauliString {
    let pairs: Vec<(usize, Pauli)> = support.iter().map(|&q| (q, pauli)).collect();
    PauliString::from_sparse(n, &pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bit_flip_code() -> StabilizerCode {
        // [[3,1,1]] bit-flip repetition code (distance 1 against Z).
        StabilizerCode::new(
            "rep3",
            3,
            1,
            vec!["ZZI".parse().unwrap(), "IZZ".parse().unwrap()],
            vec!["XXX".parse().unwrap()],
            vec!["ZII".parse().unwrap()],
        )
        .unwrap()
    }

    #[test]
    fn syndrome_identifies_error_location() {
        let code = bit_flip_code();
        let e0: PauliString = "XII".parse().unwrap();
        let e1: PauliString = "IXI".parse().unwrap();
        let e2: PauliString = "IIX".parse().unwrap();
        assert_eq!(code.syndrome_of(&e0), vec![true, false]);
        assert_eq!(code.syndrome_of(&e1), vec![true, true]);
        assert_eq!(code.syndrome_of(&e2), vec![false, true]);
        assert_eq!(code.syndrome_bits(&e0), 0b01);
        assert_eq!(code.syndrome_bits(&e1), 0b11);
        assert_eq!(code.syndrome_bits(&e2), 0b10);
    }

    #[test]
    fn logical_action_detects_flips() {
        let code = bit_flip_code();
        let lx: PauliString = "XXX".parse().unwrap();
        assert!(code.in_normalizer(&lx));
        let (x, z) = code.logical_action(&lx);
        assert_eq!(x, 1);
        assert_eq!(z, 0);
        let stab: PauliString = "ZZI".parse().unwrap();
        assert!(!code.is_logical_error(&stab));
    }

    #[test]
    fn invalid_codes_rejected() {
        // Anticommuting "stabilizers".
        let bad = StabilizerCode::new(
            "bad",
            2,
            1,
            vec!["XI".parse().unwrap(), "ZI".parse().unwrap()],
            vec![],
            vec![],
        );
        assert_eq!(bad.unwrap_err(), CodeError::AnticommutingStabilizers(0, 1));

        // Logical that anticommutes with a stabilizer.
        let bad = StabilizerCode::new(
            "bad",
            2,
            1,
            vec!["ZZ".parse().unwrap()],
            vec!["XI".parse().unwrap()],
            vec!["ZI".parse().unwrap()],
        );
        assert!(matches!(
            bad.unwrap_err(),
            CodeError::LogicalVsStabilizer(..)
        ));
    }

    #[test]
    fn css_detection() {
        let code = bit_flip_code();
        assert!(code.is_css());
        let non_css =
            StabilizerCode::new("xz", 2, 1, vec!["XZ".parse().unwrap()], vec![], vec![]).unwrap();
        assert!(!non_css.is_css());
    }

    #[test]
    fn brute_force_distance_of_rep_code() {
        // Distance against X errors: logical Z = ZII has weight-1
        // representative, so full distance is 1.
        let code = bit_flip_code();
        assert_eq!(code.brute_force_distance(), 1);
    }
}
