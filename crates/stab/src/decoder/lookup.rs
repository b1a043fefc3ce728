//! Exact minimum-weight lookup-table decoding for small codes.
//!
//! The UEC module (paper §4.2.2) evaluates codes of ≤ 30 qubits; for those,
//! a table mapping each syndrome to its minimum-weight Pauli correction is
//! both exact and fast. Tables are built breadth-first in error weight, so
//! the first correction recorded for a syndrome is guaranteed minimal.

use std::collections::HashMap;

use crate::codes::StabilizerCode;
use crate::pauli::{Pauli, PauliString};

/// A minimum-weight lookup decoder for one [`StabilizerCode`].
///
/// # Examples
///
/// ```
/// use hetarch_stab::codes::steane;
/// use hetarch_stab::decoder::lookup::LookupDecoder;
/// use hetarch_stab::pauli::{Pauli, PauliString};
///
/// let code = steane();
/// let decoder = LookupDecoder::new(&code, 2);
/// let err = PauliString::from_sparse(7, &[(3, Pauli::X)]);
/// let syndrome = code.syndrome_of(&err);
/// let correction = decoder.decode(&syndrome);
/// // Correction restores the codespace without a logical flip.
/// let residual = err.xor(&correction);
/// assert!(code.in_normalizer(&residual));
/// assert!(!code.is_logical_error(&residual));
/// ```
#[derive(Clone, Debug)]
pub struct LookupDecoder {
    num_qubits: usize,
    num_stabilizers: usize,
    table: HashMap<u64, PauliString>,
    max_weight: usize,
}

impl LookupDecoder {
    /// Builds a table over all errors of weight ≤ `max_weight`.
    ///
    /// `max_weight = ⌊(d−1)/2⌋` suffices for correcting below distance;
    /// larger values fill more of the syndrome space (better behaviour above
    /// threshold) at exponential build cost.
    ///
    /// # Panics
    ///
    /// Panics if the code has more than 63 stabilizer generators.
    pub fn new(code: &StabilizerCode, max_weight: usize) -> Self {
        let n = code.num_qubits();
        let r = code.stabilizers().len();
        assert!(r < 64, "syndrome must fit in 64 bits");
        // The syndrome is linear, so extending a string onto an untouched
        // qubit XORs in that single-qubit Pauli's syndrome.
        let single: Vec<[u64; 3]> = (0..n)
            .map(|q| PAULIS.map(|p| code.syndrome_bits(&PauliString::from_sparse(n, &[(q, p)]))))
            .collect();
        let mut table: HashMap<u64, PauliString> = HashMap::new();
        table.insert(0, PauliString::identity(n));
        // Every string of the current weight, with its syndrome and the
        // first qubit past its support: extending only beyond the last
        // touched qubit enumerates each support set exactly once.
        let mut frontier: Vec<(PauliString, u64, usize)> = vec![(PauliString::identity(n), 0, 0)];
        for w in 1..=max_weight {
            let last = w == max_weight;
            let mut next = Vec::new();
            for (base, base_syn, start) in &frontier {
                for (q, q_syn) in single.iter().enumerate().skip(*start) {
                    for (p, &p_syn) in PAULIS.into_iter().zip(q_syn) {
                        let syn = base_syn ^ p_syn;
                        let extend = || {
                            let mut e = base.clone();
                            e.set(q, p);
                            e
                        };
                        if last {
                            // No later weight extends this one: build a
                            // string only when it is the first for its
                            // syndrome.
                            table.entry(syn).or_insert_with(extend);
                        } else {
                            let e = extend();
                            table.entry(syn).or_insert_with(|| e.clone());
                            next.push((e, syn, q + 1));
                        }
                    }
                }
            }
            frontier = next;
        }
        LookupDecoder {
            num_qubits: n,
            num_stabilizers: r,
            table,
            max_weight,
        }
    }

    /// Number of syndromes with a recorded correction.
    pub fn coverage(&self) -> usize {
        self.table.len()
    }

    /// The weight cap used when building the table.
    pub fn max_weight(&self) -> usize {
        self.max_weight
    }

    /// Decodes a syndrome to a minimum-weight correction. Unknown syndromes
    /// (weight above the table cap) return the identity, i.e. "detected but
    /// uncorrected".
    ///
    /// # Panics
    ///
    /// Panics if the syndrome length is wrong.
    pub fn decode(&self, syndrome: &[bool]) -> PauliString {
        assert_eq!(
            syndrome.len(),
            self.num_stabilizers,
            "syndrome length mismatch"
        );
        let bits = syndrome
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, &b)| acc | ((b as u64) << i));
        self.decode_bits(bits)
    }

    /// Decodes a syndrome given as packed bits.
    ///
    /// This is the hot entry point: the UEC shard loop extracts packed
    /// syndrome words straight from its [`crate::bits::BitTable`] and
    /// never materialises a `&[bool]` per shot, mirroring the sparse
    /// extraction discipline of the union-find batch path (DESIGN.md §5k).
    #[inline]
    pub fn decode_bits(&self, bits: u64) -> PauliString {
        self.correction(bits)
            .cloned()
            .unwrap_or_else(|| PauliString::identity(self.num_qubits))
    }

    /// The recorded correction of a packed syndrome, borrowed; `None` for
    /// a syndrome above the table's weight cap (where [`Self::decode_bits`]
    /// returns the identity).
    #[inline]
    pub fn correction(&self, bits: u64) -> Option<&PauliString> {
        self.table.get(&bits)
    }

    /// Every recorded `(syndrome, correction)` pair, in unspecified order:
    /// for consumers that recompile the table into their own layout.
    pub fn entries(&self) -> impl Iterator<Item = (u64, &PauliString)> + '_ {
        self.table.iter().map(|(&bits, c)| (bits, c))
    }
}

const PAULIS: [Pauli; 3] = [Pauli::X, Pauli::Y, Pauli::Z];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::{color_17, reed_muller_15, rotated_surface_code, steane};

    /// The plain breadth-first build: every string of each weight is
    /// materialized, its syndrome computed from scratch, and the first
    /// string per syndrome kept.
    fn reference_table(code: &StabilizerCode, max_weight: usize) -> HashMap<u64, PauliString> {
        let n = code.num_qubits();
        let mut table = HashMap::new();
        table.insert(0, PauliString::identity(n));
        let mut frontier = vec![PauliString::identity(n)];
        for _ in 1..=max_weight {
            let mut next = Vec::new();
            for base in &frontier {
                let start = base.iter_support().last().map(|(q, _)| q + 1).unwrap_or(0);
                for q in start..n {
                    for p in [Pauli::X, Pauli::Y, Pauli::Z] {
                        let mut e = base.clone();
                        e.set(q, p);
                        let syn = code.syndrome_bits(&e);
                        table.entry(syn).or_insert_with(|| e.clone());
                        next.push(e);
                    }
                }
            }
            frontier = next;
        }
        table
    }

    #[test]
    fn table_matches_reference_breadth_first_build() {
        for code in [steane(), color_17(), rotated_surface_code(5)] {
            for cap in 1..=3 {
                let dec = LookupDecoder::new(&code, cap);
                assert!(
                    dec.table == reference_table(&code, cap),
                    "{} at weight cap {cap}",
                    code.name()
                );
            }
        }
    }

    #[test]
    fn all_single_errors_corrected_exactly() {
        for code in [steane(), color_17(), reed_muller_15()] {
            let dec = LookupDecoder::new(&code, 1);
            for q in 0..code.num_qubits() {
                for p in [Pauli::X, Pauli::Y, Pauli::Z] {
                    let e = PauliString::from_sparse(code.num_qubits(), &[(q, p)]);
                    let c = dec.decode(&code.syndrome_of(&e));
                    let residual = e.xor(&c);
                    assert!(code.in_normalizer(&residual), "{}: {e}", code.name());
                    assert!(
                        !code.is_logical_error(&residual),
                        "{}: single error {e} miscorrected",
                        code.name()
                    );
                }
            }
        }
    }

    #[test]
    fn color17_corrects_all_weight_two_errors() {
        let code = color_17();
        let dec = LookupDecoder::new(&code, 2);
        // Distance 5 => every weight-2 error must decode without logical
        // flip. Sample the full set.
        for q1 in 0..17 {
            for q2 in (q1 + 1)..17 {
                for p1 in [Pauli::X, Pauli::Z] {
                    for p2 in [Pauli::X, Pauli::Z] {
                        let e = PauliString::from_sparse(17, &[(q1, p1), (q2, p2)]);
                        let c = dec.decode(&code.syndrome_of(&e));
                        let residual = e.xor(&c);
                        assert!(code.in_normalizer(&residual));
                        assert!(
                            !code.is_logical_error(&residual),
                            "weight-2 error {e} miscorrected"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn steane_weight_two_errors_are_detected() {
        // Distance 3: weight-2 errors may be miscorrected but never produce
        // an *undetected* logical error (their syndrome is nonzero).
        let code = steane();
        for q1 in 0..7 {
            for q2 in (q1 + 1)..7 {
                let e = PauliString::from_sparse(7, &[(q1, Pauli::X), (q2, Pauli::X)]);
                assert!(!code.in_normalizer(&e));
            }
        }
    }

    #[test]
    fn unknown_syndrome_returns_identity() {
        let code = steane();
        let dec = LookupDecoder::new(&code, 0); // only the trivial entry
        let e = PauliString::from_sparse(7, &[(0, Pauli::X)]);
        let c = dec.decode(&code.syndrome_of(&e));
        assert!(c.is_identity());
    }

    #[test]
    fn coverage_grows_with_weight() {
        let code = steane();
        let c1 = LookupDecoder::new(&code, 1).coverage();
        let c2 = LookupDecoder::new(&code, 2).coverage();
        assert!(c2 > c1);
        assert_eq!(LookupDecoder::new(&code, 0).coverage(), 1);
        // Steane: weight ≤ 1 gives 1 + 21 = 22 syndromes, all distinct.
        assert_eq!(c1, 22);
    }
}
