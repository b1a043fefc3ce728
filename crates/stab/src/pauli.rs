//! Pauli operators and bit-packed Pauli strings.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

/// A single-qubit Pauli operator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Pauli {
    /// Identity.
    #[default]
    I,
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
}

impl Pauli {
    /// (x, z) bit representation: X=(1,0), Z=(0,1), Y=(1,1).
    pub fn xz(self) -> (bool, bool) {
        match self {
            Pauli::I => (false, false),
            Pauli::X => (true, false),
            Pauli::Y => (true, true),
            Pauli::Z => (false, true),
        }
    }

    /// Inverse of [`Pauli::xz`].
    pub fn from_xz(x: bool, z: bool) -> Self {
        match (x, z) {
            (false, false) => Pauli::I,
            (true, false) => Pauli::X,
            (true, true) => Pauli::Y,
            (false, true) => Pauli::Z,
        }
    }

    /// True when the two single-qubit Paulis commute.
    pub fn commutes_with(self, other: Pauli) -> bool {
        let (x1, z1) = self.xz();
        let (x2, z2) = other.xz();
        // Symplectic product even <=> commute.
        !((x1 & z2) ^ (z1 & x2))
    }
}

impl fmt::Display for Pauli {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Pauli::I => 'I',
            Pauli::X => 'X',
            Pauli::Y => 'Y',
            Pauli::Z => 'Z',
        };
        write!(f, "{c}")
    }
}

/// Error returned when parsing a Pauli string fails.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParsePauliError {
    offending: char,
}

impl fmt::Display for ParsePauliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid pauli character '{}', expected one of I, X, Y, Z, +, -",
            self.offending
        )
    }
}

impl std::error::Error for ParsePauliError {}

/// A bit-packed n-qubit Pauli string with a ±1 sign.
///
/// Qubit `q` lives in bit `q % 64` of word `q / 64`. The imaginary phases
/// arising from products are tracked to the extent needed for sign-correct
/// stabilizer arithmetic (the product of two Hermitian Pauli strings that
/// commute is Hermitian; anticommuting products pick up `±i`, which this type
/// reports separately).
///
/// # Examples
///
/// ```
/// use hetarch_stab::pauli::PauliString;
///
/// let xx: PauliString = "XX".parse().unwrap();
/// let zz: PauliString = "ZZ".parse().unwrap();
/// assert!(xx.commutes_with(&zz));
/// assert_eq!(xx.weight(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PauliString {
    n: usize,
    x: Vec<u64>,
    z: Vec<u64>,
    /// True for an overall −1 sign.
    neg: bool,
}

impl PauliString {
    /// The identity on `n` qubits.
    pub fn identity(n: usize) -> Self {
        let words = n.div_ceil(64);
        PauliString {
            n,
            x: vec![0; words],
            z: vec![0; words],
            neg: false,
        }
    }

    /// Builds a string from per-qubit Paulis.
    pub fn from_paulis(paulis: &[Pauli]) -> Self {
        let mut s = PauliString::identity(paulis.len());
        for (q, p) in paulis.iter().enumerate() {
            s.set(q, *p);
        }
        s
    }

    /// Builds an n-qubit string with the given Pauli on a sparse support.
    pub fn from_sparse(n: usize, support: &[(usize, Pauli)]) -> Self {
        let mut s = PauliString::identity(n);
        for &(q, p) in support {
            assert!(q < n, "qubit {q} out of range for {n} qubits");
            s.set(q, p);
        }
        s
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The Pauli at qubit `q`.
    pub fn get(&self, q: usize) -> Pauli {
        assert!(q < self.n, "qubit {q} out of range");
        let (w, b) = (q / 64, q % 64);
        Pauli::from_xz((self.x[w] >> b) & 1 == 1, (self.z[w] >> b) & 1 == 1)
    }

    /// Sets the Pauli at qubit `q`.
    pub fn set(&mut self, q: usize, p: Pauli) {
        assert!(q < self.n, "qubit {q} out of range");
        let (w, b) = (q / 64, q % 64);
        let (x, z) = p.xz();
        self.x[w] = (self.x[w] & !(1 << b)) | ((x as u64) << b);
        self.z[w] = (self.z[w] & !(1 << b)) | ((z as u64) << b);
    }

    /// True when the sign is −1.
    pub fn is_negative(&self) -> bool {
        self.neg
    }

    /// Flips the overall sign.
    pub fn negate(&mut self) {
        self.neg = !self.neg;
    }

    /// Number of non-identity sites.
    pub fn weight(&self) -> usize {
        self.x
            .iter()
            .zip(&self.z)
            .map(|(&x, &z)| (x | z).count_ones() as usize)
            .sum()
    }

    /// True when the string is the (possibly signed) identity.
    pub fn is_identity(&self) -> bool {
        self.weight() == 0
    }

    /// True when `self` and `other` commute.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn commutes_with(&self, other: &PauliString) -> bool {
        assert_eq!(self.n, other.n, "pauli string length mismatch");
        let mut parity = 0u32;
        for w in 0..self.x.len() {
            parity ^= (self.x[w] & other.z[w]).count_ones() & 1;
            parity ^= (self.z[w] & other.x[w]).count_ones() & 1;
        }
        parity == 0
    }

    /// Multiplies `self` by `other` in place (`self ← self · other`),
    /// tracking the resulting sign.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ, or if the product is non-Hermitian (the two
    /// strings anticommute), since stabilizer arithmetic never needs that
    /// case — use [`PauliString::commutes_with`] first.
    pub fn mul_assign(&mut self, other: &PauliString) {
        assert!(
            self.commutes_with(other),
            "product of anticommuting pauli strings is non-hermitian"
        );
        // Count i-phases from per-site products: each site contributes
        // i^{f(p1,p2)}; total must be 0 or 2 mod 4 (commuting case).
        let mut iphase = 0u32;
        for q in 0..self.n {
            let a = self.get(q);
            let b = other.get(q);
            iphase = (iphase + site_iphase(a, b)) % 4;
        }
        debug_assert!(
            iphase.is_multiple_of(2),
            "commuting product must have real phase"
        );
        if iphase == 2 {
            self.neg = !self.neg;
        }
        if other.neg {
            self.neg = !self.neg;
        }
        for w in 0..self.x.len() {
            self.x[w] ^= other.x[w];
            self.z[w] ^= other.z[w];
        }
    }

    /// Returns the product `self · other`.
    pub fn mul(&self, other: &PauliString) -> PauliString {
        let mut out = self.clone();
        out.mul_assign(other);
        out
    }

    /// Phase-free product (bitwise XOR of supports). Unlike
    /// [`PauliString::mul`] this never panics; use it for error/correction
    /// arithmetic where the global phase is irrelevant.
    pub fn xor(&self, other: &PauliString) -> PauliString {
        let mut out = self.clone();
        out.xor_assign(other);
        out
    }

    /// In-place [`PauliString::xor`] (`self ← self ⊕ other`, sign cleared):
    /// the allocation-free form for per-shot correction arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn xor_assign(&mut self, other: &PauliString) {
        assert_eq!(self.n, other.n, "pauli string length mismatch");
        self.neg = false;
        for w in 0..self.x.len() {
            self.x[w] ^= other.x[w];
            self.z[w] ^= other.z[w];
        }
    }

    /// Iterates over the non-identity support as `(qubit, Pauli)` pairs.
    pub fn iter_support(&self) -> impl Iterator<Item = (usize, Pauli)> + '_ {
        (0..self.n)
            .map(|q| (q, self.get(q)))
            .filter(|(_, p)| *p != Pauli::I)
    }

    /// X mask restricted to word `w` (for the frame simulator).
    pub fn x_word(&self, w: usize) -> u64 {
        self.x[w]
    }

    /// Z mask restricted to word `w`.
    pub fn z_word(&self, w: usize) -> u64 {
        self.z[w]
    }
}

/// i-exponent of the single-site product `a·b = i^k (a XOR b)`.
fn site_iphase(a: Pauli, b: Pauli) -> u32 {
    use Pauli::*;
    match (a, b) {
        (I, _) | (_, I) => 0,
        (X, X) | (Y, Y) | (Z, Z) => 0,
        (X, Y) | (Y, Z) | (Z, X) => 1, // XY = iZ, YZ = iX, ZX = iY
        (Y, X) | (Z, Y) | (X, Z) => 3,
    }
}

impl FromStr for PauliString {
    type Err = ParsePauliError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut neg = false;
        let mut paulis = Vec::with_capacity(s.len());
        for (i, c) in s.chars().enumerate() {
            match c {
                '+' if i == 0 => {}
                '-' if i == 0 => neg = true,
                'I' | 'i' | '_' => paulis.push(Pauli::I),
                'X' | 'x' => paulis.push(Pauli::X),
                'Y' | 'y' => paulis.push(Pauli::Y),
                'Z' | 'z' => paulis.push(Pauli::Z),
                other => return Err(ParsePauliError { offending: other }),
            }
        }
        let mut out = PauliString::from_paulis(&paulis);
        if neg {
            out.negate();
        }
        Ok(out)
    }
}

impl fmt::Display for PauliString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", if self.neg { "-" } else { "+" })?;
        for q in 0..self.n {
            write!(f, "{}", self.get(q))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_pauli_commutation() {
        assert!(Pauli::X.commutes_with(Pauli::X));
        assert!(Pauli::X.commutes_with(Pauli::I));
        assert!(!Pauli::X.commutes_with(Pauli::Z));
        assert!(!Pauli::Y.commutes_with(Pauli::Z));
        assert!(!Pauli::X.commutes_with(Pauli::Y));
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["+XYZI", "-ZZXX", "+IIII"] {
            let p: PauliString = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("XQZ".parse::<PauliString>().is_err());
    }

    #[test]
    fn weight_counts_non_identity() {
        let p: PauliString = "XIZIY".parse().unwrap();
        assert_eq!(p.weight(), 3);
        assert_eq!(p.num_qubits(), 5);
        assert!(!p.is_identity());
        assert!(PauliString::identity(5).is_identity());
    }

    #[test]
    fn string_commutation_matches_symplectic_rule() {
        let xx: PauliString = "XX".parse().unwrap();
        let zz: PauliString = "ZZ".parse().unwrap();
        let zi: PauliString = "ZI".parse().unwrap();
        assert!(xx.commutes_with(&zz));
        assert!(!xx.commutes_with(&zi));
        let yy: PauliString = "YY".parse().unwrap();
        assert!(xx.commutes_with(&yy));
    }

    #[test]
    fn product_of_stabilizers() {
        // XX * ZZ = -YY (XZ = -iY per site: (-i)^2 = -1).
        let xx: PauliString = "XX".parse().unwrap();
        let zz: PauliString = "ZZ".parse().unwrap();
        let prod = xx.mul(&zz);
        let expect: PauliString = "-YY".parse().unwrap();
        assert_eq!(prod, expect);
    }

    #[test]
    fn product_with_identity_is_unchanged() {
        let p: PauliString = "XZY".parse().unwrap();
        let id = PauliString::identity(3);
        assert_eq!(p.mul(&id), p);
    }

    #[test]
    fn self_product_is_identity() {
        let p: PauliString = "-XZYX".parse().unwrap();
        let sq = p.mul(&p);
        assert!(sq.is_identity());
        assert!(!sq.is_negative(), "P·P = +I for Hermitian P, got {sq}");
    }

    #[test]
    #[should_panic(expected = "anticommuting")]
    fn anticommuting_product_panics() {
        let x: PauliString = "X".parse().unwrap();
        let z: PauliString = "Z".parse().unwrap();
        let _ = x.mul(&z);
    }

    #[test]
    fn sparse_construction() {
        let p = PauliString::from_sparse(70, &[(0, Pauli::X), (65, Pauli::Z)]);
        assert_eq!(p.get(0), Pauli::X);
        assert_eq!(p.get(65), Pauli::Z);
        assert_eq!(p.weight(), 2);
        let support: Vec<_> = p.iter_support().collect();
        assert_eq!(support, vec![(0, Pauli::X), (65, Pauli::Z)]);
    }

    #[test]
    fn cross_word_commutation() {
        let a = PauliString::from_sparse(130, &[(100, Pauli::X)]);
        let b = PauliString::from_sparse(130, &[(100, Pauli::Z)]);
        let c = PauliString::from_sparse(130, &[(99, Pauli::Z)]);
        assert!(!a.commutes_with(&b));
        assert!(a.commutes_with(&c));
    }
}
