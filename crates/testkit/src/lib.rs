//! # hetarch-testkit
//!
//! The verification subsystem of the HetArch workspace (reproduction of
//! *HetArch: Heterogeneous Microarchitectures for Superconducting Quantum
//! Systems*, MICRO 2023).
//!
//! HetArch's hierarchical-simulation claim — density matrices at the cell
//! level, composed error channels at the module level, stabilizer sampling
//! for QEC — is only as trustworthy as the cross-layer consistency checks
//! backing it. This crate turns those checks into a library with four
//! parts:
//!
//! * [`conformance`] — CPTP / trace-preservation / Hermiticity validators
//!   for Kraus channels and density-matrix invariant checks (unit trace,
//!   PSD via Gershgorin + Cholesky). Depending on this crate also enables
//!   `hetarch-qsim`'s `validate` feature, auditing every channel
//!   application in debug builds.
//! * [`stats`] — statistical assertions under the **sigma contract**:
//!   tolerances derived from shot counts (Wilson interval + Hoeffding
//!   bound), chi-squared goodness of fit, and two-proportion comparisons,
//!   with failure messages reporting effect size and required shots.
//! * [`oracle`] + [`arbitrary`] — the [`DiffOracle`](oracle::DiffOracle)
//!   differential harness running random noisy Clifford circuits through
//!   the density-matrix simulator, the sharded Pauli-frame sampler, and
//!   the phenomenological `compose_errors` path, with strategies for
//!   random circuits and a greedy shrinker for failing cases.
//! * [`golden`] — byte-stable golden-snapshot files with a
//!   `GOLDEN_UPDATE=1` regeneration workflow.
//! * [`decoder`] — a decoder differential harness checking the
//!   approximate matching decoders against the exhaustive lookup decoder,
//!   and the per-shot union-find oracle every production decode path must
//!   match bit for bit.
//!
//! # Example
//!
//! ```
//! use hetarch_testkit::prelude::*;
//!
//! // Derived tolerance: 5σ compatibility of 1 030 hits in 10 000 shots
//! // with an expected rate of 10%.
//! BinomialTest::new(1_030, 10_000).assert_compatible(0.10, 5.0, "hit rate");
//!
//! // Differential oracle on a small noisy circuit.
//! let circuit = NoisyCircuit {
//!     num_qubits: 2,
//!     ops: vec![NoisyOp::X(0), NoisyOp::Depol(0, 0.05), NoisyOp::Cx(0, 1)],
//! };
//! DiffOracle::new(8_192, 7).check(&circuit).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbitrary;
pub mod conformance;
pub mod decoder;
pub mod golden;
pub mod oracle;
pub mod stats;

pub use stats::BinomialTest;

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use crate::arbitrary::{
        noisy_circuit, noisy_op, Arbitrary, NoiseConfig, NoisyCircuit, NoisyOp,
    };
    pub use crate::conformance::{assert_cptp1, assert_cptp2, assert_valid_density};
    pub use crate::decoder::{decode_all, CodeCapacity, DecodeOutcome};
    pub use crate::golden::{assert_golden, Snapshot};
    pub use crate::oracle::{DiffOracle, OracleComparison, OracleFailure};
    pub use crate::stats::{
        assert_rate_below, assert_rates_compatible, chi2_goodness_of_fit, two_proportion_z,
        BinomialTest, Chi2Result, CrossValidation,
    };
}
