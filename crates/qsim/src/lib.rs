//! # hetarch-qsim
//!
//! Dense density-matrix quantum simulation substrate for the HetArch
//! workspace (reproduction of *HetArch: Heterogeneous Microarchitectures for
//! Superconducting Quantum Systems*, MICRO 2023).
//!
//! HetArch's hierarchical methodology (paper §2) simulates **standard cells**
//! exactly with density matrices and abstracts the result into quantum
//! channels consumed by module-level models. This crate provides that exact
//! layer:
//!
//! * [`complex`] / [`matrix`] — scalar and small-matrix arithmetic,
//! * [`state`] — the [`DensityMatrix`](state::DensityMatrix) type,
//! * [`gates`] — circuit-style gate application helpers,
//! * [`channels`] — Kraus channels for superconducting noise (T1/T2 idling,
//!   depolarizing gate error, Pauli twirling),
//! * [`kernel`] — precompiled superoperator kernels, the allocation-free
//!   fast path behind every channel application,
//! * [`measure`] — projective measurement and post-selection,
//! * [`fidelity`] — fidelity metrics used in cell characterization,
//! * [`bell`] — Bell-diagonal pair states and the DEJMPS distillation round.
//!
//! # Example
//!
//! ```
//! use hetarch_qsim::prelude::*;
//!
//! // Prepare a Bell pair, let it idle in a noisy memory, and check fidelity.
//! let mut rho = DensityMatrix::zero_state(2);
//! gates::h(&mut rho, 0);
//! gates::cnot(&mut rho, 0, 1);
//!
//! let memory = IdleParams::new(2.5e-3, 2.5e-3)?; // Ts = 2.5 ms
//! memory.channel(100e-6)?.apply(&mut rho, 0);
//! memory.channel(100e-6)?.apply(&mut rho, 1);
//!
//! let target = BellState::PhiPlus.state_vector();
//! let f = fidelity::fidelity_with_pure(&rho, &target);
//! assert!(f > 0.9 && f < 1.0);
//! # Ok::<(), hetarch_qsim::error::QsimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bell;
pub mod channels;
pub mod complex;
pub mod conformance;
pub mod error;
pub mod fidelity;
pub mod gates;
pub mod kernel;
pub mod matrix;
pub mod measure;
pub mod state;

/// Convenient re-exports of the most used items.
pub mod prelude {
    pub use crate::bell::{BellDiagonal, BellState, DejmpsTable, DistillNoise};
    pub use crate::channels::{IdleParams, Kraus1, Kraus2, PauliProbs};
    pub use crate::complex::C64;
    pub use crate::error::QsimError;
    pub use crate::fidelity;
    pub use crate::gates;
    pub use crate::kernel::{ChannelKernel1, ChannelKernel2};
    pub use crate::matrix::Mat;
    pub use crate::measure;
    pub use crate::state::DensityMatrix;
}
