//! # hetarch-modules
//!
//! HetArch application modules (paper §4): entanglement distillation,
//! error-corrected quantum memory (planar surface code + the universal
//! error correction module), and code teleportation, plus the homogeneous
//! sea-of-qubits baseline they are compared against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod ct;
pub mod distill;
pub mod epsource;
pub mod faults;
pub mod hierarchy;
pub mod uec;

pub use epsource::EpSource;
