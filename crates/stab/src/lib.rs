//! # hetarch-stab
//!
//! Stabilizer-circuit substrate for the HetArch workspace: a CHP tableau
//! simulator, a batched Pauli-frame Monte-Carlo sampler with circuit-level
//! noise (the role Stim plays in the paper), QEC code definitions, and
//! decoders.
//!
//! # Example
//!
//! ```
//! use hetarch_exec::WorkerPool;
//! use hetarch_stab::codes::{SurfaceDecoder, SurfaceMemory, SurfaceNoise};
//!
//! // A small distance-3 memory experiment with the paper's noise defaults.
//! let mem = SurfaceMemory::new(3, 3, SurfaceNoise::default());
//! let pool = WorkerPool::new(2);
//! let (per_shot, per_round) =
//!     mem.logical_error_rate_on(&pool, SurfaceDecoder::UnionFind, 2_000, 42);
//! assert!(per_shot < 0.5);
//! assert!(per_round <= per_shot);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod circuit;
pub mod codes;
pub mod decoder;
pub mod detector;
pub mod frame;
pub mod pauli;
pub mod tableau;
