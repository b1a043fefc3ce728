//! The universal error correction (UEC) module (paper §4.2.2): storage-based,
//! topology-agnostic stabilizer QEC with serialized checks, plus the chained
//! USC + USC-EXT variant for codes beyond 30 qubits (Fig. 8).

pub mod assign;
pub mod chain;
pub mod sim;

pub use assign::{build_schedule, search_assignment, Assignment, CheckSlot, CycleSchedule};
pub use chain::{ChainAssignment, ChainSchedule, ChainShape, ChainUecModule};
pub use sim::{CycleDecoder, UecModule, UecNoise, UecResult};
