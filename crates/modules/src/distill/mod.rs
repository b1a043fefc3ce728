//! Entanglement distillation (paper §4.1): pair memories, the greedy
//! scheduler, and the event-driven module simulator behind Figs. 3 and 4.

pub mod memory;
pub mod module;
pub mod scheduler;

pub use memory::PairMemory;
pub use module::{DistillConfig, DistillModule, DistillReport, TracePoint};
pub use scheduler::{choose_action, Action, Policy};
