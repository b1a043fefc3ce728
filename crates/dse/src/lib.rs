//! # hetarch-dse
//!
//! The heterogeneous design-space exploration framework (paper §2's third
//! contribution): parameter-grid definitions, parallel sweep execution,
//! Pareto-front extraction, and the simulation-cost ledger that quantifies
//! the hierarchical methodology's ~10⁴ burden reduction. The paper's
//! per-application sweeps are defined on [`sweep_on`] in `hetarch-bench`.
//!
//! # Example
//!
//! ```
//! use hetarch_dse::space::{Axis, DesignSpace};
//! use hetarch_dse::sweep::sweep_on;
//! use hetarch_dse::pareto::pareto_front;
//! use hetarch_exec::WorkerPool;
//!
//! let space = DesignSpace::new(vec![Axis::log_spaced("ts", 1e-3, 50e-3, 4)]);
//! // Toy objective: (error ~ 1/ts, footprint ~ ts).
//! let results = sweep_on(&WorkerPool::new(2), space.points(), |p| {
//!     vec![1.0 / p.get("ts"), p.get("ts")]
//! });
//! let metrics: Vec<Vec<f64>> = results.into_iter().map(|(_, m)| m).collect();
//! // Everything on this curve is Pareto-optimal.
//! assert_eq!(pareto_front(&metrics).len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod pareto;
pub mod space;
pub mod sweep;

pub use cost::CostLedger;
pub use pareto::{knee_point, pareto_front};
pub use space::{Axis, DesignSpace, Point};
pub use sweep::{sweep_on, try_sweep_on};
