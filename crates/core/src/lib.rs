//! # HetArch
//!
//! A Rust implementation of **HetArch: Heterogeneous Microarchitectures for
//! Superconducting Quantum Systems** (MICRO 2023): a toolbox for designing
//! and simulating heterogeneous quantum systems built from compute-optimized
//! and storage-optimized superconducting devices.
//!
//! The workspace follows the paper's hierarchy:
//!
//! * [`qsim`] — exact density-matrix simulation (the standard-cell layer),
//! * [`stab`] — stabilizer circuits, a Pauli-frame Monte-Carlo sampler, QEC
//!   codes and decoders (the role Stim plays in the paper),
//! * [`devices`] — the Table 1 device catalog, symbolic layouts, and the
//!   DR1–DR4 design-rule checker,
//! * [`cells`] — the Table 2 standard cells (`Register`, `ParCheck`,
//!   `SeqOp`, `USC`) with density-matrix characterization,
//! * [`modules`] — entanglement distillation, universal error correction,
//!   code teleportation, and the homogeneous baseline,
//! * [`dse`] — design-space exploration: sweeps, Pareto fronts, and the
//!   simulation-cost ledger,
//! * [`exec`] — the sharded Monte-Carlo execution engine: a reusable
//!   [`exec::WorkerPool`] with worker-count-invariant `(seed, shard)`
//!   RNG-stream derivation shared by every shot loop in the workspace,
//! * [`serve`] — a length-prefixed JSON-over-TCP design-space query server:
//!   single-flight coalescing of identical in-flight queries, bounded-queue
//!   backpressure, cooperative cancellation on client disconnect, and
//!   graceful drain-on-shutdown over one shared persistent cell library,
//! * [`obs`] — the observability layer: lock-free counters, wall-time
//!   histograms and deterministic run reports, compiled in only with the
//!   `obs` cargo feature and armed only when `HETARCH_OBS=1`,
//! * [`testkit`] — the verification subsystem: channel/state conformance
//!   checks, statistical assertions with derived tolerances, cross-simulator
//!   differential oracles, and golden-snapshot files.
//!
//! # Quickstart
//!
//! ```
//! use hetarch::prelude::*;
//!
//! // Assemble a design-rule-checked Register cell and characterize it.
//! let lib = CellLibrary::new();
//! let reg = lib.get::<RegisterCell>(
//!     &catalog::fixed_frequency_qubit(),
//!     &catalog::multimode_resonator_3d(),
//! );
//! assert!(reg.load.fidelity > 0.95);
//!
//! // Run a short entanglement-distillation experiment (paper §4.1).
//! let config = DistillConfig::heterogeneous(12.5e-3, 1e6, 42);
//! let report = DistillModule::new(config).run(1e-3);
//! assert!(report.arrivals > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hetarch_cells as cells;
pub use hetarch_devices as devices;
pub use hetarch_dse as dse;
pub use hetarch_exec as exec;
pub use hetarch_modules as modules;
pub use hetarch_obs as obs;
pub use hetarch_qsim as qsim;
pub use hetarch_serve as serve;
pub use hetarch_stab as stab;
pub use hetarch_testkit as testkit;

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use hetarch_cells::{
        CacheStats, Cell, CellKind, CellLibrary, CharKey, OpChannel, ParCheckCell, ParCheckChannel,
        RegisterCell, RegisterChannel, SeqOpCell, SeqOpChannel, UscCell, UscChain, UscChannel,
    };
    pub use hetarch_devices::calib::{CalibParams, CalibSnapshot};
    pub use hetarch_devices::catalog;
    pub use hetarch_devices::rules::validate;
    pub use hetarch_devices::{DeviceGraph, DeviceId, DeviceRole, DeviceSpec};
    pub use hetarch_dse::{pareto_front, sweep_on, Axis, CostLedger, DesignSpace};
    pub use hetarch_exec::rare::{RareConfig, RareOutcome, RareReport};
    pub use hetarch_exec::{shard_seed, shards, Shard, WorkerPool};
    pub use hetarch_modules::baseline::{hom_surface_logical_error, HomModule};
    pub use hetarch_modules::ct::{Architecture, CtConfig, CtModule, CtResult};
    pub use hetarch_modules::distill::{DistillConfig, DistillModule, DistillReport};
    pub use hetarch_modules::uec::{UecModule, UecNoise, UecResult};
    pub use hetarch_modules::EpSource;
    pub use hetarch_qsim::bell::{BellDiagonal, BellState, DejmpsTable, DistillNoise};
    pub use hetarch_qsim::channels::{IdleParams, Kraus1, Kraus2, PauliProbs};
    pub use hetarch_qsim::state::DensityMatrix;
    pub use hetarch_qsim::{fidelity, gates};
    pub use hetarch_stab::circuit::Circuit;
    pub use hetarch_stab::codes::{
        color_17, reed_muller_15, rotated_surface_code, steane, MemoryBasis, StabilizerCode,
        SurfaceMemory, SurfaceNoise,
    };
    pub use hetarch_stab::decoder::{
        DecoderScratch, LookupDecoder, MatchingGraph, UnionFindDecoder,
    };
    pub use hetarch_stab::pauli::{Pauli, PauliString};
    pub use hetarch_stab::tableau::Tableau;
}
