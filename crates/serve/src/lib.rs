//! Design-space query serving: length-prefixed JSON over TCP, answered
//! concurrently from one shared persistent [`hetarch_cells::CellLibrary`].
//!
//! The crate turns the repo's batch design-space tooling into a long-lived
//! service without adding any framework dependency:
//!
//! - [`query`] — the typed query grammar and its canonical [`query::QueryKey`]
//!   (reordered axes and omitted defaults map to the same key).
//! - [`cache`] — single-flight admission plus a bounded LRU of rendered
//!   responses: identical in-flight queries coalesce onto one execution.
//! - [`queue`] — a bounded job queue with explicit `busy` backpressure.
//! - [`eval`] — the deterministic query evaluator shared by the server's
//!   executors and by tests that compare served bytes against direct runs.
//! - [`server`] — the TCP accept/handler/executor machinery, cooperative
//!   cancellation on client disconnect, and graceful drain-on-shutdown.
//! - [`client`] — a typed client over the same framing (plus raw entry
//!   points for fault-injection tests).
//!
//! Determinism contract: a response's bytes depend only on the canonical
//! query — never on worker count, executor interleaving, or cache state —
//! so coalesced, cached, and freshly computed answers are byte-identical.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod eval;
pub mod query;
pub mod queue;
pub mod server;

pub use cache::{Admit, JobSlot, Outcome, QueryCache};
pub use client::Client;
pub use eval::evaluate;
pub use query::{parse_query, Query, QueryKey};
pub use queue::JobQueue;
pub use server::{Server, ServerConfig, ServerStats};
