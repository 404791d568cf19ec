//! Fleet-scale batched simulation for the OTEM reproduction.
//!
//! PR 5's adjoint gradients brought a full MPC solve down to the
//! sub-millisecond range, which makes serving *fleets* realistic: this
//! crate runs thousands of independent vehicles — each with its own
//! drive cycle, ambient, ultracapacitor sizing and management
//! methodology — through sharded long-lived worker pools, and exposes
//! the whole engine behind a hand-rolled HTTP/1.1 + JSONL server over
//! [`std::net::TcpListener`] (the vendored-deps constraint rules out an
//! async runtime).
//!
//! # Layers
//!
//! | module | contents |
//! |--------|----------|
//! | [`campaign`] | [`VehicleSpec`] / [`Campaign`]: deterministic heterogeneous fleets |
//! | [`pool`] | the generic work-stealing fan over scoped worker threads |
//! | [`engine`] | [`FleetEngine`]: batched campaign execution + per-vehicle panic containment |
//! | [`queue`] | [`BoundedQueue`]: the std-only bounded MPMC hand-off behind the server |
//! | [`protocol`] | minimal JSON field extraction + JSONL response rendering |
//! | [`server`] | [`FleetServer`]: the hardened `simulate`/`plan` serving layer (worker pool, load shedding, socket deadlines, graceful drain) |
//!
//! # Determinism contract
//!
//! Every vehicle in a campaign is an *independent* closed-loop
//! simulation, so the engine's result for vehicle `i` is bit-identical
//! to running [`otem::Simulator`] on that vehicle alone — regardless of
//! shard count or whether the serial or work-stealing schedule
//! dispatched it. `tests/determinism.rs` pins this across shard counts
//! {1, 4, 16} and both schedules.
//!
//! # Quickstart
//!
//! ```
//! use otem_fleet::{Campaign, FleetEngine, Schedule};
//!
//! let campaign = Campaign::synthetic(8, 42);
//! let engine = FleetEngine::new(Schedule::WorkStealing { shards: 4 });
//! let report = engine.run(&campaign);
//! assert!(report.failures.is_empty());
//! assert_eq!(report.summaries.len(), 8);
//! assert!(report.total_steps > 0);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod campaign;
pub mod engine;
pub mod pool;
pub mod protocol;
pub mod queue;
pub mod server;

pub use campaign::{
    Campaign, Methodology, SolveOutcomes, SummaryBuilder, TraceCache, VehicleSpec, VehicleSummary,
};
pub use engine::{ClockFactory, FleetEngine, FleetReport, OutcomeTally, Schedule, VehicleFailure};
pub use queue::{BoundedQueue, PushError};
pub use server::{FleetServer, ServerConfig, ServerHandle};
