//! Structured telemetry for the OTEM MPC/solver/plant stack.
//!
//! The paper's whole evaluation is a story told through per-step signals
//! — battery temperature, C-rate, cooling duty, solver effort — and the
//! production north star needs those signals observable without
//! re-deriving them from record dumps. This crate is the instrumentation
//! layer: **dependency-free**, allocation-free on the disabled path, and
//! strictly observational (a sink can never perturb the physics it
//! watches).
//!
//! # Pieces
//!
//! * [`Event`] — the typed event taxonomy: gradient evaluations, solve
//!   outcomes, cooling toggles, ultracapacitor saturation, injected
//!   faults, spans, serving-layer events and completed simulation
//!   steps. Every variant is `Copy` so emission never allocates.
//! * [`Sink`] — where events go. Implementations:
//!   [`NullSink`] (the default: every record is a no-op, the instrumented
//!   code path is bit-identical to an uninstrumented run),
//!   [`MemorySink`] (bounded ring buffer for tests and in-process
//!   inspection), [`JsonlSink`] (streaming JSON-lines writer) and [`Tee`] (fans one stream out to two sinks).
//! * [`span`] / [`SpanGuard`] — hierarchical timed spans on
//!   a monotonic clock: *where the time went* inside an MPC solve,
//!   nested via a thread-local stack and closed by RAII. Consumed
//!   through [`Event::SpanStart`] / [`Event::SpanEnd`] by any sink; the
//!   [`ChromeTraceSink`] turns them into a `chrome://tracing` /
//!   Perfetto timeline with one row per worker thread.
//! * Metric primitives — [`Counter`], [`Gauge`] and fixed-bucket
//!   [`Histogram`] (with interpolated [`Histogram::quantile`]), all
//!   interior-mutable so they can be shared across the fleet engine's
//!   worker threads.
//! * [`RingBuffer`] — the bounded FIFO behind [`MemorySink`], exposed
//!   for reuse.
//! * [`MetricsRegistry`] — named counter/gauge/histogram *families*
//!   with label sets and hand-rolled Prometheus text exposition (validated by the parser in
//!   [`promparse`]). The registry is also a [`Sink`]: one table maps
//!   solve outcomes, sheds, timeouts and contained panics to their
//!   counter families ([`EventCounter`]) — the one event→metrics path.
//! * [`request_scope`] / [`current_request_id`] — the correlation id
//!   that joins telemetry back to the serving-layer request that
//!   caused it.
//! * [`FlightRecorder`] — an always-on bounded ring of recent events
//!   that freezes itself the moment a contained panic
//!   ([`Event::PanicCaught`]) flows through it, yielding a JSONL
//!   post-mortem.
//!
//! # The zero-cost contract
//!
//! Instrumented hot paths take `&dyn Sink` and call
//! [`Sink::record`] unconditionally. With [`NullSink`] that is one
//! virtual call on a few `Copy` words — no allocation, no branch on the
//! caller's side, and no effect on any computed value. The golden-trace
//! and parity suites in the workspace pin this contract: a `NullSink`
//! run must be `PartialEq`-identical to an uninstrumented run.
//!
//! # Example
//!
//! ```
//! use otem_telemetry::{Event, MemorySink, Sink};
//!
//! let sink = MemorySink::with_capacity(16);
//! sink.record(Event::GradientEval { dim: 24 });
//! sink.record(Event::SolveOutcome {
//!     outcome: "converged",
//!     mode: "adjoint",
//!     iterations: 7,
//! });
//! assert_eq!(sink.len(), 2);
//! assert_eq!(sink.count_kind("solve_outcome"), 1);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod context;
mod event;
mod flight;
mod metrics;
pub mod promparse;
mod registry;
mod ring;
mod sink;
mod span;

pub use context::{current_request_id, request_scope, RequestScope};
pub use event::{write_json_string, Event};
pub use flight::{FlightDump, FlightEntry, FlightRecorder};
pub use metrics::{Counter, Gauge, Histogram};
pub use registry::{EventCounter, MetricsRegistry};
pub use ring::RingBuffer;
pub use sink::{ChromeTraceSink, JsonlSink, MemorySink, NullSink, Sink, Tee};
pub use span::{span, SpanGuard};
