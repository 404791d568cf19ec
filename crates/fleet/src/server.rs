//! The serving layer: hand-rolled HTTP/1.1 + JSONL over
//! [`std::net::TcpListener`], hardened for hostile traffic.
//!
//! The vendored-deps constraint rules out an async runtime, so
//! concurrency is a fixed pool of blocking worker threads fed by a
//! hand-rolled [`BoundedQueue`]: one accept thread hands each accepted
//! socket to the pool, and when the queue is full the accept thread
//! **sheds** the connection immediately with a `503` and a
//! `retry_after_ms` hint instead of letting a backlog build. Four
//! defence layers keep one bad client (or one bad request) from taking
//! the server down:
//!
//! 1. **Load shedding** — bounded queue, `503 {"error":"overloaded",
//!    "retry_after_ms":…}` the instant it is full.
//! 2. **Socket deadlines** — every accepted socket gets
//!    `set_read_timeout`/`set_write_timeout`; a stalled (slow-loris)
//!    client is cut off with `408`, and the request head is capped at
//!    [`MAX_HEADER_BYTES`] bytes / [`MAX_HEADER_COUNT`] headers so a
//!    trickler cannot hold a worker indefinitely.
//! 3. **Panic isolation** — each request handler runs under
//!    `catch_unwind` (a contained panic answers `500` and bumps the
//!    `panics` counter), and inside the engine each *vehicle* is its own
//!    unwind boundary, so a poisoned vehicle yields one structured
//!    `vehicle_error` line while the rest of the fleet completes.
//! 4. **Graceful drain** — `/shutdown` (or [`ServerHandle::shutdown`])
//!    stops accepting, lets queued and in-flight requests finish up to
//!    `drain_deadline_ms`, then joins the pool.
//!
//! # Observability
//!
//! Every serving-layer counter lives in a [`MetricsRegistry`] and is
//! exposed on `GET /metrics` as Prometheus v0.0.4 text:
//! request/shed/timeout/panic totals, in-flight and uptime gauges,
//! `otem_build_info`, per-route request-latency histograms, MPC solve
//! outcomes by gradient mode, and trace-cache plus JSONL-drop
//! counters. Each accepted connection mints
//! a `request_id` that rides a thread-local
//! [`otem_telemetry::request_scope`] through the engine's workers, so
//! spans and flight-recorder entries name the request that caused them.
//! An always-on [`FlightRecorder`] keeps the last N events per lane and
//! freezes a post-mortem dump the moment a contained panic or
//! supervisor fallback flows through it; the frozen dump is served on
//! `GET /debug/flight` (and written to [`ServerConfig::flight_dir`]
//! when configured). `GET /debug/trace?sample=N` arms 1-in-N span
//! sampling and streams the sampled spans collected so far.
//!
//! # Routes
//!
//! | route | body | response |
//! |-------|------|----------|
//! | `GET /healthz` | — | one status line |
//! | `GET /metrics` | — | Prometheus v0.0.4 text exposition of the registry |
//! | `GET /debug/flight` | — | frozen flight-recorder dump if an incident occurred, else the live ring |
//! | `GET /debug/trace?sample=N` | — | arms 1-in-N span sampling; streams sampled spans |
//! | `POST /simulate` | [`SimulateRequest`] JSON | JSONL summaries (fleet) or telemetry stream + summary (vehicle) |
//! | `POST /plan` | single-vehicle JSON | clairvoyant DP split, one line per step |
//! | `POST /shutdown` | — | ack line, then the server drains and exits |
//!
//! Responses are `application/x-ndjson` (`/metrics` is
//! `text/plain; version=0.0.4`), close-delimited (`Connection: close`),
//! so clients just read lines until EOF.

use crate::campaign::{Campaign, SummaryBuilder, TraceCache, VehicleSpec};
use crate::engine::FleetEngine;
use crate::protocol::{failure_line, outcomes_json, summary_line, SimulateRequest, Telemetry};
use crate::queue::{BoundedQueue, PushError};
use otem::planner::{plan_split, PlannerConfig};
use otem::{OtemError, Simulator};
use otem_telemetry::{
    current_request_id, request_scope, ChromeTraceSink, Counter, Event, FlightDump, FlightEntry,
    FlightRecorder, Gauge, Histogram, JsonlSink, MetricsRegistry, NullSink, Sink,
};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Upper bound on `/plan` route length: the clairvoyant DP is
/// `O(steps × soe_levels × actions)` plant evaluations, so unbounded
/// requests could pin a worker for minutes.
const PLAN_STEP_CAP: usize = 2_000;

/// Largest accepted request body (requests are small JSON objects; a
/// huge Content-Length is a malformed or hostile client).
const BODY_CAP: u64 = 1 << 20;

/// Total bytes a request head (request line + headers) may occupy. A
/// slow-loris client drip-feeding header bytes exhausts this budget and
/// is answered `400` instead of holding the worker.
pub const MAX_HEADER_BYTES: u64 = 8 * 1024;

/// Maximum number of request headers (a header *flood* within the byte
/// budget is still refused).
pub const MAX_HEADER_COUNT: usize = 64;

/// The `retry_after_ms` hint shed responses carry — long enough for a
/// queue slot to open at typical request latencies, short enough that a
/// retrying client converges quickly.
pub const RETRY_AFTER_MS: u64 = 100;

/// Server tuning.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (the tests' loopback mode).
    pub addr: String,
    /// Default shard width for fleet requests that don't pin one.
    pub shards: usize,
    /// Per-request campaign size cap.
    pub max_vehicles: usize,
    /// Connection-handler worker threads (clamped to ≥ 1).
    pub workers: usize,
    /// Bounded hand-off depth between the accept loop and the workers;
    /// connections beyond `workers + queue_depth` are shed with `503`.
    pub queue_depth: usize,
    /// Per-read socket timeout (ms) — a client that stalls this long
    /// mid-request is cut off with `408`. Clamped to ≥ 1.
    pub read_timeout_ms: u64,
    /// Per-write socket timeout (ms); a client that stops reading its
    /// response this long is dropped. Clamped to ≥ 1.
    pub write_timeout_ms: u64,
    /// How long a drain waits for queued + in-flight requests before
    /// abandoning the stragglers (their socket timeouts still bound
    /// them).
    pub drain_deadline_ms: u64,
    /// Directory flight-recorder dumps are written to as
    /// `flight-<seq>-<trigger>.jsonl`. Empty (the default) keeps dumps
    /// in memory only, where `GET /debug/flight` serves the most
    /// recent one.
    pub flight_dir: String,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            shards: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
            max_vehicles: 100_000,
            workers: 4,
            queue_depth: 64,
            read_timeout_ms: 2_000,
            write_timeout_ms: 2_000,
            drain_deadline_ms: 5_000,
            flight_dir: String::new(),
        }
    }
}

/// Help text constants: the registry requires a family's help to be
/// identical on every lookup, so call sites share these.
const SOLVE_OUTCOME_HELP: &str = "MPC solve outcomes by gradient mode across every request served.";
const LATENCY_HELP: &str = "End-to-end request latency (queue wait included) by route.";
const FLIGHT_DUMPS_HELP: &str = "Flight-recorder dumps frozen, by trigger event.";

/// Shared mutable server state (metrics + shutdown flag).
struct ServerState {
    config: ServerConfig,
    cache: Arc<TraceCache>,
    /// Observational sink for serving-layer events ([`Event::RequestShed`],
    /// [`Event::RequestTimeout`], [`Event::PanicCaught`],
    /// [`Event::DrainStarted`]); [`NullSink`] unless installed via
    /// [`FleetServer::with_sink`].
    sink: Arc<dyn Sink + Send + Sync>,
    /// The unified metric registry behind `/metrics`. Every named
    /// counter below is a child of one of its families, so the ad-hoc
    /// accessors, the JSON blob and the Prometheus exposition all read
    /// the same atomics.
    registry: Arc<MetricsRegistry>,
    /// Always-on ring of recent telemetry; freezes on contained panics
    /// and supervisor fallbacks (see [`FlightRecorder`]).
    recorder: FlightRecorder,
    /// The most recent frozen dump, drained from the recorder by the
    /// worker that observed it — `GET /debug/flight` serves this.
    last_dump: Mutex<Option<FlightDump>>,
    /// Monotone file-name sequence for persisted dumps.
    flight_seq: AtomicU64,
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    /// Failed `accept(2)` calls — transport-level, counted apart from
    /// request errors so the two failure modes stay distinguishable.
    accept_errors: Arc<Counter>,
    /// Connections refused with `503` because the queue was full.
    shed: Arc<Counter>,
    /// Requests cut off by a socket deadline (`408`).
    timeouts: Arc<Counter>,
    /// Request-handler panics contained by the worker's `catch_unwind`.
    panics: Arc<Counter>,
    /// Per-vehicle panics contained inside the fleet engine.
    vehicle_panics: Arc<Counter>,
    /// Telemetry records dropped by per-request JSONL streaming sinks.
    jsonl_dropped: Arc<Counter>,
    /// `otem_in_flight_requests`, refreshed from `in_flight` at scrape.
    in_flight_gauge: Arc<Gauge>,
    /// `otem_uptime_seconds`, refreshed from `started` at scrape.
    uptime: Arc<Gauge>,
    /// Construction time, the uptime epoch.
    started: Instant,
    /// Correlation-id mint; ids start at 1 (`0` means "no request").
    request_ids: AtomicU64,
    /// Span-sampling rate armed by `/debug/trace?sample=N`: requests
    /// whose id is divisible by N run with an enabled sink so their
    /// spans reach the flight recorder. `0` (the default) samples none.
    trace_sample: AtomicU64,
    /// Bucket bounds (seconds) shared by every `route` child of
    /// `otem_request_latency_seconds`.
    latency_bounds: Vec<f64>,
    /// Requests currently being handled by workers.
    in_flight: AtomicU64,
    /// Live shedder threads (see [`shed_connection`]); capped so a shed
    /// storm cannot become a thread-spawn storm.
    shedders: AtomicU64,
    shutdown: AtomicBool,
    /// The bound address, set at bind time — lets the `/shutdown`
    /// handler (running on a worker) wake the blocking accept loop with
    /// a self-connect.
    addr: OnceLock<SocketAddr>,
}

impl ServerState {
    /// Feeds one event to the flight recorder (stamping the recording
    /// thread's correlation id) and folds solve outcomes into the
    /// per-`(mode, outcome)` registry family.
    fn observe(&self, event: Event) {
        self.recorder.record(event);
        if let Event::SolveOutcome { outcome, mode, .. } = event {
            self.registry
                .counter(
                    "otem_solve_outcome_total",
                    SOLVE_OUTCOME_HELP,
                    &[("mode", mode), ("outcome", outcome)],
                )
                .inc();
        }
    }

    /// An event for both the observational sink and the recorder.
    fn observe_ops(&self, event: Event) {
        self.sink.record(event);
        self.recorder.record(event);
    }

    /// The latency-histogram child for a route.
    fn route_latency(&self, route: &str) -> Arc<Histogram> {
        self.registry.histogram(
            "otem_request_latency_seconds",
            LATENCY_HELP,
            &[("route", route)],
            &self.latency_bounds,
        )
    }

    /// `true` when span sampling is armed and this request drew the
    /// 1-in-N slot.
    fn trace_sampled(&self, request_id: u64) -> bool {
        let n = self.trace_sample.load(Ordering::Relaxed);
        n != 0 && request_id != 0 && request_id.is_multiple_of(n)
    }

    /// Books a dump the recorder froze: counts it by trigger, persists
    /// it when a flight directory is configured, and retains it for
    /// `GET /debug/flight`.
    fn note_flight_dump(&self, dump: FlightDump) {
        self.registry
            .counter(
                "otem_flight_dumps_total",
                FLIGHT_DUMPS_HELP,
                &[("trigger", dump.trigger)],
            )
            .inc();
        if !self.config.flight_dir.is_empty() {
            let seq = self.flight_seq.fetch_add(1, Ordering::Relaxed);
            let path = format!(
                "{}/flight-{seq:04}-{}.jsonl",
                self.config.flight_dir, dump.trigger
            );
            // Persistence is best-effort: an unwritable directory must
            // not take down request serving, and the dump is still
            // retained in memory below.
            let _ = std::fs::create_dir_all(&self.config.flight_dir);
            let _ = std::fs::write(path, dump.to_jsonl());
        }
        *self
            .last_dump
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(dump);
    }

    /// The Prometheus text exposition, with scrape-time gauges
    /// (uptime, in-flight) refreshed first.
    fn render_prometheus(&self) -> String {
        self.uptime.set(self.started.elapsed().as_secs_f64());
        self.in_flight_gauge
            .set(self.in_flight.load(Ordering::Relaxed) as f64);
        self.registry.snapshot().render_prometheus()
    }
}

impl std::fmt::Debug for ServerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerState")
            .field("config", &self.config)
            .field("requests", &self.requests.get())
            .field("errors", &self.errors.get())
            .field("shed", &self.shed.get())
            .field("timeouts", &self.timeouts.get())
            .field("panics", &self.panics.get())
            .finish_non_exhaustive()
    }
}

/// A connection waiting for a worker; `accepted` timestamps queue entry
/// so the latency histogram includes queue wait, and `request_id` is
/// the correlation id minted at accept time.
struct Job {
    stream: TcpStream,
    accepted: Instant,
    request_id: u64,
}

/// Counts live workers; the drain waits on it instead of polling.
struct WorkerLatch {
    live: Mutex<usize>,
    done: Condvar,
}

impl WorkerLatch {
    fn new(count: usize) -> Self {
        Self {
            live: Mutex::new(count),
            done: Condvar::new(),
        }
    }

    fn depart(&self) {
        let mut live = self.live.lock().unwrap_or_else(PoisonError::into_inner);
        *live = live.saturating_sub(1);
        drop(live);
        self.done.notify_all();
    }

    /// Waits until every worker departed or the deadline passed;
    /// returns `true` when the pool fully drained.
    fn wait_drained(&self, deadline: Instant) -> bool {
        let mut live = self.live.lock().unwrap_or_else(PoisonError::into_inner);
        while *live > 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .done
                .wait_timeout(live, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            live = guard;
        }
        true
    }
}

/// The fleet serving layer. Construct with a [`ServerConfig`], then
/// either [`FleetServer::spawn`] a background handle (tests, embedding)
/// or [`FleetServer::run`] the accept loop on the current thread (the
/// `fleet_server` binary).
#[derive(Debug)]
pub struct FleetServer {
    state: Arc<ServerState>,
}

impl FleetServer {
    /// A server with the given tuning.
    pub fn new(config: ServerConfig) -> Self {
        Self::with_sink(config, Arc::new(NullSink))
    }

    /// A server that records serving-layer events (sheds, timeouts,
    /// contained panics, drain start) on the given sink — the chaos
    /// harness passes a [`otem_telemetry::MemorySink`] to assert on
    /// them.
    pub fn with_sink(config: ServerConfig, sink: Arc<dyn Sink + Send + Sync>) -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let counter = |name: &str, help: &str| registry.counter(name, help, &[]);
        registry
            .gauge(
                "otem_build_info",
                "Build metadata; the value is always 1.",
                &[
                    ("version", env!("CARGO_PKG_VERSION")),
                    (
                        "profile",
                        if cfg!(debug_assertions) {
                            "debug"
                        } else {
                            "release"
                        },
                    ),
                ],
            )
            .set(1.0);
        let cache = Arc::new(TraceCache::with_metrics(
            counter(
                "otem_trace_cache_hits_total",
                "Power-trace cache lookups served from the cache.",
            ),
            counter(
                "otem_trace_cache_misses_total",
                "Power-trace cache lookups that synthesised the base trace.",
            ),
        ));
        Self {
            state: Arc::new(ServerState {
                cache,
                sink,
                recorder: FlightRecorder::new(),
                last_dump: Mutex::new(None),
                flight_seq: AtomicU64::new(0),
                requests: counter(
                    "otem_requests_total",
                    "Requests handled by the worker pool (shed connections and \
                     shutdown wake-ups excluded).",
                ),
                errors: counter(
                    "otem_request_errors_total",
                    "Requests answered with an error status or dropped on a \
                     transport error (timeouts counted separately).",
                ),
                accept_errors: counter("otem_accept_errors_total", "Failed accept(2) calls."),
                shed: counter(
                    "otem_requests_shed_total",
                    "Connections refused with 503 because the worker queue was full.",
                ),
                timeouts: counter(
                    "otem_request_timeouts_total",
                    "Requests cut off by a socket deadline (408).",
                ),
                panics: counter(
                    "otem_request_panics_total",
                    "Request-handler panics contained by catch_unwind.",
                ),
                vehicle_panics: counter(
                    "otem_vehicle_panics_total",
                    "Per-vehicle panics contained inside fleet campaigns.",
                ),
                jsonl_dropped: counter(
                    "otem_jsonl_dropped_records_total",
                    "Telemetry records dropped by per-request JSONL streaming sinks.",
                ),
                in_flight_gauge: registry.gauge(
                    "otem_in_flight_requests",
                    "Requests currently being handled by workers.",
                    &[],
                ),
                uptime: registry.gauge(
                    "otem_uptime_seconds",
                    "Seconds since the server was constructed.",
                    &[],
                ),
                started: Instant::now(),
                request_ids: AtomicU64::new(0),
                trace_sample: AtomicU64::new(0),
                // ~10 µs .. ~20 s in doubling buckets.
                latency_bounds: Histogram::exponential(1e-5, 2.0, 22).bounds().to_vec(),
                registry,
                config,
                in_flight: AtomicU64::new(0),
                shedders: AtomicU64::new(0),
                shutdown: AtomicBool::new(false),
                addr: OnceLock::new(),
            }),
        }
    }

    /// Binds the listener and runs the accept loop on the current
    /// thread until a shutdown request arrives, then drains the worker
    /// pool. `on_bind` receives the bound address (port 0 resolves
    /// here).
    ///
    /// # Errors
    ///
    /// Returns the bind error; per-connection I/O errors are counted
    /// and survived.
    pub fn run(self, on_bind: impl FnOnce(SocketAddr)) -> io::Result<()> {
        let listener = TcpListener::bind(&self.state.config.addr)?;
        let addr = listener.local_addr()?;
        let _ = self.state.addr.set(addr);
        on_bind(addr);
        self.accept_loop(&listener);
        Ok(())
    }

    /// Binds the listener and serves from a background thread, returning
    /// a handle that resolves the bound address and can shut the server
    /// down.
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&self.state.config.addr)?;
        let addr = listener.local_addr()?;
        let _ = self.state.addr.set(addr);
        let state = Arc::clone(&self.state);
        let thread = std::thread::spawn(move || self.accept_loop(&listener));
        Ok(ServerHandle {
            addr,
            state,
            thread: Some(thread),
        })
    }

    /// The accept thread: hand sockets to the pool, shed when full,
    /// drain on shutdown.
    fn accept_loop(&self, listener: &TcpListener) {
        let state = &self.state;
        let queue = Arc::new(BoundedQueue::<Job>::new(state.config.queue_depth));
        let worker_count = state.config.workers.max(1);
        let latch = Arc::new(WorkerLatch::new(worker_count));
        let workers: Vec<JoinHandle<()>> = (0..worker_count)
            .map(|_| {
                let state = Arc::clone(state);
                let queue = Arc::clone(&queue);
                let latch = Arc::clone(&latch);
                std::thread::spawn(move || {
                    while let Some(job) = queue.pop() {
                        serve_job(&state, job);
                    }
                    latch.depart();
                })
            })
            .collect();

        let read_timeout = Duration::from_millis(state.config.read_timeout_ms.max(1));
        let write_timeout = Duration::from_millis(state.config.write_timeout_ms.max(1));
        for conn in listener.incoming() {
            // The shutdown self-connect lands here with the flag already
            // set, so wake connections are never counted or served
            // (`requests` and the latency histogram stay traffic-only).
            if state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else {
                state.accept_errors.inc();
                continue;
            };
            let _ = stream.set_read_timeout(Some(read_timeout));
            let _ = stream.set_write_timeout(Some(write_timeout));
            let job = Job {
                stream,
                accepted: Instant::now(),
                // Ids start at 1: 0 is the "no request" sentinel of
                // `otem_telemetry::current_request_id`.
                request_id: state.request_ids.fetch_add(1, Ordering::Relaxed) + 1,
            };
            match queue.try_push(job) {
                Ok(()) => {}
                Err(PushError::Full(job)) => {
                    state.shed.inc();
                    state.observe_ops(Event::RequestShed {
                        queued: queue.len() as u64,
                        retry_after_ms: RETRY_AFTER_MS,
                    });
                    shed_connection(state, job.stream);
                }
                Err(PushError::Closed(job)) => {
                    // Raced a drain; refuse like a shed so the client
                    // retries against the next instance. Blocking here
                    // is fine — the accept loop is exiting anyway.
                    let _ = respond_shed(job.stream);
                    break;
                }
            }
        }

        // Drain: stop feeding the pool, serve what is queued and
        // in-flight, give up at the deadline (stragglers stay bounded by
        // their socket timeouts).
        state.observe_ops(Event::DrainStarted {
            in_flight: state.in_flight.load(Ordering::Relaxed),
            queued: queue.len() as u64,
        });
        queue.close();
        let deadline =
            Instant::now() + Duration::from_millis(state.config.drain_deadline_ms.max(1));
        if latch.wait_drained(deadline) {
            for worker in workers {
                let _ = worker.join();
            }
        }
        // else: handles drop here — stragglers are detached, not joined.
    }
}

/// Handle to a [spawned](FleetServer::spawn) server.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (port 0 in the config resolves to a real port
    /// here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests handled by the worker pool so far (shed connections and
    /// shutdown wake-ups are not requests).
    pub fn requests(&self) -> u64 {
        self.state.requests.get()
    }

    /// Requests answered with an error status or dropped on a transport
    /// error (excluding timeouts, which are counted separately).
    pub fn errors(&self) -> u64 {
        self.state.errors.get()
    }

    /// Connections refused with `503` because the queue was full.
    pub fn shed(&self) -> u64 {
        self.state.shed.get()
    }

    /// Requests cut off by a socket deadline.
    pub fn timeouts(&self) -> u64 {
        self.state.timeouts.get()
    }

    /// Request-handler panics contained by the pool.
    pub fn panics(&self) -> u64 {
        self.state.panics.get()
    }

    /// Per-vehicle panics contained inside fleet campaigns.
    pub fn vehicle_panics(&self) -> u64 {
        self.state.vehicle_panics.get()
    }

    /// Failed `accept(2)` calls.
    pub fn accept_errors(&self) -> u64 {
        self.state.accept_errors.get()
    }

    /// Signals shutdown, wakes the accept loop and joins the serving
    /// thread — which itself drains the worker pool up to the
    /// configured drain deadline. Idempotent.
    pub fn shutdown(&mut self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        // The accept loop may be parked in `accept`; a throwaway
        // connection wakes it so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One worker's handling of one connection: count it, contain panics,
/// map socket deadlines to `408`, observe latency per route, and drain
/// any flight-recorder dump the request froze.
fn serve_job(state: &Arc<ServerState>, job: Job) {
    state.requests.inc();
    state.in_flight.fetch_add(1, Ordering::Relaxed);
    // The correlation scope covers the whole handling, so even the
    // timeout/panic bookkeeping below stamps this request's id into
    // the recorder.
    let _scope = request_scope(job.request_id);
    // A clone of the socket survives the handler consuming (and on
    // panic, dropping) the original — it is the only way to still
    // answer the client after a timeout or a contained panic.
    let peer = job.stream.try_clone().ok();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        handle_connection(state, job.stream, job.request_id)
    }));
    let route = match outcome {
        Ok(Ok((status, route))) => {
            if status >= 400 {
                state.errors.inc();
            }
            route
        }
        Ok(Err(err)) => {
            if matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) {
                state.timeouts.inc();
                state.observe_ops(Event::RequestTimeout {
                    after_ms: job.accepted.elapsed().as_secs_f64() * 1e3,
                });
                if let Some(peer) = peer {
                    let _ = respond_error(peer, 408, "request timed out");
                }
            } else {
                // Client went away mid-stream or transport failed:
                // count it, keep serving.
                state.errors.inc();
            }
            "transport"
        }
        Err(_) => {
            state.panics.inc();
            // Flowing through the recorder freezes it: the dump is
            // drained below, after the latency bookkeeping.
            state.observe_ops(Event::PanicCaught { context: "request" });
            if let Some(peer) = peer {
                let _ = respond_error(peer, 500, "internal panic (contained)");
            }
            "panic"
        }
    };
    let elapsed_s = job.accepted.elapsed().as_secs_f64();
    state.route_latency(route).observe(elapsed_s);
    state.in_flight.fetch_sub(1, Ordering::Relaxed);
    if let Some(dump) = state.recorder.take_dump() {
        state.note_flight_dump(dump);
    }
}

/// Outcome of reading one head line under the byte budget.
enum HeadRead {
    /// A complete line (newline included) within budget.
    Line,
    /// The peer closed before a newline.
    Eof,
    /// The byte budget ran out mid-line.
    CapExceeded,
}

/// Reads one line of the request head, charging its bytes against
/// `budget` so the whole head is bounded by [`MAX_HEADER_BYTES`].
fn read_head_line(
    reader: &mut BufReader<TcpStream>,
    budget: &mut u64,
    line: &mut String,
) -> io::Result<HeadRead> {
    line.clear();
    let before = *budget;
    let n = (&mut *reader).take(before).read_line(line)? as u64;
    *budget = before.saturating_sub(n);
    if n == 0 {
        return Ok(HeadRead::Eof);
    }
    if !line.ends_with('\n') {
        return Ok(if *budget == 0 {
            HeadRead::CapExceeded
        } else {
            HeadRead::Eof
        });
    }
    Ok(HeadRead::Line)
}

/// Refuses a request before its input was fully consumed: writes the
/// error response, then briefly drains what the client already sent.
/// Closing a socket with unread bytes in its receive buffer makes the
/// kernel answer with RST, which can destroy the in-flight response
/// before the client reads it — so early refusals drain first, bounded
/// in both bytes (64 KiB) and time (a short per-read timeout).
fn refuse(
    reader: &mut BufReader<TcpStream>,
    stream: TcpStream,
    status: u16,
    reason: &str,
) -> io::Result<u16> {
    let status = respond_error(stream, status, reason)?;
    let _ = reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_millis(50)));
    let mut scratch = [0u8; 1024];
    for _ in 0..64 {
        match reader.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    Ok(status)
}

/// The canonical route label of a request — the `route` label value on
/// `otem_request_latency_seconds` and [`Event::RequestStarted`].
/// Unrecognised method/path pairs collapse to `"other"` so hostile
/// path scans cannot mint unbounded label children.
fn route_name(method: &str, path: &str) -> &'static str {
    match (method, path) {
        ("GET", "/healthz") => "/healthz",
        ("GET", "/metrics") => "/metrics",
        ("GET", "/debug/flight") => "/debug/flight",
        ("GET", "/debug/trace") => "/debug/trace",
        ("POST", "/shutdown") => "/shutdown",
        ("POST", "/simulate") => "/simulate",
        ("POST", "/plan") => "/plan",
        _ => "other",
    }
}

/// Reads the request head + body, dispatches the route, writes the
/// response. Returns the HTTP status written and the route label;
/// `Err` means the connection died mid-request (a socket deadline
/// surfaces here as `WouldBlock`/`TimedOut`).
fn handle_connection(
    state: &ServerState,
    stream: TcpStream,
    request_id: u64,
) -> io::Result<(u16, &'static str)> {
    const MALFORMED: &str = "malformed";
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut budget = MAX_HEADER_BYTES;
    let mut line = String::new();
    match read_head_line(&mut reader, &mut budget, &mut line)? {
        HeadRead::Line => {}
        HeadRead::Eof => return Ok((respond_error(stream, 400, "truncated request")?, MALFORMED)),
        HeadRead::CapExceeded => {
            return Ok((
                refuse(&mut reader, stream, 400, "request head exceeds byte cap")?,
                MALFORMED,
            ))
        }
    }
    let mut parts = line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m.to_owned(), p.to_owned()),
        _ => {
            return Ok((
                refuse(&mut reader, stream, 400, "malformed request line")?,
                MALFORMED,
            ))
        }
    };

    let mut content_length: u64 = 0;
    let mut header_count = 0usize;
    loop {
        match read_head_line(&mut reader, &mut budget, &mut line)? {
            HeadRead::Line => {}
            HeadRead::Eof => {
                return Ok((
                    respond_error(stream, 400, "truncated request head")?,
                    MALFORMED,
                ))
            }
            HeadRead::CapExceeded => {
                return Ok((
                    refuse(&mut reader, stream, 400, "request head exceeds byte cap")?,
                    MALFORMED,
                ))
            }
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        header_count += 1;
        if header_count > MAX_HEADER_COUNT {
            return Ok((
                refuse(
                    &mut reader,
                    stream,
                    400,
                    &format!("more than {MAX_HEADER_COUNT} headers"),
                )?,
                MALFORMED,
            ));
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                // A Content-Length that is not a number is a malformed
                // request, not an empty body.
                content_length = match value.trim().parse() {
                    Ok(n) => n,
                    Err(_) => {
                        return Ok((
                            refuse(&mut reader, stream, 400, "malformed Content-Length")?,
                            MALFORMED,
                        ))
                    }
                };
            }
        }
    }
    if content_length > BODY_CAP {
        return Ok((
            refuse(&mut reader, stream, 413, "request body too large")?,
            MALFORMED,
        ));
    }
    let mut body = String::new();
    reader.take(content_length).read_to_string(&mut body)?;

    let (path, query) = match path.split_once('?') {
        Some((p, q)) => (p, q),
        None => (path.as_str(), ""),
    };
    let route = route_name(&method, path);
    // The id's birth announcement: the first correlated event of the
    // request, visible to the ops sink and the flight recorder.
    state.observe_ops(Event::RequestStarted { request_id, route });
    let status = match (method.as_str(), path) {
        ("GET", "/healthz") => respond_line(stream, "{\"status\":\"ok\"}"),
        ("GET", "/metrics") => {
            let body = state.render_prometheus();
            let mut stream = stream;
            write_head_with_type(&mut stream, 200, "OK", PROMETHEUS_CONTENT_TYPE)?;
            stream.write_all(body.as_bytes())?;
            stream.flush()?;
            Ok(200)
        }
        ("GET", "/debug/flight") => flight_route(state, stream),
        ("GET", "/debug/trace") => trace_route(state, stream, query),
        ("POST", "/shutdown") => {
            state.shutdown.store(true, Ordering::SeqCst);
            // Wake the (possibly parked) accept loop so the drain starts
            // now rather than at the next organic connection.
            if let Some(addr) = state.addr.get() {
                let _ = TcpStream::connect(addr);
            }
            respond_line(stream, "{\"event\":\"shutdown\"}")
        }
        ("POST", "/simulate") => match SimulateRequest::parse(&body) {
            Ok(request) => simulate(state, stream, &request, request_id),
            Err(reason) => respond_error(stream, 400, &reason),
        },
        ("POST", "/plan") => match SimulateRequest::parse(&body) {
            Ok(SimulateRequest::Vehicle { spec, .. }) => plan(state, stream, &spec),
            Ok(SimulateRequest::Fleet { .. }) => {
                respond_error(stream, 400, "/plan takes a single-vehicle body")
            }
            Err(reason) => respond_error(stream, 400, &reason),
        },
        _ => respond_error(stream, 404, "no such route"),
    }?;
    Ok((status, route))
}

/// Serves the flight recorder: the frozen dump of the most recent
/// incident when one exists, otherwise a `flight_live` snapshot of the
/// current ring.
fn flight_route(state: &ServerState, mut stream: TcpStream) -> io::Result<u16> {
    let dump = state
        .last_dump
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    write_head(&mut stream, 200, "OK")?;
    match dump {
        Some(dump) => stream.write_all(dump.to_jsonl().as_bytes())?,
        None => {
            let entries = state.recorder.live_entries();
            writeln!(
                stream,
                "{{\"flight_live\":true,\"entries\":{}}}",
                entries.len()
            )?;
            write_entries(&mut stream, &entries)?;
        }
    }
    stream.flush()?;
    Ok(200)
}

/// Arms span sampling (`?sample=N`; `0` disarms) and streams the span
/// events the flight recorder has collected from sampled requests.
fn trace_route(state: &ServerState, mut stream: TcpStream, query: &str) -> io::Result<u16> {
    if let Some(raw) = query.split('&').find_map(|kv| kv.strip_prefix("sample=")) {
        match raw.parse::<u64>() {
            Ok(rate) => state.trace_sample.store(rate, Ordering::Relaxed),
            Err(_) => {
                return respond_error(stream, 400, "\"sample\" must be an integer (0 disables)")
            }
        }
    }
    let rate = state.trace_sample.load(Ordering::Relaxed);
    let spans: Vec<FlightEntry> = state
        .recorder
        .live_entries()
        .into_iter()
        .filter(|e| matches!(e.event, Event::SpanStart { .. } | Event::SpanEnd { .. }))
        .collect();
    write_head(&mut stream, 200, "OK")?;
    writeln!(
        stream,
        "{{\"event\":\"trace\",\"sample\":{rate},\"spans\":{}}}",
        spans.len()
    )?;
    write_entries(&mut stream, &spans)?;
    stream.flush()?;
    Ok(200)
}

/// Writes flight entries as JSONL, one object per line.
fn write_entries(stream: &mut TcpStream, entries: &[FlightEntry]) -> io::Result<()> {
    let mut line = String::with_capacity(192);
    for entry in entries {
        line.clear();
        entry.write_json(&mut line);
        writeln!(stream, "{line}")?;
    }
    Ok(())
}

/// Forwards events to a per-request sink while tallying MPC solve
/// outcomes into the registry's `(mode, outcome)` family and feeding
/// the flight recorder. `enabled` defers
/// to the inner sink (so streaming telemetry modes keep their derived
/// events) or to span sampling when `/debug/trace` armed it.
struct TallySink<'a> {
    state: &'a ServerState,
    inner: &'a dyn Sink,
}

impl Sink for TallySink<'_> {
    fn record(&self, event: Event) {
        self.state.observe(event);
        self.inner.record(event);
    }

    fn enabled(&self) -> bool {
        self.inner.enabled() || self.state.trace_sampled(current_request_id())
    }

    fn flush(&self) {
        self.inner.flush();
    }
}

/// The fleet-campaign sink: everything feeds the flight recorder and
/// the solve-outcome registry family, but only serving-layer events
/// (contained vehicle panics) reach the observational sink — fleet
/// campaigns would otherwise stream *per-step* simulation telemetry
/// into it, thousands of events per request that drown the operational
/// signal (and evict it from a bounded
/// [`otem_telemetry::MemorySink`]). `enabled` is `false` (so the
/// simulator skips building step events entirely) unless span sampling
/// selected the current request.
struct OpsSink<'a> {
    state: &'a ServerState,
}

impl Sink for OpsSink<'_> {
    fn record(&self, event: Event) {
        self.state.observe(event);
        if matches!(event, Event::PanicCaught { .. }) {
            self.state.sink.record(event);
        }
    }

    fn enabled(&self) -> bool {
        self.state.trace_sampled(current_request_id())
    }

    fn flush(&self) {
        self.state.sink.flush();
    }
}

/// The `Content-Type` of the Prometheus text exposition format v0.0.4.
const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

fn write_head_with_type(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nConnection: close\r\n\r\n"
    )
}

fn write_head(stream: &mut TcpStream, status: u16, reason: &str) -> io::Result<()> {
    write_head_with_type(stream, status, reason, "application/x-ndjson")
}

fn respond_line(mut stream: TcpStream, line: &str) -> io::Result<u16> {
    write_head(&mut stream, 200, "OK")?;
    writeln!(stream, "{line}")?;
    stream.flush()?;
    Ok(200)
}

fn status_text(status: u16) -> &'static str {
    match status {
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

fn respond_error(mut stream: TcpStream, status: u16, reason: &str) -> io::Result<u16> {
    write_head(&mut stream, status, status_text(status))?;
    writeln!(stream, "{{\"error\":{reason:?}}}")?;
    stream.flush()?;
    Ok(status)
}

/// Upper bound on concurrent [`shed_connection`] threads; past it,
/// connections are dropped without a response (under that much pressure
/// a silent close is the cheapest honest answer).
const MAX_SHEDDERS: u64 = 64;

/// Refuses one connection with the shed response *without blocking the
/// accept thread*. Closing right after the write would race the
/// client's own request bytes — data arriving at a closed socket RSTs
/// the connection, destroying the `503` before the client reads it — so
/// the response must be followed by a short drain, and that drain waits
/// on the network. A capped, short-lived, small-stack thread absorbs
/// the wait; the accept loop never does.
fn shed_connection(state: &Arc<ServerState>, stream: TcpStream) {
    if state.shedders.fetch_add(1, Ordering::Relaxed) >= MAX_SHEDDERS {
        state.shedders.fetch_sub(1, Ordering::Relaxed);
        return; // dropped: hard close
    }
    let shared = Arc::clone(state);
    let spawned = std::thread::Builder::new()
        .name("fleet-shed".to_owned())
        .stack_size(64 * 1024)
        .spawn(move || {
            let _ = respond_shed(stream);
            shared.shedders.fetch_sub(1, Ordering::Relaxed);
        });
    if spawned.is_err() {
        // The closure (and the stream with it) was dropped unrun.
        state.shedders.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The load-shed response: `503` + `retry_after_ms` hint, then a brief
/// bounded drain of the client's request so the close sends FIN, not
/// RST (see [`shed_connection`]).
fn respond_shed(mut stream: TcpStream) -> io::Result<()> {
    write_head(&mut stream, 503, status_text(503))?;
    writeln!(
        stream,
        "{{\"error\":\"overloaded\",\"retry_after_ms\":{RETRY_AFTER_MS}}}"
    )?;
    stream.flush()?;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut scratch = [0u8; 1024];
    for _ in 0..8 {
        match stream.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    Ok(())
}

fn respond_otem_error(stream: TcpStream, err: &OtemError) -> io::Result<u16> {
    respond_error(stream, 500, &err.to_string())
}

fn simulate(
    state: &ServerState,
    stream: TcpStream,
    request: &SimulateRequest,
    request_id: u64,
) -> io::Result<u16> {
    match request {
        SimulateRequest::Fleet {
            vehicles,
            seed,
            mpc_deadline_us,
            poison_id,
            ..
        } => {
            if *vehicles > state.config.max_vehicles {
                let cap = state.config.max_vehicles;
                return respond_error(stream, 400, &format!("\"vehicles\" capped at {cap}"));
            }
            let schedule = request.schedule(state.config.shards);
            let engine = FleetEngine::with_cache(schedule, Arc::clone(&state.cache));
            let mut campaign = Campaign::synthetic(*vehicles, *seed);
            if *mpc_deadline_us > 0 {
                // A request-level deadline caps every solve in the
                // campaign; the anytime solver keeps each vehicle
                // feasible, so this degrades plan quality rather than
                // dropping vehicles.
                for spec in &mut campaign.vehicles {
                    spec.mpc_deadline_us = *mpc_deadline_us;
                }
            }
            if let Some(id) = poison_id {
                // Chaos hook, validated in range by the parser: this
                // vehicle's controller panics at its second step.
                campaign.vehicles[*id as usize].poison_step = Some(1);
            }
            let ops = OpsSink { state };
            let report = engine.run_with_request(&campaign, &ops, request_id);
            state.vehicle_panics.add(report.vehicle_panics());
            let mut stream = stream;
            write_head(&mut stream, 200, "OK")?;
            // Interleave summaries and failures in id order: both lists
            // are id-sorted, so this is a linear merge and the client
            // sees exactly one line per requested vehicle.
            let mut failures = report.failures.iter().peekable();
            for s in &report.summaries {
                while let Some(f) = failures.peek() {
                    if f.id < s.id {
                        writeln!(stream, "{}", failure_line(f))?;
                        failures.next();
                    } else {
                        break;
                    }
                }
                writeln!(stream, "{}", summary_line(s))?;
            }
            for f in failures {
                writeln!(stream, "{}", failure_line(f))?;
            }
            writeln!(
                stream,
                "{{\"event\":\"fleet\",\"vehicles\":{},\"seed\":{},\
                 \"schedule\":\"{}\",\"total_steps\":{},\"wall_s\":{:.6},\
                 \"vehicles_per_sec\":{:.3},\"steps_per_sec\":{:.1},\
                 \"failures\":{},\"vehicle_panics\":{},\
                 \"latency_ms\":{{\"p50\":{:.3},\"p95\":{:.3},\"p99\":{:.3}}},\
                 \"solves\":{},\"fleet_checksum\":\"{:016x}\"}}",
                report.summaries.len(),
                seed,
                schedule.wire_name(),
                report.total_steps,
                report.wall_s,
                report.vehicles_per_sec(),
                report.steps_per_sec(),
                report.failures.len(),
                report.vehicle_panics(),
                report.latency_ms.quantile(0.50),
                report.latency_ms.quantile(0.95),
                report.latency_ms.quantile(0.99),
                outcomes_json(&report.solve_outcomes),
                report.fleet_checksum(),
            )?;
            stream.flush()?;
            Ok(200)
        }
        SimulateRequest::Vehicle { spec, telemetry } => {
            simulate_vehicle(state, stream, spec, *telemetry)
        }
    }
}

/// Runs one vehicle, optionally streaming its per-step telemetry
/// through the existing sink stack straight onto the socket, then
/// writes the summary line.
fn simulate_vehicle(
    state: &ServerState,
    mut stream: TcpStream,
    spec: &VehicleSpec,
    telemetry: Telemetry,
) -> io::Result<u16> {
    let config = spec.config();
    let trace = match state.cache.trace_for(spec) {
        Ok(t) => t,
        Err(err) => return respond_otem_error(stream, &err),
    };
    let mut controller = match spec.controller(&config) {
        Ok(c) => c,
        Err(err) => return respond_otem_error(stream, &err),
    };
    let sim = Simulator::new(&config);
    let mut builder = SummaryBuilder::new(config.dt);
    write_head(&mut stream, 200, "OK")?;

    let mut run = |sink: &dyn Sink, builder: &mut SummaryBuilder| {
        let tallied = TallySink { state, inner: sink };
        sim.run_each(controller.as_mut(), &trace, &tallied, |_, r| {
            builder.push(r)
        })
    };
    let totals = match telemetry {
        Telemetry::None => run(&NullSink, &mut builder),
        Telemetry::Jsonl => {
            let sink = JsonlSink::new(stream.try_clone()?);
            let totals = run(&sink, &mut builder);
            state.jsonl_dropped.add(sink.dropped_records());
            sink.into_inner().flush()?;
            totals
        }
        Telemetry::Chrome => {
            let sink = ChromeTraceSink::new(stream.try_clone()?);
            let totals = run(&sink, &mut builder);
            let mut w = sink.finish();
            // Chrome traces are a JSON array; terminate the line so the
            // summary below stays one-object-per-line.
            writeln!(w)?;
            totals
        }
    };
    writeln!(stream, "{}", summary_line(&builder.finish(spec.id, totals)))?;
    stream.flush()?;
    Ok(200)
}

/// The clairvoyant DP benchmark as a service: one line per step with the
/// planned ultracapacitor bus power, then the plan total.
fn plan(state: &ServerState, stream: TcpStream, spec: &VehicleSpec) -> io::Result<u16> {
    if spec.steps > PLAN_STEP_CAP {
        return respond_error(
            stream,
            400,
            &format!("/plan \"steps\" capped at {PLAN_STEP_CAP} (DP cost is per-step)"),
        );
    }
    let config = spec.config();
    let trace = match state.cache.trace_for(spec) {
        Ok(t) => t,
        Err(err) => return respond_otem_error(stream, &err),
    };
    match plan_split(&config, &trace, &PlannerConfig::default()) {
        Ok(p) => {
            let mut stream = stream;
            write_head(&mut stream, 200, "OK")?;
            for (t, cap_bus) in p.cap_bus.iter().enumerate() {
                writeln!(
                    stream,
                    "{{\"event\":\"plan_step\",\"t\":{t},\"cap_bus_w\":{:.3}}}",
                    cap_bus.value()
                )?;
            }
            writeln!(
                stream,
                "{{\"event\":\"plan\",\"steps\":{},\"energy_j\":{:.6}}}",
                p.cap_bus.len(),
                p.energy.value()
            )?;
            stream.flush()?;
            Ok(200)
        }
        Err(err) => respond_otem_error(stream, &err),
    }
}
