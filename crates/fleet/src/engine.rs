//! The batched multi-vehicle execution engine.

use crate::campaign::{
    Campaign, SolveOutcomes, SummaryBuilder, TraceCache, VehicleSpec, VehicleSummary,
};
use crate::pool::{fan_indexed_capped, fan_stealing};
use otem::mpc::Clock;
use otem::{Controller, OtemError, RunCursor, Simulator};
use otem_drivecycle::PowerTrace;
use otem_telemetry::{Event, Histogram, Sink};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How a campaign's vehicles are dispatched across workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// One worker, in campaign order — the reference path.
    Serial,
    /// Static contiguous chunking across `shards` workers
    /// ([`fan_indexed_capped`]).
    Static {
        /// Worker count (clamped to the campaign size).
        shards: usize,
    },
    /// Work-stealing atomic-cursor queue across `shards` workers
    /// ([`fan_stealing`]) — the default for heterogeneous fleets.
    WorkStealing {
        /// Worker count (clamped to the campaign size).
        shards: usize,
    },
}

impl Schedule {
    /// Wire name for reports and the serving layer.
    pub fn wire_name(self) -> &'static str {
        match self {
            Self::Serial => "serial",
            Self::Static { .. } => "static",
            Self::WorkStealing { .. } => "steal",
        }
    }
}

/// Lock-free tally of MPC solve outcomes flowing through a sink.
///
/// `enabled()` stays `false`: plain events like
/// [`Event::SolveOutcome`] are emitted unconditionally, so the tally
/// still sees every solve while call sites skip the *expensive derived*
/// telemetry (spans, per-iteration traces) exactly as with a
/// [`otem_telemetry::NullSink`]. Counter increments are commutative, so
/// campaign totals are schedule- and shard-independent.
#[derive(Debug, Default)]
pub struct OutcomeTally {
    converged: AtomicU64,
    budget_exhausted: AtomicU64,
    stalled: AtomicU64,
    non_finite: AtomicU64,
    deadline_reached: AtomicU64,
}

impl OutcomeTally {
    /// An empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a finished scope's counts (e.g. one campaign's
    /// [`FleetReport::solve_outcomes`]) into this tally.
    pub fn add(&self, counts: SolveOutcomes) {
        self.converged
            .fetch_add(counts.converged, Ordering::Relaxed);
        self.budget_exhausted
            .fetch_add(counts.budget_exhausted, Ordering::Relaxed);
        self.stalled.fetch_add(counts.stalled, Ordering::Relaxed);
        self.non_finite
            .fetch_add(counts.non_finite, Ordering::Relaxed);
        self.deadline_reached
            .fetch_add(counts.deadline_reached, Ordering::Relaxed);
    }

    /// The counts observed so far.
    pub fn snapshot(&self) -> SolveOutcomes {
        SolveOutcomes {
            converged: self.converged.load(Ordering::Relaxed),
            budget_exhausted: self.budget_exhausted.load(Ordering::Relaxed),
            stalled: self.stalled.load(Ordering::Relaxed),
            non_finite: self.non_finite.load(Ordering::Relaxed),
            deadline_reached: self.deadline_reached.load(Ordering::Relaxed),
        }
    }
}

impl Sink for OutcomeTally {
    fn record(&self, event: Event) {
        if let Event::SolveOutcome { outcome, .. } = event {
            match outcome {
                "converged" => &self.converged,
                "budget_exhausted" => &self.budget_exhausted,
                "stalled" => &self.stalled,
                "non_finite" => &self.non_finite,
                "deadline_reached" => &self.deadline_reached,
                _ => return,
            }
            .fetch_add(1, Ordering::Relaxed);
        }
    }

    fn enabled(&self) -> bool {
        false
    }
}

/// One vehicle that did not produce a summary: its simulation either
/// panicked (a software defect — contained by the engine's per-vehicle
/// `catch_unwind`) or returned a validation/synthesis error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VehicleFailure {
    /// Campaign id of the vehicle that failed.
    pub id: u64,
    /// `true` when the controller panicked (poisoned vehicle), `false`
    /// for an ordinary [`OtemError`].
    pub panicked: bool,
    /// Human-readable cause — the panic payload or error display.
    pub message: String,
}

/// The outcome of one campaign run.
#[derive(Debug)]
pub struct FleetReport {
    /// Per-vehicle summaries of the vehicles that *completed*, in
    /// campaign (id) order — identical bits for every [`Schedule`].
    pub summaries: Vec<VehicleSummary>,
    /// Vehicles that failed (panicked or errored), in campaign (id)
    /// order. Empty for healthy campaigns.
    pub failures: Vec<VehicleFailure>,
    /// Wall-clock duration of the batched run, seconds.
    pub wall_s: f64,
    /// Total control periods simulated across all vehicles.
    pub total_steps: u64,
    /// Per-vehicle simulation latency (milliseconds).
    pub latency_ms: Histogram,
    /// MPC solves by solver outcome, summed over the campaign —
    /// identical for every [`Schedule`] (counter addition commutes).
    pub solve_outcomes: SolveOutcomes,
    /// Vehicle-steps executed through the lockstep batched path (zero
    /// when [`FleetEngine::batch_lanes`] is off).
    pub batched_steps: u64,
    /// Lockstep sweeps performed (one sweep advances every live lane of
    /// one batch by one step); `batched_steps / batch_sweeps` is the
    /// mean lane occupancy.
    pub batch_sweeps: u64,
}

impl FleetReport {
    /// Vehicles simulated per wall-clock second.
    pub fn vehicles_per_sec(&self) -> f64 {
        self.summaries.len() as f64 / self.wall_s
    }

    /// Control periods simulated per wall-clock second.
    pub fn steps_per_sec(&self) -> f64 {
        self.total_steps as f64 / self.wall_s
    }

    /// XOR-fold of all per-vehicle checksums — one number that pins the
    /// whole campaign's record streams.
    pub fn fleet_checksum(&self) -> u64 {
        self.summaries.iter().fold(0, |acc, s| acc ^ s.checksum)
    }

    /// How many vehicles failed by *panicking* (as opposed to returning
    /// an ordinary error).
    pub fn vehicle_panics(&self) -> u64 {
        self.failures.iter().filter(|f| f.panicked).count() as u64
    }

    /// Mean live lanes per lockstep sweep (`0.0` when the batched path
    /// did not run). Below the configured width means partially-full
    /// batches: a drained tail chunk, or faulted lanes dropped from the
    /// lockstep set.
    pub fn mean_batch_occupancy(&self) -> f64 {
        if self.batch_sweeps == 0 {
            0.0
        } else {
            self.batched_steps as f64 / self.batch_sweeps as f64
        }
    }
}

/// Renders a `catch_unwind` payload as text — panics raised with a
/// string literal or a formatted message are recovered verbatim, any
/// other payload type gets a placeholder.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Latency histogram shape shared by the engine and the server:
/// exponential edges from 10 µs to ≈ 84 s.
pub(crate) fn latency_histogram_ms() -> Histogram {
    Histogram::exponential(0.01, 2.0, 23)
}

/// Per-vehicle solver time source for deadline-constrained OTEM
/// vehicles: called once per vehicle, before its first solve. A plain
/// `fn` pointer keeps the engine `Debug` + trivially shareable; the
/// deterministic harnesses return a fresh
/// [`otem::mpc::VirtualClock`] per vehicle (never shared — sharing
/// would order clock reads across worker threads).
pub type ClockFactory = fn(&VehicleSpec) -> Arc<dyn Clock>;

/// Runs [`Campaign`]s through long-lived scoped worker pools.
#[derive(Debug)]
pub struct FleetEngine {
    /// Dispatch discipline.
    pub schedule: Schedule,
    /// Base-trace cache shared by all workers (synthesise each standard
    /// cycle once per vehicle class, not once per vehicle). `Arc` so the
    /// serving layer can reuse one warm cache across requests.
    cache: Arc<TraceCache>,
    /// Optional per-vehicle solver clock (tests); `None` keeps the
    /// production monotonic clock.
    clock_factory: Option<ClockFactory>,
    /// Lockstep batch width: `0` (or `1`) runs one vehicle at a time
    /// per worker (the scalar path); `≥ 2` advances that many vehicles
    /// per worker in lockstep through shared step cursors. Lanes are
    /// independent closed loops, so summaries and checksums are
    /// bit-identical either way; a lane that faults mid-batch is
    /// dropped from the lockstep set and reported exactly as the
    /// scalar path would report it.
    batch_lanes: usize,
}

impl FleetEngine {
    /// An engine with the given schedule and a fresh trace cache.
    pub fn new(schedule: Schedule) -> Self {
        Self::with_cache(schedule, Arc::new(TraceCache::new()))
    }

    /// An engine sharing an existing (possibly warm) trace cache.
    pub fn with_cache(schedule: Schedule, cache: Arc<TraceCache>) -> Self {
        Self {
            schedule,
            cache,
            clock_factory: None,
            batch_lanes: 0,
        }
    }

    /// Installs a per-vehicle solver time source (builder style). See
    /// [`ClockFactory`].
    #[must_use]
    pub fn with_clock_factory(mut self, factory: ClockFactory) -> Self {
        self.clock_factory = Some(factory);
        self
    }

    /// Sets the lockstep batch width (builder style): each worker
    /// advances up to `lanes` vehicles together, one step per lane per
    /// sweep, instead of running them to completion one at a time.
    /// `0` and `1` keep the scalar path.
    #[must_use]
    pub fn with_batch_lanes(mut self, lanes: usize) -> Self {
        self.batch_lanes = lanes;
        self
    }

    /// The configured lockstep batch width (see
    /// [`FleetEngine::with_batch_lanes`]).
    pub fn batch_lanes(&self) -> usize {
        self.batch_lanes
    }

    /// Simulates one vehicle exactly as the single-vehicle path would:
    /// same config, same trace, same controller, same step loop — the
    /// records are folded into a [`VehicleSummary`] instead of retained.
    ///
    /// # Errors
    ///
    /// Propagates component validation and cycle-synthesis errors.
    pub fn run_vehicle(&self, spec: &VehicleSpec) -> Result<VehicleSummary, OtemError> {
        self.run_vehicle_with(spec, &OutcomeTally::new())
    }

    /// [`FleetEngine::run_vehicle`] with an explicit telemetry sink —
    /// the campaign path passes a shared [`OutcomeTally`] so the report
    /// can carry the fleet-wide solve-outcome distribution.
    ///
    /// # Errors
    ///
    /// Propagates component validation and cycle-synthesis errors.
    pub fn run_vehicle_with(
        &self,
        spec: &VehicleSpec,
        sink: &dyn Sink,
    ) -> Result<VehicleSummary, OtemError> {
        let config = spec.config();
        let trace = self.cache.trace_for(spec)?;
        let clock = self.clock_factory.map(|f| f(spec));
        let mut controller = spec.controller_with_clock(&config, clock)?;
        let sim = Simulator::new(&config);
        let mut builder = SummaryBuilder::new(config.dt);
        let totals = sim.run_each(controller.as_mut(), &trace, sink, |_, r| {
            builder.push(r);
        });
        Ok(builder.finish(spec.id, totals))
    }

    /// [`FleetEngine::run_vehicle_with`] with the panic boundary the
    /// campaign path relies on: a controller that panics (a poisoned
    /// vehicle, a software defect) is contained here and reported as a
    /// structured [`VehicleFailure`] instead of unwinding through the
    /// worker pool. A [`Event::PanicCaught`] (`context: "vehicle"`) is
    /// recorded on the sink for each contained panic.
    ///
    /// # Errors
    ///
    /// Returns a [`VehicleFailure`] describing the panic or the
    /// propagated [`OtemError`].
    pub fn run_vehicle_caught(
        &self,
        spec: &VehicleSpec,
        sink: &dyn Sink,
    ) -> Result<VehicleSummary, VehicleFailure> {
        // AssertUnwindSafe: on panic the closure's captures are dropped
        // wholesale — nothing observes the vehicle's torn state, and the
        // shared trace cache recovers poisoned locks by construction.
        match catch_unwind(AssertUnwindSafe(|| self.run_vehicle_with(spec, sink))) {
            Ok(Ok(summary)) => Ok(summary),
            Ok(Err(err)) => Err(VehicleFailure {
                id: spec.id,
                panicked: false,
                message: err.to_string(),
            }),
            Err(payload) => {
                sink.record(Event::PanicCaught { context: "vehicle" });
                Err(VehicleFailure {
                    id: spec.id,
                    panicked: true,
                    message: panic_message(payload.as_ref()),
                })
            }
        }
    }

    /// Runs up to one batch of vehicles in lockstep: every lane gets a
    /// step cursor ([`Simulator::cursor`]) and each sweep advances all
    /// live lanes by one closed-loop step. Lanes are fully independent
    /// (own controller, own trace, own aging integrator), so each
    /// vehicle's records, totals and checksum are **bit-identical** to
    /// [`FleetEngine::run_vehicle_caught`]'s — only the interleaving of
    /// work across lanes changes. A lane that panics or errors (at
    /// setup or mid-sweep) is contained and dropped from the lockstep
    /// set — the lane-masking rule — while the remaining lanes continue
    /// untouched; the failure record matches the scalar path's.
    ///
    /// Results come back in `specs` order, one per spec.
    pub fn run_batch_caught(
        &self,
        specs: &[VehicleSpec],
        sink: &dyn Sink,
    ) -> Vec<Result<VehicleSummary, VehicleFailure>> {
        self.run_batch_inner(specs, sink, 0, None, None)
    }

    fn run_batch_inner(
        &self,
        specs: &[VehicleSpec],
        sink: &dyn Sink,
        request_id: u64,
        latency: Option<&Histogram>,
        stats: Option<&BatchStats>,
    ) -> Vec<Result<VehicleSummary, VehicleFailure>> {
        let width = if self.batch_lanes >= 2 {
            self.batch_lanes
        } else {
            specs.len().max(1)
        } as u64;
        let t0 = Instant::now();
        let done = |slot: &mut Option<Result<VehicleSummary, VehicleFailure>>,
                    outcome: Result<VehicleSummary, VehicleFailure>| {
            if let Some(latency) = latency {
                latency.observe(t0.elapsed().as_secs_f64() * 1e3);
            }
            *slot = Some(outcome);
        };
        let mut results: Vec<Option<Result<VehicleSummary, VehicleFailure>>> =
            std::iter::repeat_with(|| None).take(specs.len()).collect();
        let mut lanes: Vec<BatchLane> = Vec::with_capacity(specs.len());
        for (slot, spec) in specs.iter().enumerate() {
            sink.record(Event::VehicleStarted {
                request_id,
                vehicle: spec.id,
            });
            // Setup panics get the same containment the scalar path's
            // whole-vehicle `catch_unwind` provides.
            match catch_unwind(AssertUnwindSafe(|| self.lane_for(slot, spec))) {
                Ok(Ok(lane)) => lanes.push(lane),
                Ok(Err(err)) => done(
                    &mut results[slot],
                    Err(VehicleFailure {
                        id: spec.id,
                        panicked: false,
                        message: err.to_string(),
                    }),
                ),
                Err(payload) => {
                    sink.record(Event::PanicCaught { context: "vehicle" });
                    done(
                        &mut results[slot],
                        Err(VehicleFailure {
                            id: spec.id,
                            panicked: true,
                            message: panic_message(payload.as_ref()),
                        }),
                    );
                }
            }
        }
        while !lanes.is_empty() {
            let mut stepped_lanes = 0u64;
            let mut live = Vec::with_capacity(lanes.len());
            for mut lane in lanes {
                let BatchLane {
                    controller,
                    trace,
                    builder,
                    cursor,
                    ..
                } = &mut lane;
                let stepped = catch_unwind(AssertUnwindSafe(|| {
                    cursor.advance(controller.as_mut(), trace, sink, |_, r| builder.push(r))
                }));
                match stepped {
                    Ok(true) => {
                        stepped_lanes += 1;
                        // Retire a drained lane now instead of letting
                        // the next sweep discover it — occupancy then
                        // counts genuine steps only.
                        if lane.cursor.steps() >= lane.trace.len() {
                            let totals = lane.cursor.finish(sink);
                            done(
                                &mut results[lane.slot],
                                Ok(lane.builder.finish(lane.id, totals)),
                            );
                        } else {
                            live.push(lane);
                        }
                    }
                    // Only an empty trace reaches a no-step retirement.
                    Ok(false) => {
                        let totals = lane.cursor.finish(sink);
                        done(
                            &mut results[lane.slot],
                            Ok(lane.builder.finish(lane.id, totals)),
                        );
                    }
                    Err(payload) => {
                        sink.record(Event::PanicCaught { context: "vehicle" });
                        done(
                            &mut results[lane.slot],
                            Err(VehicleFailure {
                                id: lane.id,
                                panicked: true,
                                message: panic_message(payload.as_ref()),
                            }),
                        );
                    }
                }
            }
            if stepped_lanes > 0 {
                sink.record(Event::BatchEvaluated {
                    lanes: stepped_lanes,
                    width,
                });
                if let Some(stats) = stats {
                    stats.sweeps.fetch_add(1, Ordering::Relaxed);
                    stats.lane_steps.fetch_add(stepped_lanes, Ordering::Relaxed);
                }
            }
            lanes = live;
        }
        results
            .into_iter()
            .map(|r| r.expect("every lane reached a terminal state"))
            .collect()
    }

    /// Builds one lockstep lane: the same config → trace → controller →
    /// simulator pipeline as [`FleetEngine::run_vehicle_with`], with
    /// the step loop suspended behind a cursor instead of run inline.
    fn lane_for(&self, slot: usize, spec: &VehicleSpec) -> Result<BatchLane, OtemError> {
        let config = spec.config();
        let trace = self.cache.trace_for(spec)?;
        let clock = self.clock_factory.map(|f| f(spec));
        let controller = spec.controller_with_clock(&config, clock)?;
        let sim = Simulator::new(&config);
        Ok(BatchLane {
            slot,
            id: spec.id,
            controller,
            trace,
            builder: SummaryBuilder::new(config.dt),
            cursor: sim.cursor(),
        })
    }

    /// Runs the whole campaign. Infallible: a vehicle that errors or
    /// panics becomes a [`FleetReport::failures`] entry while the rest
    /// of the fleet completes normally — one poisoned vehicle can no
    /// longer sink the batch.
    pub fn run(&self, campaign: &Campaign) -> FleetReport {
        self.run_with(campaign, &otem_telemetry::NullSink)
    }

    /// [`FleetEngine::run`] with an external sink that receives the
    /// engine's containment events ([`Event::PanicCaught`]) in addition
    /// to the per-solve outcome stream.
    pub fn run_with(&self, campaign: &Campaign, sink: &(dyn Sink + Sync)) -> FleetReport {
        self.run_with_request(campaign, sink, 0)
    }

    /// [`FleetEngine::run_with`] under a serving-layer correlation id:
    /// every worker enters [`otem_telemetry::request_scope`]`(request_id)`
    /// before touching a vehicle, so spans and flight-recorder entries
    /// produced inside the solve are stamped with the request that
    /// caused them, and each vehicle announces itself with
    /// [`Event::VehicleStarted`]. `request_id == 0` means "no request"
    /// (the in-process path).
    pub fn run_with_request(
        &self,
        campaign: &Campaign,
        sink: &(dyn Sink + Sync),
        request_id: u64,
    ) -> FleetReport {
        let latency = latency_histogram_ms();
        let tally = OutcomeTally::new();
        let pair = PairSink {
            tally: &tally,
            outer: sink,
        };
        let started = Instant::now();
        let job = |_i: usize, spec: &VehicleSpec| {
            // The scope is thread-local, so it must be (re-)entered
            // inside the job closure: pool workers do not inherit the
            // dispatching thread's correlation id.
            let _scope = otem_telemetry::request_scope(request_id);
            pair.record(Event::VehicleStarted {
                request_id,
                vehicle: spec.id,
            });
            let t0 = Instant::now();
            let outcome = self.run_vehicle_caught(spec, &pair);
            latency.observe(t0.elapsed().as_secs_f64() * 1e3);
            outcome
        };
        let stats = BatchStats::default();
        let outcomes: Vec<Result<VehicleSummary, VehicleFailure>> = if self.batch_lanes >= 2 {
            // Lockstep path: each job is one batch of vehicles advanced
            // together; chunks preserve campaign order, so the flattened
            // outcome vector matches the scalar path's ordering.
            let job = |_i: usize, chunk: &[VehicleSpec]| {
                let _scope = otem_telemetry::request_scope(request_id);
                self.run_batch_inner(chunk, &pair, request_id, Some(&latency), Some(&stats))
            };
            let chunks: Vec<&[VehicleSpec]> = campaign.vehicles.chunks(self.batch_lanes).collect();
            let per_chunk = match self.schedule {
                Schedule::Serial => chunks
                    .into_iter()
                    .enumerate()
                    .map(|(i, c)| job(i, c))
                    .collect::<Vec<_>>(),
                Schedule::Static { shards } => fan_indexed_capped(chunks, shards, job),
                Schedule::WorkStealing { shards } => fan_stealing(chunks, shards, job),
            };
            per_chunk.into_iter().flatten().collect()
        } else {
            let specs: Vec<&VehicleSpec> = campaign.vehicles.iter().collect();
            match self.schedule {
                Schedule::Serial => specs
                    .into_iter()
                    .enumerate()
                    .map(|(i, s)| job(i, s))
                    .collect(),
                Schedule::Static { shards } => fan_indexed_capped(specs, shards, job),
                Schedule::WorkStealing { shards } => fan_stealing(specs, shards, job),
            }
        };
        let wall_s = started.elapsed().as_secs_f64();
        let mut summaries = Vec::with_capacity(outcomes.len());
        let mut failures = Vec::new();
        for outcome in outcomes {
            match outcome {
                Ok(summary) => summaries.push(summary),
                Err(failure) => failures.push(failure),
            }
        }
        let total_steps = summaries.iter().map(|s| s.steps as u64).sum();
        FleetReport {
            summaries,
            failures,
            wall_s,
            total_steps,
            latency_ms: latency,
            solve_outcomes: tally.snapshot(),
            batched_steps: stats.lane_steps.load(Ordering::Relaxed),
            batch_sweeps: stats.sweeps.load(Ordering::Relaxed),
        }
    }
}

/// One vehicle's suspended closed loop inside a lockstep batch: its
/// controller, trace and step cursor, plus where its result goes.
struct BatchLane {
    /// Index into the batch's result vector (campaign order).
    slot: usize,
    id: u64,
    controller: Box<dyn Controller>,
    trace: PowerTrace,
    builder: SummaryBuilder,
    cursor: RunCursor,
}

/// Shared occupancy counters for one campaign run's batched path;
/// additions commute, so totals are schedule- and shard-independent.
#[derive(Default)]
struct BatchStats {
    sweeps: AtomicU64,
    lane_steps: AtomicU64,
}

/// Forwards every event to the campaign's [`OutcomeTally`] *and* an
/// external sink; `enabled` follows the external sink so the zero-cost
/// contract holds when the caller passed a
/// [`otem_telemetry::NullSink`].
struct PairSink<'a> {
    tally: &'a OutcomeTally,
    outer: &'a (dyn Sink + Sync),
}

impl std::fmt::Debug for PairSink<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PairSink").finish_non_exhaustive()
    }
}

impl Sink for PairSink<'_> {
    fn record(&self, event: Event) {
        self.tally.record(event);
        self.outer.record(event);
    }

    fn enabled(&self) -> bool {
        self.outer.enabled()
    }

    fn flush(&self) {
        self.outer.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_rates_are_consistent() {
        let engine = FleetEngine::new(Schedule::Serial);
        let campaign = Campaign::synthetic(3, 42);
        let report = engine.run(&campaign);
        assert!(report.failures.is_empty(), "healthy campaign");
        assert_eq!(report.summaries.len(), 3);
        assert_eq!(report.total_steps, campaign.total_steps());
        assert!(report.vehicles_per_sec() > 0.0);
        assert!(report.steps_per_sec() > report.vehicles_per_sec());
        assert_eq!(report.latency_ms.count(), 3);
        for (i, s) in report.summaries.iter().enumerate() {
            assert_eq!(s.id, i as u64, "campaign order preserved");
            assert!(s.energy_j > 0.0, "vehicle {i} consumed energy");
        }
    }

    #[test]
    fn schedules_agree_bit_for_bit() {
        let campaign = Campaign::synthetic(6, 7);
        let serial = FleetEngine::new(Schedule::Serial).run(&campaign);
        let stealing = FleetEngine::new(Schedule::WorkStealing { shards: 3 }).run(&campaign);
        assert_eq!(serial.summaries, stealing.summaries);
        assert_eq!(serial.fleet_checksum(), stealing.fleet_checksum());
    }

    #[test]
    fn run_with_request_announces_each_vehicle_under_the_id() {
        use otem_telemetry::MemorySink;

        let campaign = Campaign::synthetic(3, 5);
        // Roomy: the announcements arrive first and per-step events
        // must not evict them from the bounded ring.
        let sink = MemorySink::with_capacity(1 << 20);
        FleetEngine::new(Schedule::WorkStealing { shards: 2 })
            .run_with_request(&campaign, &sink, 77);
        let mut started: Vec<u64> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                Event::VehicleStarted {
                    request_id,
                    vehicle,
                } => {
                    assert_eq!(request_id, 77, "vehicle {vehicle} lost the id");
                    Some(vehicle)
                }
                _ => None,
            })
            .collect();
        started.sort_unstable();
        assert_eq!(started, [0, 1, 2], "every vehicle announced exactly once");
    }

    #[test]
    fn batched_lockstep_is_bit_identical_to_scalar() {
        let campaign = Campaign::synthetic(7, 13);
        let scalar = FleetEngine::new(Schedule::Serial).run(&campaign);
        assert_eq!(scalar.batch_sweeps, 0, "scalar path must not batch");
        for (schedule, lanes) in [
            (Schedule::Serial, 3usize),
            (Schedule::Static { shards: 2 }, 2),
            (Schedule::WorkStealing { shards: 2 }, 4),
        ] {
            let batched = FleetEngine::new(schedule)
                .with_batch_lanes(lanes)
                .run(&campaign);
            assert_eq!(
                scalar.summaries, batched.summaries,
                "lockstep perturbed results ({schedule:?}, {lanes} lanes)"
            );
            assert_eq!(scalar.fleet_checksum(), batched.fleet_checksum());
            assert_eq!(
                batched.batched_steps, batched.total_steps,
                "every step ran through the lockstep path"
            );
            assert!(batched.batch_sweeps > 0);
            let occupancy = batched.mean_batch_occupancy();
            assert!(
                occupancy > 0.0 && occupancy <= lanes as f64,
                "occupancy {occupancy} out of range"
            );
            assert_eq!(batched.latency_ms.count(), 7, "one latency per vehicle");
        }
    }

    #[test]
    fn batched_lockstep_contains_poisoned_lanes() {
        let mut campaign = Campaign::synthetic(5, 11);
        campaign.vehicles[1].poison_step = Some(1);
        let scalar = FleetEngine::new(Schedule::Serial).run(&campaign);
        let batched = FleetEngine::new(Schedule::Serial)
            .with_batch_lanes(5)
            .run(&campaign);
        assert_eq!(scalar.summaries, batched.summaries);
        assert_eq!(scalar.failures, batched.failures);
        assert!(batched.failures[0].panicked);
        assert_eq!(batched.vehicle_panics(), 1);
        // The faulted lane left the lockstep set: later sweeps run
        // below full width, so mean occupancy sits under 5.
        assert!(batched.mean_batch_occupancy() < 5.0);
    }

    #[test]
    fn run_batch_caught_matches_per_vehicle_runs() {
        let campaign = Campaign::synthetic(4, 3);
        let engine = FleetEngine::new(Schedule::Serial).with_batch_lanes(4);
        let sink = otem_telemetry::MemorySink::with_capacity(1 << 16);
        let outcomes = engine.run_batch_caught(&campaign.vehicles, &sink);
        assert_eq!(outcomes.len(), 4);
        for (spec, outcome) in campaign.vehicles.iter().zip(&outcomes) {
            let reference = engine.run_vehicle(spec).expect("healthy vehicle");
            assert_eq!(outcome.as_ref().expect("healthy lane"), &reference);
        }
        assert!(
            sink.count_kind("batch_evaluated") > 0,
            "lockstep sweeps announce occupancy"
        );
    }

    #[test]
    fn poisoned_vehicle_is_contained_and_the_rest_complete() {
        use otem_telemetry::MemorySink;

        let mut campaign = Campaign::synthetic(4, 11);
        campaign.vehicles[2].poison_step = Some(1);
        // Roomy: the other shard's per-step events must not evict the
        // containment event from the bounded ring.
        let sink = MemorySink::with_capacity(1 << 20);
        let report =
            FleetEngine::new(Schedule::WorkStealing { shards: 2 }).run_with(&campaign, &sink);
        assert_eq!(report.summaries.len(), 3, "three vehicles complete");
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].id, 2);
        assert!(report.failures[0].panicked);
        assert!(
            report.failures[0].message.contains("poison fault"),
            "panic payload recovered: {}",
            report.failures[0].message
        );
        assert_eq!(report.vehicle_panics(), 1);
        assert_eq!(sink.count_kind("panic_caught"), 1);
        assert!(
            report.summaries.iter().all(|s| s.id != 2),
            "no summary for the poisoned vehicle"
        );
        // The surviving summaries are bit-identical to a clean campaign's.
        let clean = FleetEngine::new(Schedule::Serial).run(&Campaign::synthetic(4, 11));
        for survivor in &report.summaries {
            let reference = clean
                .summaries
                .iter()
                .find(|s| s.id == survivor.id)
                .expect("clean run has every id");
            assert_eq!(
                survivor, reference,
                "containment perturbed vehicle {}",
                survivor.id
            );
        }
    }
}
