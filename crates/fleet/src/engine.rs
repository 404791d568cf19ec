//! The batched multi-vehicle execution engine.

use crate::campaign::{
    Campaign, SolveOutcomes, SummaryBuilder, TraceCache, VehicleSpec, VehicleSummary,
};
use crate::pool::{fan_indexed_capped, fan_stealing};
use otem::mpc::Clock;
use otem::{OtemError, Simulator};
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
    /// Wall-clock duration of the campaign run, seconds.
    pub wall_s: f64,
    /// Total control periods simulated across all vehicles.
    pub total_steps: u64,
    /// Per-vehicle simulation latency (milliseconds).
    pub latency_ms: Histogram,
    /// MPC solves by solver outcome, summed over the campaign —
    /// identical for every [`Schedule`] (counter addition commutes).
    pub solve_outcomes: SolveOutcomes,
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
        }
    }

    /// Installs a per-vehicle solver time source (builder style). See
    /// [`ClockFactory`].
    #[must_use]
    pub fn with_clock_factory(mut self, factory: ClockFactory) -> Self {
        self.clock_factory = Some(factory);
        self
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
        // Exponential edges from 10 µs to ≈ 84 s.
        let latency = Histogram::exponential(0.01, 2.0, 23);
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
        let specs: Vec<&VehicleSpec> = campaign.vehicles.iter().collect();
        let outcomes: Vec<Result<VehicleSummary, VehicleFailure>> = match self.schedule {
            Schedule::Serial => specs
                .into_iter()
                .enumerate()
                .map(|(i, s)| job(i, s))
                .collect(),
            Schedule::Static { shards } => fan_indexed_capped(specs, shards, job),
            Schedule::WorkStealing { shards } => fan_stealing(specs, shards, job),
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
        }
    }
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
