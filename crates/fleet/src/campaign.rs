//! Deterministic heterogeneous vehicle campaigns.
//!
//! A campaign is a list of [`VehicleSpec`]s — each an independent
//! closed-loop simulation problem (drive cycle, vehicle class, ambient,
//! ultracapacitor sizing, management methodology, MPC tuning). Specs are
//! derived from a seed *per vehicle* ([`VehicleSpec::synthesize`]), so
//! vehicle `i` of campaign `(n, seed)` is the same vehicle for every
//! `n ≥ i` — the property that lets the determinism tests rebuild any
//! single vehicle and compare it against the fleet engine's output
//! bit for bit.

use otem::mpc::{Clock, MpcConfig};
use otem::policy::{ActiveCooling, Dual, Otem, Parallel};
use otem::{Controller, OtemError, RunTotals, SimulationResult, StepRecord, SystemConfig};
use otem_drivecycle::{standard, PowerTrace, Powertrain, StandardCycle, VehicleParams};
use otem_faults::{FaultKind, FaultPlan, FaultedController};
use otem_telemetry::Counter;
use otem_units::{Farads, Kelvin, Seconds};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// The management methodologies a fleet vehicle may run (the paper's
/// Section IV-B comparison set) — also the exhibits' methodology table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Methodology {
    /// Hard-wired parallel architecture, no management.
    Parallel,
    /// Battery-only with thermostatic active cooling.
    ActiveCooling,
    /// Dual architecture with temperature-threshold switching.
    Dual,
    /// The paper's MPC controller.
    Otem,
}

impl Methodology {
    /// All methodologies in the paper's reporting order.
    pub const ALL: [Methodology; 4] = [
        Methodology::Parallel,
        Methodology::ActiveCooling,
        Methodology::Dual,
        Methodology::Otem,
    ];

    /// Display name (the exhibits' table labels).
    pub fn name(self) -> &'static str {
        match self {
            Self::Parallel => "Parallel",
            Self::ActiveCooling => "ActiveCooling",
            Self::Dual => "Dual",
            Self::Otem => "OTEM",
        }
    }

    /// Lower-case wire name (used by the serving layer's JSON).
    pub fn wire_name(self) -> &'static str {
        match self {
            Self::Parallel => "parallel",
            Self::ActiveCooling => "active_cooling",
            Self::Dual => "dual",
            Self::Otem => "otem",
        }
    }

    /// Parses a wire name (see [`Methodology::wire_name`]).
    pub fn from_wire(name: &str) -> Option<Self> {
        Some(match name {
            "parallel" => Self::Parallel,
            "active_cooling" => Self::ActiveCooling,
            "dual" => Self::Dual,
            "otem" => Self::Otem,
            _ => return None,
        })
    }

    /// Builds this methodology's controller. `mpc` tunes an OTEM
    /// controller and `clock`, when given, replaces its solver's
    /// monotonic time source; the reactive baselines ignore both.
    ///
    /// # Errors
    ///
    /// Propagates component validation errors.
    pub fn controller(
        self,
        config: &SystemConfig,
        mpc: MpcConfig,
        clock: Option<Arc<dyn Clock>>,
    ) -> Result<Box<dyn Controller>, OtemError> {
        Ok(match self {
            Self::Parallel => Box::new(Parallel::new(config)?),
            Self::ActiveCooling => Box::new(ActiveCooling::new(config)?),
            Self::Dual => Box::new(Dual::new(config)?),
            Self::Otem => {
                let mut otem = Otem::with_mpc(config, mpc)?;
                if let Some(clock) = clock {
                    otem.set_solver_clock(clock);
                }
                Box::new(otem)
            }
        })
    }
}

/// One vehicle's complete simulation problem.
#[derive(Debug, Clone, PartialEq)]
pub struct VehicleSpec {
    /// Campaign-unique vehicle id.
    pub id: u64,
    /// Drive cycle the route is cut from.
    pub cycle: StandardCycle,
    /// Route length in control periods (the trace cycles through the
    /// base cycle when longer than one lap).
    pub steps: usize,
    /// `true` → compact city EV; `false` → midsize EV.
    pub compact: bool,
    /// Ambient (and initial) temperature, °C.
    pub ambient_c: f64,
    /// Ultracapacitor bank size, F (the paper's 5,000–25,000 F span).
    pub capacitance_f: f64,
    /// Management methodology.
    pub methodology: Methodology,
    /// MPC horizon (OTEM vehicles only).
    pub mpc_horizon: usize,
    /// MPC per-period solver iteration budget (OTEM vehicles only).
    pub mpc_iterations: usize,
    /// Per-solve wall-clock deadline in microseconds (OTEM vehicles
    /// only; `0` = no deadline). Non-zero values make each MPC solve
    /// *anytime*: it returns its best feasible iterate when the budget
    /// expires instead of running to tolerance.
    pub mpc_deadline_us: u64,
    /// Chaos hook: make this vehicle's controller **panic** at the
    /// given step ([`otem_faults::FaultKind::Poison`]). `None` (always
    /// the case for synthetic campaigns) leaves the controller
    /// untouched — the nominal path never pays for the hook. The fleet
    /// engine must contain the unwind: the campaign completes with a
    /// structured error record for this vehicle.
    pub poison_step: Option<u64>,
}

impl VehicleSpec {
    /// Deterministically derives vehicle `id` of the campaign family
    /// `seed`. Independent of campaign size: the spec depends only on
    /// `(id, seed)`.
    pub fn synthesize(id: u64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let cycle = StandardCycle::ALL[rng.gen_range(0usize..StandardCycle::ALL.len())];
        let steps = rng.gen_range(60usize..=360);
        let compact = rng.next_u64() & 1 == 1;
        let ambient_c = rng.gen_range(15.0..=35.0);
        let capacitance_f = rng.gen_range(5_000.0..=25_000.0);
        // Weighted methodology mix: the MPC vehicles are 2–3 orders of
        // magnitude more expensive per step than the reactive baselines,
        // so a fleet that is 10 % OTEM already spends most of its CPU in
        // the solver — a realistic serving mix that still exercises the
        // full stack.
        let methodology = match rng.next_f64() {
            x if x < 0.30 => Methodology::Parallel,
            x if x < 0.60 => Methodology::ActiveCooling,
            x if x < 0.90 => Methodology::Dual,
            _ => Methodology::Otem,
        };
        let mpc_horizon = rng.gen_range(6usize..=12);
        // Budget sized for the default adjoint gradient, which sweeps
        // the tape of the line search's accepted trial, so an iteration
        // costs one forward pass per trial: 1.29 trials per search on
        // the benchmark's `mpc_loop`, 1.60 on `fleet_mix`. Last draw, so
        // no field above depends on it.
        let mpc_iterations = rng.gen_range(16usize..=32);
        Self {
            id,
            cycle,
            steps,
            compact,
            ambient_c,
            capacitance_f,
            methodology,
            mpc_horizon,
            mpc_iterations,
            // Synthetic campaigns carry no deadline (keeps every
            // historical campaign checksum bit-identical); deadlines
            // arrive via explicit specs or the serving layer's
            // `mpc_deadline_us` request field.
            mpc_deadline_us: 0,
            poison_step: None,
        }
    }

    /// The vehicle's system configuration.
    pub fn config(&self) -> SystemConfig {
        SystemConfig::with_capacitance(Farads::new(self.capacitance_f))
            .with_ambient(Kelvin::from_celsius(self.ambient_c))
    }

    /// Builds the vehicle's controller.
    ///
    /// # Errors
    ///
    /// Propagates component validation errors.
    pub fn controller(&self, config: &SystemConfig) -> Result<Box<dyn Controller>, OtemError> {
        self.controller_with_clock(config, None)
    }

    /// [`VehicleSpec::controller`] with an explicit solver time source
    /// for OTEM vehicles. Deterministic harnesses pass a
    /// [`otem::mpc::VirtualClock`] per vehicle so deadline-constrained
    /// solves are bit-reproducible regardless of host load or shard
    /// count; `None` keeps the production monotonic clock.
    ///
    /// # Errors
    ///
    /// Propagates component validation errors.
    pub fn controller_with_clock(
        &self,
        config: &SystemConfig,
        clock: Option<Arc<dyn Clock>>,
    ) -> Result<Box<dyn Controller>, OtemError> {
        let mpc = MpcConfig {
            horizon: self.mpc_horizon,
            solver_iterations: self.mpc_iterations,
            deadline_ns: (self.mpc_deadline_us > 0)
                .then(|| self.mpc_deadline_us.saturating_mul(1_000)),
            ..MpcConfig::default()
        };
        let inner = self.methodology.controller(config, mpc, clock)?;
        Ok(match self.poison_step {
            // The decorator only exists on poisoned vehicles, so the
            // nominal path stays byte-identical to the pre-hook code.
            Some(step) => Box::new(FaultedController::new(
                inner,
                FaultPlan::new(0).inject(FaultKind::Poison, step, step.saturating_add(1)),
            )),
            None => inner,
        })
    }
}

/// Count of MPC solves by [`otem_solver` outcome](otem::mpc), summed
/// over whatever scope holds it (one vehicle, a campaign, a benchmark's
/// timed solves). Addition is commutative, so campaign-level totals are
/// identical for every schedule and shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveOutcomes {
    /// Solves that met the convergence tolerance.
    pub converged: u64,
    /// Solves that ran out of their iteration budget.
    pub budget_exhausted: u64,
    /// Solves whose line search stalled on numerically flat terrain.
    pub stalled: u64,
    /// Solves that hit a non-finite objective or gradient.
    pub non_finite: u64,
    /// Anytime solves cut off by the wall-clock deadline.
    pub deadline_reached: u64,
}

impl SolveOutcomes {
    /// Total solves observed.
    pub fn total(&self) -> u64 {
        self.converged
            + self.budget_exhausted
            + self.stalled
            + self.non_finite
            + self.deadline_reached
    }
}

/// Caches the base power trace per `(cycle, vehicle class)` so a
/// 100k-vehicle campaign synthesises each standard cycle once, not 100k
/// times. Vehicle traces are deterministic slices of the cached base —
/// the cache is an optimisation, never a behaviour change.
#[derive(Debug, Default)]
pub struct TraceCache {
    base: Mutex<HashMap<(StandardCycle, bool), Arc<PowerTrace>>>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
}

impl TraceCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache whose hit/miss counters are the given handles —
    /// typically children of a
    /// [`otem_telemetry::MetricsRegistry`], so cache effectiveness
    /// shows up on `/metrics` without a separate read path.
    pub fn with_metrics(hits: Arc<Counter>, misses: Arc<Counter>) -> Self {
        Self {
            base: Mutex::default(),
            hits,
            misses,
        }
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookups that had to synthesise the base trace (including lost
    /// cold-key races, which each cost one redundant synthesis).
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// The spec's power trace: the base cycle's trace for the spec's
    /// vehicle class, cycled to exactly `spec.steps` samples.
    ///
    /// # Errors
    ///
    /// Propagates cycle-synthesis and vehicle validation errors.
    pub fn trace_for(&self, spec: &VehicleSpec) -> Result<PowerTrace, OtemError> {
        let key = (spec.cycle, spec.compact);
        let base = {
            // `into_inner` on poison: the map is only ever observed
            // between complete insertions (the synthesis happens outside
            // the lock), so a worker that panicked while holding the
            // guard leaves a valid cache — recovering it keeps one
            // poisoned vehicle from starving the rest of the fleet.
            let cached = self
                .base
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get(&key)
                .cloned();
            match cached {
                Some(b) => {
                    self.hits.inc();
                    b
                }
                None => {
                    self.misses.inc();
                    // Synthesise outside the lock: cycle synthesis is
                    // milliseconds, and concurrent workers hitting a cold
                    // key would serialise behind it. A lost race costs one
                    // redundant synthesis of a deterministic trace.
                    let cycle = standard(spec.cycle)?;
                    let params = if spec.compact {
                        VehicleParams::compact_ev()
                    } else {
                        VehicleParams::midsize_ev()
                    };
                    let trace = Arc::new(Powertrain::new(params)?.power_trace(&cycle));
                    self.base
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .entry(key)
                        .or_insert(trace)
                        .clone()
                }
            }
        };
        let samples = base
            .samples()
            .iter()
            .copied()
            .cycle()
            .take(spec.steps)
            .collect();
        Ok(PowerTrace::new(base.dt(), samples))
    }
}

/// A list of vehicles to simulate.
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    /// Seed the specs were derived from.
    pub seed: u64,
    /// The vehicles, in id order.
    pub vehicles: Vec<VehicleSpec>,
}

impl Campaign {
    /// A deterministic heterogeneous campaign of `n` vehicles.
    pub fn synthetic(n: usize, seed: u64) -> Self {
        Self {
            seed,
            vehicles: (0..n as u64)
                .map(|id| VehicleSpec::synthesize(id, seed))
                .collect(),
        }
    }

    /// Total control periods across the whole campaign.
    pub fn total_steps(&self) -> u64 {
        self.vehicles.iter().map(|v| v.steps as u64).sum()
    }
}

/// Scalar per-vehicle outcome, cheap enough to keep 100k of.
///
/// `checksum` folds **every field of every step record** (bit patterns,
/// in step order) through FNV-1a, so two summaries are equal only if
/// the underlying record streams are bit-identical — the fleet
/// determinism pin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VehicleSummary {
    /// Vehicle id.
    pub id: u64,
    /// Steps simulated.
    pub steps: usize,
    /// HEES energy consumed over the route (J) — the paper's `Energy`.
    pub energy_j: f64,
    /// Energy drawn by active cooling (J).
    pub cooling_j: f64,
    /// Accumulated capacity loss (fraction) — the paper's `Q_loss`.
    pub capacity_loss: f64,
    /// Peak battery temperature (K).
    pub peak_temp_k: f64,
    /// Unserved load energy (J).
    pub shortfall_j: f64,
    /// FNV-1a digest over the full per-step record stream.
    pub checksum: u64,
}

/// Folds a stream of [`StepRecord`]s into a [`VehicleSummary`]'s
/// checksum; the summary's totals are the run's [`RunTotals`], copied.
///
/// Both execution paths build summaries through this one type — the
/// fleet engine from [`otem::Simulator::run_each`]'s streamed records,
/// the determinism tests from a retained
/// [`SimulationResult`] — so equal summaries certify equal record
/// streams, not merely equal totals.
#[derive(Debug, Clone)]
pub struct SummaryBuilder {
    checksum: u64,
}

impl SummaryBuilder {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x1000_0000_01b3;

    /// An empty accumulator. The control period is not read: the run's
    /// totals come from its ledger. The parameter stays for the callers
    /// that pass it.
    pub fn new(_dt: Seconds) -> Self {
        Self {
            checksum: Self::FNV_OFFSET,
        }
    }

    fn fold(&mut self, bits: u64) {
        self.checksum ^= bits;
        self.checksum = self.checksum.wrapping_mul(Self::FNV_PRIME);
    }

    /// Folds one step record into the checksum.
    pub fn push(&mut self, r: &StepRecord) {
        for bits in [
            r.load.value().to_bits(),
            r.hees.delivered.value().to_bits(),
            r.hees.shortfall.value().to_bits(),
            r.hees.battery_internal.value().to_bits(),
            r.hees.cap_internal.value().to_bits(),
            r.hees.battery_heat.value().to_bits(),
            r.hees.battery_c_rate.to_bits(),
            r.hees.converter_loss.value().to_bits(),
            r.cooling_power.value().to_bits(),
            r.state.battery_temp.value().to_bits(),
            r.state.coolant_temp.value().to_bits(),
            r.state.soc.value().to_bits(),
            r.state.soe.value().to_bits(),
        ] {
            self.fold(bits);
        }
    }

    /// Finishes the summary with the run's totals.
    pub fn finish(self, id: u64, totals: RunTotals) -> VehicleSummary {
        VehicleSummary {
            id,
            steps: totals.steps,
            energy_j: totals.energy.value(),
            cooling_j: totals.cooling_energy.value(),
            capacity_loss: totals.capacity_loss,
            peak_temp_k: totals.peak_battery_temp.value(),
            shortfall_j: totals.shortfall_energy.value(),
            checksum: self.checksum,
        }
    }

    /// Summarises a retained single-vehicle [`SimulationResult`] — the
    /// reference path the determinism tests compare the engine against.
    pub fn from_result(id: u64, result: &SimulationResult) -> VehicleSummary {
        let mut b = Self::new(result.dt);
        for r in &result.records {
            b.push(r);
        }
        b.finish(id, result.totals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_depend_only_on_id_and_seed() {
        let a = Campaign::synthetic(4, 7);
        let b = Campaign::synthetic(32, 7);
        assert_eq!(a.vehicles[..], b.vehicles[..4], "prefix-stable");
        let c = Campaign::synthetic(4, 8);
        assert_ne!(a.vehicles, c.vehicles, "seed matters");
    }

    #[test]
    fn synthesized_specs_build_valid_systems() {
        for v in &Campaign::synthetic(24, 42).vehicles {
            let config = v.config();
            config
                .validate()
                .unwrap_or_else(|e| panic!("vehicle {}: {e}", v.id));
            v.controller(&config)
                .unwrap_or_else(|e| panic!("vehicle {}: {e}", v.id));
            assert!((60..=360).contains(&v.steps));
            assert!((15.0..=35.0).contains(&v.ambient_c));
        }
    }

    #[test]
    fn campaign_mixes_methodologies() {
        let campaign = Campaign::synthetic(200, 1);
        let otem = campaign
            .vehicles
            .iter()
            .filter(|v| v.methodology == Methodology::Otem)
            .count();
        assert!(otem > 0 && otem < 60, "≈10 % OTEM, got {otem}/200");
    }

    /// Fleet OTEM vehicles solve with the adjoint gradient and report
    /// it as the `mode` label of every solve outcome.
    #[test]
    fn synthesized_otem_vehicles_report_the_adjoint_mode() {
        use otem_telemetry::{Event, MemorySink};
        use otem_units::Watts;

        let otem: Vec<VehicleSpec> = Campaign::synthetic(200, 1)
            .vehicles
            .into_iter()
            .filter(|v| v.methodology == Methodology::Otem)
            .take(3)
            .collect();
        assert!(!otem.is_empty(), "campaign has OTEM vehicles");
        for spec in &otem {
            assert!((16..=32).contains(&spec.mpc_iterations), "{spec:?}");
            let config = spec.config();
            let mut controller = spec.controller(&config).expect("valid");
            let sink = MemorySink::with_capacity(1 << 16);
            let forecast = vec![Watts::new(20_000.0); spec.mpc_horizon];
            controller.step_with(Watts::new(20_000.0), &forecast, Seconds::new(1.0), &sink);
            let modes: Vec<&str> = sink
                .events()
                .into_iter()
                .filter_map(|e| match e {
                    Event::SolveOutcome { mode, .. } => Some(mode),
                    _ => None,
                })
                .collect();
            assert_eq!(modes, ["adjoint"], "vehicle {}", spec.id);
        }
    }

    #[test]
    fn trace_cache_slices_are_deterministic_and_sized() {
        let cache = TraceCache::new();
        let spec = VehicleSpec::synthesize(3, 42);
        let a = cache.trace_for(&spec).expect("trace");
        let b = cache.trace_for(&spec).expect("trace");
        assert_eq!(a.samples(), b.samples());
        assert_eq!(a.len(), spec.steps);
    }

    #[test]
    fn trace_cache_counts_hits_and_misses_on_shared_handles() {
        let hits = Arc::new(Counter::new());
        let misses = Arc::new(Counter::new());
        let cache = TraceCache::with_metrics(Arc::clone(&hits), Arc::clone(&misses));
        let spec = VehicleSpec::synthesize(3, 42);
        cache.trace_for(&spec).expect("trace");
        cache.trace_for(&spec).expect("trace");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(
            (hits.get(), misses.get()),
            (1, 1),
            "the external handles observe the same counts"
        );
    }

    #[test]
    fn trace_longer_than_one_lap_cycles_the_base() {
        let cache = TraceCache::new();
        let mut spec = VehicleSpec::synthesize(0, 9);
        spec.cycle = StandardCycle::Nycc; // 598 s base
        spec.steps = 700;
        let t = cache.trace_for(&spec).expect("trace");
        assert_eq!(t.len(), 700);
        assert_eq!(t.get(598 + 5), t.get(5), "wraps onto the base trace");
    }

    #[test]
    fn methodology_wire_names_round_trip() {
        for m in Methodology::ALL {
            assert_eq!(Methodology::from_wire(m.wire_name()), Some(m));
        }
        assert_eq!(Methodology::from_wire("nope"), None);
    }

    #[test]
    fn checksum_distinguishes_different_record_streams() {
        use otem::policy::{Dual, Parallel};
        use otem::Simulator;
        let cache = TraceCache::new();
        let spec = VehicleSpec::synthesize(1, 42);
        let config = spec.config();
        let trace = cache.trace_for(&spec).expect("trace");
        let sim = Simulator::new(&config);
        let mut a = Parallel::new(&config).expect("valid");
        let mut b = Dual::new(&config).expect("valid");
        let ra = SummaryBuilder::from_result(1, &sim.run(&mut a, &trace));
        let rb = SummaryBuilder::from_result(1, &sim.run(&mut b, &trace));
        assert_ne!(ra.checksum, rb.checksum);
    }
}
