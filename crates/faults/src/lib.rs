//! Deterministic fault injection for OTEM controllers.
//!
//! Robustness claims need a repeatable adversary. This crate provides
//! one: a seeded, schedule-driven [`FaultPlan`] and a
//! [`FaultedController`] decorator that wraps **any**
//! [`otem::Controller`] and corrupts what flows into it — load spikes,
//! and a forecast that drops out, turns noisy or turns NaN — plus, as
//! one [`PlantFaults`] value handed to [`otem::Controller::inject`],
//! plant-internal degradations (stuck cooling pump, collapsed solve
//! deadline, down to a starved solver at zero nanoseconds) and the
//! battery temperature the controller reads (biased or noisy
//! thermistor). It is the one place a run's inputs are perturbed: the
//! forecast-quality ablation schedules [`FaultKind::ForecastNoise`] and
//! [`FaultKind::ForecastDropout`] here too.
//!
//! Design rules:
//!
//! * **The nominal path is untouched.** Faults live entirely in this
//!   decorator; a controller that is never wrapped runs byte-identical
//!   code to before this crate existed.
//! * **The books are the plant's.** Faults reach the controller, never
//!   the [`StepRecord`] it returns: the decorator hands the wrapped
//!   controller's record back unchanged, so route totals price what the
//!   plant did. A controller that ignores the sensor bias (the
//!   reactive baselines, which read no sensor) is unaffected by sensor
//!   faults.
//! * **Determinism.** All randomness comes from one seeded generator;
//!   the same plan over the same trace reproduces the same corruption
//!   bit-for-bit. Campaign results are therefore regression-testable.
//! * **Observability.** Every active fault on every step emits
//!   [`Event::FaultInjected`], so a telemetry stream fully reconstructs
//!   the adversary's timeline.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

use otem::{Controller, PlantFaults, StepRecord, SystemState};
use otem_telemetry::{Event, Sink};
use otem_units::{Seconds, Watts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One kind of injected degradation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Gaussian noise on the battery temperature the controller reads:
    /// one fresh draw per step, delivered with any active
    /// [`FaultKind::SensorBias`] through [`PlantFaults::sensor_bias_k`].
    SensorNoise {
        /// Standard deviation of the temperature noise (K).
        temp_sigma_k: f64,
    },
    /// Constant offset on the battery temperature the controller reads
    /// (delivered via [`PlantFaults::sensor_bias_k`]).
    SensorBias {
        /// Bias on the measured battery temperature (K).
        temp_k: f64,
    },
    /// The forecast channel goes dark: the controller sees an empty
    /// window (OTEM pads it with zero load).
    ForecastDropout,
    /// Multiplicative forecast error: every sample is scaled by
    /// `1 + σ·u` with `u` drawn uniformly from `[-1, 1)`, one fresh draw
    /// per sample per step — a route preview that is right on average
    /// but wrong by up to `σ` at any one point.
    ForecastNoise {
        /// Largest relative error of one sample (`0.1` = ±10 %).
        sigma: f64,
    },
    /// The forecast turns to garbage: every sample becomes NaN. The
    /// nastiest case — the MPC's objective turns NaN, and its solve
    /// reports `NonFinite` and returns the projected, shifted warm start.
    ForecastCorrupt,
    /// An additive load transient on top of the drive-cycle demand.
    LoadSpike {
        /// Extra bus power demanded (W; may be negative).
        power_w: f64,
    },
    /// The cooling pump sticks off ([`PlantFaults::pump_stuck`]).
    PumpStuck,
    /// The solver's wall-clock deadline collapses
    /// ([`PlantFaults::solver_deadline_ns`]) — models a throttled or
    /// overloaded control ECU. Zero nanoseconds starves the solver:
    /// every solve misses the deadline before its first iteration and
    /// returns its warm start.
    SolverDeadline {
        /// Remaining per-solve budget in nanoseconds.
        deadline_ns: u64,
    },
    /// The control stack **panics** on every step the window covers —
    /// models a software defect (unwrap on bad data, index out of
    /// bounds) rather than a physical degradation. Unlike every other
    /// fault, this one does not corrupt and continue: the wrapped
    /// controller's `step` unwinds. It exists for chaos harnesses that
    /// prove panic *containment* — the fleet engine must catch the
    /// unwind, record a structured error for the poisoned vehicle, and
    /// keep the rest of the campaign (and the serving process) alive.
    Poison,
}

impl FaultKind {
    /// Stable snake_case name, used by [`Event::FaultInjected`] and the
    /// campaign reports.
    pub fn name(self) -> &'static str {
        match self {
            Self::SensorNoise { .. } => "sensor_noise",
            Self::SensorBias { .. } => "sensor_bias",
            Self::ForecastDropout => "forecast_dropout",
            Self::ForecastNoise { .. } => "forecast_noise",
            Self::ForecastCorrupt => "forecast_corrupt",
            Self::LoadSpike { .. } => "load_spike",
            Self::PumpStuck => "pump_stuck",
            Self::SolverDeadline { .. } => "solver_deadline",
            Self::Poison => "poison",
        }
    }
}

/// A fault active over the half-open step interval `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultWindow {
    /// First step (inclusive) on which the fault is active.
    pub from: u64,
    /// First step on which it is no longer active.
    pub until: u64,
    /// What happens while it is.
    pub kind: FaultKind,
}

impl FaultWindow {
    /// Whether the window covers `step`.
    pub fn covers(&self, step: u64) -> bool {
        (self.from..self.until).contains(&step)
    }
}

/// A seeded, schedule-driven fault campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for all stochastic corruption.
    pub seed: u64,
    /// The scheduled windows.
    pub windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// An empty plan (wrapping with it is a no-op campaign).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            windows: Vec::new(),
        }
    }

    /// Schedules `kind` over `[from, until)` (builder style).
    #[must_use]
    pub fn inject(mut self, kind: FaultKind, from: u64, until: u64) -> Self {
        self.windows.push(FaultWindow { from, until, kind });
        self
    }

    /// The faults active at `step`, in schedule order.
    pub fn active(&self, step: u64) -> impl Iterator<Item = FaultKind> + '_ {
        self.windows
            .iter()
            .filter(move |w| w.covers(step))
            .map(|w| w.kind)
    }
}

/// Wraps any controller and subjects it to a [`FaultPlan`].
///
/// The decorator owns the step counter: each [`Controller::step`] /
/// [`Controller::step_with`] call advances it by one, and windows are
/// expressed in these steps.
#[derive(Debug, Clone)]
pub struct FaultedController<C: Controller> {
    inner: C,
    plan: FaultPlan,
    rng: StdRng,
    step: u64,
    /// Scratch for the corrupted forecast handed to the controller.
    scratch: Vec<Watts>,
    /// The plant faults last injected into the wrapped controller, so
    /// each change is injected once and a closed window is cleared the
    /// step after it ends.
    applied: PlantFaults,
    injections: u64,
}

impl<C: Controller> FaultedController<C> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: C, plan: FaultPlan) -> Self {
        let rng = StdRng::seed_from_u64(plan.seed);
        Self {
            inner,
            plan,
            rng,
            step: 0,
            scratch: Vec::new(),
            applied: PlantFaults::default(),
            injections: 0,
        }
    }

    /// The wrapped controller.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Consumes the decorator, returning the wrapped controller.
    pub fn into_inner(self) -> C {
        self.inner
    }

    /// Total fault-step activations so far (one per active fault per
    /// step — the number of [`Event::FaultInjected`] events emitted).
    pub fn injections(&self) -> u64 {
        self.injections
    }

    /// Injects the plant faults the schedule wants at this step when
    /// they differ from the ones last injected. The sensor error is the
    /// sum of the active biases and one noise draw per active
    /// [`FaultKind::SensorNoise`].
    fn reconcile_plant_faults(&mut self, step: u64) {
        let mut want = PlantFaults::default();
        for kind in self.plan.active(step) {
            match kind {
                FaultKind::PumpStuck => want.pump_stuck = true,
                FaultKind::SolverDeadline { deadline_ns } => {
                    want.solver_deadline_ns = Some(deadline_ns);
                }
                FaultKind::SensorBias { temp_k } => want.sensor_bias_k += temp_k,
                FaultKind::SensorNoise { temp_sigma_k } => {
                    want.sensor_bias_k += temp_sigma_k * gauss(&mut self.rng);
                }
                _ => {}
            }
        }
        if want != self.applied {
            self.inner.inject(want);
            self.applied = want;
        }
    }

    /// Applies the input-side corruption, returning the effective load
    /// and leaving the effective forecast in `self.scratch`.
    fn corrupt_inputs(&mut self, step: u64, load: Watts, forecast: &[Watts]) -> Watts {
        self.scratch.clear();
        self.scratch.extend_from_slice(forecast);
        let mut load = load;
        let mut dropout = false;
        for kind in self.plan.active(step) {
            match kind {
                FaultKind::LoadSpike { power_w } => {
                    load += Watts::new(power_w);
                }
                FaultKind::ForecastDropout => dropout = true,
                FaultKind::ForecastNoise { sigma } => {
                    for w in &mut self.scratch {
                        *w = *w * (1.0 + self.rng.gen_range(-1.0..1.0) * sigma);
                    }
                }
                FaultKind::ForecastCorrupt => {
                    for w in &mut self.scratch {
                        *w = Watts::new(f64::NAN);
                    }
                }
                _ => {}
            }
        }
        if dropout {
            self.scratch.clear();
        }
        load
    }
}

/// One standard-normal draw (Box–Muller over the seeded generator).
fn gauss(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

impl<C: Controller> Controller for FaultedController<C> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn step_with(
        &mut self,
        load: Watts,
        forecast: &[Watts],
        dt: Seconds,
        sink: &dyn Sink,
    ) -> StepRecord {
        let step = self.step;
        self.step += 1;

        for kind in self.plan.active(step) {
            self.injections += 1;
            sink.record(Event::FaultInjected {
                step,
                fault: kind.name(),
            });
        }

        // Poison unwinds *after* the injection event above, so a
        // telemetry stream still shows what killed the step.
        if self.plan.active(step).any(|k| k == FaultKind::Poison) {
            panic!("poison fault: injected controller panic at step {step}");
        }

        self.reconcile_plant_faults(step);
        let eff_load = self.corrupt_inputs(step, load, forecast);
        let scratch = std::mem::take(&mut self.scratch);
        let record = self.inner.step_with(eff_load, &scratch, dt, sink);
        self.scratch = scratch;
        record
    }

    fn state(&self) -> SystemState {
        self.inner.state()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otem::mpc::MpcConfig;
    use otem::policy::Otem;
    use otem::SystemConfig;
    use otem_telemetry::{MemorySink, NullSink};
    use otem_units::{Kelvin, Ratio};

    /// A stub controller that records exactly what it was asked to do.
    #[derive(Debug, Default)]
    struct Probe {
        loads: Vec<f64>,
        forecasts: Vec<Vec<f64>>,
        plant_faults: Vec<PlantFaults>,
    }

    impl Controller for Probe {
        fn name(&self) -> &'static str {
            "probe"
        }

        fn step_with(
            &mut self,
            load: Watts,
            forecast: &[Watts],
            _dt: Seconds,
            _sink: &dyn Sink,
        ) -> StepRecord {
            self.loads.push(load.value());
            self.forecasts
                .push(forecast.iter().map(|w| w.value()).collect());
            StepRecord {
                load,
                hees: Default::default(),
                cooling_power: Watts::ZERO,
                state: self.state(),
            }
        }

        fn state(&self) -> SystemState {
            SystemState {
                battery_temp: Kelvin::from_celsius(30.0),
                coolant_temp: Kelvin::from_celsius(29.0),
                soe: Ratio::new(0.5),
                soc: Ratio::new(0.8),
            }
        }

        fn inject(&mut self, faults: PlantFaults) {
            self.plant_faults.push(faults);
        }
    }

    fn run(plan: FaultPlan, steps: u64) -> (FaultedController<Probe>, MemorySink) {
        let mut faulted = FaultedController::new(Probe::default(), plan);
        let sink = MemorySink::new();
        let forecast = [Watts::new(10_000.0), Watts::new(20_000.0)];
        for _ in 0..steps {
            let _ = faulted.step_with(Watts::new(5_000.0), &forecast, Seconds::new(1.0), &sink);
        }
        (faulted, sink)
    }

    #[test]
    fn windows_are_half_open_and_named() {
        let w = FaultWindow {
            from: 2,
            until: 4,
            kind: FaultKind::ForecastDropout,
        };
        assert!(!w.covers(1));
        assert!(w.covers(2));
        assert!(w.covers(3));
        assert!(!w.covers(4));
        assert_eq!(FaultKind::ForecastDropout.name(), "forecast_dropout");
    }

    #[test]
    fn load_faults_reshape_the_demand() {
        let plan = FaultPlan::new(1).inject(
            FaultKind::LoadSpike {
                power_w: 1_000_000.0,
            },
            1,
            2,
        );
        let (f, sink) = run(plan, 3);
        assert_eq!(f.inner().loads[0], 5_000.0);
        assert_eq!(f.inner().loads[1], 1_005_000.0);
        assert_eq!(f.inner().loads[2], 5_000.0, "nominal after the window");
        assert_eq!(sink.count_kind("fault_injected"), 1);
        assert_eq!(f.injections(), 1);
    }

    #[test]
    fn forecast_faults_corrupt_the_window() {
        let plan = FaultPlan::new(1)
            .inject(FaultKind::ForecastNoise { sigma: 0.1 }, 0, 1)
            .inject(FaultKind::ForecastDropout, 1, 2)
            .inject(FaultKind::ForecastCorrupt, 2, 3);
        let (f, _) = run(plan, 4);
        let fc = &f.inner().forecasts;
        assert_eq!(fc[0].len(), 2);
        for (noisy, nominal) in fc[0].iter().zip([10_000.0, 20_000.0]) {
            assert!(
                noisy != &nominal && (noisy - nominal).abs() <= 0.1 * nominal,
                "{noisy} is not a ±10 % perturbation of {nominal}"
            );
        }
        assert!(fc[1].is_empty());
        assert!(fc[2].iter().all(|v| v.is_nan()));
        assert_eq!(fc[3], vec![10_000.0, 20_000.0], "nominal after the window");
    }

    #[test]
    fn plant_faults_are_idempotent_and_cleared() {
        let plan = FaultPlan::new(1).inject(FaultKind::PumpStuck, 1, 3).inject(
            FaultKind::SolverDeadline { deadline_ns: 500 },
            1,
            3,
        );
        let (f, _) = run(plan, 5);
        // One injection on entry, one clear on exit — not one per step.
        assert_eq!(
            f.inner().plant_faults,
            vec![
                PlantFaults {
                    pump_stuck: true,
                    solver_deadline_ns: Some(500),
                    sensor_bias_k: 0.0,
                },
                PlantFaults::default(),
            ]
        );
        assert_eq!(
            FaultKind::SolverDeadline { deadline_ns: 500 }.name(),
            "solver_deadline"
        );
    }

    /// A `sensor_storm`-style plan: a noisy thermistor with a bias
    /// window inside it.
    fn sensor_storm() -> FaultPlan {
        FaultPlan::new(99)
            .inject(FaultKind::SensorNoise { temp_sigma_k: 2.0 }, 0, 10)
            .inject(FaultKind::SensorBias { temp_k: -4.0 }, 4, 8)
    }

    #[test]
    fn sensor_noise_is_seed_deterministic() {
        // Sensor and forecast noise share the seeded generator, so one
        // seed pins both kinds of draw.
        let plan = sensor_storm().inject(FaultKind::ForecastNoise { sigma: 0.3 }, 0, 10);
        let draws = || {
            let mut faulted = FaultedController::new(Probe::default(), plan.clone());
            for _ in 0..10 {
                let _ = faulted.step(Watts::ZERO, &[Watts::new(1_000.0)], Seconds::new(1.0));
            }
            let probe = faulted.into_inner();
            let injected: Vec<u64> = probe
                .plant_faults
                .into_iter()
                .map(|f| {
                    assert!(!f.pump_stuck && f.solver_deadline_ns.is_none(), "{f:?}");
                    f.sensor_bias_k.to_bits()
                })
                .collect();
            let forecasts: Vec<u64> = probe.forecasts.iter().map(|w| w[0].to_bits()).collect();
            (injected, forecasts)
        };
        let (a, b) = (draws(), draws());
        assert_eq!(a, b, "same seed, same injected biases and forecasts");
        // One fresh draw per noisy step; the window closes with the run.
        for (kind, bits) in [("sensor", &a.0), ("forecast", &a.1)] {
            assert_eq!(bits.len(), 10, "{kind}");
            let draws: Vec<f64> = bits.iter().map(|&v| f64::from_bits(v)).collect();
            assert!(
                draws.windows(2).all(|w| w[0] != w[1]),
                "{kind} noise must change every step: {draws:?}"
            );
        }
    }

    #[test]
    fn sensor_faults_leave_a_refusing_controller_untouched() {
        // The probe ignores the injected sensor bias, as the reactive
        // baselines do: its records are the unwrapped probe's, bit for
        // bit.
        let mut faulted = FaultedController::new(Probe::default(), sensor_storm());
        let mut bare = Probe::default();
        let forecast = [Watts::new(10_000.0)];
        for k in 0..10 {
            let load = Watts::new(1_000.0 * k as f64);
            let a = faulted.step(load, &forecast, Seconds::new(1.0));
            let b = bare.step(load, &forecast, Seconds::new(1.0));
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "step {k}");
        }
        assert_eq!(faulted.injections(), 14);
    }

    #[test]
    fn sensor_noise_reaches_the_mpc_and_never_the_record() {
        let config = SystemConfig::stress_rig();
        let mpc = MpcConfig {
            horizon: 6,
            solver_iterations: 15,
            ..MpcConfig::default()
        };
        let otem = Otem::with_mpc(&config, mpc).expect("valid");
        let mut clean = otem.clone();
        let plan = FaultPlan::new(7).inject(FaultKind::SensorNoise { temp_sigma_k: 5.0 }, 0, 1);
        let mut noisy = FaultedController::new(otem, plan);
        let load = Watts::new(40_000.0);
        let forecast = [Watts::new(40_000.0); 5];
        let dt = Seconds::new(1.0);
        let rec = noisy.step_with(load, &forecast, dt, &NullSink);
        // The record books the plant...
        assert_eq!(
            rec.state.battery_temp.value().to_bits(),
            noisy.state().battery_temp.value().to_bits()
        );
        // ...while the MPC planned on the noisy reading.
        let reference = clean.step_with(load, &forecast, dt, &NullSink);
        assert_ne!(
            format!("{:?}", rec.hees),
            format!("{:?}", reference.hees),
            "the first move must see the noise"
        );
    }

    #[test]
    fn empty_plan_is_transparent() {
        let (f, sink) = run(FaultPlan::new(7), 5);
        assert_eq!(f.injections(), 0);
        assert_eq!(sink.count_kind("fault_injected"), 0);
        assert!(f.inner().plant_faults.is_empty());
        assert!(f.inner().loads.iter().all(|&l| l == 5_000.0));
    }

    #[test]
    fn poison_fault_panics_inside_its_window_only() {
        let plan = FaultPlan::new(0).inject(FaultKind::Poison, 2, 3);
        assert_eq!(FaultKind::Poison.name(), "poison");
        let mut faulted = FaultedController::new(Probe::default(), plan);
        for _ in 0..2 {
            faulted.step(Watts::new(1.0), &[], Seconds::new(1.0));
        }
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            faulted.step(Watts::new(1.0), &[], Seconds::new(1.0));
        }));
        assert!(caught.is_err(), "step inside the poison window must unwind");
    }
}
