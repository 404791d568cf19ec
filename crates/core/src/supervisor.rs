//! Graceful degradation for the OTEM MPC: a supervisor that validates
//! every optimiser decision and every post-step plant state, swaps in a
//! rule-based fallback when the optimiser misbehaves, and re-arms the
//! MPC once it proves healthy again.
//!
//! # Why
//!
//! The MPC is the paper's contribution, but it is also the system's
//! least robust component: a corrupted forecast, a starved solver or a
//! drifted sensor can make it emit NaN costs, saturated nonsense
//! commands, or plans computed against a plant that no longer exists.
//! An EV cannot stop driving because its optimiser did — the paper's
//! own baselines show that a dumb thermostatic rule keeps the pack
//! alive, just sub-optimally. The supervisor encodes exactly that
//! degradation ladder:
//!
//! 1. **Validate** each [`MpcDecision`] (finite, in actuator bounds,
//!    solver outcome usable) before it touches the plant, and each
//!    post-step [`SystemState`] (finite, physical temperatures, SoC/SoE
//!    in `[0, 1]`) after it did.
//! 2. **Reject & fall back**: a failed check disengages the MPC and
//!    routes the same plant through a thermostatic rule on the Dual
//!    baseline's band (33 °C / 31 °C cooling hysteresis, slow bank
//!    recharge) via [`Otem::apply_with`] — physically identical steps,
//!    dumber numbers.
//! 3. **Re-arm with backoff**: after a cooldown the supervisor probes
//!    the MPC each period without applying its output; `REARM_AFTER`
//!    consecutive healthy probes re-engage it. Every new rejection
//!    doubles the cooldown up to `MAX_BACKOFF`.
//!
//! On a healthy trajectory the supervisor is exact: it calls
//! [`Otem::plan_with`] then [`Otem::apply_with`], which is definitionally
//! [`Otem::step_with`], so supervised and unsupervised nominal traces are
//! bit-identical (pinned by the golden-trace suite).
//!
//! Telemetry: [`Event::DecisionRejected`], [`Event::FallbackEngaged`]
//! and [`Event::MpcRearmed`] narrate the ladder.

use crate::controller::{Controller, PlantFault, StepRecord, SystemState};
use crate::error::OtemError;
use crate::mpc::MpcDecision;
use crate::policy::dual::{COOL_THRESHOLD, HOT_THRESHOLD, RECHARGE_POWER, RECHARGE_TARGET};
use crate::policy::Otem;
use otem_solver::SolverOutcome;
use otem_telemetry::{span, Event, Sink};
use otem_units::{Kelvin, Seconds, Watts};

/// Hard ceiling on a *plausible* battery temperature: anything above is
/// a broken model or runaway plant, not weather.
pub const TEMP_HARD_MAX: Kelvin = Kelvin::from_celsius(60.0);
/// Hard floor on a plausible battery temperature.
const TEMP_HARD_MIN: Kelvin = Kelvin::from_celsius(-30.0);
/// Consecutive healthy MPC probes required to re-arm after a fallback
/// episode.
const REARM_AFTER: u64 = 5;
/// Cooldown (steps of pure fallback, no probing) after the first
/// rejection; doubles per episode.
const INITIAL_BACKOFF: u64 = 4;
/// Ceiling on the cooldown growth.
const MAX_BACKOFF: u64 = 64;

/// Slack on the `[0, 1]` SoC/SoE checks and the unit-interval duty
/// check: the integrators legitimately overshoot by rounding error.
const UNIT_EPS: f64 = 1e-6;

/// Checks an optimiser decision before it is allowed to actuate the
/// plant.
///
/// # Errors
///
/// [`OtemError::NonFinite`] when a commanded quantity is NaN/infinite;
/// [`OtemError::Solver`] when a command leaves its actuator bounds or
/// the solver outcome is structurally unusable (`non_finite` outcome, or
/// a zero-iteration budget exhaustion / deadline miss — the starved- or
/// throttled-solver signatures, where the "solution" is just the warm
/// start echoed back). A deadline reached *after* at least one
/// iteration is nominal anytime behaviour: the decision is the best
/// feasible iterate so far and passes.
pub fn validate_decision(decision: &MpcDecision, cap_power_max: Watts) -> Result<(), OtemError> {
    if !decision.cap_bus.is_finite() {
        return Err(OtemError::NonFinite {
            quantity: "cap_bus",
        });
    }
    if !decision.cool_duty.is_finite() {
        return Err(OtemError::NonFinite {
            quantity: "cool_duty",
        });
    }
    if !decision.cost.is_finite() {
        return Err(OtemError::NonFinite { quantity: "cost" });
    }
    if decision.cap_bus.value().abs() > cap_power_max.value() * (1.0 + UNIT_EPS) {
        return Err(OtemError::Solver {
            reason: "cap_bus_out_of_bounds",
        });
    }
    if !(-UNIT_EPS..=1.0 + UNIT_EPS).contains(&decision.cool_duty) {
        return Err(OtemError::Solver {
            reason: "cool_duty_out_of_bounds",
        });
    }
    if decision.outcome == SolverOutcome::NonFinite {
        return Err(OtemError::Solver {
            reason: "solver_non_finite",
        });
    }
    if decision.iterations == 0 && decision.outcome == SolverOutcome::BudgetExhausted {
        return Err(OtemError::Solver {
            reason: "solver_starved",
        });
    }
    if decision.iterations == 0 && decision.outcome == SolverOutcome::DeadlineReached {
        return Err(OtemError::Solver {
            reason: "solver_deadline",
        });
    }
    Ok(())
}

/// Checks the plant state after a step: everything finite, temperatures
/// physically plausible, SoC/SoE inside the unit interval.
///
/// # Errors
///
/// [`OtemError::NonFinite`] / [`OtemError::Solver`] naming the failed
/// quantity or bound.
pub fn validate_state(state: &SystemState) -> Result<(), OtemError> {
    if !state.battery_temp.value().is_finite() {
        return Err(OtemError::NonFinite {
            quantity: "battery_temp",
        });
    }
    if !state.coolant_temp.value().is_finite() {
        return Err(OtemError::NonFinite {
            quantity: "coolant_temp",
        });
    }
    if !state.soc.value().is_finite() {
        return Err(OtemError::NonFinite { quantity: "soc" });
    }
    if !state.soe.value().is_finite() {
        return Err(OtemError::NonFinite { quantity: "soe" });
    }
    if state.battery_temp > TEMP_HARD_MAX || state.battery_temp < TEMP_HARD_MIN {
        return Err(OtemError::Solver {
            reason: "battery_temp_out_of_bounds",
        });
    }
    let unit = -UNIT_EPS..=1.0 + UNIT_EPS;
    if !unit.contains(&state.soc.value()) {
        return Err(OtemError::Solver {
            reason: "soc_out_of_bounds",
        });
    }
    if !unit.contains(&state.soe.value()) {
        return Err(OtemError::Solver {
            reason: "soe_out_of_bounds",
        });
    }
    Ok(())
}

/// Stable snake_case token for a validation failure, mirrored into
/// [`Event::DecisionRejected`].
fn reject_reason(error: &OtemError) -> &'static str {
    match error {
        OtemError::Solver { reason } => reason,
        OtemError::NonFinite { quantity } => quantity,
        _ => "invalid",
    }
}

/// [`Otem`] wrapped in the degradation ladder described at the module
/// level. Implements [`Controller`], so it drops into the simulator and
/// the experiment tables anywhere plain OTEM does.
#[derive(Debug, Clone)]
pub struct SupervisedOtem {
    inner: Otem,
    step: u64,
    armed: bool,
    /// Remaining pure-fallback steps before probing resumes.
    cooldown: u64,
    /// Cooldown length the *next* episode will start with.
    backoff: u64,
    healthy_streak: u64,
    fallback_cooling: bool,
    rejected: u64,
    fallbacks: u64,
    rearms: u64,
}

impl SupervisedOtem {
    /// Wraps an OTEM controller in the degradation ladder.
    pub fn new(inner: Otem) -> Self {
        Self {
            inner,
            step: 0,
            armed: true,
            cooldown: 0,
            backoff: INITIAL_BACKOFF,
            healthy_streak: 0,
            fallback_cooling: false,
            rejected: 0,
            fallbacks: 0,
            rearms: 0,
        }
    }

    /// Whether the MPC currently drives the plant (vs the fallback).
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// Decisions rejected by validation so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Fallback episodes engaged so far.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }

    /// Times the MPC was re-armed after proving healthy.
    pub fn rearms(&self) -> u64 {
        self.rearms
    }

    /// The wrapped controller.
    pub fn inner(&self) -> &Otem {
        &self.inner
    }

    fn engage_fallback(&mut self, step: u64, sink: &dyn Sink) {
        self.fallbacks += 1;
        self.armed = false;
        self.healthy_streak = 0;
        self.cooldown = self.backoff;
        sink.record(Event::FallbackEngaged {
            step,
            backoff_steps: self.backoff,
        });
        self.backoff = (self.backoff * 2).min(MAX_BACKOFF);
        // Whatever the MPC planned before failing was planned under
        // fault; do not let it warm-start the re-armed solves.
        self.inner.reset_mpc();
    }

    fn reject(&mut self, error: &OtemError, step: u64, sink: &dyn Sink) {
        self.rejected += 1;
        sink.record(Event::DecisionRejected {
            step,
            reason: reject_reason(error),
        });
        self.engage_fallback(step, sink);
    }

    /// The thermostatic command on the wrapped plant, on the Dual
    /// baseline's band: hysteretic full cooling, slow bank recharge while
    /// below target.
    fn fallback_step(&mut self, load: Watts, dt: Seconds, sink: &dyn Sink) -> StepRecord {
        // Degraded-time accounting: every period the rule-based fallback
        // drives the plant is wrapped in this span, so fault campaigns
        // can report *time spent degraded* straight from the trace.
        let _fallback_span = span(sink, "supervisor_fallback");
        let measured = self.inner.state();
        if measured.battery_temp >= HOT_THRESHOLD {
            self.fallback_cooling = true;
        } else if measured.battery_temp <= COOL_THRESHOLD {
            self.fallback_cooling = false;
        }
        let duty = if self.fallback_cooling { 1.0 } else { 0.0 };
        let cap_bus = if measured.soe < RECHARGE_TARGET && load.value() >= 0.0 {
            Watts::new(-RECHARGE_POWER.value())
        } else {
            Watts::ZERO
        };
        self.inner.apply_with(load, cap_bus, duty, dt, sink)
    }

    /// Post-step state check; a violation engages the fallback for the
    /// *next* steps (the physics of this one already happened).
    fn check_state(&mut self, record: StepRecord, step: u64, sink: &dyn Sink) -> StepRecord {
        if let Err(e) = validate_state(&record.state) {
            if self.armed {
                self.reject(&e, step, sink);
            }
        }
        record
    }
}

impl Controller for SupervisedOtem {
    fn name(&self) -> &'static str {
        "OTEM+Supervisor"
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
        let cap_limit = self.inner.system_config().cap_power_max;

        if self.armed {
            let decision = self.inner.plan_with(load, forecast, dt, sink);
            return match validate_decision(&decision, cap_limit) {
                Ok(()) => {
                    let record =
                        self.inner
                            .apply_with(load, decision.cap_bus, decision.cool_duty, dt, sink);
                    self.check_state(record, step, sink)
                }
                Err(e) => {
                    self.reject(&e, step, sink);
                    self.fallback_step(load, dt, sink)
                }
            };
        }

        // Disarmed: serve the cooldown, then probe the MPC each period
        // (its output is validated but discarded) until it has been
        // healthy `REARM_AFTER` periods in a row.
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return self.fallback_step(load, dt, sink);
        }
        // The probe span covers the speculative solve, its validation,
        // and whichever path follows (the re-arming apply or another
        // fallback period) — the tail of the degraded episode.
        let _probe_span = span(sink, "supervisor_probe");
        let decision = self.inner.plan_with(load, forecast, dt, sink);
        match validate_decision(&decision, cap_limit) {
            Ok(()) => {
                self.healthy_streak += 1;
                if self.healthy_streak >= REARM_AFTER {
                    self.armed = true;
                    self.rearms += 1;
                    sink.record(Event::MpcRearmed {
                        step,
                        healthy_steps: self.healthy_streak,
                    });
                    self.healthy_streak = 0;
                    self.backoff = INITIAL_BACKOFF;
                    // The probe that closed the streak is healthy: apply
                    // it — the MPC is driving again from this period.
                    let record =
                        self.inner
                            .apply_with(load, decision.cap_bus, decision.cool_duty, dt, sink);
                    return self.check_state(record, step, sink);
                }
                self.fallback_step(load, dt, sink)
            }
            Err(e) => {
                self.reject(&e, step, sink);
                self.fallback_step(load, dt, sink)
            }
        }
    }

    fn state(&self) -> SystemState {
        self.inner.state()
    }

    fn inject(&mut self, fault: PlantFault) -> bool {
        self.inner.inject(fault)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::mpc::MpcConfig;
    use otem_telemetry::MemorySink;
    use otem_units::Ratio;

    fn otem() -> Otem {
        Otem::with_mpc(
            &SystemConfig::default(),
            MpcConfig {
                horizon: 4,
                solver_iterations: 8,
                ..MpcConfig::default()
            },
        )
        .expect("valid")
    }

    fn healthy_decision() -> MpcDecision {
        MpcDecision {
            cap_bus: Watts::new(1_000.0),
            cool_duty: 0.5,
            cost: 10.0,
            iterations: 3,
            outcome: SolverOutcome::Converged,
        }
    }

    #[test]
    fn decision_validation_rejects_each_failure_mode() {
        let cap = Watts::new(50_000.0);
        assert!(validate_decision(&healthy_decision(), cap).is_ok());
        // Budget exhaustion with real iterations is nominal for the MPC.
        assert!(validate_decision(
            &MpcDecision {
                outcome: SolverOutcome::BudgetExhausted,
                ..healthy_decision()
            },
            cap
        )
        .is_ok());
        // Anytime deadline behaviour: a deadline reached after real
        // iterations returns the best feasible iterate — accepted.
        assert!(validate_decision(
            &MpcDecision {
                outcome: SolverOutcome::DeadlineReached,
                ..healthy_decision()
            },
            cap
        )
        .is_ok());

        let cases = [
            (
                MpcDecision {
                    cap_bus: Watts::new(f64::NAN),
                    ..healthy_decision()
                },
                "cap_bus",
            ),
            (
                MpcDecision {
                    cool_duty: f64::INFINITY,
                    ..healthy_decision()
                },
                "cool_duty",
            ),
            (
                MpcDecision {
                    cost: f64::NAN,
                    ..healthy_decision()
                },
                "cost",
            ),
            (
                MpcDecision {
                    cap_bus: Watts::new(60_000.0),
                    ..healthy_decision()
                },
                "cap_bus_out_of_bounds",
            ),
            (
                MpcDecision {
                    cool_duty: 1.5,
                    ..healthy_decision()
                },
                "cool_duty_out_of_bounds",
            ),
            (
                MpcDecision {
                    outcome: SolverOutcome::NonFinite,
                    ..healthy_decision()
                },
                "solver_non_finite",
            ),
            (
                MpcDecision {
                    iterations: 0,
                    outcome: SolverOutcome::BudgetExhausted,
                    ..healthy_decision()
                },
                "solver_starved",
            ),
            (
                MpcDecision {
                    iterations: 0,
                    outcome: SolverOutcome::DeadlineReached,
                    ..healthy_decision()
                },
                "solver_deadline",
            ),
        ];
        for (decision, want) in cases {
            let err = validate_decision(&decision, cap).unwrap_err();
            assert_eq!(reject_reason(&err), want, "{decision:?}");
        }
    }

    #[test]
    fn state_validation_guards_physics() {
        let good = SystemState {
            battery_temp: Kelvin::from_celsius(30.0),
            coolant_temp: Kelvin::from_celsius(28.0),
            soe: Ratio::new(0.5),
            soc: Ratio::new(0.9),
        };
        assert!(validate_state(&good).is_ok());

        let hot = SystemState {
            battery_temp: Kelvin::from_celsius(80.0),
            ..good
        };
        assert_eq!(
            reject_reason(&validate_state(&hot).unwrap_err()),
            "battery_temp_out_of_bounds"
        );
        let nan = SystemState {
            battery_temp: Kelvin::new(f64::NAN),
            ..good
        };
        assert_eq!(
            reject_reason(&validate_state(&nan).unwrap_err()),
            "battery_temp"
        );
        // SoC/SoE cannot leave [0, 1] through the `Ratio` type (its
        // constructor clamps, NaN becomes zero) — the validator's checks
        // on them are defence in depth against a future representation
        // change, not a reachable state today.
        assert!(validate_state(&SystemState {
            soc: Ratio::new(-0.2),
            ..good
        })
        .is_ok());
    }

    #[test]
    fn starved_solver_triggers_fallback_and_rearm_with_backoff() {
        let mut sup = SupervisedOtem::new(otem());
        let sink = MemorySink::new();
        let forecast = vec![Watts::new(15_000.0); 4];
        let dt = Seconds::new(1.0);

        // Healthy period first.
        let rec = sup.step_with(Watts::new(15_000.0), &forecast, dt, &sink);
        assert!(sup.is_armed());
        assert!(rec.state.soc.value().is_finite());

        // Starve the solver: every decision is now `solver_starved`.
        assert!(sup.inject(PlantFault::SolverIterationCap(Some(0))));
        let _ = sup.step_with(Watts::new(15_000.0), &forecast, dt, &sink);
        assert!(!sup.is_armed(), "starved decision must disengage the MPC");
        assert_eq!(sup.rejected(), 1);
        assert_eq!(sup.fallbacks(), 1);
        assert_eq!(sink.count_kind("decision_rejected"), 1);
        assert_eq!(sink.count_kind("fallback_engaged"), 1);

        // Cooldown, then a failed probe doubles the backoff.
        for _ in 0..INITIAL_BACKOFF + 1 {
            let r = sup.step_with(Watts::new(15_000.0), &forecast, dt, &sink);
            assert!(r.state.soc.value().is_finite());
        }
        assert!(sup.fallbacks() >= 2, "failed probe starts a new episode");

        // Heal the solver; after the doubled cooldown, `REARM_AFTER`
        // healthy probes re-arm.
        assert!(sup.inject(PlantFault::SolverIterationCap(None)));
        for _ in 0..2 * (2 * INITIAL_BACKOFF + REARM_AFTER) {
            let _ = sup.step_with(Watts::new(15_000.0), &forecast, dt, &sink);
            if sup.is_armed() {
                break;
            }
        }
        assert!(sup.is_armed(), "healthy solver must re-arm");
        assert_eq!(sup.rearms(), 1);
        assert_eq!(sink.count_kind("mpc_rearmed"), 1);
    }

    #[test]
    fn deadline_miss_walks_the_same_ladder_as_starvation() {
        // A zero-nanosecond deadline makes every solve return its warm
        // start with `DeadlineReached` at iteration 0 — the throttled
        // compute-platform signature. The supervisor must walk the exact
        // rejection → fallback → re-arm ladder it uses for starvation,
        // with the `solver_deadline` reason on the rejection events.
        let mut sup = SupervisedOtem::new(otem());
        let sink = MemorySink::new();
        let forecast = vec![Watts::new(15_000.0); 4];
        let dt = Seconds::new(1.0);

        let _ = sup.step_with(Watts::new(15_000.0), &forecast, dt, &sink);
        assert!(sup.is_armed());

        assert!(sup.inject(PlantFault::SolverDeadlineNs(Some(0))));
        let _ = sup.step_with(Watts::new(15_000.0), &forecast, dt, &sink);
        assert!(!sup.is_armed(), "missed deadline must disengage the MPC");
        assert_eq!(sup.rejected(), 1);
        assert_eq!(sink.count_kind("decision_rejected"), 1);
        assert_eq!(sink.count_kind("fallback_engaged"), 1);

        // Restore compute headroom; the MPC proves healthy and re-arms.
        assert!(sup.inject(PlantFault::SolverDeadlineNs(None)));
        for _ in 0..2 * (INITIAL_BACKOFF + REARM_AFTER) {
            let _ = sup.step_with(Watts::new(15_000.0), &forecast, dt, &sink);
            if sup.is_armed() {
                break;
            }
        }
        assert!(sup.is_armed(), "restored deadline must re-arm");
        assert_eq!(sup.rearms(), 1);
        assert_eq!(sink.count_kind("mpc_rearmed"), 1);
    }

    #[test]
    fn healthy_run_never_touches_the_ladder() {
        let mut sup = SupervisedOtem::new(otem());
        let sink = MemorySink::new();
        let forecast = vec![Watts::new(20_000.0); 4];
        for _ in 0..5 {
            let _ = sup.step_with(Watts::new(20_000.0), &forecast, Seconds::new(1.0), &sink);
        }
        assert!(sup.is_armed());
        assert_eq!(sup.rejected(), 0);
        assert_eq!(sup.fallbacks(), 0);
        assert_eq!(sink.count_kind("decision_rejected"), 0);
        assert_eq!(sink.count_kind("fallback_engaged"), 0);
    }
}
