//! Whole-route planning: the MPC's own objective, minimised over an
//! entire known trace as one window.
//!
//! [`plan_route`] is the offline counterpart of the receding-horizon
//! controller, in the manner of Mousaei's whole-cycle optimisation of a
//! battery electro-thermal model and Lokur & Murgovski's thermal
//! management as optimal control over a whole drive. It plans the same
//! decisions the MPC takes (cap share and cooler duty per step) on the
//! same prediction model, cost and box, with the whole trace as the
//! window and no terminal tail. It is not causal: it is the reference a
//! closed-loop controller is measured against.
//!
//! It is a *best-known* plan, not a bound. The problem is nonconvex and
//! the solve stops on a fixed budget, so a better plan may exist, and
//! the regret of a controller measured against this plan is a lower
//! bound on its true regret.
//!
//! The warm start is part of the design. From an all-zero start the same
//! budget ends *worse* than the closed loop it should floor: on NYCC
//! (`SystemConfig::default()`, 600 steps) it reads 2.058e6 against the
//! closed loop's realized 1.726e6, where the warm-started plan reads
//! 1.550e6.

use crate::adjoint::{W1, W3};
use crate::config::SystemConfig;
use crate::controller::{Controller, StepRecord, SystemState};
use crate::error::OtemError;
use crate::metrics::SimulationResult;
use crate::mpc::{Mpc, MpcConfig};
use crate::policy::Otem;
use crate::sim::Simulator;
use otem_drivecycle::PowerTrace;
use otem_solver::{Solution, SolverOutcome};
use otem_telemetry::{NullSink, Sink};
use otem_units::{Seconds, Watts};
use std::iter::Zip;
use std::slice::Iter;

/// Solver iterations of the whole-route solve.
const ROUTE_ITERATIONS: usize = 2_000;

/// A whole-route plan and what the plant realizes under it.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutePlan {
    /// Commanded bank bus power per step (positive = the bank serves).
    pub cap_bus: Vec<Watts>,
    /// Cooler duty per step, in `[0, 1]`.
    pub cool_duty: Vec<f64>,
    /// The MPC objective at the plan: Eq. 19 plus the constraint
    /// penalties over the whole trace, with no terminal tail.
    pub cost: f64,
    /// How the route solve ended.
    pub outcome: SolverOutcome,
    /// Solver iterations the route solve consumed.
    pub iterations: usize,
    /// The plan replayed open loop through [`Otem::apply_with`] under
    /// [`Simulator`].
    pub replay: SimulationResult,
}

/// Plans the whole of `trace` for `config`'s OTEM plant.
///
/// 1. Warm start: the default closed loop ([`Otem::new`], each step
///    [`Otem::plan_with`] then [`Otem::apply_with`]) drives the trace,
///    and its applied moves (cap share `cap_bus / cap_power_max`, duty)
///    are the start.
/// 2. Solve: [`MpcConfig::default`] with the trace as its horizon and no
///    terminal tail, solved from that start on the MPC's box within a
///    budget of 2,000 iterations.
/// 3. Replay: the plan drives a fresh plant under [`Simulator`].
///
/// An empty trace is an empty plan.
///
/// # Errors
///
/// Propagates configuration and component validation errors.
pub fn plan_route(config: &SystemConfig, trace: &PowerTrace) -> Result<RoutePlan, OtemError> {
    let fresh = Otem::new(config)?;
    let n = trace.len();
    if n == 0 {
        return Ok(RoutePlan {
            cap_bus: Vec::new(),
            cool_duty: Vec::new(),
            cost: 0.0,
            outcome: SolverOutcome::Converged,
            iterations: 0,
            replay: replay(&fresh, config, trace, &[], &[]),
        });
    }
    let dt = config.dt;
    let cap_max = config.cap_power_max.value();

    let mut closed = fresh.clone();
    let window = MpcConfig::default().horizon - 1;
    let mut x0 = vec![0.0; 2 * n];
    for t in 0..n {
        let load = trace.get(t);
        let decision = closed.plan_with(load, &trace.window(t + 1, window), dt, &NullSink);
        closed.apply_with(load, decision.cap_bus, decision.cool_duty, dt, &NullSink);
        x0[t] = decision.cap_bus.value() / cap_max;
        x0[n + t] = decision.cool_duty;
    }

    let mut mpc = Mpc::new(MpcConfig {
        horizon: n,
        terminal_tail: 0.0,
        solver_iterations: ROUTE_ITERATIONS,
        ..MpcConfig::default()
    });
    let Solution {
        x,
        value,
        iterations,
        outcome,
    } = mpc.solve_from(&fresh.plant_snapshot(), trace.samples(), dt, &x0);
    let cap_bus: Vec<Watts> = x[..n].iter().map(|&u| Watts::new(u * cap_max)).collect();
    let cool_duty = x[n..].to_vec();
    let replay = replay(&fresh, config, trace, &cap_bus, &cool_duty);
    Ok(RoutePlan {
        cap_bus,
        cool_duty,
        cost: value,
        outcome,
        iterations,
        replay,
    })
}

/// The realized Eq. 19 cost of a run, `w1·cooling + w2·Q_loss + w3·HEES
/// energy` at the default weights: what [`RoutePlan::cost`] prices, less
/// its constraint penalties, with no end-state term.
pub fn realized_cost(result: &SimulationResult) -> f64 {
    W1 * result.totals.cooling_energy.value()
        + MpcConfig::default().w2 * result.totals.capacity_loss
        + W3 * result.totals.energy.value()
}

/// Drives a copy of `fresh` through `trace` under [`Simulator`], applying
/// the planned moves in place of the MPC's.
fn replay(
    fresh: &Otem,
    config: &SystemConfig,
    trace: &PowerTrace,
    cap_bus: &[Watts],
    cool_duty: &[f64],
) -> SimulationResult {
    let mut plan = Replay {
        otem: fresh.clone(),
        moves: cap_bus.iter().zip(cool_duty),
    };
    Simulator::new(config).run(&mut plan, trace)
}

/// The OTEM plant with a fixed plan in place of its MPC.
struct Replay<'a> {
    otem: Otem,
    moves: Zip<Iter<'a, Watts>, Iter<'a, f64>>,
}

impl Controller for Replay<'_> {
    fn name(&self) -> &'static str {
        "OTEM route plan"
    }

    fn step_with(
        &mut self,
        load: Watts,
        _forecast: &[Watts],
        dt: Seconds,
        sink: &dyn Sink,
    ) -> StepRecord {
        let (&cap_bus, &cool_duty) = self.moves.next().expect("one planned move per step");
        self.otem.apply_with(load, cap_bus, cool_duty, dt, sink)
    }

    fn state(&self) -> SystemState {
        self.otem.state()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Relative bound on `|realized / planned − 1|`. The plan prices the
    /// pump at `pump_power · duty` while the plant runs it whole above
    /// duty 1e-3, and the penalties are priced but never realized. The
    /// worst case measured on the default configuration is 9.7e-4 (flat
    /// 20 kW × 30 from the bank's floor); the stress-rig case in
    /// `plan_energy_is_the_configured_plant_replaying_the_plan` breaks it.
    const REPLAY_TOLERANCE: f64 = 2e-3;

    fn flat_trace(watts: f64, n: usize) -> PowerTrace {
        PowerTrace::new(Seconds::new(1.0), vec![Watts::new(watts); n])
    }

    fn pulsed_trace(dt: Seconds, pattern: &[(f64, usize)], laps: usize) -> PowerTrace {
        let lap = pattern
            .iter()
            .flat_map(|&(watts, n)| std::iter::repeat_n(Watts::new(watts), n));
        PowerTrace::new(dt, lap.collect::<Vec<_>>().repeat(laps))
    }

    fn assert_replay_realizes_the_plan(plan: &RoutePlan) {
        let ratio = realized_cost(&plan.replay) / plan.cost;
        assert!(
            (ratio - 1.0).abs() <= REPLAY_TOLERANCE,
            "realized / planned {ratio:.6}"
        );
    }

    #[test]
    fn plan_covers_every_step() {
        let config = SystemConfig::default();
        let plan = plan_route(&config, &flat_trace(15_000.0, 40)).unwrap();
        assert_eq!(plan.cap_bus.len(), 40);
        assert_eq!(plan.cool_duty.len(), 40);
        assert_eq!(plan.replay.records.len(), 40);
        assert!(plan.cost > 0.0);
        assert!(plan.iterations > 0);
    }

    #[test]
    fn empty_trace_is_an_empty_plan() {
        let config = SystemConfig::default();
        let plan = plan_route(&config, &flat_trace(0.0, 0)).unwrap();
        assert!(plan.cap_bus.is_empty() && plan.cool_duty.is_empty());
        assert!(plan.replay.records.is_empty());
        assert_eq!((plan.cost, plan.iterations), (0.0, 0));
    }

    #[test]
    fn steady_load_prefers_the_battery() {
        // A flat load gains nothing from cycling energy through the
        // bank's converter: the plan leaves the bank all but untouched.
        // The bank starts at its floor, so any use would be cycling (a
        // full bank is worth draining on the compact pack: splitting
        // the load cuts its I²R loss).
        let config = SystemConfig {
            initial_soe: SystemConfig::default().soe_min,
            ..SystemConfig::default()
        };
        let plan = plan_route(&config, &flat_trace(20_000.0, 30)).unwrap();
        let cap_energy: f64 = plan.cap_bus.iter().map(|p| p.value().abs()).sum();
        // Measured 6,961 W·steps.
        assert!(
            cap_energy < 0.1 * 20_000.0 * 30.0,
            "bank used {cap_energy} W·steps on a flat load"
        );
        assert_replay_realizes_the_plan(&plan);
    }

    #[test]
    fn plan_beats_battery_only_on_pulsed_load() {
        // Pulses: shaving them with the bank cuts the battery's I²R loss
        // and wear by more than the conversion costs.
        let config = SystemConfig::default();
        let trace = pulsed_trace(config.dt, &[(2_000.0, 5), (90_000.0, 3)], 6);
        let plan = plan_route(&config, &trace).unwrap();
        let idle = vec![0.0; trace.len()];
        let battery_only = replay(
            &Otem::new(&config).unwrap(),
            &config,
            &trace,
            &vec![Watts::ZERO; trace.len()],
            &idle,
        );
        let (planned, alone) = (realized_cost(&plan.replay), realized_cost(&battery_only));
        assert!(
            planned < alone,
            "plan {planned:.6e} should beat battery-only {alone:.6e}"
        );
        assert_replay_realizes_the_plan(&plan);
    }

    #[test]
    fn plan_energy_is_the_configured_plant_replaying_the_plan() {
        // The stress rig's 96s×16p pack: the replay is exactly the OTEM
        // plant driven by the plan. Its realized cost is not within the
        // replay tolerance here (1.0453 × planned): the plan runs the pump
        // at duty ≈ 0.51 on every step and has the bank carry the whole
        // priced bus load, so the battery's only draw is the half of the
        // pump the relaxation leaves unpriced (≈ 0.007 C), and the
        // sublinear stress law prices that draw at 49× the wear planned
        // for the near-idle battery.
        let config = SystemConfig::stress_rig();
        let trace = pulsed_trace(config.dt, &[(4_000.0, 6), (60_000.0, 3), (-20_000.0, 2)], 4);
        let plan = plan_route(&config, &trace).unwrap();

        let mut otem = Otem::new(&config).unwrap();
        let mut energy = 0.0;
        for (t, (&cap_bus, &duty)) in plan.cap_bus.iter().zip(&plan.cool_duty).enumerate() {
            let record = otem.apply_with(trace.get(t), cap_bus, duty, config.dt, &NullSink);
            assert_eq!(record, plan.replay.records[t], "step {t}");
            energy += (record.total_power() * config.dt).value();
        }
        assert_eq!(
            energy.to_bits(),
            plan.replay.totals.energy.value().to_bits()
        );
    }
}
