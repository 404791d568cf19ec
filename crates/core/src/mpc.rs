//! The OTEM model-predictive optimisation (paper Section III-B,
//! Eq. 17–19).
//!
//! # Transcription
//!
//! The paper states the OCP over state variables `x = [T_b, T_c, SoE,
//! SoC]`, control inputs `i = [T_i, P_bat, P_cap]` and auxiliaries, with
//! the discretised dynamics as equality constraints (Eq. 18) and the
//! weighted cost of Eq. 19. We solve the same problem by **single
//! shooting**: the dynamics are eliminated by forward simulation of the
//! component models, leaving a box-constrained problem in the genuinely
//! free inputs —
//!
//! * `u_cap[k]` — the ultracapacitor's bus-side power share (the bus
//!   power balance then pins the battery's share:
//!   `P_bat = P_e + P_c + P_m − P_cap`), and
//! * `u_cool[k]` — the cooler duty in `[0, 1]` (scaling the inlet
//!   temperature drop, and thereby `P_c`, within actuator limits);
//!
//! state constraints C1/C4/C5/C6 become smooth quadratic penalties. The
//! box-constrained NLP is solved with [`otem_solver::ProjectedGradient`],
//! warm-started from the previous period's shifted solution (standard
//! receding-horizon practice). The box is partitioned into the two
//! decision blocks, so the solver keeps one step length for the cap
//! shares and one for the cooler duties: their curvatures differ by
//! four orders of magnitude, and one shared step would be set by the
//! stiff cap block.

use crate::adjoint::{StageConstants, StageRecord};
use crate::config::SystemConfig;
use crate::controller::{StepRecord, SystemState};
use crate::error::OtemError;
use otem_battery::{AgingParams, BatteryPack};
use otem_converter::DcDcConverter;
use otem_hees::{HeesSnapshot, HybridCommand, HybridHees};
use otem_solver::{Bounds, Deadline, Objective, ProjectedGradient, Solution, SolverOutcome};
pub use otem_solver::{Clock, MonotonicClock, VirtualClock};
use otem_telemetry::{span, Event, NullSink, Sink};
use otem_thermal::{CoolerAction, CoolingPlant, ThermalModel, ThermalState};
use otem_ultracap::UltracapParams;
use otem_units::{Kelvin, Ratio, Seconds, Watts};
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// Tuning of the OTEM optimisation: the horizon, the studied Eq. 19
/// trade-off weight and the solve budget. The other weights and the
/// constraint penalties are constants of the stage cost (`adjoint`
/// module).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MpcConfig {
    /// Control window length `N` (steps of `dt`).
    pub horizon: usize,
    /// `w2`: weight on battery capacity loss `Q_loss` (joule-equivalents
    /// per unit loss fraction — prices battery wear against energy).
    pub w2: f64,
    /// Inner solver iteration budget per control period.
    pub solver_iterations: usize,
    /// Terminal-cost tail (s): the end-of-horizon battery temperature is
    /// priced as if it persisted this long, so the controller sees the
    /// value of pre-cooling beyond its own window (thermal time
    /// constants far exceed practical horizons).
    pub terminal_tail: f64,
    /// Optional per-solve compute budget in nanoseconds (the *anytime*
    /// contract): the inner solver polls its [`Clock`] once per outer
    /// iteration and, when the budget expires, returns the best iterate
    /// found so far with [`SolverOutcome::DeadlineReached`] — finite,
    /// inside the box, never worse than the projected warm start.
    /// `None` disables the deadline.
    pub deadline_ns: Option<u64>,
}

impl Default for MpcConfig {
    fn default() -> Self {
        Self {
            horizon: 12,
            w2: 8.0e12,
            solver_iterations: 20,
            terminal_tail: 600.0,
            deadline_ns: None,
        }
    }
}

/// The OTEM plant: the hybrid architecture, the actively cooled pack and
/// its cooling loop, with the constraint bounds the objective prices.
/// [`crate::policy::Otem`] drives one; the MPC predicts a copy of it
/// (Algorithm 1 lines 11–14) and [`MpcPlant::apply`] steps it (lines
/// 15–16).
#[derive(Debug, Clone)]
pub struct MpcPlant {
    /// The hybrid architecture: cloned once per decision by
    /// `Otem::plant_snapshot`; each rollout rewinds the solve's working
    /// copy to it with [`HybridHees::restore`] instead of cloning.
    pub hees: HybridHees,
    /// The actively cooled thermal model.
    pub thermal: ThermalModel,
    /// The cooling plant (cooler + pump).
    pub plant: CoolingPlant,
    /// Current thermal state.
    pub state: ThermalState,
    /// Aging coefficients for the `Q_loss` cost term.
    pub aging: AgingParams,
    /// C4 lower bound on SoC.
    pub soc_min: Ratio,
    /// C5 lower bound on SoE.
    pub soe_min: Ratio,
    /// C6 battery bus-power limit.
    pub battery_power_max: Watts,
    /// C7 ultracapacitor bus-power limit.
    pub cap_power_max: Watts,
}

impl MpcPlant {
    /// The plant `config` describes at its initial state: its cell and
    /// pack, the paper's bank at [`SystemConfig::capacitance`] behind both
    /// DC-DC converters at the initial SoC and SoE, the actively cooled
    /// thermal model at ambient, and the cooling plant.
    ///
    /// # Errors
    ///
    /// Propagates component validation errors.
    pub fn new(config: &SystemConfig) -> Result<Self, OtemError> {
        let battery = BatteryPack::new(config.cell.clone(), config.pack)?;
        let mut hees = HybridHees::new(
            battery,
            UltracapParams::paper_bank(config.capacitance),
            DcDcConverter::battery_side(),
            DcDcConverter::ultracap_side(),
        )?;
        hees.set_state(config.initial_soc, config.initial_soe);
        Ok(Self {
            hees,
            thermal: ThermalModel::new(config.thermal_active)?,
            plant: CoolingPlant::new(config.plant)?,
            state: ThermalState::uniform(config.ambient),
            aging: config.aging,
            soc_min: config.soc_min,
            soe_min: config.soe_min,
            battery_power_max: config.battery_power_max,
            cap_power_max: config.cap_power_max,
        })
    }

    /// Whether a commanded duty runs the cooling loop: above duty 1e-3
    /// the pump runs at full power, below it the loop idles.
    pub(crate) fn cooling_runs(cool_duty: f64) -> bool {
        cool_duty > 1e-3
    }

    /// Applies one period's move to the plant: the duty sets the inlet
    /// between the outlet and the coldest inlet the cooler reaches, the
    /// battery covers the load plus the cooling power minus the bank's
    /// `cap_bus`, and the pack steps by Crank–Nicolson.
    pub fn apply(
        &mut self,
        load: Watts,
        cap_bus: Watts,
        cool_duty: f64,
        dt: Seconds,
    ) -> StepRecord {
        let outlet = self.state.coolant;
        let action = if Self::cooling_runs(cool_duty) {
            let coldest = self.plant.coldest_inlet(outlet);
            let inlet = Kelvin::new(
                outlet.value() - cool_duty.clamp(0.0, 1.0) * (outlet.value() - coldest.value()),
            );
            self.plant.actuate(outlet, inlet)
        } else {
            CoolerAction::idle(outlet)
        };
        let hees = self.hees.step(
            HybridCommand {
                battery_bus: load + action.total_power() - cap_bus,
                cap_bus,
            },
            self.state.battery,
            dt,
        );
        self.state =
            self.thermal
                .step_crank_nicolson(self.state, hees.battery_heat, action.inlet, dt);
        StepRecord {
            load,
            hees,
            cooling_power: action.total_power(),
            state: self.system_state(),
        }
    }

    /// The paper's state vector `[T_b, T_c, SoE, SoC]` of this plant.
    pub(crate) fn system_state(&self) -> SystemState {
        SystemState {
            battery_temp: self.state.battery,
            coolant_temp: self.state.coolant,
            soe: self.hees.soe(),
            soc: self.hees.soc(),
        }
    }
}

/// One period's optimised control move.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MpcDecision {
    /// Bus-side ultracapacitor power for the coming period (positive =
    /// the bank serves the bus).
    pub cap_bus: Watts,
    /// Cooler duty in `[0, 1]`.
    pub cool_duty: f64,
    /// Diagnostics: cost at the solution.
    pub cost: f64,
    /// Diagnostics: solver iterations consumed.
    pub iterations: usize,
    /// Diagnostics: how the solver terminated.
    pub outcome: SolverOutcome,
}

/// The receding-horizon optimiser (Algorithm 1 lines 13–14).
#[derive(Debug, Clone)]
pub struct Mpc {
    config: MpcConfig,
    previous: Option<Vec<f64>>,
    solver: ProjectedGradient,
    /// Runtime tightening of the per-solve deadline (ns); combined with
    /// the configured [`MpcConfig::deadline_ns`] by taking the minimum,
    /// so a fault can only shrink the budget. `None` restores the
    /// configured deadline.
    deadline_cap: Option<u64>,
    /// Time source the deadline is measured against: the monotonic
    /// clock in production, a [`otem_solver::VirtualClock`] in tests
    /// (making deadline behaviour bit-reproducible).
    clock: Arc<dyn Clock>,
    // Cached per-solve buffers: the problem dimension is fixed by the
    // config, so the box (with its two-block partition) and the
    // warm-start vector are built once and reused across every control
    // period.
    bounds: Bounds,
    x0: Vec<f64>,
    /// The rollout buffers, held across solves; a solve owns them
    /// outright while it runs.
    buffers: RolloutBuffers,
    /// Forward passes run by every solve so far.
    rollouts: u64,
}

impl Mpc {
    /// Builds an optimiser with the given tuning.
    ///
    /// # Panics
    ///
    /// Panics if `config.horizon` is zero: a zero-step window has no
    /// first move to apply.
    pub fn new(config: MpcConfig) -> Self {
        assert!(
            config.horizon > 0,
            "MpcConfig::horizon must be at least 1 step: a zero-step window has no first move"
        );
        let solver = ProjectedGradient {
            max_iterations: config.solver_iterations,
            tolerance: 1e-5,
        };
        let n = config.horizon;
        let mut lower = vec![-1.0; n];
        lower.extend(std::iter::repeat_n(0.0, n));
        let mut upper = vec![1.0; n];
        upper.extend(std::iter::repeat_n(1.0, n));
        Self {
            config,
            previous: None,
            solver,
            deadline_cap: None,
            clock: Arc::new(MonotonicClock::new()),
            bounds: Bounds::new(lower, upper).partitioned_at(&[n]),
            x0: vec![0.0; 2 * n],
            buffers: RolloutBuffers::default(),
            rollouts: 0,
        }
    }

    /// The tuning in use.
    pub fn config(&self) -> &MpcConfig {
        &self.config
    }

    /// Tightens the per-solve deadline below the configured
    /// [`MpcConfig::deadline_ns`] (`None` restores the configured
    /// value). A zero budget starves the solver: every solve returns its
    /// projected warm start with [`SolverOutcome::DeadlineReached`] —
    /// the degradation mode in which the closed loop applies its last
    /// plan, shifted.
    pub fn set_deadline_ns(&mut self, deadline_ns: Option<u64>) {
        self.deadline_cap = deadline_ns;
    }

    /// The per-solve deadline budget currently in force (runtime cap
    /// combined with the configured value by minimum), if any.
    fn deadline_ns(&self) -> Option<u64> {
        match (self.deadline_cap, self.config.deadline_ns) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Replaces the time source the deadline is measured against.
    /// Production keeps the default [`MonotonicClock`]; tests inject a
    /// [`otem_solver::VirtualClock`] so deadline-triggered paths are
    /// deterministic and bit-reproducible.
    pub fn set_clock(&mut self, clock: Arc<dyn Clock>) {
        self.clock = clock;
    }

    /// Total plant rollouts performed by [`Mpc::solve`] so far — the
    /// MPC's unit of work: the forward passes that simulate the whole
    /// horizon, one per objective evaluation plus one per gradient asked
    /// for away from the last evaluated point (which cannot reuse that
    /// evaluation's tape).
    /// Benchmarks divide this by wall time to report rollouts/second.
    pub fn rollouts(&self) -> u64 {
        self.rollouts
    }

    /// Solves the control window given the plant snapshot and the load
    /// forecast (`loads[0]` is the period being decided). Returns the
    /// first move, retaining the full solution as the next warm start.
    pub fn solve(&mut self, plant: &MpcPlant, loads: &[Watts], dt: Seconds) -> MpcDecision {
        self.solve_with(plant, loads, dt, &NullSink)
    }

    /// [`Mpc::solve`] with telemetry: the solve streams one
    /// [`Event::GradientEval`] per differentiated point from the inner
    /// solver and one [`Event::SolveOutcome`] at its end, inside the
    /// `mpc_solve` span.
    ///
    /// Observation only: for any sink the returned [`MpcDecision`] is
    /// bit-identical to [`Mpc::solve`]'s.
    pub fn solve_with(
        &mut self,
        plant: &MpcPlant,
        loads: &[Watts],
        dt: Seconds,
        sink: &dyn Sink,
    ) -> MpcDecision {
        let _solve_span = span(sink, "mpc_solve");
        let n = self.config.horizon;

        // Decision vector layout: [cap_share_0..n-1, cool_duty_0..n-1],
        // cap shares normalised by the C7 limit into [-1, 1].
        {
            let _warm_span = span(sink, "warm_start");
            self.x0.clear();
            self.x0.resize(2 * n, 0.0);
            if let Some(prev) = &self.previous {
                warm_start_shift(&mut self.x0, prev, n);
            }
        }

        let Solution {
            x,
            value,
            iterations,
            outcome,
        } = self.minimize(plant, loads, dt, sink);
        sink.record(Event::SolveOutcome {
            outcome: outcome.name(),
            // The one gradient path; the label keeps the metric family's
            // `mode` dimension stable.
            mode: "adjoint",
            iterations: iterations as u64,
        });

        let decision = MpcDecision {
            cap_bus: Watts::new(x[0] * plant.cap_power_max.value()),
            cool_duty: x[n],
            cost: value,
            iterations,
            outcome,
        };
        self.previous = Some(x);
        decision
    }

    /// Solves the window from the caller's start `x0` (laid out as
    /// `[cap_share_0..n-1, cool_duty_0..n-1]`) instead of the shifted
    /// previous plan, leaving the warm-start memory untouched: the solve
    /// behind every decision, for a caller that already holds a plan
    /// (the route planner's whole-trace window).
    pub(crate) fn solve_from(
        &mut self,
        plant: &MpcPlant,
        loads: &[Watts],
        dt: Seconds,
        x0: &[f64],
    ) -> Solution {
        self.x0.clear();
        self.x0.extend_from_slice(x0);
        self.minimize(plant, loads, dt, &NullSink)
    }

    /// Runs the solver from `self.x0` on the box, within the deadline
    /// in force, through the held buffers.
    fn minimize(
        &mut self,
        plant: &MpcPlant,
        loads: &[Watts],
        dt: Seconds,
        sink: &dyn Sink,
    ) -> Solution {
        let buffers = std::mem::take(&mut self.buffers);
        let objective = RolloutObjective::new(plant, loads, dt, &self.config, buffers, sink);
        let deadline = self
            .deadline_ns()
            .map(|budget| Deadline::after(self.clock.as_ref(), budget));
        let solution = self.solver.minimize_within(
            &objective,
            &self.bounds,
            &self.x0,
            sink,
            deadline.as_ref(),
        );
        self.rollouts += objective.rollouts.get();
        self.buffers = objective.buffers.into_inner();
        solution
    }
}

/// Warm-starts `x0` from the previous period's plan `prev` (both laid out
/// as `[cap_share_0..n-1, cool_duty_0..n-1]`): one control period has
/// elapsed, so each step takes its successor's value and the tail step
/// is repeated.
fn warm_start_shift(x0: &mut [f64], prev: &[f64], n: usize) {
    debug_assert_eq!(x0.len(), 2 * n);
    debug_assert_eq!(prev.len(), 2 * n);
    for k in 0..n - 1 {
        x0[k] = prev[k + 1];
        x0[n + k] = prev[n + k + 1];
    }
    x0[n - 1] = prev[n - 1];
    x0[2 * n - 1] = prev[2 * n - 1];
}

/// The buffers an objective evaluates through, reused from one solve
/// to the next: once warm, a solve touches no allocator.
#[derive(Debug, Clone, Default)]
struct RolloutBuffers {
    /// Primal stage records, rewritten by every forward pass.
    tape: Vec<StageRecord>,
    /// The decision vector `tape` was recorded at, or empty when the
    /// tape describes no point of the current objective. A gradient
    /// asked for at a bit-equal point sweeps the stored records instead
    /// of running a forward pass. Cleared by [`RolloutObjective::new`]:
    /// the start state, forecast and step change between objectives
    /// while the decision vector can repeat.
    taped_at: Vec<f64>,
}

/// One window's problem: the Eq. 19 cost of a decision vector and its
/// adjoint gradient, both evaluated by rolling out a working copy of the
/// plant's HEES.
struct RolloutObjective<'a> {
    plant: &'a MpcPlant,
    loads: &'a [Watts],
    config: &'a MpcConfig,
    /// The window's decision-independent stage constants, shared by
    /// every rollout and sweep.
    stage: StageConstants,
    /// The working copy of the plant's HEES, rewound to `start` with
    /// [`HybridHees::restore`] before every rollout instead of cloned
    /// per evaluation.
    hees: RefCell<HybridHees>,
    /// The plant's HEES state when the objective was built.
    start: HeesSnapshot,
    /// The tape and its memo; one evaluation runs at a time.
    buffers: RefCell<RolloutBuffers>,
    /// Forward passes run through this objective.
    rollouts: Cell<u64>,
    /// Telemetry sink for the `rollout` spans.
    sink: &'a dyn Sink,
}

impl<'a> RolloutObjective<'a> {
    /// The problem of rolling out `plant` under `loads`, evaluated
    /// through `buffers`: a new problem, so no tape they hold is reused.
    fn new(
        plant: &'a MpcPlant,
        loads: &'a [Watts],
        dt: Seconds,
        config: &'a MpcConfig,
        mut buffers: RolloutBuffers,
        sink: &'a dyn Sink,
    ) -> Self {
        buffers.taped_at.clear();
        Self {
            plant,
            loads,
            config,
            stage: StageConstants::new(plant, loads, dt, config),
            hees: RefCell::new(plant.hees.clone()),
            start: plant.hees.snapshot(),
            buffers: RefCell::new(buffers),
            rollouts: Cell::new(0),
            sink,
        }
    }

    /// One forward pass: rewind, simulate, score, and record `z` as the
    /// point the tape belongs to.
    fn forward(&self, buffers: &mut RolloutBuffers, z: &[f64]) -> f64 {
        let hees = &mut *self.hees.borrow_mut();
        hees.restore(self.start);
        self.rollouts.set(self.rollouts.get() + 1);
        buffers.taped_at.clear();
        buffers.taped_at.extend_from_slice(z);
        crate::adjoint::rollout(
            self.plant,
            hees,
            self.loads,
            &self.stage,
            self.config,
            z,
            &mut buffers.tape,
        )
    }

    /// Leaves the tape recorded at `x`: the stored one when the last
    /// forward pass was at a bit-equal point — the line search's
    /// accepted trial, in every iteration — otherwise a fresh one.
    fn tape_at(&self, buffers: &mut RolloutBuffers, x: &[f64]) {
        let reusable = buffers.taped_at.len() == x.len()
            && buffers
                .taped_at
                .iter()
                .zip(x)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !reusable {
            self.forward(buffers, x);
        }
    }
}

impl Objective for RolloutObjective<'_> {
    /// A value-only forward pass; its primal records stay on the tape,
    /// so a gradient at the line search's accepted trial needs no second
    /// forward pass.
    fn value(&self, z: &[f64]) -> f64 {
        let _rollout_span = span(self.sink, "rollout");
        self.forward(&mut self.buffers.borrow_mut(), z)
    }

    /// Reverse-mode gradient: one allocation-free backward sweep that
    /// builds each stage's derivatives as it goes — the whole gradient
    /// for at most the price of a single rollout, independent of the
    /// horizon length, and for none when `x` is the point the objective
    /// last evaluated.
    fn gradient(&self, x: &[f64], grad: &mut [f64]) {
        assert_eq!(grad.len(), x.len(), "gradient buffer length mismatch");
        let _rollout_span = span(self.sink, "rollout");
        let buffers = &mut *self.buffers.borrow_mut();
        self.tape_at(buffers, x);
        crate::adjoint::adjoint_sweep(self.plant, &self.stage, self.config, &buffers.tape, grad);
    }
}

/// Simulates the horizon under the candidate controls and returns the
/// Eq. 19 cost plus constraint penalties.
///
/// Evaluates the objective an [`Mpc::solve`] minimises, built for this
/// one call: it copies the plant's HEES, builds the stage constants and
/// allocates a tape, which a solve does once for all its evaluations.
/// The cost, the adjoint's forward pass and every solve are the same
/// code — bit-identical by construction.
pub fn rollout_cost(
    plant: &MpcPlant,
    loads: &[Watts],
    dt: Seconds,
    config: &MpcConfig,
    z: &[f64],
) -> f64 {
    RolloutObjective::new(plant, loads, dt, config, Default::default(), &NullSink).value(z)
}

/// Reverse-mode gradient of [`rollout_cost`]: one forward rollout and a
/// backward sweep that chain-rules its records through the components'
/// analytic partials.
/// Writes `∂J/∂z` into `grad` (layout `[cap_share_0..n-1,
/// cool_duty_0..n-1]`, length `2·horizon`) and returns the cost at `z`.
///
/// Evaluates through the same objective as [`rollout_cost`]: the sweep
/// runs over the tape of the forward pass that returned the cost.
/// Matches finite differences to ~1e-6 relative error away from the
/// objective's penalty kinks, at a cost independent of the horizon
/// length.
pub fn rollout_gradient_adjoint(
    plant: &MpcPlant,
    loads: &[Watts],
    dt: Seconds,
    config: &MpcConfig,
    z: &[f64],
    grad: &mut [f64],
) -> f64 {
    let objective = RolloutObjective::new(plant, loads, dt, config, Default::default(), &NullSink);
    let cost = objective.value(z);
    objective.gradient(z, grad);
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use otem_units::Farads;

    fn plant(config: &SystemConfig) -> MpcPlant {
        let mut p = MpcPlant::new(config).unwrap();
        p.hees.set_state(config.initial_soc, Ratio::new(0.6));
        p
    }

    #[test]
    fn idle_horizon_prefers_doing_nothing() {
        let config = SystemConfig::default();
        let p = plant(&config);
        let mut mpc = Mpc::new(MpcConfig {
            horizon: 6,
            ..MpcConfig::default()
        });
        let loads = vec![Watts::ZERO; 6];
        let d = mpc.solve(&p, &loads, Seconds::new(1.0));
        assert!(
            d.cap_bus.value().abs() < 2_000.0,
            "idle cap command {:?}",
            d.cap_bus
        );
        assert!(d.cool_duty < 0.1, "idle cooling duty {}", d.cool_duty);
    }

    #[test]
    fn hot_battery_triggers_cooling_or_cap_use() {
        let config = SystemConfig::default();
        let mut p = plant(&config);
        p.state = ThermalState::uniform(Kelvin::from_celsius(39.5));
        let mut mpc = Mpc::new(MpcConfig {
            horizon: 6,
            ..MpcConfig::default()
        });
        let loads = vec![Watts::new(40_000.0); 6];
        let d = mpc.solve(&p, &loads, Seconds::new(1.0));
        assert!(
            d.cool_duty > 0.3 || d.cap_bus.value() > 10_000.0,
            "hot battery ignored: duty {} cap {:?}",
            d.cool_duty,
            d.cap_bus
        );
    }

    #[test]
    fn upcoming_peak_prepares_teb() {
        // Quiet now, 80 kW pulse later in the window: the solution should
        // either pre-charge the bank now (negative cap power) or plan to
        // discharge it during the pulse.
        let config = SystemConfig::default();
        let mut p = plant(&config);
        p.hees.set_state(Ratio::ONE, Ratio::new(0.4)); // bank part-empty
        let mut mpc = Mpc::new(MpcConfig {
            horizon: 10,
            ..MpcConfig::default()
        });
        let mut loads = vec![Watts::new(2_000.0); 10];
        for sample in loads.iter_mut().skip(5) {
            *sample = Watts::new(80_000.0);
        }
        let d = mpc.solve(&p, &loads, Seconds::new(1.0));
        // Inspect the retained full plan: cap must serve during the pulse.
        let plan = mpc.previous.clone().expect("plan retained");
        let served: f64 = plan[5..10].iter().sum();
        assert!(
            served > 0.2 || d.cap_bus.value() < -500.0,
            "no TEB preparation: plan {plan:?}"
        );
    }

    #[test]
    fn warm_start_reuses_previous_plan() {
        let config = SystemConfig::default();
        let p = plant(&config);
        let mut mpc = Mpc::new(MpcConfig {
            horizon: 6,
            ..MpcConfig::default()
        });
        let loads = vec![Watts::new(20_000.0); 6];
        let first = mpc.solve(&p, &loads, Seconds::new(1.0));
        let second = mpc.solve(&p, &loads, Seconds::new(1.0));
        // Warm-started re-solve of the same problem should converge at
        // least as fast.
        assert!(second.iterations <= first.iterations + 5);
    }

    #[test]
    fn terminal_tail_makes_sustained_cooling_profitable() {
        // The design note in DESIGN.md §5: without the terminal cost a
        // short window cannot see that cooling pays off; with it, the
        // full-cooling rollout must under-cost the no-cooling rollout on
        // a warm battery — and the tail's nominal C-rate must come from
        // the load, not from the cooling-induced battery current. The
        // effect needs the stress rig's fast thermal response (a 284 kJ/K
        // premium pack barely moves in 12 s either way).
        let config = SystemConfig::stress_rig();
        let mut p = plant(&config);
        p.state = ThermalState::uniform(Kelvin::from_celsius(36.0));
        let n = 12;
        let loads = vec![Watts::new(15_000.0); n];
        let dt = Seconds::new(1.0);
        let mut z_cool = vec![0.0; 2 * n];
        z_cool[n..].fill(1.0);
        let z_off = vec![0.0; 2 * n];

        let with_tail = MpcConfig {
            horizon: n,
            ..MpcConfig::default()
        };
        let cool = rollout_cost(&p, &loads, dt, &with_tail, &z_cool);
        let idle = rollout_cost(&p, &loads, dt, &with_tail, &z_off);
        assert!(
            cool < idle,
            "tail should make cooling profitable: cool {cool:.4e} vs idle {idle:.4e}"
        );

        let no_tail = MpcConfig {
            horizon: n,
            terminal_tail: 0.0,
            ..MpcConfig::default()
        };
        let cool_nt = rollout_cost(&p, &loads, dt, &no_tail, &z_cool);
        let idle_nt = rollout_cost(&p, &loads, dt, &no_tail, &z_off);
        assert!(
            cool_nt > idle_nt,
            "without the tail a 12 s window cannot justify cooling:              cool {cool_nt:.4e} vs idle {idle_nt:.4e}"
        );
    }

    #[test]
    fn workspace_rollouts_match_clone_based_rollouts_bitwise() {
        // The objective's snapshot/restore path must be indistinguishable
        // from a fresh plant clone per evaluation — including on reuse,
        // when its working copy still carries the previous rollout's end
        // state.
        let config = SystemConfig::default();
        let mut p = plant(&config);
        p.hees.set_state(Ratio::new(0.9), Ratio::new(0.45));
        let cfg = MpcConfig {
            horizon: 6,
            ..MpcConfig::default()
        };
        let loads: Vec<Watts> = (0..6).map(|k| Watts::new(8_000.0 * k as f64)).collect();
        let dt = Seconds::new(1.0);
        let objective =
            RolloutObjective::new(&p, &loads, dt, &cfg, RolloutBuffers::default(), &NullSink);
        let stage = StageConstants::new(&p, &loads, dt, &cfg);
        let cloned = |z: &[f64]| {
            let mut hees = p.hees.clone();
            crate::adjoint::rollout(&p, &mut hees, &loads, &stage, &cfg, z, &mut Vec::new())
        };
        let mut z = vec![0.0; 12];
        for (i, zi) in z.iter_mut().enumerate() {
            *zi = if i < 6 {
                0.1 * i as f64 - 0.2
            } else {
                0.15 * (i - 6) as f64
            };
        }
        for _ in 0..3 {
            let reused = objective.value(&z);
            assert_eq!(reused.to_bits(), cloned(&z).to_bits());
        }
        assert_eq!(objective.rollouts.get(), 3);
    }

    #[test]
    fn warm_start_shift_advances_the_plan_one_period() {
        let n = 4;
        let prev: Vec<f64> = vec![
            0.8, 0.4, -0.6, 0.2, // cap shares
            0.1, 0.9, 0.3, 0.7, // duties
        ];
        // Whole-index shift, tail repeated.
        let mut shifted = vec![0.0; 2 * n];
        warm_start_shift(&mut shifted, &prev, n);
        assert_eq!(shifted, vec![0.4, -0.6, 0.2, 0.2, 0.9, 0.3, 0.7, 0.7]);
    }

    /// A cold-started [`Mpc::solve_from`] must decide bit for bit what a
    /// fresh controller's first [`Mpc::solve`] does.
    fn assert_cold_solve_matches(plant: &MpcPlant, cold: &Solution, fresh: &MpcDecision) {
        let n = cold.x.len() / 2;
        let cap_bus = cold.x[0] * plant.cap_power_max.value();
        assert_eq!(cap_bus.to_bits(), fresh.cap_bus.value().to_bits());
        assert_eq!(cold.x[n].to_bits(), fresh.cool_duty.to_bits());
        assert_eq!(cold.value.to_bits(), fresh.cost.to_bits());
        assert_eq!(cold.iterations, fresh.iterations);
    }

    #[test]
    fn workspace_is_rebuilt_on_plant_change() {
        // Solving for one plant and then, from a cold start (the route
        // planner's path: an explicit all-zero start), for a
        // differently-parameterised one must roll out the second plant:
        // each decision matches a fresh controller's bit for bit.
        let config = SystemConfig::default();
        let p = plant(&config);
        let mut other = MpcPlant::new(&SystemConfig {
            capacitance: Farads::new(5_000.0),
            ..config.clone()
        })
        .unwrap();
        other.hees.set_state(Ratio::new(0.7), Ratio::new(0.7));
        assert_ne!(other.hees, p.hees);
        let loads: Vec<Watts> = (0..4).map(|k| Watts::new(12_000.0 * k as f64)).collect();
        let dt = Seconds::new(1.0);
        let cfg = MpcConfig {
            horizon: 4,
            ..MpcConfig::default()
        };
        let mut reused = Mpc::new(cfg);
        for q in [&p, &other] {
            let a = reused.solve_from(q, &loads, dt, &[0.0; 8]);
            let b = Mpc::new(cfg).solve(q, &loads, dt);
            assert_cold_solve_matches(q, &a, &b);
        }
    }

    #[test]
    fn observed_solve_is_bit_identical_and_traces_solver_traffic() {
        use otem_telemetry::MemorySink;
        let config = SystemConfig::default();
        let mut p = plant(&config);
        p.state = ThermalState::uniform(Kelvin::from_celsius(36.0));
        let loads = vec![Watts::new(30_000.0); 6];
        let cfg = MpcConfig {
            horizon: 6,
            ..MpcConfig::default()
        };
        let mut plain_mpc = Mpc::new(cfg);
        let mut observed_mpc = Mpc::new(cfg);
        let sink = MemorySink::new();
        for period in 0..2 {
            let plain = plain_mpc.solve(&p, &loads, Seconds::new(1.0));
            let observed = observed_mpc.solve_with(&p, &loads, Seconds::new(1.0), &sink);
            assert_eq!(
                plain.cap_bus.value().to_bits(),
                observed.cap_bus.value().to_bits(),
                "period {period}"
            );
            assert_eq!(plain.cool_duty.to_bits(), observed.cool_duty.to_bits());
            assert_eq!(plain.cost.to_bits(), observed.cost.to_bits());
            assert_eq!(plain.iterations, observed.iterations);
        }
        // Every differentiated point left a trace, and every solve one
        // outcome.
        assert!(sink.count_kind("gradient_eval") > 0);
        assert_eq!(sink.count_kind("solve_outcome"), 2);
    }

    #[test]
    fn observed_solve_nests_phase_spans_under_mpc_solve() {
        use otem_telemetry::{Event as TEvent, MemorySink};
        let config = SystemConfig::default();
        let p = plant(&config);
        let loads = vec![Watts::new(30_000.0); 6];
        let mut mpc = Mpc::new(MpcConfig {
            horizon: 6,
            solver_iterations: 4,
            ..MpcConfig::default()
        });
        let sink = MemorySink::new();
        mpc.solve_with(&p, &loads, Seconds::new(1.0), &sink);
        let events = sink.events();
        let starts: Vec<(&str, u64, u64)> = events
            .iter()
            .filter_map(|e| match e {
                TEvent::SpanStart {
                    name, id, parent, ..
                } => Some((*name, *id, *parent)),
                _ => None,
            })
            .collect();
        let (_, solve_id, solve_parent) = *starts
            .iter()
            .find(|(name, ..)| *name == "mpc_solve")
            .expect("mpc_solve span");
        assert_eq!(solve_parent, 0, "mpc_solve is the root here");
        let (_, _, parent) = *starts
            .iter()
            .find(|(name, ..)| *name == "warm_start")
            .expect("warm_start span");
        assert_eq!(parent, solve_id, "warm_start must nest under mpc_solve");
        for phase in ["iteration", "gradient", "line_search", "rollout"] {
            assert!(
                starts.iter().any(|(name, ..)| *name == phase),
                "missing {phase} span"
            );
        }
        // Balanced: every start has its end.
        assert_eq!(
            sink.count_kind("span_start"),
            sink.count_kind("span_end"),
            "unbalanced span stream"
        );
    }

    #[test]
    fn one_set_of_buffers_serves_every_solve() {
        use otem_telemetry::MemorySink;
        let config = SystemConfig::default();
        let mut p = plant(&config);
        p.state = ThermalState::uniform(Kelvin::from_celsius(36.0));
        let loads = vec![Watts::new(30_000.0); 6];
        let mut mpc = Mpc::new(MpcConfig {
            horizon: 6,
            ..MpcConfig::default()
        });
        let sink = MemorySink::new();
        for _ in 0..2 {
            let d = mpc.solve_with(&p, &loads, Seconds::new(1.0), &sink);
            assert!(d.cost.is_finite());
        }
        // One set of buffers, held from the first solve into the second.
        assert_eq!(mpc.buffers.tape.len(), 6);
        // Telemetry keeps flowing unchanged through the same spans.
        assert!(sink.count_kind("gradient_eval") > 0);
    }

    #[test]
    fn cold_started_solves_never_reuse_a_previous_solves_tape() {
        // Every solve starts from the same explicit all-zero x0, so a
        // tape memo that outlived its solve would hand the second plant
        // the first plant's gradient. Each decision must match a fresh
        // controller's bit for bit.
        let config = SystemConfig::default();
        let loads: Vec<Watts> = (0..6)
            .map(|k| Watts::new(10_000.0 + 8_000.0 * k as f64))
            .collect();
        let dt = Seconds::new(1.0);
        let cfg = MpcConfig {
            horizon: 6,
            ..MpcConfig::default()
        };
        let mut reused = Mpc::new(cfg);
        for (celsius, soc) in [(30.0, 0.8), (39.0, 0.4), (30.0, 0.8)] {
            let mut p = plant(&config);
            p.hees.set_state(Ratio::new(soc), Ratio::new(0.5));
            p.state = ThermalState::uniform(Kelvin::from_celsius(celsius));
            let a = reused.solve_from(&p, &loads, dt, &[0.0; 12]);
            let b = Mpc::new(cfg).solve(&p, &loads, dt);
            assert_cold_solve_matches(&p, &a, &b);
        }
    }

    #[test]
    fn gradient_retapes_unless_asked_at_the_last_evaluated_point() {
        let config = SystemConfig::default();
        let mut p = plant(&config);
        p.state = ThermalState::uniform(Kelvin::from_celsius(36.0));
        let n = 6;
        let cfg = MpcConfig {
            horizon: n,
            ..MpcConfig::default()
        };
        let loads = vec![Watts::new(30_000.0); n];
        let dt = Seconds::new(1.0);
        let z: Vec<f64> = (0..2 * n).map(|i| 0.05 * i as f64 - 0.1).collect();
        let other: Vec<f64> = z.iter().map(|v| v + 0.03).collect();
        let reference = |p: &MpcPlant, x: &[f64]| {
            let mut g = vec![0.0; 2 * n];
            rollout_gradient_adjoint(p, &loads, dt, &cfg, x, &mut g);
            g
        };
        let bits = |g: &[f64]| g.iter().map(|v| v.to_bits()).collect::<Vec<_>>();

        let objective =
            RolloutObjective::new(&p, &loads, dt, &cfg, RolloutBuffers::default(), &NullSink);
        let mut grad = vec![0.0; 2 * n];
        objective.value(&z);
        // At the evaluated point: the stored tape, no new forward pass.
        objective.gradient(&z, &mut grad);
        assert_eq!(bits(&grad), bits(&reference(&p, &z)));
        assert_eq!(objective.rollouts.get(), 1);
        // Anywhere else: a fresh tape.
        objective.gradient(&other, &mut grad);
        assert_eq!(bits(&grad), bits(&reference(&p, &other)));
        assert_eq!(objective.rollouts.get(), 2);

        // A new objective on the first one's buffers: the same decision
        // vector from a different start state must not hit the old tape.
        let mut q = p.clone();
        q.hees.set_state(Ratio::new(0.4), Ratio::new(0.3));
        let buffers = objective.buffers.into_inner();
        let objective = RolloutObjective::new(&q, &loads, dt, &cfg, buffers, &NullSink);
        objective.gradient(&other, &mut grad);
        assert_eq!(bits(&grad), bits(&reference(&q, &other)));
        assert_eq!(objective.rollouts.get(), 1);
    }

    #[test]
    fn zero_deadline_returns_warm_start_with_deadline_outcome() {
        use otem_solver::VirtualClock;
        let config = SystemConfig::default();
        let mut p = plant(&config);
        p.state = ThermalState::uniform(Kelvin::from_celsius(36.0));
        let loads = vec![Watts::new(40_000.0); 6];
        let mut mpc = Mpc::new(MpcConfig {
            horizon: 6,
            ..MpcConfig::default()
        });
        mpc.set_clock(Arc::new(VirtualClock::new()));
        mpc.set_deadline_ns(Some(0));
        assert_eq!(mpc.deadline_ns(), Some(0));
        let d = mpc.solve(&p, &loads, Seconds::new(1.0));
        assert_eq!(d.outcome, SolverOutcome::DeadlineReached);
        assert_eq!(d.iterations, 0);
        assert!(d.cost.is_finite());
        // A first solve's warm start is the all-zero plan: a starved
        // solve hands it back unimproved.
        assert_eq!(d.cap_bus, Watts::ZERO);
        assert_eq!(d.cool_duty, 0.0);

        // Lifting the runtime cap restores the (absent) configured
        // deadline and the solver runs to tolerance again.
        mpc.set_deadline_ns(None);
        assert_eq!(mpc.deadline_ns(), None);
        let restored = mpc.solve(&p, &loads, Seconds::new(1.0));
        assert!(restored.iterations > 0);
        assert_ne!(restored.outcome, SolverOutcome::DeadlineReached);
    }

    #[test]
    fn virtual_clock_deadline_solves_are_bit_identical() {
        use otem_solver::VirtualClock;
        let config = SystemConfig::default();
        let mut p = plant(&config);
        p.state = ThermalState::uniform(Kelvin::from_celsius(36.0));
        let loads = vec![Watts::new(40_000.0); 6];
        let run = || {
            let mut mpc = Mpc::new(MpcConfig {
                horizon: 6,
                deadline_ns: Some(3),
                ..MpcConfig::default()
            });
            // One tick per clock read makes "time" a deterministic
            // function of the solver's own polling sequence.
            mpc.set_clock(Arc::new(VirtualClock::with_tick(1)));
            mpc.solve(&p, &loads, Seconds::new(1.0))
        };
        let (a, b) = (run(), run());
        assert_eq!(a.outcome, SolverOutcome::DeadlineReached);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.cap_bus.value().to_bits(), b.cap_bus.value().to_bits());
        assert_eq!(a.cool_duty.to_bits(), b.cool_duty.to_bits());
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
    }

    #[test]
    fn every_solve_emits_one_solve_outcome_event() {
        use otem_telemetry::{Event as TEvent, MemorySink};
        let config = SystemConfig::default();
        let p = plant(&config);
        let loads = vec![Watts::new(20_000.0); 6];
        let mut mpc = Mpc::new(MpcConfig {
            horizon: 6,
            ..MpcConfig::default()
        });
        let sink = MemorySink::new();
        for _ in 0..3 {
            let d = mpc.solve_with(&p, &loads, Seconds::new(1.0), &sink);
            // Besides spans, a solve emits one `gradient_eval` per
            // differentiated point (one per `gradient` span: the start
            // and every accepted iterate but a budget's last) and then
            // its one `solve_outcome`.
            let differentiated = sink
                .events()
                .iter()
                .filter(|e| {
                    matches!(
                        e,
                        TEvent::SpanStart {
                            name: "gradient",
                            ..
                        }
                    )
                })
                .count();
            let budget_spent = d.outcome == SolverOutcome::BudgetExhausted;
            assert_eq!(differentiated, d.iterations + usize::from(!budget_spent));
            let kinds: Vec<&str> = sink
                .events()
                .iter()
                .map(|e| e.kind())
                .filter(|k| !k.starts_with("span_"))
                .collect();
            let mut want = vec!["gradient_eval"; differentiated];
            want.push("solve_outcome");
            assert_eq!(kinds, want);
            sink.clear();
        }
    }

    #[test]
    fn rollout_cost_penalises_shortfall() {
        let config = SystemConfig::default();
        let mut p = plant(&config);
        p.hees.set_state(Ratio::ONE, Ratio::new(0.01)); // bank empty
        let cfg = MpcConfig {
            horizon: 3,
            ..MpcConfig::default()
        };
        let loads = vec![Watts::new(20_000.0); 3];
        // Command the empty bank to serve everything: big shortfall.
        let mut z = vec![0.0; 6];
        z[0] = 0.5;
        z[1] = 0.5;
        z[2] = 0.5;
        let bad = rollout_cost(&p, &loads, Seconds::new(1.0), &cfg, &z);
        let good = rollout_cost(&p, &loads, Seconds::new(1.0), &cfg, &[0.0; 6]);
        assert!(bad > good, "shortfall not penalised: {bad} vs {good}");
    }

    #[test]
    #[should_panic(expected = "MpcConfig::horizon must be at least 1 step")]
    fn zero_horizon_is_rejected_at_construction() {
        let _ = Mpc::new(MpcConfig {
            horizon: 0,
            ..MpcConfig::default()
        });
    }

    #[test]
    fn only_differentiated_points_pay_for_a_derivative_assembly() {
        // Sixty closed-loop stress-rig decisions over US06. Every
        // gradient sweeps exactly once, over the accepted trial's
        // records; every rejected line-search trial is a forward pass
        // that is never swept, and neither is the final accepted trial of
        // a solve that runs out of budget.
        use otem_drivecycle::{standard, Powertrain, StandardCycle, VehicleParams};
        use otem_telemetry::{Event as TEvent, MemorySink};
        let config = SystemConfig::stress_rig();
        let trace = Powertrain::new(VehicleParams::compact_ev())
            .unwrap()
            .power_trace(&standard(StandardCycle::Us06).unwrap());
        let dt = Seconds::new(1.0);
        let mut p = MpcPlant::new(&config).unwrap();
        let cfg = MpcConfig::default();
        let mut mpc = Mpc::new(cfg);
        let sink = MemorySink::with_capacity(1 << 16);
        let (mut gradient_evals, mut trials, mut accepted, mut exhausted) = (0, 0, 0, 0);
        for k in 0..60 {
            let loads = trace.window(k, cfg.horizon);
            let d = mpc.solve_with(&p, &loads, dt, &sink);
            let events = sink.events();
            let searches: Vec<u64> = events
                .iter()
                .filter_map(|e| match e {
                    TEvent::SpanStart {
                        name: "line_search",
                        id,
                        ..
                    } => Some(*id),
                    _ => None,
                })
                .collect();
            trials += events
                .iter()
                .filter(|e| {
                    matches!(e, TEvent::SpanStart { name: "rollout", parent, .. }
                        if searches.contains(parent))
                })
                .count() as u64;
            gradient_evals += sink.count_kind("gradient_eval") as u64;
            accepted += d.iterations as u64;
            exhausted += u64::from(d.outcome == SolverOutcome::BudgetExhausted);
            sink.clear();

            p.apply(loads[0], d.cap_bus, d.cool_duty, dt);
        }
        let rejected = trials - accepted;
        assert!(rejected > 0, "no line-search trial was rejected");
        assert!(exhausted > 0, "no solve ran out of budget");
        assert_eq!(mpc.rollouts() - gradient_evals, rejected + exhausted);
    }
}
