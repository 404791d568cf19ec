//! Reverse-mode (adjoint) gradient of the MPC rollout objective.
//!
//! Finite differences price a gradient at `4·horizon` rollouts (central
//! differences over `2·horizon` coordinates). The adjoint method gets
//! the same gradient from **one** rollout: a forward pass records, per
//! horizon step, the operating point of the executed branch of every
//! component model (the *tape*), and a backward sweep chain-rules the
//! stage costs and the terminal TEB penalty through the exact partials
//! of those branches back to the decision vector.
//!
//! # Derivation sketch
//!
//! Write the rollout as a chain of per-step maps. Step `k` consumes the
//! state `s_k = (T_b, T_c, SoC, SoE)` and the decisions
//! `(u_k, d_k) = (z[k], z[n+k])`, produces `s_{k+1}` and a stage cost
//! `ℓ_k`, and the horizon ends with the terminal tail `ℓ_N(T_b)`. The
//! adjoint `λ_k = ∂(ℓ_k + … + ℓ_N)/∂s_k` satisfies the backward
//! recursion
//!
//! ```text
//! λ_N = ∂ℓ_N/∂s_N,      λ_k = (∂s_{k+1}/∂s_k)ᵀ λ_{k+1} + ∂ℓ_k/∂s_k,
//! ∂J/∂(u_k, d_k) = (∂s_{k+1}/∂(u_k, d_k))ᵀ λ_{k+1} + ∂ℓ_k/∂(u_k, d_k),
//! ```
//!
//! where every factor comes from the analytic per-branch partials the
//! component crates expose: [`otem_hees::HybridHees::step_pullback`]
//! maps the adjoints of the power split's outputs straight onto its
//! inputs (the transposed step Jacobian applied to a vector, with no
//! matrix in between), [`otem_thermal::CrankNicolsonJacobian`] serves
//! the thermal update, [`otem_battery::AgingParams::loss_rate_partials`]
//! the wear term, and the cooling-plant slopes the actuation chain. The
//! objective is piecewise-smooth (`relu²` penalties, per-branch clamps);
//! the sweep differentiates exactly the branch the forward pass
//! executed, so away from the measure-zero kink set the result matches
//! finite differences to roundoff.
//!
//! *On* the kink set — which the solver's all-zero cold start sits
//! squarely on — no subgradient choice is canonical, so the sweep adopts
//! the conventions a central finite difference implies: half the
//! one-sided slope where the duty clamp flattens one leg of the stencil,
//! and the mean of the one-sided slopes across the converter's
//! zero-transfer kink (see [`otem_hees::HybridHees::step_pullback`]).
//! Matching the finite-difference oracle's subgradient conventions
//! keeps an adjoint solve on the first move an FD-driven solve takes
//! (`tests/gradient_parity.rs`).
//!
//! There is one rollout implementation, [`rollout`], and it computes
//! values only: [`crate::mpc::rollout_cost`] and every MPC objective
//! evaluation run it, and it writes a primal [`StageRecord`] per step
//! whatever the caller goes on to do. The derivatives are built from
//! those records by [`adjoint_sweep`] itself, only at the points a solver
//! differentiates (see "Tape reuse" below), so the sweep evaluates no
//! model curve of its own and the forward arithmetic cannot depend on
//! whether a gradient follows.
//!
//! # Stage constants
//!
//! Whatever a stage needs that depends on neither the decisions nor the
//! step index — the step length, the bank's leak factor, the
//! Crank–Nicolson step (an affine map whose coefficients are its own
//! Jacobian), the terminal tail's C-rate —
//! lives in one `Copy` [`StageConstants`] block, built once per solve by
//! the MPC (once per call by the standalone entry points) and read by
//! every stage, the terminal cost and both sweeps. Within a stage each
//! state-dependent curve is evaluated once: the plant step shares one
//! battery curve evaluation and one bank `√SoE` between the draw, the
//! heat law and the converter voltage, and the partials reuse the
//! recorded exponentials. Each hoisted value is the same expression,
//! evaluated in the same order, as the per-step code it replaced, so the
//! hoisting changes no bit of any result.
//!
//! # Tape reuse
//!
//! The tape is split in two. Every rollout — accepted or rejected
//! line-search trial alike — writes the
//! *primal* record of each stage: the pack curves with their
//! exponentials already evaluated, the resolved battery and bank draws,
//! the converter operating points and the pre-step state of energy
//! ([`otem_hees::HeesStepRecord`]), the post-step state, the aging rate
//! and the cooler branch. Nothing in that pass computes a derivative; the
//! aging partials are priced from the recorded rate alone (its stress
//! partial is `l3·rate/c`), so the tape carries no Arrhenius factor.
//!
//! The *derivatives* — the HEES pullback, the aging partials and the
//! cooler's branch slope — are evaluated from each stage's record by the
//! backward sweep when it reaches that stage and consumed on the spot:
//! the HEES pullback takes the six output adjoints (delivered, internal
//! power, heat, C-rate, SoC⁺, SoE⁺) and returns the five input adjoints
//! (both bus commands, temperature, SoC, SoE), each leg filling only the
//! inputs it reads. No derivative is written to memory only to be read
//! back: the sweep is the gradient's one derivative pass.
//!
//! The MPC's rollout buffers remember the decision vector their records
//! belong to. The solver only asks for a gradient at the trial their line
//! search has just accepted — the last point evaluated — so a gradient
//! sweeps the stored records instead of running a second, identical
//! forward pass; a gradient at any other point records afresh first. A
//! rejected trial pays for its values and nothing else. The memo lives
//! for one solve only: the start state, forecast and step change between
//! solves while the decision vector can repeat (an all-zero cold start),
//! so each solve's objective forgets it when it is built.

use crate::mpc::{MpcConfig, MpcPlant};
use otem_hees::{HeesOutputAdjoints, HeesStepConstants, HeesStepRecord, HybridCommand, HybridHees};
use otem_thermal::{CrankNicolsonCoefficients, ThermalState};
use otem_units::{Kelvin, Seconds, Watts};

// Eq. 19 weights and the C1/C4–C6 penalties. Only `w2` (lifetime
// against energy) is a studied trade-off and stays an [`MpcConfig`]
// field; the rest have one value and are read only by the stage cost,
// the terminal tail and the backward sweep below.

/// `w1`: weight on cooling energy `P_c·Δt` (per joule).
pub(crate) const W1: f64 = 1.0;
/// `w3`: weight on HEES energy `dE_bat + dE_cap` (per joule).
pub(crate) const W3: f64 = 1.0;
/// Soft ceiling for the battery temperature (K): 38 °C, a margin below
/// the hard C1 limit.
const TEMP_SOFT: f64 = Kelvin::from_celsius(38.0).value();
/// Penalty weight per K² of soft-ceiling violation per step.
const TEMP_PENALTY: f64 = 5.0e5;
/// Penalty weight per unit² of SoC/SoE bound violation per step.
const STATE_PENALTY: f64 = 1.0e10;
/// Penalty weight per W² of unserved load per step.
const SHORTFALL_PENALTY: f64 = 1.0e-2;
/// Penalty weight per W² of battery bus-power limit violation.
const POWER_PENALTY: f64 = 1.0e-3;

/// Everything about a rollout stage that depends on neither the decision
/// vector nor the step index: built once per solve by the MPC (once per
/// call by the standalone entry points) and shared by every forward
/// stage, the terminal tail and both backward sweeps.
///
/// Each member is computed by the same expression, in the same order,
/// that its per-step evaluation used, so hoisting it changes no bit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StageConstants {
    /// HEES step constants: the control period and the bank's leak
    /// factor over it.
    hees: HeesStepConstants,
    /// The Crank–Nicolson step at `dt`: an affine map whose linear part
    /// is also its Jacobian, constant as the two-node model is linear.
    cn: CrankNicolsonCoefficients,
    /// The terminal tail's nominal per-cell C-rate, a constant of the
    /// forecast and the start state.
    terminal_c_rate: f64,
}

impl StageConstants {
    pub(crate) fn new(plant: &MpcPlant, loads: &[Watts], dt: Seconds, config: &MpcConfig) -> Self {
        Self {
            hees: plant.hees.step_constants(dt),
            cn: plant.thermal.crank_nicolson_coefficients(dt),
            terminal_c_rate: terminal_c_rate(plant, loads, config.horizon),
        }
    }

    /// The control period.
    fn dt(&self) -> Seconds {
        self.hees.dt()
    }
}

/// One horizon step's primal record, written by every rollout: the
/// values the step computed, and the operating points
/// [`adjoint_sweep`] needs to differentiate the branch that
/// actually executed. No derivative is computed to fill it.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StageRecord {
    /// The HEES step's operating points.
    hees: HeesStepRecord,
    /// Post-step battery temperature (K) — state of the stage aging cost
    /// and the soft-ceiling penalty.
    battery_post: f64,
    /// The step's per-cell C-rate — the aging stress input.
    c_rate: f64,
    /// Stage aging rate `ℓ(T_b, c)` — the one the stage cost summed,
    /// from which the aging partials are priced.
    loss_rate: f64,
    /// Unserved load (W); its penalty is active iff positive.
    shortfall: f64,
    /// Post-step state of charge.
    soc_post: f64,
    /// Post-step state of energy.
    soe_post: f64,
    /// Commanded battery bus power (W) — state of the C6 penalty.
    battery_bus: f64,
    /// The raw duty decision `z[n + k]`.
    z_duty: f64,
    /// Cooler duty after clamping to `[0, 1]`.
    duty: f64,
    /// Coolant outlet temperature (K) — the cooler's operating point.
    outlet: f64,
    /// Achievable inlet drop `T_o − coldest(T_o)` (K).
    delta: f64,
    /// Whether the cooler drew power (`duty·Δ > 0`) — or would at any
    /// positive duty (`duty = 0`, `Δ > 0`): the branch a one-sided duty
    /// perturbation executes, which is what the duty gradient prices.
    cooler_active: bool,
}

/// Simulates the horizon under the candidate controls `z` and returns
/// the Eq. 19 cost plus constraint penalties — the single rollout
/// implementation behind the MPC objective and every standalone entry
/// point. Computes values only, and overwrites `tape` with one
/// [`StageRecord`] per step (resized to the horizon, its capacity
/// reused).
///
/// `hees` must already be in the plant's start state
/// (`hees == plant.hees`); it is left in the end-of-horizon state.
/// Allocation-free once the tape has reached horizon length.
pub(crate) fn rollout(
    plant: &MpcPlant,
    hees: &mut HybridHees,
    loads: &[Watts],
    stage: &StageConstants,
    config: &MpcConfig,
    z: &[f64],
    tape: &mut Vec<StageRecord>,
) -> f64 {
    let n = config.horizon;
    debug_assert_eq!(z.len(), 2 * n);
    tape.resize(n, StageRecord::default());
    let mut state = plant.state;
    let mut cost = 0.0;

    for (k, record) in tape.iter_mut().enumerate() {
        let load = loads.get(k).copied().unwrap_or(Watts::ZERO);
        state = rollout_stage(
            plant,
            hees,
            state,
            load,
            z[k],
            z[n + k],
            stage,
            config,
            &mut cost,
            record,
        );
    }

    rollout_terminal(plant, state, stage, config, &mut cost);
    cost
}

/// One horizon step of the rollout: actuation chain, HEES power split,
/// thermal update, and the Eq. 19 stage cost.
///
/// Accumulates directly into the caller's `cost` (preserving the
/// rollout's float summation order), writes the step's primal `record`
/// and returns the post-step thermal state. `z_cap`/`z_duty` are the
/// step's raw decision entries (`z[k]`, `z[n + k]`).
#[allow(clippy::too_many_arguments)]
fn rollout_stage(
    plant: &MpcPlant,
    hees: &mut HybridHees,
    mut state: ThermalState,
    load: Watts,
    z_cap: f64,
    z_duty: f64,
    stage: &StageConstants,
    config: &MpcConfig,
    cost: &mut f64,
    record: &mut StageRecord,
) -> ThermalState {
    let dtv = stage.dt().value();
    let cap_bus = Watts::new(z_cap * plant.cap_power_max.value());
    let duty = z_duty.clamp(0.0, 1.0);

    // Cooling actuation: duty scales the inlet drop toward the
    // coldest achievable; price it with Eq. 16.
    let outlet = state.coolant;
    let coldest = plant.plant.coldest_inlet(outlet);
    let inlet = Kelvin::new(outlet.value() - duty * (outlet.value() - coldest.value()));
    let action = plant.plant.actuate(outlet, inlet);
    // Smooth relaxation of the pump's on/off behaviour: the rollout
    // prices the pump proportionally to the duty so the objective
    // stays differentiable at duty = 0 (the applied move re-imposes
    // the real on/off gate).
    let cooling_electric = action.cooler_power + action.pump_power * duty;

    // Bus power balance pins the battery's share.
    let battery_bus = load + cooling_electric - cap_bus;
    let command = HybridCommand {
        battery_bus,
        cap_bus,
    };
    let step = hees.step_prepared(command, state.battery, &stage.hees, &mut record.hees);

    state = stage.cn.step(state, step.battery_heat, action.inlet);

    // --- Eq. 19 terms ---------------------------------------------
    *cost += W1 * cooling_electric.value() * dtv;
    let loss_rate = plant.aging.loss_rate(state.battery, step.battery_c_rate);
    *cost += config.w2 * (loss_rate * dtv);
    *cost += W3 * step.hees_power().value() * dtv;

    // --- Constraint penalties ---------------------------------------
    let over_t = (state.battery.value() - TEMP_SOFT).max(0.0);
    *cost += TEMP_PENALTY * over_t * over_t;

    let soc_short = (plant.soc_min.value() - hees.soc().value()).max(0.0);
    let soe_short = (plant.soe_min.value() - hees.soe().value()).max(0.0);
    *cost += STATE_PENALTY * (soc_short * soc_short + soe_short * soe_short);

    *cost += SHORTFALL_PENALTY * step.shortfall.value().powi(2);

    let over_p = (battery_bus.value().abs() - plant.battery_power_max.value()).max(0.0);
    *cost += POWER_PENALTY * over_p * over_p;

    record.battery_post = state.battery.value();
    record.c_rate = step.battery_c_rate;
    record.loss_rate = loss_rate;
    record.shortfall = step.shortfall.value();
    record.soc_post = hees.soc().value();
    record.soe_post = hees.soe().value();
    record.battery_bus = battery_bus.value();
    record.z_duty = z_duty;
    record.duty = duty;
    record.outlet = outlet.value();
    record.delta = outlet.value() - coldest.value();
    record.cooler_active = action.cooler_power.value() > 0.0 || (duty == 0.0 && outlet > coldest);
    state
}

/// Terminal cost: the horizon is far shorter than the pack's thermal
/// time constant, so value the end-of-horizon temperature as if the
/// route's stress persisted for `terminal_tail` seconds. The nominal
/// C-rate is derived from the *load forecast alone* — deliberately
/// excluding the cooling-induced battery current, which would
/// otherwise make the tail punish the very cooling that lowers the
/// terminal temperature. Like [`rollout_stage`], accumulates directly
/// into the caller's `cost`.
fn rollout_terminal(
    plant: &MpcPlant,
    state: ThermalState,
    stage: &StageConstants,
    config: &MpcConfig,
    cost: &mut f64,
) {
    if config.terminal_tail > 0.0 {
        let c_load = stage.terminal_c_rate;
        *cost += config.w2 * plant.aging.loss_rate(state.battery, c_load) * config.terminal_tail;
        let over_t = (state.battery.value() - TEMP_SOFT).max(0.0);
        *cost +=
            TEMP_PENALTY * over_t * over_t * (config.terminal_tail / stage.dt().value().max(1e-9));
    }
}

/// The terminal tail's nominal per-cell C-rate — a constant of the load
/// forecast and the *unrolled* plant, evaluated once into
/// [`StageConstants`] and shared between the forward cost and the
/// backward sweeps.
fn terminal_c_rate(plant: &MpcPlant, loads: &[Watts], n: usize) -> f64 {
    let mean_load: f64 = loads.iter().take(n).map(|p| p.value().abs()).sum::<f64>() / n as f64;
    let pack = plant.hees.battery();
    let pack_voltage = pack.open_circuit_voltage().value().max(1.0);
    let cell_current = mean_load / pack_voltage / pack.config().parallel as f64;
    (cell_current / pack.cell().effective_capacity().value()).max(0.2)
}

/// Backward sweep over a recorded tape: evaluates each stage's partials
/// from its record as the loop reaches it and chain-rules every stage
/// cost and the terminal tail back through the thermal map, the HEES
/// pullback and the cooling-plant slopes, writing `∂J/∂z` into `grad`
/// (layout `[cap_share_0..n-1, cool_duty_0..n-1]`). The one derivative
/// pass of a gradient: no rollouts, and no derivative matrix.
pub(crate) fn adjoint_sweep(
    plant: &MpcPlant,
    stage: &StageConstants,
    config: &MpcConfig,
    tape: &[StageRecord],
    grad: &mut [f64],
) {
    let n = tape.len();
    debug_assert_eq!(n, config.horizon);
    debug_assert_eq!(grad.len(), 2 * n);
    if n == 0 {
        return;
    }
    let dtv = stage.dt().value();
    let jt = stage.cn.jacobian();
    let flow_over_eff = plant.plant.flow_over_efficiency();
    let pump = plant.plant.params().pump_power.value();
    let cap_max = plant.cap_power_max.value();

    // Adjoints of the *post-step* state (T_b, T_c, SoC, SoE), seeded by
    // the terminal tail (a function of the final battery temperature
    // alone — its nominal C-rate is a constant of the forecast).
    let (mut l_tb, mut l_tc, mut l_s, mut l_e) = (0.0, 0.0, 0.0, 0.0);
    if config.terminal_tail > 0.0 {
        let c_load = stage.terminal_c_rate;
        let tb_n = tape[n - 1].battery_post;
        let rate = plant.aging.loss_rate(Kelvin::new(tb_n), c_load);
        let (d_temp, _) = plant
            .aging
            .loss_rate_partials(Kelvin::new(tb_n), c_load, rate);
        l_tb += config.w2 * d_temp * config.terminal_tail;
        let over_t = (tb_n - TEMP_SOFT).max(0.0);
        l_tb += 2.0 * TEMP_PENALTY * over_t * (config.terminal_tail / dtv.max(1e-9));
    }

    for k in (0..n).rev() {
        let t = &tape[k];
        // The aging partials, priced from the recorded rate.
        let (d_loss_t, d_loss_c) =
            plant
                .aging
                .loss_rate_partials(Kelvin::new(t.battery_post), t.c_rate, t.loss_rate);

        // Total adjoints of the post-step state: the incoming λ plus the
        // stage cost's own dependence on it (aging and soft penalties).
        let over_t = (t.battery_post - TEMP_SOFT).max(0.0);
        let g_tb = l_tb + config.w2 * dtv * d_loss_t + 2.0 * TEMP_PENALTY * over_t;
        let g_tc = l_tc;
        let soc_short = (plant.soc_min.value() - t.soc_post).max(0.0);
        let soe_short = (plant.soe_min.value() - t.soe_post).max(0.0);

        // Adjoints of the HEES step outputs, pulled back onto its inputs.
        // The shortfall penalty sees `sf = relu(net − delivered)`; the
        // thermal Jacobian routes the battery heat and the achieved inlet
        // into both temperatures.
        let l_net = 2.0 * SHORTFALL_PENALTY * t.shortfall;
        let g_inlet = g_tb * jt.d_inlet[0] + g_tc * jt.d_inlet[1];
        let a = plant.hees.step_pullback(
            &t.hees,
            &stage.hees,
            &HeesOutputAdjoints {
                delivered: -2.0 * SHORTFALL_PENALTY * t.shortfall,
                internal: W3 * dtv,
                heat: g_tb * jt.d_battery_heat[0] + g_tc * jt.d_battery_heat[1],
                c_rate: config.w2 * dtv * d_loss_c,
                soc_next: l_s - 2.0 * STATE_PENALTY * soc_short,
                soe_next: l_e - 2.0 * STATE_PENALTY * soe_short,
            },
        );
        let over_p = (t.battery_bus.abs() - plant.battery_power_max.value()).max(0.0);
        let a_pb = a.battery_bus + l_net + 2.0 * POWER_PENALTY * over_p * t.battery_bus.signum();
        let a_pc = a.cap_bus + l_net;

        // Decision gradients. The bus balance `P_bat = load + CE − P_cap`
        // makes the cap share push the two legs in opposite directions;
        // the duty reaches the cost through the cooling-electric power
        // (w1 term and the bus balance) and the achieved inlet. The duty
        // clamp's chain factor follows the central-difference subgradient
        // convention the golden traces were blessed with: `1` strictly
        // inside `(0, 1)`, `½` exactly *on* a bound (a central difference
        // has one leg flattened by the clamp, halving the one-sided
        // slope), `0` beyond the clamp.
        grad[k] = cap_max * (a_pc - a_pb);

        let a_ce = W1 * dtv + a_pb;
        let active = if t.cooler_active { 1.0 } else { 0.0 };
        let d_ce_d_duty = active * flow_over_eff * t.delta + pump;
        let d_inlet_d_duty = -t.delta;
        let duty_gain = if t.z_duty == 0.0 || t.z_duty == 1.0 {
            0.5
        } else if (0.0..=1.0).contains(&t.z_duty) {
            1.0
        } else {
            0.0
        };
        grad[n + k] = duty_gain * (a_ce * d_ce_d_duty + g_inlet * d_inlet_d_duty);

        // Chain to the pre-step state. The coolant temperature feeds the
        // thermal map directly *and* the actuation chain (outlet →
        // coldest → Δ → inlet, cooling power), whose branch slope is
        // `∂coldest/∂T_o` at the outlet; the HEES step saw the pre-step
        // battery temperature and states of charge/energy.
        let dcoldest = plant.plant.coldest_inlet_slope(Kelvin::new(t.outlet));
        let d_inlet_d_tc = 1.0 - t.duty * (1.0 - dcoldest);
        let d_ce_d_tc = active * flow_over_eff * t.duty * (1.0 - dcoldest);
        l_tb = g_tb * jt.d_battery[0] + g_tc * jt.d_coolant[0] + a.temperature;
        l_tc = g_tb * jt.d_battery[1]
            + g_tc * jt.d_coolant[1]
            + a_ce * d_ce_d_tc
            + g_inlet * d_inlet_d_tc;
        l_s = a.soc;
        l_e = a.soe;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use otem_units::Ratio;

    /// The post-step `[SoC, SoE, T_b]` a horizon-1 rollout predicts for
    /// one move, read from its stage record.
    fn predicted(plant: &MpcPlant, load: Watts, z_cap: f64, duty: f64) -> [f64; 3] {
        let config = MpcConfig {
            horizon: 1,
            ..MpcConfig::default()
        };
        let loads = [load];
        let dt = Seconds::new(1.0);
        let stage = StageConstants::new(plant, &loads, dt, &config);
        let mut hees = plant.hees.clone();
        let mut tape = Vec::new();
        rollout(
            plant,
            &mut hees,
            &loads,
            &stage,
            &config,
            &[z_cap, duty],
            &mut tape,
        );
        [tape[0].soc_post, tape[0].soe_post, tape[0].battery_post]
    }

    /// The post-step `[SoC, SoE, T_b]` of the same move applied to the
    /// plant.
    fn applied(plant: &MpcPlant, load: Watts, z_cap: f64, duty: f64) -> [f64; 3] {
        let mut plant = plant.clone();
        let cap_bus = Watts::new(z_cap * plant.cap_power_max.value());
        let s = plant.apply(load, cap_bus, duty, Seconds::new(1.0)).state;
        [s.soc.value(), s.soe.value(), s.battery_temp.value()]
    }

    #[test]
    fn the_plan_predicts_the_applied_step_but_for_the_unpriced_pump() {
        let mut plant = MpcPlant::new(&SystemConfig::stress_rig()).unwrap();
        plant.hees.set_state(Ratio::new(0.8), Ratio::new(0.6));
        plant.state = ThermalState {
            battery: Kelvin::from_celsius(37.0),
            coolant: Kelvin::from_celsius(33.0),
        };
        let pump = plant.plant.params().pump_power;
        for (load, z_cap) in [(20_000.0, 0.1), (45_000.0, 0.4), (-15_000.0, -0.2)] {
            let load = Watts::new(load);
            // At either end of the duty range the rollout's proportional
            // pump price is the plant's on/off pump: one step, bit for bit.
            for duty in [0.0, 1.0] {
                let bits = |s: [f64; 3]| s.map(f64::to_bits);
                assert_eq!(
                    bits(predicted(&plant, load, z_cap, duty)),
                    bits(applied(&plant, load, z_cap, duty)),
                    "{load:?} {z_cap} at duty {duty}"
                );
            }
            // Inside the range (and above the plant's 1e-3 pump gate) the
            // plant runs the whole pump while the rollout prices
            // `pump·duty`: the applied step is the prediction at the load
            // plus the unpriced share. The two battery bus powers sum the
            // same watts in a different order, a few ulp of the largest
            // term apart, which moves each state by at most an ulp of its
            // own (1 ulp measured over 94,392 moves), so the bound is
            // 2·ε relative.
            for duty in [0.25, 0.5, 0.9] {
                let unpriced = pump * (1.0 - duty);
                let want = predicted(&plant, load + unpriced, z_cap, duty);
                let got = applied(&plant, load, z_cap, duty);
                for (name, (g, w)) in ["SoC", "SoE", "T_b"].iter().zip(got.iter().zip(want)) {
                    assert!(
                        (g - w).abs() <= 2.0 * f64::EPSILON * w.abs(),
                        "{load:?} {z_cap} at duty {duty}: {name} applied {g} vs predicted {w}"
                    );
                }
            }
        }
    }
}
