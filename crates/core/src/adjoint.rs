//! Reverse-mode (adjoint) gradient of the MPC rollout objective.
//!
//! Finite differences price a gradient at `4·horizon` rollouts (central
//! differences over `2·horizon` coordinates). The adjoint method gets
//! the same gradient from **one** rollout: a forward pass records, per
//! horizon step, the exact Jacobian of the executed branch of every
//! component model (the *tape*), and a backward sweep chain-rules the
//! stage costs and the terminal TEB penalty through that tape back to
//! the decision vector.
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
//! where every factor is assembled from the analytic per-branch partials
//! the component crates expose: [`otem_hees::HeesStepJacobian`] for the
//! power split, [`otem_thermal::CrankNicolsonJacobian`] for the thermal
//! update, [`otem_battery::AgingParams::loss_rate_and_partials`] for the
//! wear term, and the cooling-plant slopes for the actuation chain. The
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
//! zero-transfer kink (see [`otem_hees::HybridHees::step_with_jacobian`]).
//! Matching the finite-difference oracle's subgradient conventions
//! keeps the production adjoint mode on the same closed-loop physics
//! as the FD golden trace (`tests/golden/otem_fd.csv`).
//!
//! There is one rollout implementation: [`rollout_cost_taped`] with
//! `tape = None` is the plain cost evaluation
//! ([`crate::mpc::rollout_cost`] delegates to it), and with a tape it
//! runs the identical arithmetic through
//! [`otem_hees::HybridHees::step_prepared`] with a Jacobian and the fused
//! [`otem_battery::AgingParams::loss_rate_and_partials`] — bit-identical
//! costs by construction, so taping cannot perturb the objective. The
//! tape also stores every partial the sweeps need, so the backward pass
//! evaluates no model function of its own.
//!
//! # Stage constants
//!
//! Whatever a stage needs that depends on neither the decisions nor the
//! step index — the step length, the bank's leak factor, the
//! Crank–Nicolson operator and its Jacobian, the terminal tail's C-rate —
//! lives in one `Copy` [`StageConstants`] block, built once per solve by
//! the MPC (once per call by the standalone entry points) and read by
//! every stage, the terminal cost and both sweeps. Within a stage each
//! state-dependent curve is evaluated once: the plant step shares one
//! battery curve evaluation and one bank `√SoE` between the draw, the
//! heat law, the converter voltage and the partials. Each hoisted value
//! is the same expression, evaluated in the same order, as the per-step
//! code it replaced, so the hoisting changes no bit of any result.
//!
//! # Tape reuse
//!
//! In the adjoint-family modes the MPC objective tapes *every*
//! evaluation and its workspace remembers the decision vector the tape
//! belongs to. The solvers only ask for a gradient at the trial their
//! line search has just accepted — the last point evaluated — so the
//! gradient runs the backward sweep (and, for Gauss-Newton,
//! [`tape_curvature`]) on the stored tape instead of a second, identical
//! forward pass; a gradient at any other point tapes afresh. Per solver
//! iteration that is `L` taped trials plus one sweep, where re-taping
//! would cost `L` plain trials, one taped forward and one sweep. The
//! memo lives for one solve only: the start state, forecast and step
//! change between solves while the decision vector can repeat (an
//! all-zero cold start), so the workspace pool forgets it on every
//! rebind.

use crate::mpc::{MpcConfig, MpcPlant};
use otem_hees::{HeesStepConstants, HeesStepJacobian, HybridCommand, HybridHees};
use otem_thermal::{CrankNicolsonCoefficients, CrankNicolsonJacobian, ThermalState};
use otem_units::{Kelvin, Seconds, Watts, GAS_CONSTANT};

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
    /// The Crank–Nicolson operator at `dt`.
    cn: CrankNicolsonCoefficients,
    /// Its Jacobian — constant, as the two-node model is linear.
    cn_jacobian: CrankNicolsonJacobian,
    /// The terminal tail's nominal per-cell C-rate, a constant of the
    /// forecast and the start state.
    terminal_c_rate: f64,
}

impl StageConstants {
    pub(crate) fn new(plant: &MpcPlant, loads: &[Watts], dt: Seconds, config: &MpcConfig) -> Self {
        let cn = plant.thermal.crank_nicolson_coefficients(dt);
        Self {
            hees: plant.hees.step_constants(dt),
            cn,
            cn_jacobian: cn.jacobian(),
            terminal_c_rate: terminal_c_rate(plant, loads, config.horizon),
        }
    }

    /// The control period.
    fn dt(&self) -> Seconds {
        self.hees.dt()
    }
}

/// One horizon step's forward-pass record: everything the backward sweep
/// needs to differentiate the branch that actually executed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TapeStep {
    /// Exact partials of the HEES power split at the executed branch.
    jac: HeesStepJacobian,
    /// Post-step battery temperature (K) — state of the stage aging cost
    /// and the soft-ceiling penalty.
    battery_post: f64,
    /// Stage aging rate `ℓ(T_b, c)` and its partials `∂ℓ/∂T_b`, `∂ℓ/∂c`
    /// at the post-step temperature and the step's per-cell C-rate,
    /// evaluated once by the taped forward pass (the rate is the one the
    /// stage cost summed) so neither sweep re-runs the exp/powf chain.
    loss_rate: f64,
    d_loss_t: f64,
    d_loss_c: f64,
    /// Unserved load (W); its penalty is active iff positive.
    shortfall: f64,
    /// Post-step state of charge.
    soc_post: f64,
    /// Post-step state of energy.
    soe_post: f64,
    /// Commanded battery bus power (W) — state of the C6 penalty.
    battery_bus: f64,
    /// Cooler duty after clamping to `[0, 1]`.
    duty: f64,
    /// Achievable inlet drop `T_o − coldest(T_o)` (K).
    delta: f64,
    /// `∂coldest/∂T_o` at the outlet — branch indicator of the plant.
    dcoldest: f64,
    /// Whether the cooler drew power (`duty·Δ > 0`) — or would at any
    /// positive duty (`duty = 0`, `Δ > 0`): the branch a one-sided duty
    /// perturbation executes, which is what the duty gradient prices.
    cooler_active: bool,
    /// Chain factor of the duty clamp, matched to the central-difference
    /// subgradient convention the golden traces were blessed with: `1`
    /// strictly inside `(0, 1)`, `½` exactly *on* a bound (a central
    /// difference has one leg flattened by the clamp, halving the
    /// one-sided slope), `0` beyond the clamp.
    duty_gain: f64,
}

/// Simulates the horizon under the candidate controls `z` and returns
/// the Eq. 19 cost plus constraint penalties — the single rollout
/// implementation behind both the MPC objective and the adjoint forward
/// pass. With `tape = Some(..)` each step additionally records a
/// [`TapeStep`] (the vector is cleared first and its capacity reused);
/// the forward arithmetic is identical either way.
///
/// `hees` must already be in the plant's start state
/// (`hees == plant.hees`); it is left in the end-of-horizon state.
/// Allocation-free once the tape has reached horizon capacity.
pub(crate) fn rollout_cost_taped(
    plant: &MpcPlant,
    hees: &mut HybridHees,
    loads: &[Watts],
    stage: &StageConstants,
    config: &MpcConfig,
    z: &[f64],
    mut tape: Option<&mut Vec<TapeStep>>,
) -> f64 {
    let n = config.horizon;
    debug_assert_eq!(z.len(), 2 * n);
    let mut state = plant.state;
    let mut cost = 0.0;
    if let Some(t) = tape.as_deref_mut() {
        t.clear();
    }

    for k in 0..n {
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
            tape.as_deref_mut(),
        );
    }

    rollout_terminal(plant, state, stage, config, &mut cost);
    cost
}

/// One horizon step of the rollout: actuation chain, HEES power split,
/// thermal update, and the Eq. 19 stage cost.
///
/// Accumulates directly into the caller's `cost` (preserving the
/// rollout's float summation order) and returns the post-step thermal
/// state. `z_cap`/`z_duty` are the step's raw decision entries
/// (`z[k]`, `z[n + k]`).
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
    tape: Option<&mut Vec<TapeStep>>,
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
    let mut jac = HeesStepJacobian::default();
    let step = hees.step_prepared(
        command,
        state.battery,
        &stage.hees,
        tape.is_some().then_some(&mut jac),
    );

    state = stage.cn.step(state, step.battery_heat, action.inlet);

    // --- Eq. 19 terms ---------------------------------------------
    *cost += config.w1 * cooling_electric.value() * dtv;
    // The fused evaluation's rate is bit-identical to `loss_rate`; only
    // a taped pass pays for the partials.
    let (loss_rate, d_loss_t, d_loss_c) = if tape.is_some() {
        plant
            .aging
            .loss_rate_and_partials(state.battery, step.battery_c_rate)
    } else {
        (
            plant.aging.loss_rate(state.battery, step.battery_c_rate),
            0.0,
            0.0,
        )
    };
    *cost += config.w2 * (loss_rate * dtv);
    *cost += config.w3 * step.hees_power().value() * dtv;

    // --- Constraint penalties ---------------------------------------
    let over_t = (state.battery.value() - config.temp_soft.value()).max(0.0);
    *cost += config.temp_penalty * over_t * over_t;

    let soc_short = (plant.soc_min.value() - hees.soc().value()).max(0.0);
    let soe_short = (plant.soe_min.value() - hees.soe().value()).max(0.0);
    *cost += config.state_penalty * (soc_short * soc_short + soe_short * soe_short);

    *cost += config.shortfall_penalty * step.shortfall.value().powi(2);

    let over_p = (battery_bus.value().abs() - plant.battery_power_max.value()).max(0.0);
    *cost += config.power_penalty * over_p * over_p;

    if let Some(t) = tape {
        t.push(TapeStep {
            jac,
            battery_post: state.battery.value(),
            loss_rate,
            d_loss_t,
            d_loss_c,
            shortfall: step.shortfall.value(),
            soc_post: hees.soc().value(),
            soe_post: hees.soe().value(),
            battery_bus: battery_bus.value(),
            duty,
            delta: outlet.value() - coldest.value(),
            dcoldest: plant.plant.coldest_inlet_slope(outlet),
            cooler_active: action.cooler_power.value() > 0.0 || (duty == 0.0 && outlet > coldest),
            duty_gain: {
                let raw = z_duty;
                if raw == 0.0 || raw == 1.0 {
                    0.5
                } else if (0.0..=1.0).contains(&raw) {
                    1.0
                } else {
                    0.0
                }
            },
        });
    }
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
        let over_t = (state.battery.value() - config.temp_soft.value()).max(0.0);
        *cost += config.temp_penalty
            * over_t
            * over_t
            * (config.terminal_tail / stage.dt().value().max(1e-9));
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

/// Backward sweep over a recorded tape: chain-rules every stage cost and
/// the terminal tail back through the thermal, HEES, and cooling-plant
/// Jacobians, writing `∂J/∂z` into `grad` (layout
/// `[cap_share_0..n-1, cool_duty_0..n-1]`). One pass, no rollouts.
pub(crate) fn adjoint_sweep(
    plant: &MpcPlant,
    stage: &StageConstants,
    config: &MpcConfig,
    tape: &[TapeStep],
    grad: &mut [f64],
) {
    let n = tape.len();
    debug_assert_eq!(n, config.horizon);
    debug_assert_eq!(grad.len(), 2 * n);
    if n == 0 {
        return;
    }
    let dtv = stage.dt().value();
    let jt = &stage.cn_jacobian;
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
        let (_, d_temp, _) = plant
            .aging
            .loss_rate_and_partials(Kelvin::new(tb_n), c_load);
        l_tb += config.w2 * d_temp * config.terminal_tail;
        let over_t = (tb_n - config.temp_soft.value()).max(0.0);
        l_tb += 2.0 * config.temp_penalty * over_t * (config.terminal_tail / dtv.max(1e-9));
    }

    for k in (0..n).rev() {
        let t = &tape[k];
        let j = &t.jac;

        // Total adjoints of the post-step state: the incoming λ plus the
        // stage cost's own dependence on it (aging and soft penalties).
        let over_t = (t.battery_post - config.temp_soft.value()).max(0.0);
        let g_tb = l_tb + config.w2 * dtv * t.d_loss_t + 2.0 * config.temp_penalty * over_t;
        let g_tc = l_tc;
        let soc_short = (plant.soc_min.value() - t.soc_post).max(0.0);
        let soe_short = (plant.soe_min.value() - t.soe_post).max(0.0);
        let g_s = l_s - 2.0 * config.state_penalty * soc_short;
        let g_e = l_e - 2.0 * config.state_penalty * soe_short;

        // Adjoints of the HEES step outputs. The shortfall penalty sees
        // `sf = relu(net − delivered)`; the thermal Jacobian routes the
        // battery heat and the achieved inlet into both temperatures.
        let l_delivered = -2.0 * config.shortfall_penalty * t.shortfall;
        let l_net = 2.0 * config.shortfall_penalty * t.shortfall;
        let l_internal = config.w3 * dtv;
        let l_crate = config.w2 * dtv * t.d_loss_c;
        let l_heat = g_tb * jt.d_battery_heat[0] + g_tc * jt.d_battery_heat[1];
        let g_inlet = g_tb * jt.d_inlet[0] + g_tc * jt.d_inlet[1];

        // Pull the output adjoints through the HEES Jacobian onto its
        // five input columns [P_bat, P_cap, T_pre, SoC_pre, SoE_pre].
        let mut a = [0.0; 5];
        for (col, acc) in a.iter_mut().enumerate() {
            *acc = l_delivered * j.delivered[col]
                + l_internal * (j.battery_internal[col] + j.cap_internal[col])
                + l_heat * j.battery_heat[col]
                + l_crate * j.battery_c_rate[col]
                + g_s * j.soc_next[col]
                + g_e * j.soe_next[col];
        }
        let over_p = (t.battery_bus.abs() - plant.battery_power_max.value()).max(0.0);
        let a_pb = a[HeesStepJacobian::IN_BATTERY_BUS]
            + l_net
            + 2.0 * config.power_penalty * over_p * t.battery_bus.signum();
        let a_pc = a[HeesStepJacobian::IN_CAP_BUS] + l_net;

        // Decision gradients. The bus balance `P_bat = load + CE − P_cap`
        // makes the cap share push the two legs in opposite directions;
        // the duty reaches the cost through the cooling-electric power
        // (w1 term and the bus balance) and the achieved inlet.
        grad[k] = cap_max * (a_pc - a_pb);

        let a_ce = config.w1 * dtv + a_pb;
        let active = if t.cooler_active { 1.0 } else { 0.0 };
        let d_ce_d_duty = active * flow_over_eff * t.delta + pump;
        let d_inlet_d_duty = -t.delta;
        grad[n + k] = t.duty_gain * (a_ce * d_ce_d_duty + g_inlet * d_inlet_d_duty);

        // Chain to the pre-step state. The coolant temperature feeds the
        // thermal map directly *and* the actuation chain (outlet →
        // coldest → Δ → inlet, cooling power); the HEES step saw the
        // pre-step battery temperature and states of charge/energy.
        let d_inlet_d_tc = 1.0 - t.duty * (1.0 - t.dcoldest);
        let d_ce_d_tc = active * flow_over_eff * t.duty * (1.0 - t.dcoldest);
        l_tb =
            g_tb * jt.d_battery[0] + g_tc * jt.d_coolant[0] + a[HeesStepJacobian::IN_TEMPERATURE];
        l_tc = g_tb * jt.d_battery[1]
            + g_tc * jt.d_coolant[1]
            + a_ce * d_ce_d_tc
            + g_inlet * d_inlet_d_tc;
        l_s = a[HeesStepJacobian::IN_SOC];
        l_e = a[HeesStepJacobian::IN_SOE];
    }
}

/// Scratch buffers for [`tape_curvature`] — the sensitivity matrix and
/// residual rows, reused across solves so the forward sweep is
/// allocation-free at steady state.
#[derive(Debug, Default, Clone)]
pub(crate) struct CurvatureScratch {
    /// `∂T_b/∂z` of the current step's post-state, one entry per column.
    s_tb: Vec<f64>,
    /// `∂T_c/∂z`.
    s_tc: Vec<f64>,
    /// `∂SoC/∂z`.
    s_soc: Vec<f64>,
    /// `∂SoE/∂z`.
    s_soe: Vec<f64>,
    /// Gradient row of the shortfall residual `net − delivered`.
    row_sf: Vec<f64>,
    /// Gradient row of the bus-power residual `|P_bat| − P_max`.
    row_p: Vec<f64>,
    /// Gradient row of the stage aging loss `ℓ(T_b, c)`.
    row_aging: Vec<f64>,
}

impl CurvatureScratch {
    fn reset(&mut self, m: usize) {
        for v in [
            &mut self.s_tb,
            &mut self.s_tc,
            &mut self.s_soc,
            &mut self.s_soe,
            &mut self.row_sf,
            &mut self.row_p,
            &mut self.row_aging,
        ] {
            v.clear();
            v.resize(m, 0.0);
        }
    }
}

/// Generalized Gauss-Newton curvature of the rollout objective from the
/// *same* tape the gradient sweep consumes — no new model derivatives.
///
/// Every constraint penalty in the objective is a genuine weighted
/// square `p·relu(r)²`, so its Gauss-Newton block is the exact
/// positive-semidefinite outer product `2p·∇r∇rᵀ` of the residual
/// gradient at the executed branch. The residual gradients come from a
/// *forward* sensitivity recursion over the tape: the per-step HEES and
/// Crank–Nicolson Jacobians push `∂(T_b, T_c, SoC, SoE)/∂z` from step
/// to step using exactly the chain factors [`adjoint_sweep`] applies
/// backwards, so gradient and curvature describe the same linearised
/// rollout.
///
/// The `w1`/`w3` economic terms are outer-linear in the model outputs
/// and contribute no Gauss-Newton curvature. The `w2` aging loss is the
/// separable Arrhenius/power-law product `ℓ(T, c) = g(T)·h(c)`, whose
/// *exact* outer Hessian over `(T, c)` follows from the first partials
/// and the public coefficients alone:
///
/// ```text
/// ∂²ℓ/∂T²  = (ℓ_T²/ℓ)·(1 − 2RT/l₂)     ∂²ℓ/∂T∂c = ℓ_T·ℓ_c/ℓ
/// ∂²ℓ/∂c²  = (ℓ_c²/ℓ)·(l₃−1)/l₃
/// ```
///
/// The product is not jointly convex (the 2×2 is indefinite), so the
/// negative eigenvalue is clipped to zero and the dominant eigenpair
/// becomes a rank-one update in decision space — the nearest PSD
/// curvature with the correct relative scale between the temperature
/// and C-rate directions. Where neither a penalty nor the aging term
/// carries curvature the matrix is zero and the Gauss-Newton solver's
/// damping floor degrades it to a spectral gradient step.
///
/// Writes the row-major `2n × 2n` matrix into `hess` (zeroed first).
/// `O(n²)` propagation plus rank-one updates for active residuals only.
pub(crate) fn tape_curvature(
    plant: &MpcPlant,
    stage: &StageConstants,
    config: &MpcConfig,
    tape: &[TapeStep],
    scratch: &mut CurvatureScratch,
    hess: &mut [f64],
) {
    let n = tape.len();
    let m = 2 * n;
    debug_assert_eq!(hess.len(), m * m);
    hess.fill(0.0);
    if n == 0 {
        return;
    }
    let dtv = stage.dt().value();
    let jt = &stage.cn_jacobian;
    let flow_over_eff = plant.plant.flow_over_efficiency();
    let pump = plant.plant.params().pump_power.value();
    let cap_max = plant.cap_power_max.value();
    scratch.reset(m);

    for (k, t) in tape.iter().enumerate().take(n) {
        let j = &t.jac;
        let active = if t.cooler_active { 1.0 } else { 0.0 };
        let d_ce_d_duty = active * flow_over_eff * t.delta + pump;
        let d_ce_d_tc = active * flow_over_eff * t.duty * (1.0 - t.dcoldest);
        let d_inlet_d_duty = -t.delta;
        let d_inlet_d_tc = 1.0 - t.duty * (1.0 - t.dcoldest);
        let p_sign = t.battery_bus.signum();
        let aging = aging_eigenpair(plant, config, t);

        for col in 0..m {
            let d_cap = if col == k { cap_max } else { 0.0 };
            let d_duty = if col == n + k { t.duty_gain } else { 0.0 };
            let s_tb = scratch.s_tb[col];
            let s_tc = scratch.s_tc[col];

            // The actuation chain, mirroring the backward sweep's
            // factors in forward direction.
            let d_ce = d_ce_d_duty * d_duty + d_ce_d_tc * s_tc;
            let d_inlet = d_inlet_d_duty * d_duty + d_inlet_d_tc * s_tc;
            let d_pb = d_ce - d_cap;

            let mut v = [0.0; 5];
            v[HeesStepJacobian::IN_BATTERY_BUS] = d_pb;
            v[HeesStepJacobian::IN_CAP_BUS] = d_cap;
            v[HeesStepJacobian::IN_TEMPERATURE] = s_tb;
            v[HeesStepJacobian::IN_SOC] = scratch.s_soc[col];
            v[HeesStepJacobian::IN_SOE] = scratch.s_soe[col];
            let dot = |row: &[f64; 5]| row.iter().zip(&v).map(|(a, b)| a * b).sum::<f64>();
            let d_heat = dot(&j.battery_heat);
            let d_delivered = dot(&j.delivered);

            scratch.s_soc[col] = dot(&j.soc_next);
            scratch.s_soe[col] = dot(&j.soe_next);
            scratch.s_tb[col] = jt.d_battery[0] * s_tb
                + jt.d_battery[1] * s_tc
                + jt.d_battery_heat[0] * d_heat
                + jt.d_inlet[0] * d_inlet;
            scratch.s_tc[col] = jt.d_coolant[0] * s_tb
                + jt.d_coolant[1] * s_tc
                + jt.d_battery_heat[1] * d_heat
                + jt.d_inlet[1] * d_inlet;
            scratch.row_sf[col] = d_ce - d_delivered;
            scratch.row_p[col] = p_sign * d_pb;
            if let Some((e_t, e_c, _)) = aging {
                scratch.row_aging[col] = e_t * scratch.s_tb[col] + e_c * dot(&j.battery_c_rate);
            }
        }

        if let Some((_, _, lam)) = aging {
            rank_one(hess, &scratch.row_aging, config.w2 * dtv * lam);
        }

        // Rank-one Gauss-Newton blocks for the penalties whose branch is
        // active at this step (matching the relu convention of the cost
        // and the backward sweep: strictly positive residual).
        let over_t = (t.battery_post - config.temp_soft.value()).max(0.0);
        if over_t > 0.0 {
            let mut w = 2.0 * config.temp_penalty;
            if k == n - 1 && config.terminal_tail > 0.0 {
                // The terminal soft-ceiling penalty shares the stage
                // residual at the last step; its weight simply adds.
                w += 2.0 * config.temp_penalty * (config.terminal_tail / dtv.max(1e-9));
            }
            rank_one(hess, &scratch.s_tb, w);
        }
        let soc_short = (plant.soc_min.value() - t.soc_post).max(0.0);
        if soc_short > 0.0 {
            rank_one(hess, &scratch.s_soc, 2.0 * config.state_penalty);
        }
        let soe_short = (plant.soe_min.value() - t.soe_post).max(0.0);
        if soe_short > 0.0 {
            rank_one(hess, &scratch.s_soe, 2.0 * config.state_penalty);
        }
        if t.shortfall > 0.0 {
            rank_one(hess, &scratch.row_sf, 2.0 * config.shortfall_penalty);
        }
        let over_p = (t.battery_bus.abs() - plant.battery_power_max.value()).max(0.0);
        if over_p > 0.0 {
            rank_one(hess, &scratch.row_p, 2.0 * config.power_penalty);
        }
    }

    // Terminal aging tail: a function of the final battery temperature
    // alone (its nominal C-rate is a constant of the forecast), so its
    // exact temperature curvature rides on the final sensitivity row.
    if config.w2 > 0.0 && config.terminal_tail > 0.0 {
        let c_load = stage.terminal_c_rate;
        let tb_n = tape[n - 1].battery_post;
        let (loss, d_temp, _) = plant
            .aging
            .loss_rate_and_partials(Kelvin::new(tb_n), c_load);
        if loss > 1e-30 {
            let t_val = tb_n.max(200.0);
            let a = (1.0 - 2.0 * GAS_CONSTANT * t_val / plant.aging.l2).max(0.0);
            let w = config.w2 * config.terminal_tail * a * d_temp * d_temp / loss;
            rank_one(hess, &scratch.s_tb, w);
        }
    }
}

/// The PSD-projected outer Hessian of the stage aging loss over
/// `(T_b, c)`: clips the (always-present, the product is not jointly
/// convex) negative eigenvalue and returns the dominant eigenpair as
/// `(e_T, e_c, λ₊)`, or `None` when the term carries no curvature
/// (`w₂ = 0`, zero loss, or a degenerate eigenvector).
fn aging_eigenpair(plant: &MpcPlant, config: &MpcConfig, t: &TapeStep) -> Option<(f64, f64, f64)> {
    if config.w2 <= 0.0 {
        return None;
    }
    let (loss, d_t, d_c) = (t.loss_rate, t.d_loss_t, t.d_loss_c);
    if loss <= 1e-30 {
        return None;
    }
    let t_val = t.battery_post.max(200.0);
    let p = (d_t * d_t / loss) * (1.0 - 2.0 * GAS_CONSTANT * t_val / plant.aging.l2).max(0.0);
    let q = d_t * d_c / loss;
    let r = (d_c * d_c / loss) * (plant.aging.l3 - 1.0).max(0.0) / plant.aging.l3;
    let disc = ((p - r) * (p - r) + 4.0 * q * q).sqrt();
    let lam = 0.5 * (p + r + disc);
    if lam.is_nan() || lam <= 0.0 {
        return None;
    }
    // The better-conditioned of the two eigenvector formulas.
    let (e_t, e_c) = if (lam - r).abs() >= (lam - p).abs() {
        (lam - r, q)
    } else {
        (q, lam - p)
    };
    let norm = e_t.hypot(e_c);
    if norm.is_nan() || norm <= 0.0 {
        return None;
    }
    Some((e_t / norm, e_c / norm, lam))
}

/// `hess += w · row ⊗ row`, skipping zero entries (residual rows are
/// sparse early in the horizon: only already-seen decisions have
/// non-zero sensitivity).
fn rank_one(hess: &mut [f64], row: &[f64], w: f64) {
    let m = row.len();
    for i in 0..m {
        let wi = w * row[i];
        if wi == 0.0 {
            continue;
        }
        for col in 0..m {
            hess[i * m + col] += wi * row[col];
        }
    }
}
