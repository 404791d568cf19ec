//! Exact work-counter gate for the production MPC gradient paths.
//!
//! A fixed closed-loop decision sequence on the thermally stressed
//! city-EV rig (`SystemConfig::stress_rig`, compact EV over US06) is
//! solved in [`GradientMode::Adjoint`] and [`GradientMode::GaussNewton`].
//! Two things are pinned per mode:
//!
//! * the decisions themselves, as an FNV-1a hash over the bits of every
//!   returned `cap_bus`, `cool_duty`, `cost` and iteration count, so any
//!   change to the solver path fails loudly;
//! * the forward-pass count [`Mpc::rollouts`]. Each gradient is taken at
//!   the point the line search just accepted, and the tape recorded by
//!   that evaluation is reused for the backward sweep, so the count is
//!   the one-forward-pass-per-gradient baseline minus one per
//!   `gradient_eval` event.
//!
//! Both counters are deterministic; a change that moves either must say
//! so and re-pin them here.

use otem_repro::battery::BatteryPack;
use otem_repro::control::mpc::{Mpc, MpcConfig, MpcPlant};
use otem_repro::control::SystemConfig;
use otem_repro::converter::DcDcConverter;
use otem_repro::drivecycle::{standard, Powertrain, StandardCycle, VehicleParams};
use otem_repro::hees::{HybridCommand, HybridHees};
use otem_repro::solver::GradientMode;
use otem_repro::telemetry::MemorySink;
use otem_repro::thermal::{CoolerAction, CoolingPlant, ThermalModel, ThermalState};
use otem_repro::ultracap::UltracapParams;
use otem_repro::units::{Kelvin, Seconds};

/// Closed-loop decisions per mode.
const STEPS: usize = 60;

/// The work and decision fingerprint of one mode's decision sequence.
struct Run {
    rollouts: u64,
    gradient_evals: u64,
    decision_hash: u64,
}

fn fnv1a(hash: &mut u64, bits: u64) {
    for byte in bits.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Runs `STEPS` receding-horizon decisions, applying each first move to
/// the plant exactly as the OTEM controller does (cooling gated on below
/// a 1e-3 duty, the battery covering load plus cooling minus the bank).
fn run(mode: GradientMode) -> Run {
    let config = SystemConfig::stress_rig();
    let cycle = standard(StandardCycle::Us06).expect("synthesis");
    let trace = Powertrain::new(VehicleParams::compact_ev())
        .expect("vehicle")
        .power_trace(&cycle);
    let dt = Seconds::new(1.0);

    let battery = BatteryPack::new(config.cell.clone(), config.pack).expect("pack");
    let mut hees = HybridHees::new(
        battery,
        UltracapParams::paper_bank(config.capacitance),
        DcDcConverter::battery_side(),
        DcDcConverter::ultracap_side(),
    )
    .expect("hees");
    hees.set_state(config.initial_soc, config.initial_soe);
    let thermal = ThermalModel::new(config.thermal_active).expect("thermal");
    let cooling = CoolingPlant::new(config.plant).expect("cooling plant");
    let mut state = ThermalState::uniform(config.ambient);

    let mpc_config = MpcConfig {
        gradient_mode: mode,
        ..MpcConfig::default()
    };
    let mut mpc = Mpc::new(mpc_config);
    let sink = MemorySink::with_capacity(1 << 16);
    let mut gradient_evals = 0;
    let mut decision_hash = 0xcbf2_9ce4_8422_2325;

    for k in 0..STEPS {
        let loads = trace.window(k, mpc_config.horizon);
        let plant = MpcPlant {
            hees: hees.clone(),
            thermal,
            plant: cooling,
            state,
            aging: config.aging,
            soc_min: config.soc_min,
            soe_min: config.soe_min,
            battery_power_max: config.battery_power_max,
            cap_power_max: config.cap_power_max,
        };
        let d = mpc.solve_with(&plant, &loads, dt, &sink);
        gradient_evals += sink.count_kind("gradient_eval") as u64;
        sink.clear();
        for bits in [
            d.cap_bus.value().to_bits(),
            d.cool_duty.to_bits(),
            d.cost.to_bits(),
            d.iterations as u64,
        ] {
            fnv1a(&mut decision_hash, bits);
        }

        let outlet = state.coolant;
        let coldest = cooling.coldest_inlet(outlet);
        let inlet = Kelvin::new(
            outlet.value() - d.cool_duty.clamp(0.0, 1.0) * (outlet.value() - coldest.value()),
        );
        let action = if d.cool_duty > 1e-3 {
            cooling.actuate(outlet, inlet)
        } else {
            CoolerAction::idle(outlet)
        };
        let step = hees.step(
            HybridCommand {
                battery_bus: loads[0] + action.total_power() - d.cap_bus,
                cap_bus: d.cap_bus,
            },
            state.battery,
            dt,
        );
        state = thermal.step_crank_nicolson(state, step.battery_heat, action.inlet, dt);
    }
    Run {
        rollouts: mpc.rollouts(),
        gradient_evals,
        decision_hash,
    }
}

/// Asserts the pinned decision hash and that every gradient reused the
/// accepted trial's tape: `baseline_rollouts` is the count with one
/// taped forward pass per gradient on top of the line-search trials.
fn check(mode: GradientMode, baseline_rollouts: u64, decision_hash: u64) {
    let r = run(mode);
    assert_eq!(
        r.decision_hash,
        decision_hash,
        "{} decisions drifted: hash {:#018x}",
        mode.name(),
        r.decision_hash
    );
    assert!(
        r.gradient_evals > STEPS as u64,
        "{} ran no gradients",
        mode.name()
    );
    assert_eq!(
        r.rollouts,
        baseline_rollouts - r.gradient_evals,
        "{}: {} rollouts for {} gradient evaluations",
        mode.name(),
        r.rollouts,
        r.gradient_evals
    );
}

#[test]
fn adjoint_gradients_reuse_the_accepted_trial_tape() {
    check(GradientMode::Adjoint, 4213, 0xb89a_0ad9_3df1_6bdf);
}

#[test]
fn gauss_newton_gradients_reuse_the_accepted_trial_tape() {
    check(GradientMode::GaussNewton, 10860, 0xd27f_d8bb_0a0d_12b8);
}
