//! **Extension experiment** — architecture design space: the paper
//! declares HEES design-space exploration out of scope but claims its
//! methodology "will be economical for any design variation". This
//! binary walks the variation axis: fully-passive parallel, both
//! semi-active wirings (one converter), and the fully-active hybrid
//! under OTEM, on the same US06 stress route.
//!
//! The semi-active architectures run a simple peak-shaving rule (the
//! bank takes whatever exceeds a battery comfort threshold and recharges
//! below it) — the kind of heuristic those topologies ship with.
//!
//! ```sh
//! cargo run --release -p otem-bench --bin architecture_space
//! ```

use otem::SystemConfig;
use otem_battery::AgingModel;
use otem_bench::{run, stress_config, stress_trace, Methodology};
use otem_drivecycle::StandardCycle;
use otem_hees::SemiActiveHees;
use otem_thermal::{ThermalModel, ThermalState};
use otem_units::{Ratio, Seconds, Watts};

/// Runs a semi-active architecture under its natural heuristic and
/// returns (capacity loss, average power kW, peak temp °C, shortfall
/// fraction of route energy).
///
/// * cap-converted: the bank shaves load above the battery's comfort
///   threshold (while it has charge), soaks regen, and recharges gently
///   during lulls — falling back to the battery when empty.
/// * battery-converted: the battery (behind its converter) carries a
///   smoothed base load; the direct bank absorbs every transient by
///   circuit role.
fn run_semi_active(
    mut hees: SemiActiveHees,
    config: &SystemConfig,
    trace: &otem_drivecycle::PowerTrace,
) -> (f64, f64, f64, f64) {
    hees.set_state(config.initial_soc, config.initial_soe);
    let thermal = ThermalModel::new(config.thermal_passive).expect("thermal");
    let mut state = ThermalState::uniform(config.ambient);
    let mut aging = AgingModel::new(config.aging);
    let comfort = Watts::new(18_000.0);
    let recharge = Watts::new(-6_000.0);
    let dt = Seconds::new(1.0);
    let mut energy = 0.0;
    let mut shortfall = 0.0;
    let mut load_energy = 0.0;
    let mut peak_temp = state.battery;
    let cap_converted = hees.side() == otem_hees::ConvertedSide::Ultracap;
    // Smoothed base load for the battery-converted wiring.
    let mut base = 0.0;

    for t in 0..trace.len() {
        let load = trace.get(t);
        let bank_has_charge = hees.soe() > Ratio::from_percent(24.0);
        let converted = if cap_converted {
            // Converted storage = the bank.
            if load > comfort && bank_has_charge {
                load - comfort
            } else if load.value() < 0.0 {
                load // all regen into the bank
            } else if hees.soe() < Ratio::from_percent(85.0) && load < comfort {
                recharge
            } else {
                Watts::ZERO
            }
        } else {
            // Converted storage = the battery: carry a slow-filtered,
            // non-negative base load; the direct bank takes transients.
            base += 0.05 * (load.value().max(0.0) - base);
            let mut share = Watts::new(base);
            if !bank_has_charge && load > share {
                share = load; // bank empty: battery must carry everything
            }
            share
        };
        let step = hees.step(load, converted, state.battery, dt);
        state = thermal.step_crank_nicolson(state, step.battery_heat, state.coolant, dt);
        peak_temp = peak_temp.max(state.battery);
        aging.accumulate(state.battery, step.battery_c_rate, dt);
        energy += step.hees_power().value() * dt.value();
        shortfall += step.shortfall.value().max(0.0) * dt.value();
        load_energy += load.value().max(0.0) * dt.value();
    }
    (
        aging.cumulative_loss(),
        energy / trace.duration().value(),
        peak_temp.to_celsius().value(),
        shortfall / load_energy.max(1.0),
    )
}

fn main() {
    let config = stress_config();
    let trace = stress_trace(StandardCycle::Us06, 3).expect("trace");

    println!("# Architecture design space, US06 x3 (city-EV rig)");
    println!(
        "{}",
        otem_bench::config_header(
            otem_bench::STRESS_CONFIG,
            Some(&otem::mpc::MpcConfig::default())
        )
    );
    println!(
        "{:<34} {:>12} {:>10} {:>10} {:>10}",
        "architecture / controller", "Q_loss", "avgP (kW)", "Tpeak(°C)", "unserved"
    );

    let parallel = run(Methodology::Parallel, &config, &trace).expect("run");
    println!(
        "{:<34} {:>12.4e} {:>10.2} {:>10.1} {:>9.1}%",
        "passive parallel (no converter)",
        parallel.capacity_loss(),
        parallel.average_power().value() / 1000.0,
        parallel.peak_battery_temp().to_celsius().value(),
        parallel.shortfall_energy().value() / parallel.energy().value().max(1.0) * 100.0
    );

    let (loss, avg, tp, unserved) = run_semi_active(
        SemiActiveHees::cap_converted(config.capacitance).expect("arch"),
        &config,
        &trace,
    );
    println!(
        "{:<34} {:>12.4e} {:>10.2} {:>10.1} {:>9.1}%",
        "semi-active, cap converted",
        loss,
        avg / 1000.0,
        tp,
        unserved * 100.0
    );

    let (loss, avg, tp, unserved) = run_semi_active(
        SemiActiveHees::battery_converted(config.capacitance).expect("arch"),
        &config,
        &trace,
    );
    println!(
        "{:<34} {:>12.4e} {:>10.2} {:>10.1} {:>9.1}%",
        "semi-active, battery converted",
        loss,
        avg / 1000.0,
        tp,
        unserved * 100.0
    );

    let otem = run(Methodology::Otem, &config, &trace).expect("run");
    println!(
        "{:<34} {:>12.4e} {:>10.2} {:>10.1} {:>9.1}%",
        "fully active hybrid + OTEM",
        otem.capacity_loss(),
        otem.average_power().value() / 1000.0,
        otem.peak_battery_temp().to_celsius().value(),
        otem.shortfall_energy().value() / otem.energy().value().max(1.0) * 100.0
    );

    println!("\nReading (measured, and worth being honest about): a well-tuned");
    println!("peak-shaving rule on the cap-converted semi-active wiring caps the");
    println!("battery near 1C and beats OTEM's default tuning on capacity loss at");
    println!("lower average power — C-rate capping is a very strong lever under an");
    println!("I^1.15 stress law. OTEM still holds the lowest temperature and is the");
    println!("only controller that also manages the thermal constraint actively;");
    println!("the paper's comparison set (parallel/dual/cooling) does not include");
    println!("this design point, and neither does its claim set.");
}
