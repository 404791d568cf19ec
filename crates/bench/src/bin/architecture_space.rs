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

use otem::{Controller, SimulationResult, Simulator, StepRecord, SystemConfig, SystemState};
use otem_bench::{run, stress_config, stress_trace, Methodology};
use otem_drivecycle::StandardCycle;
use otem_hees::{ConvertedSide, SemiActiveHees};
use otem_telemetry::Sink;
use otem_thermal::{ThermalModel, ThermalState};
use otem_units::{Ratio, Seconds, Watts};

/// A semi-active architecture under its natural heuristic, on the
/// passive pack:
///
/// * cap-converted: the bank shaves load above the battery's comfort
///   threshold (while it has charge), soaks regen, and recharges gently
///   during lulls — falling back to the battery when empty.
/// * battery-converted: the battery (behind its converter) carries a
///   smoothed base load; the direct bank absorbs every transient by
///   circuit role.
struct PeakShaving {
    hees: SemiActiveHees,
    thermal: ThermalModel,
    state: ThermalState,
    /// Smoothed base load for the battery-converted wiring (W).
    base: f64,
}

impl PeakShaving {
    fn new(mut hees: SemiActiveHees, config: &SystemConfig) -> Self {
        hees.set_state(config.initial_soc, config.initial_soe);
        Self {
            hees,
            thermal: ThermalModel::new(config.thermal_passive).expect("thermal"),
            state: ThermalState::uniform(config.ambient),
            base: 0.0,
        }
    }

    /// The bus power the converted storage is commanded to serve.
    fn converted_share(&mut self, load: Watts) -> Watts {
        let comfort = Watts::new(18_000.0);
        let recharge = Watts::new(-6_000.0);
        let bank_has_charge = self.hees.soe() > Ratio::from_percent(24.0);
        if self.hees.side() == ConvertedSide::Ultracap {
            // Converted storage = the bank.
            if load > comfort && bank_has_charge {
                load - comfort
            } else if load.value() < 0.0 {
                load // all regen into the bank
            } else if self.hees.soe() < Ratio::from_percent(85.0) && load < comfort {
                recharge
            } else {
                Watts::ZERO
            }
        } else {
            // Converted storage = the battery: carry a slow-filtered,
            // non-negative base load; the direct bank takes transients.
            self.base += 0.05 * (load.value().max(0.0) - self.base);
            let share = Watts::new(self.base);
            if !bank_has_charge && load > share {
                load // bank empty: battery must carry everything
            } else {
                share
            }
        }
    }
}

impl Controller for PeakShaving {
    fn name(&self) -> &'static str {
        "semi-active peak shaving"
    }

    fn step_with(
        &mut self,
        load: Watts,
        _forecast: &[Watts],
        dt: Seconds,
        _sink: &dyn Sink,
    ) -> StepRecord {
        let converted = self.converted_share(load);
        let hees = self.hees.step(load, converted, self.state.battery, dt);
        self.state =
            self.thermal
                .step_crank_nicolson(self.state, hees.battery_heat, self.state.coolant, dt);
        StepRecord {
            load,
            hees,
            cooling_power: Watts::ZERO,
            state: self.state(),
        }
    }

    fn state(&self) -> SystemState {
        SystemState {
            battery_temp: self.state.battery,
            coolant_temp: self.state.coolant,
            soe: self.hees.soe(),
            soc: self.hees.soc(),
        }
    }
}

/// Prints one table row. `unserved` is the shortfall as a share of the
/// energy the route's positive load requests.
fn row(label: &str, result: &SimulationResult) {
    let requested: f64 = result
        .records
        .iter()
        .map(|r| r.load.value().max(0.0) * result.dt.value())
        .sum();
    println!(
        "{:<34} {:>12.4e} {:>10.2} {:>10.1} {:>9.1}%",
        label,
        result.totals.capacity_loss,
        result.average_power().value() / 1000.0,
        result.totals.peak_battery_temp.to_celsius().value(),
        result.totals.shortfall_energy.value() / requested.max(1.0) * 100.0
    );
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

    let sim = Simulator::new(&config);
    let semi_active = |hees: SemiActiveHees| sim.run(&mut PeakShaving::new(hees, &config), &trace);
    row(
        "passive parallel (no converter)",
        &run(Methodology::Parallel, &config, &trace).expect("run"),
    );
    row(
        "semi-active, cap converted",
        &semi_active(SemiActiveHees::cap_converted(config.capacitance).expect("arch")),
    );
    row(
        "semi-active, battery converted",
        &semi_active(SemiActiveHees::battery_converted(config.capacitance).expect("arch")),
    );
    row(
        "fully active hybrid + OTEM",
        &run(Methodology::Otem, &config, &trace).expect("run"),
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
