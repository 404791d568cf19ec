//! **Extension experiment** — architecture design space: the paper
//! declares HEES design-space exploration out of scope but claims its
//! methodology "will be economical for any design variation". This
//! binary walks the variation axis: fully-passive parallel, both
//! semi-active wirings (one converter), and the fully-active hybrid
//! under OTEM, on the same US06 stress route.
//!
//! The semi-active architectures run a simple peak-shaving rule (the
//! bank takes whatever exceeds a battery comfort threshold and recharges
//! below it) — the kind of heuristic those topologies ship with. Each is
//! a [`HybridHees`] whose direct leg is a lossless
//! [`DcDcConverter::direct`].
//!
//! ```sh
//! cargo run --release -p otem-bench --bin architecture_space
//! ```

use otem::{Controller, SimulationResult, Simulator, StepRecord, SystemConfig, SystemState};
use otem_battery::BatteryPack;
use otem_bench::{run, stress_config, stress_trace, Methodology};
use otem_converter::DcDcConverter;
use otem_drivecycle::StandardCycle;
use otem_hees::{pack_domain_bank, HybridCommand, HybridHees};
use otem_telemetry::Sink;
use otem_thermal::{ThermalModel, ThermalState};
use otem_ultracap::UltracapParams;
use otem_units::{Ratio, Seconds, Watts};

/// Which storage sits behind the semi-active wiring's one converter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Converted {
    /// The native 16 V bank behind its converter; the battery on the bus.
    Cap,
    /// The battery behind its converter; the pack-domain bank on the bus.
    Battery,
}

/// The semi-active wiring that converts `converted`, built from
/// `config` as the other rows are: its cell, pack, capacitance and
/// initial state of charge and energy.
fn one_converter_hees(config: &SystemConfig, converted: Converted) -> HybridHees {
    let battery = BatteryPack::new(config.cell.clone(), config.pack).expect("pack");
    let mut hees = match converted {
        Converted::Cap => HybridHees::new(
            battery,
            UltracapParams::paper_bank(config.capacitance),
            DcDcConverter::direct(),
            DcDcConverter::ultracap_side(),
        ),
        Converted::Battery => {
            let rated = battery.open_circuit_voltage();
            HybridHees::new(
                battery,
                pack_domain_bank(config.capacitance, rated),
                DcDcConverter::battery_side(),
                DcDcConverter::direct(),
            )
        }
    }
    .expect("arch");
    hees.set_state(config.initial_soc, config.initial_soe);
    hees
}

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
    hees: HybridHees,
    converted: Converted,
    thermal: ThermalModel,
    state: ThermalState,
    /// Smoothed base load for the battery-converted wiring (W).
    base: f64,
}

impl PeakShaving {
    fn new(converted: Converted, config: &SystemConfig) -> Self {
        Self {
            hees: one_converter_hees(config, converted),
            converted,
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
        match self.converted {
            Converted::Cap => {
                if load > comfort && bank_has_charge {
                    load - comfort
                } else if load.value() < 0.0 {
                    load // all regen into the bank
                } else if self.hees.soe() < Ratio::from_percent(85.0) && load < comfort {
                    recharge
                } else {
                    Watts::ZERO
                }
            }
            Converted::Battery => {
                // Carry a slow-filtered, non-negative base load; the
                // direct bank takes transients.
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
        // The converted storage serves its share; the direct one the rest.
        let share = self.converted_share(load);
        let rest = load - share;
        let command = match self.converted {
            Converted::Cap => HybridCommand {
                battery_bus: rest,
                cap_bus: share,
            },
            Converted::Battery => HybridCommand {
                battery_bus: share,
                cap_bus: rest,
            },
        };
        let hees = self.hees.step(command, self.state.battery, dt);
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
    let peak_shaving = |converted| sim.run(&mut PeakShaving::new(converted, &config), &trace);
    row(
        "passive parallel (no converter)",
        &run(Methodology::Parallel, &config, &trace).expect("run"),
    );
    row("semi-active, cap converted", &peak_shaving(Converted::Cap));
    row(
        "semi-active, battery converted",
        &peak_shaving(Converted::Battery),
    );
    row(
        "fully active hybrid + OTEM",
        &run(Methodology::Otem, &config, &trace).expect("run"),
    );

    println!("\nReading: every row runs the rig's cell and city-EV pack. OTEM has");
    println!("the lowest capacity loss and the coolest pack; the peak-shaving rule");
    println!("loses more capacity on either semi-active wiring than the passive");
    println!("parallel wiring does, and both rule rows exceed C1's 40 °C limit.");
    println!("The wiring is not the only difference between rows. The controller");
    println!("differs (no controller, the rule, OTEM's MPC), and the parallel and");
    println!("rule rows run the passive pack with no cooling while OTEM cools it");
    println!("actively, so the table does not isolate the wiring. The paper's");
    println!("comparison set (parallel/dual/cooling) does not include the");
    println!("semi-active design point.");
}
