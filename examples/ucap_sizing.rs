//! Ultracapacitor sizing study (the paper's Fig. 1 motivation): under
//! the dual architecture, undersized banks deplete mid-cycle and the
//! battery overheats; OTEM's access to active cooling makes it nearly
//! size-independent.
//!
//! ```sh
//! cargo run --release --example ucap_sizing
//! ```

use otem_repro::control::{
    policy::{Dual, Otem},
    Controller, Simulator, SystemConfig,
};
use otem_repro::drivecycle::{standard, Powertrain, StandardCycle, VehicleParams};
use otem_repro::units::Farads;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cycle = standard(StandardCycle::Us06)?.repeat(3);
    let trace = Powertrain::new(VehicleParams::midsize_ev())?.power_trace(&cycle);

    println!(
        "{:>9} {:>14} {:>12} {:>12} {:>12}",
        "size (F)", "methodology", "Q_loss", "Tpeak (°C)", "t>40°C (s)"
    );
    for farads in [5_000.0, 10_000.0, 25_000.0] {
        let config = SystemConfig::with_capacitance(Farads::new(farads));
        let sim = Simulator::new(&config);
        let mut controllers: Vec<Box<dyn Controller>> =
            vec![Box::new(Dual::new(&config)?), Box::new(Otem::new(&config)?)];
        for controller in controllers.iter_mut() {
            let r = sim.run(controller.as_mut(), &trace);
            println!(
                "{:>9.0} {:>14} {:>12.4e} {:>12.1} {:>12.0}",
                farads,
                r.methodology,
                r.totals.capacity_loss,
                r.totals.peak_battery_temp.to_celsius().value(),
                r.time_above(config.temp_max).value(),
            );
        }
    }
    println!("\nOTEM's loss varies far less with bank size than Dual's:");
    println!("the active cooling system substitutes for missing buffer energy.");
    Ok(())
}
