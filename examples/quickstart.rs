//! Quickstart: run the OTEM controller over one standard drive cycle and
//! print the paper's headline metrics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use otem_repro::control::{policy::Otem, Simulator, SystemConfig};
use otem_repro::drivecycle::{standard, Powertrain, StandardCycle, VehicleParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The system: compact EV pack + 25,000 F ultracapacitor bank +
    //    active liquid cooling, at 25 °C ambient.
    let config = SystemConfig::default();

    // 2. The route: one US06 (the EPA's aggressive supplemental cycle),
    //    converted to a battery-bus power-request trace.
    let cycle = standard(StandardCycle::Us06)?;
    let powertrain = Powertrain::new(VehicleParams::midsize_ev())?;
    let trace = powertrain.power_trace(&cycle);
    println!(
        "route: {} ({:.1} km, {:.0} s, peak request {:.0} kW)",
        cycle.name(),
        cycle.distance().value() / 1000.0,
        cycle.duration().value(),
        trace.peak().value() / 1000.0
    );

    // 3. The controller: OTEM's model-predictive thermal + energy manager.
    let mut otem = Otem::new(&config)?;

    // 4. Drive.
    let result = Simulator::new(&config).run(&mut otem, &trace);

    // 5. The paper's Algorithm 1 outputs.
    println!(
        "capacity loss Q_loss : {:.4e} (fraction of rated)",
        result.totals.capacity_loss
    );
    println!(
        "HEES energy          : {:.2} MJ",
        result.totals.energy.value() / 1e6
    );
    println!(
        "average power        : {:.2} kW",
        result.average_power().value() / 1000.0
    );
    println!(
        "cooling energy       : {:.2} MJ",
        result.totals.cooling_energy.value() / 1e6
    );
    println!(
        "peak battery temp    : {:.1} °C (limit {:.1} °C, exceeded {:.0} s)",
        result.totals.peak_battery_temp.to_celsius().value(),
        config.temp_max.to_celsius().value(),
        result.time_above(config.temp_max).value()
    );
    println!(
        "projected lifetime   : {:.0} driving hours to 20% capacity loss",
        0.20 / result.totals.capacity_loss * result.duration().value() / 3600.0
    );
    Ok(())
}
