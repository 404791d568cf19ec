//! Drive a *custom* route with a *custom* vehicle: synthesise a cycle
//! from your own summary statistics (e.g. a delivery loop), model a
//! heavier van, and let OTEM manage the storage.
//!
//! ```sh
//! cargo run --release --example custom_cycle
//! ```

use otem_repro::control::{policy::Otem, Simulator, SystemConfig};
use otem_repro::drivecycle::{synthesize, CycleSpec, Powertrain, VehicleParams};
use otem_repro::units::{
    Kilograms, Meters, MetersPerSecond, MetersPerSecondSquared, Ratio, Seconds, Watts,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A suburban delivery loop: 8 km in 20 minutes with 9 stops.
    let spec = CycleSpec {
        name: "delivery-loop".to_owned(),
        duration: Seconds::new(1_200.0),
        distance: Meters::new(8_000.0),
        max_speed: MetersPerSecond::from_kmh(70.0),
        stops: 9,
        max_accel: MetersPerSecondSquared::new(2.0),
        idle_fraction: 0.22,
        max_specific_power: 16.0,
    };
    let cycle = synthesize(&spec, 7)?;

    // A delivery van: heavier, blunter, more accessory load.
    let van = VehicleParams {
        mass: Kilograms::new(2_900.0),
        drag_coefficient: 0.33,
        frontal_area: 3.4,
        accessory_power: Watts::new(900.0),
        regen_efficiency: Ratio::new(0.55),
        ..VehicleParams::midsize_ev()
    };
    let trace = Powertrain::new(van)?.power_trace(&cycle);

    let config = SystemConfig::default();
    let mut otem = Otem::new(&config)?;
    let result = Simulator::new(&config).run(&mut otem, &trace);

    println!(
        "{}: {:.1} km, mean request {:.1} kW, peak {:.1} kW",
        cycle.name(),
        cycle.distance().value() / 1000.0,
        trace.mean().value() / 1000.0,
        trace.peak().value() / 1000.0
    );
    println!(
        "OTEM: loss {:.3e}, energy {:.2} MJ, avg {:.2} kW, Tpeak {:.1} °C",
        result.totals.capacity_loss,
        result.totals.energy.value() / 1e6,
        result.average_power().value() / 1000.0,
        result.totals.peak_battery_temp.to_celsius().value()
    );
    Ok(())
}
