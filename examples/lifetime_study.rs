//! Battery-lifetime study: extrapolate months of daily commuting from
//! one simulated day and compare how far each methodology stretches the
//! battery. Nothing is fed back into the pack, so every day is the same
//! run on a fresh pack; the wear feedback (a smaller effective capacity
//! raises the C-rate stress) is modelled by scaling each day's measured
//! loss by `(1/(1−loss))^1.15`, the aging law's current exponent.
//!
//! ```sh
//! cargo run --release --example lifetime_study
//! ```

use otem_repro::battery::AgingParams;
use otem_repro::control::{
    policy::{Dual, Parallel},
    Controller, Simulator, SystemConfig,
};
use otem_repro::drivecycle::{standard, Powertrain, StandardCycle, VehicleParams};
use otem_repro::units::Kelvin;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A hard-driving day on the city-EV rig: US06 out and back, twice,
    // in a hot climate — the regime where management choices decide the
    // battery's fate.
    let config = SystemConfig::stress_rig().with_ambient(Kelvin::from_celsius(35.0));
    let cycle = standard(StandardCycle::Us06)?.repeat(4);
    let trace = Powertrain::new(VehicleParams::compact_ev())?.power_trace(&cycle);
    let sim = Simulator::new(&config);

    // A "day" of simulated driving is extrapolated to represent a month
    // of calendar wear so the study completes quickly.
    let days_per_run = 30.0;

    println!(
        "{:<12} {:>8} {:>16} {:>18}",
        "methodology", "months", "capacity left", "daily loss trend"
    );
    for name in ["Parallel", "Dual"] {
        let mut controller: Box<dyn Controller> = match name {
            "Parallel" => Box::new(Parallel::new(&config)?),
            _ => Box::new(Dual::new(&config)?),
        };
        // Every day is the same run on a fresh pack, so one run gives
        // every month's base loss.
        let day_loss = sim.run(controller.as_mut(), &trace).totals.capacity_loss;
        let mut months = 0u32;
        let mut total_loss = 0.0;
        let mut first_daily = None;
        let mut last_daily = 0.0;
        while total_loss < AgingParams::END_OF_LIFE_LOSS && months < 600 {
            // The accumulated loss enters only through this factor:
            // stress grows like (1/(1−loss))^1.15.
            let stress_factor = (1.0 / (1.0 - total_loss)).powf(1.15);
            let daily = day_loss * stress_factor;
            first_daily.get_or_insert(daily);
            last_daily = daily;
            total_loss += daily * days_per_run;
            months += 1;
        }
        println!(
            "{:<12} {:>8} {:>15.1}% {:>17.2}x",
            name,
            months,
            (1.0 - total_loss.min(AgingParams::END_OF_LIFE_LOSS)) * 100.0,
            last_daily / first_daily.unwrap_or(1.0),
        );
    }
    println!("\nThe degradation feedback (smaller effective capacity ⇒ higher C-rate ⇒");
    println!("faster wear) compounds: the daily loss grows over the battery's life.");
    Ok(())
}
