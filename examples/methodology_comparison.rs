//! Compare all four methodologies of the paper on an aggressive commute
//! (US06 driven twice), reproducing the qualitative story of Section IV:
//! OTEM extends battery lifetime at a small energy premium over the
//! unmanaged parallel architecture, and undercuts the pure active
//! cooling system on both metrics.
//!
//! ```sh
//! cargo run --release --example methodology_comparison
//! ```

use otem_repro::control::{
    policy::{ActiveCooling, Dual, Otem, Parallel},
    Controller, Simulator, SystemConfig,
};
use otem_repro::drivecycle::{standard, Powertrain, StandardCycle, VehicleParams};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = SystemConfig::default();
    let cycle = standard(StandardCycle::Us06)?.repeat(2);
    let trace = Powertrain::new(VehicleParams::midsize_ev())?.power_trace(&cycle);
    let sim = Simulator::new(&config);

    let mut controllers: Vec<Box<dyn Controller>> = vec![
        Box::new(Parallel::new(&config)?),
        Box::new(ActiveCooling::new(&config)?),
        Box::new(Dual::new(&config)?),
        Box::new(Otem::new(&config)?),
    ];

    println!(
        "{:<14} {:>12} {:>10} {:>10} {:>9}",
        "methodology", "Q_loss", "avgP (kW)", "cool (MJ)", "Tpeak(°C)"
    );
    let mut baseline_loss = None;
    for controller in controllers.iter_mut() {
        let r = sim.run(controller.as_mut(), &trace);
        let loss = r.totals.capacity_loss;
        let rel = baseline_loss
            .map(|b: f64| format!(" ({:+.1}% vs Parallel)", (loss / b - 1.0) * 100.0))
            .unwrap_or_default();
        if baseline_loss.is_none() {
            baseline_loss = Some(loss);
        }
        println!(
            "{:<14} {:>12.4e} {:>10.2} {:>10.2} {:>9.1}{rel}",
            r.methodology,
            loss,
            r.average_power().value() / 1000.0,
            r.totals.cooling_energy.value() / 1e6,
            r.totals.peak_battery_temp.to_celsius().value(),
        );
    }
    Ok(())
}
