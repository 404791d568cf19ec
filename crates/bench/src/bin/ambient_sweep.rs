//! **Extension experiment** — environment temperature sweep (the paper
//! evaluates "different environment temperatures" without printing the
//! table): at hot ambient the passive architectures bake, pure cooling
//! gets expensive, and OTEM's joint management pays off most.
//!
//! ```sh
//! cargo run --release -p otem-bench --bin ambient_sweep
//! ```

use otem::SystemConfig;
use otem_bench::{cycle_trace, run, Methodology};
use otem_drivecycle::StandardCycle;
use otem_fleet::pool::fan_stealing;
use otem_units::Kelvin;

fn main() {
    let trace = cycle_trace(StandardCycle::Us06, 3).expect("trace");
    println!("# Ambient-temperature sweep, US06 x3");
    println!(
        "{}",
        otem_bench::config_header(
            "SystemConfig::default (midsize EV, 25,000 F), ambient per row",
            Some(&otem::mpc::MpcConfig::default())
        )
    );
    println!(
        "{:>9} {:>14} {:>12} {:>10} {:>10} {:>10}",
        "T_amb", "methodology", "Q_loss", "avgP (kW)", "cool (MJ)", "Tpeak(°C)"
    );
    // Every (ambient, methodology) cell is an independent closed-loop
    // run; fan them across worker threads, keeping the table order.
    let jobs: Vec<(f64, Methodology)> = [10.0, 25.0, 35.0]
        .into_iter()
        .flat_map(|celsius| Methodology::ALL.into_iter().map(move |m| (celsius, m)))
        .collect();
    let rows = fan_stealing(jobs, 0, |_, (celsius, m)| {
        let config = SystemConfig::default().with_ambient(Kelvin::from_celsius(celsius));
        let r = run(m, &config, &trace).expect("run");
        (
            celsius,
            m,
            r.totals.capacity_loss,
            r.average_power().value() / 1000.0,
            r.totals.cooling_energy.value() / 1e6,
            r.totals.peak_battery_temp.to_celsius().value(),
        )
    });
    for (celsius, m, loss, avg_kw, cool_mj, peak_c) in rows {
        println!(
            "{:>8.0}° {:>14} {:>12.4e} {:>10.2} {:>10.2} {:>10.2}",
            celsius,
            m.name(),
            loss,
            avg_kw,
            cool_mj,
            peak_c
        );
    }
    println!("\nExpected: losses grow with ambient for every methodology (Arrhenius);");
    println!("OTEM's advantage over the baselines widens at hot ambient, where it");
    println!("blends cooling and the ultracapacitor instead of relying on either alone.");
}
