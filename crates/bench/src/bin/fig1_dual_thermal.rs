//! **Fig. 1** — Battery temperature under the dual architecture for
//! different ultracapacitor sizes (one US06 pass on the city-EV stress rig).
//!
//! The paper's motivational case study: small banks deplete before the
//! battery cools, the recharge cycle heats it further, and the safe
//! threshold gets violated; only large banks hold the line.
//!
//! ```sh
//! cargo run --release -p otem-bench --bin fig1_dual_thermal
//! ```

use otem::policy::Dual;
use otem::Simulator;
use otem_bench::{stress_config_with_capacitance, stress_trace};
use otem_drivecycle::StandardCycle;
use otem_units::Kelvin;

fn main() {
    let sizes = [5_000.0, 10_000.0, 15_000.0, 25_000.0];
    let trace = stress_trace(StandardCycle::Us06, 1).expect("trace");
    let limit = Kelvin::from_celsius(40.0);

    let mut series = Vec::new();
    for &farads in &sizes {
        let config = stress_config_with_capacitance(farads);
        let mut dual = Dual::new(&config).expect("controller");
        let r = Simulator::new(&config).run(&mut dual, &trace);
        series.push((farads, r));
    }

    println!("# Fig. 1 — battery temperature, dual architecture, US06 x1 (city-EV rig)");
    println!(
        "{}",
        otem_bench::config_header(
            "stress_config() (SystemConfig::stress_rig: city-EV pack, compact EV, 30 °C ambient), bank size per column",
            None
        )
    );
    print!("{:>7}", "t(s)");
    for &(farads, _) in &series {
        print!(" {:>9}", format!("{:.0}F", farads));
    }
    println!("   (temperatures in °C; safe limit 40 °C)");
    let n = series[0].1.records.len();
    for t in (0..n).step_by(30) {
        print!("{:>7}", t);
        for (_, r) in &series {
            print!(
                " {:>9.2}",
                r.records[t].state.battery_temp.to_celsius().value()
            );
        }
        println!();
    }

    println!(
        "\n{:>9} {:>10} {:>12} {:>14}",
        "size (F)", "Tpeak(°C)", "t>40°C (s)", "cap fallbacks"
    );
    for (farads, r) in &series {
        // Fallbacks: steps where the policy wanted the cap but the battery
        // had to serve while hot (> 37 °C) — the Fig. 1 failure mode.
        let fallbacks = r
            .records
            .iter()
            .filter(|rec| {
                rec.state.battery_temp > Kelvin::from_celsius(37.0)
                    && rec.hees.battery_internal.value() > 0.0
            })
            .count();
        println!(
            "{:>9.0} {:>10.2} {:>12.0} {:>14}",
            farads,
            r.totals.peak_battery_temp.to_celsius().value(),
            r.time_above(limit).value(),
            fallbacks
        );
    }
    println!("\nShape check (paper): violations shrink with bank size, but even the");
    println!("largest bank cannot eliminate them — the paper's Fig. 1 conclusion that");
    println!("ultracapacitors alone are unreliable and active cooling is necessary.");
}
