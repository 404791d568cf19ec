//! **Fig. 6** — Battery temperature trace for every methodology
//! (US06 x3 on the city-EV stress rig, 25,000 F).
//!
//! The paper's point: the dual architecture only *reacts* at its
//! threshold, while OTEM proactively keeps the battery cooler to extend
//! its lifetime.
//!
//! ```sh
//! cargo run --release -p otem-bench --bin fig6_temperature
//! ```

use otem_bench::{run, stress_config, stress_trace, Methodology};
use otem_drivecycle::StandardCycle;

fn main() {
    let config = stress_config();
    let trace = stress_trace(StandardCycle::Us06, 3).expect("trace");

    let results: Vec<_> = Methodology::ALL
        .iter()
        .map(|&m| run(m, &config, &trace).expect("run"))
        .collect();

    println!("# Fig. 6 — battery temperature by methodology, US06 x3 (city-EV rig), 25,000 F (°C)");
    println!(
        "{}",
        otem_bench::config_header(
            otem_bench::STRESS_CONFIG,
            Some(&otem::mpc::MpcConfig::default())
        )
    );
    print!("{:>7}", "t(s)");
    for r in &results {
        print!(" {:>14}", r.methodology);
    }
    println!();
    let n = results[0].records.len();
    for t in (0..n).step_by(60) {
        print!("{:>7}", t);
        for r in &results {
            print!(
                " {:>14.2}",
                r.records[t].state.battery_temp.to_celsius().value()
            );
        }
        println!();
    }

    println!("\n# temperature shapes (full traces)");
    for r in &results {
        let temps: Vec<f64> = r
            .battery_temps()
            .iter()
            .map(|t| t.to_celsius().value())
            .collect();
        println!(
            "{}",
            otem_bench::plot::labelled_sparkline(r.methodology, &temps, 72)
        );
    }

    println!(
        "\n{:>14} {:>10} {:>12} {:>12}",
        "methodology", "Tpeak(°C)", "Tmean(°C)", "Q_loss"
    );
    for r in &results {
        let mean = r
            .battery_temps()
            .iter()
            .map(|t| t.to_celsius().value())
            .sum::<f64>()
            / r.records.len() as f64;
        println!(
            "{:>14} {:>10.2} {:>12.2} {:>12.4e}",
            r.methodology,
            r.totals.peak_battery_temp.to_celsius().value(),
            mean,
            r.totals.capacity_loss
        );
    }
    println!("\nShape check (paper): Dual reacts at its threshold; OTEM holds the lowest");
    println!("managed temperature and the lowest capacity loss.");
}
