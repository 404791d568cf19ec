//! **Fig. 7** — Temporal analysis of the TEB preparation: battery
//! temperature, ultracapacitor SoE and the EV power requests under OTEM
//! (US06 x3 on the city-EV stress rig, 25,000 F).
//!
//! The paper's claim: when OTEM sees large requests in the near future,
//! it allocates charge to the ultracapacitor (or pre-cools the battery)
//! *before* they arrive.
//!
//! ```sh
//! cargo run --release -p otem-bench --bin fig7_teb
//! ```

use otem_bench::{run, stress_config, stress_trace, Methodology};
use otem_drivecycle::StandardCycle;

fn main() {
    let config = stress_config();
    let trace = stress_trace(StandardCycle::Us06, 3).expect("trace");
    let r = run(Methodology::Otem, &config, &trace).expect("run");

    println!("# Fig. 7 — OTEM TEB preparation, US06 x3 (city-EV rig), 25,000 F");
    println!(
        "{}",
        otem_bench::config_header(
            otem_bench::STRESS_CONFIG,
            Some(&otem::mpc::MpcConfig::default())
        )
    );
    println!(
        "{:>7} {:>10} {:>9} {:>8} {:>11} {:>10}",
        "t(s)", "P_e (kW)", "T_b(°C)", "SoE(%)", "cap (kW)", "cool (kW)"
    );
    for (t, rec) in r.records.iter().enumerate().step_by(60) {
        println!(
            "{:>7} {:>10.1} {:>9.2} {:>8.1} {:>11.1} {:>10.2}",
            t,
            rec.load.value() / 1000.0,
            rec.state.battery_temp.to_celsius().value(),
            rec.state.soe.to_percent(),
            rec.hees.cap_internal.value() / 1000.0,
            rec.cooling_power.value() / 1000.0,
        );
    }

    println!("\n# trace shapes");
    let loads: Vec<f64> = r
        .records
        .iter()
        .map(|rec| rec.load.value() / 1000.0)
        .collect();
    let temps: Vec<f64> = r
        .battery_temps()
        .iter()
        .map(|t| t.to_celsius().value())
        .collect();
    let soes: Vec<f64> = r.soe_series().iter().map(|s| s * 100.0).collect();
    let cooling: Vec<f64> = r
        .records
        .iter()
        .map(|rec| rec.cooling_power.value() / 1000.0)
        .collect();
    println!(
        "{}",
        otem_bench::plot::labelled_sparkline("P_e (kW)", &loads, 72)
    );
    println!(
        "{}",
        otem_bench::plot::labelled_sparkline("T_b (°C)", &temps, 72)
    );
    println!(
        "{}",
        otem_bench::plot::labelled_sparkline("SoE (%)", &soes, 72)
    );
    println!(
        "{}",
        otem_bench::plot::labelled_sparkline("cool (kW)", &cooling, 72)
    );

    // TEB events, via the library's analysis module.
    let report = otem::analysis::teb_report(&r, &otem::analysis::TebCriteria::default());
    println!("\nTEB events:");
    println!(
        "  pre-charge steps ahead of a >25 kW peak : {}",
        report.precharge_events
    );
    println!(
        "  pre-cool steps ahead of a >25 kW peak   : {}",
        report.precool_events
    );
    println!(
        "  >25 kW peaks sharing load with the bank : {} ({:.0}% of peaks)",
        report.peaks_shared,
        report.peak_share_fraction() * 100.0
    );
    let energy = r.totals;
    println!(
        "  energy: delivered {:.1} MJ, battery loss {:.2} MJ, converter loss {:.2} MJ, cooling {:.2} MJ",
        energy.delivered_energy.value() / 1e6,
        energy.battery_loss.value() / 1e6,
        energy.converter_loss.value() / 1e6,
        energy.cooling_energy.value() / 1e6
    );
    println!("\nShape check (paper): the bank is topped up before large requests and");
    println!("drains through them, keeping the HEES at its most efficient state.");
}
