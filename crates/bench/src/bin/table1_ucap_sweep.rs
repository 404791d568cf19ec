//! **Table I** — Influence of the ultracapacitor size: average power and
//! capacity loss (relative to Parallel @ 25,000 F = 100) for the
//! Parallel, Dual and OTEM methodologies on US06.
//!
//! Paper shape: shrinking the bank hurts Parallel and Dual sharply,
//! while OTEM, with its active cooling fallback, is nearly
//! size-independent.
//!
//! ```sh
//! cargo run --release -p otem-bench --bin table1_ucap_sweep
//! ```

use otem_bench::{run, stress_config_with_capacitance, stress_trace, Methodology};
use otem_drivecycle::StandardCycle;
use otem_fleet::pool::fan_stealing;

fn main() {
    let sizes = [5_000.0, 10_000.0, 20_000.0, 25_000.0];
    let methodologies = [Methodology::Parallel, Methodology::Dual, Methodology::Otem];
    let trace = stress_trace(StandardCycle::Us06, 3).expect("trace");

    // The whole grid fans across worker threads; results are indexed
    // size-major so the table prints in the paper's order. The
    // reference cell (Parallel @ 25,000 F) is part of the grid.
    let jobs: Vec<(f64, Methodology)> = sizes
        .into_iter()
        .flat_map(|farads| methodologies.into_iter().map(move |m| (farads, m)))
        .collect();
    let reference_at = jobs
        .iter()
        .position(|&(f, m)| f == 25_000.0 && m == Methodology::Parallel)
        .expect("reference cell in grid");
    let cells = fan_stealing(jobs, 0, |_, (farads, m)| {
        let r = run(m, &stress_config_with_capacitance(farads), &trace).expect("run");
        (r.average_power().value(), r.totals.capacity_loss)
    });
    let reference = cells[reference_at].1;

    println!("# Table I — ultracapacitor size sweep, US06 x3 (city-EV rig)");
    println!(
        "{}",
        otem_bench::config_header(
            "stress_config() (SystemConfig::stress_rig: city-EV pack, compact EV, 30 °C ambient), bank size per row",
            Some(&otem::mpc::MpcConfig::default())
        )
    );
    println!(
        "{:>9} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9}",
        "", "avg power (W)", "", "", "capacity loss (%)", "", ""
    );
    println!(
        "{:>9} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9}",
        "size (F)", "Parallel", "Dual", "OTEM", "Parallel", "Dual", "OTEM"
    );
    for (row, &farads) in sizes.iter().enumerate() {
        let row = &cells[row * methodologies.len()..(row + 1) * methodologies.len()];
        let losses: Vec<f64> = row.iter().map(|c| c.1 / reference * 100.0).collect();
        println!(
            "{:>9.0} | {:>9.0} {:>9.0} {:>9.0} | {:>9.2} {:>9.2} {:>9.2}",
            farads, row[0].0, row[1].0, row[2].0, losses[0], losses[1], losses[2]
        );
    }
    println!("\nShape check (paper Table I): OTEM has the lowest capacity loss at every");
    println!("size; even its 5,000 F point beats the other architectures at 25,000 F —");
    println!("the active-cooling fallback decouples OTEM from the bank size, while the");
    println!("parallel architecture is the most size-dependent.");
}
