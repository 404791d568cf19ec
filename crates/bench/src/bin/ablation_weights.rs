//! **Ablation** — Eq. 19 cost weights: the `w2` (battery-wear) weight
//! trades HEES energy against lifetime. Sweeping it exposes the Pareto
//! front the paper's fixed weights pick one point of.
//!
//! ```sh
//! cargo run --release -p otem-bench --bin ablation_weights
//! ```

use otem::mpc::MpcConfig;
use otem::policy::Otem;
use otem::Simulator;
use otem_bench::{cycle_trace, paper_config};
use otem_drivecycle::StandardCycle;

fn main() {
    let config = paper_config();
    let trace = cycle_trace(StandardCycle::Us06, 2).expect("trace");

    println!("# Ablation — lifetime weight w2, US06 x2");
    println!(
        "{}",
        otem_bench::config_header(
            &format!(
                "{}, w2 swept per row from the default",
                otem_bench::PAPER_CONFIG
            ),
            Some(&MpcConfig::default())
        )
    );
    println!(
        "{:>10} {:>12} {:>10} {:>10} {:>10}",
        "w2", "Q_loss", "avgP (kW)", "cool (MJ)", "Tpeak(°C)"
    );
    for w2 in [0.0, 1.0e12, 5.0e12, 2.0e13] {
        let mpc = MpcConfig {
            w2,
            ..MpcConfig::default()
        };
        let mut otem = Otem::with_mpc(&config, mpc).expect("controller");
        let r = Simulator::new(&config).run(&mut otem, &trace);
        println!(
            "{:>10.1e} {:>12.4e} {:>10.2} {:>10.2} {:>10.2}",
            w2,
            r.totals.capacity_loss,
            r.average_power().value() / 1000.0,
            r.totals.cooling_energy.value() / 1e6,
            r.totals.peak_battery_temp.to_celsius().value()
        );
    }
    println!("\nExpected: larger w2 buys battery lifetime with energy (more cooling,");
    println!("more ultracapacitor routing); w2 = 0 degenerates to energy-only management.");
}
