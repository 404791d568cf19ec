//! **Ablation** — MPC control-window length: how much of OTEM's benefit
//! comes from look-ahead (the TEB idea needs enough horizon to see the
//! peaks coming)?
//!
//! ```sh
//! cargo run --release -p otem-bench --bin ablation_horizon
//! ```

use otem::mpc::MpcConfig;
use otem::policy::Otem;
use otem::Simulator;
use otem_bench::{cycle_trace, paper_config};
use otem_drivecycle::StandardCycle;

fn main() {
    let config = paper_config();
    let trace = cycle_trace(StandardCycle::Us06, 2).expect("trace");

    println!("# Ablation — MPC horizon length, US06 x2");
    println!(
        "{}",
        otem_bench::config_header(
            &format!(
                "{}, horizon swept per row from the default",
                otem_bench::PAPER_CONFIG
            ),
            Some(&MpcConfig::default())
        )
    );
    println!(
        "{:>9} {:>12} {:>10} {:>10} {:>11}",
        "N (s)", "Q_loss", "avgP (kW)", "short(MJ)", "passes/dec"
    );
    for horizon in [1usize, 3, 6, 12, 24] {
        let mpc = MpcConfig {
            horizon,
            ..MpcConfig::default()
        };
        let mut otem = Otem::with_mpc(&config, mpc).expect("controller");
        let r = Simulator::new(&config).run(&mut otem, &trace);
        println!(
            "{:>9} {:>12.4e} {:>10.2} {:>10.3} {:>11.2}",
            horizon,
            r.capacity_loss(),
            r.average_power().value() / 1000.0,
            r.shortfall_energy().value() / 1e6,
            otem.rollouts() as f64 / r.records.len() as f64
        );
    }
    println!("\nExpected: longer windows buy lower loss/shortfall at linear compute cost");
    println!("(passes/dec: MPC forward passes per decision, each `N` stages long),");
    println!("saturating once the window covers the pulse lead time.");
}
