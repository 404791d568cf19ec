//! **Fig. 9** — Average power consumption (EV + cooling system) per
//! methodology per drive cycle.
//!
//! Paper headline: methodologies with active cooling consume more, but
//! OTEM undercuts the pure active-cooling system by 12.1 % on average
//! because the HEES contributes.
//!
//! ```sh
//! cargo run --release -p otem-bench --bin fig9_power
//! ```

use otem_bench::{cycle_trace, paper_config, run, Methodology};
use otem_drivecycle::StandardCycle;

fn repeats(cycle: StandardCycle) -> usize {
    match cycle {
        StandardCycle::Udds | StandardCycle::La92 => 2,
        StandardCycle::Hwfet => 4,
        _ => 5,
    }
}

fn main() {
    let config = paper_config();
    println!("# Fig. 9 — average power consumption (kW), including cooling");
    println!(
        "{}",
        otem_bench::config_header(
            otem_bench::PAPER_CONFIG,
            Some(&otem::mpc::MpcConfig::default())
        )
    );
    println!(
        "{:<7} {:>10} {:>14} {:>8} {:>8}",
        "cycle", "Parallel", "ActiveCooling", "Dual", "OTEM"
    );
    let mut otem_vs_cooling = Vec::new();
    for cycle in StandardCycle::ALL {
        let trace = cycle_trace(cycle, repeats(cycle)).expect("trace");
        let mut row = format!("{:<7}", cycle.spec().name);
        let mut cooling_power = 0.0;
        for m in Methodology::ALL {
            let r = run(m, &config, &trace).expect("run");
            let kw = r.average_power().value() / 1000.0;
            match m {
                Methodology::ActiveCooling => cooling_power = kw,
                Methodology::Otem => otem_vs_cooling.push(kw / cooling_power - 1.0),
                _ => {}
            }
            let width = match m {
                Methodology::Parallel => 10,
                Methodology::ActiveCooling => 14,
                _ => 8,
            };
            row.push_str(&format!(" {:>width$.2}", kw));
        }
        println!("{row}");
    }
    let avg = otem_vs_cooling.iter().sum::<f64>() / otem_vs_cooling.len() as f64;
    println!(
        "\nOTEM average power vs pure ActiveCooling: {:+.1}% (paper: −12.1%)",
        avg * 100.0
    );
    println!("Shape check: cooling-equipped methodologies consume more than passive");
    println!("ones; OTEM pays less of that premium than pure active cooling.");
}
