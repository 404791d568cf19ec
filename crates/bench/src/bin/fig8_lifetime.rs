//! **Fig. 8** — Battery capacity-loss ratio of each methodology relative
//! to the parallel architecture, across the standard drive cycles.
//!
//! Paper headline: OTEM reduces capacity loss by 16.38 % on average
//! versus the parallel architecture (and far more versus the others).
//!
//! ```sh
//! cargo run --release -p otem-bench --bin fig8_lifetime
//! ```

use otem_bench::{cycle_trace, paper_config, run, Methodology};
use otem_drivecycle::StandardCycle;

/// Repeats chosen so every route lasts roughly 40–50 minutes, enough to
/// exercise the thermal dynamics (the paper drives "multiple drive
/// cycles").
fn repeats(cycle: StandardCycle) -> usize {
    match cycle {
        StandardCycle::Udds | StandardCycle::La92 => 2,
        StandardCycle::Hwfet => 4,
        _ => 5,
    }
}

fn main() {
    let config = paper_config();
    println!("# Fig. 8 — capacity loss relative to Parallel (= 100)");
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
    let mut otem_ratios = Vec::new();
    let mut dual_ratios = Vec::new();
    // Cycles where another methodology lost less than OTEM: (cycle,
    // rival, rival's ratio, OTEM's ratio).
    let mut beaten = Vec::new();
    for cycle in StandardCycle::ALL {
        let trace = cycle_trace(cycle, repeats(cycle)).expect("trace");
        let base = run(Methodology::Parallel, &config, &trace).expect("run");
        let mut row = format!("{:<7} {:>10.1}", cycle.spec().name, 100.0);
        let mut best = (Methodology::Parallel, 100.0);
        for m in [
            Methodology::ActiveCooling,
            Methodology::Dual,
            Methodology::Otem,
        ] {
            let r = run(m, &config, &trace).expect("run");
            let ratio = r.totals.capacity_loss / base.totals.capacity_loss * 100.0;
            match m {
                Methodology::Otem => {
                    otem_ratios.push(ratio);
                    if best.1 < ratio {
                        beaten.push((cycle.spec().name, best.0.name(), best.1, ratio));
                    }
                }
                Methodology::Dual => dual_ratios.push(ratio),
                _ => {}
            }
            if ratio < best.1 {
                best = (m, ratio);
            }
            let width = if m == Methodology::ActiveCooling {
                14
            } else {
                8
            };
            row.push_str(&format!(" {:>width$.1}", ratio));
        }
        println!("{row}");
    }
    let otem_avg = otem_ratios.iter().sum::<f64>() / otem_ratios.len() as f64;
    let dual_avg = dual_ratios.iter().sum::<f64>() / dual_ratios.len() as f64;
    println!(
        "\nOTEM average capacity loss vs Parallel : {:.1} (paper: 83.6, i.e. −16.38%)",
        otem_avg
    );
    println!("Dual average capacity loss vs Parallel : {dual_avg:.1}");
    println!(
        "Shape check: OTEM has the lowest loss on {} of {} cycles.",
        StandardCycle::ALL.len() - beaten.len(),
        StandardCycle::ALL.len()
    );
    for (cycle, rival, rival_ratio, otem_ratio) in beaten {
        println!("  not on {cycle}: {rival} {rival_ratio:.1} vs OTEM {otem_ratio:.1}");
    }
}
