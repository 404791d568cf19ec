//! **Solve quality** — how far the default MPC budget leaves each plan
//! from a long solve of the same problem, and what the default
//! controller realizes in closed loop.
//!
//! 1. Per solve: a fixed rule (no MPC) drives the stress rig over US06
//!    ×3, so every solver sees the same sequence of states. At each
//!    state two OTEM controllers plan, each warm-started along the
//!    sequence: one at the default 20 iterations, one at 400. The gap
//!    is `(cost₂₀ − cost₄₀₀) / |cost₄₀₀|` of the Eq. 19 objective
//!    (penalties included) at the two plans.
//! 2. Closed loop: the default OTEM over `fig8_lifetime`'s NYCC ×5 and
//!    US06 ×5 under `paper_config()`. "Loss" is its capacity loss as a
//!    percentage of Parallel's on the same route (Fig. 8); "cost" is the
//!    realized Eq. 19 cost `w1·cooling + w2·Q_loss + w3·HEES energy`
//!    with the default weights, and no end-state term.
//!
//! ```sh
//! cargo run --release -p otem-bench --bin plan_gap
//! ```

use otem::mpc::MpcConfig;
use otem::policy::Otem;
use otem::{Controller, SystemConfig};
use otem_bench::{cycle_trace, paper_config, run, stress_trace, Methodology};
use otem_drivecycle::StandardCycle;
use otem_telemetry::NullSink;
use otem_units::{Kelvin, Watts};

/// Iterations of the long reference solve.
const LONG_BUDGET: usize = 400;

/// The rule's peak-shaving threshold: the bank serves load above it.
const SHAVE_ABOVE: Watts = Watts::new(15_000.0);
/// The rule's bank recharge power below the threshold.
const RECHARGE: Watts = Watts::new(2_000.0);

/// Relative gap of every default-budget plan on the rule-driven state
/// sequence.
fn per_solve_gaps() -> Vec<f64> {
    let config = SystemConfig::stress_rig();
    let trace = stress_trace(StandardCycle::Us06, 3).expect("trace");
    let default = MpcConfig::default();
    let mut short = Otem::with_mpc(&config, default).expect("controller");
    let mut long = Otem::with_mpc(
        &config,
        MpcConfig {
            solver_iterations: LONG_BUDGET,
            ..default
        },
    )
    .expect("controller");
    let (hot, cool) = (Kelvin::from_celsius(33.0), Kelvin::from_celsius(31.0));
    let mut cooling = false;
    let mut gaps = Vec::with_capacity(trace.len());
    for t in 0..trace.len() {
        let window = trace.window(t, default.horizon);
        let (load, forecast) = (window[0], &window[1..]);
        let a = short.plan_with(load, forecast, trace.dt(), &NullSink);
        let b = long.plan_with(load, forecast, trace.dt(), &NullSink);
        gaps.push((a.cost - b.cost) / b.cost.abs());

        // The rule: shave peaks from the bank down to its floor, recharge
        // it slowly below the threshold, and a 33/31 °C thermostat.
        let state = short.state();
        assert_eq!(state, long.state(), "the rule must drive both plants alike");
        if state.battery_temp >= hot {
            cooling = true;
        } else if state.battery_temp <= cool {
            cooling = false;
        }
        let cap_bus = if load > SHAVE_ABOVE && state.soe.value() > config.soe_min.value() + 0.05 {
            (load - SHAVE_ABOVE).min(config.cap_power_max)
        } else if load <= SHAVE_ABOVE && state.soe.value() < 0.9 {
            Watts::ZERO - RECHARGE
        } else {
            Watts::ZERO
        };
        let duty = if cooling { 1.0 } else { 0.0 };
        for otem in [&mut short, &mut long] {
            otem.apply_with(load, cap_bus, duty, trace.dt(), &NullSink);
        }
    }
    gaps
}

/// The `q`-quantile of `sorted` (nearest rank).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    sorted[((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1]
}

fn main() {
    println!("# Solve quality — default budget against a {LONG_BUDGET}-iteration solve");
    println!(
        "{}",
        otem_bench::config_header(
            &format!(
                "{}, US06 x3 driven by a fixed peak-shaving rule",
                otem_bench::STRESS_CONFIG
            ),
            Some(&MpcConfig::default())
        )
    );
    let mut gaps = per_solve_gaps();
    gaps.sort_by(f64::total_cmp);
    let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
    println!(
        "{:>7} {:>12} {:>12} {:>12} {:>12}",
        "solves", "mean gap", "p50 gap", "p95 gap", "max gap"
    );
    println!(
        "{:>7} {:>12.4e} {:>12.4e} {:>12.4e} {:>12.4e}",
        gaps.len(),
        mean,
        quantile(&gaps, 0.5),
        quantile(&gaps, 0.95),
        gaps[gaps.len() - 1]
    );

    println!(
        "\n# Closed loop — default OTEM, {}",
        otem_bench::PAPER_CONFIG
    );
    println!("{:<7} {:>10} {:>12}", "route", "loss (%)", "cost");
    let config = paper_config();
    let w2 = MpcConfig::default().w2;
    for cycle in [StandardCycle::Nycc, StandardCycle::Us06] {
        let trace = cycle_trace(cycle, 5).expect("trace");
        let parallel = run(Methodology::Parallel, &config, &trace).expect("run");
        let otem = run(Methodology::Otem, &config, &trace).expect("run");
        let cost =
            otem.cooling_energy().value() + w2 * otem.capacity_loss() + otem.energy().value();
        println!(
            "{:<7} {:>10.2} {:>12.4e}",
            format!("{} x5", cycle.spec().name),
            otem.capacity_loss() / parallel.capacity_loss() * 100.0,
            cost
        );
    }
}
