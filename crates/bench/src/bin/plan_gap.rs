//! **Solve quality** — how far the default MPC budget leaves each plan
//! from a long solve of the same problem, and what each configuration of
//! the closed-loop frontier realizes.
//!
//! 1. Per solve: a fixed rule (no MPC) drives the stress rig over US06
//!    ×3, so every solver sees the same sequence of states. At each
//!    state two OTEM controllers plan, each warm-started along the
//!    sequence: one at the default 20 iterations, one at 400. The gap
//!    is `(cost₂₀ − cost₄₀₀) / |cost₄₀₀|` of the Eq. 19 objective
//!    (penalties included) at the two plans.
//! 2. Closed loop: the frontier ([`frontier_rows`]) over
//!    `fig8_lifetime`'s NYCC ×5 and US06 ×5 under `paper_config()`, each
//!    row the default OTEM with its horizon `h`, re-plan period `k`,
//!    budget, tail and `w2` set. "Loss" is capacity loss as a percentage
//!    of Parallel's (Fig. 8); "cost" is the realized Eq. 19 cost
//!    `w1·cooling + w2·Q_loss + w3·HEES energy` at the default weights
//!    whatever the row's `w2` ([`realized_cost`]). "Floor cost" is the
//!    cost the whole-route plan ([`plan_route`]) realizes, and "regret"
//!    how far the row's cost lies above it. The floor is a best-known
//!    plan, not a bound, and the cost has no end-state term (the end
//!    SoC, SoE and T_b are printed beside it), so the regret is a lower
//!    bound. "Stages" is forward stage steps per decision.
//!
//! ```sh
//! cargo run --release -p otem-bench --bin plan_gap
//! ```

use otem::mpc::MpcConfig;
use otem::planner::{plan_route, realized_cost};
use otem::policy::Otem;
use otem::{Controller, SystemConfig};
use otem_bench::{
    cycle_trace, frontier_rows, paper_config, run, run_frontier_row, stress_trace, Methodology,
};
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
        "\n# Closed loop — the frontier, {}",
        otem_bench::PAPER_CONFIG
    );
    println!(
        "{:<7} {:>3} {:>2} {:>3} {:>5} {:>7} {:>8} {:>9} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8} {:>6} {:>6} {:>10}",
        "route", "h", "k", "it", "tail", "w2", "loss (%)", "avgP (kW)", "cool (MJ)", "Tpeak (°C)",
        "short (MJ)", "cost", "floor cost", "regret (%)", "stages", "SoC", "SoE", "T_b (°C)"
    );
    let config = paper_config();
    for cycle in [StandardCycle::Nycc, StandardCycle::Us06] {
        let trace = cycle_trace(cycle, 5).expect("trace");
        let parallel = run(Methodology::Parallel, &config, &trace).expect("run");
        let floor = realized_cost(&plan_route(&config, &trace).expect("plan").replay);
        for (mpc, k) in frontier_rows() {
            let (r, stages) = run_frontier_row((mpc, k), &config, &trace, &NullSink).expect("run");
            let cost = realized_cost(&r);
            let end = r.records.last().expect("a route has steps").state;
            println!(
                "{:<7} {:>3} {:>2} {:>3} {:>5} {:>7.1e} {:>8.2} {:>9.2} {:>9.2} {:>10.2} {:>10.3} {:>10.4e} {:>10.4e} {:>10.2} {:>8.1} {:>6.3} {:>6.3} {:>10.2}",
                format!("{} x5", cycle.spec().name),
                mpc.horizon,
                k,
                mpc.solver_iterations,
                mpc.terminal_tail,
                mpc.w2,
                r.totals.capacity_loss / parallel.totals.capacity_loss * 100.0,
                r.average_power().value() / 1000.0,
                r.totals.cooling_energy.value() / 1e6,
                r.totals.peak_battery_temp.to_celsius().value(),
                r.totals.shortfall_energy.value() / 1e6,
                cost,
                floor,
                (cost / floor - 1.0) * 100.0,
                stages,
                end.soc.value(),
                end.soe.value(),
                end.battery_temp.to_celsius().value()
            );
        }
    }
}
