//! **Fault sweep** — OTEM under seeded fault campaigns.
//!
//! Runs plain OTEM through seeded fault campaigns (corrupted forecasts,
//! stuck pump under load spikes, starved solver, noisy and biased
//! thermistor) on the US06 city-EV stress rig, and reports what each
//! fault costs: capacity loss, peak battery temperature, unserved
//! energy, the realized Eq. 19 cost, and the mix of solve outcomes. The
//! closing line checks that every run kept its state finite and
//! physical.
//!
//! ```sh
//! cargo run --release -p otem-bench --bin fault_sweep
//! ```

use otem::mpc::MpcConfig;
use otem::planner::realized_cost;
use otem::policy::Otem;
use otem::{SimulationResult, Simulator, SystemConfig};
use otem_bench::{stress_config, stress_trace};
use otem_drivecycle::StandardCycle;
use otem_faults::{FaultKind, FaultPlan, FaultedController};
use otem_fleet::pool::fan_stealing;
use otem_fleet::{OutcomeTally, SolveOutcomes};
use otem_units::Kelvin;

const SEED: u64 = 0xFA_017;

/// Upper end of the battery-temperature range the check accepts.
const T_B_MAX: Kelvin = Kelvin::from_celsius(60.0);

fn mpc() -> MpcConfig {
    MpcConfig {
        horizon: 8,
        solver_iterations: 15,
        ..MpcConfig::default()
    }
}

fn campaigns() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("nominal", FaultPlan::new(SEED)),
        (
            "forecast_nan",
            FaultPlan::new(SEED).inject(FaultKind::ForecastCorrupt, 30, 60),
        ),
        (
            "pump_stuck_spikes",
            FaultPlan::new(SEED)
                .inject(FaultKind::PumpStuck, 20, 80)
                .inject(FaultKind::LoadSpike { power_w: 300_000.0 }, 40, 50),
        ),
        (
            "solver_starved",
            FaultPlan::new(SEED).inject(FaultKind::SolverDeadline { deadline_ns: 0 }, 30, 60),
        ),
        (
            "sensor_storm",
            FaultPlan::new(SEED)
                .inject(FaultKind::SensorNoise { temp_sigma_k: 1.5 }, 10, 110)
                .inject(FaultKind::SensorBias { temp_k: -4.0 }, 60, 100),
        ),
    ]
}

struct Outcome {
    result: SimulationResult,
    faults_injected: u64,
    solves: SolveOutcomes,
}

fn run(config: &SystemConfig, trace: &otem_drivecycle::PowerTrace, plan: FaultPlan) -> Outcome {
    let otem = Otem::with_mpc(config, mpc()).expect("valid controller");
    let mut harness = FaultedController::new(otem, plan);
    let tally = OutcomeTally::new();
    let result = Simulator::new(config).run_with(&mut harness, trace, &tally);
    Outcome {
        result,
        faults_injected: harness.injections(),
        solves: tally.snapshot(),
    }
}

/// Whether every step's state is finite, SoC/SoE lie in `[0, 1]` and
/// the battery stays below [`T_B_MAX`].
fn state_in_range(result: &SimulationResult) -> bool {
    result.records.iter().all(|r| {
        let s = r.state;
        s.battery_temp.value().is_finite()
            && s.coolant_temp.value().is_finite()
            && (0.0..=1.0).contains(&s.soc.value())
            && (0.0..=1.0).contains(&s.soe.value())
            && s.battery_temp < T_B_MAX
    })
}

fn main() {
    let config = stress_config();
    let trace = stress_trace(StandardCycle::Us06, 1).expect("trace");

    println!("# Fault sweep — plain OTEM under seeded fault campaigns, US06 (city-EV rig)");
    println!(
        "{:>18} {:>10} {:>10} {:>12} {:>12} {:>7} {:>6} {:>7} {:>8} {:>7} {:>9}",
        "campaign",
        "Q_loss",
        "Tpeak(°C)",
        "unserved(J)",
        "cost",
        "faults",
        "conv",
        "budget",
        "stalled",
        "nonfin",
        "deadline"
    );

    // Each campaign run is independent and seeded; fan them across
    // worker threads and emit rows in campaign order.
    let outcomes = fan_stealing(campaigns(), 0, |_, (name, plan)| {
        (name, run(&config, &trace, plan))
    });

    let mut out_of_range = Vec::new();
    for (name, o) in &outcomes {
        let totals = o.result.totals;
        let s = o.solves;
        println!(
            "{:>18} {:>10.3e} {:>10.2} {:>12.1} {:>12.6e} {:>7} {:>6} {:>7} {:>8} {:>7} {:>9}",
            name,
            totals.capacity_loss,
            totals.peak_battery_temp.to_celsius().value(),
            totals.shortfall_energy.value(),
            realized_cost(&o.result),
            o.faults_injected,
            s.converged,
            s.budget_exhausted,
            s.stalled,
            s.non_finite,
            s.deadline_reached
        );
        if !state_in_range(&o.result) {
            out_of_range.push(*name);
        }
    }

    let verdict = if out_of_range.is_empty() {
        "holds".to_string()
    } else {
        format!("FAILS on {}", out_of_range.join(", "))
    };
    println!(
        "\nCheck (every step of every campaign: state finite, SoC and SoE in [0, 1], \
         T_b < {:.0} °C): {verdict}",
        T_B_MAX.to_celsius().value()
    );
}
