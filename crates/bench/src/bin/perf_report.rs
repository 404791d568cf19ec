//! Performance trajectory for the MPC hot path (the reverse-mode
//! adjoint gradient) across horizon lengths.
//!
//! Runs warm-started `Mpc::solve` repetitions at horizons {12, 24, 48}
//! under the default iteration budget for the latency table, then
//! re-runs them under a raised budget to measure *iterations to
//! tolerance*, and writes `BENCH_mpc.json` (per-solve latency,
//! rollouts/second, solves/second, forward passes and differentiated
//! points per solve, iteration counts, solver-outcome distributions) so
//! later changes have a baseline to compare against.
//!
//! Usage:
//! `cargo run --release -p otem-bench --bin perf_report`
//!
//! The gradient's correctness contract lives in
//! `tests/gradient_parity.rs` and `tests/golden_traces.rs`.

use otem::mpc::{Mpc, MpcConfig, MpcPlant};
use otem::SystemConfig;
use otem_fleet::protocol::outcomes_json;
use otem_fleet::SolveOutcomes;
use otem_telemetry::{Event, JsonlSink, MetricsRegistry, RegistrySnapshot, Sink, Tee};
use otem_thermal::{CoolingPlant, ThermalModel, ThermalState};
use otem_units::{Kelvin, Ratio, Seconds, Watts};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

const HORIZONS: [usize; 3] = [12, 24, 48];
const REPS: usize = 8;

/// Iteration budget for the iterations-to-tolerance comparison: high
/// enough that termination is decided by convergence, not the cap.
const TOL_BUDGET: usize = 400;

fn plant(config: &SystemConfig) -> MpcPlant {
    let mut hees = config.hybrid_plant().unwrap();
    hees.set_state(Ratio::new(0.8), Ratio::new(0.6));
    MpcPlant {
        hees,
        thermal: ThermalModel::new(config.thermal_active).unwrap(),
        plant: CoolingPlant::new(config.plant).unwrap(),
        state: ThermalState::uniform(Kelvin::from_celsius(33.0)),
        aging: config.aging,
        soc_min: config.soc_min,
        soe_min: config.soe_min,
        battery_power_max: config.battery_power_max,
        cap_power_max: config.cap_power_max,
    }
}

/// Counts [`Event::GradientEval`]s: one per point the solver
/// differentiated (one backward sweep each).
#[derive(Default)]
struct GradientCounter(AtomicU64);

impl Sink for GradientCounter {
    fn record(&self, event: Event) {
        if matches!(event, Event::GradientEval { .. }) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
}

struct SolveStats {
    mean_ms: f64,
    min_ms: f64,
    rollouts_per_sec: f64,
    rollouts_per_solve: f64,
    /// Points differentiated per solve; a forward pass that is not one
    /// (a rejected line-search trial) pays for values only.
    differentiated_per_solve: f64,
    solves_per_sec: f64,
    mean_iterations: f64,
    /// The replay's registry: the timed solves' outcome counters.
    metrics: RegistrySnapshot,
    /// First decision, checked finite.
    cap_bus: f64,
    cool_duty: f64,
}

fn run_solves(
    p: &MpcPlant,
    loads: &[Watts],
    horizon: usize,
    iterations: usize,
    sink: &dyn Sink,
) -> SolveStats {
    let mut mpc = Mpc::new(MpcConfig {
        horizon,
        solver_iterations: iterations,
        ..MpcConfig::default()
    });
    let dt = Seconds::new(1.0);
    // Warm-up solve: builds the rollout workspace and the warm start, so
    // the timed repetitions measure the steady state. Only this solve is
    // traced — the timed loop below runs unobserved so the telemetry
    // writer cannot pollute the latency numbers.
    let first = mpc.solve_with(p, loads, dt, sink);
    // Solves are deterministic, so an observed replay of the timed
    // repetitions on a copy counts their gradients and outcomes without
    // a sink in the timed loop.
    let mut replay = mpc.clone();
    let rollouts_before = mpc.rollouts();
    let mut latencies_ms = Vec::with_capacity(REPS);
    let mut iters_total = 0usize;
    let started = Instant::now();
    for _ in 0..REPS {
        let t0 = Instant::now();
        let d = mpc.solve(p, loads, dt);
        latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        assert!(d.cap_bus.is_finite(), "solve produced a non-finite command");
        iters_total += d.iterations;
    }
    let elapsed = started.elapsed().as_secs_f64();
    let rollouts = mpc.rollouts() - rollouts_before;
    let gradients = GradientCounter::default();
    let registry = MetricsRegistry::new();
    for _ in 0..REPS {
        replay.solve_with(p, loads, dt, &Tee(&gradients, &registry));
    }
    assert_eq!(
        replay.rollouts(),
        mpc.rollouts(),
        "the replay diverged from the timed solves"
    );
    let metrics = registry.snapshot();
    SolveStats {
        mean_ms: latencies_ms.iter().sum::<f64>() / REPS as f64,
        min_ms: latencies_ms.iter().copied().fold(f64::INFINITY, f64::min),
        rollouts_per_sec: rollouts as f64 / elapsed,
        rollouts_per_solve: rollouts as f64 / REPS as f64,
        differentiated_per_solve: gradients.0.load(Ordering::Relaxed) as f64 / REPS as f64,
        solves_per_sec: REPS as f64 / elapsed,
        mean_iterations: iters_total as f64 / REPS as f64,
        metrics,
        cap_bus: first.cap_bus.value(),
        cool_duty: first.cool_duty,
    }
}

fn main() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if let Some(arg) = std::env::args().nth(1) {
        panic!("perf_report takes no arguments, got {arg:?}");
    }
    let config = SystemConfig::default();
    let p = plant(&config);
    std::fs::create_dir_all("results").expect("results dir");
    let sink = JsonlSink::create("results/perf_report_telemetry.jsonl").expect("telemetry file");

    let default_iters = MpcConfig::default().solver_iterations;
    println!("{:<8} {:>11} {:>8}", "horizon", "adj_ms", "adj_it");
    // Every row's registry merges into one snapshot, embedded in the
    // report as the `metrics` object — the same family (and JSON shape)
    // the serving layer exports.
    let mut metrics = RegistrySnapshot::default();
    let mut rows = Vec::new();
    for horizon in HORIZONS {
        let loads: Vec<Watts> = (0..horizon)
            .map(|k| Watts::new(20_000.0 + 40_000.0 * ((k % 5) as f64 / 4.0)))
            .collect();
        let adjoint = run_solves(&p, &loads, horizon, default_iters, &sink);
        // Iterations-to-tolerance: same problem, raised budget, so the
        // iteration count — not the cap — decides termination.
        let adjoint_tol = run_solves(&p, &loads, horizon, TOL_BUDGET, &sink);
        for stats in [&adjoint, &adjoint_tol] {
            metrics.merge(&stats.metrics);
        }
        assert!(adjoint.cap_bus.is_finite() && adjoint.cool_duty.is_finite());
        println!(
            "{:<8} {:>11.3} {:>8.1}",
            horizon, adjoint.mean_ms, adjoint_tol.mean_iterations
        );
        let stats_json = |s: &SolveStats| {
            format!(
                "{{ \"mean_ms\": {:.4}, \"min_ms\": {:.4}, \"rollouts_per_sec\": {:.0}, \
                 \"rollouts_per_solve\": {:.1}, \"differentiated_per_solve\": {:.1}, \
                 \"solves_per_sec\": {:.1}, \"mean_iterations\": {:.1}, \"outcomes\": {} }}",
                s.mean_ms,
                s.min_ms,
                s.rollouts_per_sec,
                s.rollouts_per_solve,
                s.differentiated_per_solve,
                s.solves_per_sec,
                s.mean_iterations,
                outcomes_json(&SolveOutcomes::from_snapshot(&s.metrics))
            )
        };
        rows.push(format!(
            concat!(
                "    {{\n",
                "      \"horizon\": {},\n",
                "      \"adjoint\": {},\n",
                "      \"adjoint_tol_budget\": {}\n",
                "    }}"
            ),
            horizon,
            stats_json(&adjoint),
            stats_json(&adjoint_tol)
        ));
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"mpc_solve_horizons\",\n",
            "  \"solves_per_mode\": {},\n",
            "  \"tol_budget\": {},\n",
            "  \"cpu_cores\": {},\n",
            "  \"results\": [\n{}\n  ],\n",
            "  \"metrics\": {}\n",
            "}}\n"
        ),
        REPS,
        TOL_BUDGET,
        cores,
        rows.join(",\n"),
        metrics.render_json()
    );
    std::fs::write("BENCH_mpc.json", &json).expect("write BENCH_mpc.json");
    sink.flush();
    println!("\nwrote BENCH_mpc.json ({cores} cores)");
    println!("wrote results/perf_report_telemetry.jsonl (warm-up solve traces)");
}
