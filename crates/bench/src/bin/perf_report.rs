//! Performance trajectory for the MPC hot path: finite-difference
//! gradients, the reverse-mode adjoint gradient, and Gauss-Newton on the
//! adjoint tape, across horizon lengths.
//!
//! Runs warm-started `Mpc::solve` repetitions at horizons {12, 24, 48}
//! in [`GradientMode::Serial`] and [`GradientMode::Adjoint`] for the
//! latency table, then re-runs
//! Adjoint vs [`GradientMode::GaussNewton`] under a raised iteration
//! budget to measure *iterations to tolerance*, and writes
//! `BENCH_mpc.json` (per-solve latency, rollouts/second, solves/second,
//! forward passes and differentiated points per solve, iteration counts,
//! solver-outcome distributions, speedups) so later changes have a
//! baseline to compare against.
//!
//! Usage:
//! `cargo run --release -p otem-bench --bin perf_report`
//!
//! The adjoint differentiates the executed clamp branch exactly instead of
//! sampling across it, so its decisions are *not* asserted bit-identical
//! to FD; its correctness contract lives in `tests/gradient_parity.rs`
//! and `tests/golden_traces.rs`.

use otem::mpc::{Mpc, MpcConfig, MpcPlant};
use otem::SystemConfig;
use otem_bench::fold_outcomes;
use otem_fleet::protocol::outcomes_json;
use otem_fleet::SolveOutcomes;
use otem_hees::HybridHees;
use otem_solver::GradientMode;
use otem_telemetry::{Event, JsonlSink, MetricsRegistry, Sink};
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
    let mut hees = HybridHees::ev_default(config.capacitance).unwrap();
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
/// differentiated (one derivative assembly in the adjoint-family modes,
/// one finite-difference stencil in the serial mode).
#[derive(Default)]
struct GradientCounter(AtomicU64);

impl Sink for GradientCounter {
    fn record(&self, event: Event) {
        if matches!(event, Event::GradientEval { .. }) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
}

struct ModeStats {
    mean_ms: f64,
    min_ms: f64,
    rollouts_per_sec: f64,
    rollouts_per_solve: f64,
    /// Points differentiated per solve; a forward pass that is not one
    /// (a rejected line-search trial) pays for values only.
    differentiated_per_solve: f64,
    solves_per_sec: f64,
    mean_iterations: f64,
    /// Timed solves by solver outcome.
    outcomes: SolveOutcomes,
    /// First decision, checked finite.
    cap_bus: f64,
    cool_duty: f64,
}

fn run_mode(
    p: &MpcPlant,
    loads: &[Watts],
    horizon: usize,
    mode: GradientMode,
    iterations: usize,
    sink: &dyn Sink,
) -> ModeStats {
    let mut mpc = Mpc::new(MpcConfig {
        horizon,
        gradient_mode: mode,
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
    // repetitions on a copy counts their gradients without a sink in
    // the timed loop.
    let mut replay = mpc.clone();
    let rollouts_before = mpc.rollouts();
    let mut latencies_ms = Vec::with_capacity(REPS);
    let mut outcomes = SolveOutcomes::default();
    let mut iters_total = 0usize;
    let started = Instant::now();
    for _ in 0..REPS {
        let t0 = Instant::now();
        let d = mpc.solve(p, loads, dt);
        latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        assert!(d.cap_bus.is_finite(), "solve produced a non-finite command");
        outcomes.record(d.outcome.name());
        iters_total += d.iterations;
    }
    let elapsed = started.elapsed().as_secs_f64();
    let rollouts = mpc.rollouts() - rollouts_before;
    let gradients = GradientCounter::default();
    for _ in 0..REPS {
        replay.solve_with(p, loads, dt, &gradients);
    }
    assert_eq!(
        replay.rollouts(),
        mpc.rollouts(),
        "the replay diverged from the timed solves"
    );
    ModeStats {
        mean_ms: latencies_ms.iter().sum::<f64>() / REPS as f64,
        min_ms: latencies_ms.iter().copied().fold(f64::INFINITY, f64::min),
        rollouts_per_sec: rollouts as f64 / elapsed,
        rollouts_per_solve: rollouts as f64 / REPS as f64,
        differentiated_per_solve: gradients.0.load(Ordering::Relaxed) as f64 / REPS as f64,
        solves_per_sec: REPS as f64 / elapsed,
        mean_iterations: iters_total as f64 / REPS as f64,
        outcomes,
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
    println!(
        "{:<8} {:>11} {:>11} {:>11} {:>8} {:>8} {:>7}",
        "horizon", "serial_ms", "adj_ms", "gn_ms", "adj_it", "gn_it", "adj_x"
    );
    // Every mode's outcome distribution also folds into one registry
    // snapshot, embedded in the report as the `metrics` object — the
    // same family (and JSON shape) the serving layer exports.
    let registry = MetricsRegistry::new();
    let mut rows = Vec::new();
    for horizon in HORIZONS {
        let loads: Vec<Watts> = (0..horizon)
            .map(|k| Watts::new(20_000.0 + 40_000.0 * ((k % 5) as f64 / 4.0)))
            .collect();
        let serial = run_mode(
            &p,
            &loads,
            horizon,
            GradientMode::Serial,
            default_iters,
            &sink,
        );
        let adjoint = run_mode(
            &p,
            &loads,
            horizon,
            GradientMode::Adjoint,
            default_iters,
            &sink,
        );
        // Iterations-to-tolerance: same problem, raised budget, so the
        // iteration count — not the cap — decides termination.
        let adjoint_tol = run_mode(
            &p,
            &loads,
            horizon,
            GradientMode::Adjoint,
            TOL_BUDGET,
            &sink,
        );
        let gauss_newton = run_mode(
            &p,
            &loads,
            horizon,
            GradientMode::GaussNewton,
            TOL_BUDGET,
            &sink,
        );
        for (mode, stats) in [
            (GradientMode::Serial, &serial),
            (GradientMode::Adjoint, &adjoint),
            (GradientMode::Adjoint, &adjoint_tol),
            (GradientMode::GaussNewton, &gauss_newton),
        ] {
            fold_outcomes(&registry, mode.name(), &stats.outcomes);
        }
        assert!(adjoint.cap_bus.is_finite() && adjoint.cool_duty.is_finite());
        assert!(gauss_newton.cap_bus.is_finite() && gauss_newton.cool_duty.is_finite());
        assert!(
            gauss_newton.mean_iterations < adjoint_tol.mean_iterations,
            "horizon {horizon}: Gauss-Newton used {:.1} iterations/solve vs \
             first-order adjoint's {:.1} under the same {TOL_BUDGET}-iteration budget",
            gauss_newton.mean_iterations,
            adjoint_tol.mean_iterations
        );
        let adj_speedup = serial.mean_ms / adjoint.mean_ms;
        let rollout_reduction = serial.rollouts_per_solve / adjoint.rollouts_per_solve;
        let iteration_reduction = adjoint_tol.mean_iterations / gauss_newton.mean_iterations;
        println!(
            "{:<8} {:>11.3} {:>11.3} {:>11.3} {:>8.1} {:>8.1} {:>7.2}",
            horizon,
            serial.mean_ms,
            adjoint.mean_ms,
            gauss_newton.mean_ms,
            adjoint_tol.mean_iterations,
            gauss_newton.mean_iterations,
            adj_speedup
        );
        let mode_json = |s: &ModeStats| {
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
                outcomes_json(&s.outcomes)
            )
        };
        rows.push(format!(
            concat!(
                "    {{\n",
                "      \"horizon\": {},\n",
                "      \"serial\": {},\n",
                "      \"adjoint\": {},\n",
                "      \"adjoint_tol_budget\": {},\n",
                "      \"gauss_newton\": {},\n",
                "      \"fd_vs_adjoint_speedup\": {:.3},\n",
                "      \"rollout_reduction\": {:.1},\n",
                "      \"gn_iteration_reduction\": {:.2}\n",
                "    }}"
            ),
            horizon,
            mode_json(&serial),
            mode_json(&adjoint),
            mode_json(&adjoint_tol),
            mode_json(&gauss_newton),
            adj_speedup,
            rollout_reduction,
            iteration_reduction
        ));
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"mpc_solve_gradient_modes\",\n",
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
        registry.snapshot().render_json()
    );
    std::fs::write("BENCH_mpc.json", &json).expect("write BENCH_mpc.json");
    sink.flush();
    println!("\nwrote BENCH_mpc.json ({cores} cores)");
    println!("wrote results/perf_report_telemetry.jsonl (warm-up solve traces)");
}
