//! Work record for the MPC hot path (the reverse-mode adjoint
//! gradient) across horizon lengths: the `BENCH_mpc.json` that
//! `scripts/exhibits.sh` writes from this bin's stdout.
//!
//! Runs warm-started `Mpc::solve` repetitions at horizons {12, 24, 48}
//! under the default iteration budget, then re-runs them under a raised
//! budget to measure *iterations to tolerance*. Each row records forward
//! passes and differentiated points per solve, mean iterations and the
//! solver-outcome mix.
//! Every field is an exact work count, so a rerun on the same commit
//! prints the same bytes, and `crates/bench/tests/bench_record.rs`
//! fails while the committed record is stale. Wall time per solve, with
//! its spread, is perfbench's `mpc_loop`.
//!
//! Usage:
//! `cargo run --release -p otem-bench --bin perf_report > BENCH_mpc.json`
//!
//! The gradient's correctness contract lives in
//! `tests/gradient_parity.rs` and `tests/golden_traces.rs`.

use otem::mpc::{Mpc, MpcConfig, MpcPlant};
use otem::SystemConfig;
use otem_fleet::protocol::outcomes_json;
use otem_fleet::{OutcomeTally, SolveOutcomes};
use otem_telemetry::{Event, Sink, Tee};
use otem_thermal::ThermalState;
use otem_units::{Kelvin, Ratio, Seconds, Watts};
use std::sync::atomic::{AtomicU64, Ordering};

const HORIZONS: [usize; 3] = [12, 24, 48];
const REPS: usize = 8;

/// Iteration budget for the iterations-to-tolerance comparison: high
/// enough that termination is decided by convergence, not the cap.
const TOL_BUDGET: usize = 400;

fn plant(config: &SystemConfig) -> MpcPlant {
    let mut p = MpcPlant::new(config).unwrap();
    p.hees.set_state(Ratio::new(0.8), Ratio::new(0.6));
    p.state = ThermalState::uniform(Kelvin::from_celsius(33.0));
    p
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
    rollouts_per_solve: f64,
    /// Points differentiated per solve; a forward pass that is not one
    /// (a rejected line-search trial) pays for values only.
    differentiated_per_solve: f64,
    mean_iterations: f64,
    /// The counted solves' outcomes.
    outcomes: SolveOutcomes,
}

fn run_solves(p: &MpcPlant, loads: &[Watts], horizon: usize, iterations: usize) -> SolveStats {
    let mut mpc = Mpc::new(MpcConfig {
        horizon,
        solver_iterations: iterations,
        ..MpcConfig::default()
    });
    let dt = Seconds::new(1.0);
    // Warm-up solve: sizes the rollout buffers and sets the warm start, so
    // the counted repetitions are the steady state.
    mpc.solve(p, loads, dt);
    let rollouts_before = mpc.rollouts();
    let gradients = GradientCounter::default();
    let tally = OutcomeTally::new();
    let mut iters_total = 0usize;
    for _ in 0..REPS {
        let d = mpc.solve_with(p, loads, dt, &Tee(&gradients, &tally));
        assert!(
            d.cap_bus.is_finite() && d.cool_duty.is_finite(),
            "solve produced a non-finite command"
        );
        iters_total += d.iterations;
    }
    SolveStats {
        rollouts_per_solve: (mpc.rollouts() - rollouts_before) as f64 / REPS as f64,
        differentiated_per_solve: gradients.0.load(Ordering::Relaxed) as f64 / REPS as f64,
        mean_iterations: iters_total as f64 / REPS as f64,
        outcomes: tally.snapshot(),
    }
}

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        panic!("perf_report takes no arguments, got {arg:?}");
    }
    let config = SystemConfig::default();
    let p = plant(&config);

    let default_iters = MpcConfig::default().solver_iterations;
    let mut rows = Vec::new();
    for horizon in HORIZONS {
        let loads: Vec<Watts> = (0..horizon)
            .map(|k| Watts::new(20_000.0 + 40_000.0 * ((k % 5) as f64 / 4.0)))
            .collect();
        let adjoint = run_solves(&p, &loads, horizon, default_iters);
        // Iterations-to-tolerance: same problem, raised budget, so the
        // iteration count — not the cap — decides termination.
        let adjoint_tol = run_solves(&p, &loads, horizon, TOL_BUDGET);
        let stats_json = |s: &SolveStats| {
            format!(
                "{{ \"rollouts_per_solve\": {:.1}, \"differentiated_per_solve\": {:.1}, \
                 \"mean_iterations\": {:.1}, \"outcomes\": {} }}",
                s.rollouts_per_solve,
                s.differentiated_per_solve,
                s.mean_iterations,
                outcomes_json(&s.outcomes)
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

    print!(
        concat!(
            "{{\n",
            "  \"bench\": \"mpc_solve_horizons\",\n",
            "  \"solves_per_mode\": {},\n",
            "  \"tol_budget\": {},\n",
            "  \"results\": [\n{}\n  ]\n",
            "}}\n"
        ),
        REPS,
        TOL_BUDGET,
        rows.join(",\n")
    );
}
