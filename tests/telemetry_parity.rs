//! The telemetry layer's zero-cost contract, enforced end to end:
//!
//! 1. **Bit-identity** — `Simulator::run_with` returns a
//!    `SimulationResult` that is `PartialEq`-equal to `Simulator::run`'s
//!    for *any* sink (`NullSink` and `MemorySink` both checked, over the
//!    full MPC/solver/plant stack).
//! 2. **Allocation-freedom** — driving the instrumented path with a
//!    `NullSink` performs exactly as many heap allocations as the
//!    uninstrumented path: event emission is `Copy`-only and the no-op
//!    sink never buffers.
//!
//! Allocations are counted per thread (`alloc_counter`), so only the
//! measuring thread's own work enters a count.

mod alloc_counter;

use alloc_counter::allocations;
use otem_repro::control::mpc::MpcConfig;
use otem_repro::control::policy::Otem;
use otem_repro::control::{Simulator, SystemConfig};
use otem_repro::drivecycle::PowerTrace;
use otem_repro::telemetry::{MemorySink, NullSink};
use otem_repro::units::{Seconds, Watts};

/// A short mixed drive/regen pattern — enough steps to warm the MPC's
/// rollout buffers and exercise cooling, saturation, and solver events.
fn trace() -> PowerTrace {
    let samples: Vec<Watts> = (0..40)
        .map(|k| match k % 8 {
            0..=2 => Watts::new(35_000.0),
            3..=5 => Watts::new(8_000.0),
            6 => Watts::new(-15_000.0),
            _ => Watts::ZERO,
        })
        .collect();
    PowerTrace::new(Seconds::new(1.0), samples)
}

fn controller(config: &SystemConfig) -> Otem {
    // A small horizon keeps the debug-build MPC affordable while still
    // running the full solve / telemetry machinery every step.
    Otem::with_mpc(
        config,
        MpcConfig {
            horizon: 4,
            solver_iterations: 8,
            ..MpcConfig::default()
        },
    )
    .expect("valid")
}

#[test]
fn null_sink_is_bit_identical_and_allocation_free() {
    let config = SystemConfig::stress_rig();
    let trace = trace();
    let sim = Simulator::new(&config);

    // Warm-up run: fault in lazy initialisation (thread-local caches,
    // the test harness's own buffers) so the measured runs below do
    // identical work.
    let _ = sim.run(&mut controller(&config), &trace);

    let before_plain = allocations();
    let plain = sim.run(&mut controller(&config), &trace);
    let plain_allocs = allocations() - before_plain;

    let before_null = allocations();
    let null = sim.run_with(&mut controller(&config), &trace, &NullSink);
    let null_allocs = allocations() - before_null;

    let memory_sink = MemorySink::new();
    let observed = sim.run_with(&mut controller(&config), &trace, &memory_sink);

    // 1. Bit-identity: telemetry is strictly observational.
    assert_eq!(plain, null, "NullSink run diverged from the plain run");
    assert_eq!(
        plain, observed,
        "MemorySink run diverged from the plain run"
    );

    // The observed run really did capture the stack's events.
    assert_eq!(memory_sink.count_kind("step_completed"), trace.len());
    assert!(memory_sink.count_kind("gradient_eval") > 0);
    assert!(memory_sink.count_kind("solve_outcome") > 0);

    // …including the hierarchical spans, balanced start-for-end. Every
    // step opens at least sim_step → otem_step → mpc_solve.
    let span_starts = memory_sink.count_kind("span_start");
    assert_eq!(
        span_starts,
        memory_sink.count_kind("span_end"),
        "span stream must be balanced"
    );
    assert!(
        span_starts >= trace.len() * 3,
        "expected ≥3 spans per step, got {span_starts} over {} steps",
        trace.len()
    );

    // 2. Allocation parity: the NullSink path may not touch the heap any
    // more than the uninstrumented path does.
    assert_eq!(
        plain_allocs, null_allocs,
        "NullSink instrumentation allocated ({null_allocs} vs {plain_allocs})"
    );
    assert!(plain_allocs > 0, "counting allocator not engaged");

    // 3. Steady-state solver work is allocation-free: with the rollout
    // buffers warm (second run on the same controller), quadrupling the
    // per-solve iteration budget — each iteration doing a gradient,
    // projections, and up to 40 backtracking trials — must not change
    // the run's allocation count at all. Anything the solver loop
    // heap-allocated per iteration would scale with the budget and
    // break the equality.
    let budget_allocs = |iterations: usize| {
        let mut otem = Otem::with_mpc(
            &config,
            MpcConfig {
                horizon: 4,
                solver_iterations: iterations,
                ..MpcConfig::default()
            },
        )
        .expect("valid");
        let _ = sim.run(&mut otem, &trace); // warm the tape
        let before = allocations();
        let _ = sim.run(&mut otem, &trace);
        allocations() - before
    };
    let lean = budget_allocs(2);
    let heavy = budget_allocs(8);
    assert_eq!(
        lean, heavy,
        "per-iteration solver work hit the heap ({lean} allocs at 2 \
         iterations vs {heavy} at 8)"
    );
    assert!(lean > 0, "counting allocator not engaged for the MPC runs");
}
