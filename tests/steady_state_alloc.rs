//! Steady-state allocation pin for the MPC solve.
//!
//! Once warm, a solve allocates only a fixed handful of per-solve
//! vectors (the solver's iterate, gradient and line-search buffers, the
//! returned plan): the MPC's rollout buffers (the tape and its memo)
//! are reused, and the plant copy each solve rolls out owns no heap
//! data, so **nothing allocates per rollout or per horizon step**. The
//! count is therefore the same at every horizon.
//!
//! The closed loop around it adds nothing per step: the simulator
//! borrows each forecast window from the route and copies only the
//! zero-padded tail, into a buffer it reuses. So a reactive controller's
//! run allocates the same count at every route length, and an OTEM run
//! grows only by what its solves allocate.
//!
//! Allocations are counted per thread (`alloc_counter`), so only the
//! measuring thread's own work enters a count.

mod alloc_counter;

use alloc_counter::allocations;
use otem_repro::control::mpc::{Mpc, MpcConfig, MpcPlant};
use otem_repro::control::policy::{ActiveCooling, Dual, Otem, Parallel};
use otem_repro::control::{Controller, Simulator, SystemConfig};
use otem_repro::drivecycle::{standard, PowerTrace, Powertrain, StandardCycle, VehicleParams};
use otem_repro::telemetry::{EventCounter, MetricsRegistry, NullSink, Sink};
use otem_repro::thermal::ThermalState;
use otem_repro::units::{Kelvin, Ratio, Seconds, Watts};

const SOLVES: u64 = 8;
const HORIZONS: [usize; 3] = [6, 12, 24];
/// Every solver outcome name an `Event::SolveOutcome` can carry.
const OUTCOMES: [&str; 5] = [
    "converged",
    "budget_exhausted",
    "stalled",
    "non_finite",
    "deadline_reached",
];

fn plant(config: &SystemConfig) -> MpcPlant {
    let mut p = MpcPlant::new(config).expect("valid plant");
    p.hees.set_state(Ratio::new(0.8), Ratio::new(0.6));
    p.state = ThermalState::uniform(Kelvin::from_celsius(33.0));
    p
}

/// Allocations across `SOLVES` fully warm-started solves at `horizon`, each recorded on `sink` (a fresh `Mpc` each call; three
/// warm-up solves populate the tape and the warm
/// start before counting begins).
fn steady_allocs(horizon: usize, sink: &dyn Sink) -> u64 {
    let config = SystemConfig::default();
    let p = plant(&config);
    let loads: Vec<Watts> = (0..horizon)
        .map(|k| Watts::new(8_000.0 + 9_000.0 * (k % 3) as f64))
        .collect();
    let dt = Seconds::new(1.0);
    let mut mpc = Mpc::new(MpcConfig {
        horizon,
        solver_iterations: 12,
        ..MpcConfig::default()
    });
    for _ in 0..3 {
        let d = mpc.solve_with(&p, &loads, dt, sink);
        assert!(d.cap_bus.value().is_finite(), "warm-up solve diverged");
    }
    let before = allocations();
    for _ in 0..SOLVES {
        let _ = mpc.solve_with(&p, &loads, dt, sink);
    }
    allocations() - before
}

/// Closed-loop route lengths (steps) the run checks compare.
const ROUTE_STEPS: [usize; 2] = [120, 360];

/// The first `steps` samples of the compact EV's US06 power trace.
fn us06_route(steps: usize) -> PowerTrace {
    let trace = Powertrain::new(VehicleParams::compact_ev())
        .expect("valid vehicle")
        .power_trace(&standard(StandardCycle::Us06).expect("standard cycle"));
    assert!(trace.len() >= steps, "US06 is {} samples", trace.len());
    PowerTrace::new(trace.dt(), trace.window(0, steps))
}

/// Allocations made by one `Simulator::run_each` of `controller` over
/// `route` (the controller and route are built before counting starts).
fn run_allocs(config: &SystemConfig, controller: &mut dyn Controller, route: &PowerTrace) -> u64 {
    let sim = Simulator::new(config);
    let before = allocations();
    let totals = sim.run_each(controller, route, &NullSink, |_, _| {});
    let count = allocations() - before;
    assert_eq!(totals.steps, route.len());
    count
}

#[test]
fn mpc_steady_state_allocations_are_horizon_independent() {
    // Throwaway run: fault in lazy process-level initialisation so the
    // measured runs below do identical work.
    let _ = steady_allocs(6, &NullSink);

    let counts = HORIZONS.map(|h| steady_allocs(h, &NullSink));
    // No per-step or per-rollout allocations: quadrupling the horizon
    // (and with it every rollout's length) changes nothing.
    assert!(
        counts.iter().all(|&c| c == counts[0]),
        "steady-state allocations scale with the horizon (h = {HORIZONS:?}: {counts:?})"
    );
    assert!(
        counts[0] <= 6 * SOLVES,
        "{} allocations over {SOLVES} solves, ceiling 6/solve",
        counts[0]
    );

    // A registry as the sink counts every solve's outcome without
    // allocating: the warm-up solves register the child, and each
    // later lookup finds it through borrowed labels.
    let registry = MetricsRegistry::new();
    let counts = HORIZONS.map(|h| steady_allocs(h, &registry));
    assert!(
        counts.iter().all(|&c| c <= 6 * SOLVES),
        "registry sink: {counts:?} allocations over {SOLVES} solves at h = {HORIZONS:?}, \
         ceiling 6/solve"
    );
    let family = EventCounter::SOLVE_OUTCOMES;
    let counted: u64 = OUTCOMES
        .iter()
        .map(|&outcome| {
            let labels = [("mode", "adjoint"), ("outcome", outcome)];
            registry.counter(family.name, family.help, &labels).get()
        })
        .sum();
    assert_eq!(
        counted,
        HORIZONS.len() as u64 * (3 + SOLVES),
        "every solve counted"
    );

    // The closed loop allocates nothing per step for a reactive
    // controller: the forecast window is borrowed from the route, and
    // only the padded tail is copied into the cursor's one buffer.
    let config = SystemConfig::default();
    let routes = ROUTE_STEPS.map(us06_route);
    type Build = fn(&SystemConfig) -> Box<dyn Controller>;
    let reactive: [(&str, Build); 3] = [
        ("Parallel", |c| Box::new(Parallel::new(c).expect("valid"))),
        ("ActiveCooling", |c| {
            Box::new(ActiveCooling::new(c).expect("valid"))
        }),
        ("Dual", |c| Box::new(Dual::new(c).expect("valid"))),
    ];
    for (name, build) in reactive {
        let counts = routes
            .each_ref()
            .map(|route| run_allocs(&config, build(&config).as_mut(), route));
        assert_eq!(
            counts[0], counts[1],
            "{name}: run allocations grow with the route \
             ({ROUTE_STEPS:?} steps: {counts:?})"
        );
    }

    // An OTEM step allocates only what its solve does: the control
    // window is a buffer the controller keeps.
    let counts = routes.each_ref().map(|route| {
        let mut otem = Otem::new(&config).expect("valid");
        run_allocs(&config, &mut otem, route)
    });
    let extra_steps = (ROUTE_STEPS[1] - ROUTE_STEPS[0]) as u64;
    assert!(
        counts[1].saturating_sub(counts[0]) <= 6 * extra_steps,
        "OTEM: {counts:?} allocations over {ROUTE_STEPS:?} steps, \
         ceiling 6 per extra step"
    );
}
