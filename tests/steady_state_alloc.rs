//! Steady-state allocation pin for the MPC solve.
//!
//! Once warm, a solve allocates only a fixed handful of per-solve
//! vectors (the solver's iterate, gradient and line-search buffers, the
//! returned plan): the pooled rollout workspace, its tape and the
//! finite-difference scratch point are reused, so **nothing allocates
//! per rollout or per horizon step**. The count is therefore the same at
//! every horizon, in every gradient mode.
//!
//! This file holds a single `#[test]` on purpose: the counting global
//! allocator below is process-wide, and a sibling test running
//! concurrently would pollute the counts (same discipline as
//! `tests/telemetry_parity.rs`).

use otem_repro::control::mpc::{Mpc, MpcConfig, MpcPlant};
use otem_repro::control::SystemConfig;
use otem_repro::hees::HybridHees;
use otem_repro::solver::GradientMode;
use otem_repro::thermal::{CoolingPlant, ThermalModel, ThermalState};
use otem_repro::units::{Farads, Kelvin, Ratio, Seconds, Watts};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation (and reallocation) made by the process.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

const SOLVES: u64 = 8;
const HORIZONS: [usize; 3] = [6, 12, 24];

fn plant(config: &SystemConfig) -> MpcPlant {
    let mut hees = HybridHees::ev_default(Farads::new(25_000.0)).expect("valid preset");
    hees.set_state(Ratio::new(0.8), Ratio::new(0.6));
    MpcPlant {
        hees,
        thermal: ThermalModel::new(config.thermal_active).expect("valid thermal"),
        plant: CoolingPlant::new(config.plant).expect("valid plant"),
        state: ThermalState::uniform(Kelvin::from_celsius(33.0)),
        aging: config.aging,
        soc_min: config.soc_min,
        soe_min: config.soe_min,
        battery_power_max: config.battery_power_max,
        cap_power_max: config.cap_power_max,
    }
}

/// Allocations across `SOLVES` fully warm-started solves in `mode` at
/// `horizon` (a fresh `Mpc` each call; three warm-up solves populate
/// the workspace pool, the tape and the warm start before counting
/// begins).
fn steady_allocs(mode: GradientMode, horizon: usize) -> u64 {
    let config = SystemConfig::default();
    let p = plant(&config);
    let loads: Vec<Watts> = (0..horizon)
        .map(|k| Watts::new(8_000.0 + 9_000.0 * (k % 3) as f64))
        .collect();
    let dt = Seconds::new(1.0);
    let mut mpc = Mpc::new(MpcConfig {
        horizon,
        gradient_mode: mode,
        solver_iterations: 12,
        ..MpcConfig::default()
    });
    for _ in 0..3 {
        let d = mpc.solve(&p, &loads, dt);
        assert!(d.cap_bus.value().is_finite(), "warm-up solve diverged");
    }
    let before = allocations();
    for _ in 0..SOLVES {
        let _ = mpc.solve(&p, &loads, dt);
    }
    allocations() - before
}

#[test]
fn mpc_steady_state_allocations_are_horizon_independent() {
    // Throwaway run: fault in lazy process-level initialisation so the
    // measured runs below do identical work.
    let _ = steady_allocs(GradientMode::Adjoint, 6);

    for (mode, per_solve_ceiling) in [
        (GradientMode::Adjoint, 6),
        (GradientMode::Serial, 6),
        (GradientMode::GaussNewton, 10),
    ] {
        let counts = HORIZONS.map(|h| steady_allocs(mode, h));
        // No per-step or per-rollout allocations: quadrupling the
        // horizon (and with it every rollout's length, and under finite
        // differences the rollouts per gradient) changes nothing.
        assert!(
            counts.iter().all(|&c| c == counts[0]),
            "{mode:?}: steady-state allocations scale with the horizon \
             (h = {HORIZONS:?}: {counts:?})"
        );
        assert!(
            counts[0] <= per_solve_ceiling * SOLVES,
            "{mode:?}: {} allocations over {SOLVES} solves, ceiling {per_solve_ceiling}/solve",
            counts[0]
        );
    }
}
