//! Fleet-level deadline determinism: a campaign of deadline-constrained
//! OTEM vehicles, solved against per-vehicle virtual clocks, produces
//! bit-identical summaries and solve-outcome counts for every schedule
//! and shard count — the anytime path is as reproducible as the nominal
//! one.
//!
//! The clock factory hands each vehicle a *fresh*
//! [`VirtualClock`], so a vehicle's sequence of clock reads depends only
//! on its own solve history, never on how worker threads interleave.

use otem::mpc::{Clock, VirtualClock};
use otem_fleet::{Campaign, FleetEngine, Methodology, Schedule, VehicleSpec};
use std::sync::Arc;

/// Per-solve budget (µs) tight enough that the virtual clock below
/// trips it after a couple of iterations.
const DEADLINE_US: u64 = 100;

/// Every clock read advances 40 µs of virtual time, so a 100 µs
/// deadline admits roughly two solver iterations before tripping —
/// deep enough to leave the warm start, shallow enough that every
/// vehicle records deadline outcomes.
fn vclock(_spec: &VehicleSpec) -> Arc<dyn Clock> {
    Arc::new(VirtualClock::with_tick(40_000))
}

/// A small all-OTEM campaign with a per-solve deadline on every vehicle.
fn deadline_campaign() -> Campaign {
    let mut campaign = Campaign::synthetic(6, 3);
    for spec in &mut campaign.vehicles {
        spec.methodology = Methodology::Otem;
        spec.mpc_deadline_us = DEADLINE_US;
    }
    campaign
}

#[test]
fn deadline_runs_are_bit_identical_across_schedules() {
    let campaign = deadline_campaign();
    let reference = FleetEngine::new(Schedule::Serial)
        .with_clock_factory(vclock)
        .run(&campaign);
    assert!(
        reference.solve_outcomes.deadline_reached > 0,
        "virtual clock never tripped the deadline: {:?}",
        reference.solve_outcomes
    );

    for schedule in [
        Schedule::Serial,
        Schedule::WorkStealing { shards: 4 },
        Schedule::WorkStealing { shards: 16 },
    ] {
        let report = FleetEngine::new(schedule)
            .with_clock_factory(vclock)
            .run(&campaign);
        assert_eq!(
            report.summaries, reference.summaries,
            "summaries diverged under {schedule:?}"
        );
        assert_eq!(
            report.fleet_checksum(),
            reference.fleet_checksum(),
            "record streams diverged under {schedule:?}"
        );
        // Counter addition commutes, so the outcome distribution is
        // schedule-independent too.
        assert_eq!(
            report.solve_outcomes, reference.solve_outcomes,
            "solve outcomes diverged under {schedule:?}"
        );
    }
}

#[test]
fn deadline_outcomes_count_every_solve() {
    let campaign = deadline_campaign();
    let report = FleetEngine::new(Schedule::WorkStealing { shards: 3 })
        .with_clock_factory(vclock)
        .run(&campaign);
    // One MPC solve per control period per OTEM vehicle: the tally must
    // account for every step of every vehicle.
    assert_eq!(report.solve_outcomes.total(), report.total_steps);
    // And with the virtual clock ticking 40 µs per read against a
    // 100 µs budget, deadline misses dominate.
    assert!(report.solve_outcomes.deadline_reached > 0);
}

/// A clock whose every read advances 200 µs, past the whole 100 µs
/// budget: each solve misses its deadline before its first iteration.
fn starved_clock(_spec: &VehicleSpec) -> Arc<dyn Clock> {
    Arc::new(VirtualClock::with_tick(200_000))
}

#[test]
fn a_zero_iteration_deadline_holds_the_idle_warm_start() {
    // No solve gets an iteration, so every decision is the projected,
    // shifted warm start. It starts all zero and stays so: the bank
    // idles, the pump never runs, and the route still completes.
    let campaign = deadline_campaign();
    let reference = FleetEngine::new(Schedule::Serial)
        .with_clock_factory(starved_clock)
        .run(&campaign);
    let outcomes = reference.solve_outcomes;
    assert_eq!(outcomes.total(), reference.total_steps);
    assert_eq!(outcomes.deadline_reached, outcomes.total(), "{outcomes:?}");
    assert_eq!(reference.summaries.len(), campaign.vehicles.len());
    for s in &reference.summaries {
        assert_eq!(s.cooling_j, 0.0, "vehicle {}: the pump ran", s.id);
        for v in [s.energy_j, s.capacity_loss, s.peak_temp_k, s.shortfall_j] {
            assert!(v.is_finite(), "vehicle {}: {s:?}", s.id);
        }
    }

    for schedule in [
        Schedule::WorkStealing { shards: 4 },
        Schedule::WorkStealing { shards: 16 },
    ] {
        let report = FleetEngine::new(schedule)
            .with_clock_factory(starved_clock)
            .run(&campaign);
        assert_eq!(
            report.summaries, reference.summaries,
            "summaries diverged under {schedule:?}"
        );
        assert_eq!(report.solve_outcomes, outcomes, "under {schedule:?}");
    }
}

#[test]
fn undeadlined_campaign_is_unchanged_by_the_tally() {
    // The outcome tally rides along on the nominal path too; it must
    // not perturb the simulation. Compare against the plain engine.
    let campaign = Campaign::synthetic(6, 1);
    let plain = FleetEngine::new(Schedule::Serial).run(&campaign);
    assert_eq!(plain.solve_outcomes.deadline_reached, 0);
    assert!(
        campaign
            .vehicles
            .iter()
            .any(|v| v.methodology == Methodology::Otem),
        "campaign must exercise the MPC path"
    );
    let otem_steps: u64 = campaign
        .vehicles
        .iter()
        .filter(|v| v.methodology == Methodology::Otem)
        .map(|v| v.steps as u64)
        .sum();
    assert_eq!(plain.solve_outcomes.total(), otem_steps);
}
