//! Pins the fleet engine's campaign checksum to a fixed value.
//!
//! The schedule-determinism tests only prove that serial and
//! work-stealing runs agree with *each other*, so a change to the plant
//! step that moved every vehicle's record stream would still pass them.
//! This test pins the absolute XOR-folded per-vehicle checksum of a
//! 64-vehicle synthetic campaign (reactive and OTEM vehicles mixed), so
//! any change to the simulated physics, controllers or record hashing
//! fails here and must re-pin the value deliberately. Beside it, the
//! campaign's fleet-wide solver-outcome mix is pinned exactly, so a
//! change that moves how OTEM's solves terminate shows up by name.

use otem_repro::fleet::{Campaign, FleetEngine, Schedule, SolveOutcomes};

/// `fleet_checksum()` of `Campaign::synthetic(64, 42)`, re-pinned when
/// the thermal step became an affine map, the aging rate one
/// exponential and the converter's first Newton step a closed form.
const PINNED: u64 = 0x8fef_b25c_d9b5_bbf9;

/// `solve_outcomes` of the same campaign, summed over its OTEM vehicles.
const PINNED_OUTCOMES: SolveOutcomes = SolveOutcomes {
    converged: 0,
    budget_exhausted: 709,
    stalled: 82,
    non_finite: 0,
    deadline_reached: 0,
};

#[test]
fn synthetic_campaign_checksum_is_pinned() {
    let campaign = Campaign::synthetic(64, 42);
    let report = FleetEngine::new(Schedule::WorkStealing { shards: 2 }).run(&campaign);
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert_eq!(report.summaries.len(), 64);
    assert_eq!(
        report.fleet_checksum(),
        PINNED,
        "fleet checksum moved: {:016x}",
        report.fleet_checksum()
    );
    assert_eq!(
        report.solve_outcomes, PINNED_OUTCOMES,
        "fleet solve-outcome mix moved"
    );
}
