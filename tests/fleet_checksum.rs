//! Pins the fleet engine's campaign checksum to a fixed value.
//!
//! The schedule-determinism tests only prove that serial and
//! work-stealing runs agree with *each other*, so a change to the plant
//! step that moved every vehicle's record stream would still pass them.
//! This test pins the absolute XOR-folded per-vehicle checksum of a
//! 64-vehicle synthetic campaign (reactive and OTEM vehicles mixed), so
//! any change to the simulated physics, controllers or record hashing
//! fails here and must re-pin the value deliberately.

use otem_repro::fleet::{Campaign, FleetEngine, Schedule};

/// `fleet_checksum()` of `Campaign::synthetic(64, 42)`, re-pinned when
/// the converter inverse became exact (Newton on the cleared cubic).
const PINNED: u64 = 0x3d29_9bed_a830_9846;

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
}
