//! The fleet determinism pin: every schedule and shard count produces
//! summaries bit-identical to the single-vehicle [`otem::Simulator`]
//! reference path.
//!
//! `VehicleSummary::checksum` is an FNV-1a fold over the bit patterns of
//! every field of every step record, so summary equality here certifies
//! that the batched engine's record *streams* — not merely their
//! aggregates — match the reference run exactly.

use otem::Simulator;
use otem_fleet::{
    Campaign, FleetEngine, Methodology, Schedule, SummaryBuilder, TraceCache, VehicleSummary,
};

/// Seed 1's 24-vehicle campaign includes an OTEM (MPC) vehicle, so the
/// pin covers the iterative solver path, not just the reactive
/// baselines.
const SEED: u64 = 1;
const VEHICLES: usize = 24;

/// Runs each vehicle through the plain single-vehicle API — retained
/// records, no fleet machinery — and summarises the result.
fn reference_summaries(campaign: &Campaign) -> Vec<VehicleSummary> {
    let cache = TraceCache::new();
    campaign
        .vehicles
        .iter()
        .map(|spec| {
            let config = spec.config();
            let trace = cache.trace_for(spec).expect("trace");
            let mut controller = spec.controller(&config).expect("controller");
            let result = Simulator::new(&config).run(controller.as_mut(), &trace);
            SummaryBuilder::from_result(spec.id, &result)
        })
        .collect()
}

#[test]
fn every_schedule_matches_the_single_vehicle_reference() {
    let campaign = Campaign::synthetic(VEHICLES, SEED);
    assert!(
        campaign
            .vehicles
            .iter()
            .any(|v| v.methodology == Methodology::Otem),
        "campaign must exercise the MPC path"
    );
    let reference = reference_summaries(&campaign);

    let mut schedules = vec![Schedule::Serial];
    for shards in [1usize, 4, 16] {
        schedules.push(Schedule::WorkStealing { shards });
    }
    for schedule in schedules {
        let report = FleetEngine::new(schedule).run(&campaign);
        assert!(report.failures.is_empty(), "healthy campaign");
        assert_eq!(report.summaries.len(), reference.len());
        for (got, want) in report.summaries.iter().zip(&reference) {
            assert_eq!(got, want, "vehicle {} diverged under {schedule:?}", want.id);
            assert_eq!(
                got.checksum, want.checksum,
                "record stream of vehicle {} diverged under {schedule:?}",
                want.id
            );
        }
    }
}

#[test]
fn a_smaller_campaign_is_a_bitwise_prefix_of_a_larger_one() {
    // Specs depend only on (id, seed), so the 6-vehicle campaign's
    // summaries must be byte-for-byte the first 6 of the 24-vehicle
    // campaign — the property that lets operators scale a fleet up
    // without invalidating earlier vehicles' results.
    let small =
        FleetEngine::new(Schedule::WorkStealing { shards: 4 }).run(&Campaign::synthetic(6, SEED));
    let large = FleetEngine::new(Schedule::WorkStealing { shards: 3 })
        .run(&Campaign::synthetic(VEHICLES, SEED));
    assert_eq!(small.summaries[..], large.summaries[..6]);
}
