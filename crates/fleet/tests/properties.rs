//! Property tests for the work-stealing fan: for *any* job count and
//! thread cap — including counts that don't divide evenly and caps
//! wider than the queue — it returns exactly the serial map, in order.

use otem_fleet::pool::fan_stealing;
use proptest::prelude::*;

/// A job function with a non-trivial index dependency, so any
/// index/job mismatch or reordering changes the output.
fn work(i: usize, j: u64) -> u64 {
    j.wrapping_mul(31).wrapping_add(i as u64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn stealing_fan_matches_the_serial_map(
        jobs in prop::collection::vec(0u64..1_000_000, 0..120),
        threads in 1usize..12,
    ) {
        let serial: Vec<u64> = jobs.iter().enumerate().map(|(i, &j)| work(i, j)).collect();
        prop_assert_eq!(fan_stealing(jobs, threads, work), serial);
    }

    #[test]
    fn stealing_fan_runs_every_job_exactly_once(
        n in 0usize..150,
        threads in 1usize..12,
    ) {
        // The fan hands each claimed job to exactly one worker (the
        // take() in its job slots panics otherwise), so covering all n
        // ordered slots certifies exactly-once execution.
        let out = fan_stealing((0..n).collect(), threads, |i, j| (i, j));
        prop_assert_eq!(out.len(), n);
        for (k, (i, j)) in out.into_iter().enumerate() {
            prop_assert_eq!(i, k);
            prop_assert_eq!(j, k);
        }
    }
}
