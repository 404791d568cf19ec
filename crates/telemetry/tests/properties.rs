//! Property tests for the telemetry primitives: the ring buffer's
//! bound/order invariants and the histogram's conservation laws.

use otem_telemetry::{Histogram, RingBuffer};
use proptest::prelude::*;

/// Bucket edges shared by the histogram properties: a fixed, strictly
/// ascending grid wide enough that generated values land in several
/// buckets (plus the implicit overflow bucket).
const EDGES: [f64; 5] = [-10.0, -1.0, 0.0, 1.0, 10.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ring_never_exceeds_capacity(
        capacity in 1usize..40,
        items in prop::collection::vec(0u64..1_000_000, 0..200),
    ) {
        let mut ring = RingBuffer::new(capacity);
        for (i, &item) in items.iter().enumerate() {
            let evicted = ring.push(item);
            prop_assert!(ring.len() <= capacity);
            prop_assert_eq!(ring.len(), (i + 1).min(capacity));
            // Eviction happens exactly when the buffer was already full,
            // and always surrenders the oldest element.
            if i >= capacity {
                prop_assert_eq!(evicted, Some(items[i - capacity]));
            } else {
                prop_assert_eq!(evicted, None);
            }
        }
    }

    #[test]
    fn ring_preserves_insertion_order_of_survivors(
        capacity in 1usize..40,
        items in prop::collection::vec(0u64..1_000_000, 0..200),
    ) {
        let mut ring = RingBuffer::new(capacity);
        for &item in &items {
            ring.push(item);
        }
        let start = items.len().saturating_sub(capacity);
        prop_assert_eq!(ring.to_vec(), items[start..].to_vec());
    }

    #[test]
    fn histogram_conserves_counts(
        values in prop::collection::vec(-50.0..50.0f64, 0..300),
    ) {
        let h = Histogram::with_bounds(&EDGES);
        for &v in &values {
            h.observe(v);
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(
            h.snapshot().iter().sum::<u64>(),
            values.len() as u64
        );
    }

    #[test]
    fn histogram_conserves_counts_with_non_finite_inputs(
        values in prop::collection::vec(-50.0..50.0f64, 0..100),
        weird in 0usize..8,
    ) {
        let h = Histogram::with_bounds(&EDGES);
        for &v in &values {
            h.observe(v);
        }
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e308];
        for i in 0..weird {
            h.observe(specials[i % specials.len()]);
        }
        prop_assert_eq!(h.count(), (values.len() + weird) as u64);
    }

    #[test]
    fn bucket_for_is_consistent_with_edges(v in -100.0..100.0f64) {
        let h = Histogram::with_bounds(&EDGES);
        let idx = h.bucket_for(v);
        if idx < EDGES.len() {
            prop_assert!(v <= EDGES[idx]);
            if idx > 0 {
                prop_assert!(v > EDGES[idx - 1]);
            }
        } else {
            prop_assert!(v > EDGES[EDGES.len() - 1]);
        }
    }

    #[test]
    fn quantile_stays_within_the_bucket_edges(
        values in prop::collection::vec(-50.0..50.0f64, 1..300),
        q in 0.0..=1.0f64,
    ) {
        let h = Histogram::with_bounds(&EDGES);
        for &v in &values {
            h.observe(v);
        }
        let est = h.quantile(q);
        // Estimates are interpolated bucket edges, so they live on the
        // grid's span: the lowest finite edge up to the open bound's
        // saturation at the highest finite edge.
        prop_assert!(est.is_finite());
        prop_assert!(est >= EDGES[0], "{est} below the lowest edge");
        prop_assert!(est <= EDGES[EDGES.len() - 1], "{est} above saturation");
    }

    #[test]
    fn extreme_quantiles_bracket_every_estimate(
        values in prop::collection::vec(-50.0..50.0f64, 1..300),
        q in 0.0..=1.0f64,
    ) {
        // q = 0 is the lower edge of the first occupied bucket and
        // q = 1 the upper edge of the last (or saturation): together
        // they bound every interior estimate.
        let h = Histogram::with_bounds(&EDGES);
        for &v in &values {
            h.observe(v);
        }
        let (lo, hi) = (h.quantile(0.0), h.quantile(1.0));
        prop_assert!(lo <= h.quantile(q), "quantile(0) = {lo} is the floor");
        prop_assert!(h.quantile(q) <= hi, "quantile(1) = {hi} is the ceiling");
        // Out-of-range and NaN q clamp rather than extrapolate.
        prop_assert_eq!(h.quantile(-3.0), lo);
        prop_assert_eq!(h.quantile(7.5), hi);
        prop_assert_eq!(h.quantile(f64::NAN), lo);
    }

    #[test]
    fn quantile_is_monotone_in_q(
        values in prop::collection::vec(-50.0..50.0f64, 1..300),
        q1 in 0.0..=1.0f64,
        q2 in 0.0..=1.0f64,
    ) {
        let h = Histogram::with_bounds(&EDGES);
        for &v in &values {
            h.observe(v);
        }
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(
            h.quantile(lo) <= h.quantile(hi),
            "quantile({lo}) > quantile({hi})"
        );
    }

    #[test]
    fn quantile_of_a_point_mass_recovers_its_bucket(
        v in -45.0..45.0f64,
        n in 1u32..50,
        q in 0.05..=0.95f64,
    ) {
        // Every observation in one bucket: any interior quantile must
        // land inside that bucket's edge interval.
        let h = Histogram::with_bounds(&EDGES);
        for _ in 0..n {
            h.observe(v);
        }
        let idx = h.bucket_for(v);
        let est = h.quantile(q);
        if idx < EDGES.len() {
            prop_assert!(est <= EDGES[idx], "{est} above bucket {idx}");
            let lower = if idx == 0 { EDGES[0].min(0.0) } else { EDGES[idx - 1] };
            prop_assert!(est >= lower, "{est} below bucket {idx}");
        } else {
            prop_assert_eq!(est, EDGES[EDGES.len() - 1]);
        }
    }
}

#[test]
fn quantile_of_an_empty_histogram_is_nan() {
    let h = Histogram::with_bounds(&EDGES);
    for q in [0.0, 0.5, 1.0, -1.0, 2.0, f64::NAN] {
        assert!(h.quantile(q).is_nan(), "empty histogram at q = {q}");
    }
}

#[test]
fn single_observation_pins_all_quantiles_to_its_bucket() {
    let h = Histogram::with_bounds(&EDGES);
    h.observe(0.5); // lands in (0, 1]
    assert_eq!(h.quantile(0.0), 0.0, "q=0 is the bucket's lower edge");
    assert_eq!(h.quantile(1.0), 1.0, "q=1 is the bucket's upper edge");
    let mid = h.quantile(0.5);
    assert!(
        (0.0..=1.0).contains(&mid),
        "interior quantiles interpolate: {mid}"
    );
}
