//! Metric primitives: counters, gauges, fixed-bucket histograms.
//!
//! All three are interior-mutable (`&self` updates) so one instance can
//! be shared by the fleet engine's worker threads without locks on the
//! hot path.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotone event counter.
///
/// ```
/// use otem_telemetry::Counter;
/// let c = Counter::new();
/// c.inc();
/// c.add(4);
/// assert_eq!(c.get(), 5);
/// ```
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Clone for Counter {
    fn clone(&self) -> Self {
        Self(AtomicU64::new(self.get()))
    }
}

/// A last-value-wins gauge over `f64` (stored as bits in an atomic).
///
/// ```
/// use otem_telemetry::Gauge;
/// let g = Gauge::new();
/// g.set(36.5);
/// assert_eq!(g.get(), 36.5);
/// ```
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Self(AtomicU64::new(0f64.to_bits()))
    }

    /// Replaces the value.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for Gauge {
    fn clone(&self) -> Self {
        let g = Gauge::new();
        g.set(self.get());
        g
    }
}

/// A fixed-bucket histogram.
///
/// `bounds` are the inclusive upper edges of the finite buckets, sorted
/// strictly ascending; one implicit overflow bucket catches everything
/// above the last edge (and non-finite observations, so counts are
/// always conserved: the total count equals the number of
/// observations).
///
/// ```
/// use otem_telemetry::Histogram;
/// let h = Histogram::with_bounds(&[1.0, 10.0]);
/// h.observe(0.5);
/// h.observe(5.0);
/// h.observe(100.0);
/// assert_eq!(h.snapshot(), vec![1, 1, 1]);
/// assert_eq!(h.count(), 3);
/// ```
#[derive(Debug)]
pub struct Histogram {
    bounds: Box<[f64]>,
    counts: Box<[AtomicU64]>,
    /// Running sum of all *finite* observations, stored as `f64` bits.
    /// Non-finite observations are still counted (overflow bucket) but
    /// excluded from the sum, so one stray `NaN` cannot poison the
    /// Prometheus `_sum` series.
    sum: AtomicU64,
}

impl Histogram {
    /// A histogram over the given inclusive upper bucket edges (plus
    /// the implicit overflow bucket).
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty, non-finite, or not strictly
    /// ascending.
    pub fn with_bounds(bounds: &[f64]) -> Self {
        assert!(
            !bounds.is_empty(),
            "histogram needs at least one bucket edge"
        );
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bucket edges must be finite"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bucket edges must be strictly ascending"
        );
        let counts = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Self {
            bounds: bounds.into(),
            counts,
            sum: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Exponential bucket edges `start, start·factor, …` (`n` edges) —
    /// the usual shape for latencies and iteration counts.
    ///
    /// # Panics
    ///
    /// Panics if `start <= 0`, `factor <= 1`, or `n == 0`.
    pub fn exponential(start: f64, factor: f64, n: usize) -> Self {
        assert!(
            start > 0.0 && factor > 1.0 && n > 0,
            "invalid exponential buckets"
        );
        let mut bounds = Vec::with_capacity(n);
        let mut edge = start;
        for _ in 0..n {
            bounds.push(edge);
            edge *= factor;
        }
        Self::with_bounds(&bounds)
    }

    /// The bucket index `value` falls into (the last index is the
    /// overflow bucket; non-finite values land there too).
    pub fn bucket_for(&self, value: f64) -> usize {
        self.bounds
            .iter()
            .position(|&edge| value <= edge)
            .unwrap_or(self.bounds.len())
    }

    /// Records one observation.
    pub fn observe(&self, value: f64) {
        self.counts[self.bucket_for(value)].fetch_add(1, Ordering::Relaxed);
        if value.is_finite() {
            self.add_to_sum(value);
        }
    }

    /// CAS-adds `v` to the running sum (stored as `f64` bits).
    fn add_to_sum(&self, v: f64) {
        let mut cur = self.sum.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .sum
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Sum of all finite observations (the Prometheus `_sum` series).
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum.load(Ordering::Relaxed))
    }

    /// The inclusive upper bucket edges.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts, finite buckets first, overflow last.
    pub fn snapshot(&self) -> Vec<u64> {
        self.counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// The `q`-quantile (`q` clamped to `[0, 1]`) estimated by linear
    /// interpolation within the winning bucket.
    ///
    /// The rank `q·count` is located by a cumulative scan; within the
    /// winning bucket the estimate interpolates linearly from its lower
    /// edge (the previous bound, or `min(first bound, 0)` for the first
    /// bucket) to its upper bound. The overflow bucket has no upper
    /// edge, so quantiles landing there **saturate** at the last finite
    /// bound — a deliberate under-estimate that keeps p99 reporting
    /// stable instead of extrapolating into the open tail.
    ///
    /// Returns `NaN` when the histogram is empty.
    ///
    /// ```
    /// use otem_telemetry::Histogram;
    /// let h = Histogram::with_bounds(&[10.0, 20.0]);
    /// for _ in 0..10 {
    ///     h.observe(15.0); // all mass in (10, 20]
    /// }
    /// assert_eq!(h.quantile(0.0), 10.0);
    /// assert_eq!(h.quantile(0.5), 15.0);
    /// assert_eq!(h.quantile(1.0), 20.0);
    /// ```
    pub fn quantile(&self, q: f64) -> f64 {
        let counts = self.snapshot();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return f64::NAN;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let rank = q * total as f64;
        let mut cum = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let reached = cum + c;
            if reached as f64 >= rank {
                let last = self.bounds[self.bounds.len() - 1];
                if i == self.bounds.len() {
                    // Overflow bucket: saturate at the last finite edge.
                    return last;
                }
                let upper = self.bounds[i];
                let lower = if i == 0 {
                    upper.min(0.0)
                } else {
                    self.bounds[i - 1]
                };
                let frac = ((rank - cum as f64) / c as f64).clamp(0.0, 1.0);
                return lower + (upper - lower) * frac;
            }
            cum = reached;
        }
        self.bounds[self.bounds.len() - 1]
    }

    /// Adds every bucket of `other` into `self`. Merging is commutative
    /// and associative on the per-bucket counts, so the merge order of
    /// a set of histograms never matters.
    ///
    /// # Panics
    ///
    /// Panics if the bucket edges differ.
    pub fn merge(&self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bucket edges"
        );
        for (mine, theirs) in self.counts.iter().zip(other.counts.iter()) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.add_to_sum(other.sum());
    }
}

impl Clone for Histogram {
    fn clone(&self) -> Self {
        let fresh = Histogram::with_bounds(&self.bounds);
        fresh.merge(self);
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 11);
        assert_eq!(c.clone().get(), 11);
    }

    #[test]
    fn gauge_last_value_wins() {
        let g = Gauge::new();
        g.set(-3.25);
        g.set(7.5);
        assert_eq!(g.get(), 7.5);
    }

    #[test]
    fn histogram_buckets_are_inclusive_upper_edges() {
        let h = Histogram::with_bounds(&[1.0, 2.0]);
        h.observe(1.0); // first bucket (inclusive)
        h.observe(1.5); // second
        h.observe(2.5); // overflow
        assert_eq!(h.snapshot(), vec![1, 1, 1]);
    }

    #[test]
    fn non_finite_observations_are_conserved() {
        let h = Histogram::with_bounds(&[1.0]);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(f64::NEG_INFINITY);
        assert_eq!(h.count(), 3);
        // NaN and +inf overflow; -inf compares below every edge.
        assert_eq!(h.snapshot(), vec![1, 2]);
    }

    #[test]
    fn quantile_interpolates_within_the_winning_bucket() {
        let h = Histogram::with_bounds(&[10.0, 20.0, 40.0]);
        // 4 obs in (10, 20], 4 in (20, 40].
        for v in [12.0, 14.0, 16.0, 18.0, 22.0, 26.0, 30.0, 38.0] {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.0), 10.0); // lower edge of first occupied bucket
        assert_eq!(h.quantile(0.25), 15.0); // rank 2 of 4 in (10, 20]
        assert_eq!(h.quantile(0.5), 20.0); // exactly the bucket boundary
        assert_eq!(h.quantile(0.75), 30.0); // rank 2 of 4 in (20, 40]
        assert_eq!(h.quantile(1.0), 40.0);
    }

    #[test]
    fn quantile_saturates_at_the_open_upper_bound() {
        let h = Histogram::with_bounds(&[1.0, 2.0]);
        h.observe(0.5);
        h.observe(1e9); // overflow bucket
        h.observe(1e9);
        assert_eq!(h.quantile(1.0), 2.0, "overflow saturates at last edge");
        assert_eq!(h.quantile(0.99), 2.0);
    }

    #[test]
    fn quantile_of_empty_histogram_is_nan() {
        let h = Histogram::with_bounds(&[1.0]);
        assert!(h.quantile(0.5).is_nan());
    }

    #[test]
    fn quantile_clamps_q_and_tolerates_nan() {
        let h = Histogram::with_bounds(&[10.0, 20.0]);
        h.observe(15.0);
        assert_eq!(h.quantile(-3.0), h.quantile(0.0));
        assert_eq!(h.quantile(7.0), h.quantile(1.0));
        assert_eq!(h.quantile(f64::NAN), h.quantile(0.0));
    }

    #[test]
    fn quantile_first_bucket_lower_edge_never_exceeds_zero() {
        let h = Histogram::with_bounds(&[10.0]);
        h.observe(5.0);
        h.observe(5.0);
        // Lower edge of the first bucket is min(bound, 0) = 0.
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(0.5), 5.0);
        let neg = Histogram::with_bounds(&[-5.0, 5.0]);
        neg.observe(-10.0);
        assert_eq!(neg.quantile(0.0), -5.0, "negative edge is its own floor");
    }

    #[test]
    fn sum_tracks_finite_observations_and_merges() {
        let h = Histogram::with_bounds(&[1.0, 10.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(f64::NAN); // counted, excluded from the sum
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 5.5);
        let other = Histogram::with_bounds(&[1.0, 10.0]);
        other.observe(4.5);
        h.merge(&other);
        assert_eq!(h.sum(), 10.0);
        assert_eq!(h.clone().sum(), 10.0, "clone carries the sum");
    }

    #[test]
    fn merge_adds_bucketwise() {
        let a = Histogram::with_bounds(&[10.0, 20.0]);
        let b = Histogram::with_bounds(&[10.0, 20.0]);
        a.observe(5.0);
        b.observe(15.0);
        b.observe(25.0);
        a.merge(&b);
        assert_eq!(a.snapshot(), vec![1, 1, 1]);
        assert_eq!(b.snapshot(), vec![0, 1, 1], "source unchanged");
    }

    #[test]
    fn exponential_edges_grow_geometrically() {
        let h = Histogram::exponential(1.0, 2.0, 4);
        assert_eq!(h.bounds(), &[1.0, 2.0, 4.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "different bucket edges")]
    fn merging_mismatched_edges_panics() {
        Histogram::with_bounds(&[1.0]).merge(&Histogram::with_bounds(&[2.0]));
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_edges_rejected() {
        let _ = Histogram::with_bounds(&[2.0, 1.0]);
    }
}
