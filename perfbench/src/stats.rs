//! Small statistics and process helpers shared by the workloads.

use std::time::Instant;

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 1]`).
/// Returns `NaN` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A sorted copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (nearest-rank, lower middle for even counts).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// Arithmetic mean; `0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or `0` when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Laplace's rule of succession: the estimated success probability
/// after `hits` successes in `trials` trials, `(hits + 1) / (trials + 2)`.
/// Unlike `hits / trials` it is never 0 (nor 1) and is defined for zero
/// trials, so a relative bound can be applied to it.
pub fn succession(hits: u64, trials: u64) -> f64 {
    (hits as f64 + 1.0) / (trials as f64 + 2.0)
}

/// Runs `f` `reps` times and returns the median wall time in seconds
/// together with the last result.
pub fn median_setup<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        // Tear the previous repetition down outside the timed region.
        drop(last.take());
        let t0 = Instant::now();
        last = Some(f());
        times.push(t0.elapsed().as_secs_f64());
    }
    (median(&times), last.expect("at least one repetition"))
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Cores available to this process; every workload caps its threads here.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `splitmix64`: a tiny seeded generator for the benchmark's own input
/// synthesis, independent of the program's RNG.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed` (salted per use so workloads draw
    /// independent streams from one CLI seed).
    pub fn new(seed: u64, salt: u64) -> Self {
        Self(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}
