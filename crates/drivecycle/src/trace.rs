//! Power-request traces: the `P_e` input of the paper's Algorithm 1.

use otem_units::{Joules, Seconds, Watts};
use serde::{Deserialize, Serialize};

/// A uniformly sampled power-request trace.
///
/// # Examples
///
/// ```
/// use otem_drivecycle::PowerTrace;
/// use otem_units::{Seconds, Watts};
///
/// let trace = PowerTrace::new(
///     Seconds::new(1.0),
///     vec![Watts::new(1000.0), Watts::new(2000.0), Watts::new(-500.0)],
/// );
/// assert_eq!(trace.peak(), Watts::new(2000.0));
/// assert_eq!(trace.energy(), otem_units::Joules::new(2500.0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerTrace {
    dt: Seconds,
    samples: Vec<Watts>,
}

impl PowerTrace {
    /// Builds a trace from its sampling period and samples.
    pub fn new(dt: Seconds, samples: Vec<Watts>) -> Self {
        Self { dt, samples }
    }

    /// Sampling period.
    pub fn dt(&self) -> Seconds {
        self.dt
    }

    /// The samples.
    pub fn samples(&self) -> &[Watts] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when the trace has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total duration.
    pub fn duration(&self) -> Seconds {
        self.dt * self.samples.len() as f64
    }

    /// Sample at index `i`, or zero past the end (convenient for MPC
    /// look-ahead windows that extend beyond the route).
    pub fn get(&self, i: usize) -> Watts {
        self.samples.get(i).copied().unwrap_or(Watts::ZERO)
    }

    /// Largest (most demanding) sample.
    pub fn peak(&self) -> Watts {
        self.samples.iter().copied().fold(Watts::ZERO, Watts::max)
    }

    /// Arithmetic mean of the samples.
    pub fn mean(&self) -> Watts {
        if self.samples.is_empty() {
            return Watts::ZERO;
        }
        self.samples.iter().copied().sum::<Watts>() / self.samples.len() as f64
    }

    /// Net energy over the trace (discharge positive, regen negative).
    pub fn energy(&self) -> Joules {
        self.samples.iter().copied().sum::<Watts>() * self.dt
    }

    /// The window `[start, start + n)`, always exactly `n` long and
    /// zero-padded past the end of the route — the shape of the load
    /// forecast `P̂_e` the simulator hands the controller each period
    /// (Algorithm 1 lines 11–12), as an owned copy.
    pub fn window(&self, start: usize, n: usize) -> Vec<Watts> {
        (start..start + n).map(|i| self.get(i)).collect()
    }

    /// Concatenates `n` repetitions of the trace.
    pub fn repeat(&self, n: usize) -> PowerTrace {
        let mut samples = Vec::with_capacity(self.samples.len() * n.max(1));
        for _ in 0..n.max(1) {
            samples.extend_from_slice(&self.samples);
        }
        PowerTrace {
            dt: self.dt,
            samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> PowerTrace {
        PowerTrace::new(
            Seconds::new(1.0),
            vec![
                Watts::new(100.0),
                Watts::new(300.0),
                Watts::new(-50.0),
                Watts::new(0.0),
            ],
        )
    }

    #[test]
    fn stats() {
        let t = trace();
        assert_eq!(t.len(), 4);
        assert_eq!(t.duration(), Seconds::new(4.0));
        assert_eq!(t.peak(), Watts::new(300.0));
        assert_eq!(t.mean(), Watts::new(87.5));
        assert_eq!(t.energy(), Joules::new(350.0));
    }

    #[test]
    fn get_pads_with_zero() {
        let t = trace();
        assert_eq!(t.get(2), Watts::new(-50.0));
        assert_eq!(t.get(99), Watts::ZERO);
    }

    #[test]
    fn window_spans_the_end() {
        let t = trace();
        assert_eq!(t.window(1, 3), &t.samples()[1..4], "inside the route");
        assert_eq!(
            t.window(2, 4),
            vec![Watts::new(-50.0), Watts::ZERO, Watts::ZERO, Watts::ZERO],
            "straddling the end"
        );
        assert_eq!(t.window(9, 2), vec![Watts::ZERO; 2], "past the end");
        assert_eq!(t.window(4, 0), Vec::<Watts>::new(), "n = 0");
    }

    #[test]
    fn repeat_scales_energy() {
        let t = trace();
        let t3 = t.repeat(3);
        assert_eq!(t3.len(), 12);
        assert_eq!(t3.energy(), Joules::new(3.0 * 350.0));
    }

    #[test]
    fn empty_trace_stats_are_defined() {
        let t = PowerTrace::new(Seconds::new(1.0), vec![]);
        assert!(t.is_empty());
        assert_eq!(t.mean(), Watts::ZERO);
        assert_eq!(t.peak(), Watts::ZERO);
        assert_eq!(t.energy(), Joules::ZERO);
    }
}
