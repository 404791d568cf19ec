//! The second-by-second speed trace of a drive cycle.

use crate::error::CycleError;
use otem_units::{Meters, MetersPerSecond, MetersPerSecondSquared, Seconds};
use serde::{Deserialize, Serialize};

/// A drive cycle: a 1 Hz speed trace starting and ending at standstill.
///
/// # Examples
///
/// ```
/// use otem_drivecycle::DriveCycle;
/// use otem_units::MetersPerSecond;
///
/// # fn main() -> Result<(), otem_drivecycle::CycleError> {
/// let speeds: Vec<_> = [0.0, 2.0, 4.0, 6.0, 4.0, 2.0, 0.0]
///     .iter()
///     .map(|&v| MetersPerSecond::new(v))
///     .collect();
/// let cycle = DriveCycle::from_speeds("ramp", speeds)?;
/// assert_eq!(cycle.duration().value(), 7.0);
/// assert!(cycle.distance().value() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriveCycle {
    name: String,
    speeds: Vec<MetersPerSecond>,
}

impl DriveCycle {
    /// Sampling period of all cycles: 1 s (the regulatory traces and the
    /// paper's control period).
    pub const DT: Seconds = Seconds::new(1.0);

    /// Builds a cycle from a 1 Hz speed trace.
    ///
    /// # Errors
    ///
    /// Returns [`CycleError::InvalidTrace`] if the trace is empty or any
    /// sample is negative or non-finite.
    pub fn from_speeds(
        name: impl Into<String>,
        speeds: Vec<MetersPerSecond>,
    ) -> Result<Self, CycleError> {
        if speeds.is_empty() {
            return Err(CycleError::InvalidTrace {
                index: 0,
                reason: "empty trace",
            });
        }
        for (index, s) in speeds.iter().enumerate() {
            if !s.is_finite() {
                return Err(CycleError::InvalidTrace {
                    index,
                    reason: "non-finite speed",
                });
            }
            if s.value() < 0.0 {
                return Err(CycleError::InvalidTrace {
                    index,
                    reason: "negative speed",
                });
            }
        }
        Ok(Self {
            name: name.into(),
            speeds,
        })
    }

    /// Cycle name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The speed samples.
    pub fn speeds(&self) -> &[MetersPerSecond] {
        &self.speeds
    }

    /// Number of 1 s samples.
    pub fn len(&self) -> usize {
        self.speeds.len()
    }

    /// `true` if the trace is empty (cannot occur for validated cycles).
    pub fn is_empty(&self) -> bool {
        self.speeds.is_empty()
    }

    /// Total duration.
    pub fn duration(&self) -> Seconds {
        Seconds::new(self.speeds.len() as f64)
    }

    /// Distance covered (trapezoidal integration of speed).
    pub fn distance(&self) -> Meters {
        let sum: f64 = self
            .speeds
            .windows(2)
            .map(|w| 0.5 * (w[0].value() + w[1].value()))
            .sum();
        Meters::new(sum)
    }

    /// Maximum speed reached.
    pub fn max_speed(&self) -> MetersPerSecond {
        self.speeds
            .iter()
            .copied()
            .fold(MetersPerSecond::ZERO, MetersPerSecond::max)
    }

    /// Overall average speed (distance / duration).
    pub fn average_speed(&self) -> MetersPerSecond {
        MetersPerSecond::new(self.distance().value() / self.duration().value())
    }

    /// Acceleration at sample `i` (backward difference; zero at `i = 0`).
    pub fn acceleration(&self, i: usize) -> MetersPerSecondSquared {
        if i == 0 || i >= self.speeds.len() {
            return MetersPerSecondSquared::ZERO;
        }
        MetersPerSecondSquared::new(self.speeds[i].value() - self.speeds[i - 1].value())
    }

    /// Largest acceleration magnitude across the trace.
    pub fn max_acceleration(&self) -> MetersPerSecondSquared {
        (1..self.speeds.len())
            .map(|i| self.acceleration(i).abs())
            .fold(MetersPerSecondSquared::ZERO, MetersPerSecondSquared::max)
    }

    /// Number of complete stops: transitions from motion to standstill,
    /// excluding the final stop at the end of the trace.
    pub fn stops(&self) -> u32 {
        let mut stops = 0;
        let mut moving = false;
        let standstill = 0.05; // m/s threshold
        for (i, s) in self.speeds.iter().enumerate() {
            if s.value() > standstill {
                moving = true;
            } else if moving {
                moving = false;
                if i < self.speeds.len() - 1 {
                    stops += 1;
                }
            }
        }
        stops
    }

    /// Fraction of samples at standstill.
    pub fn idle_fraction(&self) -> f64 {
        let idle = self.speeds.iter().filter(|s| s.value() <= 0.05).count();
        idle as f64 / self.speeds.len() as f64
    }

    /// Concatenates `n` repetitions of this cycle (the paper drives US06
    /// five times back-to-back for Figs. 6–7).
    pub fn repeat(&self, n: usize) -> DriveCycle {
        let mut speeds = Vec::with_capacity(self.speeds.len() * n.max(1));
        for _ in 0..n.max(1) {
            speeds.extend_from_slice(&self.speeds);
        }
        DriveCycle {
            name: if n > 1 {
                format!("{}x{n}", self.name)
            } else {
                self.name.clone()
            },
            speeds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> DriveCycle {
        let speeds = [0.0, 2.0, 4.0, 6.0, 6.0, 4.0, 2.0, 0.0, 0.0, 3.0, 0.0]
            .iter()
            .map(|&v| MetersPerSecond::new(v))
            .collect();
        DriveCycle::from_speeds("test", speeds).unwrap()
    }

    #[test]
    fn distance_is_trapezoidal() {
        let c = DriveCycle::from_speeds(
            "tri",
            vec![
                MetersPerSecond::new(0.0),
                MetersPerSecond::new(2.0),
                MetersPerSecond::new(0.0),
            ],
        )
        .unwrap();
        assert_eq!(c.distance().value(), 2.0);
    }

    #[test]
    fn stats_are_consistent() {
        let c = ramp();
        assert_eq!(c.duration().value(), 11.0);
        assert_eq!(c.max_speed().value(), 6.0);
        assert_eq!(c.max_acceleration().value(), 3.0);
        assert_eq!(c.stops(), 1); // stop at index 7; the final stop is excluded
        assert!(c.idle_fraction() > 0.0);
    }

    #[test]
    fn final_stop_not_counted() {
        let c = DriveCycle::from_speeds(
            "one-trip",
            vec![
                MetersPerSecond::new(0.0),
                MetersPerSecond::new(5.0),
                MetersPerSecond::new(0.0),
            ],
        )
        .unwrap();
        assert_eq!(c.stops(), 0);
    }

    #[test]
    fn repeat_concatenates() {
        let c = ramp();
        let c3 = c.repeat(3);
        assert_eq!(c3.len(), 3 * c.len());
        assert_eq!(c3.name(), "testx3");
        assert!((c3.distance().value() - 3.0 * c.distance().value()).abs() < 1.0);
        // repeat(0) and repeat(1) both give one copy
        assert_eq!(c.repeat(0).len(), c.len());
        assert_eq!(c.repeat(1).name(), "test");
    }

    #[test]
    fn invalid_traces_rejected() {
        assert!(DriveCycle::from_speeds("empty", vec![]).is_err());
        assert!(DriveCycle::from_speeds("neg", vec![MetersPerSecond::new(-1.0)]).is_err());
        assert!(DriveCycle::from_speeds("nan", vec![MetersPerSecond::new(f64::NAN)]).is_err());
    }

    #[test]
    fn acceleration_bounds() {
        let c = ramp();
        assert_eq!(c.acceleration(0).value(), 0.0);
        assert_eq!(c.acceleration(1).value(), 2.0);
        assert_eq!(c.acceleration(100).value(), 0.0); // out of range
    }
}
