//! Mechanical quantities used by the drive-cycle / power-train substrate.

use crate::energy::{Joules, Watts};

quantity! {
    /// Time in seconds; the simulation sampling period Δt (paper Eq. 17).
    Seconds, "s"
}

quantity! {
    /// Mass in kilograms.
    Kilograms, "kg"
}

quantity! {
    /// Distance in meters.
    Meters, "m"
}

quantity! {
    /// Speed in meters per second.
    MetersPerSecond, "m/s"
}

quantity! {
    /// Acceleration in meters per second squared.
    MetersPerSecondSquared, "m/s²"
}

quantity! {
    /// Force in newtons.
    Newtons, "N"
}

dimension_mul!(commute MetersPerSecond * Seconds = Meters);
dimension_mul!(commute MetersPerSecondSquared * Seconds = MetersPerSecond);
dimension_mul!(commute Kilograms * MetersPerSecondSquared = Newtons);
dimension_mul!(commute Newtons * MetersPerSecond = Watts);
dimension_mul!(commute Newtons * Meters = Joules);

impl MetersPerSecond {
    /// Builds from km/h (drive-cycle speed traces are customarily km/h or
    /// mph in the standards; we normalise to m/s internally).
    #[inline]
    pub fn from_kmh(kmh: f64) -> Self {
        Self::new(kmh / 3.6)
    }

    /// Converts to km/h.
    #[inline]
    pub fn to_kmh(self) -> f64 {
        self.value() * 3.6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinematics() {
        let d: Meters = MetersPerSecond::new(20.0) * Seconds::new(30.0);
        assert_eq!(d, Meters::new(600.0));
        let dv: MetersPerSecond = MetersPerSecondSquared::new(2.0) * Seconds::new(3.0);
        assert_eq!(dv, MetersPerSecond::new(6.0));
    }

    #[test]
    fn force_and_power() {
        let f: Newtons = Kilograms::new(2000.0) * MetersPerSecondSquared::new(1.5);
        assert_eq!(f, Newtons::new(3000.0));
        let p: Watts = f * MetersPerSecond::new(10.0);
        assert_eq!(p, Watts::new(30_000.0));
        let w: Joules = f * Meters::new(5.0);
        assert_eq!(w, Joules::new(15_000.0));
    }

    #[test]
    fn speed_conversions() {
        assert!((MetersPerSecond::from_kmh(36.0).value() - 10.0).abs() < 1e-12);
        assert!((MetersPerSecond::new(10.0).to_kmh() - 36.0).abs() < 1e-12);
    }
}
