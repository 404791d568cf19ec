//! Power and energy quantities.

use crate::mechanics::Seconds;

quantity! {
    /// Power in watts. Positive values are consumption/discharge demand;
    /// negative values are regeneration/charging throughout the workspace.
    Watts, "W"
}

quantity! {
    /// Power in kilowatts; convenience wrapper for reporting. Internal
    /// models always compute in [`Watts`].
    Kilowatts, "kW"
}

quantity! {
    /// Energy in joules (watt-seconds).
    Joules, "J"
}

dimension_mul!(commute Watts * Seconds = Joules);

impl Kilowatts {
    /// Converts to watts.
    #[inline]
    pub fn to_watts(self) -> Watts {
        Watts::new(self.value() * 1000.0)
    }
}

impl From<Kilowatts> for Watts {
    #[inline]
    fn from(kw: Kilowatts) -> Self {
        kw.to_watts()
    }
}

impl Joules {
    /// Converts to watt-hours (1 Wh = 3600 J).
    #[inline]
    pub fn to_watt_hours(self) -> f64 {
        self.value() / 3600.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_is_power_times_time() {
        let e: Joules = Watts::new(500.0) * Seconds::new(4.0);
        assert_eq!(e, Joules::new(2000.0));
        assert_eq!(e / Seconds::new(4.0), Watts::new(500.0));
        assert_eq!(e / Watts::new(500.0), Seconds::new(4.0));
    }

    #[test]
    fn kilowatt_round_trip() {
        assert_eq!(Watts::from(Kilowatts::new(75.0)), Watts::new(75_000.0));
    }

    #[test]
    fn watt_hours() {
        assert_eq!(Joules::new(7200.0).to_watt_hours(), 2.0);
    }
}
