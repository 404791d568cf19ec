//! Power and energy quantities.

use crate::mechanics::Seconds;

quantity! {
    /// Power in watts. Positive values are consumption/discharge demand;
    /// negative values are regeneration/charging throughout the workspace.
    Watts, "W"
}

quantity! {
    /// Energy in joules (watt-seconds).
    Joules, "J"
}

dimension_mul!(commute Watts * Seconds = Joules);

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
}
