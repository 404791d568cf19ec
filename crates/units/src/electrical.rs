//! Electrical quantities: voltage, current, resistance, capacitance and
//! charge.

use crate::energy::Watts;
use crate::mechanics::Seconds;

quantity! {
    /// Electric potential in volts.
    ///
    /// ```
    /// use otem_units::{Volts, Ohms, Amps};
    /// let drop: Volts = Amps::new(10.0) * Ohms::new(0.05);
    /// assert_eq!(drop, Volts::new(0.5));
    /// ```
    Volts, "V"
}

quantity! {
    /// Electric current in amperes. Positive means discharge (current drawn
    /// *from* a storage element) throughout the OTEM workspace.
    Amps, "A"
}

quantity! {
    /// Electrical resistance in ohms.
    Ohms, "Ω"
}

quantity! {
    /// Capacitance in farads. Used for the ultracapacitor bank rating
    /// (paper Table I sweeps 5,000–25,000 F).
    Farads, "F"
}

quantity! {
    /// Electric charge in coulombs (ampere-seconds).
    Coulombs, "C"
}

quantity! {
    /// Electric charge in ampere-hours; the customary unit for battery
    /// capacity ratings (paper Eq. 1's `C_bat`).
    AmpHours, "Ah"
}

dimension_mul!(commute Volts * Amps = Watts);
dimension_mul!(commute Amps * Ohms = Volts);
dimension_mul!(commute Amps * Seconds = Coulombs);

impl AmpHours {
    /// Converts to coulombs (1 Ah = 3600 C).
    #[inline]
    pub fn to_coulombs(self) -> Coulombs {
        Coulombs::new(self.value() * 3600.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ohms_law_round_trip() {
        let v = Volts::new(12.0);
        let r = Ohms::new(4.0);
        let i: Amps = v / r;
        assert_eq!(i, Amps::new(3.0));
        assert_eq!(i * r, v);
        assert_eq!(r * i, v);
    }

    #[test]
    fn power_from_voltage_and_current() {
        let p: Watts = Volts::new(400.0) * Amps::new(50.0);
        assert_eq!(p, Watts::new(20_000.0));
        assert_eq!(p / Volts::new(400.0), Amps::new(50.0));
        assert_eq!(p / Amps::new(50.0), Volts::new(400.0));
    }

    #[test]
    fn charge_conversions() {
        let q = AmpHours::new(3.1);
        assert_eq!(q.to_coulombs(), Coulombs::new(11_160.0));
        let c: Coulombs = Amps::new(2.0) * Seconds::new(1800.0);
        assert_eq!(c, AmpHours::new(1.0).to_coulombs());
    }

    #[test]
    fn display_includes_unit() {
        assert_eq!(format!("{:.2}", Volts::new(3.65)), "3.65 V");
        assert_eq!(format!("{}", Amps::new(2.0)), "2 A");
    }
}
