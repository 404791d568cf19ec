//! Thermal quantities: temperature, heat capacity and thermal conductance.

use crate::energy::{Joules, Watts};
use crate::mechanics::Seconds;

quantity! {
    /// Absolute temperature in kelvin.
    ///
    /// All thermal models operate on kelvin; the Arrhenius terms in the
    /// battery capacity-loss law (paper Eq. 5) require absolute
    /// temperature. Use [`Kelvin::from_celsius`] / [`Kelvin::to_celsius`]
    /// at the boundaries.
    ///
    /// ```
    /// use otem_units::Kelvin;
    /// let t = Kelvin::from_celsius(25.0);
    /// assert_eq!(t, Kelvin::new(298.15));
    /// assert_eq!(t.to_celsius().value(), 25.0);
    /// ```
    Kelvin, "K"
}

quantity! {
    /// Temperature expressed in degrees Celsius — reporting convenience
    /// only; models compute in [`Kelvin`].
    Celsius, "°C"
}

quantity! {
    /// Rate of temperature change in kelvin per second (paper Eq. 14–15,
    /// `dT/dt`).
    KelvinPerSecond, "K/s"
}

quantity! {
    /// Lumped heat capacity in joules per kelvin (paper `C_b`, `C_c`).
    HeatCapacity, "J/K"
}

quantity! {
    /// Thermal conductance in watts per kelvin (paper's heat-transfer
    /// coefficients `h_cb`, `h_bc` after lumping with contact area).
    ThermalConductance, "W/K"
}

dimension_mul!(commute KelvinPerSecond * Seconds = Kelvin);
dimension_mul!(commute HeatCapacity * Kelvin = Joules);
dimension_mul!(commute ThermalConductance * Kelvin = Watts);

impl Kelvin {
    /// Absolute zero.
    pub const ABSOLUTE_ZERO_CELSIUS: f64 = -273.15;

    /// Builds from degrees Celsius.
    #[inline]
    pub const fn from_celsius(celsius: f64) -> Self {
        Self::new(celsius - Self::ABSOLUTE_ZERO_CELSIUS)
    }

    /// Converts to degrees Celsius.
    #[inline]
    pub fn to_celsius(self) -> Celsius {
        Celsius::new(self.value() + Self::ABSOLUTE_ZERO_CELSIUS)
    }
}

impl From<Celsius> for Kelvin {
    #[inline]
    fn from(c: Celsius) -> Self {
        Kelvin::from_celsius(c.value())
    }
}

impl From<Kelvin> for Celsius {
    #[inline]
    fn from(k: Kelvin) -> Self {
        k.to_celsius()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn celsius_round_trip() {
        let t = Kelvin::from_celsius(40.0);
        assert!((t.value() - 313.15).abs() < 1e-12);
        assert!((Kelvin::from(t.to_celsius()).value() - t.value()).abs() < 1e-12);
    }

    #[test]
    fn heat_flow_from_conductance() {
        let h = ThermalConductance::new(5.0);
        let dt = Kelvin::new(12.0);
        let q: Watts = h * dt;
        assert_eq!(q, Watts::new(60.0));
    }

    #[test]
    fn stored_heat_from_capacity() {
        let c = HeatCapacity::new(800.0);
        let e: Joules = c * Kelvin::new(3.0);
        assert_eq!(e, Joules::new(2400.0));
        // dT = E / C
        assert_eq!(e / c, Kelvin::new(3.0));
    }

    #[test]
    fn rate_integrates_to_temperature() {
        let rate = KelvinPerSecond::new(0.05);
        let dt: Kelvin = rate * Seconds::new(60.0);
        assert!((dt.value() - 3.0).abs() < 1e-12);
    }
}
