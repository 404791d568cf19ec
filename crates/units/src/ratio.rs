//! Dimensionless bounded ratios: state-of-charge, state-of-energy,
//! efficiencies.

use core::fmt;

/// A dimensionless fraction in `[0, 1]`.
///
/// Used for battery state-of-charge (paper `SoC`), ultracapacitor
/// state-of-energy (`SoE`), converter efficiency (`η_DC`), cooler
/// efficiency (`η_c`) and regenerative-braking recapture fractions. The
/// paper reports SoC/SoE in percent; [`Ratio::from_percent`] /
/// [`Ratio::to_percent`] convert at the boundary.
///
/// Construction clamps to `[0, 1]`, so integration drift can never produce
/// a 101 % state of charge.
///
/// # Examples
///
/// ```
/// use otem_units::Ratio;
/// let soc = Ratio::from_percent(85.0);
/// assert_eq!(soc.value(), 0.85);
/// assert_eq!(soc.to_percent(), 85.0);
/// assert_eq!(Ratio::new(1.7), Ratio::ONE); // clamped
/// ```
#[derive(Clone, Copy, PartialEq, PartialOrd, Default, serde::Serialize, serde::Deserialize)]
#[serde(transparent)]
pub struct Ratio(f64);

impl Ratio {
    /// The empty fraction, 0 %.
    pub const ZERO: Self = Self(0.0);
    /// The full fraction, 100 %.
    pub const ONE: Self = Self(1.0);
    /// One half, 50 %.
    pub const HALF: Self = Self(0.5);

    /// Builds a ratio, clamping the input into `[0, 1]`. NaN becomes 0.
    #[inline]
    pub const fn new(value: f64) -> Self {
        if value.is_nan() {
            Self(0.0)
        } else {
            Self(value.clamp(0.0, 1.0))
        }
    }

    /// Builds from a percentage (`85.0` → `0.85`), clamping to `[0, 1]`.
    #[inline]
    pub const fn from_percent(percent: f64) -> Self {
        Self::new(percent / 100.0)
    }

    /// Raw fraction in `[0, 1]`.
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// As a percentage in `[0, 100]`.
    #[inline]
    pub fn to_percent(self) -> f64 {
        self.0 * 100.0
    }

    /// Saturating addition of a (possibly negative) raw delta.
    #[inline]
    pub fn saturating_add(self, delta: f64) -> Self {
        Self::new(self.0 + delta)
    }
}

impl fmt::Debug for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?} (ratio)", self.0)
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(prec) = f.precision() {
            write!(f, "{:.*}%", prec, self.to_percent())
        } else {
            write!(f, "{}%", self.to_percent())
        }
    }
}

impl core::ops::Mul<f64> for Ratio {
    type Output = f64;
    /// Scales a raw value by the fraction (e.g. usable capacity =
    /// `soc * capacity`). Returns `f64` because the result carries the
    /// operand's dimension, not a ratio.
    #[inline]
    fn mul(self, rhs: f64) -> f64 {
        self.0 * rhs
    }
}

impl core::ops::Mul<Ratio> for f64 {
    type Output = f64;
    #[inline]
    fn mul(self, rhs: Ratio) -> f64 {
        self * rhs.0
    }
}

impl core::ops::Mul<Ratio> for Ratio {
    type Output = Ratio;
    /// Composes two fractions (e.g. chained efficiencies).
    #[inline]
    fn mul(self, rhs: Ratio) -> Ratio {
        Ratio::new(self.0 * rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_clamps() {
        assert_eq!(Ratio::new(-0.5), Ratio::ZERO);
        assert_eq!(Ratio::new(2.0), Ratio::ONE);
        assert_eq!(Ratio::new(f64::NAN), Ratio::ZERO);
        assert_eq!(Ratio::from_percent(150.0), Ratio::ONE);
    }

    #[test]
    fn percent_round_trip() {
        let r = Ratio::from_percent(42.5);
        assert!((r.to_percent() - 42.5).abs() < 1e-12);
    }

    #[test]
    fn saturating_add_stays_bounded() {
        assert_eq!(Ratio::new(0.95).saturating_add(0.2), Ratio::ONE);
        assert_eq!(Ratio::new(0.05).saturating_add(-0.2), Ratio::ZERO);
        let mid = Ratio::new(0.5).saturating_add(0.25);
        assert!((mid.value() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn efficiency_composition() {
        let dc = Ratio::new(0.95);
        let motor = Ratio::new(0.9);
        assert!(((dc * motor).value() - 0.855).abs() < 1e-12);
    }

    #[test]
    fn display_as_percent() {
        assert_eq!(format!("{:.1}", Ratio::new(0.851)), "85.1%");
    }
}
