//! Ultracapacitor bank parameters (paper Eq. 6).

use crate::error::UltracapError;
use otem_units::{Farads, Joules, Volts, Watts};
use serde::{Deserialize, Serialize};

/// Parameters of an ultracapacitor bank.
///
/// The paper characterises banks by a single capacitance figure
/// (5,000–25,000 F, Maxwell BC-series cells) at a rated voltage; usable
/// energy is `½·C·V_r²` (Eq. 6). The bank voltage is cell-referenced —
/// see DESIGN.md §3 for the sizing substitution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UltracapParams {
    /// Rated capacitance `C_cap` (paper Table I sweeps this).
    pub capacitance: Farads,
    /// Rated (full) voltage `V_r`.
    pub rated_voltage: Volts,
    /// Series resistance; ≈ 2.2 mΩ, may be zero (the paper omits it).
    pub series_resistance: f64,
    /// Maximum power magnitude the bank interface sustains, either
    /// direction (converter/cabling limit).
    pub max_power: Watts,
    /// Self-discharge time constant (s): stored energy decays as
    /// `exp(−t/τ)` while the bank idles. Ultracapacitors leak noticeably
    /// faster than batteries (hours–days), which is why *when* to
    /// pre-charge matters, not just whether.
    pub leakage_time_constant: f64,
}

impl UltracapParams {
    /// The paper's bank at a given capacitance: rated voltage chosen so
    /// the 25,000 F reference bank stores ≈ 890 Wh — large enough to ride
    /// out a US06 pulse train, while 5,000 F (≈ 178 Wh) depletes within
    /// one aggressive phase, reproducing the Fig. 1 behaviour.
    pub fn paper_bank(capacitance: Farads) -> Self {
        Self {
            capacitance,
            rated_voltage: Volts::new(16.0),
            series_resistance: 0.0,
            max_power: Watts::new(90_000.0),
            leakage_time_constant: 40.0 * 3600.0, // ≈ 1.7 days
        }
    }

    /// Energy capacity `E_cap = ½·C·V_r²` (Eq. 6).
    #[inline]
    pub fn energy_capacity(&self) -> Joules {
        Joules::new(0.5 * self.capacitance.value() * self.rated_voltage.value().powi(2))
    }

    /// Validates the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`UltracapError::InvalidParameter`] for non-positive
    /// capacitance, rated voltage or power limit, or a negative series
    /// resistance.
    pub fn validate(&self) -> Result<(), UltracapError> {
        if self.capacitance.value() <= 0.0 {
            return Err(UltracapError::InvalidParameter {
                name: "capacitance",
                value: self.capacitance.value(),
                constraint: "> 0 F",
            });
        }
        if self.rated_voltage.value() <= 0.0 {
            return Err(UltracapError::InvalidParameter {
                name: "rated_voltage",
                value: self.rated_voltage.value(),
                constraint: "> 0 V",
            });
        }
        if self.series_resistance < 0.0 {
            return Err(UltracapError::InvalidParameter {
                name: "series_resistance",
                value: self.series_resistance,
                constraint: ">= 0 Ω",
            });
        }
        if self.max_power.value() <= 0.0 {
            return Err(UltracapError::InvalidParameter {
                name: "max_power",
                value: self.max_power.value(),
                constraint: "> 0 W",
            });
        }
        if self.leakage_time_constant <= 0.0 || !self.leakage_time_constant.is_finite() {
            return Err(UltracapError::InvalidParameter {
                name: "leakage_time_constant",
                value: self.leakage_time_constant,
                constraint: "> 0 s and finite",
            });
        }
        Ok(())
    }
}

impl Default for UltracapParams {
    /// The paper's reference 25,000 F bank.
    fn default() -> Self {
        Self::paper_bank(Farads::new(25_000.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_capacity_formula() {
        let p = UltracapParams::paper_bank(Farads::new(25_000.0));
        let e = p.energy_capacity();
        assert_eq!(e.value(), 0.5 * 25_000.0 * 16.0 * 16.0);
        // ≈ 889 Wh
        assert!((e.value() / 3600.0 - 888.9).abs() < 1.0);
    }

    #[test]
    fn small_bank_is_an_order_of_magnitude_smaller() {
        let small = UltracapParams::paper_bank(Farads::new(5_000.0)).energy_capacity();
        let large = UltracapParams::paper_bank(Farads::new(25_000.0)).energy_capacity();
        assert!((large.value() / small.value() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn leakage_must_be_positive() {
        let p = UltracapParams {
            leakage_time_constant: 0.0,
            ..UltracapParams::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_rejects_nonphysical_values() {
        let p = UltracapParams {
            capacitance: Farads::new(0.0),
            ..UltracapParams::default()
        };
        assert!(p.validate().is_err());

        let p = UltracapParams {
            series_resistance: -0.1,
            ..UltracapParams::default()
        };
        assert!(p.validate().is_err());

        assert!(UltracapParams::default().validate().is_ok());
    }
}
