//! The per-step bookkeeping record every architecture returns.

use otem_units::Watts;
use serde::{Deserialize, Serialize};

/// What happened inside the HEES during one control period.
///
/// All powers follow the workspace convention: positive = the storage is
/// discharging / the quantity is being consumed.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct HeesStep {
    /// Bus power actually delivered toward the load (after clamping to
    /// feasibility).
    pub delivered: Watts,
    /// Unmet load (requested − delivered); zero when feasible.
    pub shortfall: Watts,
    /// Chemical power drawn from the battery, `V_oc·I` — the paper's
    /// `dE_bat` per unit time (positive discharging).
    pub battery_internal: Watts,
    /// Energy-store power drawn from the ultracapacitor — the paper's
    /// `dE_cap` per unit time (positive discharging, negative while
    /// being charged).
    pub cap_internal: Watts,
    /// Heat generated inside the battery pack (input to the thermal
    /// model, Eq. 4).
    pub battery_heat: Watts,
    /// Battery per-cell C-rate magnitude (stress input to Eq. 5).
    pub battery_c_rate: f64,
    /// Power dissipated in the DC/DC converters (hybrid architecture
    /// only; zero for switched/parallel wiring).
    pub converter_loss: Watts,
}

impl HeesStep {
    /// Total energy-relevant HEES consumption rate: the paper's
    /// `dE_bat + dE_cap` cost term.
    #[inline]
    pub fn hees_power(&self) -> Watts {
        self.battery_internal + self.cap_internal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hees_power_sums_both_stores() {
        let step = HeesStep {
            battery_internal: Watts::new(1_000.0),
            cap_internal: Watts::new(-250.0),
            ..HeesStep::default()
        };
        assert_eq!(step.hees_power(), Watts::new(750.0));
    }

    #[test]
    fn default_is_all_zero() {
        let step = HeesStep::default();
        assert_eq!(step.delivered, Watts::ZERO);
        assert_eq!(step.shortfall, Watts::ZERO);
        assert_eq!(step.battery_c_rate, 0.0);
    }
}
