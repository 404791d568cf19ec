//! System-wide configuration shared by every controller.

use crate::error::OtemError;
use otem_battery::{AgingParams, CellParams, PackConfig};
use otem_thermal::{PlantParams, ThermalParams};
use otem_units::{Farads, Kelvin, Ratio, Seconds, Watts};
use serde::{Deserialize, Serialize};

/// Everything the experiments vary, in one place: storage sizing,
/// environment, safety constraints and the control period.
///
/// The defaults reproduce the paper's reference setup: a Tesla-S-like
/// pack, a 25,000 F (cell-referenced) ultracapacitor bank, 25 °C ambient,
/// and the paper's constraint set C1–C7 (Section III-B).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Battery cell parameters.
    pub cell: CellParams,
    /// Pack topology.
    pub pack: PackConfig,
    /// Ultracapacitor capacitance label (the paper's 5,000–25,000 F).
    pub capacitance: Farads,
    /// Aging coefficients for the capacity-loss metric (Eq. 5).
    pub aging: AgingParams,
    /// Thermal parameters of the actively cooled pack.
    pub thermal_active: ThermalParams,
    /// Thermal parameters without a cooling loop (Parallel/Dual).
    pub thermal_passive: ThermalParams,
    /// Cooling plant (cooler + pump) parameters.
    pub plant: PlantParams,
    /// Ambient / initial temperature.
    pub ambient: Kelvin,
    /// C1 upper bound: maximum safe battery temperature.
    pub temp_max: Kelvin,
    /// C4 lower bound on battery state of charge.
    pub soc_min: Ratio,
    /// C5 lower bound on ultracapacitor state of energy.
    pub soe_min: Ratio,
    /// C6: battery bus-power limit.
    pub battery_power_max: Watts,
    /// C7: ultracapacitor bus-power limit.
    pub cap_power_max: Watts,
    /// Control period Δt (Eq. 17).
    pub dt: Seconds,
    /// Initial battery state of charge.
    pub initial_soc: Ratio,
    /// Initial ultracapacitor state of energy.
    pub initial_soe: Ratio,
}

impl SystemConfig {
    /// Builds the paper's reference configuration with the given
    /// ultracapacitor size.
    pub fn with_capacitance(capacitance: Farads) -> Self {
        Self {
            capacitance,
            ..Self::default()
        }
    }

    /// The thermally stressed configuration of the paper's motivational
    /// and temperature experiments (Figs. 1, 6, 7, Table I): a city-EV
    /// pack (96s × 16p, ≈ 17 kWh) whose cells run near 1C sustained with
    /// multi-C pulses, the matching fast thermal lumps, and a 30 °C
    /// ambient. Pair with a compact vehicle
    /// (`VehicleParams::compact_ev`) when building the power trace.
    pub fn stress_rig() -> Self {
        let ambient = Kelvin::from_celsius(30.0);
        Self {
            pack: PackConfig::city_ev(),
            thermal_active: ThermalParams::city_pack().with_ambient(ambient),
            thermal_passive: ThermalParams::city_pack_passive().with_ambient(ambient),
            ambient,
            battery_power_max: Watts::new(90_000.0),
            ..Self::default()
        }
    }

    /// Overrides the ambient (and initial) temperature: the paper
    /// evaluates "different environment temperatures".
    pub fn with_ambient(mut self, ambient: Kelvin) -> Self {
        self.ambient = ambient;
        self.thermal_active = self.thermal_active.with_ambient(ambient);
        self.thermal_passive = self.thermal_passive.with_ambient(ambient);
        self
    }

    /// Validates cross-field consistency.
    ///
    /// # Errors
    ///
    /// Returns [`OtemError::InvalidConfig`] for inconsistent bounds and
    /// propagates component validation errors.
    pub fn validate(&self) -> Result<(), OtemError> {
        self.cell.validate()?;
        self.pack.validate()?;
        self.aging.validate()?;
        self.thermal_active.validate()?;
        self.thermal_passive.validate()?;
        self.plant.validate()?;
        if self.capacitance.value() <= 0.0 {
            return Err(OtemError::InvalidConfig {
                field: "capacitance",
                constraint: "> 0 F",
            });
        }
        if self.temp_max <= self.ambient {
            return Err(OtemError::InvalidConfig {
                field: "temp_max",
                constraint: "> ambient",
            });
        }
        if self.dt.value() <= 0.0 {
            return Err(OtemError::InvalidConfig {
                field: "dt",
                constraint: "> 0 s",
            });
        }
        if self.initial_soc < self.soc_min {
            return Err(OtemError::InvalidConfig {
                field: "initial_soc",
                constraint: ">= soc_min",
            });
        }
        if self.battery_power_max.value() <= 0.0 || self.cap_power_max.value() <= 0.0 {
            return Err(OtemError::InvalidConfig {
                field: "power limits",
                constraint: "> 0 W",
            });
        }
        Ok(())
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        let ambient = Kelvin::from_celsius(25.0);
        Self {
            cell: CellParams::ncr18650a(),
            pack: PackConfig::compact_ev(),
            capacitance: Farads::new(25_000.0),
            aging: AgingParams::default(),
            thermal_active: ThermalParams::ev_pack().with_ambient(ambient),
            thermal_passive: ThermalParams::ev_pack_passive().with_ambient(ambient),
            plant: PlantParams::ev_plant(),
            ambient,
            temp_max: Kelvin::from_celsius(40.0),
            soc_min: Ratio::from_percent(20.0),
            soe_min: Ratio::from_percent(20.0),
            battery_power_max: Watts::new(160_000.0),
            cap_power_max: Watts::new(90_000.0),
            dt: Seconds::new(1.0),
            initial_soc: Ratio::ONE,
            initial_soe: Ratio::ONE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        SystemConfig::default().validate().expect("valid default");
    }

    #[test]
    fn stress_rig_validates_and_is_hotter() {
        let rig = SystemConfig::stress_rig();
        rig.validate().expect("valid");
        assert!(rig.ambient > SystemConfig::default().ambient);
        assert!(rig.pack.cell_count() < SystemConfig::default().pack.cell_count());
    }

    #[test]
    fn capacitance_override() {
        let c = SystemConfig::with_capacitance(Farads::new(5_000.0));
        assert_eq!(c.capacitance, Farads::new(5_000.0));
        c.validate().expect("still valid");
    }

    #[test]
    fn ambient_override_propagates_to_thermal() {
        let hot = Kelvin::from_celsius(35.0);
        let c = SystemConfig::default().with_ambient(hot);
        assert_eq!(c.ambient, hot);
        assert_eq!(c.thermal_active.ambient_temperature, hot);
        assert_eq!(c.thermal_passive.ambient_temperature, hot);
    }

    #[test]
    fn inconsistent_bounds_rejected() {
        let below_ambient = SystemConfig {
            temp_max: Kelvin::from_celsius(10.0),
            ..SystemConfig::default()
        };
        assert!(below_ambient.validate().is_err());

        let below_soc_floor = SystemConfig {
            initial_soc: Ratio::from_percent(10.0),
            ..SystemConfig::default()
        };
        assert!(below_soc_floor.validate().is_err());

        let zero_dt = SystemConfig {
            dt: Seconds::ZERO,
            ..SystemConfig::default()
        };
        assert!(zero_dt.validate().is_err());
    }
}
