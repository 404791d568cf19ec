//! Backward-facing EV power-train model: speed trace → battery-bus power.

use crate::cycle::DriveCycle;
use crate::error::CycleError;
use crate::trace::PowerTrace;
use otem_units::{Kilograms, MetersPerSecond, MetersPerSecondSquared, Newtons, Ratio, Watts};
use serde::{Deserialize, Serialize};

/// Vehicle and driveline parameters for the road-load model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VehicleParams {
    /// Curb mass plus payload.
    pub mass: Kilograms,
    /// Aerodynamic drag coefficient `C_d`.
    pub drag_coefficient: f64,
    /// Frontal area (m²).
    pub frontal_area: f64,
    /// Rolling-resistance coefficient `C_rr`.
    pub rolling_resistance: f64,
    /// Air density (kg/m³).
    pub air_density: f64,
    /// Combined driveline + motor + inverter efficiency (tractive power
    /// to bus power).
    pub drivetrain_efficiency: Ratio,
    /// Fraction of braking power recaptured to the bus (regenerative
    /// braking, after its own conversion losses).
    pub regen_efficiency: Ratio,
    /// Constant accessory load on the bus (12 V systems, electronics;
    /// HVAC excluded — the paper treats climate control separately).
    pub accessory_power: Watts,
}

impl VehicleParams {
    /// A mid-size premium EV in the Tesla-Model-S class, the paper's
    /// reference vehicle.
    pub fn midsize_ev() -> Self {
        Self {
            mass: Kilograms::new(2_100.0),
            drag_coefficient: 0.24,
            frontal_area: 2.34,
            rolling_resistance: 0.009,
            air_density: 1.2,
            drivetrain_efficiency: Ratio::new(0.85),
            regen_efficiency: Ratio::new(0.60),
            accessory_power: Watts::new(500.0),
        }
    }

    /// A compact city EV (Leaf/i3 class): lighter and blunter than the
    /// premium sedan, with a smaller accessory load.
    pub fn compact_ev() -> Self {
        Self {
            mass: Kilograms::new(1_400.0),
            drag_coefficient: 0.29,
            frontal_area: 2.2,
            accessory_power: Watts::new(400.0),
            ..Self::midsize_ev()
        }
    }

    /// Validates physical plausibility.
    ///
    /// # Errors
    ///
    /// Returns [`CycleError::InvalidSpec`] for non-positive mass, area,
    /// density or efficiencies, or coefficients outside sane ranges.
    pub fn validate(&self) -> Result<(), CycleError> {
        if self.mass.value() <= 0.0 {
            return Err(CycleError::InvalidSpec {
                field: "mass",
                constraint: "> 0 kg",
            });
        }
        if !(0.0..2.0).contains(&self.drag_coefficient) {
            return Err(CycleError::InvalidSpec {
                field: "drag_coefficient",
                constraint: "within (0, 2)",
            });
        }
        if self.frontal_area <= 0.0 {
            return Err(CycleError::InvalidSpec {
                field: "frontal_area",
                constraint: "> 0 m²",
            });
        }
        if !(0.0..0.1).contains(&self.rolling_resistance) {
            return Err(CycleError::InvalidSpec {
                field: "rolling_resistance",
                constraint: "within (0, 0.1)",
            });
        }
        if self.air_density <= 0.0 {
            return Err(CycleError::InvalidSpec {
                field: "air_density",
                constraint: "> 0 kg/m³",
            });
        }
        if self.drivetrain_efficiency.value() <= 0.0 {
            return Err(CycleError::InvalidSpec {
                field: "drivetrain_efficiency",
                constraint: "> 0",
            });
        }
        if self.accessory_power.value() < 0.0 {
            return Err(CycleError::InvalidSpec {
                field: "accessory_power",
                constraint: ">= 0 W",
            });
        }
        Ok(())
    }
}

impl Default for VehicleParams {
    fn default() -> Self {
        Self::midsize_ev()
    }
}

/// The backward-facing power-train: maps kinematics to bus power.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Powertrain {
    params: VehicleParams,
}

impl Powertrain {
    /// Standard gravity (m/s²).
    const G: f64 = 9.806_65;

    /// Builds a power-train after validating the vehicle parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CycleError::InvalidSpec`] when validation fails.
    pub fn new(params: VehicleParams) -> Result<Self, CycleError> {
        params.validate()?;
        Ok(Self { params })
    }

    /// The vehicle parameters.
    pub fn params(&self) -> &VehicleParams {
        &self.params
    }

    /// Tractive force at the wheels for the given operating point on a
    /// level road.
    pub fn tractive_force(&self, speed: MetersPerSecond, accel: MetersPerSecondSquared) -> Newtons {
        let p = &self.params;
        let v = speed.value();
        let inertial = p.mass.value() * accel.value();
        let aero = 0.5 * p.air_density * p.drag_coefficient * p.frontal_area * v * v;
        let rolling = if v > 0.01 {
            p.rolling_resistance * p.mass.value() * Self::G
        } else {
            0.0
        };
        Newtons::new(inertial + aero + rolling)
    }

    /// Battery-bus power request for the given operating point: positive
    /// when the storage must supply power, negative when regenerative
    /// braking returns power.
    pub fn power_request(&self, speed: MetersPerSecond, accel: MetersPerSecondSquared) -> Watts {
        let p = &self.params;
        let wheel: Watts = self.tractive_force(speed, accel) * speed;
        let traction = if wheel.value() >= 0.0 {
            // Discharging: driveline losses inflate the request.
            wheel / p.drivetrain_efficiency.value()
        } else {
            // Braking: only a fraction comes back.
            wheel * p.regen_efficiency.value()
        };
        traction + p.accessory_power
    }

    /// Evaluates the whole cycle into a 1 Hz power-request trace on a
    /// level road (the paper's `P_e` input).
    pub fn power_trace(&self, cycle: &DriveCycle) -> PowerTrace {
        let speeds = cycle.speeds();
        let samples = (0..speeds.len())
            .map(|i| self.power_request(speeds[i], cycle.acceleration(i)))
            .collect();
        PowerTrace::new(DriveCycle::DT, samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train() -> Powertrain {
        Powertrain::new(VehicleParams::midsize_ev()).unwrap()
    }

    #[test]
    fn cruise_power_is_tens_of_kilowatts() {
        let t = train();
        // 120 km/h steady cruise.
        let p = t.power_request(
            MetersPerSecond::from_kmh(120.0),
            MetersPerSecondSquared::ZERO,
        );
        assert!(
            (10_000.0..40_000.0).contains(&p.value()),
            "cruise power {p:?}"
        );
    }

    #[test]
    fn hard_acceleration_approaches_triple_digit_kilowatts() {
        let t = train();
        let p = t.power_request(MetersPerSecond::new(25.0), MetersPerSecondSquared::new(2.5));
        assert!(p.value() > 80_000.0, "launch power {p:?}");
    }

    #[test]
    fn braking_regenerates() {
        let t = train();
        let p = t.power_request(
            MetersPerSecond::new(20.0),
            MetersPerSecondSquared::new(-2.0),
        );
        assert!(p.value() < 0.0, "regen power {p:?}");
        // Regen magnitude is a fraction of what the same accel costs.
        let drive = t.power_request(MetersPerSecond::new(20.0), MetersPerSecondSquared::new(2.0));
        assert!(p.abs() < drive);
    }

    #[test]
    fn standstill_only_draws_accessories() {
        let t = train();
        let p = t.power_request(MetersPerSecond::ZERO, MetersPerSecondSquared::ZERO);
        assert_eq!(p, t.params().accessory_power);
    }

    #[test]
    fn aero_grows_quadratically() {
        let t = train();
        let f1 = t
            .tractive_force(MetersPerSecond::new(10.0), MetersPerSecondSquared::ZERO)
            .value();
        let f2 = t
            .tractive_force(MetersPerSecond::new(20.0), MetersPerSecondSquared::ZERO)
            .value();
        let rolling = 0.009 * 2_100.0 * 9.806_65;
        assert!(((f2 - rolling) / (f1 - rolling) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn compact_ev_draws_less_than_midsize() {
        let mid = Powertrain::new(VehicleParams::midsize_ev()).unwrap();
        let compact = Powertrain::new(VehicleParams::compact_ev()).unwrap();
        let v = MetersPerSecond::from_kmh(100.0);
        let a = MetersPerSecondSquared::new(1.0);
        assert!(compact.power_request(v, a) < mid.power_request(v, a));
    }

    #[test]
    fn invalid_vehicle_rejected() {
        let mut v = VehicleParams::midsize_ev();
        v.mass = Kilograms::new(0.0);
        assert!(Powertrain::new(v).is_err());

        let mut v = VehicleParams::midsize_ev();
        v.drag_coefficient = 3.0;
        assert!(Powertrain::new(v).is_err());
    }
}
