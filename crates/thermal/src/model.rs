//! The lumped two-node battery/coolant thermal model (paper Eq. 14–15,
//! discretised per Eq. 17).

use crate::error::ThermalError;
use crate::kernel::CrankNicolsonCoefficients;
use otem_units::{HeatCapacity, Kelvin, KelvinPerSecond, Seconds, ThermalConductance, Watts};
use serde::{Deserialize, Serialize};

/// Parameters of the two-node thermal model.
///
/// All quantities are *pack level* lumps: per-cell heat capacities and
/// film coefficients are multiplied by the cell count / wetted area when
/// building a parameter set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalParams {
    /// Battery lump heat capacity `C_b` (J/K). ≈ cell count × 40 J/K.
    pub battery_heat_capacity: HeatCapacity,
    /// In-pack coolant lump heat capacity `C_c` (J/K).
    pub coolant_heat_capacity: HeatCapacity,
    /// Battery ↔ coolant conductance `h` (W/K) while coolant flows
    /// (the paper's `h_cb`/`h_bc` after lumping).
    pub battery_coolant_conductance: ThermalConductance,
    /// Coolant flow heat-capacity rate `Ċ_c = ṁ·c_p` (W/K): the fresh
    /// inlet flow term of Eq. 15. Zero models a plant with the pump off
    /// (or no cooling system at all).
    pub coolant_flow_capacity: ThermalConductance,
    /// Passive battery ↔ ambient conductance (W/K). Small; dominant only
    /// for architectures without active cooling.
    pub ambient_conductance: ThermalConductance,
    /// Ambient temperature the passive path leaks to.
    pub ambient_temperature: Kelvin,
}

impl ThermalParams {
    /// A pack of ≈ 7,100 cells with a liquid cooling loop, sized for a
    /// Tesla-S-like EV (see crate docs for the magnitudes).
    pub fn ev_pack() -> Self {
        Self {
            battery_heat_capacity: HeatCapacity::new(284_000.0),
            coolant_heat_capacity: HeatCapacity::new(17_500.0),
            battery_coolant_conductance: ThermalConductance::new(3_000.0),
            coolant_flow_capacity: ThermalConductance::new(1_050.0),
            ambient_conductance: ThermalConductance::new(30.0),
            ambient_temperature: Kelvin::from_celsius(25.0),
        }
    }

    /// The same pack with the cooling loop absent/off: no coolant flow,
    /// only the passive ambient path (Parallel \[15\] and Dual \[16\]
    /// baselines). Without the sealed liquid-cooling enclosure the cells
    /// sit in ambient air, so the passive conductance is substantially
    /// larger than the sealed pack's leakage.
    pub fn ev_pack_passive() -> Self {
        Self {
            coolant_flow_capacity: ThermalConductance::ZERO,
            ambient_conductance: ThermalConductance::new(100.0),
            ..Self::ev_pack()
        }
    }

    /// Thermal lumps for the 1,536-cell city-EV pack
    /// ([`ev_pack`](Self::ev_pack) scaled down): smaller heat capacity,
    /// faster response — temperature excursions play out within one
    /// drive cycle, as in the paper's Figs. 1 and 6.
    pub fn city_pack() -> Self {
        Self {
            battery_heat_capacity: HeatCapacity::new(61_400.0),
            coolant_heat_capacity: HeatCapacity::new(8_000.0),
            battery_coolant_conductance: ThermalConductance::new(2_500.0),
            coolant_flow_capacity: ThermalConductance::new(1_050.0),
            ambient_conductance: ThermalConductance::new(30.0),
            ambient_temperature: Kelvin::from_celsius(25.0),
        }
    }

    /// The city-EV pack without a cooling loop: natural convection only.
    /// Sustained aggressive driving generates more heat than this path
    /// sheds — the paper's motivation for combining the HEES with an
    /// active cooling system.
    pub fn city_pack_passive() -> Self {
        Self {
            coolant_flow_capacity: ThermalConductance::ZERO,
            ambient_conductance: ThermalConductance::new(80.0),
            ..Self::city_pack()
        }
    }

    /// Sets the ambient temperature (the paper evaluates several
    /// environment temperatures).
    pub fn with_ambient(mut self, ambient: Kelvin) -> Self {
        self.ambient_temperature = ambient;
        self
    }

    /// Validates the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] for non-positive heat
    /// capacities, negative conductances, or a non-physical ambient
    /// temperature.
    pub fn validate(&self) -> Result<(), ThermalError> {
        if self.battery_heat_capacity.value() <= 0.0 {
            return Err(ThermalError::InvalidParameter {
                name: "battery_heat_capacity",
                value: self.battery_heat_capacity.value(),
                constraint: "> 0 J/K",
            });
        }
        if self.coolant_heat_capacity.value() <= 0.0 {
            return Err(ThermalError::InvalidParameter {
                name: "coolant_heat_capacity",
                value: self.coolant_heat_capacity.value(),
                constraint: "> 0 J/K",
            });
        }
        for (name, value) in [
            (
                "battery_coolant_conductance",
                self.battery_coolant_conductance.value(),
            ),
            ("coolant_flow_capacity", self.coolant_flow_capacity.value()),
            ("ambient_conductance", self.ambient_conductance.value()),
        ] {
            if value < 0.0 || !value.is_finite() {
                return Err(ThermalError::InvalidParameter {
                    name,
                    value,
                    constraint: ">= 0 W/K and finite",
                });
            }
        }
        if self.ambient_temperature.value() <= 0.0 {
            return Err(ThermalError::InvalidParameter {
                name: "ambient_temperature",
                value: self.ambient_temperature.value(),
                constraint: "> 0 K",
            });
        }
        Ok(())
    }
}

impl Default for ThermalParams {
    fn default() -> Self {
        Self::ev_pack()
    }
}

/// The two temperatures of the lumped model: paper state variables
/// `T_b` and `T_c`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalState {
    /// Battery lump temperature `T_b`.
    pub battery: Kelvin,
    /// In-pack coolant lump temperature `T_c`.
    pub coolant: Kelvin,
}

impl ThermalState {
    /// Both nodes at the same temperature (cold start).
    pub fn uniform(temperature: Kelvin) -> Self {
        Self {
            battery: temperature,
            coolant: temperature,
        }
    }
}

/// The thermal model: derivative evaluation plus two integrators.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalModel {
    params: ThermalParams,
}

impl ThermalModel {
    /// Builds a model after validating the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidParameter`] when validation fails.
    pub fn new(params: ThermalParams) -> Result<Self, ThermalError> {
        params.validate()?;
        Ok(Self { params })
    }

    /// The parameter set.
    pub fn params(&self) -> &ThermalParams {
        &self.params
    }

    /// Continuous-time derivatives (Eq. 14–15):
    ///
    /// * `C_b·dT_b/dt = h·(T_c − T_b) + h_amb·(T_amb − T_b) + Q_b`
    /// * `C_c·dT_c/dt = h·(T_b − T_c) + Ċ_c·(T_i − T_c)`
    pub fn derivatives(
        &self,
        state: ThermalState,
        battery_heat: Watts,
        inlet: Kelvin,
    ) -> (KelvinPerSecond, KelvinPerSecond) {
        let p = &self.params;
        let h = p.battery_coolant_conductance;
        let q_exchange: Watts = h * (state.coolant - state.battery);
        let q_ambient: Watts = p.ambient_conductance * (p.ambient_temperature - state.battery);
        let db = (q_exchange + q_ambient + battery_heat) / p.battery_heat_capacity.value();
        let q_back: Watts = h * (state.battery - state.coolant);
        let q_flow: Watts = p.coolant_flow_capacity * (inlet - state.coolant);
        let dc = (q_back + q_flow) / p.coolant_heat_capacity.value();
        (
            KelvinPerSecond::new(db.value()),
            KelvinPerSecond::new(dc.value()),
        )
    }

    /// One Crank–Nicolson (trapezoidal) step — the implicit average the
    /// paper writes in Eq. 17. The two-node system is linear in the
    /// temperatures, so the step is an affine map whose coefficients come
    /// from solving the 2×2 implicit system once per step length
    /// ([`CrankNicolsonCoefficients`]).
    ///
    /// Unconditionally stable: safe at the 1 s control period even though
    /// the coolant node's time constant is only a few seconds.
    pub fn step_crank_nicolson(
        &self,
        state: ThermalState,
        battery_heat: Watts,
        inlet: Kelvin,
        dt: Seconds,
    ) -> ThermalState {
        self.crank_nicolson_coefficients(dt)
            .step(state, battery_heat, inlet)
    }

    /// The Crank–Nicolson operator of one step length — what a rollout
    /// evaluates once and steps every horizon stage with
    /// ([`CrankNicolsonCoefficients::step`]).
    pub fn crank_nicolson_coefficients(&self, dt: Seconds) -> CrankNicolsonCoefficients {
        CrankNicolsonCoefficients::new(self.node_constants(), dt.value())
    }

    /// The kernel-facing constants of the two-node system, from which
    /// [`ThermalModel::crank_nicolson_coefficients`] builds the operator.
    pub fn node_constants(&self) -> crate::kernel::NodeConstants {
        let p = &self.params;
        crate::kernel::NodeConstants {
            cb: p.battery_heat_capacity.value(),
            cc: p.coolant_heat_capacity.value(),
            h: p.battery_coolant_conductance.value(),
            f: p.coolant_flow_capacity.value(),
            ha: p.ambient_conductance.value(),
            t_ambient: p.ambient_temperature.value(),
        }
    }

    /// Steady-state temperatures under constant heat input and inlet
    /// temperature (sets both derivatives to zero). Useful for sizing
    /// checks and tests.
    pub fn equilibrium(&self, battery_heat: Watts, inlet: Kelvin) -> ThermalState {
        let p = &self.params;
        let h = p.battery_coolant_conductance.value();
        let f = p.coolant_flow_capacity.value();
        let ha = p.ambient_conductance.value();
        let q = battery_heat.value();
        let ta = p.ambient_temperature.value();
        let ti = inlet.value();
        // 0 = h(Tc−Tb) + ha(Ta−Tb) + q
        // 0 = h(Tb−Tc) + f(Ti−Tc)
        // From the second: Tc = (h·Tb + f·Ti)/(h+f)
        // Substitute into the first and solve for Tb.
        if h + f == 0.0 {
            // Isolated battery: balance against ambient only.
            let tb = if ha > 0.0 { ta + q / ha } else { f64::INFINITY };
            return ThermalState {
                battery: Kelvin::new(tb),
                coolant: Kelvin::new(tb),
            };
        }
        let alpha = h * f / (h + f); // effective battery→inlet conductance
        let tb = (alpha * ti + ha * ta + q) / (alpha + ha);
        let tc = (h * tb + f * ti) / (h + f);
        ThermalState {
            battery: Kelvin::new(tb),
            coolant: Kelvin::new(tc),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ThermalModel {
        ThermalModel::new(ThermalParams::ev_pack()).expect("valid preset")
    }

    fn c(celsius: f64) -> Kelvin {
        Kelvin::from_celsius(celsius)
    }

    #[test]
    fn heating_raises_battery_temperature() {
        let m = model();
        let s0 = ThermalState::uniform(c(25.0));
        let s1 = m.step_crank_nicolson(s0, Watts::new(3_000.0), c(25.0), Seconds::new(60.0));
        assert!(s1.battery > s0.battery);
    }

    #[test]
    fn cold_inlet_cools_the_battery() {
        let m = model();
        let mut s = ThermalState::uniform(c(40.0));
        for _ in 0..600 {
            s = m.step_crank_nicolson(s, Watts::ZERO, c(15.0), Seconds::new(1.0));
        }
        assert!(s.battery < c(30.0), "battery stayed at {:?}", s.battery);
        assert!(s.coolant < s.battery);
    }

    #[test]
    fn converges_to_equilibrium() {
        let m = model();
        let q = Watts::new(2_000.0);
        let inlet = c(18.0);
        let eq = m.equilibrium(q, inlet);
        let mut s = ThermalState::uniform(c(25.0));
        for _ in 0..20_000 {
            s = m.step_crank_nicolson(s, q, inlet, Seconds::new(1.0));
        }
        assert!(
            (s.battery.value() - eq.battery.value()).abs() < 0.05,
            "battery {:?} vs equilibrium {:?}",
            s.battery,
            eq.battery
        );
        assert!((s.coolant.value() - eq.coolant.value()).abs() < 0.05);
    }

    #[test]
    fn equilibrium_has_zero_derivatives() {
        let m = model();
        let q = Watts::new(2_500.0);
        let inlet = c(12.0);
        let eq = m.equilibrium(q, inlet);
        let (db, dc) = m.derivatives(eq, q, inlet);
        assert!(db.value().abs() < 1e-9, "dT_b/dt = {db:?}");
        assert!(dc.value().abs() < 1e-9, "dT_c/dt = {dc:?}");
    }

    #[test]
    fn crank_nicolson_step_is_the_trapezoidal_average() {
        // Eq. 17: the step's increment is dt times the mean of the ODE's
        // right-hand side at its two ends.
        let m = model();
        let q = Watts::new(4_000.0);
        let inlet = c(10.0);
        let dt = Seconds::new(1.0);
        let s0 = ThermalState::uniform(c(30.0));
        let s1 = m.step_crank_nicolson(s0, q, inlet, dt);
        let (db0, dc0) = m.derivatives(s0, q, inlet);
        let (db1, dc1) = m.derivatives(s1, q, inlet);
        let battery = 0.5 * (db0.value() + db1.value()) * dt.value();
        let coolant = 0.5 * (dc0.value() + dc1.value()) * dt.value();
        assert!(((s1.battery - s0.battery).value() - battery).abs() < 1e-9);
        assert!(((s1.coolant - s0.coolant).value() - coolant).abs() < 1e-9);
    }

    #[test]
    fn crank_nicolson_stable_at_large_steps() {
        // Coolant time constant ≈ 4 s; an explicit step at dt = 10 s
        // would ring or blow up, CN must stay bounded and sane.
        let m = model();
        let mut s = ThermalState::uniform(c(30.0));
        for _ in 0..500 {
            s = m.step_crank_nicolson(s, Watts::new(1_000.0), c(20.0), Seconds::new(10.0));
            assert!(s.battery.value().is_finite());
            assert!((250.0..400.0).contains(&s.battery.value()));
        }
    }

    #[test]
    fn passive_pack_heats_far_above_ambient() {
        let m = ThermalModel::new(ThermalParams::ev_pack_passive()).unwrap();
        let eq = m.equilibrium(Watts::new(1_500.0), c(25.0));
        // 1.5 kW across a 100 W/K air path → 15 K above ambient; far
        // hotter than the actively cooled pack under the same load.
        assert!(eq.battery > c(39.0), "equilibrium {:?}", eq.battery);
        let cooled = ThermalModel::new(ThermalParams::ev_pack()).unwrap();
        assert!(cooled.equilibrium(Watts::new(1_500.0), c(15.0)).battery < eq.battery);
    }

    #[test]
    fn cooled_pack_holds_temperature_under_same_load() {
        let m = model();
        let eq = m.equilibrium(Watts::new(1_000.0), c(15.0));
        assert!(eq.battery < c(30.0), "equilibrium {:?}", eq.battery);
    }

    #[test]
    fn isolated_pack_equilibrium_is_ambient_balance() {
        let params = ThermalParams {
            battery_coolant_conductance: ThermalConductance::ZERO,
            coolant_flow_capacity: ThermalConductance::ZERO,
            ..ThermalParams::ev_pack()
        };
        let m = ThermalModel::new(params).unwrap();
        let eq = m.equilibrium(Watts::new(300.0), c(0.0));
        let expected = 25.0 + 300.0 / 30.0;
        assert!((eq.battery.to_celsius().value() - expected).abs() < 1e-9);
    }

    #[test]
    fn city_pack_responds_faster_than_ev_pack() {
        let big = ThermalModel::new(ThermalParams::ev_pack_passive()).unwrap();
        let small = ThermalModel::new(ThermalParams::city_pack_passive()).unwrap();
        let q = Watts::new(1_500.0);
        let mut sb = ThermalState::uniform(c(25.0));
        let mut ss = sb;
        for _ in 0..300 {
            sb = big.step_crank_nicolson(sb, q, sb.coolant, Seconds::new(1.0));
            ss = small.step_crank_nicolson(ss, q, ss.coolant, Seconds::new(1.0));
        }
        assert!(ss.battery > sb.battery, "{ss:?} vs {sb:?}");
        assert!(ThermalParams::city_pack().validate().is_ok());
        assert!(ThermalParams::city_pack_passive().validate().is_ok());
    }

    #[test]
    fn invalid_parameters_rejected() {
        let mut p = ThermalParams::ev_pack();
        p.battery_heat_capacity = HeatCapacity::new(0.0);
        assert!(ThermalModel::new(p).is_err());

        let mut p = ThermalParams::ev_pack();
        p.ambient_conductance = ThermalConductance::new(-1.0);
        assert!(ThermalModel::new(p).is_err());
    }

    #[test]
    fn with_ambient_overrides_environment() {
        let p = ThermalParams::ev_pack().with_ambient(c(35.0));
        assert_eq!(p.ambient_temperature, c(35.0));
    }

    #[test]
    fn crank_nicolson_jacobian_matches_finite_differences() {
        for params in [ThermalParams::ev_pack(), ThermalParams::city_pack()] {
            let m = ThermalModel::new(params).unwrap();
            let dt = Seconds::new(1.0);
            let jac = m.crank_nicolson_coefficients(dt).jacobian();
            let base = ThermalState {
                battery: c(33.0),
                coolant: c(29.0),
            };
            let q = Watts::new(2_200.0);
            let inlet = c(21.0);
            let step = |s: ThermalState, q: Watts, inlet: Kelvin| -> (f64, f64) {
                let next = m.step_crank_nicolson(s, q, inlet, dt);
                (next.battery.value(), next.coolant.value())
            };
            // The CN step is affine in state and inputs, so a unit
            // central difference is exact up to rounding — no truncation
            // error, no cancellation on the small heat-input slopes.
            let h = 1.0;
            let check = |analytic: [f64; 2], plus: (f64, f64), minus: (f64, f64), what: &str| {
                let fd = [
                    (plus.0 - minus.0) / (2.0 * h),
                    (plus.1 - minus.1) / (2.0 * h),
                ];
                for (a, f) in analytic.iter().zip(fd) {
                    assert!(
                        (a - f).abs() <= 1e-6 * f.abs().max(1e-9),
                        "{what}: analytic {a} vs FD {f}"
                    );
                }
            };
            let bump_b = |d: f64| ThermalState {
                battery: Kelvin::new(base.battery.value() + d),
                ..base
            };
            let bump_c = |d: f64| ThermalState {
                coolant: Kelvin::new(base.coolant.value() + d),
                ..base
            };
            check(
                [jac.d_battery[0], jac.d_coolant[0]],
                step(bump_b(h), q, inlet),
                step(bump_b(-h), q, inlet),
                "∂/∂T_b",
            );
            check(
                [jac.d_battery[1], jac.d_coolant[1]],
                step(bump_c(h), q, inlet),
                step(bump_c(-h), q, inlet),
                "∂/∂T_c",
            );
            check(
                jac.d_battery_heat,
                step(base, Watts::new(q.value() + h), inlet),
                step(base, Watts::new(q.value() - h), inlet),
                "∂/∂Q",
            );
            check(
                jac.d_inlet,
                step(base, q, Kelvin::new(inlet.value() + h)),
                step(base, q, Kelvin::new(inlet.value() - h)),
                "∂/∂T_in",
            );
        }
    }

    /// The Jacobian as it read before prepared coefficients, re-deriving
    /// the operator from the parameters.
    fn per_call_jacobian(p: &ThermalParams, dtv: f64) -> [f64; 8] {
        let cb = p.battery_heat_capacity.value();
        let cc = p.coolant_heat_capacity.value();
        let h = p.battery_coolant_conductance.value();
        let f = p.coolant_flow_capacity.value();
        let ha = p.ambient_conductance.value();
        let a11 = -(h + ha) / cb;
        let a12 = h / cb;
        let a21 = h / cc;
        let a22 = -(h + f) / cc;
        let k = dtv / 2.0;
        let m11 = 1.0 - k * a11;
        let m12 = -k * a12;
        let m21 = -k * a21;
        let m22 = 1.0 - k * a22;
        let det = m11 * m22 - m12 * m21;
        [
            ((1.0 + k * a11) * m22 - k * a21 * m12) / det,
            (k * a12 * m22 - (1.0 + k * a22) * m12) / det,
            (k * a21 * m11 - (1.0 + k * a11) * m21) / det,
            ((1.0 + k * a22) * m11 - k * a12 * m21) / det,
            (dtv / cb) * m22 / det,
            -(dtv / cb) * m21 / det,
            -(dtv * f / cc) * m12 / det,
            (dtv * f / cc) * m11 / det,
        ]
    }

    #[test]
    fn prepared_jacobian_is_bit_identical_to_the_per_call_formula() {
        for params in [
            ThermalParams::ev_pack(),
            ThermalParams::city_pack(),
            ThermalParams::ev_pack_passive(),
        ] {
            let m = ThermalModel::new(params).unwrap();
            for dt in [0.5, 1.0, 5.0] {
                let j = m.crank_nicolson_coefficients(Seconds::new(dt)).jacobian();
                let got = [
                    j.d_battery[0],
                    j.d_battery[1],
                    j.d_coolant[0],
                    j.d_coolant[1],
                    j.d_battery_heat[0],
                    j.d_battery_heat[1],
                    j.d_inlet[0],
                    j.d_inlet[1],
                ];
                assert_eq!(
                    got.map(f64::to_bits),
                    per_call_jacobian(&params, dt).map(f64::to_bits)
                );
            }
        }
    }
}
