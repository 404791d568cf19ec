//! The Crank–Nicolson operator of the coupled battery/coolant two-node
//! system (Eq. 14–17). The update is split in two: the operator of one
//! step length ([`CrankNicolsonCoefficients`], built from the
//! [`NodeConstants`] once per step length — once per solve in the MPC)
//! and the per-state step ([`CrankNicolsonCoefficients::step`]).
//!
//! The two-node system is linear, so one step is an affine map of the
//! prior state and the two inputs. [`CrankNicolsonCoefficients::new`]
//! solves the 2×2 implicit system once, for the map's coefficients, and
//! the step evaluates the map: four products and four sums a node, with
//! no division. The same coefficients are the step's exact Jacobian
//! ([`CrankNicolsonCoefficients::jacobian`]), so the plant, the MPC
//! rollout and the adjoint sweep all read one set of numbers.

use crate::ThermalState;
use otem_units::{Kelvin, Watts};

/// The physical constants of the two-node system, pre-extracted from
/// `ThermalParams` — the input of [`CrankNicolsonCoefficients::new`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeConstants {
    /// Battery lump heat capacity `C_b` (J/K).
    pub cb: f64,
    /// Coolant lump heat capacity `C_c` (J/K).
    pub cc: f64,
    /// Battery↔coolant conductance `h` (W/K).
    pub h: f64,
    /// Coolant flow capacity `f = ṁ·c_p` (W/K).
    pub f: f64,
    /// Battery↔ambient conductance `h_a` (W/K).
    pub ha: f64,
    /// Ambient temperature `T_a` (K).
    pub t_ambient: f64,
}

/// Exact sensitivities of one Crank–Nicolson step. Because the two-node
/// model is linear in its state and inputs, these depend only on the
/// parameters and the step length — constants reused across a whole MPC
/// horizon by the adjoint backward sweep, and the coefficients the step
/// itself is evaluated with.
///
/// Produced by [`CrankNicolsonCoefficients::jacobian`]. Row arrays are
/// ordered `[∂·/∂T_b, ∂·/∂T_c]` (state rows) or `[∂T_b⁺/∂u, ∂T_c⁺/∂u]`
/// (input rows).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrankNicolsonJacobian {
    /// `[∂T_b⁺/∂T_b, ∂T_b⁺/∂T_c]` — next battery temperature in the
    /// prior state.
    pub d_battery: [f64; 2],
    /// `[∂T_c⁺/∂T_b, ∂T_c⁺/∂T_c]` — next coolant temperature in the
    /// prior state.
    pub d_coolant: [f64; 2],
    /// `[∂T_b⁺/∂Q, ∂T_c⁺/∂Q]` — both next temperatures in the battery
    /// heat input.
    pub d_battery_heat: [f64; 2],
    /// `[∂T_b⁺/∂T_in, ∂T_c⁺/∂T_in]` — both next temperatures in the
    /// coolant inlet temperature.
    pub d_inlet: [f64; 2],
}

/// The Crank–Nicolson update of one step length as the affine map
/// `x⁺ = J_x·x + J_Q·Q + J_in·T_in + c`: the 2×2 state matrix, the heat
/// and inlet columns ([`CrankNicolsonJacobian`]) and the ambient offset
/// `c`, all evaluated once from the node constants and `dt`. Build it
/// once per step length (the MPC builds it once per solve) and step any
/// number of states with [`CrankNicolsonCoefficients::step`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrankNicolsonCoefficients {
    /// The map's linear part — the step's Jacobian.
    map: CrankNicolsonJacobian,
    /// `[T_b⁺, T_c⁺]` at zero state, heat and inlet: the response to the
    /// ambient forcing `h_a·T_a` alone (K).
    offset: [f64; 2],
}

impl CrankNicolsonCoefficients {
    /// Evaluates the affine map of one step of length `dt`. With
    /// `dx/dt = A·x + r`, the step `(I − dt/2·A)·x⁺ = (I + dt/2·A)·x +
    /// dt·r` is solved once here by the explicit 2×2 inverse of
    /// `M = I − dt/2·A`, column by column: the state columns of
    /// `M⁻¹·(I + dt/2·A)`, and the columns through which the heat `Q`
    /// (in `r₁ = (Q + h_a·T_a)/C_b`) and the inlet (in `r₂ = f·T_in/C_c`)
    /// enter. The ambient forcing enters `r₁` exactly as `Q` does, so the
    /// offset is the heat column times `h_a·T_a`.
    #[inline]
    pub fn new(n: NodeConstants, dt: f64) -> Self {
        let a11 = -(n.h + n.ha) / n.cb;
        let a12 = n.h / n.cb;
        let a21 = n.h / n.cc;
        let a22 = -(n.h + n.f) / n.cc;
        let k = dt / 2.0;
        let m11 = 1.0 - k * a11;
        let m12 = -(k * a12);
        let m21 = -(k * a21);
        let m22 = 1.0 - k * a22;
        let det = m11 * m22 - m12 * m21;
        debug_assert!(det.abs() > 1e-12, "CN system became singular");
        let map = CrankNicolsonJacobian {
            d_battery: [
                ((1.0 + k * a11) * m22 - k * a21 * m12) / det,
                (k * a12 * m22 - (1.0 + k * a22) * m12) / det,
            ],
            d_coolant: [
                (k * a21 * m11 - (1.0 + k * a11) * m21) / det,
                ((1.0 + k * a22) * m11 - k * a12 * m21) / det,
            ],
            d_battery_heat: [(dt / n.cb) * m22 / det, -(dt / n.cb) * m21 / det],
            d_inlet: [
                -(dt * n.f / n.cc) * m12 / det,
                (dt * n.f / n.cc) * m11 / det,
            ],
        };
        let ambient_forcing = n.ha * n.t_ambient;
        Self {
            map,
            offset: map.d_battery_heat.map(|column| column * ambient_forcing),
        }
    }

    /// One Crank–Nicolson step of `x = [T_b, T_c]` under these
    /// coefficients — the body of
    /// [`crate::ThermalModel::step_crank_nicolson`]: the affine map
    /// evaluated at the prior state, the battery heat and the inlet.
    #[inline]
    pub fn step(&self, state: ThermalState, battery_heat: Watts, inlet: Kelvin) -> ThermalState {
        let (xb, xc) = (state.battery.value(), state.coolant.value());
        let (q, ti) = (battery_heat.value(), inlet.value());
        let j = &self.map;
        ThermalState {
            battery: Kelvin::new(
                j.d_battery[0] * xb
                    + j.d_battery[1] * xc
                    + j.d_battery_heat[0] * q
                    + j.d_inlet[0] * ti
                    + self.offset[0],
            ),
            coolant: Kelvin::new(
                j.d_coolant[0] * xb
                    + j.d_coolant[1] * xc
                    + j.d_battery_heat[1] * q
                    + j.d_inlet[1] * ti
                    + self.offset[1],
            ),
        }
    }

    /// The exact Jacobian of [`CrankNicolsonCoefficients::step`]: the
    /// linear part of the map the step evaluates, coefficient for
    /// coefficient.
    #[inline]
    pub fn jacobian(&self) -> CrankNicolsonJacobian {
        self.map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThermalState;
    use otem_units::{Kelvin, Watts};

    /// One step on raw temperatures through [`CrankNicolsonCoefficients::step`].
    fn crank_nicolson(
        c: &CrankNicolsonCoefficients,
        xb: f64,
        xc: f64,
        battery_heat: f64,
        inlet: f64,
    ) -> (f64, f64) {
        let state = ThermalState {
            battery: Kelvin::new(xb),
            coolant: Kelvin::new(xc),
        };
        let next = c.step(state, Watts::new(battery_heat), Kelvin::new(inlet));
        (next.battery.value(), next.coolant.value())
    }

    fn constants() -> NodeConstants {
        NodeConstants {
            cb: 2.0e5,
            cc: 2.0e4,
            h: 500.0,
            f: 350.0,
            ha: 15.0,
            t_ambient: 298.15,
        }
    }

    #[test]
    fn heating_raises_the_battery_node() {
        let c = CrankNicolsonCoefficients::new(constants(), 1.0);
        let (tb, tc) = crank_nicolson(&c, 298.15, 298.15, 2_000.0, 288.15);
        assert!(tb > 298.15, "T_b = {tb}");
        assert!(tc < 298.15, "cold inlet pulls the coolant node down");
    }

    #[test]
    fn zero_step_is_identity() {
        let c = CrankNicolsonCoefficients::new(constants(), 0.0);
        let (tb, tc) = crank_nicolson(&c, 305.0, 300.0, 5_000.0, 290.0);
        assert_eq!(tb, 305.0);
        assert_eq!(tc, 300.0);
    }

    /// The test oracle: one Crank–Nicolson step solved from the node
    /// constants by the explicit 2×2 inverse, `x⁺ = M⁻¹·((I + k·A)·x +
    /// dt·r)`, re-deriving the whole operator on every call.
    fn explicit_solve(
        n: NodeConstants,
        xb: f64,
        xc: f64,
        q: f64,
        inlet: f64,
        dt: f64,
    ) -> (f64, f64) {
        let a11 = -(n.h + n.ha) / n.cb;
        let a12 = n.h / n.cb;
        let a21 = n.h / n.cc;
        let a22 = -(n.h + n.f) / n.cc;
        let r1 = (q + n.ha * n.t_ambient) / n.cb;
        let r2 = n.f * inlet / n.cc;
        let k = dt / 2.0;
        let m11 = 1.0 - k * a11;
        let m12 = -(k * a12);
        let m21 = -(k * a21);
        let m22 = 1.0 - k * a22;
        let b1 = xb + k * (a11 * xb + a12 * xc) + dt * r1;
        let b2 = xc + k * (a21 * xb + a22 * xc) + dt * r2;
        let det = m11 * m22 - m12 * m21;
        ((b1 * m22 - b2 * m12) / det, (b2 * m11 - b1 * m21) / det)
    }

    /// Every thermal preset's node constants, and the hand-built set
    /// above.
    fn presets() -> Vec<NodeConstants> {
        use crate::{ThermalModel, ThermalParams};
        [
            ThermalParams::ev_pack(),
            ThermalParams::ev_pack_passive(),
            ThermalParams::city_pack(),
            ThermalParams::city_pack_passive(),
        ]
        .into_iter()
        .map(|p| ThermalModel::new(p).expect("valid preset").node_constants())
        .chain([constants()])
        .collect()
    }

    /// The affine step agrees with the explicit solve to within
    /// `STEP_ULP` ulp of the result over a grid of states, heats and
    /// inlets, on every preset, at the 1 s control period the simulator
    /// and the MPC build and at the 0.05–10 s steps the tests build. The
    /// two round differently — the map's coefficients are themselves
    /// rounded quotients, the oracle divides every step — so the bound
    /// is a few ulp, not zero (measured worst: 3.2 ulp).
    #[test]
    fn step_matches_the_explicit_2x2_solve_to_a_few_ulp() {
        const STEP_ULP: f64 = 4.0;
        for n in presets() {
            for dt in [0.05, 0.5, 1.0, 10.0] {
                let c = CrankNicolsonCoefficients::new(n, dt);
                for xb in [253.15, 288.15, 298.15, 308.15, 318.15, 333.15] {
                    for xc in [253.15, 290.0, 301.3, 318.15, 333.15] {
                        for q in [-800.0, 0.0, 45.5, 2_000.0, 9_000.0, 25_000.0] {
                            for inlet in [275.0, 291.7, 303.15, 320.0] {
                                let got = crank_nicolson(&c, xb, xc, q, inlet);
                                let want = explicit_solve(n, xb, xc, q, inlet, dt);
                                for (g, w) in [(got.0, want.0), (got.1, want.1)] {
                                    let ulps = (g - w).abs() / (f64::EPSILON * w.abs());
                                    assert!(
                                        ulps <= STEP_ULP,
                                        "dt {dt}, ({xb}, {xc}), Q {q}, T_in {inlet}: \
                                         {g} vs {w} ({ulps} ulp)"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// The step evaluates exactly the coefficients `jacobian()` reports:
    /// with no ambient forcing the map has no offset, so stepping a unit
    /// state or input from zero returns one column of the Jacobian bit
    /// for bit; with it, the zero-input step is the heat column times
    /// `h_a·T_a`.
    #[test]
    fn jacobian_is_the_map_the_step_evaluates() {
        for n in presets() {
            for dt in [0.05, 1.0, 10.0] {
                let j = CrankNicolsonCoefficients::new(n, dt).jacobian();
                let forcing = n.ha * n.t_ambient;
                let at_zero =
                    crank_nicolson(&CrankNicolsonCoefficients::new(n, dt), 0.0, 0.0, 0.0, 0.0);
                assert_eq!(
                    [at_zero.0, at_zero.1].map(f64::to_bits),
                    j.d_battery_heat.map(|col| (col * forcing).to_bits())
                );
                let free = NodeConstants { ha: 0.0, ..n };
                let c = CrankNicolsonCoefficients::new(free, dt);
                let j = c.jacobian();
                let columns = [
                    (
                        crank_nicolson(&c, 1.0, 0.0, 0.0, 0.0),
                        [j.d_battery[0], j.d_coolant[0]],
                    ),
                    (
                        crank_nicolson(&c, 0.0, 1.0, 0.0, 0.0),
                        [j.d_battery[1], j.d_coolant[1]],
                    ),
                    (crank_nicolson(&c, 0.0, 0.0, 1.0, 0.0), j.d_battery_heat),
                    (crank_nicolson(&c, 0.0, 0.0, 0.0, 1.0), j.d_inlet),
                ];
                for ((b, c), column) in columns {
                    assert_eq!([b, c].map(f64::to_bits), column.map(f64::to_bits));
                }
            }
        }
    }
}
