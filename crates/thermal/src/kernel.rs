//! The Crank–Nicolson operator of the coupled battery/coolant two-node
//! system (Eq. 14–17). The update is split in two: the operator of one
//! step length ([`CrankNicolsonCoefficients`], built from the
//! [`NodeConstants`] once per step length — once per solve in the MPC)
//! and the per-state step ([`CrankNicolsonCoefficients::step`]).

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

/// The Crank–Nicolson update of one step length, with every quantity
/// that depends only on the node constants and `dt` evaluated once: the
/// system matrix `A`, the left/right-hand operators, the determinant of
/// the explicit 2×2 inverse, and the ambient forcing `h_a·T_a`. Build it
/// once per step length (the MPC builds it once per solve) and step any
/// number of states with [`CrankNicolsonCoefficients::step`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrankNicolsonCoefficients {
    /// Battery lump heat capacity `C_b` (J/K).
    pub(crate) cb: f64,
    /// Coolant lump heat capacity `C_c` (J/K).
    pub(crate) cc: f64,
    /// Coolant flow capacity `f` (W/K).
    pub(crate) f: f64,
    /// Ambient forcing `h_a·T_a` (W).
    pub(crate) ambient_forcing: f64,
    /// System matrix `A` of `dx/dt = A·x + r`, row-major.
    pub(crate) a: [[f64; 2]; 2],
    /// Step length `dt` (s).
    pub(crate) dt: f64,
    /// Half step `dt/2`.
    pub(crate) k: f64,
    /// Implicit operator `M = I − dt/2·A`, row-major.
    pub(crate) m: [[f64; 2]; 2],
    /// `det M`.
    pub(crate) det: f64,
}

impl CrankNicolsonCoefficients {
    /// Evaluates the coefficients of one step of length `dt`.
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
        Self {
            cb: n.cb,
            cc: n.cc,
            f: n.f,
            ambient_forcing: n.ha * n.t_ambient,
            a: [[a11, a12], [a21, a22]],
            dt,
            k,
            m: [[m11, m12], [m21, m22]],
            det,
        }
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

    /// The per-call step as it read before prepared coefficients: the
    /// whole operator re-derived from the node constants every step.
    fn per_call(n: NodeConstants, xb: f64, xc: f64, q: f64, inlet: f64, dt: f64) -> (f64, f64) {
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

    #[test]
    fn prepared_coefficients_step_bit_identically_to_the_per_call_formula() {
        let passive = NodeConstants {
            f: 0.0,
            ..constants()
        };
        // A deterministic spread of states and inputs, so a reassociated
        // hoist cannot round the same way on every sample by chance.
        let mut seed = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = |lo: f64, hi: f64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            lo + (hi - lo) * (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        for n in [constants(), passive] {
            for dt in [0.1, 1.0, 10.0] {
                let c = CrankNicolsonCoefficients::new(n, dt);
                for sample in 0..128 {
                    // Physical magnitudes, then near-zero ones where the
                    // forcing terms are not rounded away by the state.
                    let scale = if sample % 2 == 0 { 1.0 } else { 1e-3 };
                    let (xb, xc) = (scale * next(270.0, 320.0), scale * next(270.0, 320.0));
                    let (q, inlet) = (scale * next(-500.0, 9_000.0), scale * next(280.0, 310.0));
                    let (tb, tc) = crank_nicolson(&c, xb, xc, q, inlet);
                    let (wb, wc) = per_call(n, xb, xc, q, inlet, dt);
                    assert_eq!((tb.to_bits(), tc.to_bits()), (wb.to_bits(), wc.to_bits()));
                }
            }
        }
    }
}
