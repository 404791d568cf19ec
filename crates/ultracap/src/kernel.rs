//! Scalar-generic ultracapacitor step math.
//!
//! The voltage-swing law, the current solve and the SoE integral of
//! Eq. 7–9, written once against [`otem_units::Scalar`] and monomorphised
//! per scalar type. The concrete `f64` methods on [`crate::UltracapBank`]
//! delegate here — the `f64` instantiation performs the *same operations
//! in the same order* as the pre-refactor hand-written code, so delegation
//! is bit-identical (the contract the golden traces pin). The
//! self-discharge factor is its own kernel ([`leak_factor`]) because it
//! depends only on the step length: a rollout evaluates it once and
//! passes it to every [`soe_after_step`].

use otem_units::Scalar;

/// Open-circuit bank voltage (Eq. 8): `V_cap = V_r·√SoE`.
#[inline]
pub fn bank_voltage<S: Scalar>(rated_voltage: S, soe: S) -> S {
    rated_voltage * soe.sqrt()
}

/// Bank current for a terminal power request `p` at voltage `v` (Eq. 7).
/// With zero series resistance the current is `P/V`, with the denominator
/// floored at 5 % of rated voltage so a depleted bank accepting charge
/// stays non-singular. With resistance, the stable root of
/// `P = V·I − R·I²`; `None` past the vertex `V²/(4R)`.
#[inline]
pub fn bank_current<S: Scalar>(p: S, v: S, r: S, rated_voltage: S) -> Option<S> {
    if r == S::ZERO {
        return Some(p / v.max(S::from_f64(0.05) * rated_voltage));
    }
    let disc = v * v - S::from_f64(4.0) * r * p;
    if disc < S::ZERO {
        return None;
    }
    Some((v - disc.sqrt()) / (S::from_f64(2.0) * r))
}

/// Self-discharge factor of one step: `e^{−dt/τ}`. A constant of the
/// step length, so a rollout evaluates it once and passes it to every
/// [`soe_after_step`].
#[inline]
pub fn leak_factor<S: Scalar>(dt: S, leakage_time_constant: S) -> S {
    (-dt / leakage_time_constant).exp()
}

/// One SoE integration step (Eq. 9) including the self-discharge leak:
/// `SoE⁺ = (SoE − P_int·dt/E_cap) · leak` with `leak` from
/// [`leak_factor`]. The caller clamps to `[0, 1]`.
#[inline]
pub fn soe_after_step<S: Scalar>(
    soe: S,
    internal_power: S,
    dt: S,
    energy_capacity: S,
    leak: S,
) -> S {
    let delta = internal_power * dt / energy_capacity;
    (soe - delta) * leak
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn voltage_follows_square_root() {
        assert!((bank_voltage(16.0_f64, 0.25) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn resistive_root_reproduces_the_request() {
        let (v, r) = (14.0_f64, 2.0e-4);
        let i = bank_current(10_000.0, v, r, 16.0).expect("feasible");
        assert!((v * i - r * i * i - 10_000.0).abs() < 1e-6);
    }

    #[test]
    fn depleted_bank_charge_is_floored_not_singular() {
        let i = bank_current(-1_000.0_f64, 0.0, 0.0, 16.0).expect("floored");
        assert!(i.is_finite() && i < 0.0);
    }

    #[test]
    fn leak_discounts_the_integral() {
        let next = soe_after_step(
            0.8_f64,
            0.0,
            3600.0,
            1.0e6,
            leak_factor(3600.0, 40.0 * 3600.0),
        );
        assert!((next - 0.8 * (-1.0_f64 / 40.0).exp()).abs() < 1e-12);
    }

    #[cfg(feature = "f32")]
    #[test]
    fn f32_lanes_track_f64_within_single_precision() {
        let wide = bank_current(10_000.0_f64, 14.0, 2.0e-4, 16.0).unwrap();
        let narrow = bank_current(10_000.0_f32, 14.0, 2.0e-4, 16.0).unwrap() as f64;
        assert!(
            (wide - narrow).abs() < 1e-3 * wide.abs(),
            "{wide} vs {narrow}"
        );
    }
}
