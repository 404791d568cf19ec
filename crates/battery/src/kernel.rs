//! Scalar-generic battery step math.
//!
//! The quadratic pack-current solve, the peak-power envelope, the cell
//! heat law and the coulomb counter of Eq. 1–4, written once against
//! [`otem_units::Scalar`] and monomorphised per scalar type. The concrete
//! `f64` methods on [`crate::BatteryPack`] / [`crate::Cell`] delegate
//! here — the `f64` instantiation performs the *same operations in the
//! same order* as the pre-refactor hand-written code, so delegation is
//! bit-identical (the contract the golden traces pin). The OCV and
//! resistance curves stay `f64` at the kernel boundary and are evaluated
//! once per step into a [`crate::PackCurves`]; the kernels take the
//! evaluated values, so no kernel evaluates a curve of its own.

use otem_units::Scalar;

/// Pack (or cell) current from the stable root of `P = V_oc·I − R·I²`:
/// `I = (V_oc − √(V_oc² − 4RP))/(2R)` — the low-current branch of the
/// quadratic. Returns `None` past the peak-power vertex `V_oc²/(4R)`,
/// where no real current delivers the request.
#[inline]
pub fn pack_current<S: Scalar>(voc: S, r: S, p: S) -> Option<S> {
    let discriminant = voc * voc - S::from_f64(4.0) * r * p;
    if discriminant < S::ZERO {
        return None;
    }
    Some((voc - discriminant.sqrt()) / (S::from_f64(2.0) * r))
}

/// Peak terminal power of `P = V_oc·I − R·I²` over the current, with the
/// current capped at the datasheet limit: the vertex current
/// `V_oc/(2R)` or `max_current`, whichever is smaller.
#[inline]
pub fn peak_power<S: Scalar>(voc: S, r: S, max_current: S) -> S {
    let i_peak = voc / (S::from_f64(2.0) * r);
    let i = i_peak.min(max_current);
    voc * i - r * i * i
}

/// Cell heat generation (Eq. 4): `Q = I²·R + I·T·κ` — non-negative Joule
/// term plus the sign-changing entropic term.
#[inline]
pub fn cell_heat<S: Scalar>(
    current: S,
    resistance: S,
    temperature: S,
    entropy_coefficient: S,
) -> S {
    let joule = current * current * resistance;
    let entropic = current * temperature * entropy_coefficient;
    joule + entropic
}

/// Coulomb-counter decrement for one step (Eq. 1): `ΔSoC = I·dt/C_eff`
/// against the effective capacity in coulombs. The caller subtracts and
/// clamps.
#[inline]
pub fn soc_decrement<S: Scalar>(current: S, dt: S, capacity_coulombs: S) -> S {
    current * dt / capacity_coulombs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_root_reproduces_the_request() {
        let (voc, r) = (350.0_f64, 0.06);
        let i = pack_current(voc, r, 50_000.0).expect("feasible");
        let delivered = voc * i - r * i * i;
        assert!((delivered - 50_000.0).abs() < 1e-6, "P = {delivered}");
    }

    #[test]
    fn past_the_vertex_is_none() {
        let (voc, r) = (350.0_f64, 0.06);
        let peak = voc * voc / (4.0 * r);
        assert!(pack_current(voc, r, peak * 1.01).is_none());
        assert!(pack_current(voc, r, peak * 0.99).is_some());
    }

    #[test]
    fn heat_joule_term_dominates_at_high_current() {
        let q = cell_heat(10.0_f64, 0.05, 298.15, -0.1e-3);
        let joule = 10.0 * 10.0 * 0.05;
        assert!((q - joule).abs() / joule < 0.2, "Q = {q}");
    }

    #[cfg(feature = "f32")]
    #[test]
    fn f32_lanes_track_f64_within_single_precision() {
        let wide = pack_current(350.0_f64, 0.06, 50_000.0).unwrap();
        let narrow = pack_current(350.0_f32, 0.06, 50_000.0).unwrap() as f64;
        assert!((wide - narrow).abs() < 1e-3 * wide, "{wide} vs {narrow}");
    }
}
