//! Battery step math shared by [`crate::Cell`] and [`crate::BatteryPack`]:
//! the peak-power envelope and the cell heat law (Eq. 4). The OCV and
//! resistance curves are evaluated by the caller (once per step, into a
//! [`crate::PackCurves`] on the pack path), so neither function
//! evaluates a curve of its own.

/// Peak terminal power of `P = V_oc·I − R·I²` over the current, with the
/// current capped at the datasheet limit: the vertex current
/// `V_oc/(2R)` or `max_current`, whichever is smaller.
#[inline]
pub(crate) fn peak_power(voc: f64, r: f64, max_current: f64) -> f64 {
    let i_peak = voc / (2.0 * r);
    let i = i_peak.min(max_current);
    voc * i - r * i * i
}

/// Cell heat generation (Eq. 4): `Q = I²·R + I·T·κ` — non-negative Joule
/// term plus the sign-changing entropic term.
#[inline]
pub(crate) fn cell_heat(
    current: f64,
    resistance: f64,
    temperature: f64,
    entropy_coefficient: f64,
) -> f64 {
    let joule = current * current * resistance;
    let entropic = current * temperature * entropy_coefficient;
    joule + entropic
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heat_joule_term_dominates_at_high_current() {
        let q = cell_heat(10.0, 0.05, 298.15, -0.1e-3);
        let joule = 10.0 * 10.0 * 0.05;
        assert!((q - joule).abs() / joule < 0.2, "Q = {q}");
    }
}
