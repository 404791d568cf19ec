//! Cell parameter sets: the empirical coefficients of paper Eq. 2–5.

use crate::aging::AgingParams;
use crate::error::BatteryError;
use otem_units::{AmpHours, HeatCapacity, Kelvin, Ohms, Ratio, Volts};
use serde::{Deserialize, Serialize};

/// Coefficients of the open-circuit-voltage fit, paper Eq. 2:
///
/// `V_oc(s) = v1·e^(v2·s) + v3·s⁴ + v4·s³ + v5·s² + v6·s + v7`
///
/// with the state of charge `s` as a fraction in `[0, 1]`.
///
/// The default coefficients are the Chen & Rincón-Mora Li-ion fit mapped
/// onto the paper's functional form (the paper cites the Panasonic
/// NCR18650A datasheet for its own fit, which is not published; see
/// DESIGN.md §3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OcvCurve {
    /// Exponential amplitude `v1` (V).
    pub v1: f64,
    /// Exponential rate `v2` (1/SoC).
    pub v2: f64,
    /// Quartic coefficient `v3` (V).
    pub v3: f64,
    /// Cubic coefficient `v4` (V).
    pub v4: f64,
    /// Quadratic coefficient `v5` (V).
    pub v5: f64,
    /// Linear coefficient `v6` (V).
    pub v6: f64,
    /// Constant `v7` (V).
    pub v7: f64,
}

impl OcvCurve {
    /// Chen & Rincón-Mora (2006) fit for a Li-ion cell.
    pub const fn chen_rincon_mora() -> Self {
        Self {
            v1: -1.031,
            v2: -35.0,
            v3: 0.0,
            v4: 0.3201,
            v5: -0.1178,
            v6: 0.2156,
            v7: 3.685,
        }
    }

    /// Evaluates `V_oc` at the given state of charge.
    #[inline]
    pub fn voltage(&self, soc: Ratio) -> Volts {
        self.voltage_and_exponential(soc).0
    }

    /// [`OcvCurve::voltage`] together with its one exponential
    /// `e^(v2·s)`, so [`OcvCurve::slope_from_exponential`] can price the
    /// slope later without evaluating it again. The voltage is
    /// [`OcvCurve::voltage`]'s, bit for bit.
    #[inline]
    pub fn voltage_and_exponential(&self, soc: Ratio) -> (Volts, f64) {
        let s = soc.value();
        let s2 = s * s;
        let e = (self.v2 * s).exp();
        let v = self.v1 * e
            + self.v3 * s2 * s2
            + self.v4 * s2 * s
            + self.v5 * s2
            + self.v6 * s
            + self.v7;
        (Volts::new(v), e)
    }

    /// `dV_oc/dSoC` at `soc`, from the exponential
    /// [`OcvCurve::voltage_and_exponential`] returned for the same state
    /// of charge.
    #[inline]
    pub fn slope_from_exponential(&self, soc: Ratio, exponential: f64) -> f64 {
        let s = soc.value();
        let s2 = s * s;
        self.v1 * self.v2 * exponential
            + 4.0 * self.v3 * s2 * s
            + 3.0 * self.v4 * s2
            + 2.0 * self.v5 * s
            + self.v6
    }
}

impl Default for OcvCurve {
    fn default() -> Self {
        Self::chen_rincon_mora()
    }
}

/// Coefficients of the internal-resistance fit, paper Eq. 3, extended with
/// the Arrhenius temperature factor the paper describes qualitatively
/// ("elevated battery temperature improves the energy production by
/// lowering the internal resistance"):
///
/// `R(s, T) = (r1·e^(r2·s) + r3) · e^(k_t·(1/T − 1/T_ref))`
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResistanceCurve {
    /// Exponential amplitude `r1` (Ω).
    pub r1: f64,
    /// Exponential rate `r2` (1/SoC).
    pub r2: f64,
    /// Resistance floor `r3` (Ω).
    pub r3: f64,
    /// Arrhenius temperature-sensitivity constant `k_t` (K). Positive
    /// values make resistance fall as temperature rises.
    pub temperature_sensitivity: f64,
    /// Reference temperature for the fit (the datasheet's 25 °C).
    pub reference_temperature: Kelvin,
}

impl ResistanceCurve {
    /// Chen & Rincón-Mora series-resistance fit with a moderate Arrhenius
    /// temperature factor (≈ −2 %/K near 25 °C).
    pub fn chen_rincon_mora() -> Self {
        Self {
            r1: 0.1562,
            r2: -24.37,
            r3: 0.074_46,
            temperature_sensitivity: 2000.0,
            reference_temperature: Kelvin::from_celsius(25.0),
        }
    }

    /// Evaluates the internal resistance at the given state of charge and
    /// cell temperature.
    #[inline]
    pub fn resistance(&self, soc: Ratio, temperature: Kelvin) -> Ohms {
        self.resistance_and_exponentials(soc, temperature).0
    }

    /// [`ResistanceCurve::resistance`] together with its two
    /// exponentials, the state-of-charge term `e^(r2·s)` and the
    /// Arrhenius factor, so [`ResistanceCurve::slopes_from_exponentials`]
    /// can price the slopes later without evaluating them again. The
    /// resistance is [`ResistanceCurve::resistance`]'s, bit for bit.
    #[inline]
    pub fn resistance_and_exponentials(&self, soc: Ratio, temperature: Kelvin) -> (Ohms, f64, f64) {
        let s = soc.value();
        let e = (self.r2 * s).exp();
        let base = self.r1 * e + self.r3;
        let t = temperature.value().max(200.0);
        let factor = (self.temperature_sensitivity
            * (1.0 / t - 1.0 / self.reference_temperature.value()))
        .exp();
        (Ohms::new(base * factor), e, factor)
    }

    /// `(∂R/∂SoC, ∂R/∂T)` at `temperature`, from the exponentials
    /// [`ResistanceCurve::resistance_and_exponentials`] returned for the
    /// same operating point. Below the 200 K evaluation floor the
    /// temperature partial is zero (the clamp is active).
    #[inline]
    pub fn slopes_from_exponentials(
        &self,
        temperature: Kelvin,
        exponential: f64,
        factor: f64,
    ) -> (f64, f64) {
        let base = self.r1 * exponential + self.r3;
        let t = temperature.value().max(200.0);
        let d_soc = self.r1 * self.r2 * exponential * factor;
        let d_temp = if temperature.value() > 200.0 {
            base * factor * (-self.temperature_sensitivity / (t * t))
        } else {
            0.0
        };
        (d_soc, d_temp)
    }
}

impl Default for ResistanceCurve {
    fn default() -> Self {
        Self::chen_rincon_mora()
    }
}

/// A sampled one-dimensional curve with every segment's interpolation
/// slope precomputed at construction: knot `i` stores `(x, y, dy/dx)`
/// where `dy/dx` is the slope of the segment starting at that knot.
///
/// A lookup is then one fused multiply `y + dy/dx·(q − x)` instead of
/// re-deriving `(y₁ − y₀)/(x₁ − x₀)` on every call — the form both the
/// forward rollout and the adjoint backward pass want, since the adjoint
/// needs exactly the segment slope the forward interpolation used.
/// Tabulated `V_oc(SoC)` / `R(SoC, T)` curves (e.g. from datasheet
/// points rather than the analytic fits) plug into the same discipline
/// the analytic paths get from [`OcvCurve::slope_from_exponential`] /
/// [`ResistanceCurve::slopes_from_exponentials`]: the slope is read from
/// what the value evaluation already computed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlopeTable {
    /// First knot abscissa.
    x0: f64,
    /// Uniform knot spacing.
    step: f64,
    /// `(x, y, dy/dx)` per knot; the last knot's slope repeats the one
    /// before it so clamped lookups past the end stay well-defined.
    knots: Vec<(f64, f64, f64)>,
}

impl SlopeTable {
    /// Tabulates `f` on `segments + 1` uniform knots over `[lo, hi]`,
    /// precomputing each segment's slope. Panics on a degenerate range
    /// or zero segments.
    pub fn from_fn(lo: f64, hi: f64, segments: usize, f: impl Fn(f64) -> f64) -> Self {
        assert!(segments > 0, "SlopeTable needs at least one segment");
        assert!(hi > lo, "SlopeTable range must be non-empty");
        let step = (hi - lo) / segments as f64;
        let xs: Vec<f64> = (0..=segments).map(|i| lo + step * i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| f(x)).collect();
        let knots = (0..=segments)
            .map(|i| {
                let j = i.min(segments - 1); // last knot repeats prior slope
                let slope = (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j]);
                (xs[i], ys[i], slope)
            })
            .collect();
        Self {
            x0: lo,
            step,
            knots,
        }
    }

    /// Interpolated value at `q` (clamped to the tabulated range): one
    /// fused multiply off the precomputed knot.
    #[inline]
    pub fn eval(&self, q: f64) -> f64 {
        let (x, y, slope) = self.knot_for(q);
        y + slope * (q - x)
    }

    /// Interpolated value and the active segment's slope — the pair the
    /// adjoint backward pass consumes.
    #[inline]
    pub fn eval_with_slope(&self, q: f64) -> (f64, f64) {
        let (x, y, slope) = self.knot_for(q);
        (y + slope * (q - x), slope)
    }

    #[inline]
    fn knot_for(&self, q: f64) -> (f64, f64, f64) {
        let segments = self.knots.len() - 1;
        let idx = ((q - self.x0) / self.step)
            .floor()
            .clamp(0.0, (segments - 1) as f64) as usize;
        self.knots[idx]
    }
}

/// Full parameter set for one Li-ion cell: electrical fits (Eq. 2–3),
/// thermal constants (Eq. 4 and the lumped heat capacity of Eq. 14) and
/// aging coefficients (Eq. 5).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellParams {
    /// Rated capacity at nominal discharge rate (paper `C_bat`).
    pub capacity: AmpHours,
    /// Open-circuit-voltage fit.
    pub ocv: OcvCurve,
    /// Internal-resistance fit.
    pub resistance: ResistanceCurve,
    /// Entropic heat coefficient `dV_oc/dT` (V/K), paper Eq. 4. Typically
    /// a fraction of a millivolt per kelvin and negative at high SoC.
    pub entropy_coefficient: f64,
    /// Lumped heat capacity of one cell (paper `C_b`), J/K. An 18650 cell
    /// weighs ≈ 45 g with c_p ≈ 900 J/(kg·K) → ≈ 40 J/K.
    pub heat_capacity: HeatCapacity,
    /// Aging (capacity-loss) coefficients.
    pub aging: AgingParams,
    /// Maximum continuous cell discharge current (datasheet limit).
    pub max_discharge_current: f64,
}

impl CellParams {
    /// Parameters approximating the Panasonic NCR18650A cell the paper's
    /// reference EV (Tesla Model S) uses: 3.1 Ah, 3.6 V nominal.
    pub fn ncr18650a() -> Self {
        Self {
            capacity: AmpHours::new(3.1),
            ocv: OcvCurve::chen_rincon_mora(),
            resistance: ResistanceCurve::chen_rincon_mora(),
            entropy_coefficient: -1.0e-4,
            heat_capacity: HeatCapacity::new(40.0),
            aging: AgingParams::default(),
            max_discharge_current: 6.2, // 2C continuous
        }
    }

    /// Validates physical plausibility of the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`BatteryError::InvalidParameter`] when the capacity, heat
    /// capacity or current limit is non-positive, or the OCV fit produces
    /// a non-positive voltage anywhere on `[0, 1]`.
    pub fn validate(&self) -> Result<(), BatteryError> {
        if self.capacity.value() <= 0.0 {
            return Err(BatteryError::InvalidParameter {
                name: "capacity",
                value: self.capacity.value(),
                constraint: "> 0 Ah",
            });
        }
        if self.heat_capacity.value() <= 0.0 {
            return Err(BatteryError::InvalidParameter {
                name: "heat_capacity",
                value: self.heat_capacity.value(),
                constraint: "> 0 J/K",
            });
        }
        if self.max_discharge_current <= 0.0 {
            return Err(BatteryError::InvalidParameter {
                name: "max_discharge_current",
                value: self.max_discharge_current,
                constraint: "> 0 A",
            });
        }
        for i in 0..=20 {
            let soc = Ratio::new(i as f64 / 20.0);
            let v = self.ocv.voltage(soc);
            if !v.is_finite() || v.value() <= 0.0 {
                return Err(BatteryError::InvalidParameter {
                    name: "ocv",
                    value: v.value(),
                    constraint: "V_oc(soc) > 0 on [0, 1]",
                });
            }
        }
        self.aging.validate()?;
        Ok(())
    }
}

impl Default for CellParams {
    fn default() -> Self {
        Self::ncr18650a()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ocv_is_monotonic_in_soc() {
        let ocv = OcvCurve::default();
        let mut prev = ocv.voltage(Ratio::ZERO);
        for i in 1..=100 {
            let v = ocv.voltage(Ratio::new(i as f64 / 100.0));
            assert!(
                v > prev,
                "OCV must rise with SoC: V({i}) = {v:?} <= {prev:?}"
            );
            prev = v;
        }
    }

    #[test]
    fn ocv_spans_li_ion_voltage_window() {
        let ocv = OcvCurve::default();
        let empty = ocv.voltage(Ratio::ZERO).value();
        let full = ocv.voltage(Ratio::ONE).value();
        assert!((2.5..3.0).contains(&empty), "empty-cell OCV {empty}");
        assert!((4.0..4.3).contains(&full), "full-cell OCV {full}");
    }

    #[test]
    fn resistance_falls_with_temperature() {
        let r = ResistanceCurve::default();
        let soc = Ratio::HALF;
        let cold = r.resistance(soc, Kelvin::from_celsius(0.0));
        let warm = r.resistance(soc, Kelvin::from_celsius(25.0));
        let hot = r.resistance(soc, Kelvin::from_celsius(45.0));
        assert!(cold > warm, "{cold:?} vs {warm:?}");
        assert!(warm > hot, "{warm:?} vs {hot:?}");
    }

    #[test]
    fn resistance_rises_at_low_soc() {
        let r = ResistanceCurve::default();
        let t = Kelvin::from_celsius(25.0);
        assert!(r.resistance(Ratio::new(0.02), t) > r.resistance(Ratio::new(0.5), t));
    }

    #[test]
    fn resistance_at_reference_temperature_matches_fit() {
        let r = ResistanceCurve::default();
        let got = r.resistance(Ratio::ONE, Kelvin::from_celsius(25.0)).value();
        // At SoC = 1 the exponential term is negligible.
        assert!((got - 0.074_46).abs() < 1e-4, "{got}");
    }

    #[test]
    fn ncr18650a_validates() {
        CellParams::ncr18650a().validate().expect("valid preset");
    }

    #[test]
    fn negative_capacity_rejected() {
        let mut p = CellParams::ncr18650a();
        p.capacity = AmpHours::new(-3.0);
        assert!(matches!(
            p.validate(),
            Err(BatteryError::InvalidParameter {
                name: "capacity",
                ..
            })
        ));
    }

    #[test]
    fn broken_ocv_rejected() {
        let mut p = CellParams::ncr18650a();
        p.ocv.v7 = -10.0; // drives OCV negative
        assert!(matches!(
            p.validate(),
            Err(BatteryError::InvalidParameter { name: "ocv", .. })
        ));
    }

    #[test]
    fn default_matches_named_preset() {
        assert_eq!(CellParams::default(), CellParams::ncr18650a());
        assert_eq!(OcvCurve::default(), OcvCurve::chen_rincon_mora());
    }

    #[test]
    fn fused_voltage_slope_is_bit_identical_and_matches_fd() {
        let ocv = OcvCurve::default();
        for i in 0..=200 {
            let soc = Ratio::new(i as f64 / 200.0);
            let (v, e) = ocv.voltage_and_exponential(soc);
            let slope = ocv.slope_from_exponential(soc, e);
            assert_eq!(
                v.value().to_bits(),
                ocv.voltage(soc).value().to_bits(),
                "fused voltage diverged at SoC {soc:?}"
            );
            let h = 1e-7;
            let s = soc.value().clamp(h, 1.0 - h);
            let fd = (ocv.voltage(Ratio::new(s + h)).value()
                - ocv.voltage(Ratio::new(s - h)).value())
                / (2.0 * h);
            let (_, e_mid) = ocv.voltage_and_exponential(Ratio::new(s));
            let slope_mid = ocv.slope_from_exponential(Ratio::new(s), e_mid);
            assert!(
                (slope_mid - fd).abs() <= 1e-5 * fd.abs().max(1.0),
                "slope {slope_mid} vs FD {fd} at SoC {s}; boundary slope {slope}"
            );
        }
    }

    #[test]
    fn fused_resistance_slopes_are_bit_identical_and_match_fd() {
        let r = ResistanceCurve::default();
        for i in 0..=20 {
            let soc = Ratio::new(0.02 + 0.96 * i as f64 / 20.0);
            for celsius in [-10.0, 5.0, 25.0, 45.0] {
                let t = Kelvin::from_celsius(celsius);
                let (ohms, e, factor) = r.resistance_and_exponentials(soc, t);
                let (d_soc, d_temp) = r.slopes_from_exponentials(t, e, factor);
                assert_eq!(
                    ohms.value().to_bits(),
                    r.resistance(soc, t).value().to_bits(),
                    "fused resistance diverged at SoC {soc:?}, T {t:?}"
                );
                let h = 1e-6;
                let fd_soc = (r.resistance(Ratio::new(soc.value() + h), t).value()
                    - r.resistance(Ratio::new(soc.value() - h), t).value())
                    / (2.0 * h);
                let fd_temp = (r.resistance(soc, Kelvin::new(t.value() + h)).value()
                    - r.resistance(soc, Kelvin::new(t.value() - h)).value())
                    / (2.0 * h);
                assert!(
                    (d_soc - fd_soc).abs() <= 1e-4 * fd_soc.abs().max(1e-6),
                    "∂R/∂SoC {d_soc} vs FD {fd_soc}"
                );
                assert!(
                    (d_temp - fd_temp).abs() <= 1e-4 * fd_temp.abs().max(1e-9),
                    "∂R/∂T {d_temp} vs FD {fd_temp}"
                );
            }
        }
    }

    #[test]
    fn resistance_temperature_slope_is_zero_below_evaluation_floor() {
        let r = ResistanceCurve::default();
        let (_, e, factor) = r.resistance_and_exponentials(Ratio::HALF, Kelvin::new(150.0));
        let (_, d_temp) = r.slopes_from_exponentials(Kelvin::new(150.0), e, factor);
        assert_eq!(d_temp, 0.0, "clamped Arrhenius floor must kill ∂R/∂T");
    }

    #[test]
    fn slope_table_lookup_is_bit_identical_to_rederived_interpolation() {
        let ocv = OcvCurve::default();
        let segments = 64;
        let table = SlopeTable::from_fn(0.0, 1.0, segments, |s| ocv.voltage(Ratio::new(s)).value());

        // The "old path": re-derive the segment slope on every lookup.
        let step = 1.0 / segments as f64;
        let old_path = |q: f64| {
            let idx = ((q / step).floor().clamp(0.0, (segments - 1) as f64)) as usize;
            let x0 = step * idx as f64;
            let x1 = step * (idx + 1) as f64;
            let y0 = ocv.voltage(Ratio::new(x0)).value();
            let y1 = ocv.voltage(Ratio::new(x1)).value();
            y0 + (y1 - y0) / (x1 - x0) * (q - x0)
        };

        for i in 0..=1000 {
            let q = i as f64 / 1000.0;
            assert_eq!(
                table.eval(q).to_bits(),
                old_path(q).to_bits(),
                "fused lookup diverged from slope re-derivation at {q}"
            );
            let (value, slope) = table.eval_with_slope(q);
            assert_eq!(value.to_bits(), table.eval(q).to_bits());
            assert!(slope.is_finite());
        }
        // Clamped lookups stay well-defined past both ends.
        assert!(table.eval(-0.5).is_finite());
        assert!(table.eval(1.5).is_finite());
    }

    #[test]
    fn slope_table_tracks_the_analytic_curve() {
        let ocv = OcvCurve::default();
        let table = SlopeTable::from_fn(0.0, 1.0, 256, |s| ocv.voltage(Ratio::new(s)).value());
        for i in 0..=500 {
            let q = i as f64 / 500.0;
            let exact = ocv.voltage(Ratio::new(q)).value();
            // The exponential knee at low SoC has the strongest
            // curvature; first-order extrapolation within a segment is a
            // few mV off there and sub-0.2 mV over the usable range.
            let tol = if q < 0.08 { 5e-3 } else { 2e-4 };
            assert!(
                (table.eval(q) - exact).abs() < tol,
                "table {} vs analytic {exact} at SoC {q}",
                table.eval(q)
            );
        }
    }
}
