//! Capacity-loss (battery-lifetime) model, paper Eq. 5:
//!
//! `Q_loss = l1 · e^(−l2 / (R·T_bat)) · I^l3`
//!
//! We read Eq. 5 as a *rate* law: at every instant the cell loses capacity
//! at a rate given by an Arrhenius factor in absolute temperature times a
//! power-law stress factor in the discharge C-rate. The coefficients
//! follow the Millner / Wang-et-al. Arrhenius cycling-loss literature the
//! paper cites (\[6\]); `l2` is an activation energy (J/mol) and `l3 > 1`
//! makes high-rate discharge superlinearly damaging.

use crate::error::BatteryError;
use otem_units::{Kelvin, Seconds, GAS_CONSTANT};
use serde::{Deserialize, Serialize};

/// Coefficients of the capacity-loss rate law (paper Eq. 5).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AgingParams {
    /// Pre-exponential factor `l1` (fraction of capacity per second at
    /// unit C-rate and infinite temperature).
    pub l1: f64,
    /// Activation energy `l2` (J/mol).
    pub l2: f64,
    /// Current-stress exponent `l3` (dimensionless).
    pub l3: f64,
}

impl AgingParams {
    /// Coefficients calibrated so that sustained 1C discharge at 40 °C
    /// consumes the 20 % end-of-life budget in roughly 1,500 hours of
    /// driving — the order of magnitude of the Millner model for an
    /// NMC/LMO EV cell.
    pub fn millner_like() -> Self {
        Self {
            l1: 6.7e-3,
            l2: 31_500.0,
            l3: 1.15,
        }
    }

    /// Validates the coefficient ranges.
    ///
    /// # Errors
    ///
    /// Returns [`BatteryError::InvalidParameter`] for non-positive `l1`
    /// or `l2`, or `l3 < 1` (sublinear stress would reward high-rate
    /// pulsing, inverting the physics the paper relies on).
    pub fn validate(&self) -> Result<(), BatteryError> {
        if self.l1 <= 0.0 {
            return Err(BatteryError::InvalidParameter {
                name: "aging.l1",
                value: self.l1,
                constraint: "> 0",
            });
        }
        if self.l2 <= 0.0 {
            return Err(BatteryError::InvalidParameter {
                name: "aging.l2",
                value: self.l2,
                constraint: "> 0 J/mol",
            });
        }
        if self.l3 < 1.0 {
            return Err(BatteryError::InvalidParameter {
                name: "aging.l3",
                value: self.l3,
                constraint: ">= 1",
            });
        }
        Ok(())
    }

    /// Instantaneous capacity-loss rate (fraction of rated capacity per
    /// second) at the given cell temperature and discharge C-rate.
    ///
    /// Charging (negative C-rate) stresses the cell too; the model uses
    /// the magnitude, matching the paper's use of `I_bat` drawn in either
    /// direction.
    ///
    /// Both factors are priced by one exponential,
    /// `l1·exp(l3·ln|c| − l2/(R·T))`, instead of `exp(…)·|c|^l3` (whose
    /// `powf` is a logarithm and an exponential of its own). At `c = 0`
    /// the exponent is `−∞` and the rate exactly 0; at `|c| = 1` the
    /// logarithm is exactly 0, so the rate is `l1` times the Arrhenius
    /// factor, bit for bit.
    #[inline]
    pub fn loss_rate(&self, temperature: Kelvin, c_rate: f64) -> f64 {
        let t = temperature.value().max(200.0);
        self.l1 * (self.l3 * c_rate.abs().ln() - self.l2 / (GAS_CONSTANT * t)).exp()
    }

    /// `(∂rate/∂T, ∂rate/∂|c|·sign(c))` at one operating point, from the
    /// `rate` [`AgingParams::loss_rate`] returned there: the stress
    /// partial is `l3·rate/c`, since `∂|c|^l3/∂c = l3·|c|^l3/c`, and the
    /// temperature partial is `rate·l2/(R·T²)`. Below the 200 K
    /// evaluation floor the temperature partial is zero (clamp active);
    /// at zero C-rate the stress partial is zero (the `|c|^(l3−1)`
    /// factor vanishes for `l3 > 1`).
    #[inline]
    pub fn loss_rate_partials(&self, temperature: Kelvin, c_rate: f64, rate: f64) -> (f64, f64) {
        let t = temperature.value().max(200.0);
        let d_temp = if temperature.value() > 200.0 {
            rate * self.l2 / (GAS_CONSTANT * t * t)
        } else {
            0.0
        };
        let d_c = if c_rate == 0.0 {
            0.0
        } else {
            self.l3 * rate / c_rate
        };
        (d_temp, d_c)
    }

    /// [`AgingParams::loss_rate`] together with its partial derivatives:
    /// `(rate, ∂rate/∂T, ∂rate/∂|c|·sign(c))`. The rate is the plain
    /// path's, bit for bit.
    #[inline]
    pub fn loss_rate_and_partials(&self, temperature: Kelvin, c_rate: f64) -> (f64, f64, f64) {
        let rate = self.loss_rate(temperature, c_rate);
        let (d_temp, d_c) = self.loss_rate_partials(temperature, c_rate, rate);
        (rate, d_temp, d_c)
    }
}

impl Default for AgingParams {
    fn default() -> Self {
        Self::millner_like()
    }
}

/// Accumulates capacity loss over a simulation and answers
/// lifetime questions ("how long until 20 % of capacity is gone?").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AgingModel {
    params: AgingParams,
    cumulative_loss: f64,
}

impl AgingModel {
    /// End-of-life threshold: the paper considers the battery useless
    /// after 20 % capacity loss.
    pub const END_OF_LIFE_LOSS: f64 = 0.20;

    /// Creates a fresh accumulator.
    pub fn new(params: AgingParams) -> Self {
        Self {
            params,
            cumulative_loss: 0.0,
        }
    }

    /// The coefficients in use.
    pub fn params(&self) -> &AgingParams {
        &self.params
    }

    /// Integrates one time step at the given temperature and C-rate,
    /// returning the incremental loss fraction added by this step.
    pub fn accumulate(&mut self, temperature: Kelvin, c_rate: f64, dt: Seconds) -> f64 {
        let delta = self.params.loss_rate(temperature, c_rate) * dt.value();
        self.cumulative_loss += delta;
        delta
    }

    /// Total capacity-loss fraction so far.
    pub fn cumulative_loss(&self) -> f64 {
        self.cumulative_loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(celsius: f64) -> Kelvin {
        Kelvin::from_celsius(celsius)
    }

    #[test]
    fn hotter_cells_age_faster() {
        let p = AgingParams::default();
        assert!(p.loss_rate(t(45.0), 1.0) > p.loss_rate(t(25.0), 1.0));
        assert!(p.loss_rate(t(25.0), 1.0) > p.loss_rate(t(5.0), 1.0));
    }

    #[test]
    fn higher_rate_ages_superlinearly() {
        let p = AgingParams::default();
        let one_c = p.loss_rate(t(25.0), 1.0);
        let two_c = p.loss_rate(t(25.0), 2.0);
        assert!(
            two_c > 2.0 * one_c,
            "2C loss {two_c} should exceed twice 1C loss {one_c}"
        );
    }

    #[test]
    fn idle_cell_does_not_age() {
        let p = AgingParams::default();
        assert_eq!(p.loss_rate(t(25.0), 0.0), 0.0);
    }

    #[test]
    fn charging_stress_uses_magnitude() {
        let p = AgingParams::default();
        assert_eq!(p.loss_rate(t(25.0), -1.5), p.loss_rate(t(25.0), 1.5));
    }

    #[test]
    fn calibration_order_of_magnitude() {
        // Sustained 1C at 40 °C should exhaust the 20 % EOL budget in
        // hundreds to a few thousand hours.
        let p = AgingParams::default();
        let rate = p.loss_rate(t(40.0), 1.0);
        let hours_to_eol = AgingModel::END_OF_LIFE_LOSS / rate / 3600.0;
        assert!(
            (200.0..20_000.0).contains(&hours_to_eol),
            "EOL after {hours_to_eol} h"
        );
    }

    #[test]
    fn accumulator_tracks_loss_and_elapsed_time() {
        let mut aging = AgingModel::new(AgingParams::default());
        assert_eq!(aging.cumulative_loss(), 0.0);

        let step = Seconds::new(60.0);
        let mut total = 0.0;
        for _ in 0..60 {
            total += aging.accumulate(t(35.0), 1.2, step);
        }
        assert!(total > 0.0);
        assert!((aging.cumulative_loss() - total).abs() < 1e-15);
        // Constant conditions: the loss is the rate times the elapsed hour.
        let hour = aging.params().loss_rate(t(35.0), 1.2) * 3600.0;
        assert!((total - hour).abs() < 1e-12 * hour, "{total} vs {hour}");
    }

    #[test]
    fn loss_rate_partials_match_finite_differences() {
        let p = AgingParams::default();
        // The stress partial is `l3·rate/c`: check it at small C-rates,
        // where it divides two small numbers, and at both signs.
        for (celsius, c_rate) in [
            (10.0, 0.4),
            (25.0, 1.0),
            (45.0, 2.5),
            (35.0, -1.5),
            (0.0, 1e-3),
            (0.0, -1e-3),
            (25.0, 0.3),
            (25.0, -0.3),
            (45.0, 4.0),
            (45.0, -4.0),
        ] {
            let temp = t(celsius);
            let (rate, d_temp, d_c) = p.loss_rate_and_partials(temp, c_rate);
            assert_eq!(
                rate.to_bits(),
                p.loss_rate(temp, c_rate).to_bits(),
                "fused rate diverged"
            );
            let h = 1e-5;
            let fd_t = (p.loss_rate(Kelvin::new(temp.value() + h), c_rate)
                - p.loss_rate(Kelvin::new(temp.value() - h), c_rate))
                / (2.0 * h);
            let fd_c = (p.loss_rate(temp, c_rate + h) - p.loss_rate(temp, c_rate - h)) / (2.0 * h);
            assert!(
                (d_temp - fd_t).abs() <= 1e-4 * fd_t.abs().max(1e-12),
                "∂rate/∂T {d_temp} vs FD {fd_t}"
            );
            assert!(
                (d_c - fd_c).abs() <= 1e-4 * fd_c.abs().max(1e-12),
                "∂rate/∂c {d_c} vs FD {fd_c}"
            );
        }
        // Degenerate points stay finite and zero where the model is flat.
        let (_, d_cold, _) = p.loss_rate_and_partials(Kelvin::new(150.0), 1.0);
        assert_eq!(d_cold, 0.0);
        let (rate0, _, d_c0) = p.loss_rate_and_partials(t(25.0), 0.0);
        assert_eq!(rate0, 0.0);
        assert_eq!(d_c0, 0.0);
    }

    /// The single-exponential rate against the two-factor form it
    /// replaced, `l1·exp(−l2/(R·T))·|c|^l3`, over a dense (T, c) grid:
    /// both signs, zero, tiny and large C-rates, and temperatures down
    /// through the 200 K evaluation floor. Each form rounds its exponents
    /// differently, and `exp` turns an absolute error `δ` in its argument
    /// into a relative error `δ`, so the bound scales with the size of
    /// the two exponent parts, `s = 1 + |l3·ln|c|| + l2/(R·T)`:
    /// `RATE_ULP_PER_UNIT·s` ulp. Measured worst: 0.98·s; in plain ulp,
    /// 33 at the smallest C-rates (1e-10 C, where `s` is about 40).
    #[test]
    fn single_exponential_rate_matches_the_two_factor_form() {
        const RATE_ULP_PER_UNIT: f64 = 2.0;
        let p = AgingParams::millner_like();
        for i in 0..=220 {
            let kelvin = 150.0 + f64::from(i);
            let t = f64::max(kelvin, 200.0);
            let arrhenius = (-p.l2 / (GAS_CONSTANT * t)).exp();
            let magnitudes = (-40..=16).map(|e| 10f64.powf(f64::from(e) / 4.0));
            for c in magnitudes.flat_map(|m| [m, -m]).chain([0.0, 1.0, -1.0]) {
                let rate = p.loss_rate(Kelvin::new(kelvin), c);
                let reference = p.l1 * arrhenius * c.abs().powf(p.l3);
                if c == 0.0 {
                    assert_eq!(rate.to_bits(), 0.0f64.to_bits(), "idle at {kelvin} K");
                    continue;
                }
                let scale = 1.0 + (p.l3 * c.abs().ln()).abs() + p.l2 / (GAS_CONSTANT * t);
                let ulps = (rate - reference).abs() / (f64::EPSILON * reference);

                assert!(
                    ulps <= RATE_ULP_PER_UNIT * scale,
                    "{kelvin} K, {c}C: {rate:e} vs {reference:e} ({ulps} ulp, scale {scale})"
                );
            }
        }
    }

    #[test]
    fn sublinear_stress_exponent_rejected() {
        let p = AgingParams {
            l3: 0.5,
            ..AgingParams::default()
        };
        assert!(p.validate().is_err());
        assert!(AgingParams::default().validate().is_ok());
    }

    /// Pins the exact bits of the stage aging rate and its Arrhenius
    /// factor at fixed points — nominal, hot and fast, a cold charge, and
    /// below the 200 K evaluation floor — plus one digest over a grid of
    /// temperatures and C-rates, so a reassociated or hoisted expression
    /// fails here, not only in the golden traces. The Arrhenius factor is
    /// read as the rate at unit `l1` and unit C-rate, where
    /// `1·exp(l3·ln 1 − l2/(R·T))` is the factor itself, bit for bit.
    #[test]
    fn loss_rate_and_arrhenius_are_pinned_bit_for_bit() {
        let p = AgingParams::millner_like();
        let unit = AgingParams { l1: 1.0, ..p };
        for (kelvin, c_rate, rate_bits, arrhenius_bits) in [
            (298.15, 1.0, 0x3e55_cc3f_2639_c78a, 0x3ec9_6ad1_46d7_6ee1),
            (318.15, 3.5, 0x3e89_94bb_e275_8895, 0x3edc_3fee_8113_b738),
            (263.15, -0.5, 0x3e1c_ff52_1652_88c8, 0x3ea2_c22c_b690_9aa2),
            (150.0, 2.0, 0x3dd8_3e75_a4ee_9ac9, 0x3e39_7a5b_be2f_086c),
        ] {
            let rate = p.loss_rate(Kelvin::new(kelvin), c_rate);
            let arrhenius = unit.loss_rate(Kelvin::new(kelvin), 1.0);
            assert_eq!(
                rate.to_bits(),
                rate_bits,
                "rate at {kelvin} K, {c_rate}C: {rate:e}"
            );
            assert_eq!(
                arrhenius.to_bits(),
                arrhenius_bits,
                "Arrhenius factor at {kelvin} K: {arrhenius:e}"
            );
        }
        let grid = [250.0, 273.15, 290.0, 298.15, 305.5, 318.15, 333.15]
            .into_iter()
            .flat_map(|kelvin| {
                [-3.0, -0.5, 0.0, 0.3, 0.77, 1.0, 2.5, 5.0]
                    .into_iter()
                    .flat_map(move |c| {
                        let rate = p.loss_rate(Kelvin::new(kelvin), c);
                        let arrhenius = unit.loss_rate(Kelvin::new(kelvin), 1.0);
                        [rate.to_bits(), arrhenius.to_bits()]
                    })
            });
        let digest = crate::bits_digest(grid);
        assert_eq!(digest, 0x948c_b405_1a6b_f52e, "grid digest {digest:#018x}");
    }
}
