//! The bank state machine: state of energy, voltage swing, power draws.

use crate::error::UltracapError;
use crate::params::UltracapParams;
use otem_units::{Amps, Joules, Ratio, Seconds, Volts, Watts};
use serde::{Deserialize, Serialize};

/// A resolved ultracapacitor operating point for one power request.
///
/// Produced by [`UltracapBank::draw_power`]; apply with
/// [`UltracapBank::integrate`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CapDraw {
    /// Power at the bank terminals (positive = discharge).
    pub terminal_power: Watts,
    /// Energy-store power `V_cap·I_cap` — what the SoE integral sees
    /// (Eq. 9). Equals terminal power plus resistive loss.
    pub internal_power: Watts,
    /// Bank current `I_cap` (Eq. 7), positive = discharge.
    pub current: Amps,
    /// Open-circuit bank voltage `V_cap = V_r·√SoE` (Eq. 8).
    pub voltage: Volts,
}

impl CapDraw {
    /// A zero/no-op draw.
    pub const IDLE: Self = Self {
        terminal_power: Watts::ZERO,
        internal_power: Watts::ZERO,
        current: Amps::ZERO,
        voltage: Volts::ZERO,
    };

    /// Resistive loss inside the bank.
    pub fn loss(&self) -> Watts {
        self.internal_power - self.terminal_power
    }
}

/// Partial derivatives of a resolved [`CapDraw`], row per output,
/// columns over the inputs `[∂/∂power, ∂/∂SoE]`.
///
/// Produced by [`UltracapBank::draw_partials`] for the adjoint
/// gradient's backward sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapDrawPartials {
    /// Energy-store power `V·I` sensitivities (what the SoE integral sees).
    pub internal_power: [f64; 2],
    /// Bank current sensitivities.
    pub current: [f64; 2],
}

/// An ultracapacitor bank with its state of energy.
///
/// Sign convention: positive power/current **discharges** the bank.
///
/// # Examples
///
/// ```
/// use otem_ultracap::{UltracapBank, UltracapParams};
/// use otem_units::{Ratio, Seconds, Watts};
///
/// # fn main() -> Result<(), otem_ultracap::UltracapError> {
/// let mut bank = UltracapBank::new(UltracapParams::default())?;
/// bank.set_soe(Ratio::from_percent(40.0));
/// let draw = bank.draw_power(Watts::new(-5_000.0))?; // pre-charge the bank
/// bank.integrate(draw, Seconds::new(2.0));
/// assert!(bank.soe() > Ratio::from_percent(40.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UltracapBank {
    params: UltracapParams,
    soe: Ratio,
}

impl UltracapBank {
    /// Builds a fully charged bank.
    ///
    /// # Errors
    ///
    /// Returns [`UltracapError::InvalidParameter`] if the parameters fail
    /// validation.
    pub fn new(params: UltracapParams) -> Result<Self, UltracapError> {
        params.validate()?;
        Ok(Self {
            params,
            soe: Ratio::ONE,
        })
    }

    /// The bank's parameters.
    pub fn params(&self) -> &UltracapParams {
        &self.params
    }

    /// Present state of energy (Eq. 9).
    pub fn soe(&self) -> Ratio {
        self.soe
    }

    /// Overrides the state of energy.
    pub fn set_soe(&mut self, soe: Ratio) {
        self.soe = soe;
    }

    /// Stored energy right now: `SoE · E_cap`.
    pub fn stored_energy(&self) -> Joules {
        self.stored_energy_at(self.soe)
    }

    /// Stored energy at state of energy `soe`.
    fn stored_energy_at(&self, soe: Ratio) -> Joules {
        Joules::new(soe * self.params.energy_capacity().value())
    }

    /// Open-circuit bank voltage `V_cap = V_r·√(SoE)` (Eq. 8). This is
    /// the voltage swing that the DC/DC converter efficiency model keys
    /// off.
    pub fn voltage(&self) -> Volts {
        Volts::new(self.params.rated_voltage.value() * self.soe.value().sqrt())
    }

    /// Slope of [`UltracapBank::voltage`] in the state of energy,
    /// `dV/dSoE = V_r/(2·√SoE)`, at state of energy `soe` — the bank's
    /// present one or one a rollout recorded. Guarded to zero on a fully
    /// depleted bank, where the square root is not differentiable — the
    /// adjoint must stay finite even at the saturation boundary.
    pub fn voltage_slope(&self, soe: Ratio) -> f64 {
        let soe = soe.value();
        if soe > 0.0 {
            self.params.rated_voltage.value() / (2.0 * soe.sqrt())
        } else {
            0.0
        }
    }

    /// Maximum discharge power deliverable right now: limited by the
    /// interface power rating and by what would drain the bank within one
    /// second (a conservative depletion guard so a draw can always be
    /// integrated at 1 Hz).
    pub fn max_discharge_power(&self) -> Watts {
        let depletion_limited = self.stored_energy().value(); // J drainable in 1 s
        Watts::new(self.params.max_power.value().min(depletion_limited))
    }

    /// Maximum charge power acceptable right now (mirror of
    /// [`Self::max_discharge_power`] against the remaining headroom).
    pub fn max_charge_power(&self) -> Watts {
        let headroom = self.params.energy_capacity().value() - self.stored_energy().value();
        Watts::new(self.params.max_power.value().min(headroom))
    }

    /// Resolves a terminal power request into an operating point.
    ///
    /// # Errors
    ///
    /// Returns [`UltracapError::PowerInfeasible`] when a discharge exceeds
    /// [`Self::max_discharge_power`] or a charge exceeds
    /// [`Self::max_charge_power`].
    pub fn draw_power(&self, power: Watts) -> Result<CapDraw, UltracapError> {
        self.draw_power_at(power, self.voltage())
    }

    /// [`UltracapBank::draw_power`] at a voltage the caller already
    /// evaluated for the present state of energy — no square root of its
    /// own.
    ///
    /// # Errors
    ///
    /// As [`UltracapBank::draw_power`].
    pub fn draw_power_at(&self, power: Watts, voltage: Volts) -> Result<CapDraw, UltracapError> {
        self.debug_check(voltage);
        let p = power.value();
        if p == 0.0 {
            return Ok(CapDraw {
                voltage,
                ..CapDraw::IDLE
            });
        }
        if p > 0.0 && power > self.max_discharge_power() {
            return Err(UltracapError::PowerInfeasible {
                requested: power,
                available: self.max_discharge_power(),
            });
        }
        if p < 0.0 && power.abs() > self.max_charge_power() {
            return Err(UltracapError::PowerInfeasible {
                requested: power,
                available: self.max_charge_power(),
            });
        }
        let v = voltage.value();
        if v <= 0.0 && p > 0.0 {
            return Err(UltracapError::PowerInfeasible {
                requested: power,
                available: Watts::ZERO,
            });
        }
        // With the (tiny) series resistance: the stable root of
        // P = V·I − R·I². The zero-resistance branch floors a depleted
        // bank's voltage at 5 % of rated to avoid a singularity when
        // accepting charge.
        let r = self.params.series_resistance;
        let i = if r == 0.0 {
            p / v.max(0.05 * self.params.rated_voltage.value())
        } else {
            let disc = v * v - 4.0 * r * p;
            if disc < 0.0 {
                return Err(UltracapError::PowerInfeasible {
                    requested: power,
                    available: Watts::new(v * v / (4.0 * r)),
                });
            }
            (v - disc.sqrt()) / (2.0 * r)
        };
        Ok(CapDraw {
            terminal_power: power,
            internal_power: Watts::new(v * i),
            current: Amps::new(i),
            voltage: Volts::new(v),
        })
    }

    /// Prepared voltages are valid only for the state of energy they
    /// were evaluated at (bitwise, so a non-finite state compares equal
    /// to itself).
    fn debug_check(&self, voltage: Volts) {
        debug_assert_eq!(
            voltage.value().to_bits(),
            self.voltage().value().to_bits(),
            "bank voltage used after the state of energy moved"
        );
    }

    /// Slope of [`UltracapBank::max_discharge_power`] in the state of
    /// energy at state of energy `soe`: `E_cap` when the depletion guard
    /// binds, zero when the interface power rating does.
    pub fn discharge_limit_slope(&self, soe: Ratio) -> f64 {
        if self.stored_energy_at(soe).value() < self.params.max_power.value() {
            self.params.energy_capacity().value()
        } else {
            0.0
        }
    }

    /// Slope of [`UltracapBank::max_charge_power`] in the state of
    /// energy at state of energy `soe`: `−E_cap` when the headroom guard
    /// binds, zero when the interface power rating does.
    pub fn charge_limit_slope(&self, soe: Ratio) -> f64 {
        let headroom = self.params.energy_capacity().value() - self.stored_energy_at(soe).value();
        if headroom < self.params.max_power.value() {
            -self.params.energy_capacity().value()
        } else {
            0.0
        }
    }

    /// Partial derivatives of the operating point
    /// [`UltracapBank::draw_power`] resolves, columns over
    /// `[∂/∂power, ∂/∂SoE]`. Differentiates exactly the branch the
    /// forward call executes (including the depleted-bank voltage floor
    /// of the zero-resistance model). Returns `None` where the forward
    /// call errors or sits on a non-differentiable boundary.
    pub fn draw_partials(&self, power: Watts) -> Option<CapDrawPartials> {
        self.draw_partials_at(power, self.voltage(), self.voltage_slope(self.soe))
    }

    /// [`UltracapBank::draw_partials`] at a bank voltage and its
    /// [`UltracapBank::voltage_slope`] — no square root of its own, and
    /// independent of the bank's present state of energy.
    pub fn draw_partials_at(
        &self,
        power: Watts,
        voltage: Volts,
        slope: f64,
    ) -> Option<CapDrawPartials> {
        let p = power.value();
        let v = voltage.value();
        let dv = slope;
        if v <= 0.0 && p > 0.0 {
            return None;
        }
        let r = self.params.series_resistance;
        if r == 0.0 {
            let floor = 0.05 * self.params.rated_voltage.value();
            if v > floor {
                // i = p/v, internal = v·(p/v): unit power sensitivity,
                // flat in SoE.
                Some(CapDrawPartials {
                    internal_power: [1.0, 0.0],
                    current: [1.0 / v, -p / (v * v) * dv],
                })
            } else {
                // Below the voltage floor: i = p/floor, internal = v·p/floor.
                Some(CapDrawPartials {
                    internal_power: [v / floor, p / floor * dv],
                    current: [1.0 / floor, 0.0],
                })
            }
        } else {
            let disc = v * v - 4.0 * r * p;
            if disc <= 0.0 {
                return None;
            }
            let sqrt_d = disc.sqrt();
            let i = (v - sqrt_d) / (2.0 * r);
            let di_dp = 1.0 / sqrt_d;
            let di_dv = (1.0 - v / sqrt_d) / (2.0 * r);
            Some(CapDrawPartials {
                internal_power: [v * di_dp, (i + v * di_dv) * dv],
                current: [di_dp, di_dv * dv],
            })
        }
    }

    /// Applies a resolved operating point for one time step: advances the
    /// SoE integral (Eq. 9) including the self-discharge leak, clamped
    /// to `[0, 1]`.
    pub fn integrate(&mut self, draw: CapDraw, dt: Seconds) {
        self.integrate_with_leak(draw, dt, self.leak_factor(dt));
    }

    /// Self-discharge factor `e^{−dt/τ}` of one step of length `dt` — a
    /// constant of the step length, so a rollout evaluates it once.
    pub fn leak_factor(&self, dt: Seconds) -> f64 {
        (-dt.value() / self.params.leakage_time_constant).exp()
    }

    /// [`UltracapBank::integrate`] with the step's
    /// [`UltracapBank::leak_factor`] already evaluated.
    pub fn integrate_with_leak(&mut self, draw: CapDraw, dt: Seconds, leak: f64) {
        let e_cap = self.params.energy_capacity().value();
        let delta = draw.internal_power.value() * dt.value() / e_cap;
        self.soe = Ratio::new((self.soe.value() - delta) * leak);
    }

    /// Lets the bank idle (no power exchange) for the given duration:
    /// only the self-discharge leak acts.
    pub fn idle(&mut self, dt: Seconds) {
        self.integrate(CapDraw::IDLE, dt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otem_units::Farads;

    fn bank() -> UltracapBank {
        UltracapBank::new(UltracapParams::default()).expect("valid")
    }

    #[test]
    fn voltage_follows_square_root_of_soe() {
        let mut b = bank();
        assert_eq!(b.voltage(), b.params().rated_voltage);
        b.set_soe(Ratio::new(0.25));
        assert!((b.voltage().value() - 8.0).abs() < 1e-12); // 16 · √0.25
        b.set_soe(Ratio::ZERO);
        assert_eq!(b.voltage().value(), 0.0);
    }

    #[test]
    fn discharge_lowers_soe_by_energy_fraction() {
        let mut b = bank();
        let e_cap = b.params().energy_capacity().value();
        let draw = b.draw_power(Watts::new(10_000.0)).expect("feasible");
        b.integrate(draw, Seconds::new(10.0));
        let expected =
            (1.0 - 10_000.0 * 10.0 / e_cap) * (-10.0 / b.params().leakage_time_constant).exp();
        assert!((b.soe().value() - expected).abs() < 1e-9);
    }

    #[test]
    fn charge_raises_soe_and_clamps() {
        let mut b = bank();
        b.set_soe(Ratio::new(0.5));
        let draw = b.draw_power(Watts::new(-20_000.0)).expect("feasible");
        b.integrate(draw, Seconds::new(5.0));
        assert!(b.soe().value() > 0.5);
        // Overcharging clamps at 100 %.
        for _ in 0..10_000 {
            if let Ok(d) = b.draw_power(Watts::new(-20_000.0)) {
                b.integrate(d, Seconds::new(10.0));
            } else {
                break;
            }
        }
        assert!(b.soe() <= Ratio::ONE);
    }

    #[test]
    fn depleted_bank_rejects_discharge() {
        let mut b = bank();
        b.set_soe(Ratio::ZERO);
        let err = b.draw_power(Watts::new(1_000.0)).unwrap_err();
        assert!(matches!(err, UltracapError::PowerInfeasible { .. }));
    }

    #[test]
    fn full_bank_rejects_charge() {
        let b = bank();
        assert!(b.draw_power(Watts::new(-1_000.0)).is_err());
    }

    #[test]
    fn power_limit_enforced_both_directions() {
        let mut b = bank();
        b.set_soe(Ratio::HALF);
        let limit = b.params().max_power.value();
        assert!(b.draw_power(Watts::new(limit * 1.01)).is_err());
        assert!(b.draw_power(Watts::new(-limit * 1.01)).is_err());
        assert!(b.draw_power(Watts::new(limit * 0.5)).is_ok());
    }

    #[test]
    fn small_bank_depletes_fast_large_bank_rides_through() {
        // The Fig. 1 premise: at a sustained 15 kW overflow, the 5,000 F
        // bank dies within a US06 aggressive phase (~60 s), the 25,000 F
        // bank does not.
        let sustain = Watts::new(15_000.0);
        let seconds_alive = |farads: f64| -> u32 {
            let mut b = UltracapBank::new(UltracapParams::paper_bank(Farads::new(farads))).unwrap();
            let mut t = 0;
            while t < 600 {
                match b.draw_power(sustain) {
                    Ok(d) => b.integrate(d, Seconds::new(1.0)),
                    Err(_) => break,
                }
                t += 1;
            }
            t
        };
        let small = seconds_alive(5_000.0);
        let large = seconds_alive(25_000.0);
        assert!(small < 60, "5 kF bank lasted {small} s");
        assert!(large > 180, "25 kF bank lasted only {large} s");
    }

    #[test]
    fn zero_power_is_identity() {
        let b = bank();
        let d = b.draw_power(Watts::ZERO).expect("always feasible");
        assert_eq!(d.current, Amps::ZERO);
        assert_eq!(d.voltage, b.voltage());
    }

    #[test]
    fn series_resistance_creates_loss() {
        let params = UltracapParams {
            series_resistance: 2.0e-4,
            ..UltracapParams::default()
        };
        let mut b = UltracapBank::new(params).unwrap();
        b.set_soe(Ratio::new(0.8));
        let d = b.draw_power(Watts::new(10_000.0)).expect("feasible");
        assert!(d.loss().value() > 0.0);
        // Loss is I²R.
        let expected = d.current.value().powi(2) * 2.0e-4;
        assert!((d.loss().value() - expected).abs() < 1e-6);
    }

    #[test]
    fn idle_bank_leaks_slowly() {
        let mut b = bank();
        b.set_soe(Ratio::new(0.8));
        // One hour of idling: a 40 h time constant loses ≈ 2.5 %.
        b.idle(Seconds::new(3600.0));
        let expected = 0.8 * (-1.0f64 / 40.0).exp();
        assert!((b.soe().value() - expected).abs() < 1e-9);
        assert!(b.soe().value() > 0.77);
    }

    #[test]
    fn leak_is_negligible_at_control_timescales() {
        let mut b = bank();
        b.set_soe(Ratio::new(0.8));
        b.idle(Seconds::new(1.0));
        assert!((b.soe().value() - 0.8).abs() < 1e-5);
    }

    #[test]
    fn stored_energy_tracks_soe() {
        let mut b = bank();
        b.set_soe(Ratio::new(0.3));
        let expected = 0.3 * b.params().energy_capacity().value();
        assert!((b.stored_energy().value() - expected).abs() < 1e-9);
    }

    fn fd_columns(b: &UltracapBank, p: f64) -> ([f64; 2], [f64; 2]) {
        let h_p = 1.0e-2;
        let h_s = 1.0e-8;
        let at = |bank: &UltracapBank, power: f64| -> (f64, f64) {
            let d = bank.draw_power(Watts::new(power)).expect("feasible");
            (d.internal_power.value(), d.current.value())
        };
        let (ip_hi, i_hi) = at(b, p + h_p);
        let (ip_lo, i_lo) = at(b, p - h_p);
        let mut hi = b.clone();
        hi.set_soe(Ratio::new(b.soe().value() + h_s));
        let mut lo = b.clone();
        lo.set_soe(Ratio::new(b.soe().value() - h_s));
        let (ip_sh, i_sh) = at(&hi, p);
        let (ip_sl, i_sl) = at(&lo, p);
        (
            [(ip_hi - ip_lo) / (2.0 * h_p), (ip_sh - ip_sl) / (2.0 * h_s)],
            [(i_hi - i_lo) / (2.0 * h_p), (i_sh - i_sl) / (2.0 * h_s)],
        )
    }

    fn assert_close(analytic: f64, fd: f64, what: &str) {
        // Absolute floor: the SoE column differences ~1e4 W values over
        // a 2e-8 step, so one ulp of roundoff already shows up as ~1e-4
        // of spurious FD "slope" — below that, FD noise is not signal.
        let tol = 1e-4 * fd.abs() + 2.0e-4;
        assert!(
            (analytic - fd).abs() <= tol,
            "{what}: analytic {analytic} vs FD {fd}"
        );
    }

    #[test]
    fn draw_partials_match_finite_differences_zero_resistance() {
        for (soe, p) in [(0.6, 12_000.0), (0.6, -9_000.0), (0.2, 4_000.0)] {
            let mut b = bank();
            b.set_soe(Ratio::new(soe));
            let partials = b.draw_partials(Watts::new(p)).expect("differentiable");
            let (fd_ip, fd_i) = fd_columns(&b, p);
            assert_close(partials.internal_power[0], fd_ip[0], "∂internal/∂p");
            assert_close(partials.internal_power[1], fd_ip[1], "∂internal/∂soe");
            assert_close(partials.current[0], fd_i[0], "∂i/∂p");
            assert_close(partials.current[1], fd_i[1], "∂i/∂soe");
        }
    }

    #[test]
    fn draw_partials_follow_the_voltage_floor_branch() {
        // Below 5 % of rated voltage (SoE < 0.0025) the zero-resistance
        // model pins the current denominator to the floor; only charging
        // is feasible there.
        let mut b = bank();
        b.set_soe(Ratio::new(1.0e-3));
        let p = -1_000.0;
        let partials = b.draw_partials(Watts::new(p)).expect("differentiable");
        let floor = 0.05 * b.params().rated_voltage.value();
        let v = b.voltage().value();
        assert!(v < floor, "test must exercise the floor branch");
        assert!((partials.internal_power[0] - v / floor).abs() < 1e-12);
        let (fd_ip, fd_i) = fd_columns(&b, p);
        assert_close(partials.internal_power[0], fd_ip[0], "∂internal/∂p");
        assert_close(partials.internal_power[1], fd_ip[1], "∂internal/∂soe");
        assert_close(partials.current[0], fd_i[0], "∂i/∂p");
        assert_close(partials.current[1], fd_i[1], "∂i/∂soe");
    }

    #[test]
    fn draw_partials_match_finite_differences_with_resistance() {
        let params = UltracapParams {
            series_resistance: 2.0e-4,
            ..UltracapParams::default()
        };
        for (soe, p) in [(0.8, 10_000.0), (0.5, -15_000.0)] {
            let mut b = UltracapBank::new(params).unwrap();
            b.set_soe(Ratio::new(soe));
            let partials = b.draw_partials(Watts::new(p)).expect("differentiable");
            let (fd_ip, fd_i) = fd_columns(&b, p);
            assert_close(partials.internal_power[0], fd_ip[0], "∂internal/∂p");
            assert_close(partials.internal_power[1], fd_ip[1], "∂internal/∂soe");
            assert_close(partials.current[0], fd_i[0], "∂i/∂p");
            assert_close(partials.current[1], fd_i[1], "∂i/∂soe");
        }
    }

    #[test]
    fn draw_partials_none_on_infeasible_branches() {
        let mut b = bank();
        b.set_soe(Ratio::ZERO);
        assert!(b.draw_partials(Watts::new(1_000.0)).is_none());
        let params = UltracapParams {
            series_resistance: 0.1,
            ..UltracapParams::default()
        };
        let mut r = UltracapBank::new(params).unwrap();
        r.set_soe(Ratio::new(0.5));
        // Past the quadratic's vertex the forward solve errors too.
        let v = r.voltage().value();
        let over = v * v / (4.0 * 0.1) * 1.5;
        assert!(r.draw_partials(Watts::new(over)).is_none());
    }

    #[test]
    fn envelope_limit_slopes_track_the_active_constraint() {
        let e_cap = bank().params().energy_capacity().value();
        let max_p = bank().params().max_power.value();

        // Nearly depleted: discharge is energy-limited, charge power-limited.
        let mut low = bank();
        low.set_soe(Ratio::new(0.5 * max_p / e_cap));
        assert_eq!(low.discharge_limit_slope(low.soe()), e_cap);
        assert_eq!(low.charge_limit_slope(low.soe()), 0.0);

        // Nearly full: charge is headroom-limited, discharge power-limited.
        let mut high = bank();
        high.set_soe(Ratio::new(1.0 - 0.5 * max_p / e_cap));
        assert_eq!(high.discharge_limit_slope(high.soe()), 0.0);
        assert_eq!(high.charge_limit_slope(high.soe()), -e_cap);

        // FD check on the energy-limited sides.
        let h = 1e-7;
        let at = |soe: f64| {
            let mut b = bank();
            b.set_soe(Ratio::new(soe));
            (
                b.max_discharge_power().value(),
                b.max_charge_power().value(),
            )
        };
        let s = low.soe().value();
        let fd_dis = (at(s + h).0 - at(s - h).0) / (2.0 * h);
        assert!((low.discharge_limit_slope(low.soe()) - fd_dis).abs() <= 1e-3 * e_cap);
        let s = high.soe().value();
        let fd_chg = (at(s + h).1 - at(s - h).1) / (2.0 * h);
        assert!((high.charge_limit_slope(high.soe()) - fd_chg).abs() <= 1e-3 * e_cap);
    }

    #[test]
    fn voltage_slope_matches_finite_difference_and_is_finite_when_empty() {
        let mut b = bank();
        b.set_soe(Ratio::new(0.36));
        let h = 1e-8;
        let at = |soe: f64| {
            let mut c = bank();
            c.set_soe(Ratio::new(soe));
            c.voltage().value()
        };
        let fd = (at(0.36 + h) - at(0.36 - h)) / (2.0 * h);
        assert!((b.voltage_slope(b.soe()) - fd).abs() <= 1e-4 * fd.abs());
        assert_eq!(b.voltage_slope(Ratio::ZERO), 0.0);
    }

    /// The per-call draw as it read before prepared voltages: the bank
    /// re-derives `V_r·√SoE` inside.
    fn per_call_draw(b: &UltracapBank, power: Watts) -> Option<CapDraw> {
        let p = power.value();
        if p == 0.0 {
            return Some(CapDraw {
                voltage: b.voltage(),
                ..CapDraw::IDLE
            });
        }
        if (p > 0.0 && power > b.max_discharge_power())
            || (p < 0.0 && power.abs() > b.max_charge_power())
        {
            return None;
        }
        let v = b.voltage().value();
        if v <= 0.0 && p > 0.0 {
            return None;
        }
        let r = b.params().series_resistance;
        let i = if r == 0.0 {
            p / v.max(0.05 * b.params().rated_voltage.value())
        } else {
            let disc = v * v - 4.0 * r * p;
            if disc < 0.0 {
                return None;
            }
            (v - disc.sqrt()) / (2.0 * r)
        };
        Some(CapDraw {
            terminal_power: power,
            internal_power: Watts::new(v * i),
            current: Amps::new(i),
            voltage: Volts::new(v),
        })
    }

    /// The per-call partials: voltage and slope each take their own root.
    fn per_call_partials(b: &UltracapBank, power: Watts) -> Option<[f64; 4]> {
        let p = power.value();
        let v = b.voltage().value();
        let soe = b.soe().value();
        let rated = b.params().rated_voltage.value();
        let dv = if soe > 0.0 {
            rated / (2.0 * soe.sqrt())
        } else {
            0.0
        };
        if v <= 0.0 && p > 0.0 {
            return None;
        }
        let r = b.params().series_resistance;
        if r == 0.0 {
            let floor = 0.05 * rated;
            return Some(if v > floor {
                [1.0, 0.0, 1.0 / v, -p / (v * v) * dv]
            } else {
                [v / floor, p / floor * dv, 1.0 / floor, 0.0]
            });
        }
        let disc = v * v - 4.0 * r * p;
        if disc <= 0.0 {
            return None;
        }
        let sqrt_d = disc.sqrt();
        let i = (v - sqrt_d) / (2.0 * r);
        let di_dp = 1.0 / sqrt_d;
        let di_dv = (1.0 - v / sqrt_d) / (2.0 * r);
        Some([v * di_dp, (i + v * di_dv) * dv, di_dp, di_dv * dv])
    }

    fn draw_bits(d: &CapDraw) -> [u64; 4] {
        [
            d.terminal_power.value().to_bits(),
            d.internal_power.value().to_bits(),
            d.current.value().to_bits(),
            d.voltage.value().to_bits(),
        ]
    }

    #[test]
    fn prepared_voltage_reproduces_the_per_call_formulas_bitwise() {
        let e_cap = bank().params().energy_capacity().value();
        let max_p = bank().params().max_power.value();
        let resistive = UltracapParams {
            series_resistance: 2.0e-4,
            ..UltracapParams::default()
        };
        // A rated voltage that is not a power of two, so a reassociated
        // root or slope cannot stay exact by scaling alone.
        let odd_voltage = UltracapParams {
            rated_voltage: Volts::new(48.6),
            ..UltracapParams::default()
        };
        let mut exercised = [false; 4];
        for params in [UltracapParams::default(), resistive, odd_voltage] {
            // Empty, below the 5 % voltage floor, both envelope clamps
            // active (energy-limited discharge near empty, headroom-limited
            // charge near full), interior points and full.
            for soe in [
                0.0,
                1.0e-3,
                0.5 * max_p / e_cap,
                0.3,
                0.417,
                0.75,
                0.8813,
                1.0 - 0.5 * max_p / e_cap,
                1.0,
            ] {
                let mut b = UltracapBank::new(params).unwrap();
                b.set_soe(Ratio::new(soe));
                let (v, dv) = (b.voltage(), b.voltage_slope(b.soe()));
                let dis = b.max_discharge_power().value();
                let chg = b.max_charge_power().value();
                exercised[0] |= soe == 0.0;
                exercised[1] |= v.value() > 0.0 && v.value() < 0.05 * params.rated_voltage.value();
                exercised[2] |= dis < max_p;
                exercised[3] |= chg < max_p;
                for power in [0.0, 4_000.0, -9_000.0, dis, -chg, 1.01 * dis, -1.01 * chg] {
                    let power = Watts::new(power);
                    let want = per_call_draw(&b, power);
                    let got = b.draw_power_at(power, v).ok();
                    assert_eq!(
                        want.as_ref().map(draw_bits),
                        got.as_ref().map(draw_bits),
                        "draw at soe {soe}, {power:?}"
                    );
                    let got = b.draw_partials_at(power, v, dv).map(|d| {
                        [
                            d.internal_power[0],
                            d.internal_power[1],
                            d.current[0],
                            d.current[1],
                        ]
                    });
                    assert_eq!(
                        per_call_partials(&b, power).map(|a| a.map(f64::to_bits)),
                        got.map(|a| a.map(f64::to_bits)),
                        "partials at soe {soe}, {power:?}"
                    );
                }
            }
        }
        assert_eq!(exercised, [true; 4], "empty / floor / both clamps");
    }

    #[test]
    fn prepared_leak_integrates_bit_identically() {
        let mut b = bank();
        b.set_soe(Ratio::new(0.6));
        let d = b.draw_power(Watts::new(12_000.0)).unwrap();
        let dt = Seconds::new(1.0);
        let e_cap = b.params().energy_capacity().value();
        let tau = b.params().leakage_time_constant;
        let per_call =
            (0.6 - d.internal_power.value() * dt.value() / e_cap) * (-dt.value() / tau).exp();
        b.integrate_with_leak(d, dt, b.leak_factor(dt));
        assert_eq!(b.soe().value().to_bits(), per_call.to_bits());
    }
}
