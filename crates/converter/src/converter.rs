//! The converter loss model and its forward/inverse power mappings.

use crate::error::ConverterError;
use otem_units::{Volts, Watts};
use serde::{Deserialize, Serialize};

/// A DC/DC converter between a storage element and the EV's DC bus.
///
/// Loss model: `P_loss = P_0 + k_i·|I| + k_r·I²` with `I = P/V` the
/// storage-side current. Power flowing in either direction pays the loss.
///
/// Two mappings are provided:
///
/// * [`DcDcConverter::input_for_output`] — how much storage power must be
///   drawn to deliver `P_out` onto the bus (discharge path),
/// * [`DcDcConverter::output_for_input`] — how much reaches the storage
///   when `P_in` is taken off the bus (charge path).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DcDcConverter {
    /// Quiescent (controller/switching) loss `P_0` in watts, paid
    /// whenever power flows.
    pub quiescent_loss: f64,
    /// Conduction loss coefficient `k_i` (V): loss linear in current.
    pub conduction_coefficient: f64,
    /// Ohmic loss coefficient `k_r` (Ω): loss quadratic in current.
    pub ohmic_coefficient: f64,
}

impl DcDcConverter {
    /// Converter preset for the high-voltage battery string (≈ 350 V):
    /// ≈ 97–98 % efficient across the load range.
    pub fn battery_side() -> Self {
        Self {
            quiescent_loss: 25.0,
            conduction_coefficient: 2.5,
            ohmic_coefficient: 0.02,
        }
    }

    /// Converter preset for the low-voltage ultracapacitor bank (≈ 16 V
    /// rated): efficiency is strongly voltage-dependent, dropping several
    /// points as the bank sags toward half voltage.
    pub fn ultracap_side() -> Self {
        Self {
            quiescent_loss: 15.0,
            conduction_coefficient: 0.12,
            ohmic_coefficient: 4.0e-5,
        }
    }

    /// A direct coupling, with no converter: every loss coefficient is
    /// zero, so both power maps are the identity at every voltage, 0 V
    /// included. A semi-active wiring puts this on the storage that sits
    /// on the bus.
    pub fn direct() -> Self {
        Self {
            quiescent_loss: 0.0,
            conduction_coefficient: 0.0,
            ohmic_coefficient: 0.0,
        }
    }

    /// Validates coefficient ranges.
    ///
    /// # Errors
    ///
    /// Returns [`ConverterError::InvalidParameter`] for negative
    /// coefficients.
    pub fn validate(&self) -> Result<(), ConverterError> {
        for (name, value) in [
            ("quiescent_loss", self.quiescent_loss),
            ("conduction_coefficient", self.conduction_coefficient),
            ("ohmic_coefficient", self.ohmic_coefficient),
        ] {
            if value < 0.0 || !value.is_finite() {
                return Err(ConverterError::InvalidParameter {
                    name,
                    value,
                    constraint: ">= 0 and finite",
                });
            }
        }
        Ok(())
    }

    /// Width of the quiescent-loss wake-up ramp (W): below this power the
    /// controller overhead fades toward zero, keeping the loss model
    /// smooth at zero transfer (the MPC differentiates through it).
    const QUIESCENT_RAMP: f64 = 50.0;

    /// Loss for a given storage-side power magnitude at a given storage
    /// voltage.
    ///
    /// `P_loss = P_0·p/(p + 50 W) + k_i·|I| + k_r·I²` — the quiescent
    /// term ramps in smoothly as the converter wakes from idle.
    #[inline]
    pub fn loss(&self, storage_power: Watts, storage_voltage: Volts) -> Watts {
        Watts::new(self.raw_loss(storage_power.value(), storage_voltage.value()))
    }

    /// [`DcDcConverter::loss`] on raw values: only the magnitude of
    /// `power` matters, and `voltage` is clamped to the 1 mV evaluation
    /// floor.
    #[inline]
    fn raw_loss(&self, power: f64, voltage: f64) -> f64 {
        let p = power.abs();
        if p == 0.0 {
            return 0.0;
        }
        let v = voltage.max(1e-3);
        let i = p / v;
        let ramp_in = self.quiescent_loss * p / (p + Self::QUIESCENT_RAMP);
        ramp_in + self.conduction_coefficient * i + self.ohmic_coefficient * i * i
    }

    /// Partial derivatives of [`DcDcConverter::loss`] in the transfer
    /// magnitude and the storage voltage: `(∂loss/∂|P|, ∂loss/∂V)`.
    ///
    /// Matches the forward branches exactly: both partials are zero at
    /// zero transfer (the forward path early-outs there), and the voltage
    /// partial is zero below the 1 mV evaluation floor where the clamp
    /// is active.
    #[inline]
    pub fn loss_partials(&self, storage_power: Watts, storage_voltage: Volts) -> (f64, f64) {
        let p = storage_power.value().abs();
        if p == 0.0 {
            return (0.0, 0.0);
        }
        let v = storage_voltage.value().max(1e-3);
        let ramp = p + Self::QUIESCENT_RAMP;
        let d_p = self.quiescent_loss * Self::QUIESCENT_RAMP / (ramp * ramp)
            + self.conduction_coefficient / v
            + 2.0 * self.ohmic_coefficient * p / (v * v);
        let d_v = if storage_voltage.value() > 1e-3 {
            -self.conduction_coefficient * p / (v * v)
                - 2.0 * self.ohmic_coefficient * p * p / (v * v * v)
        } else {
            0.0
        };
        (d_p, d_v)
    }

    /// Partial derivatives of [`DcDcConverter::input_for_output`] at an
    /// already-solved operating point, by the implicit-function theorem
    /// on `x = P_out + loss(x, V)`:
    ///
    /// `(∂P_storage/∂P_bus, ∂P_storage/∂V) = (1/(1−L_p), ±L_v/(1−L_p))`
    ///
    /// where `L_p`, `L_v` are the loss partials at the converged storage
    /// power. Pass the value `input_for_output` returned (signed); signs
    /// are handled internally. Returns `None` at the saturation boundary
    /// `L_p ≥ 1`, where the inverse map is not differentiable.
    #[inline]
    pub fn input_for_output_partials(
        &self,
        storage_power: Watts,
        storage_voltage: Volts,
    ) -> Option<(f64, f64)> {
        let x = storage_power.value();
        if x == 0.0 {
            return Some((1.0, 0.0));
        }
        let (l_p, l_v) = self.loss_partials(storage_power, storage_voltage);
        let gain = 1.0 - l_p;
        if gain <= 0.0 {
            return None;
        }
        Some((1.0 / gain, (l_v / gain) * x.signum()))
    }

    /// Partial derivatives of [`DcDcConverter::output_for_input`]:
    /// `(∂P_storage/∂P_bus, ∂P_storage/∂V) = (1−L_p, −L_v·sign(P))`.
    ///
    /// The power partial is direction-independent (both magnitudes and
    /// signs flip together); zero transfer maps to the identity slope,
    /// matching the forward early-out.
    #[inline]
    pub fn output_for_input_partials(&self, bus_in: Watts, storage_voltage: Volts) -> (f64, f64) {
        let p = bus_in.value();
        if p == 0.0 {
            return (1.0, 0.0);
        }
        let (l_p, l_v) = self.loss_partials(bus_in, storage_voltage);
        (1.0 - l_p, -l_v * p.signum())
    }

    /// One-sided derivative limits of the bus → storage power maps as
    /// the transfer crosses zero: `(discharge, charge)` =
    /// `(1/(1−L₀), 1−L₀)` with `L₀ = P₀/RAMP + k_i/V` the marginal loss
    /// slope at idle.
    ///
    /// The loss model's `|P|` dependence makes zero transfer a genuine
    /// kink: a central finite difference straddling it measures the
    /// *mean* of these two limits, not either branch. Adjoint gradients
    /// that must agree with central differences at idle (the convention
    /// the MPC's golden traces were blessed with) need both limits to
    /// reproduce that mean. Falls back to `(1, 1)` — the forward maps'
    /// zero-transfer early-out slope — when the idle loss slope
    /// saturates (`L₀ ≥ 1`, only reachable at extreme voltage sag).
    #[inline]
    pub fn zero_transfer_gain_limits(&self, storage_voltage: Volts) -> (f64, f64) {
        let v = storage_voltage.value().max(1e-3);
        let l0 = self.quiescent_loss / Self::QUIESCENT_RAMP + self.conduction_coefficient / v;
        let gain = 1.0 - l0;
        if gain <= 0.0 {
            return (1.0, 1.0);
        }
        (1.0 / gain, gain)
    }

    /// Discharge path: storage power that must be drawn so that `bus_out`
    /// is delivered to the bus. Solves
    /// `P_storage = P_bus + loss(P_storage, V)` for `P_storage`.
    ///
    /// Clearing the quiescent ramp's denominator turns the equation into
    /// a cubic (see `solve_input`), which Newton solves from the
    /// closed-form root of the constant-quiescent quadratic. The returned
    /// storage power meets the equation to a few ulp: Newton stops only
    /// once its own quadratic bound puts the last iterate within a
    /// quarter ulp of the root, and a call that has not got there within
    /// 30 rounds is reported infeasible rather than returned. It takes
    /// at most 7 rounds over the dense (P, V) grid of both presets in
    /// this module's tests, and 2.28 a call on average in the closed-loop
    /// `mpc_loop` benchmark. The first round's step is known in closed
    /// form at the seed, so a call evaluates the cubic one time fewer
    /// than it takes rounds: 1.28 times on `mpc_loop`.
    ///
    /// # Errors
    ///
    /// Returns [`ConverterError::TransferInfeasible`] when no real
    /// solution exists (the converter saturates at this voltage) or, on
    /// the saturation fold itself, when Newton cannot meet its stop
    /// within 30 rounds. A voltage below the loss model's 1 mV floor is
    /// solved at the floor: a converter whose conduction coefficient is
    /// at least 1 mV saturates there, and [`DcDcConverter::direct`]
    /// passes the power through.
    #[inline]
    pub fn input_for_output(
        &self,
        bus_out: Watts,
        storage_voltage: Volts,
    ) -> Result<Watts, ConverterError> {
        let p_out = bus_out.value();
        if p_out == 0.0 {
            return Ok(Watts::ZERO);
        }
        let v = storage_voltage.value();
        match self.solve_input(p_out.abs(), v) {
            Some((x, _)) => Ok(Watts::new(x.copysign(p_out))),
            None => Err(ConverterError::TransferInfeasible {
                requested: p_out.abs(),
                voltage: v,
            }),
        }
    }

    /// Newton's round cap in [`DcDcConverter::solve_input`]; a call that
    /// reaches it without meeting the stop is infeasible, not returned.
    const NEWTON_ROUNDS: u32 = 30;

    /// Solves `x = P_out + loss(x, V)` for the storage power magnitude
    /// `x > 0` at a positive bus magnitude `p_out`, returning `x` and the
    /// Newton rounds it took, or `None` when the transfer is infeasible.
    ///
    /// With `a = k_r/V²`, `b = k_i/V − 1` and `R` the quiescent ramp,
    /// multiplying `x − P_out − loss(x)` by `x + R` gives the cubic
    ///
    /// `h(x) = −a·x³ + (−b − a·R)·x² + (−b·R − P_out − P₀)·x − P_out·R`.
    ///
    /// The seed is the smaller root of `−a·x² − b·x − P_out − P₀`, which
    /// prices the ramp at its ceiling `P₀`; there `h = P₀·R > 0` and
    /// `h′ = (x + R)·√disc > 0` (with `√disc = −b` when `a = 0`), so the
    /// seed lies right of the root and, where `h` is convex, Newton walks
    /// down onto it monotonically. The first round takes those two
    /// closed forms instead of evaluating the cubic at the seed: its step
    /// is `P₀·R/((x + R)·√disc)`. After a step `δ` the new residual is at
    /// most `½·h″·δ² ≤ δ²` (`h″ ≤ 2` because `k_i, k_r ≥ 0`), so once
    /// `δ² ≤ ¼·ε·x·h′` the new iterate is within about a quarter ulp of
    /// the root, up to the roundoff of evaluating `h`.
    #[inline]
    fn solve_input(&self, p_out: f64, v: f64) -> Option<(f64, u32)> {
        // The loss model's 1 mV evaluation floor.
        let v = v.max(1e-3);
        let a = self.ohmic_coefficient / (v * v);
        let b = self.conduction_coefficient / v - 1.0;
        let c = p_out + self.quiescent_loss;
        let disc = b * b - 4.0 * a * c;
        if disc < 0.0 {
            return None;
        }
        // The smaller root in the form that does not cancel: `−b` and
        // `√disc` are both non-negative on a feasible transfer, and at
        // `a = 0` it is the linear root `−c/b`.
        let root = disc.sqrt();
        let seed = 2.0 * c / (root - b);
        if !seed.is_finite() || seed <= 0.0 {
            return None;
        }
        let ramp = Self::QUIESCENT_RAMP;
        let c2 = -b - a * ramp;
        let c1 = -b * ramp - c;
        let c0 = -p_out * ramp;
        let mut x = seed;
        let (mut h, mut slope) = (self.quiescent_loss * ramp, (seed + ramp) * root);
        for round in 1..=Self::NEWTON_ROUNDS {
            // A flat or falling cubic: the iterate is on or past the
            // saturation fold.
            if slope <= 0.0 {
                return None;
            }
            let step = h / slope;
            let stop = step * step <= 0.25 * f64::EPSILON * x * slope;
            x -= step;
            if stop {
                return (x.is_finite() && x > 0.0).then_some((x, round));
            }
            h = ((c2 - a * x) * x + c1) * x + c0;
            slope = (2.0 * c2 - 3.0 * a * x) * x + c1;
        }
        None
    }

    /// Charge path: storage power received when `bus_in` is taken off the
    /// bus: `P_storage = P_bus − loss(P_bus, V)`.
    ///
    /// # Errors
    ///
    /// Returns [`ConverterError::TransferInfeasible`] when the loss
    /// exceeds the supplied power (nothing would reach the storage).
    #[inline]
    pub fn output_for_input(
        &self,
        bus_in: Watts,
        storage_voltage: Volts,
    ) -> Result<Watts, ConverterError> {
        let p_in = bus_in.value();
        if p_in == 0.0 {
            return Ok(Watts::ZERO);
        }
        let magnitude = p_in.abs();
        let delivered = magnitude - self.raw_loss(magnitude, storage_voltage.value());
        if delivered <= 0.0 {
            return Err(ConverterError::TransferInfeasible {
                requested: magnitude,
                voltage: storage_voltage.value(),
            });
        }
        Ok(Watts::new(delivered.copysign(p_in)))
    }

    /// Conversion efficiency for a transfer of the given bus-side power at
    /// the given storage voltage (paper's `η_DC`).
    ///
    /// # Errors
    ///
    /// Propagates [`ConverterError::TransferInfeasible`] from the inverse
    /// mapping.
    pub fn efficiency(
        &self,
        bus_power: Watts,
        storage_voltage: Volts,
    ) -> Result<f64, ConverterError> {
        let p = bus_power.value().abs();
        if p == 0.0 {
            return Ok(1.0);
        }
        let storage = self.input_for_output(Watts::new(p), storage_voltage)?;
        Ok(p / storage.value())
    }
}

impl Default for DcDcConverter {
    /// The ultracapacitor-side preset (the voltage-sensitive one the
    /// paper's analysis centres on).
    fn default() -> Self {
        Self::ultracap_side()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_transfer_gain_limits_match_one_sided_differences() {
        let v = Volts::new(350.0);
        for dc in [
            DcDcConverter::battery_side(),
            DcDcConverter::ultracap_side(),
        ] {
            let (g_dis, g_chg) = dc.zero_transfer_gain_limits(v);
            let h = 1e-2;
            let fd_dis = dc.input_for_output(Watts::new(h), v).unwrap().value() / h;
            let fd_chg = dc.output_for_input(Watts::new(-h), v).unwrap().value() / -h;
            assert!((g_dis - fd_dis).abs() < 1e-3 * g_dis, "{g_dis} vs {fd_dis}");
            assert!((g_chg - fd_chg).abs() < 1e-3 * g_chg, "{g_chg} vs {fd_chg}");
            // The limits bracket the forward early-out slope of 1.
            assert!(g_chg < 1.0 && g_dis > 1.0);
        }
        // Lossless: no kink, both limits are the identity.
        assert_eq!(
            DcDcConverter::direct().zero_transfer_gain_limits(v),
            (1.0, 1.0)
        );
    }

    /// A direct coupling passes every transfer through bit for bit, both
    /// ways and at every voltage: at 0 V, below the 1 mV floor and below
    /// zero (a drained bank on the bus reads 0 V), and across the
    /// presets' ranges. Its partials are the identity's and it has no
    /// kink at zero transfer.
    #[test]
    fn direct_maps_are_the_identity_at_every_voltage() {
        let dc = DcDcConverter::direct();
        assert!(dc.validate().is_ok());
        let volts = [-5.0, 0.0, 1e-9, 5e-4, 1e-3, 0.3, 12.0, 350.0, 420.0];
        let powers = [
            1e-9, 1e-3, 0.7, 20.0, 49.0, 51.0, 730.0, 26_000.0, 4.1e5, 1.5e6,
        ];
        for v in volts.map(Volts::new) {
            assert_eq!(dc.input_for_output(Watts::ZERO, v), Ok(Watts::ZERO));
            assert_eq!(dc.output_for_input(Watts::ZERO, v), Ok(Watts::ZERO));
            for p in powers.into_iter().flat_map(|p| [p, -p]) {
                let bus = Watts::new(p);
                for (map, got) in [
                    ("input_for_output", dc.input_for_output(bus, v)),
                    ("output_for_input", dc.output_for_input(bus, v)),
                ] {
                    let got = got.unwrap_or_else(|e| panic!("{map}({p} W, {v:?}): {e}"));
                    assert_eq!(
                        got.value().to_bits(),
                        p.to_bits(),
                        "{map}({p} W, {v:?}) = {got:?}"
                    );
                }
                assert_eq!(dc.loss(bus, v), Watts::ZERO);
                assert_eq!(
                    dc.input_for_output_partials(bus, v),
                    Some((1.0, 0.0)),
                    "{p} W at {v:?}"
                );
                assert_eq!(
                    dc.output_for_input_partials(bus, v),
                    (1.0, 0.0),
                    "{p} W at {v:?}"
                );
            }
            assert_eq!(dc.zero_transfer_gain_limits(v), (1.0, 1.0));
        }
    }

    /// The dense (P, V) grid the inverse is checked on: each preset over
    /// its storage voltage range, and bus powers log-spaced from 1 mW up
    /// to 0.999 of the constant-quiescent saturation power
    /// `b²/(4a) − P₀` at that voltage, where the seed's discriminant
    /// closes. Both signs of every power.
    fn inverse_grid() -> Vec<(DcDcConverter, f64, f64)> {
        let mut grid = Vec::new();
        for (dc, v_lo, v_hi) in [
            (DcDcConverter::battery_side(), 250.0, 420.0),
            (DcDcConverter::ultracap_side(), 2.0, 17.0),
        ] {
            for i in 0..=40 {
                let v: f64 = v_lo + (v_hi - v_lo) * f64::from(i) / 40.0;
                let a = dc.ohmic_coefficient / (v * v);
                let b = dc.conduction_coefficient / v - 1.0;
                let p_sat = b * b / (4.0 * a) - dc.quiescent_loss;
                let (lo, hi) = (1e-3_f64.ln(), (0.999 * p_sat).ln());
                for j in 0..=200 {
                    let p = (lo + (hi - lo) * f64::from(j) / 200.0).exp();
                    grid.push((dc, p, v));
                    grid.push((dc, -p, v));
                }
            }
        }
        grid
    }

    /// The inverse meets `x − P_out − loss(x) = 0` to within 4 ulp of
    /// `x` everywhere on the grid (measured worst: 1.9 ulp).
    #[test]
    fn inverse_meets_its_equation_to_a_few_ulp() {
        for (dc, p, v) in inverse_grid() {
            let x = dc
                .input_for_output(Watts::new(p), Volts::new(v))
                .unwrap_or_else(|e| panic!("{p} W at {v} V: {e}"))
                .value();
            assert_eq!(x.signum(), p.signum());
            let residual = x.abs() - p.abs() - dc.loss(Watts::new(x), Volts::new(v)).value();
            let ulps = residual.abs() / (f64::EPSILON * x.abs());
            assert!(
                ulps <= 4.0,
                "{p} W at {v} V: residual {residual:e} ({ulps} ulp)"
            );
        }
    }

    /// Pins Newton's round counts over the whole grid: at most 7 rounds
    /// a call, 141,694 over its 32,964 calls (4.30 on average; the
    /// log-spaced powers weight the sub-50 W ramp, where the seed's
    /// ceiling-priced quiescent loss is furthest off, most). Every call
    /// converges (a capped call would be `None`), far below the cap.
    #[test]
    fn newton_round_counts_are_pinned() {
        let rounds: Vec<u32> = inverse_grid()
            .into_iter()
            .map(|(dc, p, v)| dc.solve_input(p.abs(), v).expect("feasible").1)
            .collect();
        assert_eq!(rounds.len(), 32_964);
        assert_eq!(rounds.iter().max(), Some(&7));
        assert_eq!(rounds.iter().sum::<u32>(), 141_694);
    }

    /// The first round's closed-form step, `P₀·R/((x + R)·√disc)` at the
    /// seed, against one Newton step taken there by evaluating the cubic
    /// and its slope, over the whole grid. The seed is the quadratic's
    /// root to a few ulp, so the two differ only by the roundoff of
    /// evaluating the cubic, whose terms (up to `P_out·x`) dwarf its value
    /// `P₀·R` at the seed: within `FIRST_STEP_ULP` ulp of the stepped
    /// iterate (measured worst: 29 ulp).
    #[test]
    fn closed_form_first_step_is_one_newton_step_from_the_seed() {
        const FIRST_STEP_ULP: f64 = 64.0;
        let ramp = DcDcConverter::QUIESCENT_RAMP;
        for (dc, p, v) in inverse_grid() {
            let p_out = p.abs();
            let a = dc.ohmic_coefficient / (v * v);
            let b = dc.conduction_coefficient / v - 1.0;
            let c = p_out + dc.quiescent_loss;
            let root = (b * b - 4.0 * a * c).sqrt();
            let seed = 2.0 * c / (root - b);
            let closed = seed - dc.quiescent_loss * ramp / ((seed + ramp) * root);
            let (c2, c1, c0) = (-b - a * ramp, -b * ramp - c, -p_out * ramp);
            let h = ((c2 - a * seed) * seed + c1) * seed + c0;
            let slope = (2.0 * c2 - 3.0 * a * seed) * seed + c1;
            let newton = seed - h / slope;
            let ulps = (closed - newton).abs() / (f64::EPSILON * newton);
            assert!(
                ulps <= FIRST_STEP_ULP,
                "{p} W at {v} V: {closed} vs {newton} ({ulps} ulp)"
            );
        }
    }

    #[test]
    fn efficiency_reasonable_at_rated_voltage() {
        let dc = DcDcConverter::ultracap_side();
        let eta = dc
            .efficiency(Watts::new(10_000.0), Volts::new(16.0))
            .unwrap();
        assert!((0.88..0.99).contains(&eta), "η = {eta}");
    }

    #[test]
    fn efficiency_degrades_as_voltage_sags() {
        let dc = DcDcConverter::ultracap_side();
        let p = Watts::new(10_000.0);
        let full = dc.efficiency(p, Volts::new(16.0)).unwrap();
        let half = dc.efficiency(p, Volts::new(8.0)).unwrap();
        let low = dc.efficiency(p, Volts::new(5.0)).unwrap();
        assert!(full > half && half > low, "{full} {half} {low}");
        assert!(full - low > 0.02, "swing should cost > 2 points");
    }

    #[test]
    fn forward_inverse_round_trip() {
        let dc = DcDcConverter::ultracap_side();
        let v = Volts::new(12.0);
        let bus = Watts::new(8_000.0);
        let storage = dc.input_for_output(bus, v).unwrap();
        assert!(storage > bus);
        // Pushing that storage power forward re-delivers the bus power:
        // storage − loss(storage) = bus.
        let loss = dc.loss(storage, v);
        assert!((storage.value() - loss.value() - bus.value()).abs() < 1e-6);
    }

    #[test]
    fn charge_path_loses_power() {
        let dc = DcDcConverter::ultracap_side();
        let v = Volts::new(14.0);
        let delivered = dc.output_for_input(Watts::new(5_000.0), v).unwrap();
        assert!(delivered.value() < 5_000.0);
        assert!(delivered.value() > 4_000.0);
    }

    #[test]
    fn signs_are_preserved() {
        let dc = DcDcConverter::ultracap_side();
        let v = Volts::new(14.0);
        assert!(
            dc.input_for_output(Watts::new(-6_000.0), v)
                .unwrap()
                .value()
                < 0.0
        );
        assert!(
            dc.output_for_input(Watts::new(-6_000.0), v)
                .unwrap()
                .value()
                < 0.0
        );
    }

    #[test]
    fn battery_side_is_more_efficient_than_ultracap_side_at_sag() {
        let bat = DcDcConverter::battery_side();
        let cap = DcDcConverter::ultracap_side();
        let p = Watts::new(20_000.0);
        let eta_bat = bat.efficiency(p, Volts::new(340.0)).unwrap();
        let eta_cap = cap.efficiency(p, Volts::new(8.0)).unwrap();
        assert!(eta_bat > eta_cap);
        assert!(eta_bat > 0.95, "battery-side η = {eta_bat}");
    }

    #[test]
    fn infeasible_transfer_rejected() {
        let dc = DcDcConverter::ultracap_side();
        // At 0.5 V the current for 50 kW would be 100 kA — the quadratic
        // has no positive root.
        assert!(matches!(
            dc.input_for_output(Watts::new(50_000.0), Volts::new(0.5)),
            Err(ConverterError::TransferInfeasible { .. })
        ));
    }

    #[test]
    fn tiny_transfer_dominated_by_quiescent_loss() {
        let dc = DcDcConverter::ultracap_side();
        let tiny = dc.efficiency(Watts::new(30.0), Volts::new(16.0)).unwrap();
        let moderate = dc
            .efficiency(Watts::new(5_000.0), Volts::new(16.0))
            .unwrap();
        assert!(tiny < 0.90, "η = {tiny} should be poor at 30 W");
        assert!(moderate > tiny + 0.05, "light-load collapse missing");
    }

    #[test]
    fn loss_is_smooth_through_zero() {
        // The wake-up ramp keeps the loss differentiable at zero — no
        // fixed quiescent jump the MPC's gradient would trip over.
        let dc = DcDcConverter::ultracap_side();
        let v = Volts::new(16.0);
        let small = dc.loss(Watts::new(1.0), v).value();
        assert!(small < 1.0, "loss({small}) at 1 W transfer");
        let smaller = dc.loss(Watts::new(0.1), v).value();
        assert!(smaller < small / 5.0, "ramp not proportional: {smaller}");
    }

    #[test]
    fn zero_power_zero_loss() {
        let dc = DcDcConverter::ultracap_side();
        assert_eq!(dc.loss(Watts::ZERO, Volts::new(16.0)), Watts::ZERO);
        assert_eq!(
            dc.input_for_output(Watts::ZERO, Volts::new(16.0)).unwrap(),
            Watts::ZERO
        );
        assert_eq!(dc.efficiency(Watts::ZERO, Volts::new(16.0)).unwrap(), 1.0);
    }

    #[test]
    fn loss_partials_match_finite_differences() {
        let dc = DcDcConverter::ultracap_side();
        for (p, v) in [(8_000.0, 14.0), (300.0, 9.0), (-5_000.0, 12.0)] {
            let (d_p, d_v) = dc.loss_partials(Watts::new(p), Volts::new(v));
            let h = 1e-3;
            let mag = p.abs();
            let fd_p = (dc.loss(Watts::new(mag + h), Volts::new(v)).value()
                - dc.loss(Watts::new(mag - h), Volts::new(v)).value())
                / (2.0 * h);
            let fd_v = (dc.loss(Watts::new(p), Volts::new(v + h)).value()
                - dc.loss(Watts::new(p), Volts::new(v - h)).value())
                / (2.0 * h);
            assert!((d_p - fd_p).abs() <= 1e-5 * fd_p.abs(), "{d_p} vs {fd_p}");
            assert!((d_v - fd_v).abs() <= 1e-5 * fd_v.abs(), "{d_v} vs {fd_v}");
        }
        assert_eq!(dc.loss_partials(Watts::ZERO, Volts::new(16.0)), (0.0, 0.0));
    }

    #[test]
    fn inverse_map_partials_match_finite_differences() {
        let dc = DcDcConverter::ultracap_side();
        for (bus, v) in [(8_000.0, 14.0), (-6_000.0, 12.0), (400.0, 16.0)] {
            let storage = dc.input_for_output(Watts::new(bus), Volts::new(v)).unwrap();
            let (d_bus, d_v) = dc
                .input_for_output_partials(storage, Volts::new(v))
                .expect("away from saturation");
            let h = 1e-2;
            let at = |bus: f64, v: f64| {
                dc.input_for_output(Watts::new(bus), Volts::new(v))
                    .unwrap()
                    .value()
            };
            let fd_bus = (at(bus + h, v) - at(bus - h, v)) / (2.0 * h);
            let fd_v = (at(bus, v + h) - at(bus, v - h)) / (2.0 * h);
            // The inverse is exact to a few ulp, so its IFT slopes are
            // held to the forward map's bar.
            assert!(
                (d_bus - fd_bus).abs() <= 1e-5 * fd_bus.abs(),
                "∂x/∂bus {d_bus} vs FD {fd_bus}"
            );
            assert!(
                (d_v - fd_v).abs() <= 1e-5 * fd_v.abs().max(1e-9),
                "∂x/∂V {d_v} vs FD {fd_v}"
            );
        }
    }

    #[test]
    fn forward_map_partials_match_finite_differences() {
        let dc = DcDcConverter::ultracap_side();
        for (bus, v) in [(5_000.0, 14.0), (-7_000.0, 10.0)] {
            let (d_bus, d_v) = dc.output_for_input_partials(Watts::new(bus), Volts::new(v));
            let h = 1e-2;
            let at = |bus: f64, v: f64| {
                dc.output_for_input(Watts::new(bus), Volts::new(v))
                    .unwrap()
                    .value()
            };
            let fd_bus = (at(bus + h, v) - at(bus - h, v)) / (2.0 * h);
            let fd_v = (at(bus, v + h) - at(bus, v - h)) / (2.0 * h);
            assert!(
                (d_bus - fd_bus).abs() <= 1e-5 * fd_bus.abs(),
                "∂out/∂bus {d_bus} vs FD {fd_bus}"
            );
            assert!(
                (d_v - fd_v).abs() <= 1e-5 * fd_v.abs().max(1e-9),
                "∂out/∂V {d_v} vs FD {fd_v}"
            );
        }
        assert_eq!(
            dc.output_for_input_partials(Watts::ZERO, Volts::new(16.0)),
            (1.0, 0.0)
        );
    }

    #[test]
    fn inverse_partials_none_at_saturation() {
        // At a deeply sagged voltage the marginal loss exceeds unity and
        // the inverse map folds back; the IFT slope must refuse there.
        let dc = DcDcConverter::ultracap_side();
        // L_p = k_i/v̄ + … > 1 when v̄ < k_i (= 0.12 V).
        let result = dc.input_for_output_partials(Watts::new(100.0), Volts::new(0.05));
        assert!(result.is_none());
    }

    #[test]
    fn negative_coefficients_rejected() {
        let dc = DcDcConverter {
            quiescent_loss: -1.0,
            ..DcDcConverter::ultracap_side()
        };
        assert!(dc.validate().is_err());
        assert!(DcDcConverter::ultracap_side().validate().is_ok());
    }

    /// Pins the exact bits both power maps return at fixed operating
    /// points of each preset: a discharge near saturation (the battery
    /// preset saturates at ≈ 1.51 MW at 350 V, the ultracapacitor preset
    /// at ≈ 0.88 MW at 12 V), a transfer inside the 50 W quiescent ramp,
    /// and a charge — plus one FNV-style digest of the bits over a grid
    /// of voltages and transfers both ways, so a change that happens to
    /// round alike at the named points still moves a bit somewhere. Any
    /// reassociation, hoisted reciprocal or fused multiply-add in the loss
    /// model or the Newton inverse fails here before it reaches the
    /// golden traces.
    #[test]
    fn power_maps_are_pinned_bit_for_bit() {
        let presets = [
            (
                DcDcConverter::battery_side(),
                350.0,
                [
                    (1.35e6, 0x413f_515e_3c73_4b8c, 0x412f_d2ba_3f2a_fdba),
                    (20.0, 0x403d_7c00_af16_7ba7, 0x4029_6dae_4c1e_64dc),
                    (-30_000.0, 0xc0dd_ae37_3f7e_24b3, 0xc0dc_eb74_4b7d_6e64),
                ],
                [250.0, 300.0, 350.0, 400.0],
            ),
            (
                DcDcConverter::ultracap_side(),
                12.0,
                [
                    (8.0e5, 0x4132_e59c_79be_6aa5, 0x4122_be7e_7241_fbc2),
                    (20.0, 0x4039_4ab7_585a_8a78, 0x402f_0741_e4c2_232c),
                    (-5_000.0, 0xc0b3_d0ba_93f4_4561, 0xc0b3_4034_3df5_4c52),
                ],
                [6.0, 9.0, 12.0, 16.0],
            ),
        ];
        let mut digest = 0xcbf2_9ce4_8422_2325_u64;
        for (dc, v, points, grid_volts) in presets {
            let v = Volts::new(v);
            for (bus, input_bits, output_bits) in points {
                let bus = Watts::new(bus);
                let input = dc.input_for_output(bus, v).unwrap().value();
                let output = dc.output_for_input(bus, v).unwrap().value();
                assert_eq!(
                    input.to_bits(),
                    input_bits,
                    "input_for_output({bus:?}) = {input}"
                );
                assert_eq!(
                    output.to_bits(),
                    output_bits,
                    "output_for_input({bus:?}) = {output}"
                );
            }
            for v in grid_volts.map(Volts::new) {
                for p in [1.0, 20.0, 49.0, 51.0, 730.0, 4_100.0, 26_000.0, 170_000.0] {
                    for bus in [Watts::new(p), Watts::new(-p)] {
                        for x in [dc.input_for_output(bus, v), dc.output_for_input(bus, v)] {
                            // An infeasible transfer folds in as NaN.
                            let bits = x.map_or(f64::NAN, Watts::value).to_bits();
                            digest = (digest ^ bits).wrapping_mul(0x0100_0000_01b3);
                        }
                    }
                }
            }
        }
        assert_eq!(digest, 0x279f_fd73_ec84_fc6d, "grid digest {digest:#018x}");
    }
}
