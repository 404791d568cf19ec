//! Battery-pack aggregation: series strings × parallel groups of one cell
//! type, with a power-request interface used by the HEES layer.

use crate::cell::{Cell, CellSnapshot};
use crate::error::BatteryError;
use crate::params::CellParams;
use otem_units::{AmpHours, Amps, Kelvin, Ohms, Ratio, Seconds, Volts, Watts};
use serde::{Deserialize, Serialize};

/// Fraction of the present peak discharge power that
/// [`BatteryPack::draw_clamped_at`] requests when a draw is infeasible:
/// a hair inside the `V_oc²/(4R)` vertex, where the quadratic still has a
/// real root.
pub const PEAK_DRAW_MARGIN: f64 = 0.999;

/// Pack topology: `series` cells per string, `parallel` strings.
///
/// All cells are assumed identical and balanced, so the pack is the cell
/// scaled by the topology: `V_pack = series·V_cell`,
/// `R_pack = (series/parallel)·R_cell`, `C_pack = parallel·C_cell`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PackConfig {
    /// Cells in series per string.
    pub series: u32,
    /// Parallel strings.
    pub parallel: u32,
}

impl PackConfig {
    /// A Tesla-Model-S-like pack of 18650 cells: 96s × 74p
    /// (≈ 345 V nominal, ≈ 79 kWh with 3.1 Ah cells).
    pub const fn tesla_s_like() -> Self {
        Self {
            series: 96,
            parallel: 74,
        }
    }

    /// A compact-EV pack: 96s × 48p (≈ 52 kWh). Higher per-cell C-rates
    /// than the full-size pack, reproducing the thermal stress envelope
    /// of the paper's evaluation (battery temperatures approaching the
    /// 40 °C limit on aggressive cycles).
    pub const fn compact_ev() -> Self {
        Self {
            series: 96,
            parallel: 48,
        }
    }

    /// A city-EV pack: 96s × 16p (≈ 17 kWh). Sustained driving runs the
    /// cells near 1C with multi-C pulses — the regime where thermal and
    /// lifetime management genuinely matter (the paper's stress
    /// experiments).
    pub const fn city_ev() -> Self {
        Self {
            series: 96,
            parallel: 16,
        }
    }

    /// Total number of cells.
    #[inline]
    pub const fn cell_count(self) -> u64 {
        self.series as u64 * self.parallel as u64
    }

    /// Validates the topology.
    ///
    /// # Errors
    ///
    /// Returns [`BatteryError::InvalidParameter`] when either dimension is
    /// zero.
    pub fn validate(self) -> Result<(), BatteryError> {
        if self.series == 0 {
            return Err(BatteryError::InvalidParameter {
                name: "pack.series",
                value: 0.0,
                constraint: ">= 1",
            });
        }
        if self.parallel == 0 {
            return Err(BatteryError::InvalidParameter {
                name: "pack.parallel",
                value: 0.0,
                constraint: ">= 1",
            });
        }
        Ok(())
    }
}

impl Default for PackConfig {
    fn default() -> Self {
        Self::tesla_s_like()
    }
}

/// The resolved operating point for one power request against the pack.
///
/// Produced by [`BatteryPack::draw_power`]; apply it with
/// [`BatteryPack::integrate`]. Keeping resolve and apply separate lets the
/// MPC evaluate candidate power splits without mutating the plant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerDraw {
    /// Pack terminal power actually delivered (equals the request when
    /// feasible). Positive = discharge.
    pub terminal_power: Watts,
    /// Chemical power drawn from the cells: `V_oc · I`. This is the
    /// paper's `dE_bat` per unit time — terminal power plus internal loss.
    pub internal_power: Watts,
    /// Pack current (positive = discharge).
    pub current: Amps,
    /// Pack terminal voltage under load.
    pub terminal_voltage: Volts,
    /// Total heat generated by all cells (Eq. 4), input to the thermal
    /// model.
    pub heat: Watts,
    /// Per-cell discharge C-rate magnitude — the stress input to the
    /// aging model (Eq. 5).
    pub c_rate: f64,
}

impl PowerDraw {
    /// A zero/no-op draw (open-circuit pack).
    pub const IDLE: Self = Self {
        terminal_power: Watts::ZERO,
        internal_power: Watts::ZERO,
        current: Amps::ZERO,
        terminal_voltage: Volts::ZERO,
        heat: Watts::ZERO,
        c_rate: 0.0,
    };

    /// Internal (Joule + entropic) power lost inside the pack.
    pub fn loss(&self) -> Watts {
        self.internal_power - self.terminal_power
    }
}

/// Partial derivatives of a resolved [`PowerDraw`], row per output,
/// columns over the inputs `[∂/∂power, ∂/∂soc, ∂/∂temperature]`.
///
/// Produced by [`BatteryPack::draw_partials_at`] for the adjoint gradient's
/// backward sweep; every entry differentiates exactly the branch
/// [`BatteryPack::draw_power`] executes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrawPartials {
    /// Pack current sensitivities.
    pub current: [f64; 3],
    /// Chemical (internal) power sensitivities.
    pub internal_power: [f64; 3],
    /// Total pack heat sensitivities.
    pub heat: [f64; 3],
    /// Per-cell C-rate magnitude sensitivities.
    pub c_rate: [f64; 3],
    /// Slope of the pack open-circuit voltage in the state of charge
    /// (`series · dV_oc,cell/dSoC`) — lets the adjoint chain converter
    /// voltage sensitivities back to the coulomb counter.
    pub dvoc: f64,
}

/// The cell's model curves evaluated at one operating point — the pack's
/// state of charge and one temperature.
///
/// The open-circuit voltage (one exponential) and the internal resistance
/// (two) are the only transcendental work in a battery step. Built once
/// per step by [`BatteryPack::curves`] and handed to every consumer of
/// that step: [`BatteryPack::draw_power_at`], the peak-power envelope
/// and the converter voltage. The curves keep their exponentials, so the
/// partials ([`BatteryPack::draw_partials_at`],
/// [`BatteryPack::max_discharge_power_partials_at`]) price the slopes from
/// them without a transcendental of their own — and, being pure in the
/// curves, can run long after the pack's state has moved on. The plain
/// entry points ([`BatteryPack::draw_power`],
/// [`BatteryPack::max_discharge_power`]) evaluate the curves and
/// delegate, so both paths run the same arithmetic.
///
/// The forward consumers are valid only while the pack's state of charge
/// is the one the curves were built at (checked in debug builds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PackCurves {
    soc: Ratio,
    temperature: Kelvin,
    /// Pack open-circuit voltage `series·V_oc,cell` (V).
    voc: f64,
    /// Cell open-circuit voltage (V).
    voc_cell: f64,
    /// Cell internal resistance (Ω).
    r_cell: f64,
    /// The OCV fit's exponential `e^(v2·SoC)`.
    ocv_exponential: f64,
    /// The resistance fit's state-of-charge exponential `e^(r2·SoC)`.
    resistance_exponential: f64,
    /// The resistance fit's Arrhenius factor.
    arrhenius: f64,
}

impl PackCurves {
    /// Pack open-circuit voltage — bit-identical to
    /// [`BatteryPack::open_circuit_voltage`] at the same state.
    #[inline]
    pub fn open_circuit_voltage(&self) -> Volts {
        Volts::new(self.voc)
    }
}

/// A battery pack: one representative [`Cell`] scaled by a [`PackConfig`].
///
/// # Examples
///
/// ```
/// use otem_battery::{BatteryPack, CellParams, PackConfig};
/// use otem_units::{Kelvin, Seconds, Watts};
///
/// # fn main() -> Result<(), otem_battery::BatteryError> {
/// let mut pack = BatteryPack::new(CellParams::ncr18650a(), PackConfig::tesla_s_like())?;
/// let room = Kelvin::from_celsius(25.0);
/// let draw = pack.draw_power(Watts::new(50_000.0), room)?;
/// assert!(draw.internal_power > draw.terminal_power); // losses
/// pack.integrate(draw, Seconds::new(1.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatteryPack {
    cell: Cell,
    config: PackConfig,
}

/// Point-in-time copy of a [`BatteryPack`]'s mutable state.
///
/// The pack's topology and cell parameters are immutable, so only the
/// representative cell's state ([`CellSnapshot`]) is captured. `Copy`,
/// so capturing and restoring never allocates — the contract the MPC's
/// rollout workspaces rely on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PackSnapshot {
    cell: CellSnapshot,
}

impl BatteryPack {
    /// Builds a fully charged pack.
    ///
    /// # Errors
    ///
    /// Returns [`BatteryError::InvalidParameter`] if the cell parameters
    /// or topology fail validation.
    pub fn new(params: CellParams, config: PackConfig) -> Result<Self, BatteryError> {
        config.validate()?;
        Ok(Self {
            cell: Cell::new(params, Ratio::ONE)?,
            config,
        })
    }

    /// The pack topology.
    #[inline]
    pub fn config(&self) -> PackConfig {
        self.config
    }

    /// The representative cell.
    #[inline]
    pub fn cell(&self) -> &Cell {
        &self.cell
    }

    /// Pack state of charge (balanced pack ⇒ equals the cell SoC).
    #[inline]
    pub fn soc(&self) -> Ratio {
        self.cell.soc()
    }

    /// Overrides the state of charge.
    pub fn set_soc(&mut self, soc: Ratio) {
        self.cell.set_soc(soc);
    }

    /// Rated pack capacity in ampere-hours (`parallel · C_cell`).
    pub fn capacity(&self) -> AmpHours {
        self.cell.params().capacity * self.config.parallel as f64
    }

    /// Pack open-circuit voltage (`series · V_oc,cell`).
    pub fn open_circuit_voltage(&self) -> Volts {
        self.cell.open_circuit_voltage() * self.config.series as f64
    }

    /// Evaluates the cell curves at the present state of charge and
    /// `temperature`: three exponentials, shared by everything one step
    /// asks of the pack, and kept for the slopes its partials need.
    #[inline]
    pub fn curves(&self, temperature: Kelvin) -> PackCurves {
        let params = self.cell.params();
        let soc = self.cell.soc();
        let (voc_cell, ocv_exponential) = params.ocv.voltage_and_exponential(soc);
        let (r_cell, resistance_exponential, arrhenius) = params
            .resistance
            .resistance_and_exponentials(soc, temperature);
        PackCurves {
            soc,
            temperature,
            voc: (voc_cell * self.config.series as f64).value(),
            voc_cell: voc_cell.value(),
            r_cell: r_cell.value(),
            ocv_exponential,
            resistance_exponential,
            arrhenius,
        }
    }

    /// `(dV_oc,cell/dSoC, ∂R_cell/∂SoC, ∂R_cell/∂T)` at the operating
    /// point of `curves`, from their stored exponentials.
    #[inline]
    fn cell_slopes(&self, curves: &PackCurves) -> (f64, f64, f64) {
        let params = self.cell.params();
        let dvoc = params
            .ocv
            .slope_from_exponential(curves.soc, curves.ocv_exponential);
        let (dr_soc, dr_temp) = params.resistance.slopes_from_exponentials(
            curves.temperature,
            curves.resistance_exponential,
            curves.arrhenius,
        );
        (dvoc, dr_soc, dr_temp)
    }

    /// Pack resistance from prepared curves — the expression of
    /// [`BatteryPack::internal_resistance`].
    #[inline]
    fn resistance_at(&self, curves: &PackCurves) -> f64 {
        (Ohms::new(curves.r_cell) * self.config.series as f64 / self.config.parallel as f64).value()
    }

    /// Pack internal resistance (`series/parallel · R_cell`).
    pub fn internal_resistance(&self, temperature: Kelvin) -> Ohms {
        self.cell.internal_resistance(temperature) * self.config.series as f64
            / self.config.parallel as f64
    }

    /// Maximum terminal discharge power right now, honouring the cell
    /// datasheet current limit.
    pub fn max_discharge_power(&self, temperature: Kelvin) -> Watts {
        self.max_discharge_power_at(&self.curves(temperature))
    }

    /// [`BatteryPack::max_discharge_power`] from prepared curves.
    #[inline]
    pub fn max_discharge_power_at(&self, curves: &PackCurves) -> Watts {
        self.debug_check(curves);
        Watts::new(crate::kernel::peak_power(
            curves.voc_cell,
            curves.r_cell,
            self.cell.params().max_discharge_current,
        )) * self.config.cell_count() as f64
    }

    #[inline]
    fn debug_check(&self, curves: &PackCurves) {
        // Bitwise, so a non-finite state compares equal to itself.
        debug_assert_eq!(
            curves.soc.value().to_bits(),
            self.cell.soc().value().to_bits(),
            "pack curves used after the state of charge moved"
        );
    }

    /// Resolves a terminal power request into an operating point.
    ///
    /// Solves `P = V_oc·I − R·I²` for the pack current `I` (taking the
    /// root on the stable, low-current branch). Works for both discharge
    /// (`P > 0`) and charge (`P < 0`).
    ///
    /// # Errors
    ///
    /// Returns [`BatteryError::PowerInfeasible`] when the request exceeds
    /// the peak deliverable power `V_oc²/(4R)`.
    pub fn draw_power(&self, power: Watts, temperature: Kelvin) -> Result<PowerDraw, BatteryError> {
        self.draw_power_at(power, &self.curves(temperature))
    }

    /// [`BatteryPack::draw_power`] at the temperature and state of charge
    /// of prepared curves — no curve evaluation of its own.
    ///
    /// # Errors
    ///
    /// As [`BatteryPack::draw_power`].
    #[inline]
    pub fn draw_power_at(
        &self,
        power: Watts,
        curves: &PackCurves,
    ) -> Result<PowerDraw, BatteryError> {
        self.debug_check(curves);
        let voc = curves.voc;
        let r = self.resistance_at(curves);
        let p = power.value();

        if p == 0.0 {
            return Ok(PowerDraw {
                terminal_voltage: Volts::new(voc),
                ..PowerDraw::IDLE
            });
        }

        // The low-current (stable) root of `P = V_oc·I − R·I²`; no real
        // current delivers a request past the vertex `V_oc²/(4R)`.
        let discriminant = voc * voc - 4.0 * r * p;
        if discriminant < 0.0 {
            return Err(BatteryError::PowerInfeasible {
                requested: power,
                available: Watts::new(voc * voc / (4.0 * r)),
            });
        }
        let i = (voc - discriminant.sqrt()) / (2.0 * r);
        let current = Amps::new(i);
        let terminal_voltage = Volts::new(voc - r * i);
        let per_cell_current = Amps::new(i / self.config.parallel as f64);
        let heat_per_cell = Watts::new(crate::kernel::cell_heat(
            per_cell_current.value(),
            curves.r_cell,
            curves.temperature.value(),
            self.cell.params().entropy_coefficient,
        ));

        Ok(PowerDraw {
            terminal_power: power,
            internal_power: Watts::new(voc * i),
            current,
            terminal_voltage,
            heat: heat_per_cell * self.config.cell_count() as f64,
            c_rate: self.cell.c_rate(per_cell_current).abs(),
        })
    }

    /// [`BatteryPack::draw_power_at`], retried at [`PEAK_DRAW_MARGIN`] of
    /// the present peak ([`BatteryPack::max_discharge_power_at`]) when the
    /// request is infeasible: the pack delivers what it can instead of
    /// nothing.
    ///
    /// # Errors
    ///
    /// As [`BatteryPack::draw_power`], when even the retry is infeasible.
    #[inline]
    pub fn draw_clamped_at(
        &self,
        power: Watts,
        curves: &PackCurves,
    ) -> Result<PowerDraw, BatteryError> {
        self.draw_power_at(power, curves).or_else(|_| {
            let peak = self.max_discharge_power_at(curves) * PEAK_DRAW_MARGIN;
            self.draw_power_at(peak.min(power), curves)
        })
    }

    /// Partial derivatives of the operating point [`BatteryPack::draw_power`]
    /// resolves, with respect to the three inputs the rollout varies:
    /// requested terminal power, state of charge and temperature.
    ///
    /// Differentiates exactly the quadratic-solve branch of
    /// [`BatteryPack::draw_power`]: with `D = V_oc² − 4RP` and
    /// `I = (V_oc − √D)/(2R)`,
    ///
    /// * `∂I/∂P = 1/√D`,
    /// * `∂I/∂V_oc = (1 − V_oc/√D)/(2R)`,
    /// * `∂I/∂R = P/(R√D) − I/R`,
    ///
    /// chained through the fused OCV / resistance slopes. Returns `None`
    /// when the request is infeasible or sits on the `D = 0` peak-power
    /// boundary, where the square root is not differentiable.
    ///
    /// Priced at the operating point of prepared curves — no
    /// transcendental of its own, and independent of the pack's present
    /// state of charge.
    #[inline]
    pub fn draw_partials_at(&self, power: Watts, curves: &PackCurves) -> Option<DrawPartials> {
        let (dvoc_cell, drc_soc, drc_temp) = self.cell_slopes(curves);
        let temperature = curves.temperature;
        let series = self.config.series as f64;
        let parallel = self.config.parallel as f64;
        let cells = self.config.cell_count() as f64;
        let voc = curves.voc;
        let dvoc = dvoc_cell * series;
        let r = self.resistance_at(curves);
        let dr_soc = drc_soc * series / parallel;
        let dr_temp = drc_temp * series / parallel;
        let p = power.value();

        let disc = voc * voc - 4.0 * r * p;
        if disc <= 0.0 {
            return None;
        }
        let sqrt_d = disc.sqrt();
        let i = (voc - sqrt_d) / (2.0 * r);

        let di_dp = 1.0 / sqrt_d;
        let di_dvoc = (1.0 - voc / sqrt_d) / (2.0 * r);
        let di_dr = p / (r * sqrt_d) - i / r;
        let di_dsoc = di_dvoc * dvoc + di_dr * dr_soc;
        let di_dtemp = di_dr * dr_temp;

        // internal = V_oc·I
        let internal = [voc * di_dp, dvoc * i + voc * di_dsoc, voc * di_dtemp];

        // heat = cells·(i_pc²·R_cell + i_pc·T·κ), i_pc = I/parallel
        let i_pc = i / parallel;
        let kappa = self.cell.params().entropy_coefficient;
        let dheat_di =
            cells * (2.0 * i_pc * curves.r_cell + temperature.value() * kappa) / parallel;
        let heat = [
            dheat_di * di_dp,
            dheat_di * di_dsoc + cells * i_pc * i_pc * drc_soc,
            dheat_di * di_dtemp + cells * (i_pc * i_pc * drc_temp + i_pc * kappa),
        ];

        // c_rate = |i_pc| / C_eff
        let sign = if i_pc == 0.0 { 0.0 } else { i_pc.signum() };
        let dcr_di = sign / (parallel * self.cell.effective_capacity().value());
        let c_rate = [dcr_di * di_dp, dcr_di * di_dsoc, dcr_di * di_dtemp];

        Some(DrawPartials {
            current: [di_dp, di_dsoc, di_dtemp],
            internal_power: internal,
            heat,
            c_rate,
            dvoc,
        })
    }

    /// Partial derivatives `(∂P_peak/∂SoC, ∂P_peak/∂T)` of
    /// [`BatteryPack::max_discharge_power`] at the operating point of
    /// prepared curves — needed when a rollout clamps a request to the
    /// peak-power envelope and the gradient must follow the clamped
    /// branch. Independent of the pack's present state of charge.
    #[inline]
    pub fn max_discharge_power_partials_at(&self, curves: &PackCurves) -> (f64, f64) {
        let (dvoc, dr_soc, dr_temp) = self.cell_slopes(curves);
        let voc = curves.voc_cell;
        let r = curves.r_cell;
        let cells = self.config.cell_count() as f64;
        let i_peak = voc / (2.0 * r);
        let imax = self.cell.params().max_discharge_current;
        if i_peak < imax {
            // Interior peak: P = V_oc²/(4R).
            let d_soc = voc * dvoc / (2.0 * r) - i_peak * i_peak * dr_soc;
            let d_temp = -i_peak * i_peak * dr_temp;
            (cells * d_soc, cells * d_temp)
        } else {
            // Datasheet current limit binds: P = V_oc·I_max − R·I_max².
            let d_soc = dvoc * imax - dr_soc * imax * imax;
            let d_temp = -dr_temp * imax * imax;
            (cells * d_soc, cells * d_temp)
        }
    }

    /// Change in state of charge per ampere-second of *pack* current:
    /// the constant factor of [`BatteryPack::integrate`]'s coulomb count
    /// (`ΔSoC = −I_pack·dt · soc_per_amp_second`), used by the adjoint to
    /// chain through the integration step.
    #[inline]
    pub fn soc_per_amp_second(&self) -> f64 {
        1.0 / (self.config.parallel as f64 * self.cell.effective_capacity().to_coulombs().value())
    }

    /// Captures the pack's mutable state for a later
    /// [`BatteryPack::restore`].
    pub fn snapshot(&self) -> PackSnapshot {
        PackSnapshot {
            cell: self.cell.snapshot(),
        }
    }

    /// Rewinds the pack to a previously captured [`PackSnapshot`].
    pub fn restore(&mut self, snapshot: PackSnapshot) {
        self.cell.restore(snapshot.cell);
    }

    /// Applies a resolved operating point for one time step: advances the
    /// coulomb counter (Eq. 1).
    #[inline]
    pub fn integrate(&mut self, draw: PowerDraw, dt: Seconds) {
        let per_cell = draw.current / self.config.parallel as f64;
        self.cell.integrate_current(per_cell, dt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pack() -> BatteryPack {
        BatteryPack::new(CellParams::ncr18650a(), PackConfig::tesla_s_like()).expect("valid")
    }

    fn room() -> Kelvin {
        Kelvin::from_celsius(25.0)
    }

    #[test]
    fn topology_scaling() {
        let p = pack();
        let cell_voc = p.cell().open_circuit_voltage().value();
        assert!((p.open_circuit_voltage().value() - 96.0 * cell_voc).abs() < 1e-9);
        assert!((p.capacity().value() - 74.0 * 3.1).abs() < 1e-9);
        let cell_r = p.cell().internal_resistance(room()).value();
        let expect_r = 96.0 / 74.0 * cell_r;
        assert!((p.internal_resistance(room()).value() - expect_r).abs() < 1e-12);
    }

    #[test]
    fn compact_pack_is_smaller_but_same_voltage() {
        let big = BatteryPack::new(CellParams::ncr18650a(), PackConfig::tesla_s_like()).unwrap();
        let small = BatteryPack::new(CellParams::ncr18650a(), PackConfig::compact_ev()).unwrap();
        assert_eq!(big.open_circuit_voltage(), small.open_circuit_voltage());
        assert!(small.capacity() < big.capacity());
        // Same pack power ⇒ higher per-cell stress on the compact pack.
        let draw_big = big.draw_power(Watts::new(50_000.0), room()).unwrap();
        let draw_small = small.draw_power(Watts::new(50_000.0), room()).unwrap();
        assert!(draw_small.c_rate > draw_big.c_rate);
        assert!(draw_small.heat > draw_big.heat);
    }

    #[test]
    fn pack_energy_is_ev_scale() {
        let p = pack();
        // Nominal energy ≈ capacity · mid-voltage: should be tens of kWh.
        let nominal_wh = p.capacity().value() * p.open_circuit_voltage().value();
        assert!(
            (50_000.0..120_000.0).contains(&nominal_wh),
            "pack energy ≈ {nominal_wh} Wh"
        );
    }

    #[test]
    fn draw_power_solves_the_quadratic() {
        let p = pack();
        let req = Watts::new(40_000.0);
        let draw = p.draw_power(req, room()).expect("feasible");
        // The resolved current must reproduce the requested terminal power.
        let delivered = draw.terminal_voltage * draw.current;
        assert!((delivered.value() - req.value()).abs() < 1e-6);
        // Energy conservation: internal = terminal + I²R loss.
        let r = p.internal_resistance(room());
        let joule = Watts::new(draw.current.value().powi(2) * r.value());
        assert!((draw.loss().value() - joule.value()).abs() < 1e-6);
    }

    #[test]
    fn charging_request_produces_negative_current() {
        let p = pack();
        let draw = p
            .draw_power(Watts::new(-20_000.0), room())
            .expect("feasible");
        assert!(draw.current.value() < 0.0);
        assert!(draw.terminal_voltage > p.open_circuit_voltage());
        // Charging still dissipates heat in the resistance.
        assert!(draw.heat.value() > 0.0);
    }

    #[test]
    fn infeasible_power_is_reported_with_available() {
        let p = pack();
        let err = p.draw_power(Watts::new(1.0e9), room()).unwrap_err();
        match err {
            BatteryError::PowerInfeasible { available, .. } => {
                assert!(available.value() > 0.0);
                // The reported limit is itself feasible.
                assert!(p.draw_power(available * 0.999, room()).is_ok());
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn integrate_discharges_the_pack() {
        let mut p = pack();
        let draw = p
            .draw_power(Watts::new(60_000.0), room())
            .expect("feasible");
        let before = p.soc();
        p.integrate(draw, Seconds::new(60.0));
        assert!(p.soc() < before);
    }

    #[test]
    fn discharge_then_equal_charge_roughly_restores_soc() {
        let mut p = pack();
        p.set_soc(Ratio::new(0.6));
        let out = p
            .draw_power(Watts::new(30_000.0), room())
            .expect("feasible");
        p.integrate(out, Seconds::new(10.0));
        let inn = p
            .draw_power(Watts::new(-30_000.0), room())
            .expect("feasible");
        p.integrate(inn, Seconds::new(10.0));
        // Same terminal energy each way, but charging pushes less charge
        // per joule (higher terminal voltage) — SoC ends slightly lower.
        let end = p.soc().value();
        assert!(end < 0.6);
        assert!(end > 0.595, "round trip lost too much: {end}");
    }

    #[test]
    fn zero_power_is_identity() {
        let p = pack();
        let draw = p.draw_power(Watts::ZERO, room()).expect("feasible");
        assert_eq!(draw.current, Amps::ZERO);
        assert_eq!(draw.heat, Watts::ZERO);
        assert_eq!(draw.terminal_voltage, p.open_circuit_voltage());
    }

    #[test]
    fn snapshot_restore_round_trips_exactly() {
        let mut p = pack();
        p.set_soc(Ratio::new(0.55));
        let saved = p.snapshot();
        let reference = p.clone();
        let draw = p
            .draw_power(Watts::new(45_000.0), room())
            .expect("feasible");
        p.integrate(draw, Seconds::new(120.0));
        assert_ne!(p, reference);
        p.restore(saved);
        assert_eq!(p, reference);
    }

    #[test]
    fn degenerate_topology_rejected() {
        assert!(BatteryPack::new(
            CellParams::ncr18650a(),
            PackConfig {
                series: 0,
                parallel: 4
            }
        )
        .is_err());
        assert!(BatteryPack::new(
            CellParams::ncr18650a(),
            PackConfig {
                series: 4,
                parallel: 0
            }
        )
        .is_err());
    }

    #[test]
    fn max_discharge_power_is_feasible_boundary() {
        let p = pack();
        let p_max = p.max_discharge_power(room());
        // The datasheet-limited max power must be deliverable.
        assert!(p.draw_power(p_max * 0.999, room()).is_ok());
    }

    #[test]
    fn draw_partials_match_finite_differences() {
        let mut p = pack();
        for (soc, power_w, celsius) in [
            (0.8, 60_000.0, 25.0),
            (0.45, -30_000.0, 33.0),
            (0.25, 15_000.0, 10.0),
            (0.6, 90_000.0, 40.0),
        ] {
            p.set_soc(Ratio::new(soc));
            let temp = Kelvin::from_celsius(celsius);
            let power = Watts::new(power_w);
            let partials = p
                .draw_partials_at(power, &p.curves(temp))
                .expect("feasible point");

            let h_p = 1.0; // W
            let h_s = 1e-7;
            let h_t = 1e-4;
            let probe = |pk: &BatteryPack, pw: f64, t: Kelvin| {
                pk.draw_power(Watts::new(pw), t).expect("feasible")
            };
            let fd = |plus: PowerDraw, minus: PowerDraw, h: f64| {
                [
                    (plus.current.value() - minus.current.value()) / (2.0 * h),
                    (plus.internal_power.value() - minus.internal_power.value()) / (2.0 * h),
                    (plus.heat.value() - minus.heat.value()) / (2.0 * h),
                    (plus.c_rate - minus.c_rate) / (2.0 * h),
                ]
            };

            let dp = fd(
                probe(&p, power_w + h_p, temp),
                probe(&p, power_w - h_p, temp),
                h_p,
            );
            let mut hi = p.clone();
            hi.set_soc(Ratio::new(soc + h_s));
            let mut lo = p.clone();
            lo.set_soc(Ratio::new(soc - h_s));
            let ds = fd(probe(&hi, power_w, temp), probe(&lo, power_w, temp), h_s);
            let dt = fd(
                probe(&p, power_w, Kelvin::new(temp.value() + h_t)),
                probe(&p, power_w, Kelvin::new(temp.value() - h_t)),
                h_t,
            );

            let rows = [
                ("current", partials.current, [dp[0], ds[0], dt[0]]),
                ("internal", partials.internal_power, [dp[1], ds[1], dt[1]]),
                ("heat", partials.heat, [dp[2], ds[2], dt[2]]),
                ("c_rate", partials.c_rate, [dp[3], ds[3], dt[3]]),
            ];
            for (name, analytic, numeric) in rows {
                for k in 0..3 {
                    let scale = numeric[k].abs().max(1e-9);
                    assert!(
                        (analytic[k] - numeric[k]).abs() / scale < 1e-3,
                        "{name}[{k}] analytic {} vs FD {} at soc {soc}, P {power_w}, T {celsius}",
                        analytic[k],
                        numeric[k]
                    );
                }
            }
        }
    }

    #[test]
    fn draw_partials_none_at_infeasible_requests() {
        let p = pack();
        assert!(p
            .draw_partials_at(Watts::new(1.0e9), &p.curves(room()))
            .is_none());
    }

    #[test]
    fn peak_power_partials_match_finite_differences() {
        let mut p = pack();
        for soc in [0.3, 0.6, 0.9] {
            p.set_soc(Ratio::new(soc));
            let temp = room();
            let (d_soc, d_temp) = p.max_discharge_power_partials_at(&p.curves(temp));
            let h = 1e-6;
            let mut hi = p.clone();
            hi.set_soc(Ratio::new(soc + h));
            let mut lo = p.clone();
            lo.set_soc(Ratio::new(soc - h));
            let fd_soc = (hi.max_discharge_power(temp).value()
                - lo.max_discharge_power(temp).value())
                / (2.0 * h);
            let ht = 1e-4;
            let fd_temp = (p
                .max_discharge_power(Kelvin::new(temp.value() + ht))
                .value()
                - p.max_discharge_power(Kelvin::new(temp.value() - ht))
                    .value())
                / (2.0 * ht);
            assert!(
                (d_soc - fd_soc).abs() / fd_soc.abs().max(1.0) < 1e-3,
                "∂P/∂soc {d_soc} vs FD {fd_soc} at soc {soc}"
            );
            assert!(
                (d_temp - fd_temp).abs() / fd_temp.abs().max(1.0) < 1e-3,
                "∂P/∂T {d_temp} vs FD {fd_temp} at soc {soc}"
            );
        }
    }

    #[test]
    fn soc_per_amp_second_matches_integration() {
        let mut p = pack();
        p.set_soc(Ratio::new(0.5));
        let draw = p.draw_power(Watts::new(30_000.0), room()).expect("ok");
        let before = p.soc().value();
        let dt = Seconds::new(10.0);
        p.integrate(draw, dt);
        let delta = before - p.soc().value();
        let predicted = draw.current.value() * dt.value() * p.soc_per_amp_second();
        assert!(
            (delta - predicted).abs() < 1e-12,
            "Δsoc {delta} vs predicted {predicted}"
        );
    }

    #[test]
    fn open_circuit_voltage_slope_matches_finite_differences() {
        let mut p = pack();
        for soc in [0.05, 0.4, 0.85] {
            p.set_soc(Ratio::new(soc));
            let slope = p
                .draw_partials_at(Watts::new(10_000.0), &p.curves(room()))
                .expect("feasible draw")
                .dvoc;
            let h = 1e-7;
            let at = |s: f64| {
                let mut q = pack();
                q.set_soc(Ratio::new(s));
                q.open_circuit_voltage().value()
            };
            let fd = (at(soc + h) - at(soc - h)) / (2.0 * h);
            assert!(
                (slope - fd).abs() <= 1e-5 * fd.abs().max(1.0),
                "dV/dSoC {slope} vs FD {fd} at soc {soc}"
            );
        }
    }

    /// The per-call draw as it read before prepared curves: every
    /// quantity re-evaluates its own curve.
    fn per_call_draw(p: &BatteryPack, power: Watts, t: Kelvin) -> Option<PowerDraw> {
        let voc = p.open_circuit_voltage().value();
        let r = p.internal_resistance(t).value();
        let pw = power.value();
        if pw == 0.0 {
            return Some(PowerDraw {
                terminal_voltage: Volts::new(voc),
                ..PowerDraw::IDLE
            });
        }
        let disc = voc * voc - 4.0 * r * pw;
        if disc < 0.0 {
            return None;
        }
        let i = (voc - disc.sqrt()) / (2.0 * r);
        let per_cell = Amps::new(i / p.config().parallel as f64);
        let cells = p.config().cell_count() as f64;
        Some(PowerDraw {
            terminal_power: power,
            internal_power: Watts::new(voc * i),
            current: Amps::new(i),
            terminal_voltage: Volts::new(voc - r * i),
            heat: p.cell().heat_generation(per_cell, t) * cells,
            c_rate: p.cell().c_rate(per_cell).abs(),
        })
    }

    /// The per-call peak power: `V_oc·I − R·I²` at the capped vertex.
    fn per_call_peak(p: &BatteryPack, t: Kelvin) -> Watts {
        let voc = p.cell().open_circuit_voltage().value();
        let r = p.cell().internal_resistance(t).value();
        let i = (voc / (2.0 * r)).min(p.cell().params().max_discharge_current);
        Watts::new(voc * i - r * i * i) * p.config().cell_count() as f64
    }

    /// The per-call draw partials: fused curves evaluated inside.
    fn per_call_partials(p: &BatteryPack, power: Watts, t: Kelvin) -> Option<DrawPartials> {
        let params = p.cell().params();
        let (voc_cell, e_ocv) = params.ocv.voltage_and_exponential(p.soc());
        let dvoc_cell = params.ocv.slope_from_exponential(p.soc(), e_ocv);
        let (r_cell, e_r, factor) = params.resistance.resistance_and_exponentials(p.soc(), t);
        let (drc_soc, drc_temp) = params.resistance.slopes_from_exponentials(t, e_r, factor);
        let series = p.config().series as f64;
        let parallel = p.config().parallel as f64;
        let cells = p.config().cell_count() as f64;
        let voc = voc_cell.value() * series;
        let dvoc = dvoc_cell * series;
        let r = r_cell.value() * series / parallel;
        let dr_soc = drc_soc * series / parallel;
        let dr_temp = drc_temp * series / parallel;
        let pw = power.value();
        let disc = voc * voc - 4.0 * r * pw;
        if disc <= 0.0 {
            return None;
        }
        let sqrt_d = disc.sqrt();
        let i = (voc - sqrt_d) / (2.0 * r);
        let di_dp = 1.0 / sqrt_d;
        let di_dvoc = (1.0 - voc / sqrt_d) / (2.0 * r);
        let di_dr = pw / (r * sqrt_d) - i / r;
        let di_dsoc = di_dvoc * dvoc + di_dr * dr_soc;
        let di_dtemp = di_dr * dr_temp;
        let i_pc = i / parallel;
        let kappa = params.entropy_coefficient;
        let dheat_di = cells * (2.0 * i_pc * r_cell.value() + t.value() * kappa) / parallel;
        let sign = if i_pc == 0.0 { 0.0 } else { i_pc.signum() };
        let dcr_di = sign / (parallel * p.cell().effective_capacity().value());
        Some(DrawPartials {
            current: [di_dp, di_dsoc, di_dtemp],
            internal_power: [voc * di_dp, dvoc * i + voc * di_dsoc, voc * di_dtemp],
            heat: [
                dheat_di * di_dp,
                dheat_di * di_dsoc + cells * i_pc * i_pc * drc_soc,
                dheat_di * di_dtemp + cells * (i_pc * i_pc * drc_temp + i_pc * kappa),
            ],
            c_rate: [dcr_di * di_dp, dcr_di * di_dsoc, dcr_di * di_dtemp],
            dvoc,
        })
    }

    fn draw_bits(d: &PowerDraw) -> [u64; 6] {
        [
            d.terminal_power.value().to_bits(),
            d.internal_power.value().to_bits(),
            d.current.value().to_bits(),
            d.terminal_voltage.value().to_bits(),
            d.heat.value().to_bits(),
            d.c_rate.to_bits(),
        ]
    }

    fn partial_bits(d: &DrawPartials) -> Vec<u64> {
        [d.current, d.internal_power, d.heat, d.c_rate]
            .iter()
            .flatten()
            .chain([&d.dvoc])
            .map(|x| x.to_bits())
            .collect()
    }

    #[test]
    fn prepared_curves_reproduce_the_per_call_formulas_bitwise() {
        let mut p = pack();
        let mut compared = 0;
        for soc in [0.0, 0.02, 0.1, 0.35, 0.6, 0.9, 1.0] {
            p.set_soc(Ratio::new(soc));
            // 150 K sits below the resistance curve's evaluation floor.
            for t in [150.0, 268.15, 298.15, 313.15] {
                let t = Kelvin::new(t);
                let curves = p.curves(t);
                assert_eq!(curves.open_circuit_voltage(), p.open_circuit_voltage());
                let peak = per_call_peak(&p, t);
                assert_eq!(
                    p.max_discharge_power_at(&curves).value().to_bits(),
                    peak.value().to_bits()
                );
                // Zero transfer, discharge, charge, the 99.9 % peak
                // fallback the HEES step draws, and an infeasible request.
                for power in [
                    0.0,
                    5_000.0,
                    60_000.0,
                    -30_000.0,
                    0.999 * peak.value(),
                    1.0e9,
                ] {
                    let power = Watts::new(power);
                    let want = per_call_draw(&p, power, t);
                    let got = p.draw_power_at(power, &curves).ok();
                    assert_eq!(want.is_some(), got.is_some(), "soc {soc}, {t:?}, {power:?}");
                    if let (Some(w), Some(g)) = (&want, &got) {
                        assert_eq!(draw_bits(w), draw_bits(g), "soc {soc}, {t:?}, {power:?}");
                        compared += 1;
                    }
                    assert_eq!(
                        p.draw_power(power, t).ok().as_ref().map(draw_bits),
                        want.as_ref().map(draw_bits)
                    );
                    let want = per_call_partials(&p, power, t);
                    let got = p.draw_partials_at(power, &curves);
                    assert_eq!(
                        want.as_ref().map(partial_bits),
                        got.as_ref().map(partial_bits),
                        "partials at soc {soc}, {t:?}, {power:?}"
                    );
                }
            }
        }
        assert!(
            compared > 100,
            "grid exercised only {compared} feasible draws"
        );
    }

    /// Pins the exact bits of [`BatteryPack::draw_power_at`]'s operating
    /// point (terminal power, internal power, current, terminal voltage,
    /// heat, C-rate) at fixed states — a nominal discharge, a warm charge,
    /// and a cold, depleted high-current discharge — plus one digest over
    /// a grid of states and requests. A reassociation, hoisted reciprocal
    /// or fused multiply-add in the quadratic solve or the heat law fails
    /// here, not only in the golden traces.
    #[test]
    fn draw_power_at_is_pinned_bit_for_bit() {
        let mut p = pack();
        for (soc, celsius, power, bits) in [
            (
                0.8,
                25.0,
                50_000.0,
                [
                    0x40e8_6a00_0000_0000,
                    0x40e9_4bd5_df54_20c8,
                    0x4061_1853_a8cf_c3a2,
                    0x4076_d9a7_9164_4bd6,
                    0x4096_1cf8_caf0_67a8,
                    0x3fe3_13c8_44c1_7771,
                ],
            ),
            (
                0.5,
                40.0,
                -30_000.0,
                [
                    0xc0dd_4c00_0000_0000,
                    0xc0dc_d95b_7eb3_920c,
                    0xc054_3a20_019f_b076,
                    0x4077_2ca6_3b02_d4c3,
                    0x4085_ee66_21f8_ca1a,
                    0x3fd6_928d_8297_de97,
                ],
            ),
            (
                0.2,
                0.0,
                150_000.0,
                [
                    0x4102_4f80_0000_0000,
                    0x410a_6b20_7557_5448,
                    0x4082_e993_24f2_f37f,
                    0x406e_fb4d_bf76_c6f7,
                    0x40ef_a822_bfcd_24f4,
                    0x4005_1afa_5bac_b1fd,
                ],
            ),
        ] {
            p.set_soc(Ratio::new(soc));
            let curves = p.curves(Kelvin::from_celsius(celsius));
            let draw = p
                .draw_power_at(Watts::new(power), &curves)
                .expect("feasible");
            assert_eq!(
                draw_bits(&draw),
                bits,
                "soc {soc}, {celsius} °C, {power} W: {draw:?}"
            );
        }
        let mut grid = Vec::new();
        for soc in [0.1, 0.35, 0.6, 0.85, 1.0] {
            p.set_soc(Ratio::new(soc));
            for celsius in [0.0, 25.0, 45.0] {
                let curves = p.curves(Kelvin::from_celsius(celsius));
                for power in [-60_000.0, -5_000.0, 1_000.0, 30_000.0, 90_000.0] {
                    // An infeasible request folds in as NaN.
                    match p.draw_power_at(Watts::new(power), &curves) {
                        Ok(d) => grid.extend(draw_bits(&d)),
                        Err(_) => grid.push(f64::NAN.to_bits()),
                    }
                }
            }
        }
        let digest = crate::bits_digest(grid);
        assert_eq!(digest, 0x97ce_8dda_aafe_1941, "grid digest {digest:#018x}");
    }
}
