//! The hybrid (DC-bus) architecture — each storage behind its own DC/DC
//! converter (\[3\]); the architecture OTEM controls.

use crate::error::HeesError;
use crate::step::HeesStep;
use otem_battery::{
    BatteryPack, CellParams, PackConfig, PackCurves, PackSnapshot, PowerDraw, PEAK_DRAW_MARGIN,
};
use otem_converter::DcDcConverter;
use otem_ultracap::{CapDraw, UltracapBank, UltracapParams};
use otem_units::{Farads, Kelvin, Ratio, Seconds, Volts, Watts};
use serde::{Deserialize, Serialize};

/// Adjoints of the outputs of one [`HybridHees::step`]: the sensitivity
/// of a downstream cost to each output the step feeds it. The input of
/// [`HybridHees::step_pullback`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeesOutputAdjoints {
    /// Bus power actually delivered.
    pub delivered: f64,
    /// Internal power of both storages, [`HeesStep::hees_power`].
    pub internal: f64,
    /// Battery heat generation.
    pub heat: f64,
    /// Battery C-rate magnitude.
    pub c_rate: f64,
    /// Post-step battery state of charge.
    pub soc_next: f64,
    /// Post-step ultracapacitor state of energy.
    pub soe_next: f64,
}

/// Adjoints of the inputs of one [`HybridHees::step`], returned by
/// [`HybridHees::step_pullback`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeesInputAdjoints {
    /// Battery bus-power command.
    pub battery_bus: f64,
    /// Ultracapacitor bus-power command.
    pub cap_bus: f64,
    /// Battery temperature.
    pub temperature: f64,
    /// Pre-step battery state of charge.
    pub soc: f64,
    /// Pre-step ultracapacitor state of energy.
    pub soe: f64,
}

/// The primal record of one [`HybridHees::step_prepared`]: every
/// operating point the value-only step resolved — the pack curves (their
/// exponentials already evaluated), the resolved battery and bank draws,
/// each converter's operating point, the pre-step state of energy and
/// the post-step states.
///
/// [`HybridHees::step_pullback`] differentiates the step from the record
/// alone, after the plant has moved on, so a rollout pays for
/// derivatives only at the points a solver actually differentiates.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HeesStepRecord {
    /// The battery leg, absent when its converter or draw failed.
    battery: Option<BatteryLegRecord>,
    /// The ultracapacitor leg, absent when its converter or draw failed.
    cap: Option<CapLegRecord>,
}

/// The battery leg of a [`HeesStepRecord`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct BatteryLegRecord {
    /// Commanded bus power.
    bus: Watts,
    /// Storage power the converter asked of the pack.
    storage_power: Watts,
    /// The pack curves at the pre-step state.
    curves: PackCurves,
    /// The resolved draw — the 99.9 % peak fallback when the request
    /// was infeasible.
    draw: PowerDraw,
    /// Post-step state of charge.
    soc_post: f64,
}

/// The ultracapacitor leg of a [`HeesStepRecord`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct CapLegRecord {
    /// Commanded bus power.
    bus: Watts,
    /// Pre-step state of energy.
    soe: Ratio,
    /// Bank voltage at `soe`.
    voltage: Volts,
    /// Storage power the converter asked of the bank.
    storage_power: Watts,
    /// `storage_power` clamped into the bank's envelope.
    clamped: Watts,
    /// Bus power the leg achieved.
    bus_got: Watts,
    /// The resolved draw.
    draw: CapDraw,
    /// Post-step state of energy.
    soe_post: f64,
}

/// The decision-independent inputs of a [`HybridHees`] step at one step
/// length: the step length itself and the ultracapacitor's
/// self-discharge factor `e^{−dt/τ}`. Built by
/// [`HybridHees::step_constants`] — once per solve by the MPC's stage
/// constants — and passed to every [`HybridHees::step_prepared`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeesStepConstants {
    dt: Seconds,
    leak: f64,
}

impl HeesStepConstants {
    /// The step length the constants were built for.
    #[inline]
    pub fn dt(&self) -> Seconds {
        self.dt
    }
}

/// Independent bus-side power commands for the two storages.
///
/// Positive = the storage delivers power to the bus; negative = power is
/// taken off the bus into the storage (pre-charging the ultracapacitor,
/// or routing regeneration).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct HybridCommand {
    /// Battery bus-side power.
    pub battery_bus: Watts,
    /// Ultracapacitor bus-side power.
    pub cap_bus: Watts,
}

impl HybridCommand {
    /// Net power the command puts on the bus.
    #[inline]
    pub fn net(&self) -> Watts {
        self.battery_bus + self.cap_bus
    }
}

/// Battery and ultracapacitor on a common DC bus through converters.
///
/// The controller (OTEM's MPC, or any policy) commands bus-side power for
/// each storage independently. Conversion losses depend on each
/// storage's voltage — the ultracapacitor's converter efficiency sags
/// with √SoE, which is exactly the coupling OTEM's cost function prices.
///
/// # Examples
///
/// ```
/// use otem_hees::{HybridCommand, HybridHees};
/// use otem_units::{Farads, Kelvin, Ratio, Seconds, Watts};
///
/// # fn main() -> Result<(), otem_hees::HeesError> {
/// let mut hees = HybridHees::ev_default(Farads::new(25_000.0))?;
/// hees.set_state(Ratio::ONE, Ratio::from_percent(60.0));
/// // Serve 20 kW from the battery while pre-charging the cap with 5 kW:
/// let step = hees.step(
///     HybridCommand {
///         battery_bus: Watts::new(25_000.0),
///         cap_bus: Watts::new(-5_000.0),
///     },
///     Kelvin::from_celsius(25.0),
///     Seconds::new(1.0),
/// );
/// assert!(step.converter_loss.value() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HybridHees {
    battery: BatteryPack,
    cap: UltracapBank,
    battery_converter: DcDcConverter,
    cap_converter: DcDcConverter,
}

/// Point-in-time copy of a [`HybridHees`]'s mutable state.
///
/// [`HybridHees::step`] mutates only the battery's coulomb counter and
/// the ultracapacitor's state of energy; converters and all parameters
/// are immutable. This `Copy` struct therefore captures the whole plant
/// state, letting speculative rollouts run
/// [`HybridHees::snapshot`] → mutate → [`HybridHees::restore`] on one
/// long-lived plant instead of deep-cloning the plant per evaluation —
/// the MPC's gradient loop does exactly this thousands of times per
/// solve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HeesSnapshot {
    battery: PackSnapshot,
    soe: Ratio,
}

impl HybridHees {
    /// Builds the paper's EV configuration: Tesla-S-like pack and a
    /// native-voltage (16 V rated) bank of the given capacitance behind
    /// their converters.
    ///
    /// # Errors
    ///
    /// Returns [`HeesError`] when any component's parameters fail
    /// validation.
    pub fn ev_default(capacitance: Farads) -> Result<Self, HeesError> {
        let battery = BatteryPack::new(CellParams::ncr18650a(), PackConfig::tesla_s_like())?;
        Self::new(
            battery,
            UltracapParams::paper_bank(capacitance),
            DcDcConverter::battery_side(),
            DcDcConverter::ultracap_side(),
        )
    }

    /// Builds from explicit components.
    ///
    /// # Errors
    ///
    /// Returns [`HeesError`] when the bank or converter parameters fail
    /// validation.
    pub fn new(
        battery: BatteryPack,
        cap_params: UltracapParams,
        battery_converter: DcDcConverter,
        cap_converter: DcDcConverter,
    ) -> Result<Self, HeesError> {
        battery_converter.validate()?;
        cap_converter.validate()?;
        Ok(Self {
            battery,
            cap: UltracapBank::new(cap_params)?,
            battery_converter,
            cap_converter,
        })
    }

    /// The battery pack.
    pub fn battery(&self) -> &BatteryPack {
        &self.battery
    }

    /// The ultracapacitor bank.
    pub fn cap(&self) -> &UltracapBank {
        &self.cap
    }

    /// Battery state of charge.
    #[inline]
    pub fn soc(&self) -> Ratio {
        self.battery.soc()
    }

    /// Ultracapacitor state of energy.
    #[inline]
    pub fn soe(&self) -> Ratio {
        self.cap.soe()
    }

    /// Sets initial conditions.
    pub fn set_state(&mut self, soc: Ratio, soe: Ratio) {
        self.battery.set_soc(soc);
        self.cap.set_soe(soe);
    }

    /// Captures the plant's mutable state for a later
    /// [`HybridHees::restore`]. Never allocates.
    pub fn snapshot(&self) -> HeesSnapshot {
        HeesSnapshot {
            battery: self.battery.snapshot(),
            soe: self.cap.soe(),
        }
    }

    /// Rewinds the plant to a previously captured [`HeesSnapshot`].
    /// Never allocates.
    pub fn restore(&mut self, snapshot: HeesSnapshot) {
        self.battery.restore(snapshot.battery);
        self.cap.set_soe(snapshot.soe);
    }

    /// Executes one control period. Each leg clamps independently to its
    /// feasibility envelope; the clamped remainder shows up as
    /// [`HeesStep::shortfall`] relative to the commanded net.
    pub fn step(&mut self, command: HybridCommand, temperature: Kelvin, dt: Seconds) -> HeesStep {
        let constants = self.step_constants(dt);
        self.step_prepared(
            command,
            temperature,
            &constants,
            &mut HeesStepRecord::default(),
        )
    }

    /// The decision-independent constants of a step of length `dt`.
    pub fn step_constants(&self, dt: Seconds) -> HeesStepConstants {
        HeesStepConstants {
            dt,
            leak: self.cap.leak_factor(dt),
        }
    }

    /// The single-step implementation behind [`HybridHees::step`], with
    /// the step constants evaluated by the caller. Computes values
    /// only, and overwrites `record` with the operating points
    /// [`HybridHees::step_pullback`] needs to differentiate the step
    /// later.
    ///
    /// Each state-dependent model curve is evaluated once: the battery's
    /// OCV and resistance (three exponentials) and the bank's `√SoE`,
    /// shared by the draw, the heat law and the converter voltage.
    #[inline]
    pub fn step_prepared(
        &mut self,
        command: HybridCommand,
        temperature: Kelvin,
        constants: &HeesStepConstants,
        record: &mut HeesStepRecord,
    ) -> HeesStep {
        debug_assert_eq!(
            constants.leak.to_bits(),
            self.cap.leak_factor(constants.dt).to_bits(),
            "step constants built for a different bank"
        );
        let dt = constants.dt;
        let mut converter_loss = Watts::ZERO;
        let mut delivered = Watts::ZERO;
        record.battery = None;
        record.cap = None;

        // --- Battery leg -------------------------------------------------
        let (bat_internal, bat_heat, bat_c_rate) = {
            let bus = command.battery_bus;
            let curves = self.battery.curves(temperature);
            let v = curves.open_circuit_voltage();
            let storage_request = if bus.value() >= 0.0 {
                self.battery_converter.input_for_output(bus, v)
            } else {
                self.battery_converter.output_for_input(bus, v)
            };
            match storage_request {
                Ok(storage_power) => {
                    match self.battery.draw_clamped_at(storage_power, &curves) {
                        Ok(d) => {
                            // Bus power actually achieved on this leg (a
                            // pure function of the resolved draw — safe
                            // to price before integrating).
                            let bus_got = if d.terminal_power == storage_power {
                                bus
                            } else if bus.value() >= 0.0 {
                                // Re-map the clamped storage power to bus.
                                self.battery_converter
                                    .output_for_input(d.terminal_power, v)
                                    .unwrap_or(Watts::ZERO)
                            } else {
                                bus
                            };
                            self.battery.integrate(d, dt);
                            record.battery = Some(BatteryLegRecord {
                                bus,
                                storage_power,
                                curves,
                                draw: d,
                                soc_post: self.battery.soc().value(),
                            });
                            delivered += bus_got;
                            converter_loss += (d.terminal_power - bus_got).abs();
                            (d.internal_power, d.heat, d.c_rate)
                        }
                        Err(_) => (Watts::ZERO, Watts::ZERO, 0.0),
                    }
                }
                Err(_) => (Watts::ZERO, Watts::ZERO, 0.0),
            }
        };

        // --- Ultracapacitor leg ------------------------------------------
        let cap_internal = {
            let bus = command.cap_bus;
            let soe = self.cap.soe();
            let v = self.cap.voltage();
            let storage_request = if bus.value() >= 0.0 {
                self.cap_converter.input_for_output(bus, v)
            } else {
                self.cap_converter.output_for_input(bus, v)
            };
            match storage_request {
                Ok(storage_power) => {
                    // Clamp into the bank's envelope.
                    let clamped = Watts::new(storage_power.value().clamp(
                        -self.cap.max_charge_power().value(),
                        self.cap.max_discharge_power().value(),
                    ));
                    match self.cap.draw_power_at(clamped, v) {
                        Ok(d) => {
                            let bus_got = if clamped == storage_power {
                                bus
                            } else if bus.value() >= 0.0 {
                                self.cap_converter
                                    .output_for_input(clamped, v)
                                    .unwrap_or(Watts::ZERO)
                            } else {
                                // Charge leg clamped: less is taken off the
                                // bus than commanded.
                                self.cap_converter
                                    .input_for_output(clamped, v)
                                    .unwrap_or(Watts::ZERO)
                            };
                            self.cap.integrate_with_leak(d, dt, constants.leak);
                            record.cap = Some(CapLegRecord {
                                bus,
                                soe,
                                voltage: v,
                                storage_power,
                                clamped,
                                bus_got,
                                draw: d,
                                soe_post: self.cap.soe().value(),
                            });
                            delivered += bus_got;
                            converter_loss += (d.terminal_power - bus_got).abs();
                            d.internal_power
                        }
                        Err(_) => Watts::ZERO,
                    }
                }
                Err(_) => Watts::ZERO,
            }
        };

        let net = command.net();
        HeesStep {
            delivered,
            shortfall: Watts::new((net.value() - delivered.value()).max(0.0)),
            battery_internal: bat_internal,
            cap_internal,
            battery_heat: bat_heat,
            battery_c_rate: bat_c_rate,
            converter_loss,
        }
    }

    /// Pulls the adjoints of the step's outputs back onto its inputs,
    /// `ᾱ = Jᵀ·λ̄` for the step `record` describes, differentiating the
    /// operating points it holds: the pack slopes from the recorded
    /// curves' exponentials, the bank's voltage slope at the recorded
    /// pre-step state of energy, and the converter partials at the
    /// recorded operating points. Every term is the exact partial of the
    /// branch the forward step executed (converter direction, envelope
    /// clamps, peak-power fallback, saturation of either coulomb
    /// counter), so the pullback sees the same piecewise function finite
    /// differences would.
    ///
    /// The battery leg fills the battery-bus, temperature and SoC
    /// adjoints and the bank leg the bank-bus and SoE adjoints: neither
    /// leg reads the other's command or state. Reads none of the plant's
    /// mutable state, so it runs after any number of later steps;
    /// `constants` must be the ones the step ran with.
    #[inline]
    pub fn step_pullback(
        &self,
        record: &HeesStepRecord,
        constants: &HeesStepConstants,
        out: &HeesOutputAdjoints,
    ) -> HeesInputAdjoints {
        // A leg that errored out left its storage untouched: its state
        // passes its adjoint straight through.
        let [battery_bus, soc, temperature] = match &record.battery {
            Some(leg) => self.battery_leg_pullback(leg, constants.dt, out),
            None => [0.0, out.soc_next, 0.0],
        };
        let [cap_bus, soe] = match &record.cap {
            Some(leg) => self.cap_leg_pullback(leg, constants, out),
            None => [0.0, out.soe_next],
        };
        HeesInputAdjoints {
            battery_bus,
            cap_bus,
            temperature,
            soc,
            soe,
        }
    }

    /// The battery leg's input adjoints over `[P_bus, SoC, T]` for the
    /// branch the forward pass executed. The draw partials differentiate
    /// at the pre-step state of charge the recorded curves were built at.
    #[inline]
    fn battery_leg_pullback(
        &self,
        leg: &BatteryLegRecord,
        dt: Seconds,
        out: &HeesOutputAdjoints,
    ) -> [f64; 3] {
        let BatteryLegRecord {
            bus,
            storage_power,
            ref curves,
            draw: d,
            soc_post,
        } = *leg;
        // A saturated coulomb counter is flat in every input.
        let i = d.current.value();
        let l_soc = if (soc_post == 0.0 && i > 0.0) || (soc_post == 1.0 && i < 0.0) {
            0.0
        } else {
            out.soc_next
        };
        let Some(dp) = self.battery.draw_partials_at(d.terminal_power, curves) else {
            return [0.0, l_soc, 0.0];
        };
        let v = curves.open_circuit_voltage();
        let nominal = d.terminal_power == storage_power;
        // Sensitivities of the storage power actually drawn, over
        // [∂/∂P_bus, ∂/∂SoC, ∂/∂T].
        let (p_pb, p_soc, p_t) = if nominal {
            if bus.value() == 0.0 {
                // Exactly zero transfer sits on the converter's |P| kink,
                // where a central finite difference measures the *mean*
                // of the two one-sided slopes. The adjoint adopts that
                // subgradient convention so the MPC walks the solve path
                // central differences did (the frozen FD golden trace
                // was blessed with them). The voltage chain vanishes
                // in the limit from either side.
                let (g_dis, g_chg) = self.battery_converter.zero_transfer_gain_limits(v);
                (0.5 * (g_dis + g_chg), 0.0, 0.0)
            } else {
                let (g_bus, g_v) = if bus.value() >= 0.0 {
                    match self
                        .battery_converter
                        .input_for_output_partials(storage_power, v)
                    {
                        Some(g) => g,
                        None => return [0.0, l_soc, 0.0],
                    }
                } else {
                    self.battery_converter.output_for_input_partials(bus, v)
                };
                // The converter voltage is the OCV, a function of SoC alone.
                (g_bus, g_v * dp.dvoc, 0.0)
            }
        } else {
            // Fallback drew PEAK_DRAW_MARGIN of the SoC/temperature-
            // dependent peak; the bus command no longer reaches the pack.
            let (dpk_soc, dpk_t) = self.battery.max_discharge_power_partials_at(curves);
            (0.0, PEAK_DRAW_MARGIN * dpk_soc, PEAK_DRAW_MARGIN * dpk_t)
        };
        let chain = |row: [f64; 3]| -> [f64; 3] {
            [
                row[0] * p_pb,
                row[1] + row[0] * p_soc,
                row[2] + row[0] * p_t,
            ]
        };
        let internal = chain(dp.internal_power);
        let heat = chain(dp.heat);
        let mut c_rate = chain(dp.c_rate);
        let current = chain(dp.current);
        if nominal && bus.value() == 0.0 {
            // The C-rate magnitude has its own kink at zero current: the
            // one-sided row slopes ±∂I/∂P cancel in the mean (the pack
            // partials report zero there), but each pairs with a
            // *different* converter gain, leaving the central-difference
            // mean of the products ½(g₊·s − g₋·s) = ½(g₊ − g₋)·s.
            let (g_dis, g_chg) = self.battery_converter.zero_transfer_gain_limits(v);
            let dcr_di = 1.0
                / (self.battery.config().parallel as f64
                    * self.battery.cell().effective_capacity().value());
            c_rate[0] = 0.5 * (g_dis - g_chg) * dp.current[0] * dcr_di;
        }
        // SoC⁺ = SoC − I_pack·dt/(parallel·Q_cell).
        let scale = dt.value() * self.battery.soc_per_amp_second();
        let soc_next = [
            -scale * current[0],
            1.0 - scale * current[1],
            -scale * current[2],
        ];
        let delivered = if nominal || bus.value() < 0.0 {
            // The commanded bus power was met exactly.
            [1.0, 0.0, 0.0]
        } else {
            // Clamped discharge: delivered = forward-map of the peak draw.
            let (f_p, f_v) = self
                .battery_converter
                .output_for_input_partials(d.terminal_power, v);
            [0.0, f_p * p_soc + f_v * dp.dvoc, f_p * p_t]
        };
        std::array::from_fn(|c| {
            out.delivered * delivered[c]
                + out.internal * internal[c]
                + out.heat * heat[c]
                + out.c_rate * c_rate[c]
                + l_soc * soc_next[c]
        })
    }

    /// The ultracapacitor leg's input adjoints over `[P_bus, SoE]` for
    /// the branch the forward pass executed, at the recorded pre-step
    /// bank voltage and its slope.
    #[inline]
    fn cap_leg_pullback(
        &self,
        leg: &CapLegRecord,
        constants: &HeesStepConstants,
        out: &HeesOutputAdjoints,
    ) -> [f64; 2] {
        let CapLegRecord {
            bus,
            soe,
            voltage: v,
            storage_power,
            clamped,
            bus_got,
            draw: d,
            soe_post,
        } = *leg;
        // A saturated state of energy is flat in every input.
        let l_soe = if soe_post == 0.0 || soe_post == 1.0 {
            0.0
        } else {
            out.soe_next
        };
        let dv_dsoe = self.cap.voltage_slope(soe);
        let Some(dp) = self.cap.draw_partials_at(d.terminal_power, v, dv_dsoe) else {
            return [0.0, l_soe];
        };
        let nominal = clamped == storage_power;
        // Sensitivities of the clamped storage power, over
        // [∂/∂P_bus, ∂/∂SoE].
        let (p_pc, p_soe) = if nominal {
            if bus.value() == 0.0 {
                // Zero transfer is the converter's |P| kink; use the
                // central-difference mean of the one-sided slopes (see
                // the battery leg) so the adjoint agrees with the FD
                // gradients the golden traces were blessed with. The
                // bank's own partials are smooth across zero current.
                let (g_dis, g_chg) = self.cap_converter.zero_transfer_gain_limits(v);
                (0.5 * (g_dis + g_chg), 0.0)
            } else {
                let (g_bus, g_v) = if bus.value() >= 0.0 {
                    match self
                        .cap_converter
                        .input_for_output_partials(storage_power, v)
                    {
                        Some(g) => g,
                        None => return [0.0, l_soe],
                    }
                } else {
                    self.cap_converter.output_for_input_partials(bus, v)
                };
                (g_bus, g_v * dv_dsoe)
            }
        } else if storage_power.value() > 0.0 {
            // Discharge pinned to the envelope: follows the limit's own
            // SoE slope, flat in the command.
            (0.0, self.cap.discharge_limit_slope(soe))
        } else {
            // Charge pinned to −max_charge.
            (0.0, -self.cap.charge_limit_slope(soe))
        };
        let internal = [
            dp.internal_power[0] * p_pc,
            dp.internal_power[1] + dp.internal_power[0] * p_soe,
        ];
        // SoE⁺ = (SoE − P_int·dt/E_cap)·leak.
        let e_cap = self.cap.params().energy_capacity().value();
        let (dt, leak) = (constants.dt, constants.leak);
        let soe_next = [
            -leak * dt.value() / e_cap * internal[0],
            leak * (1.0 - dt.value() / e_cap * internal[1]),
        ];
        let delivered = if nominal {
            [1.0, 0.0]
        } else if bus.value() >= 0.0 {
            // Clamped discharge: delivered = forward-map of the envelope
            // limit.
            let (f_p, f_v) = self.cap_converter.output_for_input_partials(clamped, v);
            [0.0, f_p * p_soe + f_v * dv_dsoe]
        } else if let Some((g2_p, g2_v)) = self.cap_converter.input_for_output_partials(bus_got, v)
        {
            // Clamped charge: delivered = inverse-map of the envelope
            // limit (how much bus power the clamped charge absorbs).
            [0.0, g2_p * p_soe + g2_v * dv_dsoe]
        } else {
            [0.0; 2]
        };
        std::array::from_fn(|c| {
            out.delivered * delivered[c] + out.internal * internal[c] + l_soe * soe_next[c]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn room() -> Kelvin {
        Kelvin::from_celsius(25.0)
    }

    fn hees() -> HybridHees {
        HybridHees::ev_default(Farads::new(25_000.0)).expect("valid")
    }

    #[test]
    fn split_command_draws_both_storages() {
        let mut h = hees();
        h.set_state(Ratio::ONE, Ratio::new(0.8));
        let step = h.step(
            HybridCommand {
                battery_bus: Watts::new(20_000.0),
                cap_bus: Watts::new(10_000.0),
            },
            room(),
            Seconds::new(1.0),
        );
        assert!(step.battery_internal.value() > 20_000.0); // + conversion + joule
        assert!(step.cap_internal.value() > 10_000.0);
        assert!(step.converter_loss.value() > 0.0);
        assert!((step.delivered.value() - 30_000.0).abs() < 1.0);
        assert_eq!(step.shortfall, Watts::ZERO);
    }

    #[test]
    fn precharge_moves_energy_battery_to_cap() {
        let mut h = hees();
        h.set_state(Ratio::ONE, Ratio::new(0.4));
        let soe0 = h.soe();
        let soc0 = h.soc();
        let step = h.step(
            HybridCommand {
                battery_bus: Watts::new(8_000.0),
                cap_bus: Watts::new(-8_000.0),
            },
            room(),
            Seconds::new(10.0),
        );
        assert!(h.soe() > soe0, "cap charged");
        assert!(h.soc() < soc0, "battery paid for it");
        assert!(step.cap_internal.value() < 0.0);
        // Net bus power ≈ 0 (all internal transfer).
        assert!(step.delivered.value().abs() < 100.0);
    }

    #[test]
    fn conversion_loss_grows_as_cap_sags() {
        let mut high = hees();
        high.set_state(Ratio::ONE, Ratio::new(0.95));
        let mut low = hees();
        low.set_state(Ratio::ONE, Ratio::new(0.25));
        let cmd = HybridCommand {
            battery_bus: Watts::ZERO,
            cap_bus: Watts::new(12_000.0),
        };
        let a = high.step(cmd, room(), Seconds::new(1.0));
        let b = low.step(cmd, room(), Seconds::new(1.0));
        assert!(
            b.converter_loss > a.converter_loss,
            "sagged bank {:?} vs full {:?}",
            b.converter_loss,
            a.converter_loss
        );
    }

    #[test]
    fn regen_routed_to_cap_charges_it() {
        let mut h = hees();
        h.set_state(Ratio::new(0.8), Ratio::new(0.5));
        let step = h.step(
            HybridCommand {
                battery_bus: Watts::ZERO,
                cap_bus: Watts::new(-20_000.0),
            },
            room(),
            Seconds::new(5.0),
        );
        assert!(h.soe() > Ratio::new(0.5));
        assert!(step.cap_internal.value() < 0.0);
    }

    #[test]
    fn depleted_cap_cannot_deliver() {
        let mut h = hees();
        h.set_state(Ratio::ONE, Ratio::new(0.002));
        let step = h.step(
            HybridCommand {
                battery_bus: Watts::ZERO,
                cap_bus: Watts::new(15_000.0),
            },
            room(),
            Seconds::new(1.0),
        );
        assert!(step.shortfall.value() > 10_000.0);
    }

    #[test]
    fn battery_rests_when_cap_serves() {
        let mut h = hees();
        h.set_state(Ratio::ONE, Ratio::new(0.9));
        let step = h.step(
            HybridCommand {
                battery_bus: Watts::ZERO,
                cap_bus: Watts::new(15_000.0),
            },
            room(),
            Seconds::new(1.0),
        );
        assert_eq!(step.battery_heat, Watts::ZERO);
        assert_eq!(step.battery_c_rate, 0.0);
    }

    /// The compact pack the semi-active wirings below run on.
    fn compact_pack() -> BatteryPack {
        BatteryPack::new(CellParams::ncr18650a(), PackConfig::compact_ev()).expect("valid")
    }

    /// Semi-active, cap converted: the battery sits directly on the bus
    /// and the native 16 V bank behind its converter.
    fn cap_converted(farads: f64) -> HybridHees {
        HybridHees::new(
            compact_pack(),
            UltracapParams::paper_bank(Farads::new(farads)),
            DcDcConverter::direct(),
            DcDcConverter::ultracap_side(),
        )
        .expect("valid")
    }

    /// Semi-active, battery converted: the bank, scaled into the bus
    /// voltage domain, sits directly on the bus and the battery behind
    /// its converter.
    fn battery_converted(farads: f64) -> HybridHees {
        let battery = compact_pack();
        let rated = battery.open_circuit_voltage();
        HybridHees::new(
            battery,
            crate::pack_domain_bank(Farads::new(farads), rated),
            DcDcConverter::battery_side(),
            DcDcConverter::direct(),
        )
        .expect("valid")
    }

    #[test]
    fn cap_converted_serves_split_load() {
        let mut h = cap_converted(25_000.0);
        h.set_state(Ratio::ONE, Ratio::new(0.8));
        let step = h.step(
            HybridCommand {
                battery_bus: Watts::new(20_000.0),
                cap_bus: Watts::new(10_000.0),
            },
            room(),
            Seconds::new(1.0),
        );
        assert!(step.battery_internal.value() > 19_000.0);
        assert!(step.cap_internal.value() > 10_000.0); // + converter loss
        assert!(step.converter_loss.value() > 0.0);
        assert!(step.shortfall.value() < 1.0);
    }

    #[test]
    fn battery_converted_pays_conversion_on_all_battery_power() {
        let mut h = battery_converted(25_000.0);
        h.set_state(Ratio::ONE, Ratio::new(0.8));
        let step = h.step(
            HybridCommand {
                battery_bus: Watts::new(30_000.0), // the whole load, converted
                cap_bus: Watts::ZERO,
            },
            room(),
            Seconds::new(1.0),
        );
        assert!(step.converter_loss.value() > 0.0);
        assert!(step.battery_internal.value() > 30_000.0);
    }

    #[test]
    fn zero_command_leaves_converted_storage_idle() {
        let mut h = cap_converted(25_000.0);
        h.set_state(Ratio::ONE, Ratio::new(0.8));
        let soe0 = h.soe();
        let step = h.step(
            HybridCommand {
                battery_bus: Watts::new(20_000.0),
                cap_bus: Watts::ZERO,
            },
            room(),
            Seconds::new(1.0),
        );
        // Only the self-discharge leak moves the bank (< 1e-5 per second).
        assert!((h.soe().value() - soe0.value()).abs() < 1e-5);
        assert_eq!(step.cap_internal, Watts::ZERO);
        assert!(step.battery_internal.value() > 20_000.0);
        // The direct leg converts nothing.
        assert_eq!(step.converter_loss, Watts::ZERO);
    }

    #[test]
    fn regen_can_be_routed_into_the_converted_bank() {
        let mut h = cap_converted(25_000.0);
        h.set_state(Ratio::new(0.8), Ratio::new(0.5));
        let step = h.step(
            HybridCommand {
                battery_bus: Watts::ZERO,
                cap_bus: Watts::new(-20_000.0),
            },
            room(),
            Seconds::new(5.0),
        );
        assert!(h.soe() > Ratio::new(0.5));
        assert!(step.cap_internal.value() < 0.0);
        // The direct battery leg idles.
        assert_eq!(step.battery_internal, Watts::ZERO);
    }

    #[test]
    fn depleted_converted_bank_degrades_to_battery() {
        let mut h = cap_converted(25_000.0);
        h.set_state(Ratio::ONE, Ratio::new(0.003));
        let step = h.step(
            HybridCommand {
                battery_bus: Watts::new(15_000.0),
                cap_bus: Watts::new(15_000.0),
            },
            room(),
            Seconds::new(1.0),
        );
        // The cap leg collapses; the direct battery still serves its share.
        assert!(step.shortfall.value() > 10_000.0);
        assert!(step.battery_internal.value() > 14_000.0);
    }

    #[test]
    fn cap_converted_charge_clamp_takes_at_least_what_the_bank_stores() {
        // A regen request far past the nearly full bank's charge limit:
        // the bank takes its limit, and the bus must supply that plus
        // the converter's loss.
        let mut h = cap_converted(5_000.0);
        h.set_state(Ratio::new(0.8), Ratio::new(0.98));
        let before = h.cap.stored_energy().value();
        let dt = Seconds::new(1.0);
        let step = h.step(
            HybridCommand {
                battery_bus: Watts::ZERO,
                cap_bus: Watts::new(-200_000.0),
            },
            room(),
            dt,
        );
        let stored = (h.cap.stored_energy().value() - before) / dt.value();
        // The battery's share is zero, so the whole bus draw is the
        // converted leg's.
        let taken = -step.delivered.value();
        assert!(stored > 0.0 && stored < 200_000.0, "stored {stored} W");
        assert!(
            taken >= stored,
            "bus gave {taken} W, bank stored {stored} W"
        );
        let terminal = -step.cap_internal.value();
        assert!((taken - terminal - step.converter_loss.value()).abs() < 1e-6 * taken);
    }

    #[test]
    fn battery_converted_discharge_clamp_books_the_converters_output() {
        // A request past the half-empty pack's peak: the pack delivers
        // what it can, and the bus gets that less the converter's loss.
        let mut h = battery_converted(5_000.0);
        h.set_state(Ratio::new(0.3), Ratio::new(0.5));
        let v = h.battery.open_circuit_voltage();
        let load = Watts::new(400_000.0);
        let step = h.step(
            HybridCommand {
                battery_bus: load,
                cap_bus: Watts::ZERO,
            },
            room(),
            Seconds::new(1.0),
        );
        let delivered = step.delivered.value();
        let loss = step.converter_loss.value();
        assert!(delivered > 0.0 && step.shortfall.value() > 0.0, "{step:?}");
        assert_eq!(step.shortfall.value(), load.value() - delivered);
        // A loss, not the unserved request.
        assert!(loss > 0.0 && loss < 0.05 * delivered, "{step:?}");
        // The pack's terminal draw is what the converter needs to put
        // `delivered` on the bus.
        let draw = h
            .battery_converter
            .input_for_output(step.delivered, v)
            .unwrap();
        assert!(
            (draw.value() - delivered - loss).abs() < 1e-6 * delivered,
            "{step:?}"
        );
    }

    #[test]
    fn snapshot_restore_round_trips_exactly() {
        let mut h = hees();
        h.set_state(Ratio::new(0.85), Ratio::new(0.6));
        let saved = h.snapshot();
        let reference = h.clone();
        h.step(
            HybridCommand {
                battery_bus: Watts::new(30_000.0),
                cap_bus: Watts::new(-5_000.0),
            },
            room(),
            Seconds::new(30.0),
        );
        assert_ne!(h, reference);
        h.restore(saved);
        // Bit-exact rewind: a restored plant is indistinguishable from one
        // that never stepped, so speculative rollouts can reuse it freely.
        assert_eq!(h, reference);
    }

    /// Column indices of the step inputs in a [`jacobian`] row.
    const IN_BATTERY_BUS: usize = 0;
    const IN_CAP_BUS: usize = 1;
    const IN_TEMPERATURE: usize = 2;
    const IN_SOC: usize = 3;
    const SOC_NEXT: usize = 4;
    const SOE_NEXT: usize = 5;

    /// The exact partial derivatives of the step `record` describes: one
    /// row per [`HeesOutputAdjoints`] field, in field order, over the
    /// inputs `[P_bus,bat, P_bus,cap, T, SoC, SoE]`. Row `r` is the
    /// pullback of output `r`'s unit adjoint.
    fn jacobian(
        h: &HybridHees,
        record: &HeesStepRecord,
        constants: &HeesStepConstants,
    ) -> [[f64; 5]; 6] {
        std::array::from_fn(|r| {
            let unit = |i: usize| if i == r { 1.0 } else { 0.0 };
            let out = HeesOutputAdjoints {
                delivered: unit(0),
                internal: unit(1),
                heat: unit(2),
                c_rate: unit(3),
                soc_next: unit(SOC_NEXT),
                soe_next: unit(SOE_NEXT),
            };
            let a = h.step_pullback(record, constants, &out);
            [a.battery_bus, a.cap_bus, a.temperature, a.soc, a.soe]
        })
    }

    /// [`HybridHees::step`] plus the exact partial derivatives of every
    /// output in the step inputs, through the path the MPC's adjoint
    /// runs: the step constants, the value-only prepared step, then
    /// [`HybridHees::step_pullback`] on its record.
    fn step_with_jacobian(
        h: &mut HybridHees,
        command: HybridCommand,
        temperature: Kelvin,
        dt: Seconds,
    ) -> (HeesStep, [[f64; 5]; 6]) {
        let constants = h.step_constants(dt);
        let mut record = HeesStepRecord::default();
        let step = h.step_prepared(command, temperature, &constants, &mut record);
        (step, jacobian(h, &record, &constants))
    }

    #[test]
    fn step_with_jacobian_forward_results_are_bit_identical() {
        let commands = [
            (20_000.0, 10_000.0),
            (8_000.0, -8_000.0),
            (0.0, 15_000.0),
            (-12_000.0, 0.0),
            (30_000.0, 95_000.0), // cap leg clamps at the power limit
        ];
        for (pb, pc) in commands {
            let mut plain = hees();
            plain.set_state(Ratio::new(0.85), Ratio::new(0.6));
            let mut traced = plain.clone();
            let cmd = HybridCommand {
                battery_bus: Watts::new(pb),
                cap_bus: Watts::new(pc),
            };
            let a = plain.step(cmd, room(), Seconds::new(1.0));
            let (b, _) = step_with_jacobian(&mut traced, cmd, room(), Seconds::new(1.0));
            assert_eq!(a, b, "forward results diverged for ({pb}, {pc})");
            assert_eq!(plain, traced, "post-step states diverged");
        }
    }

    /// Central differences of every Jacobian row at one operating point,
    /// over a step of length `dt`, with bus-power step `h_p` (W).
    fn fd_check(
        mut make: impl FnMut() -> HybridHees,
        cmd: HybridCommand,
        dt: Seconds,
        h_p: f64,
        label: &str,
    ) {
        let outputs = |h: &mut HybridHees, cmd: HybridCommand, temp: Kelvin| -> [f64; 6] {
            let s = h.step(cmd, temp, dt);
            [
                s.delivered.value(),
                s.hees_power().value(),
                s.battery_heat.value(),
                s.battery_c_rate,
                h.soc().value(),
                h.soe().value(),
            ]
        };
        let mut base = make();
        let (_, jac) = step_with_jacobian(&mut base, cmd, room(), dt);
        let names = [
            "delivered",
            "internal",
            "heat",
            "c_rate",
            "soc_next",
            "soe_next",
        ];
        // One column at a time: perturb the input, roll a fresh plant.
        let h_t = 1e-4;
        let h_s = 1e-7;
        for col in 0..5 {
            let mut plus = make();
            let mut minus = make();
            let (cmd_p, cmd_m, t_p, t_m) = match col {
                IN_BATTERY_BUS => (
                    HybridCommand {
                        battery_bus: cmd.battery_bus + Watts::new(h_p),
                        ..cmd
                    },
                    HybridCommand {
                        battery_bus: cmd.battery_bus - Watts::new(h_p),
                        ..cmd
                    },
                    room(),
                    room(),
                ),
                IN_CAP_BUS => (
                    HybridCommand {
                        cap_bus: cmd.cap_bus + Watts::new(h_p),
                        ..cmd
                    },
                    HybridCommand {
                        cap_bus: cmd.cap_bus - Watts::new(h_p),
                        ..cmd
                    },
                    room(),
                    room(),
                ),
                IN_TEMPERATURE => (
                    cmd,
                    cmd,
                    Kelvin::new(room().value() + h_t),
                    Kelvin::new(room().value() - h_t),
                ),
                IN_SOC => {
                    let soc = plus.soc().value();
                    plus.set_state(Ratio::new(soc + h_s), plus.soe());
                    minus.set_state(Ratio::new(soc - h_s), minus.soe());
                    (cmd, cmd, room(), room())
                }
                _ => {
                    let soe = plus.soe().value();
                    plus.set_state(plus.soc(), Ratio::new(soe + h_s));
                    minus.set_state(minus.soc(), Ratio::new(soe - h_s));
                    (cmd, cmd, room(), room())
                }
            };
            let step = match col {
                IN_BATTERY_BUS | IN_CAP_BUS => h_p,
                IN_TEMPERATURE => h_t,
                _ => h_s,
            };
            let up = outputs(&mut plus, cmd_p, t_p);
            let down = outputs(&mut minus, cmd_m, t_m);
            for (row_idx, (name, analytic)) in names.iter().zip(&jac).enumerate() {
                let fd = (up[row_idx] - down[row_idx]) / (2.0 * step);
                let scale = analytic[col].abs().max(fd.abs());
                // The converter inverse is exact to a few ulp; the bar
                // is set by the central difference's roundoff where a
                // slope is small against its row's value (the peak-power
                // fallback's C-rate-by-SoC slope, off by 1.6e-4 relative).
                let tol = 1e-3 * scale.max(1e-6);
                assert!(
                    (analytic[col] - fd).abs() <= tol,
                    "{label}: {name}[{col}] analytic {} vs FD {fd}",
                    analytic[col]
                );
            }
        }
    }

    #[test]
    fn jacobian_matches_finite_differences_nominal_split() {
        fd_check(
            || {
                let mut h = hees();
                h.set_state(Ratio::new(0.85), Ratio::new(0.6));
                h
            },
            HybridCommand {
                battery_bus: Watts::new(20_000.0),
                cap_bus: Watts::new(8_000.0),
            },
            Seconds::new(1.0),
            1.0,
            "nominal discharge split",
        );
    }

    #[test]
    fn jacobian_matches_finite_differences_precharge() {
        fd_check(
            || {
                let mut h = hees();
                h.set_state(Ratio::new(0.7), Ratio::new(0.35));
                h
            },
            HybridCommand {
                battery_bus: Watts::new(10_000.0),
                cap_bus: Watts::new(-6_000.0),
            },
            Seconds::new(1.0),
            1.0,
            "battery-to-cap precharge",
        );
    }

    #[test]
    fn jacobian_matches_finite_differences_cap_energy_clamped() {
        // SoE 0.02 → depletion guard ≈ 64 kW < the 90 kW rating: the
        // discharge clamp is energy-limited, so delivered power inherits
        // the E_cap slope in SoE.
        fd_check(
            || {
                let mut h = hees();
                h.set_state(Ratio::new(0.85), Ratio::new(0.02));
                h
            },
            HybridCommand {
                battery_bus: Watts::new(5_000.0),
                cap_bus: Watts::new(70_000.0),
            },
            Seconds::new(1.0),
            1.0,
            "cap clamped at depletion guard",
        );
    }

    /// The forward step as it read before prepared curves: every
    /// quantity through the per-call component entry points, each of
    /// which re-evaluates its own curves, roots and leak.
    fn per_call_step(
        h: &mut HybridHees,
        cmd: HybridCommand,
        temperature: Kelvin,
        dt: Seconds,
    ) -> HeesStep {
        let mut converter_loss = Watts::ZERO;
        let mut delivered = Watts::ZERO;
        let (mut bat_internal, mut bat_heat, mut bat_c_rate) = (Watts::ZERO, Watts::ZERO, 0.0);
        let bus = cmd.battery_bus;
        let v = h.battery.open_circuit_voltage();
        let request = if bus.value() >= 0.0 {
            h.battery_converter.input_for_output(bus, v)
        } else {
            h.battery_converter.output_for_input(bus, v)
        };
        if let Ok(storage_power) = request {
            let draw = h
                .battery
                .draw_power(storage_power, temperature)
                .or_else(|_| {
                    let peak = h.battery.max_discharge_power(temperature) * 0.999;
                    h.battery.draw_power(peak.min(storage_power), temperature)
                });
            if let Ok(d) = draw {
                let bus_got = if d.terminal_power == storage_power || bus.value() < 0.0 {
                    bus
                } else {
                    h.battery_converter
                        .output_for_input(d.terminal_power, v)
                        .unwrap_or(Watts::ZERO)
                };
                h.battery.integrate(d, dt);
                delivered += bus_got;
                converter_loss += (d.terminal_power - bus_got).abs();
                (bat_internal, bat_heat, bat_c_rate) = (d.internal_power, d.heat, d.c_rate);
            }
        }
        let mut cap_internal = Watts::ZERO;
        let bus = cmd.cap_bus;
        let v = h.cap.voltage();
        let request = if bus.value() >= 0.0 {
            h.cap_converter.input_for_output(bus, v)
        } else {
            h.cap_converter.output_for_input(bus, v)
        };
        if let Ok(storage_power) = request {
            let clamped = Watts::new(storage_power.value().clamp(
                -h.cap.max_charge_power().value(),
                h.cap.max_discharge_power().value(),
            ));
            if let Ok(d) = h.cap.draw_power(clamped) {
                let bus_got = if clamped == storage_power {
                    bus
                } else if bus.value() >= 0.0 {
                    h.cap_converter
                        .output_for_input(clamped, v)
                        .unwrap_or(Watts::ZERO)
                } else {
                    h.cap_converter
                        .input_for_output(clamped, v)
                        .unwrap_or(Watts::ZERO)
                };
                h.cap.integrate(d, dt);
                delivered += bus_got;
                converter_loss += (d.terminal_power - bus_got).abs();
                cap_internal = d.internal_power;
            }
        }
        HeesStep {
            delivered,
            shortfall: Watts::new((cmd.net().value() - delivered.value()).max(0.0)),
            battery_internal: bat_internal,
            cap_internal,
            battery_heat: bat_heat,
            battery_c_rate: bat_c_rate,
            converter_loss,
        }
    }

    fn step_bits(s: &HeesStep, h: &HybridHees) -> [u64; 9] {
        [
            s.delivered.value().to_bits(),
            s.shortfall.value().to_bits(),
            s.battery_internal.value().to_bits(),
            s.cap_internal.value().to_bits(),
            s.battery_heat.value().to_bits(),
            s.battery_c_rate.to_bits(),
            s.converter_loss.value().to_bits(),
            h.soc().value().to_bits(),
            h.soe().value().to_bits(),
        ]
    }

    #[test]
    fn prepared_step_reproduces_the_per_call_step_bitwise() {
        let dt = Seconds::new(1.0);
        let commands = [
            (0.0, 0.0),
            (20_000.0, 10_000.0),
            (8_000.0, -8_000.0),
            (-12_000.0, 0.0),
            (30_000.0, 95_000.0), // cap discharge clamps at the power rating
            (5_000.0, -95_000.0), // cap charge clamps
        ];
        let mut fallbacks = 0;
        for (soc, soe) in [(0.85, 0.6), (0.3, 0.02), (0.95, 0.999), (0.05, 0.0)] {
            for celsius in [0.0, 25.0, 41.0] {
                let t = Kelvin::from_celsius(celsius);
                let mut base = hees();
                base.set_state(Ratio::new(soc), Ratio::new(soe));
                // Past the `V_oc²/4R` vertex: the battery falls back to
                // 99.9 % of its datasheet peak.
                let voc = base.battery().open_circuit_voltage().value();
                let r = base.battery().internal_resistance(t).value();
                let beyond = 1.05 * voc * voc / (4.0 * r);
                for (pb, pc) in commands.into_iter().chain([(beyond, 0.0)]) {
                    let cmd = HybridCommand {
                        battery_bus: Watts::new(pb),
                        cap_bus: Watts::new(pc),
                    };
                    let mut reference = hees();
                    reference.set_state(Ratio::new(soc), Ratio::new(soe));
                    let mut plain = reference.clone();
                    let mut taped = reference.clone();
                    let mut prepared = reference.clone();
                    let want = per_call_step(&mut reference, cmd, t, dt);
                    let want_bits = step_bits(&want, &reference);
                    let a = plain.step(cmd, t, dt);
                    let (b, _) = step_with_jacobian(&mut taped, cmd, t, dt);
                    let constants = prepared.step_constants(dt);
                    let c =
                        prepared.step_prepared(cmd, t, &constants, &mut HeesStepRecord::default());
                    assert_eq!(
                        step_bits(&a, &plain),
                        want_bits,
                        "step {soc} {soe} {t:?} {cmd:?}"
                    );
                    assert_eq!(
                        step_bits(&b, &taped),
                        want_bits,
                        "taped {soc} {soe} {t:?} {cmd:?}"
                    );
                    assert_eq!(step_bits(&c, &prepared), want_bits, "prepared {cmd:?}");
                    if pb == beyond && want.battery_internal.value() > 0.0 {
                        assert!(want.shortfall.value() > 0.0, "no fallback at {soc} {t:?}");
                        fallbacks += 1;
                    }
                }
            }
        }
        assert!(fallbacks > 0, "the peak-power fallback never ran");
    }

    #[test]
    fn one_constants_block_serves_a_whole_trajectory() {
        // A rollout builds the constants once, steps many states with them
        // and differentiates only afterwards: every step must match the
        // self-contained entry points, and every Jacobian assembled from
        // a record after the whole trajectory ran must match the one
        // taken right after its step.
        let dt = Seconds::new(1.0);
        let mut prepared = hees();
        prepared.set_state(Ratio::new(0.8), Ratio::new(0.5));
        let mut fresh = prepared.clone();
        let constants = prepared.step_constants(dt);
        assert_eq!(constants.dt(), dt);
        let mut records = Vec::new();
        let mut jacobians = Vec::new();
        for k in 0..40 {
            let cmd = HybridCommand {
                battery_bus: Watts::new(15_000.0 + 900.0 * (k % 7) as f64),
                cap_bus: Watts::new(if k % 3 == 0 { -6_000.0 } else { 9_000.0 }),
            };
            let t = Kelvin::from_celsius(24.0 + 0.3 * k as f64);
            let mut record = HeesStepRecord::default();
            let a = prepared.step_prepared(cmd, t, &constants, &mut record);
            let (b, jac_fresh) = step_with_jacobian(&mut fresh, cmd, t, dt);
            assert_eq!(step_bits(&a, &prepared), step_bits(&b, &fresh), "step {k}");
            records.push(record);
            jacobians.push(jac_fresh);
        }
        for (k, (record, want)) in records.iter().zip(&jacobians).enumerate() {
            assert_eq!(
                jacobian(&prepared, record, &constants),
                *want,
                "jacobian at step {k}"
            );
        }
    }

    #[test]
    fn jacobian_matches_finite_differences_battery_peak_fallback() {
        // A bus command past the pack's `V_oc²/4R` vertex: the draw falls
        // back to 99.9 % of the SoC/temperature-dependent peak, so the
        // battery rows follow the peak's own slopes and are flat in the
        // command.
        let make = || {
            let mut h = hees();
            h.set_state(Ratio::new(0.5), Ratio::new(0.6));
            h
        };
        let base = make();
        let voc = base.battery().open_circuit_voltage().value();
        let r = base.battery().internal_resistance(room()).value();
        let cmd = HybridCommand {
            battery_bus: Watts::new(1.05 * voc * voc / (4.0 * r)),
            cap_bus: Watts::new(5_000.0),
        };
        let step = make().step(cmd, room(), Seconds::new(1.0));
        assert!(
            step.battery_internal.value() > 0.0 && step.shortfall.value() > 0.0,
            "the peak-power fallback did not run: {step:?}"
        );
        fd_check(
            make,
            cmd,
            Seconds::new(1.0),
            1.0,
            "battery peak-power fallback",
        );
    }

    #[test]
    fn jacobian_matches_finite_differences_cap_charge_clamped() {
        // Near full the headroom guard caps the charge below the 90 kW
        // rating: the charge leg pins at −max_charge_power and follows
        // the limit's slope in SoE. Half full, the rating itself binds.
        for (soe, cap_bus) in [(0.995, -20_000.0), (0.5, -95_000.0)] {
            let make = || {
                let mut h = hees();
                h.set_state(Ratio::new(0.7), Ratio::new(soe));
                h
            };
            let cmd = HybridCommand {
                battery_bus: Watts::new(10_000.0),
                cap_bus: Watts::new(cap_bus),
            };
            let limit = make().cap().max_charge_power().value();
            let step = make().step(cmd, room(), Seconds::new(1.0));
            assert!(
                (step.cap_internal.value() + limit).abs() <= 1e-6 * limit,
                "charge not clamped at -{limit} W: {step:?}"
            );
            fd_check(
                make,
                cmd,
                Seconds::new(1.0),
                1.0,
                &format!("cap charge clamped at SoE {soe}"),
            );
        }
    }

    #[test]
    fn jacobian_matches_finite_differences_saturated_coulomb_counters() {
        // Each counter runs into its bound within the step: the pack
        // charging to SoC 1, the bank charging to SoE 1 and discharging
        // to SoE 0 over 10–20 s steps. A saturated counter is flat in
        // every input, which finite differences must confirm.
        let cases = [
            (0.9999, 0.6, -50_000.0, 2_000.0, 1.0, "SoC to 1"),
            (0.7, 0.99, 10_000.0, -20_000.0, 10.0, "SoE to 1"),
            (0.7, 0.1, 10_000.0, 20_000.0, 20.0, "SoE to 0"),
        ];
        for (soc, soe, battery_bus, cap_bus, dt, label) in cases {
            let make = || {
                let mut h = hees();
                h.set_state(Ratio::new(soc), Ratio::new(soe));
                h
            };
            let cmd = HybridCommand {
                battery_bus: Watts::new(battery_bus),
                cap_bus: Watts::new(cap_bus),
            };
            let dt = Seconds::new(dt);
            let mut stepped = make();
            let (_, jac) = step_with_jacobian(&mut stepped, cmd, room(), dt);
            let saturated = if label == "SoC to 1" {
                stepped.soc().value() == 1.0 && jac[SOC_NEXT] == [0.0; 5]
            } else {
                let post = stepped.soe().value();
                (post == 0.0 || post == 1.0) && jac[SOE_NEXT] == [0.0; 5]
            };
            assert!(saturated, "{label}: the counter did not saturate");
            fd_check(make, cmd, dt, 1.0, label);
        }
    }

    #[test]
    fn jacobian_matches_central_differences_at_zero_transfer() {
        // Both legs idle sit on the converters' |P| kink, where the
        // Jacobian reports the mean of the one-sided slopes. A central
        // difference straddling zero measures exactly that mean once the
        // step is small against the 50 W quiescent-loss ramp.
        fd_check(
            || {
                let mut h = hees();
                h.set_state(Ratio::new(0.8), Ratio::new(0.5));
                h
            },
            HybridCommand::default(),
            Seconds::new(1.0),
            1e-3,
            "zero transfer",
        );
    }
}
