//! Semi-active HEES architectures (Cao & Emadi [20], the design space
//! the paper's related work surveys): exactly one storage sits behind a
//! DC/DC converter while the other couples directly to the bus.
//!
//! * [`SemiActiveHees::cap_converted`] — battery directly on the bus,
//!   ultracapacitor behind the converter. The common commercial choice:
//!   the bus voltage stays stiff (battery-pinned) and the bank's wide
//!   voltage swing is absorbed by its converter.
//! * [`SemiActiveHees::battery_converted`] — ultracapacitor directly on
//!   the bus, battery behind the converter. Decouples battery current
//!   from load transients completely, at the cost of converting *all*
//!   battery power.
//!
//! Both take one commanded degree of freedom (the converted storage's
//! bus power); the direct storage absorbs the remainder by circuit law.

use crate::error::HeesError;
use crate::pack_domain_bank;
use crate::step::HeesStep;
use otem_battery::{BatteryPack, CellParams, PackConfig};
use otem_converter::DcDcConverter;
use otem_ultracap::{UltracapBank, UltracapParams};
use otem_units::{Farads, Kelvin, Ratio, Seconds, Watts};
use serde::{Deserialize, Serialize};

/// Which storage is behind the converter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConvertedSide {
    /// Ultracapacitor behind the converter; battery direct.
    Ultracap,
    /// Battery behind the converter; ultracapacitor direct.
    Battery,
}

/// A semi-active architecture: one converter, one direct coupling.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SemiActiveHees {
    battery: BatteryPack,
    cap: UltracapBank,
    converter: DcDcConverter,
    side: ConvertedSide,
}

impl SemiActiveHees {
    /// Battery-direct / cap-converted preset for the paper's EV: the
    /// bank keeps its native 16 V rating behind an ultracap-side
    /// converter.
    ///
    /// # Errors
    ///
    /// Returns [`HeesError`] when any component fails validation.
    pub fn cap_converted(capacitance: Farads) -> Result<Self, HeesError> {
        let battery = BatteryPack::new(CellParams::ncr18650a(), PackConfig::compact_ev())?;
        let converter = DcDcConverter::ultracap_side();
        converter.validate()?;
        Ok(Self {
            battery,
            cap: UltracapBank::new(UltracapParams::paper_bank(capacitance))?,
            converter,
            side: ConvertedSide::Ultracap,
        })
    }

    /// Cap-direct / battery-converted preset: the bank is scaled into
    /// the bus voltage domain (it *is* the bus), the battery sits behind
    /// a high-voltage converter.
    ///
    /// # Errors
    ///
    /// Returns [`HeesError`] when any component fails validation.
    pub fn battery_converted(capacitance: Farads) -> Result<Self, HeesError> {
        let battery = BatteryPack::new(CellParams::ncr18650a(), PackConfig::compact_ev())?;
        let rated = battery.open_circuit_voltage();
        let converter = DcDcConverter::battery_side();
        converter.validate()?;
        Ok(Self {
            cap: UltracapBank::new(pack_domain_bank(capacitance, rated))?,
            battery,
            converter,
            side: ConvertedSide::Battery,
        })
    }

    /// Which storage is converted.
    pub fn side(&self) -> ConvertedSide {
        self.side
    }

    /// Battery state of charge.
    pub fn soc(&self) -> Ratio {
        self.battery.soc()
    }

    /// Ultracapacitor state of energy.
    pub fn soe(&self) -> Ratio {
        self.cap.soe()
    }

    /// Sets initial conditions.
    pub fn set_state(&mut self, soc: Ratio, soe: Ratio) {
        self.battery.set_soc(soc);
        self.cap.set_soe(soe);
    }

    /// Executes one control period: `converted_bus` is the commanded
    /// bus-side power of the *converted* storage (positive = it serves
    /// the bus); the direct storage covers `load − converted_bus`.
    /// Infeasible commands clamp with the shortfall reported.
    pub fn step(
        &mut self,
        load: Watts,
        converted_bus: Watts,
        temperature: Kelvin,
        dt: Seconds,
    ) -> HeesStep {
        let direct_share = load - converted_bus;
        match self.side {
            ConvertedSide::Ultracap => {
                // Converted leg: the bank through its converter.
                let (cap_internal, cap_delivered, conv_loss) = self.cap_leg(converted_bus, dt);
                // Direct leg: the battery takes the remainder, unconverted.
                let (bat_internal, bat_heat, c_rate, bat_delivered) =
                    self.battery_leg(direct_share, temperature, dt);
                let delivered = cap_delivered + bat_delivered;
                HeesStep {
                    delivered,
                    shortfall: Watts::new((load.value() - delivered.value()).max(0.0)),
                    battery_internal: bat_internal,
                    cap_internal,
                    battery_heat: bat_heat,
                    battery_c_rate: c_rate,
                    converter_loss: conv_loss,
                }
            }
            ConvertedSide::Battery => {
                // Converted leg: the battery through its converter.
                let v = self.battery.open_circuit_voltage();
                let storage_request = if converted_bus.value() >= 0.0 {
                    self.converter.input_for_output(converted_bus, v)
                } else {
                    self.converter.output_for_input(converted_bus, v)
                };
                let (bat_internal, bat_heat, c_rate, bat_delivered, conv_loss) =
                    match storage_request {
                        Ok(p) => {
                            let (i, h, c, d) = self.battery_leg(p, temperature, dt);
                            // The pack clamps only a discharge: the bus then
                            // gets what the converter makes of the clamped
                            // draw.
                            let bus_got = if d == p {
                                converted_bus
                            } else {
                                self.converter.output_for_input(d, v).unwrap_or(Watts::ZERO)
                            };
                            (i, h, c, bus_got, (d - bus_got).abs())
                        }
                        Err(_) => (Watts::ZERO, Watts::ZERO, 0.0, Watts::ZERO, Watts::ZERO),
                    };
                // Direct leg: the bank absorbs the rest at bus voltage.
                let (cap_internal, cap_delivered, _) = self.direct_cap_leg(direct_share, dt);
                let delivered = bat_delivered + cap_delivered;
                HeesStep {
                    delivered,
                    shortfall: Watts::new((load.value() - delivered.value()).max(0.0)),
                    battery_internal: bat_internal,
                    cap_internal,
                    battery_heat: bat_heat,
                    battery_c_rate: c_rate,
                    converter_loss: conv_loss,
                }
            }
        }
    }

    /// Converted ultracapacitor leg: returns (internal, bus delivered,
    /// converter loss).
    fn cap_leg(&mut self, bus: Watts, dt: Seconds) -> (Watts, Watts, Watts) {
        let v = self.cap.voltage();
        let storage_request = if bus.value() >= 0.0 {
            self.converter.input_for_output(bus, v)
        } else {
            self.converter.output_for_input(bus, v)
        };
        match storage_request {
            Ok(p) => {
                let clamped = Watts::new(p.value().clamp(
                    -self.cap.max_charge_power().value(),
                    self.cap.max_discharge_power().value(),
                ));
                match self.cap.draw_power(clamped) {
                    Ok(d) => {
                        self.cap.integrate(d, dt);
                        let bus_got = if clamped == p {
                            bus
                        } else if bus.value() >= 0.0 {
                            self.converter
                                .output_for_input(clamped, v)
                                .unwrap_or(Watts::ZERO)
                        } else {
                            // Charge leg clamped: less is taken off the
                            // bus than commanded.
                            self.converter
                                .input_for_output(clamped, v)
                                .unwrap_or(Watts::ZERO)
                        };
                        (
                            (d.internal_power),
                            bus_got,
                            (d.terminal_power - bus_got).abs(),
                        )
                    }
                    Err(_) => (Watts::ZERO, Watts::ZERO, Watts::ZERO),
                }
            }
            Err(_) => (Watts::ZERO, Watts::ZERO, Watts::ZERO),
        }
    }

    /// Direct ultracapacitor leg (bus-voltage bank, no converter).
    fn direct_cap_leg(&mut self, share: Watts, dt: Seconds) -> (Watts, Watts, Watts) {
        let clamped = Watts::new(share.value().clamp(
            -self.cap.max_charge_power().value(),
            self.cap.max_discharge_power().value(),
        ));
        match self.cap.draw_power(clamped) {
            Ok(d) => {
                self.cap.integrate(d, dt);
                (d.internal_power, clamped, Watts::ZERO)
            }
            Err(_) => (Watts::ZERO, Watts::ZERO, Watts::ZERO),
        }
    }

    /// Battery leg (direct or post-conversion): returns
    /// (internal, heat, c-rate, terminal delivered).
    fn battery_leg(
        &mut self,
        power: Watts,
        temperature: Kelvin,
        dt: Seconds,
    ) -> (Watts, Watts, f64, Watts) {
        let draw = self
            .battery
            .draw_clamped_at(power, &self.battery.curves(temperature));
        match draw {
            Ok(d) => {
                self.battery.integrate(d, dt);
                (d.internal_power, d.heat, d.c_rate, d.terminal_power)
            }
            Err(_) => (Watts::ZERO, Watts::ZERO, 0.0, Watts::ZERO),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn room() -> Kelvin {
        Kelvin::from_celsius(25.0)
    }

    #[test]
    fn cap_converted_serves_split_load() {
        let mut h = SemiActiveHees::cap_converted(Farads::new(25_000.0)).unwrap();
        h.set_state(Ratio::ONE, Ratio::new(0.8));
        let step = h.step(
            Watts::new(30_000.0),
            Watts::new(10_000.0),
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
        let mut semi = SemiActiveHees::battery_converted(Farads::new(25_000.0)).unwrap();
        semi.set_state(Ratio::ONE, Ratio::new(0.8));
        let step = semi.step(
            Watts::new(30_000.0),
            Watts::new(30_000.0), // battery carries everything, converted
            room(),
            Seconds::new(1.0),
        );
        assert!(step.converter_loss.value() > 0.0);
        assert!(step.battery_internal.value() > 30_000.0);
    }

    #[test]
    fn zero_command_leaves_converted_storage_idle() {
        let mut h = SemiActiveHees::cap_converted(Farads::new(25_000.0)).unwrap();
        h.set_state(Ratio::ONE, Ratio::new(0.8));
        let soe0 = h.soe();
        let step = h.step(Watts::new(20_000.0), Watts::ZERO, room(), Seconds::new(1.0));
        // Only the self-discharge leak moves the bank (< 1e-5 per second).
        assert!((h.soe().value() - soe0.value()).abs() < 1e-5);
        assert_eq!(step.cap_internal, Watts::ZERO);
        assert!(step.battery_internal.value() > 20_000.0);
    }

    #[test]
    fn regen_can_be_routed_into_the_converted_bank() {
        let mut h = SemiActiveHees::cap_converted(Farads::new(25_000.0)).unwrap();
        h.set_state(Ratio::new(0.8), Ratio::new(0.5));
        let step = h.step(
            Watts::new(-20_000.0),
            Watts::new(-20_000.0),
            room(),
            Seconds::new(5.0),
        );
        assert!(h.soe() > Ratio::new(0.5));
        assert!(step.cap_internal.value() < 0.0);
    }

    #[test]
    fn depleted_converted_bank_degrades_to_battery() {
        let mut h = SemiActiveHees::cap_converted(Farads::new(25_000.0)).unwrap();
        h.set_state(Ratio::ONE, Ratio::new(0.003));
        let step = h.step(
            Watts::new(30_000.0),
            Watts::new(15_000.0),
            room(),
            Seconds::new(1.0),
        );
        // The cap leg collapses; the direct battery still serves its share.
        assert!(step.shortfall.value() > 10_000.0);
        assert!(step.battery_internal.value() > 14_000.0);
    }

    #[test]
    fn sides_report_correctly() {
        assert_eq!(
            SemiActiveHees::cap_converted(Farads::new(5_000.0))
                .unwrap()
                .side(),
            ConvertedSide::Ultracap
        );
        assert_eq!(
            SemiActiveHees::battery_converted(Farads::new(5_000.0))
                .unwrap()
                .side(),
            ConvertedSide::Battery
        );
    }

    #[test]
    fn cap_converted_charge_clamp_takes_at_least_what_the_bank_stores() {
        // A regen request far past the nearly full bank's charge limit:
        // the bank takes its limit, and the bus must supply that plus
        // the converter's loss.
        let mut h = SemiActiveHees::cap_converted(Farads::new(5_000.0)).unwrap();
        h.set_state(Ratio::new(0.8), Ratio::new(0.98));
        let before = h.cap.stored_energy().value();
        let dt = Seconds::new(1.0);
        let step = h.step(Watts::new(-200_000.0), Watts::new(-200_000.0), room(), dt);
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
        let mut h = SemiActiveHees::battery_converted(Farads::new(5_000.0)).unwrap();
        h.set_state(Ratio::new(0.3), Ratio::new(0.5));
        let v = h.battery.open_circuit_voltage();
        let load = Watts::new(400_000.0);
        let step = h.step(load, load, room(), Seconds::new(1.0));
        let delivered = step.delivered.value();
        let loss = step.converter_loss.value();
        assert!(delivered > 0.0 && step.shortfall.value() > 0.0, "{step:?}");
        assert_eq!(step.shortfall.value(), load.value() - delivered);
        // A loss, not the unserved request.
        assert!(loss > 0.0 && loss < 0.05 * delivered, "{step:?}");
        // The pack's terminal draw is what the converter needs to put
        // `delivered` on the bus.
        let draw = h.converter.input_for_output(step.delivered, v).unwrap();
        assert!(
            (draw.value() - delivered - loss).abs() < 1e-6 * delivered,
            "{step:?}"
        );
    }
}
