//! Hybrid Electrical Energy Storage (HEES) architectures for the OTEM
//! simulator — Section II-C of the paper.
//!
//! Three ways of wiring a battery pack and an ultracapacitor bank to the
//! EV bus, matching the paper's comparison set:
//!
//! * [`ParallelHees`] — the two storages hard-wired in parallel
//!   (Shin et al. DATE'11 \[15\]): the load split follows from circuit
//!   laws (Eq. 10–13), nobody controls it.
//! * [`DualHees`] — two switches select battery, ultracapacitor, or both
//!   (Shin et al. DATE'14 \[16\]): a policy picks the mode, e.g. on a
//!   battery-temperature threshold.
//! * [`HybridHees`] — each storage sits behind its own DC/DC converter
//!   on a common DC bus (\[3\]): fully independent power commands, at the
//!   price of conversion losses that grow as the ultracapacitor's
//!   voltage sags. This is the architecture OTEM controls. A
//!   semi-active wiring (one converter, Cao & Emadi \[20\]) is a
//!   [`HybridHees`] whose direct leg is
//!   [`DcDcConverter::direct`](otem_converter::DcDcConverter::direct).
//!
//! All architectures expose a step interface that *resolves* a power
//! request into per-storage operating points, applies them, and returns
//! a [`HeesStep`] record with the energy bookkeeping the controllers and
//! the aging model need.
//!
//! [`HybridHees`] also differentiates its step for OTEM's adjoint
//! gradient. [`HybridHees::step_prepared`] writes a [`HeesStepRecord`]
//! of the operating points the step resolved, and
//! [`HybridHees::step_pullback`] later maps the adjoints of the step's
//! outputs ([`HeesOutputAdjoints`]) onto its inputs
//! ([`HeesInputAdjoints`]): the transposed step Jacobian applied to one
//! vector, leg by leg, with the battery leg filling the battery-bus,
//! temperature and SoC adjoints and the bank leg the bank-bus and SoE
//! adjoints. Each term is the exact partial of the branch the step
//! executed.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod dual;
mod error;
mod hybrid;
mod parallel;
mod step;

pub use dual::{DualHees, DualMode};
pub use error::HeesError;
pub use hybrid::{
    HeesInputAdjoints, HeesOutputAdjoints, HeesSnapshot, HeesStepConstants, HeesStepRecord,
    HybridCommand, HybridHees,
};
pub use parallel::ParallelHees;
pub use step::HeesStep;

use otem_ultracap::UltracapParams;
use otem_units::{Farads, Volts};

/// Maps the paper's cell-referenced capacitance label (5,000–25,000 F at
/// a 16 V rated bank) onto a pack-voltage-domain equivalent with the
/// *same stored energy*, for a bank that couples to the bus without a
/// converter (Parallel, Dual, and the battery-converted semi-active
/// wiring) and so must live in the battery's voltage domain.
///
/// `½·C_pack·V_pack² = ½·C_label·16²` ⇒ `C_pack = C_label·(16/V_pack)²`.
pub fn pack_domain_bank(label: Farads, pack_rated_voltage: Volts) -> UltracapParams {
    let reference = UltracapParams::paper_bank(label);
    let scale = reference.rated_voltage.value() / pack_rated_voltage.value();
    UltracapParams {
        capacitance: Farads::new(label.value() * scale * scale),
        rated_voltage: pack_rated_voltage,
        ..reference
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_domain_bank_preserves_energy() {
        let label = Farads::new(25_000.0);
        let bank = pack_domain_bank(label, Volts::new(400.0));
        let reference = UltracapParams::paper_bank(label);
        let e1 = bank.energy_capacity().value();
        let e2 = reference.energy_capacity().value();
        assert!((e1 - e2).abs() / e2 < 1e-12, "{e1} vs {e2}");
        assert_eq!(bank.rated_voltage, Volts::new(400.0));
    }
}
