//! Structure-of-arrays batched rollout kernel: advance N candidate
//! rollouts in lockstep.
//!
//! The MPC's inner loop evaluates the same horizon under many nearby
//! decision vectors — Armijo step-size ladders, trust-region
//! candidates, finite-difference stencils. Evaluated one at a time,
//! every candidate pays the full per-rollout overhead (workspace
//! checkout, plant rewind, a fresh pass over the load forecast) and
//! walks the whole model state through cache once per candidate.
//!
//! This module keeps the *lanes* (candidates) resident in
//! structure-of-arrays buffers — one contiguous `Vec<f64>` per state
//! component — and advances all of them through one horizon step before
//! moving to the next step. The per-step physics is **not** duplicated:
//! every lane runs through [`crate::adjoint`]'s `rollout_stage`, the
//! exact function the scalar rollout calls, against a single shared
//! plant whose mutable state (SoC, SoE) is swapped per lane visit.
//! Because each lane executes the same operations in the same order as
//! a scalar rollout of its decision vector, **every f64 lane is
//! bit-identical to the scalar path** — the property the batch-parity
//! tests pin. The speedup comes from amortised overhead and locality,
//! not from reassociating any arithmetic.
//!
//! Lane masking: the rollout physics is total (infeasible power demands
//! surface as shortfall cost, not errors), so lanes never fault
//! mid-horizon and no mask is needed inside the kernel. Consumers that
//! *can* fault a lane (the fleet engine's panic isolation) drop the
//! lane from the lockstep set on the spot and report it exactly as the
//! scalar path would — same structured failure, same deterministic
//! step, no rerun — so the surviving lanes and the telemetry stream
//! are untouched.

use crate::adjoint::{rollout_stage, rollout_terminal, StageConstants};
use crate::mpc::{MpcConfig, MpcPlant};
use otem_hees::HybridHees;
use otem_thermal::ThermalState;
use otem_units::{Kelvin, Ratio, Seconds, Watts};

/// Structure-of-arrays state for a batch of candidate rollouts: one
/// contiguous buffer per state component, indexed by lane. Buffers
/// retain their capacity across rollouts, so a warm batch evaluation
/// allocates nothing.
#[derive(Debug, Default, Clone)]
pub struct BatchState {
    /// Battery state of charge per lane.
    soc: Vec<f64>,
    /// Ultracapacitor state of energy per lane.
    soe: Vec<f64>,
    /// Battery lump temperature (K) per lane.
    t_batt: Vec<f64>,
    /// In-pack coolant lump temperature (K) per lane.
    t_cool: Vec<f64>,
    /// Accumulated Eq. 19 cost per lane.
    cost: Vec<f64>,
}

impl BatchState {
    /// An empty batch; lanes are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of active lanes.
    pub fn lanes(&self) -> usize {
        self.cost.len()
    }

    /// Accumulated per-lane costs (valid after the terminal step).
    pub fn costs(&self) -> &[f64] {
        &self.cost
    }

    /// Re-seeds every lane from the shared start state: `hees` must be
    /// in the rollout's start state, `state` is the thermal start.
    /// Reuses buffer capacity.
    fn reset(&mut self, lanes: usize, hees: &HybridHees, state: ThermalState) {
        let soc = hees.soc().value();
        let soe = hees.soe().value();
        for (buf, seed) in [
            (&mut self.soc, soc),
            (&mut self.soe, soe),
            (&mut self.t_batt, state.battery.value()),
            (&mut self.t_cool, state.coolant.value()),
            (&mut self.cost, 0.0),
        ] {
            buf.clear();
            buf.resize(lanes, seed);
        }
    }
}

/// Advances a [`BatchState`] through the horizon one step at a time,
/// all lanes in lockstep. Borrows one plant instance whose mutable
/// state is swapped per lane visit — the same rewind-instead-of-clone
/// trick the scalar workspace pool uses, applied per lane.
#[derive(Debug)]
struct BatchStep<'a> {
    plant: &'a MpcPlant,
    hees: &'a mut HybridHees,
    stage: &'a StageConstants,
    config: &'a MpcConfig,
}

impl<'a> BatchStep<'a> {
    /// A stepper over `plant` for one batched rollout. `hees` must
    /// already be in the plant's start state (`hees == plant.hees`); it
    /// is used as the per-lane scratch plant and left in the last
    /// lane's end-of-horizon state.
    fn new(
        plant: &'a MpcPlant,
        hees: &'a mut HybridHees,
        stage: &'a StageConstants,
        config: &'a MpcConfig,
    ) -> Self {
        Self {
            plant,
            hees,
            stage,
            config,
        }
    }

    /// Advances every lane through horizon step `k`. `zs` is the flat
    /// lane-major decision matrix (`lanes × 2·horizon`; lane `l`'s
    /// vector is `zs[l·2n .. (l+1)·2n]` in the usual
    /// `[cap_share_0..n-1, cool_duty_0..n-1]` layout) and `load` the
    /// step's forecast load, shared by all lanes.
    fn advance(&mut self, batch: &mut BatchState, k: usize, load: Watts, zs: &[f64]) {
        let n = self.config.horizon;
        let m = 2 * n;
        debug_assert!(k < n);
        debug_assert_eq!(zs.len(), batch.lanes() * m);
        for l in 0..batch.lanes() {
            let z = &zs[l * m..(l + 1) * m];
            // Swap the lane's storage state into the shared plant. Both
            // components were last written from a `Ratio` (clamped to
            // [0, 1]), so the f64 round-trip through `Ratio::new` is
            // exact and the lane resumes bit-identically.
            self.hees
                .set_state(Ratio::new(batch.soc[l]), Ratio::new(batch.soe[l]));
            let state = ThermalState {
                battery: Kelvin::new(batch.t_batt[l]),
                coolant: Kelvin::new(batch.t_cool[l]),
            };
            let next = rollout_stage(
                self.plant,
                self.hees,
                state,
                load,
                z[k],
                z[n + k],
                self.stage,
                self.config,
                &mut batch.cost[l],
                None,
            );
            batch.soc[l] = self.hees.soc().value();
            batch.soe[l] = self.hees.soe().value();
            batch.t_batt[l] = next.battery.value();
            batch.t_cool[l] = next.coolant.value();
        }
    }

    /// Applies the terminal tail cost to every lane (call once, after
    /// the last [`BatchStep::advance`]).
    fn finish(&mut self, batch: &mut BatchState) {
        for l in 0..batch.lanes() {
            let state = ThermalState {
                battery: Kelvin::new(batch.t_batt[l]),
                coolant: Kelvin::new(batch.t_cool[l]),
            };
            rollout_terminal(
                self.plant,
                state,
                self.stage,
                self.config,
                &mut batch.cost[l],
            );
        }
    }
}

/// [`rollout_cost_batch`] against a caller-provided scratch plant, batch
/// workspace and stage constants — the allocation-free path the MPC
/// objective routes through. `hees` must already be in the plant's
/// start state.
#[allow(clippy::too_many_arguments)]
pub(crate) fn rollout_cost_batch_with(
    plant: &MpcPlant,
    hees: &mut HybridHees,
    loads: &[Watts],
    stage: &StageConstants,
    config: &MpcConfig,
    zs: &[f64],
    lanes: usize,
    batch: &mut BatchState,
    out: &mut [f64],
) {
    let n = config.horizon;
    assert_eq!(
        zs.len(),
        lanes * 2 * n,
        "batched decision matrix must be lanes × 2·horizon"
    );
    assert_eq!(out.len(), lanes, "output buffer length mismatch");
    batch.reset(lanes, hees, plant.state);
    let mut step = BatchStep::new(plant, hees, stage, config);
    for k in 0..n {
        let load = loads.get(k).copied().unwrap_or(Watts::ZERO);
        step.advance(batch, k, load, zs);
    }
    step.finish(batch);
    out.copy_from_slice(&batch.cost);
}

/// Evaluates the Eq. 19 rollout cost for `lanes` candidate decision
/// vectors in one lockstep pass, writing one cost per lane into `out`.
///
/// `zs` is the flat lane-major decision matrix (`lanes × 2·horizon`).
/// Each lane's cost is bit-identical to
/// [`crate::mpc::rollout_cost`] of that lane's vector — this entry
/// point clones the plant's HEES and builds the stage constants once per
/// call; the MPC's inner loop avoids both by routing through a pooled
/// workspace and the solve's constants instead.
pub fn rollout_cost_batch(
    plant: &MpcPlant,
    loads: &[Watts],
    dt: Seconds,
    config: &MpcConfig,
    zs: &[f64],
    lanes: usize,
    out: &mut [f64],
) {
    let mut hees = plant.hees.clone();
    let mut batch = BatchState::new();
    let stage = StageConstants::new(plant, loads, dt, config);
    rollout_cost_batch_with(
        plant, &mut hees, loads, &stage, config, zs, lanes, &mut batch, out,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::mpc::rollout_cost;
    use otem_thermal::{CoolingPlant, ThermalModel};
    use otem_units::Farads;

    fn plant() -> MpcPlant {
        let config = SystemConfig::default();
        let mut hees = HybridHees::ev_default(Farads::new(25_000.0)).unwrap();
        hees.set_state(config.initial_soc, Ratio::new(0.6));
        MpcPlant {
            hees,
            thermal: ThermalModel::new(config.thermal_active).unwrap(),
            plant: CoolingPlant::new(config.plant).unwrap(),
            state: ThermalState::uniform(config.ambient),
            aging: config.aging,
            soc_min: config.soc_min,
            soe_min: config.soe_min,
            battery_power_max: config.battery_power_max,
            cap_power_max: config.cap_power_max,
        }
    }

    #[test]
    fn lanes_match_scalar_rollouts_bitwise() {
        let plant = plant();
        let config = MpcConfig {
            horizon: 6,
            ..MpcConfig::default()
        };
        let n = config.horizon;
        let dt = Seconds::new(1.0);
        let loads: Vec<Watts> = (0..n)
            .map(|k| Watts::new(8_000.0 + 900.0 * k as f64))
            .collect();

        let lanes = 5;
        let mut zs = vec![0.0; lanes * 2 * n];
        for (l, z) in zs.chunks_exact_mut(2 * n).enumerate() {
            for k in 0..n {
                z[k] = 0.15 * l as f64 - 0.2 + 0.01 * k as f64;
                z[n + k] = 0.22 * l as f64;
            }
        }

        let mut out = vec![0.0; lanes];
        rollout_cost_batch(&plant, &loads, dt, &config, &zs, lanes, &mut out);
        for (l, z) in zs.chunks_exact(2 * n).enumerate() {
            let scalar = rollout_cost(&plant, &loads, dt, &config, z);
            assert_eq!(
                out[l].to_bits(),
                scalar.to_bits(),
                "lane {l}: batched {} vs scalar {scalar}",
                out[l]
            );
        }
    }

    #[test]
    fn single_lane_batch_is_the_scalar_rollout() {
        let plant = plant();
        let config = MpcConfig::default();
        let n = config.horizon;
        let dt = Seconds::new(1.0);
        let loads = vec![Watts::new(12_000.0); n];
        let z: Vec<f64> = (0..2 * n).map(|i| (i as f64 * 0.37).sin() * 0.5).collect();

        let mut out = [0.0];
        rollout_cost_batch(&plant, &loads, dt, &config, &z, 1, &mut out);
        assert_eq!(
            out[0].to_bits(),
            rollout_cost(&plant, &loads, dt, &config, &z).to_bits()
        );
    }
}
