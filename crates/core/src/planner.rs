//! Clairvoyant charge-allocation planner: dynamic programming over the
//! whole route (the offline formulation of Xie et al.'s HEES charge
//! allocation \[14\]).
//!
//! Given the *entire* power-request trace up front, the planner computes
//! the battery/ultracapacitor split that minimises total HEES energy
//! (battery chemical + bank + conversion losses) by DP over a
//! (time × state-of-energy) grid on the configuration's own hybrid plant
//! ([`SystemConfig::hybrid_plant`], the plant OTEM drives). It ignores
//! thermal dynamics — it is an *energy* bound, not a lifetime
//! controller — and it is not causal.
//!
//! Its role in this workspace is as a **benchmark**: the receding-horizon
//! OTEM only sees a short forecast window; comparing its HEES energy to
//! the clairvoyant optimum measures what the missing future knowledge
//! costs (see the `dp_gap` integration test and the `clairvoyant_gap`
//! example).
//!
//! The bound is approximate, not strict. Energy-only OTEM (w2 = 0,
//! horizon 8, 15 iterations) lands *below* the plan on `dp_gap`'s pulsed
//! trace: OTEM/DP energy 0.9987 on the default configuration and 0.9889
//! on the stress rig (adjoint gradient, 21 SoE levels × 9 actions). The
//! likely reasons are the DP's simplifications below — every transition
//! is costed at a fixed SoC of 0.8 and at ambient temperature, on a
//! coarse grid.

use crate::config::SystemConfig;
use crate::error::OtemError;
use otem_drivecycle::PowerTrace;
use otem_hees::HybridCommand;
use otem_units::{Joules, Ratio, Watts};
use serde::{Deserialize, Serialize};

/// DP discretisation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlannerConfig {
    /// Number of state-of-energy grid points.
    pub soe_levels: usize,
    /// Candidate ultracapacitor bus powers per step, spanning
    /// ±`cap_power_max` (odd count keeps zero in the set).
    pub actions: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self {
            soe_levels: 41,
            actions: 11,
        }
    }
}

/// The planner's output: per-step ultracapacitor bus-power commands and
/// the achieved total.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Plan {
    /// Commanded bank bus power per step (positive = bank serves).
    pub cap_bus: Vec<Watts>,
    /// Predicted total HEES energy under the plan.
    pub energy: Joules,
}

/// Computes the clairvoyant optimal split for a trace.
///
/// The battery runs at the configured ambient temperature throughout
/// (the planner bounds *energy*, not lifetime). SoC is not a DP state:
/// the backward pass costs every transition from the grid's SoE at a
/// fixed battery SoC of 0.8. The forward pass then replays the winning
/// policy through the configuration's plant from its initial SoC and
/// SoE, so [`Plan::energy`] is that plant's exact energy under
/// [`Plan::cap_bus`].
///
/// # Errors
///
/// Propagates component construction errors from the configuration.
pub fn plan_split(
    config: &SystemConfig,
    trace: &PowerTrace,
    planner: &PlannerConfig,
) -> Result<Plan, OtemError> {
    let n = trace.len();
    let levels = planner.soe_levels.max(2);
    let actions = planner.actions.max(3);
    let dt = trace.dt();

    // Reference plant for step-cost evaluation (cloned per transition).
    let base = config.hybrid_plant()?;

    let soe_of = |level: usize| -> f64 {
        config.soe_min.value() + (1.0 - config.soe_min.value()) * level as f64 / (levels - 1) as f64
    };
    let level_of = |soe: f64| -> usize {
        let t = (soe - config.soe_min.value()) / (1.0 - config.soe_min.value());
        ((t * (levels - 1) as f64).round() as isize).clamp(0, levels as isize - 1) as usize
    };
    let action_power = |a: usize| -> Watts {
        let frac = 2.0 * a as f64 / (actions - 1) as f64 - 1.0;
        config.cap_power_max * frac
    };

    // Backward DP: value[level] = minimal cost-to-go from step t.
    const INF: f64 = f64::INFINITY;
    let mut value = vec![0.0f64; levels];
    let mut policy = vec![vec![0u16; levels]; n];

    for t in (0..n).rev() {
        let load = trace.get(t);
        let mut next_value = vec![INF; levels];
        for level in 0..levels {
            let soe = soe_of(level);
            let mut best = INF;
            let mut best_a = 0u16;
            for a in 0..actions {
                let cap_bus = action_power(a);
                let mut plant = base.clone();
                plant.set_state(Ratio::new(0.8), Ratio::new(soe));
                let step = plant.step(
                    HybridCommand {
                        battery_bus: load - cap_bus,
                        cap_bus,
                    },
                    config.ambient,
                    dt,
                );
                // Infeasible splits (shortfall) are forbidden transitions.
                if step.shortfall.value() > 1.0 {
                    continue;
                }
                let next_level = level_of(plant.soe().value());
                // Signed cost: regeneration absorbed into either storage
                // reduces net consumption, matching the simulator's
                // energy metric.
                let cost = step.hees_power().value() * dt.value();
                let total = cost + value[next_level];
                if total < best {
                    best = total;
                    best_a = a as u16;
                }
            }
            next_value[level] = best;
            policy[t][level] = best_a;
        }
        value = next_value;
    }

    // Forward pass: follow the winning policy with the real plant.
    let mut plant = base;
    let mut cap_bus = Vec::with_capacity(n);
    let mut energy = 0.0;
    for (t, row) in policy.iter().enumerate() {
        let level = level_of(plant.soe().value());
        let a = row[level] as usize;
        let command = action_power(a);
        let step = plant.step(
            HybridCommand {
                battery_bus: trace.get(t) - command,
                cap_bus: command,
            },
            config.ambient,
            dt,
        );
        energy += step.hees_power().value() * dt.value();
        cap_bus.push(command);
    }

    Ok(Plan {
        cap_bus,
        energy: Joules::new(energy),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use otem_units::Seconds;

    fn small_planner() -> PlannerConfig {
        PlannerConfig {
            soe_levels: 15,
            actions: 7,
        }
    }

    fn flat_trace(watts: f64, n: usize) -> PowerTrace {
        PowerTrace::new(Seconds::new(1.0), vec![Watts::new(watts); n])
    }

    #[test]
    fn plan_covers_every_step() {
        let config = SystemConfig::default();
        let trace = flat_trace(15_000.0, 40);
        let plan = plan_split(&config, &trace, &small_planner()).unwrap();
        assert_eq!(plan.cap_bus.len(), 40);
        assert!(plan.energy.value() > 0.0);
    }

    #[test]
    fn steady_load_prefers_the_battery() {
        // A flat load gains nothing from cycling energy through the
        // bank's converter: the optimal plan leaves the bank untouched.
        // The bank starts at its floor, so any use would be cycling (a
        // full bank is worth draining on the compact pack: splitting
        // the load cuts its I²R loss).
        let config = SystemConfig {
            initial_soe: SystemConfig::default().soe_min,
            ..SystemConfig::default()
        };
        let trace = flat_trace(20_000.0, 30);
        let plan = plan_split(&config, &trace, &small_planner()).unwrap();
        let cap_energy: f64 = plan.cap_bus.iter().map(|p| p.value().abs()).sum::<f64>();
        // Near-zero bank activity (grid noise allowed).
        assert!(
            cap_energy < 0.1 * 20_000.0 * 30.0,
            "bank used {cap_energy} W·steps on a flat load"
        );
    }

    #[test]
    fn plan_beats_battery_only_on_pulsed_load() {
        // Pulses: shaving them with the bank reduces I²R losses enough
        // to beat battery-only despite conversion losses.
        let config = SystemConfig::default();
        let mut samples = Vec::new();
        for _ in 0..6 {
            samples.extend(vec![Watts::new(2_000.0); 5]);
            samples.extend(vec![Watts::new(90_000.0); 3]);
        }
        let trace = PowerTrace::new(Seconds::new(1.0), samples);
        let plan = plan_split(&config, &trace, &small_planner()).unwrap();

        // Battery-only comparison on the same plant.
        let mut plant = config.hybrid_plant().unwrap();
        let mut battery_only = 0.0;
        for t in 0..trace.len() {
            let step = plant.step(
                HybridCommand {
                    battery_bus: trace.get(t),
                    cap_bus: Watts::ZERO,
                },
                config.ambient,
                Seconds::new(1.0),
            );
            battery_only += step.hees_power().value().max(0.0);
        }
        assert!(
            plan.energy.value() < battery_only,
            "plan {:.0} J should beat battery-only {battery_only:.0} J",
            plan.energy.value()
        );
    }

    #[test]
    fn plan_energy_is_the_configured_plant_replaying_the_plan() {
        // The stress rig's 96s×16p pack: a planner pricing any other
        // plant cannot reproduce its energy bit-for-bit.
        let config = SystemConfig::stress_rig();
        let mut samples = Vec::new();
        for _ in 0..4 {
            samples.extend(vec![Watts::new(4_000.0); 6]);
            samples.extend(vec![Watts::new(60_000.0); 3]);
            samples.extend(vec![Watts::new(-20_000.0); 2]);
        }
        let trace = PowerTrace::new(config.dt, samples);
        let plan = plan_split(&config, &trace, &small_planner()).unwrap();

        let mut plant = config.hybrid_plant().unwrap();
        let mut energy = 0.0;
        for (t, &cap_bus) in plan.cap_bus.iter().enumerate() {
            let step = plant.step(
                HybridCommand {
                    battery_bus: trace.get(t) - cap_bus,
                    cap_bus,
                },
                config.ambient,
                config.dt,
            );
            energy += step.hees_power().value() * config.dt.value();
        }
        assert_eq!(energy.to_bits(), plan.energy.value().to_bits());
    }

    #[test]
    fn empty_trace_is_an_empty_plan() {
        let config = SystemConfig::default();
        let trace = PowerTrace::new(Seconds::new(1.0), vec![]);
        let plan = plan_split(&config, &trace, &small_planner()).unwrap();
        assert!(plan.cap_bus.is_empty());
        assert_eq!(plan.energy, Joules::ZERO);
    }
}
