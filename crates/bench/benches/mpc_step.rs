//! One MPC solve (the per-control-period cost of OTEM) versus horizon
//! length — the controller must fit inside the 1 s control period with
//! ample margin.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use otem::mpc::{Mpc, MpcConfig, MpcPlant};
use otem::SystemConfig;
use otem_hees::HybridHees;
use otem_solver::GradientMode;
use otem_thermal::{CoolingPlant, ThermalModel, ThermalState};
use otem_units::{Kelvin, Ratio, Seconds, Watts};

fn plant(config: &SystemConfig) -> MpcPlant {
    let mut hees = HybridHees::ev_default(config.capacitance).unwrap();
    hees.set_state(Ratio::new(0.8), Ratio::new(0.6));
    MpcPlant {
        hees,
        thermal: ThermalModel::new(config.thermal_active).unwrap(),
        plant: CoolingPlant::new(config.plant).unwrap(),
        state: ThermalState::uniform(Kelvin::from_celsius(33.0)),
        aging: config.aging,
        soc_min: config.soc_min,
        soe_min: config.soe_min,
        battery_power_max: config.battery_power_max,
        cap_power_max: config.cap_power_max,
    }
}

fn bench_mpc(c: &mut Criterion) {
    let config = SystemConfig::default();
    let p = plant(&config);
    let mut group = c.benchmark_group("mpc_solve");
    group.sample_size(10);
    for horizon in [6usize, 12, 24] {
        let loads: Vec<Watts> = (0..horizon)
            .map(|k| Watts::new(20_000.0 + 40_000.0 * ((k % 5) as f64 / 4.0)))
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(horizon), &horizon, |b, _| {
            let mut mpc = Mpc::new(MpcConfig {
                horizon,
                ..MpcConfig::default()
            });
            b.iter(|| mpc.solve(&p, &loads, Seconds::new(1.0)));
        });
    }
    group.finish();
}

/// Finite-difference gradients vs the reverse-mode adjoint at a fixed
/// horizon: the adjoint replaces `4·horizon` FD rollouts per gradient
/// with one taped rollout (DESIGN.md §8), which is where its
/// order-of-magnitude gap comes from.
fn bench_gradient_modes(c: &mut Criterion) {
    let config = SystemConfig::default();
    let p = plant(&config);
    let mut group = c.benchmark_group("mpc_gradient_mode");
    group.sample_size(10);
    for horizon in [12usize, 24] {
        let loads: Vec<Watts> = (0..horizon)
            .map(|k| Watts::new(20_000.0 + 40_000.0 * ((k % 5) as f64 / 4.0)))
            .collect();
        for (label, mode) in [
            ("serial", GradientMode::Serial),
            ("adjoint", GradientMode::Adjoint),
        ] {
            group.bench_with_input(BenchmarkId::new(label, horizon), &horizon, |b, _| {
                let mut mpc = Mpc::new(MpcConfig {
                    horizon,
                    gradient_mode: mode,
                    ..MpcConfig::default()
                });
                b.iter(|| mpc.solve(&p, &loads, Seconds::new(1.0)));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_mpc, bench_gradient_modes);
criterion_main!(benches);
