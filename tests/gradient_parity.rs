//! FD-vs-adjoint parity: the hand-derived reverse-mode gradient of the
//! MPC rollout objective must reproduce finite differences to ≤ 1e-6
//! relative error across random plant states, horizons, and step
//! lengths — and stay finite on the degenerate corners where finite
//! differences themselves become ill-conditioned. One level up, a solve
//! driven by central finite differences must land on the first move
//! `Mpc::solve` takes with the adjoint. This file is the MPC's only
//! finite-difference oracle.
//!
//! The FD reference is O(h⁴) Richardson-extrapolated central
//! differences: the `w2` aging term's Arrhenius curvature gives plain
//! central differences at `h ≈ cbrt(ε)` a truncation error of the same
//! order as the tolerance being asserted, which would test the FD
//! scheme, not the adjoint. Decision points are drawn away from the
//! objective's measure-zero kink set (converter no-load ramp at zero
//! cap share, the duty box bounds), where one-sided derivatives differ
//! and neither FD nor the adjoint is canonical.

use otem_repro::battery::BatteryPack;
use otem_repro::control::mpc::{rollout_cost, rollout_gradient_adjoint, Mpc, MpcConfig, MpcPlant};
use otem_repro::control::SystemConfig;
use otem_repro::converter::DcDcConverter;
use otem_repro::hees::{pack_domain_bank, HybridHees};
use otem_repro::solver::{Bounds, Objective, ProjectedGradient};
use otem_repro::telemetry::NullSink;
use otem_repro::thermal::ThermalState;
use otem_repro::ultracap::UltracapParams;
use otem_repro::units::{Kelvin, Ratio, Seconds, Watts};
use proptest::prelude::*;

fn plant(config: &SystemConfig, soc: f64, soe: f64, celsius: f64) -> MpcPlant {
    let mut p = MpcPlant::new(config).expect("valid plant");
    p.hees.set_state(Ratio::new(soc), Ratio::new(soe));
    p.state = ThermalState::uniform(Kelvin::from_celsius(celsius));
    p
}

/// [`plant`] with a semi-active HEES: one storage behind its converter
/// and the other on the bus through a lossless direct leg. The
/// battery-converted wiring's bank lives in the pack's voltage domain.
fn direct_leg_plant(
    config: &SystemConfig,
    cap_converted: bool,
    soc: f64,
    soe: f64,
    celsius: f64,
) -> MpcPlant {
    let mut p = plant(config, soc, soe, celsius);
    let battery = BatteryPack::new(config.cell.clone(), config.pack).expect("valid pack");
    p.hees = if cap_converted {
        HybridHees::new(
            battery,
            UltracapParams::paper_bank(config.capacitance),
            DcDcConverter::direct(),
            DcDcConverter::ultracap_side(),
        )
    } else {
        let rated = battery.open_circuit_voltage();
        HybridHees::new(
            battery,
            pack_domain_bank(config.capacitance, rated),
            DcDcConverter::battery_side(),
            DcDcConverter::direct(),
        )
    }
    .expect("valid wiring");
    p.hees.set_state(Ratio::new(soc), Ratio::new(soe));
    p
}

/// Deterministic splitmix64 — fills load forecasts and decision vectors
/// from one seed so every proptest case is reproducible on its own.
struct Mix(u64);

impl Mix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// A decision vector with every coordinate away from the kink set: cap
/// shares with magnitude in `[0.03, 0.9]` (the converter's no-load-loss
/// ramp has a genuine kink at zero power), duties in `[0.05, 0.95]`
/// (inside the clamp).
fn interior_decisions(n: usize, mix: &mut Mix) -> Vec<f64> {
    let mut z = vec![0.0; 2 * n];
    for zi in z.iter_mut().take(n) {
        let magnitude = mix.range(0.03, 0.9);
        *zi = if mix.unit() < 0.5 {
            magnitude
        } else {
            -magnitude
        };
    }
    for zi in z.iter_mut().skip(n) {
        *zi = mix.range(0.05, 0.95);
    }
    z
}

/// O(h⁴) Richardson-extrapolated central differences.
fn richardson_gradient(z: &[f64], mut f: impl FnMut(&[f64]) -> f64) -> Vec<f64> {
    let h = 1e-4;
    let mut zp = z.to_vec();
    let mut grad = vec![0.0; z.len()];
    for (i, g) in grad.iter_mut().enumerate() {
        let orig = zp[i];
        let mut central = |step: f64| {
            zp[i] = orig + step;
            let fp = f(&zp);
            zp[i] = orig - step;
            let fm = f(&zp);
            zp[i] = orig;
            (fp - fm) / (2.0 * step)
        };
        let coarse = central(h);
        let fine = central(h / 2.0);
        *g = (4.0 * fine - coarse) / 3.0;
    }
    grad
}

/// Asserts `adjoint` matches `fd` coordinate-wise to 1e-6 of the
/// largest FD component.
fn assert_parity(adjoint: &[f64], fd: &[f64], what: &str) {
    let scale = fd.iter().fold(1.0_f64, |m, g| m.max(g.abs()));
    for (i, (a, f)) in adjoint.iter().zip(fd).enumerate() {
        assert!(
            (a - f).abs() <= 1e-6 * scale,
            "coordinate {i} ({what}): adjoint {a:.9e} vs FD {f:.9e}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn adjoint_matches_fd_across_random_states_and_horizons(
        soc in 0.35..0.95f64,
        soe in 0.15..0.9f64,
        celsius in 15.0..41.0f64,
        horizon in 1usize..41,
        step_s in prop_oneof![Just(1usize), Just(5usize)],
        seed in 0u64..1_000_000,
    ) {
        let config = SystemConfig::default();
        let p = plant(&config, soc, soe, celsius);
        let cfg = MpcConfig {
            horizon,
            ..MpcConfig::default()
        };
        // A 5 s step covers the rollout's long-step path.
        let dt = Seconds::new(step_s as f64);
        let mut mix = Mix(seed);
        let loads: Vec<Watts> = (0..horizon)
            .map(|_| Watts::new(mix.range(-20_000.0, 70_000.0)))
            .collect();
        let z = interior_decisions(horizon, &mut mix);

        let mut adjoint = vec![0.0; 2 * horizon];
        let cost = rollout_gradient_adjoint(&p, &loads, dt, &cfg, &z, &mut adjoint);
        // Taped forward pass must be bit-identical to the objective.
        prop_assert_eq!(
            cost.to_bits(),
            rollout_cost(&p, &loads, dt, &cfg, &z).to_bits()
        );

        let fd = richardson_gradient(&z, |zz| rollout_cost(&p, &loads, dt, &cfg, zz));
        let scale = fd.iter().fold(1.0_f64, |m, g| m.max(g.abs()));
        for (i, (a, f)) in adjoint.iter().zip(fd.iter()).enumerate() {
            prop_assert!(
                (a - f).abs() <= 1e-6 * scale,
                "coordinate {} (horizon {}, dt {} s): adjoint {:.9e} vs FD {:.9e}",
                i, horizon, step_s, a, f
            );
        }
    }
}

/// A zero-length forecast leaves every stage load at zero and the
/// terminal C-rate at its floor; central differences still work here,
/// but the division-heavy terminal term makes it the classic corner for
/// sign mistakes. The adjoint must stay finite and keep matching.
#[test]
fn zero_length_forecast_stays_finite_and_matches_fd() {
    let config = SystemConfig::default();
    let p = plant(&config, 0.7, 0.5, 36.0);
    let n = 6;
    let cfg = MpcConfig {
        horizon: n,
        ..MpcConfig::default()
    };
    let loads: [Watts; 0] = [];
    let dt = Seconds::new(1.0);
    let mut mix = Mix(7);
    let z = interior_decisions(n, &mut mix);

    let mut adjoint = vec![0.0; 2 * n];
    let cost = rollout_gradient_adjoint(&p, &loads, dt, &cfg, &z, &mut adjoint);
    assert!(cost.is_finite());
    assert!(adjoint.iter().all(|g| g.is_finite()), "{adjoint:?}");

    let fd = richardson_gradient(&z, |zz| rollout_cost(&p, &loads, dt, &cfg, zz));
    assert_parity(&adjoint, &fd, "zero-length forecast");
}

/// Fixed warm, hot and depleted states with a load profile that drives
/// both legs: the backward sweep reproduces central differences at
/// interior points of every penalty branch. The decisions avoid `z[k] =
/// 0`, which sits exactly on the converter's no-load-loss ramp kink.
fn assert_parity_at_fixed_states(
    what: &str,
    plant_at: impl Fn(&SystemConfig, f64, f64, f64) -> MpcPlant,
) {
    let config = SystemConfig::default();
    let n = 8;
    let cfg = MpcConfig {
        horizon: n,
        ..MpcConfig::default()
    };
    let loads: Vec<Watts> = (0..n)
        .map(|k| Watts::new(4_000.0 + 11_000.0 * (k % 3) as f64))
        .collect();
    let dt = Seconds::new(1.0);
    let z: Vec<f64> = (0..2 * n)
        .map(|i| {
            if i < n {
                0.07 * i as f64 - 0.215
            } else {
                0.09 * (i - n) as f64 + 0.05
            }
        })
        .collect();
    for (celsius, soc, soe) in [(33.0, 0.8, 0.5), (39.0, 0.9, 0.25), (25.0, 0.35, 0.85)] {
        let p = plant_at(&config, soc, soe, celsius);
        let mut adjoint = vec![0.0; 2 * n];
        let cost = rollout_gradient_adjoint(&p, &loads, dt, &cfg, &z, &mut adjoint);
        assert_eq!(
            cost.to_bits(),
            rollout_cost(&p, &loads, dt, &cfg, &z).to_bits(),
            "taped forward pass must be bit-identical to the objective"
        );
        let fd = richardson_gradient(&z, |zz| rollout_cost(&p, &loads, dt, &cfg, zz));
        assert_parity(&adjoint, &fd, &format!("{what}, {celsius} °C"));
    }
}

#[test]
fn adjoint_matches_fd_at_fixed_warm_hot_and_depleted_states() {
    assert_parity_at_fixed_states("two converters", |config, soc, soe, celsius| {
        plant(config, soc, soe, celsius)
    });
}

/// The same states on both semi-active wirings: a direct leg's maps are
/// the identity, so its pullback must carry unit gain and no converter
/// partials.
#[test]
fn adjoint_matches_fd_on_direct_leg_wirings() {
    for (what, cap_converted) in [("cap converted", true), ("battery converted", false)] {
        assert_parity_at_fixed_states(what, |config, soc, soe, celsius| {
            direct_leg_plant(config, cap_converted, soc, soe, celsius)
        });
    }
}

/// An objective differenced by plain central finite differences; over
/// the rollout cost, the solve-level oracle (`4·horizon` rollouts per
/// gradient).
struct CentralFd<F>(F);

impl<F: Fn(&[f64]) -> f64> Objective for CentralFd<F> {
    fn value(&self, z: &[f64]) -> f64 {
        (self.0)(z)
    }

    fn gradient(&self, z: &[f64], grad: &mut [f64]) {
        let mut zp = z.to_vec();
        for (i, g) in grad.iter_mut().enumerate() {
            let h = f64::EPSILON.cbrt() * z[i].abs().max(1.0);
            zp[i] = z[i] + h;
            let fp = self.value(&zp);
            zp[i] = z[i] - h;
            let fm = self.value(&zp);
            zp[i] = z[i];
            *g = (fp - fm) / (2.0 * h);
        }
    }
}

/// Solve-level agreement: the same projected-gradient solver, budget
/// and box (with its two step blocks) as `Mpc::solve`, started from
/// zeros but driven by finite differences, lands on the adjoint solve's
/// first move — cooler duty within 0.15 and bank power within 5 % of
/// the C7 limit — on a warm battery facing a 60 kW pulse halfway
/// through the window. Both sides take one step rule; only the gradient
/// differs.
#[test]
fn fd_driven_solve_agrees_with_the_adjoint_first_move() {
    let config = SystemConfig::default();
    let p = plant(&config, config.initial_soc.value(), 0.6, 36.0);
    let n = 12;
    let cfg = MpcConfig {
        horizon: n,
        ..MpcConfig::default()
    };
    let loads: Vec<Watts> = (0..n)
        .map(|k| Watts::new(if k >= 6 { 60_000.0 } else { 5_000.0 }))
        .collect();
    let dt = Seconds::new(1.0);

    let adjoint = Mpc::new(cfg).solve(&p, &loads, dt);

    // `Mpc::new`'s box: cap shares in [-1, 1], then duties in [0, 1],
    // one step block each.
    let mut lower = vec![-1.0; n];
    lower.extend(vec![0.0; n]);
    let bounds = Bounds::new(lower, vec![1.0; 2 * n]).partitioned_at(&[n]);
    let solver = ProjectedGradient {
        max_iterations: cfg.solver_iterations,
        tolerance: 1e-5,
    };
    let oracle = CentralFd(|z: &[f64]| rollout_cost(&p, &loads, dt, &cfg, z));
    let fd = solver.minimize_within(&oracle, &bounds, &vec![0.0; 2 * n], &NullSink, None);
    let fd_cap_bus = fd.x[0] * p.cap_power_max.value();
    let fd_duty = fd.x[n];

    assert!(
        (fd_duty - adjoint.cool_duty).abs() < 0.15
            && (fd_cap_bus - adjoint.cap_bus.value()).abs()
                < 0.05 * p.cap_power_max.value().max(1.0),
        "adjoint optimum diverged: FD ({fd_cap_bus:.1} W, {fd_duty:.4}) vs \
         adjoint ({:?}, {:.4})",
        adjoint.cap_bus,
        adjoint.cool_duty
    );
}

/// A saturated ultracapacitor pins the bank on its feasibility clamp:
/// the objective is only piecewise-smooth there and finite differences
/// straddle the clamp branches (step size comparable to the distance to
/// the branch boundary), so parity is not defined — but the adjoint
/// must differentiate the executed branch and return finite numbers.
#[test]
fn saturated_ultracap_keeps_the_adjoint_finite() {
    let config = SystemConfig::default();
    for (soe, share) in [(0.0, 0.95), (1.0, -0.95), (0.02, 0.99)] {
        let p = plant(&config, 0.8, soe, 34.0);
        let n = 8;
        let cfg = MpcConfig {
            horizon: n,
            ..MpcConfig::default()
        };
        let loads = vec![Watts::new(45_000.0); n];
        let dt = Seconds::new(1.0);
        let mut z = vec![0.0; 2 * n];
        z[..n].fill(share); // slam the bank against its clamp
        z[n..].fill(0.4);

        let mut adjoint = vec![0.0; 2 * n];
        let cost = rollout_gradient_adjoint(&p, &loads, dt, &cfg, &z, &mut adjoint);
        assert!(cost.is_finite(), "soe {soe}, share {share}");
        assert!(
            adjoint.iter().all(|g| g.is_finite()),
            "soe {soe}, share {share}: {adjoint:?}"
        );
        // And the taped forward pass is still the exact objective.
        assert_eq!(
            cost.to_bits(),
            rollout_cost(&p, &loads, dt, &cfg, &z).to_bits()
        );
    }
}
