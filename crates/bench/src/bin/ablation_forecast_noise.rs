//! **Ablation** — forecast quality: OTEM assumes the EV power requests
//! are predictable (route + power-train model). How gracefully does it
//! degrade when the forecast is noisy or absent?
//!
//! ```sh
//! cargo run --release -p otem-bench --bin ablation_forecast_noise
//! ```

use otem::policy::Otem;
use otem::{Controller, Simulator, StepRecord, SystemState};
use otem_bench::{cycle_trace, paper_config};
use otem_drivecycle::StandardCycle;
use otem_telemetry::Sink;
use otem_units::{Seconds, Watts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Wraps OTEM, corrupting the forecast it sees with multiplicative noise
/// (σ as a fraction), or zeroing it entirely.
struct NoisyForecast {
    inner: Otem,
    sigma: f64,
    zero: bool,
    rng: StdRng,
}

impl Controller for NoisyForecast {
    fn name(&self) -> &'static str {
        "OTEM(noisy)"
    }

    fn step_with(
        &mut self,
        load: Watts,
        forecast: &[Watts],
        dt: Seconds,
        sink: &dyn Sink,
    ) -> StepRecord {
        let corrupted: Vec<Watts> = if self.zero {
            vec![Watts::ZERO; forecast.len()]
        } else {
            forecast
                .iter()
                .map(|p| {
                    let factor = 1.0 + self.rng.gen_range(-1.0..1.0) * self.sigma;
                    *p * factor
                })
                .collect()
        };
        self.inner.step_with(load, &corrupted, dt, sink)
    }

    fn state(&self) -> SystemState {
        self.inner.state()
    }
}

fn main() {
    let config = paper_config();
    let trace = cycle_trace(StandardCycle::Us06, 2).expect("trace");
    let sim = Simulator::new(&config);

    println!("# Ablation — forecast corruption, US06 x2");
    println!(
        "{}",
        otem_bench::config_header(
            otem_bench::PAPER_CONFIG,
            Some(&otem::mpc::MpcConfig::default())
        )
    );
    println!(
        "{:>14} {:>12} {:>10} {:>10}",
        "forecast", "Q_loss", "avgP (kW)", "short(MJ)"
    );
    for (label, sigma, zero) in [
        ("perfect", 0.0, false),
        ("σ = 10%", 0.10, false),
        ("σ = 30%", 0.30, false),
        ("σ = 60%", 0.60, false),
        ("none (zero)", 0.0, true),
    ] {
        let mut controller = NoisyForecast {
            inner: Otem::new(&config).expect("controller"),
            sigma,
            zero,
            rng: StdRng::seed_from_u64(99),
        };
        let r = sim.run(&mut controller, &trace);
        println!(
            "{:>14} {:>12.4e} {:>10.2} {:>10.3}",
            label,
            r.totals.capacity_loss,
            r.average_power().value() / 1000.0,
            r.totals.shortfall_energy.value() / 1e6
        );
    }
    println!("\nExpected: graceful degradation — moderate noise barely matters (the");
    println!("TEB margins absorb it); no forecast forfeits the pre-charging benefit.");
}
