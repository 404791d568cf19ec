//! The closed-loop simulation engine — the paper's Algorithm 1 outer
//! loop, generalised over methodologies.

use crate::config::SystemConfig;
use crate::controller::Controller;
use crate::metrics::SimulationResult;
use otem_battery::AgingParams;
use otem_drivecycle::PowerTrace;
use otem_telemetry::{span, Event, NullSink, Sink};
use otem_units::{Joules, Kelvin, Seconds, Watts};
use serde::{Deserialize, Serialize};

/// How many future samples the controller gets to see each step
/// (Algorithm 1 lines 11–12 fill the control window from `P̂_e`).
const FORECAST_LEN: usize = 64;

/// The route ledger: every total of a run, folded by
/// [`RunCursor::advance`] as it steps, each in step order from `+0.0`.
/// An energy is `Σ power·dt` over the step records, `capacity_loss` is
/// `Σ loss_rate(T_b, c)·dt` (paper Eq. 5 read as a rate law) and the
/// peak is a running maximum from 0 K. This is the one place a run's
/// totals are summed; [`SimulationResult::totals`] and the fleet's
/// summaries carry this value.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct RunTotals {
    /// Steps executed (equals the trace length).
    pub steps: usize,
    /// Accumulated battery capacity loss (fraction of rated capacity) —
    /// the paper's `Q_loss` output.
    pub capacity_loss: f64,
    /// Energy consumed from the HEES (battery chemical + net
    /// ultracapacitor energy) — the paper's `Energy` output. Includes
    /// the energy spent powering the cooling system, which is served
    /// from the bus.
    pub energy: Joules,
    /// Electric energy drawn by the cooling system.
    pub cooling_energy: Joules,
    /// Load energy that could not be served (≈ 0 for a healthy
    /// configuration; nonzero values flag an undersized storage).
    pub shortfall_energy: Joules,
    /// Energy delivered toward the EV load (net of cooling).
    pub delivered_energy: Joules,
    /// Joule + entropic losses inside the battery: its generated heat
    /// (Eq. 4), which counts both discharge and charge.
    pub battery_loss: Joules,
    /// DC/DC conversion losses.
    pub converter_loss: Joules,
    /// Peak battery temperature reached (0 K on an empty route).
    pub peak_battery_temp: Kelvin,
}

/// Drives a [`Controller`] over a [`PowerTrace`], accumulating the
/// paper's outputs (`Q_loss`, `Energy`) and the full step records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Simulator {
    config: SystemConfig,
}

impl Simulator {
    /// Builds a simulator for the given system configuration.
    pub fn new(config: &SystemConfig) -> Self {
        Self {
            config: config.clone(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Runs the full route: for each sample, hand the controller the
    /// load and its forecast window, apply the step, and fold the
    /// step's record into the route's [`RunTotals`].
    pub fn run(&self, controller: &mut dyn Controller, trace: &PowerTrace) -> SimulationResult {
        self.run_with(controller, trace, &NullSink)
    }

    /// [`Simulator::run`] with telemetry: every step emits one
    /// [`Event::StepCompleted`] into an enabled `sink` (a disabled one
    /// gets no step events; see [`Sink::enabled`]), and the sink is
    /// handed to the controller (via [`Controller::step_with`]) so
    /// instrumented controllers can trace their solver and plant
    /// internals.
    ///
    /// The sink is strictly observational: for any sink the returned
    /// [`SimulationResult`] is `PartialEq`-identical to
    /// [`Simulator::run`] — the contract the `telemetry_parity`
    /// integration test pins.
    pub fn run_with(
        &self,
        controller: &mut dyn Controller,
        trace: &PowerTrace,
        sink: &dyn Sink,
    ) -> SimulationResult {
        let mut records = Vec::with_capacity(trace.len());
        let totals = self.run_each(controller, trace, sink, |_, record| records.push(*record));
        SimulationResult {
            methodology: controller.name(),
            dt: self.config.dt,
            records,
            totals,
        }
    }

    /// The streaming core of [`Simulator::run_with`]: identical step
    /// loop, but each [`StepRecord`](crate::StepRecord) is handed to
    /// `observe` instead of retained. This is the entry point for
    /// fleet-scale batch runs, where keeping every vehicle's full record
    /// vector would dominate memory (100k vehicles × hundreds of steps)
    /// — the returned [`RunTotals`] hold every route total, and the
    /// records are gone.
    ///
    /// [`Simulator::run_with`] is implemented on top of this method
    /// (its observer pushes into a `Vec`), so the records a streaming
    /// observer sees, and the totals, are bit-identical to a retained
    /// run's — the contract the fleet determinism tests pin across shard
    /// counts.
    pub fn run_each(
        &self,
        controller: &mut dyn Controller,
        trace: &PowerTrace,
        sink: &dyn Sink,
        mut observe: impl FnMut(usize, &crate::StepRecord),
    ) -> RunTotals {
        let mut cursor = self.cursor();
        while cursor.advance(controller, trace, sink, &mut observe) {}
        cursor.finish(sink)
    }

    /// A suspended run at step zero: the step loop of
    /// [`Simulator::run_each`] handed out one [`RunCursor::advance`] at
    /// a time, so a caller can act between steps (the repository
    /// benchmark times each decision this way). A fully drained cursor
    /// produces [`RunTotals`] bit-identical to [`Simulator::run_each`]
    /// — the advance body *is* `run_each`'s loop body.
    pub fn cursor(&self) -> RunCursor {
        RunCursor {
            aging: self.config.aging,
            dt: self.config.dt,
            tail: Vec::new(),
            tail_start: 0,
            totals: RunTotals::default(),
        }
    }
}

/// The resumable step loop of [`Simulator::run_each`]: holds exactly
/// the loop state (the route ledger, whose `steps` is the next step,
/// and the route's zero-padded tail), borrowing nothing between steps,
/// so the caller keeps its controller and trace.
///
/// Each step's forecast window `[t + 1, t + 1 + FORECAST_LEN)` is
/// borrowed from the trace while it lies inside the route. The first
/// window that runs past the end builds the tail once: the samples from
/// that window's start to the end of the route, then `FORECAST_LEN`
/// zeros. Every later window is borrowed from the tail. So a run copies
/// at most `2·FORECAST_LEN` samples, allocates once, and a step
/// allocates nothing a controller does not allocate itself.
#[derive(Debug)]
pub struct RunCursor {
    aging: AgingParams,
    dt: Seconds,
    /// The zero-padded tail, empty until the first window runs past the
    /// end of the route.
    tail: Vec<Watts>,
    /// The trace index of `tail[0]`.
    tail_start: usize,
    totals: RunTotals,
}

impl RunCursor {
    /// Runs one closed-loop step — the exact body of
    /// [`Simulator::run_each`]'s loop — and returns `true`, or returns
    /// `false` without side effects once the trace is exhausted.
    pub fn advance(
        &mut self,
        controller: &mut dyn Controller,
        trace: &PowerTrace,
        sink: &dyn Sink,
        mut observe: impl FnMut(usize, &crate::StepRecord),
    ) -> bool {
        let t = self.totals.steps;
        if t >= trace.len() {
            return false;
        }
        let step_span = span(sink, "sim_step");
        let load = trace.get(t);
        let start = t + 1;
        let forecast = match trace.samples().get(start..start + FORECAST_LEN) {
            Some(window) => window,
            None => {
                if self.tail.is_empty() {
                    let rest = &trace.samples()[start..];
                    self.tail.reserve_exact(rest.len() + FORECAST_LEN);
                    self.tail.extend_from_slice(rest);
                    self.tail.resize(rest.len() + FORECAST_LEN, Watts::ZERO);
                    self.tail_start = start;
                }
                let at = start - self.tail_start;
                &self.tail[at..at + FORECAST_LEN]
            }
        };
        let dt = self.dt;
        let record = controller.step_with(load, forecast, dt, sink);
        let totals = &mut self.totals;
        totals.capacity_loss += self
            .aging
            .loss_rate(record.state.battery_temp, record.hees.battery_c_rate)
            * dt.value();
        totals.energy += record.total_power() * dt;
        totals.cooling_energy += record.cooling_power * dt;
        totals.shortfall_energy += record.hees.shortfall * dt;
        totals.delivered_energy += (record.hees.delivered - record.cooling_power) * dt;
        totals.battery_loss += record.hees.battery_heat * dt;
        totals.converter_loss += record.hees.converter_loss * dt;
        totals.peak_battery_temp = totals.peak_battery_temp.max(record.state.battery_temp);
        if step_span.is_active() {
            sink.record(Event::StepCompleted {
                step: t as u64,
                load_w: record.load.value(),
                delivered_w: record.hees.delivered.value(),
                shortfall_w: record.hees.shortfall.value(),
                cooling_w: record.cooling_power.value(),
                battery_temp_k: record.state.battery_temp.value(),
                soc: record.state.soc.value(),
                soe: record.state.soe.value(),
            });
        }
        observe(t, &record);
        self.totals.steps += 1;
        true
    }

    /// Flushes the sink and closes the run. `steps` equals the trace
    /// length when the cursor was drained to completion.
    pub fn finish(self, sink: &dyn Sink) -> RunTotals {
        sink.flush();
        self.totals
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::controller::{StepRecord, SystemState};
    use crate::policy::{ActiveCooling, Dual, Otem, Parallel};
    use otem_hees::HeesStep;
    use otem_units::Ratio;

    /// Runs `records` back through the simulator at control period `dt`:
    /// the controller hands out each record in turn, so the result's
    /// totals are the ledger folded over exactly these records.
    pub(crate) fn replay(dt: Seconds, records: &[StepRecord]) -> SimulationResult {
        let config = SystemConfig {
            dt,
            ..SystemConfig::default()
        };
        let trace = PowerTrace::new(dt, records.iter().map(|r| r.load).collect());
        Simulator::new(&config).run(&mut Replay(records.iter()), &trace)
    }

    struct Replay<'a>(std::slice::Iter<'a, StepRecord>);

    impl Controller for Replay<'_> {
        fn name(&self) -> &'static str {
            "replay"
        }

        fn step_with(
            &mut self,
            _load: Watts,
            _forecast: &[Watts],
            _dt: Seconds,
            _sink: &dyn Sink,
        ) -> StepRecord {
            *self.0.next().expect("one record per step")
        }

        fn state(&self) -> SystemState {
            self.0.as_slice().first().map_or(idle_state(), |r| r.state)
        }
    }

    fn idle_state() -> SystemState {
        SystemState {
            battery_temp: Kelvin::from_celsius(25.0),
            coolant_temp: Kelvin::from_celsius(25.0),
            soe: Ratio::HALF,
            soc: Ratio::ONE,
        }
    }

    /// Every ledger field as bits, in declaration order.
    fn total_bits(t: &RunTotals) -> [u64; 9] {
        [
            t.steps as u64,
            t.capacity_loss.to_bits(),
            t.energy.value().to_bits(),
            t.cooling_energy.value().to_bits(),
            t.shortfall_energy.value().to_bits(),
            t.delivered_energy.value().to_bits(),
            t.battery_loss.value().to_bits(),
            t.converter_loss.value().to_bits(),
            t.peak_battery_temp.value().to_bits(),
        ]
    }

    #[test]
    fn run_collects_one_record_per_sample() {
        let config = SystemConfig::default();
        let mut controller = Parallel::new(&config).expect("valid");
        let trace = PowerTrace::new(Seconds::new(1.0), vec![Watts::new(10_000.0); 25]);
        let result = Simulator::new(&config).run(&mut controller, &trace);
        assert_eq!(result.records.len(), 25);
        assert!(result.totals.capacity_loss > 0.0);
        assert!(result.totals.energy.value() > 0.0);
        assert_eq!(result.methodology, "Parallel");
    }

    #[test]
    fn empty_trace_is_a_noop() {
        let config = SystemConfig::default();
        let mut controller = Parallel::new(&config).expect("valid");
        let trace = PowerTrace::new(Seconds::new(1.0), vec![]);
        let result = Simulator::new(&config).run(&mut controller, &trace);
        assert!(result.records.is_empty());
        assert_eq!(result.totals.capacity_loss, 0.0);
    }

    /// Records every forecast window the simulator hands to the
    /// controller, and where it lives, so the
    /// `trace.window(t + 1, FORECAST_LEN)` semantics and the borrowing
    /// can be pinned explicitly.
    struct ForecastProbe {
        forecasts: Vec<Vec<Watts>>,
        addresses: Vec<usize>,
        state: SystemState,
    }

    impl ForecastProbe {
        fn new() -> Self {
            Self {
                forecasts: Vec::new(),
                addresses: Vec::new(),
                state: idle_state(),
            }
        }
    }

    impl Controller for ForecastProbe {
        fn name(&self) -> &'static str {
            "ForecastProbe"
        }

        fn step_with(
            &mut self,
            load: Watts,
            forecast: &[Watts],
            _dt: Seconds,
            _sink: &dyn Sink,
        ) -> StepRecord {
            self.forecasts.push(forecast.to_vec());
            self.addresses.push(forecast.as_ptr() as usize);
            StepRecord {
                load,
                hees: HeesStep::default(),
                cooling_power: Watts::ZERO,
                state: self.state,
            }
        }

        fn state(&self) -> SystemState {
            self.state
        }
    }

    /// Pins the forecast-window contract at the end of the route: the
    /// controller at step `t` sees `trace.window(t + 1, FORECAST_LEN)`,
    /// which is always exactly `FORECAST_LEN` long and **zero-padded**
    /// (not shrunk) past the last sample — so the final step's window
    /// contains no real samples at all.
    #[test]
    fn forecast_window_is_zero_padded_at_the_end_of_the_trace() {
        let config = SystemConfig::default();
        let n = FORECAST_LEN;
        let samples: Vec<Watts> = (1..=n + 2)
            .map(|k| Watts::new(1_000.0 * k as f64))
            .collect();
        let trace = PowerTrace::new(Seconds::new(1.0), samples.clone());
        let mut probe = ForecastProbe::new();
        Simulator::new(&config).run(&mut probe, &trace);

        assert_eq!(probe.forecasts.len(), n + 2);
        // Every window has exactly FORECAST_LEN entries, shrinking never.
        for (t, forecast) in probe.forecasts.iter().enumerate() {
            assert_eq!(forecast.len(), n, "window length at step {t}");
        }
        // Step 0 sees samples 1..=n (forecast[0] is the *next* load).
        assert_eq!(probe.forecasts[0], samples[1..=n].to_vec());
        // Step n - 1 straddles the end: two real samples, then zeros.
        let mut straddle = vec![samples[n], samples[n + 1]];
        straddle.resize(n, Watts::ZERO);
        assert_eq!(probe.forecasts[n - 1], straddle);
        // Step n sees the last sample then zeros; step n + 1 (the final
        // step) sees a window of pure padding.
        let mut last = vec![samples[n + 1]];
        last.resize(n, Watts::ZERO);
        assert_eq!(probe.forecasts[n], last);
        assert_eq!(probe.forecasts[n + 1], vec![Watts::ZERO; n]);
    }

    /// A forecast window longer than the whole route is all padding
    /// beyond the real samples from step 1 on.
    #[test]
    fn forecast_window_longer_than_route_is_mostly_padding() {
        let config = SystemConfig::default();
        let trace = PowerTrace::new(
            Seconds::new(1.0),
            vec![Watts::new(500.0), Watts::new(700.0)],
        );
        let mut probe = ForecastProbe::new();
        Simulator::new(&config).run(&mut probe, &trace);
        let mut first = vec![Watts::new(700.0)];
        first.resize(FORECAST_LEN, Watts::ZERO);
        assert_eq!(probe.forecasts[0], first);
        assert_eq!(probe.forecasts[1], vec![Watts::ZERO; FORECAST_LEN]);
    }

    /// Every window the controller receives — borrowed inside the route,
    /// padded near its end — is `FORECAST_LEN` long and bit-equal to
    /// `trace.window(t + 1, FORECAST_LEN)`, across route lengths from
    /// shorter than the window to longer than it.
    #[test]
    fn every_forecast_is_bit_equal_to_the_owned_window() {
        let config = SystemConfig::default();
        for steps in [1, 2, 63, 64, 65, 200] {
            let samples: Vec<Watts> = (0..steps)
                .map(|k| Watts::new(20_000.0 * (0.37 * k as f64).sin() - 1_500.0))
                .collect();
            let trace = PowerTrace::new(Seconds::new(1.0), samples);
            let mut probe = ForecastProbe::new();
            Simulator::new(&config).run(&mut probe, &trace);
            assert_eq!(probe.forecasts.len(), steps);
            for (t, forecast) in probe.forecasts.iter().enumerate() {
                let owned = trace.window(t + 1, FORECAST_LEN);
                assert_eq!(forecast.len(), FORECAST_LEN, "{steps} steps, step {t}");
                assert!(
                    forecast
                        .iter()
                        .zip(&owned)
                        .all(|(a, b)| a.value().to_bits() == b.value().to_bits()),
                    "{steps} steps, step {t}"
                );
            }
        }
    }

    /// A window inside the route is the trace's own slice, not a copy;
    /// every window past it is a slice of one tail buffer, each one
    /// sample on from the last, so the tail is built once per run; each
    /// window holds the samples left in the route, then zeros.
    #[test]
    fn windows_are_borrowed_from_the_route_and_then_from_one_tail() {
        let config = SystemConfig::default();
        let steps = FORECAST_LEN + 10;
        let samples: Vec<Watts> = (0..steps).map(|k| Watts::new(k as f64)).collect();
        let trace = PowerTrace::new(Seconds::new(1.0), samples);
        let mut probe = ForecastProbe::new();
        Simulator::new(&config).run(&mut probe, &trace);
        let route = trace.samples().as_ptr_range();
        let route = route.start as usize..route.end as usize;
        let (inside, tail) = probe.addresses.split_at(steps - FORECAST_LEN);
        for (t, &address) in inside.iter().enumerate() {
            assert_eq!(
                address,
                route.start + (t + 1) * std::mem::size_of::<Watts>()
            );
        }
        assert!(tail.iter().all(|a| !route.contains(a)), "{tail:?}");
        for pair in tail.windows(2) {
            assert_eq!(pair[1] - pair[0], std::mem::size_of::<Watts>(), "{tail:?}");
        }
        for (t, forecast) in probe.forecasts.iter().enumerate() {
            let rest = trace.samples().get(t + 1..).unwrap_or(&[]);
            let shown = rest.len().min(FORECAST_LEN);
            assert_eq!(forecast[..shown], rest[..shown], "step {t}");
            assert!(
                forecast[shown..].iter().all(|&w| w == Watts::ZERO),
                "step {t} is zero-padded past the end"
            );
        }
    }

    #[test]
    fn run_each_streams_the_records_run_collects() {
        let config = SystemConfig::default();
        let trace = PowerTrace::new(Seconds::new(1.0), vec![Watts::new(12_000.0); 15]);

        let mut retained = Parallel::new(&config).expect("valid");
        let result = Simulator::new(&config).run(&mut retained, &trace);

        let mut streamed = Parallel::new(&config).expect("valid");
        let mut seen = Vec::new();
        let totals = Simulator::new(&config).run_each(&mut streamed, &trace, &NullSink, |t, r| {
            assert_eq!(t, seen.len(), "records arrive in step order");
            seen.push(*r);
        });

        assert_eq!(seen, result.records, "streamed records are bit-identical");
        assert_eq!(totals.steps, result.records.len());
        assert_eq!(
            total_bits(&totals),
            total_bits(&result.totals),
            "every streamed total is bit-identical"
        );
    }

    /// The independent check on the ledger: each total recomputed here
    /// from the retained records — `Σ value·dt` and `Σ loss_rate·dt` in
    /// step order from `+0.0`, and the running maximum of `T_b` from
    /// 0 K — equals the folded one bit for bit, for every methodology
    /// the paper compares.
    #[test]
    fn ledger_equals_the_totals_recomputed_from_the_records() {
        let config = SystemConfig::default();
        let loads = (0..16).map(|k| Watts::new(if k % 4 == 3 { -12_000.0 } else { 45_000.0 }));
        let trace = PowerTrace::new(config.dt, loads.collect());
        let controllers: [Box<dyn Controller>; 4] = [
            Box::new(Parallel::new(&config).expect("valid")),
            Box::new(ActiveCooling::new(&config).expect("valid")),
            Box::new(Dual::new(&config).expect("valid")),
            Box::new(Otem::new(&config).expect("valid")),
        ];
        for mut controller in controllers {
            let result = Simulator::new(&config).run(controller.as_mut(), &trace);
            let dt = result.dt.value();
            let sum = |f: &dyn Fn(&StepRecord) -> f64| {
                result.records.iter().fold(0.0, |acc, r| acc + f(r) * dt)
            };
            let expected = [
                result.records.len() as u64,
                sum(&|r| {
                    config
                        .aging
                        .loss_rate(r.state.battery_temp, r.hees.battery_c_rate)
                })
                .to_bits(),
                sum(&|r| r.total_power().value()).to_bits(),
                sum(&|r| r.cooling_power.value()).to_bits(),
                sum(&|r| r.hees.shortfall.value()).to_bits(),
                sum(&|r| r.hees.delivered.value() - r.cooling_power.value()).to_bits(),
                sum(&|r| r.hees.battery_heat.value()).to_bits(),
                sum(&|r| r.hees.converter_loss.value()).to_bits(),
                result
                    .records
                    .iter()
                    .fold(0.0f64, |peak, r| peak.max(r.state.battery_temp.value()))
                    .to_bits(),
            ];
            assert_eq!(result.totals.steps, trace.len(), "{}", result.methodology);
            assert_eq!(
                total_bits(&result.totals),
                expected,
                "{}",
                result.methodology
            );
            assert!(result.totals.capacity_loss > 0.0, "{}", result.methodology);
        }
    }

    #[test]
    fn ledger_integrates_energy_components() {
        let load = 10_000.0;
        let record = StepRecord {
            load: Watts::new(load),
            hees: HeesStep {
                delivered: Watts::new(load),
                battery_internal: Watts::new(load),
                battery_heat: Watts::new(0.02 * load),
                converter_loss: Watts::new(0.01 * load),
                ..HeesStep::default()
            },
            cooling_power: Watts::new(500.0),
            state: SystemState {
                battery_temp: Kelvin::from_celsius(30.0),
                coolant_temp: Kelvin::from_celsius(30.0),
                soc: Ratio::HALF,
                soe: Ratio::HALF,
            },
        };
        let b = replay(Seconds::new(1.0), &[record; 10]).totals;
        assert_eq!(b.delivered_energy, Joules::new(95_000.0));
        assert_eq!(b.battery_loss, Joules::new(2_000.0));
        assert_eq!(b.converter_loss, Joules::new(1_000.0));
        assert_eq!(b.cooling_energy, Joules::new(5_000.0));
    }

    #[test]
    fn ledger_tracks_loss_and_elapsed_time() {
        let step = Seconds::new(60.0);
        assert_eq!(replay(step, &[]).totals.capacity_loss, 0.0);

        let temperature = Kelvin::from_celsius(35.0);
        let record = StepRecord {
            load: Watts::new(10_000.0),
            hees: HeesStep {
                battery_c_rate: 1.2,
                ..HeesStep::default()
            },
            cooling_power: Watts::ZERO,
            state: SystemState {
                battery_temp: temperature,
                ..idle_state()
            },
        };
        let result = replay(step, &[record; 60]);
        let aging = SystemConfig::default().aging;
        let mut total = 0.0;
        for r in &result.records {
            total += aging.loss_rate(r.state.battery_temp, r.hees.battery_c_rate) * step.value();
        }
        assert!(total > 0.0);
        assert!((result.totals.capacity_loss - total).abs() < 1e-15);
        // Constant conditions: the loss is the rate times the elapsed hour.
        let hour = aging.loss_rate(temperature, 1.2) * 3600.0;
        assert!((total - hour).abs() < 1e-12 * hour, "{total} vs {hour}");
    }

    #[test]
    fn run_with_emits_one_step_completed_per_sample() {
        use otem_telemetry::MemorySink;
        let config = SystemConfig::default();
        let mut controller = Parallel::new(&config).expect("valid");
        let trace = PowerTrace::new(Seconds::new(1.0), vec![Watts::new(10_000.0); 7]);
        let sink = MemorySink::new();
        let result = Simulator::new(&config).run_with(&mut controller, &trace, &sink);
        assert_eq!(result.records.len(), 7);
        assert_eq!(sink.count_kind("step_completed"), 7);
        // The event mirrors the record it was derived from.
        let first = sink
            .events()
            .into_iter()
            .find(|e| matches!(e, Event::StepCompleted { .. }))
            .expect("a step_completed event");
        if let Event::StepCompleted { step, load_w, .. } = first {
            assert_eq!(step, 0);
            assert_eq!(load_w, 10_000.0);
        }
        // Each step is wrapped in a sim_step span, balanced.
        assert_eq!(
            sink.count_kind("span_start"),
            7 + 7,
            "sim_step + parallel_step"
        );
        assert_eq!(sink.count_kind("span_end"), 14);
    }

    /// Counts events by kind and reports itself disabled, as the
    /// registry, the fleet's outcome tally and the server's unsampled
    /// sink do.
    #[derive(Default)]
    struct DisabledTally(std::sync::Mutex<std::collections::BTreeMap<&'static str, usize>>);

    impl Sink for DisabledTally {
        fn record(&self, event: Event) {
            *self.0.lock().unwrap().entry(event.kind()).or_default() += 1;
        }

        fn enabled(&self) -> bool {
            false
        }
    }

    /// The `Sink::enabled` contract: a disabled sink gets no spans and
    /// no step events, but still every solve outcome, and the run is
    /// the one `Simulator::run` makes.
    #[test]
    fn a_disabled_sink_gets_every_solve_outcome_and_no_step_events() {
        let config = SystemConfig::default();
        let trace = PowerTrace::new(config.dt, vec![Watts::new(30_000.0); 4]);
        let sink = DisabledTally::default();
        let mut controller = Otem::new(&config).expect("valid");
        let result = Simulator::new(&config).run_with(&mut controller, &trace, &sink);
        let counts = sink.0.into_inner().unwrap();
        let count = |kind: &str| counts.get(kind).copied().unwrap_or(0);
        assert_eq!(count("step_completed"), 0, "{counts:?}");
        assert_eq!(count("span_start") + count("span_end"), 0, "{counts:?}");
        assert_eq!(count("solve_outcome"), trace.len(), "{counts:?}");
        let mut plain = Otem::new(&config).expect("valid");
        assert_eq!(result, Simulator::new(&config).run(&mut plain, &trace));
    }
}
