//! Post-simulation analysis: TEB-event detection over a
//! [`SimulationResult`]'s records. The route's energy breakdown (Fig. 7's
//! delivered, battery-loss, converter-loss and cooling energy) is in
//! its ledger, [`SimulationResult::totals`].
//!
//! The paper's Fig. 7 narrative — "the OTEM provides enough TEB when it
//! notices large EV power requests in the near-future" — is made
//! measurable here: a *pre-charge event* is a step that charges the
//! ultracapacitor during modest load with a large request inside the
//! lookahead; a *pre-cool event* runs the cooler while the battery is
//! already below the soft ceiling, ahead of such a request.

use crate::metrics::SimulationResult;
use otem_units::Watts;
use serde::{Deserialize, Serialize};

/// Thresholds for classifying TEB events.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TebCriteria {
    /// How far ahead (steps) a "near-future" request may sit.
    pub lookahead: usize,
    /// What counts as a large upcoming request.
    pub peak_threshold: Watts,
    /// Loads below this are "modest" (preparation can happen).
    pub quiet_threshold: Watts,
    /// Minimum charging power for a pre-charge event.
    pub charge_threshold: Watts,
    /// Minimum cooling electric power for a pre-cool event.
    pub cool_threshold: Watts,
}

impl Default for TebCriteria {
    fn default() -> Self {
        Self {
            lookahead: 15,
            peak_threshold: Watts::new(25_000.0),
            quiet_threshold: Watts::new(20_000.0),
            charge_threshold: Watts::new(500.0),
            cool_threshold: Watts::new(200.0),
        }
    }
}

/// Counted TEB events over a run.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TebReport {
    /// Steps that pre-charged the bank ahead of a large request.
    pub precharge_events: usize,
    /// Steps that pre-cooled the battery ahead of a large request.
    pub precool_events: usize,
    /// Large-request steps where the bank shared the load.
    pub peaks_shared: usize,
    /// Large-request steps the battery served alone.
    pub peaks_alone: usize,
}

impl TebReport {
    /// Fraction of large-request steps the bank helped with.
    pub fn peak_share_fraction(&self) -> f64 {
        let total = self.peaks_shared + self.peaks_alone;
        if total == 0 {
            0.0
        } else {
            self.peaks_shared as f64 / total as f64
        }
    }
}

/// Scans a result for TEB events under the given criteria.
pub fn teb_report(result: &SimulationResult, criteria: &TebCriteria) -> TebReport {
    let records = &result.records;
    let mut report = TebReport::default();
    for (t, rec) in records.iter().enumerate() {
        let upcoming_peak = records
            .iter()
            .take((t + 1 + criteria.lookahead).min(records.len()))
            .skip(t + 1)
            .map(|r| r.load)
            .fold(Watts::ZERO, Watts::max);
        let peak_coming = upcoming_peak >= criteria.peak_threshold;
        let quiet_now = rec.load < criteria.quiet_threshold;

        if quiet_now && peak_coming {
            if rec.hees.cap_internal <= -criteria.charge_threshold {
                report.precharge_events += 1;
            }
            if rec.cooling_power >= criteria.cool_threshold {
                report.precool_events += 1;
            }
        }
        if rec.load >= criteria.peak_threshold {
            if rec.hees.cap_internal >= criteria.charge_threshold {
                report.peaks_shared += 1;
            } else {
                report.peaks_alone += 1;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{StepRecord, SystemState};
    use crate::sim::tests::replay;
    use otem_hees::HeesStep;
    use otem_units::{Kelvin, Ratio, Seconds};

    fn rec(load: f64, cap_internal: f64, cooling: f64, temp_c: f64) -> StepRecord {
        StepRecord {
            load: Watts::new(load),
            hees: HeesStep {
                delivered: Watts::new(load),
                battery_internal: Watts::new(load - cap_internal),
                cap_internal: Watts::new(cap_internal),
                battery_heat: Watts::new(0.02 * load.abs()),
                converter_loss: Watts::new(0.01 * load.abs()),
                ..HeesStep::default()
            },
            cooling_power: Watts::new(cooling),
            state: SystemState {
                battery_temp: Kelvin::from_celsius(temp_c),
                coolant_temp: Kelvin::from_celsius(temp_c),
                soc: Ratio::HALF,
                soe: Ratio::HALF,
            },
        }
    }

    fn result(records: Vec<StepRecord>) -> SimulationResult {
        replay(Seconds::new(1.0), &records)
    }

    #[test]
    fn precharge_before_peak_is_detected() {
        // Quiet + charging for 3 steps, then a 40 kW peak served by the bank.
        let mut records = vec![rec(5_000.0, -2_000.0, 0.0, 28.0); 3];
        records.push(rec(40_000.0, 15_000.0, 0.0, 29.0));
        let report = teb_report(&result(records), &TebCriteria::default());
        assert_eq!(report.precharge_events, 3);
        assert_eq!(report.peaks_shared, 1);
        assert_eq!(report.peaks_alone, 0);
        assert_eq!(report.peak_share_fraction(), 1.0);
    }

    #[test]
    fn unprepared_peak_counts_as_alone() {
        let mut records = vec![rec(5_000.0, 0.0, 0.0, 28.0); 3];
        records.push(rec(40_000.0, 0.0, 0.0, 29.0));
        let report = teb_report(&result(records), &TebCriteria::default());
        assert_eq!(report.precharge_events, 0);
        assert_eq!(report.peaks_alone, 1);
        assert_eq!(report.peak_share_fraction(), 0.0);
    }

    #[test]
    fn precooling_ahead_of_peak_is_detected() {
        let mut records = vec![rec(5_000.0, 0.0, 3_000.0, 30.0); 2];
        records.push(rec(40_000.0, 0.0, 0.0, 31.0));
        let report = teb_report(&result(records), &TebCriteria::default());
        assert_eq!(report.precool_events, 2);
    }

    #[test]
    fn quiet_route_has_no_events() {
        let records = vec![rec(5_000.0, -2_000.0, 3_000.0, 28.0); 10];
        let report = teb_report(&result(records), &TebCriteria::default());
        assert_eq!(report.precharge_events, 0);
        assert_eq!(report.precool_events, 0);
        assert_eq!(report.peak_share_fraction(), 0.0);
    }
}
