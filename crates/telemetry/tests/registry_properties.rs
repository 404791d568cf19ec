//! Property tests for the metrics registry: the Prometheus text
//! exposition is label-order independent, and it round-trips — every
//! value an operation history leaves behind is readable back out of the
//! rendered text through the hand-rolled parser.

use otem_telemetry::promparse::validate_exposition;
use otem_telemetry::MetricsRegistry;
use proptest::prelude::*;
use std::collections::BTreeMap;

const MODES: [&str; 3] = ["adjoint", "serial", "finite_diff"];
const OUTCOMES: [&str; 3] = ["converged", "stalled", "deadline_reached"];
const ROUTES: [&str; 3] = ["/simulate", "/plan", "other"];
const BOUNDS: [f64; 3] = [0.001, 0.1, 1.0];

const COUNTER_HELP: &str = "Property-suite counter.";
const GAUGE_HELP: &str = "Property-suite gauge.";
const HIST_HELP: &str = "Property-suite histogram.";

/// One decoded operation. The encoding packs an operation kind, a label
/// choice, a label *order* bit (so the suite exercises both
/// `[mode, outcome]` and `[outcome, mode]` on the same family), and a
/// magnitude into a single `u64`.
enum Op {
    Count {
        labels: [(&'static str, &'static str); 2],
        n: u64,
    },
    Set {
        shard: &'static str,
        value: f64,
    },
    Observe {
        route: &'static str,
        value: f64,
    },
}

fn decode(op: u64) -> Op {
    let kind = op % 3;
    let pick = ((op / 3) % 9) as usize;
    let swapped = (op / 27) % 2 == 1;
    let magnitude = op / 54;
    match kind {
        0 => {
            let mode = ("mode", MODES[pick % 3]);
            let outcome = ("outcome", OUTCOMES[pick / 3]);
            Op::Count {
                labels: if swapped {
                    [outcome, mode]
                } else {
                    [mode, outcome]
                },
                n: magnitude % 100,
            }
        }
        1 => Op::Set {
            shard: ROUTES[pick % 3],
            value: (magnitude % 64) as f64 * 0.25,
        },
        // Dyadic values keep f64 sums exact, so the model's sums equal
        // the histogram's bit for bit.
        _ => Op::Observe {
            route: ROUTES[pick % 3],
            value: (magnitude % 4096) as f64 * (1.0 / 1024.0),
        },
    }
}

fn build(ops: &[u64]) -> MetricsRegistry {
    let reg = MetricsRegistry::new();
    for &op in ops {
        match decode(op) {
            Op::Count { labels, n } => reg.counter("otem_prop_total", COUNTER_HELP, &labels).add(n),
            Op::Set { shard, value } => reg
                .gauge("otem_prop_shard_load", GAUGE_HELP, &[("shard", shard)])
                .set(value),
            Op::Observe { route, value } => reg
                .histogram("otem_prop_seconds", HIST_HELP, &[("route", route)], &BOUNDS)
                .observe(value),
        }
    }
    reg
}

/// What one child of the model holds after an operation history.
#[derive(Debug, Clone, Copy)]
enum Expected {
    Counter(u64),
    Gauge(f64),
    Histogram { count: u64, sum: f64 },
}

/// Children keyed by their canonical (name-sorted) label set.
type Children = BTreeMap<Vec<(&'static str, &'static str)>, Expected>;

/// The values an operation history must leave behind, computed without
/// a registry: per family, per child.
fn model(ops: &[u64]) -> BTreeMap<&'static str, Children> {
    let mut out: BTreeMap<_, Children> = BTreeMap::new();
    for &op in ops {
        match decode(op) {
            Op::Count { mut labels, n } => {
                labels.sort_unstable();
                let child = out
                    .entry("otem_prop_total")
                    .or_default()
                    .entry(labels.to_vec())
                    .or_insert(Expected::Counter(0));
                if let Expected::Counter(total) = child {
                    *total += n;
                }
            }
            Op::Set { shard, value } => {
                out.entry("otem_prop_shard_load")
                    .or_default()
                    .insert(vec![("shard", shard)], Expected::Gauge(value));
            }
            Op::Observe { route, value } => {
                let child = out
                    .entry("otem_prop_seconds")
                    .or_default()
                    .entry(vec![("route", route)])
                    .or_insert(Expected::Histogram { count: 0, sum: 0.0 });
                if let Expected::Histogram { count, sum } = child {
                    *count += 1;
                    *sum += value;
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The label *order* bit in the op encoding must not matter:
    /// flipping every order bit yields a bit-identical exposition.
    /// (Each op registers the same family with its labels in one of
    /// two orders; canonicalization makes them the same child.)
    #[test]
    fn label_order_never_changes_the_exposition(
        ops in prop::collection::vec(0u64..1_000_000, 0..60),
    ) {
        let flipped: Vec<u64> = ops
            .iter()
            .map(|&op| if (op / 27) % 2 == 1 { op - 27 } else { op + 27 })
            .collect();
        prop_assert_eq!(
            build(&ops).render_prometheus(),
            build(&flipped).render_prometheus()
        );
    }

    /// Everything an operation history leaves behind survives the trip
    /// through `render_prometheus` and back through the parser, checked
    /// against a model built from the op list: counters and gauges
    /// value-for-value, histograms as their `_sum` and `_count` series,
    /// all under the exact label sets they were registered with
    /// (validated structurally by `validate_exposition` first). The
    /// exposition holds exactly the model's families and children.
    #[test]
    fn exposition_round_trips_through_the_parser(
        ops in prop::collection::vec(0u64..1_000_000, 1..80),
    ) {
        let text = build(&ops).render_prometheus();
        let parsed = validate_exposition(&text)
            .map_err(|e| TestCaseError::fail(format!("invalid exposition: {e}")))?;
        let model = model(&ops);
        prop_assert!(
            parsed.families.keys().map(String::as_str).eq(model.keys().copied()),
            "families {:?} vs model {:?}",
            parsed.families.keys().collect::<Vec<_>>(),
            model.keys().collect::<Vec<_>>()
        );
        for (name, children) in &model {
            let parsed_family = &parsed.families[*name];
            let mut samples = 0;
            for (labels, expected) in children {
                let value = |series: &str| {
                    parsed.sample(series, labels).map(|s| s.value).ok_or_else(|| {
                        TestCaseError::fail(format!("{series}{labels:?} missing"))
                    })
                };
                match *expected {
                    Expected::Counter(v) => {
                        prop_assert_eq!(parsed_family.kind.as_deref(), Some("counter"));
                        prop_assert_eq!(value(name)?, v as f64);
                        samples += 1;
                    }
                    Expected::Gauge(v) => {
                        prop_assert_eq!(parsed_family.kind.as_deref(), Some("gauge"));
                        prop_assert_eq!(value(name)?, v);
                        samples += 1;
                    }
                    Expected::Histogram { count, sum } => {
                        prop_assert_eq!(parsed_family.kind.as_deref(), Some("histogram"));
                        prop_assert_eq!(value(&format!("{name}_count"))?, count as f64);
                        prop_assert_eq!(value(&format!("{name}_sum"))?, sum);
                        // One bucket per edge, `+Inf`, `_sum`, `_count`.
                        samples += BOUNDS.len() + 3;
                    }
                }
            }
            prop_assert_eq!(parsed_family.samples.len(), samples);
        }
    }
}
