//! The unified metric registry: named counter/gauge/histogram
//! *families* with label sets, lock-free hot paths, and hand-rolled
//! Prometheus v0.0.4 text exposition.
//!
//! # Model
//!
//! A *family* is a metric name plus a fixed set of label **names**
//! (`otem_solve_outcome_total{mode,outcome}`); a *child* is one
//! combination of label **values** within a family. Children are the
//! existing atomic primitives ([`Counter`], [`Gauge`], [`Histogram`])
//! behind an `Arc`, so the hot path is exactly what it was before the
//! registry existed: one relaxed atomic op, no lock, no allocation.
//! The registry's mutex is touched only at registration/lookup time —
//! call sites resolve their handle once and cache the `Arc`, and a
//! lookup of an already-registered child allocates nothing — and by
//! [`MetricsRegistry::render_prometheus`], which reads every child
//! under it. A registry is also a [`Sink`] that counts events through
//! one table (see [`EventCounter`]).
//!
//! # Label-order independence
//!
//! Labels are supplied as `(name, value)` pairs and canonicalized by
//! sorting on the label name, so
//! `[("mode", "adjoint"), ("outcome", "converged")]` and
//! `[("outcome", "converged"), ("mode", "adjoint")]` resolve to the
//! same child and render identically. The property suite pins this.

use crate::event::Event;
use crate::metrics::{Counter, Gauge, Histogram};
use crate::sink::Sink;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// What a family measures — fixed at first registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricKind {
    /// Monotone counter (`_total` by convention).
    Counter,
    /// Last-value (or summed-contribution) gauge.
    Gauge,
    /// Fixed-bucket histogram with `_bucket`/`_sum`/`_count` series.
    Histogram,
}

impl MetricKind {
    /// The `# TYPE` keyword for this kind.
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One child handle inside a family.
#[derive(Debug, Clone)]
enum Child {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// One registered family: help text, kind, canonical label names, and
/// the children keyed by their label values (in label-name order).
#[derive(Debug)]
struct Family {
    help: String,
    kind: MetricKind,
    label_names: Vec<String>,
    /// Bucket edges all histogram children share (`None` otherwise).
    bounds: Option<Box<[f64]>>,
    children: BTreeMap<Vec<String>, Child>,
}

/// The registry: a mutexed map of families. See the module docs for
/// the model; the mutex is cold-path only.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    families: Mutex<BTreeMap<String, Family>>,
}

/// `true` iff `name` is a valid Prometheus metric name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// `true` iff `name` is a valid Prometheus label name
/// (`[a-zA-Z_][a-zA-Z0-9_]*`).
fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Canonicalizes a label set: sorted by name, duplicate names rejected.
fn canonical_labels(labels: &[(&str, &str)]) -> (Vec<String>, Vec<String>) {
    let mut pairs: Vec<(&str, &str)> = labels.to_vec();
    pairs.sort_by(|a, b| a.0.cmp(b.0));
    for w in pairs.windows(2) {
        assert!(w[0].0 != w[1].0, "duplicate label name {:?}", w[0].0);
    }
    for (name, _) in &pairs {
        assert!(valid_label_name(name), "invalid label name {name:?}");
    }
    let names = pairs.iter().map(|(n, _)| (*n).to_owned()).collect();
    let values = pairs.iter().map(|(_, v)| (*v).to_owned()).collect();
    (names, values)
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves (registering on first use) the counter child of family
    /// `name` with the given labels. Callers cache the returned `Arc`;
    /// increments on it are one relaxed atomic add.
    ///
    /// # Panics
    ///
    /// Panics on an invalid metric/label name, a duplicate label name,
    /// or if `name` was previously registered with a different kind,
    /// help text, or label-name set (programming errors).
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.child(name, help, MetricKind::Counter, labels, None) {
            Child::Counter(c) => c,
            _ => unreachable!("kind checked in child()"),
        }
    }

    /// Resolves (registering on first use) the gauge child of family
    /// `name` with the given labels.
    ///
    /// # Panics
    ///
    /// As for [`MetricsRegistry::counter`].
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.child(name, help, MetricKind::Gauge, labels, None) {
            Child::Gauge(g) => g,
            _ => unreachable!("kind checked in child()"),
        }
    }

    /// Resolves (registering on first use) the histogram child of
    /// family `name` with the given labels and bucket edges. Every
    /// child of a histogram family shares the same edges.
    ///
    /// # Panics
    ///
    /// As for [`MetricsRegistry::counter`], plus if `bounds` differ
    /// from the family's registered edges (or are invalid per
    /// [`Histogram::with_bounds`]).
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Arc<Histogram> {
        match self.child(name, help, MetricKind::Histogram, labels, Some(bounds)) {
            Child::Histogram(h) => h,
            _ => unreachable!("kind checked in child()"),
        }
    }

    fn child(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        bounds: Option<&[f64]>,
    ) -> Child {
        // Fast path, allocation-free: an already-registered child of a
        // matching family, found through borrowed labels sorted on the
        // stack (families hold a handful of children, so a scan beats
        // building an owned key). Any mismatch falls through to the
        // asserting slow path.
        let mut buf = [("", ""); 4];
        if let Some(sorted) = buf.get_mut(..labels.len()) {
            sorted.copy_from_slice(labels);
            sorted.sort_unstable_by(|a, b| a.0.cmp(b.0));
            let families = self.families.lock().expect("metrics registry poisoned");
            let hit = families
                .get(name)
                .filter(|f| f.kind == kind && f.help == help)
                .filter(|f| bounds.is_none_or(|b| f.bounds.as_deref() == Some(b)))
                .filter(|f| f.label_names.iter().eq(sorted.iter().map(|l| l.0)))
                .and_then(|f| {
                    let mut children = f.children.iter();
                    children.find(|(values, _)| values.iter().eq(sorted.iter().map(|l| l.1)))
                });
            if let Some((_, child)) = hit {
                return child.clone();
            }
        }
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        let (label_names, label_values) = canonical_labels(labels);
        let mut families = self.families.lock().expect("metrics registry poisoned");
        let family = families.entry(name.to_owned()).or_insert_with(|| Family {
            help: help.to_owned(),
            kind,
            label_names: label_names.clone(),
            bounds: bounds.map(Into::into),
            children: BTreeMap::new(),
        });
        assert_eq!(
            family.kind, kind,
            "metric {name:?} re-registered with a different kind"
        );
        assert_eq!(
            family.help, help,
            "metric {name:?} re-registered with different help text"
        );
        assert_eq!(
            family.label_names, label_names,
            "metric {name:?} re-registered with a different label set"
        );
        if let (Some(theirs), Some(mine)) = (bounds, family.bounds.as_deref()) {
            assert_eq!(
                mine, theirs,
                "metric {name:?} re-registered with different bucket edges"
            );
        }
        family
            .children
            .entry(label_values)
            .or_insert_with(|| match kind {
                MetricKind::Counter => Child::Counter(Arc::new(Counter::new())),
                MetricKind::Gauge => Child::Gauge(Arc::new(Gauge::new())),
                MetricKind::Histogram => Child::Histogram(Arc::new(Histogram::with_bounds(
                    bounds.expect("histogram registration carries bounds"),
                ))),
            })
            .clone()
    }

    /// Registers at zero every label-free family of the event table
    /// (see the [`Sink`] impl), so a scrape shows those families from
    /// boot, before the first event arrives.
    pub fn register_event_counters(&self) {
        use EventCounter as E;
        for family in [
            E::REQUESTS_SHED,
            E::REQUEST_TIMEOUTS,
            E::REQUEST_PANICS,
            E::VEHICLE_PANICS,
        ] {
            let _ = self.counter(family.name, family.help, &[]);
        }
    }

    /// Renders every family in the Prometheus text exposition format
    /// (v0.0.4): `# HELP` / `# TYPE` headers, escaped label values,
    /// and histograms as cumulative `_bucket{le=...}` series plus
    /// `_sum` / `_count`. Output is deterministic (families and
    /// children in sorted order); children are read under the
    /// registry's lock.
    pub fn render_prometheus(&self) -> String {
        let families = self.families.lock().expect("metrics registry poisoned");
        let mut out = String::with_capacity(1024);
        for (name, family) in families.iter() {
            out.push_str("# HELP ");
            out.push_str(name);
            out.push(' ');
            escape_help(&mut out, &family.help);
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(name);
            out.push(' ');
            out.push_str(family.kind.as_str());
            out.push('\n');
            let labels = &family.label_names;
            for (values, child) in &family.children {
                match child {
                    Child::Counter(c) => {
                        write_sample(&mut out, name, labels, values, None);
                        let _ = writeln!(out, " {}", c.get());
                    }
                    Child::Gauge(g) => {
                        write_sample(&mut out, name, labels, values, None);
                        out.push(' ');
                        write_f64(&mut out, g.get());
                        out.push('\n');
                    }
                    Child::Histogram(h) => {
                        // One read of the buckets, so `+Inf` and
                        // `_count` agree under concurrent observations.
                        let counts = h.snapshot();
                        let bucket = format!("{name}_bucket");
                        let mut cum = 0u64;
                        for (&edge, count) in h.bounds().iter().zip(&counts) {
                            cum += count;
                            let mut le = String::new();
                            write_f64(&mut le, edge);
                            write_sample(&mut out, &bucket, labels, values, Some(&le));
                            let _ = writeln!(out, " {cum}");
                        }
                        cum += counts.last().copied().unwrap_or(0);
                        write_sample(&mut out, &bucket, labels, values, Some("+Inf"));
                        let _ = writeln!(out, " {cum}");
                        write_sample(&mut out, &format!("{name}_sum"), labels, values, None);
                        out.push(' ');
                        write_f64(&mut out, h.sum());
                        out.push('\n');
                        write_sample(&mut out, &format!("{name}_count"), labels, values, None);
                        let _ = writeln!(out, " {cum}");
                    }
                }
            }
        }
        out
    }
}

/// One counter family of the event→metrics table in the [`Sink`] impl
/// for [`MetricsRegistry`]: each name and help text is spelled here and
/// nowhere else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventCounter {
    /// Metric name.
    pub name: &'static str,
    /// `# HELP` text.
    pub help: &'static str,
}

impl EventCounter {
    /// [`Event::SolveOutcome`], labelled `{mode, outcome}`.
    pub const SOLVE_OUTCOMES: Self = Self {
        name: "otem_solve_outcome_total",
        help: "MPC solve outcomes by gradient mode.",
    };
    /// [`Event::RequestShed`].
    pub const REQUESTS_SHED: Self = Self {
        name: "otem_requests_shed_total",
        help: "Connections refused with 503 because the worker queue was full.",
    };
    /// [`Event::RequestTimeout`].
    pub const REQUEST_TIMEOUTS: Self = Self {
        name: "otem_request_timeouts_total",
        help: "Requests cut off by a socket deadline (408).",
    };
    /// [`Event::PanicCaught`] with `context: "request"`.
    pub const REQUEST_PANICS: Self = Self {
        name: "otem_request_panics_total",
        help: "Request-handler panics contained by catch_unwind.",
    };
    /// [`Event::PanicCaught`] with `context: "vehicle"`.
    pub const VEHICLE_PANICS: Self = Self {
        name: "otem_vehicle_panics_total",
        help: "Per-vehicle panics contained inside fleet campaigns.",
    };
}

/// The one event→metrics path: each event kind the table names bumps its
/// [`EventCounter`] family, labelled from the event; other kinds pass.
/// `enabled()` is `false`, so it gets no spans and no per-step events,
/// as with a [`crate::NullSink`] (see [`Sink::enabled`]).
impl Sink for MetricsRegistry {
    #[inline]
    fn record(&self, event: Event) {
        let (family, labels): (EventCounter, &[(&str, &str)]) = match event {
            Event::SolveOutcome { mode, outcome, .. } => (
                EventCounter::SOLVE_OUTCOMES,
                &[("mode", mode), ("outcome", outcome)],
            ),
            Event::RequestShed { .. } => (EventCounter::REQUESTS_SHED, &[]),
            Event::RequestTimeout { .. } => (EventCounter::REQUEST_TIMEOUTS, &[]),
            Event::PanicCaught { context: "request" } => (EventCounter::REQUEST_PANICS, &[]),
            Event::PanicCaught { context: "vehicle" } => (EventCounter::VEHICLE_PANICS, &[]),
            _ => return,
        };
        self.counter(family.name, family.help, labels).inc();
    }

    #[inline]
    fn enabled(&self) -> bool {
        false
    }
}

/// Writes `name{label="value",...,le="..."}` (no trailing space). The
/// label block is omitted entirely when there are no labels.
fn write_sample(
    out: &mut String,
    name: &str,
    label_names: &[String],
    values: &[String],
    le: Option<&str>,
) {
    out.push_str(name);
    if label_names.is_empty() && le.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (label, value) in label_names.iter().zip(values) {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(label);
        out.push_str("=\"");
        escape_label_value(out, value);
        out.push('"');
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str("le=\"");
        out.push_str(le);
        out.push('"');
    }
    out.push('}');
}

/// Escapes a label value per the exposition format: `\` → `\\`,
/// `"` → `\"`, newline → `\n`.
fn escape_label_value(out: &mut String, value: &str) {
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Escapes help text per the exposition format: `\` → `\\`, newline →
/// `\n` (quotes are *not* escaped in help).
fn escape_help(out: &mut String, help: &str) {
    for c in help.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Writes an `f64` sample value in exposition syntax (`NaN`, `+Inf`,
/// `-Inf` spelled out).
fn write_f64(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("NaN");
    } else if v == f64::INFINITY {
        out.push_str("+Inf");
    } else if v == f64::NEG_INFINITY {
        out.push_str("-Inf");
    } else {
        let _ = write!(out, "{v}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_per_label_set() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("otem_test_total", "help", &[("route", "/simulate")]);
        let b = reg.counter("otem_test_total", "help", &[("route", "/simulate")]);
        let other = reg.counter("otem_test_total", "help", &[("route", "/plan")]);
        a.add(3);
        b.add(2);
        other.inc();
        assert_eq!(a.get(), 5, "same labels resolve to the same child");
        assert_eq!(other.get(), 1);
    }

    #[test]
    fn label_order_does_not_matter() {
        let reg = MetricsRegistry::new();
        let a = reg.counter(
            "m_total",
            "h",
            &[("mode", "adjoint"), ("outcome", "converged")],
        );
        let b = reg.counter(
            "m_total",
            "h",
            &[("outcome", "converged"), ("mode", "adjoint")],
        );
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflicts_are_rejected() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("m", "h", &[]);
        let _ = reg.gauge("m", "h", &[]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_metric_names_are_rejected() {
        let _ = MetricsRegistry::new().counter("9bad", "h", &[]);
    }

    #[test]
    #[should_panic(expected = "duplicate label name")]
    fn duplicate_label_names_are_rejected() {
        let _ = MetricsRegistry::new().counter("m", "h", &[("a", "1"), ("a", "2")]);
    }

    /// Every `Event` kind once through one registry: a tabled kind moves
    /// exactly its family's child labelled from the event, by 1; any
    /// other kind leaves the exposition unchanged. After each event the
    /// registry renders the same bytes as a second registry that received
    /// only the expected increment.
    #[test]
    fn registry_sink_counts_exactly_the_tabled_events() {
        let every = [
            Event::GradientEval { dim: 2 },
            Event::SolveOutcome {
                outcome: "stalled",
                mode: "adjoint",
                iterations: 3,
            },
            Event::SolveOutcome {
                outcome: "converged",
                mode: "serial",
                iterations: 2,
            },
            Event::CoolingToggle {
                on: true,
                battery_temp_k: 300.0,
            },
            Event::UcapSaturated {
                commanded_w: 2.0,
                limit_w: 1.0,
            },
            Event::FaultInjected {
                step: 0,
                fault: "pump_stuck",
            },
            Event::SpanStart {
                id: 1,
                parent: 0,
                name: "mpc_solve",
                lane: 1,
                t_ns: 0,
            },
            Event::SpanEnd {
                id: 1,
                name: "mpc_solve",
                lane: 1,
                t_ns: 1,
                dur_ns: 1,
            },
            Event::RequestShed {
                queued: 3,
                retry_after_ms: 100,
            },
            Event::RequestTimeout { after_ms: 2.5 },
            Event::PanicCaught { context: "request" },
            Event::PanicCaught { context: "vehicle" },
            Event::DrainStarted {
                in_flight: 0,
                queued: 0,
            },
            Event::RequestStarted {
                request_id: 1,
                route: "/simulate",
            },
            Event::VehicleStarted {
                request_id: 1,
                vehicle: 0,
            },
            Event::StepCompleted {
                step: 0,
                load_w: 1.0,
                delivered_w: 1.0,
                shortfall_w: 0.0,
                cooling_w: 0.0,
                battery_temp_k: 300.0,
                soc: 0.8,
                soe: 0.6,
            },
        ];
        let reg = MetricsRegistry::new();
        assert!(!reg.enabled(), "call sites keep their zero-cost path");
        reg.register_event_counters();
        let text = reg.render_prometheus();
        assert_eq!(text.matches("# TYPE ").count(), 4, "ops families at zero");
        assert_eq!(text.matches(" 0\n").count(), 4, "{text}");
        let want = MetricsRegistry::new();
        want.register_event_counters();
        let help = |name: &str| {
            use EventCounter as E;
            let table = [
                E::SOLVE_OUTCOMES,
                E::REQUESTS_SHED,
                E::REQUEST_TIMEOUTS,
                E::REQUEST_PANICS,
                E::VEHICLE_PANICS,
            ];
            table
                .into_iter()
                .find(|f| f.name == name)
                .expect("tabled")
                .help
        };
        for event in every {
            // No wildcard: a new variant does not compile until it is
            // classified here.
            let expected: Option<(&str, Vec<(&str, &str)>)> = match event {
                Event::SolveOutcome { mode, outcome, .. } => Some((
                    "otem_solve_outcome_total",
                    vec![("mode", mode), ("outcome", outcome)],
                )),
                Event::RequestShed { .. } => Some(("otem_requests_shed_total", vec![])),
                Event::RequestTimeout { .. } => Some(("otem_request_timeouts_total", vec![])),
                Event::PanicCaught { context } => Some((
                    if context == "request" {
                        "otem_request_panics_total"
                    } else {
                        "otem_vehicle_panics_total"
                    },
                    vec![],
                )),
                Event::GradientEval { .. }
                | Event::CoolingToggle { .. }
                | Event::UcapSaturated { .. }
                | Event::FaultInjected { .. }
                | Event::SpanStart { .. }
                | Event::SpanEnd { .. }
                | Event::DrainStarted { .. }
                | Event::RequestStarted { .. }
                | Event::VehicleStarted { .. }
                | Event::StepCompleted { .. } => None,
            };
            reg.record(event);
            if let Some((name, labels)) = expected {
                want.counter(name, help(name), &labels).inc();
            }
            assert_eq!(
                reg.render_prometheus(),
                want.render_prometheus(),
                "{event:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "different help text")]
    fn fast_path_mismatches_still_reach_the_asserts() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("m_total", "h", &[("a", "1")]);
        let _ = reg.counter("m_total", "other", &[("a", "1")]);
    }

    /// The exact `/metrics` bytes of a fixed registry: a counter with an
    /// escaped label value and help text, a histogram with an overflow
    /// observation (cumulative buckets), a label-free gauge and the four
    /// event families at zero.
    #[test]
    fn prometheus_rendering_is_cumulative_and_escaped() {
        let reg = MetricsRegistry::new();
        reg.register_event_counters();
        reg.counter(
            "otem_requests_total",
            "Total requests\\by route\n(all).",
            &[("route", "/a\"b\\c\nd")],
        )
        .add(7);
        let h = reg.histogram(
            "otem_lat_seconds",
            "Latency.",
            &[("route", "/plan")],
            &[0.1, 1.0],
        );
        h.observe(0.05);
        h.observe(0.5);
        h.observe(5.0);
        reg.gauge("otem_up", "Uptime.", &[]).set(12.5);
        let expected = concat!(
            "# HELP otem_lat_seconds Latency.\n",
            "# TYPE otem_lat_seconds histogram\n",
            "otem_lat_seconds_bucket{route=\"/plan\",le=\"0.1\"} 1\n",
            "otem_lat_seconds_bucket{route=\"/plan\",le=\"1\"} 2\n",
            "otem_lat_seconds_bucket{route=\"/plan\",le=\"+Inf\"} 3\n",
            "otem_lat_seconds_sum{route=\"/plan\"} 5.55\n",
            "otem_lat_seconds_count{route=\"/plan\"} 3\n",
            "# HELP otem_request_panics_total Request-handler panics contained by catch_unwind.\n",
            "# TYPE otem_request_panics_total counter\n",
            "otem_request_panics_total 0\n",
            "# HELP otem_request_timeouts_total Requests cut off by a socket deadline (408).\n",
            "# TYPE otem_request_timeouts_total counter\n",
            "otem_request_timeouts_total 0\n",
            "# HELP otem_requests_shed_total Connections refused with 503 because the worker queue was full.\n",
            "# TYPE otem_requests_shed_total counter\n",
            "otem_requests_shed_total 0\n",
            "# HELP otem_requests_total Total requests\\\\by route\\n(all).\n",
            "# TYPE otem_requests_total counter\n",
            "otem_requests_total{route=\"/a\\\"b\\\\c\\nd\"} 7\n",
            "# HELP otem_up Uptime.\n",
            "# TYPE otem_up gauge\n",
            "otem_up 12.5\n",
            "# HELP otem_vehicle_panics_total Per-vehicle panics contained inside fleet campaigns.\n",
            "# TYPE otem_vehicle_panics_total counter\n",
            "otem_vehicle_panics_total 0\n",
        );
        assert_eq!(reg.render_prometheus(), expected);
    }
}
