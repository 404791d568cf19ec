//! The unified metric registry: named counter/gauge/histogram
//! *families* with label sets, lock-free hot paths, commutative
//! snapshots, and hand-rolled Prometheus v0.0.4 text exposition.
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
//! lookup of an already-registered child allocates nothing. A registry
//! is also a [`Sink`] that counts events through one table (see
//! [`EventCounter`]).
//!
//! # Label-order independence
//!
//! Labels are supplied as `(name, value)` pairs and canonicalized by
//! sorting on the label name, so
//! `[("mode", "adjoint"), ("outcome", "converged")]` and
//! `[("outcome", "converged"), ("mode", "adjoint")]` resolve to the
//! same child and render identically. The property suite pins this.
//!
//! # Snapshot and merge
//!
//! [`MetricsRegistry::snapshot`] captures plain data
//! ([`RegistrySnapshot`]) that can be merged across worker threads or
//! processes: counters and histogram buckets add, gauges **sum** —
//! a deliberate choice that keeps the merge commutative and
//! associative (per-worker gauges are treated as additive
//! contributions, e.g. per-worker in-flight counts summing to the
//! fleet total). The bench bins fold merged snapshots into their
//! BENCH outputs; the server renders them at `/metrics`.

use crate::event::Event;
use crate::metrics::{Counter, Gauge, Histogram};
use crate::sink::Sink;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// What a family measures — fixed at first registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone counter (`_total` by convention).
    Counter,
    /// Last-value (or summed-contribution) gauge.
    Gauge,
    /// Fixed-bucket histogram with `_bucket`/`_sum`/`_count` series.
    Histogram,
}

impl MetricKind {
    /// The `# TYPE` keyword for this kind.
    pub fn as_str(self) -> &'static str {
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

    /// Captures every family and child as plain data, suitable for
    /// merging across workers and rendering (Prometheus text or JSON).
    pub fn snapshot(&self) -> RegistrySnapshot {
        let families = self.families.lock().expect("metrics registry poisoned");
        let mut out = BTreeMap::new();
        for (name, family) in families.iter() {
            let children = family
                .children
                .iter()
                .map(|(values, child)| {
                    let value = match child {
                        Child::Counter(c) => MetricValue::Counter(c.get()),
                        Child::Gauge(g) => MetricValue::Gauge(g.get()),
                        Child::Histogram(h) => MetricValue::Histogram {
                            bounds: h.bounds().to_vec(),
                            counts: h.snapshot(),
                            sum: h.sum(),
                        },
                    };
                    (values.clone(), value)
                })
                .collect();
            out.insert(
                name.clone(),
                FamilySnapshot {
                    help: family.help.clone(),
                    kind: family.kind,
                    label_names: family.label_names.clone(),
                    children,
                },
            );
        }
        RegistrySnapshot { families: out }
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
/// `enabled()` is `false`, so call sites skip derived telemetry (spans,
/// per-iteration traces) as with a [`crate::NullSink`].
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

/// One child's captured value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram state: per-bucket counts (finite buckets first,
    /// overflow last) plus the sum of finite observations.
    Histogram {
        /// Inclusive upper bucket edges.
        bounds: Vec<f64>,
        /// Per-bucket counts (`bounds.len() + 1` entries; overflow
        /// last).
        counts: Vec<u64>,
        /// Sum of finite observations.
        sum: f64,
    },
}

/// One family's captured state.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilySnapshot {
    /// The `# HELP` text.
    pub help: String,
    /// Counter / gauge / histogram.
    pub kind: MetricKind,
    /// Canonical (sorted) label names.
    pub label_names: Vec<String>,
    /// Children keyed by label values in `label_names` order.
    pub children: BTreeMap<Vec<String>, MetricValue>,
}

/// A point-in-time capture of a whole registry: plain data, mergeable,
/// renderable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// Families keyed by metric name.
    pub families: BTreeMap<String, FamilySnapshot>,
}

impl RegistrySnapshot {
    /// Folds `other` into `self`. The merge is commutative and
    /// associative: counters and histogram buckets/sums add, and
    /// gauges **sum** (per-worker gauges are additive contributions —
    /// see the module docs).
    ///
    /// # Panics
    ///
    /// Panics when the same family name appears with a different kind,
    /// label set, or histogram bucket edges.
    pub fn merge(&mut self, other: &RegistrySnapshot) {
        for (name, theirs) in &other.families {
            let Some(mine) = self.families.get_mut(name) else {
                self.families.insert(name.clone(), theirs.clone());
                continue;
            };
            assert_eq!(
                mine.kind, theirs.kind,
                "cannot merge {name:?}: kinds differ"
            );
            assert_eq!(
                mine.label_names, theirs.label_names,
                "cannot merge {name:?}: label sets differ"
            );
            for (values, value) in &theirs.children {
                let Some(existing) = mine.children.get_mut(values) else {
                    mine.children.insert(values.clone(), value.clone());
                    continue;
                };
                match (existing, value) {
                    (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                    (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a += b,
                    (
                        MetricValue::Histogram {
                            bounds: ab,
                            counts: ac,
                            sum: asum,
                        },
                        MetricValue::Histogram {
                            bounds: bb,
                            counts: bc,
                            sum: bsum,
                        },
                    ) => {
                        assert_eq!(ab, bb, "cannot merge {name:?}: bucket edges differ");
                        for (a, b) in ac.iter_mut().zip(bc.iter()) {
                            *a += b;
                        }
                        *asum += bsum;
                    }
                    _ => unreachable!("kind equality checked above"),
                }
            }
        }
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (v0.0.4): `# HELP` / `# TYPE` headers, escaped label values,
    /// and histograms as cumulative `_bucket{le=...}` series plus
    /// `_sum` / `_count`. Output is deterministic (families and
    /// children in sorted order).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(1024);
        for (name, family) in &self.families {
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
            for (values, value) in &family.children {
                match value {
                    MetricValue::Counter(v) => {
                        write_sample(&mut out, name, &family.label_names, values, None);
                        let _ = writeln!(out, " {v}");
                    }
                    MetricValue::Gauge(v) => {
                        write_sample(&mut out, name, &family.label_names, values, None);
                        out.push(' ');
                        write_f64(&mut out, *v);
                        out.push('\n');
                    }
                    MetricValue::Histogram {
                        bounds,
                        counts,
                        sum,
                    } => {
                        let bucket = format!("{name}_bucket");
                        let mut cum = 0u64;
                        for (edge, count) in bounds.iter().zip(counts.iter()) {
                            cum += count;
                            let mut le = String::new();
                            write_f64(&mut le, *edge);
                            write_sample(&mut out, &bucket, &family.label_names, values, Some(&le));
                            let _ = writeln!(out, " {cum}");
                        }
                        cum += counts.last().copied().unwrap_or(0);
                        write_sample(&mut out, &bucket, &family.label_names, values, Some("+Inf"));
                        let _ = writeln!(out, " {cum}");
                        write_sample(
                            &mut out,
                            &format!("{name}_sum"),
                            &family.label_names,
                            values,
                            None,
                        );
                        out.push(' ');
                        write_f64(&mut out, *sum);
                        out.push('\n');
                        write_sample(
                            &mut out,
                            &format!("{name}_count"),
                            &family.label_names,
                            values,
                            None,
                        );
                        let _ = writeln!(out, " {cum}");
                    }
                }
            }
        }
        out
    }

    /// Renders the snapshot as one compact JSON object keyed by metric
    /// name — the shape the bench bins fold into their BENCH outputs.
    ///
    /// Counters/gauges: `{"kind":..,"samples":[{"labels":{..},
    /// "value":..}]}`; histograms carry `bounds`/`counts`/`sum`/
    /// `count` instead of `value`.
    pub fn render_json(&self) -> String {
        use crate::event::write_json_string;
        let mut out = String::with_capacity(1024);
        out.push('{');
        let mut first_family = true;
        for (name, family) in &self.families {
            if !first_family {
                out.push(',');
            }
            first_family = false;
            write_json_string(&mut out, name);
            let _ = write!(
                out,
                ":{{\"kind\":\"{}\",\"samples\":[",
                family.kind.as_str()
            );
            let mut first_child = true;
            for (values, value) in &family.children {
                if !first_child {
                    out.push(',');
                }
                first_child = false;
                out.push_str("{\"labels\":{");
                for (i, (label, val)) in family.label_names.iter().zip(values).enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(&mut out, label);
                    out.push(':');
                    write_json_string(&mut out, val);
                }
                out.push('}');
                match value {
                    MetricValue::Counter(v) => {
                        let _ = write!(out, ",\"value\":{v}");
                    }
                    MetricValue::Gauge(v) => {
                        out.push_str(",\"value\":");
                        write_json_f64(&mut out, *v);
                    }
                    MetricValue::Histogram {
                        bounds,
                        counts,
                        sum,
                    } => {
                        out.push_str(",\"bounds\":[");
                        for (i, b) in bounds.iter().enumerate() {
                            if i > 0 {
                                out.push(',');
                            }
                            write_json_f64(&mut out, *b);
                        }
                        out.push_str("],\"counts\":[");
                        for (i, c) in counts.iter().enumerate() {
                            if i > 0 {
                                out.push(',');
                            }
                            let _ = write!(out, "{c}");
                        }
                        out.push_str("],\"sum\":");
                        write_json_f64(&mut out, *sum);
                        let total: u64 = counts.iter().sum();
                        let _ = write!(out, ",\"count\":{total}");
                    }
                }
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push('}');
        out
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

/// Writes an `f64` as JSON (non-finite values encode as `null`).
fn write_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
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

    #[test]
    fn snapshot_merge_adds_counters_and_buckets() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.counter("c_total", "h", &[]).add(2);
        b.counter("c_total", "h", &[]).add(3);
        a.gauge("g", "h", &[]).set(1.5);
        b.gauge("g", "h", &[]).set(2.5);
        a.histogram("h_seconds", "h", &[], &[1.0, 10.0])
            .observe(0.5);
        b.histogram("h_seconds", "h", &[], &[1.0, 10.0])
            .observe(5.0);
        let mut left = a.snapshot();
        let mut right = b.snapshot();
        let mut swapped = right.clone();
        left.merge(&b.snapshot());
        swapped.merge(&a.snapshot());
        assert_eq!(left, swapped, "merge is commutative");
        right.merge(&a.snapshot());
        assert_eq!(
            left.families["c_total"].children[&Vec::<String>::new()],
            MetricValue::Counter(5)
        );
        assert_eq!(
            left.families["g"].children[&Vec::<String>::new()],
            MetricValue::Gauge(4.0),
            "gauges sum-merge"
        );
        assert_eq!(
            left.families["h_seconds"].children[&Vec::<String>::new()],
            MetricValue::Histogram {
                bounds: vec![1.0, 10.0],
                counts: vec![1, 1, 0],
                sum: 5.5
            }
        );
    }

    /// Every `Event` kind once through one registry: a tabled kind moves
    /// exactly its family's child labelled from the event, by 1; any
    /// other kind leaves the snapshot unchanged.
    #[test]
    fn registry_sink_counts_exactly_the_tabled_events() {
        let every = [
            Event::SolverIteration {
                iteration: 0,
                value: 1.0,
                residual: 0.1,
                step: 0.5,
            },
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
            Event::BoundClamp {
                index: 0,
                raw: 1.1,
                bound: 1.0,
            },
            Event::FaultInjected {
                step: 0,
                fault: "pump_stuck",
            },
            Event::DecisionRejected {
                step: 0,
                reason: "non_finite_cost",
            },
            Event::FallbackEngaged {
                step: 0,
                backoff_steps: 4,
            },
            Event::MpcRearmed {
                step: 4,
                healthy_steps: 4,
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
        assert_eq!(reg.snapshot().families.len(), 4, "ops families at zero");
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
                Event::SolverIteration { .. }
                | Event::GradientEval { .. }
                | Event::CoolingToggle { .. }
                | Event::UcapSaturated { .. }
                | Event::BoundClamp { .. }
                | Event::FaultInjected { .. }
                | Event::DecisionRejected { .. }
                | Event::FallbackEngaged { .. }
                | Event::MpcRearmed { .. }
                | Event::SpanStart { .. }
                | Event::SpanEnd { .. }
                | Event::DrainStarted { .. }
                | Event::RequestStarted { .. }
                | Event::VehicleStarted { .. }
                | Event::StepCompleted { .. } => None,
            };
            let before = reg.snapshot();
            reg.record(event);
            let after = reg.snapshot();
            let mut want = before.clone();
            if let Some((name, labels)) = expected {
                let one = MetricsRegistry::new();
                one.counter(name, &after.families[name].help, &labels).inc();
                want.merge(&one.snapshot());
            }
            assert_eq!(after, want, "{event:?}");
        }
    }

    #[test]
    #[should_panic(expected = "different help text")]
    fn fast_path_mismatches_still_reach_the_asserts() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("m_total", "h", &[("a", "1")]);
        let _ = reg.counter("m_total", "other", &[("a", "1")]);
    }

    #[test]
    fn prometheus_rendering_is_cumulative_and_escaped() {
        let reg = MetricsRegistry::new();
        reg.counter(
            "otem_requests_total",
            "Total requests.",
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
        let text = reg.snapshot().render_prometheus();
        assert!(text.contains("# HELP otem_requests_total Total requests.\n"));
        assert!(text.contains("# TYPE otem_requests_total counter\n"));
        assert!(
            text.contains("otem_requests_total{route=\"/a\\\"b\\\\c\\nd\"} 7\n"),
            "{text}"
        );
        assert!(text.contains("# TYPE otem_lat_seconds histogram\n"));
        assert!(text.contains("otem_lat_seconds_bucket{route=\"/plan\",le=\"0.1\"} 1\n"));
        assert!(text.contains("otem_lat_seconds_bucket{route=\"/plan\",le=\"1\"} 2\n"));
        assert!(text.contains("otem_lat_seconds_bucket{route=\"/plan\",le=\"+Inf\"} 3\n"));
        assert!(text.contains("otem_lat_seconds_sum{route=\"/plan\"} 5.55\n"));
        assert!(text.contains("otem_lat_seconds_count{route=\"/plan\"} 3\n"));
        assert!(
            text.contains("otem_up 12.5\n"),
            "bare sample without labels"
        );
    }

    #[test]
    fn json_rendering_carries_labels_and_histogram_state() {
        let reg = MetricsRegistry::new();
        reg.counter("c_total", "h", &[("k", "v")]).add(4);
        reg.histogram("lat", "h", &[], &[1.0]).observe(0.5);
        let json = reg.snapshot().render_json();
        assert!(json.contains("\"c_total\":{\"kind\":\"counter\""), "{json}");
        assert!(
            json.contains("{\"labels\":{\"k\":\"v\"},\"value\":4}"),
            "{json}"
        );
        assert!(
            json.contains("\"bounds\":[1],\"counts\":[1,0],\"sum\":0.5,\"count\":1"),
            "{json}"
        );
    }
}
