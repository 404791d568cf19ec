//! A small hand-rolled parser for the Prometheus text exposition
//! format (v0.0.4) — the *other half* of [`crate::MetricsRegistry::
//! render_prometheus`].
//!
//! It exists so the exposition can be verified mechanically instead of
//! by substring matching: the property suite round-trips rendered
//! registries through it, and the fleet server's round-trip test
//! scrapes a live `/metrics` and runs [`validate_exposition`] over the
//! bytes on the wire. It is a *validator*, not a general scrape
//! client: unknown syntax is an error, never skipped.

use std::collections::BTreeMap;

/// Label pairs as they appear on a sample line, values unescaped.
pub type LabelPairs = Vec<(String, String)>;

/// One parsed sample line: `name{labels} value`.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSample {
    /// The sample's full metric name (including any `_bucket` /
    /// `_sum` / `_count` suffix).
    pub name: String,
    /// Label pairs in the order they appeared, values unescaped.
    pub labels: LabelPairs,
    /// The sample value (`NaN` / `+Inf` / `-Inf` spelled out in the
    /// wire format parse to the matching `f64`).
    pub value: f64,
}

impl ParsedSample {
    /// The value of label `name`, if present.
    pub fn label(&self, name: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// One family: the `# HELP` / `# TYPE` headers plus every sample that
/// belongs to it (histogram `_bucket`/`_sum`/`_count` series fold into
/// their base family).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParsedFamily {
    /// Unescaped `# HELP` text, when present.
    pub help: Option<String>,
    /// The `# TYPE` keyword (`counter` / `gauge` / `histogram` / …),
    /// when present.
    pub kind: Option<String>,
    /// Samples in wire order.
    pub samples: Vec<ParsedSample>,
}

/// A parsed exposition: families keyed by base metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParsedExposition {
    /// Families keyed by base name (suffixes stripped for histograms).
    pub families: BTreeMap<String, ParsedFamily>,
}

impl ParsedExposition {
    /// The sample with exactly this name and label set (order
    /// insensitive), if present anywhere in the exposition.
    pub fn sample(&self, name: &str, labels: &[(&str, &str)]) -> Option<&ParsedSample> {
        let mut want: Vec<(&str, &str)> = labels.to_vec();
        want.sort();
        self.families.values().flat_map(|f| &f.samples).find(|s| {
            if s.name != name {
                return false;
            }
            let mut have: Vec<(&str, &str)> = s
                .labels
                .iter()
                .map(|(n, v)| (n.as_str(), v.as_str()))
                .collect();
            have.sort();
            have == want
        })
    }
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Parses a sample value (`NaN`, `+Inf`, `-Inf`, or a float literal).
fn parse_value(s: &str) -> Result<f64, String> {
    match s {
        "NaN" => Ok(f64::NAN),
        "+Inf" | "Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        other => other
            .parse::<f64>()
            .map_err(|_| format!("bad sample value {other:?}")),
    }
}

/// Unescapes `\\n` / `\\\\` in help text.
fn unescape_help(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Parses the `{label="value",...}` block; `rest` starts *after* the
/// opening `{`. Returns the pairs and the remainder after the closing
/// `}`.
fn parse_labels(rest: &str) -> Result<(LabelPairs, &str), String> {
    let mut labels = Vec::new();
    let mut rest = rest.trim_start();
    loop {
        if let Some(after) = rest.strip_prefix('}') {
            return Ok((labels, after));
        }
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=' near {rest:?}"))?;
        let name = rest[..eq].trim();
        if !valid_label_name(name) {
            return Err(format!("invalid label name {name:?}"));
        }
        rest = rest[eq + 1..]
            .strip_prefix('"')
            .ok_or_else(|| format!("label {name:?} value is not quoted"))?;
        // Unescape the quoted value: \\ \" \n.
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let after_quote;
        loop {
            match chars.next() {
                Some((i, '"')) => {
                    after_quote = &rest[i + 1..];
                    break;
                }
                Some((_, '\\')) => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    Some((_, other)) => {
                        return Err(format!("bad escape '\\{other}' in label {name:?}"))
                    }
                    None => return Err(format!("unterminated escape in label {name:?}")),
                },
                Some((_, c)) => value.push(c),
                None => return Err(format!("unterminated value for label {name:?}")),
            }
        }
        labels.push((name.to_owned(), value));
        rest = after_quote.trim_start();
        if let Some(after) = rest.strip_prefix(',') {
            rest = after.trim_start();
        }
    }
}

/// The base family name of a sample: `_bucket` / `_sum` / `_count`
/// suffixes fold into a declared histogram family when one exists.
fn family_of<'a>(name: &'a str, histograms: &BTreeMap<String, ParsedFamily>) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if histograms
                .get(base)
                .is_some_and(|f| f.kind.as_deref() == Some("histogram"))
            {
                return base;
            }
        }
    }
    name
}

/// Parses a full exposition body.
///
/// # Errors
///
/// Returns a description of the first malformed line: bad metric or
/// label names, unquoted or unterminated label values, bad escapes,
/// unparsable sample values, or duplicate `# TYPE` declarations.
pub fn parse_exposition(text: &str) -> Result<ParsedExposition, String> {
    let mut exposition = ParsedExposition::default();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let err = |msg: String| format!("line {}: {msg}", lineno + 1);
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest
                .split_once(' ')
                .map(|(n, h)| (n, h.to_owned()))
                .unwrap_or((rest, String::new()));
            if !valid_metric_name(name) {
                return Err(err(format!("invalid metric name {name:?} in HELP")));
            }
            let family = exposition.families.entry(name.to_owned()).or_default();
            if family.help.is_some() {
                return Err(err(format!("duplicate HELP for {name:?}")));
            }
            family.help = Some(unescape_help(&help));
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest
                .split_once(' ')
                .ok_or_else(|| err("TYPE line without a kind".to_owned()))?;
            if !valid_metric_name(name) {
                return Err(err(format!("invalid metric name {name:?} in TYPE")));
            }
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(err(format!("unknown metric kind {kind:?}")));
            }
            let family = exposition.families.entry(name.to_owned()).or_default();
            if family.kind.is_some() {
                return Err(err(format!("duplicate TYPE for {name:?}")));
            }
            family.kind = Some(kind.to_owned());
            continue;
        }
        if line.starts_with('#') {
            continue; // plain comment
        }
        // Sample line: name[{labels}] value
        let name_end = line
            .find(|c: char| c == '{' || c.is_ascii_whitespace())
            .unwrap_or(line.len());
        let name = &line[..name_end];
        if !valid_metric_name(name) {
            return Err(err(format!("invalid metric name {name:?}")));
        }
        let rest = &line[name_end..];
        let (labels, rest) = if let Some(after) = rest.strip_prefix('{') {
            parse_labels(after).map_err(&err)?
        } else {
            (Vec::new(), rest)
        };
        let value_str = rest.trim();
        if value_str.is_empty() {
            return Err(err(format!("sample {name:?} has no value")));
        }
        // A timestamp may follow the value; the renderer never emits
        // one, so reject it here to keep the validator strict.
        if value_str.split_ascii_whitespace().count() != 1 {
            return Err(err(format!("unexpected trailing fields after {name:?}")));
        }
        let value = parse_value(value_str).map_err(&err)?;
        let base = family_of(name, &exposition.families).to_owned();
        exposition
            .families
            .entry(base)
            .or_default()
            .samples
            .push(ParsedSample {
                name: name.to_owned(),
                labels,
                value,
            });
    }
    Ok(exposition)
}

/// Parses *and* validates an exposition:
///
/// * every sample belongs to a family with a `# TYPE` declaration;
/// * histogram `_bucket` series are cumulative (non-decreasing in
///   `le` order), end in an `le="+Inf"` bucket, and that bucket equals
///   the family's `_count` for the same label set.
///
/// Returns the parsed exposition on success — this is the check the
/// fleet server's round-trip test runs against a live scrape.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn validate_exposition(text: &str) -> Result<ParsedExposition, String> {
    let exposition = parse_exposition(text)?;
    for (name, family) in &exposition.families {
        let Some(kind) = family.kind.as_deref() else {
            return Err(format!("family {name:?} has samples but no TYPE"));
        };
        if kind != "histogram" {
            continue;
        }
        // Group buckets by their non-`le` label signature.
        let bucket_name = format!("{name}_bucket");
        let count_name = format!("{name}_count");
        let mut groups: BTreeMap<LabelPairs, Vec<(f64, f64)>> = BTreeMap::new();
        for sample in &family.samples {
            if sample.name != bucket_name {
                continue;
            }
            let le = sample
                .label("le")
                .ok_or_else(|| format!("{bucket_name} sample without le"))?;
            let edge = parse_value(le)?;
            let mut key: Vec<(String, String)> = sample
                .labels
                .iter()
                .filter(|(n, _)| n != "le")
                .cloned()
                .collect();
            key.sort();
            groups.entry(key).or_default().push((edge, sample.value));
        }
        for (key, mut buckets) in groups {
            buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
            let monotone = buckets.windows(2).all(|w| w[0].1 <= w[1].1);
            if !monotone {
                return Err(format!("{bucket_name}{key:?} buckets are not cumulative"));
            }
            let Some(&(last_edge, last_count)) = buckets.last() else {
                continue;
            };
            if last_edge != f64::INFINITY {
                return Err(format!("{bucket_name}{key:?} missing le=\"+Inf\""));
            }
            let count = family
                .samples
                .iter()
                .find(|s| {
                    let mut have: Vec<(String, String)> = s.labels.clone();
                    have.sort();
                    s.name == count_name && have == key
                })
                .ok_or_else(|| format!("{count_name}{key:?} missing"))?;
            if count.value != last_count {
                return Err(format!(
                    "{bucket_name}{key:?}: +Inf bucket {} != count {}",
                    last_count, count.value
                ));
            }
        }
    }
    Ok(exposition)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# HELP otem_requests_total Total requests.
# TYPE otem_requests_total counter
otem_requests_total{route=\"/simulate\"} 5
# HELP otem_lat_seconds Latency.
# TYPE otem_lat_seconds histogram
otem_lat_seconds_bucket{route=\"/plan\",le=\"0.1\"} 1
otem_lat_seconds_bucket{route=\"/plan\",le=\"+Inf\"} 3
otem_lat_seconds_sum{route=\"/plan\"} 1.25
otem_lat_seconds_count{route=\"/plan\"} 3
";

    #[test]
    fn parses_families_samples_and_histogram_suffixes() {
        let parsed = validate_exposition(SAMPLE).expect("valid");
        assert_eq!(parsed.families.len(), 2);
        let requests = &parsed.families["otem_requests_total"];
        assert_eq!(requests.kind.as_deref(), Some("counter"));
        assert_eq!(requests.help.as_deref(), Some("Total requests."));
        assert_eq!(requests.samples[0].value, 5.0);
        assert_eq!(requests.samples[0].label("route"), Some("/simulate"));
        let lat = &parsed.families["otem_lat_seconds"];
        assert_eq!(lat.samples.len(), 4, "buckets + sum + count fold in");
        assert!(parsed
            .sample("otem_lat_seconds_count", &[("route", "/plan")])
            .is_some());
    }

    #[test]
    fn label_escapes_round_trip() {
        let text = "# TYPE m counter\nm{k=\"a\\\\b\\\"c\\nd\"} 1\n";
        let parsed = parse_exposition(text).expect("valid");
        assert_eq!(
            parsed.families["m"].samples[0].label("k"),
            Some("a\\b\"c\nd")
        );
    }

    #[test]
    fn non_cumulative_buckets_are_rejected() {
        let bad = "\
# TYPE h histogram
h_bucket{le=\"1\"} 5
h_bucket{le=\"+Inf\"} 3
h_sum 0
h_count 3
";
        let err = validate_exposition(bad).unwrap_err();
        assert!(err.contains("not cumulative"), "{err}");
    }

    #[test]
    fn missing_inf_bucket_is_rejected() {
        let bad = "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_count 1\nh_sum 1\n";
        let err = validate_exposition(bad).unwrap_err();
        assert!(err.contains("+Inf"), "{err}");
    }

    #[test]
    fn untyped_samples_are_rejected() {
        let err = validate_exposition("lonely 1\n").unwrap_err();
        assert!(err.contains("no TYPE"), "{err}");
    }

    #[test]
    fn inf_count_mismatch_is_rejected() {
        let bad = "\
# TYPE h histogram
h_bucket{le=\"+Inf\"} 3
h_sum 0
h_count 4
";
        let err = validate_exposition(bad).unwrap_err();
        assert!(err.contains("!= count"), "{err}");
    }

    #[test]
    fn special_values_parse() {
        let text = "# TYPE g gauge\ng{k=\"nan\"} NaN\ng{k=\"inf\"} +Inf\ng{k=\"neg\"} -Inf\n";
        let parsed = parse_exposition(text).expect("valid");
        let g = &parsed.families["g"];
        assert!(g.samples[0].value.is_nan());
        assert_eq!(g.samples[1].value, f64::INFINITY);
        assert_eq!(g.samples[2].value, f64::NEG_INFINITY);
    }

    #[test]
    fn malformed_lines_name_the_line() {
        let err = parse_exposition("# TYPE m counter\nm{k=unquoted} 1\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }
}
