//! Compares freshly written benchmark reports against committed ones.
//!
//! Usage:
//! `cargo run --release -p otem-bench --bin bench_diff -- FRESH COMMITTED [FRESH COMMITTED ...]`
//!
//! e.g. `bench_diff BENCH_mpc.json old/BENCH_mpc.json BENCH_fleet.json old/BENCH_fleet.json`.
//!
//! Works on any `BENCH_*.json` that `perf_report` or `fleet_bench`
//! writes. Every leaf is addressed by its path (`results[0].adjoint.mean_ms`)
//! and sorted into one of three kinds by the keys on that path:
//!
//! | kind | keys | effect |
//! |------|------|--------|
//! | deterministic | `rollouts_per_solve`, `differentiated_per_solve`, `mean_iterations`, `outcomes`, `total_steps`, `solve_outcomes`, `fleet_checksum`, and every sample of a `"kind":"counter"` family in a `metrics` registry snapshot | must be present in both reports and equal; any difference fails the run |
//! | wall time | `mean_ms`, `min_ms`, `*_per_sec`, `*latency_ms`, `*wall_s` | delta printed, never fails |
//! | other | everything else, including histogram and gauge families | ignored |
//!
//! Exits 0 when every deterministic field matches, 1 when one differs,
//! and 2 on a usage, read or parse error.

use std::process::ExitCode;

/// Keys whose value (or whole subtree) is a function of the code and the
/// seed alone, never of the machine.
const DETERMINISTIC: [&str; 7] = [
    "rollouts_per_solve",
    "differentiated_per_solve",
    "mean_iterations",
    "outcomes",
    "total_steps",
    "solve_outcomes",
    "fleet_checksum",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Deterministic,
    Wall,
    Other,
}

/// A path segment without its array index: `results[0]` → `results`.
fn key(segment: &str) -> &str {
    segment.split('[').next().unwrap_or(segment)
}

/// The `metrics` snapshot's families of kind `counter`, as the paths of
/// their family objects (`metrics.otem_solve_outcome_total`).
fn counter_families(leaves: &[Leaf]) -> Vec<&[String]> {
    leaves
        .iter()
        .filter(|(path, value)| {
            value == "counter"
                && path.len() >= 3
                && path[path.len() - 1] == "kind"
                && path[path.len() - 3] == "metrics"
        })
        .map(|(path, _)| &path[..path.len() - 1])
        .collect()
}

fn kind_of(path: &[String], counters: &[&[String]]) -> Kind {
    if path.iter().any(|k| DETERMINISTIC.contains(&key(k)))
        || counters.iter().any(|family| path.starts_with(family))
    {
        return Kind::Deterministic;
    }
    let wall = |k: &str| {
        k == "mean_ms"
            || k == "min_ms"
            || k.ends_with("_per_sec")
            || k.ends_with("latency_ms")
            || k.ends_with("wall_s")
    };
    if path.iter().any(|k| wall(key(k))) {
        Kind::Wall
    } else {
        Kind::Other
    }
}

/// One JSON leaf: its path segments and its literal text (strings
/// without their quotes).
type Leaf = (Vec<String>, String);

/// Flattens a JSON document into its leaves, in document order.
fn flatten(text: &str) -> Result<Vec<Leaf>, String> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        leaves: Vec::new(),
    };
    parser.value(&mut Vec::new())?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing input at byte {}", parser.pos));
    }
    Ok(parser.leaves)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    leaves: Vec<Leaf>,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.pos))
        }
    }

    /// Consumes `close` if it is next; otherwise expects a `,` unless this
    /// is the first member. Returns whether the container ended.
    fn next_member(&mut self, close: u8, first: bool) -> Result<bool, String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&close) {
            self.pos += 1;
            return Ok(true);
        }
        if !first {
            self.expect(b',')?;
        }
        Ok(false)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'"' => {
                    let s = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
                    self.pos += 1;
                    return Ok(s);
                }
                b'\\' => self.pos += 2,
                _ => self.pos += 1,
            }
        }
        Err("unterminated string".into())
    }

    fn value(&mut self, path: &mut Vec<String>) -> Result<(), String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let mut first = true;
                while !self.next_member(b'}', first)? {
                    first = false;
                    let key = self.string()?;
                    self.expect(b':')?;
                    path.push(key);
                    self.value(path)?;
                    path.pop();
                }
                Ok(())
            }
            Some(b'[') => {
                self.pos += 1;
                let mut index = 0;
                while !self.next_member(b']', index == 0)? {
                    // Array elements extend the parent key: `results[0]`.
                    let parent = path.pop().unwrap_or_default();
                    path.push(format!("{parent}[{index}]"));
                    self.value(path)?;
                    path.pop();
                    path.push(parent);
                    index += 1;
                }
                Ok(())
            }
            Some(b'"') => {
                let s = self.string()?;
                self.leaves.push((path.clone(), s));
                Ok(())
            }
            Some(_) => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| !matches!(b, b',' | b'}' | b']') && !b.is_ascii_whitespace())
                {
                    self.pos += 1;
                }
                if start == self.pos {
                    return Err(format!("expected a value at byte {start}"));
                }
                let literal = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
                self.leaves.push((path.clone(), literal));
                Ok(())
            }
            None => Err("unexpected end of input".into()),
        }
    }
}

fn same(a: &str, b: &str) -> bool {
    match (a.parse::<f64>(), b.parse::<f64>()) {
        (Ok(x), Ok(y)) => x == y,
        _ => a == b,
    }
}

/// The comparison of one fresh/committed pair: printable lines, and
/// whether any deterministic field differs.
struct Diff {
    lines: Vec<String>,
    mismatches: usize,
}

fn diff(fresh: &str, committed: &str) -> Result<Diff, String> {
    let fresh = flatten(fresh).map_err(|e| format!("fresh report: {e}"))?;
    let committed = flatten(committed).map_err(|e| format!("committed report: {e}"))?;
    let lookup = |leaves: &[Leaf], path: &[String]| {
        leaves
            .iter()
            .find(|(p, _)| p == path)
            .map(|(_, v)| v.clone())
    };
    let mut counters = counter_families(&committed);
    counters.extend(counter_families(&fresh));
    let kind_of = |path: &[String]| kind_of(path, &counters);
    let mut out = Diff {
        lines: Vec::new(),
        mismatches: 0,
    };
    for (path, old) in &committed {
        let name = path.join(".");
        let new = lookup(&fresh, path);
        match (kind_of(path), new) {
            (Kind::Deterministic, Some(new)) if same(&new, old) => {}
            (Kind::Deterministic, new) => {
                out.mismatches += 1;
                let new = new.unwrap_or_else(|| "<missing>".into());
                out.lines
                    .push(format!("DIFFERS  {name}: committed {old}, fresh {new}"));
            }
            (Kind::Wall, Some(new)) => {
                if let (Ok(x), Ok(y)) = (old.parse::<f64>(), new.parse::<f64>()) {
                    let rel = if x != 0.0 {
                        format!("{:+.1} %", 100.0 * (y - x) / x)
                    } else {
                        "n/a".into()
                    };
                    out.lines
                        .push(format!("wall     {name}: {old} -> {new} ({rel})"));
                }
            }
            _ => {}
        }
    }
    for (path, new) in &fresh {
        if kind_of(path) == Kind::Deterministic && lookup(&committed, path).is_none() {
            out.mismatches += 1;
            out.lines.push(format!(
                "DIFFERS  {}: committed <missing>, fresh {new}",
                path.join(".")
            ));
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || !args.len().is_multiple_of(2) {
        eprintln!("usage: bench_diff FRESH COMMITTED [FRESH COMMITTED ...]");
        return ExitCode::from(2);
    }
    let mut mismatches = 0;
    for pair in args.chunks(2) {
        let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
        let result = read(&pair[0])
            .and_then(|fresh| read(&pair[1]).and_then(|committed| diff(&fresh, &committed)));
        match result {
            Ok(d) => {
                println!("== {} vs {}", pair[0], pair[1]);
                for line in &d.lines {
                    println!("{line}");
                }
                println!("deterministic fields differing: {}", d.mismatches);
                mismatches += d.mismatches;
            }
            Err(e) => {
                eprintln!("bench_diff: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if mismatches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMITTED: &str = r#"{
      "bench": "mpc_solve_horizons",
      "cpu_cores": 2,
      "results": [
        { "horizon": 12,
          "adjoint": { "mean_ms": 0.2500, "min_ms": 0.2400, "rollouts_per_sec": 170000,
                       "rollouts_per_solve": 43.2, "mean_iterations": 30.0,
                       "outcomes": {"converged":0,"budget_exhausted":8} } }
      ],
      "campaigns": [ { "total_steps": 212180, "wall_s": 2.0,
                       "latency_ms": { "p50": 0.0636, "p99": 79.5 },
                       "fleet_checksum": "0ce5e133455f34dc" } ],
      "metrics": {
        "otem_client_request_latency_seconds": {"kind":"histogram","samples":[
          {"labels":{"route":"/simulate"},"bounds":[0.01,0.02],"counts":[3,21,0],"sum":0.57,"count":24}]},
        "otem_solve_outcome_total": {"kind":"counter","samples":[
          {"labels":{"mode":"adjoint","outcome":"stalled"},"value":37},
          {"labels":{"mode":"adjoint","outcome":"budget_exhausted"},"value":24}]}
      }
    }"#;

    #[test]
    fn flatten_addresses_every_leaf_by_path() {
        let leaves = flatten(COMMITTED).expect("valid JSON");
        let find = |name: &str| {
            leaves
                .iter()
                .find(|(p, _)| p.join(".") == name)
                .map(|(_, v)| v.as_str())
        };
        assert_eq!(find("results[0].adjoint.rollouts_per_solve"), Some("43.2"));
        assert_eq!(
            find("results[0].adjoint.outcomes.budget_exhausted"),
            Some("8")
        );
        assert_eq!(
            find("campaigns[0].fleet_checksum"),
            Some("0ce5e133455f34dc")
        );
        assert_eq!(find("campaigns[0].latency_ms.p99"), Some("79.5"));
        assert!(flatten("{\"a\": [1, 2}").is_err());
    }

    #[test]
    fn faster_wall_times_with_equal_counters_pass_and_print_deltas() {
        let fresh = COMMITTED
            .replace("\"mean_ms\": 0.2500", "\"mean_ms\": 0.2000")
            .replace("\"wall_s\": 2.0", "\"wall_s\": 1.5")
            .replace("\"cpu_cores\": 2", "\"cpu_cores\": 4");
        let d = diff(&fresh, COMMITTED).expect("both parse");
        assert_eq!(d.mismatches, 0, "{:#?}", d.lines);
        assert!(d
            .lines
            .iter()
            .any(|l| l == "wall     results[0].adjoint.mean_ms: 0.2500 -> 0.2000 (-20.0 %)"));
        assert!(d
            .lines
            .iter()
            .any(|l| l == "wall     campaigns[0].wall_s: 2.0 -> 1.5 (-25.0 %)"));
        // Neither deterministic nor wall time: not reported.
        assert!(!d.lines.iter().any(|l| l.contains("cpu_cores")));
    }

    #[test]
    fn any_deterministic_difference_fails() {
        for (from, to) in [
            (
                "\"rollouts_per_solve\": 43.2",
                "\"rollouts_per_solve\": 43.3",
            ),
            ("\"mean_iterations\": 30.0", "\"mean_iterations\": 29.0"),
            ("\"budget_exhausted\":8", "\"budget_exhausted\":7"),
            ("\"total_steps\": 212180", "\"total_steps\": 212181"),
            ("0ce5e133455f34dc", "63d6c3b45d60299b"),
            // A counter sample in the registry snapshot that moves.
            ("\"value\":37", "\"value\":38"),
            // A deterministic field that disappears also fails.
            ("\"converged\":0,", ""),
        ] {
            let fresh = COMMITTED.replace(from, to);
            assert_ne!(fresh, COMMITTED, "{from} must occur in the fixture");
            let d = diff(&fresh, COMMITTED).expect("both parse");
            assert_eq!(d.mismatches, 1, "{from} -> {to}: {:#?}", d.lines);
            assert!(d.lines.iter().any(|l| l.starts_with("DIFFERS")));
        }
        // Numeric equality, not text: `30` equals `30.0`.
        let fresh = COMMITTED.replace("\"mean_iterations\": 30.0", "\"mean_iterations\": 30");
        assert_eq!(diff(&fresh, COMMITTED).expect("parse").mismatches, 0);
    }

    #[test]
    fn a_dropped_counter_sample_fails() {
        let dropped = ",\n          {\"labels\":{\"mode\":\"adjoint\",\"outcome\":\"budget_exhausted\"},\"value\":24}";
        let fresh = COMMITTED.replace(dropped, "");
        assert_ne!(fresh, COMMITTED, "the sample must occur in the fixture");
        let d = diff(&fresh, COMMITTED).expect("both parse");
        assert!(d.mismatches > 0);
        assert!(d.lines.iter().any(|l| l
            == "DIFFERS  metrics.otem_solve_outcome_total.samples[1].value: committed 24, fresh <missing>"));
    }

    #[test]
    fn histogram_samples_stay_ungated() {
        let fresh = COMMITTED
            .replace("\"counts\":[3,21,0]", "\"counts\":[4,20,0]")
            .replace("\"sum\":0.57", "\"sum\":0.61");
        assert_ne!(fresh, COMMITTED);
        let d = diff(&fresh, COMMITTED).expect("both parse");
        assert_eq!(d.mismatches, 0, "{:#?}", d.lines);
    }
}
