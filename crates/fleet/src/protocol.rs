//! Wire protocol of the fleet server: minimal JSON field extraction for
//! requests (the vendored `serde` is a no-op stub, so parsing is
//! hand-rolled, mirroring `otem-bench`'s span-stream reader) and JSONL
//! rendering for responses.

use crate::campaign::{Methodology, SolveOutcomes, VehicleSpec, VehicleSummary};
use crate::engine::{Schedule, VehicleFailure};
use otem_drivecycle::StandardCycle;
use otem_telemetry::write_json_string;
use std::fmt::Write as _;

/// The text immediately after `"key":`, if present.
fn field_value<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = body.find(&needle)?;
    Some(body[at + needle.len()..].trim_start())
}

/// Whether `rest` (the text after a scalar value) ends the value: end
/// of input, a separator, or whitespace.
fn ends_value(rest: &str) -> bool {
    rest.chars()
        .next()
        .is_none_or(|c| c == ',' || c == '}' || c.is_whitespace())
}

/// Extracts an unsigned integer field strictly: `Ok(None)` when absent,
/// `Err` when present but not a plain run of ASCII digits that fits a
/// `u64` and ends the value (`1e3`, `-5`, `1.0`, `"7"`, `null` and
/// anything above `u64::MAX` are all errors, never a truncated number).
pub fn json_uint(body: &str, key: &str) -> Result<Option<u64>, ParseError> {
    let Some(rest) = field_value(body, key) else {
        return Ok(None);
    };
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    match rest[..end].parse() {
        Ok(value) if ends_value(&rest[end..]) => Ok(Some(value)),
        _ => Err(format!("\"{key}\" must be an unsigned integer below 2^64")),
    }
}

/// Extracts a float field (`"key":-12.5`); `None` when the field is
/// absent or malformed (see [`json_float`]).
pub fn json_f64(body: &str, key: &str) -> Option<f64> {
    json_float(body, key).ok().flatten()
}

/// Extracts a float field strictly: `Ok(None)` when absent, `Err` when
/// present but not a finite JSON number that ends the value (`"hot"`,
/// `null`, `[]` and `35abc` are all errors, never a default or a
/// truncated number).
pub fn json_float(body: &str, key: &str) -> Result<Option<f64>, ParseError> {
    let Some(rest) = field_value(body, key) else {
        return Ok(None);
    };
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
        .unwrap_or(rest.len());
    match rest[..end].parse::<f64>() {
        Ok(value) if value.is_finite() && ends_value(&rest[end..]) => Ok(Some(value)),
        _ => Err(format!("\"{key}\" must be a finite number")),
    }
}

/// Extracts a string field (`"key":"value"`) strictly: `Ok(None)` when
/// absent, `Err` when present but not a string. Values are wire-name
/// identifiers, so escapes are treated as malformed.
pub fn json_str<'a>(body: &'a str, key: &str) -> Result<Option<&'a str>, ParseError> {
    let Some(rest) = field_value(body, key) else {
        return Ok(None);
    };
    let value = rest.strip_prefix('"').and_then(|inner| {
        let end = inner.find(['"', '\\'])?;
        (inner[end..].starts_with('"') && ends_value(&inner[end + 1..])).then(|| &inner[..end])
    });
    value
        .map(Some)
        .ok_or_else(|| format!("\"{key}\" must be a string without escapes"))
}

/// Extracts a boolean field (`"key":true`) strictly: `Ok(None)` when
/// absent, `Err` when present but not a bare `true` or `false`.
pub fn json_bool(body: &str, key: &str) -> Result<Option<bool>, ParseError> {
    let Some(rest) = field_value(body, key) else {
        return Ok(None);
    };
    for (literal, value) in [("true", true), ("false", false)] {
        if let Some(after) = rest.strip_prefix(literal) {
            if ends_value(after) {
                return Ok(Some(value));
            }
        }
    }
    Err(format!("\"{key}\" must be true or false"))
}

/// Parses a cycle wire name (lower-case spec name).
pub fn cycle_from_wire(name: &str) -> Option<StandardCycle> {
    Some(match name {
        "udds" => StandardCycle::Udds,
        "hwfet" => StandardCycle::Hwfet,
        "us06" => StandardCycle::Us06,
        "sc03" => StandardCycle::Sc03,
        "nycc" => StandardCycle::Nycc,
        "la92" => StandardCycle::La92,
        "wltc" => StandardCycle::Wltc,
        "jc08" => StandardCycle::Jc08,
        "artemis_urban" => StandardCycle::ArtemisUrban,
        _ => return None,
    })
}

/// Lower-case wire name of a cycle.
pub fn cycle_wire_name(cycle: StandardCycle) -> &'static str {
    match cycle {
        StandardCycle::Udds => "udds",
        StandardCycle::Hwfet => "hwfet",
        StandardCycle::Us06 => "us06",
        StandardCycle::Sc03 => "sc03",
        StandardCycle::Nycc => "nycc",
        StandardCycle::La92 => "la92",
        StandardCycle::Wltc => "wltc",
        StandardCycle::Jc08 => "jc08",
        StandardCycle::ArtemisUrban => "artemis_urban",
        // `StandardCycle` is non_exhaustive; new cycles must get a wire
        // name here before the server can accept them.
        _ => "unknown",
    }
}

/// Per-step telemetry format of a single-vehicle request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Telemetry {
    /// Summary line only.
    None,
    /// Stream `otem-telemetry` events as JSON lines ([`otem_telemetry::JsonlSink`]).
    Jsonl,
    /// Stream a Chrome Trace Event array ([`otem_telemetry::ChromeTraceSink`]).
    Chrome,
}

/// A parsed `POST /simulate` or `POST /plan` body.
#[derive(Debug, Clone, PartialEq)]
pub enum SimulateRequest {
    /// Batched campaign: `{"vehicles":1000,"seed":42,"shards":4,
    /// "schedule":"steal","mpc_deadline_us":250}`.
    Fleet {
        /// Campaign size.
        vehicles: usize,
        /// Campaign seed (default 42).
        seed: u64,
        /// Requested worker count (`0` → server default).
        shards: usize,
        /// `"steal"` (default) or `"serial"`.
        schedule: &'static str,
        /// Per-solve wall-clock deadline (µs) applied to every OTEM
        /// vehicle in the campaign; `0` (default) means no deadline.
        mpc_deadline_us: u64,
        /// Chaos hook: id of one vehicle whose controller will *panic*
        /// mid-campaign, exercising the engine's panic containment.
        /// Absent on production traffic.
        poison_id: Option<u64>,
    },
    /// One explicit vehicle: `{"cycle":"us06","methodology":"otem",
    /// "steps":120,"ambient_c":30,"capacitance_f":20000,
    /// "telemetry":"jsonl"}`.
    Vehicle {
        /// The vehicle to simulate.
        spec: VehicleSpec,
        /// Per-step streaming mode.
        telemetry: Telemetry,
    },
}

/// Parse failure: human-readable reason, returned as a 400.
pub type ParseError = String;

/// Extracts and validates the optional per-solve deadline field.
/// `0` (the default) means "no deadline"; anything above 10 s per solve
/// is rejected as a client error rather than silently accepted.
fn parse_deadline_us(body: &str) -> Result<u64, ParseError> {
    let us = json_uint(body, "mpc_deadline_us")?.unwrap_or(0);
    if us > 10_000_000 {
        return Err("\"mpc_deadline_us\" must be ≤ 10000000 (10 s)".into());
    }
    Ok(us)
}

impl SimulateRequest {
    /// Parses a request body. A body with a `"vehicles"` count is a
    /// fleet request; anything else is a single vehicle with defaults
    /// for every omitted field.
    pub fn parse(body: &str) -> Result<Self, ParseError> {
        if let Some(vehicles) = json_uint(body, "vehicles")? {
            if vehicles == 0 {
                return Err("\"vehicles\" must be ≥ 1".into());
            }
            let schedule = match json_str(body, "schedule")? {
                None | Some("steal") => "steal",
                Some("serial") => "serial",
                Some(other) => return Err(format!("unknown schedule {other:?}")),
            };
            let poison_id = json_uint(body, "poison_id")?;
            if let Some(id) = poison_id {
                if id >= vehicles {
                    return Err(format!(
                        "\"poison_id\" {id} out of range for {vehicles} vehicles"
                    ));
                }
            }
            return Ok(Self::Fleet {
                vehicles: usize::try_from(vehicles).unwrap_or(usize::MAX),
                seed: json_uint(body, "seed")?.unwrap_or(42),
                shards: usize::try_from(json_uint(body, "shards")?.unwrap_or(0))
                    .unwrap_or(usize::MAX),
                schedule,
                mpc_deadline_us: parse_deadline_us(body)?,
                poison_id,
            });
        }

        let cycle = match json_str(body, "cycle")? {
            None => StandardCycle::Us06,
            Some(name) => cycle_from_wire(name).ok_or_else(|| format!("unknown cycle {name:?}"))?,
        };
        let methodology = match json_str(body, "methodology")? {
            None => Methodology::Otem,
            Some(name) => Methodology::from_wire(name)
                .ok_or_else(|| format!("unknown methodology {name:?}"))?,
        };
        let telemetry = match json_str(body, "telemetry")? {
            None | Some("none") => Telemetry::None,
            Some("jsonl") => Telemetry::Jsonl,
            Some("chrome") => Telemetry::Chrome,
            Some(other) => return Err(format!("unknown telemetry mode {other:?}")),
        };
        let steps = json_uint(body, "steps")?.unwrap_or(120);
        if steps == 0 || steps > 100_000 {
            return Err("\"steps\" must be in 1..=100000".into());
        }
        let ambient_c = json_float(body, "ambient_c")?.unwrap_or(25.0);
        if !(-10.0..=39.0).contains(&ambient_c) {
            return Err("\"ambient_c\" must be in -10..=39".into());
        }
        let capacitance_f = json_float(body, "capacitance_f")?.unwrap_or(25_000.0);
        if !(1_000.0..=100_000.0).contains(&capacitance_f) {
            return Err("\"capacitance_f\" must be in 1000..=100000".into());
        }
        // The horizon sizes the MPC's buffers: 0 panics the first solve
        // and a huge one can abort the whole process on allocation,
        // which per-vehicle panic isolation cannot contain.
        let mpc_horizon = json_uint(body, "mpc_horizon")?.unwrap_or(8);
        if !(1..=64).contains(&mpc_horizon) {
            return Err("\"mpc_horizon\" must be in 1..=64".into());
        }
        // A zero budget would hand back every warm start labelled
        // `budget_exhausted`, the label of a nominal solve; a starved
        // solver is a zero deadline, which `/metrics` tells apart.
        let mpc_iterations = json_uint(body, "mpc_iterations")?.unwrap_or(24);
        if !(1..=400).contains(&mpc_iterations) {
            return Err("\"mpc_iterations\" must be in 1..=400".into());
        }
        Ok(Self::Vehicle {
            spec: VehicleSpec {
                id: json_uint(body, "id")?.unwrap_or(0),
                cycle,
                steps: steps as usize,
                compact: json_bool(body, "compact")?.unwrap_or(false),
                ambient_c,
                capacitance_f,
                methodology,
                mpc_horizon: mpc_horizon as usize,
                mpc_iterations: mpc_iterations as usize,
                mpc_deadline_us: parse_deadline_us(body)?,
                poison_step: None,
            },
            telemetry,
        })
    }

    /// The [`Schedule`] a fleet request resolves to, given the server's
    /// configured shard width: the width of a request that pins none,
    /// and the most one request may ask for (`0` resolves to the host's
    /// core count, as in [`crate::pool::resolve_workers`]) — a client
    /// cannot make the server spawn more threads than it was configured
    /// with.
    pub fn schedule(&self, default_shards: usize) -> Schedule {
        match self {
            Self::Fleet {
                shards, schedule, ..
            } => {
                let width = if *shards == 0 {
                    default_shards
                } else {
                    (*shards).min(crate::pool::resolve_workers(default_shards))
                };
                match *schedule {
                    "serial" => Schedule::Serial,
                    _ => Schedule::WorkStealing { shards: width },
                }
            }
            Self::Vehicle { .. } => Schedule::Serial,
        }
    }
}

/// Renders a solve-outcome distribution as one JSON object (no
/// surrounding whitespace) — embedded in fleet trailers and the BENCH
/// reports.
pub fn outcomes_json(o: &SolveOutcomes) -> String {
    format!(
        "{{\"converged\":{},\"budget_exhausted\":{},\"stalled\":{},\
         \"non_finite\":{},\"deadline_reached\":{}}}",
        o.converged, o.budget_exhausted, o.stalled, o.non_finite, o.deadline_reached
    )
}

/// Renders one vehicle summary as a JSONL line (no trailing newline).
pub fn summary_line(s: &VehicleSummary) -> String {
    let mut out = String::with_capacity(192);
    let _ = write!(
        out,
        "{{\"event\":\"vehicle\",\"id\":{},\"steps\":{},\"energy_j\":{:.6},\
         \"cooling_j\":{:.6},\"capacity_loss\":{:.6e},\"peak_temp_c\":{:.4},\
         \"shortfall_j\":{:.6},\"checksum\":\"{:016x}\"}}",
        s.id,
        s.steps,
        s.energy_j,
        s.cooling_j,
        s.capacity_loss,
        s.peak_temp_k - 273.15,
        s.shortfall_j,
        s.checksum
    );
    out
}

/// Renders one vehicle failure as a JSONL line (no trailing newline) —
/// interleaved with [`summary_line`]s in id order so a streaming client
/// sees exactly one line per requested vehicle.
pub fn failure_line(f: &VehicleFailure) -> String {
    let mut out = String::with_capacity(96 + f.message.len());
    let _ = write!(
        out,
        "{{\"event\":\"vehicle_error\",\"id\":{},\"panicked\":{},\"error\":",
        f.id, f.panicked
    );
    write_json_string(&mut out, &f.message);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_body_parses_with_defaults() {
        let r = SimulateRequest::parse("{\"vehicles\":100}").expect("parses");
        assert_eq!(
            r,
            SimulateRequest::Fleet {
                vehicles: 100,
                seed: 42,
                shards: 0,
                schedule: "steal",
                mpc_deadline_us: 0,
                poison_id: None,
            }
        );
        assert_eq!(r.schedule(4), Schedule::WorkStealing { shards: 4 });
    }

    #[test]
    fn fleet_body_honours_explicit_fields() {
        let r = SimulateRequest::parse(
            "{\"vehicles\":8,\"seed\":7,\"shards\":2,\"schedule\":\"steal\",\
             \"mpc_deadline_us\":250}",
        )
        .expect("parses");
        assert_eq!(r.schedule(16), Schedule::WorkStealing { shards: 2 });
        match r {
            SimulateRequest::Fleet {
                vehicles,
                seed,
                mpc_deadline_us,
                ..
            } => {
                assert_eq!((vehicles, seed, mpc_deadline_us), (8, 7, 250));
            }
            other => panic!("expected fleet, got {other:?}"),
        }
    }

    #[test]
    fn vehicle_body_parses_with_defaults() {
        let r = SimulateRequest::parse("{}").expect("parses");
        match r {
            SimulateRequest::Vehicle { spec, telemetry } => {
                assert_eq!(spec.cycle, StandardCycle::Us06);
                assert_eq!(spec.methodology, Methodology::Otem);
                assert_eq!(spec.steps, 120);
                assert_eq!(telemetry, Telemetry::None);
            }
            other => panic!("expected vehicle, got {other:?}"),
        }
    }

    #[test]
    fn vehicle_body_honours_explicit_fields() {
        let r = SimulateRequest::parse(
            "{\"cycle\":\"nycc\",\"methodology\":\"dual\",\"steps\":50,\
             \"ambient_c\":32.5,\"capacitance_f\":9000,\"telemetry\":\"jsonl\",\
             \"compact\":true}",
        )
        .expect("parses");
        match r {
            SimulateRequest::Vehicle { spec, telemetry } => {
                assert_eq!(spec.cycle, StandardCycle::Nycc);
                assert_eq!(spec.methodology, Methodology::Dual);
                assert_eq!(spec.steps, 50);
                assert_eq!(spec.ambient_c, 32.5);
                assert_eq!(spec.capacitance_f, 9000.0);
                assert!(spec.compact);
                assert_eq!(telemetry, Telemetry::Jsonl);
            }
            other => panic!("expected vehicle, got {other:?}"),
        }
    }

    #[test]
    fn invalid_bodies_are_rejected() {
        assert!(SimulateRequest::parse("{\"vehicles\":0}").is_err());
        assert!(SimulateRequest::parse("{\"cycle\":\"warp9\"}").is_err());
        assert!(SimulateRequest::parse("{\"methodology\":\"psychic\"}").is_err());
        assert!(SimulateRequest::parse("{\"steps\":0}").is_err());
        assert!(SimulateRequest::parse("{\"ambient_c\":95}").is_err());
        assert!(SimulateRequest::parse("{\"vehicles\":4,\"schedule\":\"chaos\"}").is_err());
        assert!(SimulateRequest::parse("{\"vehicles\":4,\"schedule\":\"static\"}").is_err());
        assert!(SimulateRequest::parse("{\"mpc_deadline_us\":10000001}").is_err());
        assert!(SimulateRequest::parse("{\"vehicles\":4,\"mpc_deadline_us\":10000001}").is_err());
        assert!(SimulateRequest::parse("{\"vehicles\":4,\"poison_id\":4}").is_err());
        assert!(SimulateRequest::parse("{\"mpc_iterations\":0}").is_err());
    }

    #[test]
    fn mpc_shape_is_bounded() {
        for body in [
            "{\"mpc_horizon\":0}",
            "{\"mpc_horizon\":65}",
            "{\"mpc_horizon\":4000000000}",
            "{\"mpc_iterations\":401}",
        ] {
            assert!(SimulateRequest::parse(body).is_err(), "{body} accepted");
        }
        let r = SimulateRequest::parse("{\"mpc_horizon\":64,\"mpc_iterations\":400}")
            .expect("the bounds themselves parse");
        match r {
            SimulateRequest::Vehicle { spec, .. } => {
                assert_eq!((spec.mpc_horizon, spec.mpc_iterations), (64, 400));
            }
            other => panic!("expected vehicle, got {other:?}"),
        }
    }

    #[test]
    fn malformed_integer_fields_are_rejected_not_truncated() {
        for field in ["vehicles", "seed", "shards", "poison_id", "mpc_deadline_us"] {
            for value in [
                "1e3",
                "-5",
                "\"abc\"",
                "2.0",
                "null",
                "18446744073709551616",
            ] {
                let body = if field == "vehicles" {
                    format!("{{\"vehicles\":{value}}}")
                } else {
                    format!("{{\"vehicles\":4,\"{field}\":{value}}}")
                };
                let err = SimulateRequest::parse(&body).expect_err(&body);
                assert!(err.contains(field), "{body}: {err}");
            }
        }
        for field in [
            "steps",
            "mpc_horizon",
            "mpc_iterations",
            "mpc_deadline_us",
            "id",
        ] {
            for value in ["1e3", "-5", "\"abc\"", "8.5", "18446744073709551616"] {
                let body = format!("{{\"{field}\":{value}}}");
                let err = SimulateRequest::parse(&body).expect_err(&body);
                assert!(err.contains(field), "{body}: {err}");
            }
        }
        // The largest u64 is still a well-formed integer (the seed takes
        // any value), and whitespace may follow a number.
        let r = SimulateRequest::parse("{\"vehicles\": 3 ,\"seed\":18446744073709551615}")
            .expect("parses");
        match r {
            SimulateRequest::Fleet { vehicles, seed, .. } => {
                assert_eq!((vehicles, seed), (3, u64::MAX));
            }
            other => panic!("expected fleet, got {other:?}"),
        }
    }

    #[test]
    fn malformed_float_bool_and_string_fields_are_rejected_not_defaulted() {
        for (field, value) in [
            ("ambient_c", "\"hot\""),
            ("ambient_c", "null"),
            ("ambient_c", "35abc"),
            ("ambient_c", "1e999"),
            ("ambient_c", ""),
            ("capacitance_f", "[]"),
            ("compact", "\"yes\""),
            ("compact", "1"),
            ("compact", "trueish"),
            ("cycle", "5"),
            ("cycle", "\"us\\u0030\""),
            ("methodology", "null"),
            ("telemetry", "1"),
            ("id", "true"),
        ] {
            let body = format!("{{\"{field}\":{value}}}");
            let err = SimulateRequest::parse(&body).expect_err(&body);
            assert!(err.contains(field), "{body}: {err}");
        }
        let err =
            SimulateRequest::parse("{\"vehicles\":4,\"schedule\":true}").expect_err("schedule");
        assert!(err.contains("schedule"), "{err}");
        // Well-formed values still parse, with whitespace after them.
        let r = SimulateRequest::parse(
            "{\"ambient_c\": -5.5e0 ,\"capacitance_f\":1e4,\"compact\":false }",
        )
        .expect("parses");
        match r {
            SimulateRequest::Vehicle { spec, .. } => {
                assert_eq!((spec.ambient_c, spec.capacitance_f), (-5.5, 10_000.0));
                assert!(!spec.compact);
            }
            other => panic!("expected vehicle, got {other:?}"),
        }
    }

    #[test]
    fn lenient_float_reader_skips_malformed_values() {
        assert_eq!(json_f64("{\"x\":2.5}", "x"), Some(2.5));
        assert_eq!(json_f64("{\"x\":\"2.5\"}", "x"), None);
        assert_eq!(json_f64("{\"y\":1}", "x"), None);
    }

    #[test]
    fn requested_shards_are_clamped_to_the_configured_width() {
        let r = SimulateRequest::parse("{\"vehicles\":1000,\"shards\":1000}").expect("parses");
        assert_eq!(r.schedule(4), Schedule::WorkStealing { shards: 4 });
        let r = SimulateRequest::parse("{\"vehicles\":1000,\"shards\":3,\"schedule\":\"steal\"}")
            .expect("parses");
        assert_eq!(r.schedule(8), Schedule::WorkStealing { shards: 3 });
        assert_eq!(r.schedule(2), Schedule::WorkStealing { shards: 2 });
        let auto = crate::pool::resolve_workers(0);
        let r = SimulateRequest::parse("{\"vehicles\":10,\"shards\":100000}").expect("parses");
        assert_eq!(r.schedule(0), Schedule::WorkStealing { shards: auto });
    }

    #[test]
    fn poison_id_parses_when_in_range() {
        let r = SimulateRequest::parse("{\"vehicles\":4,\"poison_id\":2}").expect("parses");
        match r {
            SimulateRequest::Fleet { poison_id, .. } => assert_eq!(poison_id, Some(2)),
            other => panic!("expected fleet, got {other:?}"),
        }
    }

    #[test]
    fn failure_line_escapes_the_message() {
        let line = failure_line(&VehicleFailure {
            id: 7,
            panicked: true,
            message: "poison fault: \"quoted\"\npayload".into(),
        });
        assert_eq!(
            line,
            "{\"event\":\"vehicle_error\",\"id\":7,\"panicked\":true,\
             \"error\":\"poison fault: \\\"quoted\\\"\\npayload\"}"
        );
    }

    #[test]
    fn vehicle_deadline_field_parses() {
        let r = SimulateRequest::parse("{\"mpc_deadline_us\":500}").expect("parses");
        match r {
            SimulateRequest::Vehicle { spec, .. } => assert_eq!(spec.mpc_deadline_us, 500),
            other => panic!("expected vehicle, got {other:?}"),
        }
    }

    #[test]
    fn cycle_wire_names_round_trip() {
        for c in StandardCycle::EXTENDED {
            assert_eq!(cycle_from_wire(cycle_wire_name(c)), Some(c));
        }
    }

    #[test]
    fn summary_line_is_one_json_object() {
        let line = summary_line(&VehicleSummary {
            id: 3,
            steps: 10,
            energy_j: 1234.5,
            cooling_j: 56.25,
            capacity_loss: 1.5e-7,
            peak_temp_k: 300.15,
            shortfall_j: 0.0,
            checksum: 0xdead_beef,
        });
        assert!(line.starts_with("{\"event\":\"vehicle\",\"id\":3,"));
        assert!(line.contains("\"checksum\":\"00000000deadbeef\""));
        assert!(!line.contains('\n'));
    }
}
