//! The always-on flight recorder: a bounded ring of recent telemetry,
//! frozen at the moment something goes wrong.
//!
//! Production failures are post-hoc: by the time a panic is caught,
//! the JSONL stream that would explain *why* has long been discarded
//! (or was never requested — the nominal path runs a [`NullSink`]). The
//! recorder keeps the last N events per lane shard at all times, each
//! stamped with its originating [`request_id`](crate::context), and
//! **freezes** a copy the instant it observes [`Event::PanicCaught`]
//! (a request handler or vehicle panicked) flowing through it.
//!
//! Freezing *observes the event stream* instead of requiring the
//! catch-unwind sites to know the recorder exists — they keep emitting
//! the events they already emit. The first trigger
//! wins (the dump describes the *first* incident, not the last); the
//! serving layer drains it with [`FlightRecorder::take_dump`] and
//! writes it as JSONL, and `/debug/flight` snapshots the live ring on
//! demand.
//!
//! The recorder is **not** on the nominal zero-cost path: it only sees
//! events when it is installed as (part of) a sink, which the serving
//! layer does per request. The golden-trace and allocation-parity
//! suites run over `NullSink` and never touch it.
//!
//! [`NullSink`]: crate::NullSink
//! [`Event::PanicCaught`]: crate::Event::PanicCaught

use crate::context::current_request_id;
use crate::event::Event;
use crate::ring::RingBuffer;
use crate::sink::Sink;
use crate::span;
use std::fmt::Write as _;
use std::sync::Mutex;

/// One recorded event with its correlation stamps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightEntry {
    /// Nanoseconds on the process-wide monotonic epoch at record time.
    pub t_ns: u64,
    /// The recording thread's lane (same id space as span events).
    pub lane: u64,
    /// The request id active on the recording thread (`0` = none).
    pub request_id: u64,
    /// The recorded event.
    pub event: Event,
}

impl FlightEntry {
    /// Appends the entry as one JSON object:
    /// `{"t_ns":..,"lane":..,"request_id":..,"event":{..}}`.
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"t_ns\":{},\"lane\":{},\"request_id\":{},\"event\":",
            self.t_ns, self.lane, self.request_id
        );
        self.event.write_json(out);
        out.push('}');
    }
}

/// A frozen copy of the ring at the moment a trigger fired.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightDump {
    /// The [`Event::kind`] that froze the recorder (`"panic_caught"`),
    /// or `"manual"` for explicit freezes.
    pub trigger: &'static str,
    /// The retained events across all shards, oldest first.
    pub entries: Vec<FlightEntry>,
}

impl FlightDump {
    /// Renders the dump as JSONL: a header line
    /// `{"flight_dump":true,"trigger":..,"entries":N}` followed by one
    /// line per entry.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(64 + self.entries.len() * 128);
        let _ = writeln!(
            out,
            "{{\"flight_dump\":true,\"trigger\":\"{}\",\"entries\":{}}}",
            self.trigger,
            self.entries.len()
        );
        for entry in &self.entries {
            entry.write_json(&mut out);
            out.push('\n');
        }
        out
    }
}

/// The recorder: lane-sharded rings of recent [`FlightEntry`]s plus
/// the (at most one) frozen dump. See the module docs for the
/// lifecycle.
#[derive(Debug)]
pub struct FlightRecorder {
    shards: Box<[Mutex<RingBuffer<FlightEntry>>]>,
    frozen: Mutex<Option<FlightDump>>,
}

impl FlightRecorder {
    /// Default shard count (recording threads hash across shards by
    /// lane, so contention stays low without per-thread registration).
    pub const DEFAULT_SHARDS: usize = 8;

    /// Default per-shard retention (entries).
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// A recorder with the default shape.
    pub fn new() -> Self {
        Self::with_shape(Self::DEFAULT_SHARDS, Self::DEFAULT_CAPACITY)
    }

    /// A recorder with `shards` rings of `capacity` entries each.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `capacity` is zero.
    pub fn with_shape(shards: usize, capacity: usize) -> Self {
        assert!(shards > 0, "flight recorder needs at least one shard");
        Self {
            shards: (0..shards)
                .map(|_| Mutex::new(RingBuffer::new(capacity)))
                .collect(),
            frozen: Mutex::new(None),
        }
    }

    /// The live ring contents across all shards, oldest first (by
    /// record timestamp) — what `/debug/flight` serves on demand.
    pub fn live_entries(&self) -> Vec<FlightEntry> {
        let mut entries: Vec<FlightEntry> = Vec::new();
        for shard in self.shards.iter() {
            let ring = shard.lock().unwrap_or_else(|e| e.into_inner());
            entries.extend(ring.iter().copied());
        }
        entries.sort_by_key(|e| e.t_ns);
        entries
    }

    /// Freezes the current ring as a dump with the given trigger, if
    /// no dump is already held. Returns `true` when this call froze
    /// (first trigger wins).
    pub fn freeze(&self, trigger: &'static str) -> bool {
        let mut frozen = self.frozen.lock().unwrap_or_else(|e| e.into_inner());
        if frozen.is_some() {
            return false;
        }
        *frozen = Some(FlightDump {
            trigger,
            entries: self.live_entries(),
        });
        true
    }

    /// `true` when a frozen dump is waiting to be drained.
    pub fn has_dump(&self) -> bool {
        self.frozen
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_some()
    }

    /// Drains the frozen dump, re-arming the recorder for the next
    /// incident.
    pub fn take_dump(&self) -> Option<FlightDump> {
        self.frozen.lock().unwrap_or_else(|e| e.into_inner()).take()
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Sink for FlightRecorder {
    fn record(&self, event: Event) {
        let entry = FlightEntry {
            t_ns: span::now_ns(),
            lane: span::lane(),
            request_id: current_request_id(),
            event,
        };
        let shard = (entry.lane as usize) % self.shards.len();
        self.shards[shard]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(entry);
        // A contained panic freezes the ring *after* being recorded, so
        // the trigger itself is the dump's last entry for its lane.
        if matches!(event, Event::PanicCaught { .. }) {
            self.freeze(event.kind());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::request_scope;

    /// Two non-trigger events of different kinds.
    const FILLER: Event = Event::GradientEval { dim: 2 };
    const OTHER: Event = Event::DrainStarted {
        in_flight: 1,
        queued: 2,
    };

    #[test]
    fn records_stamp_the_active_request_id() {
        let recorder = FlightRecorder::with_shape(2, 16);
        {
            let _scope = request_scope(42);
            recorder.record(FILLER);
        }
        recorder.record(OTHER);
        let entries = recorder.live_entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].request_id, 42);
        assert_eq!(entries[0].event, FILLER);
        assert_eq!(entries[1].request_id, 0, "scope closed");
    }

    #[test]
    fn panic_caught_freezes_and_first_trigger_wins() {
        let recorder = FlightRecorder::with_shape(1, 16);
        recorder.record(FILLER);
        assert!(!recorder.has_dump());
        recorder.record(Event::PanicCaught { context: "vehicle" });
        assert!(recorder.has_dump());
        recorder.record(Event::PanicCaught { context: "request" });
        let dump = recorder.take_dump().expect("frozen");
        assert_eq!(dump.trigger, "panic_caught", "first trigger wins");
        assert_eq!(dump.entries.len(), 2, "frozen before the later event");
        assert_eq!(
            dump.entries.last().map(|e| e.event),
            Some(Event::PanicCaught { context: "vehicle" }),
            "the trigger is the last frozen entry"
        );
        assert!(!recorder.has_dump(), "take_dump re-arms");
        recorder.record(Event::PanicCaught { context: "request" });
        assert_eq!(
            recorder.take_dump().map(|d| d.trigger),
            Some("panic_caught"),
            "re-armed recorder freezes on the next incident"
        );
    }

    #[test]
    fn ring_retention_is_bounded_per_shard() {
        let recorder = FlightRecorder::with_shape(1, 4);
        for _ in 0..10 {
            recorder.record(FILLER);
        }
        assert_eq!(recorder.live_entries().len(), 4);
    }

    #[test]
    fn dump_renders_as_jsonl_with_header() {
        let recorder = FlightRecorder::with_shape(1, 8);
        {
            let _scope = request_scope(7);
            recorder.record(Event::PanicCaught { context: "request" });
        }
        let jsonl = recorder.take_dump().expect("frozen").to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(
            lines[0],
            "{\"flight_dump\":true,\"trigger\":\"panic_caught\",\"entries\":1}"
        );
        assert!(lines[1].contains("\"request_id\":7"), "{jsonl}");
        assert!(
            lines[1].contains("\"event\":{\"event\":\"panic_caught\""),
            "{jsonl}"
        );
    }

    #[test]
    fn manual_freeze_uses_the_manual_trigger() {
        let recorder = FlightRecorder::new();
        recorder.record(FILLER);
        assert!(recorder.freeze("manual"));
        assert!(!recorder.freeze("manual"), "already frozen");
        assert_eq!(recorder.take_dump().map(|d| d.trigger), Some("manual"));
    }
}
