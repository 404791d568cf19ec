//! Hierarchical timed spans: *where the time went*, not just what
//! happened.
//!
//! A span is a named interval on a monotonic clock. Spans nest through
//! a thread-local stack — opening a span while another is open makes it
//! a child — and every open/close pair is emitted to the [`Sink`] as
//! [`Event::SpanStart`] / [`Event::SpanEnd`], so any sink (memory,
//! JSONL, Chrome trace) sees a complete, balanced, properly nested
//! timeline per thread.
//!
//! # The zero-cost contract, extended
//!
//! [`span`] checks [`Sink::enabled`] first: with a `NullSink` the guard
//! is inert — no clock read, no id allocation, no stack push, no event.
//! The parity suite pins that an instrumented run over a `NullSink`
//! stays bit-identical and allocation-identical to the uninstrumented
//! one.
//!
//! # Clock and identity
//!
//! Timestamps are nanoseconds on a process-wide monotonic epoch (the
//! first clock read; `u64` nanoseconds overflow after ~584 years). Span
//! ids come from one process-wide atomic so they are unique across
//! threads; each OS thread draws a *lane* id once, which becomes the
//! `tid` of Chrome-trace output, so concurrent workers (fleet shards,
//! server threads) render as separate timeline rows.
//!
//! # Drop order
//!
//! Guards close on drop. Dropping guards out of order (an outer guard
//! before an inner one it scopes) closes the abandoned inner spans
//! first, innermost first, so the emitted stream is *always* balanced
//! and properly nested per lane no matter what the caller does.
//! Guards are `!Send`: a span must close on the thread that opened it.
//!
//! ```
//! use otem_telemetry::{span, MemorySink};
//!
//! let sink = MemorySink::new();
//! {
//!     let _solve = span(&sink, "mpc_solve");
//!     let _grad = span(&sink, "gradient");
//! } // both close here, "gradient" first
//! assert_eq!(sink.count_kind("span_start"), 2);
//! assert_eq!(sink.count_kind("span_end"), 2);
//! ```

use crate::event::Event;
use crate::sink::Sink;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The process-wide monotonic epoch: set on the first clock read.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Process-wide span id allocator. 0 is reserved as "no parent".
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Process-wide lane (timeline row) allocator.
static NEXT_LANE: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Each OS thread draws its lane once, on first use.
    static LANE: u64 = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
    /// The open spans of this thread, outermost first.
    static STACK: RefCell<Vec<OpenSpan>> = const { RefCell::new(Vec::new()) };
}

/// One open span on a thread's stack.
struct OpenSpan {
    id: u64,
    name: &'static str,
    start_ns: u64,
}

/// Nanoseconds since the process-wide monotonic epoch.
pub(crate) fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// This thread's lane id (the `tid` of Chrome-trace output).
pub(crate) fn lane() -> u64 {
    LANE.with(|l| *l)
}

/// A named span definition — a `const`-constructible handle that can be
/// entered many times.
///
/// ```
/// use otem_telemetry::{MemorySink, Span};
///
/// const SOLVE: Span = Span::new("mpc_solve");
/// let sink = MemorySink::new();
/// let guard = SOLVE.enter(&sink);
/// guard.close();
/// assert_eq!(sink.count_kind("span_end"), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    name: &'static str,
}

impl Span {
    /// A span definition with the given stable snake_case name.
    pub const fn new(name: &'static str) -> Self {
        Self { name }
    }

    /// The span's name.
    pub const fn name(&self) -> &'static str {
        self.name
    }

    /// Opens this span on `sink` (see [`span`]).
    pub fn enter<'a>(&self, sink: &'a dyn Sink) -> SpanGuard<'a> {
        span(sink, self.name)
    }
}

/// Opens a named span: records [`Event::SpanStart`] (parented to the
/// innermost span already open on this thread) and returns a guard that
/// records [`Event::SpanEnd`] on drop.
///
/// When `sink` is disabled ([`Sink::enabled`] is `false`) the returned
/// guard is inert: no clock read, no id, no stack traffic, no events —
/// the zero-cost path for `NullSink`.
pub fn span<'a>(sink: &'a dyn Sink, name: &'static str) -> SpanGuard<'a> {
    if !sink.enabled() {
        return SpanGuard {
            sink: None,
            id: 0,
            _not_send: PhantomData,
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let t_ns = now_ns();
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().map_or(0, |open| open.id);
        s.push(OpenSpan {
            id,
            name,
            start_ns: t_ns,
        });
        parent
    });
    sink.record(Event::SpanStart {
        id,
        parent,
        name,
        lane: lane(),
        t_ns,
    });
    SpanGuard {
        sink: Some(sink),
        id,
        _not_send: PhantomData,
    }
}

/// RAII guard for an open span: records [`Event::SpanEnd`] when
/// dropped.
///
/// `!Send` by construction — a span closes on the thread that opened
/// it, which is what keeps per-lane streams balanced.
pub struct SpanGuard<'a> {
    /// `None` for the inert (disabled-sink) guard.
    sink: Option<&'a dyn Sink>,
    id: u64,
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard<'_> {
    /// The span id carried by this guard (0 for an inert guard).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// `true` when this guard actually tracks an open span (the sink
    /// was enabled at open time).
    pub fn is_active(&self) -> bool {
        self.sink.is_some()
    }

    /// Closes the span now (equivalent to dropping the guard; reads
    /// better at call sites that end a phase mid-function).
    pub fn close(self) {}
}

impl std::fmt::Debug for SpanGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanGuard")
            .field("id", &self.id)
            .field("active", &self.sink.is_some())
            .finish()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(sink) = self.sink else { return };
        let id = self.id;
        // Pop from the top of the stack down to (and including) our own
        // entry, emitting an End for each — abandoned inner spans close
        // innermost first, so the stream stays balanced and nested even
        // under out-of-order drops. If our id is gone an outer guard
        // already closed us: nothing to do. Events are recorded outside
        // the RefCell borrow so a sink can never re-enter the stack
        // mid-mutation.
        loop {
            let popped = STACK.with(|s| {
                let mut s = s.borrow_mut();
                if s.iter().any(|open| open.id == id) {
                    s.pop()
                } else {
                    None
                }
            });
            let Some(open) = popped else { break };
            let t_ns = now_ns();
            sink.record(Event::SpanEnd {
                id: open.id,
                name: open.name,
                lane: lane(),
                t_ns,
                dur_ns: t_ns.saturating_sub(open.start_ns),
            });
            if open.id == id {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{MemorySink, NullSink};

    fn spans_of(sink: &MemorySink) -> Vec<Event> {
        sink.events()
            .into_iter()
            .filter(|e| matches!(e, Event::SpanStart { .. } | Event::SpanEnd { .. }))
            .collect()
    }

    #[test]
    fn nested_spans_parent_and_balance() {
        let sink = MemorySink::new();
        {
            let outer = span(&sink, "outer");
            assert!(outer.is_active());
            let inner = span(&sink, "inner");
            match sink.events()[1] {
                Event::SpanStart { parent, .. } => assert_eq!(parent, outer.id()),
                ref other => panic!("expected SpanStart, got {other:?}"),
            }
            drop(inner);
            drop(outer);
        }
        let events = spans_of(&sink);
        assert_eq!(events.len(), 4);
        // inner closes before outer.
        match (&events[2], &events[3]) {
            (Event::SpanEnd { name: a, .. }, Event::SpanEnd { name: b, .. }) => {
                assert_eq!(*a, "inner");
                assert_eq!(*b, "outer");
            }
            other => panic!("expected two SpanEnds, got {other:?}"),
        }
    }

    #[test]
    fn out_of_order_drop_closes_abandoned_children_first() {
        let sink = MemorySink::new();
        let outer = span(&sink, "outer");
        let inner = span(&sink, "inner");
        drop(outer); // closes inner, then outer
        let events = spans_of(&sink);
        assert_eq!(events.len(), 4);
        match (&events[2], &events[3]) {
            (Event::SpanEnd { name: a, .. }, Event::SpanEnd { name: b, .. }) => {
                assert_eq!(*a, "inner");
                assert_eq!(*b, "outer");
            }
            other => panic!("expected two SpanEnds, got {other:?}"),
        }
        drop(inner); // already closed: must be a no-op
        assert_eq!(spans_of(&sink).len(), 4);
    }

    #[test]
    fn disabled_sink_yields_inert_guard() {
        let guard = span(&NullSink, "anything");
        assert!(!guard.is_active());
        assert_eq!(guard.id(), 0);
        drop(guard);
        // And the thread-local stack saw nothing: a following real span
        // on an enabled sink is a root.
        let sink = MemorySink::new();
        let g = span(&sink, "root");
        match sink.events()[0] {
            Event::SpanStart { parent, .. } => assert_eq!(parent, 0),
            ref other => panic!("expected SpanStart, got {other:?}"),
        }
        g.close();
    }

    #[test]
    fn durations_are_monotone_and_end_after_start() {
        let sink = MemorySink::new();
        let g = span(&sink, "timed");
        std::thread::sleep(std::time::Duration::from_millis(1));
        drop(g);
        let events = spans_of(&sink);
        match (&events[0], &events[1]) {
            (
                Event::SpanStart {
                    t_ns: t0, id: i0, ..
                },
                Event::SpanEnd {
                    t_ns: t1,
                    dur_ns,
                    id: i1,
                    ..
                },
            ) => {
                assert_eq!(i0, i1);
                assert!(t1 >= t0);
                assert_eq!(*dur_ns, t1 - t0);
                assert!(*dur_ns >= 1_000_000, "slept 1ms, got {dur_ns}ns");
            }
            other => panic!("expected Start/End, got {other:?}"),
        }
    }

    #[test]
    fn lanes_are_distinct_across_threads() {
        let sink = MemorySink::new();
        let here = {
            let g = span(&sink, "main");
            let id = g.id();
            drop(g);
            id
        };
        std::thread::scope(|scope| {
            scope.spawn(|| {
                span(&sink, "worker").close();
            });
        });
        let lanes: Vec<u64> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::SpanStart { lane, .. } => Some(*lane),
                _ => None,
            })
            .collect();
        assert_eq!(lanes.len(), 2);
        assert_ne!(lanes[0], lanes[1], "threads must get distinct lanes");
        assert!(here > 0);
    }

    #[test]
    fn const_span_definitions_reenter() {
        const PHASE: Span = Span::new("phase");
        assert_eq!(PHASE.name(), "phase");
        let sink = MemorySink::new();
        PHASE.enter(&sink).close();
        PHASE.enter(&sink).close();
        assert_eq!(sink.count_kind("span_start"), 2);
        assert_eq!(sink.count_kind("span_end"), 2);
    }
}
