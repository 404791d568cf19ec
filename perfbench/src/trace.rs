//! Per-layer accounting from the program's existing spans and events,
//! read through the public `Sink` trait — nothing is added inside the
//! program.

use otem_telemetry::{Event, Sink};
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

/// Time and count of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    /// Spans closed.
    pub count: u64,
    /// Σ duration, ns.
    pub total_ns: u64,
    /// Σ duration minus the part covered by child spans, ns.
    pub self_ns: u64,
}

struct Open {
    id: u64,
    name: &'static str,
    child_ns: u64,
}

#[derive(Default)]
struct State {
    /// Open spans per lane (thread), outermost first.
    stacks: HashMap<u64, Vec<Open>>,
    spans: BTreeMap<&'static str, SpanTotals>,
    /// `rollout` spans whose parent is `line_search`.
    line_search_rollouts: u64,
    /// Objective evaluations outside a gradient (line search and the
    /// solve's initial value), one plant rollout each.
    value_rollouts: u64,
    /// Gradient evaluations and Σ dimension of the solve in progress.
    pending_gradients: u64,
    pending_dims: u64,
    /// Plant rollouts spent on gradients, counted once the solve's
    /// gradient mode is known.
    gradient_rollouts: u64,
    solves: u64,
    iterations: u64,
    outcomes: BTreeMap<&'static str, u64>,
}

/// A sink that folds span events into per-name totals (with self time)
/// and solver events into work counts.
#[derive(Default)]
pub struct LayerSink {
    state: Mutex<State>,
}

/// What a traced pass measured inside the solver.
#[derive(Debug, Clone, Default)]
pub struct SolverCounts {
    /// Span totals by span name.
    pub spans: BTreeMap<&'static str, SpanTotals>,
    /// MPC solves.
    pub solves: u64,
    /// Outer solver iterations.
    pub iterations: u64,
    /// Plant rollouts (objective evaluations plus gradient rollouts).
    pub rollouts: u64,
    /// Rollouts spent in line searches.
    pub line_search_rollouts: u64,
    /// Solves by outcome name.
    pub outcomes: BTreeMap<&'static str, u64>,
}

impl LayerSink {
    /// The accumulated counts.
    pub fn counts(&self) -> SolverCounts {
        let s = self.state.lock().expect("layer sink poisoned");
        SolverCounts {
            spans: s.spans.clone(),
            solves: s.solves,
            iterations: s.iterations,
            rollouts: s.value_rollouts + s.gradient_rollouts,
            line_search_rollouts: s.line_search_rollouts,
            outcomes: s.outcomes.clone(),
        }
    }
}

impl Sink for LayerSink {
    fn record(&self, event: Event) {
        let mut s = self.state.lock().expect("layer sink poisoned");
        match event {
            Event::SpanStart { id, name, lane, .. } => {
                if name == "rollout" {
                    let parent = s.stacks.get(&lane).and_then(|st| st.last()).map(|o| o.name);
                    if parent == Some("line_search") {
                        s.line_search_rollouts += 1;
                    }
                    // A rollout span under `gradient` covers the whole
                    // gradient evaluation; those are counted from
                    // `GradientEval` below.
                    if parent != Some("gradient") {
                        s.value_rollouts += 1;
                    }
                }
                s.stacks.entry(lane).or_default().push(Open {
                    id,
                    name,
                    child_ns: 0,
                });
            }
            Event::SpanEnd {
                id, lane, dur_ns, ..
            } => {
                let stack = s.stacks.entry(lane).or_default();
                let Some(open) = stack.pop() else { return };
                debug_assert_eq!(open.id, id, "spans close innermost first");
                if let Some(parent) = stack.last_mut() {
                    parent.child_ns += dur_ns;
                }
                let totals = s.spans.entry(open.name).or_default();
                totals.count += 1;
                totals.total_ns += dur_ns;
                totals.self_ns += dur_ns.saturating_sub(open.child_ns);
            }
            Event::GradientEval { dim, .. } => {
                s.pending_gradients += 1;
                s.pending_dims += dim;
            }
            Event::SolveOutcome {
                outcome,
                mode,
                iterations,
            } => {
                // Finite differences spend two rollouts per coordinate
                // (central differences); the adjoint and Gauss-Newton
                // modes one taped rollout per gradient.
                s.gradient_rollouts += match mode {
                    "serial" => 2 * s.pending_dims,
                    _ => s.pending_gradients,
                };
                s.pending_gradients = 0;
                s.pending_dims = 0;
                s.solves += 1;
                s.iterations += iterations;
                *s.outcomes.entry(outcome).or_default() += 1;
            }
            _ => {}
        }
    }
}
