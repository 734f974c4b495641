//! Bench-side spans for the traced run, and what is computed from them.
//!
//! Each timed call into a library layer is wrapped in one me-trace span of
//! category [`CAT`] named after the layer (`linalg.pack_b`, `serve.submit`,
//! ...). Spans of one request or one GEMM carry a shared id as a
//! ` #<id>` suffix, so a request's submit and wait line up in the
//! timeline. Spans the library records itself (other categories) land in
//! the same Chrome export but are left out of the self-time accounting:
//! this benchmark only attributes time to the calls it makes.

use std::collections::BTreeMap;

use me_trace::{SpanGuard, Trace, TraceEvent};

/// Category of every span this benchmark records.
pub const CAT: &str = "bench";

/// A span named after a layer.
pub fn span(name: &'static str) -> SpanGuard {
    me_trace::span(name, CAT)
}

/// A span named after a layer, tagged with the id of the request or GEMM
/// it belongs to. The name is only formatted while tracing records.
pub fn span_id(name: &'static str, id: u64) -> SpanGuard {
    if me_trace::is_enabled() {
        me_trace::span_owned(format!("{name} #{id}"), CAT)
    } else {
        me_trace::span(name, CAT)
    }
}

/// The layer a bench span belongs to: its name without the id suffix.
pub fn layer_of(event: &TraceEvent) -> &str {
    let name = event.name.as_ref();
    name.split_once(" #").map_or(name, |(layer, _)| layer)
}

/// Per-layer totals from one traced snapshot.
#[derive(Debug, Default)]
pub struct Layers {
    /// Layer → (self time in ns, call count).
    pub self_ns: BTreeMap<String, (u64, u64)>,
    /// Layer → every span duration in ns, in record order.
    pub durations: BTreeMap<String, Vec<u64>>,
}

impl Layers {
    /// Durations of one layer's spans in milliseconds.
    pub fn ms(&self, layer: &str) -> Vec<f64> {
        self.durations
            .get(layer)
            .map_or_else(Vec::new, |d| d.iter().map(|&ns| ns as f64 / 1e6).collect())
    }
}

/// Self time of every bench span: its duration minus the part covered by
/// its bench children on the same thread. Bench spans are RAII guards, so
/// on one thread they nest strictly and a child's interval lies inside its
/// parent's.
pub fn self_times(trace: &Trace) -> Layers {
    let mut lanes: BTreeMap<u32, Vec<&TraceEvent>> = BTreeMap::new();
    for e in trace
        .events
        .iter()
        .filter(|e| e.cat == CAT && !e.virtual_lane)
    {
        lanes.entry(e.tid).or_default().push(e);
    }
    let mut layers = Layers::default();
    for events in lanes.values_mut() {
        // Parents first: earlier start, then the longer span.
        events.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(b.dur_ns.cmp(&a.dur_ns)));
        let mut self_ns: Vec<u64> = events.iter().map(|e| e.dur_ns).collect();
        let mut stack: Vec<usize> = Vec::new();
        for (i, e) in events.iter().enumerate() {
            while let Some(&top) = stack.last() {
                let p = events[top];
                if e.start_ns >= p.start_ns + p.dur_ns {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&parent) = stack.last() {
                let p = events[parent];
                let covered = (e.start_ns + e.dur_ns).min(p.start_ns + p.dur_ns) - e.start_ns;
                self_ns[parent] = self_ns[parent].saturating_sub(covered);
            }
            stack.push(i);
        }
        for (e, s) in events.iter().zip(self_ns) {
            let layer = layer_of(e).to_string();
            let slot = layers.self_ns.entry(layer.clone()).or_default();
            slot.0 += s;
            slot.1 += 1;
            layers.durations.entry(layer).or_default().push(e.dur_ns);
        }
    }
    layers
}

/// How far the self times of the bench spans on the lanes that recorded
/// `root` spans fall from the wall time of those roots:
/// |Σ self − Σ root durations| / Σ root durations. Zero when the nesting
/// accounts for every nanosecond; a span that escaped its parent shows up
/// here.
pub fn reconcile_err(trace: &Trace, roots: &[&str]) -> f64 {
    let is_root = |e: &&TraceEvent| e.cat == CAT && roots.contains(&layer_of(e));
    let root_lanes: Vec<u32> = trace.events.iter().filter(is_root).map(|e| e.tid).collect();
    let wall: u64 = trace.events.iter().filter(is_root).map(|e| e.dur_ns).sum();
    let lanes = Trace {
        events: trace
            .events
            .iter()
            .filter(|e| root_lanes.contains(&e.tid))
            .cloned()
            .collect(),
        ..Trace::default()
    };
    let total_self: u64 = self_times(&lanes).self_ns.values().map(|&(s, _)| s).sum();
    (total_self as f64 - wall as f64).abs() / (wall as f64).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn ev(name: &str, tid: u32, start_ns: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent {
            name: Cow::Owned(name.to_string()),
            cat: CAT,
            tid,
            virtual_lane: false,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let trace = Trace {
            events: vec![
                ev("root", 0, 0, 100),
                ev("a #1", 0, 10, 50),
                ev("b #1", 0, 20, 10),
                ev("a #2", 0, 70, 20),
                ev("root", 1, 5, 40),
                ev("c", 1, 5, 40),
            ],
            ..Trace::default()
        };
        let l = self_times(&trace);
        assert_eq!(l.self_ns["root"], (100 - 50 - 20, 2));
        assert_eq!(l.self_ns["a"], (50 - 10 + 20, 2));
        assert_eq!(l.self_ns["b"], (10, 1));
        assert_eq!(l.self_ns["c"], (40, 1));
        assert_eq!(reconcile_err(&trace, &["root"]), 0.0);
    }

    #[test]
    fn escaped_child_breaks_reconciliation() {
        // A child that outlives its parent is not covered by it.
        let trace = Trace {
            events: vec![ev("root", 0, 0, 100), ev("a", 0, 90, 30)],
            ..Trace::default()
        };
        assert_eq!(self_times(&trace).self_ns["root"], (90, 1));
        assert!((reconcile_err(&trace, &["root"]) - 0.2).abs() < 1e-12);
    }
}
