//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from the benchmark's files, around the public calls
//! into each layer; nothing inside the crates is instrumented. A span
//! carries a name, start, end, the span that caused it and the id of the op
//! it belongs to. They stay in memory and are written out once, as Chrome
//! `trace_event` JSON, when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Value;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What ran (`"vmm.boot"`, `"cluster.run"`, ...).
    pub name: String,
    /// Start, ns since the tracer's epoch.
    pub start: u64,
    /// End, ns since the tracer's epoch.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op (boot, repetition) this span belongs to.
    pub op: u64,
}

impl Span {
    /// `end - start`.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Handle returned by [`Tracer::begin`]; pass it to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// The recorder. A disabled tracer records nothing and costs one branch
/// per call, so the untraced pass runs the very same code.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations (ns).
    pub total: u64,
    /// Sum of their self times (ns).
    pub self_time: u64,
}

impl Tracer {
    /// A tracer that records.
    pub fn enabled() -> Self {
        Tracer {
            epoch: Instant::now(),
            on: true,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// A tracer that does not.
    pub fn disabled() -> Self {
        Tracer {
            on: false,
            ..Tracer::enabled()
        }
    }

    /// Sets the op id stamped on spans begun from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Closes a span (and any span left open inside it).
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.now();
        while let Some(open) = self.stack.pop() {
            self.spans[open].end = now;
            if open == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// The recorded spans, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<String, NameTotals> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
        for (span, self_time) in self.spans.iter().zip(selfs) {
            let t = out.entry(span.name.clone()).or_insert(NameTotals {
                count: 0,
                total: 0,
                self_time: 0,
            });
            t.count += 1;
            t.total += span.duration();
            t.self_time += self_time;
        }
        out
    }

    /// The spans as a Chrome `trace_event` document (`chrome://tracing`,
    /// Perfetto). The category of a span is the part of its name before the
    /// first dot — its layer.
    pub fn chrome_trace(&self) -> Value {
        let events: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let layer = s.name.split('.').next().unwrap_or("");
                let mut args = Value::obj().with("id", id).with("op", s.op);
                if let Some(parent) = s.parent {
                    args = args.with("parent", parent);
                }
                Value::obj()
                    .with("name", s.name.as_str())
                    .with("cat", layer)
                    .with("ph", "X")
                    .with("ts", s.start as f64 / 1e3)
                    .with("dur", s.duration() as f64 / 1e3)
                    .with("pid", 1u64)
                    .with("tid", 1u64)
                    .with("args", args)
            })
            .collect();
        Value::obj()
            .with("displayTimeUnit", "ms")
            .with("traceEvents", events)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent and
/// overlapping children are counted once (interval union), so a parent's
/// self time never goes negative.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|p| *p < spans.len()) {
            let start = s.start.max(spans[p].start);
            let end = s.end.min(spans[p].end);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            s.duration() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 40]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),  // overlaps a on 40..60
            span("c", 45, 55, Some(0)),  // inside both
            span("d", 90, 130, Some(0)), // runs past the parent: clipped
            span("e", 20, 25, Some(1)),  // grandchild only counts for a
        ];
        // union of children inside root: 10..80 and 90..100 = 80
        assert_eq!(self_times(&spans)[0], 20);
        assert_eq!(self_times(&spans)[1], 45);
    }

    #[test]
    fn recorder_nests_and_stamps_ops() {
        let mut t = Tracer::enabled();
        t.set_op(7);
        let outer = t.begin("workload.rep");
        let got = t.span("vmm.boot", || 41 + 1);
        t.end(outer);
        assert_eq!(got, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 7);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let totals = t.totals();
        assert_eq!(totals["vmm.boot"].count, 1);
        assert_eq!(
            totals["workload.rep"].self_time,
            spans[0].duration() - spans[1].duration()
        );
    }

    #[test]
    fn ending_an_outer_span_closes_what_is_left_open_inside() {
        let mut t = Tracer::enabled();
        let outer = t.begin("outer");
        let _leaked = t.begin("inner");
        t.end(outer);
        assert!(t.spans().iter().all(|s| s.end >= s.start));
        let next = t.begin("next");
        t.end(next);
        assert_eq!(t.spans()[2].parent, None);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let id = t.begin("x");
        t.end(id);
        assert_eq!(t.span("y", || 3), 3);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let mut t = Tracer::enabled();
        t.span("psp.launch_update", || ());
        let doc = t.chrome_trace();
        let text = doc.render();
        let parsed = Value::parse(&text).unwrap();
        let events = parsed.get("traceEvents").unwrap().items();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(events[0].get("cat").and_then(Value::as_str), Some("psp"));
        assert!(events[0].get("dur").and_then(Value::as_f64).is_some());
    }
}
