//! Deterministic exporters over [`TraceLog`] and [`Registry`].
//!
//! Three formats, all pure functions of their input (no clocks, no
//! randomness, `BTreeMap` iteration underneath) so a seeded run exports
//! byte-identically every time:
//!
//! - [`chrome_trace_json`]: Chrome `trace_event` complete-event (`"ph":
//!   "X"`) JSON, loadable in `chrome://tracing` / Perfetto for
//!   flamegraph-style inspection. Virtual nanoseconds map to trace
//!   microseconds with three decimal places, so the virtual clock reads
//!   directly off the ruler.
//! - [`prometheus_text`]: Prometheus text exposition of a [`Registry`] —
//!   counters, gauges, and cumulative `_bucket`/`_sum`/`_count` rows per
//!   histogram.
//! - [`critical_path`] / [`phase_breakdown`]: per-request summaries. The
//!   leaves of a request's span tree partition its latency exactly, so the
//!   slices (and the per-phase rollup) sum to the reported latency to the
//!   nanosecond.

use std::fmt::Write as _;

use sevf_sim::Nanos;

use crate::metrics::Registry;
use crate::trace::{SpanKind, SpanRec, TraceLog};

/// Escapes `s` for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Virtual nanoseconds as trace-event microseconds with fixed precision
/// ("1234.567"), so ordering survives the decimal rendering exactly.
fn micros(ns: Nanos) -> String {
    let n = ns.as_nanos();
    format!("{}.{:03}", n / 1_000, n % 1_000)
}

fn chrome_event(span: &SpanRec, out: &mut String) {
    // One virtual thread per request keeps each tree on its own track;
    // background refills share a "bg" track per host.
    let tid = match span.request {
        Some(r) => r as i64,
        None => -1 - span.host.unwrap_or(0) as i64,
    };
    let pid = span.host.map(|h| h as i64).unwrap_or(0);
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{}",
        json_escape(&span.name),
        span.kind.name(),
        micros(span.start),
        micros(span.duration()),
        pid,
        tid
    );
    let mut args = Vec::new();
    args.push(format!("\"span\":{}", span.id));
    if let Some(parent) = span.parent {
        args.push(format!("\"parent\":{parent}"));
    }
    if let Some(phase) = span.phase {
        args.push(format!("\"phase\":\"{}\"", json_escape(phase.label())));
    }
    if let Some(resource) = &span.resource {
        args.push(format!("\"resource\":\"{}\"", json_escape(resource)));
    }
    let _ = write!(out, ",\"args\":{{{}}}}}", args.join(","));
}

/// Renders the whole log as a Chrome `trace_event` JSON array (complete
/// events in span-id order, then instant events for the markers).
pub fn chrome_trace_json(log: &TraceLog) -> String {
    let mut out = String::from("[");
    let mut first = true;
    for span in &log.spans {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        chrome_event(span, &mut out);
    }
    for marker in &log.markers {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        let tid = match marker.request {
            Some(r) => r as i64,
            None => -1 - marker.host.unwrap_or(0) as i64,
        };
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"marker\",\"ph\":\"i\",\"ts\":{},\"pid\":{},\"tid\":{},\"s\":\"t\"}}",
            json_escape(&marker.kind.name()),
            micros(marker.at),
            marker.host.map(|h| h as i64).unwrap_or(0),
            tid
        );
    }
    out.push_str("\n]\n");
    out
}

/// Prometheus text exposition of every counter, gauge, and histogram in
/// `registry`. Histograms emit cumulative `_bucket{le="..."}` rows (one
/// per non-empty prefix plus `+Inf`), `_sum`, and `_count`.
pub fn prometheus_text(registry: &Registry) -> String {
    let mut out = String::new();
    for (name, value) in registry.counters() {
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, value) in registry.gauges() {
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, hist) in registry.histograms() {
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for (i, count) in hist.counts().iter().enumerate() {
            cumulative += count;
            let edge = (i + 1) as f64 * hist.width();
            let _ = writeln!(out, "{name}_bucket{{le=\"{edge}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", hist.count());
        let _ = writeln!(out, "{name}_sum {}", hist.sum());
        let _ = writeln!(out, "{name}_count {}", hist.count());
    }
    out
}

/// One leaf of a request's critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSlice {
    /// Phase bucket the slice rolls up under ("Pre-encryption", "queue
    /// wait", "backoff", ...).
    pub phase: String,
    /// The leaf span's own name (PSP command, wait reason, ...).
    pub name: String,
    /// When the slice started, on the virtual clock.
    pub start: Nanos,
    /// How long it took.
    pub duration: Nanos,
}

/// Phase bucket a leaf span rolls up under.
fn slice_phase(span: &SpanRec) -> String {
    match span.kind {
        SpanKind::Step => span
            .phase
            .map(|p| p.label().to_string())
            .unwrap_or_else(|| span.name.clone()),
        SpanKind::Backoff => "backoff".to_string(),
        SpanKind::Wait => {
            if span.name == "queue wait" {
                "queue wait".to_string()
            } else {
                "resource wait".to_string()
            }
        }
        _ => span.name.clone(),
    }
}

/// The request's critical path: its leaf spans in start order. Because
/// children tile their parents, the slice durations sum to the request's
/// latency exactly.
pub fn critical_path(log: &TraceLog, request: usize) -> Vec<PathSlice> {
    log.leaves(request)
        .iter()
        .map(|span| PathSlice {
            phase: slice_phase(span),
            name: span.name.clone(),
            start: span.start,
            duration: span.duration(),
        })
        .collect()
}

/// Rolls [`critical_path`] up by phase bucket, preserving first-seen
/// order along the path. The durations still sum to the latency exactly.
pub fn phase_breakdown(log: &TraceLog, request: usize) -> Vec<(String, Nanos)> {
    let mut order: Vec<String> = Vec::new();
    let mut totals: std::collections::BTreeMap<String, Nanos> = std::collections::BTreeMap::new();
    for slice in critical_path(log, request) {
        if !totals.contains_key(&slice.phase) {
            order.push(slice.phase.clone());
        }
        *totals.entry(slice.phase).or_insert(Nanos::ZERO) += slice.duration;
    }
    order
        .into_iter()
        .map(|phase| {
            let total = totals[&phase];
            (phase, total)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use crate::trace::{build_on_engine, Outcome, Recorder, WorkStep};
    use sevf_sim::{PhaseKind, ResourceClass};

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    fn demo_log() -> TraceLog {
        let mut rec = Recorder::enabled();
        rec.arrival(0, "tiny", ms(0));
        let steps = vec![
            WorkStep::new(
                ResourceClass::Psp,
                PhaseKind::PreEncryption,
                "LAUNCH_START",
                ms(2),
            ),
            WorkStep::new(ResourceClass::HostCpu, PhaseKind::LinuxBoot, "boot", ms(3)),
        ];
        rec.launch(Some(0), 0, "tiny cold", None, steps.clone(), ms(1));
        rec.terminal(0, Outcome::Completed, ms(6));
        build_on_engine(rec, &[(ms(1), steps)])
    }

    #[test]
    fn chrome_export_is_deterministic_and_balanced() {
        let log = demo_log();
        let a = chrome_trace_json(&log);
        let b = chrome_trace_json(&log);
        assert_eq!(a, b);
        assert!(a.starts_with('['));
        assert!(a.trim_end().ends_with(']'));
        assert_eq!(
            a.matches("\"ph\":\"X\"").count(),
            log.spans.len(),
            "one complete event per span"
        );
        assert!(a.contains("\"name\":\"LAUNCH_START\""));
    }

    #[test]
    fn micros_renders_nanosecond_precision() {
        assert_eq!(micros(Nanos::from_nanos(1_234_567)), "1234.567");
        assert_eq!(micros(Nanos::from_nanos(7)), "0.007");
    }

    #[test]
    fn json_escape_handles_controls_and_quotes() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn critical_path_sums_to_latency() {
        let log = demo_log();
        let path = critical_path(&log, 0);
        let total: Nanos = path.iter().map(|s| s.duration).sum();
        assert_eq!(total, ms(6), "slices partition the request latency");
        // wait before attempt + two steps (psp step starts at occupancy).
        assert!(path.iter().any(|s| s.phase == "Pre-encryption"));
        let breakdown = phase_breakdown(&log, 0);
        let rolled: Nanos = breakdown.iter().map(|(_, d)| *d).sum();
        assert_eq!(rolled, ms(6));
    }

    #[test]
    fn prometheus_text_emits_cumulative_buckets() {
        let mut reg = Registry::new();
        reg.inc("launches_total", 3);
        reg.set_gauge("queue_depth", 2.0);
        reg.observe("latency_ms", 10.0, 5.0);
        reg.observe("latency_ms", 10.0, 25.0);
        let text = prometheus_text(&reg);
        assert!(text.contains("# TYPE launches_total counter"));
        assert!(text.contains("launches_total 3"));
        assert!(text.contains("# TYPE queue_depth gauge"));
        assert!(text.contains("latency_ms_bucket{le=\"10\"} 1"));
        assert!(text.contains("latency_ms_bucket{le=\"30\"} 2"));
        assert!(text.contains("latency_ms_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("latency_ms_count 2"));
        assert_eq!(text, prometheus_text(&reg), "byte-stable");
    }
}
