//! Structural invariants of an assembled [`TraceLog`].
//!
//! These are the checks the cross-layer test suite runs against real fleet
//! and cluster runs: every completed request has exactly one span tree
//! rooted at admission, children nest inside (in fact exactly tile) their
//! parents, spans on any capacity-1 resource never overlap (Fig. 12's
//! serialization claim, checked structurally), and per-request span
//! durations sum to the latency the metrics layer reports.
//!
//! Checks return `Err(String)` describing the first violation instead of
//! panicking, so test assertions print the story.

use sevf_sim::Nanos;

use crate::trace::{SpanKind, TraceLog};

/// `request` has exactly one root span, of kind [`SpanKind::Request`].
pub fn single_request_root(log: &TraceLog, request: usize) -> Result<(), String> {
    let roots: Vec<_> = log
        .spans
        .iter()
        .filter(|s| s.parent.is_none() && s.request == Some(request))
        .collect();
    match roots.as_slice() {
        [root] if root.kind == SpanKind::Request => Ok(()),
        [root] => Err(format!(
            "request {request}: root span {} has kind {:?}, not Request",
            root.id, root.kind
        )),
        [] => Err(format!("request {request}: no root span")),
        many => Err(format!("request {request}: {} root spans", many.len())),
    }
}

/// Every child span's interval nests inside its parent's.
pub fn spans_nest(log: &TraceLog) -> Result<(), String> {
    for span in &log.spans {
        if let Some(parent) = span.parent {
            let p = &log.spans[parent];
            if span.start < p.start || span.end > p.end {
                return Err(format!(
                    "span {} [{}, {}] escapes parent {} [{}, {}]",
                    span.id,
                    span.start.as_nanos(),
                    span.end.as_nanos(),
                    p.id,
                    p.start.as_nanos(),
                    p.end.as_nanos()
                ));
            }
        }
    }
    Ok(())
}

/// The children of every composite span exactly tile its interval: sorted
/// by start, the first child starts at the parent's start, each child
/// begins where the previous ended, and the last ends at the parent's end.
/// (This is strictly stronger than [`spans_nest`]; it is what makes leaf
/// durations sum to the root duration.)
pub fn children_tile(log: &TraceLog) -> Result<(), String> {
    let index = log.child_index();
    for (parent, children) in index.iter().enumerate() {
        if children.is_empty() {
            continue;
        }
        let p = &log.spans[parent];
        let mut kids: Vec<_> = children.iter().map(|&c| &log.spans[c]).collect();
        kids.sort_by_key(|s| (s.start, s.id));
        let mut cursor = p.start;
        for kid in &kids {
            if kid.start != cursor {
                return Err(format!(
                    "span {}: child {} starts at {} but previous sibling ended at {}",
                    parent,
                    kid.id,
                    kid.start.as_nanos(),
                    cursor.as_nanos()
                ));
            }
            cursor = kid.end;
        }
        if cursor != p.end {
            return Err(format!(
                "span {parent}: children end at {} but parent ends at {}",
                cursor.as_nanos(),
                p.end.as_nanos()
            ));
        }
    }
    Ok(())
}

/// No two [`SpanKind::Step`] spans on any resource whose name starts with
/// `prefix` overlap — the structural form of the paper's Fig. 12 claim
/// when `prefix` is `"psp"`: every launch command of every guest
/// serializes through the single PSP core.
pub fn capacity1_serialized(log: &TraceLog, prefix: &str) -> Result<(), String> {
    use std::collections::BTreeMap;
    let mut by_resource: BTreeMap<&str, Vec<(Nanos, Nanos, usize)>> = BTreeMap::new();
    for span in &log.spans {
        if span.kind != SpanKind::Step {
            continue;
        }
        if let Some(resource) = span.resource.as_deref() {
            if resource.starts_with(prefix) {
                by_resource
                    .entry(resource)
                    .or_default()
                    .push((span.start, span.end, span.id));
            }
        }
    }
    for (resource, mut intervals) in by_resource {
        intervals.sort();
        for pair in intervals.windows(2) {
            let (_, prev_end, prev_id) = pair[0];
            let (next_start, _, next_id) = pair[1];
            if next_start < prev_end {
                return Err(format!(
                    "{resource}: span {next_id} starts at {} before span {prev_id} ends at {}",
                    next_start.as_nanos(),
                    prev_end.as_nanos()
                ));
            }
        }
    }
    Ok(())
}

/// Sum of `request`'s leaf span durations. Because children tile their
/// parents, this equals the root span's duration — which must equal the
/// latency the metrics layer recorded for a completed request.
pub fn leaf_duration_sum(log: &TraceLog, request: usize) -> Nanos {
    log.leaves(request).iter().map(|s| s.duration()).sum()
}

/// Runs the whole battery for a set of completed requests with their
/// metrics-reported latencies: one root each, global nesting and tiling,
/// PSP serialization, and leaf-duration == reported latency per request.
pub fn check_completed(log: &TraceLog, completed: &[(usize, Nanos)]) -> Result<(), String> {
    spans_nest(log)?;
    children_tile(log)?;
    capacity1_serialized(log, "psp")?;
    for &(request, latency) in completed {
        single_request_root(log, request)?;
        let root = log
            .request_root(request)
            .ok_or_else(|| format!("request {request}: no root"))?;
        if root.duration() != latency {
            return Err(format!(
                "request {request}: root duration {} != reported latency {}",
                root.duration().as_nanos(),
                latency.as_nanos()
            ));
        }
        let leaf_sum = leaf_duration_sum(log, request);
        if leaf_sum != latency {
            return Err(format!(
                "request {request}: leaf durations sum to {} != latency {}",
                leaf_sum.as_nanos(),
                latency.as_nanos()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{build_on_engine, Outcome, Recorder, WorkStep};
    use sevf_sim::{PhaseKind, ResourceClass};

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    fn demo_log() -> TraceLog {
        let mut rec = Recorder::enabled();
        rec.arrival(0, "tiny", ms(0));
        let steps = vec![WorkStep::new(
            ResourceClass::Psp,
            PhaseKind::PreEncryption,
            "LAUNCH",
            ms(5),
        )];
        rec.launch(Some(0), 0, "tiny cold", None, steps.clone(), ms(0));
        rec.terminal(0, Outcome::Completed, ms(5));
        build_on_engine(rec, &[(ms(0), steps)])
    }

    #[test]
    fn clean_tree_passes_everything() {
        let log = demo_log();
        assert_eq!(single_request_root(&log, 0), Ok(()));
        assert_eq!(spans_nest(&log), Ok(()));
        assert_eq!(children_tile(&log), Ok(()));
        assert_eq!(capacity1_serialized(&log, "psp"), Ok(()));
        assert_eq!(leaf_duration_sum(&log, 0), ms(5));
        assert_eq!(check_completed(&log, &[(0, ms(5))]), Ok(()));
    }

    #[test]
    fn missing_request_fails_single_root() {
        let log = demo_log();
        assert!(single_request_root(&log, 99).is_err());
    }

    #[test]
    fn wrong_latency_is_reported() {
        let log = demo_log();
        let err = check_completed(&log, &[(0, ms(6))]).unwrap_err();
        assert!(err.contains("root duration"), "{err}");
    }

    #[test]
    fn overlapping_psp_spans_are_caught() {
        let mut log = demo_log();
        // The engine never runs two jobs on a capacity-1 resource at once,
        // so forge the overlap: a second copy of the psp step.
        let mut forged = log
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::Step)
            .unwrap()
            .clone();
        forged.id = log.spans.len();
        log.spans.push(forged);
        assert!(capacity1_serialized(&log, "psp").is_err());
        assert_eq!(capacity1_serialized(&log, "cpus"), Ok(()));
    }
}
