//! Span recording over the shared virtual clock, and causal trace assembly.
//!
//! The serving layers (`sevf-fleet`, `sevf-cluster`) narrate a run into a
//! [`Recorder`] as it executes: request arrivals, queueing, launch-attempt
//! dispatches with their planned [`WorkStep`]s, retry backoffs, terminal
//! outcomes, and point markers (faults, failovers, placement decisions).
//! After the DES run finishes, the caller feeds the engine's resource
//! occupancy back in ([`Recorder::occupy`]) and calls [`Recorder::build`],
//! which assembles one causal span tree per request:
//!
//! ```text
//! request ── queue wait ── attempt ──┬── wait psp
//!                                    ├── SNP_LAUNCH_START   (psp)
//!                                    ├── LAUNCH_UPDATE_DATA (psp)
//!                                    └── attestation rtt    (network)
//!         ── backoff #1 ── attempt ── ...
//! ```
//!
//! The children of every composite span tile its interval exactly — waits
//! are materialized, nothing overlaps — so per-request span durations sum
//! to precisely the latency the metrics layer reports. The structural
//! invariants this buys are checked by [`crate::invariants`].
//!
//! A disabled recorder ([`Recorder::disabled`]) is a `None`: every method
//! returns immediately, no allocation, no clock reads — the fault-free
//! serving path replays byte-identically with recording off.

use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};

use sevf_sim::fault::FaultKind;
use sevf_sim::{Nanos, PhaseKind, ResourceClass};

/// One planned unit of work inside a launch attempt: which resource class
/// it occupies, which boot phase it belongs to, and for how long.
///
/// `sevf-fleet` blueprints are sequences of these; the recorder matches
/// resource-bound steps against the engine's occupancy entries to place
/// them on the clock (network steps are pure delays and self-place).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkStep {
    /// Host resource class the step occupies.
    pub class: ResourceClass,
    /// Boot phase the step belongs to (drives per-phase breakdowns).
    pub phase: PhaseKind,
    /// Human-readable description (PSP command, boot stage, ...): borrowed
    /// when it is a constant, so a per-dispatch step allocates nothing.
    pub label: Cow<'static, str>,
    /// Planned duration of the step.
    pub duration: Nanos,
}

impl WorkStep {
    /// Builds a step.
    pub fn new(
        class: ResourceClass,
        phase: PhaseKind,
        label: impl Into<Cow<'static, str>>,
        duration: Nanos,
    ) -> Self {
        WorkStep {
            class,
            phase,
            label: label.into(),
            duration,
        }
    }
}

/// Terminal state of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served to completion.
    Completed,
    /// Shed by admission (queue full or unroutable).
    Shed,
    /// Shed past the bottom of the degradation ladder.
    BreakerShed,
    /// Shed on deadline.
    Timeout,
    /// Permanently failed after exhausting retries.
    Failed,
    /// Turned away by the policy engine (quota / isolation / posture)
    /// before consuming any PSP work.
    Rejected,
}

impl Outcome {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Completed => "completed",
            Outcome::Shed => "shed",
            Outcome::BreakerShed => "breaker-shed",
            Outcome::Timeout => "timeout",
            Outcome::Failed => "failed",
            Outcome::Rejected => "rejected",
        }
    }
}

/// A point event on the clock, outside the span hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkerKind {
    /// An injected fault struck.
    Fault(FaultKind),
    /// A request was displaced off a dead or departing host and re-routed.
    Failover,
    /// The cluster router placed a request on a host.
    Placement {
        /// The chosen host.
        host: usize,
    },
    /// A circuit breaker tripped a class down the degradation ladder.
    BreakerTrip,
    /// A warm-pool rebalance pass ran after a membership change.
    Rebalance,
    /// A PSP firmware-reset outage window opened.
    OutageStart,
    /// A PSP firmware-reset outage window closed.
    OutageEnd,
    /// A TCB/firmware rollout re-measured a host (re-attestation storm).
    TcbRollout,
    /// A chip key was distrusted mid-stream (key-compromise drill).
    Revocation,
    /// The router's failure detector started suspecting a host.
    Suspected,
    /// A heartbeat got through and cleared a standing suspicion.
    SuspicionCleared,
    /// A host's dispatch lease lapsed and it parked itself.
    LeaseExpired,
    /// The policy engine admitted a request at its asked-for tier.
    PolicyAdmit,
    /// The policy engine admitted a request at a degraded isolation tier.
    PolicyDegrade,
    /// The policy engine turned a request away.
    PolicyReject,
    /// The autoscaler joined spare hosts via the graceful-join path.
    ScaleOut,
    /// The autoscaler drained hosts via the graceful-leave path.
    ScaleIn,
    /// The autoscaler re-prescribed per-host warm-pool targets.
    PreWarm,
}

impl MarkerKind {
    /// Stable label used in exporter output.
    pub fn name(&self) -> String {
        match self {
            MarkerKind::Fault(kind) => format!("fault: {}", kind.name()),
            MarkerKind::Failover => "failover".to_string(),
            MarkerKind::Placement { host } => format!("placement: host {host}"),
            MarkerKind::BreakerTrip => "breaker-trip".to_string(),
            MarkerKind::Rebalance => "rebalance".to_string(),
            MarkerKind::OutageStart => "outage-start".to_string(),
            MarkerKind::OutageEnd => "outage-end".to_string(),
            MarkerKind::TcbRollout => "tcb-rollout".to_string(),
            MarkerKind::Revocation => "revocation".to_string(),
            MarkerKind::Suspected => "suspected".to_string(),
            MarkerKind::SuspicionCleared => "suspicion-cleared".to_string(),
            MarkerKind::LeaseExpired => "lease-expired".to_string(),
            MarkerKind::PolicyAdmit => "policy-admit".to_string(),
            MarkerKind::PolicyDegrade => "policy-degrade".to_string(),
            MarkerKind::PolicyReject => "policy-reject".to_string(),
            MarkerKind::ScaleOut => "scale-out".to_string(),
            MarkerKind::ScaleIn => "scale-in".to_string(),
            MarkerKind::PreWarm => "pre-warm".to_string(),
        }
    }
}

/// One recorded marker.
#[derive(Debug, Clone)]
pub struct MarkerRec {
    /// What happened.
    pub kind: MarkerKind,
    /// The request it concerns, if any.
    pub request: Option<usize>,
    /// The host it concerns, if any (cluster runs).
    pub host: Option<usize>,
    /// When it happened on the virtual clock.
    pub at: Nanos,
}

/// One resource occupancy fed back from the DES engine after the run.
#[derive(Debug, Clone)]
pub struct OccEntry {
    /// Concrete resource name ("psp", "psp3", "host-cpus", ...).
    pub resource: String,
    /// Engine job index the occupancy belongs to.
    pub job: usize,
    /// Instant the segment started executing.
    pub start: Nanos,
    /// Instant the segment finished.
    pub end: Nanos,
}

/// What a span represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Root of one request's tree: admission to terminal state.
    Request,
    /// Root of a background job's tree (warm-pool refill).
    Background,
    /// One launch attempt (dispatch to job completion).
    Attempt,
    /// One executed work step (resource occupancy or network delay).
    Step,
    /// Time spent waiting: in the admission queue, or for a resource slot.
    Wait,
    /// Retry backoff between attempts.
    Backoff,
}

impl SpanKind {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::Background => "background",
            SpanKind::Attempt => "attempt",
            SpanKind::Step => "step",
            SpanKind::Wait => "wait",
            SpanKind::Backoff => "backoff",
        }
    }
}

/// One assembled span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Index into [`TraceLog::spans`].
    pub id: usize,
    /// Causal parent (`None` for roots).
    pub parent: Option<usize>,
    /// The request this span serves (`None` for background trees).
    pub request: Option<usize>,
    /// The host it ran on, if the caller is a cluster (`None` on one host).
    pub host: Option<usize>,
    /// What the span represents.
    pub kind: SpanKind,
    /// Display name (class, blueprint label, step label, ...).
    pub name: String,
    /// Boot phase, for [`SpanKind::Step`] spans.
    pub phase: Option<PhaseKind>,
    /// Concrete resource occupied, for steps and resource waits.
    pub resource: Option<String>,
    /// Start instant on the shared virtual clock.
    pub start: Nanos,
    /// End instant.
    pub end: Nanos,
}

impl SpanRec {
    /// Span duration.
    pub fn duration(&self) -> Nanos {
        self.end - self.start
    }
}

/// Events the recorder buffers during a run (assembled by [`Recorder::build`]).
#[derive(Debug, Clone)]
enum Ev {
    Arrival {
        request: usize,
        class: String,
        at: Nanos,
    },
    Queued {
        request: usize,
    },
    AttemptStart {
        request: usize,
        job: usize,
        label: String,
        host: Option<usize>,
        steps: Vec<WorkStep>,
        at: Nanos,
    },
    AttemptEnd {
        job: usize,
        at: Nanos,
    },
    RetryWait {
        request: usize,
        attempt: u32,
        from: Nanos,
        until: Nanos,
    },
    Terminal {
        request: usize,
        outcome: Outcome,
        at: Nanos,
    },
    Background {
        job: usize,
        label: String,
        host: Option<usize>,
        steps: Vec<WorkStep>,
        at: Nanos,
    },
    BackgroundEnd {
        job: usize,
        at: Nanos,
    },
}

#[derive(Debug, Default)]
struct Inner {
    events: Vec<Ev>,
    markers: Vec<MarkerRec>,
    occupancy: Vec<OccEntry>,
}

/// The recording handle the serving layers thread through a run.
///
/// Disabled, it is a `None` behind one pointer-sized check: every method
/// no-ops, and [`Recorder::build`] returns an empty [`TraceLog`]. The
/// recorder never touches the caller's RNG, metrics, or job injection, so
/// enabling it cannot change a run's results — only observe them.
#[derive(Debug, Default)]
pub struct Recorder {
    inner: Option<Box<Inner>>,
}

impl Recorder {
    /// A recorder that records nothing (the default serving path).
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// A live recorder.
    pub fn enabled() -> Self {
        Recorder {
            inner: Some(Box::default()),
        }
    }

    /// Whether recording is on. Callers use this to skip building event
    /// arguments (step vectors, labels) on the disabled path.
    pub fn on(&self) -> bool {
        self.inner.is_some()
    }

    /// A request arrived (roots its span tree).
    pub fn arrival(&mut self, request: usize, class: &str, at: Nanos) {
        if let Some(inner) = &mut self.inner {
            inner.events.push(Ev::Arrival {
                request,
                class: class.to_string(),
                at,
            });
        }
    }

    /// A request entered the admission queue (names its next wait span).
    pub fn queued(&mut self, request: usize) {
        if let Some(inner) = &mut self.inner {
            inner.events.push(Ev::Queued { request });
        }
    }

    /// A launch attempt for `request` was injected as engine job `job`.
    pub fn attempt_start(
        &mut self,
        request: usize,
        job: usize,
        label: &str,
        host: Option<usize>,
        steps: Vec<WorkStep>,
        at: Nanos,
    ) {
        if let Some(inner) = &mut self.inner {
            inner.events.push(Ev::AttemptStart {
                request,
                job,
                label: label.to_string(),
                host,
                steps,
                at,
            });
        }
    }

    /// Engine job `job` (a launch attempt) completed.
    pub fn attempt_end(&mut self, job: usize, at: Nanos) {
        if let Some(inner) = &mut self.inner {
            inner.events.push(Ev::AttemptEnd { job, at });
        }
    }

    /// A retry for `request` (failure number `attempt`) was scheduled:
    /// backoff occupies `[from, until]`.
    pub fn retry_wait(&mut self, request: usize, attempt: u32, from: Nanos, until: Nanos) {
        if let Some(inner) = &mut self.inner {
            inner.events.push(Ev::RetryWait {
                request,
                attempt,
                from,
                until,
            });
        }
    }

    /// A request reached a terminal state.
    pub fn terminal(&mut self, request: usize, outcome: Outcome, at: Nanos) {
        if let Some(inner) = &mut self.inner {
            inner.events.push(Ev::Terminal {
                request,
                outcome,
                at,
            });
        }
    }

    /// A background job (warm-pool refill) was injected as engine job `job`.
    pub fn background(
        &mut self,
        job: usize,
        label: &str,
        host: Option<usize>,
        steps: Vec<WorkStep>,
        at: Nanos,
    ) {
        if let Some(inner) = &mut self.inner {
            inner.events.push(Ev::Background {
                job,
                label: label.to_string(),
                host,
                steps,
                at,
            });
        }
    }

    /// Engine job `job` (a background job) completed.
    pub fn background_end(&mut self, job: usize, at: Nanos) {
        if let Some(inner) = &mut self.inner {
            inner.events.push(Ev::BackgroundEnd { job, at });
        }
    }

    /// Records a point marker.
    pub fn marker(
        &mut self,
        kind: MarkerKind,
        request: Option<usize>,
        host: Option<usize>,
        at: Nanos,
    ) {
        if let Some(inner) = &mut self.inner {
            inner.markers.push(MarkerRec {
                kind,
                request,
                host,
                at,
            });
        }
    }

    /// Feeds one engine occupancy entry back in after the run.
    pub fn occupy(&mut self, resource: &str, job: usize, start: Nanos, end: Nanos) {
        if let Some(inner) = &mut self.inner {
            inner.occupancy.push(OccEntry {
                resource: resource.to_string(),
                job,
                start,
                end,
            });
        }
    }

    /// Assembles the recorded events into span trees. Returns an empty log
    /// for a disabled recorder.
    pub fn build(self) -> TraceLog {
        let inner = match self.inner {
            Some(inner) => *inner,
            None => return TraceLog::default(),
        };
        Assembler::assemble(inner)
    }
}

/// The assembled trace of one run: span trees, markers, raw occupancy, and
/// per-request terminal outcomes.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    /// All spans; a span's `id` is its index here, parents precede children.
    pub spans: Vec<SpanRec>,
    /// Point markers in recording order.
    pub markers: Vec<MarkerRec>,
    /// Raw engine occupancy fed in after the run.
    pub occupancy: Vec<OccEntry>,
    /// `(request, outcome, at)` terminal states in recording order.
    pub outcomes: Vec<(usize, Outcome, Nanos)>,
}

impl TraceLog {
    /// Root spans (requests and background jobs).
    pub fn roots(&self) -> impl Iterator<Item = &SpanRec> {
        self.spans.iter().filter(|s| s.parent.is_none())
    }

    /// The root span of `request`'s tree, if it arrived.
    pub fn request_root(&self, request: usize) -> Option<&SpanRec> {
        self.spans
            .iter()
            .find(|s| s.parent.is_none() && s.request == Some(request))
    }

    /// Direct children of span `id`, in start order.
    pub fn children(&self, id: usize) -> Vec<&SpanRec> {
        self.spans.iter().filter(|s| s.parent == Some(id)).collect()
    }

    /// `children[i]` = direct child ids of span `i` (single pass).
    pub fn child_index(&self) -> Vec<Vec<usize>> {
        let mut index = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                index[parent].push(span.id);
            }
        }
        index
    }

    /// Leaf spans of `request`'s tree in start order — its critical path
    /// (children tile their parents, so the leaves partition the root).
    pub fn leaves(&self, request: usize) -> Vec<&SpanRec> {
        let has_child: std::collections::BTreeSet<usize> =
            self.spans.iter().filter_map(|s| s.parent).collect();
        let mut leaves: Vec<&SpanRec> = self
            .spans
            .iter()
            .filter(|s| s.request == Some(request) && !has_child.contains(&s.id))
            .collect();
        leaves.sort_by_key(|s| (s.start, s.id));
        leaves
    }

    /// Requests whose terminal outcome is `outcome`.
    pub fn requests_with_outcome(&self, outcome: Outcome) -> Vec<usize> {
        self.outcomes
            .iter()
            .filter(|(_, o, _)| *o == outcome)
            .map(|(r, _, _)| *r)
            .collect()
    }

    /// How many markers match `kind` exactly.
    pub fn count_marker(&self, kind: MarkerKind) -> usize {
        self.markers.iter().filter(|m| m.kind == kind).count()
    }
}

/// Turns the flat event list into span trees.
struct Assembler {
    occupancy: Vec<OccEntry>,
    occ_by_job: BTreeMap<usize, VecDeque<usize>>,
    attempt_ends: BTreeMap<usize, Nanos>,
    background_ends: BTreeMap<usize, Nanos>,
    spans: Vec<SpanRec>,
}

impl Assembler {
    fn assemble(inner: Inner) -> TraceLog {
        let mut occ_by_job: BTreeMap<usize, VecDeque<usize>> = BTreeMap::new();
        for (i, entry) in inner.occupancy.iter().enumerate() {
            occ_by_job.entry(entry.job).or_default().push_back(i);
        }
        let mut attempt_ends = BTreeMap::new();
        let mut background_ends = BTreeMap::new();
        let mut outcomes = Vec::new();
        let mut per_request: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut backgrounds: Vec<usize> = Vec::new();
        for (i, ev) in inner.events.iter().enumerate() {
            match ev {
                Ev::Arrival { request, .. }
                | Ev::Queued { request }
                | Ev::AttemptStart { request, .. }
                | Ev::RetryWait { request, .. } => per_request.entry(*request).or_default().push(i),
                Ev::AttemptEnd { job, at } => {
                    attempt_ends.insert(*job, *at);
                }
                Ev::Terminal {
                    request,
                    outcome,
                    at,
                } => {
                    outcomes.push((*request, *outcome, *at));
                    per_request.entry(*request).or_default().push(i);
                }
                Ev::Background { .. } => backgrounds.push(i),
                Ev::BackgroundEnd { job, at } => {
                    background_ends.insert(*job, *at);
                }
            }
        }

        let mut asm = Assembler {
            occupancy: inner.occupancy,
            occ_by_job,
            attempt_ends,
            background_ends,
            spans: Vec::new(),
        };
        for (request, idxs) in &per_request {
            asm.request_tree(*request, idxs, &inner.events);
        }
        for idx in backgrounds {
            if let Ev::Background {
                job,
                label,
                host,
                steps,
                at,
            } = &inner.events[idx]
            {
                asm.background_tree(*job, label, *host, steps, *at);
            }
        }
        TraceLog {
            spans: asm.spans,
            markers: inner.markers,
            occupancy: asm.occupancy,
            outcomes,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push_span(
        &mut self,
        parent: Option<usize>,
        request: Option<usize>,
        host: Option<usize>,
        kind: SpanKind,
        name: String,
        phase: Option<PhaseKind>,
        resource: Option<String>,
        start: Nanos,
        end: Nanos,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(SpanRec {
            id,
            parent,
            request,
            host,
            kind,
            name,
            phase,
            resource,
            start,
            end,
        });
        id
    }

    /// Builds one request's tree from its event indices (recording order =
    /// clock order within a request).
    fn request_tree(&mut self, request: usize, idxs: &[usize], events: &[Ev]) {
        let Some((arrived, class)) = idxs.iter().find_map(|&i| match &events[i] {
            Ev::Arrival { at, class, .. } => Some((*at, class.clone())),
            _ => None,
        }) else {
            return;
        };
        let root = self.push_span(
            None,
            Some(request),
            None,
            SpanKind::Request,
            class,
            None,
            None,
            arrived,
            arrived,
        );
        let mut cursor = arrived;
        let mut queued = false;
        for &idx in idxs {
            match events[idx].clone() {
                Ev::Arrival { .. } | Ev::AttemptEnd { .. } | Ev::BackgroundEnd { .. } => {}
                Ev::Background { .. } => {}
                Ev::Queued { .. } => queued = true,
                Ev::RetryWait {
                    attempt,
                    from,
                    until,
                    ..
                } => {
                    self.gap(root, request, cursor, from, queued);
                    self.push_span(
                        Some(root),
                        Some(request),
                        None,
                        SpanKind::Backoff,
                        format!("backoff #{attempt}"),
                        None,
                        None,
                        from,
                        until,
                    );
                    cursor = until;
                    queued = false;
                }
                Ev::AttemptStart {
                    job,
                    label,
                    host,
                    steps,
                    at,
                    ..
                } => {
                    self.gap(root, request, cursor, at, queued);
                    cursor = self.attempt(root, request, host, job, &label, &steps, at);
                    queued = false;
                }
                Ev::Terminal { at, .. } => {
                    self.gap(root, request, cursor, at, queued);
                    cursor = at;
                }
            }
        }
        self.spans[root].end = cursor;
    }

    /// Materializes the wait between `cursor` and `until` (if any) as a
    /// child span, so siblings tile their parent exactly.
    fn gap(&mut self, parent: usize, request: usize, cursor: Nanos, until: Nanos, queued: bool) {
        if until > cursor {
            let name = if queued { "queue wait" } else { "wait" };
            self.push_span(
                Some(parent),
                Some(request),
                None,
                SpanKind::Wait,
                name.to_string(),
                None,
                None,
                cursor,
                until,
            );
        }
    }

    /// Builds one attempt span with its step/wait children; returns its end.
    #[allow(clippy::too_many_arguments)]
    fn attempt(
        &mut self,
        parent: usize,
        request: usize,
        host: Option<usize>,
        job: usize,
        label: &str,
        steps: &[WorkStep],
        at: Nanos,
    ) -> Nanos {
        let attempt = self.push_span(
            Some(parent),
            Some(request),
            host,
            SpanKind::Attempt,
            label.to_string(),
            None,
            None,
            at,
            at,
        );
        let cur = self.steps(attempt, Some(request), host, job, steps, at);
        let end = self.attempt_ends.get(&job).copied().unwrap_or(cur);
        self.spans[attempt].end = end;
        end
    }

    /// Lays `steps` under `parent`, matching resource-bound steps against
    /// the job's occupancy entries in order; gaps before an occupancy start
    /// become resource-wait children. Returns the clock after the last step.
    fn steps(
        &mut self,
        parent: usize,
        request: Option<usize>,
        host: Option<usize>,
        job: usize,
        steps: &[WorkStep],
        at: Nanos,
    ) -> Nanos {
        let mut cur = at;
        for step in steps {
            if step.class == ResourceClass::Network {
                self.push_span(
                    Some(parent),
                    request,
                    host,
                    SpanKind::Step,
                    step.label.to_string(),
                    Some(step.phase),
                    Some("network".to_string()),
                    cur,
                    cur + step.duration,
                );
                cur += step.duration;
                continue;
            }
            let entry = self
                .occ_by_job
                .get_mut(&job)
                .and_then(|queue| queue.pop_front())
                .map(|i| self.occupancy[i].clone());
            match entry {
                Some(entry) => {
                    if entry.start > cur {
                        self.push_span(
                            Some(parent),
                            request,
                            host,
                            SpanKind::Wait,
                            format!("wait {}", entry.resource),
                            None,
                            Some(entry.resource.clone()),
                            cur,
                            entry.start,
                        );
                    }
                    self.push_span(
                        Some(parent),
                        request,
                        host,
                        SpanKind::Step,
                        step.label.to_string(),
                        Some(step.phase),
                        Some(entry.resource.clone()),
                        entry.start,
                        entry.end,
                    );
                    cur = entry.end;
                }
                None => {
                    // No occupancy fed back (caller skipped `occupy`): fall
                    // back to the planned duration so the tree still tiles.
                    self.push_span(
                        Some(parent),
                        request,
                        host,
                        SpanKind::Step,
                        step.label.to_string(),
                        Some(step.phase),
                        None,
                        cur,
                        cur + step.duration,
                    );
                    cur += step.duration;
                }
            }
        }
        cur
    }

    /// Builds one background job's tree (no request identity).
    fn background_tree(
        &mut self,
        job: usize,
        label: &str,
        host: Option<usize>,
        steps: &[WorkStep],
        at: Nanos,
    ) {
        let root = self.push_span(
            None,
            None,
            host,
            SpanKind::Background,
            label.to_string(),
            None,
            None,
            at,
            at,
        );
        let cur = self.steps(root, None, host, job, steps, at);
        let end = self.background_ends.get(&job).copied().unwrap_or(cur);
        self.spans[root].end = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    fn psp_step(label: &'static str, dur: Nanos) -> WorkStep {
        WorkStep::new(ResourceClass::Psp, PhaseKind::PreEncryption, label, dur)
    }

    #[test]
    fn disabled_recorder_builds_an_empty_log() {
        let mut rec = Recorder::disabled();
        assert!(!rec.on());
        rec.arrival(0, "c", ms(0));
        rec.terminal(0, Outcome::Completed, ms(5));
        let log = rec.build();
        assert!(log.spans.is_empty());
        assert!(log.outcomes.is_empty());
    }

    #[test]
    fn one_request_tree_tiles_queue_wait_and_steps() {
        let mut rec = Recorder::enabled();
        rec.arrival(0, "tiny", ms(0));
        rec.queued(0);
        let steps = vec![psp_step("LAUNCH", ms(4))];
        rec.attempt_start(0, 7, "tiny cold", None, steps, ms(2));
        rec.attempt_end(7, ms(8));
        rec.terminal(0, Outcome::Completed, ms(8));
        // The psp slot only freed at t=3: one extra wait inside the attempt.
        rec.occupy("psp", 7, ms(3), ms(7));
        // Padding the job with trailing cpu-free time up to t=8 is the
        // attempt-end's business; the step ends at 7, attempt end is 8.
        let log = rec.build();

        let root = log.request_root(0).expect("root");
        assert_eq!(root.kind, SpanKind::Request);
        assert_eq!(root.start, ms(0));
        assert_eq!(root.end, ms(8));
        let children = log.children(root.id);
        assert_eq!(children.len(), 2, "queue wait + attempt");
        assert_eq!(children[0].kind, SpanKind::Wait);
        assert_eq!(children[0].name, "queue wait");
        assert_eq!((children[0].start, children[0].end), (ms(0), ms(2)));
        let attempt = children[1];
        assert_eq!(attempt.kind, SpanKind::Attempt);
        assert_eq!((attempt.start, attempt.end), (ms(2), ms(8)));
        let inner = log.children(attempt.id);
        assert_eq!(inner.len(), 2, "resource wait + step");
        assert_eq!(inner[0].name, "wait psp");
        assert_eq!(inner[1].resource.as_deref(), Some("psp"));
        assert_eq!((inner[1].start, inner[1].end), (ms(3), ms(7)));
    }

    #[test]
    fn retry_backoff_appears_between_attempts() {
        let mut rec = Recorder::enabled();
        rec.arrival(3, "tiny", ms(0));
        rec.attempt_start(3, 0, "try 1", None, vec![psp_step("L", ms(2))], ms(0));
        rec.attempt_end(0, ms(2));
        rec.retry_wait(3, 1, ms(2), ms(5));
        rec.attempt_start(3, 1, "try 2", None, vec![psp_step("L", ms(2))], ms(5));
        rec.attempt_end(1, ms(7));
        rec.terminal(3, Outcome::Completed, ms(7));
        rec.occupy("psp", 0, ms(0), ms(2));
        rec.occupy("psp", 1, ms(5), ms(7));
        let log = rec.build();
        let root = log.request_root(3).unwrap();
        let kinds: Vec<SpanKind> = log.children(root.id).iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![SpanKind::Attempt, SpanKind::Backoff, SpanKind::Attempt]
        );
        let backoffs = log.spans.iter().filter(|s| s.kind == SpanKind::Backoff);
        assert_eq!(backoffs.count(), 1);
        let total: Nanos = log.leaves(3).iter().map(|s| s.duration()).sum();
        assert_eq!(total, root.duration(), "leaves partition the root");
    }

    #[test]
    fn shed_request_is_a_zero_length_tree() {
        let mut rec = Recorder::enabled();
        rec.arrival(1, "tiny", ms(4));
        rec.terminal(1, Outcome::Shed, ms(4));
        let log = rec.build();
        let root = log.request_root(1).unwrap();
        assert_eq!(root.duration(), Nanos::ZERO);
        assert_eq!(log.requests_with_outcome(Outcome::Shed), [1]);
        assert!(log.children(root.id).is_empty());
    }

    #[test]
    fn background_trees_carry_no_request() {
        let mut rec = Recorder::enabled();
        rec.background(9, "refill tiny", None, vec![psp_step("L", ms(3))], ms(1));
        rec.background_end(9, ms(4));
        rec.occupy("psp", 9, ms(1), ms(4));
        let log = rec.build();
        let root = log.roots().next().unwrap();
        assert_eq!(root.kind, SpanKind::Background);
        assert_eq!(root.request, None);
        assert_eq!(root.duration(), ms(3));
    }

    #[test]
    fn markers_count_by_kind() {
        let mut rec = Recorder::enabled();
        let reset = MarkerKind::Fault(FaultKind::PspReset);
        rec.marker(reset, Some(0), None, ms(1));
        rec.marker(reset, None, Some(2), ms(2));
        rec.marker(MarkerKind::Failover, Some(0), Some(1), ms(2));
        rec.marker(MarkerKind::Placement { host: 1 }, Some(0), Some(1), ms(0));
        let log = rec.build();
        assert_eq!(log.count_marker(reset), 2);
        assert_eq!(log.count_marker(MarkerKind::Failover), 1);
        assert_eq!(log.count_marker(MarkerKind::Placement { host: 1 }), 1);
    }
}
