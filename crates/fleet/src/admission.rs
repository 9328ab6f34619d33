//! Admission control: bounded queueing, shedding, and scheduling policies.
//!
//! An open-loop stream offered above the PSP-bound service rate grows its
//! queue without bound; an unbounded queue turns overload into unbounded
//! latency for *everyone*. The admission controller caps the damage: at most
//! `max_inflight` launches are dispatched at once, at most `queue_bound`
//! requests wait behind them, and anything beyond that is **shed**
//! immediately — a fast failure the client can retry elsewhere.
//!
//! When a dispatch slot frees, the scheduler picks the next request by
//! [`SchedPolicy`]:
//!
//! * [`SchedPolicy::Fifo`] — arrival order; fair, predictable.
//! * [`SchedPolicy::ShortestPspFirst`] — least expected serialized PSP work
//!   first. Since the PSP is the bottleneck resource, this is SJF on the
//!   bottleneck: it minimizes mean wait at some cost to long-job tail.
//! * [`SchedPolicy::TemplateAffinity`] — prefer requests whose template is
//!   already live in the launch cache (cheap hits drain the queue faster
//!   than fills); falls back to FIFO among equals.

use std::collections::VecDeque;

use sevf_psp::TemplateKey;
use sevf_sim::Nanos;

/// Which queued request runs next when a dispatch slot frees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// First come, first served.
    #[default]
    Fifo,
    /// Least expected serialized PSP work first (SJF on the bottleneck).
    ShortestPspFirst,
    /// Prefer requests whose launch template is already live.
    TemplateAffinity,
}

impl SchedPolicy {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SchedPolicy::Fifo => "fifo",
            SchedPolicy::ShortestPspFirst => "sjf-psp",
            SchedPolicy::TemplateAffinity => "affinity",
        }
    }
}

/// Admission-controller knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum queued (admitted but not yet dispatched) requests; arrivals
    /// beyond this are shed.
    pub queue_bound: usize,
    /// Maximum launches dispatched into the DES at once.
    pub max_inflight: usize,
    /// Scheduling policy for the queue.
    pub policy: SchedPolicy,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            queue_bound: 64,
            max_inflight: 32,
            policy: SchedPolicy::Fifo,
        }
    }
}

impl AdmissionConfig {
    /// The `--quick` sweeps' knobs. Generous inflight: dispatch is
    /// completion-gated, so a small slot count would throttle the PSP's
    /// feed below its own service rate (a convoy effect) and hide the
    /// ceiling being measured.
    pub fn quick_test() -> Self {
        AdmissionConfig {
            queue_bound: 128,
            max_inflight: 96,
            ..AdmissionConfig::default()
        }
    }
}

/// One admitted-but-waiting request.
#[derive(Debug, Clone, Copy)]
pub struct Pending {
    /// Request id (index into the service's request table).
    pub request: usize,
    /// Class index in the catalog.
    pub class: usize,
    /// Expected serialized PSP work of the launch this request will replay.
    pub expected_psp: Nanos,
    /// Content-address of the class's launch template.
    pub key: TemplateKey,
}

/// The bounded admission queue.
#[derive(Debug, Clone, Default)]
pub struct BoundedQueue {
    bound: usize,
    items: VecDeque<Pending>,
    shed: u64,
    max_depth: usize,
}

impl BoundedQueue {
    /// An empty queue admitting at most `bound` waiters.
    pub fn new(bound: usize) -> Self {
        BoundedQueue {
            bound,
            ..Default::default()
        }
    }

    /// Offers a request. Returns `false` (and counts a shed) when the queue
    /// is full.
    pub fn offer(&mut self, pending: Pending) -> bool {
        if self.items.len() >= self.bound {
            self.shed += 1;
            return false;
        }
        self.items.push_back(pending);
        self.max_depth = self.max_depth.max(self.items.len());
        true
    }

    /// Picks (and removes) the next request per `policy`. `is_hot` reports
    /// whether a template key is live in the launch cache — only
    /// [`SchedPolicy::TemplateAffinity`] consults it.
    pub fn pick(
        &mut self,
        policy: SchedPolicy,
        is_hot: impl Fn(&TemplateKey) -> bool,
    ) -> Option<Pending> {
        if self.items.is_empty() {
            return None;
        }
        let idx = match policy {
            SchedPolicy::Fifo => 0,
            SchedPolicy::ShortestPspFirst => self
                .items
                .iter()
                .enumerate()
                .min_by_key(|(i, p)| (p.expected_psp, *i))
                .map(|(i, _)| i)
                .unwrap_or(0),
            SchedPolicy::TemplateAffinity => {
                self.items.iter().position(|p| is_hot(&p.key)).unwrap_or(0)
            }
        };
        self.items.remove(idx)
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Requests shed because the queue was full.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Deepest the queue ever got.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pending(request: usize, psp_ms: u64, key_byte: u8) -> Pending {
        Pending {
            request,
            class: 0,
            expected_psp: Nanos::from_millis(psp_ms),
            key: TemplateKey::from_measurement([key_byte; 48]),
        }
    }

    #[test]
    fn bound_sheds_overflow() {
        let mut q = BoundedQueue::new(2);
        assert!(q.offer(pending(0, 1, 0)));
        assert!(q.offer(pending(1, 1, 0)));
        assert!(!q.offer(pending(2, 1, 0)));
        assert_eq!(q.shed(), 1);
        assert_eq!(q.len(), 2);
        assert_eq!(q.max_depth(), 2);
    }

    #[test]
    fn fifo_picks_in_arrival_order() {
        let mut q = BoundedQueue::new(8);
        for i in 0..3 {
            q.offer(pending(i, 10 - i as u64, 0));
        }
        let first = q.pick(SchedPolicy::Fifo, |_| false).unwrap();
        assert_eq!(first.request, 0);
    }

    #[test]
    fn sjf_picks_least_psp_work_stably() {
        let mut q = BoundedQueue::new(8);
        q.offer(pending(0, 30, 0));
        q.offer(pending(1, 5, 0));
        q.offer(pending(2, 5, 0));
        let first = q.pick(SchedPolicy::ShortestPspFirst, |_| false).unwrap();
        // Ties break by queue position: request 1 before request 2.
        assert_eq!(first.request, 1);
        let second = q.pick(SchedPolicy::ShortestPspFirst, |_| false).unwrap();
        assert_eq!(second.request, 2);
    }

    #[test]
    fn affinity_prefers_hot_templates_else_fifo() {
        let mut q = BoundedQueue::new(8);
        q.offer(pending(0, 1, 1));
        q.offer(pending(1, 1, 2));
        let hot = TemplateKey::from_measurement([2u8; 48]);
        let first = q
            .pick(SchedPolicy::TemplateAffinity, |k| *k == hot)
            .unwrap();
        assert_eq!(first.request, 1);
        // Nothing hot left: fall back to FIFO.
        let second = q
            .pick(SchedPolicy::TemplateAffinity, |k| *k == hot)
            .unwrap();
        assert_eq!(second.request, 0);
    }

    #[test]
    fn bound_zero_sheds_everything() {
        let mut q = BoundedQueue::new(0);
        assert!(!q.offer(pending(0, 1, 0)));
        assert!(!q.offer(pending(1, 1, 0)));
        assert_eq!(q.shed(), 2);
        assert_eq!(q.len(), 0);
        assert_eq!(q.max_depth(), 0);
        assert!(q.pick(SchedPolicy::Fifo, |_| true).is_none());
    }

    #[test]
    fn bound_one_holds_exactly_one_waiter() {
        let mut q = BoundedQueue::new(1);
        assert!(q.offer(pending(0, 1, 0)));
        assert!(!q.offer(pending(1, 1, 0)), "second waiter sheds");
        assert_eq!(q.len(), 1);
        assert_eq!(q.shed(), 1);

        // Draining the single slot re-opens it; every policy agrees on a
        // one-element queue.
        for policy in [
            SchedPolicy::Fifo,
            SchedPolicy::ShortestPspFirst,
            SchedPolicy::TemplateAffinity,
        ] {
            let picked = q.pick(policy, |_| false).unwrap();
            assert_eq!(picked.request, 0);
            assert!(q.is_empty());
            assert!(q.offer(pending(0, 1, 0)));
        }
        assert_eq!(q.max_depth(), 1);
    }

    #[test]
    fn empty_queue_picks_nothing() {
        let mut q = BoundedQueue::new(4);
        assert!(q.pick(SchedPolicy::Fifo, |_| true).is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn policy_names() {
        assert_eq!(SchedPolicy::Fifo.name(), "fifo");
        assert_eq!(SchedPolicy::ShortestPspFirst.name(), "sjf-psp");
        assert_eq!(SchedPolicy::TemplateAffinity.name(), "affinity");
        assert_eq!(SchedPolicy::default(), SchedPolicy::Fifo);
    }
}
