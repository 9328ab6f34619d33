//! Admission control: the knobs that bound a host's queue and its dispatch
//! window, and what a waiting request looks like.
//!
//! An open-loop stream offered above the PSP-bound service rate grows its
//! queue without bound; an unbounded queue turns overload into unbounded
//! latency for *everyone*. The admission controller caps the damage: at most
//! `max_inflight` launches are dispatched at once, at most `queue_bound`
//! requests wait behind them, and anything beyond that is **shed**
//! immediately — a fast failure the client can retry elsewhere.
//!
//! The waiting line itself is each host's one [`sevf_policy::WfqQueue`]: a
//! single lane (arrival order, the newcomer shed when full) unless the run's
//! policy schedules by WFQ, then one lane per tenant.

use sevf_sim::Nanos;

/// Admission-controller knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum queued (admitted but not yet dispatched) requests; arrivals
    /// beyond this are shed. 0 means dispatch-or-shed.
    pub queue_bound: usize,
    /// Maximum launches dispatched into the DES at once; at least 1.
    pub max_inflight: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            queue_bound: 64,
            max_inflight: 32,
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
        }
    }

    /// Rejects a dispatch window nothing could pass through: with no slot
    /// ever free, queued requests would wait forever.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.max_inflight == 0 {
            return Err("max_inflight must be at least 1");
        }
        Ok(())
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
}
