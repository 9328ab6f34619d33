//! # sevf-obs — virtual-time observability for the SEVeriFast reproduction
//!
//! Every headline result in the paper is a *phase breakdown* (Fig. 3's
//! OVMF phases, Figs. 10/11's pre-encryption vs boot-verification splits,
//! Fig. 12's PSP serialization), yet the serving layers above the
//! simulator only reported terminal rollups. This crate makes the
//! simulation self-explaining:
//!
//! - [`trace`]: a [`Recorder`] of semantic launch events keyed to the
//!   shared DES clock. After a run it assembles, per request, one causal
//!   span tree — `admission → queue wait → dispatch → PSP commands →
//!   retries/backoff → attestation` — in which children exactly tile
//!   their parents, so leaf durations sum to the reported latency to the
//!   nanosecond. Disabled recorders are a no-op handle: the fault-free
//!   path replays byte-identically with observability off.
//! - [`metrics`]: a unified [`Registry`] of counters, gauges, and
//!   fixed-bucket [`Histogram`]s whose merge is exact (associative and
//!   commutative), plus the shared percentile/queue-depth helpers the
//!   fleet and cluster layers previously duplicated.
//! - [`export`]: deterministic exporters — Chrome `trace_event` JSON,
//!   Prometheus text, and per-request critical-path / phase breakdowns.
//! - [`invariants`]: structural checks (single root per request, span
//!   nesting/tiling, capacity-1 non-overlap, duration-sum == latency)
//!   used by the cross-layer test suite.
//!
//! The crate depends only on `sevf-sim`, below the fleet/cluster layers
//! it observes: `sim → obs → {psp, fleet} → cluster → bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod invariants;
pub mod metrics;
pub mod trace;

pub use export::{chrome_trace_json, json_escape, phase_breakdown, prometheus_text};
pub use metrics::{percentile_or_zero, time_weighted_mean, Histogram, Registry};
pub use trace::{MarkerKind, MarkerRec, Outcome, Recorder, SpanKind, SpanRec, TraceLog, WorkStep};
