//! Virtual time, cost model, timelines, and discrete-event simulation.
//!
//! Every *functional* operation in this reproduction (hashing, encrypting,
//! copying, decompressing, page-table writes) really happens — but on the
//! machine running the tests, not on an AMD EPYC 7313P with SEV-SNP. This
//! crate supplies the **virtual clock** those operations advance and the
//! **calibrated cost model** that converts byte counts and command streams
//! into the durations the paper reports.
//!
//! * [`time::Nanos`] — the virtual time unit.
//! * [`cost::CostModel`] — one struct holding every calibrated constant, each
//!   documented with the paper number it was derived from, and
//!   [`CostModel::price`], the one function that reads them: boot code
//!   records what it did as a [`cost::Work`] and gets back a priced [`Step`].
//! * [`timeline::Timeline`] — placed steps as phase spans (with the work each
//!   paid for) and debug-port/GHCB event marks, reproducing the
//!   instrumentation methodology of §6.1.
//! * [`des`] — a discrete-event engine with FIFO resources, used for the
//!   Fig. 12 concurrency experiment where every launch serializes on the
//!   single-core PSP. Its scheduler is an indexed [`calendar`] queue; the
//!   original heap engine survives in [`mod@reference`] for differential tests
//!   and as the perf baseline.
//! * [`fault`] — seed-deterministic fault schedules (PSP firmware resets,
//!   transient command failures, warm-guest crashes, flaky attestation) for
//!   the chaos experiments.
//! * [`stats`] — means, standard deviations, percentiles, and CDFs for the
//!   figures.
//!
//! # Example
//!
//! ```
//! use sevf_sim::cost::{CostModel, Work};
//!
//! let model = CostModel::calibrated();
//! // Pre-encrypting the 1 MiB OVMF image costs ~a quarter second (§3.1).
//! let t = model.price(&Work::LaunchUpdateData(1 << 20));
//! assert!(t.as_millis_f64() > 200.0 && t.as_millis_f64() < 320.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calendar;
pub mod cost;
pub mod des;
pub mod fault;
pub mod reference;
pub mod rng;
pub mod stats;
pub mod time;
pub mod timeline;

pub use cost::{CostModel, Step, Work};
pub use des::{DesEngine, Job, JobOutcome, ResourceId, RunTrace, Segment, TraceEntry};
pub use fault::{AttestFault, FaultConfig, FaultKind, FaultPlan, ResetWindow};
pub use stats::Summary;
pub use time::Nanos;
pub use timeline::{EventChannel, PhaseKind, ResourceClass, Span, Timeline};
