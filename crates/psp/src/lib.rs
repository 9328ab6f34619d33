//! The simulated AMD Platform Security Processor (PSP).
//!
//! The PSP is the low-power ARM core that owns SEV key management and the
//! launch flow (§2.2 of the paper). Every command here both *does the work*
//! (chains the SHA-384 launch digest over real page contents, mints real
//! HMAC-signed attestation reports) and *reports its virtual-time cost* from
//! the calibrated model — the per-byte cost of `LAUNCH_UPDATE_DATA` is what
//! makes pre-encrypting a kernel prohibitively expensive (Fig. 4), and the
//! fact that all of this runs on a **single PSP core** is the Fig. 12
//! bottleneck.
//!
//! The launch flow implemented here follows §2.4:
//!
//! 1. [`Psp::launch_start`] — allocate a guest context and memory key.
//! 2. [`Psp::launch_update_data`] — measure + encrypt guest pages.
//! 3. [`Psp::launch_update_vmsa`] — encrypt initial vCPU state (ES/SNP).
//! 4. [`Psp::launch_finish`] — freeze the measurement; further updates fail.
//! 5. [`Psp::guest_report`] — signed attestation report, placed in guest
//!    memory, carrying the launch measurement.
//!
//! # Example
//!
//! ```
//! use sevf_psp::Psp;
//! use sevf_sim::CostModel;
//! use sevf_mem::GuestMemory;
//! use sevf_sim::cost::SevGeneration;
//!
//! let mut psp = Psp::new(CostModel::calibrated(), 1);
//! let start = psp.launch_start(SevGeneration::SevSnp)?;
//! let mut mem = GuestMemory::new_sev(1 << 20, start.memory_key, SevGeneration::SevSnp);
//! psp.launch_update_data(start.guest, &mut mem, 0, 4096)?;
//! let finish = psp.launch_finish(start.guest)?;
//! assert_eq!(finish.measurement.len(), 48);
//! # Ok::<(), sevf_psp::PspError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod launch;
mod measurement;
mod report;
mod template;

pub use error::PspError;
pub use launch::{FinishOutcome, GuestHandle, LaunchOutcome, Psp, PspWork};
pub use measurement::{
    measure_region, paged_measure, IncrementalChain, MeasurementChain, PageDigestCache, PageRef,
    PageType,
};
pub use report::{AmdRootRegistry, AttestationReport, ChipIdentity, GuestPolicy, ReportError};
pub use template::TemplateKey;
