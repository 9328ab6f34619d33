//! A Firecracker-like microVM monitor with SEV-SNP launch support.
//!
//! The paper implements SEVeriFast as ~1100 lines added to Firecracker
//! v0.26 (§5). This crate plays that role in the simulation: it owns the
//! guest's configuration and memory, generates the boot data structures
//! Linux needs ([`mptable`], [`boot_params`], [`cmdline`] — Fig. 7),
//! executes the SEV launch flow against the shared [`machine::Machine`]'s
//! PSP, stages boot components, runs the guest (boot verifier → bootstrap
//! loader → kernel), and drives remote attestation.
//!
//! Four boot policies are implemented ([`config::BootPolicy`]):
//!
//! * **StockFirecracker** — non-SEV direct vmlinux boot (the baseline the
//!   paper compares against in Fig. 11);
//! * **Severifast** — the paper's design: LZ4 bzImage + minimal verifier;
//! * **SeverifastVmlinux** — the §5 comparison with the fw_cfg ELF loader;
//! * **QemuOvmf** — the mainstream QEMU/OVMF path of Figs. 3/9/10.
//!
//! Booting produces a [`report::BootReport`] whose timeline reproduces the
//! paper's instrumentation (§6.1), and [`concurrent`] replays boots through
//! the discrete-event engine to expose the PSP bottleneck of Fig. 12.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boot_params;
pub mod cmdline;
pub mod concurrent;
pub mod config;
pub mod footprint;
pub mod guest_kernel;
pub mod machine;
pub mod mptable;
pub mod report;
pub mod vmm;
pub mod warm;

pub use config::{BootPolicy, VmConfig};
pub use machine::Machine;
pub use report::{BootOutcome, BootReport};
pub use vmm::{MicroVm, VmmError};
