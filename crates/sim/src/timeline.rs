//! Boot timelines: phase spans and instrumentation events.
//!
//! §6.1 of the paper describes its measurement methodology: a debug-port
//! device at I/O port 0x80 records timestamped writes from the guest, and —
//! before #VC handlers are installed in an SEV-ES/SNP guest — magic values
//! written to the GHCB MSR are interpreted as timing events. [`Timeline`]
//! reproduces exactly that: boot code emits [`EventChannel`]-tagged marks,
//! and priced [`Step`]s accumulate into [`Span`]s that the figures later
//! group by [`PhaseKind`].

use std::fmt;

use crate::cost::{Step, Work};
use crate::rng::Jitter;
use crate::time::Nanos;

/// The boot-phase buckets the paper's figures group time into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PhaseKind {
    /// Time in the VMM before entering the guest (Firecracker/QEMU bars in
    /// Figs. 10/11) excluding pre-encryption.
    VmmSetup,
    /// PSP launch sequence: LAUNCH_START / UPDATE_DATA / UPDATE_VMSA /
    /// FINISH (the "Pre-encryption" column of Fig. 10).
    PreEncryption,
    /// OVMF SEC phase (Fig. 3).
    OvmfSec,
    /// OVMF PEI phase (Fig. 3).
    OvmfPei,
    /// OVMF DXE phase (Fig. 3).
    OvmfDxe,
    /// OVMF BDS phase (Fig. 3).
    OvmfBds,
    /// The boot verifier: pvalidate, page tables, measured direct boot
    /// (Fig. 11 "Boot Verification"; Fig. 3 "Boot Verifier").
    BootVerification,
    /// The bzImage bootstrap loader decompressing/loading the vmlinux
    /// (Fig. 11 "Bootstrap Loader").
    BootstrapLoader,
    /// Guest kernel from entry point to `init` (Fig. 11 "Linux Boot").
    LinuxBoot,
    /// Remote attestation (included in Fig. 9, excluded from Fig. 11).
    Attestation,
}

impl PhaseKind {
    /// Stable label used in figure output.
    pub fn label(self) -> &'static str {
        match self {
            PhaseKind::VmmSetup => "VMM",
            PhaseKind::PreEncryption => "Pre-encryption",
            PhaseKind::OvmfSec => "OVMF SEC",
            PhaseKind::OvmfPei => "OVMF PEI",
            PhaseKind::OvmfDxe => "OVMF DXE",
            PhaseKind::OvmfBds => "OVMF BDS",
            PhaseKind::BootVerification => "Boot Verification",
            PhaseKind::BootstrapLoader => "Bootstrap Loader",
            PhaseKind::LinuxBoot => "Linux Boot",
            PhaseKind::Attestation => "Attestation",
        }
    }

    /// True for the phases that count as "boot" in the paper (attestation is
    /// reported separately; §6.1).
    pub fn counts_as_boot(self) -> bool {
        self != PhaseKind::Attestation
    }
}

impl fmt::Display for PhaseKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How a timing event reached the VMM (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventChannel {
    /// An `outb` to the debug port (0x80); requires #VC handling under SNP.
    DebugPort,
    /// A magic value written to the GHCB MSR — always intercepted, usable
    /// before #VC handlers are installed.
    GhcbMsr,
    /// Logged directly by the VMM process.
    VmmLog,
}

/// The class of host resource a span occupies while it runs.
///
/// The concurrency experiments (Fig. 12) and the fleet control plane replay
/// timelines through the DES engine, where PSP-mediated work serializes on a
/// single slot while CPU work spreads over the core pool and network waits
/// overlap freely. Carrying the class *on the span* — taken from the span's
/// [`Work`] by [`Work::class`] — means the replay can never silently
/// misclassify a span because someone reworded its label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ResourceClass {
    /// Runs on a host core (the default for boot work).
    #[default]
    HostCpu,
    /// Serializes on the Platform Security Processor (SEV launch commands,
    /// RMP initialization, report generation).
    Psp,
    /// A network/remote wait that overlaps freely across VMs.
    Network,
}

/// One contiguous stretch of work attributed to a phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Phase bucket for figures.
    pub phase: PhaseKind,
    /// Human-readable description of the work.
    pub label: String,
    /// Start instant on the virtual clock.
    pub start: Nanos,
    /// Duration of the work.
    pub duration: Nanos,
    /// Host resource the work occupies (defaults to [`ResourceClass::HostCpu`]).
    pub class: ResourceClass,
}

/// A timestamped instrumentation mark.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// When the mark was recorded.
    pub at: Nanos,
    /// The channel it travelled through.
    pub channel: EventChannel,
    /// The mark's tag (the paper uses magic byte values; we keep strings).
    pub tag: String,
}

/// An accumulating per-boot timeline with a virtual-clock cursor.
///
/// # Example
///
/// ```
/// use sevf_sim::cost::Work;
/// use sevf_sim::rng::Jitter;
/// use sevf_sim::{CostModel, PhaseKind, Timeline};
///
/// let cost = CostModel::calibrated();
/// let mut tl = Timeline::new();
/// tl.place(
///     [
///         cost.step(PhaseKind::VmmSetup, "spawn", Work::FirecrackerSpawn),
///         cost.step(PhaseKind::LinuxBoot, "kernel", Work::KernelPhase(30_000)),
///     ],
///     &mut Jitter::disabled(),
/// );
/// assert_eq!(tl.total(), cost.price(&Work::FirecrackerSpawn) + cost.price(&Work::KernelPhase(30_000)));
/// assert_eq!(tl.work()[1], Work::KernelPhase(30_000));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    spans: Vec<Span>,
    /// What each span paid for, in span order.
    work: Vec<Work>,
    events: Vec<Event>,
    cursor: Nanos,
}

impl Timeline {
    /// Creates an empty timeline at virtual time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Places `steps` at the cursor in order, advancing it: each becomes a
    /// span of its phase and label, on the resource its work occupies
    /// ([`Work::class`]), with one `jitter` draw on its priced duration.
    pub fn place(&mut self, steps: impl IntoIterator<Item = Step>, jitter: &mut Jitter) {
        for step in steps {
            let duration = jitter.apply(step.duration);
            self.spans.push(Span {
                phase: step.phase,
                label: step.label,
                start: self.cursor,
                duration,
                class: step.work.class(),
            });
            self.work.push(step.work);
            self.cursor += duration;
        }
    }

    /// Records an instrumentation mark at the current cursor.
    pub fn mark(&mut self, channel: EventChannel, tag: impl Into<String>) {
        self.events.push(Event {
            at: self.cursor,
            channel,
            tag: tag.into(),
        });
    }

    /// All spans in order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The work each span paid for, in span order.
    pub fn work(&self) -> &[Work] {
        &self.work
    }

    /// All instrumentation events in order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Total virtual time elapsed.
    pub fn total(&self) -> Nanos {
        self.cursor
    }

    /// Total time excluding attestation (the paper's "boot time", §6.1).
    pub fn boot_total(&self) -> Nanos {
        self.spans
            .iter()
            .filter(|s| s.phase.counts_as_boot())
            .map(|s| s.duration)
            .sum()
    }

    /// Sum of all spans in one phase bucket.
    pub fn phase_total(&self, phase: PhaseKind) -> Nanos {
        self.spans
            .iter()
            .filter(|s| s.phase == phase)
            .map(|s| s.duration)
            .sum()
    }

    /// Returns a copy containing only the spans (and their work) whose
    /// phase satisfies `keep`, re-packed contiguously from time zero (events
    /// are dropped). Used e.g. to strip attestation from a boot before
    /// replaying it in the concurrency experiment.
    pub fn filtered(&self, keep: impl Fn(PhaseKind) -> bool) -> Timeline {
        let mut out = Timeline::new();
        for (span, work) in self.spans.iter().zip(&self.work) {
            if keep(span.phase) {
                out.spans.push(Span {
                    start: out.cursor,
                    ..span.clone()
                });
                out.work.push(work.clone());
                out.cursor += span.duration;
            }
        }
        out
    }

    /// Renders an indented text breakdown (used by examples and the figure
    /// harness).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            out.push_str(&format!(
                "{:>12}  {:<18} {} ({})\n",
                format!("{}", span.start),
                span.phase.label(),
                span.label,
                span.duration
            ));
        }
        out.push_str(&format!("{:>12}  total\n", format!("{}", self.total())));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A step of `ms` milliseconds of `work`.
    fn step(phase: PhaseKind, label: &str, work: Work, ms: u64) -> Step {
        Step {
            phase,
            label: label.into(),
            work,
            duration: Nanos::from_millis(ms),
        }
    }

    fn kernel(phase: PhaseKind, ms: u64) -> Step {
        step(phase, "kernel", Work::KernelPhase(ms * 1000), ms)
    }

    fn placed(steps: impl IntoIterator<Item = Step>) -> Timeline {
        let mut tl = Timeline::new();
        tl.place(steps, &mut Jitter::disabled());
        tl
    }

    #[test]
    fn cursor_advances_with_spans() {
        assert_eq!(Timeline::new().total(), Nanos::ZERO);
        let tl = placed([
            kernel(PhaseKind::VmmSetup, 2),
            kernel(PhaseKind::PreEncryption, 8),
        ]);
        assert_eq!(tl.total(), Nanos::from_millis(10));
        assert_eq!(tl.spans()[1].start, Nanos::from_millis(2));
    }

    #[test]
    fn phase_totals_accumulate() {
        let tl = placed([
            kernel(PhaseKind::LinuxBoot, 10),
            kernel(PhaseKind::LinuxBoot, 20),
        ]);
        assert_eq!(tl.phase_total(PhaseKind::LinuxBoot), Nanos::from_millis(30));
        assert_eq!(tl.phase_total(PhaseKind::VmmSetup), Nanos::ZERO);
    }

    #[test]
    fn boot_total_excludes_attestation() {
        let tl = placed([
            kernel(PhaseKind::LinuxBoot, 40),
            kernel(PhaseKind::Attestation, 200),
        ]);
        assert_eq!(tl.boot_total(), Nanos::from_millis(40));
        assert_eq!(tl.total(), Nanos::from_millis(240));
    }

    #[test]
    fn events_carry_cursor_time() {
        let mut tl = placed([kernel(PhaseKind::VmmSetup, 1)]);
        tl.mark(EventChannel::GhcbMsr, "verifier-entry");
        assert_eq!(tl.events()[0].at, Nanos::from_millis(1));
        assert_eq!(tl.events()[0].channel, EventChannel::GhcbMsr);
    }

    #[test]
    fn jitter_draws_once_per_step_and_keeps_the_work() {
        let steps = [
            kernel(PhaseKind::VmmSetup, 5),
            kernel(PhaseKind::LinuxBoot, 30),
        ];
        let mut tl = Timeline::new();
        tl.place(steps.clone(), &mut Jitter::new(7));
        let mut draws = Jitter::new(7);
        for (span, step) in tl.spans().iter().zip(&steps) {
            assert_eq!(span.duration, draws.apply(step.duration));
        }
        let work: Vec<Work> = steps.into_iter().map(|s| s.work).collect();
        assert_eq!(tl.work(), &work[..]);
    }

    #[test]
    fn class_comes_from_the_work_and_survives_filtering() {
        let tl = placed([
            kernel(PhaseKind::VmmSetup, 1),
            step(
                PhaseKind::PreEncryption,
                "SNP_LAUNCH_START",
                Work::LaunchStart,
                2,
            ),
            step(
                PhaseKind::Attestation,
                "owner round trip",
                Work::AttestationRoundTrip,
                3,
            ),
        ]);
        assert_eq!(tl.spans()[0].class, ResourceClass::HostCpu);
        assert_eq!(tl.spans()[1].class, ResourceClass::Psp);
        assert_eq!(tl.spans()[2].class, ResourceClass::Network);
        let kept = tl.filtered(|p| p != PhaseKind::Attestation);
        assert_eq!(kept.spans().len(), 2);
        assert_eq!(kept.spans()[1].class, ResourceClass::Psp);
        assert_eq!(kept.work(), &tl.work()[..2]);
        assert_eq!(kept.total(), Nanos::from_millis(3));
    }

    #[test]
    fn render_contains_phases() {
        let text = placed([step(
            PhaseKind::BootVerification,
            "hash kernel",
            Work::Sha256(1),
            3,
        )])
        .render();
        assert!(text.contains("Boot Verification"));
        assert!(text.contains("hash kernel"));
        assert!(text.contains("total"));
    }
}
