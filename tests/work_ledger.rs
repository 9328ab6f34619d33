//! The byte ledger: what a boot pays for is what the guest handled.
//!
//! Every span of a boot's timeline carries the `Work` it was priced from.
//! Summed per operation, that log must equal what the plan, the layout and
//! the images say the guest touched — on every SEV policy, generation and
//! codec, for a cold launch and for a §6.2 template hit. A model that
//! prices work nobody did, or leaves work unpriced, fails here.

use std::collections::{BTreeMap, BTreeSet};

use severifast::image::{cpio, initrd};
use severifast::prelude::*;
use severifast::sim::Work;
use severifast::verifier::layout::GuestLayout;
use severifast::vmm::config::LaunchMode;

const PAGE: u64 = 4096;

/// Amount per operation: bytes, pages or entries.
type Ledger = BTreeMap<&'static str, u64>;

/// Adds one piece of priced work to the ledger.
fn tally(ledger: &mut Ledger, work: &Work) {
    let (op, amount) = match work {
        Work::LaunchUpdateData(bytes) => ("bytes pre-encrypted", *bytes),
        Work::CopyPlain(bytes) => ("bytes copied to plain memory", *bytes),
        Work::CopyEncrypted(bytes) => ("bytes copied to encrypted memory", *bytes),
        Work::Sha256(bytes) => ("bytes hashed", *bytes),
        Work::Decompress(_, bytes) => ("bytes decompressed", *bytes),
        Work::Pvalidate { pages, .. } => ("pages pvalidated", *pages),
        Work::ElfSegments(count) => ("ELF segments", *count),
        Work::CpioEntries(count) => ("CPIO entries", *count),
        Work::Linux { work, .. } => return tally(ledger, work),
        Work::All(parts) => return parts.iter().for_each(|part| tally(ledger, part)),
        _ => return,
    };
    *ledger.entry(op).or_default() += amount;
}

/// What the plan, layout and images say a boot of `config` handles.
fn handled(config: &VmConfig, vm: &MicroVm, template_hit: bool) -> Ledger {
    let image = config.kernel.build();
    let elf = image.elf();
    let kernel = if config.policy.uses_bzimage() {
        image.bzimage(config.kernel_codec).len() as u64
    } else {
        // The three fw_cfg pieces: ELF header, program headers, file bytes.
        image.fw_cfg_staged().0.len() as u64
    };
    let staged_initrd = initrd::staged_initrd(config.initrd_size, config.initrd_codec);
    let staged_initrd = staged_initrd.bytes().len() as u64;
    let archive = initrd::build_initrd(config.initrd_size);
    let plan: Vec<u64> = vm
        .pre_encryption_plan()
        .unwrap()
        .iter()
        .map(|item| item.data.len() as u64)
        .collect();
    let plan_bytes: u64 = plan.iter().sum();
    // The PSP measures and encrypts whole pages.
    let plan_pages: u64 = plan.iter().map(|len| len.div_ceil(PAGE)).sum();
    let segments_in_memory: u64 = elf.segments.iter().map(|s| s.mem_size()).sum();

    let mut decompressed = 0;
    if config.policy.uses_bzimage() {
        decompressed += image.vmlinux().len() as u64;
    }
    if config.initrd_codec != Codec::None {
        decompressed += archive.len() as u64;
    }
    // The verifier validates every private page the launch did not.
    let pvalidated = if config.generation.has_rmp() {
        let layout = GuestLayout::plan_with_expansion(
            config.mem_size,
            kernel,
            staged_initrd,
            config.policy.uses_bzimage(),
        )
        .unwrap();
        layout.staging_base / PAGE - plan_pages
    } else {
        0
    };
    let into_encrypted = if config.policy.uses_bzimage() {
        // The verifier's copy of the bzImage, then the bootstrap loader's
        // placement of the vmlinux it decompresses.
        kernel + segments_in_memory
    } else {
        // File header and program headers, then each segment with its bss.
        kernel - elf.loadable_bytes() + segments_in_memory
    };
    Ledger::from([
        (
            "bytes pre-encrypted",
            if template_hit { 0 } else { plan_pages * PAGE },
        ),
        // Staging, the template's root of trust on a hit, and the kernel
        // unpacking the initrd archive.
        (
            "bytes copied to plain memory",
            kernel
                + staged_initrd
                + if template_hit { plan_bytes } else { 0 }
                + archive.len() as u64,
        ),
        (
            "bytes copied to encrypted memory",
            into_encrypted + staged_initrd,
        ),
        ("bytes hashed", kernel + staged_initrd),
        ("bytes decompressed", decompressed),
        ("pages pvalidated", pvalidated),
        ("ELF segments", elf.segments.len() as u64),
        ("CPIO entries", cpio::parse(&archive).unwrap().len() as u64),
    ])
}

/// Boots every cell of one policy cold and from the template, and checks
/// the priced work against what the guest handled.
fn check_policy(policy: BootPolicy) {
    let mut mismatches = Vec::new();
    for generation in [
        SevGeneration::Sev,
        SevGeneration::SevEs,
        SevGeneration::SevSnp,
    ] {
        for codec in Codec::ALL {
            let mut config = VmConfig::test_tiny(policy);
            config.generation = generation;
            config.launch_mode = LaunchMode::SharedKeyTemplate;
            config.initrd_codec = codec;
            config.kernel_codec = if policy.uses_bzimage() {
                codec
            } else {
                Codec::None
            };
            let vm = MicroVm::new(config.clone()).unwrap();
            let mut machine = Machine::new(0x1ED6);
            machine.owner.set_required_generation(generation);
            vm.register_expected(&mut machine).unwrap();
            for (launch, template_hit) in [("cold", false), ("template hit", true)] {
                let report = vm.boot(&mut machine).unwrap();
                let cell = format!("{policy} / {} / {codec} / {launch}", generation.name());

                // Jitter is off, so the spans are exactly the priced work.
                let paid: Nanos = report
                    .timeline
                    .work()
                    .iter()
                    .map(|w| machine.cost.price(w))
                    .sum();
                assert_eq!(paid, report.total_time(), "{cell}: priced work vs timeline");

                let mut priced = Ledger::new();
                report
                    .timeline
                    .work()
                    .iter()
                    .for_each(|w| tally(&mut priced, w));
                let handled = handled(&config, &vm, template_hit);
                let ops: BTreeSet<_> = priced.keys().chain(handled.keys()).collect();
                for op in ops {
                    let paid = priced.get(op).copied().unwrap_or(0);
                    let done = handled.get(op).copied().unwrap_or(0);
                    if paid != done {
                        mismatches.push(format!("{cell}: {op}: priced {paid}, handled {done}"));
                    }
                }
            }
        }
    }
    assert!(mismatches.is_empty(), "\n{}", mismatches.join("\n"));
}

#[test]
fn severifast_prices_what_it_handles() {
    check_policy(BootPolicy::Severifast);
}

#[test]
fn severifast_vmlinux_prices_what_it_handles() {
    check_policy(BootPolicy::SeverifastVmlinux);
}

#[test]
fn qemu_ovmf_prices_what_it_handles() {
    check_policy(BootPolicy::QemuOvmf);
}
