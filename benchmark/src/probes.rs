//! The per-layer probe battery of the traced pass.
//!
//! Each probe times one public call of one layer from the benchmark's side,
//! inside a span, sized with the byte counts one AWS-kernel boot moves. The
//! battery is the same whatever workload the traced pass belongs to.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use sevf_attest::{GuestAttestClient, MeasuredItem};
use sevf_attplane::{AttPlane, AttPlaneConfig};
use sevf_cluster::{
    ClusterConfig, ClusterReport, ClusterService, HashRing, PlacementPolicy, Router,
};
use sevf_codec::Codec;
use sevf_crypto::{hmac_sha384, sha256, sha384, sha384_x4, DhKeyPair, XexCipher};
use sevf_fleet::{Catalog, FleetConfig, FleetService, ServingTier};
use sevf_image::kernel::KernelConfig;
use sevf_image::{bzimage, cpio, elf::ElfImage, initrd};
use sevf_mem::{GuestMemory, PAGE_SIZE};
use sevf_net::{DetectorConfig, HostLease, LeaseConfig, LeaseLedger, LinkPlan, PhiDetector};
use sevf_policy::{IsolationTier, PolicyConfig, PolicyEngine, WfqQueue};
use sevf_psp::{
    paged_measure, IncrementalChain, MeasurementChain, PageDigestCache, PageRef, PageType,
    TemplateKey,
};
use sevf_scale::{curve_arrivals, Autoscaler, Observation};
use sevf_sim::cost::SevGeneration;
use sevf_sim::rng::XorShift64;
use sevf_sim::{DesEngine, FaultConfig, FaultPlan, Job, Nanos, PhaseKind, Segment};
use sevf_verifier::layout::GuestLayout;
use sevf_verifier::verify::{self, KernelKind, VerifierConfig};
use sevf_vmm::config::LaunchMode;
use sevf_vmm::{concurrent, guest_kernel, BootPolicy, BootReport, Machine, MicroVm, VmConfig};

use crate::metrics::{Metric, PER_LAYER};
use crate::paper::{anchors, Anchor};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{
    boot_config, serve_core_config, serve_elastic_config, serve_storm_config, serving_catalog,
    with_attplane, with_net, with_outage, with_policy, Size, SERVE_REQUESTS, SERVE_RPS,
};

const MIB: u64 = 1024 * 1024;
/// Requests per ladder rung: the serving workloads' own stream, because
/// host time per request depends on the stream's length.
const RUNG_REQUESTS: usize = SERVE_REQUESTS;
/// Requests per single-host fleet-tier probe.
const TIER_REQUESTS: usize = 40_000;
/// Repetitions per fleet-tier probe (the median is reported).
const TIER_REPS: usize = 2;

/// What the battery produced.
#[derive(Debug, Default)]
pub struct BatteryResult {
    /// Every per-layer metric except `bench.*`, in table order.
    pub metrics: Vec<Metric>,
    /// Failed output checks.
    pub failures: Vec<String>,
    /// Checks made.
    pub checks: u64,
    /// One line per paper anchor: simulated value beside the paper's.
    pub anchors: Vec<String>,
}

struct Battery<'a> {
    tracer: &'a mut Tracer,
    seed: u64,
    out: BatteryResult,
}

fn ms(secs: f64) -> f64 {
    secs * 1e3
}

fn us(secs: f64) -> f64 {
    secs * 1e6
}

fn mb_s(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / 1e6 / secs
}

impl Battery<'_> {
    /// Runs `f` inside a span and returns its result with the seconds taken.
    fn timed<R>(&mut self, span: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.tracer.begin(span);
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        self.tracer.end(id);
        (out, secs)
    }

    /// Median seconds of `reps` timed runs of `f`.
    fn median_secs(&mut self, span: &str, reps: usize, mut f: impl FnMut()) -> f64 {
        let samples: Vec<f64> = (0..reps).map(|_| self.timed(span, &mut f).1).collect();
        median(&samples)
    }

    /// Seconds per iteration of a tight loop of `iters` calls of `f`.
    fn per_call(&mut self, span: &str, iters: u64, mut f: impl FnMut(u64)) -> f64 {
        let ((), secs) = self.timed(span, || {
            for i in 0..iters {
                f(i);
            }
        });
        secs / iters as f64
    }

    fn put(&mut self, name: &str, value: f64) {
        let unit = PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .map_or("?", |m| m.unit);
        self.out.metrics.push(Metric::new(name, unit, value));
    }

    fn check(&mut self, ok: bool, what: &str) {
        self.out.checks += 1;
        if !ok {
            self.out.failures.push(what.to_string());
        }
    }

    /// Unwraps `r`, recording a failed check (and returning `None`) on error.
    fn ok<T, E: std::fmt::Display>(&mut self, r: Result<T, E>, what: &str) -> Option<T> {
        self.out.checks += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.out.failures.push(format!("{what}: {e}"));
                None
            }
        }
    }
}

/// The AWS-kernel artifacts the probes are sized with.
struct Artifacts {
    vmlinux: Vec<u8>,
    bzimage: Arc<Vec<u8>>,
    initrd: Arc<Vec<u8>>,
}

fn artifacts() -> Artifacts {
    let image = KernelConfig::aws().build();
    Artifacts {
        vmlinux: image.vmlinux().to_vec(),
        bzimage: image.bzimage(Codec::Lz4),
        initrd: initrd::build_initrd(initrd::FULL_SIZE),
    }
}

fn crypto(b: &mut Battery, a: &Artifacts) {
    // SHA-256 is what the verifier and the VMM run over whole images.
    let secs = b.median_secs("crypto.sha256", 3, || {
        black_box(sha256(black_box(&a.bzimage)));
    });
    b.put("crypto.sha256_mb_s", mb_s(a.bzimage.len(), secs));

    // SHA-384 is the launch-digest hash; OVMF's 1 MiB is the largest thing
    // a boot feeds it.
    let four_mib = &a.vmlinux[..4 * MIB as usize];
    let secs = b.median_secs("crypto.sha384", 3, || {
        black_box(sha384(black_box(four_mib)));
    });
    b.put("crypto.sha384_mb_s", mb_s(four_mib.len(), secs));
    let lanes: [&[u8]; 4] = [
        &four_mib[..MIB as usize],
        &four_mib[MIB as usize..2 * MIB as usize],
        &four_mib[2 * MIB as usize..3 * MIB as usize],
        &four_mib[3 * MIB as usize..],
    ];
    let secs = b.median_secs("crypto.sha384_x4", 3, || {
        black_box(sha384_x4(black_box(lanes)));
    });
    b.put("crypto.sha384_x4_mb_s", mb_s(four_mib.len(), secs));
    let scalar: Vec<[u8; 48]> = lanes.iter().map(|l| sha384(l)).collect();
    b.check(
        sha384_x4(lanes).as_slice() == scalar.as_slice(),
        "sha384_x4 disagrees with four scalar sha384 calls",
    );

    let cipher = XexCipher::new(&[7u8; 16]);
    let mib = &a.vmlinux[..MIB as usize];
    let secs = b.median_secs("crypto.xex_encrypt", 3, || {
        black_box(cipher.encrypt(0x10_0000, black_box(mib)));
    });
    b.put("crypto.xex_mb_s", mb_s(mib.len(), secs));
    b.check(
        cipher.decrypt(0x10_0000, &cipher.encrypt(0x10_0000, &mib[..4096])) == mib[..4096],
        "XEX decrypt(encrypt(x)) != x",
    );

    // An attestation report body is a few hundred bytes.
    let body = &a.vmlinux[..256];
    let secs = b.per_call("crypto.hmac_sha384", 2_000, |i| {
        black_box(hmac_sha384(&i.to_le_bytes(), black_box(body)));
    });
    b.put("crypto.hmac_sha384_us", us(secs));

    let owner = DhKeyPair::from_seed(b"owner");
    let secs = b.per_call("crypto.dh_exchange", 20, |i| {
        let guest = DhKeyPair::from_seed(&i.to_le_bytes());
        black_box(guest.shared_secret(&owner.public_key()));
    });
    b.put("crypto.dh_exchange_us", us(secs));
}

fn codec_and_image(b: &mut Battery, a: &Artifacts) {
    let (packed, secs) = b.timed("codec.lz4::compress", || {
        sevf_codec::lz4::compress(black_box(&a.vmlinux))
    });
    b.put("codec.lz4_compress_mb_s", mb_s(a.vmlinux.len(), secs));
    let (unpacked, secs) = b.timed("codec.lz4::decompress", || {
        sevf_codec::lz4::decompress(black_box(&packed))
    });
    b.put("codec.lz4_decompress_mb_s", mb_s(a.vmlinux.len(), secs));
    b.check(
        unpacked.as_deref() == Ok(a.vmlinux.as_slice()),
        "lz4 round trip changed the image",
    );

    // `KernelConfig::build` is cached process-wide by (name, size); a
    // renamed config of the same size and profile builds from scratch.
    let fresh = KernelConfig {
        name: format!("aws-probe-{}", b.seed),
        ..KernelConfig::aws()
    };
    let (built, secs) = b.timed("image.KernelConfig::build", || fresh.build());
    b.put("image.kernel_build_ms", ms(secs));
    b.check(
        built.vmlinux().len() == a.vmlinux.len(),
        "probe kernel differs in size from the AWS kernel",
    );

    let (bz, secs) = b.timed("image.bzimage::build", || {
        bzimage::build(black_box(&a.vmlinux), Codec::Lz4)
    });
    b.put("image.bzimage_build_ms", ms(secs));
    b.check(bz == **a.bzimage, "bzimage::build is not deterministic");
    let (unpacked, secs) = b.timed("image.bzimage::unpack_vmlinux", || {
        bzimage::unpack_vmlinux(black_box(&bz))
    });
    b.put("image.bzimage_unpack_ms", ms(secs));
    b.check(
        unpacked.as_deref() == Ok(a.vmlinux.as_slice()),
        "bzImage unpack changed the vmlinux",
    );
    let (parsed, secs) = b.timed("image.ElfImage::parse", || {
        ElfImage::parse(black_box(&a.vmlinux))
    });
    b.put("image.elf_parse_us", us(secs));
    b.check(parsed.is_ok(), "the AWS vmlinux does not parse as ELF");

    if let Some(entries) = b.ok(cpio::parse(&a.initrd), "cpio::parse(initrd)") {
        let (archive, secs) = b.timed("image.cpio::build", || cpio::build(black_box(&entries)));
        b.put("image.cpio_build_ms", ms(secs));
        b.check(archive == **a.initrd, "cpio::build(parse(x)) != x");
    }
}

fn mem(b: &mut Battery, a: &Artifacts) {
    let key = [9u8; 16];
    let (mut guest, secs) = b.timed("mem.GuestMemory::new_sev", || {
        GuestMemory::new_sev(256 * MIB, key, SevGeneration::SevSnp)
    });
    b.put("mem.new_sev_ms", ms(secs));

    // LAUNCH_UPDATE_DATA's memory half, over an OVMF-sized region.
    let region = &a.vmlinux[..MIB as usize];
    let base = 0x20_0000;
    let wrote = guest.host_write(base, region);
    b.ok(wrote, "host_write(1 MiB)");
    let (plain, secs) = b.timed("mem.GuestMemory::pre_encrypt", || {
        guest.pre_encrypt(base, region.len() as u64)
    });
    b.put("mem.pre_encrypt_mb_s", mb_s(region.len(), secs));
    b.check(
        plain.as_deref() == Ok(region),
        "pre_encrypt returned other plaintext than was written",
    );

    // The verifier's pvalidate sweep and private copies, over 64 MiB.
    let private = 64 * MIB;
    let at = 0x100_0000;
    let assigned = guest.rmp_assign(at, private);
    b.ok(assigned, "rmp_assign(64 MiB)");
    let (validated, secs) = b.timed("mem.GuestMemory::pvalidate", || {
        guest.pvalidate(at, private)
    });
    let pages = private / PAGE_SIZE;
    b.put("mem.pvalidate_pages_s", pages as f64 / secs);
    b.check(validated == Ok(pages), "pvalidate did not cover the range");
    let (wrote, secs) = b.timed("mem.GuestMemory::guest_write", || {
        guest.guest_write(at, black_box(&a.initrd), true)
    });
    b.put("mem.guest_write_mb_s", mb_s(a.initrd.len(), secs));
    b.ok(wrote, "guest_write(initrd)");
    let back = guest.guest_read(at, 4096, true);
    b.check(
        back.as_deref() == Ok(&a.initrd[..4096]),
        "guest_read does not return what guest_write stored",
    );

    let ((), secs) = b.timed("mem.clone_pages+restore_pages", || {
        let image = guest.clone_pages();
        black_box(guest.restore_pages(&image));
    });
    b.put("mem.clone_restore_ms", ms(secs));
}

fn page_refs(pages: &[[u8; 4096]]) -> Vec<PageRef<'_>> {
    pages
        .iter()
        .enumerate()
        .map(|(i, data)| PageRef {
            gpa: i as u64 * 4096,
            page_type: PageType::Normal,
            data,
        })
        .collect()
}

fn psp_measurement(b: &mut Battery, a: &Artifacts) {
    // 1024 pages with 32 dirtied at the tail: the §6.2 template-hit shape.
    let mut pages: Vec<[u8; 4096]> = a.vmlinux[..4 * MIB as usize]
        .chunks_exact(4096)
        .map(|c| c.try_into().expect("4096-byte chunk"))
        .collect();
    let bytes = pages.len() * 4096;
    let (full, secs) = b.timed("psp.MeasurementChain", || {
        let mut chain = MeasurementChain::new();
        for r in page_refs(&pages) {
            chain.add_page(r.gpa, r.data);
        }
        chain.finalize()
    });
    b.put("psp.measure_full_mb_s", mb_s(bytes, secs));

    let mut incremental = IncrementalChain::new();
    let primed = incremental.measure(&page_refs(&pages));
    b.check(
        primed == full,
        "IncrementalChain differs from the full chain",
    );
    let mut cache = PageDigestCache::new();
    paged_measure(&page_refs(&pages), &mut cache);
    for p in pages.iter_mut().rev().take(32) {
        p[0] = p[0].wrapping_add(1);
    }
    let (inc, secs) = b.timed("psp.IncrementalChain::measure", || {
        incremental.measure(&page_refs(&pages))
    });
    b.put("psp.measure_incremental_mb_s", mb_s(bytes, secs));
    let ((), secs) = b.timed("psp.paged_measure(warm)", || {
        black_box(paged_measure(&page_refs(&pages), &mut cache));
    });
    b.put("psp.paged_measure_warm_mb_s", mb_s(bytes, secs));
    let mut fresh = MeasurementChain::new();
    for r in page_refs(&pages) {
        fresh.add_page(r.gpa, r.data);
    }
    b.check(
        inc == fresh.finalize(),
        "incremental re-measure differs from a from-scratch chain",
    );
}

/// Seconds per public call of one hand-driven boot, by span name.
type Steps = Vec<(&'static str, f64)>;

fn step(steps: &Steps, name: &str) -> f64 {
    steps
        .iter()
        .filter(|(n, _)| *n == name)
        .map(|(_, s)| *s)
        .sum()
}

/// Boots the AWS kernel under `policy` by calling, from here, the public
/// functions `MicroVm::boot` calls — so each one can be timed. For the
/// vmlinux policy it stops after the fw_cfg loader.
fn manual_boot(b: &mut Battery, policy: BootPolicy) -> Result<Steps, String> {
    let e = |e: &dyn std::fmt::Display| e.to_string();
    let mut steps: Steps = Vec::new();
    macro_rules! timed {
        ($name:expr, $body:expr) => {{
            let (out, secs) = b.timed($name, || $body);
            steps.push(($name, secs));
            out
        }};
    }

    let config = plain_config(policy, KernelConfig::aws());
    let vm = MicroVm::new(config.clone()).map_err(|x| e(&x))?;
    let mut machine = Machine::new(b.seed);
    let cost = machine.cost.clone();
    let generation = config.generation;

    // What `artifacts()` derives from the config (all cached by now).
    let image = config.kernel.build();
    let kernel_bytes: Arc<Vec<u8>> = if policy == BootPolicy::SeverifastVmlinux {
        let (ehdr, phdrs, segs) = image.elf().fw_cfg_pieces();
        Arc::new([ehdr, phdrs, segs].concat())
    } else {
        image.bzimage(config.kernel_codec)
    };
    let initrd_bytes = initrd::build_initrd(config.initrd_size);
    let layout = GuestLayout::plan_with_expansion(
        config.mem_size,
        kernel_bytes.len() as u64,
        initrd_bytes.len() as u64,
        policy.uses_bzimage(),
    )
    .map_err(|x| e(&x))?;

    let plan: Vec<MeasuredItem> =
        timed!("vmm.MicroVm::pre_encryption_plan", vm.pre_encryption_plan()).map_err(|x| e(&x))?;
    let expected = timed!(
        "attest.expected_measurement",
        sevf_attest::expected_measurement(&plan, config.vcpus)
    );
    machine.owner.expect_measurement(expected);

    let start = timed!(
        "psp.Psp::launch_start",
        machine.psp.launch_start(generation)
    )
    .map_err(|x| e(&x))?;
    let guest = start.guest;
    let mut mem = timed!(
        "mem.GuestMemory::new_sev",
        GuestMemory::new_sev(config.mem_size, start.memory_key, generation)
    );
    timed!("psp.Psp::rmp_init", machine.psp.rmp_init(guest, &mem)).map_err(|x| e(&x))?;
    timed!("mem.GuestMemory::host_write(staging)", {
        mem.host_write(layout.kernel_staging, &kernel_bytes)
            .and_then(|()| mem.host_write(layout.initrd_staging, &initrd_bytes))
    })
    .map_err(|x| e(&x))?;
    timed!("psp.Psp::launch_update_data", {
        plan.iter().try_for_each(|item| {
            mem.host_write(item.gpa, &item.data).map_err(|x| e(&x))?;
            machine
                .psp
                .launch_update_data(guest, &mut mem, item.gpa, item.data.len() as u64)
                .map(|_| ())
                .map_err(|x| e(&x))
        })
    })?;
    machine
        .psp
        .launch_update_vmsa(guest, config.vcpus, &[0u8; 4096])
        .map_err(|x| e(&x))?;
    timed!("mem.GuestMemory::rmp_assign", {
        layout
            .private_ranges()
            .into_iter()
            .try_for_each(|(base, len)| mem.rmp_assign(base, len))
    })
    .map_err(|x| e(&x))?;
    let finish =
        timed!("psp.Psp::launch_finish", machine.psp.launch_finish(guest)).map_err(|x| e(&x))?;
    b.check(
        finish.measurement == expected,
        "hand-driven launch digest differs from expected_measurement",
    );

    let vconfig = |kind, firmware_base, firmware_size| VerifierConfig {
        kind,
        huge_pages: config.huge_pages,
        c_bit: sevf_mem::C_BIT_POSITION,
        firmware_base,
        firmware_size,
    };
    let verified = match policy {
        BootPolicy::SeverifastVmlinux => {
            // The loader's precondition: the verifier's pvalidate sweep has
            // validated every assigned page the launch did not.
            for (base, len) in layout.private_ranges() {
                let mut page = base;
                while page < base + len {
                    if mem.is_assigned(page) && !mem.is_validated(page) {
                        mem.pvalidate(page, PAGE_SIZE).map_err(|x| e(&x))?;
                    }
                    page += PAGE_SIZE;
                }
            }
            let loaded = timed!(
                "verifier.loader::load_vmlinux_fw_cfg",
                sevf_verifier::loader::load_vmlinux_fw_cfg(&mut mem, &layout, &cost)
            )
            .map_err(|x| e(&x))?;
            b.check(
                loaded.computed_hashes.len() == 3,
                "fw_cfg loader did not hash three pieces",
            );
            return Ok(steps);
        }
        BootPolicy::QemuOvmf => {
            timed!(
                "ovmf.boot",
                sevf_ovmf::boot(
                    &mut mem,
                    &layout,
                    &cost,
                    KernelKind::Bzimage,
                    config.huge_pages
                )
            )
            .map_err(|x| e(&x))?
            .verified
        }
        _ => {
            let size = plan.first().map_or(0, |item| item.data.len() as u64);
            timed!(
                "verifier.verify::run",
                verify::run(
                    &mut mem,
                    &layout,
                    &cost,
                    vconfig(
                        KernelKind::Bzimage,
                        sevf_verifier::layout::VERIFIER_ADDR,
                        size
                    )
                )
            )
            .map_err(|x| e(&x))?
        }
    };

    let loader = timed!(
        "vmm.guest_kernel::run_bootstrap_loader",
        guest_kernel::run_bootstrap_loader(
            &mut mem,
            verified.kernel_entry,
            layout.kernel_size,
            &cost
        )
    )
    .map_err(|x| e(&x))?;
    let stage = timed!(
        "vmm.guest_kernel::run_kernel",
        guest_kernel::run_kernel(&mut mem, loader.vmlinux_entry, generation, &cost)
    )
    .map_err(|x| e(&x))?;
    b.check(stage.descriptor.has_network, "AWS kernel lost its network");

    let client = GuestAttestClient::new(&finish.measurement);
    let (report, _) = timed!(
        "psp.Psp::guest_report",
        machine.psp.guest_report(guest, client.report_data())
    )
    .map_err(|x| e(&x))?;
    let wrapped = timed!(
        "attest.GuestOwner::handle_report",
        machine.owner.handle_report(&report)
    )
    .map_err(|x| e(&x))?;
    let secret = timed!(
        "attest.GuestAttestClient::unwrap_secret",
        client.unwrap_secret(&wrapped)
    )
    .map_err(|x| e(&x))?;
    b.check(!secret.is_empty(), "no secret was provisioned");
    Ok(steps)
}

/// Simulated facts of the boots, for the paper anchors.
#[derive(Default)]
struct Boots {
    reports: Vec<(&'static str, BootReport)>,
}

impl Boots {
    fn get(&self, label: &str) -> Option<&BootReport> {
        self.reports
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, r)| r)
    }
}

fn plain_config(policy: BootPolicy, kernel: KernelConfig) -> VmConfig {
    VmConfig {
        jitter_seed: None,
        ..boot_config(
            policy,
            kernel,
            Size::full(crate::workloads::Kind::BootCold),
            0,
        )
    }
}

fn vmm(b: &mut Battery, boots: &mut Boots) {
    use BootPolicy::{QemuOvmf, Severifast, SeverifastVmlinux, StockFirecracker};
    // `(label, policy, kernel, reported)`: the last two boot for the Fig. 9
    // anchors only.
    let kinds = [
        (
            "severifast_lupine",
            Severifast,
            KernelConfig::lupine(),
            true,
        ),
        ("severifast_aws", Severifast, KernelConfig::aws(), true),
        (
            "severifast_ubuntu",
            Severifast,
            KernelConfig::ubuntu(),
            true,
        ),
        ("vmlinux_aws", SeverifastVmlinux, KernelConfig::aws(), true),
        ("ovmf_aws", QemuOvmf, KernelConfig::aws(), true),
        ("stock_aws", StockFirecracker, KernelConfig::aws(), true),
        ("ovmf_lupine", QemuOvmf, KernelConfig::lupine(), false),
        ("ovmf_ubuntu", QemuOvmf, KernelConfig::ubuntu(), false),
    ];
    let mut machine = Machine::new(b.seed);
    for (label, policy, kernel, reported) in kinds {
        let Some(vm) = b.ok(MicroVm::new(plain_config(policy, kernel)), label) else {
            continue;
        };
        // The expected digest is computed once per kind (it re-hashes the
        // kernel) and handed to the owner directly; only the AWS boot goes
        // through `register_expected`, to time it.
        let mut expected = None;
        if policy.is_sev() {
            let (digest, _) = b.timed("vmm.MicroVm::expected_measurement", || {
                vm.expected_measurement()
            });
            expected = b.ok(digest, label);
            if label == "severifast_aws" {
                let (registered, secs) = b.timed("vmm.MicroVm::register_expected", || {
                    vm.register_expected(&mut machine)
                });
                b.ok(registered, label);
                b.put("vmm.register_expected_ms", ms(secs));
            } else if let Some(digest) = expected {
                machine.owner.expect_measurement(digest);
            }
        }
        let (report, secs) = b.timed("vmm.MicroVm::boot", || vm.boot(&mut machine));
        if reported {
            b.put(&format!("vmm.boot_ms.{label}"), ms(secs));
        }
        if let Some(report) = b.ok(report, label) {
            b.check(
                report.measurement == expected,
                &format!("{label}: launch digest != expected"),
            );
            boots.reports.push((label, report));
        }
    }

    // §6.2 template pair on the same machine.
    let mut template = plain_config(BootPolicy::Severifast, KernelConfig::aws());
    template.launch_mode = LaunchMode::SharedKeyTemplate;
    if let Some(vm) = b.ok(MicroVm::new(template), "template") {
        let registered = vm.register_expected(&mut machine);
        b.ok(registered, "template register");
        let (fill, secs) = b.timed("vmm.template_fill", || vm.boot(&mut machine));
        b.put("vmm.template_fill_ms", ms(secs));
        let (hit, secs) = b.timed("vmm.template_hit", || vm.boot(&mut machine));
        b.put("vmm.template_hit_ms", ms(secs));
        if let (Some(fill), Some(hit)) = (b.ok(fill, "template fill"), b.ok(hit, "template hit")) {
            b.check(
                (hit.psp_busy.as_nanos() as f64) < 0.05 * fill.psp_busy.as_nanos() as f64,
                "template hit PSP time is not under 5 % of the fill's",
            );
            boots.reports.push(("template_fill", fill));
            boots.reports.push(("template_hit", hit));
        }
    }

    // §7.1 keep-alive: boot, snapshot, restore.
    if let Some(vm) = b.ok(
        MicroVm::new(plain_config(BootPolicy::Severifast, KernelConfig::aws())),
        "keepalive",
    ) {
        let (kept, secs) = b.timed("vmm.MicroVm::boot_keep_alive", || {
            vm.boot_keep_alive(&mut machine)
        });
        b.put("vmm.keepalive_boot_ms", ms(secs));
        if let Some((_, mut warm)) = b.ok(kept, "boot_keep_alive") {
            let (snapshot, secs) = b.timed("vmm.KeepAliveVm::snapshot", || warm.snapshot());
            b.put("vmm.snapshot_ms", ms(secs));
            let cost = machine.cost.clone();
            let (restored, secs) = b.timed("vmm.KeepAliveVm::restore", || {
                warm.restore(&snapshot, &cost)
            });
            b.put("vmm.restore_ms", ms(secs));
            b.ok(restored, "restore");
            let invoked = warm.invoke(&cost);
            b.check(
                invoked.latency > Nanos::ZERO,
                "warm invocation took no time",
            );
        }
    }
}

/// Hand-driven boots (see [`manual_boot`]): SEVeriFast for every step and
/// for `vmm.unattributed_pct`, OVMF for the firmware and its 1.1 MiB
/// pre-encryption, vmlinux for the fw_cfg loader.
fn launch_probes(b: &mut Battery) {
    // `MicroVm::boot` and its hand-driven twin alternate three times; the
    // medians are compared, because single boots scatter by several percent
    // and what is left unattributed is of that order.
    let mut machine = Machine::new(b.seed);
    let vm = MicroVm::new(plain_config(BootPolicy::Severifast, KernelConfig::aws()));
    if let Some(vm) = b.ok(vm, "unattributed") {
        let registered = vm.register_expected(&mut machine);
        b.ok(registered, "unattributed register");
        let (mut boots, mut manual) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            let (report, secs) = b.timed("vmm.MicroVm::boot", || vm.boot(&mut machine));
            if b.ok(report, "unattributed boot").is_some() {
                boots.push(secs);
            }
            let steps = manual_boot(b, BootPolicy::Severifast);
            manual.extend(b.ok(steps, "hand-driven SEVeriFast boot"));
        }
        if !boots.is_empty() && !manual.is_empty() {
            let of = |name: &str| median(&manual.iter().map(|s| step(s, name)).collect::<Vec<_>>());
            b.put("psp.rmp_init_ms", ms(of("psp.Psp::rmp_init")));
            b.put("psp.report_us", us(of("psp.Psp::guest_report")));
            b.put("verifier.run_ms", ms(of("verifier.verify::run")));
            b.put(
                "attest.expected_measurement_ms",
                ms(of("attest.expected_measurement")),
            );
            b.put(
                "attest.handle_report_us",
                us(of("attest.GuestOwner::handle_report")),
            );
            let attributed = median(
                &manual
                    .iter()
                    .map(|steps| steps.iter().map(|(_, s)| s).sum())
                    .collect::<Vec<f64>>(),
            );
            let boot = median(&boots);
            b.put("vmm.unattributed_pct", 100.0 * (boot - attributed) / boot);
        }
    }
    let steps = manual_boot(b, BootPolicy::QemuOvmf);
    if let Some(steps) = b.ok(steps, "hand-driven OVMF boot") {
        b.put("ovmf.boot_ms", ms(step(&steps, "ovmf.boot")));
        let bytes = (sevf_ovmf::OVMF_IMAGE_SIZE + sevf_ovmf::OVMF_METADATA_SIZE) as usize;
        b.put(
            "psp.launch_update_mb_s",
            mb_s(bytes, step(&steps, "psp.Psp::launch_update_data")),
        );
    }
    let steps = manual_boot(b, BootPolicy::SeverifastVmlinux);
    if let Some(steps) = b.ok(steps, "hand-driven vmlinux boot") {
        b.put(
            "verifier.load_vmlinux_ms",
            ms(step(&steps, "verifier.loader::load_vmlinux_fw_cfg")),
        );
    }
}

fn sim(b: &mut Battery) {
    // The perf_sweep job shape: mostly delay-dominated round trips, a slice
    // of PSP/CPU launches.
    let mut engine = DesEngine::new();
    let psp = engine.add_resource("psp", 1);
    let cpu = engine.add_resource("cpu", 16);
    let mut rng = XorShift64::new(b.seed);
    let jobs: Vec<Job> = (0..200_000)
        .map(|_| {
            let release = Nanos::from_nanos(rng.next_below(4_000_000_000));
            let segments = match rng.next_below(10) {
                0..=7 => vec![
                    Segment::delay(
                        Nanos::from_nanos(1_000_000 + rng.next_below(2_000_000_000)),
                        "net",
                    ),
                    Segment::delay(
                        Nanos::from_nanos(1_000_000 + rng.next_below(2_000_000_000)),
                        "net",
                    ),
                ],
                8 => vec![
                    Segment::on(cpu, Nanos::from_nanos(500 + rng.next_below(2_000)), "cpu"),
                    Segment::on(psp, Nanos::from_nanos(200 + rng.next_below(800)), "psp"),
                ],
                _ => vec![Segment::on(
                    cpu,
                    Nanos::from_nanos(300 + rng.next_below(700)),
                    "cpu",
                )],
            };
            Job::released_at(release, segments)
        })
        .collect();
    let n = jobs.len();
    let (outcomes, secs) = b.timed("sim.DesEngine::run", || engine.run(jobs));
    b.put("sim.des_us_per_job", us(secs) / n as f64);
    b.check(outcomes.len() == n, "DES lost jobs");

    let horizon = Nanos::from_secs(655);
    let seed = b.seed;
    let (plan, secs) = b.timed("sim.FaultPlan::generate", || {
        FaultPlan::generate(seed, FaultConfig::storm(), horizon)
    });
    b.put("sim.fault_plan_generate_ms", ms(secs));
    b.check(
        plan.is_ok_and(|p| !p.resets().is_empty()),
        "the storm plan schedules no resets",
    );
}

/// Switches one optional layer of a cluster config on.
type Layer = fn(ClusterConfig) -> ClusterConfig;

/// Wall-µs per request of one run of a cluster config, with its report.
fn cluster_rung(
    b: &mut Battery,
    span: &str,
    catalog: &Catalog,
    config: &ClusterConfig,
) -> (f64, Option<ClusterReport>) {
    let (report, secs) = b.timed(span, || {
        ClusterService::new(catalog.clone(), config.clone()).map(ClusterService::run)
    });
    let report = b.ok(report, span);
    if let Some(report) = &report {
        b.check(
            report.metrics.conserved(),
            &format!("{span}: not conserved"),
        );
    }
    (us(secs) / config.requests as f64, report)
}

fn fleet_and_cluster(b: &mut Battery) {
    let size = Size::full(crate::workloads::Kind::ServeCore);
    let seed = b.seed;
    let (catalog, secs) = b.timed("fleet.Catalog::build", || serving_catalog(seed, size));
    b.put("fleet.catalog_build_ms", ms(secs));
    let Some(catalog) = b.ok(catalog, "Catalog::build") else {
        return;
    };

    // Single host, every layer off, one tier at a time. The cold tier is
    // offered 30 req/s: one PSP launches about 39 a second.
    for (tier, name, rate) in [
        (ServingTier::Cold, "cold", 30.0),
        (ServingTier::Template, "template", 160.0),
        (ServingTier::WarmPool, "warm", 160.0),
    ] {
        let config = FleetConfig {
            mix: Some(crate::workloads::paper_mix()),
            seed: b.seed,
            ..FleetConfig::open_loop(tier, rate, TIER_REQUESTS)
        };
        let mut samples = Vec::new();
        for _ in 0..TIER_REPS {
            let (report, secs) = b.timed(&format!("fleet.FleetService::run({name})"), || {
                FleetService::new(catalog.clone(), config.clone()).run()
            });
            b.check(
                report.metrics.completed as u64 + report.metrics.lost() == TIER_REQUESTS as u64,
                &format!("fleet {name}: not conserved"),
            );
            samples.push(us(secs) / TIER_REQUESTS as f64);
        }
        b.put(&format!("fleet.us_per_op.{name}"), median(&samples));
    }
    match serve_storm_config(b.seed, TIER_REQUESTS / 4) {
        Ok(config) => {
            let (report, _) = b.timed("fleet.FleetService::run(storm)", || {
                FleetService::new(catalog.clone(), config).run()
            });
            b.put("fleet.retries", report.metrics.retries as f64);
            b.put("fleet.breaker_trips", report.metrics.breaker_trips as f64);
            b.check(report.metrics.retries > 0, "the storm caused no retries");
        }
        Err(e) => b.check(false, &e),
    }

    // Router primitives.
    let mut ring = HashRing::new(b.seed, 64);
    for host in 0..4 {
        ring.insert(host);
    }
    let keys: Vec<TemplateKey> = (0..64u8)
        .map(|i| TemplateKey::from_measurement([i; 48]))
        .collect();
    let secs = b.per_call("cluster.HashRing::owner", 200_000, |i| {
        black_box(ring.owner(&keys[(i % 64) as usize]));
    });
    b.put("cluster.ring_owner_ns", secs * 1e9);
    let mut router = Router::new(PlacementPolicy::JsqPsp, b.seed, 4, 64);
    let hosts = [0usize, 1, 2, 3];
    let secs = b.per_call("cluster.Router::place", 200_000, |i| {
        black_box(router.place(
            &keys[(i % 64) as usize],
            &hosts,
            |h| Nanos::from_micros((h as u64 * 37 + i) % 900),
            |_| false,
        ));
    });
    b.put("cluster.router_place_ns", secs * 1e9);

    // The cumulative ladder on the serve_core stream.
    let core = serve_core_config(b.seed, RUNG_REQUESTS, SERVE_RPS);
    let (core_us, core_report) = cluster_rung(b, "cluster.rung(core)", &catalog, &core);
    b.put("cluster.rung_us.core", core_us);
    if let Some(report) = &core_report {
        b.put(
            "sim.des_events_per_op",
            report.trace.entries().len() as f64 / RUNG_REQUESTS as f64,
        );
    }
    let mut config = core.clone();
    let mut previous = core_us;
    let mut top = None;
    let layers: [(&str, Layer); 4] = [
        ("attplane", with_attplane),
        ("net", with_net),
        ("policy", with_policy),
        ("outage", with_outage),
    ];
    for (name, layer) in layers {
        config = layer(config);
        let (cumulative, report) =
            cluster_rung(b, &format!("cluster.rung(+{name})"), &catalog, &config);
        b.put(&format!("cluster.rung_us.{name}"), cumulative - previous);
        previous = cumulative;
        top = report;
    }
    b.put("cluster.rung_us.total", previous);
    let (elastic_us, elastic) = cluster_rung(
        b,
        "cluster.rung(elastic)",
        &catalog,
        &serve_elastic_config(b.seed, RUNG_REQUESTS, SERVE_RPS),
    );
    b.put("cluster.rung_us.elastic", elastic_us - core_us);

    // The mechanism counts of the top rung and of the elastic rung.
    if let Some(top) = &top {
        let m = &top.metrics;
        b.put("cluster.failovers", m.failovers as f64);
        b.put("net.lost", m.net_lost as f64);
        b.put("net.timeouts", m.net_timeouts as f64);
        b.put("policy.rejected", m.rejected as f64);
        b.check(
            m.posture_violations == 0,
            "posture violations on the top rung",
        );
        if let Some(att) = top.attestation {
            b.put("attplane.hit_rate", att.hit_rate());
            b.put("attplane.verifications", att.verifications as f64);
        }
    }
    if let Some(auto) = elastic.as_ref().and_then(|r| r.autoscale.as_ref()) {
        b.put("scale.scale_outs", auto.scale_outs as f64);
        b.put("scale.scale_ins", auto.scale_ins as f64);
    }

    // sevf-obs's Recorder on the core rung.
    // 5 000 requests: the Recorder keeps ~24 spans per request and the
    // Chrome export of half a million spans alone takes a second.
    let traced_config = serve_core_config(b.seed, 5_000, SERVE_RPS);
    let (plain, plain_secs) = b.timed("obs.ClusterService::run", || {
        ClusterService::new(catalog.clone(), traced_config.clone()).map(ClusterService::run)
    });
    let (traced, traced_secs) = b.timed("obs.ClusterService::run_traced", || {
        ClusterService::new(catalog.clone(), traced_config.clone()).map(ClusterService::run_traced)
    });
    b.put("obs.trace_overhead_x", traced_secs / plain_secs);
    if let (Some(plain), Some((report, log))) =
        (b.ok(plain, "obs run"), b.ok(traced, "obs run_traced"))
    {
        b.check(
            plain.metrics.completed == report.metrics.completed
                && plain.metrics.makespan == report.metrics.makespan,
            "run_traced simulated something else than run",
        );
        b.put(
            "obs.spans_per_op",
            log.spans.len() as f64 / traced_config.requests as f64,
        );
        let (json, secs) = b.timed("obs.chrome_trace_json", || {
            sevf_obs::chrome_trace_json(&log)
        });
        b.put("obs.export_chrome_ms", ms(secs));
        b.check(json.len() > 2, "empty Chrome trace from sevf-obs");
    }
}

fn control_plane(b: &mut Battery) {
    // Attestation plane: a miss is forced by bumping the host's TCB, which
    // silently invalidates its cached chain.
    let config = AttPlaneConfig::cached_batched();
    if let Some(mut plane) = b.ok(AttPlane::new(config, 4), "AttPlane::new") {
        let mut now = Nanos::ZERO;
        let mut all_ok = true;
        let secs = b.per_call("attplane.verify_launch(miss)", 2_000, |i| {
            let host = (i % 4) as usize;
            now += Nanos::from_millis(20);
            all_ok &= plane.bump_tcb(host).is_ok();
            all_ok &= plane
                .verify_launch(host, now)
                .is_ok_and(|v| v.verdict.is_ok());
        });
        b.put("attplane.verify_miss_us", us(secs));
        // 1 ms apart: 20 s in all, inside the 60 s cache TTL.
        let secs = b.per_call("attplane.verify_launch(hit)", 20_000, |i| {
            now += Nanos::from_millis(1);
            all_ok &= plane
                .verify_launch((i % 4) as usize, now)
                .is_ok_and(|v| v.verdict.is_ok());
        });
        b.put("attplane.verify_hit_us", us(secs));
        b.check(all_ok, "a verification was refused");
        b.check(
            plane.metrics().cert_hits >= 20_000 && plane.metrics().cert_fetches >= 2_000,
            "hit/miss probes did not hit/miss",
        );
    }

    // Net.
    let net = with_net(serve_core_config(b.seed, RUNG_REQUESTS, SERVE_RPS))
        .net
        .expect("with_net sets a net config");
    let seed = b.seed;
    let (plan, secs) = b.timed("net.LinkPlan::generate", || {
        LinkPlan::generate(seed, net.clone(), 4)
    });
    b.put("net.plan_generate_ms", ms(secs));
    b.ok(plan, "LinkPlan::generate");
    let gap = Nanos::from_millis(50);
    let mut detector = PhiDetector::new(4, DetectorConfig::default(), gap);
    let mut suspected = 0u64;
    let secs = b.per_call("net.PhiDetector::heartbeat+suspected", 200_000, |i| {
        let host = (i % 4) as usize;
        let at = gap.scale(i / 4 + 1);
        detector.heartbeat(host, at);
        suspected += u64::from(detector.suspected(host, at + Nanos::from_millis(10)));
    });
    b.put("net.detector_observe_ns", secs * 1e9);
    b.check(suspected == 0, "a live host was suspected");
    let lease_config = LeaseConfig {
        duration: Nanos::from_millis(300),
        renew_every: Nanos::from_millis(100),
    };
    let mut ledger = LeaseLedger::new(4, lease_config, Nanos::from_millis(1));
    let mut lease = HostLease::initial(lease_config);
    let mut live = 0u64;
    let secs = b.per_call("net.lease renew+valid_at+safe_at", 200_000, |i| {
        let at = Nanos::from_millis(100).scale(i + 1);
        lease.renew(at, lease_config);
        ledger.on_grant((i % 4) as usize, at);
        live += u64::from(lease.valid_at(at + Nanos::from_millis(50)));
        black_box(ledger.safe_at((i % 4) as usize));
    });
    b.put("net.lease_check_ns", secs * 1e9);
    b.check(live == 200_000, "a renewed lease lapsed");

    // Policy.
    let policy = PolicyConfig::enforced(sevf_cluster::PolicySweepConfig::paper_policy().tenants());
    if let Some(mut engine) = b.ok(
        PolicyEngine::new(&policy, IsolationTier::SevSnp, 5),
        "PolicyEngine::new",
    ) {
        let tenants = engine.tenant_count() as u64;
        let secs = b.per_call("policy.PolicyEngine::evaluate", 200_000, |i| {
            black_box(engine.evaluate((i % tenants) as usize, Nanos::from_micros(i * 100)));
        });
        b.put("policy.evaluate_ns", secs * 1e9);
        match WfqQueue::<u64>::new(256, &engine.lane_specs(), b.seed) {
            Ok(mut queue) => {
                let mut popped = 0u64;
                let secs = b.per_call("policy.WfqQueue::offer+pop", 200_000, |i| {
                    black_box(queue.offer(
                        (i % tenants) as usize,
                        i,
                        Nanos::from_micros(500 + i % 700),
                    ));
                    // Keep a standing backlog of ~128 so pops choose
                    // between lanes.
                    if i >= 128 {
                        popped += u64::from(queue.pop().is_some());
                    }
                });
                b.put("policy.wfq_ns_per_op", secs * 1e9);
                b.check(popped > 0, "WFQ popped nothing");
            }
            Err(e) => b.check(false, &e.to_string()),
        }
    }

    // Scale.
    let elastic = serve_elastic_config(b.seed, RUNG_REQUESTS, SERVE_RPS);
    let curve = elastic.workload.expect("serve_elastic has a curve");
    let mut rng = XorShift64::new(b.seed);
    let (arrivals, secs) = b.timed("scale.curve_arrivals", || {
        curve_arrivals(&curve, 200_000, &mut rng)
    });
    b.put("scale.curve_arrivals_ns_per_op", secs * 1e9 / 200_000.0);
    b.check(
        arrivals.windows(2).all(|w| w[0] <= w[1]),
        "curve arrivals are not sorted",
    );
    let scaler = elastic.autoscaler.expect("serve_elastic has an autoscaler");
    if let Some(mut auto) = b.ok(Autoscaler::new(scaler), "Autoscaler::new") {
        let secs = b.per_call("scale.Autoscaler::tick", 200_000, |i| {
            black_box(auto.tick(&Observation {
                now: scaler.tick.scale(i + 1),
                live_hosts: 2 + (i % 5) as usize,
                arrivals: (20 + i % 40) as usize,
                backlog: (i % 16) as usize,
                queued: (i % 7) as usize,
            }));
        });
        b.put("scale.autoscaler_tick_ns", secs * 1e9);
    }
}

fn simulated(anchor: &Anchor, boots: &Boots) -> Option<f64> {
    let total = |l: &str| boots.get(l).map(|r| r.total_time().as_millis_f64());
    let reduction = |sev: &str, qemu: &str| Some(100.0 * (1.0 - total(sev)? / total(qemu)?));
    let aws = boots.get("severifast_aws");
    let stock = boots.get("stock_aws");
    let ovmf = boots.get("ovmf_aws");
    match anchor.id.as_str() {
        "fig9.reduction_lupine_pct" => reduction("severifast_lupine", "ovmf_lupine"),
        "fig9.reduction_aws_pct" => reduction("severifast_aws", "ovmf_aws"),
        "fig9.reduction_ubuntu_pct" => reduction("severifast_ubuntu", "ovmf_ubuntu"),
        "fig11.boot_vs_stock_x" => {
            Some(aws?.boot_time().as_millis_f64() / stock?.boot_time().as_millis_f64())
        }
        "fig10.severifast_verification_aws_ms" => Some(aws?.firmware_total().as_millis_f64()),
        "fig11.linux_boot_vs_stock_x" => Some(
            aws?.phase(PhaseKind::LinuxBoot).as_millis_f64()
                / stock?.phase(PhaseKind::LinuxBoot).as_millis_f64(),
        ),
        // Fig. 12 plots boot time: the replay's mean less the attestation
        // round trip every boot ends with (a network wait nothing queues on).
        "fig12.mean_at_50_ms" => Some(
            concurrent::run_concurrent(aws?, 50).summary.mean
                - aws?.phase(PhaseKind::Attestation).as_millis_f64(),
        ),
        "fig10.severifast_pre_encryption_aws_ms" => Some(aws?.pre_encryption().as_millis_f64()),
        "fig10.qemu_pre_encryption_aws_ms" => Some(ovmf?.pre_encryption().as_millis_f64()),
        "fig10.qemu_firmware_aws_ms" => Some(ovmf?.firmware_total().as_millis_f64()),
        _ => None,
    }
}

fn paper(b: &mut Battery, boots: &Boots) {
    let (mut held, mut tuned) = (Vec::new(), Vec::new());
    let all = b.ok(anchors(), "reference/paper.json").unwrap_or_default();
    for anchor in &all {
        let Some(sim) = simulated(anchor, boots) else {
            b.check(
                false,
                &format!("no simulated value for anchor {}", anchor.id),
            );
            continue;
        };
        let err = 100.0 * (sim - anchor.paper).abs() / anchor.paper.abs();
        if anchor.tuned {
            tuned.push(err);
        } else {
            held.push(err);
        }
        b.out.anchors.push(format!(
            "anchor {} {} paper {} sim {:.4} err {:.2}% ({}, {})",
            anchor.id,
            anchor.unit,
            anchor.paper,
            sim,
            err,
            if anchor.tuned { "tuned" } else { "held_out" },
            anchor.source
        ));
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            f64::NAN
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    b.put("core.paper_err_pct", mean(&held));
    b.put("core.paper_err_tuned_pct", mean(&tuned));
}

/// Runs the whole battery. Metrics come back in `PER_LAYER` order, minus
/// the `bench.*` ones, which the traced pass adds itself.
pub fn run(seed: u64, tracer: &mut Tracer) -> BatteryResult {
    let mut b = Battery {
        tracer,
        seed,
        out: BatteryResult::default(),
    };
    let id = b.tracer.begin("bench.probe_battery");
    let a = artifacts();
    let mut boots = Boots::default();
    crypto(&mut b, &a);
    codec_and_image(&mut b, &a);
    mem(&mut b, &a);
    psp_measurement(&mut b, &a);
    vmm(&mut b, &mut boots);
    launch_probes(&mut b);
    sim(&mut b);
    fleet_and_cluster(&mut b);
    control_plane(&mut b);
    paper(&mut b, &boots);
    b.tracer.end(id);

    // Report in table order; a probe that could not run reads as a failure,
    // not as a missing key.
    let mut out = b.out;
    let mut ordered = Vec::with_capacity(PER_LAYER.len());
    for spec in PER_LAYER.iter().filter(|m| !m.name.starts_with("bench.")) {
        match out.metrics.iter().find(|m| m.name == spec.name) {
            Some(m) if m.value.is_finite() => ordered.push(m.clone()),
            _ => {
                out.failures
                    .push(format!("probe {} produced no number", spec.name));
                ordered.push(Metric::new(spec.name, spec.unit, -1.0));
            }
        }
    }
    out.metrics = ordered;
    out
}
