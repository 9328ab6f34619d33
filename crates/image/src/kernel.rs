//! Kernel configurations, the embedded descriptor, and image building.
//!
//! Fig. 8 of the paper:
//!
//! | config | vmlinux | bzImage (LZ4) |
//! |---|---|---|
//! | Lupine | 23 MB | 3.3 MB |
//! | AWS    | 43 MB | 7.1 MB |
//! | Ubuntu | 61 MB | 15 MB  |
//!
//! A [`KernelConfig`] describes one such kernel; [`KernelConfig::build`]
//! manufactures (and caches) the matching [`KernelImage`]: an ELF64 vmlinux
//! whose first bytes at the entry point are a [`KernelDescriptor`] that the
//! guest-kernel runtime executes in place of real Linux — it carries the
//! per-phase boot costs (calibrated so the AWS kernel boots in ≈ 40 ms on
//! stock Firecracker, §3.1) and whether the config has networking (the
//! Lupine config does not, so it skips attestation; §6.1).

use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};

use sevf_codec::Codec;
use sevf_crypto::{sha256, Digest256};

use crate::bzimage;
use crate::content::{generate, ContentProfile};
use crate::elf::{ElfImage, Segment, SegmentFlags, EHDR_SIZE, PHDR_SIZE};
use crate::{Component, ImageError};

const MB: u64 = 1024 * 1024;

/// Physical/virtual base address kernels are linked at (16 MiB, the typical
/// x86-64 default).
pub const KERNEL_BASE: u64 = 0x100_0000;

/// Magic identifying an embedded kernel descriptor.
const DESCRIPTOR_MAGIC: &[u8; 4] = b"SVKD";

/// Guest-kernel boot phase durations on a *non-SEV* baseline, microseconds.
/// The SNP multiplier from the cost model is applied by the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BootPhases {
    /// Early setup: paging, per-CPU areas, memblock.
    pub early_us: u32,
    /// Driver/subsystem initialization (initcalls).
    pub drivers_us: u32,
    /// Late boot: initrd unpack glue, mounting, exec of init.
    pub late_us: u32,
}

/// The descriptor embedded at the kernel entry point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelDescriptor {
    /// Kernel config name ("lupine", "aws", "ubuntu", ...).
    pub name: String,
    /// Baseline boot phase durations.
    pub phases: BootPhases,
    /// Whether this config includes virtio-net (required for attestation).
    pub has_network: bool,
    /// Declared size of the full vmlinux this descriptor belongs to.
    pub vmlinux_size: u64,
}

impl KernelDescriptor {
    /// Serialized size cap.
    const MAX_SIZE: usize = 64;

    /// Serializes to the on-image byte format.
    ///
    /// # Panics
    ///
    /// Panics if the name is longer than 32 bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        assert!(self.name.len() <= 32, "descriptor name too long");
        let mut out = Vec::with_capacity(Self::MAX_SIZE);
        out.extend_from_slice(DESCRIPTOR_MAGIC);
        out.push(1); // version
        out.push(self.name.len() as u8);
        out.extend_from_slice(self.name.as_bytes());
        out.extend_from_slice(&self.phases.early_us.to_le_bytes());
        out.extend_from_slice(&self.phases.drivers_us.to_le_bytes());
        out.extend_from_slice(&self.phases.late_us.to_le_bytes());
        out.push(self.has_network as u8);
        out.extend_from_slice(&self.vmlinux_size.to_le_bytes());
        out
    }

    /// Parses a descriptor from the start of a byte slice (e.g. guest memory
    /// at the kernel entry point).
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::BadDescriptor`] on bad magic or truncation.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ImageError> {
        if bytes.len() < 6 || &bytes[..4] != DESCRIPTOR_MAGIC {
            return Err(ImageError::BadDescriptor("missing SVKD magic"));
        }
        if bytes[4] != 1 {
            return Err(ImageError::BadDescriptor("unknown version"));
        }
        let name_len = bytes[5] as usize;
        let need = 6 + name_len + 4 * 3 + 1 + 8;
        if bytes.len() < need {
            return Err(ImageError::BadDescriptor("truncated"));
        }
        let name = std::str::from_utf8(&bytes[6..6 + name_len])
            .map_err(|_| ImageError::BadDescriptor("non-UTF-8 name"))?
            .to_string();
        let mut at = 6 + name_len;
        let mut read_u32 = || {
            let v = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
            at += 4;
            v
        };
        let early_us = read_u32();
        let drivers_us = read_u32();
        let late_us = read_u32();
        let has_network = bytes[at] != 0;
        let vmlinux_size = u64::from_le_bytes(bytes[at + 1..at + 9].try_into().expect("8"));
        Ok(KernelDescriptor {
            name,
            phases: BootPhases {
                early_us,
                drivers_us,
                late_us,
            },
            has_network,
            vmlinux_size,
        })
    }
}

/// A guest kernel configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelConfig {
    /// Config name (seeds the generated content).
    pub name: String,
    /// Target vmlinux size in bytes.
    pub vmlinux_size: u64,
    /// Content mix controlling compressibility.
    pub profile: ContentProfile,
    /// Baseline boot phase durations.
    pub phases: BootPhases,
    /// Whether the config includes networking.
    pub has_network: bool,
}

impl KernelConfig {
    /// The Lupine-base config: smallest Linux that boots in Firecracker;
    /// no networking, so no attestation (§6.1).
    pub fn lupine() -> Self {
        KernelConfig {
            name: "lupine".into(),
            vmlinux_size: 23 * MB,
            profile: ContentProfile::lupine(),
            phases: BootPhases {
                early_us: 4_000,
                drivers_us: 9_000,
                late_us: 9_000,
            },
            has_network: false,
        }
    }

    /// The AWS microVM config shipped with Firecracker (the paper's
    /// "typical" kernel; stock boot ≈ 40 ms, §3.1).
    pub fn aws() -> Self {
        KernelConfig {
            name: "aws".into(),
            vmlinux_size: 43 * MB,
            profile: ContentProfile::aws(),
            phases: BootPhases {
                early_us: 6_000,
                drivers_us: 14_000,
                late_us: 11_000,
            },
            has_network: true,
        }
    }

    /// The Ubuntu-generic config (the paper's "large" kernel).
    pub fn ubuntu() -> Self {
        KernelConfig {
            name: "ubuntu".into(),
            vmlinux_size: 61 * MB,
            profile: ContentProfile::ubuntu(),
            phases: BootPhases {
                early_us: 10_000,
                drivers_us: 26_000,
                late_us: 16_000,
            },
            has_network: true,
        }
    }

    /// The three paper configs, small to large.
    pub fn paper_configs() -> Vec<KernelConfig> {
        vec![Self::lupine(), Self::aws(), Self::ubuntu()]
    }

    /// A miniature config for fast unit/integration tests (256 KiB image,
    /// AWS-like proportions).
    pub fn test_tiny() -> Self {
        KernelConfig {
            name: "test-tiny".into(),
            vmlinux_size: 256 * 1024,
            profile: ContentProfile::aws(),
            phases: BootPhases {
                early_us: 6_000,
                drivers_us: 14_000,
                late_us: 11_000,
            },
            has_network: true,
        }
    }

    /// Returns a copy with the vmlinux size divided by `factor` — the same
    /// boot-cost profile over proportionally smaller functional images,
    /// for experiments that must run quickly in debug builds.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub fn scaled_down(mut self, factor: u64) -> Self {
        assert!(factor > 0);
        self.vmlinux_size /= factor;
        self.name = format!("{}-div{factor}", self.name);
        self
    }

    /// The descriptor this config embeds.
    fn descriptor(&self) -> KernelDescriptor {
        KernelDescriptor {
            name: self.name.clone(),
            phases: self.phases,
            has_network: self.has_network,
            vmlinux_size: self.vmlinux_size,
        }
    }

    /// Builds (or fetches from the process-wide cache) the kernel image.
    ///
    /// A hit compares the whole config: every field shapes the bytes (the
    /// descriptor sits in `.text`), and the digests that travel with the
    /// image end up in the launch measurement.
    pub fn build(&self) -> Arc<KernelImage> {
        // A handful of configs per process, and `ContentProfile` holds
        // `f64`s: a scan with `==`, not a hash map.
        static CACHE: Mutex<Vec<Arc<KernelImage>>> = Mutex::new(Vec::new());
        let cached = |cache: &Vec<Arc<KernelImage>>| {
            cache.iter().find(|image| image.config == *self).cloned()
        };
        if let Some(image) = cached(&CACHE.lock().expect("cache lock")) {
            return image;
        }
        let image = Arc::new(KernelImage::build(self.clone()));
        let mut cache = CACHE.lock().expect("cache lock");
        // Two threads may have built the same config; every caller must
        // get the one image the cache keeps.
        cached(&cache).unwrap_or_else(|| {
            cache.push(Arc::clone(&image));
            image
        })
    }
}

/// SHA-256 of each piece the §5 fw_cfg loader transfers and checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FwCfgDigests {
    /// The 64-byte ELF header.
    pub ehdr: Digest256,
    /// The program header table.
    pub phdrs: Digest256,
    /// The loadable segment bytes, in order.
    pub segments: Digest256,
}

/// A fully built kernel: the ELF vmlinux plus lazily built staging images,
/// each with the digest(s) taken when it was built.
#[derive(Debug)]
pub struct KernelImage {
    config: KernelConfig,
    vmlinux: Arc<Vec<u8>>,
    /// The vmlinux's ELF structure, each segment's contents recorded as its
    /// byte range in `vmlinux`: the image holds its bytes once.
    layout: ElfImage<Range<usize>>,
    bzimages: Mutex<HashMap<Codec, Component>>,
    fw_cfg: OnceLock<(Arc<Vec<u8>>, FwCfgDigests)>,
}

impl KernelImage {
    fn build(config: KernelConfig) -> Self {
        // Segment split mimicking a kernel layout: text (the descriptor
        // first), rodata, then data with the bss the loader must zero.
        let total = config.vmlinux_size as usize;
        let (text, rodata) = (total * 55 / 100, total * 20 / 100);
        let parts = [
            ("text", text, SegmentFlags::RX, 0),
            ("rodata", rodata, SegmentFlags::R, 0),
            ("data", total - text - rodata, SegmentFlags::RW, 2 * MB),
        ];
        let mut head = config.descriptor().to_bytes();
        let mut vaddr = KERNEL_BASE;
        let segments = parts.map(|(part, size, flags, bss)| {
            let mut data = std::mem::take(&mut head);
            let seed = format!("vmlinux-{part}-{}", config.name);
            let fill = size.saturating_sub(data.len());
            data.extend(generate(config.profile, fill, seed.as_bytes()));
            let segment = Segment {
                vaddr,
                data,
                bss,
                flags,
            };
            vaddr += align_up(segment.data.len() as u64);
            segment
        });
        let elf = ElfImage {
            entry: KERNEL_BASE,
            segments: segments.into(),
        };
        KernelImage {
            config,
            vmlinux: Arc::new(elf.to_bytes()),
            layout: elf.layout(),
            bzimages: Mutex::new(HashMap::new()),
            fw_cfg: OnceLock::new(),
        }
    }

    /// The config this image was built from.
    pub fn config(&self) -> &KernelConfig {
        &self.config
    }

    /// The serialized ELF vmlinux.
    pub fn vmlinux(&self) -> &[u8] {
        &self.vmlinux
    }

    /// [`KernelImage::vmlinux`] as the image's own shared buffer: a boot
    /// that holds the kernel file for its duration takes this, not a copy.
    pub fn vmlinux_shared(&self) -> Arc<Vec<u8>> {
        Arc::clone(&self.vmlinux)
    }

    /// The ELF structure, each segment's contents given as its byte range
    /// in [`KernelImage::vmlinux`].
    pub fn layout(&self) -> &ElfImage<Range<usize>> {
        &self.layout
    }

    /// The ELF structure, each segment borrowing its contents from
    /// [`KernelImage::vmlinux`].
    pub fn elf(&self) -> ElfImage<&[u8]> {
        self.layout.map(|range| &self.vmlinux[range.clone()])
    }

    /// The bzImage with the payload compressed by `codec` (built once and
    /// cached).
    pub fn bzimage(&self, codec: Codec) -> Arc<Vec<u8>> {
        Arc::clone(self.hashed_bzimage(codec).bytes())
    }

    /// [`KernelImage::bzimage`] with the whole-file digest taken when it was
    /// built.
    pub fn hashed_bzimage(&self, codec: Codec) -> Component {
        let mut cache = self.bzimages.lock().expect("bzimage lock");
        cache
            .entry(codec)
            .or_insert_with(|| Component::new(bzimage::build(&self.vmlinux, codec)))
            .clone()
    }

    /// The vmlinux policy's fw_cfg staging image — `[ehdr][phdrs][segments]`
    /// back to back — with the three piece digests (built once and cached).
    pub fn fw_cfg_staged(&self) -> (Arc<Vec<u8>>, FwCfgDigests) {
        let (bytes, digests) = self.fw_cfg.get_or_init(|| {
            // The vmlinux's own bytes: its headers come first and its
            // segments are its tail, packed back to back.
            let (vmlinux, elf) = (&self.vmlinux[..], self.elf());
            let (ehdr, rest) = vmlinux.split_at(EHDR_SIZE);
            let phdrs = &rest[..elf.segments.len() * PHDR_SIZE];
            let segs = &vmlinux[vmlinux.len() - elf.loadable_bytes() as usize..];
            let digests = FwCfgDigests {
                ehdr: sha256(ehdr),
                phdrs: sha256(phdrs),
                segments: sha256(segs),
            };
            (Arc::new([ehdr, phdrs, segs].concat()), digests)
        });
        (Arc::clone(bytes), *digests)
    }
}

fn align_up(v: u64) -> u64 {
    (v + 0xfff) & !0xfff
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptor_roundtrip() {
        let d = KernelConfig::aws().descriptor();
        let parsed = KernelDescriptor::from_bytes(&d.to_bytes()).unwrap();
        assert_eq!(parsed, d);
    }

    #[test]
    fn descriptor_rejects_garbage() {
        assert!(KernelDescriptor::from_bytes(b"nope").is_err());
        let mut bytes = KernelConfig::aws().descriptor().to_bytes();
        bytes[4] = 99;
        assert!(KernelDescriptor::from_bytes(&bytes).is_err());
    }

    #[test]
    fn tiny_kernel_builds_and_parses() {
        let image = KernelConfig::test_tiny().build();
        assert!(image.vmlinux().len() as u64 >= 256 * 1024);
        let parsed = ElfImage::parse(image.vmlinux()).unwrap();
        assert_eq!(parsed.entry, KERNEL_BASE);
        assert_eq!(parsed.segments.len(), 3);
        // Descriptor is at the entry point (start of the first segment).
        let d = KernelDescriptor::from_bytes(parsed.segments[0].data).unwrap();
        assert_eq!(d.name, "test-tiny");
        assert!(d.has_network);
    }

    #[test]
    fn bzimage_unpacks_to_vmlinux() {
        let image = KernelConfig::test_tiny().build();
        let bz = image.bzimage(Codec::Lz4);
        let vmlinux = bzimage::unpack_vmlinux(&bz).unwrap();
        assert_eq!(vmlinux, image.vmlinux());
    }

    #[test]
    fn cache_returns_same_instance() {
        let a = KernelConfig::test_tiny().build();
        let b = KernelConfig::test_tiny().build();
        assert!(Arc::ptr_eq(&a, &b));
        let bz1 = a.bzimage(Codec::Lz4);
        let bz2 = b.bzimage(Codec::Lz4);
        assert!(Arc::ptr_eq(&bz1, &bz2));
    }

    #[test]
    fn cache_hit_compares_the_whole_config() {
        // Same name and size, one other field flipped: the descriptor in
        // `.text` differs, so the image — and every digest that travels
        // with it — must too.
        let base = KernelConfig::test_tiny();
        let variants = [
            KernelConfig {
                has_network: false,
                ..base.clone()
            },
            KernelConfig {
                phases: BootPhases {
                    late_us: 1,
                    ..base.phases
                },
                ..base.clone()
            },
            KernelConfig {
                profile: ContentProfile::lupine(),
                ..base.clone()
            },
        ];
        let image = base.build();
        for variant in variants {
            let other = variant.build();
            assert!(!Arc::ptr_eq(&image, &other), "{variant:?} shared an image");
            let text = other.elf().segments[0].data;
            assert_eq!(
                KernelDescriptor::from_bytes(text).unwrap(),
                variant.descriptor()
            );
            assert_ne!(
                image.hashed_bzimage(Codec::Lz4).digest(),
                other.hashed_bzimage(Codec::Lz4).digest()
            );
            assert!(Arc::ptr_eq(&other, &variant.build()));
        }
        assert!(Arc::ptr_eq(&image, &base.build()));
    }

    #[test]
    fn scaled_down_shrinks() {
        let config = KernelConfig::aws().scaled_down(16);
        assert_eq!(config.vmlinux_size, 43 * MB / 16);
        assert_eq!(config.phases, KernelConfig::aws().phases);
        let image = config.build();
        assert!(image.vmlinux().len() < 4 * MB as usize);
    }

    #[test]
    fn boot_phase_ordering_matches_paper() {
        // Lupine < AWS < Ubuntu in baseline boot time; AWS ≈ 31 ms so a
        // stock Firecracker boot lands near the paper's ≈ 40 ms.
        let total = |c: KernelConfig| c.phases.early_us + c.phases.drivers_us + c.phases.late_us;
        let l = total(KernelConfig::lupine());
        let a = total(KernelConfig::aws());
        let u = total(KernelConfig::ubuntu());
        assert!(l < a && a < u);
        assert!((28_000..36_000).contains(&a), "aws total {a}");
    }

    #[test]
    fn paper_sizes_declared() {
        let configs = KernelConfig::paper_configs();
        assert_eq!(configs[0].vmlinux_size, 23 * MB);
        assert_eq!(configs[1].vmlinux_size, 43 * MB);
        assert_eq!(configs[2].vmlinux_size, 61 * MB);
    }
}
