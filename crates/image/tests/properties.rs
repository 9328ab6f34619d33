//! Property-based tests for the image formats.
//!
//! Seeded XorShift64 case generation keeps the sweep deterministic without
//! an external property-testing dependency.

use sevf_codec::Codec;
use sevf_crypto::sha256;
use sevf_image::cpio::{self, CpioEntry};
use sevf_image::elf::{ElfImage, Segment, SegmentFlags};
use sevf_image::kernel::{BootPhases, KernelConfig, KernelDescriptor};
use sevf_image::{bzimage, initrd};
use sevf_sim::rng::XorShift64;

const CASES: u64 = 64;

fn bytes(rng: &mut XorShift64, min_len: usize, max_len: usize) -> Vec<u8> {
    let len = min_len as u64 + rng.next_below((max_len - min_len) as u64 + 1);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

fn random_segment(rng: &mut XorShift64) -> Segment {
    let flags = match rng.next_below(3) {
        0 => SegmentFlags::RX,
        1 => SegmentFlags::R,
        _ => SegmentFlags::RW,
    };
    Segment {
        vaddr: rng.next_below(1 << 40),
        data: bytes(rng, 1, 1999),
        bss: rng.next_below(10_000),
        flags,
    }
}

fn random_segments(rng: &mut XorShift64) -> Vec<Segment> {
    let n = 1 + rng.next_below(5) as usize;
    (0..n).map(|_| random_segment(rng)).collect()
}

/// A path like the proptest regex `[a-z][a-z0-9/_.-]{0,30}` would draw.
fn random_name(rng: &mut XorShift64) -> String {
    const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789/_.-";
    let mut name = String::new();
    name.push(FIRST[rng.next_below(FIRST.len() as u64) as usize] as char);
    for _ in 0..rng.next_below(31) {
        name.push(REST[rng.next_below(REST.len() as u64) as usize] as char);
    }
    name
}

fn random_cpio_entry(rng: &mut XorShift64) -> CpioEntry {
    let mode = match rng.next_below(3) {
        0 => 0o100644u32,
        1 => 0o100755u32,
        _ => 0o040755u32,
    };
    CpioEntry {
        name: random_name(rng),
        mode,
        data: bytes(rng, 0, 499),
    }
}

/// True if `part` lies inside `whole`: a parser handed out a slice of its
/// input, not a copy.
fn borrows_from(part: &[u8], whole: &[u8]) -> bool {
    let (part, whole) = (part.as_ptr_range(), whole.as_ptr_range());
    whole.start <= part.start && part.end <= whole.end
}

/// Random entries with distinct names (archives with duplicate paths are
/// legal but make the equality check ambiguous).
fn random_cpio_entries(rng: &mut XorShift64) -> Vec<CpioEntry> {
    let mut seen = std::collections::HashSet::new();
    (0..rng.next_below(10))
        .map(|_| random_cpio_entry(rng))
        .filter(|e| seen.insert(e.name.clone()))
        .collect()
}

#[test]
fn elf_roundtrip() {
    let mut rng = XorShift64::new(0x1A6_0001);
    for _ in 0..CASES {
        let elf = ElfImage {
            entry: rng.next_below(1 << 40),
            segments: random_segments(&mut rng),
        };
        let bytes = elf.to_bytes();
        let parsed = ElfImage::parse(&bytes).unwrap();
        assert_eq!(parsed.to_bytes(), bytes);
        assert_eq!(parsed.entry, elf.entry);
        assert_eq!(parsed.segments.len(), elf.segments.len());
        for (got, want) in parsed.segments.iter().zip(&elf.segments) {
            assert_eq!(
                (got.vaddr, got.bss, got.flags),
                (want.vaddr, want.bss, want.flags)
            );
            assert_eq!(got.data, &want.data[..]);
            assert!(borrows_from(got.data, &bytes), "segment data copied");
        }
    }
}

#[test]
fn elf_fw_cfg_pieces_are_the_serialized_file() {
    let mut rng = XorShift64::new(0x1A6_0002);
    for _ in 0..CASES {
        let elf = ElfImage {
            entry: 0x1000,
            segments: random_segments(&mut rng),
        };
        let (ehdr, phdrs, segs) = elf.fw_cfg_pieces();
        assert_eq!(ehdr.len(), 64);
        assert_eq!(phdrs.len(), elf.segments.len() * 56);
        assert_eq!(segs.len() as u64, elf.loadable_bytes());
        let bytes = elf.to_bytes();
        assert_eq!(
            [&ehdr, &phdrs],
            [&bytes[..64], &bytes[64..64 + phdrs.len()]]
        );
        assert!(bytes.ends_with(&segs));
        // The borrowed image cuts the same pieces.
        assert_eq!(
            ElfImage::parse(&bytes).unwrap().fw_cfg_pieces(),
            (ehdr, phdrs, segs)
        );
    }
}

#[test]
fn elf_garbage_and_truncation_never_panic() {
    let mut rng = XorShift64::new(0x1A6_0003);
    for _ in 0..CASES {
        if let Ok(elf) = ElfImage::parse(&bytes(&mut rng, 0, 499)) {
            let _ = elf.to_bytes();
        }
        // Every cut of a valid file loses segment bytes: an error, not a panic.
        let segments = random_segments(&mut rng);
        let file = ElfImage { entry: 0, segments }.to_bytes();
        let cut = rng.next_below(file.len() as u64) as usize;
        assert!(ElfImage::parse(&file[..cut]).is_err(), "cut at {cut}");
    }
}

#[test]
fn cpio_roundtrip() {
    let mut rng = XorShift64::new(0x1A6_0004);
    for _ in 0..CASES {
        let entries = random_cpio_entries(&mut rng);
        let archive = cpio::build(&entries);
        let parsed = cpio::parse(&archive).unwrap();
        assert_eq!(cpio::build(&parsed), archive);
        assert_eq!(parsed.len(), entries.len());
        for (got, want) in parsed.iter().zip(&entries) {
            assert_eq!((&got.name, got.mode), (&want.name, want.mode));
            assert_eq!(got.data, &want.data[..]);
            assert!(borrows_from(got.data, &archive), "entry data copied");
        }
    }
}

#[test]
fn cpio_garbage_and_truncation_never_panic() {
    let mut rng = XorShift64::new(0x1A6_0005);
    for _ in 0..CASES {
        let _ = cpio::parse(&bytes(&mut rng, 0, 399));
        // Every cut of a valid archive loses the trailer.
        let archive = cpio::build(&random_cpio_entries(&mut rng));
        let cut = rng.next_below(archive.len() as u64) as usize;
        assert!(cpio::parse(&archive[..cut]).is_err(), "cut at {cut}");
    }
}

#[test]
fn bzimage_roundtrip_any_payload() {
    let mut rng = XorShift64::new(0x1A6_0006);
    for _ in 0..CASES {
        let payload = bytes(&mut rng, 0, 19_999);
        let codec = match rng.next_below(3) {
            0 => Codec::None,
            1 => Codec::Lz4,
            _ => Codec::Deflate,
        };
        let bz = bzimage::build(&payload, codec);
        let (compressed, parsed_codec) = bzimage::parse(&bz).unwrap();
        assert_eq!(parsed_codec, codec);
        assert_eq!(codec.decompress(compressed).unwrap(), payload);
        assert_eq!(bzimage::unpack_vmlinux(&bz).unwrap(), payload);
    }
}

#[test]
fn bzimage_garbage_never_panics() {
    let mut rng = XorShift64::new(0x1A6_0007);
    for _ in 0..CASES {
        let data = bytes(&mut rng, 0, 1999);
        let _ = bzimage::parse(&data);
        let _ = bzimage::unpack_vmlinux(&data);
    }
}

#[test]
fn descriptor_roundtrip() {
    let mut rng = XorShift64::new(0x1A6_0008);
    for _ in 0..CASES {
        let mut name = String::new();
        name.push((b'a' + rng.next_below(26) as u8) as char);
        for _ in 0..rng.next_below(21) {
            const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-";
            name.push(CHARS[rng.next_below(CHARS.len() as u64) as usize] as char);
        }
        let d = KernelDescriptor {
            name,
            phases: BootPhases {
                early_us: rng.next_below(1_000_000) as u32,
                drivers_us: rng.next_below(1_000_000) as u32,
                late_us: rng.next_below(1_000_000) as u32,
            },
            has_network: rng.next_u64() & 1 == 1,
            vmlinux_size: rng.next_u64(),
        };
        assert_eq!(KernelDescriptor::from_bytes(&d.to_bytes()).unwrap(), d);
    }
}

#[test]
fn descriptor_garbage_never_panics() {
    let mut rng = XorShift64::new(0x1A6_0009);
    for _ in 0..CASES {
        let _ = KernelDescriptor::from_bytes(&bytes(&mut rng, 0, 99));
    }
}

/// Lupine, AWS and Ubuntu (at 1/64 of their size, for debug builds) and
/// the tiny test kernel.
fn kernel_configs() -> Vec<KernelConfig> {
    let mut configs: Vec<KernelConfig> = KernelConfig::paper_configs()
        .into_iter()
        .map(|c| c.scaled_down(64))
        .collect();
    configs.push(KernelConfig::test_tiny());
    configs
}

/// The fw_cfg staging image, cut from the vmlinux's own bytes, is what the
/// ELF structure's three pieces give back to back, and each digest is its
/// piece's.
#[test]
fn fw_cfg_staged_is_the_elf_pieces() {
    for config in kernel_configs() {
        let image = config.build();
        let (staged, digests) = image.fw_cfg_staged();
        let (ehdr, phdrs, segs) = image.elf().fw_cfg_pieces();
        assert_eq!(digests.ehdr, sha256(&ehdr), "{}", config.name);
        assert_eq!(digests.phdrs, sha256(&phdrs), "{}", config.name);
        assert_eq!(digests.segments, sha256(&segs), "{}", config.name);
        assert_eq!(*staged, [ehdr, phdrs, segs].concat(), "{}", config.name);
    }
}

/// The digests that travel with the staged components (§4.3) are what a
/// fresh hash of the carried bytes gives: the VMM pre-encrypts them without
/// looking at the bytes, and the guest re-hashes the bytes against them.
#[test]
fn carried_digests_are_honest() {
    for config in kernel_configs() {
        let image = config.build();
        for codec in Codec::ALL {
            let bz = image.hashed_bzimage(codec);
            assert_eq!(bz.digest(), sha256(bz.bytes()), "{} {codec:?}", config.name);
            assert_eq!(*bz.bytes(), image.bzimage(codec));
        }
    }
    for size in [0, 1, 4096, 64 * 1024, 300 * 1024] {
        let raw = initrd::build_initrd(size);
        for codec in Codec::ALL {
            let staged = initrd::staged_initrd(size, codec);
            assert_eq!(staged.digest(), sha256(staged.bytes()), "{size} {codec:?}");
            if codec == Codec::None {
                assert!(std::sync::Arc::ptr_eq(staged.bytes(), &raw), "no copy");
            } else {
                assert_eq!(codec.decompress(staged.bytes()).unwrap(), *raw);
            }
        }
    }
}
