//! Property-based tests for the guest-memory model's invariants.
//!
//! Seeded XorShift64 case generation keeps the sweep deterministic without
//! an external property-testing dependency.

use sevf_mem::{GuestMemory, MemError, PageState, PAGE_SIZE};
use sevf_sim::cost::SevGeneration;
use sevf_sim::rng::XorShift64;

const MEM: u64 = 4 * 1024 * 1024;
const CASES: u64 = 64;

fn snp() -> GuestMemory {
    GuestMemory::new_sev(MEM, [9u8; 16], SevGeneration::SevSnp)
}

fn bytes(rng: &mut XorShift64, min_len: usize, max_len: usize) -> Vec<u8> {
    let len = min_len as u64 + rng.next_below((max_len - min_len) as u64 + 1);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

#[test]
fn plain_memory_write_read_roundtrip() {
    let mut rng = XorShift64::new(0x3E3_0001);
    for _ in 0..CASES {
        let addr = rng.next_below(MEM - 10_000);
        let data = bytes(&mut rng, 1, 9_999);
        let mut mem = GuestMemory::new_plain(MEM);
        mem.host_write(addr, &data).unwrap();
        assert_eq!(mem.host_read(addr, data.len() as u64).unwrap(), data);
        assert_eq!(
            mem.guest_read(addr, data.len() as u64, false).unwrap(),
            data
        );
    }
}

#[test]
fn private_data_never_plaintext_to_host() {
    let mut rng = XorShift64::new(0x3E3_0002);
    for _ in 0..CASES {
        let page = rng.next_below(MEM / PAGE_SIZE - 2);
        let data = bytes(&mut rng, 16, 4095);
        let mut mem = snp();
        let addr = page * PAGE_SIZE;
        mem.rmp_assign(addr, 2 * PAGE_SIZE).unwrap();
        mem.pvalidate(addr, 2 * PAGE_SIZE).unwrap();
        mem.guest_write(addr, &data, true).unwrap();
        let host_view = mem.host_read(addr, data.len() as u64).unwrap();
        assert_ne!(&host_view, &data, "host saw plaintext");
        // The guest always reads back exactly what it wrote.
        assert_eq!(mem.guest_read(addr, data.len() as u64, true).unwrap(), data);
    }
}

#[test]
fn host_writes_to_private_pages_always_denied() {
    let mut rng = XorShift64::new(0x3E3_0003);
    for _ in 0..CASES {
        let page = rng.next_below(MEM / PAGE_SIZE - 1);
        let data = bytes(&mut rng, 1, 255);
        let mut mem = snp();
        let addr = page * PAGE_SIZE;
        mem.rmp_assign(addr, PAGE_SIZE).unwrap();
        let denied = matches!(
            mem.host_write(addr, &data),
            Err(MemError::HostWriteDenied { .. })
        );
        assert!(denied);
    }
}

#[test]
fn unvalidated_private_access_always_faults() {
    let mut rng = XorShift64::new(0x3E3_0004);
    for _ in 0..CASES {
        let page = rng.next_below(MEM / PAGE_SIZE - 1);
        let mut mem = snp();
        let addr = page * PAGE_SIZE;
        mem.rmp_assign(addr, PAGE_SIZE).unwrap();
        let write_faults = matches!(
            mem.guest_write(addr, b"x", true),
            Err(MemError::VcException { .. })
        );
        assert!(write_faults);
        let read_faults = matches!(
            mem.guest_read(addr, 1, true),
            Err(MemError::VcException { .. })
        );
        assert!(read_faults);
    }
}

#[test]
fn out_of_range_never_panics() {
    let mut rng = XorShift64::new(0x3E3_0005);
    for _ in 0..CASES {
        let addr = rng.next_u64();
        let len = rng.next_below(100_000);
        let mem = GuestMemory::new_plain(MEM);
        let _ = mem.host_read(addr, len);
        let _ = mem.guest_read(addr, len, false);
    }
}

#[test]
fn rmp_counts_match_operations() {
    let mut rng = XorShift64::new(0x3E3_0006);
    for _ in 0..CASES {
        let pages: std::collections::BTreeSet<u64> = (0..1 + rng.next_below(31))
            .map(|_| rng.next_below(64))
            .collect();
        let mut mem = snp();
        for &p in &pages {
            mem.rmp_assign(p * PAGE_SIZE, PAGE_SIZE).unwrap();
        }
        assert_eq!(mem.rmp().assigned_count(), pages.len());
        for &p in &pages {
            mem.pvalidate(p * PAGE_SIZE, PAGE_SIZE).unwrap();
        }
        assert_eq!(mem.rmp().validated_count(), pages.len());
        // Double validation is always detected.
        for &p in &pages {
            let double = matches!(
                mem.pvalidate(p * PAGE_SIZE, PAGE_SIZE),
                Err(MemError::AlreadyValidated { .. })
            );
            assert!(double);
        }
    }
}

#[test]
fn pre_encrypt_returns_exactly_what_host_staged() {
    let mut rng = XorShift64::new(0x3E3_0007);
    for _ in 0..CASES {
        let page = 1 + rng.next_below(MEM / PAGE_SIZE - 3);
        let data = bytes(&mut rng, 1, 4095);
        let mut mem = snp();
        let addr = page * PAGE_SIZE;
        mem.host_write(addr, &data).unwrap();
        let measured = mem.pre_encrypt(addr, data.len() as u64).unwrap();
        assert_eq!(&measured[..data.len()], &data[..]);
        // Padding is zeros.
        assert!(measured[data.len()..].iter().all(|&b| b == 0));
        // And the region is now private + validated.
        assert!(mem.is_assigned(addr));
        assert!(mem.is_validated(addr));
    }
}

#[test]
fn sev_host_corruption_scrambles_but_lands() {
    let mut rng = XorShift64::new(0x3E3_0008);
    for _ in 0..CASES {
        // Base SEV: host writes succeed and corrupt (integrity gap).
        let data = bytes(&mut rng, 32, 255);
        let overwrite = bytes(&mut rng, 32, 63);
        let mut mem = GuestMemory::new_sev(MEM, [1u8; 16], SevGeneration::Sev);
        mem.pre_encrypt(0, PAGE_SIZE).unwrap();
        mem.guest_write(0, &data, true).unwrap();
        mem.host_write(0, &overwrite).unwrap();
        let seen = mem.guest_read(0, overwrite.len() as u64, true).unwrap();
        assert_ne!(
            &seen, &overwrite,
            "host bytes must be scrambled by decryption"
        );
    }
}

#[test]
fn absent_pages_read_as_zeros_through_every_view() {
    let mut rng = XorShift64::new(0x3E3_0009);
    for _ in 0..CASES {
        let page = rng.next_below(MEM / PAGE_SIZE - 4);
        let addr = page * PAGE_SIZE + rng.next_below(PAGE_SIZE);
        let len = rng.next_below(2 * PAGE_SIZE);
        let mut mem = snp();
        assert!(mem.host_read(addr, len).unwrap().iter().all(|&b| b == 0));
        assert!(mem
            .guest_read(addr, len, false)
            .unwrap()
            .iter()
            .all(|&b| b == 0));
        let base = page * PAGE_SIZE;
        let measured = mem.pre_encrypt(base, 3 * PAGE_SIZE).unwrap();
        assert_eq!(measured, vec![0u8; 3 * PAGE_SIZE as usize]);
        let private = mem.guest_read(base, 3 * PAGE_SIZE, true).unwrap();
        assert!(private.iter().all(|&b| b == 0));
        assert_eq!(mem.resident_pages(), 0, "reading materialized a page");
    }
}

#[test]
fn accesses_straddling_a_page_boundary_roundtrip() {
    let mut rng = XorShift64::new(0x3E3_000A);
    let page = 5 * PAGE_SIZE;
    for at in [page - 1, page, page + 1] {
        for len in [1, 2, PAGE_SIZE - 1, PAGE_SIZE, PAGE_SIZE + 1] {
            let data = bytes(&mut rng, len as usize, len as usize);
            let mut plain = GuestMemory::new_plain(MEM);
            plain.host_write(at, &data).unwrap();
            assert_eq!(plain.host_read(at, len).unwrap(), data, "at {at} len {len}");
            let mut mem = snp();
            mem.rmp_assign(page - PAGE_SIZE, 3 * PAGE_SIZE).unwrap();
            mem.pvalidate(page - PAGE_SIZE, 3 * PAGE_SIZE).unwrap();
            mem.guest_write(at, &data, true).unwrap();
            assert_eq!(
                mem.guest_read(at, len, true).unwrap(),
                data,
                "at {at} len {len}"
            );
            assert_ne!(mem.host_read(at, len).unwrap(), data);
        }
    }
}

#[test]
fn accesses_at_the_end_of_memory_never_panic() {
    // A table indexed by `addr / PAGE_SIZE` has no slot at `size`.
    for size in [MEM, MEM + 100] {
        for addr in [size, size + 1] {
            for len in [0, 1] {
                let mut plain = GuestMemory::new_plain(size);
                let _ = plain.host_read(addr, len);
                let _ = plain.host_write(addr, &vec![7; len as usize]);
                let _ = plain.guest_read(addr, len, false);
                let mut mem = GuestMemory::new_sev(size, [9u8; 16], SevGeneration::SevSnp);
                let _ = mem.host_read(addr, len);
                let _ = mem.host_write(addr, &vec![7; len as usize]);
                let _ = mem.guest_read(addr, len, true);
                let _ = mem.guest_write(addr, &vec![7; len as usize], true);
                let _ = mem.guest_write(addr, &vec![7; len as usize], false);
                let _ = mem.rmp_assign(addr, len * PAGE_SIZE);
                let _ = mem.pvalidate(addr, len * PAGE_SIZE);
                let _ = mem.remap_by_host(addr);
                let _ = mem.pre_encrypt(addr, len);
                let _ = mem.pre_encrypt(0, u64::MAX - len);
                let _ = (mem.is_assigned(addr), mem.is_validated(addr));
                let beyond = addr > size || (len > 0 && addr >= size);
                if beyond {
                    assert!(matches!(
                        mem.host_read(addr, len),
                        Err(MemError::OutOfRange { .. })
                    ));
                } else {
                    assert_eq!(mem.host_read(addr, len), Ok(Vec::new()));
                }
            }
        }
    }
}

#[test]
fn restore_returns_exactly_the_snapshot() {
    let mut rng = XorShift64::new(0x3E3_000B);
    for _ in 0..CASES / 4 {
        let mut mem = snp();
        let mut written = Vec::new();
        for _ in 0..1 + rng.next_below(8) {
            let addr = rng.next_below(MEM / PAGE_SIZE / 2) * PAGE_SIZE;
            if mem.is_assigned(addr) {
                continue; // already private: the host can no longer write it
            }
            mem.host_write(addr, &bytes(&mut rng, 1, 4096)).unwrap();
            mem.pre_encrypt(addr, PAGE_SIZE).unwrap();
            written.push(addr);
        }
        let base = MEM / 2;
        mem.rmp_assign(base, 16 * PAGE_SIZE).unwrap();
        let before = mem.host_read(0, MEM).unwrap();
        let resident = mem.resident_pages();
        let (assigned, validated) = (mem.rmp().assigned_count(), mem.rmp().validated_count());
        let snapshot = mem.clone_pages();
        assert_eq!(snapshot.byte_len(), resident as u64 * PAGE_SIZE);

        // Restoring twice shows that writes after a restore leave the
        // snapshot alone too.
        for _ in 0..2 {
            // Dirty snapshotted pages, touch new ones, change RMP state.
            for &addr in &written {
                mem.guest_write(addr, &bytes(&mut rng, 1, 4096), true)
                    .unwrap();
            }
            if !mem.is_validated(base) {
                mem.pvalidate(base, 16 * PAGE_SIZE).unwrap();
            }
            mem.guest_write(base, &bytes(&mut rng, 1, 20_000), true)
                .unwrap();
            mem.host_write(MEM - 3 * PAGE_SIZE, &bytes(&mut rng, 1, 8192))
                .unwrap();
            mem.rmp_assign(MEM - 2 * PAGE_SIZE, PAGE_SIZE).unwrap();
            assert!(mem.resident_pages() > resident);

            assert_eq!(
                mem.restore_pages(&snapshot),
                Ok(resident as u64 * PAGE_SIZE)
            );
            assert_eq!(mem.resident_pages(), resident);
            assert_eq!(mem.rmp().assigned_count(), assigned);
            assert_eq!(mem.rmp().validated_count(), validated);
            assert_eq!(mem.host_read(0, MEM).unwrap(), before);
        }
    }
}

#[test]
fn host_page_digests_are_in_address_order() {
    let mut rng = XorShift64::new(0x3E3_000C);
    for _ in 0..CASES / 4 {
        let mut mem = snp();
        let mut pages = std::collections::BTreeSet::new();
        for _ in 0..1 + rng.next_below(12) {
            let page = rng.next_below(MEM / PAGE_SIZE);
            if mem.is_assigned(page * PAGE_SIZE) {
                continue;
            }
            pages.insert(page);
            mem.host_write(page * PAGE_SIZE, &bytes(&mut rng, 1, 64))
                .unwrap();
            if rng.next_below(2) == 0 {
                mem.pre_encrypt(page * PAGE_SIZE, PAGE_SIZE).unwrap();
            }
        }
        let expected: Vec<[u8; 32]> = pages
            .iter()
            .map(|p| sevf_crypto::sha256(&mem.host_read(p * PAGE_SIZE, PAGE_SIZE).unwrap()))
            .collect();
        assert_eq!(mem.host_page_digests().unwrap(), expected);
    }
}

/// Everything an observer can tell about `mem`: the resident page count,
/// the host's view of every resident page, the RMP state of every page and
/// the host's view of the whole of memory.
fn observed(mem: &GuestMemory) -> (usize, Vec<[u8; 32]>, Vec<PageState>, Vec<u8>) {
    let pages = mem.size() / PAGE_SIZE;
    (
        mem.resident_pages(),
        mem.host_page_digests().unwrap(),
        (0..pages).map(|p| mem.rmp().state(p)).collect(),
        mem.host_read(0, mem.size()).unwrap(),
    )
}

/// The copy `copy_to_private` replaced: read the shared mapping, write the
/// private one, read it back.
fn read_write_read_back(
    mem: &mut GuestMemory,
    src: u64,
    dst: u64,
    len: u64,
) -> Result<Vec<u8>, MemError> {
    let staged = mem.guest_read(src, len, false)?;
    mem.guest_write(dst, &staged, true)?;
    mem.guest_read(dst, len, true)
}

#[test]
fn copy_to_private_is_the_read_write_read_back_it_replaced() {
    // A small guest: 32 pages, the upper half private. Source pages are
    // written by the host, left untouched, or made private (read through
    // the shared mapping as ciphertext); ranges start at any offset, may
    // share their page offset (the shared-page path) and may overlap.
    const PAGES: u64 = 32;
    let generations = [
        SevGeneration::Sev,
        SevGeneration::SevEs,
        SevGeneration::SevSnp,
    ];
    let mut rng = XorShift64::new(0x3E3_00C0);
    let (mut shared_pages, mut faults) = (0, 0);
    for case in 0..3 * CASES {
        let generation = generations[(case % 3) as usize];
        let mut mem = GuestMemory::new_sev(PAGES * PAGE_SIZE, [3u8; 16], generation);
        for page in 0..PAGES / 2 {
            if rng.next_below(3) > 0 {
                let data = bytes(&mut rng, PAGE_SIZE as usize, PAGE_SIZE as usize);
                mem.host_write(page * PAGE_SIZE, &data).unwrap();
            }
        }
        let private = PAGES / 2 * PAGE_SIZE;
        mem.rmp_assign(private, private).unwrap();
        // A private source page, now and then.
        let stolen = rng.next_below(PAGES / 2) * PAGE_SIZE;
        if rng.next_below(4) == 0 {
            mem.rmp_assign(stolen, PAGE_SIZE).unwrap();
        }
        if generation.has_rmp() {
            // Leave the last private page unvalidated: a copy into it faults.
            mem.pvalidate(private, private - PAGE_SIZE).unwrap();
            if mem.is_assigned(stolen) {
                mem.pvalidate(stolen, PAGE_SIZE).unwrap();
            }
        }
        let len = rng.next_below(5 * PAGE_SIZE);
        let src = rng.next_below(private - len);
        let dst = match rng.next_below(3) {
            // Same page offset: whole pages are shared.
            0 => private + rng.next_below(PAGES / 2 - 5) * PAGE_SIZE + src % PAGE_SIZE,
            // Overlapping (a private source range is copied onto itself).
            1 => (src + rng.next_below(len + 1)).min(2 * private - len),
            _ => private + rng.next_below(private - len),
        };
        let (mut old, mut new) = (
            mem,
            GuestMemory::new_sev(PAGES * PAGE_SIZE, [3u8; 16], generation),
        );
        new.restore_pages(&old.clone_pages()).unwrap();
        let expected = read_write_read_back(&mut old, src, dst, len);
        let view = new.copy_to_private(src, dst, len);
        let copied = match (&expected, view) {
            (Ok(bytes), Ok(view)) => {
                assert_eq!(
                    view.chunks().collect::<Vec<_>>().concat(),
                    *bytes,
                    "case {case}"
                );
                assert_eq!(new.guest_read(dst, len, true).unwrap(), *bytes);
                shared_pages += usize::from(src % PAGE_SIZE == dst % PAGE_SIZE && len >= PAGE_SIZE);
                Some((view, bytes.clone()))
            }
            (Err(want), Err(got)) => {
                assert_eq!(got, *want, "case {case}");
                faults += 1;
                None
            }
            (want, got) => panic!("case {case}: expected {want:?}, got {got:?}"),
        };
        assert_eq!(observed(&new), observed(&old), "case {case}");
        // Later writes to either side, by the host and by the guest, land
        // the same way in both and never show through the other side.
        let at = |rng: &mut XorShift64, base: u64| base + rng.next_below(len.max(1));
        for write in 0..4 {
            let (addr, data) = match write {
                0 | 2 => (at(&mut rng, src), bytes(&mut rng, 1, 64)),
                _ => (at(&mut rng, dst), bytes(&mut rng, 1, 64)),
            };
            let addr = addr.min(PAGES * PAGE_SIZE - data.len() as u64);
            if write < 2 {
                assert_eq!(new.host_write(addr, &data), old.host_write(addr, &data));
            } else {
                let encrypted = write == 3;
                assert_eq!(
                    new.guest_write(addr, &data, encrypted),
                    old.guest_write(addr, &data, encrypted)
                );
            }
            assert_eq!(observed(&new), observed(&old), "case {case}, write {write}");
        }
        if let Some((view, bytes)) = copied {
            assert_eq!(
                view.chunks().collect::<Vec<_>>().concat(),
                bytes,
                "the view moved, case {case}"
            );
        }
    }
    assert!(
        shared_pages > 10 && faults > 5,
        "{shared_pages} shared, {faults} faulted"
    );
}

#[test]
fn guest_zero_is_a_guest_write_of_zeros() {
    // A small guest, all of it private: pages written by the guest, left
    // untouched, or (under SNP) left unvalidated, so a zeroing into one
    // takes #VC. Ranges start at any offset, may cross pages, and may run
    // past the end of memory.
    const PAGES: u64 = 16;
    let generations = [
        SevGeneration::Sev,
        SevGeneration::SevEs,
        SevGeneration::SevSnp,
    ];
    let mut rng = XorShift64::new(0x3E3_00D0);
    let (mut zeroed, mut faults, mut out_of_range) = (0, 0, 0);
    for case in 0..3 * CASES {
        let generation = generations[(case % 3) as usize];
        let size = PAGES * PAGE_SIZE;
        let mut mem = GuestMemory::new_sev(size, [4u8; 16], generation);
        mem.rmp_assign(0, size).unwrap();
        let unvalidated = rng.next_below(PAGES);
        for page in 0..PAGES {
            if generation.has_rmp() && page != unvalidated {
                mem.pvalidate(page * PAGE_SIZE, PAGE_SIZE).unwrap();
            }
            if rng.next_below(2) == 0 && mem.is_validated(page * PAGE_SIZE) {
                let data = bytes(&mut rng, PAGE_SIZE as usize, PAGE_SIZE as usize);
                mem.guest_write(page * PAGE_SIZE, &data, true).unwrap();
            }
        }
        let (addr, len) = (rng.next_below(size), rng.next_below(3 * PAGE_SIZE));
        let mut written = GuestMemory::new_sev(size, [4u8; 16], generation);
        written.restore_pages(&mem.clone_pages()).unwrap();
        let want = written.guest_write(addr, &vec![0; len as usize], true);
        assert_eq!(mem.guest_zero(addr, len), want, "case {case}");
        match want {
            Ok(()) => {
                assert_eq!(
                    mem.guest_read(addr, len, true).unwrap(),
                    vec![0; len as usize]
                );
                zeroed += 1;
            }
            Err(MemError::VcException { .. }) => faults += 1,
            Err(MemError::OutOfRange { .. }) => out_of_range += 1,
            Err(other) => panic!("case {case}: {other:?}"),
        }
        assert_eq!(observed(&mem), observed(&written), "case {case}");
    }
    assert!(
        zeroed > 50 && faults > 5 && out_of_range > 5,
        "{zeroed} zeroed, {faults} faulted, {out_of_range} out of range"
    );
    let mut mem = snp();
    assert_eq!(
        mem.guest_zero(u64::MAX, 2),
        mem.guest_write(u64::MAX, &[0; 2], true)
    );
}

#[test]
fn host_share_is_the_host_write_it_replaced() {
    // A small guest: its top quarter private (the target of guest writes
    // and private copies), and below it pages with prior contents, some of
    // them guest-owned (denied under SNP, a ciphertext write under
    // SEV/SEV-ES). Destinations and source offsets are unaligned or, now
    // and then, page-aligned; ranges may run past the end of memory.
    const PAGES: u64 = 32;
    let size = PAGES * PAGE_SIZE;
    let private = size / 4 * 3;
    let generations = [
        SevGeneration::Sev,
        SevGeneration::SevEs,
        SevGeneration::SevSnp,
    ];
    let mut rng = XorShift64::new(0x3E3_00E0);
    let (mut shared, mut private_whole, mut denied) = (0, 0, 0);
    for case in 0..3 * CASES {
        let generation = generations[(case % 3) as usize];
        let mut old = GuestMemory::new_sev(size, [6u8; 16], generation);
        for page in 0..PAGES * 3 / 4 {
            if rng.next_below(2) == 0 {
                let data = bytes(&mut rng, 1, PAGE_SIZE as usize);
                let at = rng.next_below(PAGE_SIZE - data.len() as u64 + 1);
                old.host_write(page * PAGE_SIZE + at, &data).unwrap();
            }
            if rng.next_below(8) == 0 {
                old.pre_encrypt(page * PAGE_SIZE, PAGE_SIZE).unwrap();
            }
        }
        old.rmp_assign(private, size - private).unwrap();
        if generation.has_rmp() {
            old.pvalidate(private, size - private).unwrap();
        }
        let aligned = rng.next_below(3) == 0;
        let len = rng.next_below(5 * PAGE_SIZE) as usize;
        let mut off = rng.next_below(2 * PAGE_SIZE) as usize;
        let mut addr = rng.next_below(size);
        if aligned {
            (off, addr) = (
                off / PAGE_SIZE as usize * PAGE_SIZE as usize,
                addr / PAGE_SIZE * PAGE_SIZE,
            );
        }
        let image = std::sync::Arc::new(bytes(&mut rng, off + len, off + len + 100));
        let range = off..off + len;
        let mut new = GuestMemory::new_sev(size, [6u8; 16], generation);
        new.restore_pages(&old.clone_pages()).unwrap();

        // The whole destination pages a share takes as windows.
        let whole: Vec<u64> = (addr / PAGE_SIZE..(addr + len as u64) / PAGE_SIZE)
            .filter(|&p| p * PAGE_SIZE >= addr && !old.is_assigned(p * PAGE_SIZE))
            .collect();
        if !generation.has_rmp() {
            private_whole += (addr.div_ceil(PAGE_SIZE)..(addr + len as u64) / PAGE_SIZE)
                .filter(|&p| old.is_assigned(p * PAGE_SIZE))
                .count();
        }
        let want = old.host_write(addr, &image[range.clone()]);
        assert_eq!(new.host_share(addr, &image, range), want, "case {case}");
        assert_eq!(observed(&new), observed(&old), "case {case}");
        if want.is_err() {
            assert_eq!(std::sync::Arc::strong_count(&image), 1, "case {case}");
            denied += usize::from(matches!(want, Err(MemError::HostWriteDenied { .. })));
            continue;
        }
        assert_eq!(std::sync::Arc::strong_count(&image), 1 + whole.len());
        shared += whole.len();
        // A host write to one shared page copies it out: one reference less.
        if let Some(&page) = whole.first() {
            let at = page * PAGE_SIZE + rng.next_below(PAGE_SIZE);
            assert_eq!(new.host_write(at, b"w"), old.host_write(at, b"w"));
            assert_eq!(std::sync::Arc::strong_count(&image), whole.len());
            assert_eq!(observed(&new), observed(&old), "case {case}");
        }

        // Later host and guest writes, a private copy and a snapshot taken
        // and restored land the same way in both.
        let within = |rng: &mut XorShift64| addr + rng.next_below(len.max(1) as u64);
        let data = bytes(&mut rng, 1, 64);
        let at = within(&mut rng).min(size - data.len() as u64);
        assert_eq!(new.host_write(at, &data), old.host_write(at, &data));
        let at = within(&mut rng).min(size - data.len() as u64);
        assert_eq!(
            new.guest_write(at, &data, false),
            old.guest_write(at, &data, false)
        );
        let at = private + rng.next_below(size - private - data.len() as u64);
        assert_eq!(
            new.guest_write(at, &data, true),
            old.guest_write(at, &data, true)
        );
        assert_eq!(observed(&new), observed(&old), "case {case}");

        let src = addr.min(private - PAGE_SIZE);
        let dst = private + PAGE_SIZE + src % PAGE_SIZE;
        let copy = (len as u64).min(size - dst);
        let views = (
            new.copy_to_private(src, dst, copy),
            old.copy_to_private(src, dst, copy),
        );
        match &views {
            (Ok(a), Ok(b)) => assert!(a.chunks().eq(b.chunks()), "case {case}"),
            (a, b) => assert_eq!(a.as_ref().err(), b.as_ref().err(), "case {case}"),
        }
        assert_eq!(observed(&new), observed(&old), "case {case}");

        let snapshots = (new.clone_pages(), old.clone_pages());
        let at = within(&mut rng).min(size - data.len() as u64);
        assert_eq!(new.host_write(at, &data), old.host_write(at, &data));
        assert_eq!(observed(&new), observed(&old), "case {case}");
        new.restore_pages(&snapshots.0).unwrap();
        old.restore_pages(&snapshots.1).unwrap();
        assert_eq!(observed(&new), observed(&old), "case {case}");

        drop((new, views, snapshots));
        assert_eq!(std::sync::Arc::strong_count(&image), 1, "case {case}");
    }
    assert!(
        shared > 100 && private_whole > 20 && denied > 10,
        "{shared} shared, {private_whole} guest-owned whole pages, {denied} denied"
    );
}
