//! Property-based tests for the PSP's measurement and report machinery.
//!
//! Seeded XorShift64 case generation keeps the sweep deterministic without
//! an external property-testing dependency.

use sevf_psp::{
    measure_region, AmdRootRegistry, AttestationReport, ChipIdentity, GuestPolicy, MeasurementChain,
};
use sevf_sim::rng::XorShift64;

const CASES: u64 = 48;

fn page(rng: &mut XorShift64) -> Vec<u8> {
    (0..4096).map(|_| rng.next_u64() as u8).collect()
}

fn bytes(rng: &mut XorShift64, min_len: usize, max_len: usize) -> Vec<u8> {
    let len = min_len as u64 + rng.next_below((max_len - min_len) as u64 + 1);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

#[test]
fn chain_is_deterministic() {
    let mut rng = XorShift64::new(0x9A9_0001);
    for _ in 0..CASES {
        let pages: Vec<Vec<u8>> = (0..1 + rng.next_below(4)).map(|_| page(&mut rng)).collect();
        let mut a = MeasurementChain::new();
        let mut b = MeasurementChain::new();
        for (i, p) in pages.iter().enumerate() {
            a.add_page(i as u64 * 4096, p);
            b.add_page(i as u64 * 4096, p);
        }
        assert_eq!(a.finalize(), b.finalize());
    }
}

#[test]
fn any_byte_change_changes_digest() {
    let mut rng = XorShift64::new(0x9A9_0002);
    for _ in 0..CASES {
        let mut p = page(&mut rng);
        let index = rng.next_below(4096) as usize;
        let flip = 1 + (rng.next_u64() % 255) as u8;
        let mut a = MeasurementChain::new();
        a.add_page(0, &p);
        p[index] ^= flip;
        let mut b = MeasurementChain::new();
        b.add_page(0, &p);
        assert_ne!(a.finalize(), b.finalize());
    }
}

#[test]
fn swapping_two_pages_changes_digest() {
    let mut rng = XorShift64::new(0x9A9_0003);
    for _ in 0..CASES {
        let p1 = page(&mut rng);
        let p2 = page(&mut rng);
        if p1 == p2 {
            continue;
        }
        let mut a = MeasurementChain::new();
        a.add_page(0, &p1);
        a.add_page(4096, &p2);
        let mut b = MeasurementChain::new();
        b.add_page(0, &p2);
        b.add_page(4096, &p1);
        assert_ne!(a.finalize(), b.finalize());
    }
}

#[test]
fn region_measurement_equals_manual_pages() {
    let mut rng = XorShift64::new(0x9A9_0004);
    for _ in 0..CASES {
        let data = bytes(&mut rng, 1, 11_999);
        let base = rng.next_below(1000) * 4096;
        let mut via_region = MeasurementChain::new();
        measure_region(&mut via_region, base, &data);
        let mut manual = MeasurementChain::new();
        for (i, chunk) in data.chunks(4096).enumerate() {
            let mut page = [0u8; 4096];
            page[..chunk.len()].copy_from_slice(chunk);
            manual.add_page(base + i as u64 * 4096, &page);
        }
        assert_eq!(via_region.finalize(), manual.finalize());
        assert_eq!(via_region.page_count(), data.len().div_ceil(4096) as u64);
    }
}

#[test]
fn report_wire_roundtrip() {
    let mut rng = XorShift64::new(0x9A9_0005);
    for _ in 0..CASES {
        let mut measurement = [0u8; 48];
        let mut report_data = [0u8; 64];
        for b in &mut measurement {
            *b = rng.next_u64() as u8;
        }
        for b in &mut report_data {
            *b = rng.next_u64() as u8;
        }
        let chip = ChipIdentity::from_seed(&rng.next_u64().to_le_bytes());
        let report = AttestationReport {
            version: 2,
            policy: GuestPolicy::snp(),
            measurement,
            report_data,
            chip_id: chip.chip_id,
            signature: [0u8; 48],
        };
        let mut registry = AmdRootRegistry::new();
        registry.register(chip.clone());
        // An unsigned/garbage-signed report never verifies.
        assert!(!registry.verify(&report));
        let parsed = AttestationReport::from_bytes(&report.to_bytes()).unwrap();
        assert_eq!(parsed, report);
    }
}

#[test]
fn tampering_any_report_field_breaks_verification() {
    use sevf_mem::GuestMemory;
    use sevf_sim::cost::SevGeneration;
    use sevf_sim::CostModel;
    let mut rng = XorShift64::new(0x9A9_0006);
    for _ in 0..CASES {
        let flip_at = rng.next_below(150) as usize;
        let flip = 1 + (rng.next_u64() % 255) as u8;
        let mut psp = sevf_psp::Psp::new(CostModel::calibrated(), 77);
        let start = psp.launch_start(SevGeneration::SevSnp).unwrap();
        let mut mem = GuestMemory::new_sev(1 << 20, start.memory_key, SevGeneration::SevSnp);
        mem.host_write(0, b"verifier").unwrap();
        psp.launch_update_data(start.guest, &mut mem, 0, 4096)
            .unwrap();
        psp.launch_finish(start.guest).unwrap();
        let (report, _) = psp.guest_report(start.guest, [7u8; 64]).unwrap();
        let mut registry = AmdRootRegistry::new();
        registry.register(psp.chip().clone());
        assert!(registry.verify(&report));

        let mut bytes = report.to_bytes();
        bytes[flip_at] ^= flip;
        if let Ok(tampered) = AttestationReport::from_bytes(&bytes) {
            assert!(
                !registry.verify(&tampered),
                "tampered byte {flip_at} accepted"
            );
        }
    }
}
