//! The `perf` experiment: two differential checks over the two hot paths
//! the simulator lives on.
//!
//! * **DES engine** — one workload, two engines: the calendar-queue
//!   [`sevf_sim::DesEngine`] against the heap-based
//!   [`sevf_sim::reference::HeapEngine`] it replaced. Both must produce
//!   identical outcomes (checked every run, and checksummed so the golden
//!   pins the workload).
//! * **Measurement path** — full SHA-384 launch-digest chaining over a page
//!   set, against [`sevf_psp::IncrementalChain`] re-measuring with a small
//!   dirty suffix (the §6.2 template-hit shape) and against the two-level
//!   [`sevf_psp::paged_measure`] with a warm [`sevf_psp::PageDigestCache`].
//!
//! Everything here is deterministic in the seed and nothing reads a clock:
//! how *fast* each path is comes from `benchmark/` (`sim.des_us_per_job`,
//! `psp.measure_*_mb_s`).

use crate::document::Document;
use crate::pick;
use sevf_psp::{
    paged_measure, IncrementalChain, MeasurementChain, PageDigestCache, PageRef, PageType,
};
use sevf_sim::reference::HeapEngine;
use sevf_sim::rng::XorShift64;
use sevf_sim::{DesEngine, Job, JobOutcome, Nanos, Segment};

/// Workload sizes for one perf sweep.
#[derive(Debug, Clone, Copy)]
pub struct PerfConfig {
    /// Jobs in the DES check.
    pub jobs: usize,
    /// 4 KiB pages in the measurement check.
    pub pages: usize,
    /// Pages dirtied between measurements (template-hit shape).
    pub dirty: usize,
    /// Workload seed.
    pub seed: u64,
}

impl PerfConfig {
    /// Full-size sweep.
    pub fn full() -> Self {
        PerfConfig {
            jobs: 12_000_000,
            pages: 1024,
            dirty: 32,
            seed: 42,
        }
    }

    /// Quick sweep for the CI inner loop.
    pub fn quick() -> Self {
        PerfConfig {
            jobs: 20_000,
            pages: 256,
            dirty: 8,
            seed: 42,
        }
    }
}

/// Result of the DES engine check.
#[derive(Debug, Clone, Copy)]
pub struct DesPerf {
    /// Jobs simulated.
    pub jobs: u64,
    /// Events the scheduler processed (releases + segment completions).
    pub events: u64,
    /// Order-sensitive checksum over every outcome (deterministic in the
    /// seed; the `--json` replay gate diffs it).
    pub outcome_checksum: u64,
    /// Whether both engines produced identical outcome sequences.
    pub engines_agree: bool,
}

/// Builds one engine of each kind with identical resource tables. Resource
/// ids are index-based, so both engines hand out the same ids and one job
/// vec drives both.
fn fresh_engines() -> (DesEngine, HeapEngine) {
    let mut cal = DesEngine::new();
    let mut heap = HeapEngine::new();
    let psp_a = cal.add_resource("psp", 1);
    let cpu_a = cal.add_resource("cpu", 16);
    let psp_b = heap.add_resource("psp", 1);
    let cpu_b = heap.add_resource("cpu", 16);
    assert_eq!(psp_a, psp_b);
    assert_eq!(cpu_a, cpu_b);
    (cal, heap)
}

/// Builds the DES workload: delay-dominated attestation round
/// trips plus a slice of PSP/CPU launches, with releases spread across the
/// calendar window so the pending-event set stays in the millions (the
/// regime where the heap engine's log-depth, cache-missing sifts dominate).
fn build_workload(cfg: PerfConfig) -> Vec<Job> {
    let mut scratch = DesEngine::new();
    let psp_a = scratch.add_resource("psp", 1);
    let cpu_a = scratch.add_resource("cpu", 16);

    let mut rng = XorShift64::new(cfg.seed);
    // Releases spread across half the calendar window and delays up to 2 s:
    // at full scale the pending-event set holds millions of future releases
    // plus every in-flight delay, which is where the heap's log-depth,
    // cache-missing sifts dominate and the calendar's O(1) pushes do not.
    let span_ns = 4_000_000_000u64;
    (0..cfg.jobs)
        .map(|_| {
            let release = Nanos::from_nanos(rng.next_below(span_ns));
            let segments = match rng.next_below(10) {
                // 80%: attestation round trips — two network delays.
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
                // 10%: template-hit launch (cpu setup, short psp).
                8 => vec![
                    Segment::on(cpu_a, Nanos::from_nanos(500 + rng.next_below(2_000)), "cpu"),
                    Segment::on(psp_a, Nanos::from_nanos(200 + rng.next_below(800)), "psp"),
                ],
                // 10%: warm invoke (pure cpu).
                _ => vec![Segment::on(
                    cpu_a,
                    Nanos::from_nanos(300 + rng.next_below(700)),
                    "cpu",
                )],
            };
            Job::released_at(release, segments)
        })
        .collect()
}

fn checksum(outcomes: &[JobOutcome]) -> u64 {
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for o in outcomes {
        for v in [
            o.job as u64,
            o.release.as_nanos(),
            o.finish.as_nanos(),
            o.queued.as_nanos(),
        ] {
            acc = (acc ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    acc
}

/// Runs the DES check: the same workload through both engines.
pub fn des_perf(cfg: PerfConfig) -> DesPerf {
    let jobs = build_workload(cfg);
    let events: u64 = jobs.iter().map(|j| 1 + j.segments.len() as u64).sum();
    let (mut cal, mut heap) = fresh_engines();
    let fast = cal.run(jobs.clone());
    DesPerf {
        jobs: jobs.len() as u64,
        events,
        outcome_checksum: checksum(&fast),
        engines_agree: fast == heap.run(jobs),
    }
}

/// Result of the measurement-path check.
#[derive(Debug, Clone)]
pub struct HashPerf {
    /// Pages measured.
    pub pages: u64,
    /// Pages dirtied before the incremental re-measure.
    pub dirty: u64,
    /// Full-chain digest (hex; deterministic, replay-gated).
    pub full_digest_hex: String,
    /// Whether the incremental digest equals the full re-hash.
    pub incremental_matches_full: bool,
    /// Page-digest cache hits during the warm paged measure.
    pub paged_cache_hits: u64,
}

fn refs(pages: &[[u8; 4096]]) -> Vec<PageRef<'_>> {
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

fn hex48(d: &[u8; 48]) -> String {
    let mut s = String::with_capacity(96);
    for b in d {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Runs the measurement check: full chain vs incremental vs paged.
pub fn hash_perf(cfg: PerfConfig) -> HashPerf {
    let mut rng = XorShift64::new(cfg.seed ^ 0xda7a);
    let mut pages: Vec<[u8; 4096]> = (0..cfg.pages)
        .map(|_| {
            let mut p = [0u8; 4096];
            for chunk in p.chunks_exact_mut(8) {
                chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
            }
            p
        })
        .collect();
    let dirty = cfg.dirty.min(cfg.pages);

    // Full chain over the clean image.
    let mut chain = MeasurementChain::new();
    for r in refs(&pages) {
        chain.add_page(r.gpa, r.data);
    }
    let full_digest = chain.finalize();

    // Incremental: prime on the clean image, dirty the tail (boot params /
    // CPUID pages in a template hit), re-measure.
    let mut inc = IncrementalChain::new();
    inc.measure(&refs(&pages));
    // Paged: prime the content cache on the clean image too.
    let mut cache = PageDigestCache::new();
    paged_measure(&refs(&pages), &mut cache);

    for p in pages.iter_mut().rev().take(dirty) {
        p[0] = p[0].wrapping_add(1);
        p[4095] ^= 0x5a;
    }

    let inc_digest = inc.measure(&refs(&pages));
    paged_measure(&refs(&pages), &mut cache);

    // The incremental digest must equal a from-scratch chain of the dirtied
    // image.
    let mut verify = MeasurementChain::new();
    for r in refs(&pages) {
        verify.add_page(r.gpa, r.data);
    }

    HashPerf {
        pages: cfg.pages as u64,
        dirty: dirty as u64,
        full_digest_hex: hex48(&full_digest),
        incremental_matches_full: inc_digest == verify.finalize(),
        paged_cache_hits: cache.hits(),
    }
}

/// The `perf` experiment: both checks at `--quick` or full size, exported.
///
/// # Panics
///
/// Panics if the two engines or the measurement paths diverged.
pub fn run(quick: bool) -> Document {
    let cfg = pick(quick, PerfConfig::quick, PerfConfig::full);
    let (d, h) = (des_perf(cfg), hash_perf(cfg));
    assert!(
        d.engines_agree,
        "calendar and heap engines diverged on the same workload"
    );
    assert!(
        h.incremental_matches_full,
        "incremental measurement diverged from the full re-hash"
    );
    Document {
        head: vec![
            ("des_jobs", d.jobs.into()),
            ("des_events", d.events.into()),
            (
                "outcome_checksum",
                format!("{:#018x}", d.outcome_checksum).into(),
            ),
            ("engines_agree", d.engines_agree.into()),
            ("pages", h.pages.into()),
            ("dirty_pages", h.dirty.into()),
            ("full_digest", h.full_digest_hex.into()),
            (
                "incremental_matches_full",
                h.incremental_matches_full.into(),
            ),
            ("paged_cache_hits", h.paged_cache_hits.into()),
        ],
        ..Document::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PerfConfig {
        PerfConfig {
            jobs: 500,
            pages: 16,
            dirty: 3,
            seed: 42,
        }
    }

    #[test]
    fn des_perf_engines_agree_and_checksum_is_stable() {
        let a = des_perf(tiny());
        let b = des_perf(tiny());
        assert!(a.engines_agree);
        assert_eq!(a.outcome_checksum, b.outcome_checksum);
        assert_eq!(a.jobs, 500);
        assert!(a.events > a.jobs);
    }

    #[test]
    fn hash_perf_incremental_is_exact() {
        let h = hash_perf(tiny());
        assert!(h.incremental_matches_full);
        assert_eq!(h.pages, 16);
        assert_eq!(h.dirty, 3);
        // Warm paged measure re-hashes only the dirty pages: the clean ones
        // all hit the cache.
        assert_eq!(h.paged_cache_hits, 16 - 3);
        assert_eq!(h.full_digest_hex.len(), 96);
        // Digest is deterministic in the seed.
        assert_eq!(h.full_digest_hex, hash_perf(tiny()).full_digest_hex);
    }
}
