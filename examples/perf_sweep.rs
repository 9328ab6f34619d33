//! Perf sweep: does every fast path still compute what the slow one does?
//!
//! ```text
//! cargo run --release --example perf_sweep            # 12M jobs, 1024 pages
//! cargo run --release --example perf_sweep -- --quick
//! cargo run --release --example perf_sweep -- --quick --json
//! ```
//!
//! Two differential checks over one seeded workload. **DES**: a
//! fleet-shaped job mix runs through the calendar-queue engine and through
//! the heap reference engine it replaced; the outcomes must be identical,
//! and their checksum pins the workload. **Hashing**: one page image is
//! measured three ways — full SHA-384 chain, incremental re-measure after
//! dirtying a small suffix (the §6.2 template-hit shape), and the
//! two-level paged scheme against a warm content cache — all three
//! agreeing on the digest. This is `figures --table perf`.
//!
//! Nothing here reads a clock: how fast each path runs is
//! `benchmark/run.sh`'s `sim.des_us_per_job` and `psp.measure_*_mb_s`
//! probes (see README.md).

use sevf_bench::experiment::run_example;

fn main() {
    run_example("perf_sweep", intro, TAKEAWAY);
}

fn intro(_quick: bool) {
    println!("one seeded workload through every engine and measurement path");
}

const TAKEAWAY: &str = "\
takeaway: the simulator's answer never depends on which engine or
measurement path ran. The calendar queue turns the event heap's
O(log n) pops into O(1) bucket scans, and the incremental/paged paths
re-hash only what a template hit dirties — same outcomes, same digest.";
