//! Perf sweep: how fast is the harness itself?
//!
//! ```text
//! cargo run --release --example perf_sweep            # full-scale sweep
//! cargo run --release --example perf_sweep -- --quick
//! cargo run --release --example perf_sweep -- --quick --json
//! ```
//!
//! Two microbenchmarks over one seeded workload. **DES**: a fleet-shaped
//! job mix runs through the calendar-queue engine and through the heap
//! reference engine it replaced; the outcomes must be identical, and the
//! wall-clock ratio is the engine-swap speedup. **Hashing**: one page
//! image is measured three ways — full SHA-384 chain, incremental
//! re-measure after dirtying a small suffix (the §6.2 template-hit
//! shape), and the two-level paged scheme against a warm content cache —
//! all three agreeing on the digest.
//!
//! `--json` prints only the deterministic facts (job counts, the outcome
//! checksum, the launch digest, the agreement booleans): two runs with
//! the same flags emit byte-identical output, so the CI replay gate can
//! diff them. The text table is the only place the calendar-vs-heap
//! wall-clock ratio prints; it is for reading, not a result — a speed claim
//! is checked with `benchmark/run.sh` (see README.md).

use sevf_bench::experiment::{parse_cli, Flag};
use sevf_bench::perf::run_checked;

fn main() {
    let cli = parse_cli("perf_sweep", &[Flag::Json]);
    let sweep = run_checked(cli.quick);
    if cli.json {
        return println!("{}", sweep.document().json_text());
    }

    println!("harness raw speed, one seeded workload through every path\n");
    println!("{}", sweep.text());
    println!("takeaway: the simulator's answer never depends on which engine or");
    println!("measurement path ran — only the wall-clock does. The calendar queue");
    println!("turns the event heap's O(log n) pops into O(1) bucket scans, and the");
    println!("incremental/paged measurement paths re-hash only what a template hit");
    println!("actually dirties, which is what makes the paper-scale sweeps cheap");
    println!("enough to replay byte-for-byte in CI.");
}
