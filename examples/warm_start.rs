//! Warm start (§7.1): keep-alive latency against its memory rent.
//!
//! ```text
//! cargo run --release --example warm_start
//! cargo run --release --example warm_start -- --quick
//! cargo run --release --example warm_start -- --quick --json
//! ```
//!
//! Boots two identical keep-alive guests per policy and compares the
//! regimes the paper discusses:
//!
//! 1. **Cold boot** — the full SEVeriFast pipeline (what the paper makes
//!    86–93 % faster, but still ~4× a plain microVM).
//! 2. **Keep-alive warm invocation** — microseconds, but each kept-alive VM
//!    holds its working set and, under SEV, almost *none of it
//!    deduplicates*: ciphertext is unique per VM key and page address.
//!
//! This is `figures --table warm`. The third regime — shared-key template
//! launches, the paper's sketched PSP-bottleneck mitigation (§6.2/§8) —
//! is `figures --fig fw12`; `tests/security.rs` holds its trust caveat
//! (VMs sharing a key can deduplicate against each other).

use sevf_bench::experiment::run_example;

fn main() {
    run_example("warm_start", intro, TAKEAWAY);
}

fn intro(_quick: bool) {
    println!("one cold boot, one warm invocation and two identical keep-alives per policy");
}

const TAKEAWAY: &str = "\
takeaway: a kept-alive guest answers ~1000× faster than even a
SEVeriFast cold boot, but an SEV keep-alive pays its memory rent in
full — only the plain-text staging pages dedup, while two identical
non-SEV guests share half their pages.";
