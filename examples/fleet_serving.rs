//! Fleet serving: cold vs template vs warm-pool launch tiers under load.
//!
//! ```text
//! cargo run --release --example fleet_serving          # paper-scale sweep
//! cargo run --release --example fleet_serving -- --quick
//! cargo run --release --example fleet_serving -- --quick --json
//! ```
//!
//! Serves the same seeded open-loop request stream — a mix of kernel
//! configs and SEV generations — at increasing offered loads under three
//! serving tiers. Cold serving serializes every launch's SEV commands on
//! the machine's single PSP core, so it saturates at `1000 / psp_ms` req/s
//! (Fig. 12's slope turned into a throughput ceiling). Shared-key templates
//! (§6.2) cut per-request PSP work to the activation command, and warm
//! pools (§7.1) skip the PSP entirely on hits, so each reuse tier sustains
//! strictly higher load before its p99 blows up and the admission queue
//! starts shedding.

use sevf_bench::experiment::run_example;

fn main() {
    run_example("fleet_serving", intro, TAKEAWAY);
}

fn intro(_quick: bool) {
    println!("serving a mixed launch stream against one PSP core\n");
    println!("cold launches serialize their PSP work (ms per VM for this mix, first");
    println!("line below), so the cold tier cannot sustain more than the req/s on the");
    println!("second line no matter how many host cores are free.");
}

const TAKEAWAY: &str = "\
takeaway: the PSP — not CPU — caps cold SEV serving. Templates
raise the ceiling by sharing one measured launch per class; warm
pools remove it on hits, at the cost of resident encrypted memory
that cannot be deduplicated across guests.";
