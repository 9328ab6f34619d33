//! Fleet chaos: fault injection, retries, and graceful degradation.
//!
//! ```text
//! cargo run --release --example fleet_chaos            # paper-scale sweep
//! cargo run --release --example fleet_chaos -- --quick
//! cargo run --release --example fleet_chaos -- --quick --json
//! ```
//!
//! Serves the same seeded launch stream three times per offered load: once
//! fault-free, then twice under an identical seeded fault storm — PSP
//! firmware resets (which kill every in-flight launch *and* the shared-key
//! template cache, forcing each class to re-measure, §6.2's trust caveat
//! under failure), transient launch-command failures, warm-guest crashes,
//! and attestation round trips that hang or error. The **naive** arm has no
//! recovery: every fault permanently fails its request and dispatches keep
//! feeding the dead PSP through outages. The **resilient** arm retries with
//! seeded exponential backoff, sheds on deadline, degrades tripped classes
//! down the tier ladder (warm → template → cold), and quiesces PSP work
//! across reset outages.
//!
//! `--json` prints the full result as deterministic JSON: two runs with the
//! same flags emit byte-identical output (the CI replay gate diffs one
//! against `data/golden/`).

use sevf_bench::experiment::run_example;
use sevf_fleet::chaos::SEED;

fn main() {
    run_example("fleet_chaos", intro, TAKEAWAY);
}

fn intro(_quick: bool) {
    println!("serving a launch stream while the substrate misbehaves\n");
    println!("storm (seed {SEED:#x}): PSP firmware resets and warm-guest crashes planned");
    println!("over the longest run (counted below), plus per-command transient and");
    println!("attestation faults. Both faulted arms replay the exact same plan.");
}

const TAKEAWAY: &str = "\
takeaway: with no recovery, every PSP reset burns the in-flight
launches and the template cache, and every transient is a dead
request — goodput collapses. Bounded retries with backoff, deadline
sheds, breaker-driven tier degradation, and quiescing the PSP across
outages hold goodput through the same storm; the bill is the p99,
which absorbs the backoff and re-measurement work.";
