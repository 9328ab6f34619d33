//! Partition drill: the cluster control plane under deterministic link
//! faults, a minority island, and a verifier blackout.
//!
//! ```text
//! cargo run --release --example partition_drill            # paper-scale sweep
//! cargo run --release --example partition_drill -- --quick
//! cargo run --release --example partition_drill -- --quick --json
//! ```
//!
//! Three arms over one measured catalog, each run twice over the *same*
//! seeded link schedule — identical latency draws, loss draws, and
//! partition windows — so the two rows of an arm differ only in the
//! control plane. **Partition**: one host's router↔host pair is cut
//! mid-stream and heals; the naive policy keeps dispatching into the
//! hole while the resilient one suspects the host via phi-accrual
//! heartbeats, routes around it, parks it behind an expired lease, and
//! sweeps its stranded work to the survivors once the lease bound makes
//! that safe. **Island**: two hosts form a minority island that keeps
//! serving work it cannot report back — epoch fencing discards its late
//! completions after the failover sweep, so every request is counted
//! exactly once. **Blackout**: the router↔verifier link goes dark during
//! a staggered TCB rollout; fail-closed refuses every launch until the
//! heal, fail-open serves stale cached verdicts within a bounded budget
//! and re-verifies afterwards.
//!
//! `--json` prints the full result as deterministic JSON: two runs with
//! the same flags emit byte-identical output (the CI replay gate diffs
//! one against `data/golden/`).

use sevf_bench::experiment::run_example;
use sevf_bench::pick;
use sevf_cluster::netsweep::{
    NetSweepConfig, DISPATCH_TIMEOUT, HEARTBEAT_EVERY, LEASE, LINK, SEED,
};

fn main() {
    run_example("partition_drill", intro, TAKEAWAY);
}

fn intro(quick: bool) {
    let cfg = pick(
        quick,
        NetSweepConfig::quick,
        NetSweepConfig::paper_partition,
    );
    println!("serving a launch stream across a faulty network, twice per arm\n");
    println!(
        "link model (seed {SEED:#x}): {:.0} µs latency + [0, {:.0}) µs jitter, {:.2}% loss;",
        LINK.latency.as_millis_f64() * 1000.0,
        LINK.jitter.as_millis_f64() * 1000.0,
        LINK.loss * 100.0
    );
    println!(
        "every arm cuts its links from {:.1} s to {:.1} s; dispatch timeout {:.0} ms,",
        cfg.cut_start.as_secs_f64(),
        cfg.cut_end.as_secs_f64(),
        DISPATCH_TIMEOUT.as_millis_f64()
    );
    println!(
        "heartbeats every {:.0} ms, leases {:.0} ms renewed every {:.0} ms.",
        HEARTBEAT_EVERY.as_millis_f64(),
        LEASE.duration.as_millis_f64(),
        LEASE.renew_every.as_millis_f64()
    );
}

const TAKEAWAY: &str = "\
takeaway: a partition is not an outage — the cut host keeps serving
work it can no longer report, so the naive policy both wastes its
retry budget dispatching into the hole and risks double-serving on
the heal. The resilient plane suspects the silence, fences the island
behind expired leases, fails stranded work over exactly once under
epoch fencing, and keeps the conservation ledger exact through the
split-brain. When the verifier itself goes dark, failing open within
a bounded staleness budget keeps launches flowing where fail-closed
refuses them, and every stale verdict is re-verified on the heal.";
