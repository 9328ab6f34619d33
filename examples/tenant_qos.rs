//! Multi-tenant QoS: one mixed workload, three policy arms.
//!
//! ```text
//! cargo run --release --example tenant_qos            # paper-scale sweep
//! cargo run --release --example tenant_qos -- --quick
//! cargo run --release --example tenant_qos -- --quick --json
//! ```
//!
//! Three tenants share one cluster: **premium** (latency-sensitive
//! trickle, WFQ weight 8), **batch** (a flood of heavyweight SNP-skewed
//! classes, weight 1, quota-capped), and **strict** (refuses any host
//! below the patched TCB floor) — while a staggered firmware rollout
//! sweeps the fleet mid-run. The **fifo** arm tags tenants but enforces
//! nothing: the flood queues ahead of the trickle and premium's p99 blows
//! past its deadline target. The **wfq** arm switches each PSP's queue to
//! virtual-finish-time weighted-fair queueing plus token-bucket quotas:
//! premium's p99 holds while batch keeps its throughput. The
//! **wfq+posture** arm adds posture-aware placement: the strict tenant is
//! only ever placed on hosts at or above its TCB floor, and the posture
//! violation counter must read zero.
//!
//! `--json` prints the full result as deterministic JSON: two runs with
//! the same flags emit byte-identical output (the CI replay gate diffs
//! one against `data/golden/`).

use sevf_bench::experiment::run_example;
use sevf_bench::pick;
use sevf_cluster::policysweep::{PolicySweepConfig, SEED};

fn main() {
    run_example("tenant_qos", intro, TAKEAWAY);
}

fn intro(quick: bool) {
    let cfg = pick(
        quick,
        PolicySweepConfig::quick,
        PolicySweepConfig::paper_policy,
    );
    println!("three tenants, one cluster, three policy arms\n");
    println!(
        "workload (seed {SEED:#x}): {} req/s over {} hosts — premium trickle",
        cfg.rps, cfg.hosts
    );
    println!(
        "(LS, weight 8, p99 target {} ms), batch flood (weight 1, quota",
        cfg.premium_deadline_ms
    );
    println!(
        "{:.0} req/s, sheds first), strict (TCB >= 1 hosts only, rollout",
        cfg.batch_quota.rate_per_sec
    );
    println!(
        "starts at {:.0} ms, {:.0} ms stagger).",
        cfg.rollout.start.as_millis_f64(),
        cfg.rollout.stagger.as_millis_f64()
    );
}

const TAKEAWAY: &str = "\
takeaway: with one FIFO line per PSP the batch flood queues ahead of
the premium trickle and its tail collapses; weighted-fair queueing
gives premium a protected share of every PSP without starving batch
(quota rejects replace queue sheds at saturation), and posture-aware
placement keeps the strict tenant off unpatched firmware through the
whole rollout — zero posture violations, every tenant conserved.";
