//! Cluster scaling: sharded multi-host serving with PSP-aware placement.
//!
//! ```text
//! cargo run --release --example cluster_scaling            # paper-scale sweep
//! cargo run --release --example cluster_scaling -- --quick
//! cargo run --release --example cluster_scaling -- --quick --json
//! ```
//!
//! Three arms over one measured catalog. **Scaling**: offered load grows
//! linearly with the host count for each serving tier — template and
//! warm-pool serving scale out near-linearly, while cold SEV serving stays
//! pinned at each host's PSP ceiling (Fig. 12 is a per-machine law; adding
//! hosts shards the bottleneck but never lifts the per-host number).
//! **Placement**: the same cluster and stream under three routers —
//! round-robin, join-shortest-PSP-backlog (power-of-two-choices), and
//! template-affinity over a seeded consistent-hash ring, which measures
//! each class's §6.2 template on one owner host instead of every host.
//! **Outage**: a whole host dies mid-stream under affinity placement; the
//! naive cluster permanently fails what the host was holding, the
//! resilient cluster fails queued and in-flight work over to survivors
//! (which re-measure the dead host's templates — §6.2 across machines),
//! rebalances the warm budget, and holds goodput.
//!
//! `--json` prints the full result as deterministic JSON: two runs with the
//! same flags emit byte-identical output (the CI replay gate diffs one
//! against `data/golden/`).

use sevf_bench::experiment::run_example;
use sevf_cluster::experiment::SEED;

fn main() {
    run_example("cluster_scaling", intro, TAKEAWAY);
}

fn intro(_quick: bool) {
    println!("serving one launch stream across a cluster of PSP-bound hosts\n");
    println!(
        "every request stream, placement probe, and fault domain below replays from\n\
         seed {SEED:#x}; the per-host cold SEV ceiling (req/s) comes first."
    );
}

const TAKEAWAY: &str = "\
takeaway: the PSP bottleneck shards but never pools — cold per-host
goodput is flat no matter how many hosts join, while template and
warm tiers track the offered load. Affinity placement measures each
template once cluster-wide instead of once per host, and when a host
dies mid-stream the resilient cluster re-routes its work, re-measures
its templates on the survivors, and rebalances the warm budget; the
naive cluster just loses everything the dead host was holding.";
