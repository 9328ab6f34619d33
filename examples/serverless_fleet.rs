//! Serverless fleet: concurrent cold boots and the PSP bottleneck (Fig. 12).
//!
//! ```text
//! cargo run --release --example serverless_fleet            # 1–50 guests
//! cargo run --release --example serverless_fleet -- --quick
//! cargo run --release --example serverless_fleet -- --quick --json
//! ```
//!
//! Models a serverless platform cold-starting a burst of function
//! instances. One functional boot per policy gives the per-VM work profile
//! (boot time to init; attestation is stripped, as in the figure), and the
//! discrete-event engine replays it at each burst size. With SEV, every
//! launch serializes through the machine's single PSP core, so average
//! boot time grows linearly with the burst; without SEV, the 32-core host
//! absorbs the burst almost flat. This is `figures --fig 12`.

use sevf_bench::experiment::run_example;

fn main() {
    run_example("serverless_fleet", intro, TAKEAWAY);
}

fn intro(_quick: bool) {
    println!("cold-starting bursts of AWS-kernel microVMs (256 MB, 1 vCPU)");
}

const TAKEAWAY: &str = "\
takeaway: the PSP is the serverless bottleneck — the SEV mean climbs by
the per-launch PSP time for every guest added (to ~2 s at the paper's 50),
while the same burst without SEV is flat until the host runs out of cores.
(The paper flags fixing this as future work; `figures --fig fw12` is the
shared-key mitigation it sketches.)";
