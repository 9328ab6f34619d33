//! Trace-driven autoscaling: one flash crowd, three provisioning arms.
//!
//! ```text
//! cargo run --release --example autoscale_drill            # paper-scale sweep
//! cargo run --release --example autoscale_drill -- --quick
//! cargo run --release --example autoscale_drill -- --quick --json
//! ```
//!
//! Every arm serves the *same* flash-crowd arrival trace — a quiet base
//! rate, a fast ramp to many times base, an exponential decay back down —
//! and differs only in who pays for capacity. The **static** arm keeps
//! `max_hosts` up for the whole run: the tail holds trivially and the
//! host-seconds bill is the worst possible. The **reactive** arm starts at
//! `min_hosts` and scales out on PSP backlog: by the time the queue hurts,
//! the ramp has already arrived, and the crowd eats the scale-out latency
//! as tail. The **predictive** arm forecasts the windowed rate trend,
//! pre-provisions spares ahead of the ramp, and warms their pools before
//! they take traffic: the tail holds at a fraction of static's cost.
//!
//! `--json` prints the full result as deterministic JSON: two runs with
//! the same flags emit byte-identical output (the CI replay gate diffs
//! one against `data/golden/`).

use sevf_bench::experiment::run_example;
use sevf_bench::pick;
use sevf_cluster::scalesweep::{ScaleSweepConfig, SEED};

fn main() {
    run_example("autoscale_drill", intro, TAKEAWAY);
}

fn intro(quick: bool) {
    let cfg = pick(
        quick,
        ScaleSweepConfig::quick,
        ScaleSweepConfig::paper_scale,
    );
    println!("one flash crowd, three provisioning arms\n");
    println!(
        "workload (seed {SEED:#x}): base {:.0} req/s, crowd to {:.0} req/s at",
        cfg.crowd.base, cfg.crowd.peak
    );
    println!(
        "{:.1} s over a {:.0} ms ramp (decay {:.0} ms); elastic arms run",
        cfg.crowd.at.as_secs_f64(),
        cfg.crowd.ramp.as_millis_f64(),
        cfg.crowd.decay.as_millis_f64()
    );
    println!(
        "{}..{} hosts against a {:.0} ms p99 target, static pins {}.",
        cfg.min_hosts, cfg.max_hosts, cfg.slo_ms, cfg.max_hosts
    );
}

const TAKEAWAY: &str = "\
takeaway: the static ceiling holds the tail by paying for every host
all run long; reactive scales only after the backlog already hurts,
so the crowd eats the join latency as p99; predictive reads the ramp's
slope, joins warmed spares before the peak, and holds the SLO at a
fraction of static's host-seconds — every arm conserves every request.";
