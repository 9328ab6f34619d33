//! Trace explorer: per-request critical paths from the traced control planes.
//!
//! ```text
//! cargo run --release --example trace_explorer             # paper-scale
//! cargo run --release --example trace_explorer -- --quick
//! cargo run --release --example trace_explorer -- --quick --json
//! cargo run --release --example trace_explorer -- --chrome /tmp/trace.json
//! ```
//!
//! Re-runs three exemplar scenarios with span recording on — a cold launch
//! under PSP contention, a §6.2 template hit, and a request that failed
//! over off a dead host mid-outage — and prints each exemplar request's
//! per-phase critical path: admission, queue wait, the PSP and CPU boot
//! phases, retry backoff, and attestation, summing exactly to the latency
//! the metrics report for that request.
//!
//! `--json` prints the registered `trace` document (`figures --table
//! trace` shows its one-line-per-scenario summary; the golden in
//! `data/golden/` pins it). This example keeps its own `main` for what a
//! document cannot carry: the per-phase tables, and `--chrome FILE`, which
//! writes the failover scenario's full span set as a Chrome `trace_event`
//! file — load it in `chrome://tracing` or Perfetto.

use sevf_bench::experiment::{parse_cli, trace_document, trace_text, Flag};
use sevf_cluster::tracedemo::{scenarios, TracedRun};
use sevf_obs::{chrome_trace_json, prometheus_text};

fn main() {
    let cli = parse_cli("trace_explorer", &[Flag::Json, Flag::Chrome]);
    let s = scenarios(cli.quick).expect("trace scenarios");

    if let Some(path) = &cli.chrome {
        std::fs::write(path, chrome_trace_json(&s.failover.log)).expect("write chrome trace");
        eprintln!("wrote Chrome trace_event file to {path}");
    }

    if cli.json {
        println!("{}", trace_document(&s).json_text());
        return;
    }

    println!("per-request critical paths from the traced control planes\n");
    for run in [&s.cold, &s.template, &s.failover] {
        print_run(run);
    }
    println!("takeaway: the span trees tile — every nanosecond of a request's");
    println!("latency is attributed to exactly one phase, so the queue-wait");
    println!("share of the PSP bottleneck, the pre-encryption a template hit");
    println!("avoids, and the backoff a failover costs are all read directly");
    println!("off the same clock the metrics use. Re-run with --chrome FILE");
    println!("to open the failover run in chrome://tracing.");
}

fn print_run(run: &TracedRun) {
    print!("{}", trace_text(run));
    // One unified-registry line as a teaser; the full dump is one call away.
    let text = prometheus_text(&run.registry);
    if let Some(line) = text
        .lines()
        .find(|l| l.contains("completed_total") && !l.starts_with('#'))
    {
        println!(
            "  registry: {line} (+ {} more lines)",
            text.lines().count() - 1
        );
    }
    println!();
}
