//! The traced pass: the workload at a tenth of its ops with the span
//! recorder on, plus the per-layer probe battery.
//!
//! End-to-end metrics never come from here; the traced pass yields the
//! per-layer numbers, the span tree (`trace.json`) and the recorder's own
//! overhead.

use std::path::Path;
use std::time::Instant;

use crate::json::Value;
use crate::metrics::{Metric, PER_LAYER};
use crate::probes;
use crate::run::{checksum_hex, Outcome};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{Kind, Size, Workload};

/// Untraced/traced repetition pairs behind `bench.trace_overhead_pct`.
/// The untraced pass runs some 36 boots or 2.4 million requests; a tenth of
/// that is one boot round, or twelve repetitions of 10 000 requests, each
/// run once without and once with the recorder.
fn overhead_pairs(kind: Kind) -> usize {
    if kind.is_boot() {
        1
    } else {
        12
    }
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Runs the traced pass of `kind` and writes `trace.json` (also kept as
/// `trace.<workload>.json`) into `out_dir`.
///
/// # Errors
///
/// Set-up or I/O failures.
pub fn traced(kind: Kind, seed: u64, out_dir: &Path) -> Result<Outcome, String> {
    let mut tracer = Tracer::enabled();
    let mut off = Tracer::disabled();
    let mut workload = Workload::prepare(kind, seed, Size::traced(kind), &mut tracer)?;
    let mut failures = Vec::new();
    let mut attempted = 0;
    let mut reference = None;

    // Alternate untraced and traced repetitions so drift hits both alike.
    // The first untraced one doubles as the warm-up.
    let (mut plain_us, mut traced_us) = (Vec::new(), Vec::new());
    for pair in 0..overhead_pairs(kind) {
        for traced in [false, true] {
            tracer.set_op(pair as u64 + 1);
            let rep = workload.repetition(if traced { &mut tracer } else { &mut off });
            attempted += rep.ops;
            failures.extend(rep.failures);
            if *reference.get_or_insert(rep.virt.checksum()) != rep.virt.checksum() {
                failures.push("the recorder changed what was simulated".into());
            }
            let per_op = rep.wall.as_secs_f64() * 1e6 / rep.ops.max(1) as f64;
            if traced {
                traced_us.push(per_op);
            } else {
                plain_us.push(per_op);
            }
        }
    }
    let overhead_pct = 100.0 * (median(&traced_us) - median(&plain_us)) / median(&plain_us);

    tracer.set_op(0);
    let battery_start = Instant::now();
    let battery = probes::run(seed, &mut tracer);
    let battery_s = battery_start.elapsed().as_secs_f64();
    attempted += battery.checks;
    failures.extend(battery.failures);

    let mut metrics = battery.metrics;
    metrics.push(Metric::new("bench.trace_overhead_pct", "%", overhead_pct));
    metrics.push(Metric::new("bench.probe_battery_s", "s", battery_s));
    let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
    let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    if names != expected {
        return Err(format!(
            "the traced pass reported {} metrics, the table has {}",
            names.len(),
            expected.len()
        ));
    }

    // Spans stay in memory until here: written once, when the pass ends.
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let trace = tracer.chrome_trace().render();
    write(&out_dir.join(format!("trace.{}.json", kind.name())), &trace)?;
    write(&out_dir.join("trace.json"), &trace)?;

    println!("span name count total_ms self_ms");
    for (name, t) in tracer.totals() {
        println!(
            "span {name} {} {:.3} {:.3}",
            t.count,
            t.total as f64 / 1e6,
            t.self_time as f64 / 1e6
        );
    }
    for line in &battery.anchors {
        println!("{line}");
    }

    let extra = vec![
        Metric::sampled("traced_pass.untraced_us_per_op", "us", &plain_us),
        Metric::sampled("traced_pass.traced_us_per_op", "us", &traced_us),
    ];
    Ok(Outcome {
        workload: kind.name(),
        seed,
        traced: true,
        attempted,
        failures,
        metrics,
        extra,
        sim_checksum: checksum_hex(reference.unwrap_or_default()),
        facts: vec![
            ("ops_per_rep", Value::from(workload.ops_per_rep())),
            ("spans", Value::from(tracer.spans().len())),
            ("anchors", Value::strings(&battery.anchors)),
        ],
    })
}
