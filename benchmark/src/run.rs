//! The untraced pass of one workload: set-up samples, the warm-up, the
//! timed repetitions, the SLO sweep, and the end-to-end metrics.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

use crate::json::Value;
use crate::metrics::{Metric, END_TO_END};
use crate::stats::{percentile, tail_percentile};
use crate::trace::Tracer;
use crate::workloads::{slo_rate, Kind, Size, Virt, Workload, SLO_P99_MS};

/// Fresh processes one untraced pass is spread over. Each sets up, warms
/// up and times its share of the repetitions; the pass pools them.
///
/// Fresh processes for `setup_s`, because images and initrds are cached
/// process-wide and a second set-up in one process would time the cache.
/// Fresh processes for `wall_us_per_op`, because on this box the level a
/// process runs at (page placement, neighbours) moves by 3-6 % between
/// processes while repetitions inside one agree much better; pooling three
/// levels steadies the median.
pub const SLICES: usize = 3;
/// Fewest timed repetitions per slice, whatever `--seconds` says: three
/// slices make nine, above the floor of seven.
pub const MIN_REPS_PER_SLICE: usize = 3;
/// Most timed repetitions per slice (a guard against a mis-sized workload).
const MAX_REPS_PER_SLICE: usize = 128;

/// Everything one pass reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// `--seed`.
    pub seed: u64,
    /// Whether this was the traced pass.
    pub traced: bool,
    /// Ops attempted (warm-up included).
    pub attempted: u64,
    /// Failed checks, one line each.
    pub failures: Vec<String>,
    /// The contract metrics of this pass (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Extra named numbers that are printed and stored but are not part of
    /// the contract's metric list.
    pub extra: Vec<Metric>,
    /// FNV over the simulated statistics of one repetition, as hex.
    pub sim_checksum: String,
    /// Free-form facts for the result file (`reps`, `ops_per_rep`, ...).
    pub facts: Vec<(&'static str, Value)>,
}

/// Hex rendering of a `sim_checksum`.
pub fn checksum_hex(sum: u64) -> String {
    format!("{sum:#018x}")
}

/// `{name: {value, unit[, q1, q3, n]}}`: how metrics travel in the contract
/// line, in result files and from a slice to its parent.
fn metrics_obj(metrics: &[Metric], quartiles: bool) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|m| {
                let mut v = Value::obj()
                    .with("value", m.value)
                    .with("unit", m.unit.as_str());
                if let Some(q) = m.quartiles.filter(|_| quartiles) {
                    v = v.with("q1", q.q1).with("q3", q.q3).with("n", q.n);
                }
                (m.name.clone(), v)
            })
            .collect(),
    )
}

/// The inverse of [`metrics_obj`] (quartiles are not read back).
fn parse_metrics(obj: Option<&Value>) -> Vec<Metric> {
    obj.map_or(&[][..], Value::members)
        .iter()
        .filter_map(|(name, m)| {
            Some(Metric::new(
                name,
                m.get("unit")?.as_str()?,
                m.get("value")?.as_f64()?,
            ))
        })
        .collect()
}

impl Outcome {
    /// The contract's last line of standard output.
    pub fn contract_line(&self) -> String {
        Value::obj()
            .with("correct", self.failures.is_empty())
            .with("attempted", self.attempted.max(1))
            .with(
                "failed",
                self.failures.len().min(self.attempted.max(1) as usize),
            )
            .with("metrics", metrics_obj(&self.metrics, false))
            .render()
    }

    /// The result-file object of this pass.
    pub fn to_json(&self) -> Value {
        let mut doc = Value::obj()
            .with("workload", self.workload)
            .with("seed", self.seed)
            .with("trace", u64::from(self.traced))
            .with("correct", self.failures.is_empty())
            .with("attempted", self.attempted)
            .with("failed", self.failures.len())
            .with("sim_checksum", self.sim_checksum.as_str());
        for (key, value) in &self.facts {
            doc = doc.with(key, value.clone());
        }
        doc.with("metrics", metrics_obj(&self.metrics, true))
            .with("extra", metrics_obj(&self.extra, true))
            .with("failures", Value::strings(&self.failures))
    }

    /// Prints every metric as `metric <name> <unit> <value> [q1 q3 n]`.
    pub fn print(&self) {
        for m in self.metrics.iter().chain(&self.extra) {
            match m.quartiles {
                Some(q) => println!(
                    "metric {} {} {} q1={} q3={} n={}",
                    m.name, m.unit, m.value, q.q1, q.q3, q.n
                ),
                None => println!("metric {} {} {}", m.name, m.unit, m.value),
            }
        }
        println!("sim_checksum {}", self.sim_checksum);
        for f in &self.failures {
            println!("FAILED {f}");
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn virt_metrics(kind: Kind, virt: &Virt, out: &mut Vec<Metric>, extra: &mut Vec<Metric>) {
    let lat = &virt.latencies_ms;
    let (mean, p50, p99) = if lat.is_empty() {
        (0.0, 0.0, 0.0)
    } else {
        (
            lat.iter().sum::<f64>() / lat.len() as f64,
            percentile(lat, 50.0),
            percentile(lat, 99.0),
        )
    };
    let goodput = if virt.span_s > 0.0 {
        virt.completed as f64 / virt.span_s
    } else {
        0.0
    };
    let served = virt.completed as f64 / virt.issued.max(1) as f64;
    out.push(Metric::new("virt_mean_ms", "ms", mean));
    out.push(Metric::new("virt_p99_ms", "ms", p99));
    out.push(Metric::new("virt_goodput_rps", "1/s", goodput));
    out.push(Metric::new("virt_served_frac", "ratio", served));
    extra.push(Metric::new("virt_p50_ms", "ms", p50));
    extra.push(Metric::new("virt_lost_frac", "ratio", 1.0 - served));
    extra.push(Metric::new(
        "virt_latency_samples",
        "count",
        lat.len() as f64,
    ));
    // The guide's rule: the highest percentile with ten samples beyond it.
    if let Some(pct) = tail_percentile(lat.len()) {
        extra.push(Metric::new("virt_tail_pct", "%", pct));
        extra.push(Metric::new("virt_tail_ms", "ms", percentile(lat, pct)));
    }
    for (name, value) in &virt.counters {
        extra.push(Metric::new(
            &format!("count.{}.{name}", kind.name()),
            "count",
            *value as f64,
        ));
    }
}

/// One slice of an untraced pass, run in a fresh process (`--slice`):
/// set-up, warm-up, timed repetitions for `seconds`, and (first slice only)
/// the SLO sweep. Returns the JSON object the parent pools.
///
/// # Errors
///
/// Set-up failures (nothing could be measured).
pub fn slice(kind: Kind, seed: u64, seconds: f64, with_sweep: bool) -> Result<Value, String> {
    let start = Instant::now();
    let mut tracer = Tracer::disabled();
    let mut workload = Workload::prepare(kind, seed, Size::full(kind), &mut tracer)?;
    let warm_up = workload.repetition(&mut tracer);
    let setup_s = start.elapsed().as_secs_f64();

    let mut failures = warm_up.failures.clone();
    let mut attempted = warm_up.ops;
    let reference = warm_up.virt.checksum();
    let mut reps_us = Vec::new();
    let timed = Instant::now();
    while reps_us.len() < MIN_REPS_PER_SLICE
        || (timed.elapsed().as_secs_f64() < seconds && reps_us.len() < MAX_REPS_PER_SLICE)
    {
        let rep = workload.repetition(&mut tracer);
        attempted += rep.ops;
        failures.extend(rep.failures);
        if rep.virt.checksum() != reference {
            failures.push(format!(
                "repetition {} simulated something else than the warm-up (sim_checksum {:#x} vs {reference:#x})",
                reps_us.len() + 1,
                rep.virt.checksum(),
            ));
        }
        reps_us.push(rep.wall.as_secs_f64() * 1e6 / rep.ops.max(1) as f64);
    }

    let mut virt = Vec::new();
    let mut extra = Vec::new();
    virt_metrics(kind, &warm_up.virt, &mut virt, &mut extra);
    if with_sweep {
        let sweep = workload.slo_sweep();
        if !sweep.is_empty() {
            extra.push(Metric::new("virt_slo_rps", "1/s", slo_rate(&sweep)));
            extra.push(Metric::new("virt_slo_limit_p99_ms", "ms", SLO_P99_MS));
            for (rate, p99, lost) in &sweep {
                extra.push(Metric::new(
                    &format!("virt_slo_p99_ms.at_{rate}"),
                    "ms",
                    *p99,
                ));
                extra.push(Metric::new(
                    &format!("virt_slo_lost_frac.at_{rate}"),
                    "ratio",
                    *lost,
                ));
            }
        }
    }
    Ok(Value::obj()
        .with("setup_s", setup_s)
        .with("reps_us", Value::numbers(&reps_us))
        .with("ops_per_rep", workload.ops_per_rep())
        .with("peak_rss_mb", peak_rss_mib())
        .with("sim_checksum", checksum_hex(reference))
        .with("attempted", attempted)
        .with("failures", Value::strings(&failures))
        .with("virt", metrics_obj(&virt, false))
        .with("extra", metrics_obj(&extra, false)))
}

/// Runs one slice in a fresh process and parses what it prints. The child
/// is waited for before this returns.
fn spawn_slice(kind: Kind, seed: u64, seconds: f64, with_sweep: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--slice", "--workload", kind.name(), "--seed"])
        .arg(seed.to_string())
        .arg("--seconds")
        .arg(seconds.to_string());
    if with_sweep {
        command.arg("--sweep");
    }
    let out = command
        .output()
        .map_err(|e| format!("spawning a slice: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "slice failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    Value::parse(text.lines().last().unwrap_or(""))
}

/// The untraced pass: end-to-end metrics of one workload, pooled over
/// [`SLICES`] fresh processes.
///
/// # Errors
///
/// A slice that could not set up or be parsed.
pub fn untraced(kind: Kind, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let started = Instant::now();
    let slices = (0..SLICES)
        .map(|i| spawn_slice(kind, seed, seconds / SLICES as f64, i == 0))
        .collect::<Result<Vec<_>, _>>()?;
    let numbers = |key: &str| {
        slices
            .iter()
            .map(|doc| {
                doc.get(key)
                    .and_then(Value::as_f64)
                    .ok_or(format!("a slice printed no {key}"))
            })
            .collect::<Result<Vec<f64>, String>>()
    };
    let items = |key: &'static str| {
        slices
            .iter()
            .flat_map(move |doc| doc.get(key).map_or(&[][..], Value::items))
    };
    let setups = numbers("setup_s")?;
    let rss = numbers("peak_rss_mb")?;
    let attempted = numbers("attempted")?.iter().sum::<f64>() as u64;
    let reps_us: Vec<f64> = items("reps_us").filter_map(Value::as_f64).collect();
    let mut failures: Vec<String> = items("failures")
        .filter_map(|f| f.as_str().map(str::to_string))
        .collect();
    let checksums: Vec<&str> = slices
        .iter()
        .map(|doc| {
            doc.get("sim_checksum")
                .and_then(Value::as_str)
                .unwrap_or("missing")
        })
        .collect();
    if checksums.iter().any(|c| *c != checksums[0]) {
        failures.push(format!(
            "fresh processes simulated different things for one seed: {checksums:?}"
        ));
    }
    let first = &slices[0];

    let mut metrics = vec![
        Metric::sampled("setup_s", "s", &setups),
        Metric::sampled("wall_us_per_op", "us", &reps_us),
        Metric::new(
            "peak_rss_mb",
            "MiB",
            rss.iter().copied().fold(f64::MIN, f64::max),
        ),
    ];
    metrics.extend(parse_metrics(first.get("virt")));
    let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
    let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    if names != expected {
        return Err(format!("slices reported {names:?}, expected {expected:?}"));
    }
    let mut extra = parse_metrics(first.get("extra"));
    extra.push(Metric::new(
        "op_fail_frac",
        "ratio",
        failures.len() as f64 / attempted.max(1) as f64,
    ));

    Ok(Outcome {
        workload: kind.name(),
        seed,
        traced: false,
        attempted,
        failures,
        metrics,
        extra,
        sim_checksum: checksums[0].to_string(),
        facts: vec![
            ("loop", Value::from(kind.loop_type())),
            (
                "ops_per_rep",
                first.get("ops_per_rep").cloned().unwrap_or(Value::Null),
            ),
            ("processes", Value::from(SLICES)),
            ("reps", Value::from(reps_us.len())),
            ("reps_us_per_op", Value::numbers(&reps_us)),
            ("pass_s", Value::from(started.elapsed().as_secs_f64())),
            (
                "arrivals",
                Value::from(
                    "generated on the virtual clock inside the simulator; the generator is never late",
                ),
            ),
        ],
    })
}

/// Writes `outcome` as `<dir>/<workload>.trace<0|1>.json`.
///
/// # Errors
///
/// I/O failures, as text.
pub fn write_result(dir: &Path, outcome: &Outcome) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}.trace{}.json",
        outcome.workload,
        u8::from(outcome.traced)
    ));
    std::fs::write(&path, outcome.to_json().render_pretty())
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(failures: Vec<String>) -> Outcome {
        Outcome {
            workload: "serve_core",
            seed: 7,
            traced: false,
            attempted: 1_000,
            failures,
            metrics: vec![
                Metric::sampled("wall_us_per_op", "us", &[3.0, 3.5, 3.25]),
                Metric::new("peak_rss_mb", "MiB", 337.25),
            ],
            extra: vec![Metric::new("virt_lost_frac", "ratio", 0.0)],
            sim_checksum: checksum_hex(0xabc),
            facts: vec![("reps", Value::from(3usize))],
        }
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let line = outcome(Vec::new()).contract_line();
        assert!(!line.contains('\n'));
        let doc = Value::parse(&line).unwrap();
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Value::as_f64), Some(1_000.0));
        assert_eq!(doc.get("failed").and_then(Value::as_f64), Some(0.0));
        let metrics = doc.get("metrics").unwrap().members();
        assert_eq!(metrics.len(), 2, "extras stay out of the contract line");
        for (_, m) in metrics {
            let keys: Vec<&str> = m.members().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["value", "unit"]);
        }
        assert_eq!(
            doc.get("metrics")
                .and_then(|m| m.get("wall_us_per_op"))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64),
            Some(3.25)
        );
    }

    #[test]
    fn failed_checks_make_the_run_incorrect() {
        let doc = Value::parse(&outcome(vec!["digest".into()]).contract_line()).unwrap();
        assert_eq!(doc.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(doc.get("failed").and_then(Value::as_f64), Some(1.0));
    }

    #[test]
    fn result_file_keeps_quartiles_extras_and_the_checksum() {
        let doc = outcome(Vec::new()).to_json();
        let wall = doc
            .get("metrics")
            .and_then(|m| m.get("wall_us_per_op"))
            .unwrap();
        assert_eq!(wall.get("n").and_then(Value::as_f64), Some(3.0));
        assert!(wall.get("q1").is_some() && wall.get("q3").is_some());
        assert!(doc
            .get("extra")
            .and_then(|e| e.get("virt_lost_frac"))
            .is_some());
        assert_eq!(
            doc.get("sim_checksum").and_then(Value::as_str),
            Some("0x0000000000000abc")
        );
        assert_eq!(Value::parse(&doc.render_pretty()).unwrap(), doc);
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mib() > 1.0);
    }
}
