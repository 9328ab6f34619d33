//! `--compare A.json B.json`: per metric and workload, how far B moved
//! from A against the metric's bound.
//!
//! * `ok` — not worse than the bound allows (virtual-clock metrics of two
//!   same-seed runs must be identical to be `ok`);
//! * `regressed` — worse than the bound and the spread is inside it;
//! * `unresolved` — the run-to-run spread exceeds the bound, so neither
//!   "unchanged" nor "regressed" can be said.

use crate::json::Value;
use crate::metrics::{end_to_end, Clock, PER_LAYER};

/// One compared number.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Value in A.
    pub a: f64,
    /// Value in B.
    pub b: f64,
    /// Worsening of B against A as a share of A (negative = better);
    /// plain relative change where the metric has no direction.
    pub worsening: f64,
    /// The verdict.
    pub status: Status,
}

/// The verdict on one number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Within the bound (or identical, where identity is demanded).
    Ok,
    /// Worse than the bound.
    Regressed,
    /// Spread wider than the bound.
    Unresolved,
    /// A number without a bound (per-layer, counts): reported, not judged.
    Info,
    /// A number that must repeat exactly for one seed and did not.
    Changed,
}

impl Status {
    /// Lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Regressed => "regressed",
            Status::Unresolved => "unresolved",
            Status::Info => "info",
            Status::Changed => "changed",
        }
    }
}

/// The runs of a result file: a set (`{"runs": [...]}`) or a single run.
fn runs(doc: &Value) -> Vec<&Value> {
    match doc.get("runs") {
        Some(list) => list.items().iter().collect(),
        None => vec![doc],
    }
}

fn key(run: &Value) -> (String, u64) {
    (
        run.get("workload")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string(),
        run.get("trace").and_then(Value::as_f64).unwrap_or(0.0) as u64,
    )
}

/// Spread of a stored metric: (q3 - q1) / value, 0 without quartiles.
fn spread(metric: &Value) -> f64 {
    let get = |k: &str| metric.get(k).and_then(Value::as_f64);
    match (get("q1"), get("q3"), get("value")) {
        (Some(q1), Some(q3), Some(v)) if v != 0.0 => (q3 - q1) / v.abs(),
        _ => 0.0,
    }
}

fn judge(name: &str, ma: &Value, mb: &Value, same_seed: bool) -> Option<(f64, Status)> {
    let a = ma.get("value")?.as_f64()?;
    let b = mb.get("value")?.as_f64()?;
    let relative = if a == 0.0 {
        if b == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (b - a) / a.abs()
    };
    if let Some(spec) = end_to_end(name) {
        let worsening = spec.better.worsening(a, b);
        let status = if spec.clock == Clock::Virt && same_seed {
            // One seed simulates one thing: any difference is a change of
            // the model, whatever its size.
            if a == b {
                Status::Ok
            } else if worsening > spec.bound {
                Status::Regressed
            } else {
                Status::Changed
            }
        } else if spread(ma).max(spread(mb)) > spec.bound {
            Status::Unresolved
        } else if worsening > spec.bound {
            Status::Regressed
        } else {
            Status::Ok
        };
        return Some((worsening, status));
    }
    if let Some(spec) = PER_LAYER.iter().find(|m| m.name == name) {
        return Some((spec.better.worsening(a, b), Status::Info));
    }
    // Extras: simulated counts and statistics repeat exactly for one seed;
    // the traced pass's own wall timings do not.
    let exact = same_seed && !name.starts_with("traced_pass.");
    Some((
        relative,
        if !exact {
            Status::Info
        } else if a == b {
            Status::Ok
        } else {
            Status::Changed
        },
    ))
}

/// Compares two result documents.
pub fn compare(a: &Value, b: &Value) -> Vec<Row> {
    let mut rows = Vec::new();
    let runs_a = runs(a);
    for rb in runs(b) {
        let Some(ra) = runs_a.iter().find(|ra| key(ra) == key(rb)) else {
            continue;
        };
        let (workload, _) = key(rb);
        let seed = |r: &Value| r.get("seed").and_then(Value::as_f64);
        let same_seed = seed(ra).is_some() && seed(ra) == seed(rb);
        for section in ["metrics", "extra"] {
            let Some(section_b) = rb.get(section) else {
                continue;
            };
            for (name, mb) in section_b.members() {
                let Some(ma) = ra.get(section).and_then(|s| s.get(name)) else {
                    continue;
                };
                if let Some((worsening, status)) = judge(name, ma, mb, same_seed) {
                    rows.push(Row {
                        workload: workload.clone(),
                        metric: name.clone(),
                        a: ma.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN),
                        b: mb.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN),
                        worsening,
                        status,
                    });
                }
            }
        }
        if same_seed {
            let sum = |r: &Value| {
                r.get("sim_checksum")
                    .and_then(Value::as_str)
                    .map(str::to_string)
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: "sim_checksum".into(),
                a: 0.0,
                b: 0.0,
                worsening: 0.0,
                status: if sum(ra) == sum(rb) {
                    Status::Ok
                } else {
                    Status::Changed
                },
            });
        }
        let failed = |r: &Value| r.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        rows.push(Row {
            workload,
            metric: "failed_checks".into(),
            a: failed(ra),
            b: failed(rb),
            worsening: failed(rb) - failed(ra),
            status: if failed(rb) > 0.0 {
                Status::Regressed
            } else {
                Status::Ok
            },
        });
    }
    rows
}

/// Prints the table; returns whether nothing regressed.
pub fn report(rows: &[Row]) -> bool {
    println!(
        "{:<14} {:<34} {:>14} {:>14} {:>9} {:>7}  status",
        "workload", "metric", "A", "B", "worse %", "bound %"
    );
    let mut counts = std::collections::BTreeMap::new();
    for row in rows {
        *counts.entry(row.status.name()).or_insert(0usize) += 1;
        // Identical numbers without a bound are noise in the table.
        if row.status == Status::Ok && end_to_end(&row.metric).is_none() {
            continue;
        }
        let bound =
            end_to_end(&row.metric).map_or("-".to_string(), |m| format!("{:.1}", m.bound * 100.0));
        println!(
            "{:<14} {:<34} {:>14.6} {:>14.6} {:>9.2} {:>7}  {}",
            row.workload,
            row.metric,
            row.a,
            row.b,
            row.worsening * 100.0,
            bound,
            row.status.name()
        );
    }
    println!("summary {counts:?}");
    !rows.iter().any(|r| r.status == Status::Regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, seed: u64, wall: (f64, f64, f64), p99: f64, checksum: &str) -> Value {
        Value::obj()
            .with("workload", workload)
            .with("seed", seed)
            .with("trace", 0u64)
            .with("failed", 0u64)
            .with("sim_checksum", checksum)
            .with(
                "metrics",
                Value::obj()
                    .with(
                        "wall_us_per_op",
                        Value::obj()
                            .with("value", wall.0)
                            .with("unit", "us")
                            .with("q1", wall.1)
                            .with("q3", wall.2)
                            .with("n", 9u64),
                    )
                    .with(
                        "virt_p99_ms",
                        Value::obj().with("value", p99).with("unit", "ms"),
                    ),
            )
            .with(
                "extra",
                Value::obj().with(
                    "count.serve_core.retries",
                    Value::obj().with("value", 7.0).with("unit", "count"),
                ),
            )
    }

    fn status(rows: &[Row], metric: &str) -> Status {
        rows.iter().find(|r| r.metric == metric).unwrap().status
    }

    #[test]
    fn identical_runs_are_ok_everywhere() {
        let a = run("serve_core", 1, (3.0, 2.95, 3.05), 305.0, "0xabc");
        let rows = compare(&a, &a);
        assert!(rows
            .iter()
            .all(|r| matches!(r.status, Status::Ok | Status::Info)));
        assert!(report(&rows));
    }

    #[test]
    fn wall_metric_regresses_past_its_bound_and_is_unresolved_when_noisy() {
        let a = run("serve_core", 1, (3.0, 2.95, 3.05), 305.0, "0xabc");
        let slower = run("serve_core", 1, (3.9, 3.85, 3.95), 305.0, "0xabc");
        let rows = compare(&a, &slower);
        assert_eq!(status(&rows, "wall_us_per_op"), Status::Regressed);
        assert!(!report(&rows));

        let within = run("serve_core", 1, (3.2, 3.15, 3.25), 305.0, "0xabc");
        assert_eq!(status(&compare(&a, &within), "wall_us_per_op"), Status::Ok);

        let faster = run("serve_core", 1, (2.0, 1.95, 2.05), 305.0, "0xabc");
        assert_eq!(status(&compare(&a, &faster), "wall_us_per_op"), Status::Ok);

        let noisy = run("serve_core", 1, (3.9, 2.9, 4.9), 305.0, "0xabc");
        assert_eq!(
            status(&compare(&a, &noisy), "wall_us_per_op"),
            Status::Unresolved
        );
    }

    #[test]
    fn virtual_metrics_must_repeat_exactly_for_one_seed() {
        let a = run("serve_core", 1, (3.0, 2.95, 3.05), 305.0, "0xabc");
        let drift = run("serve_core", 1, (3.0, 2.95, 3.05), 305.5, "0xdef");
        let rows = compare(&a, &drift);
        assert_eq!(status(&rows, "virt_p99_ms"), Status::Changed);
        assert_eq!(status(&rows, "sim_checksum"), Status::Changed);
        let worse = run("serve_core", 1, (3.0, 2.95, 3.05), 500.0, "0xdef");
        assert_eq!(
            status(&compare(&a, &worse), "virt_p99_ms"),
            Status::Regressed
        );
        // Another seed simulates something else: judged by the bound only.
        let other = run("serve_core", 2, (3.0, 2.95, 3.05), 305.5, "0xdef");
        let rows = compare(&a, &other);
        assert_eq!(status(&rows, "virt_p99_ms"), Status::Ok);
        assert!(rows.iter().all(|r| r.metric != "sim_checksum"));
    }

    #[test]
    fn result_sets_pair_runs_by_workload() {
        let set = |wall: f64| {
            Value::obj().with(
                "runs",
                vec![
                    run("serve_core", 1, (wall, wall, wall), 305.0, "0x1"),
                    run("serve_storm", 1, (4.0, 4.0, 4.0), 3800.0, "0x2"),
                ],
            )
        };
        let rows = compare(&set(3.0), &set(3.05));
        assert_eq!(
            rows.iter().filter(|r| r.metric == "wall_us_per_op").count(),
            2
        );
        assert!(rows.iter().any(|r| r.workload == "serve_storm"));
    }
}
