//! The metric tables: every end-to-end metric with its bound, every
//! per-layer metric with its layer and the end-to-end metric it should
//! move. `BENCHMARK.json` carries the same names; a test keeps the two in
//! step.

use crate::json::Value;
use crate::stats::{quartiles, Quartiles};
use crate::workloads::Kind;

/// One measured number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name (`[A-Za-z0-9_.-]`, at most 64 characters).
    pub name: String,
    /// Unit.
    pub unit: String,
    /// The value: the median when the metric was sampled repeatedly.
    pub value: f64,
    /// Quartiles and count, when sampled repeatedly.
    pub quartiles: Option<Quartiles>,
}

impl Metric {
    /// A single measurement.
    pub fn new(name: &str, unit: &str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            quartiles: None,
        }
    }

    /// The median of repeated measurements, with quartiles and count.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn sampled(name: &str, unit: &str, samples: &[f64]) -> Metric {
        let q = quartiles(samples);
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value: q.median,
            quartiles: Some(q),
        }
    }
}

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host time the simulator burns (noisy).
    Wall,
    /// What the modelled SEV hardware would take (exact for one seed).
    Virt,
    /// Host memory.
    Mem,
}

/// Direction of improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// How much worse `new` is than `old`, as a share of `old` (negative
    /// when it got better).
    pub fn worsening(self, old: f64, new: f64) -> f64 {
        if old == 0.0 {
            return if new == old { 0.0 } else { f64::INFINITY };
        }
        match self {
            Better::Lower => (new - old) / old.abs(),
            Better::Higher => (old - new) / old.abs(),
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Clock.
    pub clock: Clock,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen before a change
    /// counts as a regression.
    pub bound: f64,
    /// One-line definition.
    pub what: &'static str,
}

/// The end-to-end metrics, in report order. Every workload reports every
/// one of them, and none can be 0 (the driver's contract); the issue's
/// `virt_lost_frac`, `virt_slo_rps`, `paper_err_pct` and `op_fail_frac`
/// are therefore printed and stored as extras (see the README).
///
/// Bounds: each covers the widest interquartile spread seen in two sets of
/// ten runs with ten seeds on the 2-core box the benchmark was written on,
/// and is about three times the widest of the calmer set (README, noise
/// table) — the issue's 10 % / 15 % / 1 % are tighter than that box can
/// resolve. The virtual-clock metrics repeat exactly for one seed, so
/// `--compare` of two same-seed runs demands equality there; their bounds
/// only have to cover the seed-to-seed spread of each statistic.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        clock: Clock::Wall,
        better: Better::Lower,
        bound: 0.25,
        what: "image/catalog/fault-plan/config construction plus the warm-up repetition, median of fresh-process samples",
    },
    EndToEnd {
        name: "wall_us_per_op",
        unit: "us",
        clock: Clock::Wall,
        better: Better::Lower,
        bound: 0.20,
        what: "median over repetitions of repetition host time / ops",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        clock: Clock::Mem,
        better: Better::Lower,
        bound: 0.10,
        what: "VmHWM of the workload's process at exit",
    },
    EndToEnd {
        name: "virt_mean_ms",
        unit: "ms",
        clock: Clock::Virt,
        better: Better::Lower,
        bound: 0.12,
        what: "mean simulated latency per op (boot total time; request latency)",
    },
    EndToEnd {
        name: "virt_p99_ms",
        unit: "ms",
        clock: Clock::Virt,
        better: Better::Lower,
        bound: 0.25,
        what: "99th-percentile simulated latency per op",
    },
    EndToEnd {
        name: "virt_goodput_rps",
        unit: "1/s",
        clock: Clock::Virt,
        better: Better::Higher,
        bound: 0.10,
        what: "serve: completed / makespan; boot: ops / summed PSP busy time (the one-PSP ceiling of the mix)",
    },
    EndToEnd {
        name: "virt_served_frac",
        unit: "ratio",
        clock: Clock::Virt,
        better: Better::Higher,
        bound: 0.02,
        what: "completed / issued on the virtual clock (1 - virt_lost_frac)",
    },
];

/// A per-layer metric: one layer's cost or count, measured in the traced
/// pass from the benchmark's side of a public call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerLayer {
    /// Name; the part before the first dot is the layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The end-to-end metric and workload it should move, written down
    /// before measuring (`metric@workload`, `;`-separated).
    pub moves: &'static str,
}

const fn lower(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        moves,
    }
}

const fn higher(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        moves,
    }
}

const BOOTS: &str = "wall_us_per_op@boot_cold;wall_us_per_op@boot_template";
const COLD: &str = "wall_us_per_op@boot_cold";
const TEMPLATE: &str = "wall_us_per_op@boot_template";
const BOOT_SETUP: &str = "setup_s@boot_cold;setup_s@boot_template";
const SERVES: &str = "wall_us_per_op@serve_core;wall_us_per_op@serve_trust;wall_us_per_op@serve_elastic;wall_us_per_op@serve_storm";
const SERVE_SETUP: &str =
    "setup_s@serve_core;setup_s@serve_trust;setup_s@serve_elastic;setup_s@serve_storm";
const TRUST: &str = "wall_us_per_op@serve_trust";
const ELASTIC: &str = "wall_us_per_op@serve_elastic";
const STORM: &str = "wall_us_per_op@serve_storm";
const NOTHING: &str = "none (prediction: no change)";

/// The per-layer metrics, in report order. Every traced pass reports every
/// one of them: the probe battery does not depend on the workload (only
/// `bench.trace_overhead_pct` does).
pub const PER_LAYER: [PerLayer; 84] = [
    higher("crypto.sha256_mb_s", "MB/s", BOOTS),
    higher("crypto.sha384_mb_s", "MB/s", BOOTS),
    higher("crypto.sha384_x4_mb_s", "MB/s", NOTHING),
    higher("crypto.xex_mb_s", "MB/s", BOOTS),
    lower(
        "crypto.hmac_sha384_us",
        "us",
        "wall_us_per_op@boot_cold;wall_us_per_op@serve_trust",
    ),
    lower("crypto.dh_exchange_us", "us", BOOTS),
    higher("codec.lz4_compress_mb_s", "MB/s", BOOT_SETUP),
    higher("codec.lz4_decompress_mb_s", "MB/s", COLD),
    lower("image.kernel_build_ms", "ms", BOOT_SETUP),
    lower("image.bzimage_build_ms", "ms", BOOT_SETUP),
    lower("image.bzimage_unpack_ms", "ms", COLD),
    lower("image.elf_parse_us", "us", COLD),
    lower("image.cpio_build_ms", "ms", BOOT_SETUP),
    lower(
        "mem.new_sev_ms",
        "ms",
        "wall_us_per_op@boot_cold;peak_rss_mb@boot_cold",
    ),
    higher("mem.pre_encrypt_mb_s", "MB/s", BOOTS),
    higher("mem.guest_write_mb_s", "MB/s", BOOTS),
    higher("mem.pvalidate_pages_s", "1/s", BOOTS),
    lower("mem.clone_restore_ms", "ms", TEMPLATE),
    higher("psp.launch_update_mb_s", "MB/s", COLD),
    lower("psp.rmp_init_ms", "ms", COLD),
    higher("psp.measure_full_mb_s", "MB/s", COLD),
    higher(
        "psp.measure_incremental_mb_s",
        "MB/s",
        "none until vmm uses it (prediction: moves nothing)",
    ),
    higher(
        "psp.paged_measure_warm_mb_s",
        "MB/s",
        "none until vmm uses it (prediction: moves nothing)",
    ),
    lower("psp.report_us", "us", COLD),
    lower("verifier.run_ms", "ms", COLD),
    lower(
        "verifier.load_vmlinux_ms",
        "ms",
        "vmm.boot_ms.vmlinux_aws (traced pass only)",
    ),
    lower("ovmf.boot_ms", "ms", COLD),
    lower("attest.expected_measurement_ms", "ms", BOOTS),
    lower("attest.handle_report_us", "us", BOOTS),
    lower("vmm.boot_ms.severifast_lupine", "ms", COLD),
    lower("vmm.boot_ms.severifast_aws", "ms", COLD),
    lower(
        "vmm.boot_ms.severifast_ubuntu",
        "ms",
        "traced pass only (cut from the boot_cold round)",
    ),
    lower(
        "vmm.boot_ms.vmlinux_aws",
        "ms",
        "traced pass only (cut from the boot_cold round)",
    ),
    lower("vmm.boot_ms.ovmf_aws", "ms", COLD),
    lower("vmm.boot_ms.stock_aws", "ms", COLD),
    lower("vmm.register_expected_ms", "ms", COLD),
    lower("vmm.template_fill_ms", "ms", "setup_s@boot_template"),
    lower("vmm.template_hit_ms", "ms", TEMPLATE),
    lower("vmm.keepalive_boot_ms", "ms", SERVE_SETUP),
    lower("vmm.snapshot_ms", "ms", NOTHING),
    lower("vmm.restore_ms", "ms", NOTHING),
    lower("vmm.unattributed_pct", "%", COLD),
    lower("sim.des_us_per_job", "us", SERVES),
    lower("sim.des_events_per_op", "count", SERVES),
    lower("sim.fault_plan_generate_ms", "ms", "setup_s@serve_storm"),
    lower("fleet.catalog_build_ms", "ms", SERVE_SETUP),
    lower("fleet.us_per_op.cold", "us", STORM),
    lower("fleet.us_per_op.template", "us", STORM),
    lower("fleet.us_per_op.warm", "us", STORM),
    lower("fleet.retries", "count", "virt_served_frac@serve_storm"),
    lower(
        "fleet.breaker_trips",
        "count",
        "virt_served_frac@serve_storm",
    ),
    lower("cluster.ring_owner_ns", "ns", SERVES),
    lower("cluster.router_place_ns", "ns", "wall_us_per_op@serve_core"),
    lower("cluster.rung_us.core", "us", "wall_us_per_op@serve_core"),
    lower("cluster.rung_us.attplane", "us", TRUST),
    lower("cluster.rung_us.net", "us", TRUST),
    lower("cluster.rung_us.policy", "us", TRUST),
    lower("cluster.rung_us.outage", "us", TRUST),
    lower("cluster.rung_us.total", "us", TRUST),
    lower("cluster.rung_us.elastic", "us", ELASTIC),
    lower("cluster.failovers", "count", "virt_served_frac@serve_trust"),
    lower("attplane.verify_miss_us", "us", TRUST),
    lower("attplane.verify_hit_us", "us", TRUST),
    higher(
        "attplane.hit_rate",
        "ratio",
        "wall_us_per_op@serve_trust;virt_p99_ms@serve_trust",
    ),
    higher("attplane.verifications", "count", TRUST),
    lower("net.plan_generate_ms", "ms", "setup_s@serve_trust"),
    lower("net.detector_observe_ns", "ns", TRUST),
    lower("net.lease_check_ns", "ns", TRUST),
    lower("net.lost", "count", "virt_served_frac@serve_trust"),
    lower("net.timeouts", "count", "virt_served_frac@serve_trust"),
    lower("policy.evaluate_ns", "ns", TRUST),
    lower("policy.wfq_ns_per_op", "ns", TRUST),
    lower("policy.rejected", "count", "virt_served_frac@serve_trust"),
    lower("scale.curve_arrivals_ns_per_op", "ns", ELASTIC),
    lower("scale.autoscaler_tick_ns", "ns", ELASTIC),
    lower("scale.scale_outs", "count", ELASTIC),
    lower("scale.scale_ins", "count", ELASTIC),
    lower("obs.trace_overhead_x", "ratio", NOTHING),
    lower("obs.spans_per_op", "count", NOTHING),
    lower("obs.export_chrome_ms", "ms", NOTHING),
    lower("core.paper_err_pct", "%", "virt_mean_ms@boot_cold"),
    lower("core.paper_err_tuned_pct", "%", "virt_mean_ms@boot_cold"),
    lower("bench.trace_overhead_pct", "%", NOTHING),
    lower("bench.probe_battery_s", "s", NOTHING),
];

/// Metrics printed and stored with every untraced pass that the driver's
/// contract keeps out of `BENCHMARK.json` (not reported by every workload,
/// or able to read 0): `(name, unit, definition)`.
pub const EXTRAS: [(&str, &str, &str); 9] = [
    ("virt_lost_frac", "ratio", "(issued - completed) / issued on the virtual clock; boots: 0"),
    ("virt_p50_ms", "ms", "median simulated latency per op (reads 0.188 ms for every seed on serve_elastic, where most requests are warm hits)"),
    ("virt_tail_ms", "ms", "simulated latency at virt_tail_pct, the highest of 50/90/99/99.9/99.99 with at least ten samples beyond it"),
    ("virt_slo_rps", "1/s", "open-loop serving only: highest of the offered rates 80..280 step 40 (20 000 requests each) with p99 <= 500 ms and lost <= 1 % at it and every lower rate; 0 when none"),
    ("virt_slo_p99_ms.at_<rate>", "ms", "the p99 at each offered rate of the sweep (with virt_slo_lost_frac.at_<rate>)"),
    ("op_fail_frac", "ratio", "failed checks / ops attempted: wrong BootOutcome, launch digest != expected_measurement, unconserved metrics, posture violations, a repetition or process whose sim_checksum differs, any Err"),
    ("count.<workload>.<counter>", "count", "simulated counters of one repetition (retries, failovers, net_lost, rejected, scale_outs, ...); exact for one seed"),
    ("sim_checksum", "hex", "FNV-1a over every simulated statistic and counter of one repetition: the simulator got faster only if this did not change"),
    ("core.paper_err_pct", "%", "traced pass: mean absolute relative error against the held-out anchors of reference/paper.json (core.paper_err_tuned_pct: the tuned ones)"),
];

/// The full description of the benchmark: what `BENCHMARK.json` may not
/// carry (loop types, clocks, definitions, layers, predicted interactions).
/// `benchmark/metrics.json` is this, rendered.
pub fn describe() -> Value {
    let clock = |c: Clock| match c {
        Clock::Wall => "wall",
        Clock::Virt => "virt",
        Clock::Mem => "mem",
    };
    let better = |b: Better| match b {
        Better::Lower => "lower",
        Better::Higher => "higher",
    };
    Value::obj()
        .with(
            "clocks",
            Value::obj()
                .with("wall", "host time the simulator burns; noisy, compared against a bound")
                .with("virt", "what the modelled SEV hardware would take; deterministic in the seed, so two runs of one seed compare exactly")
                .with("mem", "host memory of the workload's process"),
        )
        .with(
            "workloads",
            Kind::ALL
                .iter()
                .map(|k| {
                    Value::obj()
                        .with("name", k.name())
                        .with("loop", k.loop_type())
                        .with("op", if k.is_boot() { "one boot" } else { "one simulated request" })
                        .with("why", k.why())
                })
                .collect::<Vec<_>>(),
        )
        .with(
            "end_to_end",
            END_TO_END
                .iter()
                .map(|m| {
                    Value::obj()
                        .with("name", m.name)
                        .with("unit", m.unit)
                        .with("clock", clock(m.clock))
                        .with("better", better(m.better))
                        .with("bound", m.bound)
                        .with("definition", m.what)
                })
                .collect::<Vec<_>>(),
        )
        .with(
            "extras",
            EXTRAS
                .iter()
                .map(|(name, unit, what)| {
                    Value::obj()
                        .with("name", *name)
                        .with("unit", *unit)
                        .with("definition", *what)
                })
                .collect::<Vec<_>>(),
        )
        .with(
            "per_layer",
            PER_LAYER
                .iter()
                .map(|m| {
                    Value::obj()
                        .with("name", m.name)
                        .with("layer", m.name.split('.').next().unwrap_or(m.name))
                        .with("unit", m.unit)
                        .with("better", better(m.better))
                        .with(
                            "should_move",
                            m.moves
                                .split(';')
                                .map(Value::from)
                                .collect::<Vec<_>>(),
                        )
                })
                .collect::<Vec<_>>(),
        )
}

/// Looks an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a legal metric name: starts with a letter or
    /// digit, then letters, digits, `_`, `.`, `-`; at most 64 characters.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn every_table_name_and_unit_is_legal_and_used_once() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(Kind::ALL.iter().map(|k| k.name()))
            .collect();
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| valid_unit(m.unit)));
        assert!(PER_LAYER.iter().all(|m| valid_unit(m.unit)));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = end_to_end("setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` at the repository root is the driver's copy of the
    /// tables here; this keeps the two in step.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let doc = Value::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let text = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap().to_string();
        let better = |v: &Value| match text(v, "better").as_str() {
            "lower" => Better::Lower,
            "higher" => Better::Higher,
            other => panic!("better = {other}"),
        };

        let e2e = doc.get("end_to_end").unwrap().items();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (json, spec) in e2e.iter().zip(END_TO_END.iter()) {
            assert_eq!(text(json, "name"), spec.name);
            assert_eq!(text(json, "unit"), spec.unit);
            assert_eq!(better(json), spec.better, "{}", spec.name);
            assert_eq!(json.get("bound").and_then(Value::as_f64), Some(spec.bound));
            assert_eq!(json.members().len(), 4, "{}", spec.name);
        }
        let layers = doc.get("per_layer").unwrap().items();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (json, spec) in layers.iter().zip(PER_LAYER.iter()) {
            assert_eq!(text(json, "name"), spec.name);
            assert_eq!(text(json, "unit"), spec.unit);
            assert_eq!(better(json), spec.better, "{}", spec.name);
            assert_eq!(json.members().len(), 3, "{}", spec.name);
        }
        let workloads = doc.get("workloads").unwrap().items();
        assert_eq!(workloads.len(), Kind::ALL.len());
        for (json, kind) in workloads.iter().zip(Kind::ALL) {
            assert_eq!(text(json, "name"), kind.name());
            let why = text(json, "why");
            assert_eq!(why, kind.why());
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
            assert_eq!(json.members().len(), 2);
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
    }

    #[test]
    fn metrics_json_is_the_rendered_description() {
        assert_eq!(
            include_str!("../metrics.json"),
            describe().render_pretty(),
            "regenerate with: benchmark/run.sh --describe > benchmark/metrics.json"
        );
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((Better::Lower.worsening(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Better::Lower.worsening(10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((Better::Higher.worsening(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert_eq!(Better::Lower.worsening(0.0, 0.0), 0.0);
        assert_eq!(Better::Lower.worsening(0.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn name_charset() {
        for ok in ["setup_s", "vmm.boot_ms.severifast_aws", "a-b", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "µs", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn sampled_metric_reports_the_median_with_quartiles() {
        let m = Metric::sampled("wall_us_per_op", "us", &[3.0, 1.0, 2.0, 5.0, 4.0]);
        assert_eq!(m.value, 3.0);
        let q = m.quartiles.unwrap();
        assert_eq!((q.q1, q.q3, q.n), (1.5, 4.5, 5));
    }
}
