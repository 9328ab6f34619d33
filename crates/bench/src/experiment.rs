//! The experiment registry and the front end the examples share.
//!
//! One [`Experiment`] per serving sweep: its `figures --table` id, its
//! example, and `run(quick)`, which runs the sweep, checks the invariants
//! the sweep promises, and exports the typed report as a
//! [`Document`] — each column named once, by exhaustive destructuring, so
//! a row field that is not exported does not compile. The `--json` text,
//! the `figures --out` dump and the text tables all derive from that
//! document ([`crate::document`]); [`run_example`] and `figures` are the
//! two entry points.
//!
//! Adding an experiment: write the sweep module next to its service, add
//! one entry here (run function, views), and an example that is its doc
//! comment, its prose, and one [`run_example`] call.

use sevf_cluster::attsweep::{att_sweep, AttRow, AttSweepConfig, AttSweepReport};
use sevf_cluster::experiment::{cluster_sweep, ClusterRow, ClusterSweepConfig, ClusterSweepReport};
use sevf_cluster::netsweep::{net_sweep, NetRow, NetSweepConfig, NetSweepReport};
use sevf_cluster::placement::PlacementPolicy;
use sevf_cluster::policysweep::{
    policy_sweep, ArmRow, PolicySweepConfig, PolicySweepReport, TenantRow,
};
use sevf_cluster::scalesweep::{scale_sweep, ScaleRow, ScaleSweepConfig, ScaleSweepReport};
use sevf_cluster::tracedemo::{TraceScenarios, TracedRun};
use sevf_fleet::chaos::{chaos_sweep, ChaosArm, ChaosConfig, ChaosReport, ChaosRow};
use sevf_fleet::experiment::{serving_sweep, ServingRow, SweepConfig, SweepReport};
use sevf_fleet::service::ServingTier;

use crate::document::{Document, Fmt, Row, View, MS};
use crate::{pick, render_table, Json};

/// One registered experiment.
pub struct Experiment {
    /// The `figures --table` id.
    pub id: &'static str,
    /// The example that runs it (and the stem of its golden file).
    pub example: &'static str,
    /// Runs the sweep at `--quick` or paper scale, checks it, exports it.
    pub run: fn(bool) -> Document,
    /// The text tables.
    pub views: &'static [View],
}

/// Looks an experiment up by its `figures --table` id.
pub fn find(id: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.id == id)
}

/// A flag an example may accept besides `--quick`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `--json`: the deterministic document.
    Json,
    /// `--chrome FILE`: also write a Chrome `trace_event` file.
    Chrome,
}

/// An example's parsed command line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cli {
    /// `--quick`: the small configs.
    pub quick: bool,
    /// `--json`: print the deterministic document.
    pub json: bool,
    /// `--chrome FILE`: also write a Chrome `trace_event` file there.
    pub chrome: Option<String>,
}

fn parse(accepts: &[Flag], mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => cli.quick = true,
            "--json" if accepts.contains(&Flag::Json) => cli.json = true,
            "--chrome" if accepts.contains(&Flag::Chrome) => {
                cli.chrome = Some(args.next().ok_or("--chrome takes a file")?);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(cli)
}

/// Parses the process arguments of `example`, which accepts `--quick` and
/// `accepts`. Anything else — a typo, a flag the example does not take —
/// prints a usage line and exits with code 2.
pub fn parse_cli(example: &str, accepts: &[Flag]) -> Cli {
    parse(accepts, std::env::args().skip(1)).unwrap_or_else(|message| {
        let mut usage = format!("usage: {example} [--quick]");
        for (flag, text) in [
            (Flag::Json, " [--json]"),
            (Flag::Chrome, " [--chrome FILE]"),
        ] {
            if accepts.contains(&flag) {
                usage.push_str(text);
            }
        }
        eprintln!("error: {message}\n{usage}");
        std::process::exit(2);
    })
}

/// The whole `main` of a registered example: parses the flags, runs the
/// experiment, and prints the `--json` document, or `intro(quick)`, the
/// tables and `takeaway`.
///
/// # Panics
///
/// Panics if `example` is not registered or the run breaks an invariant.
pub fn run_example(example: &str, intro: impl FnOnce(bool), takeaway: &str) {
    let registered = REGISTRY.iter().find(|e| e.example == example);
    let exp = registered.expect("the example is registered");
    let cli = parse_cli(example, &[Flag::Json]);
    let doc = (exp.run)(cli.quick);
    if cli.json {
        println!("{}", doc.json_text());
    } else {
        intro(cli.quick);
        println!("\n{}", doc.text(exp.views));
        println!("{takeaway}");
    }
}

impl From<ChaosArm> for Json {
    fn from(v: ChaosArm) -> Json {
        v.name().into()
    }
}

impl From<ServingTier> for Json {
    fn from(v: ServingTier) -> Json {
        v.name().into()
    }
}

impl From<PlacementPolicy> for Json {
    fn from(v: PlacementPolicy) -> Json {
        v.name().into()
    }
}

/// `row!(T { a, b })` is the exporter `&T -> Row` naming columns `a`, `b`
/// after the fields, in the order listed. The destructuring is exhaustive:
/// a field of `T` missing from the list is a compile error.
macro_rules! row {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        |row: &$ty| -> Row {
            let $ty { $($field),* } = row;
            Json::obj([$((stringify!($field), Json::from($field.clone()))),*])
        }
    };
}

const PLAIN: Fmt = Fmt::Plain;

fn fleet(quick: bool) -> Document {
    let cfg = pick(quick, SweepConfig::quick, SweepConfig::paper_serving);
    let SweepReport {
        cold_psp_ms,
        cold_capacity_rps,
        rows,
    } = serving_sweep(&cfg).expect("fleet sweep");
    let export = row!(ServingRow {
        tier,
        offered_rps,
        completed,
        shed,
        mean_ms,
        p50_ms,
        p99_ms,
        psp_utilization,
        cpu_utilization,
        max_queue_depth,
        cache_hits,
        warm_hits,
    });
    Document {
        head: vec![
            ("cold_psp_ms", cold_psp_ms.into()),
            ("cold_capacity_rps", cold_capacity_rps.into()),
        ],
        sections: vec![("rows", rows.iter().map(export).collect())],
    }
}

const FLEET_VIEW: View = View {
    section: "rows",
    group_by: Some("tier"),
    cols: &[
        ("tier", &["tier"], PLAIN),
        ("req/s", &["offered_rps"], Fmt::Fixed(0)),
        ("done", &["completed"], PLAIN),
        ("shed", &["shed"], PLAIN),
        ("p50 ms", &["p50_ms"], MS),
        ("p99 ms", &["p99_ms"], MS),
        ("psp", &["psp_utilization"], Fmt::Percent(0)),
        ("cpu", &["cpu_utilization"], Fmt::Percent(0)),
        ("maxq", &["max_queue_depth"], PLAIN),
    ],
};

fn chaos(quick: bool) -> Document {
    let cfg = pick(quick, ChaosConfig::quick, ChaosConfig::paper_chaos);
    let ChaosReport {
        planned_resets,
        planned_crashes,
        rows,
    } = chaos_sweep(&cfg).expect("chaos sweep");
    let export = row!(ChaosRow {
        arm,
        offered_rps,
        completed,
        goodput_rps,
        shed,
        breaker_sheds,
        timeouts,
        failed,
        retries,
        faults,
        degraded_dispatches,
        p50_ms,
        p99_ms,
        time_degraded_ms,
    });
    Document {
        head: vec![
            ("planned_resets", planned_resets.into()),
            ("planned_crashes", planned_crashes.into()),
        ],
        sections: vec![("rows", rows.iter().map(export).collect())],
    }
}

const CHAOS_VIEW: View = View {
    section: "rows",
    group_by: Some("offered_rps"),
    cols: &[
        ("arm", &["arm"], PLAIN),
        ("req/s", &["offered_rps"], Fmt::Fixed(0)),
        ("done", &["completed"], PLAIN),
        ("fail", &["failed"], PLAIN),
        ("t/o", &["timeouts"], PLAIN),
        ("shed", &["shed", "breaker_sheds"], Fmt::Sum(0)),
        ("retry", &["retries"], PLAIN),
        ("goodput", &["goodput_rps"], Fmt::Fixed(1)),
        ("p50 ms", &["p50_ms"], MS),
        ("p99 ms", &["p99_ms"], MS),
    ],
};

fn cluster(quick: bool) -> Document {
    let cfg = pick(
        quick,
        ClusterSweepConfig::quick,
        ClusterSweepConfig::paper_cluster,
    );
    let ClusterSweepReport {
        cold_ceiling_rps,
        rows,
    } = cluster_sweep(&cfg).expect("cluster sweep");
    for r in &rows {
        assert!(r.conserved, "conservation broke in {}/{}", r.arm, r.label);
    }
    let export = row!(ClusterRow {
        arm,
        label,
        hosts,
        tier,
        placement,
        offered_rps,
        completed,
        goodput_rps,
        per_host_goodput,
        shed,
        unroutable,
        breaker_sheds,
        timeouts,
        failed,
        retries,
        failovers,
        rebalances,
        faults,
        cache_hit_rate,
        cache_misses,
        psp_skew,
        p50_ms,
        p99_ms,
        conserved,
    });
    Document {
        head: vec![("cold_ceiling_rps", cold_ceiling_rps.into())],
        sections: vec![("rows", rows.iter().map(export).collect())],
    }
}

const CLUSTER_VIEW: View = View {
    section: "rows",
    group_by: Some("arm"),
    cols: &[
        ("arm", &["arm"], PLAIN),
        ("cell", &["label"], PLAIN),
        ("hosts", &["hosts"], PLAIN),
        ("req/s", &["offered_rps"], Fmt::Fixed(0)),
        ("done", &["completed"], PLAIN),
        ("goodput", &["goodput_rps"], Fmt::Fixed(1)),
        ("per-host", &["per_host_goodput"], Fmt::Fixed(1)),
        ("hit", &["cache_hit_rate"], Fmt::Percent(0)),
        ("failover", &["failovers"], PLAIN),
        ("skew", &["psp_skew"], Fmt::Fixed(2)),
        ("p50 ms", &["p50_ms"], MS),
        ("p99 ms", &["p99_ms"], MS),
    ],
};

fn attplane(quick: bool) -> Document {
    let cfg = pick(
        quick,
        AttSweepConfig::quick,
        AttSweepConfig::paper_attestation,
    );
    let AttSweepReport { rows } = att_sweep(&cfg).expect("attestation sweep");
    for r in &rows {
        assert!(r.conserved, "conservation broke in {}/{}", r.arm, r.mode);
    }
    let export = row!(AttRow {
        arm,
        mode,
        offered_rps,
        completed,
        shed,
        timeouts,
        failed,
        failovers,
        retries,
        verifications,
        cert_fetches,
        cert_hits,
        hit_rate,
        batch_joins,
        revoked,
        queue_wait_ms,
        p50_ms,
        p99_ms,
        conserved,
    });
    Document {
        head: Vec::new(),
        sections: vec![("rows", rows.iter().map(export).collect())],
    }
}

const ATTPLANE_VIEW: View = View {
    section: "rows",
    group_by: Some("arm"),
    cols: &[
        ("arm", &["arm"], PLAIN),
        ("mode", &["mode"], PLAIN),
        ("req/s", &["offered_rps"], Fmt::Fixed(0)),
        ("done", &["completed"], PLAIN),
        ("lost", &["shed", "timeouts", "failed"], Fmt::Sum(0)),
        ("failover", &["failovers"], PLAIN),
        ("verified", &["verifications"], PLAIN),
        ("hit", &["hit_rate"], Fmt::Percent(0)),
        ("joins", &["batch_joins"], PLAIN),
        ("q-wait", &["queue_wait_ms"], MS),
        ("p50 ms", &["p50_ms"], MS),
        ("p99 ms", &["p99_ms"], MS),
    ],
};

fn net(quick: bool) -> Document {
    let cfg = pick(
        quick,
        NetSweepConfig::quick,
        NetSweepConfig::paper_partition,
    );
    let NetSweepReport { rows } = net_sweep(&cfg).expect("partition sweep");
    for r in &rows {
        assert!(r.conserved, "conservation broke in {}/{}", r.arm, r.policy);
    }
    for arm in ["partition", "island", "blackout"] {
        let completed = |policy: &str| {
            let cell = rows.iter().find(|r| r.arm == arm && r.policy == policy);
            cell.expect("both policies present").completed
        };
        assert!(
            completed("resilient") > completed("naive"),
            "{arm}: the resilient policy must beat the naive one"
        );
    }
    let export = row!(NetRow {
        arm,
        policy,
        completed,
        shed,
        timeouts,
        failed,
        failovers,
        retries,
        suspicions,
        suspicions_cleared,
        false_suspicions,
        lease_expiries,
        net_lost,
        net_timeouts,
        net_nacks,
        stale_completions,
        double_completion_attempts,
        stale_serves,
        unavailable_refusals,
        reverifies,
        p50_ms,
        p99_ms,
        conserved,
    });
    Document {
        head: Vec::new(),
        sections: vec![("rows", rows.iter().map(export).collect())],
    }
}

const NET_VIEW: View = View {
    section: "rows",
    group_by: Some("arm"),
    cols: &[
        ("arm", &["arm"], PLAIN),
        ("policy", &["policy"], PLAIN),
        ("done", &["completed"], PLAIN),
        ("lost", &["shed", "timeouts", "failed"], Fmt::Sum(0)),
        ("failover", &["failovers"], PLAIN),
        ("msg-lost", &["net_lost"], PLAIN),
        ("nacks", &["net_nacks"], PLAIN),
        ("suspect", &["suspicions"], PLAIN),
        ("parked", &["lease_expiries"], PLAIN),
        ("fenced", &["stale_completions"], PLAIN),
        ("stale-ok", &["stale_serves"], PLAIN),
        ("p50 ms", &["p50_ms"], MS),
        ("p99 ms", &["p99_ms"], MS),
    ],
};

fn policy(quick: bool) -> Document {
    let cfg = pick(
        quick,
        PolicySweepConfig::quick,
        PolicySweepConfig::paper_policy,
    );
    let PolicySweepReport { arms, tenants } = policy_sweep(&cfg).expect("policy sweep");
    for a in &arms {
        assert!(a.conserved, "cluster conservation broke in {}", a.arm);
        if a.posture {
            assert_eq!(
                a.posture_violations, 0,
                "a strict launch landed below its TCB floor"
            );
        }
    }
    for t in &tenants {
        assert!(
            t.conserved,
            "per-tenant conservation broke for {}/{}",
            t.arm, t.tenant
        );
    }
    let export_arm = row!(ArmRow {
        arm,
        scheduler,
        quotas,
        posture,
        completed,
        lost,
        rejected,
        p50_ms,
        p99_ms,
        posture_checks,
        posture_redirects,
        posture_violations,
        conserved,
    });
    let export_tenant = row!(TenantRow {
        arm,
        tenant,
        issued,
        completed,
        shed,
        timeouts,
        failed,
        rejected,
        degraded,
        p50_ms,
        p99_ms,
        deadline_ms,
        slo_met,
        goodput_rps,
        conserved,
    });
    Document {
        head: Vec::new(),
        sections: vec![
            ("arms", arms.iter().map(export_arm).collect()),
            ("tenants", tenants.iter().map(export_tenant).collect()),
        ],
    }
}

const TENANT_VIEW: View = View {
    section: "tenants",
    group_by: Some("arm"),
    cols: &[
        ("arm", &["arm"], PLAIN),
        ("tenant", &["tenant"], PLAIN),
        ("issued", &["issued"], PLAIN),
        ("done", &["completed"], PLAIN),
        ("shed", &["shed", "failed"], Fmt::Sum(0)),
        ("rej", &["rejected"], PLAIN),
        ("t/o", &["timeouts"], PLAIN),
        ("p50 ms", &["p50_ms"], MS),
        ("p99 ms", &["p99_ms"], MS),
        ("target", &["deadline_ms"], Fmt::Fixed(0)),
        ("goodput", &["goodput_rps"], Fmt::Fixed(1)),
        ("slo", &["slo_met"], Fmt::OkMiss),
    ],
};

const ARM_VIEW: View = View {
    section: "arms",
    group_by: None,
    cols: &[
        ("arm", &["arm"], PLAIN),
        ("sched", &["scheduler"], PLAIN),
        ("quotas", &["quotas"], PLAIN),
        ("posture", &["posture"], PLAIN),
        ("done", &["completed"], PLAIN),
        ("rej", &["rejected"], PLAIN),
        ("checks", &["posture_checks"], PLAIN),
        ("redirects", &["posture_redirects"], PLAIN),
        ("violations", &["posture_violations"], PLAIN),
    ],
};

fn autoscale(quick: bool) -> Document {
    let cfg = pick(
        quick,
        ScaleSweepConfig::quick,
        ScaleSweepConfig::paper_scale,
    );
    let ScaleSweepReport { rows, reports: _ } = scale_sweep(&cfg).expect("autoscale sweep");
    for r in &rows {
        assert!(r.conserved, "conservation broke in the {} arm", r.arm);
    }
    let export = row!(ScaleRow {
        arm,
        hosts_start,
        issued,
        completed,
        lost,
        p50_ms,
        p99_ms,
        goodput_rps,
        host_seconds,
        ticks,
        scale_outs,
        scale_ins,
        prewarms,
        min_live,
        max_live,
        slo_ms,
        slo_met,
        conserved,
    });
    Document {
        head: Vec::new(),
        sections: vec![("arms", rows.iter().map(export).collect())],
    }
}

const AUTOSCALE_VIEW: View = View {
    section: "arms",
    group_by: None,
    cols: &[
        ("arm", &["arm"], PLAIN),
        ("hosts", &["min_live", "max_live"], Fmt::Join("..")),
        ("issued", &["issued"], PLAIN),
        ("done", &["completed"], PLAIN),
        ("lost", &["lost"], PLAIN),
        ("p50 ms", &["p50_ms"], MS),
        ("p99 ms", &["p99_ms"], MS),
        ("goodput", &["goodput_rps"], Fmt::Fixed(1)),
        ("host-s", &["host_seconds"], Fmt::Fixed(1)),
        ("out/in", &["scale_outs", "scale_ins"], Fmt::Join("/")),
        ("warm", &["prewarms"], PLAIN),
        ("slo", &["slo_met"], Fmt::OkMiss),
    ],
};

/// The `trace_explorer` document: one row per scenario, the exemplar's
/// per-phase critical path nested inline.
pub fn trace_document(s: &TraceScenarios) -> Document {
    let scenarios = [&s.cold, &s.template, &s.failover].map(|run| {
        let e = &run.exemplar;
        let phase = |(phase, d): &(String, sevf_sim::Nanos)| {
            Json::obj([
                ("phase", phase.clone().into()),
                ("ms", d.as_millis_f64().into()),
            ])
        };
        Json::obj([
            ("scenario", run.scenario.into()),
            ("completed", run.completed.into()),
            ("spans", run.log.spans.len().into()),
            ("markers", run.log.markers.len().into()),
            ("request", e.request.into()),
            ("latency_ms", e.latency.as_millis_f64().into()),
            ("attempts", e.attempts.into()),
            ("failover_hops", e.failover_hops.into()),
            ("phases", Json::Arr(e.phases.iter().map(phase).collect())),
        ])
    });
    Document {
        sections: vec![("scenarios", scenarios.into())],
        ..Document::default()
    }
}

/// One traced run as text: the exemplar request, then its per-phase
/// critical path, which sums to the latency exactly.
pub fn trace_text(run: &TracedRun) -> String {
    let e = &run.exemplar;
    let total = e.latency.as_millis_f64();
    let line = |phase: &str, ms: f64| {
        vec![
            phase.to_string(),
            format!("{ms:.3}"),
            format!("{:.1}%", 100.0 * ms / total),
        ]
    };
    let phases = e
        .phases
        .iter()
        .map(|(p, d)| (p.as_str(), d.as_millis_f64()));
    let sum: f64 = phases.clone().map(|(_, ms)| ms).sum();
    let rows: Vec<Vec<String>> = phases
        .chain([("total", sum)])
        .map(|(p, ms)| line(p, ms))
        .collect();
    format!(
        "{}: request {} of {} completed ({} span(s), {} marker(s)) — {total:.3} ms over \
         {} attempt(s), {} failover hop(s)\n{}",
        run.scenario,
        e.request,
        run.completed,
        run.log.spans.len(),
        run.log.markers.len(),
        e.attempts,
        e.failover_hops,
        render_table(&["phase", "ms", "share"], &rows)
    )
}

/// Every serving sweep, in `figures --all` order.
pub const REGISTRY: &[Experiment] = &[
    Experiment {
        id: "fleet",
        example: "fleet_serving",
        run: fleet,
        views: &[FLEET_VIEW],
    },
    Experiment {
        id: "chaos",
        example: "fleet_chaos",
        run: chaos,
        views: &[CHAOS_VIEW],
    },
    Experiment {
        id: "cluster",
        example: "cluster_scaling",
        run: cluster,
        views: &[CLUSTER_VIEW],
    },
    Experiment {
        id: "attplane",
        example: "attestation_storm",
        run: attplane,
        views: &[ATTPLANE_VIEW],
    },
    Experiment {
        id: "net",
        example: "partition_drill",
        run: net,
        views: &[NET_VIEW],
    },
    Experiment {
        id: "policy",
        example: "tenant_qos",
        run: policy,
        views: &[TENANT_VIEW, ARM_VIEW],
    },
    Experiment {
        id: "autoscale",
        example: "autoscale_drill",
        run: autoscale,
        views: &[AUTOSCALE_VIEW],
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(accepts: &[Flag], args: &[&str]) -> Result<Cli, String> {
        parse(accepts, args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn accepted_flags_parse() {
        let all = [Flag::Json, Flag::Chrome];
        let got = cli(&all, &["--quick", "--chrome", "/tmp/t.json", "--json"]).unwrap();
        assert!(got.quick && got.json);
        assert_eq!(got.chrome.as_deref(), Some("/tmp/t.json"));
        assert_eq!(cli(&all, &[]).unwrap(), Cli::default());
    }

    #[test]
    fn typos_and_unaccepted_flags_are_rejected() {
        // Two typos and a flag no example takes.
        for unknown in ["qiuck", "jsno", "bench"] {
            assert!(cli(&[Flag::Json, Flag::Chrome], &[&format!("--{unknown}")]).is_err());
        }
        assert!(cli(&[Flag::Json], &["--chrome", "f"]).is_err());
        assert!(cli(&[Flag::Chrome], &["--json"]).is_err());
        assert!(cli(&[Flag::Chrome], &["--chrome"]).is_err());
        assert!(cli(&[], &["--quick"]).is_ok());
    }

    #[test]
    fn ids_and_examples_are_unique() {
        for (i, a) in REGISTRY.iter().enumerate() {
            for b in &REGISTRY[i + 1..] {
                assert!(a.id != b.id && a.example != b.example);
            }
        }
    }
}
