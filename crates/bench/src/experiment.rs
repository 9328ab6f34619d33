//! The experiment registry and the front end the examples share.
//!
//! One [`Experiment`] per figure, table and serving sweep: its `figures`
//! id, title, its example if it has one, and `run(quick)`, which runs the
//! driver or sweep, checks the invariants it promises, and exports its one
//! typed result as a [`Document`], each column named once. A paper figure's
//! typed result is its row struct, exported by exhaustive destructuring
//! (`row!`: a field that is not exported does not compile). A serving
//! sweep's typed result is each cell's own report, and the entry here is
//! the one list of its columns, in golden order, read straight from the
//! report. The `--json` text, the `figures --out` file, the golden and the
//! text tables all derive from that document ([`crate::document`]);
//! [`run_example`] and `figures` are the two entry points.
//!
//! Adding an experiment: write the driver next to what it drives — a
//! serving sweep returns its labelled reports, nothing projected from them
//! — add one entry here (run function with the column list, views), and —
//! for a sweep worth narrating — an example that is its doc comment, its
//! prose, and one [`run_example`] call.

use std::path::Path;

use severifast::experiments::{
    self as paper, AblationRow, ConcurrencyRow, ExperimentScale, Fig10Row, Fig11Row, FootprintRow,
    KernelRow, MeasuredBootRow, PhaseSlice, PreEncryptionPoint, StructureRow, WarmStartRow,
};
use severifast::{BootPolicy, Codec};

use sevf_cluster::attsweep::{att_sweep, AttSweepConfig};
use sevf_cluster::experiment::{cluster_sweep, ClusterSweepConfig, ClusterSweepReport, SweepCell};
use sevf_cluster::netsweep::{net_sweep, NetSweepConfig};
use sevf_cluster::placement::PlacementPolicy;
use sevf_cluster::policysweep::{policy_sweep, PolicySweepConfig};
use sevf_cluster::scalesweep::{scale_sweep, ScaleSweepConfig};
use sevf_cluster::tracedemo::{scenarios, TraceScenarios, TracedRun};
use sevf_fleet::chaos::{chaos_sweep, ChaosArm, ChaosConfig, ChaosReport};
use sevf_fleet::experiment::{serving_sweep, SweepConfig, SweepReport};
use sevf_fleet::service::{FleetReport, ServingTier};
use sevf_sim::stats::cdf;
use sevf_sim::Summary;

use crate::document::{Document, Fmt, Row, View, MS};
use crate::{pick, render_table, Json};

/// One registered experiment.
pub struct Experiment {
    /// The `figures --fig` / `--table` id.
    pub id: &'static str,
    /// What it shows, in one line (`figures --list`, the table heading).
    pub title: &'static str,
    /// What the paper reports for it, printed under the heading; may be empty.
    pub note: &'static str,
    /// The example that narrates it, if one does.
    pub example: Option<&'static str>,
    /// Runs it at `--quick` or paper scale, checks it, exports it.
    pub run: fn(bool) -> Document,
    /// The text tables.
    pub views: &'static [View],
}

impl Experiment {
    /// The one name of its result files: the example's where there is one,
    /// else the id.
    fn stem(&self) -> &'static str {
        self.example.unwrap_or(self.id)
    }

    /// The file `figures --out` writes for it and `data/golden/` keeps.
    pub fn file_name(&self, quick: bool) -> String {
        let scale = if quick { "quick" } else { "full" };
        format!("{}_{scale}.json", self.stem())
    }

    /// Writes `doc` into `dir` under [`Self::file_name`], byte for byte what
    /// the example's `--json` prints.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write(&self, dir: &Path, quick: bool, doc: &Document) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let text = format!("{}\n", doc.json_text());
        std::fs::write(dir.join(self.file_name(quick)), text)
    }
}

/// Looks an experiment up by its `figures` id.
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
    let registered = REGISTRY.iter().find(|e| e.example == Some(example));
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

impl From<BootPolicy> for Json {
    fn from(v: BootPolicy) -> Json {
        v.name().into()
    }
}

impl From<Codec> for Json {
    fn from(v: Codec) -> Json {
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

/// A document of one headless `rows` section.
fn rows_of<T>(rows: &[T], export: impl Fn(&T) -> Row) -> Document {
    Document {
        head: Vec::new(),
        sections: vec![("rows", rows.iter().map(export).collect())],
    }
}

fn scale(quick: bool) -> ExperimentScale {
    pick(quick, ExperimentScale::quick, ExperimentScale::full)
}

fn fig3(quick: bool) -> Document {
    let slices = paper::fig3_ovmf_phases(&scale(quick)).expect("fig3 boot");
    let total: f64 = slices.iter().map(|s| s.ms).sum();
    Document {
        head: vec![("total_ms", total.into())],
        ..rows_of(&slices, row!(PhaseSlice { label, ms }))
    }
}

const FIG3_VIEW: View = View {
    section: "rows",
    group_by: None,
    cols: &[("phase", &["label"], PLAIN), ("ms", &["ms"], MS)],
};

fn fig4(_quick: bool) -> Document {
    let export = row!(PreEncryptionPoint { label, bytes, ms });
    rows_of(&paper::fig4_preencryption(), export)
}

const FIG4_VIEW: View = View {
    section: "rows",
    group_by: None,
    cols: &[
        ("component", &["label"], PLAIN),
        ("MiB", &["bytes"], Fmt::Mib),
        ("ms", &["ms"], MS),
    ],
};

fn fig5(quick: bool) -> Document {
    let export = row!(MeasuredBootRow {
        component,
        codec,
        transferred_bytes,
        copy_ms,
        hash_ms,
        decompress_ms,
    });
    rows_of(&paper::fig5_measured_direct_boot(&scale(quick)), export)
}

const FIG5_VIEW: View = View {
    section: "rows",
    group_by: Some("component"),
    cols: &[
        ("component", &["component"], PLAIN),
        ("codec", &["codec"], PLAIN),
        ("MiB", &["transferred_bytes"], Fmt::Mib),
        ("copy", &["copy_ms"], MS),
        ("hash", &["hash_ms"], MS),
        ("decompress", &["decompress_ms"], MS),
        (
            "total(ms)",
            &["copy_ms", "hash_ms", "decompress_ms"],
            Fmt::Sum(2),
        ),
    ],
};

fn fig7(_quick: bool) -> Document {
    let export = row!(StructureRow {
        name,
        purpose,
        struct_bytes,
        code_bytes,
        decision,
    });
    rows_of(&paper::fig7_structures(), export)
}

const FIG7_VIEW: View = View {
    section: "rows",
    group_by: None,
    cols: &[
        ("structure", &["name"], PLAIN),
        ("purpose", &["purpose"], PLAIN),
        ("struct B", &["struct_bytes"], PLAIN),
        ("code B", &["code_bytes"], PLAIN),
        ("decision", &["decision"], PLAIN),
    ],
};

fn fig8(quick: bool) -> Document {
    let export = row!(KernelRow {
        config,
        vmlinux_bytes,
        bzimage_bytes,
    });
    rows_of(&paper::fig8_kernels(&scale(quick)), export)
}

const FIG8_VIEW: View = View {
    section: "rows",
    group_by: None,
    cols: &[
        ("config", &["config"], PLAIN),
        ("vmlinux MiB", &["vmlinux_bytes"], Fmt::Mib),
        ("bzImage MiB", &["bzimage_bytes"], Fmt::Mib),
    ],
};

/// Fig. 9: one row per series, its summary flat and its CDF nested inline.
fn fig9(quick: bool) -> Document {
    let series = paper::fig9_boot_cdfs(&scale(quick)).expect("fig9 boots");
    let export = |s: &paper::CdfSeries| {
        let summary = Summary::from_values(&s.samples_ms);
        let point = |(x, p): (f64, f64)| Json::Arr(vec![x.into(), p.into()]);
        let points: Vec<Json> = cdf(&s.samples_ms).into_iter().map(point).collect();
        Json::obj([
            ("policy", s.policy.into()),
            ("kernel", s.kernel.clone().into()),
            ("mean_ms", summary.mean.into()),
            ("p50_ms", summary.p50.into()),
            ("p99_ms", summary.p99.into()),
            ("stddev_ms", summary.stddev.into()),
            ("cdf", points.into()),
        ])
    };
    rows_of(&series, export)
}

const FIG9_VIEW: View = View {
    section: "rows",
    group_by: Some("policy"),
    cols: &[
        ("policy", &["policy"], PLAIN),
        ("kernel", &["kernel"], PLAIN),
        ("mean", &["mean_ms"], MS),
        ("p50", &["p50_ms"], MS),
        ("p99", &["p99_ms"], MS),
        ("σ", &["stddev_ms"], MS),
    ],
};

fn fig10(quick: bool) -> Document {
    let export = row!(Fig10Row {
        policy,
        kernel,
        pre_encryption_ms,
        firmware_ms,
    });
    let rows = paper::fig10_breakdown(&scale(quick)).expect("fig10 boots");
    rows_of(&rows, export)
}

const FIG10_VIEW: View = View {
    section: "rows",
    group_by: Some("policy"),
    cols: &[
        ("policy", &["policy"], PLAIN),
        ("kernel", &["kernel"], PLAIN),
        ("pre-encryption ms", &["pre_encryption_ms"], MS),
        ("firmware/verification ms", &["firmware_ms"], MS),
    ],
};

fn fig11(quick: bool) -> Document {
    let export = row!(Fig11Row {
        policy,
        kernel,
        vmm_ms,
        verification_ms,
        loader_ms,
        linux_ms,
    });
    let rows = paper::fig11_breakdown(&scale(quick)).expect("fig11 boots");
    rows_of(&rows, export)
}

const FIG11_VIEW: View = View {
    section: "rows",
    group_by: Some("policy"),
    cols: &[
        ("policy", &["policy"], PLAIN),
        ("kernel", &["kernel"], PLAIN),
        ("VMM", &["vmm_ms"], MS),
        ("verification", &["verification_ms"], MS),
        ("loader", &["loader_ms"], MS),
        ("linux", &["linux_ms"], MS),
        (
            "total(ms)",
            &["vmm_ms", "verification_ms", "loader_ms", "linux_ms"],
            Fmt::Sum(2),
        ),
    ],
};

/// Figs. 12 and `fw12` report the same row and read through the same view.
fn concurrency(rows: &[ConcurrencyRow]) -> Document {
    let export = row!(ConcurrencyRow {
        policy,
        concurrency,
        mean_ms,
        max_ms,
    });
    rows_of(rows, export)
}

fn fig12(quick: bool) -> Document {
    concurrency(&paper::fig12_concurrency(&scale(quick)).expect("fig12 boots"))
}

fn fw12(quick: bool) -> Document {
    let rows = paper::futurework_shared_key_concurrency(&scale(quick));
    concurrency(&rows.expect("fw12 boots"))
}

const CONCURRENCY_VIEW: View = View {
    section: "rows",
    group_by: Some("policy"),
    cols: &[
        ("policy", &["policy"], PLAIN),
        ("concurrent", &["concurrency"], PLAIN),
        ("mean ms", &["mean_ms"], MS),
        ("max ms", &["max_ms"], MS),
    ],
};

fn mem(_quick: bool) -> Document {
    let export = row!(FootprintRow {
        policy,
        binary_bytes,
        overhead_bytes,
    });
    rows_of(&paper::footprint_table(), export)
}

const MEM_VIEW: View = View {
    section: "rows",
    group_by: None,
    cols: &[
        ("policy", &["policy"], PLAIN),
        ("binary MiB", &["binary_bytes"], Fmt::Mib),
        ("runtime overhead B", &["overhead_bytes"], PLAIN),
    ],
};

fn warm(quick: bool) -> Document {
    let export = row!(WarmStartRow {
        policy,
        cold_boot_ms,
        warm_invoke_ms,
        resident_bytes,
        dedupable_fraction,
    });
    let rows = paper::warm_start_analysis(&scale(quick)).expect("warm boots");
    rows_of(&rows, export)
}

const WARM_VIEW: View = View {
    section: "rows",
    group_by: None,
    cols: &[
        ("policy", &["policy"], PLAIN),
        ("cold boot ms", &["cold_boot_ms"], MS),
        ("warm invoke ms", &["warm_invoke_ms"], MS),
        ("resident MiB", &["resident_bytes"], Fmt::Mib),
        ("dedupable", &["dedupable_fraction"], Fmt::Percent(1)),
    ],
};

fn ablation(quick: bool) -> Document {
    let export = row!(AblationRow {
        study,
        variant,
        measure,
        ms,
    });
    let rows = paper::ablations(&scale(quick)).expect("ablation boots");
    rows_of(&rows, export)
}

const ABLATION_VIEW: View = View {
    section: "rows",
    group_by: Some("study"),
    cols: &[
        ("study", &["study"], PLAIN),
        ("variant", &["variant"], PLAIN),
        ("measure", &["measure"], PLAIN),
        ("ms", &["ms"], MS),
    ],
};

fn headline(quick: bool) -> Document {
    let export = |(kernel, reduction): &(String, f64)| {
        Json::obj([
            ("kernel", kernel.clone().into()),
            ("reduction", (*reduction).into()),
        ])
    };
    let rows = paper::headline_reductions(&scale(quick)).expect("headline boots");
    rows_of(&rows, export)
}

const HEADLINE_VIEW: View = View {
    section: "rows",
    group_by: None,
    cols: &[
        ("kernel", &["kernel"], PLAIN),
        ("reduction", &["reduction"], Fmt::Percent(1)),
    ],
};

fn fleet(quick: bool) -> Document {
    let cfg = pick(quick, SweepConfig::quick, SweepConfig::paper_serving);
    let SweepReport {
        cold_psp_ms,
        cold_capacity_rps,
        reports,
    } = serving_sweep(&cfg).expect("fleet sweep");
    let export = |r: &FleetReport| {
        let m = &r.metrics;
        Json::obj([
            ("tier", r.tier.into()),
            ("offered_rps", r.offered_rps.unwrap_or(0.0).into()),
            ("completed", m.completed.into()),
            ("shed", m.shed.into()),
            ("mean_ms", m.mean_ms().into()),
            ("p50_ms", m.p50_ms().into()),
            ("p99_ms", m.p99_ms().into()),
            ("psp_utilization", m.psp_utilization.into()),
            ("cpu_utilization", m.cpu_utilization.into()),
            ("max_queue_depth", m.max_queue_depth.into()),
            ("cache_hits", m.cache_hits.into()),
            ("warm_hits", m.warm_hits.into()),
        ])
    };
    Document {
        head: vec![
            ("cold_psp_ms", cold_psp_ms.into()),
            ("cold_capacity_rps", cold_capacity_rps.into()),
        ],
        sections: vec![("rows", reports.iter().map(export).collect())],
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
        cells,
    } = chaos_sweep(&cfg).expect("chaos sweep");
    let export = |(arm, r): &(ChaosArm, FleetReport)| {
        let m = &r.metrics;
        Json::obj([
            ("arm", (*arm).into()),
            ("offered_rps", r.offered_rps.unwrap_or(0.0).into()),
            ("completed", m.completed.into()),
            ("goodput_rps", m.goodput_rps().into()),
            ("shed", m.shed.into()),
            ("breaker_sheds", m.breaker_sheds.into()),
            ("timeouts", m.timeouts.into()),
            ("failed", m.failed.into()),
            ("retries", m.retries.into()),
            ("faults", m.faults.total().into()),
            ("degraded_dispatches", m.degraded_dispatches.into()),
            ("p50_ms", m.p50_ms().into()),
            ("p99_ms", m.p99_ms().into()),
            ("time_degraded_ms", m.time_degraded.as_millis_f64().into()),
        ])
    };
    Document {
        head: vec![
            ("planned_resets", planned_resets.into()),
            ("planned_crashes", planned_crashes.into()),
        ],
        sections: vec![("rows", cells.iter().map(export).collect())],
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

/// Every cell of a cluster-side sweep must conserve its requests.
fn assert_conserved(cells: &[SweepCell]) {
    for c in cells {
        let conserved = c.report.metrics.conserved();
        assert!(conserved, "conservation broke in {}/{}", c.arm, c.label);
    }
}

fn cluster(quick: bool) -> Document {
    let cfg = pick(
        quick,
        ClusterSweepConfig::quick,
        ClusterSweepConfig::paper_cluster,
    );
    let ClusterSweepReport {
        cold_ceiling_rps,
        cells,
    } = cluster_sweep(&cfg).expect("cluster sweep");
    assert_conserved(&cells);
    let export = |c: &SweepCell| {
        let (r, m) = (&c.report, &c.report.metrics);
        let per_host_goodput = m.goodput_rps() / r.hosts as f64;
        Json::obj([
            ("arm", c.arm.into()),
            ("label", c.label.into()),
            ("hosts", r.hosts.into()),
            ("tier", r.tier.into()),
            ("placement", r.placement.into()),
            ("offered_rps", r.offered_rps.unwrap_or(0.0).into()),
            ("completed", m.completed.into()),
            ("goodput_rps", m.goodput_rps().into()),
            ("per_host_goodput", per_host_goodput.into()),
            ("shed", m.shed.into()),
            ("unroutable", m.unroutable.into()),
            ("breaker_sheds", m.breaker_sheds.into()),
            ("timeouts", m.timeouts.into()),
            ("failed", m.failed.into()),
            ("retries", m.retries.into()),
            ("failovers", m.failovers.into()),
            ("rebalances", m.rebalances.into()),
            ("faults", m.faults.into()),
            ("cache_hit_rate", m.cache_hit_rate().into()),
            ("cache_misses", m.cache_misses().into()),
            ("psp_skew", m.psp_skew().into()),
            ("p50_ms", m.p50_ms().into()),
            ("p99_ms", m.p99_ms().into()),
            ("conserved", m.conserved().into()),
        ])
    };
    Document {
        head: vec![("cold_ceiling_rps", cold_ceiling_rps.into())],
        sections: vec![("rows", cells.iter().map(export).collect())],
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
    let cells = att_sweep(&cfg).expect("attestation sweep");
    assert_conserved(&cells);
    let export = |c: &SweepCell| {
        let (r, m) = (&c.report, &c.report.metrics);
        let att = r.attestation.unwrap_or_default();
        Json::obj([
            ("arm", c.arm.into()),
            ("mode", c.label.into()),
            ("offered_rps", r.offered_rps.unwrap_or(0.0).into()),
            ("completed", m.completed.into()),
            ("shed", m.shed.into()),
            ("timeouts", m.timeouts.into()),
            ("failed", m.failed.into()),
            ("failovers", m.failovers.into()),
            ("retries", m.retries.into()),
            ("verifications", att.verifications.into()),
            ("cert_fetches", att.cert_fetches.into()),
            ("cert_hits", att.cert_hits.into()),
            ("hit_rate", att.hit_rate().into()),
            ("batch_joins", att.batch_joins.into()),
            ("revoked", att.revoked_verdicts.into()),
            ("queue_wait_ms", att.mean_queue_wait_ms().into()),
            ("p50_ms", m.p50_ms().into()),
            ("p99_ms", m.p99_ms().into()),
            ("conserved", m.conserved().into()),
        ])
    };
    rows_of(&cells, export)
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
    let cells = net_sweep(&cfg).expect("partition sweep");
    assert_conserved(&cells);
    for arm in ["partition", "island", "blackout"] {
        let completed = |policy: &str| {
            let cell = SweepCell::find(&cells, arm, policy).expect("both policies present");
            cell.report.metrics.completed
        };
        assert!(
            completed("resilient") > completed("naive"),
            "{arm}: the resilient policy must beat the naive one"
        );
    }
    let export = |c: &SweepCell| {
        let m = &c.report.metrics;
        let att = c.report.attestation.unwrap_or_default();
        Json::obj([
            ("arm", c.arm.into()),
            ("policy", c.label.into()),
            ("completed", m.completed.into()),
            ("shed", m.shed.into()),
            ("timeouts", m.timeouts.into()),
            ("failed", m.failed.into()),
            ("failovers", m.failovers.into()),
            ("retries", m.retries.into()),
            ("suspicions", m.suspicions.into()),
            ("suspicions_cleared", m.suspicions_cleared.into()),
            ("false_suspicions", m.false_suspicions.into()),
            ("lease_expiries", m.lease_expiries.into()),
            ("net_lost", m.net_lost.into()),
            ("net_timeouts", m.net_timeouts.into()),
            ("net_nacks", m.net_nacks.into()),
            ("stale_completions", m.stale_completions.into()),
            (
                "double_completion_attempts",
                m.double_completion_attempts.into(),
            ),
            ("stale_serves", att.stale_serves.into()),
            ("unavailable_refusals", att.unavailable_refusals.into()),
            ("reverifies", att.reverifies.into()),
            ("p50_ms", m.p50_ms().into()),
            ("p99_ms", m.p99_ms().into()),
            ("conserved", m.conserved().into()),
        ])
    };
    rows_of(&cells, export)
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
    let cells = policy_sweep(&cfg).expect("policy sweep");
    assert_conserved(&cells);
    let (mut arms, mut tenants) = (Vec::new(), Vec::new());
    for c in &cells {
        let p = c.policy.as_ref().expect("policy arms carry their policy");
        let m = &c.report.metrics;
        if p.posture {
            assert_eq!(
                m.posture_violations, 0,
                "a strict launch landed below its TCB floor"
            );
        }
        arms.push(Json::obj([
            ("arm", c.arm.into()),
            ("scheduler", p.scheduler.name().into()),
            ("quotas", p.quotas.into()),
            ("posture", p.posture.into()),
            ("completed", m.completed.into()),
            ("lost", m.lost().into()),
            ("rejected", m.rejected.into()),
            ("p50_ms", m.p50_ms().into()),
            ("p99_ms", m.p99_ms().into()),
            ("posture_checks", m.posture_checks.into()),
            ("posture_redirects", m.posture_redirects.into()),
            ("posture_violations", m.posture_violations.into()),
            ("conserved", m.conserved().into()),
        ]));
        // The rollup is in the policy's tenant order.
        let rollups = c.report.tenants.as_ref().expect("policy arms roll up");
        let makespan = m.makespan;
        for (t, r) in p.tenants.iter().zip(rollups) {
            let (arm, tenant, m) = (c.arm, r.name, &r.metrics);
            let conserved = m.conserved();
            assert!(conserved, "tenant conservation broke in {arm}/{tenant}");
            let deadline_ms = t.spec.deadline.as_millis_f64();
            let slo_met = m.completed > 0 && m.p99_ms() <= deadline_ms;
            tenants.push(Json::obj([
                ("arm", arm.into()),
                ("tenant", tenant.into()),
                ("issued", m.issued.into()),
                ("completed", m.completed.into()),
                ("shed", m.shed.into()),
                ("timeouts", m.timeouts.into()),
                ("failed", (m.failed + m.breaker_sheds).into()),
                ("rejected", m.rejected.into()),
                ("degraded", m.degraded.into()),
                ("p50_ms", m.p50_ms().into()),
                ("p99_ms", m.p99_ms().into()),
                ("deadline_ms", deadline_ms.into()),
                ("slo_met", slo_met.into()),
                ("goodput_rps", m.goodput_rps(makespan).into()),
                ("conserved", conserved.into()),
            ]));
        }
    }
    Document {
        head: Vec::new(),
        sections: vec![("arms", arms), ("tenants", tenants)],
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
    let cells = scale_sweep(&cfg).expect("autoscale sweep");
    assert_conserved(&cells);
    let export = |c: &SweepCell| {
        let (r, m) = (&c.report, &c.report.metrics);
        // The static arm runs no scaler: no decisions, and its fixed fleet
        // is both live bounds.
        let auto = r.autoscale.as_ref();
        let slo_met = m.completed > 0 && m.p99_ms() <= cfg.slo_ms;
        Json::obj([
            ("arm", c.arm.into()),
            ("hosts_start", r.hosts.into()),
            ("issued", m.issued.into()),
            ("completed", m.completed.into()),
            ("lost", m.lost().into()),
            ("p50_ms", m.p50_ms().into()),
            ("p99_ms", m.p99_ms().into()),
            ("goodput_rps", m.goodput_rps().into()),
            ("host_seconds", m.host_seconds.into()),
            ("ticks", auto.map_or(0, |a| a.ticks).into()),
            ("scale_outs", auto.map_or(0, |a| a.scale_outs).into()),
            ("scale_ins", auto.map_or(0, |a| a.scale_ins).into()),
            ("prewarms", auto.map_or(0, |a| a.prewarms).into()),
            ("min_live", auto.map_or(r.hosts, |a| a.min_live).into()),
            ("max_live", auto.map_or(r.hosts, |a| a.max_live).into()),
            ("slo_ms", cfg.slo_ms.into()),
            ("slo_met", slo_met.into()),
            ("conserved", m.conserved().into()),
        ])
    };
    Document {
        head: Vec::new(),
        sections: vec![("arms", cells.iter().map(export).collect())],
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

fn trace(quick: bool) -> Document {
    trace_document(&scenarios(quick).expect("trace scenarios"))
}

const TRACE_VIEW: View = View {
    section: "scenarios",
    group_by: None,
    cols: &[
        ("scenario", &["scenario"], PLAIN),
        ("done", &["completed"], PLAIN),
        ("spans", &["spans"], PLAIN),
        ("markers", &["markers"], PLAIN),
        ("request", &["request"], PLAIN),
        ("latency ms", &["latency_ms"], MS),
        ("attempts", &["attempts"], PLAIN),
        ("hops", &["failover_hops"], PLAIN),
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

/// Every figure, table and sweep, in `figures --all` order.
pub const REGISTRY: &[Experiment] = &[
    Experiment {
        id: "3",
        title: "OVMF SEV-SNP boot phase breakdown",
        note: "paper: >3 s total; the Boot Verifier is a small sliver",
        example: None,
        run: fig3,
        views: &[FIG3_VIEW],
    },
    Experiment {
        id: "4",
        title: "pre-encryption time vs component size",
        note: "paper: linear; 23 MB vmlinux ≈ 5.65 s, 3.3 MB bzImage ≈ 840 ms",
        example: None,
        run: fig4,
        views: &[FIG4_VIEW],
    },
    Experiment {
        id: "5",
        title: "measured direct boot step costs per codec",
        note: "paper: LZ4 bzImage wins for kernels; uncompressed initrd wins",
        example: None,
        run: fig5,
        views: &[FIG5_VIEW],
    },
    Experiment {
        id: "7",
        title: "pre-encrypt or generate boot structures",
        note: "paper: pre-encrypt iff the generating code is larger; code 0 B = client-supplied",
        example: None,
        run: fig7,
        views: &[FIG7_VIEW],
    },
    Experiment {
        id: "8",
        title: "guest kernel configurations",
        note: "paper: 23/3.3, 43/7.1, 61/15 MB",
        example: None,
        run: fig8,
        views: &[FIG8_VIEW],
    },
    Experiment {
        id: "9",
        title: "end-to-end boot CDFs including attestation",
        note: "paper: SEVeriFast reduces means by 93.8/88.5/86.1 %",
        example: None,
        run: fig9,
        views: &[FIG9_VIEW],
    },
    Experiment {
        id: "10",
        title: "pre-encryption and firmware/boot verification breakdown",
        note: "paper: QEMU ≈ 287.8 ms / 3.2 s; SEVeriFast ≈ 8.2 ms / 20–33 ms",
        example: None,
        run: fig10,
        views: &[FIG10_VIEW],
    },
    Experiment {
        id: "11",
        title: "stock Firecracker vs SEVeriFast boot breakdown",
        note: "paper: SEVeriFast AWS ≈ 4× stock; Linux boot ≈ 2.3× under SNP",
        example: Some("boot_policy_comparison"),
        run: fig11,
        views: &[FIG11_VIEW],
    },
    Experiment {
        id: "12",
        title: "concurrent launches against the PSP bottleneck",
        note: "paper: SEV linear, ≈1.8 s avg at 50; non-SEV nearly flat",
        example: Some("serverless_fleet"),
        run: fig12,
        views: &[CONCURRENCY_VIEW],
    },
    Experiment {
        id: "mem",
        title: "memory footprint of SEV support (§6.3)",
        note: "paper: +50 KB binary for SEV support; +16 KB per SEV guest",
        example: None,
        run: mem,
        views: &[MEM_VIEW],
    },
    Experiment {
        id: "warm",
        title: "warm start: keep-alive rent and the dedup wall (§7.1)",
        note: "paper: keep-alive is functionally correct but pages cannot be deduplicated",
        example: Some("warm_start"),
        run: warm,
        views: &[WARM_VIEW],
    },
    Experiment {
        id: "fw12",
        title: "Fig. 12 with shared-key template launches (§6.2 future work)",
        note: "the sketched PSP mitigation: per-launch PSP work collapses to ~1 ms",
        example: None,
        run: fw12,
        views: &[CONCURRENCY_VIEW],
    },
    Experiment {
        id: "ablation",
        title: "what-ifs: verifier features, huge-page pvalidate, a faster PSP, SEV generations",
        note: "virtual time on the calibrated cost model; PSP 1x is Fig. 12 at 50 guests",
        example: None,
        run: ablation,
        views: &[ABLATION_VIEW],
    },
    Experiment {
        id: "fleet",
        title: "single-host serving: cold vs template vs warm pool",
        note: "",
        example: Some("fleet_serving"),
        run: fleet,
        views: &[FLEET_VIEW],
    },
    Experiment {
        id: "chaos",
        title: "fleet availability under a seeded fault storm",
        note: "",
        example: Some("fleet_chaos"),
        run: chaos,
        views: &[CHAOS_VIEW],
    },
    Experiment {
        id: "cluster",
        title: "multi-host scale-out, placement policies, and an outage drill",
        note: "",
        example: Some("cluster_scaling"),
        run: cluster,
        views: &[CLUSTER_VIEW],
    },
    Experiment {
        id: "trace",
        title: "per-request critical paths: cold, template hit, failover recovery",
        note: "one exemplar per scenario; the trace_explorer example prints each per-phase path",
        example: Some("trace_explorer"),
        run: trace,
        views: &[TRACE_VIEW],
    },
    Experiment {
        id: "attplane",
        title: "attestation plane: naive vs cached vs batched verification, a TCB storm, a revocation drill",
        note: "",
        example: Some("attestation_storm"),
        run: attplane,
        views: &[ATTPLANE_VIEW],
    },
    Experiment {
        id: "net",
        title: "partition tolerance: link faults, failure detection, leases, and a verifier blackout",
        note: "",
        example: Some("partition_drill"),
        run: net,
        views: &[NET_VIEW],
    },
    Experiment {
        id: "policy",
        title: "multi-tenant QoS: FIFO vs weighted-fair PSP scheduling, quotas, posture placement",
        note: "",
        example: Some("tenant_qos"),
        run: policy,
        views: &[TENANT_VIEW, ARM_VIEW],
    },
    Experiment {
        id: "autoscale",
        title: "trace-driven autoscaling: static vs reactive vs predictive over a flash crowd",
        note: "",
        example: Some("autoscale_drill"),
        run: autoscale,
        views: &[AUTOSCALE_VIEW],
    },
    Experiment {
        id: "headline",
        title: "cold-start reduction over the QEMU/OVMF baseline",
        note: "paper abstract: 86–93 %",
        example: None,
        run: headline,
        views: &[HEADLINE_VIEW],
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
    fn the_registry_lists_every_id_once_under_one_stem() {
        // What `figures --list` printed before the paper's figures moved in.
        let ids: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
        let listed = "3 4 5 7 8 9 10 11 12 mem warm fw12 ablation fleet chaos cluster trace \
                      attplane net policy autoscale headline";
        assert_eq!(ids.join(" "), listed);
        for (i, a) in REGISTRY.iter().enumerate() {
            assert!(!a.title.is_empty());
            for b in &REGISTRY[i + 1..] {
                assert!(a.stem() != b.stem(), "{} and {} share a file", a.id, b.id);
            }
        }
        assert_eq!(
            find("12").unwrap().file_name(true),
            "serverless_fleet_quick.json"
        );
        assert_eq!(find("mem").unwrap().file_name(false), "mem_full.json");
    }
}
