//! Regenerates every table and figure of the SEVeriFast paper.
//!
//! ```text
//! cargo run --release -p sevf-bench --bin figures -- --list
//! cargo run --release -p sevf-bench --bin figures -- --all
//! cargo run --release -p sevf-bench --bin figures -- --fig 9 --scale quick
//! cargo run --release -p sevf-bench --bin figures -- --table cluster
//! cargo run --release -p sevf-bench --bin figures -- --all --out data/
//! ```

use severifast::experiments::{self as exp, ExperimentScale};
use sevf_bench::document::{table, Col, Fmt, MS};
use sevf_bench::experiment::{self, trace_document, trace_text, Experiment};
use sevf_bench::{fmt_ms, render_table, write_dumps, FigureDump, Json};
use sevf_sim::stats::cdf;

/// Every figure/table id with a one-line description. This registry is the
/// single source of truth: it drives `--list`, the `--all` ordering, and
/// dispatch, so ids can never drift out of the usage text again.
const FIGURES: &[(&str, &str)] = &[
    ("3", "OVMF SEV-SNP boot phase breakdown"),
    ("4", "pre-encryption time vs component size"),
    ("5", "measured direct boot step costs per codec"),
    ("7", "pre-encrypt or generate boot structures"),
    ("8", "guest kernel configurations"),
    ("9", "end-to-end boot CDFs including attestation"),
    (
        "10",
        "pre-encryption and firmware/boot verification breakdown",
    ),
    ("11", "stock Firecracker vs SEVeriFast boot breakdown"),
    ("12", "concurrent launches against the PSP bottleneck"),
    ("mem", "memory footprint of SEV support (§6.3)"),
    (
        "warm",
        "warm start: keep-alive rent and the dedup wall (§7.1)",
    ),
    (
        "fw12",
        "Fig. 12 with shared-key template launches (§6.2 future work)",
    ),
    (
        "ablation",
        "what-ifs: verifier features, huge-page pvalidate, a faster PSP, SEV generations",
    ),
    (
        "fleet",
        "single-host serving: cold vs template vs warm pool",
    ),
    ("chaos", "fleet availability under a seeded fault storm"),
    (
        "cluster",
        "multi-host scale-out, placement policies, and an outage drill",
    ),
    (
        "trace",
        "per-request critical paths: cold, template hit, failover recovery",
    ),
    (
        "attplane",
        "attestation plane: naive vs cached vs batched verification, a TCB storm, a revocation drill",
    ),
    (
        "net",
        "partition tolerance: link faults, failure detection, leases, and a verifier blackout",
    ),
    (
        "policy",
        "multi-tenant QoS: FIFO vs weighted-fair PSP scheduling, quotas, posture placement",
    ),
    (
        "autoscale",
        "trace-driven autoscaling: static vs reactive vs predictive over a flash crowd",
    ),
    (
        "perf",
        "harness raw speed: calendar vs heap DES, full vs incremental hashing",
    ),
    (
        "headline",
        "cold-start reduction over the QEMU/OVMF baseline",
    ),
];

struct Args {
    figures: Vec<String>,
    scale: ExperimentScale,
    /// `--scale quick`: the serving tables run their `--quick` configs.
    quick: bool,
    out: Option<std::path::PathBuf>,
}

fn usage() -> String {
    let ids: Vec<&str> = FIGURES.iter().map(|(id, _)| *id).collect();
    format!(
        "usage: figures [--all] [--list] [--fig <id>]... [--table <id>]...\n       \
         [--scale quick|full] [--out <dir>]\nids: {}",
        ids.join(", ")
    )
}

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}\n{}", usage());
    std::process::exit(2);
}

fn print_list() {
    let width = FIGURES.iter().map(|(id, _)| id.len()).max().unwrap_or(0);
    for (id, description) in FIGURES {
        println!("{id:width$}  {description}");
    }
}

fn parse_args() -> Args {
    let mut figures = Vec::new();
    let mut quick = false;
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => {
                print_list();
                std::process::exit(0);
            }
            "--all" => {
                figures = FIGURES.iter().map(|(id, _)| id.to_string()).collect();
            }
            "--fig" | "--table" => match args.next() {
                Some(fig) => figures.push(fig),
                None => usage_error(&format!("{arg} takes a value")),
            },
            "--scale" => {
                quick = match args.next().as_deref() {
                    Some("quick") => true,
                    Some("full") => false,
                    Some(other) => usage_error(&format!("unknown scale '{other}'")),
                    None => usage_error("--scale takes a value"),
                };
            }
            "--out" => match args.next() {
                Some(dir) => out = Some(std::path::PathBuf::from(dir)),
                None => usage_error("--out takes a directory"),
            },
            other => usage_error(&format!("unknown argument '{other}'")),
        }
    }
    if figures.is_empty() {
        figures.push("headline".into());
    }
    Args {
        figures,
        scale: sevf_bench::pick(quick, ExperimentScale::quick, ExperimentScale::full),
        quick,
        out,
    }
}

fn main() {
    let args = parse_args();
    let mut dumps: Vec<FigureDump> = Vec::new();
    for fig in &args.figures {
        let dump = match fig.as_str() {
            "3" => fig3(&args.scale),
            "4" => fig4(),
            "5" => fig5(&args.scale),
            "7" => fig7(),
            "8" => fig8(&args.scale),
            "9" => fig9(&args.scale),
            "10" => fig10(&args.scale),
            "11" => fig11(&args.scale),
            "12" => fig12(&args.scale),
            "mem" => mem_table(),
            "warm" => warm_table(&args.scale),
            "fw12" => fw12(&args.scale),
            "ablation" => ablation(&args.scale),
            "trace" => trace_table(args.quick),
            "perf" => perf_table(args.quick),
            "headline" => headline(&args.scale),
            other => {
                let listed = FIGURES.iter().find(|(id, _)| *id == other);
                match (experiment::find(other), listed) {
                    (Some(exp), Some((_, description))) => {
                        registry_table(exp, description, args.quick)
                    }
                    _ => usage_error(&format!("unknown figure '{other}' (see --list)")),
                }
            }
        };
        dumps.push(dump);
    }
    if let Some(dir) = &args.out {
        write_dumps(dir, &dumps).expect("write JSON dumps");
        eprintln!("wrote {} JSON dump(s) to {}", dumps.len(), dir.display());
    }
}

fn fig3(scale: &ExperimentScale) -> FigureDump {
    let slices = exp::fig3_ovmf_phases(scale).expect("fig3 boot");
    let total: f64 = slices.iter().map(|s| s.ms).sum();
    println!("\n=== Figure 3: OVMF SEV-SNP boot phase breakdown ===");
    println!("(paper: >3 s total; the Boot Verifier is a small sliver)\n");
    let rows: Vec<Vec<String>> = slices
        .iter()
        .map(|s| {
            vec![
                s.label.clone(),
                fmt_ms(s.ms),
                format!("{:.1}%", 100.0 * s.ms / total),
            ]
        })
        .collect();
    println!("{}", render_table(&["phase", "ms", "share"], &rows));
    println!("total: {} ms", fmt_ms(total));
    FigureDump {
        id: "fig3".into(),
        caption: "OVMF boot process with SEV-SNP".into(),
        data: Json::Arr(
            slices
                .iter()
                .map(|s| {
                    Json::obj([
                        ("phase", Json::from(s.label.clone())),
                        ("ms", Json::from(s.ms)),
                    ])
                })
                .collect(),
        ),
    }
}

fn fig4() -> FigureDump {
    println!("\n=== Figure 4: pre-encryption time vs component size ===");
    println!("(paper: linear; 23 MB vmlinux ≈ 5.65 s, 3.3 MB bzImage ≈ 840 ms)\n");
    let row = |p: &exp::PreEncryptionPoint| {
        Json::obj([
            ("label", Json::from(p.label.clone())),
            ("bytes", Json::from(p.bytes)),
            ("ms", Json::from(p.ms)),
        ])
    };
    const COLS: &[Col] = &[
        ("component", &["label"], Fmt::Plain),
        ("MiB", &["bytes"], Fmt::Mib),
        ("ms", &["ms"], MS),
    ];
    table_dump(
        "fig4",
        "Pre-encryption cost scales linearly with size",
        COLS,
        exp::fig4_preencryption().iter().map(row).collect(),
    )
}

fn fig5(scale: &ExperimentScale) -> FigureDump {
    println!("\n=== Figure 5: measured direct boot step costs per codec ===");
    println!("(paper: LZ4 bzImage wins for kernels; uncompressed initrd wins)\n");
    let row = |r: &exp::MeasuredBootRow| {
        Json::obj([
            ("component", Json::from(r.component.clone())),
            ("codec", Json::from(r.codec.name())),
            ("bytes", Json::from(r.transferred_bytes)),
            ("copy_ms", Json::from(r.copy_ms)),
            ("hash_ms", Json::from(r.hash_ms)),
            ("decompress_ms", Json::from(r.decompress_ms)),
        ])
    };
    const COLS: &[Col] = &[
        ("component", &["component"], Fmt::Plain),
        ("codec", &["codec"], Fmt::Plain),
        ("MiB", &["bytes"], Fmt::Mib),
        ("copy", &["copy_ms"], MS),
        ("hash", &["hash_ms"], MS),
        ("decompress", &["decompress_ms"], MS),
        (
            "total(ms)",
            &["copy_ms", "hash_ms", "decompress_ms"],
            Fmt::Sum(2),
        ),
    ];
    let rows = exp::fig5_measured_direct_boot(scale);
    table_dump(
        "fig5",
        "Measured direct boot favors LZ4 kernels, raw initrds",
        COLS,
        rows.iter().map(row).collect(),
    )
}

fn fig7() -> FigureDump {
    let rows = exp::fig7_structures();
    println!("\n=== Figure 7: pre-encrypt or generate boot structures ===\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.into(),
                r.purpose.into(),
                format!("{} B", r.struct_bytes),
                if r.code_bytes == 0 {
                    "N/A".into()
                } else {
                    format!("{:.1} KB", r.code_bytes as f64 / 1024.0)
                },
                r.decision.into(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "structure",
                "purpose",
                "struct size",
                "code size",
                "decision"
            ],
            &table
        )
    );
    FigureDump {
        id: "fig7".into(),
        caption: "Pre-encrypt a structure iff generating code is larger".into(),
        data: Json::Arr(
            rows.iter()
                .map(|r| {
                    Json::obj([
                        ("name", Json::from(r.name)),
                        ("struct_bytes", Json::from(r.struct_bytes)),
                        ("code_bytes", Json::from(r.code_bytes)),
                        ("decision", Json::from(r.decision)),
                    ])
                })
                .collect(),
        ),
    }
}

fn fig8(scale: &ExperimentScale) -> FigureDump {
    println!("\n=== Figure 8: guest kernels ===");
    println!("(paper: 23/3.3, 43/7.1, 61/15 MB)\n");
    let row = |r: &exp::KernelRow| {
        Json::obj([
            ("config", Json::from(r.config.clone())),
            ("vmlinux", Json::from(r.vmlinux_bytes)),
            ("bzimage", Json::from(r.bzimage_bytes)),
        ])
    };
    const COLS: &[Col] = &[
        ("config", &["config"], Fmt::Plain),
        ("vmlinux MiB", &["vmlinux"], Fmt::Mib),
        ("bzImage MiB", &["bzimage"], Fmt::Mib),
    ];
    let rows = exp::fig8_kernels(scale);
    table_dump(
        "fig8",
        "Kernel configurations",
        COLS,
        rows.iter().map(row).collect(),
    )
}

fn cdf_json(samples: &[f64]) -> Json {
    Json::Arr(
        cdf(samples)
            .into_iter()
            .map(|(x, p)| Json::Arr(vec![Json::from(x), Json::from(p)]))
            .collect(),
    )
}

fn fig9(scale: &ExperimentScale) -> FigureDump {
    let series = exp::fig9_boot_cdfs(scale).expect("fig9 boots");
    println!("\n=== Figure 9: end-to-end boot CDFs (incl. attestation) ===");
    println!("(paper: SEVeriFast reduces means by 93.8/88.5/86.1 %)\n");
    let table: Vec<Vec<String>> = series
        .iter()
        .map(|s| {
            let summary = sevf_sim::Summary::from_values(&s.samples_ms);
            vec![
                s.policy.name().into(),
                s.kernel.clone(),
                fmt_ms(summary.mean),
                fmt_ms(summary.p50),
                fmt_ms(summary.p99),
                fmt_ms(summary.stddev),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["policy", "kernel", "mean", "p50", "p99", "σ"], &table)
    );
    FigureDump {
        id: "fig9".into(),
        caption: "CDF of boot times, SEVeriFast vs QEMU/OVMF".into(),
        data: Json::Arr(
            series
                .iter()
                .map(|s| {
                    Json::obj([
                        ("policy", Json::from(s.policy.name())),
                        ("kernel", Json::from(s.kernel.clone())),
                        ("cdf", cdf_json(&s.samples_ms)),
                    ])
                })
                .collect(),
        ),
    }
}

fn fig10(scale: &ExperimentScale) -> FigureDump {
    let rows = exp::fig10_breakdown(scale).expect("fig10 boots");
    println!("\n=== Figure 10: pre-encryption & firmware/boot verification ===");
    println!("(paper: QEMU ≈ 287.8 ms / 3.2 s; SEVeriFast ≈ 8.2 ms / 20–33 ms)\n");
    let row = |r: &exp::Fig10Row| {
        Json::obj([
            ("policy", Json::from(r.policy.name())),
            ("kernel", Json::from(r.kernel.clone())),
            ("pre_encryption_ms", Json::from(r.pre_encryption_ms)),
            ("firmware_ms", Json::from(r.firmware_ms)),
        ])
    };
    const COLS: &[Col] = &[
        ("policy", &["policy"], Fmt::Plain),
        ("kernel", &["kernel"], Fmt::Plain),
        ("pre-encryption ms", &["pre_encryption_ms"], MS),
        ("firmware/verification ms", &["firmware_ms"], MS),
    ];
    table_dump(
        "fig10",
        "Boot time breakdown of SEVeriFast vs QEMU",
        COLS,
        rows.iter().map(row).collect(),
    )
}

fn fig11(scale: &ExperimentScale) -> FigureDump {
    let rows = exp::fig11_breakdown(scale).expect("fig11 boots");
    println!("\n=== Figure 11: stock FC vs SEVeriFast (bzImage/vmlinux) ===");
    println!("(paper: SEVeriFast AWS ≈ 4× stock; Linux boot ≈ 2.3× under SNP)\n");
    let row = |r: &exp::Fig11Row| {
        Json::obj([
            ("policy", Json::from(r.policy.name())),
            ("kernel", Json::from(r.kernel.clone())),
            ("vmm_ms", Json::from(r.vmm_ms)),
            ("verification_ms", Json::from(r.verification_ms)),
            ("loader_ms", Json::from(r.loader_ms)),
            ("linux_ms", Json::from(r.linux_ms)),
        ])
    };
    const PARTS: &[&str] = &["vmm_ms", "verification_ms", "loader_ms", "linux_ms"];
    const COLS: &[Col] = &[
        ("policy", &["policy"], Fmt::Plain),
        ("kernel", &["kernel"], Fmt::Plain),
        ("VMM", &["vmm_ms"], MS),
        ("verification", &["verification_ms"], MS),
        ("loader", &["loader_ms"], MS),
        ("linux", &["linux_ms"], MS),
        ("total(ms)", PARTS, Fmt::Sum(2)),
    ];
    table_dump(
        "fig11",
        "Boot breakdown: stock vs SEVeriFast",
        COLS,
        rows.iter().map(row).collect(),
    )
}

fn fig12(scale: &ExperimentScale) -> FigureDump {
    let rows = exp::fig12_concurrency(scale).expect("fig12 boots");
    println!("\n=== Figure 12: concurrent launches ===");
    println!("(paper: SEV linear, ≈1.8 s avg at 50; non-SEV nearly flat)\n");
    let row = |r: &exp::ConcurrencyRow| {
        Json::obj([
            ("policy", Json::from(r.policy.name())),
            ("n", Json::from(r.concurrency)),
            ("mean_ms", Json::from(r.mean_ms)),
            ("max_ms", Json::from(r.max_ms)),
        ])
    };
    const COLS: &[Col] = &[
        ("policy", &["policy"], Fmt::Plain),
        ("concurrent", &["n"], Fmt::Plain),
        ("mean ms", &["mean_ms"], MS),
        ("max ms", &["max_ms"], MS),
    ];
    table_dump(
        "fig12",
        "Average boot time of concurrent guests",
        COLS,
        rows.iter().map(row).collect(),
    )
}

fn mem_table() -> FigureDump {
    let rows = exp::footprint_table();
    println!("\n=== §6.3: memory footprint ===");
    println!("(paper: +50 KB binary for SEV support; +16 KB per SEV guest)\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.name().into(),
                format!("{:.2} MiB", r.binary_bytes as f64 / (1024.0 * 1024.0)),
                format!("{} KiB", r.overhead_bytes / 1024),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["policy", "binary", "runtime overhead"], &table)
    );
    FigureDump {
        id: "mem".into(),
        caption: "Memory footprint".into(),
        data: Json::Arr(
            rows.iter()
                .map(|r| {
                    Json::obj([
                        ("policy", Json::from(r.policy.name())),
                        ("binary", Json::from(r.binary_bytes)),
                        ("overhead", Json::from(r.overhead_bytes)),
                    ])
                })
                .collect(),
        ),
    }
}

fn warm_table(scale: &ExperimentScale) -> FigureDump {
    let rows = exp::warm_start_analysis(scale).expect("warm boots");
    println!("\n=== §7.1: warm start — keep-alive rent and the dedup wall ===");
    println!("(paper: keep-alive is functionally correct but pages cannot be deduplicated)\n");
    let row = |r: &exp::WarmStartRow| {
        Json::obj([
            ("policy", Json::from(r.policy.name())),
            ("cold_ms", Json::from(r.cold_boot_ms)),
            ("warm_ms", Json::from(r.warm_invoke_ms)),
            ("resident", Json::from(r.resident_bytes)),
            ("dedupable", Json::from(r.dedupable_fraction)),
        ])
    };
    const COLS: &[Col] = &[
        ("policy", &["policy"], Fmt::Plain),
        ("cold boot ms", &["cold_ms"], MS),
        ("warm invoke ms", &["warm_ms"], MS),
        ("resident MiB", &["resident"], Fmt::Mib),
        ("dedupable", &["dedupable"], Fmt::Percent(1)),
    ];
    table_dump(
        "warm",
        "Warm start: latency vs memory rent vs dedup (§7.1)",
        COLS,
        rows.iter().map(row).collect(),
    )
}

fn fw12(scale: &ExperimentScale) -> FigureDump {
    let rows = exp::futurework_shared_key_concurrency(scale).expect("fw12 boots");
    println!("\n=== Future work (§6.2): Fig. 12 with shared-key template launches ===");
    println!("(the sketched PSP mitigation: per-launch PSP work collapses to ~1 ms)\n");
    let row = |r: &exp::ConcurrencyRow| {
        Json::obj([
            ("n", Json::from(r.concurrency)),
            ("mean_ms", Json::from(r.mean_ms)),
            ("max_ms", Json::from(r.max_ms)),
        ])
    };
    const COLS: &[Col] = &[
        ("concurrent", &["n"], Fmt::Plain),
        ("mean ms", &["mean_ms"], MS),
        ("max ms", &["max_ms"], MS),
    ];
    table_dump(
        "fw12",
        "Concurrent shared-key launches (future work)",
        COLS,
        rows.iter().map(row).collect(),
    )
}

fn ablation(scale: &ExperimentScale) -> FigureDump {
    let rows = exp::ablations(scale).expect("ablation boots");
    println!("\n=== Ablations: what-ifs on the design choices ===");
    println!("(virtual time on the calibrated cost model; PSP 1x is Fig. 12 at 50 guests)\n");
    let row = |r: &exp::AblationRow| {
        Json::obj([
            ("study", Json::from(r.study)),
            ("variant", Json::from(r.variant.clone())),
            ("measure", Json::from(r.measure)),
            ("ms", Json::from(r.ms)),
        ])
    };
    const COLS: &[Col] = &[
        ("study", &["study"], Fmt::Plain),
        ("variant", &["variant"], Fmt::Plain),
        ("measure", &["measure"], Fmt::Plain),
        ("ms", &["ms"], MS),
    ];
    table_dump(
        "ablation",
        "Ablations of the verifier, page size, PSP speed and SEV generation",
        COLS,
        rows.iter().map(row).collect(),
    )
}

/// Prints `rows` as one table under `cols` and returns them as the dump, so
/// a figure names each of its columns once.
fn table_dump(id: &str, caption: &str, cols: &[Col], rows: Vec<Json>) -> FigureDump {
    println!("{}", table(&rows, None, cols));
    FigureDump {
        id: id.into(),
        caption: caption.into(),
        data: Json::Arr(rows),
    }
}

/// A registered serving sweep: heading, head scalars, its tables; the dump
/// carries exactly the columns of the example's `--json`.
fn registry_table(exp: &Experiment, description: &str, quick: bool) -> FigureDump {
    let doc = (exp.run)(quick);
    println!("\n=== {}: {description} ===\n", exp.id);
    println!("{}", doc.text(exp.views));
    FigureDump {
        id: exp.id.into(),
        caption: description.into(),
        data: doc.to_json(),
    }
}

fn trace_table(quick: bool) -> FigureDump {
    let s = sevf_cluster::tracedemo::scenarios(quick).expect("trace scenarios");
    println!("\n=== Trace: per-request critical paths on the shared clock ===");
    println!("(one exemplar per scenario; children tile their parents, so the");
    println!(" per-phase durations sum exactly to the request's metric latency)\n");
    for run in [&s.cold, &s.template, &s.failover] {
        println!("{}", trace_text(run));
    }
    FigureDump {
        id: "trace".into(),
        caption: "Per-phase critical paths of exemplar requests".into(),
        data: trace_document(&s).to_json(),
    }
}

fn perf_table(quick: bool) -> FigureDump {
    let sweep = sevf_bench::perf::run_checked(quick);
    println!("\n=== Perf: harness raw speed (calendar DES, batched SHA-384) ===");
    println!("(same workload through both engines; same image through all three");
    println!(" measurement paths — identical results, different wall-clock)\n");
    println!("{}", sweep.text());
    FigureDump {
        id: "perf".into(),
        caption: "Harness raw speed: DES engines and measurement paths".into(),
        data: sweep.document().to_json(),
    }
}

fn headline(scale: &ExperimentScale) -> FigureDump {
    let reductions = exp::headline_reductions(scale).expect("headline boots");
    println!("\n=== Headline: SEVeriFast vs QEMU/OVMF end-to-end reduction ===");
    println!("(paper abstract: 86–93 %)\n");
    let row = |(kernel, reduction): &(String, f64)| {
        Json::obj([
            ("kernel", Json::from(kernel.clone())),
            ("reduction", Json::from(*reduction)),
        ])
    };
    const COLS: &[Col] = &[
        ("kernel", &["kernel"], Fmt::Plain),
        ("reduction", &["reduction"], Fmt::Percent(1)),
    ];
    table_dump(
        "headline",
        "Cold-start reduction over the QEMU/OVMF baseline",
        COLS,
        reductions.iter().map(row).collect(),
    )
}
