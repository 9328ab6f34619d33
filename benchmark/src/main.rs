//! `sevf-benchmark`: one benchmark for both clocks.
//!
//! ```text
//! sevf-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! sevf-benchmark [--seed <n>] [--seconds <s>] [--trace [0|1]]      # all six
//! sevf-benchmark --compare A.json B.json
//! sevf-benchmark --describe                  # prints benchmark/metrics.json
//! ```
//!
//! Run it through `benchmark/run.sh`, which builds it first.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compare;
mod json;
mod metrics;
mod paper;
mod probes;
mod run;
mod stats;
mod trace;
mod traced;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Value;
use workloads::Kind;

/// Default `--seed`.
const DEFAULT_SEED: u64 = 0x5EF0;
/// Default `--seconds` (the `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 8.0;

const USAGE: &str = "usage: run.sh [--workload <name>] [--seed <n>] [--seconds <s>] [--trace [0|1]]\n\
                     \x20      run.sh --compare A.json B.json\n\
                     \x20      run.sh --describe\n\
                     workloads: boot_cold boot_template serve_core serve_trust serve_elastic serve_storm";

#[derive(Debug)]
struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    slice: bool,
    sweep: bool,
    compare: Option<(PathBuf, PathBuf)>,
    describe: bool,
    out_dir: PathBuf,
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        slice: false,
        sweep: false,
        compare: None,
        describe: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => {
                let name = value(&mut i, "--workload")?;
                args.workload =
                    Some(Kind::from_name(&name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => {
                let text = value(&mut i, "--seed")?;
                args.seed = parse_seed(&text).ok_or(format!("bad --seed '{text}'"))?;
            }
            "--seconds" => {
                let text = value(&mut i, "--seconds")?;
                args.seconds = text
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds '{text}'"))?;
            }
            "--trace" => {
                // `--trace 0|1` (the driver) or a bare `--trace`.
                match argv.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        args.trace = false;
                        i += 1;
                    }
                    Some("1") => {
                        args.trace = true;
                        i += 1;
                    }
                    _ => args.trace = true,
                }
            }
            // Internal: one fresh-process slice of an untraced pass.
            "--slice" => args.slice = true,
            "--sweep" => args.sweep = true,
            "--describe" => args.describe = true,
            "--out-dir" => args.out_dir = PathBuf::from(value(&mut i, "--out-dir")?),
            "--compare" => {
                let a = value(&mut i, "--compare")?;
                let b = value(&mut i, "--compare")?;
                args.compare = Some((PathBuf::from(a), PathBuf::from(b)));
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    Ok(args)
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs every workload, each pass in a fresh process, and gathers their
/// result files into `<out>/results.json`.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut runs = Vec::new();
    let mut all_ok = true;
    let passes: &[bool] = if args.trace { &[false, true] } else { &[false] };
    for kind in Kind::ALL {
        for &traced in passes {
            println!("== {} (trace {})", kind.name(), u8::from(traced));
            let status = Command::new(&exe)
                .args(["--workload", kind.name(), "--seed"])
                .arg(args.seed.to_string())
                .arg("--seconds")
                .arg(args.seconds.to_string())
                .args(["--trace", if traced { "1" } else { "0" }, "--out-dir"])
                .arg(&args.out_dir)
                .status()
                .map_err(|e| format!("spawning {}: {e}", kind.name()))?;
            all_ok &= status.success();
            let file = args
                .out_dir
                .join(format!("{}.trace{}.json", kind.name(), u8::from(traced)));
            // A pass that died before writing its file is already counted
            // through its exit status.
            if let Ok(doc) = read_json(&file) {
                runs.push(doc);
            }
        }
    }
    let results = Value::obj()
        .with("schema", 1u64)
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("runs", runs);
    let path = args.out_dir.join("results.json");
    std::fs::write(&path, results.render_pretty())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    Ok(all_ok)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).map_err(|e| format!("{e}\n{USAGE}"))?;

    if args.describe {
        print!("{}", metrics::describe().render_pretty());
        return Ok(true);
    }
    if let Some((a, b)) = &args.compare {
        let rows = compare::compare(&read_json(a)?, &read_json(b)?);
        return Ok(compare::report(&rows));
    }
    let Some(kind) = args.workload else {
        return run_all(&args);
    };
    if args.slice {
        println!(
            "{}",
            run::slice(kind, args.seed, args.seconds, args.sweep)?.render()
        );
        return Ok(true);
    }
    let outcome = if args.trace {
        traced::traced(kind, args.seed, &args.out_dir)?
    } else {
        run::untraced(kind, args.seed, args.seconds)?
    };
    outcome.print();
    run::write_result(&args.out_dir, &outcome)?;
    // The contract: one JSON object as the last line of standard output.
    println!("{}", outcome.contract_line());
    Ok(outcome.failures.is_empty())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("sevf-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
