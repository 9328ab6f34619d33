//! Regenerates every table and figure of the SEVeriFast paper.
//!
//! ```text
//! cargo run --release -p sevf-bench --bin figures -- --list
//! cargo run --release -p sevf-bench --bin figures -- --all
//! cargo run --release -p sevf-bench --bin figures -- --fig 9 --scale quick
//! cargo run --release -p sevf-bench --bin figures -- --table cluster
//! cargo run --release -p sevf-bench --bin figures -- --all --scale quick --out data/golden
//! ```
//!
//! Every id is an entry of [`sevf_bench::experiment::REGISTRY`]; this file
//! parses the flags and loops over the entries asked for. `--out DIR`
//! writes each document as `DIR/<stem>_<scale>.json`, which at
//! `--scale quick` is the id's golden, byte for byte.

use std::path::PathBuf;

use sevf_bench::experiment::{find, Experiment, REGISTRY};

struct Args {
    /// The ids asked for; everything under `--all`.
    ids: Vec<String>,
    /// `--scale quick`: every entry runs its `--quick` config.
    quick: bool,
    out: Option<PathBuf>,
}

fn usage_error(message: &str) -> ! {
    let ids: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
    eprintln!(
        "error: {message}\nusage: figures [--all] [--list] [--fig <id>]... [--table <id>]...\n       \
         [--scale quick|full] [--out <dir>]\nids: {}",
        ids.join(", ")
    );
    std::process::exit(2);
}

fn print_list() {
    let width = REGISTRY.iter().map(|e| e.id.len()).max().unwrap_or(0);
    for e in REGISTRY {
        println!("{:width$}  {}", e.id, e.title);
    }
}

fn parse_args() -> Args {
    let mut ids = Vec::new();
    let mut quick = false;
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => {
                print_list();
                std::process::exit(0);
            }
            "--all" => ids.extend(REGISTRY.iter().map(|e| e.id.to_string())),
            "--fig" | "--table" => match args.next() {
                Some(id) if find(&id).is_some() => ids.push(id),
                Some(id) => usage_error(&format!("unknown figure '{id}' (see --list)")),
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
                Some(dir) => out = Some(PathBuf::from(dir)),
                None => usage_error("--out takes a directory"),
            },
            other => usage_error(&format!("unknown argument '{other}'")),
        }
    }
    if ids.is_empty() {
        ids.push("headline".into());
    }
    Args { ids, quick, out }
}

fn main() {
    let args = parse_args();
    // Registry order, each id once however often it was asked for.
    let wanted = |e: &&Experiment| args.ids.iter().any(|id| id == e.id);
    let asked: Vec<&Experiment> = REGISTRY.iter().filter(wanted).collect();
    for exp in &asked {
        let doc = (exp.run)(args.quick);
        println!("\n=== {}: {} ===", exp.id, exp.title);
        if !exp.note.is_empty() {
            println!("({})", exp.note);
        }
        println!("\n{}", doc.text(exp.views));
        if let Some(dir) = &args.out {
            exp.write(dir, args.quick, &doc)
                .expect("write the document");
        }
    }
    if let Some(dir) = &args.out {
        eprintln!("wrote {} document(s) to {}", asked.len(), dir.display());
    }
}
