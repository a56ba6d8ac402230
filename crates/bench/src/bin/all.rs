//! `mpls-bench` — the standard benchmark suite, and the one entry point
//! for each of its sections.
//!
//! Runs the trajectory experiments (EXT-10 shard scaling, EXT-11 LDP
//! convergence, EXT-12 fast-path throughput, EXT-15 streaming scale,
//! EXT-16 SR vs LDP, EXT-17 open- vs closed-loop traffic) at the
//! standard quick configs, prints each table, and — with
//! `--json <path>` — writes one combined `BENCH_<n>.json` trajectory
//! point including the process's peak resident set size:
//!
//! ```text
//! cargo run --release -p mpls-bench --bin mpls-bench -- --all --json BENCH_7.json
//! cargo run --release -p mpls-bench --bin mpls-bench -- --only ext12-throughput
//! ```
//!
//! `--only <id>` runs just the section with that bench id; the JSON
//! document keeps the combined shape and holds just that section.
//! `--full` switches the selected sections to their full (non-quick)
//! configs; the committed trajectory files always use
//! the quick configs so points stay comparable PR over PR. The
//! `bench-gate` binary consumes these files and fails CI on a >10%
//! events/s regression between the two most recent points.
//!
//! Argument errors exit 2 with a usage line before any section runs.

use mpls_bench::suite::{self, Section};
use serde::Value;
use std::process::ExitCode;

/// Runs one suite section; the argument is `quick`.
type SectionFn = fn(bool) -> Section;

/// Every suite section, keyed by its stable bench id, in run order.
const SECTIONS: [(&str, SectionFn); 6] = [
    ("ext10-scaling", suite::ext10_scaling),
    ("ext11-convergence", suite::ext11_convergence),
    ("ext12-throughput", suite::ext12_throughput),
    ("ext15-scale", suite::ext15_scale),
    ("ext16-sr-vs-ldp", suite::ext16_sr_vs_ldp),
    ("ext17-closed-loop", suite::ext17_closed_loop),
];

const USAGE: &str = "usage: mpls-bench [--all | --only <id>] [--full] [--json <path>]";

/// What the command line asks for.
struct Args {
    quick: bool,
    json_path: Option<String>,
    /// The one bench id to run; `None` runs every section.
    only: Option<String>,
}

/// The value following flag `args[*i]`, advancing `i` past it. A
/// missing value, or another flag in its place, is an error.
fn value(args: &[String], i: &mut usize, what: &str) -> Result<String, String> {
    *i += 1;
    match args.get(*i) {
        Some(v) if !v.starts_with("--") => Ok(v.clone()),
        _ => Err(format!("`{}` needs {what}", args[*i - 1])),
    }
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        quick: true,
        json_path: None,
        only: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            // `--all` is the documented spelling of the default.
            "--all" => {}
            "--full" => out.quick = false,
            "--json" => out.json_path = Some(value(args, &mut i, "a path")?),
            "--only" => {
                let id = value(args, &mut i, "a bench id")?;
                if !SECTIONS.iter().any(|(known, _)| *known == id) {
                    let ids: Vec<&str> = SECTIONS.iter().map(|(id, _)| *id).collect();
                    return Err(format!(
                        "unknown bench id `{id}`; valid ids: {}",
                        ids.join(", ")
                    ));
                }
                out.only = Some(id);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "=== mpls-bench: {} ({} configs, {} host core(s)) ===\n",
        args.only.as_deref().unwrap_or("full suite"),
        if args.quick { "quick" } else { "full" },
        cores
    );

    let mut sections: Vec<Section> = Vec::new();
    let selected = SECTIONS
        .iter()
        .filter(|(id, _)| args.only.as_deref().is_none_or(|o| o == *id));
    for (id, run) in selected {
        let s = run(args.quick);
        assert_eq!(s.bench, *id, "SECTIONS is out of step with the suite");
        println!("--- {} ---\n", s.bench);
        println!("{}", s.table);
        for note in &s.notes {
            println!("{note}");
        }
        println!();
        sections.push(s);
    }

    let peak_rss_kb = suite::peak_rss_kb();
    if let Some(kb) = peak_rss_kb {
        println!("peak RSS: {:.1} MiB", kb as f64 / 1024.0);
    }
    if let Some(path) = args.json_path {
        let doc = Value::Map(vec![
            ("bench".into(), Value::Str("all".into())),
            ("quick".into(), Value::Bool(args.quick)),
            (
                "peak_rss_kb".into(),
                peak_rss_kb.map_or(Value::Null, Value::U64),
            ),
            (
                "sections".into(),
                Value::Seq(sections.iter().map(Section::to_json).collect()),
            ),
        ]);
        let body = serde_json::to_string_pretty(&doc).expect("bench report serializes");
        if let Err(e) = std::fs::write(&path, body + "\n") {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}
