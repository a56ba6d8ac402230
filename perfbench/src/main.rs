//! The repository benchmark: one workload, one seed, a fixed measuring
//! time, and a correctness verdict on every repetition.
//!
//! ```text
//! perfbench --workload <embedded-grid|fabric-fast|ldp-churn> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats set-up + `Simulation::run` until the time is up
//! and reports the end-to-end medians (`hops_per_s`, `setup_s`,
//! `peak_rss_mb`). `--trace 1` spends the time half untraced, half with
//! spans on, then builds the per-layer ledger (see `ledger.rs`). The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod check;
mod ledger;
mod recorded;
mod trace;
mod workloads;

use mpls_net::SimReport;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::Workload;

/// Environment variables that silently change the measured program.
const REFUSED_ENV: [&str; 5] = [
    "MPLS_SIM_SHARDS",
    "MPLS_SIM_ENGINE",
    "MPLS_SIM_FLOW_CACHE",
    "MPLS_SIM_DIFF_LOOKUP",
    "MPLS_SIM_BATCH",
];

/// Fewest repetitions a measurement makes, however long they take.
const MIN_REPS: usize = 3;

/// Shards of the untimed `fabric-fast` identity-check run and of the
/// ledger's sharded runs (capped at the core count). Timed repetitions
/// run at 1 shard: on a shared 2-core host the 2-shard wall time swung
/// from 0.17 to 0.53 M hops/s between runs, too wide to gate on.
const CHECK_SHARDS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload = Workload::parse(workload).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!(
            "unknown workload {workload:?} (one of {})",
            names.join(", ")
        )
    })?;
    let num = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds,
        trace,
    })
}

/// One repetition: set-up, run, and the facts the checks need.
struct Rep {
    setup_s: f64,
    run_s: f64,
    report: SimReport,
}

fn one_rep(w: Workload, seed: u64, shards: usize, tr: &mut Tracer) -> Rep {
    let t0 = Instant::now();
    let p = workloads::prepare(w, seed, shards, true, tr);
    let t1 = Instant::now();
    let s = tr.begin("net.run");
    let report = p.sim.run(p.horizon_ns);
    tr.end(s);
    let t2 = Instant::now();
    Rep {
        setup_s: (t1 - t0).as_secs_f64(),
        run_s: (t2 - t1).as_secs_f64(),
        report,
    }
}

/// The verdict on one repetition's report.
fn verdict(w: Workload, report: &SimReport, reference: &mut Option<String>) -> Result<(), String> {
    check::conservation(report)?;
    if matches!(w, Workload::EmbeddedGrid | Workload::FabricFast) && report.queue_drops > 0 {
        return Err(format!(
            "{} queue drops on a light-load workload",
            report.queue_drops
        ));
    }
    check_digest(&check::digest(report), reference)
}

/// Compares a report digest with the reference, adopting it as the
/// reference when there is none yet.
fn check_digest(d: &str, reference: &mut Option<String>) -> Result<(), String> {
    match reference {
        Some(r) if r != d => Err(format!("report digest {d} != reference {r}")),
        Some(_) => Ok(()),
        None => {
            *reference = Some(d.to_string());
            Ok(())
        }
    }
}

/// Repetitions of one measurement phase.
#[derive(Default)]
struct Phase {
    setup_s: Vec<f64>,
    hops_per_s: Vec<f64>,
    run_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    cycles_per_hop: Vec<f64>,
    last: Option<SimReport>,
}

/// Repeats set-up + run until `budget` has passed (at least
/// [`MIN_REPS`] times). A panic or a failed check counts in `failed`
/// and the phase goes on.
fn measure(
    w: Workload,
    seed: u64,
    budget: Duration,
    reference: &mut Option<String>,
    tr: &mut Tracer,
) -> Phase {
    let mut ph = Phase::default();
    let start = Instant::now();
    while ph.attempted < MIN_REPS as u64 || start.elapsed() < budget {
        ph.attempted += 1;
        tr.set_request(ph.attempted);
        let rep = catch_unwind(AssertUnwindSafe(|| one_rep(w, seed, 1, tr)));
        let rep = match rep {
            Ok(rep) => rep,
            Err(_) => {
                eprintln!("repetition {} panicked", ph.attempted);
                ph.failed += 1;
                continue;
            }
        };
        if let Err(e) = verdict(w, &rep.report, reference) {
            eprintln!("repetition {} failed its check: {e}", ph.attempted);
            ph.failed += 1;
            continue;
        }
        let hops = check::hops(&rep.report);
        let cycles: u64 = rep.report.routers.values().map(|r| r.total_cycles).sum();
        ph.cycles_per_hop.push(cycles as f64 / hops.max(1) as f64);
        ph.setup_s.push(rep.setup_s);
        ph.run_s.push(rep.run_s);
        ph.hops_per_s.push(hops as f64 / rep.run_s);
        ph.last = Some(rep.report);
    }
    ph
}

/// The median (mean of the middle two for an even count; NaN if empty).
fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    if v.is_empty() {
        f64::NAN
    } else if v.len() % 2 == 1 {
        v[v.len() / 2]
    } else {
        (v[v.len() / 2 - 1] + v[v.len() / 2]) / 2.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let m: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        m.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let set: Vec<&str> = REFUSED_ENV
        .iter()
        .copied()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to measure: {} set (each changes the measured program)",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Never more shards (worker threads) than cores.
    let check_shards = CHECK_SHARDS.min(nproc);
    println!("workload: {} seed {}", w.name(), args.seed);

    // The reference digest every repetition must reproduce: the one
    // recorded for this seed, else the first repetition's.
    let mut reference = recorded::digest(w, args.seed).map(str::to_string);
    let budget = Duration::from_secs(args.seconds);
    let (untraced, traced) = if args.trace {
        let mut off = Tracer::off();
        let a = measure(w, args.seed, budget / 2, &mut reference, &mut off);
        let mut tr = Tracer::on();
        let b = measure(w, args.seed, budget / 2, &mut reference, &mut tr);
        (a, Some((b, tr)))
    } else {
        let mut off = Tracer::off();
        let a = measure(w, args.seed, budget, &mut reference, &mut off);
        (a, None)
    };
    // Peak RSS of the repetitions, read before the 2-shard run below adds
    // a second worker thread's allocations.
    let rss = peak_rss_mb();

    // fabric-fast runs once more, untimed, at `check_shards`: its report
    // must equal the reference, so every invocation checks shard identity.
    let mut check = Phase::default();
    if w == Workload::FabricFast {
        check.attempted = 1;
        let rep = catch_unwind(AssertUnwindSafe(|| {
            one_rep(w, args.seed, check_shards, &mut Tracer::off())
        }));
        match rep
            .map_err(|_| "panicked".to_string())
            .and_then(|rep| verdict(w, &rep.report, &mut reference).map(|()| rep.report))
        {
            Ok(r) => println!(
                "shard check: {} shard(s), {} engine, {} rounds: report identical",
                r.engine.shards,
                r.engine.kind.name(),
                r.engine.epochs
            ),
            Err(e) => {
                eprintln!("the {check_shards}-shard check run failed: {e}");
                check.failed = 1;
            }
        }
    }

    if let Some(r) = &untraced.last {
        println!(
            "engine: {} shard(s), {} engine ({nproc} core(s) available)",
            r.engine.shards,
            r.engine.kind.name(),
        );
    }
    if let Some(d) = &reference {
        println!("report digest: {d}");
    }
    let hops_per_s = median(&untraced.hops_per_s);
    let setup_s = median(&untraced.setup_s);

    let Some((traced, mut tr)) = traced else {
        let attempted = check.attempted + untraced.attempted;
        let failed = check.failed + untraced.failed;
        let correct = failed == 0;
        println!(
            "end-to-end over {} repetitions (medians, tracing off):",
            untraced.hops_per_s.len()
        );
        println!("  hops_per_s  {hops_per_s:.0} hops/s");
        println!("  setup_s     {setup_s:.4} s");
        println!("  peak_rss_mb {rss:.1} MiB");
        println!("  runs_failed {failed} of runs_attempted {attempted}");
        println!("correct: {correct}");
        let metrics = [
            ("hops_per_s", hops_per_s, "hops/s"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", rss, "MiB"),
        ];
        println!("{}", result_line(correct, attempted, failed, &metrics));
        return ExitCode::SUCCESS;
    };

    let traced_hops_per_s = median(&traced.hops_per_s);
    let spans = tr.summary_from(0);
    let span_median_s = |name: &str| {
        spans.get(name).map_or(0.0, |s| {
            let d: Vec<f64> = s.durations.iter().map(|&d| d as f64 / 1e9).collect();
            median(&d)
        })
    };
    let mut attempted = check.attempted + untraced.attempted + traced.attempted;
    let mut failed = check.failed + untraced.failed + traced.failed;
    let Some(report) = traced.last.as_ref().or(untraced.last.as_ref()) else {
        println!("no repetition passed its checks; no ledger");
        println!("{}", result_line(false, attempted, failed, &[]));
        return ExitCode::FAILURE;
    };
    let facts = ledger::RunFacts {
        report,
        signal_s: span_median_s("control.signal"),
        net_build_s: span_median_s("net.build"),
        trace_overhead: hops_per_s / traced_hops_per_s,
    };
    let (metrics, lines, table6_ok, sharded) =
        ledger::measure(w, args.seed, check_shards, &facts, &mut tr);
    for d in sharded {
        attempted += 1;
        if let Err(e) = check_digest(&d, &mut reference) {
            eprintln!("ledger {check_shards}-shard run: {e}");
            failed += 1;
        }
    }
    let cycles: Vec<f64> = untraced
        .cycles_per_hop
        .iter()
        .chain(&traced.cycles_per_hop)
        .copied()
        .collect();
    let cycles_repeat = cycles.windows(2).all(|p| p[0] == p[1]);

    println!(
        "end-to-end: untraced {hops_per_s:.0} hops/s, setup {setup_s:.4} s ({} reps); \
         traced {traced_hops_per_s:.0} hops/s, setup {:.4} s ({} reps)",
        untraced.hops_per_s.len(),
        median(&traced.setup_s),
        traced.hops_per_s.len()
    );
    for l in &lines {
        println!("{l}");
    }
    println!(
        "core.cycles_per_hop repeats exactly across {} runs: {cycles_repeat}",
        cycles.len()
    );
    println!("per-layer metrics:");
    for (name, v, unit) in &metrics {
        println!("  {name:<30} {v:>16.4} {unit}");
    }
    let path = std::path::PathBuf::from(format!(
        "perfbench/out/{}-seed{}.spans.tsv",
        w.name(),
        args.seed
    ));
    match tr.write_tsv(&path) {
        Ok(()) => println!("spans: {} written to {}", tr.len(), path.display()),
        Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
    }
    let correct = failed == 0 && table6_ok && cycles_repeat;
    println!("runs_failed {failed} of runs_attempted {attempted}; correct: {correct}");
    println!("{}", result_line(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
