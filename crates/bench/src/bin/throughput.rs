//! EXT-12: fast-path throughput — hash FIB + flow cache vs the linear
//! info-base.
//!
//! A 64-router grid is loaded with hundreds of LSPs per corner pair so
//! every transit node's level-2 table is deep, then the traffic is aimed
//! at the *last* LSP signaled — the binding a linear scan finds at the
//! highest rank. The same scenario runs with the linear-scan software
//! router and with the fast path (open-addressed hash FIB reporting
//! canonical linear-equivalent probe counts, plus a per-ingress flow
//! cache), with telemetry enabled.
//!
//! Two things are certified:
//!
//! * **Identity** — the serialized `SimReport` (telemetry export
//!   included) is byte-identical between the linear and fast paths,
//!   with the cache on or off, at every shard count. The fast path buys host wall-clock only; the simulated
//!   answer cannot move.
//! * **Throughput** — the table records host events/second for each
//!   configuration; the fast path's advantage grows with table depth.
//!
//! Run: `cargo run --release -p mpls-bench --bin throughput`
//! (`--quick` for the CI smoke subset: shallower tables, shorter run;
//! `--json <path>` additionally writes the measurements as a
//! machine-readable trajectory point, e.g. the committed `BENCH_6.json`).

use mpls_bench::suite;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .map(|i| args.get(i + 1).expect("--json needs a path").clone());
    let section = suite::ext12_throughput(quick);
    let lsps = section
        .config
        .iter()
        .find_map(|(k, v)| match v {
            serde::Value::U64(n) if k == "lsps_per_pair" => Some(*n),
            _ => None,
        })
        .unwrap_or(0);
    println!(
        "=== EXT-12: hash-FIB fast path vs linear info-base, 64-router grid, \
         {lsps} LSPs/pair ===\n"
    );
    println!("{}", section.table);
    for note in &section.notes {
        println!("{note}");
    }
    if let Some(path) = json_path {
        let body =
            serde_json::to_string_pretty(&section.to_json()).expect("bench report serializes");
        std::fs::write(&path, body + "\n").expect("bench json written");
        println!("wrote {path}");
    }
}
