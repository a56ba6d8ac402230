//! EXT-16: segment routing vs LDP on the same fat tree.
//!
//! One LDP leg and SR legs over max push depth {3, 6, 12} × RLD
//! {2, 6} on a 36-node fat tree with cross-pod flows and a mid-run
//! link cut. The section asserts per-flow conservation and serialized
//! report byte-identity across shards {1, 4} for
//! every SR configuration, then tables state footprint, bring-up and
//! reconvergence, peak stack depth, ECMP and RLD-violation counts,
//! and events/s.
//!
//! Run: `cargo run --release -p mpls-bench --bin sr-vs-ldp`
//! (`--quick` for the CI smoke horizon; `--json <path>` writes the
//! section as a machine-readable trajectory point.)

use mpls_bench::suite;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .map(|i| args.get(i + 1).expect("--json needs a path").clone());
    println!(
        "=== EXT-16: SR vs LDP — state, convergence, stack-depth cost, {} config ===\n",
        if quick { "quick" } else { "full" }
    );
    let section = suite::ext16_sr_vs_ldp(quick);
    println!("{}", section.table);
    for note in &section.notes {
        println!("{note}");
    }
    if let Some(kb) = suite::peak_rss_kb() {
        println!("peak RSS: {:.1} MiB", kb as f64 / 1024.0);
    }
    if let Some(path) = json_path {
        let body =
            serde_json::to_string_pretty(&section.to_json()).expect("bench report serializes");
        std::fs::write(&path, body + "\n").expect("bench json written");
        println!("wrote {path}");
    }
}
