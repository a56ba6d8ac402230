//! Shared scenario setup and reporting helpers for the benchmark harness.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (or one extension experiment from DESIGN.md). The EXT trajectory
//! experiments live in [`suite`] as sections; `mpls-bench` is their one
//! entry point (`--all`, or `--only <bench id>` for one section). Host
//! ns per layer is measured by the repository benchmark's traced
//! ledger (`perfbench --trace 1`).

pub mod figure_print;
pub mod report;
pub mod scenarios;
pub mod suite;

pub use report::MarkdownTable;
