//! The `mpls-bench` command line, driven as a process: argument errors
//! exit 2 before any section runs, and `--only` runs exactly the section
//! it names into the combined JSON shape.

use std::process::{Command, Output};

fn mpls_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mpls-bench"))
        .args(args)
        .output()
        .expect("mpls-bench starts")
}

/// Asserts a usage error: exit 2, `needle` named on stderr, and no
/// section started (nothing printed on stdout).
fn assert_usage_error(args: &[&str], needle: &str) -> String {
    let out = mpls_bench(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
    assert!(stderr.contains(needle), "{args:?}: stderr {stderr}");
    assert!(stderr.contains("usage: mpls-bench"), "{args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{args:?}: a section ran before the error:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    stderr
}

#[test]
fn json_without_a_path_is_a_usage_error() {
    assert_usage_error(&["--json"], "`--json` needs a path");
    assert_usage_error(&["--json", "--all"], "`--json` needs a path");
}

#[test]
fn unknown_arguments_are_usage_errors() {
    assert_usage_error(&["--ful"], "unknown argument `--ful`");
    assert_usage_error(&["--all", "--quick"], "unknown argument `--quick`");
}

#[test]
fn unknown_bench_id_lists_the_valid_ones() {
    let stderr = assert_usage_error(&["--only", "ext99-nothing"], "`ext99-nothing`");
    for id in [
        "ext10-scaling",
        "ext11-convergence",
        "ext12-throughput",
        "ext15-scale",
        "ext16-sr-vs-ldp",
        "ext17-closed-loop",
    ] {
        assert!(stderr.contains(id), "valid id {id} not listed: {stderr}");
    }
    assert_usage_error(&["--only"], "`--only` needs a bench id");
}

#[test]
fn only_writes_just_the_named_section() {
    let path = std::env::temp_dir().join(format!("mpls-bench-only-{}.json", std::process::id()));
    let out = mpls_bench(&[
        "--only",
        "ext11-convergence",
        "--json",
        path.to_str().expect("utf-8 temp path"),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body = std::fs::read_to_string(&path).expect("json written");
    std::fs::remove_file(&path).ok();
    let doc: serde::Value = serde_json::from_str(&body).expect("valid json");
    assert_eq!(doc.get("bench"), Some(&serde::Value::Str("all".into())));
    assert_eq!(doc.get("quick"), Some(&serde::Value::Bool(true)));
    let Some(serde::Value::Seq(sections)) = doc.get("sections") else {
        panic!("no sections array: {body}");
    };
    assert_eq!(sections.len(), 1, "{body}");
    assert_eq!(
        sections[0].get("bench"),
        Some(&serde::Value::Str("ext11-convergence".into()))
    );
}
