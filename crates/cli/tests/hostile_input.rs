//! `mpls-sim` turns hostile scenario files into an `error:` line and exit
//! status 1; it never aborts.

use std::process::Command;

#[test]
fn deeply_nested_json_exits_with_an_error() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("nested-200k.json");
    std::fs::write(&path, "[".repeat(200_000)).unwrap();
    for cmd in ["run", "validate"] {
        let out = Command::new(env!("CARGO_BIN_EXE_mpls-sim"))
            .args([cmd, path.to_str().unwrap()])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {stderr}");
        assert!(
            stderr.contains("recursion limit exceeded"),
            "{cmd}: {stderr}"
        );
    }
}

/// Unit conversions (ms or µs to ns) that overflow `u64` are rejected
/// with the field's name instead of panicking or wrapping.
#[test]
fn overflowing_time_fields_exit_with_an_error() {
    const EXAMPLE: &str = include_str!("../scenarios/example.json");
    let max = u64::MAX.to_string();
    let cases = [
        (
            "horizon_ms",
            EXAMPLE.replace("\"horizon_ms\": 150", &format!("\"horizon_ms\": {max}")),
            &["run"][..],
        ),
        (
            "delay_us",
            EXAMPLE.replacen("\"delay_us\": 500", &format!("\"delay_us\": {max}"), 1),
            &["run", "validate"][..],
        ),
    ];
    for (field, doc, cmds) in cases {
        assert!(doc.contains(&max), "{field}: substitution missed");
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{field}.json"));
        std::fs::write(&path, doc).unwrap();
        for cmd in cmds {
            let out = Command::new(env!("CARGO_BIN_EXE_mpls-sim"))
                .args([cmd, path.to_str().unwrap()])
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{field} {cmd}: {stderr}");
            assert!(
                stderr.starts_with("error:") && stderr.contains(field),
                "{field} {cmd}: {stderr}"
            );
        }
    }
}

/// A flow whose ingress is not a topology node has no router to inject
/// into; both commands reject it by name instead of panicking in the
/// engine.
#[test]
fn flow_on_an_unknown_ingress_exits_with_an_error() {
    const EXAMPLE: &str = include_str!("../scenarios/example.json");
    let doc = EXAMPLE.replacen(
        "\"ingress\": 0,\n      \"src\"",
        "\"ingress\": 9,\n      \"src\"",
        1,
    );
    assert_ne!(doc, EXAMPLE, "substitution missed");
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("unknown-ingress.json");
    std::fs::write(&path, doc).unwrap();
    for cmd in ["run", "validate"] {
        let out = Command::new(env!("CARGO_BIN_EXE_mpls-sim"))
            .args([cmd, path.to_str().unwrap()])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {stderr}");
        assert!(
            stderr.starts_with("error:")
                && stderr.contains("flow \"voip\"")
                && stderr.contains("ingress 9"),
            "{cmd}: {stderr}"
        );
    }
}
