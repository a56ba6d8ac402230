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
