//! Hostile scenario files fail with an error instead of crashing the
//! process: a document nested far deeper than any real scenario is
//! rejected by the JSON parser's nesting limit on the `mpls-sim run` /
//! `validate` load path.

use mpls_cli::{Scenario, ScenarioError};

#[test]
fn deeply_nested_scenario_is_an_error_not_a_stack_overflow() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("nested-200k.json");
    std::fs::write(&path, "[".repeat(200_000)).unwrap();
    match Scenario::load(&path) {
        Err(e @ ScenarioError::Parse(_)) => {
            assert!(e.to_string().contains("recursion limit exceeded"), "{e}");
        }
        Err(e) => panic!("expected a parse error, got {e}"),
        Ok(_) => panic!("a bare bracket run is not a scenario"),
    }
}
