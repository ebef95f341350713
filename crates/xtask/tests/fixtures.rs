//! The analyzer's fixture self-test, as a regular `cargo test` target so
//! a drifted lint fails CI even if nobody runs `xtask analyze --self-test`.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test code

use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root exists")
}

#[test]
fn every_fixture_marker_is_matched_exactly() {
    let report = xtask::selftest::self_test(&repo_root()).expect("fixtures readable");
    assert!(
        report.failures.is_empty(),
        "analyzer drifted from its fixtures:\n{}",
        report.failures.join("\n")
    );
}
