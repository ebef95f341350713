//! The live workspace must satisfy its own invariants: `xtask analyze`
//! runs here as a test, so `cargo test --workspace` alone gates every
//! project lint (including lock-order, guard-across-io and the
//! stale-allowlist check) without needing the separate CI step. The
//! retained lint set is pinned too: growing it back is a deliberate act.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test code

use std::path::PathBuf;
use std::process::Command;

use xtask::Lint;

/// The invariants only the project analyzer can hold; everything else is
/// rustc's and clippy's job (root `Cargo.toml`, `[workspace.lints]`).
const RETAINED: [&str; 6] = [
    "accounting",
    "layering",
    "lock-order",
    "guard-across-io",
    "hot-path-hygiene",
    "stale-allow",
];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root exists")
}

#[test]
fn workspace_is_clean_under_exactly_the_retained_lints() {
    assert_eq!(Lint::ALL.map(Lint::name), RETAINED);
    let diags = xtask::analyze(&repo_root()).expect("workspace readable");
    assert!(
        diags.is_empty(),
        "xtask analyze found {} violation(s):\n{}",
        diags.len(),
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn every_lint_has_a_failing_fixture() {
    let mut markers = Vec::new();
    xtask::selftest::collect_tree_markers(&repo_root().join("crates/xtask/fixtures"), &mut markers)
        .expect("fixtures readable");
    for lint in Lint::ALL {
        assert!(
            markers.iter().any(|(_, l, _)| *l == lint),
            "no `//~ ERROR {lint}` marker anywhere under crates/xtask/fixtures/: \
             a lint nothing proves can fail is not a gate"
        );
    }
}

#[test]
fn cli_names_the_retained_set_and_has_no_other_subcommand() {
    let xtask = |arg: &str| {
        Command::new(env!("CARGO_BIN_EXE_xtask"))
            .arg(arg)
            .output()
            .expect("xtask binary runs")
    };
    let out = xtask("analyze");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim(),
        format!("xtask analyze: workspace clean ({})", RETAINED.join(", "))
    );
    for other in ["effects", "cost"] {
        let out = xtask(other);
        assert_eq!(out.status.code(), Some(2));
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(&format!("unknown command `{other}`"))
        );
    }
}

/// The engine's set algebra is ascending `Vec`s (`setsig_core::sorted`) and
/// the per-candidate verifier's bitmap; a tree set on a query or update
/// path is a node allocation per element come back.
#[test]
fn engine_crates_name_no_btreeset_outside_test_code() {
    let ws = xtask::workspace::Workspace::load(&repo_root()).expect("workspace readable");
    let mut offenders = Vec::new();
    for file in &ws.files {
        let engine = matches!(file.crate_dir.as_deref(), Some("core" | "nix" | "oodb"));
        if !engine || file.class != xtask::workspace::FileClass::Lib {
            continue;
        }
        for (tok, &in_test) in file.scanned.toks.iter().zip(&file.test_mask) {
            if !in_test && tok.is_ident("BTreeSet") {
                offenders.push(format!("{}:{}", file.rel, tok.line));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "BTreeSet in non-test code of crates/{{core,nix,oodb}}/src: {offenders:?}"
    );
}
