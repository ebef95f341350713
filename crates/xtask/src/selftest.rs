//! Fixture self-test: proves each lint still rejects what it must reject
//! and accepts what it must accept.
//!
//! Fixtures live in `crates/xtask/fixtures/<lint>/`. `fail` fixtures mark
//! every expected finding with a trailing `//~ ERROR <lint-name>` comment
//! (`#~ ERROR <lint-name>` in TOML); the harness requires the produced
//! diagnostics to match the markers *exactly* — same file, same line, same
//! lint — so a lint that drifts quiet or noisy fails the suite either way.
//! A marker may pin the message too:
//! `//~ ERROR guard-across-io: io-under-lock` additionally requires the
//! diagnostic's message to contain `io-under-lock`, which is how the
//! corpus distinguishes a lint's error codes.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::lints;
use crate::workspace::{Allowlist, FileClass, SourceFile, Workspace};
use crate::{Diagnostic, Lint};

/// Self-test outcome: what failed, and how long each lint's fixture
/// section took (so analysis cost stays visible as the corpus grows).
pub struct SelfTestReport {
    /// Human-readable failure descriptions (empty = pass).
    pub failures: Vec<String>,
    /// `(lint name, milliseconds)` per fixture section, in run order.
    pub timings: Vec<(&'static str, f64)>,
}

/// Runs the whole fixture corpus.
pub fn self_test(root: &Path) -> Result<SelfTestReport, String> {
    let fixtures = root.join("crates/xtask/fixtures");
    if !fixtures.is_dir() {
        return Err(format!("fixture corpus missing at {}", fixtures.display()));
    }
    let mut failures = Vec::new();
    let mut timings: Vec<(&'static str, f64)> = Vec::new();
    let mut timer = Instant::now();
    let lap = |name: &'static str, timings: &mut Vec<(&'static str, f64)>, timer: &mut Instant| {
        timings.push((name, timer.elapsed().as_secs_f64() * 1e3));
        *timer = Instant::now();
    };

    // accounting: fail fixture trips, pass fixture (which routes through
    // wrappers and uses an allowlisted site) stays clean.
    let allow = Allowlist::parse(
        "# self-test: the fixture's justified site\n\
         crates/experiments/src/fixture.rs::allowlisted_site\n",
    );
    check_file_fixture(
        &fixtures.join("accounting/fail.rs"),
        |f| lints::accounting::check_file(f, &Allowlist::default()),
        &mut failures,
    )?;
    check_file_fixture(
        &fixtures.join("accounting/pass.rs"),
        |f| lints::accounting::check_file(f, &allow),
        &mut failures,
    )?;
    lap("accounting", &mut timings, &mut timer);

    // layering: a bad mini-workspace (manifest edge + source reference) and
    // a good one.
    check_tree_fixture(&fixtures.join("layering/bad"), &mut failures)?;
    check_tree_fixture(&fixtures.join("layering/good"), &mut failures)?;
    lap("layering", &mut timings, &mut timer);

    // guard-across-io: guards live across page I/O trip; guards dropped
    // (block scope or explicit drop) before I/O, and `io::Read::read` calls
    // (which take a buffer), do not.
    check_file_fixture(
        &fixtures.join("guard_across_io/fail.rs"),
        lints::guard_across_io::check_file,
        &mut failures,
    )?;
    check_file_fixture(
        &fixtures.join("guard_across_io/pass.rs"),
        lints::guard_across_io::check_file,
        &mut failures,
    )?;
    lap("guard-across-io", &mut timings, &mut timer);

    // stale-allow: a consulted entry stays quiet, an unmatched one is
    // reported with its own file/line.
    let path = fixtures.join("stale_allow/fail.allow");
    let text = fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let entries: Vec<&str> = text
        .lines()
        .map(|l| l.split("#~").next().unwrap_or(l))
        .collect();
    let stale = Allowlist::parse(&entries.join("\n"));
    stale.permits("crates/experiments/src/fixture.rs", Some("used"));
    compare(
        "stale_allow/fail.allow",
        expected_markers(&text),
        lints::stale_allow::check("stale_allow/fail.allow", &stale),
        &mut failures,
    );
    lap("stale-allow", &mut timings, &mut timer);

    Ok(SelfTestReport { failures, timings })
}

/// Loads a fixture file as library code of a pretend `experiments` crate.
fn load_fixture(path: &Path) -> Result<SourceFile, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Ok(SourceFile::new(
        "crates/experiments/src/fixture.rs".to_string(),
        FileClass::Lib,
        Some("experiments".to_string()),
        &text,
    ))
}

/// One expected finding: line, lint, and an optional required message
/// substring (`//~ ERROR <lint>[: <substring>]`).
pub type Marker = (u32, Lint, Option<String>);

/// Every `~ ERROR <name>[: <substring>]` marker in `text`.
fn expected_markers(text: &str) -> Vec<Marker> {
    let mut out = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let Some(pos) = line.find("~ ERROR ") else {
            continue;
        };
        let rest = line[pos + "~ ERROR ".len()..].trim();
        let (name, substr) = match rest.split_once(':') {
            Some((n, s)) => (n.trim(), Some(s.trim().to_string())),
            None => (rest.split_whitespace().next().unwrap_or(""), None),
        };
        if let Some(lint) = Lint::from_name(name) {
            out.push((idx as u32 + 1, lint, substr.filter(|s| !s.is_empty())));
        }
    }
    out
}

/// Runs `check` on one fixture file and compares against its markers.
fn check_file_fixture(
    path: &Path,
    check: impl Fn(&SourceFile) -> Vec<Diagnostic>,
    failures: &mut Vec<String>,
) -> Result<(), String> {
    let text = fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let file = load_fixture(path)?;
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    compare(&name, expected_markers(&text), check(&file), failures);
    Ok(())
}

/// Runs the layering lint over a mini-workspace fixture tree and compares
/// against the markers found anywhere in that tree.
fn check_tree_fixture(tree: &Path, failures: &mut Vec<String>) -> Result<(), String> {
    let mut expected = Vec::new();
    collect_tree_markers(tree, &mut expected)?;
    let ws = Workspace::load(tree)?;
    let got = lints::layering::run(&ws)?;
    let name = tree
        .file_name()
        .map(|n| format!("layering/{}", n.to_string_lossy()))
        .unwrap_or_default();
    compare(&name, expected, got, failures);
    Ok(())
}

/// Every marker in every file under `dir`, recursively.
pub fn collect_tree_markers(dir: &Path, out: &mut Vec<Marker>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_tree_markers(&path, out)?;
        } else if let Ok(text) = fs::read_to_string(&path) {
            out.extend(expected_markers(&text));
        }
    }
    Ok(())
}

/// Compares expected markers against produced diagnostics: the `(line,
/// lint)` multisets must match exactly, and every marker substring must
/// appear in a diagnostic at its line.
fn compare(name: &str, expected: Vec<Marker>, got: Vec<Diagnostic>, failures: &mut Vec<String>) {
    let mut want: Vec<(u32, Lint)> = expected.iter().map(|(l, lint, _)| (*l, *lint)).collect();
    let mut actual: Vec<(u32, Lint)> = got.iter().map(|d| (d.line, d.lint)).collect();
    want.sort_unstable();
    actual.sort_unstable();
    if want != actual {
        failures.push(format!(
            "{name}: expected {want:?}, got {actual:?}\n  diagnostics: {}",
            got.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("; ")
        ));
        return;
    }
    for (line, lint, substr) in &expected {
        let Some(substr) = substr else { continue };
        let hit = got
            .iter()
            .any(|d| d.line == *line && d.lint == *lint && d.msg.contains(substr.as_str()));
        if !hit {
            failures.push(format!(
                "{name}: line {line} [{lint}] message does not contain `{substr}`; \
                 diagnostics: {}",
                got.iter()
                    .filter(|d| d.line == *line)
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("; ")
            ));
        }
    }
}
