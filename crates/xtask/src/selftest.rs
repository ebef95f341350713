//! Fixture self-test: proves each lint still rejects what it must reject
//! and accepts what it must accept.
//!
//! Fixtures live in `crates/xtask/fixtures/<lint>/`, as mini-workspaces.
//! Every expected finding carries a trailing `#~ ERROR <lint-name>`
//! comment on its manifest line; the harness requires the produced
//! diagnostics to match the markers *exactly* — same line, same lint — so
//! a lint that drifts quiet or noisy fails the suite either way. A marker
//! may pin the message too: `#~ ERROR layering: does not opt into the
//! workspace lint table` additionally requires the diagnostic's message to
//! contain that text.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::lints;
use crate::workspace::Workspace;
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

    // layering: a bad mini-workspace (an upward manifest edge, a member
    // outside the lint table, an unregistered crate) and a good one.
    check_tree_fixture(&fixtures.join("layering/bad"), &mut failures)?;
    check_tree_fixture(&fixtures.join("layering/good"), &mut failures)?;
    lap("layering", &mut timings, &mut timer);

    Ok(SelfTestReport { failures, timings })
}

/// One expected finding: line, lint, and an optional required message
/// substring (`#~ ERROR <lint>[: <substring>]`).
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
