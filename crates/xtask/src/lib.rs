//! # xtask — project-specific static analysis for the setsig workspace
//!
//! `cargo xtask analyze` runs one offline, hand-rolled lint over the
//! workspace manifests — the invariant only this project can state and no
//! type can hold: the crate DAG. Everything rustc or clippy can check on
//! the real AST (`unsafe`, panics, discarded `Result`s, dead code) lives in
//! the `[workspace.lints]` table of the root `Cargo.toml` instead; what a
//! running program can count — allocations per page and per candidate on
//! the scan, probe and resolve paths — is counted, in the root package's
//! `tests/hot_path.rs`; and the two page-path invariants are held by the
//! `setsig-pagestore` types themselves: the store counts every page it
//! serves (a `Disk` read or a `BufferPool` hit), so no read can skip the
//! tally, and the pool's lock lives in a frame table with no disk handle,
//! so no guard spans a disk call.
//!
//! **layering** — crate dependencies (the manifests' `[dependencies]`
//! edges; cargo then refuses any `setsig_*` reference without one) must
//! follow the workspace DAG: the storage layers (`pagestore`, `core`) can
//! never reach up into the harness layers (`experiments`, `workload`), and
//! pure-math crates (`costmodel`, `workload`) stay dependency-free. Every
//! member must also opt into the workspace lint table, so no crate escapes
//! the compiler-held invariants.
//!
//! The fixture corpus under `crates/xtask/fixtures/` pins down exactly what
//! the lint accepts and rejects (`cargo xtask analyze --self-test`). The
//! token scanner ([`scan`]) serves the token tests of
//! `tests/lint_gate.rs` (the lock inventory, no tree set in the engine).

pub mod lints;
pub mod scan;
pub mod selftest;
pub mod workspace;

use std::fmt;
use std::path::Path;

/// Which lint produced a [`Diagnostic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lint {
    /// A dependency edge that violates the workspace DAG, or a member
    /// outside the workspace lint table.
    Layering,
}

impl Lint {
    /// Every lint, in the order `analyze` runs and reports them.
    pub const ALL: [Lint; 1] = [Lint::Layering];

    /// Stable kebab-case name, used in output and fixture markers.
    pub fn name(self) -> &'static str {
        match self {
            Lint::Layering => "layering",
        }
    }

    /// Parses a fixture-marker name (`#~ ERROR <name>`).
    pub fn from_name(s: &str) -> Option<Self> {
        Lint::ALL.into_iter().find(|l| l.name() == s)
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding: a file, a line, the lint that fired, and an actionable
/// message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// The lint that fired.
    pub lint: Lint,
    /// What is wrong and how to fix it.
    pub msg: String,
}

impl Diagnostic {
    /// The finding as one JSON object (`--format json` output; keys
    /// `file`, `line`, `lint`, `msg`).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"file\":{},\"line\":{},\"lint\":{},\"msg\":{}}}",
            json_string(&self.file),
            self.line,
            json_string(self.lint.name()),
            json_string(&self.msg),
        )
    }
}

/// Minimal JSON string encoder (the analyzer stays zero-dependency).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.msg
        )
    }
}

/// Runs every lint over the workspace rooted at `root` and returns the
/// findings sorted by file, line, lint.
pub fn analyze(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let ws = workspace::Workspace::load(root)?;
    let mut diags = lints::layering::run(&ws)?;
    diags.sort_by(|a, b| (&a.file, a.line, a.lint, &a.msg).cmp(&(&b.file, b.line, b.lint, &b.msg)));
    Ok(diags)
}
