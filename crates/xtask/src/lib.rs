//! # xtask — project-specific static analysis for the setsig workspace
//!
//! `cargo xtask analyze` runs four offline, hand-rolled lints over the
//! workspace source (token-level scanner, no network, no rustc plumbing).
//! They are the invariants only this project can state — page accounting,
//! the crate DAG, no lock held across page I/O. Everything rustc or clippy
//! can check on the real AST (`unsafe`, panics, discarded `Result`s, dead
//! code) lives in the `[workspace.lints]` table of the root `Cargo.toml`
//! instead, and what a running program can count — allocations per page
//! and per candidate on the scan, probe and resolve paths — is counted, in
//! the root package's `tests/hot_path.rs`:
//!
//! 1. **accounting** — raw page I/O (`read_page` / `write_page`) may only be
//!    called from the allowlisted accounting wrappers inside
//!    `crates/pagestore`, so no code path can bypass the disk counters or
//!    the engines' [`ScanStats`] discipline and silently corrupt the
//!    reproduced page-access numbers.
//! 2. **layering** — crate dependencies (manifest edges *and* `setsig_*`
//!    source references) must follow the workspace DAG: the storage layers
//!    (`pagestore`, `core`) can never reach up into the harness layers
//!    (`experiments`, `workload`), and pure-math crates
//!    (`costmodel`, `workload`) stay dependency-free. Every member must
//!    also opt into the workspace lint table, so no crate escapes the
//!    compiler-held invariants.
//! 3. **guard-across-io** — no lock guard may be live across a
//!    `read_page`/`write_page`/`flush`/`sync` call; the pool comment's
//!    promise, enforced.
//! 4. **stale-allow** — every `crates/xtask/allow/accounting.allow` entry
//!    must still match a real site; dangling suppressions fail the run.
//!
//! The analyzer is deliberately syntactic: it trades soundness-in-general
//! for zero dependencies and total transparency. Each lint is a small token
//! pattern (accounting's with an explicit allowlist), and the fixture
//! corpus under `crates/xtask/fixtures/` pins down exactly what each one
//! accepts and rejects (`cargo xtask analyze --self-test`).
//!
//! [`ScanStats`]: https://docs.rs/setsig-core

pub mod lints;
pub mod scan;
pub mod selftest;
pub mod workspace;

use std::fmt;
use std::path::Path;

/// Which lint produced a [`Diagnostic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lint {
    /// Raw page I/O outside an accounting wrapper.
    Accounting,
    /// A dependency edge that violates the workspace DAG, or a member
    /// outside the workspace lint table.
    Layering,
    /// A lock guard live across a page-I/O call.
    GuardAcrossIo,
    /// An allowlist entry that matched no site this run.
    StaleAllow,
}

impl Lint {
    /// Every lint, in the order `analyze` runs and reports them.
    pub const ALL: [Lint; 4] = [
        Lint::Accounting,
        Lint::Layering,
        Lint::GuardAcrossIo,
        Lint::StaleAllow,
    ];

    /// Stable kebab-case name, used in output and fixture markers.
    pub fn name(self) -> &'static str {
        match self {
            Lint::Accounting => "accounting",
            Lint::Layering => "layering",
            Lint::GuardAcrossIo => "guard-across-io",
            Lint::StaleAllow => "stale-allow",
        }
    }

    /// Parses a fixture-marker name (`//~ ERROR <name>`).
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
    // The allowlist loads once; `permits` marks entries as they match, and
    // the stale-allow pass at the end reports any that never did.
    let allow_accounting = ws.allowlist("accounting.allow")?;
    let mut diags = Vec::new();
    diags.extend(lints::accounting::run(&ws, &allow_accounting));
    diags.extend(lints::layering::run(&ws)?);
    diags.extend(lints::guard_across_io::run(&ws));
    diags.extend(lints::stale_allow::check(
        "crates/xtask/allow/accounting.allow",
        &allow_accounting,
    ));
    diags.sort_by(|a, b| (&a.file, a.line, a.lint, &a.msg).cmp(&(&b.file, b.line, b.lint, &b.msg)));
    Ok(diags)
}
