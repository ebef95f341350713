//! **stale-allow** — allowlist entries must still match a real site.
//!
//! The accounting lint calls [`crate::workspace::Allowlist::permits`]
//! for the sites it would otherwise report, and `permits` marks the
//! entries it matches.
//! After all lints have run, any entry still unused is a dangling
//! suppression: the code it was written for moved or was fixed, and the
//! entry would now silently excuse a *future* violation at that path.
//! Diagnostics point at the `.allow` file and line so the fix is a
//! one-line deletion.

use crate::workspace::Allowlist;
use crate::{Diagnostic, Lint};

/// Reports every unused entry of the allowlist at `path`. Must run after
/// every other lint, since earlier lints set the usage flags.
pub fn check(path: &str, list: &Allowlist) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for e in list.entries() {
        if !e.is_used() {
            out.push(Diagnostic {
                file: path.to_string(),
                line: e.line,
                lint: Lint::StaleAllow,
                msg: format!(
                    "stale allowlist entry `{}` matched no site this run; \
                     delete it (suppressions must not outlive the code they \
                     excuse)",
                    e.display()
                ),
            });
        }
    }
    out
}
