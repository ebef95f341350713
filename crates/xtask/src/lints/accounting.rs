//! **accounting** — raw page I/O only inside accounting wrappers.
//!
//! The reproduced numbers of the paper are page-access counts: a filter
//! call's `ScanStats.pages` is the per-thread tally `PagedFile::read` bumps
//! (`setsig_pagestore::count_reads`), while the disk records what actually
//! reached it (fewer, under a buffer pool). Both only stay trustworthy if
//! every page moves through the accounting substrate — a read that skipped
//! `PagedFile::read` would go uncharged. This lint therefore forbids
//! calling `read_page` / `write_page` anywhere except the allowlisted
//! wrappers in `crates/pagestore` (the `Disk` itself, the `BufferPool`
//! cache, and the `PagedFile` handle everything else is built on).
//!
//! Test modules and integration tests are exempt — asserting on
//! raw counters is exactly what they are for.

use crate::workspace::{Allowlist, FileClass, SourceFile, Workspace};
use crate::{Diagnostic, Lint};

/// The raw I/O entry points being guarded.
const RAW_IO: [&str; 2] = ["read_page", "write_page"];

/// Runs the lint over every library/binary source file.
pub fn run(ws: &Workspace, allow: &Allowlist) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in &ws.files {
        if file.class == FileClass::Test {
            continue;
        }
        out.extend(check_file(file, allow));
    }
    out
}

/// Checks one file against the allowlist.
pub fn check_file(file: &SourceFile, allow: &Allowlist) -> Vec<Diagnostic> {
    let toks = &file.scanned.toks;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if file.test_mask[i] || !RAW_IO.iter().any(|m| t.is_ident(m)) {
            continue;
        }
        // Must be a call: `.read_page(` or `Path::read_page(`.
        let called = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
        let via_dot = i >= 1 && toks[i - 1].is_punct('.');
        let via_path = i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':');
        if !called || !(via_dot || via_path) {
            continue; // A definition (`fn read_page`) or a bare mention.
        }
        if allow.permits(&file.rel, file.fn_ctx[i].as_deref()) {
            continue;
        }
        out.push(Diagnostic {
            file: file.rel.clone(),
            line: t.line,
            lint: Lint::Accounting,
            msg: format!(
                "raw page I/O `{}` outside an accounting wrapper; route it \
                 through `PagedFile` so disk counters and the page \
                 tally stay exact, or justify the site in \
                 crates/xtask/allow/accounting.allow",
                t.text
            ),
        });
    }
    out
}
