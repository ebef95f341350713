//! Workspace discovery: which files exist, what role each plays, and the
//! allowlists that carve out justified exceptions.

use std::cell::Cell;
use std::fs;
use std::path::{Path, PathBuf};

use crate::scan::{self, Scanned};

/// The role a source file plays, which decides which lints apply to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library and binary code (`crates/<c>/src/**`, root `src/**`): all
    /// lints.
    Lib,
    /// Integration tests / examples: exempt from every lint —
    /// asserting on raw counters and allocating freely is what they are
    /// for.
    Test,
}

/// One scanned source file.
///
/// Each file is read and tokenized exactly once, at workspace load; the
/// token stream plus the derived per-token test mask and function context
/// are shared by every lint, so adding a lint never adds a filesystem
/// pass.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// Which lints apply.
    pub class: FileClass,
    /// `Some(<dir name>)` for files under `crates/<dir>/…`, `None` for the
    /// root facade package.
    pub crate_dir: Option<String>,
    /// Token/comment scan of the file.
    pub scanned: Scanned,
    /// Parallel to `scanned.toks`: `true` for tokens inside test-gated
    /// items (see [`scan::test_mask`]).
    pub test_mask: Vec<bool>,
    /// Parallel to `scanned.toks`: the innermost enclosing named `fn`
    /// (see [`scan::fn_context`]).
    pub fn_ctx: Vec<Option<String>>,
}

impl SourceFile {
    /// Scans `text` once and precomputes the shared per-token views.
    pub fn new(rel: String, class: FileClass, crate_dir: Option<String>, text: &str) -> Self {
        let scanned = scan::scan(text);
        let test_mask = scan::test_mask(&scanned.toks);
        let fn_ctx = scan::fn_context(&scanned.toks);
        SourceFile {
            rel,
            class,
            crate_dir,
            scanned,
            test_mask,
            fn_ctx,
        }
    }
}

/// The loaded workspace: every source file plus the allowlists.
pub struct Workspace {
    /// Absolute workspace root.
    pub root: PathBuf,
    /// All scanned source files, sorted by path.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Walks and scans the workspace rooted at `root`.
    ///
    /// Covered: `crates/*/{src,tests}`, root `src/`, `tests/`,
    /// `examples/`. Excluded: `target/`, `vendor/` (offline stand-ins for
    /// crates.io dependencies) and `crates/xtask/fixtures/` (the lint
    /// corpus, which *must* contain violations).
    pub fn load(root: &Path) -> Result<Self, String> {
        let mut files = Vec::new();
        let crates_dir = root.join("crates");
        if let Ok(entries) = fs::read_dir(&crates_dir) {
            let mut dirs: Vec<PathBuf> = entries
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.is_dir())
                .collect();
            dirs.sort();
            for dir in dirs {
                let name = match dir.file_name().and_then(|n| n.to_str()) {
                    Some(n) => n.to_string(),
                    None => continue,
                };
                let krate = Some(name);
                let (src, tests) = (dir.join("src"), dir.join("tests"));
                collect_dir(root, &src, &mut files, FileClass::Lib, &krate)?;
                collect_dir(root, &tests, &mut files, FileClass::Test, &krate)?;
            }
        }
        collect_dir(root, &root.join("src"), &mut files, FileClass::Lib, &None)?;
        for sub in ["tests", "examples"] {
            collect_dir(root, &root.join(sub), &mut files, FileClass::Test, &None)?;
        }
        files.sort_by(|a, b| a.rel.cmp(&b.rel));
        Ok(Workspace {
            root: root.to_path_buf(),
            files,
        })
    }

    /// Loads the allowlist at `crates/xtask/allow/<name>`, or an empty one
    /// if the file does not exist.
    pub fn allowlist(&self, name: &str) -> Result<Allowlist, String> {
        let path = self.root.join("crates/xtask/allow").join(name);
        if !path.exists() {
            return Ok(Allowlist::default());
        }
        let text =
            fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        Ok(Allowlist::parse(&text))
    }
}

fn collect_dir(
    root: &Path,
    dir: &Path,
    out: &mut Vec<SourceFile>,
    class: FileClass,
    crate_dir: &Option<String>,
) -> Result<(), String> {
    if !dir.is_dir() {
        return Ok(());
    }
    let entries = fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            // Never descend into the fixture corpus.
            if path.file_name().and_then(|n| n.to_str()) == Some("fixtures") {
                continue;
            }
            collect_dir(root, &path, out, class, crate_dir)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            let rel = rel_path(root, &path)?;
            let text = fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            out.push(SourceFile::new(rel, class, crate_dir.clone(), &text));
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> Result<String, String> {
    let rel = path
        .strip_prefix(root)
        .map_err(|_| format!("{} outside workspace root", path.display()))?;
    Ok(rel.to_string_lossy().replace('\\', "/"))
}

/// One allowlist entry: a whole file, or one function within a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Workspace-relative file path.
    pub path: String,
    /// `Some(fn_name)` restricts the entry to one function.
    pub func: Option<String>,
    /// 1-based line of the entry in its `.allow` file.
    pub line: u32,
    /// Set when the entry suppressed (or would suppress) a real finding
    /// during an analyze run; entries still `false` afterwards are stale.
    used: Cell<bool>,
}

impl AllowEntry {
    /// The entry as written (`path` or `path::func`).
    pub fn display(&self) -> String {
        match &self.func {
            Some(f) => format!("{}::{f}", self.path),
            None => self.path.clone(),
        }
    }

    /// True if the entry matched a site during the current run.
    pub fn is_used(&self) -> bool {
        self.used.get()
    }
}

/// A parsed allowlist (`crates/xtask/allow/*.allow`).
///
/// Format: one entry per line — `path/to/file.rs` (whole file) or
/// `path/to/file.rs::function_name`. Blank lines and `#` comments are
/// ignored; the convention is that every entry (or block of entries) carries
/// a `#` comment justifying it.
///
/// Every [`Allowlist::permits`] hit marks the matching entries as used;
/// the `stale-allow` lint reports entries that matched nothing, so
/// suppressions cannot outlive the site they were written for.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parses allowlist text.
    pub fn parse(text: &str) -> Self {
        let entries = text
            .lines()
            .enumerate()
            .map(|(idx, l)| (idx as u32 + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
            .map(|(line, l)| match l.split_once("::") {
                Some((path, func)) => AllowEntry {
                    path: path.trim().to_string(),
                    func: Some(func.trim().to_string()),
                    line,
                    used: Cell::new(false),
                },
                None => AllowEntry {
                    path: l.to_string(),
                    func: None,
                    line,
                    used: Cell::new(false),
                },
            })
            .collect();
        Allowlist { entries }
    }

    /// True if `file` (optionally within function `func`) is allowlisted.
    /// Marks every matching entry as used.
    pub fn permits(&self, file: &str, func: Option<&str>) -> bool {
        let mut hit = false;
        for e in &self.entries {
            let matches = e.path == file
                && match (&e.func, func) {
                    (None, _) => true,
                    (Some(want), Some(have)) => want == have,
                    (Some(_), None) => false,
                };
            if matches {
                e.used.set(true);
                hit = true;
            }
        }
        hit
    }

    /// All entries, in file order (with their usage flags).
    pub fn entries(&self) -> &[AllowEntry] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowlist_parses_and_matches() {
        let a = Allowlist::parse(
            "# reason\ncrates/a/src/x.rs\n\n# another\ncrates/b/src/y.rs::helper\n",
        );
        assert!(a.permits("crates/a/src/x.rs", None));
        assert!(a.permits("crates/a/src/x.rs", Some("anything")));
        assert!(a.permits("crates/b/src/y.rs", Some("helper")));
        assert!(!a.permits("crates/b/src/y.rs", Some("other")));
        assert!(!a.permits("crates/b/src/y.rs", None));
        assert!(!a.permits("crates/c/src/z.rs", None));
    }

    #[test]
    fn permits_marks_entries_used() {
        let a = Allowlist::parse("# reason\ncrates/a/src/x.rs\ncrates/b/src/y.rs::helper\n");
        assert!(a.permits("crates/a/src/x.rs", Some("any")));
        let flags: Vec<(u32, bool)> = a.entries().iter().map(|e| (e.line, e.is_used())).collect();
        assert_eq!(flags, vec![(2, true), (3, false)]);
        assert_eq!(a.entries()[1].display(), "crates/b/src/y.rs::helper");
    }
}
