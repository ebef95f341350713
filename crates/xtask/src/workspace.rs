//! Workspace discovery: which files exist and what role each plays.

use std::fs;
use std::path::{Path, PathBuf};

use crate::scan::{self, Scanned};

/// The role a source file plays, which decides which token checks apply
/// to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library and binary code (`crates/<c>/src/**`, root `src/**`): every
    /// check.
    Lib,
    /// Integration tests / examples: exempt from every check — asserting
    /// on raw counters and allocating freely is what they are for.
    Test,
}

/// One scanned source file.
///
/// Each file is read and tokenized exactly once, at workspace load; the
/// token stream and the derived per-token test mask are shared by every
/// check, so adding one never adds a filesystem pass.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// Which checks apply.
    pub class: FileClass,
    /// `Some(<dir name>)` for files under `crates/<dir>/…`, `None` for the
    /// root facade package.
    pub crate_dir: Option<String>,
    /// Token/comment scan of the file.
    pub scanned: Scanned,
    /// Parallel to `scanned.toks`: `true` for tokens inside test-gated
    /// items (see [`scan::test_mask`]).
    pub test_mask: Vec<bool>,
}

impl SourceFile {
    /// Scans `text` once and precomputes the shared per-token views.
    pub fn new(rel: String, class: FileClass, crate_dir: Option<String>, text: &str) -> Self {
        let scanned = scan::scan(text);
        let test_mask = scan::test_mask(&scanned.toks);
        SourceFile {
            rel,
            class,
            crate_dir,
            scanned,
            test_mask,
        }
    }
}

/// The loaded workspace: every source file.
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
