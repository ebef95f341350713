//! **layering** — the dependency DAG is part of the reproduction's claims.
//!
//! The storage substrate (`pagestore`) and the access facilities (`core`,
//! `nix`) must never reach up into the measurement harness (`experiments`,
//! `workload`): if they could, build or query code could consult
//! workload knowledge and quietly break the paper's protocol. Likewise the
//! analytic crates (`costmodel`, `workload`) stay free of storage
//! dependencies, so the model and the measurement cannot contaminate each
//! other. The observability crate (`obs`) depends on nothing, and the
//! facilities (`core`, `nix`) do not see it: a filter call returns its
//! facts, and the trace is built by the harness that also resolves the
//! drops, so tracing can never alter what a scan reads.
//!
//! Enforced on both levels:
//! * **manifest edges** — `[dependencies]` in each `crates/*/Cargo.toml`
//!   (dev-dependencies are test-only and exempt), and
//! * **source references** — `setsig_*` identifiers in library/binary code.
//!
//! A crate directory missing from `ALLOWED_DEPS` is itself a violation:
//! adding a crate means consciously placing it in the DAG. So is a member
//! manifest (the root package included) without `[lints] workspace = true`:
//! the `unsafe` / panic / discarded-`Result` / dead-code invariants live in
//! the root `[workspace.lints]` table, and a crate that does not opt in
//! silently escapes all of them.

use std::fs;

use crate::workspace::{FileClass, SourceFile, Workspace};
use crate::{Diagnostic, Lint};

/// The workspace DAG: crate dir → setsig crates it may depend on.
///
/// Order follows the build layering, bottom to top.
const ALLOWED_DEPS: [(&str, &[&str]); 10] = [
    ("pagestore", &[]),
    ("obs", &[]),
    ("core", &["pagestore"]),
    ("nix", &["pagestore", "core"]),
    ("oodb", &["pagestore", "core"]),
    ("costmodel", &[]),
    ("workload", &[]),
    ("service", &["pagestore", "core"]),
    (
        "experiments",
        &[
            "pagestore",
            "obs",
            "core",
            "nix",
            "oodb",
            "costmodel",
            "workload",
            "service",
        ],
    ),
    ("xtask", &[]),
];

fn allowed_for(crate_dir: &str) -> Option<&'static [&'static str]> {
    ALLOWED_DEPS
        .iter()
        .find(|(name, _)| *name == crate_dir)
        .map(|(_, deps)| *deps)
}

/// Runs both the manifest and the source check.
pub fn run(ws: &Workspace) -> Result<Vec<Diagnostic>, String> {
    let mut out = Vec::new();
    out.extend(check_manifests(ws)?);
    for file in &ws.files {
        if file.class == FileClass::Test {
            continue;
        }
        // The root facade re-exports everything by design.
        let Some(crate_dir) = file.crate_dir.as_deref() else {
            continue;
        };
        out.extend(check_source(file, crate_dir));
    }
    Ok(out)
}

/// The finding for a member manifest outside the workspace lint table.
fn missing_lints_table(manifest_rel: &str, text: &str) -> Option<Diagnostic> {
    let mut in_lints = false;
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.replace(' ', "") == "workspace=true" {
            return None;
        }
    }
    Some(Diagnostic {
        file: manifest_rel.to_string(),
        line: 1,
        lint: Lint::Layering,
        msg: "member does not opt into the workspace lint table; add `[lints]` / \
              `workspace = true` to its manifest so the compiler-held invariants \
              (unsafe_code, unused_must_use, dead_code, the clippy panic lints) apply"
            .to_string(),
    })
}

/// Manifest edges vs. the DAG, and every member inside the lint table.
pub fn check_manifests(ws: &Workspace) -> Result<Vec<Diagnostic>, String> {
    let crates_dir = ws.root.join("crates");
    let mut out = Vec::new();
    // The root manifest is a member too when it declares a package.
    if let Ok(text) = fs::read_to_string(ws.root.join("Cargo.toml")) {
        if text.lines().any(|l| l.trim() == "[package]") {
            out.extend(missing_lints_table("Cargo.toml", &text));
        }
    }
    let Ok(entries) = fs::read_dir(&crates_dir) else {
        return Ok(out);
    };
    let mut dirs: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir() && p.join("Cargo.toml").exists())
        .collect();
    dirs.sort();
    for dir in dirs {
        let Some(name) = dir.file_name().and_then(|n| n.to_str()).map(String::from) else {
            continue;
        };
        let manifest_rel = format!("crates/{name}/Cargo.toml");
        let text = fs::read_to_string(dir.join("Cargo.toml"))
            .map_err(|e| format!("reading {manifest_rel}: {e}"))?;
        out.extend(missing_lints_table(&manifest_rel, &text));
        let Some(allowed) = allowed_for(&name) else {
            out.push(Diagnostic {
                file: manifest_rel,
                line: 1,
                lint: Lint::Layering,
                msg: format!(
                    "crate `{name}` is not registered in the workspace DAG; \
                     add it to ALLOWED_DEPS in \
                     crates/xtask/src/lints/layering.rs with a deliberate \
                     dependency set"
                ),
            });
            continue;
        };
        for (line_no, dep) in manifest_deps(&text) {
            if !allowed.contains(&dep.as_str()) {
                out.push(Diagnostic {
                    file: manifest_rel.clone(),
                    line: line_no,
                    lint: Lint::Layering,
                    msg: format!(
                        "`{name}` may not depend on `setsig-{dep}` \
                         (allowed: {allowed:?}); this edge breaks the \
                         workspace layering"
                    ),
                });
            }
        }
    }
    Ok(out)
}

/// `(line, short name)` of every `setsig-*` entry in `[dependencies]`
/// (dev-dependencies are exempt: test-only).
fn manifest_deps(manifest: &str) -> Vec<(u32, String)> {
    let mut in_deps = false;
    let mut out = Vec::new();
    for (idx, raw) in manifest.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
            continue;
        }
        if !in_deps {
            continue;
        }
        let Some(name) = line.split(['=', '.', ' ']).next() else {
            continue;
        };
        if let Some(short) = name.strip_prefix("setsig-") {
            out.push((idx as u32 + 1, short.to_string()));
        }
    }
    out
}

/// `setsig_*` identifier references vs. the DAG.
pub fn check_source(file: &SourceFile, crate_dir: &str) -> Vec<Diagnostic> {
    let Some(allowed) = allowed_for(crate_dir) else {
        return Vec::new(); // The manifest check reports unknown crates once.
    };
    let mut out = Vec::new();
    for t in &file.scanned.toks {
        let Some(short) = t.text.strip_prefix("setsig_") else {
            continue;
        };
        if t.kind != crate::scan::TokKind::Ident {
            continue;
        }
        if short == crate_dir || allowed.contains(&short) {
            continue;
        }
        out.push(Diagnostic {
            file: file.rel.clone(),
            line: t.line,
            lint: Lint::Layering,
            msg: format!(
                "`{crate_dir}` references `setsig_{short}` but may only use \
                 {allowed:?}; this reference breaks the workspace layering"
            ),
        });
    }
    out
}
