//! hot-path-hygiene: annotated scan kernels must stay allocation-, lock-,
//! raw-I/O- and blocking-free, **transitively** through the workspace
//! call graph.
//!
//! # Annotation grammar
//!
//! A comment on the line of a `fn` (or within the three lines above it):
//!
//! ```text
//! HOT-PATH: <name>
//! HOT-PATH-BOUNDARY: <reason>
//! ```
//!
//! (written as a `//` comment; `<name>` matches `[A-Za-z0-9_.-]+`, the
//! convention is `crate.path`, e.g. `bssf.and_loop`).
//!
//! `HOT-PATH:` marks the fn as a hot-path **root**. The lint is a query
//! against the [`crate::effects`] inference: the root's reachable set
//! (over trusted call edges) must carry none of `ALLOC`, `LOCK`, `RAW_IO`
//! or `BLOCK` — the primitive tables live in `effects.rs` and include
//! `Vec::with_capacity` and `.collect()`, so pre-sizing *inside* the
//! kernel counts and must be hoisted to setup code. `BLOCK` (condvar
//! waits, `join`/`recv`, `thread::sleep`) is what keeps a query-service
//! worker from parking mid-task: the pool's throughput argument
//! (DESIGN.md §8) assumes a worker that picked up a task runs it to
//! completion, so one slow shard cannot stall the pool. Every finding is
//! reported with its shortest **witness chain**, `root (file:line) → hop
//! (call file:line) → … → `primitive` (file:line)`.
//!
//! `HOT-PATH-BOUNDARY:` marks a fn where traversal **stops**: its own
//! body is still checked, but its callees are not followed. This is the
//! pressure valve for dispatch points whose fan-out is intentionally not
//! hot-path-clean (the shard router's `query_shard` dispatches into whole
//! engines that take the per-shard `RwLock` by design); the mandatory
//! `<reason>` keeps the exemption reviewable.
//!
//! Justified violations live in `allow/hotpath.allow`, keyed by the
//! **sink** fn (one `file.rs::fn` entry covers every finding inside that
//! fn, on every hot path that reaches it). Raw I/O inside the accounting
//! seam (fns permitted by `allow/accounting.allow`) is sanctioned.
//!
//! # Blind spots (deliberate, see DESIGN.md §9–10)
//!
//! Calls that resolve to nothing (std, vendored deps) are not traversed;
//! allocation is matched by the exact token tables in `effects.rs`.

use std::collections::HashSet;

use crate::callgraph::CallGraph;
use crate::effects::{self, Effect, EffectGraph, EffectSet, Traversal};
use crate::workspace::{Allowlist, FileClass, SourceFile};
use crate::{Diagnostic, Lint};

/// The root annotation marker.
pub const ANNOTATION: &str = "HOT-PATH:";

/// The traversal-boundary annotation marker.
pub const BOUNDARY_ANNOTATION: &str = "HOT-PATH-BOUNDARY:";

/// How many lines above the `fn` the annotation may sit.
pub const ANNOTATION_WINDOW: u32 = 3;

/// Runs the lint over the whole workspace (lib + bin code).
pub fn run(
    ws: &crate::workspace::Workspace,
    allow: &Allowlist,
    accounting: &Allowlist,
) -> Vec<Diagnostic> {
    let files: Vec<&SourceFile> = ws
        .files
        .iter()
        .filter(|f| f.class != FileClass::Test)
        .collect();
    check_files(&files, allow, accounting)
}

/// Fixture entry point: one file, its own mini call graph.
pub fn check_file(file: &SourceFile, allow: &Allowlist, accounting: &Allowlist) -> Vec<Diagnostic> {
    check_files(&[file], allow, accounting)
}

/// The annotation a comment carries, if any: `(is_boundary, payload)`.
///
/// Only plain `//` / `/* */` comments *leading* with the marker count:
/// doc comments (`///`, `//!`) are prose, so module docs (like this one's)
/// can quote the grammar without becoming an annotation.
fn annotation_of(text: &str) -> Option<(bool, &str)> {
    let t = text.trim_start();
    let t = t.strip_prefix("//").or_else(|| t.strip_prefix("/*"))?;
    if t.starts_with(['/', '!']) {
        return None; // doc comment
    }
    let t = t.trim_start_matches('*').trim_start();
    let (boundary, rest) = if let Some(r) = t.strip_prefix(BOUNDARY_ANNOTATION) {
        (true, r)
    } else if let Some(r) = t.strip_prefix(ANNOTATION) {
        (false, r)
    } else {
        return None;
    };
    let payload = rest
        .lines()
        .next()
        .unwrap_or("")
        .trim_end_matches("*/")
        .trim();
    Some((boundary, payload))
}

fn valid_path_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The hot-path annotations over a call graph: named roots (in definition
/// order), boundary fns, and malformed-annotation diagnostics.
pub struct Annotations {
    /// `(fn id, hot-path name)` per root annotation.
    pub roots: Vec<(usize, String)>,
    /// Fns marked `HOT-PATH-BOUNDARY:` with a reason.
    pub boundaries: HashSet<usize>,
    /// Malformed / orphaned annotation findings.
    pub malformed: Vec<Diagnostic>,
}

/// Attaches annotations to fn definitions (nearest comment in the
/// window, the lock-registry idiom) and reports every malformed shape.
pub fn collect_annotations(graph: &CallGraph<'_>) -> Annotations {
    let mut out = Annotations {
        roots: Vec::new(),
        boundaries: HashSet::new(),
        malformed: Vec::new(),
    };
    let mut consumed: HashSet<(usize, u32)> = HashSet::new();
    for (fid, def) in graph.fns.iter().enumerate() {
        let file = graph.files[def.file];
        let from = def.line.saturating_sub(ANNOTATION_WINDOW);
        let Some((cline, (is_boundary, payload))) = file
            .scanned
            .comments
            .iter()
            .rev()
            .filter(|(l, _)| *l >= from && *l <= def.line)
            .find_map(|(l, t)| annotation_of(t).map(|a| (*l, a)))
        else {
            continue;
        };
        consumed.insert((def.file, cline));
        if is_boundary {
            if payload.is_empty() {
                out.malformed.push(diag(
                    file,
                    cline,
                    "malformed: HOT-PATH-BOUNDARY gives no reason; write \
                     `// HOT-PATH-BOUNDARY: <why callees are exempt>`"
                        .to_string(),
                ));
            } else {
                out.boundaries.insert(fid);
            }
            continue;
        }
        let mut words = payload.split_whitespace();
        let Some(name) = words.next() else {
            out.malformed.push(diag(
                file,
                cline,
                "malformed: HOT-PATH annotation names no path (grammar: HOT-PATH: <name>)"
                    .to_string(),
            ));
            continue;
        };
        if !valid_path_name(name) {
            out.malformed.push(diag(
                file,
                cline,
                format!("malformed: hot-path name `{name}` has characters outside [A-Za-z0-9_.-]"),
            ));
            continue;
        }
        if let Some(extra) = words.next() {
            out.malformed.push(diag(
                file,
                cline,
                format!("malformed: unexpected token `{extra}` (grammar: HOT-PATH: <name>)"),
            ));
            continue;
        }
        out.roots.push((fid, name.to_string()));
    }

    // An annotation no fn claimed is a typo waiting to silently disable
    // the gate — report it.
    for (fi, file) in graph.files.iter().enumerate() {
        for (l, text) in &file.scanned.comments {
            if annotation_of(text).is_some() && !consumed.contains(&(fi, *l)) {
                out.malformed.push(diag(
                    file,
                    *l,
                    format!(
                        "malformed: hot-path annotation attaches to no fn \
                         (nearest `fn` must start within {ANNOTATION_WINDOW} lines below)"
                    ),
                ));
            }
        }
    }
    out
}

/// Core: build the effect graph, then query each root's reachable set
/// for `ALLOC` / `LOCK` / `RAW_IO` / `BLOCK` findings.
pub fn check_files(
    files: &[&SourceFile],
    allow: &Allowlist,
    accounting: &Allowlist,
) -> Vec<Diagnostic> {
    let eg = EffectGraph::build(files);
    let ann = collect_annotations(&eg.graph);
    let mut diags = ann.malformed.clone();

    let want = EffectSet::of(&[Effect::Alloc, Effect::Lock, Effect::RawIo, Effect::Block]);
    let root_ids: HashSet<usize> = ann.roots.iter().map(|(fid, _)| *fid).collect();
    // Site-level dedup: a fn reachable from two roots reports each
    // violation once (under the first root in annotation order).
    let mut seen_sites: HashSet<(usize, u32, String)> = HashSet::new();

    for (root_fid, root_name) in &ann.roots {
        // Another root is its own traversal; don't re-walk it under this
        // one's name.
        let skip: HashSet<usize> = root_ids.iter().copied().filter(|f| f != root_fid).collect();
        let tr = Traversal {
            boundaries: ann.boundaries.clone(),
            skip,
        };
        for finding in effects::reach(&eg, *root_fid, want, &tr) {
            let sink = &eg.graph.fns[finding.fid];
            let sink_file = eg.graph.files[sink.file];
            if allow.permits(&sink_file.rel, Some(&sink.name)) {
                continue;
            }
            // The accounting seam (pool/disk wrappers) is the one place
            // raw I/O belongs; everything it permits, we permit.
            if finding.effect == Effect::RawIo
                && accounting.permits(&sink_file.rel, Some(&sink.name))
            {
                continue;
            }
            let key = (
                sink.file,
                finding.line,
                format!("{:?}:{}", finding.effect, finding.what),
            );
            if !seen_sites.insert(key) {
                continue;
            }
            let w = effects::witness(&eg, *root_fid, &finding);
            let msg = match finding.effect {
                Effect::Alloc => format!(
                    "alloc-in-hot-path: `{}` on hot path `{root_name}`: {w}; hoist the \
                     buffer out of the kernel or justify in crates/xtask/allow/hotpath.allow",
                    finding.what
                ),
                Effect::Lock => format!(
                    "lock-in-hot-path: `{}` on hot path `{root_name}`: {w}; hot kernels \
                     must run lock-free — move the acquisition outside or justify in \
                     crates/xtask/allow/hotpath.allow",
                    finding.what
                ),
                Effect::RawIo => format!(
                    "io-in-hot-path: raw `{}` on hot path `{root_name}` bypasses the \
                     accounting seam: {w}; go through the buffer pool or justify in \
                     crates/xtask/allow/hotpath.allow",
                    finding.what
                ),
                Effect::Block => format!(
                    "block-in-hot-path: `{}` parks the thread on hot path `{root_name}`: \
                     {w}; one slow callee must not stall the kernel (or the worker \
                     running it) — make the path non-blocking or justify in \
                     crates/xtask/allow/hotpath.allow",
                    finding.what
                ),
            };
            diags.push(diag(sink_file, finding.line, msg));
        }
    }
    diags
}

fn diag(file: &SourceFile, line: u32, msg: String) -> Diagnostic {
    Diagnostic {
        file: file.rel.clone(),
        line,
        lint: Lint::HotPath,
        msg,
    }
}
