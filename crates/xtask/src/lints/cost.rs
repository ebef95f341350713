//! cost: static page-I/O cost contracts, checked against loop-nest
//! bounds inferred from the source (see [`crate::loopnest`]).
//!
//! The paper's central artifact is a closed-form page-access model
//! (`costmodel`): `rc_superset`, `rc_subset`, `sc_sig`… in pages. The
//! drift gate verifies it *dynamically* at a few checkpoints; this lint
//! verifies the *shape* statically: every scan entry point declares its
//! page cost as a symbolic bound, and the analyzer proves the I/O loop
//! nesting under it cannot exceed the bound's polynomial degree. A
//! refactor that accidentally nests a slice read inside an extra loop
//! (superlinear blow-up) fails `cargo xtask analyze` before any
//! benchmark runs.
//!
//! # Contract grammar
//!
//! A comment on the line of a `fn` (or within the three lines above it):
//!
//! ```text
//! COST: <expr> pages
//! ```
//!
//! (written as a `//` comment; `<expr>` is sums of products over integer
//! literals and named symbolic quantities — `1`, `sig_pages`,
//! `slices * pages_per_slice + oid_pages`, `probes * (height + chain)`.)
//!
//! The expression's **degree** (symbols multiplied per term, maximum
//! over terms) is what the static check enforces: the fn's deepest
//! inferred I/O loop nest must not exceed it. Contracts **compose** —
//! when a contracted fn calls another contracted fn, the callee
//! contributes its declared degree and traversal stops, so
//! `candidates_with_stats` (degree 2) absorbs `superset_positions`
//! (degree 2) called outside any loop.
//!
//! # Error classes
//!
//! * `malformed-contract` — unparsable expression, missing `pages` unit,
//!   or an annotation attached to no fn;
//! * `missing-contract` — a `// HOT-PATH:` root that reaches page I/O
//!   but declares no cost (the **root registry**: the hot-path names are
//!   the scan entry points — `ssf.row_scan`, `bssf.and_loop`,
//!   `nix.probe`, `pagestore.read`, `service.dispatch`; pure compute
//!   kernels have no I/O and owe no contract);
//! * `superlinear-io` — inferred nest depth exceeds the declared degree;
//! * `uncontracted-io` — a page-I/O site in a gated crate outside every
//!   contracted root's call tree, not entering a composite (degree ≥ 1)
//!   contract, and not justified in `allow/cost.allow`.
//!
//! The runtime half lives in `crates/experiments` (`contracts.rs`): each
//! committed contract is evaluated with the exhibit's actual `Params`
//! and measured `ScanStats` pages must stay at or below it.

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::callgraph::CallGraph;
use crate::lints::hot_path::{self, ANNOTATION_WINDOW};
use crate::loopnest::{self, Expr, IoAnalysis};
use crate::workspace::{Allowlist, FileClass, SourceFile};
use crate::{Diagnostic, Lint};

/// The contract annotation marker.
pub const ANNOTATION: &str = "COST:";

/// The committed baseline the `--check` mode diffs against.
pub const BASELINE_REL: &str = "crates/xtask/cost.baseline.json";

/// Crates whose page-I/O sites must sit under a contracted root. The
/// harness crates (`experiments`, `workload`, `bench`) measure rather
/// than serve queries and are exempt.
pub const GATED_CRATES: [&str; 4] = ["core", "nix", "pagestore", "service"];

/// One parsed `// COST:` contract.
#[derive(Debug, Clone)]
pub struct Contract {
    /// 1-based line of the annotation comment.
    pub line: u32,
    /// The parsed bound expression.
    pub expr: Expr,
    /// `expr.degree()`, cached.
    pub degree: u32,
}

/// The contracts over a call graph, plus malformed-shape diagnostics.
pub struct Contracts {
    /// Contracted fns (BTreeMap for deterministic iteration).
    pub by_fn: BTreeMap<usize, Contract>,
    /// Malformed / orphaned annotation findings.
    pub malformed: Vec<Diagnostic>,
}

/// The annotation a comment carries, if any. Same shape rules as the
/// hot-path marker: plain `//` / `/* */` comments leading with the
/// marker; doc comments are prose.
fn annotation_of(text: &str) -> Option<&str> {
    let t = text.trim_start();
    let t = t.strip_prefix("//").or_else(|| t.strip_prefix("/*"))?;
    if t.starts_with(['/', '!']) {
        return None; // doc comment
    }
    let t = t.trim_start_matches('*').trim_start();
    let rest = t.strip_prefix(ANNOTATION)?;
    Some(
        rest.lines()
            .next()
            .unwrap_or("")
            .trim_end_matches("*/")
            .trim(),
    )
}

/// Attaches contracts to fn definitions (nearest comment in the window,
/// the lock-registry idiom) and reports every malformed shape.
pub fn collect_contracts(graph: &CallGraph<'_>) -> Contracts {
    let mut out = Contracts {
        by_fn: BTreeMap::new(),
        malformed: Vec::new(),
    };
    let mut consumed: HashSet<(usize, u32)> = HashSet::new();
    for (fid, def) in graph.fns.iter().enumerate() {
        let file = graph.files[def.file];
        let from = def.line.saturating_sub(ANNOTATION_WINDOW);
        let Some((cline, payload)) = file
            .scanned
            .comments
            .iter()
            .rev()
            .filter(|(l, _)| *l >= from && *l <= def.line)
            .find_map(|(l, t)| annotation_of(t).map(|p| (*l, p)))
        else {
            continue;
        };
        consumed.insert((def.file, cline));
        let Some(expr_src) = payload.strip_suffix("pages").map(str::trim) else {
            out.malformed.push(diag(
                file,
                cline,
                format!(
                    "malformed-contract: `{payload}` does not end in the `pages` unit \
                     (grammar: `COST: <expr> pages`)"
                ),
            ));
            continue;
        };
        match loopnest::parse_expr(expr_src) {
            Ok(expr) => {
                let degree = expr.degree();
                out.by_fn.insert(
                    fid,
                    Contract {
                        line: cline,
                        expr,
                        degree,
                    },
                );
            }
            Err(e) => out.malformed.push(diag(
                file,
                cline,
                format!(
                    "malformed-contract: cannot parse bound `{expr_src}`: {e} \
                     (grammar: sums of products over integers and identifiers)"
                ),
            )),
        }
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
                        "malformed-contract: cost annotation attaches to no fn \
                         (nearest `fn` must start within {ANNOTATION_WINDOW} lines below)"
                    ),
                ));
            }
        }
    }
    out
}

/// Runs the lint over the whole workspace (lib + bin code).
pub fn run(ws: &crate::workspace::Workspace, allow: &Allowlist) -> Vec<Diagnostic> {
    let files: Vec<&SourceFile> = ws
        .files
        .iter()
        .filter(|f| f.class != FileClass::Test)
        .collect();
    check_files(&files, allow, &GATED_CRATES)
}

/// Fixture entry point: one file, its own mini call graph, its pretend
/// crate gated.
pub fn check_file(file: &SourceFile, allow: &Allowlist) -> Vec<Diagnostic> {
    check_files(&[file], allow, &["experiments"])
}

/// Core: collect contracts, run the loop-nest analysis, apply the four
/// rules.
pub fn check_files(files: &[&SourceFile], allow: &Allowlist, gated: &[&str]) -> Vec<Diagnostic> {
    let graph = CallGraph::build(files);
    let contracts = collect_contracts(&graph);
    let mut diags = contracts.malformed.clone();
    let degrees: HashMap<usize, u32> = contracts
        .by_fn
        .iter()
        .map(|(fid, c)| (*fid, c.degree))
        .collect();
    let an = loopnest::analyze(&graph, &degrees);

    // missing-contract: the root registry is the hot-path annotation set —
    // every root that reaches page I/O owes a declared bound. (The
    // malformed hot-path shapes are hot-path-hygiene's to report.)
    let ann = hot_path::collect_annotations(&graph);
    for (fid, root_name) in &ann.roots {
        if an.io_depth[*fid].is_some() && !degrees.contains_key(fid) {
            let def = &graph.fns[*fid];
            diags.push(diag(
                graph.files[def.file],
                def.line,
                format!(
                    "missing-contract: hot-path root `{root_name}` (fn `{}`) reaches page \
                     I/O but declares no `// COST: <expr> pages` contract within \
                     {ANNOTATION_WINDOW} lines above the fn",
                    def.name
                ),
            ));
        }
    }

    // superlinear-io: inferred nest depth must not exceed the declared
    // degree.
    for (&fid, contract) in &contracts.by_fn {
        let Some(depth) = an.io_depth[fid] else {
            continue;
        };
        if depth > contract.degree {
            let def = &graph.fns[fid];
            let nest = nest_of(&an, fid);
            diags.push(diag(
                graph.files[def.file],
                def.line,
                format!(
                    "superlinear-io: fn `{}` declares `COST: {} pages` (degree {}) but \
                     its inferred I/O loop nest is {depth}-deep ({nest}); remove the \
                     extra nesting or widen the contract",
                    def.name, contract.expr, contract.degree
                ),
            ));
        }
    }

    // uncontracted-io: every page-I/O site in a gated crate must sit in a
    // contracted root's call tree (trusted reach from a contracted fn) or
    // enter a composite contract at the call. Degree-0 contracts (the
    // page-primitive wrappers' `1 pages`) do not excuse their callers —
    // leaning on them is exactly the unaccounted scan this rule catches.
    let covered = trusted_reach(&graph, contracts.by_fn.keys().copied());
    let mut seen: HashSet<(usize, u32, String)> = HashSet::new();
    for (fid, def) in graph.fns.iter().enumerate() {
        if def.is_test || covered.contains(&fid) {
            continue;
        }
        let file = graph.files[def.file];
        let in_gated = file
            .crate_dir
            .as_deref()
            .is_some_and(|c| gated.contains(&c));
        if !in_gated {
            continue;
        }
        for site in &an.sites[fid] {
            let call = &graph.calls[site.ci];
            let enters_composite = call
                .targets
                .iter()
                .any(|t| degrees.get(t).is_some_and(|&d| d >= 1));
            if enters_composite {
                continue;
            }
            if allow.permits(&file.rel, Some(&def.name)) {
                continue;
            }
            if !seen.insert((fid, site.line, site.what.clone())) {
                continue;
            }
            diags.push(diag(
                file,
                site.line,
                format!(
                    "uncontracted-io: page I/O `{}(…)` in fn `{}` is outside every \
                     contracted root; add a `// COST:` contract on an enclosing scan \
                     entry point or justify in crates/xtask/allow/cost.allow",
                    site.what, def.name
                ),
            ));
        }
    }
    diags
}

/// The fns inside any contracted root's call tree: the contracted fns
/// plus everything reachable from them over trusted, non-test edges.
fn trusted_reach(graph: &CallGraph<'_>, roots: impl Iterator<Item = usize>) -> HashSet<usize> {
    let mut covered: HashSet<usize> = roots.collect();
    let mut queue: Vec<usize> = covered.iter().copied().collect();
    while let Some(fid) = queue.pop() {
        for (_, t) in graph.trusted_edges(fid) {
            if covered.insert(t) {
                queue.push(t);
            }
        }
    }
    covered
}

/// Renders the deepest I/O nest of `fid` for messages and the baseline:
/// enclosing loop bounds outermost-first, then the contributing callee.
/// `scan`-shaped fns with a bare read render as `(direct)`.
fn nest_of(an: &IoAnalysis, fid: usize) -> String {
    let Some(site) = an.deepest(fid) else {
        return String::new();
    };
    let mut parts = site.bounds.clone();
    if let Some(via) = &site.via {
        parts.push(format!("{via}^{}", site.contribution));
    }
    if parts.is_empty() {
        "(direct)".to_string()
    } else {
        parts.join(" * ")
    }
}

/// One row of the cost matrix: a contracted fn, its bound, and what the
/// analyzer inferred.
pub struct CostRow {
    /// `file::SelfTy::name` (see `fn_key`).
    pub key: String,
    /// The contract expression, re-rendered canonically.
    pub expr: String,
    /// Declared degree.
    pub degree: u32,
    /// Inferred deepest I/O nest (0 when the fn performs no I/O — a
    /// contract above its callers' composition point).
    pub depth: u32,
    /// The deepest nest rendered symbolically (`ones * read_slice_into^1`).
    pub nest: String,
    /// Definition site, for drift diagnostics.
    pub file_rel: String,
    /// 1-based line of the fn.
    pub line: u32,
}

/// The cost matrix: what `cargo xtask cost` prints and the baseline gate
/// diffs, plus the resolver-coverage section (informational — it changes
/// with any code growth, so only contracts gate).
pub struct CostMatrix {
    /// Per-crate `(crate, resolved, unresolved)` non-test call-site
    /// counts.
    pub resolution: Vec<(String, u64, u64)>,
    /// One row per contracted fn, sorted by key.
    pub rows: Vec<CostRow>,
}

/// The baseline key for a fn: `file::SelfTy::name`, or `file::name` for
/// free fns. Deliberately line-free so moving code within a file never
/// counts as drift.
fn fn_key(g: &CallGraph<'_>, fid: usize) -> String {
    let d = &g.fns[fid];
    let file = &g.files[d.file].rel;
    match &d.self_ty {
        Some(ty) => format!("{file}::{ty}::{}", d.name),
        None => format!("{file}::{}", d.name),
    }
}

/// Builds the matrix over already-collected contracts and analysis.
pub fn matrix(graph: &CallGraph<'_>, contracts: &Contracts, an: &IoAnalysis) -> CostMatrix {
    let mut rows: Vec<CostRow> = contracts
        .by_fn
        .iter()
        .map(|(&fid, c)| {
            let def = &graph.fns[fid];
            CostRow {
                key: fn_key(graph, fid),
                expr: c.expr.to_string(),
                degree: c.degree,
                depth: an.io_depth[fid].unwrap_or(0),
                nest: nest_of(an, fid),
                file_rel: graph.files[def.file].rel.clone(),
                line: def.line,
            }
        })
        .collect();
    rows.sort_by(|a, b| a.key.cmp(&b.key));
    CostMatrix {
        resolution: graph.resolution_coverage(),
        rows,
    }
}

impl CostMatrix {
    /// The full JSON report (`cargo xtask cost`, the CI artifact):
    /// resolver coverage plus the contract rows, one per line.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"version\": 1,\n  \"resolution\": {\n");
        for (i, (krate, resolved, unresolved)) in self.resolution.iter().enumerate() {
            let comma = if i + 1 < self.resolution.len() {
                ","
            } else {
                ""
            };
            s.push_str(&format!(
                "    {}: {{\"resolved\": {resolved}, \"unresolved\": {unresolved}}}{comma}\n",
                crate::json_string(krate)
            ));
        }
        s.push_str("  },\n");
        s.push_str(&self.contracts_json(2));
        s.push_str("}\n");
        s
    }

    /// The baseline JSON (`--update` output): contracts only — resolver
    /// counts drift with every code change and would make the committed
    /// file churn without meaning.
    pub fn baseline_json(&self) -> String {
        let mut s = String::from("{\n  \"version\": 1,\n");
        s.push_str(&self.contracts_json(2));
        s.push_str("}\n");
        s
    }

    fn contracts_json(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let mut s = format!("{pad}\"contracts\": {{\n");
        for (i, r) in self.rows.iter().enumerate() {
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            s.push_str(&format!(
                "{pad}  {}: {{\"expr\": {}, \"degree\": {}, \"depth\": {}, \"nest\": {}}}{comma}\n",
                crate::json_string(&r.key),
                crate::json_string(&r.expr),
                r.degree,
                r.depth,
                crate::json_string(&r.nest),
            ));
        }
        s.push_str(&format!("{pad}}}\n"));
        s
    }
}

/// One parsed baseline row.
struct BaselineRow {
    key: String,
    expr: String,
    degree: u32,
    depth: u32,
    nest: String,
    /// 1-based line in the baseline file, for stale-entry diagnostics.
    line: u32,
}

/// Parses the baseline. Line-oriented by design — a real JSON parser
/// would buy nothing but dependencies: the file is generated by
/// [`CostMatrix::baseline_json`], one `"key": {"expr": …}` row per line;
/// keys contain `::`, which is how contract rows are told apart from
/// structural lines.
fn parse_baseline(text: &str) -> Result<Vec<BaselineRow>, String> {
    let mut rows = Vec::new();
    let mut version_ok = false;
    for (ln, raw) in text.lines().enumerate() {
        let line = ln as u32 + 1;
        let t = raw.trim();
        if t.starts_with("\"version\"") {
            version_ok = t
                .trim_start_matches(|c| c != ':')
                .trim_start_matches(':')
                .trim()
                == "1,";
            continue;
        }
        let Some((quoted, rest)) = t.split_once("\": {") else {
            continue;
        };
        if !quoted.starts_with('"') || !quoted.contains("::") {
            continue;
        }
        let key = quoted.trim_start_matches('"').to_string();
        let field = |name: &str| -> Result<String, String> {
            let tag = format!("\"{name}\": ");
            let at = rest
                .find(&tag)
                .ok_or_else(|| format!("{BASELINE_REL}:{line}: row has no `{name}` field"))?;
            let v = &rest[at + tag.len()..];
            if let Some(stripped) = v.strip_prefix('"') {
                stripped
                    .split_once('"')
                    .map(|(s, _)| s.to_string())
                    .ok_or_else(|| format!("{BASELINE_REL}:{line}: unterminated `{name}`"))
            } else {
                Ok(v.chars().take_while(char::is_ascii_digit).collect())
            }
        };
        let num = |name: &str| -> Result<u32, String> {
            field(name)?
                .parse::<u32>()
                .map_err(|_| format!("{BASELINE_REL}:{line}: `{name}` is not a number"))
        };
        rows.push(BaselineRow {
            key,
            expr: field("expr")?,
            degree: num("degree")?,
            depth: num("depth")?,
            nest: field("nest")?,
            line,
        });
    }
    if !version_ok {
        return Err(format!(
            "{BASELINE_REL}: missing or unsupported `\"version\": 1` header — \
             regenerate with `cargo xtask cost --update`"
        ));
    }
    Ok(rows)
}

/// Diffs the current matrix against the committed baseline: one
/// [`Lint::Cost`] diagnostic per drift. Depth changes below the degree
/// still surface here — a nest that got deeper without breaking its
/// contract is exactly the early warning the baseline exists for.
pub fn check_baseline(m: &CostMatrix, baseline_text: &str) -> Result<Vec<Diagnostic>, String> {
    let baseline = parse_baseline(baseline_text)?;
    let by_key: HashMap<&str, &BaselineRow> =
        baseline.iter().map(|r| (r.key.as_str(), r)).collect();
    let mut diags = Vec::new();
    let mut current: HashSet<&str> = HashSet::new();
    for r in &m.rows {
        current.insert(r.key.as_str());
        let Some(base) = by_key.get(r.key.as_str()) else {
            diags.push(Diagnostic {
                file: r.file_rel.clone(),
                line: r.line,
                lint: Lint::Cost,
                msg: format!(
                    "contract `{}` is missing from the cost baseline; record it with \
                     `cargo xtask cost --update` and commit the diff",
                    r.key
                ),
            });
            continue;
        };
        for (what, now, was) in [("expr", &r.expr, &base.expr), ("nest", &r.nest, &base.nest)] {
            if now != was {
                diags.push(Diagnostic {
                    file: r.file_rel.clone(),
                    line: r.line,
                    lint: Lint::Cost,
                    msg: format!(
                        "`{}` {what} drifted: baseline `{was}`, now `{now}`; review the \
                         bound and absorb with `cargo xtask cost --update`",
                        r.key
                    ),
                });
            }
        }
        for (what, now, was) in [
            ("degree", r.degree, base.degree),
            ("depth", r.depth, base.depth),
        ] {
            if now != was {
                diags.push(Diagnostic {
                    file: r.file_rel.clone(),
                    line: r.line,
                    lint: Lint::Cost,
                    msg: format!(
                        "`{}` {what} drifted: baseline {was}, now {now}; review the loop \
                         structure and absorb with `cargo xtask cost --update`",
                        r.key
                    ),
                });
            }
        }
    }
    for row in &baseline {
        if !current.contains(row.key.as_str()) {
            diags.push(Diagnostic {
                file: BASELINE_REL.to_string(),
                line: row.line,
                lint: Lint::Cost,
                msg: format!(
                    "baseline entry `{}` matches no contracted fn; refresh with \
                     `cargo xtask cost --update`",
                    row.key
                ),
            });
        }
    }
    diags.sort_by(|a, b| (&a.file, a.line, &a.msg).cmp(&(&b.file, b.line, &b.msg)));
    Ok(diags)
}

fn diag(file: &SourceFile, line: u32, msg: String) -> Diagnostic {
    Diagnostic {
        file: file.rel.clone(),
        line,
        lint: Lint::Cost,
        msg,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::FileClass;

    fn file(src: &str) -> SourceFile {
        SourceFile::new(
            "crates/experiments/src/fixture.rs".to_string(),
            FileClass::Lib,
            Some("experiments".to_string()),
            src,
        )
    }

    #[test]
    fn contract_collection_and_matrix_round_trip() {
        let f = file(
            "struct S; impl S {\n\
             // COST: 1 pages\n\
             fn read_one(&self) { read_page(0); }\n\
             // COST: npages pages\n\
             fn scan(&self, npages: u32) { for p in 0..npages { self.read_one(); } }\n\
             }\n",
        );
        let graph = CallGraph::build(&[&f]);
        let contracts = collect_contracts(&graph);
        assert!(contracts.malformed.is_empty(), "{:?}", contracts.malformed);
        assert_eq!(contracts.by_fn.len(), 2);
        let degrees: HashMap<usize, u32> = contracts
            .by_fn
            .iter()
            .map(|(f, c)| (*f, c.degree))
            .collect();
        let an = loopnest::analyze(&graph, &degrees);
        let m = matrix(&graph, &contracts, &an);
        assert_eq!(m.rows.len(), 2);
        let json = m.baseline_json();
        let parsed = parse_baseline(&json).unwrap();
        assert_eq!(parsed.len(), 2);
        // Same matrix against its own baseline: clean.
        assert!(check_baseline(&m, &json).unwrap().is_empty());
        // Resolver coverage is present in the full report only.
        assert!(m.to_json().contains("\"resolution\""));
        assert!(!json.contains("\"resolution\""));
    }

    #[test]
    fn baseline_drift_is_reported_per_field() {
        let f = file(
            "// COST: npages pages\n\
             fn scan(npages: u32) { for p in 0..npages { read_page(p); } }\n",
        );
        let graph = CallGraph::build(&[&f]);
        let contracts = collect_contracts(&graph);
        let degrees: HashMap<usize, u32> = contracts
            .by_fn
            .iter()
            .map(|(f, c)| (*f, c.degree))
            .collect();
        let an = loopnest::analyze(&graph, &degrees);
        let m = matrix(&graph, &contracts, &an);
        let json = m.baseline_json();
        // Tamper with the depth: one drift diagnostic.
        let tampered = json.replace("\"depth\": 1", "\"depth\": 0");
        let diags = check_baseline(&m, &tampered).unwrap();
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].msg.contains("depth drifted"));
        // A stale baseline row.
        let stale = json.replace(
            "\"contracts\": {\n",
            "\"contracts\": {\n    \"gone.rs::old\": {\"expr\": \"1\", \"degree\": 0, \
             \"depth\": 0, \"nest\": \"\"},\n",
        );
        let diags = check_baseline(&m, &stale).unwrap();
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].msg.contains("matches no contracted fn"));
    }
}
