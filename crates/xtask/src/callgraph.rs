//! A hand-rolled, workspace-wide call graph over the token scanner.
//!
//! The graph indexes every `fn` in the scanned files — free functions,
//! inherent methods, trait methods (declarations and impls) — and every
//! call site, resolved by **name plus receiver-type heuristics**:
//!
//! * `Type::f(…)` / `Self::f(…)` resolve to the associated functions of
//!   that impl type;
//! * `self.f(…)` resolves within the caller's own impl type first;
//! * `recv.f(…)` with an unknown receiver resolves to *every* method of
//!   that name in the workspace (same crate preferred) — a deliberate
//!   over-approximation, so a transitive lint errs towards checking too
//!   much rather than too little;
//! * free calls prefer a shadowing local `fn` nested in the caller, then
//!   the same file, the same crate, and finally the whole workspace.
//!
//! Calls that match nothing land in an explicit **unresolved bucket**
//! (std / vendored-dependency calls, tuple-struct constructors). The
//! interprocedural lints simply do not traverse them — that is the
//! documented blind spot of a zero-dependency graph, pinned by the
//! fixture corpus rather than hidden (see DESIGN.md §9).

use std::collections::HashMap;

use crate::scan::{Tok, TokKind};
use crate::workspace::{FileClass, SourceFile};

/// One function definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Index into the file list the graph was built over.
    pub file: usize,
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// The impl type for inherent and trait-impl methods.
    pub self_ty: Option<String>,
    /// The trait, for trait-impl methods and `trait { … }` declarations.
    pub trait_name: Option<String>,
    /// Declared inside a `trait { … }` block (possibly with a default
    /// body) rather than an impl.
    pub is_trait_decl: bool,
    /// Token range `[open_brace, close_brace]` of the body, when present.
    pub body: Option<(usize, usize)>,
    /// Test-gated (by `#[cfg(test)]`/`#[test]` mask or a Test-class file).
    pub is_test: bool,
}

/// The syntactic shape of a call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `f(…)` — a free call.
    Free,
    /// `recv.f(…)` — a method call; `recv` is the identifier immediately
    /// before the dot, when there is one (`self`, a local, a field).
    Method { recv: Option<String> },
    /// `Qual::f(…)` — a path call; `qual` is the last path segment before
    /// the function name (`Vec`, `Self`, a module).
    Path { qual: String },
}

/// One call site.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Index into the file list.
    pub file: usize,
    /// The innermost enclosing function definition, if any.
    pub caller: Option<usize>,
    /// 1-based source line.
    pub line: u32,
    /// The callee name as written.
    pub name: String,
    /// Free / method / path.
    pub kind: CallKind,
    /// Resolved candidate definitions (empty = unresolved bucket).
    pub targets: Vec<usize>,
    /// The call sits in test-gated code.
    pub is_test: bool,
}

/// The call graph over a set of scanned files.
pub struct CallGraph<'a> {
    /// The files the graph was built over, in index order.
    pub files: Vec<&'a SourceFile>,
    /// Every function definition.
    pub fns: Vec<FnDef>,
    /// Every call site.
    pub calls: Vec<CallSite>,
    /// Per function, the indices of the call sites inside its body.
    pub calls_by_fn: Vec<Vec<usize>>,
    by_name: HashMap<String, Vec<usize>>,
}

/// Identifiers that look like calls but never are.
const NON_CALLS: [&str; 24] = [
    "if", "while", "for", "match", "return", "loop", "in", "as", "let", "mut", "ref", "move",
    "break", "continue", "unsafe", "else", "await", "fn", "where", "impl", "dyn", "Some", "Ok",
    "Err",
];

/// What an opening brace belongs to, for the definition walker.
#[derive(Debug, Clone)]
enum Scope {
    Impl {
        self_ty: Option<String>,
        trait_name: Option<String>,
    },
    Trait {
        name: String,
    },
    Fn {
        id: usize,
        open: usize,
    },
    Other,
}

impl<'a> CallGraph<'a> {
    /// Builds the graph over `files` (definition pass per file, then one
    /// resolution pass over all call sites).
    pub fn build(files: &[&'a SourceFile]) -> CallGraph<'a> {
        let mut graph = CallGraph {
            files: files.to_vec(),
            fns: Vec::new(),
            calls: Vec::new(),
            calls_by_fn: Vec::new(),
            by_name: HashMap::new(),
        };
        for (fi, file) in files.iter().enumerate() {
            graph.scan_file(fi, file);
        }
        graph.calls_by_fn = vec![Vec::new(); graph.fns.len()];
        for (fid, f) in graph.fns.iter().enumerate() {
            graph.by_name.entry(f.name.clone()).or_default().push(fid);
        }
        for ci in 0..graph.calls.len() {
            let targets = graph.resolve(&graph.calls[ci]);
            if let Some(caller) = graph.calls[ci].caller {
                graph.calls_by_fn[caller].push(ci);
            }
            graph.calls[ci].targets = targets;
        }
        graph
    }

    /// All definitions named `name`.
    pub fn fns_by_name(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// The call sites that resolved to nothing — the unresolved bucket.
    pub fn unresolved(&self) -> impl Iterator<Item = &CallSite> {
        self.calls.iter().filter(|c| c.targets.is_empty())
    }

    /// Resolver coverage per crate: `(crate, resolved, unresolved)`
    /// non-test call-site counts, sorted by crate name (`(root)` for the
    /// facade package). Surfaced by `--self-test` so a resolver
    /// regression — which silently weakens every graph-based lint — shows
    /// up as a number, not as missing findings.
    pub fn resolution_coverage(&self) -> Vec<(String, u64, u64)> {
        let mut by_crate: HashMap<String, (u64, u64)> = HashMap::new();
        for call in &self.calls {
            if call.is_test {
                continue;
            }
            let krate = self.files[call.file]
                .crate_dir
                .clone()
                .unwrap_or_else(|| "(root)".to_string());
            let entry = by_crate.entry(krate).or_default();
            if call.targets.is_empty() {
                entry.1 += 1;
            } else {
                entry.0 += 1;
            }
        }
        let mut out: Vec<(String, u64, u64)> =
            by_crate.into_iter().map(|(k, (r, u))| (k, r, u)).collect();
        out.sort();
        out
    }

    /// Whether an interprocedural traversal should follow `call` to
    /// `target`.
    ///
    /// Free and path calls resolve by name and type, so they are followed
    /// as-is. A method call on an arbitrary receiver over-approximates to
    /// every same-named workspace method, and common names (`insert`,
    /// `wait`, `clear`) would drag a traversal across crates through std
    /// receivers; `self.` dispatch is exact, same-crate candidates are
    /// plausible, and cross-crate method hops are dropped — each layer
    /// declares its own roots over its own kernels (DESIGN.md §9).
    pub fn trusts(&self, call: &CallSite, target: usize) -> bool {
        match &call.kind {
            CallKind::Free | CallKind::Path { .. } => true,
            CallKind::Method { recv } => {
                recv.as_deref() == Some("self")
                    || self.files[self.fns[target].file].crate_dir
                        == self.files[call.file].crate_dir
            }
        }
    }

    /// The trusted, non-test out-edges of `fid` as `(call index, target)`
    /// pairs — the exact edge set every effect traversal walks.
    pub fn trusted_edges(&self, fid: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for &ci in &self.calls_by_fn[fid] {
            let call = &self.calls[ci];
            if call.is_test {
                continue;
            }
            for &t in &call.targets {
                if self.trusts(call, t) {
                    out.push((ci, t));
                }
            }
        }
        out
    }

    /// Strongly connected components over the trusted, non-test edges,
    /// callees first: every SCC is emitted before any SCC that calls into
    /// it — exactly the order a bottom-up effect fixed point wants.
    ///
    /// Iterative Tarjan (explicit DFS frames), so a deep call chain in a
    /// scanned file cannot overflow the analyzer's own stack.
    pub fn sccs(&self) -> Vec<Vec<usize>> {
        let n = self.fns.len();
        let succ: Vec<Vec<usize>> = (0..n)
            .map(|f| self.trusted_edges(f).into_iter().map(|(_, t)| t).collect())
            .collect();
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next = 0usize;
        let mut out: Vec<Vec<usize>> = Vec::new();
        for start in 0..n {
            if index[start] != usize::MAX {
                continue;
            }
            let mut frames: Vec<(usize, usize)> = vec![(start, 0)];
            while let Some(frame) = frames.last_mut() {
                let (v, ei) = *frame;
                if ei == 0 {
                    index[v] = next;
                    low[v] = next;
                    next += 1;
                    stack.push(v);
                    on_stack[v] = true;
                }
                if let Some(&w) = succ[v].get(ei) {
                    frame.1 += 1;
                    if index[w] == usize::MAX {
                        frames.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    frames.pop();
                    if let Some(&(p, _)) = frames.last() {
                        low[p] = low[p].min(low[v]);
                    }
                    if low[v] == index[v] {
                        let mut comp = Vec::new();
                        while let Some(w) = stack.pop() {
                            on_stack[w] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        out.push(comp);
                    }
                }
            }
        }
        out
    }

    /// One pass over one file: function definitions and raw call sites.
    fn scan_file(&mut self, fi: usize, file: &SourceFile) {
        let toks = &file.scanned.toks;
        let file_is_test = file.class == FileClass::Test;
        let mut stack: Vec<Scope> = Vec::new();
        let mut pending: Option<Scope> = None;
        let mut bracket_depth = 0i64;
        let mut i = 0usize;
        while i < toks.len() {
            let t = &toks[i];
            if t.is_punct('[') {
                bracket_depth += 1;
            } else if t.is_punct(']') {
                bracket_depth -= 1;
            } else if t.is_punct('{') {
                stack.push(pending.take().unwrap_or(Scope::Other));
            } else if t.is_punct('}') {
                if let Some(Scope::Fn { id, open }) = stack.pop() {
                    self.fns[id].body = Some((open, i));
                }
            } else if t.is_punct(';') && bracket_depth == 0 {
                // `mod m;`, `fn f(…);` (trait decl), `impl T {}` can't end
                // in `;` — a pending scope that meets one died bodiless.
                pending = None;
            } else if t.is_ident("impl")
                && !in_fn(&stack)
                && !matches!(pending, Some(Scope::Fn { .. }))
            {
                // The pending-Fn guard keeps `impl Trait` in a signature
                // (`fn f(v: impl FnMut(…))`, `-> impl Iterator`) from
                // clobbering the fn's scope before its body brace arrives.
                pending = Some(parse_impl_header(toks, i));
            } else if t.is_ident("trait")
                && toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident)
                && !in_fn(&stack)
            {
                pending = Some(Scope::Trait {
                    name: toks[i + 1].text.clone(),
                });
            } else if t.is_ident("fn") {
                if let Some(name) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                    let (self_ty, trait_name, is_trait_decl) = enclosing_impl(&stack);
                    let id = self.fns.len();
                    self.fns.push(FnDef {
                        file: fi,
                        name: name.text.clone(),
                        line: t.line,
                        self_ty,
                        trait_name,
                        is_trait_decl,
                        body: None,
                        is_test: file_is_test || file.test_mask[i],
                    });
                    pending = Some(Scope::Fn { id, open: 0 });
                }
            } else if t.kind == TokKind::Ident
                && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                && !NON_CALLS.contains(&t.text.as_str())
                && !(i >= 1 && toks[i - 1].is_ident("fn"))
            {
                let kind = if i >= 1 && toks[i - 1].is_punct('.') {
                    CallKind::Method {
                        recv: (i >= 2 && toks[i - 2].kind == TokKind::Ident)
                            .then(|| toks[i - 2].text.clone()),
                    }
                } else if i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':') {
                    CallKind::Path {
                        qual: if i >= 3 && toks[i - 3].kind == TokKind::Ident {
                            toks[i - 3].text.clone()
                        } else {
                            String::new()
                        },
                    }
                } else {
                    CallKind::Free
                };
                self.calls.push(CallSite {
                    file: fi,
                    caller: innermost_fn(&stack),
                    line: t.line,
                    name: t.text.clone(),
                    kind,
                    targets: Vec::new(),
                    is_test: file_is_test || file.test_mask[i],
                });
            }
            // Patch the body-open token index once the fn's `{` arrives.
            if t.is_punct('{') {
                if let Some(Scope::Fn { id, open }) = stack.last_mut() {
                    if *open == 0 && self.fns[*id].body.is_none() {
                        *open = i;
                    }
                }
            }
            i += 1;
        }
    }

    /// Resolves one call site to candidate definitions.
    fn resolve(&self, call: &CallSite) -> Vec<usize> {
        let all = self.fns_by_name(&call.name);
        if all.is_empty() {
            return Vec::new();
        }
        let caller = call.caller.map(|c| &self.fns[c]);
        let file = self.files[call.file];
        match &call.kind {
            CallKind::Free => {
                let frees: Vec<usize> = all
                    .iter()
                    .copied()
                    .filter(|&f| self.fns[f].self_ty.is_none() && !self.fns[f].is_trait_decl)
                    .collect();
                // A nested `fn` inside the caller shadows everything.
                if let (Some(ck), Some((b0, b1))) = (call.caller, caller.and_then(|c| c.body)) {
                    let nested: Vec<usize> = frees
                        .iter()
                        .copied()
                        .filter(|&f| {
                            f != ck
                                && self.fns[f].file == call.file
                                && self.fns[f].body.is_some_and(|(o, c)| o > b0 && c < b1)
                        })
                        .collect();
                    if !nested.is_empty() {
                        return nested;
                    }
                }
                prefer(
                    &frees,
                    |f| self.fns[f].file == call.file,
                    |f| self.files[self.fns[f].file].crate_dir == file.crate_dir,
                )
            }
            CallKind::Path { qual } => {
                // `Self::f(…)` inside a trait's *default body* has no impl
                // type to name — the trait itself scopes the call, so it
                // resolves to that trait's declarations and impl methods
                // (an over-approximation across implementors, like method
                // dispatch on an unknown receiver).
                if qual == "Self" {
                    if let Some(c) = caller.filter(|c| c.self_ty.is_none()) {
                        if let Some(tr) = c.trait_name.as_deref() {
                            let in_trait: Vec<usize> = all
                                .iter()
                                .copied()
                                .filter(|&f| self.fns[f].trait_name.as_deref() == Some(tr))
                                .collect();
                            return prefer(
                                &in_trait,
                                |f| self.files[self.fns[f].file].crate_dir == file.crate_dir,
                                |_| true,
                            );
                        }
                    }
                }
                let want_ty = if qual == "Self" {
                    caller.and_then(|c| c.self_ty.clone())
                } else if qual.chars().next().is_some_and(char::is_uppercase) {
                    Some(qual.clone())
                } else {
                    None
                };
                match want_ty {
                    Some(ty) => {
                        let methods: Vec<usize> = all
                            .iter()
                            .copied()
                            .filter(|&f| self.fns[f].self_ty.as_deref() == Some(ty.as_str()))
                            .collect();
                        prefer(
                            &methods,
                            |f| self.files[self.fns[f].file].crate_dir == file.crate_dir,
                            |_| true,
                        )
                    }
                    None => {
                        // Module path (`scan::test_mask`): a free fn.
                        let frees: Vec<usize> = all
                            .iter()
                            .copied()
                            .filter(|&f| {
                                self.fns[f].self_ty.is_none() && !self.fns[f].is_trait_decl
                            })
                            .collect();
                        prefer(
                            &frees,
                            |f| self.files[self.fns[f].file].crate_dir == file.crate_dir,
                            |_| true,
                        )
                    }
                }
            }
            CallKind::Method { recv } => {
                // `self.f()` resolves within the caller's own type first.
                if recv.as_deref() == Some("self") {
                    if let Some(ty) = caller.and_then(|c| c.self_ty.as_deref()) {
                        let own: Vec<usize> = all
                            .iter()
                            .copied()
                            .filter(|&f| self.fns[f].self_ty.as_deref() == Some(ty))
                            .collect();
                        if !own.is_empty() {
                            return own;
                        }
                    }
                }
                // Unknown receiver: every method of that name (trait
                // declarations included — a default body is a real callee).
                let methods: Vec<usize> = all
                    .iter()
                    .copied()
                    .filter(|&f| self.fns[f].self_ty.is_some() || self.fns[f].is_trait_decl)
                    .collect();
                prefer(
                    &methods,
                    |f| self.files[self.fns[f].file].crate_dir == file.crate_dir,
                    |_| true,
                )
            }
        }
    }
}

/// Restricts `candidates` to those matching `first` when any do, else to
/// those matching `second` when any do, else keeps them all.
fn prefer(
    candidates: &[usize],
    first: impl Fn(usize) -> bool,
    second: impl Fn(usize) -> bool,
) -> Vec<usize> {
    for filt in [&first as &dyn Fn(usize) -> bool, &second] {
        let hits: Vec<usize> = candidates.iter().copied().filter(|&f| filt(f)).collect();
        if !hits.is_empty() {
            return hits;
        }
    }
    candidates.to_vec()
}

fn in_fn(stack: &[Scope]) -> bool {
    stack.iter().any(|s| matches!(s, Scope::Fn { .. }))
}

fn innermost_fn(stack: &[Scope]) -> Option<usize> {
    stack.iter().rev().find_map(|s| match s {
        Scope::Fn { id, .. } => Some(*id),
        _ => None,
    })
}

fn enclosing_impl(stack: &[Scope]) -> (Option<String>, Option<String>, bool) {
    for s in stack.iter().rev() {
        match s {
            Scope::Impl {
                self_ty,
                trait_name,
            } => return (self_ty.clone(), trait_name.clone(), false),
            Scope::Trait { name } => return (None, Some(name.clone()), true),
            Scope::Fn { .. } => return (None, None, false),
            _ => {}
        }
    }
    (None, None, false)
}

/// Parses `impl [<…>] [Trait for] Type` into an [`Scope::Impl`].
fn parse_impl_header(toks: &[Tok], impl_idx: usize) -> Scope {
    let mut j = impl_idx + 1;
    // Skip the generic parameter list, `->` arrows inside it included.
    if toks.get(j).is_some_and(|t| t.is_punct('<')) {
        let mut depth = 0i64;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') && !(j >= 1 && toks[j - 1].is_punct('-')) {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    // Collect the last identifier at angle-depth 0 of each side of `for`.
    let mut first: Option<String> = None;
    let mut second: Option<String> = None;
    let mut saw_for = false;
    let mut depth = 0i64;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('{') || (t.is_ident("where") && depth == 0) {
            break;
        }
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') && !(j >= 1 && toks[j - 1].is_punct('-')) {
            depth -= 1;
        } else if t.is_ident("for") && depth == 0 {
            saw_for = true;
        } else if t.kind == TokKind::Ident && depth == 0 && !t.is_ident("dyn") {
            let slot = if saw_for { &mut second } else { &mut first };
            *slot = Some(t.text.clone());
        }
        j += 1;
    }
    if saw_for {
        Scope::Impl {
            self_ty: second,
            trait_name: first,
        }
    } else {
        Scope::Impl {
            self_ty: first,
            trait_name: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::FileClass;

    fn file(rel: &str, crate_dir: &str, src: &str) -> SourceFile {
        SourceFile::new(
            rel.to_string(),
            FileClass::Lib,
            Some(crate_dir.to_string()),
            src,
        )
    }

    fn graph<'a>(files: &[&'a SourceFile]) -> CallGraph<'a> {
        CallGraph::build(files)
    }

    fn fn_named<'g>(g: &'g CallGraph<'_>, name: &str) -> &'g FnDef {
        let ids = g.fns_by_name(name);
        assert_eq!(ids.len(), 1, "expected one fn named {name}");
        &g.fns[ids[0]]
    }

    fn call_named<'g>(g: &'g CallGraph<'_>, name: &str) -> &'g CallSite {
        g.calls
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("no call site named {name}"))
    }

    #[test]
    fn free_fns_methods_and_traits_are_indexed() {
        let f = file(
            "crates/a/src/lib.rs",
            "a",
            "pub fn free() {}\n\
             struct S;\n\
             impl S { fn inherent(&self) {} }\n\
             trait T { fn decl(&self); fn with_default(&self) {} }\n\
             impl T for S { fn decl(&self) {} }\n",
        );
        let g = graph(&[&f]);
        assert_eq!(fn_named(&g, "inherent").self_ty.as_deref(), Some("S"));
        let decls = g.fns_by_name("decl");
        assert_eq!(decls.len(), 2);
        assert!(g.fns[decls[0]].is_trait_decl);
        assert!(g.fns[decls[0]].body.is_none());
        assert_eq!(g.fns[decls[1]].self_ty.as_deref(), Some("S"));
        assert_eq!(g.fns[decls[1]].trait_name.as_deref(), Some("T"));
        assert!(fn_named(&g, "with_default").is_trait_decl);
        assert!(fn_named(&g, "with_default").body.is_some());
    }

    #[test]
    fn self_method_calls_resolve_to_own_impl() {
        let f = file(
            "crates/a/src/lib.rs",
            "a",
            "struct A; struct B;\n\
             impl A { fn go(&self) { self.step(); } fn step(&self) {} }\n\
             impl B { fn step(&self) {} }\n",
        );
        let g = graph(&[&f]);
        let call = call_named(&g, "step");
        assert_eq!(call.targets.len(), 1);
        assert_eq!(g.fns[call.targets[0]].self_ty.as_deref(), Some("A"));
    }

    #[test]
    fn unknown_receiver_over_approximates_to_all_methods() {
        let f = file(
            "crates/a/src/lib.rs",
            "a",
            "struct A; struct B;\n\
             impl A { fn step(&self) {} }\n\
             impl B { fn step(&self) {} }\n\
             fn drive(x: &A) { x.step(); }\n",
        );
        let g = graph(&[&f]);
        let call = call_named(&g, "step");
        assert_eq!(call.targets.len(), 2, "trait-style dispatch: both impls");
    }

    #[test]
    fn shadowed_local_fn_wins_over_same_file_free_fn() {
        let f = file(
            "crates/a/src/lib.rs",
            "a",
            "fn helper() {}\n\
             fn outer() { fn helper() {} helper(); }\n",
        );
        let g = graph(&[&f]);
        let call = call_named(&g, "helper");
        assert_eq!(call.targets.len(), 1);
        let t = &g.fns[call.targets[0]];
        let outer = fn_named(&g, "outer");
        let (b0, b1) = outer.body.unwrap();
        let (o, c) = t.body.unwrap();
        assert!(o > b0 && c < b1, "resolved to the nested shadow");
    }

    #[test]
    fn impl_trait_in_signature_keeps_the_body() {
        // `impl FnMut(…)` in a parameter list (or `-> impl Iterator`) must
        // not clobber the pending fn scope: the body brace still belongs
        // to the fn, and its call sites stay attributed.
        let f = file(
            "crates/a/src/lib.rs",
            "a",
            "fn visit_all(mut visit: impl FnMut(u64, &str)) -> impl Iterator<Item = u8> {\n\
                 helper();\n\
                 std::iter::empty()\n\
             }\n\
             fn helper() {}\n",
        );
        let g = graph(&[&f]);
        let def = fn_named(&g, "visit_all");
        assert!(def.body.is_some(), "impl-Trait param lost the fn body");
        let call = call_named(&g, "helper");
        assert_eq!(
            call.caller,
            Some(g.fns.iter().position(|d| d.name == "visit_all").unwrap())
        );
    }

    #[test]
    fn cross_crate_calls_resolve_when_unique() {
        let a = file("crates/a/src/lib.rs", "a", "pub fn shared_util() {}\n");
        let b = file(
            "crates/b/src/lib.rs",
            "b",
            "fn use_it() { shared_util(); }\n",
        );
        let g = graph(&[&a, &b]);
        let call = call_named(&g, "shared_util");
        assert_eq!(call.targets.len(), 1);
        assert_eq!(g.fns[call.targets[0]].file, 0);
    }

    #[test]
    fn same_crate_candidates_are_preferred() {
        let a = file("crates/a/src/lib.rs", "a", "pub fn util() {}\n");
        let b = file(
            "crates/b/src/lib.rs",
            "b",
            "pub fn util() {}\nfn use_it() { util(); }\n",
        );
        let g = graph(&[&a, &b]);
        let call = call_named(&g, "util");
        assert_eq!(call.targets.len(), 1);
        assert_eq!(
            g.fns[call.targets[0]].file, 1,
            "same file beats cross-crate"
        );
    }

    #[test]
    fn path_calls_resolve_through_the_impl_type() {
        let f = file(
            "crates/a/src/lib.rs",
            "a",
            "struct S;\n\
             impl S {\n\
               fn new() -> S { S }\n\
               fn pair() -> (S, S) { (Self::new(), S::new()) }\n\
             }\n\
             struct Other; impl Other { fn new() -> Other { Other } }\n",
        );
        let g = graph(&[&f]);
        let news: Vec<&CallSite> = g.calls.iter().filter(|c| c.name == "new").collect();
        assert_eq!(news.len(), 2);
        for c in news {
            assert_eq!(c.targets.len(), 1, "{:?}", c.kind);
            assert_eq!(g.fns[c.targets[0]].self_ty.as_deref(), Some("S"));
        }
    }

    #[test]
    fn std_calls_land_in_the_unresolved_bucket() {
        let f = file(
            "crates/a/src/lib.rs",
            "a",
            "fn go() { let v = Vec::<u8>::with_capacity(4); drop(v); String::from(\"x\"); }\n",
        );
        let g = graph(&[&f]);
        let unresolved: Vec<&str> = g.unresolved().map(|c| c.name.as_str()).collect();
        assert!(unresolved.contains(&"with_capacity"), "{unresolved:?}");
        assert!(unresolved.contains(&"from"), "{unresolved:?}");
    }

    #[test]
    fn test_gated_fns_are_flagged() {
        let f = file(
            "crates/a/src/lib.rs",
            "a",
            "pub fn shown() {}\n\
             #[cfg(test)]\nmod tests { fn t() {} }\n",
        );
        let g = graph(&[&f]);
        assert!(!fn_named(&g, "shown").is_test);
        assert!(fn_named(&g, "t").is_test);
    }

    #[test]
    fn self_calls_in_trait_default_bodies_resolve() {
        let f = file(
            "crates/a/src/lib.rs",
            "a",
            "trait T {\n\
               fn t_helper() -> u32 { 7 }\n\
               fn go() -> u32 { Self::t_helper() }\n\
             }\n\
             struct S;\n\
             impl T for S { fn t_helper() -> u32 { 9 } }\n",
        );
        let g = graph(&[&f]);
        let call = call_named(&g, "t_helper");
        assert_eq!(
            call.kind,
            CallKind::Path {
                qual: "Self".to_string()
            }
        );
        assert_eq!(
            call.targets.len(),
            2,
            "trait default + impl override, not the unresolved bucket"
        );
        assert!(call
            .targets
            .iter()
            .all(|&t| g.fns[t].trait_name.as_deref() == Some("T")));
    }

    #[test]
    fn sccs_come_out_callees_first() {
        let f = file(
            "crates/a/src/lib.rs",
            "a",
            "fn a() { b(); }\n\
             fn b() { a(); leaf(); }\n\
             fn leaf() {}\n",
        );
        let g = graph(&[&f]);
        let sccs = g.sccs();
        assert_eq!(sccs.len(), 2);
        let pos = |name: &str| {
            sccs.iter()
                .position(|c| c.iter().any(|&f| g.fns[f].name == name))
                .unwrap()
        };
        assert!(pos("leaf") < pos("a"), "callee SCC emitted first");
        assert_eq!(pos("a"), pos("b"), "the a↔b cycle is one component");
        assert_eq!(sccs[pos("a")].len(), 2);
    }

    #[test]
    fn cross_crate_method_hops_are_untrusted() {
        let a = file(
            "crates/a/src/lib.rs",
            "a",
            "pub struct W; impl W { pub fn wait(&self) {} }\n",
        );
        let b = file(
            "crates/b/src/lib.rs",
            "b",
            "struct Own; impl Own {\n\
               fn wait(&self) {}\n\
               fn go(&self, cv: &W) { self.wait(); cv.wait(); }\n\
             }\n",
        );
        let g = graph(&[&a, &b]);
        let calls: Vec<&CallSite> = g.calls.iter().filter(|c| c.name == "wait").collect();
        assert_eq!(calls.len(), 2);
        for c in calls {
            let CallKind::Method { recv } = &c.kind else {
                panic!("method call expected");
            };
            for &t in &c.targets {
                let same_crate = g.files[g.fns[t].file].crate_dir == g.files[c.file].crate_dir;
                assert_eq!(
                    g.trusts(c, t),
                    recv.as_deref() == Some("self") || same_crate,
                    "recv={recv:?} target in {:?}",
                    g.files[g.fns[t].file].rel
                );
            }
        }
    }

    #[test]
    fn calls_attach_to_the_innermost_fn_including_closures() {
        let f = file(
            "crates/a/src/lib.rs",
            "a",
            "fn target() {}\n\
             fn outer() { let c = || { target(); }; c(); }\n",
        );
        let g = graph(&[&f]);
        let call = call_named(&g, "target");
        let caller = call.caller.expect("has caller");
        assert_eq!(g.fns[caller].name, "outer");
    }
}
