//! Bottom-up effect inference over the workspace call graph.
//!
//! Every function gets an **inferred effect set** over the lattice
//! `{ALLOC, LOCK, RAW_IO, BLOCK}` (the powerset under union): local
//! effects are detected from the token stream of the fn's own body (the
//! primitive tables below are the single source of truth), then
//! propagated bottom-up along the call graph's *trusted* edges
//! ([`CallGraph::trusts`]) after condensing the graph into strongly
//! connected components (Tarjan, [`CallGraph::sccs`]). Because the SCCs
//! come out callees-first, one pass over the condensation reaches the
//! fixed point: every member of an SCC gets the union of the component's
//! local effects and the inferred sets of everything it calls.
//!
//! The local-effect primitives, per lattice element:
//!
//! * `ALLOC` — `vec!` / `format!`, `.clone()` / `.to_vec()` /
//!   `.to_string()` / `.collect()`, and `Vec::new` /
//!   `Vec::with_capacity` / `Box::new` / `String::from` / `String::new` /
//!   `String::with_capacity` / `Rc::new` / `Arc::new`;
//! * `LOCK` — `.lock()` always, `.read()`/`.write()` only against an
//!   `RwLock` declared in the same file (the guard-across-io receiver
//!   heuristic, so `io::Read::read` cannot false-positive);
//! * `RAW_IO` — `read_page` / `write_page` (the accounting lint's
//!   subject; the consumer decides whether the accounting seam excuses
//!   it);
//! * `BLOCK` — `.wait(…)` / `.wait_timeout(…)` at any arity (condvars
//!   carry the guard as an argument), `.join()` / `.recv()` only at zero
//!   arity (`[_]::join(sep)` is string building, not thread blocking),
//!   and `thread::sleep`.
//!
//! On top of the per-fn sets, [`reach`] walks the effectful subgraph from
//! a root and returns every primitive site it can see, each with the
//! shortest **witness chain** — `root (file:line) → hop (file:line) → …
//! → `primitive` (file:line)` — which is what `hot-path-hygiene`, the one
//! consumer, prints. Inference and traversal walk the same edge set, so
//! the inferred sets double as an exact pruning oracle for the walk.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::callgraph::CallGraph;
use crate::locks::{self, AcqMethod, LockKind};
use crate::scan::{Tok, TokKind};
use crate::workspace::SourceFile;

/// One element of the effect lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Effect {
    /// Heap allocation.
    Alloc,
    /// Lock acquisition (mutex, or an RwLock declared in the same file).
    Lock,
    /// Raw page I/O (`read_page` / `write_page`).
    RawIo,
    /// Blocking the calling thread (condvar wait, join, recv, sleep).
    Block,
}

impl Effect {
    fn bit(self) -> u8 {
        1 << (self as u8)
    }
}

/// A set of effects; the lattice join is bitwise union.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EffectSet(u8);

impl EffectSet {
    /// The bottom of the lattice.
    pub const EMPTY: EffectSet = EffectSet(0);

    /// The set holding exactly `effects`.
    pub fn of(effects: &[Effect]) -> EffectSet {
        let mut s = EffectSet::EMPTY;
        for &e in effects {
            s.insert(e);
        }
        s
    }

    /// Adds one effect.
    pub fn insert(&mut self, e: Effect) {
        self.0 |= e.bit();
    }

    /// The union of both sets.
    pub fn union(self, other: EffectSet) -> EffectSet {
        EffectSet(self.0 | other.0)
    }

    /// Membership test.
    pub fn contains(self, e: Effect) -> bool {
        self.0 & e.bit() != 0
    }

    /// True when the sets share any effect.
    pub fn intersects(self, other: EffectSet) -> bool {
        self.0 & other.0 != 0
    }

    /// True for the bottom element.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// Method calls that allocate.
pub const ALLOC_METHODS: [&str; 4] = ["clone", "to_vec", "to_string", "collect"];

/// Macros that allocate.
pub const ALLOC_MACROS: [&str; 2] = ["vec", "format"];

/// `Type::fn` associated calls that allocate.
pub const ALLOC_PATHS: [(&str, &str); 8] = [
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Box", "new"),
    ("String", "from"),
    ("String", "new"),
    ("String", "with_capacity"),
    ("Rc", "new"),
    ("Arc", "new"),
];

/// Raw page-I/O entry points (the accounting lint's subject).
pub const IO_CALLS: [&str; 2] = ["read_page", "write_page"];

/// Methods that block the calling thread at any arity (condvar waits
/// carry the guard as an argument).
pub const BLOCK_METHODS: [&str; 2] = ["wait", "wait_timeout"];

/// Methods that block only when called with **no** arguments —
/// `handle.join()` / `rx.recv()` block, `parts.join(", ")` builds a
/// string.
pub const BLOCK_METHODS_NULLARY: [&str; 2] = ["join", "recv"];

/// One effect-primitive site inside a fn body.
#[derive(Debug, Clone)]
pub struct LocalEffect {
    /// Which lattice element the primitive contributes.
    pub effect: Effect,
    /// 1-based source line of the primitive.
    pub line: u32,
    /// Human-readable spelling of the primitive (`vec!`, `.clone()`,
    /// `counter.lock()`, …), also the dedup key.
    pub what: String,
}

/// The call graph plus per-fn local and inferred effect sets.
pub struct EffectGraph<'a> {
    /// The underlying call graph.
    pub graph: CallGraph<'a>,
    /// Per fn: the primitive sites in its own body.
    pub local: Vec<Vec<LocalEffect>>,
    /// Per fn: local effects ∪ everything reachable over trusted edges.
    pub inferred: Vec<EffectSet>,
}

impl<'a> EffectGraph<'a> {
    /// Builds the graph and runs the fixed point.
    pub fn build(files: &[&'a SourceFile]) -> EffectGraph<'a> {
        let graph = CallGraph::build(files);
        // Per-file lock machinery, computed once: acquisitions plus the
        // names of RwLock fields declared in the file.
        let lock_info: Vec<(Vec<locks::Acquisition>, HashSet<String>)> = graph
            .files
            .iter()
            .map(|file| {
                let acqs = locks::collect_acquisitions(file);
                let rw_fields: HashSet<String> = locks::collect_decls(file)
                    .into_iter()
                    .filter(|d| d.kind == LockKind::RwLock)
                    .map(|d| d.field)
                    .collect();
                (acqs, rw_fields)
            })
            .collect();
        let local: Vec<Vec<LocalEffect>> = (0..graph.fns.len())
            .map(|fid| local_effects(&graph, fid, &lock_info))
            .collect();
        // Bottom-up fixed point over the condensation. SCCs arrive
        // callees-first, so external callees are final when read, and
        // within an SCC every member shares one set (each member reaches
        // every other), so a single union over the component suffices.
        let mut inferred = vec![EffectSet::EMPTY; graph.fns.len()];
        for scc in &graph.sccs() {
            let mut set = EffectSet::EMPTY;
            for &fid in scc {
                for le in &local[fid] {
                    set.insert(le.effect);
                }
                for (_, t) in graph.trusted_edges(fid) {
                    // In-component targets still hold EMPTY here; their
                    // locals are unioned by the loop above.
                    set = set.union(inferred[t]);
                }
            }
            for &fid in scc {
                inferred[fid] = set;
            }
        }
        EffectGraph {
            graph,
            local,
            inferred,
        }
    }
}

/// True when the token after `i` opens a call's argument list: `(`,
/// optionally behind a `::<…>` turbofish (`.collect::<Vec<_>>()`).
fn calls_with_paren(toks: &[Tok], i: usize) -> bool {
    let mut j = i + 1;
    if toks.get(j).is_some_and(|t| t.is_punct(':'))
        && toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(j + 2).is_some_and(|t| t.is_punct('<'))
    {
        let mut depth = 0i64;
        j += 2;
        while j < toks.len() {
            if toks[j].is_punct('<') {
                depth += 1;
            } else if toks[j].is_punct('>') && !(j >= 1 && toks[j - 1].is_punct('-')) {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    toks.get(j).is_some_and(|t| t.is_punct('('))
}

/// Scans one fn body for effect primitives.
///
/// Test-masked tokens and the token ranges of `fn`s nested inside the
/// body are skipped — a nested fn is its own call target and must not
/// taint its host.
fn local_effects(
    graph: &CallGraph<'_>,
    fid: usize,
    lock_info: &[(Vec<locks::Acquisition>, HashSet<String>)],
) -> Vec<LocalEffect> {
    let def = &graph.fns[fid];
    let Some((b0, b1)) = def.body else {
        return Vec::new(); // trait declaration without a default body
    };
    if def.is_test {
        return Vec::new();
    }
    let file = graph.files[def.file];
    let toks = &file.scanned.toks;
    let nested: Vec<(usize, usize)> = graph
        .fns
        .iter()
        .filter(|f| f.file == def.file)
        .filter_map(|f| f.body)
        .filter(|&(o, c)| o > b0 && c < b1)
        .collect();
    let in_nested = |i: usize| nested.iter().any(|&(o, c)| o <= i && i <= c);
    let mut out = Vec::new();

    for i in b0..=b1 {
        if file.test_mask[i] || in_nested(i) {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let next_bang = toks.get(i + 1).is_some_and(|n| n.is_punct('!'));
        let next_paren = calls_with_paren(toks, i);
        let via_dot = i >= 1 && toks[i - 1].is_punct('.');
        let via_path = i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':');
        let name = t.text.as_str();

        let alloc = if ALLOC_MACROS.contains(&name) && next_bang {
            Some(format!("{name}!"))
        } else if ALLOC_METHODS.contains(&name) && next_paren && via_dot {
            Some(format!(".{name}()"))
        } else if next_paren && via_path && i >= 3 {
            ALLOC_PATHS
                .iter()
                .find(|(q, m)| t.is_ident(m) && toks[i - 3].is_ident(q))
                .map(|(q, m)| format!("{q}::{m}"))
        } else {
            None
        };
        if let Some(what) = alloc {
            out.push(LocalEffect {
                effect: Effect::Alloc,
                line: t.line,
                what,
            });
            continue;
        }
        if IO_CALLS.contains(&name) && next_paren && (via_dot || via_path) {
            out.push(LocalEffect {
                effect: Effect::RawIo,
                line: t.line,
                what: name.to_string(),
            });
            continue;
        }
        if via_dot && next_paren {
            let nullary = toks.get(i + 2).is_some_and(|n| n.is_punct(')'));
            if BLOCK_METHODS.contains(&name) || (BLOCK_METHODS_NULLARY.contains(&name) && nullary) {
                out.push(LocalEffect {
                    effect: Effect::Block,
                    line: t.line,
                    what: format!(".{name}()"),
                });
                continue;
            }
        }
        if name == "sleep" && next_paren && via_path && i >= 3 && toks[i - 3].is_ident("thread") {
            out.push(LocalEffect {
                effect: Effect::Block,
                line: t.line,
                what: "thread::sleep".to_string(),
            });
        }
    }

    // Lock acquisitions come from the shared lock machinery, so this
    // lint, guard-across-io and lock-order agree on what an acquisition
    // is: `.lock()` always, `.read()`/`.write()` only on an RwLock
    // declared in this file.
    let (acqs, rw_fields) = &lock_info[def.file];
    for acq in acqs {
        if acq.idx < b0 || acq.idx > b1 || file.test_mask[acq.idx] || in_nested(acq.idx) {
            continue;
        }
        if acq.method != AcqMethod::Lock
            && !acq.receiver.as_ref().is_some_and(|r| rw_fields.contains(r))
        {
            continue;
        }
        let recv = acq.receiver.clone().unwrap_or_else(|| "<expr>".to_string());
        out.push(LocalEffect {
            effect: Effect::Lock,
            line: acq.line,
            what: format!("{recv}.{}()", acq.method.method_name()),
        });
    }
    out
}

/// How [`reach`] treats the graph around a root.
#[derive(Default)]
pub struct Traversal {
    /// Fns whose own body is checked but whose callees are not followed
    /// (`HOT-PATH-BOUNDARY:` dispatch points).
    pub boundaries: HashSet<usize>,
    /// Fns not entered at all (other roots run their own traversal).
    pub skip: HashSet<usize>,
}

/// One primitive site reachable from a root, with the shortest call
/// chain that gets there: `(fn entered, call-site line in its caller)`
/// hops from the root down to the fn holding the primitive.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The fn whose body contains the primitive.
    pub fid: usize,
    /// Which effect the primitive contributes.
    pub effect: Effect,
    /// 1-based line of the primitive.
    pub line: u32,
    /// The primitive's spelling (see [`LocalEffect::what`]).
    pub what: String,
    /// Call hops from the root to [`Finding::fid`] (empty when the
    /// primitive sits in the root itself).
    pub chain: Vec<(usize, u32)>,
}

/// Walks the effectful subgraph from `root` over trusted, non-test edges
/// and returns every primitive site whose effect is in `want`.
///
/// Breadth-first, so each fn is first reached over a minimal-hop chain —
/// the witness the diagnostics print. Callees whose inferred set misses
/// `want` entirely are pruned: inference and traversal share one edge
/// set, so nothing findable is skipped.
pub fn reach(eg: &EffectGraph<'_>, root: usize, want: EffectSet, tr: &Traversal) -> Vec<Finding> {
    let mut parent: HashMap<usize, (usize, u32)> = HashMap::new();
    let mut visited: HashSet<usize> = HashSet::from([root]);
    let mut queue: VecDeque<usize> = VecDeque::from([root]);
    let mut out = Vec::new();
    while let Some(fid) = queue.pop_front() {
        if eg.graph.fns[fid].is_test {
            continue;
        }
        for le in &eg.local[fid] {
            if !want.contains(le.effect) {
                continue;
            }
            let mut chain = Vec::new();
            let mut cur = fid;
            while cur != root {
                let (p, line) = parent[&cur];
                chain.push((cur, line));
                cur = p;
            }
            chain.reverse();
            out.push(Finding {
                fid,
                effect: le.effect,
                line: le.line,
                what: le.what.clone(),
                chain,
            });
        }
        if tr.boundaries.contains(&fid) {
            continue;
        }
        for (ci, t) in eg.graph.trusted_edges(fid) {
            if visited.contains(&t) || tr.skip.contains(&t) {
                continue;
            }
            if !eg.inferred[t].intersects(want) {
                continue;
            }
            visited.insert(t);
            parent.insert(t, (fid, eg.graph.calls[ci].line));
            queue.push_back(t);
        }
    }
    out
}

/// Renders a finding's witness chain:
/// `root (file:line) → hop (call file:line) → … → `what` (file:line)`.
///
/// The root shows its definition site; every later hop shows the **call
/// site** that enters it, so the chain can be followed click by click.
pub fn witness(eg: &EffectGraph<'_>, root: usize, f: &Finding) -> String {
    let g = &eg.graph;
    let rdef = &g.fns[root];
    let mut s = format!("{} ({}:{})", rdef.name, g.files[rdef.file].rel, rdef.line);
    let mut caller_file = rdef.file;
    for &(fid, call_line) in &f.chain {
        let d = &g.fns[fid];
        s.push_str(&format!(
            " → {} ({}:{})",
            d.name, g.files[caller_file].rel, call_line
        ));
        caller_file = d.file;
    }
    s.push_str(&format!(
        " → `{}` ({}:{})",
        f.what, g.files[g.fns[f.fid].file].rel, f.line
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::FileClass;

    fn file(src: &str) -> SourceFile {
        SourceFile::new(
            "crates/a/src/lib.rs".to_string(),
            FileClass::Lib,
            Some("a".to_string()),
            src,
        )
    }

    fn fid(eg: &EffectGraph<'_>, name: &str) -> usize {
        let ids = eg.graph.fns_by_name(name);
        assert_eq!(ids.len(), 1, "expected one fn named {name}");
        ids[0]
    }

    #[test]
    fn local_primitives_are_detected() {
        let f = file(
            "fn go(xs: &[u32]) -> u32 {\n\
               let v: Vec<u32> = xs.iter().copied().collect::<Vec<u32>>();\n\
               let s = 42u32.to_string();\n\
               let c = Vec::<u8>::with_capacity(4);\n\
               s.len() as u32 + v.len() as u32 + c.len() as u32\n\
             }\n",
        );
        let eg = EffectGraph::build(&[&f]);
        let go = fid(&eg, "go");
        let whats: Vec<&str> = eg.local[go].iter().map(|l| l.what.as_str()).collect();
        assert!(whats.contains(&".collect()"), "{whats:?}");
        assert!(whats.contains(&".to_string()"), "{whats:?}");
        assert!(eg.inferred[go].contains(Effect::Alloc));
        assert!(!eg.inferred[go].contains(Effect::Block));
    }

    #[test]
    fn str_join_is_not_blocking_but_thread_join_is() {
        let f = file(
            "fn build(parts: &[String]) -> String { parts.join(\", \") }\n\
             fn park(h: std::thread::JoinHandle<()>) { h.join().ok(); }\n",
        );
        let eg = EffectGraph::build(&[&f]);
        assert!(eg.inferred[fid(&eg, "build")].is_empty());
        assert!(eg.inferred[fid(&eg, "park")].contains(Effect::Block));
    }

    #[test]
    fn effects_propagate_through_cycles() {
        let f = file(
            "fn ping(n: u32) -> u32 { if n == 0 { pong(n) } else { ping(n - 1) } }\n\
             fn pong(n: u32) -> u32 { if n > 9 { ping(n) } else { boom() } }\n\
             fn boom() -> u32 { vec![1u32].len() as u32 }\n\
             fn clean() -> u32 { 1 }\n",
        );
        let eg = EffectGraph::build(&[&f]);
        for name in ["ping", "pong", "boom"] {
            assert!(
                eg.inferred[fid(&eg, name)].contains(Effect::Alloc),
                "{name} must inherit ALLOC"
            );
        }
        assert!(eg.inferred[fid(&eg, "clean")].is_empty());
    }

    #[test]
    fn reach_returns_shortest_witness_chains() {
        let f = file(
            "fn root() { a(); b(); }\n\
             fn a() { b(); }\n\
             fn b() { let v = vec![1u8]; drop(v); }\n",
        );
        let eg = EffectGraph::build(&[&f]);
        let root = fid(&eg, "root");
        let findings = reach(
            &eg,
            root,
            EffectSet::of(&[Effect::Alloc]),
            &Traversal::default(),
        );
        assert_eq!(findings.len(), 1);
        let w = witness(&eg, root, &findings[0]);
        assert_eq!(
            findings[0].chain.len(),
            1,
            "BFS must find root → b, not root → a → b: {w}"
        );
        assert!(
            w.starts_with("root (crates/a/src/lib.rs:1) → b (crates/a/src/lib.rs:1) → `vec!`"),
            "{w}"
        );
    }

    #[test]
    fn boundaries_stop_traversal_after_their_own_body() {
        let f = file(
            "fn root() { gate(); }\n\
             fn gate() { beyond(); }\n\
             fn beyond() { let v = vec![1u8]; drop(v); }\n",
        );
        let eg = EffectGraph::build(&[&f]);
        let root = fid(&eg, "root");
        let tr = Traversal {
            boundaries: HashSet::from([fid(&eg, "gate")]),
            ..Traversal::default()
        };
        let findings = reach(&eg, root, EffectSet::of(&[Effect::Alloc]), &tr);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
