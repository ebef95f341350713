//! Loop-nest reconstruction and symbolic page-I/O bounds for the `cost`
//! lint.
//!
//! Two halves, both zero-dependency:
//!
//! 1. A tiny **bound-expression parser** for the `// COST: <expr> pages`
//!    contract grammar (sums of products over integer literals and named
//!    symbolic quantities, with parentheses). The *degree* of an
//!    expression — the maximum number of symbolic factors multiplied
//!    together in any term — is the static complexity a contract
//!    declares: `1` has degree 0, `sig_pages` degree 1,
//!    `slices * pages_per_slice + oid_pages` degree 2.
//!
//! 2. A **loop-nest analyzer** over the workspace [`CallGraph`]: for each
//!    fn it finds every page-I/O call site, reconstructs the `for` /
//!    `while` / `loop` nesting lexically around it (bounds named from
//!    range ends, `.len()` and `.chunks()` patterns), and computes the
//!    fn's *I/O depth* — the deepest loop nest any page read sits under,
//!    plus what the callee itself contributes.
//!
//! # What counts as a page-I/O call site
//!
//! The effect inference deliberately stops `RAW_IO` at the crate
//! boundary (cross-crate method hops are untrusted, DESIGN.md §9), so
//! the engines' scan loops never *infer* `RAW_IO` even though every
//! `sig_file.read(…)` is a page read. The cost analysis instead
//! recognizes I/O sites by an explicit precedence ladder (first match
//! wins; write-side I/O is out of scope — contracts bound *retrieval*
//! cost, the paper's `rc`, not Table-7 update costs):
//!
//! 1. a call named `read_page` — the accounting primitive itself;
//! 2. a call any of whose resolved targets carries a `// COST:`
//!    contract — the callee's promise is the contribution (contracts
//!    compose; traversal stops);
//! 3. a call resolving into `crates/pagestore` whose target reads pages
//!    — the storage seam (`PagedFile::read`, `read_blob`, …), followed
//!    across the crate boundary by design;
//! 4. a `self.`-dispatched or free/path call whose target reads pages —
//!    exact same-fn-family recursion through workspace helpers;
//! 5. a non-`self` method call whose target set is a *single* trusted
//!    same-crate fn that reads pages — unambiguous field dispatch like
//!    `tree.lookup(…)`.
//!
//! Ambiguous non-`self` method calls (`.get(…)` resolving to both
//! `Bitmap::get` and `OidFile::get`) are dropped rather than
//! over-approximated: a false I/O site would fail honest contracts all
//! over the workspace. The blind spots this buys are documented in
//! DESIGN.md §12.
//!
//! # Blind spots (deliberate)
//!
//! * Iterator-adapter loops (`.map(…)`, `.for_each(…)`) do not add a
//!   nesting level; only `for` / `while` / `loop` do. The scan engines
//!   use explicit loops on their I/O paths (enforced de facto by the
//!   drift gate).
//! * Recursive cycles contribute depth 0 (cut at the back edge).
//! * `while` bounds are opaque; they are named `?<ident>` after the
//!   first identifier in the condition and count one level.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::callgraph::{CallGraph, CallKind};
use crate::scan::{Tok, TokKind};

/// A parsed bound expression: sums of products over integer literals and
/// named symbolic quantities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// An integer literal.
    Num(u64),
    /// A named symbolic quantity (`slices`, `pages_per_slice`, …).
    Sym(String),
    /// `lhs + rhs`.
    Add(Box<Expr>, Box<Expr>),
    /// `lhs * rhs`.
    Mul(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// The polynomial degree: the maximum number of symbolic factors
    /// multiplied together in any term.
    pub fn degree(&self) -> u32 {
        match self {
            Expr::Num(_) => 0,
            Expr::Sym(_) => 1,
            Expr::Add(a, b) => a.degree().max(b.degree()),
            Expr::Mul(a, b) => a.degree() + b.degree(),
        }
    }

    /// Every distinct symbol, in first-appearance order.
    pub fn symbols(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_symbols(&mut out);
        out
    }

    fn collect_symbols<'e>(&'e self, out: &mut Vec<&'e str>) {
        match self {
            Expr::Num(_) => {}
            Expr::Sym(s) => {
                if !out.contains(&s.as_str()) {
                    out.push(s);
                }
            }
            Expr::Add(a, b) | Expr::Mul(a, b) => {
                a.collect_symbols(out);
                b.collect_symbols(out);
            }
        }
    }

    /// Evaluates with `resolve` supplying every symbol's value; errors on
    /// the first unknown symbol.
    pub fn eval(&self, resolve: &dyn Fn(&str) -> Option<f64>) -> Result<f64, String> {
        match self {
            Expr::Num(n) => Ok(*n as f64),
            Expr::Sym(s) => resolve(s).ok_or_else(|| format!("unknown symbol `{s}`")),
            Expr::Add(a, b) => Ok(a.eval(resolve)? + b.eval(resolve)?),
            Expr::Mul(a, b) => Ok(a.eval(resolve)? * b.eval(resolve)?),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Num(n) => write!(f, "{n}"),
            Expr::Sym(s) => f.write_str(s),
            Expr::Add(a, b) => write!(f, "{a} + {b}"),
            Expr::Mul(a, b) => {
                // Parenthesize sums under a product so the rendering
                // round-trips through the parser.
                let pa = matches!(**a, Expr::Add(..));
                let pb = matches!(**b, Expr::Add(..));
                match (pa, pb) {
                    (true, true) => write!(f, "({a}) * ({b})"),
                    (true, false) => write!(f, "({a}) * {b}"),
                    (false, true) => write!(f, "{a} * ({b})"),
                    (false, false) => write!(f, "{a} * {b}"),
                }
            }
        }
    }
}

/// Parses `expr := term ('+' term)*; term := factor ('*' factor)*;
/// factor := integer | identifier | '(' expr ')'`.
pub fn parse_expr(src: &str) -> Result<Expr, String> {
    let mut toks = lex(src)?;
    toks.reverse(); // pop() takes from the front
    let e = parse_sum(&mut toks)?;
    if let Some(t) = toks.pop() {
        return Err(format!("unexpected `{t}` after expression"));
    }
    Ok(e)
}

fn lex(src: &str) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    let mut chars = src.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
        } else if c.is_ascii_digit() {
            let mut n = String::new();
            while let Some(&d) = chars.peek() {
                if d.is_ascii_digit() || d == '_' {
                    n.push(d);
                    chars.next();
                } else {
                    break;
                }
            }
            out.push(n);
        } else if c.is_ascii_alphabetic() || c == '_' {
            let mut s = String::new();
            while let Some(&d) = chars.peek() {
                if d.is_ascii_alphanumeric() || d == '_' {
                    s.push(d);
                    chars.next();
                } else {
                    break;
                }
            }
            out.push(s);
        } else if matches!(c, '+' | '*' | '(' | ')') {
            out.push(c.to_string());
            chars.next();
        } else {
            return Err(format!("unexpected character `{c}`"));
        }
    }
    Ok(out)
}

fn parse_sum(toks: &mut Vec<String>) -> Result<Expr, String> {
    let mut e = parse_product(toks)?;
    while toks.last().is_some_and(|t| t == "+") {
        toks.pop();
        e = Expr::Add(Box::new(e), Box::new(parse_product(toks)?));
    }
    Ok(e)
}

fn parse_product(toks: &mut Vec<String>) -> Result<Expr, String> {
    let mut e = parse_factor(toks)?;
    while toks.last().is_some_and(|t| t == "*") {
        toks.pop();
        e = Expr::Mul(Box::new(e), Box::new(parse_factor(toks)?));
    }
    Ok(e)
}

fn parse_factor(toks: &mut Vec<String>) -> Result<Expr, String> {
    let Some(t) = toks.pop() else {
        return Err("expression ends where a value was expected".to_string());
    };
    if t == "(" {
        let e = parse_sum(toks)?;
        match toks.pop() {
            Some(c) if c == ")" => Ok(e),
            _ => Err("unclosed `(`".to_string()),
        }
    } else if t.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        t.replace('_', "")
            .parse::<u64>()
            .map(Expr::Num)
            .map_err(|_| format!("bad integer `{t}`"))
    } else if t.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        Ok(Expr::Sym(t))
    } else {
        Err(format!("unexpected `{t}` where a value was expected"))
    }
}

/// One lexical loop inside a fn body: its token span and the symbolic
/// name of its trip-count bound.
#[derive(Debug, Clone)]
struct LoopSpan {
    /// Token index of the loop body's `{`.
    open: usize,
    /// Token index of the matching `}`.
    close: usize,
    /// Symbolic bound (`npages`, `ones`, `?link`, `*` for bare `loop`).
    bound: String,
}

/// Reconstructs every `for` / `while` / `loop` span in `toks[lo..=hi]`
/// (a fn body, braces included).
fn loop_spans(toks: &[Tok], lo: usize, hi: usize) -> Vec<LoopSpan> {
    let mut out = Vec::new();
    let mut i = lo;
    while i <= hi {
        let t = &toks[i];
        if t.kind == TokKind::Ident && matches!(t.text.as_str(), "for" | "while" | "loop") {
            // `&for`/`.for` can't occur; `loop` as a label target can't
            // either — the keywords are unambiguous at token level.
            if let Some(open) = body_brace(toks, i + 1, hi) {
                if let Some(close) = matching_brace(toks, open) {
                    let bound = match t.text.as_str() {
                        "for" => for_bound(toks, i + 1, open),
                        "while" => while_bound(toks, i + 1, open),
                        _ => "*".to_string(),
                    };
                    out.push(LoopSpan { open, close, bound });
                }
            }
        }
        i += 1;
    }
    out
}

/// The loop body's opening `{`: the first `{` at bracket depth 0 after
/// the keyword. Rust forbids struct literals in loop-header expression
/// position, so this is exact for `for`/`while`; closures in the header
/// (`.position(|x| …)`) are skipped by depth tracking of their own
/// braces only if braced — a `|x| { … }` closure body *would* fool
/// this, which is why header closures are called out as a blind spot.
fn body_brace(toks: &[Tok], from: usize, hi: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut i = from;
    while i <= hi {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => return Some(i),
                _ => {}
            }
        }
        i += 1;
    }
    None
}

/// The `}` matching the `{` at `open`.
fn matching_brace(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(i);
                    }
                }
                _ => {}
            }
        }
    }
    None
}

/// Names the trip count of `for <pat> in <iter> {`: the tokens of
/// `<iter>` are `toks[in_pos+1 .. open]`.
fn for_bound(toks: &[Tok], after_kw: usize, open: usize) -> String {
    let mut in_pos = None;
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().take(open).skip(after_kw) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                _ => {}
            }
        } else if depth == 0 && t.is_ident("in") {
            in_pos = Some(i);
            break;
        }
    }
    let Some(ip) = in_pos else {
        return "?".to_string();
    };
    bound_name(&toks[ip + 1..open])
}

/// Names a `while <cond> {` bound: opaque, so `?<first ident>`.
fn while_bound(toks: &[Tok], after_kw: usize, open: usize) -> String {
    for t in &toks[after_kw..open] {
        if t.kind == TokKind::Ident && !matches!(t.text.as_str(), "let" | "Some" | "None" | "mut") {
            return format!("?{}", t.text);
        }
    }
    "?".to_string()
}

/// Names an iterated expression symbolically.
///
/// * `a..b` / `a..=b` (at depth 0) → the name of `b`;
/// * `xs.chunks(…)` / `chunks_exact` / `windows` → the collection's name;
/// * anything else → the last identifier of the leading `a.b.c` chain
///   (`&ones[1..]` → `ones`, `query.elements` → `elements`,
///   `self.cfg.frames()` → `frames`), or `?`.
fn bound_name(toks: &[Tok]) -> String {
    // Top-level range: name the end expression.
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "." if depth == 0
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('.'))
                    // `a..b`, not a float or a method chain.
                    && !toks.get(i.wrapping_sub(1)).is_some_and(|p| p.is_punct('.')) =>
                {
                    let rest = &toks[i + 2..];
                    let rest = if rest.first().is_some_and(|t| t.is_punct('=')) {
                        &rest[1..]
                    } else {
                        rest
                    };
                    if rest.is_empty() {
                        return "?".to_string();
                    }
                    return chain_name(rest);
                }
                _ => {}
            }
        }
    }
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "chunks" | "chunks_exact" | "windows")
        {
            return chain_name(&toks[..i.saturating_sub(1)]);
        }
    }
    chain_name(toks)
}

/// The last identifier of the leading `a.b.c` chain (stopping at `(`,
/// `[` or any non-chain punctuation), skipping `&`/`mut`.
fn chain_name(toks: &[Tok]) -> String {
    let mut name = None;
    for t in toks {
        match t.kind {
            TokKind::Ident => {
                if matches!(t.text.as_str(), "mut" | "ref") {
                    continue;
                }
                name = Some(t.text.clone());
            }
            TokKind::Punct => {
                if !matches!(t.text.as_str(), "&" | ".") {
                    break;
                }
            }
            TokKind::Literal => {
                if name.is_none() {
                    name = Some("lit".to_string());
                }
                break;
            }
        }
    }
    name.unwrap_or_else(|| "?".to_string())
}

/// One page-I/O call site inside a fn, with its lexical loop nest.
#[derive(Debug, Clone)]
pub struct IoSite {
    /// Index of the call site in `graph.calls`.
    pub ci: usize,
    /// 1-based line of the call.
    pub line: u32,
    /// The callee name as written.
    pub what: String,
    /// Loops lexically around the call, outermost first (symbolic
    /// bounds).
    pub bounds: Vec<String>,
    /// What the callee adds on top: 0 for primitives and seam wrappers,
    /// the contract degree for contracted callees, the callee's own I/O
    /// depth for followed workspace helpers.
    pub contribution: u32,
    /// `bounds.len() + contribution` — the site's total nest depth.
    pub depth: u32,
    /// The callee whose contribution is counted, for nest rendering
    /// (`None` when the contribution is 0).
    pub via: Option<String>,
}

/// Per-fn I/O analysis over a call graph.
pub struct IoAnalysis {
    /// `io_depth[fid]`: deepest I/O nest, `None` when the fn performs no
    /// page reads (directly or through followed callees).
    pub io_depth: Vec<Option<u32>>,
    /// `sites[fid]`: every I/O call site in the fn's body.
    pub sites: Vec<Vec<IoSite>>,
}

impl IoAnalysis {
    /// The deepest site of `fid`, if any (ties broken by line order —
    /// the first deepest site wins, deterministically).
    pub fn deepest(&self, fid: usize) -> Option<&IoSite> {
        self.sites[fid]
            .iter()
            .max_by(|a, b| a.depth.cmp(&b.depth).then(b.line.cmp(&a.line)))
    }
}

/// The read-side I/O primitive (see the module docs: write-side I/O is
/// out of contract scope by design).
pub const READ_PRIMITIVE: &str = "read_page";

/// Write-protocol seams: read-modify-write primitives whose internal
/// cache-miss read is charged to the *write* protocol (the paper's UC_*
/// update terms), not to the calling scan's read-side contract. Calls
/// INTO these names contribute nothing; their own bodies are still
/// analyzed, so `BufferPool::update_page` carries its own `1 pages`
/// contract for the read it may issue.
pub const WRITE_PROTOCOL: &[&str] = &["update", "update_page"];

/// Computes [`IoAnalysis`] over `graph`. `contract_degree` maps fn ids
/// carrying a `// COST:` contract to the contract's degree; traversal
/// stops at them (their promise is their contribution).
pub fn analyze(graph: &CallGraph<'_>, contract_degree: &HashMap<usize, u32>) -> IoAnalysis {
    let mut an = IoAnalysis {
        io_depth: vec![None; graph.fns.len()],
        sites: vec![Vec::new(); graph.fns.len()],
    };
    let mut memo: Vec<Option<Option<u32>>> = vec![None; graph.fns.len()];
    for fid in 0..graph.fns.len() {
        let mut visiting = HashSet::new();
        depth_of(
            graph,
            contract_degree,
            fid,
            &mut memo,
            &mut visiting,
            &mut an,
        );
    }
    an
}

/// Memoized I/O depth of `fid`; fills `an.sites[fid]` on first visit.
/// Cycles cut at the back edge (contribution `None`).
fn depth_of(
    graph: &CallGraph<'_>,
    contract_degree: &HashMap<usize, u32>,
    fid: usize,
    memo: &mut Vec<Option<Option<u32>>>,
    visiting: &mut HashSet<usize>,
    an: &mut IoAnalysis,
) -> Option<u32> {
    if let Some(d) = memo[fid] {
        return d;
    }
    if !visiting.insert(fid) {
        return None; // recursion: cut, documented blind spot
    }
    let def = &graph.fns[fid];
    let mut sites = Vec::new();
    let mut max_depth: Option<u32> = None;
    if let Some((open, close)) = def.body {
        let file = graph.files[def.file];
        let toks = &file.scanned.toks;
        let spans = loop_spans(toks, open, close);
        for &ci in &graph.calls_by_fn[fid] {
            let call = &graph.calls[ci];
            if call.is_test {
                continue;
            }
            let Some((contribution, via)) =
                site_contribution(graph, contract_degree, call, memo, visiting, an)
            else {
                continue;
            };
            let bounds: Vec<String> = spans
                .iter()
                .filter(|s| call.tok > s.open && call.tok < s.close)
                .map(|s| s.bound.clone())
                .collect();
            let depth = bounds.len() as u32 + contribution;
            max_depth = Some(max_depth.map_or(depth, |m| m.max(depth)));
            sites.push(IoSite {
                ci,
                line: call.line,
                what: call.name.clone(),
                bounds,
                contribution,
                depth,
                via,
            });
        }
    }
    an.sites[fid] = sites;
    an.io_depth[fid] = max_depth;
    visiting.remove(&fid);
    memo[fid] = Some(max_depth);
    max_depth
}

/// Whether `call` is a page-I/O site, and what the callee contributes on
/// top of the caller's lexical loops (the precedence ladder from the
/// module docs). `None` = not an I/O site.
fn site_contribution(
    graph: &CallGraph<'_>,
    contract_degree: &HashMap<usize, u32>,
    call: &crate::callgraph::CallSite,
    memo: &mut Vec<Option<Option<u32>>>,
    visiting: &mut HashSet<usize>,
    an: &mut IoAnalysis,
) -> Option<(u32, Option<String>)> {
    // 1. The accounting primitive.
    if call.name == READ_PRIMITIVE {
        return Some((0, None));
    }
    // Write-protocol seams stop traversal before contract matching, so a
    // contract on `update_page` covers its own read without charging it
    // to every insert path.
    if WRITE_PROTOCOL.contains(&call.name.as_str()) {
        return None;
    }
    // A zero-argument method call cannot name a page: `guard.read()` is a
    // lock acquire that merely shares a name with `PagedFile::read`. The
    // name-resolution rules (3 and 5) require at least one argument, and
    // rule 2 honors a contract on a zero-arg ambiguous method call only
    // when the name resolves to a single fn (`file.read_blob()` is real
    // zero-arg I/O and resolves uniquely).
    let toks = &graph.files[call.file].scanned.toks;
    let zero_arg = toks.get(call.tok + 1).is_some_and(|t| t.is_punct('('))
        && toks.get(call.tok + 2).is_some_and(|t| t.is_punct(')'));
    let ambiguous_zero_arg = zero_arg
        && call.targets.len() > 1
        && matches!(&call.kind, CallKind::Method { recv } if recv.as_deref() != Some("self"));
    // 2. A contracted callee: its promise is its contribution.
    let contracted = call
        .targets
        .iter()
        .filter_map(|t| contract_degree.get(t).map(|d| (*t, *d)))
        .max_by_key(|(_, d)| *d);
    if let Some((t, d)) = contracted {
        if !ambiguous_zero_arg {
            let via = (d > 0).then(|| graph.fns[t].name.clone());
            return Some((d, via));
        }
    }
    let caller_crate = &graph.files[call.file].crate_dir;
    let mut best: Option<(u32, usize)> = None;
    let mut consider = |target: usize,
                        memo: &mut Vec<Option<Option<u32>>>,
                        visiting: &mut HashSet<usize>,
                        an: &mut IoAnalysis| {
        if let Some(d) = depth_of(graph, contract_degree, target, memo, visiting, an) {
            if best.is_none_or(|(bd, _)| d > bd) {
                best = Some((d, target));
            }
        }
    };
    for &t in &call.targets {
        let target_crate = &graph.files[graph.fns[t].file].crate_dir;
        match &call.kind {
            // 4. Exact or name+qual-resolved dispatch: follow.
            CallKind::Free | CallKind::Path { .. } => consider(t, memo, visiting, an),
            CallKind::Method { recv } => {
                if recv.as_deref() == Some("self") {
                    consider(t, memo, visiting, an);
                } else if target_crate.as_deref() == Some("pagestore") && !zero_arg {
                    // 3. The storage seam: cross-crate reads into
                    // pagestore are page I/O by construction.
                    consider(t, memo, visiting, an);
                } else if call.targets.len() == 1 && target_crate == caller_crate && !zero_arg {
                    // 5. Unambiguous same-crate field dispatch.
                    consider(t, memo, visiting, an);
                }
                // Ambiguous non-`self` method calls: dropped (see
                // module docs) — a false I/O site is worse than a
                // missed one here; the drift gate backstops.
            }
        }
    }
    best.map(|(d, t)| {
        let via = (d > 0).then(|| graph.fns[t].name.clone());
        (d, via)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::{FileClass, SourceFile};

    #[test]
    fn parse_and_degree() {
        let e = parse_expr("slices * pages_per_slice + oid_pages").unwrap();
        assert_eq!(e.degree(), 2);
        assert_eq!(e.symbols(), ["slices", "pages_per_slice", "oid_pages"]);
        assert_eq!(parse_expr("1").unwrap().degree(), 0);
        assert_eq!(parse_expr("sig_pages").unwrap().degree(), 1);
        // Parenthesized sums distribute into the product degree.
        assert_eq!(parse_expr("probes * (height + chain)").unwrap().degree(), 2);
        assert_eq!(parse_expr("2 * n * m").unwrap().degree(), 2);
        assert_eq!(parse_expr("(a + b) * (c + d * e)").unwrap().degree(), 3);
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "", "slices *", "* slices", "(a + b", "a ** b", "a - b", "a / 2",
        ] {
            assert!(parse_expr(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn eval_and_display_round_trip() {
        let e = parse_expr("probes * (height + chain) + 3").unwrap();
        let resolve = |s: &str| match s {
            "probes" => Some(4.0),
            "height" => Some(2.0),
            "chain" => Some(1.0),
            _ => None,
        };
        assert_eq!(e.eval(&resolve).unwrap(), 15.0);
        let printed = e.to_string();
        let again = parse_expr(&printed).unwrap();
        assert_eq!(again, e);
        assert!(e.eval(&|_| None).is_err());
    }

    #[test]
    fn large_literals_with_underscores() {
        assert_eq!(parse_expr("32_000").unwrap(), Expr::Num(32000));
    }

    fn file(src: &str) -> SourceFile {
        SourceFile::new(
            "crates/a/src/lib.rs".to_string(),
            FileClass::Lib,
            Some("a".to_string()),
            src,
        )
    }

    fn analyze_src(src: &str) -> (IoAnalysis, Vec<String>) {
        let f = file(src);
        let graph = CallGraph::build(&[&f]);
        let names: Vec<String> = graph.fns.iter().map(|d| d.name.clone()).collect();
        (analyze(&graph, &HashMap::new()), names)
    }

    fn depth(an: &(IoAnalysis, Vec<String>), name: &str) -> Option<u32> {
        let fid = an.1.iter().position(|n| n == name).unwrap();
        an.0.io_depth[fid]
    }

    #[test]
    fn range_loop_depth_and_bound() {
        let an = analyze_src(
            "fn scan(npages: u32) { for p in 0..npages { read_page(p); } }\n\
             fn one() { read_page(0); }\n\
             fn pure() { let x = 1; }\n",
        );
        assert_eq!(depth(&an, "scan"), Some(1));
        assert_eq!(depth(&an, "one"), Some(0));
        assert_eq!(depth(&an, "pure"), None);
        let fid = an.1.iter().position(|n| n == "scan").unwrap();
        assert_eq!(an.0.sites[fid][0].bounds, ["npages"]);
    }

    #[test]
    fn nested_loops_and_helper_recursion() {
        let an = analyze_src(
            "fn read_slice(n: u32) { for p in 0..n { read_page(p); } }\n\
             fn scan(ones: &[u32]) { for j in ones { self.read_slice(j); } }\n\
             struct S; impl S {\n\
             fn read_slice(&self, n: u32) { for p in 0..n { read_page(p); } }\n\
             fn scan(&self, ones: &[u32]) { for j in ones { self.read_slice(j); } }\n\
             }\n",
        );
        // The method pair: scan's site = 1 loop + read_slice's depth 1.
        let scans: Vec<usize> =
            an.1.iter()
                .enumerate()
                .filter(|(_, n)| *n == "scan")
                .map(|(i, _)| i)
                .collect();
        for fid in scans {
            assert_eq!(an.0.io_depth[fid], Some(2), "fn #{fid}");
        }
    }

    #[test]
    fn while_and_bare_loop_count_one_level() {
        let an = analyze_src(
            "fn chase(mut link: u32) { while link != 0 { read_page(link); link -= 1; } }\n\
             fn spin() { loop { read_page(0); } }\n",
        );
        assert_eq!(depth(&an, "chase"), Some(1));
        assert_eq!(depth(&an, "spin"), Some(1));
        let fid = an.1.iter().position(|n| n == "chase").unwrap();
        assert_eq!(an.0.sites[fid][0].bounds, ["?link"]);
    }

    #[test]
    fn contracted_callee_contributes_its_degree() {
        let f = file(
            "struct S; impl S {\n\
             fn inner(&self) { for p in 0..9 { read_page(p); } }\n\
             fn outer(&self) { for j in 0..3 { self.inner(); } }\n\
             }\n",
        );
        let graph = CallGraph::build(&[&f]);
        let inner = graph.fns.iter().position(|d| d.name == "inner").unwrap();
        let outer = graph.fns.iter().position(|d| d.name == "outer").unwrap();
        let contracts: HashMap<usize, u32> = [(inner, 1)].into();
        let an = analyze(&graph, &contracts);
        // outer: 1 lexical loop + the contract's declared degree.
        assert_eq!(an.io_depth[outer], Some(2));
        assert_eq!(an.sites[outer][0].via.as_deref(), Some("inner"));
    }

    #[test]
    fn ambiguous_method_calls_are_not_io_sites() {
        let an = analyze_src(
            "struct A; impl A { fn get(&self) { read_page(0); } }\n\
             struct B; impl B { fn get(&self) {} }\n\
             fn user(m: &B) { for i in 0..4 { m.get(); } }\n",
        );
        assert_eq!(depth(&an, "user"), None);
    }

    #[test]
    fn chunks_pattern_names_the_collection() {
        let an = analyze_src("fn f(xs: &[u8]) { for c in xs.chunks(16) { read_page(0); } }\n");
        let fid = an.1.iter().position(|n| n == "f").unwrap();
        assert_eq!(an.0.sites[fid][0].bounds, ["xs"]);
    }

    #[test]
    fn len_pattern_names_the_collection() {
        let an = analyze_src("fn f(xs: &[u8]) { for i in 0..xs.len() { read_page(0); } }\n");
        let fid = an.1.iter().position(|n| n == "f").unwrap();
        // `0..xs.len()` — the range end's chain resolves to `len`'s
        // receiver chain tail; the collection is the stable name.
        assert_eq!(an.0.sites[fid][0].bounds, ["len"]);
    }

    #[test]
    fn recursion_is_cut_not_divergent() {
        let an = analyze_src("fn f(n: u32) { read_page(n); if n > 0 { f(n - 1); } }\n");
        assert_eq!(depth(&an, "f"), Some(0));
    }
}
