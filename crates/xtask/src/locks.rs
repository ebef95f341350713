//! Shared machinery for the concurrency lints (`lock-order`,
//! `guard-across-io`): lock declarations and their machine-readable
//! `// LOCK-ORDER:` annotations, plus lexical guard-liveness tracking for
//! acquisition sites.
//!
//! # Annotation grammar
//!
//! Every `Mutex`/`RwLock` declaration in library or binary code carries a
//! comment on the same line or within the three lines above it:
//!
//! ```text
//! // LOCK-ORDER: <name> [< <parent>]… [leaf]
//! ```
//!
//! * `<name>` — globally unique lock name (`[A-Za-z0-9_.-]+`, convention
//!   `crate.lock`).
//! * `< <parent>` — the named lock ranks **below** `<parent>`: a thread
//!   already holding `<parent>` may acquire this lock. Repeat the clause
//!   for multiple direct parents. Rank is transitive.
//! * `leaf` — nothing ranks below this lock: no lock may be acquired
//!   while it is held, and it may not appear as anyone's parent.
//!
//! # What counts as a declaration
//!
//! * A named field whose type is `Mutex<…>` / `RwLock<…>`, possibly
//!   wrapped in `Arc`/`Box`/`Rc` and path-qualified
//!   (`std::sync::Mutex`, `parking_lot::Mutex`).
//! * A local `let <name> = Mutex::new(…)` / `RwLock::new(…)` binding.
//!
//! Struct-literal initializers (`inner: Mutex::new(…)`) initialize an
//! already-declared field and are deliberately not declarations.
//!
//! # Guard liveness
//!
//! The model is lexical, not borrow-checker-accurate, which is exactly
//! what a reviewable hand-rolled lint wants: a guard bound with
//! `let g = x.lock()` is live from the acquisition to the closing brace
//! of its enclosing block or an explicit `drop(g)`, whichever comes
//! first; an unbound (temporary) guard — `x.lock().field = v` or
//! `let _ = x.lock()…` — is live to the end of its statement.

use crate::scan::{Tok, TokKind};
use crate::workspace::SourceFile;

/// The comment marker introducing a lock annotation.
pub const ANNOTATION: &str = "LOCK-ORDER:";

/// How many lines above a declaration the annotation may sit.
pub const ANNOTATION_WINDOW: u32 = 3;

/// Which primitive a declaration uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// `Mutex<…>` — acquired with `.lock()`.
    Mutex,
    /// `RwLock<…>` — acquired with `.read()` / `.write()`.
    RwLock,
}

impl LockKind {
    /// Type name as written in source.
    pub fn type_name(self) -> &'static str {
        match self {
            LockKind::Mutex => "Mutex",
            LockKind::RwLock => "RwLock",
        }
    }
}

/// A parsed `LOCK-ORDER:` annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Annotation {
    /// The lock's global name.
    pub name: String,
    /// Direct parents: locks that may be held while acquiring this one.
    pub parents: Vec<String>,
    /// True when nothing may be acquired under this lock.
    pub leaf: bool,
}

/// Annotation state of one declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnnState {
    /// No `LOCK-ORDER:` comment in the window.
    Missing,
    /// A `LOCK-ORDER:` comment that does not parse; the payload says why.
    Malformed(String),
    /// A well-formed annotation.
    Parsed(Annotation),
}

/// One lock declaration site.
#[derive(Debug, Clone)]
pub struct LockDecl {
    /// Field or binding identifier (`"<unnamed>"` when the type is not
    /// attached to a nameable field).
    pub field: String,
    /// 1-based declaration line.
    pub line: u32,
    /// Mutex or RwLock.
    pub kind: LockKind,
    /// The annotation, if any.
    pub ann: AnnState,
}

impl LockDecl {
    /// The annotation's lock name, when parsed.
    pub fn name(&self) -> Option<&str> {
        match &self.ann {
            AnnState::Parsed(a) => Some(&a.name),
            _ => None,
        }
    }
}

/// Wrapper types the field detector looks through (`Arc<Mutex<…>>`).
const WRAPPERS: [&str; 3] = ["Arc", "Box", "Rc"];

/// Collects every lock declaration in `file` (test code excluded).
pub fn collect_decls(file: &SourceFile) -> Vec<LockDecl> {
    let toks = &file.scanned.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if file.test_mask[i] {
            continue;
        }
        let kind = if toks[i].is_ident("Mutex") {
            LockKind::Mutex
        } else if toks[i].is_ident("RwLock") {
            LockKind::RwLock
        } else {
            continue;
        };
        // Type position: `field : [path::][Arc<…]* Mutex <`.
        if toks.get(i + 1).is_some_and(|t| t.is_punct('<')) {
            let field = field_of_type(toks, i).unwrap_or_else(|| "<unnamed>".to_string());
            out.push(decl_at(file, field, toks[i].line, kind));
            continue;
        }
        // Local binding: `let [mut] name = [path::] Mutex :: new (`.
        if toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("new"))
            && toks.get(i + 4).is_some_and(|t| t.is_punct('('))
        {
            if let Some(name) = let_binding_before(toks, i) {
                out.push(decl_at(file, name, toks[i].line, kind));
            }
        }
    }
    out
}

/// Builds a declaration, attaching the nearest annotation in the window.
fn decl_at(file: &SourceFile, field: String, line: u32, kind: LockKind) -> LockDecl {
    let from = line.saturating_sub(ANNOTATION_WINDOW);
    let ann = file
        .scanned
        .comments
        .iter()
        .rfind(|(l, text)| *l >= from && *l <= line && text.contains(ANNOTATION))
        .map_or(AnnState::Missing, |(_, text)| parse_annotation(text));
    LockDecl {
        field,
        line,
        kind,
        ann,
    }
}

/// Parses the annotation payload out of a comment's full text.
fn parse_annotation(comment: &str) -> AnnState {
    let Some(pos) = comment.find(ANNOTATION) else {
        return AnnState::Missing;
    };
    // Payload: marker to end of line (block comments may run on), with a
    // trailing `*/` stripped.
    let rest = &comment[pos + ANNOTATION.len()..];
    let line = rest.lines().next().unwrap_or("");
    let line = line.trim_end_matches("*/").trim();
    let mut words = line.split_whitespace();
    let Some(name) = words.next() else {
        return AnnState::Malformed("annotation names no lock".to_string());
    };
    if !valid_name(name) {
        return AnnState::Malformed(format!(
            "lock name `{name}` has characters outside [A-Za-z0-9_.-]"
        ));
    }
    let mut parents = Vec::new();
    let mut leaf = false;
    while let Some(w) = words.next() {
        match w {
            "<" => {
                let Some(p) = words.next() else {
                    return AnnState::Malformed("`<` with no parent name after it".to_string());
                };
                if !valid_name(p) {
                    return AnnState::Malformed(format!(
                        "parent name `{p}` has characters outside [A-Za-z0-9_.-]"
                    ));
                }
                parents.push(p.to_string());
            }
            "leaf" => leaf = true,
            other => {
                return AnnState::Malformed(format!(
                    "unexpected token `{other}` (grammar: LOCK-ORDER: <name> [< <parent>]… [leaf])"
                ));
            }
        }
    }
    AnnState::Parsed(Annotation {
        name: name.to_string(),
        parents,
        leaf,
    })
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Walks back from the `Mutex`/`RwLock` token of a type to the field
/// identifier, looking through wrapper generics and path qualifiers.
fn field_of_type(toks: &[Tok], lock_tok: usize) -> Option<String> {
    let mut j = lock_tok.checked_sub(1)?;
    loop {
        if toks[j].is_punct(':') && j >= 1 && toks[j - 1].is_punct(':') {
            // Path separator `::` — step over it and its leading segment.
            j = j.checked_sub(3)?;
        } else if toks[j].is_punct('<') {
            // Wrapper generic — the token before must be Arc/Box/Rc.
            let w = j.checked_sub(1)?;
            if !WRAPPERS.iter().any(|n| toks[w].is_ident(n)) {
                return None;
            }
            j = w.checked_sub(1)?;
        } else {
            break;
        }
    }
    // Expect the field's own `name :` (a single colon).
    if !toks[j].is_punct(':') || (j >= 1 && toks[j - 1].is_punct(':')) {
        return None;
    }
    let f = j.checked_sub(1)?;
    (toks[f].kind == TokKind::Ident).then(|| toks[f].text.clone())
}

/// `Some(name)` when the tokens before `expr_start` are `let [mut] name =`.
fn let_binding_before(toks: &[Tok], expr_start: usize) -> Option<String> {
    let eq = expr_start.checked_sub(1)?;
    if !toks[eq].is_punct('=') {
        return None;
    }
    let name = eq.checked_sub(1)?;
    if toks[name].kind != TokKind::Ident {
        return None;
    }
    let before = name.checked_sub(1)?;
    let is_let = toks[before].is_ident("let")
        || (toks[before].is_ident("mut") && before >= 1 && toks[before - 1].is_ident("let"));
    is_let.then(|| toks[name].text.clone())
}

/// How a guard was acquired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcqMethod {
    /// `.lock()` — a Mutex acquisition.
    Lock,
    /// `.read()` — meaningful only on an RwLock receiver.
    Read,
    /// `.write()` — meaningful only on an RwLock receiver.
    Write,
}

impl AcqMethod {
    /// The method name as written.
    pub fn method_name(self) -> &'static str {
        match self {
            AcqMethod::Lock => "lock",
            AcqMethod::Read => "read",
            AcqMethod::Write => "write",
        }
    }
}

/// One acquisition site with its lexical guard live range.
#[derive(Debug, Clone)]
pub struct Acquisition {
    /// Token index of the `lock`/`read`/`write` identifier.
    pub idx: usize,
    /// 1-based source line.
    pub line: u32,
    /// Final identifier of the receiver chain (`self.inner.lock()` →
    /// `inner`), or `None` for non-identifier receivers.
    pub receiver: Option<String>,
    /// Acquisition method.
    pub method: AcqMethod,
    /// Exclusive token-index end of the guard's live range.
    pub end: usize,
}

impl Acquisition {
    /// True when `tok_idx` falls strictly inside this guard's live range
    /// (the acquisition token itself is excluded).
    pub fn covers(&self, tok_idx: usize) -> bool {
        self.idx < tok_idx && tok_idx < self.end
    }
}

/// Brace depth before each token (`{` increments after the token, `}`
/// decrements after it), so tokens inside a block share the block's depth
/// and the block's own `}` is the first token back at it.
pub fn brace_depths(toks: &[Tok]) -> Vec<i64> {
    let mut out = Vec::with_capacity(toks.len());
    let mut d = 0i64;
    for t in toks {
        out.push(d);
        if t.is_punct('{') {
            d += 1;
        } else if t.is_punct('}') {
            d -= 1;
        }
    }
    out
}

/// Collects every acquisition site in `file` (test code excluded) with
/// its guard live range.
pub fn collect_acquisitions(file: &SourceFile) -> Vec<Acquisition> {
    let toks = &file.scanned.toks;
    let depth = brace_depths(toks);
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if file.test_mask[i] {
            continue;
        }
        let method = if toks[i].is_ident("lock") {
            AcqMethod::Lock
        } else if toks[i].is_ident("read") {
            AcqMethod::Read
        } else if toks[i].is_ident("write") {
            AcqMethod::Write
        } else {
            continue;
        };
        // Must be a method call: `recv . lock (`.
        if i == 0 || !toks[i - 1].is_punct('.') || !toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            continue;
        }
        let receiver = (toks[i - 2].kind == TokKind::Ident).then(|| toks[i - 2].text.clone());
        let binding = binding_of(toks, i);
        let end = match &binding {
            Some(name) if name != "_" => {
                // Block scope: to the enclosing block's `}` or `drop(name)`.
                let d = depth[i];
                let mut end = toks.len();
                for (k, t) in toks.iter().enumerate().skip(i + 1) {
                    if t.is_punct('}') && depth[k] == d {
                        end = k;
                        break;
                    }
                    if t.is_ident("drop")
                        && toks.get(k + 1).is_some_and(|t| t.is_punct('('))
                        && toks.get(k + 2).is_some_and(|t| t.is_ident(name))
                        && toks.get(k + 3).is_some_and(|t| t.is_punct(')'))
                    {
                        end = k;
                        break;
                    }
                }
                end
            }
            _ => {
                // Temporary: to the end of the statement.
                let d = depth[i];
                let mut end = toks.len();
                for (k, t) in toks.iter().enumerate().skip(i + 1) {
                    if (t.is_punct(';') || t.is_punct('}')) && depth[k] == d {
                        end = k;
                        break;
                    }
                }
                end
            }
        };
        out.push(Acquisition {
            idx: i,
            line: toks[i].line,
            receiver,
            method,
            end,
        });
    }
    out
}

/// Walks back over the receiver chain of the call at `method_idx` and
/// returns the `let` binding name, if the statement is `let [mut] x = …`.
fn binding_of(toks: &[Tok], method_idx: usize) -> Option<String> {
    // Step over `recv . recv . ( … )` chains back to the statement head.
    let mut j = method_idx.checked_sub(2)?; // skip the `.`
    loop {
        let t = &toks[j];
        if t.kind == TokKind::Ident
            || t.kind == TokKind::Literal
            || t.is_punct('.')
            || t.is_punct('?')
        {
            match j.checked_sub(1) {
                Some(p) => j = p,
                None => return None,
            }
        } else if t.is_punct(')') {
            // Balanced-paren receiver segment, e.g. `self.pool().lock()`.
            let mut depth = 0i64;
            loop {
                if toks[j].is_punct(')') {
                    depth += 1;
                } else if toks[j].is_punct('(') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j = j.checked_sub(1)?;
            }
            j = j.checked_sub(1)?;
        } else {
            break;
        }
    }
    if !toks[j].is_punct('=') {
        return None;
    }
    let name = j.checked_sub(1)?;
    if toks[name].kind != TokKind::Ident {
        return None;
    }
    let before = name.checked_sub(1)?;
    let is_let = toks[before].is_ident("let")
        || (toks[before].is_ident("mut") && before >= 1 && toks[before - 1].is_ident("let"));
    is_let.then(|| toks[name].text.clone())
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
    fn field_decl_is_found_through_wrappers_and_paths() {
        let f = file(
            "struct S {\n\
             // LOCK-ORDER: a.b leaf\n\
             inner: std::sync::Mutex<u32>,\n\
             // LOCK-ORDER: a.c < a.b\n\
             shared: Arc<parking_lot::RwLock<u32>>,\n\
             }\n",
        );
        let decls = collect_decls(&f);
        assert_eq!(decls.len(), 2);
        assert_eq!(decls[0].field, "inner");
        assert_eq!(decls[0].kind, LockKind::Mutex);
        assert_eq!(decls[0].name(), Some("a.b"));
        assert_eq!(decls[1].field, "shared");
        assert_eq!(decls[1].kind, LockKind::RwLock);
        match &decls[1].ann {
            AnnState::Parsed(a) => assert_eq!(a.parents, vec!["a.b".to_string()]),
            other => panic!("expected parsed annotation, got {other:?}"),
        }
    }

    #[test]
    fn struct_literal_init_is_not_a_declaration() {
        let f = file("fn mk() -> S { S { inner: Mutex::new(0) } }");
        assert!(collect_decls(&f).is_empty());
    }

    #[test]
    fn let_binding_is_a_declaration() {
        let f = file("fn go() {\n// LOCK-ORDER: pipe leaf\nlet shared = Mutex::new(0); }");
        let decls = collect_decls(&f);
        assert_eq!(decls.len(), 1);
        assert_eq!(decls[0].field, "shared");
        assert_eq!(decls[0].name(), Some("pipe"));
    }

    #[test]
    fn missing_and_malformed_annotations_are_distinguished() {
        let f = file(
            "struct S {\n\
             a: Mutex<u32>,\n\
             // LOCK-ORDER: ok < \n\
             b: Mutex<u32>,\n\
             }\n",
        );
        let decls = collect_decls(&f);
        assert_eq!(decls[0].ann, AnnState::Missing);
        assert!(matches!(decls[1].ann, AnnState::Malformed(_)));
    }

    #[test]
    fn guard_scope_ends_at_block_close() {
        let f = file(
            "fn go(&self) {\n\
             {\n let mut g = self.inner.lock();\n g.x = 1;\n }\n\
             self.disk.read_page(0);\n\
             }",
        );
        let acqs = collect_acquisitions(&f);
        assert_eq!(acqs.len(), 1);
        let toks = &f.scanned.toks;
        let io = toks.iter().position(|t| t.is_ident("read_page")).unwrap();
        assert!(!acqs[0].covers(io), "guard must die at the inner brace");
    }

    #[test]
    fn guard_scope_ends_at_drop() {
        let f = file(
            "fn go(&self) {\n\
             let g = self.inner.lock();\n\
             drop(g);\n\
             self.disk.read_page(0);\n\
             }",
        );
        let acqs = collect_acquisitions(&f);
        let toks = &f.scanned.toks;
        let io = toks.iter().position(|t| t.is_ident("read_page")).unwrap();
        assert!(!acqs[0].covers(io), "drop(g) must end the guard");
    }

    #[test]
    fn temporary_guard_lives_to_statement_end() {
        let f = file("fn go(&self) { self.out.lock().flush(); self.disk.sync(); }");
        let acqs = collect_acquisitions(&f);
        let toks = &f.scanned.toks;
        let flush = toks.iter().position(|t| t.is_ident("flush")).unwrap();
        let sync = toks.iter().position(|t| t.is_ident("sync")).unwrap();
        assert!(acqs[0].covers(flush), "same-statement call is under lock");
        assert!(!acqs[0].covers(sync), "next statement is not");
    }

    #[test]
    fn bound_guard_lives_to_function_end() {
        let f = file("fn go(&self) { let g = self.inner.lock(); self.disk.read_page(0); }");
        let acqs = collect_acquisitions(&f);
        let toks = &f.scanned.toks;
        let io = toks.iter().position(|t| t.is_ident("read_page")).unwrap();
        assert!(acqs[0].covers(io));
    }
}
