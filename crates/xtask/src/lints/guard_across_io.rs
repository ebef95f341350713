//! **guard-across-io** — no lock guard may be live across a page-I/O
//! call.
//!
//! This is exactly the invariant `cache.rs` promises in prose ("the pool
//! lock is never held across a disk call"): holding a lock across
//! `read_page`/`write_page`/`flush`/`sync` serializes I/O behind the
//! lock today and deadlocks a future async or sharded pagestore. The
//! lint pairs every acquisition site's lexical guard range with every
//! I/O call inside it and reports one `io-under-lock:` diagnostic per
//! (guard, call) pair.
//!
//! # Acquisitions
//!
//! A zero-argument `.lock()`, `.read()` or `.write()` call is an
//! acquisition: `io::Read::read` and `io::Write::write` take a buffer, so
//! the call's shape alone tells a lock from a stream, and the lint needs
//! no declaration to resolve the receiver.
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
use crate::workspace::{FileClass, SourceFile, Workspace};
use crate::{Diagnostic, Lint};

/// Calls treated as page I/O: the `PageIo` trait surface plus the
/// flush/sync family.
pub const IO_CALLS: [&str; 7] = [
    "read_page",
    "write_page",
    "update_page",
    "append_page",
    "extend_to",
    "flush",
    "sync",
];

/// Methods that acquire a guard when called with no argument.
const ACQUIRE: [&str; 3] = ["lock", "read", "write"];

/// Runs the lint over every library/binary source file.
pub fn run(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in &ws.files {
        if file.class == FileClass::Test {
            continue;
        }
        out.extend(check_file(file));
    }
    out
}

/// Single-file entry point, shared with the fixture self-tests.
pub fn check_file(file: &SourceFile) -> Vec<Diagnostic> {
    let toks = &file.scanned.toks;
    let guards = collect_acquisitions(file);
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if file.test_mask[i] || t.kind != TokKind::Ident {
            continue;
        }
        if !IO_CALLS.contains(&t.text.as_str()) {
            continue;
        }
        // A call site: `x.read_page(` or `PageIo::read_page(`; skip the
        // definitions themselves (`fn read_page(`).
        if !toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        let is_call = i > 0 && (toks[i - 1].is_punct('.') || toks[i - 1].is_punct(':'));
        if !is_call {
            continue;
        }
        // `self.out.lock().flush()` — the flush *is* the guard's own
        // statement; that is still I/O under the lock.
        for g in guards.iter().filter(|g| g.covers(i)) {
            out.push(Diagnostic {
                file: file.rel.clone(),
                line: t.line,
                lint: Lint::GuardAcrossIo,
                msg: format!(
                    "io-under-lock: `{}` called while the guard from `.{}()` on \
                     line {} is live; drop the guard (or end its block) before \
                     page I/O",
                    t.text, toks[g.idx].text, g.line,
                ),
            });
        }
    }
    out
}

/// One acquisition site with its lexical guard live range.
struct Acquisition {
    /// Token index of the `lock`/`read`/`write` identifier.
    idx: usize,
    /// 1-based source line.
    line: u32,
    /// Exclusive token-index end of the guard's live range.
    end: usize,
}

impl Acquisition {
    /// True when `tok_idx` falls strictly inside this guard's live range
    /// (the acquisition token itself is excluded).
    fn covers(&self, tok_idx: usize) -> bool {
        self.idx < tok_idx && tok_idx < self.end
    }
}

/// Brace depth before each token (`{` increments after the token, `}`
/// decrements after it), so tokens inside a block share the block's depth
/// and the block's own `}` is the first token back at it.
fn brace_depths(toks: &[Tok]) -> Vec<i64> {
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
fn collect_acquisitions(file: &SourceFile) -> Vec<Acquisition> {
    let toks = &file.scanned.toks;
    let depth = brace_depths(toks);
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if file.test_mask[i] || !ACQUIRE.iter().any(|m| toks[i].is_ident(m)) {
            continue;
        }
        // Must be a zero-argument method call: `recv . lock ( )`.
        if i == 0
            || !toks[i - 1].is_punct('.')
            || !toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            || !toks.get(i + 2).is_some_and(|t| t.is_punct(')'))
        {
            continue;
        }
        let d = depth[i];
        let mut end = toks.len();
        match binding_of(toks, i) {
            Some(name) if name != "_" => {
                // Block scope: to the enclosing block's `}` or `drop(name)`.
                for (k, t) in toks.iter().enumerate().skip(i + 1) {
                    if t.is_punct('}') && depth[k] == d {
                        end = k;
                        break;
                    }
                    if t.is_ident("drop")
                        && toks.get(k + 1).is_some_and(|t| t.is_punct('('))
                        && toks.get(k + 2).is_some_and(|t| t.is_ident(&name))
                        && toks.get(k + 3).is_some_and(|t| t.is_punct(')'))
                    {
                        end = k;
                        break;
                    }
                }
            }
            _ => {
                // Temporary: to the end of the statement.
                for (k, t) in toks.iter().enumerate().skip(i + 1) {
                    if (t.is_punct(';') || t.is_punct('}')) && depth[k] == d {
                        end = k;
                        break;
                    }
                }
            }
        }
        out.push(Acquisition {
            idx: i,
            line: toks[i].line,
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

    fn file(src: &str) -> SourceFile {
        SourceFile::new(
            "crates/experiments/src/fixture.rs".to_string(),
            FileClass::Lib,
            Some("experiments".to_string()),
            src,
        )
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
