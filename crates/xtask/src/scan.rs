//! A minimal token-level scanner for Rust source.
//!
//! Not a full lexer: it distinguishes identifiers, punctuation and literals,
//! skips comments and string/char literals, and tracks line numbers. That
//! is exactly enough for the project lints, which match short token patterns
//! like `. read_page (` — and it means doc-comment examples, strings and
//! `#[cfg(test)]` modules can never produce false positives.

/// Token classes the lints care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword.
    Ident,
    /// A single punctuation character (multi-char operators arrive as
    /// consecutive tokens: `::` is two `:` tokens).
    Punct,
    /// A string / char / numeric literal (contents not preserved).
    Literal,
}

/// One significant token.
#[derive(Debug, Clone)]
pub struct Tok {
    /// The token class.
    pub kind: TokKind,
    /// Identifier text, the punctuation character, or `""` for literals.
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
}

impl Tok {
    fn ident(text: String, line: u32) -> Self {
        Tok {
            kind: TokKind::Ident,
            text,
            line,
        }
    }

    /// True if this is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True if this is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
}

/// Scanner output: the significant tokens.
#[derive(Debug, Default)]
pub struct Scanned {
    /// Significant tokens in source order.
    pub toks: Vec<Tok>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Scans `src` into tokens.
pub fn scan(src: &str) -> Scanned {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut out = Scanned::default();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < n {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment (including `///` and `//!` doc comments).
        if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            while i < n && chars[i] != '\n' {
                i += 1;
            }
            continue;
        }
        // Block comment, possibly nested.
        if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            i += 2;
            let mut depth = 1u32;
            while i < n && depth > 0 {
                if chars[i] == '\n' {
                    line += 1;
                    i += 1;
                } else if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            continue;
        }
        // Identifier or keyword — with raw/byte string-literal prefixes
        // (`r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`) peeled off.
        if is_ident_start(c) {
            let start = i;
            while i < n && is_ident_continue(chars[i]) {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            let raw_prefix = matches!(text.as_str(), "r" | "br");
            if raw_prefix && i < n && (chars[i] == '"' || chars[i] == '#') {
                i = consume_raw_string(&chars, i, &mut line);
                out.toks.push(Tok {
                    kind: TokKind::Literal,
                    text: String::new(),
                    line,
                });
                continue;
            }
            // A plain `b"…"` / `b'…'` prefix needs no special casing: `b`
            // lands as an identifier and the quote is consumed as a literal
            // on the next iteration.
            out.toks.push(Tok::ident(text, line));
            continue;
        }
        // String literal.
        if c == '"' {
            i = consume_string(&chars, i, &mut line);
            out.toks.push(Tok {
                kind: TokKind::Literal,
                text: String::new(),
                line,
            });
            continue;
        }
        // Char literal vs. lifetime.
        if c == '\'' {
            let next = chars.get(i + 1).copied();
            let after = chars.get(i + 2).copied();
            let is_char = matches!((next, after), (Some('\\'), _) | (Some(_), Some('\'')));
            if is_char {
                // Consume up to and including the closing quote.
                i += 1;
                while i < n {
                    if chars[i] == '\\' {
                        i += 2;
                        continue;
                    }
                    if chars[i] == '\'' {
                        i += 1;
                        break;
                    }
                    if chars[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Literal,
                    text: String::new(),
                    line,
                });
            } else {
                // Lifetime: skip the quote and its identifier.
                i += 1;
                while i < n && is_ident_continue(chars[i]) {
                    i += 1;
                }
            }
            continue;
        }
        // Number literal.
        if c.is_ascii_digit() {
            while i < n
                && (is_ident_continue(chars[i])
                    || (chars[i] == '.'
                        && chars.get(i + 1).is_some_and(char::is_ascii_digit)
                        // `1..x` is a range, not a decimal point.
                        && chars.get(i.wrapping_sub(1)) != Some(&'.')))
            {
                i += 1;
            }
            out.toks.push(Tok {
                kind: TokKind::Literal,
                text: String::new(),
                line,
            });
            continue;
        }
        // Everything else: one punctuation character per token.
        out.toks.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
        });
        i += 1;
    }
    out
}

/// Consumes a `"…"` literal starting at the opening quote; returns the index
/// after the closing quote.
fn consume_string(chars: &[char], mut i: usize, line: &mut u32) -> usize {
    let n = chars.len();
    i += 1;
    while i < n {
        match chars[i] {
            '\\' => i += 2,
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Consumes a raw string body starting at the `#`s or quote that follow the
/// `r` / `br` prefix; returns the index after the closing delimiter.
fn consume_raw_string(chars: &[char], mut i: usize, line: &mut u32) -> usize {
    let n = chars.len();
    let mut hashes = 0usize;
    while i < n && chars[i] == '#' {
        hashes += 1;
        i += 1;
    }
    if i >= n || chars[i] != '"' {
        return i; // Not actually a raw string (e.g. `r#raw_ident`); bail.
    }
    i += 1;
    while i < n {
        if chars[i] == '\n' {
            *line += 1;
            i += 1;
            continue;
        }
        if chars[i] == '"' {
            let mut j = i + 1;
            let mut seen = 0usize;
            while j < n && chars[j] == '#' && seen < hashes {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return j;
            }
        }
        i += 1;
    }
    i
}

/// Marks every token that lives inside a `#[cfg(test)]`- or `#[test]`-gated
/// item (attributes containing the identifier `test` anywhere, so
/// `#[cfg(any(test, feature = "x"))]` is covered too).
///
/// The returned vector is parallel to `toks`: `true` means "test code".
pub fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        // Outer attribute `#[…]` (inner `#![…]` never gates an item).
        if toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let Some(close) = matching_bracket(toks, i + 1) else {
                break;
            };
            let gated = toks[i + 2..close].iter().any(|t| t.is_ident("test"));
            if !gated {
                i = close + 1;
                continue;
            }
            // Suppress from the attribute through the end of the gated item:
            // any further attributes, then either a braced body or a `;`.
            let start = i;
            let mut j = close + 1;
            while j < toks.len()
                && toks[j].is_punct('#')
                && toks.get(j + 1).is_some_and(|t| t.is_punct('['))
            {
                match matching_bracket(toks, j + 1) {
                    Some(c) => j = c + 1,
                    None => return mask,
                }
            }
            let mut end = toks.len().saturating_sub(1);
            let mut depth = 0i64;
            for (k, t) in toks.iter().enumerate().skip(j) {
                if t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        end = k;
                        break;
                    }
                } else if t.is_punct(';') && depth == 0 {
                    end = k;
                    break;
                }
            }
            for m in mask.iter_mut().take(end + 1).skip(start) {
                *m = true;
            }
            i = end + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// Index of the `]` matching the `[` at `open`, honouring nesting.
fn matching_bracket(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// For every token, the name of the innermost enclosing named `fn`, if any —
/// the granularity the allowlists use (`path::function`).
pub fn fn_context(toks: &[Tok]) -> Vec<Option<String>> {
    let mut ctx: Vec<Option<String>> = vec![None; toks.len()];
    // Stack of (fn name, brace depth of its body).
    let mut stack: Vec<(String, i64)> = Vec::new();
    let mut pending: Option<String> = None;
    let mut depth = 0i64;
    let mut bracket_depth = 0i64;
    for (k, t) in toks.iter().enumerate() {
        if t.is_ident("fn") {
            if let Some(name) = toks.get(k + 1).filter(|t| t.kind == TokKind::Ident) {
                pending = Some(name.text.clone());
            }
        } else if t.is_punct('{') {
            depth += 1;
            if let Some(name) = pending.take() {
                stack.push((name, depth));
            }
        } else if t.is_punct('}') {
            depth -= 1;
            while stack.last().is_some_and(|(_, d)| *d > depth) {
                stack.pop();
            }
        } else if t.is_punct('[') {
            bracket_depth += 1;
        } else if t.is_punct(']') {
            bracket_depth -= 1;
        } else if t.is_punct(';') && bracket_depth == 0 {
            // Bodiless declaration (`fn f();` in a trait): cancel. The
            // bracket guard keeps array types in signatures (`[u8; 4]`)
            // from cancelling a real pending body.
            pending = None;
        }
        ctx[k] = stack.last().map(|(name, _)| name.clone());
    }
    ctx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_not_tokens() {
        let s = scan(
            r##"
// a .read_page( in a comment
/* and .write_page( in a block */
let x = ".read_page("; // string
let y = r#".write_page("#;
"##,
        );
        assert!(!s.toks.iter().any(|t| t.is_ident("read_page")));
        assert!(!s.toks.iter().any(|t| t.is_ident("write_page")));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let s = scan("fn f<'a>(x: &'a str) -> &'a str { 'l': loop {} }");
        // The identifiers survive; nothing is swallowed by a bogus literal.
        assert!(s.toks.iter().any(|t| t.is_ident("str")));
        assert!(s.toks.iter().any(|t| t.is_ident("loop")));
    }

    #[test]
    fn char_literals_are_consumed() {
        let s = scan(r"let c = 'x'; let e = '\n'; let q = '\'';");
        let lits = s.toks.iter().filter(|t| t.kind == TokKind::Literal).count();
        assert_eq!(lits, 3);
    }

    #[test]
    fn test_mask_covers_cfg_test_mod() {
        let src = "fn lib() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { y.unwrap(); } }";
        let s = scan(src);
        let mask = test_mask(&s.toks);
        let unwraps: Vec<bool> = s
            .toks
            .iter()
            .zip(&mask)
            .filter(|(t, _)| t.is_ident("unwrap"))
            .map(|(_, m)| *m)
            .collect();
        assert_eq!(unwraps, vec![false, true]);
    }

    #[test]
    fn fn_context_tracks_innermost() {
        let src = "fn outer() { fn inner() { a.unwrap(); } b.unwrap(); }";
        let s = scan(src);
        let ctx = fn_context(&s.toks);
        let got: Vec<Option<String>> = s
            .toks
            .iter()
            .zip(&ctx)
            .filter(|(t, _)| t.is_ident("unwrap"))
            .map(|(_, c)| c.clone())
            .collect();
        assert_eq!(
            got,
            vec![Some("inner".to_string()), Some("outer".to_string())]
        );
    }

    #[test]
    fn line_numbers_are_one_based_and_accurate() {
        let s = scan("a\nb\nc");
        let lines: Vec<u32> = s.toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 3]);
    }
}
