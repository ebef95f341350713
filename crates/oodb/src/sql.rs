//! The paper's SQL-like query surface (§2).
//!
//! Queries in the paper are written in a SQL-like language (after Kim's
//! ORION dialect):
//!
//! ```text
//! select Student where hobbies has-subset ("Baseball", "Fishing")
//! select Student where hobbies in-subset ("Baseball", "Fishing", "Tennis")
//! ```
//!
//! This module parses that surface into a class + attribute + [`SetQuery`]
//! and executes it through [`Database::run_query`] — using a registered set
//! access facility when one covers the attribute, falling back to the
//! full-scan baseline otherwise.

use setsig_core::{ElementKey, SetPredicate, SetQuery};

use crate::database::{Database, QueryExecution};
use crate::error::{Error, Result};
use crate::schema::ClassId;

/// A parsed query: `select <class> [where <attr> <op> <set>]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedQuery {
    /// Class named in the `select`.
    pub class_name: String,
    /// The predicate, absent for a bare `select <class>`.
    pub condition: Option<(String, SetQuery)>,
}

/// A token: words and string literals are slices of the query text.
enum Token<'a> {
    Ident(&'a str),
    Str(&'a str),
    Int(i64),
    LParen,
    RParen,
    Comma,
}

/// The tokens of a query text, lexed one at a time as the parser asks.
struct Lexer<'a> {
    input: &'a str,
    /// Byte offset of the text not yet lexed.
    at: usize,
}

impl<'a> Lexer<'a> {
    /// The next token, or `None` at the end of the text.
    fn next(&mut self) -> Result<Option<Token<'a>>> {
        let rest = self.input[self.at..].trim_start();
        self.at = self.input.len() - rest.len();
        let Some(c) = rest.chars().next() else {
            return Ok(None);
        };
        let (token, len) = match c {
            '(' => (Token::LParen, 1),
            ')' => (Token::RParen, 1),
            ',' => (Token::Comma, 1),
            '"' | '\'' => {
                let Some(end) = rest[1..].find(c) else {
                    return Err(Error::BadQuery(format!(
                        "unterminated string literal in {:?}",
                        self.input
                    )));
                };
                (Token::Str(&rest[1..=end]), end + 2)
            }
            c if c.is_ascii_digit() || c == '-' => {
                let digits = rest.bytes().skip(1).take_while(u8::is_ascii_digit).count();
                let s = &rest[..1 + digits];
                let v = s
                    .parse()
                    .map_err(|_| Error::BadQuery(format!("bad integer literal {s:?}")))?;
                (Token::Int(v), s.len())
            }
            c if c.is_alphanumeric() || c == '_' => {
                let word = |d: char| d.is_alphanumeric() || d == '_' || d == '-';
                let len = rest.find(|d| !word(d)).unwrap_or(rest.len());
                (Token::Ident(&rest[..len]), len)
            }
            other => return Err(Error::BadQuery(format!("unexpected character {other:?}"))),
        };
        self.at += len;
        Ok(Some(token))
    }
}

/// The predicate an operator word names, in any letter case.
fn predicate(op: &str) -> Option<SetPredicate> {
    [
        ("has-subset", SetPredicate::HasSubset),
        ("in-subset", SetPredicate::InSubset),
        ("equals", SetPredicate::Equals),
        ("overlaps", SetPredicate::Overlaps),
        ("contains", SetPredicate::Contains),
    ]
    .into_iter()
    .find_map(|(word, p)| op.eq_ignore_ascii_case(word).then_some(p))
}

/// Parses one query in the paper's surface syntax.
///
/// Operators: `has-subset` (⊇), `in-subset` (⊆), `equals` (=), `overlaps`
/// (∩ ≠ ∅), `contains` (∈). Set literals are parenthesized lists of string
/// or integer literals; `contains` also accepts a single bare literal.
///
/// The text is lexed as it is parsed. For a set of integer and short string
/// literals, however many, it allocates the class and attribute names and
/// one element `Vec` (and [`SetQuery::new`], for a set of integers only, the
/// words it sorts).
pub fn parse_query(input: &str) -> Result<ParsedQuery> {
    let bad = |msg: &str| Error::BadQuery(msg.to_owned());
    let mut lexer = Lexer { input, at: 0 };

    match lexer.next()? {
        Some(Token::Ident(kw)) if kw.eq_ignore_ascii_case("select") => {}
        _ => return Err(bad("expected `select`")),
    }
    let Some(Token::Ident(class_name)) = lexer.next()? else {
        return Err(bad("expected a class name after `select`"));
    };
    let class_name = class_name.to_owned();
    match lexer.next()? {
        None => {
            return Ok(ParsedQuery {
                class_name,
                condition: None,
            })
        }
        Some(Token::Ident(kw)) if kw.eq_ignore_ascii_case("where") => {}
        _ => return Err(bad("expected `where` or end of query")),
    }
    let Some(Token::Ident(attr)) = lexer.next()? else {
        return Err(bad("expected an attribute name after `where`"));
    };
    let attr = attr.to_owned();
    let Some(Token::Ident(op)) = lexer.next()? else {
        return Err(bad("expected a set operator"));
    };
    let predicate =
        predicate(op).ok_or_else(|| Error::BadQuery(format!("unknown operator {op:?}")))?;

    // Set literal: parenthesized list, or one bare literal. A list holds at
    // most one element more than the commas left in the text.
    let literal = |token| match token {
        Some(Token::Str(s)) => Some(ElementKey::from(s)),
        Some(Token::Int(v)) => Some(ElementKey::from(v as u64)),
        _ => None,
    };
    let elements = match lexer.next()? {
        Some(Token::LParen) => {
            let commas = input[lexer.at..].bytes().filter(|&b| b == b',').count();
            let mut elements = Vec::with_capacity(commas + 1);
            loop {
                match lexer.next()? {
                    Some(Token::RParen) if elements.is_empty() => break,
                    token => {
                        let element =
                            literal(token).ok_or_else(|| bad("expected a literal in the set"))?;
                        elements.push(element);
                    }
                }
                match lexer.next()? {
                    Some(Token::Comma) => {}
                    Some(Token::RParen) => break,
                    _ => return Err(bad("expected `,` or `)` in the set")),
                }
            }
            elements
        }
        token => vec![literal(token).ok_or_else(|| bad("expected a set literal"))?],
    };
    if lexer.next()?.is_some() {
        return Err(bad("trailing tokens after the set literal"));
    }
    if predicate == SetPredicate::Contains && elements.len() != 1 {
        return Err(bad("`contains` takes exactly one element"));
    }
    Ok(ParsedQuery {
        class_name,
        condition: Some((attr, SetQuery::new(predicate, elements))),
    })
}

impl Database {
    /// Finds a registered facility covering `class.attr_name`, if any.
    pub fn facility_for(&self, class: ClassId, attr_name: &str) -> Option<usize> {
        let attr = self.class(class).ok()?.attr_index(attr_name).ok()?;
        self.facility_index_for(class, attr)
    }

    /// Parses and executes one query in the paper's SQL-like syntax.
    ///
    /// Uses a registered facility over the attribute when available, with
    /// the query [planned](Database::plan) for it, the full-scan baseline
    /// otherwise; a bare `select <Class>` returns every object of the class.
    pub fn run_query(&self, text: &str) -> Result<QueryExecution> {
        let parsed = parse_query(text)?;
        let class = self
            .class_by_name(&parsed.class_name)
            .ok_or_else(|| Error::NoSuchClassName(parsed.class_name.clone()))?;
        match parsed.condition {
            None => self.full_scan(class, None),
            Some((attr, query)) => match self.facility_for(class, &attr) {
                Some(idx) => self.execute_set_query(idx, &self.plan(idx, query)),
                None => self.scan_set_query(class, &attr, &query),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrType, ClassDef};
    use crate::value::Value;
    use setsig_core::{SetPredicate, SignatureConfig, Ssf};
    use setsig_pagestore::PageIo;
    use std::sync::Arc;

    #[test]
    fn parses_the_papers_q1_and_q2() {
        let q1 = parse_query(r#"select Student where hobbies has-subset ("Baseball", "Fishing")"#)
            .unwrap();
        assert_eq!(q1.class_name, "Student");
        let (attr, query) = q1.condition.unwrap();
        assert_eq!(attr, "hobbies");
        assert_eq!(query.predicate, SetPredicate::HasSubset);
        assert_eq!(query.d_q(), 2);

        let q2 = parse_query(
            r#"select Student where hobbies in-subset ("Baseball", "Fishing", "Tennis")"#,
        )
        .unwrap();
        assert_eq!(q2.condition.unwrap().1.predicate, SetPredicate::InSubset);
    }

    #[test]
    fn parses_all_operators_and_literal_forms() {
        for (text, pred) in [
            ("select C where xs equals (1, 2)", SetPredicate::Equals),
            ("select C where xs overlaps (1)", SetPredicate::Overlaps),
            ("select C where xs contains 7", SetPredicate::Contains),
            (
                "select C where xs contains 'single'",
                SetPredicate::Contains,
            ),
            ("select C where xs has-subset ()", SetPredicate::HasSubset),
        ] {
            let p = parse_query(text).unwrap();
            assert_eq!(p.condition.unwrap().1.predicate, pred, "{text}");
        }
        // Bare select.
        let p = parse_query("select Student").unwrap();
        assert!(p.condition.is_none());
    }

    #[test]
    fn literals_keep_their_values() {
        let long = "a string longer than a key holds inline";
        let text =
            format!(r#"SELECT C WHERE xs-1 HAS-Subset (-5, 9223372036854775807, "a b", '{long}')"#);
        let p = parse_query(&text).unwrap();
        let (attr, query) = p.condition.unwrap();
        assert_eq!(attr, "xs-1");
        let mut want = vec![
            ElementKey::from(-5i64 as u64),
            ElementKey::from(i64::MAX as u64),
            ElementKey::from("a b"),
            ElementKey::from(long),
        ];
        want.sort();
        assert_eq!(query.elements, want);
    }

    #[test]
    fn rejects_malformed_queries() {
        for text in [
            "",
            "delete Student",
            "select",
            "select Student where",
            "select Student where hobbies",
            "select Student where hobbies frobnicates (1)",
            "select Student where hobbies contains (1, 2)",
            r#"select S where xs has-subset ("unterminated"#,
            "select S where xs has-subset (1,)",
            "select S where xs has-subset (1) trailing",
            "select S where xs has-subset (1 2)",
            "select S where xs has-subset (9223372036854775808)",
            "select S where xs has-subset (1, -)",
            "select S where xs has-subset",
            "select S where xs has-subset (1",
            "select S where xs contains ()",
            "select S where (1)",
        ] {
            let err = parse_query(text).unwrap_err();
            assert!(matches!(err, Error::BadQuery(_)), "{text:?}: {err:?}");
            assert!(
                err.to_string().starts_with("bad query: "),
                "{text:?}: {err}"
            );
        }
        // The lexer's errors name what it could not read.
        for (text, names) in [
            (
                "select S where xs contains 9223372036854775808",
                r#""9223372036854775808""#,
            ),
            ("select S where xs contains -", r#"bad integer literal "-""#),
            (
                "select S where xs contains 'open",
                "unterminated string literal",
            ),
            ("select S where xs contains #", "unexpected character '#'"),
            ("select", "bad query: expected a class name after `select`"),
        ] {
            let err = parse_query(text).unwrap_err();
            assert!(matches!(err, Error::BadQuery(_)), "{text:?}: {err:?}");
            let err = err.to_string();
            assert!(err.contains(names), "{text:?}: {err}");
        }
    }

    #[test]
    fn run_query_uses_facility_and_scan_agree() {
        let mut db = Database::in_memory();
        let student = db
            .define_class(ClassDef::new(
                "Student",
                vec![
                    ("name", AttrType::Str),
                    ("hobbies", AttrType::set_of(AttrType::Str)),
                ],
            ))
            .unwrap();
        let io = Arc::clone(db.disk()) as Arc<dyn PageIo>;
        let ssf = Ssf::create(io, "h", SignatureConfig::new(128, 2).unwrap()).unwrap();
        db.register_facility(student, "hobbies", Box::new(ssf))
            .unwrap();

        let jeff = db
            .insert_object(
                student,
                vec![
                    Value::str("Jeff"),
                    Value::set(vec![Value::str("Baseball"), Value::str("Fishing")]),
                ],
            )
            .unwrap();
        let _bob = db
            .insert_object(
                student,
                vec![Value::str("Bob"), Value::set(vec![Value::str("Chess")])],
            )
            .unwrap();

        let r = db
            .run_query(r#"select Student where hobbies has-subset ("Baseball", "Fishing")"#)
            .unwrap();
        assert_eq!(r.actual, vec![jeff]);

        // Unindexed attribute falls back to a scan with the same answer.
        let r2 = db
            .run_query(r#"select Student where hobbies contains "Chess""#)
            .unwrap();
        assert_eq!(r2.actual.len(), 1);

        // Bare select returns everything.
        let all = db.run_query("select Student").unwrap();
        assert_eq!(all.actual.len(), 2);

        // Unknown class errors.
        assert!(db.run_query("select Course").is_err());
    }
}
