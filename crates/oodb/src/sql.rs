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

use setsig_core::{ElementKey, SetQuery};
use std::iter::Peekable;
use std::str::CharIndices;

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

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Str(String),
    Int(i64),
    LParen,
    RParen,
    Comma,
}

fn lex(input: &str) -> Result<Vec<Token>> {
    let mut out = Vec::new();
    let mut chars = input.char_indices().peekable();
    // Consumes the characters `keep` accepts and returns the byte offset
    // after them: a token is a slice of `input`.
    let end_of = |chars: &mut Peekable<CharIndices>, keep: fn(char) -> bool| {
        while chars.next_if(|&(_, c)| keep(c)).is_some() {}
        chars.peek().map_or(input.len(), |&(at, _)| at)
    };
    while let Some((start, c)) = chars.next() {
        match c {
            c if c.is_whitespace() => {}
            '(' => out.push(Token::LParen),
            ')' => out.push(Token::RParen),
            ',' => out.push(Token::Comma),
            '"' | '\'' => {
                let Some((end, _)) = chars.find(|&(_, d)| d == c) else {
                    return Err(Error::CorruptObject(format!(
                        "unterminated string literal in query: {input:?}"
                    )));
                };
                out.push(Token::Str(input[start + 1..end].to_owned()));
            }
            c if c.is_ascii_digit() || c == '-' => {
                let s = &input[start..end_of(&mut chars, |d| d.is_ascii_digit())];
                let v: i64 = s
                    .parse()
                    .map_err(|_| Error::CorruptObject(format!("bad integer literal {s:?}")))?;
                out.push(Token::Int(v));
            }
            c if c.is_alphanumeric() || c == '_' => {
                let end = end_of(&mut chars, |d| d.is_alphanumeric() || d == '_' || d == '-');
                out.push(Token::Ident(input[start..end].to_owned()));
            }
            other => {
                return Err(Error::CorruptObject(format!(
                    "unexpected character {other:?} in query"
                )))
            }
        }
    }
    Ok(out)
}

/// Parses one query in the paper's surface syntax.
///
/// Operators: `has-subset` (⊇), `in-subset` (⊆), `equals` (=), `overlaps`
/// (∩ ≠ ∅), `contains` (∈). Set literals are parenthesized lists of string
/// or integer literals; `contains` also accepts a single bare literal.
pub fn parse_query(input: &str) -> Result<ParsedQuery> {
    let bad = |msg: &str| Error::CorruptObject(format!("query syntax: {msg}"));
    let tokens = lex(input)?;
    let mut it = tokens.into_iter().peekable();

    match it.next() {
        Some(Token::Ident(kw)) if kw.eq_ignore_ascii_case("select") => {}
        _ => return Err(bad("expected `select`")),
    }
    let Some(Token::Ident(class_name)) = it.next() else {
        return Err(bad("expected a class name after `select`"));
    };
    if it.peek().is_none() {
        return Ok(ParsedQuery {
            class_name,
            condition: None,
        });
    }
    match it.next() {
        Some(Token::Ident(kw)) if kw.eq_ignore_ascii_case("where") => {}
        _ => return Err(bad("expected `where` or end of query")),
    }
    let Some(Token::Ident(attr)) = it.next() else {
        return Err(bad("expected an attribute name after `where`"));
    };
    let op = match it.next() {
        Some(Token::Ident(op)) => op.to_ascii_lowercase(),
        _ => return Err(bad("expected a set operator")),
    };

    // Set literal: parenthesized list, or one bare literal.
    let mut elements = Vec::new();
    match it.next() {
        Some(Token::LParen) => loop {
            match it.next() {
                Some(Token::Str(s)) => elements.push(ElementKey::from(s)),
                Some(Token::Int(v)) => elements.push(ElementKey::from(v as u64)),
                Some(Token::RParen) if elements.is_empty() => break,
                _ => return Err(bad("expected a literal in the set")),
            }
            match it.next() {
                Some(Token::Comma) => {}
                Some(Token::RParen) => break,
                _ => return Err(bad("expected `,` or `)` in the set")),
            }
        },
        Some(Token::Str(s)) => elements.push(ElementKey::from(s)),
        Some(Token::Int(v)) => elements.push(ElementKey::from(v as u64)),
        _ => return Err(bad("expected a set literal")),
    }
    if it.next().is_some() {
        return Err(bad("trailing tokens after the set literal"));
    }

    let query = match op.as_str() {
        "has-subset" => SetQuery::has_subset(elements),
        "in-subset" => SetQuery::in_subset(elements),
        "equals" => SetQuery::equals(elements),
        "overlaps" => SetQuery::overlaps(elements),
        "contains" => match (elements.pop(), elements.is_empty()) {
            (Some(element), true) => SetQuery::contains(element),
            _ => return Err(bad("`contains` takes exactly one element")),
        },
        other => return Err(bad(&format!("unknown operator {other:?}"))),
    };
    Ok(ParsedQuery {
        class_name,
        condition: Some((attr, query)),
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
    /// Uses a registered facility over the attribute when available, the
    /// full-scan baseline otherwise; a bare `select <Class>` returns every
    /// object of the class.
    pub fn run_query(&self, text: &str) -> Result<QueryExecution> {
        let parsed = parse_query(text)?;
        let class = self
            .class_by_name(&parsed.class_name)
            .ok_or_else(|| Error::NoSuchClassName(parsed.class_name.clone()))?;
        match parsed.condition {
            None => self.full_scan(class, None),
            Some((attr, query)) => match self.facility_for(class, &attr) {
                Some(idx) => self.execute_set_query(idx, &query),
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
        let p = parse_query(r#"select C where xs-1 has-subset (-5, 9223372036854775807, "a b")"#)
            .unwrap();
        let (attr, query) = p.condition.unwrap();
        assert_eq!(attr, "xs-1");
        let mut want = vec![
            ElementKey::from(-5i64 as u64),
            ElementKey::from(i64::MAX as u64),
            ElementKey::from("a b"),
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
        ] {
            assert!(parse_query(text).is_err(), "{text:?} should fail");
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
        ] {
            let err = parse_query(text).unwrap_err().to_string();
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
