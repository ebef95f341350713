//! The complex-object value model and its binary encoding.

use std::cmp::Ordering;

use setsig_core::{ElementKey, Oid};

use crate::error::{Error, Result};

/// A value built from the OODB data modeling constructs: primitives, object
/// references, and the set and tuple constructors of §1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A 64-bit integer.
    Int(i64),
    /// A UTF-8 string.
    Str(String),
    /// A reference to another object (e.g. `Student.courses` holding
    /// `Course` OIDs).
    Ref(Oid),
    /// A set value; order-insensitive, duplicates removed on normalization.
    Set(Vec<Value>),
    /// A tuple value (nested structure).
    Tuple(Vec<Value>),
}

const TAG_INT: u8 = 0;
const TAG_STR: u8 = 1;
const TAG_REF: u8 = 2;
const TAG_SET: u8 = 3;
const TAG_TUPLE: u8 = 4;

impl Value {
    /// Convenience constructor for strings.
    pub fn str(s: &str) -> Value {
        Value::Str(s.to_owned())
    }

    /// Convenience constructor for sets, normalizing the elements so two
    /// equal sets have equal representations: sorted in the byte order of
    /// their [`encode`](Value::encode) output — computed by
    /// [`cmp_encoded`](Value::cmp_encoded), without encoding anything — and
    /// deduplicated. Stored records and every signature hashed from them
    /// depend on this order.
    pub fn set(mut elems: Vec<Value>) -> Value {
        elems.sort_unstable_by(Value::cmp_encoded);
        elems.dedup();
        Value::Set(elems)
    }

    /// Orders two values exactly as `self.encode().cmp(&other.encode())`
    /// would, allocating nothing: the tag first, then integers and
    /// references by their little-endian bytes, strings by their
    /// little-endian `u32` length bytes and then their bytes, and sets and
    /// tuples by their length bytes and then element by element. The
    /// encoding is prefix-free, so the first unequal element decides the
    /// byte order of the concatenation.
    pub fn cmp_encoded(&self, other: &Value) -> Ordering {
        let len_bytes = |n: usize| (n as u32).to_le_bytes();
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.to_le_bytes().cmp(&b.to_le_bytes()),
            (Value::Ref(a), Value::Ref(b)) => a.raw().to_le_bytes().cmp(&b.raw().to_le_bytes()),
            (Value::Str(a), Value::Str(b)) => (len_bytes(a.len()).cmp(&len_bytes(b.len())))
                .then_with(|| a.as_bytes().cmp(b.as_bytes())),
            (Value::Set(a), Value::Set(b)) | (Value::Tuple(a), Value::Tuple(b)) => {
                (len_bytes(a.len()).cmp(&len_bytes(b.len()))).then_with(|| {
                    (a.iter().zip(b).map(|(x, y)| x.cmp_encoded(y)))
                        .find(|o| o.is_ne())
                        .unwrap_or(Ordering::Equal)
                })
            }
            _ => self.tag().cmp(&other.tag()),
        }
    }

    /// The first byte of the value's encoding.
    fn tag(&self) -> u8 {
        match self {
            Value::Int(_) => TAG_INT,
            Value::Str(_) => TAG_STR,
            Value::Ref(_) => TAG_REF,
            Value::Set(_) => TAG_SET,
            Value::Tuple(_) => TAG_TUPLE,
        }
    }

    /// The name of the value's shape, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Str(_) => "str",
            Value::Ref(_) => "ref",
            Value::Set(_) => "set",
            Value::Tuple(_) => "tuple",
        }
    }

    /// The value as a borrowed primitive; `None` for sets and tuples.
    fn as_prim(&self) -> Option<Prim<'_>> {
        match self {
            Value::Int(v) => Some(Prim::Int(*v)),
            Value::Str(s) => Some(Prim::Str(s)),
            Value::Ref(oid) => Some(Prim::Ref(*oid)),
            Value::Set(_) | Value::Tuple(_) => None,
        }
    }

    /// Converts a primitive value into the canonical element form used by
    /// the signature and index layers. Sets and tuples are not elements.
    pub fn to_element_key(&self) -> Option<ElementKey> {
        self.as_prim().map(|p| p.to_element_key())
    }

    /// If this is a set of primitives, its elements in canonical form.
    pub fn as_element_set(&self) -> Option<Vec<ElementKey>> {
        match self {
            Value::Set(elems) => elems.iter().map(Value::to_element_key).collect(),
            _ => None,
        }
    }

    /// Serializes to the tagged binary format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// The length of [`encode`](Value::encode)'s output.
    pub(crate) fn encoded_len(&self) -> usize {
        match self {
            Value::Int(_) | Value::Ref(_) => 9,
            Value::Str(s) => 5 + s.len(),
            Value::Set(elems) | Value::Tuple(elems) => {
                5 + elems.iter().map(Value::encoded_len).sum::<usize>()
            }
        }
    }

    /// Appends [`encode`](Value::encode)'s output to `out`.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(self.tag());
        match self {
            Value::Int(v) => out.extend_from_slice(&v.to_le_bytes()),
            Value::Ref(oid) => out.extend_from_slice(&oid.raw().to_le_bytes()),
            Value::Str(s) => {
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Set(elems) | Value::Tuple(elems) => {
                out.extend_from_slice(&(elems.len() as u32).to_le_bytes());
                for e in elems {
                    e.encode_into(out);
                }
            }
        }
    }

    /// Deserializes one value from `bytes` starting at `*pos`, advancing it.
    pub fn decode(bytes: &[u8], pos: &mut usize) -> Result<Value> {
        Ok(match next_token(bytes, pos)? {
            Token::Prim(Prim::Int(v)) => Value::Int(v),
            Token::Prim(Prim::Str(s)) => Value::Str(s.to_owned()),
            Token::Prim(Prim::Ref(oid)) => Value::Ref(oid),
            Token::Set(len) => Value::Set(decode_many(bytes, pos, len)?),
            Token::Tuple(len) => Value::Tuple(decode_many(bytes, pos, len)?),
        })
    }
}

fn decode_many(bytes: &[u8], pos: &mut usize, len: usize) -> Result<Vec<Value>> {
    let mut elems = Vec::with_capacity(len);
    for _ in 0..len {
        elems.push(Value::decode(bytes, pos)?);
    }
    Ok(elems)
}

/// A primitive value read in place from a stored record: a set element, or
/// the attribute a path index reads off a referenced object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prim<'a> {
    /// A 64-bit integer.
    Int(i64),
    /// A UTF-8 string, borrowed from the record.
    Str(&'a str),
    /// A reference to another object.
    Ref(Oid),
}

impl Prim<'_> {
    /// The canonical element form — [`Value::to_element_key`] of the value
    /// this was read from.
    pub fn to_element_key(&self) -> ElementKey {
        match *self {
            Prim::Int(v) => ElementKey::from(v as u64),
            Prim::Str(s) => ElementKey::from(s),
            Prim::Ref(oid) => ElementKey::from(oid),
        }
    }

    /// Hands `f` the bytes `self.to_element_key().as_bytes()` would hold
    /// without building the key: integers and references on the stack,
    /// strings in `buf` (overwritten; its capacity is what is reused).
    pub fn with_key_bytes(&self, buf: &mut Vec<u8>, f: &mut dyn FnMut(&[u8])) {
        match *self {
            Prim::Int(v) => f(&ElementKey::int_bytes(v as u64)),
            Prim::Ref(oid) => f(&ElementKey::oid_bytes(oid)),
            Prim::Str(s) => {
                ElementKey::write_raw_bytes(s.as_bytes(), buf);
                f(buf);
            }
        }
    }
}

/// What one attribute of a stored record turned out to hold, as
/// [`Object::walk_attr`](crate::Object::walk_attr) found it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrShape {
    /// The record has no attribute at that index.
    Missing,
    /// One primitive, which was visited.
    Prim,
    /// A set of primitives, each of which was visited.
    PrimSet,
    /// A tuple, or a set holding a set or a tuple; whatever primitives a
    /// set held directly were visited, and the caller discards them.
    Other,
}

/// One step of the tagged encoding: a whole primitive, or the header of a
/// collection whose `len` values follow.
pub(crate) enum Token<'a> {
    Prim(Prim<'a>),
    Set(usize),
    Tuple(usize),
}

/// Reads the token at `*pos`, advancing past it. Every check the encoding
/// admits is made here, so [`Value::decode`] and the in-place walk accept
/// exactly the same bytes.
pub(crate) fn next_token<'a>(bytes: &'a [u8], pos: &mut usize) -> Result<Token<'a>> {
    let tag = take::<1>(bytes, pos, "truncated tag")?[0];
    match tag {
        TAG_INT => {
            let raw = take::<8>(bytes, pos, "truncated int")?;
            Ok(Token::Prim(Prim::Int(i64::from_le_bytes(raw))))
        }
        TAG_STR => {
            let len = u32::from_le_bytes(take::<4>(bytes, pos, "truncated length")?) as usize;
            let raw = take_slice(bytes, pos, len, "truncated string")?;
            let s = std::str::from_utf8(raw).map_err(|_| corrupt("string not utf-8"))?;
            Ok(Token::Prim(Prim::Str(s)))
        }
        TAG_REF => {
            let v = u64::from_le_bytes(take::<8>(bytes, pos, "truncated ref")?);
            if v > Oid::MAX_VALUE {
                return Err(corrupt("ref exceeds the 63-bit OID space"));
            }
            Ok(Token::Prim(Prim::Ref(Oid::new(v))))
        }
        TAG_SET | TAG_TUPLE => {
            let len = u32::from_le_bytes(take::<4>(bytes, pos, "truncated length")?) as usize;
            if len > bytes.len() {
                return Err(corrupt("collection length exceeds record"));
            }
            Ok(if tag == TAG_SET {
                Token::Set(len)
            } else {
                Token::Tuple(len)
            })
        }
        other => Err(unknown_tag(other)),
    }
}

/// The `len` bytes at `*pos`, advancing past them; `Err(what)` if the
/// record ends first (or `*pos` is already past its end).
fn take_slice<'a>(
    bytes: &'a [u8],
    pos: &mut usize,
    len: usize,
    what: &'static str,
) -> Result<&'a [u8]> {
    let end = pos.checked_add(len).ok_or_else(|| corrupt(what))?;
    let raw = bytes.get(*pos..end).ok_or_else(|| corrupt(what))?;
    *pos = end;
    Ok(raw)
}

/// [`take_slice`] for a field of fixed width.
fn take<const N: usize>(bytes: &[u8], pos: &mut usize, what: &'static str) -> Result<[u8; N]> {
    let mut field = [0u8; N];
    field.copy_from_slice(take_slice(bytes, pos, N, what)?);
    Ok(field)
}

fn corrupt(msg: &str) -> Error {
    Error::CorruptObject(msg.to_owned())
}

fn unknown_tag(tag: u8) -> Error {
    Error::CorruptObject(format!("unknown value tag {tag}"))
}

/// Walks the value at `*pos` as the attribute a caller asked for: visits it
/// if it is a primitive, its elements if it is a set, and reports which.
pub(crate) fn walk_value(
    bytes: &[u8],
    pos: &mut usize,
    visit: &mut dyn FnMut(Prim<'_>),
) -> Result<AttrShape> {
    match next_token(bytes, pos)? {
        Token::Prim(p) => {
            visit(p);
            Ok(AttrShape::Prim)
        }
        Token::Tuple(len) => {
            skip_values(bytes, pos, len)?;
            Ok(AttrShape::Other)
        }
        Token::Set(len) => {
            let mut shape = AttrShape::PrimSet;
            for _ in 0..len {
                match next_token(bytes, pos)? {
                    Token::Prim(p) => visit(p),
                    Token::Set(inner) | Token::Tuple(inner) => {
                        shape = AttrShape::Other;
                        skip_values(bytes, pos, inner)?;
                    }
                }
            }
            Ok(shape)
        }
    }
}

/// Advances past `count` values, checking each as [`Value::decode`] would
/// and building nothing; nesting is a count of values still owed, not a
/// call stack.
pub(crate) fn skip_values(bytes: &[u8], pos: &mut usize, count: usize) -> Result<()> {
    let mut owed = count;
    while owed > 0 {
        owed -= 1;
        if let Token::Set(len) | Token::Tuple(len) = next_token(bytes, pos)? {
            owed = owed.saturating_add(len);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) -> Value {
        let bytes = v.encode();
        let mut pos = 0;
        let back = Value::decode(&bytes, &mut pos).unwrap();
        assert_eq!(pos, bytes.len(), "decoder must consume everything");
        back
    }

    #[test]
    fn primitive_roundtrips() {
        for v in [
            Value::Int(0),
            Value::Int(-42),
            Value::Int(i64::MAX),
            Value::str(""),
            Value::str("Jeff"),
            Value::Ref(Oid::new(123)),
        ] {
            assert_eq!(roundtrip(&v), v);
        }
    }

    #[test]
    fn nested_roundtrip_like_paper_student() {
        // s1: [name: "Jeff", courses: {c1, c3, c4}, hobbies: {"Baseball",
        // "Fishing"}]
        let student = Value::Tuple(vec![
            Value::str("Jeff"),
            Value::set(vec![
                Value::Ref(Oid::new(1)),
                Value::Ref(Oid::new(3)),
                Value::Ref(Oid::new(4)),
            ]),
            Value::set(vec![Value::str("Baseball"), Value::str("Fishing")]),
        ]);
        assert_eq!(roundtrip(&student), student);
    }

    #[test]
    fn set_normalization_makes_equal_sets_equal() {
        let a = Value::set(vec![Value::str("b"), Value::str("a"), Value::str("b")]);
        let b = Value::set(vec![Value::str("a"), Value::str("b")]);
        assert_eq!(a, b);
        if let Value::Set(elems) = &a {
            assert_eq!(elems.len(), 2);
        } else {
            panic!("not a set");
        }
    }

    #[test]
    fn element_key_conversion() {
        assert!(Value::Int(3).to_element_key().is_some());
        assert!(Value::str("x").to_element_key().is_some());
        assert!(Value::Ref(Oid::new(1)).to_element_key().is_some());
        assert!(Value::set(vec![]).to_element_key().is_none());
        let set = Value::set(vec![Value::str("a"), Value::str("b")]);
        assert_eq!(set.as_element_set().unwrap().len(), 2);
        // A set containing a nested set is not an indexable element set.
        let nested = Value::Set(vec![Value::set(vec![])]);
        assert!(nested.as_element_set().is_none());
    }

    #[test]
    fn corrupt_records_are_rejected_not_panicking() {
        for bytes in [
            vec![],                            // empty
            vec![99],                          // unknown tag
            vec![TAG_INT, 1, 2],               // truncated int
            vec![TAG_STR, 10, 0, 0, 0, b'a'],  // truncated string
            vec![TAG_SET, 255, 255, 255, 255], // absurd length
        ] {
            let mut pos = 0;
            assert!(Value::decode(&bytes, &mut pos).is_err(), "bytes {bytes:?}");
        }
        // A start past the end is the caller's mistake, and an error too.
        assert!(Value::decode(&[TAG_INT], &mut 5).is_err());
    }
}

#[cfg(test)]
mod corrupt_ref_tests {
    use super::*;

    #[test]
    fn oversized_ref_is_an_error_not_a_panic() {
        let mut bytes = vec![TAG_REF];
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        let mut pos = 0;
        assert!(matches!(
            Value::decode(&bytes, &mut pos),
            Err(Error::CorruptObject(_))
        ));
    }
}
