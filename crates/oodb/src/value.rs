//! The complex-object value model and its binary encoding.

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

    /// Convenience constructor for sets, normalizing (sort + dedup) the
    /// elements so two equal sets have equal representations.
    pub fn set(mut elems: Vec<Value>) -> Value {
        elems.sort_by_key(Value::sort_key);
        elems.dedup();
        Value::Set(elems)
    }

    /// A total order key used only for set normalization.
    fn sort_key(&self) -> Vec<u8> {
        self.encode()
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

    /// Converts a primitive value into the canonical element form used by
    /// the signature and index layers. Sets and tuples are not elements.
    pub fn to_element_key(&self) -> Option<ElementKey> {
        match self {
            Value::Int(v) => Some(ElementKey::from(*v as u64)),
            Value::Str(s) => Some(ElementKey::from(s.as_str())),
            Value::Ref(oid) => Some(ElementKey::from(*oid)),
            Value::Set(_) | Value::Tuple(_) => None,
        }
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
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Value::Int(v) => {
                out.push(TAG_INT);
                out.extend_from_slice(&v.to_le_bytes());
            }
            Value::Str(s) => {
                out.push(TAG_STR);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Ref(oid) => {
                out.push(TAG_REF);
                out.extend_from_slice(&oid.raw().to_le_bytes());
            }
            Value::Set(elems) => {
                out.push(TAG_SET);
                out.extend_from_slice(&(elems.len() as u32).to_le_bytes());
                for e in elems {
                    e.encode_into(out);
                }
            }
            Value::Tuple(elems) => {
                out.push(TAG_TUPLE);
                out.extend_from_slice(&(elems.len() as u32).to_le_bytes());
                for e in elems {
                    e.encode_into(out);
                }
            }
        }
    }

    /// Deserializes one value from `bytes` starting at `*pos`, advancing it.
    #[expect(
        clippy::unwrap_used,
        reason = "slice-to-array conversion of a subslice whose length the index expression fixes; cannot fail"
    )]
    pub fn decode(bytes: &[u8], pos: &mut usize) -> Result<Value> {
        let corrupt = |msg: &str| Error::CorruptObject(msg.to_owned());
        let tag = *bytes.get(*pos).ok_or_else(|| corrupt("truncated tag"))?;
        *pos += 1;
        match tag {
            TAG_INT => {
                let raw = bytes
                    .get(*pos..*pos + 8)
                    .ok_or_else(|| corrupt("truncated int"))?;
                *pos += 8;
                Ok(Value::Int(i64::from_le_bytes(raw.try_into().unwrap())))
            }
            TAG_STR => {
                let len = read_u32(bytes, pos)? as usize;
                let raw = bytes
                    .get(*pos..*pos + len)
                    .ok_or_else(|| corrupt("truncated string"))?;
                *pos += len;
                Ok(Value::Str(
                    String::from_utf8(raw.to_vec()).map_err(|_| corrupt("string not utf-8"))?,
                ))
            }
            TAG_REF => {
                let raw = bytes
                    .get(*pos..*pos + 8)
                    .ok_or_else(|| corrupt("truncated ref"))?;
                *pos += 8;
                let v = u64::from_le_bytes(raw.try_into().unwrap());
                if v > Oid::MAX_VALUE {
                    return Err(corrupt("ref exceeds the 63-bit OID space"));
                }
                Ok(Value::Ref(Oid::new(v)))
            }
            TAG_SET | TAG_TUPLE => {
                let len = read_u32(bytes, pos)? as usize;
                if len > bytes.len() {
                    return Err(corrupt("collection length exceeds record"));
                }
                let mut elems = Vec::with_capacity(len);
                for _ in 0..len {
                    elems.push(Value::decode(bytes, pos)?);
                }
                Ok(if tag == TAG_SET {
                    Value::Set(elems)
                } else {
                    Value::Tuple(elems)
                })
            }
            other => Err(Error::CorruptObject(format!("unknown value tag {other}"))),
        }
    }
}

#[expect(
    clippy::unwrap_used,
    reason = "slice-to-array conversion of a subslice whose length the index expression fixes; cannot fail"
)]
fn read_u32(bytes: &[u8], pos: &mut usize) -> Result<u32> {
    let raw = bytes
        .get(*pos..*pos + 4)
        .ok_or_else(|| Error::CorruptObject("truncated length".into()))?;
    *pos += 4;
    Ok(u32::from_le_bytes(raw.try_into().unwrap()))
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
