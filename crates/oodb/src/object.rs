//! Objects: OID + class + attribute values, with record encoding.

use setsig_core::Oid;

use crate::error::{Error, Result};
use crate::schema::ClassId;
use crate::value::{skip_values, walk_value, AttrShape, Prim, Value};

/// A stored object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Object {
    /// The object's identity.
    pub oid: Oid,
    /// The class it belongs to.
    pub class: ClassId,
    /// Attribute values in the class's declaration order.
    pub values: Vec<Value>,
}

impl Object {
    /// Serializes the object to its record form:
    /// `oid u64 | class u32 | nvalues u32 | value…`.
    pub fn encode(&self) -> Vec<u8> {
        let len = HEADER + self.values.iter().map(Value::encoded_len).sum::<usize>();
        let mut out = Vec::with_capacity(len);
        out.extend_from_slice(&self.oid.raw().to_le_bytes());
        out.extend_from_slice(&self.class.raw().to_le_bytes());
        out.extend_from_slice(&(self.values.len() as u32).to_le_bytes());
        for v in &self.values {
            v.encode_into(&mut out);
        }
        out
    }

    /// Decodes a record produced by [`encode`](Object::encode).
    pub fn decode(bytes: &[u8]) -> Result<Object> {
        let (oid, class, nvalues) = read_header(bytes)?;
        let mut pos = HEADER;
        let mut values = Vec::with_capacity(nvalues);
        for _ in 0..nvalues {
            values.push(Value::decode(bytes, &mut pos)?);
        }
        check_end(bytes, pos, nvalues)?;
        Ok(Object { oid, class, values })
    }

    /// Reads attribute `attr` of a record in place: hands `visit` the
    /// attribute's value if it is a primitive, or each of its elements, in
    /// stored order, if it is a set, and reports which it was — without
    /// building an [`Object`]. The whole record is checked exactly as
    /// [`decode`](Object::decode) checks it, to its last byte and whatever
    /// `attr` holds, so the two accept the same records; on `Err`, `visit`
    /// may already have been called.
    pub fn walk_attr(
        bytes: &[u8],
        attr: usize,
        visit: &mut dyn FnMut(Prim<'_>),
    ) -> Result<(Oid, AttrShape)> {
        let (oid, _class, nvalues) = read_header(bytes)?;
        let mut pos = HEADER;
        let mut shape = AttrShape::Missing;
        for i in 0..nvalues {
            if i == attr {
                shape = walk_value(bytes, &mut pos, visit)?;
            } else {
                skip_values(bytes, &mut pos, 1)?;
            }
        }
        check_end(bytes, pos, nvalues)?;
        Ok((oid, shape))
    }

    /// The value of attribute `index`.
    pub fn value(&self, index: usize) -> Option<&Value> {
        self.values.get(index)
    }
}

/// Bytes of the record header: `oid u64 | class u32 | nvalues u32`.
const HEADER: usize = 16;

/// Parses and checks the record header: `(oid, class, value count)`.
#[expect(
    clippy::unwrap_used,
    reason = "slice-to-array conversion of a subslice whose length the index expression fixes; cannot fail"
)]
fn read_header(bytes: &[u8]) -> Result<(Oid, ClassId, usize)> {
    if bytes.len() < HEADER {
        return Err(Error::CorruptObject("record shorter than header".into()));
    }
    let raw_oid = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
    if raw_oid > Oid::MAX_VALUE {
        return Err(Error::CorruptObject("oid exceeds 63 bits".into()));
    }
    let class = ClassId(u32::from_le_bytes(bytes[8..12].try_into().unwrap()));
    let nvalues = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    if nvalues > bytes.len() {
        return Err(Error::CorruptObject("value count exceeds record".into()));
    }
    Ok((Oid::new(raw_oid), class, nvalues))
}

/// The values must end where the record does.
fn check_end(bytes: &[u8], pos: usize, nvalues: usize) -> Result<()> {
    if pos != bytes.len() {
        return Err(trailing_bytes(bytes.len() - pos, nvalues));
    }
    Ok(())
}

fn trailing_bytes(extra: usize, nvalues: usize) -> Error {
    Error::CorruptObject(format!("{extra} trailing bytes after {nvalues} values"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Object {
        Object {
            oid: Oid::new(42),
            class: ClassId(3),
            values: vec![
                Value::str("Jeff"),
                Value::set(vec![Value::str("Baseball"), Value::str("Fishing")]),
            ],
        }
    }

    #[test]
    fn record_roundtrip() {
        let obj = sample();
        let back = Object::decode(&obj.encode()).unwrap();
        assert_eq!(back, obj);
    }

    #[test]
    fn a_record_encodes_to_pinned_bytes() {
        // Disk images and `results/` depend on these bytes, the set's
        // element order included: the tag first, Int(256) before Int(-1)
        // (little-endian bytes), "b" before "aa" (length first).
        let obj = Object {
            oid: Oid::new(7),
            class: ClassId(2),
            values: vec![Value::set(vec![
                Value::set(vec![Value::Int(1)]),
                Value::str("aa"),
                Value::Ref(Oid::new(5)),
                Value::Int(-1),
                Value::str("b"),
                Value::Int(256),
                Value::str("b"),
            ])],
        };
        let mut want = vec![7, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0];
        want.extend([3, 6, 0, 0, 0]); // a set of 6
        want.extend([0, 0, 1, 0, 0, 0, 0, 0, 0]); // Int(256)
        want.extend([0, 255, 255, 255, 255, 255, 255, 255, 255]); // Int(-1)
        want.extend([1, 1, 0, 0, 0, b'b']); // "b"
        want.extend([1, 2, 0, 0, 0, b'a', b'a']); // "aa"
        want.extend([2, 5, 0, 0, 0, 0, 0, 0, 0]); // Ref(5)
        want.extend([3, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0]); // {Int(1)}
        assert_eq!(obj.encode(), want);
    }

    #[test]
    fn empty_values_roundtrip() {
        let obj = Object {
            oid: Oid::new(0),
            class: ClassId(0),
            values: vec![],
        };
        assert_eq!(Object::decode(&obj.encode()).unwrap(), obj);
    }

    /// `walk_attr` on `bytes`: its verdict and what it visited, as keys.
    fn walk(bytes: &[u8], attr: usize) -> (Result<(Oid, AttrShape)>, Vec<setsig_core::ElementKey>) {
        let mut seen = Vec::new();
        let out = Object::walk_attr(bytes, attr, &mut |p| seen.push(p.to_element_key()));
        (out, seen)
    }

    #[test]
    fn walk_visits_one_attribute_in_stored_order() {
        // An un-normalised set: "c" sorts before "bb" length-prefixed, and
        // repeats stay.
        let hobbies = vec![Value::str("c"), Value::str("bb"), Value::str("c")];
        let obj = Object {
            oid: Oid::new(42),
            class: ClassId(3),
            values: vec![
                Value::str("Jeff"),
                Value::Set(hobbies.clone()),
                Value::Tuple(vec![Value::Int(1), Value::set(vec![])]),
                Value::Set(vec![Value::Int(7), Value::set(vec![Value::Int(8)])]),
                Value::set(vec![Value::Int(-1), Value::Ref(Oid::new(9))]),
            ],
        };
        let bytes = obj.encode();
        let keys =
            |vs: &[Value]| -> Vec<_> { vs.iter().map(|v| v.to_element_key().unwrap()).collect() };
        let found = |shape| Ok((Oid::new(42), shape));
        assert_eq!(walk(&bytes, 1), (found(AttrShape::PrimSet), keys(&hobbies)));
        assert_eq!(
            walk(&bytes, 0),
            (found(AttrShape::Prim), keys(&[Value::str("Jeff")]))
        );
        assert_eq!(
            walk(&bytes, 4),
            (
                found(AttrShape::PrimSet),
                keys(&[Value::Int(-1), Value::Ref(Oid::new(9))])
            )
        );
        assert_eq!(walk(&bytes, 2), (found(AttrShape::Other), vec![]));
        assert_eq!(walk(&bytes, 3).0, found(AttrShape::Other));
        assert_eq!(walk(&bytes, 5), (found(AttrShape::Missing), vec![]));
    }

    #[test]
    fn a_corrupt_record_is_an_error_wherever_the_walk_was_looking() {
        let good = sample().encode();
        // `sample()` is: header 16 | tag 1, len 4, "Jeff" | tag 3, count 2,
        // (tag 1, len 8, "Baseball"), (tag 1, len 7, "Fishing").
        let name_tag = 16;
        let set_count = name_tag + 9 + 1;
        let last = good.len() - 1;
        let mut cases: Vec<(&str, Vec<u8>)> = vec![
            ("short header", good[..15].to_vec()),
            ("truncated", good[..last].to_vec()),
        ];
        let mut patched = |what, at: usize, bytes: &[u8]| {
            let mut b = good.clone();
            b[at..at + bytes.len()].copy_from_slice(bytes);
            cases.push((what, b));
        };
        patched("oid past 63 bits", 7, &[0x80]);
        patched("value count past the record", 12, &u32::MAX.to_le_bytes());
        patched("one value too many", 12, &3u32.to_le_bytes());
        patched("one value too few", 12, &1u32.to_le_bytes());
        patched("unknown tag, first attribute", name_tag, &[99]);
        patched("unknown tag, last element", last - 7 - 4, &[99]);
        patched("string length past the record", name_tag + 1, &[200]);
        patched(
            "element count past the record",
            set_count,
            &u32::MAX.to_le_bytes(),
        );
        patched("one element too many", set_count, &3u32.to_le_bytes());
        patched("not utf-8, first attribute", name_tag + 5, &[0xff]);
        patched("not utf-8, last byte", last, &[0xff]);
        cases.push(("trailing byte", [good.as_slice(), &[0]].concat()));
        for (what, bytes) in &cases {
            assert!(Object::decode(bytes).is_err(), "decode: {what}");
            // Attribute 0 lies before most of the damage, 1 holds the rest,
            // 2 does not exist: the verdict is the whole record's.
            for attr in 0..3 {
                assert!(walk(bytes, attr).0.is_err(), "walk #{attr}: {what}");
            }
        }
        assert!(Object::decode(&good).is_ok());
        assert!(walk(&good, 1).0.is_ok());
    }

    #[test]
    fn corrupt_records_rejected() {
        assert!(Object::decode(&[]).is_err());
        assert!(Object::decode(&[0u8; 15]).is_err());
        // Trailing garbage.
        let mut bytes = sample().encode();
        bytes.push(0);
        assert!(Object::decode(&bytes).is_err());
        // Truncated values.
        let bytes = sample().encode();
        assert!(Object::decode(&bytes[..bytes.len() - 1]).is_err());
    }
}
