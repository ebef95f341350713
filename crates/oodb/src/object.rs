//! Objects: OID + class + attribute values, with record encoding.

use setsig_core::Oid;

use crate::error::{Error, Result};
use crate::schema::ClassId;
use crate::value::Value;

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
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(&self.oid.raw().to_le_bytes());
        out.extend_from_slice(&self.class.raw().to_le_bytes());
        out.extend_from_slice(&(self.values.len() as u32).to_le_bytes());
        for v in &self.values {
            out.extend_from_slice(&v.encode());
        }
        out
    }

    /// Decodes a record produced by [`encode`](Object::encode).
    #[expect(
        clippy::unwrap_used,
        reason = "slice-to-array conversion of a subslice whose length the index expression fixes; cannot fail"
    )]
    pub fn decode(bytes: &[u8]) -> Result<Object> {
        if bytes.len() < 16 {
            return Err(Error::CorruptObject("record shorter than header".into()));
        }
        let raw_oid = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
        if raw_oid > Oid::MAX_VALUE {
            return Err(Error::CorruptObject("oid exceeds 63 bits".into()));
        }
        let oid = Oid::new(raw_oid);
        let class = ClassId(u32::from_le_bytes(bytes[8..12].try_into().unwrap()));
        let nvalues = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        if nvalues > bytes.len() {
            return Err(Error::CorruptObject("value count exceeds record".into()));
        }
        let mut pos = 16;
        let mut values = Vec::with_capacity(nvalues);
        for _ in 0..nvalues {
            values.push(Value::decode(bytes, &mut pos)?);
        }
        if pos != bytes.len() {
            return Err(Error::CorruptObject(format!(
                "{} trailing bytes after {} values",
                bytes.len() - pos,
                nvalues
            )));
        }
        Ok(Object { oid, class, values })
    }

    /// The value of attribute `index`.
    pub fn value(&self, index: usize) -> Option<&Value> {
        self.values.get(index)
    }
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
    fn empty_values_roundtrip() {
        let obj = Object {
            oid: Oid::new(0),
            class: ClassId(0),
            values: vec![],
        };
        assert_eq!(Object::decode(&obj.encode()).unwrap(), obj);
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
