//! Canonical byte representation of set elements.

use crate::oid::Oid;

/// A set element in canonical byte form.
///
/// Signature files index *sets of elements*; the elements may be strings
/// (the paper's `hobbies` attribute), OIDs (the `courses` attribute), or
/// integers (the synthetic workloads, where the domain is `0..V`). All are
/// reduced to a canonical byte string so hashing, sorting and exact
/// verification are uniform:
///
/// * integers and OIDs → 8 bytes little-endian, tagged,
/// * strings / raw bytes → the bytes themselves, tagged.
///
/// The one-byte tag prevents cross-type collisions (the string `"\x01\0…"`
/// can never equal the integer 1).
///
/// A key of at most 22 canonical bytes — every integer and OID key,
/// and a short string — is held in the value itself, so building, cloning
/// and comparing it allocates nothing; a longer one is boxed. Equality,
/// order and hashing are those of [`as_bytes`](ElementKey::as_bytes),
/// whichever way a key is held.
#[derive(Clone)]
pub struct ElementKey(Repr);

/// The most canonical bytes a key holds inline: what keeps an
/// [`ElementKey`] at 24 bytes beside the tag and the length.
const INLINE: usize = 22;

#[derive(Clone)]
enum Repr {
    /// `bytes[..len]`.
    Inline {
        len: u8,
        bytes: [u8; INLINE],
    },
    Heap(Box<[u8]>),
}

const TAG_BYTES: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_OID: u8 = 2;

impl ElementKey {
    /// Builds a key from raw bytes.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        if bytes.len() < INLINE {
            let mut inline = [TAG_BYTES; INLINE];
            inline[1..=bytes.len()].copy_from_slice(bytes);
            return ElementKey::inline(bytes.len() + 1, inline);
        }
        let mut v = Vec::with_capacity(bytes.len() + 1);
        ElementKey::write_raw_bytes(bytes, &mut v);
        ElementKey(Repr::Heap(v.into_boxed_slice()))
    }

    fn inline(len: usize, bytes: [u8; INLINE]) -> Self {
        ElementKey(Repr::Inline {
            len: len as u8,
            bytes,
        })
    }

    /// The key `tag ‖ v` little-endian: the fixed-width form of integers
    /// and OIDs.
    fn fixed(tag: u8, v: u64) -> Self {
        let mut bytes = [0; INLINE];
        bytes[..9].copy_from_slice(&fixed_bytes(tag, v));
        ElementKey::inline(9, bytes)
    }

    /// The canonical bytes of the integer element `v` — what
    /// `ElementKey::from(v).as_bytes()` holds — on the stack, for callers
    /// that compare a stored element without building its key.
    pub fn int_bytes(v: u64) -> [u8; 9] {
        fixed_bytes(TAG_INT, v)
    }

    /// The canonical bytes of the OID element `oid`, on the stack.
    pub fn oid_bytes(oid: Oid) -> [u8; 9] {
        fixed_bytes(TAG_OID, oid.raw())
    }

    /// Overwrites `buf` with the canonical bytes of the string / raw-bytes
    /// element `bytes` (what [`from_bytes`](ElementKey::from_bytes) would
    /// hold), reusing `buf`'s capacity.
    pub fn write_raw_bytes(bytes: &[u8], buf: &mut Vec<u8>) {
        buf.clear();
        buf.push(TAG_BYTES);
        buf.extend_from_slice(bytes);
    }

    /// The canonical bytes, including the type tag. This is what gets
    /// hashed into bit positions and compared during drop resolution.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Heap(bytes) => bytes,
        }
    }

    /// An 8-byte digest of the key, used by the nested index as its fixed-
    /// width B-tree key (the paper's `kl = 8` bytes, Table 4).
    ///
    /// For integer and OID elements the digest is the value itself, so the
    /// index is exact on the synthetic workloads; for strings it is a hash,
    /// making string-keyed NIX lookups exact up to 64-bit collisions.
    pub fn digest8(&self) -> u64 {
        match self.as_bytes() {
            [TAG_INT | TAG_OID, v @ ..] => le_u64(v),
            bytes => crate::hash::element_hash(bytes, 0x6e1_57ed),
        }
    }

    /// `(tag, v.swap_bytes())` of a 9-byte key `tag ‖ v` (`v` little-endian,
    /// as integer and OID keys are): two integers in the key's byte order.
    fn word(&self) -> Option<(u8, u64)> {
        match &self.0 {
            Repr::Inline { len: 9, bytes } => Some((bytes[0], le_u64(&bytes[1..]).swap_bytes())),
            _ => None,
        }
    }
}

/// The `u64` whose little-endian bytes are `v[..8]`.
fn le_u64(v: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&v[..8]);
    u64::from_le_bytes(b)
}

impl PartialEq for ElementKey {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for ElementKey {}

impl Ord for ElementKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        match (self.word(), other.word()) {
            (Some(a), Some(b)) => a.cmp(&b),
            _ => self.as_bytes().cmp(other.as_bytes()),
        }
    }
}

impl PartialOrd for ElementKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl std::hash::Hash for ElementKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl From<&str> for ElementKey {
    fn from(s: &str) -> Self {
        ElementKey::from_bytes(s.as_bytes())
    }
}

impl From<&&str> for ElementKey {
    fn from(s: &&str) -> Self {
        ElementKey::from_bytes(s.as_bytes())
    }
}

impl From<String> for ElementKey {
    fn from(s: String) -> Self {
        ElementKey::from_bytes(s.as_bytes())
    }
}

/// `tag ‖ v` little-endian: the fixed-width key form of integers and OIDs.
fn fixed_bytes(tag: u8, v: u64) -> [u8; 9] {
    let mut key = [tag; 9];
    key[1..].copy_from_slice(&v.to_le_bytes());
    key
}

impl From<u64> for ElementKey {
    fn from(v: u64) -> Self {
        ElementKey::fixed(TAG_INT, v)
    }
}

impl From<Oid> for ElementKey {
    fn from(oid: Oid) -> Self {
        ElementKey::fixed(TAG_OID, oid.raw())
    }
}

impl std::fmt::Debug for ElementKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.as_bytes().split_first() {
            Some((&TAG_BYTES, rest)) => match std::str::from_utf8(rest) {
                Ok(s) => write!(f, "Elem({s:?})"),
                Err(_) => write!(f, "Elem({} bytes)", rest.len()),
            },
            Some((&TAG_INT, rest)) => write!(f, "Elem({})", le_u64(rest)),
            Some((&TAG_OID, rest)) => write!(f, "Elem(oid:{})", le_u64(rest)),
            _ => write!(f, "Elem(<empty>)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_type_keys_never_collide() {
        let s = ElementKey::from_bytes(&1u64.to_le_bytes());
        let i = ElementKey::from(1u64);
        let o = ElementKey::from(Oid::new(1));
        assert_ne!(s, i);
        assert_ne!(i, o);
        assert_ne!(s, o);
    }

    #[test]
    fn stack_key_bytes_are_the_heap_keys_bytes() {
        for v in [0u64, 1, 255, 256, u64::MAX] {
            assert_eq!(ElementKey::int_bytes(v), ElementKey::from(v).as_bytes());
        }
        let oid = Oid::new(Oid::MAX_VALUE);
        assert_eq!(ElementKey::oid_bytes(oid), ElementKey::from(oid).as_bytes());
        let mut buf = vec![9, 9, 9];
        ElementKey::write_raw_bytes(b"Golf", &mut buf);
        assert_eq!(buf, ElementKey::from("Golf").as_bytes());
    }

    #[test]
    fn a_key_stays_24_bytes_and_short_keys_stay_inline() {
        assert!(std::mem::size_of::<ElementKey>() <= 24);
        let inline = |k: &ElementKey| matches!(k.0, Repr::Inline { .. });
        assert!(inline(&ElementKey::from(u64::MAX)));
        assert!(inline(&ElementKey::from(Oid::new(7))));
        assert!(inline(&ElementKey::from_bytes(&[0xff; INLINE - 1])));
        let long = ElementKey::from_bytes(&[0xff; INLINE]);
        assert!(!inline(&long));
        assert_eq!(long.as_bytes().len(), INLINE + 1);
    }

    #[test]
    fn string_conversions_agree() {
        let a = ElementKey::from("Baseball");
        let b = ElementKey::from(String::from("Baseball"));
        let c = ElementKey::from_bytes(b"Baseball");
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn digest8_is_identity_for_ints_and_oids() {
        assert_eq!(ElementKey::from(12345u64).digest8(), 12345);
        assert_eq!(ElementKey::from(Oid::new(7)).digest8(), 7);
    }

    #[test]
    fn digest8_for_strings_is_stable_and_spread() {
        let a = ElementKey::from("Baseball").digest8();
        let b = ElementKey::from("Baseball").digest8();
        let c = ElementKey::from("Fishing").digest8();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![
            ElementKey::from(2u64),
            ElementKey::from("a"),
            ElementKey::from(1u64),
        ];
        v.sort();
        v.dedup();
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn debug_renders_readably() {
        assert_eq!(format!("{:?}", ElementKey::from("x")), "Elem(\"x\")");
        assert_eq!(format!("{:?}", ElementKey::from(3u64)), "Elem(3)");
        assert_eq!(
            format!("{:?}", ElementKey::from(Oid::new(3))),
            "Elem(oid:3)"
        );
    }
}
