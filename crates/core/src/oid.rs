//! Object identifiers.

/// An object identifier — the paper's 8-byte `oid` (Table 2).
///
/// OIDs are opaque 63-bit values; the top bit is reserved by the
/// [`OidFile`](crate::OidFile) as its tombstone flag, which keeps OID-file
/// entries at exactly 8 bytes and therefore the paper's `O_p = ⌊P/oid⌋ = 512`
/// entries per page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Oid(u64);

impl Oid {
    /// Largest representable OID value.
    pub const MAX_VALUE: u64 = (1 << 63) - 1;

    /// Creates an OID. Panics if `v` exceeds 63 bits.
    pub fn new(v: u64) -> Self {
        assert!(v <= Self::MAX_VALUE, "oid {v} exceeds 63 bits");
        Oid(v)
    }

    /// The raw value.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for Oid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "oid:{}", self.0)
    }
}

impl From<Oid> for u64 {
    fn from(oid: Oid) -> u64 {
        oid.0
    }
}

/// A monotonically increasing OID allocator.
#[derive(Debug, Default, Clone)]
pub struct OidAllocator {
    next: u64,
}

impl OidAllocator {
    /// Creates an allocator starting at 0.
    pub fn new() -> Self {
        OidAllocator { next: 0 }
    }

    /// Allocates the next OID.
    pub fn allocate(&mut self) -> Oid {
        let oid = Oid::new(self.next);
        self.next += 1;
        oid
    }

    /// Value the next allocation will use.
    pub fn peek(&self) -> u64 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let oid = Oid::new(12345);
        assert_eq!(oid.raw(), 12345);
        assert_eq!(u64::from(oid), 12345);
        assert_eq!(oid.to_string(), "oid:12345");
    }

    #[test]
    fn max_value_ok() {
        let oid = Oid::new(Oid::MAX_VALUE);
        assert_eq!(oid.raw(), (1 << 63) - 1);
    }

    #[test]
    #[should_panic]
    fn oversized_rejected() {
        let _ = Oid::new(1 << 63);
    }

    #[test]
    fn allocator_is_sequential() {
        let mut a = OidAllocator::new();
        assert_eq!(a.allocate(), Oid::new(0));
        assert_eq!(a.allocate(), Oid::new(1));
        assert_eq!(a.peek(), 2);
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(Oid::new(1) < Oid::new(2));
    }
}
