//! Element, set, and query signatures via superimposed coding.

use crate::bitmap::Bitmap;
use crate::config::SignatureConfig;
use crate::element::ElementKey;
use crate::hash::ElementHasher;

/// An `F`-bit signature produced by superimposed coding (§3.1 of the paper).
///
/// * An **element signature** has exactly `m` bits set, placed by hashing
///   the element.
/// * A **set signature** (*target signature* when stored, *query signature*
///   when derived from a query) is the bitwise OR of its elements'
///   signatures.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Signature {
    bits: Bitmap,
}

impl Signature {
    /// The all-zero signature (of the empty set).
    pub fn empty(cfg: &SignatureConfig) -> Self {
        Signature {
            bits: Bitmap::zeroed(cfg.f_bits()),
        }
    }

    /// The element signature of `element`: `m` distinct bits out of `F`.
    pub fn for_element(cfg: &SignatureConfig, element: &ElementKey) -> Self {
        Signature::for_set(cfg, [element])
    }

    /// The set signature of `elements`: OR of the element signatures.
    ///
    /// Duplicates are harmless (OR is idempotent). An empty slice yields the
    /// empty signature.
    pub fn for_set<'a>(
        cfg: &SignatureConfig,
        elements: impl IntoIterator<Item = &'a ElementKey>,
    ) -> Self {
        let hasher = ElementHasher::new(cfg.f_bits(), cfg.seed());
        let mut bits = Bitmap::zeroed(cfg.f_bits());
        let mut positions = Vec::with_capacity(cfg.m_weight() as usize);
        for e in elements {
            hasher.positions_into(e.as_bytes(), cfg.m_weight(), &mut positions);
            positions.iter().for_each(|&p| bits.set(p, true));
        }
        Signature { bits }
    }

    /// The signature whose bits are `bits` (FSSF's frame-sliced encoding).
    pub(crate) fn from_bitmap(bits: Bitmap) -> Self {
        Signature { bits }
    }

    /// Reconstructs a signature from its serialized bytes.
    pub fn from_bytes(f_bits: u32, bytes: &[u8]) -> Self {
        Signature {
            bits: Bitmap::from_bytes(f_bits, bytes),
        }
    }

    /// Serialized form: `⌈F/8⌉` bytes, LSB-first.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.bits.to_bytes()
    }

    /// Width `F` in bits.
    pub fn f_bits(&self) -> u32 {
        self.bits.len()
    }

    /// Number of set bits — `m_t` for a target, `m_q` for a query.
    pub fn weight(&self) -> u32 {
        self.bits.count_ones()
    }

    /// The underlying bitmap.
    pub fn bitmap(&self) -> &Bitmap {
        &self.bits
    }

    /// Superimposes (ORs) `other` onto `self` — incremental set-signature
    /// maintenance when an element is added to a stored set.
    pub fn superimpose(&mut self, other: &Signature) {
        self.bits.or_assign(&other.bits);
    }

    /// Match rule for `T ⊇ Q`: every query bit present in the target.
    /// `self` is the **target** signature.
    pub fn matches_superset_of(&self, query: &Signature) -> bool {
        self.bits.covers(&query.bits)
    }

    /// Match rule for `T ⊆ Q`: every target bit present in the query.
    /// `self` is the **target** signature.
    pub fn matches_subset_of(&self, query: &Signature) -> bool {
        query.bits.covers(&self.bits)
    }

    /// Match rule for set equality: equal sets have equal signatures, so
    /// signature equality is the (one-sided) filter.
    pub fn matches_equals(&self, query: &Signature) -> bool {
        self.bits == query.bits
    }

    /// Match rule for overlap (`T ∩ Q ≠ ∅`): a shared element contributes
    /// the same `m` bits to both signatures, so fewer than `m` common bits
    /// refutes overlap.
    pub fn matches_overlaps(&self, query: &Signature, m_weight: u32) -> bool {
        self.bits.intersection_count(&query.bits) >= m_weight
    }
}

impl std::fmt::Debug for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Signature[F={}, weight={}]",
            self.f_bits(),
            self.weight()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SignatureConfig;

    fn cfg() -> SignatureConfig {
        SignatureConfig::new(64, 3).unwrap()
    }

    fn key(s: &str) -> ElementKey {
        ElementKey::from(s)
    }

    #[test]
    fn element_signature_has_weight_m() {
        let c = cfg();
        for name in ["Baseball", "Fishing", "Tennis", "Golf", "Football"] {
            let sig = Signature::for_element(&c, &key(name));
            assert_eq!(sig.weight(), 3, "element {name}");
        }
    }

    #[test]
    fn set_signature_is_or_of_elements() {
        let c = cfg();
        let e1 = Signature::for_element(&c, &key("Baseball"));
        let e2 = Signature::for_element(&c, &key("Fishing"));
        let set = Signature::for_set(&c, &[key("Baseball"), key("Fishing")]);
        let mut expected = e1.clone();
        expected.superimpose(&e2);
        assert_eq!(set, expected);
        assert!(set.weight() <= 6);
        assert!(set.weight() >= 3);
    }

    #[test]
    fn duplicates_do_not_change_signature() {
        let c = cfg();
        let once = Signature::for_set(&c, &[key("Golf")]);
        let twice = Signature::for_set(&c, &[key("Golf"), key("Golf")]);
        assert_eq!(once, twice);
    }

    #[test]
    fn empty_set_signature_is_zero() {
        let c = cfg();
        let sig = Signature::for_set(&c, &[]);
        assert_eq!(sig.weight(), 0);
        assert_eq!(sig, Signature::empty(&c));
    }

    #[test]
    fn superset_match_never_misses() {
        // Soundness: if T ⊇ Q as sets, the signatures must match.
        let c = cfg();
        let target = Signature::for_set(&c, &[key("Baseball"), key("Golf"), key("Fishing")]);
        let query = Signature::for_set(&c, &[key("Baseball"), key("Fishing")]);
        assert!(target.matches_superset_of(&query));
    }

    #[test]
    fn subset_match_never_misses() {
        let c = cfg();
        let target = Signature::for_set(&c, &[key("Baseball"), key("Football")]);
        let query = Signature::for_set(&c, &[key("Baseball"), key("Football"), key("Tennis")]);
        assert!(target.matches_subset_of(&query));
    }

    #[test]
    fn disjoint_sets_usually_fail_superset_match() {
        // With F=64 elements are unlikely to cover each other; verify at
        // least one definite non-match exists among several disjoint pairs
        // (the filter is one-sided, so we only require "not always match").
        let c = cfg();
        let target = Signature::for_set(&c, &[key("Swimming")]);
        let query = Signature::for_set(&c, &[key("Chess"), key("Skiing"), key("Running")]);
        assert!(!target.matches_superset_of(&query));
    }

    #[test]
    fn equality_filter_accepts_equal_sets() {
        let c = cfg();
        let a = Signature::for_set(&c, &[key("a"), key("b")]);
        let b = Signature::for_set(&c, &[key("b"), key("a")]);
        assert!(a.matches_equals(&b));
    }

    #[test]
    fn overlap_filter_accepts_overlapping_sets() {
        let c = cfg();
        let t = Signature::for_set(&c, &[key("Baseball"), key("Chess")]);
        let q = Signature::for_set(&c, &[key("Baseball"), key("Running")]);
        assert!(t.matches_overlaps(&q, c.m_weight()));
    }

    #[test]
    fn byte_roundtrip() {
        let c = SignatureConfig::new(250, 5).unwrap();
        let sig = Signature::for_set(&c, &[key("x"), key("y"), key("z")]);
        let bytes = sig.to_bytes();
        assert_eq!(bytes.len(), c.signature_bytes());
        let back = Signature::from_bytes(250, &bytes);
        assert_eq!(back, sig);
    }

    #[test]
    fn different_seeds_give_different_codes() {
        let c1 = SignatureConfig::with_seed(64, 3, 1).unwrap();
        let c2 = SignatureConfig::with_seed(64, 3, 2).unwrap();
        let s1 = Signature::for_element(&c1, &key("Baseball"));
        let s2 = Signature::for_element(&c2, &key("Baseball"));
        assert_ne!(s1, s2);
    }
}
