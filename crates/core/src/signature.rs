//! The superimposed-coding encoder (§3.1 of the paper).
//!
//! A signature is an `F`-bit [`Bitmap`]:
//!
//! * an **element signature** has exactly `m` bits set, placed by hashing
//!   the element;
//! * a **set signature** (*target signature* when stored, *query signature*
//!   when derived from a query) is the bitwise OR of its elements'
//!   signatures.

use crate::bitmap::Bitmap;
use crate::config::SignatureConfig;
use crate::element::ElementKey;
use crate::hash::ElementHasher;

impl SignatureConfig {
    /// The set signature of `elements`: OR of the element signatures.
    ///
    /// Duplicates are harmless (OR is idempotent). No elements yield the
    /// all-zero signature.
    pub fn signature<'a>(&self, elements: impl IntoIterator<Item = &'a ElementKey>) -> Bitmap {
        let hasher = ElementHasher::new(self.f_bits(), self.seed());
        let mut bits = Bitmap::zeroed(self.f_bits());
        let mut positions = Vec::with_capacity(self.m_weight() as usize);
        for e in elements {
            hasher.positions_into(e.as_bytes(), self.m_weight(), &mut positions);
            positions.iter().for_each(|&p| bits.set(p, true));
        }
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            let sig = c.signature([&key(name)]);
            assert_eq!(sig.count_ones(), 3, "element {name}");
        }
    }

    #[test]
    fn set_signature_is_or_of_elements() {
        let c = cfg();
        let e1 = c.signature([&key("Baseball")]);
        let e2 = c.signature([&key("Fishing")]);
        let set = c.signature(&[key("Baseball"), key("Fishing")]);
        let mut expected = e1.clone();
        expected.or_assign(&e2);
        assert_eq!(set, expected);
        assert!(set.count_ones() <= 6);
        assert!(set.count_ones() >= 3);
    }

    #[test]
    fn duplicates_do_not_change_signature() {
        let c = cfg();
        let once = c.signature(&[key("Golf")]);
        let twice = c.signature(&[key("Golf"), key("Golf")]);
        assert_eq!(once, twice);
    }

    #[test]
    fn empty_set_signature_is_zero() {
        let c = cfg();
        let sig = c.signature(&[]);
        assert_eq!(sig, Bitmap::zeroed(c.f_bits()));
    }

    #[test]
    fn superset_match_never_misses() {
        // Soundness: if T ⊇ Q as sets, the signatures must match.
        let c = cfg();
        let target = c.signature(&[key("Baseball"), key("Golf"), key("Fishing")]);
        let query = c.signature(&[key("Baseball"), key("Fishing")]);
        assert!(target.covers(&query));
    }

    #[test]
    fn subset_match_never_misses() {
        let c = cfg();
        let target = c.signature(&[key("Baseball"), key("Football")]);
        let query = c.signature(&[key("Baseball"), key("Football"), key("Tennis")]);
        assert!(query.covers(&target));
    }

    #[test]
    fn disjoint_sets_usually_fail_superset_match() {
        // With F=64 elements are unlikely to cover each other; verify at
        // least one definite non-match exists among several disjoint pairs
        // (the filter is one-sided, so we only require "not always match").
        let c = cfg();
        let target = c.signature(&[key("Swimming")]);
        let query = c.signature(&[key("Chess"), key("Skiing"), key("Running")]);
        assert!(!target.covers(&query));
    }

    #[test]
    fn equality_filter_accepts_equal_sets() {
        let c = cfg();
        let a = c.signature(&[key("a"), key("b")]);
        let b = c.signature(&[key("b"), key("a")]);
        assert_eq!(a, b);
    }

    #[test]
    fn overlap_filter_accepts_overlapping_sets() {
        let c = cfg();
        let t = c.signature(&[key("Baseball"), key("Chess")]);
        let q = c.signature(&[key("Baseball"), key("Running")]);
        assert!(t.intersection_count(&q) >= c.m_weight());
    }

    #[test]
    fn byte_roundtrip() {
        let c = SignatureConfig::new(250, 5).unwrap();
        let sig = c.signature(&[key("x"), key("y"), key("z")]);
        let bytes = sig.to_bytes();
        assert_eq!(bytes.len(), c.signature_bytes());
        let back = Bitmap::from_bytes(250, &bytes);
        assert_eq!(back, sig);
    }

    #[test]
    fn different_seeds_give_different_codes() {
        let c1 = SignatureConfig::with_seed(64, 3, 1).unwrap();
        let c2 = SignatureConfig::with_seed(64, 3, 2).unwrap();
        let s1 = c1.signature([&key("Baseball")]);
        let s2 = c2.signature([&key("Baseball")]);
        assert_ne!(s1, s2);
    }
}
