//! Set predicates and queries.

use crate::bitmap::Bitmap;
use crate::config::SignatureConfig;
use crate::element::ElementKey;
use crate::error::{Error, Result};
use crate::sorted;

/// The set comparison operators of §2.
///
/// The paper analyzes [`HasSubset`](SetPredicate::HasSubset) (`T ⊇ Q`) and
/// [`InSubset`](SetPredicate::InSubset) (`T ⊆ Q`) in depth and lists the
/// others as variations; all five are implemented here (equality, overlap
/// and membership are the "other set operations" named as further work in
/// §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetPredicate {
    /// `target ⊇ query` — the query's `has-subset`. Query Q1 of the paper.
    HasSubset,
    /// `target ⊆ query` — the query's `in-subset`. Query Q2 of the paper.
    InSubset,
    /// `target = query` — set equality.
    Equals,
    /// `target ∩ query ≠ ∅` — the overlap operator.
    Overlaps,
    /// `element ∈ target` — membership; a singleton `HasSubset`.
    Contains,
}

impl SetPredicate {
    /// The paper's notation for the predicate.
    pub fn notation(self) -> &'static str {
        match self {
            SetPredicate::HasSubset => "T ⊇ Q",
            SetPredicate::InSubset => "T ⊆ Q",
            SetPredicate::Equals => "T = Q",
            SetPredicate::Overlaps => "T ∩ Q ≠ ∅",
            SetPredicate::Contains => "e ∈ T",
        }
    }
}

impl std::fmt::Display for SetPredicate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.notation())
    }
}

/// A set query: a predicate plus the query set `Q`.
///
/// The query set is stored deduplicated and sorted, so `d_q = elements.len()`
/// is the paper's query cardinality `D_q`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetQuery {
    /// The comparison operator.
    pub predicate: SetPredicate,
    /// The query set `Q`, deduplicated, in canonical order.
    pub elements: Vec<ElementKey>,
    /// The smart-strategy budget on the filter stage; see
    /// [`with_cap`](SetQuery::with_cap).
    cap: Option<usize>,
}

impl SetQuery {
    /// Creates a query, deduplicating and sorting the elements.
    pub fn new(predicate: SetPredicate, mut elements: Vec<ElementKey>) -> Self {
        sorted::sort_dedup(&mut elements);
        SetQuery {
            predicate,
            elements,
            cap: None,
        }
    }

    /// Bounds what the filter stage inspects — the paper's "smart"
    /// strategies (§5.1.3, §5.2.2). For `T ⊇ Q` the filter uses at most
    /// `cap` query elements (the first, in canonical order); for `T ⊆ Q`
    /// BSSF reads at most `cap` of the query signature's zero-slices (the
    /// lowest). Either way the filter only admits *more* drops, and drop
    /// resolution verifies the full `elements`, so the answer is unchanged.
    /// A facility with no smart strategy for the predicate runs its plain
    /// filter.
    ///
    /// Only `HasSubset` and `InSubset` take a cap, and it must be ≥ 1.
    pub fn with_cap(mut self, cap: usize) -> Result<Self> {
        let capped = matches!(
            self.predicate,
            SetPredicate::HasSubset | SetPredicate::InSubset
        );
        if !capped || cap == 0 {
            return Err(Error::BadQuery(format!(
                "a smart cap needs T ⊇ Q or T ⊆ Q and cap ≥ 1, got {} with cap {cap}",
                self.predicate
            )));
        }
        self.cap = Some(cap);
        Ok(self)
    }

    /// The smart-strategy cap, if the query carries one.
    pub fn cap(&self) -> Option<usize> {
        self.cap
    }

    /// `T ⊇ Q` — "find objects whose set includes all of `elements`".
    pub fn has_subset(elements: Vec<ElementKey>) -> Self {
        SetQuery::new(SetPredicate::HasSubset, elements)
    }

    /// `T ⊆ Q` — "find objects whose set is contained in `elements`".
    pub fn in_subset(elements: Vec<ElementKey>) -> Self {
        SetQuery::new(SetPredicate::InSubset, elements)
    }

    /// `T = Q`.
    pub fn equals(elements: Vec<ElementKey>) -> Self {
        SetQuery::new(SetPredicate::Equals, elements)
    }

    /// `T ∩ Q ≠ ∅`.
    pub fn overlaps(elements: Vec<ElementKey>) -> Self {
        SetQuery::new(SetPredicate::Overlaps, elements)
    }

    /// `element ∈ T`.
    pub fn contains(element: ElementKey) -> Self {
        SetQuery::new(SetPredicate::Contains, vec![element])
    }

    /// Query cardinality `D_q`.
    pub fn d_q(&self) -> usize {
        self.elements.len()
    }

    /// Whether a **target signature** is a drop for this query — the
    /// signature-level filter of §3.1, extended to all five operators. Both
    /// signatures are `cfg`'s ([`SignatureConfig::signature`]).
    pub fn signature_matches(
        &self,
        cfg: &SignatureConfig,
        target: &Bitmap,
        query_sig: &Bitmap,
    ) -> bool {
        match self.predicate {
            // Every query bit present in the target.
            SetPredicate::HasSubset | SetPredicate::Contains => target.covers(query_sig),
            // Every target bit present in the query.
            SetPredicate::InSubset => query_sig.covers(target),
            // Equal sets have equal signatures: a one-sided filter.
            SetPredicate::Equals => target == query_sig,
            // A shared element sets the same `m` bits in both, so fewer
            // than `m` common bits refutes overlap.
            SetPredicate::Overlaps => target.intersection_count(query_sig) >= cfg.m_weight(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(elems: &[&str]) -> Vec<ElementKey> {
        elems.iter().map(ElementKey::from).collect()
    }

    #[test]
    fn query_deduplicates_and_sorts() {
        let q = SetQuery::has_subset(keys(&["b", "a", "b"]));
        assert_eq!(q.d_q(), 2);
        assert_eq!(q.elements, keys(&["a", "b"]));
    }

    #[test]
    fn constructors_set_predicates() {
        assert_eq!(
            SetQuery::has_subset(vec![]).predicate,
            SetPredicate::HasSubset
        );
        assert_eq!(
            SetQuery::in_subset(vec![]).predicate,
            SetPredicate::InSubset
        );
        assert_eq!(SetQuery::equals(vec![]).predicate, SetPredicate::Equals);
        assert_eq!(SetQuery::overlaps(vec![]).predicate, SetPredicate::Overlaps);
        let c = SetQuery::contains(ElementKey::from("x"));
        assert_eq!(c.predicate, SetPredicate::Contains);
        assert_eq!(c.d_q(), 1);
    }

    #[test]
    fn cap_is_validated_where_the_query_is_built() {
        let e = || keys(&["a", "b"]);
        assert_eq!(SetQuery::has_subset(e()).cap(), None);
        assert_eq!(
            SetQuery::has_subset(e()).with_cap(1).unwrap().cap(),
            Some(1)
        );
        assert_eq!(
            SetQuery::in_subset(e()).with_cap(40).unwrap().cap(),
            Some(40)
        );
        for q in [
            SetQuery::equals(e()),
            SetQuery::overlaps(e()),
            SetQuery::contains(ElementKey::from("a")),
        ] {
            assert!(matches!(q.with_cap(2), Err(Error::BadQuery(_))));
        }
        for q in [SetQuery::has_subset(e()), SetQuery::in_subset(e())] {
            assert!(matches!(q.with_cap(0), Err(Error::BadQuery(_))));
        }
    }

    #[test]
    fn notation_strings() {
        assert_eq!(SetPredicate::HasSubset.to_string(), "T ⊇ Q");
        assert_eq!(SetPredicate::InSubset.to_string(), "T ⊆ Q");
    }

    #[test]
    fn signature_filter_is_sound_for_all_predicates() {
        // For each predicate: a target that truly satisfies it must be a
        // signature-level drop (no false negatives).
        let cfg = SignatureConfig::new(128, 3).unwrap();
        let target_set = keys(&["Baseball", "Fishing"]);
        let target_sig = cfg.signature(&target_set);

        let cases = vec![
            SetQuery::has_subset(keys(&["Baseball"])),
            SetQuery::in_subset(keys(&["Baseball", "Fishing", "Tennis"])),
            SetQuery::equals(keys(&["Fishing", "Baseball"])),
            SetQuery::overlaps(keys(&["Fishing", "Chess"])),
            SetQuery::contains(ElementKey::from("Fishing")),
        ];
        for q in cases {
            let qs = cfg.signature(&q.elements);
            assert!(
                q.signature_matches(&cfg, &target_sig, &qs),
                "predicate {} missed a true match",
                q.predicate
            );
        }
    }

    #[test]
    fn superset_filter_rejects_obvious_nonmatch() {
        let cfg = SignatureConfig::new(256, 3).unwrap();
        let target = cfg.signature(&keys(&["Swimming"]));
        let q = SetQuery::has_subset(keys(&["Chess", "Running", "Skiing"]));
        let qs = cfg.signature(&q.elements);
        assert!(!q.signature_matches(&cfg, &target, &qs));
    }
}
