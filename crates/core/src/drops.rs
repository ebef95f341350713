//! False-drop resolution (§3.1): fetching every candidate object and
//! re-checking the predicate exactly.

use crate::element::ElementKey;
use crate::error::Result;
use crate::facility::CandidateSet;
use crate::oid::Oid;
use crate::query::{SetPredicate, SetQuery};
use crate::sorted;

/// A materialized target set: the indexed set-attribute value of one object
/// in canonical form — its distinct keys in ascending order. Built by
/// collecting keys in any order, repeats allowed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ElementSet(Vec<ElementKey>);

impl FromIterator<ElementKey> for ElementSet {
    fn from_iter<I: IntoIterator<Item = ElementKey>>(iter: I) -> Self {
        let mut keys: Vec<ElementKey> = iter.into_iter().collect();
        sorted::sort_dedup(&mut keys);
        ElementSet(keys)
    }
}

impl std::ops::Deref for ElementSet {
    type Target = [ElementKey];

    fn deref(&self) -> &[ElementKey] {
        &self.0
    }
}

/// Something that can produce the stored target set of an object — in the
/// full system, the object store of `setsig-oodb`, which charges the
/// paper's `P_p` (unsuccessful) / `P_s` (successful) object page accesses
/// per object.
pub trait TargetSetSource {
    /// Fetches the indexed set value of `oid`.
    fn fetch_set(&self, oid: Oid) -> Result<ElementSet>;

    /// Hands every element of `oid`'s indexed set to `visit` as canonical
    /// key bytes ([`ElementKey::as_bytes`] form) — in whatever order the
    /// source holds them, repeats included — at the page charge of
    /// [`fetch_set`](TargetSetSource::fetch_set). This is what
    /// [`resolve_drops`] calls; a source that can read its elements in
    /// place overrides it and builds no set at all. A call that returns
    /// `Err` may have visited some elements first.
    fn visit_set(&self, oid: Oid, visit: &mut dyn FnMut(&[u8])) -> Result<()> {
        for key in self.fetch_set(oid)?.iter() {
            visit(key.as_bytes());
        }
        Ok(())
    }
}

impl<F> TargetSetSource for F
where
    F: Fn(Oid) -> Result<ElementSet>,
{
    fn fetch_set(&self, oid: Oid) -> Result<ElementSet> {
        self(oid)
    }
}

/// The outcome of resolving a candidate set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DropReport {
    /// Objects that actually satisfy the predicate (*actual drops*).
    pub actual: Vec<Oid>,
    /// Number of candidates that failed re-checking (*false drops*).
    pub false_drops: u64,
    /// Total candidates examined.
    pub candidates: u64,
}

/// Decides one query's predicate for one target set after another from
/// the target's elements alone, handed over one at a time in any order and
/// with repeats: each is looked up in the query's sorted elements, and the
/// verdict follows from whether any was missing and how many *distinct*
/// query elements were met.
struct Verifier<'q> {
    predicate: SetPredicate,
    /// The query set: ascending, duplicate-free ([`SetQuery::new`]).
    query: &'q [ElementKey],
    /// One bit per query element: met in the current target.
    met: Vec<u64>,
    hits: usize,
    missed: bool,
}

impl<'q> Verifier<'q> {
    fn new(predicate: SetPredicate, query: &'q [ElementKey]) -> Self {
        Verifier {
            predicate,
            query,
            met: vec![0; query.len().div_ceil(64)],
            hits: 0,
            missed: false,
        }
    }

    /// Forgets the last target.
    fn reset(&mut self) {
        self.met.fill(0);
        self.hits = 0;
        self.missed = false;
    }

    /// Takes one element of the current target, as canonical key bytes.
    fn observe(&mut self, key: &[u8]) {
        if self.settled() {
            return;
        }
        match self.query.binary_search_by(|q| q.as_bytes().cmp(key)) {
            Ok(i) => {
                let bit = 1u64 << (i % 64);
                if self.met[i / 64] & bit == 0 {
                    self.met[i / 64] |= bit;
                    self.hits += 1;
                }
            }
            Err(_) => self.missed = true,
        }
    }

    /// Whether no further element can change the verdict: a miss settles
    /// ⊆ and = (false), a hit settles ≬ (true), the last distinct hit
    /// settles ⊇ and ∋ (true). The source still reads the target to its
    /// end — only the look-ups stop.
    fn settled(&self) -> bool {
        match self.predicate {
            SetPredicate::HasSubset | SetPredicate::Contains => self.hits == self.query.len(),
            SetPredicate::InSubset | SetPredicate::Equals => self.missed,
            SetPredicate::Overlaps => self.hits > 0,
        }
    }

    /// Whether the target observed since the last `reset` satisfies the
    /// predicate.
    fn verdict(&self) -> bool {
        let covers_query = self.hits == self.query.len();
        match self.predicate {
            SetPredicate::HasSubset | SetPredicate::Contains => covers_query,
            SetPredicate::InSubset => !self.missed,
            SetPredicate::Equals => !self.missed && covers_query,
            SetPredicate::Overlaps => self.hits > 0,
        }
    }
}

/// Exact evaluation of a set predicate against a stored target set.
/// `query` must be ascending and duplicate-free, as [`SetQuery::elements`]
/// is.
pub fn verify_predicate(
    predicate: SetPredicate,
    target: &ElementSet,
    query: &[ElementKey],
) -> bool {
    let mut verifier = Verifier::new(predicate, query);
    for key in target.iter() {
        verifier.observe(key.as_bytes());
    }
    verifier.verdict()
}

/// Resolves `candidates` for `query` against `source`: reads each
/// candidate's stored set ([`TargetSetSource::visit_set`], which charges the
/// object accesses `P_p·F_d(N−A) + P_s·A` of the paper's Eq. 7) and
/// classifies it as an actual or a false drop. Every element of every
/// candidate is read even once its verdict is fixed: the page charge does
/// not depend on the data, and a corrupt record is an error, never a
/// silently dropped candidate.
///
/// Exact candidate sets (e.g. NIX on `T ⊇ Q`, `T ⊆ Q` and `T = Q`) are
/// fetched too — the paper's query model returns *objects*, so qualifying
/// objects cost `P_s` each — and re-verified, which costs nothing extra once
/// the object is in hand and catches 64-bit key-digest collisions in the
/// nested index.
pub fn resolve_drops(
    query: &SetQuery,
    candidates: &CandidateSet,
    source: &dyn TargetSetSource,
) -> Result<DropReport> {
    let mut verifier = Verifier::new(query.predicate, &query.elements);
    let mut actual = Vec::new();
    let mut false_drops = 0u64;
    for &oid in &candidates.oids {
        verifier.reset();
        source.visit_set(oid, &mut |key| verifier.observe(key))?;
        if verifier.verdict() {
            actual.push(oid);
        } else {
            false_drops += 1;
        }
    }
    Ok(DropReport {
        actual,
        false_drops,
        candidates: candidates.oids.len() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(elems: &[&str]) -> ElementSet {
        elems.iter().map(ElementKey::from).collect()
    }

    fn sorted_keys(elems: &[&str]) -> Vec<ElementKey> {
        let mut v: Vec<ElementKey> = elems.iter().map(ElementKey::from).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn verify_has_subset() {
        let t = set(&["Baseball", "Golf", "Fishing"]);
        assert!(verify_predicate(
            SetPredicate::HasSubset,
            &t,
            &sorted_keys(&["Baseball", "Fishing"])
        ));
        assert!(!verify_predicate(
            SetPredicate::HasSubset,
            &t,
            &sorted_keys(&["Baseball", "Tennis"])
        ));
        // Empty query set: trivially satisfied.
        assert!(verify_predicate(SetPredicate::HasSubset, &t, &[]));
    }

    #[test]
    fn verify_in_subset() {
        let t = set(&["Baseball", "Football"]);
        assert!(verify_predicate(
            SetPredicate::InSubset,
            &t,
            &sorted_keys(&["Baseball", "Football", "Tennis"])
        ));
        assert!(!verify_predicate(
            SetPredicate::InSubset,
            &t,
            &sorted_keys(&["Baseball", "Tennis"])
        ));
        // Empty target: subset of anything.
        assert!(verify_predicate(SetPredicate::InSubset, &set(&[]), &[]));
    }

    #[test]
    fn verify_equals_overlaps_contains() {
        let t = set(&["a", "b"]);
        assert!(verify_predicate(
            SetPredicate::Equals,
            &t,
            &sorted_keys(&["a", "b"])
        ));
        assert!(!verify_predicate(
            SetPredicate::Equals,
            &t,
            &sorted_keys(&["a"])
        ));
        assert!(!verify_predicate(
            SetPredicate::Equals,
            &t,
            &sorted_keys(&["a", "b", "c"])
        ));
        assert!(verify_predicate(
            SetPredicate::Overlaps,
            &t,
            &sorted_keys(&["b", "z"])
        ));
        assert!(!verify_predicate(
            SetPredicate::Overlaps,
            &t,
            &sorted_keys(&["y", "z"])
        ));
        assert!(verify_predicate(
            SetPredicate::Contains,
            &t,
            &sorted_keys(&["a"])
        ));
    }

    const ALL: [SetPredicate; 5] = [
        SetPredicate::HasSubset,
        SetPredicate::InSubset,
        SetPredicate::Equals,
        SetPredicate::Overlaps,
        SetPredicate::Contains,
    ];

    /// The verdicts for `target` against `query`, in [`ALL`] order.
    fn verdicts(target: &[&str], query: &[&str]) -> [bool; 5] {
        ALL.map(|p| verify_predicate(p, &set(target), &sorted_keys(query)))
    }

    #[test]
    fn empty_query_set() {
        // ⊇ ∅ and ∋-nothing hold for every target; ⊆ ∅ and = ∅ only for
        // the empty target; nothing overlaps ∅.
        assert_eq!(verdicts(&["a"], &[]), [true, false, false, false, true]);
        assert_eq!(verdicts(&[], &[]), [true, true, true, false, true]);
    }

    #[test]
    fn empty_target_set() {
        assert_eq!(verdicts(&[], &["a"]), [false, true, false, false, false]);
    }

    #[test]
    fn query_larger_than_target() {
        // D_q > D_t: never ⊇ or =, but ⊆ when every target element is met.
        assert_eq!(
            verdicts(&["a", "c"], &["a", "b", "c", "d"]),
            [false, true, false, true, false]
        );
        assert_eq!(
            verdicts(&["a", "x"], &["a", "b", "c", "d"]),
            [false, false, false, true, false]
        );
    }

    #[test]
    fn element_set_is_ascending_and_distinct_however_collected() {
        let s = set(&["b", "a", "b", "c", "a"]);
        assert_eq!(&*s, sorted_keys(&["a", "b", "c"]).as_slice());
        assert_eq!(s, set(&["c", "b", "a"]));
    }

    /// A source holding raw element lists: what a store that never
    /// normalised its sets hands `visit_set`.
    struct Raw(Vec<Vec<&'static str>>);

    impl TargetSetSource for Raw {
        fn fetch_set(&self, _oid: Oid) -> Result<ElementSet> {
            panic!("resolution reads through visit_set")
        }

        fn visit_set(&self, oid: Oid, visit: &mut dyn FnMut(&[u8])) -> Result<()> {
            for e in &self.0[oid.raw() as usize] {
                visit(ElementKey::from(e).as_bytes());
            }
            Ok(())
        }
    }

    #[test]
    fn visited_elements_may_repeat_and_come_in_any_order() {
        // "bb" < "c" as keys, but a length-prefixed store lists "c" first;
        // a repeated element counts once.
        let source = Raw(vec![
            vec!["c", "bb", "c"],       // = {bb, c}
            vec!["c", "c"],             // = {c}: ⊉ Q, and not = Q by count
            vec!["zz", "bb", "c", "a"], // ⊋ Q
        ]);
        let cands = CandidateSet::new((0..3).map(Oid::new).collect(), false);
        let resolve = |q: SetQuery| resolve_drops(&q, &cands, &source).unwrap().actual;
        let q = || sorted_keys(&["c", "bb"]);
        let oids = |raw: &[u64]| raw.iter().copied().map(Oid::new).collect::<Vec<_>>();
        assert_eq!(resolve(SetQuery::has_subset(q())), oids(&[0, 2]));
        assert_eq!(resolve(SetQuery::in_subset(q())), oids(&[0, 1]));
        assert_eq!(resolve(SetQuery::equals(q())), oids(&[0]));
        assert_eq!(resolve(SetQuery::overlaps(q())), oids(&[0, 1, 2]));
        assert_eq!(
            resolve(SetQuery::contains(ElementKey::from("bb"))),
            oids(&[0, 2])
        );
    }

    #[test]
    fn one_verifier_forgets_the_previous_candidate() {
        // A miss, then hits only: the second verdict owes nothing to the
        // first, and the reverse.
        let source = Raw(vec![vec!["x"], vec!["a", "b"], vec!["x"]]);
        let cands = CandidateSet::new((0..3).map(Oid::new).collect(), false);
        let q = SetQuery::equals(sorted_keys(&["a", "b"]));
        let report = resolve_drops(&q, &cands, &source).unwrap();
        assert_eq!(report.actual, vec![Oid::new(1)]);
        assert_eq!(report.false_drops, 2);
    }

    #[test]
    fn a_failed_read_fails_the_resolution() {
        struct Broken;
        impl TargetSetSource for Broken {
            fn fetch_set(&self, oid: Oid) -> Result<ElementSet> {
                Err(crate::Error::OidNotFound(oid))
            }
        }
        // Through the provided `visit_set`, i.e. through `fetch_set`.
        let q = SetQuery::overlaps(sorted_keys(&["a"]));
        let cands = CandidateSet::new(vec![Oid::new(4)], false);
        assert_eq!(
            resolve_drops(&q, &cands, &Broken),
            Err(crate::Error::OidNotFound(Oid::new(4)))
        );
    }

    #[test]
    fn resolve_classifies_actual_and_false() {
        // Object 1 satisfies, object 2 does not.
        let source = |oid: Oid| -> Result<ElementSet> {
            Ok(match oid.raw() {
                1 => set(&["Baseball", "Fishing", "Golf"]),
                _ => set(&["Baseball", "Tennis"]),
            })
        };
        let q = SetQuery::has_subset(sorted_keys(&["Baseball", "Fishing"]));
        let cands = CandidateSet::new(vec![Oid::new(1), Oid::new(2)], false);
        let report = resolve_drops(&q, &cands, &source).unwrap();
        assert_eq!(report.actual, vec![Oid::new(1)]);
        assert_eq!(report.false_drops, 1);
        assert_eq!(report.candidates, 2);
    }

    #[test]
    fn exact_candidates_are_still_fetched() {
        // The paper returns objects, so even exact candidates cost P_s each
        // to retrieve; resolution must hit the source.
        let fetched = std::cell::Cell::new(0u32);
        let source = |_oid: Oid| -> Result<ElementSet> {
            fetched.set(fetched.get() + 1);
            Ok(set(&["x", "y"]))
        };
        let q = SetQuery::has_subset(sorted_keys(&["x"]));
        let cands = CandidateSet::new(vec![Oid::new(5)], true);
        let report = resolve_drops(&q, &cands, &source).unwrap();
        assert_eq!(report.actual, vec![Oid::new(5)]);
        assert_eq!(report.false_drops, 0);
        assert_eq!(fetched.get(), 1);
    }

    #[test]
    fn empty_candidates_resolve_trivially() {
        let source = |_oid: Oid| -> Result<ElementSet> { panic!("must not fetch") };
        let q = SetQuery::in_subset(sorted_keys(&["x"]));
        let report = resolve_drops(&q, &CandidateSet::new(vec![], false), &source).unwrap();
        assert!(report.actual.is_empty());
        assert_eq!((report.false_drops, report.candidates), (0, 0));
    }
}
