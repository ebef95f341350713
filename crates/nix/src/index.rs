//! The nested index as a set access facility.

use setsig_core::meta::{checkpoint, MetaReader, MetaWriter};
use setsig_core::{
    sorted, CandidateSet, ElementKey, Error, Oid, Result, ScanStats, SetAccessFacility,
    SetPredicate, SetQuery,
};
use setsig_pagestore::{count_reads, Disk, FileId, PageIo, PagedFile};
use std::sync::Arc;

use crate::btree::BTree;

/// Bits of a posting word below its OID: they hold the object's `|T|`, the
/// number of distinct element digests it was indexed under.
const CARD_BITS: u32 = 16;
/// The largest `|T|` a posting word holds; a larger set reads as this, and a
/// count against it is no longer exact.
const SATURATED: u64 = (1 << CARD_BITS) - 1;
/// OID bits a posting word holds: 47, so a word stays below `2^63`.
const OID_BITS: u32 = 47;
/// The key an object with an empty set is posted under, with `|T| = 0`. An
/// element may digest to it too; its postings carry `|T| ≥ 1`.
const EMPTY_SET_KEY: u64 = u64::MAX;

/// The posting word of `oid` for a set of `card` distinct digests:
/// `oid << 16 | min(card, 0xFFFF)`.
fn posting(oid: Oid, card: usize) -> Result<u64> {
    if oid.raw() >> OID_BITS != 0 {
        return Err(Error::OidOutOfRange(oid));
    }
    Ok(oid.raw() << CARD_BITS | (card as u64).min(SATURATED))
}

fn oid_of(word: u64) -> Oid {
    Oid::new(word >> CARD_BITS)
}

fn card_of(word: u64) -> u64 {
    word & SATURATED
}

/// The nested index (NIX): a [`BTree`] keyed by set elements whose posting
/// lists are the OIDs of the objects containing that element, plus the
/// paper's retrieval schemes (§4.3).
///
/// Each posting word also carries the object's `|T|`, so the union of the
/// query's lists answers `T ⊆ Q` by counting: an object's word recurs once
/// per list holding it, `|T ∩ Q|` times, and `T ⊆ Q ⇔ |T ∩ Q| = |T|`.
/// Objects with an empty set are posted under one reserved key.
pub struct Nix {
    tree: BTree,
    indexed: u64,
    /// Indexed objects whose set is empty.
    empties: u64,
    /// Catalog checkpoint file; created lazily by [`Nix::sync_meta`].
    meta_file: Option<PagedFile>,
}

impl Nix {
    /// Creates an empty nested index named `name` on `disk`.
    pub fn create(disk: Arc<Disk>, name: &str) -> Self {
        let io: Arc<dyn PageIo> = disk as Arc<dyn PageIo>;
        Nix::on_io(io, name)
    }

    /// Creates an empty nested index on any page I/O backend.
    pub fn on_io(io: Arc<dyn PageIo>, name: &str) -> Self {
        Nix {
            tree: BTree::create(io, &format!("{name}.nix")),
            indexed: 0,
            empties: 0,
            meta_file: None,
        }
    }

    /// The underlying B-tree (stats, integrity checks).
    pub fn tree(&self) -> &BTree {
        &self.tree
    }

    /// Appends to `out` the posting words of the element digest `key` —
    /// never those of empty sets, should the element share their key.
    fn postings_into(&self, key: u64, out: &mut Vec<u64>) -> Result<()> {
        let from = out.len();
        self.tree.lookup_into(key, out)?;
        if key == EMPTY_SET_KEY && self.empties > 0 {
            let mut at = 0;
            out.retain(|&word| {
                at += 1;
                at <= from || card_of(word) != 0
            });
        }
        Ok(())
    }

    /// Appends the objects whose set is empty to `oids`. Probes nothing
    /// while there are none, so no other query's page charge moves.
    fn empty_sets_into(&self, oids: &mut Vec<Oid>) -> Result<()> {
        if self.empties > 0 {
            let words = self.tree.lookup(EMPTY_SET_KEY)?;
            oids.extend(words.into_iter().filter(|&w| card_of(w) == 0).map(oid_of));
        }
        Ok(())
    }

    /// The §4.3 retrieval for `T ⊇ Q`: look up every query element and
    /// intersect the lists. Returns the posting words common to them,
    /// ascending, and whether every element was looked up — an object
    /// listed under every query element satisfies the predicate by
    /// definition.
    ///
    /// Under a smart cap (§5.1.3) only the first `cap` elements' posting
    /// lists are intersected; the rest are verified at drop resolution, so
    /// a truncated answer is *not* exact.
    fn intersection(&self, query: &SetQuery) -> Result<(Vec<u64>, bool)> {
        let d_q = query.elements.len();
        let take = d_q.min(query.cap().unwrap_or(d_q));
        // Posting lists come in insertion order; each is put in ascending
        // order once, then every intersection is a two-pointer pass. An
        // object's word is the same in every list, so words intersect as
        // OIDs do.
        let mut acc: Option<Vec<u64>> = None;
        for e in &query.elements[..take] {
            let mut list = Vec::new();
            self.postings_into(e.digest8(), &mut list)?;
            sorted::sort_dedup(&mut list);
            let met = match &acc {
                None => list,
                Some(prev) => sorted::intersect(prev, &list),
            };
            if acc.insert(met).is_empty() {
                break;
            }
        }
        Ok((acc.unwrap_or_default(), take == d_q))
    }

    /// The §4.3 union, counted: pools the posting words of the query's
    /// distinct digests, in which an object's word recurs once per list
    /// holding it — `|T ∩ Q|` times — and hands each word to `reached` once,
    /// when its count reaches `at(word)` ([`tally`]).
    fn union(
        &self,
        query: &SetQuery,
        at: impl Fn(u64) -> u64,
        reached: impl FnMut(u64),
    ) -> Result<()> {
        let mut pooled = Vec::new();
        for digest in query_digests(query) {
            self.postings_into(digest, &mut pooled)?;
        }
        tally(&pooled, at, reached);
        Ok(())
    }

    /// `T ⊆ Q` by counting: an object qualifies when its word's count in
    /// the union reaches its `|T|`, and every object with an empty set
    /// qualifies. Exact, unless a kept `|T|` is saturated. (No smart
    /// strategy: the probes are the union's, whatever the cap.)
    fn subset_candidates(&self, query: &SetQuery) -> Result<CandidateSet> {
        let (mut oids, mut exact) = (Vec::new(), true);
        self.union(query, card_of, |word| {
            exact &= card_of(word) != SATURATED;
            oids.push(oid_of(word));
        })?;
        self.empty_sets_into(&mut oids)?;
        Ok(CandidateSet::new(oids, exact))
    }

    /// `T = Q`: the `T ⊇ Q` intersection, kept where `|T| = |Q|`; for
    /// `Q = ∅`, the objects with an empty set.
    fn equal_candidates(&self, query: &SetQuery) -> Result<CandidateSet> {
        if query.elements.is_empty() {
            let mut oids = Vec::new();
            self.empty_sets_into(&mut oids)?;
            return Ok(CandidateSet::new(oids, true));
        }
        let (words, _) = self.intersection(query)?;
        let card = (query_digests(query).len() as u64).min(SATURATED);
        let kept = words.into_iter().filter(|&w| card_of(w) == card);
        Ok(CandidateSet {
            oids: kept.map(oid_of).collect(),
            exact: card != SATURATED,
        })
    }

    /// Checks the index against itself: the B-tree's structure
    /// ([`BTree::check_integrity`]), and the invariant `T ⊆ Q` counting
    /// rests on — every object is posted with one `|T|`, in exactly `|T|`
    /// lists (in at least `0xFFFF` when saturated; an empty set in the one
    /// list of its reserved key), and the counts of objects and of empty
    /// sets are the ones kept.
    pub fn verify(&self) -> Result<()> {
        let mut words = Vec::new();
        let mut misplaced = None;
        self.tree.check_and_visit(&mut |key, word| {
            if card_of(word) == 0 && key != EMPTY_SET_KEY {
                misplaced = Some((key, word));
            }
            words.push(word);
        })?;
        let bad = |msg: String| Err(Error::Corrupted(format!("nested index: {msg}")));
        if let Some((key, word)) = misplaced {
            return bad(format!(
                "{} posted with |T| = 0 under key {key}",
                oid_of(word)
            ));
        }
        words.sort_unstable();
        let (mut objects, mut empties, mut last) = (0u64, 0u64, None);
        for run in words.chunk_by(|a, b| a == b) {
            let (oid, card, lists) = (oid_of(run[0]), card_of(run[0]), run.len() as u64);
            if last == Some(oid) {
                return bad(format!("{oid} posted with two cardinalities"));
            }
            let held = match card {
                0 => lists == 1,
                SATURATED => lists >= SATURATED,
                _ => lists == card,
            };
            if !held {
                return bad(format!("{oid} packs |T| = {card} but is in {lists} lists"));
            }
            (objects, empties, last) = (objects + 1, empties + u64::from(card == 0), Some(oid));
        }
        if (objects, empties) != (self.indexed, self.empties) {
            return bad(format!(
                "{objects} objects ({empties} empty) posted, {} ({} empty) counted",
                self.indexed, self.empties
            ));
        }
        Ok(())
    }
}

/// The distinct key digests of `query`, ascending.
fn query_digests(query: &SetQuery) -> Vec<u64> {
    let mut digests: Vec<u64> = query.elements.iter().map(ElementKey::digest8).collect();
    sorted::sort_dedup(&mut digests);
    digests
}

/// The empty slot of [`tally`]'s table. No posting word is `u64::MAX`: a
/// word is below `2^63` ([`OID_BITS`] + [`CARD_BITS`] = 63).
const VACANT: u64 = u64::MAX;

/// The home slot of `word` in a table of `2^(64 - shift)` slots: the top bits
/// of a Fibonacci hash, which mix the OID bits into every slot bit.
fn slot(word: u64, shift: u32) -> usize {
    (word.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
}

/// Counts the words of `pooled` in one linear-probing table of
/// `(word, count)` slots and hands `reached` each word the moment its count
/// reaches `at(word)` — once, however often the word recurs. The table has
/// the next power of two ≥ `2·pooled` slots, allocated once, so it is at most
/// half full and every probe ends at the word or at a vacant slot. An empty
/// pool builds no table (a one-slot table would have no slot bits to hash).
fn tally(pooled: &[u64], at: impl Fn(u64) -> u64, mut reached: impl FnMut(u64)) {
    if pooled.is_empty() {
        return;
    }
    let slots = (2 * pooled.len()).next_power_of_two();
    let shift = u64::BITS - slots.trailing_zeros();
    let mut table = vec![(VACANT, 0u64); slots];
    for &word in pooled {
        let mut i = slot(word, shift);
        let count = loop {
            let (held, count) = &mut table[i];
            if *held == VACANT {
                *held = word;
            } else if *held != word {
                i = (i + 1) & (slots - 1);
                continue;
            }
            *count += 1;
            break *count;
        };
        if count == at(word) {
            reached(word);
        }
    }
}

/// The distinct key digests of `set`, in the order `set` first shows each:
/// the B-tree is written in the order the caller listed the elements. Their
/// count is the set's `|T|`.
fn distinct_digests(set: &[ElementKey]) -> impl ExactSizeIterator<Item = u64> {
    let mut by_digest: Vec<(u64, usize)> = set
        .iter()
        .enumerate()
        .map(|(i, e)| (e.digest8(), i))
        .collect();
    by_digest.sort_unstable();
    by_digest.dedup_by_key(|&mut (digest, _)| digest);
    by_digest.sort_unstable_by_key(|&(_, i)| i);
    by_digest.into_iter().map(|(digest, _)| digest)
}

impl SetAccessFacility for Nix {
    fn name(&self) -> &'static str {
        "NIX"
    }

    fn insert(&mut self, oid: Oid, set: &[ElementKey]) -> Result<()> {
        let digests = distinct_digests(set);
        let card = digests.len();
        let word = posting(oid, card)?;
        if card == 0 {
            self.tree.insert(EMPTY_SET_KEY, word)?;
            self.empties += 1;
        }
        for digest in digests {
            self.tree.insert(digest, word)?;
        }
        self.indexed += 1;
        Ok(())
    }

    fn delete(&mut self, oid: Oid, set: &[ElementKey]) -> Result<()> {
        let digests = distinct_digests(set);
        let card = digests.len();
        let word = posting(oid, card)?;
        let mut removed_any = card == 0 && self.tree.remove(EMPTY_SET_KEY, word)?;
        for digest in digests {
            removed_any |= self.tree.remove(digest, word)?;
        }
        if !removed_any {
            return Err(Error::OidNotFound(oid));
        }
        if card == 0 {
            self.empties -= 1;
        }
        self.indexed = self.indexed.saturating_sub(1);
        Ok(())
    }

    fn candidates_with_stats(&self, query: &SetQuery) -> Result<(CandidateSet, Option<ScanStats>)> {
        let (drops, pages) = count_reads(|| match query.predicate {
            SetPredicate::HasSubset | SetPredicate::Contains => {
                if query.elements.is_empty() {
                    return Err(Error::BadQuery(
                        "the nested index cannot enumerate T ⊇ ∅: no posting list holds every object"
                            .into(),
                    ));
                }
                let (words, whole) = self.intersection(query)?;
                Ok(CandidateSet {
                    oids: words.into_iter().map(oid_of).collect(),
                    exact: whole,
                })
            }
            SetPredicate::InSubset => self.subset_candidates(query),
            SetPredicate::Equals => self.equal_candidates(query),
            // Any object listed under any query element shares it.
            SetPredicate::Overlaps => {
                let mut oids = Vec::new();
                self.union(query, |_| 1, |word| oids.push(oid_of(word)))?;
                Ok(CandidateSet::new(oids, true))
            }
        });
        let stats = ScanStats {
            pages,
            ..ScanStats::default()
        };
        Ok((drops?, Some(stats)))
    }

    fn indexed_count(&self) -> u64 {
        self.indexed
    }

    fn storage_pages(&self) -> Result<u64> {
        self.tree.storage_pages()
    }

    fn cache_stats(&self) -> Option<setsig_pagestore::CacheStats> {
        self.tree.file_io().cache_stats()
    }
}

impl std::fmt::Debug for Nix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Nix {{ objects: {}, {:?} }}", self.indexed, self.tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(elems: &[&str]) -> Vec<ElementKey> {
        elems.iter().map(ElementKey::from).collect()
    }

    fn nix() -> (Arc<Disk>, Nix) {
        let disk = Arc::new(Disk::new());
        (Arc::clone(&disk), Nix::create(disk, "test"))
    }

    #[test]
    fn superset_intersection_is_exact() {
        let (_d, mut n) = nix();
        n.insert(Oid::new(1), &keys(&["Baseball", "Fishing"]))
            .unwrap();
        n.insert(Oid::new(2), &keys(&["Baseball", "Tennis"]))
            .unwrap();
        n.insert(Oid::new(3), &keys(&["Baseball", "Fishing", "Golf"]))
            .unwrap();

        let q = SetQuery::has_subset(keys(&["Baseball", "Fishing"]));
        let c = n.candidates(&q).unwrap();
        assert_eq!(c.oids, vec![Oid::new(1), Oid::new(3)]);
        assert!(c.exact, "no false drops for NIX on T ⊇ Q");
    }

    #[test]
    fn subset_union_counts_to_an_exact_answer() {
        let (_d, mut n) = nix();
        n.insert(Oid::new(1), &keys(&["Baseball"])).unwrap();
        n.insert(Oid::new(2), &keys(&["Baseball", "Skiing"]))
            .unwrap();
        n.insert(Oid::new(3), &keys(&["Fishing", "Baseball"]))
            .unwrap();
        let q = SetQuery::in_subset(keys(&["Baseball", "Fishing", "Golf"]));
        let c = n.candidates(&q).unwrap();
        // All three share "Baseball", but object 2 is met once of its
        // |T| = 2: the union keeps objects 1 and 3 only, exactly.
        assert_eq!(c.oids, vec![Oid::new(1), Oid::new(3)]);
        assert!(c.exact);
    }

    #[test]
    fn contains_and_overlap_are_exact() {
        let (_d, mut n) = nix();
        n.insert(Oid::new(1), &keys(&["a", "b"])).unwrap();
        n.insert(Oid::new(2), &keys(&["c"])).unwrap();
        let c = n
            .candidates(&SetQuery::contains(ElementKey::from("b")))
            .unwrap();
        assert_eq!(c.oids, vec![Oid::new(1)]);
        assert!(c.exact);
        let c = n
            .candidates(&SetQuery::overlaps(keys(&["b", "c"])))
            .unwrap();
        assert_eq!(c.oids, vec![Oid::new(1), Oid::new(2)]);
        assert!(c.exact);
    }

    #[test]
    fn equals_intersects_and_keeps_the_query_cardinality() {
        let (_d, mut n) = nix();
        n.insert(Oid::new(1), &keys(&["a", "b"])).unwrap();
        n.insert(Oid::new(2), &keys(&["a", "b", "c"])).unwrap();
        n.insert(Oid::new(3), &keys(&["b", "a", "a"])).unwrap();
        let c = n.candidates(&SetQuery::equals(keys(&["a", "b"]))).unwrap();
        // Object 2 holds both elements but |T| = 3: not a candidate.
        assert_eq!(c.oids, vec![Oid::new(1), Oid::new(3)]);
        assert!(c.exact);
    }

    #[test]
    fn empty_sets_answer_subset_and_equality_and_superset_of_nothing_errs() {
        let (disk, mut n) = nix();
        n.insert(Oid::new(1), &[]).unwrap();
        n.insert(Oid::new(2), &keys(&["a"])).unwrap();
        n.insert(Oid::new(3), &keys(&["a", "z"])).unwrap();
        let ids = |n: &Nix, q: SetQuery| {
            let c = n.candidates(&q).unwrap();
            assert!(c.exact, "{}", q.predicate);
            c.oids.iter().map(|o| o.raw()).collect::<Vec<_>>()
        };
        assert_eq!(ids(&n, SetQuery::in_subset(keys(&["a", "b"]))), [1, 2]);
        assert_eq!(ids(&n, SetQuery::in_subset(vec![])), [1]);
        assert_eq!(ids(&n, SetQuery::equals(vec![])), [1]);
        assert_eq!(ids(&n, SetQuery::overlaps(keys(&["a"]))), [2, 3]);
        assert_eq!(ids(&n, SetQuery::contains(ElementKey::from("a"))), [2, 3]);
        // Every object holds ∅, and no list enumerates them all.
        for q in [
            SetQuery::has_subset(vec![]),
            SetQuery::has_subset(vec![]).with_cap(1).unwrap(),
        ] {
            assert!(matches!(n.candidates(&q), Err(Error::BadQuery(_))));
        }
        // The one extra probe is the empty sets' key.
        let rc = u64::from(n.tree().rc_lookup());
        disk.reset_stats();
        let (_, stats) = n
            .candidates_with_stats(&SetQuery::in_subset(keys(&["a"])))
            .unwrap();
        assert_eq!(stats.unwrap().pages, 2 * rc);
        n.verify().unwrap();

        n.delete(Oid::new(1), &[]).unwrap();
        assert!(n.delete(Oid::new(1), &[]).is_err(), "double delete");
        assert_eq!(ids(&n, SetQuery::in_subset(vec![])), [] as [u64; 0]);
        assert_eq!(n.indexed_count(), 2);
        n.verify().unwrap();
    }

    #[test]
    fn an_element_sharing_the_empty_sets_key_keeps_its_own_postings() {
        let (_d, mut n) = nix();
        let shared = ElementKey::from(EMPTY_SET_KEY);
        n.insert(Oid::new(1), &[]).unwrap();
        n.insert(Oid::new(2), std::slice::from_ref(&shared))
            .unwrap();
        n.insert(Oid::new(3), &[shared.clone(), ElementKey::from(4u64)])
            .unwrap();
        let ids = |q: SetQuery| {
            let c = n.candidates(&q).unwrap();
            c.oids.iter().map(|o| o.raw()).collect::<Vec<_>>()
        };
        assert_eq!(ids(SetQuery::contains(shared.clone())), [2, 3]);
        assert_eq!(ids(SetQuery::in_subset(vec![shared.clone()])), [1, 2]);
        assert_eq!(ids(SetQuery::equals(vec![shared])), [2]);
        assert_eq!(ids(SetQuery::equals(vec![])), [1]);
        n.verify().unwrap();
    }

    #[test]
    fn an_oid_past_the_posting_words_47_bits_is_refused() {
        let (disk, mut n) = nix();
        let wide = Oid::new(1 << 47);
        let before = disk.snapshot();
        let set = keys(&["a"]);
        assert_eq!(n.insert(wide, &set), Err(Error::OidOutOfRange(wide)));
        assert_eq!(n.insert(wide, &[]), Err(Error::OidOutOfRange(wide)));
        assert_eq!(disk.snapshot().since(before).writes, 0, "nothing written");
        assert_eq!(n.indexed_count(), 0);
        let widest = Oid::new((1 << 47) - 1);
        n.insert(widest, &set).unwrap();
        let c = n.candidates(&SetQuery::in_subset(set)).unwrap();
        assert_eq!(c.oids, [widest]);
        n.verify().unwrap();
    }

    #[test]
    fn a_saturated_cardinality_keeps_its_candidate_and_makes_the_answer_inexact() {
        let (_d, mut n) = nix();
        let big: Vec<ElementKey> = (0..70_000u64).map(ElementKey::from).collect();
        n.insert(Oid::new(1), &big).unwrap();
        n.insert(Oid::new(2), &[ElementKey::from(3u64)]).unwrap();
        n.verify().unwrap();

        let c = n.candidates(&SetQuery::in_subset(big.clone())).unwrap();
        assert_eq!(c.oids, [1, 2].map(Oid::new));
        assert!(!c.exact, "|T| = 0xFFFF only bounds the set");
        let c = n.candidates(&SetQuery::equals(big.clone())).unwrap();
        assert_eq!((c.oids, c.exact), (vec![Oid::new(1)], false));
        // A query too small to hold it does not list it, and stays exact.
        let c = n
            .candidates(&SetQuery::in_subset(big[..100].to_vec()))
            .unwrap();
        assert_eq!((c.oids, c.exact), (vec![Oid::new(2)], true));
    }

    #[test]
    fn verify_names_a_posting_that_breaks_the_count() {
        let (_d, mut n) = nix();
        n.insert(Oid::new(1), &keys(&["a", "b"])).unwrap();
        n.insert(Oid::new(2), &keys(&["b"])).unwrap();
        n.verify().unwrap();
        // Object 1 listed under a third element, its word unchanged.
        let word = posting(Oid::new(1), 2).unwrap();
        n.tree
            .insert(ElementKey::from("c").digest8(), word)
            .unwrap();
        let err = n.verify().unwrap_err().to_string();
        assert!(err.contains("oid:1") && err.contains("3 lists"), "{err}");
    }

    #[test]
    fn a_word_in_more_lists_than_its_cardinality_is_kept_once() {
        let (_d, mut n) = nix();
        n.insert(Oid::new(1), &keys(&["a", "b"])).unwrap();
        n.insert(Oid::new(2), &keys(&["b"])).unwrap();
        // Object 1 listed under a third element, its word unchanged.
        let word = posting(Oid::new(1), 2).unwrap();
        n.tree
            .insert(ElementKey::from("c").digest8(), word)
            .unwrap();
        let elements = keys(&["a", "b", "c"]);
        let subset: fn(u64) -> u64 = card_of;
        for (query, at) in [
            (SetQuery::in_subset(elements.clone()), subset),
            (SetQuery::overlaps(elements), |_| 1),
        ] {
            let mut kept = Vec::new();
            n.union(&query, at, |w| kept.push(w)).unwrap();
            kept.sort_unstable();
            assert_eq!(kept, [word, posting(Oid::new(2), 1).unwrap()]);
            assert_eq!(n.candidates(&query).unwrap().oids, [1, 2].map(Oid::new));
        }
    }

    #[test]
    fn a_query_whose_every_list_is_empty_answers_nothing_exactly() {
        let (_d, mut n) = nix();
        n.insert(Oid::new(1), &keys(&["a"])).unwrap();
        let rc = u64::from(n.tree().rc_lookup());
        let absent = keys(&["x", "y", "z"]);
        for q in [
            SetQuery::in_subset(absent.clone()),
            SetQuery::overlaps(absent),
        ] {
            let (c, stats) = n.candidates_with_stats(&q).unwrap();
            assert!(c.is_empty() && c.exact, "{}", q.predicate);
            assert_eq!(stats.unwrap().pages, 3 * rc, "every list is still probed");
        }
        let mut reached = 0;
        tally(&[], |_| 1, |_| reached += 1);
        assert_eq!(reached, 0);
    }

    #[test]
    fn probing_wraps_from_the_last_slot_to_the_first() {
        // Four pooled words: a table of 8 slots, so `shift` is 64 − 3.
        let mut last = (0..)
            .map(|oid| posting(Oid::new(oid), 2).unwrap())
            .filter(|&w| slot(w, 61) == 7);
        let (a, b) = (last.next().unwrap(), last.next().unwrap());
        let kept = |at: u64| {
            let mut kept = Vec::new();
            tally(&[a, b, b, a], |_| at, |w| kept.push(w));
            kept
        };
        // `a` takes the last slot and `b` wraps to slot 0, where each of
        // its recurrences finds it.
        assert_eq!(kept(1), [a, b]);
        assert_eq!(kept(2), [b, a]);
        assert!(kept(3).is_empty());
    }

    #[test]
    fn smart_superset_truncates_lookups() {
        let (disk, mut n) = nix();
        for i in 0..50u64 {
            let set: Vec<ElementKey> = (0..5).map(|j| ElementKey::from(i * 17 + j)).collect();
            n.insert(Oid::new(i), &set).unwrap();
        }
        let q = SetQuery::has_subset((0..5).map(|j| ElementKey::from(11u64 * 17 + j)).collect());
        disk.reset_stats();
        let c = n.candidates(&q.clone().with_cap(2).unwrap()).unwrap();
        assert!(c.oids.contains(&Oid::new(11)));
        assert!(!c.exact, "truncated strategy must flag for verification");
        // 2 look-ups × rc reads.
        let reads = disk.snapshot().reads;
        assert_eq!(reads as u32, 2 * n.tree().rc_lookup());
        // Un-truncated (cap ≥ D_q) is the plain query: same answer, exact.
        let plain = n.candidates_with_stats(&q).unwrap();
        assert!(plain.0.exact);
        assert_eq!(
            n.candidates_with_stats(&q.with_cap(5).unwrap()).unwrap(),
            plain
        );
    }

    #[test]
    fn subset_has_no_smart_strategy_and_runs_plain() {
        let (_d, mut n) = nix();
        n.insert(Oid::new(1), &keys(&["a"])).unwrap();
        n.insert(Oid::new(2), &keys(&["b", "z"])).unwrap();
        let q = SetQuery::in_subset(keys(&["a", "b", "c"]));
        assert_eq!(
            n.candidates_with_stats(&q.clone().with_cap(1).unwrap())
                .unwrap(),
            n.candidates_with_stats(&q).unwrap()
        );
    }

    #[test]
    fn delete_unindexes_object() {
        let (_d, mut n) = nix();
        let set = keys(&["Baseball", "Fishing"]);
        n.insert(Oid::new(1), &set).unwrap();
        n.insert(Oid::new(2), &set).unwrap();
        n.delete(Oid::new(1), &set).unwrap();
        let q = SetQuery::has_subset(keys(&["Baseball"]));
        assert_eq!(n.candidates(&q).unwrap().oids, vec![Oid::new(2)]);
        assert_eq!(n.indexed_count(), 1);
        assert!(n.delete(Oid::new(1), &set).is_err(), "double delete");
        n.tree().check_integrity().unwrap();
    }

    #[test]
    fn duplicate_elements_in_set_indexed_once() {
        let (_d, mut n) = nix();
        n.insert(Oid::new(1), &keys(&["a", "a", "a"])).unwrap();
        assert_eq!(n.tree().posting_count(), 1);
        let c = n
            .candidates(&SetQuery::contains(ElementKey::from("a")))
            .unwrap();
        assert_eq!(c.oids, vec![Oid::new(1)]);
    }

    #[test]
    fn updates_write_the_tree_in_the_order_the_set_lists_its_elements() {
        // Not in digest order, and each repeat dropped where it recurs.
        let listed: Vec<ElementKey> = [7u64, 3, 7, 900, 3, 1, 900].map(ElementKey::from).to_vec();
        assert_eq!(
            distinct_digests(&listed).collect::<Vec<_>>(),
            [7, 3, 900, 1]
        );
        assert_eq!(distinct_digests(&[]).count(), 0);

        // So a set with repeats drives the B-tree through the very page
        // accesses its distinct elements would, splits included.
        let (with_repeats, mut a) = nix();
        let (distinct, mut b) = nix();
        let sets = |i: u64| {
            let set = [i % 37, 1000 - i, i % 37, i, 1000 - i].map(ElementKey::from);
            let once: Vec<ElementKey> = distinct_digests(&set).map(ElementKey::from).collect();
            (set, once)
        };
        for i in 0..400u64 {
            let (set, once) = sets(i);
            a.insert(Oid::new(i), &set).unwrap();
            b.insert(Oid::new(i), &once).unwrap();
            assert_eq!(with_repeats.snapshot(), distinct.snapshot(), "insert {i}");
        }
        for i in (0..400u64).step_by(3) {
            let (set, once) = sets(i);
            a.delete(Oid::new(i), &set).unwrap();
            b.delete(Oid::new(i), &once).unwrap();
            assert_eq!(with_repeats.snapshot(), distinct.snapshot(), "delete {i}");
        }
        assert_eq!(a.tree().key_count(), b.tree().key_count());
        a.tree().check_integrity().unwrap();
    }

    /// Object `i` holds `{3i, 3i+1, 3i+2}` — enough keys for a height ≥ 1
    /// tree, and the probe elements co-occur so no early exit fires.
    fn thousand_triples(n: &mut Nix) -> [SetQuery; 3] {
        for i in 0..1000u64 {
            let set: Vec<ElementKey> = (0..3).map(|j| ElementKey::from(3 * i + j)).collect();
            n.insert(Oid::new(i), &set).unwrap();
        }
        let elems: Vec<ElementKey> = (1500..1503u64).map(ElementKey::from).collect();
        [
            SetQuery::has_subset(elems.clone()),
            SetQuery::in_subset(elems.clone()),
            SetQuery::has_subset(elems).with_cap(2).unwrap(),
        ]
    }

    #[test]
    fn lookup_cost_matches_rc_times_d_q() {
        let (disk, mut n) = nix();
        let queries = thousand_triples(&mut n);
        let rc = n.tree().rc_lookup() as u64;
        // ⊇ and ⊆ probe all three elements, smart-⊇ the first two; the
        // pages the call reports are exactly its disk reads.
        for (q, probes) in queries.iter().zip([3, 3, 2]) {
            disk.reset_stats();
            let (_, stats) = n.candidates_with_stats(q).unwrap();
            assert_eq!(disk.snapshot().reads, probes * rc, "rc·D_q of §4.3");
            assert_eq!(stats.unwrap().pages, probes * rc);
        }
    }

    #[test]
    fn overflow_chain_links_are_charged() {
        let (disk, mut n) = nix();
        for i in 0..2000u64 {
            n.insert(Oid::new(i), &keys(&["hot"])).unwrap();
        }
        disk.reset_stats();
        let (set, stats) = n
            .candidates_with_stats(&SetQuery::contains(ElementKey::from("hot")))
            .unwrap();
        assert_eq!(set.len(), 2000);
        let reads = disk.snapshot().reads;
        assert!(reads > n.tree().rc_lookup() as u64, "posting spans a chain");
        assert_eq!(stats.unwrap().pages, reads);
    }

    #[test]
    fn reported_pages_are_the_protocol_charge_under_a_pool() {
        let disk = Arc::new(Disk::new());
        let pool = Arc::new(setsig_pagestore::BufferPool::new(Arc::clone(&disk), 256));
        let mut n = Nix::on_io(Arc::clone(&pool) as Arc<dyn PageIo>, "p");
        let queries = thousand_triples(&mut n);
        let rc = n.tree().rc_lookup() as u64;
        pool.clear();
        for (q, probes) in queries.iter().zip([3, 3, 2]) {
            let (cold_set, cold) = n.candidates_with_stats(q).unwrap();
            disk.reset_stats();
            let (hot_set, hot) = n.candidates_with_stats(q).unwrap();
            assert_eq!(cold_set, hot_set);
            assert_eq!(cold.unwrap().pages, probes * rc);
            assert_eq!(hot, cold, "the page charge is cache-independent");
            assert_eq!(disk.snapshot().reads, 0, "the repeat is pool-resident");
        }
    }

    #[test]
    fn cache_stats_come_from_the_io_handle() {
        let disk = Arc::new(Disk::new());
        let pool = Arc::new(setsig_pagestore::BufferPool::new(Arc::clone(&disk), 64));
        let mut n = Nix::on_io(Arc::clone(&pool) as Arc<dyn PageIo>, "c");
        n.insert(Oid::new(1), &keys(&["a", "b"])).unwrap();
        let _ = n
            .candidates(&SetQuery::contains(ElementKey::from("a")))
            .unwrap();
        let cache = n.cache_stats().expect("pooled facility reports pool stats");
        assert!(cache.hits > 0);
        assert_eq!(
            cache,
            pool.stats(),
            "the caller's pool is the one reporting"
        );
        assert!(nix().1.cache_stats().is_none());
    }
}

/// The tag of a [`Nix::sync_meta`] blob. Its postings are `oid << 16 | |T|`
/// words; an image tagged `NIXW` holds bare OIDs and is refused.
const META_TAG: &[u8; 4] = b"NIXC";

impl Nix {
    /// Checkpoints the index's catalog state: the B-tree checkpoint plus
    /// the indexed-object and empty-set counts, in a meta file of its own.
    /// Returns the meta file id to hand to [`Nix::open`].
    pub fn sync_meta(&mut self) -> Result<FileId> {
        let mut w = MetaWriter::new(META_TAG);
        w.u32(self.tree.sync_meta()?.raw());
        w.u64(self.indexed);
        w.u64(self.empties);
        checkpoint(self.tree.file_io(), &mut self.meta_file, "nix", &w.finish())
    }

    /// Reopens a nested index from a [`Nix::sync_meta`] checkpoint.
    pub fn open(io: Arc<dyn PageIo>, meta: FileId) -> Result<Self> {
        let meta_file = PagedFile::open(Arc::clone(&io), meta);
        let blob = meta_file.read_blob()?;
        let mut r = MetaReader::new(&blob, META_TAG)?;
        let tree_meta = FileId::from_raw(r.u32()?);
        let (indexed, empties) = (r.u64()?, r.u64()?);
        r.done()?;
        Ok(Nix {
            tree: BTree::open(io, tree_meta)?,
            indexed,
            empties,
            meta_file: Some(meta_file),
        })
    }
}

#[cfg(test)]
mod meta_tests {
    use super::*;

    #[test]
    fn nix_reopens_from_saved_image() {
        let dir = std::env::temp_dir().join(format!("setsig-nix-meta-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.img");

        let disk = Arc::new(Disk::new());
        let mut nix = Nix::create(Arc::clone(&disk), "h");
        // Enough keys to force splits, so root/height survive reopen.
        for i in 0..2000u64 {
            nix.insert(
                Oid::new(i),
                &[ElementKey::from(i % 300), ElementKey::from(i)],
            )
            .unwrap();
        }
        nix.insert(Oid::new(5000), &[]).unwrap();
        let meta = nix.sync_meta().unwrap();
        disk.save_to(&path).unwrap();

        let loaded = Arc::new(Disk::load_from(&path).unwrap());
        let io: Arc<dyn PageIo> = Arc::clone(&loaded) as Arc<dyn PageIo>;
        let mut reopened = Nix::open(io, meta).unwrap();
        assert_eq!(reopened.indexed_count(), 2001);
        assert_eq!(reopened.tree().key_count(), nix.tree().key_count());
        for q in [
            SetQuery::contains(ElementKey::from(42u64)),
            SetQuery::in_subset(vec![ElementKey::from(7u64), ElementKey::from(207u64)]),
            SetQuery::equals(vec![]),
        ] {
            assert_eq!(
                reopened.candidates(&q).unwrap(),
                nix.candidates(&q).unwrap()
            );
        }
        // The empty-set count came back with the image.
        let empty = reopened.candidates(&SetQuery::in_subset(vec![])).unwrap();
        assert_eq!(empty.oids, [Oid::new(5000)]);
        reopened.verify().unwrap();
        // Further inserts keep working (splits included).
        for i in 2000..2300u64 {
            reopened
                .insert(Oid::new(i), &[ElementKey::from(i)])
                .unwrap();
        }
        reopened.verify().unwrap();

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_image_of_bare_oid_postings_is_refused() {
        // What `sync_meta` wrote while a posting word was the bare OID.
        let disk = Arc::new(Disk::new());
        let mut nix = Nix::create(Arc::clone(&disk), "old");
        nix.insert(Oid::new(1), &[ElementKey::from(3u64)]).unwrap();
        let tree_meta = nix.tree.sync_meta().unwrap();
        let io = || Arc::clone(&disk) as Arc<dyn PageIo>;
        let old = PagedFile::create(io(), "nix.meta");
        let mut blob = b"NIXW".to_vec();
        blob.extend_from_slice(&tree_meta.raw().to_le_bytes());
        blob.extend_from_slice(&1u64.to_le_bytes());
        old.write_blob(&blob).unwrap();
        assert!(matches!(
            Nix::open(io(), old.id()),
            Err(Error::BadConfig(_))
        ));
        // The current tag opens.
        let meta = nix.sync_meta().unwrap();
        assert_eq!(Nix::open(io(), meta).unwrap().indexed_count(), 1);
    }
}
