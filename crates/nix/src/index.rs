//! The nested index as a set access facility.

use setsig_core::meta::{checkpoint, MetaReader, MetaWriter};
use setsig_core::{
    sorted, CandidateSet, ElementKey, Error, IndexLayout, Oid, Profile, Result, ScanStats,
    SetAccessFacility, SetPredicate, SetQuery,
};
use setsig_pagestore::{count_reads, FileId, PageIo, PagedFile};
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
    /// Creates an empty nested index named `name` on `io` — the bare
    /// accounting [`Disk`](setsig_pagestore::Disk) or a buffer pool over it.
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

    /// Looks up the element digests `keys` — ascending, distinct — in one
    /// descent ([`BTree::lookup_many`]): appends each one's posting words to
    /// `out` — of those under [`EMPTY_SET_KEY`], the ones `keep` takes —
    /// and then calls `visit(out)`, which may consume them; the first
    /// `false` ends the descent.
    fn postings(
        &self,
        keys: &[u64],
        out: &mut Vec<u64>,
        keep: impl Fn(u64) -> bool,
        mut visit: impl FnMut(&mut Vec<u64>) -> bool,
    ) -> Result<()> {
        let mut from = out.len();
        self.tree.lookup_many(keys, out, |key, out| {
            if key == EMPTY_SET_KEY && self.empties > 0 {
                let mut at = 0;
                out.retain(|&word| {
                    at += 1;
                    at <= from || keep(word)
                });
            }
            let go_on = visit(out);
            from = out.len();
            go_on
        })
    }

    /// The §4.3 retrieval for `T ⊇ Q`: look up every query element and
    /// intersect the lists. Returns the posting words common to them,
    /// ascending, and whether every element was looked up — an object
    /// listed under every query element satisfies the predicate by
    /// definition.
    ///
    /// The probed elements' distinct digests are read in one sorted descent,
    /// which ends at the first list that leaves the intersection empty.
    ///
    /// Under a smart cap (§5.1.3) only the first `cap` elements' posting
    /// lists are intersected; the rest are verified at drop resolution, so
    /// a truncated answer is *not* exact.
    fn intersection(&self, query: &SetQuery) -> Result<(Vec<u64>, bool)> {
        let d_q = query.elements.len();
        let probed = &query.elements[..d_q.min(query.cap().unwrap_or(d_q))];
        let mut acc = None;
        self.postings(&digests(probed), &mut Vec::new(), not_empty, |list| {
            meet(&mut acc, list)
        })?;
        Ok((acc.unwrap_or_default(), probed.len() == d_q))
    }

    /// The §4.3 union, counted: pools the posting words of `keys` (as
    /// [`postings`](Nix::postings) keeps them), read in one sorted descent
    /// that reads each B-tree page once however many keys share it. An
    /// object's word recurs once per list holding it — `|T ∩ Q|` times —;
    /// each word goes to `reached` once, when its count reaches `at(word)`
    /// ([`tally`]).
    fn union(
        &self,
        keys: &[u64],
        keep: impl Fn(u64) -> bool,
        at: impl Fn(u64) -> u64,
        reached: impl FnMut(u64),
    ) -> Result<()> {
        let mut pooled = Vec::new();
        self.postings(keys, &mut pooled, keep, |_| true)?;
        tally(&pooled, at, reached);
        Ok(())
    }

    /// `T ⊆ Q` by counting: an object qualifies when its word's count in
    /// the union reaches its `|T|`, and every object with an empty set
    /// qualifies. Exact, unless a kept `|T|` is saturated. (No smart
    /// strategy: the probes are the union's, whatever the cap.)
    ///
    /// While empty sets are indexed, [`EMPTY_SET_KEY`] — the last key —
    /// ends the same descent: its `|T| = 0` words are the empty sets, each
    /// met once, and its `|T| ≥ 1` words count only when a query element
    /// digests to it.
    fn subset_candidates(&self, query: &SetQuery) -> Result<CandidateSet> {
        let mut keys = digests(&query.elements);
        let asked = keys.last() == Some(&EMPTY_SET_KEY);
        if self.empties > 0 && !asked {
            keys.push(EMPTY_SET_KEY);
        }
        let (mut oids, mut exact) = (Vec::new(), true);
        let keep = |word| asked || card_of(word) == 0;
        // An empty set's word is met once, in its key's list.
        let at = |word| card_of(word).max(1);
        self.union(&keys, keep, at, |word| {
            exact &= card_of(word) != SATURATED;
            oids.push(oid_of(word));
        })?;
        Ok(CandidateSet::new(oids, exact))
    }

    /// `T = Q`: the `T ⊇ Q` intersection, kept where `|T| = |Q|`; for
    /// `Q = ∅`, the objects with an empty set — those `T ⊆ ∅` counts.
    fn equal_candidates(&self, query: &SetQuery) -> Result<CandidateSet> {
        if query.elements.is_empty() {
            return self.subset_candidates(query);
        }
        let (words, _) = self.intersection(query)?;
        let card = (digests(&query.elements).len() as u64).min(SATURATED);
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

/// Intersects `acc` with the posting words in `list` — the first list
/// seeds it — and empties `list`. Returns whether any object is left.
/// Posting lists come in insertion order; each is put in ascending order
/// once, then every intersection is a two-pointer pass. An object's word is
/// the same in every list, so words intersect as OIDs do.
fn meet(acc: &mut Option<Vec<u64>>, list: &mut Vec<u64>) -> bool {
    sorted::sort_dedup(list);
    let met = match acc {
        None => std::mem::take(list),
        Some(prev) => sorted::intersect(prev, list),
    };
    list.clear();
    !acc.insert(met).is_empty()
}

/// Whether `word` is no empty set's: what every look-up but `T ⊆ Q`'s keeps
/// of [`EMPTY_SET_KEY`]'s list.
fn not_empty(word: u64) -> bool {
    card_of(word) != 0
}

/// The distinct key digests of `elements`, ascending.
fn digests(elements: &[ElementKey]) -> Vec<u64> {
    let mut digests: Vec<u64> = elements.iter().map(ElementKey::digest8).collect();
    sorted::sort_dedup(&mut digests);
    digests
}

/// The home slot of `word` in a table of `2^(64 - shift)` slots: the top bits
/// of a Fibonacci hash, which mix the OID bits into every slot bit.
fn slot(word: u64, shift: u32) -> usize {
    (word.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
}

/// Counts the words of `pooled` in one linear-probing table of 8-byte slots,
/// each `oid << 16 | count` (`0` is vacant: a held slot counts at least 1),
/// and hands `reached` each word the moment its count reaches `at(word)` —
/// once, however often the word recurs. An object's word is the same in
/// every list, so a slot keys on the OID alone; the count saturates at
/// `0xFFFF`, which `at` never exceeds. The table has the next power of two
/// ≥ `2·pooled` slots, allocated once, so it is at most half full and every
/// probe ends at the word or at a vacant slot. An empty pool builds no table
/// (a one-slot table would have no slot bits to hash).
fn tally(pooled: &[u64], at: impl Fn(u64) -> u64, mut reached: impl FnMut(u64)) {
    if pooled.is_empty() {
        return;
    }
    let slots = (2 * pooled.len()).next_power_of_two();
    let shift = u64::BITS - slots.trailing_zeros();
    let mut table = vec![0u64; slots];
    for &word in pooled {
        let key = word & !SATURATED; // `oid << 16`: the word's slot at count 0
        let mut i = slot(word, shift);
        while table[i] != 0 && table[i] & !SATURATED != key {
            i = (i + 1) & (slots - 1);
        }
        let held = table[i] | key;
        if held & SATURATED != SATURATED {
            table[i] = held + 1;
            if (held + 1) & SATURATED == at(word) {
                reached(word);
            }
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
                let keys = digests(&query.elements);
                self.union(&keys, not_empty, |_| 1, |word| oids.push(oid_of(word)))?;
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

    /// [`IndexLayout::Nested`] over the tree's keys, and `Σ|T|` as its
    /// postings count it: one per distinct digest of each set. Both leave
    /// out the key empty sets are posted under, and its postings.
    fn profile(&self) -> Option<Profile> {
        Some(Profile {
            layout: IndexLayout::Nested {
                keys: self.tree.key_count() - u64::from(self.empties > 0),
            },
            elements: self.tree.posting_count() - self.empties,
        })
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
    use setsig_pagestore::Disk;

    fn keys(elems: &[&str]) -> Vec<ElementKey> {
        elems.iter().map(ElementKey::from).collect()
    }

    fn nix() -> (Arc<Disk>, Nix) {
        let disk = Arc::new(Disk::new());
        (Arc::clone(&disk), Nix::on_io(disk, "test"))
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
        // The empty sets' key ends the query's one descent: its path is
        // read once with the query's, not looked up again.
        disk.reset_stats();
        let query = SetQuery::in_subset(keys(&["a"]));
        let (_, stats) = n.candidates_with_stats(&query).unwrap();
        assert_eq!(stats.unwrap().pages, disk.snapshot().reads);
        let mut probed = digests(&query.elements);
        probed.push(EMPTY_SET_KEY);
        assert_eq!(stats.unwrap().pages, path_union(&n, &probed));
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
        // Not asked for, the key's `|T| ≥ 1` words do not count: object 3
        // is met under 4 alone.
        assert_eq!(ids(SetQuery::in_subset(vec![ElementKey::from(4u64)])), [1]);
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
            n.union(&digests(&query.elements), not_empty, at, |w| kept.push(w))
                .unwrap();
            kept.sort_unstable();
            assert_eq!(kept, [word, posting(Oid::new(2), 1).unwrap()]);
            assert_eq!(n.candidates(&query).unwrap().oids, [1, 2].map(Oid::new));
        }
    }

    #[test]
    fn a_query_whose_every_list_is_empty_answers_nothing_exactly() {
        let (_d, mut n) = nix();
        n.insert(Oid::new(1), &keys(&["a"])).unwrap();
        let absent = keys(&["x", "y", "z"]);
        for q in [
            SetQuery::in_subset(absent.clone()),
            SetQuery::overlaps(absent),
        ] {
            let (c, stats) = n.candidates_with_stats(&q).unwrap();
            assert!(c.is_empty() && c.exact, "{}", q.predicate);
            // The one descent still reaches the leaf of every list.
            assert_eq!(stats.unwrap().pages, path_union(&n, &digests(&q.elements)));
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
    fn a_saturated_count_is_reached_once_and_a_colliding_oid_counts_apart() {
        // 0x1_0003 + 3 pooled words: a table of 2^18 slots.
        let pooled = 0x1_0003 + 3;
        let shift = u64::BITS - (2 * pooled as usize).next_power_of_two().trailing_zeros();
        let a = posting(Oid::new(1), 70_000).unwrap();
        assert_eq!(card_of(a), SATURATED);
        let b = (2..)
            .map(|oid| posting(Oid::new(oid), 3).unwrap())
            .find(|&w| slot(w, shift) == slot(a, shift))
            .unwrap();
        let mut words = vec![b, b];
        words.resize(2 + 0x1_0003, a);
        words.push(b);
        assert_eq!(words.len(), pooled as usize);
        let kept = |at: &dyn Fn(u64) -> u64| {
            let mut kept = Vec::new();
            tally(&words, at, |w| kept.push(w));
            kept
        };
        // `a` past `0xFFFF` stays saturated and is not handed out again; `b`,
        // probing past `a`'s slot, counts its own three.
        assert_eq!(kept(&card_of), [a, b]);
        assert_eq!(kept(&|_| 1), [b, a]);
        assert_eq!(kept(&|w| if w == b { 4 } else { 2 }), [a]);
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
        // The pages on the first two elements' paths.
        let reads = disk.snapshot().reads;
        assert_eq!(reads, path_union(&n, &digests(&q.elements[..2])));
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

    /// The distinct B-tree pages on the paths of `digests`.
    fn path_union(n: &Nix, digests: &[u64]) -> u64 {
        let mut pages: Vec<u32> = (digests.iter())
            .flat_map(|&digest| n.tree().path(digest).unwrap())
            .collect();
        pages.sort_unstable();
        pages.dedup();
        pages.len() as u64
    }

    /// Pages each of [`thousand_triples`]' queries reads: `⊇` and `⊆` the
    /// pages on their three paths once each — fewer than §4.3's `rc·D_q` —,
    /// smart-`⊇` those on its first two.
    fn triple_pages(n: &Nix, queries: &[SetQuery; 3]) -> [u64; 3] {
        let rc = u64::from(n.tree().rc_lookup());
        let union = path_union(n, &digests(&queries[1].elements));
        assert!(
            n.tree().height() >= 1 && union < 3 * rc,
            "the root is shared"
        );
        let first_two = path_union(n, &digests(&queries[2].elements[..2]));
        [union, union, first_two]
    }

    #[test]
    fn lookup_cost_is_the_pages_on_the_probed_paths() {
        let (disk, mut n) = nix();
        let queries = thousand_triples(&mut n);
        // The pages the call reports are exactly its disk reads.
        for (q, pages) in queries.iter().zip(triple_pages(&n, &queries)) {
            disk.reset_stats();
            let (_, stats) = n.candidates_with_stats(q).unwrap();
            assert_eq!(disk.snapshot().reads, pages, "{}", q.predicate);
            assert_eq!(stats.unwrap().pages, pages);
        }
    }

    #[test]
    fn a_superset_query_is_one_descent_that_ends_when_the_intersection_empties() {
        let (disk, mut n) = nix();
        thousand_triples(&mut n);
        let rc = u64::from(n.tree().rc_lookup());
        let reads = |elements: &[u64]| {
            let q = SetQuery::has_subset(elements.iter().map(|&e| ElementKey::from(e)).collect());
            disk.reset_stats();
            let c = n.candidates(&q).unwrap();
            (c.oids, disk.snapshot().reads)
        };
        // Object 500 holds 1500–1502. An integer's digest is its value, so
        // the descent meets 1500, 1501 and 1502 (object 500 kept), then 1503
        // (object 501 only: the intersection empties), and never reads 2815.
        let leaf = |key| n.tree().path(key).unwrap().pop();
        assert_ne!(leaf(2815), leaf(1503), "2815's leaf is a page of its own");
        let (oids, pages) = reads(&[2815, 1503, 1502, 1501, 1500]);
        assert!(oids.is_empty());
        assert_eq!(pages, path_union(&n, &[1500, 1501, 1502, 1503]));
        // Kept to the end, the descent reads every path once.
        let (oids, pages) = reads(&[1502, 1500, 1501]);
        let all = path_union(&n, &[1500, 1501, 1502]);
        assert_eq!((oids, pages), (vec![Oid::new(500)], all));
        // Two lists with no object in common end the query there.
        let (oids, pages) = reads(&[3, 1500, 1501, 1502]);
        assert_eq!((oids, pages), (vec![], path_union(&n, &[3, 1500])));
        assert!(pages <= 2 * rc);
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
        let expected = triple_pages(&n, &queries);
        pool.clear();
        for (q, pages) in queries.iter().zip(expected) {
            let (cold_set, cold) = n.candidates_with_stats(q).unwrap();
            disk.reset_stats();
            let (hot_set, hot) = n.candidates_with_stats(q).unwrap();
            assert_eq!(cold_set, hot_set);
            assert_eq!(cold.unwrap().pages, pages);
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
    use setsig_pagestore::Disk;

    #[test]
    fn nix_reopens_from_saved_image() {
        let dir = std::env::temp_dir().join(format!("setsig-nix-meta-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.img");

        let disk = Arc::new(Disk::new());
        let mut nix = Nix::on_io(Arc::clone(&disk) as Arc<dyn PageIo>, "h");
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
    fn the_profile_counts_each_sets_distinct_elements_and_survives_a_reopen() {
        let disk = Arc::new(Disk::new());
        let io = || Arc::clone(&disk) as Arc<dyn PageIo>;
        let mut nix = Nix::on_io(io(), "p");
        // `(Σ|T|, keys)`.
        let elements = |nix: &Nix| {
            let profile = nix.profile().unwrap();
            let IndexLayout::Nested { keys } = profile.layout else {
                panic!("{profile:?}");
            };
            (profile.elements, keys)
        };
        assert_eq!(elements(&nix), (0, 0));
        let set = |s: &[u64]| s.iter().map(|&e| ElementKey::from(e)).collect::<Vec<_>>();
        // Repeats count once; an empty set counts 0.
        nix.insert(Oid::new(1), &set(&[3, 1, 3])).unwrap();
        nix.insert(Oid::new(2), &set(&[1, 2, 4])).unwrap();
        nix.insert(Oid::new(3), &[]).unwrap();
        assert_eq!(elements(&nix), (5, 4));
        nix.delete(Oid::new(1), &set(&[1, 3])).unwrap();
        assert_eq!(elements(&nix), (3, 3));
        // A refused delete moves nothing.
        assert!(nix.delete(Oid::new(9), &set(&[7])).is_err());
        nix.delete(Oid::new(3), &[]).unwrap();
        nix.insert(Oid::new(4), &[]).unwrap();
        assert_eq!(elements(&nix), (3, 3));
        let meta = nix.sync_meta().unwrap();
        let reopened = Nix::open(io(), meta).unwrap();
        assert_eq!(reopened.profile(), nix.profile());
        assert_eq!(elements(&reopened), (3, 3));
    }

    #[test]
    fn an_image_of_bare_oid_postings_is_refused() {
        // What `sync_meta` wrote while a posting word was the bare OID.
        let disk = Arc::new(Disk::new());
        let mut nix = Nix::on_io(Arc::clone(&disk) as Arc<dyn PageIo>, "old");
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
