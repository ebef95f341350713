//! The nested index as a set access facility.

use setsig_core::{
    sorted, CandidateSet, ElementKey, Error, Oid, Result, ScanStats, SetAccessFacility,
    SetPredicate, SetQuery,
};
use setsig_pagestore::{Disk, PageIo};
use std::sync::Arc;

use crate::btree::BTree;

/// The nested index (NIX): a [`BTree`] keyed by set elements whose posting
/// lists are the OIDs of the objects containing that element, plus the
/// paper's retrieval schemes (§4.3).
pub struct Nix {
    tree: BTree,
    indexed: u64,
    /// Catalog checkpoint file; created lazily by [`Nix::sync_meta`].
    meta_file: Option<setsig_pagestore::PagedFile>,
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
            meta_file: None,
        }
    }

    /// The underlying B-tree (stats, integrity checks).
    pub fn tree(&self) -> &BTree {
        &self.tree
    }

    /// Posting list of one element: the OIDs of every object whose indexed
    /// set contains it. Costs `rc = height + 1` page reads (+ chain links).
    pub fn lookup_element(&self, element: &ElementKey) -> Result<Vec<Oid>> {
        Ok(self
            .tree
            .lookup(element.digest8(), &mut 0)?
            .into_iter()
            .map(Oid::new)
            .collect())
    }

    /// The §4.3 retrieval for `T ⊇ Q`: look up every query element and
    /// intersect the OID lists. Exact — an object containing every query
    /// element satisfies the predicate by definition.
    ///
    /// Under a smart cap (§5.1.3) only the first `cap` elements' posting
    /// lists are intersected; the rest are verified at drop resolution, so
    /// a truncated answer is *not* exact.
    fn superset_candidates(&self, query: &SetQuery, ctr: &mut ScanStats) -> Result<CandidateSet> {
        let d_q = query.elements.len();
        let take = d_q.min(query.cap().unwrap_or(d_q));
        // Posting lists come in insertion order; each is put in ascending
        // order once, then every intersection is a two-pointer pass.
        let mut acc: Option<Vec<u64>> = None;
        for e in &query.elements[..take] {
            let mut list = self.tree.lookup(e.digest8(), &mut ctr.pages)?;
            sorted::sort_dedup(&mut list);
            let met = match &acc {
                None => list,
                Some(prev) => sorted::intersect(prev, &list),
            };
            if acc.insert(met).is_empty() {
                break;
            }
        }
        let oids = acc
            .map(|s| s.into_iter().map(Oid::new).collect())
            .unwrap_or_default();
        Ok(CandidateSet::new(oids, take == d_q))
    }

    /// The §4.3 retrieval for `T ⊆ Q`: union the posting lists of all query
    /// elements. Not exact — an object sharing one element may still hold
    /// elements outside `Q` — so drop resolution fetches every candidate,
    /// which is precisely why the paper finds NIX weak on this query. (No
    /// smart strategy: every list may hold a qualifying object.)
    fn subset_candidates(&self, query: &SetQuery, ctr: &mut ScanStats) -> Result<CandidateSet> {
        // The union: pool the lists, and `CandidateSet::new` sorts and
        // deduplicates them.
        let mut pooled = Vec::new();
        for e in &query.elements {
            pooled.extend(
                self.tree
                    .lookup(e.digest8(), &mut ctr.pages)?
                    .into_iter()
                    .map(Oid::new),
            );
        }
        Ok(CandidateSet::new(pooled, false))
    }
}

/// The distinct key digests of `set`, in the order `set` first shows each:
/// the B-tree is written in the order the caller listed the elements.
fn distinct_digests(set: &[ElementKey]) -> impl Iterator<Item = u64> {
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
        for digest in distinct_digests(set) {
            self.tree.insert(digest, oid.raw())?;
        }
        self.indexed += 1;
        Ok(())
    }

    fn delete(&mut self, oid: Oid, set: &[ElementKey]) -> Result<()> {
        let mut removed_any = false;
        for digest in distinct_digests(set) {
            removed_any |= self.tree.remove(digest, oid.raw())?;
        }
        if !removed_any && !set.is_empty() {
            return Err(Error::OidNotFound(oid));
        }
        self.indexed = self.indexed.saturating_sub(1);
        Ok(())
    }

    fn candidates_with_stats(&self, query: &SetQuery) -> Result<(CandidateSet, Option<ScanStats>)> {
        let mut stats = ScanStats::default();
        let ctr = &mut stats;
        let drops = match query.predicate {
            SetPredicate::HasSubset | SetPredicate::Contains => {
                self.superset_candidates(query, ctr)?
            }
            SetPredicate::InSubset => self.subset_candidates(query, ctr)?,
            // `T = Q` implies `T ⊇ Q`, but a strict superset of Q is a
            // false drop: intersect, verify cardinality at resolution.
            SetPredicate::Equals => CandidateSet {
                exact: false,
                ..self.superset_candidates(query, ctr)?
            },
            // Any object listed under any query element shares it.
            SetPredicate::Overlaps => CandidateSet {
                exact: true,
                ..self.subset_candidates(query, ctr)?
            },
        };
        Ok((drops, Some(stats)))
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
    fn subset_union_needs_verification() {
        let (_d, mut n) = nix();
        n.insert(Oid::new(1), &keys(&["Baseball"])).unwrap();
        n.insert(Oid::new(2), &keys(&["Baseball", "Skiing"]))
            .unwrap();
        let q = SetQuery::in_subset(keys(&["Baseball", "Fishing"]));
        let c = n.candidates(&q).unwrap();
        // Both objects share "Baseball", but object 2 is not a subset:
        // union returns both, marked inexact.
        assert_eq!(c.oids, vec![Oid::new(1), Oid::new(2)]);
        assert!(!c.exact);
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
    fn equals_intersects_but_verifies() {
        let (_d, mut n) = nix();
        n.insert(Oid::new(1), &keys(&["a", "b"])).unwrap();
        n.insert(Oid::new(2), &keys(&["a", "b", "c"])).unwrap();
        let c = n.candidates(&SetQuery::equals(keys(&["a", "b"]))).unwrap();
        // Object 2 is a superset — a candidate the resolver must reject.
        assert_eq!(c.oids, vec![Oid::new(1), Oid::new(2)]);
        assert!(!c.exact);
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
    fn overflow_chain_links_are_counted() {
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

impl Nix {
    /// Checkpoints the index's catalog state: the B-tree checkpoint plus
    /// the indexed-object count, in a meta file of its own. Returns the
    /// meta file id to hand to [`Nix::open`].
    pub fn sync_meta(&mut self) -> Result<setsig_pagestore::FileId> {
        let tree_meta = self.tree.sync_meta()?;
        let meta = match &self.meta_file {
            Some(f) => f.clone(),
            None => {
                let f = setsig_pagestore::PagedFile::create(
                    Arc::clone(self.tree.file_io()),
                    "nix.meta",
                );
                self.meta_file = Some(f.clone());
                f
            }
        };
        let mut blob = Vec::with_capacity(16);
        blob.extend_from_slice(b"NIXW");
        blob.extend_from_slice(&tree_meta.raw().to_le_bytes());
        blob.extend_from_slice(&self.indexed.to_le_bytes());
        meta.write_blob(&blob)?;
        Ok(meta.id())
    }

    /// Reopens a nested index from a [`Nix::sync_meta`] checkpoint.
    #[expect(
        clippy::unwrap_used,
        reason = "slice-to-array conversion of a subslice whose length the index expression fixes; cannot fail"
    )]
    pub fn open(io: Arc<dyn PageIo>, meta: setsig_pagestore::FileId) -> Result<Self> {
        let meta_file = setsig_pagestore::PagedFile::open(Arc::clone(&io), meta);
        let blob = meta_file.read_blob()?;
        if blob.len() != 16 || &blob[..4] != b"NIXW" {
            return Err(Error::BadConfig("not a nested-index meta blob".into()));
        }
        let tree_meta =
            setsig_pagestore::FileId::from_raw(u32::from_le_bytes(blob[4..8].try_into().unwrap()));
        let indexed = u64::from_le_bytes(blob[8..16].try_into().unwrap());
        let tree = BTree::open(io, tree_meta)?;
        Ok(Nix {
            tree,
            indexed,
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
        let meta = nix.sync_meta().unwrap();
        disk.save_to(&path).unwrap();

        let loaded = Arc::new(Disk::load_from(&path).unwrap());
        let io: Arc<dyn PageIo> = Arc::clone(&loaded) as Arc<dyn PageIo>;
        let mut reopened = Nix::open(io, meta).unwrap();
        assert_eq!(reopened.indexed_count(), 2000);
        assert_eq!(reopened.tree().key_count(), nix.tree().key_count());
        let q = SetQuery::contains(ElementKey::from(42u64));
        let mut expected = nix.candidates(&q).unwrap();
        let got = reopened.candidates(&q).unwrap();
        expected.oids.sort_unstable();
        assert_eq!(got, expected);
        reopened.tree().check_integrity().unwrap();
        // Further inserts keep working (splits included).
        for i in 2000..2300u64 {
            reopened
                .insert(Oid::new(i), &[ElementKey::from(i)])
                .unwrap();
        }
        reopened.tree().check_integrity().unwrap();

        std::fs::remove_dir_all(&dir).ok();
    }
}
