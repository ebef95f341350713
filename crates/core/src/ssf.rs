//! The sequential signature file (SSF) organization.
//!
//! The simplest physical organization (§3.1, Figure 3): set signatures are
//! stored row-wise, fixed-width, packed `⌊P/⌈F/8⌉⌋` to a page. Retrieval
//! scans **every** signature page — which is why the paper finds SSF's
//! retrieval cost dominated by its own storage cost `SC_SIG` (Eq. 7) — then
//! looks up candidate positions in the [`OidFile`].
//!
//! Updates are cheap, the organization's one strength: insertion blind-
//! writes the tail page of the signature file and the tail page of the OID
//! file (`UC_I = 2`), deletion tombstones the OID file entry (`UC_D =
//! SC_OID/2`).

use setsig_pagestore::{Page, PageIo, PagedFile, PAGE_SIZE};
use std::sync::Arc;

use crate::config::SignatureConfig;
use crate::element::ElementKey;
use crate::error::{Error, Result};
use crate::facility::{CandidateSet, ScanStats, SetAccessFacility};
use crate::kernel::{self, RowTest};
use crate::oid::Oid;
use crate::oidfile::OidFile;
use crate::query::{SetPredicate, SetQuery};
use crate::signature::Signature;

/// A sequential signature file with its companion OID file.
pub struct Ssf {
    cfg: SignatureConfig,
    sig_file: PagedFile,
    oid_file: OidFile,
    sig_bytes: usize,
    per_page: u64,
    /// Catalog checkpoint file; created lazily by [`Ssf::sync_meta`].
    meta_file: Option<PagedFile>,
}

impl Ssf {
    /// Creates an empty SSF named `name` (files `<name>.ssf` / `<name>.oid`)
    /// on `io`. Hand it a [`BufferPool`](setsig_pagestore::BufferPool) to
    /// cache signature and OID reads; the caller keeps the pool's `Arc`.
    pub fn create(io: Arc<dyn PageIo>, name: &str, cfg: SignatureConfig) -> Result<Self> {
        let sig_bytes = cfg.signature_bytes();
        let per_page = (PAGE_SIZE / sig_bytes) as u64;
        if per_page == 0 {
            return Err(Error::BadConfig(format!(
                "signature of {sig_bytes} bytes does not fit a {PAGE_SIZE}-byte page"
            )));
        }
        Ok(Ssf {
            cfg,
            sig_file: PagedFile::create(Arc::clone(&io), &format!("{name}.ssf")),
            oid_file: OidFile::create(io, &format!("{name}.oid")),
            sig_bytes,
            per_page,
            meta_file: None,
        })
    }

    /// The signature design parameters.
    pub fn config(&self) -> &SignatureConfig {
        &self.cfg
    }

    /// Signatures stored per page: `⌊P/⌈F/8⌉⌋`.
    pub fn signatures_per_page(&self) -> u64 {
        self.per_page
    }

    /// The companion OID file.
    pub fn oid_file(&self) -> &OidFile {
        &self.oid_file
    }

    /// Pages in the signature file alone — the paper's `SC_SIG`.
    pub fn signature_pages(&self) -> Result<u64> {
        Ok(self.sig_file.len()? as u64)
    }

    fn slot_of(&self, pos: u64) -> (u32, usize) {
        (
            (pos / self.per_page) as u32,
            (pos % self.per_page) as usize * self.sig_bytes,
        )
    }

    /// Appends `sig` for `oid`, returning the entry position.
    ///
    /// Cost on an uncached disk: exactly 2 page writes (`UC_I = 2`). The
    /// OID-file append is the commit point: a call that fails before it has
    /// indexed nothing, and what it wrote of the signature file is written
    /// over by the next insert at that position.
    pub fn insert_signature(&mut self, oid: Oid, sig: &Signature) -> Result<u64> {
        if sig.f_bits() != self.cfg.f_bits() {
            return Err(Error::WidthMismatch {
                expected: self.cfg.f_bits(),
                got: sig.f_bits(),
            });
        }
        let pos = self.oid_file.len();
        let (page_no, off) = self.slot_of(pos);
        let bytes = sig.to_bytes();
        if pos.is_multiple_of(self.per_page) {
            let mut page = Page::zeroed();
            page.write_slice(off, &bytes);
            // A call that failed between this write and the OID append left
            // its page behind: write over it, or the row would sit one page
            // past where `slot_of` reads it.
            if page_no < self.sig_file.len()? {
                self.sig_file.write(page_no, &page)?;
            } else {
                let appended = self.sig_file.append(&page)?;
                debug_assert_eq!(appended, page_no);
            }
        } else {
            self.sig_file
                .update(page_no, |page| page.write_slice(off, &bytes))?;
        }
        let opos = self.oid_file.append(oid)?;
        debug_assert_eq!(opos, pos);
        Ok(pos)
    }

    /// Reads the stored signature at `pos` (one page read).
    pub fn signature_at(&self, pos: u64) -> Result<Signature> {
        if pos >= self.oid_file.len() {
            return Err(Error::NoSuchEntry(pos));
        }
        let (page_no, off) = self.slot_of(pos);
        let page = self.sig_file.read(page_no)?;
        Ok(Signature::from_bytes(
            self.cfg.f_bits(),
            page.read_slice(off, self.sig_bytes),
        ))
    }

    /// Full scan of the signature file, returning the positions whose
    /// signatures match `query` (§4.1 step 2). Reads every signature page
    /// exactly once.
    ///
    /// This is the batched row-scan path: the query compiles once to a
    /// [`RowTest`], and each fetched page's rows are matched **in place**
    /// by [`kernel::match_rows`] — no per-row signature is materialized.
    pub fn scan_matching_positions(&self, query: &SetQuery) -> Result<Vec<u64>> {
        self.scan_matching_positions_counted(query, &mut ScanStats::default())
    }

    /// [`Ssf::scan_matching_positions`] charging its page accounting to
    /// `ctr` — the stats of the calling `candidates*` frame.
    fn scan_matching_positions_counted(
        &self,
        query: &SetQuery,
        ctr: &mut ScanStats,
    ) -> Result<Vec<u64>> {
        let query_sig = query.signature(&self.cfg);
        let total = self.oid_file.len();
        let npages = self.sig_file.len()?;
        let (qw, nbits) = (query_sig.bitmap().words(), self.cfg.f_bits());
        // `T ≬ Q` counts bits, which is not a masked compare.
        let test = match query.predicate {
            SetPredicate::HasSubset | SetPredicate::Contains => Some(RowTest::superset(qw, nbits)),
            SetPredicate::InSubset => Some(RowTest::subset(qw, nbits)),
            SetPredicate::Equals => Some(RowTest::equals(qw, nbits)),
            SetPredicate::Overlaps => None,
        };
        let mut positions = Vec::new();
        for page_no in 0..npages {
            self.scan_page(test.as_ref(), qw, total, page_no, &mut positions)?;
            ctr.pages += 1;
        }
        Ok(positions)
    }

    /// Matches one signature page's rows in place, appending hits to `out`:
    /// through the compiled `test`, or, with none, by the overlap count of
    /// the query words `qw` against `m`.
    fn scan_page(
        &self,
        test: Option<&RowTest>,
        qw: &[u64],
        total: u64,
        page_no: u32,
        out: &mut Vec<u64>,
    ) -> Result<()> {
        let page = self.sig_file.read(page_no)?;
        let base = page_no as u64 * self.per_page;
        let slots = (total - base).min(self.per_page) as usize;
        if let Some(test) = test {
            kernel::match_rows(test, page.as_bytes(), self.sig_bytes, slots, base, out);
            return Ok(());
        }
        for s in 0..slots {
            let row = page.read_slice(s * self.sig_bytes, self.sig_bytes);
            if kernel::intersection_count(qw, row) >= self.cfg.m_weight() {
                out.push(base + s as u64);
            }
        }
        Ok(())
    }

    /// The pre-kernel reference scan: materializes a [`Signature`] per row
    /// and matches through [`SetQuery::signature_matches`]. Kept as the
    /// oracle the batched path is differentially tested against.
    #[cfg(test)]
    fn scan_matching_positions_reference(&self, query: &SetQuery) -> Result<Vec<u64>> {
        let query_sig = query.signature(&self.cfg);
        let total = self.oid_file.len();
        let npages = self.sig_file.len()?;
        let mut positions = Vec::new();
        for page_no in 0..npages {
            let page = self.sig_file.read(page_no)?;
            let base = page_no as u64 * self.per_page;
            let slots = (total - base).min(self.per_page) as usize;
            for s in 0..slots {
                let sig = Signature::from_bytes(
                    self.cfg.f_bits(),
                    page.read_slice(s * self.sig_bytes, self.sig_bytes),
                );
                if query.signature_matches(&self.cfg, &sig, &query_sig) {
                    positions.push(base + s as u64);
                }
            }
        }
        Ok(positions)
    }

    /// Rebuilds the SSF without tombstoned entries, reclaiming the space of
    /// deleted objects (an extension; the paper leaves tombstones forever).
    ///
    /// Returns the number of live entries carried over.
    pub fn compact(&mut self) -> Result<u64> {
        let live = self.oid_file.scan_live()?;
        let io = Arc::clone(self.sig_file.io());
        let new_sig = PagedFile::create(Arc::clone(&io), "compacted.ssf");
        let mut new_oid = OidFile::create(io, "compacted.oid");
        let mut tail = Page::zeroed();
        let mut next: u64 = 0;
        for &(pos, oid) in &live {
            let (page_no, off) = self.slot_of(pos);
            let page = self.sig_file.read(page_no)?;
            let noff = (next % self.per_page) as usize * self.sig_bytes;
            tail.write_slice(noff, page.read_slice(off, self.sig_bytes));
            next += 1;
            if next.is_multiple_of(self.per_page) {
                new_sig.append(&tail)?;
                tail = Page::zeroed();
            }
            new_oid.append(oid)?;
        }
        if !next.is_multiple_of(self.per_page) {
            new_sig.append(&tail)?;
        }
        self.sig_file = new_sig;
        self.oid_file = new_oid;
        Ok(next)
    }
}

impl SetAccessFacility for Ssf {
    fn name(&self) -> &'static str {
        "SSF"
    }

    fn insert(&mut self, oid: Oid, set: &[ElementKey]) -> Result<()> {
        let sig = Signature::for_set(&self.cfg, set);
        self.insert_signature(oid, &sig)?;
        Ok(())
    }

    fn delete(&mut self, oid: Oid, _set: &[ElementKey]) -> Result<()> {
        // §4.1: deletion only flags the OID file entry; the stale signature
        // stays and is filtered at OID look-up time.
        self.oid_file.delete_by_oid(oid)?;
        Ok(())
    }

    fn candidates_with_stats(&self, query: &SetQuery) -> Result<(CandidateSet, Option<ScanStats>)> {
        // No smart strategy: a capped query runs the plain full scan.
        let mut stats = ScanStats::default();
        let positions = self.scan_matching_positions_counted(query, &mut stats)?;
        let drops = self.oid_file.drops_at(&positions, &mut stats)?;
        Ok((drops, Some(stats)))
    }

    fn indexed_count(&self) -> u64 {
        self.oid_file.live_count()
    }

    fn storage_pages(&self) -> Result<u64> {
        Ok(self.sig_file.len()? as u64 + self.oid_file.storage_pages()? as u64)
    }

    fn cache_stats(&self) -> Option<setsig_pagestore::CacheStats> {
        self.sig_file.io().cache_stats()
    }

    fn signature_geometry(&self) -> Option<(u32, u32)> {
        Some((self.cfg.f_bits(), self.cfg.m_weight()))
    }
}

impl std::fmt::Debug for Ssf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Ssf {{ F: {}, m: {}, entries: {} }}",
            self.cfg.f_bits(),
            self.cfg.m_weight(),
            self.oid_file.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setsig_pagestore::Disk;

    fn ssf(f_bits: u32, m: u32) -> (Arc<Disk>, Ssf) {
        let disk = Arc::new(Disk::new());
        let io: Arc<dyn PageIo> = Arc::clone(&disk) as Arc<dyn PageIo>;
        let cfg = SignatureConfig::new(f_bits, m).unwrap();
        (disk.clone(), Ssf::create(io, "test", cfg).unwrap())
    }

    fn keys(elems: &[&str]) -> Vec<ElementKey> {
        elems.iter().map(ElementKey::from).collect()
    }

    #[test]
    fn insert_and_query_superset() {
        let (_d, mut ssf) = ssf(128, 3);
        ssf.insert(Oid::new(1), &keys(&["Baseball", "Fishing"]))
            .unwrap();
        ssf.insert(Oid::new(2), &keys(&["Tennis", "Chess"]))
            .unwrap();
        ssf.insert(Oid::new(3), &keys(&["Baseball", "Golf", "Fishing"]))
            .unwrap();

        let q = SetQuery::has_subset(keys(&["Baseball", "Fishing"]));
        let c = ssf.candidates(&q).unwrap();
        assert!(c.oids.contains(&Oid::new(1)));
        assert!(c.oids.contains(&Oid::new(3)));
        assert!(!c.exact);
    }

    #[test]
    fn query_subset_finds_contained_sets() {
        let (_d, mut ssf) = ssf(128, 3);
        ssf.insert(Oid::new(1), &keys(&["Baseball"])).unwrap();
        ssf.insert(
            Oid::new(2),
            &keys(&["Baseball", "Football", "Rugby", "Cricket"]),
        )
        .unwrap();

        let q = SetQuery::in_subset(keys(&["Baseball", "Football", "Tennis"]));
        let c = ssf.candidates(&q).unwrap();
        assert!(c.oids.contains(&Oid::new(1)));
        // oid 2 has Rugby+Cricket whose bits are very unlikely to be
        // covered with F=128; not asserted to avoid flakiness.
    }

    #[test]
    fn insert_costs_two_writes_within_page() {
        let (disk, mut ssf) = ssf(128, 3);
        ssf.insert(Oid::new(1), &keys(&["a"])).unwrap();
        disk.reset_stats();
        ssf.insert(Oid::new(2), &keys(&["b"])).unwrap();
        let s = disk.snapshot();
        // One blind write to the signature tail page + one to the OID tail
        // page — the paper's UC_I = 2.
        assert_eq!((s.reads, s.writes), (0, 2));
    }

    #[test]
    fn retrieval_reads_every_signature_page() {
        let (disk, mut ssf) = ssf(500, 5);
        let per_page = ssf.signatures_per_page();
        assert_eq!(per_page, (PAGE_SIZE / 63) as u64);
        let n = per_page * 3 + 10;
        for i in 0..n {
            ssf.insert(Oid::new(i), &keys(&[&format!("e{i}")])).unwrap();
        }
        assert_eq!(ssf.signature_pages().unwrap(), 4);
        disk.reset_stats();
        let q = SetQuery::has_subset(keys(&["never-inserted-element"]));
        let _ = ssf.candidates(&q).unwrap();
        // Full scan: exactly the 4 signature pages; with (almost surely) no
        // drops, the OID file is untouched.
        let fs = disk.file_stats(ssf.sig_file.id()).unwrap();
        assert_eq!(fs.reads, 4);
    }

    #[test]
    fn deleted_objects_disappear_from_results() {
        let (_d, mut ssf) = ssf(128, 3);
        let set = keys(&["Baseball", "Fishing"]);
        ssf.insert(Oid::new(1), &set).unwrap();
        ssf.insert(Oid::new(2), &set).unwrap();
        ssf.delete(Oid::new(1), &set).unwrap();
        let q = SetQuery::has_subset(keys(&["Baseball"]));
        let c = ssf.candidates(&q).unwrap();
        assert!(!c.oids.contains(&Oid::new(1)));
        assert!(c.oids.contains(&Oid::new(2)));
        assert_eq!(ssf.indexed_count(), 1);
    }

    #[test]
    fn signature_at_roundtrips() {
        let (_d, mut ssf) = ssf(256, 4);
        let set = keys(&["x", "y", "z"]);
        let pos = ssf
            .insert_signature(Oid::new(9), &Signature::for_set(ssf.config(), &set))
            .unwrap();
        let stored = ssf.signature_at(pos).unwrap();
        assert_eq!(stored, Signature::for_set(ssf.config(), &set));
        assert!(ssf.signature_at(pos + 1).is_err());
    }

    #[test]
    fn no_false_negatives_bulk() {
        // Soundness under volume: every truly-matching object is a drop.
        let (_d, mut ssf) = ssf(64, 2);
        for i in 0..500u64 {
            let set: Vec<ElementKey> = (0..5).map(|j| ElementKey::from(i * 31 + j)).collect();
            ssf.insert(Oid::new(i), &set).unwrap();
        }
        // Object 123's own first two elements as a ⊇ query.
        let q = SetQuery::has_subset(vec![
            ElementKey::from(123u64 * 31),
            ElementKey::from(123u64 * 31 + 1),
        ]);
        let c = ssf.candidates(&q).unwrap();
        assert!(c.oids.contains(&Oid::new(123)));
    }

    #[test]
    fn compact_reclaims_tombstones() {
        let (_d, mut ssf) = ssf(128, 3);
        for i in 0..10u64 {
            ssf.insert(Oid::new(i), &keys(&[&format!("e{i}")])).unwrap();
        }
        for i in 0..5u64 {
            ssf.delete(Oid::new(i * 2), &[]).unwrap();
        }
        let live = ssf.compact().unwrap();
        assert_eq!(live, 5);
        assert_eq!(ssf.indexed_count(), 5);
        // Survivors still retrievable.
        let q = SetQuery::has_subset(keys(&["e3"]));
        let c = ssf.candidates(&q).unwrap();
        assert!(c.oids.contains(&Oid::new(3)));
        // Victims gone.
        let q = SetQuery::has_subset(keys(&["e4"]));
        let c = ssf.candidates(&q).unwrap();
        assert!(!c.oids.contains(&Oid::new(4)));
    }

    #[test]
    fn width_mismatch_rejected() {
        let (_d, mut ssf) = ssf(128, 3);
        let other = SignatureConfig::new(64, 3).unwrap();
        let sig = Signature::for_set(&other, &keys(&["a"]));
        assert!(matches!(
            ssf.insert_signature(Oid::new(1), &sig),
            Err(Error::WidthMismatch {
                expected: 128,
                got: 64
            })
        ));
    }

    #[test]
    fn oversized_signature_rejected_at_create() {
        let disk = Arc::new(Disk::new());
        let io: Arc<dyn PageIo> = disk as Arc<dyn PageIo>;
        let cfg = SignatureConfig::new((PAGE_SIZE as u32 + 8) * 8, 2).unwrap();
        assert!(Ssf::create(io, "big", cfg).is_err());
    }
}

#[cfg(test)]
mod engine_tests {
    use super::*;
    use setsig_pagestore::{BufferPool, Disk};

    fn populated(f_bits: u32, m: u32, n: u64) -> (Arc<Disk>, Ssf) {
        let disk = Arc::new(Disk::new());
        let io: Arc<dyn PageIo> = Arc::clone(&disk) as Arc<dyn PageIo>;
        let cfg = SignatureConfig::new(f_bits, m).unwrap();
        let mut s = Ssf::create(io, "e", cfg).unwrap();
        for i in 0..n {
            let set: Vec<ElementKey> = (0..4).map(|j| ElementKey::from(i * 13 + j)).collect();
            s.insert(Oid::new(i), &set).unwrap();
        }
        (disk, s)
    }

    fn probes() -> Vec<SetQuery> {
        let mut qs = Vec::new();
        for i in [0u64, 5, 29, 64] {
            qs.push(SetQuery::has_subset(vec![
                ElementKey::from(i * 13),
                ElementKey::from(i * 13 + 1),
            ]));
            qs.push(SetQuery::in_subset(
                (0..6).map(|j| ElementKey::from(i * 13 + j)).collect(),
            ));
            qs.push(SetQuery::equals(
                (0..4).map(|j| ElementKey::from(i * 13 + j)).collect(),
            ));
            qs.push(SetQuery::overlaps(vec![ElementKey::from(i * 13 + 3)]));
        }
        qs.push(SetQuery::has_subset(vec![ElementKey::from(444_444u64)]));
        qs
    }

    #[test]
    fn batched_scan_agrees_with_reference_scan() {
        // F=500 → 63-byte rows, several pages; exercises the tail-byte
        // masking of the word kernels on every predicate.
        let (_d, s) = populated(500, 4, 300);
        for q in probes() {
            assert_eq!(
                s.scan_matching_positions(&q).unwrap(),
                s.scan_matching_positions_reference(&q).unwrap(),
                "batched scan diverged ({:?})",
                q.predicate
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// Over two or more signature pages at widths ∤ 64 — and at 500,
        /// whose last row word ends on the page's last byte — the batched
        /// scan answers like the reference on all four predicates, for a
        /// stored row's own set and for a random one. Row sets come from
        /// `seed`, so a case is a few numbers and not thousands of vectors.
        #[test]
        #[cfg_attr(miri, ignore)]
        fn batched_scan_agrees_with_reference_scan_at_any_width(
            width in 0usize..4,
            extra in 1u64..300,
            seed in proptest::prelude::any::<u64>(),
            pick in proptest::prelude::any::<u64>(),
            random in proptest::collection::vec(0u64..64, 0..5),
        ) {
            let f_bits = [8, 72, 100, 500][width];
            let cfg = SignatureConfig::new(f_bits, 2).unwrap();
            let mut s = Ssf::create(Arc::new(Disk::new()), "p", cfg).unwrap();
            let rows = s.signatures_per_page() + extra;
            let set = |i: u64| -> Vec<ElementKey> {
                let mix = |j: u64| (seed ^ (i * 4 + j)).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 58;
                (0..1 + (i ^ seed) % 3).map(|j| ElementKey::from(mix(j))).collect()
            };
            for i in 0..rows {
                s.insert(Oid::new(i), &set(i)).unwrap();
            }
            let random: Vec<ElementKey> = random.into_iter().map(ElementKey::from).collect();
            for elements in [set(pick % rows), random] {
                for q in [
                    SetQuery::has_subset(elements.clone()),
                    SetQuery::in_subset(elements.clone()),
                    SetQuery::equals(elements.clone()),
                    SetQuery::overlaps(elements.clone()),
                ] {
                    proptest::prop_assert_eq!(
                        s.scan_matching_positions(&q).unwrap(),
                        s.scan_matching_positions_reference(&q).unwrap(),
                        "{:?} at F = {}", q.predicate, f_bits
                    );
                }
            }
        }
    }

    #[test]
    fn scan_stats_count_signature_pages() {
        let (disk, s) = populated(500, 4, 300);
        let q = SetQuery::has_subset(vec![ElementKey::from(999_999u64)]);
        disk.reset_stats();
        let (_, stats) = s.candidates_with_stats(&q).unwrap();
        let stats = stats.unwrap();
        let sig = s.signature_pages().unwrap();
        // Scan pages plus at most one OID page of (unlikely) false drops.
        assert!(stats.pages >= sig && stats.pages <= sig + 1);
        // The filtering stage's charge is exactly its disk traffic.
        assert_eq!(disk.snapshot().reads, stats.pages);
    }

    #[test]
    fn cache_stats_come_from_the_io_handle() {
        let disk = Arc::new(Disk::new());
        let pool = Arc::new(BufferPool::new(Arc::clone(&disk), 64));
        let cfg = SignatureConfig::new(128, 2).unwrap();
        let mut s = Ssf::create(Arc::clone(&pool) as Arc<dyn PageIo>, "c", cfg).unwrap();
        for i in 0..200u64 {
            s.insert(Oid::new(i), &[ElementKey::from(i)]).unwrap();
        }
        // The write-through inserts installed every page; start from a cold pool.
        pool.clear();
        let before = pool.stats();
        let q = SetQuery::has_subset(vec![ElementKey::from(7u64)]);
        let first = s.candidates(&q).unwrap();
        let cold = pool.stats();
        assert!(cold.misses > before.misses, "cold scan must reach the disk");
        disk.reset_stats();
        let second = s.candidates(&q).unwrap();
        assert_eq!(first, second);
        assert_eq!(
            disk.snapshot().reads,
            0,
            "repeat scan must be pool-resident"
        );
        let cache = s.cache_stats().expect("pooled facility reports pool stats");
        assert!(cache.hits > cold.hits, "repeat scan must hit the pool");
        assert_eq!(
            cache,
            pool.stats(),
            "the caller's pool is the one reporting"
        );

        let (_d, bare) = populated(64, 2, 5);
        assert!(bare.cache_stats().is_none());
    }

    #[test]
    fn capped_query_runs_the_plain_filter() {
        let (_d, s) = populated(128, 2, 50);
        let elems = vec![ElementKey::from(0u64), ElementKey::from(1u64)];
        for plain in [
            SetQuery::has_subset(elems.clone()),
            SetQuery::in_subset(elems),
        ] {
            let capped = plain.clone().with_cap(1).unwrap();
            assert_eq!(
                s.candidates_with_stats(&capped).unwrap(),
                s.candidates_with_stats(&plain).unwrap()
            );
        }
    }
}

impl Ssf {
    /// Checkpoints the SSF's catalog state (design parameters, file
    /// bindings, entry counters) into its meta file, creating the file on
    /// first use. Returns the meta file id to hand to [`Ssf::open`].
    ///
    /// Checkpoints are explicit so per-operation costs keep the paper's
    /// values; call after bulk loading or before shutdown.
    pub fn sync_meta(&mut self) -> Result<setsig_pagestore::FileId> {
        let mut w = crate::meta::MetaWriter::new(b"SSF1");
        w.u32(self.cfg.f_bits());
        w.u32(self.cfg.m_weight());
        w.u64(self.cfg.seed());
        w.u32(self.sig_file.id().raw());
        w.u32(self.oid_file.file().id().raw());
        let (len, live) = self.oid_file.state();
        w.u64(len);
        w.u64(live);
        let io = Arc::clone(self.sig_file.io());
        crate::meta::checkpoint(&io, &mut self.meta_file, "ssf", &w.finish())
    }

    /// Reopens an SSF from the meta file written by
    /// [`Ssf::sync_meta`] — e.g. after [`setsig_pagestore::Disk::load_from`].
    pub fn open(io: Arc<dyn PageIo>, meta: setsig_pagestore::FileId) -> Result<Self> {
        let meta_file = PagedFile::open(Arc::clone(&io), meta);
        let blob = meta_file.read_blob()?;
        let mut r = crate::meta::MetaReader::new(&blob, b"SSF1")?;
        let cfg = SignatureConfig::with_seed(r.u32()?, r.u32()?, r.u64()?)?;
        let sig_id = setsig_pagestore::FileId::from_raw(r.u32()?);
        let oid_id = setsig_pagestore::FileId::from_raw(r.u32()?);
        let len = r.u64()?;
        let live = r.u64()?;
        r.done()?;
        let sig_bytes = cfg.signature_bytes();
        let per_page = (PAGE_SIZE / sig_bytes) as u64;
        Ok(Ssf {
            cfg,
            sig_file: PagedFile::open(Arc::clone(&io), sig_id),
            oid_file: OidFile::reopen(PagedFile::open(io, oid_id), len, live)?,
            sig_bytes,
            per_page,
            meta_file: Some(meta_file),
        })
    }
}

#[cfg(test)]
mod meta_tests {
    use super::*;
    use setsig_pagestore::Disk;

    fn keys(elems: &[&str]) -> Vec<ElementKey> {
        elems.iter().map(ElementKey::from).collect()
    }

    #[test]
    fn ssf_reopens_from_saved_image() {
        let dir = std::env::temp_dir().join(format!("setsig-ssf-meta-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.img");

        let disk = Arc::new(Disk::new());
        let io: Arc<dyn PageIo> = Arc::clone(&disk) as Arc<dyn PageIo>;
        let mut ssf = Ssf::create(io, "h", SignatureConfig::new(128, 2).unwrap()).unwrap();
        ssf.insert(Oid::new(1), &keys(&["Baseball", "Fishing"]))
            .unwrap();
        ssf.insert(Oid::new(2), &keys(&["Tennis"])).unwrap();
        let meta = ssf.sync_meta().unwrap();
        disk.save_to(&path).unwrap();

        let loaded = Arc::new(Disk::load_from(&path).unwrap());
        let io: Arc<dyn PageIo> = Arc::clone(&loaded) as Arc<dyn PageIo>;
        let mut reopened = Ssf::open(io, meta).unwrap();
        assert_eq!(reopened.indexed_count(), 2);
        assert_eq!(reopened.config(), &SignatureConfig::new(128, 2).unwrap());
        let q = SetQuery::has_subset(keys(&["Baseball"]));
        assert_eq!(reopened.candidates(&q).unwrap().oids, vec![Oid::new(1)]);
        // Appends continue at the correct position.
        reopened.insert(Oid::new(3), &keys(&["Baseball"])).unwrap();
        assert_eq!(
            reopened.candidates(&q).unwrap().oids,
            vec![Oid::new(1), Oid::new(3)]
        );

        std::fs::remove_dir_all(&dir).ok();
    }
}
