//! The sequential signature file (SSF) organization.
//!
//! The simplest physical organization (§3.1, Figure 3): set signatures are
//! stored row-wise, fixed-width, packed `⌊P/⌈F/8⌉⌋` to a page. Retrieval
//! scans **every** signature page — which is why the paper finds SSF's
//! retrieval cost dominated by its own storage cost `SC_SIG` (Eq. 7) — then
//! looks up candidate positions in the [`OidFile`](crate::OidFile).
//!
//! Updates are cheap, the organization's one strength: insertion blind-
//! writes the tail page of the signature file and the tail page of the OID
//! file (`UC_I = 2`), deletion tombstones the OID file entry (`UC_D =
//! SC_OID/2`). Both are the shared protocol of
//! [`SignatureFile`](crate::SignatureFile); this module is the row layout.

use setsig_pagestore::{FileId, Page, PageIo, PagedFile, PAGE_SIZE};
use std::sync::Arc;

use crate::bitmap::Bitmap;
use crate::config::SignatureConfig;
use crate::element::ElementKey;
use crate::error::{Error, Result};
use crate::kernel::{self, RowTest};
use crate::meta::{MetaReader, MetaWriter};
use crate::oidfile::OidFile;
use crate::query::{SetPredicate, SetQuery};
use crate::sigfile::{sealed, Layout, Matches, SignatureFile};

/// A sequential signature file with its companion OID file.
pub type Ssf = SignatureFile<Rows>;

/// The SSF layout: one signature file of fixed-width rows (`<name>.ssf`).
pub struct Rows {
    cfg: SignatureConfig,
    sig_file: PagedFile,
    sig_bytes: usize,
    per_page: u64,
}

impl Rows {
    /// The one constructor, for a new file and a reopened one alike:
    /// refuses a signature wider than a page before `sig_file` is made.
    fn new(cfg: SignatureConfig, sig_file: impl FnOnce() -> PagedFile) -> Result<Self> {
        let sig_bytes = cfg.signature_bytes();
        let per_page = (PAGE_SIZE / sig_bytes) as u64;
        if per_page == 0 {
            return Err(Error::BadConfig(format!(
                "signature of {sig_bytes} bytes does not fit a {PAGE_SIZE}-byte page"
            )));
        }
        Ok(Rows {
            cfg,
            sig_file: sig_file(),
            sig_bytes,
            per_page,
        })
    }

    fn slot_of(&self, pos: u64) -> (u32, usize) {
        (
            (pos / self.per_page) as u32,
            (pos % self.per_page) as usize * self.sig_bytes,
        )
    }

    /// Writes `sig` as row `pos` with one page write.
    fn write_row(&self, pos: u64, sig: &Bitmap) -> Result<()> {
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
        Ok(())
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

    /// The pre-kernel reference scan: materializes a [`Bitmap`] per row
    /// and matches through [`SetQuery::signature_matches`]. Kept as the
    /// oracle the batched path is differentially tested against.
    #[cfg(test)]
    fn scan_matching_positions_reference(&self, query: &SetQuery, total: u64) -> Result<Vec<u64>> {
        let query_sig = self.cfg.signature(&query.elements);
        let npages = self.sig_file.len()?;
        let mut positions = Vec::new();
        for page_no in 0..npages {
            let page = self.sig_file.read(page_no)?;
            let base = page_no as u64 * self.per_page;
            let slots = (total - base).min(self.per_page) as usize;
            for s in 0..slots {
                let sig = Bitmap::from_bytes(
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
}

impl sealed::Sealed for Rows {}

impl Layout for Rows {
    type Config = SignatureConfig;
    type Row = Bitmap;
    const NAME: &'static str = "SSF";
    const MAGIC: &'static [u8; 4] = b"SSF1";

    fn create(io: &Arc<dyn PageIo>, name: &str, cfg: SignatureConfig) -> Result<Self> {
        Rows::new(cfg, || {
            PagedFile::create(Arc::clone(io), &format!("{name}.ssf"))
        })
    }

    fn config(&self) -> &SignatureConfig {
        &self.cfg
    }

    fn geometry(&self) -> (u32, u32) {
        (self.cfg.f_bits(), self.cfg.m_weight())
    }

    fn row(cfg: &SignatureConfig, set: &[ElementKey]) -> Bitmap {
        cfg.signature(set)
    }

    /// One page write per row: a blind update of the tail page, or a fresh
    /// page where a row starts one. A row a failed call wrote is written
    /// over by the next append at its position.
    fn append(
        &mut self,
        start: u64,
        rows: impl Iterator<Item = Bitmap>,
        commit: impl FnOnce() -> Result<()>,
    ) -> Result<()> {
        for (pos, sig) in (start..).zip(rows) {
            self.write_row(pos, &sig)?;
        }
        commit()
    }

    /// Full scan of the signature file, matching the first `n` rows
    /// (§4.1 step 2): reads every signature page exactly once. No smart
    /// strategy: a capped query runs the plain full scan.
    ///
    /// This is the batched row-scan path: the query compiles once to a
    /// [`RowTest`], and each fetched page's rows are matched **in place**
    /// by [`kernel::match_rows`] — no per-row signature is materialized.
    fn positions(&self, query: &SetQuery, n: u64) -> Result<Matches> {
        let query_sig = self.cfg.signature(&query.elements);
        let npages = self.sig_file.len()?;
        let (qw, nbits) = (query_sig.words(), self.cfg.f_bits());
        // `T ≬ Q` counts bits, which is not a masked compare.
        let test = match query.predicate {
            SetPredicate::HasSubset | SetPredicate::Contains => Some(RowTest::superset(qw, nbits)),
            SetPredicate::InSubset => Some(RowTest::subset(qw, nbits)),
            SetPredicate::Equals => Some(RowTest::equals(qw, nbits)),
            SetPredicate::Overlaps => None,
        };
        let mut positions = Vec::new();
        for page_no in 0..npages {
            self.scan_page(test.as_ref(), qw, n, page_no, &mut positions)?;
        }
        Ok(Matches {
            positions,
            slices: 0,
            early_exit: false,
        })
    }

    fn storage_pages(&self) -> Result<u64> {
        Ok(u64::from(self.sig_file.len()?))
    }

    /// `SSF1`: `F`, `m`, seed, the signature file, then the OID file's.
    fn write_meta(&self, w: &mut MetaWriter, oid_file: impl FnOnce(&mut MetaWriter)) {
        w.u32(self.cfg.f_bits());
        w.u32(self.cfg.m_weight());
        w.u64(self.cfg.seed());
        w.u32(self.sig_file.id().raw());
        oid_file(w);
    }

    fn open(
        io: &Arc<dyn PageIo>,
        r: &mut MetaReader<'_>,
        oid_file: impl FnOnce(&mut MetaReader<'_>) -> Result<OidFile>,
    ) -> Result<(Self, OidFile)> {
        let cfg = SignatureConfig::with_seed(r.u32()?, r.u32()?, r.u64()?)?;
        let sig_id = FileId::from_raw(r.u32()?);
        let oids = oid_file(r)?;
        Ok((
            Rows::new(cfg, || PagedFile::open(Arc::clone(io), sig_id))?,
            oids,
        ))
    }
}

impl Ssf {
    /// Signatures stored per page: `⌊P/⌈F/8⌉⌋`.
    pub fn signatures_per_page(&self) -> u64 {
        self.layout.per_page
    }

    /// Pages in the signature file alone — the paper's `SC_SIG`.
    pub fn signature_pages(&self) -> Result<u64> {
        self.layout.storage_pages()
    }

    /// Reads the stored signature at `pos` (one page read).
    pub fn signature_at(&self, pos: u64) -> Result<Bitmap> {
        if pos >= self.oid_file.len() {
            return Err(Error::NoSuchEntry(pos));
        }
        let rows = &self.layout;
        let (page_no, off) = rows.slot_of(pos);
        let page = rows.sig_file.read(page_no)?;
        Ok(Bitmap::from_bytes(
            rows.cfg.f_bits(),
            page.read_slice(off, rows.sig_bytes),
        ))
    }

    /// Rebuilds the SSF without tombstoned entries, reclaiming the space of
    /// deleted objects (an extension; the paper leaves tombstones forever).
    ///
    /// The old files stay on the disk (no page store frees a file): the
    /// SSF's pages fall, the disk's and a saved image's grow. Returns the
    /// number of live entries carried over.
    pub fn compact(&mut self) -> Result<u64> {
        let live = self.oid_file.scan_live()?;
        let rows = live.iter().map(|&(pos, _)| self.signature_at(pos));
        let rows = rows.collect::<Result<Vec<_>>>()?;
        self.rebuild(&live, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Oid, SetAccessFacility};
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
        let fs = disk.file_stats(ssf.layout.sig_file.id()).unwrap();
        assert_eq!(fs.reads, 4);
    }

    #[test]
    fn signature_at_roundtrips() {
        let (_d, mut ssf) = ssf(256, 4);
        let set = keys(&["x", "y", "z"]);
        ssf.insert(Oid::new(9), &set).unwrap();
        let stored = ssf.signature_at(0).unwrap();
        assert_eq!(stored, ssf.config().signature(&set));
        assert!(matches!(ssf.signature_at(1), Err(Error::NoSuchEntry(1))));
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
    use crate::{Oid, SetAccessFacility};
    use setsig_pagestore::Disk;

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

    fn scan(s: &Ssf, q: &SetQuery) -> Vec<u64> {
        s.layout.positions(q, s.oid_file.len()).unwrap().positions
    }

    fn reference(s: &Ssf, q: &SetQuery) -> Vec<u64> {
        (s.layout)
            .scan_matching_positions_reference(q, s.oid_file.len())
            .unwrap()
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
                scan(&s, &q),
                reference(&s, &q),
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
                        scan(&s, &q),
                        reference(&s, &q),
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
}
