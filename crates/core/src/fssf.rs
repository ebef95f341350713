//! The frame-sliced signature file (FSSF) organization — an extension.
//!
//! The paper closes (§6) noting BSSF's one weakness: insertion touches all
//! `F` slice files. The *frame-sliced* organization (Lin & Faloutsos'
//! design from the same literature) fixes that by cutting the `F`-bit
//! signature into `k` frames of `s = F/k` bits. Each element hashes to **one
//! frame** and sets its `m` bits inside it ([`FssfConfig::signature`]);
//! frames are stored as vertical stripes (one file per frame, rows packed
//! `⌊P·b/s⌋` to a page). Bit `j·s + p` of a row's signature is bit `p` of
//! that row's `s`-bit stripe in frame `j`.
//!
//! The trade-offs, all visible in the `extorgs` exhibit:
//!
//! * **Insert** touches only the frames used by the set's elements —
//!   expected `k·(1 − (1 − 1/k)^{D_t}) + 1` page writes, ≈ `D_t + 1` for
//!   `D_t ≪ k`, instead of `F + 1`. The OID-file append of
//!   [`SignatureFile`] is the commit point, and the writer is the one BSSF
//!   uses (`rowfile.rs`): bits a failed insert had already written are
//!   cleared before that row is written again.
//! * **`T ⊇ Q`** reads the distinct frames of the query's elements:
//!   ≈ `D_q` frames of `⌈N/⌊P·b/s⌋⌉` pages each — more than BSSF's `m_q`
//!   single-slice pages, but far less than SSF's full scan.
//! * **`T ⊆ Q`** must read *every* frame (a target element may live in any
//!   of them), degenerating to a striped full scan — BSSF keeps the clear
//!   win on the paper's second query type.
//! * The false drop probability matches BSSF's Eq. (2): within a frame the
//!   ones-fraction is `1 − (1 − m/s)^{D_t/k} ≈ 1 − e^{−m·D_t/F}`.

use setsig_pagestore::{FileId, Page, PageIo, PAGE_SIZE};
use std::sync::Arc;

use crate::bitmap::Bitmap;
use crate::element::ElementKey;
use crate::error::{Error, Result};
use crate::hash::{element_hash, ElementHasher};
use crate::meta::{MetaReader, MetaWriter};
use crate::oidfile::OidFile;
use crate::query::{SetPredicate, SetQuery};
use crate::rowfile::{RowBit, RowFiles};
use crate::sigfile::{sealed, Layout, Matches, SignatureFile};

/// Design parameters of a frame-sliced signature file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FssfConfig {
    f_bits: u32,
    frames: u32,
    m_weight: u32,
    seed: u64,
}

impl FssfConfig {
    /// Creates a configuration: total width `F`, `k` frames, `m` bits per
    /// element within its frame. Requires `k | F` and `m ≤ F/k`.
    pub fn new(f_bits: u32, frames: u32, m_weight: u32) -> Result<Self> {
        Self::with_seed(f_bits, frames, m_weight, 0x5e75_1650_5ed5_16aa)
    }

    /// As [`new`](Self::new) with an explicit hash seed.
    pub fn with_seed(f_bits: u32, frames: u32, m_weight: u32, seed: u64) -> Result<Self> {
        if frames == 0 || f_bits == 0 || !f_bits.is_multiple_of(frames) {
            return Err(Error::BadConfig(format!(
                "frames ({frames}) must evenly divide F ({f_bits})"
            )));
        }
        let s = f_bits / frames;
        if m_weight == 0 || m_weight > s {
            return Err(Error::BadConfig(format!(
                "m = {m_weight} must be in 1..={s} (the frame width)"
            )));
        }
        if s as usize > PAGE_SIZE * 8 {
            return Err(Error::BadConfig(format!("frame width {s} exceeds a page")));
        }
        Ok(FssfConfig {
            f_bits,
            frames,
            m_weight,
            seed,
        })
    }

    /// Total signature width `F`.
    pub fn f_bits(&self) -> u32 {
        self.f_bits
    }

    /// Number of frames `k`.
    pub fn frames(&self) -> u32 {
        self.frames
    }

    /// Frame width `s = F/k` in bits.
    pub fn frame_bits(&self) -> u32 {
        self.f_bits / self.frames
    }

    /// Bits per element `m`.
    pub fn m_weight(&self) -> u32 {
        self.m_weight
    }

    /// Rows per frame page: `⌊P·b/s⌋`.
    pub fn rows_per_page(&self) -> u64 {
        (PAGE_SIZE as u64 * 8) / self.frame_bits() as u64
    }

    /// The frame an element hashes to.
    pub fn frame_of(&self, element: &ElementKey) -> u32 {
        (element_hash(element.as_bytes(), self.seed ^ 0x00f7_a3e5) % self.frames as u64) as u32
    }

    /// Writes the element's `m` bit positions *within its frame* into `out`
    /// (cleared first), in ascending order.
    pub fn frame_positions(&self, element: &ElementKey, out: &mut Vec<u32>) {
        ElementHasher::new(self.frame_bits(), self.seed).positions_into(
            element.as_bytes(),
            self.m_weight,
            out,
        );
    }

    /// The `F`-bit frame-sliced signature of `elements`: each element sets
    /// its `m` [frame positions](Self::frame_positions) `p` at bit
    /// `frame_of(e)·s + p`. What an insert stores and what a query scans
    /// for.
    pub fn signature<'a>(&self, elements: impl IntoIterator<Item = &'a ElementKey>) -> Bitmap {
        let s = self.frame_bits();
        let mut bits = Bitmap::zeroed(self.f_bits);
        let mut positions = Vec::with_capacity(self.m_weight as usize);
        for e in elements {
            let base = self.frame_of(e) * s;
            self.frame_positions(e, &mut positions);
            positions.iter().for_each(|&p| bits.set(base + p, true));
        }
        bits
    }
}

/// A frame-sliced signature file with its companion OID file.
///
/// Inserts go through the row writer BSSF uses: one page write per distinct
/// frame, then the OID-file append as the commit point; a failed insert
/// indexes nothing and its stray bits are cleared before the row is reused.
pub type Fssf = SignatureFile<Frames>;

/// The FSSF layout: `k` frame files `<name>.fr<j>`, rows packed
/// `⌊P·b/s⌋` to a page.
pub struct Frames {
    cfg: FssfConfig,
    frames: RowFiles,
}

impl Frames {
    /// Reads frame `j`'s pages in order, as one
    /// [`PagedFile::read_run`](setsig_pagestore::PagedFile::read_run), and calls
    /// `visit(page, row, bit)` for each of the first `n` rows, `bit` being
    /// where the row's `s` bits start on `page`.
    ///
    /// [`Frames::append`] keeps every frame file long enough for the
    /// indexed row count, so a frame shorter than `⌈n/rpp⌉` pages can only
    /// mean the file was truncated or the catalog is stale. The scan refuses
    /// to run — treating missing pages as zeros would silently drop
    /// qualifying rows, violating the facility's no-false-negatives
    /// contract.
    fn read_frame(&self, j: u32, n: u64, mut visit: impl FnMut(&Page, u32, usize)) -> Result<()> {
        let s = self.cfg.frame_bits() as usize;
        let rpp = self.cfg.rows_per_page();
        let file = &self.frames.files()[j as usize].file;
        let have = file.len()?;
        let expected = n.div_ceil(rpp) as u32;
        if have < expected {
            return Err(Error::Corrupted(format!(
                "frame {j} has {have} pages but {n} indexed rows require {expected}"
            )));
        }
        file.read_run(0..expected, |page_no, page| {
            let first = u64::from(page_no) * rpp;
            for r in 0..(n - first).min(rpp) {
                visit(page, (first + r) as u32, r as usize * s);
            }
        })?;
        Ok(())
    }

    /// The AND scan, as BSSF's per slice: reads `frames` in order, and in
    /// frame `j` a row survives iff it holds `want` wherever the query
    /// signature `sig` does — its 1-bits under `T ⊇ Q` (`want` set), its
    /// 0-bits under `T ⊆ Q`. Stops after the frame that leaves no row.
    fn match_frames(&self, n: u64, frames: &[u32], sig: &Bitmap, want: bool) -> Result<Matches> {
        let s = self.cfg.frame_bits();
        let mut acc = Bitmap::ones(n as u32);
        let mut tested = Vec::with_capacity(s as usize);
        let mut slices = 0;
        for &j in frames {
            tested.clear();
            tested.extend((0..s).filter(|&p| sig.get(j * s + p) == want));
            self.read_frame(j, n, |page, row, bit| {
                let differs = |&p: &u32| page.get_bit(bit + p as usize) != want;
                if acc.get(row) && tested.iter().any(differs) {
                    acc.set(row, false);
                }
            })?;
            slices += 1;
            if acc.is_zero() {
                break;
            }
        }
        Ok(Matches {
            positions: acc.iter_ones().map(u64::from).collect(),
            slices,
            early_exit: slices < frames.len() as u64,
        })
    }

    /// Overlap: some query element's own `m` bits are all set in the row.
    /// Elements sharing a frame are tested separately, in one read of it.
    fn overlap_positions(&self, query: &SetQuery, n: u64) -> Result<Matches> {
        let s = self.cfg.frame_bits();
        // Each element's positions; sorted, one frame's elements are a run.
        let mut elements: Vec<Vec<u32>> = (query.elements.iter())
            .map(|e| self.cfg.signature([e]).iter_ones().collect())
            .collect();
        elements.sort_unstable();
        let mut acc = Bitmap::zeroed(n as u32);
        let mut slices = 0;
        for run in elements.chunk_by(|a, b| a[0] / s == b[0] / s) {
            self.read_frame(run[0][0] / s, n, |page, row, bit| {
                let present =
                    |ones: &Vec<u32>| (ones.iter()).all(|&p| page.get_bit(bit + (p % s) as usize));
                if run.iter().any(present) {
                    acc.set(row, true);
                }
            })?;
            slices += 1;
        }
        Ok(Matches {
            positions: acc.iter_ones().map(u64::from).collect(),
            slices,
            early_exit: false,
        })
    }
}

impl sealed::Sealed for Frames {}

impl Layout for Frames {
    type Config = FssfConfig;
    /// The row's signature's 1-positions, as BSSF's: bit `j·s + p` is bit
    /// `p` of the row's stripe in frame `j`.
    type Row = Vec<u32>;
    const NAME: &'static str = "FSSF";
    const MAGIC: &'static [u8; 4] = b"FSF1";

    fn create(io: &Arc<dyn PageIo>, name: &str, cfg: FssfConfig) -> Result<Self> {
        let frames = RowFiles::create(io, (0..cfg.frames()).map(|j| format!("{name}.fr{j}")));
        Ok(Frames { cfg, frames })
    }

    fn config(&self) -> &FssfConfig {
        &self.cfg
    }

    fn geometry(&self) -> (u32, u32) {
        (self.cfg.f_bits(), self.cfg.m_weight())
    }

    fn row(cfg: &FssfConfig, set: &[ElementKey]) -> Vec<u32> {
        cfg.signature(set).iter_ones().collect()
    }

    /// Insertion — the organization's raison d'être: one page write per
    /// *distinct frame* the set's elements hash to, then the commit.
    ///
    /// Every frame file — not just the ones this set's elements hash to —
    /// is kept long enough for the new row, so `Frames::read_frame` can
    /// treat a short frame as corruption rather than guessing its tail is
    /// zeros. The extension writes happen only when a row crosses a page
    /// boundary (once per `rows_per_page` inserts), so the amortized cost
    /// stays ≈ `D_t + 1`.
    fn append(
        &mut self,
        start: u64,
        rows: impl Iterator<Item = Vec<u32>>,
        commit: impl FnOnce() -> Result<()>,
    ) -> Result<()> {
        let (rpp, s) = (self.cfg.rows_per_page(), self.cfg.frame_bits());
        let mut staged: Vec<RowBit> = Vec::new();
        for (pos, ones) in (start..).zip(rows) {
            let (page_no, bit_base) = ((pos / rpp) as u32, (pos % rpp) as u32 * s);
            self.frames.extend_all(page_no + 1)?;
            staged.extend(ones.into_iter().map(|b| (b / s, page_no, bit_base + b % s)));
        }
        self.frames.append(staged, commit)
    }

    /// No smart strategy: a capped query runs the plain frame scan. `T ⊇ Q`
    /// reads the frames holding a query 1-bit, `T ⊆ Q` every frame (a
    /// target element may hash to any), `T = Q` both, overlap the query
    /// elements' frames.
    fn positions(&self, query: &SetQuery, n: u64) -> Result<Matches> {
        let sig = self.cfg.signature(&query.elements);
        let s = self.cfg.frame_bits();
        let mut ones: Vec<u32> = sig.iter_ones().map(|p| p / s).collect();
        ones.dedup();
        let every: Vec<u32> = (0..self.cfg.frames()).collect();
        let superset = || self.match_frames(n, &ones, &sig, true);
        let subset = || self.match_frames(n, &every, &sig, false);
        match query.predicate {
            SetPredicate::HasSubset | SetPredicate::Contains => superset(),
            SetPredicate::InSubset => subset(),
            SetPredicate::Equals => Ok(superset()?.intersect(subset()?)),
            SetPredicate::Overlaps => self.overlap_positions(query, n),
        }
    }

    fn storage_pages(&self) -> Result<u64> {
        Ok(self.frames.storage_pages())
    }

    fn clear_torn(&mut self) -> Result<()> {
        self.frames.clear_torn()
    }

    /// `FSF1`: `F`, `k`, `m`, seed, the OID file's fields, then the `k`
    /// frames.
    fn write_meta(&self, w: &mut MetaWriter, oid_file: impl FnOnce(&mut MetaWriter)) {
        w.u32(self.cfg.f_bits());
        w.u32(self.cfg.frames());
        w.u32(self.cfg.m_weight());
        w.u64(self.cfg.seed);
        oid_file(w);
        for frame in self.frames.files() {
            w.u32(frame.file.id().raw());
        }
    }

    fn open(
        io: &Arc<dyn PageIo>,
        r: &mut MetaReader<'_>,
        oid_file: impl FnOnce(&mut MetaReader<'_>) -> Result<OidFile>,
    ) -> Result<(Self, OidFile)> {
        let cfg = FssfConfig::with_seed(r.u32()?, r.u32()?, r.u32()?, r.u64()?)?;
        let oids = oid_file(r)?;
        let ids = (0..cfg.frames()).map(|_| Ok(FileId::from_raw(r.u32()?)));
        let frames = RowFiles::open(io, ids)?;
        Ok((Frames { cfg, frames }, oids))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Oid, SetAccessFacility, SignatureConfig};
    use setsig_pagestore::{BufferPool, Disk};

    fn fssf(f: u32, k: u32, m: u32) -> (Arc<Disk>, Fssf) {
        let disk = Arc::new(Disk::new());
        let io: Arc<dyn PageIo> = Arc::clone(&disk) as Arc<dyn PageIo>;
        let cfg = FssfConfig::new(f, k, m).unwrap();
        (disk.clone(), Fssf::create(io, "test", cfg).unwrap())
    }

    fn keys(elems: &[&str]) -> Vec<ElementKey> {
        elems.iter().map(ElementKey::from).collect()
    }

    #[test]
    fn config_validation() {
        assert!(FssfConfig::new(500, 50, 3).is_ok());
        assert!(FssfConfig::new(500, 7, 3).is_err(), "k must divide F");
        assert!(
            FssfConfig::new(500, 50, 11).is_err(),
            "m must fit the frame"
        );
        assert!(FssfConfig::new(500, 0, 1).is_err());
        let c = FssfConfig::new(500, 50, 3).unwrap();
        assert_eq!(c.frame_bits(), 10);
        assert_eq!(c.rows_per_page(), 3276);
    }

    #[test]
    fn superset_query_finds_matches() {
        let (_d, mut f) = fssf(160, 16, 2);
        f.insert(Oid::new(1), &keys(&["Baseball", "Fishing"]))
            .unwrap();
        f.insert(Oid::new(2), &keys(&["Tennis"])).unwrap();
        f.insert(Oid::new(3), &keys(&["Baseball", "Golf", "Fishing"]))
            .unwrap();
        let q = SetQuery::has_subset(keys(&["Baseball", "Fishing"]));
        let c = f.candidates(&q).unwrap();
        assert!(c.oids.contains(&Oid::new(1)));
        assert!(c.oids.contains(&Oid::new(3)));
    }

    #[test]
    fn subset_equality_overlap_membership() {
        let (_d, mut f) = fssf(160, 16, 2);
        f.insert(Oid::new(1), &keys(&["a", "b"])).unwrap();
        f.insert(Oid::new(2), &keys(&["a", "c", "d", "e"])).unwrap();
        f.insert(Oid::new(3), &keys(&["x"])).unwrap();

        let c = f
            .candidates(&SetQuery::in_subset(keys(&["a", "b", "z"])))
            .unwrap();
        assert!(c.oids.contains(&Oid::new(1)));

        let c = f.candidates(&SetQuery::equals(keys(&["b", "a"]))).unwrap();
        assert!(c.oids.contains(&Oid::new(1)));

        let c = f
            .candidates(&SetQuery::overlaps(keys(&["c", "q"])))
            .unwrap();
        assert!(c.oids.contains(&Oid::new(2)));
        assert!(!c.oids.contains(&Oid::new(3)));

        let c = f
            .candidates(&SetQuery::contains(ElementKey::from("x")))
            .unwrap();
        assert!(c.oids.contains(&Oid::new(3)));
    }

    #[test]
    fn insert_touches_only_used_frames() {
        let (disk, mut f) = fssf(500, 50, 3);
        let set = keys(&["Baseball", "Fishing", "Tennis"]);
        // Warm up so page-extension writes don't blur the count.
        f.insert(Oid::new(0), &set).unwrap();
        disk.reset_stats();
        f.insert(Oid::new(1), &set).unwrap();
        let writes = disk.snapshot().writes;
        let distinct_frames = {
            let cfg = f.config();
            let mut frames: Vec<u32> = set.iter().map(|e| cfg.frame_of(e)).collect();
            frames.sort_unstable();
            frames.dedup();
            frames.len() as u64
        };
        assert_eq!(
            writes,
            distinct_frames + 1,
            "≈ D_t + 1 writes, not F + 1 = 501"
        );
        assert!(writes <= 4);
    }

    #[test]
    fn superset_scan_reads_only_query_frames() {
        let (disk, mut f) = fssf(500, 50, 3);
        for i in 0..100u64 {
            f.insert(Oid::new(i), &[ElementKey::from(i)]).unwrap();
        }
        let q = SetQuery::has_subset(vec![ElementKey::from(42u64)]);
        disk.reset_stats();
        let (c, stats) = f.candidates_with_stats(&q).unwrap();
        assert!(c.oids.contains(&Oid::new(42)));
        // 1 frame × 1 page + 1 OID page.
        assert_eq!(disk.snapshot().reads, 2);
        // The per-query stats charge exactly the disk traffic.
        let stats = stats.unwrap();
        assert_eq!(stats.pages, 2);
    }

    #[test]
    fn short_frame_file_is_reported_as_corruption() {
        // k = 1, s = 160 → 204 rows per frame page. Grow the OID file past
        // one page's worth of rows WITHOUT extending the frame (as a
        // truncated or stale frame file would look) and every scan must
        // refuse to run rather than treat the missing page as zeros.
        let (_d, mut f) = fssf(160, 1, 2);
        f.insert(Oid::new(0), &[ElementKey::from(0u64)]).unwrap();
        let oids: Vec<Oid> = (1..=210).map(Oid::new).collect();
        f.oid_file.bulk_append(&oids).unwrap();
        let q = SetQuery::has_subset(vec![ElementKey::from(0u64)]);
        match f.candidates(&q) {
            Err(Error::Corrupted(msg)) => {
                assert!(msg.contains("frame 0"), "unexpected message: {msg}");
            }
            other => panic!("expected Corrupted, got {other:?}"),
        }
        // A subset scan (which visits every frame) refuses too.
        let q = SetQuery::in_subset(vec![ElementKey::from(0u64)]);
        assert!(matches!(f.candidates(&q), Err(Error::Corrupted(_))));
    }

    #[test]
    fn insert_keeps_every_frame_long_enough() {
        let (_d, mut f) = fssf(500, 50, 3);
        for i in 0..10u64 {
            f.insert(Oid::new(i), &[ElementKey::from(i)]).unwrap();
        }
        let rpp = f.config().rows_per_page();
        let expected = 10u64.div_ceil(rpp) as u32;
        for (j, frame) in f.layout.frames.files().iter().enumerate() {
            assert!(
                frame.file.len().unwrap() >= expected,
                "frame {j} shorter than the indexed row count requires"
            );
        }
    }

    #[test]
    fn subset_scan_reads_every_frame() {
        let (disk, mut f) = fssf(160, 16, 2);
        for i in 0..50u64 {
            f.insert(Oid::new(i), &[ElementKey::from(i)]).unwrap();
        }
        let q = SetQuery::in_subset(vec![ElementKey::from(1u64), ElementKey::from(2u64)]);
        disk.reset_stats();
        let _ = f.candidates(&q).unwrap();
        // All 16 frames (1 page each) must be consulted (early exit may
        // save a few once the accumulator empties; with matches present it
        // cannot).
        assert!(
            disk.snapshot().reads >= 16,
            "reads {}",
            disk.snapshot().reads
        );
    }

    #[test]
    fn agrees_with_bssf_on_answer_soundness() {
        // FSSF and BSSF hash differently, so candidate sets differ — but
        // both must contain every true answer.
        let (_d1, mut f) = fssf(128, 16, 2);
        let disk2 = Arc::new(Disk::new());
        let io2: Arc<dyn PageIo> = Arc::clone(&disk2) as Arc<dyn PageIo>;
        let mut b = crate::Bssf::create(io2, "b", SignatureConfig::new(128, 2).unwrap()).unwrap();
        let sets: Vec<Vec<ElementKey>> = (0..80u64)
            .map(|i| (0..4).map(|j| ElementKey::from(i * 13 + j)).collect())
            .collect();
        for (i, set) in sets.iter().enumerate() {
            f.insert(Oid::new(i as u64), set).unwrap();
            b.insert(Oid::new(i as u64), set).unwrap();
        }
        for probe in [0usize, 17, 79] {
            let q = SetQuery::has_subset(sets[probe][..2].to_vec());
            let fc = f.candidates(&q).unwrap();
            let bc = b.candidates(&q).unwrap();
            assert!(fc.oids.contains(&Oid::new(probe as u64)));
            assert!(bc.oids.contains(&Oid::new(probe as u64)));
        }
    }

    #[test]
    fn rows_cross_page_boundaries() {
        // s = 160/16... choose s so rpp is small: F=160, k=1 gives s=160,
        // rpp = 204; insert past one page.
        let (_d, mut f) = fssf(160, 1, 2);
        assert_eq!(f.config().rows_per_page(), 204);
        for i in 0..300u64 {
            f.insert(Oid::new(i), &[ElementKey::from(i % 7)]).unwrap();
        }
        let q = SetQuery::has_subset(vec![ElementKey::from(3u64)]);
        let c = f.candidates(&q).unwrap();
        // Row 255 (on the second page) has element 255 % 7 == 3.
        assert!(c.oids.contains(&Oid::new(255)));
        assert!(c.oids.contains(&Oid::new(3)));
    }

    /// Every predicate's scan, plain and capped, on a bare disk and under a
    /// 64-frame pool, against a brute force over each row's bits — built
    /// straight from `frame_of` + `frame_positions`, not through the
    /// encoder, and stopped frame-major as the scan is: the exact
    /// candidates, the frames read, the early exit and the pages. The frame
    /// width, 11, does not divide a byte, and the rows span two full frame
    /// pages and part of a third.
    #[test]
    fn scans_equal_a_signature_level_reference() {
        let cfg = FssfConfig::new(330, 30, 2).unwrap();
        let (s, rpp) = (cfg.frame_bits(), cfg.rows_per_page());
        let n = 2 * rpp + 1_000;
        // 2–5 scattered elements of 0..1,000.
        let set_of = |i: u64| -> Vec<ElementKey> {
            let mix = |x: u64| x.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
            (0..2 + i % 4)
                .map(|j| ElementKey::from(mix(i * 8 + j) % 1_000))
                .collect()
        };
        let bits = |set: &[ElementKey]| {
            let mut bits = vec![false; cfg.f_bits() as usize];
            let mut positions = Vec::new();
            for e in set {
                cfg.frame_positions(e, &mut positions);
                for p in &positions {
                    bits[(cfg.frame_of(e) * s + p) as usize] = true;
                }
            }
            bits
        };
        let rows: Vec<Vec<bool>> = (0..n).map(|i| bits(&set_of(i))).collect();
        // Rows survive while `keep(row, bit)` holds on each bit of each
        // frame read; the scan stops after the frame that leaves none.
        let and_scan = |frames: Vec<u32>, keep: &dyn Fn(&[bool], usize) -> bool| {
            let mut alive: Vec<u64> = (0..n).collect();
            let mut read = 0;
            for &j in &frames {
                read += 1;
                let frame = (j * s) as usize..((j + 1) * s) as usize;
                alive.retain(|&r| frame.clone().all(|i| keep(&rows[r as usize], i)));
                if alive.is_empty() {
                    break;
                }
            }
            (alive, read, read < frames.len() as u64)
        };
        let reference = |q: &SetQuery| {
            let want = bits(&q.elements);
            let mut frames: Vec<u32> = q.elements.iter().map(|e| cfg.frame_of(e)).collect();
            frames.sort_unstable();
            frames.dedup();
            let sup = || and_scan(frames.clone(), &|row, i| !want[i] || row[i]);
            let sub = || and_scan((0..cfg.frames()).collect(), &|row, i| !row[i] || want[i]);
            match q.predicate {
                SetPredicate::HasSubset | SetPredicate::Contains => sup(),
                SetPredicate::InSubset => sub(),
                SetPredicate::Equals => {
                    let ((a, a_read, a_exit), (b, b_read, b_exit)) = (sup(), sub());
                    let both = a.into_iter().filter(|r| b.binary_search(r).is_ok());
                    (both.collect(), a_read + b_read, a_exit || b_exit)
                }
                SetPredicate::Overlaps => {
                    let mut positions = Vec::new();
                    let mut has = |row: &[bool], e: &ElementKey| {
                        cfg.frame_positions(e, &mut positions);
                        let base = cfg.frame_of(e) * s;
                        positions.iter().all(|&p| row[(base + p) as usize])
                    };
                    let hit =
                        (0..n).filter(|&r| q.elements.iter().any(|e| has(&rows[r as usize], e)));
                    (hit.collect(), frames.len() as u64, false)
                }
            }
        };
        let keys = |elems: &[u64]| elems.iter().map(|&e| ElementKey::from(e)).collect();
        let queries = [
            SetQuery::has_subset(set_of(5)[..2].to_vec()),
            SetQuery::has_subset(keys(&[5_000, 5_001, 5_002])),
            SetQuery::contains(ElementKey::from(7u64)),
            SetQuery::in_subset(keys(&(0..120).collect::<Vec<_>>())),
            SetQuery::in_subset(keys(&[5_000])),
            SetQuery::equals(set_of(5)),
            SetQuery::overlaps(keys(&[3, 50, 5_000])),
        ];
        let mut exits = Vec::new();
        for pooled in [false, true] {
            let disk = Arc::new(Disk::new());
            let io: Arc<dyn PageIo> = if pooled {
                Arc::new(BufferPool::new(Arc::clone(&disk), 64))
            } else {
                disk
            };
            let mut f = Fssf::create(io, "reference", cfg).unwrap();
            for i in 0..n {
                f.insert(Oid::new(i), &set_of(i)).unwrap();
            }
            for plain in &queries {
                // A cap is a `⊇` or `⊆` query's; FSSF runs the plain scan.
                let capped = plain.clone().with_cap(1).ok();
                for q in std::iter::once(plain.clone()).chain(capped) {
                    let what = format!("{} {:?} pooled {pooled}", q.predicate, q.cap());
                    let (positions, slices, early_exit) = reference(&q);
                    let (c, stats) = f.candidates_with_stats(&q).unwrap();
                    let stats = stats.unwrap();
                    let oids: Vec<Oid> = positions.iter().map(|&p| Oid::new(p)).collect();
                    assert_eq!(c.oids, oids, "{what}");
                    assert_eq!(
                        (stats.slices, stats.early_exit),
                        (slices, early_exit),
                        "{what}"
                    );
                    let pages = slices * n.div_ceil(rpp) + OidFile::pages_touched(&positions);
                    assert_eq!(stats.pages, pages, "{what}");
                    exits.push(early_exit);
                }
            }
        }
        assert!(exits.contains(&true) && exits.contains(&false));
    }
}
