//! The frame-sliced signature file (FSSF) organization — an extension.
//!
//! The paper closes (§6) noting BSSF's one weakness: insertion touches all
//! `F` slice files. The *frame-sliced* organization (Lin & Faloutsos'
//! design from the same literature) fixes that by partitioning the `F` bits
//! into `k` frames of `s = F/k` bits. Each element hashes to **one frame**
//! and sets its `m` bits inside it; frames are stored as vertical stripes
//! (one file per frame, rows packed `⌊P·b/s⌋` to a page).
//!
//! The trade-offs, all visible in the `extorgs` exhibit and ablation bench:
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

use setsig_pagestore::{FileId, PageIo, PAGE_SIZE};
use std::collections::BTreeMap;
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
    /// Reads frame `j` and invokes `visit(row, row_bits)` for each of the
    /// first `n` rows.
    ///
    /// [`Frames::append`] keeps every frame file long enough for the
    /// indexed row count, so a frame shorter than `⌈n/rpp⌉` pages can only
    /// mean the file was truncated or the catalog is stale. The scan refuses
    /// to run — treating missing pages as zeros would silently drop
    /// qualifying rows, violating the facility's no-false-negatives
    /// contract.
    fn scan_frame(&self, j: u32, n: u64, mut visit: impl FnMut(u64, &Bitmap)) -> Result<()> {
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
        let mut page_no = 0u32;
        let mut row = 0u64;
        // One buffer for the whole scan: every row overwrites all its bits.
        let mut bits = Bitmap::zeroed(s as u32);
        while row < n {
            let page = file.read(page_no)?;
            let rows_here = (n - row).min(rpp);
            for r in 0..rows_here {
                let base = r as usize * s;
                for b in 0..s {
                    bits.set(b as u32, page.get_bit(base + b));
                }
                visit(row + r, &bits);
            }
            row += rows_here;
            page_no += 1;
        }
        Ok(())
    }

    /// Reads the listed frames in turn: a row survives while `keep(row
    /// bits, listed bits)` holds in every frame read, and the scan stops
    /// once no row does.
    fn and_frames<'a>(
        &self,
        n: u64,
        frames: impl ExactSizeIterator<Item = (u32, &'a Bitmap)>,
        keep: fn(&Bitmap, &Bitmap) -> bool,
    ) -> Result<Matches> {
        let total = frames.len() as u64;
        let mut acc = Bitmap::ones(n as u32);
        let mut slices = 0;
        for (j, listed) in frames {
            self.scan_frame(j, n, |row, bits| {
                if !keep(bits, listed) {
                    acc.set(row as u32, false);
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
            early_exit: slices < total,
        })
    }

    /// `T ⊇ Q`: read each distinct query frame once; a row survives iff in
    /// every such frame it covers the query's frame signature.
    fn superset_positions(&self, query: &SetQuery, n: u64) -> Result<Matches> {
        let by_frame = Frames::row(&self.cfg, &query.elements);
        let frames = by_frame.iter().map(|(&j, want)| (j, want));
        self.and_frames(n, frames, Bitmap::covers)
    }

    /// `T ⊆ Q`: every frame must be read; a row survives iff each frame's
    /// row bits are covered by the query's bits in that frame.
    fn subset_positions(&self, query: &SetQuery, n: u64) -> Result<Matches> {
        let by_frame = Frames::row(&self.cfg, &query.elements);
        let empty = Bitmap::zeroed(self.cfg.frame_bits());
        let frames = (0..self.cfg.frames()).map(|j| (j, by_frame.get(&j).unwrap_or(&empty)));
        self.and_frames(n, frames, |row, allowed| allowed.covers(row))
    }

    /// Overlap: some query element's frame signature is covered by the row.
    fn overlap_positions(&self, query: &SetQuery, n: u64) -> Result<Matches> {
        let mut acc = Bitmap::zeroed(n as u32);
        // Per element (not per frame): overlap needs one *element* fully
        // present, so elements sharing a frame are tested separately.
        let mut by_frame: BTreeMap<u32, Vec<Bitmap>> = BTreeMap::new();
        let mut positions = Vec::new();
        for e in &query.elements {
            self.cfg.frame_positions(e, &mut positions);
            let bits = Bitmap::from_positions(self.cfg.frame_bits(), &positions);
            by_frame.entry(self.cfg.frame_of(e)).or_default().push(bits);
        }
        let slices = by_frame.len() as u64;
        for (j, sigs) in by_frame {
            self.scan_frame(j, n, |row, bits| {
                if sigs.iter().any(|sig| bits.covers(sig)) {
                    acc.set(row as u32, true);
                }
            })?;
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
    /// The set's frame signatures, by frame.
    type Row = BTreeMap<u32, Bitmap>;
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

    /// Groups a set's elements by frame, OR-ing their frame signatures.
    fn row(cfg: &FssfConfig, set: &[ElementKey]) -> BTreeMap<u32, Bitmap> {
        let mut by_frame: BTreeMap<u32, Bitmap> = BTreeMap::new();
        let mut positions = Vec::with_capacity(cfg.m_weight() as usize);
        for e in set {
            let bits = (by_frame.entry(cfg.frame_of(e)))
                .or_insert_with(|| Bitmap::zeroed(cfg.frame_bits()));
            cfg.frame_positions(e, &mut positions);
            positions.iter().for_each(|&p| bits.set(p, true));
        }
        by_frame
    }

    /// Insertion — the organization's raison d'être: one page write per
    /// *distinct frame* the set's elements hash to, then the commit.
    ///
    /// Every frame file — not just the ones this set's elements hash to —
    /// is kept long enough for the new row, so `Frames::scan_frame` can
    /// treat a short frame as corruption rather than guessing its tail is
    /// zeros. The extension writes happen only when a row crosses a page
    /// boundary (once per `rows_per_page` inserts), so the amortized cost
    /// stays ≈ `D_t + 1`.
    fn append(
        &mut self,
        start: u64,
        rows: impl Iterator<Item = BTreeMap<u32, Bitmap>>,
        commit: impl FnOnce() -> Result<()>,
    ) -> Result<()> {
        let (rpp, s) = (self.cfg.rows_per_page(), self.cfg.frame_bits());
        let mut staged: Vec<RowBit> = Vec::new();
        for (pos, by_frame) in (start..).zip(rows) {
            let (page_no, bit_base) = ((pos / rpp) as u32, (pos % rpp) as u32 * s);
            self.frames.extend_all(page_no + 1)?;
            staged.extend(
                by_frame.iter().flat_map(|(&j, bits)| {
                    bits.iter_ones().map(move |b| (j, page_no, bit_base + b))
                }),
            );
        }
        self.frames.append(staged, commit)
    }

    /// No smart strategy: a capped query runs the plain frame scan.
    fn positions(&self, query: &SetQuery, n: u64) -> Result<Matches> {
        match query.predicate {
            SetPredicate::HasSubset | SetPredicate::Contains => self.superset_positions(query, n),
            SetPredicate::InSubset => self.subset_positions(query, n),
            // Covers in both directions in every frame.
            SetPredicate::Equals => {
                let sup = self.superset_positions(query, n)?;
                Ok(sup.intersect(self.subset_positions(query, n)?))
            }
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
    use setsig_pagestore::Disk;

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
        for i in 1..=210u64 {
            f.oid_file.append(Oid::new(i)).unwrap();
        }
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
}
