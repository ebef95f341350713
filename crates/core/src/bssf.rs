//! The bit-sliced signature file (BSSF) organization.
//!
//! BSSF stores signatures **column-wise** (§3.1, Figure 3): one file per bit
//! position, `F` files in total. Bit `j` of the signature at position `p`
//! lives at bit `p mod (P·b)` of page `p / (P·b)` in slice file `j`, so each
//! slice occupies `⌈N/(P·b)⌉` pages — one page for the paper's `N = 32,000`.
//!
//! Retrieval touches only the slices the query signature implies:
//!
//! * `T ⊇ Q` — read the `m_q` slices where the query signature has `1`,
//!   AND them; rows still set are drops (§4.2).
//! * `T ⊆ Q` — read the `F − m_q` slices where the query signature has `0`,
//!   OR them; rows still clear are drops.
//!
//! Both run a row page at a time. Under ⊇ a row page stops reading once
//! its rows are all clear, since an AND cannot set them again. Under ⊆
//! every selected slice page is read in slice order and ORed into its row
//! page whole, eight pages to a pass over the row page
//! ([`kernel::or_pages`]). Skipping the rows that are already all set
//! would save CPU work only in the last few slices of a scan the §5.2.2
//! cap ends (`Database::plan` caps every ⊆ below `D_q^opt`), and never a
//! page.
//!
//! That asymmetry — cost `∝ m_q` for ⊇, `∝ F − m_q` for ⊆ — is the engine
//! behind every BSSF result in the paper, including the advantage of a
//! small `m` and the "smart" strategies of §5.1.3/§5.2.2, which a query
//! asks for by carrying a cap ([`SetQuery::with_cap`]).
//!
//! Insertion is BSSF's weakness in the paper, which charges the worst case
//! `F + 1` accesses (every slice file plus the OID file) and anticipates
//! (§6) writing only the slices whose bit is `1`. That is what the one
//! writer here does: rows are append-only and slice pages start zeroed, so
//! a row's `0` bits are never written and an insert costs `m_t + 1` page
//! writes (≈ 20.6 at `D_t = 10, m = 2`). [`SetAccessFacility::insert`],
//! [`Bssf::insert_batch`] and [`Bssf::bulk_load`] all stage their rows
//! through it; a batch pays one write per touched slice page however many
//! rows it holds.
//!
//! The OID-file append of [`SignatureFile`] is the **commit point**: a call
//! that fails before it has indexed nothing, and the slice bits it had
//! already written are cleared before the row is written again (the
//! torn-row rule — see `rowfile.rs`), so the next object at that position
//! does not inherit them.

use setsig_pagestore::{FileId, Page, PageIo, PAGE_SIZE};
use std::sync::Arc;

use crate::bitmap::Bitmap;
use crate::config::SignatureConfig;
use crate::element::ElementKey;
use crate::error::{Error, Result};
use crate::kernel;
use crate::meta::{MetaReader, MetaWriter};
use crate::oid::Oid;
use crate::oidfile::OidFile;
use crate::query::{SetPredicate, SetQuery};
use crate::rowfile::{RowBit, RowFiles};
use crate::sigfile::{sealed, Layout, Matches, SignatureFile};
use crate::sorted;

/// Rows (signature positions) per slice page: `P·b` bits.
const ROWS_PER_PAGE: u64 = (PAGE_SIZE * 8) as u64;

/// Words of a row accumulator one slice page covers.
const WORDS_PER_PAGE: usize = PAGE_SIZE / 8;

/// A bit-sliced signature file with its companion OID file.
///
/// One writer serves every way of adding rows: it sets only the `1` bits of
/// the new rows (one page write per touched slice page) and commits with
/// the OID-file append, so `insert` costs `m_t + 1` writes. A failed call
/// indexes nothing; the bits it had written are cleared before that row is
/// written again.
pub type Bssf = SignatureFile<Slices>;

/// The BSSF layout: `F` slice files `<name>.s<j>`, one per bit position.
pub struct Slices {
    cfg: SignatureConfig,
    slices: RowFiles,
}

impl Slices {
    /// Reads row page `p` of slice `j` — or `None`, for free, for a page no
    /// row ever set a bit on (never materialized: all zero).
    fn slice_page(&self, j: u32, p: usize) -> Result<Option<Page>> {
        let slice = &self.slices.files()[j as usize];
        if p >= slice.pages as usize {
            return Ok(None);
        }
        Ok(Some(slice.file.read(p as u32)?))
    }

    /// ORs `slices` into a fresh row bitmap of length `n` (the current entry
    /// count), a row page at a time, straight off the page snapshots: each
    /// materialized slice page is read, charged and ORed once, in `slices`
    /// order. The pages wait in a stack array of [`kernel::OR_GROUP`] and
    /// each full group, then the last partial one, is ORed into the row
    /// page in one pass ([`kernel::or_pages`], which masks the row page's
    /// tail).
    fn or_slices(&self, slices: &[u32], n: u64) -> Result<Bitmap> {
        let mut acc = Bitmap::zeroed(n as u32);
        for (p, words) in acc.words_mut().chunks_mut(WORDS_PER_PAGE).enumerate() {
            let rows = (n - p as u64 * ROWS_PER_PAGE).min(ROWS_PER_PAGE) as u32;
            let mut group: [Option<Page>; kernel::OR_GROUP] = Default::default();
            let mut held = 0;
            let mut or_group = |group: &[Option<Page>]| {
                let bytes: [&[u8]; kernel::OR_GROUP] =
                    std::array::from_fn(|i| match group.get(i) {
                        Some(Some(page)) => &page.as_bytes()[..],
                        _ => &[],
                    });
                kernel::or_pages(words, &bytes[..group.len()], rows);
            };
            for &j in slices {
                if let Some(page) = self.slice_page(j, p)? {
                    group[held] = Some(page);
                    held += 1;
                    if held == kernel::OR_GROUP {
                        or_group(&group);
                        held = 0;
                    }
                }
            }
            or_group(&group[..held]);
        }
        Ok(acc)
    }

    /// `T ⊇ Q` scan (§4.2) over `n` rows: AND of the slices at the query
    /// signature's 1-positions (the smart strategy passes a reduced query
    /// signature).
    ///
    /// Page-major: each row page's slice pages are ANDed straight off the
    /// page snapshots ([`kernel::and_assign`]) into that page's word range of
    /// the accumulator, and a row page stops once its range is empty — no
    /// later slice can revive a row. Never reads more pages than ANDing whole
    /// slices until the whole accumulator empties.
    fn superset_positions(&self, query_sig: &Bitmap, n: u64) -> Result<Matches> {
        // An empty query set reads nothing: everything is a superset.
        let ones: Vec<u32> = query_sig.iter_ones().collect();
        let mut acc = Bitmap::ones(n as u32);
        // Slices consumed by the longest-lived row page: the count at which
        // the whole accumulator is empty, i.e. what a slice-major scan reads.
        let mut deepest = 0;
        for (p, words) in acc.words_mut().chunks_mut(WORDS_PER_PAGE).enumerate() {
            let mut consumed = 0;
            for &j in &ones {
                consumed += 1;
                // A never-materialized page is all zeros: ANDing no bytes
                // clears the range. The kernel reports liveness as it goes.
                let page = self.slice_page(j, p)?;
                let bytes = page.as_ref().map_or(&[][..], |page| page.as_bytes());
                if kernel::and_assign(words, bytes) == 0 {
                    break;
                }
            }
            deepest = deepest.max(consumed);
        }
        Ok(Matches {
            positions: acc.iter_ones().map(u64::from).collect(),
            slices: deepest as u64,
            early_exit: deepest < ones.len(),
        })
    }

    /// `T ⊆ Q` scan (§4.2) over `n` rows: OR of the slices at the query
    /// signature's 0-positions; drops are the rows left clear. `slice_cap`
    /// limits how many zero-slices are read (`F − m_s` of them under the
    /// §5.2.2 smart strategy); `None` reads all `F − m_q`.
    ///
    /// OR only sets bits, so once every row of a row page is set no later
    /// slice can change its answer. The scan still reads every selected
    /// slice page exactly once, because the page charge is the paper's
    /// `F − m_q`, which the drift gate (`exact`) and
    /// `subset_scan_reads_f_minus_m_q_slices` pin: a `⊆` early exit would
    /// change pages and the cost model.
    fn subset_positions(
        &self,
        query_sig: &Bitmap,
        slice_cap: Option<usize>,
        n: u64,
    ) -> Result<Matches> {
        let zeros: Vec<u32> = query_sig.iter_zeros().collect();
        let take = slice_cap.unwrap_or(zeros.len()).min(zeros.len());
        let acc = self.or_slices(&zeros[..take], n)?;
        Ok(Matches {
            positions: acc.iter_zeros().map(u64::from).collect(),
            slices: take as u64,
            // The smart cap stops the scan before all F − m_q zero-slices.
            early_exit: take < zeros.len(),
        })
    }

    /// Overlap scan: rows sharing at least `m` set bits with the query
    /// signature. Reads the `m_q` 1-slices and counts per row.
    fn overlap_positions(&self, query_sig: &Bitmap, n: u64) -> Result<Matches> {
        let ones: Vec<u32> = query_sig.iter_ones().collect();
        // Counts are u32, not u16: a row can match up to m_q ≤ F slices and
        // F is a u32, so u16 counts wrapped (and `m_weight() as u16`
        // truncated the threshold) for high-weight signatures — see
        // `overlap_filter_survives_u16_boundary`.
        let mut counts = vec![0u32; n as usize];
        for (p, rows) in counts.chunks_mut(ROWS_PER_PAGE as usize).enumerate() {
            for &j in &ones {
                if let Some(page) = self.slice_page(j, p)? {
                    kernel::accumulate_ones(rows, page.as_bytes());
                }
            }
        }
        Ok(Matches {
            positions: Self::overlap_filter(&counts, self.cfg.m_weight()),
            slices: ones.len() as u64,
            early_exit: false,
        })
    }

    /// Rows whose overlap count reaches the threshold `m`, ascending. The
    /// threshold stays `u32` end-to-end — the old `m as u16` truncation made
    /// a threshold of e.g. 70,000 admit rows with only 4,464 overlaps.
    fn overlap_filter(counts: &[u32], m: u32) -> Vec<u64> {
        counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c >= m)
            .map(|(p, _)| p as u64)
            .collect()
    }
}

impl sealed::Sealed for Slices {}

impl Layout for Slices {
    type Config = SignatureConfig;
    /// The row's 1-positions: the slices an insert writes a bit on.
    type Row = Vec<u32>;
    const NAME: &'static str = "BSSF";
    const MAGIC: &'static [u8; 4] = b"BSF1";

    fn create(io: &Arc<dyn PageIo>, name: &str, cfg: SignatureConfig) -> Result<Self> {
        let slices = RowFiles::create(io, (0..cfg.f_bits()).map(|j| format!("{name}.s{j}")));
        Ok(Slices { cfg, slices })
    }

    fn config(&self) -> &SignatureConfig {
        &self.cfg
    }

    fn geometry(&self) -> (u32, u32) {
        (self.cfg.f_bits(), self.cfg.m_weight())
    }

    fn row(cfg: &SignatureConfig, set: &[ElementKey]) -> Vec<u32> {
        cfg.signature(set).iter_ones().collect()
    }

    /// The one writer: stages the rows' set bits — one page write per
    /// touched slice page — and commits.
    fn append(
        &mut self,
        start: u64,
        rows: impl Iterator<Item = Vec<u32>>,
        commit: impl FnOnce() -> Result<()>,
    ) -> Result<()> {
        let mut staged: Vec<RowBit> = Vec::new();
        for (pos, ones) in (start..).zip(rows) {
            let (page_no, bit) = ((pos / ROWS_PER_PAGE) as u32, (pos % ROWS_PER_PAGE) as u32);
            staged.extend(ones.into_iter().map(|j| (j, page_no, bit)));
        }
        self.slices.append(staged, commit)
    }

    /// Which positions match `query`, honouring its smart cap: for `T ⊇ Q`
    /// (§5.1.3) the scanned signature is formed from at most `cap` query
    /// elements — we take the first — bounding the slice reads at
    /// `≈ cap · m`; for `T ⊆ Q` (§5.2.2) at most `cap` of the query
    /// signature's 0-slices are read (Appendix C's `D_q^opt` gives the cap
    /// minimizing total cost; `setsig-costmodel` computes it). Drop
    /// resolution still verifies the full predicate.
    fn positions(&self, query: &SetQuery, n: u64) -> Result<Matches> {
        match query.predicate {
            SetPredicate::HasSubset | SetPredicate::Contains => {
                let d_q = query.elements.len();
                let take = d_q.min(query.cap().unwrap_or(d_q));
                let reduced = self.cfg.signature(&query.elements[..take]);
                let mut found = self.superset_positions(&reduced, n)?;
                found.early_exit |= take < d_q;
                Ok(found)
            }
            SetPredicate::InSubset => {
                self.subset_positions(&self.cfg.signature(&query.elements), query.cap(), n)
            }
            // Rows where every 1-slice is set and every 0-slice is clear:
            // reads all `F` slices.
            SetPredicate::Equals => {
                let query_sig = self.cfg.signature(&query.elements);
                let sup = self.superset_positions(&query_sig, n)?;
                Ok(sup.intersect(self.subset_positions(&query_sig, None, n)?))
            }
            SetPredicate::Overlaps => {
                self.overlap_positions(&self.cfg.signature(&query.elements), n)
            }
        }
    }

    fn storage_pages(&self) -> Result<u64> {
        Ok(self.slices.storage_pages())
    }

    fn clear_torn(&mut self) -> Result<()> {
        self.slices.clear_torn()
    }

    /// `BSF1`: `F`, `m`, seed, the OID file's fields, then the `F` slices.
    fn write_meta(&self, w: &mut MetaWriter, oid_file: impl FnOnce(&mut MetaWriter)) {
        w.u32(self.cfg.f_bits());
        w.u32(self.cfg.m_weight());
        w.u64(self.cfg.seed());
        oid_file(w);
        for slice in self.slices.files() {
            w.u32(slice.file.id().raw());
        }
    }

    fn open(
        io: &Arc<dyn PageIo>,
        r: &mut MetaReader<'_>,
        oid_file: impl FnOnce(&mut MetaReader<'_>) -> Result<OidFile>,
    ) -> Result<(Self, OidFile)> {
        let cfg = SignatureConfig::with_seed(r.u32()?, r.u32()?, r.u64()?)?;
        let oids = oid_file(r)?;
        let ids = (0..cfg.f_bits()).map(|_| Ok(FileId::from_raw(r.u32()?)));
        let slices = RowFiles::open(io, ids)?;
        Ok((Slices { cfg, slices }, oids))
    }
}

impl Bssf {
    /// Pages per slice file: `⌈n/(P·b)⌉` for `n` entries.
    pub fn pages_per_slice(&self) -> u64 {
        self.oid_file.len().div_ceil(ROWS_PER_PAGE)
    }

    /// Builds the BSSF from scratch in one pass, writing every touched
    /// slice page and OID page exactly once: at most
    /// `F·⌈n/(P·b)⌉ + ⌈n/O_p⌉` writes total.
    ///
    /// Fails if the file already contains entries (bulk load is a
    /// build-time operation).
    pub fn bulk_load(&mut self, items: &[(Oid, Vec<ElementKey>)]) -> Result<()> {
        if !self.oid_file.is_empty() {
            return Err(Error::BadConfig("bulk_load requires an empty BSSF".into()));
        }
        self.insert_batch(items)
    }

    /// Appends a batch of entries, touching each slice page **once per
    /// batch** instead of once per entry: the write-behind buffering a
    /// production system would use to amortize BSSF's insertion cost (§6's
    /// open problem).
    ///
    /// Cost: one write per *distinct (slice, page)* pair the batch's set
    /// bits land on (≤ `Σ m_t`, and ≤ `F` per spanned slice page), plus
    /// `⌈B/O_p⌉` OID-file writes. All or nothing: a failed batch indexes
    /// none of its entries.
    pub fn insert_batch(&mut self, items: &[(Oid, Vec<ElementKey>)]) -> Result<()> {
        let oids: Vec<Oid> = items.iter().map(|(oid, _)| *oid).collect();
        let cfg = self.layout.cfg;
        let rows = items.iter().map(|(_, set)| Slices::row(&cfg, set));
        let elements = items.iter().map(|(_, set)| sorted::distinct_count(set));
        let elements = elements.sum::<usize>() as u64;
        self.append_rows(&oids, rows, elements).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facility::{CandidateSet, IndexLayout, Profile};
    use crate::SetAccessFacility;

    fn profile(f: u32, m: u32, elements: u64) -> Option<Profile> {
        Some(Profile {
            layout: IndexLayout::Signature { f, m },
            elements,
        })
    }
    use setsig_pagestore::{count_reads, BufferPool, Disk};

    fn bssf(f_bits: u32, m: u32) -> (Arc<Disk>, Bssf) {
        let disk = Arc::new(Disk::new());
        let io: Arc<dyn PageIo> = Arc::clone(&disk) as Arc<dyn PageIo>;
        let cfg = SignatureConfig::new(f_bits, m).unwrap();
        (disk.clone(), Bssf::create(io, "test", cfg).unwrap())
    }

    fn keys(elems: &[&str]) -> Vec<ElementKey> {
        elems.iter().map(ElementKey::from).collect()
    }

    #[test]
    fn superset_query_finds_matches() {
        let (_d, mut b) = bssf(64, 2);
        b.insert(Oid::new(1), &keys(&["Baseball", "Fishing"]))
            .unwrap();
        b.insert(Oid::new(2), &keys(&["Tennis"])).unwrap();
        b.insert(Oid::new(3), &keys(&["Baseball", "Golf", "Fishing"]))
            .unwrap();

        let q = SetQuery::has_subset(keys(&["Baseball", "Fishing"]));
        let c = b.candidates(&q).unwrap();
        assert!(c.oids.contains(&Oid::new(1)));
        assert!(c.oids.contains(&Oid::new(3)));
    }

    #[test]
    fn subset_query_finds_contained_sets() {
        let (_d, mut b) = bssf(128, 2);
        b.insert(Oid::new(1), &keys(&["Baseball"])).unwrap();
        b.insert(Oid::new(2), &keys(&["Baseball", "Football"]))
            .unwrap();
        b.insert(Oid::new(3), &keys(&["Chess", "Go", "Shogi", "Backgammon"]))
            .unwrap();

        let q = SetQuery::in_subset(keys(&["Baseball", "Football", "Tennis"]));
        let c = b.candidates(&q).unwrap();
        assert!(c.oids.contains(&Oid::new(1)));
        assert!(c.oids.contains(&Oid::new(2)));
    }

    #[test]
    fn insert_writes_only_the_set_slices_plus_the_oid_file() {
        let (disk, mut b) = bssf(64, 2);
        b.insert(Oid::new(1), &keys(&["a", "b"])).unwrap();
        // On materialized slice pages and on never-touched ones alike:
        // one write per 1 bit and one for the OID, no reads.
        for (oid, set) in [(2, keys(&["a", "b"])), (3, keys(&["c", "d", "e"]))] {
            let weight = b.config().signature(&set).count_ones() as u64;
            disk.reset_stats();
            b.insert(Oid::new(oid), &set).unwrap();
            let s = disk.snapshot();
            assert_eq!((s.reads, s.writes), (0, weight + 1), "UC_I = m_t + 1");
        }
        // Weight 0: the OID write alone.
        disk.reset_stats();
        b.insert(Oid::new(4), &[]).unwrap();
        assert_eq!(disk.snapshot().accesses(), 1);
    }

    /// Test-only dense reference: a BSSF built from scratch out of `rows`
    /// `(oid, set, live)` that assigns **every** bit of every slice
    /// explicitly — set or clear — and writes every slice page, so nothing
    /// an earlier call left behind could show through. The pages go to the
    /// disk behind the writer's back; the BSSF reopened from its checkpoint
    /// then reads them as it reads any file.
    fn dense_reference(cfg: SignatureConfig, rows: &[(Oid, Vec<ElementKey>, bool)]) -> Bssf {
        let io: Arc<dyn PageIo> = Arc::new(Disk::new());
        let mut b = Bssf::create(Arc::clone(&io), "dense", cfg).unwrap();
        let sigs: Vec<Bitmap> = rows.iter().map(|(_, set, _)| cfg.signature(set)).collect();
        for (j, slice) in b.layout.slices.files().iter().enumerate() {
            for chunk in sigs.chunks(ROWS_PER_PAGE as usize) {
                let mut page = Page::zeroed();
                for (bit, sig) in chunk.iter().enumerate() {
                    page.set_bit(bit, sig.get(j as u32));
                }
                slice.file.append(&page).unwrap();
            }
        }
        let oids: Vec<Oid> = rows.iter().map(|(oid, _, _)| *oid).collect();
        b.oid_file.bulk_append(&oids).unwrap();
        for (oid, _, _) in rows.iter().filter(|(_, _, live)| !live) {
            b.oid_file.delete_by_oid(*oid).unwrap();
        }
        let meta = b.sync_meta().unwrap();
        Bssf::open(io, meta).unwrap()
    }

    /// Queries under all five predicates built from the rows' own sets
    /// (plus the empty and an absent one): both files must answer alike.
    fn assert_answers_alike(staged: &Bssf, dense: &Bssf, rows: &[(Oid, Vec<ElementKey>, bool)]) {
        let (empty, absent) = (Vec::new(), vec![ElementKey::from(987_654u64)]);
        let sets = rows.iter().map(|(_, set, _)| set).chain([&empty, &absent]);
        for set in sets.rev().take(12) {
            let mut wider = set.clone();
            wider.push(ElementKey::from(3u64));
            let mut queries = vec![
                SetQuery::has_subset(set[..set.len().min(2)].to_vec()),
                SetQuery::in_subset(set.clone()),
                SetQuery::in_subset(wider),
                SetQuery::equals(set.clone()),
                SetQuery::overlaps(set.clone()),
            ];
            queries.extend(set.first().cloned().map(SetQuery::contains));
            for q in queries {
                let (got, want) = (
                    staged.candidates(&q).unwrap(),
                    dense.candidates(&q).unwrap(),
                );
                let only = |a: &CandidateSet, b: &CandidateSet| -> Vec<Oid> {
                    (a.oids.iter().copied())
                        .filter(|o| !b.oids.contains(o))
                        .collect()
                };
                assert!(
                    got == want,
                    "{} {:?}: the staged file misses {:?} and adds {:?}",
                    q.predicate,
                    q.elements,
                    only(&want, &got),
                    only(&got, &want)
                );
            }
        }
    }

    #[test]
    fn sparse_and_dense_inserts_answer_identically() {
        let (_d, mut sparse) = bssf(64, 2);
        let rows: Vec<(Oid, Vec<ElementKey>, bool)> = (0..50u64)
            .map(|i| {
                let set = (0..4).map(|j| ElementKey::from(i * 13 + j)).collect();
                (Oid::new(i), set, true)
            })
            .collect();
        for (oid, set, _) in &rows {
            sparse.insert(*oid, set).unwrap();
        }
        assert_answers_alike(&sparse, &dense_reference(*sparse.config(), &rows), &rows);
    }

    /// One step of the differential sequence below.
    #[derive(Debug, Clone)]
    enum Op {
        Insert(Vec<u64>),
        Batch(Vec<Vec<u64>>),
        /// An insert with a fault injected after this many page accesses:
        /// fails (and must leave no trace) unless the budget covers it.
        Torn(Vec<u64>, u64),
        /// Deletes the live row at this index modulo the live count.
        Delete(usize),
    }

    fn op() -> impl proptest::strategy::Strategy<Value = Op> {
        use proptest::prelude::*;
        // A small domain, so sets share elements and signatures collide;
        // empty sets (weight 0) included.
        let set = || proptest::collection::vec(0u64..40, 0..6);
        prop_oneof![
            4 => set().prop_map(Op::Insert),
            3 => proptest::collection::vec(set(), 0..5).prop_map(Op::Batch),
            3 => (set(), 0u64..8).prop_map(|(s, n)| Op::Torn(s, n)),
            2 => (0usize..64).prop_map(Op::Delete),
        ]
    }

    /// Feeds `ops` to the staged writer on a file already holding `start`
    /// empty-set rows and checks it, at the end, against the dense
    /// reference built from the rows that were acknowledged.
    fn run_differential(f_bits: u32, start: u64, ops: &[Op]) {
        let (disk, mut b) = bssf(f_bits, 2);
        let mut rows: Vec<(Oid, Vec<ElementKey>, bool)> = (0..start)
            .map(|i| (Oid::new(i), Vec::new(), true))
            .collect();
        let prefix: Vec<(Oid, Vec<ElementKey>)> = rows
            .iter()
            .map(|(oid, set, _)| (*oid, set.clone()))
            .collect();
        b.insert_batch(&prefix).unwrap();
        let mut next = start;
        let mut fresh = |set: &[u64]| {
            next += 1;
            (
                Oid::new(next),
                set.iter().map(|&e| ElementKey::from(e)).collect::<Vec<_>>(),
            )
        };
        for op in ops {
            match op {
                Op::Insert(set) => {
                    let (oid, set) = fresh(set);
                    b.insert(oid, &set).unwrap();
                    rows.push((oid, set, true));
                }
                Op::Batch(sets) => {
                    let items: Vec<_> = sets.iter().map(|s| fresh(s)).collect();
                    b.insert_batch(&items).unwrap();
                    rows.extend(items.into_iter().map(|(oid, set)| (oid, set, true)));
                }
                Op::Torn(set, budget) => {
                    let (oid, set) = fresh(set);
                    disk.inject_fault_after(*budget);
                    let outcome = b.insert(oid, &set);
                    disk.clear_fault();
                    if outcome.is_ok() {
                        rows.push((oid, set, true));
                    }
                }
                Op::Delete(i) => {
                    let live: Vec<usize> = (0..rows.len()).filter(|&r| rows[r].2).collect();
                    if let Some(&r) = live.get(i % live.len().max(1)) {
                        b.delete(rows[r].0, &[]).unwrap();
                        rows[r].2 = false;
                    }
                }
            }
            assert_eq!(b.oid_file().len(), rows.len() as u64);
        }
        assert_answers_alike(&b, &dense_reference(*b.config(), &rows), &rows);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Single inserts, batches, torn inserts and deletes through the
        /// one writer answer like the dense reference, at a narrow and at
        /// the paper's width (where most slices of a small file are never
        /// materialized at all).
        #[test]
        fn staged_writer_matches_the_dense_reference(
            wide in proptest::prelude::any::<bool>(),
            ops in proptest::collection::vec(op(), 1..14),
        ) {
            run_differential(if wide { 500 } else { 64 }, 0, &ops);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

        /// The same with rows crossing 32,768: the sequence starts three
        /// rows short of the second row page, which only the slices it sets
        /// a bit on there ever materialize.
        #[test]
        fn staged_writer_matches_the_dense_reference_across_a_row_page(
            ops in proptest::collection::vec(op(), 4..12),
        ) {
            run_differential(64, ROWS_PER_PAGE - 3, &ops);
        }
    }

    #[test]
    fn bulk_load_matches_incremental_build() {
        let items: Vec<(Oid, Vec<ElementKey>)> = (0..200u64)
            .map(|i| {
                (
                    Oid::new(i),
                    (0..3).map(|j| ElementKey::from(i * 7 + j)).collect(),
                )
            })
            .collect();
        let (_d1, mut inc) = bssf(128, 2);
        for (oid, set) in &items {
            inc.insert(*oid, set).unwrap();
        }
        let (disk2, mut bulk) = bssf(128, 2);
        bulk.bulk_load(&items).unwrap();
        // Bulk load writes each slice page once + the OID pages once.
        assert_eq!(disk2.snapshot().writes, 128 + 1);
        for probe in [0u64, 42, 199] {
            let q = SetQuery::has_subset(vec![ElementKey::from(probe * 7 + 1)]);
            assert_eq!(inc.candidates(&q).unwrap(), bulk.candidates(&q).unwrap());
        }
        // A batch counts its sets' elements as their inserts do.
        assert_eq!(bulk.profile(), profile(128, 2, 600));
        assert_eq!(bulk.profile(), inc.profile());
    }

    #[test]
    fn bulk_load_rejects_nonempty() {
        let (_d, mut b) = bssf(64, 2);
        b.insert(Oid::new(1), &keys(&["x"])).unwrap();
        assert!(b.bulk_load(&[(Oid::new(2), keys(&["y"]))]).is_err());
    }

    #[test]
    fn superset_scan_reads_m_q_slices() {
        let (disk, mut b) = bssf(64, 2);
        for i in 0..10u64 {
            b.insert(Oid::new(i), &[ElementKey::from(i)]).unwrap();
        }
        let q = SetQuery::has_subset(vec![ElementKey::from(3u64)]);
        let qsig = b.config().signature(&q.elements);
        disk.reset_stats();
        let c = b.candidates(&q).unwrap();
        assert!(c.oids.contains(&Oid::new(3)));
        // m_q slice pages (1 page each) + 1 OID page. Early-exit may read
        // fewer slices if the accumulator empties, but a match exists so
        // all are read.
        let s = disk.snapshot();
        assert_eq!(s.reads, qsig.count_ones() as u64 + 1);
    }

    #[test]
    fn subset_scan_reads_f_minus_m_q_slices() {
        let (disk, mut b) = bssf(64, 2);
        // These sets between them set a bit on every slice, so each of the
        // F − m_q zero-slices has its page to read.
        for i in 0..400u64 {
            b.insert(Oid::new(i), &[ElementKey::from(i)]).unwrap();
        }
        assert!(b.layout.slices.files().iter().all(|s| s.pages == 1));
        let q = SetQuery::in_subset(vec![ElementKey::from(3u64), ElementKey::from(4u64)]);
        let qsig = b.config().signature(&q.elements);
        disk.reset_stats();
        let c = b.candidates(&q).unwrap();
        assert!(c.oids.contains(&Oid::new(3)));
        assert!(c.oids.contains(&Oid::new(4)));
        let s = disk.snapshot();
        let zero_slices = 64 - qsig.count_ones() as u64;
        assert_eq!(s.reads, zero_slices + 1);
    }

    #[test]
    fn a_slice_no_row_set_a_bit_on_costs_a_scan_nothing() {
        let (disk, mut b) = bssf(64, 2);
        let set = [ElementKey::from(1u64)];
        b.insert(Oid::new(1), &set).unwrap();
        let weight = b.config().signature(&set).count_ones() as u64;
        // Only the set's own slices exist; T ⊆ Q against a disjoint query
        // reads those and the OID page is never reached (no drop).
        assert_eq!(b.storage_pages().unwrap(), weight + 1);
        let q = SetQuery::in_subset(vec![ElementKey::from(2u64)]);
        let zero_and_written = (b.config().signature(&set).iter_ones())
            .filter(|&j| !b.config().signature(&q.elements).get(j))
            .count() as u64;
        disk.reset_stats();
        assert!(b.candidates(&q).unwrap().is_empty());
        assert_eq!(disk.snapshot().reads, zero_and_written);
    }

    #[test]
    fn equals_and_overlap_predicates() {
        let (_d, mut b) = bssf(128, 3);
        b.insert(Oid::new(1), &keys(&["a", "b"])).unwrap();
        b.insert(Oid::new(2), &keys(&["a", "c"])).unwrap();
        b.insert(Oid::new(3), &keys(&["x", "y"])).unwrap();

        let qe = SetQuery::equals(keys(&["b", "a"]));
        let c = b.candidates(&qe).unwrap();
        assert!(c.oids.contains(&Oid::new(1)));
        assert!(!c.oids.contains(&Oid::new(3)));

        let qo = SetQuery::overlaps(keys(&["c", "z"]));
        let c = b.candidates(&qo).unwrap();
        assert!(c.oids.contains(&Oid::new(2)));
        assert!(!c.oids.contains(&Oid::new(3)));
    }

    #[test]
    fn smart_superset_caps_slice_reads() {
        let (disk, mut b) = bssf(64, 2);
        for i in 0..20u64 {
            let set: Vec<ElementKey> = (0..5).map(|j| ElementKey::from(i * 11 + j)).collect();
            b.insert(Oid::new(i), &set).unwrap();
        }
        // Query with 5 elements, smart cap at 2: at most 2·m slices read.
        let q = SetQuery::has_subset((0..5).map(|j| ElementKey::from(7u64 * 11 + j)).collect());
        disk.reset_stats();
        let (c, stats) = b.candidates_with_stats(&q.with_cap(2).unwrap()).unwrap();
        assert!(c.oids.contains(&Oid::new(7)));
        let s = disk.snapshot();
        assert!(s.reads <= 2 * 2 + 1, "smart read {} pages", s.reads);
        assert_eq!(s.reads, stats.unwrap().pages);
    }

    #[test]
    fn smart_subset_caps_slice_reads() {
        let (disk, mut b) = bssf(64, 2);
        for i in 0..20u64 {
            b.insert(Oid::new(i), &[ElementKey::from(i)]).unwrap();
        }
        let q = SetQuery::in_subset(vec![ElementKey::from(3u64)]);
        disk.reset_stats();
        let (c, stats) = b.candidates_with_stats(&q.with_cap(10).unwrap()).unwrap();
        // Sound: the true match is still a drop.
        assert!(c.oids.contains(&Oid::new(3)));
        let s = disk.snapshot();
        assert!(s.reads <= 10 + 1, "smart read {} pages", s.reads);
        assert_eq!(s.reads, stats.unwrap().pages);
    }

    #[test]
    fn cap_at_or_above_the_query_equals_the_plain_query() {
        let (_d, mut b) = bssf(64, 2);
        for i in 0..20u64 {
            let set: Vec<ElementKey> = (0..3).map(|j| ElementKey::from(i * 5 + j)).collect();
            b.insert(Oid::new(i), &set).unwrap();
        }
        let elems: Vec<ElementKey> = (0..3).map(|j| ElementKey::from(4u64 * 5 + j)).collect();
        // ⊇: cap ≥ D_q; ⊆: cap ≥ F ≥ F − m_q.
        for (plain, cap) in [
            (SetQuery::has_subset(elems.clone()), 3),
            (SetQuery::has_subset(elems.clone()), 99),
            (SetQuery::in_subset(elems.clone()), 64),
        ] {
            let capped = plain.clone().with_cap(cap).unwrap();
            assert_eq!(
                b.candidates_with_stats(&capped).unwrap(),
                b.candidates_with_stats(&plain).unwrap(),
                "{} cap {cap}",
                plain.predicate
            );
        }
        // D_q = 0 with a cap: everything is a superset, as without one.
        let all = SetQuery::has_subset(vec![]).with_cap(2).unwrap();
        assert_eq!(b.candidates(&all).unwrap().len(), 20);
    }

    #[test]
    fn empty_superset_query_matches_everything() {
        let (_d, mut b) = bssf(64, 2);
        for i in 0..5u64 {
            b.insert(Oid::new(i), &[ElementKey::from(i)]).unwrap();
        }
        let q = SetQuery::has_subset(vec![]);
        assert_eq!(b.candidates(&q).unwrap().len(), 5);
    }

    #[test]
    fn rows_spanning_multiple_pages() {
        // Force > 1 page per slice by inserting past ROWS_PER_PAGE rows...
        // that is 32768 inserts; instead bulk-load to keep the test fast.
        let n = ROWS_PER_PAGE + 100;
        let items: Vec<(Oid, Vec<ElementKey>)> = (0..n)
            .map(|i| (Oid::new(i), vec![ElementKey::from(i % 97)]))
            .collect();
        let (_d, mut b) = bssf(32, 1);
        b.bulk_load(&items).unwrap();
        assert_eq!(b.pages_per_slice(), 2);
        let q = SetQuery::has_subset(vec![ElementKey::from(42u64)]);
        let c = b.candidates(&q).unwrap();
        // Every row with i % 97 == 42 must be a drop, including those on
        // the second page.
        let expected = (0..n).filter(|i| i % 97 == 42).count();
        assert!(c.len() >= expected);
        assert!(c
            .oids
            .contains(&Oid::new(ROWS_PER_PAGE + 42 + 97 - (ROWS_PER_PAGE % 97))));
    }

    #[test]
    fn overlap_filter_survives_u16_boundary() {
        // Regression for the overlap-count truncation: the old code cast
        // the threshold with `m_weight() as u16` and kept counts in u16, so
        // m = 70,000 truncated to 4,464 and a count of 70,000 wrapped to
        // 4,464 — admitting row 1 below. The u32 path must admit row 0 only.
        let counts = [70_000u32, 4_464, 65_536];
        assert_eq!(Slices::overlap_filter(&counts, 70_000), vec![0]);
        // Exactly at the old wrap point: 65,536 ≡ 0 (mod 2^16) used to
        // compare below any nonzero threshold.
        assert_eq!(Slices::overlap_filter(&counts, 65_536), vec![0, 2]);
        assert_eq!(Slices::overlap_filter(&counts, u32::MAX), Vec::<u64>::new());
    }

    /// The page-major scans against a row-by-row reference on a file with
    /// more than one row page per slice, `F ∤ 64` (and `∤ 8`), and slices of
    /// different materialized lengths (sparse inserts): identical positions,
    /// and never more pages than a slice-major scan — every consumed slice
    /// read whole — would have charged. A short or empty slice contributes
    /// zeros for its unwritten tail, whatever was read before it. The pages
    /// are exactly those of the plain page-major scan, which reads a row
    /// page's slices until its `⊇` range empties and every `⊆` slice page.
    #[test]
    fn page_major_scans_match_the_row_reference_on_multi_page_sparse_slices() {
        page_major_scans_match_the_row_reference(ROWS_PER_PAGE + 3_000);
    }

    /// The same where the last row page ends mid-word (700 = 64·10 + 60
    /// rows).
    #[test]
    #[cfg_attr(miri, ignore)]
    fn page_major_scans_match_the_row_reference_on_a_last_page_ending_mid_word() {
        page_major_scans_match_the_row_reference(ROWS_PER_PAGE + 700);
    }

    fn page_major_scans_match_the_row_reference(n: u64) {
        let (_d, mut b) = bssf(100, 2);
        // Row page 0 draws on 40 elements, row page 1 on 6 of them, so most
        // slices end after one page and some were never written at all.
        let set_of = |i: u64| -> Vec<ElementKey> {
            let domain = if i < ROWS_PER_PAGE { 40 } else { 6 };
            (0..1 + i % 3)
                .map(|k| ElementKey::from((i * 7 + k * 11) % domain))
                .collect()
        };
        let items: Vec<(Oid, Vec<ElementKey>)> = (0..n).map(|i| (Oid::new(i), set_of(i))).collect();
        for chunk in items.chunks(5_000) {
            b.insert_batch(chunk).unwrap();
        }
        let lens: Vec<u32> = b.layout.slices.files().iter().map(|s| s.pages).collect();
        assert!(lens.contains(&0) && lens.contains(&1) && lens.contains(&2));
        for (s, &pages) in b.layout.slices.files().iter().zip(&lens) {
            assert_eq!(s.file.len().unwrap(), pages, "tracked length is the file's");
        }
        let sigs: Vec<Bitmap> = items
            .iter()
            .map(|(_, set)| b.config().signature(set))
            .collect();
        // The plain scan's `⊇` charge: per row page, a page of each slice
        // that has one until no row of the page has every slice so far.
        let superset_pages = |ones: &[u32]| -> u64 {
            let row_pages = sigs.chunks(ROWS_PER_PAGE as usize);
            let per_page = row_pages.enumerate().map(|(p, rows)| {
                let mut rows: Vec<&Bitmap> = rows.iter().collect();
                let mut pages = 0;
                for &j in ones {
                    if rows.is_empty() {
                        break;
                    }
                    pages += u64::from(lens[j as usize] as usize > p);
                    rows.retain(|sig| sig.get(j));
                }
                pages
            });
            per_page.sum()
        };
        // And its `⊆` charge: every page of every zero-slice.
        let subset_pages = |zeros: &[u32]| zeros.iter().map(|&j| lens[j as usize] as u64).sum();
        let elems = |v: &[u64]| v.iter().map(|&e| ElementKey::from(e)).collect::<Vec<_>>();
        let queries = [
            SetQuery::has_subset(elems(&[3])),
            SetQuery::has_subset(elems(&[1, 4])),
            SetQuery::has_subset(elems(&[30, 31])), // dies on row page 1 first
            SetQuery::has_subset(elems(&[77_777, 88_888])), // may touch empty slices
            SetQuery::in_subset(elems(&[0, 1, 2, 3, 4, 5])),
            SetQuery::in_subset((0..40).map(ElementKey::from).collect()),
            SetQuery::equals(set_of(n - 1)), // the last row's own set
            SetQuery::equals(elems(&[3, 10])),
            SetQuery::overlaps(elems(&[2, 33])),
        ];
        for q in &queries {
            let qsig = b.config().signature(&q.elements);
            let expect: Vec<u64> = (0..n)
                .filter(|&i| q.signature_matches(b.config(), &sigs[i as usize], &qsig))
                .collect();
            let (found, pages) = count_reads(|| b.layout.positions(q, n).unwrap());
            assert_eq!(found.positions, expect, "{:?} N {n}", q.predicate);
            let ones: Vec<u32> = qsig.iter_ones().collect();
            let zeros: Vec<u32> = qsig.iter_zeros().collect();
            let plain = match q.predicate {
                SetPredicate::InSubset => subset_pages(&zeros),
                SetPredicate::Equals => superset_pages(&ones) + subset_pages(&zeros),
                SetPredicate::Overlaps => subset_pages(&ones),
                _ => superset_pages(&ones),
            };
            assert_eq!(pages, plain, "{:?} N {n}", q.predicate);
            // Slice-major: the first `found.slices` selected slices, each
            // read to its materialized end.
            let selected = match q.predicate {
                SetPredicate::InSubset => &zeros,
                SetPredicate::Equals => continue,
                _ => &ones,
            };
            let slice_major: u64 = selected[..found.slices as usize]
                .iter()
                .map(|&j| lens[j as usize] as u64)
                .sum();
            assert!(
                pages <= slice_major,
                "{:?}: {pages} pages > slice-major {slice_major}",
                q.predicate
            );
        }
    }

    #[test]
    fn a_torn_rows_bits_stay_out_of_the_subset_accumulator() {
        let (disk, mut b) = bssf(64, 2);
        for i in 0..5u64 {
            b.insert(Oid::new(i), &[ElementKey::from(i)]).unwrap();
        }
        // The failed insert leaves its first slice bits at row 5, past the
        // last entry, until the next insert clears them.
        disk.inject_fault_after(3);
        let torn = (10..20u64).map(ElementKey::from).collect::<Vec<_>>();
        assert!(b.insert(Oid::new(5), &torn).is_err());
        disk.clear_fault();
        let acc = b.layout.or_slices(&(0..64).collect::<Vec<_>>(), 5).unwrap();
        assert_eq!(acc.words(), [0b1_1111], "canonical: no bit at row 5");
    }

    /// The `⊆` OR over two row pages: capped and uncapped `⊆` and `=` at
    /// N = 32,768 + 700 (the last row page ends mid-word), through the
    /// bare disk and through a pool smaller than the file. Positions are
    /// the row reference's, and the charge is the plain scan's: `cap` (or
    /// `F − m_q`) zero-slices, a page each on both row pages, plus the
    /// drops' OID pages.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn subset_scans_match_the_row_reference_across_row_pages() {
        const F: u32 = 100;
        let n = ROWS_PER_PAGE + 700;
        // Ten elements a row from a domain of 1,000 that misses the query,
        // so a row has ~18 bits set and is set after a few dozen
        // zero-slices; every 2,003rd row and the last hold a subset of the
        // query, so they stay clear.
        let query: Vec<ElementKey> = (0..5u64).map(ElementKey::from).collect();
        let set_of = |i: u64| -> Vec<ElementKey> {
            if i.is_multiple_of(2_003) || i == n - 1 {
                return query[..1 + (i % 5) as usize].to_vec();
            }
            (0..10)
                .map(|k| {
                    ElementKey::from(
                        5 + ((i * 10 + k).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) % 1_000,
                    )
                })
                .collect()
        };
        let items: Vec<(Oid, Vec<ElementKey>)> = (0..n).map(|i| (Oid::new(i), set_of(i))).collect();
        let cfg = SignatureConfig::new(F, 2).unwrap();
        let sigs: Vec<Bitmap> = items.iter().map(|(_, set)| cfg.signature(set)).collect();
        let qsig = cfg.signature(&SetQuery::in_subset(query.clone()).elements);
        let zeros: Vec<u32> = qsig.iter_zeros().collect();
        let mut cases = vec![(SetQuery::in_subset(query.clone()), zeros.len())];
        for cap in [16, 40, 48, 63, F as usize] {
            let capped = SetQuery::in_subset(query.clone()).with_cap(cap).unwrap();
            cases.push((capped, cap.min(zeros.len())));
        }
        cases.push((SetQuery::equals(query.clone()), zeros.len()));
        for pooled in [false, true] {
            let disk = Arc::new(Disk::new());
            let io: Arc<dyn PageIo> = if pooled {
                Arc::new(BufferPool::new(Arc::clone(&disk), 64))
            } else {
                disk
            };
            let mut b = Bssf::create(io, "t", cfg).unwrap();
            b.insert_batch(&items).unwrap();
            assert!(b.layout.slices.files().iter().all(|s| s.pages == 2));
            // The `⊇` half of `=` is the AND scan.
            let superset = SetQuery::has_subset(query.clone());
            let (sup, sup_pages) = count_reads(|| b.layout.positions(&superset, n).unwrap());
            for (q, take) in &cases {
                let equals = q.predicate == SetPredicate::Equals;
                let want: Vec<u64> = (0..n)
                    .filter(|&i| {
                        let row = &sigs[i as usize];
                        let clear = zeros[..*take].iter().all(|&j| !row.get(j));
                        clear && (!equals || q.signature_matches(&cfg, row, &qsig))
                    })
                    .collect();
                let (c, stats) = b.candidates_with_stats(q).unwrap();
                let stats = stats.unwrap();
                let got: Vec<u64> = c.oids.iter().map(|oid| oid.raw()).collect();
                let what = format!("{:?} cap {:?} pooled {pooled}", q.predicate, q.cap());
                assert_eq!(got, want, "{what}");
                let (slices, pages) = if equals {
                    (sup.slices, sup_pages)
                } else {
                    (0, 0)
                };
                assert_eq!(stats.slices, slices + *take as u64, "{what}");
                let oid_pages = OidFile::pages_touched(&want);
                assert_eq!(stats.pages, pages + 2 * *take as u64 + oid_pages, "{what}");
            }
        }
    }

    /// The grouped `⊆` OR at each group boundary: a capped `⊆` that reads
    /// `take` ∈ {1, 7, 8, 9, 16, 17} zero-slices over two row pages, the
    /// second of which has no page on most of those slices, so its groups
    /// close on later slices than the first page's. Positions are the row
    /// reference's, and the charge is the `take` slices' materialized pages
    /// plus the drops' OID pages.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn capped_subset_scans_match_the_row_reference_at_every_group_boundary() {
        let n = ROWS_PER_PAGE + 700;
        let (_d, mut b) = bssf(100, 2);
        // Row page 0 draws on 60 elements, row page 1 on 10 of them; the
        // query shares none.
        let set_of = |i: u64| -> Vec<ElementKey> {
            let domain = if i < ROWS_PER_PAGE { 60 } else { 10 };
            (0..1 + i % 3)
                .map(|k| ElementKey::from((i * 7 + k * 11) % domain))
                .collect()
        };
        let items: Vec<(Oid, Vec<ElementKey>)> = (0..n).map(|i| (Oid::new(i), set_of(i))).collect();
        for chunk in items.chunks(5_000) {
            b.insert_batch(chunk).unwrap();
        }
        let lens: Vec<u32> = b.layout.slices.files().iter().map(|s| s.pages).collect();
        let sigs: Vec<Bitmap> = items
            .iter()
            .map(|(_, set)| b.config().signature(set))
            .collect();
        let query: Vec<ElementKey> = (100..103u64).map(ElementKey::from).collect();
        let zeros: Vec<u32> = b.config().signature(&query).iter_zeros().collect();
        // Inside each of the first two groups, row page 1 both reads and
        // skips a slice page.
        for group in [&zeros[..8], &zeros[8..16]] {
            let on_page_1: Vec<bool> = group.iter().map(|&j| lens[j as usize] == 2).collect();
            assert!(
                on_page_1.contains(&true) && on_page_1.contains(&false),
                "{group:?}"
            );
        }
        for take in [1, 7, 8, 9, 16, 17] {
            let q = SetQuery::in_subset(query.clone()).with_cap(take).unwrap();
            let want: Vec<u64> = (0..n)
                .filter(|&i| zeros[..take].iter().all(|&j| !sigs[i as usize].get(j)))
                .collect();
            let (c, stats) = b.candidates_with_stats(&q).unwrap();
            let stats = stats.unwrap();
            let got: Vec<u64> = c.oids.iter().map(|oid| oid.raw()).collect();
            assert_eq!(got, want, "take {take}");
            let read: u64 = zeros[..take]
                .iter()
                .map(|&j| u64::from(lens[j as usize]))
                .sum();
            let oid_pages = OidFile::pages_touched(&want);
            assert_eq!(stats.slices, take as u64, "take {take}");
            assert_eq!(stats.pages, read + oid_pages, "take {take}");
        }
    }
}

#[cfg(test)]
mod meta_tests {
    use super::*;
    use crate::SetAccessFacility;
    use setsig_pagestore::Disk;

    fn keys(elems: &[&str]) -> Vec<ElementKey> {
        elems.iter().map(ElementKey::from).collect()
    }

    #[test]
    fn a_checkpoint_after_a_torn_insert_reopens_clean() {
        let disk = Arc::new(Disk::new());
        let io: Arc<dyn PageIo> = Arc::clone(&disk) as Arc<dyn PageIo>;
        let mut bssf = Bssf::create(io, "t", SignatureConfig::new(64, 2).unwrap()).unwrap();
        bssf.insert(Oid::new(1), &keys(&["Tennis"])).unwrap();
        disk.inject_fault_after(3);
        assert!(bssf
            .insert(Oid::new(2), &keys(&["Golf", "Chess", "Go"]))
            .is_err());
        disk.clear_fault();
        let meta = bssf.sync_meta().unwrap();

        // What reopens knows nothing of the failed call, and need not.
        let io: Arc<dyn PageIo> = disk as Arc<dyn PageIo>;
        let mut reopened = Bssf::open(io, meta).unwrap();
        reopened.insert(Oid::new(3), &keys(&["Baseball"])).unwrap();
        let q = SetQuery::in_subset(keys(&["Baseball", "Fishing"]));
        assert_eq!(reopened.candidates(&q).unwrap().oids, vec![Oid::new(3)]);
    }

    #[test]
    fn open_rejects_foreign_meta() {
        let disk = Arc::new(Disk::new());
        let io: Arc<dyn PageIo> = Arc::clone(&disk) as Arc<dyn PageIo>;
        let mut ssf =
            crate::Ssf::create(Arc::clone(&io), "s", SignatureConfig::new(64, 2).unwrap()).unwrap();
        let ssf_meta = ssf.sync_meta().unwrap();
        assert!(
            Bssf::open(io, ssf_meta).is_err(),
            "magic mismatch must fail"
        );
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use crate::SetAccessFacility;
    use setsig_pagestore::Disk;

    fn items(n: u64) -> Vec<(Oid, Vec<ElementKey>)> {
        (0..n)
            .map(|i| {
                (
                    Oid::new(i),
                    (0..5u64).map(|j| ElementKey::from(i * 11 + j)).collect(),
                )
            })
            .collect()
    }

    fn bssf(disk: &Arc<Disk>) -> Bssf {
        let io: Arc<dyn PageIo> = Arc::clone(disk) as Arc<dyn PageIo>;
        Bssf::create(io, "b", SignatureConfig::new(128, 2).unwrap()).unwrap()
    }

    #[test]
    fn batch_equals_incremental_contents() {
        let d1 = Arc::new(Disk::new());
        let d2 = Arc::new(Disk::new());
        let mut inc = bssf(&d1);
        let mut bat = bssf(&d2);
        let all = items(150);
        for (oid, set) in &all {
            inc.insert(*oid, set).unwrap();
        }
        // Two batches, to exercise appending to a non-empty file.
        bat.insert_batch(&all[..70]).unwrap();
        bat.insert_batch(&all[70..]).unwrap();
        for probe in [0u64, 69, 70, 149] {
            let q = SetQuery::has_subset(vec![ElementKey::from(probe * 11)]);
            assert_eq!(inc.candidates(&q).unwrap(), bat.candidates(&q).unwrap());
        }
        assert_eq!(bat.indexed_count(), 150);
    }

    #[test]
    fn batch_amortizes_writes() {
        let d1 = Arc::new(Disk::new());
        let d2 = Arc::new(Disk::new());
        let mut inc = bssf(&d1);
        let mut bat = bssf(&d2);
        let all = items(200);
        for (oid, set) in &all {
            inc.insert(*oid, set).unwrap();
        }
        bat.insert_batch(&all).unwrap();
        let inc_writes = d1.snapshot().writes;
        let bat_writes = d2.snapshot().writes;
        // Incremental: Σ (m_t + 1). Batched: ≤ F slice pages + 1 OID page.
        let weights: u64 = all
            .iter()
            .map(|(_, set)| inc.config().signature(set).count_ones() as u64)
            .sum();
        assert_eq!(inc_writes, weights + 200);
        assert!(bat_writes <= 129, "batched writes {bat_writes}");
        // And both answer queries identically (spot check).
        let q = SetQuery::has_subset(vec![ElementKey::from(55u64)]);
        assert_eq!(inc.candidates(&q).unwrap(), bat.candidates(&q).unwrap());
    }

    #[test]
    fn batch_then_single_insert_positions_align() {
        let disk = Arc::new(Disk::new());
        let mut b = bssf(&disk);
        b.insert_batch(&items(10)).unwrap();
        b.insert(Oid::new(999), &[ElementKey::from(12345u64)])
            .unwrap();
        let q = SetQuery::has_subset(vec![ElementKey::from(12345u64)]);
        assert!(b.candidates(&q).unwrap().oids.contains(&Oid::new(999)));
        assert_eq!(b.indexed_count(), 11);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let disk = Arc::new(Disk::new());
        let mut b = bssf(&disk);
        b.insert_batch(&[]).unwrap();
        assert_eq!(b.indexed_count(), 0);
        assert_eq!(disk.snapshot().writes, 0);
    }
}
