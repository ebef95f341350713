//! The OID file: position → OID mapping shared by SSF, BSSF and FSSF.
//!
//! Every signature file layout identifies a matching entry by its
//! *position* (row number). The OID file translates positions to object
//! identifiers: entry `p` lives at page `p / O_p`, offset `(p mod O_p) · 8`,
//! with `O_p = ⌊P/oid⌋ = 512` entries per page — exactly the paper's layout,
//! giving `SC_OID = ⌈N/O_p⌉` pages (63 for N = 32,000).
//!
//! Deletion follows §4.1: a **delete flag** is set in the OID file entry
//! (we use the top bit of the 8-byte word, which is why OIDs are 63-bit).
//! Locating the entry for an OID requires a sequential scan — expected
//! `SC_OID/2` page reads, the paper's `UC_D`.

use setsig_pagestore::{Page, PageIo, PagedFile, PAGE_SIZE};
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::facility::CandidateSet;
use crate::oid::Oid;

/// Bytes per OID entry (the paper's `oid = 8`).
pub const OID_ENTRY_BYTES: usize = 8;

/// Entries per page (the paper's `O_p = 512`).
pub const OIDS_PER_PAGE: u64 = (PAGE_SIZE / OID_ENTRY_BYTES) as u64;

const TOMBSTONE_BIT: u64 = 1 << 63;

/// A positional OID file.
pub struct OidFile {
    file: PagedFile,
    len: u64,
    live: u64,
    /// Pages in `file`. An append that failed part-way leaves pages past
    /// `⌈len/O_p⌉`; the next append writes over them.
    pages: u32,
}

impl OidFile {
    /// Creates an empty OID file named `name` on `io`.
    pub fn create(io: Arc<dyn PageIo>, name: &str) -> Self {
        OidFile {
            file: PagedFile::create(io, name),
            len: 0,
            live: 0,
            pages: 0,
        }
    }

    /// Number of entries ever appended (including tombstoned ones) — the
    /// paper's `N` once the database is built.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True if no entry was ever appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of live (non-tombstoned) entries.
    pub fn live_count(&self) -> u64 {
        self.live
    }

    /// Pages occupied — the paper's `SC_OID`.
    pub fn storage_pages(&self) -> Result<u32> {
        Ok(self.file.len()?)
    }

    /// The underlying paged file.
    pub fn file(&self) -> &PagedFile {
        &self.file
    }

    fn page_of(pos: u64) -> u32 {
        (pos / OIDS_PER_PAGE) as u32
    }

    fn offset_of(pos: u64) -> usize {
        (pos % OIDS_PER_PAGE) as usize * OID_ENTRY_BYTES
    }

    /// Pages the filter stage's OID-file look-up (`OidFile::drops_at`) over
    /// this **sorted** position list will read — the paper's `LC_OID`
    /// charge for the look-up step.
    pub fn pages_touched(positions: &[u64]) -> u64 {
        let mut pages = 0;
        let mut last = None;
        for &p in positions {
            let page = Self::page_of(p);
            if last != Some(page) {
                pages += 1;
                last = Some(page);
            }
        }
        pages
    }

    /// The last step of a signature file's filter stage: maps the matching
    /// `positions` (sorted, unique) to their live OIDs, skipping tombstones
    /// — the paper's OID-file look-up. Each touched page is read once, so
    /// its measured cost is `LC_OID` ([`OidFile::pages_touched`], at most
    /// `SC_OID`).
    pub(crate) fn drops_at(&self, positions: &[u64]) -> Result<CandidateSet> {
        debug_assert!(
            positions.windows(2).all(|w| w[0] < w[1]),
            "positions must be sorted+unique"
        );
        if let Some(&pos) = positions.get(positions.partition_point(|&p| p < self.len)) {
            return Err(Error::NoSuchEntry(pos));
        }
        let mut oids = Vec::with_capacity(positions.len());
        for run in positions.chunk_by(|&a, &b| Self::page_of(a) == Self::page_of(b)) {
            let page = self.file.read(Self::page_of(run[0]))?;
            let raws = run.iter().map(|&p| page.read_u64(Self::offset_of(p)));
            oids.extend(raws.filter(|raw| raw & TOMBSTONE_BIT == 0).map(Oid::new));
        }
        Ok(CandidateSet::new(oids, false))
    }

    /// The live count after one more tombstone — [`Error::Corrupted`] if
    /// it was 0, which only a damaged checkpoint's `live` can cause.
    fn one_less_live(&self) -> Result<u64> {
        let short = || Error::Corrupted(format!("{} live of {} entries", self.live, self.len));
        self.live.checked_sub(1).ok_or_else(short)
    }

    /// Finds the live entry holding `oid` by sequential scan and tombstones
    /// it, returning its position.
    ///
    /// Measured cost: the scan reads pages until the entry is found
    /// (expected `SC_OID/2`, the paper's `UC_D`), plus one write for the
    /// flag.
    pub fn delete_by_oid(&mut self, oid: Oid) -> Result<u64> {
        let npages = self.len.div_ceil(OIDS_PER_PAGE) as u32;
        for page_no in 0..npages {
            let mut page = self.file.read(page_no)?;
            let base = page_no as u64 * OIDS_PER_PAGE;
            let slots = (self.len - base).min(OIDS_PER_PAGE) as usize;
            for s in 0..slots {
                let raw = page.read_u64(s * OID_ENTRY_BYTES);
                if raw == oid.raw() {
                    let pos = base + s as u64;
                    let live = self.one_less_live()?;
                    // One write to set the flag; the page is already in
                    // hand so a real system would not re-read it, but we
                    // route through write() to charge exactly one write.
                    page.write_u64(s * OID_ENTRY_BYTES, raw | TOMBSTONE_BIT);
                    self.file.write(page_no, &page)?;
                    self.live = live;
                    return Ok(pos);
                }
            }
        }
        Err(Error::OidNotFound(oid))
    }
}

impl std::fmt::Debug for OidFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "OidFile {{ len: {}, live: {} }}", self.len, self.live)
    }
}

impl OidFile {
    /// Appends many OIDs at once, writing each touched page exactly once
    /// (`⌈n/O_p⌉` page writes for a bulk load), and returns the position of
    /// the first.
    ///
    /// All or nothing: the entries count only once every page is written,
    /// so a failed call appends none of them and the next append starts at
    /// the same position.
    pub fn bulk_append(&mut self, oids: &[Oid]) -> Result<u64> {
        let mut done = 0usize;
        while done < oids.len() {
            let pos = self.len + done as u64;
            let start_slot = (pos % OIDS_PER_PAGE) as usize;
            let take = ((OIDS_PER_PAGE as usize) - start_slot).min(oids.len() - done);
            let chunk = &oids[done..done + take];
            // One mutable borrow per page (see `Page::as_bytes_mut`).
            let fill = |page: &mut Page| {
                let first = start_slot * OID_ENTRY_BYTES;
                let slots = &mut page.as_bytes_mut()[first..first + take * OID_ENTRY_BYTES];
                for (dst, oid) in slots.chunks_exact_mut(OID_ENTRY_BYTES).zip(chunk) {
                    dst.copy_from_slice(&oid.raw().to_le_bytes());
                }
            };
            let page_no = Self::page_of(pos);
            if page_no < self.pages {
                // Blind in-place update of known slots: one write.
                self.file.update(page_no, fill)?;
            } else {
                let mut page = Page::zeroed();
                fill(&mut page);
                let appended = self.file.append(&page)?;
                debug_assert_eq!(appended, page_no);
                self.pages += 1;
            }
            done += take;
        }
        let first_pos = self.len;
        self.len += oids.len() as u64;
        self.live += oids.len() as u64;
        Ok(first_pos)
    }
}

impl OidFile {
    /// Reconstructs an OID file from its backing file and checkpointed
    /// counters (see `SignatureFile::sync_meta` / `open`). Counters the
    /// file cannot hold — more live entries than entries, or entries past
    /// its last page — are [`Error::Corrupted`].
    pub fn reopen(file: PagedFile, len: u64, live: u64) -> Result<Self> {
        let pages = file.len()?;
        if live > len || len > u64::from(pages) * OIDS_PER_PAGE {
            return Err(Error::Corrupted(format!(
                "{live} live of {len} entries in {pages} OID pages"
            )));
        }
        Ok(OidFile {
            file,
            len,
            live,
            pages,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setsig_pagestore::Disk;

    fn oidfile() -> (Arc<Disk>, OidFile) {
        let disk = Arc::new(Disk::new());
        let io: Arc<dyn PageIo> = Arc::clone(&disk) as Arc<dyn PageIo>;
        (disk, OidFile::create(io, "oids"))
    }

    /// The live OID at `pos`, through the filter stage's look-up: `None`
    /// when tombstoned.
    fn live_at(f: &OidFile, pos: u64) -> Option<Oid> {
        f.drops_at(&[pos]).unwrap().oids.first().copied()
    }

    #[test]
    fn append_and_look_up() {
        let (_d, mut f) = oidfile();
        for i in 0..10u64 {
            assert_eq!(f.bulk_append(&[Oid::new(i * 7)]).unwrap(), i);
        }
        assert_eq!(f.len(), 10);
        assert_eq!(f.live_count(), 10);
        assert_eq!(live_at(&f, 3), Some(Oid::new(21)));
        assert!(matches!(f.drops_at(&[10]), Err(Error::NoSuchEntry(10))));
    }

    #[test]
    fn append_costs_one_write() {
        let (disk, mut f) = oidfile();
        // First append creates the page.
        let before = disk.snapshot();
        f.bulk_append(&[Oid::new(1)]).unwrap();
        let d = disk.snapshot().since(before);
        assert_eq!((d.reads, d.writes), (0, 1));
        // Subsequent appends blind-update the tail page.
        let before = disk.snapshot();
        f.bulk_append(&[Oid::new(2)]).unwrap();
        let d = disk.snapshot().since(before);
        assert_eq!((d.reads, d.writes), (0, 1));
    }

    #[test]
    fn page_boundary_allocates_new_page() {
        let (_d, mut f) = oidfile();
        for i in 0..OIDS_PER_PAGE + 1 {
            f.bulk_append(&[Oid::new(i)]).unwrap();
        }
        assert_eq!(f.storage_pages().unwrap(), 2);
        assert_eq!(live_at(&f, OIDS_PER_PAGE), Some(Oid::new(OIDS_PER_PAGE)));
        assert_eq!(
            live_at(&f, OIDS_PER_PAGE - 1),
            Some(Oid::new(OIDS_PER_PAGE - 1))
        );
    }

    #[test]
    fn drops_at_batches_page_reads() {
        let (disk, mut f) = oidfile();
        for i in 0..OIDS_PER_PAGE * 2 {
            f.bulk_append(&[Oid::new(i)]).unwrap();
        }
        disk.reset_stats();
        // Four positions on page 0, one on page 1: exactly 2 page reads.
        let positions = [0, 1, 2, 3, OIDS_PER_PAGE];
        let got = f.drops_at(&positions).unwrap();
        assert_eq!(got.oids, positions.map(Oid::new));
        assert_eq!(disk.snapshot().reads, 2);
        assert_eq!(OidFile::pages_touched(&positions), 2);
        // A position past the last entry is an error, not a page read.
        disk.reset_stats();
        assert!(matches!(
            f.drops_at(&[1, 2 * OIDS_PER_PAGE]),
            Err(Error::NoSuchEntry(p)) if p == 2 * OIDS_PER_PAGE
        ));
        assert_eq!(disk.snapshot().reads, 0);
    }

    #[test]
    fn tombstones_are_skipped() {
        let (_d, mut f) = oidfile();
        for i in 0..5u64 {
            f.bulk_append(&[Oid::new(i)]).unwrap();
        }
        assert_eq!(f.delete_by_oid(Oid::new(2)).unwrap(), 2);
        assert_eq!(f.live_count(), 4);
        assert_eq!(live_at(&f, 2), None);
        let got = f.drops_at(&[1, 2, 3]).unwrap();
        assert_eq!(got.oids, vec![Oid::new(1), Oid::new(3)]);
        assert!(!got.exact);
        // A second delete finds no live entry and changes nothing.
        assert!(matches!(
            f.delete_by_oid(Oid::new(2)),
            Err(Error::OidNotFound(_))
        ));
        assert_eq!(f.live_count(), 4);
    }

    #[test]
    fn delete_by_oid_scans_and_flags() {
        let (disk, mut f) = oidfile();
        for i in 0..OIDS_PER_PAGE + 10 {
            f.bulk_append(&[Oid::new(i)]).unwrap();
        }
        disk.reset_stats();
        // Entry on the second page: scan reads 2 pages, then 1 write.
        let pos = f.delete_by_oid(Oid::new(OIDS_PER_PAGE + 5)).unwrap();
        assert_eq!(pos, OIDS_PER_PAGE + 5);
        let d = disk.snapshot();
        assert_eq!((d.reads, d.writes), (2, 1));
        assert_eq!(live_at(&f, pos), None);
        // Entry on the first page: the scan stops there.
        disk.reset_stats();
        f.delete_by_oid(Oid::new(5)).unwrap();
        let d = disk.snapshot();
        assert_eq!((d.reads, d.writes), (1, 1));
        // Deleting an absent OID reports OidNotFound.
        assert!(matches!(
            f.delete_by_oid(Oid::new(999_999)),
            Err(Error::OidNotFound(_))
        ));
    }

    #[test]
    fn a_failed_bulk_append_appends_nothing_and_is_written_over() {
        let (disk, mut f) = oidfile();
        for i in 0..10u64 {
            f.bulk_append(&[Oid::new(i)]).unwrap();
        }
        // Three pages' worth: the tail page's update and one new page go
        // through, the second new page fails.
        let batch: Vec<Oid> = (100..100 + 2 * OIDS_PER_PAGE).map(Oid::new).collect();
        disk.inject_fault_after(2);
        assert!(f.bulk_append(&batch).is_err());
        disk.clear_fault();
        assert_eq!((f.len(), f.live_count()), (10, 10));
        assert_eq!(f.storage_pages().unwrap(), 2, "the page it left behind");
        // Look-ups stop at the last entry, not at the last page.
        assert!(matches!(f.drops_at(&[10]), Err(Error::NoSuchEntry(10))));
        assert!(matches!(
            f.delete_by_oid(Oid::new(100)),
            Err(Error::OidNotFound(_))
        ));

        // The next appends take the same positions, over what was left.
        assert_eq!(f.bulk_append(&[Oid::new(10)]).unwrap(), 10);
        let more: Vec<Oid> = (11..2 * OIDS_PER_PAGE).map(Oid::new).collect();
        let before = disk.snapshot().writes;
        assert_eq!(f.bulk_append(&more).unwrap(), 11);
        assert_eq!(disk.snapshot().writes - before, 2, "one write per page");
        assert_eq!(f.storage_pages().unwrap(), 2);
        for pos in [9, 10, 11, OIDS_PER_PAGE, 2 * OIDS_PER_PAGE - 1] {
            assert_eq!(live_at(&f, pos), Some(Oid::new(pos)), "position {pos}");
        }
    }
}
