//! Row-bit column files — BSSF slices, FSSF frames — and their one writer.
//!
//! Both organizations index an object by setting its row's bits in a few
//! column files and then appending its OID; the OID-file append is the
//! **commit point**. Rows are append-only and pages start zeroed, so a bit
//! that is `0` is never written — which is only sound while every row at or
//! past the commit point is still all-zero. A call that fails after some of
//! its page writes breaks that: the next acknowledged object lands on the
//! same row and would inherit the stray `1`s (a false negative under `T ⊆ Q`
//! and `T = Q`). [`RowFiles::append`] therefore keeps what a failed call had
//! already written and clears exactly those bits before it writes rows
//! again. Nothing is persisted and the success path pays nothing.

use setsig_pagestore::{FileId, Page, PageIo, PagedFile};
use std::sync::Arc;

use crate::error::Result;

/// One staged bit: `(column file, row page, bit within the page)`. In
/// sorted order the bits of one page are one run — one page write.
pub(crate) type RowBit = (u32, u32, u32);

/// One column file and its materialized length (files touched only where a
/// bit is set have different lengths), so neither scans nor appends ask the
/// I/O layer for it.
pub(crate) struct RowFile {
    pub(crate) file: PagedFile,
    pub(crate) pages: u32,
}

impl RowFile {
    /// Gives the bits of `run` (all on `page_no`) the value `value` with
    /// exactly one write when the page exists; otherwise zero-fills the gap
    /// and appends the page (one write plus any gap pages).
    fn write_bits(&mut self, page_no: u32, run: &[RowBit], value: bool) -> Result<()> {
        let set = |page: &mut Page| {
            for &(_, _, bit) in run {
                page.set_bit(bit as usize, value);
            }
        };
        if page_no < self.pages {
            self.file.update(page_no, set)?;
        } else {
            self.file.extend_to(page_no)?;
            // The gap pages exist from here on, whatever the append does.
            self.pages = page_no;
            let mut page = Page::zeroed();
            set(&mut page);
            let appended = self.file.append(&page)?;
            debug_assert_eq!(appended, page_no);
            self.pages = page_no + 1;
        }
        Ok(())
    }
}

/// Writes `bits` run by run; returns how many bits were written before the
/// first failure (a failed page write changes nothing).
fn write_runs(files: &mut [RowFile], bits: &[RowBit], value: bool) -> (usize, Result<()>) {
    let mut done = 0;
    for run in bits.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
        let (file, page_no, _) = run[0];
        if let Err(e) = files[file as usize].write_bits(page_no, run, value) {
            return (done, Err(e));
        }
        done += run.len();
    }
    (done, Ok(()))
}

/// The column files of one signature file organization.
pub(crate) struct RowFiles {
    files: Vec<RowFile>,
    /// Bits a failed [`append`](Self::append) left set in rows at or past
    /// the commit point, sorted.
    torn: Vec<RowBit>,
}

impl RowFiles {
    /// Creates one empty file per name on `io`.
    pub(crate) fn create(io: &Arc<dyn PageIo>, names: impl Iterator<Item = String>) -> Self {
        let files = names
            .map(|name| RowFile {
                file: PagedFile::create(Arc::clone(io), &name),
                pages: 0,
            })
            .collect();
        RowFiles {
            files,
            torn: Vec::new(),
        }
    }

    /// Reopens existing files, in order.
    pub(crate) fn open(
        io: &Arc<dyn PageIo>,
        ids: impl Iterator<Item = Result<FileId>>,
    ) -> Result<Self> {
        let files = ids
            .map(|id| {
                let file = PagedFile::open(Arc::clone(io), id?);
                let pages = file.len()?;
                Ok(RowFile { file, pages })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(RowFiles {
            files,
            torn: Vec::new(),
        })
    }

    /// The files, in column order.
    pub(crate) fn files(&self) -> &[RowFile] {
        &self.files
    }

    /// Pages on disk, over all files.
    pub(crate) fn storage_pages(&self) -> u64 {
        self.files.iter().map(|f| u64::from(f.pages)).sum()
    }

    /// Makes every file at least `pages` long (zero pages), for an
    /// organization whose scans read every file to the last row.
    pub(crate) fn extend_all(&mut self, pages: u32) -> Result<()> {
        for f in self.files.iter_mut().filter(|f| f.pages < pages) {
            f.file.extend_to(pages)?;
            f.pages = pages;
        }
        Ok(())
    }

    /// Clears the bits a failed [`append`](Self::append) left behind, at one
    /// write per page it had written. The torn list lives in memory only, so
    /// a catalog checkpoint calls this first: an image saved after it holds
    /// no stray bit.
    pub(crate) fn clear_torn(&mut self) -> Result<()> {
        let (cleared, result) = write_runs(&mut self.files, &self.torn, false);
        self.torn.drain(..cleared);
        result
    }

    /// Appends rows: sets the `staged` bits — all in rows at or past the
    /// commit point — with one write per touched page, then runs `commit`
    /// (the OID-file append). On any failure the bits already written are
    /// remembered, and cleared before anything else the next time.
    pub(crate) fn append(
        &mut self,
        mut staged: Vec<RowBit>,
        commit: impl FnOnce() -> Result<()>,
    ) -> Result<()> {
        self.clear_torn()?;
        staged.sort_unstable();
        let (written, result) = write_runs(&mut self.files, &staged, true);
        let result = result.and_then(|()| commit());
        if result.is_err() {
            staged.truncate(written);
            self.torn = staged;
        }
        result
    }
}
