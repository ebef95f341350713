//! A convenience handle binding a [`FileId`] to the [`PageIo`] it lives on,
//! and the per-thread tally of the pages served to this thread.

use std::cell::Cell;
use std::sync::Arc;

use crate::disk::{FileId, PageIo};
use crate::error::{Error, Result};
use crate::page::Page;

thread_local! {
    /// Pages served to this thread (see [`count_read`]).
    static READS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one page served to this thread: by a `Disk` read or a pool hit.
pub(crate) fn count_read() {
    READS.with(|reads| reads.set(reads.get() + 1));
}

/// Runs `f` and returns its result with the pages served to it on this
/// thread — the filter-stage charge of the paper's serial protocol, whether
/// a pool hit or the disk served each. Nested calls count for the outer too.
pub fn count_reads<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = READS.with(Cell::get);
    let out = f();
    (out, READS.with(Cell::get) - before)
}

/// A paged file: a [`FileId`] paired with the [`PageIo`] backing it.
///
/// All storage structures in the workspace (signature files, bit slices, OID
/// files, object stores, B-trees) are built on `PagedFile`s, so the same code
/// runs against the raw accounting [`Disk`](crate::Disk) and against a
/// [`BufferPool`](crate::BufferPool).
#[derive(Clone)]
pub struct PagedFile {
    io: Arc<dyn PageIo>,
    id: FileId,
}

impl PagedFile {
    /// Creates a new file named `name` on `io`.
    pub fn create(io: Arc<dyn PageIo>, name: &str) -> Self {
        let id = io.create_file(name);
        PagedFile { io, id }
    }

    /// Wraps an existing file.
    pub fn open(io: Arc<dyn PageIo>, id: FileId) -> Self {
        PagedFile { io, id }
    }

    /// The underlying file handle.
    pub fn id(&self) -> FileId {
        self.id
    }

    /// The backing I/O layer.
    pub fn io(&self) -> &Arc<dyn PageIo> {
        &self.io
    }

    /// Reads page `n`; the store that serves it counts it in this thread's
    /// tally ([`count_reads`]).
    pub fn read(&self, n: u32) -> Result<Page> {
        self.io.read_page(self.id, n)
    }

    /// Overwrites page `n`.
    pub fn write(&self, n: u32, page: &Page) -> Result<()> {
        self.io.write_page(self.id, n, page)
    }

    /// Reads page `n`, applies `f`, writes it back. Charges one read and one
    /// write — the cost the paper assigns to an in-place page update.
    pub fn modify(&self, n: u32, f: impl FnOnce(&mut Page)) -> Result<()> {
        let mut page = self.read(n)?;
        f(&mut page);
        self.write(n, &page)
    }

    /// Blind in-place update of page `n`: one page write, no read, on a raw
    /// [`Disk`](crate::Disk) backend. Use when the new contents do not
    /// depend on data the caller hasn't already got (e.g. appending a
    /// record at a known offset of the tail page).
    pub fn update(&self, n: u32, mut f: impl FnMut(&mut Page)) -> Result<()> {
        self.io.update_page(self.id, n, &mut f)
    }

    /// Appends `page`, returning its page number.
    pub fn append(&self, page: &Page) -> Result<u32> {
        self.io.append_page(self.id, page)
    }

    /// Length in pages.
    pub fn len(&self) -> Result<u32> {
        self.io.page_count(self.id)
    }

    /// True if the file has no pages.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Extends with zeroed pages to at least `pages` pages.
    pub fn extend_to(&self, pages: u32) -> Result<()> {
        self.io.extend_to(self.id, pages)
    }

    /// Writes `bytes` as a length-prefixed blob starting at page 0,
    /// overwriting previous contents. Used for facility metadata
    /// (catalog checkpoints); costs `⌈(4 + len)/P⌉` page writes.
    pub fn write_blob(&self, bytes: &[u8]) -> Result<()> {
        let total = 4 + bytes.len();
        let npages = total.div_ceil(crate::PAGE_SIZE) as u32;
        self.extend_to(npages)?;
        let mut buf = Vec::with_capacity(total);
        buf.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        buf.extend_from_slice(bytes);
        for (i, chunk) in buf.chunks(crate::PAGE_SIZE).enumerate() {
            let mut page = Page::zeroed();
            page.write_slice(0, chunk);
            self.write(i as u32, &page)?;
        }
        Ok(())
    }

    /// Reads back a blob written by [`write_blob`](Self::write_blob); a
    /// length past the file's end is [`Error::CorruptImage`].
    pub fn read_blob(&self) -> Result<Vec<u8>> {
        let first = self.read(0)?;
        let len = first.read_u32(0) as usize;
        let total = 4 + len;
        let npages = total.div_ceil(crate::PAGE_SIZE);
        if npages > self.len()? as usize {
            return Err(Error::CorruptImage(format!("{len}-byte blob past end")));
        }
        let mut buf = Vec::with_capacity(total);
        buf.extend_from_slice(first.read_slice(0, total.min(crate::PAGE_SIZE)));
        for i in 1..npages as u32 {
            let page = self.read(i)?;
            let take = (total - buf.len()).min(crate::PAGE_SIZE);
            buf.extend_from_slice(page.read_slice(0, take));
        }
        Ok(buf[4..].to_vec())
    }
}

impl std::fmt::Debug for PagedFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PagedFile({:?})", self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::Disk;
    use crate::page::PAGE_SIZE;

    fn file() -> (Arc<Disk>, PagedFile) {
        let disk = Arc::new(Disk::new());
        let io: Arc<dyn PageIo> = Arc::clone(&disk) as Arc<dyn PageIo>;
        let f = PagedFile::create(io, "t");
        (disk, f)
    }

    #[test]
    fn append_read_write() {
        let (_disk, f) = file();
        assert!(f.is_empty().unwrap());
        let mut p = Page::zeroed();
        p.write_u16(0, 5);
        assert_eq!(f.append(&p).unwrap(), 0);
        assert_eq!(f.len().unwrap(), 1);
        assert_eq!(f.read(0).unwrap().read_u16(0), 5);
        p.write_u16(0, 6);
        f.write(0, &p).unwrap();
        assert_eq!(f.read(0).unwrap().read_u16(0), 6);
    }

    #[test]
    fn modify_charges_read_plus_write() {
        let (disk, f) = file();
        f.append(&Page::zeroed()).unwrap();
        let before = disk.snapshot();
        f.modify(0, |p| p.write_u8(0, 9)).unwrap();
        let d = disk.snapshot().since(before);
        assert_eq!((d.reads, d.writes), (1, 1));
        assert_eq!(f.read(0).unwrap().read_u8(0), 9);
    }

    #[test]
    fn blob_roundtrip_small_and_multipage() {
        let (_disk, f) = file();
        for len in [0usize, 1, 100, PAGE_SIZE - 4, PAGE_SIZE, 3 * PAGE_SIZE + 17] {
            let blob: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            f.write_blob(&blob).unwrap();
            assert_eq!(f.read_blob().unwrap(), blob, "len {len}");
        }
    }

    #[test]
    fn blob_overwrite_shrinks_logical_content() {
        let (_disk, f) = file();
        f.write_blob(&vec![9u8; 2 * PAGE_SIZE]).unwrap();
        f.write_blob(b"tiny").unwrap();
        assert_eq!(f.read_blob().unwrap(), b"tiny");
    }

    #[test]
    fn the_tally_counts_this_threads_reads_and_only_reads() {
        let (disk, f) = file();
        f.append(&Page::zeroed()).unwrap();
        let ((), outer) = count_reads(|| {
            f.read(0).unwrap();
            let ((), inner) = count_reads(|| {
                f.read(0).unwrap();
                f.read(0).unwrap();
            });
            assert_eq!(inner, 2);
            // Another thread's reads are its own.
            let g = f.clone();
            std::thread::spawn(move || assert_eq!(count_reads(|| g.read(0).unwrap()).1, 1))
                .join()
                .unwrap();
        });
        assert_eq!(outer, 3, "the nested call's reads are the outer call's too");
        // The disk counts what it serves, so a read that skips `PagedFile`
        // is charged all the same.
        let (_, raw) = count_reads(|| disk.read_page(f.id(), 0).unwrap());
        assert_eq!(raw, 1, "a raw Disk::read_page is counted");
        let ((), none) = count_reads(|| {
            f.write(0, &Page::zeroed()).unwrap();
            f.append(&Page::zeroed()).unwrap();
            f.update(1, |p| p.write_u8(0, 1)).unwrap();
            f.len().unwrap();
            disk.write_page(f.id(), 0, &Page::zeroed()).unwrap();
            disk.append_page(f.id(), &Page::zeroed()).unwrap();
            disk.update_page(f.id(), 2, |p| p.write_u8(0, 2)).unwrap();
        });
        assert_eq!(none, 0, "write, append, update and len read nothing");
        let (out_of_bounds, failed) = count_reads(|| disk.read_page(f.id(), 9));
        assert!(out_of_bounds.is_err());
        assert_eq!(failed, 0, "a read that fails serves no page");
    }

    #[test]
    fn a_pool_hit_counts_like_a_miss() {
        let disk = Arc::new(Disk::new());
        let pool = Arc::new(crate::BufferPool::new(Arc::clone(&disk), 4));
        let f = PagedFile::create(pool.clone(), "t");
        f.append(&Page::zeroed()).unwrap();
        f.append(&Page::zeroed()).unwrap();
        pool.clear();
        let (_, miss) = count_reads(|| f.read(0).unwrap());
        let (_, hit) = count_reads(|| f.read(0).unwrap());
        assert_eq!((miss, hit), (1, 1));
        assert_eq!((pool.stats().misses, pool.stats().hits), (1, 1));
        // A raw pool read: a miss is counted once, by the disk it goes to,
        // not once more by the pool; a hit is counted by the pool.
        let (_, miss) = count_reads(|| pool.read_page(f.id(), 1).unwrap());
        let (_, hit) = count_reads(|| pool.read_page(f.id(), 1).unwrap());
        assert_eq!((miss, hit), (1, 1));
        assert_eq!((pool.stats().misses, pool.stats().hits), (2, 2));
        let ((), none) = count_reads(|| {
            pool.write_page(f.id(), 0, &Page::zeroed()).unwrap();
            pool.append_page(f.id(), &Page::zeroed()).unwrap();
        });
        assert_eq!(none, 0, "a pool write and append read nothing");
    }

    #[test]
    fn a_blob_longer_than_its_file_is_a_corrupt_image() {
        let (_disk, f) = file();
        f.write_blob(&[7u8; PAGE_SIZE]).unwrap();
        assert_eq!(f.len().unwrap(), 2);
        for len in [PAGE_SIZE as u32 * 2, u32::MAX] {
            let mut first = f.read(0).unwrap();
            first.write_u32(0, len);
            f.write(0, &first).unwrap();
            assert!(
                matches!(f.read_blob(), Err(Error::CorruptImage(_))),
                "length {len}"
            );
        }
    }

    #[test]
    fn open_shares_contents() {
        let (disk, f) = file();
        f.append(&Page::zeroed()).unwrap();
        let io: Arc<dyn PageIo> = disk as Arc<dyn PageIo>;
        let g = PagedFile::open(io, f.id());
        assert_eq!(g.len().unwrap(), 1);
    }
}
