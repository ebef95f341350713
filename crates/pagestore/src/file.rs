//! A convenience handle binding a [`FileId`] to the [`PageIo`] it lives on.

use std::sync::Arc;

use crate::disk::{FileId, PageIo};
use crate::error::Result;
use crate::page::Page;

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

    /// Reads page `n`.
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

    /// Reads back a blob written by [`write_blob`](Self::write_blob).
    pub fn read_blob(&self) -> Result<Vec<u8>> {
        let first = self.read(0)?;
        let len = first.read_u32(0) as usize;
        let total = 4 + len;
        let mut buf = Vec::with_capacity(total);
        buf.extend_from_slice(first.read_slice(0, total.min(crate::PAGE_SIZE)));
        let npages = total.div_ceil(crate::PAGE_SIZE) as u32;
        for i in 1..npages {
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
    fn open_shares_contents() {
        let (disk, f) = file();
        f.append(&Page::zeroed()).unwrap();
        let io: Arc<dyn PageIo> = disk as Arc<dyn PageIo>;
        let g = PagedFile::open(io, f.id());
        assert_eq!(g.len().unwrap(), 1);
    }
}
