//! The simulated disk: named paged files plus access accounting.

use parking_lot::Mutex;

use crate::cache::CacheStats;
use crate::error::{Error, Result};
use crate::page::Page;
use crate::stats::{FileStats, IoSnapshot};

/// Identifies a file on a [`Disk`]. Handles are never reused, so a stale
/// handle to a deleted file fails cleanly instead of aliasing a new file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub(crate) u32);

impl FileId {
    /// The raw index backing this handle (stable for the disk's lifetime).
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Reconstructs a handle from a raw index — for catalogs that persist
    /// file bindings across a [`Disk::save_to`]/[`Disk::load_from`] cycle
    /// (slots are preserved by the image format).
    pub fn from_raw(raw: u32) -> Self {
        FileId(raw)
    }
}

/// Metadata about one file, as returned by [`Disk::file_info`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileInfo {
    /// Handle of the file.
    pub id: FileId,
    /// Name given at creation.
    pub name: String,
    /// Length in pages.
    pub pages: u32,
    /// Cumulative access counters.
    pub stats: FileStats,
}

struct FileData {
    name: String,
    pages: Vec<Page>,
    stats: FileStats,
}

struct DiskInner {
    /// `None` marks a deleted file; slots are never reused.
    files: Vec<Option<FileData>>,
    total: IoSnapshot,
    /// Fault injection: `Some(n)` fails every page access after `n` more
    /// successful ones.
    fail_after: Option<u64>,
}

/// An in-memory simulated disk.
///
/// A `Disk` holds a set of named paged files and counts every page read and
/// write, globally and per file. It is the single shared resource of the
/// reproduction: signature files, bit slices, OID files, object stores and
/// B-tree indexes all allocate their files here, so an experiment can bracket
/// any operation with [`Disk::snapshot`] and read off its exact page-access
/// cost.
///
/// `Disk` is internally synchronized; share it as `Arc<Disk>`.
pub struct Disk {
    // This is the LEAF lock of the whole system: no method calls out of
    // the crate (or into BufferPool) while holding it, so it can be taken
    // from under any other lock without deadlock risk.
    inner: Mutex<DiskInner>,
}

impl Disk {
    /// Creates an empty disk.
    pub fn new() -> Self {
        Disk {
            inner: Mutex::new(DiskInner {
                files: Vec::new(),
                total: IoSnapshot::default(),
                fail_after: None,
            }),
        }
    }

    /// Creates a new empty file and returns its handle.
    pub fn create_file(&self, name: &str) -> FileId {
        let mut g = self.inner.lock();
        let id = FileId(g.files.len() as u32);
        g.files.push(Some(FileData {
            name: name.to_owned(),
            pages: Vec::new(),
            stats: FileStats::default(),
        }));
        id
    }

    /// Deletes a file, freeing its pages. Subsequent access through the
    /// handle yields [`Error::FileNotFound`].
    pub fn delete_file(&self, id: FileId) -> Result<()> {
        let mut g = self.inner.lock();
        let slot = g
            .files
            .get_mut(id.0 as usize)
            .ok_or(Error::FileNotFound(id))?;
        if slot.is_none() {
            return Err(Error::FileNotFound(id));
        }
        *slot = None;
        Ok(())
    }

    /// Runs `f` on a live file as one **page access**: spends fault budget.
    fn with_file<R>(
        &self,
        id: FileId,
        f: impl FnOnce(&mut FileData, &mut IoSnapshot) -> Result<R>,
    ) -> Result<R> {
        let mut g = self.inner.lock();
        let inner = &mut *g;
        if let Some(remaining) = &mut inner.fail_after {
            if *remaining == 0 {
                return Err(Error::Io("injected fault".into()));
            }
            *remaining -= 1;
        }
        let data = inner
            .files
            .get_mut(id.0 as usize)
            .and_then(|s| s.as_mut())
            .ok_or(Error::FileNotFound(id))?;
        f(data, &mut inner.total)
    }

    /// Reads a live file's catalog metadata: not a page access, so injected
    /// faults neither fail it nor count it.
    fn with_meta<R>(&self, id: FileId, f: impl FnOnce(&FileData) -> R) -> Result<R> {
        let g = self.inner.lock();
        let data = g.files.get(id.0 as usize).and_then(|s| s.as_ref());
        data.map(f).ok_or(Error::FileNotFound(id))
    }

    /// Fault injection for failure testing: after `ops` more page
    /// accesses, every subsequent access fails with an I/O error until
    /// [`Disk::clear_fault`] is called. Metadata operations (page counts,
    /// file listing) are unaffected.
    pub fn inject_fault_after(&self, ops: u64) {
        self.inner.lock().fail_after = Some(ops);
    }

    /// Removes an injected fault.
    pub fn clear_fault(&self) {
        self.inner.lock().fail_after = None;
    }

    /// Reads page `n` of `id`, charging one page read, here and in this
    /// thread's [`count_reads`](crate::count_reads). The returned [`Page`] shares the
    /// stored buffer (a refcount bump, no copy); later writes never change it.
    pub fn read_page(&self, id: FileId, n: u32) -> Result<Page> {
        self.with_file(id, |data, total| {
            let len = data.pages.len() as u32;
            let page = data.pages.get(n as usize).ok_or(Error::PageOutOfBounds {
                file: id,
                page: n,
                len,
            })?;
            data.stats.reads += 1;
            total.reads += 1;
            crate::file::count_read();
            Ok(page.clone())
        })
    }

    /// Overwrites page `n` of `id`, charging one page write.
    pub fn write_page(&self, id: FileId, n: u32, page: &Page) -> Result<()> {
        self.update_page(id, n, |p| *p = page.clone())
    }

    /// Mutates page `n` of `id` in place, charging one page write.
    ///
    /// The paper's read-modify-write sequences (e.g. tombstoning an OID
    /// entry) are `read_page` + `write_page`, one read and one write; a
    /// single `update_page` serves when the new contents do not depend on
    /// the old (e.g. setting a BSSF slice bit). A snapshot a reader still
    /// holds is untouched: `f`'s first write then takes a private copy.
    pub fn update_page(&self, id: FileId, n: u32, f: impl FnOnce(&mut Page)) -> Result<()> {
        self.with_file(id, |data, total| {
            let len = data.pages.len() as u32;
            let page = data
                .pages
                .get_mut(n as usize)
                .ok_or(Error::PageOutOfBounds {
                    file: id,
                    page: n,
                    len,
                })?;
            data.stats.writes += 1;
            total.writes += 1;
            f(page);
            Ok(())
        })
    }

    /// Appends a page to `id`, charging one page write; returns the new
    /// page's number.
    pub fn append_page(&self, id: FileId, page: &Page) -> Result<u32> {
        self.with_file(id, |data, total| {
            let n = data.pages.len() as u32;
            data.pages.push(page.clone());
            data.stats.writes += 1;
            total.writes += 1;
            Ok(n)
        })
    }

    /// Extends `id` with zeroed pages until it is at least `pages` long,
    /// charging one write per page actually added.
    pub fn extend_to(&self, id: FileId, pages: u32) -> Result<()> {
        self.with_file(id, |data, total| {
            while (data.pages.len() as u32) < pages {
                data.pages.push(Page::zeroed());
                data.stats.writes += 1;
                total.writes += 1;
            }
            Ok(())
        })
    }

    /// Length of `id` in pages. Free: catalog metadata, not a page access.
    pub fn page_count(&self, id: FileId) -> Result<u32> {
        self.with_meta(id, |data| data.pages.len() as u32)
    }

    /// Disk-wide cumulative counters.
    pub fn snapshot(&self) -> IoSnapshot {
        self.inner.lock().total
    }

    /// Cumulative counters for one file.
    pub fn file_stats(&self, id: FileId) -> Result<FileStats> {
        self.with_meta(id, |data| data.stats)
    }

    /// Metadata for one file.
    pub fn file_info(&self, id: FileId) -> Result<FileInfo> {
        self.with_meta(id, |data| FileInfo {
            id,
            name: data.name.clone(),
            pages: data.pages.len() as u32,
            stats: data.stats,
        })
    }

    /// Metadata for every live file, in creation order.
    pub fn list_files(&self) -> Vec<FileInfo> {
        let g = self.inner.lock();
        g.files
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                slot.as_ref().map(|data| FileInfo {
                    id: FileId(i as u32),
                    name: data.name.clone(),
                    pages: data.pages.len() as u32,
                    stats: data.stats,
                })
            })
            .collect()
    }

    /// Resets all counters (global and per-file) to zero. File contents are
    /// untouched. Used to separate build cost from query cost in experiments.
    pub fn reset_stats(&self) {
        let mut g = self.inner.lock();
        g.total = IoSnapshot::default();
        for slot in g.files.iter_mut().flatten() {
            slot.stats = FileStats::default();
        }
    }

    /// Total pages currently allocated across all live files — the
    /// measured counterpart of the paper's storage cost `SC`.
    pub fn total_pages(&self) -> u64 {
        let g = self.inner.lock();
        g.files.iter().flatten().map(|d| d.pages.len() as u64).sum()
    }

    pub(crate) fn dump_files(&self) -> Vec<(u32, String, Vec<Page>)> {
        let g = self.inner.lock();
        g.files
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                slot.as_ref()
                    .map(|d| (i as u32, d.name.clone(), d.pages.clone()))
            })
            .collect()
    }

    pub(crate) fn restore_files(&self, files: Vec<(u32, String, Vec<Page>)>) {
        let mut g = self.inner.lock();
        g.files.clear();
        g.total = IoSnapshot::default();
        for (idx, name, pages) in files {
            while g.files.len() < idx as usize {
                g.files.push(None);
            }
            g.files.push(Some(FileData {
                name,
                pages,
                stats: FileStats::default(),
            }));
        }
    }
}

impl Default for Disk {
    fn default() -> Self {
        Disk::new()
    }
}

impl std::fmt::Debug for Disk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.inner.lock();
        let live = g.files.iter().flatten().count();
        write!(
            f,
            "Disk {{ files: {live}, reads: {}, writes: {} }}",
            g.total.reads, g.total.writes
        )
    }
}

/// Object-safe page I/O, implemented by [`Disk`] (uncached, the paper's
/// model) and [`BufferPool`](crate::BufferPool) (cached, for ablations).
///
/// Access facilities hold an `Arc<dyn PageIo>` so experiments can swap the
/// caching policy without touching the data structures.
pub trait PageIo: Send + Sync {
    /// Reads page `n` of `id`.
    fn read_page(&self, id: FileId, n: u32) -> Result<Page>;
    /// Overwrites page `n` of `id`.
    fn write_page(&self, id: FileId, n: u32, page: &Page) -> Result<()>;
    /// Mutates page `n` of `id` in place.
    ///
    /// On a raw [`Disk`] this is a *blind write*: one page write, no read —
    /// the cost the paper assigns to appending a record into a known tail
    /// page. Cached backends may charge a read on a cache miss.
    fn update_page(&self, id: FileId, n: u32, f: &mut dyn FnMut(&mut Page)) -> Result<()>;
    /// Appends a page to `id`, returning its page number.
    fn append_page(&self, id: FileId, page: &Page) -> Result<u32>;
    /// Length of `id` in pages.
    fn page_count(&self, id: FileId) -> Result<u32>;
    /// Creates a new file.
    fn create_file(&self, name: &str) -> FileId;
    /// Extends `id` with zeroed pages to at least `pages` pages.
    fn extend_to(&self, id: FileId, pages: u32) -> Result<()>;
    /// Disk-wide cumulative counters (post-cache where applicable).
    fn snapshot(&self) -> IoSnapshot;
    /// Hit/miss counters of the cache this handle reads through; `None`
    /// (the default) for uncached backends.
    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }
}

impl PageIo for Disk {
    fn read_page(&self, id: FileId, n: u32) -> Result<Page> {
        Disk::read_page(self, id, n)
    }
    fn write_page(&self, id: FileId, n: u32, page: &Page) -> Result<()> {
        Disk::write_page(self, id, n, page)
    }
    fn update_page(&self, id: FileId, n: u32, f: &mut dyn FnMut(&mut Page)) -> Result<()> {
        Disk::update_page(self, id, n, |p| f(p))
    }
    fn append_page(&self, id: FileId, page: &Page) -> Result<u32> {
        Disk::append_page(self, id, page)
    }
    fn page_count(&self, id: FileId) -> Result<u32> {
        Disk::page_count(self, id)
    }
    fn create_file(&self, name: &str) -> FileId {
        Disk::create_file(self, name)
    }
    fn extend_to(&self, id: FileId, pages: u32) -> Result<()> {
        Disk::extend_to(self, id, pages)
    }
    fn snapshot(&self) -> IoSnapshot {
        Disk::snapshot(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn create_and_roundtrip() {
        let disk = Disk::new();
        let f = disk.create_file("t");
        let mut p = Page::zeroed();
        p.write_u32(0, 42);
        let n = disk.append_page(f, &p).unwrap();
        assert_eq!(n, 0);
        assert_eq!(disk.read_page(f, 0).unwrap().read_u32(0), 42);
        assert_eq!(disk.page_count(f).unwrap(), 1);
    }

    #[test]
    fn counters_track_every_access() {
        let disk = Disk::new();
        let f = disk.create_file("t");
        disk.append_page(f, &Page::zeroed()).unwrap(); // 1 write
        disk.append_page(f, &Page::zeroed()).unwrap(); // 1 write
        disk.read_page(f, 0).unwrap(); // 1 read
        disk.read_page(f, 1).unwrap(); // 1 read
        disk.update_page(f, 0, |p| p.write_u8(0, 1)).unwrap(); // 1 write
        let s = disk.snapshot();
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 3);
        let fs = disk.file_stats(f).unwrap();
        assert_eq!(fs.reads, 2);
        assert_eq!(fs.writes, 3);
    }

    #[test]
    fn out_of_bounds_read() {
        let disk = Disk::new();
        let f = disk.create_file("t");
        assert_eq!(
            disk.read_page(f, 0),
            Err(Error::PageOutOfBounds {
                file: f,
                page: 0,
                len: 0
            })
        );
    }

    #[test]
    fn deleted_file_rejects_access() {
        let disk = Disk::new();
        let f = disk.create_file("t");
        disk.append_page(f, &Page::zeroed()).unwrap();
        disk.delete_file(f).unwrap();
        assert_eq!(disk.read_page(f, 0), Err(Error::FileNotFound(f)));
        assert_eq!(disk.delete_file(f), Err(Error::FileNotFound(f)));
    }

    #[test]
    fn file_ids_are_not_reused() {
        let disk = Disk::new();
        let a = disk.create_file("a");
        disk.delete_file(a).unwrap();
        let b = disk.create_file("b");
        assert_ne!(a, b);
        assert!(disk.read_page(a, 0).is_err());
        assert_eq!(disk.file_info(b).unwrap().name, "b");
    }

    #[test]
    fn extend_to_charges_per_added_page() {
        let disk = Disk::new();
        let f = disk.create_file("t");
        disk.extend_to(f, 5).unwrap();
        assert_eq!(disk.page_count(f).unwrap(), 5);
        assert_eq!(disk.snapshot().writes, 5);
        // Already long enough: no-op, no charge.
        disk.extend_to(f, 3).unwrap();
        assert_eq!(disk.snapshot().writes, 5);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let disk = Disk::new();
        let f = disk.create_file("t");
        let mut p = Page::zeroed();
        p.write_u8(0, 7);
        disk.append_page(f, &p).unwrap();
        disk.reset_stats();
        assert_eq!(disk.snapshot(), IoSnapshot::default());
        assert_eq!(disk.read_page(f, 0).unwrap().read_u8(0), 7);
    }

    #[test]
    fn total_pages_sums_live_files() {
        let disk = Disk::new();
        let a = disk.create_file("a");
        let b = disk.create_file("b");
        disk.extend_to(a, 3).unwrap();
        disk.extend_to(b, 4).unwrap();
        assert_eq!(disk.total_pages(), 7);
        disk.delete_file(a).unwrap();
        assert_eq!(disk.total_pages(), 4);
    }

    #[test]
    fn list_files_in_creation_order() {
        let disk = Disk::new();
        let _a = disk.create_file("first");
        let _b = disk.create_file("second");
        let names: Vec<_> = disk.list_files().into_iter().map(|i| i.name).collect();
        assert_eq!(names, vec!["first", "second"]);
    }

    #[test]
    fn metadata_calls_spend_no_fault_budget() {
        let disk = Disk::new();
        let f = disk.create_file("t");
        disk.extend_to(f, 2).unwrap();
        disk.inject_fault_after(1);
        // Any number of metadata calls leaves the one remaining access...
        for _ in 0..3 {
            assert_eq!(disk.page_count(f).unwrap(), 2);
            assert_eq!(disk.file_stats(f).unwrap().writes, 2);
            assert_eq!(disk.file_info(f).unwrap().pages, 2);
            assert_eq!(disk.list_files().len(), 1);
        }
        disk.read_page(f, 0).unwrap();
        // ...and keeps answering once page accesses fail.
        assert!(disk.read_page(f, 1).is_err());
        assert_eq!(disk.page_count(f).unwrap(), 2);
        assert_eq!(disk.file_info(f).unwrap().name, "t");
        disk.clear_fault();
        disk.read_page(f, 1).unwrap();
    }

    #[test]
    fn shared_across_threads() {
        // The read counter is the sum of every thread's reads, under
        // contention for the disk's lock.
        const THREADS: u64 = 8;
        const READS_EACH: u64 = 500;
        let disk = Arc::new(Disk::new());
        let f = disk.create_file("t");
        disk.extend_to(f, 4).unwrap();
        disk.reset_stats();
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let d = Arc::clone(&disk);
                std::thread::spawn(move || {
                    for i in 0..READS_EACH {
                        let _ = d.read_page(f, (i % 4) as u32).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(disk.snapshot().reads, THREADS * READS_EACH);
    }
}
