//! The simulated disk: named paged files plus access accounting.

use std::ops::Range;

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
    /// Indexed by [`FileId`]: files are never removed.
    files: Vec<FileData>,
    total: IoSnapshot,
    /// Fault injection: `Some(n)` fails every page access after `n` more
    /// successful ones.
    fail_after: Option<u64>,
}

impl DiskInner {
    /// Spends one page access of fault budget.
    fn spend(&mut self) -> Result<()> {
        if let Some(remaining) = &mut self.fail_after {
            if *remaining == 0 {
                return Err(Error::Io("injected fault".into()));
            }
            *remaining -= 1;
        }
        Ok(())
    }

    /// Reads page `n` of `id` as one page access, charging it in the file's
    /// and the disk's `reads` and this thread's
    /// [`count_reads`](crate::count_reads): the one place a page read is
    /// charged.
    fn read(&mut self, id: FileId, n: u32) -> Result<&Page> {
        self.spend()?;
        let data = (self.files.get_mut(id.0 as usize)).ok_or(Error::FileNotFound(id))?;
        let len = data.pages.len() as u32;
        let page = data.pages.get(n as usize).ok_or(Error::PageOutOfBounds {
            file: id,
            page: n,
            len,
        })?;
        data.stats.reads += 1;
        self.total.reads += 1;
        crate::file::count_read();
        Ok(page)
    }
}

/// Pages a [`Disk::read_run`] reads under one hold of the lock: long
/// enough that a sequential scan pays for the lock once every 64 pages, short
/// enough that a writer waits for at most 64 pages' visits.
const RUN_PAGES: u32 = 64;

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
    // from under any other lock without deadlock risk. The one exception is
    // `read_run`'s visitor, which must not call back into any `PageIo`.
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
        g.files.push(FileData {
            name: name.to_owned(),
            pages: Vec::new(),
            stats: FileStats::default(),
        });
        id
    }

    /// Runs `f` on a file as one **page access**: spends fault budget.
    fn with_file<R>(
        &self,
        id: FileId,
        f: impl FnOnce(&mut FileData, &mut IoSnapshot) -> Result<R>,
    ) -> Result<R> {
        let mut g = self.inner.lock();
        let inner = &mut *g;
        inner.spend()?;
        let data = inner
            .files
            .get_mut(id.0 as usize)
            .ok_or(Error::FileNotFound(id))?;
        f(data, &mut inner.total)
    }

    /// Reads a file's catalog metadata: not a page access, so injected
    /// faults neither fail it nor count it.
    fn with_meta<R>(&self, id: FileId, f: impl FnOnce(&FileData) -> R) -> Result<R> {
        let g = self.inner.lock();
        let data = g.files.get(id.0 as usize);
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
        self.inner.lock().read(id, n).cloned()
    }

    /// Reads `pages` of `id` in order and calls `visit(n, page)` on each,
    /// charging each page exactly as [`Disk::read_page`] does. The lock is
    /// taken once per run of up to 64 pages and `visit` runs under it, on
    /// the stored page itself, so no page is cloned. `visit` must therefore
    /// not call back into this disk: the lock is not reentrant.
    ///
    /// A failed access (an injected fault, a page past the end) stops the
    /// run there: the pages before it have been visited and charged.
    pub fn read_run(
        &self,
        id: FileId,
        pages: Range<u32>,
        mut visit: impl FnMut(u32, &Page),
    ) -> Result<()> {
        for start in pages.clone().step_by(RUN_PAGES as usize) {
            let mut g = self.inner.lock();
            for n in start..pages.end.min(start.saturating_add(RUN_PAGES)) {
                visit(n, g.read(id, n)?);
            }
        }
        Ok(())
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

    /// Metadata for every file, in creation order.
    pub fn list_files(&self) -> Vec<FileInfo> {
        let g = self.inner.lock();
        g.files
            .iter()
            .enumerate()
            .map(|(i, data)| FileInfo {
                id: FileId(i as u32),
                name: data.name.clone(),
                pages: data.pages.len() as u32,
                stats: data.stats,
            })
            .collect()
    }

    /// Resets all counters (global and per-file) to zero. File contents are
    /// untouched. Used to separate build cost from query cost in experiments.
    pub fn reset_stats(&self) {
        let mut g = self.inner.lock();
        g.total = IoSnapshot::default();
        for data in &mut g.files {
            data.stats = FileStats::default();
        }
    }

    /// Total pages currently allocated across all files — the measured
    /// counterpart of the paper's storage cost `SC`.
    pub fn total_pages(&self) -> u64 {
        let g = self.inner.lock();
        g.files.iter().map(|d| d.pages.len() as u64).sum()
    }

    /// Every file's name and pages, in [`FileId`] order.
    pub(crate) fn dump_files(&self) -> Vec<(String, Vec<Page>)> {
        let g = self.inner.lock();
        g.files
            .iter()
            .map(|d| (d.name.clone(), d.pages.clone()))
            .collect()
    }

    /// Replaces the file table: file `i` of `files` gets [`FileId`] `i`.
    pub(crate) fn restore_files(&self, files: Vec<(String, Vec<Page>)>) {
        let mut g = self.inner.lock();
        g.total = IoSnapshot::default();
        g.files = files
            .into_iter()
            .map(|(name, pages)| FileData {
                name,
                pages,
                stats: FileStats::default(),
            })
            .collect();
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
        let files = g.files.len();
        write!(
            f,
            "Disk {{ files: {files}, reads: {}, writes: {} }}",
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
    /// Reads `pages` of `id` in order, calling `visit(n, page)` on each,
    /// and stops at the first failed read: the pages before it have been
    /// visited. Each page is charged as one [`read_page`](Self::read_page).
    ///
    /// `visit` must not call back into this `PageIo`: an implementation may
    /// run it under its own lock ([`Disk`] does, once per 64 pages).
    ///
    /// The default reads a page at a time through `read_page`.
    fn read_run(
        &self,
        id: FileId,
        pages: Range<u32>,
        visit: &mut dyn FnMut(u32, &Page),
    ) -> Result<()> {
        for n in pages {
            visit(n, &self.read_page(id, n)?);
        }
        Ok(())
    }
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
    fn read_run(
        &self,
        id: FileId,
        pages: Range<u32>,
        visit: &mut dyn FnMut(u32, &Page),
    ) -> Result<()> {
        Disk::read_run(self, id, pages, visit)
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
    fn an_unknown_file_is_not_found() {
        let disk = Disk::new();
        disk.create_file("t");
        let f = FileId::from_raw(1);
        assert_eq!(disk.read_page(f, 0), Err(Error::FileNotFound(f)));
        assert_eq!(disk.page_count(f), Err(Error::FileNotFound(f)));
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
    fn total_pages_sums_every_file() {
        let disk = Disk::new();
        let a = disk.create_file("a");
        let b = disk.create_file("b");
        disk.extend_to(a, 3).unwrap();
        disk.extend_to(b, 4).unwrap();
        assert_eq!(disk.total_pages(), 7);
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

    /// A disk with one file of `len` pages, page `n` holding `n` in its
    /// first word, its counters reset.
    fn numbered(len: u32) -> (Disk, FileId) {
        let disk = Disk::new();
        let f = disk.create_file("t");
        for n in 0..len {
            let mut p = Page::zeroed();
            p.write_u32(0, n);
            disk.append_page(f, &p).unwrap();
        }
        disk.reset_stats();
        (disk, f)
    }

    /// One way to read a page range: a run or the `read_page` loop.
    type Read = fn(&Disk, FileId, Range<u32>, &mut dyn FnMut(u32, &Page)) -> Result<()>;

    fn run(
        disk: &Disk,
        f: FileId,
        pages: Range<u32>,
        visit: &mut dyn FnMut(u32, &Page),
    ) -> Result<()> {
        disk.read_run(f, pages, visit)
    }

    fn page_loop(
        disk: &Disk,
        f: FileId,
        pages: Range<u32>,
        visit: &mut dyn FnMut(u32, &Page),
    ) -> Result<()> {
        for n in pages {
            visit(n, &disk.read_page(f, n)?);
        }
        Ok(())
    }

    /// What reading `pages` of a `len`-page file shows, a fault injected
    /// after `fault` accesses: the pages visited (number, first word), the
    /// outcome, the file's and the disk's counters and this thread's tally.
    fn seen(
        read: Read,
        len: u32,
        pages: Range<u32>,
        fault: Option<u64>,
    ) -> (Vec<(u32, u32)>, Result<()>, FileStats, IoSnapshot, u64) {
        let (disk, f) = numbered(len);
        if let Some(k) = fault {
            disk.inject_fault_after(k);
        }
        let mut visited = Vec::new();
        let (outcome, tally) = crate::count_reads(|| {
            read(&disk, f, pages, &mut |n, p| {
                visited.push((n, p.read_u32(0)));
            })
        });
        disk.clear_fault();
        (
            visited,
            outcome,
            disk.file_stats(f).unwrap(),
            disk.snapshot(),
            tally,
        )
    }

    #[test]
    fn a_run_charges_what_the_page_loop_charges() {
        for (start, len) in [(0, 1), (0, 63), (0, 64), (0, 65), (0, 130), (5, 130)] {
            let pages = start..start + len;
            let by_run = seen(run, 140, pages.clone(), None);
            assert_eq!(
                by_run,
                seen(page_loop, 140, pages.clone(), None),
                "{pages:?}"
            );
            let (visited, outcome, stats, total, tally) = by_run;
            let want: Vec<(u32, u32)> = pages.map(|n| (n, n)).collect();
            assert_eq!(visited, want);
            assert_eq!(outcome, Ok(()));
            assert_eq!((stats.reads, stats.writes), (u64::from(len), 0));
            assert_eq!((total.reads, total.writes), (u64::from(len), 0));
            assert_eq!(tally, u64::from(len));
        }
    }

    #[test]
    fn a_faulted_run_visits_the_pages_before_the_fault() {
        for k in [0, 1, 63, 64, 65, 129] {
            let by_run = seen(run, 130, 0..130, Some(k));
            assert_eq!(
                by_run,
                seen(page_loop, 130, 0..130, Some(k)),
                "fault after {k}"
            );
            let (visited, outcome, stats, _, tally) = by_run;
            assert_eq!(visited.len() as u64, k);
            assert_eq!(outcome, Err(Error::Io("injected fault".into())));
            assert_eq!((stats.reads, tally), (k, k));
        }
    }

    #[test]
    fn a_run_past_the_end_visits_the_pages_before_it() {
        for pages in [0..100, 60..70, 64..66, 70..71] {
            let by_run = seen(run, 70, pages.clone(), None);
            assert_eq!(
                by_run,
                seen(page_loop, 70, pages.clone(), None),
                "{pages:?}"
            );
            let (visited, outcome, ..) = by_run;
            let before_the_end = pages.start..pages.end.min(70);
            assert_eq!(visited.len(), before_the_end.len(), "{pages:?}");
            let want = (pages.end > 70).then_some(Error::PageOutOfBounds {
                file: FileId(0),
                page: 70,
                len: 70,
            });
            assert_eq!(outcome.err(), want, "{pages:?}");
        }
        let (disk, _) = numbered(3);
        let ghost = FileId::from_raw(1);
        let mut visits = 0;
        let outcome = disk.read_run(ghost, 0..3, |_, _| visits += 1);
        assert_eq!((outcome, visits), (Err(Error::FileNotFound(ghost)), 0));
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
