//! A fixed-size buffer pool with random replacement, layered over a [`Disk`].
//!
//! The paper's cost model assumes **no buffering** — every page touched is a
//! page access. The buffer pool exists for the ablation experiments and for
//! facilities built over it: hot BSSF slice pages and SSF signature pages
//! are served from the pool on re-query. Reads served from the pool do not
//! reach the underlying disk and therefore do not appear in its counters;
//! a query's page charge (the per-thread tally of [`count_reads`](crate::count_reads),
//! bumped by a pool hit here and by the disk read of a miss) counts every
//! page served and stays cache-independent.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

use crate::disk::{Disk, FileId, PageIo};
use crate::error::Result;
use crate::page::Page;
use crate::stats::IoSnapshot;

/// Hit/miss counters for a [`BufferPool`]: a read is served by the pool or
/// by the disk — exactly one of `hits`, `misses` counts it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Always 0: the pinned tier is gone, and the field outlives it only
    /// because `benchmark/src/layers.rs` builds this struct by literal.
    pub pinned_hits: u64,
    /// Read requests satisfied from the pool.
    pub hits: u64,
    /// Read requests that had to go to disk.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of reads served from the pool, or 0 when idle.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl std::ops::Add for CacheStats {
    type Output = CacheStats;

    fn add(self, rhs: CacheStats) -> CacheStats {
        CacheStats {
            pinned_hits: self.pinned_hits + rhs.pinned_hits,
            hits: self.hits + rhs.hits,
            misses: self.misses + rhs.misses,
            evictions: self.evictions + rhs.evictions,
        }
    }
}

impl std::ops::AddAssign for CacheStats {
    fn add_assign(&mut self, rhs: CacheStats) {
        *self = *self + rhs;
    }
}

/// Initial state of every pool's victim generator (any nonzero value
/// works; a constant makes eviction counts repeat run to run).
const VICTIM_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

struct Frame {
    key: (FileId, u32),
    page: Page,
}

struct PoolInner {
    capacity: usize,
    frames: Vec<Frame>,
    map: HashMap<(FileId, u32), usize>,
    /// xorshift64 state, stepped once per eviction.
    victim: u64,
    /// Bumped by every write-through install; a read miss that sees it
    /// change across its disk read may hold a page older than the frame's
    /// and does not install it.
    write_epoch: u64,
    stats: CacheStats,
}

impl PoolInner {
    /// Installs `page` under `key`, evicting a random frame when full.
    fn install(&mut self, key: (FileId, u32), page: Page) {
        if let Some(&slot) = self.map.get(&key) {
            self.frames[slot].page = page;
            return;
        }
        if self.frames.len() < self.capacity {
            self.map.insert(key, self.frames.len());
            self.frames.push(Frame { key, page });
            return;
        }
        self.victim ^= self.victim << 13;
        self.victim ^= self.victim >> 7;
        self.victim ^= self.victim << 17;
        let slot = (self.victim % self.frames.len() as u64) as usize;
        let old = std::mem::replace(&mut self.frames[slot], Frame { key, page });
        self.map.remove(&old.key);
        self.map.insert(key, slot);
        self.stats.evictions += 1;
    }
}

/// A hit's page, or the write epoch a miss saw (for [`Frames::install_read`]).
enum Lookup {
    Hit(Page),
    Miss(u64),
}

/// The pool's lock and all it guards. It holds no disk, and each method
/// returns its guard: no guard spans a disk call or nests with the disk's.
struct Frames(Mutex<PoolInner>);

impl Frames {
    /// Counts a hit (stats and tally) and returns its page, or counts a miss.
    fn lookup(&self, key: (FileId, u32)) -> Lookup {
        let mut g = self.0.lock();
        if let Some(&slot) = g.map.get(&key) {
            g.stats.hits += 1;
            crate::file::count_read();
            return Lookup::Hit(g.frames[slot].page.clone());
        }
        g.stats.misses += 1;
        Lookup::Miss(g.write_epoch)
    }

    /// Installs the page a miss at `epoch` read, unless a write landed since.
    fn install_read(&self, key: (FileId, u32), page: Page, epoch: u64) {
        let mut g = self.0.lock();
        if g.write_epoch == epoch {
            g.install(key, page);
        }
    }

    /// The pool half of a write-through, after the disk write returned.
    fn install_written(&self, key: (FileId, u32), page: Page) {
        let mut g = self.0.lock();
        g.write_epoch += 1;
        g.install(key, page);
    }

    fn stats(&self) -> CacheStats {
        self.0.lock().stats
    }

    fn clear(&self) {
        let mut g = self.0.lock();
        g.frames.clear();
        g.map.clear();
    }
}

/// A fixed-capacity page cache with random replacement and a write-through
/// policy.
///
/// The victim of an eviction is frame `x % capacity` for the next `x` of a
/// xorshift64 (shifts 13, 7, 17) seeded with `0x9E37_79B9_7F4A_7C15` in
/// every pool, one draw per eviction. A hit is a map probe and
/// a refcount bump and keeps no recency state. Unlike LRU, whose hit rate
/// on a cyclic scan longer than the pool is zero (each page is evicted just
/// before it comes round again — SSF's signature scan and BSSF's `T ⊆ Q`
/// slice loop are such scans), a random victim keeps a share of any loop
/// resident, and the fixed seed keeps every counter a function of the
/// access sequence alone.
///
/// Write-through keeps the underlying [`Disk`] contents authoritative at all
/// times, so experiments can mix cached readers with uncached ones, and the
/// disk's *write* counters stay exact; only read traffic is absorbed.
///
/// Frames hold [`Page`] snapshots, not copies: a miss keeps the buffer the
/// disk handed out, a hit hands it on, a write-through stores the caller's
/// buffer in both. Only [`PageIo::update_page`] copies: its closure's first
/// write to the snapshot the disk and the frame share.
///
/// Readers may race a writer of the same page: a read miss never installs
/// a page older than the one a concurrent write installed. Two *writers* of
/// one page still need the caller's exclusion (the disk and the frame could
/// otherwise keep different winners); every facility already provides it.
pub struct BufferPool {
    disk: Arc<Disk>,
    frames: Frames,
}

impl BufferPool {
    /// Creates a pool of `capacity` frames (must be nonzero) over `disk`.
    pub fn new(disk: Arc<Disk>, capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        BufferPool {
            disk,
            frames: Frames(Mutex::new(PoolInner {
                capacity,
                frames: Vec::with_capacity(capacity),
                map: HashMap::new(),
                victim: VICTIM_SEED,
                write_epoch: 0,
                stats: CacheStats::default(),
            })),
        }
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.frames.stats()
    }

    /// The disk underneath the pool.
    pub fn disk(&self) -> &Arc<Disk> {
        &self.disk
    }

    /// Drops all cached frames (counters are kept).
    pub fn clear(&self) {
        self.frames.clear();
    }
}

impl PageIo for BufferPool {
    fn read_page(&self, id: FileId, n: u32) -> Result<Page> {
        let key = (id, n);
        let epoch = match self.frames.lookup(key) {
            Lookup::Hit(page) => return Ok(page),
            Lookup::Miss(epoch) => epoch,
        };
        let page = self.disk.read_page(id, n)?;
        self.frames.install_read(key, page.clone(), epoch);
        Ok(page)
    }

    fn write_page(&self, id: FileId, n: u32, page: &Page) -> Result<()> {
        self.disk.write_page(id, n, page)?;
        self.frames.install_written((id, n), page.clone());
        Ok(())
    }

    fn update_page(&self, id: FileId, n: u32, f: &mut dyn FnMut(&mut Page)) -> Result<()> {
        // The pool cannot blind-update the underlying disk without losing
        // its frame coherence; a cached read (one tallied page, a disk read
        // only on a miss) plus a write-through gives the same result.
        let mut page = PageIo::read_page(self, id, n)?;
        f(&mut page);
        PageIo::write_page(self, id, n, &page)
    }

    fn append_page(&self, id: FileId, page: &Page) -> Result<u32> {
        let n = self.disk.append_page(id, page)?;
        self.frames.install_written((id, n), page.clone());
        Ok(n)
    }

    fn page_count(&self, id: FileId) -> Result<u32> {
        self.disk.page_count(id)
    }

    fn create_file(&self, name: &str) -> FileId {
        self.disk.create_file(name)
    }

    fn extend_to(&self, id: FileId, pages: u32) -> Result<()> {
        self.disk.extend_to(id, pages)
    }

    fn snapshot(&self) -> IoSnapshot {
        self.disk.snapshot()
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        Some(self.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(cap: usize) -> (Arc<Disk>, BufferPool) {
        let disk = Arc::new(Disk::new());
        let pool = BufferPool::new(Arc::clone(&disk), cap);
        (disk, pool)
    }

    #[test]
    fn cache_stats_sum_componentwise() {
        let a = CacheStats {
            hits: 2,
            misses: 3,
            evictions: 1,
            ..CacheStats::default()
        };
        let b = CacheStats {
            hits: 5,
            misses: 0,
            evictions: 4,
            ..CacheStats::default()
        };
        let s = a + b;
        assert_eq!(
            s,
            CacheStats {
                hits: 7,
                misses: 3,
                evictions: 5,
                ..CacheStats::default()
            }
        );
        let mut acc = CacheStats::default();
        acc += a;
        acc += b;
        assert_eq!(acc, s);
        assert!((s.hit_rate() - 0.7).abs() < 1e-9);
    }

    #[test]
    fn repeated_reads_hit_pool() {
        let (disk, pool) = pool(4);
        let f = disk.create_file("t");
        disk.extend_to(f, 1).unwrap();
        disk.reset_stats();
        for _ in 0..10 {
            let _ = pool.read_page(f, 0).unwrap();
        }
        // Only the first read reached the disk.
        assert_eq!(disk.snapshot().reads, 1);
        let s = pool.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 9);
        assert!(s.hit_rate() > 0.89);
    }

    #[test]
    fn capacity_bounds_resident_set() {
        let (disk, pool) = pool(2);
        let f = disk.create_file("t");
        disk.extend_to(f, 4).unwrap();
        disk.reset_stats();
        // Cyclic access over 4 pages with capacity 2: mostly misses.
        for round in 0..3 {
            for n in 0..4 {
                let _ = pool.read_page(f, n).unwrap();
                let _ = round;
            }
        }
        assert!(pool.stats().evictions > 0);
        assert!(disk.snapshot().reads > 4);
    }

    #[test]
    fn write_through_updates_disk_and_pool() {
        let (disk, pool) = pool(2);
        let f = disk.create_file("t");
        disk.extend_to(f, 1).unwrap();
        let mut p = Page::zeroed();
        p.write_u8(0, 42);
        pool.write_page(f, 0, &p).unwrap();
        // Direct (uncached) disk read sees the new contents.
        assert_eq!(disk.read_page(f, 0).unwrap().read_u8(0), 42);
        // Cached read hits.
        disk.reset_stats();
        assert_eq!(pool.read_page(f, 0).unwrap().read_u8(0), 42);
        assert_eq!(disk.snapshot().reads, 0);
    }

    #[test]
    fn append_populates_cache() {
        let (disk, pool) = pool(2);
        let f = pool.create_file("t");
        let n = pool.append_page(f, &Page::zeroed()).unwrap();
        disk.reset_stats();
        let _ = pool.read_page(f, n).unwrap();
        assert_eq!(disk.snapshot().reads, 0);
    }

    #[test]
    fn clear_forgets_frames() {
        let (disk, pool) = pool(2);
        let f = disk.create_file("t");
        disk.extend_to(f, 1).unwrap();
        let _ = pool.read_page(f, 0).unwrap();
        pool.clear();
        disk.reset_stats();
        let _ = pool.read_page(f, 0).unwrap();
        assert_eq!(disk.snapshot().reads, 1);
    }

    #[test]
    fn a_cyclic_scan_longer_than_the_pool_still_hits() {
        // The loop LRU cannot serve: 1.4 x capacity pages read round and
        // round evict each page just before it is wanted again, hit rate 0.
        // A random victim leaves a share of the loop resident.
        let (disk, pool) = pool(50);
        let f = disk.create_file("t");
        disk.extend_to(f, 70).unwrap();
        for n in 0..70 {
            let _ = pool.read_page(f, n).unwrap(); // warm-up lap
        }
        let warm = pool.stats();
        disk.reset_stats();
        for _ in 0..20 {
            for n in 0..70 {
                let _ = pool.read_page(f, n).unwrap();
            }
        }
        let s = pool.stats();
        let (hits, misses) = (s.hits - warm.hits, s.misses - warm.misses);
        assert_eq!(hits + misses, 20 * 70);
        assert_eq!(disk.snapshot().reads, misses);
        let rate = hits as f64 / (hits + misses) as f64;
        assert!(rate >= 0.4, "hit rate {rate} on a 1.4 x capacity loop");
    }

    #[test]
    fn a_pool_run_reads_like_its_page_loop() {
        // The pool keeps `PageIo::read_run`'s default: two fresh pools fed
        // the same warm-up and then the same runs, one as `read_run` and one
        // as a `read_page` loop, see the same pages, hits, misses, evictions
        // and disk reads, and serve the same tally.
        let laps = |by_run: bool| {
            let (disk, pool) = pool(16);
            let f = disk.create_file("t");
            for n in 0..130u32 {
                let mut p = Page::zeroed();
                p.write_u32(0, n);
                disk.append_page(f, &p).unwrap();
            }
            for n in (0..130).step_by(7) {
                drop(pool.read_page(f, n).unwrap());
            }
            let mut visited = Vec::new();
            let ((), tally) = crate::count_reads(|| {
                for pages in [0..1, 0..63, 0..64, 60..125, 0..130] {
                    let mut visit = |n: u32, p: &Page| visited.push((n, p.read_u32(0)));
                    if by_run {
                        PageIo::read_run(&pool, f, pages, &mut visit).unwrap();
                    } else {
                        for n in pages {
                            visit(n, &pool.read_page(f, n).unwrap());
                        }
                    }
                }
            });
            (visited, pool.stats(), disk.snapshot(), tally)
        };
        let by_run = laps(true);
        assert_eq!(by_run, laps(false));
        let (visited, stats, ..) = by_run;
        assert_eq!(visited.len(), 1 + 63 + 64 + 65 + 130);
        assert!(visited.iter().all(|&(n, word)| n == word));
        assert!(stats.hits > 0 && stats.evictions > 0);
    }

    #[test]
    fn victims_are_a_function_of_the_access_sequence() {
        // Two fresh pools fed the same reads, writes and appends agree on
        // every counter: the victim generator's seed is a constant.
        let run = || {
            let (disk, pool) = pool(8);
            let f = disk.create_file("t");
            disk.extend_to(f, 24).unwrap();
            disk.reset_stats();
            let mut x = 12345u32;
            for i in 0..2000u32 {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                let n = (x >> 16) % 24;
                match i % 7 {
                    0 => pool.write_page(f, n, &Page::zeroed()).unwrap(),
                    3 => drop(pool.append_page(f, &Page::zeroed()).unwrap()),
                    _ => drop(pool.read_page(f, n).unwrap()),
                }
            }
            (pool.stats(), disk.snapshot())
        };
        let (stats, io) = run();
        assert!(stats.evictions > 0 && stats.hits > 0);
        assert_eq!(io.reads, stats.misses);
        assert_eq!(run(), (stats, io));
    }

    #[test]
    fn eviction_counter_tracks_displacements() {
        let (disk, pool) = pool(2);
        let f = disk.create_file("t");
        disk.extend_to(f, 3).unwrap();
        for n in 0..3 {
            let _ = pool.read_page(f, n).unwrap();
        }
        assert_eq!(pool.stats().evictions, 1);
    }

    #[test]
    fn a_stale_miss_never_replaces_a_newer_write() {
        // A reader misses, a writer installs `new`, then the reader's disk
        // read (`old`, from before the write) comes back: the frame keeps
        // `new`.
        let (_disk, pool) = pool(4);
        let frames = &pool.frames;
        let key = (FileId(0), 0);
        let (mut old, mut new) = (Page::zeroed(), Page::zeroed());
        old.write_u8(0, 1);
        new.write_u8(0, 2);
        let Lookup::Miss(epoch) = frames.lookup(key) else {
            panic!("an empty pool hit");
        };
        frames.install_written(key, new.clone());
        frames.install_read(key, old, epoch);
        let s = frames.stats();
        assert_eq!((s.hits, s.misses), (0, 1));
        match frames.lookup(key) {
            Lookup::Hit(page) => assert_eq!(page, new),
            Lookup::Miss(_) => panic!("the write's frame is gone"),
        }
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let disk = Arc::new(Disk::new());
        let _ = BufferPool::new(disk, 0);
    }
}
