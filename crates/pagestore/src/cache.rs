//! A fixed-size buffer pool with random replacement, layered over a [`Disk`].
//!
//! The paper's cost model assumes **no buffering** — every page touched is a
//! page access. The buffer pool exists for the ablation experiments and for
//! facilities built over it: hot BSSF slice pages and SSF signature pages
//! are served from the pool on re-query. Reads served from the pool do not
//! reach the underlying disk and therefore do not appear in its counters;
//! a query's page charge (the per-thread tally of
//! [`PagedFile::read`](crate::PagedFile::read), [`count_reads`](crate::count_reads))
//! counts requests to the I/O handle and stays cache-independent.

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
    // The pool lock is NEVER held across a `self.disk` call (enforced by
    // the guard-across-io lint): `read_page` drops its guard before a
    // miss goes to disk; `write_page`/`append_page` take it only after
    // the disk write returns. The pool and disk mutexes are therefore
    // never nested, and either can be taken while a caller holds an
    // engine-level lock.
    inner: Mutex<PoolInner>,
}

impl BufferPool {
    /// Creates a pool of `capacity` frames (must be nonzero) over `disk`.
    pub fn new(disk: Arc<Disk>, capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        BufferPool {
            disk,
            inner: Mutex::new(PoolInner {
                capacity,
                frames: Vec::with_capacity(capacity),
                map: HashMap::new(),
                victim: VICTIM_SEED,
                write_epoch: 0,
                stats: CacheStats::default(),
            }),
        }
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().stats
    }

    /// The disk underneath the pool.
    pub fn disk(&self) -> &Arc<Disk> {
        &self.disk
    }

    /// Drops all cached frames (counters are kept).
    pub fn clear(&self) {
        let mut g = self.inner.lock();
        g.frames.clear();
        g.map.clear();
    }

    /// The pool half of a write-through, after the disk write returned.
    fn install_written(&self, key: (FileId, u32), page: &Page) {
        let mut g = self.inner.lock();
        g.write_epoch += 1;
        g.install(key, page.clone());
    }
}

impl PageIo for BufferPool {
    fn read_page(&self, id: FileId, n: u32) -> Result<Page> {
        let key = (id, n);
        let epoch = {
            let mut g = self.inner.lock();
            if let Some(&slot) = g.map.get(&key) {
                g.stats.hits += 1;
                return Ok(g.frames[slot].page.clone());
            }
            g.stats.misses += 1;
            g.write_epoch
        };
        let page = self.disk.read_page(id, n)?;
        let mut g = self.inner.lock();
        // A write that landed since the miss may have installed newer
        // bytes than this read saw: the caller gets its page, the pool
        // keeps what it has.
        if g.write_epoch == epoch {
            g.install(key, page.clone());
        }
        Ok(page)
    }

    fn write_page(&self, id: FileId, n: u32, page: &Page) -> Result<()> {
        self.disk.write_page(id, n, page)?;
        self.install_written((id, n), page);
        Ok(())
    }

    fn update_page(&self, id: FileId, n: u32, f: &mut dyn FnMut(&mut Page)) -> Result<()> {
        // The pool cannot blind-update the underlying disk without losing
        // its frame coherence; a cached read (free on hit) plus a
        // write-through gives the same result with at most one extra read.
        let mut page = PageIo::read_page(self, id, n)?;
        f(&mut page);
        PageIo::write_page(self, id, n, &page)
    }

    fn append_page(&self, id: FileId, page: &Page) -> Result<u32> {
        let n = self.disk.append_page(id, page)?;
        self.install_written((id, n), page);
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
    #[should_panic]
    fn zero_capacity_rejected() {
        let disk = Arc::new(Disk::new());
        let _ = BufferPool::new(disk, 0);
    }
}
