//! An LRU buffer pool layered over a [`Disk`].
//!
//! The paper's cost model assumes **no buffering** — every page touched is a
//! page access. The buffer pool exists for the ablation experiments and for
//! facilities built over it: hot BSSF slice pages and SSF signature pages
//! are served from the pool on re-query. Reads served from the pool do not
//! reach the underlying disk and therefore do not appear in its counters;
//! the scans' own page accounting ([`ScanStats`] in `setsig-core`) counts
//! requests to the I/O handle and stays cache-independent.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

use crate::disk::{Disk, FileId, PageIo};
use crate::error::Result;
use crate::page::Page;
use crate::stats::IoSnapshot;

/// Hit/miss counters for a [`BufferPool`], split by tier: a read is served
/// by the pinned tier, the LRU pool, or the disk — exactly one of
/// `pinned_hits`, `hits`, `misses` counts it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Read requests satisfied from the pinned in-RAM tier.
    pub pinned_hits: u64,
    /// Read requests satisfied from the LRU pool.
    pub hits: u64,
    /// Read requests that had to go to disk.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of reads served from memory (pinned tier or pool), or 0
    /// when idle.
    pub fn hit_rate(&self) -> f64 {
        let served = self.pinned_hits + self.hits;
        let total = served + self.misses;
        if total == 0 {
            0.0
        } else {
            served as f64 / total as f64
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

/// Sentinel for "no neighbour" in the intrusive LRU list.
const NIL: usize = usize::MAX;

struct Frame {
    key: (FileId, u32),
    page: Page,
    /// Towards the MRU end.
    prev: usize,
    /// Towards the LRU end.
    next: usize,
}

struct PoolInner {
    frames: Vec<Frame>,
    map: HashMap<(FileId, u32), usize>,
    /// Most recently used frame, or [`NIL`] when empty.
    head: usize,
    /// Least recently used frame (the eviction victim), or [`NIL`].
    tail: usize,
    /// The pinned tier: pages admitted here are never evicted, served
    /// before the LRU list, and refreshed write-through like any frame.
    pinned: HashMap<(FileId, u32), Page>,
    /// Access counts driving pinned admission; tracked only while the
    /// pinned tier has room, cleared once it fills.
    heat: HashMap<(FileId, u32), u32>,
    stats: CacheStats,
}

impl PoolInner {
    fn unlink(&mut self, slot: usize) {
        let (p, n) = (self.frames[slot].prev, self.frames[slot].next);
        if p != NIL {
            self.frames[p].next = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.frames[n].prev = p;
        } else {
            self.tail = p;
        }
        self.frames[slot].prev = NIL;
        self.frames[slot].next = NIL;
    }

    fn push_front(&mut self, slot: usize) {
        self.frames[slot].prev = NIL;
        self.frames[slot].next = self.head;
        if self.head != NIL {
            self.frames[self.head].prev = slot;
        } else {
            self.tail = slot;
        }
        self.head = slot;
    }

    fn touch(&mut self, slot: usize) {
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
    }
}

/// A fixed-capacity page cache with true LRU replacement (an intrusive
/// recency list, O(1) per access) and a write-through policy.
///
/// Write-through keeps the underlying [`Disk`] contents authoritative at all
/// times, so experiments can mix cached readers with uncached ones, and the
/// disk's *write* counters stay exact; only read traffic is absorbed.
///
/// Frames and pinned entries hold [`Page`] snapshots, not copies: a miss
/// keeps the buffer the disk handed out, a hit hands it on, a write-through
/// stores the caller's buffer in both. Only [`PageIo::update_page`] copies:
/// its closure's first write to the snapshot the disk and the frame share.
pub struct BufferPool {
    disk: Arc<Disk>,
    capacity: usize,
    /// Maximum pages in the pinned tier; `0` disables it entirely.
    pinned_capacity: usize,
    // The pool lock is NEVER held across a `self.disk` call (enforced by
    // the guard-across-io lint): `read_page` drops its guard before a
    // miss goes to disk; `write_page`/`append_page` take it only after
    // the disk write returns. The pool and disk mutexes are therefore
    // never nested, and either can be taken while a caller holds an
    // engine-level lock.
    // LOCK-ORDER: pagestore.pool leaf
    inner: Mutex<PoolInner>,
}

impl BufferPool {
    /// Creates a pool of `capacity` frames (must be nonzero) over `disk`,
    /// with no pinned tier.
    pub fn new(disk: Arc<Disk>, capacity: usize) -> Self {
        Self::with_pinned(disk, capacity, 0)
    }

    /// Creates a pool of `capacity` LRU frames plus a pinned tier of up to
    /// `pinned_capacity` pages above it.
    ///
    /// Admission is by heat: a page's second read while the tier has room
    /// pins it permanently (a single read is not evidence of reuse, and the
    /// hottest pages — BSSF slice pages re-read by every query — reach two
    /// first). Pinned pages are served before the LRU list, never evicted,
    /// and kept coherent by the same write-through as the frames.
    pub fn with_pinned(disk: Arc<Disk>, capacity: usize, pinned_capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        BufferPool {
            disk,
            capacity,
            pinned_capacity,
            inner: Mutex::new(PoolInner {
                frames: Vec::with_capacity(capacity),
                map: HashMap::new(),
                head: NIL,
                tail: NIL,
                pinned: HashMap::new(),
                heat: HashMap::new(),
                stats: CacheStats::default(),
            }),
        }
    }

    /// Maximum pages the pinned tier may hold (`0` = tier disabled).
    pub fn pinned_capacity(&self) -> usize {
        self.pinned_capacity
    }

    /// Pages currently held by the pinned tier.
    pub fn pinned_len(&self) -> usize {
        self.inner.lock().pinned.len()
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().stats
    }

    /// The disk underneath the pool.
    pub fn disk(&self) -> &Arc<Disk> {
        &self.disk
    }

    /// Drops all cached frames and pinned pages (counters are kept).
    pub fn clear(&self) {
        let mut g = self.inner.lock();
        g.frames.clear();
        g.map.clear();
        g.head = NIL;
        g.tail = NIL;
        g.pinned.clear();
        g.heat.clear();
    }

    /// Counts a read of `key` towards pinned admission, pinning `page` on
    /// its second access while the tier has room. Heat stops accumulating
    /// once the tier fills, so the map's size is bounded by the reads made
    /// while it still had room.
    fn note_heat(&self, g: &mut PoolInner, key: (FileId, u32), page: &Page) {
        if self.pinned_capacity == 0 || g.pinned.len() >= self.pinned_capacity {
            return;
        }
        let heat = g.heat.entry(key).or_insert(0);
        *heat += 1;
        if *heat >= 2 {
            g.heat.remove(&key);
            g.pinned.insert(key, page.clone());
        }
    }

    fn install(&self, g: &mut PoolInner, key: (FileId, u32), page: Page) {
        if let Some(pinned) = g.pinned.get_mut(&key) {
            // Keep the pinned copy coherent; a pinned page takes no LRU
            // frame — the tier alone serves it.
            *pinned = page;
            return;
        }
        if let Some(&slot) = g.map.get(&key) {
            g.frames[slot].page = page;
            g.touch(slot);
            return;
        }
        if g.frames.len() < self.capacity {
            let slot = g.frames.len();
            g.frames.push(Frame {
                key,
                page,
                prev: NIL,
                next: NIL,
            });
            g.map.insert(key, slot);
            g.push_front(slot);
            return;
        }
        // Evict the least recently used frame and reuse its slot.
        let slot = g.tail;
        g.unlink(slot);
        let old = g.frames[slot].key;
        g.map.remove(&old);
        g.frames[slot].key = key;
        g.frames[slot].page = page;
        g.map.insert(key, slot);
        g.push_front(slot);
        g.stats.evictions += 1;
    }
}

impl PageIo for BufferPool {
    fn read_page(&self, id: FileId, n: u32) -> Result<Page> {
        let key = (id, n);
        {
            let mut g = self.inner.lock();
            if let Some(page) = g.pinned.get(&key) {
                let page = page.clone();
                g.stats.pinned_hits += 1;
                return Ok(page);
            }
            if let Some(&slot) = g.map.get(&key) {
                g.touch(slot);
                g.stats.hits += 1;
                let page = g.frames[slot].page.clone();
                self.note_heat(&mut g, key, &page);
                return Ok(page);
            }
            g.stats.misses += 1;
        }
        let page = self.disk.read_page(id, n)?;
        let mut g = self.inner.lock();
        self.note_heat(&mut g, key, &page);
        self.install(&mut g, key, page.clone());
        Ok(page)
    }

    fn write_page(&self, id: FileId, n: u32, page: &Page) -> Result<()> {
        self.disk.write_page(id, n, page)?;
        let mut g = self.inner.lock();
        self.install(&mut g, (id, n), page.clone());
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
        let mut g = self.inner.lock();
        self.install(&mut g, (id, n), page.clone());
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
            pinned_hits: 1,
            hits: 2,
            misses: 3,
            evictions: 1,
        };
        let b = CacheStats {
            pinned_hits: 6,
            hits: 5,
            misses: 0,
            evictions: 4,
        };
        let s = a + b;
        assert_eq!(
            s,
            CacheStats {
                pinned_hits: 7,
                hits: 7,
                misses: 3,
                evictions: 5
            }
        );
        let mut acc = CacheStats::default();
        acc += a;
        acc += b;
        assert_eq!(acc, s);
        // Pinned hits are memory hits: 14 served / 17 total.
        assert!((s.hit_rate() - 14.0 / 17.0).abs() < 1e-9);
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
    fn lru_evicts_least_recently_used() {
        // A recency-respecting victim choice: after re-touching page 0, the
        // coldest page (1) is the one a new page displaces.
        let (disk, pool) = pool(3);
        let f = disk.create_file("t");
        disk.extend_to(f, 5).unwrap();
        for n in 0..3 {
            let _ = pool.read_page(f, n).unwrap();
        }
        let _ = pool.read_page(f, 0).unwrap(); // 0 becomes MRU
        let _ = pool.read_page(f, 3).unwrap(); // must evict 1, not 0
        disk.reset_stats();
        for n in [0, 2, 3] {
            let _ = pool.read_page(f, n).unwrap();
        }
        assert_eq!(disk.snapshot().reads, 0, "0/2/3 are resident");
        let _ = pool.read_page(f, 1).unwrap();
        assert_eq!(disk.snapshot().reads, 1, "1 was the LRU victim");
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

    fn pinned_pool(cap: usize, pinned: usize) -> (Arc<Disk>, BufferPool) {
        let disk = Arc::new(Disk::new());
        let pool = BufferPool::with_pinned(Arc::clone(&disk), cap, pinned);
        (disk, pool)
    }

    #[test]
    fn second_access_pins_and_pinned_pages_never_evict() {
        let (disk, pool) = pinned_pool(2, 1);
        let f = disk.create_file("t");
        disk.extend_to(f, 4).unwrap();
        // Two reads of page 0: miss (heat 1), LRU hit (heat 2 → pinned).
        let _ = pool.read_page(f, 0).unwrap();
        let _ = pool.read_page(f, 0).unwrap();
        assert_eq!(pool.pinned_len(), 1);
        // Thrash the tiny LRU far past page 0's recency.
        for _ in 0..3 {
            for n in 1..4 {
                let _ = pool.read_page(f, n).unwrap();
            }
        }
        disk.reset_stats();
        let _ = pool.read_page(f, 0).unwrap();
        assert_eq!(disk.snapshot().reads, 0, "pinned page survived the thrash");
        let s = pool.stats();
        assert_eq!(s.pinned_hits, 1);
    }

    #[test]
    fn pinned_tier_respects_capacity() {
        let (disk, pool) = pinned_pool(2, 2);
        let f = disk.create_file("t");
        disk.extend_to(f, 5).unwrap();
        // Heat up pages 0..4 twice each; only the first two to reach heat 2
        // fit the tier.
        for n in 0..5 {
            let _ = pool.read_page(f, n).unwrap();
            let _ = pool.read_page(f, n).unwrap();
        }
        assert_eq!(pool.pinned_len(), 2);
        assert_eq!(pool.pinned_capacity(), 2);
    }

    #[test]
    fn stats_split_pinned_pool_disk() {
        let (disk, pool) = pinned_pool(4, 1);
        let f = disk.create_file("t");
        disk.extend_to(f, 2).unwrap();
        let _ = pool.read_page(f, 0).unwrap(); // miss
        let _ = pool.read_page(f, 0).unwrap(); // pool hit, pins
        let _ = pool.read_page(f, 0).unwrap(); // pinned hit
        let _ = pool.read_page(f, 1).unwrap(); // miss
        let s = pool.stats();
        assert_eq!((s.pinned_hits, s.hits, s.misses), (1, 1, 2));
    }

    #[test]
    fn writes_keep_pinned_copy_coherent() {
        let (disk, pool) = pinned_pool(2, 1);
        let f = disk.create_file("t");
        disk.extend_to(f, 1).unwrap();
        let _ = pool.read_page(f, 0).unwrap();
        let _ = pool.read_page(f, 0).unwrap();
        assert_eq!(pool.pinned_len(), 1);
        let mut p = Page::zeroed();
        p.write_u8(0, 42);
        pool.write_page(f, 0, &p).unwrap();
        // The pinned tier serves the written contents, not a stale copy.
        assert_eq!(pool.read_page(f, 0).unwrap().read_u8(0), 42);
        pool.update_page(f, 0, &mut |page| page.write_u8(0, 43))
            .unwrap();
        assert_eq!(pool.read_page(f, 0).unwrap().read_u8(0), 43);
        // All of those post-pin reads came from RAM.
        assert_eq!(disk.snapshot().reads, 1);
    }

    #[test]
    fn clear_drops_pinned_pages() {
        let (disk, pool) = pinned_pool(2, 1);
        let f = disk.create_file("t");
        disk.extend_to(f, 1).unwrap();
        let _ = pool.read_page(f, 0).unwrap();
        let _ = pool.read_page(f, 0).unwrap();
        assert_eq!(pool.pinned_len(), 1);
        pool.clear();
        assert_eq!(pool.pinned_len(), 0);
        disk.reset_stats();
        let _ = pool.read_page(f, 0).unwrap();
        assert_eq!(disk.snapshot().reads, 1);
    }

    #[test]
    fn plain_pool_never_pins() {
        let (disk, pool) = pool(2);
        let f = disk.create_file("t");
        disk.extend_to(f, 1).unwrap();
        for _ in 0..5 {
            let _ = pool.read_page(f, 0).unwrap();
        }
        assert_eq!(pool.pinned_len(), 0);
        assert_eq!(pool.stats().pinned_hits, 0);
    }
}
