//! Property-based tests for the paged disk simulator.

use proptest::prelude::*;
use setsig_pagestore::{BufferPool, CacheStats, Disk, IoSnapshot, Page, PageIo, PAGE_SIZE};
use std::sync::Arc;

/// Operations applied to a disk model.
#[derive(Debug, Clone)]
enum Op {
    Append { file: usize, tag: u64 },
    Write { file: usize, page: u32, tag: u64 },
    Read { file: usize, page: u32 },
}

fn op_strategy(nfiles: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..nfiles, any::<u64>()).prop_map(|(file, tag)| Op::Append { file, tag }),
        (0..nfiles, 0u32..32, any::<u64>()).prop_map(|(file, page, tag)| Op::Write {
            file,
            page,
            tag
        }),
        (0..nfiles, 0u32..32).prop_map(|(file, page)| Op::Read { file, page }),
    ]
}

/// One step of the snapshot-semantics model check, against a single file.
#[derive(Debug, Clone)]
enum IoOp {
    Read(u32),
    Write(u32, u8),
    /// Sets one byte; the rest of the page must survive the copy-on-write.
    Update(u32, usize, u8),
    Append(u8),
    Extend(u32),
}

fn io_op() -> impl Strategy<Value = IoOp> {
    let page = || 0u32..10;
    prop_oneof![
        4 => page().prop_map(IoOp::Read),
        2 => (page(), any::<u8>()).prop_map(|(n, b)| IoOp::Write(n, b)),
        3 => (page(), 0..PAGE_SIZE, any::<u8>()).prop_map(|(n, off, b)| IoOp::Update(n, off, b)),
        1 => any::<u8>().prop_map(IoOp::Append),
        1 => (0u32..10).prop_map(IoOp::Extend),
    ]
}

/// What `BufferPool`'s counters must read after a sequence: a frame table
/// whose victim is `x % frames` for the next `x` of the documented
/// fixed-seed xorshift64 (one draw per eviction, none on a hit), and
/// write-through installs — restated from the pool's documentation, so the
/// checks below stay equalities under random replacement.
struct PoolModel {
    capacity: usize,
    frames: Vec<u32>,
    victim: u64,
    stats: CacheStats,
}

impl PoolModel {
    fn new(capacity: usize) -> Self {
        PoolModel {
            capacity,
            frames: Vec::new(),
            victim: 0x9E37_79B9_7F4A_7C15,
            stats: CacheStats::default(),
        }
    }

    fn install(&mut self, n: u32) {
        if self.frames.contains(&n) {
            return;
        }
        if self.frames.len() < self.capacity {
            self.frames.push(n);
            return;
        }
        self.victim ^= self.victim << 13;
        self.victim ^= self.victim >> 7;
        self.victim ^= self.victim << 17;
        let slot = (self.victim % self.frames.len() as u64) as usize;
        self.frames[slot] = n;
        self.stats.evictions += 1;
    }

    /// A read of page `n` of a file `len` pages long; returns whether it
    /// reached the disk (and was in bounds there).
    fn read(&mut self, n: u32, len: usize) -> bool {
        if self.frames.contains(&n) {
            self.stats.hits += 1;
            return false;
        }
        self.stats.misses += 1;
        if (n as usize) < len {
            self.install(n);
        }
        true
    }
}

fn filled(b: u8) -> Page {
    Page::from_bytes([b; PAGE_SIZE])
}

proptest! {
    /// Snapshot semantics, model-checked on `Disk` and `BufferPool` against
    /// a `Vec<[u8; PAGE_SIZE]>`: a page
    /// handed out earlier never changes, scribbling on a clone never reaches
    /// its source (or the frame and disk page sharing its buffer), the raw
    /// disk agrees with the model after every op, and the disk and cache
    /// counters are exactly what the copying implementation charged.
    #[test]
    fn page_snapshots_match_a_copying_model(
        backend in 0usize..2,
        capacity in 1usize..5,
        ops in proptest::collection::vec(io_op(), 1..80),
    ) {
        let disk = Arc::new(Disk::new());
        let pool = match backend {
            0 => None,
            _ => Some(Arc::new(BufferPool::new(Arc::clone(&disk), capacity))),
        };
        let io: Arc<dyn PageIo> = match &pool {
            Some(pool) => Arc::clone(pool) as Arc<dyn PageIo>,
            None => Arc::clone(&disk) as Arc<dyn PageIo>,
        };
        let f = io.create_file("t");
        let mut model: Vec<[u8; PAGE_SIZE]> = Vec::new();
        let mut cache = PoolModel::new(capacity);
        let mut expect = IoSnapshot::default();
        // Every page ever handed out, with the bytes it had at that moment.
        let mut held: Vec<(Page, [u8; PAGE_SIZE])> = Vec::new();

        for op in ops {
            let touched = match op {
                IoOp::Read(n) => {
                    let reaches_disk = pool.is_none() || cache.read(n, model.len());
                    let got = io.read_page(f, n);
                    prop_assert_eq!(got.is_ok(), (n as usize) < model.len());
                    if let Ok(page) = got {
                        expect.reads += u64::from(reaches_disk);
                        prop_assert_eq!(page.as_bytes(), &model[n as usize]);
                        let mut scribble = page.clone();
                        scribble.as_bytes_mut().fill(0xEE);
                        prop_assert_eq!(page.as_bytes(), &model[n as usize]);
                        held.push((page, model[n as usize]));
                    }
                    n
                }
                IoOp::Write(n, b) => {
                    let res = io.write_page(f, n, &filled(b));
                    prop_assert_eq!(res.is_ok(), (n as usize) < model.len());
                    if res.is_ok() {
                        model[n as usize] = [b; PAGE_SIZE];
                        expect.writes += 1;
                        cache.install(n);
                    }
                    n
                }
                IoOp::Update(n, off, b) => {
                    // A pool reads (cached) then writes through; the raw
                    // disk blind-writes.
                    let in_bounds = (n as usize) < model.len();
                    if pool.is_some() && cache.read(n, model.len()) && in_bounds {
                        expect.reads += 1;
                    }
                    let res = io.update_page(f, n, &mut |p| p.write_u8(off, b));
                    prop_assert_eq!(res.is_ok(), in_bounds);
                    if in_bounds {
                        model[n as usize][off] = b;
                        expect.writes += 1;
                        cache.install(n);
                    }
                    n
                }
                IoOp::Append(b) => {
                    let n = io.append_page(f, &filled(b)).unwrap();
                    prop_assert_eq!(n as usize, model.len());
                    model.push([b; PAGE_SIZE]);
                    expect.writes += 1;
                    cache.install(n);
                    n
                }
                IoOp::Extend(pages) => {
                    io.extend_to(f, pages).unwrap();
                    while model.len() < pages as usize {
                        model.push([0; PAGE_SIZE]);
                        expect.writes += 1;
                    }
                    pages.saturating_sub(1)
                }
            };
            // The raw disk agrees with the model (and so with the pool,
            // whose reads are checked against the same model above).
            if let Some(bytes) = model.get(touched as usize) {
                let raw = disk.read_page(f, touched).unwrap();
                expect.reads += 1;
                prop_assert_eq!(raw.as_bytes(), bytes);
                held.push((raw, *bytes));
            }
            prop_assert_eq!(io.page_count(f).unwrap() as usize, model.len());
            prop_assert_eq!(io.snapshot(), expect);
            prop_assert_eq!(io.cache_stats(), pool.as_ref().map(|_| cache.stats));
        }

        for (n, bytes) in model.iter().enumerate() {
            prop_assert_eq!(io.read_page(f, n as u32).unwrap(), Page::from_bytes(*bytes));
            prop_assert_eq!(disk.read_page(f, n as u32).unwrap(), Page::from_bytes(*bytes));
        }
        for (page, bytes) in &held {
            prop_assert_eq!(page.as_bytes(), bytes);
        }
    }

    /// The disk behaves exactly like a Vec<Vec<u64>> model: same contents,
    /// same out-of-bounds behaviour, and counters equal the number of
    /// successful accesses.
    #[test]
    fn disk_matches_vec_model(ops in proptest::collection::vec(op_strategy(3), 1..120)) {
        let disk = Disk::new();
        let files: Vec<_> = (0..3).map(|i| disk.create_file(&format!("f{i}"))).collect();
        let mut model: Vec<Vec<u64>> = vec![Vec::new(); 3];
        let mut expect_reads = 0u64;
        let mut expect_writes = 0u64;

        for op in ops {
            match op {
                Op::Append { file, tag } => {
                    let mut p = Page::zeroed();
                    p.write_u64(0, tag);
                    let n = disk.append_page(files[file], &p).unwrap();
                    prop_assert_eq!(n as usize, model[file].len());
                    model[file].push(tag);
                    expect_writes += 1;
                }
                Op::Write { file, page, tag } => {
                    let mut p = Page::zeroed();
                    p.write_u64(0, tag);
                    let res = disk.write_page(files[file], page, &p);
                    if (page as usize) < model[file].len() {
                        prop_assert!(res.is_ok());
                        model[file][page as usize] = tag;
                        expect_writes += 1;
                    } else {
                        prop_assert!(res.is_err());
                    }
                }
                Op::Read { file, page } => {
                    let res = disk.read_page(files[file], page);
                    if (page as usize) < model[file].len() {
                        prop_assert_eq!(res.unwrap().read_u64(0), model[file][page as usize]);
                        expect_reads += 1;
                    } else {
                        prop_assert!(res.is_err());
                    }
                }
            }
        }

        let snap = disk.snapshot();
        prop_assert_eq!(snap.reads, expect_reads);
        prop_assert_eq!(snap.writes, expect_writes);
        for (i, f) in files.iter().enumerate() {
            prop_assert_eq!(disk.page_count(*f).unwrap() as usize, model[i].len());
        }
    }

    /// Page bit accessors agree with a reference bit set for any pattern.
    #[test]
    fn page_bits_match_reference(bits in proptest::collection::btree_set(0usize..PAGE_SIZE * 8, 0..64)) {
        let mut p = Page::zeroed();
        for &b in &bits {
            p.set_bit(b, true);
        }
        for probe in 0..PAGE_SIZE * 8 {
            prop_assert_eq!(p.get_bit(probe), bits.contains(&probe));
        }
    }

    /// A buffer pool is transparent: any read through it returns what an
    /// uncached disk read returns.
    #[test]
    fn buffer_pool_is_transparent(
        writes in proptest::collection::vec((0u32..8, any::<u64>()), 1..40),
        cap in 1usize..6,
    ) {
        let disk = Arc::new(Disk::new());
        let f = disk.create_file("t");
        disk.extend_to(f, 8).unwrap();
        let pool = BufferPool::new(Arc::clone(&disk), cap);
        let mut model = [0u64; 8];
        for (n, tag) in writes {
            let mut p = Page::zeroed();
            p.write_u64(0, tag);
            pool.write_page(f, n, &p).unwrap();
            model[n as usize] = tag;
            // Read through the pool and raw: must agree with the model.
            prop_assert_eq!(pool.read_page(f, n).unwrap().read_u64(0), tag);
        }
        for n in 0..8u32 {
            prop_assert_eq!(disk.read_page(f, n).unwrap().read_u64(0), model[n as usize]);
            prop_assert_eq!(pool.read_page(f, n).unwrap().read_u64(0), model[n as usize]);
        }
    }
}
