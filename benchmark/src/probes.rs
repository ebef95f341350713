//! Fixed micro-measurements that do not depend on the workload: the word
//! kernels on one page, a buffer-pool hit, and a 4 KiB copy that tells a
//! slower machine from slower code.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use setsig_core::kernel;
use setsig_pagestore::{BufferPool, Disk, PageIo, PAGE_SIZE};

use crate::stats;

/// Calls per timed batch, and batches per probe (the median is reported).
const BATCH: usize = 256;
const BATCHES: usize = 201;

/// Median over batches of the time one call of `f` takes, in ns.
fn ns_per_call(mut f: impl FnMut(usize)) -> f64 {
    // The first batches warm the caches; the median ignores them.
    let per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for i in 0..BATCH {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / BATCH as f64
        })
        .collect();
    stats::median(&per_call)
}

/// A page of slice bits, about half of them set.
fn slice_page() -> Vec<u8> {
    (0..PAGE_SIZE)
        .map(|i| (i as u8).wrapping_mul(167) ^ 0x5a)
        .collect()
}

/// `kernel::and_assign` of one 4 KiB slice page into a page-wide accumulator.
pub fn kernel_and_ns_per_page() -> f64 {
    let page = slice_page();
    let mut acc = vec![u64::MAX; PAGE_SIZE / 8];
    ns_per_call(|i| {
        if i % 16 == 0 {
            acc.fill(u64::MAX);
        }
        black_box(kernel::and_assign(black_box(&mut acc), black_box(&page)));
    })
}

/// `kernel::or_assign` of one 4 KiB slice page into a page-wide accumulator.
pub fn kernel_or_ns_per_page() -> f64 {
    let page = slice_page();
    let mut acc = vec![0u64; PAGE_SIZE / 8];
    let nbits = (PAGE_SIZE * 8) as u32;
    ns_per_call(|_| {
        kernel::or_assign(black_box(&mut acc), black_box(&page), nbits);
        black_box(&acc);
    })
}

/// A plain 4 KiB copy.
pub fn copy_4k_ns() -> f64 {
    let src = slice_page();
    let mut dst = vec![0u8; PAGE_SIZE];
    ns_per_call(|_| {
        dst.copy_from_slice(black_box(&src));
        black_box(&dst);
    })
}

/// A `BufferPool::read_page` served from the pool: 64 pages in 64 frames.
pub fn pool_read_hit_ns() -> f64 {
    const PAGES: u32 = 64;
    let disk = Arc::new(Disk::new());
    let file = disk.create_file("probe");
    disk.extend_to(file, PAGES)
        .expect("a fresh in-memory file extends");
    let pool = BufferPool::new(disk, PAGES as usize);
    for n in 0..PAGES {
        pool.read_page(file, n).expect("the page exists");
    }
    ns_per_call(|i| {
        black_box(
            pool.read_page(file, i as u32 % PAGES)
                .expect("the page exists"),
        );
    })
}
