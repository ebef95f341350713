//! # setsig-pagestore — a paged disk simulator with I/O accounting
//!
//! The cost model of Ishikawa, Kitagawa & Ohbo (SIGMOD 1993) measures every
//! access facility in **page accesses**: the number of disk pages read or
//! written while answering a query or applying an update. This crate is the
//! substrate that makes those numbers observable in a real implementation.
//!
//! It provides:
//!
//! * [`Page`] — a fixed-size (4096-byte, the paper's `P`) disk page with
//!   little-endian scalar accessors,
//! * [`Disk`] — an in-memory simulated disk holding named paged files, with
//!   per-file read/write counters,
//! * [`PagedFile`] — a cheap handle binding a [`FileId`] to its [`Disk`];
//!   each page a `Disk` read or a pool hit serves counts in a per-thread
//!   tally ([`count_reads`]) — the page charge a filter call reports,
//! * [`BufferPool`] — an optional random-replacement page cache used by
//!   the ablation experiments and the cached query engines (the paper
//!   assumes no buffering),
//! * [`IoSnapshot`] / [`IoDelta`] — counter snapshots for measuring the cost
//!   of a single operation,
//! * binary serialization of a whole disk image ([`Disk::save_to`] /
//!   [`Disk::load_from`]) so example databases can be persisted.
//!
//! All counters are updated under a single [`parking_lot::Mutex`]; the
//! simulator is shared between the signature files, the OID file, the object
//! store and the nested index via `Arc<Disk>`, exactly like the single disk
//! arm the paper's model charges.
//!
//! ```
//! use setsig_pagestore::{Disk, Page, PAGE_SIZE};
//! use std::sync::Arc;
//!
//! let disk = Arc::new(Disk::new());
//! let f = disk.create_file("signatures");
//! let mut p = Page::zeroed();
//! p.write_u64(0, 0xdead_beef);
//! let n = disk.append_page(f, &p).unwrap();
//! assert_eq!(n, 0);
//! let back = disk.read_page(f, 0).unwrap();
//! assert_eq!(back.read_u64(0), 0xdead_beef);
//! assert_eq!(disk.snapshot().reads, 1);
//! assert_eq!(disk.snapshot().writes, 1);
//! ```

#![warn(missing_docs)]

mod cache;
mod disk;
mod error;
mod file;
mod page;
mod persist;
mod stats;

pub use cache::{BufferPool, CacheStats};
pub use disk::{Disk, FileId, FileInfo, PageIo};
pub use error::{Error, Result};
pub use file::{count_reads, PagedFile};
pub use page::{Page, PAGE_SIZE};
pub use stats::{FileStats, IoDelta, IoSnapshot};
