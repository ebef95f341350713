//! hot-path-hygiene PASS fixture: clean kernels, pre-sized buffers,
//! cold-path allocations, the traversal boundary, the accounting seam and
//! an allowlisted helper. Nothing here may produce a diagnostic.

use std::sync::Mutex;

/// A clean root: arithmetic and writes into caller-owned buffers only.
// HOT-PATH: fixture.clean_scan
pub fn clean_scan(data: &[u8], out: &mut Vec<u8>) -> u64 {
    let mut acc = 0u64;
    for b in data {
        acc += kernel(*b);
        out.push(*b);
    }
    acc
}

fn kernel(b: u8) -> u64 {
    b as u64
}

/// Allocation off the hot path is nobody's business.
pub fn cold_path() -> Vec<u8> {
    let mut v = Vec::new();
    v.push(1);
    v.to_vec()
}

/// Pre-sizing belongs in setup code: `with_capacity` is in the ALLOC
/// table, so the kernel takes the caller-owned buffer instead of
/// allocating its own.
pub fn presized_setup(n: usize) -> Vec<u8> {
    Vec::with_capacity(n)
}

// HOT-PATH: fixture.presized
pub fn presized(buf: &mut Vec<u8>) -> u64 {
    buf.capacity() as u64
}

/// The helper allocates, but the self-test allowlist justifies it
/// (`fixture.rs::justified_helper`).
// HOT-PATH: fixture.justified
pub fn justified_root(xs: &[u8]) -> u64 {
    justified_helper(xs)
}

fn justified_helper(xs: &[u8]) -> u64 {
    xs.to_vec().len() as u64
}

/// Raw I/O inside the accounting seam (`fixture.rs::seam_read` is in the
/// accounting allowlist) is the sanctioned way to touch pages.
// HOT-PATH: fixture.seam
pub fn seam_root(disk: &Disk) -> u64 {
    seam_read(disk)
}

fn seam_read(disk: &Disk) -> u64 {
    disk.read_page(0);
    7
}

/// A boundary: its own body is checked (and is clean), but what it
/// dispatches into is reviewed out of scope — the engine behind it may
/// allocate, lock and even park on a condvar at will.
// HOT-PATH: fixture.routed
pub fn routed(q: &Query) -> u64 {
    route(q)
}

// HOT-PATH-BOUNDARY: dispatches into whole engines that lock by design
fn route(q: &Query) -> u64 {
    engine_query(q)
}

fn engine_query(q: &Query) -> u64 {
    let copy = q.terms.to_vec();
    let g = q.ready.wait(q.gate.lock().unwrap()).unwrap();
    copy.len() as u64 + *g
}

/// Locks off the hot path are equally fine.
pub struct Registry {
    inner: Mutex<u64>,
}

pub fn cold_lock(r: &Registry) -> u64 {
    *r.inner.lock().unwrap()
}

/// Prose may mention the grammar — `HOT-PATH: <name>` — without becoming
/// an annotation, and test code is invisible to the traversal.
#[cfg(test)]
mod tests {
    use super::*;

    fn tests_allocate_freely() {
        let v = vec![1u8, 2, 3];
        assert_eq!(clean_scan(&v, &mut Vec::new()), 6);
    }
}
