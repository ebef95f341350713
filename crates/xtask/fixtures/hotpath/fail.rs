//! hot-path-hygiene FAIL fixture: annotated roots whose bodies or callees
//! allocate, take locks, block, or touch raw page I/O, plus every
//! malformed annotation shape. Every marked line must produce a diagnostic.

use std::sync::{Condvar, Mutex, RwLock};

/// Direct violations in the root body itself.
// HOT-PATH: fixture.scan_loop
pub fn scan_loop(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new(); //~ ERROR hot-path-hygiene: alloc-in-hot-path
    for b in data {
        out.push(*b);
    }
    out.to_vec() //~ ERROR hot-path-hygiene: alloc-in-hot-path
}

/// Transitive violations: the root is clean, its helper is not.
// HOT-PATH: fixture.probe
pub fn probe(xs: &[u32]) -> u32 {
    helper(xs)
}

/// A second root reaching the same helper: the findings are reported
/// once, not once per root (the markers pin the dedup).
// HOT-PATH: fixture.probe_again
pub fn probe_again(xs: &[u32]) -> u32 {
    helper(xs)
}

fn helper(xs: &[u32]) -> u32 {
    let copy = xs.to_vec(); //~ ERROR hot-path-hygiene: probe (crates/experiments/src/fixture.rs:19) → helper (crates/experiments/src/fixture.rs:20) → `.to_vec()`
    let label = format!("{}", copy.len()); //~ ERROR hot-path-hygiene: alloc-in-hot-path
    label.len() as u32 + vec![0u8; 1].len() as u32 //~ ERROR hot-path-hygiene: vec!
}

/// Method roots traverse `self.…()` calls through the impl type.
pub struct Engine {
    buf: [u8; 8],
}

impl Engine {
    // HOT-PATH: fixture.method_root
    pub fn kernel(&self) -> u64 {
        self.stage()
    }

    fn stage(&self) -> u64 {
        let boxed = Box::new(7u64); //~ ERROR hot-path-hygiene: alloc-in-hot-path
        let copy = self.buf.clone(); //~ ERROR hot-path-hygiene: .clone()
        let name = String::from("stage"); //~ ERROR hot-path-hygiene: String::from
        *boxed + copy.len() as u64 + name.len() as u64
    }
}

/// Lock acquisitions: `.lock()` always, `.read()`/`.write()` against the
/// RwLock declared in this file.
pub struct Shared {
    counter: Mutex<u64>,
    table: RwLock<u64>,
}

// HOT-PATH: fixture.dispatch
pub fn dispatch(s: &Shared) -> u64 {
    let g = s.counter.lock().unwrap(); //~ ERROR hot-path-hygiene: lock-in-hot-path
    let r = s.table.read().unwrap(); //~ ERROR hot-path-hygiene: lock-in-hot-path
    *g + *r
}

/// Raw page I/O with no accounting seam in sight.
// HOT-PATH: fixture.read_row
pub fn read_row(disk: &Disk, f: FileId) {
    disk.read_page(f, 0); //~ ERROR hot-path-hygiene: io-in-hot-path
}

/// The widened ALLOC table: pre-sizing, collect, to_string and Arc all
/// count — hoist them to setup code.
// HOT-PATH: fixture.widened
pub fn widened(xs: &[u32]) -> usize {
    let v: Vec<u32> = Vec::with_capacity(xs.len()); //~ ERROR hot-path-hygiene: Vec::with_capacity
    let doubled: Vec<u32> = xs.iter().map(|x| x * 2).collect(); //~ ERROR hot-path-hygiene: .collect()
    let label = xs.len().to_string(); //~ ERROR hot-path-hygiene: .to_string()
    let shared = std::sync::Arc::new(7u64); //~ ERROR hot-path-hygiene: Arc::new
    v.capacity() + doubled.len() + label.len() + *shared as usize
}

/// Blocking: a worker root that parks mid-task. The `.wait()` sits two
/// hops down behind fns no allowlist names, so the witness chain names
/// both; the boundary fn's own body is still checked (the sleep trips),
/// but `beyond` is not followed — its thread join produces no diagnostic.
pub struct Latch {
    done: Mutex<bool>,
    finished: Condvar,
}

// HOT-PATH: fixture.worker
pub fn worker(l: &Latch, n: u64) -> u64 {
    run_task(l, n)
}

fn run_task(l: &Latch, n: u64) -> u64 {
    rendezvous(l) + merge(n) + fan_out(n)
}

fn rendezvous(l: &Latch) -> u64 {
    let g = l.done.lock().unwrap(); //~ ERROR hot-path-hygiene: lock-in-hot-path
    u64::from(*l.finished.wait(g).unwrap()) //~ ERROR hot-path-hygiene: block-in-hot-path: `.wait()` parks the thread on hot path `fixture.worker`: worker (crates/experiments/src/fixture.rs:96) → run_task (crates/experiments/src/fixture.rs:97) → rendezvous (crates/experiments/src/fixture.rs:101) → `.wait()`
}

/// A channel rendezvous smuggled into the merge step: one slow producer
/// stalls the worker.
fn merge(n: u64) -> u64 {
    let (tx, rx) = std::sync::mpsc::channel::<u64>();
    tx.send(n).ok();
    rx.recv().ok().unwrap_or(0) //~ ERROR hot-path-hygiene: block-in-hot-path: `.recv()`
}

// HOT-PATH-BOUNDARY: shard fan-out reviewed on its own
fn fan_out(n: u64) -> u64 {
    std::thread::sleep(std::time::Duration::from_millis(n)); //~ ERROR hot-path-hygiene: thread::sleep
    beyond(n)
}

fn beyond(n: u64) -> u64 {
    let h = std::thread::spawn(move || n);
    h.join().ok().unwrap_or(0)
}

/// Malformed annotations, one per shape.
/* HOT-PATH: */ pub fn unnamed() {} //~ ERROR hot-path-hygiene: names no path

// HOT-PATH: bad$name //~ ERROR hot-path-hygiene: characters outside
pub fn badly_named() {}

// HOT-PATH: fixture.ok extra //~ ERROR hot-path-hygiene: unexpected token
pub fn extra_tokens() {}

/* HOT-PATH-BOUNDARY: */ pub fn silent_boundary() {} //~ ERROR hot-path-hygiene: gives no reason

pub struct NotAFn;
// HOT-PATH: fixture.orphan //~ ERROR hot-path-hygiene: attaches to no fn
pub const NOT_A_FN: u32 = 1;
