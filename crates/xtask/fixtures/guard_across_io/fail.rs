//! guard-across-io fail fixture: guards (bound, temporary, and RwLock
//! read guards) live across page-I/O calls.

use std::sync::{Mutex, RwLock};

struct Disk;

struct Pool {
    inner: Mutex<u32>,
    disk: Disk,
}

impl Pool {
    fn bound_guard_across_read(&self) {
        let g = self.inner.lock();
        self.disk.read_page(0); //~ ERROR guard-across-io: io-under-lock
        let _ = g;
    }

    fn bound_guard_across_write(&self) {
        let g = self.inner.lock();
        self.disk.write_page(0, &[]); //~ ERROR guard-across-io: io-under-lock
        let _ = g;
    }

    fn temporary_guard_same_statement(&self) {
        self.inner.lock().flush(); //~ ERROR guard-across-io: io-under-lock
    }
}

struct Catalog {
    map: RwLock<u32>,
    disk: Disk,
}

impl Catalog {
    fn read_guard_across_io(&self) {
        let g = self.map.read();
        self.disk.read_page(0); //~ ERROR guard-across-io: io-under-lock
        let _ = g;
    }
}
