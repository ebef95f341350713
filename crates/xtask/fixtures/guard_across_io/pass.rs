//! guard-across-io pass fixture: the same shapes done right — the guard
//! dies (block scope or explicit `drop`) before the I/O call — and an
//! `io::Read::read` into a buffer, which is no acquisition.

use std::io::Read;
use std::sync::Mutex;

struct Disk;

struct Pool {
    inner: Mutex<u32>,
    disk: Disk,
}

impl Pool {
    fn block_scope_then_read(&self) {
        let page = {
            let g = self.inner.lock();
            *g
        };
        self.disk.read_page(page);
    }

    fn explicit_drop_then_write(&self) {
        let g = self.inner.lock();
        drop(g);
        self.disk.write_page(0, &[]);
    }

    fn stream_read_then_write(&self, src: &mut impl Read, buf: &mut [u8]) {
        let n = src.read(buf);
        self.disk.write_page(0, &buf[..n]);
    }
}
