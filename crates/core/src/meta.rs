//! Catalog checkpoints: serializing facility metadata to a meta file.
//!
//! The paper's cost model has no catalog — facility state (entry counts,
//! file bindings, design parameters) lives in memory. To make facilities
//! *reopenable* across process lifetimes (see the `persistence` example),
//! each facility can checkpoint its state into a one-blob meta file with
//! `sync_meta()` and be reconstructed with `open()`. Checkpoints are
//! explicit, so the per-operation page costs stay exactly the paper's.

use setsig_pagestore::{FileId, PageIo, PagedFile};
use std::sync::Arc;

use crate::error::{Error, Result};

/// A little-endian byte writer for metadata blobs: a 4-byte magic tag, then
/// the fields in the order they are written.
pub struct MetaWriter {
    buf: Vec<u8>,
}

impl MetaWriter {
    /// Starts a blob tagged `magic`.
    pub fn new(magic: &[u8; 4]) -> Self {
        MetaWriter {
            buf: magic.to_vec(),
        }
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// The finished blob.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// The matching reader; all methods fail with a catalog error
/// ([`Error::BadConfig`]) on a wrong tag, an underrun or trailing bytes.
pub struct MetaReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> MetaReader<'a> {
    /// Opens `buf`, which must start with `magic`.
    pub fn new(buf: &'a [u8], magic: &[u8; 4]) -> Result<Self> {
        if buf.len() < 4 || &buf[..4] != magic {
            return Err(Error::BadConfig(format!(
                "meta blob has wrong magic (expected {:?})",
                std::str::from_utf8(magic).unwrap_or("?")
            )));
        }
        Ok(MetaReader { buf, pos: 4 })
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N]> {
        let bytes = (self.buf.get(self.pos..self.pos + N))
            .and_then(|slice| slice.try_into().ok())
            .ok_or_else(|| Error::BadConfig("truncated meta blob".into()))?;
        self.pos += N;
        Ok(bytes)
    }

    /// Reads the next `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take()?))
    }

    /// Reads the next `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take()?))
    }

    /// Fails unless every byte was read.
    pub fn done(&self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(Error::BadConfig("trailing bytes in meta blob".into()));
        }
        Ok(())
    }
}

/// Writes a meta blob into `meta` (creating `<name>.meta` on `io` when `meta`
/// is `None`), returning the meta file's id.
pub fn checkpoint(
    io: &Arc<dyn PageIo>,
    meta: &mut Option<PagedFile>,
    name: &str,
    blob: &[u8],
) -> Result<FileId> {
    let file =
        meta.get_or_insert_with(|| PagedFile::create(Arc::clone(io), &format!("{name}.meta")));
    file.write_blob(blob)?;
    Ok(file.id())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_roundtrip() {
        let mut w = MetaWriter::new(b"TST1");
        w.u32(7);
        w.u64(1 << 40);
        let blob = w.finish();
        let mut r = MetaReader::new(&blob, b"TST1").unwrap();
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        r.done().unwrap();
    }

    #[test]
    fn wrong_magic_and_truncation_rejected() {
        let mut w = MetaWriter::new(b"TST1");
        w.u32(7);
        let blob = w.finish();
        assert!(MetaReader::new(&blob, b"OTHR").is_err());
        let mut r = MetaReader::new(&blob, b"TST1").unwrap();
        assert!(r.u64().is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = MetaWriter::new(b"TST1");
        w.u32(7);
        w.u32(8);
        let blob = w.finish();
        let mut r = MetaReader::new(&blob, b"TST1").unwrap();
        let _ = r.u32().unwrap();
        assert!(r.done().is_err());
    }
}
