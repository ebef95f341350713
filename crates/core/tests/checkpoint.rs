//! Catalog checkpoints of the three signature file layouts: the bytes
//! `sync_meta` writes, and what `open` and a delete make of a damaged one.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test code

use setsig_core::{
    Bssf, ElementKey, Error, Fssf, FssfConfig, Oid, OidFile, SetAccessFacility, SignatureConfig,
    Ssf, OIDS_PER_PAGE,
};
use setsig_pagestore::{Disk, Error as StorageError, FileId, PageIo, PagedFile, PAGE_SIZE};
use std::sync::Arc;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn blob(io: &Arc<dyn PageIo>, meta: FileId) -> Vec<u8> {
    PagedFile::open(Arc::clone(io), meta).read_blob().unwrap()
}

fn rewrite(io: &Arc<dyn PageIo>, meta: FileId, at: usize, field: &[u8]) {
    let mut bytes = blob(io, meta);
    bytes[at..at + field.len()].copy_from_slice(field);
    PagedFile::open(Arc::clone(io), meta)
        .write_blob(&bytes)
        .unwrap();
}

/// Objects 1..=3 with sets of 1..=3 elements, object 2 deleted: `len` 3,
/// `live` 2, `Σ|T|` 1 + 3 = 4.
fn fill(f: &mut dyn SetAccessFacility) {
    let set = |i: u64| {
        (0..i)
            .map(|j| ElementKey::from(i * 10 + j))
            .collect::<Vec<_>>()
    };
    for i in 1..=3u64 {
        f.insert(Oid::new(i), &set(i)).unwrap();
    }
    f.delete(Oid::new(2), &set(2)).unwrap();
}

/// The layout's head fields, then the OID file's id / `len` / `live` and
/// `Σ|T|`, then the layout's tail fields — byte for byte, so that a field
/// order both `sync_meta` and `open` change together still fails here.
#[test]
fn checkpoint_blobs_are_byte_identical_to_the_pinned_layout() {
    let io: Arc<dyn PageIo> = Arc::new(Disk::new());

    let mut ssf = Ssf::create(Arc::clone(&io), "s", SignatureConfig::new(64, 2).unwrap()).unwrap();
    fill(&mut ssf);
    let meta = ssf.sync_meta().unwrap();
    assert_eq!(
        hex(&blob(&io, meta)),
        concat!(
            "53534631",         // "SSF1"
            "40000000",         // F = 64
            "02000000",         // m = 2
            "aa16d55e5016755e", // seed
            "00000000",         // signature file
            "01000000",         // OID file
            "0300000000000000", // len
            "0200000000000000", // live
            "0400000000000000", // Σ|T|
        )
    );

    let mut bssf = Bssf::create(Arc::clone(&io), "b", SignatureConfig::new(8, 2).unwrap()).unwrap();
    fill(&mut bssf);
    let meta = bssf.sync_meta().unwrap();
    assert_eq!(
        hex(&blob(&io, meta)),
        concat!(
            "42534631",                         // "BSF1"
            "08000000",                         // F = 8
            "02000000",                         // m = 2
            "aa16d55e5016755e",                 // seed
            "0b000000",                         // OID file
            "0300000000000000",                 // len
            "0200000000000000",                 // live
            "0400000000000000",                 // Σ|T|
            "03000000040000000500000006000000", // slices 0..4
            "0700000008000000090000000a000000", // slices 4..8
        )
    );

    let mut fssf = Fssf::create(Arc::clone(&io), "f", FssfConfig::new(8, 2, 2).unwrap()).unwrap();
    fill(&mut fssf);
    let meta = fssf.sync_meta().unwrap();
    assert_eq!(
        hex(&blob(&io, meta)),
        concat!(
            "46534631",         // "FSF1"
            "08000000",         // F = 8
            "02000000",         // k = 2
            "02000000",         // m = 2
            "aa16d55e5016755e", // seed
            "0f000000",         // OID file
            "0300000000000000", // len
            "0200000000000000", // live
            "0400000000000000", // Σ|T|
            "0d0000000e000000", // frames
        )
    );
}

/// An `SSF1` checkpoint whose `F` no longer fits a page is refused on
/// open, as `create` refuses it: a reopened file must never reach the
/// division by its zero signatures per page.
#[test]
fn an_ssf_checkpoint_wider_than_a_page_is_a_bad_config() {
    let io: Arc<dyn PageIo> = Arc::new(Disk::new());
    let mut ssf = Ssf::create(Arc::clone(&io), "s", SignatureConfig::new(64, 2).unwrap()).unwrap();
    let meta = ssf.sync_meta().unwrap();
    let too_wide = (PAGE_SIZE as u32 + 8) * 8;
    rewrite(&io, meta, 4, &too_wide.to_le_bytes());

    match Ssf::open(io, meta) {
        Err(Error::BadConfig(msg)) => assert!(msg.contains("does not fit"), "{msg}"),
        Err(other) => panic!("expected BadConfig, got {other}"),
        Ok(mut reopened) => {
            let inserted = reopened.insert(Oid::new(1), &[ElementKey::from(1u64)]);
            panic!("a {too_wide}-bit SSF reopened; its first insert gave {inserted:?}");
        }
    }
}

/// A checkpoint whose `live` count is short of the live entries makes a
/// delete fail as `Corrupted` instead of wrapping the count below zero.
#[test]
fn a_short_live_count_fails_the_delete_as_corrupted() {
    let io: Arc<dyn PageIo> = Arc::new(Disk::new());
    let mut bssf =
        Bssf::create(Arc::clone(&io), "b", SignatureConfig::new(64, 2).unwrap()).unwrap();
    bssf.insert(Oid::new(1), &[ElementKey::from(1u64)]).unwrap();
    let meta = bssf.sync_meta().unwrap();
    // "BSF1", F, m, seed, OID file id, len: `live` starts at byte 32.
    rewrite(&io, meta, 32, &0u64.to_le_bytes());

    let mut reopened = Bssf::open(Arc::clone(&io), meta).unwrap();
    assert_eq!(reopened.indexed_count(), 0);
    assert!(matches!(
        reopened.delete(Oid::new(1), &[]),
        Err(Error::Corrupted(_))
    ));
}

/// A checkpoint whose counters the OID file cannot hold is refused on
/// open: `live > len` would report objects that do not exist, and a `len`
/// past the file's last page would fail every query.
#[test]
fn oid_counters_past_the_oid_file_are_corrupted_on_open() {
    let io: Arc<dyn PageIo> = Arc::new(Disk::new());
    let mut bssf =
        Bssf::create(Arc::clone(&io), "b", SignatureConfig::new(64, 2).unwrap()).unwrap();
    bssf.insert(Oid::new(1), &[ElementKey::from(1u64)]).unwrap();
    let meta = bssf.sync_meta().unwrap();
    let oid_file = bssf.oid_file().file().id();
    let pristine = blob(&io, meta);
    // "BSF1", F, m, seed, OID file id: `len` starts at byte 24, `live` at 32.
    for (at, value) in [(32, 2u64), (24, OIDS_PER_PAGE + 1)] {
        rewrite(&io, meta, at, &value.to_le_bytes());
        assert!(
            matches!(Bssf::open(Arc::clone(&io), meta), Err(Error::Corrupted(_))),
            "byte {at} = {value}"
        );
        PagedFile::open(Arc::clone(&io), meta)
            .write_blob(&pristine)
            .unwrap();
    }
    assert_eq!(
        Bssf::open(Arc::clone(&io), meta).unwrap().indexed_count(),
        1
    );

    let reopen = |len, live| OidFile::reopen(PagedFile::open(Arc::clone(&io), oid_file), len, live);
    assert!(matches!(reopen(1, 2), Err(Error::Corrupted(_))));
    assert!(matches!(
        reopen(OIDS_PER_PAGE + 1, 1),
        Err(Error::Corrupted(_))
    ));
    assert_eq!(reopen(OIDS_PER_PAGE, 1).unwrap().len(), OIDS_PER_PAGE);
}

/// A meta file whose blob length runs past its pages is an error on open,
/// not an allocation of the length it claims.
#[test]
fn a_meta_blob_longer_than_its_file_fails_the_open() {
    let io: Arc<dyn PageIo> = Arc::new(Disk::new());
    let mut ssf = Ssf::create(Arc::clone(&io), "s", SignatureConfig::new(64, 2).unwrap()).unwrap();
    let meta = ssf.sync_meta().unwrap();
    PagedFile::open(Arc::clone(&io), meta)
        .modify(0, |page| page.write_u32(0, u32::MAX))
        .unwrap();
    assert!(matches!(
        Ssf::open(io, meta),
        Err(Error::Storage(StorageError::CorruptImage(_)))
    ));
}
