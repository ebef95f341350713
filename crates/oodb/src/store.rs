//! The object file: a slotted-page store with overflow for large records.
//!
//! Objects are stored "straightforwardly in the object file" (§4
//! assumptions): no decomposition, direct access by OID. Small records pack
//! into slotted pages, so fetching an object costs **one page read** — the
//! paper's `P_p = P_s = 1`. Records too large for one page span dedicated
//! contiguous pages and cost proportionally more, which the cost model
//! accommodates by raising `P_p`/`P_s`.
//!
//! The OID → location directory is kept in memory: in a real OODB the
//! physical address is embedded in (or hashed from) the OID itself, so the
//! paper's model charges no I/O for the translation.

use setsig_pagestore::{Page, PageIo, PagedFile, PAGE_SIZE};
use std::collections::HashMap;
use std::sync::Arc;

use setsig_core::Oid;

use crate::error::{Error, Result};
use crate::object::Object;
use crate::value::{AttrShape, Prim};

/// Page header: slot count (u16) + free offset (u16).
const HEADER: usize = 4;
/// Bytes per slot array entry: record offset (u16) + length (u16).
const SLOT: usize = 4;
/// Largest record stored inline in a slotted page.
const MAX_INLINE: usize = PAGE_SIZE - HEADER - SLOT;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Location {
    /// Record `slot` of slotted page `page`.
    Slot { page: u32, slot: u16 },
    /// `len` bytes spanning whole pages starting at `first_page`.
    Spanning { first_page: u32, len: u32 },
}

/// A slotted-page object store.
pub struct ObjectStore {
    file: PagedFile,
    directory: HashMap<Oid, Location>,
    /// Page currently accepting inline inserts: (page, free bytes, slots).
    tail: Option<(u32, usize, u16)>,
    count: u64,
}

impl ObjectStore {
    /// Creates an empty object store named `name` on `io`.
    pub fn create(io: Arc<dyn PageIo>, name: &str) -> Self {
        ObjectStore {
            file: PagedFile::create(io, name),
            directory: HashMap::new(),
            tail: None,
            count: 0,
        }
    }

    /// Number of stored objects.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// True when no objects are stored.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Pages occupied by the object file.
    pub fn storage_pages(&self) -> Result<u64> {
        Ok(self.file.len()? as u64)
    }

    /// True if `oid` is present.
    pub fn contains(&self, oid: Oid) -> bool {
        self.directory.contains_key(&oid)
    }

    /// All stored OIDs (unordered).
    pub fn oids(&self) -> impl Iterator<Item = Oid> + '_ {
        self.directory.keys().copied()
    }

    /// Stores `object`, keyed by its OID. Replaces any previous version.
    pub fn put(&mut self, object: &Object) -> Result<()> {
        if self.directory.contains_key(&object.oid) {
            self.delete(object.oid)?;
        }
        let record = object.encode();
        let loc = if record.len() <= MAX_INLINE {
            self.insert_inline(&record)?
        } else {
            self.insert_spanning(&record)?
        };
        self.directory.insert(object.oid, loc);
        self.count += 1;
        Ok(())
    }

    fn insert_inline(&mut self, record: &[u8]) -> Result<Location> {
        let needed = record.len() + SLOT;
        match self.tail {
            Some((page_no, free, nslots)) if free >= needed => {
                self.file.update(page_no, |page| write_slot(page, record))?;
                self.tail = Some((page_no, free - needed, nslots + 1));
                Ok(Location::Slot {
                    page: page_no,
                    slot: nslots,
                })
            }
            _ => {
                let mut page = Page::zeroed();
                page.write_u16(2, HEADER as u16);
                write_slot(&mut page, record);
                let page_no = self.file.append(&page)?;
                self.tail = Some((page_no, PAGE_SIZE - HEADER - needed, 1));
                Ok(Location::Slot {
                    page: page_no,
                    slot: 0,
                })
            }
        }
    }

    fn insert_spanning(&mut self, record: &[u8]) -> Result<Location> {
        let first_page = self.file.len()?;
        for chunk in record.chunks(PAGE_SIZE) {
            let mut page = Page::zeroed();
            page.write_slice(0, chunk);
            self.file.append(&page)?;
        }
        // A spanning insert closes the current tail page: subsequent inline
        // records start a fresh page, keeping spans contiguous.
        self.tail = None;
        Ok(Location::Spanning {
            first_page,
            len: record.len() as u32,
        })
    }

    /// Hands the stored record of `oid` to `read` — the one way a record is
    /// read. An inline record is the slot's bytes in the page snapshot (one
    /// page read, no copy); a spanning record is assembled from its
    /// `⌈len/P⌉` pages first.
    fn with_record<R>(&self, oid: Oid, read: impl FnOnce(&[u8]) -> Result<R>) -> Result<R> {
        match *self.directory.get(&oid).ok_or(Error::NoSuchObject(oid))? {
            Location::Slot { page, slot } => read(read_slot(&self.file.read(page)?, slot)?),
            Location::Spanning { first_page, len } => {
                let len = len as usize;
                let mut bytes = Vec::with_capacity(len);
                for i in 0..len.div_ceil(PAGE_SIZE) as u32 {
                    let p = self.file.read(first_page + i)?;
                    let take = (len - bytes.len()).min(PAGE_SIZE);
                    bytes.extend_from_slice(&p.as_bytes()[..take]);
                }
                read(&bytes)
            }
        }
    }

    /// Fetches the object `oid`. Inline records cost one page read;
    /// spanning records cost `⌈len/P⌉` reads.
    pub fn get(&self, oid: Oid) -> Result<Object> {
        self.with_record(oid, |bytes| {
            let object = Object::decode(bytes)?;
            check_oid(oid, object.oid)?;
            Ok(object)
        })
    }

    /// Reads attribute `attr` of object `oid` where it lies
    /// ([`Object::walk_attr`]): the page reads and the errors of
    /// [`get`](ObjectStore::get), no [`Object`].
    pub fn walk_attr(
        &self,
        oid: Oid,
        attr: usize,
        visit: &mut dyn FnMut(Prim<'_>),
    ) -> Result<AttrShape> {
        self.with_record(oid, |bytes| {
            let (found, shape) = Object::walk_attr(bytes, attr, visit)?;
            check_oid(oid, found)?;
            Ok(shape)
        })
    }

    /// Deletes `oid`: tombstones its slot (one read + one write for inline
    /// records; spanning pages are only dropped from the directory).
    pub fn delete(&mut self, oid: Oid) -> Result<()> {
        let loc = self
            .directory
            .remove(&oid)
            .ok_or(Error::NoSuchObject(oid))?;
        if let Location::Slot { page, slot } = loc {
            self.file.modify(page, |p| {
                let slot_off = PAGE_SIZE - (slot as usize + 1) * SLOT;
                p.write_u16(slot_off + 2, 0); // len = 0 marks the slot dead
            })?;
        }
        self.count -= 1;
        Ok(())
    }
}

/// The record the directory led to must be the one asked for.
fn check_oid(asked: Oid, found: Oid) -> Result<()> {
    if found != asked {
        return Err(Error::CorruptObject(format!(
            "directory points {asked} at record for {found}"
        )));
    }
    Ok(())
}

/// Appends `record` to the page, claiming the next slot. Caller guarantees
/// fit.
fn write_slot(page: &mut Page, record: &[u8]) {
    let nslots = page.read_u16(0) as usize;
    let free_off = page.read_u16(2) as usize;
    let slot_off = PAGE_SIZE - (nslots + 1) * SLOT;
    // One mutable borrow for all five fields (see `Page::as_bytes_mut`).
    let bytes = page.as_bytes_mut();
    let mut put_u16 =
        |off: usize, v: usize| bytes[off..off + 2].copy_from_slice(&(v as u16).to_le_bytes());
    put_u16(slot_off, free_off);
    put_u16(slot_off + 2, record.len());
    put_u16(0, nslots + 1);
    put_u16(2, free_off + record.len());
    bytes[free_off..free_off + record.len()].copy_from_slice(record);
}

fn read_slot(page: &Page, slot: u16) -> Result<&[u8]> {
    let nslots = page.read_u16(0);
    if slot >= nslots {
        return Err(Error::CorruptObject(format!("slot {slot} of {nslots}")));
    }
    let slot_off = PAGE_SIZE - (slot as usize + 1) * SLOT;
    let off = page.read_u16(slot_off) as usize;
    let len = page.read_u16(slot_off + 2) as usize;
    if len == 0 {
        return Err(Error::CorruptObject(format!("slot {slot} is dead")));
    }
    Ok(page.read_slice(off, len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ClassId;
    use crate::value::Value;
    use setsig_pagestore::Disk;

    fn store() -> (Arc<Disk>, ObjectStore) {
        let disk = Arc::new(Disk::new());
        let io: Arc<dyn PageIo> = Arc::clone(&disk) as Arc<dyn PageIo>;
        (disk, ObjectStore::create(io, "objects"))
    }

    fn obj(oid: u64, hobby_count: u64) -> Object {
        Object {
            oid: Oid::new(oid),
            class: ClassId(0),
            values: vec![Value::set(
                (0..hobby_count)
                    .map(|i| Value::Int((oid * 100 + i) as i64))
                    .collect(),
            )],
        }
    }

    #[test]
    fn put_get_roundtrip() {
        let (_d, mut s) = store();
        let o = obj(1, 5);
        s.put(&o).unwrap();
        assert_eq!(s.get(Oid::new(1)).unwrap(), o);
        assert_eq!(s.len(), 1);
        assert!(s.contains(Oid::new(1)));
        assert!(matches!(s.get(Oid::new(2)), Err(Error::NoSuchObject(_))));
    }

    #[test]
    fn small_objects_pack_many_per_page() {
        let (_d, mut s) = store();
        for i in 0..100 {
            s.put(&obj(i, 3)).unwrap();
        }
        // ~48-byte records + 4-byte slots: ≈78 per page → 2 pages for 100.
        assert_eq!(s.storage_pages().unwrap(), 2);
        for i in 0..100 {
            assert_eq!(s.get(Oid::new(i)).unwrap().oid, Oid::new(i));
        }
    }

    #[test]
    fn inline_get_costs_one_page_read() {
        let (disk, mut s) = store();
        for i in 0..50 {
            s.put(&obj(i, 4)).unwrap();
        }
        disk.reset_stats();
        let _ = s.get(Oid::new(25)).unwrap();
        assert_eq!(disk.snapshot().reads, 1, "the paper's P_s = 1");
    }

    #[test]
    fn large_objects_span_pages() {
        let (disk, mut s) = store();
        // A set with 1000 int elements: 9 bytes each + overhead ≈ 9 KiB.
        let big = obj(7, 1000);
        s.put(&big).unwrap();
        assert!(s.storage_pages().unwrap() >= 3);
        disk.reset_stats();
        assert_eq!(s.get(Oid::new(7)).unwrap(), big);
        assert!(disk.snapshot().reads >= 3, "spanning read costs ⌈len/P⌉");
    }

    /// `walk_attr` of attribute 0, as the integers it visited.
    fn walked(s: &ObjectStore, oid: u64) -> Result<Vec<i64>> {
        let mut seen = Vec::new();
        let shape = s.walk_attr(Oid::new(oid), 0, &mut |p| match p {
            Prim::Int(v) => seen.push(v),
            other => panic!("an int set holds {other:?}"),
        })?;
        assert_eq!(shape, AttrShape::PrimSet);
        Ok(seen)
    }

    #[test]
    fn walking_a_record_reads_the_pages_getting_it_reads() {
        let (disk, mut s) = store();
        for i in 0..50 {
            s.put(&obj(i, 4)).unwrap();
        }
        // 9 bytes an element: 2 full pages and a part.
        let big = obj(77, 1000);
        let pages = big.encode().len().div_ceil(PAGE_SIZE) as u64;
        assert_eq!(pages, 3);
        s.put(&big).unwrap();
        for (oid, reads) in [(25, 1), (77, pages)] {
            disk.reset_stats();
            let got = s.get(Oid::new(oid)).unwrap();
            assert_eq!(disk.snapshot().reads, reads);
            disk.reset_stats();
            let seen = walked(&s, oid).unwrap();
            assert_eq!(disk.snapshot().reads, reads, "the same ⌈len/P⌉");
            assert_eq!(
                Value::Set(seen.into_iter().map(Value::Int).collect()),
                got.values[0]
            );
        }
    }

    #[test]
    fn both_readers_refuse_a_dead_slot_and_a_record_of_another_oid() {
        let (_d, mut s) = store();
        s.put(&obj(1, 3)).unwrap();
        s.put(&obj(2, 3)).unwrap();
        let Location::Slot { page, slot } = s.directory[&Oid::new(1)] else {
            panic!("small records are inline");
        };
        let slot_off = PAGE_SIZE - (slot as usize + 1) * SLOT;
        let record_off = s.file.read(page).unwrap().read_u16(slot_off) as usize;
        // The record's OID field now says 2; the directory still says 1.
        s.file
            .modify(page, |p| p.write_slice(record_off, &2u64.to_le_bytes()))
            .unwrap();
        for err in [s.get(Oid::new(1)).err(), walked(&s, 1).err()] {
            let Some(Error::CorruptObject(msg)) = err else {
                panic!("expected a corrupt-object error, got {err:?}");
            };
            assert!(msg.contains("directory points"), "{msg}");
        }
        // Tombstone the slot behind the directory's back.
        s.file
            .modify(page, |p| p.write_u16(slot_off + 2, 0))
            .unwrap();
        for err in [s.get(Oid::new(1)).err(), walked(&s, 1).err()] {
            let Some(Error::CorruptObject(msg)) = err else {
                panic!("expected a corrupt-object error, got {err:?}");
            };
            assert!(msg.contains("is dead"), "{msg}");
        }
        assert_eq!(walked(&s, 2).unwrap(), [200, 201, 202]);
    }

    #[test]
    fn spanning_then_inline_do_not_collide() {
        let (_d, mut s) = store();
        s.put(&obj(1, 3)).unwrap();
        s.put(&obj(2, 1000)).unwrap();
        s.put(&obj(3, 3)).unwrap();
        for i in 1..=3 {
            assert_eq!(s.get(Oid::new(i)).unwrap().oid, Oid::new(i));
        }
    }

    #[test]
    fn delete_tombstones_and_forgets() {
        let (_d, mut s) = store();
        s.put(&obj(1, 3)).unwrap();
        s.put(&obj(2, 3)).unwrap();
        s.delete(Oid::new(1)).unwrap();
        assert_eq!(s.len(), 1);
        assert!(s.get(Oid::new(1)).is_err());
        assert!(s.get(Oid::new(2)).is_ok());
        assert!(s.delete(Oid::new(1)).is_err());
    }

    #[test]
    fn put_replaces_existing_version() {
        let (_d, mut s) = store();
        s.put(&obj(1, 3)).unwrap();
        let updated = obj(1, 7);
        s.put(&updated).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(Oid::new(1)).unwrap(), updated);
    }

    #[test]
    fn oids_iterates_live_objects() {
        let (_d, mut s) = store();
        for i in 0..5 {
            s.put(&obj(i, 2)).unwrap();
        }
        s.delete(Oid::new(3)).unwrap();
        let mut oids: Vec<u64> = s.oids().map(setsig_core::Oid::raw).collect();
        oids.sort_unstable();
        assert_eq!(oids, vec![0, 1, 2, 4]);
    }
}
