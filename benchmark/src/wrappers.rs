//! The three benchmark-side wrappers over the crates' public traits that the
//! traced pass installs: page I/O, the facility, and the target-set source.
//! The end-to-end pass installs none of them.

use std::sync::Arc;

use setsig_core::{
    CandidateSet, ElementKey, ElementSet, Oid, ScanStats, SetAccessFacility, SetQuery,
    TargetSetSource,
};
use setsig_pagestore::{CacheStats, FileId, IoSnapshot, Page, PageIo};

use crate::trace::{self, Name};

/// Times and counts every call a facility makes into its page I/O.
pub struct TracedIo {
    inner: Arc<dyn PageIo>,
}

impl TracedIo {
    pub fn new(inner: Arc<dyn PageIo>) -> Self {
        TracedIo { inner }
    }
}

impl PageIo for TracedIo {
    fn read_page(&self, id: FileId, n: u32) -> setsig_pagestore::Result<Page> {
        let _span = trace::span(Name::Read, id.raw());
        self.inner.read_page(id, n)
    }

    fn write_page(&self, id: FileId, n: u32, page: &Page) -> setsig_pagestore::Result<()> {
        let _span = trace::span(Name::Write, id.raw());
        self.inner.write_page(id, n, page)
    }

    fn update_page(
        &self,
        id: FileId,
        n: u32,
        f: &mut dyn FnMut(&mut Page),
    ) -> setsig_pagestore::Result<()> {
        let _span = trace::span(Name::Write, id.raw());
        self.inner.update_page(id, n, f)
    }

    fn append_page(&self, id: FileId, page: &Page) -> setsig_pagestore::Result<u32> {
        let _span = trace::span(Name::Write, id.raw());
        self.inner.append_page(id, page)
    }

    fn page_count(&self, id: FileId) -> setsig_pagestore::Result<u32> {
        self.inner.page_count(id)
    }

    fn create_file(&self, name: &str) -> FileId {
        self.inner.create_file(name)
    }

    fn extend_to(&self, id: FileId, pages: u32) -> setsig_pagestore::Result<()> {
        let _span = trace::span(Name::Write, id.raw());
        self.inner.extend_to(id, pages)
    }

    fn snapshot(&self) -> IoSnapshot {
        self.inner.snapshot()
    }
}

/// What a file holds, from the name its owner created it under
/// (`Disk::file_info`): `x.ssf`, `x.s<j>`, `x.oid`, `x.nix`, `objects`.
pub fn file_class(name: &str) -> &'static str {
    let ext = name.rsplit_once('.').map_or("", |(_, ext)| ext);
    match ext {
        "ssf" => "signature",
        "oid" => "oid",
        "nix" => "btree",
        "meta" => "meta",
        _ if ext.starts_with('s') && ext[1..].bytes().all(|b| b.is_ascii_digit()) => "slice",
        _ if name == "objects" => "object",
        _ => "other",
    }
}

/// A key by which a worker thread recognises the query a client announced:
/// FNV-1a over the predicate and the element bytes.
pub fn query_key(query: &SetQuery) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    eat(query.predicate as u8);
    for e in &query.elements {
        for &b in e.as_bytes() {
            eat(b);
        }
        eat(0xff);
    }
    h
}

/// Records a span around a facility's filter stage and its updates. Handed
/// to `QueryService` in place of the facility, one span is one shard task.
pub struct TracedFacility<F> {
    inner: F,
    shard: u32,
}

impl<F> TracedFacility<F> {
    pub fn new(inner: F, shard: u32) -> Self {
        TracedFacility { inner, shard }
    }
}

impl<F: SetAccessFacility> SetAccessFacility for TracedFacility<F> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn insert(&mut self, oid: Oid, set: &[ElementKey]) -> setsig_core::Result<()> {
        let _span = trace::span(Name::FacInsert, self.shard);
        self.inner.insert(oid, set)
    }

    fn delete(&mut self, oid: Oid, set: &[ElementKey]) -> setsig_core::Result<()> {
        let _span = trace::span(Name::FacDelete, self.shard);
        self.inner.delete(oid, set)
    }

    fn candidates_with_stats(
        &self,
        query: &SetQuery,
    ) -> setsig_core::Result<(CandidateSet, Option<ScanStats>)> {
        // On a service worker thread nobody set the query: ask the registry.
        let adopted = trace::current_query() == 0;
        if adopted {
            trace::set_query(trace::lookup(query_key(query)));
        }
        let result = {
            let _span = trace::span(Name::Filter, self.shard);
            self.inner.candidates_with_stats(query)
        };
        if adopted {
            trace::set_query(0);
        }
        result
    }

    fn indexed_count(&self) -> u64 {
        self.inner.indexed_count()
    }

    fn storage_pages(&self) -> setsig_core::Result<u64> {
        self.inner.storage_pages()
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.inner.cache_stats()
    }
}

/// Times every object fetch false-drop resolution makes.
pub struct TimedSource<'a, S: ?Sized> {
    pub inner: &'a S,
}

impl<S: TargetSetSource + ?Sized> TargetSetSource for TimedSource<'_, S> {
    fn fetch_set(&self, oid: Oid) -> setsig_core::Result<ElementSet> {
        let _span = trace::span(Name::Fetch, 0);
        self.inner.fetch_set(oid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_classes_follow_the_creators_names() {
        assert_eq!(file_class("fac.ssf"), "signature");
        assert_eq!(file_class("fac.oid"), "oid");
        assert_eq!(file_class("fac.s0"), "slice");
        assert_eq!(file_class("shard1.s2499"), "slice");
        assert_eq!(file_class("fac.nix"), "btree");
        assert_eq!(file_class("objects"), "object");
        assert_eq!(file_class("fac.sx"), "other");
    }

    #[test]
    fn query_keys_tell_queries_apart() {
        let k = |p: fn(Vec<ElementKey>) -> SetQuery, e: &[u64]| {
            query_key(&p(e.iter().map(|&v| ElementKey::from(v)).collect()))
        };
        assert_eq!(
            k(SetQuery::has_subset, &[1, 2]),
            k(SetQuery::has_subset, &[2, 1])
        );
        assert_ne!(
            k(SetQuery::has_subset, &[1, 2]),
            k(SetQuery::in_subset, &[1, 2])
        );
        assert_ne!(
            k(SetQuery::has_subset, &[1, 2]),
            k(SetQuery::has_subset, &[1, 3])
        );
    }
}
