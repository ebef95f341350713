//! A page-oriented B-tree mapping 8-byte keys to posting lists of OIDs.

use setsig_core::{Error, Result};
use setsig_pagestore::{Page, PageIo, PagedFile};
use std::sync::Arc;

use crate::node::{
    page_type, Internal, Leaf, LeafEntry, Overflow, MAX_INLINE_OIDS, MAX_INTERNAL_KEYS, NO_PAGE,
    TYPE_INTERNAL, TYPE_LEAF,
};

/// A B-tree whose leaf entries are `(key, OID list)` postings — the storage
/// structure of the nested index.
///
/// Structure-modifying operations split leaves and internal nodes upward;
/// postings larger than `MAX_INLINE_OIDS` move to overflow chains.
/// Deletion removes OIDs (and empty entries) but never merges pages — the
/// paper's update model likewise ignores structural shrinkage.
pub struct BTree {
    file: PagedFile,
    root: u32,
    /// Internal levels above the leaves (0 = the root is a leaf).
    height: u32,
    key_count: u64,
    posting_count: u64,
    /// Catalog checkpoint file; created lazily by [`BTree::sync_meta`].
    meta_file: Option<PagedFile>,
}

impl BTree {
    /// Creates an empty tree in a new file named `name` on `io`.
    #[expect(
        clippy::expect_used,
        reason = "root-leaf append to a file allocated one line earlier; fails only under fault injection, where aborting is the test's intent"
    )]
    pub fn create(io: Arc<dyn PageIo>, name: &str) -> Self {
        let file = PagedFile::create(io, name);
        let mut page = Page::zeroed();
        Leaf::init(&mut page);
        let root = file.append(&page).expect("fresh file append");
        BTree {
            file,
            root,
            height: 0,
            key_count: 0,
            posting_count: 0,
            meta_file: None,
        }
    }

    /// Checkpoints the tree's catalog state (root, height, counters, file
    /// binding) into its meta file, creating it on first use. Returns the
    /// meta file id to hand to [`BTree::open`].
    pub fn sync_meta(&mut self) -> Result<setsig_pagestore::FileId> {
        let meta = match &self.meta_file {
            Some(f) => f.clone(),
            None => {
                let f = PagedFile::create(Arc::clone(self.file.io()), "btree.meta");
                self.meta_file = Some(f.clone());
                f
            }
        };
        let mut blob = Vec::with_capacity(4 + 4 + 4 + 4 + 8 + 8);
        blob.extend_from_slice(b"NIX1");
        blob.extend_from_slice(&self.file.id().raw().to_le_bytes());
        blob.extend_from_slice(&self.root.to_le_bytes());
        blob.extend_from_slice(&self.height.to_le_bytes());
        blob.extend_from_slice(&self.key_count.to_le_bytes());
        blob.extend_from_slice(&self.posting_count.to_le_bytes());
        meta.write_blob(&blob)?;
        Ok(meta.id())
    }

    /// Reopens a tree from the meta file written by [`BTree::sync_meta`].
    #[expect(
        clippy::unwrap_used,
        reason = "slice-to-array conversion of a subslice whose length the index expression fixes; cannot fail"
    )]
    pub fn open(io: Arc<dyn PageIo>, meta: setsig_pagestore::FileId) -> Result<Self> {
        let meta_file = PagedFile::open(Arc::clone(&io), meta);
        let blob = meta_file.read_blob()?;
        if blob.len() != 32 || &blob[..4] != b"NIX1" {
            return Err(Error::BadConfig("not a B-tree meta blob".into()));
        }
        let rd_u32 = |o: usize| u32::from_le_bytes(blob[o..o + 4].try_into().unwrap());
        let rd_u64 = |o: usize| u64::from_le_bytes(blob[o..o + 8].try_into().unwrap());
        Ok(BTree {
            file: PagedFile::open(io, setsig_pagestore::FileId::from_raw(rd_u32(4))),
            root: rd_u32(8),
            height: rd_u32(12),
            key_count: rd_u64(16),
            posting_count: rd_u64(24),
            meta_file: Some(meta_file),
        })
    }

    /// The page I/O backend the tree lives on.
    pub fn file_io(&self) -> &Arc<dyn PageIo> {
        self.file.io()
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> u64 {
        self.key_count
    }

    /// Total `(key, oid)` postings.
    pub fn posting_count(&self) -> u64 {
        self.posting_count
    }

    /// Internal levels above the leaves.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Pages occupied by the index file (leaves + internals + overflow).
    pub fn storage_pages(&self) -> Result<u64> {
        Ok(self.file.len()? as u64)
    }

    /// Per-key look-up cost in page reads: root-to-leaf path length. (The
    /// paper's `rc`, excluding overflow chain links.)
    pub fn rc_lookup(&self) -> u32 {
        self.height + 1
    }

    /// Overflow-chain links behind a posting list of `postings` OIDs that
    /// only ever grew: none while the list fits its leaf entry, then one
    /// link per `OVERFLOW_CAPACITY` OIDs. A look-up reads each link once,
    /// on top of [`rc_lookup`](Self::rc_lookup).
    pub fn chain_links(postings: u64) -> u64 {
        if postings <= MAX_INLINE_OIDS as u64 {
            0
        } else {
            postings.div_ceil(crate::node::OVERFLOW_CAPACITY as u64)
        }
    }

    /// Walks from the root to the leaf responsible for `key`, handing each
    /// internal page number on the way to `on_internal` (split propagation
    /// keeps them as its path; a look-up keeps nothing), and returns the leaf
    /// page number and the leaf page itself (so callers don't pay a second
    /// read).
    fn descend(&self, key: u64, mut on_internal: impl FnMut(u32)) -> Result<(u32, Page)> {
        let mut page_no = self.root;
        loop {
            let page = self.file.read(page_no)?;
            match page_type(&page) {
                TYPE_LEAF => return Ok((page_no, page)),
                TYPE_INTERNAL => {
                    on_internal(page_no);
                    page_no = Internal::child(&page, Internal::child_for(&page, key));
                }
                other => {
                    return Err(Error::BadConfig(format!(
                        "page {page_no} has unexpected type {other} on descent"
                    )))
                }
            }
        }
    }

    /// Adds `oid` to the posting list of `key`.
    pub fn insert(&mut self, key: u64, oid: u64) -> Result<()> {
        let mut path = Vec::with_capacity(self.height as usize);
        let (leaf_no, page) = self.descend(key, |node_no| path.push(node_no))?;
        if let Some((sep, new_page)) = self.insert_into_leaf(leaf_no, page, key, oid)? {
            self.propagate_split(path, sep, new_page)?;
        }
        self.posting_count += 1;
        Ok(())
    }

    fn insert_into_leaf(
        &mut self,
        leaf_no: u32,
        mut page: Page,
        key: u64,
        oid: u64,
    ) -> Result<Option<(u64, u32)>> {
        match Leaf::search(&page, key) {
            Ok(slot) => match Leaf::entry_at(&page, slot) {
                LeafEntry::Overflow {
                    key,
                    chain_head,
                    total,
                } => {
                    let new_head = self.push_overflow(chain_head, oid)?;
                    let stub = LeafEntry::Overflow {
                        key,
                        chain_head: new_head,
                        total: total + 1,
                    };
                    // Stub is fixed-size: always fits in place.
                    assert!(Leaf::replace_entry(&mut page, slot, &stub));
                    self.file.write(leaf_no, &page)?;
                    Ok(None)
                }
                LeafEntry::Inline { key, mut oids } => {
                    if oids.len() + 1 > MAX_INLINE_OIDS {
                        // Migrate the posting to an overflow chain.
                        oids.push(oid);
                        let total = oids.len() as u32;
                        let chain_head = self.build_chain(&oids)?;
                        let stub = LeafEntry::Overflow {
                            key,
                            chain_head,
                            total,
                        };
                        assert!(Leaf::replace_entry(&mut page, slot, &stub));
                        self.file.write(leaf_no, &page)?;
                        return Ok(None);
                    }
                    oids.push(oid);
                    let entry = LeafEntry::Inline { key, oids };
                    if Leaf::replace_entry(&mut page, slot, &entry) {
                        self.file.write(leaf_no, &page)?;
                        return Ok(None);
                    }
                    // No heap room: compact, then retry or split.
                    let mut entries = Leaf::entries(&page);
                    entries[slot] = entry;
                    self.place_or_split(leaf_no, page, entries)
                }
            },
            Err(pos) => {
                self.key_count += 1;
                let entry = LeafEntry::Inline {
                    key,
                    oids: vec![oid],
                };
                if Leaf::free_space(&page) >= entry.encoded_len() + 4 {
                    Leaf::insert_entry(&mut page, pos, &entry);
                    self.file.write(leaf_no, &page)?;
                    return Ok(None);
                }
                let mut entries = Leaf::entries(&page);
                entries.insert(pos, entry);
                self.place_or_split(leaf_no, page, entries)
            }
        }
    }

    /// Rebuilds `entries` into the leaf if they fit, otherwise splits them
    /// across the leaf and a new right sibling.
    fn place_or_split(
        &mut self,
        leaf_no: u32,
        mut page: Page,
        entries: Vec<LeafEntry>,
    ) -> Result<Option<(u64, u32)>> {
        let total: usize = entries.iter().map(|e| e.encoded_len() + 4).sum();
        if total <= setsig_pagestore::PAGE_SIZE - 8 {
            Leaf::rebuild(&mut page, &entries);
            self.file.write(leaf_no, &page)?;
            return Ok(None);
        }
        // Split at the byte midpoint.
        let mut acc = 0usize;
        let mut cut = entries.len() - 1;
        for (i, e) in entries.iter().enumerate() {
            acc += e.encoded_len() + 4;
            if acc > total / 2 {
                cut = (i + 1).min(entries.len() - 1).max(1);
                break;
            }
        }
        let (left, right) = entries.split_at(cut);
        Leaf::rebuild(&mut page, left);
        self.file.write(leaf_no, &page)?;
        let mut rpage = Page::zeroed();
        Leaf::rebuild(&mut rpage, right);
        let new_page = self.file.append(&rpage)?;
        Ok(Some((right[0].key(), new_page)))
    }

    /// Inserts separator keys up the path after a child split; grows a new
    /// root if the old root split.
    fn propagate_split(
        &mut self,
        mut path: Vec<u32>,
        mut sep: u64,
        mut new_child: u32,
    ) -> Result<()> {
        while let Some(node_no) = path.pop() {
            let mut page = self.file.read(node_no)?;
            let pos = Internal::child_for(&page, sep);
            if Internal::count(&page) < MAX_INTERNAL_KEYS {
                Internal::insert_at(&mut page, pos, sep, new_child);
                self.file.write(node_no, &page)?;
                return Ok(());
            }
            // Full: split this internal node, then insert into the proper
            // half before propagating the median upward.
            let (median, rkeys, rchildren) = Internal::split(&mut page);
            let mut rpage = Page::zeroed();
            Internal::build(&mut rpage, &rkeys, &rchildren);
            if sep < median {
                let pos = Internal::child_for(&page, sep);
                Internal::insert_at(&mut page, pos, sep, new_child);
            } else {
                let pos = Internal::child_for(&rpage, sep);
                Internal::insert_at(&mut rpage, pos, sep, new_child);
            }
            self.file.write(node_no, &page)?;
            let right_no = self.file.append(&rpage)?;
            sep = median;
            new_child = right_no;
        }
        // The root itself split: grow the tree.
        let mut root = Page::zeroed();
        Internal::init(&mut root, self.root);
        Internal::insert_at(&mut root, 0, sep, new_child);
        self.root = self.file.append(&root)?;
        self.height += 1;
        Ok(())
    }

    /// Prepends `oid` to the chain starting at `head`; returns the (possibly
    /// new) head page.
    fn push_overflow(&mut self, head: u32, oid: u64) -> Result<u32> {
        let mut page = self.file.read(head)?;
        if Overflow::push(&mut page, oid) {
            self.file.write(head, &page)?;
            return Ok(head);
        }
        let mut link = Page::zeroed();
        Overflow::init(&mut link, head);
        assert!(Overflow::push(&mut link, oid));
        self.file.append(&link).map_err(Error::from)
    }

    /// Builds a fresh chain holding `oids`, returning its head page.
    fn build_chain(&mut self, oids: &[u64]) -> Result<u32> {
        let mut head = NO_PAGE;
        for chunk in oids.chunks(crate::node::OVERFLOW_CAPACITY) {
            let mut link = Page::zeroed();
            Overflow::init(&mut link, head);
            for &oid in chunk {
                assert!(Overflow::push(&mut link, oid));
            }
            head = self.file.append(&link)?;
        }
        Ok(head)
    }

    /// The posting list of `key` (empty when absent): [`lookup_into`]
    /// a fresh `Vec`.
    ///
    /// [`lookup_into`]: BTree::lookup_into
    pub fn lookup(&self, key: u64, pages: &mut u64) -> Result<Vec<u64>> {
        let mut oids = Vec::new();
        self.lookup_into(key, &mut oids, pages)?;
        Ok(oids)
    }

    /// Appends the posting list of `key` to `out` (nothing when absent),
    /// growing it at most once. Costs `height + 1 (+ chain length)` page
    /// reads — the paper's `rc` — and adds them to `pages`, the calling
    /// query's counter (`&mut 0` when nobody is counting).
    pub fn lookup_into(&self, key: u64, out: &mut Vec<u64>, pages: &mut u64) -> Result<()> {
        let (_, page) = self.descend(key, |_| {})?;
        *pages += u64::from(self.rc_lookup());
        let Ok(slot) = Leaf::search(&page, key) else {
            return Ok(());
        };
        let Some((head, total)) = Leaf::read_postings(&page, slot, out) else {
            return Ok(());
        };
        out.reserve(total as usize);
        *pages += self.read_chain(head, out)?;
        Ok(())
    }

    /// Appends the OIDs of the overflow chain starting at `link` to `out`,
    /// returning the links read.
    fn read_chain(&self, mut link: u32, out: &mut Vec<u64>) -> Result<u64> {
        let mut links = 0;
        while link != NO_PAGE {
            let page = self.file.read(link)?;
            links += 1;
            out.extend((0..Overflow::count(&page)).map(|i| Overflow::oid(&page, i)));
            link = Overflow::next(&page);
        }
        Ok(links)
    }

    /// Removes `oid` from `key`'s posting list. Returns whether it was
    /// present. Empty entries are removed; pages are never merged.
    pub fn remove(&mut self, key: u64, oid: u64) -> Result<bool> {
        let (leaf_no, mut page) = self.descend(key, |_| {})?;
        let Ok(slot) = Leaf::search(&page, key) else {
            return Ok(false);
        };
        match Leaf::entry_at(&page, slot) {
            LeafEntry::Inline { key, mut oids } => {
                let Some(pos) = oids.iter().position(|&o| o == oid) else {
                    return Ok(false);
                };
                oids.remove(pos);
                if oids.is_empty() {
                    Leaf::remove_entry(&mut page, slot);
                    self.key_count -= 1;
                } else {
                    // Shrinking always fits in place.
                    assert!(Leaf::replace_entry(
                        &mut page,
                        slot,
                        &LeafEntry::Inline { key, oids }
                    ));
                }
                self.file.write(leaf_no, &page)?;
                self.posting_count -= 1;
                Ok(true)
            }
            LeafEntry::Overflow {
                key,
                chain_head,
                total,
            } => {
                let mut link = chain_head;
                while link != NO_PAGE {
                    let mut lp = self.file.read(link)?;
                    if let Some(i) =
                        (0..Overflow::count(&lp)).find(|&i| Overflow::oid(&lp, i) == oid)
                    {
                        Overflow::swap_remove(&mut lp, i);
                        self.file.write(link, &lp)?;
                        let stub = LeafEntry::Overflow {
                            key,
                            chain_head,
                            total: total - 1,
                        };
                        assert!(Leaf::replace_entry(&mut page, slot, &stub));
                        self.file.write(leaf_no, &page)?;
                        self.posting_count -= 1;
                        return Ok(true);
                    }
                    link = Overflow::next(&lp);
                }
                Ok(false)
            }
        }
    }

    /// Walks the whole tree validating structural invariants (sorted keys,
    /// consistent separators, posting counts). Test/debug helper; reads
    /// every page.
    pub fn check_integrity(&self) -> Result<()> {
        self.check_and_visit(&mut |_, _| {})
    }

    /// [`check_integrity`](BTree::check_integrity), handing every
    /// `(key, posting)` to `visit` on the way, keys ascending.
    pub fn check_and_visit(&self, visit: &mut dyn FnMut(u64, u64)) -> Result<()> {
        let mut counted = (0u64, 0u64);
        self.check_node(self.root, (None, None), self.height, &mut counted, visit)?;
        let (keys, postings) = counted;
        if keys != self.key_count {
            return Err(Error::BadConfig(format!(
                "key count drift: counted {keys}, tracked {}",
                self.key_count
            )));
        }
        if postings != self.posting_count {
            return Err(Error::BadConfig(format!(
                "posting count drift: counted {postings}, tracked {}",
                self.posting_count
            )));
        }
        Ok(())
    }

    /// Checks the subtree at `page_no`, whose keys must lie in
    /// `[lower, upper)`, adding its `(keys, postings)` to `counted`.
    fn check_node(
        &self,
        page_no: u32,
        (lower, upper): (Option<u64>, Option<u64>),
        depth_left: u32,
        counted: &mut (u64, u64),
        visit: &mut dyn FnMut(u64, u64),
    ) -> Result<()> {
        let bad = |msg: String| Err(Error::BadConfig(msg));
        let page = self.file.read(page_no)?;
        match page_type(&page) {
            TYPE_LEAF => {
                if depth_left != 0 {
                    return bad(format!("leaf {page_no} at nonzero depth {depth_left}"));
                }
                let mut prev: Option<u64> = None;
                let mut list = Vec::new();
                for i in 0..Leaf::count(&page) {
                    let k = Leaf::key_at(&page, i);
                    if let Some(p) = prev {
                        if p >= k {
                            return bad(format!("leaf {page_no} keys out of order"));
                        }
                    }
                    if lower.is_some_and(|l| k < l) || upper.is_some_and(|u| k >= u) {
                        return bad(format!("leaf {page_no} key {k} outside separators"));
                    }
                    prev = Some(k);
                    list.clear();
                    if let Some((head, total)) = Leaf::read_postings(&page, i, &mut list) {
                        self.read_chain(head, &mut list)?;
                        if list.len() != total as usize {
                            return bad(format!(
                                "chain of key {k}: stub says {total}, chain has {}",
                                list.len()
                            ));
                        }
                    }
                    counted.0 += 1;
                    counted.1 += list.len() as u64;
                    list.iter().for_each(|&posting| visit(k, posting));
                }
                Ok(())
            }
            TYPE_INTERNAL => {
                if depth_left == 0 {
                    return bad(format!("internal {page_no} at leaf depth"));
                }
                let count = Internal::count(&page);
                let mut prev: Option<u64> = None;
                for i in 0..count {
                    let k = Internal::key(&page, i);
                    if let Some(p) = prev {
                        if p >= k {
                            return bad(format!("internal {page_no} keys out of order"));
                        }
                    }
                    prev = Some(k);
                }
                for i in 0..=count {
                    let lo = if i == 0 {
                        lower
                    } else {
                        Some(Internal::key(&page, i - 1))
                    };
                    let hi = if i == count {
                        upper
                    } else {
                        Some(Internal::key(&page, i))
                    };
                    let child = Internal::child(&page, i);
                    self.check_node(child, (lo, hi), depth_left - 1, counted, visit)?;
                }
                Ok(())
            }
            other => bad(format!("page {page_no} has type {other} inside tree")),
        }
    }
}

impl std::fmt::Debug for BTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BTree {{ keys: {}, postings: {}, height: {} }}",
            self.key_count, self.posting_count, self.height
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setsig_pagestore::Disk;

    fn tree() -> (Arc<Disk>, BTree) {
        let disk = Arc::new(Disk::new());
        let io: Arc<dyn PageIo> = Arc::clone(&disk) as Arc<dyn PageIo>;
        (disk, BTree::create(io, "nix"))
    }

    #[test]
    fn insert_and_lookup_single_key() {
        let (_d, mut t) = tree();
        t.insert(42, 100).unwrap();
        t.insert(42, 200).unwrap();
        assert_eq!(t.lookup(42, &mut 0).unwrap(), vec![100, 200]);
        assert_eq!(t.lookup(43, &mut 0).unwrap(), Vec::<u64>::new());
        assert_eq!(t.key_count(), 1);
        assert_eq!(t.posting_count(), 2);
        t.check_integrity().unwrap();
    }

    #[test]
    fn many_keys_split_leaves_and_grow_height() {
        let (_d, mut t) = tree();
        // 2000 keys × 3 OIDs: far beyond one leaf.
        for k in 0..2000u64 {
            for j in 0..3u64 {
                t.insert(k * 7, k * 10 + j).unwrap();
            }
        }
        assert!(t.height() >= 1, "tree should have grown");
        assert_eq!(t.key_count(), 2000);
        assert_eq!(t.posting_count(), 6000);
        for k in [0u64, 700, 6993, 13993] {
            let oids = t.lookup(k, &mut 0).unwrap();
            assert_eq!(oids.len(), 3, "key {k}");
        }
        t.check_integrity().unwrap();
    }

    #[test]
    fn reverse_and_random_orders_agree() {
        let (_d1, mut fwd) = tree();
        let (_d2, mut rev) = tree();
        let keys: Vec<u64> = (0..500).map(|i| i * 13 % 4099).collect();
        for &k in &keys {
            fwd.insert(k, k + 1).unwrap();
        }
        for &k in keys.iter().rev() {
            rev.insert(k, k + 1).unwrap();
        }
        for &k in &keys {
            assert_eq!(
                fwd.lookup(k, &mut 0).unwrap(),
                rev.lookup(k, &mut 0).unwrap()
            );
        }
        fwd.check_integrity().unwrap();
        rev.check_integrity().unwrap();
    }

    #[test]
    fn long_posting_migrates_to_overflow_chain() {
        let (disk, mut t) = tree();
        let n = (MAX_INLINE_OIDS + 700) as u64; // spans ≥ 2 chain links
        for i in 0..n {
            t.insert(5, i).unwrap();
            // The geometry accessor predicts every look-up on the way up.
            if [1, 400, 401, 511, 512, 1022, 1023, n].contains(&(i + 1)) {
                let before = disk.snapshot();
                t.lookup(5, &mut 0).unwrap();
                assert_eq!(
                    disk.snapshot().since(before).reads,
                    u64::from(t.rc_lookup()) + BTree::chain_links(i + 1),
                    "{} postings",
                    i + 1
                );
            }
        }
        let mut oids = t.lookup(5, &mut 0).unwrap();
        oids.sort_unstable();
        assert_eq!(oids, (0..n).collect::<Vec<_>>());
        t.check_integrity().unwrap();
    }

    #[test]
    fn remove_from_inline_and_chain() {
        let (_d, mut t) = tree();
        t.insert(1, 10).unwrap();
        t.insert(1, 20).unwrap();
        assert!(t.remove(1, 10).unwrap());
        assert_eq!(t.lookup(1, &mut 0).unwrap(), vec![20]);
        assert!(!t.remove(1, 10).unwrap(), "already gone");
        assert!(t.remove(1, 20).unwrap());
        assert_eq!(t.lookup(1, &mut 0).unwrap(), Vec::<u64>::new());
        assert_eq!(t.key_count(), 0);

        // Chain removal.
        let n = (MAX_INLINE_OIDS + 100) as u64;
        for i in 0..n {
            t.insert(9, i).unwrap();
        }
        assert!(t.remove(9, 3).unwrap());
        assert!(!t.remove(9, n + 5).unwrap());
        let oids = t.lookup(9, &mut 0).unwrap();
        assert_eq!(oids.len() as u64, n - 1);
        assert!(!oids.contains(&3));
        t.check_integrity().unwrap();
    }

    #[test]
    fn remove_missing_key_is_false() {
        let (_d, mut t) = tree();
        t.insert(1, 10).unwrap();
        assert!(!t.remove(2, 10).unwrap());
        assert!(!t.remove(1, 99).unwrap());
    }

    #[test]
    fn lookup_cost_is_height_plus_one() {
        let (disk, mut t) = tree();
        for k in 0..5000u64 {
            t.insert(k, k).unwrap();
        }
        assert!(t.height() >= 1);
        disk.reset_stats();
        let mut pages = 0;
        let _ = t.lookup(2500, &mut pages).unwrap();
        assert_eq!(disk.snapshot().reads as u32, t.rc_lookup());
        assert_eq!(
            pages as u32,
            t.rc_lookup(),
            "the look-up counts its own reads"
        );
    }

    #[test]
    fn paper_scale_leaf_count() {
        // V = 13,000 keys with d ≈ 25 OIDs each (the D_t = 10 workload):
        // entry ≈ 210 bytes → ≈ 19 entries/page → ≈ 700+ leaves, height 2
        // regime with fanout 300 → height stays small.
        let (_d, mut t) = tree();
        for k in 0..13_000u64 {
            for j in 0..25u64 {
                t.insert(k, k * 100 + j).unwrap();
            }
        }
        assert_eq!(t.key_count(), 13_000);
        // ~770 leaves / fanout 300 → 3 internal + root: height 2.
        assert_eq!(t.height(), 2);
        assert_eq!(t.rc_lookup(), 3, "the paper's rc = 3");
        t.check_integrity().unwrap();
    }
}
