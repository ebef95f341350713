//! Page layouts for the nested index B-tree.
//!
//! Three page types share the index file:
//!
//! **Leaf** — a slotted page of variable-length posting entries, slot
//! directory sorted by key:
//! ```text
//! 0   type=1 u8 | 1 pad | 2 count u16 | 4 free_off u16 | 6 frag u16
//! 8…  entry records, grown upward
//! …end slot array grown downward: (off u16, len u16) per slot
//! entry: key u64 | flags u16 | payload
//!   flags bit 15 clear: inline posting, low bits = OID count, payload = OIDs
//!   flags bit 15 set:   overflow stub, payload = chain_head u32 | total u32
//! ```
//!
//! **Internal** — fixed arrays (keys then children), the paper's non-leaf
//! format:
//! ```text
//! 0 type=2 u8 | 2 count u16 | 8 keys (≤ 300 × u64) | 2408 children (≤ 301 × u32)
//! ```
//! Search follows `children[i]` where `i` is the number of keys ≤ target,
//! i.e. keys[i] is the smallest key of `children[i+1]`'s subtree.
//!
//! **Overflow** — a chain link of raw OIDs:
//! ```text
//! 0 type=3 u8 | 2 count u16 | 4 next u32 (NO_PAGE = none) | 8… OIDs
//! ```

use setsig_pagestore::{Page, PAGE_SIZE};

/// Page type tags.
pub(crate) const TYPE_LEAF: u8 = 1;
/// Internal node tag.
pub(crate) const TYPE_INTERNAL: u8 = 2;
/// Overflow chain link tag.
pub(crate) const TYPE_OVERFLOW: u8 = 3;

/// Sentinel "no page" value for chain links.
pub(crate) const NO_PAGE: u32 = u32::MAX;

/// Maximum keys in an internal node (fanout − 1). 300 keys → 301 children:
/// keys end at 8 + 2400 = 2408, children end at 2408 + 1204 = 3612 < 4096.
pub(crate) const MAX_INTERNAL_KEYS: usize = 300;

const LEAF_HEADER: usize = 8;
const SLOT: usize = 4;
/// OID count limit encodable in the 15 flag bits of an inline entry.
pub(crate) const MAX_INLINE_OIDS: usize = 400;
const OVERFLOW_FLAG: u16 = 1 << 15;
/// OIDs per overflow page.
pub(crate) const OVERFLOW_CAPACITY: usize = (PAGE_SIZE - 8) / 8;

/// Writes `v` as a little-endian `u16` at `off` of an already-borrowed page
/// buffer (one `as_bytes_mut()` per mutation, not one per field).
fn put_u16(bytes: &mut [u8], off: usize, v: usize) {
    bytes[off..off + 2].copy_from_slice(&(v as u16).to_le_bytes());
}

/// A parsed leaf entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum LeafEntry {
    /// The posting list is stored inline.
    Inline {
        /// The 8-byte element key.
        key: u64,
        /// The OIDs, in insertion order.
        oids: Vec<u64>,
    },
    /// The posting list lives in an overflow chain.
    Overflow {
        /// The 8-byte element key.
        key: u64,
        /// First page of the chain.
        chain_head: u32,
        /// Total OIDs across the chain.
        total: u32,
    },
}

impl LeafEntry {
    /// The entry's key.
    pub(crate) fn key(&self) -> u64 {
        match self {
            LeafEntry::Inline { key, .. } | LeafEntry::Overflow { key, .. } => *key,
        }
    }

    /// Serialized length in bytes.
    pub(crate) fn encoded_len(&self) -> usize {
        match self {
            LeafEntry::Inline { oids, .. } => 10 + oids.len() * 8,
            LeafEntry::Overflow { .. } => 10 + 8,
        }
    }

    /// Writes the entry at `off` in `page`.
    pub(crate) fn write(&self, page: &mut Page, off: usize) {
        match self {
            LeafEntry::Inline { key, oids } => {
                assert!(oids.len() <= MAX_INLINE_OIDS);
                page.write_u64(off, *key);
                page.write_u16(off + 8, oids.len() as u16);
                // One mutable borrow for the list (see `Page::as_bytes_mut`).
                let body = &mut page.as_bytes_mut()[off + 10..off + 10 + oids.len() * 8];
                for (dst, oid) in body.chunks_exact_mut(8).zip(oids) {
                    dst.copy_from_slice(&oid.to_le_bytes());
                }
            }
            LeafEntry::Overflow {
                key,
                chain_head,
                total,
            } => {
                page.write_u64(off, *key);
                page.write_u16(off + 8, OVERFLOW_FLAG);
                page.write_u32(off + 10, *chain_head);
                page.write_u32(off + 14, *total);
            }
        }
    }

    /// Parses the entry at `off` in `page`.
    pub(crate) fn read(page: &Page, off: usize) -> LeafEntry {
        let key = page.read_u64(off);
        let flags = page.read_u16(off + 8);
        if flags & OVERFLOW_FLAG != 0 {
            LeafEntry::Overflow {
                key,
                chain_head: page.read_u32(off + 10),
                total: page.read_u32(off + 14),
            }
        } else {
            let n = flags as usize;
            let oids = (0..n).map(|i| page.read_u64(off + 10 + i * 8)).collect();
            LeafEntry::Inline { key, oids }
        }
    }
}

/// Accessors for leaf pages.
pub(crate) struct Leaf;

impl Leaf {
    /// Initializes `page` as an empty leaf.
    pub(crate) fn init(page: &mut Page) {
        *page = Page::zeroed();
        page.write_u8(0, TYPE_LEAF);
        page.write_u16(4, LEAF_HEADER as u16);
    }

    /// Number of slots.
    pub(crate) fn count(page: &Page) -> usize {
        page.read_u16(2) as usize
    }

    /// Free contiguous bytes between the record heap and the slot array.
    pub(crate) fn free_space(page: &Page) -> usize {
        let free_off = page.read_u16(4) as usize;
        let slots_start = PAGE_SIZE - Self::count(page) * SLOT;
        slots_start.saturating_sub(free_off)
    }

    /// Bytes lost to dead records (reclaimable by compaction).
    pub(crate) fn frag(page: &Page) -> usize {
        page.read_u16(6) as usize
    }

    fn slot_off(i: usize) -> usize {
        PAGE_SIZE - (i + 1) * SLOT
    }

    /// Record offset and length of slot `i`.
    pub(crate) fn slot(page: &Page, i: usize) -> (usize, usize) {
        let off = Self::slot_off(i);
        (page.read_u16(off) as usize, page.read_u16(off + 2) as usize)
    }

    /// The key stored in slot `i`.
    pub(crate) fn key_at(page: &Page, i: usize) -> u64 {
        let (off, _) = Self::slot(page, i);
        page.read_u64(off)
    }

    /// The parsed entry at slot `i`.
    pub(crate) fn entry_at(page: &Page, i: usize) -> LeafEntry {
        let (off, _) = Self::slot(page, i);
        LeafEntry::read(page, off)
    }

    /// Appends slot `i`'s inline OIDs to `out` in place, parsing no entry;
    /// for an overflow stub, leaves `out` alone and returns the chain's head
    /// and total.
    pub(crate) fn read_postings(page: &Page, i: usize, out: &mut Vec<u64>) -> Option<(u32, u32)> {
        let (off, _) = Self::slot(page, i);
        let flags = page.read_u16(off + 8);
        if flags & OVERFLOW_FLAG != 0 {
            return Some((page.read_u32(off + 10), page.read_u32(off + 14)));
        }
        out.extend((0..flags as usize).map(|j| page.read_u64(off + 10 + j * 8)));
        None
    }

    /// All entries, in key order.
    pub(crate) fn entries(page: &Page) -> Vec<LeafEntry> {
        (0..Self::count(page))
            .map(|i| Self::entry_at(page, i))
            .collect()
    }

    /// Binary search for `key`: `Ok(slot)` if present, `Err(insert_pos)`.
    pub(crate) fn search(page: &Page, key: u64) -> Result<usize, usize> {
        let mut lo = 0;
        let mut hi = Self::count(page);
        while lo < hi {
            let mid = (lo + hi) / 2;
            match Self::key_at(page, mid).cmp(&key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Appends `entry`'s record to the heap and inserts a slot at `pos`.
    /// Caller must have verified `free_space ≥ encoded_len + SLOT`.
    pub(crate) fn insert_entry(page: &mut Page, pos: usize, entry: &LeafEntry) {
        let len = entry.encoded_len();
        debug_assert!(Self::free_space(page) >= len + SLOT);
        let off = page.read_u16(4) as usize;
        entry.write(page, off);
        let count = Self::count(page);
        let bytes = page.as_bytes_mut();
        // Shift slots [pos, count) one position outward (toward lower
        // addresses, since slots grow downward) as one block move.
        let lo = Self::slot_off(count) + SLOT;
        bytes.copy_within(lo..Self::slot_off(pos) + SLOT, lo - SLOT);
        let s = Self::slot_off(pos);
        put_u16(bytes, s, off);
        put_u16(bytes, s + 2, len);
        put_u16(bytes, 2, count + 1);
        put_u16(bytes, 4, off + len);
    }

    /// Replaces the entry in slot `i`.
    ///
    /// Same-or-smaller records are rewritten in place; larger ones are
    /// appended to the heap (the old record becomes fragmentation). Returns
    /// `false` when the heap lacks room — caller compacts or splits.
    pub(crate) fn replace_entry(page: &mut Page, i: usize, entry: &LeafEntry) -> bool {
        let (old_off, old_len) = Self::slot(page, i);
        let new_len = entry.encoded_len();
        if new_len <= old_len {
            entry.write(page, old_off);
            let s = Self::slot_off(i);
            page.write_u16(s + 2, new_len as u16);
            page.write_u16(6, (Self::frag(page) + old_len - new_len) as u16);
            return true;
        }
        if Self::free_space(page) < new_len {
            return false;
        }
        let off = page.read_u16(4) as usize;
        entry.write(page, off);
        let s = Self::slot_off(i);
        page.write_u16(s, off as u16);
        page.write_u16(s + 2, new_len as u16);
        page.write_u16(4, (off + new_len) as u16);
        page.write_u16(6, (Self::frag(page) + old_len) as u16);
        true
    }

    /// Removes slot `i`, leaving its record as fragmentation.
    pub(crate) fn remove_entry(page: &mut Page, i: usize) {
        let count = Self::count(page);
        let (_, len) = Self::slot(page, i);
        let frag = Self::frag(page);
        let bytes = page.as_bytes_mut();
        // Shift slots (i, count) one position inward as one block move.
        let lo = Self::slot_off(count) + SLOT;
        bytes.copy_within(lo..Self::slot_off(i), lo + SLOT);
        put_u16(bytes, 2, count - 1);
        put_u16(bytes, 6, frag + len);
    }

    /// Rebuilds the page from `entries` (sorted by key), dropping all
    /// fragmentation.
    pub(crate) fn rebuild(page: &mut Page, entries: &[LeafEntry]) {
        Self::init(page);
        for (i, e) in entries.iter().enumerate() {
            Self::insert_entry(page, i, e);
        }
    }
}

/// Accessors for internal pages.
pub(crate) struct Internal;

const CHILDREN_BASE: usize = 8 + MAX_INTERNAL_KEYS * 8;

impl Internal {
    /// Initializes `page` as an internal node with a single child.
    pub(crate) fn init(page: &mut Page, first_child: u32) {
        *page = Page::zeroed();
        page.write_u8(0, TYPE_INTERNAL);
        page.write_u32(CHILDREN_BASE, first_child);
    }

    /// Number of keys (children = keys + 1).
    pub(crate) fn count(page: &Page) -> usize {
        page.read_u16(2) as usize
    }

    /// Key `i`.
    pub(crate) fn key(page: &Page, i: usize) -> u64 {
        page.read_u64(8 + i * 8)
    }

    /// Child pointer `i`.
    pub(crate) fn child(page: &Page, i: usize) -> u32 {
        page.read_u32(CHILDREN_BASE + i * 4)
    }

    /// Index of the child to follow for `key`: the number of stored keys
    /// that are `≤ key`.
    pub(crate) fn child_for(page: &Page, key: u64) -> usize {
        let count = Self::count(page);
        let mut lo = 0;
        let mut hi = count;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if Self::key(page, mid) <= key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Inserts separator `key` with right child `child` at key position
    /// `pos`. Caller must have verified `count < MAX_INTERNAL_KEYS`.
    pub(crate) fn insert_at(page: &mut Page, pos: usize, key: u64, child: u32) {
        let count = Self::count(page);
        debug_assert!(count < MAX_INTERNAL_KEYS);
        let bytes = page.as_bytes_mut();
        // Open the gap with two block moves: keys [pos, count) and children
        // (pos, count] each shift up one place.
        let (k, c) = (8 + pos * 8, CHILDREN_BASE + (pos + 1) * 4);
        bytes.copy_within(k..8 + count * 8, k + 8);
        bytes.copy_within(c..CHILDREN_BASE + (count + 1) * 4, c + 4);
        bytes[k..k + 8].copy_from_slice(&key.to_le_bytes());
        bytes[c..c + 4].copy_from_slice(&child.to_le_bytes());
        put_u16(bytes, 2, count + 1);
    }

    /// Splits a full node: keeps the left half here, returns the median key
    /// and the contents (keys, children) for the new right sibling.
    pub(crate) fn split(page: &mut Page) -> (u64, Vec<u64>, Vec<u32>) {
        let count = Self::count(page);
        let mid = count / 2;
        let median = Self::key(page, mid);
        let right_keys: Vec<u64> = (mid + 1..count).map(|i| Self::key(page, i)).collect();
        let right_children: Vec<u32> = (mid + 1..=count).map(|i| Self::child(page, i)).collect();
        page.write_u16(2, mid as u16);
        (median, right_keys, right_children)
    }

    /// Builds a node from keys and children (for the right half of a
    /// split).
    pub(crate) fn build(page: &mut Page, keys: &[u64], children: &[u32]) {
        debug_assert_eq!(children.len(), keys.len() + 1);
        Self::init(page, children[0]);
        for (i, &k) in keys.iter().enumerate() {
            page.write_u64(8 + i * 8, k);
        }
        for (i, &c) in children.iter().enumerate() {
            page.write_u32(CHILDREN_BASE + i * 4, c);
        }
        page.write_u16(2, keys.len() as u16);
    }
}

/// Accessors for overflow chain pages.
pub(crate) struct Overflow;

impl Overflow {
    /// Initializes `page` as an empty overflow link pointing at `next`.
    pub(crate) fn init(page: &mut Page, next: u32) {
        *page = Page::zeroed();
        page.write_u8(0, TYPE_OVERFLOW);
        page.write_u32(4, next);
    }

    /// OIDs stored in this link.
    pub(crate) fn count(page: &Page) -> usize {
        page.read_u16(2) as usize
    }

    /// Next link, or [`NO_PAGE`].
    pub(crate) fn next(page: &Page) -> u32 {
        page.read_u32(4)
    }

    /// OID `i`.
    pub(crate) fn oid(page: &Page, i: usize) -> u64 {
        page.read_u64(8 + i * 8)
    }

    /// Appends an OID; returns false when full.
    pub(crate) fn push(page: &mut Page, oid: u64) -> bool {
        let count = Self::count(page);
        if count >= OVERFLOW_CAPACITY {
            return false;
        }
        page.write_u64(8 + count * 8, oid);
        page.write_u16(2, (count + 1) as u16);
        true
    }

    /// Removes the OID at `i` by swapping in the last one.
    pub(crate) fn swap_remove(page: &mut Page, i: usize) {
        let count = Self::count(page);
        debug_assert!(i < count);
        let last = Self::oid(page, count - 1);
        page.write_u64(8 + i * 8, last);
        page.write_u16(2, (count - 1) as u16);
    }
}

/// The type tag of a page.
pub(crate) fn page_type(page: &Page) -> u8 {
    page.read_u8(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_entry_roundtrip() {
        let mut page = Page::zeroed();
        let inline = LeafEntry::Inline {
            key: 42,
            oids: vec![1, 2, 3],
        };
        inline.write(&mut page, 100);
        assert_eq!(LeafEntry::read(&page, 100), inline);
        let over = LeafEntry::Overflow {
            key: 7,
            chain_head: 9,
            total: 1000,
        };
        over.write(&mut page, 200);
        assert_eq!(LeafEntry::read(&page, 200), over);
        assert_eq!(inline.encoded_len(), 34);
        assert_eq!(over.encoded_len(), 18);
    }

    #[test]
    fn leaf_insert_search_ordering() {
        let mut page = Page::zeroed();
        Leaf::init(&mut page);
        for key in [50u64, 10, 30, 20, 40] {
            let pos = Leaf::search(&page, key).unwrap_err();
            Leaf::insert_entry(
                &mut page,
                pos,
                &LeafEntry::Inline {
                    key,
                    oids: vec![key],
                },
            );
        }
        assert_eq!(Leaf::count(&page), 5);
        let keys: Vec<u64> = (0..5).map(|i| Leaf::key_at(&page, i)).collect();
        assert_eq!(keys, vec![10, 20, 30, 40, 50]);
        assert_eq!(Leaf::search(&page, 30), Ok(2));
        assert_eq!(Leaf::search(&page, 35), Err(3));
    }

    #[test]
    fn leaf_replace_in_place_and_grow() {
        let mut page = Page::zeroed();
        Leaf::init(&mut page);
        Leaf::insert_entry(
            &mut page,
            0,
            &LeafEntry::Inline {
                key: 1,
                oids: vec![10, 20],
            },
        );
        // Shrink: in place, no fragmentation change beyond diff.
        assert!(Leaf::replace_entry(
            &mut page,
            0,
            &LeafEntry::Inline {
                key: 1,
                oids: vec![10]
            }
        ));
        assert_eq!(
            Leaf::entry_at(&page, 0),
            LeafEntry::Inline {
                key: 1,
                oids: vec![10]
            }
        );
        // Grow: appended to heap, old record becomes frag.
        let grown = LeafEntry::Inline {
            key: 1,
            oids: vec![10, 20, 30],
        };
        assert!(Leaf::replace_entry(&mut page, 0, &grown));
        assert_eq!(Leaf::entry_at(&page, 0), grown);
        assert!(Leaf::frag(&page) > 0);
    }

    #[test]
    fn leaf_remove_and_rebuild() {
        let mut page = Page::zeroed();
        Leaf::init(&mut page);
        for (i, key) in [10u64, 20, 30].into_iter().enumerate() {
            Leaf::insert_entry(
                &mut page,
                i,
                &LeafEntry::Inline {
                    key,
                    oids: vec![key],
                },
            );
        }
        Leaf::remove_entry(&mut page, 1);
        assert_eq!(Leaf::count(&page), 2);
        assert_eq!(Leaf::key_at(&page, 1), 30);
        assert!(Leaf::frag(&page) > 0);
        let entries = Leaf::entries(&page);
        Leaf::rebuild(&mut page, &entries);
        assert_eq!(Leaf::frag(&page), 0);
        assert_eq!(Leaf::count(&page), 2);
    }

    #[test]
    fn leaf_free_space_accounting() {
        let mut page = Page::zeroed();
        Leaf::init(&mut page);
        let before = Leaf::free_space(&page);
        assert_eq!(before, PAGE_SIZE - LEAF_HEADER);
        let e = LeafEntry::Inline {
            key: 1,
            oids: vec![1, 2],
        };
        Leaf::insert_entry(&mut page, 0, &e);
        assert_eq!(Leaf::free_space(&page), before - e.encoded_len() - SLOT);
    }

    #[test]
    fn internal_routing() {
        let mut page = Page::zeroed();
        Internal::init(&mut page, 100);
        // keys [10, 20], children [100, 200, 300]:
        Internal::insert_at(&mut page, 0, 10, 200);
        Internal::insert_at(&mut page, 1, 20, 300);
        assert_eq!(Internal::count(&page), 2);
        // key < 10 → child 0; 10 ≤ key < 20 → child 1; ≥ 20 → child 2.
        assert_eq!(Internal::child_for(&page, 5), 0);
        assert_eq!(Internal::child_for(&page, 10), 1);
        assert_eq!(Internal::child_for(&page, 15), 1);
        assert_eq!(Internal::child_for(&page, 20), 2);
        assert_eq!(Internal::child(&page, Internal::child_for(&page, 15)), 200);
    }

    #[test]
    fn internal_insert_shifts_correctly() {
        let mut page = Page::zeroed();
        Internal::init(&mut page, 1);
        Internal::insert_at(&mut page, 0, 30, 4);
        Internal::insert_at(&mut page, 0, 10, 2);
        Internal::insert_at(&mut page, 1, 20, 3);
        let keys: Vec<u64> = (0..3).map(|i| Internal::key(&page, i)).collect();
        let children: Vec<u32> = (0..4).map(|i| Internal::child(&page, i)).collect();
        assert_eq!(keys, vec![10, 20, 30]);
        assert_eq!(children, vec![1, 2, 3, 4]);
    }

    #[test]
    fn internal_split_preserves_routing() {
        let mut page = Page::zeroed();
        Internal::init(&mut page, 0);
        for i in 0..MAX_INTERNAL_KEYS {
            Internal::insert_at(&mut page, i, (i as u64 + 1) * 10, i as u32 + 1);
        }
        let (median, rkeys, rchildren) = Internal::split(&mut page);
        assert_eq!(median, (MAX_INTERNAL_KEYS as u64 / 2 + 1) * 10);
        assert_eq!(Internal::count(&page), MAX_INTERNAL_KEYS / 2);
        assert_eq!(rkeys.len() + 1, rchildren.len());
        let mut right = Page::zeroed();
        Internal::build(&mut right, &rkeys, &rchildren);
        assert_eq!(Internal::count(&right), rkeys.len());
        // Left half routes low keys, right half routes high keys.
        assert_eq!(Internal::child_for(&page, 10), 1);
        assert_eq!(Internal::child(&right, 0), MAX_INTERNAL_KEYS as u32 / 2 + 1);
    }

    #[test]
    fn overflow_push_and_remove() {
        let mut page = Page::zeroed();
        Overflow::init(&mut page, NO_PAGE);
        assert_eq!(Overflow::next(&page), NO_PAGE);
        for i in 0..10u64 {
            assert!(Overflow::push(&mut page, i));
        }
        assert_eq!(Overflow::count(&page), 10);
        Overflow::swap_remove(&mut page, 0);
        assert_eq!(Overflow::count(&page), 9);
        assert_eq!(Overflow::oid(&page, 0), 9);
    }

    #[test]
    fn overflow_capacity_enforced() {
        let mut page = Page::zeroed();
        Overflow::init(&mut page, NO_PAGE);
        for i in 0..OVERFLOW_CAPACITY as u64 {
            assert!(Overflow::push(&mut page, i));
        }
        assert!(!Overflow::push(&mut page, 9999));
        assert_eq!(OVERFLOW_CAPACITY, 511);
    }

    #[test]
    fn page_types_distinguishable() {
        let mut leaf = Page::zeroed();
        Leaf::init(&mut leaf);
        let mut internal = Page::zeroed();
        Internal::init(&mut internal, 0);
        let mut over = Page::zeroed();
        Overflow::init(&mut over, NO_PAGE);
        assert_eq!(page_type(&leaf), TYPE_LEAF);
        assert_eq!(page_type(&internal), TYPE_INTERNAL);
        assert_eq!(page_type(&over), TYPE_OVERFLOW);
    }
}
