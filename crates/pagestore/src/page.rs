//! Fixed-size disk pages.

use std::sync::{Arc, OnceLock};

/// Size of a disk page in bytes — the paper's constant `P = 4096` (Table 2).
pub const PAGE_SIZE: usize = 4096;

/// A single disk page: a copy-on-write snapshot of `PAGE_SIZE` bytes.
///
/// `clone` is a reference-count bump, so the disk, the buffer pool and every
/// reader hold the *same* 4 KiB and a handed-out `Page` never changes under
/// its holder. The first mutation of a page whose buffer is shared takes a
/// private copy ([`Page::as_bytes_mut`]); a sole holder mutates in place.
/// Every `write_*` helper re-checks uniqueness (an atomic operation), so code
/// writing many fields of one page takes **one** `as_bytes_mut()` borrow.
///
/// All accessors panic on out-of-bounds offsets: page layouts are computed by
/// the storage structures themselves, so an out-of-range offset is a logic
/// error, not a recoverable condition.
#[derive(Clone, PartialEq, Eq)]
pub struct Page {
    bytes: Arc<[u8; PAGE_SIZE]>,
}

/// The one all-zero buffer every [`Page::zeroed`] starts out sharing.
static ZERO_PAGE: OnceLock<Page> = OnceLock::new();

impl Page {
    /// Creates a page filled with zero bytes: a reference to the shared zero
    /// snapshot; the first write pays the allocation a fresh page always did.
    pub fn zeroed() -> Self {
        ZERO_PAGE
            .get_or_init(|| Page::from_bytes([0; PAGE_SIZE]))
            .clone()
    }

    /// Creates a page from an exact `PAGE_SIZE`-byte buffer.
    pub fn from_bytes(bytes: [u8; PAGE_SIZE]) -> Self {
        Page {
            bytes: Arc::new(bytes),
        }
    }

    /// The raw page contents.
    #[inline]
    pub fn as_bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.bytes
    }

    /// The raw page contents, mutably — the copy-on-write point: copies the
    /// buffer first if any other `Page` still shares it.
    #[inline]
    pub fn as_bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        Arc::make_mut(&mut self.bytes)
    }

    /// Reads one byte at `off`.
    #[inline]
    pub fn read_u8(&self, off: usize) -> u8 {
        self.bytes[off]
    }

    /// Writes one byte at `off`.
    #[inline]
    pub fn write_u8(&mut self, off: usize, v: u8) {
        self.as_bytes_mut()[off] = v;
    }

    /// Reads a little-endian `u16` at `off`.
    #[inline]
    #[expect(
        clippy::unwrap_used,
        reason = "slice-to-array conversion of a subslice whose length the index expression fixes; cannot fail"
    )]
    pub fn read_u16(&self, off: usize) -> u16 {
        u16::from_le_bytes(self.bytes[off..off + 2].try_into().unwrap())
    }

    /// Writes a little-endian `u16` at `off`.
    #[inline]
    pub fn write_u16(&mut self, off: usize, v: u16) {
        self.as_bytes_mut()[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads a little-endian `u32` at `off`.
    #[inline]
    #[expect(
        clippy::unwrap_used,
        reason = "slice-to-array conversion of a subslice whose length the index expression fixes; cannot fail"
    )]
    pub fn read_u32(&self, off: usize) -> u32 {
        u32::from_le_bytes(self.bytes[off..off + 4].try_into().unwrap())
    }

    /// Writes a little-endian `u32` at `off`.
    #[inline]
    pub fn write_u32(&mut self, off: usize, v: u32) {
        self.as_bytes_mut()[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads a little-endian `u64` at `off`.
    #[inline]
    #[expect(
        clippy::unwrap_used,
        reason = "slice-to-array conversion of a subslice whose length the index expression fixes; cannot fail"
    )]
    pub fn read_u64(&self, off: usize) -> u64 {
        u64::from_le_bytes(self.bytes[off..off + 8].try_into().unwrap())
    }

    /// Writes a little-endian `u64` at `off`.
    #[inline]
    pub fn write_u64(&mut self, off: usize, v: u64) {
        self.as_bytes_mut()[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Returns the `len` bytes starting at `off`.
    #[inline]
    pub fn read_slice(&self, off: usize, len: usize) -> &[u8] {
        &self.bytes[off..off + len]
    }

    /// Copies `src` into the page starting at `off`.
    #[inline]
    pub fn write_slice(&mut self, off: usize, src: &[u8]) {
        self.as_bytes_mut()[off..off + src.len()].copy_from_slice(src);
    }

    /// Fills `len` bytes starting at `off` with `v`.
    #[inline]
    pub fn fill(&mut self, off: usize, len: usize, v: u8) {
        self.as_bytes_mut()[off..off + len].fill(v);
    }

    /// Tests a single bit; bit `i` lives in byte `i / 8`, LSB-first.
    ///
    /// This is the layout of a BSSF bit-slice page: bit position `i`
    /// corresponds to the signature at row `i` of the slice.
    #[inline]
    pub fn get_bit(&self, i: usize) -> bool {
        (self.bytes[i / 8] >> (i % 8)) & 1 == 1
    }

    /// Sets (`true`) or clears (`false`) a single bit, LSB-first. A bit that
    /// already has the value is left alone, so a no-op write never takes
    /// the private copy of a shared page.
    #[inline]
    pub fn set_bit(&mut self, i: usize, v: bool) {
        if self.get_bit(i) != v {
            self.as_bytes_mut()[i / 8] ^= 1 << (i % 8);
        }
    }

    /// True if every byte in the page is zero.
    pub fn is_zeroed(&self) -> bool {
        self.bytes.iter().all(|&b| b == 0)
    }
}

impl Default for Page {
    fn default() -> Self {
        Page::zeroed()
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let nonzero = self.bytes.iter().filter(|&&b| b != 0).count();
        write!(f, "Page {{ nonzero_bytes: {nonzero}/{PAGE_SIZE} }}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_page_is_all_zero() {
        let p = Page::zeroed();
        assert!(p.is_zeroed());
        assert_eq!(p.read_u64(0), 0);
        assert_eq!(p.read_u64(PAGE_SIZE - 8), 0);
    }

    #[test]
    fn clone_is_a_snapshot_and_mutation_copies_on_write() {
        let mut a = Page::zeroed();
        a.write_u32(0, 7);
        let snapshot = a.clone();
        assert!(std::ptr::eq(a.as_bytes(), snapshot.as_bytes()), "no copy");
        a.write_u32(0, 8);
        assert_eq!((a.read_u32(0), snapshot.read_u32(0)), (8, 7));
        assert!(!std::ptr::eq(a.as_bytes(), snapshot.as_bytes()));
        // A write that changes nothing leaves a shared page shared.
        let mut b = snapshot.clone();
        b.set_bit(3, false);
        assert!(std::ptr::eq(b.as_bytes(), snapshot.as_bytes()));
        // Zeroed pages share one buffer until first written.
        let (z1, mut z2) = (Page::zeroed(), Page::zeroed());
        assert!(std::ptr::eq(z1.as_bytes(), z2.as_bytes()));
        z2.write_u8(9, 1);
        assert!(z1.is_zeroed() && Page::zeroed().is_zeroed());
    }

    #[test]
    fn scalar_roundtrips() {
        let mut p = Page::zeroed();
        p.write_u8(0, 0xab);
        p.write_u16(1, 0xbeef);
        p.write_u32(3, 0xdead_beef);
        p.write_u64(7, 0x0123_4567_89ab_cdef);
        assert_eq!(p.read_u8(0), 0xab);
        assert_eq!(p.read_u16(1), 0xbeef);
        assert_eq!(p.read_u32(3), 0xdead_beef);
        assert_eq!(p.read_u64(7), 0x0123_4567_89ab_cdef);
    }

    #[test]
    fn scalars_are_little_endian() {
        let mut p = Page::zeroed();
        p.write_u32(0, 0x0102_0304);
        assert_eq!(p.read_slice(0, 4), &[0x04, 0x03, 0x02, 0x01]);
    }

    #[test]
    fn slice_roundtrip() {
        let mut p = Page::zeroed();
        p.write_slice(100, b"hello world");
        assert_eq!(p.read_slice(100, 11), b"hello world");
        assert!(!p.is_zeroed());
    }

    #[test]
    fn bit_accessors_cover_full_page() {
        let mut p = Page::zeroed();
        for i in [0usize, 1, 7, 8, 9, 4095, 32767] {
            assert!(!p.get_bit(i));
            p.set_bit(i, true);
            assert!(p.get_bit(i));
        }
        // Clearing restores zero.
        for i in [0usize, 1, 7, 8, 9, 4095, 32767] {
            p.set_bit(i, false);
        }
        assert!(p.is_zeroed());
    }

    #[test]
    fn bit_layout_is_lsb_first() {
        let mut p = Page::zeroed();
        p.set_bit(0, true);
        assert_eq!(p.read_u8(0), 0b0000_0001);
        p.set_bit(7, true);
        assert_eq!(p.read_u8(0), 0b1000_0001);
        p.set_bit(8, true);
        assert_eq!(p.read_u8(1), 0b0000_0001);
    }

    #[test]
    fn fill_overwrites_range_only() {
        let mut p = Page::zeroed();
        p.fill(10, 5, 0xff);
        assert_eq!(p.read_u8(9), 0);
        assert_eq!(p.read_u8(10), 0xff);
        assert_eq!(p.read_u8(14), 0xff);
        assert_eq!(p.read_u8(15), 0);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_read_panics() {
        let p = Page::zeroed();
        let _ = p.read_u64(PAGE_SIZE - 7);
    }

    #[test]
    fn last_bit_of_page() {
        let mut p = Page::zeroed();
        let last = PAGE_SIZE * 8 - 1;
        p.set_bit(last, true);
        assert!(p.get_bit(last));
        assert_eq!(p.read_u8(PAGE_SIZE - 1), 0b1000_0000);
    }
}
