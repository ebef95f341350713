//! A fixed-width bit vector used for signatures and slice combination.

use crate::kernel;

/// A fixed-width bit vector backed by 64-bit words.
///
/// `Bitmap` is the in-memory representation of signatures (a signature
/// *is* one: [`SignatureConfig::signature`](crate::SignatureConfig::signature)
/// encodes a set) and of combined BSSF slice results. The byte
/// serialization is LSB-first within each byte, matching the bit layout of
/// [`Page::get_bit`](setsig_pagestore::Page::get_bit), so signatures move
/// between memory and disk pages without reshuffling.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Bitmap {
    nbits: u32,
    words: Vec<u64>,
}

impl Bitmap {
    /// Creates an all-zero bitmap of `nbits` bits.
    pub fn zeroed(nbits: u32) -> Self {
        Bitmap {
            nbits,
            words: vec![0; Self::words_for(nbits)],
        }
    }

    /// Creates an all-one bitmap of `nbits` bits.
    pub fn ones(nbits: u32) -> Self {
        let mut bm = Bitmap {
            nbits,
            words: vec![!0u64; Self::words_for(nbits)],
        };
        bm.mask_tail();
        bm
    }

    /// Creates a bitmap with exactly the given bit positions set.
    ///
    /// Panics if a position is out of range.
    pub fn from_positions(nbits: u32, positions: &[u32]) -> Self {
        let mut bm = Bitmap::zeroed(nbits);
        for &p in positions {
            bm.set(p, true);
        }
        bm
    }

    fn words_for(nbits: u32) -> usize {
        kernel::words_for(nbits)
    }

    /// Clears any bits beyond `nbits` in the last word.
    fn mask_tail(&mut self) {
        kernel::mask_tail(&mut self.words, self.nbits);
    }

    /// Width in bits.
    #[inline]
    pub fn len(&self) -> u32 {
        self.nbits
    }

    /// True when the width is zero.
    pub fn is_empty(&self) -> bool {
        self.nbits == 0
    }

    /// Tests bit `i`. Panics if out of range.
    #[inline]
    pub fn get(&self, i: u32) -> bool {
        assert!(i < self.nbits, "bit {i} out of range ({})", self.nbits);
        (self.words[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to `v`. Panics if out of range.
    #[inline]
    pub fn set(&mut self, i: u32, v: bool) {
        assert!(i < self.nbits, "bit {i} out of range ({})", self.nbits);
        let word = &mut self.words[(i / 64) as usize];
        let mask = 1u64 << (i % 64);
        if v {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// Number of set bits — the *weight* of a signature.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// True if no bit is set.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    fn assert_same_width(&self, other: &Bitmap) {
        assert_eq!(
            self.nbits, other.nbits,
            "bitmap width mismatch: {} vs {}",
            self.nbits, other.nbits
        );
    }

    /// `self |= other` — superimposing an element signature onto a set
    /// signature.
    pub fn or_assign(&mut self, other: &Bitmap) {
        self.assert_same_width(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `self &= other` — combining BSSF slices for a `T ⊇ Q` scan.
    pub fn and_assign(&mut self, other: &Bitmap) {
        self.assert_same_width(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// True if every set bit of `other` is also set in `self` — the match
    /// rule "for all bit positions set in the query signature, the target
    /// signature has 1" with `self` as target.
    pub fn covers(&self, other: &Bitmap) -> bool {
        self.assert_same_width(other);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| b & !a == 0)
    }

    /// Number of bits set in both.
    pub fn intersection_count(&self, other: &Bitmap) -> u32 {
        self.assert_same_width(other);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones())
            .sum()
    }

    /// Iterates the positions of set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = u32> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(wi, &w)| kernel::word_ones(wi, w))
    }

    /// Iterates the positions of clear bits in ascending order, word at a
    /// time: the set bits of each complemented word, up to the width (the
    /// complemented padding comes last, so the walk just stops there).
    pub fn iter_zeros(&self) -> impl Iterator<Item = u32> + '_ {
        let zeros = self.words.iter().enumerate();
        zeros
            .flat_map(|(wi, &w)| kernel::word_ones(wi, !w))
            .take_while(|&p| p < self.nbits)
    }

    /// Serializes to `ceil(nbits/8)` bytes, LSB-first within each byte.
    pub fn to_bytes(&self) -> Vec<u8> {
        let nbytes = (self.nbits as usize).div_ceil(8);
        let mut out = vec![0u8; nbytes];
        for (i, b) in out.iter_mut().enumerate() {
            let word = self.words[i / 8];
            *b = (word >> ((i % 8) * 8)) as u8;
        }
        out
    }

    /// Deserializes from the [`to_bytes`](Bitmap::to_bytes) layout. Bits
    /// beyond `nbits` in the final byte are ignored.
    pub fn from_bytes(nbits: u32, bytes: &[u8]) -> Bitmap {
        let nbytes = (nbits as usize).div_ceil(8);
        assert!(
            bytes.len() >= nbytes,
            "need {nbytes} bytes for {nbits} bits"
        );
        let mut bm = Bitmap::zeroed(nbits);
        kernel::fill(&mut bm.words, &bytes[..nbytes], nbits);
        bm
    }

    /// The backing 64-bit words, least-significant position first.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The backing words, mutably — for the BSSF scans, which fold slice
    /// pages into word ranges with the [`kernel`] functions. The caller keeps
    /// the bitmap canonical (no bit set at a position `>= len()`).
    #[inline]
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }
}

impl std::fmt::Debug for Bitmap {
    /// Renders as a bit string, most significant position last — e.g. the
    /// paper's Figure 1 signature `01000100` is `Bitmap(00100010)` reversed;
    /// we print position 0 first for unambiguous indexing.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bitmap[{}; ", self.nbits)?;
        let limit = self.nbits.min(64);
        for i in 0..limit {
            write!(f, "{}", if self.get(i) { '1' } else { '0' })?;
        }
        if self.nbits > 64 {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_and_ones() {
        let z = Bitmap::zeroed(100);
        assert_eq!(z.count_ones(), 0);
        assert!(z.is_zero());
        let o = Bitmap::ones(100);
        assert_eq!(o.count_ones(), 100);
        assert!(o.get(99));
    }

    #[test]
    fn ones_masks_tail_bits() {
        // Width not a multiple of 64: bits past the width must not leak
        // into count_ones or covers.
        let o = Bitmap::ones(70);
        assert_eq!(o.count_ones(), 70);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut bm = Bitmap::zeroed(129);
        for i in [0u32, 63, 64, 65, 128] {
            assert!(!bm.get(i));
            bm.set(i, true);
            assert!(bm.get(i));
        }
        assert_eq!(bm.count_ones(), 5);
        bm.set(64, false);
        assert_eq!(bm.count_ones(), 4);
        assert!(!bm.get(64));
    }

    #[test]
    fn from_positions() {
        let bm = Bitmap::from_positions(16, &[1, 3, 5, 3]);
        assert_eq!(bm.count_ones(), 3);
        assert!(bm.get(1) && bm.get(3) && bm.get(5));
    }

    #[test]
    fn covers_matches_subset_semantics() {
        let target = Bitmap::from_positions(8, &[1, 2, 3, 5, 6, 7]);
        let query = Bitmap::from_positions(8, &[1, 3, 5]);
        assert!(target.covers(&query));
        assert!(!query.covers(&target));
        let other = Bitmap::from_positions(8, &[0, 1]);
        assert!(!target.covers(&other));
        // Everything covers the empty signature.
        assert!(target.covers(&Bitmap::zeroed(8)));
        assert!(Bitmap::zeroed(8).covers(&Bitmap::zeroed(8)));
    }

    #[test]
    fn paper_figure1_example() {
        // Query signature 01010100 (positions 1,3,5 reading left-to-right
        // as positions 0..7). Target "01101011" covers it? Using the
        // paper's left-to-right rendering as positions 0..=7:
        // query = {1,3,5}; actual-drop target = {1,2,4,6,7}... The paper's
        // strings are illustrative; we verify the rule itself: a target
        // that has 1s everywhere the query does matches, one that lacks a
        // query bit does not.
        let query = Bitmap::from_positions(8, &[1, 3, 5]);
        let matching = Bitmap::from_positions(8, &[1, 2, 3, 5, 7]);
        let missing = Bitmap::from_positions(8, &[1, 3, 6]);
        assert!(matching.covers(&query));
        assert!(!missing.covers(&query));
    }

    #[test]
    fn or_and_ops() {
        let a = Bitmap::from_positions(128, &[0, 64, 127]);
        let b = Bitmap::from_positions(128, &[1, 64]);
        let mut o = a.clone();
        o.or_assign(&b);
        assert_eq!(o.count_ones(), 4);
        let mut i = a.clone();
        i.and_assign(&b);
        assert_eq!(i.count_ones(), 1);
        assert!(i.get(64));
    }

    #[test]
    fn intersection_count_counts_shared_bits() {
        let a = Bitmap::from_positions(32, &[3, 9]);
        let b = Bitmap::from_positions(32, &[9, 10]);
        let c = Bitmap::from_positions(32, &[4]);
        assert_eq!(a.intersection_count(&b), 1);
        assert_eq!(a.intersection_count(&c), 0);
    }

    #[test]
    fn iter_ones_ascending() {
        let bm = Bitmap::from_positions(200, &[199, 0, 64, 65, 3]);
        let ones: Vec<u32> = bm.iter_ones().collect();
        assert_eq!(ones, vec![0, 3, 64, 65, 199]);
    }

    #[test]
    fn iter_zeros_complements_ones() {
        let bm = Bitmap::from_positions(10, &[2, 5]);
        let zeros: Vec<u32> = bm.iter_zeros().collect();
        assert_eq!(zeros, vec![0, 1, 3, 4, 6, 7, 8, 9]);
        // Word-level walk: every width's zeros are exactly the positions
        // `get` reports clear — none past the width, none dropped at a word
        // boundary.
        for nbits in [0u32, 1, 63, 64, 65, 128, 130, 500] {
            let set: Vec<u32> = (0..nbits).filter(|p| p % 3 == 0 || p % 64 == 63).collect();
            let bm = Bitmap::from_positions(nbits, &set);
            let expect: Vec<u32> = (0..nbits).filter(|&p| !bm.get(p)).collect();
            assert_eq!(bm.iter_zeros().collect::<Vec<_>>(), expect, "width {nbits}");
        }
        assert_eq!(Bitmap::ones(70).iter_zeros().count(), 0);
    }

    #[test]
    fn byte_roundtrip() {
        let bm = Bitmap::from_positions(20, &[0, 7, 8, 19]);
        let bytes = bm.to_bytes();
        assert_eq!(bytes.len(), 3);
        assert_eq!(bytes[0], 0b1000_0001);
        assert_eq!(bytes[1], 0b0000_0001);
        assert_eq!(bytes[2], 0b0000_1000);
        let back = Bitmap::from_bytes(20, &bytes);
        assert_eq!(back, bm);
    }

    #[test]
    fn from_bytes_ignores_padding_bits() {
        // A final byte with garbage beyond nbits must be masked off.
        let back = Bitmap::from_bytes(4, &[0xff]);
        assert_eq!(back.count_ones(), 4);
    }

    /// Whether the one-row page `row` passes `test`: with one row a page,
    /// a byte-sliced page is the row itself.
    fn passes(test: &kernel::ColumnTest, row: &[u8]) -> bool {
        let mut out = Vec::new();
        kernel::match_columns(test, row, 1, 0, &mut [0], &mut out);
        !out.is_empty()
    }

    /// The overlap count of the one-row page `row`.
    fn overlap(query: &[u64], row: &[u8]) -> u32 {
        let mut counts = [0u16];
        kernel::overlap_columns(query, row, 1, &mut counts);
        u32::from(counts[0])
    }

    #[test]
    fn byte_kernels_agree_with_bitmap_ops() {
        // The word-at-a-time byte kernels must agree with the reference
        // Bitmap operations for widths straddling word boundaries.
        for nbits in [7u32, 64, 70, 128, 200, 500] {
            let a = Bitmap::from_positions(nbits, &[0, nbits / 3, nbits - 1]);
            let b = Bitmap::from_positions(nbits, &[0, nbits / 2, nbits - 1]);
            let bb = b.to_bytes();

            let mut and_ref = a.clone();
            and_ref.and_assign(&b);
            let mut and_k = a.clone();
            let alive = kernel::and_assign(and_k.words_mut(), &bb);
            assert_eq!(and_k, and_ref, "AND width {nbits}");
            assert_eq!(alive != 0, !and_ref.is_zero(), "AND liveness width {nbits}");

            let mut or_ref = a.clone();
            or_ref.or_assign(&b);
            let mut or_k = a.clone();
            kernel::or_assign(or_k.words_mut(), &bb, nbits);
            assert_eq!(or_k, or_ref, "OR width {nbits}");

            let (aw, bw) = (a.words(), b.words());
            let superset = kernel::ColumnTest::superset(aw, nbits);
            assert_eq!(passes(&superset, &bb), b.covers(&a), "⊇ width {nbits}");
            let subset = kernel::ColumnTest::subset(aw, nbits);
            assert_eq!(passes(&subset, &bb), a.covers(&b), "⊆ width {nbits}");
            let equals = kernel::ColumnTest::equals(aw, nbits);
            assert_eq!(passes(&equals, &bb), a == b, "eq width {nbits}");
            assert_eq!(
                overlap(aw, &bb),
                a.intersection_count(&b),
                "popcount width {nbits}"
            );
            assert!(passes(&kernel::ColumnTest::equals(bw, nbits), &bb));
        }
    }

    #[test]
    fn byte_kernels_mask_padding_bits() {
        // Garbage bits beyond the width in the final byte must not affect
        // any kernel (stored pages can carry neighbouring rows there).
        let q = Bitmap::from_positions(4, &[1, 2]);
        let qw = q.words();
        // The high nibble is padding.
        assert!(passes(&kernel::ColumnTest::subset(qw, 4), &[0b1111_0110]));
        assert!(!passes(&kernel::ColumnTest::equals(qw, 4), &[0b1111_0111]));
        assert!(passes(&kernel::ColumnTest::equals(qw, 4), &[0b1111_0110]));
        assert_eq!(overlap(qw, &[0b1111_1110]), 2);
        let mut o = Bitmap::zeroed(4);
        kernel::or_assign(o.words_mut(), &[0xff], 4);
        assert_eq!(o.count_ones(), 4);
    }

    #[test]
    fn words_accessor_exposes_backing_storage() {
        let bm = Bitmap::from_positions(130, &[0, 64, 129]);
        assert_eq!(bm.words(), &[1u64, 1u64, 2u64]);
    }

    #[test]
    #[should_panic]
    fn width_mismatch_panics() {
        let a = Bitmap::zeroed(8);
        let b = Bitmap::zeroed(16);
        let _ = a.covers(&b);
    }

    #[test]
    #[should_panic]
    fn out_of_range_get_panics() {
        let bm = Bitmap::zeroed(8);
        let _ = bm.get(8);
    }
}
