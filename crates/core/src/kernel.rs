//! Word-level slice kernels: the one place bytes become `u64` words.
//!
//! Every signature-scan hot path — the BSSF slice AND/OR loops, the SSF
//! column match ([`ColumnTest`] + [`match_columns`]) and overlap count
//! ([`overlap_columns`]), the set-bit counters, and
//! [`Bitmap::from_bytes`](crate::Bitmap::from_bytes) — combines serialized
//! (LSB-first) signature bytes with in-memory `u64` words. This module is
//! the single implementation of that bridge, so the layout and
//! tail-masking rules live in exactly one place:
//!
//! * **Word layout.** Word `wi` of a byte buffer covers bytes
//!   `8·wi .. 8·wi + 8`, little-endian, zero-padded past the end of the
//!   buffer ([`le_word`]). This matches `u64::from_le_bytes`, so bit `i`
//!   of the bitmap is bit `i % 64` of word `i / 64` — the same layout
//!   [`Bitmap`](crate::Bitmap) stores internally.
//! * **Byte-sliced pages.** An SSF page of `per_page` rows stores byte `c`
//!   of row `s` at `c·per_page + s`: column `c` is byte `c` of every row,
//!   contiguous, so a query reads only the columns it constrains.
//! * **Tail-mask contract.** A width of `nbits` occupies
//!   [`words_for`]`(nbits)` words; bits at positions `>= nbits` in the
//!   last word are *padding*. Kernels that read external bytes mask the
//!   padding with [`tail_mask`] before it can influence a result, and
//!   kernels that write an accumulator leave it *canonical* (padding bits
//!   zero) so `count_ones`/`is_zero`-style folds need no re-masking.
//!   `AND` is the one exception that needs no mask: padding in the
//!   incoming bytes can only clear accumulator bits that are already
//!   zero in a canonical accumulator. A [`ColumnTest`] needs no mask step
//!   either: its masks select no bit at or past the width.
//!
//! The AND loop runs on `chunks_exact(8)`, so the compiler sees a short,
//! branch-free body it can unroll, and [`match_columns`] ANDs whole
//! columns into a per-row byte flag, a loop the compiler vectorizes. The
//! OR ([`or_pages`]) folds up to [`OR_GROUP`] buffers into each 64-byte
//! line of the accumulator while the line sits in registers, so the
//! accumulator is loaded and stored once per group instead of once per
//! buffer; [`or_assign`] is its one-buffer call. The `reference` submodule
//! keeps the pre-kernel byte/bit-granular loops as the
//! differential-testing oracle.

/// Words needed to hold `nbits` bits: `⌈nbits/64⌉`.
#[inline]
pub fn words_for(nbits: u32) -> usize {
    (nbits as usize).div_ceil(64)
}

/// The valid-bit mask for the **last** word of a width-`nbits` bitmap:
/// all ones when the width fills the word, otherwise ones at positions
/// `0 .. nbits % 64`.
#[inline]
pub fn tail_mask(nbits: u32) -> u64 {
    match nbits % 64 {
        0 => !0u64,
        rem => (1u64 << rem) - 1,
    }
}

/// Clears the padding bits (positions `>= nbits`) of a canonical word
/// buffer's last word. A no-op when `nbits` is a multiple of 64.
#[inline]
pub fn mask_tail(words: &mut [u64], nbits: u32) {
    if let Some(last) = words.last_mut() {
        *last &= tail_mask(nbits);
    }
}

/// Word `wi` of an LSB-first byte buffer, zero-padded past the end.
///
/// The chunked loops below use it only for the final partial word (and
/// out-of-range words, which read as zero).
#[inline]
#[expect(
    clippy::expect_used,
    reason = "slice-to-array conversion of a subslice whose length the index expression fixes; cannot fail"
)]
pub fn le_word(bytes: &[u8], wi: usize) -> u64 {
    let start = wi * 8;
    if start + 8 <= bytes.len() {
        u64::from_le_bytes(bytes[start..start + 8].try_into().expect("8 bytes"))
    } else if start < bytes.len() {
        let mut buf = [0u8; 8];
        buf[..bytes.len() - start].copy_from_slice(&bytes[start..]);
        u64::from_le_bytes(buf)
    } else {
        0
    }
}

/// Splits `bytes` into its full 8-byte words and the partial tail word
/// (zero-padded). The iterator body is branch-free so the combine loops
/// autovectorize.
#[inline]
#[expect(
    clippy::expect_used,
    reason = "slice-to-array conversion of a subslice whose length the index expression fixes; cannot fail"
)]
fn full_words(bytes: &[u8]) -> (impl Iterator<Item = u64> + '_, Option<u64>) {
    let chunks = bytes.chunks_exact(8);
    let tail = chunks.remainder();
    let tail_word = if tail.is_empty() {
        None
    } else {
        let mut buf = [0u8; 8];
        buf[..tail.len()].copy_from_slice(tail);
        Some(u64::from_le_bytes(buf))
    };
    let words = chunks.map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    (words, tail_word)
}

/// `acc &= bytes`, word at a time, returning the OR-fold of the result —
/// zero exactly when the accumulator emptied. The fused fold is what lets
/// the BSSF AND loop early-exit without a second pass over the words.
///
/// Bytes past the end of `bytes` read as zero, so accumulator words with
/// no corresponding bytes are cleared. No tail mask is needed: padding in
/// `bytes` can only clear padding bits, and a canonical accumulator has
/// none set.
pub fn and_assign(acc: &mut [u64], bytes: &[u8]) -> u64 {
    let (words, tail) = full_words(bytes);
    let mut alive = 0u64;
    let mut covered = 0usize;
    for (a, w) in acc.iter_mut().zip(words) {
        *a &= w;
        alive |= *a;
        covered += 1;
    }
    if let (Some(a), Some(w)) = (acc.get_mut(covered), tail) {
        *a &= w;
        alive |= *a;
        covered += 1;
    }
    for a in acc.iter_mut().skip(covered) {
        *a = 0;
    }
    alive
}

/// Buffers one [`or_pages`] pass folds into the accumulator: the
/// accumulator is loaded and stored once per this many buffers.
pub const OR_GROUP: usize = 8;

/// Words of the accumulator a pass holds in registers while it folds the
/// group's buffers into them: one 64-byte line.
const LINE_WORDS: usize = 8;

/// `acc |= b` for every buffer `b` of `bufs`, up to [`OR_GROUP`] buffers
/// per pass over `acc`, each pass followed by the tail mask, so padding
/// bits past `nbits` (the accumulator's width; `acc.len()` must be
/// [`words_for`]`(nbits)`) never leak in. Bytes past the end of a buffer
/// read as zero, and bytes past `acc` are not read: the BSSF `T ⊆ Q` scan
/// hands it whole slice pages for a row page of any width.
pub fn or_pages(acc: &mut [u64], bufs: &[&[u8]], nbits: u32) {
    for group in bufs.chunks(OR_GROUP) {
        match group {
            [one] => or_pass(acc, [*one]),
            // A short group repeats its first buffer: OR is idempotent, and
            // a fixed width lets the pass unroll.
            _ => or_pass(
                acc,
                std::array::from_fn::<_, OR_GROUP, _>(|i| *group.get(i).unwrap_or(&group[0])),
            ),
        }
        mask_tail(acc, nbits);
    }
}

/// `acc |= bytes`: the one-buffer call of [`or_pages`].
pub fn or_assign(acc: &mut [u64], bytes: &[u8], nbits: u32) {
    or_pages(acc, &[bytes], nbits);
}

/// One pass of [`or_pages`]: each line of `acc` that every buffer covers in
/// full is loaded once, ORed with the `K` buffers' words in place and
/// stored once; the words past it take the zero-padded [`le_word`] path.
#[expect(
    clippy::expect_used,
    reason = "slice-to-array conversion of an 8-byte chunk; cannot fail"
)]
fn or_pass<const K: usize>(acc: &mut [u64], bufs: [&[u8]; K]) {
    let full = bufs.iter().fold(acc.len(), |n, b| n.min(b.len() / 8));
    let (lines, rest) = acc.split_at_mut(full - full % LINE_WORDS);
    for (li, line) in lines.chunks_exact_mut(LINE_WORDS).enumerate() {
        let at = li * LINE_WORDS * 8;
        let mut w = [0u64; LINE_WORDS];
        w.copy_from_slice(line);
        for b in bufs {
            let bytes = b[at..at + LINE_WORDS * 8].chunks_exact(8);
            for (x, c) in w.iter_mut().zip(bytes) {
                *x |= u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
            }
        }
        line.copy_from_slice(&w);
    }
    let base = lines.len();
    for (wi, a) in (base..).zip(rest) {
        *a = bufs.iter().fold(*a, |a, b| a | le_word(b, wi));
    }
}

/// Fills `acc` from `bytes` (the deserialization kernel behind
/// [`Bitmap::from_bytes`](crate::Bitmap::from_bytes)), masking the tail so
/// the result is canonical.
pub fn fill(acc: &mut [u64], bytes: &[u8], nbits: u32) {
    acc.fill(0);
    or_assign(acc, bytes, nbits);
}

/// A row predicate over byte-sliced pages, compiled once per query: a row
/// matches when `column(c)[s] & mask == want` holds for every `(c, mask,
/// want)` term, where column `c` holds byte `c` of every row of the page.
/// No mask selects a bit at or past the width, so a row's padding never
/// changes the outcome. Terms run most constraining first, by mask
/// popcount (ties by column), so a scan stops a page as early as it can. A
/// test with no terms matches every row.
#[derive(Clone, Debug)]
pub struct ColumnTest {
    terms: Vec<(usize, u8, u8)>,
}

impl ColumnTest {
    /// `T ⊇ Q`, every query bit set in the row: `(c, q_c, q_c)` for each
    /// non-zero byte `q_c` of the canonical `nbits`-wide query.
    pub fn superset(query: &[u64], nbits: u32) -> Self {
        Self::compile(query, nbits, |q, _| (q, q))
    }

    /// `T ⊆ Q`, no row bit outside the query: `(c, ¬q_c & valid_c, 0)` for
    /// each byte where that mask is non-zero.
    pub fn subset(query: &[u64], nbits: u32) -> Self {
        Self::compile(query, nbits, |q, valid| (!q & valid, 0))
    }

    /// `T = Q` over the width: `(c, valid_c, q_c)` for every byte.
    pub fn equals(query: &[u64], nbits: u32) -> Self {
        Self::compile(query, nbits, |q, valid| (valid, q))
    }

    /// One term per query byte from the byte and its valid bits (all ones
    /// but on the last byte of a width `8 ∤ nbits`); a zero mask tests
    /// nothing.
    fn compile(query: &[u64], nbits: u32, term: impl Fn(u8, u8) -> (u8, u8)) -> Self {
        let nbytes = (nbits as usize).div_ceil(8);
        let terms_of = (0..nbytes).map(|c| {
            let q = query.get(c / 8).map_or(0, |w| (w >> (8 * (c % 8))) as u8);
            let valid = match nbits % 8 {
                rem if rem != 0 && c + 1 == nbytes => (1u8 << rem) - 1,
                _ => !0,
            };
            let (mask, want) = term(q, valid);
            (c, mask, want)
        });
        // Sized once, and sorted unstably (the column breaks ties): a test
        // is one allocation.
        let mut terms = Vec::with_capacity(nbytes);
        terms.extend(terms_of.filter(|&(_, mask, _)| mask != 0));
        terms.sort_unstable_by_key(|&(c, mask, _)| (std::cmp::Reverse(mask.count_ones()), c));
        ColumnTest { terms }
    }
}

/// Column `c` of a byte-sliced page of `per_page` rows, cut to its first
/// `rows` bytes; shorter, possibly empty, where the page ends first.
#[inline]
fn column(page: &[u8], per_page: usize, c: usize, rows: usize) -> &[u8] {
    let col = page.get(c * per_page..).unwrap_or(&[]);
    &col[..rows.min(col.len())]
}

/// Appends `base + s` to `out` for each row `s < live.len()` of a
/// byte-sliced `page` that passes `test`, byte `c` of row `s` at
/// `c·per_page + s`; bytes past the end of `page` read as zero.
///
/// `live` holds one flag byte per row, all ones while the row is live (the
/// caller's buffer, so a scan holds one for the whole query). Each term ANDs
/// its contiguous column's compare into the flags in one branch-free pass
/// that the compiler vectorizes — the all-ones flag is the byte compare's
/// own result — fused with the OR-fold that tells whether any row is still
/// live: the kernel stops at the first term that leaves none, and
/// otherwise emits the rows still live.
pub fn match_columns(
    test: &ColumnTest,
    page: &[u8],
    per_page: usize,
    base: u64,
    live: &mut [u8],
    out: &mut Vec<u64>,
) {
    live.fill(!0);
    for &(c, mask, want) in &test.terms {
        let col = column(page, per_page, c, live.len());
        let (head, past) = live.split_at_mut(col.len());
        let mut alive = 0u8;
        for (l, &b) in head.iter_mut().zip(col) {
            *l &= u8::from(b & mask == want).wrapping_neg();
            alive |= *l;
        }
        // Rows the page ends before read as zero bytes.
        if want == 0 {
            alive |= past.iter().fold(0, |a, &l| a | l);
        } else {
            past.fill(0);
        }
        if alive == 0 {
            return;
        }
    }
    let hits = (base..).zip(live.iter()).filter(|&(_, &l)| l != 0);
    out.extend(hits.map(|(pos, _)| pos));
}

/// `counts[s] = popcount(query & row s)` for each row `s < counts.len()`
/// of a byte-sliced `page` of `per_page` rows — the `T ≬ Q` row kernel.
/// Only the query's non-zero bytes are read, each as one contiguous
/// column; the query words are canonical, so row padding ANDs against
/// zero and needs no mask, and bytes past the end of `page` read as zero.
/// `u16` counts hold any width that fits a page (`F ≤ 8·4096`).
pub fn overlap_columns(query: &[u64], page: &[u8], per_page: usize, counts: &mut [u16]) {
    counts.fill(0);
    let bytes = query.iter().flat_map(|w| w.to_le_bytes());
    for (c, q) in bytes.enumerate().filter(|&(_, q)| q != 0) {
        let col = column(page, per_page, c, counts.len());
        for (n, &b) in counts.iter_mut().zip(col) {
            *n += (b & q).count_ones() as u16;
        }
    }
}

/// The set-bit positions of word `wi` (bit `b` is position `64·wi + b`),
/// ascending — the one bit-walk behind every position iterator.
#[inline]
pub fn word_ones(wi: usize, mut w: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        if w == 0 {
            None
        } else {
            let bit = w.trailing_zeros();
            w &= w - 1;
            Some(wi as u32 * 64 + bit)
        }
    })
}

/// Iterates the set-bit positions of an LSB-first serialized bitmap of
/// width `nbits`, ascending, word at a time. The last word is tail-masked
/// up front, so the per-bit loop needs no range check.
pub fn iter_ones(nbits: u32, bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    let nbytes = (nbits as usize).div_ceil(8);
    let bytes = &bytes[..nbytes.min(bytes.len())];
    let nwords = words_for(nbits);
    (0..nwords).flat_map(move |wi| {
        let mut w = le_word(bytes, wi);
        if wi + 1 == nwords {
            w &= tail_mask(nbits);
        }
        word_ones(wi, w)
    })
}

/// `counts[p] += 1` for every set bit `p` of the serialized bitmap, word
/// at a time — the overlap scan's per-slice counting kernel. Counts are
/// `u32`: per-row overlap counts are bounded by the slice count `F`
/// (itself a `u32`), so unlike a `u16` they can never wrap for any legal
/// signature geometry.
pub fn accumulate_ones(counts: &mut [u32], bytes: &[u8]) {
    let nbits = counts.len() as u32;
    let nwords = words_for(nbits);
    for wi in 0..nwords {
        let mut w = le_word(bytes, wi);
        if wi + 1 == nwords {
            w &= tail_mask(nbits);
        }
        while w != 0 {
            let bit = w.trailing_zeros() as usize;
            w &= w - 1;
            if let Some(c) = counts.get_mut(wi * 64 + bit) {
                *c += 1;
            }
        }
    }
}

/// The pre-kernel byte/bit-granular loops, kept verbatim in spirit as the
/// differential-testing oracle. Each function mirrors one word kernel above
/// and must stay bit-identical to it.
///
/// Hidden from the docs: no scan calls it; `tests/prop.rs` diffs the word
/// kernels against it.
#[doc(hidden)]
pub mod reference {
    /// Byte-loop `acc &= bytes` over serialized buffers; `acc` bytes past
    /// `bytes` are cleared (matching the word kernel's zero padding).
    pub fn and_assign(acc: &mut [u8], bytes: &[u8]) {
        let n = acc.len().min(bytes.len());
        for (a, b) in acc[..n].iter_mut().zip(bytes) {
            *a &= b;
        }
        for a in &mut acc[n..] {
            *a = 0;
        }
    }

    /// Byte-loop `acc |= bytes` with per-bit tail masking.
    pub fn or_assign(acc: &mut [u8], bytes: &[u8], nbits: u32) {
        let n = acc.len().min(bytes.len());
        for (a, b) in acc[..n].iter_mut().zip(bytes) {
            *a |= b;
        }
        mask_tail_bytes(acc, nbits);
    }

    /// Clears bits at positions `>= nbits` with a per-bit loop.
    pub fn mask_tail_bytes(acc: &mut [u8], nbits: u32) {
        for (i, a) in acc.iter_mut().enumerate() {
            for bit in 0..8 {
                if (i * 8 + bit) as u32 >= nbits {
                    *a &= !(1 << bit);
                }
            }
        }
    }

    /// Bit-loop `T ⊇ Q` row match: every query bit set in the row.
    pub fn is_covered_by(query: &[u8], row: &[u8], nbits: u32) -> bool {
        (0..nbits).all(|i| !get_bit(query, i) || get_bit(row, i))
    }

    /// Bit-loop `T ⊆ Q` row match: every row bit (within the width) set
    /// in the query.
    pub fn covers(query: &[u8], row: &[u8], nbits: u32) -> bool {
        (0..nbits).all(|i| !get_bit(row, i) || get_bit(query, i))
    }

    /// Bit-loop equality over the width.
    pub fn eq(query: &[u8], row: &[u8], nbits: u32) -> bool {
        (0..nbits).all(|i| get_bit(query, i) == get_bit(row, i))
    }

    /// Bit-loop popcount of the intersection.
    pub fn intersection_count(query: &[u8], row: &[u8], nbits: u32) -> u32 {
        (0..nbits)
            .filter(|&i| get_bit(query, i) && get_bit(row, i))
            .count() as u32
    }

    /// Bit-loop ascending set-position scan.
    pub fn iter_ones(nbits: u32, bytes: &[u8]) -> Vec<u32> {
        (0..nbits).filter(|&i| get_bit(bytes, i)).collect()
    }

    /// Bit `i` of an LSB-first buffer; bits past the end read as zero.
    fn get_bit(bytes: &[u8], i: u32) -> bool {
        bytes
            .get((i / 8) as usize)
            .is_some_and(|b| b >> (i % 8) & 1 == 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setsig_pagestore::PAGE_SIZE;

    /// Widths chosen to straddle every alignment case: sub-byte, sub-word,
    /// exact word, word+byte, word+bit, multi-word.
    const WIDTHS: [u32; 9] = [1, 7, 8, 63, 64, 65, 100, 128, 509];

    fn pattern(nbits: u32, salt: u64) -> Vec<u8> {
        let nbytes = (nbits as usize).div_ceil(8);
        (0..nbytes)
            .map(|i| (i as u64).wrapping_mul(0x9e37_79b9).wrapping_add(salt) as u8)
            .collect()
    }

    fn to_words(bytes: &[u8], nbits: u32) -> Vec<u64> {
        let mut w = vec![0u64; words_for(nbits)];
        fill(&mut w, bytes, nbits);
        w
    }

    fn to_bytes(words: &[u64], nbits: u32) -> Vec<u8> {
        let nbytes = (nbits as usize).div_ceil(8);
        let mut out = vec![0u8; nbytes];
        for (i, b) in out.iter_mut().enumerate() {
            *b = (words[i / 8] >> ((i % 8) * 8)) as u8;
        }
        out
    }

    #[test]
    fn tail_mask_covers_all_remainders() {
        assert_eq!(tail_mask(64), !0);
        assert_eq!(tail_mask(128), !0);
        assert_eq!(tail_mask(1), 1);
        assert_eq!(tail_mask(65), 1);
        assert_eq!(tail_mask(70), 0b11_1111);
    }

    #[test]
    fn and_matches_reference_and_reports_liveness() {
        for &nbits in &WIDTHS {
            let a = pattern(nbits, 3);
            let b = pattern(nbits, 5);
            let mut acc = to_words(&a, nbits);
            let alive = and_assign(&mut acc, &b);
            let mut rf = a.clone();
            reference::and_assign(&mut rf, &b);
            reference::mask_tail_bytes(&mut rf, nbits);
            assert_eq!(to_bytes(&acc, nbits), rf, "width {nbits}");
            assert_eq!(alive != 0, acc.iter().any(|&w| w != 0), "width {nbits}");
        }
    }

    #[test]
    fn and_clears_words_past_short_input() {
        let mut acc = vec![!0u64; 3];
        let alive = and_assign(&mut acc, &[0xff, 0xff]);
        assert_eq!(acc, vec![0xffff, 0, 0]);
        assert_ne!(alive, 0);
        let mut acc = vec![!0u64; 2];
        assert_eq!(and_assign(&mut acc, &[]), 0);
        assert_eq!(acc, vec![0, 0]);
    }

    #[test]
    fn or_masks_padding_garbage() {
        // The widths above, then row pages of the `T ⊆ Q` scan, which ORs a
        // whole 4 KiB slice page into each: 700 rows (the last word holds
        // 60), 4,000, a full page and one row short. Every bit past the
        // width is a stray one, and the page's bytes past the accumulator
        // are not read.
        let page = vec![0xffu8; PAGE_SIZE];
        for nbits in WIDTHS.into_iter().chain([700, 4_000, 32_767, 32_768]) {
            let exact = &page[..(nbits as usize).div_ceil(8)];
            for all in [exact, &page[..]] {
                let mut acc = vec![0u64; words_for(nbits)];
                or_assign(&mut acc, all, nbits);
                let ones: u32 = acc.iter().map(|w| w.count_ones()).sum();
                assert_eq!(ones, nbits, "width {nbits}, {} bytes", all.len());
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn or_assign_spans_slice_pages() {
        // `or_assign` takes any width: a slice page at a time, the last one
        // short, and bytes that stop in the middle one.
        let nbits = 2 * (PAGE_SIZE as u32 * 8) + 700;
        let (a, b) = (pattern(nbits, 3), pattern(nbits, 5));
        for bytes in [&b[..], &b[..PAGE_SIZE + 100]] {
            let mut acc = to_words(&a, nbits);
            or_assign(&mut acc, bytes, nbits);
            let mut rf = a.clone();
            reference::or_assign(&mut rf, bytes, nbits);
            assert_eq!(to_bytes(&acc, nbits), rf, "{} bytes", bytes.len());
        }
    }

    #[test]
    fn fill_is_canonical() {
        for &nbits in &WIDTHS {
            let bytes = vec![0xffu8; (nbits as usize).div_ceil(8)];
            let w = to_words(&bytes, nbits);
            assert_eq!(
                w.iter().map(|w| w.count_ones()).sum::<u32>(),
                nbits,
                "width {nbits}"
            );
        }
    }

    #[test]
    fn match_kernels_agree_with_bit_loops() {
        for &nbits in &WIDTHS {
            for salt in 0..4u64 {
                let q = pattern(nbits, salt);
                let r = pattern(nbits, salt ^ 0xa5);
                let qw = to_words(&q, nbits);
                // The bit-loop oracle reads raw bytes; mask the query the
                // same way `to_words` does before comparing.
                let qm = to_bytes(&qw, nbits);
                assert_eq!(
                    passes(&ColumnTest::superset(&qw, nbits), &r),
                    reference::is_covered_by(&qm, &r, nbits),
                    "⊇ width {nbits} salt {salt}"
                );
                assert_eq!(
                    passes(&ColumnTest::subset(&qw, nbits), &r),
                    reference::covers(&qm, &r, nbits),
                    "⊆ width {nbits} salt {salt}"
                );
                assert_eq!(
                    passes(&ColumnTest::equals(&qw, nbits), &r),
                    reference::eq(&qm, &r, nbits),
                    "eq width {nbits} salt {salt}"
                );
                assert_eq!(
                    overlap(&qw, &r),
                    reference::intersection_count(&qm, &r, nbits),
                    "popcount width {nbits} salt {salt}"
                );
                assert_eq!(
                    iter_ones(nbits, &r).collect::<Vec<_>>(),
                    reference::iter_ones(nbits, &r),
                    "iter_ones width {nbits} salt {salt}"
                );
            }
        }
        // Padding bits past `nbits` in the last byte are not positions.
        assert_eq!(iter_ones(4, &[0b1111_0110]).collect::<Vec<_>>(), [1, 2]);
    }

    #[test]
    fn short_rows_read_as_zero_padded() {
        // A one-row page shorter than the width: a query byte past it must
        // compare against zero, not panic.
        let q = to_words(&[0b1, 0, 0, 0, 0, 0, 0, 0, 0b1], 65);
        assert_eq!(
            ColumnTest::superset(&q, 65).terms,
            vec![(0, 1, 1), (8, 1, 1)]
        );
        assert!(!passes(&ColumnTest::superset(&q, 65), &[0b1]));
        assert!(passes(
            &ColumnTest::superset(&to_words(&[0b1], 65), 65),
            &[0b1]
        ));
        // The all-zero query has no bytes to test and matches every row.
        assert!(ColumnTest::superset(&[0, 0], 65).terms.is_empty());
        assert!(passes(&ColumnTest::superset(&[0, 0], 65), &[]));
        assert!(passes(&ColumnTest::subset(&q, 65), &[0b1]));
        assert!(!passes(&ColumnTest::equals(&q, 65), &[0b1]));
        assert_eq!(overlap(&q, &[0b1]), 1);
    }

    #[test]
    fn terms_run_most_constraining_first() {
        // Mask popcounts 1, 3, 3, 2: the two 3s first, by column, then the
        // 2, then the 1.
        let q = to_words(&[0b1, 0b111, 0b1011, 0b1001], 28);
        let columns: Vec<usize> = (ColumnTest::superset(&q, 28).terms.iter())
            .map(|t| t.0)
            .collect();
        assert_eq!(columns, [1, 2, 3, 0]);
        // `⊆` masks the last byte to its four valid bits: ¬0b1001 there is
        // 0b0110, not 0b1111_0110.
        assert_eq!(
            ColumnTest::subset(&q, 28).terms,
            [(0, 0xfe, 0), (1, 0xf8, 0), (2, 0xf4, 0), (3, 0b0110, 0)]
        );
    }

    /// Whether the one-row page `row` passes `test`: with one row a page, a
    /// byte-sliced page is the row itself.
    fn passes(test: &ColumnTest, row: &[u8]) -> bool {
        let mut out = Vec::new();
        match_columns(test, row, 1, 7, &mut [0], &mut out);
        assert!(out.is_empty() || out == [7], "{out:?}");
        !out.is_empty()
    }

    /// The overlap count of the one-row page `row`.
    fn overlap(query: &[u64], row: &[u8]) -> u32 {
        let mut counts = [0u16];
        overlap_columns(query, row, 1, &mut counts);
        u32::from(counts[0])
    }

    /// A byte-sliced page of `per_page` rows holding `rows` (each `stride`
    /// bytes): every byte no row writes — the columns' bytes past the
    /// rows and the slack past `per_page·stride` — is a one.
    fn sliced(rows: &[Vec<u8>], per_page: usize, stride: usize) -> Vec<u8> {
        let mut page = vec![0xffu8; PAGE_SIZE];
        for (s, row) in rows.iter().enumerate() {
            for (c, &b) in row.iter().enumerate() {
                page[c * per_page + s] = b;
            }
        }
        assert!(per_page * stride <= PAGE_SIZE);
        page
    }

    #[test]
    fn full_pages_match_like_the_bit_loops_up_to_the_last_byte() {
        type Compile = fn(&[u64], u32) -> ColumnTest;
        type Oracle = fn(&[u8], &[u8], u32) -> bool;
        // One row's flag per slot of the widest page, 4,096 rows at F = 8.
        let mut live = vec![0u8; PAGE_SIZE];
        for nbits in [8u32, 72, 100, 500] {
            let stride = (nbits as usize).div_ceil(8);
            let per_page = PAGE_SIZE / stride;
            // Every row's padding bits are ones: only the masks keep them out.
            let all: Vec<Vec<u8>> = (0..per_page)
                .map(|s| {
                    let mut row = pattern(nbits, s as u64 * 37 + 11);
                    if nbits % 8 != 0 {
                        *row.last_mut().unwrap() |= 0xff << (nbits % 8);
                    }
                    row
                })
                .collect();
            // A full page, then a partial last page of a third of the rows.
            for rows in [per_page, per_page / 3 + 1] {
                let page = sliced(&all[..rows], per_page, stride);
                let last = &all[rows - 1][..];
                // Fewer and more bits than the last row: the top bit of each
                // run of ones, and each run grown by one.
                let thin: Vec<u8> = last.iter().map(|r| r & !(r >> 1)).collect();
                let wide: Vec<u8> = last.iter().map(|r| r | r << 1).collect();
                let cases: [(&str, Compile, Oracle, &[u8]); 5] = [
                    ("⊇", ColumnTest::superset, reference::is_covered_by, &thin),
                    ("⊆", ColumnTest::subset, reference::covers, &wide),
                    ("=", ColumnTest::equals, reference::eq, last),
                    ("⊇ ∅", ColumnTest::superset, reference::is_covered_by, &[]),
                    (
                        "⊆ all F bits",
                        ColumnTest::subset,
                        reference::covers,
                        &[0xff; 63],
                    ),
                ];
                for (i, (what, compile, oracle, query)) in cases.into_iter().enumerate() {
                    let words = to_words(query, nbits);
                    let test = compile(&words, nbits);
                    // The last two compile to the empty test.
                    assert_eq!(test.terms.is_empty(), i >= 3, "{what} width {nbits}");
                    let query = to_bytes(&words, nbits);
                    let want: Vec<u64> = (0..rows)
                        .filter(|&s| oracle(&query, &all[s], nbits))
                        .map(|s| 1_000 + s as u64)
                        .collect();
                    let mut got = Vec::new();
                    match_columns(&test, &page, per_page, 1_000, &mut live[..rows], &mut got);
                    assert_eq!(got, want, "{what} width {nbits}, {rows} rows");
                    // The query came from the last row, so it is a hit.
                    assert_eq!(
                        got.last(),
                        Some(&(999 + rows as u64)),
                        "{what} width {nbits}, {rows} rows"
                    );
                }
                let words = to_words(&thin, nbits);
                let mut counts = vec![0u16; rows];
                overlap_columns(&words, &page, per_page, &mut counts);
                let want: Vec<u16> = (all[..rows].iter())
                    .map(|row| reference::intersection_count(&thin, row, nbits) as u16)
                    .collect();
                assert_eq!(counts, want, "≬ width {nbits}, {rows} rows");
            }
        }
    }

    #[test]
    fn accumulate_ones_counts_every_position_once() {
        let mut counts = vec![0u32; 20];
        let bm = [0b1000_0001u8, 0b0000_0001, 0b1111_1000];
        accumulate_ones(&mut counts, &bm);
        accumulate_ones(&mut counts, &bm);
        assert_eq!(counts[0], 2);
        assert_eq!(counts[7], 2);
        assert_eq!(counts[8], 2);
        assert_eq!(counts[19], 2);
        assert_eq!(counts.iter().sum::<u32>(), 2 * 4); // bits 20+ masked off
    }

    #[test]
    fn accumulate_ones_survives_the_u16_boundary() {
        // Regression for the overlap-count truncation: 65,536 single-bit
        // accumulations must count 65,536, not wrap to 0 as a u16 did.
        let mut counts = vec![0u32; 8];
        for _ in 0..=u16::MAX as u32 {
            accumulate_ones(&mut counts, &[0b1]);
        }
        assert_eq!(counts[0], u16::MAX as u32 + 1);
        assert!(counts[0] > u16::MAX as u32, "count must not wrap at 2^16");
    }
}
