//! Word-level slice kernels: the one place bytes become `u64` words.
//!
//! Every signature-scan hot path — the BSSF slice AND/OR loops, the SSF
//! row match ([`RowTest`] + [`match_rows`]), the overlap counters, and
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
//! * **Tail-mask contract.** A width of `nbits` occupies
//!   [`words_for`]`(nbits)` words; bits at positions `>= nbits` in the
//!   last word are *padding*. Kernels that read external bytes mask the
//!   padding with [`tail_mask`] before it can influence a result, and
//!   kernels that write an accumulator leave it *canonical* (padding bits
//!   zero) so `count_ones`/`is_zero`-style folds need no re-masking.
//!   `AND` is the one exception that needs no mask: padding in the
//!   incoming bytes can only clear accumulator bits that are already
//!   zero in a canonical accumulator. A [`RowTest`] needs no mask step
//!   either: its masks select no bit at or past the width. The one
//!   deferred mask is the `T ⊆ Q` slice loop's: [`or_live`] lets stray
//!   bits in, the scan masks the tail once per row page, and
//!   [`open_blocks`] counts padding as set, so stray bits cannot matter.
//! * **Blocks.** The BSSF `T ⊆ Q` slice loop ORs slice pages into a row
//!   page's accumulator (at most [`MASK_WORDS`] = 512 words) under a `u64`
//!   live mask: bit `b` covers block `b`, the [`BLOCK_WORDS`] = 8 words of
//!   one cache line (512 rows). [`or_live`] is one straight word loop over
//!   each run of live blocks, with no per-block test, and [`open_blocks`]
//!   is a separate fold that retires the blocks whose rows are all set,
//!   once every [`REFRESH_SLICES`] slices. The two are split because the
//!   §5.2.2 cap ends most `⊆` scans while their blocks are still live: a
//!   fullness test on every slice page costs there and buys nothing.
//!   [`or_assign`] is the same loop over the whole accumulator. The
//!   `T ⊇ Q` loop needs no mask: [`and_assign`]'s fused OR-fold already
//!   ends a row page once it empties.
//!
//! The AND and OR loops run on `chunks_exact(8)`, so the compiler sees
//! short, branch-free bodies it can unroll, and [`match_rows`]
//! reads its row words in place; only a word that runs past the end of its
//! buffer takes the padded [`le_word`] path. The `reference` submodule
//! keeps the pre-kernel byte/bit-granular loops as the differential-testing
//! oracle.

use setsig_pagestore::PAGE_SIZE;

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
/// out-of-range words, which read as zero); [`match_rows`] for every row
/// word, where its full-word branch is the in-place read.
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

/// Words of a block: one 64-byte cache line, 512 rows of a row page.
pub const BLOCK_WORDS: usize = 8;

/// Slices a `T ⊆ Q` row page ORs ([`or_live`]) between two refreshes of
/// its live mask ([`open_blocks`]). The refresh reads the accumulator once,
/// about a sixteenth of a slice page's work, and a block whose rows have
/// all filled is ORed into at most 15 slices late.
pub const REFRESH_SLICES: usize = 16;

/// Words one live mask covers: a slice page's 4 KiB, one block per bit.
pub const MASK_WORDS: usize = PAGE_SIZE / 8;
const _: () = assert!(MASK_WORDS == 64 * BLOCK_WORDS, "one mask bit per block");

/// `acc |= bytes` word at a time: the one OR loop. Bytes past the end of
/// `bytes` read as zero, and bytes past `acc` are not read.
#[inline(always)]
fn or_words(acc: &mut [u64], bytes: &[u8]) {
    let (words, tail) = full_words(bytes);
    for (a, w) in acc.iter_mut().zip(words) {
        *a |= w;
    }
    if let (Some(a), Some(w)) = (acc.get_mut(bytes.len() / 8), tail) {
        *a |= w;
    }
}

/// `acc |= bytes` on the blocks live in `live`: the `T ⊆ Q` slice loop.
/// Each run of adjacent live blocks is one straight word loop, with no
/// test of whether a block has filled ([`open_blocks`] does that, every
/// [`REFRESH_SLICES`] slices). A block that is not live is neither read
/// nor written, and mask bits past `acc`'s last block are ignored; `acc`
/// is at most [`MASK_WORDS`] words.
///
/// Bits of `bytes` past the accumulator's width are ORed in as they come;
/// the caller masks the tail ([`mask_tail`]) once the row page is done.
pub fn or_live(acc: &mut [u64], bytes: &[u8], live: u64) {
    debug_assert!(acc.len() <= MASK_WORDS, "{} words", acc.len());
    let blocks = acc.len().div_ceil(BLOCK_WORDS) as u32;
    let every = u64::MAX
        .checked_shr(64u32.saturating_sub(blocks))
        .unwrap_or(0);
    let mut todo = live & every;
    while todo != 0 {
        let first = todo.trailing_zeros();
        let end = first + (todo >> first).trailing_ones();
        let lo = first as usize * BLOCK_WORDS;
        let hi = (end as usize * BLOCK_WORDS).min(acc.len());
        or_words(&mut acc[lo..hi], bytes.get(lo * 8..).unwrap_or(&[]));
        todo &= u64::MAX.checked_shl(end).unwrap_or(0);
    }
}

/// The blocks of `live` that still have a clear row: a straight fold over
/// the accumulator, one `AND` a word. `nbits` is its width (`acc.len()`
/// must be [`words_for`]`(nbits)`, at most [`MASK_WORDS`]); padding past it
/// counts as set, so a block whose rows are all set is full even where
/// `nbits` ends mid-word, set padding bits or not.
pub fn open_blocks(acc: &[u64], nbits: u32, live: u64) -> u64 {
    debug_assert!(acc.len() <= MASK_WORDS, "{} words", acc.len());
    let Some((&last, body)) = acc.split_last() else {
        return 0;
    };
    let blocks = body.chunks_exact(BLOCK_WORDS);
    let head = blocks.remainder();
    let mut open = 0u64;
    for (b, block) in blocks.enumerate() {
        let full = block.iter().fold(!0, |f, &w| f & w);
        open |= u64::from(full != !0) << b;
    }
    let full = head.iter().fold(last | !tail_mask(nbits), |f, &w| f & w);
    open |= u64::from(full != !0) << (body.len() / BLOCK_WORDS);
    live & open
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

/// `acc |= bytes` on every word: the word loop of [`or_live`] over the
/// whole accumulator, of any width, then the tail mask, so padding bits
/// past `nbits` (the accumulator's width; `acc.len()` must be
/// [`words_for`]`(nbits)`) never leak in.
pub fn or_assign(acc: &mut [u64], bytes: &[u8], nbits: u32) {
    or_words(acc, bytes);
    mask_tail(acc, nbits);
}

/// Fills `acc` from `bytes` (the deserialization kernel behind
/// [`Bitmap::from_bytes`](crate::Bitmap::from_bytes)), masking the tail so
/// the result is canonical.
pub fn fill(acc: &mut [u64], bytes: &[u8], nbits: u32) {
    let (words, tail) = full_words(bytes);
    let mut covered = 0usize;
    for (a, w) in acc.iter_mut().zip(words) {
        *a = w;
        covered += 1;
    }
    if let (Some(a), Some(w)) = (acc.get_mut(covered), tail) {
        *a = w;
        covered += 1;
    }
    for a in acc.iter_mut().skip(covered) {
        *a = 0;
    }
    mask_tail(acc, nbits);
}

/// A row predicate compiled once per query: a row matches when
/// `word(wi) & mask == want` holds for every `(wi, mask, want)` term, where
/// `word(wi)` is word `wi` of the serialized row ([`le_word`] layout). No
/// mask selects a bit at or past the width, so neither the row's padding
/// nor the next row's bytes, which an in-place word read runs into, can
/// change the outcome. A test with no terms matches every row.
#[derive(Clone, Debug)]
pub struct RowTest {
    terms: Vec<(usize, u64, u64)>,
}

impl RowTest {
    /// `T ⊇ Q`, every query bit set in the row: `(wi, q, q)` for each
    /// non-zero word `q` of the canonical `nbits`-wide query.
    pub fn superset(query: &[u64], nbits: u32) -> Self {
        Self::compile(query, nbits, |q, _| (q, q))
    }

    /// `T ⊆ Q`, no row bit outside the query: `(wi, !q & valid, 0)` for
    /// each word where that mask is non-zero.
    pub fn subset(query: &[u64], nbits: u32) -> Self {
        Self::compile(query, nbits, |q, valid| (!q & valid, 0))
    }

    /// `T = Q` over the width: `(wi, valid, q)` for every word.
    pub fn equals(query: &[u64], nbits: u32) -> Self {
        Self::compile(query, nbits, |q, valid| (valid, q))
    }

    /// One term per query word from the word and its valid bits (all ones
    /// but on the last word, [`tail_mask`]); a zero mask tests nothing.
    fn compile(query: &[u64], nbits: u32, term: impl Fn(u64, u64) -> (u64, u64)) -> Self {
        let last = query.len().saturating_sub(1);
        let terms = query.iter().enumerate().map(|(wi, &q)| {
            let valid = if wi == last { tail_mask(nbits) } else { !0 };
            let (mask, want) = term(q, valid);
            (wi, mask, want)
        });
        let terms = terms.filter(|&(_, mask, _)| mask != 0).collect();
        RowTest { terms }
    }
}

/// Appends `base + s` to `out` for each row `s < rows` of `page` that
/// passes `test`, row `s` starting at byte `s·stride`.
///
/// Word `wi` of row `s` is read in place at `s·stride + 8·wi`; only a word
/// that runs past the end of `page` takes the zero-padded [`le_word`]
/// path. Rows go 64 at a time: the first term is evaluated branch-free into
/// a live mask, and the other terms only for the rows still live.
pub fn match_rows(
    test: &RowTest,
    page: &[u8],
    stride: usize,
    rows: usize,
    base: u64,
    out: &mut Vec<u64>,
) {
    let Some((&(wi, mask, want), rest)) = test.terms.split_first() else {
        out.extend(base..base + rows as u64);
        return;
    };
    let word = |s: usize, wi: usize| le_word(page.get(s * stride + 8 * wi..).unwrap_or(&[]), 0);
    for run in (0..rows).step_by(64) {
        let mut live = 0u64;
        for i in 0..(rows - run).min(64) {
            live |= u64::from(word(run + i, wi) & mask == want) << i;
        }
        while live != 0 {
            let s = run + live.trailing_zeros() as usize;
            live &= live - 1;
            if rest
                .iter()
                .all(|&(wi, mask, want)| word(s, wi) & mask == want)
            {
                out.push(base + s as u64);
            }
        }
    }
}

/// Popcount of `query & row` — the overlap row-match kernel. The query
/// words are canonical, so row padding ANDs against zero and needs no
/// mask.
pub fn intersection_count(query: &[u64], row: &[u8]) -> u32 {
    let (words, tail) = full_words(row);
    let mut q = query.iter();
    let mut n = 0u32;
    for w in words {
        match q.next() {
            Some(&qw) => n += (qw & w).count_ones(),
            None => return n,
        }
    }
    if let (Some(w), Some(&qw)) = (tail, q.next()) {
        n += (qw & w).count_ones();
    }
    n
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
/// Compiled only under `cfg(test)` and the `bench` feature (which the
/// crate's integration tests turn on): production binaries ship the word
/// kernels alone, so a scan can never silently fall back to the byte loops.
#[cfg(any(test, feature = "bench"))]
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
        for &nbits in &WIDTHS {
            let mut acc = vec![0u64; words_for(nbits)];
            let all = vec![0xffu8; (nbits as usize).div_ceil(8)];
            or_assign(&mut acc, &all, nbits);
            let ones: u32 = acc.iter().map(|w| w.count_ones()).sum();
            assert_eq!(ones, nbits, "width {nbits}");
        }
    }

    /// Row-page widths whose last block and last word are whole, partial
    /// or both: one row, one word, one block, a block and a word, 700 rows
    /// (11 words, the last with 60 rows), a full page and one row short.
    const ROW_PAGES: [u32; 9] = [1, 64, 512, 576, 700, 4_000, 32_705, 32_767, 32_768];

    /// The mask of every block an `nbits`-wide accumulator has.
    fn all_blocks(nbits: u32) -> u64 {
        match words_for(nbits).div_ceil(BLOCK_WORDS) {
            64 => !0,
            blocks => (1 << blocks) - 1,
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
    #[cfg_attr(miri, ignore)]
    fn an_all_ones_page_leaves_no_block_live() {
        let ones = vec![0xffu8; PAGE_SIZE];
        let zeros = vec![0u8; PAGE_SIZE];
        for nbits in ROW_PAGES {
            // An all-zero page leaves every block open and no bit past the
            // last one; an all-ones page sets every row and the stray bits
            // past `nbits`. Padding counts as set, so no block stays open,
            // before the tail mask clears the stray bits or after.
            let mut acc = vec![0u64; words_for(nbits)];
            let open = all_blocks(nbits);
            or_live(&mut acc, &zeros, !0);
            assert_eq!(open_blocks(&acc, nbits, !0), open, "{nbits}");
            or_live(&mut acc, &ones, !0);
            assert_eq!(open_blocks(&acc, nbits, !0), 0, "{nbits}");
            mask_tail(&mut acc, nbits);
            assert_eq!(open_blocks(&acc, nbits, !0), 0, "{nbits}");
            let set: u32 = acc.iter().map(|w| w.count_ones()).sum();
            assert_eq!(set, nbits, "{nbits}");
        }
    }

    #[test]
    fn one_clear_row_keeps_its_block_live() {
        // 700 rows: block 1 is words 8..11, its last word holds rows
        // 640..700. Every row but 699 is set, and every bit past row 699
        // of the page is a stray one.
        let mut page = vec![0xffu8; 100];
        page[699 / 8] &= !(1 << (699 % 8));
        let mut acc = vec![0u64; words_for(700)];
        or_live(&mut acc, &page, !0);
        mask_tail(&mut acc, 700);
        assert_eq!(open_blocks(&acc, 700, !0), 0b10);
        assert_eq!(acc[10], tail_mask(700) & !(1 << (699 % 64)));
        or_live(&mut acc, &[0xff; 88], 0b10);
        mask_tail(&mut acc, 700);
        assert_eq!(acc[10], tail_mask(700));
        assert_eq!(open_blocks(&acc, 700, 0b10), 0);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn dead_blocks_are_neither_read_nor_written() {
        let ones = vec![0xffu8; PAGE_SIZE];
        // Every other block; runs of three and four blocks, the last one
        // ending at block 63; and every block there could be.
        let masks = [0x5555_5555_5555_5555u64, 0xe3c7_8f1e_3c78_f1e3, !0];
        for (nbits, live) in ROW_PAGES.into_iter().flat_map(|n| masks.map(|m| (n, m))) {
            let mut start: Vec<u64> = (0..words_for(nbits) as u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 1)
                .collect();
            mask_tail(&mut start, nbits);
            // The bytes fill every live block.
            let mut acc = start.clone();
            or_live(&mut acc, &ones, live);
            mask_tail(&mut acc, nbits);
            assert_eq!(open_blocks(&acc, nbits, live), 0, "{nbits} {live:x}");
            for (wi, (a, s)) in acc.iter().zip(&start).enumerate() {
                if live >> (wi / BLOCK_WORDS) & 1 == 0 {
                    assert_eq!(a, s, "{nbits}: word {wi} of a dead block");
                }
            }
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
                    passes(&RowTest::superset(&qw, nbits), &r),
                    reference::is_covered_by(&qm, &r, nbits),
                    "⊇ width {nbits} salt {salt}"
                );
                assert_eq!(
                    passes(&RowTest::subset(&qw, nbits), &r),
                    reference::covers(&qm, &r, nbits),
                    "⊆ width {nbits} salt {salt}"
                );
                assert_eq!(
                    passes(&RowTest::equals(&qw, nbits), &r),
                    reference::eq(&qm, &r, nbits),
                    "eq width {nbits} salt {salt}"
                );
                assert_eq!(
                    intersection_count(&qw, &r),
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
        // An SSF row buffer is exactly sig_bytes long; a query word past it
        // must compare against zeros, not panic.
        let q = to_words(&[0b1, 0, 0, 0, 0, 0, 0, 0, 0b1], 65);
        assert_eq!(RowTest::superset(&q, 65).terms, vec![(0, 1, 1), (1, 1, 1)]);
        assert!(!passes(&RowTest::superset(&q, 65), &[0b1]));
        assert!(passes(
            &RowTest::superset(&to_words(&[0b1], 65), 65),
            &[0b1]
        ));
        // The all-zero query has no words to test and matches every row.
        assert!(RowTest::superset(&[0, 0], 65).terms.is_empty());
        assert!(passes(&RowTest::superset(&[0, 0], 65), &[]));
        assert!(passes(&RowTest::subset(&q, 65), &[0b1]));
        assert!(!passes(&RowTest::equals(&q, 65), &[0b1]));
        assert_eq!(intersection_count(&q, &[0b1]), 1);
    }

    /// Whether the one-row page `row` passes `test`.
    fn passes(test: &RowTest, row: &[u8]) -> bool {
        let mut out = Vec::new();
        match_rows(test, row, row.len(), 1, 7, &mut out);
        assert!(out.is_empty() || out == [7], "{out:?}");
        !out.is_empty()
    }

    #[test]
    fn full_pages_match_like_the_bit_loops_up_to_the_last_byte() {
        const PAGE: usize = 4096;
        type Compile = fn(&[u64], u32) -> RowTest;
        type Oracle = fn(&[u8], &[u8], u32) -> bool;
        for nbits in [8u32, 72, 100, 500] {
            let stride = (nbits as usize).div_ceil(8);
            let rows = PAGE / stride;
            // The last row's final word runs past the page at these widths
            // (4095..4103, 4094..4102, 4090..4098) and ends on it at 500.
            let last_word_end = (rows - 1) * stride + 8 * words_for(nbits);
            assert_eq!(last_word_end > PAGE, nbits != 500, "width {nbits}");
            // Slack bytes past the last row and every row's padding bits
            // are ones: only the masks keep them out.
            let mut page = vec![0xffu8; PAGE];
            for (s, row) in page.chunks_exact_mut(stride).enumerate() {
                row.copy_from_slice(&pattern(nbits, s as u64 * 37 + 11));
                if nbits % 8 != 0 {
                    *row.last_mut().unwrap() |= 0xff << (nbits % 8);
                }
            }
            let row = |s: usize| &page[s * stride..(s + 1) * stride];
            let last = row(rows - 1);
            // Fewer and more bits than the last row: the top bit of each
            // run of ones, and each run grown by one.
            let thin: Vec<u8> = last.iter().map(|r| r & !(r >> 1)).collect();
            let wide: Vec<u8> = last.iter().map(|r| r | r << 1).collect();
            let cases: [(&str, Compile, Oracle, &[u8]); 5] = [
                ("⊇", RowTest::superset, reference::is_covered_by, &thin),
                ("⊆", RowTest::subset, reference::covers, &wide),
                ("=", RowTest::equals, reference::eq, last),
                ("⊇ ∅", RowTest::superset, reference::is_covered_by, &[]),
                (
                    "⊆ all F bits",
                    RowTest::subset,
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
                    .filter(|&s| oracle(&query, row(s), nbits))
                    .map(|s| 1_000 + s as u64)
                    .collect();
                let mut got = Vec::new();
                match_rows(&test, &page, stride, rows, 1_000, &mut got);
                assert_eq!(got, want, "{what} width {nbits}");
                // The query came from the last row, so it is a hit.
                assert_eq!(
                    got.last(),
                    Some(&(999 + rows as u64)),
                    "{what} width {nbits}"
                );
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
