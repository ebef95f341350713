//! Property-based tests on the signature layer and the two organizations.

use proptest::prelude::*;
use setsig_core::kernel::{self, ColumnTest};
use setsig_core::{
    Bitmap, Bssf, ElementKey, Oid, SetAccessFacility, SetQuery, SignatureConfig, Ssf,
};
use setsig_pagestore::{Disk, PageIo, PAGE_SIZE};
use std::hash::BuildHasher;
use std::sync::Arc;

fn keys(v: &[u64]) -> Vec<ElementKey> {
    v.iter().map(|&e| ElementKey::from(e)).collect()
}

/// Keys of every kind, drawn so that order has ties and near-ties to break:
/// integers and OIDs (their 9 bytes inline), strings on both sides of the
/// inline bound over a 4-letter alphabet, and strings whose bytes are an
/// integer's — as long as an integer key, or starting with one's bytes.
fn mixed_key() -> impl Strategy<Value = ElementKey> {
    use proptest::collection::vec;
    prop_oneof![
        (0u64..4).prop_map(ElementKey::from),
        any::<u64>().prop_map(ElementKey::from),
        (0u64..4).prop_map(|v| ElementKey::from(Oid::new(v))),
        vec(0u8..4, 0..8).prop_map(|b| ElementKey::from_bytes(&b)),
        vec(0u8..4, 18..26).prop_map(|b| ElementKey::from_bytes(&b)),
        (0u64..4).prop_map(|v| ElementKey::from_bytes(&v.to_le_bytes())),
        (any::<u64>(), vec(0u8..4, 0..16)).prop_map(|(v, tail)| {
            let mut bytes = ElementKey::int_bytes(v).to_vec();
            bytes.extend(tail);
            ElementKey::from_bytes(&bytes)
        }),
    ]
}

/// Widths that are never a multiple of 8 (hence never of 64): the word
/// kernels' partial-tail paths, which a byte- or word-aligned width would
/// silently skip.
fn unaligned_width() -> impl Strategy<Value = u32> {
    (1u32..512).prop_map(|n| if n % 8 == 0 { n + 1 } else { n })
}

/// Canonical word view of an LSB-first byte buffer (padding bits zero).
fn canonical_words(nbits: u32, bytes: &[u8]) -> Vec<u64> {
    let mut words = vec![0u64; kernel::words_for(nbits)];
    kernel::fill(&mut words, bytes, nbits);
    words
}

/// Serializes canonical words back to the `ceil(nbits/8)` LE byte form the
/// reference loops operate on.
fn words_to_bytes(words: &[u64], nbits: u32) -> Vec<u8> {
    (0..(nbits as usize).div_ceil(8))
        .map(|i| (words[i / 8] >> (8 * (i % 8))) as u8)
        .collect()
}

/// Whether the one-row page `row` passes `test`: with one row a page, a
/// byte-sliced page is the row itself.
fn passes(test: &ColumnTest, row: &[u8]) -> bool {
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

/// Smears garbage over the final byte's bits at positions `>= nbits`, so
/// differential runs prove the kernels mask (or are immune to) tail junk.
fn smear_tail(bytes: &mut [u8], nbits: u32, garbage: u8) {
    let rem = nbits % 8;
    if rem != 0 {
        if let Some(last) = bytes.last_mut() {
            *last |= garbage << rem;
        }
    }
}

proptest! {
    /// Bitmap::covers is exactly "set of one-positions is a superset", and
    /// Bitmap::intersection_count the size of the positions' intersection.
    #[test]
    fn covers_equals_position_superset(
        a in proptest::collection::btree_set(0u32..96, 0..20),
        b in proptest::collection::btree_set(0u32..96, 0..20),
    ) {
        let ba = Bitmap::from_positions(96, &a.iter().copied().collect::<Vec<_>>());
        let bb = Bitmap::from_positions(96, &b.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(ba.covers(&bb), b.is_subset(&a));
        prop_assert_eq!(ba.intersection_count(&bb) as usize, a.intersection(&b).count());
    }

    /// Bitmap byte serialization round-trips for arbitrary widths.
    #[test]
    fn bitmap_bytes_roundtrip(
        nbits in 1u32..300,
        seed_positions in proptest::collection::vec(0u32..300, 0..40),
    ) {
        let positions: Vec<u32> = seed_positions.into_iter().filter(|&p| p < nbits).collect();
        let bm = Bitmap::from_positions(nbits, &positions);
        let back = Bitmap::from_bytes(nbits, &bm.to_bytes());
        prop_assert_eq!(back, bm);
    }

    /// Garbage bits past `nbits` in a serialized buffer never leak into the
    /// bitmap: `from_bytes` and `kernel::or_assign` mask the tail, so widths
    /// with `nbits % 8 != 0` behave exactly like byte-aligned ones.
    #[test]
    fn bitmap_bytes_mask_garbage_tail(
        nbits in 1u32..300,
        seed_positions in proptest::collection::vec(0u32..300, 0..40),
        garbage in 0u8..=255,
    ) {
        let positions: Vec<u32> = seed_positions.into_iter().filter(|&p| p < nbits).collect();
        let bm = Bitmap::from_positions(nbits, &positions);
        let mut bytes = bm.to_bytes();
        // Smear garbage over the final byte's unused high bits.
        let rem = (nbits % 8) as usize;
        if rem != 0 {
            if let Some(last) = bytes.last_mut() {
                *last |= garbage << rem;
            }
        }
        let back = Bitmap::from_bytes(nbits, &bytes);
        prop_assert_eq!(&back, &bm);
        prop_assert_eq!(back.count_ones(), positions.iter().collect::<std::collections::BTreeSet<_>>().len() as u32);
        // OR-ing dirty bytes into a clean bitmap must not leak tail bits
        // either (is_zero and count_ones read raw words).
        let mut acc = vec![0u64; kernel::words_for(nbits)];
        kernel::or_assign(&mut acc, &bytes, nbits);
        prop_assert_eq!(&acc[..], bm.words());
        prop_assert_eq!(acc.iter().all(|&w| w == 0), positions.is_empty());
    }

    /// Superimposed coding is sound: if T ⊇ Q as sets then the signatures
    /// match, for any F, m, and sets — the no-false-negative guarantee.
    #[test]
    fn superset_signature_never_misses(
        f_exp in 3u32..9,            // F in 8..256
        m in 1u32..6,
        target in proptest::collection::btree_set(0u64..1000, 1..20),
        extra_query_from_target in proptest::collection::vec(0usize..20, 1..10),
    ) {
        let f = 1u32 << f_exp;
        let cfg = SignatureConfig::new(f, m.min(f)).unwrap();
        let telems: Vec<u64> = target.iter().copied().collect();
        // Query = arbitrary subset of the target.
        let qelems: Vec<u64> = extra_query_from_target
            .iter()
            .map(|&i| telems[i % telems.len()])
            .collect();
        let tsig = cfg.signature(&keys(&telems));
        let qsig = cfg.signature(&keys(&qelems));
        prop_assert!(tsig.covers(&qsig));
        // And symmetrically T ⊆ (T ∪ anything).
        let mut superset = telems.clone();
        superset.extend_from_slice(&qelems);
        superset.push(9999);
        let ssig = cfg.signature(&keys(&superset));
        prop_assert!(ssig.covers(&tsig));
    }

    /// SSF and BSSF are different physical layouts of the same logical
    /// filter: identical candidates for every query type.
    #[test]
    fn ssf_and_bssf_agree(
        sets in proptest::collection::vec(
            proptest::collection::btree_set(0u64..60, 1..6), 1..25),
        qset in proptest::collection::btree_set(0u64..60, 1..6),
        pred in 0u8..4,
    ) {
        let cfg = SignatureConfig::new(64, 2).unwrap();
        let disk = Arc::new(Disk::new());
        let io: Arc<dyn PageIo> = Arc::clone(&disk) as Arc<dyn PageIo>;
        let mut ssf = Ssf::create(Arc::clone(&io), "s", cfg).unwrap();
        let mut bssf = Bssf::create(io, "b", cfg).unwrap();
        for (i, set) in sets.iter().enumerate() {
            let elems = keys(&set.iter().copied().collect::<Vec<_>>());
            ssf.insert(Oid::new(i as u64), &elems).unwrap();
            bssf.insert(Oid::new(i as u64), &elems).unwrap();
        }
        let qelems = keys(&qset.iter().copied().collect::<Vec<_>>());
        let query = match pred {
            0 => SetQuery::has_subset(qelems),
            1 => SetQuery::in_subset(qelems),
            2 => SetQuery::equals(qelems),
            _ => SetQuery::overlaps(qelems),
        };
        prop_assert_eq!(
            ssf.candidates(&query).unwrap(),
            bssf.candidates(&query).unwrap()
        );
    }

    /// End-to-end soundness on both organizations: every object whose set
    /// truly satisfies the predicate appears among the candidates.
    #[test]
    fn facilities_have_no_false_negatives(
        sets in proptest::collection::vec(
            proptest::collection::btree_set(0u64..40, 1..8), 1..30),
        query_raw in proptest::collection::btree_set(0u64..40, 1..8),
    ) {
        let cfg = SignatureConfig::new(128, 3).unwrap();
        let disk = Arc::new(Disk::new());
        let io: Arc<dyn PageIo> = Arc::clone(&disk) as Arc<dyn PageIo>;
        let mut ssf = Ssf::create(Arc::clone(&io), "s", cfg).unwrap();
        let mut bssf = Bssf::create(io, "b", cfg).unwrap();
        for (i, set) in sets.iter().enumerate() {
            let elems = keys(&set.iter().copied().collect::<Vec<_>>());
            ssf.insert(Oid::new(i as u64), &elems).unwrap();
            bssf.insert(Oid::new(i as u64), &elems).unwrap();
        }
        let q_sup = SetQuery::has_subset(keys(&query_raw.iter().copied().collect::<Vec<_>>()));
        let q_sub = SetQuery::in_subset(keys(&query_raw.iter().copied().collect::<Vec<_>>()));
        let sup_ssf = ssf.candidates(&q_sup).unwrap();
        let sup_bssf = bssf.candidates(&q_sup).unwrap();
        let sub_ssf = ssf.candidates(&q_sub).unwrap();
        let sub_bssf = bssf.candidates(&q_sub).unwrap();
        for (i, set) in sets.iter().enumerate() {
            let oid = Oid::new(i as u64);
            if query_raw.is_subset(set) {
                prop_assert!(sup_ssf.oids.contains(&oid), "SSF missed ⊇ match {i}");
                prop_assert!(sup_bssf.oids.contains(&oid), "BSSF missed ⊇ match {i}");
            }
            if set.is_subset(&query_raw) {
                prop_assert!(sub_ssf.oids.contains(&oid), "SSF missed ⊆ match {i}");
                prop_assert!(sub_bssf.oids.contains(&oid), "BSSF missed ⊆ match {i}");
            }
        }
    }

    /// Smart strategies are relaxations: their candidate sets contain the
    /// plain strategy's candidates (they only ever read fewer slices).
    #[test]
    fn smart_strategies_are_supersets_of_plain(
        sets in proptest::collection::vec(
            proptest::collection::btree_set(0u64..40, 1..6), 1..20),
        query_raw in proptest::collection::btree_set(0u64..40, 2..8),
        cap in 1usize..4,
    ) {
        let cfg = SignatureConfig::new(64, 2).unwrap();
        let disk = Arc::new(Disk::new());
        let io: Arc<dyn PageIo> = Arc::clone(&disk) as Arc<dyn PageIo>;
        let mut bssf = Bssf::create(io, "b", cfg).unwrap();
        for (i, set) in sets.iter().enumerate() {
            bssf.insert(Oid::new(i as u64), &keys(&set.iter().copied().collect::<Vec<_>>())).unwrap();
        }
        let qelems = keys(&query_raw.iter().copied().collect::<Vec<_>>());
        let q_sup = SetQuery::has_subset(qelems.clone());
        let plain = bssf.candidates(&q_sup).unwrap();
        let smart = bssf.candidates(&q_sup.with_cap(cap).unwrap()).unwrap();
        for oid in &plain.oids {
            prop_assert!(smart.oids.contains(oid));
        }
        let q_sub = SetQuery::in_subset(qelems);
        let plain = bssf.candidates(&q_sub).unwrap();
        let smart = bssf.candidates(&q_sub.with_cap(cap * 8).unwrap()).unwrap();
        for oid in &plain.oids {
            prop_assert!(smart.oids.contains(oid));
        }
    }

    /// Word AND/OR kernels are bit-identical to the byte-loop references at
    /// unaligned widths, garbage tail bits and all, and the fused AND
    /// liveness flag equals "result is nonzero". The OR gets the shapes the
    /// `T ⊆ Q` slice scan hands it: a row page of up to 32,767 rows, never
    /// a whole word, fed a whole 4 KiB slice page whose bits past the width
    /// are stray ones, or a buffer that ends before the accumulator does.
    #[test]
    fn kernel_and_or_match_byte_references(
        nbits in unaligned_width(),
        or_nbits in (1u32..32_768).prop_map(|n| if n % 64 == 0 { n + 1 } else { n }),
        acc_seed in proptest::collection::vec(0u8..=255, 0..70),
        row_seed in proptest::collection::vec(0u8..=255, 0..70),
        garbage in 0u8..=255,
        short in any::<bool>(),
        cut in 1usize..600,
    ) {
        let nbytes = (nbits as usize).div_ceil(8);
        let mut acc_bytes: Vec<u8> = acc_seed.iter().copied().cycle().take(nbytes).collect();
        if acc_bytes.len() < nbytes {
            acc_bytes.resize(nbytes, 0); // empty seed → all-zero accumulator
        }
        let mut row: Vec<u8> = row_seed.iter().copied().cycle().take(nbytes).collect();
        row.resize(nbytes, 0);
        smear_tail(&mut row, nbits, garbage);

        // AND: canonical word accumulator vs. byte loop on the same start.
        let mut words = canonical_words(nbits, &acc_bytes);
        let mut ref_bytes = words_to_bytes(&words, nbits);
        let alive = kernel::and_assign(&mut words, &row);
        kernel::reference::and_assign(&mut ref_bytes, &row);
        // The byte loop leaves row tail garbage wherever acc padding would
        // allow it — only positions < nbits are contractual.
        kernel::reference::mask_tail_bytes(&mut ref_bytes, nbits);
        prop_assert_eq!(&words_to_bytes(&words, nbits), &ref_bytes);
        prop_assert_eq!(alive != 0, ref_bytes.iter().any(|&b| b != 0));
        // The AND result stays canonical without any explicit masking.
        let recanon = canonical_words(nbits, &words_to_bytes(&words, nbits));
        prop_assert_eq!(&words, &recanon);

        // OR: same differential on a row page, and the result must be
        // canonical too. An empty seed makes the page all ones.
        let nbits = or_nbits;
        let nbytes = (nbits as usize).div_ceil(8);
        let acc_bytes: Vec<u8> = acc_seed.into_iter().cycle().take(nbytes).collect();
        let mut page: Vec<u8> = row_seed.into_iter().cycle().take(PAGE_SIZE).collect();
        page.resize(PAGE_SIZE, 0xff);
        smear_tail(&mut page[..nbytes], nbits, garbage);
        if short {
            page.truncate(nbytes.saturating_sub(cut));
        }
        let mut words = canonical_words(nbits, &acc_bytes);
        let mut ref_bytes = words_to_bytes(&words, nbits);
        kernel::or_assign(&mut words, &page, nbits);
        kernel::reference::or_assign(&mut ref_bytes, &page, nbits);
        prop_assert_eq!(&words_to_bytes(&words, nbits), &ref_bytes);
        let recanon = canonical_words(nbits, &words_to_bytes(&words, nbits));
        prop_assert_eq!(&words, &recanon);
    }

    /// The grouped OR is the byte-loop OR applied one buffer at a time, for
    /// 0 to 19 buffers, so that one and two group boundaries fall inside a
    /// call. Each buffer takes one of the shapes the test above feeds the
    /// one-buffer call: a whole 4 KiB page with stray bits past the width,
    /// a buffer that ends before the accumulator does, or an exact-width
    /// buffer with garbage in its padding bits. The result stays canonical.
    #[test]
    fn or_pages_matches_the_byte_reference_one_buffer_at_a_time(
        nbits in (1u32..32_768).prop_map(|n| if n % 64 == 0 { n + 1 } else { n }),
        acc_seed in proptest::collection::vec(0u8..=255, 0..70),
        bufs in proptest::collection::vec(
            (proptest::collection::vec(0u8..=255, 1..70), 0u8..3, 0u8..=255, 1usize..600),
            0..=19,
        ),
    ) {
        let nbytes = (nbits as usize).div_ceil(8);
        let mut acc_bytes: Vec<u8> = acc_seed.into_iter().cycle().take(nbytes).collect();
        acc_bytes.resize(nbytes, 0);
        let pages: Vec<Vec<u8>> = bufs
            .into_iter()
            .map(|(seed, shape, garbage, cut)| {
                let mut page: Vec<u8> = seed.into_iter().cycle().take(PAGE_SIZE).collect();
                match shape {
                    0 => {}
                    1 => page.truncate(nbytes.saturating_sub(cut)),
                    _ => {
                        page.truncate(nbytes);
                        smear_tail(&mut page, nbits, garbage);
                    }
                }
                page
            })
            .collect();
        let bufs: Vec<&[u8]> = pages.iter().map(Vec::as_slice).collect();
        let mut words = canonical_words(nbits, &acc_bytes);
        let mut ref_bytes = words_to_bytes(&words, nbits);
        kernel::or_pages(&mut words, &bufs, nbits);
        for page in &bufs {
            kernel::reference::or_assign(&mut ref_bytes, page, nbits);
        }
        prop_assert_eq!(&words_to_bytes(&words, nbits), &ref_bytes);
        let recanon = canonical_words(nbits, &words_to_bytes(&words, nbits));
        prop_assert_eq!(&words, &recanon);
    }

    /// The column kernels' row predicates (⊇, ⊆, =, overlap popcount), on a
    /// one-row page, agree with the bit-loop references on every width,
    /// including rows shorter than the width (sparse zero-padded tails) and
    /// rows with garbage tail bits. Half the rows are drawn inside the
    /// query's bits, garbage tail included, so that `⊆` often holds and a
    /// `⊆` test that reads the padding bits shows.
    #[test]
    fn kernel_predicates_match_bit_loops(
        nbits in unaligned_width(),
        q_seed in proptest::collection::vec(0u8..=255, 0..70),
        row_seed in proptest::collection::vec(0u8..=255, 0..70),
        garbage in 0u8..=255,
        truncate in 0usize..8,
        inside_query in any::<bool>(),
    ) {
        let nbytes = (nbits as usize).div_ceil(8);
        let mut q_bytes: Vec<u8> = q_seed.into_iter().cycle().take(nbytes).collect();
        q_bytes.resize(nbytes, 0);
        let query = canonical_words(nbits, &q_bytes);
        let q_clean = words_to_bytes(&query, nbits);

        let mut row: Vec<u8> = row_seed.into_iter().cycle().take(nbytes).collect();
        row.resize(nbytes, 0);
        // A full-width row inside the query, or a short row (zero-padded past
        // the end), or a full-width row; the full-width ones with garbage in
        // the final byte's padding bits.
        if inside_query {
            row.iter_mut().zip(&q_clean).for_each(|(r, q)| *r &= q);
            smear_tail(&mut row, nbits, garbage);
        } else if truncate > 0 {
            row.truncate(nbytes.saturating_sub(truncate));
        } else {
            smear_tail(&mut row, nbits, garbage);
        }

        prop_assert_eq!(
            passes(&ColumnTest::superset(&query, nbits), &row),
            kernel::reference::is_covered_by(&q_clean, &row, nbits)
        );
        // The all-zero query compiles to no terms and matches any row.
        let empty = vec![0; kernel::words_for(nbits)];
        prop_assert!(passes(&ColumnTest::superset(&empty, nbits), &row));
        prop_assert_eq!(
            passes(&ColumnTest::subset(&query, nbits), &row),
            kernel::reference::covers(&q_clean, &row, nbits)
        );
        prop_assert_eq!(
            passes(&ColumnTest::equals(&query, nbits), &row),
            kernel::reference::eq(&q_clean, &row, nbits)
        );
        prop_assert_eq!(
            overlap(&query, &row),
            kernel::reference::intersection_count(&q_clean, &row, nbits)
        );
    }

    /// Word-at-a-time `iter_ones` and the overlap accumulator visit exactly
    /// the reference bit-scan's positions, in ascending order.
    #[test]
    fn kernel_iter_ones_matches_bit_scan(
        nbits in unaligned_width(),
        row_seed in proptest::collection::vec(0u8..=255, 0..70),
        garbage in 0u8..=255,
        truncate in 0usize..8,
    ) {
        let nbytes = (nbits as usize).div_ceil(8);
        let mut row: Vec<u8> = row_seed.into_iter().cycle().take(nbytes).collect();
        row.resize(nbytes, 0);
        if truncate > 0 {
            row.truncate(nbytes.saturating_sub(truncate));
        } else {
            smear_tail(&mut row, nbits, garbage);
        }

        let expect = kernel::reference::iter_ones(nbits, &row);
        let got: Vec<u32> = kernel::iter_ones(nbits, &row).collect();
        prop_assert_eq!(&got, &expect);

        // accumulate_ones bumps exactly those positions by one.
        let mut counts = vec![0u32; nbits as usize];
        kernel::accumulate_ones(&mut counts, &row);
        for (p, &c) in counts.iter().enumerate() {
            prop_assert_eq!(c, u32::from(expect.contains(&(p as u32))), "position {}", p);
        }
    }

    /// A key's order, equality and hash are its canonical bytes', however
    /// it is held — and so a query's element order is its bytes' sort.
    #[test]
    fn key_order_is_the_byte_order(
        keys in proptest::collection::vec(mixed_key(), 0..12),
        ints in proptest::collection::vec(0u64..1_000, 0..40),
        strings in proptest::collection::vec(any::<u64>(), 0..12),
    ) {
        let hashed = std::hash::RandomState::new();
        for a in &keys {
            for b in &keys {
                prop_assert_eq!(a.cmp(b), a.as_bytes().cmp(b.as_bytes()), "{:?} vs {:?}", a, b);
                prop_assert_eq!(a == b, a.as_bytes() == b.as_bytes(), "{:?} vs {:?}", a, b);
                if a == b {
                    prop_assert_eq!(hashed.hash_one(a), hashed.hash_one(b));
                }
            }
        }
        // Mixed keys, and 9-byte keys of one tag (all integers, all 8-byte
        // strings), which `Ord` compares as `(tag, word)` pairs.
        let strings = strings.iter().map(|v| ElementKey::from_bytes(&v.to_le_bytes()));
        for keys in [keys, self::keys(&ints), strings.collect()] {
            let mut bytes: Vec<Vec<u8>> = keys.iter().map(|k| k.as_bytes().to_vec()).collect();
            bytes.sort();
            bytes.dedup();
            let query = SetQuery::in_subset(keys);
            let ordered: Vec<&[u8]> = query.elements.iter().map(ElementKey::as_bytes).collect();
            prop_assert_eq!(ordered, bytes);
        }
    }
}
