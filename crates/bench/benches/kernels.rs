//! Word-kernel before/after: the slice-combining hot loops as they were
//! before the shared kernel module (per-word `le_word` byte bridge with a
//! bounds branch per word, plus a separate `is_zero` liveness pass per
//! slice) against `setsig_core::kernel` (chunked `u64` loops with fused
//! liveness). Both sides produce byte-identical accumulators — asserted
//! here before timing — so the groups measure pure kernel throughput.
//!
//! The baselines below are verbatim copies of the pre-kernel `bitmap.rs`
//! code, kept in this bench (not the library) so the library carries
//! exactly one implementation.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // bench code

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use setsig_core::kernel;

/// The benched slice width: ~99k rows spanning 3 full
/// slice pages plus a partial fourth, so the 12,413-byte slices are NOT a
/// multiple of 8 — the alignment case the byte bridge's per-word bounds
/// branch pays for (at 8-aligned widths LLVM vectorizes both sides and
/// the gap closes; real instances are almost never 8-aligned).
const NBITS: u32 = 3 * 32_768 + 1_000;
/// Slices ANDed per ⊇ scan — a D_q = 3 query at the fig-4 design point
/// reads ~100 slices; 48 keeps the AND alive to the end at 97% density.
const NSLICES: usize = 48;

/// Deterministic ~97%-density slice bytes (dense 1-slices are the ⊇
/// scan's common case: most rows set any given popular bit).
fn slices() -> Vec<Vec<u8>> {
    let nbytes = (NBITS as usize).div_ceil(8);
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    (0..NSLICES)
        .map(|_| {
            (0..nbytes)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    // OR of three taps ≈ 1 - (1/2)^3 ≈ 88% per bit; OR in a
                    // fourth for ~97%.
                    let b = (state >> 16) as u8 | (state >> 32) as u8 | (state >> 48) as u8;
                    b | (state >> 8) as u8 & 0x55
                })
                .collect()
        })
        .collect()
}

// --- pre-kernel byte bridge, verbatim -------------------------------------

/// Word `wi` of an LSB-first byte buffer, zero-padded past the end: the
/// old per-word bridge, bounds branch and all.
#[inline]
fn le_word_pre(bytes: &[u8], wi: usize) -> u64 {
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

/// The pre-kernel ⊇ AND loop: `from_bytes`-style fill of the first slice,
/// then per-slice `and_assign_bytes` with a *separate* full-accumulator
/// `is_zero` pass for the early-exit check.
fn and_scan_pre(slices: &[Vec<u8>]) -> Vec<u64> {
    let nwords = (NBITS as usize).div_ceil(64);
    let nbytes = (NBITS as usize).div_ceil(8);
    let mut words = vec![0u64; nwords];
    for (wi, w) in words.iter_mut().enumerate() {
        *w = le_word_pre(&slices[0][..nbytes], wi);
    }
    let rem = NBITS % 64;
    if rem != 0 {
        words[nwords - 1] &= (1u64 << rem) - 1;
    }
    for bytes in &slices[1..] {
        if words.iter().all(|&w| w == 0) {
            break;
        }
        for (wi, w) in words.iter_mut().enumerate() {
            *w &= le_word_pre(&bytes[..nbytes], wi);
        }
    }
    words
}

/// The pre-kernel ⊆ OR loop: per-word `le_word` plus a tail re-mask on
/// every slice (the old `or_assign_bytes` called `mask_tail` each time).
fn or_scan_pre(slices: &[Vec<u8>]) -> Vec<u64> {
    let nwords = (NBITS as usize).div_ceil(64);
    let nbytes = (NBITS as usize).div_ceil(8);
    let mut words = vec![0u64; nwords];
    for bytes in slices {
        for (wi, w) in words.iter_mut().enumerate() {
            *w |= le_word_pre(&bytes[..nbytes], wi);
        }
        let rem = NBITS % 64;
        if rem != 0 {
            words[nwords - 1] &= (1u64 << rem) - 1;
        }
    }
    words
}

/// The pre-kernel overlap counter: the old `iter_ones_bytes` flat-map
/// iterator (per-bit range check inside the word loop) feeding
/// `counts[p] += 1`.
fn overlap_count_pre(slices: &[Vec<u8>]) -> Vec<u32> {
    let mut counts = vec![0u32; NBITS as usize];
    let nbytes = (NBITS as usize).div_ceil(8);
    let nwords = (NBITS as usize).div_ceil(64);
    for bytes in slices {
        let bytes = &bytes[..nbytes.min(bytes.len())];
        for wi in 0..nwords {
            let mut w = le_word_pre(bytes, wi);
            while w != 0 {
                let bit = w.trailing_zeros();
                w &= w - 1;
                let pos = wi as u32 * 64 + bit;
                if pos < NBITS {
                    counts[pos as usize] += 1;
                }
            }
        }
    }
    counts
}

// --- word-kernel counterparts ----------------------------------------------

/// The kernel ⊇ AND loop: `kernel::fill` once, then fused AND+liveness —
/// one pass per slice instead of two.
fn and_scan_kernel(slices: &[Vec<u8>]) -> Vec<u64> {
    let mut words = vec![0u64; kernel::words_for(NBITS)];
    kernel::fill(&mut words, &slices[0], NBITS);
    for bytes in &slices[1..] {
        if kernel::and_assign(&mut words, bytes) == 0 {
            break;
        }
    }
    words
}

fn or_scan_kernel(slices: &[Vec<u8>]) -> Vec<u64> {
    let mut words = vec![0u64; kernel::words_for(NBITS)];
    for bytes in slices {
        kernel::or_assign(&mut words, bytes, NBITS);
    }
    words
}

fn overlap_count_kernel(slices: &[Vec<u8>]) -> Vec<u32> {
    let mut counts = vec![0u32; NBITS as usize];
    for bytes in slices {
        kernel::accumulate_ones(&mut counts, bytes);
    }
    counts
}

fn kernels(c: &mut Criterion) {
    let data = slices();

    // The before/after must agree bit-for-bit before any timing counts:
    // a fast kernel that drops candidates is not an optimization.
    assert_eq!(and_scan_pre(&data), and_scan_kernel(&data));
    assert_eq!(or_scan_pre(&data), or_scan_kernel(&data));
    assert_eq!(overlap_count_pre(&data), overlap_count_kernel(&data));
    let ones_now: Vec<u32> = kernel::iter_ones(NBITS, &data[0]).collect();
    assert_eq!(ones_now, kernel::reference::iter_ones(NBITS, &data[0]));

    // Headline: the BSSF ⊇ AND-scan, byte bridge vs. fused word kernel.
    let mut group = c.benchmark_group("kernel_and_scan");
    group.sample_size(30);
    group.bench_function("byte_bridge_pre", |b| {
        b.iter(|| black_box(and_scan_pre(black_box(&data))));
    });
    group.bench_function("word_kernel", |b| {
        b.iter(|| black_box(and_scan_kernel(black_box(&data))));
    });
    group.finish();

    let mut group = c.benchmark_group("kernel_or_scan");
    group.sample_size(30);
    group.bench_function("byte_bridge_pre", |b| {
        b.iter(|| black_box(or_scan_pre(black_box(&data))));
    });
    group.bench_function("word_kernel", |b| {
        b.iter(|| black_box(or_scan_kernel(black_box(&data))));
    });
    group.finish();

    let mut group = c.benchmark_group("kernel_overlap_count");
    group.sample_size(10);
    group.bench_function("iter_ones_bytes_pre", |b| {
        b.iter(|| black_box(overlap_count_pre(black_box(&data))));
    });
    group.bench_function("accumulate_ones", |b| {
        b.iter(|| black_box(overlap_count_kernel(black_box(&data))));
    });
    group.finish();
}

criterion_group!(benches, kernels);
criterion_main!(benches);
