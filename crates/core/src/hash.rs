//! Hashing of set elements to signature bit positions.
//!
//! The paper assumes an "ideal" hash function: each of the `m` bits of an
//! element signature is uniformly and independently placed among the `F`
//! positions. We approximate that with a seeded 128-bit hash of the
//! element's canonical bytes, split into a base and a step for **double
//! hashing**: candidate positions are `(h1 + i·h2) mod F`, skipping
//! duplicates until `m` distinct positions are found. Double hashing gives
//! statistically uniform, deterministic positions without allocating.
//!
//! The hash itself is a SplitMix64-style mixer run over 8-byte chunks —
//! written here so the crate stays dependency-free and the function is
//! stable across platforms and versions (signatures are persisted).

/// Produces signature bit positions for elements, given the design
/// parameters `F` (signature width) and a seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElementHasher {
    f_bits: u32,
    seed: u64,
}

/// SplitMix64 finalizer: a fast, well-dispersed 64-bit mixer.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hashes `bytes` to 64 bits under `seed`, chunked 8 bytes at a time with a
/// distinct finalization for the length so prefixes don't collide.
#[expect(
    clippy::unwrap_used,
    reason = "slice-to-array conversion of a subslice whose length the index expression fixes; cannot fail"
)]
pub fn element_hash(bytes: &[u8], seed: u64) -> u64 {
    let mut h = mix64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let v = u64::from_le_bytes(c.try_into().unwrap());
        h = mix64(h ^ v);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h = mix64(h ^ u64::from_le_bytes(tail));
    }
    mix64(h ^ (bytes.len() as u64).wrapping_mul(0xff51_afd7_ed55_8ccd))
}

impl ElementHasher {
    /// Creates a hasher for signatures of `f_bits` bits.
    pub fn new(f_bits: u32, seed: u64) -> Self {
        assert!(f_bits > 0, "signature width must be positive");
        ElementHasher { f_bits, seed }
    }

    /// Signature width this hasher targets.
    pub fn f_bits(&self) -> u32 {
        self.f_bits
    }

    /// Writes the `m` distinct bit positions of the element signature for
    /// `element_bytes` into `out` (cleared first), in ascending order.
    ///
    /// Panics if `m > f_bits` (no `m` distinct positions exist).
    pub fn positions_into(&self, element_bytes: &[u8], m: u32, out: &mut Vec<u32>) {
        assert!(m <= self.f_bits, "m = {m} exceeds F = {}", self.f_bits);
        let h = element_hash(element_bytes, self.seed);
        let h2 = mix64(h ^ 0xc2b2_ae3d_27d4_eb4f);
        let base = h % self.f_bits as u64;
        // An odd step is coprime with any power of two; for general F we
        // fall back to probing successive step multiples and deduplicating.
        let step = (h2 % self.f_bits as u64) | 1;
        out.clear();
        let mut i = 0u64;
        while out.len() < m as usize {
            let pos = ((base + i.wrapping_mul(step)) % self.f_bits as u64) as u32;
            if !out.contains(&pos) {
                out.push(pos);
            } else {
                // Cycle detected before m distinct positions (step shares a
                // factor with F): perturb by rehashing the index.
                let pos = (mix64(h ^ i) % self.f_bits as u64) as u32;
                if !out.contains(&pos) {
                    out.push(pos);
                }
            }
            i += 1;
        }
        out.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic_and_seeded() {
        let a = element_hash(b"Baseball", 1);
        let b = element_hash(b"Baseball", 1);
        let c = element_hash(b"Baseball", 2);
        let d = element_hash(b"Fishing", 1);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn length_disambiguates_prefixes() {
        // Same 8-byte chunk content, different lengths.
        assert_ne!(element_hash(b"aaaaaaaa", 0), element_hash(b"aaaaaaa", 0));
        assert_ne!(element_hash(b"", 0), element_hash(b"\0", 0));
    }

    #[test]
    fn positions_are_distinct_sorted_in_range() {
        let h = ElementHasher::new(250, 42);
        let mut pos = vec![7; 9];
        for e in 0..1000u64 {
            h.positions_into(&e.to_le_bytes(), 5, &mut pos);
            assert_eq!(pos.len(), 5);
            for w in pos.windows(2) {
                assert!(w[0] < w[1], "not strictly ascending: {pos:?}");
            }
            assert!(*pos.last().unwrap() < 250);
        }
    }

    #[test]
    fn full_width_request_yields_all_positions() {
        let h = ElementHasher::new(16, 7);
        let mut pos = Vec::new();
        h.positions_into(b"x", 16, &mut pos);
        assert_eq!(pos, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn positions_roughly_uniform() {
        // With F=64, m=1, hashing many elements should touch every
        // position and no position should dominate. This is the "ideal
        // hash" assumption behind Eq. (2) of the paper.
        let h = ElementHasher::new(64, 9);
        let mut counts = [0u32; 64];
        let n = 64 * 200;
        let mut pos = Vec::new();
        for e in 0..n as u64 {
            h.positions_into(&e.to_le_bytes(), 1, &mut pos);
            counts[pos[0] as usize] += 1;
        }
        let expected = 200.0;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) > expected * 0.6 && (c as f64) < expected * 1.4,
                "position {i} count {c} far from expected {expected}"
            );
        }
    }

    #[test]
    #[should_panic]
    fn m_exceeding_f_panics() {
        ElementHasher::new(8, 0).positions_into(b"x", 9, &mut Vec::new());
    }

    #[test]
    fn stable_reference_values() {
        // Persisted signatures depend on these (F = 12, m = 9 perturbs).
        let mut pos = Vec::new();
        ElementHasher::new(250, 0).positions_into(b"Baseball", 3, &mut pos);
        assert_eq!(pos, [87, 106, 125]);
        ElementHasher::new(12, 7).positions_into(b"b", 9, &mut pos);
        assert_eq!(pos, [0, 1, 2, 4, 6, 7, 9, 10, 11]);
    }
}
