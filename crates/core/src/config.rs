//! Signature design parameters.

use crate::error::{Error, Result};

/// The design parameters of a signature scheme: signature width `F`, element
/// weight `m`, and the hash seed.
///
/// `F` and `m` are the paper's two tuning knobs (§3.1). Text retrieval
/// folklore sets `m = m_opt = F·ln2/D_t` (Eq. 3), which minimizes the false
/// drop probability; the paper's central finding is that a **much smaller
/// `m` (1–3)** gives better *total* retrieval cost for BSSF, because each
/// query-signature bit costs a bit-slice scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignatureConfig {
    f_bits: u32,
    m_weight: u32,
    seed: u64,
}

impl SignatureConfig {
    /// Creates a configuration with the default seed.
    ///
    /// Fails unless `1 ≤ m ≤ F` and `F ≥ 8`.
    pub fn new(f_bits: u32, m_weight: u32) -> Result<Self> {
        Self::with_seed(f_bits, m_weight, 0x5e75_1650_5ed5_16aa)
    }

    /// Creates a configuration with an explicit hash seed.
    pub fn with_seed(f_bits: u32, m_weight: u32, seed: u64) -> Result<Self> {
        if f_bits < 8 {
            return Err(Error::BadConfig(format!(
                "F = {f_bits} too small (need ≥ 8)"
            )));
        }
        if m_weight == 0 {
            return Err(Error::BadConfig("m must be at least 1".into()));
        }
        if m_weight > f_bits {
            return Err(Error::BadConfig(format!(
                "m = {m_weight} exceeds F = {f_bits}"
            )));
        }
        Ok(SignatureConfig {
            f_bits,
            m_weight,
            seed,
        })
    }

    /// Signature width `F` in bits.
    #[inline]
    pub fn f_bits(&self) -> u32 {
        self.f_bits
    }

    /// Element signature weight `m` (bits set per element).
    #[inline]
    pub fn m_weight(&self) -> u32 {
        self.m_weight
    }

    /// Hash seed.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Bytes occupied by one serialized signature: `⌈F/8⌉`.
    pub fn signature_bytes(&self) -> usize {
        (self.f_bits as usize).div_ceil(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_config() {
        let c = SignatureConfig::new(500, 2).unwrap();
        assert_eq!(c.f_bits(), 500);
        assert_eq!(c.m_weight(), 2);
        assert_eq!(c.signature_bytes(), 63);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(SignatureConfig::new(4, 1).is_err());
        assert!(SignatureConfig::new(64, 0).is_err());
        assert!(SignatureConfig::new(64, 65).is_err());
    }

    #[test]
    fn seed_is_part_of_identity() {
        let a = SignatureConfig::with_seed(64, 2, 1).unwrap();
        let b = SignatureConfig::with_seed(64, 2, 2).unwrap();
        assert_ne!(a, b);
    }
}
