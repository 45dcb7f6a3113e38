//! Per-page IV construction (Figure 10).
//!
//! The stream-cipher engine derives one 80-bit IV per flash page by
//! concatenating a 48-bit pseudo-random base (regenerated per epoch by a
//! hardware PRNG) with the 32-bit physical page address. The PPA gives
//! *spatial* uniqueness (no two pages share an IV in one epoch); the
//! PRNG base gives *temporal* uniqueness (the same page re-encrypted
//! later uses a fresh IV). The paper calls this "orthogonal uniqueness".

use std::fmt;

/// An 80-bit Trivium IV composed as `base48 ‖ ppa32`.
///
/// # Examples
///
/// ```
/// use iceclave_cipher::PageIv;
///
/// let a = PageIv::compose(0x1234_5678_9abc, 1);
/// let b = PageIv::compose(0x1234_5678_9abc, 2);
/// assert_ne!(a.bytes(), b.bytes()); // spatial uniqueness
/// assert_eq!(a.ppa(), 1);
/// ```
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct PageIv {
    base: u64, // low 48 bits significant
    ppa: u32,
}

impl PageIv {
    /// Composes an IV from a 48-bit PRNG base and a 32-bit physical page
    /// address.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `base` exceeds 48 bits.
    pub fn compose(base: u64, ppa: u32) -> Self {
        debug_assert!(base < (1 << 48), "IV base must fit in 48 bits");
        PageIv {
            base: base & 0xFFFF_FFFF_FFFF,
            ppa,
        }
    }

    /// The 10-byte IV: base (big-endian, 6 bytes) followed by the PPA
    /// (big-endian, 4 bytes).
    pub fn bytes(&self) -> [u8; 10] {
        let mut out = [0u8; 10];
        out[..6].copy_from_slice(&self.base.to_be_bytes()[2..]);
        out[6..].copy_from_slice(&self.ppa.to_be_bytes());
        out
    }

    /// The PRNG base component.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// The physical-page-address component.
    pub fn ppa(&self) -> u32 {
        self.ppa
    }
}

impl fmt::Display for PageIv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IV(base=0x{:012x}, ppa={})", self.base, self.ppa)
    }
}

/// The hardware PRNG of Figure 10, modelled as a maximal-length 48-bit
/// Fibonacci LFSR (taps x⁴⁸ + x⁴⁷ + x²¹ + x²⁰ + 1).
///
/// # Examples
///
/// ```
/// use iceclave_cipher::IvGenerator;
///
/// let mut gen = IvGenerator::new(0xACE1);
/// let iv1 = gen.iv_for_page(7);
/// let iv2 = gen.iv_for_page(7);
/// // Temporal uniqueness: a fresh base for every encryption epoch.
/// assert_ne!(iv1.bytes(), iv2.bytes());
/// ```
#[derive(Clone, Debug)]
pub struct IvGenerator {
    state: u64,
}

impl IvGenerator {
    /// Seeds the LFSR. A zero seed is silently replaced (an LFSR must
    /// never be all-zero).
    pub fn new(seed: u64) -> Self {
        let state = (seed & 0xFFFF_FFFF_FFFF).max(1);
        IvGenerator { state }
    }

    /// Advances the LFSR 48 steps and returns the fresh 48-bit base.
    pub fn next_base(&mut self) -> u64 {
        for _ in 0..48 {
            let bit =
                ((self.state >> 47) ^ (self.state >> 46) ^ (self.state >> 20) ^ (self.state >> 19))
                    & 1;
            self.state = ((self.state << 1) | bit) & 0xFFFF_FFFF_FFFF;
        }
        self.state
    }

    /// Composes the IV for `ppa` with a fresh base.
    pub fn iv_for_page(&mut self, ppa: u32) -> PageIv {
        PageIv::compose(self.next_base(), ppa)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn layout_is_base_then_ppa() {
        let iv = PageIv::compose(0x0102_0304_0506, 0x0708_090A);
        assert_eq!(
            iv.bytes(),
            [0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0A]
        );
    }

    #[test]
    fn spatial_uniqueness_same_epoch() {
        let base = 0x42;
        let mut seen = HashSet::new();
        for ppa in 0..1000 {
            assert!(seen.insert(PageIv::compose(base, ppa).bytes()));
        }
    }

    #[test]
    fn lfsr_period_is_long() {
        let mut gen = IvGenerator::new(1);
        let mut seen = HashSet::new();
        for _ in 0..10_000 {
            assert!(seen.insert(gen.next_base()), "LFSR repeated too early");
        }
    }

    #[test]
    fn zero_seed_is_fixed_up() {
        let mut gen = IvGenerator::new(0);
        assert_ne!(gen.next_base(), 0);
    }

    #[test]
    fn display_shows_components() {
        let iv = PageIv::compose(0xABC, 3);
        assert_eq!(iv.to_string(), "IV(base=0x000000000abc, ppa=3)");
    }
}
