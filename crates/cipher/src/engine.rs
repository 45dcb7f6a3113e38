//! Timing model of the in-controller stream-cipher engine.
//!
//! The engine of §5 sits between the flash controllers and the internal
//! bus (Figure 3), keeps the device key in a secure register, and once
//! initialized "generates 64 keystream bits per cycle". Decryption of a
//! page therefore pipelines with the channel-bus transfer; the exposed
//! latency is the key/IV initialization (1152 warm-up steps / 64 per
//! cycle = 18 cycles) plus the drain of the last beat, with throughput
//! bounded by 64 bits/cycle.

use iceclave_types::{Hertz, SimDuration};

use crate::iv::{IvGenerator, PageIv};
use crate::Trivium;

/// The stream-cipher engine: functional encryption plus a latency model.
///
/// # Examples
///
/// ```
/// use iceclave_cipher::CipherEngine;
/// use iceclave_types::Hertz;
///
/// let mut engine = CipherEngine::new([7u8; 10], Hertz::from_mhz(800), 0xACE1);
/// // A 4 KiB page at 64 bits/cycle, 800 MHz: 512 cycles + 18 init.
/// assert_eq!(engine.page_latency(4096).as_nanos(), 662);
///
/// let (cipher, iv) = engine.encrypt_page(9, &[0xAA; 64]);
/// let plain = engine.decrypt_page(&iv, &cipher);
/// assert_eq!(plain, vec![0xAA; 64]);
/// ```
#[derive(Debug)]
pub struct CipherEngine {
    key: [u8; 10],
    clock: Hertz,
    iv_gen: IvGenerator,
    /// Pipeline fill for key/IV initialization: 1152 steps at 64
    /// bits/cycle.
    init_cycles: u64,
    /// Keystream bits produced per cycle.
    bits_per_cycle: u64,
    pages_encrypted: u64,
    pages_decrypted: u64,
}

impl CipherEngine {
    /// Creates an engine clocked at `clock` holding `key` in its secure
    /// register.
    pub fn new(key: [u8; 10], clock: Hertz, iv_seed: u64) -> Self {
        CipherEngine {
            key,
            clock,
            iv_gen: IvGenerator::new(iv_seed),
            init_cycles: 1152 / 64,
            bits_per_cycle: 64,
            pages_encrypted: 0,
            pages_decrypted: 0,
        }
    }

    /// Latency to cipher a whole page of `bytes` bytes when the data is
    /// already streaming through the engine.
    pub fn page_latency(&self, bytes: u64) -> SimDuration {
        let stream_cycles = (bytes * 8).div_ceil(self.bits_per_cycle);
        self.clock.cycles(self.init_cycles + stream_cycles)
    }

    /// Sustained throughput in bytes/second.
    pub fn throughput(&self) -> u64 {
        self.clock.as_hz() * self.bits_per_cycle / 8
    }

    /// Encrypts a page read from flash at physical page address `ppa`,
    /// returning the ciphertext and the IV used (the IV is public and
    /// travels with the data; the key never leaves the engine).
    pub fn encrypt_page(&mut self, ppa: u32, plain: &[u8]) -> (Vec<u8>, PageIv) {
        let mut data = plain.to_vec();
        let iv = self.encrypt_page_in_place(ppa, &mut data);
        (data, iv)
    }

    /// Encrypts a page in place (for callers that already own the
    /// buffer — a stream cipher needs no scratch copy), returning the
    /// IV used.
    pub fn encrypt_page_in_place(&mut self, ppa: u32, data: &mut [u8]) -> PageIv {
        let iv = self.iv_gen.iv_for_page(ppa);
        Trivium::new(&self.key, &iv.bytes()).apply_keystream(data);
        self.pages_encrypted += 1;
        iv
    }

    /// Decrypts a page previously ciphered with `iv`.
    pub fn decrypt_page(&mut self, iv: &PageIv, cipher: &[u8]) -> Vec<u8> {
        let mut data = cipher.to_vec();
        self.decrypt_page_in_place(iv, &mut data);
        data
    }

    /// Decrypts a page in place (the XOR-keystream twin of
    /// [`CipherEngine::encrypt_page_in_place`]).
    pub fn decrypt_page_in_place(&mut self, iv: &PageIv, data: &mut [u8]) {
        Trivium::new(&self.key, &iv.bytes()).apply_keystream(data);
        self.pages_decrypted += 1;
    }

    /// Number of pages encrypted so far.
    pub fn pages_encrypted(&self) -> u64 {
        self.pages_encrypted
    }

    /// Number of pages decrypted so far.
    pub fn pages_decrypted(&self) -> u64 {
        self.pages_decrypted
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn engine() -> CipherEngine {
        CipherEngine::new([1u8; 10], Hertz::from_mhz(800), 99)
    }

    #[test]
    fn round_trip() {
        let mut e = engine();
        let plain: Vec<u8> = (0..255).collect();
        let (cipher, iv) = e.encrypt_page(42, &plain);
        assert_ne!(cipher, plain);
        assert_eq!(e.decrypt_page(&iv, &cipher), plain);
        assert_eq!(e.pages_encrypted(), 1);
        assert_eq!(e.pages_decrypted(), 1);
    }

    #[test]
    fn snooped_ciphertext_differs_across_epochs() {
        // Bus snooping defence: encrypting the same page twice yields
        // different ciphertext because the IV base rotates.
        let mut e = engine();
        let plain = vec![0x55u8; 128];
        let (c1, iv1) = e.encrypt_page(7, &plain);
        let (c2, iv2) = e.encrypt_page(7, &plain);
        assert_ne!(iv1, iv2);
        assert_ne!(c1, c2);
    }

    #[test]
    fn latency_scales_with_page_size() {
        let e = engine();
        let l4k = e.page_latency(4096);
        let l8k = e.page_latency(8192);
        assert!(l8k > l4k);
        // 4096 B = 512 cycles + 18 init at 1.25 ns.
        assert_eq!(l4k.as_nanos(), (512 + 18) * 125 / 100);
    }

    #[test]
    fn throughput_is_64_bits_per_cycle() {
        let e = engine();
        assert_eq!(e.throughput(), 800_000_000 * 8);
    }

    #[test]
    fn wrong_iv_fails_to_decrypt() {
        let mut e = engine();
        let plain = vec![1u8; 64];
        let (cipher, _iv) = e.encrypt_page(1, &plain);
        let other_iv = PageIv::compose(0x1111, 1);
        assert_ne!(e.decrypt_page(&other_iv, &cipher), plain);
    }
}
