//! Table-driven CRC32 (IEEE 802.3 / zlib polynomial), built in-repo so
//! the workspace stays hermetic.
//!
//! The table is generated at compile time by a `const fn`; the hot path
//! is the classic one-lookup-per-byte reflected implementation. The
//! workspace uses it to frame checkpoint files, serve journal records and
//! HTTP replies, so torn or bit-flipped bytes are detected.
//!
//! # Examples
//!
//! ```
//! // The standard CRC-32 check value.
//! assert_eq!(baryon_compress::crc::crc32(b"123456789"), 0xCBF4_3926);
//! ```

/// The reflected IEEE 802.3 polynomial (0x04C11DB7 bit-reversed).
const POLY: u32 = 0xEDB8_8320;

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = build_table();

/// An incremental CRC32 hasher.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Folds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = TABLE[((self.state ^ b as u32) & 0xFF) as usize] ^ (self.state >> 8);
        }
    }

    /// The final CRC32 value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check values shared by zlib, PNG, Ethernet.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut h = Crc32::new();
        for chunk in data.chunks(37) {
            h.update(chunk);
        }
        assert_eq!(h.finish(), crc32(&data));
    }

    #[test]
    fn single_bit_flips_always_detected() {
        let data: Vec<u8> = (0..256u32)
            .flat_map(|i| i.wrapping_mul(2654435761).to_le_bytes())
            .collect();
        let clean = crc32(&data);
        let mut corrupt = data.clone();
        for bit in (0..data.len() * 8).step_by(97) {
            corrupt[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&corrupt), clean, "flip at bit {bit} undetected");
            corrupt[bit / 8] ^= 1 << (bit % 8);
        }
    }
}
