//! Frequent Pattern Compression (FPC).
//!
//! FPC [Alameldeen & Wood, 2004] scans a chunk as 32-bit words and encodes
//! each word with a 3-bit prefix selecting one of eight frequent patterns:
//!
//! | prefix | pattern                                   | payload bits |
//! |--------|-------------------------------------------|--------------|
//! | 000    | run of 1–8 zero words                     | 3            |
//! | 001    | 4-bit sign-extended                       | 4            |
//! | 010    | 8-bit sign-extended                       | 8            |
//! | 011    | 16-bit sign-extended                      | 16           |
//! | 100    | halfword padded with a zero halfword      | 16           |
//! | 101    | two halfwords, each 8-bit sign-extended   | 16           |
//! | 110    | word of repeated bytes                    | 8            |
//! | 111    | uncompressed word                         | 32           |
//!
//! [`compressed_size`] is the size model used in the simulator's hot path;
//! [`encode`]/[`decode`] are a real lossless bitstream used to validate it.

use crate::IntegrityError;

/// A little-endian bit stream writer used by the FPC encoder.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bits: Vec<bool>,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the low `n` bits of `value`, LSB first.
    pub fn push(&mut self, value: u32, n: usize) {
        for i in 0..n {
            self.bits.push((value >> i) & 1 == 1);
        }
    }

    /// Number of bits written so far.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Packs the bits into bytes (zero-padded).
    pub fn into_bytes(self) -> Vec<u8> {
        let mut out = vec![0u8; self.bits.len().div_ceil(8)];
        for (i, bit) in self.bits.iter().enumerate() {
            if *bit {
                out[i / 8] |= 1 << (i % 8);
            }
        }
        out
    }
}

/// A little-endian bit stream reader matching [`BitWriter`].
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Wraps a byte slice.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Reads `n` bits, LSB first, or `None` if the stream is exhausted.
    pub fn try_read(&mut self, n: usize) -> Option<u32> {
        if self.pos + n > self.bytes.len() * 8 {
            self.pos = self.bytes.len() * 8;
            return None;
        }
        let mut v = 0u32;
        for i in 0..n {
            let byte = self.bytes[self.pos / 8];
            if (byte >> (self.pos % 8)) & 1 == 1 {
                v |= 1 << i;
            }
            self.pos += 1;
        }
        Some(v)
    }

    /// Reads `n` bits, LSB first.
    ///
    /// # Panics
    ///
    /// Panics if the stream is exhausted; decoders use
    /// [`BitReader::try_read`] and surface a typed error instead.
    pub fn read(&mut self, n: usize) -> u32 {
        self.try_read(n).expect("bit stream exhausted")
    }
}

/// Per-word FPC classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pattern {
    Zero,
    Se4,
    Se8,
    Se16,
    HalfPadded,
    TwoHalfSe8,
    RepBytes,
    Raw,
}

fn sign_extends(word: u32, bits: u32) -> bool {
    let shift = 32 - bits;
    (((word as i32) << shift) >> shift) as u32 == word
}

fn classify(word: u32) -> Pattern {
    if word == 0 {
        Pattern::Zero
    } else if sign_extends(word, 4) {
        Pattern::Se4
    } else if sign_extends(word, 8) {
        Pattern::Se8
    } else if sign_extends(word, 16) {
        Pattern::Se16
    } else if word & 0xFFFF == 0 {
        Pattern::HalfPadded
    } else if sign_extends16(word as u16) && sign_extends16((word >> 16) as u16) {
        Pattern::TwoHalfSe8
    } else if word.to_le_bytes().windows(2).all(|w| w[0] == w[1]) {
        Pattern::RepBytes
    } else {
        Pattern::Raw
    }
}

fn sign_extends16(half: u16) -> bool {
    (((half as i16) << 8) >> 8) as u16 == half
}

fn payload_bits(p: Pattern) -> usize {
    match p {
        Pattern::Zero => 3,
        Pattern::Se4 => 4,
        Pattern::Se8 => 8,
        Pattern::Se16 | Pattern::HalfPadded | Pattern::TwoHalfSe8 => 16,
        Pattern::RepBytes => 8,
        Pattern::Raw => 32,
    }
}

fn prefix(p: Pattern) -> u32 {
    match p {
        Pattern::Zero => 0b000,
        Pattern::Se4 => 0b001,
        Pattern::Se8 => 0b010,
        Pattern::Se16 => 0b011,
        Pattern::HalfPadded => 0b100,
        Pattern::TwoHalfSe8 => 0b101,
        Pattern::RepBytes => 0b110,
        Pattern::Raw => 0b111,
    }
}

fn words(data: &[u8]) -> impl Iterator<Item = u32> + '_ {
    data.chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
}

/// Computes the FPC-compressed size of `data` in bytes.
///
/// Runs of up to eight zero words collapse into a single 6-bit token.
/// The result is the bit count rounded up to whole bytes and is *not*
/// capped at the input size (callers cap via `compress`).
///
/// # Examples
///
/// ```
/// // 64 zero bytes = 16 zero words = two 8-runs = 12 bits -> 2 bytes.
/// assert_eq!(baryon_compress::fpc::compressed_size(&[0u8; 64]), 2);
/// ```
///
/// # Panics
///
/// Panics if `data` is not a multiple of 4 bytes.
pub fn compressed_size(data: &[u8]) -> usize {
    assert!(data.len().is_multiple_of(4), "FPC needs whole 32-bit words");
    let mut bits = 0usize;
    let mut zero_run = 0u32;
    for word in words(data) {
        if word == 0 {
            zero_run += 1;
            if zero_run == 8 {
                bits += 3 + 3;
                zero_run = 0;
            }
        } else {
            if zero_run > 0 {
                bits += 3 + 3;
                zero_run = 0;
            }
            let p = classify(word);
            bits += 3 + payload_bits(p);
        }
    }
    if zero_run > 0 {
        bits += 3 + 3;
    }
    bits.div_ceil(8)
}

/// Losslessly FPC-encodes `data` into a packed bitstream.
///
/// # Panics
///
/// Panics if `data` is not a multiple of 4 bytes.
pub fn encode(data: &[u8]) -> Vec<u8> {
    assert!(data.len().is_multiple_of(4), "FPC needs whole 32-bit words");
    let mut w = BitWriter::new();
    let mut zero_run = 0u32;
    let flush_run = |w: &mut BitWriter, run: &mut u32| {
        if *run > 0 {
            w.push(prefix(Pattern::Zero), 3);
            w.push(*run - 1, 3);
            *run = 0;
        }
    };
    for word in words(data) {
        if word == 0 {
            zero_run += 1;
            if zero_run == 8 {
                flush_run(&mut w, &mut zero_run);
            }
            continue;
        }
        flush_run(&mut w, &mut zero_run);
        let p = classify(word);
        w.push(prefix(p), 3);
        match p {
            Pattern::Zero => unreachable!("zero handled via runs"),
            Pattern::Se4 => w.push(word & 0xF, 4),
            Pattern::Se8 => w.push(word & 0xFF, 8),
            Pattern::Se16 => w.push(word & 0xFFFF, 16),
            Pattern::HalfPadded => w.push(word >> 16, 16),
            Pattern::TwoHalfSe8 => {
                w.push(word & 0xFF, 8);
                w.push((word >> 16) & 0xFF, 8);
            }
            Pattern::RepBytes => w.push(word & 0xFF, 8),
            Pattern::Raw => w.push(word, 32),
        }
    }
    flush_run(&mut w, &mut zero_run);
    w.into_bytes()
}

/// Decodes an [`encode`]d stream back into `word_count` 32-bit words.
///
/// # Errors
///
/// Returns [`IntegrityError::Truncated`] when the stream runs out of
/// bits before `word_count` words are reconstructed.
pub fn decode(stream: &[u8], word_count: usize) -> Result<Vec<u8>, IntegrityError> {
    let mut r = BitReader::new(stream);
    let mut out: Vec<u8> = Vec::with_capacity(word_count * 4);
    let need = |context| IntegrityError::Truncated { context };
    while out.len() < word_count * 4 {
        let pfx = r.try_read(3).ok_or(need("FPC prefix"))?;
        let word: u32 = match pfx {
            0b000 => {
                let run = r.try_read(3).ok_or(need("FPC zero-run length"))? + 1;
                for _ in 0..run {
                    out.extend_from_slice(&0u32.to_le_bytes());
                }
                continue;
            }
            0b001 => sign_extend(r.try_read(4).ok_or(need("FPC payload"))?, 4),
            0b010 => sign_extend(r.try_read(8).ok_or(need("FPC payload"))?, 8),
            0b011 => sign_extend(r.try_read(16).ok_or(need("FPC payload"))?, 16),
            0b100 => r.try_read(16).ok_or(need("FPC payload"))? << 16,
            0b101 => {
                let lo = sign_extend(r.try_read(8).ok_or(need("FPC payload"))?, 8) & 0xFFFF;
                let hi = sign_extend(r.try_read(8).ok_or(need("FPC payload"))?, 8) & 0xFFFF;
                lo | (hi << 16)
            }
            0b110 => {
                let b = r.try_read(8).ok_or(need("FPC payload"))?;
                b | (b << 8) | (b << 16) | (b << 24)
            }
            0b111 => r.try_read(32).ok_or(need("FPC payload"))?,
            _ => unreachable!("3-bit prefix"),
        };
        out.extend_from_slice(&word.to_le_bytes());
    }
    out.truncate(word_count * 4);
    Ok(out)
}

fn sign_extend(v: u32, bits: u32) -> u32 {
    let shift = 32 - bits;
    (((v as i32) << shift) >> shift) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let enc = encode(data);
        let dec = decode(&enc, data.len() / 4).expect("clean stream decodes");
        assert_eq!(dec, data, "FPC roundtrip failed");
        // The size model must match the real encoder exactly.
        assert_eq!(enc.len(), compressed_size(data));
    }

    #[test]
    fn truncated_streams_are_errors_not_garbage() {
        let mut data = Vec::new();
        for i in 0..16u32 {
            data.extend_from_slice(&(0x1234_5678u32.wrapping_mul(i + 3)).to_le_bytes());
        }
        let enc = encode(&data);
        for cut in 0..enc.len() {
            assert!(
                matches!(
                    decode(&enc[..cut], data.len() / 4),
                    Err(IntegrityError::Truncated { .. })
                ),
                "cut at {cut} should be a typed truncation error"
            );
        }
    }

    #[test]
    fn zero_line() {
        roundtrip(&[0u8; 64]);
        assert_eq!(compressed_size(&[0u8; 64]), 2);
    }

    #[test]
    fn small_signed_values() {
        let mut data = Vec::new();
        for v in [-3i32, 5, -8, 7, 0, 2, -1, 6, 3, -5, 1, 4, -2, 0, 7, -6] {
            data.extend_from_slice(&(v as u32).to_le_bytes());
        }
        roundtrip(&data);
        assert!(compressed_size(&data) < 24);
    }

    #[test]
    fn halfword_padded() {
        let mut data = Vec::new();
        for v in [0x1234_0000u32, 0xABCD_0000, 0x8000_0000, 0x0001_0000] {
            data.extend_from_slice(&v.to_le_bytes());
        }
        roundtrip(&data);
        assert!(compressed_size(&data) < 16);
    }

    #[test]
    fn two_half_se8() {
        // Halves that genuinely sign-extend from 8 bits: hi=18, lo=-12.
        let w = 0x0012_FFF4u32;
        let mut data = Vec::new();
        for _ in 0..8 {
            data.extend_from_slice(&w.to_le_bytes());
        }
        roundtrip(&data);
    }

    #[test]
    fn repeated_bytes() {
        let mut data = Vec::new();
        for b in [0x7Au8, 0x55, 0xAA, 0x33] {
            data.extend_from_slice(&u32::from_le_bytes([b; 4]).to_le_bytes());
        }
        roundtrip(&data);
        assert!(compressed_size(&data) <= 8);
    }

    #[test]
    fn incompressible_words() {
        let mut data = Vec::new();
        for i in 0..16u32 {
            data.extend_from_slice(
                &(0x1234_5678u32.wrapping_mul(i + 3) | 0x0101_0100).to_le_bytes(),
            );
        }
        roundtrip(&data);
        // 3 prefix + 32 payload per word, 16 words = 560 bits = 70 bytes.
        assert!(compressed_size(&data) >= 64);
    }

    #[test]
    fn long_zero_runs_collapse() {
        // 64 zero words = 8 full runs = 48 bits = 6 bytes.
        assert_eq!(compressed_size(&[0u8; 256]), 6);
    }

    #[test]
    fn mixed_content_roundtrip() {
        let mut data = Vec::new();
        for i in 0..64u32 {
            let w = match i % 5 {
                0 => 0,
                1 => i,
                2 => 0xDEAD_0000,
                3 => u32::from_le_bytes([i as u8; 4]),
                _ => 0x9234_5678 ^ i.rotate_left(13),
            };
            data.extend_from_slice(&w.to_le_bytes());
        }
        roundtrip(&data);
    }

    #[test]
    #[should_panic(expected = "32-bit words")]
    fn non_word_multiple_panics() {
        compressed_size(&[0u8; 6]);
    }

    #[test]
    fn bitio_roundtrip() {
        let mut w = BitWriter::new();
        w.push(0b101, 3);
        w.push(0xABCD, 16);
        w.push(1, 1);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read(3), 0b101);
        assert_eq!(r.read(16), 0xABCD);
        assert_eq!(r.read(1), 1);
    }
}
