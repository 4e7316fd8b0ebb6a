//! C-Pack cache compression (Chen et al., TVLSI 2010).
//!
//! The Baryon paper uses FPC + BDI but notes alternative schemes "can also
//! be used and the exact choices are orthogonal" (§III-B), citing C-Pack.
//! This module provides it as an optional third compressor.
//!
//! C-Pack combines static patterns with a small FIFO dictionary of recently
//! seen 32-bit words. Each word is coded as one of:
//!
//! | code   | pattern                        | payload bits | total |
//! |--------|--------------------------------|--------------|-------|
//! | `00`   | `zzzz` all-zero word           | 0            | 2     |
//! | `01`   | `xxxx` unmatched word          | 32           | 34    |
//! | `10`   | `mmmm` full dictionary match   | 4 (index)    | 6     |
//! | `1100` | `mmxx` dict match, low 2 B new | 4 + 16       | 24    |
//! | `1101` | `zzzx` three zero bytes + 1 B  | 8            | 12    |
//! | `1110` | `mmmx` dict match, low 1 B new | 4 + 8        | 16    |
//!
//! Unmatched and partially matched words push into the 16-entry FIFO
//! dictionary, exactly as the hardware does.

use crate::fpc::{BitReader, BitWriter};
use crate::IntegrityError;

const DICT_WORDS: usize = 16;

#[derive(Debug, Clone)]
struct Dictionary {
    words: [u32; DICT_WORDS],
    len: usize,
    next: usize,
}

impl Dictionary {
    fn new() -> Self {
        Dictionary {
            words: [0; DICT_WORDS],
            len: 0,
            next: 0,
        }
    }

    fn lookup(&self, word: u32) -> Option<(usize, Match)> {
        let mut best: Option<(usize, Match)> = None;
        for i in 0..self.len {
            let d = self.words[i];
            let m = if d == word {
                Match::Full
            } else if d >> 16 == word >> 16 {
                if d >> 8 == word >> 8 {
                    Match::High3
                } else {
                    Match::High2
                }
            } else {
                continue;
            };
            best = match best {
                Some((_, prev)) if prev >= m => best,
                _ => Some((i, m)),
            };
        }
        best
    }

    fn push(&mut self, word: u32) {
        self.words[self.next] = word;
        self.next = (self.next + 1) % DICT_WORDS;
        self.len = (self.len + 1).min(DICT_WORDS);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Match {
    /// Upper 2 bytes match (`mmxx`).
    High2,
    /// Upper 3 bytes match (`mmmx`).
    High3,
    /// Whole word matches (`mmmm`).
    Full,
}

fn words(data: &[u8]) -> impl Iterator<Item = u32> + '_ {
    data.chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
}

/// C-Pack compressed size of `data` in bytes.
///
/// # Examples
///
/// ```
/// // A repeating word costs one unmatched emission then 6-bit matches:
/// // 34 + 15 x 6 = 124 bits = 16 bytes for a 64-byte line.
/// let mut data = Vec::new();
/// for _ in 0..16 {
///     data.extend_from_slice(&0xABCD_1234u32.to_le_bytes());
/// }
/// assert_eq!(baryon_compress::cpack::compressed_size(&data), 16);
/// ```
///
/// # Panics
///
/// Panics if `data` is not a multiple of 4 bytes.
pub fn compressed_size(data: &[u8]) -> usize {
    assert!(
        data.len().is_multiple_of(4),
        "C-Pack needs whole 32-bit words"
    );
    let mut dict = Dictionary::new();
    let mut bits = 0usize;
    for word in words(data) {
        if word == 0 {
            bits += 2;
            continue;
        }
        if word & 0xFFFF_FF00 == 0 {
            bits += 12; // zzzx
            continue;
        }
        match dict.lookup(word) {
            Some((_, Match::Full)) => bits += 6,
            Some((_, Match::High3)) => {
                bits += 16;
                dict.push(word);
            }
            Some((_, Match::High2)) => {
                bits += 24;
                dict.push(word);
            }
            None => {
                bits += 34;
                dict.push(word);
            }
        }
    }
    bits.div_ceil(8)
}

/// Losslessly C-Pack-encodes `data`.
///
/// # Panics
///
/// Panics if `data` is not a multiple of 4 bytes.
pub fn encode(data: &[u8]) -> Vec<u8> {
    assert!(
        data.len().is_multiple_of(4),
        "C-Pack needs whole 32-bit words"
    );
    let mut dict = Dictionary::new();
    let mut w = BitWriter::new();
    for word in words(data) {
        if word == 0 {
            w.push(0b00, 2);
            continue;
        }
        if word & 0xFFFF_FF00 == 0 {
            // `11` escape followed by the `01` (zzzx) selector: pushed as
            // two 2-bit groups so the LSB-first reader sees them in order.
            w.push(0b11, 2);
            w.push(0b01, 2);
            w.push(word & 0xFF, 8);
            continue;
        }
        match dict.lookup(word) {
            Some((i, Match::Full)) => {
                w.push(0b10, 2);
                w.push(i as u32, 4);
            }
            Some((i, Match::High3)) => {
                w.push(0b11, 2);
                w.push(0b10, 2); // mmmx
                w.push(i as u32, 4);
                w.push(word & 0xFF, 8);
                dict.push(word);
            }
            Some((i, Match::High2)) => {
                w.push(0b11, 2);
                w.push(0b00, 2); // mmxx
                w.push(i as u32, 4);
                w.push(word & 0xFFFF, 16);
                dict.push(word);
            }
            None => {
                w.push(0b01, 2);
                w.push(word, 32);
                dict.push(word);
            }
        }
    }
    w.into_bytes()
}

/// Decodes an [`encode`]d stream back into `word_count` words.
///
/// # Errors
///
/// Returns [`IntegrityError::Truncated`] when the stream runs dry and
/// [`IntegrityError::Malformed`] on the reserved `1111` code (which the
/// encoder never emits, so seeing it means corruption).
pub fn decode(stream: &[u8], word_count: usize) -> Result<Vec<u8>, IntegrityError> {
    let mut dict = Dictionary::new();
    let mut r = BitReader::new(stream);
    let mut out = Vec::with_capacity(word_count * 4);
    let need = |context| IntegrityError::Truncated { context };
    for _ in 0..word_count {
        let word = match r.try_read(2).ok_or(need("C-Pack code"))? {
            0b00 => 0,
            0b01 => {
                let w = r.try_read(32).ok_or(need("C-Pack word"))?;
                dict.push(w);
                w
            }
            0b10 => {
                let i = r.try_read(4).ok_or(need("C-Pack index"))? as usize;
                dict.words[i]
            }
            _ => match r.try_read(2).ok_or(need("C-Pack escape"))? {
                0b00 => {
                    // 1100 mmxx
                    let i = r.try_read(4).ok_or(need("C-Pack index"))? as usize;
                    let low = r.try_read(16).ok_or(need("C-Pack low bytes"))?;
                    let w = (dict.words[i] & 0xFFFF_0000) | low;
                    dict.push(w);
                    w
                }
                0b01 => r.try_read(8).ok_or(need("C-Pack byte"))?, // 1101 zzzx
                0b10 => {
                    // 1110 mmmx
                    let i = r.try_read(4).ok_or(need("C-Pack index"))? as usize;
                    let low = r.try_read(8).ok_or(need("C-Pack low byte"))?;
                    let w = (dict.words[i] & 0xFFFF_FF00) | low;
                    dict.push(w);
                    w
                }
                _ => return Err(IntegrityError::Malformed("reserved C-Pack code 1111")),
            },
        };
        out.extend_from_slice(&word.to_le_bytes());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let enc = encode(data);
        let dec = decode(&enc, data.len() / 4).expect("clean stream decodes");
        assert_eq!(dec, data, "C-Pack roundtrip");
        assert_eq!(
            enc.len(),
            compressed_size(data),
            "size model matches encoder"
        );
    }

    #[test]
    fn reserved_code_is_a_typed_error() {
        // 0b1111 in the first four bits hits the reserved escape.
        assert_eq!(
            decode(&[0b1111], 1),
            Err(IntegrityError::Malformed("reserved C-Pack code 1111"))
        );
    }

    #[test]
    fn truncated_streams_are_errors() {
        let mut data = Vec::new();
        for i in 0..16u32 {
            data.extend_from_slice(&0x9E37_79B9u32.wrapping_mul(2 * i + 1).to_le_bytes());
        }
        let enc = encode(&data);
        for cut in 0..enc.len() {
            assert!(
                matches!(
                    decode(&enc[..cut], data.len() / 4),
                    Err(IntegrityError::Truncated { .. })
                ),
                "cut at {cut} should be a truncation error"
            );
        }
    }

    #[test]
    fn zero_line() {
        let data = [0u8; 64];
        roundtrip(&data);
        assert_eq!(compressed_size(&data), 4); // 16 words x 2 bits
    }

    #[test]
    fn repeated_word_uses_dictionary() {
        let mut data = Vec::new();
        for _ in 0..16 {
            data.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        }
        roundtrip(&data);
        // 1 x 34 bits + 15 x 6 bits = 124 bits -> 16 B.
        assert_eq!(compressed_size(&data), 16);
    }

    #[test]
    fn high_bytes_match_partial() {
        // Words sharing upper 3 bytes: mmmx after the first.
        let mut data = Vec::new();
        for i in 0..16u32 {
            data.extend_from_slice(&(0x1234_5600 | i).to_le_bytes());
        }
        roundtrip(&data);
        assert!(compressed_size(&data) < 40, "partial matches compress");
    }

    #[test]
    fn small_byte_words() {
        let mut data = Vec::new();
        for i in 1..=16u32 {
            data.extend_from_slice(&(i % 200).to_le_bytes());
        }
        roundtrip(&data);
        // zzzx: 12 bits per word.
        assert_eq!(compressed_size(&data), 24);
    }

    #[test]
    fn incompressible_data() {
        let mut data = Vec::new();
        for i in 0..16u32 {
            data.extend_from_slice(&0x9E37_79B9u32.wrapping_mul(2 * i + 1).to_le_bytes());
        }
        roundtrip(&data);
        assert!(
            compressed_size(&data) >= 64,
            "random words cost >= 34 bits each"
        );
    }

    #[test]
    fn mixed_content() {
        let mut data = Vec::new();
        for i in 0..64u32 {
            let w = match i % 4 {
                0 => 0,
                1 => 0x4242_0000 | i,
                2 => i % 256,
                _ => 0xCAFE_BABE,
            };
            data.extend_from_slice(&w.to_le_bytes());
        }
        roundtrip(&data);
    }

    #[test]
    fn dictionary_wraps_fifo() {
        // More than 16 distinct words: the FIFO must recycle correctly.
        let mut data = Vec::new();
        for i in 0..40u32 {
            data.extend_from_slice(&(0x1111_0000u32 + i * 0x0101).to_le_bytes());
        }
        // Repeat the tail so late matches hit recycled entries.
        for i in 24..40u32 {
            data.extend_from_slice(&(0x1111_0000u32 + i * 0x0101).to_le_bytes());
        }
        roundtrip(&data);
    }

    #[test]
    #[should_panic(expected = "32-bit words")]
    fn unaligned_panics() {
        compressed_size(&[1, 2, 3]);
    }
}
