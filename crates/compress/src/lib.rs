#![warn(missing_docs)]

//! Hardware-style memory compression for the Baryon reproduction.
//!
//! Baryon (HPCA 2023, §III-B) feeds every to-be-compressed chunk into two
//! hardware compressors — **FPC** (Frequent Pattern Compression) and **BDI**
//! (Base-Delta-Immediate) — and keeps whichever result is smaller. This crate
//! implements both algorithms bit-accurately enough to compute real compressed
//! sizes from real data bytes, plus:
//!
//! * [`best_compressed_size`] — the best-of-both selection used everywhere,
//! * [`Cf`] — Baryon's three supported compression factors (1, 2, 4),
//! * [`RangeCompressor`] — the *cacheline-aligned* range compression rule of
//!   §III-E (each 64·n-byte chunk of a CF=n range must independently compress
//!   to ≤ 64 B, so that a single DDRx 64 B transfer can be decompressed alone),
//! * zero-block detection for the `Z`-bit optimization,
//! * [`crc`] — the hermetic table-driven CRC32 the rest of the workspace
//!   uses to frame checkpoints, journal records and replies.
//!
//! Both algorithms also have full encoders/decoders so tests can verify
//! losslessness, not just size models; every decoder returns `Result`
//! and surfaces truncation or malformed codes as [`IntegrityError`].
//!
//! # Examples
//!
//! ```
//! use baryon_compress::{best_compressed_size, Cf, RangeCompressor};
//!
//! // A run of small integers compresses well under both FPC and BDI.
//! let mut data = [0u8; 64];
//! for (i, w) in data.chunks_exact_mut(4).enumerate() {
//!     w.copy_from_slice(&(i as u32).to_le_bytes());
//! }
//! assert!(best_compressed_size(&data) < 64);
//!
//! // The whole 256 B sub-block range logic:
//! let zeros = vec![0u8; 1024];
//! let rc = RangeCompressor::cacheline_aligned();
//! assert_eq!(rc.max_cf(&zeros), Some(Cf::X4));
//! ```

pub mod bdi;
pub mod cpack;
pub mod crc;
pub mod fpc;
pub mod range;

pub use range::{Cf, RangeCompressor};

use std::fmt;

/// The cacheline size all compressors are designed around (64 B, Table I).
pub const CACHELINE_BYTES: usize = 64;

/// The sub-block size of Baryon (256 B, §III-B).
pub const SUB_BLOCK_BYTES: usize = 256;

/// Why a compressed stream failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntegrityError {
    /// The stream ended before the decoder got the bits it needed.
    Truncated {
        /// What the decoder was reading when it ran out.
        context: &'static str,
    },
    /// Structurally invalid data (bad tag, reserved code, inconsistent
    /// fields).
    Malformed(&'static str),
}

impl fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntegrityError::Truncated { context } => {
                write!(f, "stream truncated while reading {context}")
            }
            IntegrityError::Malformed(what) => write!(f, "malformed stream: {what}"),
        }
    }
}

impl std::error::Error for IntegrityError {}

/// Which algorithm produced the winning (smallest) compressed size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Frequent Pattern Compression (word-level prefix codes).
    Fpc,
    /// Base-Delta-Immediate compression.
    Bdi,
    /// C-Pack dictionary compression (optional third algorithm).
    CPack,
    /// Data stored uncompressed (no algorithm shrank it).
    Raw,
}

/// Result of compressing one chunk: winning algorithm and byte size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Compressed {
    /// The smaller of the FPC and BDI encodings (or raw).
    pub algorithm: Algorithm,
    /// Compressed size in bytes, never larger than the input.
    pub size: usize,
}

/// Compresses `data` with both FPC and BDI and returns the better result.
///
/// The returned size is capped at `data.len()`: if neither algorithm helps,
/// the chunk is stored raw ([`Algorithm::Raw`]), exactly as the hardware
/// would fall back to the uncompressed representation.
///
/// # Examples
///
/// ```
/// use baryon_compress::{compress, Algorithm};
/// let zeros = [0u8; 64];
/// let c = compress(&zeros);
/// assert!(c.size <= 8);
/// assert_ne!(c.algorithm, Algorithm::Raw);
/// ```
///
/// # Panics
///
/// Panics if `data` is empty or not a multiple of 8 bytes (hardware
/// compressors operate on word-aligned chunks).
pub fn compress(data: &[u8]) -> Compressed {
    assert!(
        !data.is_empty() && data.len().is_multiple_of(8),
        "compressors need a non-empty multiple of 8 bytes, got {}",
        data.len()
    );
    let fpc = fpc::compressed_size(data);
    let bdi = bdi::compressed_size(data);
    let (algorithm, size) = if fpc <= bdi {
        (Algorithm::Fpc, fpc)
    } else {
        (Algorithm::Bdi, bdi)
    };
    if size >= data.len() {
        Compressed {
            algorithm: Algorithm::Raw,
            size: data.len(),
        }
    } else {
        Compressed { algorithm, size }
    }
}

/// Shorthand for `compress(data).size`.
pub fn best_compressed_size(data: &[u8]) -> usize {
    compress(data).size
}

/// Like [`compress`] but additionally tries the optional C-Pack
/// compressor ([`cpack`]). The paper's default hardware only implements
/// FPC + BDI; this is the "alternative schemes" extension of §III-B.
///
/// # Panics
///
/// Panics if `data` is empty or not a multiple of 8 bytes.
pub fn compress_extended(data: &[u8]) -> Compressed {
    let base = compress(data);
    let cp = cpack::compressed_size(data);
    if cp < base.size {
        Compressed {
            algorithm: Algorithm::CPack,
            size: cp,
        }
    } else {
        base
    }
}

/// Returns true if every byte of `data` is zero (the `Z`-bit case).
///
/// # Examples
///
/// ```
/// assert!(baryon_compress::is_all_zero(&[0u8; 256]));
/// assert!(!baryon_compress::is_all_zero(&[0, 0, 1, 0]));
/// ```
pub fn is_all_zero(data: &[u8]) -> bool {
    data.iter().all(|b| *b == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(f: impl Fn(usize) -> u8, n: usize) -> Vec<u8> {
        (0..n).map(f).collect()
    }

    #[test]
    fn zeros_compress_extremely_well() {
        let c = compress(&[0u8; 64]);
        assert!(c.size <= 8, "zero line compressed to {}", c.size);
    }

    #[test]
    fn random_like_data_stays_raw() {
        // A byte pattern with no FPC/BDI structure.
        let data = pattern(|i| (i as u8).wrapping_mul(131).wrapping_add(17) ^ 0x5A, 64);
        let c = compress(&data);
        assert_eq!(c.algorithm, Algorithm::Raw);
        assert_eq!(c.size, 64);
    }

    #[test]
    fn size_never_exceeds_input() {
        for len in [8usize, 64, 128, 256] {
            let data = pattern(|i| i as u8, len);
            assert!(compress(&data).size <= len);
        }
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn odd_length_panics() {
        compress(&[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn empty_panics() {
        compress(&[]);
    }

    #[test]
    fn is_all_zero_works() {
        assert!(is_all_zero(&[]));
        assert!(is_all_zero(&[0; 3]));
        assert!(!is_all_zero(&[0, 1]));
    }

    #[test]
    fn small_ints_pick_a_compressor() {
        let mut data = vec![0u8; 64];
        for (i, w) in data.chunks_exact_mut(4).enumerate() {
            w.copy_from_slice(&(i as u32 + 100).to_le_bytes());
        }
        let c = compress(&data);
        assert_ne!(c.algorithm, Algorithm::Raw);
        assert!(c.size < 40);
    }
}
