//! Base-Delta-Immediate (BDI) compression.
//!
//! BDI [Pekhimenko et al., PACT 2012] represents a chunk as an array of
//! fixed-size elements (8, 4, or 2 bytes) expressed as small signed deltas
//! from one of two bases: an arbitrary base chosen from the data and an
//! implicit zero base ("immediate"). Encodings tried, in order of preference:
//!
//! * all-zero chunk (1 byte),
//! * repeated 8-byte value (8 bytes),
//! * base8-Δ1 / base8-Δ2 / base8-Δ4,
//! * base4-Δ1 / base4-Δ2,
//! * base2-Δ1.
//!
//! Sizes follow the BDI paper's layout: `base + n·Δ + ceil(n/8)` where the
//! final term is the per-element base-selection bitmask.

use crate::IntegrityError;

/// One (element size, delta size) BDI encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Encoding {
    /// Element size in bytes: 8, 4, or 2.
    pub elem: usize,
    /// Delta size in bytes, strictly smaller than `elem`.
    pub delta: usize,
}

/// The eight canonical encodings, in the order the hardware tries them.
pub const ENCODINGS: [Encoding; 6] = [
    Encoding { elem: 8, delta: 1 },
    Encoding { elem: 8, delta: 2 },
    Encoding { elem: 8, delta: 4 },
    Encoding { elem: 4, delta: 1 },
    Encoding { elem: 4, delta: 2 },
    Encoding { elem: 2, delta: 1 },
];

fn read_elem(data: &[u8], idx: usize, elem: usize) -> i64 {
    let mut buf = [0u8; 8];
    buf[..elem].copy_from_slice(&data[idx * elem..(idx + 1) * elem]);
    // Sign-extend.
    let raw = i64::from_le_bytes(buf);
    let shift = 64 - 8 * elem as u32;
    (raw << shift) >> shift
}

fn delta_fits(delta: i64, bytes: usize) -> bool {
    let shift = 64 - 8 * bytes as u32;
    ((delta << shift) >> shift) == delta
}

/// Size in bytes of a chunk under `enc`, or `None` if it does not apply.
///
/// The base is the first element that is not representable as a delta from
/// the implicit zero base (the greedy hardware choice).
pub fn size_with(data: &[u8], enc: Encoding) -> Option<usize> {
    if !data.len().is_multiple_of(enc.elem) {
        return None;
    }
    let n = data.len() / enc.elem;
    let mut base: Option<i64> = None;
    for i in 0..n {
        let v = read_elem(data, i, enc.elem);
        if delta_fits(v, enc.delta) {
            continue; // zero base covers it
        }
        match base {
            None => base = Some(v),
            Some(b) => {
                if !delta_fits(v.wrapping_sub(b), enc.delta) {
                    return None;
                }
            }
        }
    }
    Some(enc.elem + n * enc.delta + n.div_ceil(8))
}

/// BDI-compressed size of `data` in bytes (best applicable encoding).
///
/// Falls back to `data.len()` when nothing applies. Special cases: an
/// all-zero chunk costs 1 byte; a chunk that is one repeated 8-byte value
/// costs 8 bytes.
///
/// # Examples
///
/// ```
/// assert_eq!(baryon_compress::bdi::compressed_size(&[0u8; 64]), 1);
/// ```
///
/// # Panics
///
/// Panics if `data` is not a multiple of 8 bytes.
pub fn compressed_size(data: &[u8]) -> usize {
    assert!(
        data.len().is_multiple_of(8),
        "BDI needs whole 64-bit elements"
    );
    if data.iter().all(|b| *b == 0) {
        return 1;
    }
    if data.chunks_exact(8).all(|c| c == &data[..8]) {
        return 8;
    }
    ENCODINGS
        .iter()
        .filter_map(|e| size_with(data, *e))
        .min()
        .unwrap_or(data.len())
        .min(data.len())
}

/// A decodable BDI representation (for lossless round-trip tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Encoded {
    /// All-zero chunk of the given byte length.
    Zeros(usize),
    /// One 8-byte value repeated to fill the chunk.
    Repeat([u8; 8], usize),
    /// Delta-encoded payload.
    Deltas {
        /// Encoding used.
        enc: Encoding,
        /// The non-zero base value.
        base: i64,
        /// Per-element flag: true if the element uses `base`, false for zero.
        uses_base: Vec<bool>,
        /// Per-element deltas.
        deltas: Vec<i64>,
    },
    /// Raw fallback.
    Raw(Vec<u8>),
}

/// Losslessly encodes `data` with the best applicable BDI encoding.
///
/// # Panics
///
/// Panics if `data` is not a multiple of 8 bytes.
pub fn encode(data: &[u8]) -> Encoded {
    assert!(
        data.len().is_multiple_of(8),
        "BDI needs whole 64-bit elements"
    );
    if data.iter().all(|b| *b == 0) {
        return Encoded::Zeros(data.len());
    }
    if data.chunks_exact(8).all(|c| c == &data[..8]) {
        return Encoded::Repeat(data[..8].try_into().expect("8 bytes"), data.len());
    }
    let best = ENCODINGS
        .iter()
        .filter(|e| size_with(data, **e).is_some())
        .min_by_key(|e| size_with(data, **e).expect("filtered"));
    let Some(&enc) = best else {
        return Encoded::Raw(data.to_vec());
    };
    let n = data.len() / enc.elem;
    let mut base = 0i64;
    for i in 0..n {
        let v = read_elem(data, i, enc.elem);
        if !delta_fits(v, enc.delta) {
            base = v;
            break;
        }
    }
    let mut uses_base = Vec::with_capacity(n);
    let mut deltas = Vec::with_capacity(n);
    for i in 0..n {
        let v = read_elem(data, i, enc.elem);
        if delta_fits(v, enc.delta) {
            uses_base.push(false);
            deltas.push(v);
        } else {
            uses_base.push(true);
            deltas.push(v.wrapping_sub(base));
        }
    }
    Encoded::Deltas {
        enc,
        base,
        uses_base,
        deltas,
    }
}

/// Decodes an [`encode`]d chunk back to its original bytes.
///
/// # Errors
///
/// Returns [`IntegrityError::Malformed`] when the representation is
/// structurally inconsistent (an encoding the hardware cannot emit,
/// mismatched per-element arrays, or a length that is not a multiple of
/// the element size).
pub fn decode(encoded: &Encoded) -> Result<Vec<u8>, IntegrityError> {
    Ok(match encoded {
        Encoded::Zeros(len) => {
            if !len.is_multiple_of(8) {
                return Err(IntegrityError::Malformed("BDI zero length unaligned"));
            }
            vec![0u8; *len]
        }
        Encoded::Repeat(val, len) => {
            if !len.is_multiple_of(8) {
                return Err(IntegrityError::Malformed("BDI repeat length unaligned"));
            }
            val.iter().copied().cycle().take(*len).collect()
        }
        Encoded::Raw(bytes) => {
            if !bytes.len().is_multiple_of(8) {
                return Err(IntegrityError::Malformed("BDI raw length unaligned"));
            }
            bytes.clone()
        }
        Encoded::Deltas {
            enc,
            base,
            uses_base,
            deltas,
        } => {
            if !ENCODINGS.contains(enc) {
                return Err(IntegrityError::Malformed("unknown BDI encoding"));
            }
            if uses_base.len() != deltas.len() {
                return Err(IntegrityError::Malformed("BDI flag/delta arrays differ"));
            }
            let mut out = Vec::with_capacity(uses_base.len() * enc.elem);
            for (ub, d) in uses_base.iter().zip(deltas) {
                let v = if *ub { base.wrapping_add(*d) } else { *d };
                out.extend_from_slice(&v.to_le_bytes()[..enc.elem]);
            }
            out
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let enc = encode(data);
        let dec = decode(&enc).expect("encoder output decodes");
        assert_eq!(dec, data, "BDI roundtrip failed for {enc:?}");
    }

    #[test]
    fn inconsistent_representations_are_errors() {
        let bad = Encoded::Deltas {
            enc: Encoding { elem: 8, delta: 3 },
            base: 0,
            uses_base: vec![false],
            deltas: vec![0],
        };
        assert!(matches!(decode(&bad), Err(IntegrityError::Malformed(_))));
        let bad = Encoded::Deltas {
            enc: Encoding { elem: 8, delta: 1 },
            base: 0,
            uses_base: vec![false, true],
            deltas: vec![0],
        };
        assert!(matches!(decode(&bad), Err(IntegrityError::Malformed(_))));
        assert!(decode(&Encoded::Zeros(13)).is_err());
    }

    #[test]
    fn zeros() {
        assert_eq!(compressed_size(&[0u8; 64]), 1);
        roundtrip(&[0u8; 64]);
    }

    #[test]
    fn repeated_value() {
        let mut data = Vec::new();
        for _ in 0..8 {
            data.extend_from_slice(&0xDEAD_BEEF_CAFE_F00Du64.to_le_bytes());
        }
        assert_eq!(compressed_size(&data), 8);
        roundtrip(&data);
    }

    #[test]
    fn base8_delta1() {
        // Pointers into the same region: large shared base, tiny deltas.
        let base = 0x0000_7F1A_2B3C_4000u64;
        let mut data = Vec::new();
        for i in 0..8u64 {
            data.extend_from_slice(&(base + i * 8).to_le_bytes());
        }
        let sz = size_with(&data, Encoding { elem: 8, delta: 1 }).expect("applies");
        assert_eq!(sz, 8 + 8 + 1);
        assert_eq!(compressed_size(&data), 17);
        roundtrip(&data);
    }

    #[test]
    fn base4_delta1_narrow_ints() {
        // 32-bit counters around a common value.
        let mut data = Vec::new();
        for i in 0..16u32 {
            data.extend_from_slice(&(1_000_000 + i).to_le_bytes());
        }
        let sz = size_with(&data, Encoding { elem: 4, delta: 1 }).expect("applies");
        assert_eq!(sz, 4 + 16 + 2);
        roundtrip(&data);
    }

    #[test]
    fn mixed_zero_and_base_elements() {
        // Some elements near zero, some near a big base: the dual-base trick.
        let mut data = Vec::new();
        for i in 0..8u64 {
            let v = if i % 2 == 0 {
                i
            } else {
                0x7700_0000_0000_0000 + i
            };
            data.extend_from_slice(&v.to_le_bytes());
        }
        assert!(compressed_size(&data) < 64);
        roundtrip(&data);
    }

    #[test]
    fn incompressible() {
        let mut data = Vec::new();
        for i in 0..8u64 {
            data.extend_from_slice(
                &(0x0123_4567_89AB_CDEFu64.wrapping_mul(2 * i + 3)).to_le_bytes(),
            );
        }
        assert_eq!(compressed_size(&data), 64);
        roundtrip(&data);
    }

    #[test]
    fn negative_deltas() {
        let base = 0x1000_0000_0000u64;
        let mut data = Vec::new();
        for i in 0..8i64 {
            data.extend_from_slice(&((base as i64) + 4 - i).to_le_bytes());
        }
        assert!(compressed_size(&data) <= 17);
        roundtrip(&data);
    }

    #[test]
    fn larger_chunks_supported() {
        // 256 B chunk of 32-bit floats with identical exponents compresses.
        let mut data = Vec::new();
        for i in 0..64u32 {
            data.extend_from_slice(&(1.0f32 + i as f32 * 1e-6).to_bits().to_le_bytes());
        }
        assert!(compressed_size(&data) < 256);
        roundtrip(&data);
    }

    #[test]
    #[should_panic(expected = "64-bit elements")]
    fn unaligned_panics() {
        compressed_size(&[0u8; 12]);
    }

    #[test]
    fn size_with_rejects_wrong_alignment() {
        assert_eq!(size_with(&[0u8; 10], Encoding { elem: 8, delta: 1 }), None);
    }
}
