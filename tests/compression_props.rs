//! Property-based tests for the compression substrate and metadata codecs,
//! running on the in-repo `baryon_sim::check` harness (seeded, shrinking,
//! `BARYON_PROP_CASES` to widen, `BARYON_PROP_SEED` to replay a failure).

use baryon::compress::{
    bdi, best_compressed_size, compress_extended, cpack, fpc, Cf, RangeCompressor,
};
use baryon::core::metadata::stage_entry::RangeRef;
use baryon::core::metadata::{locate_sub_block, RemapEntry};
use baryon::sim::check::{props, Gen};

fn byte_vec(g: &mut Gen, min: usize, max: usize) -> Vec<u8> {
    g.vec(min, max, |g| g.u8())
}

fn word_vec(g: &mut Gen, min: usize, max: usize) -> Vec<u64> {
    g.vec(min, max, |g| g.u64())
}

fn words_to_bytes(words: &[u64]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

#[test]
fn fpc_roundtrips_all_inputs() {
    props("fpc_roundtrips_all_inputs").run(|g| {
        // Pad to whole words.
        let mut d = byte_vec(g, 1, 64);
        while !d.len().is_multiple_of(4) {
            d.push(0);
        }
        let enc = fpc::encode(&d);
        assert_eq!(fpc::decode(&enc, d.len() / 4).expect("clean stream"), d);
        // The size model matches the real encoder.
        assert_eq!(enc.len(), fpc::compressed_size(&d));
    });
}

#[test]
fn bdi_roundtrips_all_inputs() {
    props("bdi_roundtrips_all_inputs").run(|g| {
        let mut d = byte_vec(g, 1, 128);
        while !d.len().is_multiple_of(8) {
            d.push(0);
        }
        let enc = bdi::encode(&d);
        assert_eq!(bdi::decode(&enc).expect("clean representation"), d);
    });
}

#[test]
fn best_size_never_exceeds_input() {
    props("best_size_never_exceeds_input").run(|g| {
        let bytes = words_to_bytes(&word_vec(g, 1, 32));
        assert!(best_compressed_size(&bytes) <= bytes.len());
    });
}

#[test]
fn compression_is_deterministic() {
    props("compression_is_deterministic").run(|g| {
        let bytes = words_to_bytes(&word_vec(g, 8, 8 + 1));
        assert_eq!(best_compressed_size(&bytes), best_compressed_size(&bytes));
    });
}

#[test]
fn cacheline_aligned_is_never_looser() {
    props("cacheline_aligned_is_never_looser").run(|g| {
        // 512 B of arbitrary data: if the strict (cacheline-aligned) mode
        // accepts CF2, the loose whole-range mode must accept it too.
        let bytes = words_to_bytes(&word_vec(g, 64, 64 + 1));
        let strict = RangeCompressor::cacheline_aligned();
        let loose = RangeCompressor::whole_range();
        if strict.fits(&bytes, Cf::X2) {
            assert!(loose.fits(&bytes, Cf::X2));
        }
    });
}

#[test]
fn cpack_roundtrips_all_inputs() {
    props("cpack_roundtrips_all_inputs").run(|g| {
        let mut d = byte_vec(g, 1, 96);
        while !d.len().is_multiple_of(4) {
            d.push(0);
        }
        let enc = cpack::encode(&d);
        assert_eq!(cpack::decode(&enc, d.len() / 4).expect("clean stream"), d);
        assert_eq!(enc.len(), cpack::compressed_size(&d));
    });
}

#[test]
fn extended_selection_never_worse() {
    props("extended_selection_never_worse").run(|g| {
        // Adding C-Pack to the selection can only shrink the chosen size.
        let bytes = words_to_bytes(&word_vec(g, 8, 8 + 1));
        assert!(compress_extended(&bytes).size <= best_compressed_size(&bytes));
    });
}

#[test]
fn remap_entry_roundtrip() {
    props("remap_entry_roundtrip").run(|g| {
        // Every structurally valid decoded entry re-encodes identically.
        let bits = g.u16();
        let e = RemapEntry::decode16(bits);
        if e.check(8).is_ok() {
            assert_eq!(RemapEntry::decode16(e.encode16()), e);
        }
    });
}

#[test]
fn stage_slot_roundtrip() {
    props("stage_slot_roundtrip").run(|g| {
        let bits = g.u8();
        if let Some(r) = RangeRef::decode8(bits) {
            assert_eq!(RangeRef::decode8(r.encode8()), Some(r));
        }
    });
}

/// A random-but-valid set of non-overlapping aligned ranges for one entry.
fn random_entry(g: &mut Gen) -> RemapEntry {
    let ranges = g.vec(0, 4, |g| (g.usize_range(0, 8), g.choice(3)));
    let mut e = RemapEntry::empty();
    for (start, cf_idx) in ranges {
        let cf = [Cf::X1, Cf::X2, Cf::X4][cf_idx];
        let aligned = start / cf.sub_blocks() * cf.sub_blocks();
        let covered: u32 = ((1u32 << cf.sub_blocks()) - 1) << aligned;
        if e.remap & covered == 0 {
            e.set_range(aligned, cf);
        }
    }
    e
}

#[test]
fn locator_matches_naive_layout() {
    props("locator_matches_naive_layout").run(|g| {
        // Build random-but-valid remap entries (non-overlapping aligned
        // ranges per block) and check the locator against a naive walk.
        let entries = g.vec(1, 8, random_entry);
        assert!(entries.iter().all(|e| e.check(8).is_ok()));
        // Naive: assign slots in (block, sub) order, pointer 0 everywhere.
        let mut slot = 0usize;
        for (blk, e) in entries.iter().enumerate() {
            let mut s = 0usize;
            while s < 8 {
                match e.range_of(s) {
                    Some((start, cf)) => {
                        for covered in start..start + cf.sub_blocks() {
                            assert_eq!(
                                locate_sub_block(&entries, blk, covered),
                                Some(slot),
                                "block {blk} sub {covered}"
                            );
                        }
                        slot += 1;
                        s = start + cf.sub_blocks();
                    }
                    None => {
                        assert_eq!(locate_sub_block(&entries, blk, s), None);
                        s += 1;
                    }
                }
            }
        }
    });
}

#[test]
fn slots_used_is_consistent_with_locator() {
    props("slots_used_is_consistent_with_locator").run(|g| {
        let e = random_entry(g);
        // The number of distinct slots the entry's subs map to equals
        // slots_used().
        let mut slots = std::collections::HashSet::new();
        for s in 0..8 {
            if let Some(slot) = e.slot_of(s) {
                slots.insert(slot);
            }
        }
        assert_eq!(slots.len(), e.slots_used());
    });
}
