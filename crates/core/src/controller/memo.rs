//! Version-keyed memoization of compression verdicts.
//!
//! The controller hot path re-renders memory ranges and re-runs FPC/BDI
//! trials on every fill and every writeback to a compressed range. But
//! rendered bytes are a pure function of `(content salt, address,
//! per-line versions)` — see [`MemoryContents::salt`] — so a verdict
//! computed once stays valid for as long as the covered lines' versions
//! do not change.
//!
//! Memoization happens at **chunk** granularity: in cacheline-aligned
//! mode (the paper's hardware), every trial — `fits`, `best_range`,
//! `chunk_still_fits`, the zero-range check — decomposes into verdicts
//! over `64 * factor`-byte chunks of at most four lines. That is the
//! level where the memo pays: a write invalidates only the chunks whose
//! lines it touched, so when a range is re-tried after an update, the
//! untouched chunks still hit. (The `whole_range` ablation mode trials
//! entire 1 kB ranges at once; it opts out of the memo and simply
//! recomputes.)
//!
//! The memo is a direct-mapped table whose key embeds the *entire* input
//! of the verdict: probe kind, chunk base and length, the content salt,
//! and the full version vector of every covered line. A hit therefore
//! reproduces the exact value the trial would compute — the memo is
//! behavior-invisible by construction, which is what lets the
//! differential goldens pin it. It is deliberately *not* serialized: a
//! restored run starts cold and re-fills it on demand.

use baryon_sim::rng::mix64;
use baryon_workloads::MemoryContents;
use std::cell::Cell;

/// Maximum lines a memoized chunk may cover (a CF4 chunk: 4 × 64 B).
pub(crate) const MEMO_LINES: usize = 4;

/// Direct-mapped slot count. The hot set of a zipfian workload spans
/// hundreds of thousands of distinct chunks; at 48 B per slot this is a
/// ~12 MB table, small enough to be irrelevant on a host and large
/// enough that the hot set mostly avoids aliasing.
const MEMO_SLOTS: usize = 262_144;

/// What question the memoized verdict answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Probe {
    /// Does this `64 * factor`-byte chunk compress into one cacheline?
    ChunkFits {
        /// The CF factor (2 or 4) that sets the chunk width.
        factor: u8,
    },
    /// Is this chunk all zero bytes when rendered?
    Zero,
}

impl Probe {
    fn code(self) -> u64 {
        match self {
            Probe::ChunkFits { factor } => 0x100 | factor as u64,
            Probe::Zero => 0x200,
        }
    }
}

/// A fully-built lookup key: everything the verdict depends on.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MemoKey {
    hash: u64,
    base: u64,
    meta: u64,
    lines: usize,
    vers: [u32; MEMO_LINES],
}

impl MemoKey {
    /// Builds the key for a `len`-byte chunk at line-aligned `base`, or
    /// `None` when the chunk spans more than [`MEMO_LINES`] lines (fall
    /// back to the direct computation; no correctness impact).
    pub(crate) fn build(mem: &MemoryContents, base: u64, len: usize, probe: Probe) -> Option<Self> {
        let mut vers = [0u32; MEMO_LINES];
        let lines = mem.versions_into(base, len, &mut vers)?;
        let meta = (len as u64) << 16 | probe.code();
        let mut hash = mix64(mem.salt() ^ base, meta);
        for v in &vers[..lines] {
            hash = mix64(hash, *v as u64);
        }
        Some(MemoKey {
            // Reserve 0 as the empty-slot tag.
            hash: hash | 1,
            base,
            meta: meta ^ mem.salt().rotate_left(17),
            lines,
            vers,
        })
    }

    fn matches(&self, slot: &Slot) -> bool {
        slot.tag == self.hash
            && slot.base == self.base
            && slot.meta == self.meta
            && slot.vers[..self.lines] == self.vers[..self.lines]
    }
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    tag: u64,
    base: u64,
    meta: u64,
    vers: [u32; MEMO_LINES],
    value: u32,
}

const EMPTY: Slot = Slot {
    tag: 0,
    base: 0,
    meta: 0,
    vers: [0; MEMO_LINES],
    value: 0,
};

/// The memo table. Collisions simply overwrite (direct-mapped): stale or
/// evicted entries cost a recompute, never a wrong answer, because a hit
/// requires the full key — versions included — to match.
#[derive(Debug, Clone)]
pub(crate) struct CompressMemo {
    slots: Vec<Slot>,
    hits: u64,
    misses: u64,
}

thread_local! {
    /// The table of the last memo dropped on this thread. A table is
    /// 12 MiB: freeing it after every run lets small allocations made
    /// between runs land in the freed block, so the next table goes to
    /// fresh pages and a process serving run after run (a `baryon-serve`
    /// worker) grows its peak RSS by a whole table. Reusing the thread's
    /// last table keeps one block in place.
    static SPARE: Cell<Vec<Slot>> = const { Cell::new(Vec::new()) };
}

impl CompressMemo {
    pub(crate) fn new() -> Self {
        let mut slots = SPARE.with(Cell::take);
        if slots.is_empty() {
            slots = vec![EMPTY; MEMO_SLOTS];
        } else {
            slots.fill(EMPTY);
        }
        CompressMemo {
            slots,
            hits: 0,
            misses: 0,
        }
    }

    /// Drops every entry (used after a checkpoint restore: correctness
    /// never requires this, but a cold start keeps restored runs
    /// trivially equivalent to fresh ones).
    pub(crate) fn clear(&mut self) {
        self.slots.fill(EMPTY);
        self.hits = 0;
        self.misses = 0;
    }

    pub(crate) fn lookup(&mut self, key: &MemoKey) -> Option<u32> {
        let slot = &self.slots[key.hash as usize % MEMO_SLOTS];
        if key.matches(slot) {
            self.hits += 1;
            Some(slot.value)
        } else {
            self.misses += 1;
            None
        }
    }

    pub(crate) fn insert(&mut self, key: &MemoKey, value: u32) {
        self.slots[key.hash as usize % MEMO_SLOTS] = Slot {
            tag: key.hash,
            base: key.base,
            meta: key.meta,
            vers: key.vers,
            value,
        };
    }

    /// `(hits, misses)` since construction or [`CompressMemo::clear`].
    #[cfg(test)]
    pub(crate) fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

impl Drop for CompressMemo {
    fn drop(&mut self) {
        let slots = std::mem::take(&mut self.slots);
        // During thread teardown the spare is gone; the table is freed.
        let _ = SPARE.try_with(|spare| spare.set(slots));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baryon_workloads::{MemoryContents, ProfileMix, ValueProfile};

    fn mem() -> MemoryContents {
        MemoryContents::new(ProfileMix::pure(ValueProfile::NarrowInt), 7)
    }

    #[test]
    fn hit_requires_identical_versions() {
        let mut m = mem();
        let mut memo = CompressMemo::new();
        let probe = Probe::ChunkFits { factor: 4 };
        let k1 = MemoKey::build(&m, 0, 256, probe).expect("4 lines fit");
        assert_eq!(memo.lookup(&k1), None);
        memo.insert(&k1, 1);
        assert_eq!(memo.lookup(&k1), Some(1));
        // A write inside the chunk changes a version: the old entry can
        // never satisfy the new key.
        m.write_line(128);
        let k2 = MemoKey::build(&m, 0, 256, probe).expect("4 lines fit");
        assert_eq!(memo.lookup(&k2), None);
        memo.insert(&k2, 0);
        assert_eq!(memo.lookup(&k2), Some(0));
        assert_eq!(memo.stats(), (2, 2));
    }

    #[test]
    fn a_reused_table_starts_empty() {
        let m = mem();
        let k = MemoKey::build(&m, 0, 256, Probe::Zero).expect("fits");
        let mut first = CompressMemo::new();
        first.insert(&k, 1);
        drop(first);
        let mut second = CompressMemo::new();
        assert_eq!(second.lookup(&k), None);
        assert_eq!(second.stats(), (0, 1));
    }

    #[test]
    fn distinct_probes_do_not_alias() {
        let m = mem();
        let mut memo = CompressMemo::new();
        let a = MemoKey::build(&m, 0, 128, Probe::ChunkFits { factor: 2 }).expect("fits");
        let b = MemoKey::build(&m, 0, 128, Probe::Zero).expect("fits");
        memo.insert(&a, 1);
        assert_eq!(memo.lookup(&b), None);
        assert_eq!(memo.lookup(&a), Some(1));
    }

    #[test]
    fn oversized_ranges_opt_out() {
        let m = mem();
        assert!(MemoKey::build(&m, 0, 64 * (MEMO_LINES + 1), Probe::Zero).is_none());
        assert!(MemoKey::build(&m, 0, 64 * MEMO_LINES, Probe::Zero).is_some());
    }

    #[test]
    fn different_salts_do_not_alias() {
        let m1 = mem();
        let m2 = MemoryContents::new(ProfileMix::pure(ValueProfile::NarrowInt), 8);
        assert_ne!(m1.salt(), m2.salt());
        let mut memo = CompressMemo::new();
        let k1 = MemoKey::build(&m1, 0, 256, Probe::Zero).expect("fits");
        let k2 = MemoKey::build(&m2, 0, 256, Probe::Zero).expect("fits");
        memo.insert(&k1, 1);
        assert_eq!(memo.lookup(&k2), None);
    }
}
