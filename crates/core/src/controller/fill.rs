//! Staging, replacement, commit and eviction machinery (§III-E, §III-F).

use super::memo::{MemoKey, Probe, MEMO_LINES};
use super::serve::range_mask;
use super::{BaryonController, PhysState};
use crate::metadata::stage_entry::RangeRef;
use crate::metadata::RemapEntry;
use crate::remap::RemapStore;
use crate::stage::StageSlot;
use baryon_compress::{is_all_zero, Cf};
use baryon_sim::Cycle;
use baryon_workloads::MemoryContents;

/// Per-block commit plan: `(blk_off, [(stage slot index, range)])`.
type BlockRanges = Vec<(usize, Vec<(Option<usize>, RangeRef)>)>;

impl BaryonController {
    /// Fetches the maximal compressible range around `(b, sub)` from slow
    /// memory and stages it (cases 3 and 5; slow-to-stage prefetch).
    pub(crate) fn stage_fill(&mut self, at: Cycle, b: u64, sub: usize, mem: &mut MemoryContents) {
        let sb = self.geom.super_of_block(b);
        let off = self.geom.blk_off(b);
        let existing = self
            .stage
            .block_home(sb, off)
            .and_then(|s| self.stage.entry(s).map(|e| e.sub_mask_of(off)))
            .unwrap_or(0);
        if existing >> sub & 1 == 1 {
            return; // already staged meanwhile
        }

        let (start, cf, compressed_src) = self.choose_range(b, sub, existing, mem);
        let range = RangeRef {
            blk_off: off as u8,
            sub_off: start as u8,
            cf,
            dirty: false,
        };

        // Background fetch of the rest of the range (the demanded 64 B was
        // already transferred by the demand read).
        let total_bytes = if compressed_src {
            self.geom.sub_bytes as usize
        } else {
            cf.sub_blocks() * self.geom.sub_bytes as usize
        };
        if total_bytes > 64 {
            let addr = self.slow_home_addr(b, start);
            self.devices.slow.access(at, addr, total_bytes - 64, false);
        }

        let zero = self.cfg.zero_opt
            && self.range_is_zero(
                self.geom.sub_addr(b, start),
                cf.sub_blocks() * self.geom.sub_bytes as usize,
                mem,
            );
        self.stage_put(at, b, range, zero, mem);
    }

    /// Memoized per-chunk compression verdict: does the `64 * factor`-byte
    /// chunk at `chunk_base` compress into one cacheline? This is the
    /// atom every cacheline-aligned trial decomposes into, and the level
    /// where memoization pays: a write invalidates only the chunks whose
    /// lines it touched, so the other chunks of a re-tried range still hit.
    pub(crate) fn chunk_fits_memoized(
        &mut self,
        chunk_base: u64,
        factor: usize,
        mem: &MemoryContents,
    ) -> bool {
        let len = 64 * factor;
        let probe = Probe::ChunkFits {
            factor: factor as u8,
        };
        let key = MemoKey::build(mem, chunk_base, len, probe);
        if let Some(k) = &key {
            if let Some(v) = self.memo.lookup(k) {
                return v != 0;
            }
        }
        // Render into a stack buffer: chunks are at most 4 lines.
        let mut buf = [0u8; 256];
        for i in 0..len / 64 {
            buf[i * 64..(i + 1) * 64].copy_from_slice(&mem.line(chunk_base + i as u64 * 64));
        }
        let fits = self.rc.chunk_size(&buf[..len]) <= 64;
        if let Some(k) = &key {
            self.memo.insert(k, fits as u32);
        }
        fits
    }

    /// Memoized cacheline-aligned [`baryon_compress::RangeCompressor::fits`]:
    /// every `64 * factor`-byte chunk of the `cf`-range at `base` must
    /// compress into one cacheline. Identical chunking to the compressor's
    /// own aligned mode, evaluated chunk by chunk through the memo.
    pub(crate) fn range_fits_aligned(&mut self, base: u64, cf: Cf, mem: &MemoryContents) -> bool {
        let chunk = 64 * cf.factor();
        let len = cf.sub_blocks() * self.geom.sub_bytes as usize;
        (0..len / chunk)
            .all(|i| self.chunk_fits_memoized(base + (i * chunk) as u64, cf.factor(), mem))
    }

    /// Memoized `is_all_zero` over a rendered range, decomposed into
    /// [`MEMO_LINES`]-line pieces so a write re-checks only the piece it
    /// touched (versions unchanged means bytes unchanged).
    fn range_is_zero(&mut self, base: u64, len: usize, mem: &MemoryContents) -> bool {
        const PIECE: usize = 64 * MEMO_LINES;
        let mut off = 0;
        while off < len {
            let n = PIECE.min(len - off);
            if !self.piece_is_zero(base + off as u64, n, mem) {
                return false;
            }
            off += n;
        }
        true
    }

    fn piece_is_zero(&mut self, base: u64, len: usize, mem: &MemoryContents) -> bool {
        let key = MemoKey::build(mem, base, len, Probe::Zero);
        if let Some(k) = &key {
            if let Some(v) = self.memo.lookup(k) {
                return v != 0;
            }
        }
        let zero = (0..len / 64).all(|i| is_all_zero(&mem.line(base + i as u64 * 64)));
        if let Some(k) = &key {
            self.memo.insert(k, zero as u32);
        }
        zero
    }

    /// Chooses the fetch range for a demand miss: slow-copy hints first
    /// (they skip compression trials, §III-D), otherwise the maximal
    /// contiguous aligned range that compresses into one slot, shrunk to
    /// avoid overlapping already-staged sub-blocks.
    pub(crate) fn choose_range(
        &mut self,
        b: u64,
        sub: usize,
        existing_mask: u32,
        mem: &MemoryContents,
    ) -> (usize, Cf, bool) {
        if self.meta[b as usize].degraded {
            // Degraded block (a stuck fast cell was found under its data):
            // no compression trials, single raw sub-block fetches only.
            return (sub, Cf::X1, false);
        }
        if let Some((start, cf)) = self.slow_hint(b, sub) {
            let mask = range_mask(&RangeRef {
                blk_off: 0,
                sub_off: start as u8,
                cf,
                dirty: false,
            });
            if mask & existing_mask == 0 {
                return (start, cf, true);
            }
        }
        let window = sub / 4 * 4;
        let base = self.geom.sub_addr(b, window);
        let len = 4 * self.geom.sub_bytes as usize;
        let pos = sub - window;
        // `RangeCompressor::best_range`, decomposed so each trial runs
        // through the chunk memo: CF4 over the whole window, else CF2
        // over the aligned half holding `pos`, else CF1.
        let (mut cf, mut rel) = if self.cfg.cacheline_aligned {
            if self.range_fits_aligned(base, Cf::X4, mem) {
                (Cf::X4, 0)
            } else {
                let half = pos / 2;
                let half_base = base + (half * 2 * self.geom.sub_bytes as usize) as u64;
                if self.range_fits_aligned(half_base, Cf::X2, mem) {
                    (Cf::X2, half * 2)
                } else {
                    (Cf::X1, pos)
                }
            }
        } else {
            // whole_range ablation: trials span the full window, so chunk
            // memoization does not apply — compute directly.
            let data = mem.range(base, len);
            self.rc.best_range(&data, pos)
        };
        // Shrink on overlap with already-staged sub-blocks of this block.
        loop {
            let start = window + rel;
            let overlap = (start..start + cf.sub_blocks()).any(|s| existing_mask >> s & 1 == 1);
            if !overlap {
                return (start, cf, false);
            }
            match cf {
                Cf::X4 => {
                    cf = Cf::X2;
                    rel = (sub - window) / 2 * 2;
                }
                Cf::X2 => {
                    cf = Cf::X1;
                    rel = sub - window;
                }
                Cf::X1 => unreachable!("the demanded sub-block itself is not staged"),
            }
        }
    }

    /// Places a range into the stage area, making room as needed.
    pub(crate) fn stage_put(
        &mut self,
        at: Cycle,
        b: u64,
        range: RangeRef,
        zero: bool,
        mem: &mut MemoryContents,
    ) {
        let sb = self.geom.super_of_block(b);
        let off = self.geom.blk_off(b);
        let was_empty = self.stage.block_home(sb, off).is_none();
        let slot = self.stage_make_room(at, sb, off, mem);
        self.counters.cf_subs += range.cf.sub_blocks() as u64;
        if zero {
            let entry = self.stage.entry_mut(slot).expect("allocated");
            if entry.zero_ranges.len() >= entry.slots.len() {
                entry.zero_ranges.remove(0);
            }
            entry.zero_ranges.push(range);
        } else {
            self.counters.cf_slots += 1;
            let entry = self.stage.entry_mut(slot).expect("allocated");
            let free = entry.free_slot().expect("make_room guarantees a slot");
            entry.slots[free] = Some(range);
            let addr = self.stage_slot_addr(slot, free);
            self.devices
                .fast
                .access(at, addr, self.geom.sub_bytes as usize, true);
        }
        self.stage.touch(slot);
        if was_empty {
            self.tracker.on_stage(slot, b, at);
        }
    }

    /// Re-inserts the sub-blocks of a broken range (write overflow) at the
    /// best CFs their current contents allow.
    pub(crate) fn restage_subs(
        &mut self,
        at: Cycle,
        b: u64,
        mut mask: u32,
        dirty: bool,
        mem: &mut MemoryContents,
    ) {
        let off = self.geom.blk_off(b);
        while mask != 0 {
            let s = mask.trailing_zeros() as usize;
            let cf = self.best_cf_for_group(b, s, mask, mem);
            let range = RangeRef {
                blk_off: off as u8,
                sub_off: (s / cf.sub_blocks() * cf.sub_blocks()) as u8,
                cf,
                dirty,
            };
            for covered in range.sub_off as usize..range.sub_off as usize + cf.sub_blocks() {
                mask &= !(1 << covered);
            }
            let zero = self.cfg.zero_opt
                && !dirty
                && self.range_is_zero(
                    self.geom.sub_addr(b, range.sub_off as usize),
                    cf.sub_blocks() * self.geom.sub_bytes as usize,
                    mem,
                );
            self.stage_put(at, b, range, zero, mem);
        }
    }

    /// The widest aligned CF whose whole group is in `mask` and compresses.
    fn best_cf_for_group(&mut self, b: u64, s: usize, mask: u32, mem: &MemoryContents) -> Cf {
        if self.meta[b as usize].degraded {
            return Cf::X1;
        }
        for cf in [Cf::X4, Cf::X2] {
            let n = cf.sub_blocks();
            let start = s / n * n;
            let group: u32 = ((1u32 << n) - 1) << start;
            if mask & group == group && self.fits_memoized(b, start, cf, mem) {
                return cf;
            }
        }
        Cf::X1
    }

    /// Memoized `RangeCompressor::fits` over the group starting at
    /// sub-block `start` of block `b`.
    fn fits_memoized(&mut self, b: u64, start: usize, cf: Cf, mem: &MemoryContents) -> bool {
        let base = self.geom.sub_addr(b, start);
        if self.cfg.cacheline_aligned {
            return self.range_fits_aligned(base, cf, mem);
        }
        let len = cf.sub_blocks() * self.geom.sub_bytes as usize;
        self.rc.fits(&mem.range(base, len), cf)
    }

    /// Finds (or makes) a stage slot with a free sub-block slot for block
    /// `(sb, off)`, implementing the two-level replacement heuristic (Fig 8).
    fn stage_make_room(
        &mut self,
        at: Cycle,
        sb: u64,
        off: usize,
        mem: &mut MemoryContents,
    ) -> StageSlot {
        let set = self.stage.set_of(sb);

        // Rule 3: if the block already has a home, the range must join it.
        if let Some(home) = self.stage.block_home(sb, off) {
            if self
                .stage
                .entry(home)
                .is_some_and(|e| e.free_slot().is_some())
            {
                return home;
            }
            if !self.cfg.two_level_replacement || self.stage.is_lru(home) {
                self.sub_fifo_evict(at, home, mem);
                return home;
            }
            // Block-level: evict the set LRU, open a new physical block for
            // this super-block, and move the block's ranges there (Fig 8
            // bottom: de-fragmentation by re-grouping).
            let victim = self.stage.lru_way(set).expect("home exists, set non-empty");
            if victim == home {
                self.sub_fifo_evict(at, home, mem);
                return home;
            }
            self.evict_or_commit(at, victim, mem);
            self.stage.allocate(victim, sb);
            self.move_block_ranges(at, home, victim, off);
            let block = sb * self.geom.blocks_per_super + off as u64;
            self.tracker.on_stage(victim, block, at);
            return victim;
        }

        // First range of this block: join any stage block of the
        // super-block with room (the paper picks randomly among them).
        let candidates = self.stage.blocks_of(sb);
        let with_room: Vec<StageSlot> = candidates
            .iter()
            .copied()
            .filter(|s| {
                self.stage
                    .entry(*s)
                    .is_some_and(|e| e.free_slot().is_some())
            })
            .collect();
        if !with_room.is_empty() {
            let pick = self.rng.gen_range(0, with_room.len() as u64) as usize;
            return with_room[pick];
        }
        if !candidates.is_empty() {
            if let Some(lru_cand) = candidates.iter().copied().find(|c| self.stage.is_lru(*c)) {
                self.sub_fifo_evict(at, lru_cand, mem);
                return lru_cand;
            }
            if !self.cfg.two_level_replacement {
                let c = candidates[0];
                self.sub_fifo_evict(at, c, mem);
                return c;
            }
            let victim = self.stage.lru_way(set).expect("set non-empty");
            self.evict_or_commit(at, victim, mem);
            self.stage.allocate(victim, sb);
            return victim;
        }

        // No stage block for this super-block at all.
        if let Some(free) = self.stage.free_way(set) {
            self.stage.allocate(free, sb);
            return free;
        }
        let victim = self.stage.lru_way(set).expect("full set");
        self.evict_or_commit(at, victim, mem);
        self.stage.allocate(victim, sb);
        victim
    }

    /// Moves all of `(off)`'s ranges from `from` to the freshly allocated
    /// `to` (Rule 3 preservation during a block-level replacement).
    fn move_block_ranges(&mut self, at: Cycle, from: StageSlot, to: StageSlot, off: usize) {
        let ranges = self
            .stage
            .entry(from)
            .map(|e| e.ranges_of(off))
            .unwrap_or_default();
        for (slot_idx, r) in ranges {
            match slot_idx {
                Some(i) => {
                    // Data move inside fast memory.
                    let src = self.stage_slot_addr(from, i);
                    self.devices
                        .fast
                        .access(at, src, self.geom.sub_bytes as usize, false);
                    if let Some(e) = self.stage.entry_mut(from) {
                        e.slots[i] = None;
                    }
                    let free = self
                        .stage
                        .entry(to)
                        .and_then(|e| e.free_slot())
                        .expect("fresh entry has room");
                    let dst = self.stage_slot_addr(to, free);
                    self.devices
                        .fast
                        .access(at, dst, self.geom.sub_bytes as usize, true);
                    if let Some(e) = self.stage.entry_mut(to) {
                        e.slots[free] = Some(r);
                    }
                }
                None => {
                    if let Some(e) = self.stage.entry_mut(from) {
                        e.zero_ranges.retain(|zr| zr != &r);
                    }
                    if let Some(e) = self.stage.entry_mut(to) {
                        e.zero_ranges.push(r);
                    }
                }
            }
        }
    }

    /// Evicts the sub-block slot at the FIFO pointer (§III-E): new ranges
    /// are appended sequentially and wrap, so the pointer always names the
    /// next victim (or an already-free slot).
    fn sub_fifo_evict(&mut self, at: Cycle, slot: StageSlot, mem: &mut MemoryContents) {
        let nslots = self.stage.slots_per_block();
        let sb = self.stage.entry(slot).expect("allocated").tag;
        let (idx, victim) = {
            let e = self.stage.entry_mut(slot).expect("allocated");
            let idx = e.fifo as usize % nslots;
            e.fifo = (idx as u8 + 1) % nslots as u8;
            (idx, e.slots[idx])
        };
        let Some(r) = victim else {
            return; // the pointed slot is already free
        };
        self.stage.note_sub_replacement();
        if r.dirty {
            let src = self.stage_slot_addr(slot, idx);
            self.devices
                .fast
                .access(at, src, self.geom.sub_bytes as usize, false);
            let b = sb * self.geom.blocks_per_super + r.blk_off as u64;
            self.write_range_to_slow(at, b, &r, mem);
        }
        if let Some(e) = self.stage.entry_mut(slot) {
            e.slots[idx] = None;
        }
    }

    /// Writes a (dirty) range back to its slow home, compressed if the
    /// optimization is on (§III-F), and records the prefetch hints.
    pub(crate) fn write_range_to_slow(
        &mut self,
        at: Cycle,
        b: u64,
        r: &RangeRef,
        _mem: &MemoryContents,
    ) {
        let addr = self.slow_home_addr(b, r.sub_off as usize);
        if self.cfg.compressed_writeback && r.cf != Cf::X1 {
            self.devices
                .slow
                .access(at, addr, self.geom.sub_bytes as usize, true);
            let m = &mut self.meta[b as usize];
            match r.cf {
                Cf::X2 => m.slow_cf2 |= 1 << (r.sub_off / 2),
                Cf::X4 => m.slow_cf4 |= 1 << (r.sub_off / 4),
                Cf::X1 => unreachable!(),
            }
        } else {
            self.devices.slow.access(
                at,
                addr,
                r.cf.sub_blocks() * self.geom.sub_bytes as usize,
                true,
            );
            // The slow copy is raw now: clear stale hints.
            for s in r.sub_off as usize..r.sub_off as usize + r.cf.sub_blocks() {
                self.clear_slow_hint(b, s);
            }
        }
    }

    /// Block-level stage replacement: decide commit vs. eviction for the
    /// victim entry via the stability-aware cost model (Eq. 1).
    pub(crate) fn evict_or_commit(
        &mut self,
        at: Cycle,
        victim: StageSlot,
        mem: &mut MemoryContents,
    ) {
        let entry = self.stage.evict(victim);
        let sb = entry.tag;
        let blocks: Vec<u64> = {
            let mut offs: Vec<usize> = (0..self.geom.blocks_per_super as usize)
                .filter(|o| entry.has_block(*o))
                .collect();
            offs.sort_unstable();
            offs.iter()
                .map(|o| sb * self.geom.blocks_per_super + *o as u64)
                .collect()
        };

        let commit = if entry.used_slots() == 0 && entry.zero_ranges.is_empty() {
            false
        } else if self.cfg.commit_all {
            true
        } else {
            let set = self.stage.set_of(sb);
            let miss_term = self.stage.mru_miss_cnt(set) as f64 / self.stage.ways() as f64
                - entry.miss_cnt as f64;
            if self.cfg.commit_k.is_infinite() {
                miss_term >= 0.0
            } else {
                let dirty_stage = entry.dirty_subs() as f64;
                let dirty_victim = self.prospective_victim_dirty(sb);
                self.cfg.commit_k * miss_term + (dirty_stage - dirty_victim) >= 0.0
            }
        };

        let committed = if commit {
            self.try_commit(at, &entry, mem)
        } else {
            false
        };
        if !committed {
            self.evict_entry_to_slow(at, &entry, mem);
        }
        self.tracker.on_phase_end(victim, at, committed, &blocks);
    }

    /// True if `sb`'s set has a free physical block (O(1) in the FA pool).
    fn has_free_phys(&self, set: usize) -> bool {
        if self.cfg.is_fully_associative() {
            !self.free_list.is_empty()
        } else {
            self.phys_of_set(set)
                .any(|i| self.phys[i].state == PhysState::Free)
        }
    }

    /// Pops a free physical block of `set`, if any.
    fn take_free_phys(&mut self, set: usize) -> Option<usize> {
        if self.cfg.is_fully_associative() {
            while let Some(i) = self.free_list.pop() {
                if self.phys[i].state == PhysState::Free {
                    return Some(i);
                }
            }
            None
        } else {
            self.phys_of_set(set)
                .find(|i| self.phys[*i].state == PhysState::Free)
        }
    }

    /// Marks a physical block free and returns it to the pool.
    pub(crate) fn release_phys(&mut self, phys: usize) {
        self.phys[phys].state = PhysState::Free;
        if self.cfg.is_fully_associative() {
            self.free_list.push(phys);
        }
    }

    /// Dirty sub-blocks of the prospective cache/flat victim (Eq. 1's
    /// second term): zero if a free physical block exists. In flat mode all
    /// sub-blocks of a victim must be swapped, so all count as dirty.
    fn prospective_victim_dirty(&self, sb: u64) -> f64 {
        let set = self.set_of_super(sb);
        if self.has_free_phys(set) {
            return 0.0;
        }
        let Some(victim) = self.peek_fast_victim(set) else {
            return 0.0;
        };
        match (&self.phys[victim].state, self.is_flat_slot(victim)) {
            (PhysState::Free, _) => 0.0,
            // Flat-partition victims are swapped wholesale (paper: "all are
            // treated as dirty"); originals always move entirely.
            (_, true) | (PhysState::Original, false) => self.geom.subs_per_block() as f64,
            (PhysState::Committed { residents, .. }, false) => residents
                .iter()
                .map(|r| self.meta[*r as usize].dirty_mask.count_ones() as f64)
                .sum(),
        }
    }

    /// The next fast victim of `set` without mutating state, per the
    /// configured policy. The paper's default (`Auto`) uses LRU for
    /// low-associative sets and a FIFO cursor for the fully-associative
    /// pool; LFU/CLOCK/random are noted as orthogonal alternatives.
    fn peek_fast_victim(&self, set: usize) -> Option<usize> {
        use crate::config::VictimPolicy;
        let policy = match self.cfg.victim_policy {
            VictimPolicy::Auto => {
                if self.cfg.is_fully_associative() {
                    VictimPolicy::Fifo
                } else {
                    VictimPolicy::Lru
                }
            }
            p => p,
        };
        let occupied = |i: &usize| self.phys[*i].state != PhysState::Free;
        match policy {
            VictimPolicy::Auto => unreachable!("resolved above"),
            VictimPolicy::Fifo => {
                if self.cfg.is_fully_associative() {
                    let n = self.phys.len();
                    (0..n)
                        .map(|k| (self.fifo_cursor + k) % n)
                        .find(|i| occupied(i))
                } else {
                    self.phys_of_set(set)
                        .filter(occupied)
                        .min_by_key(|i| self.phys[*i].alloc_stamp)
                }
            }
            VictimPolicy::Lru => self
                .phys_of_set(set)
                .filter(occupied)
                .min_by_key(|i| self.phys[*i].stamp),
            VictimPolicy::Random => {
                let candidates: Vec<usize> = self.phys_of_set(set).filter(occupied).collect();
                if candidates.is_empty() {
                    None
                } else {
                    let h = baryon_sim::rng::splitmix64(self.tick) as usize;
                    Some(candidates[h % candidates.len()])
                }
            }
            VictimPolicy::Clock => {
                // Non-mutating approximation for prospective queries: the
                // first unreferenced block in hand order; the real sweep
                // (which clears reference bits) happens in
                // `select_victim`.
                let range: Vec<usize> = self.phys_of_set(set).filter(occupied).collect();
                if range.is_empty() {
                    return None;
                }
                let hand = self.clock_hands[set] % range.len();
                range
                    .iter()
                    .cycle()
                    .skip(hand)
                    .take(range.len())
                    .copied()
                    .find(|i| !self.phys[*i].ref_bit)
                    .or(Some(range[hand]))
            }
            VictimPolicy::Lfu => self
                .phys_of_set(set)
                .filter(occupied)
                .min_by_key(|i| (self.phys[*i].freq, self.phys[*i].stamp)),
        }
    }

    /// Selects (and commits to) the victim of `set`, applying the policy's
    /// state updates: the FIFO cursor advances, the CLOCK hand sweeps and
    /// clears reference bits, and LFU decays its counters.
    fn select_victim(&mut self, set: usize) -> Option<usize> {
        use crate::config::VictimPolicy;
        let policy = match self.cfg.victim_policy {
            VictimPolicy::Auto => {
                if self.cfg.is_fully_associative() {
                    VictimPolicy::Fifo
                } else {
                    VictimPolicy::Lru
                }
            }
            p => p,
        };
        match policy {
            VictimPolicy::Clock => {
                let range: Vec<usize> = self
                    .phys_of_set(set)
                    .filter(|i| self.phys[*i].state != PhysState::Free)
                    .collect();
                if range.is_empty() {
                    return None;
                }
                let mut hand = self.clock_hands[set] % range.len();
                // Two full sweeps guarantee an unreferenced block appears.
                for _ in 0..2 * range.len() {
                    let i = range[hand];
                    hand = (hand + 1) % range.len();
                    if self.phys[i].ref_bit {
                        self.phys[i].ref_bit = false;
                    } else {
                        self.clock_hands[set] = hand;
                        return Some(i);
                    }
                }
                self.clock_hands[set] = hand;
                Some(range[hand])
            }
            VictimPolicy::Lfu => {
                let victim = self.peek_fast_victim(set);
                // Periodic decay keeps the counters adaptive.
                for i in self.phys_of_set(set) {
                    self.phys[i].freq >>= 1;
                }
                victim
            }
            _ => {
                let victim = self.peek_fast_victim(set)?;
                if self.cfg.is_fully_associative() {
                    self.fifo_cursor = (victim + 1) % self.phys.len();
                }
                Some(victim)
            }
        }
    }

    /// Acquires a physical block in `sb`'s set, evicting/swapping the
    /// current occupant. Returns `None` when a flat-mode swap is impossible
    /// (not enough freed slow slots, §III-F), in which case nothing changed.
    fn acquire_phys(
        &mut self,
        at: Cycle,
        sb: u64,
        freed_slow_subs: usize,
        mem: &mut MemoryContents,
    ) -> Option<usize> {
        let set = self.set_of_super(sb);
        if let Some(free) = self.take_free_phys(set) {
            return Some(free);
        }
        let victim = self.select_victim(set)?;
        match self.phys[victim].state.clone() {
            PhysState::Free => unreachable!("handled above"),
            PhysState::Original => {
                // Flat spread-swap: the original block's content goes into
                // the slow sub-block slots freed by the incoming commit.
                if freed_slow_subs < self.geom.subs_per_block() {
                    return None;
                }
                self.counters.spread_swaps += 1;
                let block_bytes = self.geom.block_bytes as usize;
                self.devices.fast.access(
                    at,
                    self.data_base + victim as u64 * self.geom.block_bytes,
                    block_bytes,
                    false,
                );
                self.devices.slow.access(
                    at,
                    self.displaced_slow_addr(victim as u64, 0),
                    block_bytes,
                    true,
                );
                self.meta[victim].displaced = true;
                Some(victim)
            }
            PhysState::Committed { sb: sb2, residents } => {
                if !self.is_flat_slot(victim) {
                    // Cache-partition slot: ordinary eviction.
                    for r in residents {
                        self.evict_committed_resident(at, r, victim, mem);
                    }
                    self.remap.record_update(at, sb2, &mut self.devices.fast);
                    Some(victim)
                } else {
                    {
                        // Three-way slow swap (§III-F): relocate the
                        // displaced original into the NEW commit's freed
                        // slots, then return the old residents to their
                        // (just vacated) homes.
                        if freed_slow_subs < self.geom.subs_per_block() {
                            return None;
                        }
                        self.counters.three_way_swaps += 1;
                        let block_bytes = self.geom.block_bytes as usize;
                        let z = victim as u64;
                        self.devices.slow.access(
                            at,
                            self.displaced_slow_addr(z, 0),
                            block_bytes,
                            false,
                        );
                        self.devices.slow.access(
                            at,
                            self.displaced_slow_addr(z, 1024),
                            block_bytes,
                            true,
                        );
                        for r in residents {
                            self.evict_committed_resident(at, r, victim, mem);
                        }
                        self.remap.record_update(at, sb2, &mut self.devices.fast);
                        Some(victim)
                    }
                }
            }
        }
    }

    /// Writes one committed resident's data back to its slow home and
    /// clears its remap entry. In flat mode everything is swapped (all
    /// sub-blocks written); in cache mode only dirty ranges are.
    fn evict_committed_resident(&mut self, at: Cycle, b: u64, phys: usize, mem: &MemoryContents) {
        let entry = self.remap.entry(b);
        if entry.is_empty() {
            return;
        }
        let dirty_mask = self.meta[b as usize].dirty_mask;
        let force_all = self.is_flat_slot(phys);
        // One fast-memory read of the block's occupied slots if anything
        // needs writing back (Z entries hold no data).
        let needs_data = !entry.zero && (force_all || dirty_mask != 0);
        if needs_data && entry.slots_used() > 0 {
            let addr = self.data_slot_addr(phys, 0);
            self.devices.fast.access(
                at,
                addr,
                entry.slots_used() * self.geom.sub_bytes as usize,
                false,
            );
        }
        let mut sub = 0;
        while sub < self.geom.subs_per_block() {
            match entry.range_of(sub) {
                Some((start, cf)) => {
                    let r = RangeRef {
                        blk_off: self.geom.blk_off(b) as u8,
                        sub_off: start as u8,
                        cf,
                        dirty: true,
                    };
                    let range_dirty = dirty_mask & range_mask(&r) != 0;
                    if !entry.zero && (force_all || range_dirty) {
                        self.write_range_to_slow(at, b, &r, mem);
                    }
                    sub = start + cf.sub_blocks();
                }
                None => sub += 1,
            }
        }
        self.remap.invalidate(b);
        self.meta[b as usize].dirty_mask = 0;
        self.tracker.on_evict_committed(b);
    }

    /// Commits a stage entry into the cache/flat area (§III-E). Returns
    /// false if a flat-mode swap was impossible.
    fn try_commit(
        &mut self,
        at: Cycle,
        entry: &crate::metadata::StageEntry,
        mem: &mut MemoryContents,
    ) -> bool {
        let sb = entry.tag;
        // Gather all ranges per block, sorted (Rule 4's fixed sorted layout).
        let mut per_block: BlockRanges = Vec::new();
        for off in 0..self.geom.blocks_per_super as usize {
            let ranges = entry.ranges_of(off);
            if !ranges.is_empty() {
                per_block.push((off, ranges));
            }
        }
        if per_block.is_empty() {
            return false;
        }
        let freed_slow_subs: usize = per_block
            .iter()
            .flat_map(|(_, rs)| rs.iter())
            .map(|(_, r)| r.cf.sub_blocks())
            .sum();
        let Some(target) = self.acquire_phys(at, sb, freed_slow_subs, mem) else {
            self.counters.commit_aborts += 1;
            return false;
        };

        let mut residents = Vec::new();
        // Real (non-zero) ranges are guaranteed slots (a stage entry holds
        // at most one physical block's worth); zero materialization only
        // uses whatever room is left.
        let nonzero_total: usize = per_block
            .iter()
            .flat_map(|(_, rs)| rs.iter())
            .filter(|(slot, _)| slot.is_some())
            .count();
        let mut zero_budget = self.geom.subs_per_block().saturating_sub(nonzero_total);
        let mut stage_bytes_moved = 0usize;
        let mut zero_bytes_written = 0usize;
        for (off, mut ranges) in per_block {
            let b = sb * self.geom.blocks_per_super + off as u64;
            debug_assert!(self.remap.entry(b).is_empty(), "block staged and committed");
            ranges.sort_by_key(|(_, r)| r.sub_off);
            let all_zero = ranges.iter().all(|(slot, _)| slot.is_none());
            let mut re = RemapEntry::empty();
            let mut dirty = 0u32;
            if all_zero {
                // Whole-block zero: the Z remap encoding, no data slots.
                for (_, r) in &ranges {
                    re.set_range(r.sub_off as usize, r.cf);
                }
                re.zero = true;
            } else {
                for (slot, r) in &ranges {
                    match slot {
                        None => {
                            // A zero range inside a mixed block: the compact
                            // remap format cannot mark it Z, so materialize
                            // literal zero data into a slot while the
                            // physical block has room (dropping it instead
                            // would turn every later access into a case-4
                            // bypass).
                            if zero_budget > 0 {
                                re.set_range(r.sub_off as usize, r.cf);
                                zero_budget -= 1;
                                zero_bytes_written += self.geom.sub_bytes as usize;
                            }
                        }
                        Some(_) => {
                            re.set_range(r.sub_off as usize, r.cf);
                            if r.dirty {
                                dirty |= range_mask(r);
                            }
                            stage_bytes_moved += self.geom.sub_bytes as usize;
                        }
                    }
                }
            }
            let full_mask = (1u32 << self.geom.subs_per_block()) - 1;
            if re.remap == full_mask {
                self.counters.dbg_commit_full += 1;
            } else {
                self.counters.dbg_commit_partial += 1;
                self.counters.dbg_commit_missing_subs +=
                    (full_mask & !re.remap).count_ones() as u64;
            }
            re.pointer = self.pointer_of_phys(sb, target);
            self.remap.set_entry(b, re);
            self.meta[b as usize].dirty_mask = dirty;
            // Committed data supersedes any slow-copy hints.
            self.meta[b as usize].slow_cf2 = 0;
            self.meta[b as usize].slow_cf4 = 0;
            residents.push(b);
        }
        if zero_bytes_written > 0 {
            self.devices.fast.access(
                at,
                self.data_base + target as u64 * self.geom.block_bytes,
                zero_bytes_written,
                true,
            );
        }
        if stage_bytes_moved > 0 {
            // Move data stage -> data area (both in fast memory).
            self.devices.fast.access(at, 0, stage_bytes_moved, false);
            self.devices.fast.access(
                at,
                self.data_base + target as u64 * self.geom.block_bytes,
                stage_bytes_moved,
                true,
            );
        }
        self.remap.record_update(at, sb, &mut self.devices.fast);
        self.phys[target].state = PhysState::Committed { sb, residents };
        self.touch_phys(target);
        self.stamp_alloc(target);
        self.counters.commits += 1;
        true
    }

    /// Puts a stage entry's dirty data back to slow memory (non-commit path).
    fn evict_entry_to_slow(
        &mut self,
        at: Cycle,
        entry: &crate::metadata::StageEntry,
        mem: &MemoryContents,
    ) {
        let sb = entry.tag;
        self.counters.stage_evictions += 1;
        for (i, slot) in entry.slots.iter().enumerate() {
            if let Some(r) = slot {
                if r.dirty {
                    let b = sb * self.geom.blocks_per_super + r.blk_off as u64;
                    // Read from the stage block, write to slow.
                    let _ = i;
                    self.devices
                        .fast
                        .access(at, 0, self.geom.sub_bytes as usize, false);
                    self.write_range_to_slow(at, b, r, mem);
                }
            }
        }
        debug_assert!(
            entry.zero_ranges.iter().all(|r| !r.dirty),
            "dirty zero ranges must have been materialized"
        );
    }

    /// Evicts a committed data block after a write overflow (§III-D case 2).
    /// Cache mode: the block leaves and later residents are compacted.
    /// Flat mode: the whole physical block is restored to its original.
    pub(crate) fn evict_committed_block(&mut self, at: Cycle, b: u64, mem: &mut MemoryContents) {
        let sb = self.geom.super_of_block(b);
        let entry = self.remap.entry(b);
        if entry.is_empty() {
            return;
        }
        let phys = self.phys_of_pointer(sb, entry.pointer);
        match self.is_flat_slot(phys) {
            false => {
                let evicted_slots = entry.slots_used();
                self.evict_committed_resident(at, b, phys, mem);
                // Compact later residents sharing the physical block: the
                // sorted dense layout (Rule 4) shifts their data down.
                let remaining: Vec<u64> = match &self.phys[phys].state {
                    PhysState::Committed { residents, .. } => {
                        residents.iter().copied().filter(|r| *r != b).collect()
                    }
                    _ => Vec::new(),
                };
                let moved_slots: usize = remaining
                    .iter()
                    .filter(|r| **r > b)
                    .map(|r| self.remap.entry(*r).slots_used())
                    .sum();
                if moved_slots > 0 && evicted_slots > 0 {
                    let bytes = moved_slots * self.geom.sub_bytes as usize;
                    let base = self.data_base + phys as u64 * self.geom.block_bytes;
                    self.devices.fast.access(at, base, bytes, false);
                    self.devices.fast.access(at, base, bytes, true);
                }
                if remaining.is_empty() {
                    self.release_phys(phys);
                } else if let PhysState::Committed { residents, .. } = &mut self.phys[phys].state {
                    *residents = remaining;
                }
                self.remap.record_update(at, sb, &mut self.devices.fast);
            }
            true => self.restore_phys(at, phys, mem),
        }
    }

    /// Flat mode: dissolves a committed physical block, returning the
    /// displaced original to its identity location and all residents to
    /// their slow homes.
    pub(crate) fn restore_phys(&mut self, at: Cycle, phys: usize, mem: &mut MemoryContents) {
        let PhysState::Committed { sb, residents } = self.phys[phys].state.clone() else {
            return;
        };
        let block_bytes = self.geom.block_bytes as usize;
        let z = phys as u64;
        // Move the displaced original back home (slow -> fast).
        self.devices
            .slow
            .access(at, self.displaced_slow_addr(z, 0), block_bytes, false);
        self.devices.fast.access(
            at,
            self.data_base + z * self.geom.block_bytes,
            block_bytes,
            true,
        );
        self.meta[phys].displaced = false;
        for r in residents {
            self.evict_committed_resident(at, r, phys, mem);
        }
        self.remap.record_update(at, sb, &mut self.devices.fast);
        self.phys[phys].state = PhysState::Original;
    }

    /// The no-stage-area ablation (Fig 13(c)): fetched ranges are inserted
    /// straight into the committed area, re-sorting the block layout on
    /// every insertion.
    pub(crate) fn direct_fill(&mut self, at: Cycle, b: u64, sub: usize, mem: &mut MemoryContents) {
        let sb = self.geom.super_of_block(b);
        let mut entry = self.remap.entry(b);
        if entry.has_sub(sub) {
            return;
        }
        if entry.zero {
            // A Z entry cannot be extended in place: evict it first.
            self.evict_committed_block(at, b, mem);
            entry = self.remap.entry(b);
        }
        let (start, cf, compressed_src) = self.choose_range(b, sub, entry.remap, mem);
        // Fetch from slow.
        let bytes = if compressed_src {
            self.geom.sub_bytes as usize
        } else {
            cf.sub_blocks() * self.geom.sub_bytes as usize
        };
        if bytes > 64 {
            self.devices
                .slow
                .access(at, self.slow_home_addr(b, start), bytes - 64, false);
        }

        // Find the physical block: the block's existing pointer, another
        // committed block of the super-block with room, or a new one.
        let target = if !entry.is_empty() {
            Some(self.phys_of_pointer(sb, entry.pointer))
        } else {
            let set = self.set_of_super(sb);
            self.phys_of_set(set).find(|i| {
                matches!(&self.phys[*i].state, PhysState::Committed { sb: s, .. } if *s == sb)
                    && self.phys_has_room(*i, 1)
            })
        };
        let target = match target {
            Some(t) if self.phys_has_room(t, 1) => t,
            Some(_) => return, // committed block is full: keep bypassing
            None => match self.acquire_phys(at, sb, cf.sub_blocks(), mem) {
                Some(t) => t,
                None => return,
            },
        };

        // Update the remap entry and charge the re-sort.
        let mut re = self.remap.entry(b);
        re.set_range(start, cf);
        re.zero = false;
        re.pointer = self.pointer_of_phys(sb, target);
        self.remap.set_entry(b, re);
        match &mut self.phys[target].state {
            PhysState::Committed { residents, .. } => {
                if !residents.contains(&b) {
                    residents.push(b);
                    residents.sort_unstable();
                }
            }
            state => {
                *state = PhysState::Committed {
                    sb,
                    residents: vec![b],
                };
            }
        }
        self.touch_phys(target);
        self.stamp_alloc(target);
        self.counters.cf_subs += cf.sub_blocks() as u64;
        self.counters.cf_slots += 1;
        // Re-sort: rewrite the occupied portion of the physical block.
        let used: usize = match &self.phys[target].state {
            PhysState::Committed { residents, .. } => residents
                .iter()
                .map(|r| self.remap.entry(*r).slots_used())
                .sum(),
            _ => 0,
        };
        let bytes = used * self.geom.sub_bytes as usize;
        if bytes > 0 {
            let base = self.data_base + target as u64 * self.geom.block_bytes;
            self.devices.fast.access(at, base, bytes, false);
            self.devices.fast.access(at, base, bytes, true);
        }
        self.remap.record_update(at, sb, &mut self.devices.fast);
    }

    /// Does the physical block have room for `extra` more sub-block slots?
    fn phys_has_room(&self, phys: usize, extra: usize) -> bool {
        match &self.phys[phys].state {
            PhysState::Committed { residents, .. } => {
                let used: usize = residents
                    .iter()
                    .map(|r| self.remap.entry(*r).slots_used())
                    .sum();
                used + extra <= self.geom.subs_per_block()
            }
            PhysState::Free => true,
            PhysState::Original => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BaryonConfig;
    use crate::controller::BaryonController;
    use crate::ctrl::MemoryController;
    use baryon_workloads::{MemoryContents, ProfileMix, Scale, ValueProfile};

    fn ctrl() -> BaryonController {
        BaryonController::new(BaryonConfig::default_cache_mode(Scale { divisor: 2048 }))
    }

    fn mem(profile: ValueProfile) -> MemoryContents {
        MemoryContents::new(ProfileMix::pure(profile), 7)
    }

    #[test]
    fn choose_range_prefers_widest_compressible() {
        let mut c = ctrl();
        let m = mem(ValueProfile::Zero);
        let (start, cf, compressed) = c.choose_range(5, 2, 0, &m);
        assert_eq!(
            (start, cf),
            (0, Cf::X4),
            "zeros compress at CF4 from the window base"
        );
        assert!(!compressed, "no slow-copy hint yet");
    }

    #[test]
    fn choose_range_shrinks_on_overlap() {
        let mut c = ctrl();
        let m = mem(ValueProfile::Zero);
        // Sub 1 already staged: a CF4 range over 0..4 would overlap, and so
        // would the 0..2 half; the fetch shrinks to just sub 2... which is
        // demanded. CF4 -> CF2 (half 2..4) is overlap-free though.
        let (start, cf, _) = c.choose_range(5, 2, 0b0010, &m);
        assert_eq!((start, cf), (2, Cf::X2));
        // Everything but sub 2 staged: only the single sub remains.
        let (start, cf, _) = c.choose_range(5, 2, 0b1111_1011, &m);
        assert_eq!((start, cf), (2, Cf::X1));
    }

    #[test]
    fn choose_range_uses_hints_and_skips_trials() {
        let mut c = ctrl();
        c.meta[5].slow_cf4 = 0b01; // subs 0..4 stored compressed in slow
        let m = mem(ValueProfile::Zero);
        let (start, cf, compressed) = c.choose_range(5, 1, 0, &m);
        assert_eq!((start, cf), (0, Cf::X4));
        assert!(compressed, "the hint marks a compressed slow copy");
    }

    #[test]
    fn degraded_blocks_fill_uncompressed() {
        let mut c = ctrl();
        let m = mem(ValueProfile::Zero);
        let (_, cf, _) = c.choose_range(5, 2, 0, &m);
        assert_eq!(cf, Cf::X4, "healthy zeros compress");
        c.meta[5].degraded = true;
        let (start, cf, compressed) = c.choose_range(5, 2, 0, &m);
        assert_eq!((start, cf, compressed), (2, Cf::X1, false));
        assert_eq!(c.best_cf_for_group(5, 0, 0xFF, &m), Cf::X1);
    }

    #[test]
    fn best_cf_for_group_respects_mask_and_content() {
        let mut c = ctrl();
        let zeros = mem(ValueProfile::Zero);
        // Full mask: zeros group at CF4.
        assert_eq!(c.best_cf_for_group(9, 0, 0xFF, &zeros), Cf::X4);
        // Mask missing sub 3: the quad is incomplete, the pair 0-1 works.
        assert_eq!(c.best_cf_for_group(9, 0, 0b0111, &zeros), Cf::X2);
        // Random data never groups.
        let rnd = mem(ValueProfile::Random);
        assert_eq!(c.best_cf_for_group(9, 0, 0xFF, &rnd), Cf::X1);
    }

    #[test]
    fn restage_covers_whole_mask() {
        let mut c = ctrl();
        let mut m = mem(ValueProfile::NarrowInt);
        c.restage_subs(0, 7, 0b0011_1100, false, &mut m);
        let sb = c.geom.super_of_block(7);
        let off = c.geom.blk_off(7);
        let staged = c
            .stage
            .block_home(sb, off)
            .and_then(|s| c.stage.entry(s).map(|e| e.sub_mask_of(off)))
            .unwrap_or(0);
        assert_eq!(staged, 0b0011_1100, "every masked sub must be staged");
    }

    #[test]
    fn release_phys_returns_to_free_list() {
        let mut c = BaryonController::new(BaryonConfig {
            assoc: usize::MAX,
            ..BaryonConfig::default_cache_mode(Scale { divisor: 2048 })
        });
        let before = c.free_list.len();
        let slot = c.free_list[before - 1];
        let taken = c.take_free_phys(0).expect("free pool");
        assert_eq!(taken, slot);
        assert_eq!(c.free_list.len(), before - 1);
        c.release_phys(taken);
        assert_eq!(c.free_list.len(), before);
    }

    #[test]
    fn write_range_to_slow_sets_hints_only_when_compressed() {
        let mut c = ctrl();
        let m = mem(ValueProfile::NarrowInt);
        let r2 = RangeRef {
            blk_off: 0,
            sub_off: 2,
            cf: Cf::X2,
            dirty: true,
        };
        c.write_range_to_slow(0, 3, &r2, &m);
        assert_eq!(c.meta[3].slow_cf2, 0b0010);
        // A CF1 writeback is raw and clears overlapping hints.
        let r1 = RangeRef {
            blk_off: 0,
            sub_off: 2,
            cf: Cf::X1,
            dirty: true,
        };
        c.write_range_to_slow(100, 3, &r1, &m);
        assert_eq!(c.meta[3].slow_cf2, 0, "raw write invalidates the hint");
    }

    #[test]
    fn direct_fill_grows_committed_blocks() {
        let mut cfg = BaryonConfig::default_cache_mode(Scale { divisor: 2048 });
        cfg.stage_bytes = 0; // the no-stage ablation uses direct fills
        let mut c = BaryonController::new(cfg);
        let mut m = mem(ValueProfile::NarrowInt);
        c.direct_fill(0, 11, 0, &mut m);
        let e0 = c.remap.entry(11);
        assert!(e0.has_sub(0), "first fill commits the range");
        c.direct_fill(1_000, 11, 6, &mut m);
        let e1 = c.remap.entry(11);
        assert!(
            e1.has_sub(6),
            "later fills extend the entry (with a re-sort)"
        );
        assert!(e1.remap.count_ones() > e0.remap.count_ones());
    }

    #[test]
    fn evict_committed_block_clears_remap_and_frees_phys() {
        let mut cfg = BaryonConfig::default_cache_mode(Scale { divisor: 2048 });
        cfg.stage_bytes = 0;
        let mut c = BaryonController::new(cfg);
        let mut m = mem(ValueProfile::NarrowInt);
        c.direct_fill(0, 11, 0, &mut m);
        assert!(!c.remap.entry(11).is_empty());
        c.evict_committed_block(10_000, 11, &mut m);
        assert!(c.remap.entry(11).is_empty());
        // The block serves from slow again.
        let r = c.read(
            20_000,
            crate::ctrl::Request {
                addr: 11 * 2048,
                core: 0,
            },
            &mut m,
        );
        assert!(!r.served_by_fast);
    }
}
