//! The Baryon memory controller (§III).
//!
//! State is split between the *architectural* metadata structures — the
//! [`StageArea`](crate::stage::StageArea) tag array and the
//! [`RemapStore`](crate::remap::RemapStore) — and the *functional* residency
//! bookkeeping (`PhysBlock`, `BlockMeta`) a real machine would carry in the
//! data itself. The access flow implements the five cases of Fig 6; the
//! replacement/commit policies implement §III-E; flat-mode spread-swap and
//! three-way slow swap implement §III-F.

mod fill;
mod memo;
pub mod phase;
mod serve;

use crate::addr::Geometry;
use crate::config::BaryonConfig;
use crate::config::RemapKind;
use crate::ctrl::{Devices, ServeCounter};
use crate::remap::{MultiLevelRemap, RemapStore, RemapStoreImpl, RemapTable};
use crate::stage::StageArea;
use baryon_compress::RangeCompressor;
use baryon_sim::rng::SimRng;
use baryon_sim::wire::{Reader, WireError, Writer};
use baryon_sim::Cycle;
use phase::PhaseTracker;

/// State of one fast-memory data-area physical block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum PhysState {
    /// Unused (cache mode before warm-up).
    Free,
    /// Flat mode: the identity OS block resides here uncompressed.
    Original,
    /// Holds committed compressed data of one super-block.
    Committed {
        /// The super-block (Rule 1).
        sb: u64,
        /// Data blocks whose remap entries point here, in block order.
        residents: Vec<u64>,
    },
}

#[derive(Debug, Clone)]
pub(crate) struct PhysBlock {
    pub(crate) state: PhysState,
    /// LRU stamp (refreshed on every touch).
    pub(crate) stamp: u64,
    /// Allocation stamp (set when the block is (re)filled; FIFO order).
    pub(crate) alloc_stamp: u64,
    /// CLOCK reference bit (set on touch, cleared by the sweeping hand).
    pub(crate) ref_bit: bool,
    /// Decayed access count (LFU).
    pub(crate) freq: u32,
}

/// Per-OS-block functional metadata.
#[derive(Debug, Clone, Default)]
pub(crate) struct BlockMeta {
    /// Sub-blocks dirty in fast memory (committed state).
    pub(crate) dirty_mask: u32,
    /// Slow-copy compression hints from compressed writeback (§III-F):
    /// CF2 pair mask and CF4 quad mask of ranges stored compressed in slow.
    pub(crate) slow_cf2: u32,
    pub(crate) slow_cf4: u32,
    /// Flat mode: this identity-fast block's content is spread into slow.
    pub(crate) displaced: bool,
    /// Degraded mode (fault recovery): a stuck fast cell was found under
    /// this block's data, so future fills avoid compression (CF1 only) and
    /// keep the layout trivially re-fetchable from the slow copy.
    pub(crate) degraded: bool,
}

/// Event counters of the Baryon access flow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BaryonCounters {
    /// Case 1: staged, sub-block hit.
    pub case1_stage_hits: u64,
    /// Case 2: committed, sub-block hit.
    pub case2_commit_hits: u64,
    /// Case 3: staged block, sub-block miss.
    pub case3_stage_misses: u64,
    /// Case 4: committed block, sub-block miss (bypass to slow).
    pub case4_bypasses: u64,
    /// Case 5: block miss.
    pub case5_block_misses: u64,
    /// Reads served with no data movement thanks to the Z encoding.
    pub zero_serves: u64,
    /// Write overflows inside the stage area (range re-inserted).
    pub stage_overflows: u64,
    /// Write overflows on committed blocks (block evicted).
    pub committed_overflows: u64,
    /// Stage blocks committed into the cache/flat area.
    pub commits: u64,
    /// Stage blocks evicted back to slow memory.
    pub stage_evictions: u64,
    /// Flat-mode commits aborted for lack of freed slow slots.
    pub commit_aborts: u64,
    /// Flat-mode spread swaps (original block spread into slow).
    pub spread_swaps: u64,
    /// Flat-mode three-way slow swaps.
    pub three_way_swaps: u64,
    /// Accesses served from flat-mode original fast blocks.
    pub flat_original_hits: u64,
    /// Accesses to displaced (spread) blocks.
    pub displaced_accesses: u64,
    /// Decompressions on the critical path.
    pub decompressions: u64,
    /// Sub-blocks covered by staged ranges (CF statistics).
    pub cf_subs: u64,
    /// Physical slots used by staged ranges (CF statistics).
    pub cf_slots: u64,
    /// Debug: case-4 bypasses landing in a post-commit window.
    pub dbg_case4_in_cwindow: u64,
    /// Debug: writeback misses landing in a post-commit window.
    pub dbg_wbmiss_in_cwindow: u64,
    /// Debug: blocks committed with a full sub-block footprint.
    pub dbg_commit_full: u64,
    /// Debug: blocks committed with a partial footprint.
    pub dbg_commit_partial: u64,
    /// Debug: sub-blocks missing from partial commits.
    pub dbg_commit_missing_subs: u64,
    /// Integrity faults detected on checked read paths.
    pub faults_detected: u64,
    /// Faults corrected by a clean retry (transient transfer errors).
    pub faults_corrected: u64,
    /// Faults recovered by re-fetching the slow copy and poisoning the
    /// fast copy; the block enters degraded (uncompressed-fill) mode.
    pub faults_degraded: u64,
    /// Faults with no clean copy anywhere (dirty fast data over a stuck
    /// cell, or a stuck slow home).
    pub faults_unrecoverable: u64,
    /// Metadata-scrub passes completed.
    pub scrub_passes: u64,
    /// Inconsistencies repaired by scrub passes (0 in a healthy run).
    pub scrub_repairs: u64,
}

impl BaryonCounters {
    /// Average achieved compression factor (sub-blocks per slot; zero
    /// ranges contribute coverage at no slot cost).
    pub fn avg_cf(&self) -> f64 {
        if self.cf_slots == 0 {
            1.0
        } else {
            self.cf_subs as f64 / self.cf_slots as f64
        }
    }
}

/// The Baryon hybrid-memory controller.
///
/// See the crate docs for a usage example; normally constructed through
/// [`crate::system::SystemConfig`].
#[derive(Debug)]
pub struct BaryonController {
    pub(crate) cfg: BaryonConfig,
    pub(crate) geom: Geometry,
    pub(crate) rc: RangeCompressor,
    pub(crate) devices: Devices,
    pub(crate) remap: RemapStoreImpl,
    pub(crate) stage: StageArea,
    pub(crate) phys: Vec<PhysBlock>,
    pub(crate) meta: Vec<BlockMeta>,
    pub(crate) serve: ServeCounter,
    pub(crate) counters: BaryonCounters,
    pub(crate) tracker: PhaseTracker,
    pub(crate) rng: SimRng,
    pub(crate) tick: u64,
    /// Rotating victim cursor for the fully-associative pool.
    pub(crate) fifo_cursor: usize,
    /// CLOCK hands, one per cache/flat set.
    pub(crate) clock_hands: Vec<usize>,
    /// Free data-area physical blocks (kept exact; avoids pool scans).
    pub(crate) free_list: Vec<usize>,
    /// Device-address base of the data area inside fast memory.
    pub(crate) data_base: u64,
    /// Flat mode: number of OS blocks resident in the fast flat area.
    pub(crate) flat_blocks: u64,
    /// Demand reads since the last metadata-scrub pass.
    pub(crate) reads_since_scrub: u64,
    /// Version-keyed cache of compression verdicts (pure memo: never
    /// serialized, cannot change behaviour — see [`memo::CompressMemo`]).
    pub(crate) memo: memo::CompressMemo,
}

impl BaryonController {
    /// Builds a controller from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: BaryonConfig) -> Self {
        cfg.validate().expect("invalid Baryon configuration");
        let geom = cfg.geometry;
        let mut rc = if cfg.cacheline_aligned {
            RangeCompressor::cacheline_aligned()
        } else {
            RangeCompressor::whole_range()
        }
        .with_sub_bytes(geom.sub_bytes as usize);
        if cfg.use_cpack {
            rc = rc.with_cpack();
        }
        let stage = StageArea::new(
            cfg.stage_sets().max(1),
            cfg.stage_ways,
            geom.subs_per_block(),
            cfg.aging_period,
        );
        let remap_base = cfg.stage_bytes;
        let data_base = cfg.stage_bytes + cfg.remap_reserved_bytes();
        let os_blocks = cfg.os_blocks();
        let remap = match cfg.remap {
            RemapKind::Flat => RemapStoreImpl::Flat(
                RemapTable::new(
                    os_blocks,
                    geom.blocks_per_super as usize,
                    cfg.remap_cache_bytes,
                    cfg.remap_cache_latency,
                    remap_base,
                )
                .with_provisioned_bytes(cfg.remap_table_bytes()),
            ),
            RemapKind::MultiLevel {
                region_blocks,
                hot_bytes,
                hot_latency,
            } => RemapStoreImpl::MultiLevel(MultiLevelRemap::new(
                os_blocks,
                geom.blocks_per_super as usize,
                region_blocks,
                hot_bytes,
                hot_latency,
                remap_base,
            )),
        };
        let flat_blocks = cfg.flat_blocks();
        // Flat slots (indices below flat_blocks) start as identity-mapped
        // originals; cache slots start free.
        let free_list: Vec<usize> = (flat_blocks as usize..cfg.data_blocks()).rev().collect();
        let mut devices = Devices::table1();
        devices.fast.set_fault_injector(cfg.fault_fast);
        devices.slow.set_fault_injector(cfg.fault_slow);
        BaryonController {
            rc,
            geom,
            devices,
            remap,
            stage,
            phys: (0..cfg.data_blocks())
                .map(|i| PhysBlock {
                    state: if (i as u64) < flat_blocks {
                        PhysState::Original
                    } else {
                        PhysState::Free
                    },
                    stamp: 0,
                    alloc_stamp: 0,
                    ref_bit: false,
                    freq: 0,
                })
                .collect(),
            meta: (0..os_blocks).map(|_| BlockMeta::default()).collect(),
            serve: ServeCounter::default(),
            counters: BaryonCounters::default(),
            tracker: PhaseTracker::disabled(),
            rng: SimRng::from_seed(0xBA_17_0A),
            tick: 0,
            fifo_cursor: 0,
            clock_hands: vec![0; cfg.num_sets()],
            free_list,
            data_base,
            flat_blocks,
            reads_since_scrub: 0,
            memo: memo::CompressMemo::new(),
            cfg,
        }
    }

    /// Enables the Fig 3 / Fig 4 stage-phase instrumentation.
    pub fn enable_phase_tracking(&mut self, window: u64, max_phases: usize) {
        self.tracker = PhaseTracker::enabled(window, max_phases);
    }

    /// The phase tracker (Fig 3 / Fig 4 data).
    pub fn phase_tracker(&self) -> &PhaseTracker {
        &self.tracker
    }

    /// Access-flow counters.
    pub fn counters(&self) -> &BaryonCounters {
        &self.counters
    }

    /// The configuration this controller runs.
    pub fn config(&self) -> &BaryonConfig {
        &self.cfg
    }

    /// Remap-cache hit rate (paper: >90%).
    pub fn remap_cache_hit_rate(&self) -> f64 {
        self.remap.cache_hit_rate()
    }

    // ---- geometry / address helpers -------------------------------------

    /// Whether the stage area exists (Fig 13(c) "no stage" ablation).
    pub(crate) fn stage_enabled(&self) -> bool {
        self.cfg.stage_bytes > 0
    }

    /// Cache/flat-area set of a super-block.
    pub(crate) fn set_of_super(&self, sb: u64) -> usize {
        (sb % self.cfg.num_sets() as u64) as usize
    }

    /// The range of physical data blocks belonging to a set.
    pub(crate) fn phys_of_set(&self, set: usize) -> std::ops::Range<usize> {
        if self.cfg.is_fully_associative() {
            0..self.phys.len()
        } else {
            let assoc = self.cfg.assoc;
            set * assoc..(set + 1) * assoc
        }
    }

    /// Physical data block index from a remap pointer.
    pub(crate) fn phys_of_pointer(&self, sb: u64, pointer: u32) -> usize {
        if self.cfg.is_fully_associative() {
            pointer as usize
        } else {
            self.set_of_super(sb) * self.cfg.assoc + pointer as usize
        }
    }

    /// Remap pointer encoding of a physical block for a super-block.
    pub(crate) fn pointer_of_phys(&self, sb: u64, phys: usize) -> u32 {
        if self.cfg.is_fully_associative() {
            phys as u32
        } else {
            (phys - self.set_of_super(sb) * self.cfg.assoc) as u32
        }
    }

    /// Fast device address of slot `slot` in data-area block `phys`.
    pub(crate) fn data_slot_addr(&self, phys: usize, slot: usize) -> u64 {
        self.data_base + phys as u64 * self.geom.block_bytes + slot as u64 * self.geom.sub_bytes
    }

    /// Fast device address of slot `slot` in stage block `(set, way)`.
    pub(crate) fn stage_slot_addr(&self, slot: crate::stage::StageSlot, sub_slot: usize) -> u64 {
        (slot.set * self.stage.ways() + slot.way) as u64 * self.geom.block_bytes
            + sub_slot as u64 * self.geom.sub_bytes
    }

    /// Slow device address of the home of `(block, sub)`.
    ///
    /// In flat/mixed modes only blocks beyond the flat fast area have slow
    /// homes.
    ///
    /// # Panics
    ///
    /// Panics if the block's home is in fast memory.
    pub(crate) fn slow_home_addr(&self, block: u64, sub: usize) -> u64 {
        assert!(block >= self.flat_blocks, "block {block} has a fast home");
        let b = block - self.flat_blocks;
        b * self.geom.block_bytes + sub as u64 * self.geom.sub_bytes
    }

    /// True if `block`'s OS home is in the flat fast area.
    pub(crate) fn has_fast_home(&self, block: u64) -> bool {
        block < self.flat_blocks
    }

    /// True if physical data-area slot `phys` belongs to the OS-visible
    /// flat partition (commits there displace an identity original and
    /// must swap); cache-partition slots evict normally.
    pub(crate) fn is_flat_slot(&self, phys: usize) -> bool {
        (phys as u64) < self.flat_blocks
    }

    /// Marks a physical block most-recently-used.
    pub(crate) fn touch_phys(&mut self, phys: usize) {
        self.tick += 1;
        let p = &mut self.phys[phys];
        p.stamp = self.tick;
        p.ref_bit = true;
        p.freq = p.freq.saturating_add(1);
    }

    /// Records a (re)allocation of a physical block (FIFO ordering).
    pub(crate) fn stamp_alloc(&mut self, phys: usize) {
        self.tick += 1;
        self.phys[phys].alloc_stamp = self.tick;
    }

    /// The slow-copy compression hint for `(block, sub)`: the compressed
    /// range containing `sub`, if the slow copy stores it compressed.
    pub(crate) fn slow_hint(&self, block: u64, sub: usize) -> Option<(usize, baryon_compress::Cf)> {
        let m = &self.meta[block as usize];
        if m.slow_cf4 >> (sub / 4) & 1 == 1 {
            Some((sub / 4 * 4, baryon_compress::Cf::X4))
        } else if m.slow_cf2 >> (sub / 2) & 1 == 1 {
            Some((sub / 2 * 2, baryon_compress::Cf::X2))
        } else {
            None
        }
    }

    /// Clears any slow-copy hint overlapping `sub`.
    pub(crate) fn clear_slow_hint(&mut self, block: u64, sub: usize) {
        let m = &mut self.meta[block as usize];
        m.slow_cf4 &= !(1 << (sub / 4));
        m.slow_cf2 &= !(1 << (sub / 2));
    }

    // ---- fault recovery / metadata scrub --------------------------------

    /// Runs one metadata-scrub pass: audits the remap table against the
    /// physical residency bookkeeping and the stage tag array, repairing
    /// (and counting) every inconsistency found. A healthy controller
    /// repairs nothing — the `scrub_repairs` counter is the chaos suite's
    /// canary for metadata corruption. Returns this pass's repair count.
    ///
    /// Scrubbing streams the resident remap structure out of fast memory
    /// ([`RemapStore::footprint_bytes`] — the full table for the flat
    /// store, root plus live leaves for the multi-level store), so passes
    /// cost device bandwidth; they only run when
    /// [`BaryonConfig::scrub_interval`](crate::config::BaryonConfig) is
    /// non-zero (or when called directly, e.g. from tests).
    pub fn scrub_metadata(&mut self, now: Cycle) -> u64 {
        let mut repairs = 0u64;
        let table_bytes = self.remap.footprint_bytes() as usize;
        if table_bytes > 0 {
            self.devices
                .fast
                .access(now, self.cfg.stage_bytes, table_bytes, false);
        }

        // Every non-empty remap entry must point at a committed physical
        // block that lists it as a resident.
        for b in 0..self.cfg.os_blocks() {
            let entry = self.remap.entry(b);
            if entry.is_empty() {
                continue;
            }
            let sb = self.geom.super_of_block(b);
            let phys = self.phys_of_pointer(sb, entry.pointer);
            let resident = phys < self.phys.len()
                && matches!(
                    &self.phys[phys].state,
                    PhysState::Committed { sb: s, residents } if *s == sb && residents.contains(&b)
                );
            if !resident {
                self.remap.invalidate(b);
                self.meta[b as usize].dirty_mask = 0;
                repairs += 1;
            }
        }

        // Every committed resident must have a remap entry pointing back.
        for phys in 0..self.phys.len() {
            let PhysState::Committed { sb, residents } = self.phys[phys].state.clone() else {
                continue;
            };
            let keep: Vec<u64> = residents
                .iter()
                .copied()
                .filter(|r| {
                    let e = self.remap.entry(*r);
                    !e.is_empty()
                        && self.geom.super_of_block(*r) == sb
                        && self.phys_of_pointer(sb, e.pointer) == phys
                })
                .collect();
            if keep.len() != residents.len() {
                repairs += (residents.len() - keep.len()) as u64;
                if keep.is_empty() {
                    self.release_phys(phys);
                } else if let PhysState::Committed { residents, .. } = &mut self.phys[phys].state {
                    *residents = keep;
                }
            }
        }

        // Stage entries: per-block range masks must be in-bounds and
        // non-overlapping; an entry violating that cannot be trusted.
        let nsubs = self.geom.subs_per_block();
        for slot in self.stage.occupied_slots() {
            let Some(entry) = self.stage.entry(slot) else {
                continue;
            };
            let mut bad = false;
            for off in 0..self.geom.blocks_per_super as usize {
                let mut seen = 0u32;
                for (_, r) in entry.ranges_of(off) {
                    let mask = serve::range_mask(&r);
                    if r.sub_off as usize + r.cf.sub_blocks() > nsubs || seen & mask != 0 {
                        bad = true;
                    }
                    seen |= mask;
                }
            }
            if bad {
                let _ = self.stage.evict(slot);
                repairs += 1;
            }
        }

        self.counters.scrub_passes += 1;
        self.counters.scrub_repairs += repairs;
        repairs
    }

    /// Scrub trigger, charged once per demand read.
    pub(crate) fn maybe_scrub(&mut self, now: Cycle) {
        if self.cfg.scrub_interval == 0 {
            return;
        }
        self.reads_since_scrub += 1;
        if self.reads_since_scrub >= self.cfg.scrub_interval {
            self.reads_since_scrub = 0;
            self.scrub_metadata(now);
        }
    }

    /// Serializes all mutable state for checkpointing. Geometry, config
    /// and the pure range compressor are rebuilt by the constructor;
    /// `data_base`/`flat_blocks` are derived from them.
    ///
    /// The phase tracker is deliberately not serialized (only its enabled
    /// flag, which must be off): checkpointed runs never enable tracking.
    pub fn save_state(&self, w: &mut Writer) {
        self.devices.save_state(w);
        self.remap.save_state(w);
        self.stage.save_state(w);
        w.seq(self.phys.len());
        for p in &self.phys {
            match &p.state {
                PhysState::Free => w.u8(0),
                PhysState::Original => w.u8(1),
                PhysState::Committed { sb, residents } => {
                    w.u8(2);
                    w.u64(*sb);
                    w.seq(residents.len());
                    for r in residents {
                        w.u64(*r);
                    }
                }
            }
            w.u64(p.stamp);
            w.u64(p.alloc_stamp);
            w.bool(p.ref_bit);
            w.u32(p.freq);
        }
        w.seq(self.meta.len());
        for m in &self.meta {
            w.u32(m.dirty_mask);
            w.u32(m.slow_cf2);
            w.u32(m.slow_cf4);
            w.bool(m.displaced);
            w.bool(m.degraded);
        }
        self.serve.save_state(w);
        let c = &self.counters;
        for v in [
            c.case1_stage_hits,
            c.case2_commit_hits,
            c.case3_stage_misses,
            c.case4_bypasses,
            c.case5_block_misses,
            c.zero_serves,
            c.stage_overflows,
            c.committed_overflows,
            c.commits,
            c.stage_evictions,
            c.commit_aborts,
            c.spread_swaps,
            c.three_way_swaps,
            c.flat_original_hits,
            c.displaced_accesses,
            c.decompressions,
            c.cf_subs,
            c.cf_slots,
            c.dbg_case4_in_cwindow,
            c.dbg_wbmiss_in_cwindow,
            c.dbg_commit_full,
            c.dbg_commit_partial,
            c.dbg_commit_missing_subs,
            c.faults_detected,
            c.faults_corrected,
            c.faults_degraded,
            c.faults_unrecoverable,
            c.scrub_passes,
            c.scrub_repairs,
        ] {
            w.u64(v);
        }
        w.bool(self.tracker.is_enabled());
        for s in self.rng.state() {
            w.u64(s);
        }
        w.u64(self.tick);
        w.usize(self.fifo_cursor);
        w.seq(self.clock_hands.len());
        for h in &self.clock_hands {
            w.usize(*h);
        }
        w.seq(self.free_list.len());
        for f in &self.free_list {
            w.usize(*f);
        }
        w.u64(self.reads_since_scrub);
    }

    /// Overlays checkpointed state onto this freshly constructed
    /// controller.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on a truncated payload, a geometry mismatch,
    /// or a checkpoint taken with phase tracking enabled (unsupported).
    pub fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), WireError> {
        self.devices.load_state(r)?;
        self.remap.load_state(r)?;
        self.stage.load_state(r)?;
        let n = r.seq()?;
        if n != self.phys.len() {
            return Err(WireError::BadLength(n as u64));
        }
        for p in &mut self.phys {
            p.state = match r.u8()? {
                0 => PhysState::Free,
                1 => PhysState::Original,
                2 => {
                    let sb = r.u64()?;
                    let residents = (0..r.seq()?).map(|_| r.u64()).collect::<Result<_, _>>()?;
                    PhysState::Committed { sb, residents }
                }
                t => return Err(WireError::BadTag(t)),
            };
            p.stamp = r.u64()?;
            p.alloc_stamp = r.u64()?;
            p.ref_bit = r.bool()?;
            p.freq = r.u32()?;
        }
        let n = r.seq()?;
        if n != self.meta.len() {
            return Err(WireError::BadLength(n as u64));
        }
        for m in &mut self.meta {
            m.dirty_mask = r.u32()?;
            m.slow_cf2 = r.u32()?;
            m.slow_cf4 = r.u32()?;
            m.displaced = r.bool()?;
            m.degraded = r.bool()?;
        }
        self.serve.load_state(r)?;
        let c = &mut self.counters;
        for v in [
            &mut c.case1_stage_hits,
            &mut c.case2_commit_hits,
            &mut c.case3_stage_misses,
            &mut c.case4_bypasses,
            &mut c.case5_block_misses,
            &mut c.zero_serves,
            &mut c.stage_overflows,
            &mut c.committed_overflows,
            &mut c.commits,
            &mut c.stage_evictions,
            &mut c.commit_aborts,
            &mut c.spread_swaps,
            &mut c.three_way_swaps,
            &mut c.flat_original_hits,
            &mut c.displaced_accesses,
            &mut c.decompressions,
            &mut c.cf_subs,
            &mut c.cf_slots,
            &mut c.dbg_case4_in_cwindow,
            &mut c.dbg_wbmiss_in_cwindow,
            &mut c.dbg_commit_full,
            &mut c.dbg_commit_partial,
            &mut c.dbg_commit_missing_subs,
            &mut c.faults_detected,
            &mut c.faults_corrected,
            &mut c.faults_degraded,
            &mut c.faults_unrecoverable,
            &mut c.scrub_passes,
            &mut c.scrub_repairs,
        ] {
            *v = r.u64()?;
        }
        if r.bool()? {
            // Phase tracking carries unserializable analysis state.
            return Err(WireError::BadTag(1));
        }
        let mut rng_state = [0u64; 4];
        for s in &mut rng_state {
            *s = r.u64()?;
        }
        self.rng = SimRng::from_state(rng_state);
        self.tick = r.u64()?;
        self.fifo_cursor = r.usize()?;
        let n = r.seq()?;
        if n != self.clock_hands.len() {
            return Err(WireError::BadLength(n as u64));
        }
        for h in &mut self.clock_hands {
            *h = r.usize()?;
        }
        let n = r.seq()?;
        if n > self.phys.len() {
            return Err(WireError::BadLength(n as u64));
        }
        self.free_list = (0..n).map(|_| r.usize()).collect::<Result<_, _>>()?;
        self.reads_since_scrub = r.u64()?;
        // The memo would stay *correct* across a restore (its keys embed
        // line versions), but a cold start keeps restored runs trivially
        // equivalent to fresh ones.
        self.memo.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctrl::{test_contents, MemoryController, Request};
    use baryon_sim::telemetry::Registry;
    use baryon_workloads::Scale;

    fn small_scale() -> Scale {
        Scale { divisor: 2048 }
    }

    fn controller() -> BaryonController {
        BaryonController::new(BaryonConfig::default_cache_mode(small_scale()))
    }

    #[test]
    fn constructs_with_defaults() {
        let c = controller();
        assert_eq!(c.name(), "baryon");
        assert!(c.stage_enabled());
        assert!(!c.phys.is_empty());
    }

    #[test]
    fn geometry_helpers_consistent() {
        let c = controller();
        let sb = 5u64;
        let set = c.set_of_super(sb);
        let range = c.phys_of_set(set);
        let phys = range.start;
        let ptr = c.pointer_of_phys(sb, phys);
        assert_eq!(c.phys_of_pointer(sb, ptr), phys);
    }

    #[test]
    fn fa_pointer_is_global() {
        let c = BaryonController::new(BaryonConfig::default_flat_fa(small_scale()));
        assert_eq!(c.phys_of_pointer(3, 17), 17);
        assert_eq!(c.pointer_of_phys(9, 17), 17);
    }

    #[test]
    fn flat_mode_initializes_originals() {
        let c = BaryonController::new(BaryonConfig::default_flat_fa(small_scale()));
        assert!(c.phys.iter().all(|p| p.state == PhysState::Original));
        assert!(c.has_fast_home(0));
        assert!(!c.has_fast_home(c.flat_blocks));
    }

    #[test]
    fn cache_mode_slow_home_is_identity() {
        let c = controller();
        assert_eq!(c.slow_home_addr(3, 2), 3 * 2048 + 2 * 256);
    }

    #[test]
    #[should_panic(expected = "fast home")]
    fn flat_slow_home_of_fast_block_panics() {
        let c = BaryonController::new(BaryonConfig::default_flat_fa(small_scale()));
        c.slow_home_addr(0, 0);
    }

    #[test]
    fn first_read_misses_then_hits() {
        let mut c = controller();
        let mut mem = test_contents();
        let r1 = c.read(
            0,
            Request {
                addr: 4096,
                core: 0,
            },
            &mut mem,
        );
        assert!(!r1.served_by_fast, "cold miss goes to slow memory");
        assert_eq!(c.counters().case5_block_misses, 1);
        // After staging, the same sub-block hits in the stage area.
        let r2 = c.read(
            r1.latency + 10_000,
            Request {
                addr: 4096,
                core: 0,
            },
            &mut mem,
        );
        assert!(r2.served_by_fast, "staged data serves from fast");
        assert_eq!(c.counters().case1_stage_hits, 1);
        assert!(r2.latency < r1.latency);
    }

    #[test]
    fn slow_hints_roundtrip() {
        let mut c = controller();
        c.meta[3].slow_cf2 = 0b0010;
        assert_eq!(c.slow_hint(3, 2), Some((2, baryon_compress::Cf::X2)));
        assert_eq!(c.slow_hint(3, 4), None);
        c.clear_slow_hint(3, 3);
        assert_eq!(c.slow_hint(3, 2), None);
    }

    #[test]
    fn export_has_counters() {
        let mut c = controller();
        let mut mem = test_contents();
        c.read(0, Request { addr: 0, core: 0 }, &mut mem);
        let mut s = Registry::new();
        c.export(&mut s);
        assert_eq!(s.counter("case5_block_misses"), 1);
        assert_eq!(s.counter("remap.cache_misses"), 1);
        assert!(s.gauge("avg_cf") >= 1.0);
    }

    #[test]
    fn reset_stats_clears_counts() {
        let mut c = controller();
        let mut mem = test_contents();
        c.read(0, Request { addr: 0, core: 0 }, &mut mem);
        c.reset_stats();
        assert_eq!(c.counters().case5_block_misses, 0);
        assert_eq!(c.serve_stats().reads, 0);
    }
}
