//! The demand access flow (Fig 6): reads and dirty writebacks, behind the
//! controller's [`MemoryController`] interface.

use super::phase::AccessKind;
use super::{BaryonController, BaryonCounters, PhysState};
use crate::config::{HybridMode, RemapKind};
use crate::ctrl::{MemoryController, Request, Response, ServeStats};
use crate::metadata::locate_sub_block;
use crate::metadata::stage_entry::RangeRef;
use crate::remap::RemapStore;
use baryon_compress::{Cf, CACHELINE_BYTES};
use baryon_mem::FaultKind;
use baryon_sim::telemetry::Registry;
use baryon_sim::Cycle;
use baryon_workloads::MemoryContents;

/// Where a fast-memory serve's data lives. Fault recovery needs to know
/// what to poison when the read observes an injected fault.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FastData {
    /// A `Z`-encoded zero range: no device access at all.
    Zero,
    /// A stage-area data slot.
    Stage {
        /// Device address of the slot.
        addr: u64,
        /// The stage entry holding the range.
        slot: crate::stage::StageSlot,
        /// Index of the range in the entry's slot array.
        idx: usize,
    },
    /// A committed data-area slot.
    Committed {
        /// Device address of the slot.
        addr: u64,
    },
}

impl FastData {
    fn addr(&self) -> Option<u64> {
        match self {
            FastData::Zero => None,
            FastData::Stage { addr, .. } | FastData::Committed { addr } => Some(*addr),
        }
    }
}

impl MemoryController for BaryonController {
    fn read(&mut self, now: Cycle, req: Request, mem: &mut MemoryContents) -> Response {
        let line = req.addr & !(CACHELINE_BYTES as u64 - 1);
        let b = self.geom.block_of(line);
        assert!(
            b < self.cfg.os_blocks(),
            "read address {:#x} beyond the OS-physical space",
            req.addr
        );
        let sb = self.geom.super_of_block(b);
        let off = self.geom.blk_off(b);
        let sub = self.geom.sub_of(line);
        let meta_lat = self.cfg.stage_tag_latency;
        self.maybe_scrub(now);

        if self.stage_enabled() {
            let sset = self.stage.set_of(sb);
            self.stage.record_set_access(sset);

            // Case 1: block staged, sub-block hit.
            if let Some((slot, hit)) = self.stage.lookup(sb, off, sub) {
                self.counters.case1_stage_hits += 1;
                self.tracker.classify(b, AccessKind::Hit);
                self.tracker.on_stage_access(slot, b, now, false);
                self.stage.touch(slot);
                let range = self.staged_range_of(slot, off, sub, hit.slot);
                let data = match hit.slot {
                    Some(i) => FastData::Stage {
                        addr: self.stage_slot_addr(slot, i),
                        slot,
                        idx: i,
                    },
                    None => FastData::Zero,
                };
                let (lat, extras) =
                    self.serve_fast_chunk(now + meta_lat, data, b, range, line, mem);
                self.serve.record_read(true);
                self.serve.record_prefetch_lines(extras.len());
                return Response {
                    latency: meta_lat + lat,
                    served_by_fast: true,
                    extra_lines: extras,
                };
            }

            // Case 3: block staged, sub-block miss.
            if let Some(home) = self.stage.block_home(sb, off) {
                self.counters.case3_stage_misses += 1;
                self.tracker.classify(b, AccessKind::Miss);
                self.tracker.on_stage_access(home, b, now, true);
                if let Some(e) = self.stage.entry_mut(home) {
                    e.miss_cnt = e.miss_cnt.saturating_add(1);
                }
                if self.stage.is_mru(home) {
                    self.stage.bump_mru_miss(self.stage.set_of(sb));
                }
                let (lat, extras) = self.slow_demand_read(now + meta_lat, b, sub, line);
                let done = now + meta_lat + lat;
                self.stage_fill(done, b, sub, mem);
                self.serve.record_read(false);
                self.serve.record_prefetch_lines(extras.len());
                return Response {
                    latency: meta_lat + lat,
                    served_by_fast: false,
                    extra_lines: extras,
                };
            }
        }

        // Remap metadata path (stage tag array probed in parallel).
        let remap_lat = self.remap.lookup(now, sb, &mut self.devices.fast);
        let entry = self.remap.entry(b);
        let meta_lat = meta_lat.max(remap_lat);

        if !entry.is_empty() {
            if entry.has_sub(sub) {
                // Case 2: committed, sub-block hit.
                self.counters.case2_commit_hits += 1;
                self.tracker.classify(b, AccessKind::Hit);
                let phys = self.phys_of_pointer(sb, entry.pointer);
                self.touch_phys(phys);
                let (start, cf) = entry.range_of(sub).expect("has_sub");
                let range = RangeRef {
                    blk_off: off as u8,
                    sub_off: start as u8,
                    cf,
                    dirty: false,
                };
                let data = if entry.zero {
                    FastData::Zero
                } else {
                    let slot = locate_sub_block(self.remap.super_entries(sb), off, start)
                        .expect("remapped sub must locate");
                    FastData::Committed {
                        addr: self.data_slot_addr(phys, slot),
                    }
                };
                let (lat, extras) =
                    self.serve_fast_chunk(now + meta_lat, data, b, range, line, mem);
                self.serve.record_read(true);
                self.serve.record_prefetch_lines(extras.len());
                return Response {
                    latency: meta_lat + lat,
                    served_by_fast: true,
                    extra_lines: extras,
                };
            }
            // Case 4: committed block, absent sub-block: bypass to slow
            // (Rule 3 forbids staging it; Rule 4 forbids extending).
            self.counters.case4_bypasses += 1;
            if self.tracker.in_committed_window(b) {
                self.counters.dbg_case4_in_cwindow += 1;
            }
            self.tracker.classify(b, AccessKind::Miss);
            let (lat, extras) = self.slow_demand_read(now + meta_lat, b, sub, line);
            if !self.stage_enabled() {
                // No-stage ablation: insertions go directly into the
                // committed area, paying the re-sort cost.
                let done = now + meta_lat + lat;
                self.direct_fill(done, b, sub, mem);
            }
            self.serve.record_read(false);
            self.serve.record_prefetch_lines(extras.len());
            return Response {
                latency: meta_lat + lat,
                served_by_fast: false,
                extra_lines: extras,
            };
        }

        // Flat mode: original or displaced fast-home blocks.
        if self.has_fast_home(b) {
            if matches!(self.phys[b as usize].state, PhysState::Original) {
                self.counters.flat_original_hits += 1;
                self.touch_phys(b as usize);
                let addr = self.data_base + line;
                let done = self.devices.fast.access(now + meta_lat, addr, 64, false);
                self.serve.record_read(true);
                return Response {
                    latency: meta_lat + (done - now - meta_lat),
                    served_by_fast: true,
                    extra_lines: Vec::new(),
                };
            }
            // Displaced: content spread over slow memory (§III-F).
            self.counters.displaced_accesses += 1;
            let spread_addr = self.displaced_slow_addr(b, line);
            let done = self
                .devices
                .slow
                .access(now + meta_lat, spread_addr, 64, false);
            self.serve.record_read(false);
            return Response {
                latency: done - now,
                served_by_fast: false,
                extra_lines: Vec::new(),
            };
        }

        // Case 5: block miss.
        self.counters.case5_block_misses += 1;
        if self.stage_enabled() {
            self.stage.bump_mru_miss(self.stage.set_of(sb));
        }
        let (lat, extras) = self.slow_demand_read(now + meta_lat, b, sub, line);
        let done = now + meta_lat + lat;
        if self.stage_enabled() {
            self.stage_fill(done, b, sub, mem);
        } else {
            self.direct_fill(done, b, sub, mem);
        }
        self.serve.record_read(false);
        self.serve.record_prefetch_lines(extras.len());
        Response {
            latency: meta_lat + lat,
            served_by_fast: false,
            extra_lines: extras,
        }
    }

    fn writeback(&mut self, now: Cycle, addr: u64, mem: &mut MemoryContents) -> Cycle {
        let line = addr & !(CACHELINE_BYTES as u64 - 1);
        let b = self.geom.block_of(line);
        assert!(
            b < self.cfg.os_blocks(),
            "writeback address {addr:#x} beyond the OS-physical space"
        );
        let sb = self.geom.super_of_block(b);
        let off = self.geom.blk_off(b);
        let sub = self.geom.sub_of(line);
        self.serve.record_writeback();

        if self.stage_enabled() {
            self.stage.record_set_access(self.stage.set_of(sb));
            if let Some((slot, hit)) = self.stage.lookup(sb, off, sub) {
                self.stage.touch(slot);
                match hit.slot {
                    Some(i) => {
                        let r = self
                            .stage
                            .entry(slot)
                            .and_then(|e| e.slots[i])
                            .expect("hit");
                        if r.cf == Cf::X1 || self.chunk_still_fits(b, r, sub, mem) {
                            self.tracker.classify(b, AccessKind::Hit);
                            let chunk =
                                self.chunk_addr_in_slot(self.stage_slot_addr(slot, i), r, line);
                            let done = self.devices.fast.access(now, chunk, 64, true);
                            if let Some(e) = self.stage.entry_mut(slot) {
                                if let Some(sr) = e.slots[i].as_mut() {
                                    sr.dirty = true;
                                }
                            }
                            return done;
                        }
                        // Stage write overflow: remove and re-insert.
                        self.counters.stage_overflows += 1;
                        self.tracker.classify(b, AccessKind::Overflow);
                        let mask = range_mask(&r);
                        if let Some(e) = self.stage.entry_mut(slot) {
                            e.slots[i] = None;
                        }
                        self.restage_subs(now, b, mask, true, mem);
                    }
                    None => {
                        // A write to a staged zero range materializes data.
                        self.counters.stage_overflows += 1;
                        self.tracker.classify(b, AccessKind::Overflow);
                        let zr = self
                            .stage
                            .entry(slot)
                            .map(|e| {
                                e.zero_ranges
                                    .iter()
                                    .position(|r| r.covers(off, sub))
                                    .expect("zero hit")
                            })
                            .expect("entry");
                        let r = self
                            .stage
                            .entry_mut(slot)
                            .map(|e| e.zero_ranges.remove(zr))
                            .expect("entry");
                        self.restage_subs(now, b, range_mask(&r), true, mem);
                    }
                }
                // Overflow re-staging: the device work was issued at `now`
                // by restage_subs; treat the writeback as retired then.
                return now;
            }
        }

        let entry = self.remap.entry(b);
        if entry.has_sub(sub) {
            if entry.zero {
                // Writing a Z block materializes it: evict to slow.
                self.counters.committed_overflows += 1;
                self.tracker.classify(b, AccessKind::Overflow);
                self.evict_committed_block(now, b, mem);
                return self.slow_home_write(now, b, sub, line, mem);
            }
            let (start, cf) = entry.range_of(sub).expect("has_sub");
            let r = RangeRef {
                blk_off: off as u8,
                sub_off: start as u8,
                cf,
                dirty: true,
            };
            if cf == Cf::X1 || self.chunk_still_fits(b, r, sub, mem) {
                self.tracker.classify(b, AccessKind::Hit);
                let phys = self.phys_of_pointer(sb, entry.pointer);
                self.touch_phys(phys);
                let slot = locate_sub_block(self.remap.super_entries(sb), off, start)
                    .expect("remapped sub must locate");
                let chunk = self.chunk_addr_in_slot(self.data_slot_addr(phys, slot), r, line);
                let done = self.devices.fast.access(now, chunk, 64, true);
                self.meta[b as usize].dirty_mask |= range_mask(&r);
                return done;
            }
            // Committed write overflow: the sorted dense layout cannot
            // change (Rule 4), so the whole block is evicted (§III-D).
            self.counters.committed_overflows += 1;
            self.tracker.classify(b, AccessKind::Overflow);
            self.evict_committed_block(now, b, mem);
            return self.slow_home_write(now, b, sub, line, mem);
        }

        if self.has_fast_home(b) {
            return if matches!(self.phys[b as usize].state, PhysState::Original) {
                self.devices
                    .fast
                    .access(now, self.data_base + line, 64, true)
            } else {
                // Writebacks to displaced blocks go to their spread slow
                // location (displaced_accesses tracks demand reads only).
                let spread = self.displaced_slow_addr(b, line);
                self.devices.slow.access(now, spread, 64, true)
            };
        }

        if self.tracker.in_committed_window(b) {
            self.counters.dbg_wbmiss_in_cwindow += 1;
        }
        self.tracker.classify(b, AccessKind::Miss);
        self.slow_home_write(now, b, sub, line, mem)
    }

    fn serve_stats(&self) -> ServeStats {
        self.serve.finish(&self.devices)
    }

    fn export(&self, reg: &mut Registry) {
        let c = &self.counters;
        reg.set_counter("case1_stage_hits", c.case1_stage_hits);
        reg.set_counter("case2_commit_hits", c.case2_commit_hits);
        reg.set_counter("case3_stage_misses", c.case3_stage_misses);
        reg.set_counter("case4_bypasses", c.case4_bypasses);
        reg.set_counter("case5_block_misses", c.case5_block_misses);
        reg.set_counter("zero_serves", c.zero_serves);
        reg.set_counter("stage_overflows", c.stage_overflows);
        reg.set_counter("committed_overflows", c.committed_overflows);
        reg.set_counter("commits", c.commits);
        reg.set_counter("stage_evictions", c.stage_evictions);
        reg.set_counter("commit_aborts", c.commit_aborts);
        reg.set_counter("spread_swaps", c.spread_swaps);
        reg.set_counter("three_way_swaps", c.three_way_swaps);
        reg.set_counter("flat_original_hits", c.flat_original_hits);
        reg.set_counter("displaced_accesses", c.displaced_accesses);
        reg.set_counter("decompressions", c.decompressions);
        reg.set_counter("faults_detected", c.faults_detected);
        reg.set_counter("faults_corrected", c.faults_corrected);
        reg.set_counter("faults_degraded", c.faults_degraded);
        reg.set_counter("faults_unrecoverable", c.faults_unrecoverable);
        reg.set_counter("scrub_passes", c.scrub_passes);
        reg.set_counter("scrub_repairs", c.scrub_repairs);
        reg.set_gauge("avg_cf", c.avg_cf());
        let mut sub = Registry::new();
        self.stage.stats().export(&mut sub);
        reg.absorb("stage", &sub);
        let mut sub = Registry::new();
        self.remap.export(&mut sub);
        reg.absorb("remap", &sub);
        reg.set_gauge("remap.cache_hit_rate", self.remap.cache_hit_rate());
        self.devices.export(reg);
    }

    fn reset_stats(&mut self) {
        self.serve.reset();
        self.counters = BaryonCounters::default();
        self.devices.reset_stats();
        self.remap.reset_stats();
        self.stage.reset_stats();
    }

    fn name(&self) -> &str {
        // The multi-level remap store defines the trimma family
        // regardless of the hybrid mode it rides on.
        if matches!(self.cfg.remap, RemapKind::MultiLevel { .. }) {
            return "trimma";
        }
        match (self.cfg.mode, self.cfg.is_fully_associative()) {
            (HybridMode::Cache, false) => "baryon",
            (HybridMode::Cache, true) => "baryon-fa-cache",
            (HybridMode::Flat, _) => "baryon-fa",
            (HybridMode::Mixed, _) => "baryon-mixed",
        }
    }
}

impl BaryonController {
    /// The staged range covering `(off, sub)` at `slot` (data or zero).
    fn staged_range_of(
        &self,
        slot: crate::stage::StageSlot,
        off: usize,
        sub: usize,
        data_slot: Option<usize>,
    ) -> RangeRef {
        let entry = self.stage.entry(slot).expect("staged");
        match data_slot {
            Some(i) => entry.slots[i].expect("slot filled"),
            None => *entry
                .zero_ranges
                .iter()
                .find(|r| r.covers(off, sub))
                .expect("zero range"),
        }
    }

    /// Serves a line from a (possibly compressed) fast-memory slot.
    /// Returns (latency, extra lines to install in the LLC).
    ///
    /// Reads go through the integrity-checked path: an injected fault is
    /// counted, retried (transient), or recovered from the slow copy with
    /// the faulty fast copy poisoned and the block degraded to CF1 fills
    /// (see [`BaryonController::resolve_fast_fault`]).
    pub(crate) fn serve_fast_chunk(
        &mut self,
        at: Cycle,
        data: FastData,
        block: u64,
        range: RangeRef,
        line: u64,
        mem: &mut MemoryContents,
    ) -> (Cycle, Vec<u64>) {
        let range_base = self.geom.sub_addr(block, range.sub_off as usize);
        let cf = range.cf.factor() as u64;
        let li = (line - range_base) / 64;
        let chunk_id = li / cf;
        let chunk_lines = |chunk_id: u64| -> Vec<u64> {
            (0..cf)
                .map(|j| range_base + (chunk_id * cf + j) * 64)
                .filter(|l| *l != line)
                .collect()
        };
        let Some(base) = data.addr() else {
            // Z range: no data movement at all.
            self.counters.zero_serves += 1;
            return (0, chunk_lines(chunk_id));
        };
        if range.cf == Cf::X1 {
            let done =
                self.checked_fast_read(at, base + li * 64, 64, block, range, data, line, mem);
            (done - at, Vec::new())
        } else if self.cfg.cacheline_aligned {
            let done =
                self.checked_fast_read(at, base + chunk_id * 64, 64, block, range, data, line, mem);
            self.counters.decompressions += 1;
            (
                done - at + self.cfg.decompress_cycles,
                chunk_lines(chunk_id),
            )
        } else {
            // Without cacheline alignment the whole slot must be
            // fetched and decompressed (Fig 7 left).
            let done = self.checked_fast_read(
                at,
                base,
                self.geom.sub_bytes as usize,
                block,
                range,
                data,
                line,
                mem,
            );
            self.counters.decompressions += 1;
            let range_lines = (range.cf.sub_blocks() * self.geom.lines_per_sub()) as u64;
            let extras = (0..range_lines)
                .map(|j| range_base + j * 64)
                .filter(|l| *l != line)
                .collect();
            (done - at + self.cfg.decompress_cycles, extras)
        }
    }

    /// A fast-memory read with end-to-end integrity checking: on a fault
    /// the recovery path runs and the returned completion cycle includes
    /// the recovery work.
    #[allow(clippy::too_many_arguments)]
    fn checked_fast_read(
        &mut self,
        at: Cycle,
        addr: u64,
        bytes: usize,
        block: u64,
        range: RangeRef,
        data: FastData,
        line: u64,
        mem: &mut MemoryContents,
    ) -> Cycle {
        let o = self.devices.fast.access_outcome(at, addr, bytes, false);
        match o.fault {
            None => o.done,
            Some(kind) => {
                self.resolve_fast_fault(o.done, addr, bytes, block, range, data, line, kind, mem)
            }
        }
    }

    /// Recovery for a faulted fast-memory read (the tentpole of the fault
    /// model, see ARCHITECTURE.md "Fault model & recovery"):
    ///
    /// 1. transient fault → retry once; a clean retry *corrects* it;
    /// 2. stuck fault (or failed retry) over clean data with a slow home →
    ///    re-fetch the line from the slow copy, poison and evict the fast
    ///    copy, and *degrade* the block to uncompressed (CF1) fills;
    /// 3. otherwise (dirty data over a bad cell, a fast-home block with no
    ///    second copy, or a stuck slow home) the fault is *unrecoverable*.
    ///
    /// Every detected fault lands in exactly one of those counters, so
    /// `faults_detected == corrected + degraded + unrecoverable` holds by
    /// construction.
    #[allow(clippy::too_many_arguments)]
    fn resolve_fast_fault(
        &mut self,
        done: Cycle,
        addr: u64,
        bytes: usize,
        block: u64,
        range: RangeRef,
        data: FastData,
        line: u64,
        kind: FaultKind,
        mem: &mut MemoryContents,
    ) -> Cycle {
        self.counters.faults_detected += 1;
        if kind == FaultKind::Transient {
            let retry = self.devices.fast.access_outcome(done, addr, bytes, false);
            if retry.fault.is_none() {
                self.counters.faults_corrected += 1;
                return retry.done;
            }
            // The retry faulted too: fall through to the stuck path.
        }
        let dirty = match data {
            FastData::Stage { slot, idx, .. } => self
                .stage
                .entry(slot)
                .and_then(|e| e.slots[idx])
                .is_some_and(|r| r.dirty),
            FastData::Committed { .. } => {
                self.meta[block as usize].dirty_mask & range_mask(&range) != 0
            }
            FastData::Zero => false,
        };
        if self.has_fast_home(block) || dirty {
            // The faulty fast copy is the only current one: data loss.
            self.counters.faults_unrecoverable += 1;
            return done;
        }
        // Re-fetch the demanded line from the clean slow copy (one retry
        // on a transient fault during recovery).
        let sub = self.geom.sub_of(line);
        let slow_addr = self.slow_home_addr(block, sub) + (line - self.geom.sub_addr(block, sub));
        let mut refetch = self.devices.slow.access_outcome(done, slow_addr, 64, false);
        if refetch.fault == Some(FaultKind::Transient) {
            refetch = self
                .devices
                .slow
                .access_outcome(refetch.done, slow_addr, 64, false);
        }
        if refetch.fault.is_some() {
            self.counters.faults_unrecoverable += 1;
            return refetch.done;
        }
        // Poison and evict the faulty fast copy; the block degrades to
        // uncompressed fills so future recovery stays trivial.
        self.counters.faults_degraded += 1;
        self.meta[block as usize].degraded = true;
        match data {
            FastData::Stage { slot, idx, .. } => {
                if let Some(e) = self.stage.entry_mut(slot) {
                    e.slots[idx] = None;
                }
            }
            FastData::Committed { .. } => self.evict_committed_block(refetch.done, block, mem),
            FastData::Zero => {}
        }
        refetch.done
    }

    /// A slow-memory read with integrity checking: transient faults retry
    /// once; anything else is unrecoverable (the slow home has no second
    /// copy behind it).
    fn checked_slow_read(&mut self, at: Cycle, addr: u64, bytes: usize) -> Cycle {
        let o = self.devices.slow.access_outcome(at, addr, bytes, false);
        let Some(kind) = o.fault else {
            return o.done;
        };
        self.counters.faults_detected += 1;
        if kind == FaultKind::Transient {
            let retry = self.devices.slow.access_outcome(o.done, addr, bytes, false);
            if retry.fault.is_none() {
                self.counters.faults_corrected += 1;
            } else {
                self.counters.faults_unrecoverable += 1;
            }
            return retry.done;
        }
        self.counters.faults_unrecoverable += 1;
        o.done
    }

    /// Reads the demanded line from slow memory, honouring compressed-slow
    /// hints (which also yield free co-decompressed neighbours).
    pub(crate) fn slow_demand_read(
        &mut self,
        at: Cycle,
        b: u64,
        sub: usize,
        line: u64,
    ) -> (Cycle, Vec<u64>) {
        if let Some((start, cf)) = self.slow_hint(b, sub) {
            let range_base = self.geom.sub_addr(b, start);
            let cfn = cf.factor() as u64;
            let li = (line - range_base) / 64;
            let chunk_id = li / cfn;
            let addr = self.slow_home_addr(b, start) + chunk_id * 64;
            let done = self.checked_slow_read(at, addr, 64);
            self.counters.decompressions += 1;
            let extras = (0..cfn)
                .map(|j| range_base + (chunk_id * cfn + j) * 64)
                .filter(|l| *l != line)
                .collect();
            (done - at + self.cfg.decompress_cycles, extras)
        } else {
            let addr = self.slow_home_addr(b, sub) + (line - self.geom.sub_addr(b, sub));
            let done = self.checked_slow_read(at, addr, 64);
            (done - at, Vec::new())
        }
    }

    /// Writes a dirty line to its slow home, keeping compressed-slow hints
    /// consistent: if the update breaks the hinted CF, the range is
    /// re-expanded to raw storage.
    pub(crate) fn slow_home_write(
        &mut self,
        now: Cycle,
        b: u64,
        sub: usize,
        line: u64,
        mem: &MemoryContents,
    ) -> Cycle {
        if let Some((start, cf)) = self.slow_hint(b, sub) {
            let r = RangeRef {
                blk_off: self.geom.blk_off(b) as u8,
                sub_off: start as u8,
                cf,
                dirty: true,
            };
            if !self.chunk_still_fits(b, r, sub, mem) {
                // Re-expand: read the compressed slot, write raw data back.
                self.clear_slow_hint(b, sub);
                let base = self.slow_home_addr(b, start);
                self.devices
                    .slow
                    .access(now, base, self.geom.sub_bytes as usize, false);
                return self.devices.slow.access(
                    now,
                    base,
                    cf.sub_blocks() * self.geom.sub_bytes as usize,
                    true,
                );
            }
        }
        let addr = self.slow_home_addr(b, sub) + (line - self.geom.sub_addr(b, sub));
        self.devices.slow.access(now, addr, 64, true)
    }

    /// Does the chunk containing `sub`'s updated line still compress into
    /// its slot at the range's CF?
    pub(crate) fn chunk_still_fits(
        &mut self,
        b: u64,
        r: RangeRef,
        _sub: usize,
        mem: &MemoryContents,
    ) -> bool {
        if r.cf == Cf::X1 {
            return true;
        }
        let range_base = self.geom.sub_addr(b, r.sub_off as usize);
        if self.cfg.cacheline_aligned {
            // Check every chunk through the chunk memo (the common case
            // is one changed chunk; the untouched ones hit).
            return self.range_fits_aligned(range_base, r.cf, mem);
        }
        let len = r.cf.sub_blocks() * self.geom.sub_bytes as usize;
        let data = mem.range(range_base, len);
        self.rc.chunk_size(&data) <= self.geom.sub_bytes as usize
    }

    /// Device address of the 64 B compressed chunk holding `line` within a
    /// slot at `slot_addr`.
    pub(crate) fn chunk_addr_in_slot(&self, slot_addr: u64, r: RangeRef, line: u64) -> u64 {
        let range_base = self
            .geom
            .sub_addr(line / self.geom.block_bytes, r.sub_off as usize);
        let li = (line - range_base) / 64;
        if r.cf == Cf::X1 {
            slot_addr + li * 64
        } else {
            slot_addr + (li / r.cf.factor() as u64) * 64
        }
    }

    /// Approximate slow device address for displaced (spread) block data.
    pub(crate) fn displaced_slow_addr(&self, b: u64, line: u64) -> u64 {
        let slow_blocks = self.cfg.slow_bytes / self.geom.block_bytes;
        (b % slow_blocks) * self.geom.block_bytes + line % self.geom.block_bytes
    }
}

/// Sub-block bitmask covered by a range.
pub(crate) fn range_mask(r: &RangeRef) -> u32 {
    let mut mask = 0;
    for s in r.sub_off as usize..r.sub_off as usize + r.cf.sub_blocks() {
        mask |= 1 << s;
    }
    mask
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
    fn range_mask_covers_cf_width() {
        let r = RangeRef {
            blk_off: 0,
            sub_off: 4,
            cf: Cf::X4,
            dirty: false,
        };
        assert_eq!(range_mask(&r), 0b1111_0000);
        let r1 = RangeRef {
            blk_off: 0,
            sub_off: 3,
            cf: Cf::X1,
            dirty: false,
        };
        assert_eq!(range_mask(&r1), 0b1000);
    }

    #[test]
    fn chunk_addr_maps_lines_to_compressed_chunks() {
        let c = ctrl();
        // CF2 range starting at sub 2 of block 0: raw bytes 512..1024,
        // eight 64 B lines in four 128 B chunks -> slot offsets 0..3 * 64.
        let r = RangeRef {
            blk_off: 0,
            sub_off: 2,
            cf: Cf::X2,
            dirty: false,
        };
        let slot_addr = 10_000;
        // Line 512 (first of the range) -> chunk 0.
        assert_eq!(c.chunk_addr_in_slot(slot_addr, r, 512), slot_addr);
        // Line 640 (index 2) -> chunk 1 (2 lines per 128 B chunk).
        assert_eq!(c.chunk_addr_in_slot(slot_addr, r, 640), slot_addr + 64);
        // Last line of the range -> chunk 3.
        assert_eq!(c.chunk_addr_in_slot(slot_addr, r, 960), slot_addr + 192);
    }

    #[test]
    fn chunk_addr_cf1_is_line_offset() {
        let c = ctrl();
        let r = RangeRef {
            blk_off: 0,
            sub_off: 1,
            cf: Cf::X1,
            dirty: false,
        };
        // Sub-block 1 spans 256..512: its third line sits 128 B in.
        assert_eq!(c.chunk_addr_in_slot(5_000, r, 256 + 128), 5_000 + 128);
    }

    #[test]
    fn serve_fast_chunk_returns_co_decompressed_neighbours() {
        let mut c = ctrl();
        let mut m = mem(ValueProfile::NarrowInt);
        let r = RangeRef {
            blk_off: 0,
            sub_off: 0,
            cf: Cf::X2,
            dirty: false,
        };
        let data = FastData::Committed { addr: 0 };
        let (lat, extras) = c.serve_fast_chunk(0, data, 0, r, 64, &mut m);
        assert!(lat > 0);
        // The 128 B chunk holding line 64 also holds line 0.
        assert_eq!(extras, vec![0]);
    }

    #[test]
    fn serve_fast_chunk_zero_is_free() {
        let mut c = ctrl();
        let mut m = mem(ValueProfile::NarrowInt);
        let r = RangeRef {
            blk_off: 0,
            sub_off: 0,
            cf: Cf::X4,
            dirty: false,
        };
        let (lat, extras) = c.serve_fast_chunk(0, FastData::Zero, 0, r, 128, &mut m);
        assert_eq!(lat, 0, "Z ranges cost no device time");
        assert_eq!(extras.len(), 3, "the rest of the 4-line chunk comes free");
        assert_eq!(c.counters().zero_serves, 1);
    }

    #[test]
    fn slow_demand_read_uses_hints() {
        let mut c = ctrl();
        // No hint: plain 64 B read, no extras.
        let (_, extras) = c.slow_demand_read(0, 3, 0, 3 * 2048);
        assert!(extras.is_empty());
        // With a CF2 hint over subs 0-1 the chunk co-delivers a neighbour.
        c.meta[3].slow_cf2 = 0b0001;
        let (lat, extras) = c.slow_demand_read(1_000_000, 3, 0, 3 * 2048);
        assert_eq!(extras.len(), 1);
        assert!(lat > c.cfg.decompress_cycles, "decompression charged");
        assert!(c.counters().decompressions > 0);
    }

    #[test]
    fn chunk_still_fits_tracks_content_changes() {
        let mut m = mem(ValueProfile::NarrowInt);
        let mut c = ctrl();
        let r = RangeRef {
            blk_off: 0,
            sub_off: 0,
            cf: Cf::X2,
            dirty: false,
        };
        assert!(
            c.chunk_still_fits(0, r, 0, &m),
            "narrow ints compress at CF2"
        );
        // Degenerate every line of the range (writes with high entropy
        // eventually produce random bytes).
        for _ in 0..8 {
            for line in 0..8u64 {
                m.write_line(line * 64);
            }
            if !c.chunk_still_fits(0, r, 0, &m) {
                return; // expected outcome reached
            }
        }
        panic!("repeatedly rewritten data never broke the CF2 fit");
    }

    #[test]
    fn cf1_always_fits() {
        let m = mem(ValueProfile::Random);
        let mut c = ctrl();
        let r = RangeRef {
            blk_off: 0,
            sub_off: 0,
            cf: Cf::X1,
            dirty: true,
        };
        assert!(c.chunk_still_fits(0, r, 0, &m));
    }

    #[test]
    fn persistent_fast_faults_poison_and_degrade() {
        // A flip rate this high faults (and re-faults on retry) every fast
        // read; the slow device stays clean, so recovery must refetch,
        // poison the staged range, and degrade the block.
        let mut cfg = BaryonConfig::default_cache_mode(Scale { divisor: 2048 });
        cfg.fault_fast = baryon_mem::FaultConfig {
            bit_flip_rate: 0.5,
            stuck_at_rate: 0.0,
            seed: 3,
        };
        let mut c = BaryonController::new(cfg);
        let mut m = mem(ValueProfile::NarrowInt);
        let addr = 4 * 2048;
        c.read(0, crate::ctrl::Request { addr, core: 0 }, &mut m); // stage it
        c.read(100_000, crate::ctrl::Request { addr, core: 0 }, &mut m);
        let k = c.counters();
        assert!(k.faults_detected >= 1);
        assert!(k.faults_degraded >= 1, "clean staged data recovers: {k:?}");
        assert_eq!(k.faults_unrecoverable, 0);
        assert!(c.meta[4].degraded, "the block enters degraded mode");
    }

    #[test]
    fn dirty_data_over_faulty_cells_is_unrecoverable() {
        let mut cfg = BaryonConfig::default_cache_mode(Scale { divisor: 2048 });
        cfg.fault_fast = baryon_mem::FaultConfig {
            bit_flip_rate: 0.5,
            stuck_at_rate: 0.0,
            seed: 3,
        };
        let mut c = BaryonController::new(cfg);
        let mut m = mem(ValueProfile::NarrowInt);
        let addr = 4 * 2048;
        c.read(0, crate::ctrl::Request { addr, core: 0 }, &mut m);
        // Dirty the staged range: the slow copy is now stale, so a faulty
        // fast read has no clean source left.
        c.writeback(50_000, addr, &mut m);
        c.read(100_000, crate::ctrl::Request { addr, core: 0 }, &mut m);
        let k = c.counters();
        assert!(
            k.faults_unrecoverable >= 1,
            "dirty data cannot recover: {k:?}"
        );
    }

    #[test]
    fn displaced_addr_stays_in_slow_space() {
        let c = BaryonController::new(BaryonConfig::default_flat_fa(Scale { divisor: 2048 }));
        let slow_bytes = c.cfg.slow_bytes;
        for b in [0u64, 1, 100] {
            let a = c.displaced_slow_addr(b, b * 2048 + 64);
            assert!(
                a < slow_bytes,
                "displaced address {a:#x} beyond slow memory"
            );
        }
    }
}
