//! A generic set-associative, write-back, write-allocate cache with LRU.

use baryon_sim::telemetry::Registry;
use baryon_sim::wire::{Reader, WireError, Writer};
use baryon_sim::Cycle;

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Hit latency in CPU cycles.
    pub latency: Cycle,
}

impl CacheConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `sets` and `line_bytes` are powers of two and `ways > 0`.
    pub fn new(sets: usize, ways: usize, line_bytes: u64, latency: Cycle) -> Self {
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(ways > 0, "need at least one way");
        CacheConfig {
            sets,
            ways,
            line_bytes,
            latency,
        }
    }

    /// Builds a configuration from a total capacity in bytes.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not divisible into a power-of-two set count.
    pub fn with_capacity(bytes: u64, ways: usize, line_bytes: u64, latency: Cycle) -> Self {
        let sets = (bytes / line_bytes / ways as u64) as usize;
        Self::new(sets, ways, line_bytes, latency)
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * self.line_bytes
    }
}

/// A line evicted to make room for a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Base address of the evicted line.
    pub addr: u64,
    /// True if the line was dirty and must be written back.
    pub dirty: bool,
}

/// Outcome of a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// True if the line was present.
    pub hit: bool,
    /// A line displaced by the fill on a miss (write-allocate).
    pub eviction: Option<Eviction>,
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    stamp: u64,
}

/// Hit/miss statistics of one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Read hits.
    pub read_hits: u64,
    /// Read misses.
    pub read_misses: u64,
    /// Write hits.
    pub write_hits: u64,
    /// Write misses.
    pub write_misses: u64,
}

impl CacheStats {
    /// All accesses.
    pub fn accesses(&self) -> u64 {
        self.read_hits + self.read_misses + self.write_hits + self.write_misses
    }

    /// All misses.
    pub fn misses(&self) -> u64 {
        self.read_misses + self.write_misses
    }

    /// Miss ratio in `[0, 1]`; 0 if no accesses.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses() as f64
        }
    }

    /// Publishes into the unified telemetry [`Registry`].
    pub fn export(&self, reg: &mut Registry) {
        reg.set_counter("read_hits", self.read_hits);
        reg.set_counter("read_misses", self.read_misses);
        reg.set_counter("write_hits", self.write_hits);
        reg.set_counter("write_misses", self.write_misses);
    }
}

/// A set-associative LRU cache tracking tags, valid and dirty bits.
///
/// The cache is write-back and write-allocate: a write miss fills the line
/// and marks it dirty; evicted dirty lines are reported to the caller.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    lines: Vec<Line>,
    tick: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        SetAssocCache {
            lines: vec![Line::default(); cfg.sets * cfg.ways],
            cfg,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics without flushing contents (post-warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn set_of(&self, addr: u64) -> usize {
        ((addr / self.cfg.line_bytes) as usize) & (self.cfg.sets - 1)
    }

    fn tag_of(&self, addr: u64) -> u64 {
        addr / self.cfg.line_bytes / self.cfg.sets as u64
    }

    fn line_base(&self, set: usize, tag: u64) -> u64 {
        (tag * self.cfg.sets as u64 + set as u64) * self.cfg.line_bytes
    }

    /// Accesses `addr`; on a miss the line is filled (write-allocate),
    /// possibly evicting the set's LRU line.
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessResult {
        let result = self.access_quiet(addr, is_write);
        self.count_access(result.hit, is_write);
        result
    }

    /// The state-mutating half of [`SetAssocCache::access`]: identical tag,
    /// LRU, dirty-bit and fill behaviour, but no statistics. A caller may
    /// run these ahead of time and count the outcomes later with
    /// [`SetAssocCache::count_access`], so a statistics reset still falls
    /// between the same two counted accesses.
    pub fn access_quiet(&mut self, addr: u64, is_write: bool) -> AccessResult {
        self.tick += 1;
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let base = set * self.cfg.ways;
        let ways = &mut self.lines[base..base + self.cfg.ways];

        if let Some(line) = ways.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.stamp = self.tick;
            line.dirty |= is_write;
            return AccessResult {
                hit: true,
                eviction: None,
            };
        }

        let eviction = self.fill_at(set, tag, is_write);
        AccessResult {
            hit: false,
            eviction,
        }
    }

    /// Counts one access outcome into the statistics — the counting half
    /// of [`SetAssocCache::access`].
    pub fn count_access(&mut self, hit: bool, is_write: bool) {
        match (hit, is_write) {
            (true, true) => self.stats.write_hits += 1,
            (true, false) => self.stats.read_hits += 1,
            (false, true) => self.stats.write_misses += 1,
            (false, false) => self.stats.read_misses += 1,
        }
    }

    /// Returns true if `addr`'s line is present (no LRU update).
    pub fn probe(&self, addr: u64) -> bool {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let base = set * self.cfg.ways;
        self.lines[base..base + self.cfg.ways]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Installs a line without counting an access (used for prefetch fills).
    /// Returns the displaced line, if any. Already-present lines are only
    /// LRU-refreshed.
    pub fn install(&mut self, addr: u64) -> Option<Eviction> {
        self.tick += 1;
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let base = set * self.cfg.ways;
        if let Some(line) = self.lines[base..base + self.cfg.ways]
            .iter_mut()
            .find(|l| l.valid && l.tag == tag)
        {
            line.stamp = self.tick;
            return None;
        }
        self.fill_at(set, tag, false)
    }

    /// Installs a line already marked dirty — a write-back arriving from the
    /// level above — without counting an access. If the line is present it is
    /// refreshed and marked dirty. Returns the displaced line, if any.
    pub fn install_dirty(&mut self, addr: u64) -> Option<Eviction> {
        self.tick += 1;
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let base = set * self.cfg.ways;
        if let Some(line) = self.lines[base..base + self.cfg.ways]
            .iter_mut()
            .find(|l| l.valid && l.tag == tag)
        {
            line.stamp = self.tick;
            line.dirty = true;
            return None;
        }
        self.fill_at(set, tag, true)
    }

    /// Removes `addr`'s line if present, returning it (with its dirty bit).
    pub fn invalidate(&mut self, addr: u64) -> Option<Eviction> {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let base = set * self.cfg.ways;
        let line_addr = self.line_base(set, tag);
        self.lines[base..base + self.cfg.ways]
            .iter_mut()
            .find(|l| l.valid && l.tag == tag)
            .map(|l| {
                l.valid = false;
                Eviction {
                    addr: line_addr,
                    dirty: l.dirty,
                }
            })
    }

    /// Serializes the mutable cache state (lines, LRU tick, statistics);
    /// the geometry is carried by the caller's configuration and rebuilt
    /// through [`SetAssocCache::new`] on restore.
    pub fn save_state(&self, w: &mut Writer) {
        w.seq(self.lines.len());
        for l in &self.lines {
            w.u64(l.tag);
            w.bool(l.valid);
            w.bool(l.dirty);
            w.u64(l.stamp);
        }
        w.u64(self.tick);
        w.u64(self.stats.read_hits);
        w.u64(self.stats.read_misses);
        w.u64(self.stats.write_hits);
        w.u64(self.stats.write_misses);
    }

    /// Overlays checkpointed state onto this (freshly constructed) cache.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on a truncated payload or a line count that
    /// does not match this cache's geometry.
    pub fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), WireError> {
        let n = r.seq()?;
        if n != self.lines.len() {
            return Err(WireError::BadLength(n as u64));
        }
        for l in &mut self.lines {
            l.tag = r.u64()?;
            l.valid = r.bool()?;
            l.dirty = r.bool()?;
            l.stamp = r.u64()?;
        }
        self.tick = r.u64()?;
        self.stats.read_hits = r.u64()?;
        self.stats.read_misses = r.u64()?;
        self.stats.write_hits = r.u64()?;
        self.stats.write_misses = r.u64()?;
        Ok(())
    }

    fn fill_at(&mut self, set: usize, tag: u64, dirty: bool) -> Option<Eviction> {
        let base = set * self.cfg.ways;
        let victim_idx = {
            let ways = &self.lines[base..base + self.cfg.ways];
            match ways.iter().position(|l| !l.valid) {
                Some(i) => i,
                None => ways
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, l)| l.stamp)
                    .map(|(i, _)| i)
                    .expect("ways > 0"),
            }
        };
        let victim_addr = self.line_base(set, self.lines[base + victim_idx].tag);
        let line = &mut self.lines[base + victim_idx];
        let eviction = if line.valid {
            Some(Eviction {
                addr: victim_addr,
                dirty: line.dirty,
            })
        } else {
            None
        };
        *line = Line {
            tag,
            valid: true,
            dirty,
            stamp: self.tick,
        };
        eviction
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        SetAssocCache::new(CacheConfig::new(2, 2, 64, 1))
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0, false).hit);
        assert!(c.access(0, false).hit);
        assert!(c.access(63, false).hit, "same line");
        assert!(!c.access(128, false).hit, "other set");
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Set 0 holds lines 0 and 256 (tags 0 and 1, set bit from addr/64 % 2).
        c.access(0, false); // A
        c.access(256, false); // B
        c.access(0, false); // touch A -> B is LRU
        let r = c.access(512, false); // C evicts B
        let ev = r.eviction.expect("full set must evict");
        assert_eq!(ev.addr, 256);
        assert!(c.probe(0));
        assert!(!c.probe(256));
    }

    #[test]
    fn dirty_bit_tracked_through_eviction() {
        let mut c = tiny();
        c.access(0, true);
        c.access(256, false);
        c.access(512, false); // evicts LRU = line 0, dirty
        let ev = c.access(768, false).eviction.expect("evict");
        // line 256 was LRU after 0 was evicted
        assert!(!ev.dirty);
        // Re-check: find the dirty eviction.
        let mut c = tiny();
        c.access(0, true);
        c.access(256, false);
        let ev = c.access(512, false).eviction.expect("evict");
        assert_eq!(ev.addr, 0);
        assert!(ev.dirty);
    }

    #[test]
    fn write_allocate_marks_dirty() {
        let mut c = tiny();
        c.access(0, true);
        let ev = c.invalidate(0).expect("present");
        assert!(ev.dirty);
    }

    #[test]
    fn read_then_write_marks_dirty() {
        let mut c = tiny();
        c.access(0, false);
        c.access(0, true);
        assert!(c.invalidate(0).expect("present").dirty);
    }

    #[test]
    fn install_does_not_count_stats() {
        let mut c = tiny();
        c.install(0);
        assert_eq!(c.stats().accesses(), 0);
        assert!(c.probe(0));
    }

    #[test]
    fn install_refreshes_lru() {
        let mut c = tiny();
        c.access(0, false);
        c.access(256, false);
        c.install(0); // 0 becomes MRU
        let ev = c.access(512, false).eviction.expect("evict");
        assert_eq!(ev.addr, 256);
    }

    #[test]
    fn invalidate_missing_is_none() {
        let mut c = tiny();
        assert!(c.invalidate(0).is_none());
    }

    #[test]
    fn stats_accumulate() {
        let mut c = tiny();
        c.access(0, false);
        c.access(0, false);
        c.access(0, true);
        c.access(4096, true);
        let s = c.stats();
        assert_eq!(s.read_misses, 1);
        assert_eq!(s.read_hits, 1);
        assert_eq!(s.write_hits, 1);
        assert_eq!(s.write_misses, 1);
        assert!((s.miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_constructor() {
        // Table I LLC: 16 MB, 16-way, 64 B lines -> 16384 sets.
        let cfg = CacheConfig::with_capacity(16 << 20, 16, 64, 38);
        assert_eq!(cfg.sets, 16384);
        assert_eq!(cfg.capacity(), 16 << 20);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_sets_panics() {
        CacheConfig::new(3, 2, 64, 1);
    }

    #[test]
    fn line_base_roundtrip() {
        let c = SetAssocCache::new(CacheConfig::new(16, 4, 64, 1));
        for addr in [0u64, 64, 4096, 123 * 64, 999 * 64] {
            let set = c.set_of(addr);
            let tag = c.tag_of(addr);
            assert_eq!(c.line_base(set, tag), addr & !63);
        }
    }
}
