//! Property tests of the [`RemapStore`] contract: the flat table and the
//! Trimma-style multi-level store must be observationally identical as
//! translation maps under arbitrary migrate/evict/update churn — the
//! multi-level store only changes *where* the metadata lives (and how
//! much of it exists), never *what* it says.
//!
//! Timing is deliberately not compared: the two stores have different
//! hot-level cache geometries, which is the whole point.

use baryon_core::config::BaryonConfig;
use baryon_core::controller::BaryonController;
use baryon_core::ctrl::{MemoryController, Request};
use baryon_core::metadata::RemapEntry;
use baryon_core::remap::{MultiLevelRemap, RemapStore, RemapTable};
use baryon_mem::{DeviceConfig, MemDevice};
use baryon_sim::check::{props, Gen};
use baryon_sim::rng::SimRng;
use baryon_workloads::{MemoryContents, ProfileMix, Scale, ValueProfile};

#[derive(Debug, Clone)]
enum Op {
    /// Migrate: install a live translation (remap != 0).
    Set { block: u64, entry: RemapEntry },
    /// Evict/scrub-repair: clear the translation back to empty.
    Invalidate { block: u64 },
    /// Commit/evict metadata write-through.
    RecordUpdate { sb: u64 },
    /// Demand translation walk.
    Lookup { sb: u64 },
}

/// A live entry: the store contract only canonicalizes entries with
/// `remap == 0`, so churn generates either live entries or explicit
/// invalidates — exactly what the controller produces.
fn gen_live_entry(g: &mut Gen) -> RemapEntry {
    let mut e = RemapEntry::empty();
    e.remap = g.range(1, u32::MAX as u64) as u32;
    e.pointer = g.u64() as u32;
    e.cf2 = g.u64() as u32;
    e.cf4 = g.u64() as u32;
    e.zero = g.bool();
    e
}

fn gen_op(g: &mut Gen, blocks: u64, supers: u64) -> Op {
    match g.choice(8) {
        // Weight toward Set/Invalidate so leaves churn through their
        // allocate → live → free lifecycle many times per case.
        0..=2 => Op::Set {
            block: g.range(0, blocks),
            entry: gen_live_entry(g),
        },
        3 | 4 => Op::Invalidate {
            block: g.range(0, blocks),
        },
        5 => Op::RecordUpdate {
            sb: g.range(0, supers),
        },
        _ => Op::Lookup {
            sb: g.range(0, supers),
        },
    }
}

#[test]
fn multilevel_translations_match_flat_under_churn() {
    props("multilevel_matches_flat").cases(48).run(|g| {
        const BPS: u64 = 8;
        let blocks = [64u64, 256, 1024][g.choice(3)];
        let region_blocks = [16u64, 64, 256][g.choice(3)];
        let supers = blocks / BPS;
        g.note(format!("blocks={blocks} region_blocks={region_blocks}"));

        let mut flat = RemapTable::new(blocks, BPS as usize, 32 << 10, 3, 0);
        let mut ml = MultiLevelRemap::new(blocks, BPS as usize, region_blocks, 8 << 10, 2, 0);
        let mut dev_a = MemDevice::new(DeviceConfig::ddr4_3200());
        let mut dev_b = MemDevice::new(DeviceConfig::ddr4_3200());

        let ops = g.vec(1, 300, |g| gen_op(g, blocks, supers));
        let mut now = 0u64;
        for op in ops {
            now += 64;
            match op {
                Op::Set { block, entry } => {
                    RemapStore::set_entry(&mut flat, block, entry);
                    ml.set_entry(block, entry);
                }
                Op::Invalidate { block } => {
                    RemapStore::invalidate(&mut flat, block);
                    ml.invalidate(block);
                }
                Op::RecordUpdate { sb } => {
                    RemapStore::record_update(&mut flat, now, sb, &mut dev_a);
                    ml.record_update(now, sb, &mut dev_b);
                }
                Op::Lookup { sb } => {
                    RemapStore::lookup(&mut flat, now, sb, &mut dev_a);
                    ml.lookup(now, sb, &mut dev_b);
                }
            }
        }

        // Translation equivalence: every block, and every super-block
        // slice the serve path reads, must agree.
        for b in 0..blocks {
            assert_eq!(
                RemapStore::entry(&flat, b),
                ml.entry(b),
                "entry({b}) diverged"
            );
        }
        for sb in 0..supers {
            assert_eq!(
                RemapStore::super_entries(&flat, sb),
                ml.super_entries(sb),
                "super_entries({sb}) diverged"
            );
        }
        // Metadata write traffic is counted identically.
        assert_eq!(
            RemapStore::stats(&flat).table_updates,
            ml.stats().table_updates,
            "table_updates diverged"
        );
        // The root level always exists, even with every leaf freed.
        assert!(ml.footprint_bytes() >= 64, "root level always exists");
    });
}

#[test]
fn multilevel_footprint_shrinks_back_after_full_invalidate() {
    props("multilevel_footprint_shrinks").cases(24).run(|g| {
        let blocks = 512u64;
        let mut ml = MultiLevelRemap::new(blocks, 8, 64, 8 << 10, 2, 0);
        let base = ml.footprint_bytes();
        let touched = g.vec(1, 64, |g| g.range(0, blocks));
        for &b in &touched {
            let mut e = RemapEntry::empty();
            e.remap = 1 + (b as u32);
            ml.set_entry(b, e);
        }
        assert!(
            ml.footprint_bytes() > base,
            "live translations must allocate leaves"
        );
        for &b in &touched {
            ml.invalidate(b);
        }
        assert_eq!(
            ml.footprint_bytes(),
            base,
            "freeing the last translation of every region reclaims its leaf"
        );
    });
}

/// The trimma controller end-to-end: heavy staged/committed/evicted churn
/// with the multi-level store, then a metadata scrub audit — the scrub
/// pass must find nothing to repair, proving the store stays consistent
/// with the stage area and residency map through leaf allocate/free
/// cycles.
#[test]
fn trimma_scrub_finds_consistent_metadata_after_churn() {
    let mut c = BaryonController::new(BaryonConfig::default_trimma(Scale { divisor: 2048 }));
    let mut mem = MemoryContents::new(ProfileMix::pure(ValueProfile::NarrowInt), 7);
    let mut rng = SimRng::from_seed(0x7211_44A7);
    let lines = c.config().os_space_bytes() / 64;
    let hot = (lines / 64).max(1);
    let mut now = 0u64;
    for _ in 0..20_000 {
        let line = if rng.gen_bool(0.8) {
            rng.gen_range(0, hot)
        } else {
            rng.gen_range(0, lines)
        } * 64;
        if rng.gen_bool(0.3) {
            mem.write_line(line);
            c.writeback(now, line, &mut mem);
        } else {
            c.read(
                now,
                Request {
                    addr: line,
                    core: 0,
                },
                &mut mem,
            );
        }
        now += 64;
    }
    assert_eq!(
        c.scrub_metadata(now),
        0,
        "multi-level metadata must stay self-consistent under churn"
    );
}

/// Counter-window identity over a whole run: with no warm-up, the leaf
/// lifecycle counters cover the same window as the `live_leaves` state
/// gauge, so allocations minus frees is exactly the live leaf count on
/// every registry workload. (With a warm-up the counters restart at the
/// measure boundary while the gauge does not, and the identity is not
/// expected to hold.)
#[test]
fn trimma_leaf_counters_account_for_every_live_leaf() {
    use baryon_core::system::{ControllerKind, System, SystemConfig};

    let scale = Scale { divisor: 1024 };
    let mut allocated_somewhere = false;
    for workload in baryon_workloads::registry(scale) {
        let kind = ControllerKind::Baryon(BaryonConfig::default_trimma(scale));
        let mut cfg = SystemConfig::with_controller(scale, kind);
        cfg.warmup_insts = 0;
        let r = System::new(cfg, &workload, 42).run(20_000);
        let allocated = r.counter("ctrl.remap.leaves_allocated");
        let freed = r.counter("ctrl.remap.leaves_freed");
        let live = r.telemetry.gauge("ctrl.remap.live_leaves");
        assert_eq!(
            (allocated - freed) as f64,
            live,
            "{}: {allocated} allocated - {freed} freed != {live} live",
            workload.name
        );
        allocated_somewhere |= allocated > 0;
    }
    assert!(allocated_somewhere, "no workload allocated a leaf");
}
