#![warn(missing_docs)]

//! Simulation kernel for the Baryon hybrid-memory reproduction.
//!
//! This crate holds the small, dependency-free building blocks shared by every
//! other crate in the workspace:
//!
//! * [`Cycle`] and time conversion helpers,
//! * a deterministic, splittable random number generator ([`rng::SimRng`]),
//! * a seeded fault-injecting file I/O layer ([`faultfs`]) the durability
//!   code (checkpoints, journals) routes through,
//! * a Zipfian sampler used by the YCSB-style workloads ([`zipf::Zipfian`]),
//! * the unified telemetry registry ([`telemetry::Registry`]) every
//!   component publishes counters, gauges and histogram summaries into,
//! * summary helpers (geometric mean, percentiles) in [`summary`].
//!
//! # Examples
//!
//! ```
//! use baryon_sim::rng::SimRng;
//!
//! let mut rng = SimRng::from_seed(42);
//! let a = rng.next_u64();
//! let b = rng.next_u64();
//! assert_ne!(a, b);
//! // Deterministic: the same seed replays the same stream.
//! assert_eq!(SimRng::from_seed(42).next_u64(), a);
//! ```

pub mod check;
pub mod faultfs;
pub mod flatmap;
pub mod histogram;
pub mod json;
pub mod rng;
pub mod summary;
pub mod telemetry;
pub mod wire;
pub mod zipf;

/// A simulated clock cycle count.
///
/// All timing in the workspace is expressed in CPU cycles of the simulated
/// 3.2 GHz cores (Table I of the paper).
pub type Cycle = u64;

/// CPU frequency of the simulated cores in Hz (3.2 GHz, Table I).
pub const CPU_FREQ_HZ: u64 = 3_200_000_000;

/// Converts nanoseconds to CPU cycles, rounding up.
///
/// # Examples
///
/// ```
/// // 10 ns at 3.2 GHz is 32 cycles.
/// assert_eq!(baryon_sim::ns_to_cycles(10.0), 32);
/// ```
pub fn ns_to_cycles(ns: f64) -> Cycle {
    (ns * CPU_FREQ_HZ as f64 / 1e9).ceil() as Cycle
}

/// Converts CPU cycles back to nanoseconds.
///
/// # Examples
///
/// ```
/// let ns = baryon_sim::cycles_to_ns(32);
/// assert!((ns - 10.0).abs() < 1e-9);
/// ```
pub fn cycles_to_ns(cycles: Cycle) -> f64 {
    cycles as f64 * 1e9 / CPU_FREQ_HZ as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_cycle_roundtrip() {
        for ns in [0.3125, 1.0, 10.0, 76.92, 230.77] {
            let c = ns_to_cycles(ns);
            let back = cycles_to_ns(c);
            // Round-up conversion never loses more than one cycle.
            assert!(back >= ns - 1e-9, "{back} < {ns}");
            assert!(back - ns < cycles_to_ns(1) + 1e-9);
        }
    }

    #[test]
    fn zero_is_zero() {
        assert_eq!(ns_to_cycles(0.0), 0);
        assert_eq!(cycles_to_ns(0), 0.0);
    }

    #[test]
    fn one_cycle_is_0_3125_ns() {
        assert!((cycles_to_ns(1) - 0.3125).abs() < 1e-12);
    }
}
