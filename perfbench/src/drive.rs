//! The traced simulation loop: the merge loop of
//! `baryon_core::system::System`, rebuilt from the layers' public calls so
//! that each call can be timed.
//!
//! The loop must stay call-for-call equivalent to `System::run`; the
//! benchmark checks that the `RunResult` it assembles renders
//! byte-identically to an untraced `RunSpec::execute` of the same spec,
//! and fails the run otherwise. Private-cache accesses are computed ahead
//! of the shared half in per-core lookahead buffers, as `System` does;
//! they touch only the core's own L1D/L2 and count no statistics, so
//! doing them early cannot change a result.

use crate::trace::Folded;
use baryon_bench::spec::{controller_kind, RunSpec};
use baryon_cache::{Hierarchy, HitLevel, PrivateAccess};
use baryon_core::baselines::{DiceCache, Hybrid2, MicroSector, OsPaging, SimpleCache, UnisonCache};
use baryon_core::controller::BaryonController;
use baryon_core::ctrl::{MemoryController, Request};
use baryon_core::metrics::RunResult;
use baryon_core::system::{AnyController, ControllerKind, SystemConfig};
use baryon_sim::histogram::Histogram;
use baryon_sim::telemetry::Registry;
use baryon_sim::Cycle;
use baryon_workloads::{by_name, MemoryContents, Op, Scale, TraceGen};
use std::collections::VecDeque;
use std::time::Instant;

/// Ops generated per core per refill (the same grain `System` uses; any
/// value gives the same results).
const LOOKAHEAD: usize = 256;

/// The layers timed around every call, in [`TracedSystem::leaves`] order.
pub const LEAF_NAMES: [&str; 5] = [
    "workloads.next_op",
    "cache.private",
    "cache.shared",
    "core.read",
    "core.writeback",
];
const NEXT_OP: usize = 0;
const PRIVATE: usize = 1;
const SHARED: usize = 2;
const READ: usize = 3;
const WRITEBACK: usize = 4;

fn build_controller(kind: &ControllerKind, scale: Scale) -> AnyController {
    match kind {
        ControllerKind::Baryon(cfg) => {
            AnyController::Baryon(Box::new(BaryonController::new(cfg.clone())))
        }
        ControllerKind::Simple => AnyController::Simple(SimpleCache::new(scale)),
        ControllerKind::Unison => AnyController::Unison(UnisonCache::new(scale)),
        ControllerKind::Dice => AnyController::Dice(DiceCache::new(scale)),
        ControllerKind::Hybrid2 => AnyController::Hybrid2(Hybrid2::new(scale)),
        ControllerKind::MicroSector => AnyController::MicroSector(MicroSector::new(scale)),
        ControllerKind::OsPaging => AnyController::OsPaging(OsPaging::new(scale)),
    }
}

/// A simulated system driven by the benchmark, with every layer call
/// timed.
pub struct TracedSystem {
    cfg: SystemConfig,
    workload: String,
    hierarchy: Hierarchy,
    controller: AnyController,
    contents: MemoryContents,
    gens: Vec<Box<dyn TraceGen>>,
    bufs: Vec<VecDeque<(Op, PrivateAccess)>>,
    core_time: Vec<Cycle>,
    core_insts: Vec<u64>,
    outstanding: Vec<Vec<Cycle>>,
    wb_queue: Vec<Vec<Cycle>>,
    llc_misses: u64,
    read_latency: Histogram,
    /// Calls and nanoseconds per entry of [`LEAF_NAMES`].
    leaves: [(u64, u64); 5],
}

impl TracedSystem {
    /// Builds the system `spec` describes, as `RunSpec::build_system`
    /// does.
    ///
    /// # Errors
    ///
    /// The spec's validation error.
    pub fn new(spec: &RunSpec) -> Result<Self, String> {
        spec.validate()?;
        let scale = Scale {
            divisor: spec.scale,
        };
        let workload = by_name(&spec.workload, scale).ok_or("unknown workload")?;
        let kind = controller_kind(&spec.controller, scale).ok_or("unknown controller")?;
        let mut cfg = SystemConfig::with_controller(scale, kind);
        cfg.warmup_insts = spec.warmup;
        cfg.mlp = spec.mlp as usize;
        let cores = cfg.hierarchy.cores;
        Ok(TracedSystem {
            gens: (0..cores)
                .map(|c| workload.spawn_core(c, cores, spec.seed))
                .collect(),
            controller: build_controller(&cfg.controller, scale),
            hierarchy: Hierarchy::new(cfg.hierarchy),
            contents: workload.contents(spec.seed),
            bufs: vec![VecDeque::new(); cores],
            core_time: vec![0; cores],
            core_insts: vec![0; cores],
            outstanding: vec![Vec::new(); cores],
            wb_queue: vec![Vec::new(); cores],
            llc_misses: 0,
            read_latency: Histogram::new(),
            leaves: [(0, 0); 5],
            workload: workload.name.to_owned(),
            cfg,
        })
    }

    /// The calls timed so far, one entry per layer of [`LEAF_NAMES`].
    pub fn leaves(&self) -> impl Iterator<Item = Folded> + '_ {
        LEAF_NAMES
            .iter()
            .zip(self.leaves)
            .map(|(name, (calls, ns))| Folded { name, calls, ns })
    }

    /// Warm-up, a statistics reset, then `insts` measured instructions
    /// per core — `System::run`.
    pub fn run(&mut self, insts: u64) -> RunResult {
        if self.cfg.warmup_insts > 0 {
            let targets: Vec<u64> = self
                .core_insts
                .iter()
                .map(|i| i + self.cfg.warmup_insts)
                .collect();
            self.run_phase(&targets);
            self.hierarchy.reset_stats();
            self.controller.reset_stats();
            self.llc_misses = 0;
            self.read_latency = Histogram::new();
        }
        let start = self.core_time.clone();
        let insts_before: u64 = self.core_insts.iter().sum();
        let targets: Vec<u64> = self.core_insts.iter().map(|i| i + insts).collect();
        self.run_phase(&targets);
        self.finish(&start, insts_before)
    }

    fn finish(&self, start: &[Cycle], insts_before: u64) -> RunResult {
        let cycles = self
            .core_time
            .iter()
            .zip(start)
            .map(|(t, s)| t - s)
            .max()
            .unwrap_or(0);
        let instructions = self.core_insts.iter().sum::<u64>() - insts_before;
        let serve = self.controller.serve_stats();
        let mut reg = Registry::new();
        self.hierarchy.export(&mut reg);
        let mut ctrl_reg = Registry::new();
        self.controller.export(&mut ctrl_reg);
        let mut serve_reg = Registry::new();
        serve.export(&mut serve_reg);
        ctrl_reg.absorb("serve", &serve_reg);
        reg.absorb("ctrl", &ctrl_reg);
        reg.set_counter("sim.cycles", cycles);
        reg.set_counter("sim.instructions", instructions);
        reg.set_counter("sim.llc_misses", self.llc_misses);
        reg.observe_histogram("sim.read_latency", &self.read_latency);
        RunResult {
            controller: self.controller.name().to_owned(),
            workload: self.workload.clone(),
            total_cycles: cycles,
            instructions,
            llc_misses: self.llc_misses,
            serve,
            read_latency: self.read_latency.clone(),
            telemetry: reg,
            config_generation: 0,
        }
    }

    fn time(&mut self, leaf: usize, since: Instant) {
        let entry = &mut self.leaves[leaf];
        entry.0 += 1;
        entry.1 += since.elapsed().as_nanos() as u64;
    }

    /// Runs the lagging unfinished core until every core reaches its
    /// target.
    fn run_phase(&mut self, targets: &[u64]) {
        let cores = self.core_time.len();
        // The lagging unfinished core goes next (ties: lowest index).
        while let Some(core) = (0..cores)
            .filter(|c| self.core_insts[*c] < targets[*c])
            .min_by_key(|c| self.core_time[*c])
        {
            if self.bufs[core].is_empty() {
                self.refill(targets);
            }
            let (op, private) = self.bufs[core]
                .pop_front()
                .expect("refilled buffer of an unfinished core");
            self.step(core, op, &private);
        }
    }

    /// Tops up every core's lookahead buffer toward its target: one timed
    /// batch of `TraceGen::next_op` calls, then one timed batch of
    /// `Hierarchy::access_private` calls. The two layers' time is summed
    /// per batch, so `calls` counts ops while the clock is read twice per
    /// batch.
    fn refill(&mut self, targets: &[u64]) {
        let mut ops = Vec::with_capacity(LOOKAHEAD);
        for (core, target) in targets.iter().enumerate() {
            let buf = &self.bufs[core];
            let mut insts =
                self.core_insts[core] + buf.iter().map(|(op, _)| op.instructions()).sum::<u64>();
            let room = LOOKAHEAD.saturating_sub(buf.len());
            ops.clear();
            let t = Instant::now();
            let gen = &mut self.gens[core];
            while insts < *target && ops.len() < room {
                let op = gen.next_op();
                insts += op.instructions();
                ops.push(op);
            }
            let generated = ops.len() as u64;
            self.leaves[NEXT_OP].1 += t.elapsed().as_nanos() as u64;
            self.leaves[NEXT_OP].0 += generated;
            let t = Instant::now();
            for op in &ops {
                let private = self.hierarchy.access_private(core, op.addr, op.write);
                self.bufs[core].push_back((*op, private));
            }
            self.leaves[PRIVATE].1 += t.elapsed().as_nanos() as u64;
            self.leaves[PRIVATE].0 += generated;
        }
    }

    fn writeback(&mut self, core: usize, t: Cycle, addr: u64) -> Cycle {
        let since = Instant::now();
        let done = self.controller.writeback(t, addr, &mut self.contents);
        self.time(WRITEBACK, since);
        self.post_writeback(core, t, done)
    }

    /// One op in merge order: `System::step_merged`.
    fn step(&mut self, core: usize, op: Op, private: &PrivateAccess) {
        self.core_insts[core] += op.instructions();
        let mut t = self.core_time[core] + (op.gap as f64 * self.cfg.cpi_nonmem).ceil() as Cycle;
        if op.write {
            self.contents.write_line(op.addr);
        }
        let since = Instant::now();
        let access = self.hierarchy.access_shared(op.addr, op.write, private);
        self.time(SHARED, since);
        for wb in &access.writebacks {
            t = self.writeback(core, t, *wb);
        }
        if access.level == HitLevel::Memory {
            self.llc_misses += 1;
            let since = Instant::now();
            let resp = self.controller.read(
                t + access.latency,
                Request {
                    addr: op.addr,
                    core,
                },
                &mut self.contents,
            );
            self.time(READ, since);
            if !op.write {
                self.read_latency.record(resp.latency);
            }
            if !resp.extra_lines.is_empty() {
                let since = Instant::now();
                let wbs = self.hierarchy.install_llc_lines(&resp.extra_lines);
                self.time(SHARED, since);
                for wb in wbs {
                    t = self.writeback(core, t, wb);
                }
            }
            if op.write {
                t += access.latency;
            } else if self.cfg.mlp <= 1 {
                t += access.latency + resp.latency;
            } else {
                let completion = t + access.latency + resp.latency;
                let window = &mut self.outstanding[core];
                window.retain(|c| *c > t);
                if window.len() >= self.cfg.mlp {
                    let oldest = window.iter().copied().min().expect("window full");
                    t = t.max(oldest);
                    window.retain(|c| *c > t);
                }
                window.push(completion);
                t += access.latency;
            }
        } else {
            t += access.latency;
        }
        self.core_time[core] = t.max(self.core_time[core] + 1);
    }

    /// The store buffer: a full buffer stalls the core until its oldest
    /// posted writeback drains.
    fn post_writeback(&mut self, core: usize, mut t: Cycle, done: Cycle) -> Cycle {
        let cap = self.cfg.store_buffer.max(1);
        let q = &mut self.wb_queue[core];
        q.retain(|c| *c > t);
        if q.len() >= cap {
            let oldest = q.iter().copied().min().expect("buffer full");
            t = t.max(oldest);
            q.retain(|c| *c > t);
        }
        q.push(done);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short(controller: &str, workload: &str) -> RunSpec {
        RunSpec {
            workload: workload.to_owned(),
            controller: controller.to_owned(),
            insts: 4_000,
            warmup: 2_000,
            scale: 2048,
            seed: 11,
            ..RunSpec::default()
        }
    }

    #[test]
    fn traced_loop_reproduces_system_run() {
        for controller in ["baryon", "simple"] {
            for workload in ["505.mcf_r", "ycsb-a"] {
                let spec = short(controller, workload);
                let golden = spec.execute().expect("valid spec").to_json().render();
                let mut traced = TracedSystem::new(&spec).expect("valid spec");
                let result = traced.run(spec.insts).to_json().render();
                assert_eq!(result, golden, "{controller} on {workload}");
                let calls: Vec<u64> = traced.leaves().map(|f| f.calls).collect();
                assert!(calls[NEXT_OP] > 0 && calls[SHARED] > 0 && calls[READ] > 0);
            }
        }
    }

    #[test]
    fn traced_loop_reproduces_runs_without_warmup_and_with_mlp() {
        let mut spec = short("baryon", "pr.twi");
        spec.warmup = 0;
        spec.mlp = 4;
        let golden = spec.execute().expect("valid spec").to_json().render();
        let mut traced = TracedSystem::new(&spec).expect("valid spec");
        assert_eq!(traced.run(spec.insts).to_json().render(), golden);
    }
}
