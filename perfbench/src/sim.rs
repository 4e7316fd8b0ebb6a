//! The `sim-baryon` and `sim-baseline-ckpt` workloads: in-process runs over
//! one fixed registry mix.

use crate::drive::TracedSystem;
use crate::report::Report;
use crate::stats::{self, fnv1a, latency, median, ratio, FNV_OFFSET};
use crate::trace::Tracer;
use baryon_bench::spec::{RunSpec, CHECKPOINT_PREFIX};
use baryon_core::checkpoint::Checkpoint;
use baryon_core::metrics::RunResult;
use baryon_core::system::RunPhase;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The registry mix both sim workloads run, one pass = one run of each.
/// A pointer chase, a streaming stencil, a key-value store and a graph.
pub const MIX: [&str; 4] = ["505.mcf_r", "549.fotonik3d_r", "ycsb-a", "pr.twi"];
/// Capacity scale divisor (the grid cells' and the fleet's scale).
pub const SCALE: u64 = 1024;
/// Measured instructions per core of one mix run.
pub const INSTS: u64 = 60_000;
/// Warm-up instructions per core of one mix run.
pub const WARMUP: u64 = 20_000;
/// Cores of the simulated system (`HierarchyConfig::table1_scaled`).
pub const CORES: u64 = 16;
/// Serve's default checkpoint cadence, in trace operations.
pub const CKPT_EVERY: u64 = 20_000;
/// Rotation members serve keeps per job.
pub const CKPT_KEEP: usize = 2;
/// Measured instructions per core of an interactive job.
pub const INTERACTIVE_INSTS: u64 = 2_000;
/// In-process interactive jobs after each mix run.
const PROBES_PER_RUN: usize = 8;

/// Which sim workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    /// `sim-baryon`: plain runs of the `baryon` family.
    Baryon,
    /// `sim-baseline-ckpt`: `simple` family runs with rotating checkpoints.
    BaselineCkpt,
}

impl SimKind {
    fn family(self) -> &'static str {
        match self {
            SimKind::Baryon => "baryon",
            SimKind::BaselineCkpt => "simple",
        }
    }
}

/// One mix run's spec.
pub fn mix_spec(workload: &str, controller: &str, seed: u64) -> RunSpec {
    RunSpec {
        workload: workload.to_owned(),
        controller: controller.to_owned(),
        insts: INSTS,
        warmup: WARMUP,
        scale: SCALE,
        seed,
        ..RunSpec::default()
    }
}

/// A deterministic per-item seed derived from the benchmark seed.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) % 1_000_000_007
}

/// The `index`-th interactive job: a trivial single `simple` run. Its
/// seed is unique per job so that no two jobs share a result.
pub fn interactive_spec(seed: u64, index: u64) -> RunSpec {
    RunSpec {
        workload: MIX[(index % MIX.len() as u64) as usize].to_owned(),
        controller: "simple".to_owned(),
        insts: INTERACTIVE_INSTS,
        warmup: 0,
        scale: SCALE,
        seed: derive_seed(seed, index),
        ..RunSpec::default()
    }
}

/// Simulated instructions of one run: the measured instructions plus the
/// nominal warm-up of every core.
pub fn simulated_insts(result: &RunResult, spec: &RunSpec) -> u64 {
    result.instructions + spec.warmup * CORES
}

/// One mix pass, untraced. Times are on-CPU seconds of the running
/// thread ([`stats::cpu_s`]) except `wall_s`.
#[derive(Debug, Default, Clone)]
struct Pass {
    setup_s: f64,
    run_s: f64,
    wall_s: f64,
    insts: u64,
    /// On-CPU time of each interactive job run in process.
    probe_ms: Vec<f64>,
}

impl Pass {
    /// What a batch caller pays: set-up and run.
    fn batch_s(&self) -> f64 {
        self.setup_s + self.run_s
    }
}

/// Results to check against the reference: index into the mix, rendered
/// result, and how it was produced.
type Results = Vec<(usize, String, &'static str)>;

fn rotation_path(dir: &Path, ops: u64) -> PathBuf {
    dir.join(format!("{CHECKPOINT_PREFIX}-{ops:020}.ckpt"))
}

/// Checks the rotation directory a finished run left: at most `keep`
/// members, each of which parses.
fn check_rotation(report: &mut Report, dir: &Path) {
    let members: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|entries| entries.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default();
    report.check(members.len() <= CKPT_KEEP, || {
        format!(
            "{} rotation members kept, expected <= {CKPT_KEEP}",
            members.len()
        )
    });
    for path in members {
        let parsed = Checkpoint::read_from(&path);
        report.check(parsed.is_ok(), || {
            format!("checkpoint {} does not parse: {parsed:?}", path.display())
        });
    }
}

/// Runs a sim workload for `seconds` and reports it.
pub fn run(kind: SimKind, seed: u64, seconds: f64, traced: bool, out: &Path) -> Report {
    let specs: Vec<RunSpec> = MIX
        .iter()
        .map(|w| mix_spec(w, kind.family(), seed))
        .collect();
    let mut report = Report::default();
    let ckpt_dir = out.join(format!("ckpt-{}", std::process::id()));
    let (results, traced_ns) = if traced {
        let (results, ns) = traced_window(kind, &specs, seconds, &ckpt_dir, &mut report);
        (results, Some(ns))
    } else {
        let results = untraced_window(kind, seed, &specs, seconds, &ckpt_dir, &mut report);
        (results, None)
    };
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let untraced_ns = verify(&specs, &results, &mut report, traced);
    if let Some(traced_ns) = traced_ns {
        report.note(format!(
            "trace.overhead_pct = traced set-up + merge loop {:.1} ms per pass / untraced RunSpec::execute {:.1} ms",
            traced_ns / 1e6,
            untraced_ns / 1e6
        ));
        report.metric(
            "trace.overhead_pct",
            100.0 * (traced_ns / untraced_ns.max(1.0) - 1.0),
            "%",
        );
    }
    report
}

/// Untraced: the end-to-end metrics.
fn untraced_window(
    kind: SimKind,
    seed: u64,
    specs: &[RunSpec],
    seconds: f64,
    ckpt_dir: &Path,
    report: &mut Report,
) -> Results {
    let mut results = Results::new();
    let mut passes: Vec<Pass> = Vec::new();
    let mut probes: Vec<(RunSpec, Result<String, String>)> = Vec::new();
    let mut peak = 0.0;
    let window = Instant::now();
    while passes.is_empty() || window.elapsed().as_secs_f64() + mean_pass_s(&passes) <= seconds {
        let mut pass = Pass::default();
        for (index, spec) in specs.iter().enumerate() {
            let (w0, c0) = (Instant::now(), stats::cpu_s());
            let system = spec.build_system();
            let setup = stats::cpu_s() - c0;
            let mut run_s = 0.0;
            let outcome = match (kind, system) {
                (_, Err(e)) => Err(e),
                (SimKind::Baryon, Ok(mut system)) => {
                    let c1 = stats::cpu_s();
                    let result = system.run(spec.insts);
                    run_s = stats::cpu_s() - c1;
                    Ok(result)
                }
                (SimKind::BaselineCkpt, Ok(system)) => {
                    drop(system);
                    let c1 = stats::cpu_s();
                    // Right after each step the program has written its
                    // checkpoint, or logged and skipped it.
                    let result =
                        spec.execute_observed(CKPT_EVERY, Some((ckpt_dir, CKPT_KEEP)), &mut |p| {
                            if p.phase != RunPhase::Done {
                                let path = rotation_path(ckpt_dir, p.ops);
                                report.check(path.exists(), || {
                                    format!("checkpoint {} was not written", path.display())
                                });
                            }
                        });
                    // execute_observed builds its own system: take the
                    // separately timed build out of its time.
                    run_s = (stats::cpu_s() - c1 - setup).max(0.0);
                    result
                }
            };
            pass.setup_s += setup;
            pass.run_s += run_s;
            pass.wall_s += w0.elapsed().as_secs_f64();
            match outcome {
                Ok(result) => {
                    pass.insts += simulated_insts(&result, spec);
                    results.push((index, result.to_json().render(), "plain"));
                }
                Err(e) => report.check(false, || format!("{}: {e}", spec.workload)),
            }
            if kind == SimKind::BaselineCkpt {
                check_rotation(report, ckpt_dir);
                let _ = std::fs::remove_dir_all(ckpt_dir);
            }
            // Interactive jobs in process: the floor under the fleet's
            // interactive latency.
            for _ in 0..PROBES_PER_RUN {
                let probe = interactive_spec(seed, probes.len() as u64);
                let c = stats::cpu_s();
                let outcome = probe.execute().map(|r| r.to_json().render());
                let ms = (stats::cpu_s() - c) * 1e3;
                pass.probe_ms
                    .push(if outcome.is_ok() { ms } else { f64::INFINITY });
                probes.push((probe, outcome));
            }
        }
        report.note(format!(
            "pass {}: {:.3} s on CPU ({:.4} s set-up), {:.3} s wall, {:.3} Minst/s on CPU, {:.3} Minst/s wall, interactive p50 {:.3} ms",
            passes.len(),
            pass.batch_s(),
            pass.setup_s,
            pass.wall_s,
            pass.insts as f64 / pass.run_s / 1e6,
            pass.insts as f64 / pass.wall_s / 1e6,
            latency(&pass.probe_ms).map_or(0.0, |l| l.p50)
        ));
        passes.push(pass);
        if passes.len() == 1 {
            // The first pass runs every system of the mix once. Later
            // passes only add heap reuse, whose high-water mark depends
            // on allocator history rather than on the workload.
            peak = stats::peak_rss_mb("self");
        }
    }
    for (probe, got) in &probes {
        let want = probe.execute().map(|r| r.to_json().render());
        report.check(got.is_ok() && *got == want, || {
            format!(
                "interactive probe seed {}: {got:?} differs from RunSpec::execute",
                probe.seed
            )
        });
    }

    // The host alternates between a loaded state and faster spells whose
    // share of a run varies from run to run; the slowest pass is the
    // loaded state, which repeats. Its figures are reported.
    let rate = |p: &Pass| p.insts as f64 / p.run_s;
    let slowest = passes
        .iter()
        .min_by(|a, b| rate(a).total_cmp(&rate(b)))
        .expect("at least one pass");
    let all_probes: Vec<f64> = passes.iter().flat_map(|p| p.probe_ms.clone()).collect();
    let lat = latency(&all_probes).expect("at least one probe");
    report.note(format!(
        "passes: {} of {} runs each; interactive jobs in process over all passes: n={} p50={:.3} ms p{:.1}={:.3} ms",
        passes.len(),
        specs.len(),
        lat.samples,
        lat.p50,
        lat.tail_pct,
        lat.tail
    ));
    report.note(format!(
        "slowest pass: {:.3} Minst/s on CPU, interactive n={}",
        rate(slowest) / 1e6,
        slowest.probe_ms.len()
    ));
    let setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    report.metric("setup_s", median(&setups).unwrap_or(0.0), "s");
    report.metric("sim_minsts_per_s", rate(slowest) / 1e6, "Minst/s");
    report.metric("peak_rss_mb", peak, "MiB");
    report.metric(
        "interactive_p50_ms",
        latency(&slowest.probe_ms).map_or(f64::INFINITY, |l| l.p50),
        "ms",
    );
    report.metric(
        "batch_minsts_per_s",
        slowest.insts as f64 / slowest.batch_s() / 1e6,
        "Minst/s",
    );
    results
}

fn mean_pass_s(passes: &[Pass]) -> f64 {
    passes.iter().map(|p| p.wall_s).sum::<f64>() / passes.len().max(1) as f64
}

/// Checks every recorded result against an untraced `RunSpec::execute` of
/// the same spec, and prints the digest of the reference statistics.
/// Returns the wall time of the reference executions, in ns.
fn verify(specs: &[RunSpec], results: &Results, report: &mut Report, traced: bool) -> f64 {
    let mut digest = FNV_OFFSET;
    let mut reference = Vec::new();
    let t = Instant::now();
    for spec in specs {
        match spec.execute() {
            Ok(r) => {
                let text = r.to_json().render();
                digest = fnv1a(digest, text.as_bytes());
                reference.push(Some(text));
            }
            Err(e) => {
                report.check(false, || format!("reference {}: {e}", spec.workload));
                reference.push(None);
            }
        }
    }
    let untraced_ns = t.elapsed().as_nanos() as f64;
    for (index, got, how) in results {
        let ok = reference[*index].as_deref() == Some(got.as_str());
        report.check(ok, || {
            format!(
                "{how} result of {} on {} differs from RunSpec::execute",
                specs[*index].controller, specs[*index].workload
            )
        });
    }
    report.note(format!(
        "digest {:016x} over {} reference results (seed {}, {})",
        digest,
        specs.len(),
        specs.first().map_or(0, |s| s.seed),
        if traced { "traced run" } else { "untraced run" }
    ));
    untraced_ns
}

/// Traced: the per-layer metrics. Also returns the traced set-up and
/// merge loop time of one pass, in ns.
fn traced_window(
    kind: SimKind,
    specs: &[RunSpec],
    seconds: f64,
    ckpt_dir: &Path,
    report: &mut Report,
) -> (Results, f64) {
    let mut results = Results::new();
    let mut tracer = Tracer::new();
    let mut passes = 0u64;
    let mut snapshot_bytes = 0u64;
    let mut telemetry: Vec<RunResult> = Vec::new();
    let window = Instant::now();
    let mut trace_id = 0;
    while passes == 0
        || window.elapsed().as_secs_f64() * (passes + 1) as f64 / passes as f64 <= seconds
    {
        for (index, spec) in specs.iter().enumerate() {
            trace_id += 1;
            let system = tracer.time("sim.setup", trace_id, None, || TracedSystem::new(spec));
            let mut system = match system {
                Ok(system) => system,
                Err(e) => {
                    report.check(false, || format!("{}: {e}", spec.workload));
                    continue;
                }
            };
            let root = tracer.open("sim.merge", trace_id, None);
            let result = system.run(spec.insts);
            tracer.close(root);
            tracer.fold(root, system.leaves());
            let text = tracer.time("bench.check", trace_id, None, || result.to_json().render());
            results.push((index, text, "traced"));
            if passes == 0 {
                telemetry.push(result);
            }
            if kind == SimKind::BaselineCkpt {
                trace_id += 1;
                match checkpointed_run(&mut tracer, trace_id, spec, ckpt_dir, report) {
                    Ok((result, bytes)) => {
                        snapshot_bytes += bytes;
                        let text = tracer
                            .time("bench.check", trace_id, None, || result.to_json().render());
                        results.push((index, text, "checkpointed"));
                    }
                    Err(e) => report.check(false, || format!("{}: {e}", spec.workload)),
                }
            }
        }
        passes += 1;
    }
    let wall_ns = window.elapsed().as_nanos() as f64;
    let layers = tracer.layers();
    let per_pass = |name: &str| {
        layers.get(name).map_or((0.0, 0.0), |l| {
            (
                l.self_ns as f64 / passes as f64,
                l.calls as f64 / passes as f64,
            )
        })
    };
    for leaf in crate::drive::LEAF_NAMES.iter().chain(&["sim.merge"]) {
        let (self_ns, calls) = per_pass(leaf);
        report.metric(&format!("{leaf}.self_ms"), self_ns / 1e6, "ms");
        if *leaf != "sim.merge" {
            report.metric(
                &format!("{leaf}.ns_per_call"),
                if calls > 0.0 { self_ns / calls } else { 0.0 },
                "ns",
            );
        }
    }
    report.metric("workloads.ops", per_pass("workloads.next_op").1, "count");
    report.metric("core.reads", per_pass("core.read").1, "count");
    report.metric("core.writebacks", per_pass("core.writeback").1, "count");
    telemetry_ratios(report, &telemetry);

    let (serialize_ns, snapshots) = per_pass("ckpt.serialize");
    let (write_ns, _) = per_pass("ckpt.write");
    let per_snapshot = |ns: f64| {
        if snapshots > 0.0 {
            ns / snapshots / 1e6
        } else {
            0.0
        }
    };
    report.metric(
        "ckpt.serialize.ms_per_snapshot",
        per_snapshot(serialize_ns),
        "ms",
    );
    report.metric("ckpt.write.ms_per_snapshot", per_snapshot(write_ns), "ms");
    report.metric(
        "ckpt.bytes_per_snapshot",
        if snapshots > 0.0 {
            snapshot_bytes as f64 / passes as f64 / snapshots
        } else {
            0.0
        },
        "B",
    );
    report.metric("ckpt.snapshots", snapshots, "count");

    let traced_ns = ["sim.setup", "sim.merge"]
        .iter()
        .chain(&crate::drive::LEAF_NAMES)
        .map(|l| per_pass(l).0)
        .sum::<f64>();
    let covered: u64 = layers.values().map(|l| l.self_ns).sum();
    let coverage = 100.0 * covered as f64 / wall_ns;
    report.check((90.0..=110.0).contains(&coverage), || {
        format!("trace coverage {coverage:.2}% is outside 90..110%")
    });
    report.note(format!(
        "trace: {passes} passes, {} spans, {:.1} ms traced wall, {:.1} ms covered",
        tracer.spans().len(),
        wall_ns / 1e6,
        covered as f64 / 1e6
    ));
    for (name, l) in &layers {
        report.note(format!(
            "  {name:<22} calls/pass {:>12.1}  self ms/pass {:>10.3}  share {:>6.2}%",
            l.calls as f64 / passes as f64,
            l.self_ns as f64 / passes as f64 / 1e6,
            100.0 * l.self_ns as f64 / wall_ns
        ));
    }
    report.metric("trace.coverage_pct", coverage, "%");
    report.note(tracer.write_out());
    (results, traced_ns)
}

/// The checkpointed run of the traced `sim-baseline-ckpt` pass: the
/// journaled-shard loop driven through `System::begin`/`advance`, with
/// `System::save_state` (inside `RunSpec::checkpoint_of`) and
/// `Checkpoint::save_rotating` timed per snapshot. Returns the result
/// and the bytes written.
fn checkpointed_run(
    tracer: &mut Tracer,
    trace_id: u64,
    spec: &RunSpec,
    dir: &Path,
    report: &mut Report,
) -> Result<(RunResult, u64), String> {
    let mut system = tracer.time("sim.setup", trace_id, None, || spec.build_system())?;
    let root = tracer.open("ckpt.run", trace_id, None);
    system.begin(spec.insts);
    let mut bytes = 0;
    loop {
        let done = tracer.time("sim.advance", trace_id, Some(root), || {
            system.advance(CKPT_EVERY)
        });
        if done {
            break;
        }
        let ckpt = tracer.time("ckpt.serialize", trace_id, Some(root), || {
            spec.checkpoint_of(&system)
        });
        let written = tracer.time("ckpt.write", trace_id, Some(root), || {
            ckpt.save_rotating(dir, CHECKPOINT_PREFIX, CKPT_KEEP)
        });
        let ops = system.run_ops();
        report.check(written.is_ok() && rotation_path(dir, ops).exists(), || {
            format!("checkpoint at op {ops} was not written: {written:?}")
        });
        if let Ok(path) = written {
            bytes += std::fs::metadata(path).map_or(0, |m| m.len());
        }
    }
    let result = system.finish();
    tracer.close(root);
    tracer.time("bench.check", trace_id, None, || {
        check_rotation(report, dir);
        let _ = std::fs::remove_dir_all(dir);
    });
    Ok((result, bytes))
}

/// Useful-over-attempted ratios from the measured-window telemetry of one
/// pass (the counters reset at the warm-up/measure boundary). Each base is
/// printed beside its ratio.
fn telemetry_ratios(report: &mut Report, runs: &[RunResult]) {
    let sum = |name: &str| runs.iter().map(|r| r.counter(name)).sum::<u64>();
    let ratio_metric =
        |report: &mut Report, name: &str, useful: u64, base: u64, base_name: &str| {
            let value = ratio(useful, base);
            report.note(format!("{name} = {useful} / {base} ({base_name})"));
            report.metric(name, value, "ratio");
        };
    let reads = sum("ctrl.serve.reads");
    let l1 = sum("cache.l1d.read_hits") + sum("cache.l1d.write_hits");
    let l1_all = l1 + sum("cache.l1d.read_misses") + sum("cache.l1d.write_misses");
    ratio_metric(report, "cache.l1d_hit_rate", l1, l1_all, "L1D accesses");
    let l2 = sum("cache.l2.read_hits") + sum("cache.l2.write_hits");
    let l2_all = l2 + sum("cache.l2.read_misses") + sum("cache.l2.write_misses");
    ratio_metric(report, "cache.l2_hit_rate", l2, l2_all, "L2 accesses");
    let insts = sum("sim.instructions");
    report.note(format!(
        "cache.llc_mpki = 1000 * {} / {insts} (measured instructions)",
        sum("sim.llc_misses")
    ));
    report.metric(
        "cache.llc_mpki",
        1000.0 * ratio(sum("sim.llc_misses"), insts),
        "1/kinst",
    );
    ratio_metric(
        report,
        "core.stage_hit_rate",
        sum("ctrl.case1_stage_hits") + sum("ctrl.case2_commit_hits"),
        reads,
        "controller reads",
    );
    let aborts = sum("ctrl.commit_aborts");
    ratio_metric(
        report,
        "core.commit_abort_rate",
        aborts,
        aborts + sum("ctrl.commits"),
        "commit attempts",
    );
    let remap_hits = sum("ctrl.remap.cache_hits");
    ratio_metric(
        report,
        "core.remap_cache_hit_rate",
        remap_hits,
        remap_hits + sum("ctrl.remap.cache_misses"),
        "remap cache lookups",
    );
    ratio_metric(
        report,
        "core.fast_serve_rate",
        sum("ctrl.serve.fast_served"),
        reads,
        "controller reads",
    );
    let useful = sum("ctrl.serve.useful_bytes");
    let moved = sum("ctrl.serve.fast_bytes") + sum("ctrl.serve.slow_bytes");
    report.note(format!(
        "core.bloat_factor = {moved} / {useful} (bytes moved / useful bytes)"
    ));
    report.metric("core.bloat_factor", ratio(moved, useful), "ratio");
    report.metric(
        "compress.decompressions",
        sum("ctrl.decompressions") as f64,
        "count",
    );
    // Sub-blocks per slot over the window's commits; families without
    // compression publish no gauge and report 0.
    let cf: Vec<f64> = runs
        .iter()
        .filter(|r| r.telemetry.gauges().any(|(name, _)| name == "ctrl.avg_cf"))
        .map(|r| r.telemetry.gauge("ctrl.avg_cf"))
        .collect();
    report.metric(
        "compress.avg_cf",
        cf.iter().sum::<f64>() / cf.len().max(1) as f64,
        "ratio",
    );
    let row_hits = sum("ctrl.fast.row_hits");
    ratio_metric(
        report,
        "mem.fast_row_hit_rate",
        row_hits,
        row_hits + sum("ctrl.fast.row_misses"),
        "fast-device row accesses",
    );
    report.note(format!(
        "mem.slow_bytes_per_read = {} / {reads} (controller reads)",
        sum("ctrl.serve.slow_bytes")
    ));
    report.metric(
        "mem.slow_bytes_per_read",
        ratio(sum("ctrl.serve.slow_bytes"), reads),
        "B/read",
    );
}
