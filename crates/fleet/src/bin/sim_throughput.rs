//! `sim_throughput` — the simulator profiling harness.
//!
//! Runs a small matrix of workloads through the `baryon` controller and,
//! interleaved pass for pass, through the `simple` controller on the same
//! workload, and measures simulation throughput (instructions simulated
//! per second of the simulating thread's CPU time). The result document
//! `BENCH_sim_throughput.json` is written at the repository root and
//! carries, per workload, the ops/sec of both controllers and their
//! `baryon`/`simple` ratio, plus a `checkpoint` figure (the first workload
//! with rotating checkpoints) and a `fleet_submit` figure: end-to-end
//! jobs/sec for trivial specs pushed through a live coordinator over real
//! shard processes, and the single-job p50/p99 latency of sequential
//! trivial jobs through that fleet beside the same jobs sent straight to
//! one `baryon-serve` process.
//!
//! The process exits non-zero when any workload's `baryon`/`simple`
//! throughput ratio falls below its floor, when the checkpointed run's
//! result differs from the plain run's, **or** when the fleet's single-job
//! p50 exceeds twice the direct-serve p50:
//!
//! ```text
//! cargo run --release -p baryon-fleet --bin sim_throughput
//! BARYON_BENCH_REPEATS=5 ... sim_throughput
//! ```
//!
//! Every gate is a ratio of two measurements taken in the same run, so
//! host load moves both sides alike; absolute speed is the benchmark
//! package's job. Simulator times are thread CPU time, which leaves out
//! the time other processes held the CPU, and each controller's figure
//! is its fastest of `BARYON_BENCH_REPEATS` passes (default 3); the
//! ratio is the median of the per-pass ratios, each pass timing `baryon`
//! then `simple` back to back. The `fleet_submit` jobs/s figure is
//! informational (no floor): it measures control plane plus scheduling
//! latency across process boundaries. Its latency gate compares two
//! interleaved wall-clock measurements on the same host.

use baryon_bench::spec::RunSpec;
use baryon_core::checkpoint::atomic_write;
use baryon_core::metrics::RunResult;
use baryon_fleet::coordinator::FleetConfig;
use baryon_fleet::harness::{self, LiveFleet};
use baryon_serve::client::Client;
use baryon_sim::json::Json;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The profiling matrix: one workload per access-pattern family, paired
/// with its regression floor on the `baryon`/`simple` ops/sec ratio.
///
/// Each floor is the measured ratio (median of three runs of five passes
/// on a 2-vCPU host: 0.367, 0.446, 0.610, 0.401) scaled by the margin the
/// former absolute floor kept under the committed quiet-host `baryon`
/// figure (3.0 / 10.11, 4.3 / 15.87, 4.0 / 10.42 and 2.9 / 3.99 M ops/s),
/// rounded up: a `baryon` slowdown that would have tripped the old floor
/// on a quiet host trips this one on any host.
const WORKLOADS: [(&str, f64); 4] = [
    ("505.mcf_r", 0.109),
    ("557.xz_r", 0.121),
    ("pr.twi", 0.235),
    ("ycsb-a", 0.292),
];

const SCALE: u64 = 1024;
const INSTS: u64 = 200_000;
const WARMUP: u64 = 40_000;

/// Fleet submit figure: how many trivial jobs, over how many shards.
const FLEET_JOBS: usize = 32;
const FLEET_SHARDS: usize = 2;
/// Sequential trivial jobs timed per target (fleet and direct serve,
/// interleaved) for the single-job latency percentiles.
const LATENCY_JOBS: usize = 24;
/// The latency gate: fleet single-job p50 within this multiple of the
/// direct-serve p50.
const MAX_FLEET_OVER_SERVE: f64 = 2.0;

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn spec(workload: &str, controller: &str) -> RunSpec {
    RunSpec {
        workload: workload.to_owned(),
        controller: controller.to_owned(),
        insts: INSTS,
        warmup: WARMUP,
        scale: SCALE,
        seed: 42,
        mlp: 1,
    }
}

/// Microseconds the calling thread has spent on a CPU
/// (`CLOCK_THREAD_CPUTIME_ID`): unlike wall time, it does not grow while
/// other processes hold the CPU.
#[cfg(target_os = "linux")]
fn thread_cpu_us() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec laid out as the C struct
    // on 64-bit Linux, and clock_gettime writes only through that pointer.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_THREAD_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as f64 * 1e6 + ts.tv_nsec as f64 / 1e3
}

/// Wall time since the first call, where no thread CPU clock is known.
#[cfg(not(target_os = "linux"))]
fn thread_cpu_us() -> f64 {
    static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e6
}

/// One timed run: the simulating thread's CPU time and the run's result
/// (identical across runs of one spec — the simulation is deterministic).
struct Timed {
    cpu_us: f64,
    result: RunResult,
}

impl Timed {
    fn ops_per_sec(&self) -> f64 {
        if self.cpu_us <= 0.0 {
            0.0
        } else {
            self.result.instructions as f64 / (self.cpu_us / 1e6)
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("cpu_us", Json::from(self.cpu_us)),
            ("ops_per_sec", Json::from(self.ops_per_sec())),
        ])
    }
}

/// Runs `s` once, timing it on the thread CPU clock.
fn time_once(s: &RunSpec) -> Result<Timed, String> {
    let t = thread_cpu_us();
    let result = s.execute()?;
    Ok(Timed {
        cpu_us: thread_cpu_us() - t,
        result,
    })
}

/// Times `workload` under `baryon` and `simple`, back to back in each of
/// `repeats` passes after one untimed pass that warms caches and the page
/// allocator. Returns each controller's fastest pass and the median of
/// the per-pass `baryon`/`simple` ops/sec ratios.
fn run_pair(workload: &str, repeats: u64) -> Result<(Timed, Timed, f64), String> {
    let (b, s) = (spec(workload, "baryon"), spec(workload, "simple"));
    b.execute()?;
    s.execute()?;
    let (mut baryon, mut simple) = (Vec::new(), Vec::new());
    for _ in 0..repeats {
        baryon.push(time_once(&b)?);
        simple.push(time_once(&s)?);
    }
    let mut ratios: Vec<f64> = baryon
        .iter()
        .zip(&simple)
        .map(|(b, s)| b.ops_per_sec() / s.ops_per_sec())
        .collect();
    ratios.sort_by(f64::total_cmp);
    let fastest = |passes: Vec<Timed>| {
        passes
            .into_iter()
            .min_by(|x, y| x.cpu_us.total_cmp(&y.cpu_us))
            .expect("at least one pass")
    };
    Ok((fastest(baryon), fastest(simple), ratios[ratios.len() / 2]))
}

fn overhead_pct(base_us: f64, us: f64) -> f64 {
    if base_us <= 0.0 {
        0.0
    } else {
        100.0 * (us - base_us) / base_us
    }
}

/// Times one `baryon` workload with periodic checkpointing enabled, for
/// the `checkpoint` section of the result document. Returns the least CPU
/// time, the run result, the number of checkpoint files left on disk by
/// the final repeat, and the number of checkpoints each run wrote
/// (recovered from the newest checkpoint's op counter).
fn run_timed_checkpointed(
    workload: &str,
    every_ops: u64,
    keep: usize,
    repeats: u64,
) -> Result<(Timed, usize, u64), String> {
    let s = spec(workload, "baryon");
    let dir =
        std::env::temp_dir().join(format!("baryon-sim-throughput-ckpt-{}", std::process::id()));
    // Reset the directory once, before any timing: tearing it down inside
    // the loop made every timed repeat recreate the directory and its
    // checkpoint files cold, charging ~25% of filesystem setup cost to
    // "checkpoint overhead". The run is deterministic, so repeats
    // overwrite the same file names along the same warm path instead.
    let _ = std::fs::remove_dir_all(&dir);
    let mut result = None;
    let mut cpu_us = f64::INFINITY;
    let mut files = 0;
    for _ in 0..=repeats {
        // First pass warms caches and populates the directory (untimed),
        // like `run_pair`.
        let t = thread_cpu_us();
        let r = s.execute_with_checkpoints(&dir, every_ops, keep)?;
        if result.is_some() {
            cpu_us = cpu_us.min(thread_cpu_us() - t);
        }
        files = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
        result = Some(r);
    }
    let written =
        baryon_core::checkpoint::Checkpoint::latest_in(&dir, baryon_bench::spec::CHECKPOINT_PREFIX)
            .ok()
            .flatten()
            .and_then(|p| baryon_core::checkpoint::Checkpoint::read_from(&p).ok())
            .map(|c| c.ops / every_ops.max(1))
            .unwrap_or(0);
    let _ = std::fs::remove_dir_all(&dir);
    Ok((
        Timed {
            cpu_us,
            result: result.expect("at least one run"),
        },
        files,
        written,
    ))
}

/// Blocks on job `id`'s event stream until its `end` line, which must
/// report `done` — completion is pushed, never polled. Works against a
/// coordinator and a plain serve process alike.
fn await_done(client: &Client, id: u64) -> Result<(), String> {
    match client.await_end(id) {
        Ok(state) if state == "done" => Ok(()),
        Ok(state) => Err(format!("job {id} ended as {state}")),
        Err(e) => Err(format!("job {id} event stream: {e}")),
    }
}

/// Nearest-rank `(p50, p99)` in milliseconds of latencies in microseconds.
fn p50_p99_ms(mut us: Vec<f64>) -> (f64, f64) {
    us.sort_by(f64::total_cmp);
    let at = |p: f64| us[((p * us.len() as f64).ceil() as usize).clamp(1, us.len()) - 1] / 1e3;
    (at(0.50), at(0.99))
}

/// The `fleet_submit` figure, measuring the control plane rather than the
/// simulator with trivial single-run specs:
/// - jobs/s: a burst of [`FLEET_JOBS`] submitted back to back through a
///   live coordinator over real shard processes (admission, hash-routing,
///   dispatch, execution, completion push, settle), each awaited on its
///   event stream;
/// - latency: [`LATENCY_JOBS`] sequential jobs through the fleet,
///   interleaved one for one with the same job sent to a standalone
///   journaled `baryon-serve` process (this binary in shard mode), with
///   the pass flag for the fleet-p50-within-2×-serve gate.
fn fleet_submit_figure() -> Result<(Json, bool), String> {
    let launcher = harness::self_launcher(2, FLEET_JOBS.max(16))
        .map_err(|e| format!("fleet launcher: {e}"))?;
    let fleet = LiveFleet::boot(
        "sim-throughput-fleet",
        FleetConfig {
            shards: FLEET_SHARDS,
            workers_per_shard: 2,
            shard_queue_depth: FLEET_JOBS.max(16),
            queue_cap: FLEET_JOBS.max(16),
            // The whole burst comes from one client; admission control is
            // not what this figure measures.
            max_in_flight_per_client: FLEET_JOBS,
            ..FleetConfig::default()
        },
        launcher.clone(),
    )?;
    let serve_dir = fleet.journal_root.join("direct-serve");
    std::fs::create_dir_all(&serve_dir).map_err(|e| format!("serve journal: {e}"))?;
    let (mut serve_child, serve_addr): (_, SocketAddr) = launcher
        .spawn(&serve_dir, None)
        .map_err(|e| format!("direct serve spawn: {e}"))?;
    let client = Client::new(fleet.addr).read_timeout(Duration::from_secs(30));
    let serve_client = Client::new(serve_addr).read_timeout(Duration::from_secs(30));

    // Trivial spec: the cheapest meaningful run, so wall time is
    // dominated by coordination rather than simulation.
    let trivial = RunSpec {
        workload: "ycsb-a".to_owned(),
        controller: "simple".to_owned(),
        insts: 2_000,
        warmup: 500,
        scale: SCALE,
        seed: 42,
        mlp: 1,
    }
    .to_json()
    .render();

    let outcome = (|| -> Result<(f64, Vec<f64>, Vec<f64>), String> {
        let t = Instant::now();
        let ids = (0..FLEET_JOBS)
            .map(|_| client.submit_job(&trivial))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("submit: {e}"))?;
        for id in ids {
            await_done(&client, id)?;
        }
        let burst_us = t.elapsed().as_secs_f64() * 1e6;
        let (mut fleet_us, mut serve_us) = (Vec::new(), Vec::new());
        for _ in 0..LATENCY_JOBS {
            for (target, samples) in [(&client, &mut fleet_us), (&serve_client, &mut serve_us)] {
                let t = Instant::now();
                let id = target
                    .submit_job(&trivial)
                    .map_err(|e| format!("submit: {e}"))?;
                await_done(target, id)?;
                samples.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        Ok((burst_us, fleet_us, serve_us))
    })();

    let _ = serve_client.request("POST", "/v1/shutdown", None);
    let _ = serve_child.wait();
    fleet.finish()?;
    let (wall_us, fleet_us, serve_us) = outcome?;
    let jobs_per_sec = FLEET_JOBS as f64 / (wall_us / 1e6);
    let (fleet_p50, fleet_p99) = p50_p99_ms(fleet_us);
    let (serve_p50, serve_p99) = p50_p99_ms(serve_us);
    let pass = fleet_p50 <= MAX_FLEET_OVER_SERVE * serve_p50;
    println!(
        "fleet_submit  {FLEET_JOBS} trivial jobs over {FLEET_SHARDS} shards: {jobs_per_sec:.1} jobs/s; \
         single job p50/p99 fleet {fleet_p50:.2}/{fleet_p99:.2} ms, serve {serve_p50:.2}/{serve_p99:.2} ms \
         [{}]",
        if pass { "ok" } else { "FAIL" },
    );
    let doc = Json::obj([
        ("shards", Json::from(FLEET_SHARDS as u64)),
        ("jobs", Json::from(FLEET_JOBS as u64)),
        ("wall_us", Json::from(wall_us)),
        ("jobs_per_sec", Json::from(jobs_per_sec)),
        ("latency_jobs", Json::from(LATENCY_JOBS as u64)),
        ("fleet_p50_ms", Json::from(fleet_p50)),
        ("fleet_p99_ms", Json::from(fleet_p99)),
        ("serve_p50_ms", Json::from(serve_p50)),
        ("serve_p99_ms", Json::from(serve_p99)),
        ("max_fleet_over_serve", Json::from(MAX_FLEET_OVER_SERVE)),
        ("latency_pass", Json::Bool(pass)),
    ]);
    Ok((doc, pass))
}

fn out_path() -> PathBuf {
    // crates/fleet -> repository root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sim_throughput.json")
}

fn main() -> ExitCode {
    // This binary doubles as its own fleet shard for the `fleet_submit`
    // section (re-invoked with `--shard`).
    if let Some(code) = harness::maybe_run_shard() {
        return code;
    }
    let repeats = env_u64("BARYON_BENCH_REPEATS", 3).max(1);

    let mut rows = Vec::new();
    let mut first_baryon: Option<Timed> = None;
    let mut floor_failures = Vec::new();
    for (workload, floor) in WORKLOADS {
        let (baryon, simple, ratio) = match run_pair(workload, repeats) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("sim_throughput: {workload}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let floor_pass = ratio >= floor;
        if !floor_pass {
            floor_failures.push(format!(
                "{workload}: baryon/simple ratio {ratio:.3} below floor {floor}"
            ));
        }
        println!(
            "{workload:<12} baryon {:>9.0} ops/s  simple {:>9.0} ops/s  ratio {ratio:.3}  floor {floor} [{}]",
            baryon.ops_per_sec(),
            simple.ops_per_sec(),
            if floor_pass { "ok" } else { "FAIL" },
        );
        rows.push(Json::obj([
            ("workload", Json::from(workload)),
            ("instructions", Json::from(baryon.result.instructions)),
            ("baryon", baryon.to_json()),
            ("simple", simple.to_json()),
            ("ratio", Json::from(ratio)),
            ("ratio_floor", Json::from(floor)),
            ("floor_pass", Json::Bool(floor_pass)),
        ]));
        first_baryon.get_or_insert(baryon);
    }

    // Checkpoint overhead: the first workload once more with periodic
    // checkpointing, against its plain `baryon` timing. The result must
    // be bit-identical — checkpointing observes the run, it never
    // perturbs it — so a mismatch is a hard failure, not a statistic.
    let ckpt_every = env_u64("BARYON_BENCH_CHECKPOINT_EVERY", 25_000);
    let ckpt_keep = 2;
    let (ckpt, ckpt_files, ckpt_written) =
        match run_timed_checkpointed(WORKLOADS[0].0, ckpt_every, ckpt_keep, repeats) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("sim_throughput: checkpointed {}: {e}", WORKLOADS[0].0);
                return ExitCode::FAILURE;
            }
        };
    let baseline = first_baryon.expect("at least one workload timed");
    if ckpt.result != baseline.result {
        eprintln!(
            "sim_throughput: checkpointed run of {} diverged from the plain run",
            WORKLOADS[0].0
        );
        return ExitCode::FAILURE;
    }
    let ckpt_oh = overhead_pct(baseline.cpu_us, ckpt.cpu_us);
    // The relative overhead is dominated by the bench's deliberately
    // extreme cadence (a full state snapshot every few milliseconds of
    // host time); the cost per checkpoint is the portable number.
    let per_ckpt_ms = if ckpt_written > 0 {
        (ckpt.cpu_us - baseline.cpu_us) / 1e3 / ckpt_written as f64
    } else {
        0.0
    };
    println!(
        "{:<12} checkpointing every {ckpt_every} ops: {:>9.0} ops/s  overhead {ckpt_oh:+.2}%  \
         ({ckpt_written} snapshots, {per_ckpt_ms:.2} ms each, {ckpt_files} files kept)",
        WORKLOADS[0].0,
        ckpt.ops_per_sec(),
    );
    let checkpoint_doc = Json::obj([
        ("workload", Json::from(WORKLOADS[0].0)),
        ("every_ops", Json::from(ckpt_every)),
        ("keep", Json::from(ckpt_keep as u64)),
        ("cpu_us", Json::from(ckpt.cpu_us)),
        ("ops_per_sec", Json::from(ckpt.ops_per_sec())),
        ("overhead_pct", Json::from(ckpt_oh)),
        ("checkpoints_written", Json::from(ckpt_written)),
        ("per_checkpoint_ms", Json::from(per_ckpt_ms)),
        ("files_on_disk", Json::from(ckpt_files as u64)),
        ("result_matches", Json::Bool(true)),
    ]);

    // Control-plane throughput: trivial jobs through a live coordinator
    // over real shard processes.
    let (fleet_doc, fleet_latency_pass) = match fleet_submit_figure() {
        Ok(figure) => figure,
        Err(e) => {
            eprintln!("sim_throughput: fleet_submit: {e}");
            return ExitCode::FAILURE;
        }
    };

    let pass = floor_failures.is_empty() && fleet_latency_pass;
    let doc = Json::obj([
        ("bench", Json::from("sim_throughput")),
        ("controllers", Json::from("baryon vs simple")),
        ("clock", Json::from("thread_cpu")),
        ("scale", Json::from(SCALE)),
        ("insts", Json::from(INSTS)),
        ("warmup", Json::from(WARMUP)),
        ("repeats", Json::from(repeats)),
        ("pass", Json::from(pass)),
        ("checkpoint", checkpoint_doc),
        ("fleet_submit", fleet_doc),
        ("workloads", Json::Arr(rows)),
    ]);

    let path = out_path();
    let mut body = doc.render();
    body.push('\n');
    // Atomic (temp file + rename) so a crash mid-write never leaves a
    // torn result document for CI to misread.
    if let Err(e) = atomic_write(&path, body.as_bytes()) {
        eprintln!("sim_throughput: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("-> {}", path.display());
    let mut failed = false;
    for f in &floor_failures {
        eprintln!("sim_throughput: regression: {f}");
        failed = true;
    }
    if !fleet_latency_pass {
        eprintln!(
            "sim_throughput: fleet single-job p50 exceeds {MAX_FLEET_OVER_SERVE}x the direct-serve p50"
        );
        failed = true;
    }
    if failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
