//! The `jobs-fleet` workload: a journaled 2-shard fleet driven over HTTP
//! by two closed-loop client threads, one sending interactive singles and
//! one sending batch grids.

use crate::report::Report;
use crate::sim::{derive_seed, interactive_spec, CORES, MIX, SCALE};
use crate::stats::{self, fnv1a, latency, median, FNV_OFFSET};
use crate::trace::Tracer;
use baryon_bench::spec::{GridSpec, JobSpec, RunSpec};
use baryon_fleet::coordinator::{Fleet, FleetConfig};
use baryon_fleet::shard::{route, ShardLauncher};
use baryon_serve::client::Client;
use baryon_serve::{ServeConfig, Server};
use baryon_sim::json::{self, Json};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
const WORKERS_PER_SHARD: usize = 1;
/// Fleets bound per run to time set-up; the last one serves the window.
const SETUPS: usize = 15;
/// Measured instructions per core of a batch grid cell.
const BATCH_INSTS: u64 = 12_000;
/// Warm-up instructions per core of a batch grid cell.
const BATCH_WARMUP: u64 = 3_000;
/// How long any one request may take before the run gives up on it.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

/// The fleet's per-layer metrics, with units.
pub const PER_LAYER: [(&str, &str); 13] = [
    ("fleet.submit_ms.p50", "ms"),
    ("fleet.submit_ms.p99", "ms"),
    ("fleet.run_ms.p50", "ms"),
    ("fleet.run_ms.p99", "ms"),
    ("fleet.overhead_ms.p50", "ms"),
    ("fleet.overhead_ms.p99", "ms"),
    ("fleet.interactive_samples", "count"),
    ("fleet.dispatch.requeued", "count"),
    ("fleet.shard.reply_errors", "count"),
    ("fleet.jobs.rejected_queue", "count"),
    ("fleet.jobs.rejected_quota", "count"),
    ("serve.ckpt.quarantined", "count"),
    ("serve.workers.utilization", "ratio"),
];

/// The `j`-th batch job: two of the mix workloads (rotating) under
/// `simple` and `baryon`, four cells, each long enough to cross the
/// shard's checkpoint cadence. Larger grids keep both shards busy and push
/// most interactive jobs behind batch cells, so that the interactive
/// median flips between the poller's 100 ms and 200 ms modes.
pub fn batch_grid(seed: u64, j: u64) -> GridSpec {
    let first = (j % MIX.len() as u64) as usize;
    GridSpec {
        workloads: vec![
            MIX[first].to_owned(),
            MIX[(first + 1) % MIX.len()].to_owned(),
        ],
        controllers: vec!["simple".to_owned(), "baryon".to_owned()],
        base: RunSpec {
            insts: BATCH_INSTS,
            warmup: BATCH_WARMUP,
            scale: SCALE,
            seed: derive_seed(seed, 1_000_000 + j),
            ..RunSpec::default()
        },
    }
}

/// Shard mode: `<exe> --shard --port=P --workers=N --queue-depth=N
/// --journal-dir=DIR`, the `ShardLauncher` spawn contract. Besides
/// announcing `ADDR <addr>` on stdout, the shard writes its address and
/// process id to `DIR.addr`, so the benchmark can ask each shard directly
/// for its health, the run time it recorded per job, and its memory.
pub fn run_shard(flags: &[String]) -> ExitCode {
    let mut cfg = ServeConfig {
        port: 0,
        ..ServeConfig::default()
    };
    for flag in flags {
        let parsed = match flag.split_once('=') {
            Some(("--port", v)) => v.parse().map(|p| cfg.port = p).is_ok(),
            Some(("--workers", v)) => v.parse().map(|w| cfg.workers = w).is_ok(),
            Some(("--queue-depth", v)) => v.parse().map(|q| cfg.queue_depth = q).is_ok(),
            Some(("--journal-dir", v)) => {
                cfg.journal_dir = Some(PathBuf::from(v));
                true
            }
            _ => false,
        };
        if !parsed {
            eprintln!("shard mode: unsupported flag {flag:?}");
            return ExitCode::from(2);
        }
    }
    let Some(journal) = cfg.journal_dir.clone() else {
        eprintln!("shard mode: --journal-dir is required");
        return ExitCode::from(2);
    };
    let server = match Server::bind(cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("shard cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr_file = addr_path(&journal);
    let tmp = addr_file.with_extension("addr.tmp");
    let written = std::fs::write(
        &tmp,
        format!("{}\n{}\n", server.local_addr(), std::process::id()),
    )
    .and_then(|()| std::fs::rename(&tmp, &addr_file));
    if let Err(e) = written {
        eprintln!("shard cannot write {}: {e}", addr_file.display());
        return ExitCode::FAILURE;
    }
    println!("ADDR {}", server.local_addr());
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("shard server error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn addr_path(journal_dir: &Path) -> PathBuf {
    journal_dir.with_extension("addr")
}

/// Line `line` of the shard's address file: 0 is its address, 1 its pid.
fn shard_info(root: &Path, shard: usize, line: usize) -> Option<String> {
    let text = std::fs::read_to_string(addr_path(&root.join(format!("shard{shard}")))).ok()?;
    Some(text.lines().nth(line)?.trim().to_owned())
}

fn shard_addr(root: &Path, shard: usize) -> Option<SocketAddr> {
    shard_info(root, shard, 0)?.parse().ok()
}

fn client(addr: SocketAddr) -> Client {
    Client::new(addr).read_timeout(REQUEST_TIMEOUT)
}

fn get<'a>(doc: &'a Json, key: &str) -> Option<&'a Json> {
    match doc {
        Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn get_u64(doc: &Json, key: &str) -> Option<u64> {
    match get(doc, key)? {
        Json::U64(n) => Some(*n),
        _ => None,
    }
}

fn get_str<'a>(doc: &'a Json, key: &str) -> Option<&'a str> {
    match get(doc, key)? {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

fn get_f64(doc: &Json, key: &str) -> Option<f64> {
    match get(doc, key)? {
        Json::U64(n) => Some(*n as f64),
        Json::I64(n) => Some(*n as f64),
        Json::F64(x) => Some(*x),
        _ => None,
    }
}

/// A bound fleet serving on its own thread.
struct Running {
    addr: SocketAddr,
    root: PathBuf,
    serving: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Running {
    /// `POST /v1/shutdown`, then waits for the coordinator (which stops
    /// and reaps its shards).
    fn stop(self) -> Result<(), String> {
        let _ = client(self.addr).request("POST", "/v1/shutdown", None);
        let joined = self.serving.join();
        let _ = std::fs::remove_dir_all(&self.root);
        match joined {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("coordinator stopped with {e}")),
            Err(_) => Err("coordinator thread panicked".to_owned()),
        }
    }
}

/// `Fleet::bind` through the first healthy reply from every shard.
fn bind(root: PathBuf) -> Result<(Running, f64), String> {
    let _ = std::fs::remove_dir_all(&root);
    let program = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let launcher = ShardLauncher {
        program,
        prefix_args: vec!["--shard".to_owned()],
        workers: WORKERS_PER_SHARD,
        queue_depth: 16,
        policy_path: None,
        extra_env: Vec::new(),
    };
    let t = Instant::now();
    let fleet = Fleet::bind(
        FleetConfig {
            port: 0,
            shards: SHARDS,
            workers_per_shard: WORKERS_PER_SHARD,
            shard_queue_depth: 16,
            queue_cap: 64,
            max_in_flight_per_client: 4,
            journal_root: root.clone(),
        },
        launcher,
    )
    .map_err(|e| format!("fleet bind: {e}"))?;
    let addr = fleet.local_addr();
    let serving = std::thread::spawn(move || fleet.run());
    let running = Running {
        addr,
        root,
        serving,
    };
    let deadline = Instant::now() + REQUEST_TIMEOUT;
    for shard in 0..SHARDS {
        loop {
            let healthy =
                shard_addr(&running.root, shard).is_some_and(|a| Client::new(a).healthz().is_ok());
            if healthy {
                break;
            }
            if Instant::now() > deadline {
                let _ = running.stop();
                return Err(format!("shard {shard} never answered /v1/healthz"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    Ok((running, t.elapsed().as_secs_f64()))
}

/// What one job's client saw.
#[derive(Debug, Clone)]
struct JobRecord {
    spec: JobSpec,
    /// Fleet job id (0 when refused).
    id: u64,
    submit_s: f64,
    submitted_s: f64,
    end_s: f64,
    fetched_s: f64,
    /// `Err` for a refused or failed job.
    result: Result<String, String>,
    /// Times (window seconds) at which batch cells were reported done.
    cells_done_at: Vec<f64>,
    /// Shard-reported run time, when traced.
    run_us: Option<u64>,
}

impl JobRecord {
    fn latency_ms(&self) -> f64 {
        match self.result {
            Ok(_) => (self.end_s - self.submit_s) * 1e3,
            Err(_) => f64::INFINITY,
        }
    }
}

/// One closed-loop job: submit, wait for the `end` event, fetch.
fn one_job(addr: SocketAddr, spec: JobSpec, window: Instant) -> JobRecord {
    let at = || window.elapsed().as_secs_f64();
    let mut record = JobRecord {
        spec,
        id: 0,
        submit_s: at(),
        submitted_s: 0.0,
        end_s: 0.0,
        fetched_s: 0.0,
        result: Err(String::new()),
        cells_done_at: Vec::new(),
        run_us: None,
    };
    let body = record.spec.to_json().render();
    let accepted = client(addr).request("POST", "/v1/jobs", Some(&body));
    record.submitted_s = at();
    let id = match accepted {
        Ok(r) if r.status == 202 => json::parse(&r.body).ok().and_then(|d| get_u64(&d, "id")),
        Ok(r) => {
            record.result = Err(format!("refused: {} {}", r.status, r.body));
            return record;
        }
        Err(e) => {
            record.result = Err(format!("submit failed: {e}"));
            return record;
        }
    };
    let Some(id) = id else {
        record.result = Err("202 without an id".to_owned());
        return record;
    };
    record.id = id;
    let mut end_state = None;
    let mut cells_done = 0;
    let streamed = client(addr).stream(&format!("/v1/jobs/{id}/events"), &mut |line| {
        let Ok(doc) = json::parse(line) else {
            return;
        };
        match get_str(&doc, "event") {
            Some("end") => {
                record.end_s = at();
                end_state = get_str(&doc, "state").map(str::to_owned);
            }
            Some("progress") => {
                let done = get_u64(&doc, "cells_done").unwrap_or(0);
                let total = get_u64(&doc, "cells_total").unwrap_or(0);
                while total > 1 && cells_done < done {
                    cells_done += 1;
                    record.cells_done_at.push(at());
                }
            }
            _ => {}
        }
    });
    if let Err(e) = streamed {
        record.result = Err(format!("event stream failed: {e}"));
        return record;
    }
    let fetched = client(addr).request("GET", &format!("/v1/jobs/{id}"), None);
    record.fetched_s = at();
    record.result = match (end_state.as_deref(), fetched) {
        (Some("done"), Ok(r)) if r.status == 200 => json::parse(&r.body)
            .ok()
            .and_then(|doc| get(&doc, "result").map(Json::render))
            .ok_or_else(|| "status without a result".to_owned()),
        (state, Ok(r)) => Err(format!("job ended {state:?}: {}", r.body)),
        (state, Err(e)) => Err(format!("job ended {state:?}, fetch failed: {e}")),
    };
    if let JobSpec::Grid(grid) = &record.spec {
        // Cells the stream did not report one by one landed with the end.
        while (record.cells_done_at.len() as u64)
            < (grid.workloads.len() * grid.controllers.len()) as u64
            && record.result.is_ok()
        {
            record.cells_done_at.push(record.end_s);
        }
    }
    record
}

/// Finds the shard's own record of a finished single run and returns the
/// `wall_us` it reported. Shard-local ids rise in dispatch order, and the
/// interactive thread has one job in flight, so each shard is scanned
/// forward from the last match.
fn shard_run_us(root: &Path, cursors: &mut [u64], fleet_id: u64, spec_json: &str) -> Option<u64> {
    let preferred = route(fleet_id, SHARDS);
    for shard in (0..SHARDS).map(|k| (preferred + k) % SHARDS) {
        let addr = shard_addr(root, shard)?;
        let mut k = cursors[shard].max(1);
        loop {
            let r = client(addr)
                .request("GET", &format!("/v1/jobs/{k}"), None)
                .ok()?;
            if r.status != 200 {
                break;
            }
            let doc = json::parse(&r.body).ok()?;
            if get(&doc, "spec").map(Json::render).as_deref() == Some(spec_json) {
                cursors[shard] = k + 1;
                return get_u64(&doc, "wall_us");
            }
            k += 1;
        }
    }
    None
}

fn counters(addr: SocketAddr) -> Option<Json> {
    let r = client(addr).request("GET", "/v1/metrics", None).ok()?;
    json::parse(&r.body).ok()
}

/// A counter of the fleet's `/v1/metrics` document summed over every
/// name that equals `name` or ends with `.name` (the shards' copies).
fn counter_sum(doc: &Json, name: &str) -> f64 {
    let Some(Json::Obj(pairs)) = get(doc, "counters") else {
        return 0.0;
    };
    let suffix = format!(".{name}");
    pairs
        .iter()
        .filter(|(k, _)| k == name || k.ends_with(&suffix))
        .filter_map(|(_, v)| match v {
            Json::U64(n) => Some(*n as f64),
            _ => None,
        })
        .sum()
}

/// Total shard job time (µs) in the shards' job-latency summaries.
fn busy_us(doc: &Json) -> f64 {
    let Some(Json::Obj(pairs)) = get(doc, "summaries") else {
        return 0.0;
    };
    pairs
        .iter()
        .filter(|(k, _)| k.ends_with(".serve.job_latency_us"))
        .map(|(_, v)| get_f64(v, "count").unwrap_or(0.0) * get_f64(v, "mean").unwrap_or(0.0))
        .sum()
}

/// Runs the fleet workload for `seconds` and reports it.
pub fn run(seed: u64, seconds: f64, traced: bool, out: &Path) -> Report {
    let mut report = Report::default();
    let base = out.join(format!("fleet-{}", std::process::id()));
    let mut setups = Vec::new();
    let mut fleet = None;
    let setup_ticks = stats::cpu_ticks();
    for k in 0..SETUPS {
        match bind(base.join(format!("bind{k}"))) {
            Ok((running, setup_s)) => {
                setups.push(setup_s);
                if k + 1 < SETUPS {
                    if let Err(e) = running.stop() {
                        report.check(false, || e);
                    }
                } else {
                    fleet = Some(running);
                }
            }
            Err(e) => {
                report.check(false, || e);
                break;
            }
        }
    }
    let setup_steal = stats::steal_share(&setup_ticks, &stats::cpu_ticks());
    let Some(fleet) = fleet else {
        let _ = std::fs::remove_dir_all(&base);
        return report;
    };
    let addr = fleet.addr;
    let root = fleet.root.clone();
    let before = counters(addr);
    let ticks0 = stats::cpu_ticks();
    let window = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    let ((interactive, lookup), batch, after, ticks1) = std::thread::scope(|s| {
        let interactive = s.spawn(|| {
            let mut jobs = Vec::new();
            let mut cursors = [0u64; SHARDS];
            let mut lookup = Duration::ZERO;
            while window.elapsed() < deadline {
                let spec = interactive_spec(seed, jobs.len() as u64);
                let spec_json = JobSpec::Run(spec.clone()).to_json().render();
                let mut job = one_job(addr, JobSpec::Run(spec), window);
                if traced && job.result.is_ok() {
                    let t = Instant::now();
                    job.run_us = shard_run_us(&root, &mut cursors, job.id, &spec_json);
                    lookup += t.elapsed();
                }
                if job.result.is_err() {
                    std::thread::sleep(Duration::from_millis(10));
                }
                jobs.push(job);
            }
            (jobs, lookup)
        });
        let batch = s.spawn(|| {
            let mut jobs = Vec::new();
            while window.elapsed() < deadline {
                let grid = batch_grid(seed, jobs.len() as u64);
                let job = one_job(addr, JobSpec::Grid(grid), window);
                if job.result.is_err() {
                    std::thread::sleep(Duration::from_millis(10));
                }
                jobs.push(job);
            }
            jobs
        });
        std::thread::sleep(deadline.saturating_sub(window.elapsed()));
        let ticks1 = stats::cpu_ticks();
        let after = counters(addr);
        (
            interactive.join().expect("interactive client panicked"),
            batch.join().expect("batch client panicked"),
            after,
            ticks1,
        )
    });
    // The largest fleet process: a shard (simulation systems, its job
    // table) or the coordinator with the client.
    let peak = (0..SHARDS)
        .filter_map(|shard| shard_info(&root, shard, 1))
        .map(|pid| stats::peak_rss_mb(&pid))
        .fold(stats::peak_rss_mb("self"), f64::max);
    if let Err(e) = fleet.stop() {
        report.check(false, || e);
    }
    let _ = std::fs::remove_dir_all(&base);

    verify(&interactive, &batch, &mut report);
    let lat = latency(
        &interactive
            .iter()
            .map(JobRecord::latency_ms)
            .collect::<Vec<_>>(),
    );
    // Throughput counts work completed inside the window, over the time
    // from the window's start to the last such completion, less the share
    // of that time the hypervisor gave to other tenants (steal).
    let steal = stats::steal_share(&ticks0, &ticks1);
    let cell_insts = (BATCH_INSTS + BATCH_WARMUP) * CORES;
    let cells: Vec<f64> = batch
        .iter()
        .flat_map(|j| j.cells_done_at.iter().copied())
        .filter(|t| *t <= seconds)
        .collect();
    let singles: Vec<f64> = interactive
        .iter()
        .filter(|j| j.result.is_ok() && j.end_s <= seconds)
        .map(|j| j.end_s)
        .collect();
    let last = |times: &[f64]| times.iter().copied().fold(0.0, f64::max);
    let cells_in_window = cells.len() as u64;
    let singles_in_window = singles.len() as u64;
    let host_s = |wall_s: f64| (wall_s * (1.0 - steal)).max(1e-9);
    let batch_insts = cells_in_window * cell_insts;
    let all_insts = batch_insts + singles_in_window * crate::sim::INTERACTIVE_INSTS * CORES;
    let all_wall = last(&cells).max(last(&singles));
    let batch_rate = batch_insts as f64 / host_s(last(&cells));
    let all_rate = all_insts as f64 / host_s(all_wall);
    report.note(format!(
        "steal {:.2}% of CPU time in the window; batch {:.4} Minst/s per wall second, all jobs {:.4}",
        100.0 * steal,
        batch_insts as f64 / last(&cells).max(1e-9) / 1e6,
        all_insts as f64 / all_wall.max(1e-9) / 1e6
    ));
    report.note(format!(
        "window {seconds} s: {} interactive jobs ({} done in window), {} batch jobs ({} cells done in window)",
        interactive.len(),
        singles_in_window,
        batch.len(),
        cells_in_window
    ));
    if let Some(l) = lat {
        report.note(format!(
            "interactive latency: n={} p50={:.3} ms p{:.1}={:.3} ms",
            l.samples, l.p50, l.tail_pct, l.tail
        ));
    }
    report.note(format!(
        "setup: {} fleets bound, {:?} s; steal {:.2}% of CPU time meanwhile",
        setups.len(),
        setups,
        100.0 * setup_steal
    ));
    if traced {
        traced_metrics(
            &mut report,
            &interactive,
            [before.as_ref(), after.as_ref()],
            seconds,
        );
        // Tracing adds only the shard lookups between interactive jobs.
        report.metric(
            "trace.overhead_pct",
            100.0 * lookup.as_secs_f64() / seconds,
            "%",
        );
        return report;
    }
    report.metric("setup_s", median(&setups).unwrap_or(0.0), "s");
    report.metric("sim_minsts_per_s", all_rate / 1e6, "Minst/s");
    report.metric("peak_rss_mb", peak, "MiB");
    report.metric(
        "interactive_p50_ms",
        lat.map_or(f64::INFINITY, |l| l.p50),
        "ms",
    );
    report.metric("batch_minsts_per_s", batch_rate / 1e6, "Minst/s");
    report
}

/// Every fleet single and gathered grid must be byte-identical to the
/// in-process `RunSpec::execute` / grid execution of the same spec.
fn verify(interactive: &[JobRecord], batch: &[JobRecord], report: &mut Report) {
    let jobs: Vec<&JobRecord> = interactive.iter().chain(batch).collect();
    // The references run after the window, on as many threads as the
    // fleet had shards, interleaved so both get grids.
    let mut references = vec![Err(String::new()); jobs.len()];
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..SHARDS)
            .map(|k| {
                let jobs = &jobs;
                s.spawn(move || {
                    jobs.iter()
                        .enumerate()
                        .skip(k)
                        .step_by(SHARDS)
                        .map(|(i, j)| (i, j.spec.execute().map(|doc| doc.render())))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for worker in workers {
            for (i, reference) in worker.join().expect("reference worker panicked") {
                references[i] = reference;
            }
        }
    });
    let mut digest = FNV_OFFSET;
    for (job, want) in jobs.iter().zip(&references) {
        let label = match &job.spec {
            JobSpec::Run(r) => format!("interactive job (seed {})", r.seed),
            JobSpec::Grid(g) => format!("batch grid (seed {})", g.base.seed),
        };
        match (&job.result, want) {
            (Ok(got), Ok(want)) => {
                report.check(got == want, || {
                    format!("{label} differs from in-process execution")
                });
                digest = fnv1a(digest, want.as_bytes());
            }
            (Err(e), _) => report.check(false, || format!("{label}: {e}")),
            (_, Err(e)) => report.check(false, || format!("{label} reference: {e}")),
        }
    }
    report.note(format!(
        "digest {digest:016x} over {} job results",
        jobs.len()
    ));
}

/// Per-layer metrics: the submit/wait/fetch spans of each interactive
/// job, the shard-reported run time beside them, and `/v1/metrics`
/// deltas over the window.
fn traced_metrics(
    report: &mut Report,
    interactive: &[JobRecord],
    [before, after]: [Option<&Json>; 2],
    seconds: f64,
) {
    let mut tracer = Tracer::new();
    let ns = |s: f64| (s * 1e9) as u64;
    let mut submit = Vec::new();
    let mut run = Vec::new();
    let mut overhead = Vec::new();
    for job in interactive.iter().filter(|j| j.result.is_ok()) {
        let root = tracer.record(
            "fleet.job",
            job.id,
            None,
            ns(job.submit_s),
            ns(job.fetched_s),
        );
        tracer.record(
            "fleet.submit",
            job.id,
            Some(root),
            ns(job.submit_s),
            ns(job.submitted_s),
        );
        tracer.record(
            "fleet.wait",
            job.id,
            Some(root),
            ns(job.submitted_s),
            ns(job.end_s),
        );
        tracer.record(
            "fleet.fetch",
            job.id,
            Some(root),
            ns(job.end_s),
            ns(job.fetched_s),
        );
        submit.push((job.submitted_s - job.submit_s) * 1e3);
        if let Some(us) = job.run_us {
            let run_ms = us as f64 / 1e3;
            run.push(run_ms);
            overhead.push(job.latency_ms() - run_ms);
        }
    }
    let mut put = |name: &str, values: &[f64]| {
        let l = latency(values);
        report.note(format!(
            "{name}: n={} p50={:.3} ms p{:.1}={:.3} ms",
            values.len(),
            l.map_or(0.0, |l| l.p50),
            l.map_or(0.0, |l| l.tail_pct),
            l.map_or(0.0, |l| l.tail)
        ));
        report.metric(&format!("{name}.p50"), l.map_or(0.0, |l| l.p50), "ms");
        report.metric(&format!("{name}.p99"), l.map_or(0.0, |l| l.tail), "ms");
    };
    put("fleet.submit_ms", &submit);
    put("fleet.run_ms", &run);
    put("fleet.overhead_ms", &overhead);
    report.metric(
        "fleet.interactive_samples",
        interactive.len() as f64,
        "count",
    );
    let delta = |name: &str| match (before, after) {
        (Some(b), Some(a)) => counter_sum(a, name) - counter_sum(b, name),
        _ => 0.0,
    };
    for name in [
        "fleet.dispatch.requeued",
        "fleet.shard.reply_errors",
        "fleet.jobs.rejected_queue",
        "fleet.jobs.rejected_quota",
        "serve.ckpt.quarantined",
    ] {
        report.metric(name, delta(name), "count");
    }
    let busy = match (before, after) {
        (Some(b), Some(a)) => busy_us(a) - busy_us(b),
        _ => 0.0,
    };
    let capacity_us = seconds * 1e6 * (SHARDS * WORKERS_PER_SHARD) as f64;
    report.note(format!(
        "serve.workers.utilization = {busy:.0} us of finished jobs / {capacity_us:.0} us of worker time"
    ));
    report.metric("serve.workers.utilization", busy / capacity_us, "ratio");
    let layers = tracer.layers();
    let covered: u64 = layers.values().map(|l| l.self_ns).sum();
    let wall: u64 = tracer
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    report.metric(
        "trace.coverage_pct",
        if wall > 0 {
            100.0 * covered as f64 / wall as f64
        } else {
            0.0
        },
        "%",
    );
    report.note(tracer.write_out());
}

#[cfg(test)]
mod tests {
    use super::*;
    use baryon_core::system::RunPhase;

    #[test]
    fn every_batch_cell_crosses_the_checkpoint_cadence() {
        for j in 0..MIX.len() as u64 {
            for cell in batch_grid(7, j).expand() {
                let mut checkpoints = 0;
                cell.execute_observed(crate::sim::CKPT_EVERY, None, &mut |p| {
                    if p.phase != RunPhase::Done {
                        checkpoints += 1;
                    }
                })
                .expect("valid cell");
                assert!(checkpoints >= 1, "{} on {}", cell.controller, cell.workload);
            }
        }
    }

    #[test]
    fn refused_and_failed_jobs_count_as_failures_and_miss_the_limit() {
        let job = |result: Result<String, String>| JobRecord {
            spec: JobSpec::Run(interactive_spec(1, 0)),
            id: 1,
            submit_s: 1.0,
            submitted_s: 1.001,
            end_s: 1.010,
            fetched_s: 1.011,
            result,
            cells_done_at: Vec::new(),
            run_us: None,
        };
        let reference = interactive_spec(1, 0)
            .execute()
            .expect("valid")
            .to_json()
            .render();
        let jobs = [
            job(Ok(reference)),
            job(Err("refused: 429".to_owned())),
            job(Err("job ended Some(\"failed\")".to_owned())),
        ];
        let mut report = Report::default();
        verify(&jobs, &[], &mut report);
        assert_eq!((report.attempted, report.failed), (3, 2));
        let latencies: Vec<f64> = jobs.iter().map(JobRecord::latency_ms).collect();
        assert!((latencies[0] - 10.0).abs() < 1e-6);
        assert!(latencies[1].is_infinite() && latencies[2].is_infinite());
        let l = latency(&latencies).expect("samples");
        assert!(l.p50.is_infinite(), "two of three jobs missed every limit");
    }
}
