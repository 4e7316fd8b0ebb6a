//! `fleet_gate` — the fleet CI gate: one binary, a fixed table of
//! scenarios, each on a fresh fleet of 3 worker shards (this binary
//! re-invoked in `--shard` mode) with its own journal root. Every
//! scenario requires results gathered through the fleet to be
//! **byte-identical** to an in-process run of the same spec
//! (`JobSpec::execute`), across real process boundaries:
//!
//! 1. **`kill-mid-sweep`** — submit an 8-cell grid sweep and follow its
//!    event stream; `SIGKILL` one shard once the first cells have landed
//!    but the sweep is still running; require the supervisor to restart
//!    it, the gather to match, the stream to deliver monotonic progress
//!    and a final `end`, and `/v1/metrics` to report every shard under
//!    its `shard<i>.` namespace plus the restart.
//! 2. **`config-rollout`** — the A/B rollout invariants with work in
//!    flight: an invalid policy is refused at stage time (`400
//!    invalid_config`); a degraded-but-valid policy (1 ms job deadline)
//!    committed mid-sweep fails the first shard's canary and auto-rolls
//!    back (`409 rollout_failed`, slot marked bad, rollback counted) with
//!    zero lost jobs and a byte-identical gather; a benign policy commits
//!    (generation stamped into results and every shard's metrics) and
//!    rolls back to the unstamped baseline; and a commit that fails
//!    mid-roll quarantines the result that landed during the roll,
//!    re-dispatches it under the restored generation, and settles it
//!    byte-identical to a clean run.
//! 3. **`chaos-ladder`** — the degradation ladder under aggressive seeded
//!    fault injection ([`baryon_sim::faultfs`]) on every shard, never in
//!    the coordinator: a crash-looping shard is quarantined
//!    (`BARYON_FLEET_QUARANTINE_AFTER=2`) with singles failing over;
//!    rotten checkpoint rotations are quarantined down the fallback ladder
//!    to a cold run; an 8-cell sweep over the degraded fleet loses zero
//!    jobs; and the coordinator rejects at least one corrupt shard reply.
//!
//! The scenarios run in that order and the gate stops at the first
//! failure, printing `fleet gate failed in <scenario>: <diagnostic>`.
//! Chaos is process-global, so shard-side environment rides on each
//! scenario's launcher (`extra_env`), and `chaos-ladder` — which sets the
//! coordinator's quarantine budget — runs last. The chaos seed and every
//! rate knob honour the caller's environment (`BARYON_CHAOS_SEED`,
//! `BARYON_CHAOS_*_PPM`) so a failure reproduces exactly; the gate
//! strips them from its own environment, so they reach only the
//! `chaos-ladder` shards.
//!
//! ```text
//! cargo run --release -p baryon-fleet --bin fleet_gate
//! BARYON_CHAOS_SEED=42 BARYON_CHAOS_CORRUPT_PPM=20000 ... fleet_gate
//! ```

use baryon_bench::spec::{GridSpec, JobSpec, RunSpec};
use baryon_fleet::harness::{self, LiveFleet};
use baryon_fleet::shard::{route, ShardLauncher};
use baryon_fleet::FleetConfig;
use baryon_serve::client::{ClientError, ClientResponse};
use baryon_serve::ErrorCode;
use baryon_sim::json::{self, Json};
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const SHARDS: usize = 3;
const POLL: Duration = Duration::from_millis(10);

/// The default (CI) chaos configuration: aggressive enough that every
/// rung of the ladder is exercised in one run, convergent enough that
/// retries always make progress. Overridable knob by knob from the
/// caller's environment.
const CHAOS_KNOBS: &[(&str, &str)] = &[
    ("BARYON_CHAOS_SEED", "42"),
    ("BARYON_CHAOS_WRITE_FAIL_PPM", "20000"),
    ("BARYON_CHAOS_ENOSPC_PPM", "10000"),
    ("BARYON_CHAOS_FSYNC_FAIL_PPM", "20000"),
    ("BARYON_CHAOS_CORRUPT_PPM", "20000"),
    ("BARYON_CHAOS_READ_FLIP_PPM", "20000"),
    ("BARYON_CHAOS_RESPONSE_CORRUPT_PPM", "30000"),
];

/// The chaos knobs for the `chaos-ladder` shards: each knob's value from
/// `lookup` when set, its CI default otherwise.
fn chaos_env(lookup: impl Fn(&str) -> Option<String>) -> Vec<(String, String)> {
    CHAOS_KNOBS
        .iter()
        .map(|(name, default)| {
            let value = lookup(name).unwrap_or_else(|| (*default).to_owned());
            ((*name).to_owned(), value)
        })
        .collect()
}

/// The 8-cell sweep every scenario gathers: 4 workloads × 2 controllers,
/// long enough per cell that a scenario's fault lands with cells
/// genuinely in flight.
fn sweep(insts: u64, warmup: u64, seed: u64) -> GridSpec {
    GridSpec {
        workloads: vec![
            "505.mcf_r".into(),
            "557.xz_r".into(),
            "pr.twi".into(),
            "ycsb-a".into(),
        ],
        controllers: vec!["simple".into(), "baryon".into()],
        base: RunSpec {
            insts,
            warmup,
            scale: 1024,
            seed,
            ..RunSpec::default()
        },
    }
}

/// The in-process result of `spec`, rendered: what the fleet must match.
fn in_process(spec: JobSpec, what: &str) -> Result<String, String> {
    spec.execute()
        .map(|result| result.render())
        .map_err(|e| format!("{what} golden: {e}"))
}

/// A fleet of [`SHARDS`] single-worker shards with `extra_env` on every
/// shard.
fn boot(
    tag: &str,
    max_in_flight_per_client: usize,
    extra_env: Vec<(String, String)>,
) -> Result<LiveFleet, String> {
    let launcher = ShardLauncher {
        extra_env,
        ..harness::self_launcher(1, 16).map_err(|e| format!("launcher: {e}"))?
    };
    let config = FleetConfig {
        shards: SHARDS,
        workers_per_shard: 1,
        shard_queue_depth: 16,
        queue_cap: 64,
        max_in_flight_per_client,
        ..FleetConfig::default()
    };
    LiveFleet::boot(tag, config, launcher)
}

/// Frequent checkpoints so a killed shard's in-flight cells resume
/// instead of restarting from scratch.
fn frequent_checkpoints() -> (String, String) {
    (
        "BARYON_SERVE_CHECKPOINT_EVERY".to_owned(),
        "10000".to_owned(),
    )
}

fn is_state(doc: &Json, state: &str) -> bool {
    doc.get("state").and_then(Json::as_str) == Some(state)
}

/// Whether a batch status shows some cells done, some not, job running.
fn mid_sweep(doc: &Json, cells: usize) -> bool {
    doc.get("cells_done")
        .and_then(Json::as_u64)
        .is_some_and(|d| d >= 1 && d < cells as u64)
        && is_state(doc, "running")
}

// ---------------------------------------------------------------------
// kill-mid-sweep
// ---------------------------------------------------------------------

/// Asserts the collected stream lines are well-formed, monotonic in
/// `cells_done`, and terminated by `end` with the expected state.
fn check_stream(lines: &[String], id: u64) -> Result<(), String> {
    let mut last_cells_done = 0;
    let mut saw_progress = false;
    let mut end_state = None;
    for line in lines {
        let doc = json::parse(line).map_err(|e| format!("bad event ({e}): {line}"))?;
        match doc.get("event").and_then(Json::as_str) {
            Some("progress") => {
                saw_progress = true;
                if doc.get("id").and_then(Json::as_u64) != Some(id) {
                    return Err(format!("progress for the wrong job: {line}"));
                }
                let done = doc.get("cells_done").and_then(Json::as_u64).unwrap_or(0);
                if done < last_cells_done {
                    return Err(format!(
                        "cells_done went backwards ({last_cells_done} -> {done}): {line}"
                    ));
                }
                last_cells_done = done;
            }
            Some("end") => end_state = doc.get("state").and_then(Json::as_str).map(str::to_owned),
            Some("alive") => {}
            _ => return Err(format!("unknown event: {line}")),
        }
    }
    if !saw_progress {
        return Err("stream delivered no progress events".to_owned());
    }
    if end_state.as_deref() != Some("done") {
        return Err(format!("stream ended with {end_state:?}, expected done"));
    }
    Ok(())
}

fn kill_mid_sweep() -> Result<(), String> {
    let grid = sweep(250_000, 20_000, 7);
    let cells = grid.expand().len();
    let golden = in_process(JobSpec::Grid(grid.clone()), "sweep")?;
    let fleet = boot("fleet-gate-kill", 4, vec![frequent_checkpoints()])?;

    // Submit the sweep (grids default to the batch class) and stream its
    // events concurrently with the kill below. The submit goes out raw,
    // not through `Client::submit_job`, because the 202 body's `cells`
    // count is part of what this scenario checks.
    let accepted = fleet
        .client()
        .request(
            "POST",
            "/v1/jobs",
            Some(&JobSpec::Grid(grid).to_json().render()),
        )
        .map_err(|e| format!("submit: {e}"))?;
    if accepted.status != 202 {
        return Err(format!("submit {}: {}", accepted.status, accepted.body));
    }
    let accepted_doc =
        json::parse(&accepted.body).map_err(|e| format!("202 body not JSON: {e}"))?;
    let id = accepted_doc
        .get("id")
        .and_then(Json::as_u64)
        .ok_or("202 body has no id")?;
    if accepted_doc.get("cells").and_then(Json::as_u64) != Some(cells as u64) {
        return Err(format!("expected {cells} cells: {}", accepted.body));
    }
    let stream_client = fleet.client();
    let streamer = std::thread::spawn(move || {
        let mut lines = Vec::new();
        stream_client
            .stream(&format!("/v1/jobs/{id}/events"), &mut |line| {
                lines.push(line.to_owned());
            })
            .map(|()| lines)
    });

    // Kill shard 1 once the sweep is demonstrably mid-flight: some cells
    // done, some not, job still running.
    let status =
        fleet.await_status(id, "the mid-sweep kill window", |doc| mid_sweep(doc, cells))?;
    if status.get("cells_total").and_then(Json::as_u64) != Some(cells as u64) {
        return Err(format!("expected {cells} cells: {}", status.render()));
    }
    fleet
        .controller
        .kill_shard(1)
        .map_err(|e| format!("SIGKILL shard 1: {e}"))?;
    println!("killed shard 1 mid-sweep; awaiting supervised restart and completion");

    // The supervisor must restart it and the sweep must finish.
    fleet.await_identical(id, &golden, "fleet sweep")?;
    if fleet.controller.restarts() < 1 {
        return Err("shard 1 was never restarted".to_owned());
    }
    let stream_lines = streamer
        .join()
        .map_err(|_| "stream collector panicked".to_owned())?
        .map_err(|e| format!("event stream: {e}"))?;
    check_stream(&stream_lines, id)?;

    // Fleet metrics must carry every shard under its namespace, and the
    // restart.
    let metrics = fleet.metrics()?;
    for i in 0..SHARDS {
        let needle = format!("\"shard{i}.serve.jobs.done\"");
        if !metrics.contains(&needle) {
            return Err(format!("metrics missing {needle}: {metrics}"));
        }
    }
    if !metrics.contains("\"fleet.shards.restarts\":") {
        return Err(format!("metrics missing restart count: {metrics}"));
    }
    fleet.finish()?;
    println!(
        "kill-mid-sweep OK: {cells}-cell sweep over {SHARDS} shards (one SIGKILLed and \
         restarted) matches the single-process run byte-for-byte"
    );
    Ok(())
}

// ---------------------------------------------------------------------
// config-rollout
// ---------------------------------------------------------------------

/// Requires an admin answer of exactly `200`.
fn expect_200(
    what: &str,
    answer: Result<ClientResponse, ClientError>,
) -> Result<ClientResponse, String> {
    match answer {
        Ok(r) if r.status == 200 => Ok(r),
        Ok(r) => Err(format!("{what} {}: {}", r.status, r.body)),
        Err(e) => Err(format!("{what}: {e}")),
    }
}

/// Requires an admin answer refused with `status` and `code`, returning
/// the refusal for the log.
fn expect_refusal(
    what: &str,
    answer: Result<ClientResponse, ClientError>,
    status: u16,
    code: ErrorCode,
) -> Result<ClientError, String> {
    match answer {
        Err(e @ ClientError::Api { status: s, .. }) if s == status && e.code() == Some(code) => {
            Ok(e)
        }
        Ok(r) => Err(format!(
            "{what} should answer {status} {}, got {}: {}",
            code.as_str(),
            r.status,
            r.body
        )),
        Err(e) => Err(format!(
            "{what} should answer {status} {}, got {e}",
            code.as_str()
        )),
    }
}

/// The `GET /v1/admin/config` document.
fn admin_config(fleet: &LiveFleet) -> Result<Json, String> {
    let r = expect_200("admin config", fleet.client().admin_config())?;
    json::parse(&r.body).map_err(|e| format!("admin config not JSON ({e}): {}", r.body))
}

fn active_generation(fleet: &LiveFleet) -> Result<u64, String> {
    let doc = admin_config(fleet)?;
    doc.get("active_generation")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("no active_generation: {doc:?}"))
}

/// Submits a short single run and returns its settled `result` document.
fn run_single(fleet: &LiveFleet, what: &str) -> Result<Json, String> {
    const RUN: &str = r#"{"workload":"ycsb-a","controller":"baryon","insts":50000,"warmup":5000,"scale":1024,"seed":13}"#;
    let id = fleet
        .client()
        .submit_job(RUN)
        .map_err(|e| format!("{what} submit: {e}"))?;
    fleet.await_result(id, what)
}

fn config_rollout() -> Result<(), String> {
    let grid = sweep(150_000, 15_000, 11);
    let cells = grid.expand().len();
    let golden = in_process(JobSpec::Grid(grid.clone()), "sweep")?;
    let fleet = boot("fleet-gate-rollout", 4, Vec::new())?
        .patience(Duration::from_secs(120), Duration::from_secs(180));
    let admin = fleet.client();

    // An invalid policy must be refused at stage time with the typed
    // code — nothing reaches the slots.
    expect_refusal(
        "invalid stage",
        admin.admin_stage(r#"{"commit_k":-1}"#),
        400,
        ErrorCode::InvalidConfig,
    )?;
    if active_generation(&fleet)? != 0 {
        return Err("an invalid stage moved the active generation".to_owned());
    }

    // Submit the sweep and wait until it is demonstrably mid-flight.
    let id = fleet
        .client()
        .submit_job(&JobSpec::Grid(grid).to_json().render())
        .map_err(|e| format!("sweep submit: {e}"))?;
    fleet.await_status(id, "the mid-sweep rollout window", |doc| {
        mid_sweep(doc, cells)
    })?;

    // Stage a degraded-but-valid policy: a 1 ms job deadline passes
    // validation but fails every real run. Commit must hit the first
    // shard's canary, auto-roll the fleet back, and answer 409.
    expect_200(
        "degraded stage",
        admin.admin_stage(r#"{"job_deadline_ms":1}"#),
    )?;
    println!("staged degraded config mid-sweep; committing");
    let refusal = expect_refusal(
        "degraded commit",
        admin.admin_commit(),
        409,
        ErrorCode::RolloutFailed,
    )?;
    println!("degraded commit auto-rolled back: {refusal}");
    let config = admin_config(&fleet)?;
    if config.get("active_generation").and_then(Json::as_u64) != Some(0) {
        return Err(format!("rollback left the wrong generation: {config:?}"));
    }
    let failed_slot = config.get("last_failed").ok_or("no last_failed record")?;
    if failed_slot.get("generation").and_then(Json::as_u64) != Some(1) {
        return Err(format!("last_failed should name generation 1: {config:?}"));
    }
    if config.get("rollbacks").and_then(Json::as_u64) != Some(1) {
        return Err(format!("expected exactly one rollback: {config:?}"));
    }

    // The sweep must finish with zero lost jobs and a byte-identical
    // gathered document.
    fleet.await_identical(id, &golden, "sweep after the failed rollout")?;
    let metrics = fleet.metrics()?;
    if !metrics.contains("\"fleet.jobs.failed\":0") {
        return Err(format!("jobs were lost during the rollout: {metrics}"));
    }
    for needle in [
        "\"fleet.config.generation\":",
        "\"fleet.config.rollbacks\":1",
        "\"fleet.shard0.respawn_backoff_ms\":",
    ] {
        if !metrics.contains(needle) {
            return Err(format!("metrics missing {needle}: {metrics}"));
        }
    }

    // A benign policy must commit cleanly: rolling restart, bumped
    // generation, stamped results, per-shard policy metric.
    expect_200(
        "benign stage",
        admin.admin_stage(r#"{"scrub_interval":100000}"#),
    )?;
    // While the candidate sits staged, the admin surface must show the
    // per-knob diff an operator would be committing.
    let config = admin_config(&fleet)?;
    let diff = config
        .get("staged_diff")
        .ok_or("benign stage produced no staged_diff")?;
    if diff.get("from_generation").and_then(Json::as_u64) != Some(0)
        || diff.get("to_generation").and_then(Json::as_u64) != Some(2)
    {
        return Err(format!(
            "staged_diff names the wrong generations: {config:?}"
        ));
    }
    let changes = diff
        .get("changes")
        .ok_or("staged_diff has no changes")?
        .render();
    if !changes.contains(r#""scrub_interval":{"from":"default","to":"100000"}"#) {
        return Err(format!("staged_diff missing the scrub knob: {changes}"));
    }
    expect_200("benign commit", admin.admin_commit())?;
    if active_generation(&fleet)? != 2 {
        return Err("benign commit should activate generation 2".to_owned());
    }
    println!("benign config committed across the fleet (generation 2)");
    let result = run_single(&fleet, "post-commit run")?;
    if result.get("config_generation").and_then(Json::as_u64) != Some(2) {
        return Err(format!(
            "post-commit result not stamped with generation 2: {}",
            result.render()
        ));
    }
    let metrics = fleet.metrics()?;
    for i in 0..SHARDS {
        let needle = format!("\"shard{i}.serve.policy.generation\":2");
        if !metrics.contains(&needle) {
            return Err(format!("metrics missing {needle}: {metrics}"));
        }
    }

    // Rollback restores the baseline and un-stamps results.
    expect_200("rollback", admin.admin_rollback())?;
    if active_generation(&fleet)? != 0 {
        return Err("rollback should restore generation 0".to_owned());
    }
    let result = run_single(&fleet, "post-rollback run")?;
    if result.get("config_generation").is_some() {
        return Err(format!(
            "baseline results must not carry a stamp: {}",
            result.render()
        ));
    }

    // Arm a generous job deadline as generation 3. The fleet canary runs
    // in the low seconds on an idle host, so 15 s passes every canary and
    // every run this scenario submits — except the deliberately unbounded
    // one below, which is how the next commit is made to fail mid-roll
    // deterministically.
    expect_200(
        "deadline stage",
        admin.admin_stage(r#"{"job_deadline_ms":15000}"#),
    )?;
    expect_200("deadline commit", admin.admin_commit())?;
    if active_generation(&fleet)? != 3 {
        return Err("deadline commit should activate generation 3".to_owned());
    }

    // Results that land while a commit is rolling are held back, and a
    // failed commit must quarantine them for re-dispatch rather than
    // release documents produced under a config the fleet rejected. The
    // healthy run below is in flight when the commit starts, so its shard
    // cannot drain before the result lands — staged. The unbounded run
    // trips the active deadline mid-roll, which trips the
    // failure-regression check and rolls the commit back.
    const MID_ROLL: &str = r#"{"workload":"ycsb-a","controller":"baryon","insts":300000,"warmup":20000,"scale":1024,"seed":21}"#;
    const UNBOUNDED: &str = r#"{"workload":"ycsb-a","controller":"baryon","insts":2000000000,"warmup":20000,"scale":1024,"seed":22}"#;
    let quarantined_before = fleet.counter("fleet.config.quarantined_results")?;
    let failed_before = fleet.counter("fleet.jobs.failed")?;
    let mid_roll = fleet
        .client()
        .submit_job(MID_ROLL)
        .map_err(|e| format!("mid-roll run submit: {e}"))?;
    fleet.await_status(mid_roll, "mid-roll dispatch", |doc| {
        is_state(doc, "running")
    })?;
    let doomed = fleet
        .client()
        .submit_job(UNBOUNDED)
        .map_err(|e| format!("unbounded run submit: {e}"))?;
    fleet.await_status(doomed, "unbounded dispatch", |doc| is_state(doc, "running"))?;
    expect_200(
        "mid-roll stage",
        admin.admin_stage(r#"{"job_deadline_ms":15000,"scrub_interval":50000}"#),
    )?;
    println!("committing with a healthy run and a doomed run in flight");
    expect_refusal(
        "mid-roll commit",
        admin.admin_commit(),
        409,
        ErrorCode::RolloutFailed,
    )?;
    if active_generation(&fleet)? != 3 {
        return Err("failed mid-roll commit should leave generation 3 active".to_owned());
    }
    let status = fleet.await_status(doomed, "deadline kill", |doc| is_state(doc, "failed"))?;
    println!("unbounded run killed by the deadline: {}", status.render());
    let failed_after = fleet.counter("fleet.jobs.failed")?;
    if failed_after != failed_before + 1 {
        let mid = admin
            .request("GET", &format!("/v1/jobs/{mid_roll}"), None)
            .map(|r| r.body)
            .unwrap_or_default();
        let metrics = fleet.metrics().unwrap_or_default();
        return Err(format!(
            "exactly the unbounded run should have failed ({failed_before} -> \
             {failed_after})\n  mid-roll job: {mid}\n  metrics: {metrics}"
        ));
    }
    let quarantined = fleet.counter("fleet.config.quarantined_results")?;
    if quarantined <= quarantined_before {
        return Err(format!(
            "the mid-roll result was never quarantined ({quarantined_before} -> {quarantined})"
        ));
    }
    // The quarantined cell must be re-dispatched under the restored
    // generation and settle byte-identical to a clean run of the same
    // spec.
    let result = fleet.await_result(mid_roll, "requeued")?;
    if result.get("config_generation").and_then(Json::as_u64) != Some(3) {
        return Err(format!(
            "requeued result not stamped with the restored generation: {}",
            result.render()
        ));
    }
    let fresh = fleet
        .client()
        .submit_job(MID_ROLL)
        .map_err(|e| format!("reference run submit: {e}"))?;
    fleet.await_identical(fresh, &result.render(), "clean reference run")?;
    println!("mid-roll result quarantined ({quarantined} total), re-dispatched, byte-identical");
    fleet.finish()?;
    println!(
        "config-rollout OK: bad config auto-rolled back mid-sweep with zero lost jobs and a \
         byte-identical gather; benign config rolled out and back across {SHARDS} shards; \
         mid-roll results quarantined and re-dispatched after a failed commit"
    );
    Ok(())
}

// ---------------------------------------------------------------------
// chaos-ladder
// ---------------------------------------------------------------------

/// The single used to load the crash-looping shard (short enough to keep
/// the gate fast, long enough to still be in flight when the quarantine
/// lands).
fn failover_spec() -> RunSpec {
    RunSpec {
        insts: 400_000,
        warmup: 20_000,
        scale: 1024,
        seed: 17,
        ..RunSpec::default()
    }
}

/// The single whose checkpoints get rotted on disk (long enough that it
/// is reliably mid-run, with rotation members on disk, when its shard is
/// crashed).
fn ladder_spec() -> RunSpec {
    RunSpec {
        insts: 900_000,
        warmup: 20_000,
        scale: 1024,
        seed: 19,
        ..RunSpec::default()
    }
}

/// Polls a counter until `predicate` holds or `within` elapses; returns
/// the last observed value either way.
fn await_counter(
    fleet: &LiveFleet,
    key: &str,
    within: Duration,
    predicate: impl Fn(u64) -> bool,
) -> Result<u64, String> {
    let deadline = Instant::now() + within;
    loop {
        let value = fleet.counter(key)?;
        if predicate(value) || Instant::now() > deadline {
            return Ok(value);
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Every checkpoint rotation member (`ckpt-*/*.ckpt`) under a shard's
/// journal directory.
fn checkpoint_members(shard_journal: &Path) -> io::Result<Vec<PathBuf>> {
    let mut members = Vec::new();
    for entry in std::fs::read_dir(shard_journal)?.flatten() {
        let named_ckpt = entry
            .file_name()
            .to_str()
            .is_some_and(|n| n.starts_with("ckpt-"));
        if !named_ckpt || !entry.path().is_dir() {
            continue;
        }
        for member in std::fs::read_dir(entry.path())?.flatten() {
            let path = member.path();
            if path.extension().is_some_and(|ext| ext == "ckpt") {
                members.push(path);
            }
        }
    }
    Ok(members)
}

/// Flips one bit in every checkpoint rotation member under the shard's
/// journal directory (the parent's filesystem view is clean — this is
/// the deterministic "disk rotted at rest" event). Returns how many
/// files were rotted.
fn rot_checkpoints(shard_journal: &Path) -> Result<usize, String> {
    let mut rotted = 0;
    let members = checkpoint_members(shard_journal)
        .map_err(|e| format!("read {}: {e}", shard_journal.display()))?;
    for path in members {
        let mut bytes =
            std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        if bytes.is_empty() {
            continue;
        }
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).map_err(|e| format!("write {}: {e}", path.display()))?;
        rotted += 1;
    }
    Ok(rotted)
}

/// Waits until the shard's journal holds at least one checkpoint
/// rotation member for some in-flight run.
fn await_checkpoint_on_disk(shard_journal: &Path) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !checkpoint_members(shard_journal).is_ok_and(|m| !m.is_empty()) {
        if Instant::now() > deadline {
            return Err(format!(
                "no checkpoint appeared under {}",
                shard_journal.display()
            ));
        }
        std::thread::sleep(POLL);
    }
    Ok(())
}

/// Phase: crash-loop one shard past its quarantine budget with singles
/// in flight on it; every single must fail over and settle identical to
/// `golden`. Returns the quarantined shard's index.
fn crash_loop_phase(fleet: &LiveFleet, golden: &str) -> Result<usize, String> {
    let controller = &fleet.controller;
    let body = JobSpec::Run(failover_spec()).to_json().render();
    // Submit a batch of identical singles and crash-loop whichever shard
    // the routing hash loaded heaviest — by pigeonhole it holds at least
    // 4, so the quarantine reliably catches cells in flight (the rest
    // land on other shards and just run).
    let ids: Vec<u64> = (0..10)
        .map(|_| {
            fleet
                .client()
                .submit_job(&body)
                .map_err(|e| format!("failover single submit: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let mut per_shard = [0usize; SHARDS];
    for &id in &ids {
        per_shard[route(id, SHARDS)] += 1;
    }
    let victim = (0..SHARDS)
        .max_by_key(|&s| per_shard[s])
        .expect("SHARDS > 0");
    for &id in &ids {
        fleet.await_status(id, "single dispatch", |doc| {
            is_state(doc, "running") || is_state(doc, "done")
        })?;
    }

    // Two rapid kills: the first respawns (crash recovery), the second
    // exhausts the budget of 2 and quarantines the shard.
    let restarts_before = controller.restarts();
    controller
        .kill_shard(victim)
        .map_err(|e| format!("kill shard {victim}: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(30);
    while controller.restarts() <= restarts_before {
        if Instant::now() > deadline {
            return Err(format!("shard {victim} was never respawned"));
        }
        std::thread::sleep(POLL);
    }
    controller
        .kill_shard(victim)
        .map_err(|e| format!("re-kill shard {victim}: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(30);
    while !controller.shard_is_quarantined(victim) {
        if Instant::now() > deadline {
            return Err(format!("shard {victim} was never quarantined"));
        }
        std::thread::sleep(POLL);
    }
    println!("shard {victim} quarantined after exhausting its crash-loop budget");

    let failover = await_counter(
        fleet,
        "fleet.cells.failover",
        Duration::from_secs(10),
        |n| n >= 1,
    )?;
    if failover == 0 {
        return Err("quarantine caught no cells in flight (fleet.cells.failover is 0)".into());
    }
    for &id in &ids {
        fleet.await_identical(id, golden, &format!("failed-over single {id}"))?;
    }
    println!(
        "{} singles settled byte-identical through the quarantine ({failover} failed over)",
        ids.len()
    );
    Ok(victim)
}

/// Phase: rot every checkpoint of an in-flight run at rest, crash its
/// (healthy) shard once, and require the respawned incarnation to
/// quarantine the rotten rungs and descend to a cold run. Chaos can eat
/// the shard's journal record (the run then restarts cold without ever
/// touching the rotten checkpoints), so the phase retries with a fresh
/// run until the `serve.ckpt.quarantined` counter moves.
fn ladder_phase(fleet: &LiveFleet, victim: usize, golden: &str) -> Result<(), String> {
    let controller = &fleet.controller;
    let body = JobSpec::Run(ladder_spec()).to_json().render();
    for attempt in 0..4 {
        if attempt > 0 {
            // Let the respawn window lapse so the single crash below
            // never eats into the quarantine budget across attempts.
            std::thread::sleep(Duration::from_secs(11));
        }
        // Land a run on any still-healthy shard.
        let id = loop {
            let id = fleet
                .client()
                .submit_job(&body)
                .map_err(|e| format!("ladder single submit: {e}"))?;
            if route(id, SHARDS) != victim {
                break id;
            }
            fleet.await_identical(id, golden, "rerouted ladder single")?;
        };
        let shard = route(id, SHARDS);
        let shard_journal = fleet.journal_root.join(format!("shard{shard}"));
        fleet.await_status(id, "ladder dispatch", |doc| is_state(doc, "running"))?;
        await_checkpoint_on_disk(&shard_journal)?;

        // Freeze the shard (pause blocks the supervisor's respawn), rot
        // the rotation on disk, then let it come back and resume.
        let quarantined = format!("shard{shard}.serve.ckpt.quarantined");
        let before = fleet.counter(&quarantined)?;
        controller.pause_shard(shard);
        controller
            .kill_shard(shard)
            .map_err(|e| format!("kill shard {shard}: {e}"))?;
        let rotted = rot_checkpoints(&shard_journal)?;
        controller.unpause_shard(shard);
        fleet.await_identical(id, golden, "ladder single")?;
        let after = await_counter(fleet, &quarantined, Duration::from_secs(10), |n| n > before)?;
        if after > before {
            println!(
                "shard {shard} quarantined {} rotten checkpoint(s) ({rotted} rotted on disk) \
                 and the run still settled byte-identical",
                after - before
            );
            return Ok(());
        }
        println!(
            "attempt {attempt}: chaos ate the journal record before resume ({rotted} rotted); \
             retrying with a fresh run"
        );
    }
    Err("checkpoint ladder never engaged (serve.ckpt.quarantined never moved)".into())
}

fn chaos_ladder(chaos: &[(String, String)]) -> Result<(), String> {
    // Clean goldens first: this process strips BARYON_CHAOS_* from its
    // own environment, so these are fault-free.
    let grid = sweep(250_000, 20_000, 13);
    let grid_golden = in_process(JobSpec::Grid(grid.clone()), "grid")?;
    let failover_golden = in_process(JobSpec::Run(failover_spec()), "failover")?;
    let ladder_golden = in_process(JobSpec::Run(ladder_spec()), "ladder")?;

    // The coordinator reads its crash-loop budget at bind; the earlier
    // scenarios' fleets are already down, so it reaches only this one.
    std::env::set_var("BARYON_FLEET_QUARANTINE_AFTER", "2");
    let mut extra_env = vec![frequent_checkpoints()];
    extra_env.extend_from_slice(chaos);
    let fleet = boot("fleet-gate-chaos", 64, extra_env)?
        .patience(Duration::from_secs(60), Duration::from_secs(240));

    let victim = crash_loop_phase(&fleet, &failover_golden)?;
    ladder_phase(&fleet, victim, &ladder_golden)?;

    // The 8-cell sweep over the degraded fleet: one shard out of
    // rotation, disk and response chaos still live on the survivors.
    let id = fleet
        .client()
        .submit_job(&JobSpec::Grid(grid).to_json().render())
        .map_err(|e| format!("sweep submit: {e}"))?;
    fleet.await_identical(id, &grid_golden, "chaos sweep")?;
    println!("8-cell sweep over the degraded fleet matches the clean run byte-for-byte");

    // Ladder bookkeeping: every degradation counter fired, nothing was
    // lost.
    if fleet.counter("fleet.jobs.failed")? != 0 {
        return Err("jobs were lost under chaos (fleet.jobs.failed != 0)".into());
    }
    let quarantined = fleet.controller.quarantined_shards();
    if quarantined != 1 {
        return Err(format!(
            "expected exactly 1 quarantined shard, have {quarantined}"
        ));
    }
    let reply_errors = fleet.counter("fleet.shard.reply_errors")?;
    if reply_errors == 0 {
        return Err("no corrupt shard reply was ever rejected (reply_errors is 0)".into());
    }
    println!("coordinator rejected {reply_errors} corrupt shard replies");
    fleet.finish()?;
    println!(
        "chaos-ladder OK: crash-looped shard quarantined with live failover, rotten checkpoints \
         quarantined down the fallback ladder, and an 8-cell sweep under aggressive disk+response \
         chaos lost zero jobs and gathered byte-identically"
    );
    Ok(())
}

/// A named scenario: boots its own fleet, runs, and tears it down.
type Scenario<'a> = (&'static str, &'a dyn Fn() -> Result<(), String>);

fn main() -> ExitCode {
    if let Some(code) = harness::maybe_run_shard() {
        return code;
    }
    // Chaos is per-process: take the caller's overrides for the
    // chaos-ladder shards only, and keep this process and every other
    // scenario's shards on clean I/O.
    let chaos = chaos_env(|name| std::env::var(name).ok());
    for (name, _) in CHAOS_KNOBS {
        std::env::remove_var(name);
    }
    let scenarios: [Scenario; 3] = [
        ("kill-mid-sweep", &kill_mid_sweep),
        ("config-rollout", &config_rollout),
        ("chaos-ladder", &|| chaos_ladder(&chaos)),
    ];
    for (name, run) in scenarios {
        println!("==> fleet gate scenario {name}");
        if let Err(e) = run() {
            eprintln!("fleet gate failed in {name}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("fleet gate OK: kill-mid-sweep, config-rollout, chaos-ladder");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_overrides_replace_their_knob_and_keep_the_ci_defaults() {
        let env = chaos_env(|name| match name {
            "BARYON_CHAOS_SEED" => Some("7".to_owned()),
            "BARYON_CHAOS_CORRUPT_PPM" => Some("0".to_owned()),
            _ => None,
        });
        assert_eq!(env.len(), CHAOS_KNOBS.len());
        for ((name, value), (knob, default)) in env.iter().zip(CHAOS_KNOBS) {
            assert_eq!(name, knob);
            let expected = match *knob {
                "BARYON_CHAOS_SEED" => "7",
                "BARYON_CHAOS_CORRUPT_PPM" => "0",
                _ => default,
            };
            assert_eq!(value, expected, "{knob}");
        }
        // With nothing set, every knob is its CI default.
        let defaults = chaos_env(|_| None);
        for ((_, value), (knob, default)) in defaults.iter().zip(CHAOS_KNOBS) {
            assert_eq!(value, default, "{knob}");
        }
    }
}
