//! `fleet_gate` — the fleet determinism CI gate.
//!
//! Proves the fleet's headline invariant end to end, across real process
//! boundaries and a real `SIGKILL`:
//!
//! 1. compute the golden result of a grid sweep in-process
//!    (`JobSpec::execute`),
//! 2. boot a coordinator over 3 worker shards (this binary re-invoked in
//!    `--shard` mode, each shard on its own journal directory),
//! 3. submit the same sweep as a batched fleet job and open its
//!    `/v1/jobs/<id>/events` stream,
//! 4. `SIGKILL` one shard once the first cells have landed but the sweep
//!    is still running (so it dies with cells in flight),
//! 5. require the supervisor to restart it, the sweep to finish, and the
//!    gathered result to be **byte-identical** to the golden document,
//! 6. require `/v1/metrics` to report every shard under its `shard<i>.`
//!    namespace plus the restart, and the event stream to have delivered
//!    monotonic progress and a final `end`.
//!
//! ```text
//! cargo run --release -p baryon-fleet --bin fleet_gate
//! ```
//!
//! Exits non-zero with a diagnostic on any divergence; `scripts/ci.sh`
//! runs it as the fleet e2e gate.

use baryon_bench::spec::{GridSpec, JobSpec, RunSpec};
use baryon_fleet::coordinator::{Fleet, FleetConfig};
use baryon_fleet::harness;
use baryon_serve::client::Client;
use baryon_sim::json::{self, Json};
use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const SHARDS: usize = 3;
const POLL: Duration = Duration::from_millis(10);
const DEADLINE: Duration = Duration::from_secs(180);

/// The sweep: 8 cells over 3 shards, each long enough that a shard dies
/// with cells genuinely in flight when killed after the first completions.
fn gate_grid() -> GridSpec {
    GridSpec {
        workloads: vec![
            "505.mcf_r".into(),
            "557.xz_r".into(),
            "pr.twi".into(),
            "ycsb-a".into(),
        ],
        controllers: vec!["simple".into(), "baryon".into()],
        base: RunSpec {
            insts: 250_000,
            warmup: 20_000,
            scale: 1024,
            seed: 7,
            ..RunSpec::default()
        },
    }
}

fn client(addr: SocketAddr) -> Client {
    Client::new(addr).read_timeout(Duration::from_secs(60))
}

/// Polls the fleet job until `predicate` holds on its status document.
fn await_status(
    addr: SocketAddr,
    id: u64,
    what: &str,
    predicate: impl Fn(&Json) -> bool,
) -> Result<Json, String> {
    let deadline = Instant::now() + DEADLINE;
    loop {
        let r = client(addr)
            .request("GET", &format!("/v1/jobs/{id}"), None)
            .map_err(|e| format!("job status: {e}"))?;
        if r.status != 200 {
            return Err(format!("job status {}: {}", r.status, r.body));
        }
        let doc = json::parse(&r.body).map_err(|e| format!("status not JSON ({e}): {}", r.body))?;
        if predicate(&doc) {
            return Ok(doc);
        }
        if let Some("failed") = doc.get("state").and_then(Json::as_str) {
            return Err(format!("job failed while waiting for {what}: {}", r.body));
        }
        if Instant::now() > deadline {
            return Err(format!("timed out waiting for {what}: {}", r.body));
        }
        std::thread::sleep(POLL);
    }
}

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

fn run_gate() -> Result<(), String> {
    let journal_root =
        std::env::temp_dir().join(format!("baryon-fleet-gate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&journal_root);

    let grid = gate_grid();
    let cells = grid.expand().len();
    let golden = JobSpec::Grid(grid.clone())
        .execute()
        .map_err(|e| format!("golden run: {e}"))?
        .render();

    // Frequent checkpoints so a killed shard's in-flight cells resume
    // instead of restarting from scratch (child shards inherit this).
    std::env::set_var("BARYON_SERVE_CHECKPOINT_EVERY", "10000");
    let launcher = harness::self_launcher(1, 16).map_err(|e| format!("launcher: {e}"))?;
    let fleet = Fleet::bind(
        FleetConfig {
            port: 0,
            shards: SHARDS,
            workers_per_shard: 1,
            shard_queue_depth: 16,
            queue_cap: 64,
            max_in_flight_per_client: 4,
            journal_root: journal_root.clone(),
        },
        launcher,
    )
    .map_err(|e| format!("fleet bind: {e}"))?;
    let addr = fleet.local_addr();
    let controller = fleet.controller();
    let serving = std::thread::spawn(move || fleet.run());

    let outcome = (|| -> Result<(), String> {
        // Submit the sweep (grids default to the batch class).
        let body = JobSpec::Grid(grid).to_json().render();
        let accepted = client(addr)
            .request("POST", "/v1/jobs", Some(&body))
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

        // Stream events concurrently with the chaos below.
        let streamer = std::thread::spawn(move || {
            let mut lines = Vec::new();
            client(addr)
                .stream(&format!("/v1/jobs/{id}/events"), &mut |line| {
                    lines.push(line.to_owned());
                })
                .map(|()| lines)
        });

        // Kill shard 1 once the sweep is demonstrably mid-flight: some
        // cells done, some not, job still running.
        await_status(addr, id, "the mid-sweep kill window", |doc| {
            doc.get("cells_done")
                .and_then(Json::as_u64)
                .is_some_and(|d| d >= 1 && d < cells as u64)
                && doc.get("state").and_then(Json::as_str) == Some("running")
        })?;
        controller
            .kill_shard(1)
            .map_err(|e| format!("SIGKILL shard 1: {e}"))?;
        println!("killed shard 1 mid-sweep; awaiting supervised restart and completion");

        // The supervisor must restart it and the sweep must finish.
        let status = await_status(addr, id, "completion", |doc| {
            doc.get("state").and_then(Json::as_str) == Some("done")
        })?;
        let result = status.get("result").ok_or("done job has no result")?;
        if result.render() != golden {
            return Err(format!(
                "fleet sweep diverged from the single-process run\n  golden: {golden}\n  fleet:  {}",
                result.render()
            ));
        }
        if controller.restarts() < 1 {
            return Err("shard 1 was never restarted".to_owned());
        }
        let stream_lines = streamer
            .join()
            .map_err(|_| "stream collector panicked".to_owned())?
            .map_err(|e| format!("event stream: {e}"))?;
        check_stream(&stream_lines, id)?;

        // Fleet metrics must carry every shard under its namespace, and
        // the restart.
        let metrics = client(addr)
            .request("GET", "/v1/metrics", None)
            .map_err(|e| format!("metrics: {e}"))?;
        for i in 0..SHARDS {
            let needle = format!("\"shard{i}.serve.jobs.done\"");
            if !metrics.body.contains(&needle) {
                return Err(format!("metrics missing {needle}: {}", metrics.body));
            }
        }
        if !metrics.body.contains("\"fleet.shards.restarts\":") {
            return Err(format!("metrics missing restart count: {}", metrics.body));
        }

        let r = client(addr)
            .request("POST", "/v1/shutdown", None)
            .map_err(|e| format!("shutdown: {e}"))?;
        if r.status != 200 {
            return Err(format!("shutdown {}: {}", r.status, r.body));
        }
        Ok(())
    })();

    // Always bring the fleet down before reporting.
    if outcome.is_err() {
        let _ = client(addr).request("POST", "/v1/shutdown", None);
    }
    serving
        .join()
        .map_err(|_| "serving thread panicked".to_owned())?
        .map_err(|e| format!("fleet run: {e}"))?;
    outcome?;

    std::fs::remove_dir_all(&journal_root)
        .map_err(|e| format!("cleanup {}: {e}", journal_root.display()))?;
    println!(
        "fleet gate OK: {cells}-cell sweep over {SHARDS} shards (one SIGKILLed and restarted) \
         matches the single-process run byte-for-byte"
    );
    Ok(())
}

fn main() -> ExitCode {
    if let Some(code) = harness::maybe_run_shard() {
        return code;
    }
    match run_gate() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fleet gate failed: {e}");
            ExitCode::FAILURE
        }
    }
}
