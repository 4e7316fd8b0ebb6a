//! `rollout_gate` — the fleet config-rollout CI gate.
//!
//! Proves the A/B rollout invariants end to end, across real process
//! boundaries, with a sweep in flight:
//!
//! 1. compute the golden result of a grid sweep in-process,
//! 2. boot a coordinator over 3 worker shards (this binary re-invoked in
//!    `--shard` mode),
//! 3. reject an **invalid** policy at stage time (`400 invalid_config`),
//! 4. submit the sweep; once it is demonstrably mid-flight, stage a
//!    **degraded but valid** policy (a 1 ms job deadline) and commit —
//!    the first shard's canary must fail and the fleet must auto-roll
//!    back (`409 rollout_failed`, slot marked bad, rollback counted),
//! 5. require the sweep to finish with **zero lost jobs** and a result
//!    **byte-identical** to the single-process run,
//! 6. require `/v1/metrics` to expose `fleet.config.generation`,
//!    `fleet.config.rollbacks`, and per-shard respawn-backoff gauges,
//! 7. commit a **benign** policy: the rolling restart must succeed, the
//!    generation must bump, results must be stamped with it, and every
//!    shard must report `serve.policy.generation`,
//! 8. roll back: the fleet returns to the baseline and results lose the
//!    stamp,
//! 9. commit a generous 15 s job deadline (generation 3), then commit a
//!    further candidate with a healthy run in flight and an unbounded
//!    run that trips the deadline mid-roll: the failure regression must
//!    auto-roll the commit back, and the healthy run's mid-roll result
//!    must be **quarantined** (`fleet.config.quarantined_results`),
//!    re-dispatched under the restored generation, and settle
//!    byte-identical to a clean run of the same spec.
//!
//! ```text
//! cargo run --release -p baryon-fleet --bin rollout_gate
//! ```
//!
//! Exits non-zero with a diagnostic on any divergence; `scripts/ci.sh`
//! runs it as the fleet-ops e2e gate.

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

/// The sweep: 8 cells over 3 shards, long enough that the degraded
/// commit demonstrably begins while cells are still in flight.
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
            insts: 150_000,
            warmup: 15_000,
            scale: 1024,
            seed: 11,
            ..RunSpec::default()
        },
    }
}

fn client(addr: SocketAddr) -> Client {
    Client::new(addr).read_timeout(Duration::from_secs(120))
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

/// Submits a single run and returns its settled `result` document.
fn run_single(addr: SocketAddr, what: &str) -> Result<Json, String> {
    const RUN: &str = r#"{"workload":"ycsb-a","controller":"baryon","insts":50000,"warmup":5000,"scale":1024,"seed":13}"#;
    let accepted = client(addr)
        .request("POST", "/v1/jobs", Some(RUN))
        .map_err(|e| format!("{what} submit: {e}"))?;
    if accepted.status != 202 {
        return Err(format!(
            "{what} submit {}: {}",
            accepted.status, accepted.body
        ));
    }
    let doc = json::parse(&accepted.body).map_err(|e| format!("202 body not JSON: {e}"))?;
    let id = doc
        .get("id")
        .and_then(Json::as_u64)
        .ok_or("202 body has no id")?;
    let status = await_status(addr, id, what, |doc| {
        doc.get("state").and_then(Json::as_str) == Some("done")
    })?;
    status
        .get("result")
        .cloned()
        .ok_or_else(|| format!("{what}: done job has no result"))
}

/// Submits a single run and returns its job id without waiting for it.
fn submit_single(addr: SocketAddr, spec: &str, what: &str) -> Result<u64, String> {
    let accepted = client(addr)
        .request("POST", "/v1/jobs", Some(spec))
        .map_err(|e| format!("{what} submit: {e}"))?;
    if accepted.status != 202 {
        return Err(format!(
            "{what} submit {}: {}",
            accepted.status, accepted.body
        ));
    }
    let doc = json::parse(&accepted.body).map_err(|e| format!("202 body not JSON: {e}"))?;
    doc.get("id")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{what}: 202 body has no id"))
}

/// Reads one counter out of `/v1/metrics` (0 when it has not fired yet).
fn counter(addr: SocketAddr, key: &str) -> Result<u64, String> {
    let r = client(addr)
        .request("GET", "/v1/metrics", None)
        .map_err(|e| format!("metrics: {e}"))?;
    if r.status != 200 {
        return Err(format!("metrics {}: {}", r.status, r.body));
    }
    let doc = json::parse(&r.body).map_err(|e| format!("metrics not JSON ({e}): {}", r.body))?;
    let counters = doc.get("counters").unwrap_or(&doc);
    Ok(counters.get(key).and_then(Json::as_u64).unwrap_or(0))
}

/// The `GET /v1/admin/config` document.
fn admin_config(addr: SocketAddr) -> Result<Json, String> {
    let r = client(addr)
        .request("GET", "/v1/admin/config", None)
        .map_err(|e| format!("admin config: {e}"))?;
    if r.status != 200 {
        return Err(format!("admin config {}: {}", r.status, r.body));
    }
    json::parse(&r.body).map_err(|e| format!("admin config not JSON ({e}): {}", r.body))
}

fn active_generation(addr: SocketAddr) -> Result<u64, String> {
    let doc = admin_config(addr)?;
    doc.get("active_generation")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("no active_generation: {doc:?}"))
}

fn run_gate() -> Result<(), String> {
    let journal_root =
        std::env::temp_dir().join(format!("baryon-rollout-gate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&journal_root);

    let grid = gate_grid();
    let cells = grid.expand().len();
    let golden = JobSpec::Grid(grid.clone())
        .execute()
        .map_err(|e| format!("golden run: {e}"))?
        .render();

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
    let serving = std::thread::spawn(move || fleet.run());

    let outcome = (|| -> Result<(), String> {
        // An invalid policy must be refused at stage time with the typed
        // code — nothing reaches the slots.
        let r = client(addr)
            .request("POST", "/v1/admin/config/stage", Some(r#"{"commit_k":-1}"#))
            .map_err(|e| format!("invalid stage: {e}"))?;
        if r.status != 400 || !r.body.contains("invalid_config") {
            return Err(format!("invalid stage got {}: {}", r.status, r.body));
        }
        if active_generation(addr)? != 0 {
            return Err("an invalid stage moved the active generation".to_owned());
        }

        // Submit the sweep and wait until it is demonstrably mid-flight.
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
        await_status(addr, id, "the mid-sweep rollout window", |doc| {
            doc.get("cells_done")
                .and_then(Json::as_u64)
                .is_some_and(|d| d >= 1 && d < cells as u64)
                && doc.get("state").and_then(Json::as_str) == Some("running")
        })?;

        // Stage a degraded-but-valid policy: a 1 ms job deadline passes
        // validation but fails every real run. Commit must hit the first
        // shard's canary, auto-roll the fleet back, and answer 409.
        let r = client(addr)
            .request(
                "POST",
                "/v1/admin/config/stage",
                Some(r#"{"job_deadline_ms":1}"#),
            )
            .map_err(|e| format!("degraded stage: {e}"))?;
        if r.status != 200 {
            return Err(format!("degraded stage {}: {}", r.status, r.body));
        }
        println!("staged degraded config mid-sweep; committing");
        let r = client(addr)
            .request("POST", "/v1/admin/config/commit", None)
            .map_err(|e| format!("degraded commit: {e}"))?;
        if r.status != 409 || !r.body.contains("rollout_failed") {
            return Err(format!(
                "degraded commit should roll back with 409 rollout_failed, got {}: {}",
                r.status, r.body
            ));
        }
        println!("degraded commit auto-rolled back: {}", r.body);
        let config = admin_config(addr)?;
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
        let status = await_status(addr, id, "completion", |doc| {
            doc.get("state").and_then(Json::as_str) == Some("done")
        })?;
        let result = status.get("result").ok_or("done job has no result")?;
        if result.render() != golden {
            return Err(format!(
                "sweep diverged after the failed rollout\n  golden: {golden}\n  fleet:  {}",
                result.render()
            ));
        }
        let metrics = client(addr)
            .request("GET", "/v1/metrics", None)
            .map_err(|e| format!("metrics: {e}"))?;
        if !metrics.body.contains("\"fleet.jobs.failed\":0") {
            return Err(format!(
                "jobs were lost during the rollout: {}",
                metrics.body
            ));
        }
        for needle in [
            "\"fleet.config.generation\":",
            "\"fleet.config.rollbacks\":1",
            "\"fleet.shard0.respawn_backoff_ms\":",
        ] {
            if !metrics.body.contains(needle) {
                return Err(format!("metrics missing {needle}: {}", metrics.body));
            }
        }

        // A benign policy must commit cleanly: rolling restart, bumped
        // generation, stamped results, per-shard policy metric.
        let r = client(addr)
            .request(
                "POST",
                "/v1/admin/config/stage",
                Some(r#"{"scrub_interval":100000}"#),
            )
            .map_err(|e| format!("benign stage: {e}"))?;
        if r.status != 200 {
            return Err(format!("benign stage {}: {}", r.status, r.body));
        }
        // While the candidate sits staged, the admin surface must show
        // the per-knob diff an operator would be committing.
        let config = admin_config(addr)?;
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
        let r = client(addr)
            .request("POST", "/v1/admin/config/commit", None)
            .map_err(|e| format!("benign commit: {e}"))?;
        if r.status != 200 {
            return Err(format!("benign commit {}: {}", r.status, r.body));
        }
        if active_generation(addr)? != 2 {
            return Err("benign commit should activate generation 2".to_owned());
        }
        println!("benign config committed across the fleet (generation 2)");
        let result = run_single(addr, "post-commit run")?;
        if result.get("config_generation").and_then(Json::as_u64) != Some(2) {
            return Err(format!(
                "post-commit result not stamped with generation 2: {}",
                result.render()
            ));
        }
        let metrics = client(addr)
            .request("GET", "/v1/metrics", None)
            .map_err(|e| format!("metrics: {e}"))?;
        for i in 0..SHARDS {
            let needle = format!("\"shard{i}.serve.policy.generation\":2");
            if !metrics.body.contains(&needle) {
                return Err(format!("metrics missing {needle}: {}", metrics.body));
            }
        }

        // Rollback restores the baseline and un-stamps results.
        let r = client(addr)
            .request("POST", "/v1/admin/config/rollback", None)
            .map_err(|e| format!("rollback: {e}"))?;
        if r.status != 200 {
            return Err(format!("rollback {}: {}", r.status, r.body));
        }
        if active_generation(addr)? != 0 {
            return Err("rollback should restore generation 0".to_owned());
        }
        let result = run_single(addr, "post-rollback run")?;
        if result.get("config_generation").is_some() {
            return Err(format!(
                "baseline results must not carry a stamp: {}",
                result.render()
            ));
        }

        // Arm a generous job deadline as generation 3. The fleet canary
        // runs in the low seconds on an idle host, so 15 s passes every
        // canary and every run this gate submits — except the deliberately
        // unbounded one below, which is how the next commit is made to
        // fail mid-roll deterministically.
        let r = client(addr)
            .request(
                "POST",
                "/v1/admin/config/stage",
                Some(r#"{"job_deadline_ms":15000}"#),
            )
            .map_err(|e| format!("deadline stage: {e}"))?;
        if r.status != 200 {
            return Err(format!("deadline stage {}: {}", r.status, r.body));
        }
        let r = client(addr)
            .request("POST", "/v1/admin/config/commit", None)
            .map_err(|e| format!("deadline commit: {e}"))?;
        if r.status != 200 {
            return Err(format!("deadline commit {}: {}", r.status, r.body));
        }
        if active_generation(addr)? != 3 {
            return Err("deadline commit should activate generation 3".to_owned());
        }

        // Results that land while a commit is rolling are held back, and a
        // failed commit must quarantine them for re-dispatch rather than
        // release documents produced under a config the fleet rejected.
        // The healthy run below is in flight when the commit starts, so
        // its shard cannot drain before the result lands — staged. The
        // unbounded run trips the active deadline mid-roll, which trips
        // the failure-regression check and rolls the commit back.
        const MID_ROLL: &str = r#"{"workload":"ycsb-a","controller":"baryon","insts":300000,"warmup":20000,"scale":1024,"seed":21}"#;
        const UNBOUNDED: &str = r#"{"workload":"ycsb-a","controller":"baryon","insts":2000000000,"warmup":20000,"scale":1024,"seed":22}"#;
        let quarantined_before = counter(addr, "fleet.config.quarantined_results")?;
        let failed_before = counter(addr, "fleet.jobs.failed")?;
        let mid_roll = submit_single(addr, MID_ROLL, "mid-roll run")?;
        await_status(addr, mid_roll, "mid-roll dispatch", |doc| {
            doc.get("state").and_then(Json::as_str) == Some("running")
        })?;
        let doomed = submit_single(addr, UNBOUNDED, "unbounded run")?;
        await_status(addr, doomed, "unbounded dispatch", |doc| {
            doc.get("state").and_then(Json::as_str) == Some("running")
        })?;
        let r = client(addr)
            .request(
                "POST",
                "/v1/admin/config/stage",
                Some(r#"{"job_deadline_ms":15000,"scrub_interval":50000}"#),
            )
            .map_err(|e| format!("mid-roll stage: {e}"))?;
        if r.status != 200 {
            return Err(format!("mid-roll stage {}: {}", r.status, r.body));
        }
        println!("committing with a healthy run and a doomed run in flight");
        let r = client(addr)
            .request("POST", "/v1/admin/config/commit", None)
            .map_err(|e| format!("mid-roll commit: {e}"))?;
        if r.status != 409 || !r.body.contains("rollout_failed") {
            return Err(format!(
                "mid-roll commit should roll back with 409 rollout_failed, got {}: {}",
                r.status, r.body
            ));
        }
        if active_generation(addr)? != 3 {
            return Err("failed mid-roll commit should leave generation 3 active".to_owned());
        }
        let status = await_status(addr, doomed, "deadline kill", |doc| {
            doc.get("state").and_then(Json::as_str) == Some("failed")
        })?;
        println!("unbounded run killed by the deadline: {}", status.render());
        let failed_after = counter(addr, "fleet.jobs.failed")?;
        if failed_after != failed_before + 1 {
            let mid = client(addr)
                .request("GET", &format!("/v1/jobs/{mid_roll}"), None)
                .map(|r| r.body)
                .unwrap_or_default();
            let metrics = client(addr)
                .request("GET", "/v1/metrics", None)
                .map(|r| r.body)
                .unwrap_or_default();
            return Err(format!(
                "exactly the unbounded run should have failed ({failed_before} -> \
                 {failed_after})\n  mid-roll job: {mid}\n  metrics: {metrics}"
            ));
        }
        let quarantined = counter(addr, "fleet.config.quarantined_results")?;
        if quarantined <= quarantined_before {
            return Err(format!(
                "the mid-roll result was never quarantined ({quarantined_before} -> {quarantined})"
            ));
        }
        // The quarantined cell must be re-dispatched under the restored
        // generation and settle byte-identical to a clean run of the same
        // spec.
        let status = await_status(addr, mid_roll, "requeued completion", |doc| {
            doc.get("state").and_then(Json::as_str) == Some("done")
        })?;
        let result = status.get("result").ok_or("requeued job has no result")?;
        if result.get("config_generation").and_then(Json::as_u64) != Some(3) {
            return Err(format!(
                "requeued result not stamped with the restored generation: {}",
                result.render()
            ));
        }
        let fresh = submit_single(addr, MID_ROLL, "reference run")?;
        let fresh = await_status(addr, fresh, "reference completion", |doc| {
            doc.get("state").and_then(Json::as_str) == Some("done")
        })?;
        let fresh = fresh.get("result").ok_or("reference job has no result")?;
        if result.render() != fresh.render() {
            return Err(format!(
                "quarantined re-run diverged from a clean run\n  clean: {}\n  requeued: {}",
                fresh.render(),
                result.render()
            ));
        }
        println!(
            "mid-roll result quarantined ({} total), re-dispatched, byte-identical",
            quarantined
        );

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
        "rollout gate OK: bad config auto-rolled back mid-sweep with zero lost jobs and a \
         byte-identical gather; benign config rolled out and back across {SHARDS} shards; \
         mid-roll results quarantined and re-dispatched after a failed commit"
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
            eprintln!("rollout gate failed: {e}");
            ExitCode::FAILURE
        }
    }
}
