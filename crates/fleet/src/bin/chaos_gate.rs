//! `chaos_gate` — the fleet degradation-ladder CI gate.
//!
//! Runs the fleet under *aggressive* seeded fault injection
//! ([`baryon_sim::faultfs`], enabled on every shard via the launcher's
//! environment, never in the coordinator) and proves the graceful-
//! degradation ladder end to end:
//!
//! 1. compute clean goldens in-process (chaos is per-process and this
//!    process sets no `BARYON_CHAOS_*` variables),
//! 2. boot a coordinator over 3 worker shards, each with hostile-disk and
//!    lying-shard injection: torn/failed journal appends, silent
//!    post-write corruption, read flips, fsync failures, and post-CRC
//!    response-body flips,
//! 3. force one shard into a crash loop until its crash-loop budget
//!    (`BARYON_FLEET_QUARANTINE_AFTER=2`) quarantines it with singles in
//!    flight — they must fail over to healthy shards and still settle
//!    byte-identical to the clean run (`fleet.shards.quarantined`,
//!    `fleet.cells.failover`),
//! 4. rot every checkpoint rotation member of an in-flight run on a
//!    healthy shard, crash that shard once, and require the resumed
//!    incarnation to quarantine the rotten rungs and descend the fallback
//!    ladder to a cold run (`shard<k>.serve.ckpt.quarantined`), again
//!    byte-identical,
//! 5. run an 8-cell sweep over the degraded fleet (one shard out of
//!    rotation, chaos still live) and require the gathered document to be
//!    byte-identical to the golden, with zero failed jobs,
//! 6. require the coordinator to have rejected at least one corrupt shard
//!    reply along the way (`fleet.shard.reply_errors`).
//!
//! Every rate knob and the seed come from the environment when set
//! (`BARYON_CHAOS_SEED`, `BARYON_CHAOS_*_PPM`) so a failure reproduces
//! exactly; the defaults below are the CI configuration.
//!
//! ```text
//! cargo run --release -p baryon-fleet --bin chaos_gate
//! ```

use baryon_bench::spec::{GridSpec, JobSpec, RunSpec};
use baryon_fleet::coordinator::{Fleet, FleetConfig, FleetController};
use baryon_fleet::harness;
use baryon_fleet::shard::route;
use baryon_serve::client::Client;
use baryon_sim::json::{self, Json};
use std::net::SocketAddr;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const SHARDS: usize = 3;
const POLL: Duration = Duration::from_millis(10);
const DEADLINE: Duration = Duration::from_secs(240);

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

/// The 8-cell sweep, run over the fleet after one shard is quarantined.
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
            seed: 13,
            ..RunSpec::default()
        },
    }
}

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

fn client(addr: SocketAddr) -> Client {
    Client::new(addr).read_timeout(Duration::from_secs(60))
}

/// A `fleet./shard<i>.` counter from `/v1/metrics` (0 when absent — a
/// quarantined shard's namespace disappears from the scrape).
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

/// Polls a counter until `predicate` holds or `within` elapses; returns
/// the last observed value either way.
fn await_counter(
    addr: SocketAddr,
    key: &str,
    within: Duration,
    predicate: impl Fn(u64) -> bool,
) -> Result<u64, String> {
    let deadline = Instant::now() + within;
    loop {
        let value = counter(addr, key)?;
        if predicate(value) || Instant::now() > deadline {
            return Ok(value);
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// POSTs a job, returning its fleet id.
fn submit(addr: SocketAddr, body: &str, what: &str) -> Result<u64, String> {
    let accepted = client(addr)
        .request("POST", "/v1/jobs", Some(body))
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

/// Awaits a done job and checks its result renders exactly as `golden`.
fn await_identical(addr: SocketAddr, id: u64, golden: &str, what: &str) -> Result<(), String> {
    let status = await_status(addr, id, &format!("{what} completion"), |doc| {
        doc.get("state").and_then(Json::as_str) == Some("done")
    })?;
    let result = status
        .get("result")
        .ok_or_else(|| format!("{what}: done without result"))?;
    if result.render() != golden {
        return Err(format!(
            "{what} diverged from the clean run\n  golden: {golden}\n  chaos:  {}",
            result.render()
        ));
    }
    Ok(())
}

/// Flips one bit in every checkpoint rotation member under the shard's
/// journal directory (the parent's filesystem view is clean — this is
/// the deterministic "disk rotted at rest" event). Returns how many
/// files were rotted.
fn rot_checkpoints(shard_journal: &Path) -> Result<usize, String> {
    let mut rotted = 0;
    let entries = std::fs::read_dir(shard_journal)
        .map_err(|e| format!("read {}: {e}", shard_journal.display()))?;
    for entry in entries.flatten() {
        let dir = entry.path();
        let is_ckpt_dir = dir.is_dir()
            && entry
                .file_name()
                .to_str()
                .is_some_and(|n| n.starts_with("ckpt-"));
        if !is_ckpt_dir {
            continue;
        }
        for member in std::fs::read_dir(&dir)
            .map_err(|e| format!("read {}: {e}", dir.display()))?
            .flatten()
        {
            let path = member.path();
            if path.extension().is_none_or(|ext| ext != "ckpt") {
                continue;
            }
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
    }
    Ok(rotted)
}

/// Waits until the shard's journal holds at least one checkpoint
/// rotation member for some in-flight run.
fn await_checkpoint_on_disk(shard_journal: &Path) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(entries) = std::fs::read_dir(shard_journal) {
            for entry in entries.flatten() {
                let dir = entry.path();
                let named_ckpt = entry
                    .file_name()
                    .to_str()
                    .is_some_and(|n| n.starts_with("ckpt-"));
                if !dir.is_dir() || !named_ckpt {
                    continue;
                }
                let has_member = std::fs::read_dir(&dir).is_ok_and(|members| {
                    members
                        .flatten()
                        .any(|m| m.path().extension().is_some_and(|ext| ext == "ckpt"))
                });
                if has_member {
                    return Ok(());
                }
            }
        }
        if Instant::now() > deadline {
            return Err(format!(
                "no checkpoint appeared under {}",
                shard_journal.display()
            ));
        }
        std::thread::sleep(POLL);
    }
}

/// Phase: crash-loop one shard past its quarantine budget with singles
/// in flight on it; every single must fail over and settle identical to
/// `golden`. Returns the quarantined shard's index.
fn crash_loop_phase(
    addr: SocketAddr,
    controller: &FleetController,
    golden: &str,
) -> Result<usize, String> {
    let body = JobSpec::Run(failover_spec()).to_json().render();
    // Submit a batch of identical singles and crash-loop whichever shard
    // the routing hash loaded heaviest — by pigeonhole it holds at least
    // 4, so the quarantine reliably catches cells in flight (the rest
    // land on other shards and just run).
    let ids: Vec<u64> = (0..10)
        .map(|_| submit(addr, &body, "failover single"))
        .collect::<Result<_, _>>()?;
    let mut per_shard = [0usize; SHARDS];
    for &id in &ids {
        per_shard[route(id, SHARDS)] += 1;
    }
    let victim = (0..SHARDS)
        .max_by_key(|&s| per_shard[s])
        .expect("SHARDS > 0");
    for &id in &ids {
        await_status(addr, id, "single dispatch", |doc| {
            matches!(
                doc.get("state").and_then(Json::as_str),
                Some("running" | "done")
            )
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

    let failover = await_counter(addr, "fleet.cells.failover", Duration::from_secs(10), |n| {
        n >= 1
    })?;
    if failover == 0 {
        return Err("quarantine caught no cells in flight (fleet.cells.failover is 0)".into());
    }
    for &id in &ids {
        await_identical(addr, id, golden, &format!("failed-over single {id}"))?;
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
fn ladder_phase(
    addr: SocketAddr,
    controller: &FleetController,
    journal_root: &Path,
    victim: usize,
    golden: &str,
) -> Result<(), String> {
    let body = JobSpec::Run(ladder_spec()).to_json().render();
    for attempt in 0..4 {
        if attempt > 0 {
            // Let the respawn window lapse so the single crash below
            // never eats into the quarantine budget across attempts.
            std::thread::sleep(Duration::from_secs(11));
        }
        // Land a run on any still-healthy shard.
        let id = loop {
            let id = submit(addr, &body, "ladder single")?;
            if route(id, SHARDS) != victim {
                break id;
            }
            await_identical(addr, id, golden, "rerouted ladder single")?;
        };
        let shard = route(id, SHARDS);
        let shard_journal = journal_root.join(format!("shard{shard}"));
        await_status(addr, id, "ladder dispatch", |doc| {
            doc.get("state").and_then(Json::as_str) == Some("running")
        })?;
        await_checkpoint_on_disk(&shard_journal)?;

        // Freeze the shard (pause blocks the supervisor's respawn), rot
        // the rotation on disk, then let it come back and resume.
        let before = counter(addr, &format!("shard{shard}.serve.ckpt.quarantined"))?;
        controller.pause_shard(shard);
        controller
            .kill_shard(shard)
            .map_err(|e| format!("kill shard {shard}: {e}"))?;
        let rotted = rot_checkpoints(&shard_journal)?;
        controller.unpause_shard(shard);
        await_identical(addr, id, golden, "ladder single")?;
        let after = await_counter(
            addr,
            &format!("shard{shard}.serve.ckpt.quarantined"),
            Duration::from_secs(10),
            |n| n > before,
        )?;
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

fn run_gate() -> Result<(), String> {
    let journal_root =
        std::env::temp_dir().join(format!("baryon-chaos-gate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&journal_root);

    // Clean goldens first: this process never sets BARYON_CHAOS_* for
    // itself, so these are fault-free.
    let grid = gate_grid();
    let grid_golden = JobSpec::Grid(grid.clone())
        .execute()
        .map_err(|e| format!("grid golden: {e}"))?
        .render();
    let failover_golden = JobSpec::Run(failover_spec())
        .execute()
        .map_err(|e| format!("failover golden: {e}"))?
        .render();
    let ladder_golden = JobSpec::Run(ladder_spec())
        .execute()
        .map_err(|e| format!("ladder golden: {e}"))?
        .render();

    // Chaos rides into the shards on the launcher environment; the knobs
    // honor the caller's values so failures reproduce exactly.
    std::env::set_var("BARYON_SERVE_CHECKPOINT_EVERY", "10000");
    std::env::set_var("BARYON_FLEET_QUARANTINE_AFTER", "2");
    let mut launcher = harness::self_launcher(1, 16).map_err(|e| format!("launcher: {e}"))?;
    for (name, default) in CHAOS_KNOBS {
        let value = std::env::var(name).unwrap_or_else(|_| (*default).to_owned());
        launcher.extra_env.push(((*name).to_owned(), value));
    }

    let fleet = Fleet::bind(
        FleetConfig {
            port: 0,
            shards: SHARDS,
            workers_per_shard: 1,
            shard_queue_depth: 16,
            queue_cap: 64,
            max_in_flight_per_client: 64,
            journal_root: journal_root.clone(),
        },
        launcher,
    )
    .map_err(|e| format!("fleet bind: {e}"))?;
    let addr = fleet.local_addr();
    let controller = fleet.controller();
    let serving = std::thread::spawn(move || fleet.run());

    let outcome = (|| -> Result<(), String> {
        let victim = crash_loop_phase(addr, &controller, &failover_golden)?;
        ladder_phase(addr, &controller, &journal_root, victim, &ladder_golden)?;

        // The 8-cell sweep over the degraded fleet: one shard out of
        // rotation, disk and response chaos still live on the survivors.
        let sweep_body = JobSpec::Grid(grid.clone()).to_json().render();
        let sweep = submit(addr, &sweep_body, "sweep")?;
        let status = await_status(addr, sweep, "sweep completion", |doc| {
            doc.get("state").and_then(Json::as_str) == Some("done")
        })?;
        let result = status.get("result").ok_or("done sweep has no result")?;
        if result.render() != grid_golden {
            return Err(format!(
                "chaos sweep diverged from the clean run\n  golden: {grid_golden}\n  chaos:  {}",
                result.render()
            ));
        }
        println!("8-cell sweep over the degraded fleet matches the clean run byte-for-byte");

        // Ladder bookkeeping: every degradation counter fired, nothing
        // was lost.
        if counter(addr, "fleet.jobs.failed")? != 0 {
            return Err("jobs were lost under chaos (fleet.jobs.failed != 0)".into());
        }
        if controller.quarantined_shards() != 1 {
            return Err(format!(
                "expected exactly 1 quarantined shard, have {}",
                controller.quarantined_shards()
            ));
        }
        let reply_errors = counter(addr, "fleet.shard.reply_errors")?;
        if reply_errors == 0 {
            return Err("no corrupt shard reply was ever rejected (reply_errors is 0)".into());
        }
        println!("coordinator rejected {reply_errors} corrupt shard replies");

        let r = client(addr)
            .request("POST", "/v1/shutdown", None)
            .map_err(|e| format!("shutdown: {e}"))?;
        if r.status != 200 {
            return Err(format!("shutdown {}: {}", r.status, r.body));
        }
        Ok(())
    })();

    if outcome.is_err() {
        let _ = client(addr).request("POST", "/v1/shutdown", None);
    }
    serving
        .join()
        .map_err(|_| "serving thread panicked".to_owned())?
        .map_err(|e| format!("fleet run: {e}"))?;
    outcome?;

    let _ = std::fs::remove_dir_all(&journal_root);
    println!(
        "chaos gate OK: crash-looped shard quarantined with live failover, rotten checkpoints \
         quarantined down the fallback ladder, and an 8-cell sweep under aggressive disk+response \
         chaos lost zero jobs and gathered byte-identically"
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
            eprintln!("chaos gate failed: {e}");
            ExitCode::FAILURE
        }
    }
}
