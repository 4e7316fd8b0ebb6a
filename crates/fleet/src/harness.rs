//! Self-forking harness support for fleet binaries and tests.
//!
//! The fleet's CI gate and benches are hermetic single binaries: the
//! same executable acts as the coordinator's parent process *and* — when
//! re-invoked with `--shard` — as a worker shard speaking the
//! [`crate::shard::ShardLauncher`] spawn contract (`--port=0
//! --workers=N --queue-depth=N --journal-dir=DIR`, then `ADDR <addr>` on
//! stdout). No pre-built `baryon-cli`, fixed ports, or startup sleeps.
//!
//! [`LiveFleet`] is the one way those binaries and the integration tests
//! boot a coordinator: on an ephemeral port, serving from a background
//! thread over a fresh journal root, torn down by [`LiveFleet::finish`]
//! (or, on an error path, by `Drop`).

use crate::coordinator::{Fleet, FleetConfig, FleetController};
use crate::shard::ShardLauncher;
use baryon_serve::client::Client;
use baryon_serve::{ServeConfig, Server};
use baryon_sim::json::{self, Json};
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often [`LiveFleet::await_status`] re-reads a job's status.
const POLL: Duration = Duration::from_millis(10);

/// A coordinator serving on an ephemeral loopback port from a background
/// thread, over its own journal root.
pub struct LiveFleet {
    /// The coordinator's address.
    pub addr: SocketAddr,
    /// Chaos and inspection handle onto the running fleet.
    pub controller: FleetController,
    /// The fleet's journal root (`<root>/shard<i>/`, `<root>/config/`).
    pub journal_root: PathBuf,
    read_timeout: Duration,
    deadline: Duration,
    serving: Option<JoinHandle<io::Result<()>>>,
}

impl LiveFleet {
    /// Boots `config` (its port forced to 0, its journal root to a fresh
    /// `baryon-<tag>-<pid>-<thread>` directory under the system temp dir,
    /// cleared first) over shards spawned by `launcher`, and runs it on a
    /// background thread. Clients get a 60 s read timeout and
    /// [`LiveFleet::await_status`] a 180 s deadline until
    /// [`LiveFleet::patience`] says otherwise.
    ///
    /// # Errors
    ///
    /// The [`Fleet::bind`] failure, described.
    pub fn boot(
        tag: &str,
        config: FleetConfig,
        launcher: ShardLauncher,
    ) -> Result<LiveFleet, String> {
        let journal_root = std::env::temp_dir().join(format!(
            "baryon-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&journal_root);
        let config = FleetConfig {
            port: 0,
            journal_root: journal_root.clone(),
            ..config
        };
        let fleet = Fleet::bind(config, launcher).map_err(|e| format!("fleet bind: {e}"))?;
        let addr = fleet.local_addr();
        let controller = fleet.controller();
        let serving = std::thread::spawn(move || fleet.run());
        Ok(LiveFleet {
            addr,
            controller,
            journal_root,
            read_timeout: Duration::from_secs(60),
            deadline: Duration::from_secs(180),
            serving: Some(serving),
        })
    }

    /// Sets the clients' read timeout and how long
    /// [`LiveFleet::await_status`] waits before giving up.
    #[must_use]
    pub fn patience(mut self, read_timeout: Duration, deadline: Duration) -> LiveFleet {
        self.read_timeout = read_timeout;
        self.deadline = deadline;
        self
    }

    /// A client for the coordinator.
    pub fn client(&self) -> Client {
        Client::new(self.addr).read_timeout(self.read_timeout)
    }

    /// The raw `GET /v1/metrics` document.
    ///
    /// # Errors
    ///
    /// Transport failures and non-200 answers, described.
    pub fn metrics(&self) -> Result<String, String> {
        let r = self
            .client()
            .request("GET", "/v1/metrics", None)
            .map_err(|e| format!("metrics: {e}"))?;
        if r.status != 200 {
            return Err(format!("metrics {}: {}", r.status, r.body));
        }
        Ok(r.body)
    }

    /// One counter from `/v1/metrics` — 0 when it has not fired yet, or
    /// when its namespace is gone (a quarantined shard's disappears from
    /// the scrape).
    ///
    /// # Errors
    ///
    /// As for [`LiveFleet::metrics`], plus a non-JSON document.
    pub fn counter(&self, key: &str) -> Result<u64, String> {
        let body = self.metrics()?;
        let doc = json::parse(&body).map_err(|e| format!("metrics not JSON ({e}): {body}"))?;
        let counters = doc.get("counters").unwrap_or(&doc);
        Ok(counters.get(key).and_then(Json::as_u64).unwrap_or(0))
    }

    /// Polls fleet job `id` until `predicate` holds on its status document
    /// and returns that document.
    ///
    /// # Errors
    ///
    /// A transport failure, a non-200 status, the job failing while it
    /// was awaited for `what`, or the deadline passing.
    pub fn await_status(
        &self,
        id: u64,
        what: &str,
        predicate: impl Fn(&Json) -> bool,
    ) -> Result<Json, String> {
        let deadline = Instant::now() + self.deadline;
        loop {
            let r = self
                .client()
                .request("GET", &format!("/v1/jobs/{id}"), None)
                .map_err(|e| format!("job status: {e}"))?;
            if r.status != 200 {
                return Err(format!("job status {}: {}", r.status, r.body));
            }
            let doc =
                json::parse(&r.body).map_err(|e| format!("status not JSON ({e}): {}", r.body))?;
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

    /// Awaits job `id` in state `done` and returns its result document.
    ///
    /// # Errors
    ///
    /// As for [`LiveFleet::await_status`], plus a done job without a
    /// result.
    pub fn await_result(&self, id: u64, what: &str) -> Result<Json, String> {
        let status = self.await_status(id, &format!("{what} completion"), |doc| {
            doc.get("state").and_then(Json::as_str) == Some("done")
        })?;
        status
            .get("result")
            .cloned()
            .ok_or_else(|| format!("{what}: done without result"))
    }

    /// Awaits job `id` done and checks its result renders exactly as
    /// `golden` (the in-process run of the same spec).
    ///
    /// # Errors
    ///
    /// As for [`LiveFleet::await_result`], plus any byte of divergence.
    pub fn await_identical(&self, id: u64, golden: &str, what: &str) -> Result<(), String> {
        let result = self.await_result(id, what)?.render();
        if result != golden {
            return Err(format!(
                "{what} diverged from the single-process run\n  golden: {golden}\n  fleet:  {result}"
            ));
        }
        Ok(())
    }

    /// Shuts the fleet down (`POST /v1/shutdown` must answer 200), joins
    /// the serving thread, and removes the journal root.
    ///
    /// # Errors
    ///
    /// The shutdown answer, a panicked or failed `Fleet::run`, or the
    /// cleanup failure.
    pub fn finish(mut self) -> Result<(), String> {
        let r = self
            .client()
            .request("POST", "/v1/shutdown", None)
            .map_err(|e| format!("shutdown: {e}"))?;
        if r.status != 200 {
            return Err(format!("shutdown {}: {}", r.status, r.body));
        }
        if let Some(serving) = self.serving.take() {
            serving
                .join()
                .map_err(|_| "fleet serving thread panicked".to_owned())?
                .map_err(|e| format!("fleet run: {e}"))?;
        }
        std::fs::remove_dir_all(&self.journal_root)
            .map_err(|e| format!("cleanup {}: {e}", self.journal_root.display()))
    }
}

impl Drop for LiveFleet {
    /// The error path: best-effort shutdown, join, and cleanup.
    fn drop(&mut self) {
        if let Some(serving) = self.serving.take() {
            let _ = Client::new(self.addr)
                .read_timeout(Duration::from_secs(10))
                .request("POST", "/v1/shutdown", None);
            let _ = serving.join();
        }
        let _ = std::fs::remove_dir_all(&self.journal_root);
    }
}

/// When invoked as `<exe> --shard --port=... --workers=... ...`, runs a
/// `baryon-serve` shard to completion and returns its exit code; returns
/// `None` when this invocation is not shard mode (the caller proceeds as
/// the parent harness).
pub fn maybe_run_shard() -> Option<ExitCode> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) != Some("--shard") {
        return None;
    }
    Some(run_shard(&args[1..]))
}

/// A launcher that re-invokes the current executable in `--shard` mode.
///
/// # Errors
///
/// Propagates `current_exe` resolution failures.
pub fn self_launcher(workers: usize, queue_depth: usize) -> io::Result<ShardLauncher> {
    Ok(ShardLauncher {
        program: std::env::current_exe()?,
        prefix_args: vec!["--shard".to_owned()],
        workers,
        queue_depth,
        policy_path: None,
        extra_env: Vec::new(),
    })
}

/// Parses `--key=value` shard flags onto a [`ServeConfig`].
///
/// # Errors
///
/// Describes the first malformed or unknown flag.
fn parse_shard_config(flags: &[String]) -> Result<ServeConfig, String> {
    let mut cfg = ServeConfig {
        port: 0,
        ..ServeConfig::default()
    };
    for flag in flags {
        let Some((key, value)) = flag.split_once('=') else {
            return Err(format!("flags are --key=value, got {flag:?}"));
        };
        let ok = match key {
            "--port" => value.parse().map(|p| cfg.port = p).is_ok(),
            "--workers" => value.parse().map(|w| cfg.workers = w).is_ok(),
            "--queue-depth" => value.parse().map(|q| cfg.queue_depth = q).is_ok(),
            "--journal-dir" => {
                cfg.journal_dir = Some(PathBuf::from(value));
                true
            }
            "--policy" => {
                let policy = baryon_core::policy::FleetPolicy::load(std::path::Path::new(value))
                    .map_err(|e| format!("cannot load policy {value:?}: {e}"))?;
                cfg.policy = Some(policy);
                true
            }
            _ => return Err(format!("unknown flag {key:?}")),
        };
        if !ok {
            return Err(format!("cannot parse {flag:?}"));
        }
    }
    Ok(cfg)
}

fn run_shard(flags: &[String]) -> ExitCode {
    let cfg = match parse_shard_config(flags) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("shard mode: {e}");
            return ExitCode::from(2);
        }
    };
    let server = match Server::bind(cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("shard cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Line-buffered stdout: the supervisor reads this line synchronously.
    println!("ADDR {}", server.local_addr());
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("shard server error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_launcher_speaks_the_spawn_contract() {
        let launcher = self_launcher(2, 16).expect("current exe resolves");
        assert_eq!(launcher.prefix_args, ["--shard"]);
        assert_eq!(launcher.workers, 2);
        assert_eq!(launcher.queue_depth, 16);
        assert!(launcher.program.is_absolute());
    }

    #[test]
    fn shard_flags_parse_onto_serve_config() {
        let flags: Vec<String> = [
            "--port=0",
            "--workers=3",
            "--queue-depth=9",
            "--journal-dir=/tmp/j",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let cfg = parse_shard_config(&flags).expect("well-formed");
        assert_eq!(cfg.port, 0);
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.queue_depth, 9);
        assert_eq!(
            cfg.journal_dir.as_deref(),
            Some(std::path::Path::new("/tmp/j"))
        );
    }

    #[test]
    fn policy_flag_loads_and_validates_the_file() {
        let dir =
            std::env::temp_dir().join(format!("baryon-harness-policy-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("policy.json");
        std::fs::write(&path, r#"{"generation":7,"scrub_interval":100000}"#).expect("write");
        let cfg = parse_shard_config(&[format!("--policy={}", path.display())]).expect("loads");
        let policy = cfg.policy.expect("policy set");
        assert_eq!(policy.generation, 7);
        assert_eq!(policy.scrub_interval, Some(100_000));
        // An invalid policy file is a parse error, not a panic.
        std::fs::write(&path, r#"{"commit_k":-1}"#).expect("write");
        let err = parse_shard_config(&[format!("--policy={}", path.display())])
            .expect_err("invalid policy");
        assert!(err.contains("cannot load policy"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_shard_flags_are_rejected() {
        for bad in ["--workers", "--workers=lots", "--turbo=1"] {
            let err = parse_shard_config(&[bad.to_owned()]).expect_err(bad);
            assert!(err.contains(bad.split('=').next().unwrap_or(bad)), "{err}");
        }
    }
}
