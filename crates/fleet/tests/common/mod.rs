//! A one-shard fleet booted in-process for the integration suites: the
//! coordinator serves on an ephemeral port from a background thread over
//! one forked shard (the `fleet_gate` binary in `--shard` mode), and drop
//! shuts it down and removes its journals. Jobs are awaited on their event
//! streams, never by polling.

use baryon_fleet::{Fleet, FleetConfig, FleetController, ShardLauncher};
use baryon_serve::client::Client;
use baryon_sim::json::{self, Json};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

pub struct Harness {
    pub addr: SocketAddr,
    pub controller: FleetController,
    server: Option<std::thread::JoinHandle<()>>,
    journal_root: PathBuf,
}

impl Harness {
    /// Boots a fleet of one single-worker shard with the given
    /// per-class queue cap and per-client in-flight quota.
    pub fn boot(tag: &str, queue_cap: usize, max_in_flight: usize) -> Harness {
        let journal_root = std::env::temp_dir().join(format!(
            "baryon-fleet-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&journal_root);
        let fleet = Fleet::bind(
            FleetConfig {
                port: 0,
                shards: 1,
                workers_per_shard: 1,
                shard_queue_depth: 64,
                queue_cap,
                max_in_flight_per_client: max_in_flight,
                journal_root: journal_root.clone(),
            },
            ShardLauncher {
                program: PathBuf::from(env!("CARGO_BIN_EXE_fleet_gate")),
                prefix_args: vec!["--shard".to_owned()],
                workers: 1,
                queue_depth: 64,
                policy_path: None,
                extra_env: Vec::new(),
            },
        )
        .expect("fleet boots");
        let addr = fleet.local_addr();
        let controller = fleet.controller();
        let server = std::thread::spawn(move || {
            let _ = fleet.run();
        });
        Harness {
            addr,
            controller,
            server: Some(server),
            journal_root,
        }
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        let _ = Client::new(self.addr)
            .read_timeout(Duration::from_secs(10))
            .request("POST", "/v1/shutdown", None);
        if let Some(server) = self.server.take() {
            let _ = server.join();
        }
        let _ = std::fs::remove_dir_all(&self.journal_root);
    }
}

/// The `id` field of a JSON response body.
pub fn body_id(body: &str) -> u64 {
    json::parse(body)
        .ok()
        .and_then(|doc| doc.get("id").and_then(Json::as_u64))
        .unwrap_or_else(|| panic!("no id in {body}"))
}

/// Follows fleet job `id`'s event stream to its `end` line and returns the
/// final state that line carries.
pub fn await_end(addr: SocketAddr, id: u64) -> String {
    let mut end_state = None;
    Client::new(addr)
        .read_timeout(Duration::from_secs(60))
        .stream(&format!("/v1/jobs/{id}/events"), &mut |line| {
            let doc = json::parse(line).expect("event lines are JSON");
            if doc.get("event").and_then(Json::as_str) == Some("end") {
                end_state = doc.get("state").and_then(Json::as_str).map(str::to_owned);
            }
        })
        .expect("event stream");
    end_state.expect("stream closed with an end line")
}
