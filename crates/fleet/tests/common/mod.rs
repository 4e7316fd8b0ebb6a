//! A one-shard fleet booted in-process for the integration suites: a
//! [`LiveFleet`] over one forked shard (the `fleet_gate` binary in
//! `--shard` mode), torn down on drop. Jobs are awaited on their event
//! streams (`Client::await_end`), never by polling.

use baryon_fleet::harness::LiveFleet;
use baryon_fleet::{FleetConfig, ShardLauncher};
use std::path::PathBuf;

/// Boots a fleet of one single-worker shard with the given per-class
/// queue cap and per-client in-flight quota.
pub fn boot(tag: &str, queue_cap: usize, max_in_flight: usize) -> LiveFleet {
    LiveFleet::boot(
        &format!("fleet-test-{tag}"),
        FleetConfig {
            shards: 1,
            workers_per_shard: 1,
            shard_queue_depth: 64,
            queue_cap,
            max_in_flight_per_client: max_in_flight,
            ..FleetConfig::default()
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
    .expect("fleet boots")
}
