//! Completion is pushed, not polled: on a fault-free fleet every landed
//! cell costs exactly one shard status fetch. A poller fetches every
//! running cell once per tick, so under polling the identity would hold
//! only if each cell happened to finish within one tick.

mod common;

use baryon_serve::client::Client;
use baryon_sim::json::{self, Json};
use common::{await_end, body_id, Harness};
use std::net::SocketAddr;
use std::time::Duration;

fn client(addr: SocketAddr) -> Client {
    Client::new(addr).read_timeout(Duration::from_secs(60))
}

/// Submits `spec` and follows the fleet job's event stream to its end,
/// returning the final state.
fn run_to_end(addr: SocketAddr, spec: &str) -> String {
    let accepted = client(addr)
        .request("POST", "/v1/jobs", Some(spec))
        .expect("submit");
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    await_end(addr, body_id(&accepted.body))
}

/// A counter from the fleet's `/v1/metrics` document.
fn counter(metrics: &Json, name: &str) -> u64 {
    metrics
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("metrics lack counter {name}: {}", metrics.render()))
}

#[test]
fn each_landed_cell_costs_exactly_one_status_fetch() {
    let h = Harness::boot("push", 64, 8);
    let singles = 4;
    for seed in 0..singles {
        let spec = format!(
            r#"{{"workload":"ycsb-a","controller":"simple","insts":5000,"warmup":500,"scale":2048,"seed":{seed}}}"#
        );
        assert_eq!(run_to_end(h.addr, &spec), "done");
    }
    let grid = r#"{"grid":{"workloads":["ycsb-a","pr.twi"],"controllers":["simple","baryon"],"insts":5000,"warmup":500,"scale":2048,"seed":9}}"#;
    assert_eq!(run_to_end(h.addr, grid), "done");

    assert_eq!(h.controller.restarts(), 0, "the run was fault-free");
    let metrics = client(h.addr)
        .request("GET", "/v1/metrics", None)
        .expect("metrics");
    let metrics = json::parse(&metrics.body).expect("metrics are JSON");
    let landed = counter(&metrics, "fleet.cells.landed");
    let fetches = counter(&metrics, "fleet.shard.status_fetches");
    assert_eq!(
        landed,
        singles + 4,
        "every single and grid cell landed once"
    );
    assert_eq!(
        fetches, landed,
        "one status fetch per landed cell, no polling"
    );
}
