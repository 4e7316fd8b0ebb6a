//! Completion is pushed, not polled: on a fault-free fleet every landed
//! cell costs exactly one shard status fetch. A poller fetches every
//! running cell once per tick, so under polling the identity would hold
//! only if each cell happened to finish within one tick.

mod common;

#[test]
fn each_landed_cell_costs_exactly_one_status_fetch() {
    let h = common::boot("push", 64, 8);
    let client = h.client();
    let singles = 4;
    for seed in 0..singles {
        let spec = format!(
            r#"{{"workload":"ycsb-a","controller":"simple","insts":5000,"warmup":500,"scale":2048,"seed":{seed}}}"#
        );
        let id = client.submit_job(&spec).expect("submit");
        assert_eq!(client.await_end(id).expect("event stream"), "done");
    }
    let grid = r#"{"grid":{"workloads":["ycsb-a","pr.twi"],"controllers":["simple","baryon"],"insts":5000,"warmup":500,"scale":2048,"seed":9}}"#;
    let id = client.submit_job(grid).expect("submit");
    assert_eq!(client.await_end(id).expect("event stream"), "done");

    assert_eq!(h.controller.restarts(), 0, "the run was fault-free");
    let landed = h.counter("fleet.cells.landed").expect("metrics");
    let fetches = h.counter("fleet.shard.status_fetches").expect("metrics");
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
