//! QoS and quota edge cases against a real fleet (coordinator + one
//! forked shard): quota release when a disconnected client's job
//! settles, `Retry-After` under simultaneous class-cap and quota
//! exhaustion (the 429 wins), and interactive starvation-freedom under
//! a saturating batch backlog.

mod common;

use baryon_serve::client::Client;
use baryon_sim::json::{self, Json};
use common::{await_end, body_id, Harness};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A raw HTTP exchange with custom headers (the typed client has no
/// header hook; quota identity rides on `x-baryon-client`). Returns
/// `(status, headers, body)`; dropping the stream afterwards is exactly
/// the "client disconnects" behaviour under test.
fn raw_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> (u16, Vec<(String, String)>, String) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut request = format!("{method} {path} HTTP/1.1\r\nHost: qos\r\nConnection: close\r\n");
    for (name, value) in headers {
        request.push_str(&format!("{name}: {value}\r\n"));
    }
    request.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    writer.write_all(request.as_bytes()).expect("write");
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let mut response_headers = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            response_headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
        }
    }
    let length: usize = response_headers
        .iter()
        .find(|(name, _)| name == "content-length")
        .and_then(|(_, value)| value.parse().ok())
        .unwrap_or(0);
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).expect("body");
    (
        status,
        response_headers,
        String::from_utf8(body).expect("utf-8 body"),
    )
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

const RUN: &str = r#"{"workload":"ycsb-a","controller":"simple","insts":20000,"warmup":2000,"scale":2048,"seed":3}"#;

#[test]
fn quota_releases_when_a_disconnected_clients_job_settles() {
    let h = Harness::boot("disconnect", 16, 1);
    // Pause the only shard so the first job deterministically stays in
    // flight (queued, requeueing) while we probe the quota.
    h.controller.pause_shard(0);
    let (status, _, body) = raw_request(
        h.addr,
        "POST",
        "/v1/jobs",
        &[("x-baryon-client", "ghost")],
        RUN,
    );
    assert_eq!(status, 202, "{body}");
    let id = body_id(&body);
    // The submitting connection is gone (raw_request dropped it) — the
    // fleet must keep the job AND keep the quota slot held.
    let (status, headers, body) = raw_request(
        h.addr,
        "POST",
        "/v1/jobs",
        &[("x-baryon-client", "ghost")],
        RUN,
    );
    assert_eq!(status, 429, "quota still held mid-job: {body}");
    assert!(body.contains("quota_exceeded"), "{body}");
    assert_eq!(
        header(&headers, "retry-after"),
        Some("1"),
        "interactive retry hint"
    );
    // Another client is unaffected.
    let (status, _, body) = raw_request(
        h.addr,
        "POST",
        "/v1/jobs",
        &[("x-baryon-client", "other")],
        RUN,
    );
    assert_eq!(status, 202, "quotas are per-client: {body}");
    // Let the fleet run the ghost's job to completion; the ghost never
    // reconnects to claim it.
    h.controller.unpause_shard(0);
    assert_eq!(await_end(h.addr, id), "done");
    // The slot came back without any client-side action.
    let (status, _, body) = raw_request(
        h.addr,
        "POST",
        "/v1/jobs",
        &[("x-baryon-client", "ghost")],
        RUN,
    );
    assert_eq!(status, 202, "quota released on settle: {body}");
    let released = body_id(&body);
    assert_eq!(await_end(h.addr, released), "done");
}

#[test]
fn quota_beats_queue_full_and_retry_after_matches_class() {
    let h = Harness::boot("retry-after", 2, 2);
    h.controller.pause_shard(0);
    // Client "q" fills its own quota (2 in flight).
    let mut ids = Vec::new();
    for _ in 0..2 {
        let (status, _, body) =
            raw_request(h.addr, "POST", "/v1/jobs", &[("x-baryon-client", "q")], RUN);
        assert_eq!(status, 202, "{body}");
        ids.push(body_id(&body));
    }
    // Saturate the interactive queue from other clients: with the shard
    // paused, dispatchers hold at most a couple of popped items, so a
    // bounded burst must hit `503 queue_full`.
    let mut saw_queue_full = false;
    for i in 0..20 {
        let client = format!("filler-{i}");
        let (status, headers, body) = raw_request(
            h.addr,
            "POST",
            "/v1/jobs",
            &[("x-baryon-client", &client)],
            RUN,
        );
        match status {
            202 => ids.push(body_id(&body)),
            503 => {
                assert!(body.contains("queue_full"), "{body}");
                assert_eq!(
                    header(&headers, "retry-after"),
                    Some("1"),
                    "interactive class hint on 503"
                );
                saw_queue_full = true;
                break;
            }
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    assert!(saw_queue_full, "the interactive queue never filled");
    // Simultaneous exhaustion: client "q" is over quota AND the queue is
    // full — the quota answer (429) wins, with the class's retry hint.
    let (status, headers, body) =
        raw_request(h.addr, "POST", "/v1/jobs", &[("x-baryon-client", "q")], RUN);
    assert_eq!(status, 429, "quota beats queue_full: {body}");
    assert!(body.contains("quota_exceeded"), "{body}");
    assert_eq!(header(&headers, "retry-after"), Some("1"));
    // The same collision on the batch class advertises the batch hint.
    let (status, headers, body) = raw_request(
        h.addr,
        "POST",
        "/v1/jobs",
        &[("x-baryon-client", "q"), ("x-baryon-class", "batch")],
        RUN,
    );
    assert_eq!(status, 429, "{body}");
    assert_eq!(
        header(&headers, "retry-after"),
        Some("5"),
        "batch class hint on the 429"
    );
    // A batch submit from a fresh client sees its own (empty) class level:
    // the full interactive queue must not reject batch admission outright.
    let grid = r#"{"grid":{"workloads":["ycsb-a"],"controllers":["simple"],"insts":20000,"warmup":2000,"scale":2048,"seed":3}}"#;
    let (status, _, body) = raw_request(
        h.addr,
        "POST",
        "/v1/jobs",
        &[("x-baryon-client", "bulk")],
        grid,
    );
    assert_eq!(status, 202, "batch level admits independently: {body}");
    ids.push(body_id(&body));
    // Drain everything so shutdown is clean.
    h.controller.unpause_shard(0);
    for id in ids {
        assert_eq!(await_end(h.addr, id), "done");
    }
}

/// The coordinator runs `max(shards, 2)` dispatcher threads; each holds
/// at most one popped item at a time.
const DISPATCHERS: u64 = 2;

/// The `spec.seed` of shard-local job `remote`, read straight from the
/// shard.
fn shard_job_seed(shard: SocketAddr, remote: u64) -> u64 {
    let response = Client::new(shard)
        .read_timeout(Duration::from_secs(10))
        .request("GET", &format!("/v1/jobs/{remote}"), None)
        .expect("shard status fetch");
    let doc = json::parse(&response.body).expect("json");
    doc.get("spec")
        .and_then(|spec| spec.get("seed"))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("shard job {remote} has no seed: {}", response.body))
}

#[test]
fn interactive_stays_live_under_saturating_batch_load() {
    let h = Harness::boot("starvation", 256, 64);
    // Hold the single one-worker shard so a standing batch backlog
    // (several grids, 8 cells) queues at the coordinator ahead of the
    // interactive job.
    h.controller.pause_shard(0);
    let grid = r#"{"grid":{"workloads":["ycsb-a","pr.twi"],"controllers":["simple","baryon"],"insts":100000,"warmup":10000,"scale":1024,"seed":7}}"#;
    let mut batch_ids = Vec::new();
    for _ in 0..2 {
        let (status, _, body) = raw_request(
            h.addr,
            "POST",
            "/v1/jobs",
            &[("x-baryon-client", "bulk")],
            grid,
        );
        assert_eq!(status, 202, "{body}");
        batch_ids.push(body_id(&body));
    }
    // A latecomer interactive job must overtake the backlog.
    let (status, _, body) = raw_request(
        h.addr,
        "POST",
        "/v1/jobs",
        &[("x-baryon-client", "human")],
        RUN,
    );
    assert_eq!(status, 202, "{body}");
    let interactive = body_id(&body);
    h.controller.unpause_shard(0);
    assert_eq!(await_end(h.addr, interactive), "done");
    for id in &batch_ids {
        assert_eq!(await_end(h.addr, *id), "done");
    }
    // Order, not wall time: the shard numbers jobs as they arrive. Cells
    // for a paused shard stay queued in place, so once it resumes the
    // interactive job pops first; at most one batch cell per other
    // dispatcher may be in flight ahead of it.
    let shard = h.controller.shard_addr(0);
    let position = (1..=9)
        .find(|&remote| shard_job_seed(shard, remote) == 3)
        .expect("the interactive job reached the shard");
    assert!(
        position <= DISPATCHERS,
        "{} batch cells reached the shard before the interactive job",
        position - 1
    );
}
