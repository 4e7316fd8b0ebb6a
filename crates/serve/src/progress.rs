//! Live per-job progress shared between workers and event streams.
//!
//! Workers publish [`JobProgress`] snapshots into the [`ProgressBoard`] as
//! their run advances (fed by the simulator's incremental `RunCursor`
//! execution); each `GET /v1/jobs/<id>/events` stream blocks on the board
//! and emits a chunk whenever the snapshot's sequence number moves
//! ([`ProgressBoard::stream_events`], shared by `baryon-serve` and the
//! fleet coordinator). The board is observational only — publishing never
//! perturbs a run, and a job with no subscribers pays one mutex lock per
//! observation interval.

use crate::http::ChunkedWriter;
use crate::job::JobState;
use baryon_sim::json::Json;
use std::collections::HashMap;
use std::io::{self, Write};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// How many empty waits (500 ms each) between `alive` heartbeats on an
/// otherwise idle event stream — a dead peer is noticed within ~10 s even
/// when the job publishes nothing (e.g. still queued).
const STREAM_HEARTBEAT_WAITS: u32 = 20;

/// One job's latest progress snapshot. For single runs the simulator
/// fields (`phase`, `ops`, `insts_done`, `insts_target`, `cycles`) carry
/// the signal and `cells_total` is 1; for grids the cell counters carry it
/// and the simulator fields describe the cell currently executing.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JobProgress {
    /// Bumps on every publish; streams emit when it moves past what they
    /// last sent, so `seq` is strictly monotonic within one stream.
    pub seq: u64,
    /// Run phase: `warmup`, `measure`, or `done`.
    pub phase: &'static str,
    /// Trace operations executed since the (current cell's) run began.
    /// Strictly monotonic over a single run — the ordering guarantee
    /// streamed consumers assert on.
    pub ops: u64,
    /// Instructions retired so far (cumulative across warmup + measure).
    pub insts_done: u64,
    /// Instruction target (steps up once at the warmup/measure boundary).
    pub insts_target: u64,
    /// Measure-phase cycles so far (0 during warmup).
    pub cycles: u64,
    /// Grid cells completed.
    pub cells_done: u64,
    /// Total grid cells (1 for a single run).
    pub cells_total: u64,
}

impl JobProgress {
    /// The event-stream JSON for this snapshot (without the `event` tag —
    /// the stream layer wraps it).
    pub fn to_json(&self, id: u64) -> Json {
        Json::obj([
            ("event", Json::from("progress")),
            ("id", Json::from(id)),
            ("seq", Json::from(self.seq)),
            ("phase", Json::from(self.phase)),
            ("ops", Json::from(self.ops)),
            ("insts_done", Json::from(self.insts_done)),
            ("insts_target", Json::from(self.insts_target)),
            ("cycles", Json::from(self.cycles)),
            ("cells_done", Json::from(self.cells_done)),
            ("cells_total", Json::from(self.cells_total)),
        ])
    }

    /// Parses a `progress` event line back into a snapshot — the inverse of
    /// [`JobProgress::to_json`] for relaying another board's stream. `seq`
    /// is left at 0 (the republishing board numbers its own); anything that
    /// is not a progress event is `None`.
    pub fn from_json(doc: &Json) -> Option<JobProgress> {
        if doc.get("event").and_then(Json::as_str) != Some("progress") {
            return None;
        }
        let num = |key: &str| doc.get(key).and_then(Json::as_u64).unwrap_or(0);
        let phase = match doc.get("phase").and_then(Json::as_str) {
            Some("warmup") => "warmup",
            Some("done") => "done",
            _ => "measure",
        };
        Some(JobProgress {
            seq: 0,
            phase,
            ops: num("ops"),
            insts_done: num("insts_done"),
            insts_target: num("insts_target"),
            cycles: num("cycles"),
            cells_done: num("cells_done"),
            cells_total: num("cells_total"),
        })
    }
}

/// The shared progress table: job ID → latest snapshot, with a condvar so
/// event streams can sleep until something moves.
#[derive(Default)]
pub struct ProgressBoard {
    inner: Mutex<Snapshots>,
    moved: Condvar,
}

/// The board's lock-protected state.
#[derive(Default)]
struct Snapshots {
    map: HashMap<u64, JobProgress>,
    /// Bumps on every [`ProgressBoard::remove`], so a waiter can tell "my
    /// job's entry was dropped" from "my job has not published yet" — both
    /// look like a missing entry.
    removals: u64,
}

impl ProgressBoard {
    /// Creates an empty board.
    pub fn new() -> ProgressBoard {
        ProgressBoard::default()
    }

    /// Publishes an update for `id`: `apply` mutates the job's snapshot
    /// (created zeroed on first publish), the sequence number bumps, and
    /// every waiting stream wakes.
    pub fn publish(&self, id: u64, apply: impl FnOnce(&mut JobProgress)) {
        let mut inner = self.inner.lock().expect("progress lock poisoned");
        let entry = inner.map.entry(id).or_default();
        apply(entry);
        entry.seq += 1;
        drop(inner);
        self.moved.notify_all();
    }

    /// The latest snapshot for `id`, if the job has published anything.
    pub fn get(&self, id: u64) -> Option<JobProgress> {
        self.inner
            .lock()
            .expect("progress lock poisoned")
            .map
            .get(&id)
            .cloned()
    }

    /// Blocks until `id` has a snapshot with `seq > after`, its snapshot is
    /// removed, or `timeout` elapses. Returns the newer snapshot, or `None`
    /// otherwise (callers re-check job state and come back — settled jobs
    /// stop publishing and drop their snapshot). A caller that has seen a
    /// snapshot (`after > 0`) and finds the entry gone returns at once: the
    /// removal already happened.
    pub fn wait_past(&self, id: u64, after: u64, timeout: Duration) -> Option<JobProgress> {
        let inner = self.inner.lock().expect("progress lock poisoned");
        let epoch = inner.removals;
        let (inner, timed_out) = self
            .moved
            .wait_timeout_while(inner, timeout, |b| {
                b.removals == epoch && b.map.get(&id).map_or(after == 0, |p| p.seq <= after)
            })
            .map(|(guard, result)| (guard, result.timed_out()))
            .expect("progress lock poisoned");
        if timed_out {
            return None;
        }
        inner.map.get(&id).filter(|p| p.seq > after).cloned()
    }

    /// Serves `GET /v1/jobs/<id>/events`: one JSON event object per line
    /// over chunked transfer encoding — `progress` whenever the job's
    /// snapshot sequence moves (strictly monotonic `seq`/`ops` within a
    /// run), `alive` heartbeats across long gaps, and a final `end` once
    /// `state` reports the job settled, carrying that state (`evicted`
    /// when `state` no longer knows the job). Each server passes its own
    /// job table's view of the state.
    ///
    /// # Errors
    ///
    /// Propagates writer errors (the client hung up).
    pub fn stream_events<W: Write>(
        &self,
        id: u64,
        writer: W,
        state: impl Fn() -> Option<JobState>,
    ) -> io::Result<()> {
        let mut stream = ChunkedWriter::begin(writer, 200, &[])?;
        let mut last_seq = 0;
        let mut idle_waits = 0;
        loop {
            if let Some(p) = self.get(id) {
                if p.seq > last_seq {
                    last_seq = p.seq;
                    idle_waits = 0;
                    send_line(&mut stream, &p.to_json(id))?;
                }
            }
            let end = match state() {
                None => Some("evicted"),
                Some(state) => state.is_settled().then(|| state.as_str()),
            };
            if let Some(end) = end {
                let line = Json::obj([
                    ("event", Json::from("end")),
                    ("id", Json::from(id)),
                    ("state", Json::from(end)),
                ]);
                send_line(&mut stream, &line)?;
                return stream.finish();
            }
            if self
                .wait_past(id, last_seq, Duration::from_millis(500))
                .is_none()
            {
                idle_waits += 1;
                if idle_waits >= STREAM_HEARTBEAT_WAITS {
                    idle_waits = 0;
                    let line = Json::obj([("event", Json::from("alive")), ("id", Json::from(id))]);
                    send_line(&mut stream, &line)?;
                }
            }
        }
    }

    /// Drops a settled job's snapshot (its final state now lives in the
    /// job table; keeping board entries for evicted jobs would leak).
    pub fn remove(&self, id: u64) {
        let mut inner = self.inner.lock().expect("progress lock poisoned");
        inner.map.remove(&id);
        inner.removals += 1;
        drop(inner);
        self.moved.notify_all();
    }
}

/// Writes `doc` as one newline-terminated chunk.
fn send_line<W: Write>(stream: &mut ChunkedWriter<W>, doc: &Json) -> io::Result<()> {
    let mut line = doc.render();
    line.push('\n');
    stream.chunk(line.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn publish_bumps_seq_and_get_sees_it() {
        let board = ProgressBoard::new();
        assert_eq!(board.get(7), None);
        board.publish(7, |p| {
            p.phase = "warmup";
            p.ops = 100;
            p.cells_total = 1;
        });
        let p = board.get(7).expect("published");
        assert_eq!(p.seq, 1);
        assert_eq!(p.ops, 100);
        board.publish(7, |p| p.ops = 200);
        let p = board.get(7).expect("published");
        assert_eq!(p.seq, 2);
        assert_eq!(p.ops, 200);
        board.remove(7);
        assert_eq!(board.get(7), None);
    }

    #[test]
    fn wait_past_times_out_without_updates() {
        let board = ProgressBoard::new();
        board.publish(1, |p| p.ops = 1);
        assert!(board.wait_past(1, 1, Duration::from_millis(10)).is_none());
        // seq 1 already satisfies `after = 0` — returns immediately.
        let p = board
            .wait_past(1, 0, Duration::from_millis(10))
            .expect("already past");
        assert_eq!(p.seq, 1);
    }

    #[test]
    fn wait_past_wakes_on_publish() {
        let board = Arc::new(ProgressBoard::new());
        let waiter = Arc::clone(&board);
        let handle = std::thread::spawn(move || waiter.wait_past(9, 0, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        board.publish(9, |p| p.ops = 42);
        let p = handle.join().expect("no panic").expect("woken");
        assert_eq!(p.ops, 42);
    }

    #[test]
    fn wait_past_wakes_on_remove() {
        let board = Arc::new(ProgressBoard::new());
        board.publish(5, |p| p.ops = 1);
        let waiter = Arc::clone(&board);
        // Only the removal can end this wait before its 60 s timeout; the
        // loose bound below just tells the two apart.
        let t = std::time::Instant::now();
        let handle = std::thread::spawn(move || waiter.wait_past(5, 1, Duration::from_secs(60)));
        std::thread::sleep(Duration::from_millis(20));
        board.remove(5);
        assert_eq!(handle.join().expect("no panic"), None);
        // A waiter arriving after the removal it has not seen returns at
        // once too.
        assert_eq!(board.wait_past(5, 1, Duration::from_secs(60)), None);
        assert!(
            t.elapsed() < Duration::from_secs(30),
            "woken by the timeout"
        );
    }

    #[test]
    fn stream_events_ends_with_the_settled_state() {
        let board = ProgressBoard::new();
        board.publish(3, |p| p.ops = 10);
        let mut out = Vec::new();
        board
            .stream_events(3, &mut out, || Some(JobState::Done))
            .expect("in-memory stream");
        let body = String::from_utf8(out).expect("utf-8");
        let progress = body.find(r#"{"event":"progress","id":3,"seq":1,"#);
        let end = body.find(r#"{"event":"end","id":3,"state":"done"}"#);
        assert!(progress.is_some() && end > progress, "{body}");
        let mut out = Vec::new();
        board
            .stream_events(4, &mut out, || None)
            .expect("in-memory stream");
        let body = String::from_utf8(out).expect("utf-8");
        assert!(body.contains(r#""state":"evicted""#), "{body}");
    }

    #[test]
    fn progress_json_shape() {
        let mut p = JobProgress {
            seq: 3,
            phase: "measure",
            ops: 500,
            insts_done: 400,
            insts_target: 1000,
            cycles: 2000,
            cells_done: 0,
            cells_total: 1,
        };
        let text = p.to_json(12).render();
        assert!(
            text.starts_with("{\"event\":\"progress\",\"id\":12,\"seq\":3,"),
            "{text}"
        );
        assert!(text.contains("\"phase\":\"measure\""), "{text}");
        assert!(text.contains("\"ops\":500"), "{text}");
        p.phase = "done";
        assert!(p.to_json(12).render().contains("\"phase\":\"done\""));
        // The relay parse recovers every field but the board-local seq.
        let back = JobProgress::from_json(&p.to_json(12)).expect("progress event");
        assert_eq!(back, JobProgress { seq: 0, ..p });
        let alive = Json::obj([("event", Json::from("alive")), ("id", Json::from(12u64))]);
        assert_eq!(JobProgress::from_json(&alive), None);
    }
}
