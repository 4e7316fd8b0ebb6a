//! The fleet coordinator: one front-door HTTP server over N shards.
//!
//! The coordinator owns no simulation code. It admits jobs (per-client
//! quotas, two-level QoS queue), hash-routes single runs onto shards,
//! scatters grid sweeps cell-by-cell across every shard, gathers batch
//! results deterministically, serves event streams from its own progress
//! board, and merges every shard's full-fidelity wire metrics into one
//! fleet-wide registry under `shard<i>.` namespaces.
//!
//! Completion is pushed, not polled: every dispatched cell gets one
//! watcher thread that follows the executing shard's
//! `GET /v1/jobs/<remote>/events` stream until its `end` line (relaying a
//! single run's progress onto the coordinator's board), then makes one
//! CRC-verified `GET /v1/jobs/<remote>` and lands the cell.
//!
//! Supervision is the shard set's ([`crate::shard::ShardSet`]): a killed
//! or wedged shard is restarted on its own journal directory, replays its
//! write-ahead journal, and resumes interrupted runs from checkpoints —
//! a watcher whose stream broke just reconnects to the same shard-local
//! job ID at the new address, so a mid-sweep `SIGKILL` costs latency,
//! never results.

use crate::config::{CommitError, RollbackError, Slot, SlotMachine, StageError};
use crate::quota::{Class, ClientQuotas, QosQueue, QueueError};
use crate::router::{CellState, FleetJob, FleetJobKind, JobBoard};
use crate::shard::{ShardLauncher, ShardSet};
use baryon_bench::batch::BatchPlan;
use baryon_bench::spec::JobSpec;
use baryon_compress::crc::crc32;
use baryon_core::checkpoint::atomic_write;
use baryon_core::policy::FleetPolicy;
use baryon_serve::client::{Client, ClientError, ClientResponse};
use baryon_serve::error::ErrorCode;
use baryon_serve::http::{read_request, Request, Response, CRC_HEADER};
use baryon_serve::job::{CancelOutcome, JobState};
use baryon_serve::progress::{JobProgress, ProgressBoard};
use baryon_sim::json::{self, Json};
use baryon_sim::telemetry::Registry;
use baryon_sim::wire;
use std::io::{self, BufReader};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Coordinator construction knobs (the CLI's `fleet` flags).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetConfig {
    /// TCP port on 127.0.0.1; `0` asks for an ephemeral port.
    pub port: u16,
    /// Number of worker shards to spawn and supervise.
    pub shards: usize,
    /// Worker threads per shard.
    pub workers_per_shard: usize,
    /// Bounded queue depth per shard.
    pub shard_queue_depth: usize,
    /// Coordinator dispatch-queue capacity *per class* — a full batch
    /// backlog cannot reject interactive work.
    pub queue_cap: usize,
    /// Per-client in-flight job cap (fleet jobs, not cells).
    pub max_in_flight_per_client: usize,
    /// Root directory for per-shard journals (`<root>/shard<i>/`).
    pub journal_root: PathBuf,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            port: 8678,
            shards: 3,
            workers_per_shard: 2,
            shard_queue_depth: 64,
            queue_cap: 256,
            max_in_flight_per_client: 8,
            journal_root: PathBuf::from("fleet-journal"),
        }
    }
}

/// Fleet-level counters, merged into the `/v1/metrics` registry under
/// `fleet.*` alongside each shard's absorbed `shard<i>.serve.*` metrics.
#[derive(Default)]
struct FleetMetrics {
    submitted: AtomicU64,
    rejected_quota: AtomicU64,
    rejected_queue: AtomicU64,
    done: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    redispatched: AtomicU64,
    /// Cells re-dispatched off a shard that exhausted its crash-loop
    /// budget and was quarantined.
    failover: AtomicU64,
    /// Shard replies that flunked their CRC frame (a lying shard) and
    /// were discarded instead of trusted.
    reply_errors: AtomicU64,
    /// Results computed under a config generation whose roll failed —
    /// withheld from gathers and re-dispatched under the restored config.
    quarantined_results: AtomicU64,
    /// Cells moved off `Dispatched` by a settled shard-side record.
    landed: AtomicU64,
    /// `GET /v1/jobs/<remote>` status fetches sent to shards. Fault-free,
    /// exactly one per landed cell.
    status_fetches: AtomicU64,
}

/// A shard reply the coordinator refused to act on.
#[derive(Debug)]
pub enum ShardError {
    /// The reply body does not hash to its `x-baryon-crc` frame — a
    /// lying shard (or a corrupting path between us and it).
    Corrupt {
        /// The CRC the shard stamped on the reply.
        claimed: String,
        /// The CRC of the body that actually arrived.
        actual: u32,
    },
    /// Transport-level failure reaching the shard.
    Transport(ClientError),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Corrupt { claimed, actual } => write!(
                f,
                "shard reply failed its CRC check (claimed {claimed}, body is {actual:08x})"
            ),
            ShardError::Transport(e) => write!(f, "shard unreachable: {e}"),
        }
    }
}

impl std::error::Error for ShardError {}

/// One unit of dispatch: a whole single run (`cell == None`) or one batch
/// cell, with the class it queues under and the shard it is routed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WorkItem {
    fleet_id: u64,
    cell: Option<usize>,
    class: Class,
    shard: usize,
}

impl WorkItem {
    /// The work item for `job`'s cell `cell` (a [`FleetJob::cell_mut`]
    /// index), routed where the job's plan puts it.
    fn of(job: &FleetJob, cell: Option<usize>) -> WorkItem {
        let shard = match &job.kind {
            FleetJobKind::Single { shard, .. } => *shard,
            FleetJobKind::Batch { plan, .. } => plan.cells[cell.unwrap_or_default()].shard,
        };
        WorkItem {
            fleet_id: job.id,
            cell,
            class: job.class,
            shard,
        }
    }
}

/// State shared by the accept loop, handlers, dispatchers, completion
/// watchers, and the supervisor.
struct FleetShared {
    board: JobBoard,
    queue: QosQueue<WorkItem>,
    quotas: ClientQuotas,
    shards: ShardSet,
    progress: ProgressBoard,
    metrics: FleetMetrics,
    shutdown: AtomicBool,
    addr: SocketAddr,
    /// The A/B config slot machine (persisted under `config_dir`).
    config: Mutex<SlotMachine>,
    /// Where slot policies and the machine state live
    /// (`<journal_root>/config/`).
    config_dir: PathBuf,
    /// Serializes rollouts: commit/rollback hold this for the whole
    /// rolling restart so at most one engine runs.
    rollout: Mutex<()>,
    /// The config generation a commit is currently rolling toward (0 =
    /// no roll in flight). While nonzero, [`land_cell`] stages finished
    /// results instead of settling them — a gather must never mix cells
    /// computed under a generation that may yet be rolled back.
    rolling_to: AtomicU64,
}

impl FleetShared {
    /// Applies a board update; when it settles the job, releases the
    /// client's quota slot, bumps completion counters, and nudges event
    /// streams via the progress board.
    fn apply_update(&self, id: u64, apply: impl FnOnce(&mut FleetJob)) {
        let Some((client, _class)) = self.board.update(id, apply) else {
            return;
        };
        self.settle_bookkeeping(id, &client);
    }

    /// The post-settle tail shared by [`FleetShared::apply_update`] and
    /// staged-result resolution: release the quota slot, bump the
    /// completion counter, and wake event streams.
    fn settle_bookkeeping(&self, id: u64, client: &str) {
        self.quotas.release(client);
        match self.board.state(id) {
            Some(JobState::Done) => {
                self.metrics.done.fetch_add(1, Ordering::Relaxed);
            }
            _ => {
                self.metrics.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Wake any stream parked on wait_past so it notices the settle
        // promptly.
        if let Some(job) = self.board.get(id) {
            let (done, total) = (job.cells_done(), job.cells_total());
            self.progress.publish(id, |jp| {
                jp.phase = "done";
                jp.cells_done = done;
                jp.cells_total = total;
                jp.ops = done.max(jp.ops);
            });
        }
    }

    /// Validates the CRC frame every shard stamps on its replies
    /// ([`CRC_HEADER`]). A mismatch means the body was corrupted after
    /// the shard computed it — the reply is discarded (typed
    /// [`ShardError::Corrupt`], counted in `fleet.shard.reply_errors`)
    /// rather than trusted, and callers treat it like any transient
    /// shard failure: retry, requeue, or fetch again after a backoff.
    fn verify_reply(&self, response: ClientResponse) -> Result<ClientResponse, ShardError> {
        let Some(claimed) = response.header(CRC_HEADER).map(str::to_owned) else {
            return Ok(response); // no frame (e.g. a pre-CRC shard) — accept
        };
        let actual = crc32(response.body.as_bytes());
        if claimed == format!("{actual:08x}") {
            return Ok(response);
        }
        self.metrics.reply_errors.fetch_add(1, Ordering::Relaxed);
        Err(ShardError::Corrupt { claimed, actual })
    }
}

/// A handle for chaos testing and introspection, detached from the
/// coordinator's serving loop.
#[derive(Clone)]
pub struct FleetController {
    shared: Arc<FleetShared>,
}

impl FleetController {
    /// SIGKILLs shard `index`'s current process; the supervisor restarts
    /// it on the next tick.
    ///
    /// # Errors
    ///
    /// Propagates the kill failure.
    pub fn kill_shard(&self, index: usize) -> io::Result<()> {
        self.shared.shards.kill(index)
    }

    /// Total shard restarts performed so far.
    pub fn restarts(&self) -> u64 {
        self.shared.shards.restarts()
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shared.shards.len()
    }

    /// The coordinator's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Shard `index`'s current address (changes across restarts).
    pub fn shard_addr(&self, index: usize) -> SocketAddr {
        self.shared.shards.addr(index)
    }

    /// Pauses dispatch and supervision for a shard (test hook — the
    /// rollout engine pauses shards itself during commit/rollback).
    pub fn pause_shard(&self, index: usize) {
        self.shared.shards.pause(index);
    }

    /// Resumes a paused shard.
    pub fn unpause_shard(&self, index: usize) {
        self.shared.shards.unpause(index);
    }

    /// The active config generation (0 = built-in baseline).
    pub fn config_generation(&self) -> u64 {
        self.shared
            .config
            .lock()
            .expect("config lock poisoned")
            .active()
            .1
            .generation
    }

    /// How many shards are currently quarantined (crash-loop budget
    /// exhausted, out of the routing rotation).
    pub fn quarantined_shards(&self) -> u64 {
        self.shared.shards.quarantined_count()
    }

    /// Whether shard `index` is quarantined.
    pub fn shard_is_quarantined(&self, index: usize) -> bool {
        self.shared.shards.is_quarantined(index)
    }

    /// Completed rollbacks (manual and automatic).
    pub fn config_rollbacks(&self) -> u64 {
        self.shared
            .config
            .lock()
            .expect("config lock poisoned")
            .rollbacks()
    }
}

/// A bound, running fleet (shards spawned, dispatcher and supervisor
/// threads live; call [`Fleet::run`] to serve connections).
pub struct Fleet {
    listener: TcpListener,
    shared: Arc<FleetShared>,
    dispatchers: Vec<std::thread::JoinHandle<()>>,
    supervisor: std::thread::JoinHandle<()>,
}

/// Supervisor cadence: how often shards are probed and the dead restarted.
const SUPERVISE_EVERY: Duration = Duration::from_millis(500);
/// How long a dispatcher backs off after putting back an item its shard
/// refused or could not be reached for, and how often queued items held
/// for a paused or quarantined shard are re-checked.
const DISPATCH_BACKOFF: Duration = Duration::from_millis(100);
/// A completion watcher's reconnect backoff after a transport error (a
/// shard restarting): doubles from the floor up to the cap.
const WATCH_BACKOFF_FLOOR: Duration = Duration::from_millis(20);
const WATCH_BACKOFF_CAP: Duration = Duration::from_millis(500);

impl Fleet {
    /// Spawns the shard processes, binds `127.0.0.1:<port>`, and starts
    /// the supervisor and `max(shards, 2)` dispatcher threads.
    ///
    /// # Errors
    ///
    /// Shard spawn failures (the launcher's program missing, a shard
    /// exiting before announcing its address) and the bind failure; any
    /// already-spawned shards are killed before returning.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.shards`, `cfg.queue_cap`, or
    /// `cfg.max_in_flight_per_client` is zero.
    pub fn bind(cfg: FleetConfig, mut launcher: ShardLauncher) -> io::Result<Fleet> {
        // Bind before spawning: a taken port fails fast (with its
        // distinctive `AddrInUse`) instead of after N process launches.
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, cfg.port))?;
        // Recover the config slots before spawning so restarted fleets
        // come back up on the generation they last committed.
        let config_dir = cfg.journal_root.join("config");
        std::fs::create_dir_all(&config_dir)?;
        let machine = load_slot_machine(&config_dir);
        let (active, info) = machine.active();
        if info.generation > 0 {
            launcher.policy_path = Some(slot_policy_path(&config_dir, active));
        }
        let shards = ShardSet::spawn(launcher, &cfg.journal_root, cfg.shards)?;
        let shared = Arc::new(FleetShared {
            board: JobBoard::new(),
            queue: QosQueue::new(cfg.queue_cap),
            quotas: ClientQuotas::new(cfg.max_in_flight_per_client),
            shards,
            progress: ProgressBoard::new(),
            metrics: FleetMetrics::default(),
            shutdown: AtomicBool::new(false),
            addr: listener.local_addr()?,
            config: Mutex::new(machine),
            config_dir,
            rollout: Mutex::new(()),
            rolling_to: AtomicU64::new(0),
        });
        let dispatchers = (0..cfg.shards.max(2))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("baryon-fleet-dispatch-{i}"))
                    .spawn(move || dispatcher_loop(&shared))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("baryon-fleet-supervisor".to_owned())
                .spawn(move || supervisor_loop(&shared))?
        };
        Ok(Fleet {
            listener,
            shared,
            dispatchers,
            supervisor,
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A detached handle for chaos testing, usable while [`Fleet::run`]
    /// serves on another thread.
    pub fn controller(&self) -> FleetController {
        FleetController {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serves until `POST /v1/shutdown`, then drains dispatchers, stops
    /// the supervisor, and shuts the shards down (completion watchers see
    /// the shutdown and exit on their own).
    ///
    /// # Errors
    ///
    /// Currently infallible after a successful bind.
    pub fn run(self) -> io::Result<()> {
        for stream in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else {
                continue;
            };
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || handle_connection(stream, &shared));
        }
        for dispatcher in self.dispatchers {
            let _ = dispatcher.join();
        }
        let _ = self.supervisor.join();
        self.shared.shards.shutdown();
        Ok(())
    }
}

fn dispatcher_loop(shared: &Arc<FleetShared>) {
    // Items whose shard is paused (a rollout drains it) or out of rotation
    // stay queued in place instead of cycling through the dispatchers, so
    // they never hold up ready work or lose their priority.
    let ready = |item: &WorkItem| available_shard(shared, item.shard).is_some();
    while let Some(item) = shared.queue.pop(ready, DISPATCH_BACKOFF) {
        if shared.shutdown.load(Ordering::SeqCst) {
            continue; // drain without dispatching
        }
        if !dispatch(shared, item) {
            // Put back (already requeued); back off so a shard that is
            // down or refusing is not hammered.
            shared.metrics.redispatched.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(DISPATCH_BACKOFF);
        }
    }
}

/// Dispatches one work item: POSTs the cell's spec to its shard, records
/// the shard-local job ID, and starts the cell's completion watcher. A
/// refused or unreachable shard puts the item straight back on the queue
/// (the supervisor is restarting the shard meanwhile) and returns false;
/// an item that cannot be requeued fails its cell.
fn dispatch(shared: &Arc<FleetShared>, item: WorkItem) -> bool {
    let Some(mut job) = shared.board.get(item.fleet_id) else {
        return true; // forgotten (admission rolled back)
    };
    if job.state.is_settled() || !matches!(job.cell_mut(item.cell), Some(CellState::Pending)) {
        return true; // cancelled while queued, or a duplicate item
    }
    let spec_body = match &job.kind {
        FleetJobKind::Single { .. } => job.spec.to_json().render(),
        FleetJobKind::Batch { plan, .. } => {
            let cell = &plan.cells[item.cell.unwrap_or_default()];
            JobSpec::Run(cell.spec.clone()).to_json().render()
        }
    };
    // The pop checked this too, but a rollout may have paused the shard
    // (or the supervisor quarantined it) since.
    let Some(shard) = available_shard(shared, item.shard) else {
        requeue(shared, item, "no shard available and dispatch queue closed");
        return false;
    };
    let outcome =
        shared
            .shards
            .client(shard)
            .request_with_retry("POST", "/v1/jobs", Some(&spec_body));
    let remote = match outcome {
        // A 5xx survived the client's retries: 503 means queue full /
        // shutting down, 500 a transient shard-side fault (e.g. the
        // journal under a hostile disk refusing the submission). Either
        // way the shard may recover — back off and requeue, never fail
        // the cell on a server-side error.
        Ok(response) if response.status >= 500 => None,
        // A corrupt 202 is indistinguishable from garbage: the shard may
        // or may not hold the job. Requeue — the cell is still `Pending`,
        // so it dispatches afresh and any orphaned shard-side copy just
        // runs unobserved.
        Ok(response) => match shared.verify_reply(response) {
            Err(_) => None,
            Ok(response) => match response.into_result() {
                Ok(accepted) => match json::parse(&accepted.body)
                    .ok()
                    .and_then(|doc| doc.get("id").and_then(Json::as_u64))
                {
                    Some(remote) => Some(remote),
                    None => {
                        fail_cell(shared, &item, "shard sent an unreadable 202 body");
                        return true;
                    }
                },
                Err(e) => {
                    // The shard understood the request and refused it for
                    // good (e.g. invalid spec surfaced late) — fail the
                    // cell; retrying cannot change a deterministic
                    // rejection.
                    fail_cell(shared, &item, &format!("shard rejected job: {e}"));
                    return true;
                }
            },
        },
        Err(_) => None, // connect/timeout → shard is restarting; requeue
    };
    let Some(remote) = remote else {
        requeue(shared, item, "shard unreachable and dispatch queue closed");
        return false;
    };
    let mut dispatched = false;
    shared.apply_update(item.fleet_id, |job| {
        if let Some(cell @ CellState::Pending) = job.cell_mut(item.cell) {
            *cell = CellState::Dispatched { shard, remote };
            dispatched = true;
        }
    });
    if dispatched {
        spawn_watcher(shared, item, shard, remote);
    }
    true
}

/// Puts an admitted item back on the queue. The requeue bypasses the
/// class cap — the item was already admitted, and a momentarily full
/// queue (e.g. a saturating burst while a shard restarts)
/// must not cost the job — so only a closed queue (shutdown) fails the
/// cell, with `reason`.
fn requeue(shared: &Arc<FleetShared>, item: WorkItem, reason: &str) {
    if shared.queue.requeue(item.class, item).is_err() {
        fail_cell(shared, &item, reason);
    }
}

/// The first non-quarantined shard at or after `preferred`, probing
/// forward deterministically (`(preferred + k) % n`) so the same cell
/// keeps landing on the same substitute while the quarantine set is
/// stable — or `None` when every shard is out of rotation (an operator
/// rollout is the one path back) or that shard is paused (the rollout
/// engine is draining and restarting it).
fn available_shard(shared: &Arc<FleetShared>, preferred: usize) -> Option<usize> {
    let n = shared.shards.len();
    (0..n)
        .map(|k| (preferred + k) % n)
        .find(|&s| !shared.shards.is_quarantined(s))
        .filter(|&s| !shared.shards.is_paused(s))
}

fn fail_cell(shared: &Arc<FleetShared>, item: &WorkItem, reason: &str) {
    shared.apply_update(item.fleet_id, |job| {
        if let Some(cell) = job.cell_mut(item.cell) {
            *cell = CellState::Failed(reason.to_owned());
        }
    });
}

/// Starts the cell's completion watcher ([`watch_cell`]) on its own
/// thread, so watchers are bounded by cells in flight.
fn spawn_watcher(shared: &Arc<FleetShared>, item: WorkItem, shard: usize, remote: u64) {
    let watcher = Arc::clone(shared);
    let spawned = std::thread::Builder::new()
        .name(format!("baryon-fleet-watch-{}", item.fleet_id))
        .spawn(move || watch_cell(&watcher, item, shard, remote));
    if spawned.is_err() {
        // Thread exhaustion: watch from this dispatcher instead — slower
        // dispatch, but the cell is never orphaned.
        watch_cell(shared, item, shard, remote);
    }
}

/// A dispatched cell's completion watcher: follows the shard-local job's
/// event stream until `end`, then fetches its record once and lands the
/// cell. It exits as soon as the board stops showing this dispatch (the
/// cell landed, failed over, or its job settled) or the fleet shuts
/// down; a transport error (a shard restarting) reconnects to the
/// shard's current address after a short bounded backoff.
fn watch_cell(shared: &Arc<FleetShared>, item: WorkItem, shard: usize, remote: u64) {
    let mut backoff = WATCH_BACKOFF_FLOOR;
    while still_dispatched(shared, item, shard, remote) {
        if follow_events(shared, item, shard, remote) && fetch_and_land(shared, item, shard, remote)
        {
            return;
        }
        std::thread::sleep(backoff);
        backoff = (backoff * 2).min(WATCH_BACKOFF_CAP);
    }
}

/// Whether the board still shows the item's cell as
/// `Dispatched { shard, remote }` on an unsettled job, with the fleet up.
fn still_dispatched(shared: &Arc<FleetShared>, item: WorkItem, shard: usize, remote: u64) -> bool {
    !shared.shutdown.load(Ordering::SeqCst)
        && shared.board.get(item.fleet_id).is_some_and(|mut job| {
            let dispatched = CellState::Dispatched { shard, remote };
            !job.state.is_settled() && job.cell_mut(item.cell).is_some_and(|c| *c == dispatched)
        })
}

/// Follows the shard-local job's event stream to its end. A single run's
/// `progress` events are relayed onto the coordinator's board under the
/// fleet ID, dropping any whose `ops` is not past what the board already
/// shows — a restarted shard replays its run from a checkpoint, and a
/// failed-over run restarts from zero, yet a client's `ops` stays
/// strictly monotonic. (Batch progress is cell counts, published as cells
/// land.) Chunks failing their CRC frame are dropped and counted in
/// `fleet.shard.reply_errors`. True when the shard has answered for the job — the stream sent
/// `end`, or the shard refused it (e.g. a 404 after losing it) — so a
/// status fetch can settle it; false on a transport error.
fn follow_events(shared: &Arc<FleetShared>, item: WorkItem, shard: usize, remote: u64) -> bool {
    let id = item.fleet_id;
    let mut last_ops = shared.progress.get(id).map_or(0, |p| p.ops);
    let (mut ended, mut corrupt) = (false, 0);
    let path = format!("/v1/jobs/{remote}/events");
    let outcome = Client::new(shared.shards.addr(shard))
        .connect_timeout(Duration::from_millis(500))
        .read_timeout(Duration::from_secs(30))
        .stream_checked(&path, &mut corrupt, &mut |line| {
            let Ok(doc) = json::parse(line) else {
                return;
            };
            if doc.get("event").and_then(Json::as_str) == Some("end") {
                ended = true;
            } else if let Some(p) = JobProgress::from_json(&doc).filter(|_| item.cell.is_none()) {
                if p.ops > last_ops {
                    last_ops = p.ops;
                    shared
                        .progress
                        .publish(id, |jp| *jp = JobProgress { seq: jp.seq, ..p });
                }
            }
        });
    // Chunks failing their CRC frame (a lying shard) were dropped unread.
    shared
        .metrics
        .reply_errors
        .fetch_add(corrupt, Ordering::Relaxed);
    ended || matches!(outcome, Err(ClientError::Api { .. }))
}

/// The one status fetch per landing: a CRC-verified
/// `GET /v1/jobs/<remote>`. A settled record lands the cell; a 404 (the
/// shard lost the job to a journal-less restart or eviction) puts it back
/// in play. True once the cell is resolved either way; false when the
/// fetch must be retried (transport error, corrupt reply, or a record not
/// settled yet).
fn fetch_and_land(shared: &Arc<FleetShared>, item: WorkItem, shard: usize, remote: u64) -> bool {
    shared
        .metrics
        .status_fetches
        .fetch_add(1, Ordering::Relaxed);
    let Ok(response) = Client::new(shared.shards.addr(shard))
        .connect_timeout(Duration::from_millis(500))
        .read_timeout(Duration::from_secs(5))
        .request("GET", &format!("/v1/jobs/{remote}"), None)
    else {
        return false;
    };
    if response.status == 404 {
        if land_cell(shared, item, shard, remote, CellState::Pending) {
            shared.metrics.redispatched.fetch_add(1, Ordering::Relaxed);
        }
        return true;
    }
    let Some(record) = shared
        .verify_reply(response)
        .ok()
        .and_then(|r| r.into_result().ok())
        .and_then(|r| json::parse(&r.body).ok())
    else {
        return false;
    };
    let to = match record.get("state").and_then(Json::as_str) {
        Some("done") => match record.get("result") {
            Some(doc) => CellState::Done(doc.clone()),
            None => return false,
        },
        Some("failed") => CellState::Failed(
            record
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("shard job failed")
                .to_owned(),
        ),
        Some("cancelled") => CellState::Failed("cancelled on shard".to_owned()),
        _ => return false, // queued / running: follow the stream again
    };
    land_cell(shared, item, shard, remote, to);
    true
}

/// The one transition off `Dispatched`: moves the item's cell to `to` if
/// the board still shows it as `Dispatched { shard, remote }`, so a late
/// or duplicate landing (a failed-over cell, a watcher that lost a race)
/// changes nothing. A `Done` result is held `Staged` while a roll is in
/// flight; a cell sent back to `Pending` is requeued. Returns whether the
/// cell moved.
fn land_cell(
    shared: &Arc<FleetShared>,
    item: WorkItem,
    shard: usize,
    remote: u64,
    to: CellState,
) -> bool {
    let back_to_pending = to == CellState::Pending;
    let mut moved = false;
    // Everything below runs under the board lock. The `rolling_to` read:
    // staged resolution clears the flag *before* taking that lock, so a
    // result landing after resolution scanned the board sees 0 here and
    // settles directly — no cell can stay staged forever. The batch
    // progress publish: landings are serialized, and none follows the
    // settle's final snapshot, so `cells_done` never goes backwards.
    shared.apply_update(item.fleet_id, |job| {
        let Some(cell) = job.cell_mut(item.cell) else {
            return;
        };
        if *cell != (CellState::Dispatched { shard, remote }) {
            return;
        }
        *cell = match to {
            CellState::Done(doc) if shared.rolling_to.load(Ordering::SeqCst) > 0 => {
                CellState::Staged(doc)
            }
            other => other,
        };
        moved = true;
        if back_to_pending {
            return;
        }
        shared.metrics.landed.fetch_add(1, Ordering::Relaxed);
        if item.cell.is_some() {
            let (done, total) = (job.cells_done(), job.cells_total());
            shared.progress.publish(item.fleet_id, |jp| {
                jp.phase = "measure";
                jp.cells_done = done;
                jp.cells_total = total;
                jp.ops = done;
            });
        }
    });
    if moved && back_to_pending {
        requeue(
            shared,
            item,
            "cell lost its shard and dispatch queue is closed",
        );
    }
    moved
}

/// The supervisor: periodic health sweep over the shard set. A shard
/// that exhausts its crash-loop budget comes back quarantined — its
/// in-flight cells fail over to healthy shards immediately.
fn supervisor_loop(shared: &Arc<FleetShared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        for index in shared.shards.check_and_restart() {
            fail_over_shard(shared, index);
        }
        // Sleep in small steps so shutdown is prompt.
        let mut slept = Duration::ZERO;
        while slept < SUPERVISE_EVERY && !shared.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(50));
            slept += Duration::from_millis(50);
        }
    }
}

/// Re-dispatches every cell that was in flight on a newly quarantined
/// shard: the cell goes back to `Pending` and onto the queue, where
/// [`dispatch`] routes it around the dead slot (its watcher sees the
/// move and exits). The shard's journal still holds the jobs, but nothing
/// will replay it until an operator rolls the shard back in — waiting on
/// it would strand the cells.
fn fail_over_shard(shared: &Arc<FleetShared>, index: usize) {
    for id in shared.board.active_ids() {
        let Some(job) = shared.board.get(id) else {
            continue;
        };
        for (i, cell) in job.cells().iter().enumerate() {
            let CellState::Dispatched { shard, remote } = *cell else {
                continue;
            };
            let item = WorkItem::of(&job, job.item_index(i));
            // `land_cell` re-checks under the board lock: the watcher may
            // have landed the cell since the snapshot above.
            if shard == index && land_cell(shared, item, shard, remote, CellState::Pending) {
                shared.metrics.failover.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &Arc<FleetShared>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let request = match read_request(&mut reader) {
            Ok(Some(request)) => request,
            Ok(None) => return,
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                let _ = Response::error(400, ErrorCode::BadRequest, &e.to_string())
                    .write_to(&mut writer, true);
                return;
            }
            Err(_) => return,
        };
        if let Some(id) = events_target(&request) {
            if shared.board.get(id).is_some() {
                // Every fleet stream reads the coordinator's own board: a
                // single run's progress as its completion watcher relays
                // it, a batch's cell counts as cells land, and `end` as
                // soon as the settle publishes its final snapshot.
                let _ = shared
                    .progress
                    .stream_events(id, &mut writer, || shared.board.state(id));
            } else {
                let _ = Response::error(404, ErrorCode::NotFound, "no such job")
                    .write_to(&mut writer, true);
            }
            return;
        }
        let response = route(shared, &request);
        let close = !request.keep_alive() || shared.shutdown.load(Ordering::SeqCst);
        if response.write_to(&mut writer, close).is_err() || close {
            return;
        }
    }
}

/// `GET /v1/jobs/<id>/events` → the fleet job ID; anything else → `None`.
fn events_target(request: &Request) -> Option<u64> {
    if request.method != "GET" {
        return None;
    }
    let path = request
        .path
        .split_once('?')
        .map_or(request.path.as_str(), |(p, _)| p);
    path.strip_prefix("/v1/jobs/")?
        .strip_suffix("/events")?
        .parse()
        .ok()
}

fn route(shared: &Arc<FleetShared>, request: &Request) -> Response {
    let (path, query) = request
        .path
        .split_once('?')
        .unwrap_or((request.path.as_str(), ""));
    let method = request.method.as_str();
    match (method, path) {
        ("GET", "/v1/healthz") => Response::json(
            200,
            &Json::obj([
                ("ok", Json::Bool(true)),
                ("shards", Json::from(shared.shards.len() as u64)),
            ]),
        ),
        ("GET", "/v1/metrics") => metrics_response(shared, query),
        ("POST", "/v1/jobs") => submit(shared, request),
        ("POST", "/v1/shutdown") => shutdown(shared),
        ("GET", "/v1/admin/config") => {
            let machine = shared.config.lock().expect("config lock poisoned");
            Response::json(200, &machine.to_json())
        }
        ("POST", "/v1/admin/config/stage") => admin_stage(shared, request),
        ("POST", "/v1/admin/config/commit") => admin_commit(shared),
        ("POST", "/v1/admin/config/rollback") => admin_rollback(shared),
        _ => {
            if let Some(rest) = path.strip_prefix("/v1/jobs/") {
                return job_route(shared, method, rest);
            }
            if matches!(
                path,
                "/v1/healthz"
                    | "/v1/metrics"
                    | "/v1/jobs"
                    | "/v1/shutdown"
                    | "/v1/admin/config"
                    | "/v1/admin/config/stage"
                    | "/v1/admin/config/commit"
                    | "/v1/admin/config/rollback"
            ) {
                return Response::error(405, ErrorCode::MethodNotAllowed, "method not allowed");
            }
            Response::error(404, ErrorCode::NotFound, "no such endpoint")
        }
    }
}

fn job_route(shared: &Arc<FleetShared>, method: &str, rest: &str) -> Response {
    let (id_text, action) = match rest.split_once('/') {
        None => (rest, None),
        Some((id, action)) => (id, Some(action)),
    };
    let Ok(id) = id_text.parse::<u64>() else {
        return Response::error(404, ErrorCode::NotFound, "job IDs are integers");
    };
    match (method, action) {
        ("GET", None) => match shared.board.get(id) {
            Some(job) => Response::json(200, &job.to_json()),
            None => Response::error(404, ErrorCode::NotFound, "no such job"),
        },
        ("POST", Some("cancel")) => {
            // Fetch the quota identity first; cancel only succeeds from
            // `queued`, where the slot is still held.
            let client = shared.board.get(id).map(|j| j.client);
            match shared.board.cancel(id) {
                CancelOutcome::Cancelled => {
                    if let Some(client) = client {
                        shared.quotas.release(&client);
                    }
                    shared.metrics.cancelled.fetch_add(1, Ordering::Relaxed);
                    Response::json(
                        200,
                        &Json::obj([("id", Json::from(id)), ("state", Json::from("cancelled"))]),
                    )
                }
                CancelOutcome::TooLate(state) => Response::error(
                    409,
                    ErrorCode::Conflict,
                    &format!(
                        "job is {}, only queued jobs can be cancelled",
                        state.as_str()
                    ),
                ),
                CancelOutcome::NotFound => Response::error(404, ErrorCode::NotFound, "no such job"),
            }
        }
        (_, None) => Response::error(405, ErrorCode::MethodNotAllowed, "method not allowed"),
        _ => Response::error(404, ErrorCode::NotFound, "no such endpoint"),
    }
}

/// Admission: parse → classify → quota-check → plan → enqueue. Quota
/// refusals answer `429 quota_exceeded`; a full class queue answers `503
/// queue_full` — both with the class's `Retry-After`.
fn submit(shared: &Arc<FleetShared>, request: &Request) -> Response {
    if shared.shutdown.load(Ordering::SeqCst) {
        return Response::error(503, ErrorCode::ShuttingDown, "fleet is shutting down");
    }
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return Response::error(400, ErrorCode::BadRequest, "body is not UTF-8"),
    };
    let doc = match json::parse(text) {
        Ok(doc) => doc,
        Err(e) => {
            return Response::error(400, ErrorCode::InvalidJson, &format!("invalid JSON: {e}"))
        }
    };
    let spec = match JobSpec::from_json(&doc) {
        Ok(spec) => spec,
        Err(e) => {
            return Response::error(
                400,
                ErrorCode::InvalidSpec,
                &format!("invalid job spec: {e}"),
            )
        }
    };
    let class = match request.header("x-baryon-class") {
        Some(value) => match Class::parse(value.trim()) {
            Some(class) => class,
            None => {
                return Response::error(
                    400,
                    ErrorCode::BadRequest,
                    &format!("unknown class {value:?}: use interactive or batch"),
                )
            }
        },
        None => match &spec {
            JobSpec::Run(_) => Class::Interactive,
            JobSpec::Grid(_) => Class::Batch,
        },
    };
    let client = request
        .header("x-baryon-client")
        .unwrap_or("anon")
        .trim()
        .to_owned();
    if !shared.quotas.try_acquire(&client) {
        shared
            .metrics
            .rejected_quota
            .fetch_add(1, Ordering::Relaxed);
        return Response::error(
            429,
            ErrorCode::QuotaExceeded,
            &format!(
                "client {client:?} already has {} jobs in flight",
                shared.quotas.max_in_flight()
            ),
        )
        .header("Retry-After", &class.retry_after_secs().to_string());
    }
    // Plan the dispatch: singles hash-route whole; grids scatter
    // cell-by-cell across every shard.
    let kind = match &spec {
        JobSpec::Run(_) => FleetJobKind::Single {
            shard: 0, // patched below once the fleet ID is known
            cell: CellState::Pending,
        },
        JobSpec::Grid(grid) => {
            let plan = BatchPlan::scatter(grid, shared.shards.len());
            let cells = vec![CellState::Pending; plan.cells.len()];
            FleetJobKind::Batch { plan, cells }
        }
    };
    let id = shared.board.admit(spec, client.clone(), class, kind);
    // A single's route is a function of the fleet ID, which admit assigned.
    let route = crate::shard::route(id, shared.shards.len());
    let mut work = Vec::new();
    shared.board.update(id, |job| {
        if let FleetJobKind::Single { shard, .. } = &mut job.kind {
            *shard = route;
        }
        work = (0..job.cells().len())
            .map(|i| WorkItem::of(job, job.item_index(i)))
            .collect();
    });
    let cells_total = work.len() as u64;
    for (i, item) in work.iter().enumerate() {
        match shared.queue.push(class, *item) {
            Ok(()) => {}
            Err(e) => {
                // Roll the whole job back; cells already queued will find
                // the job forgotten and drop on the dispatch floor.
                shared.board.forget(id);
                shared.quotas.release(&client);
                shared
                    .metrics
                    .rejected_queue
                    .fetch_add(1, Ordering::Relaxed);
                let (status, code, message) = match e {
                    QueueError::Full => (
                        503,
                        ErrorCode::QueueFull,
                        format!(
                            "{} queue full after {i} of {cells_total} cells, retry later",
                            class.as_str()
                        ),
                    ),
                    QueueError::Closed => (
                        503,
                        ErrorCode::ShuttingDown,
                        "fleet is shutting down".to_owned(),
                    ),
                };
                return Response::error(status, code, &message)
                    .header("Retry-After", &class.retry_after_secs().to_string());
            }
        }
    }
    shared.metrics.submitted.fetch_add(1, Ordering::Relaxed);
    Response::json(
        202,
        &Json::obj([
            ("id", Json::from(id)),
            ("state", Json::from("queued")),
            ("class", Json::from(class.as_str())),
            ("cells", Json::from(cells_total)),
        ]),
    )
}

// ---------------------------------------------------------------------------
// Fleet config rollout: the /v1/admin surface and the rolling-restart engine.
// ---------------------------------------------------------------------------

/// Where a slot's policy file lives.
fn slot_policy_path(config_dir: &Path, slot: Slot) -> PathBuf {
    config_dir.join(format!("slot-{}.json", slot.as_str()))
}

/// Loads the persisted slot machine, falling back to the boot state on a
/// missing or unreadable file — a corrupt slots file must never brick the
/// fleet, it just forgets staged candidates.
fn load_slot_machine(config_dir: &Path) -> SlotMachine {
    let path = config_dir.join("slots.bin");
    let Ok(bytes) = std::fs::read(&path) else {
        return SlotMachine::new();
    };
    let mut reader = wire::Reader::new(&bytes);
    match SlotMachine::load_state(&mut reader) {
        Ok(machine) => machine,
        Err(e) => {
            eprintln!(
                "baryon-fleet: ignoring corrupt config slots {}: {e:?}",
                path.display()
            );
            SlotMachine::new()
        }
    }
}

fn persist_slot_machine(shared: &FleetShared, machine: &SlotMachine) {
    let mut w = wire::Writer::new();
    machine.save_state(&mut w);
    if let Err(e) = atomic_write(&shared.config_dir.join("slots.bin"), &w.into_bytes()) {
        eprintln!("baryon-fleet: cannot persist config slots: {e}");
    }
}

/// A millisecond budget from the environment (tests shrink these).
fn env_ms(name: &str, default_ms: u64) -> Duration {
    let ms = std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default_ms);
    Duration::from_millis(ms)
}

/// `POST /v1/admin/config/stage` — validate the candidate policy and
/// persist it into the non-active slot.
fn admin_stage(shared: &Arc<FleetShared>, request: &Request) -> Response {
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return Response::error(400, ErrorCode::BadRequest, "body is not UTF-8"),
    };
    let doc = match json::parse(text) {
        Ok(doc) => doc,
        Err(e) => {
            return Response::error(400, ErrorCode::InvalidJson, &format!("invalid JSON: {e}"))
        }
    };
    let policy = match FleetPolicy::from_json(&doc) {
        Ok(policy) => policy,
        Err(e) => {
            return Response::error(
                400,
                ErrorCode::InvalidConfig,
                &format!("invalid policy: {e}"),
            )
        }
    };
    let mut machine = shared.config.lock().expect("config lock poisoned");
    let (slot, generation) = match machine.stage(policy) {
        Ok(staged) => staged,
        Err(StageError::Invalid(e)) => {
            return Response::error(
                400,
                ErrorCode::InvalidConfig,
                &format!("invalid policy: {e}"),
            )
        }
        Err(StageError::RolloutInFlight) => {
            return Response::error(409, ErrorCode::RolloutFailed, "a rollout is in flight")
        }
    };
    // The commit engine boots shards onto this file; it must be durable
    // before the stage is acknowledged.
    let body = match &machine.slot(slot).policy {
        Some(staged) => staged.to_json().render(),
        None => return Response::error(500, ErrorCode::Internal, "staged slot lost its policy"),
    };
    if let Err(e) = atomic_write(&slot_policy_path(&shared.config_dir, slot), body.as_bytes()) {
        return Response::error(
            500,
            ErrorCode::Internal,
            &format!("cannot persist staged policy: {e}"),
        );
    }
    persist_slot_machine(shared, &machine);
    Response::json(
        200,
        &Json::obj([
            ("ok", Json::Bool(true)),
            ("slot", Json::from(slot.as_str())),
            ("generation", Json::from(generation)),
        ]),
    )
}

/// `POST /v1/admin/config/commit` — rolling restart onto the staged slot,
/// auto-rolling back to the active policy if any shard fails its health
/// probe or canary, or if job failures regress during the roll.
fn admin_commit(shared: &Arc<FleetShared>) -> Response {
    let Ok(_guard) = shared.rollout.try_lock() else {
        return Response::error(409, ErrorCode::RolloutFailed, "a rollout is in flight");
    };
    let (target, generation, old_path) = {
        let mut machine = shared.config.lock().expect("config lock poisoned");
        let (active, info) = machine.active();
        let old_path = (info.generation > 0).then(|| slot_policy_path(&shared.config_dir, active));
        match machine.begin_commit() {
            Ok((slot, generation)) => (slot, generation, old_path),
            Err(CommitError::NothingStaged) => {
                return Response::error(
                    409,
                    ErrorCode::Conflict,
                    "nothing staged; stage a config first",
                )
            }
            Err(CommitError::RolloutInFlight) => {
                return Response::error(409, ErrorCode::RolloutFailed, "a rollout is in flight")
            }
        }
    };
    let new_path = Some(slot_policy_path(&shared.config_dir, target));
    // From here until the roll settles, results landing on the board are
    // staged, not gathered: they may have been computed under a
    // generation that is about to be rolled back.
    shared.rolling_to.store(generation.max(1), Ordering::SeqCst);
    match roll_fleet(shared, new_path, old_path) {
        Ok(()) => {
            resolve_staged_results(shared, true);
            let mut machine = shared.config.lock().expect("config lock poisoned");
            machine.boot_succeeded();
            persist_slot_machine(shared, &machine);
            Response::json(
                200,
                &Json::obj([
                    ("ok", Json::Bool(true)),
                    ("active_slot", Json::from(target.as_str())),
                    ("generation", Json::from(generation)),
                ]),
            )
        }
        Err(reason) => {
            resolve_staged_results(shared, false);
            let mut machine = shared.config.lock().expect("config lock poisoned");
            machine.boot_failed();
            persist_slot_machine(shared, &machine);
            Response::error(
                409,
                ErrorCode::RolloutFailed,
                &format!("commit of generation {generation} rolled back: {reason}"),
            )
        }
    }
}

/// Settles the roll's staged results once its outcome is known. On a
/// committed roll the results are promoted (jobs settle, quotas release,
/// streams wake). On a rolled-back roll they are quarantined — counted
/// in `fleet.config.quarantined_results` — and their cells requeued for
/// re-dispatch under the restored config, so the job's eventual gather
/// is byte-identical to one computed wholly under that config.
fn resolve_staged_results(shared: &Arc<FleetShared>, accept: bool) {
    // Clear the flag before scanning: any result that lands after the
    // scan observes 0 (the load is under the same board lock) and
    // settles directly instead of staging forever.
    shared.rolling_to.store(0, Ordering::SeqCst);
    let resolution = shared.board.resolve_staged(accept);
    for (id, client, _class) in &resolution.released {
        shared.settle_bookkeeping(*id, client);
    }
    if !accept && resolution.count > 0 {
        shared
            .metrics
            .quarantined_results
            .fetch_add(resolution.count, Ordering::Relaxed);
    }
    for (id, cell_index) in resolution.requeue {
        let Some(job) = shared.board.get(id) else {
            continue;
        };
        let item = WorkItem::of(&job, cell_index);
        requeue(shared, item, "staged result quarantined and queue closed");
    }
}

/// `POST /v1/admin/config/rollback` — the same rolling mechanism, back
/// onto the previous slot.
fn admin_rollback(shared: &Arc<FleetShared>) -> Response {
    let Ok(_guard) = shared.rollout.try_lock() else {
        return Response::error(409, ErrorCode::RolloutFailed, "a rollout is in flight");
    };
    let (target, generation, current_path) = {
        let mut machine = shared.config.lock().expect("config lock poisoned");
        let (active, info) = machine.active();
        let current = (info.generation > 0).then(|| slot_policy_path(&shared.config_dir, active));
        match machine.begin_rollback() {
            Ok((slot, generation)) => (slot, generation, current),
            Err(RollbackError::NoPrevious) => {
                return Response::error(
                    409,
                    ErrorCode::Conflict,
                    "no previous config to roll back to",
                )
            }
            Err(RollbackError::RolloutInFlight) => {
                return Response::error(409, ErrorCode::RolloutFailed, "a rollout is in flight")
            }
        }
    };
    // Generation 0 is the built-in baseline: no policy file at all.
    let target_path = (generation > 0).then(|| slot_policy_path(&shared.config_dir, target));
    match roll_fleet(shared, target_path, current_path) {
        Ok(()) => {
            let mut machine = shared.config.lock().expect("config lock poisoned");
            machine.boot_succeeded();
            persist_slot_machine(shared, &machine);
            Response::json(
                200,
                &Json::obj([
                    ("ok", Json::Bool(true)),
                    ("active_slot", Json::from(target.as_str())),
                    ("generation", Json::from(generation)),
                ]),
            )
        }
        Err(reason) => {
            let mut machine = shared.config.lock().expect("config lock poisoned");
            machine.boot_failed();
            persist_slot_machine(shared, &machine);
            Response::error(
                409,
                ErrorCode::RolloutFailed,
                &format!("rollback to generation {generation} failed: {reason}"),
            )
        }
    }
}

/// Rolls every shard onto `new_path`, one at a time. On any failure the
/// already-rolled shards (and the failing one) are rolled back onto
/// `old_path` before returning the error — the fleet never stays split
/// across policies longer than the undo takes.
fn roll_fleet(
    shared: &Arc<FleetShared>,
    new_path: Option<PathBuf>,
    old_path: Option<PathBuf>,
) -> Result<(), String> {
    let failed_before = shared.metrics.failed.load(Ordering::Relaxed);
    let undo = |upto: usize| {
        for j in (0..=upto).rev() {
            if let Err(e) = roll_shard(shared, j, old_path.clone()) {
                // Best effort: unpause and let the supervisor respawn it.
                eprintln!("baryon-fleet: rollback of shard {j} failed: {e}");
                shared.shards.unpause(j);
            }
        }
    };
    for i in 0..shared.shards.len() {
        if let Err(reason) = roll_shard(shared, i, new_path.clone()) {
            undo(i);
            return Err(format!("shard {i}: {reason}"));
        }
    }
    // The canary exercised each shard in isolation; a config can pass it
    // and still fail real jobs. A regressing fleet-wide failure counter
    // during the roll is a rollback, not a success.
    let failed_after = shared.metrics.failed.load(Ordering::Relaxed);
    if failed_after > failed_before {
        undo(shared.shards.len() - 1);
        return Err(format!(
            "{} job(s) failed during the roll",
            failed_after - failed_before
        ));
    }
    Ok(())
}

/// Rolls one shard: pause → drain in-flight cells → respawn with the
/// policy → health probe green → canary run. Unpauses on success; leaves
/// the shard paused on failure so no work lands on it until the caller's
/// rollback has restored the old policy.
fn roll_shard(
    shared: &Arc<FleetShared>,
    index: usize,
    policy_path: Option<PathBuf>,
) -> Result<(), String> {
    shared.shards.pause(index);
    let outcome = drain_shard(shared, index)
        .and_then(|()| {
            shared
                .shards
                .restart_with_policy(index, policy_path)
                .map_err(|e| format!("respawn failed: {e}"))
        })
        .and_then(|()| probe_green(shared, index))
        .and_then(|()| canary(shared, index));
    if outcome.is_ok() {
        shared.shards.unpause(index);
    }
    outcome
}

/// Waits until the shard has no dispatched cells (their watchers land
/// them as they finish; new dispatches requeue while the shard is paused).
fn drain_shard(shared: &Arc<FleetShared>, index: usize) -> Result<(), String> {
    let deadline = Instant::now() + env_ms("BARYON_FLEET_DRAIN_TIMEOUT_MS", 60_000);
    while shard_busy(shared, index) {
        if Instant::now() >= deadline {
            return Err("drain timed out with cells still in flight".to_owned());
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    Ok(())
}

/// Whether any unsettled fleet job has a cell dispatched on the shard.
fn shard_busy(shared: &Arc<FleetShared>, index: usize) -> bool {
    for id in shared.board.active_ids() {
        let Some(job) = shared.board.get(id) else {
            continue;
        };
        // Match on where the cell actually landed, not the routed shard —
        // failover can dispatch a single off its home route.
        let busy = job
            .cells()
            .iter()
            .any(|c| matches!(c, CellState::Dispatched { shard, .. } if *shard == index));
        if busy {
            return true;
        }
    }
    false
}

/// Requires 3 consecutive green health probes within the probe budget.
fn probe_green(shared: &Arc<FleetShared>, index: usize) -> Result<(), String> {
    let deadline = Instant::now() + env_ms("BARYON_FLEET_PROBE_BUDGET_MS", 10_000);
    let mut green = 0;
    loop {
        let ok = Client::new(shared.shards.addr(index))
            .connect_timeout(Duration::from_millis(250))
            .read_timeout(Duration::from_millis(500))
            .healthz()
            .is_ok();
        green = if ok { green + 1 } else { 0 };
        if green >= 3 {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err("health probe never went green".to_owned());
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// A tiny deterministic run POSTed straight to the restarted shard: the
/// cheapest end-to-end proof the new config actually executes jobs — a
/// config can bind and answer healthz yet fail every run (e.g. an
/// unmeetable job deadline).
/// Heavy enough (hundreds of thousands of instructions) that a canary
/// under a pathological deadline policy fails deterministically rather
/// than racing the watchdog, yet still well under a second per shard.
const CANARY_SPEC: &str = r#"{"workload":"ycsb-a","controller":"baryon","insts":400000,"warmup":20000,"scale":2048,"seed":1}"#;

fn canary(shared: &Arc<FleetShared>, index: usize) -> Result<(), String> {
    let client = Client::new(shared.shards.addr(index))
        .connect_timeout(Duration::from_millis(500))
        .read_timeout(Duration::from_secs(10));
    let accepted = client
        .request("POST", "/v1/jobs", Some(CANARY_SPEC))
        .map_err(|e| format!("canary submit failed: {e}"))
        .and_then(|r| shared.verify_reply(r).map_err(|e| e.to_string()))?
        .into_result()
        .map_err(|e| format!("canary submit rejected: {e}"))?;
    let id = json::parse(&accepted.body)
        .ok()
        .as_ref()
        .and_then(|doc| doc.get("id").and_then(Json::as_u64))
        .ok_or_else(|| "canary 202 body unreadable".to_owned())?;
    let deadline = Instant::now() + env_ms("BARYON_FLEET_CANARY_TIMEOUT_MS", 30_000);
    loop {
        let record = client
            .request("GET", &format!("/v1/jobs/{id}"), None)
            .ok()
            .and_then(|r| shared.verify_reply(r).ok())
            .and_then(|r| r.into_result().ok())
            .and_then(|r| json::parse(&r.body).ok());
        if let Some(record) = record {
            match record.get("state").and_then(Json::as_str) {
                Some("done") => return Ok(()),
                Some("failed") => {
                    return Err(format!(
                        "canary failed under the new config: {}",
                        record
                            .get("error")
                            .and_then(Json::as_str)
                            .unwrap_or("no error detail")
                    ))
                }
                _ => {}
            }
        }
        if Instant::now() >= deadline {
            return Err("canary never settled".to_owned());
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// `GET /v1/metrics` — one registry for the whole fleet: coordinator
/// counters under `fleet.*`, plus every reachable shard's full-fidelity
/// wire registry absorbed under `shard<i>.`. The merge starts from a
/// fresh registry each scrape, so a restarted shard's counters replace
/// (not double-count) its previous incarnation's.
fn metrics_response(shared: &Arc<FleetShared>, _query: &str) -> Response {
    let mut reg = Registry::new();
    let m = &shared.metrics;
    for (name, counter) in [
        ("fleet.jobs.submitted", &m.submitted),
        ("fleet.jobs.rejected_quota", &m.rejected_quota),
        ("fleet.jobs.rejected_queue", &m.rejected_queue),
        ("fleet.jobs.done", &m.done),
        ("fleet.jobs.failed", &m.failed),
        ("fleet.jobs.cancelled", &m.cancelled),
        ("fleet.dispatch.requeued", &m.redispatched),
        ("fleet.cells.failover", &m.failover),
        ("fleet.cells.landed", &m.landed),
        ("fleet.shard.reply_errors", &m.reply_errors),
        ("fleet.shard.status_fetches", &m.status_fetches),
        ("fleet.config.quarantined_results", &m.quarantined_results),
    ] {
        reg.set_counter(name, counter.load(Ordering::Relaxed));
    }
    reg.set_counter("fleet.shards.total", shared.shards.len() as u64);
    reg.set_counter("fleet.shards.restarts", shared.shards.restarts());
    reg.set_gauge(
        "fleet.shards.quarantined",
        shared.shards.quarantined_count() as f64,
    );
    {
        let machine = shared.config.lock().expect("config lock poisoned");
        reg.set_gauge(
            "fleet.config.generation",
            machine.active().1.generation as f64,
        );
        reg.set_counter("fleet.config.rollbacks", machine.rollbacks());
    }
    for i in 0..shared.shards.len() {
        reg.set_gauge(
            &format!("fleet.shard{i}.respawn_backoff_ms"),
            shared.shards.respawn_backoff_ms(i) as f64,
        );
    }
    let (interactive, batch) = shared.queue.depths();
    reg.set_counter("fleet.queue.interactive_depth", interactive as u64);
    reg.set_counter("fleet.queue.batch_depth", batch as u64);
    let mut unreachable = 0;
    for i in 0..shared.shards.len() {
        let fetched = Client::new(shared.shards.addr(i))
            .connect_timeout(Duration::from_millis(500))
            .read_timeout(Duration::from_secs(5))
            .request("GET", "/v1/metrics?format=wire", None)
            .ok()
            .and_then(|r| shared.verify_reply(r).ok())
            .and_then(|r| r.into_result().ok())
            .and_then(|r| json::parse(&r.body).ok())
            .and_then(|doc| doc.get("wire").and_then(Json::as_str).map(str::to_owned))
            .and_then(|hex| wire::from_hex(&hex).ok())
            .and_then(|bytes| {
                let mut reader = wire::Reader::new(&bytes);
                Registry::load_state(&mut reader).ok()
            });
        match fetched {
            Some(shard_reg) => reg.absorb(&format!("shard{i}"), &shard_reg),
            None => unreachable += 1,
        }
    }
    reg.set_counter("fleet.shards.unreachable", unreachable);
    Response::json(200, &reg.to_json())
}

fn shutdown(shared: &Arc<FleetShared>) -> Response {
    let (interactive, batch) = shared.queue.depths();
    shared.shutdown.store(true, Ordering::SeqCst);
    shared.queue.close();
    let _ = TcpStream::connect(shared.addr);
    Response::json(
        200,
        &Json::obj([
            ("ok", Json::Bool(true)),
            ("draining", Json::from((interactive + batch) as u64)),
        ]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let cfg = FleetConfig::default();
        assert!(cfg.shards > 0);
        assert!(cfg.queue_cap >= cfg.shard_queue_depth);
        assert!(cfg.max_in_flight_per_client > 0);
    }
}
